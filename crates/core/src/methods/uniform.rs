//! Uniform sampling: the sublinear-time baseline.
//!
//! Every point is sampled with equal probability (weight-proportional for
//! weighted inputs, which preserves unbiasedness under re-compression) and
//! re-weighted by `W/m`. Runs in time independent of `n` given random
//! access. No accuracy guarantee: a missed outlier is unrecoverable —
//! exactly the failure Table 4 shows on c-outlier/Taxi-style data.

use fc_geom::sampling::AliasTable;
use fc_geom::Dataset;
use rand::RngCore;
use std::collections::HashMap;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;

/// Uniform (weight-proportional) sampling with replacement.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl Compressor for Uniform {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        let m = params.m;
        assert!(m > 0, "sample size must be positive");
        if m >= data.len() {
            return Coreset::new(data.clone());
        }
        let total = data.total_weight();
        let Some(table) = AliasTable::new(data.weights()) else {
            let d = data.gather(&[0], vec![0.0]).expect("index 0 exists");
            return Coreset::new(d);
        };
        let per_draw = total / m as f64;
        let mut acc: HashMap<usize, f64> = HashMap::with_capacity(m);
        for _ in 0..m {
            let i = table.sample(rng);
            *acc.entry(i).or_insert(0.0) += per_draw;
        }
        let mut indices: Vec<usize> = acc.keys().copied().collect();
        indices.sort_unstable();
        let weights: Vec<f64> = indices.iter().map(|i| acc[i]).collect();
        Coreset::new(data.gather(&indices, weights).expect("indices in range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::CostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(m: usize) -> CompressionParams {
        CompressionParams {
            k: 5,
            m,
            kind: CostKind::KMeans,
        }
    }

    #[test]
    fn total_weight_is_exactly_preserved() {
        let d = Dataset::from_flat((0..300).map(|i| i as f64).collect(), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let c = Uniform.compress(&mut rng, &d, &params(50));
        assert!((c.total_weight() - 300.0).abs() < 1e-9);
        assert!(c.len() <= 50);
    }

    #[test]
    fn m_geq_n_returns_input() {
        let d = Dataset::from_flat(vec![1.0, 2.0, 3.0], 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let c = Uniform.compress(&mut rng, &d, &params(10));
        assert_eq!(c.dataset(), &d);
    }

    #[test]
    fn misses_rare_outliers_with_high_probability() {
        // The paper's uniform-sampling failure mode: 1 outlier in 10_000
        // points is missed by a 100-point sample ~99% of the time.
        let mut flat = vec![0.0; 9_999];
        flat.push(1e9);
        let d = Dataset::from_flat(flat, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut missed = 0;
        for _ in 0..20 {
            let c = Uniform.compress(&mut rng, &d, &params(100));
            let has_outlier = c.dataset().points().iter().any(|p| p[0] > 1e8);
            if !has_outlier {
                missed += 1;
            }
        }
        assert!(missed >= 15, "outlier missed only {missed}/20 times");
    }

    #[test]
    fn weighted_input_biases_draws() {
        let d = Dataset::weighted(
            fc_geom::Points::from_flat(vec![0.0, 1.0], 1).unwrap(),
            vec![1e9, 1.0],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let c = Uniform.compress(&mut rng, &d, &params(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.dataset().point(0)[0], 0.0);
    }
}
