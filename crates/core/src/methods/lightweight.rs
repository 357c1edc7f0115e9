//! Lightweight coresets \[6\]: sensitivity sampling against the 1-means
//! solution.
//!
//! `ŝ(p) = w_p/W + w_p·dist(p, µ)^z / cost_z(P, µ)` where `µ` is the data
//! mean. One `O(nd)` pass, no seeding — but only an *additive*
//! `ε·cost(P, {µ})` guarantee: clusters close to the center of mass receive
//! almost no probability and can be missed entirely (Figure 3's circled
//! cluster).

use fc_geom::Dataset;
use rand::RngCore;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::sampling::importance_sample;
use crate::sensitivity::lightweight_scores;

/// The lightweight-coreset compressor (`j = 1` in the welterweight family).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lightweight;

impl Compressor for Lightweight {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        importance_sample(rng, data, &lightweight_scores(data, params.kind), params.m)
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
            k: 2,
            m,
            kind: CostKind::KMeans,
        }
    }

    #[test]
    fn catches_far_outliers_reliably() {
        // Unlike uniform sampling, the distance term makes a far outlier
        // nearly certain to be sampled.
        let mut flat = vec![0.0; 9_999];
        flat.push(1e6);
        let d = Dataset::from_flat(flat, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut hits = 0;
        for _ in 0..10 {
            let c = Lightweight.compress(&mut rng, &d, &params(100));
            if c.dataset().points().iter().any(|p| p[0] > 1e5) {
                hits += 1;
            }
        }
        assert!(hits >= 9, "outlier captured only {hits}/10 times");
    }

    #[test]
    fn misses_small_cluster_near_the_mean() {
        // The Figure-3 failure mode: a tiny cluster at the center of mass of
        // two large symmetric clusters gets vanishing sampling probability.
        let mut flat = vec![-100.0; 5_000];
        flat.extend(std::iter::repeat_n(100.0, 5_000));
        for i in 0..20 {
            flat.push(0.001 * i as f64); // tiny central cluster
        }
        let d = Dataset::from_flat(flat, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut captured = 0;
        for _ in 0..10 {
            let c = Lightweight.compress(&mut rng, &d, &params(50));
            if c.dataset().points().iter().any(|p| p[0].abs() < 1.0) {
                captured += 1;
            }
        }
        assert!(
            captured <= 3,
            "central cluster captured {captured}/10 times — too often"
        );
    }

    #[test]
    fn weight_estimator_stays_unbiased() {
        let d = Dataset::from_flat((0..500).map(|i| (i % 37) as f64).collect(), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut totals = Vec::new();
        for _ in 0..20 {
            totals.push(
                Lightweight
                    .compress(&mut rng, &d, &params(80))
                    .total_weight(),
            );
        }
        let mean: f64 = totals.iter().sum::<f64>() / totals.len() as f64;
        assert!((mean - 500.0).abs() / 500.0 < 0.15, "mean {mean}");
    }
}
