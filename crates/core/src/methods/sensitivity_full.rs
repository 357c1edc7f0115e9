//! Standard sensitivity sampling \[37, 47\]: the `Õ(nd + nk)` strong-coreset
//! baseline.
//!
//! Seeds a full k-means++ solution (`O(ndk)` — the `Ω(nk)` bottleneck
//! conjectured necessary by \[31\] and removed by Fast-Coresets), then samples
//! by Eq. (1). This is the method \[57\] recommends and the distortion
//! baseline of Table 2; Figure 1 shows its runtime growing linearly in `k`
//! where Fast-Coresets stay near-flat.

use fc_geom::Dataset;
use rand::RngCore;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::sampling::{
    at_weight_scale, importance_sample, importance_sample_rebalanced, WeightMode,
};
use crate::sensitivity::sensitivity_scores;

/// Standard (full-k) sensitivity sampling.
#[derive(Debug, Clone, Copy)]
pub struct StandardSensitivity {
    /// Weight finalization mode (see [`WeightMode`]).
    pub weight_mode: WeightMode,
}

impl Default for StandardSensitivity {
    fn default() -> Self {
        Self {
            weight_mode: WeightMode::Unbiased,
        }
    }
}

impl Compressor for StandardSensitivity {
    fn name(&self) -> &str {
        "sensitivity"
    }

    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        at_weight_scale(data, |data| {
            let seeding = fc_clustering::kmeanspp::kmeanspp(rng, data, params.k, params.kind);
            let cost_z = seeding.cost_z(params.kind);
            let k_eff = seeding.centers.len();
            let scores = sensitivity_scores(&seeding.labels, &cost_z, data.weights(), k_eff);
            match self.weight_mode {
                WeightMode::Unbiased => importance_sample(rng, data, &scores, params.m),
                WeightMode::Rebalanced { epsilon } => importance_sample_rebalanced(
                    rng,
                    data,
                    &scores,
                    &seeding.labels,
                    &seeding.centers,
                    params.m,
                    epsilon,
                ),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::CostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn imbalanced_blobs() -> Dataset {
        // One huge cluster, one tiny far cluster — uniform sampling misses
        // the tiny one, sensitivity sampling must not.
        let mut flat = Vec::new();
        for i in 0..9_000 {
            flat.push((i % 100) as f64 * 0.001);
            flat.push(0.0);
        }
        for i in 0..25 {
            flat.push(5_000.0 + (i % 5) as f64 * 0.001);
            flat.push(0.0);
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn captures_tiny_far_cluster() {
        let d = imbalanced_blobs();
        let params = CompressionParams {
            k: 2,
            m: 100,
            kind: CostKind::KMeans,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let mut hits = 0;
        for _ in 0..10 {
            let c = StandardSensitivity::default().compress(&mut rng, &d, &params);
            if c.dataset().points().iter().any(|p| p[0] > 1_000.0) {
                hits += 1;
            }
        }
        assert!(hits >= 9, "tiny cluster captured only {hits}/10 times");
    }

    #[test]
    fn coreset_prices_solutions_accurately() {
        let d = imbalanced_blobs();
        let params = CompressionParams {
            k: 2,
            m: 400,
            kind: CostKind::KMeans,
        };
        let mut rng = StdRng::seed_from_u64(15);
        let c = StandardSensitivity::default().compress(&mut rng, &d, &params);
        // Price the natural 2-center solution on both sets.
        let centers = fc_geom::Points::from_flat(vec![0.05, 0.0, 5_000.0, 0.0], 2).unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let compressed = c.cost(&centers, CostKind::KMeans);
        let ratio = (full / compressed).max(compressed / full);
        assert!(
            ratio < 1.5,
            "cost ratio {ratio} too large (full {full}, coreset {compressed})"
        );
    }

    #[test]
    fn rebalanced_mode_preserves_cluster_mass_lower_bound() {
        let d = imbalanced_blobs();
        let params = CompressionParams {
            k: 2,
            m: 100,
            kind: CostKind::KMeans,
        };
        let mut rng = StdRng::seed_from_u64(17);
        let comp = StandardSensitivity {
            weight_mode: WeightMode::Rebalanced { epsilon: 0.05 },
        };
        let c = comp.compress(&mut rng, &d, &params);
        // Total mass must now be >= the input weight (each cluster topped up
        // to (1+eps) of its true mass).
        assert!(
            c.total_weight() >= d.total_weight() * 0.999,
            "rebalanced total {} below input {}",
            c.total_weight(),
            d.total_weight()
        );
        assert!(c.total_weight() <= d.total_weight() * 1.2);
    }
}
