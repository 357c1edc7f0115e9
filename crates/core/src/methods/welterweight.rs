//! Welterweight coresets: sensitivity sampling against a j-means solution,
//! `1 ≤ j ≤ k` — the paper's interpolation knob between lightweight
//! coresets (`j = 1`) and full sensitivity sampling (`j = k`).
//!
//! Seeding costs `O(ndj)`; the guarantee strengthens with `j` because the
//! candidate solution's clusters align better with OPT's clusters and the
//! per-cluster mass terms protect more regions (§5.3's analysis of why
//! `j < k` can still miss a cluster). Table 7 sweeps this knob against the
//! Gaussian-mixture imbalance parameter γ.

use fc_geom::Dataset;
use rand::RngCore;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::sampling::{at_weight_scale, importance_sample};
use crate::sensitivity::sensitivity_scores;

/// How the number of seeding centers `j` is derived from `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JCount {
    /// A fixed `j`.
    Fixed(usize),
    /// `j = max(2, ⌈log₂ k⌉)` — the paper's default.
    LogK,
    /// `j = max(2, ⌈√k⌉)`.
    SqrtK,
}

impl JCount {
    /// Resolves to a concrete `j` for a given `k`.
    pub fn resolve(self, k: usize) -> usize {
        let j = match self {
            JCount::Fixed(j) => j,
            JCount::LogK => (k.max(2) as f64).log2().ceil() as usize,
            JCount::SqrtK => (k as f64).sqrt().ceil() as usize,
        };
        j.clamp(1, k.max(1))
    }
}

/// The welterweight compressor.
#[derive(Debug, Clone, Copy)]
pub struct Welterweight {
    j: JCount,
}

impl Welterweight {
    /// Creates a welterweight compressor with the given `j` policy.
    pub fn new(j: JCount) -> Self {
        Self { j }
    }

    /// The `j` policy.
    pub fn j_count(&self) -> JCount {
        self.j
    }
}

impl Default for Welterweight {
    fn default() -> Self {
        Self::new(JCount::LogK)
    }
}

impl Compressor for Welterweight {
    fn name(&self) -> &str {
        match self.j {
            JCount::Fixed(_) => "welterweight(fixed j)",
            JCount::LogK => "welterweight(log k)",
            JCount::SqrtK => "welterweight(sqrt k)",
        }
    }

    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        let j = self.j.resolve(params.k);
        at_weight_scale(data, |data| {
            let seeding = fc_clustering::kmeanspp::kmeanspp(rng, data, j, params.kind);
            let cost_z = seeding.cost_z(params.kind);
            let scores = sensitivity_scores(
                &seeding.labels,
                &cost_z,
                data.weights(),
                seeding.centers.len(),
            );
            importance_sample(rng, data, &scores, params.m)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::CostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn j_count_resolution() {
        assert_eq!(JCount::Fixed(5).resolve(100), 5);
        assert_eq!(JCount::LogK.resolve(100), 7); // ceil(log2 100)
        assert_eq!(JCount::SqrtK.resolve(100), 10);
        assert_eq!(JCount::Fixed(500).resolve(100), 100); // clamped to k
        assert_eq!(JCount::LogK.resolve(1), 1);
    }

    #[test]
    fn compresses_to_m_points() {
        let d = Dataset::from_flat((0..2000).map(|i| (i % 83) as f64).collect(), 1).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let params = CompressionParams {
            k: 16,
            m: 200,
            kind: CostKind::KMeans,
        };
        let c = Welterweight::default().compress(&mut rng, &d, &params);
        assert!(c.len() <= 200);
        assert!(
            c.len() > 100,
            "merging should not collapse most of the sample"
        );
        assert!((c.total_weight() - 2000.0).abs() / 2000.0 < 0.25);
    }

    #[test]
    fn higher_j_captures_hidden_central_cluster_more_often() {
        // The Figure 3 / Table 7 story: a small cluster near the global mean
        // is invisible to j = 1 but visible once some seed center lands near
        // it, which becomes likely as j grows.
        let mut flat = Vec::new();
        for i in 0..3000 {
            flat.push(-100.0 + (i % 10) as f64 * 0.001);
            flat.push(0.0);
        }
        for i in 0..3000 {
            flat.push(100.0 + (i % 10) as f64 * 0.001);
            flat.push(0.0);
        }
        for i in 0..40 {
            flat.push((i % 5) as f64 * 0.001);
            flat.push(0.0);
        }
        let d = Dataset::from_flat(flat, 2).unwrap();
        let params = CompressionParams {
            k: 3,
            m: 60,
            kind: CostKind::KMeans,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let capture_rate = |j: JCount, rng: &mut StdRng| -> usize {
            let ww = Welterweight::new(j);
            (0..12)
                .filter(|_| {
                    let c = ww.compress(rng, &d, &params);
                    let hit = c.dataset().points().iter().any(|p| p[0].abs() < 1.0);
                    hit
                })
                .count()
        };
        let low = capture_rate(JCount::Fixed(1), &mut rng);
        let high = capture_rate(JCount::Fixed(3), &mut rng);
        assert!(
            high > low,
            "central-cluster capture should improve with j: j=1 {low}/12 vs j=3 {high}/12"
        );
    }

    #[test]
    fn name_reflects_policy() {
        assert_eq!(
            Welterweight::new(JCount::LogK).name(),
            "welterweight(log k)"
        );
        assert_eq!(
            Welterweight::new(JCount::SqrtK).name(),
            "welterweight(sqrt k)"
        );
    }
}
