//! The coreset distortion metric of \[57\] (Section 5, "Metrics").
//!
//! Verifying Definition 2.1 over *all* solutions is co-NP-hard, so the
//! evaluation uses the practical proxy: compute a candidate solution `C_Ω`
//! *on the coreset* (k-means++ seeding plus Lloyd refinement, restricted to
//! the compressed points), then report
//!
//! ```text
//! distortion = max( cost(P, C_Ω) / cost(Ω, C_Ω),
//!                   cost(Ω, C_Ω) / cost(P, C_Ω) )
//! ```
//!
//! which is `≤ 1 + ε` whenever the coreset property holds for `C_Ω` and can
//! be unbounded otherwise — e.g. when a sampler missed a cluster, `C_Ω`
//! places no center there and the full-data cost explodes.

use fc_clustering::lloyd::LloydConfig;
use fc_clustering::{CostKind, Solution};
use fc_geom::Dataset;
use rand::Rng;

use crate::coreset::Coreset;

/// Outcome of a distortion evaluation.
#[derive(Debug, Clone)]
pub struct DistortionReport {
    /// `max(full/compressed, compressed/full)` — 1.0 is perfect.
    pub distortion: f64,
    /// `cost_z(P, C_Ω)`.
    pub cost_full: f64,
    /// `cost_z(Ω, C_Ω)`.
    pub cost_coreset: f64,
    /// The candidate solution computed on the coreset.
    pub solution: Solution,
}

/// Computes a candidate solution on the coreset only: k-means++ seeding and
/// Lloyd (or Weiszfeld) refinement over the weighted compressed points —
/// the "cluster the compression" step every downstream task performs.
pub fn solve_on_coreset<R: Rng + ?Sized>(
    rng: &mut R,
    coreset: &Coreset,
    k: usize,
    kind: CostKind,
    lloyd: LloydConfig,
) -> Solution {
    fc_clustering::lloyd::solve(rng, coreset.dataset(), k, kind, lloyd)
}

/// Evaluates the distortion of `coreset` against the full `data`.
pub fn distortion<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    coreset: &Coreset,
    k: usize,
    kind: CostKind,
    lloyd: LloydConfig,
) -> DistortionReport {
    let solution = solve_on_coreset(rng, coreset, k, kind, lloyd);
    let cost_full = solution.cost_on(data, kind);
    let cost_coreset = coreset.cost(&solution.centers, kind);
    let distortion = if cost_full <= 0.0 || cost_coreset <= 0.0 {
        // Degenerate: zero cost on either side means either a perfect
        // compression of degenerate data (both zero → distortion 1) or a
        // catastrophic one (one zero → unbounded).
        if cost_full <= 0.0 && cost_coreset <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        (cost_full / cost_coreset).max(cost_coreset / cost_full)
    };
    DistortionReport {
        distortion,
        cost_full,
        cost_coreset,
        solution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{CompressionParams, Compressor};
    use crate::methods::Uniform;
    use crate::FastCoreset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    fn balanced_blobs() -> Dataset {
        let mut flat = Vec::new();
        for b in 0..4 {
            for i in 0..500 {
                flat.push(b as f64 * 100.0 + (i % 20) as f64 * 0.01);
                flat.push((i / 20) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    fn c_outlier() -> Dataset {
        // n - c points at one spot, c points far away: uniform sampling
        // misses the outliers and distorts catastrophically.
        let mut flat = Vec::new();
        for i in 0..6_000 {
            flat.push((i % 10) as f64 * 1e-4);
            flat.push(0.0);
        }
        for i in 0..10 {
            flat.push(1e6 + i as f64 * 1e-4);
            flat.push(0.0);
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn identity_compression_has_distortion_one() {
        let d = balanced_blobs();
        let c = Coreset::new(d.clone());
        let mut r = rng();
        let rep = distortion(&mut r, &d, &c, 4, CostKind::KMeans, LloydConfig::fixed(12));
        assert!(
            (rep.distortion - 1.0).abs() < 1e-9,
            "distortion {}",
            rep.distortion
        );
    }

    #[test]
    fn good_coreset_has_low_distortion_on_balanced_data() {
        let d = balanced_blobs();
        let params = CompressionParams {
            k: 4,
            m: 200,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = FastCoreset.compress(&mut r, &d, &params);
        let rep = distortion(&mut r, &d, &c, 4, CostKind::KMeans, LloydConfig::fixed(12));
        assert!(rep.distortion < 1.5, "distortion {}", rep.distortion);
    }

    #[test]
    fn uniform_fails_catastrophically_on_c_outlier() {
        let d = c_outlier();
        let params = CompressionParams {
            k: 2,
            m: 60,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let mut worst: f64 = 1.0;
        for _ in 0..5 {
            let c = Uniform.compress(&mut r, &d, &params);
            let rep = distortion(&mut r, &d, &c, 2, CostKind::KMeans, LloydConfig::fixed(12));
            worst = worst.max(rep.distortion);
        }
        // Paper Table 4: distortion > 10 ("catastrophic") on c-outlier.
        assert!(
            worst > 10.0,
            "uniform sampling distortion {worst} suspiciously good"
        );
    }

    #[test]
    fn fast_coreset_survives_c_outlier() {
        let d = c_outlier();
        let params = CompressionParams {
            k: 2,
            m: 60,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let mut worst: f64 = 1.0;
        for _ in 0..5 {
            let c = FastCoreset.compress(&mut r, &d, &params);
            let rep = distortion(&mut r, &d, &c, 2, CostKind::KMeans, LloydConfig::fixed(12));
            worst = worst.max(rep.distortion);
        }
        assert!(worst < 5.0, "fast-coreset distortion {worst} on c-outlier");
    }

    #[test]
    fn degenerate_costs_handled() {
        // Dataset of identical points: every compression solves exactly.
        let d = Dataset::from_flat(vec![1.0; 40], 2).unwrap();
        let c = Coreset::new(d.clone());
        let mut r = rng();
        let rep = distortion(&mut r, &d, &c, 2, CostKind::KMeans, LloydConfig::fixed(12));
        assert_eq!(rep.distortion, 1.0);
    }
}
