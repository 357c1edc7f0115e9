//! Battery-based coreset evaluation.
//!
//! The strong-coreset property quantifies over *all* solutions, which is
//! co-NP-hard to verify \[57\]; the distortion metric checks a single
//! coreset-derived solution. This module strengthens the empirical check by
//! pricing a diverse battery of candidate solutions on both sets and
//! reporting the worst ratio:
//!
//! - k-means++ seedings computed on the **full data** (solutions the coreset
//!   never saw),
//! - seedings computed on the **coreset** (the deployment path),
//! - Lloyd-refined versions of both,
//! - uniformly random centers inside the bounding box (far-from-optimal
//!   solutions, where weak compressions often break first).

use fc_clustering::lloyd::LloydConfig;
use fc_clustering::{CostKind, Solution};
use fc_geom::{BoundingBox, Dataset, Points};
use rand::Rng;

use crate::coreset::Coreset;

/// How a battery solution was produced (for reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolutionSource {
    /// k-means++ seeding on the full data.
    SeededOnData,
    /// k-means++ seeding on the coreset.
    SeededOnCoreset,
    /// Lloyd-refined (on the coreset) version of a coreset seeding.
    RefinedOnCoreset,
    /// Uniform random centers in the data's bounding box.
    RandomCenters,
}

/// One battery entry's outcome.
#[derive(Debug, Clone)]
pub struct SolutionCheck {
    /// Provenance of the candidate solution.
    pub source: SolutionSource,
    /// `cost_z(P, C)`.
    pub cost_full: f64,
    /// `cost_z(Ω, C)`.
    pub cost_coreset: f64,
    /// `max(full/coreset, coreset/full)`.
    pub ratio: f64,
}

/// Aggregate battery report.
#[derive(Debug, Clone)]
pub struct BatteryReport {
    /// Worst ratio over the battery — the empirical `1 + ε`.
    pub max_ratio: f64,
    /// Mean ratio.
    pub mean_ratio: f64,
    /// Every individual check.
    pub checks: Vec<SolutionCheck>,
}

impl BatteryReport {
    /// Whether every battery solution was priced within `1 ± eps`.
    pub fn is_eps_coreset(&self, eps: f64) -> bool {
        self.max_ratio <= 1.0 + eps
    }
}

fn check(
    data: &Dataset,
    coreset: &Coreset,
    centers: &Points,
    kind: CostKind,
    source: SolutionSource,
) -> SolutionCheck {
    let cost_full = fc_clustering::cost::cost(data, centers, kind);
    let cost_coreset = coreset.cost(centers, kind);
    let ratio = if cost_full <= 0.0 || cost_coreset <= 0.0 {
        if cost_full <= 0.0 && cost_coreset <= 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        (cost_full / cost_coreset).max(cost_coreset / cost_full)
    };
    SolutionCheck {
        source,
        cost_full,
        cost_coreset,
        ratio,
    }
}

/// Prices `rounds` solutions per source on both sets and reports the worst
/// and mean ratios.
pub fn battery_distortion<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    coreset: &Coreset,
    k: usize,
    kind: CostKind,
    rounds: usize,
) -> BatteryReport {
    assert!(rounds > 0, "need at least one battery round");
    let mut checks = Vec::with_capacity(rounds * 4);
    let bbox = BoundingBox::of(data.points());

    for _ in 0..rounds {
        // 1. Seeded on the full data.
        let on_data = fc_clustering::kmeanspp::kmeanspp(rng, data, k, kind);
        checks.push(check(
            data,
            coreset,
            &on_data.centers,
            kind,
            SolutionSource::SeededOnData,
        ));

        // 2. Seeded on the coreset.
        let on_coreset = fc_clustering::kmeanspp::kmeanspp(rng, coreset.dataset(), k, kind);
        checks.push(check(
            data,
            coreset,
            &on_coreset.centers,
            kind,
            SolutionSource::SeededOnCoreset,
        ));

        // 3. Lloyd-refined on the coreset.
        let refined: Solution = fc_clustering::lloyd::refine(
            coreset.dataset(),
            on_coreset.centers,
            kind,
            LloydConfig::fixed(8),
        );
        checks.push(check(
            data,
            coreset,
            &refined.centers,
            kind,
            SolutionSource::RefinedOnCoreset,
        ));

        // 4. Random centers in the bounding box.
        if let Some(bbox) = &bbox {
            let dim = data.dim();
            let mut flat = Vec::with_capacity(k * dim);
            for _ in 0..k {
                for d in 0..dim {
                    let lo = bbox.min()[d];
                    let hi = bbox.max()[d];
                    flat.push(lo + rng.gen::<f64>() * (hi - lo));
                }
            }
            let random = Points::from_flat(flat, dim).expect("rectangular by construction");
            checks.push(check(
                data,
                coreset,
                &random,
                kind,
                SolutionSource::RandomCenters,
            ));
        }
    }

    let max_ratio = checks.iter().map(|c| c.ratio).fold(1.0, f64::max);
    let mean_ratio = checks.iter().map(|c| c.ratio).sum::<f64>() / checks.len() as f64;
    BatteryReport {
        max_ratio,
        mean_ratio,
        checks,
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
        StdRng::seed_from_u64(91)
    }

    fn blobs() -> Dataset {
        let mut flat = Vec::new();
        for b in 0..4 {
            for i in 0..1200 {
                flat.push(b as f64 * 100.0 + (i % 30) as f64 * 0.01);
                flat.push((i / 30) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn identity_coreset_passes_every_check() {
        let d = blobs();
        let c = Coreset::new(d.clone());
        let mut r = rng();
        let rep = battery_distortion(&mut r, &d, &c, 4, CostKind::KMeans, 2);
        assert!(
            (rep.max_ratio - 1.0).abs() < 1e-9,
            "max ratio {}",
            rep.max_ratio
        );
        assert!(rep.is_eps_coreset(0.01));
        assert_eq!(rep.checks.len(), 2 * 4);
    }

    #[test]
    fn fast_coreset_passes_battery_within_modest_eps() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 400,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = FastCoreset.compress(&mut r, &d, &params);
        let rep = battery_distortion(&mut r, &d, &c, 4, CostKind::KMeans, 3);
        assert!(
            rep.max_ratio < 1.5,
            "fast-coreset battery max ratio {} (mean {})",
            rep.max_ratio,
            rep.mean_ratio
        );
    }

    #[test]
    fn battery_catches_failures_the_single_solution_metric_can_miss() {
        // Outlier data with a uniform sample that missed the outliers: the
        // battery's full-data seedings place a center at the outliers and
        // expose the miss.
        let mut flat = vec![0.0; 4_000];
        for i in 0..8 {
            flat.push(1e6 + i as f64);
        }
        let d = Dataset::from_flat(flat, 1).unwrap();
        let params = CompressionParams {
            k: 2,
            m: 50,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = Uniform.compress(&mut r, &d, &params);
        let rep = battery_distortion(&mut r, &d, &c, 2, CostKind::KMeans, 3);
        assert!(
            rep.max_ratio > 10.0,
            "battery should expose the missed outliers, got {}",
            rep.max_ratio
        );
    }

    #[test]
    fn sources_are_all_represented() {
        let d = blobs();
        let c = Coreset::new(d.clone());
        let mut r = rng();
        let rep = battery_distortion(&mut r, &d, &c, 2, CostKind::KMeans, 1);
        use SolutionSource::*;
        for source in [
            SeededOnData,
            SeededOnCoreset,
            RefinedOnCoreset,
            RandomCenters,
        ] {
            assert!(
                rep.checks.iter().any(|c| c.source == source),
                "missing source {source:?}"
            );
        }
    }
}
