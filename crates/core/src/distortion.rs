//! The coreset distortion metric of \[57\] (Section 5, "Metrics"), and the
//! one judge every accuracy number in the workspace goes through.
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
//!
//! One solve is one draw of that ratio: a coreset can read 1.2 under one
//! solve seed and 2.7 under the next. [`judge`] treats it as a risk to
//! estimate — five solves, their median and worst — and also prices two
//! solutions the coreset never produced: a k-means++ seeding on the full
//! data and random centres in the data's bounding box, where a sample that
//! missed far points fails first.

use fc_clustering::lloyd::LloydConfig;
use fc_clustering::{CostKind, Solution};
use fc_geom::{BoundingBox, Dataset, Points};
use rand::Rng;

use crate::coreset::Coreset;

/// Solves per [`judge`] call.
const SOLVES: usize = 5;

/// Lloyd rounds of each of the judge's solves.
const ROUNDS: usize = 12;

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

/// What [`judge`] found: `median ≤ max ≤ battery_max`, 1.0 is perfect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The median distortion of the solves.
    pub median: f64,
    /// The worst distortion of the solves.
    pub max: f64,
    /// The worst ratio over the solves, a k-means++ seeding on the full
    /// data and `k` uniform centres in the data's bounding box.
    pub battery_max: f64,
}

/// `max(full/coreset, coreset/full)`: 1 when both costs are zero, ∞ when
/// only one is and when the price failed (a NaN cost, or both infinite).
pub(crate) fn ratio(cost_full: f64, cost_coreset: f64) -> f64 {
    if cost_full > 0.0 && cost_coreset > 0.0 {
        let r = (cost_full / cost_coreset).max(cost_coreset / cost_full);
        if r.is_nan() {
            f64::INFINITY
        } else {
            r
        }
    } else if cost_full <= 0.0 && cost_coreset <= 0.0 {
        // A perfect compression of degenerate data.
        1.0
    } else {
        f64::INFINITY
    }
}

/// The ratio at which `coreset` prices `centers` against `data`.
fn price(data: &Dataset, coreset: &Coreset, centers: &Points, kind: CostKind) -> f64 {
    ratio(
        fc_clustering::cost::cost(data, centers, kind),
        coreset.cost(centers, kind),
    )
}

/// Evaluates the distortion of `coreset` against the full `data` at one
/// solution computed on the coreset.
pub fn distortion<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    coreset: &Coreset,
    k: usize,
    kind: CostKind,
    lloyd: LloydConfig,
) -> DistortionReport {
    let solution = fc_clustering::lloyd::solve(rng, coreset.dataset(), k, kind, lloyd);
    let cost_full = solution.cost_on(data, kind);
    let cost_coreset = coreset.cost(&solution.centers, kind);
    DistortionReport {
        distortion: ratio(cost_full, cost_coreset),
        cost_full,
        cost_coreset,
        solution,
    }
}

/// Judges `coreset` against `data`: five [`distortion`] solves of 12 Lloyd
/// rounds each, in order, then one k-means++ seeding on the full data and
/// one set of `k` uniform centres in the data's bounding box.
pub fn judge<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    coreset: &Coreset,
    k: usize,
    kind: CostKind,
) -> Verdict {
    let mut ratios: Vec<f64> = (0..SOLVES)
        .map(|_| distortion(rng, data, coreset, k, kind, LloydConfig::fixed(ROUNDS)).distortion)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let max = ratios[SOLVES - 1];

    let seeded = fc_clustering::kmeanspp::kmeanspp(rng, data, k, kind).centers;
    let mut battery_max = max.max(price(data, coreset, &seeded, kind));
    if let Some(bbox) = BoundingBox::of(data.points()) {
        let flat = (0..k)
            .flat_map(|_| bbox.min().iter().zip(bbox.max()))
            .map(|(&lo, &hi)| lo + rng.gen::<f64>() * (hi - lo))
            .collect();
        let random = Points::from_flat(flat, data.dim()).expect("rectangular by construction");
        battery_max = battery_max.max(price(data, coreset, &random, kind));
    }
    Verdict {
        median: ratios[SOLVES / 2],
        max,
        battery_max,
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

    #[test]
    fn identity_coreset_reads_one_in_every_field() {
        let d = balanced_blobs();
        let c = Coreset::new(d.clone());
        let v = judge(&mut rng(), &d, &c, 4, CostKind::KMeans);
        assert_eq!(
            v,
            Verdict {
                median: 1.0,
                max: 1.0,
                battery_max: 1.0
            }
        );
    }

    #[test]
    fn same_seed_same_verdict() {
        let d = balanced_blobs();
        let params = CompressionParams {
            k: 4,
            m: 200,
            kind: CostKind::KMeans,
        };
        let c = FastCoreset.compress(&mut rng(), &d, &params);
        let a = judge(&mut rng(), &d, &c, 4, CostKind::KMeans);
        let b = judge(&mut rng(), &d, &c, 4, CostKind::KMeans);
        assert_eq!(a, b);
    }

    #[test]
    fn verdict_fields_are_ordered() {
        let balanced = balanced_blobs();
        let outlier = c_outlier();
        for (d, k, method) in [
            (&balanced, 4, &FastCoreset as &dyn Compressor),
            (&outlier, 2, &Uniform),
        ] {
            let params = CompressionParams {
                k,
                m: 60,
                kind: CostKind::KMeans,
            };
            let mut r = rng();
            let c = method.compress(&mut r, d, &params);
            let v = judge(&mut r, d, &c, k, CostKind::KMeans);
            assert!(1.0 <= v.median, "{v:?}");
            assert!(v.median <= v.max && v.max <= v.battery_max, "{v:?}");
        }
    }

    #[test]
    fn battery_exposes_a_sample_that_missed_far_outliers() {
        // The full-data seeding puts a centre at the outliers, and the
        // coreset, holding none of them, prices it far too low.
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
        let mut r = StdRng::seed_from_u64(91);
        let c = Uniform.compress(&mut r, &d, &params);
        let v = judge(&mut r, &d, &c, 2, CostKind::KMeans);
        assert!(v.battery_max > 10.0, "{v:?}");
    }

    #[test]
    fn judge_runs_under_kmedian() {
        let d = balanced_blobs();
        let params = CompressionParams {
            k: 4,
            m: 200,
            kind: CostKind::KMedian,
        };
        let mut r = rng();
        let c = FastCoreset.compress(&mut r, &d, &params);
        let v = judge(&mut r, &d, &c, 4, CostKind::KMedian);
        assert!(v.median <= v.max && v.max <= v.battery_max, "{v:?}");
        assert!(v.battery_max < 1.5, "{v:?}");
    }

    #[test]
    fn a_nan_cost_reads_infinite_everywhere() {
        // A zero-weight point too far away to square: its term in the
        // full-data cost is 0 · ∞ = NaN.
        let mut flat: Vec<f64> = (0..40).map(f64::from).collect();
        flat.push(1e300);
        let mut weights = vec![1.0; 40];
        weights.push(0.0);
        let d = Dataset::weighted(Points::from_flat(flat, 1).unwrap(), weights).unwrap();
        let c = Coreset::new(Dataset::from_flat((0..40).map(f64::from).collect(), 1).unwrap());

        let rep = distortion(
            &mut rng(),
            &d,
            &c,
            2,
            CostKind::KMeans,
            LloydConfig::fixed(12),
        );
        assert!(rep.cost_full.is_nan());
        assert_eq!(rep.distortion, f64::INFINITY);
        let v = judge(&mut rng(), &d, &c, 2, CostKind::KMeans);
        assert_eq!(v.median, f64::INFINITY);
        assert_eq!(v.battery_max, f64::INFINITY);
        let plan = crate::plan::PlanBuilder::new(2)
            .method(crate::plan::Method::Uniform)
            .m_scalar(5)
            .build()
            .unwrap();
        let out = plan.run(&mut rng(), &d).unwrap();
        assert!(out.cost_on_data.is_nan());
        assert_eq!(out.distortion, f64::INFINITY);
    }
}
