//! `Crude-Approx` (Algorithm 2): an `O(n·poly(d, log Δ))`-factor upper bound
//! on the optimal clustering cost in `Õ(nd log log Δ)` time.
//!
//! Lemma 4.1: on a randomly shifted grid, if the input occupies at least
//! `k + 1` cells of side `s`, some cell holds no center, so the optimal tree
//! cost is `Ω(s)`; if it fits in `k` cells of side `2s`, placing one center
//! per occupied cell costs at most `n·√d·2s` per level. Counting occupied
//! cells is one dictionary pass, the count is monotone in the level (dyadic
//! grids nest), and a binary search over the `O(log Δ)` levels finds the
//! threshold with `O(log log Δ)` passes.
//!
//! Cost model: the `n·d` divisions happen once, inside the first probe,
//! which quantises each point at the finest level as it reaches it. Every
//! later probe shifts those integer rows right and looks them up in a
//! dictionary of at most `k + 1` exact rows, stopping at the first cell past
//! `k` — `O(n·d)` integer operations when the level holds, far fewer when
//! it does not. The finest level is chosen from the data so that no cell
//! coordinate saturates, which makes the bound translation-invariant.

use fc_geom::points::Points;
use rand::Rng;

use crate::grid::{grid_coord, RowInterner};
use fc_geom::distance::CostKind;

/// Coarsest probe level: side `Δ·2^44`, one cell unless a boundary crosses.
const LO: i32 = -44;
/// Finest probe level: `Δ·2^-52` is the f64 significand resolution relative
/// to the diameter.
const HI: i32 = 52;

/// Result of the crude approximation.
#[derive(Debug, Clone)]
pub struct CrudeBound {
    /// Upper bound `U ≥ OPT_z` (`0` when `k` cells suffice at every
    /// resolution, i.e. OPT = 0 because there are at most `k` distinct
    /// locations).
    pub upper: f64,
    /// The threshold cell side: the finest side at which the input fits in
    /// at most `k` occupied cells.
    pub side: f64,
    /// Number of `Count-Distinct-Cells` passes performed (the paper's
    /// `O(log log Δ)` claim; asserted in tests).
    pub probes: usize,
}

impl CrudeBound {
    /// The bound as a *length*: `U^{1/z}`. `U` is a cost, a sum of `dist^z`
    /// terms, so when it was computed over unit masses (`total_weight` = the
    /// point count) no point lies farther than this from its centre in an
    /// optimal solution — one point at distance `ℓ` alone pays `ℓ^z`. This,
    /// not `U`, is what [`reduce_spread`](crate::reduce_spread) scales its
    /// grids by.
    pub fn reach(&self, kind: CostKind) -> f64 {
        self.upper.powf(1.0 / kind.z())
    }
}

/// Runs `Crude-Approx` on `points` for a `k`-clustering objective.
///
/// `total_weight` scales the per-point charge `(√d · side)^z` into the
/// global bound, and names the cost the bound is on: the dataset's total
/// weight for the weighted cost, the point count for the cost of the same
/// locations at unit mass. Spread reduction wants the second — see
/// [`CrudeBound::reach`].
pub fn crude_approx<R: Rng + ?Sized>(
    rng: &mut R,
    points: &Points,
    k: usize,
    kind: CostKind,
    total_weight: f64,
) -> CrudeBound {
    assert!(k > 0, "k must be positive");
    assert!(!points.is_empty(), "crude approximation needs points");
    let dim = points.dim();
    let delta = fc_geom::bbox::diameter_upper_bound(points);
    if delta <= 0.0 {
        // All points coincide: OPT = 0 at any k.
        return CrudeBound {
            upper: 0.0,
            side: 0.0,
            probes: 0,
        };
    }
    let shift: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * delta).collect();

    // `Count-Distinct-Cells`: `min(count, k + 1)` over the rows `cell_of`
    // writes, stopping at the first cell past `k`.
    let mut seen = RowInterner::default();
    let mut row = vec![0i64; dim];
    let mut probes = 0;
    let mut count_distinct = |cell_of: &mut dyn FnMut(usize, &mut [i64])| -> usize {
        probes += 1;
        seen.reset(dim, k.min(points.len()) + 1);
        for i in 0..points.len() {
            cell_of(i, &mut row);
            seen.intern(&row);
            if seen.len() > k {
                break;
            }
        }
        seen.len()
    };

    // Level ℓ has side Δ·2^{-ℓ}. Each point is quantised once, at the finest
    // level, as the first probe reaches it; sides are power-of-two multiples
    // and share the shift, so its cell at a coarser level is a right shift
    // of that row and every later probe is one pass of shifts and
    // dictionary lookups.
    let finest = finest_level(points, &shift, delta);
    let finest_side = delta * f64::powi(2.0, -finest);
    let mut cells: Vec<i64> = Vec::with_capacity(points.len() * dim);
    let coarsen = |row: &mut [i64], fine: &[i64], level: i32| {
        let by = (finest - level).min(63) as u32;
        for (c, &f) in row.iter_mut().zip(fine) {
            *c = f >> by;
        }
    };

    // The occupied-cell count is non-decreasing in ℓ (grids nest). Bracket
    // the threshold, then binary search.
    let coarsest = count_distinct(&mut |i, row| {
        let quantised = points.row(i).iter().zip(&shift);
        cells.extend(quantised.map(|(&x, &s)| grid_coord(x, s, finest_side)));
        coarsen(row, &cells[i * dim..], LO);
    });
    if coarsest > k {
        // Even absurdly coarse grids are fragmented (can only happen with
        // 2^d > k and adversarial boundary luck): fall back to the trivial
        // bound cost(P, any single point) ≤ W·Δ^z.
        let side = delta;
        let upper = total_weight * ((dim as f64).sqrt() * side).powf(kind.z());
        return CrudeBound {
            upper,
            side,
            probes,
        };
    }
    let mut count_at = |level: i32| -> usize {
        count_distinct(&mut |i, row| coarsen(row, &cells[i * dim..], level))
    };
    if count_at(finest) <= k {
        // At f64 resolution the input still fits in k cells: at most k
        // locations distinguishable at the data's scale, so OPT is zero up
        // to relative machine precision. Return that epsilon-scale bound so
        // the result still dominates OPT.
        let side = finest_side;
        let upper = total_weight * ((dim as f64).sqrt() * side).powf(kind.z());
        return CrudeBound {
            upper,
            side,
            probes,
        };
    }

    // Invariant: count(lo) <= k < count(hi).
    let (mut lo, mut hi) = (LO, finest);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if count_at(mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // `lo` is the finest level whose grid holds the input in ≤ k cells.
    let side = delta * f64::powi(2.0, -lo);
    // One center per occupied cell ⇒ every point pays at most the cell
    // diagonal: OPT_z ≤ Σ w_p (√d·side)^z.
    let upper = total_weight * ((dim as f64).sqrt() * side).powf(kind.z());
    CrudeBound {
        upper,
        side,
        probes,
    }
}

/// The finest probe level: [`HI`], lowered on data far from the origin
/// until the largest `|x − shift| / side` over the dimensions that vary at
/// all stays below `2^63` — a saturated cell coordinate would merge distinct
/// cells and break `U ≥ OPT`.
fn finest_level(points: &Points, shift: &[f64], delta: f64) -> i32 {
    let bbox = fc_geom::BoundingBox::of(points).expect("non-empty checked by the caller");
    let reach = bbox
        .min()
        .iter()
        .zip(bbox.max())
        .zip(shift)
        .filter(|((lo, hi), _)| lo < hi)
        .fold(0.0f64, |reach, ((lo, hi), s)| {
            reach.max((lo - s).abs()).max((hi - s).abs())
        });
    // ⌊log2(reach / Δ)⌋ from the exponent field: `reach / side` stays below
    // `2^63` exactly when this plus the level is at most 62.
    let exponent = ((reach / delta).to_bits() >> 52 & 0x7ff) as i32 - 1023;
    HI.min(62 - exponent).max(LO + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::cost::cost;
    use fc_clustering::kmeanspp::kmeanspp;
    use fc_clustering::lloyd::{refine, LloydConfig};
    use fc_geom::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    fn clustered_data(k: usize, per: usize, sep: f64) -> Dataset {
        let mut flat = Vec::new();
        for c in 0..k {
            for i in 0..per {
                flat.push(c as f64 * sep + (i % 5) as f64 * 0.01);
                flat.push((i / 5) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    /// A decent estimate of OPT for validating the bound.
    fn near_opt(d: &Dataset, k: usize, kind: CostKind) -> f64 {
        let mut r = rng();
        let s = kmeanspp(&mut r, d, k, kind);
        refine(d, s.centers, kind, LloydConfig::default()).cost
    }

    #[test]
    fn upper_bound_dominates_opt_kmedian() {
        let d = clustered_data(4, 25, 100.0);
        let mut r = rng();
        for _ in 0..5 {
            let b = crude_approx(&mut r, d.points(), 4, CostKind::KMedian, d.total_weight());
            let opt = near_opt(&d, 4, CostKind::KMedian);
            assert!(
                b.upper >= opt,
                "upper bound {} fails to dominate near-OPT {}",
                b.upper,
                opt
            );
        }
    }

    #[test]
    fn upper_bound_dominates_opt_kmeans() {
        let d = clustered_data(3, 30, 50.0);
        let mut r = rng();
        let b = crude_approx(&mut r, d.points(), 3, CostKind::KMeans, d.total_weight());
        let opt = near_opt(&d, 3, CostKind::KMeans);
        assert!(b.upper >= opt, "upper {} < near-OPT {}", b.upper, opt);
    }

    #[test]
    fn upper_bound_dominates_opt_far_from_the_origin() {
        // The bound is a statement about the data's shape, not about where
        // it sits: projected metres or timestamps put the same four blobs
        // thousands of diameters from the origin.
        for offset in [0.0, 1e7, 1e9] {
            let near = clustered_data(4, 25, 100.0);
            let far: Vec<f64> = near.points().as_flat().iter().map(|x| x + offset).collect();
            let d = Dataset::from_flat(far, 2).unwrap();
            let opt = near_opt(&d, 2, CostKind::KMeans);
            let mut r = rng();
            for _ in 0..5 {
                let b = crude_approx(&mut r, d.points(), 2, CostKind::KMeans, d.total_weight());
                assert!(
                    b.upper >= opt,
                    "offset {offset}: upper {} < near-OPT {opt} after {} probes",
                    b.upper,
                    b.probes
                );
            }
        }
    }

    #[test]
    fn upper_bound_is_polynomially_tight() {
        // The guarantee is an O(n·poly)-approximation: on well-clustered
        // data the bound must not exceed n²·√d·Δ^z-ish slack. We check a
        // loose version: U ≤ W · (√d·Δ)^z.
        let d = clustered_data(4, 25, 10.0);
        let delta = fc_geom::bbox::diameter_upper_bound(d.points());
        let mut r = rng();
        let b = crude_approx(&mut r, d.points(), 4, CostKind::KMedian, d.total_weight());
        assert!(b.upper <= d.total_weight() * (2.0f64).sqrt() * delta * 1.001);
        assert!(b.upper > 0.0);
    }

    #[test]
    fn identical_points_give_zero() {
        let p = Points::from_flat(vec![2.0, 2.0, 2.0, 2.0], 2).unwrap();
        let mut r = rng();
        let b = crude_approx(&mut r, &p, 1, CostKind::KMeans, 2.0);
        assert_eq!(b.upper, 0.0);
    }

    #[test]
    fn k_at_least_distinct_points_gives_epsilon_bound() {
        // Three distinct locations, k = 3: OPT = 0 and the bound collapses
        // to machine-epsilon scale relative to the diameter.
        let p = Points::from_flat(vec![0.0, 0.0, 5.0, 0.0, 0.0, 5.0], 2).unwrap();
        let delta = fc_geom::bbox::diameter_upper_bound(&p);
        let mut r = rng();
        let b = crude_approx(&mut r, &p, 3, CostKind::KMedian, 3.0);
        assert!(
            b.upper <= 3.0 * delta * f64::powi(2.0, -40),
            "bound {} not ~0",
            b.upper
        );
    }

    #[test]
    fn probe_count_is_logarithmic() {
        // Binary search over ~144 candidate levels: ≤ ~10 probes plus the
        // two bracket checks.
        let d = clustered_data(5, 40, 1000.0);
        let mut r = rng();
        let b = crude_approx(&mut r, d.points(), 5, CostKind::KMeans, d.total_weight());
        assert!(b.probes <= 12, "{} probes", b.probes);
    }

    #[test]
    fn bound_scales_with_weights() {
        let d = clustered_data(3, 20, 100.0);
        let mut r1 = rng();
        let mut r2 = rng();
        let b1 = crude_approx(&mut r1, d.points(), 3, CostKind::KMedian, d.total_weight());
        let b2 = crude_approx(
            &mut r2,
            d.points(),
            3,
            CostKind::KMedian,
            2.0 * d.total_weight(),
        );
        // Same rng seed ⇒ same shift ⇒ exactly double the bound.
        assert!((b2.upper - 2.0 * b1.upper).abs() < 1e-9 * b1.upper.max(1.0));
    }

    #[test]
    fn reach_is_a_length_under_both_objectives() {
        // Stretch the data by c: a length grows by c, the k-means cost by
        // c². Same seed ⇒ the shift stretches along, so the ratios are exact
        // up to rounding.
        let near = clustered_data(4, 25, 100.0);
        let stretched: Vec<f64> = near.points().as_flat().iter().map(|x| x * 8.0).collect();
        let far = Dataset::from_flat(stretched, 2).unwrap();
        for kind in [CostKind::KMedian, CostKind::KMeans] {
            let n = near.len() as f64;
            let a = crude_approx(&mut rng(), near.points(), 4, kind, n);
            let b = crude_approx(&mut rng(), far.points(), 4, kind, n);
            assert!(
                (b.reach(kind) / a.reach(kind) - 8.0).abs() < 1e-9,
                "{kind:?}"
            );
            // And no point of the near-optimal solution is farther than it
            // from its centre.
            let mut r = rng();
            let seeding = kmeanspp(&mut r, &near, 4, kind);
            let sol = refine(&near, seeding.centers, kind, LloydConfig::default());
            let farthest = (near.points().iter().zip(&sol.labels))
                .map(|(p, &l)| fc_geom::distance::dist(p, sol.centers.row(l)))
                .fold(0.0, f64::max);
            assert!(
                a.reach(kind) >= farthest,
                "{kind:?}: {} < {farthest}",
                a.reach(kind)
            );
        }
    }

    #[test]
    fn single_center_cost_validates_bound_formula() {
        // The bound must dominate the cost of the "one center per occupied
        // cell" solution it is derived from; cross-check against the best
        // single-center solution when k = 1.
        let d = clustered_data(1, 50, 1.0);
        let mut r = rng();
        let b = crude_approx(&mut r, d.points(), 1, CostKind::KMedian, d.total_weight());
        let mean = d.weighted_mean().unwrap();
        let c = Points::from_flat(mean, 2).unwrap();
        let opt_ish = cost(&d, &c, CostKind::KMedian);
        assert!(
            b.upper >= opt_ish * 0.99,
            "upper {} vs 1-center cost {}",
            b.upper,
            opt_ish
        );
    }
}
