//! `Reduce-Spread` (Algorithm 3): bounding the spread by `poly(n, d, log Δ)`.
//!
//! Two steps, both driven by one *length*: the reach `L`, a distance no
//! point exceeds to its centre in an optimal solution. The crude bound
//! `U ≥ OPT_z` is a *cost* — a sum of `dist^z` — so `L = U^{1/z}`
//! ([`CrudeBound::reach`](crate::crude::CrudeBound::reach)); the paper
//! states the algorithm for k-median, where the two coincide.
//!
//! 1. **Reduce-Diameter** — overlay a grid of pitch `r = diameter_factor·L`,
//!    shifted uniformly at random. Lemma 4.3: two points at distance `ℓ` land
//!    in different cells with probability at most `√d·ℓ/r`, so with the
//!    paper's `r = √d·n²·L` no optimal cluster is split w.h.p. Occupied cells
//!    ("boxes") are then slid toward each other along every axis until
//!    consecutive boxes are within `2r`, which caps the diameter at
//!    `O(√d·k·r)` without changing any intra-box geometry (Proposition 4.4).
//! 2. **Reduce-Min-Distance** — round every coordinate to a multiple of
//!    `g = L / rounding_denom`, raising the minimum distance to `g` at an
//!    additive per-point error of at most `g·√d`.
//!
//! The paper's exact constants (`n²`, `n⁴d² log Δ`) exceed f64's 53-bit
//! significand for realistic `n` — box shifts of ~10¹⁵ against point extents
//! of ~1 would destroy the very geometry the transform promises to preserve —
//! so [`SpreadParams`] exposes them as parameters: [`SpreadParams::paper`]
//! reproduces the theory (for small-`n` verification) and
//! [`SpreadParams::practical`] is the robust default. `n` is the number of
//! *points* in both: the transform moves locations, and a location does not
//! move further for carrying more weight.

use fc_geom::points::Points;
use rand::Rng;
use rustc_hash::FxHashMap;

use crate::grid::{grid_coord, RowInterner};

/// Safety factors for the two reduction steps.
#[derive(Debug, Clone, Copy)]
pub struct SpreadParams {
    /// Grid pitch is `diameter_factor · L`.
    pub diameter_factor: f64,
    /// Rounding granularity is `L / rounding_denom`; `0` disables rounding.
    pub rounding_denom: f64,
}

impl SpreadParams {
    /// The paper's exact constants: `r = √d·n²·L`, `g = L/(n⁴·d²·log Δ)`.
    /// Only numerically safe for small `n`.
    pub fn paper(n: usize, d: usize, log_delta: f64) -> Self {
        let n = n as f64;
        let d = d as f64;
        Self {
            diameter_factor: d.sqrt() * n * n,
            rounding_denom: n.powi(4) * d * d * log_delta.max(1.0),
        }
    }

    /// Practically-robust factors: `r = √d·n·L`, `g = L/(n²·d)`. Keeps the
    /// split probability `O(1/n)` per cluster while staying far inside f64
    /// precision for `n` up to ~10⁷.
    pub fn practical(n: usize, d: usize) -> Self {
        let n = (n as f64).max(2.0);
        let d = d as f64;
        Self {
            diameter_factor: d.sqrt() * n,
            rounding_denom: n * n * d,
        }
    }
}

/// Records how `reduce_spread` transformed the input so that solutions can
/// be mapped back (Lemma 4.5).
#[derive(Debug, Clone)]
pub struct SpreadMap {
    /// Box id of each input point.
    pub box_of_point: Vec<usize>,
    /// Per-box translation that was *subtracted* from its points.
    pub box_shifts: Vec<Vec<f64>>,
    /// Rounding granularity applied after the shifts (`0` when disabled).
    pub g: f64,
    /// Grid pitch used for the box decomposition.
    pub r: f64,
}

impl SpreadMap {
    /// Number of occupied boxes.
    pub fn box_count(&self) -> usize {
        self.box_shifts.len()
    }

    /// Maps centers computed on the reduced dataset back to the original
    /// space. `labels` assigns every *input point* to a center; each center
    /// inherits the translation of the box owning the majority of its
    /// points (w.h.p. every cluster lives in a single box, making this
    /// exact — Proposition 4.4).
    pub fn restore_centers(&self, centers: &Points, labels: &[usize]) -> Points {
        assert_eq!(labels.len(), self.box_of_point.len());
        let k = centers.len();
        let mut votes: Vec<FxHashMap<usize, usize>> = vec![FxHashMap::default(); k];
        for (i, &c) in labels.iter().enumerate() {
            *votes[c].entry(self.box_of_point[i]).or_insert(0) += 1;
        }
        let mut restored = centers.clone();
        for (c, vote) in votes.iter().enumerate().take(k) {
            let Some((&bx, _)) = vote.iter().max_by_key(|&(_, &count)| count) else {
                continue; // center serves no points: leave it in place
            };
            let shift = &self.box_shifts[bx];
            let row = restored.row_mut(c);
            for (x, &s) in row.iter_mut().zip(shift) {
                *x += s;
            }
        }
        restored
    }

    /// Maps the reduced points themselves back (inverse translation; the
    /// rounding error of at most `g/2` per coordinate is not invertible).
    pub fn restore_points(&self, reduced: &Points) -> Points {
        assert_eq!(reduced.len(), self.box_of_point.len());
        let mut out = reduced.clone();
        for (i, &bx) in self.box_of_point.iter().enumerate() {
            let shift = &self.box_shifts[bx];
            let row = out.row_mut(i);
            for (x, &s) in row.iter_mut().zip(shift) {
                *x += s;
            }
        }
        out
    }
}

/// Runs both reduction steps. `reach` is a length no point exceeds to its
/// centre in an optimal solution — [`CrudeBound::reach`], not the cost bound
/// itself. When `reach == 0` (at most `k` distinct locations) the input is
/// returned unchanged with an identity map.
///
/// [`CrudeBound::reach`]: crate::crude::CrudeBound::reach
pub fn reduce_spread<R: Rng + ?Sized>(
    rng: &mut R,
    points: &Points,
    reach: f64,
    params: SpreadParams,
) -> (Points, SpreadMap) {
    assert!(!points.is_empty(), "cannot reduce the spread of nothing");
    let dim = points.dim();
    let n = points.len();
    if reach <= 0.0 || !reach.is_finite() {
        let map = SpreadMap {
            box_of_point: vec![0; n],
            box_shifts: vec![vec![0.0; dim]],
            g: 0.0,
            r: 0.0,
        };
        return (points.clone(), map);
    }

    // Units: `reach` is a length, both factors are pure numbers (functions
    // of the point count and the dimension), so the grid pitch `r` and the
    // rounding pitch `g` below are lengths in the input's coordinates. A
    // cost in their place is a length only for k-median; for k-means it is
    // a length squared, and for weighted input it grows with the mass.
    let r = params.diameter_factor * reach;
    let shift: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * r).collect();

    // Identify occupied boxes, numbered in first-appearance order.
    let mut boxes = RowInterner::default();
    boxes.reset(dim, n);
    let mut coords = vec![0i64; dim];
    let mut box_of_point = Vec::with_capacity(n);
    for p in points.iter() {
        for ((c, &x), &s) in coords.iter_mut().zip(p).zip(&shift) {
            *c = grid_coord(x, s, r);
        }
        box_of_point.push(boxes.intern(&coords) as usize);
    }
    let b = boxes.len();

    // Slide boxes together along each axis: consecutive occupied integer
    // coordinates further than 2 apart are pulled to distance exactly 2.
    let mut box_shifts = vec![vec![0.0; dim]; b];
    for axis in 0..dim {
        let coords: Vec<i64> = (0..b as u32).map(|bx| boxes.row(bx)[axis]).collect();
        let mut unique = coords.clone();
        unique.sort_unstable();
        unique.dedup();
        // Cumulative reduction per unique coordinate.
        let mut reduction: FxHashMap<i64, i64> = FxHashMap::default();
        let mut acc: i64 = 0;
        for w in 0..unique.len() {
            if w > 0 {
                let gap = unique[w] - unique[w - 1];
                if gap > 2 {
                    acc += gap - 2;
                }
            }
            reduction.insert(unique[w], acc);
        }
        for (shifts, c) in box_shifts.iter_mut().zip(&coords) {
            shifts[axis] = reduction[c] as f64 * r;
        }
    }

    // Apply the translations.
    let mut reduced = points.clone();
    for (i, &bx) in box_of_point.iter().enumerate() {
        let row = reduced.row_mut(i);
        for (x, &s) in row.iter_mut().zip(&box_shifts[bx]) {
            *x -= s;
        }
    }

    // Reduce-Min-Distance: snap to the grid of pitch g.
    let g = if params.rounding_denom > 0.0 {
        reach / params.rounding_denom
    } else {
        0.0
    };
    if g > 0.0 && g.is_finite() {
        for x in reduced.as_flat_mut() {
            *x = (*x / g).round() * g;
        }
    }

    (
        reduced,
        SpreadMap {
            box_of_point,
            box_shifts,
            g,
            r,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_geom::bbox::{diameter_upper_bound, exact_spread};
    use fc_geom::distance::dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    /// Two tight clusters separated by an enormous gap: the canonical case
    /// where the diameter (and hence the spread) collapses.
    fn far_clusters(gap: f64) -> Points {
        let mut flat = Vec::new();
        for i in 0..20 {
            flat.push(i as f64 * 0.1);
            flat.push(0.0);
        }
        for i in 0..20 {
            flat.push(gap + i as f64 * 0.1);
            flat.push(0.0);
        }
        Points::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn diameter_shrinks_dramatically() {
        let p = far_clusters(1e12);
        // A valid upper bound on OPT for k = 2: each cluster has extent ~2.
        let upper = 100.0;
        let params = SpreadParams {
            diameter_factor: 10.0,
            rounding_denom: 1e6,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, upper, params);
        let before = diameter_upper_bound(&p);
        let after = diameter_upper_bound(&reduced);
        assert!(before > 1e11);
        // After reduction, boxes are within 2r of each other:
        // diameter = O(#boxes · r · √d).
        let bound = 4.0 * map.box_count() as f64 * map.r * (2.0f64).sqrt();
        assert!(after <= bound, "diameter {after} exceeds bound {bound}");
        assert!(after < before / 1e6);
    }

    #[test]
    fn intra_box_geometry_is_exactly_preserved_without_rounding() {
        let p = far_clusters(1e9);
        let params = SpreadParams {
            diameter_factor: 10.0,
            rounding_denom: 0.0,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, 100.0, params);
        for i in 0..p.len() {
            for j in (i + 1)..p.len() {
                if map.box_of_point[i] == map.box_of_point[j] {
                    let before = dist(p.row(i), p.row(j));
                    let after = dist(reduced.row(i), reduced.row(j));
                    assert!(
                        (before - after).abs() <= 1e-9 * before.max(1.0),
                        "intra-box pair ({i},{j}) moved: {before} -> {after}"
                    );
                }
            }
        }
    }

    #[test]
    fn restore_points_inverts_translation() {
        let p = far_clusters(1e9);
        let params = SpreadParams {
            diameter_factor: 10.0,
            rounding_denom: 0.0,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, 100.0, params);
        let restored = map.restore_points(&reduced);
        for i in 0..p.len() {
            let e = dist(restored.row(i), p.row(i));
            assert!(e <= 1e-6, "point {i} off by {e} after restore");
        }
    }

    #[test]
    fn rounding_error_is_bounded_by_g() {
        let p = far_clusters(1e9);
        let upper = 100.0;
        let params = SpreadParams {
            diameter_factor: 10.0,
            rounding_denom: 1e4,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, upper, params);
        assert!((map.g - upper / 1e4).abs() < 1e-12);
        let restored = map.restore_points(&reduced);
        let max_err = map.g * (p.dim() as f64).sqrt();
        for i in 0..p.len() {
            let e = dist(restored.row(i), p.row(i));
            assert!(e <= max_err, "point {i} off by {e} > {max_err}");
        }
    }

    #[test]
    fn spread_becomes_polynomial() {
        // Spread before: ~1e13. After: diameter/g with g = U/denominator.
        let p = far_clusters(1e12);
        let upper = 100.0;
        let params = SpreadParams {
            diameter_factor: 10.0,
            rounding_denom: 1e4,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, upper, params);
        let spread_after = exact_spread(&reduced).unwrap();
        // diameter ≤ 4·boxes·r·√d, min distance ≥ g ⇒ spread ≤ that ratio.
        let bound = 4.0 * map.box_count() as f64 * map.r * (2.0f64).sqrt() / map.g;
        assert!(
            spread_after <= bound,
            "spread {spread_after} > bound {bound}"
        );
        assert!(spread_after < 1e10, "spread {spread_after} not reduced");
    }

    #[test]
    fn zero_upper_bound_is_identity() {
        let p = far_clusters(100.0);
        let (reduced, map) = reduce_spread(&mut rng(), &p, 0.0, SpreadParams::practical(40, 2));
        assert_eq!(reduced, p);
        assert_eq!(map.box_count(), 1);
        assert_eq!(map.g, 0.0);
    }

    #[test]
    fn close_points_stay_in_one_box() {
        // With r enormous relative to the data, everything is one box and
        // the transform is (up to rounding) the identity.
        let p = far_clusters(5.0);
        let params = SpreadParams {
            diameter_factor: 1e6,
            rounding_denom: 0.0,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, 10.0, params);
        assert_eq!(map.box_count(), 1);
        assert_eq!(reduced, p);
    }

    #[test]
    fn restore_centers_reverses_majority_box_shift() {
        let p = far_clusters(1e9);
        let params = SpreadParams {
            diameter_factor: 10.0,
            rounding_denom: 0.0,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, 100.0, params);
        // Centers: the means of the two reduced clusters; labels by cluster.
        let mut c0 = vec![0.0; 2];
        let mut c1 = vec![0.0; 2];
        for i in 0..20 {
            c0[0] += reduced.row(i)[0] / 20.0;
            c0[1] += reduced.row(i)[1] / 20.0;
        }
        for i in 20..40 {
            c1[0] += reduced.row(i)[0] / 20.0;
            c1[1] += reduced.row(i)[1] / 20.0;
        }
        let centers = Points::from_rows(&[c0, c1]).unwrap();
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let restored = map.restore_centers(&centers, &labels);
        // Restored centers must sit near the original cluster means.
        assert!(dist(restored.row(0), &[0.95, 0.0]) < 2.0);
        assert!(dist(restored.row(1), &[1e9 + 0.95, 0.0]) < 2.0);
    }

    #[test]
    fn adjacency_is_preserved() {
        // Proposition 4.4 item 2: boxes adjacent before stay adjacent after;
        // non-adjacent stay non-adjacent. With three boxes on a line at
        // integer coords {0, 1, 9}, the 0-1 pair is adjacent, 1-9 is not.
        let mut flat = Vec::new();
        for &cx in &[0.5f64, 1.5, 9.5] {
            for i in 0..5 {
                flat.push(cx * 1000.0 + i as f64);
                flat.push(0.0);
            }
        }
        let p = Points::from_flat(flat, 2).unwrap();
        // r = 1000 ⇒ boxes at exactly those integer coordinates (shift < r).
        let params = SpreadParams {
            diameter_factor: 1.0,
            rounding_denom: 0.0,
        };
        let (reduced, map) = reduce_spread(&mut rng(), &p, 1000.0, params);
        assert!(map.box_count() >= 2);
        // The far group must end up much closer, but never overlapping the
        // near groups: the minimum inter-group distance before (≥ r-ish)
        // cannot collapse below r-2r scale because gaps stop at 2r.
        let far_before = dist(p.row(0), p.row(10));
        let far_after = dist(reduced.row(0), reduced.row(10));
        assert!(far_after <= far_before + 1e-9);
        // Still separated: different boxes cannot merge.
        let near_after = dist(reduced.row(0), reduced.row(5));
        assert!(near_after > 0.0);
    }
}
