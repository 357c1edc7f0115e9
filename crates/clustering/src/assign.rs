//! Nearest-center assignment.
//!
//! Two forms of one argmin. [`assign`] is the one-shot `O(nkd)` scan — the
//! primitive the paper's Fast-kmeans++ exists to avoid on the full data,
//! and the reference for cost evaluation, sensitivity scores and every
//! test. [`BoundedAssigner`] is the scan with a memory, for
//! [`crate::lloyd::refine`], which asks again after every centroid step:
//! most Lloyd rounds are a long tail in which centers barely move, and
//! there the triangle inequality proves most distances unchanged.
//!
//! # What the assigner remembers, and why its answers are the scan's
//!
//! Centers form `g` groups of consecutive indices. Per point `p` with
//! label `a` there is one number per group, such that `bound[p][g] ≤
//! dist(p, c_j)` for every center `j ≠ a` of group `g` — as real numbers,
//! for the centers as stored. A round keeps that in three steps:
//!
//! 1. **Own distance, exactly.** `dist²(p, c_a)` to the moved center comes
//!    from [`sq_dist`], whose per-pair arithmetic is bit for bit that of
//!    [`nearest_block`] in every dimension (same lanes, same reduction
//!    order). The objective needs it every round anyway, so `cost_z` is
//!    never derived from a bound and keeps the scan's bits.
//! 2. **Lower every bound** by the farthest any center of its group moved
//!    (moving a center by `δ` changes no distance by more than `δ`).
//! 3. **Skip or scan.** A group whose bound still exceeds the best distance
//!    found so far is skipped. Any other is scanned exactly, and its bound
//!    becomes the distance to its nearest center that is not the (new)
//!    label. A displaced best becomes an ordinary member of its own group,
//!    whose bound drops to its distance.
//!
//! **Ties.** The scan keeps the first index among equal squared distances;
//! here a scanned candidate wins on `(dist², index)`, whatever the order
//! of the groups, and a group is skipped only when every center in it is
//! *strictly* farther in computed arithmetic: equal distances are
//! compared, never pruned.
//!
//! **Slack.** Bounds live in rounded arithmetic, so each is made
//! conservative where it is created: with `s = (d + 8)·ε`, a recorded
//! distance is scaled by `1 − s`, a center movement by `1 + s`, a lowered
//! bound by `1 − s` again (the subtraction rounds), and the skip test
//! compares against the best distance times `1 + s` — twice over what the
//! `(d + 2)·ε/2` relative error of a `d`-term squared distance needs.
//! Bounds outside `[1e-140, 1e140]` never prune: there squares underflow
//! or overflow, the error model is void, and the assigner scans.
//!
//! **How many groups.** One bound per center prunes best but costs `k`
//! subtractions and comparisons per point per round — at `d = 2` as much
//! as the distances, and it loses to the plain scan. One per
//! [`GROUP_SIZE`] centers won at every dimension tried (2 to 64), so
//! [`group_count`] is `⌈k / 10⌉`, capped to keep the `n × g` table under
//! [`BOUND_TABLE_BYTES`] (`g = 1` is Hamerly's single bound): derived from
//! `n` and `k`, set by nobody.
//!
//! The first round is not special: bounds start at `−∞`, so every group is
//! scanned — the full scan. Per-point work stays inside [`fc_geom::par`]'s
//! fixed chunks, so output is identical at every thread count.

use fc_geom::distance::{nearest_block, sq_dist, sq_dist_bounded, CostKind};
use fc_geom::par;
use fc_geom::points::Points;

/// The result of assigning every point to its nearest center.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `labels[i]` is the index (into the center store) of point `i`'s
    /// nearest center.
    pub labels: Vec<usize>,
    /// `cost_z[i]` is `dist(p_i, C)^z` — *unweighted*; multiply by `w_i` to
    /// get the point's cost contribution.
    pub cost_z: Vec<f64>,
}

impl Assignment {
    /// Number of assigned points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no points were assigned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total weighted cost under this assignment. Chunk-summed through
    /// [`fc_geom::par`], so the f64 association order (and the result)
    /// is identical at every thread count.
    pub fn total_cost(&self, weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.cost_z.len());
        par::sum_chunks(self.cost_z.len(), |r| {
            self.cost_z[r.clone()]
                .iter()
                .zip(&weights[r])
                .map(|(&c, &w)| c * w)
                .sum()
        })
    }

    /// Per-cluster index lists (cluster `j` → indices of its points).
    pub fn clusters(&self, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); k];
        for (i, &label) in self.labels.iter().enumerate() {
            out[label].push(i);
        }
        out
    }

    /// Per-cluster total weights.
    pub fn cluster_weights(&self, k: usize, weights: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; k];
        for (i, &label) in self.labels.iter().enumerate() {
            out[label] += weights[i];
        }
        out
    }

    /// Per-cluster total weighted costs `cost_z(C_j, c_j)`.
    pub fn cluster_costs(&self, k: usize, weights: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; k];
        for (i, &label) in self.labels.iter().enumerate() {
            out[label] += self.cost_z[i] * weights[i];
        }
        out
    }
}

/// Assigns every point to its nearest center. Panics if `centers` is empty
/// or dimensions disagree; `O(nkd)` through the flat block kernel
/// ([`fc_geom::distance::nearest_block`]): one dimension dispatch for the
/// whole batch, a monomorphized inner loop on common small dimensions,
/// partial-distance pruning on the rest, and no per-point allocation.
///
/// The scan fans out over fixed-size point chunks ([`fc_geom::par`]);
/// each chunk fills its own disjoint slice of `labels`/`cost_z`, so the
/// output is identical at every thread count.
pub fn assign(points: &Points, centers: &Points, kind: CostKind) -> Assignment {
    assert!(!centers.is_empty(), "assignment needs at least one center");
    assert_eq!(
        points.dim(),
        centers.dim(),
        "points and centers must share dimension"
    );
    let n = points.len();
    let dim = centers.dim();
    let mut labels = vec![0usize; n];
    let mut cost_z = vec![0.0f64; n];
    {
        let flat = points.as_flat();
        let centers_flat = centers.as_flat();
        let tasks: Vec<(&[f64], &mut [usize], &mut [f64])> = flat
            .chunks(par::CHUNK_POINTS * dim)
            .zip(labels.chunks_mut(par::CHUNK_POINTS))
            .zip(cost_z.chunks_mut(par::CHUNK_POINTS))
            .map(|((p, l), c)| (p, l, c))
            .collect();
        par::for_each_task(tasks, |_, (p, l, c)| {
            nearest_block(p, centers_flat, dim, l, c);
            if kind != CostKind::KMeans {
                // Separate pass so the k-median square root does not sit
                // inside the distance loop (and vectorizes on its own).
                for v in c.iter_mut() {
                    *v = kind.from_sq(*v);
                }
            }
        });
    }
    Assignment { labels, cost_z }
}

/// Centers per bound (module docs, "How many groups").
pub const GROUP_SIZE: usize = 10;

/// Ceiling on the `n × g` bound table, in bytes.
pub const BOUND_TABLE_BYTES: usize = 32 << 20;

/// Bounds below this never prune: their squares approach the subnormal
/// range, where a squared distance no longer carries a relative error.
const MIN_BOUND: f64 = 1e-140;
/// Bounds are clamped to this: a squared distance that overflowed to `∞`
/// still proves its center at least this far away.
const MAX_BOUND: f64 = 1e140;

/// The number of center groups [`BoundedAssigner`] keeps a bound for:
/// `⌈k / GROUP_SIZE⌉`, capped by [`BOUND_TABLE_BYTES`], at least one.
pub fn group_count(n: usize, k: usize) -> usize {
    let affordable = BOUND_TABLE_BYTES / (n.max(1) * std::mem::size_of::<f64>());
    k.div_ceil(GROUP_SIZE).min(affordable).max(1)
}

/// Nearest-center assignment that remembers, between the rounds of one
/// refinement, enough to skip distances it can prove unchanged (module
/// docs). Labels and `cost_z` are the bits [`assign`] would return.
#[derive(Debug)]
pub struct BoundedAssigner {
    assignment: Assignment,
    /// One row per point, one bound per group.
    bounds: Vec<f64>,
    /// Centers per group; the last group may be short.
    group_size: usize,
    distance_evals: u64,
}

impl BoundedAssigner {
    /// The first assignment of `points` to `centers`: a full scan that
    /// records its bounds, `groups` of them per point.
    pub fn new(points: &Points, centers: &Points, kind: CostKind, groups: usize) -> Self {
        assert!(!centers.is_empty(), "assignment needs at least one center");
        let (n, k) = (points.len(), centers.len());
        let group_size = k.div_ceil(groups.clamp(1, k));
        let mut assigner = BoundedAssigner {
            assignment: Assignment {
                labels: vec![0; n],
                cost_z: vec![0.0; n],
            },
            bounds: vec![f64::NEG_INFINITY; n * k.div_ceil(group_size)],
            group_size,
            distance_evals: 0,
        };
        assigner.reassign(points, centers, centers, kind);
        assigner
    }

    /// The current assignment: exact labels and `cost_z`.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The final labels, and the point–center distances evaluated in all
    /// (the plain scan evaluates `n · k` per assignment).
    pub fn finish(self) -> (Vec<usize>, u64) {
        (self.assignment.labels, self.distance_evals)
    }

    /// Re-assigns after the centers moved from `previous` to `centers`.
    pub fn reassign(
        &mut self,
        points: &Points,
        previous: &Points,
        centers: &Points,
        kind: CostKind,
    ) {
        let dim = centers.dim();
        assert_eq!(points.dim(), dim, "points and centers must share dimension");
        assert_eq!(previous.len(), centers.len(), "centers only move");
        let slack = (dim + 8) as f64 * f64::EPSILON;
        let scan = GroupScan {
            centers: centers.as_flat(),
            dim,
            group_size: self.group_size,
            shrink: 1.0 - slack,
            grow: 1.0 + slack,
            kind,
        };
        // How far each group's bound must drop: its farthest-moved center.
        let drift: Vec<f64> = (previous.as_flat().chunks(self.group_size * dim))
            .zip(centers.as_flat().chunks(self.group_size * dim))
            .map(|(old, new)| {
                let moved = (old.chunks_exact(dim).zip(new.chunks_exact(dim)))
                    .map(|(a, b)| sq_dist(a, b))
                    .fold(0.0, f64::max);
                moved.sqrt() * scan.grow
            })
            .collect();
        let tasks: Vec<_> = (points.as_flat().chunks(par::CHUNK_POINTS * dim))
            .zip(self.assignment.labels.chunks_mut(par::CHUNK_POINTS))
            .zip(self.assignment.cost_z.chunks_mut(par::CHUNK_POINTS))
            .zip(self.bounds.chunks_mut(par::CHUNK_POINTS * drift.len()))
            .map(|(((p, l), c), b)| (p, l, c, b))
            .collect();
        // Specialized on the dimensions `nearest_block` is: where the scan is
        // at its fastest, the pruned loop has to be compiled as tightly.
        let evals = par::map_tasks(tasks, |_, (p, l, c, b)| {
            fc_geom::dispatch_dim!(
                dim,
                reassign_chunk,
                reassign_chunk::<0>(&scan, p, l, c, b, &drift),
                (&scan, p, l, c, b, &drift)
            )
        });
        self.distance_evals += evals.into_iter().sum::<u64>();
    }
}

/// One round's read-only inputs, shared by every chunk.
struct GroupScan<'a> {
    centers: &'a [f64],
    dim: usize,
    group_size: usize,
    /// `1 − s` and `1 + s` of the module docs' slack rule.
    shrink: f64,
    grow: f64,
    kind: CostKind,
}

impl GroupScan<'_> {
    /// A computed squared distance as a bound that cannot overstate it.
    fn floor(&self, sq: f64) -> f64 {
        (sq.sqrt() * self.shrink).min(MAX_BOUND)
    }

    /// The best squared distance as the level a bound must clear to prove
    /// its whole group strictly farther.
    fn reach(&self, best_sq: f64) -> f64 {
        (best_sq.sqrt() * self.grow).max(MIN_BOUND)
    }
}

/// Re-assigns one chunk of points; returns the distances it evaluated. `D`
/// is the dimension when known at compile time ([`sq_dist`] unrolled), else 0.
fn reassign_chunk<const D: usize>(
    scan: &GroupScan<'_>,
    points: &[f64],
    labels: &mut [usize],
    cost_z: &mut [f64],
    bounds: &mut [f64],
    drift: &[f64],
) -> u64 {
    let dim = if D == 0 { scan.dim } else { D };
    let k = scan.centers.len() / dim;
    let mut evals = 0u64;
    for (((p, label), cost), bounds) in (points.chunks_exact(dim))
        .zip(labels)
        .zip(cost_z)
        .zip(bounds.chunks_exact_mut(drift.len()))
    {
        let own = *label;
        let own_sq = sq_dist(&p[..dim], &scan.centers[own * dim..][..dim]);
        evals += 1;
        for (bound, moved) in bounds.iter_mut().zip(drift) {
            *bound = (*bound - moved) * scan.shrink;
        }
        let (mut best, mut best_sq) = (own, own_sq);
        let mut reach = scan.reach(best_sq);
        for g in 0..bounds.len() {
            if bounds[g] > reach {
                continue;
            }
            let first = g * scan.group_size;
            let last = (first + scan.group_size).min(k);
            // The group's two nearest, `own` (already measured) left out.
            let inside = (first..last).contains(&own);
            let (cut, skip) = if inside { (own, own + 1) } else { (last, last) };
            let (mut near, mut near_sq, mut next_sq) = (first, f64::INFINITY, f64::INFINITY);
            for (lo, hi) in [(first, cut), (skip, last)] {
                for (j, c) in (lo..hi).zip(scan.centers[lo * dim..].chunks_exact(dim)) {
                    // Branch-free: groups are short, and a new minimum
                    // every few centers defeats the branch predictor.
                    let sq = sq_dist(&p[..dim], &c[..dim]);
                    let closer = sq < near_sq;
                    let second = if closer { near_sq } else { sq };
                    next_sq = if second < next_sq { second } else { next_sq };
                    near = if closer { j } else { near };
                    near_sq = if closer { sq } else { near_sq };
                }
            }
            evals += (last - first - inside as usize) as u64;
            // What is left of the group once `best` is set aside.
            let mut rest = near_sq;
            if near_sq < best_sq || (near_sq == best_sq && near < best) {
                // The displaced best is an ordinary member of its own
                // group from here on.
                let home = best / scan.group_size;
                bounds[home] = bounds[home].min(scan.floor(best_sq));
                (best, best_sq, rest) = (near, near_sq, next_sq);
                reach = scan.reach(best_sq);
            }
            if inside && best != own {
                rest = rest.min(own_sq);
            }
            bounds[g] = scan.floor(rest);
        }
        *label = best;
        *cost = scan.kind.from_sq(best_sq);
    }
    evals
}

/// Incrementally updates per-point nearest-center squared distances after a
/// new center is appended. Used by k-means++ seeding to stay `O(nd)` per
/// round instead of recomputing all `k` candidates.
///
/// `min_sq[i]` holds the squared distance from point `i` to the previously
/// nearest center (or `f64::INFINITY` before the first center); `labels[i]`
/// is updated to `new_label` when the new center is closer.
pub fn update_nearest(
    points: &Points,
    new_center: &[f64],
    new_label: usize,
    min_sq: &mut [f64],
    labels: &mut [usize],
) {
    debug_assert_eq!(points.len(), min_sq.len());
    let dim = points.dim();
    let flat = points.as_flat();
    let tasks: Vec<(&[f64], &mut [f64], &mut [usize])> = flat
        .chunks(par::CHUNK_POINTS * dim)
        .zip(min_sq.chunks_mut(par::CHUNK_POINTS))
        .zip(labels.chunks_mut(par::CHUNK_POINTS))
        .map(|((p, m), l)| (p, m, l))
        .collect();
    par::for_each_task(tasks, |_, (pts, min_sq, labels)| {
        for ((p, m), l) in pts
            .chunks_exact(dim)
            .zip(min_sq.iter_mut())
            .zip(labels.iter_mut())
        {
            if let Some(d) = sq_dist_bounded(p, new_center, *m) {
                if d < *m {
                    *m = d;
                    *l = new_label;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Points {
        Points::from_flat(vec![0.0, 0.0, 0.1, 0.0, 10.0, 10.0, 10.1, 10.0], 2).unwrap()
    }

    fn centers() -> Points {
        Points::from_flat(vec![0.0, 0.0, 10.0, 10.0], 2).unwrap()
    }

    #[test]
    fn assign_splits_two_blobs() {
        let a = assign(&points(), &centers(), CostKind::KMeans);
        assert_eq!(a.labels, vec![0, 0, 1, 1]);
        assert_eq!(a.cost_z[0], 0.0);
        assert!((a.cost_z[1] - 0.01).abs() < 1e-12);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn kmedian_costs_are_square_roots() {
        let a2 = assign(&points(), &centers(), CostKind::KMeans);
        let a1 = assign(&points(), &centers(), CostKind::KMedian);
        for (c1, c2) in a1.cost_z.iter().zip(&a2.cost_z) {
            assert!((c1 * c1 - c2).abs() < 1e-12);
        }
    }

    #[test]
    fn total_cost_weights_points() {
        let a = assign(&points(), &centers(), CostKind::KMeans);
        let unit = a.total_cost(&[1.0; 4]);
        let double = a.total_cost(&[2.0; 4]);
        assert!((double - 2.0 * unit).abs() < 1e-12);
    }

    #[test]
    fn clusters_and_weights() {
        let a = assign(&points(), &centers(), CostKind::KMeans);
        let clusters = a.clusters(2);
        assert_eq!(clusters[0], vec![0, 1]);
        assert_eq!(clusters[1], vec![2, 3]);
        let ws = a.cluster_weights(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ws, vec![3.0, 7.0]);
        let costs = a.cluster_costs(2, &[1.0, 1.0, 1.0, 1.0]);
        assert!((costs[0] - 0.01).abs() < 1e-12);
        assert!((costs[1] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn update_nearest_incremental_matches_batch() {
        let p = points();
        let c = centers();
        let mut min_sq = vec![f64::INFINITY; p.len()];
        let mut labels = vec![usize::MAX; p.len()];
        update_nearest(&p, c.row(0), 0, &mut min_sq, &mut labels);
        update_nearest(&p, c.row(1), 1, &mut min_sq, &mut labels);
        let batch = assign(&p, &c, CostKind::KMeans);
        assert_eq!(labels, batch.labels);
        for (a, b) in min_sq.iter().zip(&batch.cost_z) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn assign_empty_centers_panics() {
        assign(&points(), &Points::empty(2), CostKind::KMeans);
    }
}
