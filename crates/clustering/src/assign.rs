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
//! [`BOUND_TABLE_BYTES`] (`g = 1` keeps a single bound per point): derived from
//! `n` and `k`, set by nobody.
//!
//! **The first round.** Given centers alone, bounds start at `−∞`: every
//! group is scanned, the full scan. A solve does not start there.
//! k-means++ seeding ([`mod@crate::kmeanspp`]) keeps the table as it adds
//! centers, under the same slack rules, and refinement resumes from it
//! (`BoundedAssigner::resume`), so its first round prunes like any other.
//! With `floor(x²) = x·(1 − s)` for a recorded distance and `reach(m) =
//! √m·(1 + s)` for the best squared distance `m`:
//!
//! - bounds start at `+∞` (no center yet proves anything);
//! - before center `c` joins, `gap[j] = floor(dist²(c_j, c))` is measured
//!   for every earlier center — `k · d` work per round, not `n · d`;
//! - a point with label `a` skips `c` when `(gap[a] − reach(m))·(1 − s) >
//!   reach(m)` (the triangle inequality puts `c` strictly farther than
//!   `a`), and that lower bound goes into `c`'s group;
//! - otherwise `dist²(p, c)` is measured. If `c` wins (strictly; ties keep
//!   the earlier center, as the scan does), `floor(m)` of the old label
//!   goes into its own group; if it loses, its own floor goes into `c`'s.
//!
//! Where seeding stops short of the centers it laid the table out for
//! (fewer distinct points than `k`), refinement starts with the full scan.
//! Per-point work runs over [`fc_geom::par`]'s fixed chunks in order, and
//! chunk totals are added in chunk order.

use fc_geom::dataset::Dataset;
use fc_geom::distance::{nearest_block, sq_dist, CostKind};
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

    /// Total weighted cost under this assignment, chunk-summed through
    /// [`fc_geom::par`].
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
/// The scan walks fixed-size point chunks ([`fc_geom::par`]); each chunk
/// fills its own slice of `labels`/`cost_z`.
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
    let centers_flat = centers.as_flat();
    for ((p, l), c) in (points.as_flat().chunks(par::CHUNK_POINTS * dim))
        .zip(labels.chunks_mut(par::CHUNK_POINTS))
        .zip(cost_z.chunks_mut(par::CHUNK_POINTS))
    {
        nearest_block(p, centers_flat, dim, l, c);
        if kind != CostKind::KMeans {
            // Separate pass so the k-median square root does not sit
            // inside the distance loop (and vectorizes on its own).
            for v in c.iter_mut() {
                *v = kind.from_sq(*v);
            }
        }
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

/// Centers per group, and groups per point, for `k` centers in `groups`.
fn layout(k: usize, groups: usize) -> (usize, usize) {
    let group_size = k.div_ceil(groups.clamp(1, k));
    (group_size, k.div_ceil(group_size))
}

/// The module docs' slack rule, for distances in `d` dimensions.
#[derive(Debug, Clone, Copy)]
struct Slack {
    /// `1 − s` and `1 + s`, with `s = (d + 8)·ε`.
    shrink: f64,
    grow: f64,
}

impl Slack {
    fn new(dim: usize) -> Self {
        let s = (dim + 8) as f64 * f64::EPSILON;
        Slack {
            shrink: 1.0 - s,
            grow: 1.0 + s,
        }
    }

    /// A computed squared distance as a bound that cannot overstate it.
    fn floor(self, sq: f64) -> f64 {
        (sq.sqrt() * self.shrink).min(MAX_BOUND)
    }

    /// The best squared distance as the level a bound must clear to prove
    /// its whole group strictly farther.
    fn reach(self, best_sq: f64) -> f64 {
        (best_sq.sqrt() * self.grow).max(MIN_BOUND)
    }

    /// `bound` lowered by `by` (a distance already grown by `1 + s`),
    /// rounded down.
    fn lower(self, bound: f64, by: f64) -> f64 {
        (bound - by) * self.shrink
    }
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
        let n = points.len();
        let (group_size, width) = layout(centers.len(), groups);
        let mut assigner = BoundedAssigner {
            assignment: Assignment {
                labels: vec![0; n],
                cost_z: vec![0.0; n],
            },
            bounds: vec![f64::NEG_INFINITY; n * width],
            group_size,
            distance_evals: 0,
        };
        assigner.reassign(points, centers, centers, kind);
        assigner
    }

    /// The first assignment of `points` to the `centers` k-means++ seeding
    /// chose, taken from what `seeds` measured on the way (module docs,
    /// "The first round"). Where seeding stopped short of the centers its
    /// table was laid out for, [`BoundedAssigner::new`]'s full scan.
    pub(crate) fn resume(points: &Points, centers: &Points, seeds: Seeds, kind: CostKind) -> Self {
        if centers.len() != seeds.planned || seeds.bounds.is_empty() {
            let groups = group_count(points.len(), centers.len());
            let mut assigner = Self::new(points, centers, kind, groups);
            assigner.distance_evals += seeds.distance_evals;
            return assigner;
        }
        let mut cost_z = seeds.min_sq;
        for v in &mut cost_z {
            *v = kind.from_sq(*v);
        }
        BoundedAssigner {
            assignment: Assignment {
                labels: seeds.labels,
                cost_z,
            },
            bounds: seeds.bounds,
            group_size: seeds.group_size,
            distance_evals: seeds.distance_evals,
        }
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
        let scan = GroupScan {
            centers: centers.as_flat(),
            dim,
            group_size: self.group_size,
            slack: Slack::new(dim),
            kind,
        };
        // How far each group's bound must drop: its farthest-moved center.
        let drift: Vec<f64> = (previous.as_flat().chunks(self.group_size * dim))
            .zip(centers.as_flat().chunks(self.group_size * dim))
            .map(|(old, new)| {
                let moved = (old.chunks_exact(dim).zip(new.chunks_exact(dim)))
                    .map(|(a, b)| sq_dist(a, b))
                    .fold(0.0, f64::max);
                moved.sqrt() * scan.slack.grow
            })
            .collect();
        // Specialized on the dimensions `nearest_block` is: where the scan is
        // at its fastest, the pruned loop has to be compiled as tightly.
        for (((p, l), c), b) in (points.as_flat().chunks(par::CHUNK_POINTS * dim))
            .zip(self.assignment.labels.chunks_mut(par::CHUNK_POINTS))
            .zip(self.assignment.cost_z.chunks_mut(par::CHUNK_POINTS))
            .zip(self.bounds.chunks_mut(par::CHUNK_POINTS * drift.len()))
        {
            self.distance_evals += fc_geom::dispatch_dim!(
                dim,
                reassign_chunk,
                reassign_chunk::<0>(&scan, p, l, c, b, &drift),
                (&scan, p, l, c, b, &drift)
            );
        }
    }
}

/// One round's read-only inputs, shared by every chunk.
struct GroupScan<'a> {
    centers: &'a [f64],
    dim: usize,
    group_size: usize,
    slack: Slack,
    kind: CostKind,
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
    let slack = scan.slack;
    let mut evals = 0u64;
    for (((p, label), cost), bounds) in (points.chunks_exact(dim))
        .zip(labels)
        .zip(cost_z)
        .zip(bounds.chunks_exact_mut(drift.len()))
    {
        let own = *label;
        let own_sq = sq_dist(&p[..dim], &scan.centers[own * dim..][..dim]);
        evals += 1;
        for (bound, &moved) in bounds.iter_mut().zip(drift) {
            *bound = slack.lower(*bound, moved);
        }
        let (mut best, mut best_sq) = (own, own_sq);
        let mut reach = slack.reach(best_sq);
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
                bounds[home] = bounds[home].min(slack.floor(best_sq));
                (best, best_sq, rest) = (near, near_sq, next_sq);
                reach = slack.reach(best_sq);
            }
            if inside && best != own {
                rest = rest.min(own_sq);
            }
            bounds[g] = slack.floor(rest);
        }
        *label = best;
        *cost = scan.kind.from_sq(best_sq);
    }
    evals
}

/// k-means++ seeding's running assignment — each point's nearest center so
/// far, its squared distance and its D^z score — and, when a refinement
/// follows, the bound table it resumes from (module docs, "The first
/// round").
///
/// One pass per center keeps all of it: the pass that decides a point's
/// label also rewrites its score and adds it to its chunk's total, so the
/// next draw needs no pass of its own.
#[derive(Debug)]
pub(crate) struct Seeds {
    /// Nearest center so far, per point; ties keep the earlier center.
    pub(crate) labels: Vec<usize>,
    /// The squared distance to it, bit for bit what [`assign`] computes.
    pub(crate) min_sq: Vec<f64>,
    /// `reach(min_sq)` per point, kept beside it so that a point's skip
    /// test takes no square root.
    reach: Vec<f64>,
    /// `w_p · dist(p, C)^z` per point: what the next center is drawn by.
    pub(crate) scores: Vec<f64>,
    /// One row per point, one bound per group, `+∞` until a center of the
    /// group joins. Empty when no refinement resumes from the seeding.
    bounds: Vec<f64>,
    group_size: usize,
    /// The number of centers the table is laid out for.
    planned: usize,
    distance_evals: u64,
}

impl Seeds {
    /// Every point of `data` assigned to its point `first`, the first
    /// center, and the sum of the scores ([`Seeds::add`]). With `table`,
    /// the bound table is laid out for `planned` centers in
    /// [`group_count`] groups.
    pub(crate) fn new(
        data: &Dataset,
        first: usize,
        planned: usize,
        kind: CostKind,
        table: bool,
    ) -> (Self, f64) {
        let n = data.len();
        let (group_size, width) = layout(planned, group_count(n, planned));
        let mut seeds = Seeds {
            labels: vec![0; n],
            min_sq: vec![0.0; n],
            reach: vec![0.0; n],
            scores: vec![0.0; n],
            bounds: if table {
                vec![f64::INFINITY; n * width]
            } else {
                Vec::new()
            },
            group_size,
            planned,
            distance_evals: n as u64,
        };
        let first = data.point(first);
        let dim = data.dim();
        let slack = Slack::new(dim);
        let total = (seeds.rows(data))
            .map(|rows| {
                let mut total = 0.0;
                for (i, p) in rows.points.chunks_exact(dim).enumerate() {
                    let m = sq_dist(p, first);
                    rows.min_sq[i] = m;
                    rows.reach[i] = slack.reach(m);
                    rows.scores[i] = rows.weights[i] * kind.from_sq(m);
                    total += rows.scores[i];
                }
                total
            })
            .sum();
        (seeds, total)
    }

    /// Bounds per point: 0 when no table is kept.
    fn width(&self) -> usize {
        if self.bounds.is_empty() {
            0
        } else {
            self.planned.div_ceil(self.group_size)
        }
    }

    /// Each [`par::CHUNK_POINTS`] chunk's share of `data` and of every
    /// per-point column.
    fn rows<'a>(&'a mut self, data: &'a Dataset) -> impl Iterator<Item = SeedRows<'a>> {
        let chunk = par::CHUNK_POINTS;
        let width = self.width();
        let mut labels = self.labels.chunks_mut(chunk);
        let mut min_sq = self.min_sq.chunks_mut(chunk);
        let mut reach = self.reach.chunks_mut(chunk);
        let mut scores = self.scores.chunks_mut(chunk);
        let mut bounds = self.bounds.chunks_mut(chunk * width.max(1));
        (data.points().as_flat().chunks(chunk * data.dim()))
            .zip(data.weights().chunks(chunk))
            .map(move |(points, weights)| SeedRows {
                points,
                weights,
                labels: labels.next().unwrap_or_default(),
                min_sq: min_sq.next().unwrap_or_default(),
                reach: reach.next().unwrap_or_default(),
                scores: scores.next().unwrap_or_default(),
                bounds: bounds.next().unwrap_or_default(),
            })
    }

    /// Brings every point of `data` up to date with the last row of
    /// `centers`, the center just chosen (the rows before it are the ones
    /// seen so far), scores included. Returns the sum of every score:
    /// chunk totals added in chunk order.
    pub(crate) fn add(&mut self, data: &Dataset, centers: &Points, kind: CostKind) -> f64 {
        let dim = data.dim();
        let index = centers.len() - 1;
        let center = centers.row(index);
        let slack = Slack::new(dim);
        let gaps: Vec<f64> = (centers.as_flat()[..index * dim].chunks_exact(dim))
            .map(|earlier| slack.floor(sq_dist(earlier, center)))
            .collect();
        let width = self.width();
        let last_group = width.saturating_sub(1);
        let step = SeedStep {
            center,
            index,
            // A seeding that outruns its plan (repeated draws past `n`
            // distinct points) is resumed by a full scan; its table only
            // has to stay in range.
            group: (index / self.group_size).min(last_group),
            last_group,
            width,
            group_size: self.group_size,
            gaps: &gaps,
            slack,
            kind,
            dim,
        };
        let mut evals = 0;
        let total = (self.rows(data))
            .map(|rows| {
                let (chunk_evals, chunk_total) = fc_geom::dispatch_dim!(
                    dim,
                    seed_chunk,
                    seed_chunk::<0>(&step, rows),
                    (&step, rows)
                );
                evals += chunk_evals;
                chunk_total
            })
            .sum();
        self.distance_evals += evals;
        total
    }
}

/// One chunk's share of the points, their weights and every per-point
/// column of [`Seeds`].
struct SeedRows<'a> {
    points: &'a [f64],
    weights: &'a [f64],
    labels: &'a mut [usize],
    min_sq: &'a mut [f64],
    reach: &'a mut [f64],
    scores: &'a mut [f64],
    /// `width` bounds per point, or none.
    bounds: &'a mut [f64],
}

/// One seeding round's read-only inputs, shared by every chunk.
struct SeedStep<'a> {
    center: &'a [f64],
    index: usize,
    /// The new center's group, and the last group of the table.
    group: usize,
    last_group: usize,
    /// Bounds per point; 0 when no table is kept.
    width: usize,
    group_size: usize,
    /// `floor(dist(c_j, center))` for every earlier center `j`.
    gaps: &'a [f64],
    slack: Slack,
    kind: CostKind,
    dim: usize,
}

/// Brings one chunk of points up to date with a new center; returns the
/// distances it measured and the chunk's new score total. `D` as in
/// [`reassign_chunk`].
fn seed_chunk<const D: usize>(step: &SeedStep<'_>, rows: SeedRows<'_>) -> (u64, f64) {
    let dim = if D == 0 { step.dim } else { D };
    let center = &step.center[..dim];
    let (slack, width) = (step.slack, step.width);
    let table = width > 0;
    let (mut evals, mut total) = (0u64, 0.0);
    // Every column cut to one length, so that indexing them checks nothing.
    let n = rows.labels.len();
    let (labels, min_sq) = (&mut rows.labels[..n], &mut rows.min_sq[..n]);
    let (reach, scores, weights) = (
        &mut rows.reach[..n],
        &mut rows.scores[..n],
        &rows.weights[..n],
    );
    for (i, p) in rows.points.chunks_exact(dim).take(n).enumerate() {
        let (label, m, r) = (labels[i], min_sq[i], reach[i]);
        let lower = slack.lower(step.gaps[label], r);
        if lower > r {
            if table {
                let bound = &mut rows.bounds[i * width + step.group];
                *bound = bound.min(lower);
            }
        } else {
            let sq = sq_dist(&p[..dim], center);
            evals += 1;
            if sq < m {
                if table {
                    let home = (label / step.group_size).min(step.last_group);
                    let bound = &mut rows.bounds[i * width + home];
                    *bound = bound.min(slack.floor(m));
                }
                labels[i] = step.index;
                min_sq[i] = sq;
                reach[i] = slack.reach(sq);
                scores[i] = weights[i] * step.kind.from_sq(sq);
            } else if table {
                let bound = &mut rows.bounds[i * width + step.group];
                *bound = bound.min(slack.floor(sq));
            }
        }
        total += scores[i];
    }
    (evals, total)
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

    /// Points on a small lattice (exact ties) around blobs far apart, so
    /// seeding both skips and measures.
    fn lattice(n: usize, dim: usize) -> Points {
        let flat = (0..n * dim)
            .map(|i| ((i * 7 + i / dim) % 5) as f64 + ((i / dim) % 3 * 40) as f64)
            .collect();
        Points::from_flat(flat, dim).unwrap()
    }

    #[test]
    fn seeds_are_the_scan_and_their_bounds_hold() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in [1, 2, 3, 8, 20] {
            let p = lattice(2 * par::CHUNK_POINTS + 77, dim);
            let weights = (0..p.len()).map(|i| (i % 7) as f64 * 0.5).collect();
            let data = Dataset::weighted(p.clone(), weights).unwrap();
            for kind in [CostKind::KMeans, CostKind::KMedian] {
                let mut centers = Points::empty(dim);
                centers.push(p.row(5)).unwrap();
                let (mut seeds, mut seeds_total) = Seeds::new(&data, 5, 12, kind, true);
                let (mut bare, mut bare_total) = Seeds::new(&data, 5, 12, kind, false);
                for i in [900, 5, 1500, 2, 41, 300, 1999, 7, 1234, 60, 61] {
                    centers.push(p.row(i)).unwrap();
                    seeds_total = seeds.add(&data, &centers, kind);
                    bare_total = bare.add(&data, &centers, kind);
                }
                let scan = assign(&p, &centers, CostKind::KMeans);
                assert_eq!(seeds.labels, scan.labels, "dim {dim}");
                assert_eq!(bits(&seeds.min_sq), bits(&scan.cost_z), "dim {dim}");
                // The fused scores and totals are a separate pass's bits.
                let scores: Vec<f64> = (scan.cost_z.iter().zip(data.weights()))
                    .map(|(&m, &w)| w * kind.from_sq(m))
                    .collect();
                assert_eq!(bits(&seeds.scores), bits(&scores), "dim {dim}");
                let total: f64 = (scores.chunks(par::CHUNK_POINTS))
                    .map(|c| c.iter().fold(0.0, |t, s| t + s))
                    .sum();
                assert_eq!(seeds_total.to_bits(), total.to_bits(), "dim {dim}");
                // Without a table: the same assignment, no bounds.
                assert_eq!(bare.labels, seeds.labels, "dim {dim}");
                assert_eq!(bits(&bare.scores), bits(&seeds.scores), "dim {dim}");
                assert_eq!(bare_total.to_bits(), seeds_total.to_bits(), "dim {dim}");
                assert_eq!(bare.distance_evals, seeds.distance_evals);
                assert!(bare.bounds.is_empty());
                let n = p.len() as u64;
                assert!(seeds.distance_evals < 12 * n, "dim {dim}: nothing skipped");
                // Every bound is at most the distance to every center of
                // its group other than the label.
                let width = seeds.bounds.len() / p.len();
                for (i, row) in seeds.bounds.chunks_exact(width).enumerate() {
                    for (j, c) in centers.iter().enumerate() {
                        if j != seeds.labels[i] {
                            let bound = row[j / seeds.group_size];
                            assert!(bound <= sq_dist(p.row(i), c).sqrt(), "dim {dim}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one center")]
    fn assign_empty_centers_panics() {
        assign(&points(), &Points::empty(2), CostKind::KMeans);
    }
}
