//! Euclidean distance kernels for `(k, z)`-clustering.
//!
//! The paper studies `cost_z(P, C) = Σ_p w_p · dist(p, C)^z` with `z = 1`
//! (k-median) and `z = 2` (k-means). Everything hot in this workspace reduces
//! to squared-Euclidean evaluations over contiguous `f64` slices, so the
//! kernels here are written to auto-vectorize:
//!
//! - the variable-dimension kernels ([`sq_dist`], [`sq_dist_bounded`])
//!   accumulate into [`LANES`] independent lanes — floats do not
//!   reassociate, so a single running sum would serialize the loop at FP
//!   add latency instead of letting the compiler keep a vector of partial
//!   sums;
//! - the nearest-center kernels ([`nearest_sq`], [`nearest_block`])
//!   dispatch once on the dimension into monomorphized `const D` inner
//!   loops for the common small dimensions, so the per-coordinate loop
//!   fully unrolls with no bounds checks and no per-point allocation.

/// The power `z` applied to distances in the clustering objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// `z = 1`: sum of distances (k-median).
    KMedian,
    /// `z = 2`: sum of squared distances (k-means).
    KMeans,
}

impl CostKind {
    /// The exponent `z` as a float.
    #[inline]
    pub fn z(self) -> f64 {
        match self {
            CostKind::KMedian => 1.0,
            CostKind::KMeans => 2.0,
        }
    }

    /// Converts a squared distance to `dist^z`.
    #[inline]
    pub fn from_sq(self, sq: f64) -> f64 {
        match self {
            CostKind::KMedian => sq.sqrt(),
            CostKind::KMeans => sq,
        }
    }
}

/// Independent accumulator lanes in the variable-dimension kernels: wide
/// enough for one AVX-512 register (or two AVX2 registers) of `f64`.
pub const LANES: usize = 8;

/// Accumulates one `LANES`-wide block of squared differences, one partial
/// sum per lane. `#[inline(always)]` so the caller's loop sees straight-
/// line code the autovectorizer maps onto vector registers.
#[inline(always)]
fn accumulate_lanes(acc: &mut [f64; LANES], ca: &[f64], cb: &[f64]) {
    for l in 0..LANES {
        let d = ca[l] - cb[l];
        acc[l] += d * d;
    }
}

/// Pairwise lane reduction. Fixed tree order keeps [`sq_dist`] and the
/// no-early-exit path of [`sq_dist_bounded`] bitwise identical.
#[inline(always)]
fn reduce_lanes(acc: &[f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Squared Euclidean distance between two points of equal dimension.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        accumulate_lanes(&mut acc, ca, cb);
    }
    let mut tail = 0.0;
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce_lanes(&acc) + tail
}

/// Euclidean distance between two points.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

/// Squared distance with an early-exit bound: returns `None` as soon as the
/// running sum exceeds `bound`. Used by nearest-center assignment to prune
/// candidates that cannot beat the incumbent (the classic "partial distance"
/// trick; on high-dimensional data this saves most of the work).
///
/// When the bound never fires, the result is bitwise identical to
/// [`sq_dist`] — both kernels accumulate and reduce in the same order.
#[inline]
pub fn sq_dist_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; LANES];
    let mut chunks_a = a.chunks_exact(LANES);
    let mut chunks_b = b.chunks_exact(LANES);
    // The bound check runs once every fourth LANES-wide block: the
    // horizontal reduce it needs serializes the lanes, so checking every
    // block would cost more than the pruned multiplies save.
    let mut until_check = 4u32;
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        accumulate_lanes(&mut acc, ca, cb);
        until_check -= 1;
        if until_check == 0 {
            if reduce_lanes(&acc) > bound {
                return None;
            }
            until_check = 4;
        }
    }
    let mut tail = 0.0;
    for (&x, &y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    let total = reduce_lanes(&acc) + tail;
    if total > bound {
        None
    } else {
        Some(total)
    }
}

/// The fully-unrolled nearest-center scan for a compile-time dimension:
/// no early exit (for small `D` the branch costs more than the handful of
/// multiplies it would save), no bounds checks, and the candidate point
/// stays in registers across all `k` centers.
#[inline(always)]
fn nearest_sq_fixed<const D: usize>(p: &[f64], centers: &[f64]) -> (usize, f64) {
    let p = &p[..D];
    let mut best = f64::INFINITY;
    let mut best_idx = 0usize;
    for (j, c) in centers.chunks_exact(D).enumerate() {
        // The branch on `D` is constant-folded per monomorphization: wide
        // dimensions accumulate into independent lanes (a serial sum
        // would bottleneck on FP add latency), narrow ones stay scalar.
        let acc = if D >= LANES && D.is_multiple_of(LANES) {
            let mut lanes = [0.0f64; LANES];
            for blk in 0..D / LANES {
                accumulate_lanes(
                    &mut lanes,
                    &p[blk * LANES..][..LANES],
                    &c[blk * LANES..][..LANES],
                );
            }
            reduce_lanes(&lanes)
        } else {
            let mut acc = 0.0;
            for l in 0..D {
                let d = p[l] - c[l];
                acc += d * d;
            }
            acc
        };
        if acc < best {
            best = acc;
            best_idx = j;
        }
    }
    (best_idx, best)
}

/// The variable-dimension nearest-center scan with partial-distance
/// pruning — the fallback for dimensions without a monomorphized kernel,
/// where pruning pays for its branch.
#[inline]
fn nearest_sq_generic(p: &[f64], centers: &[f64], dim: usize) -> (usize, f64) {
    let mut best = f64::INFINITY;
    let mut best_idx = 0;
    for (j, c) in centers.chunks_exact(dim).enumerate() {
        if let Some(d) = sq_dist_bounded(p, c, best) {
            if d < best {
                best = d;
                best_idx = j;
            }
        }
    }
    (best_idx, best)
}

/// Dispatches a closure-shaped computation on the dimension: common small
/// dimensions get the monomorphized branch-free kernel, everything else
/// the pruned generic scan. One `match`, shared by the single-point and
/// block entry points — and, exported, by `fc_clustering`'s bound-keeping
/// assigner — so the set of specialized dimensions cannot drift.
#[macro_export]
macro_rules! dispatch_dim {
    ($dim:expr, $fixed:ident, $generic:expr, ($($arg:expr),*)) => {
        match $dim {
            1 => $fixed::<1>($($arg),*),
            2 => $fixed::<2>($($arg),*),
            3 => $fixed::<3>($($arg),*),
            4 => $fixed::<4>($($arg),*),
            8 => $fixed::<8>($($arg),*),
            16 => $fixed::<16>($($arg),*),
            32 => $fixed::<32>($($arg),*),
            64 => $fixed::<64>($($arg),*),
            _ => $generic,
        }
    };
}

/// Squared distance from `p` to its nearest point in `centers` (a flat
/// row-major buffer of `k` rows), together with the index of that point.
///
/// `centers` must be non-empty. Ties keep the earliest center index.
#[inline]
pub fn nearest_sq(p: &[f64], centers: &[f64], dim: usize) -> (usize, f64) {
    debug_assert!(!centers.is_empty());
    dispatch_dim!(
        dim,
        nearest_sq_fixed,
        nearest_sq_generic(p, centers, dim),
        (p, centers)
    )
}

#[inline(always)]
fn nearest_block_fixed<const D: usize>(
    points: &[f64],
    centers: &[f64],
    labels: &mut [usize],
    best_sq: &mut [f64],
) {
    for ((p, label), best) in points.chunks_exact(D).zip(&mut *labels).zip(&mut *best_sq) {
        let (j, d) = nearest_sq_fixed::<D>(p, centers);
        *label = j;
        *best = d;
    }
}

#[inline]
fn nearest_block_generic(
    points: &[f64],
    centers: &[f64],
    dim: usize,
    labels: &mut [usize],
    best_sq: &mut [f64],
) {
    for ((p, label), best) in points
        .chunks_exact(dim)
        .zip(&mut *labels)
        .zip(&mut *best_sq)
    {
        let (j, d) = nearest_sq_generic(p, centers, dim);
        *label = j;
        *best = d;
    }
}

/// Nearest-center assignment over a whole flat block of points: for each
/// row `i` of `points`, writes the index of its nearest center into
/// `labels[i]` and the squared distance into `best_sq[i]`.
///
/// This is the batch form of [`nearest_sq`]: the dimension dispatch
/// happens once per block instead of once per point, so the entire
/// `O(nkd)` scan runs inside one monomorphized loop.
pub fn nearest_block(
    points: &[f64],
    centers: &[f64],
    dim: usize,
    labels: &mut [usize],
    best_sq: &mut [f64],
) {
    debug_assert!(!centers.is_empty());
    debug_assert_eq!(points.len() % dim, 0);
    debug_assert_eq!(labels.len(), points.len() / dim);
    debug_assert_eq!(best_sq.len(), points.len() / dim);
    dispatch_dim!(
        dim,
        nearest_block_fixed,
        nearest_block_generic(points, centers, dim, labels, best_sq),
        (points, centers, labels, best_sq)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_dist_basic() {
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn bounded_matches_unbounded_when_within() {
        let a: Vec<f64> = (0..37).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let exact = sq_dist(&a, &b);
        assert_eq!(sq_dist_bounded(&a, &b, exact + 1.0), Some(exact));
        assert_eq!(sq_dist_bounded(&a, &b, exact), Some(exact));
    }

    #[test]
    fn bounded_prunes_when_exceeding() {
        let a = vec![0.0; 64];
        let b = vec![1.0; 64];
        // True squared distance is 64; any bound below that must prune.
        assert_eq!(sq_dist_bounded(&a, &b, 10.0), None);
        assert_eq!(sq_dist_bounded(&a, &b, 63.999), None);
    }

    #[test]
    fn nearest_sq_finds_argmin() {
        let centers = vec![0.0, 0.0, 10.0, 10.0, 1.0, 1.0];
        let (idx, d) = nearest_sq(&[1.2, 1.2], &centers, 2);
        assert_eq!(idx, 2);
        assert!((d - 0.08).abs() < 1e-12);
    }

    #[test]
    fn nearest_sq_single_center() {
        let centers = vec![5.0, 5.0];
        let (idx, d) = nearest_sq(&[5.0, 5.0], &centers, 2);
        assert_eq!(idx, 0);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn nearest_block_matches_per_point_scan() {
        // Cover both the monomorphized dims and the generic fallback.
        for dim in [1usize, 2, 3, 4, 5, 8, 11, 16, 24, 64] {
            let n = 17;
            let k = 5;
            let points: Vec<f64> = (0..n * dim)
                .map(|i| ((i * 31 % 97) as f64) * 0.25)
                .collect();
            let centers: Vec<f64> = (0..k * dim).map(|i| ((i * 17 % 89) as f64) * 0.5).collect();
            let mut labels = vec![0usize; n];
            let mut best = vec![0.0f64; n];
            nearest_block(&points, &centers, dim, &mut labels, &mut best);
            for (i, p) in points.chunks_exact(dim).enumerate() {
                let (want_idx, want_sq) = nearest_sq(p, &centers, dim);
                assert_eq!(labels[i], want_idx, "dim {dim}, point {i}");
                assert!((best[i] - want_sq).abs() < 1e-12, "dim {dim}, point {i}");
                // And against the scalar kernel directly.
                let brute = centers
                    .chunks_exact(dim)
                    .map(|c| sq_dist(p, c))
                    .fold(f64::INFINITY, f64::min);
                assert!((best[i] - brute).abs() < 1e-9, "dim {dim}, point {i}");
                // And against the layout the flat kernels replaced: one
                // `Vec` per row, squared distance accumulated coordinate by
                // coordinate, first minimum wins.
                let nested: Vec<Vec<f64>> = centers.chunks(dim).map(<[f64]>::to_vec).collect();
                let mut naive = (0, f64::INFINITY);
                for (j, c) in nested.iter().enumerate() {
                    let sq: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
                    if sq < naive.1 {
                        naive = (j, sq);
                    }
                }
                assert_eq!(labels[i], naive.0, "dim {dim}, point {i}: layout parity");
            }
        }
    }

    #[test]
    fn bounded_is_bitwise_identical_to_unbounded() {
        // Irrational-ish coordinates: any reassociation between the two
        // kernels would show up as a last-ulp difference.
        for dim in [3usize, 8, 13, 64] {
            let a: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.7).sin()).collect();
            let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 1.3).cos()).collect();
            let exact = sq_dist(&a, &b);
            assert_eq!(sq_dist_bounded(&a, &b, f64::INFINITY), Some(exact));
            assert_eq!(sq_dist_bounded(&a, &b, exact), Some(exact));
        }
    }

    #[test]
    fn cost_kind_conversions() {
        assert_eq!(CostKind::KMeans.from_sq(9.0), 9.0);
        assert_eq!(CostKind::KMedian.from_sq(9.0), 3.0);
        assert_eq!(CostKind::KMeans.z(), 2.0);
        assert_eq!(CostKind::KMedian.z(), 1.0);
    }
}
