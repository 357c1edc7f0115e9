//! Johnson–Lindenstrauss random projections.
//!
//! Algorithm 1 step 2 embeds the input into `d̃ = O(log k)` dimensions before
//! seeding; Makarychev–Makarychev–Razenshteyn \[50\] show this preserves
//! k-means/k-median costs within `1 ± ε`. The construction is the sparse
//! Achlioptas ±1 projection (three-point distribution, 2/3 sparsity), scaled
//! so squared norms are preserved in expectation. Only its non-zero entries
//! are stored, as one signed index list per target row, so projecting a
//! point costs about a third of the multiplies of a dense `t × d` product —
//! and gives the same bits: every skipped term is `0·x`, and adding `±0`
//! to an accumulator that starts at `+0.0` (and so can never become `-0.0`)
//! leaves it unchanged.

use std::borrow::Cow;

use rand::Rng;

use crate::bbox::BoundingBox;
use crate::error::GeomError;
use crate::points::Points;

/// The projection family to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JlKind {
    /// Achlioptas sparse projection: entries √(3/target)·{+1, 0, -1} with
    /// probabilities {1/6, 2/3, 1/6}. The guarantee of a dense Gaussian
    /// matrix, with ~3× fewer multiplies: only the non-zero entries are
    /// stored and multiplied.
    SparseAchlioptas,
}

/// A sampled linear projection `R^{d} → R^{t}`.
#[derive(Debug, Clone)]
pub struct JlProjection {
    /// The non-zero entries of the `t × d` matrix, row by row: each is a
    /// source index and its value `±√(3/t)`, in ascending index order within
    /// a row.
    terms: Vec<(usize, f64)>,
    /// Target row `r` is `terms[row_ends[r - 1]..row_ends[r]]` (from 0 for
    /// `r = 0`).
    row_ends: Vec<usize>,
    source_dim: usize,
    target_dim: usize,
}

/// Points a bulk [`JlProjection::project`] carries through one pass over
/// the matrix's terms.
const LANES: usize = 8;

/// Target dimension for clustering with `k` centers at distortion `eps`,
/// following the `O(log(k/ε²))`-style bound of \[50\] with the constant used in
/// practice (the paper's experiments use this for MNIST only).
pub fn target_dim_for_clustering(k: usize, eps: f64) -> usize {
    assert!(eps > 0.0, "eps must be positive");
    let k = k.max(2) as f64;
    ((k.ln() / (eps * eps)).ceil() as usize).max(8)
}

impl JlProjection {
    /// Samples a projection matrix: one uniform draw per entry, `t·d` of
    /// them in row-major order.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        kind: JlKind,
        source_dim: usize,
        target_dim: usize,
    ) -> Result<Self, GeomError> {
        if target_dim == 0 || source_dim == 0 {
            return Err(GeomError::InvalidTargetDim {
                source: source_dim,
                target: target_dim,
            });
        }
        let JlKind::SparseAchlioptas = kind;
        let scale = (3.0 / target_dim as f64).sqrt();
        let mut terms = Vec::with_capacity(source_dim * target_dim / 3 + 1);
        let mut row_ends = Vec::with_capacity(target_dim);
        for _ in 0..target_dim {
            for j in 0..source_dim {
                let u: f64 = rng.gen();
                if u < 1.0 / 6.0 {
                    terms.push((j, scale));
                } else if u < 1.0 / 3.0 {
                    terms.push((j, -scale));
                }
            }
            row_ends.push(terms.len());
        }
        Ok(Self {
            terms,
            row_ends,
            source_dim,
            target_dim,
        })
    }

    /// Source dimensionality.
    pub fn source_dim(&self) -> usize {
        self.source_dim
    }

    /// Target dimensionality.
    pub fn target_dim(&self) -> usize {
        self.target_dim
    }

    /// Projects a single point.
    pub fn project_point(&self, p: &[f64]) -> Result<Vec<f64>, GeomError> {
        if p.len() != self.source_dim {
            return Err(GeomError::DimensionMismatch {
                expected: self.source_dim,
                got: p.len(),
            });
        }
        let mut out = vec![0.0; self.target_dim];
        self.project_into(p, &mut out);
        Ok(out)
    }

    /// Projects `p` into `out` (`target_dim` long): `out[r]` sums the row's
    /// non-zero terms `±√(3/t)·p[j]` in ascending `j`, from `+0.0`.
    #[inline]
    fn project_into(&self, p: &[f64], out: &mut [f64]) {
        let mut start = 0;
        for (o, &end) in out.iter_mut().zip(&self.row_ends) {
            *o = self.terms[start..end]
                .iter()
                .fold(0.0, |acc, &(j, m)| acc + m * p[j]);
            start = end;
        }
    }

    /// Projects an entire point store: `O(n · d · t / 3)`. Points go
    /// through eight at a time, transposed so that one term of a target row
    /// multiplies a contiguous run of lanes: each lane is one point's own
    /// accumulator, summed in the same order as
    /// [`project_point`](Self::project_point), so the bits are the same.
    pub fn project(&self, points: &Points) -> Result<Points, GeomError> {
        self.project_visiting(points, |_| {})
    }

    /// [`project`](Self::project) and the bounding box of its output
    /// (`None` for no points), gathered from each block of rows while it is
    /// still in cache rather than in a second pass over the output. Rows
    /// are visited in order with `BoundingBox::of`'s selects, so the box is
    /// that of the projected points, bit for bit.
    pub fn project_bounded(
        &self,
        points: &Points,
    ) -> Result<(Points, Option<BoundingBox>), GeomError> {
        let Some(first) = points.iter().next() else {
            return Ok((self.project(points)?, None));
        };
        // Starting from the first row's image, which the pass then selects
        // again with no effect, is starting from the first row.
        let mut min = self.project_point(first)?;
        let mut max = min.clone();
        let projected = self.project_visiting(points, |rows| {
            for row in rows.chunks_exact(self.target_dim) {
                for ((lo, hi), &x) in min.iter_mut().zip(max.iter_mut()).zip(row) {
                    *lo = if x < *lo { x } else { *lo };
                    *hi = if x > *hi { x } else { *hi };
                }
            }
        })?;
        Ok((projected, Some(BoundingBox::from_corners(min, max))))
    }

    /// The bulk projection, calling `visit(rows)` with each block of output
    /// rows once it is written, in order.
    #[inline]
    fn project_visiting(
        &self,
        points: &Points,
        mut visit: impl FnMut(&[f64]),
    ) -> Result<Points, GeomError> {
        if points.dim() != self.source_dim {
            return Err(GeomError::DimensionMismatch {
                expected: self.source_dim,
                got: points.dim(),
            });
        }
        let (d, t) = (self.source_dim, self.target_dim);
        let mut data = vec![0.0; points.len() * t];
        // lanes[j·LANES + b] = coordinate j of the block's point b.
        let mut lanes = vec![0.0; d * LANES];
        for (block, out) in points
            .as_flat()
            .chunks(d * LANES)
            .zip(data.chunks_mut(t * LANES))
        {
            if block.len() < d * LANES {
                for (p, o) in block.chunks_exact(d).zip(out.chunks_exact_mut(t)) {
                    self.project_into(p, o);
                }
                visit(out);
                continue;
            }
            for (b, p) in block.chunks_exact(d).enumerate() {
                for (lane, &x) in lanes.iter_mut().skip(b).step_by(LANES).zip(p) {
                    *lane = x;
                }
            }
            let mut start = 0;
            for (r, &end) in self.row_ends.iter().enumerate() {
                let mut acc = [0.0; LANES];
                for &(j, m) in &self.terms[start..end] {
                    let at = j * LANES;
                    let x: &[f64; LANES] = lanes[at..at + LANES].try_into().expect("LANES wide");
                    for (a, &x) in acc.iter_mut().zip(x) {
                        *a += m * x;
                    }
                }
                for (b, &a) in acc.iter().enumerate() {
                    out[b * t + r] = a;
                }
                start = end;
            }
            visit(out);
        }
        Points::from_flat(data, t)
    }
}

/// Projects only when it reduces the dimension: the paper applies JL solely
/// to MNIST because the other datasets are already low-dimensional. Lends
/// the input back, uncopied, when `points.dim() <= target_dim`.
pub fn project_if_beneficial<'a, R: Rng + ?Sized>(
    rng: &mut R,
    points: &'a Points,
    target_dim: usize,
    kind: JlKind,
) -> Cow<'a, Points> {
    if points.dim() <= target_dim || points.is_empty() {
        return Cow::Borrowed(points);
    }
    JlProjection::sample(rng, kind, points.dim(), target_dim)
        .and_then(|p| p.project(points))
        .map_or(Cow::Borrowed(points), Cow::Owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::sq_dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rand_distr::{Distribution, StandardNormal};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn target_dim_grows_with_k_and_eps() {
        let base = target_dim_for_clustering(10, 0.5);
        assert!(target_dim_for_clustering(1000, 0.5) > base);
        assert!(target_dim_for_clustering(10, 0.1) > base);
        assert!(target_dim_for_clustering(2, 1.0) >= 8);
    }

    #[test]
    fn sample_rejects_zero_dims() {
        let mut r = rng();
        assert!(JlProjection::sample(&mut r, JlKind::SparseAchlioptas, 0, 4).is_err());
        assert!(JlProjection::sample(&mut r, JlKind::SparseAchlioptas, 4, 0).is_err());
    }

    #[test]
    fn projection_shape() {
        let mut r = rng();
        let proj = JlProjection::sample(&mut r, JlKind::SparseAchlioptas, 100, 10).unwrap();
        assert_eq!(proj.source_dim(), 100);
        assert_eq!(proj.target_dim(), 10);
        let p = Points::zeros(5, 100);
        let q = proj.project(&p).unwrap();
        assert_eq!(q.len(), 5);
        assert_eq!(q.dim(), 10);
        assert!(q.as_flat().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn project_point_checks_dimension() {
        let mut r = rng();
        let proj = JlProjection::sample(&mut r, JlKind::SparseAchlioptas, 3, 2).unwrap();
        assert!(proj.project_point(&[1.0, 2.0]).is_err());
        assert!(proj.project_point(&[1.0, 2.0, 3.0]).is_ok());
        let wrong = Points::zeros(2, 4);
        assert!(proj.project(&wrong).is_err());
    }

    /// Statistical check of the JL property: with target dimension ~log n /
    /// eps^2, pairwise squared distances are preserved within a modest factor
    /// for the vast majority of pairs.
    fn distance_preservation(kind: JlKind) {
        let mut r = rng();
        let n = 40;
        let d = 200;
        let t = 64;
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n * d {
            let g: f64 = StandardNormal.sample(&mut r);
            data.push(g);
        }
        let p = Points::from_flat(data, d).unwrap();
        let proj = JlProjection::sample(&mut r, kind, d, t).unwrap();
        let q = proj.project(&p).unwrap();
        let mut bad = 0;
        let mut pairs = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let orig = sq_dist(p.row(i), p.row(j));
                let proj_d = sq_dist(q.row(i), q.row(j));
                pairs += 1;
                let ratio = proj_d / orig;
                if !(0.5..=1.5).contains(&ratio) {
                    bad += 1;
                }
            }
        }
        // With t = 64, deviations beyond ±50% should be very rare.
        assert!(
            bad * 20 < pairs,
            "{kind:?}: {bad}/{pairs} pairs distorted beyond 50%"
        );
    }

    #[test]
    fn achlioptas_preserves_distances() {
        distance_preservation(JlKind::SparseAchlioptas);
    }

    /// The dense `t × d` matrix the same draws describe, multiplied out in
    /// full: the reference the sparse product must equal bit for bit.
    fn dense_reference(seed: u64, d: usize, t: usize, points: &Points) -> Vec<f64> {
        let mut r = StdRng::seed_from_u64(seed);
        let scale = (3.0 / t as f64).sqrt();
        let matrix: Vec<f64> = (0..t * d)
            .map(|_| {
                let u: f64 = r.gen();
                if u < 1.0 / 6.0 {
                    scale
                } else if u < 1.0 / 3.0 {
                    -scale
                } else {
                    0.0
                }
            })
            .collect();
        let mut out = Vec::with_capacity(points.len() * t);
        for p in points.iter() {
            for row in matrix.chunks_exact(d) {
                let mut acc = 0.0;
                for (&m, &x) in row.iter().zip(p) {
                    acc += m * x;
                }
                out.push(acc);
            }
        }
        out
    }

    #[test]
    fn sparse_product_equals_the_dense_reference_bit_for_bit() {
        let mut data_rng = StdRng::seed_from_u64(5);
        for (d, t) in [(1, 8), (3, 2), (20, 19), (64, 10), (130, 12)] {
            let n = 43;
            let mut flat: Vec<f64> = (0..n * d)
                .map(|i| match i % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    2 => -data_rng.gen::<f64>() * 1e6,
                    3 => data_rng.gen::<f64>() * 1e-300,
                    _ => StandardNormal.sample(&mut data_rng),
                })
                .collect();
            // An all-zero row, an all-negative-zero row and one of each sign.
            flat[..d].fill(0.0);
            flat[d..2 * d].fill(-0.0);
            flat[2 * d..3 * d]
                .iter_mut()
                .enumerate()
                .for_each(|(j, x)| *x = if j % 2 == 0 { -0.0 } else { 0.0 });
            let points = Points::from_flat(flat, d).unwrap();
            for seed in 0..8 {
                let proj = JlProjection::sample(
                    &mut StdRng::seed_from_u64(seed),
                    JlKind::SparseAchlioptas,
                    d,
                    t,
                )
                .unwrap();
                let sparse = proj.project(&points).unwrap();
                let dense = dense_reference(seed, d, t, &points);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(sparse.as_flat()), bits(&dense), "d = {d}, t = {t}");
                for (i, p) in points.iter().enumerate() {
                    let one = proj.project_point(p).unwrap();
                    assert_eq!(bits(&one), bits(sparse.row(i)));
                }
                // A zero row projects to +0.0 everywhere, never -0.0.
                assert!(sparse.as_flat()[..3 * t].iter().all(|x| x.to_bits() == 0));
            }
        }
    }

    #[test]
    fn project_bounded_is_project_then_bounding_box() {
        let mut data_rng = StdRng::seed_from_u64(9);
        let shapes = [(3, 2, 1), (20, 19, 43), (64, 10, 8), (130, 12, 17)];
        for ((d, t, n), nan_first) in shapes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let mut flat: Vec<f64> = (0..n * d)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => -data_rng.gen::<f64>() * 1e6,
                    _ => StandardNormal.sample(&mut data_rng),
                })
                .collect();
            // A first row whose image is +0.0 or NaN, and a later NaN row.
            if nan_first {
                flat[..d].fill(f64::NAN);
            } else {
                flat[..d].fill(0.0);
            }
            if n > 3 {
                flat[2 * d] = f64::NAN;
            }
            let points = Points::from_flat(flat, d).unwrap();
            let proj = JlProjection::sample(
                &mut StdRng::seed_from_u64(3),
                JlKind::SparseAchlioptas,
                d,
                t,
            )
            .unwrap();
            let (projected, bbox) = proj.project_bounded(&points).unwrap();
            let expected = proj.project(&points).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(projected.as_flat()), bits(expected.as_flat()));
            let (bbox, of) = (bbox.unwrap(), BoundingBox::of(&expected).unwrap());
            assert_eq!(bits(bbox.min()), bits(of.min()), "d = {d}, t = {t}");
            assert_eq!(bits(bbox.max()), bits(of.max()), "d = {d}, t = {t}");
        }
        let proj = JlProjection::sample(&mut rng(), JlKind::SparseAchlioptas, 4, 2).unwrap();
        let (empty, bbox) = proj.project_bounded(&Points::empty(4)).unwrap();
        assert!(empty.is_empty() && bbox.is_none());
    }

    #[test]
    fn project_if_beneficial_passthrough_for_low_dim() {
        let mut r = rng();
        let p = Points::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let q = project_if_beneficial(&mut r, &p, 10, JlKind::SparseAchlioptas);
        assert!(matches!(q, Cow::Borrowed(lent) if std::ptr::eq(lent, &p)));
    }

    #[test]
    fn project_if_beneficial_reduces_high_dim() {
        let mut r = rng();
        let p = Points::zeros(3, 50);
        let q = project_if_beneficial(&mut r, &p, 10, JlKind::SparseAchlioptas);
        assert_eq!(q.dim(), 10);
        assert_eq!(q.len(), 3);
    }
}
