//! Johnson–Lindenstrauss random projections.
//!
//! Algorithm 1 step 2 embeds the input into `d̃ = O(log k)` dimensions before
//! seeding; Makarychev–Makarychev–Razenshteyn \[50\] show this preserves
//! k-means/k-median costs within `1 ± ε`. Two classic constructions are
//! provided: a dense Gaussian matrix and the sparse Achlioptas ±1 projection
//! (three-point distribution, 2/3 sparsity), both scaled so squared norms are
//! preserved in expectation.

use std::borrow::Cow;

use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::error::GeomError;
use crate::points::Points;

/// The projection family to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JlKind {
    /// Dense N(0, 1/target) entries.
    Gaussian,
    /// Achlioptas sparse projection: entries √(3/target)·{+1, 0, -1} with
    /// probabilities {1/6, 2/3, 1/6}. Same guarantee, ~3× fewer multiplies.
    SparseAchlioptas,
}

/// A sampled linear projection `R^{d} → R^{t}`.
#[derive(Debug, Clone)]
pub struct JlProjection {
    // Row-major t × d matrix.
    matrix: Vec<f64>,
    source_dim: usize,
    target_dim: usize,
}

/// Target dimension for clustering with `k` centers at distortion `eps`,
/// following the `O(log(k/ε²))`-style bound of \[50\] with the constant used in
/// practice (the paper's experiments use this for MNIST only).
pub fn target_dim_for_clustering(k: usize, eps: f64) -> usize {
    assert!(eps > 0.0, "eps must be positive");
    let k = k.max(2) as f64;
    ((k.ln() / (eps * eps)).ceil() as usize).max(8)
}

impl JlProjection {
    /// Samples a projection matrix.
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
        let len = source_dim * target_dim;
        let mut matrix = Vec::with_capacity(len);
        match kind {
            JlKind::Gaussian => {
                let scale = 1.0 / (target_dim as f64).sqrt();
                for _ in 0..len {
                    let g: f64 = StandardNormal.sample(rng);
                    matrix.push(g * scale);
                }
            }
            JlKind::SparseAchlioptas => {
                let scale = (3.0 / target_dim as f64).sqrt();
                for _ in 0..len {
                    let u: f64 = rng.gen();
                    matrix.push(if u < 1.0 / 6.0 {
                        scale
                    } else if u < 1.0 / 3.0 {
                        -scale
                    } else {
                        0.0
                    });
                }
            }
        }
        Ok(Self {
            matrix,
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

    #[inline]
    fn project_into(&self, p: &[f64], out: &mut [f64]) {
        // out[t] = Σ_j matrix[t][j] * p[j]; iterate row-contiguously.
        for (t, o) in out.iter_mut().enumerate() {
            let row = &self.matrix[t * self.source_dim..(t + 1) * self.source_dim];
            let mut acc = 0.0;
            for (&m, &x) in row.iter().zip(p) {
                acc += m * x;
            }
            *o = acc;
        }
    }

    /// Projects an entire point store. `O(n · d · t)`.
    pub fn project(&self, points: &Points) -> Result<Points, GeomError> {
        if points.dim() != self.source_dim {
            return Err(GeomError::DimensionMismatch {
                expected: self.source_dim,
                got: points.dim(),
            });
        }
        let n = points.len();
        let mut data = vec![0.0; n * self.target_dim];
        for (i, row) in points.iter().enumerate() {
            self.project_into(
                row,
                &mut data[i * self.target_dim..(i + 1) * self.target_dim],
            );
        }
        Points::from_flat(data, self.target_dim)
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
        assert!(JlProjection::sample(&mut r, JlKind::Gaussian, 0, 4).is_err());
        assert!(JlProjection::sample(&mut r, JlKind::Gaussian, 4, 0).is_err());
    }

    #[test]
    fn projection_shape() {
        let mut r = rng();
        let proj = JlProjection::sample(&mut r, JlKind::Gaussian, 100, 10).unwrap();
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
        let proj = JlProjection::sample(&mut r, JlKind::Gaussian, 3, 2).unwrap();
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
    fn gaussian_preserves_distances() {
        distance_preservation(JlKind::Gaussian);
    }

    #[test]
    fn achlioptas_preserves_distances() {
        distance_preservation(JlKind::SparseAchlioptas);
    }

    #[test]
    fn project_if_beneficial_passthrough_for_low_dim() {
        let mut r = rng();
        let p = Points::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let q = project_if_beneficial(&mut r, &p, 10, JlKind::Gaussian);
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
