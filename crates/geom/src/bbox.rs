//! Bounding boxes and spread computation.
//!
//! The *spread* `Δ` of a point set — the ratio of its diameter to its
//! smallest non-zero pairwise distance — governs the depth of the quadtree
//! embedding (Section 2.4 of the paper) and therefore the `log Δ` term that
//! Section 4's spread-reduction machinery removes.

use crate::points::Points;

/// Axis-aligned bounding box of a point set.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingBox {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl BoundingBox {
    /// Computes the bounding box of a non-empty point set; `None` if empty.
    pub fn of(points: &Points) -> Option<Self> {
        if points.is_empty() {
            return None;
        }
        let mut min = points.row(0).to_vec();
        let mut max = points.row(0).to_vec();
        for row in points.iter().skip(1) {
            // Selects, not branches: the same value as `if x < lo { lo = x }`
            // for every input, NaN and signed zeros included, and the loop
            // vectorises.
            for ((lo, hi), &x) in min.iter_mut().zip(max.iter_mut()).zip(row) {
                *lo = if x < *lo { x } else { *lo };
                *hi = if x > *hi { x } else { *hi };
            }
        }
        Some(Self { min, max })
    }

    /// Lower corner.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Upper corner.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Side length along each dimension.
    pub fn extents(&self) -> Vec<f64> {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| hi - lo)
            .collect()
    }

    /// Largest side length — the side of the enclosing hypercube.
    pub fn longest_side(&self) -> f64 {
        self.extents().into_iter().fold(0.0, f64::max)
    }

    /// Euclidean diameter of the box (an upper bound on the point-set
    /// diameter, tight within `√d`).
    pub fn diagonal(&self) -> f64 {
        self.extents()
            .into_iter()
            .map(|e| e * e)
            .sum::<f64>()
            .sqrt()
    }

    /// Whether `p` lies inside the box (inclusive).
    pub fn contains(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(self.min.iter().zip(&self.max))
            .all(|(&x, (&lo, &hi))| x >= lo && x <= hi)
    }
}

/// Upper bound `Δ` on the diameter used to root a quadtree, computed the way
/// the paper describes (Section 2.4): translate so an arbitrary input point
/// sits at the origin, then take the maximum distance from any point to the
/// origin. Runs in `O(nd)`.
pub fn diameter_upper_bound(points: &Points) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let origin = points.row(0).to_vec();
    let mut max_sq = 0.0f64;
    for row in points.iter() {
        let d = crate::distance::sq_dist(row, &origin);
        if d > max_sq {
            max_sq = d;
        }
    }
    2.0 * max_sq.sqrt()
}

/// Exact smallest non-zero pairwise distance, `O(n² d)` — only for tests and
/// small inputs; production code bounds the spread from grid resolution
/// instead.
pub fn min_nonzero_distance(points: &Points) -> Option<f64> {
    let n = points.len();
    let mut best = f64::INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = crate::distance::sq_dist(points.row(i), points.row(j));
            if d > 0.0 && d < best {
                best = d;
            }
        }
    }
    best.is_finite().then(|| best.sqrt())
}

/// Exact spread (diameter over smallest non-zero distance), `O(n² d)` —
/// test-and-diagnostics only. Returns `None` when all points coincide.
pub fn exact_spread(points: &Points) -> Option<f64> {
    let n = points.len();
    let mut max_sq = 0.0f64;
    let mut min_sq = f64::INFINITY;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = crate::distance::sq_dist(points.row(i), points.row(j));
            if d > max_sq {
                max_sq = d;
            }
            if d > 0.0 && d < min_sq {
                min_sq = d;
            }
        }
    }
    (min_sq.is_finite() && max_sq > 0.0).then(|| (max_sq / min_sq).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Points {
        Points::from_flat(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2).unwrap()
    }

    #[test]
    fn bbox_of_square() {
        let b = BoundingBox::of(&square()).unwrap();
        assert_eq!(b.min(), &[0.0, 0.0]);
        assert_eq!(b.max(), &[1.0, 1.0]);
        assert_eq!(b.longest_side(), 1.0);
        assert!((b.diagonal() - 2.0f64.sqrt()).abs() < 1e-12);
        assert!(b.contains(&[0.5, 0.5]));
        assert!(!b.contains(&[1.5, 0.5]));
    }

    #[test]
    fn bbox_keeps_the_first_of_equal_bounds_and_skips_nan() {
        // Signed zeros compare equal, so the first one seen stays; a NaN
        // compares false either way, so it never becomes a bound.
        let p = Points::from_flat(vec![-0.0, 0.0, f64::NAN, 2.0, -1.0], 1).unwrap();
        let b = BoundingBox::of(&p).unwrap();
        assert_eq!(b.min()[0], -1.0);
        assert_eq!(b.max()[0], 2.0);
        let zeros = Points::from_flat(vec![-0.0, 0.0, f64::NAN], 1).unwrap();
        let b = BoundingBox::of(&zeros).unwrap();
        assert_eq!(b.min()[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(b.max()[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn bbox_empty_is_none() {
        assert!(BoundingBox::of(&Points::empty(3)).is_none());
    }

    #[test]
    fn diameter_bound_dominates_true_diameter() {
        let p = square();
        let bound = diameter_upper_bound(&p);
        // True diameter is sqrt(2); the bound is 2 * max dist to row 0 = 2*sqrt(2).
        assert!(bound >= 2.0f64.sqrt());
        assert!((bound - 2.0 * 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(diameter_upper_bound(&Points::empty(2)), 0.0);
    }

    #[test]
    fn min_nonzero_skips_duplicates() {
        let p = Points::from_flat(vec![0.0, 0.0, 0.0, 0.0, 3.0, 4.0], 2).unwrap();
        assert!((min_nonzero_distance(&p).unwrap() - 5.0).abs() < 1e-12);
        let all_same = Points::from_flat(vec![1.0, 1.0, 1.0, 1.0], 2).unwrap();
        assert!(min_nonzero_distance(&all_same).is_none());
    }

    #[test]
    fn exact_spread_of_three_collinear() {
        let p = Points::from_flat(vec![0.0, 1.0, 10.0], 1).unwrap();
        // diameter 10, min nonzero distance 1.
        assert!((exact_spread(&p).unwrap() - 10.0).abs() < 1e-12);
        let same = Points::from_flat(vec![2.0, 2.0], 1).unwrap();
        assert!(exact_spread(&same).is_none());
    }
}
