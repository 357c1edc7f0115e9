//! Weighted geometric median (Weiszfeld's algorithm).
//!
//! The 1-median counterpart of the mean: Algorithm 1 computes the 1-median of
//! every cluster of the crude solution when targeting k-median (step 4). The
//! paper notes this takes `O(nd)` time per cluster \[20\]; Weiszfeld iterations
//! converge fast in practice and a constant-factor approximation suffices for
//! the sensitivity scores.

use fc_geom::points::Points;

/// Configuration for Weiszfeld iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeiszfeldConfig {
    /// Maximum number of iterations.
    pub max_iters: usize,
    /// Relative movement tolerance for early stopping.
    pub tol: f64,
}

impl Default for WeiszfeldConfig {
    fn default() -> Self {
        Self {
            max_iters: 64,
            tol: 1e-9,
        }
    }
}

/// Weighted geometric median of the points selected by `indices`.
///
/// Runs Weiszfeld's fixed-point iteration from the weighted mean; points that
/// coincide with the current iterate are handled with the standard
/// Ostresh modification (their pull is dropped for that step, which keeps
/// the iteration defined and still converges to the median).
///
/// Returns the weighted mean immediately for 0- or 1-point inputs.
pub fn geometric_median(
    points: &Points,
    weights: &[f64],
    indices: &[usize],
    cfg: WeiszfeldConfig,
) -> Vec<f64> {
    let dim = points.dim();
    let mut current = weighted_mean_of(points, weights, indices);
    if indices.len() <= 1 {
        return current;
    }
    // Both tests are relative to the iterate, so they scale with the data;
    // an iterate at the origin runs `max_iters`.
    let scale = current
        .iter()
        .map(|x| x.abs())
        .fold(0.0, f64::max)
        .max(f64::MIN_POSITIVE);
    // A pull is a weight over a distance that may be down to `ε` of the
    // iterate's scale, so weights past 2^256 could overflow it to `∞` and
    // the iterate to NaN. Those are scaled by the power of two that puts
    // the heaviest in [1, 2): every ratio below is then exactly as it was.
    let top = indices.iter().map(|&i| weights[i]).fold(0.0, f64::max);
    let unit = if top >= 2f64.powi(256) {
        1.0 / f64::from_bits(top.to_bits() & f64::INFINITY.to_bits())
    } else {
        1.0
    };
    let mut next = vec![0.0; dim];
    for _ in 0..cfg.max_iters {
        let mut denom = 0.0;
        next.iter_mut().for_each(|x| *x = 0.0);
        for &i in indices {
            let p = points.row(i);
            let d = fc_geom::distance::dist(p, &current);
            if d <= f64::EPSILON * scale {
                continue;
            }
            let pull = weights[i] * unit / d;
            denom += pull;
            for (nx, &px) in next.iter_mut().zip(p) {
                *nx += pull * px;
            }
        }
        if denom <= 0.0 {
            // Every point coincides with the iterate: it is the median.
            break;
        }
        let mut movement = 0.0;
        for (nx, cx) in next.iter_mut().zip(current.iter_mut()) {
            *nx /= denom;
            movement += (*nx - *cx) * (*nx - *cx);
            *cx = *nx;
        }
        if movement.sqrt() <= cfg.tol * scale {
            break;
        }
    }
    current
}

/// Weighted mean of the points selected by `indices` (the 1-mean solution).
pub fn weighted_mean_of(points: &Points, weights: &[f64], indices: &[usize]) -> Vec<f64> {
    let dim = points.dim();
    let mut mean = vec![0.0; dim];
    let mut total = 0.0;
    for &i in indices {
        let w = weights[i];
        total += w;
        for (m, &x) in mean.iter_mut().zip(points.row(i)) {
            *m += w * x;
        }
    }
    if total > 0.0 {
        for m in &mut mean {
            *m /= total;
        }
    }
    mean
}

/// All `k` weighted cluster means in one chunked pass over the labelled
/// points.
///
/// Per-chunk partial sums (one `k × d` accumulator and one `k`-vector of
/// weights per chunk) are merged in ascending chunk order. Clusters with
/// zero total weight come back as the zero vector — callers re-seed those.
pub fn weighted_means_by_label(
    points: &Points,
    weights: &[f64],
    labels: &[usize],
    k: usize,
) -> Vec<Vec<f64>> {
    weighted_means_and_totals(points, weights, labels, k).0
}

/// [`weighted_means_by_label`], with each cluster's total weight.
pub fn weighted_means_and_totals(
    points: &Points,
    weights: &[f64],
    labels: &[usize],
    k: usize,
) -> (Vec<Vec<f64>>, Vec<f64>) {
    let dim = points.dim();
    let flat = points.as_flat();
    let partials = fc_geom::par::map_chunks(points.len(), |_, r| {
        let mut sums = vec![0.0f64; k * dim];
        let mut totals = vec![0.0f64; k];
        for ((p, &w), &label) in flat[r.start * dim..r.end * dim]
            .chunks_exact(dim)
            .zip(&weights[r.clone()])
            .zip(&labels[r])
        {
            totals[label] += w;
            for (m, &x) in sums[label * dim..(label + 1) * dim].iter_mut().zip(p) {
                *m += w * x;
            }
        }
        (sums, totals)
    });
    let mut sums = vec![0.0f64; k * dim];
    let mut totals = vec![0.0f64; k];
    for (s, t) in partials {
        for (a, b) in sums.iter_mut().zip(&s) {
            *a += b;
        }
        for (a, b) in totals.iter_mut().zip(&t) {
            *a += b;
        }
    }
    let means = (0..k)
        .map(|j| {
            let mut mean = sums[j * dim..(j + 1) * dim].to_vec();
            if totals[j] > 0.0 {
                for v in &mut mean {
                    *v /= totals[j];
                }
            }
            mean
        })
        .collect();
    (means, totals)
}

/// Weighted k-median cost of selected points relative to a single center.
pub fn median_cost(points: &Points, weights: &[f64], indices: &[usize], center: &[f64]) -> f64 {
    indices
        .iter()
        .map(|&i| weights[i] * fc_geom::distance::dist(points.row(i), center))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_single_point_is_the_point() {
        let p = Points::from_flat(vec![3.0, 4.0], 2).unwrap();
        let m = geometric_median(&p, &[1.0], &[0], WeiszfeldConfig::default());
        assert_eq!(m, vec![3.0, 4.0]);
    }

    #[test]
    fn median_of_symmetric_points_is_center() {
        let p = Points::from_flat(vec![-1.0, 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 1.0], 2).unwrap();
        let m = geometric_median(&p, &[1.0; 4], &[0, 1, 2, 3], WeiszfeldConfig::default());
        assert!(m[0].abs() < 1e-6);
        assert!(m[1].abs() < 1e-6);
    }

    #[test]
    fn median_resists_outliers_better_than_mean() {
        // 9 points at 0, one at 100: median stays near 0, mean is dragged to 10.
        let mut flat: Vec<f64> = vec![0.0; 9];
        flat.push(100.0);
        let p = Points::from_flat(flat, 1).unwrap();
        let idx: Vec<usize> = (0..10).collect();
        let w = vec![1.0; 10];
        let median = geometric_median(&p, &w, &idx, WeiszfeldConfig::default());
        let mean = weighted_mean_of(&p, &w, &idx);
        assert!((mean[0] - 10.0).abs() < 1e-9);
        assert!(
            median[0].abs() < 1.0,
            "median {} should resist the outlier",
            median[0]
        );
    }

    #[test]
    fn median_minimizes_cost_vs_mean_on_skewed_data() {
        let p = Points::from_flat(vec![0.0, 0.0, 0.1, 0.0, 0.0, 0.1, 50.0, 50.0], 2).unwrap();
        let idx: Vec<usize> = (0..4).collect();
        let w = vec![1.0; 4];
        let med = geometric_median(&p, &w, &idx, WeiszfeldConfig::default());
        let mean = weighted_mean_of(&p, &w, &idx);
        let med_cost = median_cost(&p, &w, &idx, &med);
        let mean_cost = median_cost(&p, &w, &idx, &mean);
        assert!(
            med_cost <= mean_cost + 1e-9,
            "median cost {med_cost} vs mean cost {mean_cost}"
        );
    }

    #[test]
    fn weights_shift_the_median() {
        let p = Points::from_flat(vec![0.0, 10.0], 1).unwrap();
        let idx = vec![0, 1];
        // Heavy weight on the right point pulls the median there.
        let m = geometric_median(&p, &[1.0, 100.0], &idx, WeiszfeldConfig::default());
        assert!(m[0] > 9.0, "median {} should sit at the heavy point", m[0]);
    }

    #[test]
    fn heavy_weights_move_no_bit_of_the_median() {
        // Unscaled, the pull of a 1e300-weighted point a hair from the
        // iterate overflows to ∞ and the median turns NaN; weights that
        // differ by a power of two must give the same median.
        let p =
            Points::from_flat(vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1e-12, 0.0, 3.0, 3.0], 2).unwrap();
        let plain = [5.0, 1.0, 1.0, 4.0, 0.5];
        let heavy: Vec<f64> = plain.iter().map(|w| w * 2f64.powi(1000)).collect();
        let all = [0, 1, 2, 3, 4];
        let want = geometric_median(&p, &plain, &all, WeiszfeldConfig::default());
        let got = geometric_median(&p, &heavy, &all, WeiszfeldConfig::default());
        assert!(got.iter().all(|x| x.is_finite()), "{got:?}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn coincident_points_terminate() {
        let p = Points::from_flat(vec![2.0, 2.0, 2.0, 2.0, 2.0, 2.0], 2).unwrap();
        let m = geometric_median(&p, &[1.0; 3], &[0, 1, 2], WeiszfeldConfig::default());
        assert!((m[0] - 2.0).abs() < 1e-12);
        assert!((m[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_selection_returns_origin() {
        let p = Points::from_flat(vec![5.0, 5.0], 2).unwrap();
        let m = geometric_median(&p, &[1.0], &[], WeiszfeldConfig::default());
        assert_eq!(m, vec![0.0, 0.0]);
    }
}
