//! Sensitivity (importance) scores — Equation (1) of the paper.
//!
//! Given an `α`-approximate solution `C` with clusters `C_p`, the score
//!
//! ```text
//! σ(p) = w_p · dist(p, c_p)^z / cost_z(C_p, c_p)  +  w_p / W(C_p)
//! ```
//!
//! upper-bounds (a constant times) the true sensitivity of `p` \[37\]:
//! the first term captures how far `p` sits within its own cluster, the
//! second guards cluster mass. Summed over a cluster both terms contribute
//! exactly 1, so `Σ_p σ(p) = 2k` — the invariant the tests pin down.
//! Sampling `m = Õ(k ε^{-2z-2})` points proportional to `σ` yields an
//! ε-coreset when `C` is an `O(polylog)`-approximation (Fact 3.1).

/// Per-point sensitivity scores and their sum.
#[derive(Debug, Clone)]
pub struct SensitivityScores {
    /// σ(p) per point (already weight-scaled).
    pub scores: Vec<f64>,
    /// Total score (≈ 2k, modulo empty clusters). Not finite when some
    /// cluster's cost overflowed `f64`: its cost terms are then lost.
    pub total: f64,
}

/// Computes Eq. (1) scores from an assignment.
///
/// * `labels[i]` — cluster of point `i` (must be `< k`),
/// * `cost_z[i]` — `dist(p_i, c_{labels[i]})^z`, *unweighted*,
/// * `weights[i]` — point weight `w_i`.
///
/// Degenerate clusters (zero cost — all members on the center) contribute
/// only the mass term; zero-weight clusters contribute nothing. A cluster
/// cost that overflows makes the total infinite (or NaN).
pub fn sensitivity_scores(
    labels: &[usize],
    cost_z: &[f64],
    weights: &[f64],
    k: usize,
) -> SensitivityScores {
    assert_eq!(labels.len(), cost_z.len());
    assert_eq!(labels.len(), weights.len());
    let n = labels.len();

    // Pass 1: per-cluster aggregates, one partial aggregate pair per
    // chunk, merged in ascending chunk order.
    let partials = fc_geom::par::map_chunks(n, |_, r| {
        let mut cw = vec![0.0; k];
        let mut cc = vec![0.0; k];
        for ((&l, &c), &w) in labels[r.clone()]
            .iter()
            .zip(&cost_z[r.clone()])
            .zip(&weights[r])
        {
            assert!(l < k, "label {l} out of range for k = {k}");
            cw[l] += w;
            cc[l] += w * c;
        }
        (cw, cc)
    });
    let mut cluster_weights = vec![0.0; k];
    let mut cluster_costs = vec![0.0; k];
    for (cw, cc) in partials {
        for (a, b) in cluster_weights.iter_mut().zip(&cw) {
            *a += b;
        }
        for (a, b) in cluster_costs.iter_mut().zip(&cc) {
            *a += b;
        }
    }

    // Pass 2: per-point scores plus a chunk-summed total.
    let scores: Vec<f64> = (labels.iter().zip(cost_z).zip(weights))
        .map(|((&l, &c), &w)| {
            let cost_term = if cluster_costs[l] > 0.0 {
                w * c / cluster_costs[l]
            } else {
                0.0
            };
            let mass_term = if cluster_weights[l] > 0.0 {
                w / cluster_weights[l]
            } else {
                0.0
            };
            cost_term + mass_term
        })
        .collect();
    let total = fc_geom::par::sum_chunks(n, |r| scores[r].iter().fold(0.0, |t, s| t + s));
    // A cost past `f64::MAX` turned its cluster's cost terms into 0 or NaN;
    // the k sums in hand say so, with no pass over the points.
    let total = if cluster_costs.iter().all(|c| c.is_finite()) {
        total
    } else {
        f64::INFINITY
    };
    SensitivityScores { scores, total }
}

/// Lightweight-coreset scores \[6\]: Eq. (1) specialised to the 1-means
/// solution `C = {µ}` — `ŝ(p) = w_p/W + w_p·dist(p, µ)^z / cost_z(P, µ)`.
pub fn lightweight_scores(
    data: &fc_geom::Dataset,
    kind: fc_clustering::CostKind,
) -> SensitivityScores {
    let mean = data
        .weighted_mean()
        .unwrap_or_else(|| vec![0.0; data.dim()]);
    let dim = data.dim();
    let flat = data.points().as_flat();
    let cost_z: Vec<f64> = (flat.chunks_exact(dim))
        .map(|p| kind.from_sq(fc_geom::distance::sq_dist(p, &mean)))
        .collect();
    let labels = vec![0usize; data.len()];
    sensitivity_scores(&labels, &cost_z, data.weights(), 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::CostKind;
    use fc_geom::Dataset;

    #[test]
    fn scores_sum_to_two_k() {
        // Two clusters, points with varying costs and weights.
        let labels = vec![0, 0, 0, 1, 1];
        let cost_z = vec![1.0, 2.0, 3.0, 0.5, 0.5];
        let weights = vec![1.0, 1.0, 2.0, 1.0, 3.0];
        let s = sensitivity_scores(&labels, &cost_z, &weights, 2);
        assert!((s.total - 4.0).abs() < 1e-9, "total {}", s.total);
    }

    #[test]
    fn each_cluster_contributes_exactly_two() {
        let labels = vec![0, 1, 0, 1];
        let cost_z = vec![4.0, 9.0, 1.0, 1.0];
        let weights = vec![1.0, 2.0, 1.0, 0.5];
        let s = sensitivity_scores(&labels, &cost_z, &weights, 2);
        let c0: f64 = s
            .scores
            .iter()
            .zip(&labels)
            .filter(|(_, &l)| l == 0)
            .map(|(v, _)| v)
            .sum();
        let c1: f64 = s.total - c0;
        assert!((c0 - 2.0).abs() < 1e-9);
        assert!((c1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cost_cluster_only_mass_term() {
        // All points exactly on the center: only the 1/|C| term remains.
        let labels = vec![0, 0];
        let cost_z = vec![0.0, 0.0];
        let weights = vec![1.0, 1.0];
        let s = sensitivity_scores(&labels, &cost_z, &weights, 1);
        assert!((s.total - 1.0).abs() < 1e-12);
        assert!((s.scores[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn outliers_get_large_scores() {
        // One far outlier among near points: its score dominates.
        let labels = vec![0; 10];
        let mut cost_z = vec![0.01; 10];
        cost_z[7] = 100.0;
        let weights = vec![1.0; 10];
        let s = sensitivity_scores(&labels, &cost_z, &weights, 1);
        let max_idx = s
            .scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 7);
        assert!(s.scores[7] > 0.9, "outlier score {}", s.scores[7]);
    }

    #[test]
    fn weights_scale_scores() {
        let labels = vec![0, 0];
        let cost_z = vec![1.0, 1.0];
        // Point 0 has twice the weight: twice the score of point 1.
        let s = sensitivity_scores(&labels, &cost_z, &[2.0, 1.0], 1);
        assert!((s.scores[0] / s.scores[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_cluster_is_harmless() {
        // k = 3 but only clusters 0 and 2 are used.
        let labels = vec![0, 2, 0];
        let cost_z = vec![1.0, 1.0, 1.0];
        let weights = vec![1.0, 1.0, 1.0];
        let s = sensitivity_scores(&labels, &cost_z, &weights, 3);
        assert!((s.total - 4.0).abs() < 1e-9);
        assert_eq!(s.scores, [1.0, 2.0, 1.0]);
    }

    #[test]
    fn a_cluster_cost_past_f64_max_leaves_the_total_non_finite() {
        // Every distance is finite, their cluster's sum is not: the cost
        // terms are lost, and the total must say so.
        let s = sensitivity_scores(&[0, 0, 1], &[f64::MAX, f64::MAX, 1.0], &[1.0; 3], 2);
        assert!(!s.total.is_finite(), "total {}", s.total);
        let s = sensitivity_scores(&[0, 0, 1], &[1e300, 1e300, 1.0], &[1.0; 3], 2);
        assert_eq!(s.total, 4.0);
    }

    #[test]
    fn lightweight_scores_match_formula() {
        // Points on a line: mean at 1.0 for kmeans, total cost 2.
        let d = Dataset::from_flat(vec![0.0, 1.0, 2.0], 1).unwrap();
        let s = lightweight_scores(&d, CostKind::KMeans);
        // cost_z = [1, 0, 1]; W = 3, total cost 2.
        // scores: 1/3 + 1/2, 1/3 + 0, 1/3 + 1/2.
        assert!((s.scores[0] - (1.0 / 3.0 + 0.5)).abs() < 1e-9);
        assert!((s.scores[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lightweight_biases_away_from_mean() {
        // The failure mode of Figure 3: points near the mean get low scores.
        let d = Dataset::from_flat(vec![-10.0, -0.01, 0.01, 10.0], 1).unwrap();
        let s = lightweight_scores(&d, CostKind::KMeans);
        // Far points ≈ 1/W + 1/2; central points ≈ 1/W: ratio ≈ 3 at W = 4.
        assert!(s.scores[0] > 2.5 * s.scores[1]);
        assert!(s.scores[3] > 2.5 * s.scores[2]);
    }
}
