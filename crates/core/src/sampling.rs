//! Importance sampling with inverse-probability weights.
//!
//! Draw `m` points i.i.d. proportional to the sensitivity scores and weight
//! each by `S / (m·σ(p)) · w_p` so the cost estimator is unbiased for every
//! candidate solution. Duplicate draws are merged by summing weights.
//!
//! ### The rebalancing of Algorithm 1, lines 7–8
//!
//! The paper's pseudocode additionally tracks `|Ĉ_i|` — the sampled estimate
//! of each cluster's weight — and corrects the compression so cluster `i`
//! carries total mass `(1+ε)|C_i|` (the construction of \[25, 27\] that the
//! analysis uses). We implement both readings behind [`WeightMode`]:
//! `Unbiased` keeps plain inverse-probability weights (what the authors'
//! released code computes); `Rebalanced { epsilon }` additionally appends the
//! cluster centers with corrective weight `(1+ε)·W(C_i) − Ŵ(C_i)` (clamped
//! at zero). An ablation bench (`crates/bench/benches/ablations.rs`)
//! compares the two.

use fc_geom::sampling::AliasTable;
use fc_geom::{Dataset, Points};
use rand::Rng;
use std::collections::HashMap;

use crate::coreset::Coreset;
use crate::sensitivity::SensitivityScores;

/// How sampled weights are finalized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightMode {
    /// Plain inverse-probability weights: unbiased cost estimator.
    Unbiased,
    /// Inverse-probability weights plus per-cluster corrective center
    /// points so every cluster's coreset mass equals `(1+ε)·W(C_i)`.
    Rebalanced {
        /// The ε slack keeping corrective weights non-negative w.h.p.
        epsilon: f64,
    },
}

/// Runs a sensitivity-family compression at the scale of the data's largest
/// weight. Those methods multiply weights by `dist^z` and sum them per
/// cluster; near `f64::MAX` the sums overflow, and `inf / inf` turns a
/// score into NaN. So `compress` sees every weight times `2^-e`, the power
/// of two that puts the largest weight in `[1, 2)`, and the coreset's
/// weights come back times `2^e` (clamped at `f64::MAX`). Scaling by a
/// power of two is exact, so wherever the unscaled arithmetic neither
/// overflows nor leaves the normal range the coreset is the one it would
/// have given. With `e = 0` — unit weights among them — `data` is passed
/// through untouched.
pub(crate) fn at_weight_scale(
    data: &Dataset,
    compress: impl FnOnce(&Dataset) -> Coreset,
) -> Coreset {
    let largest = data.weights().iter().fold(0.0, |a: f64, &w| a.max(w));
    // The unbiased binary exponent of a positive finite weight; subnormal
    // weights scale up as far as a normal factor allows.
    let e = if largest > 0.0 && largest.is_finite() {
        (((largest.to_bits() >> 52) & 0x7ff) as i32 - 1023).max(-1022)
    } else {
        0
    };
    if e == 0 {
        return compress(data);
    }
    let down = f64::powi(2.0, -e);
    let weights = data.weights().iter().map(|w| w * down).collect();
    let scaled = Dataset::weighted(data.points().clone(), weights)
        .expect("scaling by a power of two keeps weights finite and non-negative");
    let (points, weights) = compress(&scaled).into_dataset().into_parts();
    let up = f64::powi(2.0, e);
    let weights = weights.iter().map(|w| (w * up).min(f64::MAX)).collect();
    Coreset::new(Dataset::weighted(points, weights).expect("weights clamped finite"))
}

/// Draws an importance sample of `m` points, returning the deduplicated
/// `(index, accumulated weight)` pairs sorted by index. `None` signals a
/// degenerate score vector (no sampleable mass).
pub fn importance_sample_indices<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    scores: &SensitivityScores,
    m: usize,
) -> Option<Vec<(usize, f64)>> {
    assert!(m > 0, "sample size must be positive");
    assert_eq!(scores.scores.len(), data.len());
    let table = AliasTable::new(&scores.scores)?;
    let total = scores.total;
    // Merge duplicates: index -> accumulated weight.
    let mut acc: HashMap<usize, f64> = HashMap::with_capacity(m);
    for _ in 0..m {
        let i = table.sample(rng);
        let w = total / (m as f64 * scores.scores[i]) * data.weight(i);
        *acc.entry(i).or_insert(0.0) += w;
    }
    let mut pairs: Vec<(usize, f64)> = acc.into_iter().collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    Some(pairs)
}

/// Draws an importance sample of `m` points from `data` according to
/// `scores`, producing a coreset with unbiased weights.
///
/// When `m >= data.len()` the input is returned as its own (exact) coreset.
pub fn importance_sample<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    scores: &SensitivityScores,
    m: usize,
) -> Coreset {
    if m >= data.len() {
        return Coreset::new(data.clone());
    }
    let Some(pairs) = importance_sample_indices(rng, data, scores, m) else {
        // No sampleable mass (all scores zero): degenerate single point.
        let d = data
            .gather(&[0], vec![data.total_weight()])
            .expect("index 0 exists");
        return Coreset::new(d);
    };
    let indices: Vec<usize> = pairs.iter().map(|&(i, _)| i).collect();
    let weights: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
    Coreset::new(
        data.gather(&indices, weights)
            .expect("indices are in range"),
    )
}

/// Importance sampling followed by the per-cluster rebalancing step:
/// appends every cluster center `c_i` with corrective weight
/// `(1+ε)·W(C_i) − Ŵ(C_i)` (clamped at 0), where `Ŵ(C_i)` is the sampled
/// estimate of the cluster's weight.
///
/// `labels` assigns input points to clusters; `centers` holds the `k`
/// cluster centers (`c_i` of Algorithm 1 step 4).
pub fn importance_sample_rebalanced<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    scores: &SensitivityScores,
    labels: &[usize],
    centers: &Points,
    m: usize,
    epsilon: f64,
) -> Coreset {
    assert!(epsilon >= 0.0, "epsilon must be non-negative");
    assert_eq!(labels.len(), data.len());
    if m >= data.len() {
        return Coreset::new(data.clone()); // exact coreset: no correction needed
    }
    let k = centers.len();
    let Some(pairs) = importance_sample_indices(rng, data, scores, m) else {
        let d = data
            .gather(&[0], vec![data.total_weight()])
            .expect("index 0 exists");
        return Coreset::new(d);
    };
    // Ŵ(C_i): estimated cluster weights from the sample, via the points'
    // own cluster labels.
    let mut estimated = vec![0.0; k];
    for &(i, w) in &pairs {
        estimated[labels[i]] += w;
    }
    let indices: Vec<usize> = pairs.iter().map(|&(i, _)| i).collect();
    let weights: Vec<f64> = pairs.iter().map(|&(_, w)| w).collect();
    let base = data
        .gather(&indices, weights)
        .expect("indices are in range");
    let mut out_points = base.points().clone();
    let mut out_weights = base.weights().to_vec();
    let mut cluster_true = vec![0.0; k];
    for (i, &l) in labels.iter().enumerate() {
        cluster_true[l] += data.weight(i);
    }
    for c in 0..k {
        let corrective = (1.0 + epsilon) * cluster_true[c] - estimated[c];
        if corrective > 0.0 {
            out_points
                .push(centers.row(c))
                .expect("center has data dimension");
            out_weights.push(corrective);
        }
    }
    Coreset::new(
        Dataset::weighted(out_points, out_weights).expect("weights constructed non-negative"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::sensitivity_scores;
    use fc_clustering::CostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    fn line_data(n: usize) -> Dataset {
        let flat: Vec<f64> = (0..n).map(|i| i as f64).collect();
        Dataset::from_flat(flat, 1).unwrap()
    }

    fn uniform_scores(d: &Dataset) -> SensitivityScores {
        let labels = vec![0usize; d.len()];
        let cost_z = vec![1.0; d.len()];
        sensitivity_scores(&labels, &cost_z, d.weights(), 1)
    }

    #[test]
    fn total_weight_is_unbiased() {
        // E[total coreset weight] = total data weight; check concentration.
        let d = line_data(500);
        let scores = uniform_scores(&d);
        let mut r = rng();
        let mut totals = Vec::new();
        for _ in 0..30 {
            let c = importance_sample(&mut r, &d, &scores, 100);
            totals.push(c.total_weight());
        }
        let mean: f64 = totals.iter().sum::<f64>() / totals.len() as f64;
        let rel = (mean - 500.0).abs() / 500.0;
        assert!(rel < 0.1, "mean total weight {mean} far from 500");
    }

    #[test]
    fn cost_estimator_is_unbiased() {
        let d = line_data(400);
        let scores = uniform_scores(&d);
        let centers = Points::from_flat(vec![0.0], 1).unwrap();
        let true_cost = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let mut r = rng();
        let mut estimates = Vec::new();
        for _ in 0..40 {
            let c = importance_sample(&mut r, &d, &scores, 120);
            estimates.push(c.cost(&centers, CostKind::KMeans));
        }
        let mean: f64 = estimates.iter().sum::<f64>() / estimates.len() as f64;
        let rel = (mean - true_cost).abs() / true_cost;
        assert!(rel < 0.15, "mean estimate {mean} vs true {true_cost}");
    }

    #[test]
    fn m_at_least_n_returns_exact_data() {
        let d = line_data(10);
        let scores = uniform_scores(&d);
        let mut r = rng();
        let c = importance_sample(&mut r, &d, &scores, 10);
        assert_eq!(c.len(), 10);
        assert_eq!(c.dataset(), &d);
    }

    #[test]
    fn duplicates_are_merged() {
        // Tiny data with large m < n is impossible; instead skew scores so
        // one point absorbs almost all draws.
        let d = line_data(50);
        let labels = vec![0usize; 50];
        let mut cost_z = vec![1e-9; 50];
        cost_z[3] = 1e9;
        let scores = sensitivity_scores(&labels, &cost_z, d.weights(), 1);
        let mut r = rng();
        let c = importance_sample(&mut r, &d, &scores, 20);
        // Distinct stored points ≤ 20 (merging collapses repeats of point 3).
        assert!(c.len() <= 20);
        assert!(!c.is_empty());
    }

    #[test]
    fn zero_scores_degenerate_gracefully() {
        let d = line_data(5);
        let scores = SensitivityScores {
            scores: vec![0.0; 5],
            total: 0.0,
            cluster_weights: vec![5.0],
            cluster_costs: vec![0.0],
        };
        let mut r = rng();
        let c = importance_sample(&mut r, &d, &scores, 3);
        assert_eq!(c.len(), 1);
        assert!((c.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weight_scale_is_the_largest_weights_power_of_two() {
        let points = Points::from_flat(vec![0.0, 1.0, 2.0], 1).unwrap();
        for (largest, e) in [(1.0, 0), (1.99, 0), (2.0, 1), (1e300, 996), (0.75, -1)] {
            let data =
                Dataset::weighted(points.clone(), vec![largest, 0.5 * largest, 0.0]).unwrap();
            let coreset = at_weight_scale(&data, |scaled| {
                let top = scaled.weights()[0];
                assert!((1.0..2.0).contains(&top), "{largest}: scaled to {top}");
                assert_eq!(top, largest * f64::powi(2.0, -e));
                assert_eq!(scaled.weights()[1], 0.5 * top);
                Coreset::new(scaled.clone())
            });
            // Scaled back exactly.
            assert_eq!(coreset.dataset(), &data, "{largest}");
        }
    }

    #[test]
    fn rebalanced_cluster_masses_match_target() {
        // Two clusters of known weight. Rebalancing makes each cluster's
        // coreset mass max(Ŵ(C_i), (1+ε)·W(C_i)): the lower bound
        // (1+ε)·W(C_i) holds on every draw, and since the estimate Ŵ is
        // unbiased the mean mass over repetitions stays near the target.
        let mut flat = Vec::new();
        for i in 0..100 {
            flat.push(i as f64 * 0.001);
        }
        for i in 0..50 {
            flat.push(1000.0 + i as f64 * 0.001);
        }
        let d = Dataset::from_flat(flat, 1).unwrap();
        let labels: Vec<usize> = (0..150).map(|i| usize::from(i >= 100)).collect();
        let centers = Points::from_flat(vec![0.05, 1000.025], 1).unwrap();
        let cost_z: Vec<f64> = d
            .points()
            .iter()
            .zip(&labels)
            .map(|(p, &l)| fc_geom::distance::sq_dist(p, centers.row(l)))
            .collect();
        let scores = sensitivity_scores(&labels, &cost_z, d.weights(), 2);
        let eps = 0.1;
        let targets = [(1.0 + eps) * 100.0, (1.0 + eps) * 50.0];
        let mut r = rng();
        let runs = 40;
        let mut mean_mass = [0.0f64; 2];
        for _ in 0..runs {
            let c = importance_sample_rebalanced(&mut r, &d, &scores, &labels, &centers, 30, eps);
            // Assign coreset points to the two centers and measure masses.
            let a = fc_clustering::assign::assign(c.dataset().points(), &centers, CostKind::KMeans);
            let mut mass = [0.0f64; 2];
            for (i, &l) in a.labels.iter().enumerate() {
                mass[l] += c.dataset().weight(i);
            }
            for cl in 0..2 {
                assert!(
                    mass[cl] >= targets[cl] - 1e-9,
                    "cluster {cl} mass {} below rebalancing floor {}",
                    mass[cl],
                    targets[cl]
                );
                mean_mass[cl] += mass[cl] / runs as f64;
            }
        }
        // The clamp only inflates mass when Ŵ undershoots, so the mean sits
        // a little above the target; far-off means signal a weighting bug.
        for cl in 0..2 {
            let rel = (mean_mass[cl] - targets[cl]) / targets[cl];
            assert!(
                (-0.01..0.5).contains(&rel),
                "cluster {cl} mean mass {} vs target {}",
                mean_mass[cl],
                targets[cl]
            );
        }
    }
}
