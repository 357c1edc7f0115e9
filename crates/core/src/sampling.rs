//! Importance sampling with inverse-probability weights.
//!
//! Draw `m` points i.i.d. proportional to the sensitivity scores and weight
//! each by `S / (m·σ(p)) · w_p` so the cost estimator is unbiased for every
//! candidate solution. Duplicate draws are merged by summing weights.
//!
//! Algorithm 1's lines 7–8 go on to rebalance each cluster's sampled mass
//! to `(1+ε)·W(C_i)` (the construction of \[25, 27\] the analysis uses).
//! Like the authors' released code, this crate keeps the plain
//! inverse-probability weights.

use fc_geom::sampling::AliasTable;
use fc_geom::{Dataset, Points};
use rand::{Rng, RngCore};
use std::collections::HashMap;

use crate::coreset::Coreset;
use crate::sensitivity::SensitivityScores;

/// The sensitivity-family compression: scores from `scores`, then `m`
/// draws from [`importance_sample`], at the scale of the largest weight
/// ([`at_weight_scale`]). Where the scores overflow — a squared distance or
/// a cluster's cost past `f64::MAX`, which finite coordinates of about
/// 1e154 reach — the total says so, and `scores` runs once more on the
/// points times the power of two that puts the largest coordinate in
/// `[1, 2)` ([`at_coordinate_scale`]). That scaling is exact and scores
/// are ratios of costs, so the retry prices what the first try could not;
/// the draws still gather the input's own rows. An input whose scores are
/// finite pays nothing and takes the first path bit for bit.
pub(crate) fn sensitivity_sample(
    rng: &mut dyn RngCore,
    data: &Dataset,
    m: usize,
    mut scores: impl FnMut(&mut dyn RngCore, &Dataset) -> SensitivityScores,
) -> Coreset {
    at_weight_scale(data, |data| {
        let mut s = scores(rng, data);
        if !s.total.is_finite() {
            s = scores(rng, &at_coordinate_scale(data).0);
        }
        importance_sample(rng, data, &s, m)
    })
}

/// The unbiased binary exponent of a positive finite `x`, floored at the
/// smallest normal exponent; `0` for anything else.
fn binary_exponent(x: f64) -> i32 {
    if x > 0.0 && x.is_finite() {
        (((x.to_bits() >> 52) & 0x7ff) as i32 - 1023).max(-1022)
    } else {
        0
    }
}

/// `data` with every coordinate times `2^-e`, the power of two that puts
/// the largest magnitude in `[1, 2)`, and the factor `2^e` that scales
/// back; weights untouched.
pub(crate) fn at_coordinate_scale(data: &Dataset) -> (Dataset, f64) {
    let flat = data.points().as_flat();
    let largest = flat.iter().fold(0.0, |a: f64, x| a.max(x.abs()));
    let e = binary_exponent(largest);
    let down = f64::powi(2.0, -e);
    let points = Points::from_flat(flat.iter().map(|x| x * down).collect(), data.dim())
        .expect("scaling by a power of two keeps coordinates finite");
    let scaled =
        Dataset::weighted(points, data.weights().to_vec()).expect("weights are the input's");
    (scaled, f64::powi(2.0, e))
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
fn at_weight_scale(data: &Dataset, compress: impl FnOnce(&Dataset) -> Coreset) -> Coreset {
    let largest = data.weights().iter().fold(0.0, |a: f64, &w| a.max(w));
    // Subnormal weights scale up as far as a normal factor allows.
    let e = binary_exponent(largest);
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
}
