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
//!
//! Nothing here rescales: scores are ratios of `w·dist^z` sums, which
//! overflow or underflow only outside the range that `Method::build`'s
//! compressors keep their input in ([`crate::plan::Method::build`]).

use fc_geom::sampling::AliasTable;
use fc_geom::Dataset;
use rand::Rng;
use std::collections::HashMap;

use crate::coreset::Coreset;
use crate::sensitivity::SensitivityScores;

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
    use fc_geom::Points;
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
}
