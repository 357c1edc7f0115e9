//! How a summary is judged, the same way on every workload.

use std::collections::BTreeSet;

use fc_clustering::lloyd::LloydConfig;
use fc_clustering::CostKind;
use fc_core::Coreset;
use fc_geom::Dataset;
use rand::rngs::StdRng;

/// Lloyd rounds of the distortion evaluation, as
/// `fc_bench::experiments::eval_lloyd`.
const EVAL_LLOYD_ITERS: usize = 12;
/// The accuracy every sensitivity-based coreset must stay within.
pub const DISTORTION_LIMIT: f64 = 2.0;
/// How far a summary's total weight may stray from what it stands for.
pub const WEIGHT_ERROR_LIMIT: f64 = 0.10;

/// `fc_core::distortion` of `coreset` against `data` under k-means.
pub fn distortion(rng: &mut StdRng, data: &Dataset, coreset: &Coreset, k: usize) -> f64 {
    fc_core::distortion(
        rng,
        data,
        coreset,
        k,
        CostKind::KMeans,
        LloydConfig::fixed(EVAL_LLOYD_ITERS),
    )
    .distortion
}

/// `|Σ coreset weight − weight| ÷ weight`.
pub fn weight_error(coreset: &Coreset, weight: f64) -> f64 {
    (coreset.total_weight() - weight).abs() / weight
}

/// Distinct points of a coreset ÷ its target size `m`.
pub fn fill(coreset: &Coreset, m: usize) -> f64 {
    let distinct: BTreeSet<Vec<u64>> = coreset
        .dataset()
        .points()
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect();
    distinct.len() as f64 / m as f64
}
