//! Weights near the top of the `f64` range. Every sensitivity-family method
//! multiplies weights by squared distances and sums them over clusters, so
//! at a weight of 1e300 those sums overflow to infinity and `inf / inf`
//! turns a score into NaN. The methods work at the scale of their largest
//! weight instead: weights are scaled by a power of two into `[1, 2)` on
//! the way in and scaled back on the way out, which is exact, so a heavy
//! input gives the coreset its unit-weight twin gives, times the weight.

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` points in d = 4: coordinate 0 picks one of five clusters 1e5 apart,
/// the rest are uniform in the unit box; every point weighs `weight`.
fn stacked(seed: u64, n: usize, weight: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * 4);
    for i in 0..n {
        flat.push((i % 5) as f64 * 1e5);
        flat.extend((0..3).map(|_| rng.gen::<f64>()));
    }
    let points = Points::from_flat(flat, 4).unwrap();
    Dataset::weighted(points, vec![weight; n]).unwrap()
}

fn methods() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(FastCoreset::default()),
        Box::new(StandardSensitivity::default()),
        Box::new(Welterweight::new(JCount::LogK)),
        Box::new(Lightweight),
    ]
}

#[test]
fn sensitivity_family_survives_weights_of_1e300() {
    let data = stacked(3, 4_000, 1e300);
    let params = CompressionParams::with_scalar(5, 40, CostKind::KMeans).unwrap();
    for method in methods() {
        let mut rng = StdRng::seed_from_u64(4);
        let coreset = method.compress(&mut rng, &data, &params);
        let weights = coreset.dataset().weights();
        assert!(
            coreset.len() > params.k,
            "{}: {} points",
            method.name(),
            coreset.len()
        );
        assert!(weights.iter().all(|w| w.is_finite() && *w > 0.0));
        let rel = (coreset.total_weight() - data.total_weight()).abs() / data.total_weight();
        assert!(rel < 0.25, "{}: total weight off by {rel}", method.name());
    }
}

#[test]
fn a_power_of_two_weight_scales_the_unit_weight_coreset_exactly() {
    let heavy = f64::powi(2.0, 996);
    let unit = stacked(5, 3_000, 1.0);
    let scaled = stacked(5, 3_000, heavy);
    let params = CompressionParams::with_scalar(5, 40, CostKind::KMeans).unwrap();
    for method in methods() {
        let expected = method.compress(&mut StdRng::seed_from_u64(6), &unit, &params);
        let got = method.compress(&mut StdRng::seed_from_u64(6), &scaled, &params);
        assert_eq!(
            got.dataset().points(),
            expected.dataset().points(),
            "{}",
            method.name()
        );
        let times: Vec<f64> = expected
            .dataset()
            .weights()
            .iter()
            .map(|w| w * heavy)
            .collect();
        assert_eq!(got.dataset().weights(), &times[..], "{}", method.name());
    }
}

/// The served repro: an engine at its default configuration (merge-&-reduce
/// over Fast-Coreset on every shard) takes 40 blocks of 1 000 points at
/// weight 1e300 each, 4e304 in all. Every fold must keep its shard alive,
/// so the dataset still answers ingests and queries afterwards.
#[test]
fn engine_keeps_a_heavy_dataset_available() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    for block in 0..40 {
        engine
            .ingest("heavy", &stacked(100 + block, 1_000, 1e300), None)
            .unwrap();
    }
    let (coreset, _, _) = engine.coreset("heavy", Some(7), None).unwrap();
    let total = 40.0 * 1_000.0 * 1e300;
    let rel = (coreset.total_weight() - total).abs() / total;
    assert!(coreset.len() > 1, "{} points served", coreset.len());
    assert!(rel < 0.25, "served weight off by {rel}");
    let (points, _) = engine
        .ingest("heavy", &stacked(200, 1_000, 1e300), None)
        .unwrap();
    assert_eq!(points, 41_000);
    assert!(engine.coreset("heavy", Some(8), None).is_ok());
}
