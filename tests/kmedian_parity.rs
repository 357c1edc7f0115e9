//! k-median (`z = 1`) parity (paper Figure 4): the same methods succeed and
//! fail on the same datasets as under k-means.

use fast_coresets::prelude::*;
use fc_clustering::lloyd::LloydConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fast_coreset_kmedian_is_accurate() {
    let mut rng = StdRng::seed_from_u64(31);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 10_000,
            d: 15,
            kappa: 10,
            gamma: 2.0,
            ..Default::default()
        },
    );
    let params = CompressionParams::with_scalar(10, 40, CostKind::KMedian).unwrap();
    let runs: Vec<f64> = (0..3)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(800 + s);
            let coreset = FastCoreset.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, 10, CostKind::KMedian).median
        })
        .collect();
    let med = fc_geom::stats::median(&runs);
    assert!(med < 2.0, "k-median fast-coreset distortion {med}");
}

#[test]
fn uniform_still_fails_on_outliers_under_kmedian() {
    let mut rng = StdRng::seed_from_u64(32);
    let data = fc_data::c_outlier(&mut rng, 10_000, 15, 8, 1e5);
    let params = CompressionParams::with_scalar(8, 40, CostKind::KMedian).unwrap();
    let uniform_worst = (0..4)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(900 + s);
            let coreset = Uniform.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, 8, CostKind::KMedian).median
        })
        .fold(1.0f64, f64::max);
    let fast: Vec<f64> = (0..3)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(900 + s);
            let coreset = FastCoreset.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, 8, CostKind::KMedian).median
        })
        .collect();
    let fast_med = fc_geom::stats::median(&fast);
    // k-median dampens outlier cost (z = 1), so the uniform failure is less
    // extreme than k-means' — but the ordering must hold decisively.
    assert!(
        uniform_worst > 2.0 * fast_med,
        "k-median: uniform {uniform_worst} vs fast {fast_med}"
    );
    assert!(fast_med < 2.0, "fast-coreset k-median {fast_med}");
}

#[test]
fn kmedian_seeding_uses_linear_distance_scores() {
    // Distinct code path check: a far outlier is sampled with probability
    // ∝ distance (not squared), still far above uniform.
    let mut rng = StdRng::seed_from_u64(33);
    let data = fc_data::c_outlier(&mut rng, 5_000, 10, 4, 1e4);
    let params = CompressionParams::with_scalar(4, 20, CostKind::KMedian).unwrap();
    let mut captured = 0;
    for s in 0..6 {
        let mut rng = StdRng::seed_from_u64(1_000 + s);
        let c = Lightweight.compress(&mut rng, &data, &params);
        if c.dataset()
            .points()
            .iter()
            .any(|p| p.iter().any(|&x| x.abs() > 1e3))
        {
            captured += 1;
        }
    }
    assert!(
        captured >= 5,
        "lightweight k-median captured outliers only {captured}/6 times"
    );
}

#[test]
fn weiszfeld_refinement_beats_mean_refinement_under_kmedian() {
    // On outlier-heavy data the k-median objective evaluated at geometric
    // medians must beat the same objective at means.
    let mut rng = StdRng::seed_from_u64(34);
    let data = fc_data::c_outlier(&mut rng, 4_000, 10, 12, 1e4);
    let seeding = fc_clustering::kmeanspp::kmeanspp(&mut rng, &data, 2, CostKind::KMedian);
    let med = fc_clustering::lloyd::refine(
        &data,
        seeding.centers.clone(),
        CostKind::KMedian,
        LloydConfig::default(),
    );
    let mean = fc_clustering::lloyd::refine(
        &data,
        seeding.centers,
        CostKind::KMeans,
        LloydConfig::default(),
    );
    let mean_under_kmedian = mean.cost_on(&data, CostKind::KMedian);
    assert!(
        med.cost <= mean_under_kmedian * 1.001,
        "weiszfeld {} vs mean-refined {} under k-median",
        med.cost,
        mean_under_kmedian
    );
}
