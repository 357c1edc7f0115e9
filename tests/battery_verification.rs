//! Strong-coreset verification with the solution battery: prices many
//! independent candidate solutions on data and compression, so a method
//! can't pass by being lucky on the one solution the distortion metric
//! inspects.

use fast_coresets::prelude::*;
use fc_core::battery_distortion;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixture(seed: u64, gamma: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 10_000,
            d: 12,
            kappa: 10,
            gamma,
            ..Default::default()
        },
    )
}

#[test]
fn fast_coreset_passes_the_battery_on_balanced_and_imbalanced_data() {
    for (seed, gamma) in [(61u64, 0.0), (62, 3.0)] {
        let data = mixture(seed, gamma);
        let k = 10;
        let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
        let mut rng = StdRng::seed_from_u64(seed + 100);
        let coreset = FastCoreset.compress(&mut rng, &data, &params);
        let report = battery_distortion(&mut rng, &data, &coreset, k, CostKind::KMeans, 3);
        assert!(
            report.max_ratio < 1.6,
            "gamma={gamma}: battery max {} mean {}",
            report.max_ratio,
            report.mean_ratio
        );
    }
}

#[test]
fn sensitivity_passes_where_uniform_fails_under_the_battery() {
    let mut gen_rng = StdRng::seed_from_u64(63);
    let data = fc_data::c_outlier(&mut gen_rng, 8_000, 12, 10, 1e5);
    let k = 6;
    let params = CompressionParams::with_scalar(k, 20, CostKind::KMeans).unwrap();

    // Uniform sampling fails *probabilistically* (it fails iff the sample
    // misses every outlier), so take the worst over several attempts while
    // requiring sensitivity sampling to pass every one of them.
    let mut uniform_worst = 1.0f64;
    let mut sensitivity_worst = 1.0f64;
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(630 + seed);
        let uniform = Uniform.compress(&mut rng, &data, &params);
        let u = battery_distortion(&mut rng, &data, &uniform, k, CostKind::KMeans, 2);
        uniform_worst = uniform_worst.max(u.max_ratio);

        let sens = StandardSensitivity.compress(&mut rng, &data, &params);
        let s = battery_distortion(&mut rng, &data, &sens, k, CostKind::KMeans, 2);
        sensitivity_worst = sensitivity_worst.max(s.max_ratio);
    }
    assert!(
        uniform_worst > 10.0,
        "uniform battery worst {uniform_worst}"
    );
    assert!(
        sensitivity_worst < 2.0,
        "sensitivity battery worst {sensitivity_worst}"
    );
}

#[test]
fn battery_and_single_metric_agree_on_verdicts() {
    let data = mixture(64, 1.0);
    let k = 10;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(65);
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
    let single = fc_core::distortion(
        &mut rng,
        &data,
        &coreset,
        k,
        CostKind::KMeans,
        fc_clustering::lloyd::LloydConfig::fixed(12),
    );
    let battery = battery_distortion(&mut rng, &data, &coreset, k, CostKind::KMeans, 3);
    // The battery's worst case dominates the single check, but for a strong
    // coreset both sit near 1.
    assert!(battery.max_ratio + 1e-9 >= single.distortion * 0.9);
    assert!(single.distortion < 1.5 && battery.max_ratio < 1.6);
}

#[test]
fn kmedian_battery_holds_too() {
    let data = mixture(66, 2.0);
    let k = 10;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMedian).unwrap();
    let mut rng = StdRng::seed_from_u64(67);
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
    let report = battery_distortion(&mut rng, &data, &coreset, k, CostKind::KMedian, 2);
    assert!(
        report.max_ratio < 1.6,
        "k-median battery max {}",
        report.max_ratio
    );
}
