//! Strong-coreset verification with the judge's battery: besides its
//! solves on the coreset, the judge prices a full-data seeding and random
//! centres, so a method can't pass by being lucky on the solutions the
//! coreset itself produces.

use fast_coresets::prelude::*;
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
        let verdict = fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans);
        assert!(verdict.battery_max < 1.6, "gamma={gamma}: {verdict:?}");
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
        let u = fc_core::judge(&mut rng, &data, &uniform, k, CostKind::KMeans);
        uniform_worst = uniform_worst.max(u.battery_max);

        let sens = StandardSensitivity.compress(&mut rng, &data, &params);
        let s = fc_core::judge(&mut rng, &data, &sens, k, CostKind::KMeans);
        sensitivity_worst = sensitivity_worst.max(s.battery_max);
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
    let verdict = fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans);
    // The battery's worst case dominates the solves' median, but for a
    // strong coreset both sit near 1.
    assert!(verdict.battery_max + 1e-9 >= verdict.median * 0.9);
    assert!(
        verdict.median < 1.5 && verdict.battery_max < 1.6,
        "{verdict:?}"
    );
}

#[test]
fn kmedian_battery_holds_too() {
    let data = mixture(66, 2.0);
    let k = 10;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMedian).unwrap();
    let mut rng = StdRng::seed_from_u64(67);
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
    let verdict = fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMedian);
    assert!(verdict.battery_max < 1.6, "k-median: {verdict:?}");
}
