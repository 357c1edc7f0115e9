//! End-to-end pipeline tests: every compressor against every artificial
//! dataset, with the distortion bounds the paper's Table 4 leads us to
//! expect (statistical, fixed seeds).

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fast_coreset_is_accurate_on_every_artificial_dataset() {
    let mut rng = StdRng::seed_from_u64(1);
    let k = 20;
    let datasets: Vec<(&str, Dataset)> = vec![
        (
            "c-outlier",
            fc_data::c_outlier(&mut rng, 10_000, 20, 8, 1e5),
        ),
        ("geometric", fc_data::geometric(&mut rng, 50, k, 2.0, 20)),
        (
            "gaussian",
            fc_data::gaussian_mixture(
                &mut rng,
                fc_data::GaussianMixtureConfig {
                    n: 10_000,
                    d: 20,
                    kappa: 10,
                    gamma: 2.0,
                    ..Default::default()
                },
            ),
        ),
        ("benchmark", fc_data::benchmark(&mut rng, k, 100, 50.0)),
    ];
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    for (name, data) in &datasets {
        let runs: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(100 + s);
                let coreset = FastCoreset.compress(&mut rng, data, &params);
                fc_core::judge(&mut rng, data, &coreset, k, CostKind::KMeans).median
            })
            .collect();
        let d = fc_geom::stats::median(&runs);
        assert!(d < 2.0, "fast-coreset distortion {d} on {name}");
    }
}

#[test]
fn uniform_fails_catastrophically_on_c_outlier() {
    let mut rng = StdRng::seed_from_u64(2);
    let data = fc_data::c_outlier(&mut rng, 10_000, 20, 8, 1e5);
    let params = CompressionParams::with_scalar(10, 40, CostKind::KMeans).unwrap();
    let worst = (0..4)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(200 + s);
            let coreset = Uniform.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, 10, CostKind::KMeans).median
        })
        .fold(1.0f64, f64::max);
    assert!(
        worst > 10.0,
        "uniform distortion {worst} should be catastrophic on c-outlier"
    );
}

#[test]
fn sensitivity_and_welterweight_survive_c_outlier() {
    let mut rng = StdRng::seed_from_u64(3);
    let data = fc_data::c_outlier(&mut rng, 10_000, 20, 8, 1e5);
    let params = CompressionParams::with_scalar(10, 40, CostKind::KMeans).unwrap();
    let welterweight = Welterweight::new(JCount::LogK);
    for (name, method, bound) in [
        ("sensitivity", &StandardSensitivity as &dyn Compressor, 2.0),
        ("welterweight", &welterweight, 3.0),
    ] {
        let runs: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(100 + s);
                let coreset = method.compress(&mut rng, &data, &params);
                fc_core::judge(&mut rng, &data, &coreset, 10, CostKind::KMeans).median
            })
            .collect();
        let d = fc_geom::stats::median(&runs);
        assert!(d < bound, "{name} distortion {d}");
    }
}

#[test]
fn every_method_is_fine_on_the_benchmark_instance() {
    // §5.3: "every sampling method performs well on the benchmark dataset".
    let mut rng = StdRng::seed_from_u64(4);
    let k = 16;
    let data = fc_data::benchmark(&mut rng, k, 150, 50.0);
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    for method in [
        Method::Uniform,
        Method::Lightweight,
        Method::Welterweight(JCount::LogK),
        Method::FastCoreset,
    ] {
        let runs: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(100 + s);
                let coreset = method.build().compress(&mut rng, &data, &params);
                fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans).median
            })
            .collect();
        let d = fc_geom::stats::median(&runs);
        assert!(d < 2.0, "{method} distortion {d} on benchmark");
    }
}

#[test]
fn coreset_sizes_and_weights_are_consistent_across_methods() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 8_000,
            d: 10,
            kappa: 8,
            ..Default::default()
        },
    );
    let params = CompressionParams::with_scalar(8, 40, CostKind::KMeans).unwrap();
    for method in [
        Method::Uniform,
        Method::Lightweight,
        Method::Welterweight(JCount::LogK),
        Method::Sensitivity,
        Method::FastCoreset,
    ] {
        let c = method.build().compress(&mut rng, &data, &params);
        assert!(
            c.len() <= params.m,
            "{method}: size {} > m {}",
            c.len(),
            params.m
        );
        assert!(
            c.len() > params.m / 2,
            "{method}: size {} suspiciously small",
            c.len()
        );
        let rel = (c.total_weight() - data.total_weight()).abs() / data.total_weight();
        assert!(rel < 0.3, "{method}: weight drift {rel}");
        assert!(
            c.dataset().weights().iter().all(|&w| w >= 0.0),
            "{method}: negative weight"
        );
    }
}

#[test]
fn larger_m_improves_worst_case_distortion() {
    let mut rng = StdRng::seed_from_u64(6);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 12_000,
            d: 20,
            kappa: 12,
            gamma: 3.0,
            ..Default::default()
        },
    );
    let k = 24;
    let worst_at = |m_scalar: usize| -> f64 {
        (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(600 + s);
                let params = CompressionParams::with_scalar(k, m_scalar, CostKind::KMeans).unwrap();
                let c = FastCoreset.compress(&mut rng, &data, &params);
                fc_core::judge(&mut rng, &data, &c, k, CostKind::KMeans).median
            })
            .fold(1.0f64, f64::max)
    };
    let small = worst_at(10);
    let large = worst_at(80);
    assert!(
        large <= small * 1.2 + 0.05,
        "m=80k worst distortion {large} should not exceed m=10k's {small}"
    );
}
