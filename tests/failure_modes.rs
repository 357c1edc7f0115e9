//! The failure-mode catalogue of §5.3: each accelerated sampler has a data
//! distribution that breaks it, and only the strong-coreset methods survive
//! everything.

use fast_coresets::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr_free::figure3_instance;

/// Generators local to this test (no rand_distr dependency at the root).
mod rand_distr_free {
    use fc_geom::{Dataset, Points};
    use rand::Rng;

    /// Two heavy symmetric clusters plus a small cluster at their center of
    /// mass — lightweight coresets assign it almost no probability.
    pub fn figure3_instance<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Dataset {
        let mut flat = Vec::with_capacity(n * 2);
        let small = (n / 200).max(30);
        let per_big = (n - small) / 2;
        for sign in [-1.0f64, 1.0] {
            for _ in 0..per_big {
                flat.push(sign * 100.0 + rng.gen::<f64>() * 4.0 - 2.0);
                flat.push(rng.gen::<f64>() * 4.0 - 2.0);
            }
        }
        for _ in 0..(n - 2 * per_big) {
            flat.push(rng.gen::<f64>() * 0.5 - 0.25);
            flat.push(rng.gen::<f64>() * 0.5 - 0.25);
        }
        Dataset::unweighted(Points::from_flat(flat, 2).expect("rectangular"))
    }
}

#[test]
fn uniform_breaks_on_the_taxi_proxy() {
    let mut rng = StdRng::seed_from_u64(11);
    let data = fc_data::realworld::taxi_like(&mut rng, 40_000);
    let k = 20;
    let params = CompressionParams::with_scalar(k, 20, CostKind::KMeans).unwrap();
    let uniform_worst = (0..4)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(300 + s);
            let coreset = Uniform.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans).median
        })
        .fold(1.0f64, f64::max);
    let fast_worst = (0..4)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(300 + s);
            let coreset = FastCoreset.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans).median
        })
        .fold(1.0f64, f64::max);
    assert!(
        uniform_worst > 5.0,
        "uniform should fail on taxi-like data, got {uniform_worst}"
    );
    assert!(
        fast_worst < 3.0,
        "fast-coreset should survive taxi, got {fast_worst}"
    );
    assert!(
        uniform_worst > 5.0 * fast_worst,
        "expected a decisive gap: uniform {uniform_worst} vs fast {fast_worst}"
    );
}

#[test]
fn uniform_degrades_on_the_star_proxy() {
    let mut rng = StdRng::seed_from_u64(12);
    let data = fc_data::realworld::star_like(&mut rng, 40_000);
    let k = 10;
    let params = CompressionParams::with_scalar(k, 20, CostKind::KMeans).unwrap();
    let uniform_worst = (0..4)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(400 + s);
            let coreset = Uniform.compress(&mut rng, &data, &params);
            fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans).median
        })
        .fold(1.0f64, f64::max);
    let fast_median = {
        let runs: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(400 + s);
                let coreset = FastCoreset.compress(&mut rng, &data, &params);
                fc_core::judge(&mut rng, &data, &coreset, k, CostKind::KMeans).median
            })
            .collect();
        fc_geom::stats::median(&runs)
    };
    assert!(
        uniform_worst > 1.5 * fast_median,
        "star proxy should separate uniform ({uniform_worst}) from fast-coreset ({fast_median})"
    );
    assert!(fast_median < 2.0, "fast-coreset on star: {fast_median}");
}

#[test]
fn lightweight_misses_the_central_cluster_but_sensitivity_does_not() {
    let mut rng = StdRng::seed_from_u64(13);
    let data = figure3_instance(&mut rng, 30_000);
    let m = 150;
    let params = CompressionParams {
        k: 3,
        m,
        kind: CostKind::KMeans,
    };
    let central = |c: &Coreset| -> usize {
        c.dataset()
            .points()
            .iter()
            .filter(|p| p[0].abs() < 5.0 && p[1].abs() < 5.0)
            .count()
    };
    let mut lw_hits = 0;
    let mut sens_hits = 0;
    let trials = 10;
    for s in 0..trials {
        let mut rng = StdRng::seed_from_u64(500 + s);
        if central(&Lightweight.compress(&mut rng, &data, &params)) > 0 {
            lw_hits += 1;
        }
        if central(&StandardSensitivity.compress(&mut rng, &data, &params)) > 0 {
            sens_hits += 1;
        }
    }
    assert!(
        lw_hits <= trials / 2,
        "lightweight captured the hidden cluster {lw_hits}/{trials} times — too reliable"
    );
    assert!(
        sens_hits >= trials - 1,
        "sensitivity captured the hidden cluster only {sens_hits}/{trials} times"
    );
}

#[test]
fn benign_real_proxies_are_fine_for_everyone() {
    let mut rng = StdRng::seed_from_u64(14);
    let adult = fc_data::realworld::adult_like(&mut rng, 10_000, 14);
    let k = 20;
    let params = CompressionParams::with_scalar(k, 20, CostKind::KMeans).unwrap();
    for method in [Method::Uniform, Method::Lightweight, Method::FastCoreset] {
        let runs: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(600 + s);
                let coreset = method.build().compress(&mut rng, &adult, &params);
                fc_core::judge(&mut rng, &adult, &coreset, k, CostKind::KMeans).median
            })
            .collect();
        let med = fc_geom::stats::median(&runs);
        assert!(med < 2.0, "{method} distortion {med} on adult proxy");
    }
}
