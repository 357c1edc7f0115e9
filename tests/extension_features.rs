//! Cross-crate coverage for the extension features: the dataset registry,
//! the HST-seeded compressor, and the high-level plan API, working together.

use fast_coresets::prelude::*;
use fc_core::methods::HstCoreset;
use fc_data::registry::{available, generate, RegistryParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn pipeline_runs_on_every_registry_dataset() {
    let params = RegistryParams {
        n: 4_000,
        k: 10,
        scale: 0.01,
        gamma: 1.0,
    };
    for name in available() {
        let mut rng = StdRng::seed_from_u64(81);
        let data = generate(&mut rng, name, &params).expect("registered dataset");
        let k = 10.min(data.len() / 4).max(2);
        let out = PlanBuilder::new(k)
            .method(Method::FastCoreset)
            .m_scalar(20)
            .build()
            .unwrap()
            .run(&mut rng, &data)
            .unwrap();
        let d = out.distortion;
        assert!(d.is_finite(), "{name}: infinite distortion");
        // Strong-coreset method: never catastrophic, on any instance.
        assert!(d < 5.0, "{name}: fast-coreset distortion {d}");
    }
}

#[test]
fn hst_coreset_is_competitive_with_fast_coreset() {
    let mut rng = StdRng::seed_from_u64(82);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 8_000,
            d: 10,
            kappa: 6,
            gamma: 1.5,
            ..Default::default()
        },
    );
    let k = 6;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    let lloyd = fc_clustering::lloyd::LloydConfig::default();

    let hst = HstCoreset::default().compress(&mut rng, &data, &params);
    let hst_d = fc_core::distortion(&mut rng, &data, &hst, k, CostKind::KMeans, lloyd).distortion;

    let fast = FastCoreset::default().compress(&mut rng, &data, &params);
    let fast_d = fc_core::distortion(&mut rng, &data, &fast, k, CostKind::KMeans, lloyd).distortion;

    assert!(hst_d < 2.0, "hst-coreset distortion {hst_d}");
    assert!(hst_d < fast_d * 2.0 + 0.5, "hst {hst_d} vs fast {fast_d}");
}

#[test]
fn pipeline_methods_rank_as_the_paper_predicts_on_outliers() {
    let mut rng = StdRng::seed_from_u64(83);
    let data = fc_data::c_outlier(&mut rng, 9_000, 15, 10, 1e5);
    let k = 6;
    let worst = |method: Method| -> f64 {
        (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(900 + s);
                PlanBuilder::new(k)
                    .method(method.clone())
                    .m_scalar(20)
                    .build()
                    .unwrap()
                    .run(&mut rng, &data)
                    .unwrap()
                    .distortion
            })
            .fold(1.0f64, f64::max)
    };
    let uniform = worst(Method::Uniform);
    let fast = worst(Method::FastCoreset);
    assert!(
        uniform > 3.0 * fast,
        "expected decisive ordering on c-outlier: uniform {uniform} vs fast {fast}"
    );
}
