//! Cross-crate coverage for the extension features: the dataset registry
//! and the high-level plan API, working together.

use fast_coresets::prelude::*;
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
