//! The paper's core narrative as a runnable demo: sweep the full
//! speed-vs-accuracy spectrum of samplers over a benign dataset and two
//! adversarial ones, and watch the cheap methods fail exactly where the
//! theory predicts.
//!
//! ```sh
//! cargo run --release --example compression_tradeoffs
//! ```

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn evaluate(name: &str, data: &Dataset, k: usize, methods: &[Method]) {
    println!(
        "\n--- {name}: n = {}, d = {}, k = {k} ---",
        data.len(),
        data.dim()
    );
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "method", "size", "build time", "distortion"
    );
    for method in methods {
        // One plan per (dataset, method): the whole sweep is the method
        // knob turning across the spectrum.
        let plan = PlanBuilder::new(k)
            .method(method.clone())
            .m_scalar(40)
            .build()
            .expect("valid plan");
        let mut rng = StdRng::seed_from_u64(7);
        let out = plan.run(&mut rng, data).expect("valid data");
        let distortion = out.distortion;
        let flag = if distortion > 10.0 {
            "  <- catastrophic"
        } else if distortion > 5.0 {
            "  <- failure"
        } else {
            ""
        };
        println!(
            "{:<22} {:>10} {:>11.2}s {:>10.3}{flag}",
            method.to_string(),
            out.coreset.len(),
            out.compress_secs,
            distortion,
        );
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let methods: Vec<Method> = vec![
        Method::Uniform,
        Method::Lightweight,
        Method::Welterweight(JCount::LogK),
        Method::Sensitivity,
        Method::FastCoreset,
    ];

    // 1. A benign balanced mixture: everything works.
    let benign = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 40_000,
            d: 20,
            kappa: 20,
            gamma: 0.0,
            ..Default::default()
        },
    );
    evaluate("benign balanced mixture", &benign, 20, &methods);

    // 2. The c-outlier instance: uniform sampling misses the outliers.
    let outliers = fc_data::c_outlier(&mut rng, 40_000, 20, 12, 1e6);
    evaluate("c-outlier (12 far outliers)", &outliers, 10, &methods);

    // 3. The taxi proxy: power-law clusters + GPS glitches.
    let taxi = fc_data::realworld::taxi_like(&mut rng, 60_000);
    evaluate("taxi proxy (power-law + glitches)", &taxi, 50, &methods);

    println!(
        "\nTakeaway (paper §5.5): the faster the method, the more brittle the \
         compression; only the sensitivity-based methods survive every instance, \
         and Fast-Coresets deliver that guarantee at near-linear cost."
    );
}
