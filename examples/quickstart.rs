//! Quickstart: one `Plan` compresses a dataset with a Fast-Coreset,
//! clusters the compression, and verifies it prices solutions like the
//! full data — then swaps the method knob to show the tradeoff.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fast_coresets::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), FcError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // 100 000 points in 20 dimensions from an imbalanced Gaussian mixture —
    // the kind of instance where naive sampling starts missing clusters.
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 100_000,
            d: 20,
            kappa: 30,
            gamma: 2.0,
            ..Default::default()
        },
    );
    println!("dataset: {} points x {} dims", data.len(), data.dim());

    // One plan: compress to m = 40k points with the strong-coreset
    // guarantee, cluster the compression with Lloyd, price the solution on
    // both the coreset and the full data. Invalid parameters (k = 0,
    // m < k, m > n) would surface here as an `FcError`, not a panic.
    let k = 30;
    let plan = PlanBuilder::new(k)
        .method(Method::FastCoreset)
        .m_scalar(40)
        .build()?;
    let outcome = plan.run(&mut rng, &data)?;
    println!(
        "fast-coreset: {} -> {} weighted points in {:.2}s (solve {:.2}s, total weight {:.0})",
        data.len(),
        outcome.coreset.len(),
        outcome.compress_secs,
        outcome.solve_secs,
        outcome.coreset.total_weight(),
    );
    println!(
        "cost of the coreset-derived solution on the full data: {:.4e}",
        outcome.cost_on_data
    );
    println!(
        "coreset distortion: {:.4}  (1.0 = perfect, >5 = failure)",
        outcome.distortion
    );

    // Contrast with uniform sampling at the same size — same plan, one
    // knob turned. `Method` names parse from strings too ("uniform"),
    // which is exactly what the fc-service protocol uses.
    let uniform_plan = PlanBuilder::new(k)
        .method("uniform".parse::<Method>()?)
        .m_scalar(40)
        .build()?;
    let uniform = uniform_plan.run(&mut rng, &data)?;
    println!(
        "uniform-sampling distortion at the same size: {:.4}",
        uniform.distortion
    );
    Ok(())
}
