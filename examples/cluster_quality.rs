//! Quality-focused workflow: compress, cluster, and report what the solve
//! took and the internal quality indices — everything a practitioner wants
//! beyond the raw objective.
//!
//! ```sh
//! cargo run --release --example cluster_quality
//! ```

use fast_coresets::prelude::*;
use fc_clustering::metrics::{cluster_profile, davies_bouldin, silhouette_sampled};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let k = 24;
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 150_000,
            d: 16,
            kappa: k,
            gamma: 1.2,
            ..Default::default()
        },
    );
    println!("dataset: {} x {}", data.len(), data.dim());

    // One plan: compress with Fast-Coresets, refine with Lloyd, evaluate.
    let outcome = PlanBuilder::new(k)
        .method(Method::FastCoreset)
        .solver(Solver::Lloyd)
        .build()
        .expect("valid plan")
        .run(&mut rng, &data)
        .expect("valid data");
    println!(
        "pipeline: coreset {} pts in {:.2}s, solve {:.2}s, distortion {:.3}",
        outcome.coreset.len(),
        outcome.compress_secs,
        outcome.solve_secs,
        outcome.distortion.expect("evaluation on"),
    );

    // Refine once more by hand to read the effort: Lloyd's assignment step
    // keeps bounds between rounds and measures only the distances it cannot
    // prove unchanged, so most of the plain scan's work is skipped.
    let seeding =
        fc_clustering::kmeanspp::kmeanspp(&mut rng, outcome.coreset.dataset(), k, CostKind::KMeans);
    let t0 = std::time::Instant::now();
    let fast = fc_clustering::lloyd::refine(
        outcome.coreset.dataset(),
        seeding.centers,
        CostKind::KMeans,
        LloydConfig::fixed(12),
    );
    let scan = (outcome.coreset.len() * k * (fast.rounds + 1)) as f64;
    println!(
        "refinement: {} rounds in {:.2?} (cost {:.4e}), {:.0}% of the scan's distances skipped",
        fast.rounds,
        t0.elapsed(),
        fast.cost,
        (1.0 - fast.distance_evals as f64 / scan) * 100.0,
    );

    // Quality indices of the final solution, measured on the coreset.
    let assignment = fc_clustering::assign::assign(
        outcome.coreset.dataset().points(),
        &fast.centers,
        CostKind::KMeans,
    );
    let db = davies_bouldin(outcome.coreset.dataset(), &assignment, &fast.centers);
    let sil = silhouette_sampled(&mut rng, outcome.coreset.dataset(), &assignment, k, 200);
    let profile = cluster_profile(
        outcome.coreset.dataset(),
        &assignment,
        &fast.centers,
        CostKind::KMeans,
    );
    let (min_w, max_w) = profile
        .weights
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
    println!("quality: davies-bouldin {db:.3}, silhouette {sil:.3}");
    println!(
        "clusters: weights from {:.0} to {:.0} (imbalance {:.1}x), largest radius {:.2}",
        min_w,
        max_w,
        max_w / min_w.max(1.0),
        profile.radii.iter().cloned().fold(0.0, f64::max),
    );
}
