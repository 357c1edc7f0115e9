//! MapReduce-style distributed aggregation (paper §2.3): shard the data
//! across simulated workers, build one coreset per worker (the workers run
//! one after another), union at the host, and solve on the aggregate —
//! total communication independent of n.
//!
//! ```sh
//! cargo run --release --example mapreduce_aggregation
//! ```

use fast_coresets::prelude::*;
use fc_core::streaming::mapreduce_coreset;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let k = 40;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 200_000,
            d: 25,
            kappa: 40,
            gamma: 1.0,
            ..Default::default()
        },
    );
    println!(
        "dataset: {} points x {} dims; target m = {}",
        data.len(),
        data.dim(),
        params.m
    );

    // Built from the unified Method enum — the same name ("fast-coreset")
    // selects this compressor in PlanBuilder and on the fc-service wire.
    let fast = Method::FastCoreset.build();
    for workers in [1usize, 2, 4, 8] {
        let start = std::time::Instant::now();
        let report = mapreduce_coreset(&mut rng, &data, &*fast, &params, workers);
        let elapsed = start.elapsed();
        let verdict = fc_core::judge(&mut rng, &data, &report.coreset, k, CostKind::KMeans);
        println!(
            "workers = {workers}: wall {elapsed:>8.2?}, communicated {:>6} points, \
             final size {:>5}, distortion {:.3}",
            report.communicated_points,
            report.coreset.len(),
            verdict.median,
        );
    }

    println!(
        "\nCoreset composability (paper §2.3) makes the union of per-shard \
         coresets a valid coreset of the full data: accuracy is flat in the \
         worker count while communication grows with it. The workers run one \
         after another here, so wall-clock is their summed compression time."
    );
}
