//! The Section-4 machinery and the gate in front of it. `Crude-Approx`
//! (Algorithm 2) bounds OPT in `Õ(nd log log Δ)`, and `Reduce-Spread`
//! (Algorithm 3) collapses empty space so the quadtree's depth stops
//! depending on the spread `Δ`. This workspace's tree is compressed, so
//! depth is free until the data needs more than the tree's `2^-50` of
//! resolution; Fast-Coreset therefore runs the two steps only when the tree
//! reports itself truncated. Both sides of that gate run here: silent on a
//! Gaussian mixture and on a spread-stress set that fits the tree, firing on
//! one that does not and on unit clusters 1e18 apart.
//!
//! ```sh
//! cargo run --release --example spread_reduction
//! ```

use fast_coresets::prelude::*;
use fc_core::fast_coreset::FastCoresetConfig;
use fc_quadtree::spread::SpreadParams;
use fc_quadtree::{Quadtree, QuadtreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(4);
    let kind = CostKind::KMeans;

    // The two steps by hand, on the input that needs them.
    let far = fc_data::spread_stress::far_unit_clusters(&mut rng, 600, 1e18);
    let k = 12;
    let start = std::time::Instant::now();
    // Geometry is about locations: the bound is taken over the point count,
    // and its reach U^(1/z) — a length — is what the reduction scales by.
    let bound = fc_quadtree::crude_approx(&mut rng, far.points(), k, kind, far.len() as f64);
    println!(
        "Crude-Approx: U = {:.3e} (reach {:.3e}) at cell side {:.3e} using {} counting \
         passes (O(log log spread))",
        bound.upper,
        bound.reach(kind),
        bound.side,
        bound.probes
    );
    let params = SpreadParams::practical(far.len(), far.dim());
    let (reduced, map) =
        fc_quadtree::reduce_spread(&mut rng, far.points(), bound.reach(kind), params);
    println!(
        "Reduce-Spread: diameter {:.3e} -> {:.3e} across {} boxes; rounding pitch \
         g = {:.3e} ({:.2?} total)",
        fc_geom::bbox::diameter_upper_bound(far.points()),
        fc_geom::bbox::diameter_upper_bound(&reduced),
        map.box_count(),
        map.g,
        start.elapsed()
    );

    // End to end: Fast-Coreset with step 2 allowed and forbidden.
    let gaussian = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 60_000,
            d: 20,
            kappa: 10,
            ..Default::default()
        },
    );
    let fits = fc_data::spread_stress::spread_stress(&mut rng, 60_000, 12_000, 45);
    let overflows = fc_data::spread_stress::spread_stress(&mut rng, 60_000, 12_000, 64);
    println!(
        "\n{:<26} {:>9} {:>10} {:>11} {:>9} {:>10}",
        "input", "truncated", "step 2", "k_eff", "build", "distortion"
    );
    for (name, data, k, should_fire) in [
        ("gaussian mixture", &gaussian, 20, false),
        ("spread-stress r=45", &fits, 20, false),
        ("spread-stress r=64", &overflows, 20, true),
        ("unit clusters 1e18 apart", &far, 12, true),
    ] {
        let truncated =
            Quadtree::build(&mut rng, data.points(), QuadtreeConfig::default()).truncated();
        assert_eq!(truncated, should_fire, "{name}: wrong side of the gate");
        let cparams = CompressionParams::with_scalar(k, 40, kind).unwrap();
        let seed = rng.gen::<u64>();
        let mut partitions = Vec::new();
        for reduce_spread in [false, true] {
            let fc = FastCoreset::with_config(FastCoresetConfig {
                reduce_spread,
                ..Default::default()
            });
            let mut run_rng = StdRng::seed_from_u64(seed);
            let (labels, _, _) = fc.partition(&mut run_rng, data, &cparams);
            let mut used = labels.clone();
            used.sort_unstable();
            used.dedup();
            let step2 = match (reduce_spread, truncated) {
                (false, _) => "forbidden",
                (true, false) => "skipped",
                (true, true) => "ran",
            };
            let mut run_rng = StdRng::seed_from_u64(seed);
            let start = std::time::Instant::now();
            let coreset = fc.compress(&mut run_rng, data, &cparams);
            let elapsed = start.elapsed();
            let rep = fc_core::distortion(
                &mut run_rng,
                data,
                &coreset,
                k,
                kind,
                fc_clustering::lloyd::LloydConfig::default(),
            );
            println!(
                "{name:<26} {truncated:>9} {step2:>10} {:>11} {elapsed:>9.2?} {:>10.3}",
                used.len(),
                rep.distortion
            );
            partitions.push(labels);
        }
        // Same seed: the two runs part ways exactly where step 2 ran.
        assert_eq!(
            partitions[0] != partitions[1],
            truncated,
            "{name}: gate and outputs disagree"
        );
    }

    println!(
        "\nWhere the tree has bits to spare, allowing the reduction changes nothing — not \
         one RNG draw. Where it runs out, the reduction trades an O(nd log log spread) pass \
         and a second build for a tree that can tell the points apart \
         (Corollary 3.2 + Theorem 4.6)."
    );
}
