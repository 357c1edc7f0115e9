//! The Section-4 machinery and the gate in front of it. `Crude-Approx`
//! (Algorithm 2) bounds OPT in `Õ(nd log log Δ)`, and `Reduce-Spread`
//! (Algorithm 3) collapses empty space so the quadtree's depth stops
//! depending on the spread `Δ`. This workspace's tree is compressed, so
//! depth is free until the data needs more than the tree's `2^-50` of
//! resolution; Fast-Coreset therefore runs the two steps only when the tree
//! reports itself truncated. The input sets the side of that gate, and both
//! sides run here: silent on a Gaussian mixture and on a spread-stress set
//! that fits the tree, firing on one that does not and on unit clusters
//! 1e18 apart. Each row sets Fast-Coreset's partition beside a raw-partition
//! reference built from the public primitives with no step 2 (JL where it
//! lowers the dimension, the quadtree, Fast-kmeans++).
//!
//! ```sh
//! cargo run --release --example spread_reduction
//! ```

use fast_coresets::prelude::*;
use fc_geom::jl::{target_dim_for_clustering, JlKind, JlProjection};
use fc_quadtree::spread::SpreadParams;
use fc_quadtree::{fast_kmeanspp, FastSeedConfig, Quadtree, QuadtreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Steps 1 and 3 of Algorithm 1 with no step 2: whether the tree the
/// partition builds first truncates, and the labels Fast-kmeans++ gives on
/// it regardless.
fn raw_partition(rng: &mut StdRng, data: &Dataset, k: usize, kind: CostKind) -> (bool, Vec<usize>) {
    let target = target_dim_for_clustering(k, 0.5);
    let tree = if data.dim() > target {
        let jl = JlProjection::sample(rng, JlKind::SparseAchlioptas, data.dim(), target).unwrap();
        Quadtree::build_projected(rng, data.points(), &jl, QuadtreeConfig::default())
    } else {
        Quadtree::build(rng, data.points(), QuadtreeConfig::default())
    };
    let seeding = fast_kmeanspp(rng, data, &tree, k, kind, FastSeedConfig::default());
    (tree.truncated(), seeding.labels)
}

/// Number of clusters a partition puts points in.
fn distinct(mut labels: Vec<usize>) -> usize {
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

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

    // End to end: Fast-Coreset beside the raw-partition reference.
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
        "\n{:<26} {:>9} {:>8} {:>9} {:>6} {:>9} {:>10}",
        "input", "truncated", "step 2", "raw k_eff", "k_eff", "build", "distortion"
    );
    for (name, data, k, should_fire) in [
        ("gaussian mixture", &gaussian, 20, false),
        ("spread-stress r=45", &fits, 20, false),
        ("spread-stress r=64", &overflows, 20, true),
        ("unit clusters 1e18 apart", &far, 12, true),
    ] {
        let cparams = CompressionParams::with_scalar(k, 40, kind).unwrap();
        let seed = rng.gen::<u64>();
        let (truncated, raw) = raw_partition(&mut StdRng::seed_from_u64(seed), data, k, kind);
        assert_eq!(truncated, should_fire, "{name}: wrong side of the gate");
        let (labels, _, _) =
            FastCoreset.partition(&mut StdRng::seed_from_u64(seed), data, &cparams);
        // Same seed: the partitions part ways exactly where step 2 ran.
        assert_eq!(
            labels != raw,
            truncated,
            "{name}: gate and outputs disagree"
        );
        let mut run_rng = StdRng::seed_from_u64(seed);
        let start = std::time::Instant::now();
        let coreset = FastCoreset.compress(&mut run_rng, data, &cparams);
        let elapsed = start.elapsed();
        let verdict = fc_core::judge(&mut run_rng, data, &coreset, k, kind);
        println!(
            "{name:<26} {truncated:>9} {:>8} {:>9} {:>6} {elapsed:>9.2?} {:>10.3}",
            if truncated { "ran" } else { "skipped" },
            distinct(raw),
            distinct(labels),
            verdict.median
        );
    }

    println!(
        "\nWhere the tree has bits to spare, the partition is the raw tree's — not one \
         extra RNG draw. Where it runs out, the reduction trades an O(nd log log spread) pass \
         and a second build for a tree that can tell the points apart \
         (Corollary 3.2 + Theorem 4.6)."
    );
}
