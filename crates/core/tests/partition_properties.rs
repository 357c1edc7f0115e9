//! Properties of `FastCoreset::partition` (steps 1–4 of Algorithm 1).
//!
//! Step 2 (Crude-Approx + Reduce-Spread) runs only when the quadtree built
//! on the working points truncates — some leaf at the depth cap holds two
//! different rows. These pin both sides of that gate against a reference
//! built from public primitives with no step 2: where the gate is silent
//! the partition is the raw tree's and costs no RNG draws; where it fires
//! the reduction separates what the raw tree could not; and weight never
//! enters the geometry, so a weighted input (every merge-&-reduce summary
//! is one) partitions like its unweighted twin.

use fc_clustering::kmedian::{geometric_median, weighted_mean_of, WeiszfeldConfig};
use fc_clustering::CostKind;
use fc_core::fast_coreset::FastCoreset;
use fc_core::plan::{Method, PlanBuilder};
use fc_core::sampling::importance_sample;
use fc_core::sensitivity::sensitivity_scores;
use fc_core::{CompressionParams, Compressor, Coreset};
use fc_data::{gaussian_mixture, GaussianMixtureConfig};
use fc_geom::jl::{target_dim_for_clustering, JlKind, JlProjection};
use fc_geom::Dataset;
use fc_quadtree::{fast_kmeanspp, FastSeedConfig, Quadtree, QuadtreeConfig, TreeSeeding};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `kappa` unit-variance Gaussian clusters with centres in `[0, 100]^20`.
fn mixture(seed: u64, n: usize, kappa: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    gaussian_mixture(
        &mut rng,
        GaussianMixtureConfig {
            n,
            d: 20,
            kappa,
            gamma: 0.0,
            center_box: 100.0,
            std: 1.0,
        },
    )
}

/// Three unit clusters of 600 points 1e18 apart: every cluster is narrower
/// than `root_side · 2^-50`, so the raw tree ends in three leaves of 600
/// different rows each.
fn far_unit_clusters(seed: u64) -> Dataset {
    fc_data::spread_stress::far_unit_clusters(&mut StdRng::seed_from_u64(seed), 600, 1e18)
}

/// The raw-partition reference: steps 1 and 3 with no step 2. The sparse
/// JL embedding to `target_dim_for_clustering(k, 0.5)` where that lowers
/// the dimension, the quadtree on it (or on the rows themselves), then
/// Fast-kmeans++ on that tree, whether or not the tree truncated.
fn raw_partition(rng: &mut StdRng, data: &Dataset, params: &CompressionParams) -> TreeSeeding {
    let target = target_dim_for_clustering(params.k, 0.5);
    let tree = if data.dim() > target {
        let jl = JlProjection::sample(rng, JlKind::SparseAchlioptas, data.dim(), target).unwrap();
        Quadtree::build_projected(rng, data.points(), &jl, QuadtreeConfig::default())
    } else {
        Quadtree::build(rng, data.points(), QuadtreeConfig::default())
    };
    let seeding = FastSeedConfig::default();
    fast_kmeanspp(rng, data, &tree, params.k, params.kind, seeding)
}

/// The reference partition carried through steps 4–6: per-cluster centres
/// in the original space, Eq. (1) scores, `m` importance draws.
fn raw_coreset(seed: u64, data: &Dataset, params: &CompressionParams) -> Coreset {
    let mut rng = StdRng::seed_from_u64(seed);
    let seeding = raw_partition(&mut rng, data, params);
    let centers: Vec<Vec<f64>> = (0..seeding.k())
        .map(|c| {
            let members: Vec<usize> = (0..data.len())
                .filter(|&i| seeding.labels[i] == c)
                .collect();
            match params.kind {
                CostKind::KMeans => weighted_mean_of(data.points(), data.weights(), &members),
                CostKind::KMedian => geometric_median(
                    data.points(),
                    data.weights(),
                    &members,
                    WeiszfeldConfig::default(),
                ),
            }
        })
        .collect();
    let cost_z: Vec<f64> = data
        .points()
        .iter()
        .zip(&seeding.labels)
        .map(|(p, &l)| {
            params
                .kind
                .from_sq(fc_geom::distance::sq_dist(p, &centers[l]))
        })
        .collect();
    let scores = sensitivity_scores(&seeding.labels, &cost_z, data.weights(), seeding.k());
    importance_sample(&mut rng, data, &scores, params.m)
}

/// Number of clusters a partition puts points in. (The seeding may name
/// more centres than that: a second draw from a leaf the tree cannot split
/// is a centre no point is labelled with.)
fn distinct(mut labels: Vec<usize>) -> usize {
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

/// `k_eff` of the served partition under `seed`.
fn k_eff(seed: u64, data: &Dataset, params: &CompressionParams) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    distinct(FastCoreset.partition(&mut rng, data, params).0)
}

#[test]
fn uniform_weight_does_not_collapse_the_partition() {
    let points = mixture(2401, 4_000, 25).points().clone();
    let params = CompressionParams::with_scalar(50, 40, CostKind::KMeans).unwrap();
    for weight in [1.0, 1e2, 1e4] {
        let data = Dataset::weighted(points.clone(), vec![weight; points.len()]).unwrap();
        for seed in 0..5 {
            let got = k_eff(2410 + seed, &data, &params);
            assert!(
                got >= 25,
                "weight {weight}, seed {seed}: 25 separated clusters fell into k_eff = {got}"
            );
        }
    }
}

#[test]
fn merge_reduce_summaries_do_not_collapse_the_partition() {
    // The served plan: every block and every carry-merge is compressed by
    // the default Fast-Coreset, and the snapshot is what a query compresses
    // once more.
    let plan = PlanBuilder::new(50)
        .coreset_size(2_000)
        .method(Method::FastCoreset)
        .build()
        .unwrap();
    let data = mixture(2402, 128_000, 50);
    let mut rng = StdRng::seed_from_u64(2420);
    let mut session = plan.stream();
    for fold in 1..=16 {
        // The generator emits cluster after cluster; a strided block holds
        // 8 000 rows drawn across all of them, as an arrival order would.
        let rows: Vec<usize> = (fold - 1..data.len()).step_by(16).collect();
        let block = data.gather(&rows, vec![1.0; rows.len()]).unwrap();
        session.push(&mut rng, &block).unwrap();
        if ![1, 4, 16].contains(&fold) {
            continue;
        }
        let summary = session.snapshot().expect("a block was pushed");
        let got = k_eff(2430 + fold as u64, summary.dataset(), &plan.params());
        assert!(
            got >= 25,
            "after {fold} folds ({} points, weight {:.0}): k_eff = {got}",
            summary.len(),
            summary.total_weight()
        );
    }
}

#[test]
fn the_gate_fires_where_the_tree_runs_out_of_bits_and_the_reduction_reduces() {
    let data = far_unit_clusters(2403);
    let params = CompressionParams::with_scalar(12, 40, CostKind::KMeans).unwrap();
    for seed in 0..5 {
        let raw = raw_partition(&mut StdRng::seed_from_u64(2440 + seed), &data, &params);
        let raw = distinct(raw.labels);
        assert_eq!(raw, 3, "seed {seed}: the raw tree separates only the boxes");
        let reduced = k_eff(2440 + seed, &data, &params);
        assert!(
            reduced > 3,
            "seed {seed}: spread reduction left k_eff = {reduced}"
        );
    }
}

#[test]
fn a_silent_gate_costs_no_draws() {
    // Spread fits the tree on both inputs, so the gate must not touch the
    // RNG: same seed, same coreset as the raw-partition reference, bit for
    // bit.
    let unweighted = mixture(2404, 6_000, 25);
    let weights = (0..unweighted.len())
        .map(|i| 1.0 + (i % 97) as f64)
        .collect();
    let weighted = Dataset::weighted(unweighted.points().clone(), weights).unwrap();
    let params = CompressionParams::with_scalar(25, 20, CostKind::KMeans).unwrap();
    for data in [&unweighted, &weighted] {
        for seed in 0..3 {
            let allowed =
                FastCoreset.compress(&mut StdRng::seed_from_u64(2450 + seed), data, &params);
            let never = raw_coreset(2450 + seed, data, &params);
            assert!(
                allowed.dataset() == never.dataset(),
                "seed {seed}: step 2 ran, or drew, where the tree did not truncate"
            );
        }
    }
}

#[test]
fn inputs_within_the_jl_target_partition_on_the_unprojected_tree() {
    // d = 8 is at or below the JL target for every k, so step 1 must draw
    // nothing and the tree is built on the rows themselves: the reference
    // takes its `Quadtree::build` branch, and the two agree bit for bit.
    let mut rng = StdRng::seed_from_u64(2460);
    let data = gaussian_mixture(
        &mut rng,
        GaussianMixtureConfig {
            n: 5_000,
            d: 8,
            kappa: 20,
            gamma: 0.0,
            center_box: 100.0,
            std: 1.0,
        },
    );
    for (k, kind) in [
        (2, CostKind::KMeans),
        (20, CostKind::KMeans),
        (20, CostKind::KMedian),
    ] {
        assert!(data.dim() <= target_dim_for_clustering(k, 0.5));
        let params = CompressionParams::with_scalar(k, 20, kind).unwrap();
        let served = FastCoreset.compress(&mut StdRng::seed_from_u64(2461), &data, &params);
        let reference = raw_coreset(2461, &data, &params);
        assert!(
            served.dataset() == reference.dataset(),
            "k = {k}, {kind:?}: the partition left the unprojected tree"
        );
    }
}
