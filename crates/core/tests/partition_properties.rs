//! Properties of `FastCoreset::partition` (steps 1–4 of Algorithm 1).
//!
//! Step 2 (Crude-Approx + Reduce-Spread) runs only when the quadtree built
//! on the working points truncates — some leaf at the depth cap holds two
//! different rows — and `reduce_spread` allows it. These pin both sides of
//! that gate: where it is silent the partition is the raw tree's and costs
//! no RNG draws; where it fires the reduction separates what the raw tree
//! could not; and weight never enters the geometry, so a weighted input (every
//! merge-&-reduce summary is one) partitions like its unweighted twin.

use fc_clustering::CostKind;
use fc_core::fast_coreset::{FastCoreset, FastCoresetConfig};
use fc_core::plan::{Method, PlanBuilder};
use fc_core::{CompressionParams, Compressor};
use fc_data::{gaussian_mixture, GaussianMixtureConfig};
use fc_geom::Dataset;
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

fn raw_tree() -> FastCoreset {
    FastCoreset::with_config(FastCoresetConfig {
        reduce_spread: false,
        ..Default::default()
    })
}

/// Number of clusters the partition puts points in. (The seeding may name
/// more centres than that: a second draw from a leaf the tree cannot split
/// is a centre no point is labelled with.)
fn k_eff(fc: &FastCoreset, seed: u64, data: &Dataset, params: &CompressionParams) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut labels, _, _) = fc.partition(&mut rng, data, params);
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

#[test]
fn uniform_weight_does_not_collapse_the_partition() {
    let points = mixture(2401, 4_000, 25).points().clone();
    let params = CompressionParams::with_scalar(50, 40, CostKind::KMeans).unwrap();
    for weight in [1.0, 1e2, 1e4] {
        let data = Dataset::weighted(points.clone(), vec![weight; points.len()]).unwrap();
        for seed in 0..5 {
            let got = k_eff(&FastCoreset::default(), 2410 + seed, &data, &params);
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
        .method(Method::MergeReduce(Box::new(Method::FastCoreset)))
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
        let got = k_eff(
            &FastCoreset::default(),
            2430 + fold as u64,
            summary.dataset(),
            &plan.params(),
        );
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
        let raw = k_eff(&raw_tree(), 2440 + seed, &data, &params);
        assert_eq!(raw, 3, "seed {seed}: the raw tree separates only the boxes");
        let reduced = k_eff(&FastCoreset::default(), 2440 + seed, &data, &params);
        assert!(
            reduced > 3,
            "seed {seed}: spread reduction left k_eff = {reduced}"
        );
    }
}

#[test]
fn a_silent_gate_costs_no_draws() {
    // Spread fits the tree on both inputs, so `reduce_spread: true` must not
    // touch the RNG: same seed, same coreset, bit for bit.
    let unweighted = mixture(2404, 6_000, 25);
    let weights = (0..unweighted.len())
        .map(|i| 1.0 + (i % 97) as f64)
        .collect();
    let weighted = Dataset::weighted(unweighted.points().clone(), weights).unwrap();
    let params = CompressionParams::with_scalar(25, 20, CostKind::KMeans).unwrap();
    for data in [&unweighted, &weighted] {
        for seed in 0..3 {
            let allowed = FastCoreset::default().compress(
                &mut StdRng::seed_from_u64(2450 + seed),
                data,
                &params,
            );
            let never = raw_tree().compress(&mut StdRng::seed_from_u64(2450 + seed), data, &params);
            assert!(
                allowed.dataset() == never.dataset(),
                "seed {seed}: step 2 ran, or drew, where the tree did not truncate"
            );
        }
    }
}
