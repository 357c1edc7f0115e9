//! The Section-4 pipeline end to end: Crude-Approx bounds OPT, Reduce-Spread
//! compresses the geometry, solutions transfer back within the promised
//! error, and the whole thing feeds Algorithm 1 on pathological-spread data.

use fast_coresets::prelude::*;
use fc_clustering::lloyd::LloydConfig;
use fc_core::fast_coreset::FastCoresetConfig;
use fc_quadtree::spread::SpreadParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Clusters separated by a gigantic gap: spread ~ 1e12.
fn huge_spread_clusters(seed: u64) -> Dataset {
    clusters_apart(seed, 1e12)
}

/// Three clusters of 600 points in unit boxes whose corners sit `gap` apart.
fn clusters_apart(seed: u64, gap: f64) -> Dataset {
    fc_data::spread_stress::far_unit_clusters(&mut StdRng::seed_from_u64(seed), 600, gap)
}

#[test]
fn crude_bound_brackets_refined_cost_on_huge_spread() {
    let data = huge_spread_clusters(51);
    let mut rng = StdRng::seed_from_u64(52);
    let bound = fc_quadtree::crude_approx(
        &mut rng,
        data.points(),
        3,
        CostKind::KMedian,
        data.total_weight(),
    );
    let seeding = fc_clustering::kmeanspp::kmeanspp(&mut rng, &data, 3, CostKind::KMedian);
    let sol = fc_clustering::lloyd::refine(
        &data,
        seeding.centers,
        CostKind::KMedian,
        LloydConfig::default(),
    );
    assert!(
        bound.upper >= sol.cost,
        "crude bound {} < refined {}",
        bound.upper,
        sol.cost
    );
    // The bound is an O(n·poly)-approximation, not vacuous: it must be far
    // below the single-center cost (which pays the 1e12 gap).
    let single = fc_clustering::cost::cost(
        &data,
        &Points::from_flat(vec![0.5, 0.5], 2).unwrap(),
        CostKind::KMedian,
    );
    assert!(
        bound.upper < single,
        "bound {} not better than 1 center {}",
        bound.upper,
        single
    );
}

#[test]
fn solutions_transfer_between_original_and_reduced_space() {
    let data = huge_spread_clusters(53);
    let mut rng = StdRng::seed_from_u64(54);
    let bound = fc_quadtree::crude_approx(
        &mut rng,
        data.points(),
        3,
        CostKind::KMedian,
        data.total_weight(),
    );
    let (reduced, map) = fc_quadtree::reduce_spread(
        &mut rng,
        data.points(),
        bound.reach(CostKind::KMedian),
        SpreadParams::practical(data.len(), 2),
    );
    // Solve on the reduced dataset.
    let reduced_ds = Dataset::unweighted(reduced);
    let sol = fc_clustering::lloyd::solve(
        &mut rng,
        &reduced_ds,
        3,
        CostKind::KMeans,
        LloydConfig::default(),
    );
    // Map centers back and price on the original data.
    let restored = map.restore_centers(&sol.centers, &sol.labels);
    let cost_back = fc_clustering::cost::cost(&data, &restored, CostKind::KMeans);
    // The reduced-space solution must transfer: each cluster is tiny
    // (unit box), so a good solution costs ~ n * O(1).
    let per_point = cost_back / data.len() as f64;
    assert!(
        per_point < 10.0,
        "restored solution costs {per_point} per point"
    );
}

#[test]
fn fast_coreset_handles_pathological_spread() {
    // At 1e12 a 50-level tree still resolves 2e-3 inside a unit box; at 1e18
    // a whole box is narrower than the finest cell, every leaf is truncated,
    // and `reduce_spread: true` means step 2 runs.
    for (gap, k, must_fire) in [(1e12, 3, false), (1e18, 12, true)] {
        let data = clusters_apart(55, gap);
        let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
        let mut clusters = Vec::new();
        for reduce_spread in [false, true] {
            let fc = FastCoreset::with_config(FastCoresetConfig {
                use_jl: false,
                reduce_spread,
                ..Default::default()
            });
            let mut rng = StdRng::seed_from_u64(56);
            let (mut labels, _, _) = fc.partition(&mut rng, &data, &params);
            labels.sort_unstable();
            labels.dedup();
            clusters.push(labels.len());
            let mut rng = StdRng::seed_from_u64(56);
            let c = fc.compress(&mut rng, &data, &params);
            let rep = fc_core::distortion(
                &mut rng,
                &data,
                &c,
                k,
                CostKind::KMeans,
                LloydConfig::default(),
            );
            assert!(
                rep.distortion < 2.0,
                "gap {gap:e}: distortion {} with reduce_spread={reduce_spread}",
                rep.distortion
            );
        }
        if must_fire {
            let tree = fc_quadtree::Quadtree::build(
                &mut StdRng::seed_from_u64(59),
                data.points(),
                fc_quadtree::QuadtreeConfig::default(),
            );
            assert!(tree.truncated(), "the tree should have run out of bits");
            assert_eq!(clusters[0], 3, "the raw tree tells only the boxes apart");
            assert!(
                clusters[1] > 3,
                "step 2 ran and left k_eff = {}",
                clusters[1]
            );
        }
    }
}
