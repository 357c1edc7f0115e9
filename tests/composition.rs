//! Coreset composability (paper §2.3): a union of coresets is a coreset of
//! the union, a MapReduce aggregate and a coreset of a coreset stay
//! accurate, and a fixed seed fixes the coreset. Each accuracy claim holds
//! Fast-Coreset to the bound of `tests/paper_claims.rs`: at most
//! [`WITHIN_SENSITIVITY`] times standard sensitivity sampling's distortion on
//! the same data and seeds.

mod common;

use common::*;
use fast_coresets::prelude::*;
use fc_core::streaming::mapreduce_coreset;

#[test]
fn union_of_part_coresets_prices_the_whole() {
    let data = mixture(&mut seeded(41), 12_000, 12, 8, 1.0);
    let halves = data.chunks(6_000);
    let p = params(8, 40, CostKind::KMeans);
    // The worst ratio over three k-means++ seedings on the full data.
    let worst = |method: Method| {
        let (compressor, rng) = (method.build(), &mut seeded(42));
        let first = compressor.compress(rng, &halves[0], &p);
        let union = first
            .union(&compressor.compress(rng, &halves[1], &p))
            .unwrap();
        let ratio = |seed| {
            let centers = fc_clustering::kmeanspp::kmeanspp(&mut seeded(seed), &data, 8, p.kind);
            let full = fc_clustering::cost::cost(&data, &centers.centers, p.kind);
            let priced = union.cost(&centers.centers, p.kind);
            (full / priced).max(priced / full)
        };
        (43..46).map(ratio).fold(1.0, f64::max)
    };
    assert_near("§2.3 union", worst(FAST), worst(Method::Sensitivity));
}

#[test]
fn mapreduce_matches_single_shot_quality() {
    let data = mixture(&mut seeded(44), 16_000, 12, 8, 1.0);
    let p = params(8, 40, CostKind::KMeans);
    // (single shot, four-worker aggregate), each judged on the full data.
    let run = |method: Method| {
        let (compressor, rng) = (method.build(), &mut seeded(45));
        let single = compressor.compress(rng, &data, &p);
        let single = fc_core::judge(rng, &data, &single, p.k, p.kind).median;
        let aggregate = mapreduce_coreset(rng, &data, compressor.as_ref(), &p, 4).coreset;
        (
            single,
            fc_core::judge(rng, &data, &aggregate, p.k, p.kind).median,
        )
    };
    let ((single, aggregate), (_, sensitivity)) = (run(FAST), run(Method::Sensitivity));
    assert_near("§2.3 MapReduce", aggregate, sensitivity);
    assert!(
        aggregate < single * 2.0 + 0.5,
        "§2.3 MapReduce: aggregate {aggregate} vs single shot {single}"
    );
}

#[test]
fn recompressing_a_coreset_stays_accurate() {
    // A coreset of a coreset: the weighted path of every merge-&-reduce
    // level.
    let data = mixture(&mut seeded(49), 15_000, 12, 8, 1.0);
    let sized = |m| CompressionParams {
        k: 8,
        m,
        kind: CostKind::KMeans,
    };
    let twice = |method: Method| {
        let (compressor, rng) = (method.build(), &mut seeded(50));
        let big = compressor.compress(rng, &data, &sized(2_000));
        let small = compressor.compress(rng, big.dataset(), &sized(400));
        fc_core::judge(rng, &data, &small, 8, CostKind::KMeans).median
    };
    assert_near(
        "§2.3 coreset of a coreset",
        twice(FAST),
        twice(Method::Sensitivity),
    );
}

#[test]
fn compression_is_deterministic_under_a_fixed_seed() {
    let data = mixture(&mut seeded(46), 6_000, 12, 8, 1.0);
    let p = params(6, 40, CostKind::KMeans);
    for method in SAMPLERS {
        let compressor = method.build();
        let at = |seed| {
            compressor
                .compress(&mut seeded(seed), &data, &p)
                .dataset()
                .clone()
        };
        assert_eq!(at(47), at(47), "§2.3: {method} not deterministic");
        assert_ne!(at(47), at(48), "§2.3: {method} ignores the seed");
    }
}
