//! Coreset composability (paper §2.3): unions of coresets are coresets,
//! MapReduce aggregation matches single-shot quality, and determinism holds
//! under fixed seeds.

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use fc_core::streaming::mapreduce_coreset;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixture(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n,
            d: 12,
            kappa: 8,
            gamma: 1.0,
            ..Default::default()
        },
    )
}

#[test]
fn union_of_part_coresets_prices_the_whole() {
    let data = mixture(41, 12_000);
    let halves = data.chunks(6_000);
    let params = CompressionParams::with_scalar(8, 40, CostKind::KMeans).unwrap();
    let method = FastCoreset;
    let mut rng = StdRng::seed_from_u64(42);
    let c1 = method.compress(&mut rng, &halves[0], &params);
    let c2 = method.compress(&mut rng, &halves[1], &params);
    let union = c1.union(&c2).unwrap();

    // Price several solutions on data vs. union-of-coresets.
    for seed in 0..3u64 {
        let mut solve_rng = StdRng::seed_from_u64(43 + seed);
        let seeding = fc_clustering::kmeanspp::kmeanspp(&mut solve_rng, &data, 8, CostKind::KMeans);
        let full = fc_clustering::cost::cost(&data, &seeding.centers, CostKind::KMeans);
        let approx = union.cost(&seeding.centers, CostKind::KMeans);
        let ratio = (full / approx).max(approx / full);
        assert!(ratio < 1.5, "union pricing ratio {ratio}");
    }
}

#[test]
fn mapreduce_matches_single_shot_quality() {
    let data = mixture(44, 16_000);
    let k = 8;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    let method = FastCoreset;

    let mut rng = StdRng::seed_from_u64(45);
    let single = method.compress(&mut rng, &data, &params);
    let single_d = fc_core::judge(&mut rng, &data, &single, k, CostKind::KMeans).median;

    let report = mapreduce_coreset(&mut rng, &data, &method, &params, 4);
    let agg_d = fc_core::judge(&mut rng, &data, &report.coreset, k, CostKind::KMeans).median;

    assert!(agg_d < 2.0, "aggregated distortion {agg_d}");
    assert!(
        agg_d < single_d * 2.0 + 0.5,
        "mapreduce distortion {agg_d} much worse than single-shot {single_d}"
    );
}

#[test]
fn compression_is_deterministic_under_a_fixed_seed() {
    let data = mixture(46, 6_000);
    let params = CompressionParams::with_scalar(6, 40, CostKind::KMeans).unwrap();
    for method in [
        Method::Uniform,
        Method::Lightweight,
        Method::Welterweight(JCount::LogK),
        Method::Sensitivity,
        Method::FastCoreset,
    ] {
        let compressor = method.build();
        let mut r1 = StdRng::seed_from_u64(47);
        let mut r2 = StdRng::seed_from_u64(47);
        let a = compressor.compress(&mut r1, &data, &params);
        let b = compressor.compress(&mut r2, &data, &params);
        assert_eq!(a.dataset(), b.dataset(), "{method} not deterministic");
        let mut r3 = StdRng::seed_from_u64(48);
        let c = compressor.compress(&mut r3, &data, &params);
        assert_ne!(a.dataset(), c.dataset(), "{method} ignores the seed");
    }
}

#[test]
fn recompressing_a_coreset_stays_accurate() {
    // Coreset-of-a-coreset: the weighted path every merge-&-reduce level
    // exercises.
    let data = mixture(49, 15_000);
    let k = 8;
    let method = FastCoreset;
    let mut rng = StdRng::seed_from_u64(50);
    let big = method.compress(
        &mut rng,
        &data,
        &CompressionParams {
            k,
            m: 2_000,
            kind: CostKind::KMeans,
        },
    );
    let small = method.compress(
        &mut rng,
        big.dataset(),
        &CompressionParams {
            k,
            m: 400,
            kind: CostKind::KMeans,
        },
    );
    let d = fc_core::judge(&mut rng, &data, &small, k, CostKind::KMeans).median;
    assert!(d < 2.0, "double-compressed distortion {d}");
}
