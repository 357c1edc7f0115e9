//! Weights and coordinates anywhere in the `f64` range. Every
//! sensitivity-family method multiplies weights by squared distances and
//! sums them over clusters, so at a weight of 1e300 those sums overflow to
//! infinity and `inf / inf` turns a score into NaN; at coordinates of 1e153
//! the squared distance itself does, and at 1e-180 it underflows to zero.
//! So every compressor `Method::build` returns computes at a safe scale:
//! where the largest |coordinate| or weight lies outside `[2^-256, 2^256)`,
//! the method sees a copy scaled by the power of two that puts it in
//! `[1, 2)`, and the coreset is scaled back. A power of two scales a float
//! exactly and the cost is homogeneous, so the coreset of `2^e·P` is
//! `2^e` times the coreset of `P`, bit for bit, at every `e`.

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use fc_core::ALL_METHODS;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` points in d = 4: coordinate 0 picks one of five clusters 1e5 apart,
/// the rest are uniform in the unit box; every point weighs `weight`.
fn stacked(seed: u64, n: usize, weight: f64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * 4);
    for i in 0..n {
        flat.push((i % 5) as f64 * 1e5);
        flat.extend((0..3).map(|_| rng.gen::<f64>()));
    }
    let points = Points::from_flat(flat, 4).unwrap();
    Dataset::weighted(points, vec![weight; n]).unwrap()
}

/// Block `b` of six: 1 000 points in d = 2 at multiples of 1e153 up to
/// 9.6e154. Every coordinate is finite; the squared distance between two
/// far rows is not.
fn huge_coordinates(b: usize) -> Dataset {
    let flat = (0..1_000)
        .flat_map(|i| {
            let v = ((i * 7 + b * 13) % 97) as f64 * 1e153;
            [v, if i % 2 == 0 { v } else { -v }]
        })
        .collect();
    Dataset::from_flat(flat, 2).unwrap()
}

const SENSITIVITY_FAMILY: [Method; 4] = [
    Method::FastCoreset,
    Method::Sensitivity,
    Method::Welterweight(JCount::LogK),
    Method::Lightweight,
];

#[test]
fn sensitivity_family_survives_weights_of_1e300() {
    let far = (1..6).fold(huge_coordinates(0), |far, b| {
        far.concat(&huge_coordinates(b)).unwrap()
    });
    let params = CompressionParams::with_scalar(5, 40, CostKind::KMeans).unwrap();
    for data in [stacked(3, 4_000, 1e300), far] {
        for method in SENSITIVITY_FAMILY {
            let mut rng = StdRng::seed_from_u64(4);
            let coreset = method.build().compress(&mut rng, &data, &params);
            let weights = coreset.dataset().weights();
            assert!(
                coreset.len() > params.k,
                "{method}: {} points",
                coreset.len()
            );
            assert!(weights.iter().all(|w| w.is_finite() && *w > 0.0));
            let rel = (coreset.total_weight() - data.total_weight()).abs() / data.total_weight();
            assert!(rel < 0.25, "{method}: total weight off by {rel}");
        }
    }
}

#[test]
fn a_power_of_two_weight_scales_the_unit_weight_coreset_exactly() {
    let heavy = f64::powi(2.0, 996);
    let unit = stacked(5, 3_000, 1.0);
    let scaled = stacked(5, 3_000, heavy);
    let params = CompressionParams::with_scalar(5, 40, CostKind::KMeans).unwrap();
    for method in SENSITIVITY_FAMILY {
        let compressor = method.build();
        let expected = compressor.compress(&mut StdRng::seed_from_u64(6), &unit, &params);
        let got = compressor.compress(&mut StdRng::seed_from_u64(6), &scaled, &params);
        assert_eq!(
            got.dataset().points(),
            expected.dataset().points(),
            "{method}"
        );
        let times: Vec<f64> = expected
            .dataset()
            .weights()
            .iter()
            .map(|w| w * heavy)
            .collect();
        assert_eq!(got.dataset().weights(), &times[..], "{method}");
    }
}

/// The served repros: an engine at its default configuration (merge-&-reduce
/// over Fast-Coreset on every shard) takes 40 blocks of 1 000 points at
/// weight 1e300 each, 4e304 in all, and six blocks at coordinates of 1e153.
/// Every fold must keep its shard alive, so each dataset still answers
/// ingests and queries afterwards.
#[test]
fn engine_keeps_a_heavy_dataset_available() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let heavy: Vec<Dataset> = (0..41).map(|b| stacked(100 + b, 1_000, 1e300)).collect();
    let far: Vec<Dataset> = (0..7).map(huge_coordinates).collect();
    for (name, blocks) in [("heavy", heavy), ("far", far)] {
        let (last, blocks) = blocks.split_last().unwrap();
        for block in blocks {
            engine.ingest(name, block, None).unwrap();
        }
        let (coreset, _, _) = engine.coreset(name, Some(7), None).unwrap();
        let total: f64 = blocks.iter().map(Dataset::total_weight).sum();
        let rel = (coreset.total_weight() - total).abs() / total;
        assert!(coreset.len() > 1, "{name}: {} points served", coreset.len());
        assert!(rel < 0.25, "{name}: served weight off by {rel}");
        let (points, _) = engine.ingest(name, last, None).unwrap();
        assert_eq!(points, 1_000 * (blocks.len() as u64 + 1), "{name}");
        assert!(engine.coreset(name, Some(8), None).is_ok(), "{name}");
    }
}

/// The six `huge_coordinates` blocks in d = 3, block `b` lifted to
/// `z = b·1e156`: the blocks lie 1e156 apart and each spans about 2e155,
/// so a summary point's `z` names the block it summarises.
fn lifted_blocks() -> Dataset {
    let flat: Vec<f64> = (0..6)
        .flat_map(|b| {
            let block = huge_coordinates(b);
            let z = b as f64 * 1e156;
            block
                .points()
                .iter()
                .flat_map(|p| [p[0], p[1], z])
                .collect::<Vec<_>>()
        })
        .collect();
    Dataset::from_flat(flat, 3).unwrap()
}

/// On these blocks StreamKM++ grew its tree from a root whose cost had
/// overflowed to infinity, so no leaf could be drawn, and BICO's features
/// summed `w·|p|²` to infinity and collapsed into one; each answered a
/// one-point coreset. Both now summarise at a power-of-two coordinate scale.
#[test]
fn streamkm_and_bico_summarise_every_block_of_huge_coordinates() {
    let data = lifted_blocks();
    for kind in [CostKind::KMeans, CostKind::KMedian] {
        let params = CompressionParams { k: 6, m: 120, kind };
        for method in [Method::StreamKm, Method::Bico] {
            let mut rng = StdRng::seed_from_u64(9);
            let coreset = method.build().compress(&mut rng, &data, &params);
            assert!(
                coreset.len() >= params.k,
                "{method}: {} points",
                coreset.len()
            );
            let rel = (coreset.total_weight() - data.total_weight()).abs() / data.total_weight();
            assert!(rel < 1e-12, "{method}: total weight off by {rel}");
            let mut blocks = [0usize; 6];
            for p in coreset.dataset().points().iter() {
                let b = (p[2] / 1e156).round();
                assert!(
                    (p[2] - b * 1e156).abs() < 0.25e156,
                    "{method}: z = {}",
                    p[2]
                );
                blocks[b as usize] += 1;
            }
            assert!(
                blocks.iter().all(|&n| n > 0),
                "{method} {kind:?}: points per block {blocks:?}"
            );
        }
    }
}

/// `data` with its coordinates times `2^ex` and its weights times `2^ew`.
fn times_two_to(data: &Dataset, ex: i32, ew: i32) -> Dataset {
    let (up, wup) = (f64::powi(2.0, ex), f64::powi(2.0, ew));
    let flat = data.points().as_flat().iter().map(|x| x * up).collect();
    let weights = data.weights().iter().map(|w| w * wup).collect();
    Dataset::weighted(Points::from_flat(flat, data.dim()).unwrap(), weights).unwrap()
}

/// The units of the input do not matter: for every method and objective,
/// compressing the input with its coordinates times `2^e` gives the
/// coreset of the input times `2^e`, and weights times `2^e` give its
/// weights times `2^e`, point for point and bit for bit. At ±600 the
/// squares overflow or underflow; at ±20 and ±200 nothing does, and the
/// property rests on the methods having no absolute floor of their own.
#[test]
fn coresets_scale_with_their_input_by_any_power_of_two() {
    let data = fc_data::gaussian_mixture(
        &mut StdRng::seed_from_u64(46),
        fc_data::GaussianMixtureConfig {
            n: 2_000,
            d: 10,
            kappa: 10,
            gamma: 1.0,
            ..Default::default()
        },
    );
    let mut differ = Vec::new();
    for method in ALL_METHODS {
        let compressor = method.build();
        for kind in [CostKind::KMeans, CostKind::KMedian] {
            let params = CompressionParams {
                k: 10,
                m: 200,
                kind,
            };
            let compress = |data: &Dataset| {
                let mut rng = StdRng::seed_from_u64(47);
                compressor.compress(&mut rng, data, &params).into_dataset()
            };
            let base = compress(&data);
            let cases = [-600, -200, -20, 20, 200, 600]
                .map(|e| (e, 0))
                .into_iter()
                .chain([(0, -600), (0, 600)]);
            for (ex, ew) in cases {
                if compress(&times_two_to(&data, ex, ew)) != times_two_to(&base, ex, ew) {
                    differ.push(format!(
                        "{method} {kind:?} coordinates 2^{ex} weights 2^{ew}"
                    ));
                }
            }
        }
    }
    assert!(
        differ.is_empty(),
        "{} cases differ: {differ:#?}",
        differ.len()
    );
}
