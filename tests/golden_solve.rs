//! Golden solves: the refined centres, labels and cost of a seeded solve on
//! the two coresets `golden_coreset.rs` pins, and the RNG draw that follows
//! it. Pruning that drops one distance it needed moves a label, then a
//! centre bit, then these hashes; a solve that draws differently moves the
//! trailing `u64`. First pinned before Lloyd's assignment step learned to
//! skip distances it can prove unchanged; re-pinned, with new seeds, when
//! the coresets moved under an unchanged solver — each value below was
//! checked against the plain-scan reference loop of
//! `crates/clustering/tests/refine_reference.rs` before it was written down.

use fast_coresets::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn mixture(seed: u64, n: usize, kappa: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n,
            d: 20,
            kappa,
            gamma: 1.0,
            ..Default::default()
        },
    )
}

/// The 1 442-point coreset of `unweighted_mixture_coreset_is_pinned`.
fn unweighted_coreset() -> Coreset {
    let data = mixture(1301, 20_000, 40);
    let params = CompressionParams::with_scalar(40, 40, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(1302);
    FastCoreset::default().compress(&mut rng, &data, &params)
}

/// The 440-point coreset of `weighted_mixture_coreset_is_pinned`.
fn weighted_coreset() -> Coreset {
    let points = mixture(1303, 4_000, 25).points().clone();
    let weights = (0..points.len()).map(|i| 50.0 + (i % 101) as f64).collect();
    let data = Dataset::weighted(points, weights).unwrap();
    let params = CompressionParams::with_scalar(25, 20, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(1304);
    FastCoreset::default().compress(&mut rng, &data, &params)
}

/// A seeded `Solver::Lloyd` solve at the default configuration: FNV-1a
/// over the bit patterns of every centre coordinate, every label and the
/// cost, then the next draw of the RNG the solve used. These mixtures are
/// well separated and most seedings settle in two rounds; the seeds below
/// are ones whose solves run six.
fn solve_fingerprint(coreset: &Coreset, k: usize, kind: CostKind, seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let solution = Solver::Lloyd
        .solve(
            &mut rng,
            coreset.dataset(),
            k,
            kind,
            &SolveConfig::default(),
        )
        .unwrap();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = (solution.centers.as_flat().iter().map(|x| x.to_bits()))
        .chain(solution.labels.iter().map(|&l| l as u64))
        .chain([solution.cost.to_bits()]);
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h, rng.next_u64())
}

#[test]
fn unweighted_coreset_solve_is_pinned() {
    let coreset = unweighted_coreset();
    assert_eq!(coreset.len(), 1_442);
    assert_eq!(
        solve_fingerprint(&coreset, 40, CostKind::KMeans, 1325),
        (8_563_619_171_131_916_419, 15_137_197_350_659_018_844)
    );
}

#[test]
fn weighted_coreset_solve_is_pinned_under_both_objectives() {
    let coreset = weighted_coreset();
    assert_eq!(coreset.len(), 440);
    assert_eq!(
        solve_fingerprint(&coreset, 25, CostKind::KMeans, 1410),
        (11_555_108_321_812_346_814, 13_300_959_431_932_854_118)
    );
    assert_eq!(
        solve_fingerprint(&coreset, 25, CostKind::KMedian, 1312),
        (14_300_592_613_157_598_408, 12_508_721_699_105_138_956)
    );
}
