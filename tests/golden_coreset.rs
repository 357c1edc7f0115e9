//! Golden Fast-Coreset outputs, pinned before the quadtree stages were
//! rewritten around one quantisation pass: the tree, `CrudeBound` and the
//! spread-reduced points feed every RNG draw after them, so any change to
//! what those stages compute moves these hashes.

use fast_coresets::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// FNV-1a over the bit patterns of every coordinate, then every weight.
fn fingerprint(coreset: &Coreset) -> u64 {
    let data = coreset.dataset();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in data.points().as_flat().iter().chain(data.weights()) {
        for byte in x.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn unweighted_mixture_coreset_is_pinned() {
    let data = mixture(1301, 20_000, 40);
    let params = CompressionParams::with_scalar(40, 40, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(1302);
    let coreset = FastCoreset::default().compress(&mut rng, &data, &params);
    assert_eq!(coreset.len(), 1_445);
    assert_eq!(fingerprint(&coreset), 4_544_966_096_554_535_450);
}

/// Heavy weights make Reduce-Min-Distance round most points onto shared
/// locations — the duplicate-heavy input every merge-&-reduce fold sees.
#[test]
fn weighted_mixture_coreset_is_pinned() {
    let points = mixture(1303, 4_000, 25).points().clone();
    let weights = (0..points.len()).map(|i| 50.0 + (i % 101) as f64).collect();
    let data = Dataset::weighted(points, weights).unwrap();
    let params = CompressionParams::with_scalar(25, 20, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(1304);
    let coreset = FastCoreset::default().compress(&mut rng, &data, &params);
    assert_eq!(coreset.len(), 466);
    assert_eq!(fingerprint(&coreset), 11_925_987_112_344_141_379);
}
