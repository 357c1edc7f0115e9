//! Golden Fast-Coreset outputs. Neither input truncates the quadtree, so
//! both take the path every default build takes — JL projection, one tree
//! build, Fast-kmeans++, scores, sample — and the tree feeds every RNG draw
//! after it: any change to what those stages compute moves these hashes.
//! Re-pinned when spread reduction left that path (it had run, and drawn,
//! unconditionally); the solves of these coresets in `golden_solve.rs` and
//! `solve_effort.rs` moved with them.

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
    assert_eq!(coreset.len(), 1_442);
    assert_eq!(fingerprint(&coreset), 2_732_915_854_900_249_459);
}

/// Uneven weights of 50–150 on a 25-cluster mixture — the shape of a
/// merge-&-reduce summary. Weight reaches the seeding's masses, the scores
/// and the sample; it never reaches the tree's geometry, so the partition
/// has one cluster per centre, as the same points at unit weight would.
#[test]
fn weighted_mixture_coreset_is_pinned() {
    let points = mixture(1303, 4_000, 25).points().clone();
    let weights = (0..points.len()).map(|i| 50.0 + (i % 101) as f64).collect();
    let data = Dataset::weighted(points, weights).unwrap();
    let params = CompressionParams::with_scalar(25, 20, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(1304);
    let coreset = FastCoreset::default().compress(&mut rng, &data, &params);
    assert_eq!(coreset.len(), 440);
    assert_eq!(fingerprint(&coreset), 10_275_829_680_159_782_078);
}
