//! Golden Fast-Coreset outputs. The two mixtures at d = 20 take the path
//! every default build takes — JL projection, one tree build,
//! Fast-kmeans++, scores, sample — and the tree feeds every RNG draw after
//! it: any change to what those stages compute moves these hashes. The
//! other two pins cover the paths beside it: a tree that truncates after
//! projection and an input too low-dimensional to project.
//! Re-pinned when spread reduction left that path (it had run, and drawn,
//! unconditionally); the solves of these coresets in `golden_solve.rs` and
//! `solve_effort.rs` moved with them.

use fast_coresets::prelude::*;
use fc_geom::jl::{project_if_beneficial, target_dim_for_clustering, JlKind};
use fc_quadtree::{Quadtree, QuadtreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
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
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
    assert_eq!(coreset.len(), 440);
    assert_eq!(fingerprint(&coreset), 10_275_829_680_159_782_078);
}

/// Three unit-box clusters 1e18 apart in d = 20. At k = 12 the projection
/// goes to t = 10 < d, and every cluster fits inside one finest cell of the
/// projected tree: the build truncates, so the partition re-projects and
/// runs Crude-Approx → Reduce-Spread → rebuild before seeding.
fn far_clusters(seed: u64, per_cluster: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = 20;
    let mut flat = Vec::with_capacity(3 * per_cluster * d);
    for cluster in 0..3 {
        for _ in 0..per_cluster {
            for j in 0..d {
                let corner = if cluster > 0 && j == cluster - 1 {
                    1e18
                } else {
                    0.0
                };
                flat.push(corner + rng.gen::<f64>());
            }
        }
    }
    Dataset::from_flat(flat, d).unwrap()
}

#[test]
fn coreset_that_truncates_after_projection_is_pinned() {
    let data = far_clusters(1305, 600);
    let params = CompressionParams::with_scalar(12, 40, CostKind::KMeans).unwrap();
    // The partition's own first draws: the projection, then the tree.
    let mut rng = StdRng::seed_from_u64(1306);
    let working = project_if_beneficial(
        &mut rng,
        data.points(),
        target_dim_for_clustering(params.k, 0.5),
        JlKind::SparseAchlioptas,
    );
    assert_eq!(working.dim(), 10);
    assert!(Quadtree::build(&mut rng, &working, QuadtreeConfig::default()).truncated());
    let mut rng = StdRng::seed_from_u64(1306);
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
    assert_eq!(coreset.len(), 340);
    assert_eq!(fingerprint(&coreset), 7_441_711_024_785_455_664);
}

/// d = 8 at k = 20 (t = 12): nothing to project, so the tree is built on
/// the input rows themselves.
#[test]
fn coreset_built_without_projection_is_pinned() {
    let mut rng = StdRng::seed_from_u64(1307);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 5_000,
            d: 8,
            kappa: 20,
            gamma: 1.0,
            ..Default::default()
        },
    );
    let params = CompressionParams::with_scalar(20, 40, CostKind::KMeans).unwrap();
    assert!(target_dim_for_clustering(params.k, 0.5) >= data.dim());
    let mut rng = StdRng::seed_from_u64(1308);
    let coreset = FastCoreset.compress(&mut rng, &data, &params);
    assert_eq!(coreset.len(), 701);
    assert_eq!(fingerprint(&coreset), 4_436_866_470_693_516_835);
}
