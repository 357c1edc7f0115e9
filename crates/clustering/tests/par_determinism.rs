//! The compute tier's headline guarantee: solver output is bit-identical
//! at every thread count.
//!
//! Work is chunked at a fixed size and partials merge in chunk order, so
//! `--solve-threads 1/2/8` must produce byte-for-byte the same centers,
//! labels, and costs. CI runs this as the 1-vs-N determinism gate.

use fc_clustering::cost::cost;
use fc_clustering::kmeanspp::kmeanspp;
use fc_clustering::lloyd::{refine, solve, LloydConfig};
use fc_clustering::solution::Solution;
use fc_clustering::{CostKind, SolveConfig, Solver};
use fc_geom::dataset::Dataset;
use fc_geom::par;
use fc_geom::Points;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Several chunks worth of mildly clustered points so the parallel paths
/// actually fan out (n >> CHUNK_POINTS) and empty-cluster re-seeding has
/// something to chew on.
fn mixture(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * dim);
    for i in 0..n {
        let blob = (i % 5) as f64 * 25.0;
        for d in 0..dim {
            flat.push(blob + rng.gen::<f64>() + d as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, dim).unwrap()
}

fn bits(sol: &Solution) -> (Vec<u64>, Vec<usize>, u64) {
    (
        sol.centers.as_flat().iter().map(|v| v.to_bits()).collect(),
        sol.labels.clone(),
        sol.cost.to_bits(),
    )
}

#[test]
fn lloyd_solve_is_bit_identical_across_thread_counts() {
    let data = mixture(4 * par::CHUNK_POINTS + 321, 8, 11);
    let reference = par::with_threads(1, || {
        let mut rng = StdRng::seed_from_u64(7);
        bits(&solve(
            &mut rng,
            &data,
            6,
            CostKind::KMeans,
            LloydConfig::fixed(8),
        ))
    });
    for threads in [2usize, 8] {
        let got = par::with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(7);
            bits(&solve(
                &mut rng,
                &data,
                6,
                CostKind::KMeans,
                LloydConfig::fixed(8),
            ))
        });
        assert_eq!(reference, got, "{threads} threads diverged from 1 thread");
    }
}

#[test]
fn kmedian_refinement_is_bit_identical_across_thread_counts() {
    let data = mixture(3 * par::CHUNK_POINTS + 17, 4, 23);
    let init = par::with_threads(1, || {
        let mut rng = StdRng::seed_from_u64(3);
        kmeanspp(&mut rng, &data, 4, CostKind::KMedian).centers
    });
    let reference = par::with_threads(1, || {
        bits(&refine(
            &data,
            init.clone(),
            CostKind::KMedian,
            LloydConfig::fixed(5),
        ))
    });
    for threads in [2usize, 8] {
        let got = par::with_threads(threads, || {
            bits(&refine(
                &data,
                init.clone(),
                CostKind::KMedian,
                LloydConfig::fixed(5),
            ))
        });
        assert_eq!(reference, got, "{threads} threads diverged from 1 thread");
    }
}

/// The derived stop is decided on a chunk-summed cost, and the pruned
/// assignment keeps per-point bounds across rounds: both must come out the
/// same however the chunks were scheduled.
#[test]
fn tolerance_stopped_refinement_is_bit_identical_across_thread_counts() {
    let data = mixture(3 * par::CHUNK_POINTS + 100, 8, 31);
    let init = par::with_threads(1, || {
        let mut rng = StdRng::seed_from_u64(5);
        kmeanspp(&mut rng, &data, 5, CostKind::KMeans).centers
    });
    let run = || {
        let sol = refine(
            &data,
            init.clone(),
            CostKind::KMeans,
            LloydConfig::default(),
        );
        (bits(&sol), sol.rounds, sol.distance_evals)
    };
    let reference = par::with_threads(1, run);
    assert!(
        (2..LloydConfig::default().max_iters).contains(&reference.1),
        "stopped by tolerance, after {} rounds",
        reference.1
    );
    for threads in [2usize, 8] {
        let got = par::with_threads(threads, run);
        assert_eq!(reference, got, "{threads} threads diverged from 1 thread");
    }
}

/// A solve's first round resumes from the labels and bounds k-means++ kept
/// chunk by chunk: the hand-off, and what it lets every round skip, must
/// not depend on how the chunks were scheduled.
#[test]
fn seeded_solve_is_bit_identical_across_thread_counts() {
    let data = mixture(3 * par::CHUNK_POINTS + 200, 20, 41);
    let run = || {
        let mut rng = StdRng::seed_from_u64(13);
        let sol = Solver::Lloyd
            .solve(
                &mut rng,
                &data,
                24,
                CostKind::KMeans,
                &SolveConfig::default(),
            )
            .unwrap();
        (bits(&sol), sol.rounds, sol.distance_evals, rng.gen::<u64>())
    };
    let reference = par::with_threads(1, run);
    for threads in [2usize, 8] {
        let got = par::with_threads(threads, run);
        assert_eq!(reference, got, "{threads} threads diverged from 1 thread");
    }
}

#[test]
fn cost_is_bit_identical_across_thread_counts() {
    let data = mixture(5 * par::CHUNK_POINTS + 1, 16, 47);
    let centers =
        Points::from_flat((0..3 * 16).map(|i| (i % 16) as f64 * 7.5).collect(), 16).unwrap();
    let reference = par::with_threads(1, || cost(&data, &centers, CostKind::KMeans).to_bits());
    for threads in [2usize, 3, 8] {
        let got = par::with_threads(threads, || {
            cost(&data, &centers, CostKind::KMeans).to_bits()
        });
        assert_eq!(reference, got, "{threads} threads diverged from 1 thread");
    }
}
