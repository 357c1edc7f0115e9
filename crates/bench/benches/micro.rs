//! Criterion micro-benchmarks for the hot kernels: distance evaluation,
//! alias-table sampling, quadtree construction, and both seeding paths
//! (exact k-means++ vs. tree-metric Fast-kmeans++).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fc_clustering::CostKind;
use fc_geom::sampling::AliasTable;
use fc_geom::Dataset;
use fc_quadtree::fast_kmeanspp::{fast_kmeanspp, FastSeedConfig};
use fc_quadtree::tree::{Quadtree, QuadtreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_dataset(n: usize, d: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat: Vec<f64> = (0..n * d).map(|_| rng.gen::<f64>() * 100.0).collect();
    Dataset::from_flat(flat, d).expect("rectangular by construction")
}

fn bench_distances(c: &mut Criterion) {
    let mut g = c.benchmark_group("distance");
    for d in [8usize, 64, 256] {
        let mut rng = StdRng::seed_from_u64(1);
        let a: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
        let b: Vec<f64> = (0..d).map(|_| rng.gen()).collect();
        g.bench_with_input(BenchmarkId::new("sq_dist", d), &d, |bench, _| {
            bench.iter(|| fc_geom::distance::sq_dist(black_box(&a), black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("sq_dist_bounded", d), &d, |bench, _| {
            bench.iter(|| {
                fc_geom::distance::sq_dist_bounded(black_box(&a), black_box(&b), black_box(0.1))
            })
        });
    }
    g.finish();
}

fn bench_alias_table(c: &mut Criterion) {
    let mut g = c.benchmark_group("alias_table");
    for n in [1_000usize, 100_000] {
        let mut rng = StdRng::seed_from_u64(2);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        g.bench_with_input(BenchmarkId::new("build", n), &n, |bench, _| {
            bench.iter(|| AliasTable::new(black_box(&weights)))
        });
        let table = AliasTable::new(&weights).expect("weights are positive");
        g.bench_with_input(BenchmarkId::new("sample", n), &n, |bench, _| {
            bench.iter(|| table.sample(&mut rng))
        });
    }
    g.finish();
}

fn bench_quadtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("quadtree");
    g.sample_size(10);
    for n in [5_000usize, 20_000] {
        let data = random_dataset(n, 8, 3);
        g.bench_with_input(BenchmarkId::new("build_8d", n), &n, |bench, _| {
            bench.iter(|| {
                let mut rng = StdRng::seed_from_u64(4);
                Quadtree::build(
                    &mut rng,
                    black_box(data.points()),
                    QuadtreeConfig::default(),
                )
            })
        });
    }
    g.finish();
}

fn bench_seeding(c: &mut Criterion) {
    let mut g = c.benchmark_group("seeding");
    g.sample_size(10);
    let data = random_dataset(20_000, 16, 5);
    for k in [50usize, 200] {
        g.bench_with_input(BenchmarkId::new("kmeanspp_exact", k), &k, |bench, &k| {
            bench.iter(|| {
                let mut rng = StdRng::seed_from_u64(6);
                fc_clustering::kmeanspp::kmeanspp(&mut rng, black_box(&data), k, CostKind::KMeans)
            })
        });
        g.bench_with_input(
            BenchmarkId::new("fast_kmeanspp_tree", k),
            &k,
            |bench, &k| {
                bench.iter(|| {
                    let mut rng = StdRng::seed_from_u64(6);
                    let tree = Quadtree::build(&mut rng, data.points(), QuadtreeConfig::default());
                    fast_kmeanspp(
                        &mut rng,
                        black_box(&data),
                        &tree,
                        k,
                        CostKind::KMeans,
                        FastSeedConfig::default(),
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_refinement(c: &mut Criterion) {
    let mut g = c.benchmark_group("refinement");
    g.sample_size(10);
    let data = random_dataset(10_000, 8, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let seeding = fc_clustering::kmeanspp::kmeanspp(&mut rng, &data, 32, CostKind::KMeans);
    let cfg = fc_clustering::lloyd::LloydConfig::fixed(8);
    g.bench_function("lloyd_k32", |bench| {
        bench.iter(|| {
            fc_clustering::lloyd::refine(
                black_box(&data),
                seeding.centers.clone(),
                CostKind::KMeans,
                cfg,
            )
        })
    });
    // Two dimensions, where a distance costs about what a bound does: the
    // side of the assigner's group-count rule fcbench (d = 20) never visits.
    let flat = random_dataset(4_000, 2, 9);
    let flat_seeding = fc_clustering::kmeanspp::kmeanspp(&mut rng, &flat, 100, CostKind::KMeans);
    g.bench_function("lloyd_d2_k100", |bench| {
        bench.iter(|| {
            fc_clustering::lloyd::refine(
                black_box(&flat),
                flat_seeding.centers.clone(),
                CostKind::KMeans,
                fc_clustering::lloyd::LloydConfig::default(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_distances,
    bench_alias_table,
    bench_quadtree,
    bench_seeding,
    bench_refinement
);
criterion_main!(benches);
