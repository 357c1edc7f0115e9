//! `batch-frontier`: the paper's own axis, without a socket in sight.
//!
//! A library user holds a big dataset in memory, compresses it under the
//! default plan (Fast-Coreset, `m = 40k`) and clusters the summary. In the
//! benchmark's common vocabulary: points are *absorbed* by
//! `Plan::compress` (`ingest_points_per_s = n ÷ coreset_build_s`), a
//! *query* is the plan's solver on the coreset (`query_p50_ms`), and the
//! *distortion* is `fc_core::distortion` of that coreset against the full
//! data. The traced run adds the method ladder on two datasets and times
//! every stage of Algorithm 1 through its public functions.

use std::time::Instant;

use fc_clustering::lloyd::{self, LloydConfig};
use fc_clustering::{kmeanspp, CostKind};
use fc_core::plan::{Method, Plan, PlanBuilder};
use fc_core::sampling::importance_sample;
use fc_core::sensitivity::sensitivity_scores;
use fc_core::{Coreset, FastCoreset};
use fc_data::synthetic::{c_outlier, gaussian_mixture, GaussianMixtureConfig};
use fc_geom::jl::{project_if_beneficial, target_dim_for_clustering, JlKind};
use fc_geom::{par, Dataset};
use fc_quadtree::{crude_approx, fast_kmeanspp, reduce_spread};
use fc_quadtree::{FastSeedConfig, Quadtree, QuadtreeConfig, SpreadParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::quality::{self, DISTORTION_LIMIT, WEIGHT_ERROR_LIMIT};
use crate::run::Run;
use crate::stats::median;

const DIM: usize = 20;
/// Solves timed per coreset built.
const SOLVES_PER_ROUND: usize = 8;
/// Rounds (one build, the solves, one evaluation) per second of an epoch's
/// measuring time; calibrated on the 2-core reference box.
const ROUNDS_PER_S: f64 = 0.75;
/// Repetitions of the stage-by-stage compress pipeline in the traced run.
const STAGE_REPS: u64 = 3;

/// The method ladder, fastest and crudest first: the canonical method
/// name, then its `build_s`, `distortion`, `cout_build_s` and
/// `cout_distortion` rows (`cout_`: on the c-outlier data).
const LADDER: [(&str, [&str; 4]); 5] = [
    (
        "uniform",
        [
            "core.uniform.build_s",
            "core.uniform.distortion",
            "core.uniform.cout_build_s",
            "core.uniform.cout_distortion",
        ],
    ),
    (
        "lightweight",
        [
            "core.lightweight.build_s",
            "core.lightweight.distortion",
            "core.lightweight.cout_build_s",
            "core.lightweight.cout_distortion",
        ],
    ),
    (
        "welterweight(log-k)",
        [
            "core.welterweight.build_s",
            "core.welterweight.distortion",
            "core.welterweight.cout_build_s",
            "core.welterweight.cout_distortion",
        ],
    ),
    (
        "fast-coreset",
        [
            "core.fast_coreset.build_s",
            "core.fast_coreset.distortion",
            "core.fast_coreset.cout_build_s",
            "core.fast_coreset.cout_distortion",
        ],
    ),
    (
        "sensitivity",
        [
            "core.sensitivity.build_s",
            "core.sensitivity.distortion",
            "core.sensitivity.cout_build_s",
            "core.sensitivity.cout_distortion",
        ],
    ),
];

struct Sizes {
    n: usize,
    k: usize,
}

fn plan_for(k: usize, method: &str) -> Plan {
    let method: Method = method.parse().expect("canonical method name");
    PlanBuilder::new(k)
        .method(method)
        .build()
        .expect("k >= 1 and m = 40k >= k")
}

fn gaussian(rng: &mut StdRng, n: usize) -> Dataset {
    gaussian_mixture(
        rng,
        GaussianMixtureConfig {
            n,
            d: DIM,
            ..Default::default()
        },
    )
}

/// JSON has no infinity; uniform sampling on c-outlier earns one.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        1e300
    }
}

pub fn run(run: &mut Run) {
    let sizes = Sizes {
        n: run.scaled(200_000, 20_000),
        k: if run.opts.smoke { 20 } else { 100 },
    };
    let plan = plan_for(sizes.k, "fast-coreset");
    // Set-up is a tenth of a second here, and how long a solve takes
    // depends on the dataset drawn: more, shorter epochs than the served
    // workloads afford.
    run.full_epochs = 5;
    let epochs = run.epochs();
    let mut last = None;
    for epoch in 0..epochs {
        let recording = run.opts.traced && epoch + 1 == epochs;
        run.tracer.set_recording(recording);
        let mut rng = StdRng::seed_from_u64(run.opts.seed.wrapping_mul(1_000_003) + epoch as u64);

        // Set-up: the dataset, and one small compression so that lazy
        // initialisation is not billed to the first timed build.
        let setup = Instant::now();
        let (data, generate_s) = run
            .tracer
            .time("data.gaussian_mixture", 0, || gaussian(&mut rng, sizes.n));
        let warm = data
            .gather(
                &(0..sizes.n / 10).collect::<Vec<_>>(),
                vec![1.0; sizes.n / 10],
            )
            .expect("indices in range");
        let _ = plan.compress(&mut rng, &warm).expect("warm-up compress");
        run.sample("setup_s", setup.elapsed().as_secs_f64());
        run.sample("data.generate_s", generate_s);

        let mut coreset = None;
        for round in 1..=run.rounds(ROUNDS_PER_S) {
            let request = (epoch as u64) << 32 | round;
            let whole = run.tracer.begin("round", request);
            let (built, build_s) = run
                .tracer
                .time("plan.compress", request, || plan.compress(&mut rng, &data));
            let built = built.expect("m <= n");
            run.op(true);
            run.sample("core.coreset_build_s", build_s);
            run.sample("ingest_points_per_s", sizes.n as f64 / build_s);
            let mut fixed_work_s = build_s;
            for solve in 0..SOLVES_PER_ROUND {
                let (solution, solve_s) = run.tracer.time("plan.solve_on", request, || {
                    plan.solve_on(&mut rng, built.dataset())
                });
                let solution = solution.expect("solver supports k-means");
                run.op(solution.k() == sizes.k);
                run.sample("query_ms", solve_s * 1e3);
                fixed_work_s += solve_s;
                if solve == 0 {
                    run.sample("core.time_to_solution_s", build_s + solve_s);
                }
            }
            run.sample(
                if recording {
                    "round_s.traced"
                } else {
                    "round_s.untraced"
                },
                fixed_work_s,
            );
            let (distortion, _) = run.tracer.time("core.distortion", request, || {
                quality::distortion(&mut rng, &data, &built, sizes.k)
            });
            run.tracer.end(whole);
            run.sample("distortion", distortion);
            let weight_error = quality::weight_error(&built, data.total_weight());
            run.op(built.len() <= plan.m()
                && distortion <= DISTORTION_LIMIT
                && weight_error <= WEIGHT_ERROR_LIMIT);
            coreset = Some(built);
        }
        last = Some((data, coreset.expect("at least one round"), rng));
    }

    let query_ms = run.samples("query_ms").to_vec();
    run.set("query_p50_ms", median(&query_ms));
    run.notes.push(format!(
        "n = {}, k = {}, m = {}; {} builds, query_p50_ms over {} solves",
        sizes.n,
        sizes.k,
        plan.m(),
        run.samples("distortion").len(),
        query_ms.len()
    ));
    let worst = run
        .samples("distortion")
        .iter()
        .fold(0.0_f64, |a, &b| a.max(b));
    run.check(
        "default plan distortion <= 2.0 on every build",
        worst <= DISTORTION_LIMIT,
        format!("worst {worst:.4}"),
    );

    if run.opts.traced {
        let (data, coreset, mut rng) = last.expect("at least one epoch");
        run.set(
            "server.query_p90_ms",
            crate::stats::percentile(&query_ms, 0.9),
        );
        run.set("clustering.solve_s", median(&query_ms) / 1e3);
        run.set_trace_overhead(&["round_s"]);
        stages(run, &plan, &data, &mut rng);
        kernels(run, &data, &coreset, sizes.k, &mut rng);
        ladder(run, &data, &sizes, &mut rng);
    }
}

/// Algorithm 1 stage by stage, on the workload's own data: the five stage
/// functions wired as `FastCoreset::partition` wires them, then the whole
/// partition, the scores and the sample.
fn stages(run: &mut Run, plan: &Plan, data: &Dataset, rng: &mut StdRng) {
    let params = plan.params();
    let t = &mut run.tracer;
    let whole = t.begin("algorithm1.stages", 0);
    let target = target_dim_for_clustering(params.k, 0.5);
    let (working, jl_s) = t.time("geom.jl_project", 0, || {
        project_if_beneficial(rng, data.points(), target, JlKind::SparseAchlioptas)
    });
    let (bound, crude_s) = t.time("quadtree.crude_approx", 0, || {
        crude_approx(rng, &working, params.k, params.kind, data.total_weight())
    });
    let ((reduced, _map), spread_s) = t.time("quadtree.reduce_spread", 0, || {
        reduce_spread(
            rng,
            &working,
            bound.upper,
            SpreadParams::practical(data.len(), working.dim()),
        )
    });
    let (tree, build_s) = t.time("quadtree.build", 0, || {
        Quadtree::build(rng, &reduced, QuadtreeConfig::default())
    });
    let (seeding, seed_s) = t.time("quadtree.fast_kmeanspp", 0, || {
        fast_kmeanspp(
            rng,
            data,
            &tree,
            params.k,
            params.kind,
            FastSeedConfig::default(),
        )
    });
    std::hint::black_box(seeding);
    t.end(whole);

    // `FastCoreset::compress` is exactly these three calls; single builds
    // vary by a tenth on the reference box, so take the median of three.
    let (mut partition, mut scoring, mut sampling) = (Vec::new(), Vec::new(), Vec::new());
    let mut sample = None;
    for rep in 1..=STAGE_REPS {
        let whole = t.begin("algorithm1.compress", rep);
        let ((labels, centers, cost_z), partition_s) = t.time("core.partition", rep, || {
            FastCoreset::default().partition(rng, data, &params)
        });
        let (scores, scores_s) = t.time("core.sensitivity_scores", rep, || {
            sensitivity_scores(&labels, &cost_z, data.weights(), centers.len())
        });
        let (drawn, sample_s) = t.time("core.importance_sample", rep, || {
            importance_sample(rng, data, &scores, params.m)
        });
        t.end(whole);
        partition.push(partition_s);
        scoring.push(scores_s);
        sampling.push(sample_s);
        sample = Some(drawn);
    }
    let sample = sample.expect("at least one repetition");
    let (partition_s, scores_s, sample_s) =
        (median(&partition), median(&scoring), median(&sampling));

    run.set("geom.jl_project_s", jl_s);
    run.set("quadtree.crude_approx_s", crude_s);
    run.set("quadtree.reduce_spread_s", spread_s);
    run.set("quadtree.build_s", build_s);
    run.set("quadtree.fast_kmeanspp_s", seed_s);
    run.set("core.partition_s", partition_s);
    run.set("core.sensitivity_scores_s", scores_s);
    run.set("core.importance_sample_s", sample_s);
    let build_s = median(run.samples("core.coreset_build_s"));
    run.set(
        "core.stage_sum_share",
        (partition_s + scores_s + sample_s) / build_s,
    );
    run.set("core.fast_coreset.fill", quality::fill(&sample, params.m));
}

/// The distance kernels under everything: nearest-centre throughput on the
/// full data, the parallel tier's speed-up, and seeding on the coreset.
fn kernels(run: &mut Run, data: &Dataset, coreset: &Coreset, k: usize, rng: &mut StdRng) {
    let seeding = kmeanspp(rng, coreset.dataset(), k, CostKind::KMeans);
    let (_, kmeanspp_s) = run.tracer.time("clustering.kmeanspp", 0, || {
        kmeanspp(rng, coreset.dataset(), k, CostKind::KMeans)
    });
    run.set("clustering.kmeanspp_s", kmeanspp_s);
    let (cost, cost_s) = run.tracer.time("clustering.cost", 0, || {
        fc_clustering::cost::cost(data, &seeding.centers, CostKind::KMeans)
    });
    std::hint::black_box(cost);
    run.set(
        "geom.nearest_mpps",
        (data.len() * seeding.centers.len()) as f64 / cost_s / 1e6,
    );
    // Same seed for both thread counts: the tier is bit-identical across
    // them, so both runs do the same arithmetic.
    let lloyd_at = |threads: usize, run: &mut Run| {
        let mut rng = StdRng::seed_from_u64(run.opts.seed);
        let (_, secs) = run
            .tracer
            .time("clustering.lloyd_full", threads as u64, || {
                par::with_threads(threads, || {
                    lloyd::solve(&mut rng, data, k, CostKind::KMeans, LloydConfig::fixed(4))
                })
            });
        secs
    };
    let one = lloyd_at(1, run);
    let two = lloyd_at(2, run);
    run.set("clustering.lloyd_full_1t_s", one);
    run.set("clustering.lloyd_full_2t_s", two);
    run.set("geom.par_speedup", one / two);
}

/// Every method of the ladder on the Gaussian data and on c-outlier, one
/// build each, then the `k = 400` crossover of the paper's Figure 1.
fn ladder(run: &mut Run, gaussian: &Dataset, sizes: &Sizes, rng: &mut StdRng) {
    let outlier = c_outlier(rng, sizes.n, DIM, 16, 1e5);
    for (method, names) in LADDER {
        let plan = plan_for(sizes.k, method);
        for (data, cout) in [(gaussian, false), (&outlier, true)] {
            let (coreset, build_s) = run
                .tracer
                .time("ladder.compress", cout as u64, || plan.compress(rng, data));
            let coreset = coreset.expect("m <= n");
            let (distortion, _) = run.tracer.time("ladder.distortion", cout as u64, || {
                quality::distortion(rng, data, &coreset, sizes.k)
            });
            let offset = if cout { 2 } else { 0 };
            run.set(names[offset], build_s);
            run.set(names[offset + 1], finite(distortion));
            if matches!(method, "fast-coreset" | "sensitivity") {
                run.check(
                    &format!(
                        "{method} distortion <= 2.0 on {}",
                        if cout { "c-outlier" } else { "gaussian" }
                    ),
                    distortion <= DISTORTION_LIMIT,
                    format!("{distortion:.4}"),
                );
            }
        }
    }
    let k400 = if run.opts.smoke { 40 } else { 400 };
    for (method, name) in [
        ("fast-coreset", "core.fast_coreset.build_k400_s"),
        ("sensitivity", "core.sensitivity.build_k400_s"),
    ] {
        let plan = plan_for(k400, method);
        let (coreset, secs) = run
            .tracer
            .time("ladder.compress_k400", 0, || plan.compress(rng, gaussian));
        run.op(coreset.is_ok());
        run.set(name, secs);
    }
}
