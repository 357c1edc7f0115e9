//! What a solve took is a number someone can read: `Solution` carries the
//! rounds it ran and the distances it measured, and both serving tiers add
//! them to `fc_solve_*_total` — so "how much of the scan did bound pruning
//! skip" has an answer on the library path and on `/metrics`.

use fast_coresets::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The 1 442-point coreset `golden_coreset.rs` pins, solved as
/// `golden_solve.rs` solves it. `distance_evals` is a count: it repeats
/// exactly, on every machine and at every thread count.
#[test]
fn pruning_skips_most_of_the_scan_on_the_golden_coreset() {
    let mut rng = StdRng::seed_from_u64(1301);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 20_000,
            d: 20,
            kappa: 40,
            gamma: 1.0,
            ..Default::default()
        },
    );
    let params = CompressionParams::with_scalar(40, 40, CostKind::KMeans).unwrap();
    let coreset = FastCoreset::default().compress(&mut StdRng::seed_from_u64(1302), &data, &params);
    assert_eq!(coreset.len(), 1_442);

    let solution = Solver::Lloyd
        .solve(
            &mut StdRng::seed_from_u64(1325),
            coreset.dataset(),
            40,
            CostKind::KMeans,
            &SolveConfig::default(),
        )
        .unwrap();
    let scan = (1_442 * 40 * (solution.rounds + 1)) as u64;
    assert_eq!((solution.rounds, solution.distance_evals), (6, 68_565));
    assert!(
        (solution.distance_evals as f64) < 0.3 * scan as f64,
        "{} of {scan} distances measured",
        solution.distance_evals
    );
}

fn four_blobs() -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..200 {
            flat.push(b as f64 * 100.0 + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

/// `(rounds, distances measured, distances a plain scan would measure)`
/// from a Prometheus scrape.
fn effort(scrape: &str) -> (u64, u64, u64) {
    let read = |name: &str| {
        scrape
            .lines()
            .find_map(|line| line.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} is exported"))
    };
    (
        read("fc_solve_rounds_total "),
        read("fc_solve_distance_evals_total "),
        read("fc_solve_distance_scan_total "),
    )
}

#[test]
fn both_tiers_count_the_solves_they_run_and_not_their_cache_hits() {
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let node =
        ServerHandle::bind("127.0.0.1:0", Engine::new(EngineConfig::default()).unwrap()).unwrap();
    let coordinator = Coordinator::new(CoordinatorConfig::new([node.addr().to_string()])).unwrap();
    let tiers: [(&str, &dyn fc_service::Backend, &dyn Fn() -> String); 2] = [
        ("engine", &engine, &|| engine.render_prometheus()),
        ("coordinator", &coordinator, &|| {
            coordinator.render_prometheus()
        }),
    ];
    for (tier, backend, scrape) in tiers {
        backend
            .ingest("blobs", &four_blobs(), None, None, None)
            .unwrap();
        assert_eq!(effort(&scrape()), (0, 0, 0), "{tier}: nothing solved yet");
        let served = backend
            .cluster("blobs", Some(4), None, None, Some(11))
            .unwrap();
        let (rounds, evals) = (
            served.solution.rounds as u64,
            served.solution.distance_evals,
        );
        let scan = (served.coreset_points * 4) as u64 * (rounds + 1);
        assert_eq!(effort(&scrape()), (rounds, evals, scan), "{tier}");
        assert!(rounds >= 1 && evals <= scan, "{tier}: {evals} of {scan}");
        // Same seed, same state: served from the cache, nothing solved.
        backend
            .cluster("blobs", Some(4), None, None, Some(11))
            .unwrap();
        assert_eq!(effort(&scrape()), (rounds, evals, scan), "{tier}: a hit");
    }
    node.shutdown();
}
