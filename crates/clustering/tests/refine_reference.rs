//! `lloyd::refine` and `kmeanspp` against the plain loops they replaced.
//!
//! `refine`'s assignment step skips every distance its bounds prove
//! unchanged; the contract is that nobody can tell. The reference below is
//! the previous `refine` kept verbatim — a full `assign` scan every round —
//! with two deliberate differences: the cost fix (it reports the cost of
//! the centres it returns) and the stop rule, which follows
//! `LloydConfig::stop`. Every case must match it in every centre bit, every
//! label, the cost bits and the round it stopped at, at every group count
//! and thread count.
//!
//! Seeding skips distances too, and scores points in the pass that
//! assigns them; its reference rescans and rescores every round.

use fc_clustering::assign::{assign, group_count, Assignment};
use fc_clustering::cost::cost;
use fc_clustering::kmeanspp::kmeanspp;
use fc_clustering::kmedian::{geometric_median, weighted_means_by_label, WeiszfeldConfig};
use fc_clustering::lloyd::{refine, refine_with_groups, solve, LloydConfig, Stop};
use fc_clustering::{CostKind, SolveConfig, Solver};
use fc_geom::sampling::AliasTable;
use fc_geom::{par, Dataset, Points};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the reference returns: centres, labels, cost, rounds run.
struct Reference {
    centers: Points,
    labels: Vec<usize>,
    cost: f64,
    rounds: usize,
}

fn reference_refine(
    data: &Dataset,
    initial: Points,
    kind: CostKind,
    cfg: LloydConfig,
) -> Reference {
    let k = initial.len();
    let mut centers = initial;
    let mut assignment = assign(data.points(), &centers, kind);
    let mut current_cost = assignment.total_cost(data.weights());
    let mut rounds = 0;
    for _ in 0..cfg.max_iters {
        rounds += 1;
        centers = reference_centers(data, &assignment, k, kind, cfg.weiszfeld, &centers);
        assignment = assign(data.points(), &centers, kind);
        let new_cost = assignment.total_cost(data.weights());
        let improved = current_cost - new_cost;
        // A cluster more than twice as wide as the median one holds the
        // derived stop to its tighter tolerance.
        let mut sums = vec![(0.0, 0.0); k];
        for ((&label, &c), &w) in (assignment.labels.iter())
            .zip(&assignment.cost_z)
            .zip(data.weights())
        {
            sums[label].0 += c * w;
            sums[label].1 += w;
        }
        let mut widths: Vec<f64> = (sums.iter())
            .filter(|s| s.1 > 0.0)
            .map(|s| s.0 / s.1)
            .collect();
        widths.sort_by(f64::total_cmp);
        let wide = !widths.is_empty() && widths[widths.len() - 1] > 2.0 * widths[widths.len() / 2];
        let tol = match cfg.stop {
            Stop::Resolved if wide => k as f64 / (1024 * data.len()) as f64,
            Stop::Resolved => k as f64 / (4 * data.len()) as f64,
            Stop::Converged => 0.0,
        };
        let stop = new_cost <= 0.0 || improved <= tol * current_cost.max(f64::MIN_POSITIVE);
        // The fix: what is reported is the cost of what is returned.
        current_cost = new_cost;
        if stop {
            break;
        }
    }
    Reference {
        centers,
        labels: assignment.labels,
        cost: current_cost,
        rounds,
    }
}

fn reference_centers(
    data: &Dataset,
    assignment: &Assignment,
    k: usize,
    kind: CostKind,
    weiszfeld: WeiszfeldConfig,
    previous: &Points,
) -> Points {
    let clusters = assignment.clusters(k);
    let points = data.points();
    let weights = data.weights();
    let cluster_ok: Vec<bool> = clusters
        .iter()
        .map(|members| members.iter().any(|&i| weights[i] > 0.0))
        .collect();
    let mut reseed = if cluster_ok.iter().all(|&ok| ok) {
        None
    } else {
        let mut worst: Vec<usize> = (0..points.len()).collect();
        worst.sort_by(|&a, &b| {
            let ca = assignment.cost_z[a] * weights[a];
            let cb = assignment.cost_z[b] * weights[b];
            cb.partial_cmp(&ca).expect("costs are finite")
        });
        Some(worst.into_iter())
    };
    let computed: Vec<Vec<f64>> = match kind {
        CostKind::KMeans => weighted_means_by_label(points, weights, &assignment.labels, k),
        CostKind::KMedian => clusters
            .iter()
            .map(|members| geometric_median(points, weights, members, weiszfeld))
            .collect(),
    };
    let mut centers = Points::empty(points.dim());
    for (j, &ok) in cluster_ok.iter().enumerate() {
        let center = if ok {
            computed[j].clone()
        } else {
            match reseed.as_mut().and_then(|it| it.next()) {
                Some(i) => points.row(i).to_vec(),
                None => previous.row(j).to_vec(),
            }
        };
        centers.push(&center).unwrap();
    }
    centers
}

/// Every `dispatch_dim!` arm of the distance kernels, and the generic path
/// on both sides of a lane boundary.
const DIMS: [usize; 12] = [1, 2, 3, 4, 5, 8, 16, 20, 24, 32, 64, 65];

/// Coordinate scalings that put distances next to and beyond the range in
/// which a bound may prune (`1e-140 ..= 1e140`), or far from the origin.
#[derive(Debug, Clone, Copy)]
enum Frame {
    Plain,
    Offset(f64),
    Scaled(f64),
}

#[derive(Debug, Clone)]
struct Case {
    dim: usize,
    n: usize,
    k: usize,
    /// Distinct locations the points are drawn from (`≥ n`: all distinct).
    locations: usize,
    /// Integer coordinates in a small range: exact ties between centres.
    lattice: bool,
    frame: Frame,
    zero_weights: bool,
    /// Initial centres: 0 = k-means++, 1 = uniformly drawn data points
    /// (repeats leave clusters empty), 2 = the first also pushed far away.
    init: u8,
    kind: CostKind,
    cfg: LloydConfig,
    seed: u64,
}

fn case_strategy(max_n: usize) -> impl Strategy<Value = Case> {
    let shape = (
        0..DIMS.len(),
        1..max_n,
        1usize..24,
        0usize..4,
        any::<bool>(),
    );
    let knobs = (0usize..8, 0usize..10, 0u8..3, any::<bool>(), 0usize..16);
    (shape, knobs, any::<u64>()).prop_map(
        |((dim, n, k, few, lattice), (frame, zero, init, kmedian, iters), seed)| Case {
            dim: DIMS[dim],
            n,
            k,
            // A quarter of the cases draw from fewer locations than k.
            locations: if few == 0 {
                (k / 2).max(1)
            } else {
                n * (few - 1) + 7
            },
            lattice,
            frame: match frame {
                0 => Frame::Offset(1e7),
                1 => Frame::Scaled(1e-150),
                2 => Frame::Scaled(1e-141),
                3 => Frame::Scaled(1e139),
                4 => Frame::Scaled(1e150),
                _ => Frame::Plain,
            },
            zero_weights: zero == 0,
            init,
            kind: if kmedian {
                CostKind::KMedian
            } else {
                CostKind::KMeans
            },
            cfg: match iters {
                0 => LloydConfig::fixed(0),
                1..=9 => LloydConfig::fixed(iters),
                _ => LloydConfig::default(),
            },
            seed,
        },
    )
}

fn build(case: &Case) -> (Dataset, Points) {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let dim = case.dim;
    let coordinate = |rng: &mut StdRng, blob: usize| -> f64 {
        let raw = if case.lattice {
            rng.gen_range(0..4) as f64
        } else {
            (blob % 5) as f64 * 4.0 + rng.gen::<f64>()
        };
        match case.frame {
            Frame::Plain => raw,
            Frame::Offset(by) => raw + by,
            Frame::Scaled(by) => raw * by,
        }
    };
    let locations: Vec<Vec<f64>> = (0..case.locations.min(case.n))
        .map(|l| (0..dim).map(|_| coordinate(&mut rng, l)).collect())
        .collect();
    let mut flat = Vec::with_capacity(case.n * dim);
    for i in 0..case.n {
        let l = if case.locations >= case.n {
            i
        } else {
            rng.gen_range(0..locations.len())
        };
        flat.extend_from_slice(&locations[l]);
    }
    let weights = (0..case.n)
        .map(|_| {
            if case.zero_weights && rng.gen_range(0..10) == 0 {
                0.0
            } else {
                0.25 + 8.0 * rng.gen::<f64>()
            }
        })
        .collect();
    let data = Dataset::weighted(Points::from_flat(flat, dim).unwrap(), weights).unwrap();
    let mut initial = match case.init {
        0 => kmeanspp(&mut rng, &data, case.k, case.kind).centers,
        _ => {
            let mut centers = Points::empty(dim);
            for _ in 0..case.k {
                centers.push(data.point(rng.gen_range(0..case.n))).unwrap();
            }
            centers
        }
    };
    if case.init == 2 {
        for x in initial.row_mut(0) {
            *x = *x * 64.0 + 1.0;
        }
    }
    (data, initial)
}

fn bits(points: &Points) -> Vec<u64> {
    points.as_flat().iter().map(|x| x.to_bits()).collect()
}

fn check(case: &Case) -> Result<(), TestCaseError> {
    let (data, initial) = build(case);
    let (n, k) = (data.len(), initial.len());
    let want = par::with_threads(1, || {
        reference_refine(&data, initial.clone(), case.kind, case.cfg)
    });
    let scan = (n * k * (want.rounds + 1)) as u64;
    for groups in [1, group_count(n, k), k] {
        for threads in [1usize, 8] {
            let got = par::with_threads(threads, || {
                refine_with_groups(&data, initial.clone(), case.kind, case.cfg, groups)
            });
            let at = format!("groups {groups}, {threads} threads, {case:?}");
            prop_assert_eq!(got.rounds, want.rounds, "rounds: {}", at);
            prop_assert_eq!(&got.labels, &want.labels, "labels: {}", at);
            prop_assert_eq!(bits(&got.centers), bits(&want.centers), "centres: {}", at);
            prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "cost: {}", at);
            prop_assert!(
                (n * k) as u64 <= got.distance_evals && got.distance_evals <= scan,
                "{} evaluations outside [{}, {scan}]: {at}",
                got.distance_evals,
                n * k
            );
        }
    }
    // The cost fix: the reported cost prices the returned centres.
    let direct = cost(&data, &want.centers, case.kind);
    prop_assert!(
        want.cost == direct || (want.cost - direct).abs() <= 1e-12 * direct,
        "reported {} vs direct {direct}: {case:?}",
        want.cost
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn refine_is_the_reference_loop_bit_for_bit(case in case_strategy(160)) {
        check(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Several `par` chunks, so bounds cross chunk boundaries and threads.
    #[test]
    fn refine_is_the_reference_loop_across_chunks(case in case_strategy(2600)) {
        check(&Case { n: case.n + 2 * par::CHUNK_POINTS, dim: case.dim.min(8), ..case })?;
    }
}

/// The derived group count is what `refine` itself uses.
#[test]
fn refine_uses_the_derived_group_count() {
    let case = Case {
        dim: 3,
        n: 900,
        k: 37,
        locations: usize::MAX,
        lattice: false,
        frame: Frame::Plain,
        zero_weights: false,
        init: 0,
        kind: CostKind::KMeans,
        cfg: LloydConfig::default(),
        seed: 5,
    };
    let (data, initial) = build(&case);
    assert_eq!(group_count(900, 37), 4);
    let derived = refine_with_groups(&data, initial.clone(), case.kind, case.cfg, 4);
    let plain = refine(&data, initial, case.kind, case.cfg);
    assert_eq!(plain.distance_evals, derived.distance_evals);
    assert_eq!(bits(&plain.centers), bits(&derived.centers));
    // Pruning is real on an ordinary input, not merely permitted.
    let scan = (900 * 37 * (plain.rounds + 1)) as u64;
    assert!(
        plain.distance_evals * 2 < scan,
        "{} of {scan} distances evaluated",
        plain.distance_evals
    );
}

/// The dimensions the seeded solve is held at: the unrolled kernels, the
/// generic path, and `batch-frontier`'s 20.
const SOLVE_DIMS: [usize; 7] = [1, 2, 3, 8, 16, 20, 33];

/// Every third point's weight multiplied by 1e300.
fn heavier(data: Dataset) -> Dataset {
    let weights = (data.weights().iter().enumerate())
        .map(|(i, &w)| if i % 3 == 0 { w * 1e300 } else { w })
        .collect();
    Dataset::weighted(data.points().clone(), weights).unwrap()
}

/// `lloyd::solve` and `Solver::Lloyd.solve` resume from the labels and
/// bounds k-means++ kept instead of scanning; the contract is again that
/// nobody can tell. Both must match k-means++ followed by the reference
/// loop in every label, centre bit, cost bit, the round they stopped at and
/// the RNG draw that follows, at 1 and 8 threads. `heavy` puts every third
/// point's weight near 1e300.
fn check_solve(case: &Case, heavy: bool) -> Result<(), TestCaseError> {
    let (data, _) = build(case);
    let data = if heavy { heavier(data) } else { data };
    let seed = case.seed ^ 0x5eed;
    let (want, want_next) = par::with_threads(1, || {
        let mut rng = StdRng::seed_from_u64(seed);
        let seeding = kmeanspp(&mut rng, &data, case.k, case.kind);
        let want = reference_refine(&data, seeding.centers, case.kind, case.cfg);
        (want, rng.gen::<u64>())
    });
    let (n, k) = (data.len(), want.centers.len());
    // Seeding's `n · k` stands in for the first scan, unless it ran out of
    // distinct points before `min(k, n)` centres and the first round scans.
    let first_scan = if k < case.k.min(n) { n * k } else { 0 };
    let scan = (n * k * (want.rounds + 1) + first_scan) as u64;
    let cfg = SolveConfig { lloyd: case.cfg };
    for threads in [1usize, 8] {
        for through_solver in [false, true] {
            let (got, next) = par::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(seed);
                let got = if through_solver {
                    Solver::Lloyd
                        .solve(&mut rng, &data, case.k, case.kind, &cfg)
                        .unwrap()
                } else {
                    solve(&mut rng, &data, case.k, case.kind, case.cfg)
                };
                (got, rng.gen::<u64>())
            });
            let at = format!("solver {through_solver}, {threads} threads, heavy {heavy}, {case:?}");
            prop_assert_eq!(got.rounds, want.rounds, "rounds: {}", at);
            prop_assert_eq!(&got.labels, &want.labels, "labels: {}", at);
            prop_assert_eq!(bits(&got.centers), bits(&want.centers), "centres: {}", at);
            prop_assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "cost: {}", at);
            prop_assert_eq!(next, want_next, "next draw: {}", at);
            prop_assert!(
                n as u64 <= got.distance_evals && got.distance_evals <= scan,
                "{} evaluations outside [{n}, {scan}]: {at}",
                got.distance_evals
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn seeded_solve_is_kmeanspp_then_the_reference_loop(
        case in case_strategy(200),
        dim in 0..SOLVE_DIMS.len(),
        frame in 0usize..4,
        heavy in any::<bool>(),
    ) {
        let frame = match frame {
            0 => Frame::Offset(1e7),
            1 => Frame::Scaled(1e-150),
            _ => Frame::Plain,
        };
        // Random initial centres are cheaper to draw than a second seeding,
        // and `check_solve` does not use them.
        let case = Case { dim: SOLVE_DIMS[dim], frame, init: 1, ..case };
        check_solve(&case, heavy)?;
    }
}

/// What the seeding reference returns: the chosen indices, the labels and
/// the squared distances of the last scan.
struct ReferenceSeeding {
    chosen: Vec<usize>,
    labels: Vec<usize>,
    min_sq: Vec<f64>,
}

/// k-means++ as the plain loop: every round rescans every point against
/// every centre chosen so far, rescores it, sums the scores per
/// `par::CHUNK_POINTS` chunk and the chunk totals in chunk order, and
/// draws the next centre by the same sequential walk.
fn reference_kmeanspp(
    rng: &mut StdRng,
    data: &Dataset,
    k: usize,
    kind: CostKind,
) -> ReferenceSeeding {
    let first = AliasTable::new(data.weights())
        .map(|t| t.sample(rng))
        .unwrap_or(0);
    let mut chosen = vec![first];
    loop {
        let mut centers = Points::empty(data.dim());
        for &c in &chosen {
            centers.push(data.point(c)).unwrap();
        }
        // Under k-means `cost_z` is the squared distance.
        let scan = assign(data.points(), &centers, CostKind::KMeans);
        let done = |chosen| ReferenceSeeding {
            chosen,
            labels: scan.labels.clone(),
            min_sq: scan.cost_z.clone(),
        };
        if chosen.len() == k {
            return done(chosen);
        }
        let scores: Vec<f64> = (scan.cost_z.iter().zip(data.weights()))
            .map(|(&sq, &w)| w * kind.from_sq(sq))
            .collect();
        let totals: Vec<f64> = (scores.chunks(par::CHUNK_POINTS))
            .map(|chunk| {
                let mut total = 0.0;
                for &s in chunk {
                    total += s;
                }
                total
            })
            .collect();
        let total: f64 = totals.into_iter().sum();
        if total <= 0.0 {
            return done(chosen);
        }
        let mut target = rng.gen::<f64>() * total;
        let mut next = data.len() - 1;
        for (i, &s) in scores.iter().enumerate() {
            if target < s {
                next = i;
                break;
            }
            target -= s;
        }
        chosen.push(next);
    }
}

/// `kmeanspp` against the reference in the chosen indices, every label,
/// every squared-distance bit and the RNG draw that follows, at 1 and 8
/// threads.
fn check_seeding(case: &Case, heavy: bool) -> Result<(), TestCaseError> {
    let (data, _) = build(case);
    let data = if heavy { heavier(data) } else { data };
    let seed = case.seed ^ 0x5eed;
    let mut rng = StdRng::seed_from_u64(seed);
    let want = reference_kmeanspp(&mut rng, &data, case.k, case.kind);
    let want_next = rng.gen::<u64>();
    for threads in [1usize, 8] {
        let (got, next) = par::with_threads(threads, || {
            let mut rng = StdRng::seed_from_u64(seed);
            let got = kmeanspp(&mut rng, &data, case.k, case.kind);
            (got, rng.gen::<u64>())
        });
        let at = format!("{threads} threads, heavy {heavy}, {case:?}");
        prop_assert_eq!(&got.chosen, &want.chosen, "chosen: {}", at);
        prop_assert_eq!(&got.labels, &want.labels, "labels: {}", at);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got.min_sq), bits(&want.min_sq), "min_sq: {}", at);
        prop_assert_eq!(next, want_next, "next draw: {}", at);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn kmeanspp_is_the_reference_seeding_bit_for_bit(
        case in case_strategy(200),
        heavy in any::<bool>(),
    ) {
        check_seeding(&case, heavy)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Several chunks, so the score totals are merged across chunks and
    /// threads.
    #[test]
    fn kmeanspp_is_the_reference_seeding_across_chunks(
        case in case_strategy(2600),
        heavy in any::<bool>(),
    ) {
        check_seeding(&Case { n: case.n + 2 * par::CHUNK_POINTS, dim: case.dim.min(8), ..case }, heavy)?;
    }
}

/// `fixed(r)` runs its `r` rounds where the derived stop ends sooner, so
/// an evaluation pinned to a round count does not move with its input.
#[test]
fn fixed_runs_every_round_where_the_derived_stop_ends_sooner() {
    // Here the derived stop ends after 4 rounds and the refinement
    // converges only in its 17th.
    let case = Case {
        dim: 8,
        n: 1_000,
        k: 50,
        locations: usize::MAX,
        lattice: false,
        frame: Frame::Plain,
        zero_weights: false,
        init: 1,
        kind: CostKind::KMeans,
        cfg: LloydConfig::default(),
        seed: 18,
    };
    let (data, _) = build(&case);
    let run = |cfg| solve(&mut StdRng::seed_from_u64(3), &data, case.k, case.kind, cfg);
    let derived = run(LloydConfig::default());
    let fixed = run(LloydConfig::fixed(16));
    assert!(derived.rounds < 16, "derived stop ran {}", derived.rounds);
    assert_eq!(fixed.rounds, 16);
    assert!(fixed.cost < derived.cost);
}
