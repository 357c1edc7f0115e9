//! Tier parity: the engine and the coordinator answer `coreset` /
//! `cluster` / `cost` through one module (`fc_service::query`) and admit
//! an `ingest` through another (`fc_service::ingest`), so one seeded op
//! script run against an [`Engine`] and against a [`Coordinator`] over one
//! in-process node must resolve the same defaults, refuse the same
//! requests with the same errors, acknowledge the same totals, assign the
//! same seeds, and move the cache counters by the same amounts.
//!
//! The payloads themselves are *not* compared: the coordinator's summary
//! is a re-compression of its node's, a different (equally valid) coreset.

use fast_coresets::prelude::*;
use fc_service::protocol::IngestIdent;
use fc_service::{Backend, EngineError};

fn four_blobs(n_per: usize, offset: f64) -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..n_per {
            flat.push(offset + b as f64 * 100.0 + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

enum Op {
    /// Under the script's plan, unidentified.
    Ingest(&'static str, Dataset),
    /// Under a plan of its own (or none), as `(producer, seq)` when given.
    IngestAs(&'static str, Dataset, Option<Plan>, Option<u64>),
    Coreset(&'static str, Option<u64>, Option<Method>),
    Cluster(
        &'static str,
        Option<usize>,
        Option<CostKind>,
        Option<Solver>,
        Option<u64>,
    ),
    Cost(&'static str, Points, Option<CostKind>),
    Drop(&'static str),
}

/// What one op resolved to — everything but the payload — or its error.
fn apply(backend: &dyn Backend, plan: &Plan, op: &Op) -> Result<String, EngineError> {
    Ok(match op {
        Op::Ingest(name, batch) => {
            let outcome = backend.ingest(name, batch, Some(plan), None, None)?;
            format!("ingested, {} points in all", outcome.total_points)
        }
        Op::IngestAs(name, batch, plan, seq) => {
            let ident = seq.map(|seq| IngestIdent {
                client: "producer".to_owned(),
                seq,
            });
            let outcome = backend.ingest(name, batch, plan.as_ref(), ident.as_ref(), None)?;
            format!("{outcome:?}")
        }
        Op::Coreset(name, seed, method) => {
            let (coreset, seed, method) = backend.coreset(name, *seed, method.as_ref())?;
            assert!(coreset.len() <= plan.m());
            format!("coreset under seed {seed}, method {method}")
        }
        Op::Cluster(name, k, kind, solver, seed) => {
            let served = backend.cluster(name, *k, *kind, *solver, *seed)?;
            format!(
                "{} centers, {:?} by {}, seed {}",
                served.solution.k(),
                served.kind,
                served.solver,
                served.seed
            )
        }
        Op::Cost(name, centers, kind) => {
            let (cost, kind, _) = backend.cost(name, centers, *kind)?;
            assert!(cost.is_finite());
            format!("priced under {kind:?}")
        }
        Op::Drop(name) => {
            backend.drop_dataset(name)?;
            "dropped".to_owned()
        }
    })
}

fn probes(backend: &dyn Backend) -> (u64, u64) {
    let stats = backend.server_stats().expect("both tiers report stats");
    (stats.cache_hits, stats.cache_misses)
}

#[test]
fn engine_and_coordinator_resolve_refuse_seed_and_count_alike() {
    let plan = PlanBuilder::new(3)
        .m_scalar(20)
        .method(Method::Uniform)
        .build()
        .unwrap();
    let engine = Engine::new(EngineConfig::default()).unwrap();
    let node =
        ServerHandle::bind("127.0.0.1:0", Engine::new(EngineConfig::default()).unwrap()).unwrap();
    let coordinator = Coordinator::new(CoordinatorConfig::new([node.addr().to_string()])).unwrap();

    let centers = Points::from_flat(vec![0.0, 0.0, 100.0, 0.0, 200.0, 0.0], 2).unwrap();
    let wrong_dim = Points::from_flat(vec![0.0, 0.0, 100.0, 0.0, 200.0, 0.0], 3).unwrap();
    let other_plan = PlanBuilder::new(4)
        .m_scalar(10)
        .method(Method::Uniform)
        .build()
        .unwrap();
    let three_d = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3).unwrap();
    let empty = Dataset::from_flat(vec![], 2).unwrap();
    let script = [
        Op::Coreset("blobs", Some(1), None),
        Op::Ingest("blobs", four_blobs(100, 0.0)),
        // Seeded and unseeded serving compressions, with and without a
        // method override.
        Op::Coreset("blobs", Some(1), None),
        Op::Coreset("blobs", Some(1), None),
        Op::Coreset("blobs", None, None),
        Op::Coreset("blobs", Some(1), Some(Method::Lightweight)),
        // Clustering: plan defaults, a repeat (hit), the serving coreset
        // the miss stored, overrides, an unseeded ask.
        Op::Cluster("blobs", None, None, None, Some(7)),
        Op::Cluster("blobs", None, None, None, Some(7)),
        Op::Coreset("blobs", Some(7), None),
        Op::Cluster(
            "blobs",
            Some(2),
            Some(CostKind::KMedian),
            Some(Solver::KMedianWeiszfeld),
            Some(7),
        ),
        Op::Cluster("blobs", None, None, None, None),
        // Refusals: no work, no seed consumed, no probe.
        Op::Cluster("blobs", Some(0), None, None, Some(7)),
        Op::Cluster(
            "blobs",
            None,
            Some(CostKind::KMedian),
            Some(Solver::Hamerly),
            None,
        ),
        Op::Cost("blobs", wrong_dim.clone(), None),
        Op::Cluster("ghost", None, None, None, Some(7)),
        Op::Cost("ghost", centers.clone(), None),
        Op::Coreset("blobs", None, None),
        // Pricing: a miss, a hit, an objective override.
        Op::Cost("blobs", centers.clone(), None),
        Op::Cost("blobs", centers.clone(), None),
        Op::Cost("blobs", centers.clone(), Some(CostKind::KMedian)),
        // An ingest moves the state: same asks, fresh answers.
        Op::Ingest("blobs", four_blobs(40, 0.5)),
        Op::Cluster("blobs", None, None, None, Some(7)),
        Op::Cost("blobs", centers.clone(), None),
        // A dropped generation never resurfaces.
        Op::Drop("blobs"),
        Op::Coreset("blobs", Some(1), None),
        Op::Drop("blobs"),
        Op::Ingest("blobs", four_blobs(60, 1000.0)),
        Op::Coreset("blobs", Some(1), None),
        Op::Cluster("blobs", None, None, None, Some(7)),
        Op::Cost("blobs", centers, None),
        // The write side. An identified batch, then its retry: applied
        // once, acknowledged twice with the same totals.
        Op::IngestAs("blobs", four_blobs(10, 0.0), Some(plan.clone()), Some(1)),
        Op::IngestAs("blobs", four_blobs(10, 0.0), Some(plan.clone()), Some(1)),
        Op::IngestAs("blobs", four_blobs(10, 0.0), None, Some(2)),
        // Refusals, in one order: empty, then dimension, then plan — a
        // batch wrong on both counts is a dimension mismatch on both
        // tiers, and a refusal outranks the duplicate acknowledgement.
        Op::IngestAs("blobs", four_blobs(10, 0.0), Some(other_plan.clone()), None),
        Op::IngestAs("blobs", three_d.clone(), None, None),
        Op::IngestAs("blobs", three_d.clone(), Some(other_plan.clone()), Some(1)),
        Op::IngestAs("blobs", empty.clone(), Some(other_plan.clone()), Some(1)),
        Op::IngestAs("ghost", empty, None, None),
        Op::Coreset("ghost", Some(1), None),
        // Drop and re-create: nothing of the old generation is pinned —
        // not its dimension, not its plan, not its watermark.
        Op::Drop("blobs"),
        Op::IngestAs("blobs", three_d.clone(), Some(other_plan.clone()), Some(1)),
        Op::IngestAs("blobs", three_d, Some(other_plan), Some(1)),
        Op::Cost("blobs", wrong_dim, None),
    ];

    for (step, op) in script.iter().enumerate() {
        let (engine_before, fleet_before) = (probes(&engine), probes(&coordinator));
        let on_engine = apply(&engine, &plan, op);
        let on_fleet = apply(&coordinator, &plan, op);
        assert_eq!(on_engine, on_fleet, "step {step} answered differently");

        let delta =
            |before: (u64, u64), after: (u64, u64)| (after.0 - before.0, after.1 - before.1);
        let engine_delta = delta(engine_before, probes(&engine));
        let fleet_delta = delta(fleet_before, probes(&coordinator));
        // The counters count probes, by one rule. The one place the tiers
        // differ is the thing a tier is allowed to override: on a `cost`
        // miss the engine prices locally, so it looks up its base-seed
        // summary as well (a miss the first time, a hit from then on);
        // the coordinator ships the centers to its nodes and looks up
        // nothing more.
        let priced_locally = matches!(op, Op::Cost(..)) && fleet_delta == (0, 1);
        if priced_locally {
            assert!(
                engine_delta == (0, 2) || engine_delta == (1, 1),
                "step {step}: engine {engine_delta:?} vs coordinator {fleet_delta:?}"
            );
        } else {
            assert_eq!(engine_delta, fleet_delta, "step {step} counted differently");
        }
    }
    node.shutdown();
}
