//! Property-based freshness of the query cache: for any interleaving of
//! ingests, queries, and drops, an engine with caching on answers
//! byte-for-byte what an engine with caching off answers. The cached
//! engine re-asks the same few seeds constantly (so it *does* serve
//! hits — asserted at the end) and runs at a tiny capacity (so LRU
//! eviction churns), yet no stale answer may ever surface: versions
//! move the keys on every applied ingest and instance ids retire them
//! on every drop. The coordinator runs the same query path, so it is
//! held to the same property by the same op generator.

use fc_cluster::{Coordinator, CoordinatorConfig};
use fc_clustering::CostKind;
use fc_geom::{Dataset, Points};
use fc_service::{Backend, Engine, EngineConfig, ServerHandle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of the interleaving. Dataset names come from a pool of two
/// so drops and re-creations collide on the same name; query seeds come
/// from a pool of three so identical asks repeat and the cached engine
/// actually serves hits.
#[derive(Debug, Clone)]
enum Op {
    Ingest {
        dataset: usize,
        batch_seed: u64,
        points: usize,
    },
    Coreset {
        dataset: usize,
        seed: u64,
    },
    Cluster {
        dataset: usize,
        seed: u64,
    },
    Cost {
        dataset: usize,
    },
    Drop {
        dataset: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..2, any::<u64>(), 5usize..40)
            .prop_map(|(dataset, batch_seed, points)| Op::Ingest { dataset, batch_seed, points }),
        2 => (0usize..2, 0u64..3).prop_map(|(dataset, seed)| Op::Coreset { dataset, seed }),
        2 => (0usize..2, 0u64..3).prop_map(|(dataset, seed)| Op::Cluster { dataset, seed }),
        1 => (0usize..2).prop_map(|dataset| Op::Cost { dataset }),
        1 => (0usize..2).prop_map(|dataset| Op::Drop { dataset }),
    ]
}

fn batch(seed: u64, points: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let flat = (0..points * 2).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(flat, 2).unwrap()
}

fn config(cache_capacity: usize) -> EngineConfig {
    EngineConfig {
        shards: 2,
        k: 3,
        m_scalar: 8,
        cache_capacity,
        ..Default::default()
    }
}

fn engine(cache_capacity: usize) -> Engine {
    Engine::new(config(cache_capacity)).unwrap()
}

/// A coordinator over `nodes`, planning like [`engine`].
fn coordinator(nodes: &[ServerHandle], cache_capacity: usize) -> Coordinator {
    Coordinator::new(CoordinatorConfig {
        default_plan: config(0).default_plan().unwrap(),
        cache_capacity,
        ..CoordinatorConfig::new(nodes.iter().map(|n| n.addr().to_string()))
    })
    .unwrap()
}

/// A comparable rendering of one op's outcome on one backend: success
/// payloads bit-for-bit (float bit patterns via `{:?}`), errors by
/// message. The cached and the uncached backend must produce the same
/// string at every step.
fn apply(engine: &dyn Backend, op: &Op) -> String {
    let name = |dataset: &usize| ["alpha", "beta"][*dataset].to_string();
    match op {
        Op::Ingest {
            dataset,
            batch_seed,
            points,
        } => {
            format!(
                "{:?}",
                engine.ingest(
                    &name(dataset),
                    &batch(*batch_seed, *points),
                    None,
                    None,
                    None
                )
            )
        }
        Op::Coreset { dataset, seed } => {
            format!("{:?}", engine.coreset(&name(dataset), Some(*seed), None))
        }
        Op::Cluster { dataset, seed } => format!(
            "{:?}",
            engine
                .cluster(&name(dataset), None, None, None, Some(*seed))
                .map(|o| {
                    let centers: Vec<u64> = o
                        .solution
                        .centers
                        .as_flat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    (
                        centers,
                        o.solution.labels,
                        o.solution.cost.to_bits(),
                        o.coreset_points,
                        o.seed,
                    )
                })
        ),
        Op::Cost { dataset } => {
            let centers = Points::from_flat(vec![10.0, 10.0, 50.0, 50.0, 90.0, 90.0], 2).unwrap();
            format!(
                "{:?}",
                engine
                    .cost(&name(dataset), &centers, Some(CostKind::KMeans))
                    .map(|(cost, kind, pts)| (cost.to_bits(), kind, pts))
            )
        }
        Op::Drop { dataset } => format!("{:?}", engine.drop_dataset(&name(dataset))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The freshness property itself, plus a meta-check that the runs
    /// exercised the cache at all (otherwise the property is vacuous).
    #[test]
    fn cached_engine_never_serves_a_stale_answer(ops in prop::collection::vec(op(), 1..28)) {
        // Capacity 2 keeps the LRU churning; capacity 0 is the reference
        // engine that provably cannot serve a cached answer.
        let cached = engine(2);
        let uncached = engine(0);
        let mut query_succeeded = false;
        for (step, op) in ops.iter().enumerate() {
            let got = apply(&cached, op);
            let want = apply(&uncached, op);
            if matches!(op, Op::Coreset { .. } | Op::Cluster { .. } | Op::Cost { .. })
                && got.starts_with("Ok")
            {
                query_succeeded = true;
            }
            prop_assert_eq!(
                got, want,
                "step {} ({:?}) diverged between cached and uncached engines", step, op
            );
        }
        // Every served query was either a counted hit or a counted miss —
        // the runs actually exercised the cache.
        if query_succeeded {
            let stats = cached.server_stats();
            prop_assert!(stats.cache_hits + stats.cache_misses > 0);
        }
    }

    /// The same property one tier up. Both coordinators front the *same*
    /// two nodes, so every write reaches the nodes through both — and the
    /// cached coordinator must still never answer from before a write it
    /// forwarded, a drop it issued, or a dataset generation it retired.
    #[test]
    fn cached_coordinator_never_serves_a_stale_answer(ops in prop::collection::vec(op(), 1..28)) {
        let nodes = [
            ServerHandle::bind("127.0.0.1:0", engine(64)).unwrap(),
            ServerHandle::bind("127.0.0.1:0", engine(64)).unwrap(),
        ];
        let cached = coordinator(&nodes, 2);
        let uncached = coordinator(&nodes, 0);
        let mut query_succeeded = false;
        for (step, op) in ops.iter().enumerate() {
            let got = apply(&cached, op);
            let want = apply(&uncached, op);
            if matches!(op, Op::Coreset { .. } | Op::Cluster { .. } | Op::Cost { .. })
                && got.starts_with("Ok")
            {
                query_succeeded = true;
            }
            prop_assert_eq!(
                got, want,
                "step {} ({:?}) diverged between cached and uncached coordinators", step, op
            );
        }
        if query_succeeded {
            let stats = cached.server_stats().unwrap();
            prop_assert!(stats.cache_hits + stats.cache_misses > 0);
        }
        let stats = uncached.server_stats().unwrap();
        prop_assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }
}
