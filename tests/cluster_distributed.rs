//! End-to-end tests for the multi-node tier: a real `fc-coordinator`
//! backend serving the fc-service protocol over TCP, backed by real
//! in-process `fc-server` nodes — the unchanged [`ServiceClient`] drives
//! the whole cluster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fast_coresets::prelude::*;
use fc_cluster::{Coordinator, CoordinatorConfig};
use fc_service::protocol::NodeHealth;
use fc_service::{EngineError, ServerHandle};

fn four_blobs(n_per: usize) -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..n_per {
            flat.push(b as f64 * 100.0 + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

fn node_server(k: usize) -> ServerHandle {
    let engine = Engine::new(EngineConfig {
        k,
        shards: 2,
        ..Default::default()
    })
    .unwrap();
    ServerHandle::bind("127.0.0.1:0", engine).unwrap()
}

/// Binds a coordinator front-end over the given node servers.
fn coordinator_front(nodes: &[&ServerHandle]) -> ServerHandle {
    let config = CoordinatorConfig::new(nodes.iter().map(|n| n.addr().to_string()));
    let coordinator = Coordinator::new(config).unwrap();
    ServerHandle::bind_backend("127.0.0.1:0", Arc::new(coordinator)).unwrap()
}

/// The acceptance path: a client pointed at the coordinator (backed by two
/// real fc-server listeners) ingests with a per-dataset plan, clusters,
/// and reads per-node stats — through the unchanged `ServiceClient` API —
/// and the clustering cost matches a single big server's within the
/// distortion bound.
#[test]
fn coordinator_matches_single_server_within_distortion_bound() {
    let k = 4;
    let bound = fc_service::DISTORTION_BOUND;
    let plan = PlanBuilder::new(k)
        .m_scalar(25)
        .method(Method::FastCoreset)
        .solver(Solver::Lloyd)
        .build()
        .unwrap();
    let data = four_blobs(400);

    // Cluster: two nodes behind a coordinator.
    let node_a = node_server(k);
    let node_b = node_server(k);
    let front = coordinator_front(&[&node_a, &node_b]);
    let mut client = ServiceClient::connect(front.addr()).unwrap();
    for batch in data.chunks(200) {
        client.ingest("blobs", &batch, Some(&plan)).unwrap();
    }

    // Single server: the same data under the same plan.
    let single = node_server(k);
    let mut single_client = ServiceClient::connect(single.addr()).unwrap();
    for batch in data.chunks(200) {
        single_client.ingest("blobs", &batch, Some(&plan)).unwrap();
    }

    // Per-node stats through the wire protocol: identity, health, and a
    // spread of the ingested data across both nodes.
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    assert_eq!(stats.ingested_points, data.len() as u64);
    assert_eq!(stats.plan, plan, "stats echo the per-dataset plan");
    assert_eq!(stats.nodes.len(), 2);
    let addrs: Vec<String> = vec![node_a.addr().to_string(), node_b.addr().to_string()];
    for row in &stats.nodes {
        assert!(addrs.contains(&row.node), "unknown node id {}", row.node);
        assert_eq!(row.health, NodeHealth::Alive);
        assert!(row.ingested_points > 0, "{row:?}");
    }
    assert_eq!(
        stats.nodes.iter().map(|r| r.ingested_points).sum::<u64>(),
        data.len() as u64
    );
    // Single-server stats carry no per-node breakdown.
    assert!(single_client.stats(Some("blobs")).unwrap()[0]
        .nodes
        .is_empty());

    // Both serve a clustering; costs on the full data agree within the
    // distortion bound.
    let from_cluster = client.cluster("blobs", None, None, None, Some(7)).unwrap();
    let from_single = single_client
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    assert_eq!(from_cluster.centers.len(), k, "plan supplies k");
    let cost_cluster = fc_clustering::cost::cost(&data, &from_cluster.centers, CostKind::KMeans);
    let cost_single = fc_clustering::cost::cost(&data, &from_single.centers, CostKind::KMeans);
    let ratio = (cost_cluster / cost_single).max(cost_single / cost_cluster);
    assert!(
        ratio <= bound,
        "coordinator cost {cost_cluster} vs single-server cost {cost_single}: \
         ratio {ratio} exceeds bound {bound}"
    );

    // The coordinator's coreset is a real coreset of the full data: it
    // prices the served centers like the full data does.
    let served_cost = client
        .cost("blobs", &from_cluster.centers, Some(CostKind::KMeans))
        .unwrap();
    let full_ratio = (served_cost / cost_cluster).max(cost_cluster / served_cost);
    assert!(
        full_ratio <= bound,
        "summed node cost {served_cost} vs full cost {cost_cluster}: ratio {full_ratio}"
    );

    // Seeded replay through the coordinator is reproducible.
    let replay = client.cluster("blobs", None, None, None, Some(7)).unwrap();
    assert_eq!(replay.centers, from_cluster.centers);

    front.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    single.shutdown();
}

/// Degraded-cluster behaviour over real TCP with three in-process servers:
/// a node killed mid-session is marked down in `stats`, queries still
/// answer from the survivors, and re-ingest after the node comes back
/// recovers it.
#[test]
fn killed_node_degrades_gracefully_and_recovers_on_reingest() {
    let k = 4;
    let plan = PlanBuilder::new(k)
        .m_scalar(25)
        .method(Method::FastCoreset)
        .build()
        .unwrap();
    let nodes = [node_server(k), node_server(k), node_server(k)];
    let front = coordinator_front(&[&nodes[0], &nodes[1], &nodes[2]]);
    let mut client = ServiceClient::connect(front.addr()).unwrap();
    let data = four_blobs(300);
    for batch in data.chunks(200) {
        client.ingest("blobs", &batch, Some(&plan)).unwrap();
    }
    // Six round-robin blocks over three nodes: everyone holds data.
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    assert!(stats.nodes.iter().all(|r| r.ingested_points > 0));

    // Kill the middle node.
    let [node_a, node_b, node_c] = nodes;
    let dead_addr = node_b.addr();
    node_b.shutdown();

    // Queries still answer, from the survivors.
    let degraded = client.cluster("blobs", None, None, None, Some(3)).unwrap();
    assert_eq!(degraded.centers.len(), k);
    assert!(degraded.coreset_points > 0);

    // The dead node is marked down, with its last error attached.
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    let row = stats
        .nodes
        .iter()
        .find(|r| r.node == dead_addr.to_string())
        .expect("the dead node still appears in stats");
    assert_eq!(row.health, NodeHealth::Down, "{row:?}");
    assert!(row.last_error.is_some(), "{row:?}");
    assert_eq!(row.ingested_points, 0, "a dead node reports nothing");
    // Survivors stay alive and keep their data.
    assert_eq!(
        stats
            .nodes
            .iter()
            .filter(|r| r.health == NodeHealth::Alive && r.ingested_points > 0)
            .count(),
        2
    );

    // Restart a server on the same address (fresh engine — the old state
    // is gone, as after a crash) and re-ingest: the coordinator reconnects
    // and re-creates the dataset there under the forwarded plan.
    let reborn = ServerHandle::bind(
        dead_addr,
        Engine::new(EngineConfig {
            k,
            shards: 2,
            ..Default::default()
        })
        .unwrap(),
    )
    .unwrap();
    for batch in data.chunks(200) {
        client.ingest("blobs", &batch, Some(&plan)).unwrap();
    }
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    let row = stats
        .nodes
        .iter()
        .find(|r| r.node == dead_addr.to_string())
        .unwrap();
    assert_eq!(row.health, NodeHealth::Alive, "{row:?}");
    assert!(
        row.ingested_points > 0,
        "re-ingest must reach the reborn node"
    );
    assert_eq!(
        reborn.engine().dataset_plan("blobs").unwrap(),
        plan,
        "the reborn node re-creates the dataset under the forwarded plan"
    );
    // And queries use all three nodes again.
    let recovered = client.cluster("blobs", None, None, None, Some(5)).unwrap();
    assert_eq!(recovered.centers.len(), k);

    front.shutdown();
    node_a.shutdown();
    node_c.shutdown();
    reborn.shutdown();
}

/// A compressor that parks until released — holds one node's shard worker
/// busy so its bounded queue genuinely fills.
struct Gated {
    release: Arc<AtomicBool>,
}

impl Compressor for Gated {
    fn name(&self) -> &str {
        "gated"
    }

    fn compress(
        &self,
        rng: &mut dyn rand::RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> fc_core::Coreset {
        while !self.release.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Uniform.compress(rng, data, params)
    }
}

/// One overloaded node must not fail cluster writes: the coordinator
/// retries through the bounded backoff, then fails the batch over to a
/// healthy node, and `stats` shows the busy node degraded.
#[test]
fn overloaded_node_fails_over_instead_of_failing_the_write() {
    let release = Arc::new(AtomicBool::new(false));
    let gated = Engine::with_compressor(
        EngineConfig {
            shards: 1,
            shard_queue_depth: 1,
            k: 2,
            m_scalar: 5,
            ..Default::default()
        },
        Arc::new(Gated {
            release: Arc::clone(&release),
        }),
    )
    .unwrap();
    let busy = ServerHandle::bind("127.0.0.1:0", gated).unwrap();
    let healthy = node_server(2);

    let mut config = CoordinatorConfig::new([busy.addr().to_string(), healthy.addr().to_string()]);
    config.retry = RetryPolicy {
        attempts: 2,
        initial_backoff: std::time::Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let front =
        ServerHandle::bind_backend("127.0.0.1:0", Arc::new(Coordinator::new(config).unwrap()))
            .unwrap();
    let mut client = ServiceClient::connect(front.addr()).unwrap();

    // No per-dataset plan: the busy node's gated default compressor stays
    // in play. Every write must succeed — the busy node absorbs at most
    // its queue, everything else fails over to the healthy node.
    let data = four_blobs(100);
    let blocks: Vec<Dataset> = data.chunks(50);
    for block in &blocks {
        client.ingest("blobs", block, None).unwrap();
    }
    // Release the gate so the busy node can drain (and answer stats).
    release.store(true, Ordering::SeqCst);
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    assert_eq!(
        stats.ingested_points,
        data.len() as u64,
        "every block was acknowledged by some node"
    );
    let healthy_row = stats
        .nodes
        .iter()
        .find(|r| r.node == healthy.addr().to_string())
        .unwrap();
    assert!(
        healthy_row.ingested_points >= data.len() as u64 / 2,
        "failover must shift load to the healthy node: {healthy_row:?}"
    );
    // The busy node was marked degraded by the overload (the first stats
    // after recovery still reports the pre-request health).
    let busy_row = stats
        .nodes
        .iter()
        .find(|r| r.node == busy.addr().to_string())
        .unwrap();
    assert_eq!(busy_row.health, NodeHealth::Degraded, "{busy_row:?}");
    assert!(busy_row
        .last_error
        .as_deref()
        .unwrap_or("")
        .contains("overloaded"));
    // A second stats shows it alive again.
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    let busy_row = stats
        .nodes
        .iter()
        .find(|r| r.node == busy.addr().to_string())
        .unwrap();
    assert_eq!(busy_row.health, NodeHealth::Alive, "{busy_row:?}");

    front.shutdown();
    busy.shutdown();
    healthy.shutdown();
}

/// The coordinator memoizes explicitly seeded queries and invalidates by
/// key motion: a repeat ask is a hit, an ingest or a membership epoch
/// bump makes the old answer unmatchable, and auto-assigned seeds never
/// touch the cache (their answers cannot be re-asked).
///
/// The counters count *probes*, by the one rule `fc_service::query` has
/// for both tiers: a seeded `cluster` that misses probes its own key and
/// then its serving coreset's (two misses, both stored — a later
/// `compress` with that seed is a hit), a repeat probes one key and hits.
#[test]
fn coordinator_cache_hits_repeats_and_invalidates_on_ingest_and_epoch() {
    use fc_service::backend::Backend;

    let k = 4;
    let node_a = node_server(k);
    let node_b = node_server(k);
    let config = CoordinatorConfig::new([node_a.addr().to_string(), node_b.addr().to_string()]);
    let coordinator = Coordinator::new(config).unwrap();
    let data = four_blobs(200);
    coordinator.ingest("blobs", &data, None).unwrap();

    // Repeat ask under the same explicit seed: served from the cache,
    // byte-identical to the computed answer.
    let first = coordinator
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    let again = coordinator
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    assert_eq!(
        first.solution.centers.as_flat(),
        again.solution.centers.as_flat()
    );
    let stats = coordinator.server_stats().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2), "{stats:?}");

    // Auto-assigned seeds advance per request: not cacheable, counters
    // untouched.
    coordinator
        .cluster("blobs", None, None, None, None)
        .unwrap();
    let stats = coordinator.server_stats().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2), "{stats:?}");

    // New data bumps the route version: the same ask recomputes.
    coordinator.ingest("blobs", &four_blobs(50), None).unwrap();
    coordinator
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    let stats = coordinator.server_stats().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 4), "{stats:?}");

    // A membership change bumps the fleet epoch: every cached answer for
    // the old fleet shape stops matching.
    let node_c = node_server(k);
    coordinator
        .add_node(&node_c.addr().to_string(), None)
        .unwrap();
    coordinator
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    let stats = coordinator.server_stats().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 6), "{stats:?}");

    // And the re-warmed key hits again while the fleet stays put.
    let again_after_epoch = coordinator
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    let stats = coordinator.server_stats().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 6), "{stats:?}");

    // The cluster miss above stored its serving coreset: asking for that
    // coreset by seed is a hit, byte-identical to a fresh computation.
    let (served, _, _) = coordinator.coreset("blobs", Some(7), None).unwrap();
    let stats = coordinator.server_stats().unwrap();
    assert_eq!((stats.cache_hits, stats.cache_misses), (3, 6), "{stats:?}");
    assert_eq!(served.len(), again_after_epoch.coreset_points);

    node_a.shutdown();
    node_b.shutdown();
    node_c.shutdown();
}

/// Centers are priced only in the dataset's own dimension — on the
/// coordinator exactly as on an engine, and from the cache exactly as on
/// a miss. The flat buffer `[0,0,100,0,200,0]` is asked as 2 × 3-d (wrong
/// shape), as 3 × 2-d (fine), then as 2 × 3-d again: the repeat must not
/// be answered from the 3 × 2-d entry the same bits just stored.
#[test]
fn coordinator_cost_rejects_centers_of_the_wrong_dimension_even_when_cached() {
    use fc_service::backend::Backend;

    let node = node_server(4);
    let coordinator = Coordinator::new(CoordinatorConfig::new([node.addr().to_string()])).unwrap();
    let plan = PlanBuilder::new(4)
        .m_scalar(25)
        .method(Method::Uniform)
        .build()
        .unwrap();
    coordinator
        .ingest("blobs", &four_blobs(100), Some(&plan))
        .unwrap();
    let engine = Engine::new(EngineConfig::default()).unwrap();
    engine
        .ingest("blobs", &four_blobs(100), Some(&plan))
        .unwrap();

    let flat = vec![0.0, 0.0, 100.0, 0.0, 200.0, 0.0];
    let two_by_three = Points::from_flat(flat.clone(), 3).unwrap();
    let three_by_two = Points::from_flat(flat, 2).unwrap();
    let mismatch = EngineError::DimensionMismatch {
        expected: 2,
        got: 3,
    };
    for backend in [&coordinator as &dyn Backend, &engine] {
        assert_eq!(
            backend.cost("blobs", &two_by_three, None).unwrap_err(),
            mismatch
        );
        let (cost, _, _) = backend.cost("blobs", &three_by_two, None).unwrap();
        assert!(cost.is_finite() && cost > 0.0);
        assert_eq!(
            backend.cost("blobs", &two_by_three, None).unwrap_err(),
            mismatch,
            "a cached 3 x 2-d answer must not serve the 2 x 3-d ask"
        );
    }
    node.shutdown();
}

/// A node that completes the TCP handshake and then never answers fails
/// only its own slot of a fan-out: the query answers from the live nodes
/// within the node deadline, and `stats` reports the hung node with the
/// error that failed it.
#[test]
fn hung_node_fails_only_its_own_slot() {
    use fc_cluster::NodeTimeouts;
    use fc_service::backend::Backend;
    use std::time::{Duration, Instant};

    let k = 4;
    let node_a = node_server(k);
    let node_b = node_server(k);
    // Never accepted: the kernel completes the handshake from the
    // backlog, and no byte ever comes back.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let hung_addr = hung.local_addr().unwrap().to_string();
    let mut config = CoordinatorConfig::new([node_a.addr().to_string(), node_b.addr().to_string()]);
    config.timeouts = NodeTimeouts {
        read: Duration::from_millis(300),
        write: Duration::from_millis(300),
        ..NodeTimeouts::default()
    };
    let coordinator = Coordinator::new(config).unwrap();
    for batch in four_blobs(100).chunks(100) {
        coordinator.ingest("blobs", &batch, None).unwrap();
    }
    coordinator.add_node(&hung_addr, None).unwrap();

    let started = Instant::now();
    let (coreset, _, _) = coordinator.coreset("blobs", Some(3), None).unwrap();
    let took = started.elapsed();
    assert!(!coreset.is_empty());
    assert!(
        took < Duration::from_secs(3),
        "the hung node held the fan-out for {took:?}"
    );

    let stats = coordinator.dataset_stats("blobs").unwrap();
    let row = stats
        .nodes
        .iter()
        .find(|r| r.node == hung_addr)
        .expect("the hung node appears in stats");
    // Answering the transport but not the protocol: degraded, not down.
    assert_eq!(row.health, NodeHealth::Degraded, "{row:?}");
    let error = row.last_error.as_deref().unwrap_or_default();
    assert!(error.contains("timed out"), "{row:?}");
    assert_eq!(
        stats.ingested_points, 400,
        "the live nodes hold every point"
    );

    node_a.shutdown();
    node_b.shutdown();
    drop(hung);
}

/// A node backend that takes `delay` over every serving compression and
/// is an ordinary [`Engine`] otherwise.
struct SlowCompress {
    engine: Engine,
    delay: std::time::Duration,
}

impl fc_service::Backend for SlowCompress {
    fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&fc_service::protocol::IngestIdent>,
        epoch: Option<u64>,
    ) -> Result<fc_service::IngestOutcome, EngineError> {
        fc_service::Backend::ingest(&self.engine, name, batch, plan, ident, epoch)
    }

    fn coreset(
        &self,
        name: &str,
        seed: Option<u64>,
        method: Option<&Method>,
    ) -> Result<(fc_core::Coreset, u64, Method), EngineError> {
        std::thread::sleep(self.delay);
        self.engine.coreset(name, seed, method)
    }

    fn cluster(
        &self,
        name: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        solver: Option<Solver>,
        seed: Option<u64>,
    ) -> Result<fc_service::ClusterOutcome, EngineError> {
        self.engine.cluster(name, k, kind, solver, seed)
    }

    fn cost(
        &self,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError> {
        self.engine.cost(name, centers, kind)
    }

    fn dataset_stats(&self, name: &str) -> Result<fc_service::protocol::DatasetStats, EngineError> {
        self.engine.dataset_stats(name)
    }

    fn stats(&self) -> Result<Vec<fc_service::protocol::DatasetStats>, EngineError> {
        self.engine.stats()
    }

    fn drop_dataset(&self, name: &str) -> Result<(), EngineError> {
        self.engine.drop_dataset(name)
    }
}

/// A fan-out runs its nodes concurrently: three nodes that each take
/// 400 ms to compress answer one coordinator `coreset` in well under the
/// 1.2 s a node-by-node walk would need.
#[test]
fn fan_out_runs_its_nodes_concurrently() {
    use fc_service::backend::Backend;
    use std::time::{Duration, Instant};

    let delay = Duration::from_millis(400);
    let nodes: Vec<ServerHandle> = (0..3)
        .map(|_| {
            let engine = Engine::new(EngineConfig {
                k: 4,
                shards: 2,
                ..Default::default()
            })
            .unwrap();
            let backend = Arc::new(SlowCompress { engine, delay });
            ServerHandle::bind_backend("127.0.0.1:0", backend).unwrap()
        })
        .collect();
    let coordinator = Coordinator::new(CoordinatorConfig::new(
        nodes.iter().map(|n| n.addr().to_string()),
    ))
    .unwrap();
    for batch in four_blobs(150).chunks(100) {
        coordinator.ingest("blobs", &batch, None).unwrap();
    }

    let started = Instant::now();
    let (coreset, _, _) = coordinator.coreset("blobs", Some(5), None).unwrap();
    let took = started.elapsed();
    assert!(!coreset.is_empty());
    assert!(
        took < Duration::from_secs(1),
        "three 400 ms nodes took {took:?}: the fan-out ran them in series"
    );
    let stats = coordinator.dataset_stats("blobs").unwrap();
    assert!(
        stats.nodes.iter().all(|r| r.ingested_points > 0),
        "{stats:?}"
    );

    for node in nodes {
        node.shutdown();
    }
}
