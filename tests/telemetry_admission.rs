//! End-to-end telemetry and admission control: a saturated server answers
//! `unavailable`, a queue-shed request answers `deadline_exceeded`, and
//! one request id stamped by a client is visible in the coordinator's
//! *and* the nodes' trace logs after a fan-out.

use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

use fc_clustering::solver::Solver;
use fc_clustering::CostKind;
use fc_core::plan::{Method, Plan};
use fc_core::Coreset;
use fc_geom::{Dataset, Points};
use fc_service::protocol::{DatasetStats, ErrorCode};
use fc_service::{
    Backend, ClientError, ClusterOutcome, Engine, EngineConfig, EngineError, Request, Response,
    ServerHandle, ServerOptions, ServiceClient,
};

fn blobs(n_per: usize) -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..n_per {
            flat.push(b as f64 * 100.0 + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

fn node_server() -> ServerHandle {
    let engine = Engine::new(EngineConfig {
        shards: 2,
        k: 4,
        m_scalar: 25,
        method: Method::Uniform,
        ..Default::default()
    })
    .unwrap();
    ServerHandle::bind("127.0.0.1:0", engine).unwrap()
}

#[test]
fn over_cap_connections_are_refused_with_unavailable() {
    let engine = Engine::new(EngineConfig {
        shards: 1,
        k: 2,
        m_scalar: 10,
        ..Default::default()
    })
    .unwrap();
    let options = ServerOptions {
        max_connections: 2,
        ..Default::default()
    };
    let handle = ServerHandle::bind_with("127.0.0.1:0", engine, options).unwrap();

    // Two connections occupy the cap; a request on each proves both were
    // adopted (not merely accepted) before the third arrives.
    let mut first = ServiceClient::connect(handle.addr()).unwrap();
    let mut second = ServiceClient::connect(handle.addr()).unwrap();
    first.stats(None).unwrap();
    second.stats(None).unwrap();

    let mut third = ServiceClient::connect(handle.addr()).unwrap();
    match third.stats(None) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, Some(ErrorCode::Unavailable), "{message}");
        }
        // The refusal races the request write: the server may close the
        // socket before the client's line lands.
        Err(ClientError::Io(_)) => {}
        other => panic!("expected an admission refusal, got {other:?}"),
    }

    // Releasing a slot readmits new connections.
    drop(first);
    let mut fourth = loop {
        let mut candidate = ServiceClient::connect(handle.addr()).unwrap();
        match candidate.stats(None) {
            Ok(_) => break candidate,
            // The dropped connection's slot may not be reaped yet.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    fourth.stats(None).unwrap();
    drop(second);
    drop(fourth);
    handle.shutdown();
}

/// A backend whose every `stats` holds the executor for `delay` —
/// enough to make queue waits deterministic in the deadline test.
struct SlowBackend {
    delay: Duration,
}

impl Backend for SlowBackend {
    fn ingest(
        &self,
        _name: &str,
        _batch: &Dataset,
        _plan: Option<&Plan>,
        _ident: Option<&fc_service::protocol::IngestIdent>,
        _epoch: Option<u64>,
    ) -> Result<fc_service::IngestOutcome, EngineError> {
        Err(EngineError::InvalidArgument("unsupported".into()))
    }

    fn coreset(
        &self,
        name: &str,
        _seed: Option<u64>,
        _method: Option<Method>,
    ) -> Result<(Coreset, u64, Method), EngineError> {
        Err(EngineError::UnknownDataset(name.to_owned()))
    }

    fn cluster(
        &self,
        name: &str,
        _k: Option<usize>,
        _kind: Option<CostKind>,
        _solver: Option<Solver>,
        _seed: Option<u64>,
    ) -> Result<ClusterOutcome, EngineError> {
        Err(EngineError::UnknownDataset(name.to_owned()))
    }

    fn cost(
        &self,
        name: &str,
        _centers: &Points,
        _kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError> {
        Err(EngineError::UnknownDataset(name.to_owned()))
    }

    fn dataset_stats(&self, name: &str) -> Result<DatasetStats, EngineError> {
        Err(EngineError::UnknownDataset(name.to_owned()))
    }

    fn stats(&self) -> Result<Vec<DatasetStats>, EngineError> {
        std::thread::sleep(self.delay);
        Ok(Vec::new())
    }

    fn drop_dataset(&self, name: &str) -> Result<(), EngineError> {
        Err(EngineError::UnknownDataset(name.to_owned()))
    }
}

/// Queue-wait shedding needs the reactor's executor queue; the threaded
/// model has no queue to shed from.
#[cfg(target_os = "linux")]
#[test]
fn queued_past_deadline_requests_are_shed_with_deadline_exceeded() {
    let options = ServerOptions {
        executor_threads: 1,
        request_deadline: Some(Duration::from_millis(40)),
        ..Default::default()
    };
    let backend = Arc::new(SlowBackend {
        delay: Duration::from_millis(300),
    });
    let handle = ServerHandle::bind_backend_with("127.0.0.1:0", backend, options).unwrap();
    assert_eq!(handle.io_model(), fc_service::IoModel::Reactor);
    let addr = handle.addr();

    // The first request occupies the only executor for 300 ms...
    let occupant = std::thread::spawn(move || {
        let mut client = ServiceClient::connect(addr).unwrap();
        client.stats(None)
    });
    std::thread::sleep(Duration::from_millis(80));
    // ...so this one queues far past its 40 ms deadline and must be shed
    // without ever reaching the backend.
    let mut late = ServiceClient::connect(addr).unwrap();
    match late.stats(None) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, Some(ErrorCode::DeadlineExceeded), "{message}");
        }
        other => panic!("expected a deadline shed, got {other:?}"),
    }
    occupant
        .join()
        .unwrap()
        .expect("the occupant ran within its own deadline-free budget");
    handle.shutdown();
}

/// A zero deadline means none, as a zero connection cap does: every queue
/// wait exceeds zero, so honouring it would shed every request.
#[test]
fn zero_request_deadline_sheds_nothing() {
    let engine = Engine::new(EngineConfig {
        shards: 1,
        k: 2,
        m_scalar: 10,
        ..Default::default()
    })
    .unwrap();
    let options = ServerOptions {
        executor_threads: 1,
        request_deadline: Some(Duration::ZERO),
        ..Default::default()
    };
    let handle = ServerHandle::bind_with("127.0.0.1:0", engine, options).unwrap();
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    let (points, _) = client.ingest("prompt", &blobs(10), None).unwrap();
    assert_eq!(points, 40);
    let stats = client.stats(Some("prompt")).unwrap();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].ingested_points, 40);
    handle.shutdown();
}

/// Sends one raw JSON line and returns the response line.
fn raw_exchange(stream: &mut std::net::TcpStream, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

#[test]
fn one_request_id_spans_coordinator_and_node_traces() {
    let a = node_server();
    let b = node_server();
    let mut config =
        fc_cluster::CoordinatorConfig::new([a.addr().to_string(), b.addr().to_string()]);
    config.default_plan = fc_core::plan::PlanBuilder::new(4)
        .m_scalar(25)
        .method(Method::Uniform)
        .build()
        .unwrap();
    let coordinator = Arc::new(fc_cluster::Coordinator::new(config).unwrap());
    let front = ServerHandle::bind_backend("127.0.0.1:0", coordinator.clone()).unwrap();

    let mut client = ServiceClient::connect(front.addr()).unwrap();
    for block in blobs(100).chunks(100) {
        client.ingest("traced", &block, None).unwrap();
    }

    // A retried batch is absorbed here — under spread routing no node
    // ever sees it — so this is the only scrape that can count it, under
    // the names an engine exports.
    let ident = fc_service::protocol::IngestIdent {
        client: "producer".to_owned(),
        seq: 1,
    };
    let sent = client
        .ingest_idented("traced", &blobs(5), None, Some(&ident), None)
        .unwrap();
    let retried = client
        .ingest_idented("traced", &blobs(5), None, Some(&ident), None)
        .unwrap();
    assert!(!sent.duplicate && retried.duplicate);
    assert_eq!(sent.total_points, retried.total_points);
    let scrape = coordinator.render_prometheus();
    for line in [
        "fc_ingest_duplicates_total 1",
        "fc_ingest_duplicates_total{dataset=\"traced\"} 1",
        "fc_ingest_points_total 420",
        "fc_ingest_points_total{dataset=\"traced\"} 420",
        "fc_ingest_blocks_total{dataset=\"traced\"} 5",
    ] {
        assert!(
            scrape.lines().any(|l| l == line),
            "coordinator scrape lacks `{line}`:\n{scrape}"
        );
    }

    // A client-chosen request id rides the coreset query through the
    // coordinator and down to every node.
    const TRACE: &str = "trace-e2e-0001";
    let mut raw = std::net::TcpStream::connect(front.addr()).unwrap();
    let query = Request::Compress {
        dataset: "traced".to_owned(),
        method: None,
        seed: Some(7),
    }
    .to_json_with_trace(Some(TRACE));
    let response = raw_exchange(&mut raw, &query);
    assert!(
        matches!(
            Response::from_json(response.trim()),
            Ok(Response::Coreset { .. })
        ),
        "{response}"
    );

    // The `metrics` op returns the coordinator's registry and trace log
    // with every node's payload embedded under "nodes".
    let metrics_line = raw_exchange(&mut raw, &Request::Metrics.to_json());
    let metrics = match Response::from_json(metrics_line.trim()) {
        Ok(Response::Metrics { metrics }) => metrics,
        other => panic!("unexpected {other:?}"),
    };

    let trace_hops = |payload: &fc_core::json::Value| -> Vec<String> {
        payload
            .get("traces")
            .and_then(|t| t.as_array())
            .into_iter()
            .flatten()
            .filter(|t| t.get("id").and_then(|id| id.as_str()) == Some(TRACE))
            .flat_map(|t| {
                t.get("hops")
                    .and_then(|h| h.as_array())
                    .into_iter()
                    .flatten()
                    .filter_map(|h| h.get("name").and_then(|n| n.as_str()))
                    .map(str::to_owned)
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    // Coordinator-side: the server loop logged the op, and the fan-out
    // logged one hop per node exchange.
    let coordinator_hops = trace_hops(&metrics);
    assert!(
        coordinator_hops.iter().any(|h| h == "compress"),
        "coordinator trace must log the op: {coordinator_hops:?}"
    );
    for node in 0..2 {
        assert!(
            coordinator_hops
                .iter()
                .any(|h| h.starts_with(&format!("node{node}:"))),
            "coordinator trace must attribute node {node}: {coordinator_hops:?}"
        );
    }

    // Node-side: the same id landed in both node servers' trace logs,
    // observable through the coordinator's embedded payloads.
    let nodes = metrics
        .get("nodes")
        .and_then(|n| n.as_object())
        .expect("coordinator metrics embed node payloads");
    assert_eq!(nodes.len(), 2);
    for (addr, payload) in nodes {
        let hops = trace_hops(payload);
        assert!(
            hops.iter().any(|h| h == "compress"),
            "node {addr} must hold the request id with its op: {hops:?}"
        );
    }

    front.shutdown();
    a.shutdown();
    b.shutdown();
}
