//! End-to-end tests for the epoll reactor serving model: strictly ordered
//! pipelined responses (with the exact wire bytes pinned), half-closed and
//! newline-less clients, and the threaded fallback. The tests that count
//! the process's threads live in `process_threads.rs`, a binary of their
//! own.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use fast_coresets::prelude::*;
use fc_service::{Engine, EngineConfig, IoModel, ServerHandle, ServerOptions, ServiceClient};

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

fn small_engine() -> Engine {
    Engine::new(EngineConfig {
        shards: 2,
        k: 4,
        m_scalar: 20,
        method: Method::Uniform,
        ..Default::default()
    })
    .unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn reactor_is_the_default_io_model_on_linux() {
    let server = ServerHandle::bind("127.0.0.1:0", small_engine()).unwrap();
    assert_eq!(server.io_model(), IoModel::Reactor);
    server.shutdown();
}

/// Pipelined requests — many lines in one packet — are answered strictly
/// in order, and the response bytes are pinned so the framing refactor
/// cannot silently alter the JSON-lines contract.
#[test]
fn pipelined_requests_answer_in_order_with_pinned_wire_bytes() {
    let server = ServerHandle::bind("127.0.0.1:0", small_engine()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // One write, five frames: ingest, cost, unknown op, blank line
    // (skipped silently), drop. Every response is deterministic.
    let pipeline = concat!(
        r#"{"op":"ingest","dataset":"pin","points":[[0,0],[1,0],[0,1],[1,1]]}"#,
        "\n",
        r#"{"op":"cost","dataset":"pin","centers":[[0,0]]}"#,
        "\n",
        r#"{"op":"warp"}"#,
        "\n",
        "\n",
        r#"{"op":"drop_dataset","dataset":"pin"}"#,
        "\n",
    );
    stream.write_all(pipeline.as_bytes()).unwrap();

    let mut replies = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 4096];
    while replies.lines().count() < 4 {
        let n = stream.read(&mut buf).expect("responses arrive");
        assert!(n > 0, "server closed early; got {replies:?}");
        replies.push_str(std::str::from_utf8(&buf[..n]).unwrap());
    }
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 4, "{replies:?}");
    // The exact wire bytes, in the exact request order.
    assert_eq!(
        lines[0],
        r#"{"dataset":"pin","kind":"ingested","ok":true,"points":4,"total_points":4,"total_weight":4.0}"#
    );
    assert_eq!(
        lines[1],
        r#"{"coreset_points":4,"cost":4.0,"dataset":"pin","kind":"cost","objective":"kmeans","ok":true}"#
    );
    assert_eq!(
        lines[2],
        r#"{"kind":"error","message":"unknown op `warp`","ok":false}"#
    );
    assert_eq!(lines[3], r#"{"dataset":"pin","kind":"dropped","ok":true}"#);
    server.shutdown();
}

/// Back-to-back pipelined ingests on one connection are all applied, in
/// order, with the totals accumulating monotonically.
#[test]
fn pipelined_ingests_accumulate_in_order() {
    let server = ServerHandle::bind("127.0.0.1:0", small_engine()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut pipeline = String::new();
    for i in 0..20 {
        pipeline.push_str(&format!(
            r#"{{"op":"ingest","dataset":"acc","points":[[{i},0],[{i},1]]}}"#
        ));
        pipeline.push('\n');
    }
    stream.write_all(pipeline.as_bytes()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = String::new();
    let mut buf = [0u8; 4096];
    while replies.lines().count() < 20 {
        let n = stream.read(&mut buf).expect("responses arrive");
        assert!(n > 0, "server closed early");
        replies.push_str(std::str::from_utf8(&buf[..n]).unwrap());
    }
    for (i, line) in replies.lines().enumerate() {
        let response = fc_service::Response::from_json(line).unwrap();
        match response {
            fc_service::Response::Ingested {
                points,
                total_points,
                ..
            } => {
                assert_eq!(points, 2);
                assert_eq!(
                    total_points,
                    2 * (i as u64 + 1),
                    "response {i} out of order"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
}

/// A client that writes its requests and immediately half-closes (the
/// `printf ... | nc -q0` pattern) still gets every response: frames
/// buffered when EOF arrives are served, not dropped. Both models.
#[test]
fn half_closed_connections_still_get_their_responses() {
    for model in [IoModel::Reactor.effective(), IoModel::Threaded] {
        let server = ServerHandle::bind_with(
            "127.0.0.1:0",
            small_engine(),
            ServerOptions {
                io_model: model,
                ..Default::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"{\"op\":\"ingest\",\"dataset\":\"hc\",\"points\":[[0,0],[1,1]]}\n{\"op\":\"stats\",\"dataset\":\"hc\"}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut replies = String::new();
        stream
            .read_to_string(&mut replies)
            .expect("responses then EOF");
        assert_eq!(
            replies.lines().count(),
            2,
            "model {model}: expected both responses, got {replies:?}"
        );
        for line in replies.lines() {
            let response = fc_service::Response::from_json(line).unwrap();
            assert!(
                !matches!(response, fc_service::Response::Error { .. }),
                "model {model}: unexpected {response:?}"
            );
        }
        server.shutdown();
    }
}

/// A final request missing its trailing newline before EOF is still
/// served — EOF terminates the frame, as the pre-reactor server's
/// `read_until` behaviour did. Both models.
#[test]
fn newline_less_final_request_is_served() {
    for model in [IoModel::Reactor.effective(), IoModel::Threaded] {
        let server = ServerHandle::bind_with(
            "127.0.0.1:0",
            small_engine(),
            ServerOptions {
                io_model: model,
                ..Default::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"{\"op\":\"ingest\",\"dataset\":\"nl\",\"points\":[[0,0]]}\n{\"op\":\"stats\",\"dataset\":\"nl\"}")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut replies = String::new();
        stream.read_to_string(&mut replies).expect("responses");
        assert_eq!(
            replies.lines().count(),
            2,
            "model {model}: newline-less final request dropped: {replies:?}"
        );
        server.shutdown();
    }
}

/// The threaded model still serves the same protocol (the non-Linux
/// fallback path, exercised everywhere).
#[test]
fn threaded_model_round_trips() {
    let server = ServerHandle::bind_with(
        "127.0.0.1:0",
        small_engine(),
        ServerOptions {
            io_model: IoModel::Threaded,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(server.io_model(), IoModel::Threaded);
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    client.ingest("t", &four_blobs(50), None).unwrap();
    let result = client.cluster("t", Some(4), None, None, Some(3)).unwrap();
    assert!(result.centers.len() <= 4);
    server.shutdown();
}

/// A backend whose `cluster` hits a bug; every other op is a real engine.
#[cfg(target_os = "linux")]
struct PanickingCluster(Engine);

#[cfg(target_os = "linux")]
impl fc_service::Backend for PanickingCluster {
    fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&fc_service::protocol::IngestIdent>,
        epoch: Option<u64>,
    ) -> Result<fc_service::IngestOutcome, fc_service::EngineError> {
        fc_service::Backend::ingest(&self.0, name, batch, plan, ident, epoch)
    }

    fn coreset(
        &self,
        name: &str,
        seed: Option<u64>,
        method: Option<Method>,
    ) -> Result<(Coreset, u64, Method), fc_service::EngineError> {
        self.0.coreset(name, seed, method)
    }

    fn cluster(
        &self,
        _name: &str,
        _k: Option<usize>,
        _kind: Option<CostKind>,
        _solver: Option<Solver>,
        _seed: Option<u64>,
    ) -> Result<fc_service::ClusterOutcome, fc_service::EngineError> {
        panic!("injected cluster bug");
    }

    fn cost(
        &self,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), fc_service::EngineError> {
        self.0.cost(name, centers, kind)
    }

    fn dataset_stats(
        &self,
        name: &str,
    ) -> Result<fc_service::DatasetStats, fc_service::EngineError> {
        self.0.dataset_stats(name)
    }

    fn stats(&self) -> Result<Vec<fc_service::DatasetStats>, fc_service::EngineError> {
        self.0.stats()
    }

    fn drop_dataset(&self, name: &str) -> Result<(), fc_service::EngineError> {
        self.0.drop_dataset(name)
    }
}

/// A panicking backend call fails its own request — one structured
/// `internal` error, in pipeline position, JSON or binary — and nothing
/// else: the thread that ran it survives, the rest of the batch runs, and
/// the server still answers after more panics than it has executors.
/// Both models.
#[cfg(target_os = "linux")]
#[test]
fn backend_panic_fails_the_request_not_the_connection_or_the_pool() {
    for model in [IoModel::Reactor.effective(), IoModel::Threaded] {
        let options = ServerOptions {
            io_model: model,
            ..Default::default()
        };
        let executors = options.executor_threads;
        let server = ServerHandle::bind_backend_with(
            "127.0.0.1:0",
            std::sync::Arc::new(PanickingCluster(small_engine())),
            options,
        )
        .unwrap();
        let read_lines = |stream: &mut TcpStream, want: usize| -> Vec<String> {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut replies = String::new();
            let mut buf = [0u8; 4096];
            while replies.lines().count() < want || !replies.ends_with('\n') {
                let n = stream.read(&mut buf).expect("every request gets its reply");
                assert!(n > 0, "server closed early; got {replies:?}");
                replies.push_str(std::str::from_utf8(&buf[..n]).unwrap());
            }
            replies.lines().map(str::to_owned).collect()
        };

        // One panic per connection, two more than there are executors.
        for _ in 0..executors + 2 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"{\"op\":\"cluster\",\"dataset\":\"d\",\"seed\":1}\n")
                .unwrap();
            let lines = read_lines(&mut stream, 1);
            assert!(
                lines[0].contains(r#""kind":"error""#) && lines[0].contains(r#""code":"internal""#),
                "{lines:?}"
            );
            assert!(lines[0].contains("injected cluster bug"), "{lines:?}");
        }

        // Mid-pipeline: the frames around the panicking one still run, and
        // the connection stays usable afterwards.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let pipeline = concat!(
            r#"{"op":"ingest","dataset":"d","points":[[0,0],[1,1]]}"#,
            "\n",
            r#"{"op":"cluster","dataset":"d"}"#,
            "\n",
            r#"{"op":"cost","dataset":"d","centers":[[0,0]]}"#,
            "\n",
        );
        stream.write_all(pipeline.as_bytes()).unwrap();
        let lines = read_lines(&mut stream, 3);
        assert!(lines[0].contains(r#""kind":"ingested""#), "{lines:?}");
        assert!(lines[1].contains(r#""code":"internal""#), "{lines:?}");
        assert!(lines[2].contains(r#""kind":"cost""#), "{lines:?}");
        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let lines = read_lines(&mut stream, 1);
        assert!(lines[0].contains(r#""kind":"stats""#), "{lines:?}");

        // The binary dialect answers the same way, in a binary frame.
        let mut client = ServiceClient::connect(server.addr()).unwrap();
        assert!(client.negotiate_binary().unwrap());
        match client.cluster("d", None, None, None, Some(1)) {
            Err(fc_service::ClientError::Server { code, message }) => {
                assert_eq!(code, Some(fc_service::ErrorCode::Internal), "{message}");
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        assert_eq!(client.stats(Some("d")).unwrap()[0].ingested_points, 2);
        server.shutdown();
    }
}
