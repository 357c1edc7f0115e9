//! Chaos end-to-end for the fleet tier: R-way replication, exactly-once
//! ingest under `SIGKILL`, single-node-down query availability within the
//! distortion bound, live drain under concurrent ingest with zero lost
//! acked points, structured `wrong_epoch` refusals over the wire, and
//! `bin1c` checksum rejection in pipeline position.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use fast_coresets::prelude::*;
use fc_cluster::{Coordinator, CoordinatorConfig};
use fc_service::framing::BinaryCodec;
use fc_service::protocol::{ErrorCode, IngestIdent, Request, Response};
use fc_service::{wire, Backend, ClientError, ServerHandle, ServiceClient};

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

fn replicated_coordinator(addrs: impl IntoIterator<Item = String>) -> Coordinator {
    let mut config = CoordinatorConfig::new(addrs);
    config.replication = 2;
    Coordinator::new(config).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-fleet-e2e-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spawns a real `fc-server` process and parses its bound address out of
/// the startup banner (same shape as `crash_recovery.rs`).
fn spawn_server(dir: &Path) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fc-server"));
    cmd.args(["--addr", "127.0.0.1:0", "--shards", "2", "--data-dir"])
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn fc-server");
    let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .split(" listening on ")
        .nth(1)
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .split_whitespace()
        .next()
        .expect("address in banner")
        .to_owned();
    (child, addr, reader)
}

/// The acceptance chaos path: a 3-process fleet at R=2, a producer
/// ingesting sequenced batches, one replica of the dataset killed with
/// `SIGKILL` mid-stream, every batch retried as if its ack were lost —
/// and the fleet's acknowledged totals equal the points sent *exactly*,
/// with queries still answering from the survivors.
#[cfg(unix)]
#[test]
fn sigkill_replica_with_retries_keeps_totals_exact() {
    let dirs: Vec<PathBuf> = (0..3).map(|i| scratch(&format!("kill-{i}"))).collect();
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for dir in &dirs {
        let (child, addr, out) = spawn_server(dir);
        children.push((child, out));
        addrs.push(addr);
    }
    let coordinator = replicated_coordinator(addrs.clone());

    let batches: Vec<Dataset> = (1..=10).map(|i| four_blobs(10 + i)).collect();
    let sent_points: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let ident = |seq: u64| IngestIdent {
        client: "chaos-producer".to_owned(),
        seq,
    };

    // First half of the stream lands on both replicas.
    for (i, batch) in batches[..5].iter().enumerate() {
        let out = Backend::ingest(
            &coordinator,
            "blobs",
            batch,
            None,
            Some(&ident(i as u64 + 1)),
            None,
        )
        .expect("pre-kill ingest");
        assert!(!out.duplicate);
    }

    // SIGKILL one *replica of this dataset* (not a bystander): applied
    // batches were acked, the producer has no idea the node is gone.
    let victim_addr = coordinator.replicas_of("blobs")[0].clone();
    let victim = addrs.iter().position(|a| *a == victim_addr).unwrap();
    children[victim].0.kill().expect("SIGKILL replica");
    children[victim].0.wait().expect("reap replica");

    // The producer keeps going (acks need one live replica), then — as a
    // client that lost every ack would — retries the entire stream.
    for (i, batch) in batches[5..].iter().enumerate() {
        let out = Backend::ingest(
            &coordinator,
            "blobs",
            batch,
            None,
            Some(&ident(i as u64 + 6)),
            None,
        )
        .expect("post-kill ingest");
        assert!(!out.duplicate);
    }
    for (i, batch) in batches.iter().enumerate() {
        let out = Backend::ingest(
            &coordinator,
            "blobs",
            batch,
            None,
            Some(&ident(i as u64 + 1)),
            None,
        )
        .expect("retried ingest acks");
        assert!(out.duplicate, "retry of seq {} must dedup", i + 1);
        assert_eq!(
            out.total_points, sent_points,
            "duplicate acks report the exact lifetime totals"
        );
    }

    // Exactly-once: the fleet's totals equal the points sent, not sent
    // plus retries, and not doubled across replicas.
    let stats = coordinator.dataset_stats("blobs").expect("stats");
    assert_eq!(stats.ingested_points, sent_points);
    assert!((stats.ingested_weight - sent_points as f64).abs() < 1e-6);

    // Queries answer from the surviving replica.
    let centers = Points::from_flat(vec![0.0, 0.0, 100.0, 0.0, 200.0, 0.0, 300.0, 0.0], 2).unwrap();
    let (cost, _, priced) = coordinator.cost("blobs", &centers, None).expect("cost");
    assert!(cost > 0.0);
    assert!(priced > 0);

    for (mut child, _) in children {
        child.kill().ok();
        child.wait().ok();
    }
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A 3-node R=2 fleet answers `cost` and `cluster` with *any* single
/// node down, within the engine's distortion bound of a single big
/// server over the same data.
#[test]
fn any_single_node_down_answers_within_distortion_bound() {
    let k = 4;
    let bound = fc_service::DISTORTION_BOUND;
    let data = four_blobs(300);
    let plan = PlanBuilder::new(k)
        .m_scalar(25)
        .method(Method::FastCoreset)
        .solver(Solver::Lloyd)
        .build()
        .unwrap();

    // Reference: one big server over the same data and plan.
    let single = node_server(k);
    let mut single_client = ServiceClient::connect(single.addr()).unwrap();
    for batch in data.chunks(200) {
        single_client.ingest("blobs", &batch, Some(&plan)).unwrap();
    }
    let reference = single_client
        .cluster("blobs", None, None, None, Some(7))
        .unwrap();
    let cost_single = fc_clustering::cost::cost(&data, &reference.centers, CostKind::KMeans);

    for victim in 0..3 {
        let nodes: Vec<ServerHandle> = (0..3).map(|_| node_server(k)).collect();
        let coordinator = replicated_coordinator(nodes.iter().map(|n| n.addr().to_string()));
        for batch in data.chunks(200) {
            coordinator.ingest("blobs", &batch, Some(&plan)).unwrap();
        }
        let mut nodes = nodes;
        nodes.remove(victim).shutdown();

        let result = coordinator
            .cluster("blobs", None, None, None, Some(7))
            .unwrap_or_else(|e| panic!("node {victim} down: cluster failed: {e}"));
        let cost_fleet =
            fc_clustering::cost::cost(&data, &result.solution.centers, CostKind::KMeans);
        let ratio = (cost_fleet / cost_single).max(cost_single / cost_fleet);
        assert!(
            ratio <= bound,
            "node {victim} down: fleet cost {cost_fleet} vs single {cost_single}: \
             ratio {ratio} exceeds bound {bound}"
        );
        for node in nodes {
            node.shutdown();
        }
    }
    single.shutdown();
}

/// Draining a replica while a producer keeps writing loses nothing: every
/// acked batch is still counted exactly once afterwards, the fleet epoch
/// bumps monotonically, and queries keep answering.
#[test]
fn drain_under_concurrent_ingest_loses_no_acked_points() {
    let nodes: Vec<ServerHandle> = (0..3).map(|_| node_server(4)).collect();
    let coordinator = Arc::new(replicated_coordinator(
        nodes.iter().map(|n| n.addr().to_string()),
    ));
    assert_eq!(coordinator.fleet_epoch(), 1);

    // Seed the dataset so the drain has something to migrate.
    let seed_batch = four_blobs(25);
    coordinator.ingest("live", &seed_batch, None).unwrap();
    let mut sent = seed_batch.len() as u64;

    // Writer: 30 sequenced batches, every ack checked, while the drain
    // runs on the main thread.
    let writer = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || -> u64 {
            let mut points = 0u64;
            for seq in 1..=30u64 {
                let batch = four_blobs(10);
                let ident = IngestIdent {
                    client: "drain-writer".to_owned(),
                    seq,
                };
                let out = Backend::ingest(&*coordinator, "live", &batch, None, Some(&ident), None)
                    .expect("ingest during drain");
                assert!(!out.duplicate);
                points += batch.len() as u64;
            }
            points
        })
    };

    // Drain the dataset's first replica mid-stream.
    let drained = coordinator.replicas_of("live")[0].clone();
    let (epoch, members, _migrated) = Backend::drain_node(&*coordinator, &drained).unwrap();
    assert_eq!(epoch, 2, "drain bumps the epoch");
    assert_eq!(members, 3, "drain marks, never removes");
    assert_eq!(coordinator.fleet_epoch(), 2);
    assert!(
        !coordinator.replicas_of("live").contains(&drained),
        "a drained node leaves placement"
    );

    sent += writer.join().expect("writer thread");

    // Zero lost acked points: the fleet's totals equal exactly what was
    // acknowledged, across the membership change.
    let stats = coordinator.dataset_stats("live").expect("stats");
    assert_eq!(stats.ingested_points, sent);
    assert!((stats.ingested_weight - sent as f64).abs() < 1e-6);
    let epoch_via_wire = Backend::server_stats(&*coordinator)
        .expect("server stats")
        .fleet_epoch;
    assert_eq!(epoch_via_wire, 2, "stats surface the post-drain epoch");

    let centers = Points::from_flat(vec![0.0, 0.0, 100.0, 0.0, 200.0, 0.0, 300.0, 0.0], 2).unwrap();
    let (cost, _, priced) = coordinator.cost("live", &centers, None).expect("cost");
    assert!(cost > 0.0);
    assert!(priced > 0);

    for node in nodes {
        node.shutdown();
    }
}

/// A stale placement epoch is refused over the wire with the structured
/// `wrong_epoch` code, and fleet admin ops round-trip through the
/// protocol: `add_node` answers `fleet_updated` with the bumped epoch.
#[test]
fn stale_epochs_and_admin_ops_over_the_wire() {
    let nodes: Vec<ServerHandle> = (0..2).map(|_| node_server(4)).collect();
    let coordinator = replicated_coordinator(nodes.iter().map(|n| n.addr().to_string()));
    let front = ServerHandle::bind_backend("127.0.0.1:0", Arc::new(coordinator)).unwrap();
    let mut client = ServiceClient::connect(front.addr()).unwrap();

    // Epoch 1 is current: accepted. Epoch 99 is not: structured refusal.
    let batch = four_blobs(20);
    client
        .ingest_idented("d", &batch, None, None, Some(1))
        .expect("current epoch accepted");
    match client.ingest_idented("d", &batch, None, None, Some(99)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, Some(ErrorCode::WrongEpoch), "{message}");
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("expected wrong_epoch, got {other:?}"),
    }

    // Admin over the wire: adding a node answers the bumped epoch; a
    // plain data node refuses the same op with a structured error.
    let extra = node_server(4);
    let (epoch, members, _migrated) = client
        .add_node(extra.addr().to_string().as_str(), Some(2.0))
        .expect("add_node over the wire");
    assert_eq!(epoch, 2);
    assert_eq!(members, 3);
    let mut node_client = ServiceClient::connect(nodes[0].addr()).unwrap();
    assert!(
        node_client.add_node("127.0.0.1:9", None).is_err(),
        "plain nodes are not fleet coordinators"
    );

    front.shutdown();
    extra.shutdown();
    for node in nodes {
        node.shutdown();
    }
}

/// Satellite: a corrupted `bin1c` frame is answered with a structured
/// error *in pipeline position* — the frames before and after it on the
/// same connection still answer normally.
#[test]
fn corrupt_bin1c_frame_answers_error_in_pipeline_position() {
    let server = node_server(4);
    let mut seeder = ServiceClient::connect(server.addr()).unwrap();
    seeder.ingest("wired", &four_blobs(25), None).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Negotiate bin1c by hand: JSON hello, JSON ack, then checked frames.
    let mut hello = Request::Hello {
        proto: "bin1c".to_owned(),
    }
    .to_json_with_trace(None)
    .into_bytes();
    hello.push(b'\n');
    stream.write_all(&hello).unwrap();
    let mut ack = Vec::new();
    let mut scratch_buf = [0u8; 4096];
    let leftover = loop {
        if let Some(pos) = ack.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8(ack[..pos].to_vec()).expect("ack is UTF-8");
            match Response::from_json(line.trim()).expect("ack parses") {
                Response::Hello { proto } => assert_eq!(proto, "bin1c"),
                other => panic!("expected hello ack, got {other:?}"),
            }
            break ack[pos + 1..].to_vec();
        }
        let n = stream.read(&mut scratch_buf).expect("read hello ack");
        assert!(n > 0, "server closed before the hello ack");
        ack.extend_from_slice(&scratch_buf[..n]);
    };

    let stats_frame = wire::request_frame(
        &Request::Stats {
            dataset: Some("wired".to_owned()),
        },
        None,
        true,
    );
    // Corrupt a payload byte (offset 8 skips [len][crc]) of the middle
    // frame; the length prefix stays intact so the boundary holds.
    let mut corrupt = stats_frame.clone();
    corrupt[9] ^= 0x40;

    let mut pipeline = Vec::new();
    pipeline.extend_from_slice(&stats_frame);
    pipeline.extend_from_slice(&corrupt);
    pipeline.extend_from_slice(&stats_frame);
    stream.write_all(&pipeline).unwrap();

    let mut codec = BinaryCodec::with_remainder_checked(64 << 20, leftover, true);
    let mut responses = Vec::new();
    while responses.len() < 3 {
        match codec.next_frame().expect("response frames are clean") {
            Some(payload) => {
                responses.push(wire::decode_response(&payload).expect("response decodes"))
            }
            None => {
                let n = stream.read(&mut scratch_buf).expect("read responses");
                assert!(n > 0, "server closed mid-pipeline");
                codec.push(&scratch_buf[..n]);
            }
        }
    }

    assert!(
        matches!(&responses[0], Response::Stats { .. }),
        "{:?}",
        responses[0]
    );
    match &responses[1] {
        Response::Error { message, .. } => {
            assert!(
                message.contains("checksum"),
                "corrupt frame must name the checksum failure: {message}"
            );
        }
        other => panic!("expected a structured error in position 2, got {other:?}"),
    }
    assert!(
        matches!(&responses[2], Response::Stats { .. }),
        "pipeline resynchronizes after the damaged frame: {:?}",
        responses[2]
    );

    server.shutdown();
}
