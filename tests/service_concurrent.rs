//! Integration tests for the serving subsystem: concurrent clients over
//! real TCP, distortion of the served coreset against the engine's
//! configured bound, and protocol behaviour at the socket level.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use fast_coresets::prelude::*;
use fc_service::{Engine, EngineConfig, Response, ServerHandle, ServiceClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn four_blobs(n_per: usize, offset: f64) -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..n_per {
            flat.push(b as f64 * 100.0 + offset + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

fn serving_engine(k: usize) -> Engine {
    Engine::new(EngineConfig {
        k,
        shards: 3,
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn concurrent_clients_ingest_and_query_within_distortion_bound() {
    let k = 4;
    let config = EngineConfig {
        k,
        shards: 3,
        ..Default::default()
    };
    let bound = fc_service::DISTORTION_BOUND;
    let server = ServerHandle::bind("127.0.0.1:0", Engine::new(config).unwrap()).unwrap();
    let addr = server.addr();

    // Phase 1: several writer clients stream disjoint slices concurrently,
    // while reader clients hammer stats/queries mid-ingest.
    let writers = 3;
    let readers = 2;
    let per_writer = four_blobs(400, 0.0); // same mixture per writer
    let barrier = Arc::new(Barrier::new(writers + readers));
    std::thread::scope(|scope| {
        for w in 0..writers {
            let barrier = Arc::clone(&barrier);
            let data = per_writer.clone();
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                barrier.wait();
                for batch in data.chunks(200) {
                    client.ingest("blobs", &batch, None).unwrap();
                }
                let _ = w;
            });
        }
        for r in 0..readers as u64 {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                barrier.wait();
                for i in 0..10 {
                    // Mid-ingest queries may race dataset creation: the
                    // dataset may not exist yet, or exist with no shard
                    // having processed a block. Both are clean errors;
                    // anything else fails the test.
                    match client.cluster("blobs", Some(4), None, None, Some(r * 1000 + i)) {
                        Ok(result) => assert!(result.centers.len() <= 4),
                        Err(fc_service::ClientError::Server { message, code }) => {
                            assert!(
                                matches!(
                                    code,
                                    Some(fc_service::ErrorCode::UnknownDataset)
                                        | Some(fc_service::ErrorCode::NoData)
                                ),
                                "{message} (code {code:?})"
                            )
                        }
                        Err(other) => panic!("unexpected client error: {other}"),
                    }
                }
            });
        }
    });

    // Phase 2: all ingests are acknowledged (the protocol is synchronous),
    // so totals are exact.
    let mut client = ServiceClient::connect(addr).unwrap();
    let stats = &client.stats(Some("blobs")).unwrap()[0];
    let expected_points = (writers * per_writer.len()) as u64;
    assert_eq!(stats.ingested_points, expected_points);
    assert!((stats.ingested_weight - expected_points as f64).abs() < 1e-6);

    // Phase 3: the served coreset must price solutions like the full data
    // does — within the engine's configured distortion bound.
    let full: Dataset = (0..writers)
        .map(|_| per_writer.clone())
        .reduce(|a, b| a.concat(&b).unwrap())
        .unwrap();
    let (coreset, seed, _) = client.compress("blobs", None, Some(7)).unwrap();
    assert_eq!(seed, 7);
    let mut rng = StdRng::seed_from_u64(99);
    let verdict = fc_core::judge(&mut rng, &full, &coreset, 4, CostKind::KMeans);
    assert!(
        verdict.median <= bound,
        "served distortion {} exceeds configured bound {bound}",
        verdict.median
    );

    // Served clustering is also within the bound when priced on full data.
    let result = client
        .cluster("blobs", Some(4), None, None, Some(11))
        .unwrap();
    let full_cost = fc_clustering::cost::cost(&full, &result.centers, CostKind::KMeans);
    let ratio = (full_cost / result.coreset_cost).max(result.coreset_cost / full_cost);
    assert!(
        ratio <= bound,
        "served clustering ratio {ratio} exceeds bound {bound}"
    );

    server.shutdown();
}

#[test]
fn served_results_are_reproducible_across_connections() {
    let server = ServerHandle::bind("127.0.0.1:0", serving_engine(4)).unwrap();
    let addr = server.addr();
    let mut a = ServiceClient::connect(addr).unwrap();
    for batch in four_blobs(200, 0.0).chunks(160) {
        a.ingest("d", &batch, None).unwrap();
    }
    let from_a = a.cluster("d", Some(4), None, None, Some(5)).unwrap();
    // A different connection replaying the same seed sees the same result.
    let mut b = ServiceClient::connect(addr).unwrap();
    let from_b = b.cluster("d", Some(4), None, None, Some(5)).unwrap();
    assert_eq!(from_a.centers, from_b.centers);
    assert_eq!(from_a.coreset_cost, from_b.coreset_cost);
    // Engine-assigned seeds are a deterministic counter sequence: replaying
    // an assigned seed reproduces the served result.
    let assigned = a.cluster("d", Some(4), None, None, None).unwrap();
    let replay = b
        .cluster("d", Some(4), None, None, Some(assigned.seed))
        .unwrap();
    assert_eq!(assigned.centers, replay.centers);
    server.shutdown();
}

#[test]
fn protocol_errors_leave_connection_usable() {
    let server = ServerHandle::bind("127.0.0.1:0", serving_engine(2)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Response::from_json(reply.trim()).unwrap()
    };

    // Malformed JSON, unknown op, bad arguments: all answered, none fatal.
    assert!(matches!(send("{"), Response::Error { .. }));
    assert!(matches!(send(r#"{"op":"warp"}"#), Response::Error { .. }));
    assert!(matches!(
        send(r#"{"op":"cluster","dataset":"ghost"}"#),
        Response::Error { .. }
    ));
    assert!(matches!(
        send(r#"{"op":"ingest","dataset":"d","points":[[1,2],[3]]}"#),
        Response::Error { .. }
    ));

    // The same connection still serves valid requests afterwards.
    let ok = send(r#"{"op":"ingest","dataset":"d","points":[[0,0],[1,0],[0,1],[1,1]]}"#);
    assert!(matches!(ok, Response::Ingested { points: 4, .. }), "{ok:?}");
    let stats = send(r#"{"op":"stats","dataset":"d"}"#);
    match stats {
        Response::Stats { datasets, .. } => assert_eq!(datasets[0].ingested_points, 4),
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn full_u64_seeds_survive_the_wire() {
    let server = ServerHandle::bind("127.0.0.1:0", serving_engine(2)).unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    for batch in four_blobs(100, 0.0).chunks(100) {
        client.ingest("d", &batch, None).unwrap();
    }
    // Seeds above 2^53 don't fit an f64 exactly; the codec must keep them.
    let seed = u64::MAX - 12345;
    let a = client
        .cluster("d", Some(2), None, None, Some(seed))
        .unwrap();
    assert_eq!(a.seed, seed);
    let b = client
        .cluster("d", Some(2), None, None, Some(seed))
        .unwrap();
    assert_eq!(a.centers, b.centers);
    server.shutdown();
}

#[test]
fn oversized_request_line_is_rejected_without_oom() {
    let server = ServerHandle::bind("127.0.0.1:0", serving_engine(2)).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = BufWriter::new(stream.try_clone().unwrap());
    let mut reader = BufReader::new(stream);
    // Stream more than the 64 MiB line cap without ever sending a newline.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..65 {
        if writer
            .write_all(&chunk)
            .and_then(|()| writer.flush())
            .is_err()
        {
            break; // server already answered and closed the read side
        }
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::from_json(reply.trim()).unwrap() {
        Response::Error { message, .. } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("unexpected {other:?}"),
    }
    // The connection is closed afterwards (oversized lines cannot
    // resync): either a clean EOF, or a reset if our unread bytes were
    // still in the server's receive buffer when it closed.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("connection still open, read {n} more bytes: {rest:?}"),
    }
    server.shutdown();
}

#[test]
fn dimension_mismatch_is_rejected_over_the_wire() {
    let server = ServerHandle::bind("127.0.0.1:0", serving_engine(2)).unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    client
        .ingest(
            "d",
            &Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0], 2).unwrap(),
            None,
        )
        .unwrap();
    let three_d = Dataset::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
    match client.ingest("d", &three_d, None) {
        Err(fc_service::ClientError::Server { message, .. }) => {
            assert!(message.contains("dimension mismatch"), "{message}")
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    server.shutdown();
}
