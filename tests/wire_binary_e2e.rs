//! End-to-end tests of the `bin1` binary wire against a live server:
//! mid-pipeline negotiation, and malformed binary frames (garbage
//! payloads, oversized length prefixes, torn tails, a frame from a build
//! with other opcodes) answered or poisoned *in pipeline position* —
//! every well-formed frame around them still gets its answer, in order.
//! Numbers no dialect can carry are refused the same way in both.

use std::io::{Read, Write};
use std::net::TcpStream;

use fast_coresets::prelude::*;
use fc_service::framing::BinaryCodec;
use fc_service::protocol::{Request, Response};
use fc_service::wire;
use fc_service::{ClientError, Engine, EngineConfig, ServerHandle, ServiceClient};

fn seeded_server() -> ServerHandle {
    let engine = Engine::new(EngineConfig {
        shards: 2,
        k: 4,
        m_scalar: 20,
        method: Method::Uniform,
        ..Default::default()
    })
    .unwrap();
    let server = ServerHandle::bind("127.0.0.1:0", engine).unwrap();
    let mut seeder = ServiceClient::connect(server.addr()).unwrap();
    let batch = Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0, 100.0, 0.0, 101.0, 1.0], 2).unwrap();
    seeder.ingest("wired", &batch, None).unwrap();
    server
}

fn hello_line() -> Vec<u8> {
    let mut line = Request::Hello {
        proto: "bin1".to_owned(),
    }
    .to_json_with_trace(None)
    .into_bytes();
    line.push(b'\n');
    line
}

fn cost_frame() -> Vec<u8> {
    wire::request_frame(
        &Request::Cost {
            dataset: "wired".to_owned(),
            centers: vec![vec![0.0, 0.0], [100.0, 0.0].to_vec()],
            kind: None,
        },
        None,
        false,
    )
}

/// Reads until the JSON hello ack line completes; returns any bytes the
/// server already sent past the newline (the first binary responses).
fn read_hello_ack(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8(buf[..pos].to_vec()).expect("ack is UTF-8");
            match Response::from_json(line.trim()).expect("ack parses") {
                Response::Hello { proto } => assert_eq!(proto, "bin1"),
                other => panic!("expected hello ack, got {other:?}"),
            }
            return buf[pos + 1..].to_vec();
        }
        let n = stream.read(&mut scratch).expect("read hello ack");
        assert!(n > 0, "server closed before the hello ack");
        buf.extend_from_slice(&scratch[..n]);
    }
}

/// Drains exactly `want` binary response frames (blocking reads).
fn read_responses(stream: &mut TcpStream, codec: &mut BinaryCodec, want: usize) -> Vec<Response> {
    let mut out = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    loop {
        while let Some(payload) = codec.next_frame().expect("response frames well-formed") {
            out.push(wire::decode_response(&payload).expect("response decodes"));
            if out.len() == want {
                return out;
            }
        }
        let n = stream.read(&mut scratch).expect("read responses");
        assert!(
            n > 0,
            "server closed with {} of {want} responses",
            out.len()
        );
        codec.push(&scratch[..n]);
    }
}

/// A pipelined upgrade: a JSON request, the `hello`, and a binary request
/// all land in one write. Each response arrives in the format its
/// request's position on the connection dictated, strictly in order.
#[test]
fn hello_upgrades_mid_pipeline() {
    let server = seeded_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut batch = Request::Stats { dataset: None }
        .to_json_with_trace(None)
        .into_bytes();
    batch.push(b'\n');
    batch.extend_from_slice(&hello_line());
    batch.extend_from_slice(&cost_frame());
    stream.write_all(&batch).unwrap();

    // First the JSON stats response, then the hello ack, both as lines.
    let mut buf = Vec::new();
    let mut scratch = [0u8; 4096];
    while buf.iter().filter(|&&b| b == b'\n').count() < 2 {
        let n = stream.read(&mut scratch).unwrap();
        assert!(n > 0, "server closed mid-pipeline");
        buf.extend_from_slice(&scratch[..n]);
    }
    let mut lines = buf.split(|&b| b == b'\n');
    let stats = std::str::from_utf8(lines.next().unwrap()).unwrap();
    assert!(matches!(
        Response::from_json(stats.trim()).unwrap(),
        Response::Stats { .. }
    ));
    let ack = std::str::from_utf8(lines.next().unwrap()).unwrap();
    assert!(matches!(
        Response::from_json(ack.trim()).unwrap(),
        Response::Hello { .. }
    ));
    // Whatever followed the second newline is binary.
    let rest: Vec<u8> = lines.flatten().copied().collect();
    let mut codec = BinaryCodec::new(64 * 1024 * 1024);
    codec.push(&rest);
    let responses = read_responses(&mut stream, &mut codec, 1);
    assert!(matches!(responses[0], Response::Cost { .. }));
    server.shutdown();
}

/// A garbage binary payload (valid length prefix, junk bytes) is answered
/// with an error *in its pipeline position*; the well-formed frames
/// before and after it still get their answers and the connection lives.
#[test]
fn garbage_binary_payload_is_answered_in_pipeline_position() {
    let server = seeded_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut batch = hello_line();
    batch.extend_from_slice(&cost_frame());
    let junk = [0xFFu8; 13];
    batch.extend_from_slice(&u32::try_from(junk.len()).unwrap().to_le_bytes());
    batch.extend_from_slice(&junk);
    batch.extend_from_slice(&cost_frame());
    stream.write_all(&batch).unwrap();

    let rest = read_hello_ack(&mut stream);
    let mut codec = BinaryCodec::new(64 * 1024 * 1024);
    codec.push(&rest);
    let responses = read_responses(&mut stream, &mut codec, 3);
    assert!(matches!(responses[0], Response::Cost { .. }));
    assert!(matches!(responses[1], Response::Error { .. }));
    assert!(matches!(responses[2], Response::Cost { .. }));

    // The connection survived: one more request still answers.
    stream.write_all(&cost_frame()).unwrap();
    let responses = read_responses(&mut stream, &mut codec, 1);
    assert!(matches!(responses[0], Response::Cost { .. }));
    server.shutdown();
}

/// A length prefix past the frame cap poisons the connection: the
/// well-formed request before it is still answered, a final framing
/// error follows in its pipeline position, and the server closes.
#[test]
fn oversized_binary_frame_is_fatal_in_pipeline_position() {
    let server = seeded_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut batch = hello_line();
    batch.extend_from_slice(&cost_frame());
    batch.extend_from_slice(&(128u32 * 1024 * 1024).to_le_bytes()); // 128 MiB > cap
    stream.write_all(&batch).unwrap();

    let rest = read_hello_ack(&mut stream);
    let mut codec = BinaryCodec::new(64 * 1024 * 1024);
    codec.push(&rest);
    let responses = read_responses(&mut stream, &mut codec, 2);
    assert!(matches!(responses[0], Response::Cost { .. }));
    assert!(matches!(responses[1], Response::Error { .. }));

    // And then EOF: a poisoned connection cannot resynchronize.
    let mut scratch = [0u8; 1024];
    loop {
        match stream.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => codec.push(&scratch[..n]),
            Err(e) => panic!("expected EOF after fatal framing error, got {e}"),
        }
    }
    server.shutdown();
}

/// A torn frame (length prefix promising bytes that never arrive) turns
/// into a truncation error at half-close — after the complete requests
/// ahead of it are answered.
#[test]
fn torn_binary_tail_truncates_at_half_close() {
    let server = seeded_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut batch = hello_line();
    batch.extend_from_slice(&cost_frame());
    batch.extend_from_slice(&100u32.to_le_bytes());
    batch.extend_from_slice(&[0x00u8; 10]); // 10 of the promised 100 bytes
    stream.write_all(&batch).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let rest = read_hello_ack(&mut stream);
    let mut codec = BinaryCodec::new(64 * 1024 * 1024);
    codec.push(&rest);
    let responses = read_responses(&mut stream, &mut codec, 2);
    assert!(matches!(responses[0], Response::Cost { .. }));
    assert!(matches!(responses[1], Response::Error { .. }));
    server.shutdown();
}

/// An ingest payload in the layout binary peers spoke before the opcodes
/// moved (`0x01`, a flags byte, the dataset, `has_weights` and `has_plan`
/// bytes, then `dim, count` and the coordinates) is refused by opcode in
/// its pipeline position — never decoded as something else — and the
/// connection keeps serving.
#[test]
fn a_frame_from_a_build_with_other_opcodes_is_refused_in_position() {
    let server = seeded_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut old = vec![0x01, 0];
    old.extend_from_slice(&5u32.to_le_bytes());
    old.extend_from_slice(b"wired");
    old.extend_from_slice(&[0, 0]);
    old.extend_from_slice(&2u32.to_le_bytes());
    old.extend_from_slice(&1u32.to_le_bytes());
    for x in [3.0f64, 4.0] {
        old.extend_from_slice(&x.to_le_bytes());
    }
    let mut batch = hello_line();
    batch.extend_from_slice(&cost_frame());
    batch.extend_from_slice(&u32::try_from(old.len()).unwrap().to_le_bytes());
    batch.extend_from_slice(&old);
    batch.extend_from_slice(&cost_frame());
    stream.write_all(&batch).unwrap();

    let rest = read_hello_ack(&mut stream);
    let mut codec = BinaryCodec::new(64 * 1024 * 1024);
    codec.push(&rest);
    let responses = read_responses(&mut stream, &mut codec, 3);
    assert!(matches!(responses[0], Response::Cost { .. }));
    match &responses[1] {
        Response::Error { message, code } => {
            assert_eq!(message, "unknown binary request opcode 0x01");
            assert_eq!(*code, None);
        }
        other => panic!("expected the refusal, got {other:?}"),
    }
    assert!(matches!(responses[2], Response::Cost { .. }));
    stream.write_all(&cost_frame()).unwrap();
    let responses = read_responses(&mut stream, &mut codec, 1);
    assert!(matches!(responses[0], Response::Cost { .. }));
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    assert_eq!(client.stats(Some("wired")).unwrap()[0].ingested_points, 4);
    server.shutdown();
}

/// A cost or clustering cost that overflows an `f64`, and an ingest that
/// would take a dataset's total weight past `f64::MAX`, are refused with
/// the same structured error over JSON lines and over `bin1c`: JSON has
/// no infinity, so neither dialect sends one.
#[test]
fn numbers_no_dialect_can_carry_are_refused_in_both() {
    let server = seeded_server();
    let refused = |reply: Result<(), ClientError>, needle: &str| match reply {
        Err(ClientError::Server { message, code }) => {
            assert!(message.contains(needle), "{message}");
            assert_eq!(code, None);
            message
        }
        other => panic!("expected a refusal, got {other:?}"),
    };
    let mut messages = Vec::new();
    for binary in [false, true] {
        let mut client = ServiceClient::connect(server.addr()).unwrap();
        if binary {
            client.negotiate_binary().unwrap();
            assert!(client.is_checked(), "bin1c is negotiated first");
        }
        let name = if binary { "far-bin" } else { "far-json" };
        // Every squared distance between these two points overflows.
        let far = Dataset::from_flat(vec![-1e155, 1e155], 1).unwrap();
        client.ingest(name, &far, None).unwrap();
        let centers = Points::from_flat(vec![1e200], 1).unwrap();
        let cost = loop {
            match client.cost(name, &centers, None) {
                Err(e) if e.code() == Some(fc_service::ErrorCode::NoData) => continue,
                reply => break reply,
            }
        };
        let cluster = client.cluster(name, Some(1), None, None, Some(7));
        let heavy = Dataset::weighted(
            Points::from_flat(vec![0.0, 1.0], 1).unwrap(),
            vec![1e308; 2],
        );
        let ingest = client.ingest(name, &heavy.unwrap(), None);
        messages.push([
            refused(cost.map(drop), "cost overflows"),
            refused(cluster.map(drop), "clustering cost overflows"),
            refused(ingest.map(drop), "total weight past"),
        ]);
        // Still serving, and the refused batch was never counted.
        let stats = client.stats(Some(name)).unwrap();
        assert_eq!(
            (stats[0].ingested_points, stats[0].ingested_weight),
            (2, 2.0)
        );
    }
    let dialect_free = |m: &String| m.replace("far-json", "far-bin");
    assert_eq!(
        messages[0].iter().map(dialect_free).collect::<Vec<_>>(),
        messages[1].to_vec()
    );
    server.shutdown();
}
