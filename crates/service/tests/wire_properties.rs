//! Property-based fuzz of the `bin1` binary wire: the [`BinaryCodec`]
//! reassembles frames under arbitrary transport chunking exactly like
//! [`LineCodec`] does for JSON lines (`framing_properties.rs`), every
//! protocol operation round-trips through the binary codec and the JSON
//! codec to the *same* request/response, and the same malformed ingest is
//! refused with the same message by both — the two wire formats cannot
//! drift apart.

use fc_clustering::{CostKind, Solver};
use fc_core::json::{number_array, object, Value};
use fc_core::plan::{Method, PlanBuilder};
use fc_core::PointBlock;
use fc_service::framing::{BinaryCodec, FrameError};
use fc_service::protocol::{
    DatasetStats, ErrorCode, IngestIdent, NodeHealth, NodeStats, Request, Response, ServerStats,
};
use fc_service::wire;
use proptest::prelude::*;

/// Floats that survive JSON text round-trips bit-exactly (small dyadic
/// rationals), so binary/JSON parity can assert strict equality.
fn nice_float() -> impl Strategy<Value = f64> {
    (-4000i32..4000).prop_map(|v| f64::from(v) * 0.25)
}

/// Short lowercase-alphanumeric identifiers (dataset names, protocol
/// names, trace ids).
fn ident() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    prop::collection::vec(0usize..ALPHABET.len(), 1..13)
        .prop_map(|picks| picks.iter().map(|&i| char::from(ALPHABET[i])).collect())
}

fn dataset_name() -> impl Strategy<Value = String> {
    ident()
}

fn trace_id() -> impl Strategy<Value = Option<String>> {
    prop::option::of(ident())
}

/// Printable-ASCII message text (the error-message payload alphabet).
fn message() -> impl Strategy<Value = String> {
    prop::collection::vec(32u8..127, 0..40)
        .prop_map(|bytes| String::from_utf8(bytes).expect("printable ASCII is UTF-8"))
}

/// A valid point block: `rows x dim` coordinates, optional weights.
fn point_block() -> impl Strategy<Value = PointBlock> {
    (1usize..5, 1usize..17)
        .prop_flat_map(|(dim, rows)| {
            (
                prop::collection::vec(nice_float(), dim * rows),
                prop::option::of(prop::collection::vec(
                    (1i32..100).prop_map(|w| f64::from(w) * 0.5),
                    rows,
                )),
                Just(dim),
            )
        })
        .prop_map(|(data, weights, dim)| {
            PointBlock::new(data, dim, weights).expect("strategy builds valid blocks")
        })
}

fn centers() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..4, 1usize..5).prop_flat_map(|(dim, k)| {
        prop::collection::vec(prop::collection::vec(nice_float(), dim), k)
    })
}

fn cost_kind() -> impl Strategy<Value = Option<CostKind>> {
    prop::option::of(prop_oneof![Just(CostKind::KMeans), Just(CostKind::KMedian)])
}

/// One of `items`.
fn pick<T: Clone + 'static>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

fn method() -> impl Strategy<Value = Method> {
    pick(vec![
        "uniform",
        "lightweight",
        "fast-coreset",
        "sensitivity",
        "merge-reduce(welterweight(log-k))",
    ])
    .prop_map(|name| name.parse().expect("a library method name"))
}

fn solver() -> impl Strategy<Value = Solver> {
    pick(vec![
        Solver::Lloyd,
        Solver::Hamerly,
        Solver::KMedianWeiszfeld,
    ])
}

/// An optional exactly-once batch identity: client name plus sequence.
fn ingest_ident() -> impl Strategy<Value = Option<IngestIdent>> {
    prop::option::of((ident(), 0u64..10_000).prop_map(|(client, seq)| IngestIdent { client, seq }))
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        ident().prop_map(|proto| Request::Hello { proto }),
        (
            dataset_name(),
            point_block(),
            any::<bool>(),
            ingest_ident(),
            prop::option::of(1u64..64),
        )
            .prop_map(|(dataset, block, with_plan, ident, epoch)| {
                Request::Ingest {
                    dataset,
                    block,
                    plan: with_plan.then(|| PlanBuilder::new(3).build().expect("valid plan")),
                    ident,
                    epoch,
                }
            }),
        (
            dataset_name(),
            prop::option::of(method()),
            prop::option::of(0u64..1000)
        )
            .prop_map(|(dataset, method, seed)| Request::Compress {
                dataset,
                method,
                seed,
            }),
        (
            dataset_name(),
            prop::option::of(1usize..9),
            cost_kind(),
            prop::option::of(solver()),
            prop::option::of(0u64..1000),
        )
            .prop_map(|(dataset, k, kind, solver, seed)| Request::Cluster {
                dataset,
                k,
                kind,
                solver,
                seed,
            }),
        (dataset_name(), centers(), cost_kind()).prop_map(|(dataset, centers, kind)| {
            Request::Cost {
                dataset,
                centers,
                kind,
            }
        }),
        prop::option::of(dataset_name()).prop_map(|dataset| Request::Stats { dataset }),
        Just(Request::Metrics),
        dataset_name().prop_map(|dataset| Request::DropDataset { dataset }),
        (
            ident(),
            prop::option::of((1i32..40).prop_map(|c| f64::from(c) * 0.25))
        )
            .prop_map(|(addr, capacity)| Request::AddNode { addr, capacity }),
        ident().prop_map(|addr| Request::DrainNode { addr }),
    ]
}

fn node_stats() -> impl Strategy<Value = NodeStats> {
    (
        ident(),
        pick(vec![
            NodeHealth::Alive,
            NodeHealth::Recovering,
            NodeHealth::Degraded,
            NodeHealth::Down,
        ]),
        prop::option::of(message()),
        (0usize..9, 0u64..10_000, nice_float(), 0usize..10_000),
    )
        .prop_map(
            |(node, health, last_error, (shards, points, weight, stored))| NodeStats {
                node,
                health,
                last_error,
                shards,
                ingested_points: points,
                ingested_weight: weight,
                stored_points: stored,
            },
        )
}

fn dataset_stats() -> impl Strategy<Value = DatasetStats> {
    (
        (dataset_name(), 1usize..30, 1usize..6, 0u64..100_000),
        (nice_float(), 0usize..5_000, any::<bool>()),
        prop::collection::vec((0usize..9, 0usize..9), 1..5),
        (0u64..50, 0u64..50_000),
        prop::collection::vec(node_stats(), 0..4),
    )
        .prop_map(
            |((dataset, dim, k, points), (weight, stored, recovering), shards, epoch, nodes)| {
                DatasetStats {
                    dataset,
                    dim,
                    plan: PlanBuilder::new(k).build().expect("valid plan"),
                    shards: shards.len(),
                    ingested_points: points,
                    ingested_weight: weight,
                    stored_points: stored,
                    summaries_per_shard: shards.iter().map(|s| s.0).collect(),
                    queue_depth_per_shard: shards.iter().map(|s| s.1).collect(),
                    state_epoch: epoch,
                    recovering,
                    nodes,
                }
            },
        )
}

/// Server counters, each of the optional ones zero (and so left out of
/// JSON) about half the time.
fn server_stats() -> impl Strategy<Value = ServerStats> {
    let counter = || prop_oneof![Just(0u64), 1u64..1 << 40];
    (
        (0u64..1 << 30, counter(), counter(), counter()),
        (counter(), counter(), counter()),
    )
        .prop_map(
            |((uptime_secs, ingested_points, ingested_blocks, queries), (epoch, hits, misses))| {
                ServerStats {
                    uptime_secs,
                    ingested_points,
                    ingested_blocks,
                    queries,
                    fleet_epoch: epoch,
                    cache_hits: hits,
                    cache_misses: misses,
                }
            },
        )
}

/// A metrics payload of the shape `fc-telemetry` writes.
fn metrics() -> impl Strategy<Value = Value> {
    prop::collection::vec((ident(), 0u64..1 << 40), 0..6).prop_map(|counters| {
        let counters = counters.into_iter().map(|(k, v)| (k, Value::from(v)));
        object([
            ("counters", Value::Object(counters.collect())),
            ("traces", Value::Array(Vec::new())),
        ])
    })
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        ident().prop_map(|proto| Response::Hello { proto }),
        (
            dataset_name(),
            0usize..500,
            0u64..100_000,
            nice_float(),
            any::<bool>()
        )
            .prop_map(|(dataset, points, total_points, total_weight, duplicate)| {
                Response::Ingested {
                    dataset,
                    points,
                    total_points,
                    total_weight,
                    duplicate,
                }
            }),
        (dataset_name(), nice_float(), 0usize..500).prop_map(|(dataset, cost, coreset_points)| {
            Response::Cost {
                dataset,
                cost,
                kind: CostKind::KMeans,
                coreset_points,
            }
        }),
        (
            dataset_name(),
            centers(),
            nice_float(),
            0usize..500,
            0u64..1000
        )
            .prop_map(|(dataset, centers, coreset_cost, coreset_points, seed)| {
                Response::Clustered {
                    dataset,
                    centers,
                    kind: CostKind::KMedian,
                    solver: Solver::Lloyd,
                    coreset_cost,
                    coreset_points,
                    seed,
                }
            }),
        (
            dataset_name(),
            centers(),
            method(),
            0u64..1000,
            prop::collection::vec(nice_float(), 0..6)
        )
            .prop_map(|(dataset, points, method, seed, mut weights)| {
                weights.resize(points.len(), 1.0);
                Response::Coreset {
                    dataset,
                    points,
                    weights,
                    method,
                    seed,
                }
            }),
        (
            prop::collection::vec(dataset_stats(), 0..3),
            prop::option::of(server_stats())
        )
            .prop_map(|(datasets, server)| Response::Stats { datasets, server }),
        metrics().prop_map(|metrics| Response::Metrics { metrics }),
        dataset_name().prop_map(|dataset| Response::Dropped { dataset }),
        (1u64..100, 1usize..9, 0usize..9).prop_map(|(epoch, nodes, migrated)| {
            Response::FleetUpdated {
                epoch,
                nodes,
                migrated,
            }
        }),
        (
            message(),
            prop::option::of(prop_oneof![
                Just(ErrorCode::Overloaded),
                Just(ErrorCode::WrongEpoch)
            ])
        )
            .prop_map(|(message, code)| Response::Error { message, code }),
    ]
}

/// How a malformed ingest is malformed.
#[derive(Debug, Clone, Copy)]
enum Fault {
    WeightCount,
    NegativeWeight,
    NonFinite,
    Empty,
}

/// One malformed ingest as a JSON line and as a `bin1c` frame, written
/// field by field in each dialect's layout (the binary one is the `0x21`
/// row of the op table in `fc_service::wire`).
fn malformed_ingest(fault: Fault, dim: usize, rows: usize, at: usize) -> (String, Vec<u8>) {
    let rows = if matches!(fault, Fault::Empty) {
        0
    } else {
        rows
    };
    let mut data: Vec<f64> = (0..rows * dim).map(|i| i as f64 * 0.5).collect();
    let mut weights = match fault {
        Fault::WeightCount => Some(vec![1.0; rows + 1 + at % 2]),
        Fault::NegativeWeight => Some(vec![1.0; rows]),
        Fault::NonFinite | Fault::Empty => None,
    };
    match fault {
        Fault::NegativeWeight => weights.as_mut().expect("weighted")[at % rows] = -0.5,
        Fault::NonFinite => {
            let i = at % data.len();
            data[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][at % 3];
        }
        Fault::WeightCount | Fault::Empty => {}
    }
    let mut line = object([
        ("op", Value::from("ingest")),
        ("dataset", Value::from("d")),
        (
            "points",
            Value::Array(data.chunks(dim).map(number_array).collect()),
        ),
    ]);
    let mut payload = vec![0x21, 0];
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.push(b'd');
    payload.extend_from_slice(&u32::try_from(dim).unwrap().to_le_bytes());
    payload.extend_from_slice(&u32::try_from(rows).unwrap().to_le_bytes());
    data.iter()
        .for_each(|x| payload.extend_from_slice(&x.to_le_bytes()));
    match &weights {
        None => payload.push(0),
        Some(w) => {
            if let Value::Object(map) = &mut line {
                map.insert("weights".to_owned(), number_array(w));
            }
            payload.push(1);
            payload.extend_from_slice(&u32::try_from(w.len()).unwrap().to_le_bytes());
            w.iter()
                .for_each(|x| payload.extend_from_slice(&x.to_le_bytes()));
        }
    }
    payload.extend_from_slice(&[0, 0, 0, 0]);
    let mut frame = (u32::try_from(payload.len()).unwrap() + 4)
        .to_le_bytes()
        .to_vec();
    frame.extend_from_slice(&fc_persist::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    (line.to_json(), frame)
}

/// Extracts one frame's payload through the codec (prefix — and for
/// `bin1c` frames the CRC — verified).
fn payload_of(frame: &[u8], checked: bool) -> Vec<u8> {
    let mut codec = if checked {
        BinaryCodec::new_checked(64 * 1024 * 1024)
    } else {
        BinaryCodec::new(64 * 1024 * 1024)
    };
    codec.push(frame);
    let payload = codec
        .next_frame()
        .expect("well-formed frame")
        .expect("complete frame");
    assert_eq!(codec.buffered(), 0, "frame fully consumed");
    payload
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary frames split at arbitrary byte boundaries reassemble
    /// exactly — the `bin1` analogue of the LineCodec chunking property.
    #[test]
    fn binary_frames_survive_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(0u8..=255, 0..96), 1..12),
        cuts in prop::collection::vec(1usize..23, 1..32),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&u32::try_from(p.len()).unwrap().to_le_bytes());
            stream.extend_from_slice(p);
        }
        let mut codec = BinaryCodec::new(4096);
        let mut got = Vec::new();
        let mut offset = 0;
        let mut cut = 0;
        while offset < stream.len() {
            let take = cuts[cut % cuts.len()].min(stream.len() - offset);
            cut += 1;
            codec.push(&stream[offset..offset + take]);
            offset += take;
            while let Ok(Some(frame)) = codec.next_frame() {
                got.push(frame);
            }
        }
        prop_assert_eq!(&got, &payloads);
        prop_assert_eq!(codec.buffered(), 0);
    }

    /// Every request decodes identically from its binary frame (`bin1`
    /// and checksummed `bin1c` alike) and its JSON line — including the
    /// trace id riding along.
    #[test]
    fn requests_round_trip_binary_and_json_identically(
        request in request(),
        trace in trace_id(),
        checked in any::<bool>(),
    ) {
        let frame = wire::request_frame(&request, trace.as_deref(), checked);
        let (from_binary, binary_trace) =
            wire::decode_request(&payload_of(&frame, checked)).expect("binary frame decodes");
        prop_assert_eq!(&from_binary, &request);
        prop_assert_eq!(&binary_trace, &trace);

        let line = request.to_json_with_trace(trace.as_deref());
        let (from_json, json_trace) =
            Request::from_json_with_trace(&line).expect("json line decodes");
        prop_assert_eq!(&from_json, &request);
        prop_assert_eq!(&json_trace, &trace);
    }

    /// Every response decodes identically from its binary frame (both
    /// framings) and its JSON line.
    #[test]
    fn responses_round_trip_binary_and_json_identically(
        response in response(),
        checked in any::<bool>(),
    ) {
        let frame = wire::response_frame(&response, checked);
        let from_binary =
            wire::decode_response(&payload_of(&frame, checked)).expect("binary frame decodes");
        prop_assert_eq!(&from_binary, &response);

        let from_json = Response::from_json(&response.to_json()).expect("json line decodes");
        prop_assert_eq!(&from_json, &response);
    }

    /// The same malformed ingest — a weight count that does not match the
    /// points, a negative weight, a non-finite coordinate (`null` is how
    /// JSON writes one), no points — is refused with the same message over
    /// JSON lines and in a binary frame.
    #[test]
    fn malformed_ingests_get_one_message_in_both_dialects(
        fault in pick(vec![
            Fault::WeightCount,
            Fault::NegativeWeight,
            Fault::NonFinite,
            Fault::Empty,
        ]),
        dim in 1usize..5,
        rows in 1usize..9,
        at in 0usize..64,
    ) {
        let (line, frame) = malformed_ingest(fault, dim, rows, at);
        let from_json = Request::from_json(&line).expect_err("malformed JSON ingest");
        let from_binary =
            wire::decode_request(&payload_of(&frame, true)).expect_err("malformed binary ingest");
        prop_assert_eq!(&from_json.message, &from_binary.message);
        let want = match fault {
            Fault::WeightCount => "weights for",
            Fault::NegativeWeight => "non-negative",
            Fault::NonFinite => "must be finite",
            Fault::Empty => "must be non-empty",
        };
        prop_assert!(from_json.message.contains(want), "{}", from_json.message);
    }

    /// Flipping any single payload bit of a `bin1c` frame trips the CRC —
    /// and because the length prefix still fixed the frame boundary, the
    /// codec resynchronizes: the next clean frame decodes normally.
    #[test]
    fn corrupt_checked_frames_are_detected_and_recoverable(
        request in request(),
        trace in trace_id(),
        flip_byte in 0usize..1 << 20,
        flip_bit in 0u8..8,
    ) {
        let frame = wire::request_frame(&request, trace.as_deref(), true);
        // Layout: [u32 len][u32 crc][payload]. Corrupt the payload only —
        // corrupting the length prefix is a different failure (the codec
        // would mis-frame, which `Oversized`/`Truncated` cover).
        let payload_len = frame.len() - 8;
        prop_assume!(payload_len > 0);
        let mut corrupted = frame.clone();
        let at = 8 + flip_byte % payload_len;
        corrupted[at] ^= 1 << flip_bit;

        let mut codec = BinaryCodec::new_checked(64 * 1024 * 1024);
        codec.push(&corrupted);
        codec.push(&frame);
        match codec.next_frame() {
            Err(e @ FrameError::Corrupt) => prop_assert!(!e.is_fatal()),
            other => return Err(TestCaseError::fail(format!("expected Corrupt, got {other:?}"))),
        }
        prop_assert!(!codec.is_poisoned());
        let clean = codec
            .next_frame()
            .expect("codec resynchronized")
            .expect("second frame complete");
        let (decoded, decoded_trace) =
            wire::decode_request(&clean).expect("clean frame decodes");
        prop_assert_eq!(&decoded, &request);
        prop_assert_eq!(&decoded_trace, &trace);
    }

    /// A length prefix past the frame cap is rejected the moment it is
    /// read — before any payload arrives — and poisons the codec.
    #[test]
    fn oversized_binary_frames_are_fatal(
        limit in 8usize..4096,
        overshoot in 1u32..1024,
    ) {
        let mut codec = BinaryCodec::new(limit);
        let len = u32::try_from(limit).unwrap() + overshoot;
        codec.push(&len.to_le_bytes());
        match codec.next_frame() {
            Err(e @ FrameError::Oversized { .. }) => prop_assert!(e.is_fatal()),
            other => return Err(TestCaseError::fail(format!("expected Oversized, got {other:?}"))),
        }
        prop_assert!(codec.is_poisoned());
        // No resynchronization: the codec stays dead.
        codec.push(&4u32.to_le_bytes());
        codec.push(b"ok!!");
        prop_assert!(codec.next_frame().is_err());
    }

    /// A torn frame (length prefix promising more than ever arrives)
    /// stays pending — and EOF turns it into a fatal truncation, never a
    /// silent partial frame.
    #[test]
    fn torn_binary_frames_truncate_at_eof(
        payload in prop::collection::vec(0u8..=255, 1..64),
        keep in 0usize..64,
    ) {
        let keep = keep.min(payload.len() - 1);
        let mut codec = BinaryCodec::new(4096);
        codec.push(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        codec.push(&payload[..keep]);
        prop_assert_eq!(codec.next_frame(), Ok(None));
        match codec.finish() {
            Err(e @ FrameError::Truncated) => prop_assert!(e.is_fatal()),
            other => return Err(TestCaseError::fail(format!("expected Truncated, got {other:?}"))),
        }
    }
}
