//! The connection protocol, once: what a server does with the bytes of
//! one connection and what a client does with one request and its reply.
//! No sockets and no threads — like [`crate::query`] and
//! [`crate::ingest`], everything here is unit-testable against a fake
//! [`Backend`], and every I/O loop (the reactor, the thread-per-connection
//! server, the blocking [`crate::ServiceClient`], the `fc-cluster`
//! coordinator's exchange driver) is a caller.
//!
//! # Server half
//!
//! A [`Session`] owns the connection's [`WireCodec`] and its permission to
//! upgrade. Bytes go in through [`Session::push`]; [`Session::next_step`]
//! yields the connection's [`Step`]s strictly in the order the peer's
//! frames arrived:
//!
//! - [`Step::Frame`] — a request to execute: hand it to [`answer`].
//! - [`Step::Reply`] — a frame the session answered itself, already
//!   encoded: the `hello` acknowledgement, or the error for a
//!   *recoverable* framing failure (an invalid-UTF-8 line, a `bin1c` frame
//!   that failed its checksum) after which the stream resynchronizes.
//!   Write it in this position of the pipeline.
//! - [`Step::Fatal`] — the error for a framing failure nothing can follow
//!   (an oversized frame, a binary stream torn mid-frame at EOF): write it,
//!   then close. The session yields nothing after it.
//!
//! Blank JSON lines yield no step. At EOF the final newline-less line is
//! served as a frame (a torn binary tail is fatal).
//!
//! **The upgrade happens at extraction.** A `hello` naming a binary
//! dialect is answered and applied the moment its line leaves the codec,
//! not when it would be dispatched: the codec must flip to binary before
//! it scans the next buffered byte, or binary frames pipelined behind the
//! `hello` would be misparsed as lines. A `hello` the session does not
//! honour — an unknown `proto`, or any `hello` when the server runs with
//! the binary wire off — is an ordinary frame: it reaches dispatch and is
//! refused there, in JSON, which is how a client learns to stay on
//! JSON-lines.
//!
//! **A reply travels in the dialect its request arrived in.** [`answer`]
//! reads the dialect off the request frame, so a pipeline that crosses an
//! upgrade answers the JSON lines before it in JSON and the frames behind
//! it in binary; a locally answered framing error has no request frame and
//! uses the dialect the codec speaks at that point.
//!
//! [`answer`] is the whole per-request unit of work: decode (JSON line or
//! binary payload — one field list per op, read through the field
//! vocabulary in [`crate::wire`], so a malformed request gets the same
//! message in either), set the ambient trace id, dispatch through
//! [`handle_request`], record the hop, encode. A panic inside is contained
//! as one `internal` error for that request — the connection, the thread
//! that ran it and the rest of the pipeline carry on.
//!
//! # Client half
//!
//! [`encode_request`] picks JSON line or binary frame from the codec the
//! client owns; [`decode_reply`] decodes either and maps an error response
//! onto [`ClientError`]: `overloaded` becomes [`ClientError::Overloaded`]
//! (the one class callers retry), every other code
//! [`ClientError::Server`], an undecodable reply
//! [`ClientError::Protocol`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::backend::Backend;
use crate::client::ClientError;
use crate::framing::{FrameError, WireCodec, WireFrame, MAX_FRAME_BYTES};
use crate::protocol::{self, ErrorCode, Request, Response};
use crate::server::handle_request;
use crate::wire;

/// One step of a server-side connection, in pipeline order.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// A request frame to execute ([`answer`]).
    Frame(WireFrame),
    /// An already-encoded local answer (hello ack, recoverable framing
    /// error), to be written in this position.
    Reply(Vec<u8>),
    /// Like [`Step::Reply`], but the connection closes once it is written.
    Fatal(Vec<u8>),
}

/// The server's view of one connection: framing state plus the upgrade
/// rule. See the module docs for the protocol it implements.
#[derive(Debug)]
pub struct Session {
    codec: WireCodec,
    /// Whether a `hello` may upgrade this connection to a binary dialect.
    binary_wire: bool,
}

impl Session {
    /// A fresh connection: JSON-lines under the server's request-frame
    /// cap.
    pub fn new(binary_wire: bool) -> Session {
        Session {
            codec: WireCodec::json(MAX_FRAME_BYTES),
            binary_wire,
        }
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.codec.push(bytes);
    }

    /// Bytes buffered but not yet framed (a read-side back-pressure
    /// input).
    pub fn buffered(&self) -> usize {
        self.codec.buffered()
    }

    /// The next step the buffered bytes hold; `None` when they hold no
    /// complete frame (read more), or after a [`Step::Fatal`]. Once the
    /// transport reported `eof`, the tail is served too: a final JSON line
    /// without its newline is still a frame, and a binary stream that ends
    /// mid-frame is fatal.
    pub fn next_step(&mut self, eof: bool) -> Option<Step> {
        while !self.codec.is_poisoned() {
            let framed = match self.codec.next_frame().transpose() {
                Some(framed) => framed,
                None if eof => self.codec.finish().transpose()?,
                None => return None,
            };
            if let Some(step) = self.step(framed) {
                return Some(step);
            }
        }
        None
    }

    /// Classifies one framing outcome; `None` for a blank line.
    fn step(&mut self, framed: Result<WireFrame, FrameError>) -> Option<Step> {
        match framed {
            Ok(WireFrame::Line(line)) => {
                if line.trim().is_empty() {
                    return None;
                }
                if let Some((proto, checked)) = self.upgrade_asked(&line) {
                    // Acknowledge in JSON (the client still reads JSON);
                    // everything behind the line is the new dialect's.
                    let ack = json_line(&Response::Hello { proto });
                    self.codec.upgrade_to_binary(checked);
                    return Some(Step::Reply(ack));
                }
                Some(Step::Frame(WireFrame::Line(line)))
            }
            Ok(frame) => Some(Step::Frame(frame)),
            Err(e) => {
                let response = Response::Error {
                    message: format!("request {e}"),
                    code: None,
                };
                let bytes = match &self.codec {
                    WireCodec::Json(_) => json_line(&response),
                    WireCodec::Binary(c) => wire::response_frame(&response, c.is_checked()),
                };
                Some(if e.is_fatal() {
                    Step::Fatal(bytes)
                } else {
                    Step::Reply(bytes)
                })
            }
        }
    }

    /// `Some((proto, checked))` when `line` is a `hello` this session
    /// honours. The substring pre-filter keeps the hot path at one scan —
    /// ordinary requests are never parsed twice.
    fn upgrade_asked(&self, line: &str) -> Option<(String, bool)> {
        if !self.binary_wire || !line.contains("\"hello\"") {
            return None;
        }
        let Ok((Request::Hello { proto }, _)) = Request::from_json_with_trace(line.trim()) else {
            return None;
        };
        let checked = match proto.as_str() {
            protocol::BINARY_PROTO => false,
            protocol::BINARY_PROTO_CRC => true,
            _ => return None,
        };
        Some((proto, checked))
    }
}

/// One response as a newline-terminated JSON line.
pub(crate) fn json_line(response: &Response) -> Vec<u8> {
    let mut bytes = response.to_json().into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Encodes `response` in the dialect the request `frame` arrived in.
pub fn reply_to(frame: &WireFrame, response: &Response) -> Vec<u8> {
    match frame {
        WireFrame::Line(_) => json_line(response),
        WireFrame::Binary(_) => wire::response_frame(response, false),
        WireFrame::Checked(_) => wire::response_frame(response, true),
    }
}

/// Decodes and executes one request frame and encodes its response — the
/// whole per-request unit of work every I/O model hands to its executing
/// thread. Every frame gets exactly one answer: garbage decodes to a
/// structured error, and a panicking backend call fails its own request
/// with `internal` instead of unwinding into the caller's I/O loop (where
/// it would strand the connection without a reply).
pub fn answer(backend: &dyn Backend, frame: &WireFrame) -> Vec<u8> {
    let response = catch_unwind(AssertUnwindSafe(|| execute(backend, frame)));
    let response = response.unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("(no message)");
        Response::Error {
            message: format!("internal error: the request panicked: {what}"),
            code: Some(ErrorCode::Internal),
        }
    });
    reply_to(frame, &response)
}

fn execute(backend: &dyn Backend, frame: &WireFrame) -> Response {
    let decoded = match frame {
        WireFrame::Line(line) => Request::from_json_with_trace(line.trim()),
        WireFrame::Binary(payload) | WireFrame::Checked(payload) => wire::decode_request(payload),
    };
    match decoded {
        Ok((request, trace)) => {
            let op = request.op_name();
            // The ambient trace id rides the executing thread so a
            // coordinator backend can stamp it onto its node fan-outs.
            let _scope = fc_telemetry::set_current_trace(trace.clone());
            let started = std::time::Instant::now();
            let response = handle_request(backend, request);
            if let (Some(id), Some(telemetry)) = (trace, backend.telemetry()) {
                telemetry.traces.record(&id, op, started.elapsed());
            }
            response
        }
        Err(e) => Response::Error {
            message: e.message,
            code: None,
        },
    }
}

/// Encodes one request for the connection `codec` frames: a JSON line, or
/// one binary frame in the envelope the connection negotiated.
pub fn encode_request(codec: &WireCodec, request: &Request, trace: Option<&str>) -> Vec<u8> {
    match codec {
        WireCodec::Json(_) => {
            let mut line = request.to_json_with_trace(trace).into_bytes();
            line.push(b'\n');
            line
        }
        WireCodec::Binary(c) => wire::request_frame(request, trace, c.is_checked()),
    }
}

/// Decodes one reply frame, in whichever dialect it arrived; an error
/// response becomes the [`ClientError`] its code names.
pub fn decode_reply(frame: &WireFrame) -> Result<Response, ClientError> {
    let response = match frame {
        WireFrame::Line(line) => Response::from_json(line.trim_end())?,
        WireFrame::Binary(payload) | WireFrame::Checked(payload) => wire::decode_response(payload)?,
    };
    match response {
        Response::Error { message, code } => Err(match code {
            Some(ErrorCode::Overloaded) => ClientError::Overloaded(message),
            code => ClientError::Server { message, code },
        }),
        response => Ok(response),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::IngestOutcome;
    use crate::engine::{ClusterOutcome, Engine, EngineConfig, EngineError};
    use crate::protocol::{DatasetStats, IngestIdent};
    use fc_clustering::{CostKind, Solution, Solver};
    use fc_core::plan::{Method, Plan, PlanBuilder};
    use fc_core::{Coreset, PointBlock};
    use fc_geom::{Dataset, Points};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// A backend with nothing behind it: every op answers from its
    /// arguments. Dataset `busy` is overloaded, `missing` does not exist,
    /// and clustering `boom` hits a bug.
    struct Fake(Arc<fc_telemetry::Telemetry>);

    fn fake() -> Fake {
        Fake(Arc::new(fc_telemetry::Telemetry::new()))
    }

    fn two_points() -> Dataset {
        Dataset::from_flat(vec![0.0, 0.5, 2.0, -1.25], 2).unwrap()
    }

    impl Backend for Fake {
        fn ingest(
            &self,
            name: &str,
            batch: &Dataset,
            _plan: Option<&Plan>,
            ident: Option<&IngestIdent>,
            _epoch: Option<u64>,
        ) -> Result<IngestOutcome, EngineError> {
            if name == "busy" {
                return Err(EngineError::Overloaded {
                    dataset: name.to_owned(),
                    shard: 0,
                });
            }
            Ok(IngestOutcome {
                total_points: batch.len() as u64,
                total_weight: batch.total_weight(),
                duplicate: ident.is_some(),
            })
        }

        fn coreset(
            &self,
            _name: &str,
            seed: Option<u64>,
            method: Option<&Method>,
        ) -> Result<(Coreset, u64, Method), EngineError> {
            let method = method.cloned().unwrap_or(Method::Uniform);
            Ok((Coreset::new(two_points()), seed.unwrap_or(7), method))
        }

        fn cluster(
            &self,
            name: &str,
            _k: Option<usize>,
            kind: Option<CostKind>,
            solver: Option<Solver>,
            seed: Option<u64>,
        ) -> Result<ClusterOutcome, EngineError> {
            assert_ne!(name, "boom", "injected cluster bug");
            Ok(ClusterOutcome {
                solution: Solution {
                    centers: Points::from_flat(vec![1.0, 2.0], 2).unwrap(),
                    labels: vec![0, 0],
                    cost: 3.5,
                    rounds: 1,
                    distance_evals: 2,
                },
                kind: kind.unwrap_or(CostKind::KMeans),
                solver: solver.unwrap_or(Solver::Lloyd),
                coreset_points: 2,
                seed: seed.unwrap_or(7),
            })
        }

        fn cost(
            &self,
            _name: &str,
            centers: &Points,
            kind: Option<CostKind>,
        ) -> Result<(f64, CostKind, usize), EngineError> {
            Ok((centers.len() as f64, kind.unwrap_or(CostKind::KMeans), 2))
        }

        fn dataset_stats(&self, name: &str) -> Result<DatasetStats, EngineError> {
            if name == "missing" {
                return Err(EngineError::UnknownDataset(name.to_owned()));
            }
            Ok(DatasetStats {
                dataset: name.to_owned(),
                dim: 2,
                plan: PlanBuilder::new(2).build().unwrap(),
                shards: 1,
                ingested_points: 2,
                ingested_weight: 2.0,
                stored_points: 2,
                summaries_per_shard: vec![1],
                queue_depth_per_shard: vec![0],
                state_epoch: (1, 2),
                recovering: false,
                nodes: Vec::new(),
            })
        }

        fn stats(&self) -> Result<Vec<DatasetStats>, EngineError> {
            Ok(vec![self.dataset_stats("d")?])
        }

        fn telemetry(&self) -> Option<Arc<fc_telemetry::Telemetry>> {
            Some(Arc::clone(&self.0))
        }

        fn metrics(&self) -> Option<fc_core::json::Value> {
            Some(fc_core::json::object([("fake", true.into())]))
        }

        fn drop_dataset(&self, _name: &str) -> Result<(), EngineError> {
            Ok(())
        }
    }

    fn ingest(dataset: &str, ident: bool) -> Request {
        Request::Ingest {
            dataset: dataset.to_owned(),
            block: PointBlock::new(vec![0.0, 1.5, -2.25, 3.0], 2, Some(vec![1.0, 2.5])).unwrap(),
            plan: Some(PlanBuilder::new(2).m_scalar(10).build().unwrap()),
            ident: ident.then(|| IngestIdent {
                client: "producer".to_owned(),
                seq: 9,
            }),
            epoch: ident.then_some(4),
        }
    }

    /// One request of every variant (ingest twice: bare, and with the
    /// ident / epoch extensions).
    fn every_request() -> Vec<Request> {
        vec![
            Request::Hello {
                proto: "bin9".to_owned(),
            },
            ingest("d", false),
            ingest("d", true),
            Request::Compress {
                dataset: "d".to_owned(),
                method: Some(Method::Lightweight),
                seed: Some(u64::MAX),
            },
            Request::Cluster {
                dataset: "d".to_owned(),
                k: Some(2),
                kind: Some(CostKind::KMedian),
                solver: Some(Solver::Hamerly),
                seed: Some(3),
            },
            Request::Cost {
                dataset: "d".to_owned(),
                centers: vec![vec![0.0, 0.0], vec![1.0, 1.0]],
                kind: None,
            },
            Request::Stats { dataset: None },
            Request::Stats {
                dataset: Some("d".to_owned()),
            },
            Request::DropDataset {
                dataset: "d".to_owned(),
            },
            Request::Metrics,
            Request::AddNode {
                addr: "127.0.0.1:1".to_owned(),
                capacity: Some(2.0),
            },
            Request::DrainNode {
                addr: "127.0.0.1:1".to_owned(),
            },
        ]
    }

    /// The client side of one in-memory connection: the codec a
    /// `ServiceClient` would own, fed the server's reply bytes.
    struct Peer(WireCodec);

    impl Peer {
        fn json() -> Peer {
            Peer(WireCodec::json(usize::MAX))
        }

        /// What a client does on reading the ack of its `proto` hello.
        fn upgrade(&mut self, proto: &str) {
            self.0
                .upgrade_to_binary(proto == protocol::BINARY_PROTO_CRC);
        }

        /// A client and a server session that negotiated `proto` the way
        /// `ServiceClient::negotiate_binary` does (`None` stays on JSON).
        fn connected(proto: Option<&str>) -> (Peer, Session) {
            let mut peer = Peer::json();
            let mut session = Session::new(true);
            if let Some(proto) = proto {
                let hello = Request::Hello {
                    proto: proto.to_owned(),
                };
                session.push(&encode_request(&peer.0, &hello, None));
                let Some(Step::Reply(ack)) = session.next_step(false) else {
                    panic!("a supported hello is acknowledged locally");
                };
                assert_eq!(
                    peer.reply(&ack).unwrap(),
                    Response::Hello {
                        proto: proto.to_owned()
                    }
                );
                peer.upgrade(proto);
            }
            (peer, session)
        }

        /// Decodes exactly one reply out of `bytes`.
        fn reply(&mut self, bytes: &[u8]) -> Result<Response, ClientError> {
            self.0.push(bytes);
            let frame = self.0.next_frame().unwrap().expect("one whole reply");
            assert_eq!(self.0.buffered(), 0, "exactly one reply");
            decode_reply(&frame)
        }
    }

    const DIALECTS: [Option<&str>; 3] = [
        None,
        Some(protocol::BINARY_PROTO),
        Some(protocol::BINARY_PROTO_CRC),
    ];

    fn frame_of(step: Option<Step>) -> WireFrame {
        match step {
            Some(Step::Frame(frame)) => frame,
            other => panic!("expected a request frame, got {other:?}"),
        }
    }

    #[test]
    fn every_request_round_trips_in_every_dialect() {
        let backend = fake();
        for proto in DIALECTS {
            let (mut peer, mut session) = Peer::connected(proto);
            for request in every_request() {
                session.push(&encode_request(&peer.0, &request, Some("t-1")));
                let frame = frame_of(session.next_step(false));
                assert_eq!(session.next_step(false), None);
                let got = peer.reply(&answer(&backend, &frame));
                // The reference is the same dispatch with no wire between.
                match handle_request(&backend, request.clone()) {
                    Response::Error { message, code } => match got {
                        Err(ClientError::Server {
                            message: m,
                            code: c,
                        }) => {
                            assert_eq!((m, c), (message, code), "{proto:?} {request:?}");
                        }
                        other => panic!("{proto:?} {request:?}: {other:?}"),
                    },
                    want => assert_eq!(got.unwrap(), want, "{proto:?} {request:?}"),
                }
            }
            assert_eq!(session.next_step(true), None);
        }
        // Every executed request logged one hop under the id it carried.
        let traces = backend.0.traces.snapshot();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].id, "t-1");
        assert_eq!(traces[0].hops.len(), 3 * every_request().len());
    }

    #[test]
    fn error_codes_map_onto_client_errors_in_every_dialect() {
        let backend = fake();
        for proto in DIALECTS {
            let (mut peer, mut session) = Peer::connected(proto);
            let mut ask = |request: Request| {
                session.push(&encode_request(&peer.0, &request, None));
                peer.reply(&answer(&backend, &frame_of(session.next_step(false))))
            };
            match ask(ingest("busy", false)) {
                Err(ClientError::Overloaded(message)) => assert!(message.contains("busy")),
                other => panic!("{proto:?}: {other:?}"),
            }
            match ask(Request::Stats {
                dataset: Some("missing".to_owned()),
            }) {
                Err(e @ ClientError::Server { .. }) => {
                    assert_eq!(e.code(), Some(ErrorCode::UnknownDataset));
                }
                other => panic!("{proto:?}: {other:?}"),
            }
            match ask(ingest("d", true)) {
                Ok(Response::Ingested {
                    points, duplicate, ..
                }) => assert_eq!((points, duplicate), (2, true)),
                other => panic!("{proto:?}: {other:?}"),
            }
        }
        // A reply that does not decode is a protocol error, not a panic.
        for garbage in [
            WireFrame::Line("{nope".to_owned()),
            WireFrame::Binary(vec![0x81, 0, 9]),
            WireFrame::Checked(Vec::new()),
        ] {
            assert!(matches!(
                decode_reply(&garbage),
                Err(ClientError::Protocol(_))
            ));
        }
    }

    #[test]
    fn a_pipeline_that_crosses_a_hello_answers_each_frame_in_its_dialect() {
        let backend = fake();
        let cost = Request::Cost {
            dataset: "d".to_owned(),
            centers: vec![vec![0.0, 0.0]],
            kind: None,
        };
        for checked in [false, true] {
            let proto = if checked { "bin1c" } else { "bin1" };
            // One packet: a JSON request, the hello, two binary frames.
            let mut packet = b"{\"op\":\"stats\"}\n".to_vec();
            packet.extend_from_slice(
                format!("{{\"op\":\"hello\",\"proto\":\"{proto}\"}}\n").as_bytes(),
            );
            packet.extend_from_slice(&wire::request_frame(&cost, None, checked));
            packet.extend_from_slice(&wire::request_frame(&Request::Metrics, None, checked));
            let mut session = Session::new(true);
            session.push(&packet);

            let mut peer = Peer::json();
            let stats = frame_of(session.next_step(false));
            assert!(matches!(stats, WireFrame::Line(_)));
            let reply = answer(&backend, &stats);
            assert_eq!(reply.last(), Some(&b'\n'), "JSON in, JSON out");
            assert!(matches!(peer.reply(&reply), Ok(Response::Stats { .. })));

            let Some(Step::Reply(ack)) = session.next_step(false) else {
                panic!("the hello is answered at extraction");
            };
            assert_eq!(
                ack,
                format!("{{\"kind\":\"hello\",\"ok\":true,\"proto\":\"{proto}\"}}\n").into_bytes()
            );
            peer.reply(&ack).unwrap();
            peer.0.upgrade_to_binary(checked);

            // The bytes behind the hello were scanned as binary frames.
            for want_cost in [true, false] {
                let frame = frame_of(session.next_step(false));
                assert_eq!(matches!(frame, WireFrame::Checked(_)), checked);
                assert_eq!(matches!(frame, WireFrame::Binary(_)), !checked);
                let reply = peer.reply(&answer(&backend, &frame)).unwrap();
                assert_eq!(matches!(reply, Response::Cost { .. }), want_cost);
                assert_eq!(matches!(reply, Response::Metrics { .. }), !want_cost);
            }
            assert_eq!(session.next_step(true), None);
        }
    }

    #[test]
    fn a_hello_the_session_does_not_honour_reaches_dispatch_and_is_refused_in_json() {
        let backend = fake();
        let unknown = "{\"op\":\"hello\",\"proto\":\"bin9\"}\n";
        let classic = "{\"op\":\"hello\",\"proto\":\"bin1\"}\n";
        for (binary_wire, hello) in [(true, unknown), (false, classic), (false, unknown)] {
            let mut session = Session::new(binary_wire);
            session.push(hello.as_bytes());
            session.push(b"{\"op\":\"metrics\"}\n");
            let mut peer = Peer::json();
            match peer.reply(&answer(&backend, &frame_of(session.next_step(false)))) {
                Err(ClientError::Server { message, code }) => {
                    assert!(message.contains("is not enabled"), "{message}");
                    assert_eq!(code, None);
                }
                other => panic!("{other:?}"),
            }
            // Still JSON-lines: the next line is a line.
            assert!(matches!(
                frame_of(session.next_step(false)),
                WireFrame::Line(_)
            ));
        }
    }

    #[test]
    fn recoverable_framing_errors_are_answered_in_position_and_the_next_frame_is_served() {
        let backend = fake();
        let line = &b"{\"op\":\"metrics\"}\n"[..];
        let good = wire::request_frame(&Request::Metrics, None, true);
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 0x10;
        // An invalid-UTF-8 line, and a bin1c frame with one flipped payload
        // bit, each between two good frames.
        for (proto, stream, complaint) in [
            (
                None,
                [line, b"\xff\xfe\n", line].concat(),
                "not valid UTF-8",
            ),
            (
                Some("bin1c"),
                [&good[..], &flipped, &good].concat(),
                "checksum",
            ),
        ] {
            let (mut peer, mut session) = Peer::connected(proto);
            session.push(&stream);
            for position in 0..3 {
                let bytes = match session.next_step(false) {
                    Some(Step::Frame(frame)) if position != 1 => answer(&backend, &frame),
                    Some(Step::Reply(bytes)) if position == 1 => bytes,
                    other => panic!("{proto:?} position {position}: {other:?}"),
                };
                match (position, peer.reply(&bytes)) {
                    (1, Err(ClientError::Server { message, .. })) => {
                        assert!(message.contains(complaint), "{message}");
                    }
                    (0 | 2, Ok(Response::Metrics { .. })) => {}
                    (_, other) => panic!("{proto:?} position {position}: {other:?}"),
                }
            }
            assert_eq!(session.next_step(true), None);
        }
    }

    #[test]
    fn oversized_and_torn_frames_yield_one_fatal_reply_and_nothing_after() {
        let dead = |session: &mut Session| {
            session.push(b"{\"op\":\"metrics\"}\n");
            session.push(&wire::request_frame(&Request::Metrics, None, false));
            assert_eq!(session.next_step(true), None);
        };
        // A JSON line past the frame cap (a small cap stands in for the
        // 64 MiB one), with and without its newline in the buffer.
        for bytes in [&b"0123456789"[..], b"0123456789\n{\"op\":\"metrics\"}\n"] {
            let mut session = Session {
                codec: WireCodec::json(8),
                binary_wire: true,
            };
            session.push(bytes);
            let Some(Step::Fatal(reply)) = session.next_step(false) else {
                panic!("an oversized line is fatal");
            };
            match Peer::json().reply(&reply) {
                Err(ClientError::Server { message, .. }) => {
                    assert!(message.contains("exceeds 8 bytes"), "{message}");
                }
                other => panic!("{other:?}"),
            }
            dead(&mut session);
        }
        // A binary length prefix past the cap: fatal, in the dialect the
        // connection speaks.
        for proto in ["bin1", "bin1c"] {
            let (mut peer, mut session) = Peer::connected(Some(proto));
            session.push(&(128u32 << 20).to_le_bytes());
            let Some(Step::Fatal(reply)) = session.next_step(false) else {
                panic!("an oversized prefix is fatal");
            };
            match peer.reply(&reply) {
                Err(ClientError::Server { message, .. }) => {
                    assert!(message.contains("exceeds"), "{message}");
                }
                other => panic!("{other:?}"),
            }
            dead(&mut session);
        }
        // A binary stream that ends mid-frame: fatal at EOF, once; the
        // whole frames ahead of the tear were served first.
        let (mut peer, mut session) = Peer::connected(Some("bin1"));
        let frame = wire::request_frame(&Request::Metrics, None, false);
        session.push(&frame);
        session.push(&frame[..frame.len() - 1]);
        frame_of(session.next_step(false));
        assert_eq!(session.next_step(false), None);
        let Some(Step::Fatal(reply)) = session.next_step(true) else {
            panic!("a torn tail is fatal");
        };
        match peer.reply(&reply) {
            Err(ClientError::Server { message, .. }) => {
                assert!(message.contains("truncated"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        dead(&mut session);
    }

    #[test]
    fn blank_lines_get_no_answer_and_the_eof_tail_is_served_once() {
        let mut session = Session::new(true);
        session.push(b"\n  \n\r\n\t\n");
        assert_eq!(session.next_step(false), None);
        assert_eq!(session.buffered(), 0);
        assert_eq!(session.next_step(true), None);

        session.push(b"\n{\"op\":\"metrics\"}\n\n{\"op\":\"stats\"}");
        assert!(
            matches!(frame_of(session.next_step(false)), WireFrame::Line(l) if l.contains("metrics"))
        );
        assert_eq!(
            session.next_step(false),
            None,
            "the tail has no newline yet"
        );
        assert!(
            matches!(frame_of(session.next_step(true)), WireFrame::Line(l) if l.contains("stats"))
        );
        assert_eq!(session.next_step(true), None, "served once");

        // A blank tail is no frame either.
        session.push(b"  ");
        assert_eq!(session.next_step(true), None);
    }

    #[test]
    fn a_panicking_op_answers_internal_and_the_next_frame_runs() {
        let backend = fake();
        let boom = Request::Cluster {
            dataset: "boom".to_owned(),
            k: None,
            kind: None,
            solver: None,
            seed: None,
        };
        for proto in DIALECTS {
            let (mut peer, mut session) = Peer::connected(proto);
            session.push(&encode_request(&peer.0, &boom, Some("t-boom")));
            session.push(&encode_request(&peer.0, &Request::Metrics, None));
            match peer.reply(&answer(&backend, &frame_of(session.next_step(false)))) {
                Err(ClientError::Server { message, code }) => {
                    assert_eq!(code, Some(ErrorCode::Internal));
                    assert!(message.contains("injected cluster bug"), "{message}");
                }
                other => panic!("{proto:?}: {other:?}"),
            }
            assert_eq!(
                fc_telemetry::current_trace(),
                None,
                "the unwind restored the ambient trace"
            );
            let next = peer.reply(&answer(&backend, &frame_of(session.next_step(false))));
            assert!(matches!(next, Ok(Response::Metrics { .. })), "{next:?}");
        }
    }

    /// Valid traffic in one dialect: an optional hello, then a few frames
    /// drawn from every op.
    fn valid_stream(rng: &mut StdRng) -> Vec<u8> {
        let proto = DIALECTS[rng.gen_range(0..DIALECTS.len())];
        let mut peer = Peer::json();
        let mut bytes = Vec::new();
        if let Some(proto) = proto {
            let hello = Request::Hello {
                proto: proto.to_owned(),
            };
            bytes.extend_from_slice(&encode_request(&peer.0, &hello, None));
            peer.upgrade(proto);
        }
        let requests = every_request();
        for _ in 0..rng.gen_range(1..8) {
            let request = &requests[rng.gen_range(0..requests.len())];
            let trace = rng.gen_bool(0.2).then_some("t-fuzz");
            bytes.extend_from_slice(&encode_request(&peer.0, request, trace));
        }
        bytes
    }

    fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
        for _ in 0..rng.gen_range(0..4) {
            if bytes.is_empty() {
                return;
            }
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0..4) {
                0 => bytes[at] ^= 1 << rng.gen_range(0..8),
                1 => bytes.truncate(at),
                2 => {
                    let garbage: Vec<u8> = (0..rng.gen_range(1..24))
                        .map(|_| rng.gen_range(0u32..256) as u8)
                        .collect();
                    bytes.splice(at..at, garbage);
                }
                // Cut a run out of the middle.
                _ => {
                    let end = (at + rng.gen_range(1..16)).min(bytes.len());
                    bytes.drain(at..end);
                }
            }
        }
    }

    /// Hostile bytes, seeded: valid traffic of every op in every dialect,
    /// then bit flips, truncations, spliced garbage and cuts, delivered in
    /// arbitrary chunks to a session over a small real engine. Nothing may
    /// panic; every step yields exactly one well-formed reply, in the
    /// dialect a client that followed the hello acks would be reading;
    /// nothing is served after a fatal step. A failing case prints its
    /// number: rerun that `case` alone under the same seed.
    #[test]
    fn mutated_streams_never_panic_and_answer_every_step_once() {
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 1,
                k: 2,
                m_scalar: 10,
                ..Default::default()
            },
            Arc::new(fc_core::methods::Uniform),
        )
        .unwrap();
        let (mut frames, mut local, mut fatal) = (0u32, 0u32, 0u32);
        for case in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(0x5e55_1000 + case);
            let mut bytes = valid_stream(&mut rng);
            mutate(&mut rng, &mut bytes);

            let mut session = Session::new(rng.gen_bool(0.9));
            let mut peer = Peer::json();
            let mut closed = false;
            let mut rest = &bytes[..];
            loop {
                let Some(step) = session.next_step(rest.is_empty()) else {
                    if rest.is_empty() {
                        break;
                    }
                    let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(97)));
                    session.push(chunk);
                    rest = tail;
                    continue;
                };
                assert!(!closed, "case {case}: a step after the fatal one");
                let reply = match step {
                    Step::Frame(frame) => {
                        frames += 1;
                        answer(&engine, &frame)
                    }
                    Step::Reply(bytes) => {
                        local += 1;
                        bytes
                    }
                    Step::Fatal(bytes) => {
                        fatal += 1;
                        closed = true;
                        bytes
                    }
                };
                // One step, one whole reply — decodable by a client that
                // upgrades when (and only when) it reads a hello ack.
                match peer.reply(&reply) {
                    Ok(Response::Hello { proto }) => {
                        peer.upgrade(&proto);
                    }
                    Ok(_) | Err(ClientError::Server { .. } | ClientError::Overloaded(_)) => {}
                    Err(e) => panic!("case {case}: undecodable reply: {e}"),
                }
            }
            // A mutated dataset name creates a dataset (and its shard
            // worker); keep the engine at one.
            for stats in engine.stats().unwrap() {
                if stats.dataset != "d" {
                    engine.drop_dataset(&stats.dataset).unwrap();
                }
            }
        }
        // The corpus reached all three kinds of step.
        assert!(
            frames > 2000 && local > 500 && fatal > 100,
            "{frames} {local} {fatal}"
        );
    }
}
