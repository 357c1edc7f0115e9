//! The binary wire format: opcode-tagged payloads inside length-prefixed
//! frames.
//!
//! A connection negotiates it with a JSON `hello` line (the handshake and
//! the rest of the connection protocol live in [`crate::session`]); after
//! the server's JSON acknowledgement every frame in both directions is one
//! [`Envelope`]: `[u32 LE length][payload]` for `"proto":"bin1"`,
//! `[u32 LE length][u32 LE crc32][payload]` for `"proto":"bin1c"`. A
//! dialect is an envelope and nothing else — the payload below is encoded
//! the same way under either header, and [`request_frame`] /
//! [`response_frame`] hand their `checked` flag to the envelope and read
//! it nowhere else. The payload is laid out as:
//!
//! ```text
//! [opcode u8][flags u8][if flags&1: trace str]
//! [if flags&2: client str, seq u64][if flags&4: epoch u64][body...]
//! ```
//!
//! where `str` is `[u32 LE byte length][UTF-8 bytes]` and every number is
//! little-endian ([`fc_persist::record`] is the byte vocabulary, shared
//! with the WAL). `flags&2` (ingest identity for exactly-once dedup) and
//! `flags&4` (fleet epoch) are valid on `ingest` only. The hot operations
//! — `ingest` and `cost` requests, and the numeric responses — get
//! dedicated opcodes whose point payloads are contiguous `f64` runs with
//! `dim`/`count` headers, decoded straight into flat buffers
//! ([`fc_core::PointBlock`]) with no per-point allocation and no text
//! parsing. Everything else ships as opcode `0x00` / `0x80`: the
//! operation's JSON line embedded as the body, which keeps the two
//! formats trivially value-identical for the long tail (`stats`,
//! `metrics`, plans, ...).
//!
//! | opcode | direction | body |
//! |--------|-----------|------|
//! | `0x00` | request   | JSON request line (UTF-8) |
//! | `0x01` | request   | ingest: `dataset str, has_weights u8, has_plan u8, [plan str,] dim u32, count u32, count*dim f64, [count f64]` |
//! | `0x02` | request   | cost: `dataset str, kind u8, dim u32, count u32, count*dim f64` |
//! | `0x80` | response  | JSON response line (UTF-8) |
//! | `0x81` | response  | ingested: `dataset str, points u64, total_points u64, total_weight f64, duplicate u8` (a decoder accepts the layout that ends at the weight as "not a duplicate") |
//! | `0x82` | response  | coreset: `dataset str, method str, seed u64, dim u32, count u32, count*dim f64, count f64` |
//! | `0x83` | response  | cost: `dataset str, kind u8, cost f64, coreset_points u64` |
//! | `0x84` | response  | clustered: `dataset str, kind u8, solver str, coreset_cost f64, coreset_points u64, seed u64, dim u32, count u32, count*dim f64` |
//! | `0x85` | response  | error: `message str, has_code u8, [code str]` |
//!
//! `kind` bytes encode the objective: `0` absent, `1` k-means,
//! `2` k-median.

use fc_clustering::CostKind;
use fc_core::plan::Plan;
use fc_core::PointBlock;
use fc_persist::record::{put_f64, put_f64s, put_str, put_u32, put_u64, Cursor, Envelope};

use crate::protocol::{ErrorCode, IngestIdent, ProtocolError, Request, Response};

const OP_REQ_JSON: u8 = 0x00;
const OP_REQ_INGEST: u8 = 0x01;
const OP_REQ_COST: u8 = 0x02;
const OP_RESP_JSON: u8 = 0x80;
const OP_RESP_INGESTED: u8 = 0x81;
const OP_RESP_CORESET: u8 = 0x82;
const OP_RESP_COST: u8 = 0x83;
const OP_RESP_CLUSTERED: u8 = 0x84;
const OP_RESP_ERROR: u8 = 0x85;

const FLAG_TRACE: u8 = 0x01;
const FLAG_IDENT: u8 = 0x02;
const FLAG_EPOCH: u8 = 0x04;
const KNOWN_FLAGS: u8 = FLAG_TRACE | FLAG_IDENT | FLAG_EPOCH;

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<f64>]) {
    let dim = rows.first().map_or(0, Vec::len);
    put_u32(out, dim as u32);
    put_u32(out, rows.len() as u32);
    out.reserve(rows.len() * dim * 8);
    for row in rows {
        put_f64s(out, row);
    }
}

fn kind_byte(kind: Option<CostKind>) -> u8 {
    match kind {
        None => 0,
        Some(CostKind::KMeans) => 1,
        Some(CostKind::KMedian) => 2,
    }
}

fn kind_from_byte(b: u8) -> Result<Option<CostKind>, ProtocolError> {
    match b {
        0 => Ok(None),
        1 => Ok(Some(CostKind::KMeans)),
        2 => Ok(Some(CostKind::KMedian)),
        other => Err(ProtocolError::new(format!(
            "invalid objective byte {other}"
        ))),
    }
}

/// Encodes a request as one complete binary frame (header included),
/// ready to write to the transport. `checked` selects the envelope the
/// connection negotiated — `bin1c` or classic `bin1` — and nothing else.
pub fn request_frame(request: &Request, trace: Option<&str>, checked: bool) -> Vec<u8> {
    let envelope = Envelope::wire(checked);
    let mut p = Vec::with_capacity(64);
    let at = envelope.open(&mut p);
    match request {
        Request::Ingest {
            dataset,
            block,
            plan,
            ident,
            epoch,
        } => {
            p.push(OP_REQ_INGEST);
            let mut extensions = 0u8;
            if ident.is_some() {
                extensions |= FLAG_IDENT;
            }
            if epoch.is_some() {
                extensions |= FLAG_EPOCH;
            }
            push_flags_and_trace(&mut p, extensions, trace);
            if let Some(ident) = ident {
                put_str(&mut p, &ident.client);
                put_u64(&mut p, ident.seq);
            }
            if let Some(epoch) = epoch {
                put_u64(&mut p, *epoch);
            }
            put_str(&mut p, dataset);
            p.push(u8::from(block.weights().is_some()));
            match plan {
                None => p.push(0),
                Some(plan) => {
                    p.push(1);
                    put_str(&mut p, &plan.to_json());
                }
            }
            put_u32(&mut p, block.dim() as u32);
            put_u32(&mut p, block.len() as u32);
            put_f64s(&mut p, block.data());
            if let Some(w) = block.weights() {
                put_f64s(&mut p, w);
            }
        }
        Request::Cost {
            dataset,
            centers,
            kind,
        } => {
            p.push(OP_REQ_COST);
            push_flags_and_trace(&mut p, 0, trace);
            put_str(&mut p, dataset);
            p.push(kind_byte(*kind));
            put_rows(&mut p, centers);
        }
        other => {
            // The long tail rides as its own JSON line inside the binary
            // frame — the trace travels in the JSON, as on the text wire.
            p.push(OP_REQ_JSON);
            p.push(0);
            p.extend_from_slice(other.to_json_with_trace(trace).as_bytes());
        }
    }
    envelope.seal(&mut p, at);
    p
}

/// Encodes a response as one complete binary frame (header included),
/// ready to write to the transport. `checked` selects the envelope (see
/// [`request_frame`]).
pub fn response_frame(response: &Response, checked: bool) -> Vec<u8> {
    let envelope = Envelope::wire(checked);
    let mut p = Vec::with_capacity(64);
    let at = envelope.open(&mut p);
    match response {
        Response::Ingested {
            dataset,
            points,
            total_points,
            total_weight,
            duplicate,
        } => {
            p.push(OP_RESP_INGESTED);
            p.push(0);
            put_str(&mut p, dataset);
            put_u64(&mut p, *points as u64);
            put_u64(&mut p, *total_points);
            put_f64(&mut p, *total_weight);
            p.push(u8::from(*duplicate));
        }
        Response::Coreset {
            dataset,
            points,
            weights,
            method,
            seed,
        } => {
            p.push(OP_RESP_CORESET);
            p.push(0);
            put_str(&mut p, dataset);
            put_str(&mut p, &method.to_string());
            put_u64(&mut p, *seed);
            put_rows(&mut p, points);
            put_f64s(&mut p, weights);
        }
        Response::Cost {
            dataset,
            cost,
            kind,
            coreset_points,
        } => {
            p.push(OP_RESP_COST);
            p.push(0);
            put_str(&mut p, dataset);
            p.push(kind_byte(Some(*kind)));
            put_f64(&mut p, *cost);
            put_u64(&mut p, *coreset_points as u64);
        }
        Response::Clustered {
            dataset,
            centers,
            kind,
            solver,
            coreset_cost,
            coreset_points,
            seed,
        } => {
            p.push(OP_RESP_CLUSTERED);
            p.push(0);
            put_str(&mut p, dataset);
            p.push(kind_byte(Some(*kind)));
            put_str(&mut p, &solver.to_string());
            put_f64(&mut p, *coreset_cost);
            put_u64(&mut p, *coreset_points as u64);
            put_u64(&mut p, *seed);
            put_rows(&mut p, centers);
        }
        Response::Error { message, code } => {
            p.push(OP_RESP_ERROR);
            p.push(0);
            put_str(&mut p, message);
            match code {
                None => p.push(0),
                Some(code) => {
                    p.push(1);
                    put_str(&mut p, code.name());
                }
            }
        }
        other => {
            p.push(OP_RESP_JSON);
            p.push(0);
            p.extend_from_slice(other.to_json().as_bytes());
        }
    }
    envelope.seal(&mut p, at);
    p
}

fn push_flags_and_trace(p: &mut Vec<u8>, extensions: u8, trace: Option<&str>) {
    match trace {
        None => p.push(extensions),
        Some(id) => {
            p.push(extensions | FLAG_TRACE);
            put_str(p, id);
        }
    }
}

/// A field read off the shared [`Cursor`], in the wire's error
/// vocabulary: a short payload is a protocol error, not a torn record.
fn need<T>(field: Option<T>) -> Result<T, ProtocolError> {
    field.ok_or_else(|| ProtocolError::new("binary frame ends mid-field"))
}

fn get_str(c: &mut Cursor<'_>) -> Result<String, ProtocolError> {
    let len = need(c.u32())? as usize;
    std::str::from_utf8(need(c.bytes(len))?)
        .map(str::to_owned)
        .map_err(|_| ProtocolError::new("binary frame string is not valid UTF-8"))
}

/// `dim`/`count` header plus the coordinate run, as nested rows.
fn get_rows(c: &mut Cursor<'_>, what: &str) -> Result<Vec<Vec<f64>>, ProtocolError> {
    let dim = need(c.u32())? as usize;
    let count = need(c.u32())? as usize;
    if dim == 0 || count == 0 {
        return Err(ProtocolError::new(format!("`{what}` must be non-empty")));
    }
    let flat = need(
        c.f64s(
            count
                .checked_mul(dim)
                .ok_or_else(|| ProtocolError::new(format!("`{what}` size overflows")))?,
        ),
    )?;
    if !flat.iter().all(|x| x.is_finite()) {
        return Err(ProtocolError::new(format!(
            "`{what}` holds a non-finite coordinate"
        )));
    }
    Ok(flat.chunks_exact(dim).map(<[f64]>::to_vec).collect())
}

fn done(c: &Cursor<'_>) -> Result<(), ProtocolError> {
    if c.is_done() {
        Ok(())
    } else {
        Err(ProtocolError::new(format!(
            "binary frame has {} trailing bytes",
            c.rest().len()
        )))
    }
}

/// Decodes one binary request payload (the frame's length prefix already
/// stripped by the codec), returning the request and its optional trace.
pub fn decode_request(payload: &[u8]) -> Result<(Request, Option<String>), ProtocolError> {
    let mut c = Cursor::new(payload);
    let op = need(c.u8())?;
    if op == OP_REQ_JSON {
        let _flags = need(c.u8())?;
        let line = std::str::from_utf8(c.rest())
            .map_err(|_| ProtocolError::new("embedded JSON request is not valid UTF-8"))?;
        return Request::from_json_with_trace(line);
    }
    let flags = need(c.u8())?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(ProtocolError::new(format!(
            "unknown binary request flags 0x{:02x}",
            flags & !KNOWN_FLAGS
        )));
    }
    let trace = if flags & FLAG_TRACE != 0 {
        Some(get_str(&mut c)?)
    } else {
        None
    };
    let ident = if flags & FLAG_IDENT != 0 {
        Some(IngestIdent {
            client: get_str(&mut c)?,
            seq: need(c.u64())?,
        })
    } else {
        None
    };
    let epoch = if flags & FLAG_EPOCH != 0 {
        Some(need(c.u64())?)
    } else {
        None
    };
    if op != OP_REQ_INGEST && (ident.is_some() || epoch.is_some()) {
        return Err(ProtocolError::new(
            "ident/epoch flags are only valid on ingest frames",
        ));
    }
    let request = match op {
        OP_REQ_INGEST => {
            let dataset = get_str(&mut c)?;
            let has_weights = need(c.u8())? != 0;
            let plan = if need(c.u8())? != 0 {
                let json = get_str(&mut c)?;
                Some(
                    Plan::from_json(&json)
                        .map_err(|e| ProtocolError::new(format!("invalid `plan`: {e}")))?,
                )
            } else {
                None
            };
            let dim = need(c.u32())? as usize;
            let count = need(c.u32())? as usize;
            if dim == 0 || count == 0 {
                return Err(ProtocolError::new("`points` must be non-empty"));
            }
            let data = need(
                c.f64s(
                    count
                        .checked_mul(dim)
                        .ok_or_else(|| ProtocolError::new("`points` size overflows"))?,
                ),
            )?;
            let weights = if has_weights {
                Some(need(c.f64s(count))?)
            } else {
                None
            };
            done(&c)?;
            let block = PointBlock::new(data, dim, weights)
                .map_err(|e| ProtocolError::new(format!("invalid `points`: {e}")))?;
            Request::Ingest {
                dataset,
                block,
                plan,
                ident,
                epoch,
            }
        }
        OP_REQ_COST => {
            let dataset = get_str(&mut c)?;
            let kind = kind_from_byte(need(c.u8())?)?;
            let centers = get_rows(&mut c, "centers")?;
            done(&c)?;
            Request::Cost {
                dataset,
                centers,
                kind,
            }
        }
        other => {
            return Err(ProtocolError::new(format!(
                "unknown binary request opcode 0x{other:02x}"
            )))
        }
    };
    Ok((request, trace))
}

/// Decodes one binary response payload (length prefix already stripped).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let op = need(c.u8())?;
    if op == OP_RESP_JSON {
        let _flags = need(c.u8())?;
        let line = std::str::from_utf8(c.rest())
            .map_err(|_| ProtocolError::new("embedded JSON response is not valid UTF-8"))?;
        return Response::from_json(line);
    }
    let _flags = need(c.u8())?;
    let response = match op {
        OP_RESP_INGESTED => {
            let dataset = get_str(&mut c)?;
            let points = need(c.u64())? as usize;
            let total_points = need(c.u64())?;
            let total_weight = need(c.f64())?;
            // The trailing duplicate byte is optional on decode: a layout
            // that ends at the weight decodes as "not a duplicate".
            let duplicate = !c.is_done() && need(c.u8())? != 0;
            done(&c)?;
            Response::Ingested {
                dataset,
                points,
                total_points,
                total_weight,
                duplicate,
            }
        }
        OP_RESP_CORESET => {
            let dataset = get_str(&mut c)?;
            let method = get_str(&mut c)?
                .parse()
                .map_err(|e| ProtocolError::new(format!("invalid `method`: {e}")))?;
            let seed = need(c.u64())?;
            let points = get_rows(&mut c, "points")?;
            let weights = need(c.f64s(points.len()))?;
            done(&c)?;
            Response::Coreset {
                dataset,
                points,
                weights,
                method,
                seed,
            }
        }
        OP_RESP_COST => {
            let dataset = get_str(&mut c)?;
            let kind = kind_from_byte(need(c.u8())?)?
                .ok_or_else(|| ProtocolError::new("cost response missing objective"))?;
            let cost = need(c.f64())?;
            let coreset_points = need(c.u64())? as usize;
            done(&c)?;
            Response::Cost {
                dataset,
                cost,
                kind,
                coreset_points,
            }
        }
        OP_RESP_CLUSTERED => {
            let dataset = get_str(&mut c)?;
            let kind = kind_from_byte(need(c.u8())?)?
                .ok_or_else(|| ProtocolError::new("clustered response missing objective"))?;
            let solver = get_str(&mut c)?
                .parse()
                .map_err(|e| ProtocolError::new(format!("invalid `solver`: {e}")))?;
            let coreset_cost = need(c.f64())?;
            let coreset_points = need(c.u64())? as usize;
            let seed = need(c.u64())?;
            let centers = get_rows(&mut c, "centers")?;
            done(&c)?;
            Response::Clustered {
                dataset,
                centers,
                kind,
                solver,
                coreset_cost,
                coreset_points,
                seed,
            }
        }
        OP_RESP_ERROR => {
            let message = get_str(&mut c)?;
            let code = if need(c.u8())? != 0 {
                // Unknown codes decode as None, exactly like the JSON
                // decoder: old clients must survive new server classes.
                ErrorCode::from_name(&get_str(&mut c)?)
            } else {
                None
            };
            done(&c)?;
            Response::Error { message, code }
        }
        other => {
            return Err(ProtocolError::new(format!(
                "unknown binary response opcode 0x{other:02x}"
            )))
        }
    };
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::Solver;
    use fc_core::plan::Method;

    fn strip(frame: Vec<u8>, checked: bool) -> Vec<u8> {
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 4 + len, "frame length prefix must match");
        if checked {
            let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = frame[8..].to_vec();
            assert_eq!(fc_persist::crc32(&payload), crc, "frame CRC must match");
            payload
        } else {
            frame[4..].to_vec()
        }
    }

    fn round_trip_request(req: Request, trace: Option<&str>) {
        // One payload, two envelopes: both must round-trip every request.
        for checked in [false, true] {
            let payload = strip(request_frame(&req, trace, checked), checked);
            let (decoded, got_trace) = decode_request(&payload).unwrap();
            assert_eq!(decoded, req);
            assert_eq!(got_trace.as_deref(), trace);
        }
    }

    fn round_trip_response(resp: Response) {
        for checked in [false, true] {
            let payload = strip(response_frame(&resp, checked), checked);
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn hot_requests_round_trip() {
        round_trip_request(
            Request::Ingest {
                dataset: "d".into(),
                block: PointBlock::new(vec![0.0, 1.5, -2.25, 3.0], 2, Some(vec![1.0, 2.5]))
                    .unwrap(),
                plan: None,
                ident: None,
                epoch: None,
            },
            Some("trace-1"),
        );
        round_trip_request(
            Request::Ingest {
                dataset: "d".into(),
                block: PointBlock::new(vec![0.5], 1, None).unwrap(),
                plan: Some(
                    fc_core::plan::PlanBuilder::new(3)
                        .m_scalar(15)
                        .build()
                        .unwrap(),
                ),
                ident: None,
                epoch: None,
            },
            None,
        );
        round_trip_request(
            Request::Ingest {
                dataset: "d".into(),
                block: PointBlock::new(vec![0.5, 1.5], 1, None).unwrap(),
                plan: None,
                ident: Some(IngestIdent {
                    client: "producer-a".into(),
                    seq: 42,
                }),
                epoch: Some(3),
            },
            Some("trace-2"),
        );
        round_trip_request(
            Request::Cost {
                dataset: "d".into(),
                centers: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
                kind: Some(CostKind::KMedian),
            },
            Some("t"),
        );
        round_trip_request(
            Request::Cost {
                dataset: "d".into(),
                centers: vec![vec![1.0]],
                kind: None,
            },
            None,
        );
    }

    #[test]
    fn tail_requests_ride_embedded_json() {
        for req in [
            Request::Hello {
                proto: "bin1".into(),
            },
            Request::Compress {
                dataset: "d".into(),
                method: Some(Method::FastCoreset),
                seed: Some(7),
            },
            Request::Cluster {
                dataset: "d".into(),
                k: Some(3),
                kind: Some(CostKind::KMeans),
                solver: Some(Solver::Hamerly),
                seed: None,
            },
            Request::Stats { dataset: None },
            Request::Metrics,
            Request::DropDataset {
                dataset: "d".into(),
            },
        ] {
            round_trip_request(req.clone(), None);
            round_trip_request(req, Some("tr"));
        }
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Ingested {
            dataset: "d".into(),
            points: 128,
            total_points: 1 << 40,
            total_weight: 1099511627776.5,
            duplicate: false,
        });
        round_trip_response(Response::Ingested {
            dataset: "d".into(),
            points: 0,
            total_points: 1 << 40,
            total_weight: 1099511627776.5,
            duplicate: true,
        });
        round_trip_response(Response::Coreset {
            dataset: "d".into(),
            points: vec![vec![0.125, -4.0], vec![1.0, 2.0]],
            weights: vec![17.25, 0.5],
            method: Method::FastCoreset,
            seed: 3,
        });
        round_trip_response(Response::Cost {
            dataset: "d".into(),
            cost: 0.0625,
            kind: CostKind::KMedian,
            coreset_points: 10,
        });
        round_trip_response(Response::Clustered {
            dataset: "d".into(),
            centers: vec![vec![1.0], vec![2.0]],
            kind: CostKind::KMeans,
            solver: Solver::Hamerly,
            coreset_cost: 12.5,
            coreset_points: 200,
            seed: 8,
        });
        round_trip_response(Response::Error {
            message: "overloaded".into(),
            code: Some(ErrorCode::Overloaded),
        });
        round_trip_response(Response::Error {
            message: "plain".into(),
            code: None,
        });
        round_trip_response(Response::Hello {
            proto: "bin1".into(),
        });
        round_trip_response(Response::Dropped {
            dataset: "d".into(),
        });
    }

    #[test]
    fn garbage_payloads_decode_as_errors_not_panics() {
        for payload in [
            &[][..],
            &[0x01],
            &[0x7F, 0],
            &[0x01, 0xFF],
            &[0x01, 0, 0xFF, 0xFF, 0xFF, 0xFF],
            &[0x81, 0, 1, 0, 0, 0, b'd'],
            &[0xFF, 0, 1, 2, 3],
        ] {
            assert!(decode_request(payload).is_err(), "{payload:?}");
            assert!(decode_response(payload).is_err(), "{payload:?}");
        }
        // Non-finite floats are rejected at decode, like JSON.
        let mut p = vec![OP_REQ_INGEST, 0];
        put_str(&mut p, "d");
        p.push(0);
        p.push(0);
        put_u32(&mut p, 1);
        put_u32(&mut p, 1);
        put_f64(&mut p, f64::NAN);
        let err = decode_request(&p).unwrap_err();
        assert!(err.message.contains("invalid `points`"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = strip(
            request_frame(
                &Request::Cost {
                    dataset: "d".into(),
                    centers: vec![vec![1.0]],
                    kind: None,
                },
                None,
                false,
            ),
            false,
        );
        payload.push(0);
        assert!(decode_request(&payload).is_err());
    }

    #[test]
    fn unknown_flags_and_misplaced_extensions_are_rejected() {
        // An unknown flag bit cannot be skipped — its field width is
        // unknowable — so the decoder must refuse, not desynchronize.
        let payload = [OP_REQ_COST, 0x08, 0, 0, 0, 0];
        let err = decode_request(&payload).unwrap_err();
        assert!(
            err.message.contains("unknown binary request flags"),
            "{err}"
        );
        // Ident/epoch flags on a non-ingest opcode are a protocol error.
        let mut p = vec![OP_REQ_COST, FLAG_IDENT];
        put_str(&mut p, "client");
        put_u64(&mut p, 9);
        let err = decode_request(&p).unwrap_err();
        assert!(err.message.contains("only valid on ingest"), "{err}");
    }
}
