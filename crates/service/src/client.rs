//! A blocking client for the service: JSON-lines by default, with an
//! opt-in upgrade to a binary wire dialect — checksummed `bin1c`, else
//! classic `bin1` ([`ServiceClient::negotiate_binary`]) — that skips
//! float formatting and parsing on the ingest/cost hot path. Requests are
//! encoded and replies decoded by [`crate::session`]'s client half.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::backend::IngestOutcome;
use crate::framing::{WireCodec, WireFrame};
use crate::session;

use fc_clustering::{CostKind, Solver};
use fc_core::plan::{Method, Plan};
use fc_core::{Coreset, PointBlock};
use fc_geom::{Dataset, Points};

use crate::protocol::{self, DatasetStats, ErrorCode, ProtocolError, Request, Response};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's reply didn't decode.
    Protocol(ProtocolError),
    /// The server replied with an error response.
    Server {
        /// The human-readable description.
        message: String,
        /// The machine-readable class, when the server attached one
        /// (`overloaded` is split out as [`ClientError::Overloaded`]).
        code: Option<ErrorCode>,
    },
    /// The server refused the write because a shard queue is full
    /// (`code: "overloaded"`). Back off and retry — or let
    /// [`ServiceClient::request_with_backoff`] do both.
    Overloaded(String),
    /// The server replied with an unexpected (but valid) response kind.
    UnexpectedResponse(Box<Response>),
}

impl ClientError {
    /// The machine-readable error class, when the server attached one.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => *code,
            ClientError::Overloaded(_) => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server { message, .. } => write!(f, "server error: {message}"),
            ClientError::Overloaded(msg) => write!(f, "server overloaded: {msg}"),
            ClientError::UnexpectedResponse(r) => write!(f, "unexpected response {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A bounded retry-with-backoff schedule for `overloaded` responses — the
/// structured backpressure signal a busy shard answers instead of blocking.
/// [`ServiceClient::request_with_backoff`] sleeps and retries through this
/// schedule so one busy node degrades a fan-out gracefully instead of
/// failing the whole request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` never retries).
    pub attempts: u32,
    /// Sleep before the first retry.
    pub initial_backoff: Duration,
    /// Each subsequent sleep is the previous one times this factor.
    pub multiplier: u32,
    /// Ceiling on any single sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts backing off 5 ms → 10 ms → 20 ms: enough for a shard
    /// to drain a compaction, small enough to stay interactive.
    fn default() -> Self {
        Self {
            attempts: 4,
            initial_backoff: Duration::from_millis(5),
            multiplier: 2,
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeping).
    pub fn none() -> Self {
        Self {
            attempts: 1,
            initial_backoff: Duration::ZERO,
            multiplier: 1,
            max_backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry number `retry` (1-based), following the
    /// geometric schedule under the ceiling.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = self
            .multiplier
            .max(1)
            .saturating_pow(retry.saturating_sub(1));
        self.initial_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }
}

/// Outcome of [`ServiceClient::cluster`].
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Served centers.
    pub centers: Points,
    /// Objective clustered under.
    pub kind: CostKind,
    /// The solution's cost on the served coreset.
    pub coreset_cost: f64,
    /// Size of the coreset the solve ran on.
    pub coreset_points: usize,
    /// The seed that produced the result (replay with the same seed).
    pub seed: u64,
}

/// A blocking connection to a coreset server. Framed by the same
/// incremental [`WireCodec`] the server and the cluster coordinator use:
/// JSON-lines until [`Self::negotiate_binary`] upgrades the connection.
pub struct ServiceClient {
    stream: TcpStream,
    codec: WireCodec,
    /// Whole-response deadline (see [`Self::set_response_timeout`]).
    response_timeout: Option<Duration>,
}

impl ServiceClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self::from_stream(stream))
    }

    /// Wraps an already-connected socket (e.g. one dialed with
    /// `TcpStream::connect_timeout`). The stream should be in blocking
    /// mode; socket read/write timeouts set by the caller apply to every
    /// subsequent request.
    pub fn from_stream(stream: TcpStream) -> Self {
        stream.set_nodelay(true).ok();
        // The server caps *request* lines; responses are whatever the
        // server legitimately serves (a large-budget coreset can exceed
        // any fixed cap), so the client reads unbounded — exactly the
        // trust model the old `read_line` client had.
        Self {
            stream,
            codec: WireCodec::json(usize::MAX),
            response_timeout: None,
        }
    }

    /// Bounds the *whole* response read of every subsequent request: the
    /// budget spans all reads until the response line completes, so a
    /// peer trickling bytes cannot stretch a socket-level read timeout
    /// (which is per-`read` syscall) into an unbounded wait. `None`
    /// (default) leaves reads unbounded.
    pub fn set_response_timeout(&mut self, timeout: Option<Duration>) {
        self.response_timeout = timeout;
    }

    /// Whether this connection speaks a binary wire protocol.
    pub fn is_binary(&self) -> bool {
        self.codec.is_binary()
    }

    /// Whether this connection speaks the checksummed `bin1c` wire.
    pub fn is_checked(&self) -> bool {
        self.codec.is_checked()
    }

    /// Offers the server a binary wire upgrade: first the checksummed
    /// `bin1c`, then — for servers that predate frame checksums — classic
    /// `bin1`. Returns `true` when either was accepted (every later
    /// request on this connection travels as binary frames), `false` when
    /// the server declined both — an old or JSON-pinned server answers
    /// each `hello` with a plain error, and the connection simply stays
    /// on JSON-lines. Transport failures still surface as errors.
    /// Idempotent once upgraded.
    pub fn negotiate_binary(&mut self) -> Result<bool, ClientError> {
        if self.codec.is_binary() {
            return Ok(true);
        }
        for offer in [protocol::BINARY_PROTO_CRC, protocol::BINARY_PROTO] {
            match self.request(&Request::Hello {
                proto: offer.to_owned(),
            }) {
                Ok(Response::Hello { proto }) if proto == offer => {
                    self.codec
                        .upgrade_to_binary(offer == protocol::BINARY_PROTO_CRC);
                    return Ok(true);
                }
                Ok(other) => return Err(ClientError::UnexpectedResponse(Box::new(other))),
                Err(ClientError::Server { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Sends one request and reads one response — the protocol is strictly
    /// request/response per frame. A socket read/write timeout configured on
    /// the underlying stream surfaces as [`ClientError::Io`] with kind
    /// `TimedOut` or `WouldBlock`.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        // The thread's ambient trace id (set by a server around dispatch)
        // rides along, so a coordinator's node calls carry the same id
        // the client sent the coordinator.
        let trace = fc_telemetry::current_trace();
        let bytes = session::encode_request(&self.codec, request, trace.as_deref());
        self.stream.write_all(&bytes)?;
        session::decode_reply(&self.read_frame()?)
    }

    /// Blocks until the codec produces one complete frame, under the
    /// whole-response deadline when one is configured.
    fn read_frame(&mut self) -> Result<WireFrame, ClientError> {
        let deadline = self
            .response_timeout
            .map(|budget| std::time::Instant::now() + budget);
        let Some(deadline) = deadline else {
            return self.read_frame_until(None);
        };
        // The deadline loop arms shrinking SO_RCVTIMEO values; those are
        // per-request state, so the caller's own socket timeout is
        // restored afterwards on every path (or a later request with the
        // budget cleared would inherit a stale, near-zero read timeout).
        let base = self.stream.read_timeout().ok().flatten();
        let result = self.read_frame_until(Some(deadline));
        let _ = self.stream.set_read_timeout(base);
        result
    }

    fn read_frame_until(
        &mut self,
        deadline: Option<std::time::Instant>,
    ) -> Result<WireFrame, ClientError> {
        let mut scratch = [0u8; 64 * 1024];
        loop {
            if let Some(frame) = self.codec.next_frame().map_err(|e| {
                ClientError::Protocol(crate::protocol::ProtocolError {
                    message: e.to_string(),
                })
            })? {
                return Ok(frame);
            }
            if let Some(deadline) = deadline {
                // Shrink the per-read budget to what remains of the
                // whole-response budget, so trickled bytes cannot extend
                // the wait past the deadline.
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "response deadline exceeded",
                    )));
                }
                self.stream.set_read_timeout(Some(remaining))?;
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.codec.push(&scratch[..n]);
        }
    }

    /// [`Self::request`], retrying `overloaded` responses through the
    /// bounded backoff schedule of `retry`. Every other outcome — success
    /// or failure — returns immediately; when the schedule is exhausted the
    /// final [`ClientError::Overloaded`] surfaces to the caller.
    pub fn request_with_backoff(
        &mut self,
        request: &Request,
        retry: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        let mut attempt = 1;
        loop {
            match self.request(request) {
                Err(ClientError::Overloaded(_)) if attempt < retry.attempts.max(1) => {
                    std::thread::sleep(retry.backoff(attempt));
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// Ingests a weighted batch, optionally carrying the per-dataset
    /// [`Plan`] the creating ingest should set up (see
    /// [`Request::Ingest`]). Returns `(lifetime points, lifetime weight)`
    /// for the dataset.
    pub fn ingest(
        &mut self,
        dataset: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
    ) -> Result<(u64, f64), ClientError> {
        self.ingest_idented(dataset, batch, plan, None, None)
            .map(|o| (o.total_points, o.total_weight))
    }

    /// [`Self::ingest`] carrying an exactly-once `(client, seq)` identity
    /// and, optionally, the fleet epoch the caller routed under. A retry
    /// of an already-applied `(client, seq)` is acknowledged with
    /// `duplicate: true` and the current totals instead of double-counting
    /// the batch; a stale epoch is refused with a structured `wrong_epoch`
    /// error by placement-tracking servers.
    pub fn ingest_idented(
        &mut self,
        dataset: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&protocol::IngestIdent>,
        epoch: Option<u64>,
    ) -> Result<IngestOutcome, ClientError> {
        match self.request(&Self::ingest_request(dataset, batch, plan, ident, epoch)?)? {
            Response::Ingested {
                total_points,
                total_weight,
                duplicate,
                ..
            } => Ok(IngestOutcome {
                total_points,
                total_weight,
                duplicate,
            }),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Ingests a stream of weighted batches with up to `window` requests
    /// in flight on this connection — the firehose shape the server's
    /// per-shard ingest coalescing targets. Strict request/response per
    /// frame keeps one producer's acks ordered, but waiting for each ack
    /// before sending the next batch serializes the stream on round
    /// trips; pipelining amortizes syscalls and wakeups across the
    /// window while the server still answers every frame in order.
    ///
    /// `plan` rides on the first batch only (the creating ingest sets up
    /// the per-dataset plan). The window is bounded so the in-flight
    /// bytes stay far below the socket buffers — both sides keep making
    /// progress no matter how long the stream runs. Returns the dataset's
    /// `(lifetime points, lifetime weight)` after the final ack, or
    /// `None` for an empty stream. On a server-reported error the
    /// remaining acks are still drained so the connection stays usable;
    /// the first error wins.
    pub fn ingest_pipelined<'a, I>(
        &mut self,
        dataset: &str,
        batches: I,
        plan: Option<&Plan>,
        window: usize,
    ) -> Result<Option<(u64, f64)>, ClientError>
    where
        I: IntoIterator<Item = &'a Dataset>,
    {
        let window = window.max(1);
        let trace = fc_telemetry::current_trace();
        let mut out = Vec::new();
        let mut in_flight = 0usize;
        let mut last = None;
        let mut first_err: Option<ClientError> = None;
        let read_ack = |client: &mut Self,
                        last: &mut Option<(u64, f64)>,
                        first_err: &mut Option<ClientError>|
         -> Result<(), ClientError> {
            // Io/decode failures abort (the connection is broken); server
            // error responses are recorded and draining continues.
            let failed = match session::decode_reply(&client.read_frame()?) {
                Ok(Response::Ingested {
                    total_points,
                    total_weight,
                    ..
                }) => {
                    *last = Some((total_points, total_weight));
                    return Ok(());
                }
                Ok(other) => ClientError::UnexpectedResponse(Box::new(other)),
                Err(e @ (ClientError::Server { .. } | ClientError::Overloaded(_))) => e,
                Err(e) => return Err(e),
            };
            first_err.get_or_insert(failed);
            Ok(())
        };
        for batch in batches {
            let first = last.is_none() && in_flight == 0;
            let plan = plan.filter(|_| first);
            let request = Self::ingest_request(dataset, batch, plan, None, None)?;
            out.extend_from_slice(&session::encode_request(
                &self.codec,
                &request,
                trace.as_deref(),
            ));
            in_flight += 1;
            if in_flight >= window {
                self.stream.write_all(&out)?;
                out.clear();
                read_ack(self, &mut last, &mut first_err)?;
                in_flight -= 1;
            }
        }
        if !out.is_empty() {
            self.stream.write_all(&out)?;
        }
        while in_flight > 0 {
            read_ack(self, &mut last, &mut first_err)?;
            in_flight -= 1;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(last),
        }
    }

    /// Builds the [`Request::Ingest`] for one weighted batch.
    fn ingest_request(
        dataset: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&protocol::IngestIdent>,
        epoch: Option<u64>,
    ) -> Result<Request, ClientError> {
        let block = wire_block(batch).map_err(|e| {
            ClientError::Protocol(ProtocolError::new(format!("invalid batch: {e}")))
        })?;
        Ok(Request::Ingest {
            dataset: dataset.into(),
            block,
            plan: plan.cloned(),
            ident: ident.cloned(),
            epoch,
        })
    }

    /// Fetches the served coreset, optionally naming the compression
    /// method for this request (the dataset plan's method when `None`).
    /// Returns the coreset, the seed that produced it, and the effective
    /// method it was served under.
    pub fn compress(
        &mut self,
        dataset: &str,
        method: Option<Method>,
        seed: Option<u64>,
    ) -> Result<(Coreset, u64, Method), ClientError> {
        match self.request(&Request::Compress {
            dataset: dataset.into(),
            method,
            seed,
        })? {
            Response::Coreset {
                points,
                weights,
                method,
                seed,
                ..
            } => {
                let data = protocol::rows_to_dataset(&points, Some(&weights))?;
                Ok((Coreset::new(data), seed, method))
            }
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Requests a clustering of the served coreset. `solver` is sent as
    /// given; every solver name answers as `lloyd`.
    pub fn cluster(
        &mut self,
        dataset: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        solver: Option<Solver>,
        seed: Option<u64>,
    ) -> Result<ClusterResult, ClientError> {
        match self.request(&Request::Cluster {
            dataset: dataset.into(),
            k,
            kind,
            solver,
            seed,
        })? {
            Response::Clustered {
                centers,
                kind,
                coreset_cost,
                coreset_points,
                seed,
                ..
            } => Ok(ClusterResult {
                centers: protocol::rows_to_points(&centers)?,
                kind,
                coreset_cost,
                coreset_points,
                seed,
            }),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Prices candidate centers on the served coreset.
    pub fn cost(
        &mut self,
        dataset: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<f64, ClientError> {
        let rows = centers.iter().map(<[f64]>::to_vec).collect();
        match self.request(&Request::Cost {
            dataset: dataset.into(),
            centers: rows,
            kind,
        })? {
            Response::Cost { cost, .. } => Ok(cost),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Fetches statistics for every dataset, or one dataset.
    pub fn stats(&mut self, dataset: Option<&str>) -> Result<Vec<DatasetStats>, ClientError> {
        self.full_stats(dataset).map(|(datasets, _)| datasets)
    }

    /// Like [`Self::stats`], but also returns the serving process's
    /// lifetime counters when the backend reports them.
    pub fn full_stats(
        &mut self,
        dataset: Option<&str>,
    ) -> Result<(Vec<DatasetStats>, Option<protocol::ServerStats>), ClientError> {
        match self.request(&Request::Stats {
            dataset: dataset.map(str::to_owned),
        })? {
            Response::Stats { datasets, server } => Ok((datasets, server)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Drops a dataset server-side.
    pub fn drop_dataset(&mut self, dataset: &str) -> Result<(), ClientError> {
        match self.request(&Request::DropDataset {
            dataset: dataset.into(),
        })? {
            Response::Dropped { .. } => Ok(()),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }

    /// Admits a node into the fleet served by a coordinator. Returns
    /// `(fleet epoch, fleet size, datasets migrated)`.
    pub fn add_node(
        &mut self,
        addr: &str,
        capacity: Option<f64>,
    ) -> Result<(u64, usize, usize), ClientError> {
        self.fleet_change(&Request::AddNode {
            addr: addr.into(),
            capacity,
        })
    }

    /// Drains a node out of the fleet served by a coordinator. Same
    /// contract as [`Self::add_node`].
    pub fn drain_node(&mut self, addr: &str) -> Result<(u64, usize, usize), ClientError> {
        self.fleet_change(&Request::DrainNode { addr: addr.into() })
    }

    fn fleet_change(&mut self, request: &Request) -> Result<(u64, usize, usize), ClientError> {
        match self.request(request)? {
            Response::FleetUpdated {
                epoch,
                nodes,
                migrated,
            } => Ok((epoch, nodes, migrated)),
            other => Err(ClientError::UnexpectedResponse(Box::new(other))),
        }
    }
}

/// A batch in the flat shape `ingest` puts on the wire. Unit weights are
/// the wire default, so an all-unit batch skips the redundant array.
pub fn wire_block(batch: &Dataset) -> Result<PointBlock, fc_core::FcError> {
    let weights = batch.weights();
    let weights = (!weights.iter().all(|&w| w == 1.0)).then(|| weights.to_vec());
    PointBlock::new(batch.points().as_flat().to_vec(), batch.dim(), weights)
}
