//! The service's wire protocol: JSON-lines requests and responses.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated.
//! Every request is an object with an `"op"` discriminator:
//!
//! ```text
//! {"op":"ingest","dataset":"d","points":[[0,0],[1,1]],"weights":[1,2]}
//! {"op":"ingest","dataset":"e","points":[[2,2]],"plan":{"k":4,"kind":"kmedian","method":"bico","solver":"kmedian-weiszfeld"}}
//! {"op":"compress","dataset":"d","method":"fast-coreset","seed":7}
//! {"op":"cluster","dataset":"d","k":4,"kind":"kmeans","solver":"hamerly","seed":7}
//! {"op":"cost","dataset":"d","centers":[[0.5,0.5]],"kind":"kmeans"}
//! {"op":"stats"}            {"op":"stats","dataset":"d"}
//! {"op":"metrics"}
//! {"op":"drop_dataset","dataset":"d"}
//! {"op":"hello","proto":"bin1"}
//! ```
//!
//! `hello` upgrades the connection to the length-prefixed binary frame
//! format (see [`crate::wire`]): the server acknowledges with a JSON
//! `{"ok":true,"kind":"hello","proto":"bin1"}` line — the last JSON frame
//! on the connection — and both directions switch to binary frames for
//! everything after it. Servers that predate the op answer `unknown op`,
//! and the client simply stays on JSON-lines.
//!
//! Any request may additionally carry `"trace":"<id>"` — an opaque
//! request id the server records in its recent-trace ring and a
//! coordinator forwards to every node it fans out to, so one slow query
//! can be attributed across the fleet. Servers that predate the field
//! ignore it (decoders only look up known keys), which is what makes it
//! safe to thread through a mixed-version fleet.
//!
//! `seed` makes served randomness reproducible: the same coreset state plus
//! the same seed yields the same compression / clustering. When omitted,
//! the engine assigns the next seed from its deterministic counter and
//! echoes it in the response, so any served result can be replayed.
//!
//! `method` and `solver` are the canonical names of
//! [`fc_core::plan::Method`] and [`fc_clustering::Solver`] — the wire
//! protocol parses them with the exact same `FromStr` implementations the
//! library exposes, so a string that works in code works on the wire and
//! vice versa. `plan` on a creating ingest is the stable wire form of a
//! whole [`Plan`] ([`Plan::from_value`]): per-dataset `k`, size, objective,
//! method, solver, and compaction budget. `stats` reports each dataset's
//! effective plan in the same form.
//!
//! The response schema is versioned with the workspace: client and server
//! ship from one build, so new response fields (`method`, `plan`,
//! `state_epoch`, `recovering`) are required on decode. Three exceptions
//! stay open: error `code`s (unknown codes decode as `None` so clients
//! survive new server-side classes), the per-node `nodes` breakdown in
//! `stats` (emitted by coordinators, absent from plain servers — see
//! [`DatasetStats::nodes`]), and the `server` lifetime counters in
//! `stats` (omitted by backends that do not track them).
//!
//! This protocol is also how an `fc-coordinator` speaks: it serves these
//! requests *upward* unchanged while issuing the same requests *downward*
//! to its `fc-server` nodes, so a coordinator is wire-indistinguishable
//! from a single big server.

use crate::json::{self, number_array, object, Value};
use fc_clustering::{CostKind, Solver};
use fc_core::plan::{kind_from_name, kind_name, Method, Plan};
use fc_core::PointBlock;
use fc_geom::{Dataset, Points};

/// The binary wire protocol name a [`Request::Hello`] negotiates. See
/// [`crate::wire`] for the frame layout.
pub const BINARY_PROTO: &str = "bin1";

/// The checksummed binary wire protocol: identical payloads to
/// [`BINARY_PROTO`], but every frame is `[len][crc32][payload]` so a
/// flipped bit on the wire is answered as a structured error instead of
/// silently corrupting a batch. Negotiated exactly like `bin1`; servers
/// that predate it decline the hello and the client falls back.
pub const BINARY_PROTO_CRC: &str = "bin1c";

/// Exactly-once ingest identity: a stable client id plus a per-dataset
/// monotonic sequence number. The engine remembers the highest sequence
/// applied per `(dataset, client)` — ahead of the WAL, and persisted in
/// it — so a retried batch (client resend after a lost ack, coordinator
/// replica fan-out, node restart mid-ingest) is acknowledged as a
/// duplicate instead of double-counting weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestIdent {
    /// Stable client identity; sequence numbers are scoped to it.
    pub client: String,
    /// Monotonic per-dataset sequence number for this batch.
    pub seq: u64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Negotiates a wire-format upgrade. A server that supports the named
    /// protocol answers [`Response::Hello`] (as a JSON line — the last one
    /// on the connection) and frames everything after it in the new
    /// format; old servers answer an `unknown op` error and the client
    /// stays on JSON-lines.
    Hello {
        /// The requested protocol: [`BINARY_PROTO_CRC`] or [`BINARY_PROTO`].
        proto: String,
    },
    /// Appends a weighted point batch to a dataset (created on first use).
    Ingest {
        /// Target dataset name.
        dataset: String,
        /// The point batch, flat row-major with optional per-point
        /// weights (unit when omitted).
        block: PointBlock,
        /// Optional per-dataset [`Plan`], honoured by the ingest that
        /// creates the dataset (the engine default applies when omitted).
        /// Re-sending the same plan is idempotent; a different plan for an
        /// existing dataset is an error.
        plan: Option<Plan>,
        /// Optional exactly-once identity (`client` + `seq` on the wire).
        /// Without it, retries are at-least-once as before.
        ident: Option<IngestIdent>,
        /// The `FleetMap` epoch the sender routed under, when it routed
        /// via a fleet. A coordinator whose map has moved on answers a
        /// structured `wrong_epoch` error instead of applying the batch
        /// to a stale replica set.
        epoch: Option<u64>,
    },
    /// Returns the dataset's current served coreset.
    Compress {
        /// Dataset name.
        dataset: String,
        /// Compression method for the serving compression; the engine's
        /// configured method when omitted. Parsed with the same `FromStr`
        /// the library exposes (`"fast-coreset"`, `"bico"`, ...).
        method: Option<Method>,
        /// Reproducibility seed; engine-assigned when omitted.
        seed: Option<u64>,
    },
    /// Clusters the served coreset and returns the centers.
    Cluster {
        /// Dataset name.
        dataset: String,
        /// Number of centers; the engine default when omitted.
        k: Option<usize>,
        /// Objective; the engine default when omitted.
        kind: Option<CostKind>,
        /// Refinement solver; the engine default when omitted. Parsed with
        /// the same `FromStr` the library exposes (`"lloyd"`,
        /// `"hamerly"`, ...).
        solver: Option<Solver>,
        /// Reproducibility seed; engine-assigned when omitted.
        seed: Option<u64>,
    },
    /// Prices a candidate solution on the served coreset.
    Cost {
        /// Dataset name.
        dataset: String,
        /// Candidate centers, row-major.
        centers: Vec<Vec<f64>>,
        /// Objective; the engine default when omitted.
        kind: Option<CostKind>,
    },
    /// Reports engine-wide or per-dataset statistics.
    Stats {
        /// Restrict to one dataset when present.
        dataset: Option<String>,
    },
    /// Dumps the process's metric registry and recent traces.
    Metrics,
    /// Removes a dataset and frees its shards.
    DropDataset {
        /// Dataset name.
        dataset: String,
    },
    /// Fleet admin: adds a node to the coordinator's `FleetMap`, bumps
    /// the epoch, and migrates serving coresets for every dataset whose
    /// replica set now includes the newcomer. Answered with
    /// [`Response::FleetUpdated`]; plain servers answer an error.
    AddNode {
        /// Address of the node to add (as the coordinator will dial it).
        addr: String,
        /// Routing capacity weight; `1.0` when omitted.
        capacity: Option<f64>,
    },
    /// Fleet admin: marks a node draining (out of placement, still
    /// addressable), bumps the epoch, migrates each affected dataset's
    /// serving coresets to its replacement replica, and drops the moved
    /// datasets from the drained node. Answered with
    /// [`Response::FleetUpdated`]; plain servers answer an error.
    DrainNode {
        /// Address of the node to drain.
        addr: String,
    },
}

/// Health of one cluster node, as observed by a coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// The node's last operation succeeded.
    Alive,
    /// The node is reachable but still replaying its write-ahead log
    /// after a restart: its stats report at least one dataset behind its
    /// own durable state. The coordinator keeps routing ingests to it but
    /// answers queries from caught-up nodes only.
    Recovering,
    /// The node is answering but shedding load (its last operation came
    /// back `overloaded` even after the coordinator's bounded retries).
    Degraded,
    /// The node is unreachable (dial or socket failure).
    Down,
}

impl NodeHealth {
    /// The canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            NodeHealth::Alive => "alive",
            NodeHealth::Recovering => "recovering",
            NodeHealth::Degraded => "degraded",
            NodeHealth::Down => "down",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "alive" => Some(NodeHealth::Alive),
            "recovering" => Some(NodeHealth::Recovering),
            "degraded" => Some(NodeHealth::Degraded),
            "down" => Some(NodeHealth::Down),
            _ => None,
        }
    }
}

impl std::fmt::Display for NodeHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One cluster node's contribution to a dataset, with its identity and
/// health attached — what a coordinator's `stats` response reports per
/// node under [`DatasetStats::nodes`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node identity (the address the coordinator routes to).
    pub node: String,
    /// The node's health as of this stats request.
    pub health: NodeHealth,
    /// The most recent failure observed against this node, if its health
    /// is not [`NodeHealth::Alive`].
    pub last_error: Option<String>,
    /// Shards the node runs for this dataset (0 when the node does not
    /// hold it or is down).
    pub shards: usize,
    /// Points this node has ingested for the dataset.
    pub ingested_points: u64,
    /// Weight this node has ingested for the dataset.
    pub ingested_weight: f64,
    /// Points currently held in the node's shard summaries.
    pub stored_points: usize,
}

/// Statistics for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub dataset: String,
    /// Point dimensionality.
    pub dim: usize,
    /// The dataset's effective [`Plan`] — the one its shard streams,
    /// serving compressions, and query defaults derive from.
    pub plan: Plan,
    /// Shard count.
    pub shards: usize,
    /// Total points ingested over the dataset's lifetime.
    pub ingested_points: u64,
    /// Total ingested weight.
    pub ingested_weight: f64,
    /// Points currently held across shard summaries.
    pub stored_points: usize,
    /// Per-shard summary counts (merge-&-reduce stack depths).
    pub summaries_per_shard: Vec<usize>,
    /// Per-shard command-queue backlog (commands sent but not yet fully
    /// processed) — the observable precursor of ingest backpressure.
    pub queue_depth_per_shard: Vec<usize>,
    /// The dataset's durable-state epoch `(snapshot ids, applied seqs)` —
    /// each component the sum across shards (and, on a coordinator,
    /// across nodes). Both components only grow: a restart recovers the
    /// persisted state and replays forward, never backward. `(0, 0)` on
    /// an engine running without persistence.
    pub state_epoch: (u64, u64),
    /// Whether any shard is still replaying its write-ahead log — the
    /// dataset serves stale summaries until this clears.
    pub recovering: bool,
    /// Per-node breakdown with node identity and health, populated by
    /// `fc-coordinator` deployments. Empty on a single server — and, unlike
    /// the other response fields, *optional on decode*: a coordinator is
    /// itself a client of plain `fc-server` nodes, whose stats never carry
    /// it.
    pub nodes: Vec<NodeStats>,
}

/// Process-lifetime counters for the serving process itself, attached to
/// `stats` responses alongside the per-dataset rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerStats {
    /// Seconds since the serving engine started.
    pub uptime_secs: u64,
    /// Points acknowledged across all datasets since start.
    pub ingested_points: u64,
    /// Ingest batches acknowledged across all datasets since start.
    pub ingested_blocks: u64,
    /// Queries (compress, cluster, cost) served since start.
    pub queries: u64,
    /// The answering process's current `FleetMap` epoch — non-zero only
    /// on a coordinator, where it increments on every membership change
    /// (add/drain) and never goes backward. Optional on decode (`0` when
    /// absent): plain servers and older coordinators never emit it.
    pub fleet_epoch: u64,
    /// Query-cache hits served since start. Optional on decode (`0` when
    /// absent): processes without a cache never emit it.
    pub cache_hits: u64,
    /// Query-cache misses since start. Optional on decode like
    /// `cache_hits`.
    pub cache_misses: u64,
}

/// A server response. `Error` is the only failure shape on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Acceptance of a [`Request::Hello`] wire upgrade. Always encoded as
    /// a JSON line — it is the last frame of the old format; everything
    /// after it on the connection uses the negotiated one.
    Hello {
        /// The protocol now in effect.
        proto: String,
    },
    /// Outcome of an `Ingest`.
    Ingested {
        /// Dataset name.
        dataset: String,
        /// Points accepted in this batch.
        points: usize,
        /// Lifetime ingested points after this batch.
        total_points: u64,
        /// Lifetime ingested weight after this batch.
        total_weight: f64,
        /// `true` when the batch carried an [`IngestIdent`] the engine
        /// had already applied: nothing was ingested, the totals report
        /// current state, and the retry is safe. Optional on decode
        /// (`false` when absent) — servers only emit it when set.
        duplicate: bool,
    },
    /// Outcome of a `Compress`: the served coreset.
    Coreset {
        /// Dataset name.
        dataset: String,
        /// Coreset points, row-major.
        points: Vec<Vec<f64>>,
        /// Per-point weights.
        weights: Vec<f64>,
        /// The effective compression method — the request's override, or
        /// the dataset plan's method. This is the method the serving
        /// compression runs under; when the snapshot union already fits
        /// the serving size the points are served as-is and this names the
        /// method that *would* compress them.
        method: Method,
        /// The seed that produced this compression.
        seed: u64,
    },
    /// Outcome of a `Cluster`.
    Clustered {
        /// Dataset name.
        dataset: String,
        /// Centers, row-major.
        centers: Vec<Vec<f64>>,
        /// Objective clustered under.
        kind: CostKind,
        /// Solver that refined the solution.
        solver: Solver,
        /// The solution's cost on the served coreset.
        coreset_cost: f64,
        /// Number of coreset points the solve ran on.
        coreset_points: usize,
        /// The seed that produced this clustering.
        seed: u64,
    },
    /// Outcome of a `Cost`.
    Cost {
        /// Dataset name.
        dataset: String,
        /// Weighted cost of the candidate centers on the served coreset.
        cost: f64,
        /// Objective priced under.
        kind: CostKind,
        /// Number of coreset points priced.
        coreset_points: usize,
    },
    /// Outcome of a `Stats`.
    Stats {
        /// Per-dataset statistics (all datasets, or the one requested).
        datasets: Vec<DatasetStats>,
        /// Lifetime counters of the answering process. Optional on
        /// decode: backends that do not track them omit the field.
        server: Option<ServerStats>,
    },
    /// Outcome of a `Metrics`: the answering process's metric registry
    /// and recent traces, passed through verbatim (the schema is owned by
    /// `fc-telemetry`'s JSON form, not re-validated at the protocol
    /// layer — a coordinator embeds node payloads it cannot know the
    /// future shape of).
    Metrics {
        /// The registry dump: counters, gauges, histograms, traces.
        metrics: Value,
    },
    /// Outcome of a `DropDataset`.
    Dropped {
        /// Dataset name.
        dataset: String,
    },
    /// Outcome of an `AddNode` / `DrainNode` fleet-membership change.
    FleetUpdated {
        /// The `FleetMap` epoch after the change.
        epoch: u64,
        /// Roster size after the change (draining members included).
        nodes: usize,
        /// Datasets whose serving coresets were migrated by the change.
        migrated: usize,
    },
    /// Any failure.
    Error {
        /// Human-readable description.
        message: String,
        /// Machine-readable class, for failures a client should react to
        /// programmatically rather than by parsing prose.
        code: Option<ErrorCode>,
    },
}

/// Machine-readable classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// A shard ingest queue was full; the write was rejected instead of
    /// blocking. Back off and retry.
    Overloaded,
    /// The named dataset does not exist on this server. Coordinators react
    /// to this code (a node that never received a shard of the dataset is
    /// normal) instead of parsing prose.
    UnknownDataset,
    /// The dataset exists but no shard has processed a block yet, so there
    /// is nothing to serve. Transient: ingest acknowledgement precedes
    /// shard processing.
    NoData,
    /// The server refused the connection or request outright — e.g. the
    /// `--max-connections` admission cap is reached, or a coordinator has
    /// no live node to route to. Unlike [`ErrorCode::Overloaded`] this is
    /// *not* an invitation to retry immediately: the client should spread
    /// load elsewhere or wait out the condition.
    Unavailable,
    /// The request spent longer than the server's `--request-deadline-ms`
    /// waiting to execute and was shed without running. Retrying
    /// immediately would only rebuild the same queue; the client should
    /// back off or reduce load.
    DeadlineExceeded,
    /// The request carried a `FleetMap` epoch older than the server's
    /// current one — membership changed under the sender. The error
    /// message names the current epoch; the client should refresh its
    /// view (`stats` reports the epoch) and re-route.
    WrongEpoch,
    /// The server hit a bug while executing this request (the backend
    /// call panicked). Only this request failed: the connection and the
    /// server keep serving. Retrying the same request will likely fail
    /// the same way.
    Internal,
}

impl ErrorCode {
    /// The canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::NoData => "no_data",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::WrongEpoch => "wrong_epoch",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name; unknown codes decode as `None` so old clients
    /// survive new server-side classes.
    pub(crate) fn from_name(name: &str) -> Option<Self> {
        match name {
            "overloaded" => Some(ErrorCode::Overloaded),
            "unknown_dataset" => Some(ErrorCode::UnknownDataset),
            "no_data" => Some(ErrorCode::NoData),
            "unavailable" => Some(ErrorCode::Unavailable),
            "deadline_exceeded" => Some(ErrorCode::DeadlineExceeded),
            "wrong_epoch" => Some(ErrorCode::WrongEpoch),
            "internal" => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A protocol-level decoding failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// What was malformed.
    pub message: String,
}

impl ProtocolError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

impl From<json::JsonError> for ProtocolError {
    fn from(e: json::JsonError) -> Self {
        ProtocolError::new(format!("invalid JSON: {e}"))
    }
}

fn kind_from_value(v: &Value) -> Result<CostKind, ProtocolError> {
    match v.as_str() {
        // The same canonical names the plan wire form uses.
        Some(name) => kind_from_name(name).map_err(|e| ProtocolError::new(e.to_string())),
        None => Err(ProtocolError::new("`kind` must be a string")),
    }
}

fn method_from_value(v: &Value) -> Result<Method, ProtocolError> {
    match v.as_str() {
        Some(name) => name
            .parse::<Method>()
            .map_err(|e| ProtocolError::new(e.to_string())),
        None => Err(ProtocolError::new("`method` must be a string")),
    }
}

fn solver_from_value(v: &Value) -> Result<Solver, ProtocolError> {
    match v.as_str() {
        Some(name) => name
            .parse::<Solver>()
            .map_err(|e| ProtocolError::new(e.to_string())),
        None => Err(ProtocolError::new("`solver` must be a string")),
    }
}

fn rows_to_value(rows: &[Vec<f64>]) -> Value {
    Value::Array(rows.iter().map(|r| number_array(r)).collect())
}

fn flat_to_rows_value(data: &[f64], dim: usize) -> Value {
    Value::Array(data.chunks_exact(dim).map(number_array).collect())
}

/// Parses an array-of-arrays of numbers straight into a flat row-major
/// buffer — the ingest hot path never materializes a `Vec<Vec<f64>>`.
/// Same validation (and same error messages) as [`rows_from_value`].
fn flat_from_value(v: &Value, what: &str) -> Result<(Vec<f64>, usize), ProtocolError> {
    let outer = v
        .as_array()
        .ok_or_else(|| ProtocolError::new(format!("`{what}` must be an array of points")))?;
    let mut data = Vec::new();
    let mut dim = None;
    for (i, row) in outer.iter().enumerate() {
        let coords = row.as_array().ok_or_else(|| {
            ProtocolError::new(format!("`{what}[{i}]` must be an array of numbers"))
        })?;
        match dim {
            None => {
                if coords.is_empty() {
                    return Err(ProtocolError::new(format!(
                        "`{what}[{i}]` is empty (points need at least one coordinate)"
                    )));
                }
                dim = Some(coords.len());
                data.reserve(outer.len() * coords.len());
            }
            Some(d) if d != coords.len() => {
                return Err(ProtocolError::new(format!(
                    "`{what}[{i}]` has {} coordinates but earlier points have {d}",
                    coords.len()
                )));
            }
            Some(_) => {}
        }
        let start = data.len();
        for c in coords {
            data.push(c.as_f64().ok_or_else(|| {
                ProtocolError::new(format!("`{what}[{i}]` holds a non-numeric coordinate"))
            })?);
        }
        if !data[start..].iter().all(|x| x.is_finite()) {
            return Err(ProtocolError::new(format!(
                "`{what}[{i}]` holds a non-finite coordinate"
            )));
        }
    }
    Ok((data, dim.unwrap_or(0)))
}

fn rows_from_value(v: &Value, what: &str) -> Result<Vec<Vec<f64>>, ProtocolError> {
    let outer = v
        .as_array()
        .ok_or_else(|| ProtocolError::new(format!("`{what}` must be an array of points")))?;
    let mut rows = Vec::with_capacity(outer.len());
    let mut dim = None;
    for (i, row) in outer.iter().enumerate() {
        let coords = row.as_array().ok_or_else(|| {
            ProtocolError::new(format!("`{what}[{i}]` must be an array of numbers"))
        })?;
        let parsed: Option<Vec<f64>> = coords.iter().map(Value::as_f64).collect();
        let parsed = parsed.ok_or_else(|| {
            ProtocolError::new(format!("`{what}[{i}]` holds a non-numeric coordinate"))
        })?;
        if !parsed.iter().all(|x| x.is_finite()) {
            return Err(ProtocolError::new(format!(
                "`{what}[{i}]` holds a non-finite coordinate"
            )));
        }
        match dim {
            None => {
                if parsed.is_empty() {
                    return Err(ProtocolError::new(format!(
                        "`{what}[{i}]` is empty (points need at least one coordinate)"
                    )));
                }
                dim = Some(parsed.len());
            }
            Some(d) if d != parsed.len() => {
                return Err(ProtocolError::new(format!(
                    "`{what}[{i}]` has {} coordinates but earlier points have {d}",
                    parsed.len()
                )));
            }
            Some(_) => {}
        }
        rows.push(parsed);
    }
    Ok(rows)
}

fn floats_from_value(v: &Value, what: &str) -> Result<Vec<f64>, ProtocolError> {
    let items = v
        .as_array()
        .ok_or_else(|| ProtocolError::new(format!("`{what}` must be an array of numbers")))?;
    let parsed: Option<Vec<f64>> = items.iter().map(Value::as_f64).collect();
    parsed.ok_or_else(|| ProtocolError::new(format!("`{what}` holds a non-numeric entry")))
}

fn required_str(v: &Value, key: &str) -> Result<String, ProtocolError> {
    v.get(key)
        .ok_or_else(|| ProtocolError::new(format!("missing required field `{key}`")))?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| ProtocolError::new(format!("`{key}` must be a string")))
}

fn optional_seed(v: &Value) -> Result<Option<u64>, ProtocolError> {
    match v.get("seed") {
        None | Some(Value::Null) => Ok(None),
        Some(s) => s
            .as_u64()
            .map(Some)
            .ok_or_else(|| ProtocolError::new("`seed` must be a non-negative integer")),
    }
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_with_trace(None)
    }

    /// Encodes the request with an optional `trace` request id attached.
    /// Old servers ignore the field; new ones record the id in their
    /// recent-trace ring.
    pub fn to_json_with_trace(&self, trace: Option<&str>) -> String {
        let mut value = self.to_value();
        if let (Value::Object(map), Some(id)) = (&mut value, trace) {
            map.insert("trace".to_owned(), Value::from(id));
        }
        value.to_json()
    }

    /// The wire `op` name — what trace hops and per-op metrics are
    /// labelled with.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Ingest { .. } => "ingest",
            Request::Compress { .. } => "compress",
            Request::Cluster { .. } => "cluster",
            Request::Cost { .. } => "cost",
            Request::Stats { .. } => "stats",
            Request::Metrics => "metrics",
            Request::DropDataset { .. } => "drop_dataset",
            Request::AddNode { .. } => "add_node",
            Request::DrainNode { .. } => "drain_node",
        }
    }

    fn to_value(&self) -> Value {
        match self {
            Request::Hello { proto } => pairs_to_object(vec![
                ("op", Value::from("hello")),
                ("proto", Value::from(proto.clone())),
            ]),
            Request::Ingest {
                dataset,
                block,
                plan,
                ident,
                epoch,
            } => {
                let mut pairs = vec![
                    ("op", Value::from("ingest")),
                    ("dataset", Value::from(dataset.clone())),
                    ("points", flat_to_rows_value(block.data(), block.dim())),
                ];
                if let Some(w) = block.weights() {
                    pairs.push(("weights", number_array(w)));
                }
                if let Some(p) = plan {
                    pairs.push(("plan", p.to_value()));
                }
                if let Some(id) = ident {
                    pairs.push(("client", Value::from(id.client.clone())));
                    pairs.push(("seq", Value::from(id.seq)));
                }
                if let Some(e) = epoch {
                    pairs.push(("epoch", Value::from(*e)));
                }
                pairs_to_object(pairs)
            }
            Request::Compress {
                dataset,
                method,
                seed,
            } => {
                let mut pairs = vec![
                    ("op", Value::from("compress")),
                    ("dataset", Value::from(dataset.clone())),
                ];
                if let Some(m) = method {
                    pairs.push(("method", Value::from(m.to_string())));
                }
                if let Some(s) = seed {
                    pairs.push(("seed", Value::from(*s)));
                }
                pairs_to_object(pairs)
            }
            Request::Cluster {
                dataset,
                k,
                kind,
                solver,
                seed,
            } => {
                let mut pairs = vec![
                    ("op", Value::from("cluster")),
                    ("dataset", Value::from(dataset.clone())),
                ];
                if let Some(k) = k {
                    pairs.push(("k", Value::from(*k)));
                }
                if let Some(kind) = kind {
                    pairs.push(("kind", Value::from(kind_name(*kind))));
                }
                if let Some(solver) = solver {
                    pairs.push(("solver", Value::from(solver.to_string())));
                }
                if let Some(s) = seed {
                    pairs.push(("seed", Value::from(*s)));
                }
                pairs_to_object(pairs)
            }
            Request::Cost {
                dataset,
                centers,
                kind,
            } => {
                let mut pairs = vec![
                    ("op", Value::from("cost")),
                    ("dataset", Value::from(dataset.clone())),
                    ("centers", rows_to_value(centers)),
                ];
                if let Some(kind) = kind {
                    pairs.push(("kind", Value::from(kind_name(*kind))));
                }
                pairs_to_object(pairs)
            }
            Request::Stats { dataset } => {
                let mut pairs = vec![("op", Value::from("stats"))];
                if let Some(d) = dataset {
                    pairs.push(("dataset", Value::from(d.clone())));
                }
                pairs_to_object(pairs)
            }
            Request::Metrics => pairs_to_object(vec![("op", Value::from("metrics"))]),
            Request::DropDataset { dataset } => pairs_to_object(vec![
                ("op", Value::from("drop_dataset")),
                ("dataset", Value::from(dataset.clone())),
            ]),
            Request::AddNode { addr, capacity } => {
                let mut pairs = vec![
                    ("op", Value::from("add_node")),
                    ("addr", Value::from(addr.clone())),
                ];
                if let Some(c) = capacity {
                    pairs.push(("capacity", Value::from(*c)));
                }
                pairs_to_object(pairs)
            }
            Request::DrainNode { addr } => pairs_to_object(vec![
                ("op", Value::from("drain_node")),
                ("addr", Value::from(addr.clone())),
            ]),
        }
    }

    /// Decodes one request line.
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        Ok(Self::from_json_with_trace(line)?.0)
    }

    /// Decodes one request line together with its optional `trace`
    /// request id.
    pub fn from_json_with_trace(line: &str) -> Result<(Self, Option<String>), ProtocolError> {
        let v = json::parse(line)?;
        if v.as_object().is_none() {
            return Err(ProtocolError::new("request must be a JSON object"));
        }
        let trace = match v.get("trace") {
            None | Some(Value::Null) => None,
            Some(t) => Some(
                t.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| ProtocolError::new("`trace` must be a string"))?,
            ),
        };
        Ok((Self::from_value(&v)?, trace))
    }

    fn from_value(v: &Value) -> Result<Self, ProtocolError> {
        let op = required_str(v, "op")?;
        match op.as_str() {
            "hello" => Ok(Request::Hello {
                proto: required_str(v, "proto")?,
            }),
            "ingest" => {
                let dataset = required_str(v, "dataset")?;
                let (data, dim) = flat_from_value(
                    v.get("points")
                        .ok_or_else(|| ProtocolError::new("missing required field `points`"))?,
                    "points",
                )?;
                if data.is_empty() {
                    return Err(ProtocolError::new("`points` must be non-empty"));
                }
                let n = data.len() / dim;
                let weights = match v.get("weights") {
                    None | Some(Value::Null) => None,
                    Some(w) => {
                        let w = floats_from_value(w, "weights")?;
                        if w.len() != n {
                            return Err(ProtocolError::new(format!(
                                "{} weights for {n} points",
                                w.len()
                            )));
                        }
                        if !w.iter().all(|x| x.is_finite() && *x >= 0.0) {
                            return Err(ProtocolError::new(
                                "`weights` must be finite and non-negative",
                            ));
                        }
                        Some(w)
                    }
                };
                let block = PointBlock::new(data, dim, weights)
                    .map_err(|e| ProtocolError::new(format!("invalid `points`: {e}")))?;
                let plan = match v.get("plan") {
                    None | Some(Value::Null) => None,
                    Some(p) => Some(
                        Plan::from_value(p)
                            .map_err(|e| ProtocolError::new(format!("invalid `plan`: {e}")))?,
                    ),
                };
                let client = match v.get("client") {
                    None | Some(Value::Null) => None,
                    Some(c) => Some(
                        c.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| ProtocolError::new("`client` must be a string"))?,
                    ),
                };
                let seq = match v.get("seq") {
                    None | Some(Value::Null) => None,
                    Some(s) => Some(s.as_u64().ok_or_else(|| {
                        ProtocolError::new("`seq` must be a non-negative integer")
                    })?),
                };
                let ident = match (client, seq) {
                    (Some(client), Some(seq)) => Some(IngestIdent { client, seq }),
                    (None, None) => None,
                    _ => {
                        return Err(ProtocolError::new(
                            "`client` and `seq` must be sent together",
                        ))
                    }
                };
                let epoch = match v.get("epoch") {
                    None | Some(Value::Null) => None,
                    Some(e) => Some(e.as_u64().ok_or_else(|| {
                        ProtocolError::new("`epoch` must be a non-negative integer")
                    })?),
                };
                Ok(Request::Ingest {
                    dataset,
                    block,
                    plan,
                    ident,
                    epoch,
                })
            }
            "compress" => Ok(Request::Compress {
                dataset: required_str(v, "dataset")?,
                method: match v.get("method") {
                    None | Some(Value::Null) => None,
                    Some(m) => Some(method_from_value(m)?),
                },
                seed: optional_seed(v)?,
            }),
            "cluster" => {
                let dataset = required_str(v, "dataset")?;
                let k = match v.get("k") {
                    None | Some(Value::Null) => None,
                    Some(k) => Some(
                        k.as_usize()
                            .filter(|&k| k > 0)
                            .ok_or_else(|| ProtocolError::new("`k` must be a positive integer"))?,
                    ),
                };
                let kind = match v.get("kind") {
                    None | Some(Value::Null) => None,
                    Some(kind) => Some(kind_from_value(kind)?),
                };
                let solver = match v.get("solver") {
                    None | Some(Value::Null) => None,
                    Some(solver) => Some(solver_from_value(solver)?),
                };
                Ok(Request::Cluster {
                    dataset,
                    k,
                    kind,
                    solver,
                    seed: optional_seed(v)?,
                })
            }
            "cost" => {
                let dataset = required_str(v, "dataset")?;
                let centers = rows_from_value(
                    v.get("centers")
                        .ok_or_else(|| ProtocolError::new("missing required field `centers`"))?,
                    "centers",
                )?;
                if centers.is_empty() {
                    return Err(ProtocolError::new("`centers` must be non-empty"));
                }
                let kind = match v.get("kind") {
                    None | Some(Value::Null) => None,
                    Some(kind) => Some(kind_from_value(kind)?),
                };
                Ok(Request::Cost {
                    dataset,
                    centers,
                    kind,
                })
            }
            "stats" => {
                let dataset = match v.get("dataset") {
                    None | Some(Value::Null) => None,
                    Some(d) => Some(
                        d.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| ProtocolError::new("`dataset` must be a string"))?,
                    ),
                };
                Ok(Request::Stats { dataset })
            }
            "metrics" => Ok(Request::Metrics),
            "drop_dataset" => Ok(Request::DropDataset {
                dataset: required_str(v, "dataset")?,
            }),
            "add_node" => Ok(Request::AddNode {
                addr: required_str(v, "addr")?,
                capacity: match v.get("capacity") {
                    None | Some(Value::Null) => None,
                    Some(c) => Some(
                        c.as_f64()
                            .filter(|c| c.is_finite() && *c >= 0.0)
                            .ok_or_else(|| {
                                ProtocolError::new("`capacity` must be a non-negative number")
                            })?,
                    ),
                },
            }),
            "drain_node" => Ok(Request::DrainNode {
                addr: required_str(v, "addr")?,
            }),
            other => Err(ProtocolError::new(format!("unknown op `{other}`"))),
        }
    }
}

fn pairs_to_object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn node_stats_to_value(n: &NodeStats) -> Value {
    let mut pairs = vec![
        ("node", Value::from(n.node.clone())),
        ("health", Value::from(n.health.name())),
        ("shards", Value::from(n.shards)),
        ("ingested_points", Value::from(n.ingested_points)),
        ("ingested_weight", Value::from(n.ingested_weight)),
        ("stored_points", Value::from(n.stored_points)),
    ];
    if let Some(e) = &n.last_error {
        pairs.push(("last_error", Value::from(e.clone())));
    }
    pairs_to_object(pairs)
}

fn node_stats_from_value(v: &Value) -> Result<NodeStats, ProtocolError> {
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| ProtocolError::new(format!("node stats missing `{key}`")))
    };
    let health = field("health")?
        .as_str()
        .and_then(NodeHealth::from_name)
        .ok_or_else(|| {
            ProtocolError::new("`health` must be alive, recovering, degraded, or down")
        })?;
    Ok(NodeStats {
        node: required_str(v, "node")?,
        health,
        last_error: match v.get("last_error") {
            None | Some(Value::Null) => None,
            Some(e) => Some(
                e.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| ProtocolError::new("`last_error` must be a string"))?,
            ),
        },
        shards: field("shards")?
            .as_usize()
            .ok_or_else(|| ProtocolError::new("node `shards` must be an integer"))?,
        ingested_points: field("ingested_points")?
            .as_u64()
            .ok_or_else(|| ProtocolError::new("node `ingested_points` must be an integer"))?,
        ingested_weight: field("ingested_weight")?
            .as_f64()
            .ok_or_else(|| ProtocolError::new("node `ingested_weight` must be a number"))?,
        stored_points: field("stored_points")?
            .as_usize()
            .ok_or_else(|| ProtocolError::new("node `stored_points` must be an integer"))?,
    })
}

fn server_stats_to_value(s: &ServerStats) -> Value {
    let mut pairs = vec![
        ("uptime_secs", Value::from(s.uptime_secs)),
        ("ingested_points", Value::from(s.ingested_points)),
        ("ingested_blocks", Value::from(s.ingested_blocks)),
        ("queries", Value::from(s.queries)),
    ];
    if s.fleet_epoch != 0 {
        pairs.push(("fleet_epoch", Value::from(s.fleet_epoch)));
    }
    if s.cache_hits != 0 {
        pairs.push(("cache_hits", Value::from(s.cache_hits)));
    }
    if s.cache_misses != 0 {
        pairs.push(("cache_misses", Value::from(s.cache_misses)));
    }
    pairs_to_object(pairs)
}

fn server_stats_from_value(v: &Value) -> Result<ServerStats, ProtocolError> {
    let counter = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| ProtocolError::new(format!("server stats `{key}` must be an integer")))
    };
    Ok(ServerStats {
        uptime_secs: counter("uptime_secs")?,
        ingested_points: counter("ingested_points")?,
        ingested_blocks: counter("ingested_blocks")?,
        queries: counter("queries")?,
        // Optional on decode: plain servers have no fleet.
        fleet_epoch: v.get("fleet_epoch").and_then(Value::as_u64).unwrap_or(0),
        // Optional on decode: cache-less processes never emit these.
        cache_hits: v.get("cache_hits").and_then(Value::as_u64).unwrap_or(0),
        cache_misses: v.get("cache_misses").and_then(Value::as_u64).unwrap_or(0),
    })
}

fn dataset_stats_to_value(s: &DatasetStats) -> Value {
    let mut value = object([
        ("dataset", Value::from(s.dataset.clone())),
        ("dim", Value::from(s.dim)),
        ("plan", s.plan.to_value()),
        ("shards", Value::from(s.shards)),
        ("ingested_points", Value::from(s.ingested_points)),
        ("ingested_weight", Value::from(s.ingested_weight)),
        ("stored_points", Value::from(s.stored_points)),
        (
            "summaries_per_shard",
            Value::Array(
                s.summaries_per_shard
                    .iter()
                    .map(|&n| Value::from(n))
                    .collect(),
            ),
        ),
        (
            "queue_depth_per_shard",
            Value::Array(
                s.queue_depth_per_shard
                    .iter()
                    .map(|&n| Value::from(n))
                    .collect(),
            ),
        ),
        (
            "state_epoch",
            Value::Array(vec![
                Value::from(s.state_epoch.0),
                Value::from(s.state_epoch.1),
            ]),
        ),
        ("recovering", Value::from(s.recovering)),
    ]);
    if !s.nodes.is_empty() {
        if let Value::Object(map) = &mut value {
            map.insert(
                "nodes".to_owned(),
                Value::Array(s.nodes.iter().map(node_stats_to_value).collect()),
            );
        }
    }
    value
}

fn dataset_stats_from_value(v: &Value) -> Result<DatasetStats, ProtocolError> {
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| ProtocolError::new(format!("stats missing `{key}`")))
    };
    Ok(DatasetStats {
        dataset: required_str(v, "dataset")?,
        dim: field("dim")?
            .as_usize()
            .ok_or_else(|| ProtocolError::new("`dim` must be an integer"))?,
        plan: Plan::from_value(field("plan")?)
            .map_err(|e| ProtocolError::new(format!("invalid stats `plan`: {e}")))?,
        shards: field("shards")?
            .as_usize()
            .ok_or_else(|| ProtocolError::new("`shards` must be an integer"))?,
        ingested_points: field("ingested_points")?
            .as_u64()
            .ok_or_else(|| ProtocolError::new("`ingested_points` must be an integer"))?,
        ingested_weight: field("ingested_weight")?
            .as_f64()
            .ok_or_else(|| ProtocolError::new("`ingested_weight` must be a number"))?,
        stored_points: field("stored_points")?
            .as_usize()
            .ok_or_else(|| ProtocolError::new("`stored_points` must be an integer"))?,
        summaries_per_shard: field("summaries_per_shard")?
            .as_array()
            .ok_or_else(|| ProtocolError::new("`summaries_per_shard` must be an array"))?
            .iter()
            .map(|n| {
                n.as_usize()
                    .ok_or_else(|| ProtocolError::new("`summaries_per_shard` must hold integers"))
            })
            .collect::<Result<_, _>>()?,
        queue_depth_per_shard: field("queue_depth_per_shard")?
            .as_array()
            .ok_or_else(|| ProtocolError::new("`queue_depth_per_shard` must be an array"))?
            .iter()
            .map(|n| {
                n.as_usize()
                    .ok_or_else(|| ProtocolError::new("`queue_depth_per_shard` must hold integers"))
            })
            .collect::<Result<_, _>>()?,
        state_epoch: {
            let pair = field("state_epoch")?
                .as_array()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| ProtocolError::new("`state_epoch` must be a two-element array"))?;
            let component = |i: usize| {
                pair[i].as_u64().ok_or_else(|| {
                    ProtocolError::new("`state_epoch` must hold non-negative integers")
                })
            };
            (component(0)?, component(1)?)
        },
        recovering: field("recovering")?
            .as_bool()
            .ok_or_else(|| ProtocolError::new("`recovering` must be a boolean"))?,
        // Optional on decode: plain servers never emit it (see the field
        // docs on `DatasetStats`).
        nodes: match v.get("nodes") {
            None | Some(Value::Null) => Vec::new(),
            Some(nodes) => nodes
                .as_array()
                .ok_or_else(|| ProtocolError::new("`nodes` must be an array"))?
                .iter()
                .map(node_stats_from_value)
                .collect::<Result<_, _>>()?,
        },
    })
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let value = match self {
            Response::Hello { proto } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("hello")),
                ("proto", Value::from(proto.clone())),
            ]),
            Response::Ingested {
                dataset,
                points,
                total_points,
                total_weight,
                duplicate,
            } => {
                let mut pairs = vec![
                    ("ok", Value::from(true)),
                    ("kind", Value::from("ingested")),
                    ("dataset", Value::from(dataset.clone())),
                    ("points", Value::from(*points)),
                    ("total_points", Value::from(*total_points)),
                    ("total_weight", Value::from(*total_weight)),
                ];
                if *duplicate {
                    pairs.push(("duplicate", Value::from(true)));
                }
                pairs_to_object(pairs)
            }
            Response::Coreset {
                dataset,
                points,
                weights,
                method,
                seed,
            } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("coreset")),
                ("dataset", Value::from(dataset.clone())),
                ("points", rows_to_value(points)),
                ("weights", number_array(weights)),
                ("method", Value::from(method.to_string())),
                ("seed", Value::from(*seed)),
            ]),
            Response::Clustered {
                dataset,
                centers,
                kind,
                solver,
                coreset_cost,
                coreset_points,
                seed,
            } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("clustered")),
                ("dataset", Value::from(dataset.clone())),
                ("centers", rows_to_value(centers)),
                ("objective", Value::from(kind_name(*kind))),
                ("solver", Value::from(solver.to_string())),
                ("coreset_cost", Value::from(*coreset_cost)),
                ("coreset_points", Value::from(*coreset_points)),
                ("seed", Value::from(*seed)),
            ]),
            Response::Cost {
                dataset,
                cost,
                kind,
                coreset_points,
            } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("cost")),
                ("dataset", Value::from(dataset.clone())),
                ("cost", Value::from(*cost)),
                ("objective", Value::from(kind_name(*kind))),
                ("coreset_points", Value::from(*coreset_points)),
            ]),
            Response::Stats { datasets, server } => {
                let mut pairs = vec![
                    ("ok", Value::from(true)),
                    ("kind", Value::from("stats")),
                    (
                        "datasets",
                        Value::Array(datasets.iter().map(dataset_stats_to_value).collect()),
                    ),
                ];
                if let Some(s) = server {
                    pairs.push(("server", server_stats_to_value(s)));
                }
                pairs_to_object(pairs)
            }
            Response::Metrics { metrics } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("metrics")),
                ("metrics", metrics.clone()),
            ]),
            Response::Dropped { dataset } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("dropped")),
                ("dataset", Value::from(dataset.clone())),
            ]),
            Response::FleetUpdated {
                epoch,
                nodes,
                migrated,
            } => object([
                ("ok", Value::from(true)),
                ("kind", Value::from("fleet_updated")),
                ("epoch", Value::from(*epoch)),
                ("nodes", Value::from(*nodes)),
                ("migrated", Value::from(*migrated)),
            ]),
            Response::Error { message, code } => {
                let mut pairs = vec![
                    ("ok", Value::from(false)),
                    ("kind", Value::from("error")),
                    ("message", Value::from(message.clone())),
                ];
                if let Some(code) = code {
                    pairs.push(("code", Value::from(code.name())));
                }
                pairs_to_object(pairs)
            }
        };
        value.to_json()
    }

    /// Decodes one response line.
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        let v = json::parse(line)?;
        let kind = required_str(&v, "kind")?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| ProtocolError::new(format!("missing numeric field `{key}`")))
        };
        let int = |key: &str| {
            v.get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| ProtocolError::new(format!("missing integer field `{key}`")))
        };
        let seed = |()| {
            v.get("seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| ProtocolError::new("missing integer field `seed`"))
        };
        match kind.as_str() {
            "hello" => Ok(Response::Hello {
                proto: required_str(&v, "proto")?,
            }),
            "ingested" => Ok(Response::Ingested {
                dataset: required_str(&v, "dataset")?,
                points: int("points")?,
                total_points: v
                    .get("total_points")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ProtocolError::new("missing integer field `total_points`"))?,
                total_weight: num("total_weight")?,
                // Optional on decode: only emitted when set.
                duplicate: v.get("duplicate").and_then(Value::as_bool).unwrap_or(false),
            }),
            "coreset" => Ok(Response::Coreset {
                dataset: required_str(&v, "dataset")?,
                points: rows_from_value(
                    v.get("points")
                        .ok_or_else(|| ProtocolError::new("missing field `points`"))?,
                    "points",
                )?,
                weights: floats_from_value(
                    v.get("weights")
                        .ok_or_else(|| ProtocolError::new("missing field `weights`"))?,
                    "weights",
                )?,
                method: method_from_value(
                    v.get("method")
                        .ok_or_else(|| ProtocolError::new("missing field `method`"))?,
                )?,
                seed: seed(())?,
            }),
            "clustered" => Ok(Response::Clustered {
                dataset: required_str(&v, "dataset")?,
                centers: rows_from_value(
                    v.get("centers")
                        .ok_or_else(|| ProtocolError::new("missing field `centers`"))?,
                    "centers",
                )?,
                kind: kind_from_value(
                    v.get("objective")
                        .ok_or_else(|| ProtocolError::new("missing field `objective`"))?,
                )?,
                solver: solver_from_value(
                    v.get("solver")
                        .ok_or_else(|| ProtocolError::new("missing field `solver`"))?,
                )?,
                coreset_cost: num("coreset_cost")?,
                coreset_points: int("coreset_points")?,
                seed: seed(())?,
            }),
            "cost" => Ok(Response::Cost {
                dataset: required_str(&v, "dataset")?,
                cost: num("cost")?,
                kind: kind_from_value(
                    v.get("objective")
                        .ok_or_else(|| ProtocolError::new("missing field `objective`"))?,
                )?,
                coreset_points: int("coreset_points")?,
            }),
            "stats" => Ok(Response::Stats {
                datasets: v
                    .get("datasets")
                    .and_then(Value::as_array)
                    .ok_or_else(|| ProtocolError::new("missing array field `datasets`"))?
                    .iter()
                    .map(dataset_stats_from_value)
                    .collect::<Result<_, _>>()?,
                // Optional on decode: backends without lifetime counters
                // omit the field.
                server: match v.get("server") {
                    None | Some(Value::Null) => None,
                    Some(s) => Some(server_stats_from_value(s)?),
                },
            }),
            "metrics" => Ok(Response::Metrics {
                metrics: v
                    .get("metrics")
                    .ok_or_else(|| ProtocolError::new("missing field `metrics`"))?
                    .clone(),
            }),
            "dropped" => Ok(Response::Dropped {
                dataset: required_str(&v, "dataset")?,
            }),
            "fleet_updated" => Ok(Response::FleetUpdated {
                epoch: v
                    .get("epoch")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ProtocolError::new("missing integer field `epoch`"))?,
                nodes: int("nodes")?,
                migrated: int("migrated")?,
            }),
            "error" => Ok(Response::Error {
                message: required_str(&v, "message")?,
                code: match v.get("code") {
                    None | Some(Value::Null) => None,
                    Some(code) => ErrorCode::from_name(
                        code.as_str()
                            .ok_or_else(|| ProtocolError::new("`code` must be a string"))?,
                    ),
                },
            }),
            other => Err(ProtocolError::new(format!(
                "unknown response kind `{other}`"
            ))),
        }
    }
}

/// Converts a weighted dataset into protocol rows + weights.
pub fn dataset_to_rows(data: &Dataset) -> (Vec<Vec<f64>>, Vec<f64>) {
    let rows = data.points().iter().map(<[f64]>::to_vec).collect();
    (rows, data.weights().to_vec())
}

/// Builds a weighted dataset from protocol rows (+ optional weights).
pub fn rows_to_dataset(
    points: &[Vec<f64>],
    weights: Option<&[f64]>,
) -> Result<Dataset, ProtocolError> {
    let pts = Points::from_rows(points)
        .map_err(|e| ProtocolError::new(format!("invalid points: {e:?}")))?;
    match weights {
        None => Ok(Dataset::unweighted(pts)),
        Some(w) => Dataset::weighted(pts, w.to_vec())
            .map_err(|e| ProtocolError::new(format!("invalid weights: {e:?}"))),
    }
}

/// Builds a center store from protocol rows.
pub fn rows_to_points(rows: &[Vec<f64>]) -> Result<Points, ProtocolError> {
    Points::from_rows(rows).map_err(|e| ProtocolError::new(format!("invalid centers: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = req.to_json();
        assert!(
            !line.contains('\n'),
            "requests must be single lines: {line}"
        );
        assert_eq!(Request::from_json(&line).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let line = resp.to_json();
        assert!(
            !line.contains('\n'),
            "responses must be single lines: {line}"
        );
        assert_eq!(Response::from_json(&line).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            proto: BINARY_PROTO.into(),
        });
        round_trip_request(Request::Ingest {
            dataset: "d".into(),
            block: PointBlock::new(vec![0.0, 1.5, -2.25, 3.0], 2, Some(vec![1.0, 2.5])).unwrap(),
            plan: None,
            ident: None,
            epoch: None,
        });
        round_trip_request(Request::Ingest {
            dataset: "d".into(),
            block: PointBlock::new(vec![0.5], 1, None).unwrap(),
            plan: None,
            ident: Some(IngestIdent {
                client: "producer-a".into(),
                seq: 42,
            }),
            epoch: Some(3),
        });
        round_trip_request(Request::Ingest {
            dataset: "d".into(),
            block: PointBlock::new(vec![0.5, 1.0], 2, None).unwrap(),
            plan: Some(
                fc_core::plan::PlanBuilder::new(3)
                    .m_scalar(15)
                    .kind(CostKind::KMedian)
                    .method("merge-reduce(lightweight)".parse().unwrap())
                    .solver(Solver::KMedianWeiszfeld)
                    .compaction_budget(900)
                    .build()
                    .unwrap(),
            ),
            ident: None,
            epoch: None,
        });
        round_trip_request(Request::Compress {
            dataset: "a/b c".into(),
            method: None,
            seed: Some(7),
        });
        round_trip_request(Request::Compress {
            dataset: "x".into(),
            method: Some("merge-reduce(welterweight(log-k))".parse().unwrap()),
            seed: None,
        });
        round_trip_request(Request::Cluster {
            dataset: "d".into(),
            k: Some(4),
            kind: Some(CostKind::KMedian),
            solver: Some(Solver::KMedianWeiszfeld),
            seed: Some(99),
        });
        round_trip_request(Request::Cluster {
            dataset: "d".into(),
            k: None,
            kind: None,
            solver: None,
            seed: None,
        });
        round_trip_request(Request::Cost {
            dataset: "d".into(),
            centers: vec![vec![1.0, 2.0]],
            kind: Some(CostKind::KMeans),
        });
        round_trip_request(Request::Stats { dataset: None });
        round_trip_request(Request::Stats {
            dataset: Some("d".into()),
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::DropDataset {
            dataset: "d".into(),
        });
        round_trip_request(Request::AddNode {
            addr: "127.0.0.1:4801".into(),
            capacity: Some(2.5),
        });
        round_trip_request(Request::AddNode {
            addr: "127.0.0.1:4801".into(),
            capacity: None,
        });
        round_trip_request(Request::DrainNode {
            addr: "127.0.0.1:4801".into(),
        });
    }

    #[test]
    fn ingest_idents_are_paired_and_optional() {
        // A lone `client` or lone `seq` is a protocol error.
        for line in [
            r#"{"op":"ingest","dataset":"d","points":[[1]],"client":"c"}"#,
            r#"{"op":"ingest","dataset":"d","points":[[1]],"seq":3}"#,
        ] {
            let err = Request::from_json(line).expect_err(line);
            assert!(err.message.contains("sent together"), "{}", err.message);
        }
        // Old decoders never looked at these keys, so idented ingests
        // stay parseable as plain ones — that is what keeps the fields
        // backward-compatible on JSON.
        let line = r#"{"op":"ingest","dataset":"d","points":[[1]],"client":"c","seq":3,"epoch":9}"#;
        match Request::from_json(line).unwrap() {
            Request::Ingest { ident, epoch, .. } => {
                assert_eq!(
                    ident,
                    Some(IngestIdent {
                        client: "c".into(),
                        seq: 3
                    })
                );
                assert_eq!(epoch, Some(9));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_ids_round_trip_and_stay_optional() {
        let req = Request::Stats { dataset: None };
        let line = req.to_json_with_trace(Some("abc123"));
        assert!(line.contains("\"trace\":\"abc123\""), "{line}");
        let (decoded, trace) = Request::from_json_with_trace(&line).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(trace.as_deref(), Some("abc123"));
        // Absent and null traces both decode as None; plain from_json
        // drops the id without complaint (old-server behaviour).
        let (_, trace) = Request::from_json_with_trace(&req.to_json()).unwrap();
        assert_eq!(trace, None);
        let (_, trace) = Request::from_json_with_trace(r#"{"op":"stats","trace":null}"#).unwrap();
        assert_eq!(trace, None);
        assert_eq!(Request::from_json(&line).unwrap(), req);
        // Every op accepts a trace, not just stats.
        let traced = Request::Metrics.to_json_with_trace(Some("x"));
        assert_eq!(
            Request::from_json_with_trace(&traced).unwrap().1.as_deref(),
            Some("x")
        );
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Hello {
            proto: BINARY_PROTO.into(),
        });
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
            points: vec![vec![0.125, -4.0]],
            weights: vec![17.25],
            method: Method::FastCoreset,
            seed: 3,
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
        round_trip_response(Response::Cost {
            dataset: "d".into(),
            cost: 0.0625,
            kind: CostKind::KMedian,
            coreset_points: 10,
        });
        round_trip_response(Response::Stats {
            datasets: vec![DatasetStats {
                dataset: "d".into(),
                dim: 3,
                plan: fc_core::plan::PlanBuilder::new(4)
                    .m_scalar(25)
                    .build()
                    .unwrap(),
                shards: 4,
                ingested_points: 1000,
                ingested_weight: 1000.0,
                stored_points: 320,
                summaries_per_shard: vec![2, 1, 3, 1],
                queue_depth_per_shard: vec![0, 4, 0, 1],
                state_epoch: (3, 1000),
                recovering: false,
                nodes: Vec::new(),
            }],
            server: Some(ServerStats {
                uptime_secs: 86_400,
                ingested_points: 1 << 41,
                ingested_blocks: 1 << 21,
                queries: 42,
                fleet_epoch: 0,
                cache_hits: 12,
                cache_misses: 30,
            }),
        });
        // Coordinator stats carry per-node identity and health.
        round_trip_response(Response::Stats {
            datasets: vec![DatasetStats {
                dataset: "d".into(),
                dim: 2,
                plan: fc_core::plan::PlanBuilder::new(2).build().unwrap(),
                shards: 4,
                ingested_points: 10,
                ingested_weight: 10.0,
                stored_points: 10,
                summaries_per_shard: vec![1, 1, 1, 1],
                queue_depth_per_shard: vec![0, 0, 0, 0],
                state_epoch: (0, 0),
                recovering: true,
                nodes: vec![
                    NodeStats {
                        node: "127.0.0.1:4777".into(),
                        health: NodeHealth::Alive,
                        last_error: None,
                        shards: 2,
                        ingested_points: 6,
                        ingested_weight: 6.0,
                        stored_points: 6,
                    },
                    NodeStats {
                        node: "127.0.0.1:4778".into(),
                        health: NodeHealth::Recovering,
                        last_error: None,
                        shards: 2,
                        ingested_points: 4,
                        ingested_weight: 4.0,
                        stored_points: 4,
                    },
                    NodeStats {
                        node: "127.0.0.1:4779".into(),
                        health: NodeHealth::Down,
                        last_error: Some("connect: refused".into()),
                        shards: 0,
                        ingested_points: 0,
                        ingested_weight: 0.0,
                        stored_points: 0,
                    },
                ],
            }],
            server: None,
        });
        round_trip_response(Response::Dropped {
            dataset: "d".into(),
        });
        // Coordinators report their fleet epoch; plain servers omit it.
        round_trip_response(Response::Stats {
            datasets: Vec::new(),
            server: Some(ServerStats {
                uptime_secs: 10,
                ingested_points: 0,
                ingested_blocks: 0,
                queries: 0,
                fleet_epoch: 17,
                cache_hits: 0,
                cache_misses: 0,
            }),
        });
        round_trip_response(Response::FleetUpdated {
            epoch: 4,
            nodes: 3,
            migrated: 2,
        });
        round_trip_response(Response::Metrics {
            metrics: json::parse(r#"{"counters":{"fc_requests_total":7},"traces":[]}"#).unwrap(),
        });
        round_trip_response(Response::Error {
            message: "no such dataset \"x\"".into(),
            code: None,
        });
        round_trip_response(Response::Error {
            message: "shard 2 is overloaded".into(),
            code: Some(ErrorCode::Overloaded),
        });
        round_trip_response(Response::Error {
            message: "connection limit reached".into(),
            code: Some(ErrorCode::Unavailable),
        });
        round_trip_response(Response::Error {
            message: "request waited 120ms, deadline 100ms".into(),
            code: Some(ErrorCode::DeadlineExceeded),
        });
        round_trip_response(Response::Error {
            message: "fleet epoch is 5, request carried 3".into(),
            code: Some(ErrorCode::WrongEpoch),
        });
        round_trip_response(Response::Error {
            message: "internal error: the request panicked: boom".into(),
            code: Some(ErrorCode::Internal),
        });
        // Unknown codes from newer servers decode as None, not an error.
        match Response::from_json(r#"{"kind":"error","message":"m","code":"quota"}"#).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        let cases = [
            ("not json at all", "invalid JSON"),
            ("[1,2]", "request must be a JSON object"),
            ("{}", "missing required field `op`"),
            (r#"{"op":"fly"}"#, "unknown op"),
            (r#"{"op":"hello"}"#, "missing required field `proto`"),
            (
                r#"{"op":"ingest","dataset":"d"}"#,
                "missing required field `points`",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[]}"#,
                "must be non-empty",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[[1],[2,3]]}"#,
                "coordinates",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[["a"]]}"#,
                "non-numeric",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[[1]],"weights":[1,2]}"#,
                "2 weights for 1 points",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[[1]],"weights":[-1]}"#,
                "non-negative",
            ),
            (
                r#"{"op":"cluster","dataset":"d","k":0}"#,
                "positive integer",
            ),
            (
                r#"{"op":"cluster","dataset":"d","k":2.5}"#,
                "positive integer",
            ),
            (
                r#"{"op":"cluster","dataset":"d","kind":"fuzzy"}"#,
                "unknown kind",
            ),
            (
                r#"{"op":"cluster","dataset":"d","solver":"simplex"}"#,
                "unknown solver",
            ),
            (
                r#"{"op":"cluster","dataset":"d","solver":7}"#,
                "`solver` must be a string",
            ),
            (
                r#"{"op":"compress","dataset":"d","method":"zip"}"#,
                "unknown method",
            ),
            (
                r#"{"op":"compress","dataset":"d","method":[1]}"#,
                "`method` must be a string",
            ),
            (
                r#"{"op":"cluster","dataset":"d","seed":-4}"#,
                "`seed` must be",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[[1]],"plan":{"k":0}}"#,
                "invalid `plan`",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[[1]],"plan":{"k":2,"method":"zip"}}"#,
                "unknown method",
            ),
            (
                r#"{"op":"ingest","dataset":"d","points":[[1]],"plan":7}"#,
                "must be a JSON object",
            ),
            (
                r#"{"op":"cost","dataset":"d"}"#,
                "missing required field `centers`",
            ),
            (r#"{"op":"compress"}"#, "missing required field `dataset`"),
            (
                r#"{"op":"ingest","dataset":7,"points":[[1]]}"#,
                "`dataset` must be a string",
            ),
            (r#"{"op":"stats","trace":7}"#, "`trace` must be a string"),
        ];
        for (line, needle) in cases {
            let err = Request::from_json(line).expect_err(line);
            assert!(
                err.message.contains(needle),
                "error for `{line}` was `{}`, expected to contain `{needle}`",
                err.message
            );
        }
    }

    #[test]
    fn dataset_conversion_round_trips() {
        let d = rows_to_dataset(&[vec![1.0, 2.0], vec![3.0, 4.0]], Some(&[2.0, 3.0])).unwrap();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.total_weight(), 5.0);
        let (rows, weights) = dataset_to_rows(&d);
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(weights, vec![2.0, 3.0]);
        assert!(rows_to_dataset(&[vec![1.0], vec![2.0]], Some(&[1.0])).is_err());
    }
}
