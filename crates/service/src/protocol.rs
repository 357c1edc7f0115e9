//! The service's wire protocol: the request and response types, each
//! op's one field list (`encode` / `decode`, which both dialects read and
//! write through [`crate::wire`]'s field vocabulary), and JSON lines.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated.
//! Every request is an object with an `"op"` discriminator:
//!
//! ```text
//! {"op":"ingest","dataset":"d","points":[[0,0],[1,1]],"weights":[1,2]}
//! {"op":"ingest","dataset":"e","points":[[2,2]],"plan":{"k":4,"kind":"kmedian","method":"bico"}}
//! {"op":"compress","dataset":"d","method":"fast-coreset","seed":7}
//! {"op":"cluster","dataset":"d","k":4,"kind":"kmeans","solver":"lloyd","seed":7}
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
//! method, and compaction budget. `stats` reports each dataset's
//! effective plan in the same form. The one solver is `lloyd`: a plan or
//! `cluster` may still name it (or a retired spelling such as
//! `local-search`), and answers always write `"solver":"lloyd"`.
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

use crate::json::{self, Value};
use crate::wire::{self, Decoder, Encoder, Object, Record};
use fc_clustering::{CostKind, Solver};
use fc_core::plan::{Method, Plan};
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
        /// Solver name, parsed with the library's `FromStr`: `"lloyd"` or
        /// a retired spelling of it. Every value solves the same way.
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
    /// each component the sum across shards. A spread coordinator sums
    /// it across nodes too; a replicated one takes each component's max
    /// across replicas, which hold the same data. Both components only
    /// grow: a restart recovers the persisted state and replays forward,
    /// never backward. `(0, 0)` on an engine running without persistence.
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
        /// The solve step's name, always `lloyd`.
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

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_with_trace(None)
    }

    /// Encodes the request with an optional `trace` request id attached.
    /// Old servers ignore the field; new ones record the id in their
    /// recent-trace ring.
    pub fn to_json_with_trace(&self, trace: Option<&str>) -> String {
        let mut obj = Object::default();
        obj.field("op", &self.op_name().to_owned());
        self.encode(trace, &mut obj);
        obj.into_line()
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

    /// Decodes one request line.
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        Ok(Self::from_json_with_trace(line)?.0)
    }

    /// Decodes one request line together with its optional `trace`
    /// request id.
    pub fn from_json_with_trace(line: &str) -> Result<(Self, Option<String>), ProtocolError> {
        wire::read_line(line, |d| {
            if !d.is_object() {
                return Err(ProtocolError::new("request must be a JSON object"));
            }
            let op: String = d.field("op")?;
            Self::decode(&op, d)
        })
    }

    /// Writes the request's fields, `trace` first, in either dialect.
    pub(crate) fn encode(&self, trace: Option<&str>, e: &mut impl Encoder) {
        e.optional("trace", trace.map(str::to_owned).as_ref());
        match self {
            Request::Hello { proto } => e.field("proto", proto),
            Request::Ingest {
                dataset,
                block,
                plan,
                ident,
                epoch,
            } => {
                e.field("dataset", dataset);
                e.field("points", block);
                e.optional("plan", plan.as_ref());
                e.optional("client", ident.as_ref().map(|i| &i.client));
                e.optional("seq", ident.as_ref().map(|i| &i.seq));
                e.optional("epoch", epoch.as_ref());
            }
            Request::Compress {
                dataset,
                method,
                seed,
            } => {
                e.field("dataset", dataset);
                e.optional("method", method.as_ref());
                e.optional("seed", seed.as_ref());
            }
            Request::Cluster {
                dataset,
                k,
                kind,
                solver,
                seed,
            } => {
                e.field("dataset", dataset);
                e.optional("k", k.as_ref());
                e.optional("kind", kind.as_ref());
                e.optional("solver", solver.as_ref());
                e.optional("seed", seed.as_ref());
            }
            Request::Cost {
                dataset,
                centers,
                kind,
            } => {
                e.field("dataset", dataset);
                e.field("centers", centers);
                e.optional("kind", kind.as_ref());
            }
            Request::Stats { dataset } => e.optional("dataset", dataset.as_ref()),
            Request::Metrics => {}
            Request::DropDataset { dataset } => e.field("dataset", dataset),
            Request::AddNode { addr, capacity } => {
                e.field("addr", addr);
                e.optional("capacity", capacity.as_ref());
            }
            Request::DrainNode { addr } => e.field("addr", addr),
        }
    }

    /// Reads the fields of the `op` request, in the order
    /// [`Request::encode`] writes them, with its trace id.
    pub(crate) fn decode(
        op: &str,
        d: &mut impl Decoder,
    ) -> Result<(Self, Option<String>), ProtocolError> {
        let trace = d.optional("trace")?;
        let request = match op {
            "hello" => Request::Hello {
                proto: d.field("proto")?,
            },
            "ingest" => Request::Ingest {
                dataset: d.field("dataset")?,
                block: d.field("points")?,
                plan: d.optional("plan")?,
                ident: match (d.optional("client")?, d.optional("seq")?) {
                    (Some(client), Some(seq)) => Some(IngestIdent { client, seq }),
                    (None, None) => None,
                    _ => {
                        return Err(ProtocolError::new(
                            "`client` and `seq` must be sent together",
                        ))
                    }
                },
                epoch: d.optional("epoch")?,
            },
            "compress" => Request::Compress {
                dataset: d.field("dataset")?,
                method: d.optional("method")?,
                seed: d.optional("seed")?,
            },
            "cluster" => Request::Cluster {
                dataset: d.field("dataset")?,
                k: d.checked("k", "a positive integer", |&k: &usize| k > 0)?,
                kind: d.optional("kind")?,
                solver: d.optional("solver")?,
                seed: d.optional("seed")?,
            },
            "cost" => Request::Cost {
                dataset: d.field("dataset")?,
                centers: d.field("centers")?,
                kind: d.optional("kind")?,
            },
            "stats" => Request::Stats {
                dataset: d.optional("dataset")?,
            },
            "metrics" => Request::Metrics,
            "drop_dataset" => Request::DropDataset {
                dataset: d.field("dataset")?,
            },
            "add_node" => Request::AddNode {
                addr: d.field("addr")?,
                capacity: d.checked("capacity", "a non-negative number", |c: &f64| {
                    c.is_finite() && *c >= 0.0
                })?,
            },
            "drain_node" => Request::DrainNode {
                addr: d.field("addr")?,
            },
            other => return Err(ProtocolError::new(format!("unknown op `{other}`"))),
        };
        Ok((request, trace))
    }
}

impl Record for NodeStats {
    fn encode(&self, e: &mut impl Encoder) {
        e.field("node", &self.node);
        e.field("health", &self.health);
        e.optional("last_error", self.last_error.as_ref());
        e.field("shards", &self.shards);
        e.field("ingested_points", &self.ingested_points);
        e.field("ingested_weight", &self.ingested_weight);
        e.field("stored_points", &self.stored_points);
    }

    fn decode(d: &mut impl Decoder) -> Result<Self, ProtocolError> {
        Ok(NodeStats {
            node: d.field("node")?,
            health: d.field("health")?,
            last_error: d.optional("last_error")?,
            shards: d.field("shards")?,
            ingested_points: d.field("ingested_points")?,
            ingested_weight: d.field("ingested_weight")?,
            stored_points: d.field("stored_points")?,
        })
    }
}

impl Record for ServerStats {
    fn encode(&self, e: &mut impl Encoder) {
        e.field("uptime_secs", &self.uptime_secs);
        e.field("ingested_points", &self.ingested_points);
        e.field("ingested_blocks", &self.ingested_blocks);
        e.field("queries", &self.queries);
        e.defaulted("fleet_epoch", &self.fleet_epoch);
        e.defaulted("cache_hits", &self.cache_hits);
        e.defaulted("cache_misses", &self.cache_misses);
    }

    fn decode(d: &mut impl Decoder) -> Result<Self, ProtocolError> {
        Ok(ServerStats {
            uptime_secs: d.field("uptime_secs")?,
            ingested_points: d.field("ingested_points")?,
            ingested_blocks: d.field("ingested_blocks")?,
            queries: d.field("queries")?,
            fleet_epoch: d.defaulted("fleet_epoch")?,
            cache_hits: d.defaulted("cache_hits")?,
            cache_misses: d.defaulted("cache_misses")?,
        })
    }
}

impl Record for DatasetStats {
    fn encode(&self, e: &mut impl Encoder) {
        e.field("dataset", &self.dataset);
        e.field("dim", &self.dim);
        e.field("plan", &self.plan);
        e.field("shards", &self.shards);
        e.field("ingested_points", &self.ingested_points);
        e.field("ingested_weight", &self.ingested_weight);
        e.field("stored_points", &self.stored_points);
        e.field("summaries_per_shard", &self.summaries_per_shard);
        e.field("queue_depth_per_shard", &self.queue_depth_per_shard);
        e.field("state_epoch", &vec![self.state_epoch.0, self.state_epoch.1]);
        e.field("recovering", &self.recovering);
        e.defaulted("nodes", &self.nodes);
    }

    fn decode(d: &mut impl Decoder) -> Result<Self, ProtocolError> {
        Ok(DatasetStats {
            dataset: d.field("dataset")?,
            dim: d.field("dim")?,
            plan: d.field("plan")?,
            shards: d.field("shards")?,
            ingested_points: d.field("ingested_points")?,
            ingested_weight: d.field("ingested_weight")?,
            stored_points: d.field("stored_points")?,
            summaries_per_shard: d.field("summaries_per_shard")?,
            queue_depth_per_shard: d.field("queue_depth_per_shard")?,
            state_epoch: match d.field::<Vec<u64>>("state_epoch")?[..] {
                [snapshots, seqs] => (snapshots, seqs),
                _ => return Err(ProtocolError::new("`state_epoch` must be two integers")),
            },
            recovering: d.field("recovering")?,
            nodes: d.defaulted("nodes")?,
        })
    }
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut obj = Object::default();
        obj.field("ok", &!matches!(self, Response::Error { .. }));
        obj.field("kind", &self.kind().to_owned());
        self.encode(&mut obj);
        obj.into_line()
    }

    /// Decodes one response line.
    pub fn from_json(line: &str) -> Result<Self, ProtocolError> {
        wire::read_line(line, |d| {
            let kind: String = d.field("kind")?;
            Self::decode(&kind, d)
        })
    }

    /// The wire `kind` name.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Response::Hello { .. } => "hello",
            Response::Ingested { .. } => "ingested",
            Response::Coreset { .. } => "coreset",
            Response::Clustered { .. } => "clustered",
            Response::Cost { .. } => "cost",
            Response::Stats { .. } => "stats",
            Response::Metrics { .. } => "metrics",
            Response::Dropped { .. } => "dropped",
            Response::FleetUpdated { .. } => "fleet_updated",
            Response::Error { .. } => "error",
        }
    }

    /// Writes the response's fields in either dialect.
    pub(crate) fn encode(&self, e: &mut impl Encoder) {
        match self {
            Response::Hello { proto } => e.field("proto", proto),
            Response::Ingested {
                dataset,
                points,
                total_points,
                total_weight,
                duplicate,
            } => {
                e.field("dataset", dataset);
                e.field("points", points);
                e.field("total_points", total_points);
                e.field("total_weight", total_weight);
                e.defaulted("duplicate", duplicate);
            }
            Response::Coreset {
                dataset,
                points,
                weights,
                method,
                seed,
            } => {
                e.field("dataset", dataset);
                e.field("points", points);
                e.field("weights", weights);
                e.field("method", method);
                e.field("seed", seed);
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
                e.field("dataset", dataset);
                e.field("centers", centers);
                e.field("objective", kind);
                e.field("solver", solver);
                e.field("coreset_cost", coreset_cost);
                e.field("coreset_points", coreset_points);
                e.field("seed", seed);
            }
            Response::Cost {
                dataset,
                cost,
                kind,
                coreset_points,
            } => {
                e.field("dataset", dataset);
                e.field("cost", cost);
                e.field("objective", kind);
                e.field("coreset_points", coreset_points);
            }
            Response::Stats { datasets, server } => {
                e.field("datasets", datasets);
                e.optional("server", server.as_ref());
            }
            Response::Metrics { metrics } => e.field("metrics", metrics),
            Response::Dropped { dataset } => e.field("dataset", dataset),
            Response::FleetUpdated {
                epoch,
                nodes,
                migrated,
            } => {
                e.field("epoch", epoch);
                e.field("nodes", nodes);
                e.field("migrated", migrated);
            }
            Response::Error { message, code } => {
                e.field("message", message);
                e.optional("code", code.map(|c| c.name().to_owned()).as_ref());
            }
        }
    }

    /// Reads the fields of the `kind` response, in the order
    /// [`Response::encode`] writes them.
    pub(crate) fn decode(kind: &str, d: &mut impl Decoder) -> Result<Self, ProtocolError> {
        Ok(match kind {
            "hello" => Response::Hello {
                proto: d.field("proto")?,
            },
            "ingested" => Response::Ingested {
                dataset: d.field("dataset")?,
                points: d.field("points")?,
                total_points: d.field("total_points")?,
                total_weight: d.field("total_weight")?,
                duplicate: d.defaulted("duplicate")?,
            },
            "coreset" => Response::Coreset {
                dataset: d.field("dataset")?,
                points: d.field("points")?,
                weights: d.field("weights")?,
                method: d.field("method")?,
                seed: d.field("seed")?,
            },
            "clustered" => Response::Clustered {
                dataset: d.field("dataset")?,
                centers: d.field("centers")?,
                kind: d.field("objective")?,
                solver: d.field("solver")?,
                coreset_cost: d.field("coreset_cost")?,
                coreset_points: d.field("coreset_points")?,
                seed: d.field("seed")?,
            },
            "cost" => Response::Cost {
                dataset: d.field("dataset")?,
                cost: d.field("cost")?,
                kind: d.field("objective")?,
                coreset_points: d.field("coreset_points")?,
            },
            "stats" => Response::Stats {
                datasets: d.field("datasets")?,
                server: d.optional("server")?,
            },
            "metrics" => Response::Metrics {
                metrics: d.field("metrics")?,
            },
            "dropped" => Response::Dropped {
                dataset: d.field("dataset")?,
            },
            "fleet_updated" => Response::FleetUpdated {
                epoch: d.field("epoch")?,
                nodes: d.field("nodes")?,
                migrated: d.field("migrated")?,
            },
            "error" => Response::Error {
                message: d.field("message")?,
                code: d
                    .optional::<String>("code")?
                    .and_then(|name| ErrorCode::from_name(&name)),
            },
            other => {
                return Err(ProtocolError::new(format!(
                    "unknown response kind `{other}`"
                )))
            }
        })
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
