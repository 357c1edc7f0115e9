//! The serving engine: named datasets held as sharded streaming coresets,
//! each dataset running under its own effective [`Plan`].
//!
//! Each dataset owns `shards` worker threads. An ingest batch is admitted
//! by the shared [`crate::ingest`] path, logged, and queued to one shard
//! round-robin as one command. Everything a shard knows — its
//! [`fc_core::streaming::MergeReduce`] stream (at most one summary per
//! Bentley–Saxe level), the compaction under the plan's budget, the
//! coalescing buffer, its checkpoints and its replay — is one sans-I/O
//! `ShardState` (`shard.rs`); the worker thread here only drives it: it
//! feeds it commands, wakes at its coalescing deadline, writes its
//! checkpoints to the shard's log and publishes its gauges. Queries go
//! through the shared [`crate::query`] path; what the engine contributes
//! is its parts — each shard's stored summary, a valid coreset of the
//! blocks that shard folded — which that path unions and compresses down
//! to the serving size with a request-seeded RNG, so every served
//! compression and clustering is reproducible from `(state, seed)`.
//!
//! The compression *method* is the paper's settling-time/accuracy knob, so
//! it is a per-dataset choice, not a server-wide one: the first `ingest`
//! may carry a full [`Plan`] (k, m, objective, method, solver, compaction
//! budget) and the dataset's shard streams, serving compressions, and
//! query defaults are all built from it. [`EngineConfig`] supplies the
//! default plan for datasets that don't choose their own.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fc_clustering::solver::Solver;
use fc_clustering::{CostKind, Solution};
use fc_core::json::Value;
use fc_core::plan::{Method, Plan, PlanBuilder};
use fc_core::{Compressor, Coreset, FcError};
use fc_geom::{Dataset, Points};
use fc_persist::{
    dataset_dir, list_datasets, shard_dir, DatasetMeta, FsyncPolicy, LogOptions, PersistError,
    RecordMeta, ShardLog, WalRecord,
};
use fc_telemetry::{labeled, Counter, Histogram, Telemetry};

use crate::backend::IngestOutcome;
use crate::ingest::{Ledger, WritePath, WriteSink};
use crate::protocol::{DatasetStats, IngestIdent, ServerStats};
use crate::query::{QueryPath, QuerySource, QueryState};
use crate::shard::{Compactions, Restored, Rules, ShardState};

/// Engine configuration: sharding, the default per-dataset [`Plan`]
/// (serving size, method/solver selection), ingest coalescing, durability
/// and the query cache.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (= independent coreset streams) per dataset.
    pub shards: usize,
    /// Bounded per-shard command-queue depth, in wire batches: every
    /// acknowledged ingest batch is one command, whether or not the shard
    /// then coalesces it with others. A full queue rejects further ingests
    /// with [`EngineError::Overloaded`] instead of blocking the connection
    /// thread.
    pub shard_queue_depth: usize,
    /// Default number of clusters queries are served for.
    pub k: usize,
    /// Serving coreset size as a multiple of `k` (the paper's `m_scalar`,
    /// §5.2 default 40).
    pub m_scalar: usize,
    /// Default objective.
    pub kind: CostKind,
    /// Default compression method for shard streams and serving
    /// compressions — the same [`Method`] names the library and the wire
    /// protocol use.
    pub method: Method,
    /// Default refinement solver for `cluster` requests.
    pub solver: Solver,
    /// Per-shard stored-point budget; exceeding it triggers compaction of
    /// the shard's level stack. `None` derives `4 * k * m_scalar` (room for
    /// a few levels of summaries) from whatever `k`/`m_scalar` end up being,
    /// so struct-update overrides of those fields keep a sensible budget.
    pub compaction_budget: Option<usize>,
    /// Base of the deterministic seed sequence for requests that carry no
    /// explicit seed.
    pub base_seed: u64,
    /// Each shard coalesces the acknowledged ingest batches it dequeues
    /// until this many points are pending, then folds them into its
    /// stream as one block. Small-batch write streams pay the per-block
    /// stream-fold cost once per coalesced block instead of once per wire
    /// batch. Zero (the default) disables the points trigger. Durability
    /// is unchanged: a batch is logged before it is queued.
    pub batch_points: usize,
    /// Age bound for a shard's coalescing buffer: the shard folds its
    /// pending rows once the oldest has waited this long — its thread
    /// wakes for it — so a stalling write stream cannot delay earlier
    /// acked data indefinitely. Zero disables the deadline (queries still
    /// fold pending rows first). Batching is active when either knob is
    /// non-zero.
    pub batch_delay: Duration,
    /// Durability: when set, every acknowledged ingest batch is written to
    /// a per-shard write-ahead log under `data_dir` before it is queued,
    /// shard summaries are snapshotted periodically, and `Engine::new` on
    /// the same directory recovers every dataset (newest snapshot + WAL
    /// tail replay). `None` (the default) keeps the engine purely
    /// in-memory.
    pub persist: Option<PersistConfig>,
    /// Capacity of the query result cache (see [`crate::query`]); `0`
    /// disables caching entirely.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            shard_queue_depth: 32,
            k: 8,
            m_scalar: 40,
            kind: CostKind::KMeans,
            method: Method::FastCoreset,
            solver: Solver::Lloyd,
            compaction_budget: None,
            base_seed: 0x0C0D_E5E7,
            batch_points: 0,
            batch_delay: Duration::ZERO,
            persist: None,
            cache_capacity: 64,
        }
    }
}

/// Durability configuration: where state lives on disk and how eagerly it
/// is flushed and snapshotted.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Root directory for all persisted state. Layout:
    /// `<data_dir>/datasets/ds-<hash>/{meta.json, shard-NNN/{wal-*.log, snap-*.snap}}`.
    pub data_dir: PathBuf,
    /// When WAL appends are fsynced. With [`FsyncPolicy::Always`] (the
    /// default) an acknowledged batch survives `kill -9`.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold, in bytes.
    pub segment_bytes: u64,
    /// Snapshot a shard after this many stream compactions since its last
    /// snapshot.
    pub snapshot_compactions: u32,
    /// Snapshot a shard once its WAL holds this many bytes past the last
    /// snapshot (replay debt bound).
    pub snapshot_bytes: u64,
    /// Artificial delay per replayed WAL record — testing hook to widen
    /// the observable `recovering` window; zero (the default) in
    /// production.
    pub replay_throttle: Duration,
}

impl PersistConfig {
    /// Durable-by-default settings under `data_dir`: fsync every append,
    /// 8 MiB segments, snapshot after 4 compactions or 32 MiB of WAL.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            segment_bytes: 8 << 20,
            snapshot_compactions: 4,
            snapshot_bytes: 32 << 20,
            replay_throttle: Duration::ZERO,
        }
    }

    fn log_options(&self) -> LogOptions {
        LogOptions {
            fsync: self.fsync,
            segment_bytes: self.segment_bytes,
        }
    }
}

impl EngineConfig {
    /// The engine-wide default [`Plan`]: what a dataset runs under when its
    /// creating `ingest` carried no plan of its own.
    pub fn default_plan(&self) -> Result<Plan, FcError> {
        let mut builder = PlanBuilder::new(self.k)
            .m_scalar(self.m_scalar)
            .kind(self.kind)
            .method(self.method)
            .solver(self.solver);
        if let Some(budget) = self.compaction_budget {
            builder = builder.compaction_budget(budget);
        }
        builder.build()
    }

    /// The effective per-shard compaction budget of the default plan —
    /// one rule, owned by [`Plan::effective_budget`]. Errors exactly when
    /// [`Self::default_plan`] does.
    pub fn effective_budget(&self) -> Result<usize, FcError> {
        Ok(self.default_plan()?.effective_budget())
    }
}

/// Errors surfaced to protocol clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The named dataset does not exist.
    UnknownDataset(String),
    /// The dataset exists but no shard has processed a block yet, so there
    /// is nothing to serve. Transient: ingest acknowledgement precedes
    /// shard processing.
    NoData {
        /// The dataset with nothing to serve.
        dataset: String,
    },
    /// A batch's dimensionality conflicts with the dataset's.
    DimensionMismatch {
        /// The dataset's dimension.
        expected: usize,
        /// The offending input's dimension.
        got: usize,
    },
    /// A request parameter was rejected.
    InvalidArgument(String),
    /// A plan/solver-level validation failure, in the library's shared
    /// error vocabulary.
    Invalid(FcError),
    /// A shard's bounded ingest queue is full: the batch was rejected
    /// instead of blocking the caller. Back off and retry.
    Overloaded {
        /// The dataset whose shard is saturated.
        dataset: String,
        /// The saturated shard's index.
        shard: usize,
    },
    /// A remote backend node failed (coordinator deployments).
    Remote {
        /// The failing node's identity (its address).
        node: String,
        /// What the node (or the socket to it) reported.
        message: String,
    },
    /// The durability layer failed (WAL append, snapshot, or recovery
    /// I/O). The batch was *not* acknowledged: durability errors refuse
    /// writes rather than silently dropping the guarantee.
    Persist(String),
    /// The request asserted a fleet placement epoch older than the
    /// backend's current one (coordinator deployments): the client routed
    /// under a stale `FleetMap` and must refresh it before retrying.
    WrongEpoch {
        /// The epoch the request carried.
        requested: u64,
        /// The backend's current fleet epoch.
        current: u64,
    },
    /// The engine is shutting down (or a shard died).
    Unavailable,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDataset(name) => write!(f, "no such dataset `{name}`"),
            EngineError::NoData { dataset } => {
                write!(f, "dataset `{dataset}` holds no data yet")
            }
            EngineError::Remote { node, message } => {
                write!(f, "node `{node}`: {message}")
            }
            EngineError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: dataset holds {expected}-d points, got {got}-d"
                )
            }
            EngineError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            EngineError::Invalid(e) => write!(f, "{e}"),
            EngineError::Overloaded { dataset, shard } => {
                write!(
                    f,
                    "dataset `{dataset}` is overloaded: shard {shard}'s ingest \
                     queue is full, back off and retry"
                )
            }
            EngineError::Persist(msg) => write!(f, "persistence failure: {msg}"),
            EngineError::WrongEpoch { requested, current } => {
                write!(
                    f,
                    "fleet epoch is {current}, request carried {requested}; \
                     refresh the fleet map and retry"
                )
            }
            EngineError::Unavailable => write!(f, "engine unavailable"),
        }
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> Self {
        EngineError::Persist(e.to_string())
    }
}

impl std::error::Error for EngineError {}

impl From<FcError> for EngineError {
    fn from(e: FcError) -> Self {
        EngineError::Invalid(e)
    }
}

impl From<fc_clustering::SolverError> for EngineError {
    fn from(e: fc_clustering::SolverError) -> Self {
        EngineError::Invalid(e.into())
    }
}

/// What a `cluster` call served.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// The solution computed on the served coreset.
    pub solution: Solution,
    /// Objective clustered under.
    pub kind: CostKind,
    /// Solver that refined the solution.
    pub solver: Solver,
    /// Size of the coreset the solve ran on.
    pub coreset_points: usize,
    /// The seed that produced this result.
    pub seed: u64,
}

enum ShardCmd {
    /// One acknowledged wire batch.
    Ingest {
        block: Dataset,
        /// The batch's WAL sequence number; `0` on a non-persistent
        /// engine.
        seq: u64,
        /// The exactly-once identity the batch was ingested under, if
        /// any. The shard max-merges it into its table when the batch
        /// folds, so the next checkpoint covers exactly what it applied.
        client: Option<(String, u64)>,
    },
    Snapshot(SyncSender<Option<Coreset>>),
    Shutdown {
        /// Flush the WAL and install a final snapshot before exiting
        /// (graceful shutdown); `false` on dataset drops, whose on-disk
        /// state is purged anyway.
        finalize: bool,
    },
}

#[derive(Debug, Clone, Copy)]
struct ShardStats {
    summaries: usize,
    stored_points: usize,
    queue_depth: usize,
}

/// Stream gauges the worker publishes after every command, so stats never
/// have to queue behind the worker — in particular not behind a WAL
/// replay, during which `recovering` must stay observable.
#[derive(Default)]
struct ShardGauges {
    summaries: AtomicUsize,
    stored_points: AtomicUsize,
}

impl ShardGauges {
    fn publish(&self, state: &ShardState) {
        self.summaries.store(state.summaries(), Ordering::Relaxed);
        self.stored_points
            .store(state.stored_points(), Ordering::Relaxed);
    }
}

/// The durable half of one shard, shared between the ingest path (which
/// appends under the log mutex before queueing), the worker (which
/// advances `applied_seq` and installs snapshots), and the stats path
/// (which reads both without touching the worker).
struct ShardPersist {
    log: Mutex<ShardLog>,
    /// Highest WAL sequence the worker has applied to its stream.
    applied_seq: AtomicU64,
    /// The durable sequence on disk at boot — what the worker must replay
    /// up to before the shard has caught up with its own past. Fixed at
    /// open time, so `recovering` clears exactly once.
    target_seq: u64,
}

impl ShardPersist {
    fn recovering(&self) -> bool {
        self.applied_seq.load(Ordering::Acquire) < self.target_seq
    }

    fn log(&self) -> std::sync::MutexGuard<'_, ShardLog> {
        self.log.lock().expect("shard log lock is never poisoned")
    }

    /// Installs a checkpoint of everything `state` has folded — when
    /// `force`, or when its cadence says one is due. A failure degrades
    /// durability to WAL-only replay (the log keeps every record the
    /// checkpoint would have covered), so it is reported, not fatal.
    fn checkpoint(&self, state: &mut ShardState, force: bool) {
        let mut log = self.log();
        if !force && !state.checkpoint_due(log.bytes_since_snapshot()) {
            return;
        }
        let Some(snap) = state.checkpoint(log.next_snapshot_id()) else {
            return;
        };
        match log.install_snapshot(&snap) {
            Ok(()) => state.checkpointed(&snap),
            Err(e) => eprintln!("fc-shard: snapshot {} failed: {e}", snap.id),
        }
    }
}

/// What a worker needs to run its shard durably: the shared log state plus
/// the recovered WAL tail to replay before serving.
struct ShardDurability {
    shared: Arc<ShardPersist>,
    /// WAL records past the restored snapshot.
    tail: Vec<WalRecord>,
    replay_throttle: Duration,
}

struct Shard {
    sender: SyncSender<ShardCmd>,
    /// Commands sent but not yet fully processed by the worker — the
    /// observable backlog behind the configured queue depth. Incremented on
    /// send, decremented by the worker after it finishes each command, so
    /// a long-running compaction shows up as depth, not as idle.
    queue_depth: Arc<AtomicUsize>,
    gauges: Arc<ShardGauges>,
    join: Option<JoinHandle<()>>,
}

impl Shard {
    fn spawn(
        state: ShardState,
        queue_depth_bound: usize,
        durability: Option<ShardDurability>,
    ) -> Self {
        let (sender, receiver) = mpsc::sync_channel(queue_depth_bound);
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let gauges = Arc::new(ShardGauges::default());
        let worker_depth = Arc::clone(&queue_depth);
        let worker_gauges = Arc::clone(&gauges);
        let join = std::thread::Builder::new()
            .name("fc-shard".into())
            .spawn(move || shard_loop(receiver, worker_depth, worker_gauges, state, durability))
            .expect("spawning a shard worker thread succeeds");
        Shard {
            sender,
            queue_depth,
            gauges,
            join: Some(join),
        }
    }

    /// Queues one command, blocking while the queue is full (queries and
    /// shutdown: they must eventually run, and they are issued by readers
    /// that asked for the answer). Ingest traffic goes through
    /// [`Self::try_ingest`] instead, which refuses rather than blocks.
    fn send(&self, cmd: ShardCmd) -> Result<(), EngineError> {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.sender.send(cmd).map_err(|_| {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            EngineError::Unavailable
        })
    }

    /// Queues an ingest without blocking: a full queue is an error (the
    /// caller reports `overloaded` to the writer), not a pinned thread.
    fn try_ingest(
        &self,
        block: Dataset,
        seq: u64,
        client: Option<(String, u64)>,
    ) -> Result<(), TrySendError<ShardCmd>> {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.sender
            .try_send(ShardCmd::Ingest { block, seq, client })
            .inspect_err(|_| {
                self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            })
    }
}

/// Compaction telemetry a shard updates in place: the engine-wide and
/// per-dataset compaction counters plus the compaction latency histogram,
/// all shared with the engine's registry.
struct CompactionMetrics {
    total: Counter,
    dataset: Counter,
    seconds: Histogram,
}

impl Compactions for CompactionMetrics {
    fn run(&mut self, compact: &mut dyn FnMut()) {
        let started = Instant::now();
        compact();
        self.seconds.observe(started.elapsed());
        self.total.incr();
        self.dataset.incr();
    }
}

/// The shard thread, a driver around its [`ShardState`]: it replays the
/// WAL tail, then feeds the state one command at a time, waking at the
/// state's deadline to fold rows that have waited long enough. The state
/// knows everything; this loop owns the channel, the clock, the log and
/// the gauges.
fn shard_loop(
    receiver: Receiver<ShardCmd>,
    queue_depth: Arc<AtomicUsize>,
    gauges: Arc<ShardGauges>,
    mut state: ShardState,
    durability: Option<ShardDurability>,
) {
    // Recovery runs here, *before* the command loop: commands (including
    // new ingests, which append to the WAL first) simply queue behind the
    // replay, while the stats path watches the shared `applied_seq` climb
    // toward its boot-time target.
    gauges.publish(&state);
    let shared = durability.map(|d| {
        for rec in d.tail {
            if !d.replay_throttle.is_zero() {
                std::thread::sleep(d.replay_throttle);
            }
            state.replay(&rec);
            d.shared.applied_seq.store(rec.seq, Ordering::Release);
            gauges.publish(&state);
        }
        d.shared
    });
    let on_fold = |state: &mut ShardState| {
        if let Some(shared) = &shared {
            shared
                .applied_seq
                .store(state.applied_seq(), Ordering::Release);
            shared.checkpoint(state, false);
        }
    };
    loop {
        let next = match state.deadline() {
            None => receiver.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => receiver.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        let cmd = match next {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // A deadline wake, and anything but an ingest, folds the pending
        // rows: a query's snapshot and the final checkpoint cover every
        // acknowledged batch.
        let did_fold = match &cmd {
            Some(ShardCmd::Ingest { block, seq, client }) => {
                state.push(block, *seq, client.as_ref(), Instant::now())
            }
            _ => state.flush(),
        };
        if did_fold {
            on_fold(&mut state);
        }
        gauges.publish(&state);
        let stop = match cmd {
            None => continue,
            Some(ShardCmd::Ingest { .. }) => false,
            Some(ShardCmd::Snapshot(reply)) => {
                let _ = reply.send(state.snapshot());
                false
            }
            Some(ShardCmd::Shutdown { finalize }) => {
                if let Some(shared) = shared.as_ref().filter(|_| finalize) {
                    shared.checkpoint(&mut state, true);
                    if let Err(e) = shared.log().sync() {
                        eprintln!("fc-shard: final WAL sync failed: {e}");
                    }
                }
                true
            }
        };
        queue_depth.fetch_sub(1, Ordering::Relaxed);
        if stop {
            break;
        }
    }
}

/// A dataset's durable state: one [`ShardPersist`] per shard plus the
/// dataset directory (deleted on drop).
struct DatasetPersist {
    dir: PathBuf,
    shards: Vec<Arc<ShardPersist>>,
}

struct DatasetEntry {
    /// What [`crate::ingest`] records about the dataset's writes. Shard
    /// streams, serving compressions and query defaults all derive from
    /// its plan and its compressor.
    ledger: Ledger,
    shards: Vec<Shard>,
    /// `Some` on persistent engines. The shard workers keep the durable
    /// halves of the ledger's watermarks (their snapshot tables plus WAL
    /// record metas), from which it is rebuilt on recovery.
    persist: Option<DatasetPersist>,
    /// `fc_overloaded_total{dataset=…}`, a cached handle into the engine
    /// registry.
    overloads: Counter,
}

impl AsRef<Ledger> for DatasetEntry {
    fn as_ref(&self) -> &Ledger {
        &self.ledger
    }
}

impl DatasetEntry {
    /// Per-shard gauges, read lock-free from the sender side: a stats
    /// request never queues behind the worker, so `recovering` and queue
    /// depths stay observable while a shard is mid-replay or compacting.
    fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                summaries: shard.gauges.summaries.load(Ordering::Relaxed),
                stored_points: shard.gauges.stored_points.load(Ordering::Relaxed),
                queue_depth: shard.queue_depth.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn stats(&self, name: &str) -> DatasetStats {
        let shard_stats = self.shard_stats();
        let (ingested_points, ingested_weight) = self.ledger.totals();
        DatasetStats {
            dataset: name.to_owned(),
            dim: self.ledger.dim(),
            plan: self.ledger.plan().clone(),
            shards: self.shards.len(),
            ingested_points,
            ingested_weight,
            stored_points: shard_stats.iter().map(|s| s.stored_points).sum(),
            summaries_per_shard: shard_stats.iter().map(|s| s.summaries).collect(),
            queue_depth_per_shard: shard_stats.iter().map(|s| s.queue_depth).collect(),
            state_epoch: self.state_epoch(),
            recovering: self.recovering(),
            // A single engine is one node; the per-node breakdown belongs
            // to coordinators.
            nodes: Vec::new(),
        }
    }

    /// The dataset's durable-state epoch: `(Σ shard snapshot ids, Σ shard
    /// applied seqs)`. Snapshot ids and sequence numbers only grow, so
    /// the pair is monotonic across restarts — a coordinator can compare
    /// epochs from before and after a node bounce.
    fn state_epoch(&self) -> (u64, u64) {
        match &self.persist {
            None => (0, 0),
            Some(p) => p.shards.iter().fold((0, 0), |(ids, seqs), shard| {
                let id = shard.log().last_snapshot_id();
                (ids + id, seqs + shard.applied_seq.load(Ordering::Acquire))
            }),
        }
    }

    /// Whether any shard is still replaying its WAL toward the durable
    /// state it had before the restart.
    fn recovering(&self) -> bool {
        self.persist
            .as_ref()
            .is_some_and(|p| p.shards.iter().any(|s| s.recovering()))
    }

    /// Every shard's summary, in shard order; each shard folds its pending
    /// rows first, so the snapshots cover everything acknowledged so far.
    fn snapshots(&self) -> Result<Vec<Coreset>, EngineError> {
        let mut receivers = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (tx, rx) = mpsc::sync_channel(1);
            shard.send(ShardCmd::Snapshot(tx))?;
            receivers.push(rx);
        }
        let mut out = Vec::new();
        for rx in receivers {
            if let Some(c) = rx.recv().map_err(|_| EngineError::Unavailable)? {
                out.push(c);
            }
        }
        Ok(out)
    }
}

/// The long-lived serving engine. Thread-safe: server connections share one
/// engine behind an `Arc`.
//
// Debug prints the configuration; dataset state is deliberately omitted
// (it would require pausing the shards).
pub struct Engine {
    config: EngineConfig,
    /// Ingest admission and the registry of live datasets, delivering
    /// into [`Shards`].
    write: WritePath<DatasetEntry>,
    /// Invoked as `(dataset, shard)` after each shard worker is joined
    /// during graceful engine shutdown, in dataset-name then shard order.
    drain_hook: Mutex<Option<DrainHook>>,
    /// The observability surface shared with the server loop in front of
    /// this engine.
    telemetry: Arc<Telemetry>,
    /// `fc_overloaded_total`, engine-wide.
    overloads: Counter,
    /// `coreset` / `cluster` / `cost`, answered on [`Shards`].
    query: QueryPath,
}

/// The ordered shard-drain callback installed with
/// [`Engine::set_drain_hook`].
pub type DrainHook = Box<dyn Fn(&str, usize) + Send + Sync>;

impl Engine {
    /// An engine compressing with the configured [`Method`] (the paper's
    /// Fast-Coreset pipeline by default). Rejects invalid configurations —
    /// zero shards, a zero queue depth, `k = 0`, `m_scalar = 0`, or a
    /// default solver that cannot refine under the default objective —
    /// instead of panicking.
    pub fn new(config: EngineConfig) -> Result<Self, EngineError> {
        let compressor: Arc<dyn Compressor> = Arc::from(config.method.build());
        Self::with_compressor(config, compressor)
    }

    /// An engine whose *default-plan* datasets use a custom compressor
    /// (tests use cheap samplers); `config.method` is kept for reporting
    /// but not built. Datasets created under an explicit per-dataset plan
    /// always build that plan's method.
    pub fn with_compressor(
        config: EngineConfig,
        compressor: Arc<dyn Compressor>,
    ) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::InvalidArgument(
                "need at least one shard".into(),
            ));
        }
        if config.shard_queue_depth == 0 {
            return Err(EngineError::InvalidArgument(
                "shard queue depth must be at least 1".into(),
            ));
        }
        // Validates k ≥ 1, m = m_scalar·k ≥ k (no overflow), and that the
        // default solver supports the default objective.
        let default_plan = config.default_plan()?;
        let telemetry = Arc::new(Telemetry::new());
        let write = WritePath::new(Arc::clone(&telemetry), default_plan, compressor);
        let query = QueryPath::new(&telemetry.registry, config.cache_capacity, config.base_seed);
        let engine = Self {
            config,
            write,
            query,
            drain_hook: Mutex::new(None),
            overloads: telemetry.registry.counter("fc_overloaded_total"),
            telemetry,
        };
        engine.recover_datasets()?;
        Ok(engine)
    }

    /// Installs the ordered shard-drain callback: on graceful shutdown
    /// (engine drop) it is invoked as `(dataset, shard)` after each shard
    /// worker has drained its queue, finalized its durable state, and
    /// been joined — datasets in name order, shards in index order.
    pub fn set_drain_hook(&self, hook: impl Fn(&str, usize) + Send + Sync + 'static) {
        *self
            .drain_hook
            .lock()
            .expect("drain hook lock is never poisoned") = Some(Box::new(hook));
    }

    /// Reopens every dataset found under the configured data directory,
    /// so construction stays fast and the engine serves (with
    /// `recovering` reported) while the shard workers catch up.
    fn recover_datasets(&self) -> Result<(), EngineError> {
        let Some(pc) = &self.config.persist else {
            return Ok(());
        };
        for (dir, meta) in list_datasets(&pc.data_dir)? {
            let ledger = self.write.ledger(&meta.name, meta.dim, meta.plan);
            let entry = self.open_dataset(&meta.name, ledger, meta.shards, Some(dir))?;
            self.write.adopt(meta.name, entry);
        }
        Ok(())
    }

    /// Builds a dataset around its ledger: `shards` workers and — when
    /// `dir` is given — their logs, each reinstalling its newest valid
    /// snapshot and queueing its WAL tail for replay on the worker
    /// thread. Creating a dataset is recovering an empty directory.
    fn open_dataset(
        &self,
        name: &str,
        ledger: Ledger,
        shards: usize,
        dir: Option<PathBuf>,
    ) -> Result<DatasetEntry, EngineError> {
        let registry = &self.telemetry.registry;
        let persist = self.config.persist.as_ref();
        let rules = Rules {
            batch_points: self.config.batch_points,
            batch_delay: self.config.batch_delay,
            snapshot_compactions: persist.map_or(0, |pc| pc.snapshot_compactions),
            snapshot_bytes: persist.map_or(0, |pc| pc.snapshot_bytes),
        };
        let mut workers = Vec::with_capacity(shards);
        let mut logs = Vec::new();
        // Totals and the exactly-once watermark are rebuilt from every
        // shard's snapshot and tail records, so a replayed duplicate is
        // refused just like a live one.
        let mut restored = Restored::default();
        for s in 0..shards {
            let mut state = ShardState::new(
                Arc::clone(ledger.compressor()),
                ledger.plan(),
                ledger.dim(),
                self.shard_seed(name, s),
                rules,
                Box::new(CompactionMetrics {
                    total: registry.counter("fc_compactions_total"),
                    dataset: registry
                        .counter(&labeled("fc_compactions_total", &[("dataset", name)])),
                    seconds: registry.histogram("fc_compaction_seconds"),
                }),
            );
            let durability = match persist.zip(dir.as_ref()) {
                None => None,
                Some((pc, dir)) => {
                    let path = shard_dir(dir, s);
                    let (log, recovered) = ShardLog::open(&path, pc.log_options())?;
                    let target_seq = recovered.durable_seq();
                    if let Err(got) =
                        state.restore(recovered.snapshot, &recovered.tail, &mut restored)
                    {
                        let message = format!(
                            "holds {got}-d points, but the dataset is {}-d",
                            ledger.dim()
                        );
                        return Err(PersistError::Corrupt { path, message }.into());
                    }
                    let shared = Arc::new(ShardPersist {
                        log: Mutex::new(log),
                        applied_seq: AtomicU64::new(state.applied_seq()),
                        target_seq,
                    });
                    logs.push(Arc::clone(&shared));
                    Some(ShardDurability {
                        shared,
                        tail: recovered.tail,
                        replay_throttle: pc.replay_throttle,
                    })
                }
            };
            workers.push(Shard::spawn(
                state,
                self.config.shard_queue_depth,
                durability,
            ));
        }
        Ok(DatasetEntry {
            shards: workers,
            persist: dir.map(|dir| DatasetPersist { dir, shards: logs }),
            overloads: registry.counter(&labeled("fc_overloaded_total", &[("dataset", name)])),
            ledger: ledger.restored(restored.points, restored.weight, restored.clients),
        })
    }

    /// The deterministic per-(dataset, shard) stream seed.
    fn shard_seed(&self, name: &str, shard: usize) -> u64 {
        self.config
            .base_seed
            .wrapping_add(fnv64(name))
            .wrapping_add(shard as u64)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The default [`Plan`] datasets run under when their creating ingest
    /// carried none.
    pub fn default_plan(&self) -> &Plan {
        self.write.default_plan()
    }

    /// The effective plan of a live dataset.
    pub fn dataset_plan(&self, name: &str) -> Result<Plan, EngineError> {
        Ok(self.write.get(name)?.ledger.plan().clone())
    }

    /// Ingests a weighted batch, creating the dataset on first use.
    /// Returns `(lifetime points, lifetime weight)` after the batch.
    ///
    /// A `plan` carried by the creating ingest becomes the dataset's
    /// effective plan — its shard streams, compaction budget, serving
    /// compression, and query defaults all derive from it; when omitted the
    /// engine's default plan applies. [`crate::ingest`] has the admission
    /// rules.
    pub fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
    ) -> Result<(u64, f64), EngineError> {
        self.ingest_idented(name, batch, plan, None)
            .map(|o| (o.total_points, o.total_weight))
    }

    /// [`Self::ingest`] with an optional exactly-once identity. On
    /// persistent engines the identity rides in the batch's WAL record and
    /// in shard snapshots, so dedup survives `kill -9` exactly as far as
    /// the data it guards does.
    pub fn ingest_idented(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&IngestIdent>,
    ) -> Result<IngestOutcome, EngineError> {
        self.write.ingest(&Shards(self), name, batch, plan, ident)
    }

    /// The served coreset: union of all shard snapshots, compressed to the
    /// dataset plan's serving size with the (resolved) seed. `method`
    /// overrides the plan's compressor for this one serving compression
    /// (the shard streams keep the plan's method). Returns the seed used
    /// and the effective method served under.
    pub fn coreset(
        &self,
        name: &str,
        seed: Option<u64>,
        method: Option<&Method>,
    ) -> Result<(Coreset, u64, Method), EngineError> {
        self.query.coreset(&Shards(self), name, seed, method)
    }

    /// Clusters the served coreset: k-means++ seeding plus the requested
    /// solver's refinement on the compressed points only. Omitted knobs
    /// default from the *dataset's* effective plan, so two datasets on one
    /// server cluster under their own `k`/objective/solver.
    pub fn cluster(
        &self,
        name: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        solver: Option<Solver>,
        seed: Option<u64>,
    ) -> Result<ClusterOutcome, EngineError> {
        self.query
            .cluster(&Shards(self), name, k, kind, solver, seed)
    }

    /// Prices candidate centers on the served coreset (deterministic: uses
    /// the snapshot as-is when it fits the serving size, otherwise the
    /// base-seed compression). Returns `(cost, resolved kind, coreset
    /// points)`.
    pub fn cost(
        &self,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError> {
        self.query.cost(&Shards(self), name, centers, kind)
    }

    /// Statistics for one dataset.
    pub fn dataset_stats(&self, name: &str) -> Result<DatasetStats, EngineError> {
        Ok(self.write.get(name)?.stats(name))
    }

    /// Lifetime counters of this engine process (since construction, not
    /// persisted across restarts — per-dataset ingest totals *are* rebuilt
    /// at recovery, these deliberately are not: they answer "what has this
    /// process done", which is exactly what resets on a crash).
    pub fn server_stats(&self) -> ServerStats {
        self.write.server_stats(&self.query, 0)
    }

    /// The engine's shared observability surface (metric registry plus
    /// trace log). The server loop in front of the engine records its
    /// connection, queue-wait, and trace data into this same object, so
    /// one scrape covers the whole process.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.telemetry)
    }

    /// The `metrics` wire payload: point-in-time gauges refreshed, then
    /// the full registry (counters, gauges, histograms with quantiles)
    /// plus recent request traces as JSON.
    pub fn metrics_value(&self) -> Value {
        self.refresh_gauges();
        self.telemetry.to_value()
    }

    /// Prometheus text exposition of the registry (gauges refreshed
    /// first). This is what `--metrics-addr` serves.
    pub fn render_prometheus(&self) -> String {
        self.refresh_gauges();
        self.telemetry.registry.render_prometheus()
    }

    /// Point-in-time gauges are sampled when somebody looks (scrape or
    /// `metrics` op) rather than maintained on every ingest: the dataset
    /// count plus per-shard queue depth, stored points, and summary
    /// counts, all read lock-free from the shard sender side.
    fn refresh_gauges(&self) {
        let entries = self.write.snapshot();
        let registry = &self.telemetry.registry;
        registry.gauge("fc_datasets").set(entries.len() as u64);
        for (name, entry) in entries {
            for (s, stats) in entry.shard_stats().iter().enumerate() {
                let shard = s.to_string();
                let labels = [("dataset", name.as_str()), ("shard", shard.as_str())];
                registry
                    .gauge(&labeled("fc_shard_queue_depth", &labels))
                    .set(stats.queue_depth as u64);
                registry
                    .gauge(&labeled("fc_shard_stored_points", &labels))
                    .set(stats.stored_points as u64);
                registry
                    .gauge(&labeled("fc_shard_summaries", &labels))
                    .set(stats.summaries as u64);
            }
        }
    }

    /// Statistics for every dataset (sorted by name).
    pub fn stats(&self) -> Result<Vec<DatasetStats>, EngineError> {
        let entries = self.write.snapshot();
        Ok(entries
            .iter()
            .map(|(name, entry)| entry.stats(name))
            .collect())
    }

    /// Drops a dataset, stopping and joining its shard workers and —
    /// on persistent engines — deleting its on-disk state. A dropped
    /// dataset is *gone*: it does not come back on restart.
    pub fn drop_dataset(&self, name: &str) -> Result<(), EngineError> {
        let entry = self
            .write
            .remove(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))?;
        self.query.forget(entry.ledger.instance());
        Self::retire(entry, true, |_| {})
    }

    /// Stops an unregistered dataset's workers and joins them in shard
    /// order, invoking `drained` after each join — the ordered drain
    /// callback graceful shutdown hooks rely on. `purge` then deletes its
    /// directory (a drop, or a create that never landed); `!purge` has
    /// each worker flush its WAL and install a final snapshot before
    /// exiting, and keeps it (engine shutdown).
    fn retire(
        entry: Arc<DatasetEntry>,
        purge: bool,
        mut drained: impl FnMut(usize),
    ) -> Result<(), EngineError> {
        let dir = entry.persist.as_ref().map(|p| p.dir.clone());
        let finalize = !purge && dir.is_some();
        // Each worker folds its pending rows before it stops, so a
        // graceful stop has them in the final snapshot.
        for shard in &entry.shards {
            let _ = shard.send(ShardCmd::Shutdown { finalize });
        }
        // When a connection still holds the entry (the drop raced a
        // request) the workers stop all the same, as soon as the shutdown
        // commands drain; nobody waits for them.
        if let Ok(mut entry) = Arc::try_unwrap(entry) {
            for (idx, shard) in entry.shards.iter_mut().enumerate() {
                if let Some(join) = shard.join.take() {
                    let _ = join.join();
                    drained(idx);
                }
            }
        }
        if purge {
            if let Some(dir) = dir {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| EngineError::Persist(format!("purge {}: {e}", dir.display())))?;
            }
        }
        Ok(())
    }

    /// Names of live datasets, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let entries = self.write.snapshot();
        entries.into_iter().map(|(name, _)| name).collect()
    }
}

/// The engine as a [`QuerySource`] and a [`WriteSink`]: its parts are the
/// shards' stored summaries; a batch goes to one shard, round-robin.
struct Shards<'a>(&'a Engine);

impl QuerySource for Shards<'_> {
    type Dataset = DatasetEntry;

    fn resolve(&self, name: &str) -> Result<Arc<DatasetEntry>, EngineError> {
        self.0.write.get(name)
    }

    /// `None` while any shard is still replaying its WAL: the snapshots
    /// then cover a prefix of the acknowledged data, and memoizing that
    /// under the current version would outlive the replay.
    fn state(&self, entry: &DatasetEntry) -> Option<QueryState> {
        (!entry.recovering()).then(|| entry.ledger.query_state(0, 0))
    }

    /// Each shard's snapshot, in shard order (empty shards contribute
    /// nothing). They are stored summaries, not compressions: the seed and
    /// method only act on their union.
    fn parts(
        &self,
        _name: &str,
        entry: &DatasetEntry,
        _seed: u64,
        _method: Option<&Method>,
    ) -> Result<Vec<Coreset>, EngineError> {
        entry.snapshots()
    }
}

impl WriteSink for Shards<'_> {
    type Dataset = DatasetEntry;

    /// Shard workers, and — on persistent engines — the dataset's
    /// directory, meta file and per-shard logs.
    fn open(&self, name: &str, ledger: Ledger) -> Result<DatasetEntry, EngineError> {
        let config = &self.0.config;
        let dir = match &config.persist {
            None => None,
            Some(pc) => {
                let dir = dataset_dir(&pc.data_dir, name);
                DatasetMeta {
                    name: name.to_owned(),
                    dim: ledger.dim(),
                    shards: config.shards,
                    // Persist only an explicit plan: default-plan datasets
                    // follow the engine default, even a *future* one.
                    plan: ledger.sent_plan().cloned(),
                }
                .store(&dir)?;
                Some(dir)
            }
        };
        self.0.open_dataset(name, ledger, config.shards, dir)
    }

    /// Log, then queue, on the next shard round-robin; the shard coalesces
    /// batches itself when batching is on.
    ///
    /// On persistent engines the batch is WAL-appended (and fsynced per
    /// policy) first — durable before acknowledged — and the shard's log
    /// mutex is held until it is queued, so a batch the queue refuses is
    /// rolled back: an `overloaded` answer never leaves the refused batch
    /// in the log for replay to resurrect.
    fn deliver(
        &self,
        name: &str,
        entry: &DatasetEntry,
        batch: &Dataset,
        ident: Option<&IngestIdent>,
    ) -> Result<(), EngineError> {
        let shard_idx = entry.ledger.next_slot() % entry.shards.len();
        let meta = RecordMeta {
            client: ident.map(|i| (i.client.clone(), i.seq)),
            trace: fc_telemetry::current_trace(),
        };
        let mut log = entry.persist.as_ref().map(|p| p.shards[shard_idx].log());
        let seq = match log.as_mut() {
            None => 0,
            Some(log) => log.append_with(batch, &meta)?,
        };
        let Err(refused) = entry.shards[shard_idx].try_ingest(batch.clone(), seq, meta.client)
        else {
            return Ok(());
        };
        if let Some(log) = log.as_mut() {
            if let Err(rb) = log.rollback(seq) {
                // The record stays durable: replay will re-apply a batch
                // the client saw refused. Over-delivery, never loss — but
                // worth a trace.
                eprintln!("fc-engine: WAL rollback of seq {seq} failed: {rb}");
            }
        }
        Err(match refused {
            TrySendError::Full(_) => {
                self.0.overloads.incr();
                entry.overloads.incr();
                EngineError::Overloaded {
                    dataset: name.to_owned(),
                    shard: shard_idx,
                }
            }
            TrySendError::Disconnected(_) => EngineError::Unavailable,
        })
    }

    fn discard(&self, name: &str, entry: Arc<DatasetEntry>) {
        if let Err(e) = Engine::retire(entry, true, |_| {}) {
            eprintln!("fc-engine: discarding `{name}`, which never landed: {e}");
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Drop for Engine {
    /// Graceful shutdown: every dataset's shards are drained *in shard
    /// order* (the registered [`Engine::set_drain_hook`] observes each),
    /// and persistent datasets flush a final snapshot + WAL sync so the
    /// next process on this `--data-dir` restarts warm. Dropping the
    /// engine never purges durable state — only [`Engine::drop_dataset`]
    /// does.
    fn drop(&mut self) {
        let hook = self
            .drain_hook
            .lock()
            .expect("drain hook lock is never poisoned")
            .take();
        for (name, entry) in self.write.drain() {
            // Shutdown keeps the directory, so there is nothing to fail.
            let _ = Self::retire(entry, false, |shard| {
                if let Some(hook) = &hook {
                    hook(&name, shard);
                }
            });
        }
    }
}

/// The stable string hash [`fc_persist::fnv64`] (FNV-1a-shaped, but with
/// a non-standard multiplier, so not FNV-1a): the engine derives
/// per-(dataset, shard) RNG seeds from it, and the `fc-cluster`
/// coordinator starts each dataset's deal over its nodes from it. One
/// definition, so seeding and routing can never silently diverge.
pub fn fnv64(s: &str) -> u64 {
    // Delegates to fc-persist, whose on-disk dataset directories are named
    // by the same hash — a divergence would orphan persisted state.
    fc_persist::fnv64(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::methods::Uniform;
    use fc_core::CompressionParams;
    use std::sync::atomic::AtomicBool;

    fn blobs(n_per: usize) -> Dataset {
        let mut flat = Vec::new();
        for b in 0..4 {
            for i in 0..n_per {
                flat.push(b as f64 * 100.0 + (i % 25) as f64 * 0.01);
                flat.push((i / 25) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    fn test_engine() -> Engine {
        Engine::with_compressor(
            EngineConfig {
                shards: 2,
                k: 4,
                m_scalar: 25,
                ..Default::default()
            },
            Arc::new(Uniform),
        )
        .unwrap()
    }

    #[test]
    fn ingest_then_coreset_preserves_weight() {
        let engine = test_engine();
        let data = blobs(500);
        for block in data.chunks(250) {
            engine.ingest("d", &block, None).unwrap();
        }
        let (coreset, _, _) = engine.coreset("d", Some(1), None).unwrap();
        assert!(coreset.len() <= 4 * 25);
        let rel = (coreset.total_weight() - data.total_weight()).abs() / data.total_weight();
        assert!(rel < 0.3, "served weight off by {rel}");
        let stats = engine.dataset_stats("d").unwrap();
        assert_eq!(stats.ingested_points, 2000);
        assert_eq!(stats.shards, 2);
    }

    #[test]
    fn served_coresets_are_reproducible_per_seed() {
        let engine = test_engine();
        for block in blobs(300).chunks(200) {
            engine.ingest("d", &block, None).unwrap();
        }
        let (a, seed_a, _) = engine.coreset("d", Some(42), None).unwrap();
        let (b, seed_b, _) = engine.coreset("d", Some(42), None).unwrap();
        assert_eq!(seed_a, seed_b);
        assert_eq!(
            a.dataset(),
            b.dataset(),
            "same seed must serve the same coreset"
        );
        let (c, _, _) = engine.coreset("d", Some(43), None).unwrap();
        assert_ne!(a.dataset(), c.dataset(), "different seeds should differ");
        // Engine-assigned seeds advance deterministically from the base.
        let (_, s1, _) = engine.coreset("d", None, None).unwrap();
        let (_, s2, _) = engine.coreset("d", None, None).unwrap();
        assert_eq!(s2, s1 + 1);
    }

    #[test]
    fn cluster_serves_reasonable_centers() {
        let engine = test_engine();
        let data = blobs(500);
        for block in data.chunks(100) {
            engine.ingest("d", &block, None).unwrap();
        }
        let outcome = engine.cluster("d", Some(4), None, None, Some(7)).unwrap();
        assert_eq!(outcome.solution.k(), 4);
        // The four blob centers are ~(b*100 + 0.12, 0.095); every served
        // center must land inside some blob.
        for center in outcome.solution.centers.iter() {
            let blob = (center[0] / 100.0).round();
            assert!(
                (center[0] - blob * 100.0).abs() < 5.0,
                "stray center {center:?}"
            );
        }
        // Same seed, same clustering.
        let again = engine.cluster("d", Some(4), None, None, Some(7)).unwrap();
        assert_eq!(outcome.solution.centers, again.solution.centers);
    }

    #[test]
    fn derived_budget_tracks_serving_size() {
        let cfg = EngineConfig {
            k: 4,
            m_scalar: 10,
            ..Default::default()
        };
        assert_eq!(cfg.effective_budget().unwrap(), 4 * 4 * 10);
        let explicit = EngineConfig {
            compaction_budget: Some(99),
            ..Default::default()
        };
        assert_eq!(explicit.effective_budget().unwrap(), 99);
    }

    #[test]
    fn compaction_keeps_shards_within_budget() {
        let budget = 150;
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 2,
                k: 4,
                m_scalar: 10,
                compaction_budget: Some(budget),
                ..Default::default()
            },
            Arc::new(Uniform),
        )
        .unwrap();
        for block in blobs(600).chunks(60) {
            engine.ingest("d", &block, None).unwrap();
        }
        // Stream gauges are published by the shard workers, never queued
        // behind (so stats stay answerable during a WAL replay): wait for
        // the ingest queues to drain before reading them.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let stats = loop {
            let stats = engine.dataset_stats("d").unwrap();
            if stats.queue_depth_per_shard.iter().all(|&d| d == 0) {
                break stats;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "shard queues never drained"
            );
            std::thread::yield_now();
        };
        // Each shard may exceed the budget by at most one un-compacted
        // insertion (= one level-0 summary of ≤ m points).
        let slack = 4 * 10;
        for (shard, &summaries) in stats.summaries_per_shard.iter().enumerate() {
            assert!(summaries >= 1, "shard {shard} lost its summaries");
        }
        assert!(
            stats.stored_points <= 2 * (budget + slack),
            "stored {} vs budget {}",
            stats.stored_points,
            budget
        );
    }

    #[test]
    fn errors_are_specific() {
        let engine = test_engine();
        assert_eq!(
            engine.coreset("ghost", None, None).unwrap_err(),
            EngineError::UnknownDataset("ghost".into())
        );
        engine.ingest("d", &blobs(50), None).unwrap();
        let three_d = Dataset::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
        assert_eq!(
            engine.ingest("d", &three_d, None).unwrap_err(),
            EngineError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert!(matches!(
            engine.ingest("d", &empty, None).unwrap_err(),
            EngineError::InvalidArgument(_)
        ));
        assert!(engine.drop_dataset("d").is_ok());
        assert_eq!(
            engine.drop_dataset("d").unwrap_err(),
            EngineError::UnknownDataset("d".into())
        );
    }

    #[test]
    fn concurrent_ingest_and_query_from_many_threads() {
        let engine = Arc::new(test_engine());
        engine.ingest("d", &blobs(100), None).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for i in 0..20 {
                        if t % 2 == 0 {
                            engine.ingest("d", &blobs(40), None).unwrap();
                        } else {
                            let (c, _, _) = engine.coreset("d", Some(t * 100 + i), None).unwrap();
                            assert!(!c.is_empty());
                        }
                    }
                });
            }
        });
        let stats = engine.dataset_stats("d").unwrap();
        assert_eq!(stats.ingested_points, (400 + 2 * 20 * 160) as u64);
    }

    #[test]
    fn coalesced_batches_are_served_and_counted() {
        // Size trigger far above what we send: every batch parks in the
        // coalescing buffer, and only the query's on-demand flush moves
        // it to the shards.
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 2,
                k: 4,
                m_scalar: 25,
                batch_points: 100_000,
                ..Default::default()
            },
            Arc::new(Uniform),
        )
        .unwrap();
        let data = blobs(250);
        for block in data.chunks(125) {
            engine.ingest("d", &block, None).unwrap();
        }
        let stats = engine.dataset_stats("d").unwrap();
        assert_eq!(stats.ingested_points, 1000, "acks count coalesced rows");
        let (coreset, _, _) = engine.coreset("d", Some(1), None).unwrap();
        let rel = (coreset.total_weight() - data.total_weight()).abs() / data.total_weight();
        assert!(rel < 0.3, "query flush must serve pending rows ({rel})");
    }

    #[test]
    fn deadline_flusher_moves_pending_rows_without_queries() {
        // One batch then silence, and a writer that never stops: neither
        // reaches the size trigger, and in both the deadline (not a query)
        // must fold the rows into the shard's stream.
        for (steady, within) in [(false, 10), (true, 2)] {
            let engine = Engine::with_compressor(
                EngineConfig {
                    shards: 1,
                    k: 4,
                    m_scalar: 25,
                    batch_points: 100_000,
                    batch_delay: Duration::from_millis(5),
                    ..Default::default()
                },
                Arc::new(Uniform),
            )
            .unwrap();
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| loop {
                    engine.ingest("d", &blobs(5), None).unwrap();
                    if !steady || stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                });
                let deadline = Instant::now() + Duration::from_secs(within);
                let stored = loop {
                    match engine.dataset_stats("d") {
                        Ok(stats) if stats.stored_points > 0 => break true,
                        _ if Instant::now() >= deadline => break false,
                        _ => std::thread::sleep(Duration::from_millis(2)),
                    }
                };
                stop.store(true, Ordering::Relaxed);
                assert!(
                    stored,
                    "no deadline fold within {within} s (steady writer: {steady})"
                );
            });
        }
    }

    #[test]
    fn invalid_configurations_are_rejected_at_construction() {
        assert!(matches!(
            Engine::new(EngineConfig {
                shards: 0,
                ..Default::default()
            })
            .unwrap_err(),
            EngineError::InvalidArgument(_)
        ));
        assert_eq!(
            Engine::new(EngineConfig {
                k: 0,
                ..Default::default()
            })
            .unwrap_err(),
            EngineError::Invalid(FcError::InvalidK)
        );
        assert_eq!(
            Engine::new(EngineConfig {
                m_scalar: 0,
                ..Default::default()
            })
            .unwrap_err(),
            EngineError::Invalid(FcError::InvalidCoresetSize { m: 0, k: 8 })
        );
    }

    #[test]
    fn engine_builds_its_configured_method() {
        let engine = Engine::new(EngineConfig {
            shards: 1,
            k: 4,
            m_scalar: 10,
            method: Method::Uniform,
            ..Default::default()
        })
        .unwrap();
        engine.ingest("d", &blobs(200), None).unwrap();
        let (c, _, _) = engine.coreset("d", Some(1), None).unwrap();
        assert!(!c.is_empty());
    }

    #[test]
    fn per_request_solver_and_method_overrides_work() {
        let engine = test_engine();
        for block in blobs(400).chunks(100) {
            engine.ingest("d", &block, None).unwrap();
        }
        let swapped = engine
            .cluster(
                "d",
                Some(4),
                Some(CostKind::KMedian),
                Some(Solver::LocalSearch),
                Some(7),
            )
            .unwrap();
        assert_eq!(swapped.solver, Solver::LocalSearch);
        assert_eq!(swapped.kind, CostKind::KMedian);
        assert_eq!(swapped.solution.k(), 4);
        // A per-request compression method serves through a different
        // compressor with the same seed discipline.
        let (a, _, _) = engine
            .coreset("d", Some(5), Some(&Method::Lightweight))
            .unwrap();
        let (b, _, _) = engine
            .coreset("d", Some(5), Some(&Method::Lightweight))
            .unwrap();
        assert_eq!(a.dataset(), b.dataset(), "override is still reproducible");
    }

    #[test]
    fn per_dataset_plans_govern_serving_and_defaults() {
        let engine = test_engine();
        let plan_a = PlanBuilder::new(2)
            .m_scalar(10)
            .method(Method::Uniform)
            .solver(Solver::LocalSearch)
            .build()
            .unwrap();
        let plan_b = PlanBuilder::new(3)
            .m_scalar(5)
            .kind(CostKind::KMedian)
            .method(Method::Lightweight)
            .solver(Solver::Lloyd)
            .build()
            .unwrap();
        for block in blobs(300).chunks(150) {
            engine.ingest("a", &block, Some(&plan_a)).unwrap();
            engine.ingest("b", &block, Some(&plan_b)).unwrap();
            engine.ingest("defaulted", &block, None).unwrap();
        }
        // Query defaults resolve from each dataset's own plan.
        let a = engine.cluster("a", None, None, None, Some(1)).unwrap();
        assert_eq!(a.solution.k(), 2);
        assert_eq!(a.kind, CostKind::KMeans);
        assert_eq!(a.solver, Solver::LocalSearch);
        let b = engine.cluster("b", None, None, None, Some(1)).unwrap();
        assert_eq!(b.solution.k(), 3);
        assert_eq!(b.kind, CostKind::KMedian);
        assert_eq!(b.solver, Solver::Lloyd);
        // Serving sizes and effective methods follow the plans.
        let (ca, _, ma) = engine.coreset("a", Some(2), None).unwrap();
        assert!(ca.len() <= plan_a.m(), "{} > {}", ca.len(), plan_a.m());
        assert_eq!(ma, Method::Uniform);
        let (cb, _, mb) = engine.coreset("b", Some(2), None).unwrap();
        assert!(cb.len() <= plan_b.m());
        assert_eq!(mb, Method::Lightweight);
        // Stats report each effective plan; the plan-less dataset runs the
        // engine default.
        assert_eq!(engine.dataset_plan("a").unwrap(), plan_a);
        assert_eq!(engine.dataset_stats("b").unwrap().plan, plan_b);
        assert_eq!(
            engine.dataset_plan("defaulted").unwrap(),
            *engine.default_plan()
        );
    }

    #[test]
    fn conflicting_plan_for_live_dataset_is_rejected() {
        let engine = test_engine();
        let plan = PlanBuilder::new(2)
            .m_scalar(10)
            .method(Method::Uniform)
            .build()
            .unwrap();
        engine.ingest("d", &blobs(50), Some(&plan)).unwrap();
        // Re-sending the same plan is idempotent.
        engine.ingest("d", &blobs(50), Some(&plan)).unwrap();
        let other = PlanBuilder::new(4)
            .m_scalar(10)
            .method(Method::Uniform)
            .build()
            .unwrap();
        match engine.ingest("d", &blobs(50), Some(&other)).unwrap_err() {
            EngineError::InvalidArgument(msg) => {
                assert!(msg.contains("already runs under plan"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // After a drop the dataset can come back under the new plan.
        engine.drop_dataset("d").unwrap();
        engine.ingest("d", &blobs(50), Some(&other)).unwrap();
        assert_eq!(engine.dataset_plan("d").unwrap(), other);
    }

    #[test]
    fn discarding_a_create_that_never_landed_leaves_nothing_to_recover() {
        let dir = std::env::temp_dir().join(format!("fc-engine-discard-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = EngineConfig {
            shards: 2,
            k: 4,
            m_scalar: 25,
            persist: Some(PersistConfig::new(&dir)),
            ..Default::default()
        };
        let engine = Engine::with_compressor(config.clone(), Arc::new(Uniform)).unwrap();
        // What the write path does with a creating ingest whose delivery
        // fails (`crate::ingest` tests the rule; a failing disk is what it
        // takes to get there): open, then discard.
        let sink = Shards(&engine);
        let entry = sink.open("d", engine.write.ledger("d", 2, None)).unwrap();
        assert_eq!(
            list_datasets(&dir).unwrap().len(),
            1,
            "open reserves the directory"
        );
        sink.discard("d", Arc::new(entry));
        assert!(list_datasets(&dir).unwrap().is_empty());
        drop(engine);
        let engine = Engine::with_compressor(config, Arc::new(Uniform)).unwrap();
        assert!(engine.dataset_names().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A compressor that parks until released — lets tests hold a shard
    /// worker busy so the bounded queue actually fills.
    struct Gated {
        release: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Compressor for Gated {
        fn compress(
            &self,
            rng: &mut dyn rand::RngCore,
            data: &Dataset,
            params: &CompressionParams,
        ) -> Coreset {
            while !self.release.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Uniform.compress(rng, data, params)
        }
    }

    #[test]
    fn full_shard_queue_reports_overloaded_instead_of_blocking() {
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 1,
                shard_queue_depth: 1,
                k: 2,
                m_scalar: 5,
                ..Default::default()
            },
            Arc::new(Gated {
                release: Arc::clone(&release),
            }),
        )
        .unwrap();
        // The worker dequeues the first batch and parks inside compression;
        // at most one more command fits the queue, so a handful of writes
        // must hit `Overloaded` — and return immediately rather than pin
        // the calling thread.
        let mut overloaded = None;
        for _ in 0..4 {
            match engine.ingest("d", &blobs(20), None) {
                Ok(_) => {}
                Err(e) => {
                    overloaded = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            overloaded,
            Some(EngineError::Overloaded {
                dataset: "d".into(),
                shard: 0,
            })
        );
        // The saturated shard is observable, then drains once released.
        release.store(true, Ordering::SeqCst);
        loop {
            match engine.ingest("d", &blobs(20), None) {
                Ok(_) => break,
                Err(EngineError::Overloaded { .. }) => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let stats = engine.dataset_stats("d").unwrap();
        assert!(stats.ingested_points > 0);
    }

    /// A shard whose fold is stuck still refuses what its queue cannot
    /// hold: a coalescing shard must not park the writers behind it.
    #[test]
    fn saturated_coalescing_shard_refuses_instead_of_blocking() {
        let release = Arc::new(AtomicBool::new(false));
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 1,
                shard_queue_depth: 1,
                k: 2,
                m_scalar: 5,
                batch_points: 100,
                batch_delay: Duration::from_millis(5),
                ..Default::default()
            },
            Arc::new(Gated {
                release: Arc::clone(&release),
            }),
        )
        .unwrap();
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        let refused = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    match engine.ingest("d", &blobs(10), None) {
                        Ok(_) => std::thread::sleep(Duration::from_millis(10)),
                        Err(e) => {
                            let _ = tx.send(e);
                            break;
                        }
                    }
                }
            });
            let refused = rx.recv_timeout(Duration::from_secs(5));
            stop.store(true, Ordering::SeqCst);
            release.store(true, Ordering::SeqCst);
            refused
        });
        assert_eq!(
            refused,
            Ok(EngineError::Overloaded {
                dataset: "d".into(),
                shard: 0,
            })
        );
    }

    #[test]
    fn ingest_invalidates_cached_answers() {
        let engine = test_engine();
        engine.ingest("d", &blobs(200), None).unwrap();
        let (before, _, _) = engine.coreset("d", Some(3), None).unwrap();
        // New data must change what seed 3 serves — a stale cache would
        // hand back `before` verbatim.
        let far = Dataset::from_flat(vec![900.0, 900.0, 901.0, 901.0], 2).unwrap();
        engine.ingest("d", &far, None).unwrap();
        let (after, _, _) = engine.coreset("d", Some(3), None).unwrap();
        assert_ne!(
            before.dataset(),
            after.dataset(),
            "ingest must invalidate the cached coreset"
        );
    }

    #[test]
    fn dropped_dataset_generation_never_resurfaces() {
        let engine = test_engine();
        engine.ingest("d", &blobs(100), None).unwrap();
        let (old, _, _) = engine.coreset("d", Some(1), None).unwrap();
        engine.drop_dataset("d").unwrap();
        // Same name, same seed, different data: the fresh generation must
        // serve the fresh data.
        let far = Dataset::from_flat(vec![500.0, 500.0, 501.0, 501.0], 2).unwrap();
        engine.ingest("d", &far, None).unwrap();
        let (fresh, _, _) = engine.coreset("d", Some(1), None).unwrap();
        assert_ne!(old.dataset(), fresh.dataset());
        assert!(fresh
            .dataset()
            .points()
            .as_flat()
            .iter()
            .all(|&v| v >= 500.0));
    }

    #[test]
    fn stats_report_per_shard_queue_depth() {
        let engine = test_engine();
        engine.ingest("d", &blobs(100), None).unwrap();
        let stats = engine.dataset_stats("d").unwrap();
        assert_eq!(stats.queue_depth_per_shard.len(), 2);
        // Stats read the gauges without queueing behind the shard, so at
        // most the one ingest can still be in flight.
        for &depth in &stats.queue_depth_per_shard {
            assert!(depth <= 1, "unexpected backlog {depth}");
        }
    }
}
