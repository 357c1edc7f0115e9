//! The coordinator: one [`fc_service::Backend`] fanning out to many
//! remote `fc-server` nodes.
//!
//! Ingest deals each batch to one node — round-robin over the active
//! members, in shares proportional to their capacities
//! ([`FleetMap::spread`]) — forwarding the dataset's creating [`Plan`] with
//! every routed batch so whichever node sees the dataset first creates it
//! under the same plan (plan-less datasets run each node's default plan —
//! deploy nodes and coordinator with the same plan flags). Queries run
//! the shared [`fc_service::query`] path; the coordinator only supplies
//! the parts: one exchange with every node in parallel pulls each node's
//! serving compression, and that path unions them and re-compresses once
//! — the MapReduce aggregation step, with sockets where the library has
//! threads. Only compressed summaries ever cross the network: `O(m)`
//! points per node per query, independent of how much data the nodes
//! hold.
//!
//! Failure is a first-class input: an unreachable node is marked down and
//! queries answer from the survivors; an `overloaded` node is retried
//! through the client's bounded backoff and then failed over for writes;
//! `stats` reports every node's identity, health, and last error.
//!
//! With `replication >= 2` the coordinator switches from spread routing to
//! *placement*: an [`fc_fleet::FleetMap`] assigns each dataset an R-member
//! replica set (capacity-weighted rendezvous hashing over the roster),
//! ingest fans each batch to every replica (coreset composability makes
//! an R-way copy just R ingests), and queries read from any single live
//! replica instead of unioning the fleet. `add-node` / `drain-node` bump the map's epoch and
//! migrate serving coresets — not raw data — onto the members the new map
//! ranks; requests asserting a stale epoch get a structured `wrong_epoch`.
//!
//! Either way a batch is admitted by the shared [`fc_service::ingest`]
//! path — the same refusals, exactly-once gate and counters as a single
//! engine — and each node's engine dedupes again behind its WAL.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use fc_clustering::solver::Solver;
use fc_clustering::CostKind;
use fc_core::json::Value;
use fc_core::plan::{Method, Plan};
use fc_core::Coreset;
use fc_fleet::FleetMap;
use fc_geom::{Dataset, Points};
use fc_service::client::wire_block;
use fc_service::engine::fnv64;
use fc_service::protocol::{self, DatasetStats, ErrorCode, IngestIdent, NodeHealth, NodeStats};
use fc_service::{
    Backend, ClientError, ClusterOutcome, EngineConfig, EngineError, IngestOutcome, Ledger,
    QueryPath, QuerySource, QueryState, Request, Response, RetryPolicy, WritePath, WriteSink,
};
use fc_telemetry::{
    current_trace, labeled, next_request_id, set_current_trace, Counter, Histogram, Telemetry,
};

use crate::node::{NodeHandle, NodeTimeouts};

/// Mixes per-node compression seeds. Deliberately a different constant
/// from [`fc_geom::par::SEED_STREAM`]: nodes seed their compressor RNGs
/// directly from the request seed, so `node_seed(seed, i)` must never
/// collide with the query path's solve stream `seed ^ SEED_STREAM` (node
/// 0 would draw the exact sequence the solver draws).
const NODE_STREAM: u64 = 0x517C_C1B7_2722_0A95;

/// The client identity migrations ingest under: `seq = fleet epoch`, so a
/// replayed migration of the same epoch is deduplicated by the target's
/// own exactly-once gate instead of double-counting the shipped coreset.
const MIGRATE_CLIENT: &str = "fc-fleet-migrate";

/// One node in the fleet: where to dial it and how much traffic it can
/// take relative to its peers.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// `host:port` of a running `fc-server`.
    pub addr: String,
    /// Placement weight relative to its peers (any non-negative scale,
    /// default 1): the node's share of spread blocks at R = 1 and of
    /// replica sets at R ≥ 2. Zero takes no writes.
    pub capacity: f64,
}

impl<S: Into<String>> From<S> for NodeSpec {
    fn from(addr: S) -> Self {
        NodeSpec {
            addr: addr.into(),
            capacity: 1.0,
        }
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The fleet (at least one node).
    pub nodes: Vec<NodeSpec>,
    /// The effective plan the coordinator assumes for datasets whose
    /// creating ingest carries none: query defaults and coordinator-side
    /// aggregation derive from it. Plan-less datasets run each *node's*
    /// default plan node-side, so deploy nodes and coordinator with the
    /// same plan flags (or always carry per-dataset plans).
    pub default_plan: Plan,
    /// Bounded backoff for `overloaded` node responses.
    pub retry: RetryPolicy,
    /// Socket timeouts for every dial, binary hello and request against
    /// the fleet. A hung (accepting but never answering) node fails its
    /// slot in a fan-out with a timeout and is surfaced as
    /// [`fc_service::protocol::NodeHealth::Degraded`] instead of pinning
    /// the request forever; the other slots answer as usual.
    pub timeouts: NodeTimeouts,
    /// Base of the deterministic seed sequence for requests that carry no
    /// explicit seed.
    pub base_seed: u64,
    /// Offer every node connection the binary frame upgrade — `bin1c`
    /// first, then `bin1` (default). Nodes that decline stay on JSON-lines
    /// per connection,
    /// so a mixed fleet keeps working; `false` pins the whole fleet to
    /// the text protocol.
    pub binary_wire: bool,
    /// Copies of every dataset the fleet keeps (default 1). At 1 the
    /// coordinator spreads blocks over the nodes by capacity and unions
    /// the fleet's coresets per query. At 2+ it switches to fleet
    /// placement: each dataset lives on the R members its name
    /// rendezvous-hashes to (weighted by capacity), ingest fans each batch
    /// to all of them, and queries answer from any single live replica —
    /// so any R−1 node failures lose nothing.
    pub replication: usize,
    /// Capacity of the query result cache (see [`fc_service::query`];
    /// default 64, 0 disables it). Ingests, membership changes and health
    /// flips all invalidate by moving the [`QueryState`] its keys embed.
    pub cache_capacity: usize,
}

impl CoordinatorConfig {
    /// A configuration over `addrs` with the defaults of a stock
    /// `fc-server`: equal capacities, the default engine plan, and the
    /// default retry schedule — so a coordinator in front of default nodes
    /// behaves like one big default server.
    pub fn new<I, S>(addrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            nodes: addrs.into_iter().map(NodeSpec::from).collect(),
            default_plan: EngineConfig::default()
                .default_plan()
                .expect("the default engine configuration is valid"),
            retry: RetryPolicy::default(),
            timeouts: NodeTimeouts::default(),
            base_seed: 0x0C0D_E5E7,
            binary_wire: true,
            replication: 1,
            cache_capacity: 64,
        }
    }
}

/// Coordinator-side record of a live dataset: what [`fc_service::ingest`]
/// records about its writes, and nothing else.
///
/// Its effective plan is the source of every query default and of the
/// coordinator-side aggregation parameters. Its dimension is checked here
/// because with round-robin routing a mismatched batch would otherwise
/// land on a node that has no copy yet and silently create a second
/// dataset of the wrong dimension there. Its watermark is needed here
/// because under spread routing a retried batch could land on a different
/// node than the original — a node that has never seen the `(client,
/// seq)` and would apply it again.
///
/// Its totals back the `Ingested` acknowledgements (and `stats` when
/// every holder is down). Regular `stats` sums what the nodes currently
/// hold instead, so the two disagree after a node restarts and loses its
/// share — by design: acknowledgements count what was accepted, stats
/// count what serves.
type Route = Ledger;

/// One dataset's pending relocation during an `add_node`/`drain_node`
/// epoch bump: `(dataset, route, old replica set, new replica set)`,
/// replica sets as roster indices.
type PlacementMove = (String, Arc<Route>, Vec<usize>, Vec<usize>);

/// A multi-node coordinator. Implements [`Backend`], so
/// [`fc_service::ServerHandle::bind_backend`] turns it into a server that
/// is wire-indistinguishable from a single big `fc-server`.
pub struct Coordinator {
    /// The roster, index-aligned with the fleet map's member indices.
    /// Append-only (a drained node is marked in the map, never removed),
    /// so an index handed out at one epoch still names the same node at
    /// the next; fan-outs snapshot the `Arc`s and run lock-free.
    nodes: RwLock<Vec<Arc<NodeHandle>>>,
    retry: RetryPolicy,
    timeouts: NodeTimeouts,
    binary_wire: bool,
    /// Replication factor R (1 = classic spread routing).
    replication: usize,
    /// `coreset` / `cluster` / `cost`, answered on [`Fleet`].
    query: QueryPath,
    /// The versioned membership + placement map, the one owner of node
    /// capacities. Membership ops
    /// (`add_node`, `drain_node`) serialize on this lock; everything else
    /// takes it briefly to read the epoch or a replica set.
    fleet: Mutex<FleetMap>,
    /// Ingest admission and the registry of live datasets, delivering
    /// into [`Fleet`].
    write: WritePath<Route>,
    /// The coordinator's observability surface (shared with the server
    /// loop serving it) plus cached hot-path handles into it.
    metrics: CoordinatorMetrics,
}

/// Coordinator-side telemetry handles. The ingest and query ops register
/// theirs — under the names an engine uses, so one Grafana panel covers
/// both tiers — in [`fc_service::ingest`] and [`fc_service::query`]; what
/// is left is fleet bookkeeping plus a per-node request-latency histogram
/// for attribution.
struct CoordinatorMetrics {
    shared: Arc<Telemetry>,
    /// Dataset migrations completed by membership changes.
    migrations: Counter,
    /// Replica-set writes that failed on some replica while the batch was
    /// still acknowledged off a surviving one (repair debt).
    replica_write_failures: Counter,
    /// Indexed by node: wall time of each request to that node (its
    /// retries and timeouts included), whatever the op. Grows when the fleet
    /// does (handles are `Arc`-backed, cloning is cheap).
    node_seconds: Mutex<Vec<Histogram>>,
}

impl CoordinatorMetrics {
    fn new<'a>(node_addrs: impl Iterator<Item = &'a str>) -> Self {
        let shared = Arc::new(Telemetry::new());
        let metrics = CoordinatorMetrics {
            migrations: shared.registry.counter("fc_migrations_total"),
            replica_write_failures: shared.registry.counter("fc_replica_write_failures_total"),
            node_seconds: Mutex::default(),
            shared,
        };
        node_addrs.for_each(|addr| metrics.push_node(addr));
        metrics
    }

    /// The per-node latency histogram for roster index `idx`.
    fn node_hist(&self, idx: usize) -> Histogram {
        self.node_seconds.lock().expect("node histogram lock")[idx].clone()
    }

    /// Registers the histogram for the next node of the roster.
    fn push_node(&self, addr: &str) {
        self.node_seconds.lock().expect("node histogram lock").push(
            self.shared
                .registry
                .histogram(&labeled("fc_node_request_seconds", &[("node", addr)])),
        );
    }
}

impl Coordinator {
    /// Builds a coordinator over the configured fleet. Validates the
    /// configuration (at least one node, finite non-negative capacities,
    /// at least one of them positive) but does not
    /// dial anything yet — nodes are dialed lazily and marked down when
    /// unreachable, so a coordinator can boot before (or outlive) its
    /// fleet.
    pub fn new(config: CoordinatorConfig) -> Result<Self, EngineError> {
        if config.nodes.is_empty() {
            return Err(EngineError::InvalidArgument(
                "coordinator needs at least one node".into(),
            ));
        }
        for spec in &config.nodes {
            if !spec.capacity.is_finite() || spec.capacity < 0.0 {
                return Err(EngineError::InvalidArgument(format!(
                    "node `{}` has invalid capacity {}",
                    spec.addr, spec.capacity
                )));
            }
        }
        if config.nodes.iter().all(|spec| spec.capacity == 0.0) {
            return Err(EngineError::InvalidArgument(
                "coordinator needs a node of positive capacity".into(),
            ));
        }
        let fleet = FleetMap::bootstrap(
            config
                .nodes
                .iter()
                .map(|spec| (spec.addr.clone(), spec.capacity)),
            config.replication,
        )
        .map_err(|e| EngineError::InvalidArgument(format!("fleet bootstrap: {e}")))?;
        let metrics = CoordinatorMetrics::new(config.nodes.iter().map(|spec| spec.addr.as_str()));
        let query = QueryPath::new(
            &metrics.shared.registry,
            config.cache_capacity,
            config.base_seed,
        );
        Ok(Self {
            nodes: RwLock::new(
                config
                    .nodes
                    .iter()
                    .map(|spec| {
                        Arc::new(NodeHandle::new(
                            spec.addr.clone(),
                            config.timeouts,
                            config.binary_wire,
                        ))
                    })
                    .collect(),
            ),
            retry: config.retry,
            timeouts: config.timeouts,
            binary_wire: config.binary_wire,
            replication: config.replication,
            query,
            fleet: Mutex::new(fleet),
            write: WritePath::new(
                Arc::clone(&metrics.shared),
                config.default_plan.clone(),
                Arc::from(config.default_plan.method().build()),
            ),
            metrics,
        })
    }

    /// A snapshot of the roster, with live health records (for binaries
    /// and tests). Indices are stable across membership changes: the
    /// roster only ever grows, and drained nodes are marked, not removed.
    pub fn nodes(&self) -> Vec<Arc<NodeHandle>> {
        self.roster()
    }

    /// The replication factor R this coordinator places at.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The current fleet map epoch (bumped by every membership change).
    pub fn fleet_epoch(&self) -> u64 {
        self.fleet.lock().expect("fleet map lock").epoch()
    }

    /// The addresses a dataset's replica set resolves to under the
    /// current fleet map — rank order, the order ingest fans out and
    /// queries fall through. Under spread placement (`replication == 1`)
    /// this is still the dataset's rendezvous ranking — where a drain
    /// evacuates its share to — while ingest deals blocks over every
    /// node by capacity instead.
    pub fn replicas_of(&self, name: &str) -> Vec<String> {
        let fleet = self.fleet.lock().expect("fleet map lock");
        fleet
            .replicas(name)
            .into_iter()
            .map(|idx| fleet.members()[idx].addr().to_owned())
            .collect()
    }

    fn roster(&self) -> Vec<Arc<NodeHandle>> {
        self.nodes.read().expect("node roster lock").clone()
    }

    fn node_at(&self, idx: usize) -> Arc<NodeHandle> {
        Arc::clone(&self.nodes.read().expect("node roster lock")[idx])
    }

    fn node_addr(&self, idx: usize) -> String {
        self.node_at(idx).addr().to_owned()
    }

    /// The plan plan-less datasets run under.
    pub fn default_plan(&self) -> &Plan {
        self.write.default_plan()
    }

    /// A fingerprint of the roster's current health states, folded in
    /// roster order (order is stable: the roster only grows) — the
    /// [`QueryState::health`] of every answer. Health flips change *which
    /// nodes answer a fan-out*, so the first query that observes one — a
    /// node marked down, degraded, or recovering, or healed back — mints
    /// a fresh keyspace and old answers just stop matching.
    fn health_fingerprint(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for node in self.roster() {
            let tag = match node.health().0 {
                NodeHealth::Alive => 1u64,
                NodeHealth::Recovering => 2,
                NodeHealth::Degraded => 3,
                NodeHealth::Down => 4,
            };
            acc = (acc ^ tag).wrapping_mul(0x0000_0100_0000_01B3);
        }
        acc
    }

    /// Maps a node's wire error onto the engine vocabulary.
    fn node_error(&self, node_idx: usize, dataset: &str, err: ClientError) -> EngineError {
        match err {
            ClientError::Overloaded(_) => EngineError::Overloaded {
                dataset: dataset.to_owned(),
                // The saturated unit, from a client's point of view, is the
                // node — the coordinator's shard.
                shard: node_idx,
            },
            ClientError::Server { message, code } => match code {
                Some(ErrorCode::UnknownDataset) => EngineError::UnknownDataset(dataset.to_owned()),
                Some(ErrorCode::NoData) => EngineError::NoData {
                    dataset: dataset.to_owned(),
                },
                _ => EngineError::Remote {
                    node: self.node_addr(node_idx),
                    message,
                },
            },
            other => EngineError::Remote {
                node: self.node_addr(node_idx),
                message: other.to_string(),
            },
        }
    }

    /// Every roster index, in roster order: the `which` of a fan-out.
    fn everyone(&self) -> Vec<usize> {
        (0..self.roster().len()).collect()
    }

    /// The one way the coordinator reaches its nodes: `request_for(i)`
    /// through [`NodeHandle::request`] against each listed node `i`
    /// concurrently, outcomes in `which` order. A query's fan-out, a
    /// routed ingest and a replica write are all exchanges, so each
    /// observes `fc_node_request_seconds{node=…}` and logs its
    /// `node<i>:<op>` hop — once per node request, retries included —
    /// under one request id: the caller's (set as the ambient trace by the
    /// server loop in front of this coordinator) or a fresh one.
    ///
    /// The first listed node runs on the calling thread and each other
    /// one on a scoped thread joined before this returns: a one-node
    /// exchange spawns nothing, an n-node fan-out spawns n − 1. A cold
    /// node dials on its own thread, so an unreachable fleet costs one
    /// connect timeout, not one per node.
    fn exchange(
        &self,
        which: &[usize],
        request_for: impl Fn(usize) -> Request + Sync,
    ) -> Vec<Result<Response, ClientError>> {
        let trace = current_trace().unwrap_or_else(next_request_id);
        let nodes = self.roster();
        let one = |idx: usize| {
            // The ambient trace is thread-local: set it on whichever
            // thread runs this node, before the client stamps the request.
            let _scope = set_current_trace(Some(trace.clone()));
            let request = request_for(idx);
            let started = Instant::now();
            let outcome = nodes[idx].request(&request, &self.retry);
            let elapsed = started.elapsed();
            self.metrics.node_hist(idx).observe(elapsed);
            let hop = format!("node{idx}:{}", request.op_name());
            self.metrics.shared.traces.record(&trace, hop, elapsed);
            outcome
        };
        let Some((&first, rest)) = which.split_first() else {
            return Vec::new();
        };
        std::thread::scope(|scope| {
            let one = &one;
            let others: Vec<_> = rest
                .iter()
                .map(|&idx| scope.spawn(move || one(idx)))
                .collect();
            let mut outcomes = Vec::with_capacity(which.len());
            outcomes.push(one(first));
            outcomes.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("node exchange threads do not panic")),
            );
            outcomes
        })
    }

    /// [`Self::exchange`] with one node.
    fn node_request(&self, idx: usize, request: &Request) -> Result<Response, ClientError> {
        self.exchange(&[idx], |_| request.clone())
            .pop()
            .expect("one node in, one outcome out")
    }

    /// The error for a node that answered with the wrong response kind.
    fn unexpected(&self, node_idx: usize, response: Response) -> EngineError {
        EngineError::Remote {
            node: self.node_addr(node_idx),
            message: format!("unexpected response {response:?}"),
        }
    }

    /// Decodes one node's answer to `compress` into its part.
    fn node_part(&self, node_idx: usize, answer: Response) -> Result<Coreset, EngineError> {
        let Response::Coreset {
            points, weights, ..
        } = answer
        else {
            return Err(self.unexpected(node_idx, answer));
        };
        protocol::rows_to_dataset(&points, Some(&weights))
            .map(Coreset::new)
            .map_err(|e| EngineError::Remote {
                node: self.node_addr(node_idx),
                message: e.to_string(),
            })
    }

    /// Asks the nodes serving `name` a per-node query and returns their
    /// `(node, payload)` answers — at least one, else the error.
    ///
    /// Spread placement fans out to the whole roster and keeps every
    /// answer: nodes hold disjoint shares. Replicated placement walks the
    /// dataset's replica set in rank order and stops at the first answer:
    /// every replica holds the whole dataset, so a second answer would
    /// R-count it, and any R−1 node failures still leave a reader.
    ///
    /// A node still replaying its WAL would answer for a *prefix* of its
    /// acknowledged data, silently under-weighting a union or a sum. It
    /// is sent a stats probe in the query's slot instead: it contributes
    /// nothing this round, and its answer refreshes the replay flag, so
    /// recovering → alive converges through the queries themselves with
    /// no background prober.
    fn ask(
        &self,
        name: &str,
        request_for: impl Fn(usize) -> Request + Sync,
    ) -> Result<Vec<(usize, Response)>, EngineError> {
        let replicated = self.replication >= 2;
        let nodes = self.roster();
        let for_slot = |idx: usize| match nodes[idx].is_recovering() {
            true => Request::Stats { dataset: None },
            false => request_for(idx),
        };
        let mut saw_dataset_miss = false;
        let mut last_failure = None;
        // Sorts one node's outcome: a payload, or nothing (and why), or
        // an error that fails the whole query.
        let mut triage = |idx: usize, outcome| match outcome {
            Ok(Response::Stats { datasets, .. }) => {
                nodes[idx].set_recovering(datasets.iter().any(|d| d.recovering));
                last_failure = Some(EngineError::Remote {
                    node: nodes[idx].addr().to_owned(),
                    message: "node is recovering (WAL replay in progress)".into(),
                });
                Ok(None)
            }
            Ok(response) => Ok(Some((idx, response))),
            Err(e) => match self.node_error(idx, name, e) {
                // Normal topology: this node never received a block of
                // the dataset (or hasn't processed one yet).
                EngineError::UnknownDataset(_) | EngineError::NoData { .. } => {
                    saw_dataset_miss = true;
                    Ok(None)
                }
                // A down node must not fail the whole query: what the
                // survivors hold still answers for the data they hold.
                failure @ EngineError::Remote { .. } => {
                    last_failure = Some(failure);
                    Ok(None)
                }
                // Anything else the node *decided* is final.
                fatal => Err(fatal),
            },
        };
        let mut answers = Vec::new();
        if replicated {
            let replicas = self.fleet.lock().expect("fleet map lock").replicas(name);
            for idx in replicas {
                // A replaying replica is probed first, and asked only
                // once it reports caught up.
                if nodes[idx].is_recovering() {
                    triage(idx, self.node_request(idx, &for_slot(idx)))?;
                    if nodes[idx].is_recovering() {
                        continue;
                    }
                }
                answers.extend(triage(idx, self.node_request(idx, &for_slot(idx)))?);
                if !answers.is_empty() {
                    break;
                }
            }
        } else {
            for (idx, outcome) in self
                .exchange(&self.everyone(), for_slot)
                .into_iter()
                .enumerate()
            {
                answers.extend(triage(idx, outcome)?);
            }
        }
        if !answers.is_empty() {
            return Ok(answers);
        }
        // A miss is the normal answer of a node a spread dataset never
        // reached, so there it outranks a failure elsewhere; every
        // replica should hold the dataset, so there a failure is the
        // better explanation.
        if saw_dataset_miss && !(replicated && last_failure.is_some()) {
            return Err(EngineError::NoData {
                dataset: name.to_owned(),
            });
        }
        Err(last_failure.unwrap_or(EngineError::Unavailable))
    }
}

/// The fleet as a [`QuerySource`] and a [`WriteSink`]: parts and prices
/// both come from the nodes ([`Coordinator::ask`]); a batch goes to one
/// node dealt by capacity, or to a whole replica set.
struct Fleet<'a>(&'a Coordinator);

impl QuerySource for Fleet<'_> {
    type Dataset = Route;

    fn resolve(&self, name: &str) -> Result<Arc<Route>, EngineError> {
        self.0.write.get(name)
    }

    fn state(&self, route: &Route) -> Option<QueryState> {
        Some(route.query_state(self.0.fleet_epoch(), self.0.health_fingerprint()))
    }

    /// Every answering node's serving compression, each under its own
    /// stream of the request seed ([`node_seed`]), in roster order.
    fn parts(
        &self,
        name: &str,
        _route: &Route,
        seed: u64,
        method: Option<&Method>,
    ) -> Result<Vec<Coreset>, EngineError> {
        let answers = self.0.ask(name, |idx| Request::Compress {
            dataset: name.to_owned(),
            method: method.cloned(),
            seed: Some(node_seed(seed, idx)),
        })?;
        answers
            .into_iter()
            .map(|(idx, answer)| self.0.node_part(idx, answer))
            .collect()
    }

    /// Prices the centers where the data is and sums the answers, so only
    /// scalars cross the network: cost is additive over a partition, so
    /// the sum is the cost on the union of the per-node coresets.
    fn price(
        &self,
        name: &str,
        _route: &Route,
        centers: &Points,
        kind: CostKind,
        _summary: &dyn Fn() -> Result<Coreset, EngineError>,
    ) -> Result<(f64, usize), EngineError> {
        let request = Request::Cost {
            dataset: name.to_owned(),
            centers: centers.iter().map(<[f64]>::to_vec).collect(),
            kind: Some(kind),
        };
        let mut priced = (0.0, 0);
        for (idx, answer) in self.0.ask(name, |_| request.clone())? {
            match answer {
                Response::Cost {
                    cost,
                    coreset_points,
                    ..
                } => priced = (priced.0 + cost, priced.1 + coreset_points),
                other => return Err(self.0.unexpected(idx, other)),
            }
        }
        Ok(priced)
    }
}

/// A deterministic per-node seed stream: distinct nodes draw distinct
/// compressions for one request seed, reproducibly, on a stream disjoint
/// from the coordinator's solve stream.
fn node_seed(seed: u64, node_idx: usize) -> u64 {
    seed ^ NODE_STREAM.wrapping_mul(node_idx as u64 + 1)
}

/// Folds one node's report of a dataset into the fleet aggregate.
///
/// Spread placement **sums**: nodes hold disjoint shares, so the totals
/// add up and the `(snapshot, record)` state epoch inherits each node's
/// monotonicity. The sums saturate — counts at `u64::MAX`, weight at
/// `f64::MAX` — so a buggy or hostile node degrades the aggregate instead
/// of panicking the coordinator (debug builds), wrapping the epoch
/// backward (release builds) or reporting an infinity no dialect can
/// carry. Replicated placement takes the **max**: replicas hold the
/// *same* data, and mid-migration a freshly seeded replica reports a small
/// epoch — summing would both R-count and jump backward as replica sets
/// change, while the max is the most-advanced copy and stays monotone
/// through membership churn. Either way any replaying node makes the
/// dataset `recovering`, and the per-shard lists concatenate.
fn fold_stats(into: &mut DatasetStats, from: &DatasetStats, replicated: bool) {
    let count = |a: u64, b: u64| {
        if replicated {
            a.max(b)
        } else {
            a.saturating_add(b)
        }
    };
    let size = |a: usize, b: usize| {
        if replicated {
            a.max(b)
        } else {
            a.saturating_add(b)
        }
    };
    into.shards = size(into.shards, from.shards);
    into.ingested_points = count(into.ingested_points, from.ingested_points);
    into.ingested_weight = if replicated {
        into.ingested_weight.max(from.ingested_weight)
    } else {
        (into.ingested_weight + from.ingested_weight).min(f64::MAX)
    };
    into.stored_points = size(into.stored_points, from.stored_points);
    into.state_epoch = (
        count(into.state_epoch.0, from.state_epoch.0),
        count(into.state_epoch.1, from.state_epoch.1),
    );
    into.recovering |= from.recovering;
    into.summaries_per_shard
        .extend_from_slice(&from.summaries_per_shard);
    into.queue_depth_per_shard
        .extend_from_slice(&from.queue_depth_per_shard);
}

impl Coordinator {
    /// [`Backend::ingest`] without the exactly-once identity or epoch
    /// assertion — the at-least-once convenience call most in-process
    /// callers (and the pre-fleet API) use.
    pub fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
    ) -> Result<(u64, f64), EngineError> {
        Backend::ingest(self, name, batch, plan, None, None)
            .map(|outcome| (outcome.total_points, outcome.total_weight))
    }
}

impl WriteSink for Fleet<'_> {
    type Dataset = Route;

    /// Nothing to reserve: nodes create their copy when a batch reaches
    /// them.
    fn open(&self, _name: &str, ledger: Ledger) -> Result<Route, EngineError> {
        Ok(ledger)
    }

    /// At R ≥ 2 the batch fans to every member of the dataset's replica
    /// set and is accepted as soon as *one* replica applied it (a replica
    /// that missed it is repair debt, counted on
    /// `fc_replica_write_failures_total`, healed by the client's own
    /// retries). At R = 1 it goes to one node ([`FleetMap::spread`]); an
    /// unreachable or still-overloaded node fails over to the next active
    /// one of positive capacity, and the write fails only when every such
    /// node refused it.
    ///
    /// Without an `ident`, delivery is at-least-once: a node that dies
    /// after applying but before replying gets the batch re-sent
    /// elsewhere, briefly overweighting it (more data, not corrupted
    /// data).
    fn deliver(
        &self,
        name: &str,
        route: &Route,
        batch: &Dataset,
        ident: Option<&IngestIdent>,
    ) -> Result<(), EngineError> {
        use ClientError::{Io, Overloaded, Protocol};
        let coordinator = self.0;
        let request = ingest_request(name, route, batch, ident)?;
        let mut last = EngineError::Unavailable;
        if coordinator.replication >= 2 {
            let replicas = coordinator
                .fleet
                .lock()
                .expect("fleet map lock")
                .replicas(name);
            let mut accepted = false;
            let outcomes = coordinator.exchange(&replicas, |_| request.clone());
            for (&idx, outcome) in replicas.iter().zip(outcomes) {
                last = match outcome {
                    Ok(Response::Ingested { .. }) => {
                        accepted = true;
                        continue;
                    }
                    Ok(other) => coordinator.unexpected(idx, other),
                    Err(e) => coordinator.node_error(idx, name, e),
                };
                coordinator.metrics.replica_write_failures.incr();
            }
            return if accepted { Ok(()) } else { Err(last) };
        }
        // Staggered by name, so datasets do not all start at node 0.
        let position = fnv64(name).wrapping_add(route.next_slot() as u64);
        let order = coordinator
            .fleet
            .lock()
            .expect("fleet map lock")
            .spread(position);
        for idx in order {
            match coordinator.node_request(idx, &request) {
                Ok(Response::Ingested { .. }) => return Ok(()),
                Ok(other) => return Err(coordinator.unexpected(idx, other)),
                // Socket failures and persistent overload fail over to the
                // next node; anything the node *decided* (plan conflict,
                // dimension mismatch, …) is final.
                Err(e @ (Io(_) | Protocol(_) | Overloaded(_))) => {
                    last = coordinator.node_error(idx, name, e)
                }
                Err(e) => return Err(coordinator.node_error(idx, name, e)),
            }
        }
        Err(last)
    }

    /// Under spread routing a retry could land on a node that never saw
    /// the original and apply it twice, so a duplicate stops here. Under
    /// replication it goes to the same replica set again: the node-side
    /// gates make it a no-op everywhere it already landed and a repair
    /// everywhere it did not.
    fn repairs(&self) -> bool {
        self.0.replication >= 2
    }

    /// No node accepted a byte of the dataset.
    fn discard(&self, _name: &str, _route: Arc<Route>) {}
}

/// The node-bound form of one admitted batch.
fn ingest_request(
    name: &str,
    route: &Route,
    batch: &Dataset,
    ident: Option<&IngestIdent>,
) -> Result<Request, EngineError> {
    Ok(Request::Ingest {
        dataset: name.to_owned(),
        block: wire_block(batch)
            .map_err(|e| EngineError::InvalidArgument(format!("invalid ingest batch: {e}")))?,
        // The creating ingest's plan rides every routed batch: the
        // round-robin node receiving its first block of this dataset
        // mid-stream still creates it under the right plan, and a node
        // that lost its copy (restart) recreates it correctly on the next
        // routed block.
        plan: route.sent_plan().cloned(),
        // The node-side gate dedupes per node; the coordinator does not
        // re-assert the epoch downstream (plain engines ignore it anyway).
        ident: ident.cloned(),
        epoch: None,
    })
}

impl Backend for Coordinator {
    /// Admits the batch through [`fc_service::ingest`] and forwards it to
    /// the fleet, after the one refusal that is the coordinator's own: a
    /// request asserting a stale placement epoch.
    fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&IngestIdent>,
        epoch: Option<u64>,
    ) -> Result<IngestOutcome, EngineError> {
        if let Some(requested) = epoch {
            let current = self.fleet_epoch();
            if requested != current {
                return Err(EngineError::WrongEpoch { requested, current });
            }
        }
        self.write.ingest(&Fleet(self), name, batch, plan, ident)
    }

    fn coreset(
        &self,
        name: &str,
        seed: Option<u64>,
        method: Option<&Method>,
    ) -> Result<(Coreset, u64, Method), EngineError> {
        self.query.coreset(&Fleet(self), name, seed, method)
    }

    /// Clusters the unioned per-node coresets coordinator-side: the final
    /// solve of the MapReduce scheme.
    fn cluster(
        &self,
        name: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        solver: Option<Solver>,
        seed: Option<u64>,
    ) -> Result<ClusterOutcome, EngineError> {
        self.query
            .cluster(&Fleet(self), name, k, kind, solver, seed)
    }

    /// Prices the centers node-side: only scalars cross the network.
    fn cost(
        &self,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError> {
        self.query.cost(&Fleet(self), name, centers, kind)
    }

    fn dataset_stats(&self, name: &str) -> Result<DatasetStats, EngineError> {
        self.aggregate_stats(Some(name))?
            .pop()
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))
    }

    fn stats(&self) -> Result<Vec<DatasetStats>, EngineError> {
        self.aggregate_stats(None)
    }

    /// The coordinator process's own lifetime counters — acknowledged
    /// ingests and queries served *by this coordinator*, not a fleet
    /// aggregate (each node reports its own on its own `stats`).
    fn server_stats(&self) -> Option<fc_service::ServerStats> {
        Some(self.write.server_stats(&self.query, self.fleet_epoch()))
    }

    /// Drops the dataset everywhere it is reachable. When some node could
    /// not be asked (down or partitioned), the route is still removed —
    /// the client's intent is clear — but the call errors so the caller
    /// knows the drop is incomplete: a *partitioned* (not restarted) node
    /// keeps its engine state and would otherwise resurrect the dropped
    /// data into later unions once connectivity returns. Re-issue the
    /// drop when the node is back; a restarted node comes back empty
    /// anyway.
    fn drop_dataset(&self, name: &str) -> Result<(), EngineError> {
        let route = self.write.remove(name);
        if let Some(route) = &route {
            self.query.forget(route.instance());
        }
        let request = Request::DropDataset {
            dataset: name.to_owned(),
        };
        let outcomes = self.exchange(&self.everyone(), |_| request.clone());
        // Unknown-dataset answers are normal (the node never held a
        // block); only a confirmed drop counts, and only an answered node
        // counts as covered.
        let mut dropped_anywhere = false;
        let mut unreachable = None;
        for (idx, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(Response::Dropped { .. }) => dropped_anywhere = true,
                Ok(_) | Err(ClientError::Server { .. }) => {}
                Err(_) => unreachable = Some(idx),
            }
        }
        if let Some(idx) = unreachable {
            return Err(EngineError::Remote {
                node: self.node_addr(idx),
                message: format!(
                    "dataset `{name}` was dropped on every reachable node, but this \
                     node could not be asked — re-issue the drop when it returns"
                ),
            });
        }
        if route.is_some() || dropped_anywhere {
            Ok(())
        } else {
            Err(EngineError::UnknownDataset(name.to_owned()))
        }
    }

    /// Admits `addr` into the fleet at the next epoch. Under replicated
    /// placement, every dataset the new map ranks the newcomer for gets a
    /// serving coreset pulled onto it from a surviving replica — coreset
    /// composability makes the move `O(m)` per dataset, not `O(data)`. A
    /// pull that fails leaves repair debt (healed by idented client
    /// retries and counted on `fc_replica_write_failures_total`), never a
    /// failed admission.
    fn add_node(
        &self,
        addr: &str,
        capacity: Option<f64>,
    ) -> Result<(u64, usize, usize), EngineError> {
        let capacity = capacity.unwrap_or(1.0);
        if !capacity.is_finite() || capacity < 0.0 {
            return Err(EngineError::InvalidArgument(format!(
                "node `{addr}` has invalid capacity {capacity}"
            )));
        }
        let (epoch, new_idx, members) = {
            let mut fleet = self.fleet.lock().expect("fleet map lock");
            let epoch = fleet
                .add_member(addr, capacity)
                .map_err(|e| EngineError::InvalidArgument(e.to_string()))?;
            let new_idx = fleet
                .index_of(addr)
                .expect("freshly added member is in the roster");
            let mut nodes = self.nodes.write().expect("node roster lock");
            debug_assert_eq!(
                nodes.len(),
                new_idx,
                "roster indices track fleet map member indices"
            );
            nodes.push(Arc::new(NodeHandle::new(
                addr.to_owned(),
                self.timeouts,
                self.binary_wire,
            )));
            self.metrics.push_node(addr);
            (epoch, new_idx, fleet.members().len())
        };
        let mut migrated = 0;
        if self.replication >= 2 {
            for (name, route) in self.write.snapshot() {
                let replicas = self.fleet.lock().expect("fleet map lock").replicas(&name);
                if !replicas.contains(&new_idx) {
                    continue;
                }
                let sources: Vec<usize> =
                    replicas.iter().copied().filter(|&i| i != new_idx).collect();
                match self.migrate_dataset(&name, &route, &sources, new_idx, epoch) {
                    Ok(true) => migrated += 1,
                    Ok(false) => {}
                    Err(_) => self.metrics.replica_write_failures.incr(),
                }
            }
        }
        self.refresh_fleet_gauges();
        Ok((epoch, members, migrated))
    }

    /// Marks `addr` draining at the next epoch: it leaves placement (no
    /// new writes) but stays addressable, so its data can be shipped off
    /// as serving coresets. Under replicated placement each dataset it
    /// held gets a copy pulled onto the member the new map promotes
    /// (sourced from a surviving replica first); under spread routing the
    /// draining node's own share of every dataset is evacuated. Only
    /// after a dataset's move succeeds is its copy dropped from the
    /// draining node — a failed move leaves the data in place (the node
    /// is still addressable), so a drain can degrade to "slower" but
    /// never to "lost".
    fn drain_node(&self, addr: &str) -> Result<(u64, usize, usize), EngineError> {
        let routes = self.write.snapshot();
        let (epoch, drained_idx, members, moves) = {
            let mut fleet = self.fleet.lock().expect("fleet map lock");
            let drained_idx = fleet.index_of(addr).ok_or_else(|| {
                EngineError::InvalidArgument(format!("member `{addr}` is not in the fleet"))
            })?;
            // Replica sets as placed *before* the drain — the only moment
            // we can still see which datasets the drained member held.
            let before: Vec<Vec<usize>> = if self.replication >= 2 {
                routes
                    .iter()
                    .map(|(name, _)| fleet.replicas(name))
                    .collect()
            } else {
                Vec::new()
            };
            let epoch = fleet
                .drain_member(addr)
                .map_err(|e| EngineError::InvalidArgument(e.to_string()))?;
            let moves: Vec<PlacementMove> = if self.replication >= 2 {
                routes
                    .iter()
                    .zip(before)
                    .filter(|(_, old)| old.contains(&drained_idx))
                    .map(|((name, route), old)| {
                        (name.clone(), Arc::clone(route), old, fleet.replicas(name))
                    })
                    .collect()
            } else {
                routes
                    .iter()
                    .map(|(name, route)| {
                        (
                            name.clone(),
                            Arc::clone(route),
                            vec![drained_idx],
                            fleet.replicas(name),
                        )
                    })
                    .collect()
            };
            (epoch, drained_idx, fleet.members().len(), moves)
        };
        let mut migrated = 0;
        for (name, route, old, new) in moves {
            // Survivors first (longest-lived copies), the draining node
            // itself as the last-resort source.
            let mut sources: Vec<usize> =
                old.iter().copied().filter(|&i| i != drained_idx).collect();
            sources.push(drained_idx);
            let newcomers: Vec<usize> = new.iter().copied().filter(|i| !old.contains(i)).collect();
            let mut moved = true;
            let mut evacuated = self.replication < 2;
            for &target in &newcomers {
                match self.migrate_dataset(&name, &route, &sources, target, epoch) {
                    Ok(did) => evacuated = did || self.replication >= 2,
                    Err(_) => {
                        moved = false;
                        self.metrics.replica_write_failures.incr();
                    }
                }
            }
            if !moved || !evacuated {
                continue;
            }
            // The drained copy is redundant everywhere the new map reads;
            // retire it so a later fan-out cannot resurrect it.
            match self.node_request(
                drained_idx,
                &Request::DropDataset {
                    dataset: name.clone(),
                },
            ) {
                Ok(_) | Err(ClientError::Server { .. }) => migrated += 1,
                Err(_) => self.metrics.replica_write_failures.incr(),
            }
        }
        self.refresh_fleet_gauges();
        Ok((epoch, members, migrated))
    }

    fn telemetry(&self) -> Option<Arc<Telemetry>> {
        Some(Arc::clone(&self.metrics.shared))
    }

    /// The coordinator's own registry and trace log, with every node's
    /// `metrics` payload embedded under `"nodes"` (keyed by address) — one
    /// wire call observes the whole fleet. A node that is unreachable, or
    /// too old to know the `metrics` op, contributes its error string
    /// instead of a payload.
    fn metrics(&self) -> Option<Value> {
        self.refresh_fleet_gauges();
        let mut own = match self.metrics.shared.to_value() {
            Value::Object(map) => map,
            other => return Some(other),
        };
        let nodes: BTreeMap<String, Value> = self
            .roster()
            .iter()
            .zip(self.exchange(&self.everyone(), |_| Request::Metrics))
            .map(|(node, outcome)| {
                let payload = match outcome {
                    Ok(Response::Metrics { metrics }) => metrics,
                    Ok(other) => Value::String(format!("unexpected response {other:?}")),
                    Err(e) => Value::String(e.to_string()),
                };
                (node.addr().to_owned(), payload)
            })
            .collect();
        own.insert("nodes".to_owned(), Value::Object(nodes));
        Some(Value::Object(own))
    }
}

impl Coordinator {
    /// Point-in-time fleet gauges, refreshed whenever the registry is
    /// rendered or serialized (not on a background timer).
    fn refresh_fleet_gauges(&self) {
        let registry = &self.metrics.shared.registry;
        let nodes = self.roster();
        registry.gauge("fc_nodes").set(nodes.len() as u64);
        let alive = nodes
            .iter()
            .filter(|n| n.health().0 == NodeHealth::Alive)
            .count();
        registry.gauge("fc_nodes_alive").set(alive as u64);
        let (epoch, active) = {
            let fleet = self.fleet.lock().expect("fleet map lock");
            (fleet.epoch(), fleet.active_len())
        };
        registry.gauge("fc_fleet_epoch").set(epoch);
        registry.gauge("fc_fleet_active").set(active as u64);
        registry
            .gauge("fc_fleet_replication")
            .set(self.replication as u64);
    }

    /// Ships a serving coreset of `name` from the first source that holds
    /// it onto `target`, identified as the fleet's own migration client
    /// (`client = "fc-fleet-migrate"`, `seq = epoch`) so the target's
    /// exactly-once gate collapses a re-run of the same epoch's migration
    /// into a no-op. Returns `Ok(false)` when no source holds any data —
    /// nothing to move is not a failure.
    fn migrate_dataset(
        &self,
        name: &str,
        route: &Route,
        sources: &[usize],
        target: usize,
        epoch: u64,
    ) -> Result<bool, EngineError> {
        let mut last: Option<EngineError> = None;
        for &src in sources {
            if src == target {
                continue;
            }
            let request = Request::Compress {
                dataset: name.to_owned(),
                method: None,
                seed: Some(node_seed(self.query.next_seed(), src)),
            };
            let part = match self.node_request(src, &request) {
                Ok(answer) => self.node_part(src, answer),
                Err(e) => Err(self.node_error(src, name, e)),
            };
            let part = match part {
                Ok(part) => part,
                // This source has nothing of the dataset; the next one may.
                Err(EngineError::UnknownDataset(_) | EngineError::NoData { .. }) => continue,
                Err(err) => {
                    last = Some(err);
                    continue;
                }
            };
            // Identified as the fleet's own migration client.
            let migration = IngestIdent {
                client: MIGRATE_CLIENT.to_owned(),
                seq: epoch,
            };
            let ingest = ingest_request(name, route, part.dataset(), Some(&migration))?;
            return match self.node_request(target, &ingest) {
                Ok(Response::Ingested { .. }) => {
                    self.metrics.migrations.incr();
                    Ok(true)
                }
                Ok(other) => Err(self.unexpected(target, other)),
                Err(e) => Err(self.node_error(target, name, e)),
            };
        }
        match last {
            Some(err) => Err(err),
            None => Ok(false),
        }
    }

    /// Prometheus text exposition of the coordinator's registry — per-op
    /// and per-node latency histograms plus fleet gauges. Node registries
    /// are *not* inlined here: each node serves its own scrape endpoint
    /// (the JSON `metrics` op is the fleet-wide view).
    pub fn render_prometheus(&self) -> String {
        self.refresh_fleet_gauges();
        self.metrics.shared.registry.render_prometheus()
    }

    /// Fans `stats` out to the fleet and folds the per-node reports into
    /// one [`DatasetStats`] per dataset (`which`, or every one), in name
    /// order, per-node breakdown attached. A route no reachable node
    /// reported (its only holders are down) still appears, with the
    /// coordinator's acknowledgement counters: nothing serves it right
    /// now, but the data *was* accepted.
    ///
    /// Health in the per-node rows is the *worse* of the node's health
    /// when the request started and what this request's probe revealed: a
    /// node that just recovered still shows its last recorded trouble
    /// once, and a node that just died shows down immediately.
    fn aggregate_stats(&self, which: Option<&str>) -> Result<Vec<DatasetStats>, EngineError> {
        let nodes = self.roster();
        let pre: Vec<(NodeHealth, Option<String>)> =
            nodes.iter().map(|node| node.health()).collect();
        let outcomes = self.exchange(&self.everyone(), |_| Request::Stats {
            dataset: which.map(str::to_owned),
        });
        // Per node: its reported datasets (empty when it answered
        // unknown-dataset) or None when unreachable.
        let mut per_node: Vec<Option<Vec<DatasetStats>>> = Vec::with_capacity(nodes.len());
        for (idx, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(Response::Stats { datasets, .. }) => {
                    // The node-level replay flag is cleared only by a
                    // *full* report saying every dataset caught up; a
                    // filtered report can set it (one dataset replaying
                    // proves the node is), never clear it.
                    let any = datasets.iter().any(|d| d.recovering);
                    if which.is_none() {
                        nodes[idx].set_recovering(any);
                    } else if any {
                        nodes[idx].set_recovering(true);
                    }
                    per_node.push(Some(datasets));
                }
                Ok(other) => return Err(self.unexpected(idx, other)),
                Err(e) => match self.node_error(idx, which.unwrap_or(""), e) {
                    EngineError::UnknownDataset(_) | EngineError::NoData { .. } => {
                        per_node.push(Some(Vec::new()))
                    }
                    _ => per_node.push(None),
                },
            }
        }
        // health[i]: pre-request state unless this probe failed — except
        // the replay flag, where this probe's report is the freshest
        // evidence there is.
        let health: Vec<(NodeHealth, Option<String>)> = per_node
            .iter()
            .enumerate()
            .map(|(idx, report)| match (report, pre[idx].clone()) {
                (None, _) => nodes[idx].health(),
                (Some(_), (NodeHealth::Alive, last_error)) if nodes[idx].is_recovering() => {
                    (NodeHealth::Recovering, last_error)
                }
                (Some(_), pre) => pre,
            })
            .collect();
        // Zeroed per-node rows carry identity and health, to be filled
        // from each node's report.
        let blank = |name: &str, dim, plan| DatasetStats {
            dataset: name.to_owned(),
            dim,
            plan,
            shards: 0,
            ingested_points: 0,
            ingested_weight: 0.0,
            stored_points: 0,
            summaries_per_shard: Vec::new(),
            queue_depth_per_shard: Vec::new(),
            state_epoch: (0, 0),
            recovering: false,
            nodes: nodes
                .iter()
                .zip(&health)
                .map(|(node, (health, last_error))| NodeStats {
                    node: node.addr().to_owned(),
                    health: *health,
                    last_error: last_error.clone(),
                    shards: 0,
                    ingested_points: 0,
                    ingested_weight: 0.0,
                    stored_points: 0,
                })
                .collect(),
        };
        let mut merged: BTreeMap<String, DatasetStats> = BTreeMap::new();
        for (idx, report) in per_node.iter().enumerate() {
            let Some(report) = report else { continue };
            for stats in report {
                let entry = merged.entry(stats.dataset.clone()).or_insert_with(|| {
                    // The coordinator's route is authoritative for the
                    // plan; fall back to the first reporter for datasets
                    // ingested around the coordinator.
                    let plan = self
                        .write
                        .get(&stats.dataset)
                        .map_or_else(|_| stats.plan.clone(), |route| route.plan().clone());
                    blank(&stats.dataset, stats.dim, plan)
                });
                fold_stats(entry, stats, self.replication >= 2);
                let row = &mut entry.nodes[idx];
                row.shards = stats.shards;
                row.ingested_points = stats.ingested_points;
                row.ingested_weight = stats.ingested_weight;
                row.stored_points = stats.stored_points;
            }
        }
        for (name, route) in self.write.snapshot() {
            if which.is_some_and(|which| which != name) || merged.contains_key(&name) {
                continue;
            }
            let (ingested_points, ingested_weight) = route.totals();
            let stats = DatasetStats {
                ingested_points,
                ingested_weight,
                ..blank(&name, route.dim(), route.plan().clone())
            };
            merged.insert(name, stats);
        }
        Ok(merged.into_values().collect())
    }
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("nodes", &self.roster())
            .field("replication", &self.replication)
            .field("fleet_epoch", &self.fleet_epoch())
            .field("default_plan", &self.default_plan().to_json())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::methods::Uniform;
    use fc_core::plan::PlanBuilder;
    use fc_service::{Engine, ServerHandle, ServiceClient};

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

    fn node_server() -> ServerHandle {
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 2,
                k: 4,
                m_scalar: 25,
                ..Default::default()
            },
            Arc::new(Uniform),
        )
        .unwrap();
        ServerHandle::bind("127.0.0.1:0", engine).unwrap()
    }

    fn coordinator_over(servers: &[&ServerHandle]) -> Coordinator {
        weighted_coordinator_over(servers, &vec![1.0; servers.len()])
    }

    /// A coordinator over `servers`, paired positionally with
    /// `capacities`.
    fn weighted_coordinator_over(servers: &[&ServerHandle], capacities: &[f64]) -> Coordinator {
        let mut config = CoordinatorConfig::new(servers.iter().map(|s| s.addr().to_string()));
        for (spec, &capacity) in config.nodes.iter_mut().zip(capacities) {
            spec.capacity = capacity;
        }
        config.default_plan = PlanBuilder::new(4)
            .m_scalar(25)
            .method(Method::Uniform)
            .build()
            .unwrap();
        Coordinator::new(config).unwrap()
    }

    #[test]
    fn round_robin_spreads_blocks_and_stats_aggregate_per_node() {
        let a = node_server();
        let b = node_server();
        let coordinator = coordinator_over(&[&a, &b]);
        let data = blobs(200);
        for block in data.chunks(200) {
            coordinator.ingest("d", &block, None).unwrap();
        }
        // 4 blocks round-robin over 2 nodes: both hold data.
        let stats = coordinator.dataset_stats("d").unwrap();
        assert_eq!(stats.ingested_points, data.len() as u64);
        assert_eq!(stats.nodes.len(), 2);
        for row in &stats.nodes {
            assert_eq!(row.health, NodeHealth::Alive, "{row:?}");
            assert!(row.ingested_points > 0, "{row:?}");
        }
        assert_eq!(stats.shards, 4, "two nodes x two shards");
        // The union query answers, within the plan's serving size.
        let (coreset, seed, method) = coordinator.coreset("d", Some(9), None).unwrap();
        assert_eq!(seed, 9);
        assert_eq!(method, Method::Uniform);
        assert!(!coreset.is_empty());
        assert!(coreset.len() <= 4 * 25);
        // Reproducible per seed.
        let (again, _, _) = coordinator.coreset("d", Some(9), None).unwrap();
        assert_eq!(coreset.dataset(), again.dataset());
        // Cost sums per-node contributions over the same dataset.
        let centers = Points::from_flat(vec![0.1, 0.1, 100.1, 0.1], 2).unwrap();
        let (cost, kind, priced) = coordinator.cost("d", &centers, None).unwrap();
        assert!(cost > 0.0);
        assert_eq!(kind, CostKind::KMeans);
        assert!(priced > 0);
        // Drop clears every node.
        coordinator.drop_dataset("d").unwrap();
        assert!(matches!(
            coordinator.dataset_stats("d").unwrap_err(),
            EngineError::UnknownDataset(_)
        ));
        assert!(a.engine().dataset_names().is_empty());
        assert!(b.engine().dataset_names().is_empty());
        a.shutdown();
        b.shutdown();
    }

    /// Ingests blocks of 1, 2, 4, …, 2¹¹ points into `name`, so each
    /// node's `ingested_points` is the bitmask of the blocks it received.
    fn ingest_bitmask_blocks(coordinator: &Coordinator, name: &str) {
        for b in 0..12 {
            let flat = (0..1usize << b)
                .flat_map(|i| [i as f64, b as f64])
                .collect();
            let block = Dataset::from_flat(flat, 2).unwrap();
            coordinator.ingest(name, &block, None).unwrap();
        }
    }

    /// Each node's `ingested_points` for `name`, in roster order.
    fn per_node_points(coordinator: &Coordinator, name: &str) -> Vec<u64> {
        let stats = coordinator.dataset_stats(name).unwrap();
        stats.nodes.iter().map(|row| row.ingested_points).collect()
    }

    #[test]
    fn equal_capacities_deal_blocks_round_robin_from_the_name_hash() {
        let servers = [node_server(), node_server(), node_server()];
        let coordinator = coordinator_over(&servers.iter().collect::<Vec<_>>());
        for name in ["seq", "another-dataset", "d"] {
            ingest_bitmask_blocks(&coordinator, name);
            let mut expected = [0u64; 3];
            for b in 0..12u64 {
                expected[(fnv64(name).wrapping_add(b) % 3) as usize] |= 1 << b;
            }
            assert_eq!(per_node_points(&coordinator, name), expected, "{name}");
        }
        for server in servers {
            server.shutdown();
        }
    }

    #[test]
    fn spread_shares_follow_capacity() {
        let a = node_server();
        let b = node_server();
        let coordinator = weighted_coordinator_over(&[&a, &b], &[1.0, 3.0]);
        let point = Dataset::from_flat(vec![0.5, 0.5], 2).unwrap();
        for _ in 0..400 {
            coordinator.ingest("shares", &point, None).unwrap();
        }
        let points = per_node_points(&coordinator, "shares");
        assert_eq!(points.iter().sum::<u64>(), 400);
        assert!((95..=105).contains(&points[0]), "1:3 dealt {points:?}");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn an_added_zero_capacity_node_takes_no_writes() {
        for replication in [1, 2] {
            let servers = [node_server(), node_server(), node_server()];
            let [a, b, c] = &servers;
            let coordinator = match replication {
                1 => coordinator_over(&[a, b]),
                _ => replicated_coordinator(&[a, b]),
            };
            Backend::add_node(&coordinator, &c.addr().to_string(), Some(0.0)).unwrap();
            for d in 0..20 {
                ingest_bitmask_blocks(&coordinator, &format!("d{d}"));
                assert!(!coordinator
                    .replicas_of(&format!("d{d}"))
                    .contains(&c.addr().to_string()));
            }
            assert!(c.engine().dataset_names().is_empty(), "R = {replication}");
            for server in servers {
                server.shutdown();
            }
        }
    }

    #[test]
    fn routing_is_a_function_of_the_name_and_slot_alone() {
        let capacities = [1.0, 3.0, 2.0];
        let first = [node_server(), node_server(), node_server()];
        let second = [node_server(), node_server(), node_server()];
        let alone = weighted_coordinator_over(&first.iter().collect::<Vec<_>>(), &capacities);
        let interleaved =
            weighted_coordinator_over(&second.iter().collect::<Vec<_>>(), &capacities);
        ingest_bitmask_blocks(&alone, "x");
        // The same blocks of `x`, with another dataset's writes between them.
        let other = Dataset::from_flat(vec![1.0, 1.0], 2).unwrap();
        for b in 0..12 {
            let flat = (0..1usize << b)
                .flat_map(|i| [i as f64, b as f64])
                .collect();
            interleaved
                .ingest("x", &Dataset::from_flat(flat, 2).unwrap(), None)
                .unwrap();
            for _ in 0..b % 3 {
                interleaved.ingest("y", &other, None).unwrap();
            }
        }
        let dealt = per_node_points(&alone, "x");
        assert_eq!(dealt, per_node_points(&interleaved, "x"));
        assert!(dealt.iter().all(|&mask| mask > 0), "{dealt:?}");
        for server in first.into_iter().chain(second) {
            server.shutdown();
        }
    }

    #[test]
    fn effective_plan_is_forwarded_to_every_routed_node() {
        let a = node_server();
        let b = node_server();
        let coordinator = coordinator_over(&[&a, &b]);
        let plan = PlanBuilder::new(2)
            .m_scalar(10)
            .method(Method::Lightweight)
            .solver(Solver::Hamerly)
            .build()
            .unwrap();
        // Only the creating ingest carries the plan; the later plan-less
        // blocks still create the dataset under it on the *other* node.
        let mut blocks = blobs(100).chunks(100).into_iter();
        coordinator
            .ingest("planned", &blocks.next().unwrap(), Some(&plan))
            .unwrap();
        for block in blocks {
            coordinator.ingest("planned", &block, None).unwrap();
        }
        for node in [&a, &b] {
            assert_eq!(
                node.engine().dataset_plan("planned").unwrap(),
                plan,
                "node {} runs a different plan",
                node.addr()
            );
        }
        // Query defaults resolve from the plan, coordinator-side.
        let outcome = coordinator
            .cluster("planned", None, None, None, Some(3))
            .unwrap();
        assert_eq!(outcome.solution.k(), 2);
        assert_eq!(outcome.solver, Solver::Hamerly);
        // A conflicting plan is rejected without touching the nodes.
        let other = PlanBuilder::new(3).m_scalar(10).build().unwrap();
        match coordinator.ingest("planned", &blobs(10), Some(&other)) {
            Err(EngineError::InvalidArgument(msg)) => {
                assert!(msg.contains("already runs under plan"), "{msg}")
            }
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn capacity_policy_never_routes_to_zero_capacity_nodes() {
        let a = node_server();
        let b = node_server();
        let mut config = CoordinatorConfig::new([a.addr().to_string(), b.addr().to_string()]);
        config.nodes[1].capacity = 0.0;
        config.default_plan = PlanBuilder::new(4)
            .m_scalar(25)
            .method(Method::Uniform)
            .build()
            .unwrap();
        let coordinator = Coordinator::new(config).unwrap();
        for block in blobs(100).chunks(40) {
            coordinator.ingest("weighted", &block, None).unwrap();
        }
        assert_eq!(a.engine().dataset_names(), vec!["weighted".to_owned()]);
        assert!(b.engine().dataset_names().is_empty());
        // Failover honours the weights too: with the only positive-capacity
        // node gone, writes fail rather than leak onto the drained node.
        a.shutdown();
        assert!(coordinator.ingest("weighted", &blobs(10), None).is_err());
        assert!(b.engine().dataset_names().is_empty());
        b.shutdown();
    }

    #[test]
    fn mismatched_batch_dimension_is_rejected_before_routing() {
        let a = node_server();
        let b = node_server();
        let coordinator = coordinator_over(&[&a, &b]);
        coordinator.ingest("d", &blobs(20), None).unwrap();
        // Round-robin would hand the 3-d batch to whichever node has no
        // copy of `d` yet, silently forking the dataset; the coordinator
        // must reject it like a single server does.
        let three_d = Dataset::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
        assert_eq!(
            coordinator.ingest("d", &three_d, None).unwrap_err(),
            EngineError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn configuration_errors_are_rejected() {
        assert!(matches!(
            Coordinator::new(CoordinatorConfig::new(Vec::<String>::new())),
            Err(EngineError::InvalidArgument(_))
        ));
        let mut all_zero = CoordinatorConfig::new(["127.0.0.1:1", "127.0.0.1:2"]);
        all_zero.nodes[0].capacity = 0.0;
        all_zero.nodes[1].capacity = 0.0;
        assert!(matches!(
            Coordinator::new(all_zero),
            Err(EngineError::InvalidArgument(_))
        ));
        let mut bad = CoordinatorConfig::new(["127.0.0.1:1"]);
        bad.nodes[0].capacity = f64::NAN;
        assert!(matches!(
            Coordinator::new(bad),
            Err(EngineError::InvalidArgument(_))
        ));
    }

    #[test]
    fn unknown_dataset_errors_carry_the_engine_vocabulary() {
        let a = node_server();
        let coordinator = coordinator_over(&[&a]);
        assert!(matches!(
            coordinator.coreset("ghost", Some(1), None).unwrap_err(),
            EngineError::UnknownDataset(_)
        ));
        assert!(matches!(
            coordinator.drop_dataset("ghost").unwrap_err(),
            EngineError::UnknownDataset(_)
        ));
        a.shutdown();
    }

    /// One node's report of `d`: `shards` shards of ten stored points
    /// each, one summary and an empty queue per shard.
    fn report(shards: usize, points: u64, weight: f64, state_epoch: (u64, u64)) -> DatasetStats {
        DatasetStats {
            dataset: "d".into(),
            dim: 2,
            plan: PlanBuilder::new(4).build().unwrap(),
            shards,
            ingested_points: points,
            ingested_weight: weight,
            stored_points: 10 * shards,
            summaries_per_shard: vec![1; shards],
            queue_depth_per_shard: vec![0; shards],
            state_epoch,
            recovering: false,
            nodes: Vec::new(),
        }
    }

    /// `reports` folded in order into an empty aggregate; the scalars.
    fn folded(reports: &[DatasetStats], replicated: bool) -> (usize, u64, f64, usize, (u64, u64)) {
        let mut into = report(0, 0, 0.0, (0, 0));
        for from in reports {
            fold_stats(&mut into, from, replicated);
        }
        (
            into.shards,
            into.ingested_points,
            into.ingested_weight,
            into.stored_points,
            into.state_epoch,
        )
    }

    /// Two replicas mid-migration report epochs `(5, 7)` and `(3, 9)`: the
    /// fold must take the component-wise max `(5, 9)`, not the sum
    /// `(8, 16)` the spread path (correctly) produces for disjoint shares.
    /// Summing replicas would R-count *and* jump backward when a freshly
    /// seeded replica (tiny epoch) joins the report.
    #[test]
    fn replicated_stats_merge_takes_max_not_sum() {
        let a = report(3, 12, 2.5, (5, 7));
        let b = report(4, 7, 4.0, (3, 9));
        let (ab, ba) = ([a.clone(), b.clone()], [b, a]);
        assert_eq!(folded(&ab, true), (4, 12, 4.0, 40, (5, 9)));
        assert_eq!(folded(&ab, false), (7, 19, 6.5, 70, (8, 16)));
        // Max and sum both keep the aggregate independent of the order
        // reports arrive in.
        for replicated in [true, false] {
            assert_eq!(folded(&ab, replicated), folded(&ba, replicated));
        }
        // The spread sum saturates instead of wrapping.
        let near_max = [
            report(1, u64::MAX, 1.0, (u64::MAX, 0)),
            report(1, 1, 1.0, (1, 1)),
        ];
        assert_eq!(
            folded(&near_max, false),
            (2, u64::MAX, 2.0, 20, (u64::MAX, 1))
        );
        // And so does weight: two nodes each holding 1e308 of a dataset
        // sum to `f64::MAX`, not to an infinity JSON would write as null.
        let heavy = [report(1, 1, 1e308, (0, 0)), report(1, 1, 1e308, (0, 0))];
        assert_eq!(folded(&heavy, false).2, f64::MAX);
        assert_eq!(folded(&heavy, true).2, 1e308);
        // One replaying node makes the dataset recovering; the per-shard
        // lists concatenate in report order.
        let mut into = report(2, 1, 1.0, (0, 0));
        let mut replaying = report(1, 1, 1.0, (0, 0));
        replaying.recovering = true;
        replaying.queue_depth_per_shard = vec![5];
        fold_stats(&mut into, &replaying, true);
        fold_stats(&mut into, &report(1, 1, 1.0, (0, 0)), true);
        assert!(into.recovering);
        assert_eq!(into.queue_depth_per_shard, [0, 0, 5, 0]);
        assert_eq!(into.summaries_per_shard, [1; 4]);
    }

    /// A dataset two nodes hold at weight 1e308 each — ingested around the
    /// coordinator, which would refuse the total — reads back through a
    /// JSON client: the fleet total clamps at `f64::MAX` instead of going
    /// out as `null`.
    #[test]
    fn fleet_stats_of_an_overflowing_total_weight_stay_decodable() {
        let a = node_server();
        let b = node_server();
        let heavy =
            Dataset::weighted(Points::from_flat(vec![0.0, 0.0], 2).unwrap(), vec![1e308]).unwrap();
        for node in [&a, &b] {
            node.engine().ingest("d", &heavy, None).unwrap();
        }
        let coordinator = coordinator_over(&[&a, &b]);
        let front = ServerHandle::bind_backend("127.0.0.1:0", Arc::new(coordinator)).unwrap();
        let mut client = ServiceClient::connect(front.addr()).unwrap();
        let stats = client.stats(Some("d")).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].ingested_weight, f64::MAX);
        front.shutdown();
        a.shutdown();
        b.shutdown();
    }

    fn replicated_coordinator(servers: &[&ServerHandle]) -> Coordinator {
        let mut config = CoordinatorConfig::new(servers.iter().map(|s| s.addr().to_string()));
        config.replication = 2;
        config.default_plan = PlanBuilder::new(4)
            .m_scalar(25)
            .method(Method::Uniform)
            .build()
            .unwrap();
        Coordinator::new(config).unwrap()
    }

    #[test]
    fn replication_fans_ingest_to_all_replicas_and_stats_do_not_double_count() {
        let a = node_server();
        let b = node_server();
        let coordinator = replicated_coordinator(&[&a, &b]);
        let data = blobs(100);
        coordinator.ingest("d", &data, None).unwrap();
        // Both replicas hold the full dataset...
        for node in [&a, &b] {
            assert_eq!(
                node.engine().dataset_stats("d").unwrap().ingested_points,
                data.len() as u64
            );
        }
        // ...but the fleet-level aggregate reports it once, not R times.
        let stats = coordinator.dataset_stats("d").unwrap();
        assert_eq!(stats.ingested_points, data.len() as u64);
        // Queries answer from a single replica — exact point totals, no
        // union doubling.
        let centers = Points::from_flat(vec![0.1, 0.1, 100.1, 0.1], 2).unwrap();
        let (cost, _, priced) = coordinator.cost("d", &centers, None).unwrap();
        assert!(cost > 0.0);
        assert!(priced > 0);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn replicated_queries_survive_a_replica_loss() {
        let a = node_server();
        let b = node_server();
        let coordinator = replicated_coordinator(&[&a, &b]);
        let data = blobs(100);
        coordinator.ingest("d", &data, None).unwrap();
        let centers = Points::from_flat(vec![0.1, 0.1, 100.1, 0.1], 2).unwrap();
        let (cost_before, _, _) = coordinator.cost("d", &centers, None).unwrap();
        // Kill one replica: the survivor still answers, and with the same
        // data (replicas are full copies) the cost is identical.
        a.shutdown();
        let (cost_after, _, priced) = coordinator.cost("d", &centers, None).unwrap();
        assert!(priced > 0);
        assert!(
            (cost_before - cost_after).abs() <= 1e-9 * cost_before.max(1.0),
            "replica copies must price identically: {cost_before} vs {cost_after}"
        );
        assert!(!coordinator
            .coreset("d", Some(3), None)
            .unwrap()
            .0
            .is_empty());
        b.shutdown();
    }

    #[test]
    fn duplicate_sequence_numbers_are_acknowledged_once() {
        let a = node_server();
        let b = node_server();
        let coordinator = replicated_coordinator(&[&a, &b]);
        let data = blobs(50);
        let ident = IngestIdent {
            client: "producer-1".to_owned(),
            seq: 7,
        };
        let first = Backend::ingest(&coordinator, "d", &data, None, Some(&ident), None).unwrap();
        assert!(!first.duplicate);
        assert_eq!(first.total_points, data.len() as u64);
        // The retry (same client, same seq) acks without double-counting.
        let retry = Backend::ingest(&coordinator, "d", &data, None, Some(&ident), None).unwrap();
        assert!(retry.duplicate);
        assert_eq!(retry.total_points, data.len() as u64);
        assert_eq!(
            coordinator.dataset_stats("d").unwrap().ingested_points,
            data.len() as u64
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn stale_epoch_requests_get_wrong_epoch() {
        let a = node_server();
        let b = node_server();
        let coordinator = replicated_coordinator(&[&a, &b]);
        assert_eq!(coordinator.fleet_epoch(), 1);
        let err = Backend::ingest(&coordinator, "d", &blobs(10), None, None, Some(99)).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::WrongEpoch {
                    requested: 99,
                    current: 1
                }
            ),
            "{err:?}"
        );
        // The current epoch is accepted.
        Backend::ingest(&coordinator, "d", &blobs(10), None, None, Some(1)).unwrap();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn add_node_bumps_epoch_and_migrates_new_replica_sets() {
        let a = node_server();
        let b = node_server();
        let c = node_server();
        let coordinator = replicated_coordinator(&[&a, &b]);
        let data = blobs(100);
        coordinator.ingest("d", &data, None).unwrap();
        let (epoch, nodes, _) =
            Backend::add_node(&coordinator, c.addr().to_string().as_str(), None).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(nodes, 3);
        assert_eq!(coordinator.fleet_epoch(), 2);
        // Wherever the replica set landed, queries still answer exactly.
        let centers = Points::from_flat(vec![0.1, 0.1, 100.1, 0.1], 2).unwrap();
        let (cost, _, priced) = coordinator.cost("d", &centers, None).unwrap();
        assert!(cost > 0.0);
        assert!(priced > 0);
        a.shutdown();
        b.shutdown();
        c.shutdown();
    }

    #[test]
    fn drain_node_moves_data_and_keeps_queries_answering() {
        let a = node_server();
        let b = node_server();
        let c = node_server();
        let coordinator = replicated_coordinator(&[&a, &b, &c]);
        let data = blobs(100);
        coordinator.ingest("d", &data, None).unwrap();
        // Drain whichever node serves as the dataset's first replica so
        // the move is guaranteed to matter.
        let first = {
            let fleet = coordinator.fleet.lock().unwrap();
            let idx = fleet.replicas("d")[0];
            fleet.members()[idx].addr().to_owned()
        };
        let (epoch, nodes, _) = Backend::drain_node(&coordinator, &first).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(nodes, 3, "drain marks, never removes");
        // The dataset still answers from the post-drain replica set.
        let centers = Points::from_flat(vec![0.1, 0.1, 100.1, 0.1], 2).unwrap();
        let (cost, _, priced) = coordinator.cost("d", &centers, None).unwrap();
        assert!(cost > 0.0);
        assert!(priced > 0);
        // Draining below R refuses.
        let second = {
            let fleet = coordinator.fleet.lock().unwrap();
            fleet
                .members()
                .iter()
                .find(|m| m.is_active())
                .unwrap()
                .addr()
                .to_owned()
        };
        assert!(matches!(
            Backend::drain_node(&coordinator, &second).unwrap_err(),
            EngineError::InvalidArgument(_)
        ));
        a.shutdown();
        b.shutdown();
        c.shutdown();
    }
}
