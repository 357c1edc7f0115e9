//! The serving backend abstraction: what a server needs from the thing it
//! serves.
//!
//! [`crate::server::ServerHandle`] and the request dispatcher only ever
//! call the operations below, so anything implementing [`Backend`] can sit
//! behind the TCP/JSON-lines protocol. Two implementations exist:
//!
//! - [`Engine`] — the in-process sharded coreset engine (`fc-server`);
//! - `fc_cluster::Coordinator` — fans the same operations out to remote
//!   `fc-server` nodes and unions their coresets, making a whole cluster
//!   wire-indistinguishable from a single big server.

use fc_clustering::{CostKind, Solver};
use fc_core::plan::{Method, Plan};
use fc_core::Coreset;
use fc_geom::{Dataset, Points};

use crate::engine::{ClusterOutcome, Engine, EngineError};
use crate::protocol::{DatasetStats, IngestIdent, ServerStats};

/// What an ingest did: the dataset's lifetime totals after the batch, and
/// whether the batch was recognised as an exactly-once duplicate (its
/// points were *not* applied again; the totals are the current state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestOutcome {
    /// Lifetime points the dataset has applied.
    pub total_points: u64,
    /// Lifetime weight the dataset has applied.
    pub total_weight: f64,
    /// The batch's `(client, seq)` identity had already been applied, so
    /// this call was a no-op acknowledged idempotently.
    pub duplicate: bool,
}

/// The operations the protocol front-end dispatches. Signatures mirror
/// [`Engine`]'s inherent methods — the engine *is* the reference backend —
/// and every failure speaks [`EngineError`] so the server maps all
/// backends onto the wire identically.
pub trait Backend: Send + Sync {
    /// Ingests a weighted batch, creating the dataset on first use; an
    /// optional [`Plan`] on the creating ingest becomes the dataset's
    /// effective plan, and an `ident` makes the call exactly-once —
    /// [`crate::ingest`] has the rules, which both backends share. An
    /// `epoch` lets a fleet client assert the placement version it routed
    /// under; a backend that tracks placement (the coordinator) refuses
    /// stale epochs with [`EngineError::WrongEpoch`], a plain engine
    /// ignores it.
    fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&IngestIdent>,
        epoch: Option<u64>,
    ) -> Result<IngestOutcome, EngineError>;

    /// The served coreset, the seed that produced it, and the effective
    /// compression method.
    fn coreset(
        &self,
        name: &str,
        seed: Option<u64>,
        method: Option<Method>,
    ) -> Result<(Coreset, u64, Method), EngineError>;

    /// Clusters the served coreset; omitted knobs default from the
    /// dataset's effective plan. Every `solver` is Lloyd.
    fn cluster(
        &self,
        name: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        solver: Option<Solver>,
        seed: Option<u64>,
    ) -> Result<ClusterOutcome, EngineError>;

    /// Prices candidate centers on the served coreset. Returns
    /// `(cost, resolved kind, coreset points)`.
    fn cost(
        &self,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError>;

    /// Statistics for one dataset.
    fn dataset_stats(&self, name: &str) -> Result<DatasetStats, EngineError>;

    /// Statistics for every dataset (sorted by name).
    fn stats(&self) -> Result<Vec<DatasetStats>, EngineError>;

    /// Lifetime counters of the serving process, attached to `stats`
    /// responses. `None` (the default) omits the field on the wire.
    fn server_stats(&self) -> Option<ServerStats> {
        None
    }

    /// The backend's observability surface — shared with the server loop
    /// in front of it so connection/queue metrics and request traces land
    /// in the same registry the backend's own counters do. `None` (the
    /// default) disables server-side recording and the `metrics` op.
    fn telemetry(&self) -> Option<std::sync::Arc<fc_telemetry::Telemetry>> {
        None
    }

    /// The payload the `metrics` wire command returns. The default dumps
    /// [`Backend::telemetry`]; a coordinator overrides it to embed node
    /// payloads alongside its own.
    fn metrics(&self) -> Option<fc_core::json::Value> {
        self.telemetry().map(|t| t.to_value())
    }

    /// Drops a dataset and frees whatever holds it.
    fn drop_dataset(&self, name: &str) -> Result<(), EngineError>;

    /// Admits a new node into the fleet and rebalances placements onto
    /// it. Only a placement-tracking backend (the coordinator) implements
    /// this; the default refuses. Returns `(fleet epoch, fleet size,
    /// datasets migrated)`.
    fn add_node(
        &self,
        addr: &str,
        _capacity: Option<f64>,
    ) -> Result<(u64, usize, usize), EngineError> {
        Err(EngineError::InvalidArgument(format!(
            "cannot add node `{addr}`: this backend is not a fleet coordinator"
        )))
    }

    /// Drains a node: moves its placements to the surviving fleet and
    /// stops routing new work to it. Same contract as
    /// [`Backend::add_node`].
    fn drain_node(&self, addr: &str) -> Result<(u64, usize, usize), EngineError> {
        Err(EngineError::InvalidArgument(format!(
            "cannot drain node `{addr}`: this backend is not a fleet coordinator"
        )))
    }
}

impl Backend for Engine {
    fn ingest(
        &self,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&IngestIdent>,
        _epoch: Option<u64>,
    ) -> Result<IngestOutcome, EngineError> {
        Engine::ingest_idented(self, name, batch, plan, ident)
    }

    fn coreset(
        &self,
        name: &str,
        seed: Option<u64>,
        method: Option<Method>,
    ) -> Result<(Coreset, u64, Method), EngineError> {
        Engine::coreset(self, name, seed, method)
    }

    fn cluster(
        &self,
        name: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        solver: Option<Solver>,
        seed: Option<u64>,
    ) -> Result<ClusterOutcome, EngineError> {
        Engine::cluster(self, name, k, kind, solver, seed)
    }

    fn cost(
        &self,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError> {
        Engine::cost(self, name, centers, kind)
    }

    fn dataset_stats(&self, name: &str) -> Result<DatasetStats, EngineError> {
        Engine::dataset_stats(self, name)
    }

    fn stats(&self) -> Result<Vec<DatasetStats>, EngineError> {
        Engine::stats(self)
    }

    fn server_stats(&self) -> Option<ServerStats> {
        Some(Engine::server_stats(self))
    }

    fn telemetry(&self) -> Option<std::sync::Arc<fc_telemetry::Telemetry>> {
        Some(Engine::telemetry(self))
    }

    fn metrics(&self) -> Option<fc_core::json::Value> {
        Some(Engine::metrics_value(self))
    }

    fn drop_dataset(&self, name: &str) -> Result<(), EngineError> {
        Engine::drop_dataset(self, name)
    }
}
