//! Multi-node coreset serving: a coordinator that shards datasets across
//! remote `fc-server` nodes and unions their coresets.
//!
//! The paper's composability property (Section 2.3) — the union of
//! coresets of parts is a coreset of the whole — is exactly what makes
//! clustering scale past one machine: push compression to the data nodes,
//! move only `O(m)`-point summaries, aggregate by union, solve once at the
//! top. This crate runs that topology over the `fc-service` protocol:
//!
//! - [`Coordinator`] speaks the protocol *downward* to N `fc-server`
//!   nodes (pooled, reconnecting node handles with bounded `overloaded`
//!   backoff and [`NodeTimeouts`] socket deadlines) and
//!   implements [`fc_service::Backend`], so
//!   [`fc_service::ServerHandle::bind_backend`] exposes the identical
//!   protocol *upward* — a coordinator is wire-indistinguishable from a
//!   single big server, and the unchanged
//!   [`fc_service::ServiceClient`] drives either. Every node request is
//!   one blocking `NodeHandle::request`; a fan-out runs the first node
//!   on the calling thread and each other node on a scoped thread, on
//!   every platform.
//! - Ingest places blocks by one rule, whose only input besides the
//!   names is each node's capacity ([`NodeSpec::capacity`]): at
//!   replication 1 a dataset's blocks are dealt round-robin over the
//!   nodes in shares proportional to capacity, and at R ≥ 2 every block
//!   goes to the dataset's R-member replica set, chosen by
//!   capacity-weighted rendezvous hashing ([`fc_fleet::FleetMap`]). Each
//!   routed batch carries the dataset's effective
//!   [`fc_core::plan::Plan`].
//! - `compress`/`cluster` fan out in parallel, union the per-node serving
//!   coresets (the MapReduce aggregation of
//!   [`fc_core::streaming::mapreduce::aggregate_parts`], over TCP instead
//!   of threads), and re-compress/solve coordinator-side under the plan;
//!   `cost` sums per-node costs (cost is additive over a partition).
//! - `stats` merges per-node reports and attaches each node's identity,
//!   health (alive / degraded / down), and last error; dead nodes degrade
//!   queries to the surviving fleet instead of failing them.
//! - `add_node` / `drain_node` run one re-homing plan (the private
//!   `fleet_state` module): new holders are filled with a serving coreset,
//!   then the copies the new map stops reading are dropped.
//!
//! ```no_run
//! use fc_cluster::{Coordinator, CoordinatorConfig};
//! use fc_service::{ServerHandle, ServiceClient};
//! use std::sync::Arc;
//!
//! // Two fc-server nodes are already listening on these addresses.
//! let config = CoordinatorConfig::new(["127.0.0.1:4801", "127.0.0.1:4802"]);
//! let coordinator = Arc::new(Coordinator::new(config)?);
//! let front = ServerHandle::bind_backend("127.0.0.1:0", coordinator)?;
//! // Any fc-service client now sees one big server.
//! let mut client = ServiceClient::connect(front.addr())?;
//! let data = fc_geom::Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0], 2)?;
//! client.ingest("demo", &data, None)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod coordinator;
mod fleet_state;
mod node;

pub use coordinator::{Coordinator, CoordinatorConfig, NodeSpec};
pub use node::NodeTimeouts;
