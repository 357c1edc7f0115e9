//! A sharded coreset-serving subsystem: the Fast-Coreset pipeline
//! (compress in `Õ(nd)`, answer clustering queries from the compression)
//! run as a long-lived concurrent service, with one effective
//! [`fc_core::plan::Plan`] per dataset.
//!
//! - [`engine`]: named datasets as sharded
//!   [`fc_core::streaming::MergeReduce`] streams with per-shard worker
//!   threads and budgeted compaction, each dataset built from its own
//!   [`fc_core::plan::Plan`] (the engine config is only the default).
//!   A shard's stream, coalescing buffer, checkpoints and replay are one
//!   sans-I/O state (`shard.rs`); the worker thread only drives it.
//! - [`ingest`]: the one implementation of ingest admission — resolve or
//!   create, refusal order, the exactly-once gate, totals and counters —
//!   shared by the engine and the `fc-cluster` coordinator, which differ
//!   only in where an admitted batch goes ([`WriteSink`]).
//! - [`query`]: the one implementation of `coreset` / `cluster` / `cost`
//!   — plan defaults, validation, the state-keyed result cache, the
//!   seeded solve — shared by the engine and the `fc-cluster`
//!   coordinator, which differ only in how they obtain the summary
//!   ([`QuerySource`]).
//! - [`session`]: the one implementation of the connection protocol, with
//!   no socket in it — the `hello` upgrade, framing errors answered in
//!   pipeline position, fatal vs. recoverable, one answer per frame with
//!   a panicking backend call contained; and the client's encode / decode
//!   / error mapping — shared by both server I/O models, the client and
//!   the `fc-cluster` coordinator's exchange driver.
//! - [`protocol`]: the request/response types and their JSON-lines codec
//!   (the dependency-free [`fc_core::json`], re-exported as [`json`] —
//!   plans cross the wire in the library's own
//!   [`fc_core::plan::Plan::to_json`] form).
//! - [`backend`]: the [`Backend`] trait the server dispatches through —
//!   [`Engine`] is the reference implementation, and the `fc-cluster`
//!   coordinator serves a whole node fleet behind the same trait.
//! - [`framing`] / [`wire`]: the incremental codecs — bytes in, complete
//!   JSON-lines or binary frames out — and the binary payload encoding.
//! - [`reactor`] (Linux): a hand-rolled epoll readiness layer — poller
//!   and eventfd wakeup token — under the reactor server.
//! - [`server`] / [`client`]: the TCP server — an epoll reactor plus a
//!   bounded executor pool by default on Linux, classic thread-per-
//!   connection elsewhere or on request ([`server::IoModel`]) — and the
//!   blocking [`ServiceClient`], with a bounded [`RetryPolicy`] for
//!   `overloaded` backpressure. A full shard queue answers `overloaded`
//!   instead of blocking. [`ServerOptions`] adds admission control: an
//!   open-connection cap (structured `unavailable`) and a server-side
//!   queue deadline (structured `deadline_exceeded`).
//! - [`metrics_http`]: a std-only Prometheus text-exposition scrape
//!   endpoint serving the engine's `fc_telemetry` registry; the same
//!   payload is available in JSON through the `metrics` wire command.
//!
//! ```no_run
//! use fc_service::{Engine, EngineConfig, ServerHandle, ServiceClient};
//!
//! let server = ServerHandle::bind("127.0.0.1:0", Engine::new(EngineConfig::default())?)?;
//! let mut client = ServiceClient::connect(server.addr())?;
//! let data = fc_geom::Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0], 2)?;
//! // This dataset picks its own point on the settling-time/accuracy curve.
//! let plan = fc_core::plan::Plan::from_json(r#"{"k":2,"method":"lightweight"}"#)?;
//! client.ingest("demo", &data, Some(&plan))?;
//! let result = client.cluster("demo", None, None, None, None)?;
//! println!("served {} centers (seed {})", result.centers.len(), result.seed);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod backend;
pub mod cache;
pub mod client;
pub mod engine;
pub mod framing;
pub mod ingest;
pub mod metrics_http;
pub mod protocol;
pub mod query;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod session;
mod shard;
pub mod wire;

pub use fc_core::json;
pub use fc_persist::FsyncPolicy;

pub use backend::{Backend, IngestOutcome};
pub use cache::QueryCache;
pub use client::{ClientError, ClusterResult, RetryPolicy, ServiceClient};
pub use engine::{ClusterOutcome, DrainHook, Engine, EngineConfig, EngineError, PersistConfig};
pub use framing::{BinaryCodec, FrameError, LineCodec, WireCodec, WireFrame};
pub use ingest::{Ledger, WritePath, WriteSink};
pub use metrics_http::MetricsServer;
pub use protocol::{
    DatasetStats, ErrorCode, NodeHealth, NodeStats, ProtocolError, Request, Response, ServerStats,
};
pub use query::{QueryPath, QuerySource, QueryState};
pub use server::{IoModel, ServerHandle, ServerOptions};

/// The distortion a served coreset stays within on clusterable data: the
/// service's advertised quality bound. Nothing in the serving path reads
/// it; the integration tests and the distributed example assert it, on
/// an engine and through a coordinator alike.
pub const DISTORTION_BOUND: f64 = 1.5;
