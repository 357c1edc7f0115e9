//! # fast-coresets
//!
//! A Rust implementation of *"Settling Time vs. Accuracy Tradeoffs for
//! Clustering Big Data"* (Draganov, Saulpic, Schwiegelshohn — SIGMOD 2024):
//! near-linear-time strong coresets for k-means and k-median, the full
//! speed/accuracy spectrum of sampling compressors, and the streaming /
//! MapReduce composition machinery around them.
//!
//! ## Quick start
//!
//! One [`PlanBuilder`](prelude::PlanBuilder) drives everything: pick a
//! compression [`Method`](prelude::Method) (the paper's settling-time /
//! accuracy knob) and run: it compresses, then solves with k-means++ and
//! Lloyd. Every invalid parameter comes back as an
//! [`FcError`](prelude::FcError), never a panic.
//!
//! ```
//! use fast_coresets::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! // A Gaussian-mixture dataset (one of the paper's §5.2 instances).
//! let data = fc_data::gaussian_mixture(
//!     &mut rng,
//!     fc_data::GaussianMixtureConfig { n: 2_000, d: 10, kappa: 8, ..Default::default() },
//! );
//!
//! // Compress 2 000 points down to 200 with a strong-coreset guarantee,
//! // cluster the compression, and measure the distortion — one plan.
//! let plan = PlanBuilder::new(8)
//!     .method(Method::FastCoreset)
//!     .coreset_size(200)
//!     .build()?;
//! let outcome = plan.run(&mut rng, &data)?;
//! assert!(outcome.coreset.len() <= 200);
//! assert!(outcome.distortion < 2.0);
//!
//! // The same plan consumes streams: push blocks, finish, solve.
//! let mut session = plan.stream();
//! for block in data.chunks(500) {
//!     session.push(&mut rng, &block)?;
//! }
//! let (coreset, solution) = session.finish_and_solve(&mut rng)?;
//! assert!(coreset.len() <= 200);
//! assert_eq!(solution.k(), 8);
//!
//! // Methods have canonical names — the identical strings the
//! // fc-service wire protocol accepts. Retired spellings read as the
//! // method they always ran.
//! assert_eq!("merge-reduce(fast-coreset)".parse::<Method>()?.to_string(),
//!            "fast-coreset");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Migration notes (removed shims)
//!
//! Two historical compatibility layers are gone:
//!
//! - `fc_core::pipeline::Pipeline` (panicking, batch-only) — write
//!   `PlanBuilder::new(k).method(m).build()?.run(&mut rng, &data)?`
//!   instead; the [`Method`](prelude::Method) enum is the same type, and
//!   every invalid parameter is an [`FcError`](prelude::FcError), not a
//!   panic.
//! - the `fc_streaming` facade crate — the implementations live in
//!   [`fc_core::streaming`]; replace `use fc_streaming::MergeReduce` with
//!   `use fc_core::streaming::MergeReduce` (every historical item name is
//!   unchanged, only the crate prefix moves).
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`fc_geom`] | point stores, weighted datasets, distances, JL projections, weighted sampling |
//! | [`fc_clustering`] | k-means++ seeding and bound-pruned Lloyd/Weiszfeld refinement, named [`Solver`](prelude::Solver) on plans and the wire |
//! | [`fc_quadtree`] | compressed quadtrees, Fast-kmeans++, Crude-Approx, Reduce-Spread |
//! | [`fc_core`] | the [`Plan`](prelude::Plan) API and its JSON wire form, Fast-Coresets (Algorithm 1), the sampler spectrum, streaming composition ([`fc_core::streaming`]: merge-&-reduce, BICO, StreamKM++, MapReduce), the distortion metric and its judge, [`FcError`](prelude::FcError), the dependency-free [`fc_core::json`] codec |
//! | [`fc_data`] | the paper's artificial datasets and real-world proxies |
//! | [`fc_service`] | the sharded coreset-serving engine (one effective `Plan` per dataset), its TCP/JSON-lines protocol, server, and client (`fc-server` binary) |
//! | [`fc_cluster`] | the multi-node coordinator: shards datasets across remote `fc-server` nodes, unions per-node coresets, serves the same protocol (`fc-coordinator` binary) |

/// The workspace version, shared by the `fc-server` and `fc-coordinator`
/// `--version` flags and startup banners — one constant, so the two
/// daemons of a deployment can never report different versions.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

pub mod cli;

pub use fc_cluster;
pub use fc_clustering;
pub use fc_core;
pub use fc_data;
pub use fc_geom;
pub use fc_quadtree;
pub use fc_service;

/// The most common imports in one place.
pub mod prelude {
    pub use fc_cluster::{Coordinator, CoordinatorConfig};
    pub use fc_clustering::lloyd::LloydConfig;
    pub use fc_clustering::solver::{SolveConfig, Solver, SolverError};
    pub use fc_clustering::CostKind;
    pub use fc_core::plan::{Method, Plan, PlanBuilder, PlanOutcome, StreamSession};
    pub use fc_core::streaming::{MergeReduce, StreamingCompressor};
    pub use fc_core::{
        CompressionParams, Compressor, Coreset, FastCoreset, FcError, Lightweight,
        StandardSensitivity, Uniform, Welterweight,
    };
    pub use fc_geom::{Dataset, Points};
    pub use fc_service::{Engine, EngineConfig, RetryPolicy, ServerHandle, ServiceClient};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = CompressionParams {
            k: 2,
            m: 10,
            kind: CostKind::KMeans,
        };
        // The plan surface is reachable from the prelude alone.
        let plan = PlanBuilder::new(2).method(Method::Uniform).build().unwrap();
        assert_eq!(plan.k(), 2);
        assert!(matches!(
            PlanBuilder::new(0).build(),
            Err(FcError::InvalidK)
        ));
    }
}
