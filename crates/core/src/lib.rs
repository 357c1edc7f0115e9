//! The paper's primary contribution: near-linear-time strong coresets for
//! k-means and k-median, plus the entire speed/accuracy spectrum of sampling
//! compressors the evaluation section compares.
//!
//! - [`coreset::Coreset`]: a weighted subset `(Ω, w)` approximating
//!   `cost_z(P, C)` for *every* candidate solution `C` (Definition 2.1).
//! - [`sensitivity`]: the importance scores of Eq. (1) — the upper bound on
//!   true sensitivities from an `α`-approximate solution \[37\].
//! - [`sampling`]: importance sampling with inverse-probability weights.
//! - [`methods`]: the benchmark suite of §5.2 — uniform sampling, lightweight
//!   coresets (`j = 1`) \[6\], welterweight coresets (`1 < j < k`), and
//!   standard sensitivity sampling (`j = k`, `O(nk)` seeding) \[47\].
//! - [`fast_coreset`]: **Algorithm 1** — JL projection → spread reduction
//!   (Algorithms 2–3, only where the quadtree truncates) → quadtree
//!   `Fast-kmeans++` → sensitivity sampling, in `Õ(nd)` total.
//! - [`distortion`](crate::distortion()): the coreset distortion metric of
//!   \[57\]: solve on the coreset, price on both sets, report the worse
//!   ratio — and [`judge`], the one evaluation every accuracy number goes
//!   through: the median and worst of five such solves, and the worst
//!   ratio once a full-data seeding and random centres are priced too.
//! - [`compressor`]: the object-safe [`compressor::Compressor`] trait tying
//!   all of the above into one API.
//! - [`streaming`]: merge-&-reduce, BICO, StreamKM++, and MapReduce
//!   aggregation.
//! - [`plan`]: the unified, fallible [`plan::Plan`] API — one
//!   [`plan::Method`] enum over the whole batch + streaming spectrum,
//!   solved by k-means++ and Lloyd, [`error::FcError`]
//!   instead of panics on invalid parameters, and a stable JSON wire form
//!   ([`plan::Plan::to_json`] / [`plan::Plan::from_json`]) speaking the
//!   same [`json`] codec as the `fc-service` protocol.

pub mod compressor;
/// The scoped chunk-parallel compute tier (re-exported from `fc_geom` so
/// the whole stack spells it `fc_core::par`): fixed-size chunks merged in
/// chunk order give bit-identical results at every thread count.
pub use fc_geom::par;
pub mod coreset;
pub mod distortion;
pub mod error;
pub mod fast_coreset;
pub mod json;
pub mod methods;
pub mod plan;
pub mod pointblock;
pub mod sampling;
pub mod sensitivity;
pub mod streaming;

pub use compressor::{CompressionParams, Compressor};
pub use coreset::Coreset;
pub use distortion::{distortion, judge, DistortionReport, Verdict};
pub use error::FcError;
pub use fast_coreset::FastCoreset;
pub use methods::{Lightweight, StandardSensitivity, Uniform, Welterweight};
pub use plan::{Method, Plan, PlanBuilder, PlanOutcome, StreamSession, ALL_METHODS};
pub use pointblock::PointBlock;
