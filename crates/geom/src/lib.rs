//! Geometric substrate for the fast-coresets workspace.
//!
//! This crate provides the data-plane primitives every other crate builds on:
//!
//! - [`points::Points`]: a dense row-major point store (`n × d` matrix of
//!   `f64`) with cheap row views, the universal in-memory dataset format.
//! - [`dataset::Dataset`]: points plus per-point weights — all compressors in
//!   this workspace consume and produce *weighted* datasets, because coresets
//!   are weighted and merge-&-reduce re-compresses coresets.
//! - [`distance`]: Euclidean metrics for the `(k, z)`-clustering costs used by
//!   the paper (`z = 1` for k-median, `z = 2` for k-means).
//! - [`jl`]: Johnson–Lindenstrauss random projections (dense Gaussian and
//!   sparse Achlioptas), used by Algorithm 1 step 2 to replace `d` with
//!   `O(log k)` dimensions.
//! - [`sampling`]: weighted-sampling machinery — Walker alias tables for O(1)
//!   draws and prefix-sum samplers for maskable ranges.
//! - [`bbox`]: bounding boxes and spread (`Δ`) computation, the quantity the
//!   paper's spread-reduction machinery (Section 4) is about.
//! - [`par`]: the scoped chunk-parallel compute tier — fixed-size chunks
//!   merged in chunk order, so every kernel is bit-identical at any
//!   thread count (`FC_SOLVE_THREADS` / `--solve-threads`).

pub mod bbox;
pub mod dataset;
pub mod distance;
pub mod error;
pub mod jl;
pub mod par;
pub mod points;
pub mod sampling;
pub mod stats;

pub use bbox::BoundingBox;
pub use dataset::Dataset;
pub use error::GeomError;
pub use points::Points;
