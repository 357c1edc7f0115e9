//! Streaming compression (Sections 2.3 and 5.4 of the paper).
//!
//! Lives inside `fc_core` so the unified [`crate::plan::Plan`] API can
//! select streaming compressors through the same [`crate::plan::Method`]
//! enum as the batch spectrum.
//!
//! - [`merge_reduce`]: the black-box merge-&-reduce composition of \[11, 40\]
//!   used by the paper's streaming experiments — blocks are compressed,
//!   merged pairwise along a complete binary tree (so at any moment at most
//!   one coreset per level exists), and the level coresets are concatenated
//!   and compressed once more at the end.
//! - [`cf`]: BIRCH-style clustering features `(W, Σp, Σ|p|²)` \[58\] — the
//!   additive sufficient statistics under the k-means objective.
//! - [`bico`]: the BICO streaming coreset of \[38\]: a hierarchy of clustering
//!   features with level-halving radii and a global cost threshold that
//!   doubles whenever the summary outgrows its budget. Its native
//!   single-pass stream ([`BicoStream`]) is Table 6's bench; everything
//!   served or planned streams BICO as merge-&-reduce over
//!   [`BicoCompressor`].
//! - [`streamkm`]: StreamKM++ \[1\]: a coreset tree performing hierarchical
//!   D²-splitting. Its bucket cascade is merge-&-reduce over
//!   [`CoresetTreeCompressor`], so that is how it streams.
//! - [`mapreduce`]: the single-round MapReduce aggregation of Section 2.3 —
//!   partition, compress per simulated worker (run in order), union the
//!   coresets.

pub mod bico;
pub mod cf;
pub mod mapreduce;
pub mod merge_reduce;
pub mod stream;
pub mod streamkm;

pub use bico::{Bico, BicoCompressor, BicoConfig, BicoStream};
pub use cf::ClusteringFeature;
pub use mapreduce::{aggregate_parts, mapreduce_coreset, MapReduceReport};
pub use merge_reduce::MergeReduce;
pub use stream::{run_stream, StreamingCompressor};
pub use streamkm::CoresetTreeCompressor;
