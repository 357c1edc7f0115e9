//! Randomly-shifted compressed quadtree embeddings (Section 2.4 of the
//! paper) and the three algorithms built on them:
//!
//! - [`tree::Quadtree`]: a compressed quadtree with `O(n)` nodes over a
//!   randomly shifted dyadic grid; subtrees own contiguous ranges of a
//!   permuted index array so subtree weights are prefix-sum queries. It
//!   reports whether the depth cap left different points in one leaf
//!   ([`Quadtree::truncated`]) — the one case the next two are for.
//! - [`fast_kmeanspp`](mod@fast_kmeanspp): tree-metric D^z sampling — the engineering form of
//!   `Fast-kmeans++` \[23\]: centers are drawn against distances *in the tree
//!   metric*, so inserting a center costs `O(log Δ · log n)` instead of the
//!   `O(nd)` of exact D² sampling, and the final point→center assignment is
//!   one `O(n log Δ)` tree pass independent of `k`.
//! - [`crude`]: `Crude-Approx` (Algorithm 2) — an `O(n · poly(d, log Δ))`-
//!   factor upper bound on OPT found by binary-searching the first grid level
//!   with more than `k` occupied cells, in `Õ(nd log log Δ)` time.
//! - [`spread`]: `Reduce-Spread` (Algorithm 3) — collapses empty space
//!   between occupied grid boxes and rounds coordinates so the spread becomes
//!   `poly(n, d, log Δ)`, turning the `log Δ` factor into `log log Δ`. Its
//!   grids scale by a length, [`CrudeBound::reach`], never by the cost bound.
//! - [`hst`]: hierarchically-separated-tree view with an exact tree k-median
//!   DP (the Section 8.4 extension).

pub mod crude;
pub mod fast_kmeanspp;
pub mod grid;
pub mod hst;
pub mod spread;
pub mod tree;

pub use crude::{crude_approx, CrudeBound};
pub use fast_kmeanspp::{fast_kmeanspp, FastSeedConfig, TreeSeeding};
pub use spread::{reduce_spread, SpreadMap, SpreadParams};
pub use tree::{Quadtree, QuadtreeConfig};
