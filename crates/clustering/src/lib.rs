//! Center-based clustering substrate.
//!
//! Implements the classic toolchain the paper benchmarks against and builds
//! upon:
//!
//! - [`assign`](mod@assign): nearest-center assignment — the `O(nkd)` scan whose
//!   avoidance is the whole point of Fast-kmeans++, and the bound-keeping
//!   assigner that lets refinement skip most of it after the first round.
//! - [`cost`](mod@cost): weighted `cost_z(P, C)` evaluation for k-means (`z = 2`) and
//!   k-median (`z = 1`).
//! - [`kmeanspp`](mod@kmeanspp): weighted D^z-sampling seeding (k-means++ of Arthur &
//!   Vassilvitskii, adapted to both objectives), the seeding inside standard
//!   sensitivity sampling.
//! - [`lloyd`]: the one refinement loop — weighted Lloyd iterations
//!   (k-means) and Weiszfeld-based alternation (k-median), bound-pruned —
//!   used for the downstream-task experiments and the distortion metric's
//!   candidate solutions.
//! - [`kmedian`]: the weighted geometric median (Weiszfeld's algorithm).
//! - [`local_search`](mod@local_search): single-swap local search, an extension baseline.
//! - [`solver`]: the [`solver::Solver`] enum dispatching every refinement
//!   strategy by canonical name — the solve-side mirror of the compressor
//!   spectrum.

pub mod assign;
pub mod cost;
pub mod kmeanspp;
pub mod kmedian;
pub mod lloyd;
pub mod local_search;
pub mod metrics;
pub mod solution;
pub mod solver;

pub use assign::{assign, Assignment};
pub use cost::{cost, per_point_cost};
pub use fc_geom::distance::CostKind;
pub use kmeanspp::kmeanspp;
pub use lloyd::{refine, LloydConfig};
pub use local_search::{local_search, LocalSearchConfig};
pub use solution::Solution;
pub use solver::{SolveConfig, Solver, SolverError, ALL_SOLVERS};
