//! Center-based clustering substrate.
//!
//! Implements the classic toolchain the paper benchmarks against and builds
//! upon:
//!
//! - [`assign`](mod@assign): nearest-center assignment — the `O(nkd)` scan whose
//!   avoidance is the whole point of Fast-kmeans++, and the bound-keeping
//!   assigner that lets seeding and refinement skip most of it.
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
//! - [`solver`]: [`solver::Solver`], the solve step's name on plans and
//!   on the wire (one value, `lloyd`), and its checked entry point.

pub mod assign;
pub mod cost;
pub mod kmeanspp;
pub mod kmedian;
pub mod lloyd;
pub mod solution;
pub mod solver;

pub use assign::{assign, Assignment};
pub use cost::{cost, per_point_cost};
pub use fc_geom::distance::CostKind;
pub use kmeanspp::kmeanspp;
pub use lloyd::{refine, LloydConfig};
pub use solution::Solution;
pub use solver::{SolveConfig, Solver, SolverError};
