//! Dataset generators for the paper's evaluation (Section 5.2).
//!
//! Two families:
//!
//! - [`synthetic`]: the artificial instances defined in the paper —
//!   c-outlier, geometric (weighted simplex), Gaussian mixture with the
//!   imbalance parameter γ, and the benchmark instance of \[57\] — plus the
//!   Table-1 spread-stress construction.
//! - [`realworld`]: synthetic *proxies* for the seven public datasets the
//!   paper evaluates (Adult, MNIST, Star, Song, Cover Type, Taxi, Census).
//!   The proxies reproduce the structural property each dataset contributes
//!   to the evaluation (see that module's docs) at a configurable scale.
//!
//! All generators add the paper's uniform noise `η ∈ [0, 0.001]^d` so points
//! are unique, and are fully deterministic given the RNG.

pub mod noise;
pub mod realworld;
pub mod registry;
pub mod spread_stress;
pub mod synthetic;

pub use realworld::{realworld_suite, RealWorldSpec};
pub use synthetic::{benchmark, c_outlier, gaussian_mixture, geometric, GaussianMixtureConfig};
