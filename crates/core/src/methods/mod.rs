//! The benchmark suite of sampling strategies (Section 5.2).
//!
//! Ordered from fastest/cheapest guarantee to slowest/strongest:
//!
//! | method | candidate solution | seeding cost | guarantee |
//! |---|---|---|---|
//! | [`Uniform`] | none | `O(m)` (sublinear) | none |
//! | [`Lightweight`] | `{µ}` (j = 1) \[6\] | `O(nd)` | additive `ε·cost(P, {µ})` |
//! | [`Welterweight`] | j-means, `1 < j < k` | `O(ndj)` | interpolates |
//! | [`StandardSensitivity`] | k-means++ (j = k) \[47\] | `O(ndk)` | strong ε-coreset |
//! | [`crate::FastCoreset`] | Fast-kmeans++ | `Õ(nd)` | strong ε-coreset |
//!
//! Only [`Welterweight`] has a setting, its `j`, and
//! [`crate::plan::Method::Welterweight`] names it; the rest are unit
//! structs, so which method runs is the one choice. The four with a
//! candidate solution sample by its Eq. (1) scores with plain
//! inverse-probability weights.

mod lightweight;
mod sensitivity_full;
mod uniform;
mod welterweight;

pub use lightweight::Lightweight;
pub use sensitivity_full::StandardSensitivity;
pub use uniform::Uniform;
pub use welterweight::{JCount, Welterweight};
