//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 5); `benches/` is the experiment index, one file
//! per table or figure.
//!
//! Each experiment is a `harness = false` bench target that prints the
//! paper's rows (plus a `JSON ` line per table for machine consumption).
//! Workload sizes derive from the paper's defaults scaled by the
//! environment knobs documented on [`harness::BenchConfig`].

pub mod experiments;
pub mod harness;
pub mod scenarios;
pub mod tables;

pub use harness::{time, BenchConfig};
pub use scenarios::{artificial_suite, real_suite, NamedData};
pub use tables::{fmt_mean_var, Table};
