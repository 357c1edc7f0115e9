//! Experiment harness for the parts of the paper's evaluation (Section 5)
//! that print rather than assert: runtimes (Table 1, Figures 1, 2 and 5),
//! BICO and StreamKM++ (Tables 6 and 9), downstream cost (Table 8),
//! Figure 3's capture counts and two ablations. `benches/` holds one file
//! per table or figure. The accuracy verdicts of Tables 2, 4, 5 and 7 and
//! Figure 4 are assertions in the root package's `tests/paper_claims.rs`.
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
