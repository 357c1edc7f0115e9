//! The shared error type for every fallible entry point in the workspace.
//!
//! The paper's API surface — batch plans, streaming sessions, the serving
//! engine — all validate the same handful of invariants (`k ≥ 1`,
//! `m ≥ k`, `m ≤ n`, dimension agreement) and reject the same malformed
//! names. [`FcError`] is the one vocabulary for all of them: library
//! callers match on variants, the service maps them onto protocol error
//! strings, and nothing reachable from a validated [`crate::plan::Plan`]
//! panics on bad parameters.

use fc_clustering::solver::SolverError;

use crate::plan::ALL_METHODS;

/// Why a plan, a compression, or a solve was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FcError {
    /// `k = 0` was requested; every objective needs at least one center.
    InvalidK,
    /// The target coreset size cannot support `k` clusters (`m < k`,
    /// including the degenerate `m = 0`).
    InvalidCoresetSize {
        /// The offending target size.
        m: usize,
        /// The number of clusters it must support.
        k: usize,
    },
    /// `m = m_scalar · k` overflowed `usize`.
    CoresetSizeOverflow {
        /// The cluster count.
        k: usize,
        /// The per-cluster scalar.
        m_scalar: usize,
    },
    /// A coreset at least as large as the data was requested (`m > n`);
    /// compression would be a no-op, which is almost always a mistake.
    CoresetLargerThanData {
        /// The requested coreset size.
        m: usize,
        /// The number of data points.
        n: usize,
    },
    /// The dataset (or an ingested block) holds no points.
    EmptyData,
    /// A streaming session was finished before any block was pushed.
    EmptyStream,
    /// Two point sets that must share a dimension do not.
    DimensionMismatch {
        /// The established dimension.
        expected: usize,
        /// The offending dimension.
        got: usize,
    },
    /// The string names no known compression method.
    UnknownMethod(String),
    /// The string names no known solver.
    UnknownSolver(String),
    /// Any other parameter rejection, with a human-readable reason.
    InvalidParameter(String),
}

impl std::fmt::Display for FcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FcError::InvalidK => write!(f, "k must be at least 1"),
            FcError::InvalidCoresetSize { m, k } => {
                write!(f, "coreset size m = {m} cannot support k = {k} clusters")
            }
            FcError::CoresetSizeOverflow { k, m_scalar } => {
                write!(f, "coreset size m_scalar * k = {m_scalar} * {k} overflows")
            }
            FcError::CoresetLargerThanData { m, n } => {
                write!(f, "coreset size m = {m} exceeds the data size n = {n}")
            }
            FcError::EmptyData => write!(f, "dataset holds no points"),
            FcError::EmptyStream => write!(f, "stream finished before any block was pushed"),
            FcError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: expected {expected}-d points, got {got}-d"
                )
            }
            FcError::UnknownMethod(name) => {
                write!(f, "unknown method `{name}` (expected one of: ")?;
                for (i, method) in ALL_METHODS.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{method}")?;
                }
                f.write_str(")")
            }
            FcError::UnknownSolver(name) => SolverError::UnknownSolver(name.clone()).fmt(f),
            FcError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for FcError {}

impl From<SolverError> for FcError {
    fn from(e: SolverError) -> Self {
        match e {
            SolverError::UnknownSolver(name) => FcError::UnknownSolver(name),
            SolverError::InvalidK => FcError::InvalidK,
            SolverError::EmptyData => FcError::EmptyData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offending_values() {
        let cases: Vec<(FcError, &str)> = vec![
            (FcError::InvalidK, "at least 1"),
            (
                FcError::InvalidCoresetSize { m: 3, k: 7 },
                "m = 3 cannot support k = 7",
            ),
            (
                FcError::CoresetLargerThanData { m: 100, n: 10 },
                "m = 100 exceeds the data size n = 10",
            ),
            (
                FcError::DimensionMismatch {
                    expected: 2,
                    got: 3,
                },
                "expected 2-d points, got 3-d",
            ),
            (FcError::UnknownMethod("bogus".into()), "`bogus`"),
            (FcError::UnknownSolver("simplex".into()), "`simplex`"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "`{msg}` missing `{needle}`");
        }
    }

    #[test]
    fn solver_errors_convert_losslessly() {
        assert_eq!(
            FcError::from(SolverError::UnknownSolver("x".into())),
            FcError::UnknownSolver("x".into())
        );
        assert_eq!(FcError::from(SolverError::InvalidK), FcError::InvalidK);
        assert_eq!(FcError::from(SolverError::EmptyData), FcError::EmptyData);
    }
}
