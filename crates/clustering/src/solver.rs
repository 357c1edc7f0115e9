//! Solver selection: the refinement counterpart of the compressor spectrum.
//!
//! The paper's pitch is a *family* of compressors selectable by one knob;
//! the downstream solve deserves the same treatment. [`Solver`] names every
//! refinement strategy the workspace implements — Lloyd/Weiszfeld
//! alternation (bound-pruned, [`crate::lloyd::refine`]) and single-swap
//! local search — behind one dispatch, with canonical string names
//! (`Display`/`FromStr`) shared by the library API and the serving
//! protocol, so "which solver" is spelled identically everywhere.
//!
//! Two retired names, `hamerly` and `kmedian-weiszfeld`, still parse as
//! [`Solver::Lloyd`] (they ran its loop), so persisted plans and older
//! clients keep working. `Display` prints only the canonical names.

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use rand::Rng;

use crate::kmeanspp::kmeanspp;
use crate::lloyd::{refine, LloydConfig};
use crate::local_search::{local_search, LocalSearchConfig};
use crate::solution::Solution;

/// The refinement strategies selectable by name, mirroring how compression
/// methods are selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solver {
    /// k-means++ seeding + weighted Lloyd (k-means) or Weiszfeld
    /// alternation (k-median). Works under both objectives.
    Lloyd,
    /// Single-swap local search; slower, escapes some Lloyd minima. Works
    /// under both objectives.
    LocalSearch,
}

/// Every solver, in canonical order (useful for suites and property tests).
pub const ALL_SOLVERS: [Solver; 2] = [Solver::Lloyd, Solver::LocalSearch];

/// Per-solver tuning knobs, with usable defaults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveConfig {
    /// Budget for Lloyd / Weiszfeld alternation.
    pub lloyd: LloydConfig,
    /// Budget for local search.
    pub local_search: LocalSearchConfig,
}

/// Why a solve (or a solver-name parse) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// The string names no known solver.
    UnknownSolver(String),
    /// `k = 0` was requested.
    InvalidK,
    /// The dataset holds no points.
    EmptyData,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnknownSolver(name) => {
                write!(f, "unknown solver `{name}` (expected one of: ")?;
                for (i, solver) in ALL_SOLVERS.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{solver}")?;
                }
                f.write_str(")")
            }
            SolverError::InvalidK => write!(f, "k must be at least 1"),
            SolverError::EmptyData => write!(f, "cannot solve on an empty dataset"),
        }
    }
}

impl std::error::Error for SolverError {}

impl Solver {
    /// The canonical name (`Display` prints it, `FromStr` parses it).
    pub fn canonical_name(self) -> &'static str {
        match self {
            Solver::Lloyd => "lloyd",
            Solver::LocalSearch => "local-search",
        }
    }

    /// Seeds with weighted k-means++ (D^z sampling under `kind`) and
    /// refines with this solver. The one entry point every workflow —
    /// batch plan, streaming finish, serving engine — funnels through.
    pub fn solve<R: Rng + ?Sized>(
        self,
        rng: &mut R,
        data: &Dataset,
        k: usize,
        kind: CostKind,
        cfg: &SolveConfig,
    ) -> Result<Solution, SolverError> {
        if k == 0 {
            return Err(SolverError::InvalidK);
        }
        if data.is_empty() {
            return Err(SolverError::EmptyData);
        }
        let seeding = kmeanspp(rng, data, k, kind);
        Ok(match self {
            Solver::Lloyd => refine(data, seeding.centers, kind, cfg.lloyd),
            Solver::LocalSearch => local_search(rng, data, seeding.centers, kind, cfg.local_search),
        })
    }
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.canonical_name())
    }
}

impl std::str::FromStr for Solver {
    type Err = SolverError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            // Old spellings of the same loop (module docs).
            "lloyd" | "hamerly" | "kmedian-weiszfeld" => Ok(Solver::Lloyd),
            "local-search" => Ok(Solver::LocalSearch),
            other => Err(SolverError::UnknownSolver(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_geom::points::Points;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> Dataset {
        let mut flat = Vec::new();
        for i in 0..30 {
            flat.push(i as f64 * 0.01);
            flat.push(0.0);
            flat.push(100.0 + i as f64 * 0.01);
            flat.push(1.0);
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn names_round_trip() {
        for solver in ALL_SOLVERS {
            let name = solver.to_string();
            assert_eq!(name.parse::<Solver>().unwrap(), solver, "{name}");
        }
        for old in ["hamerly", "kmedian-weiszfeld", " HAMERLY "] {
            assert_eq!(old.parse::<Solver>().unwrap(), Solver::Lloyd, "{old}");
        }
        assert_eq!(
            "simplex".parse::<Solver>().unwrap_err().to_string(),
            "unknown solver `simplex` (expected one of: lloyd, local-search)"
        );
    }

    #[test]
    fn every_combination_solves() {
        let d = two_blobs();
        for solver in ALL_SOLVERS {
            for kind in [CostKind::KMeans, CostKind::KMedian] {
                let mut rng = StdRng::seed_from_u64(5);
                let sol = solver
                    .solve(&mut rng, &d, 2, kind, &SolveConfig::default())
                    .unwrap();
                assert_eq!(sol.k(), 2);
                assert!(sol.cost.is_finite());
                // Two tight blobs 100 apart: any sane 2-clustering costs
                // far less than lumping everything together.
                let single =
                    crate::cost::cost(&d, &Points::from_flat(vec![50.0, 0.5], 2).unwrap(), kind);
                assert!(
                    sol.cost < single * 0.1,
                    "{solver} {kind:?} cost {}",
                    sol.cost
                );
            }
        }
    }

    #[test]
    fn invalid_parameters_error_instead_of_panicking() {
        let d = two_blobs();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            Solver::Lloyd
                .solve(&mut rng, &d, 0, CostKind::KMeans, &SolveConfig::default())
                .unwrap_err(),
            SolverError::InvalidK
        );
        let empty = Dataset::from_flat(vec![], 3).unwrap();
        assert_eq!(
            Solver::Lloyd
                .solve(
                    &mut rng,
                    &empty,
                    2,
                    CostKind::KMeans,
                    &SolveConfig::default()
                )
                .unwrap_err(),
            SolverError::EmptyData
        );
    }
}
