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
//! `hamerly` is a compatibility alias. It named a second bound-pruned
//! k-means that ran to an assignment fixpoint and ignored `tol`; `refine`
//! now prunes for every caller, so the name — on the wire, in persisted
//! plans — runs `lloyd`'s loop, honours `tol` and returns the same bits.
//! It keeps its k-means-only [`Solver::supports`] rule, so stored plans
//! validate as they always did.

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
    /// Compatibility alias of [`Solver::Lloyd`] (module docs): the same
    /// loop, the same `tol`, the same bits. k-means only.
    Hamerly,
    /// Single-swap local search; slower, escapes some Lloyd minima. Works
    /// under both objectives.
    LocalSearch,
    /// k-means++ (D¹) seeding + Weiszfeld-based alternation, named for the
    /// k-median workflow. k-median only.
    KMedianWeiszfeld,
}

/// Every solver, in canonical order (useful for suites and property tests).
pub const ALL_SOLVERS: [Solver; 4] = [
    Solver::Lloyd,
    Solver::Hamerly,
    Solver::LocalSearch,
    Solver::KMedianWeiszfeld,
];

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
    /// The solver does not implement the requested objective.
    UnsupportedObjective {
        /// The offending solver.
        solver: Solver,
        /// The requested objective.
        kind: CostKind,
    },
    /// `k = 0` was requested.
    InvalidK,
    /// The dataset holds no points.
    EmptyData,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnknownSolver(name) => {
                write!(
                    f,
                    "unknown solver `{name}` (expected one of: lloyd, hamerly, \
                     local-search, kmedian-weiszfeld)"
                )
            }
            SolverError::UnsupportedObjective { solver, kind } => {
                write!(f, "solver `{solver}` does not support {kind:?}")
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
            Solver::Hamerly => "hamerly",
            Solver::LocalSearch => "local-search",
            Solver::KMedianWeiszfeld => "kmedian-weiszfeld",
        }
    }

    /// Whether this solver implements the given objective.
    pub fn supports(self, kind: CostKind) -> bool {
        match self {
            Solver::Lloyd | Solver::LocalSearch => true,
            Solver::Hamerly => kind == CostKind::KMeans,
            Solver::KMedianWeiszfeld => kind == CostKind::KMedian,
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
        if !self.supports(kind) {
            return Err(SolverError::UnsupportedObjective { solver: self, kind });
        }
        let seeding = kmeanspp(rng, data, k, kind);
        Ok(match self {
            Solver::Lloyd | Solver::Hamerly | Solver::KMedianWeiszfeld => {
                refine(data, seeding.centers, kind, cfg.lloyd)
            }
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
            "lloyd" => Ok(Solver::Lloyd),
            "hamerly" => Ok(Solver::Hamerly),
            "local-search" => Ok(Solver::LocalSearch),
            "kmedian-weiszfeld" => Ok(Solver::KMedianWeiszfeld),
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
        assert!(matches!(
            "simplex".parse::<Solver>(),
            Err(SolverError::UnknownSolver(_))
        ));
    }

    #[test]
    fn every_supported_combination_solves() {
        let d = two_blobs();
        for solver in ALL_SOLVERS {
            for kind in [CostKind::KMeans, CostKind::KMedian] {
                let mut rng = StdRng::seed_from_u64(5);
                let result = solver.solve(&mut rng, &d, 2, kind, &SolveConfig::default());
                if solver.supports(kind) {
                    let sol = result.unwrap();
                    assert_eq!(sol.k(), 2);
                    assert!(sol.cost.is_finite());
                    // Two tight blobs 100 apart: any sane 2-clustering costs
                    // far less than lumping everything together.
                    let single = crate::cost::cost(
                        &d,
                        &Points::from_flat(vec![50.0, 0.5], 2).unwrap(),
                        kind,
                    );
                    assert!(
                        sol.cost < single * 0.1,
                        "{solver} {kind:?} cost {}",
                        sol.cost
                    );
                } else {
                    assert_eq!(
                        result.unwrap_err(),
                        SolverError::UnsupportedObjective { solver, kind }
                    );
                }
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

    #[test]
    fn hamerly_is_lloyd_under_another_name() {
        let d = two_blobs();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let cfg = SolveConfig::default();
        let a = Solver::Lloyd
            .solve(&mut r1, &d, 2, CostKind::KMeans, &cfg)
            .unwrap();
        let b = Solver::Hamerly
            .solve(&mut r2, &d, 2, CostKind::KMeans, &cfg)
            .unwrap();
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!((a.rounds, a.distance_evals), (b.rounds, b.distance_evals));
    }
}
