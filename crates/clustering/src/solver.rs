//! The solve step by name: k-means++ seeding, then [`crate::lloyd`]'s
//! refinement (Lloyd for k-means, Weiszfeld alternation for k-median).
//!
//! [`Solver`] has one value, [`Solver::Lloyd`]. It stays a type so that
//! plans and `clustered` answers keep their `"solver":"lloyd"` field and
//! older clients that name a solver keep working. Three retired names,
//! `hamerly`, `kmedian-weiszfeld` and `local-search`, parse as
//! [`Solver::Lloyd`], so persisted plans and old requests still read.
//! `Display` prints only `lloyd`.

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use rand::Rng;

use crate::lloyd::LloydConfig;
use crate::solution::Solution;

/// The solve step's name on plans and on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Solver {
    /// k-means++ seeding + weighted Lloyd (k-means) or Weiszfeld
    /// alternation (k-median).
    Lloyd,
}

/// The solve's budget, with usable defaults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveConfig {
    /// Budget for Lloyd / Weiszfeld alternation.
    pub lloyd: LloydConfig,
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
                write!(f, "unknown solver `{name}` (expected one of: lloyd)")
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
        "lloyd"
    }

    /// [`crate::lloyd::solve`] after checking `k` and `data`: the one
    /// entry point every workflow — batch plan, streaming finish, serving
    /// engine — funnels through.
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
        Ok(crate::lloyd::solve(rng, data, k, kind, cfg.lloyd))
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
            // Retired spellings (module docs).
            "lloyd" | "hamerly" | "kmedian-weiszfeld" | "local-search" => Ok(Solver::Lloyd),
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
        assert_eq!(Solver::Lloyd.to_string(), "lloyd");
        for name in [
            "lloyd",
            "hamerly",
            "kmedian-weiszfeld",
            " HAMERLY ",
            "local-search",
        ] {
            assert_eq!(name.parse::<Solver>().unwrap(), Solver::Lloyd, "{name}");
        }
        assert_eq!(
            "simplex".parse::<Solver>().unwrap_err().to_string(),
            "unknown solver `simplex` (expected one of: lloyd)"
        );
    }

    #[test]
    fn solves_under_both_objectives() {
        let d = two_blobs();
        for kind in [CostKind::KMeans, CostKind::KMedian] {
            let mut rng = StdRng::seed_from_u64(5);
            let sol = Solver::Lloyd
                .solve(&mut rng, &d, 2, kind, &SolveConfig::default())
                .unwrap();
            assert_eq!(sol.k(), 2);
            assert!(sol.cost.is_finite());
            // Two tight blobs 100 apart: any sane 2-clustering costs
            // far less than lumping everything together.
            let single =
                crate::cost::cost(&d, &Points::from_flat(vec![50.0, 0.5], 2).unwrap(), kind);
            assert!(sol.cost < single * 0.1, "{kind:?} cost {}", sol.cost);
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
