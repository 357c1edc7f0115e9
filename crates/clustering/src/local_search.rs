//! Single-swap local search.
//!
//! A classical constant-factor heuristic for k-means/k-median: repeatedly try
//! swapping one center for a sampled input point and keep the swap if it
//! lowers the cost. Far slower than Lloyd (each trial re-prices the data)
//! but escapes some of Lloyd's local minima. Provided as an extension
//! baseline for downstream-task comparisons; not part of the paper's tables.

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use fc_geom::points::Points;
use rand::Rng;

use crate::cost::cost;
use crate::solution::Solution;

/// Configuration for local search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalSearchConfig {
    /// Number of candidate swaps to try.
    pub trials: usize,
    /// Required relative improvement for accepting a swap.
    pub min_gain: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        Self {
            trials: 50,
            min_gain: 1e-4,
        }
    }
}

/// Improves `initial` centers by single swaps with sampled input points.
pub fn local_search<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    initial: Points,
    kind: CostKind,
    cfg: LocalSearchConfig,
) -> Solution {
    assert!(
        !initial.is_empty(),
        "local search needs at least one center"
    );
    assert!(!data.is_empty(), "local search needs data");
    let k = initial.len();
    let dim = initial.dim();
    let mut centers = initial;
    let mut best_cost = cost(data, &centers, kind);

    for _ in 0..cfg.trials {
        let swap_out = rng.gen_range(0..k);
        let swap_in = rng.gen_range(0..data.len());
        let mut candidate = centers.clone();
        candidate
            .row_mut(swap_out)
            .copy_from_slice(data.point(swap_in));
        let c = cost(data, &candidate, kind);
        if c < best_cost * (1.0 - cfg.min_gain) {
            centers = candidate;
            best_cost = c;
        }
    }

    let assignment = crate::assign::assign(data.points(), &centers, kind);
    debug_assert_eq!(dim, data.dim());
    Solution {
        centers,
        labels: assignment.labels,
        cost: best_cost,
        rounds: cfg.trials,
        // One pricing before the swaps, one per swap, one final assignment.
        distance_evals: (cfg.trials as u64 + 2) * (data.len() * k) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn local_search_never_increases_cost() {
        let d = Dataset::from_flat(
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 50.0, 50.0, 51.0, 50.0],
            2,
        )
        .unwrap();
        let init = Points::from_flat(vec![25.0, 25.0, 26.0, 25.0], 2).unwrap();
        let before = cost(&d, &init, CostKind::KMeans);
        let mut rng = StdRng::seed_from_u64(5);
        let sol = local_search(
            &mut rng,
            &d,
            init,
            CostKind::KMeans,
            LocalSearchConfig::default(),
        );
        assert!(sol.cost <= before + 1e-9);
    }

    #[test]
    fn local_search_escapes_bad_placement() {
        // Centers placed in empty space; swaps with data points must help a lot.
        let d =
            Dataset::from_flat(vec![0.0, 0.0, 0.1, 0.0, 100.0, 100.0, 100.1, 100.0], 2).unwrap();
        let init = Points::from_flat(vec![-500.0, -500.0, 500.0, 500.0], 2).unwrap();
        let before = cost(&d, &init, CostKind::KMeans);
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = LocalSearchConfig {
            trials: 200,
            min_gain: 1e-6,
        };
        let sol = local_search(&mut rng, &d, init, CostKind::KMeans, cfg);
        assert!(sol.cost < before * 0.01, "cost {} vs {}", sol.cost, before);
    }
}
