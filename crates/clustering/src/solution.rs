//! Clustering solutions.

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use fc_geom::points::Points;

/// A candidate solution: `k` centers, per-point labels, the weighted cost
/// under which it was produced, and what producing it took.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The center store (`k × d`).
    pub centers: Points,
    /// Nearest-center label for each point of the dataset the solution was
    /// computed on.
    pub labels: Vec<usize>,
    /// Weighted `cost_z` of `centers` on that dataset.
    pub cost: f64,
    /// Refinement rounds run (local search: swaps tried).
    pub rounds: usize,
    /// Point–center distances the solve measured, seeding included. Plain
    /// k-means++ and plain scans measure `n · k · (rounds + 1)`: seeding's
    /// `n · k` stands in for the first scan, which a seeded solve skips
    /// unless seeding ran out of distinct points before `k` centers. The
    /// gap is what pruning skipped.
    pub distance_evals: u64,
}

impl Solution {
    /// Number of centers.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Re-evaluates this solution's cost on (possibly different) data —
    /// the operation at the heart of the coreset guarantee, where a solution
    /// computed on `Ω` is priced on `P` and vice versa.
    pub fn cost_on(&self, data: &Dataset, kind: CostKind) -> f64 {
        crate::cost::cost(data, &self.centers, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_on_reprices_solution() {
        let centers = Points::from_flat(vec![0.0, 0.0], 2).unwrap();
        let sol = Solution {
            centers,
            labels: vec![0, 0],
            cost: 0.0,
            rounds: 0,
            distance_evals: 0,
        };
        let d = Dataset::from_flat(vec![3.0, 4.0, 0.0, 0.0], 2).unwrap();
        assert!((sol.cost_on(&d, CostKind::KMeans) - 25.0).abs() < 1e-12);
        assert!((sol.cost_on(&d, CostKind::KMedian) - 5.0).abs() < 1e-12);
        assert_eq!(sol.k(), 1);
    }
}
