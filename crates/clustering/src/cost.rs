//! Weighted clustering cost evaluation.
//!
//! `cost_z(P, C) = Σ_{p ∈ P} w_p · dist(p, C)^z` — the quantity every
//! compression method tries to preserve (Definition 2.1 of the paper).

use fc_geom::dataset::Dataset;
use fc_geom::distance::{nearest_sq, CostKind};
use fc_geom::par;
use fc_geom::points::Points;

/// Weighted `cost_z(P, C)`. Panics on empty centers or dimension mismatch.
///
/// Chunked through [`fc_geom::par`]: per-chunk partial sums merged in
/// chunk order.
pub fn cost(data: &Dataset, centers: &Points, kind: CostKind) -> f64 {
    assert!(!centers.is_empty(), "cost needs at least one center");
    assert_eq!(
        data.dim(),
        centers.dim(),
        "data and centers must share dimension"
    );
    let dim = centers.dim();
    let flat = centers.as_flat();
    let pflat = data.points().as_flat();
    let weights = data.weights();
    par::sum_chunks(data.points().len(), |r| {
        let mut total = 0.0;
        for (p, &w) in pflat[r.start * dim..r.end * dim]
            .chunks_exact(dim)
            .zip(&weights[r])
        {
            total += w * kind.from_sq(nearest_sq(p, flat, dim).1);
        }
        total
    })
}

/// Per-point *weighted* cost contributions `w_p · dist(p, C)^z`.
pub fn per_point_cost(data: &Dataset, centers: &Points, kind: CostKind) -> Vec<f64> {
    assert!(!centers.is_empty(), "cost needs at least one center");
    let dim = centers.dim();
    let flat = centers.as_flat();
    let pflat = data.points().as_flat();
    let weights = data.weights();
    (pflat.chunks_exact(dim).zip(weights))
        .map(|(p, &w)| w * kind.from_sq(nearest_sq(p, flat, dim).1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_flat(vec![0.0, 0.0, 2.0, 0.0, 0.0, 2.0], 2).unwrap()
    }

    #[test]
    fn cost_single_center_kmeans() {
        let c = Points::from_flat(vec![0.0, 0.0], 2).unwrap();
        // 0 + 4 + 4 = 8
        assert!((cost(&data(), &c, CostKind::KMeans) - 8.0).abs() < 1e-12);
        // k-median: 0 + 2 + 2 = 4
        assert!((cost(&data(), &c, CostKind::KMedian) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cost_uses_nearest_center() {
        let c = Points::from_flat(vec![0.0, 0.0, 2.0, 0.0], 2).unwrap();
        // point 0 -> c0 (0), point 1 -> c1 (0), point 2 -> c0 (4)
        assert!((cost(&data(), &c, CostKind::KMeans) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cost_respects_weights() {
        let d = Dataset::weighted(
            Points::from_flat(vec![0.0, 0.0, 2.0, 0.0], 2).unwrap(),
            vec![1.0, 5.0],
        )
        .unwrap();
        let c = Points::from_flat(vec![0.0, 0.0], 2).unwrap();
        assert!((cost(&d, &c, CostKind::KMeans) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn per_point_cost_sums_to_cost() {
        let c = Points::from_flat(vec![1.0, 1.0], 2).unwrap();
        let d = data();
        let per = per_point_cost(&d, &c, CostKind::KMeans);
        let total: f64 = per.iter().sum();
        assert!((total - cost(&d, &c, CostKind::KMeans)).abs() < 1e-12);
    }
}
