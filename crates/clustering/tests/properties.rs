//! Property-based tests for the clustering substrate.

use fc_clustering::assign::assign;
use fc_clustering::cost::{cost, per_point_cost};
use fc_clustering::kmeanspp::kmeanspp;
use fc_clustering::lloyd::{refine, LloydConfig};
use fc_clustering::CostKind;
use fc_geom::distance::sq_dist;
use fc_geom::par::CHUNK_POINTS;
use fc_geom::{Dataset, Points};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (2usize..40, 1usize..4).prop_flat_map(|(n, dim)| {
        prop::collection::vec(-100.0f64..100.0, n * dim)
            .prop_map(move |flat| Dataset::from_flat(flat, dim).unwrap())
    })
}

/// Dimensions on both sides of every kernel the nearest-centre scan
/// dispatches to: fixed scalar, fixed lane-tree, and generic pruned.
const COST_DIMS: [usize; 9] = [1, 2, 3, 5, 8, 16, 19, 32, 64];

/// `cost` written out plainly: per-point `w · from_sq(min sq_dist)`, summed
/// within each `CHUNK_POINTS` chunk, the chunk sums added in chunk order.
fn reference_cost(d: &Dataset, centers: &Points, kind: CostKind) -> f64 {
    (0..d.len())
        .step_by(CHUNK_POINTS)
        .map(|start| {
            let mut total = 0.0;
            for i in start..(start + CHUNK_POINTS).min(d.len()) {
                let min = centers
                    .iter()
                    .map(|c| sq_dist(d.point(i), c))
                    .fold(f64::INFINITY, f64::min);
                total += d.weight(i) * kind.from_sq(min);
            }
            total
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cost_matches_the_plain_scan_bit_for_bit(
        dim_at in 0usize..COST_DIMS.len(),
        n in 1usize..2_600,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let dim = COST_DIMS[dim_at];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coords = |len: usize| -> Vec<f64> {
            (0..len).map(|_| rng.gen::<f64>() * 200.0 - 100.0).collect()
        };
        let points = Points::from_flat(coords(n * dim), dim).unwrap();
        let centers = Points::from_flat(coords(k * dim), dim).unwrap();
        let weights = (0..n).map(|_| rng.gen::<f64>() * 4.0).collect();
        let d = Dataset::weighted(points, weights).unwrap();
        for kind in [CostKind::KMeans, CostKind::KMedian] {
            let got = cost(&d, &centers, kind);
            prop_assert_eq!(got.to_bits(), reference_cost(&d, &centers, kind).to_bits());
        }
    }

    #[test]
    fn per_point_cost_sums_to_total(d in dataset_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2.min(d.len());
        let s = kmeanspp(&mut rng, &d, k, CostKind::KMeans);
        let total = cost(&d, &s.centers, CostKind::KMeans);
        let sum: f64 = per_point_cost(&d, &s.centers, CostKind::KMeans).iter().sum();
        prop_assert!((total - sum).abs() <= 1e-6 * total.max(1.0));
    }

    #[test]
    fn assignment_labels_are_argmin(d in dataset_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 3.min(d.len());
        let s = kmeanspp(&mut rng, &d, k, CostKind::KMeans);
        let a = assign(d.points(), &s.centers, CostKind::KMeans);
        for (i, &label) in a.labels.iter().enumerate() {
            let p = d.point(i);
            let assigned = fc_geom::distance::sq_dist(p, s.centers.row(label));
            for c in s.centers.iter() {
                prop_assert!(assigned <= fc_geom::distance::sq_dist(p, c) + 1e-9);
            }
        }
    }

    #[test]
    fn more_centers_never_increase_cost(d in dataset_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 3.min(d.len());
        let s = kmeanspp(&mut rng, &d, k, CostKind::KMeans);
        for prefix in 1..=s.centers.len() {
            // Cost with the first `prefix` centers.
            let sub = Points::from_flat(
                s.centers.as_flat()[..prefix * d.dim()].to_vec(),
                d.dim(),
            ).unwrap();
            if prefix > 1 {
                let prev = Points::from_flat(
                    s.centers.as_flat()[..(prefix - 1) * d.dim()].to_vec(),
                    d.dim(),
                ).unwrap();
                prop_assert!(
                    cost(&d, &sub, CostKind::KMeans) <= cost(&d, &prev, CostKind::KMeans) + 1e-9
                );
            }
        }
    }

    #[test]
    fn lloyd_never_increases_cost(d in dataset_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2.min(d.len());
        let s = kmeanspp(&mut rng, &d, k, CostKind::KMeans);
        let before = cost(&d, &s.centers, CostKind::KMeans);
        let sol = refine(&d, s.centers, CostKind::KMeans, LloydConfig::default());
        prop_assert!(sol.cost <= before + 1e-6 * before.max(1.0));
        // And the reported cost matches a fresh evaluation.
        let check = cost(&d, &sol.centers, CostKind::KMeans);
        prop_assert!((sol.cost - check).abs() <= 1e-6 * check.max(1.0));
    }

    #[test]
    fn kmedian_cost_dominated_by_sqrt_kmeans(d in dataset_strategy(), seed in any::<u64>()) {
        // Cauchy-Schwarz: cost_1(P,C) <= sqrt(n * cost_2(P,C)).
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2.min(d.len());
        let s = kmeanspp(&mut rng, &d, k, CostKind::KMedian);
        let c1 = cost(&d, &s.centers, CostKind::KMedian);
        let c2 = cost(&d, &s.centers, CostKind::KMeans);
        let n = d.len() as f64;
        prop_assert!(c1 * c1 <= n * c2 + 1e-6 * (n * c2).max(1.0));
    }
}
