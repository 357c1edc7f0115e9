//! Weighted Lloyd refinement.
//!
//! Lloyd's algorithm \[49\] alternates assignment and centroid recomputation;
//! for k-median the centroid step is replaced by Weiszfeld's geometric
//! median. Used by the paper's downstream-task experiments (Table 8) and
//! inside the coreset distortion metric, where the candidate solution `C_Ω`
//! is obtained by seeding + Lloyd *on the coreset*.
//!
//! [`refine`] is the workspace's one refinement loop, for both objectives.
//! Its assignment step is [`BoundedAssigner`]: the first round scans, later
//! rounds measure only the distances the triangle inequality cannot prove
//! unchanged — a few per cent in the long tail where centers barely move.
//! What is returned does not depend on that: labels, centers, cost and the
//! stopping round are bit for bit those of the same loop over the plain
//! [`assign`](crate::assign::assign) scan (`tests/refine_reference.rs`).

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use fc_geom::points::Points;

use fc_geom::par;

use crate::assign::{group_count, Assignment, BoundedAssigner};
use crate::kmedian::{geometric_median, weighted_means_by_label, WeiszfeldConfig};
use crate::solution::Solution;

/// Configuration for Lloyd refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LloydConfig {
    /// Maximum alternation rounds.
    pub max_iters: usize,
    /// Stop when the relative cost improvement falls below this.
    pub tol: f64,
    /// Weiszfeld parameters for the k-median centroid step.
    pub weiszfeld: WeiszfeldConfig,
}

impl Default for LloydConfig {
    fn default() -> Self {
        Self {
            max_iters: 20,
            tol: 1e-6,
            weiszfeld: WeiszfeldConfig::default(),
        }
    }
}

impl LloydConfig {
    /// A configuration that runs exactly `iters` rounds with no tolerance
    /// stopping (useful for deterministic comparisons).
    pub fn fixed(iters: usize) -> Self {
        Self {
            max_iters: iters,
            tol: 0.0,
            ..Self::default()
        }
    }
}

/// Refines `initial` centers on `data` with weighted Lloyd (k-means) or
/// Weiszfeld alternation (k-median), until a round improves the cost by
/// less than `cfg.tol` of itself or `cfg.max_iters` rounds have run. The
/// returned cost is the cost of the returned centers. The k-means step
/// raises it by rounding at most and Weiszfeld's within its own tolerance,
/// so the round that trips the stop rule may be a hair worse than the one
/// before it.
///
/// Empty clusters are re-seeded at the point with the largest current cost
/// contribution, the standard practical fix.
pub fn refine(data: &Dataset, initial: Points, kind: CostKind, cfg: LloydConfig) -> Solution {
    let groups = group_count(data.len(), initial.len());
    refine_with_groups(data, initial, kind, cfg, groups)
}

/// [`refine`] with the assigner's group count forced instead of derived.
/// The count changes how much is skipped and nothing that is returned;
/// the reference proptest holds 1, `⌈k/10⌉` and `k` to the same bits.
#[doc(hidden)]
pub fn refine_with_groups(
    data: &Dataset,
    initial: Points,
    kind: CostKind,
    cfg: LloydConfig,
    groups: usize,
) -> Solution {
    assert!(
        !initial.is_empty(),
        "refinement needs at least one initial center"
    );
    assert!(!data.is_empty(), "cannot refine on an empty dataset");
    let k = initial.len();
    let mut centers = initial;
    let mut assigner = BoundedAssigner::new(data.points(), &centers, kind, groups);
    let mut cost = assigner.assignment().total_cost(data.weights());
    let mut rounds = 0;

    for _ in 0..cfg.max_iters {
        rounds += 1;
        let assignment = assigner.assignment();
        let moved = recompute_centers(data, assignment, k, kind, cfg.weiszfeld, &centers);
        assigner.reassign(data.points(), &centers, &moved, kind);
        centers = moved;
        let previous = cost;
        cost = assigner.assignment().total_cost(data.weights());
        if cost <= 0.0 || previous - cost <= cfg.tol * previous.max(f64::MIN_POSITIVE) {
            break;
        }
    }

    let (labels, distance_evals) = assigner.finish();
    Solution {
        centers,
        labels,
        cost,
        rounds,
        distance_evals,
    }
}

fn recompute_centers(
    data: &Dataset,
    assignment: &Assignment,
    k: usize,
    kind: CostKind,
    weiszfeld: WeiszfeldConfig,
    previous: &Points,
) -> Points {
    let clusters = assignment.clusters(k);
    let points = data.points();
    let weights = data.weights();
    let mut centers = Points::empty(points.dim());
    centers.reserve(k);

    let cluster_ok: Vec<bool> = clusters
        .iter()
        .map(|members| members.iter().any(|&i| weights[i] > 0.0))
        .collect();

    // Re-seed empty clusters at the points with the largest contributions.
    // Ranking every point is O(n log n) per round, so only pay for it when
    // some cluster actually needs re-seeding (the selection is unchanged).
    let mut reseed = if cluster_ok.iter().all(|&ok| ok) {
        None
    } else {
        let mut worst: Vec<usize> = (0..points.len()).collect();
        worst.sort_by(|&a, &b| {
            let ca = assignment.cost_z[a] * weights[a];
            let cb = assignment.cost_z[b] * weights[b];
            cb.partial_cmp(&ca).expect("costs are finite")
        });
        Some(worst.into_iter())
    };

    // Centroid accumulation fans out through `fc_geom::par`: k-means runs
    // one chunked pass over the labelled points (partials merged in chunk
    // order); k-median computes the per-cluster Weiszfeld medians as
    // independent parallel tasks.
    let computed: Vec<Vec<f64>> = match kind {
        CostKind::KMeans => weighted_means_by_label(points, weights, &assignment.labels, k),
        CostKind::KMedian => {
            let tasks: Vec<&Vec<usize>> = clusters.iter().collect();
            par::map_tasks(tasks, |j, members| {
                if cluster_ok[j] {
                    geometric_median(points, weights, members, weiszfeld)
                } else {
                    Vec::new()
                }
            })
        }
    };

    for (j, &ok) in cluster_ok.iter().enumerate() {
        let center = if !ok {
            match reseed.as_mut().and_then(|it| it.next()) {
                Some(i) => points.row(i).to_vec(),
                None => previous.row(j).to_vec(),
            }
        } else {
            computed[j].clone()
        };
        centers.push(&center).expect("center has data dimension");
    }
    centers
}

/// Convenience: k-means++ seeding followed by Lloyd refinement — the
/// "solve on the compressed data" step used throughout the experiments.
pub fn solve<R: rand::Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    k: usize,
    kind: CostKind,
    cfg: LloydConfig,
) -> Solution {
    let seeding = crate::kmeanspp::kmeanspp(rng, data, k, kind);
    refine(data, seeding.centers, kind, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn two_blobs() -> Dataset {
        let mut flat = Vec::new();
        for i in 0..20 {
            flat.push(i as f64 * 0.01);
            flat.push(0.0);
        }
        for i in 0..20 {
            flat.push(100.0 + i as f64 * 0.01);
            flat.push(0.0);
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn lloyd_recovers_two_blobs() {
        let d = two_blobs();
        // Deliberately bad initialization: both centers in one blob.
        let init = Points::from_flat(vec![0.0, 0.0, 0.05, 0.0], 2).unwrap();
        let sol = refine(&d, init, CostKind::KMeans, LloydConfig::default());
        // Lloyd from this initialization keeps one center per... actually the
        // far blob pulls one center across; final cost must be tiny compared
        // to the single-center cost.
        let single = cost(
            &d,
            &Points::from_flat(vec![50.0, 0.0], 2).unwrap(),
            CostKind::KMeans,
        );
        assert!(
            sol.cost < single * 0.01,
            "cost {} vs single-center {}",
            sol.cost,
            single
        );
    }

    #[test]
    fn lloyd_cost_is_monotone() {
        let d = two_blobs();
        let mut r = rng();
        let seeding = crate::kmeanspp::kmeanspp(&mut r, &d, 4, CostKind::KMeans);
        let initial_cost = seeding.total_cost(d.weights(), CostKind::KMeans);
        let sol = refine(
            &d,
            seeding.centers,
            CostKind::KMeans,
            LloydConfig::default(),
        );
        assert!(sol.cost <= initial_cost + 1e-9);
    }

    #[test]
    fn solve_reaches_near_zero_on_separable_data() {
        let d = two_blobs();
        let sol = solve(&mut rng(), &d, 2, CostKind::KMeans, LloydConfig::default());
        // Each blob has tiny extent; 2-means should be ~ sum of within-blob variances.
        assert!(sol.cost < 1.0, "cost {}", sol.cost);
        assert_eq!(sol.centers.len(), 2);
    }

    #[test]
    fn kmedian_refinement_decreases_cost() {
        let d = two_blobs();
        let init = Points::from_flat(vec![10.0, 5.0, 90.0, -5.0], 2).unwrap();
        let before = cost(&d, &init, CostKind::KMedian);
        let sol = refine(&d, init, CostKind::KMedian, LloydConfig::default());
        assert!(sol.cost <= before + 1e-9);
        assert!(
            sol.cost < before * 0.5,
            "k-median cost {} vs {}",
            sol.cost,
            before
        );
    }

    #[test]
    fn empty_cluster_is_reseeded() {
        let d = two_blobs();
        // Three centers, one far away from all data: it gets no points and
        // must be re-seeded rather than producing NaNs.
        let init = Points::from_flat(vec![0.0, 0.0, 100.0, 0.0, 1e6, 1e6], 2).unwrap();
        let sol = refine(&d, init, CostKind::KMeans, LloydConfig::default());
        assert!(sol.cost.is_finite());
        for c in sol.centers.iter() {
            assert!(c.iter().all(|x| x.is_finite()));
            // Every final center should live near the data, not at 1e6.
            assert!(c[0] < 1000.0);
        }
    }

    #[test]
    fn weighted_points_dominate_centroids() {
        let p = Points::from_flat(vec![0.0, 10.0], 1).unwrap();
        let d = Dataset::weighted(p, vec![1000.0, 1.0]).unwrap();
        let init = Points::from_flat(vec![5.0], 1).unwrap();
        let sol = refine(&d, init, CostKind::KMeans, LloydConfig::default());
        // Weighted mean = (0*1000 + 10)/1001 ≈ 0.01.
        assert!((sol.centers.row(0)[0] - 10.0 / 1001.0).abs() < 1e-9);
    }

    #[test]
    fn zero_iteration_config_returns_initial_assignment() {
        let d = two_blobs();
        let init = Points::from_flat(vec![0.0, 0.0, 100.0, 0.0], 2).unwrap();
        let before = cost(&d, &init, CostKind::KMeans);
        let sol = refine(&d, init, CostKind::KMeans, LloydConfig::fixed(0));
        assert!((sol.cost - before).abs() < 1e-9);
    }
}
