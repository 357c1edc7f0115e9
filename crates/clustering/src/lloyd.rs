//! Weighted Lloyd refinement.
//!
//! Lloyd's algorithm \[49\] alternates assignment and centroid recomputation;
//! for k-median the centroid step is replaced by Weiszfeld's geometric
//! median. Used by the paper's downstream-task experiments (Table 8) and
//! inside the coreset distortion metric, where the candidate solution `C_Ω`
//! is obtained by seeding + Lloyd *on the coreset*.
//!
//! [`refine`] is the workspace's one refinement loop, for both objectives.
//! Its assignment step is [`BoundedAssigner`]: every round measures only
//! the distances the triangle inequality cannot prove unchanged — a few
//! per cent in the long tail where centers barely move. Given centers
//! alone, the first assignment is a full scan; [`solve`] (and
//! [`crate::Solver::solve`]) instead resumes from the labels and bounds
//! k-means++ seeding kept, so no round rescans. What is returned does not
//! depend on either: labels, centers, cost and the stopping round are bit
//! for bit those of the same loop over the plain
//! [`assign`](crate::assign::assign) scan (`tests/refine_reference.rs`).
//!
//! How many rounds run follows the input, not a knob ([`Stop::Resolved`]).
//! A coreset of `n` points resolves the data only so far, and later
//! rounds fit its sampling noise: by default a round that improves the
//! cost by at most `k / (4n)` of itself is the last, `n` the coreset size
//! on every query path. Where `k` exceeds the data's own clusters this
//! ends a solve after two or three rounds, whose centres price slightly
//! *better* on the full data than those of later rounds. One case needs
//! more rounds: a centre left serving two groups of points by a poor
//! seeding can crawl at a few parts in 10⁵ per round and then escape
//! with a large drop. Its cluster is far wider than the others, so while
//! some cluster is more than twice as wide as the median one, the stop
//! waits for a round that improves the cost by at most `k / (1024 n)`.
//! The constants were set by full-data cost, against the earlier `1e-6`
//! tolerance, over Fast-Coreset coresets of Gaussian mixtures and
//! c-outlier data, 16 solve seeds each: without the width test one
//! solve came out 28 % worse; with it, none more than 0.05 %.
//! [`LloydConfig::fixed`] runs a given number of rounds instead, for the
//! distortion metric and other pinned evaluations.

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use fc_geom::points::Points;

use crate::assign::{group_count, Assignment, BoundedAssigner, Seeds};
use crate::kmedian::{geometric_median, weighted_means_and_totals, WeiszfeldConfig};
use crate::solution::Solution;

/// Configuration for Lloyd refinement. The default stops where its input
/// stops resolving ([`Stop::Resolved`], module docs); [`LloydConfig::fixed`]
/// runs a given number of rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LloydConfig {
    /// Maximum alternation rounds.
    pub max_iters: usize,
    /// When a round that ran ends the refinement early.
    pub stop: Stop,
    /// Weiszfeld parameters for the k-median centroid step.
    pub weiszfeld: WeiszfeldConfig,
}

/// When a Lloyd round ends the refinement before `max_iters` have run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Once a round lowers the cost by at most `k / (4n)` of itself, for
    /// `k` centers on `n` points; while some cluster is more than twice
    /// as wide as the median one, only once it lowers it by at most
    /// `k / (1024 n)` (module docs).
    Resolved,
    /// Only once a round does not lower the cost at all.
    Converged,
}

impl Stop {
    /// Whether a round that lowered the cost from `previous` by `improved`,
    /// leaving the points of `weights` assigned to `k` centers by
    /// `assignment`, ends the refinement.
    fn ends(
        self,
        improved: f64,
        previous: f64,
        assignment: &Assignment,
        weights: &[f64],
        k: usize,
    ) -> bool {
        let scale = previous.max(f64::MIN_POSITIVE);
        let within = |parts: usize| improved <= k as f64 / (parts * weights.len()) as f64 * scale;
        match self {
            Stop::Resolved => {
                within(1024) || (within(4) && !has_wide_cluster(assignment, weights, k))
            }
            Stop::Converged => improved <= 0.0,
        }
    }
}

/// Whether some cluster's cost per unit of weight is more than twice the
/// median cluster's: the mark of a center that serves two groups of
/// points, which later rounds may still pull apart.
fn has_wide_cluster(assignment: &Assignment, weights: &[f64], k: usize) -> bool {
    let costs = assignment.cluster_costs(k, weights);
    let totals = assignment.cluster_weights(k, weights);
    let mut widths: Vec<f64> = (costs.iter().zip(&totals))
        .filter(|&(_, &w)| w > 0.0)
        .map(|(&c, &w)| c / w)
        .collect();
    widths.sort_unstable_by(f64::total_cmp);
    match (widths.get(widths.len() / 2), widths.last()) {
        (Some(&median), Some(&widest)) => widest > 2.0 * median,
        _ => false,
    }
}

impl Default for LloydConfig {
    fn default() -> Self {
        Self {
            max_iters: 20,
            stop: Stop::Resolved,
            weiszfeld: WeiszfeldConfig::default(),
        }
    }
}

impl LloydConfig {
    /// A configuration that runs exactly `iters` rounds, stopping sooner
    /// only at a round that does not lower the cost (a refinement that
    /// has converged). For comparisons that must not move with the input.
    pub fn fixed(iters: usize) -> Self {
        Self {
            max_iters: iters,
            stop: Stop::Converged,
            ..Self::default()
        }
    }
}

/// Refines `initial` centers on `data` with weighted Lloyd (k-means) or
/// Weiszfeld alternation (k-median), until `cfg.stop` ends it or
/// `cfg.max_iters` rounds have run. The returned cost is the cost of the
/// returned centers. The k-means step raises it by rounding at most and
/// Weiszfeld's within its own tolerance, so the round that trips the stop
/// rule may be a hair worse than the one before it.
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
    let assigner = BoundedAssigner::new(data.points(), &initial, kind, groups);
    iterate(data, initial, assigner, kind, cfg)
}

/// [`refine`] from a k-means++ seeding: the first assignment is the one
/// `seeds` kept, bounds included, not a fresh scan.
pub(crate) fn refine_seeded(
    data: &Dataset,
    centers: Points,
    seeds: Seeds,
    kind: CostKind,
    cfg: LloydConfig,
) -> Solution {
    let assigner = BoundedAssigner::resume(data.points(), &centers, seeds, kind);
    iterate(data, centers, assigner, kind, cfg)
}

/// The alternation itself, from `centers` and their first assignment.
fn iterate(
    data: &Dataset,
    mut centers: Points,
    mut assigner: BoundedAssigner,
    kind: CostKind,
    cfg: LloydConfig,
) -> Solution {
    let k = centers.len();
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
        let improved = previous - cost;
        let weights = data.weights();
        if cost <= 0.0
            || cfg
                .stop
                .ends(improved, previous, assigner.assignment(), weights, k)
        {
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
    let points = data.points();
    let weights = data.weights();

    // A cluster is re-seeded when none of its points carries weight.
    // k-means runs one chunked pass over the labelled points (partials
    // merged in chunk order), whose weight totals say which clusters have
    // any; k-median needs the member lists, and computes one Weiszfeld
    // median per cluster.
    let (computed, cluster_ok): (Vec<Vec<f64>>, Vec<bool>) = match kind {
        CostKind::KMeans => {
            let (means, totals) = weighted_means_and_totals(points, weights, &assignment.labels, k);
            (means, totals.iter().map(|&t| t > 0.0).collect())
        }
        CostKind::KMedian => {
            let clusters = assignment.clusters(k);
            let ok: Vec<bool> = (clusters.iter())
                .map(|members| members.iter().any(|&i| weights[i] > 0.0))
                .collect();
            let medians = (clusters.iter().zip(&ok))
                .map(|(members, &ok)| {
                    if ok {
                        geometric_median(points, weights, members, weiszfeld)
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            (medians, ok)
        }
    };

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

    let mut centers = Points::empty(points.dim());
    centers.reserve(k);
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
    let (centers, _, seeds) = crate::kmeanspp::seed(rng, data, k, kind, true);
    refine_seeded(data, centers, seeds, kind, cfg)
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

    #[test]
    fn a_wide_cluster_holds_the_derived_stop_back() {
        // Three clusters of two unit-weight points: k / (4n) = 1/8 and
        // k / (1024 n) = 1/2048 of the cost.
        let weights = [1.0; 6];
        let even = Assignment {
            labels: vec![0, 0, 1, 1, 2, 2],
            cost_z: vec![1.0; 6],
        };
        let wide = Assignment {
            cost_z: vec![1.0, 1.0, 1.0, 1.0, 2.5, 2.5],
            ..even.clone()
        };
        let ends =
            |improved: f64, a: &Assignment| Stop::Resolved.ends(improved, 1.0, a, &weights, 3);
        assert!(ends(0.1, &even));
        assert!(!ends(0.1, &wide), "2.5 is more than twice the median 1");
        assert!(ends(1.0 / 4096.0, &wide));
        assert!(!ends(0.2, &even));
        assert!(!Stop::Converged.ends(0.1, 1.0, &wide, &weights, 3));
    }
}
