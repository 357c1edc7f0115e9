//! Weighted k-means++ seeding (D^z sampling).
//!
//! The classic `O(ndk)` seeding of Arthur & Vassilvitskii \[2\]: pick the first
//! center with probability proportional to weight, then repeatedly pick a
//! point with probability proportional to `w_p · dist(p, C)^z`. Gives an
//! `O(log k)`-approximation in expectation for k-means and is the seeding
//! inside *standard* sensitivity sampling — precisely the `Ω(nk)` bottleneck
//! Fast-kmeans++ removes.
//!
//! Each center costs one pass over the points. It skips the points the
//! triangle inequality proves nearer their current center than the new
//! one, and writes each point's D^z score and its chunk's total as it goes,
//! so the draw that follows reads them instead of scoring again. A solve
//! ([`crate::lloyd::solve`], [`crate::Solver::solve`]) also keeps the bound
//! table its first Lloyd round resumes from (`assign` module docs, "The
//! first round"); a seeding on its own keeps none.

use fc_geom::dataset::Dataset;
use fc_geom::distance::CostKind;
use fc_geom::points::Points;
use fc_geom::sampling::AliasTable;
use rand::Rng;

use crate::assign::Seeds;

/// Output of seeding: centers plus the assignment/costs accumulated along
/// the way (free by-products of D^z sampling).
#[derive(Debug, Clone)]
pub struct Seeding {
    /// The chosen centers (`k × d`, possibly fewer if the data has fewer
    /// distinct locations than `k`).
    pub centers: Points,
    /// Index into the input dataset of each chosen center.
    pub chosen: Vec<usize>,
    /// Nearest-center label per input point.
    pub labels: Vec<usize>,
    /// Squared distance from each input point to its nearest center.
    pub min_sq: Vec<f64>,
}

impl Seeding {
    /// `dist(p, C)^z` per point for the given objective.
    pub fn cost_z(&self, kind: CostKind) -> Vec<f64> {
        self.min_sq.iter().map(|&d| kind.from_sq(d)).collect()
    }

    /// Total weighted cost of the seeding.
    pub fn total_cost(&self, weights: &[f64], kind: CostKind) -> f64 {
        self.min_sq
            .iter()
            .zip(weights)
            .map(|(&d, &w)| w * kind.from_sq(d))
            .sum()
    }
}

/// Runs weighted D^z-sampling seeding, returning `k` centers (or fewer when
/// the residual cost reaches zero first, i.e. fewer than `k` distinct
/// points). Panics on an empty dataset or `k == 0`.
pub fn kmeanspp<R: Rng + ?Sized>(rng: &mut R, data: &Dataset, k: usize, kind: CostKind) -> Seeding {
    let (centers, chosen, seeds) = seed(rng, data, k, kind, false);
    Seeding {
        centers,
        chosen,
        labels: seeds.labels,
        min_sq: seeds.min_sq,
    }
}

/// [`kmeanspp`], with what it measured on the way left in [`Seeds`]; with
/// `table`, the bounds [`crate::assign::BoundedAssigner::resume`] starts a
/// refinement from.
pub(crate) fn seed<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    k: usize,
    kind: CostKind,
    table: bool,
) -> (Points, Vec<usize>, Seeds) {
    assert!(k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot seed an empty dataset");
    let n = data.len();
    let points = data.points();

    // First center: weight-proportional draw.
    let first = AliasTable::new(data.weights())
        .map(|t| t.sample(rng))
        .unwrap_or(0);

    let mut centers = Points::empty(points.dim());
    // At most `n` distinct centers exist, whatever `k` a request asked for.
    centers.reserve(k.min(n));
    centers
        .push(points.row(first))
        .expect("dimensions match by construction");
    let mut chosen = vec![first];
    let (mut seeds, mut total) = Seeds::new(data, first, k.min(n), kind, table);

    for _ in 1..k {
        // D^z scores and their total come from the pass that placed the
        // last center; every RNG draw stays strictly sequential below.
        if total <= 0.0 {
            // All points coincide with a center: no more distinct locations.
            break;
        }
        let mut target = rng.gen::<f64>() * total;
        let mut next = n - 1;
        for (i, &s) in seeds.scores.iter().enumerate() {
            if target < s {
                next = i;
                break;
            }
            target -= s;
        }
        centers
            .push(points.row(next))
            .expect("dimensions match by construction");
        chosen.push(next);
        total = seeds.add(data, &centers, kind);
    }
    (centers, chosen, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::cost;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn four_corners(scale: f64) -> Dataset {
        // Four tight blobs at the corners of a square.
        let mut flat = Vec::new();
        for &(cx, cy) in &[(0.0, 0.0), (scale, 0.0), (0.0, scale), (scale, scale)] {
            for i in 0..25 {
                flat.push(cx + (i % 5) as f64 * 0.01);
                flat.push(cy + (i / 5) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn seeding_returns_k_centers() {
        let d = four_corners(100.0);
        let s = kmeanspp(&mut rng(), &d, 4, CostKind::KMeans);
        assert_eq!(s.centers.len(), 4);
        assert_eq!(s.chosen.len(), 4);
        assert_eq!(s.labels.len(), d.len());
    }

    #[test]
    fn a_k_far_past_n_stops_at_the_distinct_points() {
        // A request-supplied k of 2^40 must neither loop nor allocate for k.
        let d = Dataset::from_flat(vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0], 2).unwrap();
        let s = kmeanspp(&mut rng(), &d, 1 << 40, CostKind::KMeans);
        assert_eq!(s.centers.len(), 3);
    }

    #[test]
    fn seeding_on_separated_blobs_hits_every_blob() {
        // With widely separated blobs, D² sampling must pick one center per
        // blob (probability of failure is astronomically small).
        let d = four_corners(1000.0);
        let s = kmeanspp(&mut rng(), &d, 4, CostKind::KMeans);
        let mut blobs_hit = [false; 4];
        for &c in &s.chosen {
            let p = d.point(c);
            let bx = if p[0] > 500.0 { 1 } else { 0 };
            let by = if p[1] > 500.0 { 1 } else { 0 };
            blobs_hit[bx * 2 + by] = true;
        }
        assert!(blobs_hit.iter().all(|&b| b), "blobs hit: {blobs_hit:?}");
    }

    #[test]
    fn seeding_cost_matches_assignment() {
        let d = four_corners(10.0);
        let s = kmeanspp(&mut rng(), &d, 3, CostKind::KMeans);
        let direct = cost(&d, &s.centers, CostKind::KMeans);
        let from_seeding = s.total_cost(d.weights(), CostKind::KMeans);
        assert!((direct - from_seeding).abs() < 1e-9 * direct.max(1.0));
    }

    #[test]
    fn fewer_distinct_points_than_k() {
        let d = Dataset::from_flat(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0], 2).unwrap();
        let s = kmeanspp(&mut rng(), &d, 5, CostKind::KMeans);
        // Only two distinct locations exist.
        assert!(s.centers.len() <= 2);
        assert!(s.total_cost(d.weights(), CostKind::KMeans) < 1e-12);
    }

    #[test]
    fn weights_bias_first_center() {
        // A point with overwhelming weight should almost always be the first center.
        let p = fc_geom::points::Points::from_flat(vec![0.0, 100.0], 1).unwrap();
        let d = Dataset::weighted(p, vec![1e9, 1.0]).unwrap();
        let mut hits = 0;
        let mut r = rng();
        for _ in 0..50 {
            let s = kmeanspp(&mut r, &d, 1, CostKind::KMeans);
            if s.chosen[0] == 0 {
                hits += 1;
            }
        }
        assert!(hits >= 49, "heavy point chosen only {hits}/50 times");
    }

    #[test]
    fn kmedian_uses_linear_distances() {
        let d = four_corners(10.0);
        let s = kmeanspp(&mut rng(), &d, 2, CostKind::KMedian);
        let cz = s.cost_z(CostKind::KMedian);
        for (c, sq) in cz.iter().zip(&s.min_sq) {
            assert!((c * c - sq).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        kmeanspp(&mut rng(), &four_corners(1.0), 0, CostKind::KMeans);
    }
}
