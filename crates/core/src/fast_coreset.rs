//! **Fast-Coresets** — Algorithm 1 of the paper, end to end.
//!
//! ```text
//! 1. Johnson–Lindenstrauss embed P into d̃ = O(log k) dimensions (when
//!    that is fewer than d).
//! 2. (Section 4, only when the tree truncates) Crude-Approx + Reduce-Spread
//!    so the quadtree depth is O(log(poly(n, d, log Δ))) instead of O(log Δ).
//! 3. Fast-kmeans++ on the quadtree over the embedding: centers AND
//!    assignments in Õ(nd).
//! 4. Per cluster C_i, the 1-mean (k-means) or 1-median (k-median) c_i,
//!    computed in the ORIGINAL space R^d.
//! 5. Sensitivity scores s(p) = dist^z(p, c_i)/cost(C_i, c_i) + 1/|C_i|.
//! 6. Sample m points ∝ s with inverse-probability weights (optionally the
//!    rebalanced weights of lines 7–8).
//! ```
//!
//! The projection, tree and spread reduction only determine the *partition*;
//! every quantity feeding the scores is computed on the original points, so
//! geometric fidelity is never lost to the embedding (Corollary 3.2's
//! argument: the partition is an `O(polylog k)`-approximation, and the
//! coreset size compensates for the approximation factor).
//!
//! Step 2 exists to keep the tree shallow. The tree here is compressed and
//! built from one quantisation, so depth costs nothing until the data needs
//! more than the tree's `2^-max_depth` of resolution; whether it does is a
//! fact the build itself reports ([`Quadtree::truncated`]). The partition
//! therefore builds the tree on the embedded points first and pays for
//! step 2 — and a second build — only when that tree left different points
//! in one finest cell. On everything else step 2 draws nothing from the RNG.
//!
//! Step 1 and step 3's tree are one build ([`Quadtree::build_projected`]):
//! the sparse projection is written into one `n × t` buffer, which is then
//! quantised where it lies, so the partition's working set is that buffer.
//! The embedded points exist as `f64`s again only on step 2's rare path,
//! regenerated from the projection the build kept, with no second draw.

use std::borrow::Cow;

use fc_clustering::kmedian::{geometric_median, weighted_mean_of, WeiszfeldConfig};
use fc_clustering::CostKind;
use fc_geom::jl::{target_dim_for_clustering, JlKind, JlProjection};
use fc_geom::{Dataset, Points};
use fc_quadtree::crude::crude_approx;
use fc_quadtree::fast_kmeanspp::{fast_kmeanspp, FastSeedConfig};
use fc_quadtree::spread::{reduce_spread, SpreadParams};
use fc_quadtree::tree::{Quadtree, QuadtreeConfig};
use rand::RngCore;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::sampling::{
    at_weight_scale, importance_sample, importance_sample_rebalanced, WeightMode,
};
use crate::sensitivity::sensitivity_scores;

/// Configuration of the Fast-Coreset pipeline.
#[derive(Debug, Clone, Copy)]
pub struct FastCoresetConfig {
    /// Apply Johnson–Lindenstrauss when the input dimension exceeds the
    /// `O(log k)` target (the paper enables this only for high-dimensional
    /// data such as MNIST).
    pub use_jl: bool,
    /// Distortion parameter of the JL target dimension.
    pub jl_eps: f64,
    /// Allow Crude-Approx + Reduce-Spread (Section 4). Allowed is not
    /// always: they run when the quadtree on the embedded points truncates
    /// ([`Quadtree::truncated`]) and are skipped, at no cost and with no RNG
    /// draw, when it does not. `false` keeps the truncated tree.
    pub reduce_spread: bool,
    /// Weight finalization (plain inverse-probability vs. the rebalanced
    /// weights of Algorithm 1 lines 7–8).
    pub weight_mode: WeightMode,
    /// Quadtree depth cap.
    pub tree: QuadtreeConfig,
    /// Tree-sampler retry budget.
    pub seeding: FastSeedConfig,
}

impl Default for FastCoresetConfig {
    fn default() -> Self {
        Self {
            use_jl: true,
            jl_eps: 0.5,
            reduce_spread: true,
            weight_mode: WeightMode::Unbiased,
            tree: QuadtreeConfig::default(),
            seeding: FastSeedConfig::default(),
        }
    }
}

/// The Fast-Coreset compressor (Algorithm 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastCoreset {
    /// Pipeline configuration.
    pub config: FastCoresetConfig,
}

impl FastCoreset {
    /// Creates a Fast-Coreset compressor with an explicit configuration.
    pub fn with_config(config: FastCoresetConfig) -> Self {
        Self { config }
    }

    /// Runs steps 1–4 only: the partition (labels), the per-cluster centers
    /// in the original space, and the per-point `dist^z` to those centers.
    /// Exposed so benches can time the seeding separately from the sampling.
    pub fn partition(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> (Vec<usize>, Points, Vec<f64>) {
        let cfg = &self.config;
        // Step 1 and step 3's tree in one build: the tree comes first, because
        // it says whether step 2 has work to do.
        let jl_eps = cfg.use_jl.then_some(cfg.jl_eps);
        let (mut tree, projection) = embedded_tree(rng, data.points(), params.k, jl_eps, cfg.tree);
        // Step 2: spread reduction, where the tree ran out of bits — it
        // affects only the tree's geometry. Geometry is about locations, so
        // both calls see the point *count*: the crude bound is on the cost
        // at unit mass, and its reach is a length whatever the weights. The
        // embedded points are regenerated from the projection already drawn.
        if tree.truncated() && cfg.reduce_spread {
            let working = match &projection {
                Some(projection) => Cow::Owned(
                    projection
                        .project(data.points())
                        .expect("the projection was drawn for this input"),
                ),
                None => Cow::Borrowed(data.points()),
            };
            let n = data.len();
            let bound = crude_approx(rng, &working, params.k, params.kind, n as f64);
            let sp = SpreadParams::practical(n, working.dim());
            let (reduced, _map) = reduce_spread(rng, &working, bound.reach(params.kind), sp);
            tree = Quadtree::build(rng, &reduced, cfg.tree);
        }
        // Step 3: tree-metric seeding → partition.
        let seeding = fast_kmeanspp(rng, data, &tree, params.k, params.kind, cfg.seeding);
        let k_eff = seeding.k();

        // Step 4: per-cluster 1-mean / 1-median in the ORIGINAL space.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); k_eff];
        for (i, &l) in seeding.labels.iter().enumerate() {
            members[l].push(i);
        }
        let mut centers = Points::empty(data.dim());
        centers.reserve(k_eff);
        for cluster in &members {
            let c = match params.kind {
                CostKind::KMeans => weighted_mean_of(data.points(), data.weights(), cluster),
                CostKind::KMedian => geometric_median(
                    data.points(),
                    data.weights(),
                    cluster,
                    WeiszfeldConfig::default(),
                ),
            };
            centers.push(&c).expect("center has data dimension");
        }
        // Step 5 input: dist^z from each point to its cluster center.
        let cost_z: Vec<f64> = data
            .points()
            .iter()
            .zip(&seeding.labels)
            .map(|(p, &l)| {
                params
                    .kind
                    .from_sq(fc_geom::distance::sq_dist(p, centers.row(l)))
            })
            .collect();
        (seeding.labels, centers, cost_z)
    }
}

/// Step 1 and the tree of step 3: the quadtree over the JL embedding of
/// `points` when `jl_eps` asks for one and it reduces the dimension
/// ([`Quadtree::build_projected`]: one `n × t` buffer, projected and then
/// quantised in place), else over the rows themselves. The draws are those
/// of `project_if_beneficial` followed by [`Quadtree::build`]. Returns the
/// projection drawn, if any, so the embedded points can be regenerated
/// without another draw.
pub(crate) fn embedded_tree(
    rng: &mut dyn RngCore,
    points: &Points,
    k: usize,
    jl_eps: Option<f64>,
    config: QuadtreeConfig,
) -> (Quadtree, Option<JlProjection>) {
    let projection = jl_eps
        .map(|eps| target_dim_for_clustering(k, eps))
        .filter(|&target| points.dim() > target && !points.is_empty())
        .and_then(|target| {
            JlProjection::sample(rng, JlKind::SparseAchlioptas, points.dim(), target).ok()
        });
    let tree = match &projection {
        Some(projection) => Quadtree::build_projected(rng, points, projection, config),
        None => Quadtree::build(rng, points, config),
    };
    (tree, projection)
}

impl Compressor for FastCoreset {
    fn name(&self) -> &str {
        "fast-coreset"
    }

    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        assert!(!data.is_empty(), "cannot compress an empty dataset");
        if params.m >= data.len() {
            return Coreset::new(data.clone());
        }
        at_weight_scale(data, |data| {
            let (labels, centers, cost_z) = self.partition(rng, data, params);
            let scores = sensitivity_scores(&labels, &cost_z, data.weights(), centers.len());
            match self.config.weight_mode {
                WeightMode::Unbiased => importance_sample(rng, data, &scores, params.m),
                WeightMode::Rebalanced { epsilon } => importance_sample_rebalanced(
                    rng, data, &scores, &labels, &centers, params.m, epsilon,
                ),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    fn blobs(sizes: &[usize], gap: f64) -> Dataset {
        let mut flat = Vec::new();
        for (b, &s) in sizes.iter().enumerate() {
            for i in 0..s {
                flat.push(b as f64 * gap + (i % 10) as f64 * 0.001);
                flat.push((i / 10 % 10) as f64 * 0.001);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn produces_at_most_m_points_with_near_input_weight() {
        let d = blobs(&[2000, 2000, 2000], 100.0);
        let params = CompressionParams {
            k: 3,
            m: 300,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = FastCoreset::default().compress(&mut r, &d, &params);
        assert!(c.len() <= 300);
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 0.2, "total weight off by {rel}");
    }

    #[test]
    fn captures_tiny_far_cluster_unlike_uniform() {
        let d = blobs(&[9_000, 30], 5_000.0);
        let params = CompressionParams {
            k: 2,
            m: 150,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let mut hits = 0;
        for _ in 0..10 {
            let c = FastCoreset::default().compress(&mut r, &d, &params);
            if c.dataset().points().iter().any(|p| p[0] > 1_000.0) {
                hits += 1;
            }
        }
        assert!(hits >= 9, "tiny cluster captured only {hits}/10 times");
    }

    #[test]
    fn coreset_prices_candidate_solutions_well() {
        let d = blobs(&[3_000, 3_000], 1_000.0);
        let params = CompressionParams {
            k: 2,
            m: 500,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = FastCoreset::default().compress(&mut r, &d, &params);
        for centers in [
            Points::from_flat(vec![0.0, 0.0, 1_000.0, 0.0], 2).unwrap(),
            Points::from_flat(vec![500.0, 0.0, -500.0, 0.0], 2).unwrap(),
            Points::from_flat(vec![0.0, 50.0, 900.0, -50.0], 2).unwrap(),
        ] {
            let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
            let comp = c.cost(&centers, CostKind::KMeans);
            let ratio = (full / comp).max(comp / full);
            assert!(
                ratio < 1.6,
                "ratio {ratio} for centers {:?}",
                centers.row(0)
            );
        }
    }

    #[test]
    fn kmedian_variant_works() {
        let d = blobs(&[2_000, 2_000], 500.0);
        let params = CompressionParams {
            k: 2,
            m: 300,
            kind: CostKind::KMedian,
        };
        let mut r = rng();
        let c = FastCoreset::default().compress(&mut r, &d, &params);
        let centers = Points::from_flat(vec![0.0, 0.0, 500.0, 0.0], 2).unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMedian);
        let comp = c.cost(&centers, CostKind::KMedian);
        let ratio = (full / comp).max(comp / full);
        assert!(ratio < 1.6, "k-median ratio {ratio}");
    }

    #[test]
    fn all_pipeline_variants_run() {
        let d = blobs(&[500, 500], 100.0);
        let params = CompressionParams {
            k: 2,
            m: 100,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        for use_jl in [false, true] {
            for reduce_spread in [false, true] {
                for weight_mode in [
                    WeightMode::Unbiased,
                    WeightMode::Rebalanced { epsilon: 0.1 },
                ] {
                    let cfg = FastCoresetConfig {
                        use_jl,
                        reduce_spread,
                        weight_mode,
                        ..Default::default()
                    };
                    let c = FastCoreset::with_config(cfg).compress(&mut r, &d, &params);
                    assert!(!c.is_empty());
                    assert!(c.total_weight() > 0.0);
                }
            }
        }
    }

    #[test]
    fn m_geq_n_returns_input() {
        let d = blobs(&[50], 1.0);
        let params = CompressionParams {
            k: 2,
            m: 100,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = FastCoreset::default().compress(&mut r, &d, &params);
        assert_eq!(c.dataset(), &d);
    }

    #[test]
    fn partition_centers_live_in_original_space() {
        // Even with JL enabled, step 4's centers must be d-dimensional.
        let mut flat = Vec::new();
        for i in 0..200 {
            for j in 0..64 {
                flat.push(((i * 64 + j) % 17) as f64);
            }
        }
        let d = Dataset::from_flat(flat, 64).unwrap();
        let params = CompressionParams {
            k: 4,
            m: 50,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let (labels, centers, cost_z) = FastCoreset::default().partition(&mut r, &d, &params);
        assert_eq!(centers.dim(), 64);
        assert_eq!(labels.len(), 200);
        assert_eq!(cost_z.len(), 200);
        assert!(labels.iter().all(|&l| l < centers.len()));
    }
}
