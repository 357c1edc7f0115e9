//! HST-seeded coresets — the Section 8.4 extension.
//!
//! Algorithm 1 only needs *some* `O(polylog)`-approximate assignment to
//! drive the sensitivity scores. Section 8.4 observes the seeding can come
//! from solving k-median **exactly on the HST metric** (the quadtree's tree
//! metric, distortion `O(d log Δ)` by Lemma 2.2) with a dedicated tree DP —
//! an approach that generalizes beyond Euclidean inputs. This compressor
//! wires [`fc_quadtree::hst::solve_kmedian_on_hst`] into the sensitivity-
//! sampling pipeline. Its tree is Fast-Coreset's: the same JL embedding
//! (when it reduces the dimension) built into the same one-buffer quadtree.
//!
//! The DP costs `O(Σ_v deg(v)·k²)`, so this variant targets moderate `k`
//! (it trades Fast-kmeans++'s randomness for an exact tree solution); it is
//! an extension baseline, not a replacement for [`crate::FastCoreset`].

use fc_clustering::kmedian::{geometric_median, weighted_mean_of, WeiszfeldConfig};
use fc_clustering::CostKind;
use fc_geom::{Dataset, Points};
use fc_quadtree::tree::QuadtreeConfig;
use rand::RngCore;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::fast_coreset::embedded_tree;
use crate::sampling::{at_weight_scale, importance_sample};
use crate::sensitivity::sensitivity_scores;

/// Coreset construction seeded by the exact HST k-median DP.
#[derive(Debug, Clone, Copy)]
pub struct HstCoreset {
    /// Apply Johnson–Lindenstrauss before building the tree.
    pub use_jl: bool,
    /// Quadtree depth cap.
    pub tree: QuadtreeConfig,
}

impl Default for HstCoreset {
    fn default() -> Self {
        Self {
            use_jl: true,
            tree: QuadtreeConfig::default(),
        }
    }
}

impl Compressor for HstCoreset {
    fn name(&self) -> &str {
        "hst-coreset"
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
            let jl_eps = self.use_jl.then_some(0.5);
            let (tree, _) = embedded_tree(rng, data.points(), params.k, jl_eps, self.tree);
            let hst = fc_quadtree::hst::solve_kmedian_on_hst(&tree, data.weights(), params.k);

            // Assign every point to the nearest chosen center (in the original
            // space) — the HST guarantees these centers are a bounded-factor
            // solution, and the exact assignment can only improve it.
            let centers_seed = data.points().gather(&hst.centers);
            let assignment =
                fc_clustering::assign::assign(data.points(), &centers_seed, params.kind);
            let k_eff = centers_seed.len();

            // Per-cluster 1-mean / 1-median, as in Algorithm 1 step 4.
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); k_eff];
            for (i, &l) in assignment.labels.iter().enumerate() {
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
            let cost_z: Vec<f64> = data
                .points()
                .iter()
                .zip(&assignment.labels)
                .map(|(p, &l)| {
                    params
                        .kind
                        .from_sq(fc_geom::distance::sq_dist(p, centers.row(l)))
                })
                .collect();
            let scores = sensitivity_scores(&assignment.labels, &cost_z, data.weights(), k_eff);
            importance_sample(rng, data, &scores, params.m)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(111)
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
    fn hst_coreset_prices_solutions_well() {
        let d = blobs(&[2_000, 2_000], 500.0);
        let params = CompressionParams {
            k: 2,
            m: 300,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = HstCoreset::default().compress(&mut r, &d, &params);
        let centers = Points::from_flat(vec![0.0, 0.0, 500.0, 0.0], 2).unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let comp = c.cost(&centers, CostKind::KMeans);
        let ratio = (full / comp).max(comp / full);
        assert!(ratio < 1.6, "ratio {ratio}");
    }

    #[test]
    fn captures_tiny_cluster() {
        let d = blobs(&[5_000, 25], 3_000.0);
        let params = CompressionParams {
            k: 2,
            m: 120,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let mut hits = 0;
        for _ in 0..5 {
            let c = HstCoreset::default().compress(&mut r, &d, &params);
            if c.dataset().points().iter().any(|p| p[0] > 1_000.0) {
                hits += 1;
            }
        }
        assert!(hits >= 4, "tiny cluster captured {hits}/5 times");
    }

    #[test]
    fn kmedian_variant_runs() {
        let d = blobs(&[1_500, 1_500], 200.0);
        let params = CompressionParams {
            k: 2,
            m: 200,
            kind: CostKind::KMedian,
        };
        let mut r = rng();
        let c = HstCoreset::default().compress(&mut r, &d, &params);
        assert!(!c.is_empty());
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 0.25, "weight drift {rel}");
    }

    #[test]
    fn m_geq_n_is_identity() {
        let d = blobs(&[40], 1.0);
        let params = CompressionParams {
            k: 2,
            m: 100,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let c = HstCoreset::default().compress(&mut r, &d, &params);
        assert_eq!(c.dataset(), &d);
    }
}
