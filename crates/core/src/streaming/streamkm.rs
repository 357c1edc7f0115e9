//! StreamKM++ \[1\]: coreset trees over merge-&-reduce buckets.
//!
//! The coreset tree performs hierarchical divisive D²-splitting: starting
//! from one root cluster, repeatedly pick a leaf with probability
//! proportional to its quantization cost, draw a new center inside it by D²
//! sampling, and split the leaf between the old and new centers — until `m`
//! leaves exist. Leaf centers weighted by leaf mass form the summary.
//! StreamKM++'s bucket cascade merges full buckets upward and re-reduces
//! each merge with a fresh tree, which is merge-&-reduce over
//! [`CoresetTreeCompressor`]: a stream of `Method::StreamKm` runs exactly
//! that ([`crate::streaming::MergeReduce`]).
//!
//! StreamKM++ targets k-means only (the paper excludes it from the k-median
//! figures) and its theoretical coreset size is exponential in `d` — which
//! is exactly why Table 9 shows mediocre distortion at the sizes sensitivity
//! sampling thrives on.

use crate::{CompressionParams, Compressor, Coreset};
use fc_geom::sampling::AliasTable;
use fc_geom::{Dataset, Points};
use rand::Rng;
use rand::RngCore;

/// One leaf of the coreset tree.
struct Leaf {
    /// Indices (into the dataset being reduced) of the leaf's points.
    indices: Vec<usize>,
    /// Index of the leaf's center point.
    center: usize,
    /// Weighted quantization cost Σ w·dist²(p, center).
    cost: f64,
}

impl Leaf {
    /// The leaf of `indices` around `center`, priced on `points`.
    fn new(points: &Points, weights: &[f64], indices: Vec<usize>, center: usize) -> Leaf {
        let cost = indices
            .iter()
            .map(|&i| weights[i] * fc_geom::distance::sq_dist(points.row(i), points.row(center)))
            .sum();
        Leaf {
            indices,
            center,
            cost,
        }
    }
}

/// Builds a coreset of (at most) `m` points via the coreset tree.
pub fn coreset_tree_reduce<R: Rng + ?Sized>(rng: &mut R, data: &Dataset, m: usize) -> Coreset {
    assert!(m > 0);
    if data.len() <= m {
        return Coreset::new(data.clone());
    }
    let (points, weights) = (data.points(), data.weights());
    let root_center = AliasTable::new(weights).map(|t| t.sample(rng)).unwrap_or(0);
    let make_leaf = |indices, center| Leaf::new(points, weights, indices, center);
    let mut leaves = vec![make_leaf((0..data.len()).collect(), root_center)];

    while leaves.len() < m {
        // Pick a leaf proportional to cost.
        let total: f64 = leaves.iter().map(|l| l.cost).sum();
        if total <= 0.0 {
            break; // every leaf is degenerate: nothing left to split
        }
        let mut target = rng.gen::<f64>() * total;
        let mut pick = leaves.len() - 1;
        for (i, l) in leaves.iter().enumerate() {
            if target < l.cost {
                pick = i;
                break;
            }
            target -= l.cost;
        }
        // New center inside the leaf by D² sampling w.r.t. the old center.
        let leaf = &leaves[pick];
        let scores: Vec<f64> = leaf
            .indices
            .iter()
            .map(|&i| {
                weights[i] * fc_geom::distance::sq_dist(points.row(i), points.row(leaf.center))
            })
            .collect();
        let Some(table) = AliasTable::new(&scores) else {
            // Degenerate leaf (cost 0 but picked due to fp slack): zero it.
            leaves[pick].cost = 0.0;
            continue;
        };
        let new_center = leaf.indices[table.sample(rng)];
        // Split members between old and new center.
        let old_center = leaf.center;
        let (mut old_side, mut new_side) = (Vec::new(), Vec::new());
        for &i in &leaf.indices {
            let d_old = fc_geom::distance::sq_dist(points.row(i), points.row(old_center));
            let d_new = fc_geom::distance::sq_dist(points.row(i), points.row(new_center));
            if d_new < d_old {
                new_side.push(i);
            } else {
                old_side.push(i);
            }
        }
        if new_side.is_empty() || old_side.is_empty() {
            leaves[pick].cost = 0.0;
            continue;
        }
        leaves[pick] = make_leaf(old_side, old_center);
        leaves.push(make_leaf(new_side, new_center));
    }

    let indices: Vec<usize> = leaves.iter().map(|l| l.center).collect();
    let leaf_weights: Vec<f64> = leaves
        .iter()
        .map(|l| l.indices.iter().map(|&i| weights[i]).sum())
        .collect();
    Coreset::new(
        data.gather(&indices, leaf_weights)
            .expect("indices are in range"),
    )
}

/// [`Compressor`] adapter for the coreset tree: Table 9's static
/// evaluation, and every StreamKM++ stream as merge-&-reduce over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoresetTreeCompressor;

impl Compressor for CoresetTreeCompressor {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        coreset_tree_reduce(rng, data, params.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::CostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(71)
    }

    fn blobs() -> Dataset {
        let mut flat = Vec::new();
        for b in 0..4 {
            for i in 0..800 {
                flat.push(b as f64 * 50.0 + (i % 20) as f64 * 0.01);
                flat.push((i / 20) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn tree_reduce_respects_size_and_weight() {
        let d = blobs();
        let mut r = rng();
        let c = coreset_tree_reduce(&mut r, &d, 64);
        assert!(c.len() <= 64);
        assert!((c.total_weight() - d.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn tree_reduce_covers_all_blobs() {
        let d = blobs();
        let mut r = rng();
        let c = coreset_tree_reduce(&mut r, &d, 40);
        let mut blob_mass = [0.0f64; 4];
        for (p, &w) in c.dataset().points().iter().zip(c.dataset().weights()) {
            let b = (p[0] / 50.0).round().clamp(0.0, 3.0) as usize;
            blob_mass[b] += w;
        }
        for (b, &mass) in blob_mass.iter().enumerate() {
            assert!(
                (mass - 800.0).abs() < 160.0,
                "blob {b} mass {mass} (expected ~800)"
            );
        }
    }

    #[test]
    fn tree_reduce_small_input_is_identity() {
        let d = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        let mut r = rng();
        let c = coreset_tree_reduce(&mut r, &d, 10);
        assert_eq!(c.dataset(), &d);
    }

    #[test]
    fn compressor_adapter_matches_direct_call() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 50,
            kind: CostKind::KMeans,
        };
        let mut r1 = rng();
        let via_trait = CoresetTreeCompressor.compress(&mut r1, &d, &params);
        let mut r2 = rng();
        let direct = coreset_tree_reduce(&mut r2, &d, 50);
        assert_eq!(via_trait.dataset(), direct.dataset());
    }
}
