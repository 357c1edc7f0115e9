//! StreamKM++ \[1\]: coreset trees over merge-&-reduce buckets.
//!
//! The coreset tree performs hierarchical divisive D²-splitting: starting
//! from one root cluster, repeatedly pick a leaf with probability
//! proportional to its quantization cost, draw a new center inside it by D²
//! sampling, and split the leaf between the old and new centers — until `m`
//! leaves exist. Leaf centers weighted by leaf mass form the summary.
//! The stream is handled with the classic bucket cascade: the first bucket
//! stores `m` raw points; full buckets merge upward, re-reducing with a
//! fresh coreset tree per merge.
//!
//! StreamKM++ targets k-means only (the paper excludes it from the k-median
//! figures) and its theoretical coreset size is exponential in `d` — which
//! is exactly why Table 9 shows mediocre distortion at the sizes sensitivity
//! sampling thrives on.

use crate::sampling::at_coordinate_scale;
use crate::{CompressionParams, Compressor, Coreset};
use fc_geom::sampling::AliasTable;
use fc_geom::{Dataset, Points};
use rand::Rng;
use rand::RngCore;

use super::stream::StreamingCompressor;

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

/// Builds a coreset of (at most) `m` points via the coreset tree. Where the
/// root's cost overflows — finite coordinates of about 1e154 square past
/// `f64::MAX` — the tree grows on the points times the power of two that
/// puts the largest coordinate in `[1, 2)`, which orders every distance as
/// the input does; the leaves still gather the input's own rows. An input
/// whose root cost is finite takes the first path bit for bit.
pub fn coreset_tree_reduce<R: Rng + ?Sized>(rng: &mut R, data: &Dataset, m: usize) -> Coreset {
    assert!(m > 0);
    if data.len() <= m {
        return Coreset::new(data.clone());
    }
    let weights = data.weights();
    let root_center = AliasTable::new(weights).map(|t| t.sample(rng)).unwrap_or(0);
    let mut root = Leaf::new(
        data.points(),
        weights,
        (0..data.len()).collect(),
        root_center,
    );
    let scaled;
    let points = if root.cost.is_finite() {
        data.points()
    } else {
        scaled = at_coordinate_scale(data).0;
        root = Leaf::new(scaled.points(), weights, root.indices, root_center);
        scaled.points()
    };
    let make_leaf = |indices, center| Leaf::new(points, weights, indices, center);
    let mut leaves = vec![root];

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

/// [`Compressor`] adapter for the coreset tree (used by Table 9's static
/// evaluation and by the bucket cascade below).
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

/// The streaming StreamKM++: bucket cascade with coreset-tree reductions.
pub struct StreamKm {
    m: usize,
    dim: usize,
    /// Raw-point buffer (bucket 0).
    buffer: Vec<f64>,
    buffer_weights: Vec<f64>,
    /// Buckets 1..: at most one summary per level.
    buckets: Vec<Option<Dataset>>,
}

impl StreamKm {
    /// Creates a StreamKM++ summarizer with bucket size `m`.
    pub fn new(dim: usize, m: usize) -> Self {
        assert!(m > 0 && dim > 0);
        Self {
            m,
            dim,
            buffer: Vec::new(),
            buffer_weights: Vec::new(),
            buckets: Vec::new(),
        }
    }

    fn flush_buffer(&mut self, rng: &mut dyn RngCore) {
        if self.buffer_weights.is_empty() {
            return;
        }
        let pts = Points::from_flat(std::mem::take(&mut self.buffer), self.dim)
            .expect("buffer is rectangular");
        let ws = std::mem::take(&mut self.buffer_weights);
        let d = Dataset::weighted(pts, ws).expect("weights are non-negative");
        self.promote(rng, d, 0);
    }

    fn promote(&mut self, rng: &mut dyn RngCore, d: Dataset, level: usize) {
        if self.buckets.len() <= level {
            self.buckets.resize_with(level + 1, || None);
        }
        match self.buckets[level].take() {
            None => self.buckets[level] = Some(d),
            Some(existing) => {
                let merged = existing.concat(&d).expect("buckets share the dimension");
                let reduced = coreset_tree_reduce(rng, &merged, self.m).into_dataset();
                self.promote(rng, reduced, level + 1);
            }
        }
    }
}

impl StreamingCompressor for StreamKm {
    fn insert_block(&mut self, rng: &mut dyn RngCore, block: &Dataset) {
        assert_eq!(block.dim(), self.dim);
        for (p, &w) in block.points().iter().zip(block.weights()) {
            self.buffer.extend_from_slice(p);
            self.buffer_weights.push(w);
            if self.buffer_weights.len() >= self.m {
                self.flush_buffer(rng);
            }
        }
    }

    fn finalize(&mut self, rng: &mut dyn RngCore) -> Coreset {
        self.flush_buffer(rng);
        let mut acc: Option<Dataset> = None;
        for bucket in self.buckets.iter_mut() {
            if let Some(d) = bucket.take() {
                acc = Some(match acc {
                    None => d,
                    Some(a) => a.concat(&d).expect("buckets share the dimension"),
                });
            }
        }
        let acc = acc.expect("finalize called on an empty stream");
        if acc.len() > self.m {
            coreset_tree_reduce(rng, &acc, self.m)
        } else {
            Coreset::new(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::stream::run_stream;
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
    fn streaming_cascade_produces_bounded_summary() {
        let d = blobs();
        let mut s = StreamKm::new(2, 100);
        let mut r = rng();
        let c = run_stream(&mut s, &mut r, &d, 16);
        assert!(c.len() <= 100);
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 1e-6, "weight drift {rel}");
    }

    #[test]
    fn streaming_summary_supports_clustering() {
        let d = blobs();
        let mut s = StreamKm::new(2, 120);
        let mut r = rng();
        let c = run_stream(&mut s, &mut r, &d, 10);
        let centers =
            fc_geom::Points::from_flat(vec![0.1, 0.2, 50.1, 0.2, 100.1, 0.2, 150.1, 0.2], 2)
                .unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let summary = c.cost(&centers, CostKind::KMeans);
        let ratio = (full / summary).max(summary / full);
        assert!(ratio < 3.0, "ratio {ratio}");
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
