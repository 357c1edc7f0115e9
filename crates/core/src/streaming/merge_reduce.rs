//! Merge-&-reduce composition \[11, 40\] over a black-box compressor.
//!
//! The coreset property composes: a coreset of a union is the union of
//! coresets, and a coreset of a coreset is a (slightly worse) coreset. The
//! classic Bentley–Saxe schedule keeps at most one summary per level of a
//! complete binary tree: each block's coreset enters at level 0, and
//! whenever two summaries share a level they are unioned and re-compressed
//! one level up. With `b = 8` blocks the surviving summaries cover blocks
//! `[\[8\],\[7\],\[5,6\],\[1,2,3,4\]]` — exactly the paper's footnote 10. `finalize`
//! concatenates the per-level summaries and compresses once more.
//!
//! The paper's empirical surprise (Table 5): the accelerated samplers are
//! *no worse* under this composition, because the tree imposes non-uniform
//! inclusion probabilities that sometimes help outliers survive.

use crate::{CompressionParams, Compressor, Coreset};
use fc_geom::Dataset;
use rand::RngCore;

use super::stream::StreamingCompressor;

/// Merge-&-reduce state over a black-box compressor.
///
/// Owns its compressor (boxed), so long-lived holders — the serving engine
/// keeps one per shard worker thread — need no external lifetime; borrowing
/// call sites pass `&compressor` thanks to the pointer blanket impls on
/// [`Compressor`].
pub struct MergeReduce<'a> {
    compressor: Box<dyn Compressor + 'a>,
    params: CompressionParams,
    /// `(level, summary)` pairs; at most one summary per level.
    stack: Vec<(u32, Coreset)>,
}

impl<'a> MergeReduce<'a> {
    /// Creates an empty composition.
    pub fn new(compressor: impl Compressor + 'a, params: CompressionParams) -> Self {
        Self {
            compressor: Box::new(compressor),
            params,
            stack: Vec::new(),
        }
    }

    /// Number of summaries currently held (≤ log₂ #blocks + 1).
    pub fn summary_count(&self) -> usize {
        self.stack.len()
    }

    /// The levels currently occupied (diagnostics; strictly decreasing from
    /// the bottom of the stack).
    pub fn levels(&self) -> Vec<u32> {
        self.stack.iter().map(|(l, _)| *l).collect()
    }

    /// Total points stored across the per-level summaries — the memory
    /// footprint a compaction policy budgets against.
    pub fn stored_points(&self) -> usize {
        self.stack.iter().map(|(_, c)| c.len()).sum()
    }

    /// A snapshot coreset of everything inserted so far: the union of the
    /// per-level summaries (valid by composability), without consuming the
    /// stream state. `None` before the first block.
    pub fn snapshot(&self) -> Option<Coreset> {
        let mut it = self.stack.iter().rev().map(|(_, c)| c);
        let first = it.next()?.clone();
        Some(it.fold(first, |acc, c| {
            acc.union(c).expect("summaries share the data dimension")
        }))
    }

    /// Collapses the level stack into a single summary of at most
    /// `params.m` points at the top occupied level. Serving systems call
    /// this when [`Self::stored_points`] outgrows their per-shard budget;
    /// the result is a (slightly worse) coreset exactly as in the classic
    /// merge step, so the streaming guarantee is unchanged.
    pub fn compact(&mut self, rng: &mut dyn RngCore) {
        if self.stack.len() <= 1 {
            return;
        }
        let top_level = self
            .stack
            .first()
            .map(|&(l, _)| l)
            .expect("stack is non-empty");
        let union = self.snapshot().expect("stack is non-empty");
        let compressed = Coreset::new(
            self.compressor
                .compress(rng, union.dataset(), &self.params)
                .into_dataset(),
        );
        self.stack.clear();
        self.stack.push((top_level + 1, compressed));
    }

    /// Reinstalls a persisted summary into an *empty* stream at `level` —
    /// the recovery counterpart of [`Self::snapshot`]. The summary enters
    /// the stack verbatim (no re-compression: it is already a valid
    /// coreset of everything it covered), and subsequent insertions carry
    /// upward from level 0 exactly as if the summary had been produced
    /// live. Errors if the stream already holds state.
    pub fn install(&mut self, level: u32, summary: Coreset) -> Result<(), crate::FcError> {
        if !self.stack.is_empty() {
            return Err(crate::FcError::InvalidParameter(
                "cannot install a snapshot into a non-empty stream".into(),
            ));
        }
        self.stack.push((level, summary));
        Ok(())
    }

    fn push(&mut self, rng: &mut dyn RngCore, mut level: u32, mut coreset: Coreset) {
        // Carry propagation: merge equal-level summaries upward.
        while let Some(&(top_level, _)) = self.stack.last() {
            if top_level != level {
                break;
            }
            let (_, top) = self.stack.pop().expect("peeked entry exists");
            let merged = top
                .union(&coreset)
                .expect("summaries share the data dimension");
            coreset = Coreset::new(
                self.compressor
                    .compress(rng, merged.dataset(), &self.params)
                    .into_dataset(),
            );
            level += 1;
        }
        self.stack.push((level, coreset));
    }
}

impl StreamingCompressor for MergeReduce<'_> {
    fn insert_block(&mut self, rng: &mut dyn RngCore, block: &Dataset) {
        let coreset = self.compressor.compress(rng, block, &self.params);
        self.push(rng, 0, coreset);
    }

    fn finalize(&mut self, rng: &mut dyn RngCore) -> Coreset {
        let mut stack = std::mem::take(&mut self.stack);
        let Some((_, mut acc)) = stack.pop() else {
            panic!("finalize called on an empty stream");
        };
        for (_, summary) in stack.into_iter().rev() {
            acc = acc
                .union(&summary)
                .expect("summaries share the data dimension");
        }
        if acc.len() > self.params.m {
            acc = self.compressor.compress(rng, acc.dataset(), &self.params);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::super::stream::run_stream;
    use super::*;
    use crate::methods::Uniform;
    use crate::FastCoreset;
    use fc_clustering::CostKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(61)
    }

    fn blobs() -> Dataset {
        let mut flat = Vec::new();
        for b in 0..4 {
            for i in 0..1000 {
                flat.push(b as f64 * 100.0 + (i % 30) as f64 * 0.01);
                flat.push((i / 30) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn level_structure_matches_bentley_saxe() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 50,
            kind: CostKind::KMeans,
        };
        let comp = Uniform;
        let mut mr = MergeReduce::new(comp, params);
        let mut r = rng();
        let batch = d.len() / 8;
        for block in d.chunks(batch).into_iter().take(8) {
            mr.insert_block(&mut r, &block);
        }
        // After 8 blocks: one summary at level 3 (covering 8 blocks).
        assert_eq!(mr.levels(), vec![3]);
        // After 3 more: levels 3,1,0 — the footnote-10 shape.
        for block in blobs().chunks(batch).into_iter().take(3) {
            mr.insert_block(&mut r, &block);
        }
        assert_eq!(mr.levels(), vec![3, 1, 0]);
    }

    #[test]
    fn final_coreset_obeys_size_budget() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 80,
            kind: CostKind::KMeans,
        };
        let comp = Uniform;
        let mut mr = MergeReduce::new(comp, params);
        let mut r = rng();
        let c = run_stream(&mut mr, &mut r, &d, 10);
        assert!(c.len() <= 80, "final size {}", c.len());
        // Total weight ≈ n.
        let rel = (c.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 0.25, "total weight off by {rel}");
    }

    #[test]
    fn streaming_coreset_preserves_costs() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 300,
            kind: CostKind::KMeans,
        };
        let comp = FastCoreset;
        let mut mr = MergeReduce::new(comp, params);
        let mut r = rng();
        let c = run_stream(&mut mr, &mut r, &d, 8);
        let centers = fc_geom::Points::from_flat(
            vec![0.15, 0.15, 100.15, 0.15, 200.15, 0.15, 300.15, 0.15],
            2,
        )
        .unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let comp_cost = c.cost(&centers, CostKind::KMeans);
        let ratio = (full / comp_cost).max(comp_cost / full);
        assert!(ratio < 1.8, "streaming cost ratio {ratio}");
    }

    #[test]
    fn single_block_stream_equals_static_compression() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 100,
            kind: CostKind::KMeans,
        };
        let comp = Uniform;
        let mut mr = MergeReduce::new(comp, params);
        let mut r1 = rng();
        let streamed = run_stream(&mut mr, &mut r1, &d, 1);
        let mut r2 = rng();
        let static_c = comp.compress(&mut r2, &d, &params);
        // Identical RNG consumption: one block = one plain compression.
        assert_eq!(streamed.dataset(), static_c.dataset());
    }

    #[test]
    fn snapshot_matches_union_and_preserves_state() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 60,
            kind: CostKind::KMeans,
        };
        let mut mr = MergeReduce::new(Uniform, params);
        let mut r = rng();
        assert!(mr.snapshot().is_none());
        let batch = d.len() / 5;
        for block in d.chunks(batch) {
            mr.insert_block(&mut r, &block);
        }
        let levels_before = mr.levels();
        let snap = mr.snapshot().expect("blocks were inserted");
        assert_eq!(snap.len(), mr.stored_points());
        // Snapshots are reads: the stream state is untouched.
        assert_eq!(mr.levels(), levels_before);
        let rel = (snap.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 0.3, "snapshot weight off by {rel}");
    }

    #[test]
    fn compact_collapses_to_single_budgeted_summary() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 60,
            kind: CostKind::KMeans,
        };
        let mut mr = MergeReduce::new(Uniform, params);
        let mut r = rng();
        let batch = d.len() / 11;
        for block in d.chunks(batch) {
            mr.insert_block(&mut r, &block);
        }
        assert!(
            mr.summary_count() > 1,
            "need a multi-level stack to compact"
        );
        let top = mr.levels()[0];
        mr.compact(&mut r);
        assert_eq!(mr.summary_count(), 1);
        assert_eq!(mr.levels(), vec![top + 1]);
        assert!(mr.stored_points() <= 60, "stored {}", mr.stored_points());
        // The stream stays usable after compaction.
        mr.insert_block(&mut r, &d.chunks(batch)[0]);
        let c = mr.finalize(&mut r);
        assert!(c.len() <= 60);
    }

    #[test]
    fn owned_compressor_requires_no_external_lifetime() {
        fn make_static_stream() -> MergeReduce<'static> {
            let params = CompressionParams {
                k: 2,
                m: 30,
                kind: CostKind::KMeans,
            };
            MergeReduce::new(
                std::sync::Arc::new(Uniform) as std::sync::Arc<dyn Compressor>,
                params,
            )
        }
        let mut mr = make_static_stream();
        let mut r = rng();
        mr.insert_block(&mut r, &blobs());
        assert_eq!(mr.summary_count(), 1);
    }

    #[test]
    fn install_restores_a_snapshot_into_an_empty_stream() {
        let d = blobs();
        let params = CompressionParams {
            k: 4,
            m: 60,
            kind: CostKind::KMeans,
        };
        let mut mr = MergeReduce::new(Uniform, params);
        let mut r = rng();
        for block in d.chunks(d.len() / 5) {
            mr.insert_block(&mut r, &block);
        }
        let top = mr.levels()[0];
        let snap = mr.snapshot().expect("blocks were inserted");

        // A fresh stream restored from the snapshot serves the same data.
        let mut restored = MergeReduce::new(Uniform, params);
        restored.install(top, snap.clone()).unwrap();
        assert_eq!(restored.levels(), vec![top]);
        assert_eq!(restored.stored_points(), snap.len());
        let rel = (restored.snapshot().unwrap().total_weight() - d.total_weight()).abs()
            / d.total_weight();
        assert!(rel < 0.3, "restored weight off by {rel}");
        // The restored stream keeps streaming: inserts enter at level 0.
        restored.insert_block(&mut r, &d.chunks(500)[0]);
        assert_eq!(restored.levels(), vec![top, 0]);
        // Installing over live state is an error, not silent data loss.
        assert!(restored.install(top, snap).is_err());
    }

    #[test]
    #[should_panic(expected = "empty stream")]
    fn finalize_without_blocks_panics() {
        let params = CompressionParams {
            k: 2,
            m: 10,
            kind: CostKind::KMeans,
        };
        let comp = Uniform;
        let mut mr = MergeReduce::new(comp, params);
        let mut r = rng();
        let _ = mr.finalize(&mut r);
    }
}
