//! The streaming-compressor interface: consume blocks, emit one coreset.

use crate::Coreset;
use fc_geom::Dataset;
use rand::RngCore;

/// A compressor that maintains a summary across a stream of blocks.
pub trait StreamingCompressor {
    /// Feeds one block of the stream.
    fn insert_block(&mut self, rng: &mut dyn RngCore, block: &Dataset);

    /// Finishes the stream and produces the final coreset. The summary may
    /// be consumed; calling `insert_block` afterwards is unspecified.
    fn finalize(&mut self, rng: &mut dyn RngCore) -> Coreset;
}

/// Runs a full stream: split `data` into `blocks` equal batches, feed them
/// in order, finalize.
pub fn run_stream<S: StreamingCompressor + ?Sized>(
    compressor: &mut S,
    rng: &mut dyn RngCore,
    data: &Dataset,
    blocks: usize,
) -> Coreset {
    assert!(blocks > 0, "need at least one block");
    let batch = data.len().div_ceil(blocks).max(1);
    for block in data.chunks(batch) {
        compressor.insert_block(rng, &block);
    }
    compressor.finalize(rng)
}
