//! Fixed-size chunks for the compute tier.
//!
//! Every CPU-bound kernel in the workspace (assignment scans, centroid
//! accumulation, sensitivity passes) walks its points in chunks of
//! [`CHUNK_POINTS`], in order, on the caller's thread. Each chunk produces
//! its own partial result and partials are merged in ascending chunk
//! order, so a kernel's floating-point association order is a function of
//! the input length alone. That order is what the pinned outputs
//! (golden hashes, served bytes) were recorded under.
//!
//! Randomness never crosses a chunk boundary: kernels that sample draw
//! from a sequential RNG outside the chunk loop, or derive one stream per
//! chunk (or per worker) via [`split_seeds`].

use std::ops::Range;

/// Fixed number of points per chunk. A property of the data: chunk
/// boundaries (and therefore the partial-sum association order) depend
/// only on the input length.
pub const CHUNK_POINTS: usize = 1024;

/// Multiplier used to derive independent seed streams (same constant the
/// serving layer uses for its solve stream; splitmix64's golden-ratio
/// increment).
pub const SEED_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// Does nothing: the chunks always run in order on the caller's thread.
/// Kept only because the benchmark package still calls it.
pub fn set_max_threads(_n: usize) {}

/// Runs `f`: the chunks always run in order on the caller's thread, so
/// `n` is ignored. Kept only because the benchmark package still calls it.
pub fn with_threads<T>(_n: usize, f: impl FnOnce() -> T) -> T {
    f()
}

/// Number of fixed-size chunks covering `len` items.
pub fn chunk_count(len: usize) -> usize {
    len.div_ceil(CHUNK_POINTS)
}

/// Half-open item range of chunk `c` within `len` items.
pub fn chunk_range(c: usize, len: usize) -> Range<usize> {
    let start = c * CHUNK_POINTS;
    start..((start + CHUNK_POINTS).min(len))
}

/// Map every fixed-size chunk of `0..len` through `f` and return the
/// per-chunk outputs in ascending chunk order. `f` receives
/// `(chunk_index, item_range)`.
pub fn map_chunks<T>(len: usize, mut f: impl FnMut(usize, Range<usize>) -> T) -> Vec<T> {
    (0..chunk_count(len))
        .map(|c| f(c, chunk_range(c, len)))
        .collect()
}

/// Chunked sum: per-chunk partial sums (each accumulated left-to-right)
/// merged in ascending chunk order.
pub fn sum_chunks(len: usize, mut f: impl FnMut(Range<usize>) -> f64) -> f64 {
    (0..chunk_count(len)).map(|c| f(chunk_range(c, len))).sum()
}

/// Derive `n` decorrelated seed streams from one request seed using the
/// splitmix64 finalizer over the shared [`SEED_STREAM`] increment.
/// Stream `i` depends only on `(seed, i)`.
pub fn split_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(SEED_STREAM));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_depends_only_on_length() {
        assert_eq!(chunk_count(0), 0);
        assert_eq!(chunk_count(1), 1);
        assert_eq!(chunk_count(CHUNK_POINTS), 1);
        assert_eq!(chunk_count(CHUNK_POINTS + 1), 2);
        assert_eq!(chunk_range(0, 10), 0..10);
        assert_eq!(
            chunk_range(1, CHUNK_POINTS + 7),
            CHUNK_POINTS..CHUNK_POINTS + 7
        );
    }

    #[test]
    fn map_chunks_results_in_chunk_order() {
        let len = 5 * CHUNK_POINTS + 123;
        let got = map_chunks(len, |c, r| (c, r.start, r.end));
        let want: Vec<_> = (0..chunk_count(len))
            .map(|c| (c, c * CHUNK_POINTS, ((c + 1) * CHUNK_POINTS).min(len)))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got[0], (0, 0, CHUNK_POINTS));
        assert_eq!(got.last().unwrap().2, len);
    }

    #[test]
    fn sum_chunks_merges_per_chunk_sums_in_chunk_order() {
        // 2^54 first: every 1.0 added to it one at a time is lost, while a
        // chunk of ones sums exactly, so the two orders give different bits.
        let mut vals = vec![1.0; 4 * CHUNK_POINTS + 77];
        vals[0] = 2f64.powi(54);
        let got = sum_chunks(vals.len(), |r| vals[r].iter().sum());
        let mut want = 0.0;
        for chunk in vals.chunks(CHUNK_POINTS) {
            want += chunk.iter().sum::<f64>();
        }
        assert_eq!(got.to_bits(), want.to_bits());
        let flat: f64 = vals.iter().sum();
        assert_ne!(
            got.to_bits(),
            flat.to_bits(),
            "the data must tell the orders apart"
        );
    }

    #[test]
    fn split_seeds_depend_only_on_seed_and_index() {
        let a = split_seeds(42, 8);
        let b = split_seeds(42, 3);
        assert_eq!(&a[..3], &b[..]);
        let c = split_seeds(43, 8);
        assert_ne!(a, c);
        // Streams are pairwise distinct for any sane seed.
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }
}
