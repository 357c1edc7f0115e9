//! Single-round MapReduce aggregation (Section 2.3).
//!
//! The data is partitioned randomly among `workers` computation entities;
//! each computes a coreset of its shard (here: simulated workers that run
//! one after another); the host unions the shard coresets — a valid
//! coreset for the full data by composability — and optionally re-compresses
//! to the target size. Communication is `O(m)` points per worker,
//! independent of `n`, which is the whole appeal of the scheme.

use crate::{CompressionParams, Compressor, Coreset, FcError};
use fc_geom::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of the simulated MapReduce round.
#[derive(Debug)]
pub struct MapReduceReport {
    /// The aggregated coreset held by the host.
    pub coreset: Coreset,
    /// Points communicated to the host (Σ per-worker coreset sizes).
    pub communicated_points: usize,
    /// Shard sizes, for balance diagnostics.
    pub shard_sizes: Vec<usize>,
}

/// The host-side aggregation step of a MapReduce round: union the
/// per-worker coresets (valid for the full data by composability) and
/// re-compress once when the union exceeds `params.m`. This is the exact
/// step every serving tier runs per query (`fc_service::query`), on an
/// engine's shard summaries or on the compressions an `fc-cluster`
/// coordinator fetched from its nodes — the parts' provenance (simulated
/// workers or sockets) is irrelevant to the math. Validation errors (no parts, dimension or
/// weight disagreement between parts) surface as [`FcError`].
pub fn aggregate_parts<R: Rng>(
    rng: &mut R,
    parts: Vec<Coreset>,
    compressor: &dyn Compressor,
    params: &CompressionParams,
) -> Result<Coreset, FcError> {
    let union = Coreset::union_all(parts)?;
    if union.len() <= params.m {
        return Ok(union);
    }
    Ok(compressor.compress(rng, union.dataset(), params))
}

/// Runs one MapReduce round: random partition into `workers` shards,
/// per-worker compression (one worker after another), union at the host,
/// and a final reduction when the union exceeds `params.m`.
pub fn mapreduce_coreset<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Dataset,
    compressor: &dyn Compressor,
    params: &CompressionParams,
    workers: usize,
) -> MapReduceReport {
    assert!(workers > 0, "need at least one worker");
    assert!(!data.is_empty(), "cannot aggregate an empty dataset");

    // Random partition (the paper: "partitioned randomly among the m
    // entities").
    let mut shard_indices: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for i in 0..data.len() {
        shard_indices[rng.gen_range(0..workers)].push(i);
    }
    // Guard against empty shards on tiny inputs.
    shard_indices.retain(|s| !s.is_empty());
    let shards: Vec<Dataset> = shard_indices
        .iter()
        .map(|idx| {
            let ws = idx.iter().map(|&i| data.weight(i)).collect();
            data.gather(idx, ws).expect("indices are in range")
        })
        .collect();
    let shard_sizes: Vec<usize> = shards.iter().map(|s| s.len()).collect();

    // Per-worker compression, one worker after another. One base seed is
    // drawn from the caller and split into one decorrelated stream per
    // *shard* via the stream-constant scheme
    // ([`fc_geom::par::split_seeds`]), so no shard's sampled output
    // depends on the others.
    let seeds = fc_geom::par::split_seeds(rng.gen(), shards.len());
    let parts: Vec<Coreset> = (shards.iter().zip(seeds))
        .map(|(shard, seed)| compressor.compress(&mut StdRng::seed_from_u64(seed), shard, params))
        .collect();
    let communicated_points: usize = parts.iter().map(|c| c.len()).sum();
    // The union's size is exactly the communicated total, so whether the
    // host reduction will run is known before touching the caller's RNG —
    // `rng` is consumed only when a reduction actually happens, keeping
    // seeded downstream draws identical to the historical behaviour.
    let mut host_rng = if communicated_points > params.m {
        StdRng::seed_from_u64(rng.gen())
    } else {
        StdRng::seed_from_u64(0) // never sampled: the union already fits m
    };
    let union = aggregate_parts(&mut host_rng, parts, compressor, params)
        .expect("same-partition shards always union cleanly");
    MapReduceReport {
        coreset: union,
        communicated_points,
        shard_sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::Uniform;
    use crate::FastCoreset;
    use fc_clustering::CostKind;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(81)
    }

    fn blobs() -> Dataset {
        let mut flat = Vec::new();
        for b in 0..3 {
            for i in 0..1500 {
                flat.push(b as f64 * 200.0 + (i % 40) as f64 * 0.01);
                flat.push((i / 40) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn aggregation_covers_all_clusters() {
        let d = blobs();
        let params = CompressionParams {
            k: 3,
            m: 200,
            kind: CostKind::KMeans,
        };
        let comp = FastCoreset;
        let mut r = rng();
        let report = mapreduce_coreset(&mut r, &d, &comp, &params, 4);
        assert!(report.coreset.len() <= 200);
        let centers =
            fc_geom::Points::from_flat(vec![0.2, 0.2, 200.2, 0.2, 400.2, 0.2], 2).unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let agg = report.coreset.cost(&centers, CostKind::KMeans);
        let ratio = (full / agg).max(agg / full);
        assert!(ratio < 1.8, "aggregated cost ratio {ratio}");
    }

    #[test]
    fn communication_is_bounded_by_workers_times_m() {
        let d = blobs();
        let params = CompressionParams {
            k: 3,
            m: 100,
            kind: CostKind::KMeans,
        };
        let comp = Uniform;
        let mut r = rng();
        let report = mapreduce_coreset(&mut r, &d, &comp, &params, 5);
        assert!(report.communicated_points <= 5 * 100);
        assert_eq!(report.shard_sizes.iter().sum::<usize>(), d.len());
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let d = blobs();
        let params = CompressionParams {
            k: 3,
            m: 50,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let report = mapreduce_coreset(&mut r, &d, &Uniform, &params, 3);
        let expected = d.len() as f64 / 3.0;
        for &s in &report.shard_sizes {
            assert!(
                (s as f64 - expected).abs() < expected * 0.2,
                "shard size {s}"
            );
        }
    }

    #[test]
    fn single_worker_degenerates_to_plain_compression() {
        let d = blobs();
        let params = CompressionParams {
            k: 3,
            m: 150,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let report = mapreduce_coreset(&mut r, &d, &Uniform, &params, 1);
        assert!(report.coreset.len() <= 150);
        let rel = (report.coreset.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(
            rel < 1e-9,
            "uniform preserves total weight exactly, drift {rel}"
        );
    }

    #[test]
    fn aggregate_parts_reduces_only_oversized_unions() {
        let d = blobs();
        let params = CompressionParams {
            k: 3,
            m: 100,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let small: Vec<Coreset> = d
            .chunks(d.len() / 2)
            .into_iter()
            .map(|part| Uniform.compress(&mut r, &part, &params))
            .collect();
        // Two parts of ≤ 100 points exceed m = 100 → one host reduction.
        let reduced = aggregate_parts(&mut r, small.clone(), &Uniform, &params).unwrap();
        assert!(reduced.len() <= 100);
        // A single part already within m passes through untouched.
        let solo = aggregate_parts(&mut r, vec![small[0].clone()], &Uniform, &params).unwrap();
        assert_eq!(solo.len(), small[0].len());
        // No parts is a validation error, not a panic.
        assert_eq!(
            aggregate_parts(&mut r, Vec::new(), &Uniform, &params).unwrap_err(),
            FcError::EmptyData
        );
    }

    #[test]
    fn total_weight_survives_aggregation() {
        let d = blobs();
        let params = CompressionParams {
            k: 3,
            m: 400,
            kind: CostKind::KMeans,
        };
        let mut r = rng();
        let report = mapreduce_coreset(&mut r, &d, &Uniform, &params, 4);
        let rel = (report.coreset.total_weight() - d.total_weight()).abs() / d.total_weight();
        assert!(rel < 1e-9, "weight drift {rel}");
    }
}
