//! Property tests for coreset-union aggregation — the invariant the
//! multi-node coordinator leans on: compressing the parts of a randomly
//! partitioned dataset and unioning the per-part coresets behaves like
//! compressing the whole, for every `Method`.

use fc_clustering::CostKind;
use fc_core::plan::ALL_METHODS;
use fc_core::streaming::mapreduce::aggregate_parts;
use fc_core::{CompressionParams, Coreset};
use fc_geom::{Dataset, Points};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three well-separated blobs: clusterable data where every method's
/// coreset must price solutions like the full data does.
fn blobs() -> Dataset {
    let mut flat = Vec::new();
    for b in 0..3 {
        for i in 0..800 {
            flat.push(b as f64 * 200.0 + (i % 40) as f64 * 0.01);
            flat.push((i / 40) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

fn blob_centers() -> Points {
    Points::from_flat(vec![0.2, 0.2, 200.2, 0.2, 400.2, 0.2], 2).unwrap()
}

/// Randomly partitions `data` into `parts` non-empty shards.
fn random_partition(rng: &mut StdRng, data: &Dataset, parts: usize) -> Vec<Dataset> {
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for i in 0..data.len() {
        indices[rng.gen_range(0..parts)].push(i);
    }
    indices.retain(|part| !part.is_empty());
    indices
        .iter()
        .map(|idx| {
            let weights = idx.iter().map(|&i| data.weight(i)).collect();
            data.gather(idx, weights).expect("indices are in range")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Unioning the per-part coresets of a randomly partitioned dataset
    /// conserves total weight and keeps clustering cost within the
    /// distortion bound of the unpartitioned coreset — across every
    /// `Method`.
    #[test]
    fn partitioned_union_matches_unpartitioned_compression(
        (parts, seed) in (2usize..5, any::<u64>())
    ) {
        let data = blobs();
        let params = CompressionParams {
            k: 3,
            m: 150,
            kind: CostKind::KMeans,
        };
        let centers = blob_centers();
        // The engine's advertised quality bound on clusterable data; the
        // two coresets each stay within it of the full data, so their
        // costs stay within bound² of each other.
        let bound = 1.5 * 1.5;
        let full_cost = fc_clustering::cost::cost(&data, &centers, CostKind::KMeans);
        let mut rng = StdRng::seed_from_u64(seed);
        let shards = random_partition(&mut rng, &data, parts);
        for method in ALL_METHODS {
            let compressor = method.build();
            // Per-part compression, as the nodes would run it.
            let node_coresets: Vec<Coreset> = shards
                .iter()
                .map(|shard| compressor.compress(&mut rng, shard, &params))
                .collect();
            let union = Coreset::union_all(node_coresets.clone()).unwrap();
            prop_assert!(
                union.len() <= parts * params.m,
                "{method}: union of {} parts holds {} > {} points",
                shards.len(), union.len(), parts * params.m
            );
            // Weight conservation under union: the union estimates the
            // full data's weight as well as any single compression does.
            let weight_drift =
                (union.total_weight() - data.total_weight()).abs() / data.total_weight();
            prop_assert!(
                weight_drift < 0.5,
                "{method}: union weight drifts {weight_drift} from the data"
            );
            // Cost fidelity: the union prices the blob centers within the
            // distortion bound of the unpartitioned coreset of the same
            // method (both sit within the single-compression bound of the
            // full data, which is also asserted for context).
            let unpartitioned = compressor.compress(&mut rng, &data, &params);
            let union_cost = union.cost(&centers, CostKind::KMeans);
            let unpartitioned_cost = unpartitioned.cost(&centers, CostKind::KMeans);
            let ratio =
                (union_cost / unpartitioned_cost).max(unpartitioned_cost / union_cost);
            prop_assert!(
                ratio <= bound,
                "{method}: union cost {union_cost} vs unpartitioned {unpartitioned_cost} \
                 (full {full_cost}): ratio {ratio} exceeds {bound}"
            );
            // The host-side reduction (the coordinator's final step) keeps
            // the serving size and still discriminates good solutions from
            // bad ones. (A tight ratio bound would be wrong here: the
            // aggregate is compressed *twice*, and summary methods like
            // BICO legitimately collapse within-blob cost on re-compression.)
            let aggregated =
                aggregate_parts(&mut rng, node_coresets, compressor.as_ref(), &params).unwrap();
            prop_assert!(aggregated.len() <= params.m.max(union.len()));
            let agg_weight_drift =
                (aggregated.total_weight() - data.total_weight()).abs() / data.total_weight();
            prop_assert!(
                agg_weight_drift < 0.5,
                "{method}: aggregated weight drifts {agg_weight_drift} from the data"
            );
            let good = aggregated.cost(&centers, CostKind::KMeans);
            let bad = aggregated.cost(
                &Points::from_flat(vec![0.2, 0.2], 2).unwrap(),
                CostKind::KMeans,
            );
            prop_assert!(
                good * 10.0 < bad,
                "{method}: aggregated coreset no longer separates solutions \
                 (good {good}, bad {bad}, full {full_cost})"
            );
        }
    }
}
