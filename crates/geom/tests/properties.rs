//! Property-based tests for the geometric substrate.

use fc_geom::distance::{nearest_sq, sq_dist, sq_dist_bounded};
use fc_geom::points::Points;
use fc_geom::sampling::{AliasTable, PrefixSums};
use fc_geom::Dataset;
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

fn weight_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1e3, 1..max_len)
}

proptest! {
    #[test]
    fn sq_dist_is_symmetric_and_nonnegative(a in finite_vec(8), b in finite_vec(8)) {
        let d_ab = sq_dist(&a, &b);
        let d_ba = sq_dist(&b, &a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() <= 1e-9 * d_ab.max(1.0));
        prop_assert_eq!(sq_dist(&a, &a), 0.0);
    }

    #[test]
    fn sq_dist_triangle_inequality(a in finite_vec(5), b in finite_vec(5), c in finite_vec(5)) {
        let ab = sq_dist(&a, &b).sqrt();
        let bc = sq_dist(&b, &c).sqrt();
        let ac = sq_dist(&a, &c).sqrt();
        prop_assert!(ac <= ab + bc + 1e-6 * (ab + bc + 1.0));
    }

    #[test]
    fn bounded_distance_agrees_with_exact(a in finite_vec(19), b in finite_vec(19)) {
        let exact = sq_dist(&a, &b);
        // With an infinite bound the pruned kernel must agree exactly.
        let bounded = sq_dist_bounded(&a, &b, f64::INFINITY).unwrap();
        prop_assert!((bounded - exact).abs() <= 1e-9 * exact.max(1.0));
        // A bound strictly below the true value must prune.
        if exact > 1.0 {
            prop_assert!(sq_dist_bounded(&a, &b, exact * 0.5).is_none());
        }
    }

    #[test]
    fn nearest_sq_matches_brute_force(
        flat in prop::collection::vec(-100.0f64..100.0, 6..60),
        p in finite_vec(3),
    ) {
        let usable = flat.len() - flat.len() % 3;
        let centers = &flat[..usable];
        let (idx, d) = nearest_sq(&p, centers, 3);
        let brute: Vec<f64> = centers.chunks_exact(3).map(|c| sq_dist(&p, c)).collect();
        let best = brute.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((d - best).abs() <= 1e-9 * best.max(1.0));
        prop_assert!((brute[idx] - best).abs() <= 1e-9 * best.max(1.0));
    }

    #[test]
    fn alias_table_total_weight_is_preserved(ws in weight_vec(64)) {
        let sum: f64 = ws.iter().sum();
        match AliasTable::new(&ws) {
            Some(t) => prop_assert!((t.total_weight() - sum).abs() <= 1e-9 * sum.max(1.0)),
            None => prop_assert!(sum <= 0.0),
        }
    }

    #[test]
    fn alias_table_never_samples_zero_weight(ws in weight_vec(32), seed in any::<u64>()) {
        prop_assume!(ws.iter().any(|&w| w > 0.0));
        use rand::SeedableRng;
        let t = AliasTable::new(&ws).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = t.sample(&mut rng);
            prop_assert!(ws[i] > 0.0, "sampled index {} with zero weight", i);
        }
    }

    #[test]
    fn prefix_sums_range_decomposition(ws in weight_vec(64)) {
        let p = PrefixSums::new(&ws);
        let n = ws.len();
        let mid = n / 2;
        let total = p.range_sum(0, n);
        prop_assert!((p.range_sum(0, mid) + p.range_sum(mid, n) - total).abs() <= 1e-9 * total.max(1.0));
        prop_assert!((p.total() - total).abs() <= 1e-12);
    }

    #[test]
    fn prefix_select_returns_positive_weight_index(
        ws in weight_vec(64),
        frac in 0.0f64..0.999,
    ) {
        prop_assume!(ws.iter().any(|&w| w > 0.0));
        let p = PrefixSums::new(&ws);
        let n = ws.len();
        let target = frac * p.range_sum(0, n);
        let i = p.select_in_range(0, n, target);
        prop_assert!(i < n);
        prop_assert!(ws[i] > 0.0, "selected zero-weight index {} (ws={:?}, target={})", i, ws, target);
    }

    #[test]
    fn dataset_chunks_partition_weight(
        flat in prop::collection::vec(-10.0f64..10.0, 4..120),
        batch in 1usize..10,
    ) {
        let usable = flat.len() - flat.len() % 2;
        let d = Dataset::from_flat(flat[..usable].to_vec(), 2).unwrap();
        let chunks = d.chunks(batch);
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, d.len());
        let w: f64 = chunks.iter().map(|c| c.total_weight()).sum();
        prop_assert!((w - d.total_weight()).abs() <= 1e-9);
    }

    #[test]
    fn gather_preserves_rows(flat in prop::collection::vec(-10.0f64..10.0, 9..90)) {
        let usable = flat.len() - flat.len() % 3;
        let p = Points::from_flat(flat[..usable].to_vec(), 3).unwrap();
        let idx: Vec<usize> = (0..p.len()).rev().collect();
        let g = p.gather(&idx);
        for (pos, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(pos), p.row(i));
        }
    }
}
