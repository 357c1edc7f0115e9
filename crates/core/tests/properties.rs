//! Property-based tests for the coreset machinery.

use fc_clustering::CostKind;
use fc_core::compressor::{CompressionParams, Compressor};
use fc_core::methods::{JCount, Uniform};
use fc_core::plan::Method;
use fc_core::sampling::importance_sample;
use fc_core::sensitivity::{lightweight_scores, sensitivity_scores};
use fc_geom::Dataset;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (8usize..80, 1usize..4).prop_flat_map(|(n, dim)| {
        prop::collection::vec(-500.0f64..500.0, n * dim)
            .prop_map(move |flat| Dataset::from_flat(flat, dim).unwrap())
    })
}

fn assignment_strategy() -> impl Strategy<Value = (Vec<usize>, Vec<f64>, Vec<f64>, usize)> {
    (2usize..6, 4usize..60).prop_flat_map(|(k, n)| {
        (
            prop::collection::vec(0..k, n),
            prop::collection::vec(0.0f64..100.0, n),
            prop::collection::vec(0.01f64..10.0, n),
            Just(k),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sensitivity_scores_sum_to_two_per_nonempty_cluster(
        (labels, cost_z, weights, k) in assignment_strategy()
    ) {
        let s = sensitivity_scores(&labels, &cost_z, &weights, k);
        let nonempty: usize = (0..k)
            .filter(|&c| labels.contains(&c))
            .count();
        prop_assert!(
            (s.total - 2.0 * nonempty as f64).abs() < 1e-6,
            "total {} for {} nonempty clusters", s.total, nonempty
        );
        // All scores are non-negative and finite.
        prop_assert!(s.scores.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn importance_sample_weights_are_positive_and_bounded(
        (labels, cost_z, weights, k) in assignment_strategy(),
        seed in any::<u64>(),
        m in 2usize..20,
    ) {
        // Fabricate point coordinates: only weights matter to the sampler.
        let n = labels.len();
        let flat: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let d = Dataset::weighted(
            fc_geom::Points::from_flat(flat, 1).unwrap(),
            weights.clone(),
        ).unwrap();
        let s = sensitivity_scores(&labels, &cost_z, &weights, k);
        let mut rng = StdRng::seed_from_u64(seed);
        let c = importance_sample(&mut rng, &d, &s, m);
        prop_assert!(!c.is_empty());
        prop_assert!(c.len() <= m.min(n));
        prop_assert!(c.dataset().weights().iter().all(|&w| w >= 0.0 && w.is_finite()));
    }

    #[test]
    fn lightweight_scores_define_a_distribution(d in dataset_strategy()) {
        let s = lightweight_scores(&d, CostKind::KMeans);
        prop_assert!((s.total - 2.0).abs() < 1e-6, "lightweight total {}", s.total);
        prop_assert_eq!(s.scores.len(), d.len());
    }

    #[test]
    fn compressors_respect_m_and_preserve_weight_sign(
        d in dataset_strategy(),
        seed in any::<u64>(),
        m in 4usize..30,
    ) {
        let params = CompressionParams { k: 3, m, kind: CostKind::KMeans };
        for method in [
            Method::Uniform,
            Method::Lightweight,
            Method::Welterweight(JCount::Fixed(2)),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = method.build().compress(&mut rng, &d, &params);
            prop_assert!(c.len() <= m.max(d.len()), "{method} oversize");
            prop_assert!(
                c.dataset().weights().iter().all(|&w| w >= 0.0 && w.is_finite()),
                "{method} produced bad weights"
            );
            prop_assert_eq!(c.dataset().dim(), d.dim());
        }
    }

    #[test]
    fn uniform_total_weight_is_exact(d in dataset_strategy(), seed in any::<u64>()) {
        let m = (d.len() / 2).max(2);
        let params = CompressionParams { k: 2, m, kind: CostKind::KMeans };
        let mut rng = StdRng::seed_from_u64(seed);
        let c = Uniform.compress(&mut rng, &d, &params);
        let drift = (c.total_weight() - d.total_weight()).abs();
        prop_assert!(drift < 1e-6 * d.total_weight().max(1.0), "drift {drift}");
    }
}
