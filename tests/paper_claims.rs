//! The paper's evaluation (§5.2–5.4), one section per table or figure: which
//! sampler breaks on which data, stated as method against method on the
//! same data and seeds.
//!
//! Every Fast-Coreset accuracy claim is relative to standard sensitivity
//! sampling: on the same data, parameters and seeds, Fast-Coreset's
//! distortion is at most [`WITHIN_SENSITIVITY`] times sensitivity's, read
//! through the same statistic of [`fc_core::judge`]. The method under test
//! is the one constant [`FAST`]; swapping in a faster sampler must fail the
//! sections that sampler breaks on.

mod common;

use std::ops::Range;

use common::*;
use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use fc_core::streaming::stream::run_stream;
use fc_core::Verdict;
use rand::rngs::StdRng;
use rand::RngCore;

/// Blocks of every merge-&-reduce stream (§5.4).
const STREAM_BLOCKS: usize = 10;

/// One judge verdict per seed.
#[derive(Debug)]
struct Runs(Vec<Verdict>);

/// A statistic of [`Runs`] that a claim compares.
type Stat = fn(&Runs) -> f64;

impl Runs {
    /// The median over seeds of the judge's median solve.
    fn median(&self) -> f64 {
        fc_geom::stats::median(&self.0.iter().map(|v| v.median).collect::<Vec<_>>())
    }

    /// The worst over seeds of the judge's median solve.
    fn worst(&self) -> f64 {
        self.0.iter().map(|v| v.median).fold(1.0, f64::max)
    }

    /// The worst solve over every seed.
    fn max(&self) -> f64 {
        self.0.iter().map(|v| v.max).fold(1.0, f64::max)
    }

    /// The worst battery ratio over every seed.
    fn battery(&self) -> f64 {
        self.0.iter().map(|v| v.battery_max).fold(1.0, f64::max)
    }
}

/// Compresses `data` with `method` once per seed and judges each coreset
/// with the same RNG, which the compression left where it stopped.
fn verdict(
    method: impl Compressor,
    data: &Dataset,
    p: &CompressionParams,
    seeds: Range<u64>,
) -> Runs {
    Runs(
        seeds
            .map(|seed| {
                let mut rng = seeded(seed);
                let coreset = method.compress(&mut rng, data, p);
                fc_core::judge(&mut rng, data, &coreset, p.k, p.kind)
            })
            .collect(),
    )
}

/// Judges [`FAST`] and sensitivity sampling on the same data, parameters
/// and seeds, [`assert_near`]s them under each of `stats`, and returns
/// [`FAST`]'s runs.
fn near_sensitivity(
    claim: &str,
    stats: &[Stat],
    data: &Dataset,
    p: &CompressionParams,
    seeds: Range<u64>,
) -> Runs {
    let fast = verdict(FAST.build(), data, p, seeds.clone());
    let sensitivity = verdict(Method::Sensitivity.build(), data, p, seeds);
    let claim = format!("{claim} ({fast:?} vs {sensitivity:?})");
    for stat in stats {
        assert_near(&claim, stat(&fast), stat(&sensitivity));
    }
    fast
}

/// A method run as a merge-&-reduce stream of [`STREAM_BLOCKS`] blocks.
struct Streamed(Method);

impl Compressor for Streamed {
    fn compress(&self, rng: &mut dyn RngCore, data: &Dataset, p: &CompressionParams) -> Coreset {
        let mut stream = MergeReduce::new(self.0.build(), *p);
        run_stream(&mut stream, rng, data, STREAM_BLOCKS)
    }
}

/// Tables 2 and 3: the real-world proxies. Uniform sampling breaks on the
/// taxi and star proxies; on the benign adult proxy every method is fine.
mod table2 {
    use super::*;

    #[test]
    fn uniform_breaks_on_the_taxi_proxy() {
        let data = fc_data::realworld::taxi_like(&mut seeded(11), 40_000);
        let p = params(20, 20, CostKind::KMeans);
        let uniform = verdict(Method::Uniform.build(), &data, &p, 300..304);
        let fast = near_sensitivity("Table 2, taxi", &[Runs::worst], &data, &p, 300..304);
        assert!(
            uniform.worst() > 5.0,
            "Table 2, taxi: uniform ({uniform:?})"
        );
        assert!(
            uniform.worst() > 5.0 * fast.worst(),
            "Table 2, taxi: uniform ({uniform:?}) vs {FAST} ({fast:?})"
        );
    }

    #[test]
    fn uniform_degrades_on_the_star_proxy() {
        let data = fc_data::realworld::star_like(&mut seeded(12), 40_000);
        let p = params(10, 20, CostKind::KMeans);
        let uniform = verdict(Method::Uniform.build(), &data, &p, 400..404);
        let fast = near_sensitivity("Table 2, star", &[Runs::median], &data, &p, 400..403);
        assert!(
            uniform.worst() > 1.5 * fast.median(),
            "Table 2, star: uniform ({uniform:?}) vs {FAST} ({fast:?})"
        );
    }

    #[test]
    fn benign_real_proxies_are_fine_for_everyone() {
        let data = fc_data::realworld::adult_like(&mut seeded(14), 10_000, 14);
        let p = params(20, 20, CostKind::KMeans);
        for method in [Method::Uniform, Method::Lightweight] {
            let runs = verdict(method.build(), &data, &p, 600..603);
            assert!(runs.median() < 2.0, "Table 2, adult: {method} ({runs:?})");
        }
        near_sensitivity("Table 2, adult", &[Runs::median], &data, &p, 600..603);
    }
}

/// Table 4 and the registry sweep: the artificial suite. Uniform sampling
/// breaks on c-outlier; the strong coresets survive every instance.
mod table4 {
    use super::*;
    use fc_data::registry::{available, generate, RegistryParams};

    #[test]
    fn fast_coreset_is_accurate_on_every_artificial_dataset() {
        let rng = &mut seeded(1);
        let k = 20;
        let datasets = [
            ("c-outlier", fc_data::c_outlier(rng, 10_000, 20, 8, 1e5)),
            ("geometric", fc_data::geometric(rng, 50, k, 2.0, 20)),
            ("gaussian", mixture(rng, 10_000, 20, 10, 2.0)),
            ("benchmark", fc_data::benchmark(rng, k, 100, 50.0)),
        ];
        let p = params(k, 40, CostKind::KMeans);
        // The worst solve too: a sampler can keep the median while one solve
        // on its coreset prices the data wrongly.
        for (name, data) in &datasets {
            let claim = format!("Table 4, {name}");
            near_sensitivity(&claim, &[Runs::median, Runs::max], data, &p, 100..103);
        }
    }

    #[test]
    fn uniform_fails_catastrophically_on_c_outlier() {
        let data = fc_data::c_outlier(&mut seeded(2), 10_000, 20, 8, 1e5);
        let p = params(10, 40, CostKind::KMeans);
        let uniform = verdict(Method::Uniform.build(), &data, &p, 200..204);
        assert!(
            uniform.worst() > 10.0,
            "Table 4, c-outlier: uniform ({uniform:?})"
        );
    }

    #[test]
    fn sensitivity_and_welterweight_survive_c_outlier() {
        let data = fc_data::c_outlier(&mut seeded(3), 10_000, 20, 8, 1e5);
        let p = params(10, 40, CostKind::KMeans);
        let welterweight = Method::Welterweight(JCount::LogK);
        for (method, bound) in [(Method::Sensitivity, 2.0), (welterweight, 3.0)] {
            let runs = verdict(method.build(), &data, &p, 100..103);
            assert!(
                runs.median() < bound,
                "Table 4, c-outlier: {method} ({runs:?})"
            );
        }
    }

    #[test]
    fn sensitivity_passes_where_uniform_fails_under_the_battery() {
        let data = fc_data::c_outlier(&mut seeded(63), 8_000, 12, 10, 1e5);
        let p = params(6, 20, CostKind::KMeans);
        // Uniform sampling fails iff its sample misses every outlier, so the
        // claim reads the worst of six attempts.
        let uniform = verdict(Method::Uniform.build(), &data, &p, 630..636);
        let sensitivity = verdict(Method::Sensitivity.build(), &data, &p, 630..636);
        assert!(
            uniform.battery() > 10.0,
            "Table 4, c-outlier: uniform ({uniform:?})"
        );
        assert!(
            sensitivity.battery() < 2.0,
            "Table 4, c-outlier: sensitivity ({sensitivity:?})"
        );
    }

    #[test]
    fn every_method_is_fine_on_the_benchmark_instance() {
        // §5.3: "every sampling method performs well on the benchmark dataset".
        let k = 16;
        let data = fc_data::benchmark(&mut seeded(4), k, 150, 50.0);
        let p = params(k, 40, CostKind::KMeans);
        for method in &SAMPLERS[..3] {
            let runs = verdict(method.build(), &data, &p, 100..103);
            assert!(
                runs.median() < 2.0,
                "Table 4, benchmark: {method} ({runs:?})"
            );
        }
        near_sensitivity("Table 4, benchmark", &[Runs::median], &data, &p, 100..103);
    }

    /// `method`'s plan distortion on `data` with `k` centres at m = 20k.
    fn planned(method: Method, rng: &mut StdRng, data: &Dataset, k: usize) -> f64 {
        let plan = PlanBuilder::new(k)
            .method(method)
            .m_scalar(20)
            .build()
            .unwrap();
        plan.run(rng, data).unwrap().distortion
    }

    #[test]
    fn pipeline_runs_on_every_registry_dataset() {
        let registry = RegistryParams {
            n: 4_000,
            k: 10,
            scale: 0.01,
            gamma: 1.0,
        };
        for name in available() {
            let run = |method| {
                let mut rng = seeded(81);
                let data = generate(&mut rng, name, &registry).expect("registered dataset");
                planned(method, &mut rng, &data, 10.min(data.len() / 4).max(2))
            };
            let fast = run(FAST);
            assert!(fast.is_finite(), "Table 4, registry {name}: {FAST} {fast}");
            assert_near(
                &format!("Table 4, registry {name}"),
                fast,
                run(Method::Sensitivity),
            );
        }
    }

    #[test]
    fn pipeline_methods_rank_as_the_paper_predicts_on_outliers() {
        let data = fc_data::c_outlier(&mut seeded(83), 9_000, 15, 10, 1e5);
        let worst = |method| {
            (900..903)
                .map(|seed| planned(method, &mut seeded(seed), &data, 6))
                .fold(1.0, f64::max)
        };
        let (uniform, fast) = (worst(Method::Uniform), worst(FAST));
        assert!(
            uniform > 3.0 * fast,
            "Table 4, c-outlier plans: uniform {uniform} vs {FAST} {fast}"
        );
    }
}

/// Figure 2: a larger m does not make the worst case worse.
mod figure2 {
    use super::*;

    #[test]
    fn larger_m_improves_worst_case_distortion() {
        let data = mixture(&mut seeded(6), 12_000, 20, 12, 3.0);
        let p = |m_scalar| params(24, m_scalar, CostKind::KMeans);
        let at = |m_scalar| verdict(FAST.build(), &data, &p(m_scalar), 600..603);
        let (small, large) = (at(10), at(80));
        assert!(
            large.worst() <= small.worst() * 1.2 + 0.05,
            "Figure 2: m = 80k ({large:?}) vs m = 10k ({small:?})"
        );
    }
}

/// Figure 3: a small cluster at the centre of mass, which lightweight
/// coresets miss and sensitivity sampling keeps.
mod figure3 {
    use super::*;
    use rand::Rng;

    /// Two heavy symmetric clusters plus a small cluster at their centre of
    /// mass; the 1-means sensitivities give it almost no probability.
    fn instance(rng: &mut StdRng, n: usize) -> Dataset {
        let mut flat = Vec::with_capacity(n * 2);
        let small = (n / 200).max(30);
        let per_big = (n - small) / 2;
        for sign in [-1.0f64, 1.0] {
            for _ in 0..per_big {
                flat.push(sign * 100.0 + rng.gen::<f64>() * 4.0 - 2.0);
                flat.push(rng.gen::<f64>() * 4.0 - 2.0);
            }
        }
        for _ in 0..(n - 2 * per_big) {
            flat.push(rng.gen::<f64>() * 0.5 - 0.25);
            flat.push(rng.gen::<f64>() * 0.5 - 0.25);
        }
        Dataset::unweighted(Points::from_flat(flat, 2).expect("rectangular"))
    }

    const PARAMS: CompressionParams = CompressionParams {
        k: 3,
        m: 150,
        kind: CostKind::KMeans,
    };

    #[test]
    fn lightweight_misses_the_central_cluster_but_sensitivity_does_not() {
        let data = instance(&mut seeded(13), 30_000);
        let near_centre = |p: &[f64]| p[0].abs() < 5.0 && p[1].abs() < 5.0;
        let central = |c: Coreset| usize::from(c.dataset().points().iter().any(near_centre));
        let (mut lightweight, mut sensitivity) = (0, 0);
        for seed in 500..510 {
            let mut rng = seeded(seed);
            lightweight += central(Lightweight.compress(&mut rng, &data, &PARAMS));
            sensitivity += central(StandardSensitivity.compress(&mut rng, &data, &PARAMS));
        }
        assert!(
            lightweight <= 5,
            "Figure 3: lightweight kept the centre {lightweight}/10 times"
        );
        assert!(
            sensitivity >= 9,
            "Figure 3: sensitivity kept the centre {sensitivity}/10 times"
        );
    }

    #[test]
    fn fast_coreset_prices_the_central_cluster() {
        let data = instance(&mut seeded(13), 30_000);
        near_sensitivity("Figure 3", &[Runs::median], &data, &PARAMS, 500..510);
    }
}

/// Table 5 (and Tables 6 and 9): streaming. Merge-&-reduce does not degrade
/// the samplers; BICO and StreamKM++ give usable summaries.
mod table5 {
    use super::*;

    #[test]
    fn streaming_matches_static_for_every_method() {
        let data = mixture(&mut seeded(21), 12_000, 15, 10, 1.0);
        let p = params(10, 40, CostKind::KMeans);
        let streamed = |method| verdict(Streamed(method), &data, &p, 700..703);
        for method in SAMPLERS.into_iter().filter(|&m| m != Method::Sensitivity) {
            let strm = streamed(method);
            let stat = verdict(method.build(), &data, &p, 700..703);
            if method == FAST {
                let sensitivity = streamed(Method::Sensitivity);
                let claim = format!("Table 5, streamed ({strm:?} vs {sensitivity:?})");
                assert_near(&claim, strm.median(), sensitivity.median());
            } else {
                assert!(strm.median() < 2.5, "Table 5: {method} streamed ({strm:?})");
            }
            assert!(
                strm.median() < stat.median() * 2.0 + 0.5,
                "Table 5: {method} streamed ({strm:?}) vs static ({stat:?})"
            );
        }
    }

    #[test]
    fn streamed_weight_is_conserved() {
        let data = mixture(&mut seeded(22), 9_000, 15, 10, 1.0);
        let mut stream = MergeReduce::new(FAST.build(), params(9, 40, CostKind::KMeans));
        let c = run_stream(&mut stream, &mut seeded(23), &data, 12);
        let drift = (c.total_weight() - data.total_weight()).abs() / data.total_weight();
        assert!(drift < 0.3, "Table 5: streamed weight drift {drift}");
    }

    #[test]
    fn streaming_handles_adversarial_block_order() {
        // Every outlier arrives in the final block: the composition must
        // still carry them into the summary.
        let mut rng = seeded(24);
        let body = mixture(&mut rng, 9_000, 10, 5, 0.0);
        let far = (0..40 * 10).map(|i| 1e5 + (i % 10) as f64).collect();
        let data = body
            .concat(&Dataset::unweighted(Points::from_flat(far, 10).unwrap()))
            .unwrap();
        let mut stream = MergeReduce::new(FAST.build(), params(6, 40, CostKind::KMeans));
        let c = run_stream(&mut stream, &mut rng, &data, 10);
        let kept = c.dataset().points().iter().any(|p| p[0] > 1e4);
        assert!(kept, "Table 5: the stream lost the late outlier cluster");
    }

    #[test]
    fn bico_and_streamkm_produce_usable_summaries() {
        use fc_core::streaming::bico::{BicoConfig, BicoStream};
        let data = mixture(&mut seeded(25), 10_000, 15, 10, 1.0);
        let (k, rng) = (10, &mut seeded(26));
        let mut bico = BicoStream::new(BicoConfig::with_target(40 * k));
        let summary = run_stream(&mut bico, rng, &data, STREAM_BLOCKS);
        let bico = fc_core::judge(rng, &data, &summary, k, CostKind::KMeans);
        // BICO is a quantisation summary, not an importance sample: the
        // paper's Table 6 reports 27.0 ± 6.7 on the streamed Gaussian mixture.
        assert!(bico.median < 100.0, "Table 6: BICO {bico:?}");

        let summary =
            Streamed(Method::StreamKm).compress(rng, &data, &params(k, 40, CostKind::KMeans));
        let streamkm = fc_core::judge(rng, &data, &summary, k, CostKind::KMeans);
        assert!(streamkm.median < 5.0, "Table 9: StreamKM++ {streamkm:?}");
    }
}

/// Table 7: class imbalance γ. The strong coresets stay near 1 at every γ,
/// under the judge's battery too.
mod table7 {
    use super::*;

    /// The battery claims' data: 10 000 points, d = 12, κ = 10, at `gamma`.
    pub(super) fn imbalanced(seed: u64, gamma: f64) -> Dataset {
        mixture(&mut seeded(seed), 10_000, 12, 10, gamma)
    }

    #[test]
    fn fast_coreset_passes_the_battery_on_balanced_and_imbalanced_data() {
        let p = params(10, 40, CostKind::KMeans);
        for (seed, gamma) in [(61, 0.0), (62, 3.0)] {
            let (claim, data) = (format!("Table 7, γ = {gamma}"), imbalanced(seed, gamma));
            near_sensitivity(&claim, &[Runs::battery], &data, &p, seed + 100..seed + 101);
        }
    }

    #[test]
    fn battery_and_single_metric_agree_on_verdicts() {
        let (data, p) = (imbalanced(64, 1.0), params(10, 40, CostKind::KMeans));
        let stats = [Runs::median, Runs::battery];
        let fast = near_sensitivity("Table 7, γ = 1", &stats, &data, &p, 65..66);
        // The battery's worst case dominates the solves' median, and for a
        // strong coreset both sit near 1.
        let dominates = fast.battery() + 1e-9 >= fast.median() * 0.9;
        assert!(dominates, "Table 7, γ = 1: {fast:?}");
    }
}

/// Figure 4: k-median (z = 1). The same methods succeed and fail on the same
/// data as under k-means.
mod figure4 {
    use super::*;
    use fc_clustering::lloyd::LloydConfig;

    #[test]
    fn fast_coreset_kmedian_is_accurate() {
        let data = mixture(&mut seeded(31), 10_000, 15, 10, 2.0);
        let p = params(10, 40, CostKind::KMedian);
        near_sensitivity("Figure 4, gaussian", &[Runs::median], &data, &p, 800..803);
    }

    #[test]
    fn uniform_still_fails_on_outliers_under_kmedian() {
        let data = fc_data::c_outlier(&mut seeded(32), 10_000, 15, 8, 1e5);
        let p = params(8, 40, CostKind::KMedian);
        let uniform = verdict(Method::Uniform.build(), &data, &p, 900..904);
        let fast = near_sensitivity("Figure 4, c-outlier", &[Runs::median], &data, &p, 900..903);
        // z = 1 dampens the outliers' cost, so uniform fails less badly than
        // under k-means, but the order must hold decisively.
        assert!(
            uniform.worst() > 2.0 * fast.median(),
            "Figure 4, c-outlier: uniform ({uniform:?}) vs {FAST} ({fast:?})"
        );
    }

    #[test]
    fn kmedian_battery_holds_too() {
        let data = super::table7::imbalanced(66, 2.0);
        let p = params(10, 40, CostKind::KMedian);
        near_sensitivity("Figure 4, γ = 2", &[Runs::battery], &data, &p, 67..68);
    }

    #[test]
    fn kmedian_seeding_uses_linear_distance_scores() {
        // A far outlier is sampled with probability ∝ distance (not its
        // square), still far above uniform.
        let data = fc_data::c_outlier(&mut seeded(33), 5_000, 10, 4, 1e4);
        let p = params(4, 20, CostKind::KMedian);
        let far = |point: &[f64]| point.iter().any(|&x| x.abs() > 1e3);
        let captured = (1_000..1_006)
            .map(|seed| Lightweight.compress(&mut seeded(seed), &data, &p))
            .filter(|c| c.dataset().points().iter().any(far))
            .count();
        assert!(
            captured >= 5,
            "Figure 4: lightweight kept the outliers {captured}/6 times"
        );
    }

    #[test]
    fn weiszfeld_refinement_beats_mean_refinement_under_kmedian() {
        // On outlier-heavy data the k-median objective at geometric medians
        // must beat the same objective at means.
        let mut rng = seeded(34);
        let data = fc_data::c_outlier(&mut rng, 4_000, 10, 12, 1e4);
        let seeding = fc_clustering::kmeanspp::kmeanspp(&mut rng, &data, 2, CostKind::KMedian);
        let refine = |kind| {
            fc_clustering::lloyd::refine(
                &data,
                seeding.centers.clone(),
                kind,
                LloydConfig::default(),
            )
        };
        let median = refine(CostKind::KMedian).cost;
        let mean = refine(CostKind::KMeans).cost_on(&data, CostKind::KMedian);
        assert!(
            median <= mean * 1.001,
            "Figure 4: Weiszfeld {median} vs mean-refined {mean}"
        );
    }
}

/// The coreset contract: at most m points and more than m/2, non-negative
/// weights, and a total weight near the input's (uniform's exactly).
mod contract {
    use super::*;

    #[test]
    fn coreset_sizes_and_weights_are_consistent_across_methods() {
        let mut rng = seeded(5);
        let data = mixture(&mut rng, 8_000, 10, 8, 0.0);
        let p = params(8, 40, CostKind::KMeans);
        for method in SAMPLERS {
            let c = method.build().compress(&mut rng, &data, &p);
            let size = c.len();
            assert!(
                size <= p.m && size > p.m / 2,
                "contract: {method} size {size}, m {}",
                p.m
            );
            let drift = (c.total_weight() - data.total_weight()).abs() / data.total_weight();
            // Only uniform sampling's weights sum exactly; the sensitivity
            // family's are right in expectation.
            let bound = if method == Method::Uniform {
                1e-12
            } else {
                0.3
            };
            assert!(drift < bound, "contract: {method} weight drift {drift}");
            let nonnegative = c.dataset().weights().iter().all(|&w| w >= 0.0);
            assert!(nonnegative, "contract: {method} has a negative weight");
        }
    }
}
