//! Streaming vs. static equivalence (paper Table 5): merge-&-reduce
//! composition does not degrade the samplers, and the composed summary
//! still preserves costs and mass.

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use fc_core::streaming::stream::run_stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mixture(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n,
            d: 15,
            kappa: 10,
            gamma: 1.0,
            ..Default::default()
        },
    )
}

#[test]
fn streaming_matches_static_for_every_method() {
    let data = mixture(21, 12_000);
    let k = 10;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    for method in [
        Method::Uniform,
        Method::Lightweight,
        Method::Welterweight(JCount::LogK),
        Method::FastCoreset,
    ] {
        let m = method.build();
        let strm: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(700 + s);
                let mut mr = MergeReduce::new(m.as_ref(), params);
                let c = run_stream(&mut mr, &mut rng, &data, 10);
                fc_core::judge(&mut rng, &data, &c, k, CostKind::KMeans).median
            })
            .collect();
        let stat: Vec<f64> = (0..3)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(700 + s);
                let c = m.compress(&mut rng, &data, &params);
                fc_core::judge(&mut rng, &data, &c, k, CostKind::KMeans).median
            })
            .collect();
        let (sm, tm) = (fc_geom::stats::median(&strm), fc_geom::stats::median(&stat));
        assert!(sm < 2.5, "{method} streaming distortion {sm}");
        assert!(
            sm < tm * 2.0 + 0.5,
            "{method}: streaming {sm} much worse than static {tm}"
        );
    }
}

#[test]
fn streamed_weight_is_conserved() {
    let data = mixture(22, 9_000);
    let method = FastCoreset;
    let params = CompressionParams::with_scalar(9, 40, CostKind::KMeans).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let mut mr = MergeReduce::new(method, params);
    let c = run_stream(&mut mr, &mut rng, &data, 12);
    let rel = (c.total_weight() - data.total_weight()).abs() / data.total_weight();
    assert!(rel < 0.3, "streamed weight drift {rel}");
}

#[test]
fn streaming_handles_adversarial_block_order() {
    // All outliers arrive in the final block: the composition must still
    // carry them into the final summary (sensitivity scores guarantee it).
    let mut rng = StdRng::seed_from_u64(24);
    let mut body = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 9_000,
            d: 10,
            kappa: 5,
            gamma: 0.0,
            ..Default::default()
        },
    );
    let far = Dataset::unweighted(
        fc_geom::Points::from_flat((0..40 * 10).map(|i| 1e5 + (i % 10) as f64).collect(), 10)
            .unwrap(),
    );
    body = body.concat(&far).unwrap();

    let method = FastCoreset;
    let params = CompressionParams::with_scalar(6, 40, CostKind::KMeans).unwrap();
    let mut mr = MergeReduce::new(method, params);
    let c = run_stream(&mut mr, &mut rng, &body, 10);
    let captured = c.dataset().points().iter().any(|p| p[0] > 1e4);
    assert!(captured, "late-arriving outlier cluster lost by the stream");
}

#[test]
fn bico_and_streamkm_produce_usable_summaries() {
    let data = mixture(25, 10_000);
    let k = 10;
    let m = 40 * k;
    let mut rng = StdRng::seed_from_u64(26);

    let mut bico = fc_core::streaming::bico::BicoStream::new(
        fc_core::streaming::bico::BicoConfig::with_target(m),
    );
    let bc = run_stream(&mut bico, &mut rng, &data, 10);
    let bd = fc_core::judge(&mut rng, &data, &bc, k, CostKind::KMeans);
    assert!(bd.median.is_finite());
    // BICO is a quantization summary, not an importance sample: distortion
    // in the tens on clusterable data is the expected behaviour (the paper's
    // Table 6 reports 27.0 ± 6.7 for the streaming Gaussian mixture).
    assert!(
        bd.median < 100.0,
        "BICO distortion {} out of plausible range",
        bd.median
    );

    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();
    let mut skm = MergeReduce::new(Method::StreamKm.build(), params);
    let sc = run_stream(&mut skm, &mut rng, &data, 10);
    let sd = fc_core::judge(&mut rng, &data, &sc, k, CostKind::KMeans);
    assert!(sd.median < 5.0, "StreamKM++ distortion {}", sd.median);
}
