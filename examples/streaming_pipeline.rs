//! Streaming compression with merge-&-reduce (paper §5.4): consume a stream
//! of blocks while holding only O(m log n) points, then compare against the
//! one-shot static compression and the specialized streaming baselines
//! (BICO, StreamKM++).
//!
//! ```sh
//! cargo run --release --example streaming_pipeline
//! ```

use fast_coresets::prelude::*;
use fc_core::streaming::bico::{BicoConfig, BicoStream};
use fc_core::streaming::stream::run_stream;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let k = 25;
    let params = CompressionParams::with_scalar(k, 40, CostKind::KMeans).unwrap();

    // The "stream": an imbalanced mixture arriving in 20 blocks.
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 120_000,
            d: 15,
            kappa: 25,
            gamma: 1.5,
            ..Default::default()
        },
    );
    let blocks = 20;
    println!(
        "stream: {} points in {blocks} blocks, target size m = {}",
        data.len(),
        params.m
    );

    // 1. Merge-&-reduce over the Fast-Coreset compressor, through the
    //    unified Plan API: the same plan that runs batches opens a
    //    streaming session.
    let plan = PlanBuilder::new(k)
        .method(Method::FastCoreset)
        .m_scalar(40)
        .build()
        .expect("valid plan");
    let mut session = plan.stream();
    let start = std::time::Instant::now();
    let batch = data.len().div_ceil(blocks);
    for block in data.chunks(batch) {
        session
            .push(&mut rng, &block)
            .expect("blocks agree in dimension");
    }
    println!(
        "mid-stream: {} summaries holding {} points",
        session.summary_count(),
        session.stored_points(),
    );
    let streamed = session.finish(&mut rng).expect("blocks were pushed");
    let stream_time = start.elapsed();

    // 2. The same compressor, one shot over the whole data (the "cheating"
    //    baseline that holds everything in memory).
    let fast = FastCoreset;
    let start = std::time::Instant::now();
    let static_c = fast.compress(&mut rng, &data, &params);
    let static_time = start.elapsed();

    // 3. The streaming baselines: BICO's native single-pass stream, and
    //    StreamKM++, whose bucket cascade is merge-&-reduce over its tree.
    let start = std::time::Instant::now();
    let mut bico = BicoStream::new(BicoConfig::with_target(params.m));
    let bico_c = run_stream(&mut bico, &mut rng, &data, blocks);
    let bico_time = start.elapsed();

    let start = std::time::Instant::now();
    let mut skm = MergeReduce::new(Method::StreamKm.build(), params);
    let skm_c = run_stream(&mut skm, &mut rng, &data, blocks);
    let skm_time = start.elapsed();

    println!(
        "\n{:<28} {:>8} {:>12} {:>10}",
        "pipeline", "size", "build time", "distortion"
    );
    for (name, coreset, t) in [
        ("merge-reduce[fast-coreset]", &streamed, stream_time),
        ("static fast-coreset", &static_c, static_time),
        ("BICO", &bico_c, bico_time),
        ("StreamKM++", &skm_c, skm_time),
    ] {
        let verdict = fc_core::judge(&mut rng, &data, coreset, k, CostKind::KMeans);
        println!(
            "{name:<28} {:>8} {t:>12.2?} {:>10.3}",
            coreset.len(),
            verdict.median
        );
    }

    println!(
        "\nPaper Table 5's finding: composition does not degrade the sampling \
         methods — streaming distortions track the static ones."
    );
}
