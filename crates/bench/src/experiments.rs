//! Shared measurement routines for the experiment benches.

use fc_clustering::lloyd::LloydConfig;
use fc_clustering::CostKind;
use fc_core::streaming::stream::run_stream;
use fc_core::streaming::MergeReduce;
use fc_core::{CompressionParams, Compressor};

use crate::harness::{time, BenchConfig};
use crate::scenarios::NamedData;

/// Lloyd budget of a solve that prices a coreset: a fixed 12 rounds, as in
/// each of [`fc_core::judge`]'s solves (kept moderate so the candidate
/// solution — not the refinement — dominates the measurement), whatever
/// the coreset's size.
pub fn eval_lloyd() -> LloydConfig {
    LloydConfig::fixed(12)
}

/// Number of stream blocks used by the streaming experiments (§5.4).
pub const STREAM_BLOCKS: usize = 10;

/// A `(distortion, build_seconds)` measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Coreset distortion (the \[57\] metric): the judge's median.
    pub distortion: f64,
    /// Seconds spent *building* the compression (excludes evaluation).
    pub build_secs: f64,
}

/// Compresses statically and judges the coreset, `cfg.runs` times.
pub fn measure_static(
    cfg: &BenchConfig,
    named: &NamedData,
    method: &dyn Compressor,
    params: &CompressionParams,
    salt: u64,
) -> Vec<Measurement> {
    (0..cfg.runs)
        .map(|run| {
            let mut rng = cfg.rng(salt.wrapping_add(run as u64));
            let (coreset, build_secs) = time(|| method.compress(&mut rng, &named.data, params));
            let verdict = fc_core::judge(&mut rng, &named.data, &coreset, params.k, params.kind);
            Measurement {
                distortion: verdict.median,
                build_secs,
            }
        })
        .collect()
}

/// Compresses statically and measures only the build time (no distortion
/// evaluation) — for the runtime-only experiments (Figure 1, Table 1).
pub fn measure_build_only(
    cfg: &BenchConfig,
    named: &NamedData,
    method: &dyn Compressor,
    params: &CompressionParams,
    salt: u64,
) -> Vec<f64> {
    (0..cfg.runs)
        .map(|run| {
            let mut rng = cfg.rng(salt.wrapping_add(run as u64));
            let (coreset, secs) = time(|| method.compress(&mut rng, &named.data, params));
            std::hint::black_box(coreset.len());
            secs
        })
        .collect()
}

/// Streams through merge-&-reduce and judges the coreset, `cfg.runs`
/// times.
pub fn measure_streaming(
    cfg: &BenchConfig,
    named: &NamedData,
    method: &dyn Compressor,
    params: &CompressionParams,
    salt: u64,
) -> Vec<Measurement> {
    (0..cfg.runs)
        .map(|run| {
            let mut rng = cfg.rng(salt.wrapping_add(1_000 + run as u64));
            let (coreset, build_secs) = time(|| {
                let mut mr = MergeReduce::new(method, *params);
                run_stream(&mut mr, &mut rng, &named.data, STREAM_BLOCKS)
            });
            let verdict = fc_core::judge(&mut rng, &named.data, &coreset, params.k, params.kind);
            Measurement {
                distortion: verdict.median,
                build_secs,
            }
        })
        .collect()
}

/// Marks a distortion cell the way the paper does: `> 5` is a failure
/// (bold), `> 10` catastrophic (underlined).
pub fn failure_marker(mean_distortion: f64) -> &'static str {
    if mean_distortion > 10.0 {
        " [CATASTROPHIC]"
    } else if mean_distortion > 5.0 {
        " [FAIL]"
    } else {
        ""
    }
}

/// Convenience: extract the distortion series from measurements.
pub fn distortions(ms: &[Measurement]) -> Vec<f64> {
    ms.iter().map(|m| m.distortion).collect()
}

/// Convenience: extract the build-time series from measurements.
pub fn build_times(ms: &[Measurement]) -> Vec<f64> {
    ms.iter().map(|m| m.build_secs).collect()
}

/// The default objective of the evaluation (§5.2: "Unless stated otherwise,
/// our experimental results focus on the k-means task").
pub const DEFAULT_KIND: CostKind = CostKind::KMeans;
