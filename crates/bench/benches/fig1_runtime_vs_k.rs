//! **Figure 1**: coreset construction runtime as `k` grows — standard
//! sensitivity sampling (linear in `k`) vs. Fast-Coresets (near-flat).
//!
//! Paper setup: mean runtime over five runs, `k ∈ {50, 100, 200, 400}`,
//! `m = 40k`, on geometric / benchmark / c-outlier / Gaussian / Adult.
//! The claim to reproduce is the *shape*: sensitivity sampling slows down
//! linearly with `k`; Fast-Coresets only logarithmically.

use fc_bench::experiments::{measure_build_only, DEFAULT_KIND};
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_core::{CompressionParams, FastCoreset, StandardSensitivity};
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0xF161);
    let mut datasets = fc_bench::artificial_suite(&mut rng, &cfg);
    // Figure 1 also includes Adult.
    datasets.extend(
        fc_bench::real_suite(&mut rng, &cfg)
            .into_iter()
            .filter(|d| d.name == "adult"),
    );
    let ks = [50usize, 100, 200, 400];
    let sensitivity = StandardSensitivity;
    let fast = FastCoreset;

    let mut table = Table::new(
        "Figure 1: coreset runtime (seconds) vs k  [m = 40k]",
        &["dataset", "k", "sensitivity", "fast-coreset", "speedup"],
    );
    let mut shape_check: Vec<(f64, f64)> = Vec::new();
    for named in &datasets {
        let mut sens_at: Vec<f64> = Vec::new();
        let mut fast_at: Vec<f64> = Vec::new();
        for &k in &ks {
            let params = CompressionParams {
                k,
                m: 40 * k,
                kind: DEFAULT_KIND,
            };
            let st = measure_build_only(&cfg, named, &sensitivity, &params, 0x100 + k as u64);
            let ft = measure_build_only(&cfg, named, &fast, &params, 0x200 + k as u64);
            table.row(vec![
                named.name.clone(),
                k.to_string(),
                fmt_mean_var(&st),
                fmt_mean_var(&ft),
                format!("{:.2}x", mean(&st) / mean(&ft).max(1e-12)),
            ]);
            sens_at.push(mean(&st));
            fast_at.push(mean(&ft));
        }
        // Growth factor from k = 50 to k = 400 (paper: ~8x for sensitivity,
        // ~log for Fast-Coresets).
        shape_check.push((
            sens_at[3] / sens_at[0].max(1e-12),
            fast_at[3] / fast_at[0].max(1e-12),
        ));
    }
    table.print();

    let mut shape = Table::new(
        "Figure 1 shape: runtime growth factor from k=50 to k=400 (paper: ~8x vs ~log)",
        &["dataset", "sensitivity growth", "fast-coreset growth"],
    );
    for (named, (sg, fg)) in datasets.iter().zip(&shape_check) {
        shape.row(vec![
            named.name.clone(),
            format!("{sg:.2}x"),
            format!("{fg:.2}x"),
        ]);
    }
    shape.print();
}
