//! **Table 1**: `Fast-kmeans++` runtime as a function of `r ~ log Δ`.
//!
//! The spread-stress dataset plants geometric sequences that force the
//! quadtree ever deeper; without the Section-4 reduction, runtime grows
//! linearly in `r`. With `Reduce-Spread` enabled the dependence collapses —
//! shown here as a bonus column (the paper's Section 4 claim).
//!
//! Implementation note: this workspace's quadtree is *compressed*, so only
//! points inside deep chains pay the `log Δ` factor (the paper's
//! uncompressed embedding charges every point). To expose the dependence
//! the paper demonstrates, the stress set here is chain-dominated (4/5 of
//! the points sit in geometric sequences) and the depth cap is lifted to
//! the deepest level the tree supports.

use fc_bench::experiments::{measure_build_only, DEFAULT_KIND};
use fc_bench::scenarios::NamedData;
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_core::fast_coreset::{FastCoreset, FastCoresetConfig};
use fc_core::CompressionParams;
use fc_data::spread_stress::spread_stress;
use fc_geom::stats::mean;
use fc_quadtree::tree::QuadtreeConfig;

fn main() {
    let cfg = BenchConfig::from_env();
    let n = ((200_000.0 * cfg.scale) as usize).max(20_000);
    let k = cfg.k_small;
    let params = CompressionParams {
        k,
        m: 40 * k,
        kind: DEFAULT_KIND,
    };
    let deep_tree = QuadtreeConfig { max_depth: 62 };

    // Fast-kmeans++ without spread reduction (the Table 1 configuration)…
    let raw = FastCoreset::with_config(FastCoresetConfig {
        use_jl: false,
        reduce_spread: false,
        tree: deep_tree,
        ..Default::default()
    });
    // …and with it (Section 4's fix).
    let reduced = FastCoreset::with_config(FastCoresetConfig {
        use_jl: false,
        reduce_spread: true,
        tree: deep_tree,
        ..Default::default()
    });

    let mut table = Table::new(
        "Table 1: Fast-kmeans++ runtime (seconds) vs r ~ log Δ  [+ Section 4 fix]",
        &["r", "no spread reduction", "with reduce-spread"],
    );
    let mut raw_means = Vec::new();
    for &r in &[20usize, 30, 40, 50] {
        let mut rng = cfg.rng(0x7AB1 + r as u64);
        let named = NamedData {
            name: format!("spread-stress r={r}"),
            data: spread_stress(&mut rng, n, 4 * n / 5, r),
            k,
        };
        let t_raw = measure_build_only(&cfg, &named, &raw, &params, 0x300 + r as u64);
        let t_red = measure_build_only(&cfg, &named, &reduced, &params, 0x400 + r as u64);
        raw_means.push(mean(&t_raw));
        table.row(vec![
            r.to_string(),
            fmt_mean_var(&t_raw),
            fmt_mean_var(&t_red),
        ]);
    }
    table.print();

    let growth = raw_means.last().unwrap() / raw_means.first().unwrap().max(1e-12);
    println!(
        "shape check: un-reduced runtime grows {growth:.2}x from r=20 to r=50 \
         (paper Table 1: 13.5s -> 16.2s, ~1.2x; linear trend in r)"
    );
}
