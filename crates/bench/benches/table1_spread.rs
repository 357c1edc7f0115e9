//! **Table 1**: `Fast-kmeans++` runtime as a function of `r ~ log Δ`.
//!
//! The spread-stress dataset plants geometric sequences that force the
//! quadtree ever deeper; without the Section-4 reduction, runtime grows
//! linearly in `r`. Fast-Coreset runs that reduction only when the tree
//! truncates, so the table says, per `r`, whether it did and whether step 2
//! therefore ran: inside the paper's range (`r ≤ 50`) the two timing columns
//! are the same path; the rows past the tree's 62 levels are where allowing
//! the reduction buys a second pass.
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
use fc_quadtree::tree::{Quadtree, QuadtreeConfig};

/// The paper's Table 1 range.
const PAPER_RS: [usize; 4] = [20, 30, 40, 50];
/// Past the 62 levels the deepest tree has: where the gate fires.
const BEYOND_THE_TREE: [usize; 2] = [64, 80];

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
    // …and with it allowed (Section 4's fix, where the tree truncates).
    let reduced = FastCoreset::with_config(FastCoresetConfig {
        use_jl: false,
        reduce_spread: true,
        tree: deep_tree,
        ..Default::default()
    });

    let mut table = Table::new(
        "Table 1: Fast-kmeans++ runtime (seconds) vs r ~ log Δ  [+ Section 4 fix]",
        &[
            "r",
            "no spread reduction",
            "reduce-spread allowed",
            "tree truncated -> step 2",
        ],
    );
    let mut raw_means = Vec::new();
    for &r in PAPER_RS.iter().chain(&BEYOND_THE_TREE) {
        let mut rng = cfg.rng(0x7AB1 + r as u64);
        let named = NamedData {
            name: format!("spread-stress r={r}"),
            data: spread_stress(&mut rng, n, 4 * n / 5, r),
            k,
        };
        // The gate's own signal, on the points the partition embeds
        // (`use_jl: false`, so the input itself).
        let truncated = Quadtree::build(&mut rng, named.data.points(), deep_tree).truncated();
        let t_raw = measure_build_only(&cfg, &named, &raw, &params, 0x300 + r as u64);
        let t_red = measure_build_only(&cfg, &named, &reduced, &params, 0x400 + r as u64);
        raw_means.push(mean(&t_raw));
        table.row(vec![
            r.to_string(),
            fmt_mean_var(&t_raw),
            fmt_mean_var(&t_red),
            if truncated {
                "yes -> ran"
            } else {
                "no -> skipped"
            }
            .into(),
        ]);
    }
    table.print();

    let growth = raw_means[PAPER_RS.len() - 1] / raw_means[0].max(1e-12);
    println!(
        "shape check: un-reduced runtime grows {growth:.2}x from r=20 to r=50 \
         (paper Table 1: 13.5s -> 16.2s, ~1.2x; linear trend in r)"
    );
}
