//! **Table 1**: `Fast-kmeans++` runtime as a function of `r ~ log Δ`.
//!
//! The spread-stress dataset plants geometric sequences that force the
//! quadtree ever deeper; without the Section-4 reduction, runtime grows
//! linearly in `r`. Both columns are built from the `fc_quadtree` stages:
//! the quadtree plus Fast-kmeans++ on the raw points, and the same after
//! Crude-Approx + Reduce-Spread. The last column says whether the raw tree
//! truncated, i.e. whether Fast-Coreset's gate would run the reduction:
//! inside the paper's range (`r ≤ 50`) it would not; the rows past the
//! tree's 62 levels are where it does.
//!
//! Implementation note: this workspace's quadtree is *compressed*, so only
//! points inside deep chains pay the `log Δ` factor (the paper's
//! uncompressed embedding charges every point). To expose the dependence
//! the paper demonstrates, the stress set here is chain-dominated (4/5 of
//! the points sit in geometric sequences) and the depth cap is lifted to
//! the deepest level the tree supports.

use fc_bench::experiments::DEFAULT_KIND;
use fc_bench::{fmt_mean_var, time, BenchConfig, Table};
use fc_data::spread_stress::spread_stress;
use fc_geom::stats::mean;
use fc_geom::Dataset;
use fc_quadtree::{crude_approx, fast_kmeanspp, reduce_spread};
use fc_quadtree::{FastSeedConfig, Quadtree, QuadtreeConfig, SpreadParams};

/// The paper's Table 1 range.
const PAPER_RS: [usize; 4] = [20, 30, 40, 50];
/// Past the 62 levels the deepest tree has: where the gate fires.
const BEYOND_THE_TREE: [usize; 2] = [64, 80];
/// The deepest tree this workspace builds.
const DEEP_TREE: QuadtreeConfig = QuadtreeConfig { max_depth: 62 };

/// Seconds for the tree plus Fast-kmeans++, `cfg.runs` times; with
/// `reduce`, Crude-Approx and Reduce-Spread run first (as Fast-Coreset's
/// step 2 wires them) and the tree is built on their output.
fn seeding_secs(cfg: &BenchConfig, data: &Dataset, k: usize, reduce: bool, salt: u64) -> Vec<f64> {
    (0..cfg.runs)
        .map(|run| {
            let mut rng = cfg.rng(salt.wrapping_add(run as u64));
            let (seeding, secs) = time(|| {
                let tree = if reduce {
                    let n = data.len();
                    let bound = crude_approx(&mut rng, data.points(), k, DEFAULT_KIND, n as f64);
                    let sp = SpreadParams::practical(n, data.dim());
                    let reach = bound.reach(DEFAULT_KIND);
                    let (reduced, _map) = reduce_spread(&mut rng, data.points(), reach, sp);
                    Quadtree::build(&mut rng, &reduced, DEEP_TREE)
                } else {
                    Quadtree::build(&mut rng, data.points(), DEEP_TREE)
                };
                let seeding = FastSeedConfig::default();
                fast_kmeanspp(&mut rng, data, &tree, k, DEFAULT_KIND, seeding)
            });
            std::hint::black_box(seeding.k());
            secs
        })
        .collect()
}

fn main() {
    let cfg = BenchConfig::from_env();
    let n = ((200_000.0 * cfg.scale) as usize).max(20_000);
    let k = cfg.k_small;

    let mut table = Table::new(
        "Table 1: Fast-kmeans++ runtime (seconds) vs r ~ log Δ  [+ Section 4 fix]",
        &[
            "r",
            "no spread reduction",
            "after reduce-spread",
            "tree truncated -> gate",
        ],
    );
    let mut raw_means = Vec::new();
    for &r in PAPER_RS.iter().chain(&BEYOND_THE_TREE) {
        let mut rng = cfg.rng(0x7AB1 + r as u64);
        let data = spread_stress(&mut rng, n, 4 * n / 5, r);
        let truncated = Quadtree::build(&mut rng, data.points(), DEEP_TREE).truncated();
        let t_raw = seeding_secs(&cfg, &data, k, false, 0x300 + r as u64);
        let t_red = seeding_secs(&cfg, &data, k, true, 0x400 + r as u64);
        raw_means.push(mean(&t_raw));
        table.row(vec![
            r.to_string(),
            fmt_mean_var(&t_raw),
            fmt_mean_var(&t_red),
            if truncated {
                "yes -> runs"
            } else {
                "no -> skips"
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
