//! **Tables 2 & 3**: distortion of uniform sampling and Fast-Coresets
//! relative to standard sensitivity sampling, across the real-world proxy
//! suite (Table 3 lists the datasets).
//!
//! Paper setup: `k = 100`, `m = 40k`. Expected shape: both ratios ≈ 1 on the
//! benign datasets; uniform blows up on Star (~8×) and Taxi (~600×) while
//! Fast-Coresets stay within ~2× everywhere.

use fc_bench::experiments::{distortions, measure_static, DEFAULT_KIND};
use fc_bench::scenarios::params_for;
use fc_bench::{BenchConfig, Table};
use fc_core::methods::Uniform;
use fc_core::FastCoreset;
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0x7AB2);
    let suite = fc_bench::real_suite(&mut rng, &cfg);

    let mut inventory = Table::new(
        "Table 3: real-world proxy datasets",
        &[
            "dataset",
            "points (bench)",
            "points (paper)",
            "dim",
            "k (bench)",
        ],
    );
    let paper_n = [
        48_842usize,
        60_000,
        138_500,
        515_345,
        581_012,
        754_539,
        2_458_285,
    ];
    for (named, &pn) in suite.iter().zip(&paper_n) {
        inventory.row(vec![
            named.name.clone(),
            named.data.len().to_string(),
            pn.to_string(),
            named.data.dim().to_string(),
            named.k.to_string(),
        ]);
    }
    inventory.print();

    let sensitivity = fc_bench::scenarios::sensitivity_baseline();
    let uniform = Uniform;
    let fast = FastCoreset;

    let mut table = Table::new(
        "Table 2: distortion ratio vs sensitivity sampling  [m = 40k]",
        &[
            "dataset",
            "uniform / sensitivity",
            "fast-coreset / sensitivity",
        ],
    );
    for (i, named) in suite.iter().enumerate() {
        let params = params_for(named, 40, DEFAULT_KIND);
        let base = mean(&distortions(&measure_static(
            &cfg,
            named,
            &sensitivity,
            &params,
            0x500 + i as u64,
        )));
        let uni = mean(&distortions(&measure_static(
            &cfg,
            named,
            &uniform,
            &params,
            0x600 + i as u64,
        )));
        let fc = mean(&distortions(&measure_static(
            &cfg,
            named,
            &fast,
            &params,
            0x700 + i as u64,
        )));
        let mark = |r: f64| {
            if r > 5.0 {
                format!("{r:.2}  [FAIL]")
            } else {
                format!("{r:.2}")
            }
        };
        table.row(vec![
            named.name.clone(),
            mark(uni / base.max(1e-12)),
            mark(fc / base.max(1e-12)),
        ]);
    }
    table.print();
}
