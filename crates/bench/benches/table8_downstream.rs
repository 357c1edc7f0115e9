//! **Table 8**: downstream solution quality — `cost(P, C_S)` where `C_S` is
//! found by k-means++ + Lloyd *on each method's coreset*.
//!
//! Paper setup: `k = 50`, identical initializations within each row, sample
//! sizes 4000 (MNIST/Adult) and 20000 (the rest). Shape to reproduce: among
//! the methods with small distortion, *no* sampler consistently yields the
//! cheapest solutions — the compression choice washes out downstream.

use fc_bench::experiments::{eval_lloyd, DEFAULT_KIND};
use fc_bench::scenarios::{method_columns, table4_methods};
use fc_bench::{BenchConfig, Table};
use fc_core::CompressionParams;
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0x7AB8);
    let suite = fc_bench::real_suite(&mut rng, &cfg);
    let methods = table4_methods();
    let k = 50usize;

    let mut table = Table::new(
        "Table 8: downstream cost(P, C_S), k-means++ + Lloyd on each coreset [k = 50]",
        &[
            method_columns("dataset", &methods),
            vec!["winner".to_owned()],
        ]
        .concat(),
    );
    for (di, named) in suite.iter().enumerate() {
        // The paper uses m = 4000 for MNIST/Adult and m = 20000 for the
        // rest; keep that ratio under scaling via the m-scalars 80 and 400.
        let m = if named.name == "adult" || named.name == "mnist" {
            80 * k
        } else {
            400 * k
        };
        let params = CompressionParams {
            k,
            m,
            kind: DEFAULT_KIND,
        };
        let mut costs = Vec::new();
        for (mi, method) in methods.iter().enumerate() {
            let compressor = method.build();
            let runs: Vec<f64> = (0..cfg.runs)
                .map(|run| {
                    let mut build_rng = cfg.rng(0x8000 + (di * 64 + mi * 8 + run) as u64);
                    let coreset = compressor.compress(&mut build_rng, &named.data, &params);
                    // Identical initialization within the row: the solve RNG
                    // depends on the dataset and run only, not the method.
                    let mut solve_rng = cfg.rng(0x8800 + (di * 8 + run) as u64);
                    let sol = fc_clustering::lloyd::solve(
                        &mut solve_rng,
                        coreset.dataset(),
                        k,
                        DEFAULT_KIND,
                        eval_lloyd(),
                    );
                    sol.cost_on(&named.data, DEFAULT_KIND)
                })
                .collect();
            costs.push(mean(&runs));
        }
        let best = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("costs are finite"))
            .map(|(i, _)| methods[i].to_string())
            .unwrap_or_default();
        let mut cells = vec![named.name.clone()];
        cells.extend(costs.iter().map(|c| format!("{c:.4e}")));
        cells.push(best);
        table.row(cells);
    }
    table.print();
}
