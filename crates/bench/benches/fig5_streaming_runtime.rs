//! **Figure 5**: streaming vs. non-streaming coreset *runtimes* (bottom
//! panel; the top panel's verdicts are the Table 5 section of
//! `tests/paper_claims.rs`).
//!
//! Shape to reproduce: merge-&-reduce costs a small constant factor over
//! the static build for every method, with the method ordering (uniform
//! fastest … fast-coreset slowest) unchanged.

use fc_bench::experiments::{build_times, measure_static, measure_streaming, DEFAULT_KIND};
use fc_bench::scenarios::{params_for, table4_methods};
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0xF165);
    let mut suite = fc_bench::artificial_suite(&mut rng, &cfg);
    suite.extend(fc_bench::scenarios::small_real_suite(&mut rng, &cfg));
    let methods = table4_methods();

    let mut table = Table::new(
        "Figure 5 (bottom): build runtime (seconds), streaming vs static  [m = 40k]",
        &["dataset", "method", "streaming", "static", "stream/static"],
    );
    for (di, named) in suite.iter().enumerate() {
        let params = params_for(named, 40, DEFAULT_KIND);
        for (mi, method) in methods.iter().enumerate() {
            let compressor = method.build();
            let salt = 0xC000 + (di * 16 + mi) as u64;
            let strm = build_times(&measure_streaming(
                &cfg,
                named,
                compressor.as_ref(),
                &params,
                salt,
            ));
            let stat = build_times(&measure_static(
                &cfg,
                named,
                compressor.as_ref(),
                &params,
                salt,
            ));
            table.row(vec![
                named.name.clone(),
                method.to_string(),
                fmt_mean_var(&strm),
                fmt_mean_var(&stat),
                format!("{:.2}x", mean(&strm) / mean(&stat).max(1e-12)),
            ]);
        }
    }
    table.print();
}
