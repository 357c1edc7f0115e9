//! **Figure 2**: the effect of the m-scalar on distortion (top panel) and
//! construction runtime (bottom panel) for the four-method suite on the
//! real-world proxies.
//!
//! Paper setup: bars at `m ∈ {40k, 80k}`, means over 5 runs, log-scale
//! axes. Shape to reproduce: "the faster the method, the more brittle its
//! compression" — runtimes order uniform < lightweight < welterweight <
//! fast-coreset while worst-case distortion orders the other way.

use fc_bench::experiments::{
    build_times, distortions, failure_marker, measure_static, DEFAULT_KIND,
};
use fc_bench::scenarios::{method_columns, params_for, table4_methods};
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0xF162);
    let mut suite = fc_bench::artificial_suite(&mut rng, &cfg);
    suite.extend(fc_bench::real_suite(&mut rng, &cfg));
    let methods = table4_methods();

    for &m_scalar in &[40usize, 80] {
        let mut dist_table = Table::new(
            format!("Figure 2 (top): distortion at m = {m_scalar}k"),
            &method_columns("dataset", &methods),
        );
        let mut time_table = Table::new(
            format!("Figure 2 (bottom): build runtime (seconds) at m = {m_scalar}k"),
            &method_columns("dataset", &methods),
        );
        for (di, named) in suite.iter().enumerate() {
            let params = params_for(named, m_scalar, DEFAULT_KIND);
            let mut dist_cells = vec![named.name.clone()];
            let mut time_cells = vec![named.name.clone()];
            for (mi, method) in methods.iter().enumerate() {
                let compressor = method.build();
                let salt = 0xA000 + (di * 16 + mi) as u64 + m_scalar as u64 * 977;
                let ms = measure_static(&cfg, named, compressor.as_ref(), &params, salt);
                let ds = distortions(&ms);
                dist_cells.push(format!(
                    "{}{}",
                    fmt_mean_var(&ds),
                    failure_marker(mean(&ds))
                ));
                time_cells.push(fmt_mean_var(&build_times(&ms)));
            }
            dist_table.row(dist_cells);
            time_table.row(time_cells);
        }
        dist_table.print();
        time_table.print();
    }
}
