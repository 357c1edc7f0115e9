//! **Table 4**: distortion means ± variances for the four-method suite
//! (uniform / lightweight / welterweight / Fast-Coreset) across all
//! datasets and sample sizes `m ∈ {40k, 80k}` — the paper's headline
//! accuracy grid for k-means.
//!
//! Shape to reproduce: the accelerated methods match Fast-Coresets on
//! benign data but fail (bold, > 5) or fail catastrophically (underlined,
//! > 10) on c-outlier / geometric / Gaussian-mixture / Star / Taxi, while
//! >     Fast-Coresets never exceed ~1.5.

use fc_bench::experiments::{distortions, failure_marker, measure_static, DEFAULT_KIND};
use fc_bench::scenarios::{method_columns, params_for, table4_methods};
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0x7AB4);
    let mut suite = fc_bench::artificial_suite(&mut rng, &cfg);
    suite.extend(fc_bench::real_suite(&mut rng, &cfg));
    let methods = table4_methods();

    for &m_scalar in &[40usize, 80] {
        let mut table = Table::new(
            format!("Table 4: k-means distortion, m = {m_scalar}k"),
            &method_columns("dataset", &methods),
        );
        for (di, named) in suite.iter().enumerate() {
            let params = params_for(named, m_scalar, DEFAULT_KIND);
            let mut cells = vec![named.name.clone()];
            for (mi, method) in methods.iter().enumerate() {
                let compressor = method.build();
                let salt = 0x4000 + (di * 16 + mi) as u64 + m_scalar as u64 * 131;
                let ds = distortions(&measure_static(
                    &cfg,
                    named,
                    compressor.as_ref(),
                    &params,
                    salt,
                ));
                cells.push(format!(
                    "{}{}",
                    fmt_mean_var(&ds),
                    failure_marker(mean(&ds))
                ));
            }
            table.row(cells);
        }
        table.print();
    }
}
