//! **Table 5**: streaming (merge-&-reduce) vs. static distortion for the
//! four-method suite on the artificial datasets plus MNIST and Adult.
//!
//! Paper setup: `m = 40k`, 5 runs. The surprising shape to reproduce: the
//! accelerated methods are *at least as good* under composition — streaming
//! does not degrade them.

use fc_bench::experiments::{
    distortions, failure_marker, measure_static, measure_streaming, DEFAULT_KIND,
};
use fc_bench::scenarios::{params_for, table4_methods};
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0x7AB5);
    let mut suite = fc_bench::artificial_suite(&mut rng, &cfg);
    suite.extend(fc_bench::scenarios::small_real_suite(&mut rng, &cfg));
    let methods = table4_methods();

    let mut table = Table::new(
        "Table 5: streaming vs static k-means distortion  [m = 40k]",
        &std::iter::once("dataset".to_owned())
            .chain(
                methods
                    .iter()
                    .flat_map(|m| [format!("{m} strm"), format!("{m} stat")]),
            )
            .collect::<Vec<_>>(),
    );
    for (di, named) in suite.iter().enumerate() {
        let params = params_for(named, 40, DEFAULT_KIND);
        let mut cells = vec![named.name.clone()];
        for (mi, method) in methods.iter().enumerate() {
            let compressor = method.build();
            let salt = 0x5000 + (di * 16 + mi) as u64;
            let strm = distortions(&measure_streaming(
                &cfg,
                named,
                compressor.as_ref(),
                &params,
                salt,
            ));
            let stat = distortions(&measure_static(
                &cfg,
                named,
                compressor.as_ref(),
                &params,
                salt,
            ));
            cells.push(format!(
                "{}{}",
                fmt_mean_var(&strm),
                failure_marker(mean(&strm))
            ));
            cells.push(format!(
                "{}{}",
                fmt_mean_var(&stat),
                failure_marker(mean(&stat))
            ));
        }
        table.row(cells);
    }
    table.print();
}
