//! **Figure 4**: coreset distortions under the **k-median** objective
//! (`z = 1`), one sampled run per cell at `m ∈ {40k, 60k, 80k}` — the paper
//! shows a single run of five "to emphasize the random nature of
//! compression quality".
//!
//! Shape to reproduce: the k-median distortions track the k-means ones —
//! the same methods fail on the same datasets.

use fc_bench::experiments::{distortions, failure_marker, measure_static};
use fc_bench::scenarios::{method_columns, params_for, table4_methods};
use fc_bench::{BenchConfig, Table};
use fc_clustering::CostKind;

fn main() {
    let cfg = BenchConfig::from_env();
    let single_run = BenchConfig { runs: 1, ..cfg };
    let mut rng = cfg.rng(0xF164);
    let mut suite = fc_bench::artificial_suite(&mut rng, &cfg);
    suite.extend(fc_bench::real_suite(&mut rng, &cfg));
    let methods = table4_methods();

    for &m_scalar in &[40usize, 60, 80] {
        let mut table = Table::new(
            format!("Figure 4: k-median distortion (single run), m = {m_scalar}k"),
            &method_columns("dataset", &methods),
        );
        for (di, named) in suite.iter().enumerate() {
            let params = params_for(named, m_scalar, CostKind::KMedian);
            let mut cells = vec![named.name.clone()];
            for (mi, method) in methods.iter().enumerate() {
                let compressor = method.build();
                let salt = 0xB000 + (di * 16 + mi) as u64 + m_scalar as u64 * 709;
                let ds = distortions(&measure_static(
                    &single_run,
                    named,
                    compressor.as_ref(),
                    &params,
                    salt,
                ));
                cells.push(format!("{:.2}{}", ds[0], failure_marker(ds[0])));
            }
            table.row(cells);
        }
        table.print();
    }
}
