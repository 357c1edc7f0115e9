//! **Table 6**: BICO's distortion in the static and streaming settings.
//!
//! Paper setup: static at `m ∈ {40k, 80k}`, streaming at `m = 40k`, five
//! runs. The shape to reproduce: BICO — a quantization summary, not an
//! importance sample — posts distortions well above the sensitivity-based
//! methods on most datasets (the paper bolds failures > 5, underlines
//! > 10).

use fc_bench::experiments::{failure_marker, DEFAULT_KIND};
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_core::streaming::bico::{Bico, BicoConfig};
use fc_core::streaming::stream::run_stream;
use fc_geom::stats::mean;

fn bico_distortions(
    cfg: &BenchConfig,
    named: &fc_bench::NamedData,
    m: usize,
    streaming: bool,
    salt: u64,
) -> Vec<f64> {
    (0..cfg.runs)
        .map(|run| {
            let mut rng = cfg.rng(salt + run as u64);
            let coreset = if streaming {
                let mut s = fc_core::streaming::bico::BicoStream::new(BicoConfig::with_target(m));
                run_stream(&mut s, &mut rng, &named.data, 10)
            } else {
                let mut b = Bico::new(named.data.dim(), BicoConfig::with_target(m));
                for (p, &w) in named.data.points().iter().zip(named.data.weights()) {
                    b.insert(p, w);
                }
                b.coreset()
            };
            fc_core::judge(&mut rng, &named.data, &coreset, named.k, DEFAULT_KIND).median
        })
        .collect()
}

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0x7AB6);
    let mut suite = fc_bench::artificial_suite(&mut rng, &cfg);
    suite.extend(fc_bench::real_suite(&mut rng, &cfg));

    let mut table = Table::new(
        "Table 6: BICO distortion  [static m=40k, m=80k; streaming m=40k]",
        &["dataset", "static m=40k", "static m=80k", "streaming m=40k"],
    );
    for (di, named) in suite.iter().enumerate() {
        let salt = 0x6000 + di as u64 * 64;
        let s40 = bico_distortions(&cfg, named, 40 * named.k, false, salt);
        let s80 = bico_distortions(&cfg, named, 80 * named.k, false, salt + 16);
        let strm = bico_distortions(&cfg, named, 40 * named.k, true, salt + 32);
        let fmt = |v: &Vec<f64>| format!("{}{}", fmt_mean_var(v), failure_marker(mean(v)));
        table.row(vec![named.name.clone(), fmt(&s40), fmt(&s80), fmt(&strm)]);
    }
    table.print();
}
