//! **Table 7**: the welterweight interpolation (`j`) against the Gaussian
//! mixture's class-imbalance parameter γ.
//!
//! Paper setup: 50 000 points, 50 dimensions, κ = 50 Gaussian clusters,
//! `k = 100`, coresets of size 4000, γ ∈ {0, 1, 3, 5}, means over 5
//! generations. Shape to reproduce: every method is fine at small γ; as γ
//! grows only Fast-Coresets (and welterweight with large `j`) stay near 1.

use fc_bench::experiments::{distortions, measure_static, DEFAULT_KIND};
use fc_bench::scenarios::NamedData;
use fc_bench::{BenchConfig, Table};
use fc_core::methods::{JCount, Lightweight, Welterweight};
use fc_core::{CompressionParams, Compressor, FastCoreset};
use fc_data::synthetic::{gaussian_mixture, GaussianMixtureConfig};
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let n = ((50_000.0 * cfg.scale) as usize).max(2_000);
    let k = cfg.k_small;
    let kappa = (k / 2).max(4);
    let params = CompressionParams {
        k,
        m: 40 * k,
        kind: DEFAULT_KIND,
    };

    let methods: Vec<(&str, Box<dyn Compressor>)> = vec![
        ("LW coreset", Box::new(Lightweight)),
        ("j = 2", Box::new(Welterweight::new(JCount::Fixed(2)))),
        ("j = log k", Box::new(Welterweight::new(JCount::LogK))),
        ("j = sqrt k", Box::new(Welterweight::new(JCount::SqrtK))),
        ("fast coreset", Box::new(FastCoreset)),
    ];

    let gammas = [0.0f64, 1.0, 3.0, 5.0];
    let mut table = Table::new(
        format!(
            "Table 7: distortion vs gamma (gaussian mixture, kappa={kappa}, k={k}, m={})",
            params.m
        ),
        &["method", "gamma=0", "gamma=1", "gamma=3", "gamma=5"],
    );
    // Regenerate the dataset per run (the paper averages over 5 dataset
    // generations rather than 5 sampler runs).
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); methods.len()];
    for (gi, &gamma) in gammas.iter().enumerate() {
        for run in 0..cfg.runs {
            let mut rng = cfg.rng(0x7000 + gi as u64 * 64 + run as u64);
            let named = NamedData {
                name: format!("gaussian gamma={gamma}"),
                data: gaussian_mixture(
                    &mut rng,
                    GaussianMixtureConfig {
                        n,
                        d: 50,
                        kappa,
                        gamma,
                        ..Default::default()
                    },
                ),
                k,
            };
            for (mi, (_, method)) in methods.iter().enumerate() {
                let one_run_cfg = BenchConfig { runs: 1, ..cfg };
                let salt = 0x7100 + (gi * 64 + mi * 8 + run) as u64;
                let ds = distortions(&measure_static(
                    &one_run_cfg,
                    &named,
                    method.as_ref(),
                    &params,
                    salt,
                ));
                rows[mi].push(ds[0]);
            }
        }
    }
    let per_gamma = cfg.runs;
    for (mi, (name, _)) in methods.iter().enumerate() {
        let mut cells = vec![name.to_string()];
        for gi in 0..gammas.len() {
            let slice = &rows[mi][gi * per_gamma..(gi + 1) * per_gamma];
            cells.push(format!("{:.2}", mean(slice)));
        }
        table.row(cells);
    }
    table.print();
}
