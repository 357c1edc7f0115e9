//! Ablations (not paper tables). A compressor's only setting is its
//! `Method`, of which Welterweight's `j` is a part, so these vary that `j`
//! and the evaluation:
//!
//! 1. **Welterweight `j` sweep** — the interpolation from j = 1 to j = k.
//! 2. **Battery evaluation** — the judge's median and worst solve against
//!    its battery's worst ratio, on the taxi proxy.

use fc_bench::experiments::{distortions, measure_static, DEFAULT_KIND};
use fc_bench::scenarios::NamedData;
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_core::fast_coreset::FastCoreset;
use fc_core::methods::{JCount, Welterweight};
use fc_core::CompressionParams;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0xAB1A);
    let taxi = fc_bench::real_suite(&mut rng, &cfg)
        .into_iter()
        .find(|d| d.name == "taxi")
        .expect("suite has taxi");
    let n = ((50_000.0 * cfg.scale) as usize).max(2_000);

    // --- 1. Welterweight j sweep ------------------------------------------
    let mut gen_rng = cfg.rng(0xD800);
    let gm = NamedData {
        name: "gaussian gamma=4".into(),
        data: fc_data::gaussian_mixture(
            &mut gen_rng,
            fc_data::GaussianMixtureConfig {
                n,
                d: 50,
                kappa: cfg.k_small / 2,
                gamma: 4.0,
                ..Default::default()
            },
        ),
        k: cfg.k_small,
    };
    let params = CompressionParams {
        k: gm.k,
        m: 40 * gm.k,
        kind: DEFAULT_KIND,
    };
    let mut t4 = Table::new(
        "Ablation 1: welterweight j sweep on an imbalanced mixture (distortion)",
        &["j", "distortion"],
    );
    for j in [1usize, 2, 4, 8, 16, gm.k] {
        let ww = Welterweight::new(JCount::Fixed(j));
        let ds = distortions(&measure_static(&cfg, &gm, &ww, &params, 0xD900 + j as u64));
        t4.row(vec![j.to_string(), fmt_mean_var(&ds)]);
    }
    t4.print();

    // --- 2. Battery evaluation --------------------------------------------
    // Solves on the coreset can all be lucky; the judge's battery also
    // prices a full-data seeding and random centres.
    let mut t5 = Table::new(
        "Ablation 2: the judge's solves and battery on the taxi proxy",
        &["method", "median", "max", "battery max"],
    );
    let params = CompressionParams {
        k: taxi.k,
        m: 40 * taxi.k,
        kind: DEFAULT_KIND,
    };
    let battery_methods: Vec<(&str, Box<dyn fc_core::Compressor>)> = vec![
        ("uniform", Box::new(fc_core::methods::Uniform)),
        ("fast-coreset", Box::new(FastCoreset)),
    ];
    for (name, method) in &battery_methods {
        let mut rng = cfg.rng(0xDA00);
        let coreset = method.compress(&mut rng, &taxi.data, &params);
        let verdict = fc_core::judge(&mut rng, &taxi.data, &coreset, taxi.k, DEFAULT_KIND);
        t5.row(vec![
            name.to_string(),
            format!("{:.2}", verdict.median),
            format!("{:.2}", verdict.max),
            format!("{:.2}", verdict.battery_max),
        ]);
    }
    t5.print();
}
