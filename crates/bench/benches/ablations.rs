//! Ablations over this implementation's design choices (not paper tables,
//! but the knobs the paper's analysis motivates):
//!
//! 1. **Weight mode** — plain inverse-probability weights vs. the
//!    rebalanced weights of Algorithm 1 lines 7–8.
//! 2. **Johnson–Lindenstrauss** — on vs. off for a high-dimensional proxy.
//! 3. **Spread reduction** — Crude-Approx + Reduce-Spread allowed vs.
//!    forbidden on the spread-stress dataset (the Section 4 claim, runtime
//!    side), with whether the truncation gate let them run.
//! 4. **Welterweight `j` sweep** — the interpolation from j = 1 to j = k.

use fc_bench::experiments::{
    build_times, distortions, measure_build_only, measure_static, DEFAULT_KIND,
};
use fc_bench::scenarios::NamedData;
use fc_bench::{fmt_mean_var, BenchConfig, Table};
use fc_core::fast_coreset::{FastCoreset, FastCoresetConfig};
use fc_core::methods::{JCount, Welterweight};
use fc_core::sampling::WeightMode;
use fc_core::CompressionParams;
use fc_geom::stats::mean;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rng = cfg.rng(0xAB1A);

    // --- 1. Weight mode -----------------------------------------------
    let suite = fc_bench::artificial_suite(&mut rng, &cfg);
    let gaussian = suite
        .iter()
        .find(|d| d.name == "gaussian")
        .expect("suite has gaussian");
    let taxi = fc_bench::real_suite(&mut rng, &cfg)
        .into_iter()
        .find(|d| d.name == "taxi")
        .expect("suite has taxi");
    let mut t1 = Table::new(
        "Ablation 1: Fast-Coreset weight mode (distortion)",
        &["dataset", "unbiased", "rebalanced (eps=0.1)"],
    );
    for named in [gaussian, &taxi] {
        let params = CompressionParams {
            k: named.k,
            m: 40 * named.k,
            kind: DEFAULT_KIND,
        };
        let unbiased = FastCoreset::with_config(FastCoresetConfig {
            weight_mode: WeightMode::Unbiased,
            ..Default::default()
        });
        let rebalanced = FastCoreset::with_config(FastCoresetConfig {
            weight_mode: WeightMode::Rebalanced { epsilon: 0.1 },
            ..Default::default()
        });
        let du = distortions(&measure_static(&cfg, named, &unbiased, &params, 0xD100));
        let dr = distortions(&measure_static(&cfg, named, &rebalanced, &params, 0xD200));
        t1.row(vec![
            named.name.clone(),
            fmt_mean_var(&du),
            fmt_mean_var(&dr),
        ]);
    }
    t1.print();

    // --- 2. JL on/off ----------------------------------------------------
    let mnist = fc_bench::real_suite(&mut rng, &cfg)
        .into_iter()
        .find(|d| d.name == "mnist")
        .expect("suite has mnist");
    let params = CompressionParams {
        k: mnist.k,
        m: 40 * mnist.k,
        kind: DEFAULT_KIND,
    };
    let with_jl = FastCoreset::with_config(FastCoresetConfig {
        use_jl: true,
        ..Default::default()
    });
    let no_jl = FastCoreset::with_config(FastCoresetConfig {
        use_jl: false,
        ..Default::default()
    });
    let m_jl = measure_static(&cfg, &mnist, &with_jl, &params, 0xD300);
    let m_raw = measure_static(&cfg, &mnist, &no_jl, &params, 0xD400);
    let mut t2 = Table::new(
        "Ablation 2: Johnson-Lindenstrauss on the 784-dim MNIST proxy",
        &["configuration", "distortion", "build seconds"],
    );
    t2.row(vec![
        "JL to O(log k) dims".into(),
        fmt_mean_var(&distortions(&m_jl)),
        fmt_mean_var(&build_times(&m_jl)),
    ]);
    t2.row(vec![
        "no projection".into(),
        fmt_mean_var(&distortions(&m_raw)),
        fmt_mean_var(&build_times(&m_raw)),
    ]);
    t2.print();

    // --- 3. Spread reduction ----------------------------------------------
    let n = ((50_000.0 * cfg.scale) as usize).max(2_000);
    let mut t3 = Table::new(
        "Ablation 3: spread reduction on the spread-stress set (build seconds)",
        &["r", "forbidden", "allowed", "step 2", "speedup"],
    );
    // Allowed is not always: step 2 runs where the 50-level tree truncates
    // (from r ≈ 50 on), and the two columns are one path where it does not.
    for &r in &[30usize, 50, 80] {
        let mut gen_rng = cfg.rng(0xD500 + r as u64);
        let named = NamedData {
            name: format!("spread r={r}"),
            data: fc_data::spread_stress::spread_stress(&mut gen_rng, n, n / 5, r),
            k: cfg.k_small,
        };
        let params = CompressionParams {
            k: named.k,
            m: 40 * named.k,
            kind: DEFAULT_KIND,
        };
        let without = FastCoreset::with_config(FastCoresetConfig {
            use_jl: false,
            reduce_spread: false,
            ..Default::default()
        });
        let with = FastCoreset::with_config(FastCoresetConfig {
            use_jl: false,
            reduce_spread: true,
            ..Default::default()
        });
        let truncated = fc_quadtree::Quadtree::build(
            &mut gen_rng,
            named.data.points(),
            fc_quadtree::QuadtreeConfig::default(),
        )
        .truncated();
        let tw = measure_build_only(&cfg, &named, &without, &params, 0xD600 + r as u64);
        let tr = measure_build_only(&cfg, &named, &with, &params, 0xD700 + r as u64);
        t3.row(vec![
            r.to_string(),
            fmt_mean_var(&tw),
            fmt_mean_var(&tr),
            if truncated { "ran" } else { "skipped" }.into(),
            format!("{:.2}x", mean(&tw) / mean(&tr).max(1e-12)),
        ]);
    }
    t3.print();

    // --- 4. Welterweight j sweep ------------------------------------------
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
        "Ablation 4: welterweight j sweep on an imbalanced mixture (distortion)",
        &["j", "distortion"],
    );
    for j in [1usize, 2, 4, 8, 16, gm.k] {
        let ww = Welterweight::new(JCount::Fixed(j));
        let ds = distortions(&measure_static(&cfg, &gm, &ww, &params, 0xD900 + j as u64));
        t4.row(vec![j.to_string(), fmt_mean_var(&ds)]);
    }
    t4.print();

    // --- 5. Battery evaluation --------------------------------------------
    // The single-solution distortion metric can be lucky; the battery prices
    // many independent solutions and reports the worst ratio.
    let mut t5 = Table::new(
        "Ablation 5: battery (worst-of-many-solutions) distortion on the taxi proxy",
        &["method", "single-solution", "battery max", "battery mean"],
    );
    let params = CompressionParams {
        k: taxi.k,
        m: 40 * taxi.k,
        kind: DEFAULT_KIND,
    };
    let battery_methods: Vec<(&str, Box<dyn fc_core::Compressor>)> = vec![
        ("uniform", Box::new(fc_core::methods::Uniform)),
        ("fast-coreset", Box::new(FastCoreset::default())),
    ];
    for (name, method) in &battery_methods {
        let mut rng = cfg.rng(0xDA00);
        let coreset = method.compress(&mut rng, &taxi.data, &params);
        let single = fc_core::distortion(
            &mut rng,
            &taxi.data,
            &coreset,
            taxi.k,
            DEFAULT_KIND,
            fc_bench::experiments::eval_lloyd(),
        )
        .distortion;
        let battery =
            fc_core::battery_distortion(&mut rng, &taxi.data, &coreset, taxi.k, DEFAULT_KIND, 2);
        t5.row(vec![
            name.to_string(),
            format!("{single:.2}"),
            format!("{:.2}", battery.max_ratio),
            format!("{:.2}", battery.mean_ratio),
        ]);
    }
    t5.print();
}
