//! Shared experiment scenarios: the paper's dataset suites at bench scale,
//! plus the standard method line-ups.

use fc_clustering::CostKind;
use fc_core::methods::{JCount, Lightweight, Uniform, Welterweight};
use fc_core::{CompressionParams, Compressor, FastCoreset, StandardSensitivity};
use fc_data::realworld::realworld_suite;
use fc_data::registry::{self, RegistryParams, ARTIFICIAL};
use fc_geom::Dataset;
use rand::Rng;

use crate::harness::BenchConfig;

/// A dataset plus the parameters the paper evaluates it with.
pub struct NamedData {
    /// Display name matching the paper's tables.
    pub name: String,
    /// The generated dataset.
    pub data: Dataset,
    /// The paper's `k` for this dataset (scaled by the bench config).
    pub k: usize,
}

/// The four artificial datasets of §5.2 at bench scale. The paper uses
/// `n = 50 000` with `k = 100`; scaling preserves that `n/k = 500` ratio
/// (so `m = 40k` keeps the paper's 8% sampling rate) rather than following
/// `REPRO_SCALE`, which only drives the real-world proxies.
pub fn artificial_suite<R: Rng + ?Sized>(rng: &mut R, cfg: &BenchConfig) -> Vec<NamedData> {
    let params = RegistryParams {
        n: (500 * cfg.k_small).max(1_000),
        k: cfg.k_small,
        scale: cfg.scale,
        gamma: 1.0,
    };
    ARTIFICIAL
        .into_iter()
        .map(|name| NamedData {
            name: name.into(),
            data: registry::generate(rng, name, &params).expect("a registered instance"),
            k: cfg.k_small,
        })
        .collect()
}

/// The seven real-world proxies at bench scale with the paper's per-dataset
/// `k` policy (small: Adult/MNIST/Star + artificial; big: the rest).
pub fn real_suite<R: Rng + ?Sized>(rng: &mut R, cfg: &BenchConfig) -> Vec<NamedData> {
    realworld_suite()
        .into_iter()
        .map(|spec| {
            let k = if spec.default_k >= 500 {
                cfg.k_big
            } else {
                cfg.k_small
            };
            NamedData {
                name: spec.name.to_string(),
                data: spec.generate(rng, cfg.scale),
                k,
            }
        })
        .collect()
}

/// The subset of real proxies that fit a quick run (used by the streaming
/// table, which the paper also restricts to six datasets).
pub fn small_real_suite<R: Rng + ?Sized>(rng: &mut R, cfg: &BenchConfig) -> Vec<NamedData> {
    real_suite(rng, cfg)
        .into_iter()
        .filter(|d| d.name == "mnist" || d.name == "adult")
        .collect()
}

/// The four accelerated-vs-strong methods of Table 4, in column order.
pub fn table4_methods() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(Uniform),
        Box::new(Lightweight),
        Box::new(Welterweight::new(JCount::LogK)),
        Box::new(FastCoreset::default()),
    ]
}

/// Standard sensitivity sampling (the Table 2 / Figure 1 baseline).
pub fn sensitivity_baseline() -> StandardSensitivity {
    StandardSensitivity::default()
}

/// Compression parameters for a dataset at a given m-scalar. Scenario
/// tables are authored with valid `k`/`m_scalar`, so derivation failures
/// are programmer errors here.
pub fn params_for(named: &NamedData, m_scalar: usize, kind: CostKind) -> CompressionParams {
    CompressionParams::with_scalar(named.k, m_scalar, kind)
        .expect("scenario tables use valid k and m_scalar")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn suites_generate_at_tiny_scale() {
        let cfg = BenchConfig {
            scale: 0.01,
            runs: 1,
            ..Default::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let art = artificial_suite(&mut rng, &cfg);
        assert_eq!(art.len(), 4);
        for d in &art {
            assert!(!d.data.is_empty(), "{} empty", d.name);
        }
        let real = real_suite(&mut rng, &cfg);
        assert_eq!(real.len(), 7);
        let names: Vec<&str> = real.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "adult",
                "mnist",
                "star",
                "song",
                "cover-type",
                "taxi",
                "census"
            ]
        );
    }

    #[test]
    fn methods_have_stable_names() {
        let names: Vec<String> = table4_methods()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        assert_eq!(
            names,
            vec![
                "uniform",
                "lightweight",
                "welterweight(log k)",
                "fast-coreset"
            ]
        );
    }
}
