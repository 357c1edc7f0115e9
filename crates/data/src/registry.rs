//! Name-based dataset registry: every instance of the evaluation reachable
//! by string identifier, for CLI-style tooling and configuration-driven
//! experiment runners.

use fc_geom::Dataset;
use rand::Rng;

use crate::realworld::realworld_suite;
use crate::synthetic::{benchmark, c_outlier, gaussian_mixture, geometric, GaussianMixtureConfig};

/// Parameters shared by the registry generators.
#[derive(Debug, Clone, Copy)]
pub struct RegistryParams {
    /// Target point count for the artificial instances (defaults to the
    /// paper's 50 000) and scale factor for the real proxies.
    pub n: usize,
    /// Cluster-count hint (`k`) used by generators whose shape depends on
    /// it (geometric, benchmark).
    pub k: usize,
    /// Scale for the real-world proxies (fraction of the paper's rows).
    pub scale: f64,
    /// Gaussian-mixture imbalance parameter.
    pub gamma: f64,
}

impl Default for RegistryParams {
    fn default() -> Self {
        Self {
            n: 50_000,
            k: 100,
            scale: 0.1,
            gamma: 1.0,
        }
    }
}

/// The four artificial instances of §5.2, in the paper's order.
pub const ARTIFICIAL: [&str; 4] = ["c-outlier", "geometric", "gaussian", "benchmark"];

/// Names of every dataset the registry can produce.
pub fn available() -> Vec<&'static str> {
    let mut names = ARTIFICIAL.to_vec();
    names.extend(realworld_suite().into_iter().map(|s| s.name));
    names
}

/// Generates the named dataset, or `None` for an unknown name.
pub fn generate<R: Rng + ?Sized>(
    rng: &mut R,
    name: &str,
    params: &RegistryParams,
) -> Option<Dataset> {
    let d = 50;
    match name {
        "c-outlier" => Some(c_outlier(rng, params.n, d, 16, 1e5)),
        "geometric" => Some(geometric(
            rng,
            (params.n / (2 * params.k)).max(2),
            params.k,
            2.0,
            d,
        )),
        "gaussian" => Some(gaussian_mixture(
            rng,
            GaussianMixtureConfig {
                n: params.n,
                d,
                kappa: (params.k / 2).max(2),
                gamma: params.gamma,
                ..Default::default()
            },
        )),
        "benchmark" => Some(benchmark(
            rng,
            params.k.max(3),
            (params.n / params.k).max(4),
            100.0,
        )),
        other => realworld_suite()
            .into_iter()
            .find(|s| s.name == other)
            .map(|s| s.generate(rng, params.scale)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_advertised_name_generates() {
        let params = RegistryParams {
            n: 2_000,
            k: 20,
            scale: 0.005,
            gamma: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        for name in available() {
            let d =
                generate(&mut rng, name, &params).unwrap_or_else(|| panic!("{name} not generated"));
            assert!(!d.is_empty(), "{name} empty");
        }
    }

    #[test]
    fn unknown_name_returns_none() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(generate(&mut rng, "no-such-dataset", &RegistryParams::default()).is_none());
    }

    #[test]
    fn registry_has_eleven_instances() {
        assert_eq!(available().len(), 11); // 4 artificial + 7 proxies
    }
}
