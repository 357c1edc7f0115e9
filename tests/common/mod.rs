//! What the claims files share: the method under test, its bound against
//! sensitivity sampling, the sampler spectrum and the seeded mixtures.

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The method whose claims these files check.
pub const FAST: Method = Method::FastCoreset;

/// How far above sensitivity sampling's distortion [`FAST`]'s may read,
/// fixed before any run.
pub const WITHIN_SENSITIVITY: f64 = 1.25;

/// The sampler spectrum of §5.2, fastest first.
pub const SAMPLERS: [Method; 5] = [
    Method::Uniform,
    Method::Lightweight,
    Method::Welterweight(JCount::LogK),
    Method::Sensitivity,
    FAST,
];

/// Asserts [`FAST`]'s `fast` is within [`WITHIN_SENSITIVITY`] of
/// sensitivity sampling's `sensitivity`.
pub fn assert_near(claim: &str, fast: f64, sensitivity: f64) {
    assert!(
        fast <= WITHIN_SENSITIVITY * sensitivity,
        "{claim}: {FAST} {fast:.3} vs sensitivity {sensitivity:.3}"
    );
}

/// `m = m_scalar · k`.
pub fn params(k: usize, m_scalar: usize, kind: CostKind) -> CompressionParams {
    CompressionParams::with_scalar(k, m_scalar, kind).unwrap()
}

pub fn mixture(rng: &mut StdRng, n: usize, d: usize, kappa: usize, gamma: f64) -> Dataset {
    let cfg = fc_data::GaussianMixtureConfig {
        n,
        d,
        kappa,
        gamma,
        ..Default::default()
    };
    fc_data::gaussian_mixture(rng, cfg)
}

pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
