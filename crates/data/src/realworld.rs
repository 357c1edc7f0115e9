//! Synthetic proxies for the paper's real-world datasets (Table 3).
//!
//! The offline environment has no access to UCI/MNIST/Porto-taxi data, so
//! each dataset is replaced by a generator reproducing the *structural property the paper attributes to
//! it*: where uniform sampling fails (Star's tiny bright cluster, Taxi's
//! power-law cluster sizes and GPS glitches), where everything is benign
//! (Adult, MNIST, Census), and where geometry is heavy-tailed (Song).
//! Absolute distortion values differ from the paper's; the qualitative
//! outcome (which method fails where) is what `tests/failure_modes.rs` pins.

use fc_geom::{Dataset, Points};
use rand::Rng;
use rand_distr::{Distribution, StandardNormal};

use crate::noise::{add_uniform_noise, DEFAULT_NOISE};
use crate::synthetic::{gaussian_mixture, GaussianMixtureConfig};

/// Which real-world dataset a proxy stands in for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RealWorldKind {
    /// Adult (48842 × 14): benign mixed-type census extract.
    Adult,
    /// MNIST (60000 × 784): balanced high-dimensional digit images.
    Mnist,
    /// Star (138500 × 3): image pixels — almost all black, a tiny bright
    /// cluster (uniform sampling fails).
    Star,
    /// Song (515345 × 90): heavy-tailed audio features.
    Song,
    /// Cover Type (581012 × 54): moderately imbalanced forest classes.
    CoverType,
    /// Taxi (754539 × 2): Porto pickup locations — power-law cluster sizes
    /// plus GPS glitch outliers (uniform sampling fails catastrophically).
    Taxi,
    /// Census (2458285 × 68): large and benign.
    Census,
}

/// Metadata + generator for one proxy dataset.
#[derive(Debug, Clone, Copy)]
pub struct RealWorldSpec {
    /// Which dataset this stands in for.
    pub kind: RealWorldKind,
    /// Display name (matches the paper's tables).
    pub name: &'static str,
    /// The paper's row count (scaled by `scale` at generation).
    pub n: usize,
    /// The paper's dimensionality.
    pub d: usize,
    /// The paper's default `k` for this dataset (Section 5.2: 100 for the
    /// small four, 500 for Song/CoverType/Taxi/Census).
    pub default_k: usize,
}

/// The seven proxies, in the paper's Table-3 order.
pub fn realworld_suite() -> Vec<RealWorldSpec> {
    use RealWorldKind::*;
    vec![
        RealWorldSpec {
            kind: Adult,
            name: "adult",
            n: 48_842,
            d: 14,
            default_k: 100,
        },
        RealWorldSpec {
            kind: Mnist,
            name: "mnist",
            n: 60_000,
            d: 784,
            default_k: 100,
        },
        RealWorldSpec {
            kind: Star,
            name: "star",
            n: 138_500,
            d: 3,
            default_k: 100,
        },
        RealWorldSpec {
            kind: Song,
            name: "song",
            n: 515_345,
            d: 90,
            default_k: 500,
        },
        RealWorldSpec {
            kind: CoverType,
            name: "cover-type",
            n: 581_012,
            d: 54,
            default_k: 500,
        },
        RealWorldSpec {
            kind: Taxi,
            name: "taxi",
            n: 754_539,
            d: 2,
            default_k: 500,
        },
        RealWorldSpec {
            kind: Census,
            name: "census",
            n: 2_458_285,
            d: 68,
            default_k: 500,
        },
    ]
}

impl RealWorldSpec {
    /// Generates the proxy at `scale · n` points (`scale = 1` reproduces the
    /// paper's row count; benches default to smaller scales).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R, scale: f64) -> Dataset {
        let n = ((self.n as f64 * scale).round() as usize).max(64);
        match self.kind {
            RealWorldKind::Adult => adult_like(rng, n, self.d),
            RealWorldKind::Mnist => mnist_like(rng, n, self.d),
            RealWorldKind::Star => star_like(rng, n),
            RealWorldKind::Song => song_like(rng, n, self.d),
            RealWorldKind::CoverType => covtype_like(rng, n, self.d),
            RealWorldKind::Taxi => taxi_like(rng, n),
            RealWorldKind::Census => census_like(rng, n, self.d),
        }
    }
}

/// Adult proxy: a handful of balanced, moderately separated clusters with
/// per-axis quantization mimicking categorical columns. Benign for every
/// sampler.
pub fn adult_like<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Dataset {
    let cfg = GaussianMixtureConfig {
        n,
        d,
        kappa: 8,
        gamma: 0.5,
        center_box: 20.0,
        std: 2.0,
    };
    let mut data = gaussian_mixture(rng, cfg).into_parts().0;
    // Half the axes behave like small-cardinality categorical codes.
    for row_idx in 0..data.len() {
        let row = data.row_mut(row_idx);
        for x in row.iter_mut().skip(d / 2) {
            *x = x.round();
        }
    }
    let mut points = data;
    add_uniform_noise(rng, &mut points, DEFAULT_NOISE);
    Dataset::unweighted(points)
}

/// MNIST proxy: 10 balanced clusters whose centers are sparse
/// high-dimensional patterns (images share inactive background pixels).
pub fn mnist_like<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Dataset {
    let classes = 10;
    let mut centers = vec![vec![0.0f64; d]; classes];
    for center in &mut centers {
        for x in center.iter_mut() {
            if rng.gen::<f64>() < 0.12 {
                let g: f64 = StandardNormal.sample(rng);
                *x = 120.0 + 40.0 * g; // active "pixel"
            }
        }
    }
    let mut flat = Vec::with_capacity(n * d);
    for i in 0..n {
        let center = &centers[i % classes];
        for &c in center {
            let g: f64 = StandardNormal.sample(rng);
            flat.push((c + 12.0 * g).max(0.0));
        }
    }
    let mut points = Points::from_flat(flat, d).expect("rectangular by construction");
    add_uniform_noise(rng, &mut points, DEFAULT_NOISE);
    Dataset::unweighted(points)
}

/// Star proxy: 3-D pixel values of a night-sky image — ~99% near-black
/// pixels, a thin band of faint noise, and a tiny bright "shooting star"
/// cluster that a uniform sample of moderate size will under-represent.
pub fn star_like<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Dataset {
    let d = 3;
    let bright = (n / 400).max(8); // ~0.25% of pixels
    let faint = n / 50; // 2% dim haze
    let dark = n - bright - faint;
    let mut flat = Vec::with_capacity(n * d);
    for _ in 0..dark {
        for _ in 0..d {
            flat.push(rng.gen::<f64>() * 3.0); // near-black
        }
    }
    for _ in 0..faint {
        for _ in 0..d {
            flat.push(20.0 + rng.gen::<f64>() * 10.0);
        }
    }
    for _ in 0..bright {
        for _ in 0..d {
            let g: f64 = StandardNormal.sample(rng);
            flat.push(240.0 + 4.0 * g);
        }
    }
    let mut points = Points::from_flat(flat, d).expect("rectangular by construction");
    add_uniform_noise(rng, &mut points, DEFAULT_NOISE);
    Dataset::unweighted(points)
}

/// Song proxy: heavy-tailed anisotropic audio features — per-axis scales
/// decay like a power law, plus mild cluster structure.
pub fn song_like<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Dataset {
    let scales: Vec<f64> = (0..d).map(|j| 200.0 / (j as f64 + 1.0).powf(0.8)).collect();
    let clusters = 30;
    let centers: Vec<Vec<f64>> = (0..clusters)
        .map(|_| {
            scales
                .iter()
                .map(|&s| {
                    let g: f64 = StandardNormal.sample(rng);
                    s * g
                })
                .collect()
        })
        .collect();
    let mut flat = Vec::with_capacity(n * d);
    for _ in 0..n {
        let c = &centers[rng.gen_range(0..clusters)];
        for (j, &cj) in c.iter().enumerate() {
            let g: f64 = StandardNormal.sample(rng);
            flat.push(cj + 0.3 * scales[j] * g);
        }
    }
    let mut points = Points::from_flat(flat, d).expect("rectangular by construction");
    add_uniform_noise(rng, &mut points, DEFAULT_NOISE);
    Dataset::unweighted(points)
}

/// Cover Type proxy: 7 moderately imbalanced classes.
pub fn covtype_like<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Dataset {
    let cfg = GaussianMixtureConfig {
        n,
        d,
        kappa: 7,
        gamma: 1.5,
        center_box: 60.0,
        std: 4.0,
    };
    gaussian_mixture(rng, cfg)
}

/// Taxi proxy: 2-D pickup coordinates — power-law cluster sizes spanning
/// several decades (city center vs. suburban stands) plus a sprinkle of GPS
/// glitches hundreds of kilometres away. The glitches carry enormous
/// k-means cost, so a sampler that misses them (uniform does, with high
/// probability) distorts catastrophically — the paper reports ~614× against
/// sensitivity sampling on the real Taxi data.
pub fn taxi_like<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Dataset {
    let d = 2;
    let clusters = 160.min(n / 20).max(2);
    let glitches = (n / 2_000).max(4);
    let mut flat = Vec::with_capacity(n * d);
    // Zipf-ish sizes: cluster i gets mass ∝ 1/(i+1)^1.1.
    let weights: Vec<f64> = (0..clusters)
        .map(|i| 1.0 / (i as f64 + 1.0).powf(1.1))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let body = n - glitches;
    let mut produced = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let mut size = ((w / total_w) * body as f64).round() as usize;
        if i + 1 == clusters {
            size = body - produced;
        }
        let size = size.min(body - produced);
        let cx = rng.gen::<f64>() * 50.0;
        let cy = rng.gen::<f64>() * 50.0;
        let std = 0.02 + rng.gen::<f64>() * 0.4;
        for _ in 0..size {
            let gx: f64 = StandardNormal.sample(rng);
            let gy: f64 = StandardNormal.sample(rng);
            flat.push(cx + std * gx);
            flat.push(cy + std * gy);
        }
        produced += size;
        if produced >= body {
            break;
        }
    }
    for _ in 0..(n - produced) {
        // GPS glitches: far-away singletons.
        flat.push(5_000.0 + rng.gen::<f64>() * 1_000.0);
        flat.push(5_000.0 + rng.gen::<f64>() * 1_000.0);
    }
    let mut points = Points::from_flat(flat, d).expect("rectangular by construction");
    add_uniform_noise(rng, &mut points, DEFAULT_NOISE);
    Dataset::unweighted(points)
}

/// Census proxy: many balanced clusters; benign at the paper's `k = 500`.
pub fn census_like<R: Rng + ?Sized>(rng: &mut R, n: usize, d: usize) -> Dataset {
    let cfg = GaussianMixtureConfig {
        n,
        d,
        kappa: 40,
        gamma: 0.3,
        center_box: 40.0,
        std: 3.0,
    };
    gaussian_mixture(rng, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(51)
    }

    #[test]
    fn suite_matches_table3() {
        let suite = realworld_suite();
        assert_eq!(suite.len(), 7);
        let adult = &suite[0];
        assert_eq!(adult.n, 48_842);
        assert_eq!(adult.d, 14);
        let census = &suite[6];
        assert_eq!(census.n, 2_458_285);
        assert_eq!(census.d, 68);
        assert_eq!(census.default_k, 500);
    }

    #[test]
    fn generate_scales_row_counts() {
        let spec = realworld_suite()[0];
        let d = spec.generate(&mut rng(), 0.01);
        assert_eq!(d.dim(), 14);
        let expected = (48_842.0 * 0.01f64).round() as usize;
        assert_eq!(d.len(), expected);
    }

    #[test]
    fn star_has_tiny_bright_cluster() {
        let d = star_like(&mut rng(), 20_000);
        let bright = d.points().iter().filter(|p| p[0] > 200.0).count();
        let frac = bright as f64 / d.len() as f64;
        assert!(frac > 0.0005 && frac < 0.01, "bright fraction {frac}");
    }

    #[test]
    fn taxi_has_far_glitches_and_powerlaw_body() {
        let d = taxi_like(&mut rng(), 30_000);
        assert_eq!(d.len(), 30_000);
        let glitches = d.points().iter().filter(|p| p[0] > 1_000.0).count();
        assert!(glitches >= 4, "no GPS glitches generated");
        assert!((glitches as f64) < d.len() as f64 * 0.01);
    }

    #[test]
    fn mnist_is_high_dimensional_and_nonnegative() {
        let d = mnist_like(&mut rng(), 500, 784);
        assert_eq!(d.dim(), 784);
        assert!(d.points().as_flat().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn song_axes_have_decaying_scale() {
        let d = song_like(&mut rng(), 4_000, 30);
        let spread_of_axis = |j: usize| -> f64 {
            let vals: Vec<f64> = d.points().iter().map(|p| p[j]).collect();
            fc_geom::stats::std_dev(&vals)
        };
        assert!(spread_of_axis(0) > 3.0 * spread_of_axis(29));
    }

    #[test]
    fn all_proxies_generate_without_panic() {
        for spec in realworld_suite() {
            let d = spec.generate(&mut rng(), 0.002);
            assert!(!d.is_empty(), "{} empty", spec.name);
            assert_eq!(d.dim(), spec.d, "{} dim", spec.name);
            assert!(d.points().as_flat().iter().all(|x| x.is_finite()));
        }
    }
}
