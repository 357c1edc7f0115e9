//! The Table-1 construction: a dataset whose spread `Δ` grows with a knob
//! `r`, demonstrating the linear `log Δ` runtime dependence of
//! `Fast-kmeans++` before spread reduction.
//!
//! "`n − n′` points uniformly in the `[-1, 1]²` square; then, for `r ∈ Z⁺`,
//! a sequence of points at `(0, 1), (0, 0.5), …, (0, 0.5^r)`, copied `n′/r`
//! times, each time with a different x coordinate. The result is a dataset
//! of size `n` where `log Δ` grows linearly with `r`."

use fc_geom::{Dataset, Points};
use rand::Rng;

/// Builds the spread-stress dataset. `n_prime` points are spent on the
/// geometric sequences (`n_prime / r` copies of an `r`-point sequence).
pub fn spread_stress<R: Rng + ?Sized>(rng: &mut R, n: usize, n_prime: usize, r: usize) -> Dataset {
    assert!(r > 0, "r must be positive");
    assert!(n_prime <= n, "n_prime cannot exceed n");
    let copies = (n_prime / r).max(1);
    let mut flat = Vec::with_capacity(n * 2);
    // Background: uniform square.
    let background = n.saturating_sub(copies * r);
    for _ in 0..background {
        flat.push(rng.gen::<f64>() * 2.0 - 1.0);
        flat.push(rng.gen::<f64>() * 2.0 - 1.0);
    }
    // Geometric sequences at distinct x coordinates.
    for copy in 0..copies {
        let x = 2.0 + copy as f64 * 1e-3;
        let mut y = 1.0;
        for _ in 0..r {
            flat.push(x);
            flat.push(y);
            y *= 0.5;
        }
    }
    Dataset::unweighted(Points::from_flat(flat, 2).expect("rectangular by construction"))
}

/// Three clusters of `per_cluster` points, uniform in unit boxes whose
/// corners sit `gap` apart along the axes of the plane. From `gap ≈ 1e16` a
/// whole box is narrower than `2^-50` of the diameter: the input a 50-level
/// quadtree cannot resolve, where `spread_stress` only loses the tails of
/// its sequences.
pub fn far_unit_clusters<R: Rng + ?Sized>(rng: &mut R, per_cluster: usize, gap: f64) -> Dataset {
    let mut flat = Vec::with_capacity(per_cluster * 6);
    for (cx, cy) in [(0.0, 0.0), (gap, 0.0), (0.0, gap)] {
        for _ in 0..per_cluster {
            flat.push(cx + rng.gen::<f64>());
            flat.push(cy + rng.gen::<f64>());
        }
    }
    Dataset::unweighted(Points::from_flat(flat, 2).expect("rectangular by construction"))
}

/// `log₂` of the dataset's spread — grows linearly in `r` (the knob of
/// Table 1). `O(n²)`; diagnostics/tests only.
pub fn log2_spread(points: &Points) -> f64 {
    fc_geom::bbox::exact_spread(points)
        .map(f64::log2)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn size_is_n() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = spread_stress(&mut rng, 2_000, 400, 20);
        assert_eq!(d.len(), 2_000);
        assert_eq!(d.dim(), 2);
    }

    #[test]
    fn log_spread_grows_linearly_with_r() {
        let mut rng = StdRng::seed_from_u64(3);
        // Use small n so the exact O(n²) spread stays cheap.
        let s10 = log2_spread(spread_stress(&mut rng, 400, 100, 10).points());
        let s20 = log2_spread(spread_stress(&mut rng, 400, 100, 20).points());
        let s40 = log2_spread(spread_stress(&mut rng, 400, 120, 40).points());
        assert!(s20 > s10 + 5.0, "s10 {s10}, s20 {s20}");
        assert!(s40 > s20 + 10.0, "s20 {s20}, s40 {s40}");
        // Approximately linear: slope ~1 bit per unit of r.
        let slope = (s40 - s20) / 20.0;
        assert!((0.5..2.0).contains(&slope), "slope {slope}");
    }
}
