//! Small statistical helpers shared across crates: means, variances, and the
//! summary statistics the experiment harness reports (the paper publishes
//! mean ± variance over five runs).

/// Mean of a slice; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of a slice; 0 for fewer than two values.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Standard deviation (square root of the population variance).
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Weighted mean of values `xs` with weights `ws`.
///
/// Panics if lengths differ; returns 0 for zero total weight.
pub fn weighted_mean(xs: &[f64], ws: &[f64]) -> f64 {
    assert_eq!(xs.len(), ws.len());
    let total: f64 = ws.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    xs.iter().zip(ws).map(|(&x, &w)| x * w).sum::<f64>() / total
}

/// Median of a slice (averaging the middle pair for even lengths);
/// 0 for empty input. Does not mutate the input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("median input must not contain NaN"));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(variance(&[5.0]), 0.0);
        // Var([1,2,3]) = 2/3 (population).
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_basics() {
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 1.0]), 2.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[3.0, 1.0]), 1.5);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
