//! The benchmark suite of sampling strategies (Section 5.2).
//!
//! Ordered from fastest/cheapest guarantee to slowest/strongest:
//!
//! | method | candidate solution | seeding cost | guarantee |
//! |---|---|---|---|
//! | [`Uniform`] | none | `O(m)` (sublinear) | none |
//! | [`Lightweight`] | `{µ}` (j = 1) \[6\] | `O(nd)` | additive `ε·cost(P, {µ})` |
//! | [`Welterweight`] | j-means, `1 < j < k` | `O(ndj)` | interpolates |
//! | [`StandardSensitivity`] | k-means++ (j = k) \[47\] | `O(ndk)` | strong ε-coreset |
//! | [`crate::FastCoreset`] | Fast-kmeans++ | `Õ(nd)` | strong ε-coreset |

mod lightweight;
mod sensitivity_full;
mod uniform;
mod welterweight;

pub use lightweight::Lightweight;
pub use sensitivity_full::StandardSensitivity;
pub use uniform::Uniform;
pub use welterweight::{JCount, Welterweight};

/// The paper's default accelerated-method suite plus both strong-coreset
/// methods — everything Table 4 compares, behind one trait object list.
pub fn standard_suite() -> Vec<Box<dyn crate::Compressor>> {
    vec![
        Box::new(Uniform),
        Box::new(Lightweight),
        Box::new(Welterweight::new(JCount::LogK)),
        Box::new(crate::FastCoreset::default()),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn suite_has_the_four_table4_methods() {
        let suite = super::standard_suite();
        let names: Vec<&str> = suite.iter().map(|c| c.name()).collect();
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
