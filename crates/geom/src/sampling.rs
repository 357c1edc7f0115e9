//! Weighted-sampling primitives.
//!
//! Importance sampling is the core operation of every coreset construction in
//! the paper: draw `m` indices i.i.d. proportional to a score vector. The
//! [`AliasTable`] gives O(n) preprocessing and O(1) per draw (Walker/Vose),
//! so sampling never dominates the `Õ(nd)` budget. [`PrefixSums`] supports
//! the quadtree sampler, which needs weight-proportional draws from a
//! contiguous index range *minus* a set of excluded subranges.

use rand::Rng;

/// Walker/Vose alias table for O(1) weighted index sampling.
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
    total: f64,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// Returns `None` when the input is empty or all weights are zero /
    /// non-finite (there is no distribution to sample from).
    pub fn new(weights: &[f64]) -> Option<Self> {
        let n = weights.len();
        if n == 0 {
            return None;
        }
        let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        // Scaled probabilities: mean 1.
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights
            .iter()
            .map(|&w| {
                if w.is_finite() && w > 0.0 {
                    w * scale
                } else {
                    0.0
                }
            })
            .collect();
        let mut alias = vec![0usize; n];
        let mut small = Vec::with_capacity(n);
        let mut large = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            // l gives away (1 - prob[s]) of its mass to s's bucket.
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers: everything remaining fills its own bucket.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        Some(Self { prob, alias, total })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Total input weight.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Draws one index with probability proportional to its weight.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let n = self.prob.len();
        let i = rng.gen_range(0..n);
        if rng.gen::<f64>() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

/// Prefix sums over a weight vector, supporting O(log n) weighted draws from
/// arbitrary contiguous index ranges and range-sum queries.
#[derive(Debug, Clone)]
pub struct PrefixSums {
    // prefix[i] = sum of weights[0..i]; prefix.len() == n + 1.
    prefix: Vec<f64>,
}

impl PrefixSums {
    /// Builds prefix sums; weights must be non-negative.
    pub fn new(weights: &[f64]) -> Self {
        let mut prefix = Vec::with_capacity(weights.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &w in weights {
            debug_assert!(w >= 0.0, "PrefixSums requires non-negative weights");
            acc += w;
            prefix.push(acc);
        }
        Self { prefix }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Whether there are no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of the half-open index range `lo..hi`.
    #[inline]
    pub fn range_sum(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi && hi < self.prefix.len());
        self.prefix[hi] - self.prefix[lo]
    }

    /// Total weight of all items.
    pub fn total(&self) -> f64 {
        *self
            .prefix
            .last()
            .expect("prefix sums always hold a leading zero")
    }

    /// Finds the index `i` in `lo..hi` such that the cumulative weight within
    /// the range first exceeds `target` (0 ≤ target < range_sum(lo, hi)).
    pub fn select_in_range(&self, lo: usize, hi: usize, target: f64) -> usize {
        debug_assert!(lo < hi && hi < self.prefix.len());
        let goal = self.prefix[lo] + target;
        // partition_point: first index where prefix[i + 1] > goal.
        let slice = &self.prefix[lo + 1..=hi];
        let offset = slice.partition_point(|&p| p <= goal);
        (lo + offset).min(hi - 1)
    }

    /// Weighted draw from `lo..hi`; `None` if the range carries no weight.
    pub fn sample_in_range<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        lo: usize,
        hi: usize,
    ) -> Option<usize> {
        let mass = self.range_sum(lo, hi);
        if mass <= 0.0 {
            return None;
        }
        let target = rng.gen::<f64>() * mass;
        Some(self.select_in_range(lo, hi, target))
    }

    /// Weighted draw from a range minus a set of *disjoint, sorted* excluded
    /// subranges. Returns `None` when the remaining mass is zero. This is the
    /// "exclusive region" draw the quadtree D^z sampler performs: subtree
    /// ranges of marked children are carved out of the parent's range.
    pub fn sample_excluding<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        lo: usize,
        hi: usize,
        excluded: &[(usize, usize)],
    ) -> Option<usize> {
        // Collect the allowed segments between exclusions.
        let mut segments: Vec<(usize, usize)> = Vec::with_capacity(excluded.len() + 1);
        let mut cursor = lo;
        for &(elo, ehi) in excluded {
            debug_assert!(
                elo >= cursor && ehi <= hi,
                "exclusions must be sorted and nested"
            );
            if elo > cursor {
                segments.push((cursor, elo));
            }
            cursor = ehi;
        }
        if cursor < hi {
            segments.push((cursor, hi));
        }
        let mass: f64 = segments.iter().map(|&(a, b)| self.range_sum(a, b)).sum();
        if mass <= 0.0 {
            return None;
        }
        let mut target = rng.gen::<f64>() * mass;
        for &(a, b) in &segments {
            let seg = self.range_sum(a, b);
            if target < seg {
                return Some(self.select_in_range(a, b, target));
            }
            target -= seg;
        }
        // Floating-point slack: fall back to the last non-empty segment.
        segments
            .iter()
            .rev()
            .find(|&&(a, b)| self.range_sum(a, b) > 0.0)
            .map(|&(a, b)| self.select_in_range(a, b, self.range_sum(a, b) * 0.5))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn alias_rejects_degenerate_input() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
    }

    #[test]
    fn alias_single_category() {
        let t = AliasTable::new(&[3.0]).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(t.sample(&mut r), 0);
        }
    }

    #[test]
    fn alias_matches_distribution() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let t = AliasTable::new(&weights).unwrap();
        assert_eq!(t.len(), 4);
        assert!((t.total_weight() - 10.0).abs() < 1e-12);
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            counts[t.sample(&mut r)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = weights[i] / 10.0 * n as f64;
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "category {i}: got {c}, expected {expected}");
        }
    }

    #[test]
    fn alias_zero_weight_categories_never_drawn() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0, 1.0]).unwrap();
        let mut r = rng();
        for _ in 0..5_000 {
            let s = t.sample(&mut r);
            assert!(s == 1 || s == 3);
        }
    }

    #[test]
    fn prefix_sums_ranges() {
        let p = PrefixSums::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.total(), 10.0);
        assert_eq!(p.range_sum(0, 4), 10.0);
        assert_eq!(p.range_sum(1, 3), 5.0);
        assert_eq!(p.range_sum(2, 2), 0.0);
    }

    #[test]
    fn prefix_select_hits_correct_bucket() {
        let p = PrefixSums::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.select_in_range(0, 4, 0.5), 0);
        assert_eq!(p.select_in_range(0, 4, 1.5), 1);
        assert_eq!(p.select_in_range(0, 4, 2.999), 1);
        assert_eq!(p.select_in_range(0, 4, 3.0), 2);
        assert_eq!(p.select_in_range(0, 4, 9.999), 3);
        // Range starting mid-way.
        assert_eq!(p.select_in_range(2, 4, 0.5), 2);
        assert_eq!(p.select_in_range(2, 4, 3.5), 3);
    }

    #[test]
    fn prefix_sample_in_empty_mass_range() {
        let p = PrefixSums::new(&[0.0, 0.0, 1.0]);
        let mut r = rng();
        assert!(p.sample_in_range(&mut r, 0, 2).is_none());
        assert_eq!(p.sample_in_range(&mut r, 0, 3), Some(2));
    }

    #[test]
    fn sample_excluding_avoids_excluded_ranges() {
        let weights = vec![1.0; 10];
        let p = PrefixSums::new(&weights);
        let mut r = rng();
        for _ in 0..2_000 {
            let s = p
                .sample_excluding(&mut r, 0, 10, &[(2, 4), (7, 9)])
                .unwrap();
            assert!(
                !(2..4).contains(&s) && !(7..9).contains(&s),
                "sampled excluded index {s}"
            );
        }
    }

    #[test]
    fn sample_excluding_none_when_fully_excluded() {
        let p = PrefixSums::new(&[1.0, 1.0]);
        let mut r = rng();
        assert!(p.sample_excluding(&mut r, 0, 2, &[(0, 2)]).is_none());
    }

    #[test]
    fn sample_excluding_distribution_is_proportional() {
        let weights = [5.0, 1.0, 100.0, 1.0, 3.0];
        let p = PrefixSums::new(&weights);
        let mut r = rng();
        let n = 100_000;
        let mut counts = [0usize; 5];
        for _ in 0..n {
            counts[p.sample_excluding(&mut r, 0, 5, &[(2, 3)]).unwrap()] += 1;
        }
        assert_eq!(counts[2], 0);
        let total = 5.0 + 1.0 + 1.0 + 3.0;
        for (i, &c) in counts.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let expected = weights[i] / total * n as f64;
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.08, "category {i}: got {c}, expected {expected}");
        }
    }
}
