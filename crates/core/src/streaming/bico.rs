//! BICO \[38\]: BIRCH meets coresets for k-means.
//!
//! BICO maintains a hierarchy of clustering features. Every feature has a
//! *reference point*; level-`i` features only absorb points within radius
//! `R_i = R₁ / 2^{i-1}` of their reference, and only while their
//! quantization error (cost about the reference) stays below a global
//! threshold `T`. A point that would overflow a feature descends to the
//! feature's children at the next level. When the summary exceeds its space
//! budget, `T` doubles and the summary is rebuilt by re-inserting the
//! features' centroids.
//!
//! The output — feature centroids weighted by absorbed mass — is *not* an
//! importance sample: small far-away structures are quantized away, which is
//! exactly why Table 6 shows BICO's distortion consistently above the
//! sensitivity-based methods. Runs in a true single pass (this
//! implementation is also usable statically by streaming the whole dataset).

use crate::Coreset;
use fc_geom::{Dataset, Points};
use rand::RngCore;
use rustc_hash::FxHashMap;

use super::cf::ClusteringFeature;
use super::stream::StreamingCompressor;

/// 128-bit grid-cell fingerprint (same mixing as `fc_quadtree::grid`, kept
/// local so the streaming crate stays independent of the tree crate).
type CellKey = (u64, u64);

fn cell_key(point: &[f64], side: f64) -> CellKey {
    #[inline]
    fn mix(mut h: u64, v: u64) -> u64 {
        h ^= v
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }
    let mut a = 0x9E37_79B9_7F4A_7C15u64;
    let mut b = 0xC2B2_AE3D_27D4_EB4Fu64;
    for &x in point {
        let c = (x / side).floor() as i64 as u64;
        a = mix(a, c);
        b = mix(b ^ 0x5851_F42D_4C95_7F2D, c);
    }
    (a, b)
}

/// Tuning parameters for BICO.
#[derive(Debug, Clone, Copy)]
pub struct BicoConfig {
    /// Space budget: maximum number of clustering features kept.
    pub target_size: usize,
    /// Maximum hierarchy depth before a feature absorbs unconditionally.
    pub max_level: usize,
}

impl BicoConfig {
    /// Budget-only constructor with the default depth cap.
    pub fn with_target(target_size: usize) -> Self {
        Self {
            target_size,
            max_level: 32,
        }
    }
}

#[derive(Debug, Clone)]
struct BicoNode {
    cf: ClusteringFeature,
    reference: Vec<f64>,
    children: Vec<usize>,
}

/// The BICO summary structure.
pub struct Bico {
    config: BicoConfig,
    dim: usize,
    nodes: Vec<BicoNode>,
    roots: Vec<usize>,
    /// Grid index over root references (cell side `2·R₁`): level-1 lookups
    /// scan one bucket instead of every root. Same-cell-only search can
    /// miss a reference just across a boundary, which merely opens an extra
    /// feature — quality-neutral, and it turns the level-1 scan from
    /// `O(#roots)` into `O(bucket)`.
    root_index: FxHashMap<CellKey, Vec<usize>>,
    /// Global quantization threshold `T`; 0 while buffering the first batch.
    threshold: f64,
    /// Points buffered before the first threshold estimate.
    buffer: Vec<(Vec<f64>, f64)>,
    rebuilds: usize,
}

impl Bico {
    /// Creates an empty BICO summary for `dim`-dimensional points.
    pub fn new(dim: usize, config: BicoConfig) -> Self {
        assert!(config.target_size >= 2, "BICO needs a budget of at least 2");
        assert!(dim > 0);
        Self {
            config,
            dim,
            nodes: Vec::new(),
            roots: Vec::new(),
            root_index: FxHashMap::default(),
            threshold: 0.0,
            buffer: Vec::new(),
            rebuilds: 0,
        }
    }

    /// Cell side of the root grid index.
    fn index_side(&self) -> f64 {
        2.0 * self.threshold.sqrt()
    }

    /// Number of clustering features currently held.
    pub fn feature_count(&self) -> usize {
        self.nodes.len()
    }

    /// How many times the threshold doubled.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Current threshold `T`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    fn radius(&self, level: usize) -> f64 {
        // R₁ = √T; halves per level.
        self.threshold.sqrt() / f64::powi(2.0, level as i32 - 1)
    }

    /// Inserts a weighted point.
    pub fn insert(&mut self, p: &[f64], w: f64) {
        assert_eq!(p.len(), self.dim);
        if w <= 0.0 {
            return;
        }
        if self.threshold == 0.0 {
            self.buffer.push((p.to_vec(), w));
            if self.buffer.len() > self.config.target_size {
                self.bootstrap_threshold();
            }
            return;
        }
        self.insert_into_tree(p, w);
        if self.nodes.len() > self.config.target_size {
            self.rebuild();
        }
    }

    /// First threshold estimate. Deliberately a gross *under*-estimate
    /// (the buffered 1-means cost divided by the budget *squared*): starting
    /// fine-grained costs only O(log) rebuild-doublings to converge upward,
    /// whereas starting coarse would quantize away structure at the 1-means
    /// scale and can never recover (thresholds only grow).
    fn bootstrap_threshold(&mut self) {
        let mut cf = ClusteringFeature::empty(self.dim);
        for (p, w) in &self.buffer {
            cf.insert(p, *w);
        }
        let spread = cf.internal_cost();
        let m = self.config.target_size as f64;
        self.threshold = (spread / (m * m)).max(f64::MIN_POSITIVE * 1e100);
        let buffered = std::mem::take(&mut self.buffer);
        for (p, w) in buffered {
            self.insert_into_tree(&p, w);
            if self.nodes.len() > self.config.target_size {
                self.rebuild();
            }
        }
    }

    fn insert_into_tree(&mut self, p: &[f64], w: f64) {
        let mut level = 1usize;
        let mut parent: Option<usize> = None; // None = the root set
        loop {
            // Nearest feature (by reference point) within the level radius.
            let radius_sq = {
                let r = self.radius(level);
                r * r
            };
            let best = {
                let empty: Vec<usize> = Vec::new();
                let candidates: &Vec<usize> = match parent {
                    // Level 1: one grid bucket instead of every root.
                    None => self
                        .root_index
                        .get(&cell_key(p, self.index_side()))
                        .unwrap_or(&empty),
                    Some(pid) => &self.nodes[pid].children,
                };
                let mut best: Option<(usize, f64)> = None;
                for &id in candidates {
                    let d = fc_geom::distance::sq_dist(p, &self.nodes[id].reference);
                    if d <= radius_sq && best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((id, d));
                    }
                }
                best
            };
            match best {
                None => {
                    // Open a new feature here.
                    let id = self.nodes.len();
                    self.nodes.push(BicoNode {
                        cf: ClusteringFeature::from_point(p, w),
                        reference: p.to_vec(),
                        children: Vec::new(),
                    });
                    match parent {
                        None => {
                            self.roots.push(id);
                            self.root_index
                                .entry(cell_key(p, self.index_side()))
                                .or_default()
                                .push(id);
                        }
                        Some(pid) => self.nodes[pid].children.push(id),
                    }
                    return;
                }
                Some((id, _)) => {
                    let fits = {
                        let node = &self.nodes[id];
                        node.cf.cost_about_after_insert(&node.reference, p, w) <= self.threshold
                    };
                    if fits || level >= self.config.max_level {
                        self.nodes[id].cf.insert(p, w);
                        return;
                    }
                    // Overflow: descend into the children.
                    parent = Some(id);
                    level += 1;
                }
            }
        }
    }

    /// Doubles `T` and re-inserts all feature centroids.
    fn rebuild(&mut self) {
        self.threshold *= 2.0;
        self.rebuilds += 1;
        let old = std::mem::take(&mut self.nodes);
        self.roots.clear();
        self.root_index.clear();
        for node in &old {
            if node.cf.weight > 0.0 {
                let c = node.cf.centroid();
                self.insert_into_tree(&c, node.cf.weight);
            }
        }
    }

    /// Extracts the summary: feature centroids weighted by absorbed mass.
    pub fn coreset(&self) -> Coreset {
        if self.threshold == 0.0 {
            // Still buffering: the buffer is an exact summary.
            let mut pts = Points::empty(self.dim);
            let mut ws = Vec::new();
            for (p, w) in &self.buffer {
                pts.push(p).expect("buffered points share the dimension");
                ws.push(*w);
            }
            if pts.is_empty() {
                pts.push(&vec![0.0; self.dim])
                    .expect("dimension is positive");
                ws.push(0.0);
            }
            return Coreset::new(Dataset::weighted(pts, ws).expect("weights are non-negative"));
        }
        let mut pts = Points::empty(self.dim);
        let mut ws = Vec::new();
        for node in &self.nodes {
            if node.cf.weight > 0.0 {
                pts.push(&node.cf.centroid())
                    .expect("centroid has the dimension");
                ws.push(node.cf.weight);
            }
        }
        Coreset::new(Dataset::weighted(pts, ws).expect("weights are non-negative"))
    }
}

/// Static [`crate::Compressor`] adapter: streams the dataset through a
/// fresh BICO summary sized to `params.m`. Lets BICO participate in the
/// shared method suites (Tables 4–6) and in MapReduce aggregation. The
/// features sum `w·|p|²`; `Method::Bico` keeps that sum finite by
/// building this adapter behind [`crate::plan::Method::build`]'s rescale.
#[derive(Debug, Clone, Copy, Default)]
pub struct BicoCompressor;

impl crate::Compressor for BicoCompressor {
    fn compress(
        &self,
        _rng: &mut dyn RngCore,
        data: &Dataset,
        params: &crate::CompressionParams,
    ) -> Coreset {
        let mut bico = Bico::new(data.dim(), BicoConfig::with_target(params.m));
        for (p, &w) in data.points().iter().zip(data.weights()) {
            bico.insert(p, w);
        }
        bico.coreset()
    }
}

/// [`StreamingCompressor`] adapter (BICO is inherently streaming): Table
/// 6's bench and the streaming example run it. It is not served — a
/// served or planned `bico` stream is merge-&-reduce over
/// [`BicoCompressor`] — and it does not rescale, so coordinates whose
/// squares overflow (about 1e154) collapse its features.
pub struct BicoStream {
    inner: Option<Bico>,
    config: BicoConfig,
}

impl BicoStream {
    /// Creates the adapter; the summary is initialized on the first block.
    pub fn new(config: BicoConfig) -> Self {
        Self {
            inner: None,
            config,
        }
    }
}

impl StreamingCompressor for BicoStream {
    fn insert_block(&mut self, _rng: &mut dyn RngCore, block: &Dataset) {
        let bico = self
            .inner
            .get_or_insert_with(|| Bico::new(block.dim(), self.config));
        for (p, &w) in block.points().iter().zip(block.weights()) {
            bico.insert(p, w);
        }
    }

    fn finalize(&mut self, _rng: &mut dyn RngCore) -> Coreset {
        self.inner
            .as_ref()
            .expect("finalize called before any block")
            .coreset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_clustering::CostKind;

    fn blobs(n_per: usize) -> Dataset {
        let mut flat = Vec::new();
        for b in 0..5 {
            for i in 0..n_per {
                flat.push(b as f64 * 100.0 + (i % 10) as f64 * 0.01);
                flat.push((i / 10) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    fn feed(bico: &mut Bico, d: &Dataset) {
        for (p, &w) in d.points().iter().zip(d.weights()) {
            bico.insert(p, w);
        }
    }

    #[test]
    fn summary_respects_budget() {
        let d = blobs(500);
        let mut bico = Bico::new(2, BicoConfig::with_target(50));
        feed(&mut bico, &d);
        assert!(
            bico.feature_count() <= 50,
            "{} features",
            bico.feature_count()
        );
        let c = bico.coreset();
        assert!(c.len() <= 50);
    }

    #[test]
    fn total_weight_is_exactly_preserved() {
        let d = blobs(300);
        let mut bico = Bico::new(2, BicoConfig::with_target(40));
        feed(&mut bico, &d);
        let c = bico.coreset();
        assert!((c.total_weight() - d.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn centroids_sit_on_the_blobs() {
        let d = blobs(400);
        let mut bico = Bico::new(2, BicoConfig::with_target(25));
        feed(&mut bico, &d);
        let c = bico.coreset();
        // Every summary point must be near a blob center (x ≈ 100b).
        for p in c.dataset().points().iter() {
            let nearest_blob = (p[0] / 100.0).round() * 100.0;
            assert!(
                (p[0] - nearest_blob).abs() < 5.0,
                "summary point {p:?} far from any blob"
            );
        }
    }

    #[test]
    fn small_input_is_kept_exactly() {
        let d = blobs(5); // 25 points, budget 50: stays in the buffer
        let mut bico = Bico::new(2, BicoConfig::with_target(50));
        feed(&mut bico, &d);
        let c = bico.coreset();
        assert_eq!(c.len(), 25);
        assert!((c.total_weight() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn rebuilds_double_threshold() {
        let d = blobs(400);
        let mut bico = Bico::new(2, BicoConfig::with_target(10));
        feed(&mut bico, &d);
        assert!(bico.rebuilds() > 0, "tight budget must trigger rebuilds");
        assert!(bico.threshold() > 0.0);
    }

    #[test]
    fn summary_supports_clustering() {
        let d = blobs(400);
        let mut bico = Bico::new(2, BicoConfig::with_target(60));
        feed(&mut bico, &d);
        let c = bico.coreset();
        let centers = fc_geom::Points::from_flat(
            vec![
                0.05, 0.2, 100.05, 0.2, 200.05, 0.2, 300.05, 0.2, 400.05, 0.2,
            ],
            2,
        )
        .unwrap();
        let full = fc_clustering::cost::cost(&d, &centers, CostKind::KMeans);
        let summary = c.cost(&centers, CostKind::KMeans);
        // BICO is not an importance sample: allow generous slack, but the
        // right order of magnitude must hold for a "nice" solution.
        let ratio = if full > 0.0 {
            (summary / full).max(full / summary.max(1e-12))
        } else {
            1.0
        };
        assert!(
            ratio < 10.0,
            "ratio {ratio} (full {full}, summary {summary})"
        );
    }

    #[test]
    fn zero_weight_points_are_ignored() {
        let mut bico = Bico::new(2, BicoConfig::with_target(10));
        bico.insert(&[1.0, 1.0], 0.0);
        assert_eq!(bico.coreset().total_weight(), 0.0);
    }
}
