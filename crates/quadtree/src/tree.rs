//! Compressed quadtree over a randomly shifted dyadic grid.
//!
//! The embedding of Section 2.4: enclose the input in a hypercube of side
//! `2Δ`, shift the grid origin uniformly at random in `[0, Δ)^d`, and split
//! cells dyadically. The tree is *compressed*: chains of levels where a
//! cell's points do not separate produce no nodes, so the tree has at most
//! `2n − 1` nodes regardless of depth. Construction reorders an index
//! permutation so each node owns a contiguous range, which lets the
//! Fast-kmeans++ sampler answer subtree-mass queries with prefix sums.
//!
//! Cost model: a node visit reads its rows' cells in a window of sixteen
//! levels, one `u16` per coordinate, four to a `u64` word. Grid sides are
//! exact powers of two of each other, so every coarser cell is a bit prefix
//! of a finer one; below a cell that all of a node's rows share, the next
//! sixteen levels of each coordinate are sixteen bits. The first window
//! quantises every row at level `min(16, depth)` (`n·d` divisions). A node
//! whose rows still share a cell at the end of its window re-quantises only
//! its own rows at the next window, from the same coordinates, and carries
//! on; windows refine only rows that still share a cell, so data that
//! separates within sixteen levels is quantised once. A node's *differing
//! bits* (the OR of each row's cells XOR its first row's, over every
//! dimension) name the level at which its points separate, however long
//! the compression chain above it. They arrive with the node: the
//! quantising pass gathers the root's, and each node gathers its children's
//! in the same read of a row that files the row under its child. So a node
//! visit is one pass over `2·d` bytes a row, `⌈d/4⌉` word operations where
//! a full-depth cell would take `d`, and nothing is re-gridded per level.
//!
//! The finest level has `2^-max_depth` of the root side. Rows that still
//! share a cell there stay in one leaf; when two of them are *different*
//! rows the tree is [`truncated`](Quadtree::truncated) — it ran out of bits
//! before it ran out of geometry, which is the one case spread reduction
//! (Section 4) has something to add. Exact duplicates are not truncation:
//! no resolution separates them, and they become a leaf at the first window
//! that cannot tell them apart, with no further quantising.

use fc_geom::jl::JlProjection;
use fc_geom::points::Points;
use fc_geom::BoundingBox;
use rand::Rng;

use crate::grid::{first_window, fold_lanes, next_window, RowInterner, LANES, WINDOW};

/// Deepest level a tree can have: cell coordinates are 63-bit integers, and
/// an `f64` coordinate carries no information below `2^-62` of the root
/// side anyway.
const MAX_LEVELS: u32 = 62;

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct QuadtreeConfig {
    /// Hard cap on the (uncompressed) depth; cells at this level become
    /// leaves even if they hold several distinct points, and the tree then
    /// reports itself [`truncated`](Quadtree::truncated). The default (50)
    /// resolves relative scales down to `2^-50`. Values above 62 act as 62.
    pub max_depth: u32,
}

impl Default for QuadtreeConfig {
    fn default() -> Self {
        Self { max_depth: 50 }
    }
}

/// A node of the compressed quadtree.
#[derive(Debug, Clone)]
pub struct Node {
    /// The (uncompressed) level at which this node's points stop sharing a
    /// cell: its children are cells at `level + 1`. The node's distance
    /// scale (cell side) is `root_side / 2^level`.
    pub level: u32,
    /// Start of the node's range in the tree's index permutation.
    pub start: u32,
    /// One past the end of the node's range.
    pub end: u32,
    /// Parent node id (`u32::MAX` for the root).
    pub parent: u32,
    /// First child node id (children are contiguous); meaningless if
    /// `n_children == 0`.
    pub first_child: u32,
    /// Number of children (0 for leaves).
    pub n_children: u32,
}

impl Node {
    /// Whether this node is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.n_children == 0
    }

    /// Number of points in the subtree.
    #[inline]
    pub fn size(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Child node ids.
    #[inline]
    pub fn children(&self) -> std::ops::Range<u32> {
        self.first_child..self.first_child + self.n_children
    }
}

/// Compressed quadtree. Node 0 is the root; every node's subtree owns the
/// permutation range `[start, end)`.
#[derive(Debug, Clone)]
pub struct Quadtree {
    nodes: Vec<Node>,
    /// `perm[pos]` = original point index stored at tree position `pos`.
    perm: Vec<u32>,
    dim: usize,
    root_side: f64,
    /// Grid origin (bounding-box min corner minus the random shift).
    origin: Vec<f64>,
    max_depth: u32,
    truncated: bool,
}

/// The randomly shifted grid a build quantises against.
struct Grid {
    root_side: f64,
    /// Grid origin (bounding-box min corner minus the random shift).
    origin: Vec<f64>,
    /// The finest level any node can reach.
    depth: u32,
    max_depth: u32,
    /// Every point is the same point.
    coincide: bool,
}

impl Grid {
    /// Encloses `bbox` in a cube of side `2Δ`, `Δ` its longest side, and
    /// draws the shift: one uniform per dimension.
    fn enclosing<R: Rng + ?Sized>(rng: &mut R, bbox: &BoundingBox, config: QuadtreeConfig) -> Self {
        // A shift in [0, Δ) keeps all points inside the root cell.
        let delta = bbox.longest_side().max(f64::MIN_POSITIVE);
        let root_side = 2.0 * delta;
        let origin = bbox
            .min()
            .iter()
            .map(|&lo| lo - rng.gen::<f64>() * delta)
            .collect();
        // The finest level any node can reach: the depth cap, or where the
        // cell side stops being a normal float (points that still share a
        // cell there coincide numerically).
        let max_depth = config.max_depth.min(MAX_LEVELS);
        let depth = (0..=max_depth)
            .rev()
            .find(|&level| (root_side / f64::powi(2.0, level as i32)).is_normal())
            .unwrap_or(0);
        Self {
            root_side,
            origin,
            depth,
            max_depth,
            coincide: bbox.longest_side() == 0.0,
        }
    }

    /// Cell side at `level`: sides halve exactly.
    fn side(&self, level: u32) -> f64 {
        self.root_side / f64::powi(2.0, level as i32)
    }

    /// The first window: the level it ends at, `min(16, depth)`, every
    /// row's cells there (see [`first_window`]) and the root's differing
    /// bits. The cap keeps a point that rounds onto the root cell's far
    /// face inside the root cell.
    fn first_window(&self, coords: &[f64]) -> (u32, Vec<u64>, u16) {
        let top = self.depth.min(WINDOW);
        if self.coincide {
            // Every point is the same point, so they share a cell at every
            // level and the root comes out a leaf. Saying so directly skips
            // a pass that, with Δ clamped to the smallest normal float,
            // would run on subnormals.
            let words = self.origin.len().div_ceil(LANES);
            return (top, vec![0; coords.len() / self.origin.len() * words], 0);
        }
        let cap = ((1u32 << top) - 1) as u16;
        let (cells, any) = first_window(coords, &self.origin, self.side(top), cap);
        (top, cells, any)
    }

    /// The pitch, cap and width of the window after the one ending at
    /// `top`, and the level it ends at.
    fn next_window(&self, top: u32) -> (u32, (f64, i64, u32)) {
        let next = (top + WINDOW).min(self.depth);
        (next, (self.side(next), (1i64 << next) - 1, next - top))
    }
}

/// Bit `bit` of each cell of up to sixteen words of cells, packed into one
/// key word: word `g`'s four bits land at positions `g`, `16 + g`, `32 + g`
/// and `48 + g`, so distinct bit patterns give distinct keys.
#[inline]
fn child_key(words: &[u64], bit: u32) -> i64 {
    const LOW_BITS: u64 = 0x0001_0001_0001_0001;
    let key = words
        .iter()
        .enumerate()
        .fold(0, |key, (g, &w)| key | (w >> bit & LOW_BITS) << g);
    key as i64
}

/// A node waiting on the build's stack, with its differing bits in the
/// window that ends at level `top`.
struct Pending {
    node: u32,
    any: u16,
    top: u32,
}

impl Quadtree {
    /// Builds a compressed quadtree over `points` with a uniformly random
    /// grid shift: `O(n·d)` to quantise the points at the first window,
    /// then one `O(size·d)` pass per node — however many levels its
    /// compression chain skips — for `O(n)` nodes, plus one more per window
    /// for the rows of a node that a window leaves in one cell.
    ///
    /// Panics on an empty point set.
    pub fn build<R: Rng + ?Sized>(rng: &mut R, points: &Points, config: QuadtreeConfig) -> Self {
        assert!(!points.is_empty(), "cannot build a quadtree over no points");
        let bbox = BoundingBox::of(points).expect("non-empty checked above");
        let grid = Grid::enclosing(rng, &bbox, config);
        Self::grow(grid, points.as_flat())
    }

    /// The tree [`build`](Self::build) makes over `projection.project(points)`
    /// under the same RNG, node for node: the projection is written once,
    /// with its bounding box gathered as it is written, and the build reads
    /// it in place, so [`truncated`](Self::truncated) keeps its meaning in
    /// the projected space.
    ///
    /// Panics on an empty point set or one whose dimension is not the
    /// projection's source dimension.
    pub fn build_projected<R: Rng + ?Sized>(
        rng: &mut R,
        points: &Points,
        projection: &JlProjection,
        config: QuadtreeConfig,
    ) -> Self {
        assert!(!points.is_empty(), "cannot build a quadtree over no points");
        let (working, bbox) = projection
            .project_bounded(points)
            .expect("points have the projection's source dimension");
        let bbox = bbox.expect("non-empty checked above");
        let grid = Grid::enclosing(rng, &bbox, config);
        Self::grow(grid, working.as_flat())
    }

    /// The node loop both builds share, over row-major `coords` with
    /// `grid.origin.len()` columns.
    fn grow(grid: Grid, coords: &[f64]) -> Self {
        let dim = grid.origin.len();
        let n = coords.len() / dim;
        let (top, mut cells, any) = grid.first_window(coords);
        let point = |idx: u32| &coords[idx as usize * dim..][..dim];
        // Whether the given rows are not all the same point.
        let differ = |rows: &[u32]| rows[1..].iter().any(|&i| point(i) != point(rows[0]));
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut nodes = vec![Node {
            level: 0,
            start: 0,
            end: n as u32,
            parent: u32::MAX,
            first_child: 0,
            n_children: 0,
        }];

        // Iterative construction. Every node on the stack has at least two
        // rows and arrives with its differing bits. Scratch buffers are
        // reused.
        let mut stack: Vec<Pending> = Vec::new();
        if n > 1 {
            stack.push(Pending { node: 0, any, top });
        }
        let words = dim.div_ceil(LANES);
        let mut key: Vec<i64> = vec![0; words.div_ceil(16)];
        let mut children = RowInterner::default();
        let mut child_of: Vec<u32> = Vec::new();
        let mut cursors: Vec<u32> = Vec::new();
        // Per child, in first-appearance order: its first row, and the OR
        // of its rows' cell words XOR that row's so far.
        let mut child_first: Vec<u32> = Vec::new();
        let mut child_any: Vec<u64> = Vec::new();
        let mut members: Vec<u32> = Vec::new();
        let mut truncated = false;
        while let Some(Pending {
            node: node_id,
            mut any,
            mut top,
        }) = stack.pop()
        {
            let (start, end) = {
                let node = &nodes[node_id as usize];
                (node.start as usize, node.end as usize)
            };
            // Rows that share a cell at the end of their window: exact
            // duplicates share every cell, so they are a leaf already;
            // other rows are quantised again at the next window.
            let mut distinct = None;
            while any == 0 && top < grid.depth {
                if !*distinct.get_or_insert_with(|| differ(&perm[start..end])) {
                    break;
                }
                let (next, window) = grid.next_window(top);
                any = next_window(coords, &grid.origin, &perm[start..end], &mut cells, window);
                top = next;
            }
            if any == 0 {
                // Duplicates, or the depth cap: a leaf at the finest level.
                // Which of the two is one more pass over the leaf's rows
                // (unless the window loop already made it), stopped by the
                // first truncated leaf.
                nodes[node_id as usize].level = grid.depth;
                truncated = truncated || distinct.unwrap_or_else(|| differ(&perm[start..end]));
                continue;
            }
            // The node's points share a cell down to its level, i.e. agree
            // on every high bit of the window; the highest bit on which any
            // coordinate disagrees names the level at which they separate,
            // however long the compression chain down to it.
            let bit = any.ilog2();
            let level = top - bit - 1;
            nodes[node_id as usize].level = level;

            // Children are the occupied cells one level down. Above `bit`
            // all points agree, so a child is named by bit `bit` of every
            // dimension, 64 dimensions to a key word (`child_key`): the
            // dimensions that do not split are constant across the node, so
            // the children and their order are those of the dimensions that
            // do. The same read of a row ORs its XOR against its child's
            // first row into that child's differing bits, so no child reads
            // its rows again to find where they separate.
            children.reset(key.len(), end - start);
            child_of.clear();
            cursors.clear();
            child_first.clear();
            child_any.clear();
            let row = |idx: u32| &cells[idx as usize * words..][..words];
            for &idx in &perm[start..end] {
                let row_cells = row(idx);
                // Up to 64 dimensions the key is one word, interned without
                // the column loops.
                let child = if let [_] = key[..] {
                    children.intern_word(child_key(row_cells, bit)) as usize
                } else {
                    for (word, group) in key.iter_mut().zip(row_cells.chunks(16)) {
                        *word = child_key(group, bit);
                    }
                    children.intern(&key) as usize
                };
                if child == cursors.len() {
                    cursors.push(0);
                    child_first.push(idx);
                    child_any.push(0);
                }
                cursors[child] += 1;
                child_of.push(child as u32);
                let first = row(child_first[child]);
                child_any[child] = row_cells
                    .iter()
                    .zip(first)
                    .fold(child_any[child], |acc, (&w, &w0)| acc | (w ^ w0));
            }

            // Children in first-appearance order, each owning a contiguous
            // range: a stable counting scatter of the permutation range, so
            // a child's first row stays first. Children of one row are
            // leaves already and never reach the stack.
            let first_child = nodes.len() as u32;
            let n_children = cursors.len() as u32;
            let mut cursor = start as u32;
            for (child, at) in cursors.iter_mut().enumerate() {
                let size = *at;
                if size > 1 {
                    stack.push(Pending {
                        node: first_child + child as u32,
                        any: fold_lanes(child_any[child]),
                        top,
                    });
                }
                nodes.push(Node {
                    level: level + 1,
                    start: cursor,
                    end: cursor + size,
                    parent: node_id,
                    first_child: 0,
                    n_children: 0,
                });
                *at = cursor;
                cursor += size;
            }
            debug_assert_eq!(cursor as usize, end);
            members.clear();
            members.extend_from_slice(&perm[start..end]);
            for (&idx, &child) in members.iter().zip(&child_of) {
                let at = &mut cursors[child as usize];
                perm[*at as usize] = idx;
                *at += 1;
            }
            let node = &mut nodes[node_id as usize];
            node.first_child = first_child;
            node.n_children = n_children;
        }

        let Grid {
            root_side,
            origin,
            max_depth,
            ..
        } = grid;
        Self {
            nodes,
            perm,
            dim,
            root_side,
            origin,
            max_depth,
            truncated,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the tree is empty (never true: construction requires points).
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Side length of the root cell (`2Δ`).
    pub fn root_side(&self) -> f64 {
        self.root_side
    }

    /// The depth cap the tree was built with (at most 62).
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Whether some leaf at the finest level holds two different input rows:
    /// the depth cap, not the data, ended the tree there, and every point of
    /// such a leaf is at tree distance zero from the others. A leaf of exact
    /// duplicates does not count.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The grid origin (bounding-box corner minus the random shift) —
    /// cell boundaries sit at `origin + k·side` per dimension.
    pub fn origin(&self) -> &[f64] {
        &self.origin
    }

    /// Borrow a node.
    #[inline]
    pub fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    /// All nodes (root first).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Original point index stored at tree position `pos`.
    #[inline]
    pub fn point_at(&self, pos: usize) -> usize {
        self.perm[pos] as usize
    }

    /// The permutation (tree position → original index).
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Cell side at a node: `root_side / 2^level`.
    #[inline]
    pub fn side_of(&self, id: u32) -> f64 {
        self.root_side / f64::powi(2.0, self.node(id).level as i32)
    }

    /// Tree-metric distance scale of a node: the diameter bound
    /// `2·√d·side(v)` for two points whose lowest common ancestor is `v`
    /// (geometric sum of edge weights below `v`, both sides).
    #[inline]
    pub fn tree_scale(&self, id: u32) -> f64 {
        2.0 * (self.dim as f64).sqrt() * self.side_of(id)
    }

    /// Root-to-leaf path of node ids whose ranges contain the tree position
    /// `pos`. `O(depth · log(max_degree))`.
    pub fn path_to_position(&self, pos: usize) -> Vec<u32> {
        let pos = pos as u32;
        let mut path = vec![0u32];
        let mut current = 0u32;
        loop {
            let node = self.node(current);
            if node.is_leaf() {
                return path;
            }
            // Children are contiguous and their ranges are sorted: binary
            // search for the child whose [start, end) contains pos.
            let lo = node.first_child as usize;
            let hi = lo + node.n_children as usize;
            let children = &self.nodes[lo..hi];
            let idx = children.partition_point(|c| c.end <= pos);
            debug_assert!(idx < children.len(), "position must fall in some child");
            current = (lo + idx) as u32;
            path.push(current);
        }
    }

    /// Leaf node containing the tree position.
    pub fn leaf_of_position(&self, pos: usize) -> u32 {
        *self
            .path_to_position(pos)
            .last()
            .expect("path always contains the root")
    }

    /// Checks structural invariants (test helper): ranges partition parents,
    /// levels strictly increase, permutation is a bijection.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.perm.len() as u32;
        if self.nodes[0].start != 0 || self.nodes[0].end != n {
            return Err("root range must cover all points".into());
        }
        let mut seen = vec![false; n as usize];
        for &p in &self.perm {
            if seen[p as usize] {
                return Err(format!("duplicate perm entry {p}"));
            }
            seen[p as usize] = true;
        }
        for (id, node) in self.nodes.iter().enumerate() {
            if node.n_children == 1 {
                return Err(format!("node {id} has a single child (not compressed)"));
            }
            if node.n_children > 0 {
                let mut cursor = node.start;
                for c in node.children() {
                    let child = self.node(c);
                    if child.parent != id as u32 {
                        return Err(format!("child {c} has wrong parent"));
                    }
                    if child.start != cursor {
                        return Err(format!("child {c} range not contiguous"));
                    }
                    if child.level <= node.level {
                        return Err(format!("child {c} level must exceed parent"));
                    }
                    cursor = child.end;
                }
                if cursor != node.end {
                    return Err(format!("children of node {id} do not cover its range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_geom::jl::JlKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// Tree position of an original point index: a search of the permutation.
    fn position_of(t: &Quadtree, original: usize) -> usize {
        let perm = t.permutation();
        perm.iter().position(|&i| i as usize == original).unwrap()
    }

    fn grid_points(n_side: usize) -> Points {
        let mut flat = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                flat.push(i as f64);
                flat.push(j as f64);
            }
        }
        Points::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn build_covers_all_points_and_validates() {
        let p = grid_points(8);
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        assert_eq!(t.len(), 64);
        t.validate().unwrap();
        // Compressed tree: node count is O(n).
        assert!(t.node_count() <= 2 * 64);
    }

    #[test]
    fn single_point_is_root_leaf() {
        let p = Points::from_flat(vec![3.0, 4.0], 2).unwrap();
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        assert_eq!(t.node_count(), 1);
        assert!(t.node(0).is_leaf());
        t.validate().unwrap();
    }

    #[test]
    fn duplicate_points_stay_in_one_leaf() {
        let p = Points::from_flat(vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 5.0], 2).unwrap();
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        t.validate().unwrap();
        // The three duplicates can never separate; they share a leaf.
        let leaf_a = t.leaf_of_position(position_of(&t, 0));
        let leaf_b = t.leaf_of_position(position_of(&t, 1));
        let leaf_c = t.leaf_of_position(position_of(&t, 2));
        assert_eq!(leaf_a, leaf_b);
        assert_eq!(leaf_b, leaf_c);
        assert_eq!(t.node(leaf_a).size(), 3);
    }

    #[test]
    fn exact_duplicates_are_not_truncation() {
        // 500 rows repeated exactly, as a merge-&-reduce fold repeats them:
        // multi-point leaves everywhere, none of them the depth cap's doing.
        let mut flat = Vec::new();
        for _ in 0..3 {
            for i in 0..500 {
                flat.push((i % 25) as f64 * 0.37);
                flat.push((i / 25) as f64 * 1.91);
            }
        }
        let p = Points::from_flat(flat, 2).unwrap();
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        t.validate().unwrap();
        assert!(t.nodes().iter().any(|n| n.is_leaf() && n.size() == 3));
        assert!(!t.truncated());
        // Nor is the all-one-point input, whose root is a leaf.
        let same = Points::from_flat(vec![4.0; 12], 3).unwrap();
        assert!(!Quadtree::build(&mut rng(), &same, QuadtreeConfig::default()).truncated());
    }

    #[test]
    fn distinct_rows_below_the_finest_cell_are_truncation() {
        // Two rows closer than root_side · 2^-50 (here 2 · 2^-50 ≈ 1.8e-15)
        // differ in the input and share every cell of the default tree.
        let p = Points::from_flat(vec![0.0, 1e-18, 1.0], 1).unwrap();
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        t.validate().unwrap();
        assert_eq!(
            t.leaf_of_position(position_of(&t, 0)),
            t.leaf_of_position(position_of(&t, 1))
        );
        assert!(t.truncated());
        // The same rows a resolvable distance apart are not.
        let p = Points::from_flat(vec![0.0, 1e-9, 1.0], 1).unwrap();
        assert!(!Quadtree::build(&mut rng(), &p, QuadtreeConfig::default()).truncated());
    }

    #[test]
    fn projected_truncation_compares_projected_rows() {
        // A projection with an all-zero column maps rows that differ only
        // in that coordinate onto one working point: duplicates where the
        // tree lives, so not truncation, although the input rows differ.
        let unit = |j: usize| {
            (0..3)
                .map(|i| f64::from(u8::from(i == j)))
                .collect::<Vec<_>>()
        };
        let (projection, j) = (0..)
            .find_map(|seed| {
                let mut r = StdRng::seed_from_u64(seed);
                let p = JlProjection::sample(&mut r, JlKind::SparseAchlioptas, 3, 2).unwrap();
                let zero = (0..3).find(|&j| p.project_point(&unit(j)).unwrap() == [0.0, 0.0]);
                zero.map(|j| (p, j))
            })
            .unwrap();
        let mut rows = vec![vec![0.0; 3], vec![0.0; 3], vec![5.0, -3.0, 7.0]];
        rows[1][j] = 1e-3;
        let p = Points::from_rows(&rows).unwrap();
        let config = QuadtreeConfig::default();
        let t = Quadtree::build_projected(&mut rng(), &p, &projection, config);
        t.validate().unwrap();
        assert!(!t.truncated());
        let working = projection.project(&p).unwrap();
        assert!(!Quadtree::build(&mut rng(), &working, config).truncated());
        assert_ne!(p.row(0), p.row(1));
    }

    #[test]
    fn children_differing_only_past_dimension_64_separate() {
        // Corners of the unit cube in 130 dimensions: whatever the shift,
        // the level-1 cell of a corner is its 0/1 pattern, so the root
        // splits on all 130 dimensions at once and the child key spans
        // three words. Points 0 and 2 differ only in dimension 100,
        // points 1 and 3 only in dimension 129.
        let mut rows = vec![
            vec![0.0; 130],
            vec![1.0; 130],
            vec![0.0; 130],
            vec![1.0; 130],
        ];
        rows[2][100] = 1.0;
        rows[3][129] = 0.0;
        let p = Points::from_rows(&rows).unwrap();
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        t.validate().unwrap();
        assert_eq!(t.node(0).level, 0);
        assert_eq!(t.node(0).n_children, 4);
        assert_eq!(t.permutation(), [0, 1, 2, 3]);
    }

    #[test]
    fn path_levels_are_increasing_and_ranges_nest() {
        let p = grid_points(6);
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        for orig in 0..p.len() {
            let pos = position_of(&t, orig);
            let path = t.path_to_position(pos);
            assert_eq!(path[0], 0);
            for w in path.windows(2) {
                let (a, b) = (t.node(w[0]), t.node(w[1]));
                assert!(b.level > a.level);
                assert!(b.start >= a.start && b.end <= a.end);
                assert!((b.start as usize..b.end as usize).contains(&pos));
            }
        }
    }

    #[test]
    fn permutation_round_trips() {
        let p = grid_points(5);
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        for orig in 0..p.len() {
            assert_eq!(t.point_at(position_of(&t, orig)), orig);
        }
    }

    #[test]
    fn sides_halve_with_levels() {
        let p = grid_points(8);
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        assert!(
            (t.side_of(0) - t.root_side() / f64::powi(2.0, t.node(0).level as i32)).abs() < 1e-12
        );
        for id in 0..t.node_count() as u32 {
            let node = t.node(id);
            if node.parent != u32::MAX {
                assert!(t.side_of(id) < t.side_of(node.parent));
            }
            let expected = t.root_side() / f64::powi(2.0, node.level as i32);
            assert!((t.side_of(id) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn tree_scale_bounds_pairwise_distance() {
        // For any two points, their Euclidean distance is at most the tree
        // scale of their LCA (the defining property of the quadtree metric).
        let p = grid_points(5);
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        for a in 0..p.len() {
            for b in (a + 1)..p.len() {
                let pa = position_of(&t, a);
                let pb = position_of(&t, b);
                let path_a = t.path_to_position(pa);
                let path_b = t.path_to_position(pb);
                let mut lca = 0u32;
                for (x, y) in path_a.iter().zip(&path_b) {
                    if x == y {
                        lca = *x;
                    } else {
                        break;
                    }
                }
                let eu = fc_geom::distance::dist(p.row(a), p.row(b));
                assert!(
                    eu <= t.tree_scale(lca) + 1e-9,
                    "points {a},{b}: euclidean {eu} exceeds LCA scale {}",
                    t.tree_scale(lca)
                );
            }
        }
    }

    #[test]
    fn max_depth_caps_construction() {
        // Two points separated by a tiny distance relative to the diameter
        // would need a very deep split; the cap turns them into a multi-point
        // leaf instead of spinning.
        let p = Points::from_flat(vec![0.0, 1e-30, 1.0], 1).unwrap();
        let t = Quadtree::build(&mut rng(), &p, QuadtreeConfig { max_depth: 20 });
        t.validate().unwrap();
        for node in t.nodes() {
            assert!(node.level <= 20);
        }
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let p = grid_points(6);
        let t1 = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        let t2 = Quadtree::build(&mut rng(), &p, QuadtreeConfig::default());
        assert_eq!(t1.node_count(), t2.node_count());
        assert_eq!(t1.permutation(), t2.permutation());
    }
}
