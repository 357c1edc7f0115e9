//! Property-based tests for the quadtree substrate.

use fc_clustering::CostKind;
use fc_geom::jl::{JlKind, JlProjection};
use fc_geom::{Dataset, Points};
use fc_quadtree::crude::crude_approx;
use fc_quadtree::fast_kmeanspp::{fast_kmeanspp, FastSeedConfig};
use fc_quadtree::spread::{reduce_spread, SpreadParams};
use fc_quadtree::tree::{Quadtree, QuadtreeConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn points_strategy() -> impl Strategy<Value = Points> {
    (2usize..60, 1usize..4).prop_flat_map(|(n, dim)| {
        prop::collection::vec(-1000.0f64..1000.0, n * dim)
            .prop_map(move |flat| Points::from_flat(flat, dim).unwrap())
    })
}

/// `⌊(x − shift) / side⌋` per coordinate, the way every stage computed it
/// before the crate quantised once per stage.
fn cell_at(point: &[f64], shift: &[f64], side: f64) -> Vec<i64> {
    let coord = |(&x, &s): (&f64, &f64)| ((x - s) / side).floor() as i64;
    point.iter().zip(shift).map(coord).collect()
}

/// The reference quadtree builder: re-grid a node's points at every level,
/// in floating point, until they separate. `O(size·d)` per level, which is
/// why it is no longer the builder — but it is the definition. Returns
/// `(level, start, end, parent, first_child, n_children)` per node and the
/// permutation.
fn reference_build(rng: &mut StdRng, points: &Points, max_depth: u32) -> (Vec<[u32; 6]>, Vec<u32>) {
    let bbox = fc_geom::BoundingBox::of(points).unwrap();
    let delta = bbox.longest_side().max(f64::MIN_POSITIVE);
    let root_side = 2.0 * delta;
    let origin: Vec<f64> = bbox
        .min()
        .iter()
        .map(|&lo| lo - rng.gen::<f64>() * delta)
        .collect();
    let n = points.len() as u32;
    let mut perm: Vec<u32> = (0..n).collect();
    let mut nodes = vec![[0, 0, n, u32::MAX, 0, 0]];
    let mut stack = vec![0usize];
    while let Some(id) = stack.pop() {
        let [mut level, start, end, ..] = nodes[id];
        if end - start <= 1 {
            continue;
        }
        let range = start as usize..end as usize;
        let mut groups: Vec<Vec<u32>> = Vec::new();
        while level < max_depth {
            let side = root_side / f64::powi(2.0, (level + 1) as i32);
            if !side.is_normal() {
                break; // numerically exhausted: points coincide
            }
            let mut buckets: HashMap<Vec<i64>, Vec<u32>> = HashMap::new();
            for &idx in &perm[range.clone()] {
                let key = cell_at(points.row(idx as usize), &origin, side);
                buckets.entry(key).or_default().push(idx);
            }
            if buckets.len() > 1 {
                groups = buckets.into_values().collect();
                groups.sort_by_key(|g| g[0]);
                break;
            }
            level += 1;
        }
        nodes[id][0] = level;
        nodes[id][4] = if groups.is_empty() {
            0
        } else {
            nodes.len() as u32
        };
        nodes[id][5] = groups.len() as u32;
        let mut cursor = start;
        for group in groups {
            let child_end = cursor + group.len() as u32;
            perm[cursor as usize..child_end as usize].copy_from_slice(&group);
            stack.push(nodes.len());
            nodes.push([level + 1, cursor, child_end, id as u32, 0, 0]);
            cursor = child_end;
        }
    }
    (nodes, perm)
}

/// The reference `Crude-Approx`: every probe re-grids every point in
/// floating point and counts whole coordinate vectors. Valid wherever those
/// coordinates fit an `i64` at the finest probe, `|x − shift| < 2^11·Δ`.
fn reference_crude(rng: &mut StdRng, points: &Points, k: usize, weight: f64) -> (f64, f64, usize) {
    let dim = points.dim();
    let delta = fc_geom::bbox::diameter_upper_bound(points);
    if delta <= 0.0 {
        return (0.0, 0.0, 0);
    }
    let shift: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>() * delta).collect();
    let mut probes = 0;
    let mut count_at = |level: i32| {
        probes += 1;
        let side = delta * f64::powi(2.0, -level);
        let mut seen = std::collections::HashSet::new();
        for p in points.iter() {
            seen.insert(cell_at(p, &shift, side));
            if seen.len() > k {
                break;
            }
        }
        seen.len()
    };
    let (mut lo, mut hi) = (-44, 52);
    let level = if count_at(lo) > k {
        0
    } else if count_at(hi) <= k {
        hi
    } else {
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if count_at(mid) <= k {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let side = delta * f64::powi(2.0, -level);
    (weight * ((dim as f64).sqrt() * side), side, probes)
}

/// Points at many scales at once (long compression chains), with exact
/// duplicates, scaled so that deep cell sides can leave the normal range.
fn multiscale_points(rng: &mut StdRng, n: usize, dim: usize, scale: f64) -> Points {
    let distinct = rng.gen_range(1..=n);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(distinct);
    for _ in 0..distinct {
        let row = if rows.is_empty() || rng.gen_range(0..4) == 0 {
            (0..dim).map(|_| rng.gen::<f64>() - 0.5).collect()
        } else {
            // A tiny step away from an earlier location, along a random
            // subset of the axes.
            let near = rows[rng.gen_range(0..rows.len())].clone();
            let step = f64::powi(2.0, -rng.gen_range(0..56));
            let moved = rng.gen::<f64>();
            let nudge = |x: f64| {
                if rng.gen::<f64>() < moved {
                    x + step * (rng.gen::<f64>() - 0.5)
                } else {
                    x
                }
            };
            near.into_iter().map(nudge).collect()
        };
        rows.push(row);
    }
    let mut flat = Vec::with_capacity(n * dim);
    for i in 0..n {
        let row = if i < distinct {
            &rows[i]
        } else {
            &rows[rng.gen_range(0..distinct)]
        };
        flat.extend(row.iter().map(|x| x * scale));
    }
    Points::from_flat(flat, dim).unwrap()
}

/// `(level, start, end, parent, first_child, n_children)` per node.
fn shape(t: &Quadtree) -> Vec<[u32; 6]> {
    t.nodes()
        .iter()
        .map(|v| {
            [
                v.level,
                v.start,
                v.end,
                v.parent,
                v.first_child,
                v.n_children,
            ]
        })
        .collect()
}

/// The builder against [`reference_build`] on a multiscale input: nodes,
/// permutation and truncation.
fn matches_the_reference(
    seed: u64,
    n: usize,
    dim: usize,
    max_depth: u32,
    scale: f64,
    coincide: bool,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = multiscale_points(&mut rng, n, dim, scale);
    if coincide {
        let first = p.row(0).to_vec();
        p.as_flat_mut()
            .chunks_exact_mut(dim)
            .for_each(|row| row.copy_from_slice(&first));
    }
    let (nodes, perm) = reference_build(&mut StdRng::seed_from_u64(seed), &p, max_depth);
    let t = Quadtree::build(
        &mut StdRng::seed_from_u64(seed),
        &p,
        QuadtreeConfig { max_depth },
    );
    prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
    // Truncated: some leaf of the reference holds two different rows
    // (repeats of one location never count).
    let truncated = nodes.iter().any(|&[_, start, end, _, _, n_children]| {
        let rows = &perm[start as usize..end as usize];
        n_children == 0
            && rows
                .iter()
                .any(|&i| p.row(i as usize) != p.row(rows[0] as usize))
    });
    prop_assert_eq!(t.truncated(), truncated);
    prop_assert_eq!(shape(&t), nodes);
    prop_assert_eq!(t.permutation(), &perm[..]);
    Ok(())
}

/// Three unit-box clusters a 1e18 apart, along the first two axes: any
/// projection that keeps two of them apart leaves each inside one finest
/// cell at the default depth, which truncates the tree.
fn far_clusters(rng: &mut StdRng, n: usize, dim: usize) -> Points {
    let mut flat = Vec::with_capacity(n * dim);
    for i in 0..n {
        let cluster = i % 3;
        for j in 0..dim {
            let corner = if cluster > 0 && j == cluster - 1 {
                1e18
            } else {
                0.0
            };
            flat.push(corner + rng.gen::<f64>());
        }
    }
    Points::from_flat(flat, dim).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn build_matches_the_level_by_level_reference(
        seed in any::<u64>(),
        n in 1usize..48,
        dim in prop_oneof![Just(1usize), Just(2), Just(20), Just(64), Just(65), Just(130)],
        max_depth in prop_oneof![Just(1u32), Just(8), Just(50), Just(62)],
        scale in prop_oneof![Just(1.0f64), Just(1e6), Just(1e-300)],
        // One input in five is a single location repeated: Δ clamps to
        // `f64::MIN_POSITIVE` and the builder skips its quantisation pass.
        coincide in prop_oneof![4 => Just(false), 1 => Just(true)],
    ) {
        matches_the_reference(seed, n, dim, max_depth, scale, coincide)?;
    }

    /// Larger nodes, whose children differ in many dimensions at once and
    /// carry their differing bits down from long key passes.
    #[test]
    fn build_matches_the_reference_on_larger_inputs(
        seed in any::<u64>(),
        n in 200usize..1_500,
        dim in prop_oneof![Just(8usize), Just(20)],
        max_depth in prop_oneof![Just(8u32), Just(50)],
        scale in prop_oneof![Just(1.0f64), Just(1e6)],
    ) {
        matches_the_reference(seed, n, dim, max_depth, scale, false)?;
    }

    /// The one-buffer build over a projection is the build over the
    /// projected points: same draws, same nodes, same permutation, and the
    /// same verdict on truncation, which it reaches by regenerating the
    /// projected rows of a capped leaf.
    #[test]
    fn projected_build_matches_project_then_build(
        seed in any::<u64>(),
        n in 1usize..200,
        (source, target) in prop_oneof![Just((3usize, 2usize)), Just((20, 10)), Just((20, 19)), Just((64, 8))],
        max_depth in prop_oneof![Just(8u32), Just(50)],
        far in prop_oneof![2 => Just(false), 1 => Just(true)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = if far {
            far_clusters(&mut rng, n, source)
        } else {
            multiscale_points(&mut rng, n, source, 1.0)
        };
        let projection =
            JlProjection::sample(&mut rng, JlKind::SparseAchlioptas, source, target).unwrap();
        let config = QuadtreeConfig { max_depth };
        let expected = Quadtree::build(
            &mut StdRng::seed_from_u64(seed ^ 1),
            &projection.project(&p).unwrap(),
            config,
        );
        let t = Quadtree::build_projected(&mut StdRng::seed_from_u64(seed ^ 1), &p, &projection, config);
        prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        prop_assert_eq!(shape(&t), shape(&expected));
        prop_assert_eq!(t.permutation(), expected.permutation());
        prop_assert_eq!(t.truncated(), expected.truncated());
        prop_assert_eq!(t.origin(), expected.origin());
        prop_assert_eq!(t.root_side().to_bits(), expected.root_side().to_bits());
    }

    #[test]
    fn crude_approx_matches_the_per_level_reference(
        seed in any::<u64>(),
        n in 1usize..48,
        dim in prop_oneof![Just(1usize), Just(2), Just(7), Just(20)],
        k in 1usize..6,
        offset in prop_oneof![Just(0.0f64), Just(-3.0), Just(40.0)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = multiscale_points(&mut rng, n, dim, 1.0);
        // Up to 40 units from the origin against a diameter of at least
        // 2^-56: far enough to exercise negative cells, within 2^11·Δ
        // whenever Δ ≥ 1/32, and checked below otherwise.
        p.as_flat_mut().iter_mut().for_each(|x| *x += offset);
        let delta = fc_geom::bbox::diameter_upper_bound(&p);
        prop_assume!(delta == 0.0 || 42.0 / delta < 2048.0);
        let w = 3.0 * n as f64;
        let expected = reference_crude(&mut StdRng::seed_from_u64(seed), &p, k, w);
        let b = crude_approx(&mut StdRng::seed_from_u64(seed), &p, k, CostKind::KMedian, w);
        prop_assert_eq!((b.upper, b.side, b.probes), expected);
    }

    #[test]
    fn spread_boxes_are_numbered_by_first_appearance(
        seed in any::<u64>(),
        n in 1usize..48,
        dim in prop_oneof![Just(1usize), Just(3), Just(20)],
        pitch in prop_oneof![Just(0.01f64), Just(0.3), Just(5.0)],
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = multiscale_points(&mut rng, n, dim, 1.0);
        let params = SpreadParams { diameter_factor: pitch, rounding_denom: 0.0 };
        let (_, map) = reduce_spread(&mut StdRng::seed_from_u64(seed), &p, 1.0, params);
        // The same draws `reduce_spread` makes, then boxes as whole
        // coordinate vectors.
        let mut replay = StdRng::seed_from_u64(seed);
        let shift: Vec<f64> = (0..dim).map(|_| replay.gen::<f64>() * pitch).collect();
        let mut ids: HashMap<Vec<i64>, usize> = HashMap::new();
        for (i, row) in p.iter().enumerate() {
            let next = ids.len();
            let id = *ids.entry(cell_at(row, &shift, pitch)).or_insert(next);
            prop_assert_eq!(map.box_of_point[i], id);
        }
        prop_assert_eq!(map.box_count(), ids.len());
    }

    #[test]
    fn quadtree_invariants_hold(p in points_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Quadtree::build(&mut rng, &p, QuadtreeConfig::default());
        prop_assert!(t.validate().is_ok(), "{:?}", t.validate());
        // Compressed: node count O(n).
        prop_assert!(t.node_count() <= 2 * p.len());
        // Permutation round-trips.
        for i in 0..p.len() {
            prop_assert_eq!(t.point_at(t.position_of(i)), i);
        }
    }

    #[test]
    fn lca_scale_dominates_euclidean_distance(p in points_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Quadtree::build(&mut rng, &p, QuadtreeConfig::default());
        let n = p.len().min(12);
        for a in 0..n {
            for b in (a + 1)..n {
                let pa = t.path_to_position(t.position_of(a));
                let pb = t.path_to_position(t.position_of(b));
                let mut lca = 0u32;
                for (x, y) in pa.iter().zip(&pb) {
                    if x == y { lca = *x } else { break }
                }
                let eu = fc_geom::distance::dist(p.row(a), p.row(b));
                prop_assert!(eu <= t.tree_scale(lca) * (1.0 + 1e-9) + 1e-12);
            }
        }
    }

    #[test]
    fn fast_seeding_labels_are_total_and_valid(p in points_strategy(), seed in any::<u64>(), k in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Dataset::unweighted(p);
        let t = Quadtree::build(&mut rng, d.points(), QuadtreeConfig::default());
        let s = fast_kmeanspp(&mut rng, &d, &t, k, CostKind::KMeans, FastSeedConfig::default());
        prop_assert!(s.k() >= 1);
        prop_assert!(s.k() <= k);
        prop_assert_eq!(s.labels.len(), d.len());
        for &l in &s.labels {
            prop_assert!(l < s.k());
        }
        // Chosen indices distinct and in range.
        let mut c = s.chosen.clone();
        c.sort_unstable();
        let before = c.len();
        c.dedup();
        prop_assert_eq!(c.len(), before);
        prop_assert!(c.iter().all(|&i| i < d.len()));
    }

    #[test]
    fn crude_bound_dominates_one_center_per_cell_solution(
        p in points_strategy(),
        seed in any::<u64>(),
        k in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = p.len() as f64;
        let bound = crude_approx(&mut rng, &p, k, CostKind::KMedian, w);
        // The bound must dominate the cost of the best k-center solution we
        // can find quickly (which itself dominates OPT from above... so we
        // compare against a *lower* bound on nothing — instead simply check
        // it dominates OPT's proxy: cost of a good k-means++ + Lloyd run).
        let d = Dataset::unweighted(p);
        let seeding = fc_clustering::kmeanspp::kmeanspp(&mut rng, &d, k, CostKind::KMedian);
        let sol = fc_clustering::lloyd::refine(
            &d,
            seeding.centers,
            CostKind::KMedian,
            fc_clustering::lloyd::LloydConfig::default(),
        );
        prop_assert!(
            bound.upper >= sol.cost * 0.999,
            "crude bound {} < refined cost {}",
            bound.upper,
            sol.cost
        );
    }

    #[test]
    fn spread_reduction_preserves_intra_box_distances(
        p in points_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let upper = 10.0;
        let params = SpreadParams { diameter_factor: 5.0, rounding_denom: 0.0 };
        let (reduced, map) = reduce_spread(&mut rng, &p, upper, params);
        let n = p.len().min(12);
        for i in 0..n {
            for j in (i + 1)..n {
                if map.box_of_point[i] == map.box_of_point[j] {
                    let before = fc_geom::distance::dist(p.row(i), p.row(j));
                    let after = fc_geom::distance::dist(reduced.row(i), reduced.row(j));
                    prop_assert!((before - after).abs() <= 1e-6 * before.max(1.0));
                }
            }
        }
        // Restoration inverts exactly (no rounding).
        let restored = map.restore_points(&reduced);
        for i in 0..p.len() {
            prop_assert!(fc_geom::distance::dist(restored.row(i), p.row(i)) <= 1e-6);
        }
    }

    #[test]
    fn hst_kmedian_cost_is_monotone_in_k(p in points_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Quadtree::build(&mut rng, &p, QuadtreeConfig::default());
        let w = vec![1.0; p.len()];
        let mut prev = f64::INFINITY;
        for k in 1..=3usize.min(p.len()) {
            let sol = fc_quadtree::hst::solve_kmedian_on_hst(&t, &w, k);
            prop_assert!(sol.cost <= prev + 1e-9, "k={k}: {} > {prev}", sol.cost);
            prop_assert!(!sol.centers.is_empty());
            prop_assert!(sol.centers.iter().all(|&c| c < p.len()));
            prev = sol.cost;
        }
    }

    #[test]
    fn hst_dp_beats_random_center_choices(p in points_strategy(), seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Quadtree::build(&mut rng, &p, QuadtreeConfig::default());
        let w = vec![1.0; p.len()];
        let k = 2usize.min(p.len());
        let exact = fc_quadtree::hst::solve_kmedian_on_hst(&t, &w, k);
        // Tree-metric cost of random center sets must dominate the DP's.
        for _ in 0..3 {
            let centers: Vec<usize> = (0..k).map(|_| rng.gen_range(0..p.len())).collect();
            let mut marked = std::collections::HashSet::new();
            for &c in &centers {
                marked.extend(t.path_to_position(t.position_of(c)));
            }
            let cost: f64 = (0..p.len())
                .map(|i| {
                    let path = t.path_to_position(t.position_of(i));
                    let deepest = path.iter().rev().find(|id| marked.contains(*id))
                        .expect("root is marked");
                    if t.node(*deepest).is_leaf() { 0.0 } else { t.tree_scale(*deepest) }
                })
                .sum();
            prop_assert!(exact.cost <= cost + 1e-9, "DP {} beaten by {cost}", exact.cost);
        }
    }

    #[test]
    fn spread_reduction_never_increases_diameter(p in points_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let upper = 1.0;
        let params = SpreadParams { diameter_factor: 2.0, rounding_denom: 0.0 };
        let (reduced, _) = reduce_spread(&mut rng, &p, upper, params);
        let before = fc_geom::bbox::diameter_upper_bound(&p);
        let after = fc_geom::bbox::diameter_upper_bound(&reduced);
        // Box sliding only removes gaps: the diameter (up to the 2r slack
        // per box pair) cannot grow.
        prop_assert!(after <= before * (1.0 + 1e-9) + 4.0 * params.diameter_factor * upper);
    }
}
