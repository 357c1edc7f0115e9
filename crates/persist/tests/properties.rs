//! Property tests for the durability layer: snapshot and WAL round-trips
//! across every `Method` × objective plan the builder accepts, and torn-
//! write recovery truncated at *every* byte boundary — recovery must
//! never panic and never lose a batch that was wholly on disk before the
//! tear.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fc_clustering::CostKind;
use fc_core::plan::{Plan, PlanBuilder, ALL_METHODS};
use fc_geom::{Dataset, Points};
use fc_persist::{FsyncPolicy, LogOptions, ShardLog, Snapshot};
use proptest::prelude::*;

/// A fresh scratch directory per case (cases run in sequence inside one
/// property, so a counter disambiguates).
fn tmp(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fc-persist-prop-{name}-{}-{n}", std::process::id()))
}

/// Every plan over the full `Method` × objective grid.
fn all_plans() -> Vec<Plan> {
    let mut out = Vec::new();
    for method in ALL_METHODS {
        for kind in [CostKind::KMeans, CostKind::KMedian] {
            out.push(
                PlanBuilder::new(3)
                    .method(method)
                    .kind(kind)
                    .build()
                    .unwrap(),
            );
        }
    }
    out
}

/// A small weighted block from integer raw material (finite, positive
/// weights by construction).
fn block(raw: &[(u32, u32, u32)]) -> Dataset {
    let flat: Vec<f64> = raw
        .iter()
        .flat_map(|&(x, y, _)| [f64::from(x) * 0.25, f64::from(y) * 0.25])
        .collect();
    let weights: Vec<f64> = raw.iter().map(|&(_, _, w)| 1.0 + f64::from(w)).collect();
    Dataset::weighted(Points::from_flat(flat, 2).unwrap(), weights).unwrap()
}

proptest! {
    /// A snapshot carrying any plan's wire form and an optional summary
    /// comes back from disk byte-identical.
    #[test]
    fn snapshot_round_trips_across_every_plan(
        plan_idx in any::<usize>(),
        id in 1u64..1_000_000,
        seq in any::<u64>(),
        level in 0u32..40,
        raw in prop::collection::vec((0u32..2000, 0u32..2000, 0u32..100), 0..8),
        client_raw in prop::collection::vec((0u32..50, any::<u64>()), 0..4),
    ) {
        let plans = all_plans();
        let plan = &plans[plan_idx % plans.len()];
        let summary = (!raw.is_empty()).then(|| block(&raw));
        let snap = Snapshot {
            id,
            seq,
            level,
            blocks: seq.wrapping_mul(3),
            points: raw.len() as u64,
            weight: raw.iter().map(|&(_, _, w)| 1.0 + f64::from(w)).sum(),
            plan_json: plan.to_json(),
            summary,
            clients: client_raw
                .iter()
                .map(|&(c, s)| (format!("client-{c}"), s))
                .collect(),
        };
        let dir = tmp("snap");
        fs::create_dir_all(&dir).unwrap();
        snap.store(&dir).unwrap();
        let path = dir.join(format!("snap-{id:016x}.snap"));
        let loaded = Snapshot::load(&path).unwrap();
        prop_assert_eq!(&loaded, &snap);
        // The recovered plan parses back to the same wire form.
        let reparsed = Plan::from_json(&loaded.plan_json).unwrap();
        prop_assert_eq!(reparsed.to_json(), plan.to_json());
        fs::remove_dir_all(&dir).ok();
    }

    /// Appended batches come back in order, byte-identical, across a
    /// reopen — under every fsync policy and with rotation forced.
    #[test]
    fn wal_records_round_trip(
        batches in prop::collection::vec(
            prop::collection::vec((0u32..2000, 0u32..2000, 0u32..100), 1..5),
            1..7,
        ),
        policy in prop_oneof![
            Just(FsyncPolicy::Always),
            Just(FsyncPolicy::Never),
            Just(FsyncPolicy::Interval(std::time::Duration::from_millis(5))),
        ],
        rotate_every in prop_oneof![Just(1u64), Just(8 << 20)],
    ) {
        let dir = tmp("wal");
        let options = LogOptions { fsync: policy, segment_bytes: rotate_every };
        let blocks: Vec<Dataset> = batches.iter().map(|raw| block(raw)).collect();
        {
            let (mut log, recovered) = ShardLog::open(&dir, options).unwrap();
            prop_assert!(recovered.snapshot.is_none() && recovered.tail.is_empty());
            for (i, b) in blocks.iter().enumerate() {
                prop_assert_eq!(log.append(b).unwrap(), i as u64 + 1);
            }
        }
        let (_, recovered) = ShardLog::open(&dir, options).unwrap();
        prop_assert_eq!(recovered.tail.len(), blocks.len());
        prop_assert_eq!(recovered.durable_seq(), blocks.len() as u64);
        for (i, rec) in recovered.tail.iter().enumerate() {
            prop_assert_eq!(rec.seq, i as u64 + 1);
            prop_assert_eq!(&rec.block, &blocks[i]);
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Tear the single live segment at EVERY byte boundary: recovery
    /// never errors or panics, recovers a strict prefix, keeps every
    /// record wholly before the tear, and the reopened log accepts new
    /// appends.
    #[test]
    fn torn_tail_recovers_a_prefix_at_every_byte(
        batches in prop::collection::vec(
            prop::collection::vec((0u32..2000, 0u32..2000, 0u32..100), 1..4),
            1..5,
        ),
    ) {
        let dir = tmp("torn");
        let options = LogOptions { fsync: FsyncPolicy::Never, segment_bytes: 8 << 20 };
        let blocks: Vec<Dataset> = batches.iter().map(|raw| block(raw)).collect();
        // Record the segment length after each append: records_before[b]
        // = how many records end at or before byte offset b.
        let mut ends = Vec::new();
        {
            let (mut log, _) = ShardLog::open(&dir, options).unwrap();
            for b in &blocks {
                log.append(b).unwrap();
                log.sync().unwrap();
                ends.push(fs::read_dir(&dir).unwrap().map(|e| {
                    let e = e.unwrap();
                    if e.file_name().to_string_lossy().starts_with("wal-") {
                        e.metadata().unwrap().len()
                    } else {
                        0
                    }
                }).max().unwrap());
            }
        }
        let segment = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("wal-"))
                    .unwrap_or(false)
            })
            .unwrap();
        let full = fs::read(&segment).unwrap();
        prop_assert_eq!(full.len() as u64, *ends.last().unwrap());
        for cut in 0..=full.len() {
            fs::write(&segment, &full[..cut]).unwrap();
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count();
            let (mut log, recovered) = ShardLog::open(&dir, options).unwrap();
            prop_assert_eq!(
                recovered.tail.len(), expect,
                "cut at byte {} of {}", cut, full.len()
            );
            for (i, rec) in recovered.tail.iter().enumerate() {
                prop_assert_eq!(rec.seq, i as u64 + 1);
                prop_assert_eq!(&rec.block, &blocks[i]);
            }
            // The truncated log stays writable: the next append takes the
            // next sequence number after the surviving prefix.
            prop_assert_eq!(log.append(&blocks[0]).unwrap(), expect as u64 + 1);
        }
        fs::remove_dir_all(&dir).ok();
    }
}
