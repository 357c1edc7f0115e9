//! Engine-level durability tests: a persistent engine restarts warm.
//!
//! Two restart shapes, both in-process:
//!
//! - **graceful**: dropping the engine final-snapshots every shard, so
//!   the next boot replays nothing and starts caught up;
//! - **crash**: `std::mem::forget(engine)` leaks the engine (shard
//!   workers and all) without running any shutdown path — exactly the
//!   on-disk state a `kill -9` leaves — and the next boot replays the
//!   WAL tail, reporting `recovering` until it catches up.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fast_coresets::prelude::*;
use fc_persist::{dataset_dir, shard_dir, LogOptions, ShardLog};
use fc_service::{Engine, EngineConfig, PersistConfig};

fn four_blobs(n_per: usize, offset: f64) -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..n_per {
            flat.push(b as f64 * 100.0 + offset + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fc-recovery-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn persistent_engine(dir: &Path, throttle_ms: u64) -> Engine {
    let mut persist = PersistConfig::new(dir.to_path_buf());
    persist.replay_throttle = Duration::from_millis(throttle_ms);
    Engine::new(EngineConfig {
        k: 4,
        shards: 2,
        persist: Some(persist),
        ..Default::default()
    })
    .unwrap()
}

/// Polls `stats` until the dataset stops reporting `recovering` (replay
/// is asynchronous on the shard workers).
fn await_caught_up(engine: &Engine, dataset: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = engine.dataset_stats(dataset).unwrap();
        if !stats.recovering {
            return;
        }
        assert!(Instant::now() < deadline, "replay never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn graceful_restart_serves_the_same_data_without_replay() {
    let dir = scratch("graceful");
    let (acked_points, acked_weight, epoch) = {
        let engine = persistent_engine(&dir, 0);
        for chunk in four_blobs(200, 0.0).chunks(100) {
            engine.ingest("blobs", &chunk, None).unwrap();
        }
        let stats = engine.dataset_stats("blobs").unwrap();
        assert!(!stats.recovering, "a fresh dataset is not recovering");
        (
            stats.ingested_points,
            stats.ingested_weight,
            stats.state_epoch,
        )
        // Engine drops here: ordered drain + final snapshot per shard.
    };
    let engine = persistent_engine(&dir, 0);
    let stats = engine.dataset_stats("blobs").unwrap();
    // A graceful shutdown leaves no WAL tail: the restart is caught up
    // before it answers its first request.
    assert!(!stats.recovering, "graceful restart must not replay");
    assert_eq!(stats.ingested_points, acked_points);
    assert!((stats.ingested_weight - acked_weight).abs() < 1e-6 * acked_weight.max(1.0));
    // The epoch's snapshot component grew (final snapshots were taken);
    // the applied-seq component never goes backwards.
    assert!(stats.state_epoch.0 > epoch.0, "snapshot ids must grow");
    assert!(
        stats.state_epoch.1 >= epoch.1,
        "applied seq must not regress"
    );
    // The recovered stream serves a usable coreset.
    let (coreset, _, _) = engine.coreset("blobs", Some(7), None).unwrap();
    assert!(!coreset.is_empty());
    // Sampling methods preserve total weight approximately (same bound
    // the live-engine suite uses).
    let rel = (coreset.total_weight() - acked_weight).abs() / acked_weight;
    assert!(rel < 0.3, "served weight off by {rel}");
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_restart_replays_every_acknowledged_batch() {
    let dir = scratch("crash");
    let (acked_points, acked_weight) = {
        let engine = persistent_engine(&dir, 0);
        for (i, chunk) in four_blobs(150, 0.0).chunks(75).into_iter().enumerate() {
            engine
                .ingest("blobs", &chunk, None)
                .unwrap_or_else(|e| panic!("batch {i}: {e}"));
        }
        let stats = engine.dataset_stats("blobs").unwrap();
        // Crash: leak the engine so no shutdown path (snapshot, WAL sync
        // beyond the per-append policy) runs. The shard worker threads
        // leak too — acceptable in a test process.
        std::mem::forget(engine);
        (stats.ingested_points, stats.ingested_weight)
    };
    let engine = persistent_engine(&dir, 0);
    await_caught_up(&engine, "blobs");
    let stats = engine.dataset_stats("blobs").unwrap();
    assert_eq!(
        stats.ingested_points, acked_points,
        "every acknowledged batch must survive kill -9"
    );
    assert!((stats.ingested_weight - acked_weight).abs() < 1e-6 * acked_weight.max(1.0));
    let (coreset, _, _) = engine.coreset("blobs", Some(7), None).unwrap();
    let rel = (coreset.total_weight() - acked_weight).abs() / acked_weight;
    assert!(rel < 0.3, "served weight off by {rel}");
    std::mem::forget(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_restart_reports_recovering_while_replaying() {
    let dir = scratch("recovering");
    {
        let engine = persistent_engine(&dir, 0);
        for chunk in four_blobs(100, 0.0).chunks(50) {
            engine.ingest("blobs", &chunk, None).unwrap();
        }
        std::mem::forget(engine);
    }
    // Throttled replay widens the window so the flag is observable.
    let engine = persistent_engine(&dir, 200);
    let stats = engine.dataset_stats("blobs").unwrap();
    assert!(
        stats.recovering,
        "a crash restart with a WAL tail must report recovering"
    );
    let mid_epoch = stats.state_epoch;
    await_caught_up(&engine, "blobs");
    let stats = engine.dataset_stats("blobs").unwrap();
    assert!(stats.state_epoch.1 >= mid_epoch.1, "epoch only grows");
    std::mem::forget(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coalesced_but_unflushed_batches_survive_crash() {
    let dir = scratch("coalesced-crash");
    let (acked_points, acked_weight) = {
        let mut persist = PersistConfig::new(dir.clone());
        persist.replay_throttle = Duration::ZERO;
        let engine = Engine::new(EngineConfig {
            k: 4,
            shards: 2,
            // Size trigger far above what we send: every acknowledged
            // batch parks in the coalescing buffer and never reaches a
            // shard worker before the crash. Durability must come from
            // the WAL-append-before-ack alone.
            batch_points: 1_000_000,
            persist: Some(persist),
            ..Default::default()
        })
        .unwrap();
        let mut acked = (0, 0.0);
        for chunk in four_blobs(150, 0.0).chunks(60) {
            acked = engine.ingest("blobs", &chunk, None).unwrap();
        }
        std::mem::forget(engine);
        acked
    };
    let engine = persistent_engine(&dir, 0);
    await_caught_up(&engine, "blobs");
    let stats = engine.dataset_stats("blobs").unwrap();
    assert_eq!(
        stats.ingested_points, acked_points,
        "acked-but-coalesced batches must survive kill -9"
    );
    assert!((stats.ingested_weight - acked_weight).abs() < 1e-6 * acked_weight.max(1.0));
    let (coreset, _, _) = engine.coreset("blobs", Some(7), None).unwrap();
    let rel = (coreset.total_weight() - acked_weight).abs() / acked_weight;
    assert!(rel < 0.3, "served weight off by {rel}");
    std::mem::forget(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// A compressor that parks until released — holds the single shard
/// worker busy so the bounded queue fills and a coalesced flush gets
/// refused (the engine-level analogue of the unit test's `Gated`).
struct Gated {
    release: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Compressor for Gated {
    fn compress(
        &self,
        rng: &mut dyn rand::RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        while !self.release.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Uniform.compress(rng, data, params)
    }
}

#[test]
fn overloaded_rollback_never_resurrects_the_refused_batch() {
    use fc_service::EngineError;

    let dir = scratch("overload-rollback");
    let (acked_points, acked_weight) = {
        let release = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut persist = PersistConfig::new(dir.clone());
        persist.replay_throttle = Duration::ZERO;
        let engine = Engine::with_compressor(
            EngineConfig {
                shards: 1,
                shard_queue_depth: 1,
                k: 2,
                m_scalar: 5,
                // Batches are 40 points each, so coalescing holds a couple
                // of acknowledged batches before a flush triggers.
                batch_points: 100,
                persist: Some(persist),
                ..Default::default()
            },
            std::sync::Arc::new(Gated {
                release: std::sync::Arc::clone(&release),
            }),
        )
        .unwrap();
        // The worker parks inside the first flush's compression; the next
        // triggering flush fills the queue's one slot, and the one after
        // that is refused. The refused batch's WAL record must be rolled
        // back *without* taking the still-pending acknowledged rows along.
        let batch = four_blobs(10, 0.0);
        let mut acked = (0, 0.0);
        let mut refused = false;
        for attempt in 0..64 {
            match engine.ingest("blobs", &batch, None) {
                Ok(totals) => acked = totals,
                Err(EngineError::Overloaded { .. }) => {
                    refused = true;
                    break;
                }
                Err(other) => panic!("attempt {attempt}: unexpected {other}"),
            }
        }
        assert!(refused, "the bounded queue never refused a flush");
        // Crash with the worker still parked: the leaked thread idles in
        // the gated compressor for the rest of the test process.
        std::mem::forget(engine);
        acked
    };
    let engine = persistent_engine(&dir, 0);
    await_caught_up(&engine, "blobs");
    let stats = engine.dataset_stats("blobs").unwrap();
    assert_eq!(
        stats.ingested_points, acked_points,
        "replay must deliver exactly the acknowledged batches: \
         no refused batch resurrected, no coalesced block lost"
    );
    assert!((stats.ingested_weight - acked_weight).abs() < 1e-6 * acked_weight.max(1.0));
    std::mem::forget(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dropped_datasets_stay_dropped_across_restart() {
    let dir = scratch("dropped");
    {
        let engine = persistent_engine(&dir, 0);
        engine.ingest("keep", &four_blobs(50, 0.0), None).unwrap();
        engine.ingest("gone", &four_blobs(50, 5.0), None).unwrap();
        engine.drop_dataset("gone").unwrap();
        // Graceful shutdown flushes `keep` only.
    }
    let engine = persistent_engine(&dir, 0);
    assert_eq!(engine.dataset_names(), vec!["keep".to_owned()]);
    assert!(engine.dataset_stats("gone").is_err());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_hook_observes_every_shard_in_order() {
    use std::sync::{Arc, Mutex};
    let dir = scratch("drain");
    let engine = persistent_engine(&dir, 0);
    engine.ingest("a", &four_blobs(30, 0.0), None).unwrap();
    engine.ingest("b", &four_blobs(30, 1.0), None).unwrap();
    let seen: Arc<Mutex<Vec<(String, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    engine.set_drain_hook(move |dataset, shard| {
        sink.lock().unwrap().push((dataset.to_owned(), shard));
    });
    drop(engine);
    let seen = seen.lock().unwrap();
    // Two datasets × two shards, datasets in name order, shards in index
    // order within each.
    assert_eq!(
        *seen,
        vec![
            ("a".to_owned(), 0),
            ("a".to_owned(), 1),
            ("b".to_owned(), 0),
            ("b".to_owned(), 1),
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_plan_spellings_in_meta_json_still_boot() {
    // `meta.json` files written before `hst-coreset`, `merge-reduce(..)`,
    // `hamerly`, `kmedian-weiszfeld` and `local-search` were folded into
    // their canonical names.
    let dir = scratch("old-names");
    for (name, plan) in [
        (
            "means",
            r#"{"k":3,"m":60,"method":"merge-reduce(hst-coreset)","solver":"hamerly"}"#,
        ),
        (
            "medians",
            r#"{"k":3,"m":60,"kind":"kmedian","solver":"kmedian-weiszfeld"}"#,
        ),
        ("swapped", r#"{"k":3,"m":60,"solver":"local-search"}"#),
    ] {
        let meta = format!(r#"{{"name":"{name}","dim":2,"shards":2,"plan":{plan}}}"#);
        let ds = dataset_dir(&dir, name);
        std::fs::create_dir_all(&ds).unwrap();
        std::fs::write(ds.join("meta.json"), meta).unwrap();
    }
    let engine = persistent_engine(&dir, 0);
    for (name, method, kind) in [
        ("means", "fast-coreset", CostKind::KMeans),
        ("medians", "fast-coreset", CostKind::KMedian),
        ("swapped", "fast-coreset", CostKind::KMeans),
    ] {
        engine.ingest(name, &four_blobs(100, 0.0), None).unwrap();
        let plan = engine.dataset_plan(name).unwrap();
        assert_eq!(plan.method().to_string(), method, "{name}");
        assert_eq!(plan.solver(), Solver::Lloyd, "{name}");
        let reported = engine.dataset_stats(name).unwrap().plan.to_json();
        assert!(
            reported.contains(r#""solver":"lloyd""#),
            "{name}: {reported}"
        );
        let served = engine.cluster(name, None, None, None, Some(7)).unwrap();
        assert_eq!(served.solver, Solver::Lloyd, "{name}");
        assert_eq!(served.kind, kind, "{name}");
        assert_eq!(served.solution.k(), 3, "{name}");
    }
    // The retired spelling and the canonical one are the plan `means` runs.
    for (method, total) in [("merge-reduce(fast-coreset)", 440), ("fast-coreset", 480)] {
        let plan = format!(r#"{{"k":3,"m":60,"method":"{method}"}}"#);
        let plan = Plan::from_json(&plan).unwrap();
        let (points, _) = engine
            .ingest("means", &four_blobs(10, 0.0), Some(&plan))
            .unwrap();
        assert_eq!(points, total, "{method}");
    }
    // So are both spellings of the creating ingest of `swapped`.
    for (solver, total) in [("local-search", 440), ("lloyd", 480)] {
        let plan = format!(r#"{{"k":3,"m":60,"solver":"{solver}"}}"#);
        let plan = Plan::from_json(&plan).unwrap();
        let (points, _) = engine
            .ingest("swapped", &four_blobs(10, 0.0), Some(&plan))
            .unwrap();
        assert_eq!(points, total, "{solver}");
    }
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_record_of_another_dimension_refuses_the_dataset_at_open() {
    let dir = scratch("dim");
    {
        let engine = persistent_engine(&dir, 0);
        engine.ingest("flat", &four_blobs(50, 0.0), None).unwrap();
    }
    // A 3-d record behind a valid checksum in the 2-d dataset's shard log,
    // as a shard directory copied from another dataset would leave.
    let shard = shard_dir(&dataset_dir(&dir, "flat"), 0);
    let (mut log, _) = ShardLog::open(&shard, LogOptions::default()).unwrap();
    log.append(&Dataset::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap())
        .unwrap();
    drop(log);
    let mut persist = PersistConfig::new(dir.clone());
    persist.replay_throttle = Duration::ZERO;
    let err = Engine::new(EngineConfig {
        k: 4,
        shards: 2,
        persist: Some(persist),
        ..Default::default()
    })
    .expect_err("a mixed-dimension shard must not open");
    let message = err.to_string();
    assert!(message.contains("shard-000"), "{message}");
    assert!(message.contains("3-d"), "{message}");
    std::fs::remove_dir_all(&dir).ok();
}
