//! Tests that read the process's threads from `/proc/self`: 256 idle
//! connections must not pin threads, the reactor server runs exactly one
//! reactor thread beside its executors, and the threads a coordinator
//! fan-out spawns (one per node beyond the first) must be gone when the
//! request returns. The count covers every thread of the test
//! binary, so these tests live apart from every suite that runs servers of
//! its own, and take [`PROCESS_THREADS`] so that they do not overlap each
//! other.
#![cfg(target_os = "linux")]

use std::io::Read;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fast_coresets::prelude::*;
use fc_service::{Engine, EngineConfig, IoModel, ServerHandle, ServerOptions, ServiceClient};

/// Held for the whole of each test: a thread another test starts or ends
/// between a baseline and a peak would be counted against the wrong one.
static PROCESS_THREADS: Mutex<()> = Mutex::new(());

fn four_blobs(n_per: usize) -> Dataset {
    let mut flat = Vec::new();
    for b in 0..4 {
        for i in 0..n_per {
            flat.push(b as f64 * 100.0 + (i % 25) as f64 * 0.01);
            flat.push((i / 25) as f64 * 0.01);
        }
    }
    Dataset::from_flat(flat, 2).unwrap()
}

fn small_engine() -> Engine {
    Engine::new(EngineConfig {
        shards: 2,
        k: 4,
        m_scalar: 20,
        method: Method::Uniform,
        ..Default::default()
    })
    .unwrap()
}

/// The process's live thread count, from /proc (Linux only).
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status reports Threads:")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// The acceptance claim of the refactor: one reactor thread plus the
/// bounded executor pool serves 256 concurrent connections — the process
/// thread count is bounded by the pool configuration, not by the
/// connection count — while active clients keep getting correct answers.
#[test]
fn idle_connections_do_not_pin_threads() {
    let _alone = PROCESS_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let options = ServerOptions {
        io_model: IoModel::Reactor,
        executor_threads: 4,
        ..Default::default()
    };
    let before_server = thread_count();
    let server = ServerHandle::bind_with("127.0.0.1:0", small_engine(), options).unwrap();
    let addr = server.addr();

    // Seed a dataset so the active clients have something to query.
    let mut seeder = ServiceClient::connect(addr).unwrap();
    let data = four_blobs(100);
    seeder.ingest("load", &data, None).unwrap();

    // 256 idle connections: accepted, then silent.
    let idle: Vec<TcpStream> = (0..256)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    // Prove the reactor has accepted and still serves: a round-trip on a
    // fresh client drains the accept queue behind it.
    assert_eq!(seeder.stats(Some("load")).unwrap().len(), 1);

    let with_idle = thread_count();
    // The engine's shard workers (one dataset × 2 shards), one reactor,
    // four executors — plus whatever the test harness itself runs. What
    // must NOT appear is ~256 connection threads.
    assert!(
        with_idle <= before_server + 16,
        "256 idle connections grew the process from {before_server} to \
         {with_idle} threads — the reactor must not spend threads on idle \
         connections"
    );

    // 8 active clients ingest and query concurrently while the idle herd
    // stays connected.
    let peak = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8u64)
            .map(|w| {
                let data = data.clone();
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).unwrap();
                    for (i, batch) in data.chunks(100).into_iter().enumerate() {
                        client.ingest("load", &batch, None).unwrap();
                        let result = client
                            .cluster("load", Some(4), None, None, Some(w * 100 + i as u64))
                            .unwrap();
                        assert!(result.centers.len() <= 4);
                        assert!(result.coreset_points > 0);
                    }
                })
            })
            .collect();
        let mut peak = 0;
        while workers.iter().any(|w| !w.is_finished()) {
            peak = peak.max(thread_count());
            std::thread::sleep(Duration::from_millis(2));
        }
        for w in workers {
            w.join().unwrap();
        }
        peak
    });
    // 8 worker threads are the test's own; the server side must still be
    // bounded by the pool, not by 264 connections.
    assert!(
        peak <= before_server + 16 + 8,
        "thread count peaked at {peak} (baseline {before_server}) under \
         256 idle + 8 active connections"
    );

    // Graceful shutdown joins cleanly with the idle herd still connected —
    // no socket-shutdown sweep, no hang.
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with idle connections open",
        started.elapsed()
    );
    // Idle sockets observe the close.
    for mut stream in idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("idle connection still live after shutdown ({n} bytes)"),
        }
    }
}

/// How many of the process's threads carry a name starting with each
/// prefix (`/proc/self/task/*/comm`, Linux only).
fn named_threads<const N: usize>(prefixes: [&str; N]) -> [usize; N] {
    let mut counts = [0; N];
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task is readable") {
        // A thread that exits between the listing and the read is gone.
        let Ok(comm) = std::fs::read_to_string(task.expect("task entry").path().join("comm"))
        else {
            continue;
        };
        for (count, prefix) in counts.iter_mut().zip(prefixes) {
            if comm.trim_end().starts_with(prefix) {
                *count += 1;
            }
        }
    }
    counts
}

/// The server's named threads once any from an earlier server in this
/// binary have been reaped (a joined thread can linger in `/proc` for a
/// moment).
fn server_threads() -> [usize; 2] {
    let settle = Instant::now() + Duration::from_secs(2);
    loop {
        let counts = named_threads(["fc-io", "fc-exec-"]);
        if counts == [1, 4] || Instant::now() >= settle {
            return counts;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The thread budget the README documents: one reactor thread and
/// `executor_threads` executors, whether no connection is open or 256.
#[test]
fn reactor_server_runs_one_reactor_and_its_executors() {
    let _alone = PROCESS_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let options = ServerOptions {
        io_model: IoModel::Reactor,
        executor_threads: 4,
        ..Default::default()
    };
    let server = ServerHandle::bind_with("127.0.0.1:0", small_engine(), options).unwrap();
    let addr = server.addr();
    assert_eq!(
        server_threads(),
        [1, 4],
        "[reactor, executor] threads at bind"
    );

    let idle: Vec<TcpStream> = (0..256)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    // A round trip behind the idle herd: the reactor has accepted them all.
    let mut client = ServiceClient::connect(addr).unwrap();
    client.ingest("load", &four_blobs(25), None).unwrap();
    assert_eq!(client.stats(Some("load")).unwrap().len(), 1);
    assert_eq!(
        server_threads(),
        [1, 4],
        "[reactor, executor] threads with 257 connections open"
    );
    drop(idle);
    server.shutdown();
}

/// A coordinator fan-out runs the first node on the calling thread and
/// each other node on a scoped thread it joins before returning: over two
/// nodes at most one thread is added while a request runs, and none is
/// left once it has returned.
#[test]
fn coordinator_fan_out_threads_do_not_outlive_the_request() {
    let _alone = PROCESS_THREADS.lock().unwrap_or_else(|e| e.into_inner());
    use fc_cluster::{Coordinator, CoordinatorConfig};
    use fc_service::Backend;

    let node_a = ServerHandle::bind("127.0.0.1:0", small_engine()).unwrap();
    let node_b = ServerHandle::bind("127.0.0.1:0", small_engine()).unwrap();
    let mut config = CoordinatorConfig::new([node_a.addr().to_string(), node_b.addr().to_string()]);
    config.default_plan = PlanBuilder::new(4)
        .m_scalar(20)
        .method(Method::Uniform)
        .build()
        .unwrap();
    let coordinator = Coordinator::new(config).unwrap();
    for batch in four_blobs(100).chunks(100) {
        coordinator.ingest("fan", &batch, None).unwrap();
    }
    // Warm the pools (first queries dial connections).
    coordinator.coreset("fan", Some(1), None).unwrap();

    let baseline = thread_count();
    let sampled = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let sampled = Arc::clone(&sampled);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                sampled.fetch_max(thread_count(), std::sync::atomic::Ordering::SeqCst);
                std::thread::yield_now();
            }
        })
    };
    for seed in 0..30 {
        let (coreset, _, _) = coordinator.coreset("fan", Some(seed), None).unwrap();
        assert!(!coreset.is_empty());
        coordinator.dataset_stats("fan").unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    sampler.join().unwrap();
    let peak = sampled.load(std::sync::atomic::Ordering::SeqCst);
    // The sampler is one thread above baseline, and a two-node fan-out
    // adds one more for the second node while it runs.
    assert!(
        peak <= baseline + 2,
        "fan-out grew the process from {baseline} to {peak} threads — \
         a two-node fan-out spawns one thread at a time"
    );
    // A joined thread can still be counted for a moment while the kernel
    // reaps it, so allow it a short while to go.
    let settle = Instant::now() + Duration::from_secs(2);
    while thread_count() > baseline && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        thread_count(),
        baseline,
        "fan-out threads outlived the requests that spawned them"
    );
    node_a.shutdown();
    node_b.shutdown();
}
