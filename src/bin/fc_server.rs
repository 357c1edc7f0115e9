//! `fc-server`: the coreset-serving daemon.
//!
//! ```text
//! fc-server [--addr HOST:PORT] [--shards N] [--k K] [--m-scalar M]
//!           [--budget POINTS] [--queue-depth N] [--kmedian]
//!           [--method NAME] [--cache-capacity N]
//!           [--io-model reactor|threaded] [--executor-threads N]
//!           [--max-connections N] [--request-deadline-ms N]
//!           [--wire auto|json]
//!           [--batch-points N] [--batch-delay-ms N]
//!           [--metrics-addr HOST:PORT]
//!           [--data-dir PATH] [--fsync always|interval|never]
//!           [--fsync-interval-ms N] [--segment-bytes N]
//!           [--snapshot-compactions N] [--snapshot-bytes N]
//!           [--replay-throttle-ms N] [--version]
//! ```
//!
//! `--method` takes the canonical names of `fc_core::plan::Method` (e.g.
//! `fast-coreset`, `uniform`, `welterweight(log-k)`) — the same strings the
//! JSON protocol accepts per request. Every query solves with k-means++
//! and Lloyd, on the thread serving the request; a shard compaction runs
//! on its shard's thread.
//!
//! `--cache-capacity` bounds the engine's memoized query results (`0`
//! disables the cache; default 64).
//!
//! `--io-model` picks the connection model: `reactor` (epoll readiness
//! loop + bounded executor pool — the Linux default; one reactor thread,
//! `--executor-threads` backend workers) or `threaded`
//! (one blocking thread per connection). Platforms without epoll always
//! run `threaded`.
//!
//! `--max-connections` caps concurrently open client connections; a
//! connection over the cap is answered with one structured `unavailable`
//! error and closed, so load balancers fail over instead of hanging.
//! `--request-deadline-ms` sheds requests that waited longer than the
//! deadline in the executor queue (reactor model only) with a structured
//! `deadline_exceeded` — the server does stale work never, late work
//! sometimes; `0` means no deadline. `--metrics-addr` serves Prometheus text exposition
//! (`GET /metrics`) from a second listener; the JSON protocol's
//! `metrics` op returns the same registry inline.
//!
//! `--wire auto` (the default) answers a `hello` naming `bin1c` or `bin1`
//! by upgrading that connection to length-prefixed binary frames;
//! `--wire json` declines every upgrade, pinning the server to the
//! JSON-lines text protocol (clients fall back automatically).
//!
//! `--batch-points`/`--batch-delay-ms` turn on per-shard ingest
//! coalescing: each shard worker buffers the acknowledged batches it
//! dequeues until that many points are pending or the oldest waits out
//! the delay, then folds them into its stream as one block. Every wire
//! batch still takes one slot of the shard's queue. Durability ordering
//! is unchanged — with `--data-dir`, every batch is WAL-appended before
//! its acknowledgement.
//!
//! `--data-dir` turns on durability: every acknowledged ingest batch is
//! written to a per-shard write-ahead log under the directory before it
//! is acknowledged, shard summaries are snapshotted periodically, and a
//! restart on the same directory recovers — newest snapshot plus WAL
//! tail replay — serving immediately and reporting `recovering` in
//! `stats` until the replay catches up. `--fsync` picks the WAL
//! durability/throughput point (`always` fsyncs per batch; `interval`
//! fsyncs at most every `--fsync-interval-ms`; `never` leaves flushing
//! to the OS). `--segment-bytes` bounds WAL segment files,
//! `--snapshot-compactions`/`--snapshot-bytes` set the snapshot cadence,
//! and `--replay-throttle-ms` slows replay per batch (testing aid).
//! On Linux, SIGTERM/SIGINT shut the server down gracefully: shards
//! drain in order and persistent datasets flush a final snapshot.
//!
//! Serves the JSON-lines protocol of `fc_service::protocol` until killed.

use std::time::Duration;

use fast_coresets::cli::{self, ServingFlags};
use fc_service::{Engine, EngineConfig, FsyncPolicy, PersistConfig, ServerHandle, ServerOptions};

/// What `--wire` calls the upgrade-capable mode here.
const WIRE_ON: &str = "auto";

fn usage() -> ! {
    eprintln!(
        "usage: fc-server [--addr HOST:PORT] [--shards N] [--queue-depth N] {} \
         [--batch-points N] [--batch-delay-ms N] \
         [--metrics-addr HOST:PORT] [--data-dir PATH] \
         [--fsync always|interval|never] [--fsync-interval-ms N] \
         [--segment-bytes N] [--snapshot-compactions N] \
         [--snapshot-bytes N] [--replay-throttle-ms N] [--version]",
        cli::usage(WIRE_ON)
    );
    std::process::exit(2);
}

/// The durability flags, folded into a [`PersistConfig`] once parsing is
/// done (any of them without `--data-dir` is an error: silently running
/// non-durable would defeat the point of asking).
#[derive(Default)]
struct PersistFlags {
    data_dir: Option<std::path::PathBuf>,
    fsync: Option<String>,
    fsync_interval_ms: Option<u64>,
    segment_bytes: Option<u64>,
    snapshot_compactions: Option<u32>,
    snapshot_bytes: Option<u64>,
    replay_throttle_ms: Option<u64>,
}

impl PersistFlags {
    fn build(self) -> Option<PersistConfig> {
        let Some(dir) = self.data_dir else {
            let orphaned = self.fsync.is_some()
                || self.fsync_interval_ms.is_some()
                || self.segment_bytes.is_some()
                || self.snapshot_compactions.is_some()
                || self.snapshot_bytes.is_some()
                || self.replay_throttle_ms.is_some();
            if orphaned {
                eprintln!("durability flags need --data-dir PATH");
                usage();
            }
            return None;
        };
        let mut pc = PersistConfig::new(dir);
        match self.fsync.as_deref() {
            None | Some("always") => pc.fsync = FsyncPolicy::Always,
            Some("never") => pc.fsync = FsyncPolicy::Never,
            Some("interval") => {
                pc.fsync = FsyncPolicy::Interval(Duration::from_millis(
                    self.fsync_interval_ms.unwrap_or(50),
                ));
            }
            Some(other) => {
                eprintln!("unknown --fsync policy `{other}` (always, interval, never)");
                usage();
            }
        }
        if let Some(bytes) = self.segment_bytes {
            pc.segment_bytes = bytes;
        }
        if let Some(n) = self.snapshot_compactions {
            pc.snapshot_compactions = n;
        }
        if let Some(bytes) = self.snapshot_bytes {
            pc.snapshot_bytes = bytes;
        }
        if let Some(ms) = self.replay_throttle_ms {
            pc.replay_throttle = Duration::from_millis(ms);
        }
        Some(pc)
    }
}

fn parse_args() -> (String, EngineConfig, ServerOptions, Option<String>) {
    let mut addr = "127.0.0.1:4777".to_owned();
    let mut config = EngineConfig::default();
    let mut serving = ServingFlags::default();
    let mut metrics_addr = None;
    let mut persist = PersistFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if serving.parse(&flag, &mut args, WIRE_ON, usage) {
            continue;
        }
        let mut value = |what: &str| cli::value(&mut args, &flag, what, usage);
        match flag.as_str() {
            "--addr" => addr = value("host:port"),
            "--shards" => {
                config.shards = value("count").parse().unwrap_or_else(|_| usage());
            }
            "--queue-depth" => {
                config.shard_queue_depth = value("count").parse().unwrap_or_else(|_| usage());
            }
            "--batch-points" => {
                config.batch_points = value("count").parse().unwrap_or_else(|_| usage());
            }
            "--batch-delay-ms" => {
                config.batch_delay = Duration::from_millis(
                    value("milliseconds").parse().unwrap_or_else(|_| usage()),
                );
            }
            "--metrics-addr" => metrics_addr = Some(value("host:port")),
            "--data-dir" => persist.data_dir = Some(value("path").into()),
            "--fsync" => persist.fsync = Some(value("policy")),
            "--fsync-interval-ms" => {
                persist.fsync_interval_ms =
                    Some(value("milliseconds").parse().unwrap_or_else(|_| usage()));
            }
            "--segment-bytes" => {
                persist.segment_bytes = Some(value("bytes").parse().unwrap_or_else(|_| usage()));
            }
            "--snapshot-compactions" => {
                persist.snapshot_compactions =
                    Some(value("count").parse().unwrap_or_else(|_| usage()));
            }
            "--snapshot-bytes" => {
                persist.snapshot_bytes = Some(value("bytes").parse().unwrap_or_else(|_| usage()));
            }
            "--replay-throttle-ms" => {
                persist.replay_throttle_ms =
                    Some(value("milliseconds").parse().unwrap_or_else(|_| usage()));
            }
            "--version" | "-V" => {
                println!("fc-server {}", fast_coresets::VERSION);
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    config.k = serving.k;
    config.m_scalar = serving.m_scalar;
    config.compaction_budget = serving.budget;
    config.kind = serving.kind;
    config.method = serving.method;
    config.cache_capacity = serving.cache_capacity;
    config.persist = persist.build();
    (addr, config, serving.options, metrics_addr)
}

/// Blocks SIGTERM and SIGINT on the calling thread (spawned threads
/// inherit the mask) and returns a `signalfd` that becomes readable when
/// either arrives. Must run before the server spawns any thread.
#[cfg(target_os = "linux")]
fn arm_shutdown_signals() -> Option<i32> {
    // The libc sigset_t is 128 bytes on Linux; sized and aligned here
    // without depending on the libc crate's layout definitions.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct SigSet {
        bits: [u64; 16],
    }
    const SIG_BLOCK: i32 = 0;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn sigemptyset(set: *mut SigSet) -> i32;
        fn sigaddset(set: *mut SigSet, sig: i32) -> i32;
        fn pthread_sigmask(how: i32, set: *const SigSet, old: *mut SigSet) -> i32;
        fn signalfd(fd: i32, mask: *const SigSet, flags: i32) -> i32;
    }
    unsafe {
        let mut mask = SigSet { bits: [0; 16] };
        if sigemptyset(&mut mask) != 0
            || sigaddset(&mut mask, SIGTERM) != 0
            || sigaddset(&mut mask, SIGINT) != 0
            || pthread_sigmask(SIG_BLOCK, &mask, std::ptr::null_mut()) != 0
        {
            return None;
        }
        let fd = signalfd(-1, &mask, 0);
        (fd >= 0).then_some(fd)
    }
}

/// Blocks until the armed signalfd reports a signal (reads one
/// `signalfd_siginfo`, 128 bytes).
#[cfg(target_os = "linux")]
fn wait_for_signal(fd: i32) {
    extern "C" {
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    }
    let mut info = [0u8; 128];
    loop {
        let n = unsafe { read(fd, info.as_mut_ptr(), info.len()) };
        if n > 0 {
            return;
        }
    }
}

fn main() {
    let (addr, config, options, metrics_addr) = parse_args();
    #[cfg(target_os = "linux")]
    let signal_fd = arm_shutdown_signals();
    // Engine construction validates the configuration (shards/k/m-scalar
    // positive, solver compatible with the objective) via FcError, and
    // recovers any datasets persisted under --data-dir.
    let engine = match Engine::new(config.clone()) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("fc-server: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    engine.set_drain_hook(|dataset, shard| {
        eprintln!("fc-server: drained {dataset} shard {shard}");
    });
    let handle = match ServerHandle::bind_with(addr.as_str(), engine, options) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fc-server: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The scrape endpoint lives as long as main does; dropped (and
    // stopped) only when the process exits.
    let _metrics_server = metrics_addr.map(|maddr| {
        let engine = std::sync::Arc::clone(handle.engine());
        let render: std::sync::Arc<fc_service::metrics_http::RenderFn> =
            std::sync::Arc::new(move || engine.render_prometheus());
        match fc_service::MetricsServer::serve(maddr.as_str(), render) {
            Ok(server) => {
                println!("fc-server metrics on http://{}/metrics", server.addr());
                server
            }
            Err(e) => {
                eprintln!("fc-server: cannot bind metrics listener {maddr}: {e}");
                std::process::exit(1);
            }
        }
    });
    println!(
        "fc-server {} listening on {} (io={}, wire={}, shards={}, queue-depth={}, \
         max-connections={}, request-deadline={}, default plan {}{})",
        fast_coresets::VERSION,
        handle.addr(),
        handle.io_model(),
        if options.binary_wire { "auto" } else { "json" },
        config.shards,
        config.shard_queue_depth,
        match options.max_connections {
            0 => "unlimited".to_owned(),
            n => n.to_string(),
        },
        match options.request_deadline {
            Some(d) if !d.is_zero() => format!("{}ms", d.as_millis()),
            _ => "none".to_owned(),
        },
        handle.engine().default_plan().to_json(),
        match &config.persist {
            Some(pc) => format!(", data-dir {}", pc.data_dir.display()),
            None => String::new(),
        },
    );
    // On Linux, wait for SIGTERM/SIGINT and shut down gracefully: stop
    // accepting, drain in-flight requests, then drop the engine — which
    // drains every shard in order and (with --data-dir) flushes a final
    // snapshot per shard, so the next boot replays nothing.
    #[cfg(target_os = "linux")]
    if let Some(fd) = signal_fd {
        wait_for_signal(fd);
        eprintln!("fc-server: shutting down");
        handle.shutdown();
        return;
    }
    // Elsewhere (or if arming failed): serve until the process is
    // killed; SIGTERM's default disposition terminates the process.
    loop {
        std::thread::park();
    }
}
