//! `fc-coordinator`: the multi-node coreset-serving front-end.
//!
//! ```text
//! fc-coordinator --node HOST:PORT [--node HOST:PORT ...]
//!                [--addr HOST:PORT] [--replication R]
//!                [--capacity W ...] [--retries N] [--node-timeout-ms MS]
//!                [--k K] [--m-scalar M] [--budget POINTS] [--kmedian]
//!                [--method NAME] [--solver NAME]
//!                [--solve-threads N] [--cache-capacity N]
//!                [--io-model reactor|threaded] [--io-threads N]
//!                [--executor-threads N]
//!                [--max-connections N] [--request-deadline-ms N]
//!                [--wire bin1|json]
//!                [--metrics-addr HOST:PORT] [--version]
//! ```
//!
//! Speaks the `fc-service` JSON-lines protocol upward (the same protocol
//! `fc-server` serves — clients cannot tell the difference) and downward
//! to every `--node`. Each `--capacity` pairs positionally with a
//! `--node` and is its share of the data (default 1 each; zero takes no
//! writes, and at least one must be positive): at `--replication 1` a
//! dataset's blocks are dealt round-robin over the nodes in proportion to
//! capacity, and at R ≥ 2 its replica sets are chosen by
//! capacity-weighted rendezvous hashing. `--retries` bounds the
//! per-request backoff on `overloaded` nodes; `--node-timeout-ms` bounds
//! every read and write against a node, the binary hello included (a
//! node that accepts and never answers reads `degraded` in `stats` and
//! fails only its own slot of a query; connect keeps its own 2 s
//! default). The
//! plan flags (`--k`/`--m-scalar`/`--budget`/`--kmedian`/`--method`/
//! `--solver`) define the default per-dataset plan, forwarded to the
//! nodes with every routed batch — node-side defaults never leak in. The
//! `--io-*` flags configure the upward-facing server exactly as on
//! `fc-server`. Every node request is one blocking call: a fan-out runs
//! the first node on the executor thread serving the request and each
//! other node on a scoped thread joined before the answer, so at most
//! `--executor-threads` × (nodes − 1) such threads exist at once, on every
//! platform.
//! `--max-connections`, `--request-deadline-ms`, and `--metrics-addr`
//! behave exactly as on `fc-server`: connection-cap admission control,
//! executor-queue deadline shedding, and a Prometheus scrape listener
//! (the coordinator's registry adds `fc_node_request_seconds{node=…}`
//! latency attribution per fleet node; the JSON `metrics` op also embeds
//! every node's registry under `"nodes"`).
//!
//! `--solve-threads` sets the process-wide worker-thread count for the
//! coordinator's own compute (coreset aggregation and the final solve) —
//! equivalent to `FC_SOLVE_THREADS`, bit-identical results at every
//! setting.
//! `--cache-capacity` bounds the coordinator's memoized query results,
//! keyed by dataset version, fleet epoch, and node health, so ingests,
//! membership changes, and observed health flips all invalidate (`0`
//! disables; default 64).
//!
//! `--replication R` (default 1) turns routing into R-way replicated
//! placement: every dataset is assigned R replicas by capacity-weighted
//! rendezvous hashing over the fleet map, ingest fans each batch to all
//! of them, and queries answer from any live replica — the fleet serves
//! with any single node down. The `add_node`/`drain_node` wire ops (exposed through any
//! `ServiceClient`) grow and shrink the fleet live: each bumps the
//! epoch-numbered fleet map and migrates affected datasets by shipping
//! their *serving coresets* (O(coreset), not O(data)); requests asserting
//! a stale epoch are refused with a structured `wrong_epoch` error.
//! Idented ingest (`client` + `seq` on the wire) is exactly-once through
//! retries, node crashes, and rebalances.
//!
//! A node restarting warm from its `--data-dir` reports `recovering` in
//! `stats` while it replays its write-ahead log. The coordinator routes
//! queries around it — its fan-out slot probes the node's stats instead,
//! so the per-node health in `stats` tracks `recovering` → `alive` as
//! the replay catches up — and resumes unioning its coresets only once
//! it reports caught up. Ingest keeps routing to recovering nodes (the
//! WAL orders those batches behind the replay).
//!
//! `--wire` controls both directions at once: `bin1` (the default)
//! offers every node connection the binary frame upgrade — nodes that
//! decline stay on JSON per connection — and answers client hellos with
//! the upgrade on the upward listener; `json` pins both to JSON-lines.

use fast_coresets::cli::{self, ServingFlags};
use fc_cluster::{Coordinator, CoordinatorConfig, NodeTimeouts};
use fc_core::plan::PlanBuilder;
use fc_service::{RetryPolicy, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// What `--wire` calls the upgrade-capable mode here.
const WIRE_ON: &str = "bin1";

fn usage() -> ! {
    eprintln!(
        "usage: fc-coordinator --node HOST:PORT [--node HOST:PORT ...] \
         [--addr HOST:PORT] [--replication R] \
         [--capacity W ...] [--retries N] [--node-timeout-ms MS] {} \
         [--metrics-addr HOST:PORT] [--version]",
        cli::usage(WIRE_ON)
    );
    std::process::exit(2);
}

struct Args {
    addr: String,
    nodes: Vec<String>,
    capacities: Vec<f64>,
    replication: usize,
    retries: u32,
    node_timeout_ms: Option<u64>,
    /// The flags shared with `fc-server`; `--wire` covers both directions
    /// here — the node dials and the upward listener.
    serving: ServingFlags,
    metrics_addr: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: "127.0.0.1:4778".to_owned(),
        nodes: Vec::new(),
        capacities: Vec::new(),
        replication: 1,
        retries: RetryPolicy::default().attempts,
        node_timeout_ms: None,
        serving: ServingFlags::default(),
        metrics_addr: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if parsed.serving.parse(&flag, &mut args, WIRE_ON, usage) {
            continue;
        }
        let mut value = |what: &str| cli::value(&mut args, &flag, what, usage);
        match flag.as_str() {
            "--addr" => parsed.addr = value("host:port"),
            "--node" => parsed.nodes.push(value("host:port")),
            "--capacity" => parsed
                .capacities
                .push(value("weight").parse().unwrap_or_else(|_| usage())),
            "--replication" => {
                parsed.replication = value("factor").parse().unwrap_or_else(|_| usage());
            }
            "--retries" => parsed.retries = value("count").parse().unwrap_or_else(|_| usage()),
            "--node-timeout-ms" => {
                parsed.node_timeout_ms =
                    Some(value("milliseconds").parse().unwrap_or_else(|_| usage()));
            }
            "--metrics-addr" => parsed.metrics_addr = Some(value("host:port")),
            "--version" | "-V" => {
                println!("fc-coordinator {}", fast_coresets::VERSION);
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    if parsed.nodes.is_empty() {
        eprintln!("fc-coordinator needs at least one --node");
        usage();
    }
    if !parsed.capacities.is_empty() && parsed.capacities.len() != parsed.nodes.len() {
        eprintln!(
            "{} --capacity values for {} --node values (they pair positionally)",
            parsed.capacities.len(),
            parsed.nodes.len()
        );
        usage();
    }
    parsed
}

fn main() {
    let args = parse_args();
    let serving = args.serving;
    let mut builder = PlanBuilder::new(serving.k)
        .m_scalar(serving.m_scalar)
        .kind(serving.kind)
        .method(serving.method)
        .solver(serving.solver);
    if let Some(budget) = serving.budget {
        builder = builder.compaction_budget(budget);
    }
    let default_plan = match builder.build() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("fc-coordinator: invalid default plan: {e}");
            std::process::exit(2);
        }
    };
    let mut config = CoordinatorConfig::new(args.nodes.clone());
    config.replication = args.replication;
    config.default_plan = default_plan;
    config.binary_wire = serving.options.binary_wire;
    config.retry = RetryPolicy {
        attempts: args.retries.max(1),
        ..RetryPolicy::default()
    };
    config.cache_capacity = serving.cache_capacity;
    if let Some(ms) = args.node_timeout_ms {
        let limit = Duration::from_millis(ms);
        config.timeouts = NodeTimeouts {
            read: limit,
            write: limit,
            ..NodeTimeouts::default()
        };
    }
    if !args.capacities.is_empty() {
        for (spec, capacity) in config.nodes.iter_mut().zip(&args.capacities) {
            spec.capacity = *capacity;
        }
    }
    let coordinator = match Coordinator::new(config) {
        Ok(c) => Arc::new(c),
        Err(e) => {
            eprintln!("fc-coordinator: invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let plan_json = coordinator.default_plan().to_json();
    let handle = match ServerHandle::bind_backend_with(
        args.addr.as_str(),
        Arc::clone(&coordinator) as Arc<dyn fc_service::Backend>,
        serving.options,
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("fc-coordinator: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let _metrics_server = args.metrics_addr.map(|maddr| {
        let coordinator = Arc::clone(&coordinator);
        let render: Arc<fc_service::metrics_http::RenderFn> =
            Arc::new(move || coordinator.render_prometheus());
        match fc_service::MetricsServer::serve(maddr.as_str(), render) {
            Ok(server) => {
                println!("fc-coordinator metrics on http://{}/metrics", server.addr());
                server
            }
            Err(e) => {
                eprintln!("fc-coordinator: cannot bind metrics listener {maddr}: {e}");
                std::process::exit(1);
            }
        }
    });
    println!(
        "fc-coordinator {} listening on {} (io={}, nodes=[{}], \
         replication={}, epoch={}, max-connections={}, request-deadline={}, \
         default plan {plan_json})",
        fast_coresets::VERSION,
        handle.addr(),
        handle.io_model(),
        args.nodes.join(", "),
        coordinator.replication(),
        coordinator.fleet_epoch(),
        match serving.options.max_connections {
            0 => "unlimited".to_owned(),
            n => n.to_string(),
        },
        match serving.options.request_deadline {
            Some(d) => format!("{}ms", d.as_millis()),
            None => "none".to_owned(),
        },
    );
    // Serve until the process is killed, like fc-server.
    loop {
        std::thread::park();
    }
}
