//! The served workloads: one code path, five configurations.
//!
//! Each epoch boots the workload's servers in-process behind real loopback
//! TCP, pre-ingests and drains (set-up), then measures three things a user
//! of a coreset server sees: how fast streamed points are *applied*
//! (`ingest_points_per_s`), how long an uncached `cluster` request takes
//! (`query_p50_ms`), and how well the served coreset stands for everything
//! that was sent (`distortion`). All loops are closed: one producer
//! connection and one reader connection, each waiting for its reply.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fc_cluster::{Coordinator, CoordinatorConfig};
use fc_core::plan::{Method, Plan};
use fc_core::Coreset;
use fc_geom::{Dataset, Points};
use fc_service::{
    Backend, DatasetStats, Engine, EngineConfig, PersistConfig, ServerHandle, ServerOptions,
    ServiceClient,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::blocks::{BlockGen, Stream};
use crate::probes;
use crate::producer::Producer;
use crate::quality::{self, DISTORTION_LIMIT, WEIGHT_ERROR_LIMIT};
use crate::run::Run;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

pub const DATASET: &str = "bench";
pub const K: usize = 50;
const M_SCALAR: usize = 40;
const SHARDS: usize = 2;
const FLEET_NODES: usize = 3;
/// Blocks per pipelined chunk of the light workloads.
const CHUNK_BLOCKS: usize = 64;
/// The light workloads cycle their blocks from a pool this large.
const POOL_BLOCKS: usize = 2_000;
/// The README's throughput configuration for small-batch firehoses.
const LIGHT_QUEUE_DEPTH: usize = 1_024;
const LIGHT_BATCH_POINTS: usize = 4_096;
const LIGHT_BATCH_DELAY: Duration = Duration::from_millis(2);
/// Serving compressions evaluated per epoch (odd: the median is one of them).
const EVALUATIONS: usize = 3;

/// What one served workload is.
pub struct Spec {
    /// Canonical `Method` name of the serving plan.
    pub method: &'static str,
    /// `PersistConfig::new(tmp)`: fsync on every append.
    pub persist: bool,
    /// The coalescing engine fed 100-point blocks through
    /// `ingest_pipelined`; otherwise 1 000-point idented blocks, strictly
    /// request/response.
    pub light: bool,
    /// The producer negotiates the binary dialect (else JSON lines).
    pub binary: bool,
    /// Serve through a coordinator over three nodes.
    pub fleet: bool,
    /// Points pre-ingested during set-up.
    pub pre_points: usize,
    /// Blocks sent per timed ingest round.
    pub round_blocks: usize,
    /// Ingest rounds, and passes over the read schedule, per second of an
    /// epoch's measuring time: operation counts follow from `--seconds`
    /// alone, never from the clock, so the servers are in the same state
    /// at the same request on every run of a seed. Calibrated once on the
    /// 2-core reference box so that an epoch's rounds take about its time.
    pub ingest_rounds_per_s: f64,
    pub read_rounds_per_s: f64,
}

pub fn spec(workload: &str) -> Option<Spec> {
    let coreset = Spec {
        method: "fast-coreset",
        persist: false,
        light: false,
        binary: true,
        fleet: false,
        pre_points: 60_000,
        round_blocks: 80,
        ingest_rounds_per_s: 0.5,
        read_rounds_per_s: 0.75,
    };
    let light = Spec {
        method: "uniform",
        light: true,
        pre_points: 200_000,
        ingest_rounds_per_s: 1.75,
        ..coreset
    };
    Some(match workload {
        "serve-ingest-coreset" => Spec {
            persist: true,
            ..coreset
        },
        "serve-ingest-light" => Spec {
            round_blocks: 48 * CHUNK_BLOCKS,
            read_rounds_per_s: 3.0,
            ..light
        },
        "serve-ingest-light-json" => Spec {
            binary: false,
            round_blocks: 10 * CHUNK_BLOCKS,
            read_rounds_per_s: 1.5,
            ..light
        },
        "serve-query" => Spec {
            binary: false,
            pre_points: 100_000,
            round_blocks: 40,
            ingest_rounds_per_s: 0.75,
            read_rounds_per_s: 1.0,
            ..coreset
        },
        "fleet-spread" => Spec {
            fleet: true,
            round_blocks: 60,
            read_rounds_per_s: 0.5,
            ..coreset
        },
        _ => return None,
    })
}

impl Spec {
    pub fn block_points(&self) -> usize {
        if self.light {
            100
        } else {
            1_000
        }
    }

    pub fn method(&self) -> Method {
        self.method.parse().expect("canonical method name")
    }

    /// The plan every node serves under (the coordinator assumes the same).
    pub fn plan(&self) -> Plan {
        self.engine_config(None)
            .default_plan()
            .expect("k = 50, m = 2000 is a valid plan")
    }

    pub fn engine_config(&self, data_dir: Option<&Path>) -> EngineConfig {
        let mut config = EngineConfig {
            shards: SHARDS,
            k: K,
            m_scalar: M_SCALAR,
            method: self.method(),
            persist: data_dir.map(PersistConfig::new),
            ..Default::default()
        };
        if self.light {
            config.shard_queue_depth = LIGHT_QUEUE_DEPTH;
            config.batch_points = LIGHT_BATCH_POINTS;
            config.batch_delay = LIGHT_BATCH_DELAY;
        }
        config
    }

    /// Blocks applied (and drained, untimed) ahead of every uncached query
    /// and every evaluation. A shard's stored points climb to its budget and
    /// collapse about every dozen 1 000-point blocks, and both the serving
    /// compression's cost and its accuracy follow that cycle; stepping the
    /// stream between samples makes a run's median the cycle's median and
    /// not whatever phase its seed happened to stop in. Reads still find
    /// the server idle: the step is drained before the request goes out.
    pub fn nudge_blocks(&self) -> usize {
        if self.light {
            CHUNK_BLOCKS
        } else {
            2
        }
    }

    /// How long acknowledged rows may sit in a coalescing buffer with the
    /// queues empty: the delay, plus the flusher's 1 ms sweep, plus slack.
    pub fn settle(&self) -> Duration {
        if self.light {
            LIGHT_BATCH_DELAY * 2
        } else {
            Duration::ZERO
        }
    }
}

/// The servers of one epoch.
pub struct Stack {
    pub nodes: Vec<ServerHandle>,
    pub coordinator: Option<Arc<Coordinator>>,
    front: Option<ServerHandle>,
}

impl Stack {
    pub fn boot(spec: &Spec, data_dir: Option<&Path>, replication: usize) -> Result<Self, String> {
        let node_count = if spec.fleet { FLEET_NODES } else { 1 };
        let mut nodes = Vec::new();
        for _ in 0..node_count {
            let engine =
                Engine::new(spec.engine_config(data_dir)).map_err(|e| format!("engine: {e}"))?;
            nodes.push(
                ServerHandle::bind_with("127.0.0.1:0", engine, ServerOptions::default())
                    .map_err(|e| format!("bind node: {e}"))?,
            );
        }
        let (coordinator, front) = if spec.fleet {
            let config = CoordinatorConfig {
                default_plan: spec.plan(),
                replication,
                ..CoordinatorConfig::new(nodes.iter().map(|n| n.addr().to_string()))
            };
            let coordinator =
                Arc::new(Coordinator::new(config).map_err(|e| format!("coordinator: {e}"))?);
            let backend: Arc<dyn Backend> = coordinator.clone();
            let front = ServerHandle::bind_backend("127.0.0.1:0", backend)
                .map_err(|e| format!("bind front: {e}"))?;
            (Some(coordinator), Some(front))
        } else {
            (None, None)
        };
        Ok(Self {
            nodes,
            coordinator,
            front,
        })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.front.as_ref().unwrap_or(&self.nodes[0]).addr()
    }

    /// What answers behind that address, for socket-free calls.
    pub fn backend(&self) -> &dyn Backend {
        match &self.coordinator {
            Some(coordinator) => &**coordinator,
            None => &**self.nodes[0].engine(),
        }
    }

    pub fn shutdown(self) {
        if let Some(front) = self.front {
            front.shutdown();
        }
        drop(self.coordinator);
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// Everything sent so far, to evaluate the served coreset against: the
/// blocks and how many times each was applied.
pub struct Resident {
    blocks: Vec<Dataset>,
    sends: Vec<u32>,
}

impl Resident {
    fn new(pool: Vec<Dataset>) -> Self {
        let sends = vec![0; pool.len()];
        Self {
            blocks: pool,
            sends,
        }
    }

    /// Block `index`, wrapping around (probes want "some of the
    /// workload's blocks", however few a smoke run staged).
    pub fn block(&self, index: usize) -> &Dataset {
        &self.blocks[index % self.blocks.len()]
    }

    /// The applied points, each weighted by how often it was applied.
    pub fn dataset(&self) -> Dataset {
        let dim = self.blocks[0].dim();
        let mut flat = Vec::new();
        let mut weights = Vec::new();
        for (block, &sends) in self.blocks.iter().zip(&self.sends) {
            if sends > 0 {
                flat.extend_from_slice(block.points().as_flat());
                weights.extend(std::iter::repeat_n(f64::from(sends), block.len()));
            }
        }
        let points = Points::from_flat(flat, dim).expect("blocks share one dimension");
        Dataset::weighted(points, weights).expect("one weight per point")
    }
}

/// The producer side of an epoch: where the next blocks come from and the
/// record of what was applied.
pub struct Feed {
    gen: BlockGen,
    light: bool,
    /// Next block index of the main stream (strict) or pool slot (light).
    cursor: u64,
    pub resident: Resident,
}

impl Feed {
    fn new(spec: &Spec, seed: u64) -> Self {
        let gen = BlockGen::new(seed, spec.block_points());
        let pool = if spec.light {
            gen.blocks(Stream::Main, 0, POOL_BLOCKS)
        } else {
            Vec::new()
        };
        Self {
            gen,
            light: spec.light,
            cursor: 0,
            resident: Resident::new(pool),
        }
    }

    /// Generates (strict) or selects (light) the next `count` blocks,
    /// outside any timed section. Returns their resident indices.
    fn stage(&mut self, count: usize) -> Vec<usize> {
        if self.light {
            let staged = (0..count as u64)
                .map(|i| ((self.cursor + i) % POOL_BLOCKS as u64) as usize)
                .collect();
            self.cursor += count as u64;
            staged
        } else {
            let first = self.resident.blocks.len();
            for block in self.gen.blocks(Stream::Main, self.cursor, count) {
                self.resident.blocks.push(block);
                self.resident.sends.push(0);
            }
            self.cursor += count as u64;
            (first..first + count).collect()
        }
    }

    /// Sends staged blocks; only applied ones enter the reference set.
    fn send(&mut self, staged: &[usize], producer: &mut Producer, tracer: &mut Tracer) {
        if self.light {
            for chunk in staged.chunks(CHUNK_BLOCKS) {
                let refs: Vec<&Dataset> = chunk.iter().map(|&i| &self.resident.blocks[i]).collect();
                if producer.send_pipelined(&refs, tracer) {
                    for &i in chunk {
                        self.resident.sends[i] += 1;
                    }
                }
            }
        } else {
            for &i in staged {
                if producer.send(&self.resident.blocks[i], tracer) {
                    self.resident.sends[i] += 1;
                }
            }
        }
    }

    pub fn trickle_block(&self, index: u64) -> Dataset {
        self.gen.block(Stream::Trickle, index)
    }
}

/// One slot of the read schedule, by request index.
#[derive(Clone, Copy)]
enum Slot {
    /// `cluster` under a seed never used before: uncached.
    Fresh,
    /// `cluster` repeating the latest fresh seed: a cache hit.
    Repeat,
    Cost,
    Compress,
}

/// Ten requests: 60 % uncached `cluster`, 20 % cached, 10 % `cost`, 10 %
/// `compress`.
const SCHEDULE: [Slot; 10] = [
    Slot::Fresh,
    Slot::Fresh,
    Slot::Fresh,
    Slot::Repeat,
    Slot::Fresh,
    Slot::Cost,
    Slot::Fresh,
    Slot::Repeat,
    Slot::Fresh,
    Slot::Compress,
];

/// The reader connection and what it has seen.
pub struct Reader {
    pub client: ServiceClient,
    next_seed: u64,
    latest: Option<(u64, Points)>,
    pub uncached_ms: Vec<f64>,
    pub cached_ms: Vec<f64>,
    pub cost_ms: Vec<f64>,
    pub compress_ms: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    /// Seconds spent waiting for replies.
    pub busy_secs: f64,
    m: usize,
}

impl Reader {
    fn connect(addr: SocketAddr, seed_base: u64, m: usize) -> Result<Self, String> {
        Ok(Self {
            client: ServiceClient::connect(addr).map_err(|e| format!("reader connect: {e}"))?,
            next_seed: seed_base,
            latest: None,
            uncached_ms: Vec::new(),
            cached_ms: Vec::new(),
            cost_ms: Vec::new(),
            compress_ms: Vec::new(),
            requests: 0,
            failed: 0,
            busy_secs: 0.0,
            m,
        })
    }

    pub fn fresh_seed(&mut self) -> u64 {
        self.next_seed += 1;
        self.next_seed
    }

    /// Forgets the samples (not the connection or the seed sequence).
    pub fn reset_samples(&mut self) {
        self.uncached_ms.clear();
        self.cached_ms.clear();
        self.cost_ms.clear();
        self.compress_ms.clear();
        self.requests = 0;
        self.failed = 0;
        self.busy_secs = 0.0;
    }

    /// One uncached `cluster`, checked: `K` centres of the right dimension
    /// and a finite positive cost.
    fn cluster_fresh(&mut self, tracer: &mut Tracer) {
        let seed = self.fresh_seed();
        let (reply, secs) = tracer.time("client.cluster", seed, || {
            self.client.cluster(DATASET, None, None, None, Some(seed))
        });
        self.requests += 1;
        self.busy_secs += secs;
        let ok = match reply {
            Ok(result) => {
                let ok = result.centers.len() == K
                    && result.centers.dim() == crate::blocks::DIM
                    && result.coreset_cost.is_finite()
                    && result.coreset_cost > 0.0
                    && result.seed == seed;
                self.latest = Some((seed, result.centers));
                ok
            }
            Err(e) => {
                eprintln!("fcbench: cluster failed: {e}");
                false
            }
        };
        if ok {
            self.uncached_ms.push(secs * 1e3);
        } else {
            self.failed += 1;
        }
    }

    fn slot(&mut self, slot: Slot, tracer: &mut Tracer) {
        let (ok, secs) = match (slot, self.latest.clone()) {
            (Slot::Fresh, _) | (_, None) => {
                self.cluster_fresh(tracer);
                return;
            }
            (Slot::Repeat, Some((seed, centers))) => {
                let (reply, secs) = tracer.time("client.cluster.cached", seed, || {
                    self.client.cluster(DATASET, None, None, None, Some(seed))
                });
                self.cached_ms.push(secs * 1e3);
                // Same seed, same state: the replay must be bit-identical.
                let same = reply.is_ok_and(|r| r.centers.as_flat() == centers.as_flat());
                (same, secs)
            }
            (Slot::Cost, Some((seed, centers))) => {
                let (reply, secs) = tracer.time("client.cost", seed, || {
                    self.client.cost(DATASET, &centers, None)
                });
                self.cost_ms.push(secs * 1e3);
                (reply.is_ok_and(|cost| cost.is_finite() && cost > 0.0), secs)
            }
            (Slot::Compress, Some(_)) => {
                let seed = self.fresh_seed();
                let (reply, secs) = tracer.time("client.compress", seed, || {
                    self.client.compress(DATASET, None, Some(seed))
                });
                self.compress_ms.push(secs * 1e3);
                let sized = reply
                    .is_ok_and(|(coreset, _, _)| !coreset.is_empty() && coreset.len() <= self.m);
                (sized, secs)
            }
        };
        self.requests += 1;
        self.busy_secs += secs;
        self.failed += u64::from(!ok);
    }

    /// One pass over the ten-slot schedule; `before_fresh` runs ahead of
    /// every uncached `cluster` (see [`Spec::nudge_blocks`]).
    pub fn round(&mut self, tracer: &mut Tracer, mut before_fresh: impl FnMut(&mut Tracer)) {
        for slot in SCHEDULE {
            if matches!(slot, Slot::Fresh) {
                before_fresh(tracer);
            }
            self.slot(slot, tracer);
        }
    }

    pub fn dataset_stats(&mut self) -> Result<DatasetStats, String> {
        let mut stats = self
            .client
            .stats(Some(DATASET))
            .map_err(|e| format!("stats: {e}"))?;
        stats
            .pop()
            .ok_or_else(|| "stats: dataset missing".to_owned())
    }

    /// The share of cache probes since `before` that hit.
    pub fn hit_share_since(&mut self, before: (u64, u64)) -> f64 {
        let (hits, misses) = self.cache_counters();
        let (hits, misses) = (hits - before.0, misses - before.1);
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// `(hits, misses)` of the answering process's query cache.
    pub fn cache_counters(&mut self) -> (u64, u64) {
        match self.client.full_stats(None) {
            Ok((_, Some(server))) => (server.cache_hits, server.cache_misses),
            _ => (0, 0),
        }
    }
}

/// What the evaluation of a served coreset found.
pub struct Served {
    pub coreset: Coreset,
    pub distortion: f64,
    pub weight_error: f64,
    pub stored_points: usize,
}

/// A live epoch, handed to the probes.
pub struct Live<'a> {
    pub spec: &'a Spec,
    pub stack: &'a Stack,
    pub feed: &'a Feed,
    pub reader: &'a mut Reader,
    pub served: &'a Served,
    pub scratch: &'a Path,
}

pub fn run(run: &mut Run, spec: &Spec) {
    let epochs = run.epochs();
    for epoch in 0..epochs {
        let last = epoch + 1 == epochs;
        run.tracer.set_recording(run.opts.traced && last);
        let scratch = Run::out_dir().join(format!("tmp-{}-{epoch}", std::process::id()));
        let result = run_epoch(run, spec, epoch, last, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        if let Err(e) = result {
            run.check(&format!("epoch {epoch} ran to its end"), false, e);
        }
    }
    let uncached = run.samples("query_ms").to_vec();
    run.set("query_p50_ms", median(&uncached));
    run.notes.push(format!(
        "{} ingest rounds of {} blocks of {} points; query_p50_ms over {} uncached cluster requests",
        run.samples("engine.drain_s").len(),
        spec.round_blocks,
        spec.block_points(),
        uncached.len()
    ));
    if run.opts.traced {
        run.set("server.query_p90_ms", percentile(&uncached, 0.9));
        run.set_trace_overhead(&["round_s", "query_round_s"]);
    }
}

fn run_epoch(
    run: &mut Run,
    spec: &Spec,
    epoch: usize,
    last: bool,
    scratch: &Path,
) -> Result<(), String> {
    let recording = run.opts.traced && last;
    let seed = run.opts.seed.wrapping_mul(1_000_003) + epoch as u64;
    let plan = spec.plan();

    // ---- set-up: everything before the timed section ----
    let setup = Instant::now();
    let data_dir: Option<PathBuf> = spec.persist.then(|| scratch.join("data"));
    if let Some(dir) = &data_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("data dir: {e}"))?;
    }
    let stack = Stack::boot(spec, data_dir.as_deref(), 1)?;
    let mut feed = Feed::new(spec, seed);
    let mut producer = Producer::connect(stack.addr(), DATASET, "fcbench", spec.binary)
        .map_err(|e| format!("producer connect: {e}"))?;
    let pre_blocks = run.scaled(spec.pre_points, 2_000) / spec.block_points();
    let staged = feed.stage(pre_blocks);
    feed.send(&staged, &mut producer, &mut run.tracer);
    producer
        .drain(spec.settle(), &mut run.tracer)
        .ok_or("set-up drain: applied points never matched acknowledged points")?;
    let mut reader = Reader::connect(stack.addr(), seed << 20, plan.m())?;
    reader.round(&mut run.tracer, |_| {});
    reader.reset_samples();
    run.sample("setup_s", setup.elapsed().as_secs_f64());

    // ---- timed: ingest rounds ----
    let round_blocks = if run.opts.smoke {
        (spec.round_blocks / 20).max(if spec.light { CHUNK_BLOCKS } else { 2 })
    } else {
        spec.round_blocks
    };
    // The epoch's rate pools its rounds: how many summaries a round's
    // blocks make a shard fold depends on where its merge-&-reduce counter
    // stands, by a tenth and more over a few dozen blocks.
    let acked_before = producer.counts.points_acked;
    let mut ingest_secs = 0.0;
    for round in 1..=run.rounds(spec.ingest_rounds_per_s) {
        let staged = feed.stage(round_blocks);
        let whole = run.tracer.begin("ingest.round", round);
        feed.send(&staged, &mut producer, &mut run.tracer);
        let drained = producer.drain(spec.settle(), &mut run.tracer);
        let secs = run.tracer.end(whole);
        let drain_s = drained.ok_or("drain: applied points never matched acknowledged points")?;
        ingest_secs += secs;
        run.sample("engine.drain_s", drain_s);
        run.sample(round_name("ingest", recording), secs);
    }
    run.sample(
        "ingest_points_per_s",
        (producer.counts.points_acked - acked_before) as f64 / ingest_secs,
    );

    // ---- timed: the read schedule ----
    let cache_before = reader.cache_counters();
    let mut stepped = true;
    for round in 1..=run.rounds(spec.read_rounds_per_s) {
        let open = run.tracer.begin("query.round", round);
        reader.round(&mut run.tracer, |tracer| {
            stepped &= nudge(spec, &mut feed, &mut producer, tracer);
        });
        let secs = run.tracer.end(open);
        run.sample(round_name("query", recording), secs);
    }
    if !stepped {
        return Err("drain: applied points never matched acknowledged points".into());
    }
    let hit_share = reader.hit_share_since(cache_before);
    for &ms in &reader.uncached_ms {
        run.sample("query_ms", ms);
    }
    run.sample(
        "server.ops_per_s",
        reader.requests as f64 / reader.busy_secs,
    );
    run.sample("cache.hit_share", hit_share);
    run.sample("cache.hit_p50_ms", median(&reader.cached_ms));
    run.sample("server.cost_p50_ms", median(&reader.cost_ms));
    run.sample("server.compress_p50_ms", median(&reader.compress_ms));
    run.attempted += reader.requests;
    run.failed += reader.failed;

    // ---- output checks: totals, weight, distortion ----
    let served = evaluate(run, spec, &mut feed, &mut reader, &mut producer, seed)?;
    run.sample("distortion", served.distortion);
    run.check(
        &format!("epoch {epoch}: served distortion <= 2.0 and weight error <= 0.10"),
        served.distortion <= DISTORTION_LIMIT && served.weight_error <= WEIGHT_ERROR_LIMIT,
        format!(
            "distortion {:.4}, weight error {:.4}",
            served.distortion, served.weight_error
        ),
    );

    // Before the probes: their mixed phase writes through a second client.
    if last {
        if let Some(dir) = &data_dir {
            recovery_check(run, spec, dir, scratch, producer.counts.points_acked)?;
        }
    }
    if recording {
        probes::serve(
            run,
            Live {
                spec,
                stack: &stack,
                feed: &feed,
                reader: &mut reader,
                served: &served,
                scratch,
            },
        )?;
    }

    run.attempted += producer.counts.blocks_attempted;
    run.failed += producer.counts.blocks_failed;
    run.sample(
        "engine.overloaded_retries",
        producer.counts.overloaded_retries as f64,
    );
    if recording {
        let acks_ms: Vec<f64> = producer.counts.ack_secs.iter().map(|s| s * 1e3).collect();
        run.set("server.ingest_ack_p50_ms", median(&acks_ms));
        run.set("server.ingest_ack_p99_ms", percentile(&acks_ms, 0.99));
        run.set(
            "server.ack_points_per_s",
            producer.counts.points_acked as f64 / producer.counts.send_secs,
        );
        let req_per_s = producer.counts.blocks_attempted as f64 / producer.counts.send_secs;
        run.set(
            if spec.binary {
                "server.bin_req_per_s"
            } else {
                "server.json_req_per_s"
            },
            req_per_s,
        );
        if spec.fleet {
            run.set("cluster.ingest_ack_p50_ms", median(&acks_ms));
        }
    }
    drop(reader);
    drop(producer);
    stack.shutdown();
    Ok(())
}

/// Span-file and sample names differ between the traced and the untraced
/// epoch of a traced run; their ratio is the tracing overhead.
fn round_name(phase: &str, recording: bool) -> &'static str {
    match (phase, recording) {
        ("ingest", false) => "round_s.untraced",
        ("ingest", true) => "round_s.traced",
        (_, false) => "query_round_s.untraced",
        (_, true) => "query_round_s.traced",
    }
}

/// Applies and drains [`Spec::nudge_blocks`] more blocks, outside any
/// timed section.
fn nudge(spec: &Spec, feed: &mut Feed, producer: &mut Producer, tracer: &mut Tracer) -> bool {
    let staged = feed.stage(spec.nudge_blocks());
    feed.send(&staged, producer, tracer);
    producer.drain(spec.settle(), tracer).is_some()
}

/// Fetches the served coreset [`EVALUATIONS`] times, stepping the stream in
/// between, and holds each against everything applied by then. One serving
/// compression is one draw of a sampler; the epoch reports the median draw.
fn evaluate(
    run: &mut Run,
    spec: &Spec,
    feed: &mut Feed,
    reader: &mut Reader,
    producer: &mut Producer,
    seed: u64,
) -> Result<Served, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A1);
    let mut draws = Vec::new();
    let mut stored_points = 0;
    let evaluations = if run.opts.smoke { 1 } else { EVALUATIONS };
    for _ in 0..evaluations {
        if !nudge(spec, feed, producer, &mut run.tracer) {
            return Err("drain: applied points never matched acknowledged points".into());
        }
        let stats = reader.dataset_stats()?;
        stored_points = stats.stored_points;
        let eval_seed = reader.fresh_seed();
        let (reply, _) = run.tracer.time("client.compress.eval", eval_seed, || {
            reader.client.compress(DATASET, None, Some(eval_seed))
        });
        let (coreset, _, _) = reply.map_err(|e| format!("compress for evaluation: {e}"))?;
        run.op(true);
        let weight_error = quality::weight_error(&coreset, stats.ingested_weight);
        let reference = feed.resident.dataset();
        let (distortion, _) = run.tracer.time("core.distortion", eval_seed, || {
            quality::distortion(&mut rng, &reference, &coreset, K)
        });
        draws.push((distortion, weight_error, coreset));
    }
    let stats = reader.dataset_stats()?;
    run.check(
        "stats.ingested_points = points sent - failed",
        stats.ingested_points == producer.counts.points_acked,
        format!(
            "ingested {}, acknowledged {}",
            stats.ingested_points, producer.counts.points_acked
        ),
    );
    draws.sort_by(|a, b| a.0.total_cmp(&b.0));
    let weight_error = median(&draws.iter().map(|d| d.1).collect::<Vec<_>>());
    let (distortion, _, coreset) = draws.swap_remove(evaluations / 2);
    Ok(Served {
        coreset,
        distortion,
        weight_error,
        stored_points,
    })
}

/// Copies the data directory of the (drained, still running) engine and
/// recovers a second engine from the copy: it must come up with identical
/// totals and finish replaying.
fn recovery_check(
    run: &mut Run,
    spec: &Spec,
    data_dir: &Path,
    scratch: &Path,
    points_acked: u64,
) -> Result<(), String> {
    let copy = scratch.join("recovered");
    copy_tree(data_dir, &copy).map_err(|e| format!("copying the data dir: {e}"))?;
    let open = run.tracer.begin("persist.recovery", 0);
    let engine =
        Engine::new(spec.engine_config(Some(&copy))).map_err(|e| format!("recovery: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = engine
            .dataset_stats(DATASET)
            .map_err(|e| format!("recovered stats: {e}"))?;
        if !stats.recovering || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let secs = run.tracer.end(open);
    run.set("persist.recovery_s", secs);
    run.check(
        "recovered engine reports identical totals with recovering: false",
        !stats.recovering
            && stats.ingested_points == points_acked
            && stats.ingested_weight == points_acked as f64,
        format!(
            "recovering {}, points {} of {points_acked}, weight {}",
            stats.recovering, stats.ingested_points, stats.ingested_weight
        ),
    );
    Ok(())
}

fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// The mixed phase: the reader keeps its schedule while a second
/// connection trickles ingests, one block per ten reads, so writes
/// invalidate the cache and compaction collides with queries.
pub fn mixed_phase(run: &mut Run, live: &mut Live<'_>, seconds: f64) -> Result<(), String> {
    let spec = live.spec;
    let mut writer = Producer::connect(live.stack.addr(), DATASET, "fcbench-trickle", spec.binary)
        .map_err(|e| format!("trickle connect: {e}"))?;
    let reads = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let feed = live.feed;
    let origin = run.tracer.origin();
    live.reader.reset_samples();
    let cache_before = live.reader.cache_counters();
    let started = Instant::now();
    let writer_tracer = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut tracer = Tracer::new(origin);
            tracer.set_recording(true);
            let mut written = 0u64;
            while !stop.load(Ordering::Acquire) {
                if reads.load(Ordering::Acquire) / 10 > written {
                    writer.send(&feed.trickle_block(written), &mut tracer);
                    written += 1;
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            tracer
        });
        while started.elapsed().as_secs_f64() < seconds {
            live.reader.round(&mut run.tracer, |_| {});
            reads.store(live.reader.requests, Ordering::Release);
        }
        stop.store(true, Ordering::Release);
        handle.join().expect("trickle writer does not panic")
    });
    let wall = started.elapsed().as_secs_f64();
    run.tracer.absorb(writer_tracer);
    run.set(
        "cache.mixed.hit_share",
        live.reader.hit_share_since(cache_before),
    );
    run.set(
        "engine.mixed.cluster_p50_ms",
        median(&live.reader.uncached_ms),
    );
    run.set(
        "engine.mixed.cluster_p90_ms",
        percentile(&live.reader.uncached_ms, 0.9),
    );
    run.set("engine.mixed.ops_per_s", live.reader.requests as f64 / wall);
    run.attempted += writer.counts.blocks_attempted + live.reader.requests;
    run.failed += writer.counts.blocks_failed + live.reader.failed;
    Ok(())
}
