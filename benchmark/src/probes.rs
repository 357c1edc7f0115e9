//! The per-layer probes of the served workloads' traced run.
//!
//! Each probe times calls into one layer's public functions on the
//! workload's own inputs (its blocks, its plan, its served coreset), or
//! reads the layer's counters through the public `metrics`/`stats` ops.
//! Nothing inside the program is instrumented. A layer the workload's path
//! does not touch (persistence when it is off, the coordinator on a single
//! node) is left at 0.

use std::path::Path;
use std::time::{Duration, Instant};

use fc_clustering::{CostKind, SolveConfig};
use fc_core::json::Value;
use fc_core::{Coreset, PointBlock};
use fc_geom::Dataset;
use fc_persist::{FsyncPolicy, LogOptions, RecordMeta, ShardLog};
use fc_service::framing::MAX_FRAME_BYTES;
use fc_service::protocol::IngestIdent;
use fc_service::{
    server, wire, BinaryCodec, Engine, EngineError, LineCodec, Request, Response, ServiceClient,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::producer::wait_quiet;
use crate::quality;
use crate::run::Run;
use crate::serve::{self, Live, Spec, Stack, DATASET, K};
use crate::stats::median;
use crate::trace::Tracer;

/// Repetitions of a microsecond-scale probe; the median is reported.
const MICRO_REPS: usize = 20;
/// Repetitions of a millisecond-scale probe.
const CALL_REPS: usize = 5;

/// [`CALL_REPS`], or one in a smoke run.
fn call_reps(run: &Run) -> usize {
    if run.opts.smoke {
        1
    } else {
        CALL_REPS
    }
}
/// Blocks the socket-free engine and stream probes push.
const ENGINE_BLOCKS: usize = 40;
/// Seconds of the mixed read/write phase and of the R = 2 side phase.
const SIDE_PHASE_SECONDS: f64 = 1.0;

fn micros(secs: f64) -> f64 {
    secs * 1e6
}

fn millis(secs: f64) -> f64 {
    secs * 1e3
}

/// Median seconds of `reps` timed calls under one span name.
fn repeat<T>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize) -> T,
) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|i| {
            let (out, secs) = tracer.time(name, i as u64, || f(i));
            std::hint::black_box(out);
            secs
        })
        .collect();
    median(&secs)
}

pub fn serve(run: &mut Run, mut live: Live<'_>) -> Result<(), String> {
    let smoke = run.opts.smoke;
    let side_seconds = if smoke { 0.1 } else { SIDE_PHASE_SECONDS };
    run.set("engine.served_distortion", live.served.distortion);
    run.set("engine.weight_error", live.served.weight_error);
    run.set("engine.stored_points", live.served.stored_points as f64);
    run.set(
        "engine.served_fill",
        quality::fill(&live.served.coreset, live.spec.plan().m()),
    );

    wire_codecs(run, &live)?;
    registry(run, &mut live)?;
    direct_engine(run, &live)?;
    merge_reduce(run, &live);
    if live.spec.persist {
        write_ahead_log(run, &live)?;
    }
    query_path(run, &mut live)?;
    if live.spec.fleet {
        fleet(run, &mut live, side_seconds)?;
    } else {
        serve::mixed_phase(run, &mut live, side_seconds)?;
    }
    Ok(())
}

/// The ingest request this workload's producer sends for `block`.
fn ingest_request(spec: &Spec, block: &Dataset, seq: u64) -> Request {
    Request::Ingest {
        dataset: DATASET.to_owned(),
        block: PointBlock::from_dataset(block),
        plan: None,
        ident: (!spec.light).then(|| IngestIdent {
            client: "fcbench".to_owned(),
            seq,
        }),
        epoch: None,
    }
}

/// Encode and decode of one of the workload's ingest requests in both
/// dialects, through the same codecs the server's connection loop uses.
fn wire_codecs(run: &mut Run, live: &Live<'_>) -> Result<(), String> {
    let block = live.feed.resident.block(0);
    let request = ingest_request(live.spec, block, 1);
    let points = block.len() as f64;
    // Whichever binary dialect this server negotiates, also on the
    // workloads whose own producer stays on JSON lines.
    let mut binary = ServiceClient::connect(live.stack.addr()).map_err(|e| e.to_string())?;
    binary.negotiate_binary().map_err(|e| e.to_string())?;
    let checked = binary.is_checked();
    drop(binary);
    let t = &mut run.tracer;

    let line = request.to_json();
    let encode = repeat(t, "wire.json.encode_request", MICRO_REPS, |_| {
        request.to_json()
    });
    let decode = repeat(t, "wire.json.decode_request", MICRO_REPS, |_| {
        let mut codec = LineCodec::new(MAX_FRAME_BYTES);
        codec.push(line.as_bytes());
        codec.push(b"\n");
        let frame = codec
            .next_frame()
            .expect("well-formed line")
            .expect("one frame");
        Request::from_json(frame.trim_end()).expect("round trip")
    });
    let frame = wire::request_frame(&request, None, checked);
    let bin_encode = repeat(t, "wire.bin.encode_request", MICRO_REPS, |_| {
        wire::request_frame(&request, None, checked)
    });
    let bin_decode = repeat(t, "wire.bin.decode_request", MICRO_REPS, |_| {
        let mut codec = BinaryCodec::with_remainder_checked(MAX_FRAME_BYTES, Vec::new(), checked);
        codec.push(&frame);
        let payload = codec
            .next_frame()
            .expect("well-formed frame")
            .expect("one frame");
        wire::decode_request(&payload).expect("round trip")
    });
    run.set("wire.json.encode_request_us", micros(encode));
    run.set("wire.json.decode_request_us", micros(decode));
    run.set("wire.bin.encode_request_us", micros(bin_encode));
    run.set("wire.bin.decode_request_us", micros(bin_decode));
    run.set(
        "wire.json.bytes_per_point",
        (line.len() + 1) as f64 / points,
    );
    run.set("wire.bin.bytes_per_point", frame.len() as f64 / points);
    Ok(())
}

fn histogram_p50_us(metrics: &Value, name: &str) -> Option<f64> {
    metrics
        .get("histograms")?
        .get(name)?
        .get("p50_us")?
        .as_f64()
}

fn counter(metrics: &Value, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// What the program's own registry says, through the `metrics` op: queue
/// wait at the front, compactions on every node, node hops of a fleet.
fn registry(run: &mut Run, live: &mut Live<'_>) -> Result<(), String> {
    let reply = live
        .reader
        .client
        .request(&Request::Metrics)
        .map_err(|e| format!("metrics op: {e}"))?;
    let Response::Metrics { metrics } = reply else {
        return Err("metrics op: unexpected response".into());
    };
    run.set(
        "server.queue_wait_p50_us",
        histogram_p50_us(&metrics, "fc_queue_wait_seconds").unwrap_or(0.0),
    );
    // A single node answers for itself; a coordinator embeds each node's
    // registry under `nodes`.
    let node_payloads: Vec<&Value> = match metrics.get("nodes").and_then(Value::as_object) {
        Some(nodes) => nodes.values().collect(),
        None => vec![&metrics],
    };
    run.set(
        "engine.compactions",
        node_payloads
            .iter()
            .map(|m| counter(m, "fc_compactions_total"))
            .sum(),
    );
    let compaction_us: Vec<f64> = node_payloads
        .iter()
        .filter_map(|m| histogram_p50_us(m, "fc_compaction_seconds"))
        .collect();
    run.set("engine.compaction_p50_ms", median(&compaction_us) / 1e3);
    if live.spec.fleet {
        let hops: Vec<f64> = live
            .stack
            .nodes
            .iter()
            .filter_map(|node| {
                let addr = node.addr().to_string();
                let name = fc_telemetry::labeled("fc_node_request_seconds", &[("node", &addr)]);
                histogram_p50_us(&metrics, &name)
            })
            .collect();
        run.set("cluster.node_request_p50_us", median(&hops));
    }
    Ok(())
}

/// `Engine::ingest_idented` until it stops answering `Overloaded`.
fn ingest_retrying(engine: &Engine, block: &Dataset, ident: Option<&IngestIdent>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match engine.ingest_idented(DATASET, block, None, ident) {
            Ok(_) => return true,
            Err(EngineError::Overloaded { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => {
                eprintln!("fcbench: direct ingest failed: {e}");
                return false;
            }
        }
    }
}

fn wait_applied(engine: &Engine, settle: Duration) {
    wait_quiet(settle, || {
        let stats = engine.dataset_stats(DATASET).ok()?;
        Some(stats.queue_depth_per_shard.iter().all(|&d| d == 0))
    });
}

/// The engine without a socket in front of it: per-call ingest cost (with
/// and without the write-ahead log), dispatch through `handle_request`,
/// and how fast it applies the workload's blocks.
fn direct_engine(run: &mut Run, live: &Live<'_>) -> Result<(), String> {
    let spec = live.spec;
    let blocks: Vec<&Dataset> = (0..ENGINE_BLOCKS.min(MICRO_REPS * 2))
        .map(|i| live.feed.resident.block(i))
        .collect();
    let ident = |seq: usize| {
        (!spec.light).then(|| IngestIdent {
            client: "fcbench".to_owned(),
            seq: seq as u64 + 1,
        })
    };
    let engine = Engine::new(spec.engine_config(None)).map_err(|e| format!("probe engine: {e}"))?;
    let t = &mut run.tracer;

    let started = Instant::now();
    let mut calls = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        let (ok, secs) = t.time("engine.ingest_idented", i as u64, || {
            ingest_retrying(&engine, block, ident(i).as_ref())
        });
        if ok {
            calls.push(secs);
        }
    }
    wait_applied(&engine, spec.settle());
    let applied_s = started.elapsed().as_secs_f64();
    let points: usize = blocks.iter().map(|b| b.len()).sum();

    let dispatch = repeat(t, "server.handle_request", MICRO_REPS, |i| {
        let request = ingest_request(
            spec,
            blocks[i % blocks.len()],
            (blocks.len() + i) as u64 + 1,
        );
        loop {
            match server::handle_request(&engine, request.clone()) {
                Response::Error {
                    code: Some(fc_service::ErrorCode::Overloaded),
                    ..
                } => std::thread::sleep(Duration::from_micros(200)),
                other => break other,
            }
        }
    });
    drop(engine);

    let name = if spec.light {
        "engine.light.ingest_call_us"
    } else {
        "engine.ingest_call_us"
    };
    run.set(name, micros(median(&calls)));
    run.set("engine.apply_points_per_s", points as f64 / applied_s);
    run.set("server.dispatch_us", micros(dispatch));

    if spec.persist {
        let dir = live.scratch.join("probe-engine");
        let engine = Engine::new(spec.engine_config(Some(&dir)))
            .map_err(|e| format!("probe engine: {e}"))?;
        let persisted = repeat(
            &mut run.tracer,
            "engine.ingest_idented.persist",
            MICRO_REPS,
            |i| ingest_retrying(&engine, blocks[i % blocks.len()], ident(i).as_ref()),
        );
        run.set("engine.ingest_call_persist_us", micros(persisted));
    }
    Ok(())
}

/// The compressor as the shards use it: `Plan::stream()` fed the same
/// blocks on one thread.
fn merge_reduce(run: &mut Run, live: &Live<'_>) {
    let mut rng = StdRng::seed_from_u64(run.opts.seed);
    let mut session = live.spec.plan().stream();
    let blocks = run.scaled(ENGINE_BLOCKS, 4);
    let mut points = 0;
    let (_, secs) = run.tracer.time("core.merge_reduce.push", 0, || {
        for i in 0..blocks {
            let block = live.feed.resident.block(i);
            points += block.len();
            session
                .push(&mut rng, block)
                .expect("non-empty block of one dimension");
        }
    });
    run.set("core.merge_reduce.push_points_per_s", points as f64 / secs);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.metadata().map_or(0, |m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

/// The write-ahead log alone: one idented append per block, fsync on
/// every append and on none. (The sandbox's fsync, not a device's.)
fn write_ahead_log(run: &mut Run, live: &Live<'_>) -> Result<(), String> {
    for (policy, name, span) in [
        (
            FsyncPolicy::Always,
            "persist.wal_append_us",
            "persist.wal_append",
        ),
        (
            FsyncPolicy::Never,
            "persist.wal_append_nosync_us",
            "persist.wal_append.nosync",
        ),
    ] {
        let dir = live.scratch.join(span);
        let options = LogOptions {
            fsync: policy,
            ..LogOptions::default()
        };
        let (mut log, _) = ShardLog::open(&dir, options).map_err(|e| format!("probe log: {e}"))?;
        let mut points = 0;
        let append = repeat(&mut run.tracer, span, MICRO_REPS, |i| {
            let block = live.feed.resident.block(i);
            points += block.len();
            let meta = RecordMeta {
                client: Some(("fcbench".to_owned(), i as u64 + 1)),
                trace: None,
            };
            log.append_with(block, &meta)
                .expect("append to a fresh log")
        });
        run.set(name, micros(append));
        if policy == FsyncPolicy::Always {
            run.set(
                "persist.bytes_per_point",
                dir_bytes(&dir) as f64 / points as f64,
            );
        }
    }
    Ok(())
}

/// The read path below the socket: the backend's own calls, the solve on
/// the served coreset, and the JSON codec on a `Clustered` response.
fn query_path(run: &mut Run, live: &mut Live<'_>) -> Result<(), String> {
    let backend = live.stack.backend();
    let mut seed = live.reader.fresh_seed() + 1_000_000;
    let mut next_seed = || {
        seed += 1;
        seed
    };
    let calls = call_reps(run);
    let t = &mut run.tracer;
    let coreset_s = repeat(t, "backend.coreset", calls, |_| {
        backend.coreset(DATASET, Some(next_seed()), None).is_ok()
    });
    let mut outcome = None;
    let cluster_s = repeat(t, "backend.cluster", calls, |_| {
        outcome = backend
            .cluster(DATASET, None, None, None, Some(next_seed()))
            .ok();
    });
    let (coreset_name, cluster_name) = if live.spec.fleet {
        ("cluster.coreset_call_ms", "cluster.cluster_call_ms")
    } else {
        ("engine.coreset_call_ms", "engine.cluster_call_ms")
    };

    let served = live.served.coreset.dataset();
    let solver = live.spec.plan().solver();
    let mut rng = StdRng::seed_from_u64(seed);
    let solve_s = repeat(t, "clustering.solve", calls, |_| {
        solver
            .solve(
                &mut rng,
                served,
                K,
                CostKind::KMeans,
                &SolveConfig::default(),
            )
            .is_ok()
    });

    let outcome = outcome.ok_or("direct cluster call failed")?;
    let response = Response::Clustered {
        dataset: DATASET.to_owned(),
        centers: outcome
            .solution
            .centers
            .iter()
            .map(<[f64]>::to_vec)
            .collect(),
        kind: outcome.kind,
        solver: outcome.solver,
        coreset_cost: outcome.solution.cost,
        coreset_points: outcome.coreset_points,
        seed: outcome.seed,
    };
    let line = response.to_json();
    let encode = repeat(t, "wire.json.encode_response", MICRO_REPS, |_| {
        response.to_json()
    });
    let decode = repeat(t, "wire.json.decode_response", MICRO_REPS, |_| {
        Response::from_json(&line).expect("round trip")
    });

    run.set(coreset_name, millis(coreset_s));
    run.set(cluster_name, millis(cluster_s));
    run.set("clustering.served_solve_ms", millis(solve_s));
    run.set("wire.json.encode_response_us", micros(encode));
    run.set("wire.json.decode_response_us", micros(decode));
    if live.spec.fleet {
        // The same request through the front socket, at the same stream
        // state as the direct calls above.
        let reader = &mut *live.reader;
        let front_s = repeat(&mut run.tracer, "client.cluster.front", calls, |_| {
            let seed = reader.fresh_seed();
            reader
                .client
                .cluster(DATASET, None, None, None, Some(seed))
                .is_ok()
        });
        run.set("cluster.front_overhead_ms", millis(front_s - cluster_s));
    }
    Ok(())
}

/// The coordinator's parts: each node's serving compression over its own
/// socket, the union and re-compression the coordinator then does, and a
/// short pass over a fresh fleet that keeps two copies of everything.
fn fleet(run: &mut Run, live: &mut Live<'_>, side_seconds: f64) -> Result<(), String> {
    let plan = live.spec.plan();
    let calls = call_reps(run);
    let mut seed = live.reader.fresh_seed() + 2_000_000;
    let mut node_ms = Vec::new();
    let mut slowest_ms: f64 = 0.0;
    let mut parts = Vec::new();
    for node in &live.stack.nodes {
        let mut client =
            ServiceClient::connect(node.addr()).map_err(|e| format!("node connect: {e}"))?;
        for rep in 0..calls {
            seed += 1;
            let (reply, secs) = run.tracer.time("node.compress", seed, || {
                client.compress(DATASET, None, Some(seed))
            });
            let (coreset, _, _) = reply.map_err(|e| format!("node compress: {e}"))?;
            node_ms.push(millis(secs));
            slowest_ms = slowest_ms.max(millis(secs));
            if rep == 0 {
                parts.push(coreset);
            }
        }
    }
    run.set("cluster.node_compress_p50_ms", median(&node_ms));
    run.set("cluster.node_compress_max_ms", slowest_ms);
    let mut rng = StdRng::seed_from_u64(seed);
    let union_s = repeat(&mut run.tracer, "cluster.union_recompress", calls, |_| {
        let union = Coreset::union_all(parts.iter().cloned()).expect("parts share a dimension");
        plan.compress(&mut rng, union.dataset()).map(|c| c.len())
    });
    run.set("cluster.union_recompress_ms", millis(union_s));

    // Replication 2: every block goes to two nodes, a query is answered
    // from one replica.
    let stack = Stack::boot(live.spec, None, 2)?;
    let mut producer = crate::producer::Producer::connect(stack.addr(), DATASET, "fcbench", true)
        .map_err(|e| format!("r2 producer: {e}"))?;
    let mut reader = ServiceClient::connect(stack.addr()).map_err(|e| format!("r2 reader: {e}"))?;
    let started = Instant::now();
    let mut sent = 0;
    while sent < 4 || started.elapsed().as_secs_f64() < side_seconds / 2.0 {
        producer.send(live.feed.resident.block(sent), &mut run.tracer);
        sent += 1;
    }
    let drained = producer.drain(Duration::ZERO, &mut run.tracer);
    let ingest_s = started.elapsed().as_secs_f64();
    run.op(drained.is_some());
    run.set(
        "cluster.r2.ingest_points_per_s",
        producer.counts.points_acked as f64 / ingest_s,
    );
    let reads = Instant::now();
    let mut query_ms = Vec::new();
    while query_ms.len() < 3 || reads.elapsed().as_secs_f64() < side_seconds / 2.0 {
        seed += 1;
        let (reply, secs) = run.tracer.time("client.cluster.r2", seed, || {
            reader.cluster(DATASET, None, None, None, Some(seed))
        });
        run.op(reply.is_ok_and(|r| r.centers.len() == K));
        query_ms.push(millis(secs));
    }
    run.set("cluster.r2.query_p50_ms", median(&query_ms));
    run.attempted += producer.counts.blocks_attempted;
    run.failed += producer.counts.blocks_failed;
    drop(producer);
    drop(reader);
    stack.shutdown();
    Ok(())
}
