//! The benchmark's vocabulary: every workload and metric by name.
//! `BENCHMARK.json` at the repository root declares exactly these
//! (`fcbench manifest` prints it; `tests/smoke_schema.rs` compares).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch-frontier",
        why: "The paper's own axis, no sockets: Fast-Coreset build, solve and distortion on 200k x 20 Gaussian data at k=100; geom, quadtree, core and clustering do all the work.",
    },
    Workload {
        name: "serve-ingest-coreset",
        why: "One durable node (fsync always), fast-coreset plan, strict 1000-point binary blocks: writes wait on merge-and-reduce folds, not the wire; ends in a recovery check.",
    },
    Workload {
        name: "serve-ingest-light",
        why: "Uniform plan, coalescing engine, pipelined 100-point binary blocks: compression is free, so framing, codec, reactor, dispatch and engine queues do all the work.",
    },
    Workload {
        name: "serve-ingest-light-json",
        why: "The same light configuration over JSON lines, the permanent default dialect: float text encode and parse bound the rate; referee for changes to the text protocol.",
    },
    Workload {
        name: "serve-query",
        why: "Read-heavy on one fast-coreset node over JSON: serving compression, solve and response encoding dominate; uncached cluster queries among cache hits, cost and compress.",
    },
    Workload {
        name: "fleet-spread",
        why: "The same traffic through a coordinator over three in-process nodes: routing, fan-out, node hop codec, union, coordinator-side re-compress and solve; a query waits for the slowest node.",
    },
];

/// `(metric, bound)`: the share of the parent's median a later change may
/// worsen the metric by.
///
/// Set from the spread of ten runs under ten seeds on the 2-vCPU reference
/// box (README, "Steadiness"): the throughput and latency metrics repeat
/// within 2–6 % in quiet minutes and 10–17 % when a neighbour is busy, the
/// distortion within 0.5–3.5 %.
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("ingest_points_per_s", "points/s", Better::Higher), 0.25),
    (m("query_p50_ms", "ms", Better::Lower), 0.25),
    (m("distortion", "ratio", Better::Lower), 0.15),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    m(name, unit, Better::Lower)
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    m(name, unit, Better::Higher)
}

/// Per-layer metrics, grouped by the layer (crate or module) they time.
/// A workload whose path does not touch a layer reports 0 for its rows.
pub const PER_LAYER: &[Metric] = &[
    // Every traced run.
    lo("failed_share", "share"),
    lo("trace.overhead_share", "share"),
    lo("server.query_p90_ms", "ms"),
    hi("server.ops_per_s", "1/s"),
    // fc-data, fc-geom.
    lo("data.generate_s", "s"),
    lo("geom.jl_project_s", "s"),
    hi("geom.nearest_mpps", "M/s"),
    hi("geom.par_speedup", "ratio"),
    // fc-quadtree.
    lo("quadtree.crude_approx_s", "s"),
    lo("quadtree.reduce_spread_s", "s"),
    lo("quadtree.build_s", "s"),
    lo("quadtree.fast_kmeanspp_s", "s"),
    // fc-core.
    lo("core.coreset_build_s", "s"),
    lo("core.time_to_solution_s", "s"),
    lo("core.partition_s", "s"),
    lo("core.sensitivity_scores_s", "s"),
    lo("core.importance_sample_s", "s"),
    lo("core.stage_sum_share", "share"),
    lo("core.uniform.build_s", "s"),
    lo("core.uniform.distortion", "ratio"),
    lo("core.uniform.cout_build_s", "s"),
    lo("core.uniform.cout_distortion", "ratio"),
    lo("core.lightweight.build_s", "s"),
    lo("core.lightweight.distortion", "ratio"),
    lo("core.lightweight.cout_build_s", "s"),
    lo("core.lightweight.cout_distortion", "ratio"),
    lo("core.welterweight.build_s", "s"),
    lo("core.welterweight.distortion", "ratio"),
    lo("core.welterweight.cout_build_s", "s"),
    lo("core.welterweight.cout_distortion", "ratio"),
    lo("core.fast_coreset.build_s", "s"),
    lo("core.fast_coreset.distortion", "ratio"),
    lo("core.fast_coreset.cout_build_s", "s"),
    lo("core.fast_coreset.cout_distortion", "ratio"),
    lo("core.sensitivity.build_s", "s"),
    lo("core.sensitivity.distortion", "ratio"),
    lo("core.sensitivity.cout_build_s", "s"),
    lo("core.sensitivity.cout_distortion", "ratio"),
    lo("core.fast_coreset.build_k400_s", "s"),
    lo("core.sensitivity.build_k400_s", "s"),
    hi("core.fast_coreset.fill", "share"),
    hi("core.merge_reduce.push_points_per_s", "points/s"),
    // fc-clustering.
    lo("clustering.lloyd_full_1t_s", "s"),
    lo("clustering.lloyd_full_2t_s", "s"),
    lo("clustering.kmeanspp_s", "s"),
    lo("clustering.solve_s", "s"),
    lo("clustering.served_solve_ms", "ms"),
    // fc-service: wire, server, engine, cache.
    lo("wire.json.encode_request_us", "us"),
    lo("wire.json.decode_request_us", "us"),
    lo("wire.bin.encode_request_us", "us"),
    lo("wire.bin.decode_request_us", "us"),
    lo("wire.json.bytes_per_point", "B/point"),
    lo("wire.bin.bytes_per_point", "B/point"),
    lo("wire.json.encode_response_us", "us"),
    lo("wire.json.decode_response_us", "us"),
    hi("server.ack_points_per_s", "points/s"),
    lo("server.ingest_ack_p50_ms", "ms"),
    lo("server.ingest_ack_p99_ms", "ms"),
    lo("server.queue_wait_p50_us", "us"),
    lo("server.dispatch_us", "us"),
    hi("server.json_req_per_s", "1/s"),
    hi("server.bin_req_per_s", "1/s"),
    lo("server.cost_p50_ms", "ms"),
    lo("server.compress_p50_ms", "ms"),
    lo("engine.overloaded_retries", "count"),
    lo("engine.drain_s", "s"),
    lo("engine.ingest_call_us", "us"),
    lo("engine.ingest_call_persist_us", "us"),
    lo("engine.light.ingest_call_us", "us"),
    hi("engine.apply_points_per_s", "points/s"),
    lo("engine.compactions", "count"),
    lo("engine.compaction_p50_ms", "ms"),
    lo("engine.stored_points", "count"),
    hi("engine.served_fill", "share"),
    lo("engine.served_distortion", "ratio"),
    lo("engine.weight_error", "share"),
    lo("engine.coreset_call_ms", "ms"),
    lo("engine.cluster_call_ms", "ms"),
    lo("engine.mixed.cluster_p50_ms", "ms"),
    lo("engine.mixed.cluster_p90_ms", "ms"),
    hi("engine.mixed.ops_per_s", "1/s"),
    hi("cache.hit_share", "share"),
    lo("cache.hit_p50_ms", "ms"),
    hi("cache.mixed.hit_share", "share"),
    // fc-persist.
    lo("persist.wal_append_us", "us"),
    lo("persist.wal_append_nosync_us", "us"),
    lo("persist.bytes_per_point", "B/point"),
    lo("persist.recovery_s", "s"),
    // fc-cluster.
    lo("cluster.coreset_call_ms", "ms"),
    lo("cluster.cluster_call_ms", "ms"),
    lo("cluster.front_overhead_ms", "ms"),
    lo("cluster.node_compress_p50_ms", "ms"),
    lo("cluster.node_compress_max_ms", "ms"),
    lo("cluster.union_recompress_ms", "ms"),
    lo("cluster.node_request_p50_us", "us"),
    lo("cluster.ingest_ack_p50_ms", "ms"),
    hi("cluster.r2.ingest_points_per_s", "points/s"),
    lo("cluster.r2.query_p50_ms", "ms"),
];

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"fcbench\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (metric, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}\n",
            metric.name,
            metric.unit,
            metric.better.name()
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            metric.name,
            metric.unit,
            metric.better.name()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits the benchmark contract puts on names, units and text.
    #[test]
    fn vocabulary_is_within_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for metric in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}", metric.unit);
            assert!(seen.insert(metric.name), "{} is used twice", metric.name);
        }
        for (metric, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", metric.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().len() <= 64 * 1024);
    }
}
