//! Per-dataset plans end to end: the `Plan` wire form round-trips for
//! every method (property-tested), two datasets on one
//! running server ingest and cluster under different plans with `stats`
//! reporting each effective plan, and a saturated shard answers a
//! structured `overloaded` error instead of blocking the connection.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fast_coresets::prelude::*;
use fc_core::methods::JCount;
use fc_core::plan::Method;
use fc_service::{ClientError, Engine, EngineConfig, ErrorCode, Request, Response, ServerHandle};
use proptest::prelude::*;
use rand::RngCore;

fn arb_method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Uniform),
        Just(Method::Lightweight),
        Just(Method::Welterweight(JCount::LogK)),
        Just(Method::Welterweight(JCount::SqrtK)),
        (1usize..40).prop_map(|j| Method::Welterweight(JCount::Fixed(j))),
        Just(Method::Sensitivity),
        Just(Method::FastCoreset),
        Just(Method::Bico),
        Just(Method::StreamKm),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_json_round_trips_for_every_method(
        k in 1usize..9,
        m_scalar in 1usize..50,
        method in arb_method(),
        budget in prop_oneof![Just(None), (1usize..10_000).prop_map(Some)],
    ) {
        let kind = if (k + m_scalar) % 2 == 0 {
            CostKind::KMeans
        } else {
            CostKind::KMedian
        };
        let mut builder = PlanBuilder::new(k)
            .m_scalar(m_scalar)
            .kind(kind)
            .method(method);
        if let Some(b) = budget {
            builder = builder.compaction_budget(b);
        }
        let plan = builder.build().expect("valid combination");
        // Library-level round trip.
        let line = plan.to_json();
        prop_assert_eq!(&Plan::from_json(&line).expect("wire form parses"), &plan, "{}", line);
        // Protocol-level round trip: the identical plan rides an ingest
        // request and a stats-style decode untouched.
        let request = Request::Ingest {
            dataset: "d".into(),
            block: fc_core::PointBlock::new(vec![0.0, 1.0], 2, None).unwrap(),
            plan: Some(plan.clone()),
            ident: None,
            epoch: None,
        };
        let decoded = Request::from_json(&request.to_json()).expect("request parses");
        prop_assert_eq!(decoded, request);
    }
}

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

#[test]
fn two_datasets_run_different_plans_on_one_server() {
    // The server's default plan is deliberately unlike either per-dataset
    // plan, so any default leaking through would fail the assertions.
    let server = ServerHandle::bind(
        "127.0.0.1:0",
        Engine::new(EngineConfig {
            shards: 2,
            k: 8,
            m_scalar: 40,
            method: Method::FastCoreset,
            ..Default::default()
        })
        .unwrap(),
    )
    .unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();

    let fast = PlanBuilder::new(2)
        .m_scalar(10)
        .method(Method::Uniform)
        .build()
        .unwrap();
    let accurate = PlanBuilder::new(4)
        .m_scalar(20)
        .kind(CostKind::KMedian)
        .method(Method::Lightweight)
        .compaction_budget(2_000)
        .build()
        .unwrap();

    let data = four_blobs(250);
    for (i, block) in data.chunks(200).into_iter().enumerate() {
        // The creating ingest carries the plan; repeating it is idempotent.
        let plan = if i == 0 { Some(&fast) } else { None };
        client.ingest("fast", &block, plan).unwrap();
        client.ingest("accurate", &block, Some(&accurate)).unwrap();
    }

    // Cluster with every knob omitted: the per-dataset plans supply k and
    // the objective.
    let served_fast = client.cluster("fast", None, None, None, Some(7)).unwrap();
    assert_eq!(served_fast.centers.len(), 2);
    assert_eq!(served_fast.kind, CostKind::KMeans);
    let served_accurate = client
        .cluster("accurate", None, None, None, Some(7))
        .unwrap();
    assert_eq!(served_accurate.centers.len(), 4);
    assert_eq!(served_accurate.kind, CostKind::KMedian);

    // Serving sizes and the echoed effective method follow each plan's m
    // and method, not the engine default.
    let (fast_coreset, _, fast_method) = client.compress("fast", None, Some(1)).unwrap();
    assert!(fast_coreset.len() <= fast.m(), "{}", fast_coreset.len());
    assert_eq!(fast_method, fast.method());
    let (accurate_coreset, _, accurate_method) =
        client.compress("accurate", None, Some(1)).unwrap();
    assert!(accurate_coreset.len() <= accurate.m());
    assert_eq!(accurate_method, accurate.method());

    // `stats` reports each dataset's effective plan in the wire form.
    let stats = client.stats(None).unwrap();
    assert_eq!(stats.len(), 2);
    let by_name = |name: &str| {
        stats
            .iter()
            .find(|s| s.dataset == name)
            .unwrap_or_else(|| panic!("missing stats for {name}"))
    };
    assert_eq!(by_name("fast").plan, fast);
    assert_eq!(by_name("accurate").plan, accurate);

    // A conflicting plan for a live dataset is refused over the wire.
    let err = client
        .ingest("fast", &data, Some(&accurate))
        .expect_err("plan conflict must fail");
    match err {
        ClientError::Server { message, .. } => {
            assert!(message.contains("already runs under plan"), "{message}")
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}

#[test]
fn raw_json_ingest_with_plan_and_stats_echo() {
    // Pin the wire format itself: hand-written JSON, no client types.
    let engine = Engine::new(EngineConfig {
        shards: 1,
        ..Default::default()
    })
    .unwrap();
    let ingest = Request::from_json(
        r#"{"op":"ingest","dataset":"d","points":[[0,0],[1,0],[0,1],[8,8],[9,8],[8,9]],
            "plan":{"k":2,"m_scalar":3,"method":"uniform","solver":"lloyd","budget":64}}"#,
    )
    .unwrap();
    assert!(matches!(
        fc_service::server::handle_request(&engine, ingest),
        Response::Ingested { points: 6, .. }
    ));
    let stats = fc_service::server::handle_request(
        &engine,
        Request::from_json(r#"{"op":"stats","dataset":"d"}"#).unwrap(),
    );
    match stats {
        Response::Stats { datasets, .. } => {
            let line = datasets[0].plan.to_json();
            assert_eq!(
                line,
                r#"{"budget":64,"k":2,"kind":"kmeans","m":6,"method":"uniform","solver":"lloyd"}"#
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn retired_method_spelling_ingests_into_its_dataset() {
    // `merge-reduce(x)` names the compressor `x` names, so an ingest that
    // still spells it that way is the same plan, not a conflicting one.
    let engine = Engine::new(EngineConfig {
        shards: 1,
        ..Default::default()
    })
    .unwrap();
    let ingest = |method: &str| {
        let line = format!(
            r#"{{"op":"ingest","dataset":"d","points":[[0,0],[1,1]],"plan":{{"k":2,"method":"{method}"}}}}"#
        );
        fc_service::server::handle_request(&engine, Request::from_json(&line).unwrap())
    };
    for (method, total) in [("fast-coreset", 2), ("merge-reduce(fast-coreset)", 4)] {
        match ingest(method) {
            Response::Ingested { total_points, .. } => assert_eq!(total_points, total, "{method}"),
            other => panic!("{method}: unexpected {other:?}"),
        }
    }
}

/// A compressor that parks until released, so a shard queue can be held
/// full deterministically.
struct Gated {
    release: Arc<AtomicBool>,
}

impl Compressor for Gated {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        while !self.release.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Uniform.compress(rng, data, params)
    }
}

#[test]
fn saturated_shard_answers_overloaded_over_tcp() {
    let release = Arc::new(AtomicBool::new(false));
    let engine = Engine::with_compressor(
        EngineConfig {
            shards: 1,
            shard_queue_depth: 1,
            k: 2,
            m_scalar: 5,
            ..Default::default()
        },
        Arc::new(Gated {
            release: Arc::clone(&release),
        }),
    )
    .unwrap();
    let server = ServerHandle::bind("127.0.0.1:0", engine).unwrap();
    let mut client = ServiceClient::connect(server.addr()).unwrap();
    let batch = four_blobs(10);

    // The worker parks inside its first compression; the 1-deep queue
    // fills, and a write promptly comes back `overloaded` — the connection
    // thread is never pinned.
    let mut overloaded = None;
    for _ in 0..4 {
        match client.ingest("d", &batch, None) {
            Ok(_) => {}
            Err(e) => {
                overloaded = Some(e);
                break;
            }
        }
    }
    match overloaded.expect("a full queue must refuse ingest") {
        ClientError::Overloaded(msg) => {
            assert!(msg.contains("overloaded"), "{msg}");
        }
        other => panic!("expected the structured overloaded error, got {other:?}"),
    }
    // The error is a *structured* protocol response, not prose: verify the
    // code survives an encode/decode round trip the way a non-Rust client
    // would see it.
    let wire = Response::Error {
        message: "x".into(),
        code: Some(ErrorCode::Overloaded),
    }
    .to_json();
    assert!(wire.contains(r#""code":"overloaded""#), "{wire}");

    // Once the shard drains, the same connection ingests again.
    release.store(true, Ordering::SeqCst);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match client.ingest("d", &batch, None) {
            Ok(_) => break,
            Err(ClientError::Overloaded(_)) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "shard failed to drain after release"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
    }
    server.shutdown();
}
