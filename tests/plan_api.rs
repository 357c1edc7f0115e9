//! The unified Plan API contract: canonical names round-trip between
//! `Display` and `FromStr` (property-tested), the service protocol parses
//! the very same names, and invalid parameters surface as `FcError`
//! variants — never panics — through every entry point.

use fast_coresets::prelude::*;
use fc_clustering::ALL_SOLVERS;
use fc_core::methods::JCount;
use fc_core::ALL_METHODS;
use fc_service::{Request, Response};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_method() -> impl Strategy<Value = Method> {
    (0usize..9, 1usize..40).prop_map(|(i, j)| match i {
        0 => Method::Uniform,
        1 => Method::Lightweight,
        2 => Method::Welterweight(JCount::LogK),
        3 => Method::Welterweight(JCount::SqrtK),
        4 => Method::Welterweight(JCount::Fixed(j)),
        5 => Method::Sensitivity,
        6 => Method::FastCoreset,
        7 => Method::Bico,
        _ => Method::StreamKm,
    })
}

fn arb_solver() -> impl Strategy<Value = Solver> {
    (0usize..ALL_SOLVERS.len()).prop_map(|i| ALL_SOLVERS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The retired `merge-reduce(..)` wrapper, up to two layers, reads as
    /// the method it wraps.
    #[test]
    fn method_display_fromstr_round_trips(method in arb_method(), wraps in 0usize..3) {
        let name = method.to_string();
        let parsed: Method = name.parse().expect("canonical name parses");
        prop_assert_eq!(parsed, method, "{}", name);
        let wrapped = format!("{}{name}{}", "merge-reduce(".repeat(wraps), ")".repeat(wraps));
        prop_assert_eq!(wrapped.parse::<Method>().expect("retired name parses"), method);
    }

    #[test]
    fn solver_display_fromstr_round_trips(solver in arb_solver()) {
        let name = solver.to_string();
        let parsed: Solver = name.parse().expect("canonical name parses");
        prop_assert_eq!(parsed, solver, "{}", name);
    }

    #[test]
    fn wire_protocol_parses_the_library_names(
        method in arb_method(),
        solver in arb_solver(),
    ) {
        // Hand-written JSON carrying the library's canonical names — the
        // protocol must accept exactly what `Display` produced.
        let compress = format!(
            r#"{{"op":"compress","dataset":"d","method":"{method}"}}"#
        );
        match Request::from_json(&compress).expect("compress parses") {
            Request::Compress { method: parsed, .. } => {
                prop_assert_eq!(parsed, Some(method));
            }
            other => prop_assert!(false, "unexpected request {:?}", other),
        }
        let cluster = format!(
            r#"{{"op":"cluster","dataset":"d","solver":"{solver}"}}"#
        );
        match Request::from_json(&cluster).expect("cluster parses") {
            Request::Cluster { solver: parsed, .. } => {
                prop_assert_eq!(parsed, Some(solver));
            }
            other => prop_assert!(false, "unexpected request {:?}", other),
        }
    }

    #[test]
    fn plan_validation_never_panics(
        k in 0usize..6,
        m in 0usize..200,
        n in 0usize..60,
        method in arb_method(),
    ) {
        // Every (k, m, n) combination — mostly invalid — must come back as
        // Ok or FcError, never a panic.
        let built = PlanBuilder::new(k)
            .method(method)
            .coreset_size(m)
            .build();
        match built {
            Err(FcError::InvalidK) => prop_assert_eq!(k, 0),
            Err(FcError::InvalidCoresetSize { m: em, k: ek }) => {
                prop_assert!(m < k);
                prop_assert_eq!((em, ek), (m, k));
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
            Ok(plan) => {
                let flat: Vec<f64> = (0..n * 2).map(|i| i as f64).collect();
                let data = Dataset::from_flat(flat, 2).unwrap();
                let mut rng = StdRng::seed_from_u64(7);
                match plan.run(&mut rng, &data) {
                    Err(FcError::EmptyData) => prop_assert_eq!(n, 0),
                    Err(FcError::CoresetLargerThanData { m: em, n: en }) => {
                        prop_assert!(m > n);
                        prop_assert_eq!((em, en), (m, n));
                    }
                    Err(other) => prop_assert!(false, "unexpected error {:?}", other),
                    Ok(out) => prop_assert_eq!(out.solution.k(), k),
                }
            }
        }
    }
}

#[test]
fn builder_reports_the_first_violated_invariant() {
    assert_eq!(PlanBuilder::new(0).build().unwrap_err(), FcError::InvalidK);
    assert_eq!(
        PlanBuilder::new(4).coreset_size(3).build().unwrap_err(),
        FcError::InvalidCoresetSize { m: 3, k: 4 }
    );
    assert_eq!(
        PlanBuilder::new(4).m_scalar(0).build().unwrap_err(),
        FcError::InvalidCoresetSize { m: 0, k: 4 }
    );
}

#[test]
fn stream_sessions_reject_dimension_mismatches() {
    let plan = PlanBuilder::new(2)
        .method(Method::Uniform)
        .m_scalar(5)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let mut session = plan.stream();
    let flat: Vec<f64> = (0..60).map(f64::from).collect();
    session
        .push(&mut rng, &Dataset::from_flat(flat, 3).unwrap())
        .unwrap();
    let err = session
        .push(&mut rng, &Dataset::from_flat(vec![1.0, 2.0], 2).unwrap())
        .unwrap_err();
    assert_eq!(
        err,
        FcError::DimensionMismatch {
            expected: 3,
            got: 2
        }
    );
}

#[test]
fn every_base_method_has_a_distinct_canonical_name() {
    let names: Vec<String> = ALL_METHODS.iter().map(Method::to_string).collect();
    let mut deduped = names.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(deduped.len(), names.len(), "{names:?}");
    for (method, name) in ALL_METHODS.iter().zip(&names) {
        assert_eq!(name.parse::<Method>().unwrap(), *method, "{name}");
    }
}

#[test]
fn deeply_nested_method_names_are_refused_without_overflowing_the_stack() {
    // 50 000 `merge-reduce(` wrappers: a 700 KB request line, far inside
    // the frame cap, decoded on a thread with the 2 MiB stack every
    // spawned server thread gets by default.
    let depth = 50_000;
    let line = format!(
        r#"{{"op":"ingest","dataset":"d","points":[[0,0]],"plan":{{"k":2,"method":"{}uniform{}"}}}}"#,
        "merge-reduce(".repeat(depth),
        ")".repeat(depth)
    );
    let message = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            Request::from_json(&line)
                .map(|_| ())
                .unwrap_err()
                .to_string()
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(
        message.contains("unknown method"),
        "{}",
        &message[..message.len().min(200)]
    );
}

#[test]
fn served_clustering_round_trips_solver_and_queue_depth() {
    // In-process engine + protocol dispatch: the response carries the
    // solver it used and stats expose per-shard queue depths.
    let engine = Engine::new(EngineConfig {
        shards: 2,
        k: 2,
        m_scalar: 10,
        method: Method::Uniform,
        ..Default::default()
    })
    .unwrap();
    let points: Vec<f64> = (0..80)
        .flat_map(|i| [f64::from(i % 2) * 50.0, f64::from(i) * 0.001])
        .collect();
    let resp = fc_service::server::handle_request(
        &engine,
        Request::Ingest {
            dataset: "d".into(),
            block: fc_core::PointBlock::new(points, 2, None).unwrap(),
            plan: None,
            ident: None,
            epoch: None,
        },
    );
    assert!(matches!(resp, Response::Ingested { .. }), "{resp:?}");
    let resp = fc_service::server::handle_request(
        &engine,
        Request::from_json(r#"{"op":"cluster","dataset":"d","k":2,"solver":"hamerly","seed":5}"#)
            .unwrap(),
    );
    // An old solver spelling is served, and echoed, as its canonical name.
    match resp {
        Response::Clustered { solver, .. } => assert_eq!(solver, Solver::Lloyd),
        other => panic!("unexpected {other:?}"),
    }
    let resp = fc_service::server::handle_request(
        &engine,
        Request::Stats {
            dataset: Some("d".into()),
        },
    );
    match resp {
        Response::Stats { datasets, .. } => {
            assert_eq!(datasets[0].queue_depth_per_shard.len(), 2);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Bad names come back as protocol errors carrying the library's
    // message, not as panics or connection drops.
    let err =
        Request::from_json(r#"{"op":"cluster","dataset":"d","solver":"gradient"}"#).unwrap_err();
    assert!(err.message.contains("unknown solver"), "{}", err.message);
    let err = Request::from_json(r#"{"op":"compress","dataset":"d","method":"gzip"}"#).unwrap_err();
    assert!(err.message.contains("unknown method"), "{}", err.message);
}
