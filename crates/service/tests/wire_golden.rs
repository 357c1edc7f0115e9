//! The exact JSON line of one instance of every request and response
//! variant — each optional field present and absent, with and without a
//! `trace` id, `stats` with and without the per-node breakdown and the
//! server counters (whose zero counters are omitted), errors with and
//! without a `code`. JSON lines are the permanent default dialect: peers
//! of every version read these bytes, so any codec change must leave this
//! file passing unmodified. Each line must also decode back to the value
//! it was written from.

use fc_clustering::{CostKind, Solver};
use fc_core::json;
use fc_core::plan::{Method, PlanBuilder};
use fc_core::PointBlock;
use fc_service::protocol::{
    DatasetStats, ErrorCode, IngestIdent, NodeHealth, NodeStats, Request, Response, ServerStats,
};

fn plan() -> fc_core::plan::Plan {
    PlanBuilder::new(3)
        .m_scalar(15)
        .kind(CostKind::KMedian)
        .method("merge-reduce(lightweight)".parse().unwrap())
        .solver(Solver::KMedianWeiszfeld)
        .compaction_budget(900)
        .build()
        .unwrap()
}

fn requests() -> Vec<(Request, Option<&'static str>, &'static str)> {
    vec![
        (
            Request::Hello {
                proto: "bin1c".into(),
            },
            None,
            r#"{"op":"hello","proto":"bin1c"}"#,
        ),
        (
            Request::Ingest {
                dataset: "d".into(),
                block: PointBlock::new(vec![0.0, 1.5, -2.25, 3.0], 2, None).unwrap(),
                plan: None,
                ident: None,
                epoch: None,
            },
            None,
            r#"{"dataset":"d","op":"ingest","points":[[0.0,1.5],[-2.25,3.0]]}"#,
        ),
        (
            Request::Ingest {
                dataset: "a/b \"c\"".into(),
                block: PointBlock::new(vec![1e20, -0.125], 1, Some(vec![2.5, 0.0])).unwrap(),
                plan: Some(plan()),
                ident: Some(IngestIdent {
                    client: "producer-a".into(),
                    seq: u64::MAX,
                }),
                epoch: Some(7),
            },
            Some("t-ingest"),
            r#"{"client":"producer-a","dataset":"a/b \"c\"","epoch":7,"op":"ingest","plan":{"budget":900,"k":3,"kind":"kmedian","m":45,"method":"merge-reduce(lightweight)","solver":"kmedian-weiszfeld"},"points":[[100000000000000000000],[-0.125]],"seq":18446744073709551615,"trace":"t-ingest","weights":[2.5,0.0]}"#,
        ),
        (
            Request::Compress {
                dataset: "d".into(),
                method: None,
                seed: None,
            },
            None,
            r#"{"dataset":"d","op":"compress"}"#,
        ),
        (
            Request::Compress {
                dataset: "d".into(),
                method: Some("merge-reduce(welterweight(log-k))".parse().unwrap()),
                seed: Some(7),
            },
            Some("t"),
            r#"{"dataset":"d","method":"merge-reduce(welterweight(log-k))","op":"compress","seed":7,"trace":"t"}"#,
        ),
        (
            Request::Cluster {
                dataset: "d".into(),
                k: None,
                kind: None,
                solver: None,
                seed: None,
            },
            None,
            r#"{"dataset":"d","op":"cluster"}"#,
        ),
        (
            Request::Cluster {
                dataset: "d".into(),
                k: Some(4),
                kind: Some(CostKind::KMedian),
                solver: Some(Solver::KMedianWeiszfeld),
                seed: Some(99),
            },
            None,
            r#"{"dataset":"d","k":4,"kind":"kmedian","op":"cluster","seed":99,"solver":"kmedian-weiszfeld"}"#,
        ),
        (
            Request::Cost {
                dataset: "d".into(),
                centers: vec![vec![1.0, 2.0], vec![-0.5, 1e-3]],
                kind: None,
            },
            None,
            r#"{"centers":[[1.0,2.0],[-0.5,0.001]],"dataset":"d","op":"cost"}"#,
        ),
        (
            Request::Cost {
                dataset: "d".into(),
                centers: vec![vec![1.0]],
                kind: Some(CostKind::KMeans),
            },
            Some("t-cost"),
            r#"{"centers":[[1.0]],"dataset":"d","kind":"kmeans","op":"cost","trace":"t-cost"}"#,
        ),
        (Request::Stats { dataset: None }, None, r#"{"op":"stats"}"#),
        (
            Request::Stats {
                dataset: Some("d".into()),
            },
            Some("t-stats"),
            r#"{"dataset":"d","op":"stats","trace":"t-stats"}"#,
        ),
        (Request::Metrics, None, r#"{"op":"metrics"}"#),
        (
            Request::Metrics,
            Some("abc"),
            r#"{"op":"metrics","trace":"abc"}"#,
        ),
        (
            Request::DropDataset {
                dataset: "d".into(),
            },
            None,
            r#"{"dataset":"d","op":"drop_dataset"}"#,
        ),
        (
            Request::AddNode {
                addr: "127.0.0.1:4801".into(),
                capacity: None,
            },
            None,
            r#"{"addr":"127.0.0.1:4801","op":"add_node"}"#,
        ),
        (
            Request::AddNode {
                addr: "127.0.0.1:4801".into(),
                capacity: Some(2.5),
            },
            None,
            r#"{"addr":"127.0.0.1:4801","capacity":2.5,"op":"add_node"}"#,
        ),
        (
            Request::DrainNode {
                addr: "127.0.0.1:4801".into(),
            },
            None,
            r#"{"addr":"127.0.0.1:4801","op":"drain_node"}"#,
        ),
    ]
}

fn dataset_stats(nodes: Vec<NodeStats>) -> DatasetStats {
    DatasetStats {
        dataset: "d".into(),
        dim: 3,
        plan: PlanBuilder::new(4).m_scalar(25).build().unwrap(),
        shards: 2,
        ingested_points: 1000,
        ingested_weight: 1000.5,
        stored_points: 320,
        summaries_per_shard: vec![2, 1],
        queue_depth_per_shard: vec![0, 4],
        state_epoch: (3, 1000),
        recovering: false,
        nodes,
    }
}

fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::Hello {
                proto: "bin1".into(),
            },
            r#"{"kind":"hello","ok":true,"proto":"bin1"}"#,
        ),
        (
            Response::Ingested {
                dataset: "d".into(),
                points: 128,
                total_points: 1 << 40,
                total_weight: 1099511627776.5,
                duplicate: false,
            },
            r#"{"dataset":"d","kind":"ingested","ok":true,"points":128,"total_points":1099511627776,"total_weight":1099511627776.5}"#,
        ),
        (
            Response::Ingested {
                dataset: "d".into(),
                points: 0,
                total_points: 4,
                total_weight: 4.0,
                duplicate: true,
            },
            r#"{"dataset":"d","duplicate":true,"kind":"ingested","ok":true,"points":0,"total_points":4,"total_weight":4.0}"#,
        ),
        (
            Response::Coreset {
                dataset: "d".into(),
                points: vec![vec![0.125, -4.0], vec![1.0, 2.0]],
                weights: vec![17.25, 0.5],
                method: Method::FastCoreset,
                seed: 3,
            },
            r#"{"dataset":"d","kind":"coreset","method":"fast-coreset","ok":true,"points":[[0.125,-4.0],[1.0,2.0]],"seed":3,"weights":[17.25,0.5]}"#,
        ),
        (
            Response::Clustered {
                dataset: "d".into(),
                centers: vec![vec![1.0], vec![2.0]],
                kind: CostKind::KMeans,
                solver: Solver::Hamerly,
                coreset_cost: 12.5,
                coreset_points: 200,
                seed: u64::MAX,
            },
            r#"{"centers":[[1.0],[2.0]],"coreset_cost":12.5,"coreset_points":200,"dataset":"d","kind":"clustered","objective":"kmeans","ok":true,"seed":18446744073709551615,"solver":"hamerly"}"#,
        ),
        (
            Response::Cost {
                dataset: "d".into(),
                cost: 0.0625,
                kind: CostKind::KMedian,
                coreset_points: 10,
            },
            r#"{"coreset_points":10,"cost":0.0625,"dataset":"d","kind":"cost","objective":"kmedian","ok":true}"#,
        ),
        (
            Response::Stats {
                datasets: Vec::new(),
                server: None,
            },
            r#"{"datasets":[],"kind":"stats","ok":true}"#,
        ),
        (
            Response::Stats {
                datasets: vec![dataset_stats(Vec::new())],
                server: Some(ServerStats {
                    uptime_secs: 86_400,
                    ingested_points: 1 << 41,
                    ingested_blocks: 1 << 21,
                    queries: 42,
                    fleet_epoch: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                }),
            },
            r#"{"datasets":[{"dataset":"d","dim":3,"ingested_points":1000,"ingested_weight":1000.5,"plan":{"k":4,"kind":"kmeans","m":100,"method":"fast-coreset","solver":"lloyd"},"queue_depth_per_shard":[0,4],"recovering":false,"shards":2,"state_epoch":[3,1000],"stored_points":320,"summaries_per_shard":[2,1]}],"kind":"stats","ok":true,"server":{"ingested_blocks":2097152,"ingested_points":2199023255552,"queries":42,"uptime_secs":86400}}"#,
        ),
        (
            Response::Stats {
                datasets: vec![dataset_stats(vec![
                    NodeStats {
                        node: "127.0.0.1:4777".into(),
                        health: NodeHealth::Recovering,
                        last_error: None,
                        shards: 2,
                        ingested_points: 6,
                        ingested_weight: 6.0,
                        stored_points: 6,
                    },
                    NodeStats {
                        node: "127.0.0.1:4778".into(),
                        health: NodeHealth::Down,
                        last_error: Some("connect: refused".into()),
                        shards: 0,
                        ingested_points: 0,
                        ingested_weight: 0.0,
                        stored_points: 0,
                    },
                ])],
                server: Some(ServerStats {
                    uptime_secs: 10,
                    ingested_points: 0,
                    ingested_blocks: 0,
                    queries: 0,
                    fleet_epoch: 17,
                    cache_hits: 12,
                    cache_misses: 30,
                }),
            },
            r#"{"datasets":[{"dataset":"d","dim":3,"ingested_points":1000,"ingested_weight":1000.5,"nodes":[{"health":"recovering","ingested_points":6,"ingested_weight":6.0,"node":"127.0.0.1:4777","shards":2,"stored_points":6},{"health":"down","ingested_points":0,"ingested_weight":0.0,"last_error":"connect: refused","node":"127.0.0.1:4778","shards":0,"stored_points":0}],"plan":{"k":4,"kind":"kmeans","m":100,"method":"fast-coreset","solver":"lloyd"},"queue_depth_per_shard":[0,4],"recovering":false,"shards":2,"state_epoch":[3,1000],"stored_points":320,"summaries_per_shard":[2,1]}],"kind":"stats","ok":true,"server":{"cache_hits":12,"cache_misses":30,"fleet_epoch":17,"ingested_blocks":0,"ingested_points":0,"queries":0,"uptime_secs":10}}"#,
        ),
        (
            Response::Metrics {
                metrics: json::parse(r#"{"counters":{"fc_requests_total":7},"traces":[]}"#)
                    .unwrap(),
            },
            r#"{"kind":"metrics","metrics":{"counters":{"fc_requests_total":7},"traces":[]},"ok":true}"#,
        ),
        (
            Response::Dropped {
                dataset: "d".into(),
            },
            r#"{"dataset":"d","kind":"dropped","ok":true}"#,
        ),
        (
            Response::FleetUpdated {
                epoch: 4,
                nodes: 3,
                migrated: 2,
            },
            r#"{"epoch":4,"kind":"fleet_updated","migrated":2,"nodes":3,"ok":true}"#,
        ),
        (
            Response::Error {
                message: "no such dataset \"x\"".into(),
                code: None,
            },
            r#"{"kind":"error","message":"no such dataset \"x\"","ok":false}"#,
        ),
        (
            Response::Error {
                message: "shard 2 is overloaded".into(),
                code: Some(ErrorCode::Overloaded),
            },
            r#"{"code":"overloaded","kind":"error","message":"shard 2 is overloaded","ok":false}"#,
        ),
    ]
}

#[test]
fn every_request_variant_has_pinned_json_bytes() {
    for (request, trace, line) in requests() {
        assert_eq!(request.to_json_with_trace(trace), line);
        let (decoded, decoded_trace) = Request::from_json_with_trace(line).unwrap();
        assert_eq!(decoded, request, "{line}");
        assert_eq!(decoded_trace.as_deref(), trace, "{line}");
    }
}

#[test]
fn every_response_variant_has_pinned_json_bytes() {
    for (response, line) in responses() {
        assert_eq!(response.to_json(), line);
        assert_eq!(Response::from_json(line).unwrap(), response, "{line}");
    }
}
