//! Distributed coreset aggregation end to end: two real `fc-server`
//! nodes, one `fc-coordinator` backend in front of them, and one plain
//! `ServiceClient` that cannot tell the difference — the MapReduce
//! topology of the paper's Section 2.3 run over TCP.
//!
//! ```text
//! cargo run --release --example distributed_aggregation
//! ```

use fast_coresets::prelude::*;
use fc_cluster::{Coordinator, CoordinatorConfig};
use fc_service::ServerHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 8;
    let mut rng = StdRng::seed_from_u64(0xD157);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 20_000,
            d: 8,
            kappa: k,
            ..Default::default()
        },
    );

    // Two independent coreset servers — in one process here, but each
    // bound to its own listener and reachable only over TCP.
    let node = |name: &str| -> Result<ServerHandle, Box<dyn std::error::Error>> {
        let handle = ServerHandle::bind(
            "127.0.0.1:0",
            Engine::new(EngineConfig {
                k,
                shards: 2,
                ..Default::default()
            })?,
        )?;
        println!("{name} listening on {}", handle.addr());
        Ok(handle)
    };
    let node_a = node("node a")?;
    let node_b = node("node b")?;

    // The coordinator speaks the same protocol upward that it speaks
    // downward to the nodes, so it binds through the same server code.
    let config = CoordinatorConfig::new([node_a.addr().to_string(), node_b.addr().to_string()]);
    let front = ServerHandle::bind_backend("127.0.0.1:0", Arc::new(Coordinator::new(config)?))?;
    println!("coordinator listening on {}", front.addr());

    // An unchanged client, pointed at the coordinator: ingest a
    // per-dataset plan and a stream of blocks. Each block lands on one
    // node; only coreset-sized summaries will ever travel back.
    let plan = PlanBuilder::new(k)
        .m_scalar(30)
        .method(Method::FastCoreset)
        .solver(Solver::Lloyd)
        .build()?;
    let mut client = ServiceClient::connect(front.addr())?;
    for batch in data.chunks(1_000) {
        client.ingest("gaussians", &batch, Some(&plan))?;
    }

    // Per-node stats: identity, health, and how the blocks spread.
    let stats = &client.stats(Some("gaussians"))?[0];
    println!(
        "ingested {} points over {} nodes:",
        stats.ingested_points,
        stats.nodes.len()
    );
    for row in &stats.nodes {
        println!(
            "  {} [{}] {} points, {} stored",
            row.node, row.health, row.ingested_points, row.stored_points
        );
    }

    // One cluster query: the coordinator pulls each node's serving
    // compression, unions the weighted coresets, and solves on the union.
    let result = client.cluster("gaussians", None, None, None, Some(7))?;
    println!(
        "clustered k={} from {} unioned coreset points (seed {})",
        result.centers.len(),
        result.coreset_points,
        result.seed
    );

    // Price the served centers on the full data (which no single node
    // ever saw) — the aggregation must preserve the coreset guarantee.
    let full_cost = fc_clustering::cost::cost(&data, &result.centers, CostKind::KMeans);
    let ratio = (full_cost / result.coreset_cost).max(result.coreset_cost / full_cost);
    println!("cost on full data:       {full_cost:.1}");
    println!("cost on unioned coreset: {:.1}", result.coreset_cost);
    println!("distortion ratio:        {ratio:.4}");
    assert!(
        ratio < fc_service::DISTORTION_BOUND,
        "distributed aggregation must stay within the distortion bound"
    );

    // Replaying the seed reproduces the distributed result exactly.
    let replay = client.cluster("gaussians", None, None, None, Some(result.seed))?;
    assert_eq!(replay.centers, result.centers, "seeded replay must match");
    println!("replay with seed {} reproduced the clustering", result.seed);

    front.shutdown();
    node_a.shutdown();
    node_b.shutdown();
    Ok(())
}
