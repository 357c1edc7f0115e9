//! End-to-end service round trip: boot a coreset server on an ephemeral
//! port, stream a Gaussian mixture into it over TCP, ask the server for a
//! k-means clustering of its served coreset, and compare the served
//! solution's cost against the ground-truth cost on the full data — the
//! serving-system version of the paper's distortion experiment.
//!
//! ```text
//! cargo run --release --example service_roundtrip
//! ```

use fast_coresets::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 8;
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 20_000,
            d: 16,
            kappa: k,
            ..Default::default()
        },
    );

    // A server on an ephemeral port, serving coresets sized for k
    // clusters. Method and solver are configured with the same enums (and
    // canonical names) the library's PlanBuilder uses.
    let config = EngineConfig {
        k,
        shards: 4,
        method: Method::FastCoreset,
        solver: Solver::Lloyd,
        ..Default::default()
    };
    let server = ServerHandle::bind("127.0.0.1:0", Engine::new(config)?)?;
    println!("server listening on {}", server.addr());

    // Stream the data in as 20 ingest batches.
    let mut client = ServiceClient::connect(server.addr())?;
    for batch in data.chunks(1_000) {
        client.ingest("gaussians", &batch, None)?;
    }
    let stats = &client.stats(Some("gaussians"))?[0];
    println!(
        "ingested {} points (weight {:.0}) across {} shards; {} stored coreset points \
         (queue depths {:?})",
        stats.ingested_points,
        stats.ingested_weight,
        stats.shards,
        stats.stored_points,
        stats.queue_depth_per_shard,
    );

    // Ask the service to cluster its compression.
    let result = client.cluster("gaussians", Some(k), Some(CostKind::KMeans), None, None)?;
    println!(
        "served k={k} clustering from {} coreset points (seed {})",
        result.coreset_points, result.seed
    );

    // Price the served centers on the full data (which only this process
    // has — the server never saw more than its compressed state).
    let full_cost = fc_clustering::cost::cost(&data, &result.centers, CostKind::KMeans);
    let served_cost = result.coreset_cost;
    let ratio = (full_cost / served_cost).max(served_cost / full_cost);
    println!("cost on full data:     {full_cost:.1}");
    println!("cost on served coreset: {served_cost:.1}");
    println!("distortion ratio:       {ratio:.4}");

    // Replaying with the served seed reproduces the clustering exactly.
    let replay = client.cluster(
        "gaussians",
        Some(k),
        Some(CostKind::KMeans),
        None,
        Some(result.seed),
    )?;
    assert_eq!(replay.centers, result.centers, "seeded replay must match");
    println!("replay with seed {} reproduced the clustering", result.seed);

    // Per-request overrides, parsed from the same canonical names the
    // library exposes: a solver by name — `hamerly` is kept as an alias of
    // `lloyd`, so under the same seed it answers with the same centers —
    // and a one-off uniform-sampled serving coreset.
    let hamerly = client.cluster(
        "gaussians",
        Some(k),
        Some(CostKind::KMeans),
        Some("hamerly".parse::<Solver>()?),
        Some(result.seed),
    )?;
    assert_eq!(hamerly.centers, result.centers, "one loop, two names");
    println!(
        "solver override: {} refined {} centers",
        hamerly.solver,
        hamerly.centers.len()
    );
    let (uniform, _, served_method) =
        client.compress("gaussians", Some(&"uniform".parse::<Method>()?), Some(1))?;
    assert_eq!(served_method, Method::Uniform, "response echoes the method");
    println!(
        "method override: {served_method} serving coreset of {} points",
        uniform.len()
    );

    // A second dataset on the same server picks its own point on the
    // settling-time/accuracy curve: a full per-dataset plan rides the
    // creating ingest, and plan-less queries resolve against it.
    let plan = PlanBuilder::new(4)
        .m_scalar(20)
        .method("merge-reduce(lightweight)".parse::<Method>()?)
        .solver(Solver::Hamerly)
        .build()?;
    println!("second dataset under plan {}", plan.to_json());
    for batch in data.chunks(2_000) {
        client.ingest("planned", &batch, Some(&plan))?;
    }
    let planned = client.cluster("planned", None, None, None, None)?;
    assert_eq!(planned.centers.len(), 4, "plan supplies k");
    assert_eq!(planned.solver, Solver::Hamerly, "plan supplies the solver");
    let effective = &client.stats(Some("planned"))?[0].plan;
    assert_eq!(effective, &plan, "stats echo the effective plan");
    println!(
        "plan-less cluster served k={} via {} (stats echo the plan back)",
        planned.centers.len(),
        planned.solver,
    );

    client.drop_dataset("gaussians")?;
    client.drop_dataset("planned")?;
    server.shutdown();
    Ok(())
}
