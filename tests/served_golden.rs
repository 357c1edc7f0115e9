//! Served answers, pinned bit for bit. A fixed sequential ingest stream
//! (coalescing off) goes into an engine and into coordinators over two
//! in-process nodes; then seeded `coreset`, `cluster` and `cost` answers
//! are hashed over the exact bits of everything they carry. Any change to
//! how a tier gathers its parts, unions them or re-compresses the union
//! moves these hashes.
//!
//! Re-pin only in a commit that does nothing else, and only for a change
//! meant to move what is served.

use fast_coresets::prelude::*;
use fc_service::Backend;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The stream every setup ingests, in this order: a 6-cluster mixture in
/// 5-d, twelve blocks of 250.
fn stream() -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(3101);
    let data = fc_data::gaussian_mixture(
        &mut rng,
        fc_data::GaussianMixtureConfig {
            n: 3_000,
            d: 5,
            kappa: 6,
            gamma: 1.0,
            ..Default::default()
        },
    );
    data.chunks(250)
}

/// The same configuration on every engine, node or not: m = 40, and a
/// per-shard budget of 160 points, so shards fold and the union of their
/// summaries exceeds m.
fn engine_config(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        k: 4,
        m_scalar: 10,
        ..Default::default()
    }
}

/// FNV-1a over a run of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

/// Ingests the stream into `d`, then hashes what each query serves.
fn served(backend: &dyn Backend) -> Vec<(&'static str, u64)> {
    for block in stream() {
        backend.ingest("d", &block, None, None, None).unwrap();
    }
    let coreset = |seed, method: Option<Method>| {
        let (coreset, _, _) = backend.coreset("d", Some(seed), method).unwrap();
        let data = coreset.dataset();
        fnv(bits(data.points().as_flat()).chain(bits(data.weights())))
    };
    let solved = backend.cluster("d", None, None, None, Some(12)).unwrap();
    let solution = &solved.solution;
    let centers = Points::from_flat(
        vec![
            0.0, 0.0, 0.0, 0.0, 0.0, 50.0, 50.0, 50.0, 50.0, 50.0, 100.0, 0.0, 100.0, 0.0, 100.0,
        ],
        5,
    )
    .unwrap();
    let (cost, _, priced) = backend.cost("d", &centers, None).unwrap();
    vec![
        ("coreset", coreset(11, None)),
        (
            "coreset, lightweight",
            coreset(11, Some(Method::Lightweight)),
        ),
        (
            "cluster",
            fnv(bits(solution.centers.as_flat())
                .chain(solution.labels.iter().map(|&l| l as u64))
                .chain([solution.cost.to_bits()])),
        ),
        ("cost", fnv([cost.to_bits(), priced as u64])),
    ]
}

fn fleet(replication: usize) -> Vec<(&'static str, u64)> {
    let nodes: Vec<ServerHandle> = (0..2)
        .map(|_| {
            let engine = Engine::new(engine_config(2)).unwrap();
            ServerHandle::bind("127.0.0.1:0", engine).unwrap()
        })
        .collect();
    let mut config = CoordinatorConfig::new(nodes.iter().map(|n| n.addr().to_string()));
    config.default_plan = engine_config(2).default_plan().unwrap();
    config.replication = replication;
    let answers = served(&Coordinator::new(config).unwrap());
    for node in nodes {
        node.shutdown();
    }
    answers
}

#[test]
fn engine_answers_are_pinned() {
    let engine = Engine::new(engine_config(4)).unwrap();
    assert_eq!(
        served(&engine),
        vec![
            ("coreset", 12_344_896_236_638_661_658),
            ("coreset, lightweight", 16_000_497_907_549_538_789),
            ("cluster", 3_328_735_942_360_376_060),
            ("cost", 17_110_985_253_020_194_469),
        ]
    );
}

#[test]
fn spread_fleet_answers_are_pinned() {
    assert_eq!(
        fleet(1),
        vec![
            ("coreset", 18_071_348_381_410_914_115),
            ("coreset, lightweight", 2_543_211_300_550_529_148),
            ("cluster", 18_285_316_239_621_686_181),
            ("cost", 3_419_500_659_620_723_968),
        ]
    );
}

#[test]
fn replicated_fleet_answers_are_pinned() {
    assert_eq!(
        fleet(2),
        vec![
            ("coreset", 193_759_068_433_454_084),
            ("coreset, lightweight", 15_276_765_424_449_070_618),
            ("cluster", 6_541_384_084_923_655_231),
            ("cost", 13_657_925_689_923_089_864),
        ]
    );
}
