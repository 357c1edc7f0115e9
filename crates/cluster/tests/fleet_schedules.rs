//! Membership changes against a live fleet of in-process nodes over
//! loopback: a dataset that an add displaces and a drain restores is
//! counted once, a newcomer is filled from the copy that holds every
//! acknowledged write, a shipped copy is still repaired for later writes,
//! a copy a change could not drop is settled by the next change,
//! migrations leave the seeds of unseeded queries alone, and seeded
//! schedules of ingests, re-sends, queries, node failures, adds and
//! drains keep every acknowledged total.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;

use fc_cluster::{Coordinator, CoordinatorConfig};
use fc_core::methods::Uniform;
use fc_core::plan::{Method, PlanBuilder};
use fc_geom::{Dataset, Points};
use fc_service::protocol::IngestIdent;
use fc_service::{Backend, Engine, EngineConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// `n` unit-weight 2-d points around `(at, at)`: integer totals, so an
/// acknowledged weight compares exactly.
fn block(n: usize, at: f64) -> Dataset {
    let flat = (0..n)
        .flat_map(|i| [at + (i % 7) as f64 * 0.1, at + (i / 7) as f64 * 0.1])
        .collect();
    Dataset::from_flat(flat, 2).unwrap()
}

fn engine(config: EngineConfig) -> Arc<Engine> {
    Arc::new(Engine::with_compressor(config, Arc::new(Uniform)).unwrap())
}

fn serve(addr: impl std::net::ToSocketAddrs, engine: &Arc<Engine>) -> ServerHandle {
    ServerHandle::bind_backend(addr, Arc::clone(engine) as Arc<dyn Backend>).unwrap()
}

fn coordinator(addrs: &[String], replication: usize, m_scalar: usize) -> Coordinator {
    let mut config = CoordinatorConfig::new(addrs.iter().cloned());
    config.replication = replication;
    config.default_plan = PlanBuilder::new(4)
        .m_scalar(m_scalar)
        .method(Method::Uniform)
        .build()
        .unwrap();
    Coordinator::new(config).unwrap()
}

/// Which nodes hold a copy of `name`.
fn holders(nodes: &[(String, Arc<Engine>)], name: &str) -> BTreeSet<String> {
    nodes
        .iter()
        .filter(|(_, engine)| engine.dataset_names().iter().any(|d| d == name))
        .map(|(addr, _)| addr.clone())
        .collect()
}

/// The weight `engine` holds of `name` (0 without a copy).
fn weight(engine: &Engine, name: &str) -> f64 {
    Backend::dataset_stats(engine, name).map_or(0.0, |s| s.ingested_weight)
}

/// One shard, k = 4, m = 160: a dataset of up to 160 points ships as its
/// raw rows, so every total stays exact through migrations.
fn exact_config() -> EngineConfig {
    EngineConfig {
        shards: 1,
        k: 4,
        m_scalar: 40,
        ..Default::default()
    }
}

/// `count` fresh nodes, each up.
fn boot_nodes(config: &EngineConfig, count: usize) -> (Vec<Node>, Vec<String>) {
    let nodes: Vec<Node> = (0..count).map(|_| Node::boot(config)).collect();
    let addrs = nodes.iter().map(|n| n.addr.to_string()).collect();
    (nodes, addrs)
}

/// Every node's address and engine, up or down.
fn engines(nodes: &[Node]) -> Vec<(String, Arc<Engine>)> {
    (nodes.iter())
        .map(|n| (n.addr.to_string(), Arc::clone(&n.engine)))
        .collect()
}

/// Every dataset reads `expected`, and no node outside a dataset's replica
/// set holds it.
fn assert_settled(coordinator: &Coordinator, nodes: &[Node], names: &[String], expected: f64) {
    for name in names {
        let stats = coordinator.dataset_stats(name).unwrap();
        assert_eq!(stats.ingested_weight, expected, "{name}");
        let replicas: BTreeSet<String> = coordinator.replicas_of(name).into_iter().collect();
        let extra: Vec<_> = (holders(&engines(nodes), name).difference(&replicas))
            .cloned()
            .collect();
        assert!(extra.is_empty(), "{name}: {extra:?} keep a copy");
    }
}

/// An add fills its newcomer from a copy that missed no write. Where the
/// replica that stays missed writes while it was down, the displaced
/// replica holds the only other copy of them: it must fill the newcomer
/// before it drops its own.
#[test]
fn an_add_fills_from_the_copy_that_holds_every_acknowledged_write() {
    let (mut nodes, addrs) = boot_nodes(&exact_config(), 4);
    let coordinator = coordinator(&addrs[..3], 2, 40);
    let names: Vec<String> = (0..48).map(|i| format!("d{i}")).collect();
    let ingest_all = |half: usize| {
        for (i, name) in names.iter().enumerate() {
            let batch = block(60, (2 * i + half) as f64);
            coordinator.ingest(name, &batch, None).unwrap();
        }
    };
    ingest_all(0);
    nodes[0].down();
    ingest_all(1);
    nodes[0].up();
    let before: Vec<Vec<String>> = names.iter().map(|n| coordinator.replicas_of(n)).collect();
    Backend::add_node(&coordinator, &addrs[3], None).unwrap();
    let stale_stays = (names.iter().zip(&before))
        .filter(|(name, old)| {
            let new = coordinator.replicas_of(name);
            old.contains(&addrs[0]) && new.contains(&addrs[0]) && new.contains(&addrs[3])
        })
        .count();
    assert!(stale_stays > 0, "the add displaced no complete replica");
    assert_settled(&coordinator, &nodes, &names, 120.0);
    for node in nodes {
        node.shutdown();
    }
}

/// A copy a membership change shipped holds the batches acknowledged
/// before the change, so their re-sends must not reach it; a batch
/// acknowledged later, while its node was down, must.
#[test]
fn a_shipped_copy_is_repaired_for_later_writes_only() {
    let (mut nodes, addrs) = boot_nodes(&exact_config(), 4);
    let coordinator = coordinator(&addrs[..3], 2, 40);
    let names: Vec<String> = (0..16).map(|i| format!("d{i}")).collect();
    let ident = |client: &str, seq: usize| IngestIdent {
        client: client.into(),
        seq: seq as u64,
    };
    let send = |name: &str, batch: &Dataset, ident: &IngestIdent| {
        Backend::ingest(&coordinator, name, batch, None, Some(ident), None).unwrap()
    };
    for (i, name) in names.iter().enumerate() {
        assert!(!send(name, &block(120, i as f64), &ident("a", i + 1)).duplicate);
    }
    Backend::add_node(&coordinator, &addrs[3], None).unwrap();
    let i = (names.iter())
        .position(|n| coordinator.replicas_of(n).contains(&addrs[3]))
        .expect("the add placed nothing on the newcomer");
    let (name, newcomer) = (&names[i], Arc::clone(&nodes[3].engine));
    assert_eq!(weight(&newcomer, name), 120.0);
    nodes[3].down();
    let late = block(30, 99.0);
    assert!(!send(name, &late, &ident("b", 1)).duplicate);
    nodes[3].up();
    assert!(send(name, &block(120, i as f64), &ident("a", i + 1)).duplicate);
    assert_eq!(
        weight(&newcomer, name),
        120.0,
        "a shipped batch was applied again"
    );
    assert!(send(name, &late, &ident("b", 1)).duplicate);
    assert_eq!(
        weight(&newcomer, name),
        150.0,
        "the later batch was not repaired"
    );
    assert_eq!(
        coordinator.dataset_stats(name).unwrap().ingested_weight,
        150.0
    );
    for node in nodes {
        node.shutdown();
    }
}

/// A copy an add could not drop, because its node was down, is settled
/// by the next change: a drain that puts the node back into the set keeps
/// the copy as it is (a migrated coreset on top would count it twice),
/// and an add that does not drops it.
#[test]
fn a_copy_a_change_could_not_drop_is_settled_by_the_next() {
    let (mut nodes, addrs) = boot_nodes(&exact_config(), 6);
    let coordinator = coordinator(&addrs[..3], 2, 40);
    let names: Vec<String> = (0..48).map(|i| format!("d{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        coordinator
            .ingest(name, &block(120, i as f64), None)
            .unwrap();
    }
    for (down, add, settle) in [(0, 3, None), (1, 4, Some(5))] {
        nodes[down].down();
        Backend::add_node(&coordinator, &addrs[add], None).unwrap();
        nodes[down].up();
        let kept = (names.iter())
            .filter(|n| {
                let held = nodes[down].engine.dataset_names().contains(n);
                held && !coordinator.replicas_of(n).contains(&addrs[down])
            })
            .count();
        assert!(kept > 0, "the add displaced nothing from node {down}");
        match settle {
            None => Backend::drain_node(&coordinator, &addrs[add]).unwrap(),
            Some(next) => Backend::add_node(&coordinator, &addrs[next], None).unwrap(),
        };
        assert_settled(&coordinator, &nodes, &names, 120.0);
    }
    for node in nodes {
        node.shutdown();
    }
}

/// A replica displaced by `add_node` must not keep its copy: when the
/// matching `drain_node` puts it back into the set, a kept copy plus the
/// migrated coreset counts the dataset twice. Datasets fit in one serving
/// coreset (120 points, m = 160), so every migration ships the raw rows
/// and every total is exact.
#[test]
fn a_replica_displaced_by_an_add_and_restored_by_a_drain_counts_once() {
    let config = EngineConfig {
        shards: 1,
        k: 4,
        m_scalar: 40,
        ..Default::default()
    };
    let mut nodes: Vec<(String, Arc<Engine>)> = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..4 {
        let engine = engine(config.clone());
        let server = serve("127.0.0.1:0", &engine);
        nodes.push((server.addr().to_string(), engine));
        servers.push(server);
    }
    let addrs: Vec<String> = nodes.iter().map(|(addr, _)| addr.clone()).collect();
    let coordinator = coordinator(&addrs[..3], 2, 40);
    let names: Vec<String> = (0..16).map(|i| format!("d{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        for half in 0..2 {
            coordinator
                .ingest(name, &block(60, (i * 2 + half) as f64), None)
                .unwrap();
        }
    }
    let before: Vec<Vec<String>> = names.iter().map(|n| coordinator.replicas_of(n)).collect();
    let check = |when: &str| {
        for name in &names {
            let stats = coordinator.dataset_stats(name).unwrap();
            assert_eq!(stats.ingested_weight, 120.0, "{name} after {when}");
            let replicas: BTreeSet<String> = coordinator.replicas_of(name).into_iter().collect();
            let extra: Vec<_> = holders(&nodes, name)
                .difference(&replicas)
                .cloned()
                .collect();
            assert!(
                extra.is_empty(),
                "{name} after {when}: {extra:?} keep a copy"
            );
        }
    };
    Backend::add_node(&coordinator, &addrs[3], None).unwrap();
    let changed = names
        .iter()
        .zip(&before)
        .filter(|(name, old)| coordinator.replicas_of(name) != **old)
        .count();
    assert!(changed > 0, "the add moved no replica set");
    check("the add");
    Backend::drain_node(&coordinator, &addrs[3]).unwrap();
    check("the drain");
    for server in servers {
        server.shutdown();
    }
}

/// Migrations ship coresets under seeds of their own: an unseeded
/// `cluster` after an `add_node` that moved data draws the seed it would
/// have drawn without the add.
#[test]
fn migrations_leave_the_seeds_of_unseeded_queries_alone() {
    let config = EngineConfig {
        shards: 1,
        k: 4,
        m_scalar: 10,
        ..Default::default()
    };
    let mut seeds = Vec::new();
    for add in [false, true] {
        let engines: Vec<Arc<Engine>> = (0..3).map(|_| engine(config.clone())).collect();
        let servers: Vec<ServerHandle> = engines
            .iter()
            .map(|engine| serve("127.0.0.1:0", engine))
            .collect();
        let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
        let coordinator = coordinator(&addrs[..2], 2, 10);
        for i in 0..8 {
            coordinator
                .ingest(&format!("d{i}"), &block(80, i as f64), None)
                .unwrap();
        }
        if add {
            let (_, _, migrated) = Backend::add_node(&coordinator, &addrs[2], None).unwrap();
            assert!(migrated > 0, "the add moved nothing");
        }
        let outcome = coordinator.cluster("d0", None, None, None, None).unwrap();
        seeds.push(outcome.seed);
        for server in servers {
            server.shutdown();
        }
    }
    assert_eq!(seeds[0], seeds[1], "the add shifted the unseeded seed");
}

/// One fleet node: its address, its engine (which outlives the server
/// while the node is down) and its server while it is up.
struct Node {
    addr: SocketAddr,
    engine: Arc<Engine>,
    server: Option<ServerHandle>,
    active: bool,
}

impl Node {
    fn boot(config: &EngineConfig) -> Self {
        let engine = engine(config.clone());
        let server = serve("127.0.0.1:0", &engine);
        Node {
            addr: server.addr(),
            engine,
            server: Some(server),
            active: true,
        }
    }

    fn down(&mut self) {
        self.server.take().expect("up").shutdown();
    }

    fn up(&mut self) {
        self.server = Some(serve(self.addr, &self.engine));
    }

    fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

/// What the schedule knows about one dataset.
#[derive(Default)]
struct Acked {
    weight: f64,
    points: u64,
    /// Every `(client, seq)` sent, with its batch, for re-sends.
    sent: Vec<(IngestIdent, Dataset)>,
    /// Some migration moved a coreset of it: totals are then only bounded.
    migrated: bool,
    /// Members that missed an acknowledged write while down.
    stale: BTreeSet<String>,
}

struct Schedule {
    rng: StdRng,
    replication: usize,
    config: EngineConfig,
    nodes: Vec<Node>,
    coordinator: Coordinator,
    datasets: BTreeMap<String, Acked>,
    /// Per client, the last sequence number it used.
    seqs: BTreeMap<String, u64>,
    /// What the schedule reached: re-sends, datasets re-homed by a
    /// membership change, node failures, changes run while a node was
    /// down, and re-homings of a dataset one of whose replicas missed
    /// writes.
    reached: [usize; 5],
}

impl Schedule {
    fn new(case: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0xf1ee_7000 + case);
        let replication = 1 + (case % 2) as usize;
        let config = EngineConfig {
            shards: rng.gen_range(1..3),
            k: 4,
            m_scalar: 10,
            ..Default::default()
        };
        let nodes: Vec<Node> = (0..3).map(|_| Node::boot(&config)).collect();
        let addrs: Vec<String> = nodes.iter().map(|n| n.addr.to_string()).collect();
        let coordinator = coordinator(&addrs, replication, 10);
        Self {
            rng,
            replication,
            config,
            nodes,
            coordinator,
            datasets: BTreeMap::new(),
            seqs: BTreeMap::new(),
            reached: [0; 5],
        }
    }

    fn down(&self) -> Option<usize> {
        self.nodes.iter().position(|n| n.server.is_none())
    }

    fn ingest(&mut self, step: usize) -> Result<(), String> {
        let name = format!("d{}", self.rng.gen_range(0..4));
        let client = ["a", "b"][self.rng.gen_range(0..2)].to_owned();
        let seq = self.seqs.entry(client.clone()).or_default();
        *seq += 1;
        let ident = IngestIdent { client, seq: *seq };
        let batch = block(self.rng.gen_range(5..40), self.rng.gen_range(0..50) as f64);
        let outcome = Backend::ingest(&self.coordinator, &name, &batch, None, Some(&ident), None)
            .map_err(|e| format!("step {step}: ingest {name}: {e}"))?;
        ensure!(
            !outcome.duplicate,
            "step {step}: a fresh seq read duplicate"
        );
        let down: Option<String> = self.down().map(|i| self.nodes[i].addr.to_string());
        let replicas = self.coordinator.replicas_of(&name);
        let acked = self.datasets.entry(name).or_default();
        acked.weight += batch.len() as f64;
        acked.points += batch.len() as u64;
        if let Some(down) = down.filter(|d| replicas.contains(d)) {
            acked.stale.insert(down);
        }
        acked.sent.push((ident, batch));
        Ok(())
    }

    fn resend(&mut self, step: usize) -> Result<(), String> {
        let names: Vec<String> = self.datasets.keys().cloned().collect();
        if names.is_empty() {
            return Ok(());
        }
        let name = &names[self.rng.gen_range(0..names.len())];
        let acked = &self.datasets[name];
        let (ident, batch) = &acked.sent[self.rng.gen_range(0..acked.sent.len())];
        let outcome = Backend::ingest(&self.coordinator, name, batch, None, Some(ident), None)
            .map_err(|e| format!("step {step}: re-send {name}: {e}"))?;
        ensure!(
            outcome.duplicate
                && outcome.total_weight == acked.weight
                && outcome.total_points == acked.points,
            "step {step}: re-sent {ident:?} to {name} answered {outcome:?}"
        );
        self.reached[0] += 1;
        Ok(())
    }

    fn query(&mut self, step: usize) -> Result<(), String> {
        let Some(name) = self.datasets.keys().nth(self.rng.gen_range(0..4)).cloned() else {
            return Ok(());
        };
        let servable = self.servable(&name);
        if self.rng.gen_bool(0.5) {
            let centers = Points::from_flat(vec![0.0, 0.0, 25.0, 25.0], 2).unwrap();
            match self.coordinator.cost(&name, &centers, None) {
                Ok((cost, _, priced)) => {
                    ensure!(cost > 0.0 && priced > 0, "step {step}: cost {name} {cost}")
                }
                Err(e) => ensure!(!servable, "step {step}: cost {name}: {e}"),
            }
        } else {
            match self.coordinator.coreset(&name, Some(step as u64), None) {
                Ok((coreset, _, _)) => {
                    ensure!(!coreset.is_empty(), "step {step}: empty coreset of {name}")
                }
                Err(e) => ensure!(!servable, "step {step}: compress {name}: {e}"),
            }
        }
        Ok(())
    }

    /// Whether a live replica of `name` took every acknowledged write. A
    /// replica that missed writes while down is not repaired (only a
    /// re-send of those very batches would), so once the complete copy
    /// is down too the dataset may not answer.
    fn servable(&self, name: &str) -> bool {
        let down = self.down().map(|i| self.nodes[i].addr.to_string());
        let stale = &self.datasets[name].stale;
        self.replication == 1
            || (self.coordinator.replicas_of(name).iter())
                .any(|r| !stale.contains(r) && Some(r) != down.as_ref())
    }

    /// Runs one membership change, possibly while a node is down, and
    /// marks the datasets it re-homed. A newcomer to a replica set holds
    /// every acknowledged write only when it was up, held no copy of its
    /// own, and some old replica that holds every write was up to fill it.
    fn change(&mut self, step: usize, add: bool) -> Result<(), String> {
        let down = self.down().map(|i| self.nodes[i].addr.to_string());
        let before: BTreeMap<String, (Vec<String>, BTreeSet<String>)> = (self.datasets.keys())
            .map(|n| {
                let held = holders(&engines(&self.nodes), n);
                (n.clone(), (self.coordinator.replicas_of(n), held))
            })
            .collect();
        let active: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].active)
            .collect();
        let moved: BTreeSet<String> = if add {
            let node = Node::boot(&self.config);
            let addr = node.addr.to_string();
            self.nodes.push(node);
            Backend::add_node(&self.coordinator, &addr, None)
                .map_err(|e| format!("step {step}: add {addr}: {e}"))?;
            BTreeSet::new()
        } else {
            if active.len() <= self.replication.max(2) {
                return Ok(());
            }
            let idx = active[self.rng.gen_range(0..active.len())];
            let addr = self.nodes[idx].addr.to_string();
            // Under spread routing the drained node's share moves.
            let share: BTreeSet<String> =
                self.nodes[idx].engine.dataset_names().into_iter().collect();
            Backend::drain_node(&self.coordinator, &addr)
                .map_err(|e| format!("step {step}: drain {addr}: {e}"))?;
            self.nodes[idx].active = false;
            ensure!(
                self.replication >= 2 || self.nodes[idx].engine.dataset_names().is_empty(),
                "step {step}: drained {addr} still holds {:?}",
                self.nodes[idx].engine.dataset_names()
            );
            share
        };
        self.reached[3] += usize::from(down.is_some());
        for (name, (old, held)) in before {
            let acked = self.datasets.get_mut(&name).expect("known dataset");
            let new = self.coordinator.replicas_of(&name);
            if self.replication >= 2 && new != old || moved.contains(&name) {
                acked.migrated = true;
                self.reached[1] += 1;
            }
            if self.replication >= 2 && new != old {
                self.reached[4] += usize::from(old.iter().any(|r| acked.stale.contains(r)));
                let complete = |r: &&String| !acked.stale.contains(*r) && Some(*r) != down.as_ref();
                let filled = old.iter().any(|r| complete(&r));
                for target in new.iter().filter(|t| !old.contains(t)) {
                    if !filled || Some(target) == down.as_ref() || held.contains(target) {
                        acked.stale.insert(target.clone());
                    }
                }
            }
            acked.stale.retain(|addr| new.contains(addr));
        }
        if self.replication >= 2 && down.is_none() {
            self.check_strays(step)?;
        }
        Ok(())
    }

    /// After a change that ran with every node up, a node outside a
    /// replica set keeps a copy only while no replica holds every
    /// acknowledged write: a change drops a copy only once one does.
    fn check_strays(&self, step: usize) -> Result<(), String> {
        let engines = engines(&self.nodes);
        for (name, acked) in &self.datasets {
            let replicas: BTreeSet<String> =
                self.coordinator.replicas_of(name).into_iter().collect();
            let extra: Vec<_> = (holders(&engines, name).difference(&replicas))
                .cloned()
                .collect();
            let whole = replicas.iter().any(|r| !acked.stale.contains(r));
            ensure!(
                extra.is_empty() || !whole,
                "step {step}: {extra:?} outside {name}'s replica set hold it"
            );
        }
        Ok(())
    }

    fn fail_or_heal(&mut self) {
        if let Some(idx) = self.down() {
            self.nodes[idx].up();
        } else if self.replication >= 2 {
            let active: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| self.nodes[i].active)
                .collect();
            let idx = active[self.rng.gen_range(0..active.len())];
            self.nodes[idx].down();
            self.reached[2] += 1;
        }
    }

    /// Every dataset's fleet total against what was acknowledged.
    fn check_totals(&self, step: usize) -> Result<(), String> {
        for (name, acked) in &self.datasets {
            let stats = self
                .coordinator
                .dataset_stats(name)
                .map_err(|e| format!("step {step}: stats {name}: {e}"))?;
            let (got, want) = (stats.ingested_weight, acked.weight);
            // A migrated copy is a Uniform coreset: its total weight is
            // the source's, up to rounding.
            let slack = match acked.migrated {
                true => 1e-9 * want,
                false => 0.0,
            };
            let low = match self.servable(name) {
                true => want - slack,
                false => 0.0,
            };
            ensure!(
                got < 1.5 * want && (low..=want + slack).contains(&got),
                "step {step}: {name} reads {got} of {want} acknowledged"
            );
        }
        Ok(())
    }

    fn run(&mut self, steps: usize) -> Result<(), String> {
        for step in 0..steps {
            match self.rng.gen_range(0..20) {
                0..=8 => self.ingest(step)?,
                9..=11 => self.resend(step)?,
                12..=14 => self.query(step)?,
                15 | 16 => self.fail_or_heal(),
                17 => self.change(step, true)?,
                _ => self.change(step, false)?,
            }
            self.check_totals(step)?;
        }
        Ok(())
    }

    fn shutdown(self) {
        self.nodes.into_iter().for_each(Node::shutdown);
    }
}

/// Seeded schedules at R = 1 and R = 2. A failing schedule prints one
/// line: rerun it alone with `Schedule::new(case).run(steps)`.
#[test]
fn seeded_fleet_schedules_keep_every_acknowledged_total() {
    let (cases, steps) = if cfg!(debug_assertions) {
        (16, 30)
    } else {
        (200, 40)
    };
    let (mut failed, mut reached) = (0, [0; 5]);
    for case in 0..cases {
        let mut schedule = Schedule::new(case);
        if let Err(e) = schedule.run(steps) {
            eprintln!("Schedule::new({case}).run({steps}): {e}");
            failed += 1;
        }
        reached
            .iter_mut()
            .zip(schedule.reached)
            .for_each(|(r, c)| *r += c);
        schedule.shutdown();
    }
    assert_eq!(failed, 0, "{failed} of {cases} schedules failed");
    // Re-sends, re-homed datasets and node failures are reached about once
    // per schedule or more; changes run while a node is down and
    // re-homings of a dataset with a stale replica, at least once.
    println!("reached {reached:?}");
    assert!(
        reached[..3].iter().all(|&n| n as u64 >= cases),
        "{reached:?}"
    );
    assert!(reached[3..].iter().all(|&n| n > 0), "{reached:?}");
}
