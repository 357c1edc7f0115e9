//! The write path: how an `ingest` is admitted, on every tier.
//!
//! A union of coresets is a coreset, so a dataset can be spread
//! round-robin over shard threads *or* over machines and still answer
//! from the union. The engine and the `fc-cluster` coordinator therefore
//! decide the same way whether a batch may join a dataset, exactly once,
//! and differ only in *where an admitted batch goes*. That difference is
//! [`WriteSink`]; the rest is [`WritePath`], once — the twin of
//! [`crate::query`] on the read side:
//!
//! 1. refuse an empty batch;
//! 2. resolve the dataset under the registry lock, or create it: a fresh
//!    [`Ledger`] (the batch's dimension; the carried [`Plan`] and its
//!    built compressor, or the tier's default pair) goes to
//!    [`WriteSink::open`];
//! 3. refuse a wrong dimension, then a conflicting plan. Plans compare by
//!    wire form, so one re-sent from `stats` (which never carries solver
//!    tuning budgets) is the same plan; a dataset sits at one point of
//!    the settling-time / accuracy curve at a time — drop it to move it;
//! 4. the exactly-once gate: an idented batch takes its dataset's
//!    watermark lock and *holds it across delivery*, so two sends racing
//!    under one client serialise. A `(client, seq)` at or below the
//!    client's watermark is a duplicate: counted, delivered again only
//!    where [`WriteSink::repairs`], acknowledged with the current totals;
//! 5. reserve the batch's weight, refusing a batch that would take the
//!    dataset's total past `f64::MAX` (it could only be acknowledged as
//!    infinity), then [`WriteSink::deliver`]. On an error nothing has
//!    moved: the refused batch stays retryable under the same `seq`;
//! 6. only after a sink accepted: advance the watermark, bump `version`
//!    (past every query key minted so far — the whole cache
//!    invalidation), add to totals and counters;
//! 7. if the ingest that *created* the dataset was refused in 3–5, take
//!    the dataset back ([`WriteSink::discard`]) — unless someone else has
//!    written through it or holds it right now.
//!
//! **The sink contract.** `open` builds the tier's half of a dataset
//! around its ledger (engine: shard workers and the on-disk layout;
//! coordinator: nothing). `deliver` answers `Ok` once an acknowledgement
//! may rest on the batch (engine: logged and queued; coordinator:
//! accepted by a node), and leaves nothing behind on `Err`. Only a
//! replicated fleet `repairs`: a re-forwarded duplicate lets a replica
//! that missed the original catch up.
//!
//! **Three rules unified on purpose**, which had drifted while the
//! sequence was kept by hand in two places:
//!
//! - *Refusal order* (1, 3, 4). The engine used to check the plan before
//!   the dimension: a batch wrong on both counts now answers
//!   `DimensionMismatch` from an engine too.
//! - *Unwind on failed create* (7). Only the coordinator did; an engine
//!   kept a phantom dataset that pinned plan and dimension, showed in
//!   `stats` and — persistent — came back at the next boot.
//! - *One set of counters.* `fc_ingest_{points,blocks,duplicates}_total`,
//!   process-wide and `{dataset=…}`, and `fc_op_seconds{op="ingest"}` are
//!   registered here; a duplicate a coordinator absorbed under spread
//!   routing used to be counted nowhere in the fleet.
//!
//! A tier's own refusal runs ahead of this path: the coordinator answers
//! `wrong_epoch` before anything else.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use fc_core::plan::Plan;
use fc_core::Compressor;
use fc_geom::Dataset;
use fc_telemetry::{labeled, Counter, Histogram, Telemetry};

use crate::backend::IngestOutcome;
use crate::cache::next_instance;
use crate::engine::EngineError;
use crate::protocol::{IngestIdent, ServerStats};
use crate::query::{QueryPath, QueryState};

/// Everything a tier records about one dataset's writes.
pub struct Ledger {
    dim: usize,
    /// The effective plan: the creating ingest's, or the tier's default.
    plan: Plan,
    /// Whether the creating ingest sent that plan.
    explicit: bool,
    /// The plan's method, built once: shard streams and every serving
    /// re-compression run it.
    compressor: Arc<dyn Compressor>,
    /// Per client, the highest sequence number acknowledged.
    clients: Mutex<HashMap<String, u64>>,
    ingested_points: AtomicU64,
    /// `(applied, admitted)`: the weight acknowledged, and that plus the
    /// weight of batches still in delivery. Admission keeps `admitted`
    /// finite, so no total ever acknowledged is infinite. Behind a mutex:
    /// ingest batches are coarse enough that contention is irrelevant.
    ingested_weight: Mutex<(f64, f64)>,
    /// Process-unique generation id ([`crate::QueryState::instance`]).
    instance: u64,
    /// Bumped on every applied batch ([`crate::QueryState::version`]).
    version: AtomicU64,
    /// Both tiers deal a dataset's batches out round-robin — the engine
    /// over its shards, the coordinator over its nodes.
    cursor: AtomicUsize,
    counters: Counters,
}

/// One set of names, process-wide (no labels) and `{dataset=…}`.
struct Counters {
    points: Counter,
    blocks: Counter,
    duplicates: Counter,
}

impl Counters {
    fn new(telemetry: &Telemetry, labels: &[(&str, &str)]) -> Self {
        let counter = |name| telemetry.registry.counter(&labeled(name, labels));
        Counters {
            points: counter("fc_ingest_points_total"),
            blocks: counter("fc_ingest_blocks_total"),
            duplicates: counter("fc_ingest_duplicates_total"),
        }
    }
}

impl Ledger {
    /// The dimension fixed by the creating batch.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dataset's effective plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The compressor the plan's method builds (the tier's default
    /// compressor when the plan is the default).
    pub(crate) fn compressor(&self) -> &Arc<dyn Compressor> {
        &self.compressor
    }

    /// The plan as the creating ingest sent it. `None` follows the
    /// default: the engine persists exactly this, the coordinator
    /// forwards exactly this.
    pub fn sent_plan(&self) -> Option<&Plan> {
        self.explicit.then_some(&self.plan)
    }

    /// This generation's process-unique id.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// What an answer computed from now on depends on: this generation,
    /// as many batches as it has applied, and the tier's placement `epoch`
    /// and `health` (`0`, `0` on a single engine).
    pub fn query_state(&self, epoch: u64, health: u64) -> QueryState {
        QueryState {
            instance: self.instance,
            version: self.version.load(Ordering::Acquire),
            epoch,
            health,
        }
    }

    /// The next slot of the dataset's round-robin deal (reduce it modulo
    /// the number of places a batch can go).
    pub fn next_slot(&self) -> usize {
        self.cursor.fetch_add(1, Ordering::Relaxed)
    }

    /// Lifetime `(points, weight)` applied.
    pub fn totals(&self) -> (u64, f64) {
        let (weight, _) = *self.weight();
        (self.ingested_points.load(Ordering::Relaxed), weight)
    }

    fn weight(&self) -> MutexGuard<'_, (f64, f64)> {
        self.ingested_weight
            .lock()
            .expect("weight counter lock is never poisoned")
    }

    /// This ledger with what a data directory already held: totals and
    /// watermarks survive a restart alongside the data they describe.
    pub(crate) fn restored(self, points: u64, weight: f64, clients: HashMap<String, u64>) -> Self {
        Ledger {
            ingested_points: AtomicU64::new(points),
            ingested_weight: Mutex::new((weight, weight)),
            clients: Mutex::new(clients),
            ..self
        }
    }
}

impl AsRef<Ledger> for Ledger {
    fn as_ref(&self) -> &Ledger {
        self
    }
}

/// Where a tier puts an admitted batch.
pub trait WriteSink {
    /// The tier's record of one live dataset, built around its ledger.
    type Dataset: AsRef<Ledger>;

    /// Builds the tier's half of a new dataset. Runs under the registry
    /// lock: creation is rare, and registering a dataset must be atomic
    /// with whatever `open` reserves for it.
    fn open(&self, name: &str, ledger: Ledger) -> Result<Self::Dataset, EngineError>;

    /// Puts an admitted batch where an acknowledgement may rest on it.
    fn deliver(
        &self,
        name: &str,
        dataset: &Self::Dataset,
        batch: &Dataset,
        ident: Option<&IngestIdent>,
    ) -> Result<(), EngineError>;

    /// Whether a recognised duplicate is delivered again, as repair,
    /// before it is acknowledged (whatever that delivery answers).
    fn repairs(&self) -> bool {
        false
    }

    /// Tears down a dataset whose creating ingest never landed. It is
    /// already unregistered, and nobody else holds it.
    fn discard(&self, name: &str, dataset: Arc<Self::Dataset>);
}

/// The one implementation of ingest admission, shared by every
/// [`WriteSink`]; owns the registry of live datasets and the write-side
/// counters of the tier it serves.
pub struct WritePath<D> {
    datasets: Mutex<BTreeMap<String, Arc<D>>>,
    default_plan: Plan,
    default_compressor: Arc<dyn Compressor>,
    telemetry: Arc<Telemetry>,
    started: Instant,
    counters: Counters,
    seconds: Histogram,
}

impl<D: AsRef<Ledger>> WritePath<D> {
    /// A write path registering its metrics in `telemetry`. Datasets whose
    /// creating ingest carries no plan run under `default_plan`, compressing
    /// with `default_compressor`.
    pub fn new(
        telemetry: Arc<Telemetry>,
        default_plan: Plan,
        default_compressor: Arc<dyn Compressor>,
    ) -> Self {
        WritePath {
            datasets: Mutex::default(),
            default_plan,
            default_compressor,
            started: Instant::now(),
            counters: Counters::new(&telemetry, &[]),
            // Ingest acks are sub-millisecond, solves run for seconds:
            // the query ops take their own ladder in `crate::query`.
            seconds: telemetry.registry.histogram_with_edges(
                &labeled("fc_op_seconds", &[("op", "ingest")]),
                fc_telemetry::FAST_OP_EDGES_US,
            ),
            telemetry,
        }
    }

    /// The plan plan-less datasets run under.
    pub fn default_plan(&self) -> &Plan {
        &self.default_plan
    }

    /// What `stats` reports under `server`: this process's lifetime
    /// counters — ingest totals read off the counters a scrape exports,
    /// beside the tier's query counts and placement epoch.
    pub fn server_stats(&self, query: &QueryPath, fleet_epoch: u64) -> ServerStats {
        let (queries, cache_hits, cache_misses) = query.counts();
        ServerStats {
            uptime_secs: self.started.elapsed().as_secs(),
            ingested_points: self.counters.points.get(),
            ingested_blocks: self.counters.blocks.get(),
            queries,
            fleet_epoch,
            cache_hits,
            cache_misses,
        }
    }

    /// Resolves `name`, or [`EngineError::UnknownDataset`].
    pub fn get(&self, name: &str) -> Result<Arc<D>, EngineError> {
        self.registry()
            .get(name)
            .cloned()
            .ok_or_else(|| EngineError::UnknownDataset(name.to_owned()))
    }

    /// Every live dataset, in name order.
    pub fn snapshot(&self) -> Vec<(String, Arc<D>)> {
        self.registry()
            .iter()
            .map(|(name, dataset)| (name.clone(), Arc::clone(dataset)))
            .collect()
    }

    /// Unregisters `name`. What held the data is the caller's to free.
    pub fn remove(&self, name: &str) -> Option<Arc<D>> {
        self.registry().remove(name)
    }

    /// Unregisters everything, in name order (shutdown).
    pub fn drain(&self) -> Vec<(String, Arc<D>)> {
        std::mem::take(&mut *self.registry()).into_iter().collect()
    }

    /// A fresh ledger for a `dim`-dimensional dataset `name` created
    /// under `sent_plan`.
    pub(crate) fn ledger(&self, name: &str, dim: usize, sent_plan: Option<Plan>) -> Ledger {
        let compressor = match &sent_plan {
            Some(plan) => Arc::from(plan.method().build()),
            None => Arc::clone(&self.default_compressor),
        };
        Ledger {
            dim,
            explicit: sent_plan.is_some(),
            plan: sent_plan.unwrap_or_else(|| self.default_plan.clone()),
            compressor,
            clients: Mutex::default(),
            ingested_points: AtomicU64::new(0),
            ingested_weight: Mutex::new((0.0, 0.0)),
            instance: next_instance(),
            version: AtomicU64::new(0),
            cursor: AtomicUsize::new(0),
            counters: Counters::new(&self.telemetry, &[("dataset", name)]),
        }
    }

    /// Registers a dataset rebuilt from disk.
    pub(crate) fn adopt(&self, name: String, dataset: D) {
        self.registry().insert(name, Arc::new(dataset));
    }

    /// Admits one batch into `name`, creating the dataset on first use.
    /// Module docs have the sequence.
    pub fn ingest<S: WriteSink<Dataset = D>>(
        &self,
        sink: &S,
        name: &str,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&IngestIdent>,
    ) -> Result<IngestOutcome, EngineError> {
        let started = Instant::now();
        let out = (|| {
            if batch.is_empty() {
                return Err(EngineError::InvalidArgument("empty ingest batch".into()));
            }
            let (dataset, created) = {
                let mut datasets = self.registry();
                match datasets.get(name) {
                    Some(existing) => (Arc::clone(existing), false),
                    None => {
                        let ledger = self.ledger(name, batch.dim(), plan.cloned());
                        let opened = Arc::new(sink.open(name, ledger)?);
                        datasets.insert(name.to_owned(), Arc::clone(&opened));
                        (opened, true)
                    }
                }
            };
            let out = self.apply(sink, name, &dataset, batch, plan, ident);
            if created && out.is_err() {
                self.unwind(sink, name, dataset);
            }
            out
        })();
        self.seconds.observe(started.elapsed());
        out
    }

    /// Steps 3–6 against a resolved dataset.
    fn apply<S: WriteSink<Dataset = D>>(
        &self,
        sink: &S,
        name: &str,
        dataset: &D,
        batch: &Dataset,
        plan: Option<&Plan>,
        ident: Option<&IngestIdent>,
    ) -> Result<IngestOutcome, EngineError> {
        let ledger: &Ledger = dataset.as_ref();
        if batch.dim() != ledger.dim {
            return Err(EngineError::DimensionMismatch {
                expected: ledger.dim,
                got: batch.dim(),
            });
        }
        if let Some(requested) = plan {
            if requested.to_value() != ledger.plan.to_value() {
                return Err(EngineError::InvalidArgument(format!(
                    "dataset `{name}` already runs under plan {}; \
                     drop it before ingesting under plan {}",
                    ledger.plan.to_json(),
                    requested.to_json(),
                )));
            }
        }
        let mut gate = ident.map(|ident| {
            let clients = ledger
                .clients
                .lock()
                .expect("client watermark lock is never poisoned");
            (clients, ident)
        });
        if let Some((clients, ident)) = &gate {
            if clients
                .get(&ident.client)
                .is_some_and(|&have| ident.seq <= have)
            {
                self.counters.duplicates.incr();
                ledger.counters.duplicates.incr();
                if sink.repairs() {
                    let _ = sink.deliver(name, dataset, batch, Some(ident));
                }
                let (total_points, total_weight) = ledger.totals();
                return Ok(IngestOutcome {
                    total_points,
                    total_weight,
                    duplicate: true,
                });
            }
        }
        // Reserve the batch's weight before anything is logged: a total
        // past `f64::MAX` could only be acknowledged as infinity.
        let weight = batch.total_weight();
        {
            let mut admitted = ledger.weight();
            if !(admitted.1 + weight).is_finite() {
                return Err(EngineError::InvalidArgument(format!(
                    "a batch of weight {weight} would take dataset `{name}`'s \
                     total weight past {:e}",
                    f64::MAX
                )));
            }
            admitted.1 += weight;
        }
        if let Err(e) = sink.deliver(name, dataset, batch, ident) {
            ledger.weight().1 -= weight;
            return Err(e);
        }
        if let Some((clients, ident)) = &mut gate {
            clients.insert(ident.client.clone(), ident.seq);
        }
        ledger.version.fetch_add(1, Ordering::Release);
        let points = batch.len() as u64;
        let total_points = ledger.ingested_points.fetch_add(points, Ordering::Relaxed) + points;
        let total_weight = {
            let mut applied = ledger.weight();
            applied.0 += weight;
            applied.0
        };
        for counters in [&self.counters, &ledger.counters] {
            counters.points.add(points);
            counters.blocks.incr();
        }
        Ok(IngestOutcome {
            total_points,
            total_weight,
            duplicate: false,
        })
    }

    /// Takes back a dataset whose creating ingest was refused — unless it
    /// has been replaced under the same name, has applied a batch since,
    /// or is held by anyone but the registry and the creator. Every other
    /// user resolved it under the registry lock and still holds the `Arc`
    /// it cloned there, so under that lock the strong count says whether a
    /// write is in flight. Erring towards keeping is the safe direction.
    fn unwind<S: WriteSink<Dataset = D>>(&self, sink: &S, name: &str, dataset: Arc<D>) {
        let removed = {
            let mut datasets = self.registry();
            let untouched = datasets.get(name).is_some_and(|current| {
                Arc::ptr_eq(current, &dataset)
                    && Arc::strong_count(current) == 2
                    && (*dataset).as_ref().totals().0 == 0
            });
            untouched.then(|| datasets.remove(name)).flatten()
        };
        drop(dataset);
        if let Some(removed) = removed {
            sink.discard(name, removed);
        }
    }

    fn registry(&self) -> MutexGuard<'_, BTreeMap<String, Arc<D>>> {
        self.datasets
            .lock()
            .expect("dataset registry lock is never poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::methods::Uniform;
    use fc_core::plan::PlanBuilder;
    use std::sync::mpsc;
    use std::time::Duration;

    type Hook = Box<dyn FnOnce() + Send>;

    /// A sink with no sockets, no shards and no disk: it counts what
    /// reaches it, can refuse deliveries, and can run a hook from inside
    /// one.
    #[derive(Default)]
    struct Sink {
        /// Deliveries to refuse before accepting again.
        refuse: AtomicU64,
        /// Runs inside the next delivery, before it is decided.
        during_deliver: Mutex<Option<Hook>>,
        repairs: bool,
        delivered: AtomicU64,
        discarded: Mutex<Vec<String>>,
    }

    impl WriteSink for Sink {
        type Dataset = Ledger;

        fn open(&self, _name: &str, ledger: Ledger) -> Result<Ledger, EngineError> {
            Ok(ledger)
        }

        fn deliver(
            &self,
            _name: &str,
            _dataset: &Ledger,
            _batch: &Dataset,
            _ident: Option<&IngestIdent>,
        ) -> Result<(), EngineError> {
            let hook = self.during_deliver.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
            let refused = self
                .refuse
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
            if refused.is_ok() {
                return Err(EngineError::Unavailable);
            }
            self.delivered.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn repairs(&self) -> bool {
            self.repairs
        }

        fn discard(&self, name: &str, dataset: Arc<Ledger>) {
            assert_eq!(
                Arc::strong_count(&dataset),
                1,
                "discard gets the last handle"
            );
            self.discarded.lock().unwrap().push(name.to_owned());
        }
    }

    fn plan(k: usize) -> Plan {
        PlanBuilder::new(k).build().unwrap()
    }

    fn path() -> WritePath<Ledger> {
        WritePath::new(Arc::new(Telemetry::new()), plan(3), Arc::new(Uniform))
    }

    fn rows(n: usize, dim: usize) -> Dataset {
        Dataset::from_flat(vec![1.0; n * dim], dim).unwrap()
    }

    fn ident(seq: u64) -> IngestIdent {
        IngestIdent {
            client: "producer".into(),
            seq,
        }
    }

    fn applied(total_points: u64) -> IngestOutcome {
        IngestOutcome {
            total_points,
            total_weight: total_points as f64,
            duplicate: false,
        }
    }

    #[test]
    fn plan_resend_is_idempotent_and_a_different_plan_is_refused() {
        let (path, sink) = (path(), Sink::default());
        let sent = plan(4);
        path.ingest(&sink, "d", &rows(5, 2), Some(&sent), None)
            .unwrap();
        let ledger = path.get("d").unwrap();
        assert_eq!(ledger.plan(), &sent);
        assert_eq!(ledger.sent_plan(), Some(&sent));
        // The same plan again, and none at all, both land.
        path.ingest(&sink, "d", &rows(5, 2), Some(&sent), None)
            .unwrap();
        assert_eq!(
            path.ingest(&sink, "d", &rows(5, 2), None, None).unwrap(),
            applied(15)
        );
        match path.ingest(&sink, "d", &rows(5, 2), Some(&plan(5)), None) {
            Err(EngineError::InvalidArgument(msg)) => {
                assert!(msg.contains("already runs under plan"), "{msg}")
            }
            other => panic!("unexpected {other:?}"),
        }
        // A plan-less dataset runs the default, and re-sending the default
        // by value is still the same plan.
        path.ingest(&sink, "plain", &rows(1, 2), None, None)
            .unwrap();
        assert_eq!(path.get("plain").unwrap().sent_plan(), None);
        path.ingest(&sink, "plain", &rows(1, 2), Some(&plan(3)), None)
            .unwrap();
        assert_eq!(sink.delivered.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn refusals_come_in_one_order_and_before_the_gate() {
        let (path, sink) = (path(), Sink::default());
        path.ingest(&sink, "d", &rows(4, 2), None, Some(&ident(1)))
            .unwrap();
        let empty = Dataset::from_flat(vec![], 3).unwrap();
        // Empty outranks everything; dimension outranks the plan; both
        // outrank the duplicate acknowledgement `seq = 1` would get.
        assert!(matches!(
            path.ingest(&sink, "d", &empty, Some(&plan(9)), Some(&ident(1))),
            Err(EngineError::InvalidArgument(msg)) if msg.contains("empty")
        ));
        assert_eq!(
            path.ingest(&sink, "d", &rows(1, 3), Some(&plan(9)), Some(&ident(1))),
            Err(EngineError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
        assert!(matches!(
            path.ingest(&sink, "d", &rows(1, 2), Some(&plan(9)), Some(&ident(1))),
            Err(EngineError::InvalidArgument(msg)) if msg.contains("already runs under plan")
        ));
        let ledger = path.get("d").unwrap();
        assert_eq!(
            (ledger.query_state(0, 0).version, ledger.totals()),
            (1, (4, 4.0))
        );
        assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);
        assert_eq!(
            path.counters.duplicates.get(),
            0,
            "a refusal is not a duplicate"
        );
        // An empty batch never creates a dataset.
        assert!(path.ingest(&sink, "ghost", &empty, None, None).is_err());
        assert!(path.get("ghost").is_err());
    }

    #[test]
    fn duplicates_are_acknowledged_with_current_totals_and_repaired_per_sink() {
        for repairs in [false, true] {
            let path = path();
            let sink = Sink {
                repairs,
                ..Sink::default()
            };
            assert_eq!(
                path.ingest(&sink, "d", &rows(4, 2), None, Some(&ident(7)))
                    .unwrap(),
                applied(4)
            );
            path.ingest(&sink, "d", &rows(2, 2), None, None).unwrap();
            // The retry, and anything older from the same client.
            for seq in [7, 3] {
                assert_eq!(
                    path.ingest(&sink, "d", &rows(4, 2), None, Some(&ident(seq)))
                        .unwrap(),
                    IngestOutcome {
                        total_points: 6,
                        total_weight: 6.0,
                        duplicate: true
                    }
                );
            }
            let redelivered = if repairs { 2 } else { 0 };
            assert_eq!(sink.delivered.load(Ordering::SeqCst), 2 + redelivered);
            let ledger = path.get("d").unwrap();
            assert_eq!(
                ledger.query_state(0, 0).version,
                2,
                "version moves on applied batches only"
            );
            let process = &path.counters;
            assert_eq!((process.points.get(), process.blocks.get()), (6, 2));
            assert_eq!(
                (
                    path.counters.duplicates.get(),
                    ledger.counters.duplicates.get()
                ),
                (2, 2),
                "both tiers export duplicates, process-wide and per dataset"
            );
            assert_eq!(
                (ledger.counters.points.get(), ledger.counters.blocks.get()),
                (6, 2)
            );
            // Another client's watermark is its own.
            let other = IngestIdent {
                client: "other".into(),
                seq: 1,
            };
            assert!(
                !path
                    .ingest(&sink, "d", &rows(1, 2), None, Some(&other))
                    .unwrap()
                    .duplicate
            );
        }
    }

    #[test]
    fn a_refused_batch_moves_nothing_and_is_retryable_under_the_same_seq() {
        let (path, sink) = (path(), Sink::default());
        path.ingest(&sink, "d", &rows(4, 2), None, Some(&ident(1)))
            .unwrap();
        sink.refuse.store(1, Ordering::SeqCst);
        assert_eq!(
            path.ingest(&sink, "d", &rows(3, 2), None, Some(&ident(2))),
            Err(EngineError::Unavailable)
        );
        let ledger = path.get("d").unwrap();
        assert_eq!(
            (ledger.query_state(0, 0).version, ledger.totals()),
            (1, (4, 4.0))
        );
        assert_eq!(path.counters.blocks.get(), 1);
        assert!(sink.discarded.lock().unwrap().is_empty());
        // Same seq again: applied, not a duplicate.
        assert_eq!(
            path.ingest(&sink, "d", &rows(3, 2), None, Some(&ident(2)))
                .unwrap(),
            applied(7)
        );
        assert_eq!(ledger.query_state(0, 0).version, 2);
    }

    #[test]
    fn a_total_weight_past_f64_max_is_refused_before_delivery() {
        let (path, sink) = (path(), Sink::default());
        let heavy = |n: usize| {
            let points = fc_geom::Points::from_flat(vec![0.0; n], 1).unwrap();
            Dataset::weighted(points, vec![1e308; n]).unwrap()
        };
        let past_max = |out: Result<IngestOutcome, EngineError>| matches!(out, Err(EngineError::InvalidArgument(msg)) if msg.contains("past"));
        // One batch whose own weight overflows, and one that overflows the
        // total; neither reaches the sink, and the first creates nothing.
        assert!(past_max(path.ingest(&sink, "d", &heavy(2), None, None)));
        assert!(path.get("d").is_err());
        path.ingest(&sink, "d", &heavy(1), None, None).unwrap();
        assert!(past_max(path.ingest(&sink, "d", &heavy(1), None, None)));
        assert_eq!(path.get("d").unwrap().totals(), (1, 1e308));
        assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);

        // A refused delivery gives its reservation back; a batch still in
        // delivery holds it.
        path.ingest(&sink, "e", &rows(1, 1), None, None).unwrap();
        sink.refuse.store(1, Ordering::SeqCst);
        assert_eq!(
            path.ingest(&sink, "e", &heavy(1), None, None),
            Err(EngineError::Unavailable)
        );
        let (path, sink) = (Arc::new(path), Arc::new(sink));
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        *sink.during_deliver.lock().unwrap() = Some(Box::new(move || {
            entered_tx.send(()).unwrap();
            released.recv().unwrap();
        }));
        let first = {
            let (path, sink) = (Arc::clone(&path), Arc::clone(&sink));
            std::thread::spawn(move || path.ingest(&*sink, "e", &heavy(1), None, None))
        };
        entered.recv().unwrap();
        assert!(past_max(path.ingest(&*sink, "e", &heavy(1), None, None)));
        release.send(()).unwrap();
        assert_eq!(first.join().unwrap().unwrap().total_weight, 1e308 + 1.0);
    }

    #[test]
    fn racing_sends_of_one_identity_apply_once() {
        let path = Arc::new(path());
        let sink = Arc::new(Sink::default());
        path.ingest(&*sink, "d", &rows(1, 2), None, None).unwrap();
        // The first send parks inside its delivery, holding the gate.
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        *sink.during_deliver.lock().unwrap() = Some(Box::new(move || {
            entered_tx.send(()).unwrap();
            released.recv().unwrap();
        }));
        let send = |started: Option<mpsc::Sender<()>>| {
            let (path, sink) = (Arc::clone(&path), Arc::clone(&sink));
            std::thread::spawn(move || {
                if let Some(started) = started {
                    started.send(()).unwrap();
                }
                path.ingest(&*sink, "d", &rows(4, 2), None, Some(&ident(1)))
                    .unwrap()
            })
        };
        let first = send(None);
        entered.recv().unwrap();
        let (started_tx, started) = mpsc::channel();
        let second = send(Some(started_tx));
        started.recv().unwrap();
        // Give the second send every chance to slip past the gate.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(sink.delivered.load(Ordering::SeqCst), 1);
        release.send(()).unwrap();
        let mut outcomes = [first.join().unwrap(), second.join().unwrap()];
        outcomes.sort_by_key(|o| o.duplicate);
        assert_eq!(outcomes[0], applied(5));
        assert_eq!(
            outcomes[1],
            IngestOutcome {
                duplicate: true,
                ..applied(5)
            }
        );
        assert_eq!(sink.delivered.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn failed_create_unwinds_the_dataset() {
        let (path, sink) = (path(), Sink::default());
        sink.refuse.store(1, Ordering::SeqCst);
        assert_eq!(
            path.ingest(&sink, "d", &rows(4, 2), Some(&plan(4)), Some(&ident(1))),
            Err(EngineError::Unavailable)
        );
        assert!(path.get("d").is_err());
        assert!(path.snapshot().is_empty());
        assert_eq!(*sink.discarded.lock().unwrap(), ["d"]);
        // Nothing stays pinned: another dimension, another plan, same seq.
        assert_eq!(
            path.ingest(&sink, "d", &rows(2, 3), Some(&plan(5)), Some(&ident(1)))
                .unwrap(),
            applied(2)
        );
        // A refused ingest into a dataset someone else created leaves it.
        sink.refuse.store(1, Ordering::SeqCst);
        assert!(path.ingest(&sink, "d", &rows(2, 3), None, None).is_err());
        assert_eq!(path.get("d").unwrap().totals().0, 2);
        assert_eq!(sink.discarded.lock().unwrap().len(), 1);
    }

    #[test]
    fn failed_create_keeps_a_dataset_someone_else_wrote_through() {
        // A batch landed through the same name while the creator's own
        // delivery was failing.
        let path = Arc::new(path());
        let sink = Arc::new(Sink::default());
        let (inner_path, inner_sink) = (Arc::clone(&path), Arc::clone(&sink));
        *sink.during_deliver.lock().unwrap() = Some(Box::new(move || {
            inner_path
                .ingest(&*inner_sink, "d", &rows(3, 2), None, None)
                .unwrap();
            inner_sink.refuse.store(1, Ordering::SeqCst);
        }));
        assert!(path.ingest(&*sink, "d", &rows(4, 2), None, None).is_err());
        assert_eq!(path.get("d").unwrap().totals().0, 3);

        // The dataset was dropped and re-created under the creator's feet.
        let (inner_path, inner_sink) = (Arc::clone(&path), Arc::clone(&sink));
        *sink.during_deliver.lock().unwrap() = Some(Box::new(move || {
            inner_path.remove("e").unwrap();
            inner_path
                .ingest(&*inner_sink, "e", &rows(1, 5), None, None)
                .unwrap();
            inner_sink.refuse.store(1, Ordering::SeqCst);
        }));
        assert!(path.ingest(&*sink, "e", &rows(4, 2), None, None).is_err());
        assert_eq!(path.get("e").unwrap().dim(), 5);

        // Another writer is mid-delivery — resolved, nothing counted yet —
        // when the creator fails.
        let (entered_tx, entered) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (inner_path, inner_sink) = (Arc::clone(&path), Arc::clone(&sink));
        *sink.during_deliver.lock().unwrap() = Some(Box::new(move || {
            // Runs in the creator's delivery: start the second writer and
            // wait until it, too, is inside `deliver`.
            let (path, sink) = (Arc::clone(&inner_path), Arc::clone(&inner_sink));
            *inner_sink.during_deliver.lock().unwrap() = Some(Box::new(move || {
                entered_tx.send(()).unwrap();
                released.recv().unwrap();
            }));
            std::thread::spawn(move || {
                path.ingest(&*sink, "f", &rows(2, 2), None, None).unwrap();
            });
            entered.recv().unwrap();
            inner_sink.refuse.store(1, Ordering::SeqCst);
        }));
        // The creator's refusal is consumed by whichever delivery decides
        // first; the creator decides while the other is still parked.
        assert!(path.ingest(&*sink, "f", &rows(4, 2), None, None).is_err());
        assert!(
            path.get("f").is_ok(),
            "an in-flight write keeps its dataset"
        );
        release.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while path.get("f").unwrap().totals().0 != 2 {
            assert!(Instant::now() < deadline, "the parked write never landed");
            std::thread::yield_now();
        }
        assert!(sink.discarded.lock().unwrap().is_empty());
    }
}
