//! The query path: how `coreset`, `cluster` and `cost` are answered, on
//! every tier.
//!
//! The paper's method is "compress once, then solve on the compressed
//! representation", and a union of coresets is a coreset. So a shard and a
//! machine are the same kind of part: the engine and the `fc-cluster`
//! coordinator answer the same queries the same way — union the dataset's
//! parts into a summary Ω, then solve or price on Ω — and differ only in
//! *what their parts are*. A tier supplies them through [`QuerySource`]:
//! the engine its shards' stored summaries, the coordinator each
//! answering node's serving compression (which keeps what crosses the
//! network `O(m)` per node). The rest is [`QueryPath`], once:
//!
//! 1. resolve the dataset; default `k` / objective from the effective
//!    [`Plan`](fc_core::plan::Plan) on its [`Ledger`];
//! 2. refuse `k = 0` and centers of the wrong dimension before any work
//!    (and, after it, a cost that overflowed: no dialect can carry an
//!    infinity);
//! 3. mint the cache key from the source's [`QueryState`] *before* Ω is
//!    read: a write landing after the mint moves the state on, so what
//!    is stored under the old key is unmatchable rather than stale;
//! 4. probe the cache, else build: Ω is the union of
//!    [`QuerySource::parts`] ([`aggregate_parts`]), compressed once to the
//!    plan's serving size when it is larger — under the method override
//!    if one was asked for, else the ledger's compressor — by an RNG
//!    seeded from the request seed. The solve runs on the disjoint stream
//!    `seed ^ par::SEED_STREAM` (adding solve steps never perturbs which
//!    Ω a seed serves); prices go through [`QuerySource::price`];
//! 5. store, count the query, observe `fc_op_seconds{op=…}`.
//!
//! **Caching and counters.** Explicitly seeded `coreset` / `cluster`
//! requests are cacheable (an assigned seed advances per request and can
//! never be asked for again), and so is every `cost` (pricing is
//! deterministic in the state). `fc_cache_{hits,misses}_total` and the
//! `stats` op's `cache_hits` / `cache_misses` count *probes*, not
//! requests: a seeded `cluster` miss probes its own key and then Ω's,
//! and stores both, so a later `coreset` with that seed is a hit; a
//! `cost` miss probes Ω's key only where pricing is local. Capacity 0
//! disables the cache: nothing is probed, stored or counted.
//!
//! **Effort.** Every solve that actually runs adds to three counters:
//! `fc_solve_rounds_total`, `fc_solve_distance_evals_total` (point–center
//! distances the solver measured, seeding's included) and
//! `fc_solve_distance_scan_total` (what plain seeding and plain scans
//! would have measured, `n · k · (rounds + 1)`); one minus their ratio is
//! the share of the solve that bound pruning skipped. A cache hit solves
//! nothing and adds nothing.
//!
//! **Where the serving-coreset memo goes.** Today the request seed
//! selects Ω, so two seeds at one state compress twice. The direction is
//! to key Ω by state alone and let the seed vary only the solve: a change
//! to [`QueryPath`]'s private `summary` and its `Coreset` key, and both
//! tiers get it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fc_clustering::solver::{SolveConfig, Solver};
use fc_clustering::CostKind;
use fc_core::plan::Method;
use fc_core::streaming::mapreduce::aggregate_parts;
use fc_core::{par, Coreset, FcError};
use fc_geom::Points;
use fc_telemetry::{labeled, Counter, Histogram, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cache::QueryCache;
use crate::engine::{ClusterOutcome, EngineError};
use crate::ingest::Ledger;

/// Everything an answer depends on besides the request's own parameters.
/// A cached answer is served only while all four still match.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryState {
    /// Process-unique id of this generation of the dataset
    /// ([`crate::cache::next_instance`]): a drop + re-create under the
    /// same name never matches the old generation's answers.
    pub instance: u64,
    /// Bumped on every applied (non-duplicate) ingest.
    pub version: u64,
    /// Fleet placement epoch; `0` on a single engine.
    pub epoch: u64,
    /// Fingerprint of which nodes would answer a fan-out; `0` on a single
    /// engine.
    pub health: u64,
}

/// What was asked, with every default resolved. `f64` centers are keyed
/// by bit pattern: the cache is an exact-match memo, not a numeric index.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Asked {
    Coreset {
        seed: u64,
        /// The per-request method override, when given.
        method: Option<Method>,
    },
    Cluster {
        k: usize,
        kind: CostKind,
        seed: u64,
    },
    Cost {
        kind: CostKind,
        dim: usize,
        center_bits: Vec<u64>,
    },
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct QueryKey {
    state: QueryState,
    what: Asked,
}

#[derive(Clone)]
enum QueryValue {
    Coreset(Coreset),
    Cluster(ClusterOutcome),
    /// `(cost, points priced on)`.
    Cost(f64, usize),
}

/// Where a tier's parts of a dataset come from. The plan, dimension and
/// compressor are read off the dataset's [`Ledger`].
pub trait QuerySource {
    /// The tier's record of one live dataset, built around its ledger.
    type Dataset: AsRef<Ledger>;

    /// Resolves `name`, or [`EngineError::UnknownDataset`].
    fn resolve(&self, name: &str) -> Result<Arc<Self::Dataset>, EngineError>;

    /// The state an answer computed *from now on* depends on, or `None`
    /// when answers must not be cached right now.
    fn state(&self, dataset: &Self::Dataset) -> Option<QueryState>;

    /// Coresets whose union is a coreset of everything the dataset holds,
    /// in an order fixed by the dataset's state. `seed` and `method` are
    /// the request's, for parts that compress on the way (a node's). No
    /// parts — nothing applied yet — answers [`EngineError::NoData`].
    fn parts(
        &self,
        name: &str,
        dataset: &Self::Dataset,
        seed: u64,
        method: Option<Method>,
    ) -> Result<Vec<Coreset>, EngineError>;

    /// Prices `centers`, returning `(cost, points priced on)`. The
    /// default prices locally on `summary()`, the base-seed Ω.
    fn price(
        &self,
        _name: &str,
        _dataset: &Self::Dataset,
        centers: &Points,
        kind: CostKind,
        summary: &dyn Fn() -> Result<Coreset, EngineError>,
    ) -> Result<(f64, usize), EngineError> {
        let coreset = summary()?;
        Ok((coreset.cost(centers, kind), coreset.len()))
    }
}

/// Refuses a cost that overflowed: JSON has no infinity, so no dialect
/// could carry it.
fn finite(cost: f64, what: &str) -> Result<(), EngineError> {
    if cost.is_finite() {
        Ok(())
    } else {
        Err(EngineError::InvalidArgument(format!(
            "the {what} overflows an f64 ({cost}): the points or centers are too far apart"
        )))
    }
}

/// The one implementation of `coreset` / `cluster` / `cost`, shared by
/// every [`QuerySource`]; owns the query cache and the query-side
/// counters of the tier it serves.
pub struct QueryPath {
    cache: QueryCache<QueryKey, QueryValue>,
    base_seed: u64,
    seed_counter: AtomicU64,
    total_queries: AtomicU64,
    coreset_seconds: Histogram,
    cluster_seconds: Histogram,
    cost_seconds: Histogram,
    cache_hits: Counter,
    cache_misses: Counter,
    solve_rounds: Counter,
    solve_distance_evals: Counter,
    solve_distance_scan: Counter,
}

impl QueryPath {
    /// A query path registering its metrics in `registry`. `base_seed`
    /// starts the sequence assigned to unseeded requests and selects the
    /// Ω `cost` prices on.
    pub fn new(registry: &Registry, cache_capacity: usize, base_seed: u64) -> Self {
        let op_seconds = |op: &str| {
            registry.histogram_with_edges(
                &labeled("fc_op_seconds", &[("op", op)]),
                fc_telemetry::SOLVE_OP_EDGES_US,
            )
        };
        QueryPath {
            cache: QueryCache::new(cache_capacity),
            base_seed,
            seed_counter: AtomicU64::new(0),
            total_queries: AtomicU64::new(0),
            coreset_seconds: op_seconds("coreset"),
            cluster_seconds: op_seconds("cluster"),
            cost_seconds: op_seconds("cost"),
            cache_hits: registry.counter("fc_cache_hits_total"),
            cache_misses: registry.counter("fc_cache_misses_total"),
            solve_rounds: registry.counter("fc_solve_rounds_total"),
            solve_distance_evals: registry.counter("fc_solve_distance_evals_total"),
            solve_distance_scan: registry.counter("fc_solve_distance_scan_total"),
        }
    }

    /// The next seed of the deterministic sequence unseeded requests draw
    /// from.
    pub fn next_seed(&self) -> u64 {
        self.base_seed
            .wrapping_add(self.seed_counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Lifetime `(queries answered, cache hits, cache misses)` — hits
    /// count as answered queries, failures do not.
    pub fn counts(&self) -> (u64, u64, u64) {
        let queries = self.total_queries.load(Ordering::Relaxed);
        (queries, self.cache.hits(), self.cache.misses())
    }

    /// Purges a dropped generation's answers eagerly. Its instance id is
    /// never reused, so they could not match again anyway; this just
    /// stops them squatting in the LRU.
    pub fn forget(&self, instance: u64) {
        self.cache.retain(|key| key.state.instance != instance);
    }

    /// The served coreset, the seed that produced it, and the effective
    /// method.
    pub fn coreset<S: QuerySource>(
        &self,
        source: &S,
        name: &str,
        seed: Option<u64>,
        method: Option<Method>,
    ) -> Result<(Coreset, u64, Method), EngineError> {
        self.run(&self.coreset_seconds, || {
            let dataset = source.resolve(name)?;
            let ledger: &Ledger = (*dataset).as_ref();
            let state = self.state(source, &dataset, seed.is_some());
            let seed = seed.unwrap_or_else(|| self.next_seed());
            let coreset = self.summary(source, name, &dataset, state, seed, method)?;
            // When Ω already fit the serving size it was served as-is; the
            // reported method is then the one that *would* compress it.
            let effective = method.unwrap_or(ledger.plan().method());
            Ok((coreset, seed, effective))
        })
    }

    /// Clusters Ω: k-means++ seeding plus Lloyd's refinement, on the
    /// compressed points only.
    pub fn cluster<S: QuerySource>(
        &self,
        source: &S,
        name: &str,
        k: Option<usize>,
        kind: Option<CostKind>,
        seed: Option<u64>,
    ) -> Result<ClusterOutcome, EngineError> {
        self.run(&self.cluster_seconds, || {
            let dataset = source.resolve(name)?;
            let plan = (*dataset).as_ref().plan();
            let k = k.unwrap_or_else(|| plan.k());
            if k == 0 {
                return Err(EngineError::Invalid(FcError::InvalidK));
            }
            let kind = kind.unwrap_or_else(|| plan.kind());
            let state = self.state(source, &dataset, seed.is_some());
            let seed = seed.unwrap_or_else(|| self.next_seed());
            let key = state.clone().map(|state| QueryKey {
                state,
                what: Asked::Cluster { k, kind, seed },
            });
            if let Some(QueryValue::Cluster(outcome)) = self.probe(key.as_ref()) {
                return Ok(outcome);
            }
            let coreset = self.summary(source, name, &dataset, state, seed, None)?;
            let mut rng = StdRng::seed_from_u64(seed ^ par::SEED_STREAM);
            let solution = Solver::Lloyd.solve(
                &mut rng,
                coreset.dataset(),
                k,
                kind,
                &SolveConfig::default(),
            )?;
            let rounds = solution.rounds as u64;
            self.solve_rounds.add(rounds);
            self.solve_distance_evals.add(solution.distance_evals);
            self.solve_distance_scan
                .add((coreset.len() * solution.k()) as u64 * (rounds + 1));
            finite(solution.cost, "clustering cost")?;
            let outcome = ClusterOutcome {
                solution,
                kind,
                solver: Solver::Lloyd,
                coreset_points: coreset.len(),
                seed,
            };
            self.store(key, || QueryValue::Cluster(outcome.clone()));
            Ok(outcome)
        })
    }

    /// Prices `centers`. Returns `(cost, resolved kind, points priced
    /// on)` — the kind echoes what was priced under, so the defaulting
    /// rule lives only here.
    pub fn cost<S: QuerySource>(
        &self,
        source: &S,
        name: &str,
        centers: &Points,
        kind: Option<CostKind>,
    ) -> Result<(f64, CostKind, usize), EngineError> {
        self.run(&self.cost_seconds, || {
            let dataset = source.resolve(name)?;
            let ledger: &Ledger = (*dataset).as_ref();
            let dim = ledger.dim();
            if centers.dim() != dim {
                return Err(EngineError::DimensionMismatch {
                    expected: dim,
                    got: centers.dim(),
                });
            }
            let kind = kind.unwrap_or_else(|| ledger.plan().kind());
            let state = self.state(source, &dataset, true);
            let key = state.clone().map(|state| QueryKey {
                state,
                what: Asked::Cost {
                    kind,
                    dim,
                    center_bits: centers.as_flat().iter().map(|v| v.to_bits()).collect(),
                },
            });
            if let Some(QueryValue::Cost(cost, points)) = self.probe(key.as_ref()) {
                return Ok((cost, kind, points));
            }
            let summary =
                || self.summary(source, name, &dataset, state.clone(), self.base_seed, None);
            let (cost, points) = source.price(name, &dataset, centers, kind, &summary)?;
            finite(cost, "cost")?;
            self.store(key, || QueryValue::Cost(cost, points));
            Ok((cost, kind, points))
        })
    }

    /// One request: timed into `seconds` whatever the outcome, counted as
    /// a query on success.
    fn run<T>(
        &self,
        seconds: &Histogram,
        op: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        let started = Instant::now();
        let out = op();
        seconds.observe(started.elapsed());
        if out.is_ok() {
            self.total_queries.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// The state this request's keys are minted from — read once, before
    /// Ω, and shared by every key the request probes.
    fn state<S: QuerySource>(
        &self,
        source: &S,
        dataset: &S::Dataset,
        repeatable: bool,
    ) -> Option<QueryState> {
        (repeatable && self.cache.enabled())
            .then(|| source.state(dataset))
            .flatten()
    }

    /// Ω for `(seed, method)`: from the cache, else the union of the
    /// source's parts, compressed once when it exceeds the serving size.
    fn summary<S: QuerySource>(
        &self,
        source: &S,
        name: &str,
        dataset: &S::Dataset,
        state: Option<QueryState>,
        seed: u64,
        method: Option<Method>,
    ) -> Result<Coreset, EngineError> {
        let key = state.map(|state| QueryKey {
            state,
            what: Asked::Coreset { seed, method },
        });
        if let Some(QueryValue::Coreset(coreset)) = self.probe(key.as_ref()) {
            return Ok(coreset);
        }
        let parts = source.parts(name, dataset, seed, method)?;
        let ledger: &Ledger = dataset.as_ref();
        let built = method.map(Method::build);
        let compressor = built.as_deref().unwrap_or(ledger.compressor().as_ref());
        let mut rng = StdRng::seed_from_u64(seed);
        // Parts that disagree on dimension (a fleet misconfiguration)
        // surface as `FcError::DimensionMismatch`, not a panic.
        let coreset = aggregate_parts(&mut rng, parts, compressor, &ledger.plan().params())
            .map_err(|e| match e {
                FcError::EmptyData => EngineError::NoData {
                    dataset: name.to_owned(),
                },
                e => EngineError::Invalid(e),
            })?;
        self.store(key, || QueryValue::Coreset(coreset.clone()));
        Ok(coreset)
    }

    /// Counted lookup: every probe lands in the hit or the miss counter.
    fn probe(&self, key: Option<&QueryKey>) -> Option<QueryValue> {
        let got = self.cache.get(key?);
        match got {
            Some(_) => self.cache_hits.incr(),
            None => self.cache_misses.incr(),
        }
        got
    }

    fn store(&self, key: Option<QueryKey>, value: impl FnOnce() -> QueryValue) {
        if let Some(key) = key {
            self.cache.insert(key, value());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::WritePath;
    use fc_core::methods::Uniform;
    use fc_core::plan::PlanBuilder;
    use fc_core::{CompressionParams, Compressor};
    use fc_geom::Dataset;
    use fc_telemetry::Telemetry;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Uniform sampling that counts its calls.
    #[derive(Default)]
    struct Counting(AtomicU64);

    impl Compressor for Counting {
        fn compress(
            &self,
            rng: &mut dyn rand::RngCore,
            data: &Dataset,
            params: &CompressionParams,
        ) -> Coreset {
            self.0.fetch_add(1, Ordering::Relaxed);
            Uniform.compress(rng, data, params)
        }
    }

    /// Six 2-d points whose first coordinate carries the seed they were
    /// asked for under.
    fn part(seed: u64) -> Coreset {
        let s = seed as f64;
        let flat = vec![s, 0.0, s, 1.0, s, 2.0, 50.0, 0.0, 50.0, 1.0, 50.0, 2.0];
        Coreset::new(Dataset::from_flat(flat, 2).unwrap())
    }

    /// A source with no sockets and no shards: one dataset `d` (serving
    /// size 80, compressing with a [`Counting`] default) whose parts are
    /// `copies` of [`part`].
    struct Fake {
        ledger: Arc<Ledger>,
        compressor: Arc<Counting>,
        copies: AtomicUsize,
        version: AtomicU64,
        cacheable: AtomicBool,
        /// A write lands while the parts are being read.
        ingest_during_parts: AtomicBool,
        asked: AtomicU64,
    }

    impl Fake {
        fn new() -> Self {
            let compressor = Arc::new(Counting::default());
            let write = WritePath::<Ledger>::new(
                Arc::new(Telemetry::new()),
                PlanBuilder::new(2).build().unwrap(),
                Arc::clone(&compressor) as Arc<dyn Compressor>,
            );
            Fake {
                ledger: Arc::new(write.ledger("d", 2, None)),
                compressor,
                copies: AtomicUsize::new(1),
                version: AtomicU64::new(0),
                cacheable: AtomicBool::new(true),
                ingest_during_parts: AtomicBool::new(false),
                asked: AtomicU64::new(0),
            }
        }

        fn compressions(&self) -> u64 {
            self.compressor.0.load(Ordering::Relaxed)
        }
    }

    impl QuerySource for Fake {
        type Dataset = Ledger;

        fn resolve(&self, name: &str) -> Result<Arc<Ledger>, EngineError> {
            match name {
                "d" => Ok(Arc::clone(&self.ledger)),
                other => Err(EngineError::UnknownDataset(other.to_owned())),
            }
        }

        fn state(&self, _: &Ledger) -> Option<QueryState> {
            self.cacheable.load(Ordering::Relaxed).then(|| QueryState {
                instance: 1,
                version: self.version.load(Ordering::Acquire),
                epoch: 0,
                health: 0,
            })
        }

        fn parts(
            &self,
            _name: &str,
            _: &Ledger,
            seed: u64,
            _method: Option<Method>,
        ) -> Result<Vec<Coreset>, EngineError> {
            self.asked.fetch_add(1, Ordering::Relaxed);
            if self.ingest_during_parts.load(Ordering::Relaxed) {
                self.version.fetch_add(1, Ordering::Release);
            }
            Ok(vec![part(seed); self.copies.load(Ordering::Relaxed)])
        }
    }

    fn path(cache_capacity: usize) -> QueryPath {
        QueryPath::new(&Registry::new(), cache_capacity, 100)
    }

    fn probes(path: &QueryPath) -> (u64, u64) {
        let (_, hits, misses) = path.counts();
        (hits, misses)
    }

    #[test]
    fn key_is_minted_before_the_summary_is_read() {
        let (path, source) = (path(8), Fake::new());
        // The write lands after the key's version was read: the entry is
        // stored under the old version and can never be matched again.
        source.ingest_during_parts.store(true, Ordering::Relaxed);
        path.coreset(&source, "d", Some(7), None).unwrap();
        path.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(source.asked.load(Ordering::Relaxed), 2);
        assert_eq!(probes(&path), (0, 2));
        // Once the state holds still, the repeat is a hit.
        source.ingest_during_parts.store(false, Ordering::Relaxed);
        path.coreset(&source, "d", Some(7), None).unwrap();
        path.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(source.asked.load(Ordering::Relaxed), 3);
        assert_eq!(probes(&path), (1, 3));
    }

    #[test]
    fn auto_seeded_requests_never_touch_the_cache() {
        let (path, source) = (path(8), Fake::new());
        let (_, first, _) = path.coreset(&source, "d", None, None).unwrap();
        let second = path.cluster(&source, "d", None, None, None).unwrap();
        assert_eq!(
            (first, second.seed),
            (100, 101),
            "seeds advance from the base"
        );
        assert_eq!(probes(&path), (0, 0));
        assert_eq!(path.counts().0, 2, "both still count as queries");
    }

    #[test]
    fn no_state_means_no_caching() {
        let (path, source) = (path(8), Fake::new());
        source.cacheable.store(false, Ordering::Relaxed);
        let centers = Points::from_flat(vec![0.0, 1.0], 2).unwrap();
        for _ in 0..2 {
            path.coreset(&source, "d", Some(7), None).unwrap();
            path.cluster(&source, "d", None, None, Some(7)).unwrap();
            path.cost(&source, "d", &centers, None).unwrap();
        }
        assert_eq!(source.asked.load(Ordering::Relaxed), 6);
        assert_eq!(probes(&path), (0, 0));
        // Capacity 0 is the same bypass, decided before the source is asked.
        let off = self::path(0);
        source.cacheable.store(true, Ordering::Relaxed);
        off.coreset(&source, "d", Some(7), None).unwrap();
        off.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(source.asked.load(Ordering::Relaxed), 8);
        assert_eq!(probes(&off), (0, 0));
    }

    #[test]
    fn counters_count_probes_and_a_miss_stores_its_summary() {
        let (path, source) = (path(8), Fake::new());
        // Cluster miss: its own key, then Ω's. Both stored.
        let first = path.cluster(&source, "d", None, None, Some(7)).unwrap();
        assert_eq!(probes(&path), (0, 2));
        let (omega, _, method) = path.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(probes(&path), (1, 2));
        assert_eq!(
            (omega.len(), method),
            (first.coreset_points, Method::FastCoreset)
        );
        let again = path.cluster(&source, "d", None, None, Some(7)).unwrap();
        assert_eq!(probes(&path), (2, 2));
        assert_eq!(first.solution.centers, again.solution.centers);
        // Local pricing runs on the base-seed Ω and probes for it.
        let centers = Points::from_flat(vec![0.0, 1.0, 50.0, 1.0], 2).unwrap();
        let (cost, kind, points) = path.cost(&source, "d", &centers, None).unwrap();
        assert_eq!(probes(&path), (2, 4));
        assert_eq!((kind, points), (CostKind::KMeans, 6));
        assert_eq!(path.cost(&source, "d", &centers, None).unwrap().0, cost);
        assert_eq!(probes(&path), (3, 4));
        path.coreset(&source, "d", Some(100), None).unwrap();
        assert_eq!(probes(&path), (4, 4));
        assert_eq!(source.asked.load(Ordering::Relaxed), 2);
        // A dropped generation's answers go at once.
        path.forget(1);
        path.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(probes(&path), (4, 5));
    }

    #[test]
    fn an_overflowing_cost_is_refused_and_never_stored() {
        let (path, source) = (path(8), Fake::new());
        let far = Points::from_flat(vec![1e200, 0.0], 2).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                path.cost(&source, "d", &far, None),
                Err(EngineError::InvalidArgument(msg)) if msg.contains("overflows")
            ));
        }
        // The repeat misses its own key again, and hits Ω's.
        assert_eq!(path.counts(), (0, 1, 3));
    }

    #[test]
    fn invalid_requests_are_refused_before_any_work() {
        let (path, source) = (path(8), Fake::new());
        assert_eq!(
            path.cluster(&source, "d", Some(0), None, None).unwrap_err(),
            EngineError::Invalid(FcError::InvalidK)
        );
        let three_d = Points::from_flat(vec![0.0, 1.0, 2.0], 3).unwrap();
        assert_eq!(
            path.cost(&source, "d", &three_d, None).unwrap_err(),
            EngineError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            path.coreset(&source, "ghost", None, None).unwrap_err(),
            EngineError::UnknownDataset("ghost".into())
        );
        assert_eq!(source.asked.load(Ordering::Relaxed), 0);
        assert_eq!(path.counts(), (0, 0, 0));
        assert_eq!(path.next_seed(), 100, "a refused request consumes no seed");
    }

    #[test]
    fn no_parts_answer_no_data() {
        let (path, source) = (path(8), Fake::new());
        source.copies.store(0, Ordering::Relaxed);
        let no_data = EngineError::NoData {
            dataset: "d".into(),
        };
        assert_eq!(
            path.coreset(&source, "d", Some(7), None).unwrap_err(),
            no_data
        );
        assert_eq!(
            path.cluster(&source, "d", None, None, Some(7)).unwrap_err(),
            no_data
        );
        assert_eq!(path.counts().0, 0, "a refusal is not a query");
        // Nothing was stored: once data lands the same asks build.
        source.copies.store(1, Ordering::Relaxed);
        path.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(source.asked.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_union_within_the_serving_size_is_served_as_it_is() {
        let (path, source) = (path(8), Fake::new());
        // 13 parts of six points: 78, within m = 80.
        source.copies.store(13, Ordering::Relaxed);
        let union = Coreset::union_all(vec![part(7); 13]).unwrap();
        for method in [None, Some(Method::Lightweight)] {
            let (omega, _, _) = path.coreset(&source, "d", Some(7), method).unwrap();
            assert_eq!(omega.dataset(), union.dataset());
        }
        assert_eq!(source.compressions(), 0);
    }

    #[test]
    fn a_larger_union_is_compressed_once_under_the_effective_compressor() {
        let (path, source) = (path(8), Fake::new());
        // 20 parts of six points: 120, past m = 80.
        source.copies.store(20, Ordering::Relaxed);
        let union = Coreset::union_all(vec![part(7); 20]).unwrap();
        let params = source.ledger.plan().params();
        let under = |compressor: &dyn Compressor| {
            compressor.compress(&mut StdRng::seed_from_u64(7), union.dataset(), &params)
        };
        // No override: the ledger's compressor, seeded from the request.
        let (omega, _, method) = path.coreset(&source, "d", Some(7), None).unwrap();
        assert_eq!(source.compressions(), 1);
        assert_eq!(omega.dataset(), under(&Uniform).dataset());
        assert_eq!(method, Method::FastCoreset, "the plan's method is reported");
        // An override compresses under the method it names instead.
        let lightweight = Method::Lightweight;
        let (omega, _, method) = path
            .coreset(&source, "d", Some(7), Some(lightweight))
            .unwrap();
        assert_eq!(source.compressions(), 1);
        assert_eq!(
            omega.dataset(),
            under(lightweight.build().as_ref()).dataset()
        );
        assert_eq!(method, lightweight);
    }
}
