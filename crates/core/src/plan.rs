//! The unified, fallible, solver-aware `Plan` API.
//!
//! The paper's central claim is a *spectrum* of compressors whose
//! settling-time/accuracy tradeoff should be swappable with one knob.
//! [`Method`] is that knob — it names every compressor in the workspace,
//! batch *and* streaming — and [`Solver`] is its refinement-side mirror.
//! A [`Plan`] binds both to validated parameters, so one configuration
//! drives the batch path ([`Plan::run`]), the streaming path
//! ([`Plan::stream`]), and the serving protocol of `fc-service` — which
//! ships whole plans over the wire in the stable JSON form of
//! [`Plan::to_json`] / [`Plan::from_json`], so a per-dataset plan written
//! in Rust is byte-for-byte the object an `ingest` request carries.
//!
//! ```
//! use fc_core::plan::{Method, PlanBuilder};
//! use fc_clustering::{CostKind, Solver};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = fc_geom::Dataset::from_flat((0..4000).map(f64::from).collect(), 2).unwrap();
//! let plan = PlanBuilder::new(5)
//!     .kind(CostKind::KMeans)
//!     .m_scalar(20)
//!     .method(Method::FastCoreset)
//!     .solver(Solver::Lloyd)
//!     .build()
//!     .unwrap();
//! let outcome = plan.run(&mut rng, &data).unwrap();
//! assert!(outcome.coreset.len() <= 100);
//! assert_eq!(outcome.solution.k(), 5);
//!
//! // Invalid parameters are errors, not panics:
//! assert!(PlanBuilder::new(0).build().is_err());
//! // And every method has a canonical, round-tripping name:
//! assert_eq!("fast-coreset".parse::<Method>().unwrap(), Method::FastCoreset);
//! ```

use std::str::FromStr;

use fc_clustering::solver::{SolveConfig, Solver};
use fc_clustering::{CostKind, Solution};
use fc_geom::Dataset;
use rand::Rng;

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::error::FcError;
use crate::json::{self, Value};
use crate::methods::{HstCoreset, JCount, Lightweight, StandardSensitivity, Uniform, Welterweight};
use crate::streaming::{MergeReduce, StreamingCompressor};
use crate::FastCoreset;

/// Every compression strategy in the workspace, batch and streaming,
/// selectable by one name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// Uniform sampling (fastest, no guarantee).
    Uniform,
    /// Lightweight coresets (`j = 1`).
    Lightweight,
    /// Welterweight coresets with the given seeding-size policy.
    Welterweight(JCount),
    /// Standard sensitivity sampling (`Ω(nk)` seeding).
    Sensitivity,
    /// Fast-Coresets (Algorithm 1, `Õ(nd)`).
    FastCoreset,
    /// HST-seeded k-median coreset (exact tree DP candidate solution).
    HstCoreset,
    /// BICO clustering-feature summary \[38\].
    Bico,
    /// StreamKM++ coreset tree \[1\].
    StreamKm,
    /// Merge-&-reduce composition over any base method. On a single batch
    /// this equals the base method (one block = one plain compression);
    /// its effect appears in streaming sessions and in the serving
    /// engine's per-shard streams.
    MergeReduce(Box<Method>),
}

/// The batch methods, in canonical order (suites, property tests).
pub const BASE_METHODS: [Method; 8] = [
    Method::Uniform,
    Method::Lightweight,
    Method::Welterweight(JCount::LogK),
    Method::Sensitivity,
    Method::FastCoreset,
    Method::HstCoreset,
    Method::Bico,
    Method::StreamKm,
];

impl Method {
    /// Materializes the compressor. Streaming-native methods (BICO,
    /// StreamKM++) build their static adapters, so every variant works as
    /// a batch compressor; merge-&-reduce builds its base method.
    pub fn build(&self) -> Box<dyn Compressor> {
        match self {
            Method::Uniform => Box::new(Uniform),
            Method::Lightweight => Box::new(Lightweight),
            Method::Welterweight(j) => Box::new(Welterweight::new(*j)),
            Method::Sensitivity => Box::new(StandardSensitivity::default()),
            Method::FastCoreset => Box::new(FastCoreset::default()),
            Method::HstCoreset => Box::new(HstCoreset::default()),
            Method::Bico => Box::new(crate::streaming::BicoCompressor),
            Method::StreamKm => Box::new(crate::streaming::CoresetTreeCompressor),
            Method::MergeReduce(base) => base.build(),
        }
    }

    /// The base method a merge-&-reduce composition bottoms out at
    /// (`self` for every other variant).
    pub fn base(&self) -> &Method {
        match self {
            Method::MergeReduce(inner) => inner.base(),
            other => other,
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::Uniform => f.write_str("uniform"),
            Method::Lightweight => f.write_str("lightweight"),
            Method::Welterweight(JCount::LogK) => f.write_str("welterweight(log-k)"),
            Method::Welterweight(JCount::SqrtK) => f.write_str("welterweight(sqrt-k)"),
            Method::Welterweight(JCount::Fixed(j)) => write!(f, "welterweight({j})"),
            Method::Sensitivity => f.write_str("sensitivity"),
            Method::FastCoreset => f.write_str("fast-coreset"),
            Method::HstCoreset => f.write_str("hst-coreset"),
            Method::Bico => f.write_str("bico"),
            Method::StreamKm => f.write_str("streamkm"),
            Method::MergeReduce(base) => write!(f, "merge-reduce({base})"),
        }
    }
}

impl FromStr for Method {
    type Err = FcError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "uniform" => return Ok(Method::Uniform),
            "lightweight" => return Ok(Method::Lightweight),
            // Bare `welterweight` means the paper's default policy.
            "welterweight" => return Ok(Method::Welterweight(JCount::LogK)),
            "sensitivity" => return Ok(Method::Sensitivity),
            "fast-coreset" => return Ok(Method::FastCoreset),
            "hst-coreset" => return Ok(Method::HstCoreset),
            "bico" => return Ok(Method::Bico),
            "streamkm" => return Ok(Method::StreamKm),
            _ => {}
        }
        if let Some(arg) = parenthesized(&s, "welterweight") {
            let j = match arg {
                "log-k" => JCount::LogK,
                "sqrt-k" => JCount::SqrtK,
                fixed => JCount::Fixed(
                    fixed
                        .parse::<usize>()
                        .ok()
                        .filter(|&j| j >= 1)
                        .ok_or_else(|| FcError::UnknownMethod(s.clone()))?,
                ),
            };
            return Ok(Method::Welterweight(j));
        }
        if let Some(base) = parenthesized(&s, "merge-reduce") {
            return Ok(Method::MergeReduce(Box::new(base.parse()?)));
        }
        Err(FcError::UnknownMethod(s))
    }
}

/// `"name(arg)"` → `Some("arg")`, for the given name.
fn parenthesized<'a>(s: &'a str, name: &str) -> Option<&'a str> {
    s.strip_prefix(name)?
        .strip_prefix('(')?
        .strip_suffix(')')
        .map(str::trim)
}

/// The canonical wire name of an objective (`"kmeans"` / `"kmedian"`) —
/// what plan JSON and the service protocol spell [`CostKind`] as.
pub fn kind_name(kind: CostKind) -> &'static str {
    match kind {
        CostKind::KMeans => "kmeans",
        CostKind::KMedian => "kmedian",
    }
}

/// Parses a canonical objective name ([`kind_name`]).
pub fn kind_from_name(s: &str) -> Result<CostKind, FcError> {
    match s.trim().to_ascii_lowercase().as_str() {
        "kmeans" => Ok(CostKind::KMeans),
        "kmedian" => Ok(CostKind::KMedian),
        other => Err(FcError::InvalidParameter(format!(
            "unknown kind `{other}` (expected `kmeans` or `kmedian`)"
        ))),
    }
}

/// Builder for a validated [`Plan`]. Defaults mirror the paper's §5.2
/// setup: `m = 40k`, k-means, Fast-Coresets, Lloyd refinement, full
/// evaluation.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    k: usize,
    m_scalar: usize,
    m: Option<usize>,
    kind: CostKind,
    method: Method,
    solver: Solver,
    solve: SolveConfig,
    evaluate: bool,
    budget: Option<usize>,
}

impl PlanBuilder {
    /// A plan targeting `k` clusters with the paper's defaults.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            m_scalar: 40,
            m: None,
            kind: CostKind::KMeans,
            method: Method::FastCoreset,
            solver: Solver::Lloyd,
            solve: SolveConfig::default(),
            evaluate: true,
            budget: None,
        }
    }

    /// Sets the objective (k-means / k-median).
    pub fn kind(mut self, kind: CostKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the coreset size as a multiple of `k` (overridden by
    /// [`Self::coreset_size`] when both are given).
    pub fn m_scalar(mut self, m_scalar: usize) -> Self {
        self.m_scalar = m_scalar;
        self
    }

    /// Sets the coreset size directly.
    pub fn coreset_size(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Selects the compression method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Selects the refinement solver.
    pub fn solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Adjusts the Lloyd/Weiszfeld refinement budget.
    pub fn lloyd(mut self, lloyd: fc_clustering::LloydConfig) -> Self {
        self.solve.lloyd = lloyd;
        self
    }

    /// Adjusts the local-search budget (only used by
    /// [`Solver::LocalSearch`]).
    pub fn local_search(mut self, cfg: fc_clustering::LocalSearchConfig) -> Self {
        self.solve.local_search = cfg;
        self
    }

    /// Disables the full-data evaluation pass (for when the data is too
    /// large to re-read, which is the whole point of compressing).
    pub fn without_evaluation(mut self) -> Self {
        self.evaluate = false;
        self
    }

    /// Sets an explicit stored-point budget for streaming holders of this
    /// plan: a [`StreamSession`] compacts its level stack whenever the
    /// stored points exceed it (with no explicit budget a session keeps
    /// the classic un-compacted Bentley–Saxe stack), and each `fc-service`
    /// shard stream compacts at [`Plan::effective_budget`] — this value,
    /// or `4·m` when unset.
    pub fn compaction_budget(mut self, budget: usize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Validates and produces the plan: `k ≥ 1`, `m ≥ k` (no overflow),
    /// a positive compaction budget, and the solver must support the
    /// objective.
    pub fn build(self) -> Result<Plan, FcError> {
        if self.k == 0 {
            return Err(FcError::InvalidK);
        }
        if self.budget == Some(0) {
            return Err(FcError::InvalidParameter(
                "compaction budget must be at least 1".into(),
            ));
        }
        let params = match self.m {
            Some(m) => {
                let params = CompressionParams {
                    k: self.k,
                    m,
                    kind: self.kind,
                };
                params.validate()?;
                params
            }
            None => CompressionParams::with_scalar(self.k, self.m_scalar, self.kind)?,
        };
        if !self.solver.supports(self.kind) {
            return Err(FcError::UnsupportedObjective {
                solver: self.solver,
                kind: self.kind,
            });
        }
        Ok(Plan {
            params,
            method: self.method,
            solver: self.solver,
            solve: self.solve,
            evaluate: self.evaluate,
            budget: self.budget,
        })
    }
}

/// A validated compress-then-cluster configuration. Construct via
/// [`PlanBuilder`]; by construction `k ≥ 1`, `m ≥ k`, and the solver
/// supports the objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    params: CompressionParams,
    method: Method,
    solver: Solver,
    solve: SolveConfig,
    evaluate: bool,
    budget: Option<usize>,
}

/// Everything a plan run produces.
#[derive(Debug)]
pub struct PlanOutcome {
    /// The compression.
    pub coreset: Coreset,
    /// The solution computed on the compression.
    pub solution: Solution,
    /// `cost_z(P, solution)` — only priced when evaluation is enabled
    /// (it costs a full pass over the data).
    pub cost_on_data: Option<f64>,
    /// The distortion metric, when evaluation is enabled.
    pub distortion: Option<f64>,
    /// Seconds spent compressing.
    pub compress_secs: f64,
    /// Seconds spent clustering the compression.
    pub solve_secs: f64,
}

impl Plan {
    /// The number of clusters.
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// The target coreset size.
    pub fn m(&self) -> usize {
        self.params.m
    }

    /// The objective.
    pub fn kind(&self) -> CostKind {
        self.params.kind
    }

    /// The compression method.
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The refinement solver.
    pub fn solver(&self) -> Solver {
        self.solver
    }

    /// The compression parameters this plan validated.
    pub fn params(&self) -> CompressionParams {
        self.params
    }

    /// The explicit streaming compaction budget, when one was set.
    pub fn compaction_budget(&self) -> Option<usize> {
        self.budget
    }

    /// The stored-point budget serving systems (the `fc-service` shard
    /// streams) compact this plan's streams against: the explicit budget,
    /// or `4·m` (room for a few Bentley–Saxe levels of summaries) when
    /// unset. A plain [`StreamSession`] compacts only under an *explicit*
    /// budget — see [`PlanBuilder::compaction_budget`].
    pub fn effective_budget(&self) -> usize {
        self.budget.unwrap_or(4 * self.params.m)
    }

    /// Encodes the plan in its stable JSON wire form — the object the
    /// `fc-service` protocol carries per dataset:
    ///
    /// ```text
    /// {"k":4,"kind":"kmeans","m":160,"method":"fast-coreset","solver":"lloyd"}
    /// ```
    ///
    /// `budget` (the compaction budget) appears only when explicitly set.
    /// Solver tuning budgets ([`SolveConfig`]) and the evaluation switch
    /// are deliberately not part of the wire form.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("k".to_owned(), Value::from(self.params.k)),
            ("m".to_owned(), Value::from(self.params.m)),
            ("kind".to_owned(), Value::from(kind_name(self.params.kind))),
            ("method".to_owned(), Value::from(self.method.to_string())),
            ("solver".to_owned(), Value::from(self.solver.to_string())),
        ];
        if let Some(budget) = self.budget {
            pairs.push(("budget".to_owned(), Value::from(budget)));
        }
        Value::Object(pairs.into_iter().collect())
    }

    /// Decodes (and validates) a plan from its JSON wire form. `k` is
    /// required; every other field defaults as in [`PlanBuilder::new`].
    /// The size may be given as `"m"` (absolute) or `"m_scalar"` (per-`k`,
    /// `"m"` wins when both are present); unknown fields are rejected so
    /// typos fail loudly instead of silently running a default.
    pub fn from_value(v: &Value) -> Result<Plan, FcError> {
        let invalid = |msg: String| FcError::InvalidParameter(format!("plan {msg}"));
        let obj = v
            .as_object()
            .ok_or_else(|| invalid("must be a JSON object".into()))?;
        for key in obj.keys() {
            if !matches!(
                key.as_str(),
                "k" | "m" | "m_scalar" | "kind" | "method" | "solver" | "budget"
            ) {
                return Err(invalid(format!("holds unknown field `{key}`")));
            }
        }
        let field = |key: &str| match obj.get(key) {
            None | Some(Value::Null) => None,
            Some(value) => Some(value),
        };
        let int = |key: &str| -> Result<Option<usize>, FcError> {
            field(key)
                .map(|value| {
                    value
                        .as_usize()
                        .ok_or_else(|| invalid(format!("field `{key}` must be an integer")))
                })
                .transpose()
        };
        let string = |key: &str| -> Result<Option<&str>, FcError> {
            field(key)
                .map(|value| {
                    value
                        .as_str()
                        .ok_or_else(|| invalid(format!("field `{key}` must be a string")))
                })
                .transpose()
        };
        let k = int("k")?.ok_or_else(|| invalid("is missing required field `k`".into()))?;
        let mut builder = PlanBuilder::new(k);
        if let Some(m_scalar) = int("m_scalar")? {
            builder = builder.m_scalar(m_scalar);
        }
        if let Some(m) = int("m")? {
            builder = builder.coreset_size(m);
        }
        if let Some(kind) = string("kind")? {
            builder = builder.kind(kind_from_name(kind)?);
        }
        if let Some(method) = string("method")? {
            builder = builder.method(method.parse()?);
        }
        if let Some(solver) = string("solver")? {
            builder = builder.solver(solver.parse::<Solver>().map_err(FcError::from)?);
        }
        if let Some(budget) = int("budget")? {
            builder = builder.compaction_budget(budget);
        }
        builder.build()
    }

    /// [`Self::to_value`] as one compact JSON line.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses and validates a plan from one JSON document
    /// ([`Self::from_value`] semantics).
    pub fn from_json(text: &str) -> Result<Plan, FcError> {
        let value =
            json::parse(text).map_err(|e| FcError::InvalidParameter(format!("plan JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Compresses `data` with the plan's method. Errors on empty data and
    /// on `m > n` (a "compression" that would grow the data).
    pub fn compress<R: Rng>(&self, rng: &mut R, data: &Dataset) -> Result<Coreset, FcError> {
        self.params.validate_for(data)?;
        Ok(self.method.build().compress(rng, data, &self.params))
    }

    /// Solves on `data` (typically a finished coreset's dataset) with the
    /// plan's solver.
    pub fn solve_on<R: Rng>(&self, rng: &mut R, data: &Dataset) -> Result<Solution, FcError> {
        Ok(self
            .solver
            .solve(rng, data, self.params.k, self.params.kind, &self.solve)?)
    }

    /// Runs compress → solve (→ evaluate) on a batch dataset.
    pub fn run<R: Rng>(&self, rng: &mut R, data: &Dataset) -> Result<PlanOutcome, FcError> {
        let t0 = std::time::Instant::now();
        let coreset = self.compress(rng, data)?;
        let compress_secs = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let solution = self.solve_on(rng, coreset.dataset())?;
        let solve_secs = t1.elapsed().as_secs_f64();

        let (cost_on_data, distortion) = if self.evaluate {
            let cost_full = solution.cost_on(data, self.params.kind);
            let cost_core = coreset.cost(&solution.centers, self.params.kind);
            let distortion = if cost_full > 0.0 && cost_core > 0.0 {
                (cost_full / cost_core).max(cost_core / cost_full)
            } else if cost_full <= 0.0 && cost_core <= 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
            (Some(cost_full), Some(distortion))
        } else {
            (None, None)
        };

        Ok(PlanOutcome {
            coreset,
            solution,
            cost_on_data,
            distortion,
            compress_secs,
            solve_secs,
        })
    }

    /// Opens a streaming session: the same plan (method, sizes, solver)
    /// consuming the data block-by-block through merge-&-reduce.
    ///
    /// Every method streams via the same Bentley–Saxe composition over its
    /// batch compressor, so all methods share one set of guarantees and
    /// one memory profile (§5.4; the composition re-compresses each
    /// carry-merge). For `Method::Bico` / `Method::StreamKm` this differs
    /// from those algorithms' own single-pass streams — when that
    /// per-block composition overhead matters, use the native
    /// [`crate::streaming::BicoStream`] / [`crate::streaming::StreamKm`]
    /// directly.
    pub fn stream(&self) -> StreamSession {
        StreamSession {
            stream: MergeReduce::new(self.method.build(), self.params),
            plan: self.clone(),
            dim: None,
        }
    }
}

/// A streaming run of a [`Plan`]: push blocks, then finish into a coreset
/// (and optionally a solution) — the merge-&-reduce composition with the
/// plan's validation applied at every boundary.
pub struct StreamSession {
    stream: MergeReduce<'static>,
    plan: Plan,
    dim: Option<usize>,
}

impl StreamSession {
    /// The plan this session was opened from.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Feeds one block. Errors on empty blocks and on blocks whose
    /// dimension disagrees with earlier ones.
    pub fn push<R: Rng>(&mut self, rng: &mut R, block: &Dataset) -> Result<(), FcError> {
        if block.is_empty() {
            return Err(FcError::EmptyData);
        }
        match self.dim {
            None => self.dim = Some(block.dim()),
            Some(expected) if expected != block.dim() => {
                return Err(FcError::DimensionMismatch {
                    expected,
                    got: block.dim(),
                });
            }
            Some(_) => {}
        }
        self.stream.insert_block(rng, block);
        // An explicit compaction budget bounds the memory footprint the
        // same way a serving shard does: collapse the level stack as soon
        // as the stored points outgrow it.
        if let Some(budget) = self.plan.budget {
            if self.stream.stored_points() > budget {
                self.stream.compact(rng);
            }
        }
        Ok(())
    }

    /// Number of per-level summaries currently held.
    pub fn summary_count(&self) -> usize {
        self.stream.summary_count()
    }

    /// Total points stored across the summaries (the memory footprint).
    pub fn stored_points(&self) -> usize {
        self.stream.stored_points()
    }

    /// A valid coreset of everything pushed so far, without consuming the
    /// session. `None` before the first block.
    pub fn snapshot(&self) -> Option<Coreset> {
        self.stream.snapshot()
    }

    /// Finishes the stream into a single coreset of at most `m` points.
    /// Errors if no block was ever pushed.
    pub fn finish<R: Rng>(mut self, rng: &mut R) -> Result<Coreset, FcError> {
        if self.dim.is_none() {
            return Err(FcError::EmptyStream);
        }
        Ok(self.stream.finalize(rng))
    }

    /// Finishes the stream and solves on the final coreset with the plan's
    /// solver — the streaming counterpart of [`Plan::run`].
    pub fn finish_and_solve<R: Rng>(self, rng: &mut R) -> Result<(Coreset, Solution), FcError> {
        let plan = self.plan.clone();
        let coreset = self.finish(rng)?;
        let solution = plan.solve_on(rng, coreset.dataset())?;
        Ok((coreset, solution))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs() -> Dataset {
        let mut flat = Vec::new();
        for b in 0..3 {
            for i in 0..800 {
                flat.push(b as f64 * 50.0 + (i % 20) as f64 * 0.01);
                flat.push((i / 20) as f64 * 0.01);
            }
        }
        Dataset::from_flat(flat, 2).unwrap()
    }

    #[test]
    fn default_plan_produces_good_solution() {
        let d = blobs();
        let mut rng = StdRng::seed_from_u64(1);
        let out = PlanBuilder::new(3)
            .build()
            .unwrap()
            .run(&mut rng, &d)
            .unwrap();
        assert!(out.coreset.len() <= 120);
        assert_eq!(out.solution.k(), 3);
        assert!(out.distortion.expect("evaluation on") < 1.5);
        assert!(out.cost_on_data.expect("evaluation on") < 100.0);
    }

    #[test]
    fn every_method_variant_runs_in_batch_mode() {
        let d = blobs();
        let mut methods = BASE_METHODS.to_vec();
        methods.push(Method::MergeReduce(Box::new(Method::Uniform)));
        for method in methods {
            let mut rng = StdRng::seed_from_u64(3);
            let out = PlanBuilder::new(3)
                .method(method.clone())
                .m_scalar(20)
                .build()
                .unwrap()
                .run(&mut rng, &d)
                .unwrap();
            assert!(
                out.distortion.expect("evaluation on").is_finite(),
                "{method}"
            );
        }
    }

    #[test]
    fn every_solver_runs_under_a_supported_objective() {
        let d = blobs();
        for solver in fc_clustering::ALL_SOLVERS {
            let kind = if solver.supports(CostKind::KMeans) {
                CostKind::KMeans
            } else {
                CostKind::KMedian
            };
            let mut rng = StdRng::seed_from_u64(4);
            let out = PlanBuilder::new(3)
                .kind(kind)
                .solver(solver)
                .m_scalar(20)
                .build()
                .unwrap()
                .run(&mut rng, &d)
                .unwrap();
            assert_eq!(out.solution.k(), 3, "{solver}");
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        assert_eq!(PlanBuilder::new(0).build().unwrap_err(), FcError::InvalidK);
        assert_eq!(
            PlanBuilder::new(5).coreset_size(3).build().unwrap_err(),
            FcError::InvalidCoresetSize { m: 3, k: 5 }
        );
        assert_eq!(
            PlanBuilder::new(5).m_scalar(0).build().unwrap_err(),
            FcError::InvalidCoresetSize { m: 0, k: 5 }
        );
        assert!(matches!(
            PlanBuilder::new(3)
                .m_scalar(usize::MAX)
                .build()
                .unwrap_err(),
            FcError::CoresetSizeOverflow { .. }
        ));
        assert_eq!(
            PlanBuilder::new(3)
                .solver(Solver::Hamerly)
                .kind(CostKind::KMedian)
                .build()
                .unwrap_err(),
            FcError::UnsupportedObjective {
                solver: Solver::Hamerly,
                kind: CostKind::KMedian,
            }
        );
    }

    #[test]
    fn run_rejects_bad_data_without_panicking() {
        let plan = PlanBuilder::new(3).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert_eq!(plan.run(&mut rng, &empty).unwrap_err(), FcError::EmptyData);
        let tiny = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2).unwrap();
        assert_eq!(
            plan.run(&mut rng, &tiny).unwrap_err(),
            FcError::CoresetLargerThanData { m: 120, n: 2 }
        );
    }

    #[test]
    fn stream_session_matches_plan_config_and_validates_blocks() {
        let d = blobs();
        let plan = PlanBuilder::new(3)
            .method(Method::Uniform)
            .m_scalar(20)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut session = plan.stream();
        for block in d.chunks(500) {
            session.push(&mut rng, &block).unwrap();
        }
        // Wrong-dimension and empty blocks are rejected, not panics.
        let three_d = Dataset::from_flat(vec![1.0, 2.0, 3.0], 3).unwrap();
        assert_eq!(
            session.push(&mut rng, &three_d).unwrap_err(),
            FcError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        let empty = Dataset::from_flat(vec![], 2).unwrap();
        assert_eq!(
            session.push(&mut rng, &empty).unwrap_err(),
            FcError::EmptyData
        );
        let (coreset, solution) = session.finish_and_solve(&mut rng).unwrap();
        assert!(coreset.len() <= plan.m());
        assert_eq!(solution.k(), 3);
    }

    #[test]
    fn finishing_an_empty_stream_is_an_error() {
        let plan = PlanBuilder::new(2).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            plan.stream().finish(&mut rng).unwrap_err(),
            FcError::EmptyStream
        );
    }

    #[test]
    fn method_names_round_trip() {
        let mut methods = BASE_METHODS.to_vec();
        methods.extend([
            Method::Welterweight(JCount::SqrtK),
            Method::Welterweight(JCount::Fixed(7)),
            Method::MergeReduce(Box::new(Method::FastCoreset)),
            Method::MergeReduce(Box::new(Method::Welterweight(JCount::Fixed(3)))),
            Method::MergeReduce(Box::new(Method::MergeReduce(Box::new(Method::Bico)))),
        ]);
        for method in methods {
            let name = method.to_string();
            assert_eq!(name.parse::<Method>().unwrap(), method, "{name}");
        }
        // Conveniences and rejections.
        assert_eq!(
            "welterweight".parse::<Method>().unwrap(),
            Method::Welterweight(JCount::LogK)
        );
        assert_eq!(
            " Fast-Coreset ".parse::<Method>().unwrap(),
            Method::FastCoreset
        );
        for bad in [
            "",
            "fastcoreset",
            "merge-reduce",
            "merge-reduce(nope)",
            "welterweight(0)",
        ] {
            assert!(
                matches!(bad.parse::<Method>(), Err(FcError::UnknownMethod(_))),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let plan = PlanBuilder::new(5)
            .kind(CostKind::KMedian)
            .m_scalar(20)
            .method(Method::MergeReduce(Box::new(Method::Welterweight(
                JCount::Fixed(3),
            ))))
            .solver(Solver::KMedianWeiszfeld)
            .compaction_budget(500)
            .build()
            .unwrap();
        let line = plan.to_json();
        assert_eq!(
            line,
            r#"{"budget":500,"k":5,"kind":"kmedian","m":100,"method":"merge-reduce(welterweight(3))","solver":"kmedian-weiszfeld"}"#
        );
        assert_eq!(Plan::from_json(&line).unwrap(), plan);
        // Without an explicit budget the field is absent and still round-trips.
        let default = PlanBuilder::new(3).build().unwrap();
        assert!(!default.to_json().contains("budget"));
        assert_eq!(Plan::from_json(&default.to_json()).unwrap(), default);
    }

    #[test]
    fn wire_form_fills_defaults_and_rejects_junk() {
        // `k` alone yields the paper's defaults.
        let plan = Plan::from_json(r#"{"k":7}"#).unwrap();
        assert_eq!(plan, PlanBuilder::new(7).build().unwrap());
        // `m_scalar` is the per-k spelling; `m` wins when both appear.
        let scaled = Plan::from_json(r#"{"k":4,"m_scalar":10}"#).unwrap();
        assert_eq!(scaled.m(), 40);
        let absolute = Plan::from_json(r#"{"k":4,"m_scalar":10,"m":17}"#).unwrap();
        assert_eq!(absolute.m(), 17);
        // Malformed documents are errors, not panics — and carry context.
        for (text, needle) in [
            ("[]", "must be a JSON object"),
            ("{", "plan JSON"),
            (r#"{"m":40}"#, "missing required field `k`"),
            (r#"{"k":"four"}"#, "`k` must be an integer"),
            (r#"{"k":4,"method":7}"#, "`method` must be a string"),
            (r#"{"k":4,"methid":"uniform"}"#, "unknown field `methid`"),
            (r#"{"k":4,"budget":0}"#, "compaction budget"),
        ] {
            let err = Plan::from_json(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "`{text}` gave `{err}`, expected `{needle}`"
            );
        }
        // Validation still applies: the wire form cannot smuggle in an
        // unsupported solver/objective pair.
        assert_eq!(
            Plan::from_json(r#"{"k":2,"kind":"kmedian","solver":"hamerly"}"#).unwrap_err(),
            FcError::UnsupportedObjective {
                solver: Solver::Hamerly,
                kind: CostKind::KMedian,
            }
        );
    }

    #[test]
    fn explicit_budget_compacts_stream_sessions() {
        let d = blobs();
        let plan = PlanBuilder::new(3)
            .method(Method::Uniform)
            .m_scalar(10)
            .compaction_budget(60)
            .build()
            .unwrap();
        assert_eq!(plan.effective_budget(), 60);
        assert_eq!(
            PlanBuilder::new(3)
                .m_scalar(10)
                .build()
                .unwrap()
                .effective_budget(),
            4 * 30
        );
        let mut rng = StdRng::seed_from_u64(11);
        let mut session = plan.stream();
        for block in d.chunks(200) {
            session.push(&mut rng, &block).unwrap();
            // One un-compacted insertion may overshoot by at most one
            // level-0 summary of ≤ m points.
            assert!(
                session.stored_points() <= 60 + plan.m(),
                "stored {} over budget",
                session.stored_points()
            );
        }
        let coreset = session.finish(&mut rng).unwrap();
        assert!(coreset.len() <= plan.m());
    }

    #[test]
    fn merge_reduce_method_bottoms_out_at_its_base() {
        let m = Method::MergeReduce(Box::new(Method::MergeReduce(Box::new(Method::Uniform))));
        assert_eq!(m.base(), &Method::Uniform);
        assert_eq!(m.build().name(), "uniform");
        assert_eq!(Method::Bico.base(), &Method::Bico);
    }
}
