//! The unified, fallible `Plan` API.
//!
//! The paper's central claim is a *spectrum* of compressors whose
//! settling-time/accuracy tradeoff should be swappable with one knob.
//! [`Method`] is that knob — it names every compressor in the workspace,
//! batch *and* streaming. A [`Plan`] binds it to validated parameters and
//! solves with k-means++ and Lloyd ([`Solver::Lloyd`]), so one configuration
//! drives the batch path ([`Plan::run`]), the streaming path
//! ([`Plan::stream`]), and the serving protocol of `fc-service` — which
//! ships whole plans over the wire in the stable JSON form of
//! [`Plan::to_json`] / [`Plan::from_json`], so a per-dataset plan written
//! in Rust is byte-for-byte the object an `ingest` request carries.
//!
//! Every method runs under either objective, so a plan is valid whenever
//! its sizes are. Retired names still parse (`hst-coreset` as
//! `fast-coreset`, `merge-reduce(x)` as `x`; `hamerly`, `kmedian-weiszfeld`
//! and `local-search` as `lloyd`), so plans persisted by older builds keep
//! loading; `Display` prints only canonical names.
//!
//! ```
//! use fc_core::plan::{Method, PlanBuilder};
//! use fc_clustering::CostKind;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = fc_geom::Dataset::from_flat((0..4000).map(f64::from).collect(), 2).unwrap();
//! let plan = PlanBuilder::new(5)
//!     .kind(CostKind::KMeans)
//!     .m_scalar(20)
//!     .method(Method::FastCoreset)
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
use rand::{Rng, RngCore};

use crate::compressor::{CompressionParams, Compressor};
use crate::coreset::Coreset;
use crate::error::FcError;
use crate::json::{self, Value};
use crate::methods::{JCount, Lightweight, StandardSensitivity, Uniform, Welterweight};
use crate::streaming::{MergeReduce, StreamingCompressor};
use crate::FastCoreset;

/// Every compression strategy in the workspace, batch and streaming,
/// selectable by one name. Streams of every method run through
/// merge-&-reduce ([`Plan::stream`]), so the composition is not a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// BICO clustering-feature summary \[38\].
    Bico,
    /// StreamKM++ coreset tree \[1\].
    StreamKm,
}

/// Every method, in canonical order (suites, property tests).
pub const ALL_METHODS: [Method; 7] = [
    Method::Uniform,
    Method::Lightweight,
    Method::Welterweight(JCount::LogK),
    Method::Sensitivity,
    Method::FastCoreset,
    Method::Bico,
    Method::StreamKm,
];

impl Method {
    /// Materializes the compressor. Streaming-native methods (BICO,
    /// StreamKM++) build their static adapters, so every variant works as
    /// a batch compressor. Every one computes where its arithmetic stays
    /// finite and normal: an input whose largest |coordinate| or weight
    /// lies outside `[2^-256, 2^256)` is compressed as a copy scaled by a
    /// power of two, and the coreset is scaled back. So the coreset of
    /// `2^e·P` is `2^e` times the coreset of `P`: units do not matter.
    pub fn build(self) -> Box<dyn Compressor> {
        let inner: Box<dyn Compressor> = match self {
            Method::Uniform => Box::new(Uniform),
            Method::Lightweight => Box::new(Lightweight),
            Method::Welterweight(j) => Box::new(Welterweight::new(j)),
            Method::Sensitivity => Box::new(StandardSensitivity),
            Method::FastCoreset => Box::new(FastCoreset),
            Method::Bico => Box::new(crate::streaming::BicoCompressor),
            Method::StreamKm => Box::new(crate::streaming::CoresetTreeCompressor),
        };
        Box::new(SafeScale(inner))
    }
}

/// The binary exponents of a largest |coordinate| or weight that a method
/// computes at unscaled. Below `2^256`, a sum of `w·dist²` over fewer than
/// `2^250` coordinates stays finite; from `2^-256` up, the largest such
/// term stays normal.
const SAFE_EXPONENTS: std::ops::RangeInclusive<i32> = -256..=255;

/// Runs a compressor at a scale its arithmetic can carry. The cost is
/// homogeneous, `cost(2^e·P, 2^e·C) = 2^{ez}·cost(P, C)`, and a power of
/// two scales a float exactly. So where the largest |coordinate| or the
/// largest weight lies outside [`SAFE_EXPONENTS`], the method compresses a
/// copy scaled by the power of two that puts that maximum in `[1, 2)`,
/// and the coreset is scaled back (weights clamped at `f64::MAX`). Every
/// other input passes through untouched.
struct SafeScale(Box<dyn Compressor>);

impl Compressor for SafeScale {
    fn compress(
        &self,
        rng: &mut dyn RngCore,
        data: &Dataset,
        params: &CompressionParams,
    ) -> Coreset {
        let shift = |xs: &[f64]| {
            let e = binary_exponent(xs.iter().fold(0.0, |a: f64, x| a.max(x.abs())));
            if SAFE_EXPONENTS.contains(&e) {
                0
            } else {
                e
            }
        };
        let (ex, ew) = (shift(data.points().as_flat()), shift(data.weights()));
        if (ex, ew) == (0, 0) {
            return self.0.compress(rng, data, params);
        }
        let scaled = times_power_of_two(data, -ex, -ew);
        let coreset = self.0.compress(rng, &scaled, params).into_dataset();
        Coreset::new(times_power_of_two(&coreset, ex, ew))
    }
}

/// The unbiased binary exponent of a positive finite `x`, floored at the
/// smallest normal exponent; `0` for anything else.
fn binary_exponent(x: f64) -> i32 {
    if x > 0.0 && x.is_finite() {
        (((x.to_bits() >> 52) & 0x7ff) as i32 - 1023).max(-1022)
    } else {
        0
    }
}

/// `data` with its coordinates times `2^ex` and its weights times `2^ew`,
/// each clamped to the finite range.
fn times_power_of_two(data: &Dataset, ex: i32, ew: i32) -> Dataset {
    let mut points = data.points().clone();
    let up = f64::powi(2.0, ex);
    for x in points.as_flat_mut() {
        *x = (*x * up).clamp(-f64::MAX, f64::MAX);
    }
    let up = f64::powi(2.0, ew);
    let weights = data
        .weights()
        .iter()
        .map(|w| (w * up).min(f64::MAX))
        .collect();
    Dataset::weighted(points, weights).expect("scaled weights stay finite and non-negative")
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
            Method::Bico => f.write_str("bico"),
            Method::StreamKm => f.write_str("streamkm"),
        }
    }
}

/// Deepest `merge-reduce(..)` nesting a retired name may carry, so a
/// request line nesting thousands of wrappers is refused outright.
const MAX_NESTING: usize = 16;

impl FromStr for Method {
    type Err = FcError;

    /// Parses a canonical name. Two retired spellings read as what they
    /// always ran: `hst-coreset` as [`Method::FastCoreset`] (both are
    /// sensitivity sampling over a tree-seeded partition, so a summary
    /// stored under it folds as one), and `merge-reduce(x)` as `x` (every
    /// stream merges and reduces, so the wrapper named nothing).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.trim().to_ascii_lowercase();
        let unknown = || FcError::UnknownMethod(name.clone());
        let mut rest = name.as_str();
        let mut depth = 0;
        while let Some(inner) = parenthesized(rest, "merge-reduce") {
            depth += 1;
            if depth > MAX_NESTING {
                return Err(unknown());
            }
            rest = inner;
        }
        Ok(match rest {
            "uniform" => Method::Uniform,
            "lightweight" => Method::Lightweight,
            // Bare `welterweight` means the paper's default policy.
            "welterweight" => Method::Welterweight(JCount::LogK),
            "sensitivity" => Method::Sensitivity,
            "fast-coreset" | "hst-coreset" => Method::FastCoreset,
            "bico" => Method::Bico,
            "streamkm" => Method::StreamKm,
            _ => {
                let arg = parenthesized(rest, "welterweight").ok_or_else(unknown)?;
                Method::Welterweight(match arg {
                    "log-k" => JCount::LogK,
                    "sqrt-k" => JCount::SqrtK,
                    fixed => JCount::Fixed(
                        fixed
                            .parse::<usize>()
                            .ok()
                            .filter(|&j| j >= 1)
                            .ok_or_else(unknown)?,
                    ),
                })
            }
        })
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
/// setup: `m = 40k`, k-means, Fast-Coresets, Lloyd refinement.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    k: usize,
    m_scalar: usize,
    m: Option<usize>,
    kind: CostKind,
    method: Method,
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

    /// Validates and produces the plan: `k ≥ 1`, `m ≥ k` (no overflow)
    /// and a positive compaction budget.
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
        Ok(Plan {
            params,
            method: self.method,
            budget: self.budget,
        })
    }
}

/// A validated compress-then-cluster configuration. Construct via
/// [`PlanBuilder`]; by construction `k ≥ 1` and `m ≥ k`. Every value a
/// plan holds is a field of its wire form ([`Plan::to_json`]), so two plans
/// are equal exactly when their wire forms are.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    params: CompressionParams,
    method: Method,
    budget: Option<usize>,
}

/// Everything a plan run produces.
#[derive(Debug)]
pub struct PlanOutcome {
    /// The compression.
    pub coreset: Coreset,
    /// The solution computed on the compression.
    pub solution: Solution,
    /// `cost_z(P, solution)`, priced in one full pass over the data.
    pub cost_on_data: f64,
    /// The distortion metric: the larger of the data / coreset cost ratio
    /// and its inverse.
    pub distortion: f64,
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
    pub fn method(&self) -> Method {
        self.method
    }

    /// The solve step, which is always [`Solver::Lloyd`]; its name is the
    /// wire form's `solver` field.
    pub fn solver(&self) -> Solver {
        Solver::Lloyd
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
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("k".to_owned(), Value::from(self.params.k)),
            ("m".to_owned(), Value::from(self.params.m)),
            ("kind".to_owned(), Value::from(kind_name(self.params.kind))),
            ("method".to_owned(), Value::from(self.method.to_string())),
            ("solver".to_owned(), Value::from(Solver::Lloyd.to_string())),
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
    /// typos fail loudly instead of silently running a default. A `solver`
    /// must name one [`Solver`] spelling; every spelling reads as `lloyd`.
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
            solver.parse::<Solver>()?;
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

    /// Solves on `data` (typically a finished coreset's dataset) at the
    /// default budgets, as a served `cluster` does.
    pub fn solve_on<R: Rng>(&self, rng: &mut R, data: &Dataset) -> Result<Solution, FcError> {
        Ok(Solver::Lloyd.solve(
            rng,
            data,
            self.params.k,
            self.params.kind,
            &SolveConfig::default(),
        )?)
    }

    /// Runs compress → solve → evaluate on a batch dataset.
    pub fn run<R: Rng>(&self, rng: &mut R, data: &Dataset) -> Result<PlanOutcome, FcError> {
        let t0 = std::time::Instant::now();
        let coreset = self.compress(rng, data)?;
        let compress_secs = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let solution = self.solve_on(rng, coreset.dataset())?;
        let solve_secs = t1.elapsed().as_secs_f64();

        let cost_on_data = solution.cost_on(data, self.params.kind);
        let cost_core = coreset.cost(&solution.centers, self.params.kind);
        let distortion = crate::distortion::ratio(cost_on_data, cost_core);

        Ok(PlanOutcome {
            coreset,
            solution,
            cost_on_data,
            distortion,
            compress_secs,
            solve_secs,
        })
    }

    /// Opens a streaming session: the same plan (method, sizes)
    /// consuming the data block-by-block through merge-&-reduce.
    ///
    /// Every method streams via the same Bentley–Saxe composition over its
    /// batch compressor, so all methods share one set of guarantees and
    /// one memory profile (§5.4; the composition re-compresses each
    /// carry-merge). For `Method::StreamKm` that is StreamKM++'s own bucket
    /// cascade; for `Method::Bico` it differs from BICO's single-pass
    /// stream, the bench-only [`crate::streaming::BicoStream`].
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

    /// Finishes the stream and solves on the final coreset as
    /// [`Plan::solve_on`] does — the streaming counterpart of [`Plan::run`].
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
        assert!(out.distortion < 1.5);
        assert!(out.cost_on_data < 100.0);
    }

    #[test]
    fn binary_exponent_reads_the_power_of_two_below() {
        for (x, e) in [(1.0, 0), (1.99, 0), (2.0, 1), (0.75, -1), (1e300, 996)] {
            assert_eq!(binary_exponent(x), e, "{x}");
        }
        // Subnormals floor at the smallest normal exponent; zero, negative
        // and non-finite values read 0.
        assert_eq!(binary_exponent(f64::MIN_POSITIVE / 8.0), -1022);
        for x in [0.0, -4.0, f64::INFINITY, f64::NAN] {
            assert_eq!(binary_exponent(x), 0, "{x}");
        }
    }

    #[test]
    fn safe_scale_moves_only_out_of_window_maxima_into_one_to_two() {
        /// Checks what the wrapped method sees, then returns it as is.
        struct Sees(f64, f64);
        impl Compressor for Sees {
            fn compress(
                &self,
                _rng: &mut dyn RngCore,
                data: &Dataset,
                _params: &CompressionParams,
            ) -> Coreset {
                assert_eq!(data.point(0)[1], self.0);
                assert_eq!(data.weight(0), self.1);
                Coreset::new(data.clone())
            }
        }
        let params = CompressionParams {
            k: 1,
            m: 1,
            kind: CostKind::KMeans,
        };
        let two = |e| f64::powi(2.0, e);
        // (largest magnitude, what the method sees), for coordinates and
        // weights alike: inside [2^-256, 2^256) nothing moves.
        let cases = [
            (1.5, 1.5),
            (two(255) * 1.5, two(255) * 1.5),
            (two(-256), two(-256)),
            (two(256), 1.0),
            (two(-257) * 1.5, 1.5),
            (1e300, 1e300 / two(996)),
            (f64::MAX, f64::MAX / two(1023)),
        ];
        for (x, x_seen) in cases {
            for (w, w_seen) in cases {
                let points = fc_geom::Points::from_flat(vec![0.5 * x, -x], 2).unwrap();
                let data = Dataset::weighted(points, vec![w]).unwrap();
                let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                let back =
                    SafeScale(Box::new(Sees(-x_seen, w_seen))).compress(&mut rng, &data, &params);
                assert_eq!(back.dataset(), &data, "{x} {w}");
            }
        }
    }

    #[test]
    fn every_method_variant_runs_in_batch_mode() {
        let d = blobs();
        for method in ALL_METHODS {
            let mut rng = StdRng::seed_from_u64(3);
            let out = PlanBuilder::new(3)
                .method(method)
                .m_scalar(20)
                .build()
                .unwrap()
                .run(&mut rng, &d)
                .unwrap();
            assert!(out.distortion.is_finite(), "{method}");
        }
    }

    #[test]
    fn runs_under_both_objectives() {
        let d = blobs();
        for kind in [CostKind::KMeans, CostKind::KMedian] {
            let mut rng = StdRng::seed_from_u64(4);
            let out = PlanBuilder::new(3)
                .kind(kind)
                .m_scalar(20)
                .build()
                .unwrap()
                .run(&mut rng, &d)
                .unwrap();
            assert_eq!(out.solution.k(), 3, "{kind:?}");
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
        let mut methods = ALL_METHODS.to_vec();
        methods.extend([
            Method::Welterweight(JCount::SqrtK),
            Method::Welterweight(JCount::Fixed(7)),
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
            "merge-reduce(merge-reduce(bico)",
        ] {
            assert!(
                matches!(bad.parse::<Method>(), Err(FcError::UnknownMethod(_))),
                "{bad:?} should be rejected"
            );
        }
        let nested = |depth: usize| {
            format!(
                "{}uniform{}",
                "merge-reduce(".repeat(depth),
                ")".repeat(depth)
            )
        };
        // The retired wrapper reads as what it wraps, up to the cap.
        assert_eq!(
            "merge-reduce(welterweight(3))".parse::<Method>().unwrap(),
            Method::Welterweight(JCount::Fixed(3))
        );
        assert_eq!(
            nested(MAX_NESTING).parse::<Method>().unwrap(),
            Method::Uniform
        );
        assert!(matches!(
            nested(MAX_NESTING + 1).parse::<Method>(),
            Err(FcError::UnknownMethod(_))
        ));
    }

    #[test]
    fn wire_form_round_trips() {
        let plan = PlanBuilder::new(5)
            .kind(CostKind::KMedian)
            .m_scalar(20)
            .method(Method::Welterweight(JCount::Fixed(3)))
            .compaction_budget(500)
            .build()
            .unwrap();
        let line = plan.to_json();
        assert_eq!(
            line,
            r#"{"budget":500,"k":5,"kind":"kmedian","m":100,"method":"welterweight(3)","solver":"lloyd"}"#
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
            (r#"{"k":4,"solver":"simplex"}"#, "unknown solver `simplex`"),
        ] {
            let err = Plan::from_json(text).expect_err(text);
            assert!(
                err.to_string().contains(needle),
                "`{text}` gave `{err}`, expected `{needle}`"
            );
        }
        // Old spellings still read, as their canonical names.
        for solver in ["hamerly", "local-search"] {
            let old = Plan::from_json(&format!(
                r#"{{"k":2,"kind":"kmedian","method":"merge-reduce(hst-coreset)","solver":"{solver}"}}"#
            ))
            .unwrap();
            assert_eq!(
                old.to_json(),
                r#"{"k":2,"kind":"kmedian","m":80,"method":"fast-coreset","solver":"lloyd"}"#
            );
        }
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
}
