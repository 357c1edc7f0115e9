//! One run of one workload: options in, named numbers and checks out.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::stats::median;
use crate::trace::Tracer;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds the run measures for (set-up excluded).
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub traced: bool,
    /// Same code paths at about 1 % of the operations.
    pub smoke: bool,
}

/// An output check: what was asserted, whether it held, what was seen.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

pub struct Run {
    pub opts: Options,
    pub tracer: Tracer,
    /// Samples whose median is the metric.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics computed once.
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (blocks, requests, library calls,
    /// and each output check).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Facts printed beside the numbers (sample counts, sizes).
    pub notes: Vec<String>,
    /// Epochs of a full-scale untraced run (see [`Run::epochs`]).
    pub full_epochs: usize,
}

pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

impl Run {
    pub fn new(opts: Options) -> Self {
        Self {
            opts,
            tracer: Tracer::new(Instant::now()),
            samples: BTreeMap::new(),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            full_epochs: 3,
        }
    }

    /// How many times the workload is set up and measured in this run;
    /// `setup_s` and every other metric is a median across them.
    pub fn epochs(&self) -> usize {
        match (self.opts.smoke, self.opts.traced) {
            (true, _) => 1,
            // One epoch untraced and one traced: their ratio is
            // `trace.overhead_share`. The probes take the rest of the time.
            (false, true) => 2,
            (false, false) => self.full_epochs,
        }
    }

    /// Seconds of measurement each epoch gets.
    pub fn epoch_seconds(&self) -> f64 {
        let share = if self.opts.traced {
            0.25
        } else {
            1.0 / self.epochs() as f64
        };
        self.opts.seconds * share
    }

    /// How many fixed-size rounds an epoch runs at `per_second` rounds per
    /// second of its measuring time: a function of `--seconds` alone.
    pub fn rounds(&self, per_second: f64) -> u64 {
        ((per_second * self.epoch_seconds()).round() as u64).max(1)
    }

    /// `full` at full scale, about a hundredth of it (at least `floor`)
    /// in a smoke run.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.opts.smoke {
            (full / 100).max(floor)
        } else {
            full
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// `trace.overhead_share`: the median time of the same fixed-size
    /// rounds with spans recorded ÷ without, − 1. `phases` are the sample
    /// name prefixes (`<phase>.traced`, `<phase>.untraced`). A smoke run
    /// has no untraced epoch to compare with and reports 0.
    pub fn set_trace_overhead(&mut self, phases: &[&str]) {
        let total = |suffix: &str| -> f64 {
            phases
                .iter()
                .map(|phase| median(self.samples(&format!("{phase}.{suffix}"))))
                .sum()
        };
        let (traced, untraced) = (total("traced"), total("untraced"));
        let overhead = if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        };
        self.set("trace.overhead_share", overhead);
    }

    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records an output check; a failed one counts as a failed operation.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.op(passed);
        self.checks.push(Check {
            name: name.to_owned(),
            passed,
            detail,
        });
    }

    /// Where traces and scratch data directories go: `benchmark/out` from
    /// the repository root, `out` from inside `benchmark/`.
    pub fn out_dir() -> PathBuf {
        if std::path::Path::new("benchmark/Cargo.toml").is_file() {
            PathBuf::from("benchmark/out")
        } else {
            PathBuf::from("out")
        }
    }

    pub fn finish(mut self) -> (Outcome, Tracer) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_share", share);
        let mut metrics = self.values;
        for (name, values) in &self.samples {
            metrics.entry(name).or_insert_with(|| median(values));
        }
        (
            Outcome {
                metrics,
                attempted: self.attempted.max(1),
                failed: self.failed,
                checks: self.checks,
                notes: self.notes,
            },
            self.tracer,
        )
    }
}
