//! The flags `fc-server` and `fc-coordinator` both take — the upward
//! listener's [`ServerOptions`] and the default-plan and compute knobs —
//! parsed by one parser, so the two binaries cannot drift on a flag's
//! name, value syntax or error message.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

use fc_clustering::CostKind;
use fc_core::plan::Method;
use fc_service::{EngineConfig, ServerOptions};

/// The values of the shared flags.
pub struct ServingFlags {
    /// `--io-model --executor-threads --max-connections
    /// --request-deadline-ms --wire`.
    pub options: ServerOptions,
    /// `--k`.
    pub k: usize,
    /// `--m-scalar`.
    pub m_scalar: usize,
    /// `--budget`.
    pub budget: Option<usize>,
    /// `--kmedian`.
    pub kind: CostKind,
    /// `--method`.
    pub method: Method,
    /// `--cache-capacity`.
    pub cache_capacity: usize,
}

impl Default for ServingFlags {
    /// The engine's defaults, which are the coordinator's too.
    fn default() -> Self {
        let engine = EngineConfig::default();
        ServingFlags {
            options: ServerOptions::default(),
            k: engine.k,
            m_scalar: engine.m_scalar,
            budget: engine.compaction_budget,
            kind: engine.kind,
            method: engine.method,
            cache_capacity: engine.cache_capacity,
        }
    }
}

/// The usage-text fragment for the shared flags. `wire_on` is the name
/// the binary gives `--wire`'s upgrade-capable mode (`auto` on the server,
/// `bin1` on the coordinator, where it also covers the node dials).
pub fn usage(wire_on: &str) -> String {
    format!(
        "[--k K] [--m-scalar M] [--budget POINTS] [--kmedian] [--method NAME] \
         [--solve-threads N] [--cache-capacity N] \
         [--io-model reactor|threaded] [--executor-threads N] \
         [--max-connections N] [--request-deadline-ms N] [--wire {wire_on}|json]"
    )
}

/// The value that follows `flag`; without one, says so and exits through
/// the binary's `usage`.
pub fn value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    usage: fn() -> !,
) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a {what}");
        usage()
    })
}

fn number<T: FromStr>(text: String, usage: fn() -> !) -> T {
    text.parse().unwrap_or_else(|_| usage())
}

/// A value whose `FromStr` error is the message (it lists the names).
fn named<T: FromStr<Err: Display>>(text: String, usage: fn() -> !) -> T {
    text.parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    })
}

impl ServingFlags {
    /// Consumes `flag`, and its value from `args`, when it is one of the
    /// shared flags; `false` leaves it to the binary's own parser. A bad
    /// value exits through the binary's `usage`.
    pub fn parse(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
        wire_on: &str,
        usage: fn() -> !,
    ) -> bool {
        let mut value = |what| value(args, flag, what, usage);
        let options = &mut self.options;
        match flag {
            "--k" => self.k = number(value("count"), usage),
            "--m-scalar" => self.m_scalar = number(value("count"), usage),
            "--budget" => self.budget = Some(number(value("points"), usage)),
            "--kmedian" => self.kind = CostKind::KMedian,
            "--method" => self.method = named(value("method name"), usage),
            "--solve-threads" => {
                let threads: usize = number(value("count"), usage);
                if threads == 0 {
                    eprintln!("--solve-threads needs a positive count");
                    usage();
                }
                // Process-wide: every kernel, on the query path and in the
                // shard workers alike, reads this one setting.
                fc_geom::par::set_max_threads(threads);
            }
            "--cache-capacity" => self.cache_capacity = number(value("count"), usage),
            "--io-model" => options.io_model = named(value("model name"), usage),
            "--executor-threads" => options.executor_threads = number(value("count"), usage),
            "--max-connections" => options.max_connections = number(value("count"), usage),
            "--request-deadline-ms" => {
                let ms = number(value("milliseconds"), usage);
                options.request_deadline = Some(Duration::from_millis(ms));
            }
            "--wire" => match value("protocol").as_str() {
                "json" => options.binary_wire = false,
                on if on == wire_on => options.binary_wire = true,
                other => {
                    eprintln!("unknown --wire mode `{other}` ({wire_on}, json)");
                    usage();
                }
            },
            _ => return false,
        }
        true
    }
}
