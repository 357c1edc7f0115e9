//! `fcbench run --all --smoke` must print exactly what `BENCHMARK.json`
//! declares: every workload, and under it every end-to-end metric in the
//! untraced pass and every per-layer metric in the traced pass, once each,
//! as `name value unit` with a finite value; and nothing it does not
//! declare.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use fc_core::json::{self, Value};

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn manifest() -> Value {
    let text = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `name -> unit` of one of the manifest's metric lists.
fn declared(manifest: &Value, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("`{list}` is a list"))
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Value::as_str).expect(key).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_run_prints_exactly_what_benchmark_json_declares() {
    let manifest = manifest();
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let workloads: BTreeSet<String> = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("`workloads` is a list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();

    let output = Command::new(env!("CARGO_BIN_EXE_fcbench"))
        .args(["run", "--all", "--smoke"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("fcbench runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // (workload, traced) -> metric -> times printed.
    let mut sections: BTreeMap<(String, bool), BTreeMap<String, usize>> = BTreeMap::new();
    let mut current = None;
    for line in stdout.lines() {
        if let Some(header) = line.strip_prefix("# workload ") {
            let mut words = header.split_whitespace();
            let workload = words.next().expect("workload name").to_owned();
            let traced = match words.next() {
                Some("trace=0") => false,
                Some("trace=1") => true,
                other => panic!("bad header `{line}`: {other:?}"),
            };
            assert!(
                workloads.contains(&workload),
                "undeclared workload `{workload}`"
            );
            let fresh = sections.insert((workload.clone(), traced), BTreeMap::new());
            assert!(fresh.is_none(), "`{header}` printed twice");
            current = Some((workload, traced));
        } else if !line.starts_with('#') {
            let key = current
                .clone()
                .expect("metric line under a workload header");
            let words: Vec<&str> = line.split_whitespace().collect();
            let [name, value, unit] = words[..] else {
                panic!("not `name value unit`: `{line}`");
            };
            assert!(well_formed(name), "bad metric name `{name}`");
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad value in `{line}`"));
            assert!(value.is_finite(), "`{line}` is not finite");
            // The driver takes ratios of end-to-end metrics.
            assert!(key.1 || value != 0.0, "end-to-end `{line}` is 0");
            let expected = if key.1 { &per_layer } else { &end_to_end };
            assert_eq!(
                expected.get(name).map(String::as_str),
                Some(unit),
                "`{name}` ({unit}) under {key:?} is not what BENCHMARK.json declares"
            );
            *sections
                .get_mut(&key)
                .expect("section exists")
                .entry(name.to_owned())
                .or_default() += 1;
        }
    }

    for workload in &workloads {
        for (traced, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let printed = sections
                .get(&(workload.clone(), traced))
                .unwrap_or_else(|| panic!("{workload} trace={traced} was not run"));
            for name in expected.keys() {
                assert_eq!(
                    printed.get(name),
                    Some(&1),
                    "{workload} trace={traced}: `{name}` must be printed exactly once"
                );
            }
            assert_eq!(printed.len(), expected.len());
        }
    }
}

#[test]
fn manifest_subcommand_prints_benchmark_json() {
    let output = Command::new(env!("CARGO_BIN_EXE_fcbench"))
        .arg("manifest")
        .output()
        .expect("fcbench runs");
    assert!(output.status.success());
    let printed = String::from_utf8(output.stdout).expect("utf-8 output");
    let committed = std::fs::read_to_string(MANIFEST).expect("BENCHMARK.json");
    assert_eq!(
        printed, committed,
        "regenerate with `fcbench manifest > BENCHMARK.json`"
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_fcbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("fcbench runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result line on a refused run");
}
