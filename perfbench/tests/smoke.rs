//! Smoke test of the benchmark itself: every workload runs at tiny scale,
//! untraced and traced, passes its correctness checks, and emits exactly
//! the metrics `BENCHMARK.json` declares, with their units. The workload
//! records in `WORKLOADS.json` must be what `--describe` prints.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["hot-book", "cold-courses", "demand-stream"];

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every entry in the `key` list of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = read(&bench_dir().join("../BENCHMARK.json"));
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"));
    let list = &text[start..start + text[start..].find(']').expect("the list closes")];
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "..."` in `entry`.
fn field(entry: &str, key: &str) -> String {
    let pat = format!("\"{key}\": \"");
    let at = entry
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {entry}"))
        + pat.len();
    entry[at..at + entry[at..].find('"').expect("the string closes")].to_string()
}

/// The numeric value of metric `name` in a result line.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let pat = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"))
        + pat.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("value is followed by its unit");
    assert!(
        rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
        "metric {name} lacks unit {unit}"
    );
    rest[..end].parse().expect("metric values are numbers")
}

fn run(workload: &str, trace: bool) -> String {
    let trace_dir = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(&trace_dir)
        .output()
        .expect("the benchmark binary runs");
    let _ = std::fs::remove_dir_all(&trace_dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("# fingerprint {\"nproc\": "), "{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, key: &str) -> String {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    let names = declared(key);
    assert_eq!(
        line.matches("{\"value\": ").count(),
        names.len(),
        "{workload} emits exactly the declared {key} metrics"
    );
    for (name, unit) in &names {
        let v = metric(&line, name, unit);
        assert!(v.is_finite(), "{workload} {name} = {v}");
    }
    line
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for w in WORKLOADS {
        let line = check(w, false, "end_to_end");
        for (name, unit) in declared("end_to_end") {
            assert!(metric(&line, &name, &unit) > 0.0, "{w} {name} is never 0");
        }
        let ok = metric(&line, "ok_frac", "frac");
        if w != "demand-stream" {
            assert_eq!(ok, 1.0, "{w}: every closed-loop order is ok");
        }
    }
}

#[test]
fn every_workload_reports_its_per_layer_metrics() {
    for w in WORKLOADS {
        let line = check(w, true, "per_layer");
        assert_eq!(metric(&line, "recover.trainings", "count"), 0.0, "{w}");
        let demand_side = ["matching.candidates", "clearing.epochs", "admission.calls"];
        for name in demand_side {
            let v = metric(&line, name, "count");
            assert_eq!(v > 0.0, w == "demand-stream", "{w} {name} = {v}");
        }
    }
}

#[test]
fn workload_records_match_describe() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--describe")
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success());
    let described = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(read(&bench_dir().join("WORKLOADS.json")), described);
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in declared(key) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"}}");
            assert!(
                described.contains(&entry),
                "{key} {name} [{unit}] is described"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
