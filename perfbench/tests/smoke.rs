//! Smoke-scale runs of every workload: each metric `BENCHMARK.json`
//! names is reported with its unit, every check passes, and the trace
//! file holds correctly nested spans.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 4] = [
    "exact-sendcoef",
    "exact-hwtopk-mp",
    "approx-twolevel",
    "serve-refresh",
];

fn out_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// Runs one smoke-scale workload; returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool, out: &Path) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .arg("--out-dir")
        .arg(out)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} exited with {}:\n{stdout}",
        output.status
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

/// `(name, unit)` of each metric in one section of BENCHMARK.json.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let spec = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = spec.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("{section} entry without name and unit"),
        })
        .collect()
}

fn metrics(result: &Value) -> HashMap<String, (f64, String)> {
    let Some(Value::Object(fields)) = result.get("metrics") else {
        panic!("no metrics object");
    };
    fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .expect("numeric value");
            let Some(Value::Str(unit)) = m.get("unit") else {
                panic!("{name} has no unit");
            };
            (name.clone(), (value, unit.clone()))
        })
        .collect()
}

/// Every check passed and the metrics are exactly the contract's.
fn assert_complete(workload: &str, result: &Value, section: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let got = metrics(result);
    let want = contract(section);
    assert_eq!(got.len(), want.len(), "{workload}: {:?}", got.keys());
    for (name, unit) in want {
        let (value, got_unit) = got
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(*got_unit, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if section == "end_to_end" {
            assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
        }
    }
}

#[test]
fn measured_runs_report_every_end_to_end_metric_and_pass_every_check() {
    let out = out_dir("measured");
    for w in WORKLOADS {
        assert_complete(w, &run(w, 1, false, &out), "end_to_end");
    }
}

#[test]
fn a_second_seed_reports_the_same_metrics_and_passes() {
    let out = out_dir("second-seed");
    for w in WORKLOADS {
        let a = metrics(&run(w, 1, false, &out));
        let result = run(w, 2, false, &out);
        assert_complete(w, &result, "end_to_end");
        let b = metrics(&result);
        let names = |m: &HashMap<String, (f64, String)>| m.keys().cloned().collect::<HashSet<_>>();
        assert_eq!(names(&a), names(&b), "{w}");
    }
}

#[test]
fn communication_and_quality_repeat_exactly_for_a_seed() {
    let out = out_dir("repeat");
    for w in WORKLOADS {
        let a = metrics(&run(w, 7, false, &out));
        let b = metrics(&run(w, 7, false, &out));
        for name in ["comm_bytes", "sse_ratio"] {
            assert_eq!(a[name].0.to_bits(), b[name].0.to_bits(), "{w}: {name}");
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_nested_spans() {
    let out = out_dir("traced");
    for w in WORKLOADS {
        let result = run(w, 1, true, &out);
        assert_complete(w, &result, "per_layer");
        let trace = out.join(format!("{w}-seed1-trace1-smoke.trace.json"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        let trace = serde_json::parse(&text).expect("trace parses");
        let Some(Value::Array(spans)) = trace.get("spans") else {
            panic!("{w}: no spans");
        };
        assert!(!spans.is_empty(), "{w}: empty trace");
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_u64);
        let mut by_id = HashMap::new();
        for s in spans {
            let id = num(s, "id").expect("span id");
            let (start, end) = (num(s, "start_ns").unwrap(), num(s, "end_ns").unwrap());
            assert!(start <= end, "{w}: span {id} ends before it starts");
            assert_eq!(s.get("workload"), Some(&Value::Str(w.into())));
            assert!(matches!(s.get("name"), Some(Value::Str(_))));
            assert!(
                by_id.insert(id, (start, end)).is_none(),
                "{w}: duplicate span {id}"
            );
        }
        for s in spans {
            let Some(parent) = num(s, "parent") else {
                continue;
            };
            let (ps, pe) = by_id[&parent];
            let (start, end) = (num(s, "start_ns").unwrap(), num(s, "end_ns").unwrap());
            assert!(
                ps <= start && end <= pe,
                "{w}: span outside its parent {parent}"
            );
        }
    }
}
