//! `--quick` smoke runs of every workload, the shape of what they print and
//! write, and the agreement between `BENCHMARK.json` and the metric tables.

use ocelot_benchmark::compare::{compare, load_set, Verdict};
use ocelot_benchmark::result::{RunResult, END_TO_END, PER_LAYER};
use ocelot_benchmark::run::{result_path, run, trace_path, RunOpts};
use ocelot_benchmark::trace::Span;
use ocelot_benchmark::workloads::{Fault, WORKLOADS};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// A fresh directory under the crate's ignored `out/`.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("test-{test}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn quick(workload: &str, trace: bool, out_dir: &Path) -> RunOpts {
    RunOpts {
        workload: workload.to_string(),
        seed: 3,
        seconds: 1.0,
        trace,
        quick: true,
        out_dir: out_dir.to_path_buf(),
        fault: Fault::None,
    }
}

/// Keys of the `metrics` object on the summary line.
fn summary_metrics(result: &RunResult) -> Vec<String> {
    let line: Value = serde_json::from_str(&result.summary_line()).unwrap();
    line.get("metrics").unwrap().as_object().unwrap().iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn every_workload_runs_quick_and_reports_every_end_to_end_metric() {
    let dir = out_dir("untraced");
    let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    expected.sort_unstable();
    for workload in WORKLOADS {
        let result = run(&quick(workload, false, &dir)).unwrap();
        assert!(result.correct, "{workload}: {:?}", result.errors);
        assert_eq!(result.exit_code(), 0);
        assert!(result.attempted >= 3 && result.failed == 0);
        assert_eq!(summary_metrics(&result), expected, "{workload}");
        for (name, m) in &result.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {name} = {}", m.value);
            assert!(m.bound.is_some(), "{workload}: {name} has no bound");
        }
        assert_eq!(result.round_trip_ms.len(), 3, "a quick run measures three round trips");
        // What was written is what was returned.
        assert_eq!(RunResult::read(&result_path(&dir, workload, false)).unwrap(), result);
    }
    // The directory is a result set that agrees with itself.
    let set = load_set(&dir).unwrap();
    let rows = compare(&set, &set).unwrap();
    assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
    // Three quick samples may spread wider than a bound (unresolved); never worse.
    assert!(rows.iter().all(|r| r.verdict != Verdict::Worse));
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_writes_its_spans() {
    let dir = out_dir("traced");
    let result = run(&quick("bulk_streamed", true, &dir)).unwrap();
    assert!(result.correct, "{:?}", result.errors);
    let mut expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    expected.sort_unstable();
    assert_eq!(summary_metrics(&result), expected);

    let text = std::fs::read_to_string(trace_path(&dir, "bulk_streamed")).unwrap();
    let spans: Vec<Span> = serde_json::from_str(&text).unwrap();
    assert!(spans.iter().any(|s| s.workload == "bulk_streamed" && s.layer == "core.executor"));
    assert!(spans.iter().any(|s| s.workload == "layer_walk" && s.layer == "sz.predict"));
    for s in &spans {
        assert!(s.start_ns <= s.end_ns);
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns, "span {} leaves its parent", s.id);
        }
    }
}

#[test]
fn a_bit_flipped_blob_makes_the_run_fail_with_a_non_zero_exit() {
    let dir = out_dir("bitflip");
    let result = run(&RunOpts { fault: Fault::BitFlip, ..quick("bulk_staged", false, &dir) }).unwrap();
    assert!(!result.correct);
    assert!(result.failed > 0 && result.failed == result.attempted, "every blob was damaged");
    assert_ne!(result.exit_code(), 0);
    assert!(!result.errors.is_empty());
    assert!(result.summary_line().starts_with("{\"correct\":false,"));
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    assert!(run(&quick("bulk", false, &out_dir("unknown"))).is_err());
}

#[test]
fn benchmark_json_repeats_the_metric_tables() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let bench: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<&str> = bench.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let workloads: Vec<String> =
        bench.get("workloads").unwrap().as_array().unwrap().iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS);

    let end_to_end = bench.get("end_to_end").unwrap().as_array().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, spec) in end_to_end.iter().zip(&END_TO_END) {
        let listed_spec = [text(listed, "name"), text(listed, "unit"), text(listed, "better")];
        assert_eq!(listed_spec, [spec.name, spec.unit, spec.better]);
        assert_eq!(listed.get("bound").and_then(Value::as_f64), Some(spec.bound), "{}", spec.name);
    }

    let per_layer = bench.get("per_layer").unwrap().as_array().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (listed, spec) in per_layer.iter().zip(&PER_LAYER) {
        let listed_spec = [text(listed, "name"), text(listed, "unit"), text(listed, "better")];
        assert_eq!(listed_spec, [spec.name, spec.unit, spec.better]);
    }
}
