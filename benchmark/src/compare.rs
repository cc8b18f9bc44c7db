//! `compare A B`: two result sets side by side, each (workload, metric)
//! judged against the benchmark's own bound.
//!
//! A result set is a directory of result files; it may hold several runs of
//! one workload. A metric's value in a set is the median over its runs, and
//! its spread is the quartile distance over the runs once there are four,
//! else the widest spread a run estimated for its own median.

use crate::result::RunResult;
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::path::Path;

/// Runs of one workload, traced or not, inside one set.
type Key = (String, bool);
pub type ResultSet = BTreeMap<Key, Vec<RunResult>>;

/// Reads every `*.json` result file directly inside `dir` (span files are
/// skipped by name).
pub fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with(".json") || name.starts_with("trace-") {
            continue;
        }
        let r = RunResult::read(&path)?;
        set.entry((r.workload.clone(), r.traced)).or_default().push(r);
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the base by more than the bound, or a count that differs.
    Worse,
    /// The spread is wider than the bound, so the bound cannot be judged.
    Unresolved,
    /// Reported without a bound.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One (workload, metric) line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// Median in set A: the base every ratio is given against.
    pub a: f64,
    pub b: f64,
    pub bound: Option<f64>,
    pub spread: f64,
    pub verdict: Verdict,
}

impl Row {
    /// Change from A to B as a share of A.
    pub fn delta(&self) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            self.b / self.a - 1.0
        }
    }
}

/// Median and spread of one metric over the runs of a set.
fn summarize(runs: &[RunResult], metric: &str) -> Option<(f64, f64)> {
    let found: Vec<_> = runs.iter().filter_map(|r| r.metrics.get(metric)).collect();
    if found.is_empty() {
        return None;
    }
    let values: Vec<f64> = found.iter().map(|m| m.value).collect();
    let spread =
        if values.len() >= 4 { quartile_spread(&values) } else { found.iter().map(|m| m.spread).fold(0.0, f64::max) };
    Some((median(&values), spread))
}

fn judge(better: &str, exact: bool, bound: Option<f64>, a: f64, b: f64, spread: f64) -> Verdict {
    if exact {
        return if a == b { Verdict::Ok } else { Verdict::Worse };
    }
    let Some(bound) = bound else { return Verdict::Info };
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if better == "lower" { b - a } else { a - b } / a.abs();
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// What both sets must share for their numbers to be comparable.
fn same_inputs(workload: &str, a: &RunResult, b: &RunResult) -> Result<(), String> {
    let (ma, mb) = (&a.manifest, &b.manifest);
    if ma.threads != mb.threads {
        return Err(format!("{workload}: sets ran with T = {} and T = {}", ma.threads, mb.threads));
    }
    if (ma.seed, ma.quick) != (mb.seed, mb.quick) {
        return Err(format!(
            "{workload}: sets ran with seed {} quick {} and seed {} quick {}",
            ma.seed, ma.quick, mb.seed, mb.quick
        ));
    }
    let hashes = |r: &RunResult| r.manifest.inputs.iter().map(|i| i.fnv64.clone()).collect::<Vec<_>>();
    if hashes(a) != hashes(b) {
        return Err(format!("{workload}: the sets' input hashes differ"));
    }
    Ok(())
}

/// Compares set `b` against base `a`. Refuses sets that did not run the
/// same workloads on the same inputs with the same thread count.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<Vec<Row>, String> {
    if a.keys().ne(b.keys()) {
        return Err(format!("the sets hold different workloads: {:?} and {:?}", a.keys(), b.keys()));
    }
    let mut rows = Vec::new();
    for ((workload, _), runs_a) in a {
        let runs_b = &b[&(workload.clone(), runs_a[0].traced)];
        for r in runs_a.iter().skip(1).chain(runs_b) {
            same_inputs(workload, &runs_a[0], r)?;
        }
        for (name, spec) in &runs_a[0].metrics {
            let (Some((va, sa)), Some((vb, sb))) = (summarize(runs_a, name), summarize(runs_b, name)) else {
                return Err(format!("{workload}: metric {name} is missing from one set"));
            };
            let spread = sa.max(sb);
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                unit: spec.unit.clone(),
                a: va,
                b: vb,
                bound: spec.bound,
                spread,
                verdict: judge(&spec.better, spec.exact, spec.bound, va, vb, spread),
            });
        }
    }
    Ok(rows)
}

/// Prints one line per row: both medians, the change with its base, the
/// bound, the spread and the verdict.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<38} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric [unit]", "A (base)", "B", "B/A-1", "bound", "spread"
    );
    for r in rows {
        let bound = r.bound.map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
        println!(
            "{:<14} {:<38} {:>14.6} {:>14.6} {:>+8.2}% {:>7} {:>6.2}%  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            r.delta() * 100.0,
            bound,
            r.spread * 100.0,
            r.verdict.label()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{environment, InputRecord, Metric, SCHEMA};

    fn run(workload: &str, roundtrip_ms: f64, spread: f64, retries: f64) -> RunResult {
        let mut manifest = environment(1, true);
        manifest.inputs.push(InputRecord { name: "f".into(), dims: vec![8, 8], bytes: 256, fnv64: "00ff".into() });
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "roundtrip_ms".to_string(),
            Metric { bound: Some(0.10), spread, ..Metric::new(roundtrip_ms, "ms", "lower") },
        );
        metrics
            .insert("svc.retries_total".to_string(), Metric { exact: true, ..Metric::new(retries, "count", "lower") });
        metrics.insert("calib.memcpy_MBps".to_string(), Metric::new(9000.0, "MB/s", "higher"));
        RunResult {
            schema: SCHEMA,
            workload: workload.to_string(),
            traced: false,
            manifest,
            correct: true,
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
            metrics,
            diagnostics: BTreeMap::new(),
            round_trip_ms: Vec::new(),
        }
    }

    fn set(runs: Vec<RunResult>) -> ResultSet {
        let mut s = ResultSet::new();
        for r in runs {
            s.entry((r.workload.clone(), r.traced)).or_default().push(r);
        }
        s
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn judges_against_the_bound_with_its_direction() {
        let base = set(vec![run("w", 100.0, 0.01, 4.0)]);
        let rows = compare(&base, &set(vec![run("w", 109.0, 0.01, 4.0)])).unwrap();
        assert_eq!(verdict_of(&rows, "roundtrip_ms"), Verdict::Ok);
        let row = rows.iter().find(|r| r.metric == "roundtrip_ms").unwrap();
        assert!((row.delta() - 0.09).abs() < 1e-12);
        let rows = compare(&base, &set(vec![run("w", 111.0, 0.01, 4.0)])).unwrap();
        assert_eq!(verdict_of(&rows, "roundtrip_ms"), Verdict::Worse);
        let rows = compare(&base, &set(vec![run("w", 50.0, 0.01, 4.0)])).unwrap();
        assert_eq!(verdict_of(&rows, "roundtrip_ms"), Verdict::Ok, "an improvement is never worse");
        assert_eq!(verdict_of(&rows, "calib.memcpy_MBps"), Verdict::Info);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let rows = compare(&set(vec![run("w", 100.0, 0.01, 4.0)]), &set(vec![run("w", 100.0, 0.2, 4.0)])).unwrap();
        assert_eq!(verdict_of(&rows, "roundtrip_ms"), Verdict::Unresolved);
        // With four runs a side the run-to-run quartiles replace the in-run spread.
        let steady = |ms: [f64; 4]| set(ms.iter().map(|&v| run("w", v, 0.5, 4.0)).collect());
        let rows = compare(&steady([100.0, 101.0, 99.0, 100.0]), &steady([100.5, 100.0, 101.0, 99.5])).unwrap();
        assert_eq!(verdict_of(&rows, "roundtrip_ms"), Verdict::Ok);
    }

    #[test]
    fn counts_must_match_exactly() {
        let rows = compare(&set(vec![run("w", 100.0, 0.0, 4.0)]), &set(vec![run("w", 100.0, 0.0, 5.0)])).unwrap();
        assert_eq!(verdict_of(&rows, "svc.retries_total"), Verdict::Worse);
    }

    #[test]
    fn refuses_sets_with_other_inputs_or_threads() {
        let base = set(vec![run("w", 100.0, 0.0, 4.0)]);
        let mut other = run("w", 100.0, 0.0, 4.0);
        other.manifest.inputs[0].fnv64 = "1234".into();
        assert!(compare(&base, &set(vec![other])).unwrap_err().contains("input hashes"));
        let mut other = run("w", 100.0, 0.0, 4.0);
        other.manifest.threads += 1;
        assert!(compare(&base, &set(vec![other])).unwrap_err().contains("T ="));
        assert!(compare(&base, &set(vec![run("v", 100.0, 0.0, 4.0)])).unwrap_err().contains("different workloads"));
    }
}
