//! The metric tables, the result file of one run, and the machine facts
//! recorded with it.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics every workload reports; `BENCHMARK.json` repeats
/// this table and a test holds the two together.
///
/// The bounds are what the 2-core VM this was written on can resolve:
/// `roundtrip_ms` (the first decile of a run's round trips, see `run.rs`)
/// moves by 4–11 % (quartile distance over ten runs) however long the run
/// is, and the early heap high-water mark of `bulk_staged` is bimodal (33 or
/// 37 MB). A bound needs about three times that. A gain is claimed from
/// paired runs, not from these.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "roundtrip_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "ratio", unit: "x", better: "higher", bound: 0.02 },
    EndToEnd { name: "peak_rss_MB", unit: "MB", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// A per-layer metric of the traced run. `exact` marks counts that repeat
/// exactly for a seed, so two runs of one program must agree on them.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub exact: bool,
}

const fn rate(name: &'static str) -> PerLayer {
    PerLayer { name, unit: "MB/s", better: "higher", exact: false }
}

const fn cost(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower", exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// The per-layer metrics every traced run reports (layer = module name).
pub const PER_LAYER: [PerLayer; 51] = [
    rate("calib.memcpy_MBps"),
    rate("calib.crc32_MBps"),
    rate("datagen.gen_MBps"),
    rate("sz.predict.interp_enc_MBps"),
    rate("sz.predict.interp_dec_MBps"),
    rate("sz.predict.lorenzo_enc_MBps"),
    rate("sz.predict.lorenzo_dec_MBps"),
    count("sz.predict.unpredictable_ratio", "count", "lower"),
    cost("sz.encode.huff_build_ms", "ms"),
    cost("sz.encode.huff_build_us_per_file", "us"),
    rate("sz.encode.huff_enc_MBps"),
    rate("sz.encode.huff_dec_MBps"),
    rate("sz.encode.lz_enc_MBps"),
    rate("sz.encode.lz_dec_MBps"),
    count("sz.encode.code_bytes_share", "count", "lower"),
    rate("sz.format.verify_MBps"),
    rate("sz.pipeline.compress_t1_MBps"),
    rate("sz.pipeline.decompress_t1_MBps"),
    rate("sz.pipeline.compress_tT_MBps"),
    rate("sz.pipeline.decompress_tT_MBps"),
    cost("sz.pipeline.glue_share_enc", "share"),
    cost("sz.pipeline.glue_share_dec", "share"),
    cost("sz.pipeline.per_file_us", "us"),
    PerLayer { name: "sz.engine.par_eff_enc", unit: "share", better: "higher", exact: false },
    PerLayer { name: "sz.engine.par_eff_dec", unit: "share", better: "higher", exact: false },
    cost("core.executor.stream_over_staged", "x"),
    rate("core.executor.pool_enc_MBps"),
    rate("core.executor.pool_dec_MBps"),
    rate("core.session.build_MBps"),
    rate("core.session.restore_MBps"),
    cost("core.session.pack_share", "share"),
    cost("core.session.unpack_share", "share"),
    rate("core.grouping.group_MBps"),
    rate("core.grouping.ungroup_MBps"),
    cost("core.workload.profile_s", "s"),
    cost("core.orchestrator.streamed_ms_per_job", "ms"),
    cost("netsim.transfer_us_per_file", "us"),
    cost("faas.makespan_us_per_file", "us"),
    cost("svc.staged_ms_per_job", "ms"),
    cost("svc.streamed_batch_ms", "ms"),
    cost("svc.submit_us", "us"),
    count("svc.sim_latency_sum_s", "s", "lower"),
    count("svc.retries_total", "count", "lower"),
    count("svc.wasted_bytes", "count", "lower"),
    count("svc.journal_events_per_job", "count", "lower"),
    cost("bench.roundtrip_ms_p50", "ms"),
    cost("bench.roundtrip_ms_hi", "ms"),
    PerLayer { name: "bench.samples", unit: "count", better: "higher", exact: false },
    cost("bench.program_share", "share"),
    cost("bench.check_share", "share"),
    cost("bench.trace_overhead_ratio", "share"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub better: String,
    /// Regression bound as a share of the base; `None` for metrics that are
    /// reported but not gated.
    pub bound: Option<f64>,
    /// True for counts that must repeat exactly.
    pub exact: bool,
    /// The spread to expect of `value`, a median, from the spread of the
    /// samples behind it (`stats::spread_of_median`; 0 when the value is a
    /// single measurement or a count).
    pub spread: f64,
}

impl Metric {
    pub fn new(value: f64, unit: &str, better: &str) -> Self {
        Metric { value, unit: unit.to_string(), better: better.to_string(), bound: None, exact: false, spread: 0.0 }
    }
}

/// One generated input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputRecord {
    pub name: String,
    pub dims: Vec<u64>,
    pub bytes: u64,
    pub fnv64: String,
}

/// One reference output (blob or archive set) of the set-up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputRecord {
    pub name: String,
    pub bytes: u64,
    pub fnv64: String,
    pub chunks: u64,
}

/// What was run, on what.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    pub seed: u64,
    pub quick: bool,
    /// Load-generating threads, `min(nproc, 4)`.
    pub threads: u64,
    pub nproc: u64,
    pub cpu_model: String,
    pub rustc: String,
    pub git_commit: String,
    pub inputs: Vec<InputRecord>,
    pub outputs: Vec<OutputRecord>,
}

/// The result file of one run: `out/<workload>.json`, or
/// `out/<workload>.layers.json` for a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub schema: u64,
    pub workload: String,
    pub traced: bool,
    pub manifest: Manifest,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: BTreeMap<String, Metric>,
    /// Derived and diagnostic numbers; never gated.
    pub diagnostics: BTreeMap<String, Metric>,
    /// Every untraced round-trip time, in measurement order.
    pub round_trip_ms: Vec<f64>,
}

pub const SCHEMA: u64 = 1;

impl RunResult {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics` with `{value, unit}` each.
    pub fn summary_line(&self) -> String {
        use serde_json::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let entry = vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::String(m.unit.clone())),
                ];
                (name.clone(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree serializes")
    }

    /// Process exit code: 0 only when every output check passed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct)
    }

    pub fn write(&self, path: &Path) -> Result<(), String> {
        write_json(path, self)
    }

    pub fn read(path: &Path) -> Result<RunResult, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let r: RunResult = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if r.schema != SCHEMA {
            return Err(format!("{}: result schema {} (this harness reads {SCHEMA})", path.display(), r.schema));
        }
        Ok(r)
    }
}

/// Writes `value` as pretty JSON, creating the directory first.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Load-generating threads: `min(nproc, 4)`, so the harness never runs more
/// threads than the machine has cores.
pub fn load_threads() -> usize {
    nproc().min(4)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find(|l| l.starts_with(key)).and_then(|l| l.split_once(':')).map(|(_, v)| v.trim().to_string())
}

/// Machine and toolchain facts for the manifest.
pub fn environment(seed: u64, quick: bool) -> Manifest {
    Manifest {
        seed,
        quick,
        threads: load_threads() as u64,
        nproc: nproc() as u64,
        cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
        rustc: first_line_of("rustc", &["--version"]),
        git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
        inputs: Vec::new(),
        outputs: Vec::new(),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "roundtrip_ms".to_string(),
            Metric { bound: Some(0.1), spread: 0.01, ..Metric::new(12.345678901, "ms", "lower") },
        );
        metrics.insert("setup_s".to_string(), Metric::new(1.5, "s", "lower"));
        RunResult {
            schema: SCHEMA,
            workload: "bulk_staged".to_string(),
            traced: false,
            manifest: environment(7, true),
            correct: true,
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            metrics,
            diagnostics: BTreeMap::new(),
            round_trip_ms: vec![12.5, 12.25],
        }
    }

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let line = sample().summary_line();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(|a| a.as_u64()), Some(10));
        let m = v.get("metrics").unwrap().get("roundtrip_ms").unwrap();
        let entry: Vec<&str> = m.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(entry, ["value", "unit"]);
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(12.345678901), "all digits survive");
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-result-file");
        let path = dir.join("r.json");
        r.write(&path).unwrap();
        assert_eq!(RunResult::read(&path).unwrap(), r);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exit_code_follows_correct() {
        let mut r = sample();
        assert_eq!(r.exit_code(), 0);
        r.correct = false;
        assert_ne!(r.exit_code(), 0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert!(names
            .iter()
            .all(|n| n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
