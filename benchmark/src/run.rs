//! One run of one workload: set up, measure for the given time, check,
//! report. End-to-end numbers always come from an untraced run; a traced
//! run re-measures the workload with and without spans and then walks the
//! layers.

use crate::adapter::CallResult;
use crate::result::{self, Metric, RunResult, END_TO_END, PER_LAYER, SCHEMA};
use crate::stats::{high_percentile, median, quantile, spread_of_median};
use crate::trace::{self, Tracer};
use crate::walk::Walk;
use crate::workloads::{set_up, Fault, Size, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Times the benchmark sets the workload up in an untraced run (once in a
/// `--quick` one); `setup_s` is the median. Set-up is mostly datagen and
/// profile building, steady work, so two are enough and leave the time to
/// the round trips.
const SETUPS: usize = 2;
/// Round trips measured whatever the time budget says.
const MIN_ROUND_TRIPS: usize = 3;
/// The quantile of a run's round-trip times that `roundtrip_ms` reports: the
/// first decile. On a shared host the neighbours only ever add time, in
/// bursts of seconds to minutes, so the low end of a run's samples is what
/// the program costs and the middle is what the neighbours were doing: over
/// ten 20 s runs of `svc_streamed` the medians spread 16–26 % (quartile
/// distance ÷ median) and the first deciles 8 %. The median and a high
/// percentile are reported beside it, ungated.
const ROUNDTRIP_QUANTILE: f64 = 0.10;
/// Failure messages kept in the result file.
const ERRORS_KEPT: usize = 8;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// Seconds to measure for; a `quick` run stops after three round trips
    /// whatever this says.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
    /// Test hook, see [`Fault`].
    pub fault: Fault,
}

/// Timings of the measured round trips, in milliseconds.
#[derive(Default)]
struct Measured {
    round_trip_ms: Vec<f64>,
    src_ms: Vec<f64>,
    dst_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// `VmHWM` after the first `MIN_ROUND_TRIPS` round trips: a fixed amount
    /// of work, where the final high-water mark would grow with however many
    /// round trips fit into the time budget (the service keeps its ledger).
    peak_rss_mb: Option<f64>,
}

fn measure(w: &mut dyn Workload, tracer: &mut Tracer, seconds: f64, quick: bool) -> Measured {
    let mut m = Measured::default();
    let t0 = Instant::now();
    loop {
        let done = m.round_trip_ms.len();
        if done >= MIN_ROUND_TRIPS && (quick || t0.elapsed().as_secs_f64() >= seconds) {
            return m;
        }
        tracer.set_iter(done as u64);
        let out = w.round_trip(tracer);
        m.round_trip_ms.push(out.program_ns as f64 / 1e6);
        m.src_ms.extend(out.src_ns.map(|ns| ns as f64 / 1e6));
        m.dst_ms.extend(out.dst_ns.map(|ns| ns as f64 / 1e6));
        m.attempted += out.attempted;
        m.failed += out.failures.len() as u64;
        let room = ERRORS_KEPT.saturating_sub(m.errors.len());
        m.errors.extend(out.failures.into_iter().take(room));
        if done + 1 == MIN_ROUND_TRIPS {
            m.peak_rss_mb = result::peak_rss_mb();
        }
    }
}

fn mb_per_s(bytes: u64, ms: f64) -> f64 {
    bytes as f64 / 1e6 / (ms / 1e3)
}

/// Numbers derived from the round-trip timings, for people; never gated.
fn diagnostics(w: &dyn Workload, m: &Measured) -> BTreeMap<String, Metric> {
    let mut d = BTreeMap::new();
    let p50 = median(&m.round_trip_ms);
    let (pct, hi) = high_percentile(&m.round_trip_ms);
    d.insert("bench.roundtrip_ms_p50".to_string(), Metric::new(p50, "ms", "lower"));
    d.insert("bench.roundtrip_ms_hi".to_string(), Metric::new(hi, &format!("ms_p{pct}"), "lower"));
    d.insert("bench.samples".to_string(), Metric::new(m.round_trip_ms.len() as f64, "count", "higher"));
    let ops_per_round_trip = m.attempted as f64 / m.round_trip_ms.len() as f64;
    d.insert("ops_per_s".to_string(), Metric::new(ops_per_round_trip / (p50 / 1e3), "1/s", "higher"));
    if w.moves_real_bytes() {
        d.insert("goodput_MBps".to_string(), Metric::new(mb_per_s(w.raw_bytes(), p50), "MB/s", "higher"));
    }
    if !m.src_ms.is_empty() {
        d.insert("src_MBps".to_string(), Metric::new(mb_per_s(w.raw_bytes(), median(&m.src_ms)), "MB/s", "higher"));
        d.insert("dst_MBps".to_string(), Metric::new(mb_per_s(w.raw_bytes(), median(&m.dst_ms)), "MB/s", "higher"));
    }
    d
}

fn end_to_end(ratio: f64, m: &Measured, setup_s: &[f64]) -> CallResult<BTreeMap<String, Metric>> {
    let rss = m.peak_rss_mb.ok_or("cannot read VmHWM from /proc/self/status")?;
    let values = [
        // The low end of the samples is tighter than their middle, so the
        // spread of a median is an upper estimate of this quantile's.
        ("roundtrip_ms", quantile(&m.round_trip_ms, ROUNDTRIP_QUANTILE), spread_of_median(&m.round_trip_ms)),
        ("ratio", ratio, 0.0),
        ("peak_rss_MB", rss, 0.0),
        ("setup_s", median(setup_s), spread_of_median(setup_s)),
    ];
    Ok(END_TO_END
        .iter()
        .map(|spec| {
            let &(_, value, spread) = values.iter().find(|(name, ..)| *name == spec.name).expect("a value per metric");
            let metric = Metric { bound: Some(spec.bound), spread, ..Metric::new(value, spec.unit, spec.better) };
            (spec.name.to_string(), metric)
        })
        .collect())
}

fn per_layer(values: &BTreeMap<String, f64>) -> CallResult<BTreeMap<String, Metric>> {
    PER_LAYER
        .iter()
        .map(|spec| {
            let value = *values.get(spec.name).ok_or_else(|| format!("no value for per-layer metric {}", spec.name))?;
            if !value.is_finite() {
                return Err(format!("per-layer metric {} is {value}", spec.name));
            }
            Ok((spec.name.to_string(), Metric { exact: spec.exact, ..Metric::new(value, spec.unit, spec.better) }))
        })
        .collect()
}

/// Share of the workload's recorded round-trip time that is self time of
/// spans whose layer `keep` accepts.
fn self_share(spans: &[trace::Span], workload: &str, keep: impl Fn(&str) -> bool) -> f64 {
    let own = trace::self_times_ns(spans);
    let mine = || spans.iter().zip(&own).filter(|(s, _)| s.workload == workload);
    let total: u64 = mine().map(|(_, &ns)| ns).sum();
    let kept: u64 = mine().filter(|(s, _)| keep(&s.layer)).map(|(_, &ns)| ns).sum();
    kept as f64 / total.max(1) as f64
}

fn untraced(opts: &RunOpts, size: &Size, threads: usize, result: &mut RunResult) -> CallResult<()> {
    let timed_set_up = || {
        let t0 = Instant::now();
        let w = set_up(&opts.workload, opts.seed, size, threads, opts.fault)?;
        Ok::<_, String>((w, t0.elapsed().as_secs_f64()))
    };
    let (mut w, first_setup_s) = timed_set_up()?;
    let m = measure(w.as_mut(), &mut Tracer::off(), opts.seconds, opts.quick);
    (result.manifest.inputs, result.manifest.outputs) = w.manifest();
    let ratio = w.raw_bytes() as f64 / w.wire_bytes() as f64;
    result.diagnostics = diagnostics(w.as_ref(), &m);
    w.finish();
    // The repeat set-ups come last: memory they leave behind would otherwise
    // sit in the peak RSS, which is read early in the measurement.
    let mut setup_s = vec![first_setup_s];
    for _ in 1..if opts.quick { 1 } else { SETUPS } {
        let (again, s) = timed_set_up()?;
        again.finish();
        setup_s.push(s);
    }
    result.metrics = end_to_end(ratio, &m, &setup_s)?;
    (result.attempted, result.failed, result.errors) = (m.attempted, m.failed, m.errors);
    result.round_trip_ms = m.round_trip_ms;
    Ok(())
}

fn traced(opts: &RunOpts, size: &Size, threads: usize, result: &mut RunResult) -> CallResult<()> {
    let mut w = set_up(&opts.workload, opts.seed, size, threads, opts.fault)?;
    let plain = measure(w.as_mut(), &mut Tracer::off(), opts.seconds / 4.0, opts.quick);
    let mut tracer = Tracer::on(&opts.workload);
    let spanned = measure(w.as_mut(), &mut tracer, opts.seconds / 4.0, opts.quick);
    (result.manifest.inputs, result.manifest.outputs) = w.manifest();
    w.finish();

    tracer.set_workload("layer_walk");
    let walk = Walk::new(opts.seed, size, threads, &mut tracer)?;
    let mut values = walk.run(opts.seconds / 2.0, &mut tracer)?;

    let (pct, hi) = high_percentile(&plain.round_trip_ms);
    let overhead = median(&spanned.round_trip_ms) / median(&plain.round_trip_ms) - 1.0;
    values.insert("bench.roundtrip_ms_p50".to_string(), median(&plain.round_trip_ms));
    values.insert("bench.roundtrip_ms_hi".to_string(), hi);
    values.insert("bench.samples".to_string(), plain.round_trip_ms.len() as f64);
    values.insert("bench.trace_overhead_ratio".to_string(), overhead);
    let in_program = |layer: &str| !layer.starts_with("bench");
    values.insert("bench.program_share".to_string(), self_share(tracer.spans(), &opts.workload, in_program));
    let in_check = |layer: &str| layer == "bench.check";
    values.insert("bench.check_share".to_string(), self_share(tracer.spans(), &opts.workload, in_check));
    result.metrics = per_layer(&values)?;

    result
        .diagnostics
        .insert("bench.roundtrip_hi_percentile".to_string(), Metric::new(f64::from(pct), "count", "higher"));
    for (layer, ms) in trace::layer_self_ms(tracer.spans()) {
        result.diagnostics.insert(format!("self_ms.{layer}"), Metric::new(ms, "ms", "lower"));
    }
    result::write_json(&trace_path(&opts.out_dir, &opts.workload), &tracer.spans().to_vec())?;

    result.round_trip_ms = plain.round_trip_ms;
    result.attempted = plain.attempted + spanned.attempted;
    result.failed = plain.failed + spanned.failed;
    result.errors = plain.errors.into_iter().chain(spanned.errors).take(ERRORS_KEPT).collect();
    Ok(())
}

/// Where an untraced (`<workload>.json`) or traced (`<workload>.layers.json`)
/// run leaves its result.
pub fn result_path(out_dir: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir.join(if traced { format!("{workload}.layers.json") } else { format!("{workload}.json") })
}

/// Where a traced run leaves its spans.
pub fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("trace-{workload}.json"))
}

/// Runs one workload and writes its result file. `Err` means the benchmark
/// itself could not run; a run whose output checks failed is `Ok` with
/// `correct == false`.
pub fn run(opts: &RunOpts) -> CallResult<RunResult> {
    let size = if opts.quick { Size::QUICK } else { Size::FULL };
    let threads = result::load_threads();
    let mut result = RunResult {
        schema: SCHEMA,
        workload: opts.workload.clone(),
        traced: opts.trace,
        manifest: result::environment(opts.seed, opts.quick),
        correct: false,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: BTreeMap::new(),
        diagnostics: BTreeMap::new(),
        round_trip_ms: Vec::new(),
    };
    if opts.trace {
        traced(opts, &size, threads, &mut result)?;
    } else {
        untraced(opts, &size, threads, &mut result)?;
    }
    result.correct = result.failed == 0 && result.attempted > 0;
    result.write(&result_path(&opts.out_dir, &opts.workload, opts.trace))?;
    Ok(result)
}

/// Prints every metric as `name value unit`, then the one-line summary.
pub fn print(result: &RunResult) {
    for e in &result.errors {
        println!("FAILED {e}");
    }
    for (name, m) in result.diagnostics.iter().chain(&result.metrics) {
        println!("{name} {} {}", m.value, m.unit);
    }
    println!("{}", result.summary_line());
}
