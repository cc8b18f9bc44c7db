//! Continuous profiling: kernel-level attribution for the compression hot
//! path, cheap enough to leave on in production.
//!
//! The span recorder answers "where did this *job* spend its time" at stage
//! granularity; `prof` answers "where did the *CPU* spend its cycles" at
//! kernel granularity — predict/quantize sweep, Huffman coding, dictionary
//! passes, framing/CRC — per chunk, on every worker thread.
//!
//! Design:
//!
//! * **Probes** ([`probe`]) are RAII guards around one kernel invocation.
//!   They record elapsed nanos and bytes into a plain thread-local
//!   accumulator — no atomics, no locks, two clock reads. When no profiler
//!   is installed the guard is a single relaxed atomic load and nothing
//!   else, so instrumented hot paths cost effectively nothing disabled.
//! * **Scopes** ([`scope`]) bracket a unit of work (one chunk task, one
//!   stream drain). On scope exit the thread-local accumulator is drained
//!   into the thread's [`ThreadSink`]: cumulative per-(scope, kernel)
//!   atomic totals a snapshot reads without stopping the world.
//! * **Self-overhead** is measured, not assumed: probe cost is calibrated
//!   at construction and `probes × cost / profiled-time` is exported as the
//!   [`OVERHEAD_RATIO_GAUGE`] gauge and via
//!   [`Profiler::overhead_ratio`]. The budget is < 2 % of hot-path time.
//! * **Exports**: cumulative totals render as collapsed-stack "folded"
//!   text ([`Profiler::folded`], `scope;kernel <microseconds>` — feed it
//!   straight to `flamegraph.pl`), and per-kernel wall-seconds histograms /
//!   byte counters are published into the attached [`Obs`] registry under
//!   [`KERNEL_METRIC_PREFIX`] so `ocelot metrics` and the analyzer see
//!   kernel attribution alongside stage attribution.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::Obs;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Gauge name for the measured profiler self-overhead ratio
/// (`probe bookkeeping time / profiled scope time`).
pub const OVERHEAD_RATIO_GAUGE: &str = "ocelot_obs_prof_overhead_ratio";

/// Metric-name prefix for the per-kernel exports: histograms
/// `{prefix}{kernel}_seconds` (per-scope-drain wall seconds) and counters
/// `{prefix}{kernel}_bytes_total`. The kernels are the `sz` codec's, hence
/// the `ocelot_sz_` namespace even though publishing lives here.
pub const KERNEL_METRIC_PREFIX: &str = "ocelot_sz_kernel_";

/// Hot-path kernels the codec attributes cycles to.
///
/// `Predict` covers the fused predict+quantize sweep (SZx-style single
/// pass; the quantizer never runs as a separate loop, so splitting it would
/// itself distort the measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Fused predictor + quantizer sweep (compress) or reconstruction
    /// (decompress).
    Predict,
    /// Huffman table build + bit emission.
    HuffmanEncode,
    /// Huffman bit-stream decode.
    HuffmanDecode,
    /// LZ dictionary pass (either direction).
    Lz,
    /// Run-length pass (either direction).
    Rle,
    /// Chunk framing: section prefixes, container assembly, CRC-32.
    FrameCrc,
    /// ZFP-style block transform (either direction).
    Transform,
    /// Anything else bracketed by a probe.
    Other,
}

/// Number of kernels (array dimension for the per-thread tables).
pub const N_KERNELS: usize = 8;

impl Kernel {
    /// Every kernel, in stable export order.
    pub const ALL: [Kernel; N_KERNELS] = [
        Kernel::Predict,
        Kernel::HuffmanEncode,
        Kernel::HuffmanDecode,
        Kernel::Lz,
        Kernel::Rle,
        Kernel::FrameCrc,
        Kernel::Transform,
        Kernel::Other,
    ];

    /// Stable lowercase label used in metric names and folded stacks.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Predict => "predict",
            Kernel::HuffmanEncode => "huffman_encode",
            Kernel::HuffmanDecode => "huffman_decode",
            Kernel::Lz => "lz",
            Kernel::Rle => "rle",
            Kernel::FrameCrc => "frame_crc",
            Kernel::Transform => "transform",
            Kernel::Other => "other",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }
}

/// A profiling scope: the folded-stack root a drain attributes its kernels
/// to. The set is closed so per-thread tables stay fixed-size arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(u8);

/// Number of scopes (array dimension for the per-thread tables).
pub const N_SCOPES: usize = 4;

impl ScopeId {
    /// One chunk compression task (worker thread) or the whole compress
    /// call (calling thread).
    pub const COMPRESS: ScopeId = ScopeId(0);
    /// One chunk decode task, including decode-on-arrival stream drains.
    pub const DECOMPRESS: ScopeId = ScopeId(1);
    /// Transfer-session / executor work that is neither codec direction.
    pub const SESSION: ScopeId = ScopeId(2);
    /// Fallback scope.
    pub const OTHER: ScopeId = ScopeId(3);

    /// Stable dotted label used as the folded-stack root frame.
    pub fn name(&self) -> &'static str {
        match self.0 {
            0 => "compress.chunk",
            1 => "decompress.chunk",
            2 => "session",
            _ => "other",
        }
    }

    /// Every scope, in stable export order.
    pub const ALL: [ScopeId; N_SCOPES] = [ScopeId(0), ScopeId(1), ScopeId(2), ScopeId(3)];
}

/// Fields accumulated per (scope, kernel): calls, nanos, bytes.
const FIELDS: usize = 3;
const F_CALLS: usize = 0;
const F_NANOS: usize = 1;
const F_BYTES: usize = 2;

#[derive(Default)]
struct LocalAccum {
    /// `[kernel][field]` running totals since the last drain.
    cells: [[u64; FIELDS]; N_KERNELS],
    /// Probe guards closed since the last drain (for overhead accounting).
    probes: u64,
    dirty: bool,
}

thread_local! {
    static ACCUM: RefCell<LocalAccum> = RefCell::new(LocalAccum::default());
    /// Cached (profiler identity, sink) so a drain does not re-register.
    static SINK: RefCell<Option<(usize, Arc<ThreadSink>)>> = const { RefCell::new(None) };
}

/// Per-thread sink: cumulative totals. The owning thread is the only
/// writer; snapshots read concurrently.
#[derive(Debug)]
pub struct ThreadSink {
    /// `[scope][kernel][field]` flattened; monotonically increasing.
    totals: Vec<AtomicU64>,
    /// `[scope]` wall nanos spent inside scopes.
    scope_nanos: Vec<AtomicU64>,
}

fn total_idx(scope: usize, kernel: usize, field: usize) -> usize {
    (scope * N_KERNELS + kernel) * FIELDS + field
}

impl ThreadSink {
    fn new() -> Self {
        ThreadSink {
            totals: (0..N_SCOPES * N_KERNELS * FIELDS).map(|_| AtomicU64::new(0)).collect(),
            scope_nanos: (0..N_SCOPES).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Writes one drain: bumps the cumulative totals.
    fn drain(&self, scope: ScopeId, scope_ns: u64, accum: &LocalAccum) {
        let s = scope.0 as usize;
        for k in 0..N_KERNELS {
            for f in 0..FIELDS {
                let v = accum.cells[k][f];
                if v > 0 {
                    self.totals[total_idx(s, k, f)].fetch_add(v, Ordering::Relaxed);
                }
            }
        }
        self.scope_nanos[s].fetch_add(scope_ns, Ordering::Relaxed);
    }
}

/// Attributed totals for one (scope, kernel) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    /// Folded-stack root the kernel ran under.
    pub scope: &'static str,
    /// The kernel.
    pub kernel: Kernel,
    /// Probe invocations.
    pub calls: u64,
    /// Attributed wall nanoseconds.
    pub nanos: u64,
    /// Bytes the kernel consumed or produced.
    pub bytes: u64,
}

/// A point-in-time aggregation across every thread.
#[derive(Debug, Clone)]
pub struct ProfSnapshot {
    /// Non-empty (scope, kernel) totals in stable (scope, kernel) order.
    pub stats: Vec<KernelStat>,
    /// Wall nanos spent inside each scope, in scope order.
    pub scope_nanos: Vec<(&'static str, u64)>,
    /// Total probe guards closed.
    pub probes: u64,
    /// Measured bookkeeping overhead ratio (see [`Profiler::overhead_ratio`]).
    pub overhead_ratio: f64,
}

/// The profiler: registry of per-thread sinks plus calibration state.
/// Construct with [`Profiler::with_obs`] (publishes kernel metrics) or
/// [`Profiler::detached`], then [`install_global`] it so probes activate.
pub struct Profiler {
    sinks: Mutex<Vec<Arc<ThreadSink>>>,
    probe_cost_nanos: f64,
    probes_total: AtomicU64,
    scope_nanos_total: AtomicU64,
    overhead_gauge: Option<Arc<Gauge>>,
    kernel_seconds: Vec<Option<Arc<Histogram>>>,
    kernel_bytes: Vec<Option<Arc<Counter>>>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").field("probes", &self.probes_total.load(Ordering::Relaxed)).finish()
    }
}

impl Profiler {
    /// Profiler that publishes per-kernel histograms/counters and the
    /// overhead gauge into `obs` on every scope drain.
    pub fn with_obs(obs: Obs) -> Arc<Profiler> {
        let (overhead_gauge, kernel_seconds, kernel_bytes) = match obs.registry() {
            Some(reg) => {
                let g = reg.gauge(OVERHEAD_RATIO_GAUGE, "Measured profiler self-overhead / profiled time");
                let hs = Kernel::ALL
                    .iter()
                    .map(|k| {
                        Some(reg.histogram(
                            &format!("{KERNEL_METRIC_PREFIX}{}_seconds", k.name()),
                            "Wall seconds one scope drain attributed to this hot-path kernel",
                        ))
                    })
                    .collect();
                let cs = Kernel::ALL
                    .iter()
                    .map(|k| {
                        Some(reg.counter(
                            &format!("{KERNEL_METRIC_PREFIX}{}_bytes_total", k.name()),
                            "Bytes processed by this hot-path kernel",
                        ))
                    })
                    .collect();
                (Some(g), hs, cs)
            }
            None => (None, vec![None; N_KERNELS], vec![None; N_KERNELS]),
        };
        Arc::new(Profiler {
            sinks: Mutex::new(Vec::new()),
            probe_cost_nanos: calibrate_probe_cost(),
            probes_total: AtomicU64::new(0),
            scope_nanos_total: AtomicU64::new(0),
            overhead_gauge,
            kernel_seconds,
            kernel_bytes,
        })
    }

    /// Profiler with no metrics side-channel (totals and folded export only).
    pub fn detached() -> Arc<Profiler> {
        Profiler::with_obs(Obs::disabled())
    }

    /// Calibrated cost of one probe open/close, in nanoseconds.
    pub fn probe_cost_nanos(&self) -> f64 {
        self.probe_cost_nanos
    }

    /// Measured self-overhead: calibrated probe cost × probes closed,
    /// divided by total profiled scope time. 0 until something was profiled.
    pub fn overhead_ratio(&self) -> f64 {
        let scope_ns = self.scope_nanos_total.load(Ordering::Relaxed);
        if scope_ns == 0 {
            return 0.0;
        }
        self.probes_total.load(Ordering::Relaxed) as f64 * self.probe_cost_nanos / scope_ns as f64
    }

    fn register_sink(&self) -> Arc<ThreadSink> {
        let sink = Arc::new(ThreadSink::new());
        self.sinks.lock().expect("profiler sinks poisoned").push(sink.clone());
        sink
    }

    /// Cumulative totals across every thread.
    pub fn snapshot(&self) -> ProfSnapshot {
        let sinks = self.sinks.lock().expect("profiler sinks poisoned").clone();
        let mut cells = [[[0u64; FIELDS]; N_KERNELS]; N_SCOPES];
        let mut scope_ns = [0u64; N_SCOPES];
        for sink in &sinks {
            for (s, per_scope) in cells.iter_mut().enumerate() {
                scope_ns[s] += sink.scope_nanos[s].load(Ordering::Relaxed);
                for (k, per_kernel) in per_scope.iter_mut().enumerate() {
                    for (f, cell) in per_kernel.iter_mut().enumerate() {
                        *cell += sink.totals[total_idx(s, k, f)].load(Ordering::Relaxed);
                    }
                }
            }
        }
        let mut stats = Vec::new();
        for scope in ScopeId::ALL {
            for kernel in Kernel::ALL {
                let c = cells[scope.0 as usize][kernel.index()];
                if c[F_CALLS] > 0 {
                    stats.push(KernelStat {
                        scope: scope.name(),
                        kernel,
                        calls: c[F_CALLS],
                        nanos: c[F_NANOS],
                        bytes: c[F_BYTES],
                    });
                }
            }
        }
        ProfSnapshot {
            stats,
            scope_nanos: ScopeId::ALL.iter().map(|s| (s.name(), scope_ns[s.0 as usize])).collect(),
            probes: self.probes_total.load(Ordering::Relaxed),
            overhead_ratio: self.overhead_ratio(),
        }
    }

    /// Collapsed-stack ("folded") export of the cumulative totals, one
    /// `scope;kernel <microseconds>` line per attributed pair plus a
    /// `scope <microseconds>` self-time line for time inside the scope not
    /// attributed to any kernel. Pipe to `flamegraph.pl` as-is.
    pub fn folded(&self) -> String {
        use std::fmt::Write as _;
        let snap = self.snapshot();
        let mut out = String::new();
        for (scope, total_ns) in &snap.scope_nanos {
            if *total_ns == 0 {
                continue;
            }
            let kernel_ns: u64 = snap.stats.iter().filter(|s| s.scope == *scope).map(|s| s.nanos).sum();
            let self_us = total_ns.saturating_sub(kernel_ns) / 1_000;
            if self_us > 0 || kernel_ns == 0 {
                let _ = writeln!(out, "{scope} {self_us}");
            }
            for s in snap.stats.iter().filter(|s| s.scope == *scope) {
                let _ = writeln!(out, "{scope};{} {}", s.kernel.name(), (s.nanos / 1_000).max(1));
            }
        }
        out
    }

    /// Test/golden hook: records one synthetic drain directly, bypassing
    /// the clock, so exports are reproducible.
    pub fn record_sample(&self, scope: ScopeId, kernel: Kernel, nanos: u64, bytes: u64) {
        let mut accum = LocalAccum::default();
        let cell = &mut accum.cells[kernel.index()];
        cell[F_CALLS] = 1;
        cell[F_NANOS] = nanos;
        cell[F_BYTES] = bytes;
        accum.probes = 1;
        let sink = self.register_sink();
        sink.drain(scope, nanos, &accum);
        self.probes_total.fetch_add(1, Ordering::Relaxed);
        self.scope_nanos_total.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Publishes a drained accumulation into the obs registry.
    fn publish(&self, accum: &LocalAccum) {
        for k in 0..N_KERNELS {
            let c = accum.cells[k];
            if c[F_CALLS] == 0 {
                continue;
            }
            if let Some(h) = &self.kernel_seconds[k] {
                h.observe(c[F_NANOS] as f64 / 1e9);
            }
            if let Some(b) = &self.kernel_bytes[k] {
                if c[F_BYTES] > 0 {
                    b.add(c[F_BYTES]);
                }
            }
        }
        if let Some(g) = &self.overhead_gauge {
            g.set(self.overhead_ratio());
        }
    }
}

/// Times the real probe bookkeeping (two clock reads + the thread-local
/// update) so the overhead gauge reflects this machine.
fn calibrate_probe_cost() -> f64 {
    const N: u32 = 4096;
    let t0 = Instant::now();
    for _ in 0..N {
        let g = ProbeGuard { start: Some(Instant::now()), kernel: Kernel::Other, bytes: 0 };
        drop(g);
    }
    let per = t0.elapsed().as_nanos() as f64 / N as f64;
    // Discard what the calibration loop itself accumulated.
    ACCUM.with(|a| *a.borrow_mut() = LocalAccum::default());
    per
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CURRENT: OnceLock<RwLock<Option<Arc<Profiler>>>> = OnceLock::new();

fn current_cell() -> &'static RwLock<Option<Arc<Profiler>>> {
    CURRENT.get_or_init(|| RwLock::new(None))
}

/// Installs `profiler` as the process-wide profiler; probes and scopes
/// activate on every thread. Re-installable, so tests can swap in fresh
/// profilers.
pub fn install_global(profiler: &Arc<Profiler>) {
    *current_cell().write().expect("prof global poisoned") = Some(profiler.clone());
    ACTIVE.store(true, Ordering::Release);
}

/// Deactivates profiling; in-flight thread-local accumulations are
/// discarded at their next scope exit.
pub fn uninstall_global() {
    ACTIVE.store(false, Ordering::Release);
    *current_cell().write().expect("prof global poisoned") = None;
}

/// The installed profiler, if any.
fn global() -> Option<Arc<Profiler>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    current_cell().read().expect("prof global poisoned").clone()
}

/// True when a profiler is installed (one relaxed load — the hot-path
/// fast-out).
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Opens a kernel probe. Disabled: one relaxed load, no clock read.
#[inline]
pub fn probe(kernel: Kernel, bytes: usize) -> ProbeGuard {
    if !is_active() {
        return ProbeGuard { start: None, kernel, bytes: 0 };
    }
    ProbeGuard { start: Some(Instant::now()), kernel, bytes: bytes as u64 }
}

/// RAII guard for one kernel invocation; accumulates into thread-local
/// state on drop (no locks, no atomics).
#[derive(Debug)]
pub struct ProbeGuard {
    start: Option<Instant>,
    kernel: Kernel,
    bytes: u64,
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        let Some(t0) = self.start.take() else { return };
        let nanos = t0.elapsed().as_nanos() as u64;
        ACCUM.with(|a| {
            let mut a = a.borrow_mut();
            let cell = &mut a.cells[self.kernel.index()];
            cell[F_CALLS] += 1;
            cell[F_NANOS] += nanos;
            cell[F_BYTES] += self.bytes;
            a.probes += 1;
            a.dirty = true;
        });
    }
}

/// Opens a profiling scope; on exit the thread-local accumulation since
/// scope entry is drained into the profiler (totals + metrics).
/// Disabled: one relaxed load.
#[inline]
pub fn scope(scope: ScopeId) -> ScopeGuard {
    if !is_active() {
        return ScopeGuard { start: None, scope };
    }
    ScopeGuard { start: Some(Instant::now()), scope }
}

/// RAII guard for a profiling scope.
#[derive(Debug)]
pub struct ScopeGuard {
    start: Option<Instant>,
    scope: ScopeId,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let Some(t0) = self.start.take() else { return };
        let accum = ACCUM.with(|a| {
            let mut a = a.borrow_mut();
            if !a.dirty {
                return None;
            }
            Some(std::mem::take(&mut *a))
        });
        let Some(accum) = accum else { return };
        let Some(profiler) = global() else { return }; // raced uninstall: discard
        let scope_ns = t0.elapsed().as_nanos() as u64;
        let key = Arc::as_ptr(&profiler) as usize;
        let sink = SINK.with(|s| {
            let mut s = s.borrow_mut();
            match &*s {
                Some((k, sink)) if *k == key => sink.clone(),
                _ => {
                    let sink = profiler.register_sink();
                    *s = Some((key, sink.clone()));
                    sink
                }
            }
        });
        sink.drain(self.scope, scope_ns, &accum);
        profiler.probes_total.fetch_add(accum.probes, Ordering::Relaxed);
        profiler.scope_nanos_total.fetch_add(scope_ns, Ordering::Relaxed);
        profiler.publish(&accum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-profiler tests share process state; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(iters: u64) -> u64 {
        let mut x = 1u64;
        for i in 0..iters {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x)
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = lock();
        uninstall_global();
        {
            let _s = scope(ScopeId::COMPRESS);
            let _p = probe(Kernel::Predict, 1024);
            spin(100);
        }
        assert!(global().is_none());
        assert!(!is_active());
    }

    #[test]
    fn probes_attribute_to_scope_and_kernel() {
        let _g = lock();
        let obs = Obs::enabled();
        let prof = Profiler::with_obs(obs.clone());
        install_global(&prof);
        {
            let _s = scope(ScopeId::COMPRESS);
            {
                let _p = probe(Kernel::Predict, 4096);
                spin(20_000);
            }
            {
                let _p = probe(Kernel::HuffmanEncode, 512);
                spin(5_000);
            }
        }
        {
            let _s = scope(ScopeId::DECOMPRESS);
            let _p = probe(Kernel::HuffmanDecode, 512);
            spin(5_000);
        }
        uninstall_global();
        let snap = prof.snapshot();
        let predict = snap.stats.iter().find(|s| s.kernel == Kernel::Predict).expect("predict recorded");
        assert_eq!(predict.scope, "compress.chunk");
        assert_eq!(predict.calls, 1);
        assert_eq!(predict.bytes, 4096);
        assert!(predict.nanos > 0);
        let decode = snap.stats.iter().find(|s| s.kernel == Kernel::HuffmanDecode).expect("decode recorded");
        assert_eq!(decode.scope, "decompress.chunk");
        assert!(snap.probes >= 3);
        // Kernel histograms landed in the registry.
        let reg = obs.registry().unwrap();
        let h = reg.histogram(&format!("{KERNEL_METRIC_PREFIX}predict_seconds"), "");
        assert_eq!(h.count(), 1);
        let b = reg.counter(&format!("{KERNEL_METRIC_PREFIX}predict_bytes_total"), "");
        assert_eq!(b.get(), 4096);
        // The overhead gauge is published and sane.
        let g = reg.gauge(OVERHEAD_RATIO_GAUGE, "");
        assert!(g.get() >= 0.0 && g.get() < 1.0, "ratio {}", g.get());
    }

    #[test]
    fn folded_export_is_flamegraph_shaped() {
        let prof = Profiler::detached();
        prof.record_sample(ScopeId::COMPRESS, Kernel::Predict, 5_000_000, 1 << 20);
        prof.record_sample(ScopeId::COMPRESS, Kernel::HuffmanEncode, 2_000_000, 1 << 18);
        prof.record_sample(ScopeId::DECOMPRESS, Kernel::HuffmanDecode, 1_000_000, 1 << 18);
        let folded = prof.folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"compress.chunk;predict 5000"), "{folded}");
        assert!(lines.contains(&"compress.chunk;huffman_encode 2000"), "{folded}");
        assert!(lines.contains(&"decompress.chunk;huffman_decode 1000"), "{folded}");
        // Every line is `frame[;frame] <integer>`.
        for line in &lines {
            let (stack, value) = line.rsplit_once(' ').expect("folded line has a value");
            assert!(!stack.is_empty());
            assert!(value.parse::<u64>().is_ok(), "value not integral in {line}");
        }
    }

    #[test]
    fn overhead_ratio_reflects_probe_cost() {
        let prof = Profiler::detached();
        assert_eq!(prof.overhead_ratio(), 0.0, "nothing profiled yet");
        assert!(prof.probe_cost_nanos() > 0.0);
        // One synthetic probe over a 1 ms scope: ratio = cost / 1 ms.
        prof.record_sample(ScopeId::COMPRESS, Kernel::Predict, 1_000_000, 0);
        let expect = prof.probe_cost_nanos() / 1e6;
        assert!((prof.overhead_ratio() - expect).abs() < 1e-12);
        assert!(prof.snapshot().overhead_ratio > 0.0);
    }

    #[test]
    fn reinstall_swaps_sinks() {
        let _g = lock();
        let a = Profiler::detached();
        install_global(&a);
        {
            let _s = scope(ScopeId::OTHER);
            let _p = probe(Kernel::Other, 1);
            spin(1_000);
        }
        let b = Profiler::detached();
        install_global(&b);
        {
            let _s = scope(ScopeId::OTHER);
            let _p = probe(Kernel::Other, 2);
            spin(1_000);
        }
        uninstall_global();
        let sa = a.snapshot();
        let sb = b.snapshot();
        assert_eq!(sa.stats.iter().map(|s| s.bytes).sum::<u64>(), 1);
        assert_eq!(sb.stats.iter().map(|s| s.bytes).sum::<u64>(), 2);
    }

    #[test]
    fn drains_cross_threads() {
        let _g = lock();
        let prof = Profiler::detached();
        install_global(&prof);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let _s = scope(ScopeId::COMPRESS);
                    let _p = probe(Kernel::Predict, 10);
                    spin(10_000);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        uninstall_global();
        let snap = prof.snapshot();
        let predict = snap.stats.iter().find(|s| s.kernel == Kernel::Predict).unwrap();
        assert_eq!(predict.calls, 4);
        assert_eq!(predict.bytes, 40);
    }
}
