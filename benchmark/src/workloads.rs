//! The four workloads: inputs made from the seed, one closed-loop round
//! trip each, and the output checks that decide `correct` / `failed`.
//!
//! One client, closed loop: the next round trip starts when the previous one
//! has been restored and checked. Checks run outside every timer.

use crate::adapter::{self, Application, CallResult, Field, LossyConfig, NamedField, Svc, BATCH_JOBS};
use crate::result::{InputRecord, OutputRecord};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["bulk_staged", "bulk_streamed", "small_files", "svc_streamed"];

/// In-flight chunk window of `bulk_streamed`.
pub const STREAM_WINDOW: usize = 4;
/// Archives `small_files` packs its files into.
pub const ARCHIVE_GROUPS: usize = 4;
/// Divisor of the CESM paper dimensions for `small_files`: 112×225 files.
const SMALL_SCALE: usize = 16;
/// In-flight chunk window of the `svc_streamed` service.
pub const SVC_STREAM_WINDOW: usize = 8;

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `QUICK` is about
/// 1/16 of it, for smoke runs and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Divisor of the paper dimensions for the two `bulk_*` fields.
    pub bulk_scale: usize,
    /// Files in `small_files`.
    pub small_files: usize,
    /// Warm-up round trips inside one set-up.
    pub warmup: u64,
    /// Bytes of the calibration buffer.
    pub calib_bytes: usize,
}

impl Size {
    /// Miranda `density` 85×128×128 (5.6 MB) + RTM `snapshot-1048`
    /// 149×149×78 (6.9 MB); 256 CESM files of 112×225 (25.8 MB).
    pub const FULL: Size = Size { bulk_scale: 3, small_files: 256, warmup: 3, calib_bytes: 64 << 20 };
    pub const QUICK: Size = Size { bulk_scale: 8, small_files: 16, warmup: 1, calib_bytes: 4 << 20 };
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 step over `bytes`, continuing from `h`.
fn fnv64_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-64 of one byte string, as hex.
pub fn fnv64(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64_fold(FNV_OFFSET, bytes))
}

fn fnv64_field(field: &Field) -> String {
    format!("{:016x}", field.values().iter().fold(FNV_OFFSET, |h, v| fnv64_fold(h, &v.to_le_bytes())))
}

/// FNV-64 over length-prefixed parts, so that moving a byte from one part to
/// the next changes the hash.
fn fnv64_all(parts: &[Vec<u8>]) -> String {
    let h = parts.iter().fold(FNV_OFFSET, |h, p| fnv64_fold(fnv64_fold(h, &(p.len() as u64).to_le_bytes()), p));
    format!("{h:016x}")
}

fn input_record(name: &str, field: &Field) -> InputRecord {
    InputRecord {
        name: name.to_string(),
        dims: field.dims().iter().map(|&d| d as u64).collect(),
        bytes: field.nbytes() as u64,
        fnv64: fnv64_field(field),
    }
}

/// Seed of input `k`: distinct per `(seed, k)`, same for the same pair.
fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Generates `specs` on up to `threads` harness threads, keeping order.
fn generate_all(specs: Vec<(String, Application, &'static str, usize, u64)>, threads: usize) -> Vec<NamedField> {
    let per_thread = specs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .chunks(per_thread)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(name, app, field, scale, seed)| {
                            (name.clone(), adapter::generate(*app, field, *scale, *seed))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("generator thread panicked")).collect()
    })
}

/// Shifts `field` cyclically along every axis by amounts taken from `seed`
/// (never by nothing along axis 0, so every seed has the one seam plane).
fn roll(field: &mut Field, seed: u64) {
    let dims = field.dims().to_vec();
    let (row, plane) = (dims[2], dims[1] * dims[2]);
    let by = [
        1 + (seed % (dims[0] as u64 - 1)) as usize,
        (seed / (dims[0] as u64 - 1) % dims[1] as u64) as usize,
        (seed / ((dims[0] as u64 - 1) * dims[1] as u64) % dims[2] as u64) as usize,
    ];
    let values = field.values_mut();
    values.rotate_left(by[0] * plane);
    for p in values.chunks_mut(plane) {
        p.rotate_left(by[1] * row);
        for r in p.chunks_mut(row) {
            r.rotate_left(by[2]);
        }
    }
}

/// The two large 3-D fields of `bulk_staged` and `bulk_streamed`.
///
/// One fixed realisation of each field, shifted cyclically by the seed.
/// Two realisations of these red-spectrum fields differ by ±5 % in how well
/// they compress (and so in every timing), which the driver would read as
/// run-to-run spread; a shift changes where every byte sits and keeps the
/// statistics.
pub fn generate_bulk(seed: u64, size: &Size, threads: usize) -> Vec<NamedField> {
    let specs = vec![
        ("miranda/density".to_string(), Application::Miranda, "density", size.bulk_scale, 0),
        ("rtm/snapshot-1048".to_string(), Application::Rtm, "snapshot-1048", size.bulk_scale, 1),
    ];
    let mut fields = generate_all(specs, threads);
    for (_, field) in &mut fields {
        roll(field, seed);
    }
    fields
}

/// The many small 2-D files of `small_files`, cycling the CESM fields.
pub fn generate_small(seed: u64, size: &Size, threads: usize) -> Vec<NamedField> {
    let fields = Application::Cesm.fields();
    let specs = (0..size.small_files)
        .map(|i| {
            let field = fields[i % fields.len()];
            (format!("cesm/{field}-{i:03}.nc"), Application::Cesm, field, SMALL_SCALE, input_seed(seed, 16 + i as u64))
        })
        .collect();
    generate_all(specs, threads)
}

/// What one round trip did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Nanoseconds inside program calls: source in → destination out.
    pub program_ns: u64,
    /// Nanoseconds inside the source-side calls, where the workload can
    /// tell the two sides apart.
    pub src_ns: Option<u64>,
    /// Nanoseconds inside the destination-side calls.
    pub dst_ns: Option<u64>,
    /// Operations attempted (fields, files or jobs).
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Outcome {
    fn fail_all(mut self, why: String) -> Self {
        self.failures = (0..self.attempted).map(|_| why.clone()).collect();
        self
    }
}

/// A set-up workload: inputs generated, program state built, caches warm.
pub trait Workload {
    /// One closed-loop round trip with its output checks.
    fn round_trip(&mut self, tracer: &mut Tracer) -> Outcome;
    /// Raw dataset bytes one round trip restores.
    fn raw_bytes(&self) -> u64;
    /// Bytes one round trip would put on the WAN.
    fn wire_bytes(&self) -> u64;
    /// False when the bytes are a simulation's bookkeeping, so that bytes
    /// per wall second would be a number about nothing.
    fn moves_real_bytes(&self) -> bool {
        true
    }
    /// Hashes of the generated inputs and of the reference outputs.
    fn manifest(&self) -> (Vec<InputRecord>, Vec<OutputRecord>);
    /// Stops whatever the workload started.
    fn finish(self: Box<Self>) {}
}

/// Test hook: damage the bytes on the wire so the output checks must trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    #[default]
    None,
    /// Flip one bit of every `bulk_staged` blob before the destination sees it.
    BitFlip,
}

/// Builds `name` from the seed and runs its warm-up round trips.
pub fn set_up(name: &str, seed: u64, size: &Size, threads: usize, fault: Fault) -> CallResult<Box<dyn Workload>> {
    let mut w: Box<dyn Workload> = match name {
        "bulk_staged" => Box::new(Bulk::new(seed, size, threads, false, fault)?),
        "bulk_streamed" => Box::new(Bulk::new(seed, size, threads, true, fault)?),
        "small_files" => Box::new(SmallFiles::new(seed, size, threads)?),
        "svc_streamed" => Box::new(SvcStreamed::new()?),
        other => return Err(format!("unknown workload '{other}' (expected one of {WORKLOADS:?})")),
    };
    // The service's first batch, run as it starts, is its warm-up.
    let warmup = if name == "svc_streamed" { 0 } else { size.warmup };
    for _ in 0..warmup {
        w.round_trip(&mut Tracer::off());
    }
    Ok(w)
}

/// The error-bound contract, with the slack `sz::metrics` itself allows.
pub(crate) fn within(eb: f64, max_abs_error: f64) -> bool {
    max_abs_error <= eb * (1.0 + 1e-9)
}

// ------------------------------------------------------------------- bulk

struct BulkField {
    name: String,
    data: Field,
    config: LossyConfig,
    eb: f64,
    /// Bytes, hash and chunk count of the staged blob made during set-up:
    /// every later blob, staged or streamed, must be these bytes again.
    blob_bytes: u64,
    blob_fnv: String,
    chunks: usize,
}

/// `bulk_staged` and `bulk_streamed`: the same two fields and codec
/// configuration, either compress → receive → decompress with the two sides
/// timed apart, or one streamed round trip across the bounded lane.
struct Bulk {
    fields: Vec<BulkField>,
    threads: usize,
    streamed: bool,
    fault: Fault,
}

impl Bulk {
    fn new(seed: u64, size: &Size, threads: usize, streamed: bool, fault: Fault) -> CallResult<Self> {
        let fields = generate_bulk(seed, size, threads)
            .into_iter()
            .map(|(name, data)| {
                let config = adapter::bulk_config(&data, threads);
                let eb = adapter::abs_bound(&config, &data);
                let staged = adapter::compress(&data, &config)?;
                Ok(BulkField {
                    name,
                    config,
                    eb,
                    blob_bytes: staged.bytes().len() as u64,
                    blob_fnv: fnv64(staged.bytes()),
                    chunks: staged.chunks,
                    data,
                })
            })
            .collect::<CallResult<Vec<_>>>()?;
        Ok(Bulk { fields, threads, streamed, fault })
    }

    fn check(f: &BulkField, blob: &[u8], restored: &Field) -> CallResult<()> {
        if fnv64(blob) != f.blob_fnv {
            return Err(format!("{}: blob bytes differ from the staged blob of set-up", f.name));
        }
        let worst = adapter::max_abs_error(&f.data, restored)?;
        if !within(f.eb, worst) {
            return Err(format!("{}: max error {worst:e} breaks the bound {:e}", f.name, f.eb));
        }
        Ok(())
    }

    fn staged_field(&self, f: &BulkField, tracer: &mut Tracer, out: &mut Outcome) -> CallResult<()> {
        let raw = f.data.nbytes() as u64;
        let (compressed, src) =
            tracer.time("sz.compress", "sz.pipeline", raw, |_| adapter::compress(&f.data, &f.config));
        *out.src_ns.get_or_insert(0) += src;
        let compressed = compressed?;
        // The wire: the destination owns its own copy of the bytes.
        let (mut wire, _) = tracer.time("wire.copy", "bench", raw, |_| compressed.bytes().to_vec());
        if self.fault == Fault::BitFlip {
            let mid = wire.len() / 2;
            wire[mid] ^= 0x10;
        }
        let (restored, dst) = tracer.time("destination", "bench", raw, |t| {
            let blob = t.time("sz.from_bytes", "sz.format", raw, |_| adapter::receive(wire)).0?;
            t.time("sz.decompress", "sz.pipeline", raw, |_| adapter::decompress(&blob, self.threads)).0
        });
        *out.dst_ns.get_or_insert(0) += dst;
        out.program_ns += src + dst;
        let restored = restored?;
        tracer.time("check", "bench.check", raw, |_| Self::check(f, compressed.bytes(), &restored)).0
    }

    fn streamed_field(&self, f: &BulkField, tracer: &mut Tracer, out: &mut Outcome) -> CallResult<()> {
        let raw = f.data.nbytes() as u64;
        let (rt, ns) = tracer.time("stream_round_trip", "core.executor", raw, |_| {
            adapter::stream_round_trip(&f.data, &f.config, self.threads, STREAM_WINDOW)
        });
        out.program_ns += ns;
        let rt = rt?;
        tracer
            .time("check", "bench.check", raw, |_| {
                if rt.chunks_shipped != f.chunks {
                    return Err(format!("{}: {} chunks shipped, {} expected", f.name, rt.chunks_shipped, f.chunks));
                }
                Self::check(f, rt.blob.as_bytes(), &rt.restored)
            })
            .0
    }
}

impl Workload for Bulk {
    fn round_trip(&mut self, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome { attempted: self.fields.len() as u64, ..Outcome::default() };
        let raw = self.raw_bytes();
        tracer.time("round_trip", "bench", raw, |t| {
            for f in &self.fields {
                let r =
                    if self.streamed { self.streamed_field(f, t, &mut out) } else { self.staged_field(f, t, &mut out) };
                if let Err(e) = r {
                    out.failures.push(e);
                }
            }
        });
        out
    }

    fn raw_bytes(&self) -> u64 {
        self.fields.iter().map(|f| f.data.nbytes() as u64).sum()
    }

    fn wire_bytes(&self) -> u64 {
        self.fields.iter().map(|f| f.blob_bytes).sum()
    }

    fn manifest(&self) -> (Vec<InputRecord>, Vec<OutputRecord>) {
        let inputs = self.fields.iter().map(|f| input_record(&f.name, &f.data)).collect();
        let outputs = self
            .fields
            .iter()
            .map(|f| OutputRecord {
                name: format!("{}.blob", f.name),
                bytes: f.blob_bytes,
                fnv64: f.blob_fnv.clone(),
                chunks: f.chunks as u64,
            })
            .collect();
        (inputs, outputs)
    }
}

// ------------------------------------------------------------ small_files

/// `small_files`: many small 2-D files at a tight bound through the
/// transfer session — per-file fixed costs and the Lorenzo + Huffman path.
struct SmallFiles {
    files: Vec<NamedField>,
    ebs: Vec<f64>,
    config: LossyConfig,
    threads: usize,
    archive_bytes: u64,
    archive_fnv: String,
}

impl SmallFiles {
    fn new(seed: u64, size: &Size, threads: usize) -> CallResult<Self> {
        let files = generate_small(seed, size, threads);
        let config = adapter::small_config();
        let ebs = files.iter().map(|(_, d)| adapter::abs_bound(&config, d)).collect();
        let archives = adapter::build_archives(&files, &config, threads, ARCHIVE_GROUPS)?;
        Ok(SmallFiles {
            ebs,
            config,
            threads,
            archive_bytes: archives.iter().map(|a| a.len() as u64).sum(),
            archive_fnv: fnv64_all(&archives),
            files,
        })
    }

    /// Returns one message per file that came back wrong.
    fn check(&self, archives: &[Vec<u8>], restored: &[NamedField]) -> Vec<String> {
        if fnv64_all(archives) != self.archive_fnv {
            return vec!["archive bytes differ from the archives of set-up".to_string(); self.files.len()];
        }
        if restored.len() != self.files.len() {
            let why = format!("{} files restored, {} sent", restored.len(), self.files.len());
            return vec![why; self.files.len()];
        }
        let mut failures = Vec::new();
        for (((name, data), eb), (got_name, got)) in self.files.iter().zip(&self.ebs).zip(restored) {
            if name != got_name {
                failures.push(format!("{name}: restored in its place: {got_name}"));
                continue;
            }
            match adapter::max_abs_error(data, got) {
                Ok(worst) if within(*eb, worst) => {}
                Ok(worst) => failures.push(format!("{name}: max error {worst:e} breaks the bound {eb:e}")),
                Err(e) => failures.push(format!("{name}: {e}")),
            }
        }
        failures
    }
}

impl Workload for SmallFiles {
    fn round_trip(&mut self, tracer: &mut Tracer) -> Outcome {
        let mut out = Outcome { attempted: self.files.len() as u64, ..Outcome::default() };
        let raw = self.raw_bytes();
        let result = tracer
            .time("round_trip", "bench", raw, |t| {
                let (archives, src) = t.time("build_archives", "core.session", raw, |_| {
                    adapter::build_archives(&self.files, &self.config, self.threads, ARCHIVE_GROUPS)
                });
                out.src_ns = Some(src);
                out.program_ns += src;
                let archives = archives?;
                let (restored, dst) = t.time("restore_archives", "core.session", raw, |_| {
                    adapter::restore_archives(&archives, &self.config, self.threads)
                });
                out.dst_ns = Some(dst);
                out.program_ns += dst;
                let restored = restored?;
                Ok(t.time("check", "bench.check", raw, |_| self.check(&archives, &restored)).0)
            })
            .0;
        match result {
            Ok(failures) => {
                out.failures = failures;
                out
            }
            Err(e) => out.fail_all(e),
        }
    }

    fn raw_bytes(&self) -> u64 {
        self.files.iter().map(|(_, d)| d.nbytes() as u64).sum()
    }

    fn wire_bytes(&self) -> u64 {
        self.archive_bytes
    }

    fn manifest(&self) -> (Vec<InputRecord>, Vec<OutputRecord>) {
        let inputs = self.files.iter().map(|(name, d)| input_record(name, d)).collect();
        let outputs = vec![OutputRecord {
            name: "archives".to_string(),
            bytes: self.archive_bytes,
            fnv64: self.archive_fnv.clone(),
            chunks: ARCHIVE_GROUPS as u64,
        }];
        (inputs, outputs)
    }
}

// ----------------------------------------------------------- svc_streamed

/// Simulated outcomes of one batch; exact for a seed and a batch number.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchCounts {
    pub sim_latency_sum_s: f64,
    pub retries: u64,
    pub wasted_bytes: u64,
    pub bytes_transferred: u64,
    pub bytes_saved: u64,
    pub journal_events: u64,
}

/// One batch: the round-trip outcome, its simulated counts, and the wall
/// nanoseconds spent in the twelve `submit` calls.
pub struct Batch {
    pub outcome: Outcome,
    pub counts: BatchCounts,
    pub submit_ns: u64,
}

/// A long-lived service fed a fixed 12-job batch per round trip.
pub struct SvcBatches {
    svc: Svc,
    reports_seen: usize,
    journal_seen: usize,
    /// Counts of the first batch (job ids 0–11), whatever ran afterwards.
    pub first_batch: BatchCounts,
}

impl SvcBatches {
    /// Starts the service and runs the first batch, which also builds the
    /// service's cached workload profiles.
    pub fn start(stream_window: usize) -> CallResult<Self> {
        let svc = Svc::start(stream_window);
        let mut s = SvcBatches { svc, reports_seen: 0, journal_seen: 0, first_batch: BatchCounts::default() };
        let first = s.batch(&mut Tracer::off());
        if let Some(e) = first.outcome.failures.first() {
            return Err(format!("first batch: {e}"));
        }
        s.first_batch = first.counts;
        Ok(s)
    }

    /// Submits the batch, drains, and checks that every job reached exactly
    /// one terminal state, `Done`, with service totals that reconcile.
    pub fn batch(&mut self, tracer: &mut Tracer) -> Batch {
        let mut out = Outcome { attempted: BATCH_JOBS as u64, ..Outcome::default() };
        let mut counts = BatchCounts::default();
        let mut submit_ns = 0;
        let result: CallResult<Vec<String>> = tracer
            .time("round_trip", "bench", 0, |t| {
                let (ids, ns) = t.time("batch", "bench", 0, |t| {
                    let ids = (0..BATCH_JOBS)
                        .map(|i| {
                            let (id, ns) = t.time("svc.submit", "svc", 0, |_| self.svc.submit(i));
                            submit_ns += ns;
                            id
                        })
                        .collect::<CallResult<Vec<u64>>>();
                    t.time("svc.drain", "svc", 0, |_| self.svc.drain());
                    ids
                });
                out.program_ns = ns;
                let ids = ids?;
                Ok(t.time("check", "bench.check", 0, |_| self.check(&ids, &mut counts)).0)
            })
            .0;
        match result {
            Ok(failures) => out.failures = failures,
            Err(e) => out = out.fail_all(e),
        }
        Batch { outcome: out, counts, submit_ns }
    }

    fn check(&mut self, ids: &[u64], counts: &mut BatchCounts) -> Vec<String> {
        let mut failures = Vec::new();
        let mut reports = self.svc.reports_since(self.reports_seen);
        self.reports_seen += reports.len();
        reports.sort_by_key(|r| r.job);
        let journal = self.svc.journal();
        let new_events = &journal[self.journal_seen.min(journal.len())..];
        counts.journal_events = new_events.len() as u64;
        self.journal_seen = journal.len();
        for &id in ids {
            let mine: Vec<_> = reports.iter().filter(|r| r.job == id).collect();
            let terminal = new_events.iter().filter(|&&(job, terminal)| job == id && terminal).count();
            match mine.as_slice() {
                [r] if !r.done => failures.push(format!("job {id} ended Failed")),
                [_] if terminal != 1 => failures.push(format!("job {id}: {terminal} terminal journal events")),
                [r] => {
                    counts.sim_latency_sum_s += r.sim_latency_s;
                    counts.retries += u64::from(r.retries);
                    counts.wasted_bytes += r.wasted_bytes;
                    counts.bytes_transferred += r.bytes_transferred;
                    counts.bytes_saved += r.bytes_saved;
                }
                other => failures.push(format!("job {id}: {} terminal reports", other.len())),
            }
        }
        let totals = self.svc.totals();
        if totals.queue_depth != 0 || totals.in_flight != 0 {
            failures.push(format!("drain returned with {} queued, {} in flight", totals.queue_depth, totals.in_flight));
        }
        if totals.jobs_done + totals.jobs_failed != self.reports_seen as u64 {
            failures.push(format!(
                "metrics count {} finished jobs, reports {}",
                totals.jobs_done + totals.jobs_failed,
                self.reports_seen
            ));
        }
        failures.truncate(ids.len());
        failures
    }

    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}

/// `svc_streamed`: the control plane. Codec kernels only run while the first
/// batch builds the profiles; after that a batch is orchestrator, netsim,
/// faas, journal, queue and always-on obs work.
struct SvcStreamed {
    batches: SvcBatches,
}

impl SvcStreamed {
    fn new() -> CallResult<Self> {
        Ok(SvcStreamed { batches: SvcBatches::start(SVC_STREAM_WINDOW)? })
    }
}

impl Workload for SvcStreamed {
    fn round_trip(&mut self, tracer: &mut Tracer) -> Outcome {
        self.batches.batch(tracer).outcome
    }

    fn raw_bytes(&self) -> u64 {
        self.batches.first_batch.bytes_transferred + self.batches.first_batch.bytes_saved
    }

    fn wire_bytes(&self) -> u64 {
        self.batches.first_batch.bytes_transferred
    }

    fn moves_real_bytes(&self) -> bool {
        false
    }

    fn manifest(&self) -> (Vec<InputRecord>, Vec<OutputRecord>) {
        // The inputs are the twelve job specs and the service's fault stream,
        // both fixed in `adapter::Svc`; the seed does not enter.
        let b = &self.batches.first_batch;
        let summary = format!("{} {} {} {}", b.bytes_transferred, b.bytes_saved, b.retries, b.wasted_bytes);
        let outputs = vec![OutputRecord {
            name: "first_batch".to_string(),
            bytes: b.bytes_transferred,
            fnv64: fnv64(summary.as_bytes()),
            chunks: BATCH_JOBS as u64,
        }];
        (Vec::new(), outputs)
    }

    fn finish(self: Box<Self>) {
        self.batches.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_eq!(fnv64(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv64(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = generate_bulk(7, &Size::QUICK, 2);
        let b = generate_bulk(7, &Size::QUICK, 1);
        let c = generate_bulk(8, &Size::QUICK, 2);
        assert_eq!(a, b, "same seed, same inputs, whatever the generator thread count");
        assert_ne!(a[0].1, c[0].1, "another seed, other inputs");
        assert_eq!(a[0].1.dims(), &[32, 48, 48]);
        assert_eq!(a[1].1.dims(), &[56, 56, 29]);
    }

    #[test]
    fn roll_shifts_every_axis_and_keeps_the_values() {
        let mut f = adapter::Dataset::from_fn(vec![4, 3, 5], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        // seed 38 = 2 + 3·(0 + 3·4): axis 0 by 1 + 2, axis 1 by 0, axis 2 by 4.
        roll(&mut f, 38);
        assert_eq!(f.get(&[0, 0, 0]), 304.0);
        assert_eq!(f.get(&[1, 2, 1]), 20.0);
        let mut sorted = f.values().to_vec();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(sorted.len(), 60);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "a shift only moves values");
    }

    #[test]
    fn a_bit_flipped_blob_fails_the_round_trip() {
        let mut healthy = set_up("bulk_staged", 1, &Size::QUICK, 1, Fault::None).unwrap();
        let out = healthy.round_trip(&mut Tracer::off());
        assert_eq!((out.attempted, out.failures.len()), (2, 0));

        let mut damaged = Bulk::new(1, &Size::QUICK, 1, false, Fault::BitFlip).unwrap();
        let out = damaged.round_trip(&mut Tracer::off());
        assert_eq!(out.attempted, 2);
        assert_eq!(out.failures.len(), 2, "both fields must fail: {:?}", out.failures);
    }
}
