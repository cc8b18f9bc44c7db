//! Chunk-lifecycle event ledger: causal wide events for every chunk a job
//! touches, cheap enough to leave on in production.
//!
//! The span recorder answers "where did this *job* spend its time"; the
//! flight ring answers "what happened recently"; `ledger` answers "what
//! happened to *this chunk*" — compressed, window-waited, released,
//! in-flight, faulted, retransmitted, arrived, decoded — as an append-only
//! sequence of structured events with causal parent links (each chunk event
//! links to the prior event for the same chunk and to its job span).
//!
//! Design, mirroring [`crate::prof`]:
//!
//! * **Emission** ([`emit`]) is one relaxed atomic load when no ledger is
//!   installed, so instrumented layers cost effectively nothing disabled.
//!   Enabled, events land in a per-thread bounded ring ([`LedgerSink`],
//!   owning thread is the only steady-state writer) stamped with a global
//!   sequence number, so cross-thread causal order is total and drains
//!   never stop the world.
//! * **Bounded**: each sink holds [`DEFAULT_SINK_CAPACITY`] events; overflow
//!   drops the oldest and counts it, published as the
//!   [`LEDGER_DROPPED_COUNTER`] registry counter on every drain.
//! * **Reconstruction** ([`Timeline::reconstruct`]) replays a drained
//!   ledger into per-chunk interval tracks (compress / window-wait /
//!   transfer / retransmit / reorder / decode) plus job-level phase
//!   boundaries whose derived stage sums ([`Timeline::stage_s`]) are
//!   consistent with [`crate::critpath`] stage attribution (≤ 1 %).
//! * **Rendering** ([`render_timeline`]) is an ASCII Gantt over simulated
//!   time only — wall timestamps never reach the output, so renderings are
//!   byte-stable across reruns.
//!
//! Resume (ROADMAP item 4) consumes the same record: replay a job's ledger
//! to the last `arrived` event per chunk and re-enqueue the rest.

use crate::metrics::Counter;
use crate::Obs;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Registry counter mirroring the ledger's cumulative dropped-event count;
/// synced on every [`Ledger::drain`].
pub const LEDGER_DROPPED_COUNTER: &str = "ocelot_ledger_dropped_total";

/// Events each per-thread sink retains before dropping the oldest.
pub const DEFAULT_SINK_CAPACITY: usize = 1 << 16;

/// Version stamp for serialized ledger exports.
pub const LEDGER_VERSION: u32 = 1;

/// Number of event kinds (array dimension / export order length).
pub const N_EVENT_KINDS: usize = 17;

/// What happened to a chunk (or, for the four job-scope kinds, to the job).
///
/// Job-scope kinds carry `file: None, chunk: None` and pin the phase
/// boundaries the reconstructor aligns stage sums to; chunk-scope kinds
/// trace one chunk through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Job admitted; `t_sim` is the job-relative origin (0).
    JobBegin,
    /// Wire phase opens (end of queue wait).
    TransferBegin,
    /// Last byte arrived; decode tail begins.
    TransferEnd,
    /// Job done; `t_sim` is the job's total simulated seconds.
    JobEnd,
    /// Chunk compression started.
    CompressBegin,
    /// Chunk bytes sealed by the real streamed sink (wall clock only).
    Sealed,
    /// Chunk encode finished; ready for the wire.
    Encoded,
    /// Chunk ready but the stream window is full; `cause` says so.
    WindowWait,
    /// Back-pressure window admitted the chunk.
    Released,
    /// Transfer of the chunk actually activated on the link.
    InFlight,
    /// An attempt failed; `cause` carries the fault description.
    Fault,
    /// Chunk re-sent after a fault.
    Retransmit,
    /// Chunk fully received.
    Arrived,
    /// Chunk parked in the reorder/decode queue.
    ReorderEnter,
    /// Chunk left the reorder/decode queue.
    ReorderExit,
    /// Chunk decode started.
    DecodeBegin,
    /// Chunk decode finished.
    DecodeEnd,
}

impl EventKind {
    /// Every kind, in stable export order.
    pub const ALL: [EventKind; N_EVENT_KINDS] = [
        EventKind::JobBegin,
        EventKind::TransferBegin,
        EventKind::TransferEnd,
        EventKind::JobEnd,
        EventKind::CompressBegin,
        EventKind::Sealed,
        EventKind::Encoded,
        EventKind::WindowWait,
        EventKind::Released,
        EventKind::InFlight,
        EventKind::Fault,
        EventKind::Retransmit,
        EventKind::Arrived,
        EventKind::ReorderEnter,
        EventKind::ReorderExit,
        EventKind::DecodeBegin,
        EventKind::DecodeEnd,
    ];

    /// Stable snake_case label used in exports and schemas.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::JobBegin => "job_begin",
            EventKind::TransferBegin => "transfer_begin",
            EventKind::TransferEnd => "transfer_end",
            EventKind::JobEnd => "job_end",
            EventKind::CompressBegin => "compress_begin",
            EventKind::Sealed => "sealed",
            EventKind::Encoded => "encoded",
            EventKind::WindowWait => "window_wait",
            EventKind::Released => "released",
            EventKind::InFlight => "in_flight",
            EventKind::Fault => "fault",
            EventKind::Retransmit => "retransmit",
            EventKind::Arrived => "arrived",
            EventKind::ReorderEnter => "reorder_enter",
            EventKind::ReorderExit => "reorder_exit",
            EventKind::DecodeBegin => "decode_begin",
            EventKind::DecodeEnd => "decode_end",
        }
    }

    /// Inverse of [`EventKind::name`] (for deserializing exports).
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// True for the four job-scope phase kinds.
    pub fn is_job_scope(&self) -> bool {
        matches!(self, EventKind::JobBegin | EventKind::TransferBegin | EventKind::TransferEnd | EventKind::JobEnd)
    }
}

/// One ledger record: a wide event with causal links.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Globally ordered sequence number (total order across threads).
    pub seq: u64,
    /// Sequence number of the prior event for the same chunk, if any.
    pub parent: Option<u64>,
    /// Span id of the job's root sim span, if known.
    pub span: Option<u64>,
    /// Job the event belongs to.
    pub job: Option<u64>,
    /// File index within the job's workload.
    pub file: Option<u32>,
    /// Chunk index within the file.
    pub chunk: Option<u32>,
    /// What happened.
    pub event: EventKind,
    /// Why (fault description, stall reason), when there is a why. The fixed
    /// reasons are borrowed, so a stalled chunk costs no allocation.
    pub cause: Option<Cow<'static, str>>,
    /// Simulated seconds, job-relative; `None` for wall-only events.
    pub t_sim: Option<f64>,
    /// Microseconds since the ledger was constructed (wall clock).
    pub t_wall_us: u64,
    /// Bytes the event concerns (chunk size, wasted bytes for faults).
    pub bytes: u64,
    /// Transfer attempt number (1-based; 0 when not transfer-related).
    pub attempt: u32,
}

/// Everything an emitter supplies; `seq` and `t_wall_us` are stamped by the
/// ledger. Construct with struct-update syntax over [`Draft::default`].
#[derive(Debug, Clone, Default)]
pub struct Draft {
    /// See [`LedgerEvent::parent`].
    pub parent: Option<u64>,
    /// See [`LedgerEvent::span`].
    pub span: Option<u64>,
    /// See [`LedgerEvent::job`].
    pub job: Option<u64>,
    /// See [`LedgerEvent::file`].
    pub file: Option<u32>,
    /// See [`LedgerEvent::chunk`].
    pub chunk: Option<u32>,
    /// See [`LedgerEvent::cause`].
    pub cause: Option<Cow<'static, str>>,
    /// See [`LedgerEvent::t_sim`].
    pub t_sim: Option<f64>,
    /// See [`LedgerEvent::bytes`].
    pub bytes: u64,
    /// See [`LedgerEvent::attempt`].
    pub attempt: u32,
}

impl Draft {
    /// Draft pre-addressed to one chunk of one job.
    pub fn chunk(job: u64, file: u32, chunk: u32) -> Draft {
        Draft { job: Some(job), file: Some(file), chunk: Some(chunk), ..Draft::default() }
    }

    /// Draft for a job-scope phase event at simulated time `t_sim`.
    pub fn job(job: u64, t_sim: f64) -> Draft {
        Draft { job: Some(job), t_sim: Some(t_sim), ..Draft::default() }
    }
}

/// Per-thread bounded event ring. The owning thread is the only
/// steady-state writer, so the mutex is uncontended except during drains.
pub struct LedgerSink {
    ring: Mutex<VecDeque<LedgerEvent>>,
    dropped: AtomicU64,
}

impl std::fmt::Debug for LedgerSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerSink").field("dropped", &self.dropped.load(Ordering::Relaxed)).finish()
    }
}

impl LedgerSink {
    fn new() -> Self {
        LedgerSink { ring: Mutex::new(VecDeque::new()), dropped: AtomicU64::new(0) }
    }

    fn push(&self, event: LedgerEvent, capacity: usize) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }
}

thread_local! {
    /// Cached (ledger identity, sink) so an emit does not re-register.
    static SINK: RefCell<Option<(u64, Arc<LedgerSink>)>> = const { RefCell::new(None) };
}

/// The ledger: registry of per-thread sinks plus the global sequence
/// counter. Construct with [`Ledger::with_obs`] (publishes the dropped
/// counter) or [`Ledger::detached`], then [`install_global`] it so
/// [`emit`] activates.
pub struct Ledger {
    /// Process-unique identity; keys the per-thread sink cache. An address
    /// would suffer ABA reuse when a dropped ledger's allocation is recycled
    /// for its successor.
    id: u64,
    next_seq: AtomicU64,
    capacity: usize,
    sinks: Mutex<Vec<Arc<LedgerSink>>>,
    dropped_counter: Option<Arc<Counter>>,
    t0: Instant,
}

/// Source of process-unique [`Ledger::id`]s.
static NEXT_LEDGER_ID: AtomicU64 = AtomicU64::new(1);

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger").field("next_seq", &self.next_seq.load(Ordering::Relaxed)).finish()
    }
}

impl Ledger {
    /// Ledger that syncs its dropped-event count into `obs` as
    /// [`LEDGER_DROPPED_COUNTER`] on every drain.
    pub fn with_obs(obs: &Obs) -> Arc<Ledger> {
        Ledger::with_obs_and_capacity(obs, DEFAULT_SINK_CAPACITY)
    }

    /// [`Ledger::with_obs`] with an explicit per-sink capacity.
    pub fn with_obs_and_capacity(obs: &Obs, capacity: usize) -> Arc<Ledger> {
        Arc::new(Ledger {
            id: NEXT_LEDGER_ID.fetch_add(1, Ordering::Relaxed),
            next_seq: AtomicU64::new(1),
            capacity: capacity.max(1),
            sinks: Mutex::new(Vec::new()),
            dropped_counter: obs.counter_handle(LEDGER_DROPPED_COUNTER, "chunk-ledger events dropped by bounded sinks"),
            t0: Instant::now(),
        })
    }

    /// Ledger with no metrics side-channel.
    pub fn detached() -> Arc<Ledger> {
        Ledger::with_obs(&Obs::disabled())
    }

    fn register_sink(&self) -> Arc<LedgerSink> {
        let sink = Arc::new(LedgerSink::new());
        self.sinks.lock().unwrap_or_else(|e| e.into_inner()).push(sink.clone());
        sink
    }

    /// Appends one event, returning its sequence number (for parent links).
    pub fn append(&self, kind: EventKind, draft: Draft) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = LedgerEvent {
            seq,
            parent: draft.parent,
            span: draft.span,
            job: draft.job,
            file: draft.file,
            chunk: draft.chunk,
            event: kind,
            cause: draft.cause,
            t_sim: draft.t_sim,
            t_wall_us: self.t0.elapsed().as_micros() as u64,
            bytes: draft.bytes,
            attempt: draft.attempt,
        };
        let key = self.id;
        let sink = SINK.with(|s| {
            let mut s = s.borrow_mut();
            match &*s {
                Some((k, sink)) if *k == key => sink.clone(),
                _ => {
                    let sink = self.register_sink();
                    *s = Some((key, sink.clone()));
                    sink
                }
            }
        });
        sink.push(event, self.capacity);
        seq
    }

    /// Takes every buffered event from every sink, merged into global
    /// sequence order, and syncs the dropped counter.
    pub fn drain(&self) -> Vec<LedgerEvent> {
        let sinks = self.sinks.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut all = Vec::new();
        for sink in &sinks {
            let mut ring = sink.ring.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(ring.drain(..));
        }
        all.sort_by_key(|e| e.seq);
        if let Some(c) = &self.dropped_counter {
            let dropped = self.dropped();
            let seen = c.get();
            if dropped > seen {
                c.add(dropped - seen);
            }
        }
        all
    }

    /// Cumulative events dropped across every sink.
    pub fn dropped(&self) -> u64 {
        self.sinks.lock().unwrap_or_else(|e| e.into_inner()).iter().map(|s| s.dropped.load(Ordering::Relaxed)).sum()
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CURRENT: OnceLock<RwLock<Option<Arc<Ledger>>>> = OnceLock::new();

fn current_cell() -> &'static RwLock<Option<Arc<Ledger>>> {
    CURRENT.get_or_init(|| RwLock::new(None))
}

/// Installs `ledger` as the process-wide ledger; [`emit`] activates on
/// every thread. Re-installable, like [`crate::prof::install_global`].
pub fn install_global(ledger: &Arc<Ledger>) {
    *current_cell().write().expect("ledger global poisoned") = Some(ledger.clone());
    ACTIVE.store(true, Ordering::Release);
}

/// Deactivates the ledger; subsequent emits are one relaxed load.
pub fn uninstall_global() {
    ACTIVE.store(false, Ordering::Release);
    *current_cell().write().expect("ledger global poisoned") = None;
}

/// The installed ledger, if any.
pub fn global() -> Option<Arc<Ledger>> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    current_cell().read().expect("ledger global poisoned").clone()
}

/// True when a ledger is installed (one relaxed load — the per-event-site
/// fast-out).
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Emits one event into the installed ledger, returning its sequence
/// number for parent chaining. Disabled: one relaxed load, `None`.
#[inline]
pub fn emit(kind: EventKind, draft: Draft) -> Option<u64> {
    if !is_active() {
        return None;
    }
    let ledger = global()?;
    Some(ledger.append(kind, draft))
}

// ---------------------------------------------------------------------------
// Timeline reconstruction
// ---------------------------------------------------------------------------

/// One chunk's reconstructed interval track (simulated seconds).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChunkTrack {
    /// File index within the job.
    pub file: u32,
    /// Chunk index within the file.
    pub chunk: u32,
    /// `[compress_begin, encoded]`.
    pub compress: Option<(f64, f64)>,
    /// `[window_wait, released]` — back-pressure stall, if any.
    pub window_wait: Option<(f64, f64)>,
    /// `[released, arrived]` — time on (or waiting for) the wire.
    pub transfer: Option<(f64, f64)>,
    /// Failed-attempt segments inside the transfer interval, with causes.
    pub retransmits: Vec<(f64, f64, String)>,
    /// `[reorder_enter, reorder_exit]` — decode-queue residency, if any.
    pub reorder: Option<(f64, f64)>,
    /// `[decode_begin, decode_end]`.
    pub decode: Option<(f64, f64)>,
    /// Transfer attempts (1 = clean).
    pub attempts: u32,
    /// Chunk payload bytes on the wire.
    pub bytes: u64,
}

impl ChunkTrack {
    /// End of the last known interval (chunk completion time).
    pub fn end_s(&self) -> f64 {
        [self.compress, self.window_wait, self.transfer, self.reorder, self.decode]
            .iter()
            .flatten()
            .fold(0.0f64, |acc, (_, b)| acc.max(*b))
    }
}

/// A job's ledger replayed into phase boundaries and per-chunk tracks.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// The job.
    pub job: u64,
    /// Queue-wait end / wire-phase start (from `transfer_begin`).
    pub transfer_begin_s: f64,
    /// Wire-phase end / decode-tail start (from `transfer_end`).
    pub transfer_end_s: f64,
    /// Total simulated seconds (from `job_end`).
    pub total_s: f64,
    /// Per-chunk tracks, sorted by (file, chunk).
    pub tracks: Vec<ChunkTrack>,
    /// Merged window-wait intervals, clipped to the wire phase.
    pub stalls: Vec<(f64, f64)>,
}

/// Merges possibly-overlapping intervals into a disjoint sorted union.
fn merge_intervals(mut ivs: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    ivs.retain(|(a, b)| b > a);
    ivs.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (a, b) in ivs {
        match out.last_mut() {
            Some((_, e)) if a <= *e => *e = e.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

impl Timeline {
    /// Replays `events` (any mix of jobs) into the timeline for `job`.
    /// `None` when the ledger holds nothing for that job.
    pub fn reconstruct(events: &[LedgerEvent], job: u64) -> Option<Timeline> {
        let evs: Vec<&LedgerEvent> = events.iter().filter(|e| e.job == Some(job)).collect();
        if evs.is_empty() {
            return None;
        }
        let mut transfer_begin_s = 0.0f64;
        let mut transfer_end_s = f64::NAN;
        let mut total_s = f64::NAN;
        let mut by_chunk: BTreeMap<(u32, u32), Vec<&LedgerEvent>> = BTreeMap::new();
        for e in &evs {
            match (e.event, e.t_sim) {
                (EventKind::TransferBegin, Some(t)) => transfer_begin_s = t,
                (EventKind::TransferEnd, Some(t)) => transfer_end_s = t,
                (EventKind::JobEnd, Some(t)) => total_s = t,
                _ => {}
            }
            if let (Some(f), Some(c)) = (e.file, e.chunk) {
                by_chunk.entry((f, c)).or_default().push(e);
            }
        }
        let mut tracks = Vec::with_capacity(by_chunk.len());
        for ((file, chunk), evs) in &by_chunk {
            let mut track = ChunkTrack { file: *file, chunk: *chunk, ..ChunkTrack::default() };
            let t_of = |kind: EventKind| evs.iter().find(|e| e.event == kind).and_then(|e| e.t_sim);
            if let (Some(a), Some(b)) = (t_of(EventKind::CompressBegin), t_of(EventKind::Encoded)) {
                track.compress = Some((a, b));
            }
            if let (Some(a), Some(b)) = (t_of(EventKind::WindowWait), t_of(EventKind::Released)) {
                track.window_wait = Some((a, b));
            }
            let sent = t_of(EventKind::Released).or_else(|| t_of(EventKind::InFlight));
            if let (Some(a), Some(b)) = (sent, t_of(EventKind::Arrived)) {
                track.transfer = Some((a, b));
            }
            if let (Some(a), Some(b)) = (t_of(EventKind::ReorderEnter), t_of(EventKind::ReorderExit)) {
                track.reorder = Some((a, b));
            }
            if let (Some(a), Some(b)) = (t_of(EventKind::DecodeBegin), t_of(EventKind::DecodeEnd)) {
                track.decode = Some((a, b));
            }
            // A failed attempt occupies [its fault's t_sim, the next
            // transfer event's t_sim] — retransmit or final arrival.
            for (i, e) in evs.iter().enumerate() {
                if e.event != EventKind::Fault {
                    continue;
                }
                let Some(t0) = e.t_sim else { continue };
                let t1 = evs[i + 1..]
                    .iter()
                    .find(|n| matches!(n.event, EventKind::Retransmit | EventKind::Arrived))
                    .and_then(|n| n.t_sim)
                    .unwrap_or(t0);
                let cause = e.cause.as_deref().unwrap_or("fault").to_string();
                track.retransmits.push((t0, t1, cause));
            }
            track.attempts = evs.iter().map(|e| e.attempt).max().unwrap_or(0).max(1);
            track.bytes = evs.iter().map(|e| e.bytes).max().unwrap_or(0);
            tracks.push(track);
        }
        let chunk_end = tracks.iter().fold(0.0f64, |acc, t| acc.max(t.end_s()));
        if !transfer_end_s.is_finite() {
            transfer_end_s = tracks.iter().filter_map(|t| t.transfer).fold(transfer_begin_s, |acc, (_, b)| acc.max(b));
        }
        if !total_s.is_finite() {
            total_s = chunk_end.max(transfer_end_s);
        }
        let stalls = merge_intervals(
            tracks
                .iter()
                .filter_map(|t| t.window_wait)
                .map(|(a, b)| (a.max(transfer_begin_s), b.min(transfer_end_s)))
                .collect(),
        );
        Some(Timeline { job, transfer_begin_s, transfer_end_s, total_s, tracks, stalls })
    }

    /// Stage sums aligned with [`crate::critpath::Stage::ALL`] order
    /// (QueueWait, Compress, Group, Transfer, Stall, Decompress, Other).
    ///
    /// The derivation mirrors the critpath sweep over a streamed job's span
    /// tree: queue wait up to `transfer_begin`, stalls are the window-wait
    /// union inside the wire phase (deepest spans win), transfer is the
    /// rest of the wire phase, and the decode tail runs to `job_end`.
    /// Compression overlaps the wire phase on the overlap lane, so it is
    /// shadowed — exactly as the critpath tie-break shadows it.
    pub fn stage_s(&self) -> [f64; 7] {
        let queue = self.transfer_begin_s.max(0.0);
        let stall: f64 = self.stalls.iter().map(|(a, b)| b - a).sum();
        let wire = (self.transfer_end_s - self.transfer_begin_s).max(0.0);
        let transfer = (wire - stall).max(0.0);
        let decode = (self.total_s - self.transfer_end_s).max(0.0);
        [queue, 0.0, 0.0, transfer, stall, decode, 0.0]
    }

    /// Total retransmitted (failed) attempts across every chunk.
    pub fn total_retries(&self) -> u64 {
        self.tracks.iter().map(|t| t.retransmits.len() as u64).sum()
    }
}

/// Checks the causal invariants of a drained ledger for one job:
/// sequence numbers strictly increase, every chunk event's parent points
/// to an earlier event of the same chunk (or a job-scope event), and
/// per-chunk simulated times are monotone in causal order. Returns every
/// violation as a message; empty means consistent.
pub fn check_causality(events: &[LedgerEvent], job: u64) -> Vec<String> {
    let mut errors = Vec::new();
    let evs: Vec<&LedgerEvent> = events.iter().filter(|e| e.job == Some(job)).collect();
    for w in evs.windows(2) {
        if w[1].seq <= w[0].seq {
            errors.push(format!("seq not strictly increasing: {} then {}", w[0].seq, w[1].seq));
        }
    }
    let mut by_seq: BTreeMap<u64, &LedgerEvent> = BTreeMap::new();
    for e in &evs {
        by_seq.insert(e.seq, e);
    }
    let mut last_t: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for e in &evs {
        if let Some(p) = e.parent {
            match by_seq.get(&p) {
                None => errors.push(format!("seq {}: parent {p} not in the ledger", e.seq)),
                Some(pe) => {
                    if pe.seq >= e.seq {
                        errors.push(format!("seq {}: parent {p} is not earlier", e.seq));
                    }
                    let same_chunk = pe.file == e.file && pe.chunk == e.chunk;
                    if !same_chunk && !pe.event.is_job_scope() {
                        errors.push(format!(
                            "seq {}: parent {p} belongs to another chunk ({:?}/{:?})",
                            e.seq, pe.file, pe.chunk
                        ));
                    }
                }
            }
        }
        if let (Some(f), Some(c), Some(t)) = (e.file, e.chunk, e.t_sim) {
            let prev = last_t.entry((f, c)).or_insert(f64::NEG_INFINITY);
            if t < *prev - 1e-9 {
                errors.push(format!("seq {}: chunk {f}/{c} time went backwards ({t} < {prev})", e.seq));
            }
            *prev = prev.max(t);
        }
    }
    errors
}

// ---------------------------------------------------------------------------
// Rendering (simulated time only — byte-stable across reruns)
// ---------------------------------------------------------------------------

/// Gantt body width in columns.
const GANTT_COLS: usize = 48;

/// Above this many tracks the Gantt elides clean chunks down to
/// [`GANTT_CLEAN_BUDGET`] rows; retransmitted chunks are always rendered so
/// fault attribution survives on production-sized jobs (thousands of
/// chunks).
const GANTT_ELIDE_ABOVE: usize = 64;
const GANTT_CLEAN_BUDGET: usize = 48;

fn paint(row: &mut [u8], total: f64, iv: (f64, f64), ch: u8) {
    if total <= 0.0 {
        return;
    }
    let col = |t: f64| ((t / total) * GANTT_COLS as f64).floor().clamp(0.0, (GANTT_COLS - 1) as f64) as usize;
    let (a, b) = (col(iv.0), col(iv.1.max(iv.0)));
    for cell in row.iter_mut().take(b + 1).skip(a) {
        *cell = ch;
    }
}

/// Renders a reconstructed timeline as an ASCII Gantt of chunk tracks with
/// stall/retry annotations. Only simulated times appear, so the rendering
/// is byte-stable across reruns of the same seeded job.
pub fn render_timeline(tl: &Timeline) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let stage = tl.stage_s();
    let _ = writeln!(out, "timeline job {} — {} chunk(s), total {:.3}s simulated", tl.job, tl.tracks.len(), tl.total_s);
    let _ = writeln!(
        out,
        "  queue {:.3}s | transfer {:.3}s | stall {:.3}s | decode {:.3}s",
        stage[0], stage[3], stage[4], stage[5]
    );
    let _ = writeln!(out, "  [= compress  . window-wait  > transfer  ! retransmit  ~ reorder  # decode]");
    let mut clean_budget = if tl.tracks.len() > GANTT_ELIDE_ABOVE { GANTT_CLEAN_BUDGET } else { usize::MAX };
    let mut elided = 0usize;
    for t in &tl.tracks {
        if t.retransmits.is_empty() {
            if clean_budget == 0 {
                elided += 1;
                continue;
            }
            clean_budget -= 1;
        }
        let mut row = [b' '; GANTT_COLS];
        if let Some(iv) = t.compress {
            paint(&mut row, tl.total_s, iv, b'=');
        }
        if let Some(iv) = t.window_wait {
            paint(&mut row, tl.total_s, iv, b'.');
        }
        if let Some(iv) = t.transfer {
            paint(&mut row, tl.total_s, iv, b'>');
        }
        if let Some(iv) = t.reorder {
            paint(&mut row, tl.total_s, iv, b'~');
        }
        if let Some(iv) = t.decode {
            paint(&mut row, tl.total_s, iv, b'#');
        }
        for &(a, b, _) in &t.retransmits {
            paint(&mut row, tl.total_s, (a, b), b'!');
        }
        let bar = String::from_utf8_lossy(&row).into_owned();
        let note = if t.retransmits.is_empty() {
            format!("{} attempt(s)", t.attempts)
        } else {
            let causes: Vec<&str> = {
                let mut seen = Vec::new();
                for (_, _, c) in &t.retransmits {
                    if !seen.contains(&c.as_str()) {
                        seen.push(c.as_str());
                    }
                }
                seen
            };
            format!("{} attempt(s): {}", t.attempts, causes.join(", "))
        };
        let _ = writeln!(out, "  f{:02}/c{:02} |{bar}| {note}", t.file, t.chunk);
    }
    if elided > 0 {
        let _ = writeln!(out, "  … {elided} clean chunk(s) elided (every retransmitted chunk is shown)");
    }
    let stalled: f64 = tl.stalls.iter().map(|(a, b)| b - a).sum();
    let retried = tl.tracks.iter().filter(|t| !t.retransmits.is_empty()).count();
    let _ = writeln!(
        out,
        "  retries: {} retransmit(s) across {} chunk(s); stalls: {} window-wait(s) totalling {:.3}s",
        tl.total_retries(),
        retried,
        tl.stalls.len(),
        stalled
    );
    out
}

/// Renders the full event list for one chunk (the `--chunk N` detail view,
/// N indexing [`Timeline::tracks`] order). Only simulated times appear.
pub fn render_chunk_detail(events: &[LedgerEvent], tl: &Timeline, index: usize) -> Option<String> {
    use std::fmt::Write as _;
    let track = tl.tracks.get(index)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chunk f{:02}/c{:02} of job {} — {} attempt(s), {} bytes",
        track.file, track.chunk, tl.job, track.attempts, track.bytes
    );
    let _ = writeln!(out, "  {:<6} {:<15} {:>10} {:>12} {:>7}  cause", "seq", "event", "t_sim", "bytes", "attempt");
    for e in
        events.iter().filter(|e| e.job == Some(tl.job) && e.file == Some(track.file) && e.chunk == Some(track.chunk))
    {
        let t = match e.t_sim {
            Some(t) => format!("{t:.4}s"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:<6} {:<15} {:>10} {:>12} {:>7}  {}",
            e.seq,
            e.event.name(),
            t,
            e.bytes,
            e.attempt,
            e.cause.as_deref().unwrap_or("-")
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-ledger tests share process state; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn event_kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::parse("quantum_leap"), None);
        assert!(EventKind::JobBegin.is_job_scope());
        assert!(!EventKind::Arrived.is_job_scope());
    }

    #[test]
    fn disabled_emit_records_nothing() {
        let _g = lock();
        uninstall_global();
        assert!(!is_active());
        assert_eq!(emit(EventKind::Arrived, Draft::chunk(1, 0, 0)), None);
        assert!(global().is_none());
    }

    #[test]
    fn emits_chain_and_drain_in_seq_order() {
        let _g = lock();
        let ledger = Ledger::detached();
        install_global(&ledger);
        let s1 = emit(EventKind::Encoded, Draft { bytes: 100, ..Draft::chunk(7, 0, 0) }).unwrap();
        let s2 = emit(EventKind::Released, Draft { parent: Some(s1), ..Draft::chunk(7, 0, 0) }).unwrap();
        let s3 = emit(EventKind::Arrived, Draft { parent: Some(s2), attempt: 1, ..Draft::chunk(7, 0, 0) }).unwrap();
        uninstall_global();
        assert!(s1 < s2 && s2 < s3);
        let events = ledger.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].event, EventKind::Encoded);
        assert_eq!(events[0].bytes, 100);
        assert_eq!(events[1].parent, Some(s1));
        assert_eq!(events[2].attempt, 1);
        assert!(check_causality(&events, 7).is_empty());
        // Drains are destructive.
        assert!(ledger.drain().is_empty());
    }

    #[test]
    fn cross_thread_emission_keeps_a_total_order() {
        let _g = lock();
        let ledger = Ledger::detached();
        install_global(&ledger);
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut parent = None;
                    for i in 0..32u32 {
                        parent =
                            emit(EventKind::Encoded, Draft { parent, t_sim: Some(i as f64), ..Draft::chunk(1, t, 0) });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        uninstall_global();
        let events = ledger.drain();
        assert_eq!(events.len(), 4 * 32);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "drain not seq-sorted");
        assert_eq!(check_causality(&events, 1), Vec::<String>::new());
    }

    #[test]
    fn bounded_sinks_drop_oldest_and_publish_the_counter() {
        let _g = lock();
        let obs = Obs::enabled();
        let ledger = Ledger::with_obs_and_capacity(&obs, 8);
        install_global(&ledger);
        for i in 0..20u32 {
            emit(EventKind::Sealed, Draft { bytes: i as u64, ..Draft::chunk(1, 0, i) });
        }
        uninstall_global();
        let events = ledger.drain();
        assert_eq!(events.len(), 8, "ring bounded at capacity");
        assert_eq!(ledger.dropped(), 12);
        // Oldest dropped: the survivors are the newest 8.
        assert_eq!(events[0].chunk, Some(12));
        let c = obs.registry().unwrap().counter(LEDGER_DROPPED_COUNTER, "");
        assert_eq!(c.get(), 12, "dropped count synced on drain");
    }

    #[test]
    fn reinstall_swaps_sinks() {
        let _g = lock();
        let a = Ledger::detached();
        install_global(&a);
        emit(EventKind::Sealed, Draft { bytes: 1, ..Draft::chunk(1, 0, 0) });
        let b = Ledger::detached();
        install_global(&b);
        emit(EventKind::Sealed, Draft { bytes: 2, ..Draft::chunk(1, 0, 0) });
        uninstall_global();
        assert_eq!(a.drain().iter().map(|e| e.bytes).sum::<u64>(), 1);
        assert_eq!(b.drain().iter().map(|e| e.bytes).sum::<u64>(), 2);
    }

    /// A synthetic clean-plus-faulted two-chunk job, exercised below.
    fn sample_events() -> Vec<LedgerEvent> {
        let ledger = Ledger::detached();
        let job = 3u64;
        ledger.append(EventKind::JobBegin, Draft::job(job, 0.0));
        ledger.append(EventKind::TransferBegin, Draft::job(job, 1.0));
        // Chunk 0: clean.
        let mut d = Draft { t_sim: Some(0.0), ..Draft::chunk(job, 0, 0) };
        let mut p = ledger.append(EventKind::CompressBegin, d.clone());
        d = Draft { parent: Some(p), t_sim: Some(1.0), bytes: 1000, ..Draft::chunk(job, 0, 0) };
        p = ledger.append(EventKind::Encoded, d.clone());
        d = Draft { parent: Some(p), t_sim: Some(1.0), ..Draft::chunk(job, 0, 0) };
        p = ledger.append(EventKind::Released, d.clone());
        d = Draft { parent: Some(p), t_sim: Some(4.0), attempt: 1, bytes: 1000, ..Draft::chunk(job, 0, 0) };
        p = ledger.append(EventKind::Arrived, d.clone());
        d = Draft { parent: Some(p), t_sim: Some(4.0), ..Draft::chunk(job, 0, 0) };
        p = ledger.append(EventKind::DecodeBegin, d.clone());
        d = Draft { parent: Some(p), t_sim: Some(5.0), ..Draft::chunk(job, 0, 0) };
        ledger.append(EventKind::DecodeEnd, d);
        // Chunk 1: stalls on the window, faults once, retransmits.
        d = Draft { t_sim: Some(1.0), ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::CompressBegin, d);
        d = Draft { parent: Some(p), t_sim: Some(2.0), bytes: 2000, ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::Encoded, d);
        d = Draft {
            parent: Some(p),
            t_sim: Some(2.0),
            cause: Some("stream window full".into()),
            ..Draft::chunk(job, 0, 1)
        };
        p = ledger.append(EventKind::WindowWait, d);
        d = Draft { parent: Some(p), t_sim: Some(3.0), ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::Released, d);
        d = Draft {
            parent: Some(p),
            t_sim: Some(5.0),
            attempt: 1,
            cause: Some("wan fault (p=0.50)".into()),
            ..Draft::chunk(job, 0, 1)
        };
        p = ledger.append(EventKind::Fault, d);
        d = Draft { parent: Some(p), t_sim: Some(5.5), attempt: 2, ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::Retransmit, d);
        d = Draft { parent: Some(p), t_sim: Some(7.0), attempt: 2, bytes: 2000, ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::Arrived, d);
        d = Draft { parent: Some(p), t_sim: Some(7.0), ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::ReorderEnter, d);
        d = Draft { parent: Some(p), t_sim: Some(7.5), ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::ReorderExit, d);
        d = Draft { parent: Some(p), t_sim: Some(7.5), ..Draft::chunk(job, 0, 1) };
        p = ledger.append(EventKind::DecodeBegin, d);
        d = Draft { parent: Some(p), t_sim: Some(8.0), ..Draft::chunk(job, 0, 1) };
        ledger.append(EventKind::DecodeEnd, d);
        ledger.append(EventKind::TransferEnd, Draft::job(job, 7.0));
        ledger.append(EventKind::JobEnd, Draft::job(job, 8.0));
        ledger.drain()
    }

    #[test]
    fn timeline_reconstructs_tracks_and_stage_sums() {
        let events = sample_events();
        assert!(check_causality(&events, 3).is_empty());
        let tl = Timeline::reconstruct(&events, 3).expect("job 3 in the ledger");
        assert_eq!(tl.tracks.len(), 2);
        assert_eq!(tl.transfer_begin_s, 1.0);
        assert_eq!(tl.transfer_end_s, 7.0);
        assert_eq!(tl.total_s, 8.0);
        let clean = &tl.tracks[0];
        assert_eq!(clean.transfer, Some((1.0, 4.0)));
        assert_eq!(clean.attempts, 1);
        assert!(clean.retransmits.is_empty());
        let faulted = &tl.tracks[1];
        assert_eq!(faulted.window_wait, Some((2.0, 3.0)));
        assert_eq!(faulted.transfer, Some((3.0, 7.0)));
        assert_eq!(faulted.reorder, Some((7.0, 7.5)));
        assert_eq!(faulted.attempts, 2);
        assert_eq!(faulted.retransmits, vec![(5.0, 5.5, "wan fault (p=0.50)".to_string())]);
        assert_eq!(tl.total_retries(), 1);
        // Stage sums: queue 1, stall 1 (the 2→3 window wait), transfer
        // (7-1)-1 = 5, decode 8-7 = 1; compress shadowed by the wire phase.
        assert_eq!(tl.stage_s(), [1.0, 0.0, 0.0, 5.0, 1.0, 1.0, 0.0]);
        // Missing job? None.
        assert!(Timeline::reconstruct(&events, 99).is_none());
    }

    #[test]
    fn render_names_faulted_chunks_and_is_byte_stable() {
        let events = sample_events();
        let tl = Timeline::reconstruct(&events, 3).unwrap();
        let text = render_timeline(&tl);
        assert!(text.contains("timeline job 3"), "{text}");
        assert!(text.contains("f00/c01"), "{text}");
        assert!(text.contains("wan fault (p=0.50)"), "{text}");
        assert!(text.contains('!'), "retransmit marker missing:\n{text}");
        assert!(text.contains('.'), "window-wait marker missing:\n{text}");
        assert!(text.contains("retries: 1 retransmit(s) across 1 chunk(s)"), "{text}");
        // Byte-stable: rendering is a pure function of simulated times.
        assert_eq!(text, render_timeline(&Timeline::reconstruct(&events, 3).unwrap()));
        let detail = render_chunk_detail(&events, &tl, 1).unwrap();
        assert!(detail.contains("fault"), "{detail}");
        assert!(detail.contains("wan fault (p=0.50)"), "{detail}");
        assert!(render_chunk_detail(&events, &tl, 9).is_none());
    }

    #[test]
    fn merge_intervals_unions_overlaps() {
        assert_eq!(merge_intervals(vec![(3.0, 4.0), (0.0, 1.0), (0.5, 2.0), (4.0, 4.0)]), vec![(0.0, 2.0), (3.0, 4.0)]);
        assert!(merge_intervals(vec![]).is_empty());
    }

    #[test]
    fn causality_checker_flags_violations() {
        let ledger = Ledger::detached();
        let s1 = ledger.append(EventKind::Encoded, Draft { t_sim: Some(5.0), ..Draft::chunk(1, 0, 0) });
        ledger.append(EventKind::Released, Draft { parent: Some(s1 + 100), t_sim: Some(4.0), ..Draft::chunk(1, 0, 0) });
        let events = ledger.drain();
        let errors = check_causality(&events, 1);
        assert!(errors.iter().any(|e| e.contains("not in the ledger")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("time went backwards")), "{errors:?}");
    }
}
