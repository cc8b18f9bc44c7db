//! Chunk-lifecycle event ledger: causal wide events for every chunk a job
//! touches, recorded for a fraction of what the job itself costs.
//!
//! The span recorder answers "where did this *job* spend its time"; the
//! flight ring answers "what happened recently"; `ledger` answers "what
//! happened to *this chunk*" — compressed, window-waited, released,
//! in-flight, faulted, retransmitted, arrived, decoded — as an append-only
//! sequence of structured events with causal parent links (each chunk event
//! links to the prior event for the same chunk and to its job span).
//!
//! * **One commit per job.** A simulated job knows all of its events at
//!   once, so its emitter fills a pre-sized [`Batch`] it owns
//!   ([`Batch::push`]: no atomic, no clock, no lock) and hands it over with
//!   [`Ledger::commit`], which reserves the whole sequence range, reads the
//!   wall clock once and takes the sink lock once. What every event of the
//!   batch shares — job, span, wall stamp, sequence base, the few distinct
//!   cause strings — lives once in the batch header; a row keeps only what
//!   differs, in 32 bytes. [`LedgerEvent`] stays the read type: readers get
//!   rows widened on demand ([`Batch::events`], [`Ledger::drain`]).
//! * **Single appends** ([`emit`] / [`Ledger::append`]) are for real threads
//!   whose wall stamp *is* the content (a codec worker sealing a chunk, the
//!   stream drainer decoding one). `emit` is one relaxed atomic load when no
//!   ledger is installed. Appended events and committed batches share one
//!   sequence space and sit in the sink in sequence order, so a drain is a
//!   total order with every batch's range contiguous.
//! * **Bounded between batches.** A sink holds [`SINK_CAPACITY_BYTES`]; past
//!   that the *oldest entry goes whole* — a batch with every one of its
//!   events, or one single event — and its event count lands in
//!   [`Ledger::dropped`] and the [`LEDGER_DROPPED_COUNTER`] registry counter.
//!   A batch is never split and the newest entry is never the one to go, so
//!   a job that is in the ledger at all has its `job_begin`, every chunk and
//!   no parent link that points at a dropped row. A non-zero dropped count
//!   means whole earlier jobs (or early single events) are missing, never
//!   the head of a kept one.
//! * **Reconstruction** ([`Timeline::reconstruct`]) replays a drained
//!   ledger into per-chunk interval tracks (compress / window-wait /
//!   transfer / retransmit / reorder / decode) plus job-level phase
//!   boundaries whose derived stage sums ([`Timeline::stage_s`]) are
//!   consistent with [`crate::critpath`] stage attribution (≤ 1 %).
//! * **Rendering** ([`render_timeline`]) is an ASCII Gantt over simulated
//!   time only — wall timestamps never reach the output, so renderings are
//!   byte-stable across reruns.

use crate::metrics::Counter;
use crate::Obs;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Registry counter mirroring [`Ledger::dropped`], bumped as entries go.
pub const LEDGER_DROPPED_COUNTER: &str = "ocelot_ledger_dropped_total";

/// Bytes a ledger's sink retains before its oldest entry goes whole: what
/// 65 536 wide events used to take, now room for 262 144 batched rows.
pub const SINK_CAPACITY_BYTES: usize = 8 << 20;

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
    /// Microseconds since the ledger was constructed (wall clock): when the
    /// event was appended, or — for every event of a batch — when the batch
    /// was committed.
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
    /// See [`LedgerEvent::parent`]: the sequence number an earlier
    /// [`emit`] / [`Ledger::append`] returned or, in a [`Batch`], the handle
    /// an earlier [`Batch::push`] returned.
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

    /// The event this draft becomes once the ledger has numbered and
    /// stamped it.
    fn stamped(self, event: EventKind, seq: u64, t_wall_us: u64) -> LedgerEvent {
        LedgerEvent {
            seq,
            parent: self.parent,
            span: self.span,
            job: self.job,
            file: self.file,
            chunk: self.chunk,
            event,
            cause: self.cause,
            t_sim: self.t_sim,
            t_wall_us,
            bytes: self.bytes,
            attempt: self.attempt,
        }
    }
}

/// Row field value standing for `None` in `parent`, `file` and `chunk`.
const NONE: u32 = u32::MAX;

/// Row `cause` value marking a row whose draft is kept whole in
/// [`Batch::wide`].
const WIDE: u8 = u8::MAX;

/// One batched event, narrowed to what differs between the events of a job.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Simulated seconds; NaN stands for `None`.
    t_sim: f64,
    bytes: u64,
    /// Row index of the parent within the batch, or [`NONE`].
    parent: u32,
    file: u32,
    chunk: u32,
    attempt: u16,
    /// Index into [`EventKind::ALL`].
    kind: u8,
    /// 0 = no cause, `n` = `causes[n - 1]`, [`WIDE`] = see [`Batch::wide`].
    cause: u8,
}

/// A job's events, built by the emitter that owns it and handed to the
/// ledger in one [`Ledger::commit`].
///
/// The first pushed draft's `job` and `span` become the batch header; rows
/// are 32 bytes. Parent links inside a batch are the handles [`Batch::push`]
/// returns (row indices), turned into sequence numbers when rows are widened.
///
/// Nothing is narrowed lossily. A draft that does not fit a packed row —
/// another `job` or `span` than the header's, a `parent` that is not an
/// earlier row of this batch, `file` or `chunk` equal to `u32::MAX`,
/// `attempt` above `u16::MAX`, a NaN `t_sim`, or a 255th distinct cause — is
/// kept whole beside the rows, so [`Batch::events`] always returns exactly
/// what was pushed.
#[derive(Debug, Default)]
pub struct Batch {
    job: Option<u64>,
    span: Option<u64>,
    /// Sequence number of row 0; 0 until committed.
    seq_base: u64,
    /// Wall stamp of the commit, shared by every row.
    t_wall_us: u64,
    causes: Vec<Cow<'static, str>>,
    rows: Vec<Row>,
    /// Drafts that do not fit a [`Row`], by row index, ascending.
    wide: Vec<(u32, Draft)>,
    retransmits: u64,
}

impl Batch {
    /// Empty batch with room for `events` rows.
    pub fn with_capacity(events: usize) -> Batch {
        Batch { rows: Vec::with_capacity(events), ..Batch::default() }
    }

    /// Appends one event and returns its handle, to be used as the `parent`
    /// of later drafts of this batch.
    #[inline]
    pub fn push(&mut self, kind: EventKind, mut draft: Draft) -> u64 {
        let cause = match draft.cause.take() {
            None => Some(0),
            Some(text) => match self.cause_index(&text) {
                Some(index) => Some(index),
                None if self.causes.len() < usize::from(WIDE - 1) => {
                    self.causes.push(text);
                    Some(self.causes.len() as u8)
                }
                None => {
                    draft.cause = Some(text);
                    None
                }
            },
        };
        self.push_row(kind, cause, draft)
    }

    /// [`Batch::push`] with the cause passed by reference (any `cause` in
    /// `draft` is ignored): a text the batch already holds costs no
    /// allocation, so an emitter need not clone a computed cause per event.
    #[inline]
    pub fn push_because(&mut self, kind: EventKind, cause: &str, draft: Draft) -> u64 {
        match self.cause_index(cause) {
            Some(index) => self.push_row(kind, Some(index), Draft { cause: None, ..draft }),
            None => self.push(kind, Draft { cause: Some(Cow::Owned(cause.to_string())), ..draft }),
        }
    }

    /// 1-based position of `cause` in the header's cause table.
    fn cause_index(&self, cause: &str) -> Option<u8> {
        self.causes.iter().position(|c| c == cause).map(|i| i as u8 + 1)
    }

    /// Stores `draft` (its cause already taken out: `cause` is its table
    /// index, `None` when the table is full and the text is still in the
    /// draft) as a packed row when every field fits, whole otherwise.
    #[inline]
    fn push_row(&mut self, kind: EventKind, cause: Option<u8>, draft: Draft) -> u64 {
        let index = u32::try_from(self.rows.len()).expect("a batch holds fewer than 2^32 events");
        if index == 0 {
            self.job = draft.job;
            self.span = draft.span;
        }
        let fits = draft.job == self.job
            && draft.span == self.span
            && draft.parent.is_none_or(|p| p < u64::from(index))
            && draft.file != Some(NONE)
            && draft.chunk != Some(NONE)
            && draft.attempt <= u32::from(u16::MAX)
            && !draft.t_sim.is_some_and(f64::is_nan);
        let row = match cause.filter(|_| fits) {
            Some(cause) => Row {
                t_sim: draft.t_sim.unwrap_or(f64::NAN),
                bytes: draft.bytes,
                parent: draft.parent.map_or(NONE, |p| p as u32),
                file: draft.file.unwrap_or(NONE),
                chunk: draft.chunk.unwrap_or(NONE),
                attempt: draft.attempt as u16,
                kind: kind as u8,
                cause,
            },
            None => self.keep_wide(index, kind, cause, draft),
        };
        self.retransmits += u64::from(kind == EventKind::Retransmit);
        self.rows.push(row);
        u64::from(index)
    }

    /// Keeps a draft that does not fit a packed row whole (putting back the
    /// cause [`Batch::push`] took out) and returns the row that marks it.
    #[cold]
    fn keep_wide(&mut self, index: u32, kind: EventKind, cause: Option<u8>, mut draft: Draft) -> Row {
        if let Some(held) = cause.and_then(|c| c.checked_sub(1)) {
            draft.cause = Some(self.causes[usize::from(held)].clone());
        }
        self.wide.push((index, draft));
        Row {
            t_sim: f64::NAN,
            bytes: 0,
            parent: NONE,
            file: NONE,
            chunk: NONE,
            attempt: 0,
            kind: kind as u8,
            cause: WIDE,
        }
    }

    /// Events in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Job of the first pushed event: the one the batch is filed under.
    pub fn job(&self) -> Option<u64> {
        self.job
    }

    /// [`EventKind::Retransmit`] events in the batch, counted as pushed.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Heap bytes the batch holds (rows, cause table, wide drafts).
    pub fn heap_bytes(&self) -> usize {
        let text = |c: &Cow<'static, str>| if let Cow::Owned(s) = c { s.capacity() } else { 0 };
        self.rows.capacity() * std::mem::size_of::<Row>()
            + self.causes.capacity() * std::mem::size_of::<Cow<'static, str>>()
            + self.causes.iter().map(text).sum::<usize>()
            + self.wide.capacity() * std::mem::size_of::<(u32, Draft)>()
            + self.wide.iter().filter_map(|(_, d)| d.cause.as_ref()).map(text).sum::<usize>()
    }

    /// The rows widened into events: `seq` is the batch's sequence base
    /// (0 until committed) plus the row index, `t_wall_us` the commit stamp.
    pub fn events(&self) -> Vec<LedgerEvent> {
        let mut out = Vec::with_capacity(self.len());
        self.widen_into(&mut out);
        out
    }

    fn widen_into(&self, out: &mut Vec<LedgerEvent>) {
        let mut wide = self.wide.iter();
        for (i, row) in self.rows.iter().enumerate() {
            let mut draft = if row.cause == WIDE {
                wide.next().expect("every wide row has its draft").1.clone()
            } else {
                Draft {
                    parent: (row.parent != NONE).then_some(u64::from(row.parent)),
                    span: self.span,
                    job: self.job,
                    file: (row.file != NONE).then_some(row.file),
                    chunk: (row.chunk != NONE).then_some(row.chunk),
                    cause: row.cause.checked_sub(1).map(|c| self.causes[usize::from(c)].clone()),
                    t_sim: (!row.t_sim.is_nan()).then_some(row.t_sim),
                    bytes: row.bytes,
                    attempt: u32::from(row.attempt),
                }
            };
            draft.parent = draft.parent.map(|p| self.seq_base + p);
            out.push(draft.stamped(EventKind::ALL[usize::from(row.kind)], self.seq_base + i as u64, self.t_wall_us));
        }
    }
}

/// What a sink holds, in sequence order: a committed batch, or one event
/// appended on its own.
#[derive(Debug)]
pub enum Entry {
    /// A job's events from one [`Ledger::commit`].
    Batch(Batch),
    /// One event from [`Ledger::append`] / [`emit`].
    Single(LedgerEvent),
}

impl Entry {
    /// Job the entry is filed under.
    pub fn job(&self) -> Option<u64> {
        match self {
            Entry::Batch(b) => b.job(),
            Entry::Single(e) => e.job,
        }
    }

    /// Events the entry holds.
    pub fn event_count(&self) -> usize {
        match self {
            Entry::Batch(b) => b.len(),
            Entry::Single(_) => 1,
        }
    }

    /// [`EventKind::Retransmit`] events the entry holds.
    pub fn retransmits(&self) -> u64 {
        match self {
            Entry::Batch(b) => b.retransmits(),
            Entry::Single(e) => u64::from(e.event == EventKind::Retransmit),
        }
    }

    /// Appends the entry's events to `out`, in sequence order.
    pub fn widen_into(&self, out: &mut Vec<LedgerEvent>) {
        match self {
            Entry::Batch(b) => b.widen_into(out),
            Entry::Single(e) => out.push(e.clone()),
        }
    }

    /// Bytes the entry counts for against the sink's bound.
    fn bytes(&self) -> usize {
        std::mem::size_of::<Entry>()
            + match self {
                Entry::Batch(b) => b.heap_bytes(),
                Entry::Single(_) => 0,
            }
    }
}

/// Entries of one ledger, oldest first, with the sequence counter they
/// share: handing out numbers under the same lock that orders the entries
/// makes sink order the total order.
#[derive(Debug)]
struct Sink {
    entries: VecDeque<Entry>,
    bytes: usize,
    next_seq: u64,
    dropped: u64,
}

/// The ledger: one bounded sink of committed batches and single events in
/// one sequence space. Construct with [`Ledger::with_obs`] (publishes the
/// dropped counter) or [`Ledger::detached`]; hand it to an emitter
/// explicitly, or [`install_global`] it so [`emit`] activates.
pub struct Ledger {
    /// Sink bound in bytes.
    capacity: usize,
    sink: Mutex<Sink>,
    dropped_counter: Option<Arc<Counter>>,
    t0: Instant,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ledger").field("capacity", &self.capacity).field("dropped", &self.dropped()).finish()
    }
}

impl Ledger {
    /// Ledger that counts dropped events into `obs` as
    /// [`LEDGER_DROPPED_COUNTER`].
    pub fn with_obs(obs: &Obs) -> Arc<Ledger> {
        Ledger::with_obs_and_capacity(obs, SINK_CAPACITY_BYTES)
    }

    /// [`Ledger::with_obs`] with an explicit sink bound in bytes.
    pub fn with_obs_and_capacity(obs: &Obs, capacity: usize) -> Arc<Ledger> {
        Arc::new(Ledger {
            capacity,
            sink: Mutex::new(Sink { entries: VecDeque::new(), bytes: 0, next_seq: 1, dropped: 0 }),
            dropped_counter: obs
                .counter_handle(LEDGER_DROPPED_COUNTER, "chunk-ledger events dropped by the bounded sink"),
            t0: Instant::now(),
        })
    }

    /// Ledger with no metrics side-channel.
    pub fn detached() -> Arc<Ledger> {
        Ledger::with_obs(&Obs::disabled())
    }

    fn now_us(&self) -> u64 {
        self.t0.elapsed().as_micros() as u64
    }

    /// Numbers `n` events, lets `seal` stamp the entry with the first
    /// number, appends it, and drops oldest entries whole while the sink is
    /// over its bound (never the one just admitted).
    fn admit(&self, n: usize, seal: impl FnOnce(u64) -> Entry) -> u64 {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let seq = sink.next_seq;
        sink.next_seq += n as u64;
        let entry = seal(seq);
        sink.bytes += entry.bytes();
        sink.entries.push_back(entry);
        let mut dropped = 0u64;
        while sink.bytes > self.capacity && sink.entries.len() > 1 {
            let oldest = sink.entries.pop_front().expect("more than one entry");
            sink.bytes -= oldest.bytes();
            dropped += oldest.event_count() as u64;
        }
        if dropped > 0 {
            sink.dropped += dropped;
            if let Some(c) = &self.dropped_counter {
                c.add(dropped);
            }
        }
        seq
    }

    /// Appends one event stamped with its own wall time, returning its
    /// sequence number (for parent links).
    pub fn append(&self, kind: EventKind, draft: Draft) -> u64 {
        let t_wall_us = self.now_us();
        self.admit(1, |seq| Entry::Single(draft.stamped(kind, seq, t_wall_us)))
    }

    /// Takes over a finished batch: one sequence range for all of its
    /// rows, one wall stamp, one lock. The rows are not touched.
    pub fn commit(&self, mut batch: Batch) {
        if batch.is_empty() {
            return;
        }
        batch.t_wall_us = self.now_us();
        self.admit(batch.len(), |seq| {
            batch.seq_base = seq;
            Entry::Batch(batch)
        });
    }

    /// Takes every entry out of the sink as it is, oldest first.
    pub fn take(&self) -> Vec<Entry> {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        sink.bytes = 0;
        std::mem::take(&mut sink.entries).into()
    }

    /// Takes every buffered event, widened, in global sequence order.
    pub fn drain(&self) -> Vec<LedgerEvent> {
        let entries = self.take();
        let mut all = Vec::with_capacity(entries.iter().map(Entry::event_count).sum());
        for entry in &entries {
            entry.widen_into(&mut all);
        }
        all
    }

    /// Cumulative events dropped by the bound.
    pub fn dropped(&self) -> u64 {
        self.sink.lock().unwrap_or_else(|e| e.into_inner()).dropped
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
        // Room for eight single events.
        let ledger = Ledger::with_obs_and_capacity(&obs, 8 * std::mem::size_of::<Entry>());
        install_global(&ledger);
        for i in 0..20u32 {
            emit(EventKind::Sealed, Draft { bytes: i as u64, ..Draft::chunk(1, 0, i) });
        }
        uninstall_global();
        let c = obs.registry().unwrap().counter(LEDGER_DROPPED_COUNTER, "");
        assert_eq!(c.get(), 12, "the counter moves as entries go, before any drain");
        let events = ledger.drain();
        assert_eq!(events.len(), 8, "sink bounded at capacity");
        assert_eq!(ledger.dropped(), 12);
        // Oldest dropped: the survivors are the newest 8.
        assert_eq!(events[0].chunk, Some(12));
    }

    #[test]
    fn rows_are_32_bytes_and_kinds_index_the_export_order() {
        assert_eq!(std::mem::size_of::<Row>(), 32);
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "Row::kind indexes EventKind::ALL");
        }
    }

    /// A causal chain of `chunks` chunks for `job`, bracketed by the job
    /// phases — the shape the orchestrator commits.
    fn job_batch(job: u64, chunks: u32) -> Batch {
        let mut b = Batch::with_capacity(2 + 3 * chunks as usize);
        let begin = b.push(EventKind::JobBegin, Draft::job(job, 0.0));
        for c in 0..chunks {
            let d = |t: f64| Draft { t_sim: Some(t), bytes: 100, ..Draft::chunk(job, 0, c) };
            let p = b.push(EventKind::Encoded, Draft { parent: Some(begin), ..d(1.0) });
            let p = b.push(EventKind::Released, Draft { parent: Some(p), ..d(2.0) });
            b.push(EventKind::Arrived, Draft { parent: Some(p), attempt: 1, ..d(3.0) });
        }
        b.push(EventKind::JobEnd, Draft { parent: Some(begin), ..Draft::job(job, 3.0) });
        b
    }

    /// Everything but `seq` and `t_wall_us`, parents relative to `base`,
    /// floats by bit pattern (a NaN must survive too).
    fn content(e: &LedgerEvent, base: u64) -> impl PartialEq + std::fmt::Debug {
        let parent = e.parent.map(|p| p.wrapping_sub(base));
        let cause = e.cause.as_deref().map(str::to_string);
        (parent, e.span, e.job, e.file, e.chunk, e.event, cause, e.t_sim.map(f64::to_bits), e.bytes, e.attempt)
    }

    #[test]
    fn batch_rows_widen_to_what_append_records() {
        // Every kind, every `Option` field both ways, borrowed and owned
        // causes, and values on both sides of each packed field's limit.
        let attempts = [0, 1, u32::from(u16::MAX), u32::from(u16::MAX) + 1, u32::MAX];
        let indices = [Some(0), Some(7), Some(u32::MAX - 1), Some(u32::MAX), None];
        let times = [Some(0.0), Some(-1.5), None, Some(f64::NAN), Some(f64::INFINITY)];
        let drafts: Vec<(EventKind, Draft)> = (0..8 * N_EVENT_KINDS)
            .map(|i| {
                let cause: Option<Cow<'static, str>> = match i % 4 {
                    0 => None,
                    1 => Some(Cow::Borrowed("stream window full")),
                    2 => Some(Cow::Owned(format!("wan fault (p=0.{})", i % 3))),
                    _ => Some(Cow::Borrowed("decode lanes busy")),
                };
                let draft = Draft {
                    // Handle of an earlier event, none, itself, one not pushed yet.
                    parent: [Some(i as u64 / 2), None, Some(i as u64), Some(i as u64 + 40)][(i / 3) % 4],
                    span: if i % 23 == 22 { Some(9) } else { None },
                    job: if i % 19 == 18 { None } else { Some(5) },
                    file: indices[i % 5],
                    chunk: indices[(i / 5) % 5],
                    cause,
                    t_sim: times[(i / 2) % 5],
                    bytes: if i % 7 == 0 { u64::MAX } else { i as u64 },
                    attempt: attempts[(i / 7) % 5],
                };
                (EventKind::ALL[i % N_EVENT_KINDS], draft)
            })
            .collect();

        // Reference: one `append` per draft, parents turned into the
        // sequence numbers the earlier appends returned.
        let reference = Ledger::detached();
        let first = 1; // a fresh ledger numbers from 1
        for (kind, draft) in &drafts {
            reference.append(*kind, Draft { parent: draft.parent.map(|p| first + p), ..draft.clone() });
        }
        let reference = reference.drain();
        assert_eq!(reference[0].seq, first);

        let mut batch = Batch::with_capacity(drafts.len());
        for (i, (kind, draft)) in drafts.iter().enumerate() {
            let handle = match &draft.cause {
                Some(cause) if i % 2 == 0 => batch.push_because(*kind, cause, Draft { cause: None, ..draft.clone() }),
                _ => batch.push(*kind, draft.clone()),
            };
            assert_eq!(handle, i as u64);
        }
        let packed = batch.len() - batch.wide.len();
        assert!(packed >= N_EVENT_KINDS && batch.wide.len() >= N_EVENT_KINDS, "both row forms are exercised");
        assert_eq!(batch.causes.len(), 5, "each distinct cause is held once");
        let uncommitted = batch.events();
        assert_eq!(uncommitted[0].seq, 0);
        let ledger = Ledger::detached();
        ledger.append(EventKind::Sealed, Draft::default());
        ledger.commit(batch);
        let widened = ledger.drain().split_off(1);
        assert_eq!(widened.len(), reference.len());
        for (i, ((w, r), u)) in widened.iter().zip(&reference).zip(&uncommitted).enumerate() {
            assert_eq!(w.seq, 2 + i as u64, "one contiguous range after the single event");
            assert_eq!(content(w, 2), content(r, first), "event {i}");
            assert_eq!(content(u, 0), content(r, first), "uncommitted event {i}");
            assert_eq!(w.t_wall_us, widened[0].t_wall_us, "one wall stamp per batch");
        }
        // The limits themselves: at the limit a value packs, past it the
        // draft is kept whole — neither wraps.
        let at = widened.iter().filter(|e| e.attempt == u32::from(u16::MAX)).count();
        let past = widened.iter().filter(|e| e.attempt == u32::from(u16::MAX) + 1).count();
        assert!(at > 0 && past > 0);
    }

    #[test]
    fn a_255th_distinct_cause_is_kept_with_its_event() {
        let mut batch = Batch::with_capacity(300);
        for i in 0..300u32 {
            batch.push(EventKind::Fault, Draft { cause: Some(format!("cause {i}").into()), ..Draft::chunk(1, 0, i) });
        }
        assert_eq!(batch.causes.len(), 254);
        assert_eq!(batch.wide.len(), 300 - 254);
        for (i, e) in batch.events().iter().enumerate() {
            assert_eq!(e.cause.as_deref(), Some(format!("cause {i}").as_str()));
        }
    }

    #[test]
    fn oldest_batches_go_whole_under_a_small_bound() {
        let obs = Obs::enabled();
        let per_batch = job_batch(0, 50).heap_bytes() + std::mem::size_of::<Entry>();
        // Room for three batches and a bit, never for four.
        let ledger = Ledger::with_obs_and_capacity(&obs, 3 * per_batch + per_batch / 2);
        for job in 0..10u64 {
            ledger.commit(job_batch(job, 50));
        }
        let per_job = job_batch(0, 50).len() as u64;
        assert_eq!(ledger.dropped(), 7 * per_job, "seven whole batches went");
        assert_eq!(obs.registry().unwrap().counter(LEDGER_DROPPED_COUNTER, "").get(), 7 * per_job);
        let events = ledger.drain();
        assert_eq!(events.len() as u64, 3 * per_job);
        for job in 7..10u64 {
            let own: Vec<&LedgerEvent> = events.iter().filter(|e| e.job == Some(job)).collect();
            assert_eq!(own.len() as u64, per_job, "job {job} is whole");
            assert_eq!(own[0].event, EventKind::JobBegin, "job {job} kept its head");
            assert_eq!(check_causality(&events, job), Vec::<String>::new());
        }
        assert!(events.iter().all(|e| e.job >= Some(7)), "nothing of a dropped job is left");
        // A batch larger than the whole bound is still admitted — alone.
        ledger.commit(job_batch(20, 10));
        ledger.commit(job_batch(21, 500));
        let events = ledger.drain();
        assert!(events.iter().all(|e| e.job == Some(21)));
        assert_eq!(check_causality(&events, 21), Vec::<String>::new());
        assert_eq!(Timeline::reconstruct(&events, 21).unwrap().tracks.len(), 500);
    }

    #[test]
    fn batches_and_single_appends_share_one_total_order() {
        const BATCHES: u64 = 40;
        const SINGLES: u32 = 2000;
        let ledger = Ledger::detached();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for job in 0..BATCHES {
                    ledger.commit(job_batch(job, 20));
                }
            });
            s.spawn(|| {
                start.wait();
                let mut parent = None;
                for i in 0..SINGLES {
                    parent =
                        Some(ledger.append(EventKind::Sealed, Draft { parent, chunk: Some(i), ..Draft::default() }));
                }
            });
        });
        let per_job = job_batch(0, 20).len();
        let events = ledger.drain();
        assert_eq!(events.len(), BATCHES as usize * per_job + SINGLES as usize);
        assert_eq!(events[0].seq, 1);
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1), "drain is the gap-free sequence order");
        for job in 0..BATCHES {
            let own: Vec<u64> = events.iter().filter(|e| e.job == Some(job)).map(|e| e.seq).collect();
            assert_eq!(own.len(), per_job);
            assert_eq!(own[per_job - 1] - own[0], per_job as u64 - 1, "batch {job} holds one contiguous range");
            assert_eq!(check_causality(&events, job), Vec::<String>::new());
        }
        let singles: Vec<&LedgerEvent> = events.iter().filter(|e| e.job.is_none()).collect();
        assert!(singles.windows(2).all(|w| w[1].parent == Some(w[0].seq)), "single appends keep their own chain");
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
