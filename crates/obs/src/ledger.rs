//! Chunk-lifecycle event ledger: causal wide events for every chunk a job
//! touches, recorded for a fraction of what the job itself costs.
//!
//! `ledger` answers "what happened to *this job and this chunk*" —
//! compressed, window-waited, released, in-flight, faulted, retransmitted,
//! arrived, decoded, and the job's retry rounds — as an append-only sequence
//! of structured events with causal parent links (each chunk event links to
//! the prior event for the same chunk and to its job's `job_begin`). A
//! committed [`Schedule`] is a simulated job's one timing record: the run's
//! columns plus the retry rounds and outcome its service added
//! ([`Schedule::with_rounds`]). [`crate::critpath`] attributes the job's time
//! from it, and the events are derived from the same record on read.
//!
//! * **One commit per job, and nothing stored per event.** A simulated job
//!   knows its whole story at once, so its emitter hands over *the schedule
//!   itself*, and its keeper numbers the record's whole sequence range and
//!   stamps it with one wall-clock read ([`Schedule::numbered`]). A
//!   [`Schedule`] adopts the run's own per-chunk columns by move
//!   ([`Lifecycle`]: file, chunk, bytes and seven times per chunk, failed
//!   attempts and the fault model kept sparse — 72 bytes a chunk) and counts
//!   the events it stands for. Every simulated run with a job builds one:
//!   the streamed run at chunk grain, the overlapped and staged runs at file
//!   grain (one chunk a transfer unit). Its events exist only while someone reads them:
//!   [`Schedule::replay`] is the one place that turns a schedule into
//!   events, and the count branches on the same predicates, so the range
//!   reserved is the range widened to. [`LedgerEvent`] stays the read type
//!   ([`Schedule::events`], [`Schedule::widen`]). Measured on a 3 601-chunk
//!   streamed run (`core/tests/ledger_tax.rs`): ledger-on costs
//!   ×0.98 – 1.05 of ledger-off, inside the 2 % instrumentation budget up to
//!   timer noise.
//! * **One way in.** There is no ledger object, no process-wide ledger and
//!   no sink between a run and the store that keeps its schedule. The keeper
//!   numbers each schedule it files with [`Schedule::numbered`] — the
//!   transfer service from one counter, under the lock of its one job store
//!   — so every kept schedule is one contiguous range, and ranges follow each
//!   other without gap or overlap in the order they were filed.
//! * **Bounded between records.** The keeper bounds what it holds by whole
//!   schedules, never by events: the transfer service keeps its newest 32
//!   jobs' schedules whole (each job's events also go to `ledger-<job>.json`
//!   when it has an artifact directory). A job that is kept at all has its
//!   `job_begin`, every chunk and no parent link that points outside its own
//!   range.
//! * **Reconstruction** ([`Timeline::reconstruct`]) replays a job's
//!   events into per-chunk interval tracks (compress / window-wait /
//!   transfer / retransmit / reorder / decode) plus job-level phase
//!   boundaries.
//! * **Rendering** ([`render_timeline`]) is an ASCII Gantt over simulated
//!   time only — wall timestamps never reach the output, so renderings are
//!   byte-stable across reruns. Its stage header is the
//!   [`crate::critpath::attribute`] report of the same schedule, so the
//!   chart and `analyze` cannot disagree.

use crate::critpath::{BottleneckReport, Stage};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Version stamp for serialized ledger exports.
pub const LEDGER_VERSION: u32 = 1;

/// Number of event kinds (array dimension / export order length).
pub const N_EVENT_KINDS: usize = 19;

/// What happened to a chunk (or, for the seven job-scope kinds, to the job).
///
/// Job-scope kinds carry `file: None, chunk: None` and pin the job's phase
/// boundaries and retry rounds; chunk-scope kinds trace one chunk through
/// the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Job admitted; `t_sim` is the job-relative origin (0).
    JobBegin,
    /// Wire phase opens (end of queue wait).
    TransferBegin,
    /// The run's wire phase closed: its last byte arrived.
    TransferEnd,
    /// A service retry round began: its backoff starts. `attempt` is the
    /// attempt the round makes (round 1 is attempt 2).
    RetryBegin,
    /// The round's backoff ended and the undelivered units were offered
    /// again.
    Reoffer,
    /// The round's re-offer ended.
    RetryEnd,
    /// Job done — decoded, or given up after its last round; `t_sim` is the
    /// job's total simulated seconds.
    JobEnd,
    /// Chunk compression started.
    CompressBegin,
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
        EventKind::RetryBegin,
        EventKind::Reoffer,
        EventKind::RetryEnd,
        EventKind::JobEnd,
        EventKind::CompressBegin,
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
            EventKind::RetryBegin => "retry_begin",
            EventKind::Reoffer => "reoffer",
            EventKind::RetryEnd => "retry_end",
            EventKind::JobEnd => "job_end",
            EventKind::CompressBegin => "compress_begin",
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

    /// True for the seven job-scope kinds: phases and retry rounds.
    pub fn is_job_scope(&self) -> bool {
        matches!(
            self,
            EventKind::JobBegin
                | EventKind::TransferBegin
                | EventKind::TransferEnd
                | EventKind::RetryBegin
                | EventKind::Reoffer
                | EventKind::RetryEnd
                | EventKind::JobEnd
        )
    }
}

/// One ledger record: a wide event with causal links.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Globally ordered sequence number (total order across threads).
    pub seq: u64,
    /// Sequence number of the prior event for the same chunk, if any.
    pub parent: Option<u64>,
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
    /// Simulated seconds, job-relative.
    pub t_sim: f64,
    /// Wall-clock microseconds (since its keeper started) at which the
    /// event's schedule was committed; shared by all of its events.
    pub t_wall_us: u64,
    /// Bytes the event concerns (chunk size, wasted bytes for faults).
    pub bytes: u64,
    /// Transfer attempt number (1-based; 0 when not transfer-related).
    pub attempt: u32,
}

/// One event as [`Schedule::replay`] derives it, before it is numbered and
/// stamped. Construct with struct-update syntax over [`Draft::default`].
#[derive(Debug, Clone, Default)]
pub struct Draft {
    /// See [`LedgerEvent::parent`]: what the replay's `push` returned for
    /// an earlier event.
    pub parent: Option<u64>,
    /// See [`LedgerEvent::job`].
    pub job: Option<u64>,
    /// See [`LedgerEvent::file`].
    pub file: Option<u32>,
    /// See [`LedgerEvent::chunk`].
    pub chunk: Option<u32>,
    /// See [`LedgerEvent::cause`].
    pub cause: Option<Cow<'static, str>>,
    /// See [`LedgerEvent::t_sim`].
    pub t_sim: f64,
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
        Draft { job: Some(job), t_sim, ..Draft::default() }
    }

    /// The event this draft becomes once it is numbered and stamped.
    fn stamped(self, event: EventKind, seq: u64, t_wall_us: u64) -> LedgerEvent {
        LedgerEvent {
            seq,
            parent: self.parent,
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

/// The two numbers of the WAN fault model a `fault` event's cause names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultCause {
    /// Probability that one transfer attempt fails.
    pub per_attempt_failure_prob: f64,
    /// Seconds a reconnect costs after a failed attempt.
    pub reconnect_s: f64,
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wan fault (p={:.2}, reconnect {:.1}s)", self.per_attempt_failure_prob, self.reconnect_s)
    }
}

/// One retry round a service ran after a run's wire phase closed: it backed
/// off over `[start_s, backoff_end_s]` and re-offered the units that had not
/// arrived over `[backoff_end_s, end_s]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryRound {
    /// Round start: the end of the wire phase or of the previous round.
    pub start_s: f64,
    /// End of the backoff, where the re-offer begins.
    pub backoff_end_s: f64,
    /// End of the re-offer.
    pub end_s: f64,
}

/// A pipelined job's chunk lifecycle as the run that scheduled it holds it:
/// the job's phase times and one column per chunk field, chunks in wire
/// order. Plain data — an emitter moves the vectors its simulation already
/// filled in here and hands the whole to [`Schedule::new`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lifecycle {
    /// The job.
    pub job: u64,
    /// End of the queue wait, where the wire phase opens (`transfer_begin`).
    pub transfer_begin_s: f64,
    /// Arrival of the run's last byte (`transfer_end`).
    pub transfer_end_s: f64,
    /// End of the job (`job_end`): its last decode (after the service's
    /// last retry round, once [`Schedule::with_rounds`] added them), or the
    /// last round of a job that gave up.
    pub total_s: f64,
    /// File index of each chunk.
    pub file: Vec<u32>,
    /// Index of each chunk within its file.
    pub chunk: Vec<u32>,
    /// Payload bytes of each chunk.
    pub bytes: Vec<u64>,
    /// When each chunk's compression began.
    pub compress_begin: Vec<f64>,
    /// When each chunk was encoded and ready for the wire.
    pub ready: Vec<f64>,
    /// When the stream window admitted each chunk; later than `ready` by
    /// the chunk's back-pressure stall.
    pub release: Vec<f64>,
    /// When each chunk's transfer activated on the link (read as no earlier
    /// than `release`).
    pub sent: Vec<f64>,
    /// When each chunk had fully arrived (read as no earlier than `sent`).
    pub landed: Vec<f64>,
    /// Start and end of each chunk's decode.
    pub decode: Vec<(f64, f64)>,
    /// One entry per failed transfer attempt — position of the chunk in the
    /// columns and the fraction of its payload the link moved before the
    /// attempt died — ascending by chunk, a chunk's attempts in order.
    pub failed: Vec<(u32, f64)>,
    /// What the failed attempts are attributed to.
    pub fault: Option<FaultCause>,
}

/// Slack below which two simulated times count as the same instant.
const SAME_INSTANT_S: f64 = 1e-9;

impl Lifecycle {
    /// When chunk `m` went onto the link.
    fn sent(&self, m: usize) -> f64 {
        self.sent[m].max(self.release[m])
    }

    /// When chunk `m` had arrived.
    fn landed(&self, m: usize) -> f64 {
        self.landed[m].max(self.sent(m))
    }

    /// True when chunk `m` waited for the stream window: it has a
    /// `window_wait` event.
    pub(crate) fn stalled(&self, m: usize) -> bool {
        self.release[m] > self.ready[m] + SAME_INSTANT_S
    }

    /// True when chunk `m` waited for a decode lane: it has a
    /// `reorder_enter` and a `reorder_exit` event.
    fn queued(&self, m: usize) -> bool {
        self.decode[m].0 > self.landed(m) + SAME_INSTANT_S
    }
}

/// A [`Lifecycle`] the ledger can adopt: checked, its events counted, and —
/// once committed — numbered. It holds no event; [`Schedule::replay`] is the
/// one place that turns the columns into the job's events, and every reader
/// ([`Schedule::events`], [`Schedule::widen`]) goes through it.
///
/// The count uses the very predicates the replay branches on — a stalled
/// chunk has one more event, a chunk that queued for a decode lane two, a
/// failed attempt two, a retry round three, and a job that gave up none of
/// its decode events — so the sequence range [`Schedule::numbered`] is given
/// is the range the schedule widens to.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    run: Lifecycle,
    /// The job's compression phase (see [`Schedule::with_phases`]).
    compress: (f64, f64),
    /// The job's grouping phase, empty when it did not group.
    group: (f64, f64),
    /// The service's retry rounds after the wire phase (see
    /// [`Schedule::with_rounds`]).
    rounds: Vec<RetryRound>,
    /// False when the job gave up with units undelivered: it decoded nothing.
    delivered: bool,
    events: usize,
    /// Sequence number of `job_begin`; 0 until numbered.
    seq_base: u64,
    /// Wall stamp of the commit, shared by every event.
    t_wall_us: u64,
}

impl Schedule {
    /// Takes a run's columns over by move.
    ///
    /// # Panics
    /// Panics when the columns differ in length, or `failed` is not
    /// ascending by chunk position or names a chunk past the columns.
    pub fn new(run: Lifecycle) -> Schedule {
        let chunks = run.file.len();
        let lengths = [
            run.chunk.len(),
            run.bytes.len(),
            run.compress_begin.len(),
            run.ready.len(),
            run.release.len(),
            run.sent.len(),
            run.landed.len(),
            run.decode.len(),
        ];
        assert!(lengths.iter().all(|&l| l == chunks), "every column has one entry per chunk: {chunks} / {lengths:?}");
        assert!(run.failed.windows(2).all(|w| w[0].0 <= w[1].0), "failed attempts ascend by chunk");
        assert!(run.failed.last().is_none_or(|f| (f.0 as usize) < chunks), "a failed attempt names a chunk held");
        let mut schedule = Schedule {
            run,
            compress: (0.0, 0.0),
            group: (0.0, 0.0),
            rounds: Vec::new(),
            delivered: true,
            events: 0,
            seq_base: 0,
            t_wall_us: 0,
        };
        schedule.events = schedule.count();
        schedule
    }

    /// Events [`Schedule::replay`] emits: four job phases and three per
    /// retry round; per chunk compress_begin, encoded, released, in_flight
    /// and arrived, plus decode_begin and decode_end (and the reorder pair
    /// of a chunk that queued) when the job delivered.
    fn count(&self) -> usize {
        let run = &self.run;
        let chunks = run.file.len();
        let stalled: usize = (0..chunks).filter(|&m| run.stalled(m)).count();
        let decoded = if self.delivered { (0..chunks).map(|m| 2 + 2 * usize::from(run.queued(m))).sum() } else { 0 };
        4 + 3 * self.rounds.len() + 5 * chunks + stalled + decoded + 2 * run.failed.len()
    }

    /// Adds what the job's service did after the run's wire phase: the
    /// retry rounds it ran for the units that had not arrived (back to back
    /// from `transfer_end`), and whether every unit arrived in the end.
    ///
    /// A job that delivered decodes after its last round: every decode row,
    /// and the job's end, move by the rounds' span. A job that gave up
    /// decodes nothing — its schedule keeps no decode event — and ends with
    /// its last round (at `transfer_end` when it ran none).
    pub fn with_rounds(mut self, rounds: Vec<RetryRound>, delivered: bool) -> Schedule {
        let wire_end = self.run.transfer_end_s;
        let last = rounds.last().map_or(wire_end, |r| r.end_s);
        let run = &mut self.run;
        if !delivered {
            run.total_s = last;
        } else if !rounds.is_empty() {
            for d in &mut run.decode {
                *d = (last + (d.0 - wire_end), last + (d.1 - wire_end));
            }
            run.total_s = last + (run.total_s - wire_end);
        }
        (self.rounds, self.delivered) = (rounds, delivered);
        self.events = self.count();
        self
    }

    /// The service's retry rounds, in order; empty when the run delivered
    /// on its own or no service added any.
    pub fn rounds(&self) -> &[RetryRound] {
        &self.rounds
    }

    /// False when the job gave up with units undelivered.
    pub fn delivered(&self) -> bool {
        self.delivered
    }

    /// When the job's last unit arrived, or its last retry round ended: the
    /// end of the transfer as the job experienced it.
    pub fn wire_end(&self) -> f64 {
        self.rounds.last().map_or(self.run.transfer_end_s, |r| r.end_s)
    }

    /// Adds the job's compression phase — from the queue grant to the last
    /// unit encoded: behind the wire for a pipelined run, before it for a
    /// staged one — and the interval a staged run spent packing encoded
    /// files into transfer groups just before the wire opened (empty when it
    /// did not group). [`crate::critpath::attribute`] reads them; the events
    /// do not carry them.
    pub fn with_phases(mut self, compress: (f64, f64), group: (f64, f64)) -> Schedule {
        (self.compress, self.group) = (compress, group);
        self
    }

    /// The job's compression phase.
    pub fn compress(&self) -> (f64, f64) {
        self.compress
    }

    /// The job's grouping phase; empty when it did not group.
    pub fn group(&self) -> (f64, f64) {
        self.group
    }

    /// Events the schedule widens to.
    pub fn len(&self) -> usize {
        self.events
    }

    /// Never: a schedule has its four job-phase events at least.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Chunks the schedule holds.
    pub fn chunks(&self) -> usize {
        self.run.file.len()
    }

    /// The job the schedule is filed under.
    pub fn job(&self) -> u64 {
        self.run.job
    }

    /// The run's columns, as committed.
    pub fn lifecycle(&self) -> &Lifecycle {
        &self.run
    }

    /// [`EventKind::Retransmit`] events the schedule widens to: one per
    /// failed attempt.
    pub fn retransmits(&self) -> u64 {
        self.run.failed.len() as u64
    }

    /// Heap bytes the schedule holds: its columns.
    pub fn heap_bytes(&self) -> usize {
        let r = &self.run;
        (r.file.capacity() + r.chunk.capacity()) * std::mem::size_of::<u32>()
            + r.bytes.capacity() * std::mem::size_of::<u64>()
            + [&r.compress_begin, &r.ready, &r.release, &r.sent, &r.landed].iter().map(|c| c.capacity()).sum::<usize>()
                * std::mem::size_of::<f64>()
            + r.decode.capacity() * std::mem::size_of::<(f64, f64)>()
            + r.failed.capacity() * std::mem::size_of::<(u32, f64)>()
            + self.rounds.capacity() * std::mem::size_of::<RetryRound>()
    }

    /// The schedule as its keeper commits it: `job_begin` numbered
    /// `seq_base`, the rest of its [`Schedule::len`] events after it, every
    /// event stamped `t_wall_us`.
    pub fn numbered(mut self, seq_base: u64, t_wall_us: u64) -> Schedule {
        (self.seq_base, self.t_wall_us) = (seq_base, t_wall_us);
        self
    }

    /// The schedule widened into events: `seq` is the sequence base (0 until
    /// numbered) plus the event's position, `t_wall_us` the commit stamp.
    pub fn events(&self) -> Vec<LedgerEvent> {
        let mut out = Vec::with_capacity(self.len());
        self.widen(|e| out.push(e));
        out
    }

    /// Hands the schedule's events to `each`, in order, numbered and stamped
    /// as in [`Schedule::events`] — for a reader that keeps only some of them.
    pub fn widen(&self, mut each: impl FnMut(LedgerEvent)) {
        let mut next = self.seq_base;
        self.replay(|kind, draft| {
            let seq = next;
            next += 1;
            each(draft.stamped(kind, seq, self.t_wall_us));
            seq
        });
        assert_eq!(next - self.seq_base, self.events as u64, "a schedule widens to the range it reserved");
    }

    /// Derives the job's events, in order, handing each to `push`; what
    /// `push` returns for an event — its sequence number — is the `parent`
    /// of the drafts that follow from it.
    ///
    /// One causal chain per chunk between the job phases, then one chain of
    /// retry rounds from `transfer_end` to `job_end`. A job that gave up has
    /// no decode (or reorder) event.
    pub fn replay(&self, mut push: impl FnMut(EventKind, Draft) -> u64) {
        let run = &self.run;
        let job = run.job;
        let mut emit = |kind: EventKind, draft: Draft| Some(push(kind, draft));
        let begin = emit(EventKind::JobBegin, Draft::job(job, 0.0));
        emit(EventKind::TransferBegin, Draft { parent: begin, ..Draft::job(job, run.transfer_begin_s) });
        let fault_cause: Option<Cow<'static, str>> = run.fault.map(|f| f.to_string().into());
        let mut failed = run.failed.as_slice();
        for m in 0..run.file.len() {
            let d = |t_sim: f64| Draft { t_sim, bytes: run.bytes[m], ..Draft::chunk(job, run.file[m], run.chunk[m]) };
            let p = emit(EventKind::CompressBegin, Draft { parent: begin, ..d(run.compress_begin[m]) });
            let p = emit(EventKind::Encoded, Draft { parent: p, ..d(run.ready[m]) });
            let p = if run.stalled(m) {
                emit(
                    EventKind::WindowWait,
                    Draft { parent: p, cause: Some("stream window full".into()), ..d(run.ready[m]) },
                )
            } else {
                p
            };
            let p = emit(EventKind::Released, Draft { parent: p, ..d(run.release[m]) });
            let (sent, landed) = (run.sent(m), run.landed(m));
            let mut p = emit(EventKind::InFlight, Draft { parent: p, ..d(sent) });
            // Divide the wire interval by bytes moved: each failed attempt
            // occupies its partial payload's share, the final (successful)
            // attempt the rest.
            let (fracs, later) = failed.split_at(failed.iter().take_while(|f| f.0 as usize == m).count());
            failed = later;
            let denom = 1.0 + fracs.iter().map(|f| f.1).sum::<f64>();
            let mut cum = 0.0;
            for (a, &(_, frac)) in fracs.iter().enumerate() {
                let t0 = sent + (landed - sent) * cum / denom;
                cum += frac;
                let t1 = sent + (landed - sent) * cum / denom;
                let fault = emit(
                    EventKind::Fault,
                    Draft {
                        parent: p,
                        cause: fault_cause.clone(),
                        attempt: a as u32 + 1,
                        bytes: (run.bytes[m] as f64 * frac) as u64,
                        ..d(t0)
                    },
                );
                p = emit(EventKind::Retransmit, Draft { parent: fault, attempt: a as u32 + 2, ..d(t1) });
            }
            let p = emit(EventKind::Arrived, Draft { parent: p, attempt: fracs.len() as u32 + 1, ..d(landed) });
            if !self.delivered {
                continue;
            }
            let (ds, de) = run.decode[m];
            let p = if run.queued(m) {
                let p = emit(
                    EventKind::ReorderEnter,
                    Draft { parent: p, cause: Some("awaiting decode".into()), ..d(landed) },
                );
                emit(EventKind::ReorderExit, Draft { parent: p, ..d(ds) })
            } else {
                p
            };
            let start = ds.max(landed);
            let p = emit(EventKind::DecodeBegin, Draft { parent: p, ..d(start) });
            emit(EventKind::DecodeEnd, Draft { parent: p, ..d(de.max(start)) });
        }
        let mut p = emit(EventKind::TransferEnd, Draft { parent: begin, ..Draft::job(job, run.transfer_end_s) });
        for (r, round) in self.rounds.iter().enumerate() {
            let at = |t_sim: f64| Draft { attempt: r as u32 + 2, ..Draft::job(job, t_sim) };
            p = emit(EventKind::RetryBegin, Draft { parent: p, ..at(round.start_s) });
            p = emit(EventKind::Reoffer, Draft { parent: p, ..at(round.backoff_end_s) });
            p = emit(EventKind::RetryEnd, Draft { parent: p, ..at(round.end_s) });
        }
        emit(EventKind::JobEnd, Draft { parent: p, ..Draft::job(job, run.total_s) });
    }
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
            match e.event {
                EventKind::TransferBegin => transfer_begin_s = e.t_sim,
                EventKind::TransferEnd => transfer_end_s = e.t_sim,
                EventKind::JobEnd => total_s = e.t_sim,
                _ => {}
            }
            if let (Some(f), Some(c)) = (e.file, e.chunk) {
                by_chunk.entry((f, c)).or_default().push(e);
            }
        }
        let mut tracks = Vec::with_capacity(by_chunk.len());
        for ((file, chunk), evs) in &by_chunk {
            let mut track = ChunkTrack { file: *file, chunk: *chunk, ..ChunkTrack::default() };
            let t_of = |kind: EventKind| evs.iter().find(|e| e.event == kind).map(|e| e.t_sim);
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
                let t0 = e.t_sim;
                let t1 = evs[i + 1..]
                    .iter()
                    .find(|n| matches!(n.event, EventKind::Retransmit | EventKind::Arrived))
                    .map_or(t0, |n| n.t_sim);
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
        if let (Some(f), Some(c)) = (e.file, e.chunk) {
            let t = e.t_sim;
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
/// stall/retry annotations, headed by `stages` — the
/// [`crate::critpath::attribute`] report of the schedule the events came
/// from, so the header is `analyze`'s answer for the job. Compression and
/// grouping appear when they are on the critical path (a staged job). Only
/// simulated times appear, so the rendering is byte-stable across reruns of
/// the same seeded job.
pub fn render_timeline(tl: &Timeline, stages: &BottleneckReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "timeline job {} — {} chunk(s), total {:.3}s simulated", tl.job, tl.tracks.len(), tl.total_s);
    let mut header = format!("  queue {:.3}s", stages.stage(Stage::QueueWait));
    for (stage, label) in [(Stage::Compress, "compress"), (Stage::Group, "group")] {
        if stages.stage(stage) > 0.0 {
            let _ = write!(header, " | {label} {:.3}s", stages.stage(stage));
        }
    }
    let _ = writeln!(
        out,
        "{header} | transfer {:.3}s | stall {:.3}s | decode {:.3}s",
        stages.stage(Stage::Transfer),
        stages.stage(Stage::Stall),
        stages.stage(Stage::Decompress)
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
    let retried = tl.tracks.iter().filter(|t| !t.retransmits.is_empty()).count();
    let _ = writeln!(
        out,
        "  retries: {} retransmit(s) across {} chunk(s); stalls: {} window-wait(s) totalling {:.3}s",
        tl.total_retries(),
        retried,
        tl.stalls.len(),
        stages.stage(Stage::Stall)
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
        let t = format!("{:.4}s", e.t_sim);
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

    #[test]
    fn event_kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::parse("quantum_leap"), None);
        assert!(EventKind::JobBegin.is_job_scope());
        assert!(!EventKind::Arrived.is_job_scope());
    }

    /// Everything but `seq` and `t_wall_us`, parents relative to `base`,
    /// floats by bit pattern.
    fn content(e: &LedgerEvent, base: u64) -> impl PartialEq + std::fmt::Debug {
        let parent = e.parent.map(|p| p.wrapping_sub(base));
        let cause = e.cause.as_deref().map(str::to_string);
        (parent, e.job, e.file, e.chunk, e.event, cause, e.t_sim.to_bits(), e.bytes, e.attempt)
    }

    /// `chunks` chunks of one file of `job`, a second apart: every other one
    /// stalls on the window, every third queues for a decode lane, every
    /// fourth fails once and every eighth a second time.
    fn job_schedule(job: u64, chunks: u32) -> Schedule {
        let at = |offset: f64| (0..chunks).map(|m| f64::from(m) + offset).collect::<Vec<f64>>();
        let stall = |m: u32| if m.is_multiple_of(2) { 0.25 } else { 0.0 };
        let queue = |m: u32| if m.is_multiple_of(3) { 0.125 } else { 0.0 };
        Schedule::new(Lifecycle {
            job,
            transfer_begin_s: 0.5,
            transfer_end_s: f64::from(chunks) + 0.5,
            total_s: f64::from(chunks) + 1.0,
            file: vec![0; chunks as usize],
            chunk: (0..chunks).collect(),
            bytes: (0..chunks).map(|m| 1000 + u64::from(m)).collect(),
            compress_begin: at(0.0),
            ready: at(0.125),
            release: (0..chunks).map(|m| f64::from(m) + 0.125 + stall(m)).collect(),
            // Before the release: read as the release itself.
            sent: at(0.0),
            landed: at(0.75),
            decode: (0..chunks).map(|m| (f64::from(m) + 0.75 + queue(m), f64::from(m) + 0.9375)).collect(),
            failed: (0..chunks)
                .filter(|m| m % 4 == 0)
                .flat_map(|m| [(m, 0.5), (m, 0.25)].into_iter().take(if m % 8 == 0 { 2 } else { 1 }))
                .collect(),
            fault: Some(FaultCause { per_attempt_failure_prob: 0.25, reconnect_s: 2.0 }),
        })
    }

    #[test]
    fn a_schedule_reserves_the_range_it_widens_to() {
        let schedule = job_schedule(4, 24);
        // 4 phases, 7 per chunk, 12 stalled, 2 × 8 queued, 2 × (6 + 3) failed attempts.
        assert_eq!(schedule.len(), 4 + 7 * 24 + 12 + 16 + 18);
        assert_eq!((schedule.chunks(), schedule.retransmits()), (24, 9));
        let uncommitted = schedule.events();
        assert_eq!(uncommitted.len(), schedule.len());
        assert_eq!((uncommitted[0].seq, uncommitted[0].event), (0, EventKind::JobBegin));
        // Numbered from 100: the range takes exactly its count, and only
        // `seq`, the parents and the stamp move.
        let reserved = schedule.len() as u64;
        let events = schedule.numbered(100, 7).events();
        assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1), "one gap-free range");
        assert_eq!((events[0].seq, events.last().map(|e| e.seq)), (100, Some(99 + reserved)));
        assert_eq!(check_causality(&events, 4), Vec::<String>::new());
        for (u, e) in uncommitted.iter().zip(&events) {
            assert_eq!(content(u, 0), content(e, 100));
            assert_eq!(e.t_wall_us, 7, "one wall stamp per schedule");
        }
        // Chunk 0 meets every optional event: stalled, failed twice, queued.
        let chunk0: Vec<&LedgerEvent> = events.iter().filter(|e| e.chunk == Some(0)).collect();
        let kinds: Vec<EventKind> = chunk0.iter().map(|e| e.event).collect();
        use EventKind::*;
        let expected = [
            CompressBegin,
            Encoded,
            WindowWait,
            Released,
            InFlight,
            Fault,
            Retransmit,
            Fault,
            Retransmit,
            Arrived,
            ReorderEnter,
            ReorderExit,
            DecodeBegin,
            DecodeEnd,
        ];
        assert_eq!(kinds, expected);
        assert!(chunk0.windows(2).all(|w| w[1].parent == Some(w[0].seq)), "one causal chain per chunk");
        assert_eq!(chunk0[5].cause.as_deref(), Some("wan fault (p=0.25, reconnect 2.0s)"));
        assert_eq!(chunk0[9].attempt, 3);
        // The wire interval [0.375, 0.75] is shared out by bytes moved: 0.5 and 0.25 of 1.75.
        let wire = |frac: f64| 0.375 + 0.375 * frac / 1.75;
        assert_eq!([chunk0[5].t_sim, chunk0[6].t_sim, chunk0[8].t_sim], [wire(0.0), wire(0.5), wire(0.75)]);
        assert_eq!((chunk0[5].bytes, chunk0[7].bytes), (500, 250));
        // Chunk 1 meets none.
        let kinds: Vec<EventKind> = events.iter().filter(|e| e.chunk == Some(1)).map(|e| e.event).collect();
        assert_eq!(kinds, [CompressBegin, Encoded, Released, InFlight, Arrived, DecodeBegin, DecodeEnd]);
        let tl = Timeline::reconstruct(&events, 4).unwrap();
        assert_eq!((tl.tracks.len(), tl.total_retries()), (24, 9));
        assert_eq!((tl.transfer_begin_s, tl.transfer_end_s, tl.total_s), (0.5, 24.5, 25.0));
    }

    /// A staged job of four units: on the wire 1 → 9 s, landing at 3, 5, 7
    /// and 9 s, the batch decoded 9 → 10 s (the first three queue for it).
    fn staged_schedule() -> Schedule {
        Schedule::new(Lifecycle {
            job: 4,
            transfer_begin_s: 1.0,
            transfer_end_s: 9.0,
            total_s: 10.0,
            file: vec![0, 1, 2, 3],
            chunk: vec![0; 4],
            bytes: vec![10; 4],
            compress_begin: vec![0.0; 4],
            ready: vec![1.0; 4],
            release: vec![1.0; 4],
            sent: vec![1.0, 3.0, 5.0, 7.0],
            landed: vec![3.0, 5.0, 7.0, 9.0],
            decode: vec![(9.0, 10.0); 4],
            ..Lifecycle::default()
        })
    }

    #[test]
    fn retry_rounds_are_job_events_and_a_job_that_gave_up_decodes_nothing() {
        use EventKind::*;
        let rounds = vec![
            RetryRound { start_s: 9.0, backoff_end_s: 11.0, end_s: 12.0 },
            RetryRound { start_s: 12.0, backoff_end_s: 16.0, end_s: 17.5 },
        ];
        let kinds = |s: &Schedule| s.events().iter().map(|e| e.event).collect::<Vec<_>>();
        let at = |s: &Schedule, kind: EventKind| -> Vec<f64> {
            s.events().iter().filter(|e| e.event == kind).map(|e| e.t_sim).collect()
        };
        let run = staged_schedule();
        assert_eq!(run.len(), 4 + 7 * 4 + 2 * 3);
        let decoded = run.clone().with_rounds(rounds.clone(), true);
        // Three events a round, and the last unit now waits for the decode too.
        assert_eq!(decoded.len(), run.len() + 3 * 2 + 2);
        assert_eq!(decoded.events().len(), decoded.len());
        assert_eq!(decoded.lifecycle().total_s, 18.5, "the decode follows the last round");
        assert_eq!(decoded.wire_end(), 17.5);
        let tail = &kinds(&decoded)[decoded.len() - 8..];
        assert_eq!(tail, [TransferEnd, RetryBegin, Reoffer, RetryEnd, RetryBegin, Reoffer, RetryEnd, JobEnd]);
        assert_eq!(at(&decoded, RetryBegin), [9.0, 12.0]);
        assert_eq!(at(&decoded, Reoffer), [11.0, 16.0]);
        assert_eq!(at(&decoded, RetryEnd), [12.0, 17.5]);
        let attempts: Vec<u32> = decoded.events().iter().filter(|e| e.event == Reoffer).map(|e| e.attempt).collect();
        assert_eq!(attempts, [2, 3], "round r makes attempt r + 1");
        assert_eq!(at(&decoded, DecodeBegin), [17.5; 4], "no decode begins before the last round ends");
        assert_eq!(at(&decoded, DecodeEnd), [18.5; 4]);
        let events = decoded.events();
        assert_eq!(check_causality(&events, 4), Vec::<String>::new());
        let end = events.last().unwrap();
        assert_eq!((end.event, end.t_sim), (JobEnd, 18.5));
        assert_eq!(end.parent, Some(events[events.len() - 2].seq), "job_end follows the last round");

        // Gave up: the rounds stay, every decode (and reorder) event goes,
        // and the job ends with its last round.
        let failed = run.clone().with_rounds(rounds, false);
        assert_eq!(failed.len(), run.len() + 6 - 2 * 4 - 2 * 3);
        assert_eq!(failed.events().len(), failed.len());
        for kind in [DecodeBegin, DecodeEnd, ReorderEnter, ReorderExit] {
            assert!(at(&failed, kind).is_empty(), "{kind:?}");
        }
        assert_eq!(at(&failed, JobEnd), [17.5]);
        assert_eq!(check_causality(&failed.events(), 4), Vec::<String>::new());
        // With no round to run, it ends where its wire phase did.
        let at_once = run.clone().with_rounds(Vec::new(), false);
        assert_eq!((at_once.lifecycle().total_s, at_once.len()), (9.0, run.len() - 14));
        // No round and delivered is the run as it was.
        assert_eq!(run.clone().with_rounds(Vec::new(), true), run);
    }

    #[test]
    fn a_wait_within_the_tolerance_is_neither_counted_nor_emitted() {
        // One predicate per optional event decides both the count and the
        // emission, on either side of the 1e-9 s slack.
        for (wait, waited) in [(0.0, false), (5e-10, false), (1e-9, false), (2e-9, true), (1e-3, true)] {
            let chunk = |release: f64, decode_start: f64| {
                Schedule::new(Lifecycle {
                    job: 1,
                    total_s: 3.0,
                    file: vec![0],
                    chunk: vec![0],
                    bytes: vec![10],
                    compress_begin: vec![0.0],
                    ready: vec![1.0],
                    release: vec![release],
                    sent: vec![release],
                    landed: vec![2.0],
                    decode: vec![(decode_start, 3.0)],
                    ..Lifecycle::default()
                })
            };
            let count = |s: &Schedule, kind: EventKind| s.events().iter().filter(|e| e.event == kind).count();
            let stalled = chunk(1.0 + wait, 2.0);
            assert_eq!(stalled.len(), 11 + usize::from(waited), "window wait of {wait:e} s");
            assert_eq!(stalled.events().len(), stalled.len());
            assert_eq!(count(&stalled, EventKind::WindowWait), usize::from(waited));
            let queued = chunk(1.0, 2.0 + wait);
            assert_eq!(queued.len(), 11 + 2 * usize::from(waited), "decode-lane wait of {wait:e} s");
            assert_eq!(queued.events().len(), queued.len());
            assert_eq!(count(&queued, EventKind::ReorderEnter), usize::from(waited));
        }
    }

    #[test]
    #[should_panic(expected = "every column has one entry per chunk")]
    fn a_schedule_with_a_short_column_is_refused() {
        Schedule::new(Lifecycle { file: vec![0, 0], chunk: vec![0, 1], ..Lifecycle::default() });
    }

    /// A synthetic clean-plus-faulted two-chunk job, exercised below.
    fn sample_events() -> Vec<LedgerEvent> {
        let job = 3u64;
        let mut events: Vec<LedgerEvent> = Vec::new();
        let mut append = |kind: EventKind, draft: Draft| {
            let seq = events.len() as u64 + 1;
            events.push(draft.stamped(kind, seq, 0));
            seq
        };
        append(EventKind::JobBegin, Draft::job(job, 0.0));
        append(EventKind::TransferBegin, Draft::job(job, 1.0));
        // Chunk 0: clean.
        let mut d = Draft { t_sim: 0.0, ..Draft::chunk(job, 0, 0) };
        let mut p = append(EventKind::CompressBegin, d.clone());
        d = Draft { parent: Some(p), t_sim: 1.0, bytes: 1000, ..Draft::chunk(job, 0, 0) };
        p = append(EventKind::Encoded, d.clone());
        d = Draft { parent: Some(p), t_sim: 1.0, ..Draft::chunk(job, 0, 0) };
        p = append(EventKind::Released, d.clone());
        d = Draft { parent: Some(p), t_sim: 4.0, attempt: 1, bytes: 1000, ..Draft::chunk(job, 0, 0) };
        p = append(EventKind::Arrived, d.clone());
        d = Draft { parent: Some(p), t_sim: 4.0, ..Draft::chunk(job, 0, 0) };
        p = append(EventKind::DecodeBegin, d.clone());
        d = Draft { parent: Some(p), t_sim: 5.0, ..Draft::chunk(job, 0, 0) };
        append(EventKind::DecodeEnd, d);
        // Chunk 1: stalls on the window, faults once, retransmits.
        d = Draft { t_sim: 1.0, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::CompressBegin, d);
        d = Draft { parent: Some(p), t_sim: 2.0, bytes: 2000, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::Encoded, d);
        d = Draft { parent: Some(p), t_sim: 2.0, cause: Some("stream window full".into()), ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::WindowWait, d);
        d = Draft { parent: Some(p), t_sim: 3.0, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::Released, d);
        d = Draft {
            parent: Some(p),
            t_sim: 5.0,
            attempt: 1,
            cause: Some("wan fault (p=0.50)".into()),
            ..Draft::chunk(job, 0, 1)
        };
        p = append(EventKind::Fault, d);
        d = Draft { parent: Some(p), t_sim: 5.5, attempt: 2, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::Retransmit, d);
        d = Draft { parent: Some(p), t_sim: 7.0, attempt: 2, bytes: 2000, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::Arrived, d);
        d = Draft { parent: Some(p), t_sim: 7.0, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::ReorderEnter, d);
        d = Draft { parent: Some(p), t_sim: 7.5, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::ReorderExit, d);
        d = Draft { parent: Some(p), t_sim: 7.5, ..Draft::chunk(job, 0, 1) };
        p = append(EventKind::DecodeBegin, d);
        d = Draft { parent: Some(p), t_sim: 8.0, ..Draft::chunk(job, 0, 1) };
        append(EventKind::DecodeEnd, d);
        append(EventKind::TransferEnd, Draft::job(job, 7.0));
        append(EventKind::JobEnd, Draft::job(job, 8.0));
        events
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
        // One stall: the 2→3 window wait, inside the wire phase 1→7.
        assert_eq!(tl.stalls, vec![(2.0, 3.0)]);
        // Missing job? None.
        assert!(Timeline::reconstruct(&events, 99).is_none());
    }

    /// A report of job 3 with these stage seconds.
    fn report(stage_s: [f64; 6]) -> BottleneckReport {
        let critical_path_s = stage_s.iter().sum();
        BottleneckReport { job: Some(3), critical_path_s, total_s: critical_path_s, stage_s, dominant: Stage::Transfer }
    }

    #[test]
    fn render_names_faulted_chunks_and_is_byte_stable() {
        let events = sample_events();
        let tl = Timeline::reconstruct(&events, 3).unwrap();
        let stages = report([1.0, 0.0, 0.0, 5.0, 1.0, 1.0]);
        let text = render_timeline(&tl, &stages);
        assert!(text.contains("  queue 1.000s | transfer 5.000s | stall 1.000s | decode 1.000s\n"), "{text}");
        assert!(text.contains("timeline job 3"), "{text}");
        assert!(text.contains("f00/c01"), "{text}");
        assert!(text.contains("wan fault (p=0.50)"), "{text}");
        assert!(text.contains('!'), "retransmit marker missing:\n{text}");
        assert!(text.contains('.'), "window-wait marker missing:\n{text}");
        assert!(text.contains("retries: 1 retransmit(s) across 1 chunk(s)"), "{text}");
        // Byte-stable: rendering is a pure function of simulated times.
        assert_eq!(text, render_timeline(&Timeline::reconstruct(&events, 3).unwrap(), &stages));
        // A staged job's header names the compression and grouping on its path.
        let staged = render_timeline(&tl, &report([0.5, 4.0, 0.25, 2.0, 0.0, 1.0]));
        assert!(
            staged.contains(
                "  queue 0.500s | compress 4.000s | group 0.250s | transfer 2.000s | stall 0.000s | decode 1.000s\n"
            ),
            "{staged}"
        );
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
        let events = [
            Draft { t_sim: 5.0, ..Draft::chunk(1, 0, 0) }.stamped(EventKind::Encoded, 1, 0),
            Draft { parent: Some(101), t_sim: 4.0, ..Draft::chunk(1, 0, 0) }.stamped(EventKind::Released, 2, 0),
        ];
        let errors = check_causality(&events, 1);
        assert!(errors.iter().any(|e| e.contains("not in the ledger")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("time went backwards")), "{errors:?}");
    }
}
