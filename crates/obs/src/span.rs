//! Span recorder: nested stage timings on two clocks.
//!
//! The pipeline runs on a two-layer time model — real compression work is
//! measured on the **wall clock**, while queueing, transfer, and backoff are
//! **simulated** seconds derived deterministically from seeds. A
//! [`SpanRecord`] therefore carries a [`Clock`] tag, and both kinds share
//! one id space so sim spans can parent wall spans and vice versa.
//!
//! Wall spans use RAII guards ([`Recorder::wall_span`]) and nest via a
//! per-thread stack, so orphan closes are impossible by construction. Sim
//! spans are emitted with explicit `[start_s, end_s]` bounds
//! ([`Recorder::sim_span`] / [`Recorder::sim_child`]) because simulated
//! timelines are computed, not lived through.

use crate::flight::{FlightKind, FlightRecorder};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which timeline a span's timestamps live on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Real elapsed time, microseconds since the recorder's epoch.
    Wall,
    /// Simulated pipeline time, microseconds since sim t=0.
    Sim,
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (shared space across both clocks).
    pub id: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// Dotted stage name, e.g. `"compress.quantize"`.
    pub name: String,
    /// Job the span belongs to (`None` for jobless work such as profiling).
    pub job: Option<u64>,
    /// Display lane; maps to `tid` in Chrome traces so overlapping
    /// timelines (e.g. overlapped compress vs. transfer) render side by side.
    pub lane: u32,
    /// Which clock `start_us`/`end_us` are on.
    pub clock: Clock,
    /// Start, microseconds.
    pub start_us: u64,
    /// End, microseconds.
    pub end_us: u64,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        (self.end_us.saturating_sub(self.start_us)) as f64 / 1e6
    }
}

thread_local! {
    static WALL_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Collects closed spans. Cheap to share behind an `Arc`; recording takes a
/// short mutex only when a span *closes* (stage granularity, not per-item).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    closed: Mutex<Vec<SpanRecord>>,
    open_wall: AtomicU64,
    /// Spans walked by `for_job*` look-ups (a statistic; publishes nothing).
    scanned: AtomicU64,
    /// Optional flight-recorder sink mirroring span opens/closes.
    flight: Option<Arc<FlightRecorder>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Creates a recorder whose wall epoch is "now".
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            closed: Mutex::new(Vec::new()),
            open_wall: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
            flight: None,
        }
    }

    /// Mirrors span opens/closes into `flight` for post-mortem dumps.
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Opens a wall-clock span; it closes (and is recorded) when the guard
    /// drops. Nesting follows the thread's guard stack.
    pub fn wall_span<'r>(&'r self, name: &str, job: Option<u64>, lane: u32) -> WallSpanGuard<'r> {
        let id = self.alloc_id();
        let parent = WALL_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        self.open_wall.fetch_add(1, Ordering::Relaxed);
        if let Some(flight) = &self.flight {
            flight.record(job, FlightKind::SpanOpen { name: name.to_string(), lane });
        }
        WallSpanGuard {
            recorder: self,
            record: Some(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                job,
                lane,
                clock: Clock::Wall,
                start_us: self.now_us(),
                end_us: 0,
            }),
        }
    }

    /// Records a root simulated-clock span over `[start_s, end_s]` and
    /// returns its id for use as a parent.
    pub fn sim_span(&self, name: &str, job: Option<u64>, lane: u32, start_s: f64, end_s: f64) -> u64 {
        self.record_sim(name, None, job, lane, start_s, end_s)
    }

    /// Records a simulated-clock span nested under `parent`.
    pub fn sim_child(&self, parent: u64, name: &str, job: Option<u64>, lane: u32, start_s: f64, end_s: f64) -> u64 {
        self.record_sim(name, Some(parent), job, lane, start_s, end_s)
    }

    fn record_sim(
        &self,
        name: &str,
        parent: Option<u64>,
        job: Option<u64>,
        lane: u32,
        start_s: f64,
        end_s: f64,
    ) -> u64 {
        let id = self.alloc_id();
        let start_us = (start_s.max(0.0) * 1e6).round() as u64;
        let end_us = (end_s.max(0.0) * 1e6).round() as u64;
        let record = SpanRecord {
            id,
            parent,
            name: name.to_string(),
            job,
            lane,
            clock: Clock::Sim,
            start_us,
            end_us: end_us.max(start_us),
        };
        self.mirror_close(&record);
        self.closed.lock().expect("recorder poisoned").push(record);
        id
    }

    fn close(&self, mut record: SpanRecord) {
        record.end_us = self.now_us().max(record.start_us);
        WALL_STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last().copied(), Some(record.id), "wall spans must close LIFO");
            s.retain(|&id| id != record.id);
        });
        self.open_wall.fetch_sub(1, Ordering::Relaxed);
        self.mirror_close(&record);
        self.closed.lock().expect("recorder poisoned").push(record);
    }

    fn mirror_close(&self, record: &SpanRecord) {
        if let Some(flight) = &self.flight {
            flight.record(
                record.job,
                FlightKind::SpanClose {
                    name: record.name.clone(),
                    clock: record.clock,
                    lane: record.lane,
                    start_us: record.start_us,
                    end_us: record.end_us,
                },
            );
        }
    }

    /// Number of wall spans currently open (should be 0 at export time).
    pub fn open_spans(&self) -> u64 {
        self.open_wall.load(Ordering::Relaxed)
    }

    /// Snapshot of all closed spans so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.closed.lock().expect("recorder poisoned").clone()
    }

    /// Closed spans belonging to `job`.
    pub fn for_job(&self, job: u64) -> Vec<SpanRecord> {
        self.for_job_since(job, 0)
    }

    /// Number of spans closed so far: taken before a job starts, it is the
    /// position [`Recorder::for_job_since`] needs to find that job's spans
    /// without walking what earlier jobs left.
    pub fn mark(&self) -> usize {
        self.closed.lock().expect("recorder poisoned").len()
    }

    /// Closed spans belonging to `job` among those closed since `mark`.
    pub fn for_job_since(&self, job: u64, mark: usize) -> Vec<SpanRecord> {
        let closed = self.closed.lock().expect("recorder poisoned");
        let recent = closed.get(mark..).unwrap_or_default();
        self.scanned.fetch_add(recent.len() as u64, Ordering::Relaxed);
        recent.iter().filter(|s| s.job == Some(job)).cloned().collect()
    }

    /// Spans the `for_job*` look-ups have walked so far: what they cost,
    /// as a count a test can hold against the spans that exist.
    pub fn scanned(&self) -> u64 {
        self.scanned.load(Ordering::Relaxed)
    }

    /// Checks structural invariants over the closed spans: parents exist and
    /// share the child's clock, children lie within parent bounds (±`eps_us`
    /// for rounding), and no wall span is still open. Returns a list of
    /// violations (empty = valid).
    pub fn validate(&self, eps_us: u64) -> Vec<String> {
        let spans = self.spans();
        let mut errors = Vec::new();
        if self.open_spans() != 0 {
            errors.push(format!("{} wall span(s) still open", self.open_spans()));
        }
        let by_id: std::collections::HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            if s.end_us < s.start_us {
                errors.push(format!("span {} '{}' ends before it starts", s.id, s.name));
            }
            let Some(pid) = s.parent else { continue };
            let Some(p) = by_id.get(&pid) else {
                errors.push(format!("span {} '{}' has unknown parent {}", s.id, s.name, pid));
                continue;
            };
            if p.clock != s.clock {
                errors.push(format!("span {} '{}' crosses clocks with parent '{}'", s.id, s.name, p.name));
            }
            if s.start_us + eps_us < p.start_us || s.end_us > p.end_us + eps_us {
                errors.push(format!(
                    "span {} '{}' [{}, {}]us escapes parent '{}' [{}, {}]us",
                    s.id, s.name, s.start_us, s.end_us, p.name, p.start_us, p.end_us
                ));
            }
        }
        errors
    }
}

/// RAII guard for a wall-clock span; records the span on drop.
#[derive(Debug)]
pub struct WallSpanGuard<'r> {
    recorder: &'r Recorder,
    record: Option<SpanRecord>,
}

impl WallSpanGuard<'_> {
    /// Id of the span being recorded (usable as a sim-span parent only after
    /// the guard drops, since clocks must match; exposed for labeling).
    pub fn id(&self) -> u64 {
        self.record.as_ref().map(|r| r.id).unwrap_or(0)
    }
}

impl Drop for WallSpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(record) = self.record.take() {
            self.recorder.close(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_spans_nest_by_guard_stack() {
        let r = Recorder::new();
        {
            let _outer = r.wall_span("outer", Some(1), 0);
            {
                let _inner = r.wall_span("inner", Some(1), 0);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(r.validate(0).is_empty(), "{:?}", r.validate(0));
        assert!(inner.duration_s() > 0.0);
    }

    #[test]
    fn sim_spans_carry_explicit_bounds() {
        let r = Recorder::new();
        let root = r.sim_span("pipeline", Some(7), 0, 0.0, 10.0);
        r.sim_child(root, "compress", Some(7), 0, 0.0, 4.0);
        r.sim_child(root, "transfer", Some(7), 0, 4.0, 10.0);
        assert!(r.validate(1).is_empty(), "{:?}", r.validate(1));
        let spans = r.for_job(7);
        assert_eq!(spans.len(), 3);
        let total: f64 = spans.iter().filter(|s| s.parent.is_some()).map(|s| s.duration_s()).sum();
        assert!((total - 10.0).abs() < 1e-9);
        assert!(r.for_job(8).is_empty());
    }

    #[test]
    fn validate_catches_escaping_child() {
        let r = Recorder::new();
        let root = r.sim_span("pipeline", None, 0, 1.0, 2.0);
        r.sim_child(root, "rogue", None, 0, 0.5, 3.0);
        let errs = r.validate(0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("escapes parent"));
    }

    #[test]
    fn validate_catches_open_span() {
        let r = Recorder::new();
        let guard = r.wall_span("never_closed", None, 0);
        let errs = r.validate(0);
        assert!(errs.iter().any(|e| e.contains("still open")), "{errs:?}");
        drop(guard);
        assert!(r.validate(0).is_empty());
    }
}
