//! Flight recorder: an always-on, lock-light ring of recent events.
//!
//! Post-mortem forensics need the *last few thousand things that happened*,
//! not a complete history: log records, counter deltas and service state
//! transitions land in a bounded [`FlightRecorder`] ring that overwrites its
//! oldest entries. When a job fails, a retry budget is
//! exhausted, or an SLO breaches, the service snapshots the ring into a
//! self-contained dump (see `ocelot-svc`'s forensics module).
//!
//! The hot path must never block behind a snapshot in progress, so
//! [`FlightRecorder::record`] only *tries* the ring lock (with a brief
//! spin). An event that cannot get the lock is **counted** in
//! [`FlightRecorder::dropped`] rather than silently vanishing — without
//! contention that counter stays 0, and tests assert both.

use crate::log::Level;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default ring capacity, in events. Sized so a multi-tenant burst's worth
/// of stage-granularity events fits with room to spare.
pub const DEFAULT_CAPACITY: usize = 4096;

/// How many times `record` retries the ring lock before counting the event
/// as dropped. A push holds the lock for nanoseconds, so this only gives up
/// when a snapshot is cloning the ring.
const SPIN_TRIES: usize = 512;

/// What happened, structurally.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightKind {
    /// A log record its emitter chose to keep for post-mortem dumps.
    Log {
        /// Severity of the record.
        level: Level,
        /// Logging target (usually the crate or subsystem name).
        target: String,
        /// Formatted message text.
        message: String,
    },
    /// A counter moved by `delta` (via `Obs::add`/`Obs::inc`; increments
    /// through cached `Arc<Counter>` handles bypass the recorder).
    Counter {
        /// Metric name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// A labelled state transition (job lifecycle, alert firings).
    State {
        /// Human-readable label, e.g. `"Retrying(2)"` or an alert rule name.
        label: String,
        /// Simulated seconds attached to the transition.
        t_s: f64,
    },
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Global record order (gap-free unless events were dropped).
    pub seq: u64,
    /// Microseconds since the recorder's epoch, wall clock.
    pub wall_us: u64,
    /// Job the event belongs to, when known.
    pub job: Option<u64>,
    /// The event payload.
    pub kind: FlightKind,
}

/// A point-in-time copy of the ring plus its loss accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSnapshot {
    /// Events in record order (oldest first).
    pub events: Vec<FlightEvent>,
    /// Events that could not be recorded because the ring lock was held
    /// (e.g. by a concurrent snapshot). 0 in the happy path.
    pub dropped: u64,
    /// Ring capacity the recorder was built with.
    pub capacity: usize,
}

/// Bounded ring of recent [`FlightEvent`]s with non-blocking recording.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    next_seq: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<FlightEvent>>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            capacity,
            next_seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, evicting the oldest entry when full. Never
    /// blocks: if the ring lock stays contended (a snapshot is in
    /// progress), the event is counted in [`FlightRecorder::dropped`].
    pub fn record(&self, job: Option<u64>, kind: FlightKind) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = FlightEvent { seq, wall_us: self.epoch.elapsed().as_micros() as u64, job, kind };
        for _ in 0..SPIN_TRIES {
            if let Ok(mut ring) = self.ring.try_lock() {
                if ring.len() >= self.capacity {
                    ring.pop_front();
                }
                ring.push_back(event);
                return;
            }
            std::hint::spin_loop();
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Events recorded so far (including overwritten and dropped ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Events lost to ring-lock contention (never silently — always counted).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently in the ring.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight ring poisoned").len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the ring contents. Recorders racing this call drop (and
    /// count) rather than wait, so keep snapshots off hot paths.
    pub fn snapshot(&self) -> FlightSnapshot {
        let events: Vec<FlightEvent> = self.ring.lock().expect("flight ring poisoned").iter().cloned().collect();
        FlightSnapshot { events, dropped: self.dropped(), capacity: self.capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str) -> FlightKind {
        FlightKind::Counter { name: name.to_string(), delta: 1 }
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(Some(i), counter("x"));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(fr.recorded(), 5);
        assert_eq!(snap.dropped, 0, "no contention, nothing dropped");
    }

    #[test]
    fn concurrent_recorders_lose_nothing_silently() {
        let fr = std::sync::Arc::new(FlightRecorder::new(DEFAULT_CAPACITY));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let fr = fr.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        fr.record(Some(t * 1000 + i), counter("spin"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Recorders contend only for nanoseconds, but a lock holder
        // pre-empted on a small box can outlast the spin budget; the
        // promise is that such an event is counted, not that it never
        // happens (the uncontended zero-drop case is
        // `ring_overwrites_oldest_when_full`).
        assert_eq!(fr.recorded(), 800);
        assert_eq!(fr.dropped() + fr.len() as u64, 800);
    }

    #[test]
    fn records_during_a_held_snapshot_are_counted_not_silent() {
        let fr = FlightRecorder::new(8);
        fr.record(None, counter("before"));
        let held = fr.ring.lock().unwrap(); // simulate a snapshot holding the ring
        fr.record(None, counter("during"));
        fr.record(None, counter("during"));
        drop(held);
        fr.record(None, counter("after"));
        assert_eq!(fr.dropped(), 2, "both contended records must be accounted for");
        let snap = fr.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 2);
        // Sequence numbers reveal the gap left by the dropped events.
        assert_eq!(snap.events.last().unwrap().seq, 3);
    }

    #[test]
    fn events_carry_kind_payloads() {
        let fr = FlightRecorder::new(8);
        fr.record(Some(7), FlightKind::Log { level: Level::Warn, target: "svc".into(), message: "retrying".into() });
        fr.record(Some(7), FlightKind::Counter { name: "ocelot_test_total".into(), delta: 2 });
        fr.record(Some(7), FlightKind::State { label: "Done".into(), t_s: 2.0 });
        let snap = fr.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert!(matches!(&snap.events[0].kind, FlightKind::Log { level: Level::Warn, .. }));
        assert!(matches!(&snap.events[1].kind, FlightKind::Counter { delta: 2, .. }));
        assert!(matches!(&snap.events[2].kind, FlightKind::State { .. }));
        assert!(snap.events.iter().all(|e| e.job == Some(7)));
    }
}
