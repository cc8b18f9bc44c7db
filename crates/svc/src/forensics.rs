//! Flight-dump forensics: self-contained post-mortem artifacts.
//!
//! When a job fails, a retry budget is exhausted, or an SLO breaches, the
//! service snapshots the obs flight ring together with the journal, the
//! alert log, and the failing job's critical-path attribution into one
//! [`FlightDump`]. The dump is written as JSON next to the journal artifacts
//! (validated by `schemas/flightdump.schema.json`) and pretty-printed by
//! `ocelot postmortem`.
//!
//! [`render_postmortem`] is deliberately deterministic for a fixed seed and
//! a single worker: wall-clock timings are never printed, so golden tests
//! can pin the exact text.

use crate::analyze::BottleneckSummary;
use crate::journal::{AlertRecord, Event};
use ocelot_obs::flight::{FlightEvent, FlightKind, FlightSnapshot};
use ocelot_obs::ledger::{EventKind, LedgerEvent};
use serde::{Deserialize, Serialize};

/// Current dump format version.
pub const DUMP_VERSION: u32 = 1;

/// Chunk-ledger events a [`FlightDump`] embeds (the failed job's tail).
pub const LEDGER_EMBED_EVENTS: usize = 32;

/// Serde mirror of [`ocelot_obs::ledger::LedgerEvent`] (`obs` is
/// deliberately zero-dep, so serialization lives here). `event` is the
/// stable snake_case kind label; optional fields are omitted when absent,
/// matching `schemas/ledger.schema.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEventRecord {
    /// Globally ordered sequence number.
    pub seq: u64,
    /// Sequence of the prior event for the same chunk, if any.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub parent: Option<u64>,
    /// Job the event belongs to.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub job: Option<u64>,
    /// File index within the job's workload.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub file: Option<u32>,
    /// Chunk index within the file.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub chunk: Option<u32>,
    /// Snake_case event kind ([`EventKind::name`]).
    pub event: String,
    /// Fault description / stall reason, when there is one.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub cause: Option<String>,
    /// Simulated seconds, job-relative.
    pub t_sim: f64,
    /// Microseconds since ledger construction (wall clock).
    pub t_wall_us: u64,
    /// Bytes the event concerns.
    pub bytes: u64,
    /// Transfer attempt number (1-based; 0 when not transfer-related).
    pub attempt: u32,
}

impl From<&LedgerEvent> for LedgerEventRecord {
    fn from(e: &LedgerEvent) -> Self {
        LedgerEventRecord {
            seq: e.seq,
            parent: e.parent,
            job: e.job,
            file: e.file,
            chunk: e.chunk,
            event: e.event.name().to_string(),
            cause: e.cause.as_deref().map(str::to_string),
            t_sim: e.t_sim,
            t_wall_us: e.t_wall_us,
            bytes: e.bytes,
            attempt: e.attempt,
        }
    }
}

impl LedgerEventRecord {
    /// The parsed event kind, when the label is known.
    pub fn kind(&self) -> Option<EventKind> {
        EventKind::parse(&self.event)
    }
}

/// Serializes one job's drained ledger as the artifact the service writes
/// next to its flight dumps (`ledger-<job>.json`), shaped to validate
/// against `schemas/ledger.schema.json`.
pub fn ledger_json(job: u64, events: &[LedgerEvent]) -> String {
    #[derive(Serialize)]
    struct Export {
        version: u32,
        job: u64,
        events: Vec<LedgerEventRecord>,
    }
    let export = Export {
        version: ocelot_obs::ledger::LEDGER_VERSION,
        job,
        events: events.iter().map(LedgerEventRecord::from).collect(),
    };
    serde_json::to_string_pretty(&export).expect("ledger export serializes")
}

/// One flight-ring event, flattened for JSON (`kind` discriminates which of
/// the optional fields are present).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DumpEvent {
    /// Global record order.
    pub seq: u64,
    /// Microseconds since the ring's epoch (wall clock; excluded from the
    /// deterministic rendering).
    pub wall_us: u64,
    /// Job the event belongs to, when known.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub job: Option<u64>,
    /// `log` | `counter` | `state`.
    pub kind: String,
    /// Log severity label (`log` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub level: Option<String>,
    /// Log target (`log` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub target: Option<String>,
    /// Log message (`log` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub message: Option<String>,
    /// Counter name (`counter` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub name: Option<String>,
    /// Counter delta (`counter` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub delta: Option<u64>,
    /// State label (`state` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub label: Option<String>,
    /// Simulated seconds (`state` only).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub t_s: Option<f64>,
}

impl From<&FlightEvent> for DumpEvent {
    fn from(e: &FlightEvent) -> Self {
        let mut out = DumpEvent {
            seq: e.seq,
            wall_us: e.wall_us,
            job: e.job,
            kind: String::new(),
            level: None,
            target: None,
            message: None,
            name: None,
            delta: None,
            label: None,
            t_s: None,
        };
        match &e.kind {
            FlightKind::Log { level, target, message } => {
                out.kind = "log".into();
                out.level = Some(format!("{level:?}").to_ascii_lowercase());
                out.target = Some(target.clone());
                out.message = Some(message.clone());
            }
            FlightKind::Counter { name, delta } => {
                out.kind = "counter".into();
                out.name = Some(name.clone());
                out.delta = Some(*delta);
            }
            FlightKind::State { label, t_s } => {
                out.kind = "state".into();
                out.label = Some(label.clone());
                out.t_s = Some(*t_s);
            }
        }
        out
    }
}

/// A self-contained post-mortem artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Dump format version ([`DUMP_VERSION`]).
    pub version: u32,
    /// File name the dump was (or would be) written under.
    pub file: String,
    /// Why the snapshot was taken: `job_failed`, `retry_exhausted`,
    /// `slo:<rule>`, or `forced`.
    pub reason: String,
    /// Job the dump is about, when the trigger was job-scoped.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub job: Option<u64>,
    /// The job's tenant, when known.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub tenant: Option<String>,
    /// Simulated seconds at snapshot time (the trigger's clock).
    pub t_s: f64,
    /// Flight-ring events lost to snapshot contention (cumulative).
    pub dropped: u64,
    /// Flight-ring capacity.
    pub capacity: usize,
    /// The ring contents, oldest first.
    pub events: Vec<DumpEvent>,
    /// Critical-path attribution of the triggering job, when computable.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub attribution: Option<BottleneckSummary>,
    /// Journal alerts recorded so far (each may reference another dump).
    pub alerts: Vec<AlertRecord>,
    /// Full lifecycle journal at snapshot time.
    pub journal: Vec<Event>,
    /// Tail of the failed job's chunk ledger (last [`LEDGER_EMBED_EVENTS`]),
    /// empty for staged jobs and service-scoped dumps.
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub ledger: Vec<LedgerEventRecord>,
}

impl FlightDump {
    /// Assembles a dump from a ring snapshot plus service context.
    #[allow(clippy::too_many_arguments)]
    pub fn from_snapshot(
        file: String,
        reason: &str,
        job: Option<u64>,
        tenant: Option<String>,
        t_s: f64,
        snapshot: &FlightSnapshot,
        attribution: Option<BottleneckSummary>,
        alerts: Vec<AlertRecord>,
        journal: Vec<Event>,
        ledger: &[LedgerEvent],
    ) -> Self {
        let skip = ledger.len().saturating_sub(LEDGER_EMBED_EVENTS);
        FlightDump {
            version: DUMP_VERSION,
            file,
            reason: reason.to_string(),
            job,
            tenant,
            t_s,
            dropped: snapshot.dropped,
            capacity: snapshot.capacity,
            events: snapshot.events.iter().map(DumpEvent::from).collect(),
            attribution,
            alerts,
            journal,
            ledger: ledger[skip..].iter().map(LedgerEventRecord::from).collect(),
        }
    }
}

/// Lowercases a reason/rule into a file-name slug.
pub fn slugify(s: &str) -> String {
    s.chars().map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' }).collect()
}

/// Pretty-prints a dump for `ocelot postmortem`. Deterministic for a fixed
/// seed and one worker: every printed number is on the simulated clock.
pub fn render_postmortem(dump: &FlightDump) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let who = match (dump.job, &dump.tenant) {
        (Some(j), Some(t)) => format!("job {j} (tenant {t})"),
        (Some(j), None) => format!("job {j}"),
        _ => "service".to_string(),
    };
    let _ = writeln!(out, "== post-mortem: {who} ==");
    let _ = writeln!(out, "reason: {}", dump.reason);
    let _ = writeln!(out, "sim clock: {:.3} s", dump.t_s);
    let _ = writeln!(
        out,
        "flight ring: {} event(s) captured, {} dropped (capacity {})",
        dump.events.len(),
        dump.dropped,
        dump.capacity
    );

    let _ = writeln!(out, "\njournal:");
    for e in &dump.journal {
        let _ = writeln!(out, "  [{:>3}] {} tenant={} t={:.3}s {:?}", e.seq, e.job, e.tenant, e.t_s, e.state);
    }

    if !dump.alerts.is_empty() {
        let _ = writeln!(out, "\nalerts:");
        for a in &dump.alerts {
            let _ = writeln!(
                out,
                "  [{:>3}] {} {} t={:.3}s value={:.3} threshold={:.3} — {}",
                a.seq, a.severity, a.rule, a.t_s, a.value, a.threshold, a.message
            );
        }
    }

    if let Some(attr) = &dump.attribution {
        let _ = writeln!(out, "\nattribution:");
        let _ = writeln!(
            out,
            "  critical path {:.3} s, serialized work {:.3} s (overlap saved {:.3} s)",
            attr.critical_path_s, attr.total_s, attr.overlap_savings_s
        );
        let _ = writeln!(out, "  dominant stage: {}", attr.dominant);
        for (stage, v) in &attr.stages {
            if *v > 0.0 {
                let pct = if attr.critical_path_s > 0.0 { 100.0 * v / attr.critical_path_s } else { 0.0 };
                let _ = writeln!(out, "    {stage:<11} {v:>10.3} s ({pct:>5.1}%)");
            }
        }
    }

    let mut lines: Vec<String> = Vec::new();
    for e in &dump.events {
        match e.kind.as_str() {
            "log" => lines.push(format!(
                "  log   [{}] {}: {}",
                e.level.as_deref().unwrap_or("?"),
                e.target.as_deref().unwrap_or("?"),
                e.message.as_deref().unwrap_or("")
            )),
            "counter" => lines.push(format!("  count {} +{}", e.name.as_deref().unwrap_or("?"), e.delta.unwrap_or(0))),
            "state" => lines.push(format!(
                "  state {}{} t={:.3}s",
                e.label.as_deref().unwrap_or("?"),
                e.job.map(|j| format!(" job={j}")).unwrap_or_default(),
                e.t_s.unwrap_or(0.0)
            )),
            _ => {}
        }
    }
    let _ = writeln!(out, "\nrecent events (wall timings omitted):");
    for line in lines {
        let _ = writeln!(out, "{line}");
    }

    if !dump.ledger.is_empty() {
        // Seq numbers depend on what else the ledger numbered first and wall
        // stamps on the run, so print only the simulated story: kind, chunk
        // coordinates, sim time, attempt, cause.
        let _ = writeln!(out, "\nchunk ledger (last {} event(s)):", dump.ledger.len());
        for e in &dump.ledger {
            let mut line = format!("  {:<13}", e.event);
            match (e.file, e.chunk) {
                (Some(f), Some(c)) => line.push_str(&format!(" f{f}c{c}")),
                (Some(f), None) => line.push_str(&format!(" f{f}")),
                _ => {}
            }
            line.push_str(&format!(" t={:.3}s", e.t_sim));
            if e.attempt > 0 {
                line.push_str(&format!(" attempt={}", e.attempt));
            }
            if let Some(cause) = &e.cause {
                line.push_str(&format!(" — {cause}"));
            }
            let _ = writeln!(out, "{line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobState};
    use ocelot_obs::flight::FlightRecorder;
    use ocelot_obs::log::Level;

    fn sample_dump() -> FlightDump {
        let fr = FlightRecorder::new(16);
        fr.record(Some(3), FlightKind::State { label: "Admitted".into(), t_s: 0.0 });
        fr.record(None, FlightKind::Counter { name: "ocelot_svc_jobs_done_total".into(), delta: 1 });
        fr.record(None, FlightKind::Log { level: Level::Warn, target: "svc".into(), message: "retrying".into() });
        let journal =
            vec![Event { seq: 0, job: JobId(3), tenant: "climate".into(), t_s: 0.0, state: JobState::Queued }];
        FlightDump::from_snapshot(
            "flight-0-retry-exhausted.json".into(),
            "retry_exhausted",
            Some(3),
            Some("climate".into()),
            12.5,
            &fr.snapshot(),
            None,
            Vec::new(),
            journal,
            &[],
        )
    }

    #[test]
    fn dump_round_trips_through_json() {
        let dump = sample_dump();
        let js = serde_json::to_string_pretty(&dump).unwrap();
        let back: FlightDump = serde_json::from_str(&js).unwrap();
        assert_eq!(back, dump);
        // Flattened events only carry the fields their kind uses.
        assert!(!js.contains("\"delta\": 0"), "absent fields must be omitted, got:\n{js}");
    }

    #[test]
    fn render_is_wall_clock_free() {
        let dump = sample_dump();
        let text = render_postmortem(&dump);
        assert!(text.contains("== post-mortem: job 3 (tenant climate) =="));
        assert!(text.contains("reason: retry_exhausted"));
        assert!(text.contains("state Admitted job=3 t=0.000s"));
        assert!(text.contains("count ocelot_svc_jobs_done_total +1"));
        assert!(text.contains("log   [warn] svc: retrying"));
        assert!(!text.contains("wall_us"), "wall timings must not leak into the rendering");
    }

    /// Event `kind` of `job`, numbered 1, every other field empty.
    fn event(job: u64, kind: EventKind) -> LedgerEvent {
        LedgerEvent {
            seq: 1,
            parent: None,
            job: Some(job),
            file: None,
            chunk: None,
            event: kind,
            cause: None,
            t_sim: 0.0,
            t_wall_us: 0,
            bytes: 0,
            attempt: 0,
        }
    }

    #[test]
    fn dump_embeds_only_the_ledger_tail() {
        let events: Vec<LedgerEvent> = (0..LEDGER_EMBED_EVENTS as u32 + 5)
            .map(|i| LedgerEvent {
                seq: u64::from(i) + 1,
                file: Some(0),
                chunk: Some(i),
                t_sim: f64::from(i),
                ..event(7, EventKind::Released)
            })
            .collect();
        let fr = FlightRecorder::new(4);
        let dump = FlightDump::from_snapshot(
            "flight-1-job-failed.json".into(),
            "job_failed",
            Some(7),
            None,
            1.0,
            &fr.snapshot(),
            None,
            Vec::new(),
            Vec::new(),
            &events,
        );
        assert_eq!(dump.ledger.len(), LEDGER_EMBED_EVENTS);
        // The tail is kept, i.e. the oldest 5 events are trimmed.
        assert_eq!(dump.ledger[0].chunk, Some(5));
        let text = render_postmortem(&dump);
        assert!(text.contains("chunk ledger (last 32 event(s)):"), "got:\n{text}");
        assert!(text.contains("released      f0c5 t=5.000s"), "got:\n{text}");
        // Round-trips, and a dump without ledger events omits the key.
        let back: FlightDump = serde_json::from_str(&serde_json::to_string(&dump).unwrap()).unwrap();
        assert_eq!(back, dump);
        assert!(!serde_json::to_string(&sample_dump()).unwrap().contains("\"ledger\""));
    }

    #[test]
    fn ledger_json_matches_schema_shape() {
        let retransmit = LedgerEvent {
            file: Some(1),
            chunk: Some(3),
            cause: Some("loss p=0.20".into()),
            attempt: 2,
            ..event(2, EventKind::Retransmit)
        };
        let js = ledger_json(2, &[retransmit]);
        let v: serde_json::Value = serde_json::from_str(&js).unwrap();
        assert_eq!(v.get("version").and_then(serde_json::Value::as_u64), Some(1));
        assert_eq!(v.get("job").and_then(serde_json::Value::as_u64), Some(2));
        let first = &v.get("events").and_then(serde_json::Value::as_array).unwrap()[0];
        assert_eq!(first.get("event").and_then(serde_json::Value::as_str), Some("retransmit"));
        assert_eq!(first.get("cause").and_then(serde_json::Value::as_str), Some("loss p=0.20"));
        assert_eq!(first.get("attempt").and_then(serde_json::Value::as_u64), Some(2));
        assert_eq!(first.get("t_sim").and_then(serde_json::Value::as_f64), Some(0.0));
        assert!(first.get("parent").is_none(), "absent optionals must be omitted");
    }

    #[test]
    fn ledger_json_bytes_are_pinned() {
        use ocelot_obs::ledger::{FaultCause, Ledger, Lifecycle, Schedule};
        // Two chunks: the first stalls on the window, fails once and queues
        // for a decode lane; the second meets none of that.
        let schedule = Schedule::new(Lifecycle {
            job: 5,
            transfer_begin_s: 0.25,
            transfer_end_s: 3.0,
            total_s: 3.5,
            file: vec![0, 1],
            chunk: vec![0, 0],
            bytes: vec![4096, 1024],
            compress_begin: vec![0.0, 0.125],
            ready: vec![0.5, 0.625],
            release: vec![1.0, 0.625],
            sent: vec![1.0, 0.75],
            landed: vec![2.0, 3.0],
            decode: vec![(2.5, 2.75), (3.0, 3.5)],
            failed: vec![(0, 0.5)],
            fault: Some(FaultCause { per_attempt_failure_prob: 0.1, reconnect_s: 1.0 }),
        });
        let ledger = Ledger::detached();
        ledger.commit(schedule);
        let events: Vec<LedgerEvent> = ledger.drain().into_iter().map(|e| LedgerEvent { t_wall_us: 0, ..e }).collect();
        let js = ledger_json(5, &events);
        let fnv = js.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        // 4 phases, 7 per chunk, one stall, one decode-lane wait (2), one
        // failed attempt (2). The bytes are what the export has written since
        // the ledger's last format change, `t_wall_us` zeroed.
        assert_eq!((events.len(), js.len(), fnv), (23, 4877, 0xb460_8366_3f58_70ab), "{js}");
    }

    #[test]
    fn slugify_flattens_rule_names() {
        assert_eq!(slugify("slo:p99-latency"), "slo-p99-latency");
        assert_eq!(slugify("Retry Exhausted"), "retry-exhausted");
    }
}
