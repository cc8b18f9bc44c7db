//! Flight-dump forensics: self-contained post-mortem artifacts.
//!
//! When a job fails, a retry budget is exhausted, or an SLO breaches, the
//! service assembles one [`FlightDump`] from what it already records: the
//! journal, the alert log, the job's critical-path attribution and the tail
//! of its schedule's events, plus the artifact writes that failed. The dump
//! is written as JSON next to the journal artifacts (validated by
//! `schemas/flightdump.schema.json`), pretty-printed by `ocelot postmortem`
//! and read back by [`FlightDump::from_json`].
//!
//! [`render_postmortem`] is deliberately deterministic for a fixed seed and
//! a single worker: wall-clock timings are never printed, so golden tests
//! can pin the exact text.

use crate::analyze::BottleneckSummary;
use crate::journal::{AlertRecord, Event};
use ocelot_obs::ledger::{EventKind, LedgerEvent, Schedule};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Current dump format version; [`FlightDump::from_json`] refuses any other.
pub const DUMP_VERSION: u32 = 2;

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

/// The last [`LEDGER_EMBED_EVENTS`] of a job's events, as a dump embeds
/// them: the schedule is replayed, and only its tail is kept.
pub(crate) fn ledger_tail(schedule: &Schedule) -> Vec<LedgerEventRecord> {
    let mut tail = VecDeque::with_capacity(LEDGER_EMBED_EVENTS + 1);
    schedule.widen(|e| {
        if tail.len() == LEDGER_EMBED_EVENTS {
            tail.pop_front();
        }
        tail.push_back(e);
    });
    tail.iter().map(LedgerEventRecord::from).collect()
}

/// Why [`FlightDump::from_json`] refused a dump.
#[derive(Debug, Clone, PartialEq)]
pub enum DumpError {
    /// The dump was written in a format version this build does not read.
    UnsupportedVersion(u64),
    /// The text is not a dump: malformed JSON, or a field of the wrong shape.
    Malformed(String),
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::UnsupportedVersion(v) => {
                write!(f, "flight dump version {v} is not supported (this build reads version {DUMP_VERSION})")
            }
            DumpError::Malformed(why) => write!(f, "not a flight dump: {why}"),
        }
    }
}

impl std::error::Error for DumpError {}

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
    /// Simulated seconds when the dump was taken: the job's last journal
    /// time for a job-scoped dump, the cumulative clock SLOs tick on for a
    /// service-scoped one.
    pub t_s: f64,
    /// The service's most recent artifact-write failures, oldest first.
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub warnings: Vec<String>,
    /// Critical-path attribution of the triggering job, when computable.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub attribution: Option<BottleneckSummary>,
    /// Journal alerts recorded so far (each may reference another dump).
    pub alerts: Vec<AlertRecord>,
    /// Full lifecycle journal at snapshot time.
    pub journal: Vec<Event>,
    /// Tail of the job's schedule events (last [`LEDGER_EMBED_EVENTS`]),
    /// empty for service-scoped dumps and jobs that never ran a pipeline.
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub ledger: Vec<LedgerEventRecord>,
}

impl FlightDump {
    /// Reads a dump written by [`serde_json::to_string`] or its pretty form.
    ///
    /// # Errors
    /// [`DumpError::UnsupportedVersion`] for a dump of another format
    /// version, [`DumpError::Malformed`] for anything else that is not a
    /// dump.
    pub fn from_json(text: &str) -> Result<FlightDump, DumpError> {
        let malformed = |e: serde_json::Error| DumpError::Malformed(e.to_string());
        let doc: serde_json::Value = serde_json::from_str(text).map_err(malformed)?;
        match doc.get("version").and_then(serde_json::Value::as_u64) {
            Some(v) if v == u64::from(DUMP_VERSION) => serde_json::from_value(doc).map_err(malformed),
            Some(v) => Err(DumpError::UnsupportedVersion(v)),
            None => Err(DumpError::Malformed("no numeric `version`".to_string())),
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

    if !dump.warnings.is_empty() {
        let _ = writeln!(out, "\nwarnings:");
        for w in &dump.warnings {
            let _ = writeln!(out, "  {w}");
        }
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

    fn sample_dump() -> FlightDump {
        let journal =
            vec![Event { seq: 0, job: JobId(3), tenant: "climate".into(), t_s: 0.0, state: JobState::Queued }];
        FlightDump {
            version: DUMP_VERSION,
            file: "flight-0-retry-exhausted.json".into(),
            reason: "retry_exhausted".into(),
            job: Some(3),
            tenant: Some("climate".into()),
            t_s: 12.5,
            warnings: vec!["failed to write chunk ledger ledger-3.json: not a directory".into()],
            attribution: None,
            alerts: Vec::new(),
            journal,
            ledger: Vec::new(),
        }
    }

    #[test]
    fn dump_round_trips_through_json() {
        let dump = sample_dump();
        let js = serde_json::to_string_pretty(&dump).unwrap();
        assert_eq!(FlightDump::from_json(&js), Ok(dump.clone()));
        // Absent optionals are omitted.
        let bare = FlightDump { warnings: Vec::new(), ..dump };
        let js = serde_json::to_string(&bare).unwrap();
        assert!(!js.contains("warnings") && !js.contains("attribution"), "absent fields must be omitted, got:\n{js}");
        assert_eq!(FlightDump::from_json(&js), Ok(bare));
    }

    #[test]
    fn an_older_or_foreign_dump_is_refused_by_name() {
        let old = serde_json::to_string(&sample_dump()).unwrap().replace("\"version\":2", "\"version\":1");
        let err = FlightDump::from_json(&old).unwrap_err();
        assert_eq!(err, DumpError::UnsupportedVersion(1));
        assert_eq!(err.to_string(), "flight dump version 1 is not supported (this build reads version 2)");
        assert!(matches!(FlightDump::from_json("{\"file\": \"x\"}"), Err(DumpError::Malformed(_))));
        assert!(matches!(FlightDump::from_json("not json"), Err(DumpError::Malformed(_))));
    }

    #[test]
    fn render_is_wall_clock_free() {
        let dump = sample_dump();
        let text = render_postmortem(&dump);
        assert!(text.contains("== post-mortem: job 3 (tenant climate) =="));
        assert!(text.contains("reason: retry_exhausted"));
        assert!(text.contains("sim clock: 12.500 s"));
        assert!(text.contains("[  0] job-3 tenant=climate t=0.000s Queued"));
        assert!(
            text.contains("\nwarnings:\n  failed to write chunk ledger ledger-3.json: not a directory\n"),
            "{text}"
        );
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
        use ocelot_obs::ledger::{Lifecycle, Schedule};
        // Six clean chunks a second apart: 4 + 7 × 6 = 46 events.
        let at = |offset: f64| (0..6).map(|m| f64::from(m) + offset).collect::<Vec<f64>>();
        let schedule = Schedule::new(Lifecycle {
            job: 7,
            transfer_end_s: 5.5,
            total_s: 5.75,
            file: vec![0; 6],
            chunk: (0..6).collect(),
            bytes: vec![10; 6],
            compress_begin: at(0.0),
            ready: at(0.25),
            release: at(0.25),
            sent: at(0.25),
            landed: at(0.5),
            decode: at(0.5).into_iter().zip(at(0.75)).collect(),
            ..Lifecycle::default()
        })
        .numbered(1, 0);
        let events = schedule.events();
        let dump = FlightDump { ledger: ledger_tail(&schedule), ..sample_dump() };
        assert_eq!(dump.ledger.len(), LEDGER_EMBED_EVENTS);
        // The tail is kept, i.e. the oldest 14 events are trimmed.
        let tail: Vec<LedgerEventRecord> = events[14..].iter().map(LedgerEventRecord::from).collect();
        assert_eq!(dump.ledger, tail);
        assert_eq!((dump.ledger[0].seq, dump.ledger[0].chunk), (15, Some(1)));
        let text = render_postmortem(&dump);
        assert!(text.contains("chunk ledger (last 32 event(s)):"), "got:\n{text}");
        assert!(text.contains("released      f0c5 t=5.250s"), "got:\n{text}");
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
        use ocelot_obs::ledger::{FaultCause, Lifecycle, Schedule};
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
        let events = schedule.numbered(1, 0).events();
        let js = ledger_json(5, &events);
        let fnv = js.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        // 4 phases, 7 per chunk, one stall, one decode-lane wait (2), one
        // failed attempt (2). The bytes are what the export has written since
        // the ledger's last format change, numbered from 1, `t_wall_us` 0.
        assert_eq!((events.len(), js.len(), fnv), (23, 4877, 0xb460_8366_3f58_70ab), "{js}");
    }

    #[test]
    fn slugify_flattens_rule_names() {
        assert_eq!(slugify("slo:p99-latency"), "slo-p99-latency");
        assert_eq!(slugify("Retry Exhausted"), "retry-exhausted");
    }
}
