//! Exporters: Prometheus text exposition, a JSON metrics dump, and a Chrome
//! `trace_event` JSON file that opens in `chrome://tracing` / Perfetto.
//!
//! The obs crate is zero-dependency, so JSON is emitted by hand; the format
//! is deliberately small (objects, arrays, strings, numbers) and the svc
//! layer re-parses exports with the workspace serde_json when validating.

use crate::critpath::Attribution;
use crate::metrics::{Metric, Registry};
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON-safe number (`NaN`/`inf` become `0`).
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{}` on f64 never prints exponents for typical magnitudes and always
    // round-trips; that is valid JSON as-is.
    format!("{v}")
}

/// Formats a histogram `le` bound for Prometheus (`+Inf` for the overflow
/// bucket).
fn prom_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{le:e}")
    }
}

/// Renders the registry in Prometheus text exposition format 0.0.4.
///
/// Histograms emit only their non-empty buckets (plus the mandatory `+Inf`),
/// keeping exposition size proportional to observed spread rather than the
/// ~577 internal buckets.
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, help, metric) in registry.snapshot() {
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {}", json_num(g.get()));
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} histogram");
                for (le, cum) in h.cumulative_buckets() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", prom_le(le));
                }
                let _ = writeln!(out, "{name}_sum {}", json_num(h.sum()));
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// Renders the registry as a JSON document:
///
/// ```json
/// {"metrics": [
///   {"name": "...", "help": "...", "type": "counter", "value": 3},
///   {"name": "...", "help": "...", "type": "histogram",
///    "count": 9, "sum": 1.2, "p50": ..., "p90": ..., "p99": ...,
///    "buckets": [{"le": 0.5, "cumulative": 4,
///                 "exemplar": {"job": 3, "value": 0.41}}, ...]}
/// ]}
/// ```
///
/// A bucket's `exemplar` is the last `(job, value)` observed in it (present
/// only when the histogram was fed via `observe_exemplar`), so a p99
/// outlier can be traced to a concrete job.
pub fn metrics_json(registry: &Registry) -> String {
    let mut out = String::from("{\"metrics\":[");
    let mut first = true;
    for (name, help, metric) in registry.snapshot() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{{\"name\":\"{}\",\"help\":\"{}\"", json_escape(&name), json_escape(&help));
        match metric {
            Metric::Counter(c) => {
                let _ = write!(out, ",\"type\":\"counter\",\"value\":{}}}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = write!(out, ",\"type\":\"gauge\",\"value\":{}}}", json_num(g.get()));
            }
            Metric::Histogram(h) => {
                let _ = write!(
                    out,
                    ",\"type\":\"histogram\",\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                    h.count(),
                    json_num(h.sum()),
                    json_num(h.percentile(0.50)),
                    json_num(h.percentile(0.90)),
                    json_num(h.percentile(0.99)),
                );
                let mut bfirst = true;
                for (i, le, cum) in h.cumulative_buckets_indexed() {
                    if !bfirst {
                        out.push(',');
                    }
                    bfirst = false;
                    if le.is_infinite() {
                        let _ = write!(out, "{{\"le\":\"+Inf\",\"cumulative\":{cum}");
                    } else {
                        let _ = write!(out, "{{\"le\":{},\"cumulative\":{cum}", json_num(le));
                    }
                    if let Some((job, value)) = h.exemplar(i) {
                        let _ = write!(out, ",\"exemplar\":{{\"job\":{job},\"value\":{}}}", json_num(value));
                    }
                    out.push('}');
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("]}");
    out
}

/// Renders jobs' critical paths as a Chrome `trace_event` JSON document:
/// one process per job (`pid` = job id + 1, named in the Perfetto sidebar)
/// and one complete (`X`) event per stage interval of its path, on the
/// simulated clock in microseconds.
pub fn chrome_trace(attributions: &[Attribution]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&s);
    };
    for a in attributions {
        let pid = a.report.job.map_or(0, |j| j + 1);
        let label = a.report.job.map_or_else(|| "sim".to_string(), |j| format!("sim · job {j}"));
        emit(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&label)
        ));
        for s in &a.path {
            emit(format!(
                "{{\"name\":\"{}\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":0}}",
                s.stage.name(),
                s.start_us,
                s.end_us - s.start_us,
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_counter_gauge_histogram() {
        let r = Registry::new();
        r.counter("ocelot_test_jobs_total", "jobs").add(3);
        r.gauge("ocelot_test_queue_depth", "depth").set(2.0);
        let h = r.histogram("ocelot_test_latency_seconds", "latency");
        h.observe(0.5);
        h.observe(1.5);
        let text = prometheus_text(&r);
        assert!(text.contains("# TYPE ocelot_test_jobs_total counter"));
        assert!(text.contains("ocelot_test_jobs_total 3"));
        assert!(text.contains("# TYPE ocelot_test_queue_depth gauge"));
        assert!(text.contains("# TYPE ocelot_test_latency_seconds histogram"));
        assert!(text.contains("ocelot_test_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("ocelot_test_latency_seconds_count 2"));
    }

    #[test]
    fn metrics_json_is_parseable_shape() {
        let r = Registry::new();
        r.counter("ocelot_test_a_total", "with \"quotes\" and \\slash").inc();
        r.histogram("ocelot_test_h_seconds", "h").observe(1.0);
        let js = metrics_json(&r);
        assert!(js.starts_with("{\"metrics\":["));
        assert!(js.contains("\\\"quotes\\\""));
        assert!(js.contains("\"type\":\"histogram\""));
        assert!(js.contains("\"le\":\"+Inf\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(js.matches('{').count(), js.matches('}').count());
        assert_eq!(js.matches('[').count(), js.matches(']').count());
    }

    #[test]
    fn chrome_trace_contains_events_and_metadata() {
        use crate::critpath::attribute;
        use crate::ledger::{Lifecycle, Schedule};
        let schedule = Schedule::new(Lifecycle {
            job: 3,
            transfer_begin_s: 0.5,
            transfer_end_s: 2.0,
            total_s: 2.5,
            ..Lifecycle::default()
        });
        let trace = chrome_trace(&[attribute(&schedule)]);
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"M\""));
        assert!(trace.contains("sim · job 3"));
        assert!(
            trace.contains("\"name\":\"queue_wait\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":0,\"dur\":500000,\"pid\":4")
        );
        assert!(trace.contains("\"name\":\"transfer\""));
        assert!(trace.contains("\"name\":\"decompress\""));
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    }

    #[test]
    fn json_escape_handles_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
