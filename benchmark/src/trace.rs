//! Spans around the calls the harness makes into each layer.
//!
//! Every program call goes through [`Tracer::time`], which always measures
//! it and — only in a traced run — also keeps a span in memory. Spans are
//! written out once, when the benchmark ends. The harness is one thread, so
//! spans nest strictly and a span's self time is its duration minus its
//! children's.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call. `parent` is the span that was open when this one
/// started; spans of one round trip share `iter`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// Module of the program the call enters (`sz.pipeline`, `core.session`,
    /// …) or `bench*` for the harness's own work.
    pub layer: String,
    pub workload: String,
    pub iter: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Raw dataset bytes the call worked on (0 when it has none).
    pub bytes: u64,
}

/// Measures calls and, when recording, keeps their spans.
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    workload: String,
    iter: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that only measures.
    pub fn off() -> Self {
        Tracer {
            epoch: Instant::now(),
            recording: false,
            workload: String::new(),
            iter: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that also records spans, labelled with `workload`.
    pub fn on(workload: &str) -> Self {
        Tracer { recording: true, workload: workload.to_string(), ..Tracer::off() }
    }

    /// Sets the workload label stamped on the spans that follow.
    pub fn set_workload(&mut self, workload: &str) {
        self.workload = workload.to_string();
    }

    /// Sets the round-trip number stamped on the spans that follow.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    /// Runs `f`, returning its result and the nanoseconds it took.
    pub fn time<R>(&mut self, name: &str, layer: &str, bytes: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        if !self.recording {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_nanos() as u64);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer: layer.to_string(),
            workload: self.workload.clone(),
            iter: self.iter,
            start_ns: 0,
            end_ns: 0,
            bytes,
        });
        self.open.push(id);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        (r, end - start)
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: duration minus the part
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Self time summed per layer, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            layer: layer.to_string(),
            workload: "w".to_string(),
            iter: 0,
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "sz.pipeline", 10, 50),
            span(2, Some(1), "sz.encode", 20, 30),
            span(3, Some(0), "sz.pipeline", 60, 90),
        ];
        // Root: 100 − (40 + 30); span 1: 40 − 10; leaves keep their duration.
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 30]);
        let by_layer = layer_self_ms(&spans);
        assert_eq!(by_layer["bench"], 30.0 / 1e6);
        assert_eq!(by_layer["sz.pipeline"], 60.0 / 1e6);
        assert_eq!(by_layer["sz.encode"], 10.0 / 1e6);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_an_off_tracer_records_nothing() {
        let mut t = Tracer::on("w");
        t.set_iter(3);
        let (v, outer_ns) = t.time("outer", "bench", 8, |t| {
            let (x, inner_ns) = t.time("inner", "sz.pipeline", 8, |_| 41);
            (x + 1, inner_ns)
        });
        assert_eq!(v.0, 42);
        assert!(outer_ns >= v.1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].iter, 3);

        let mut off = Tracer::off();
        let ((), ns) = off.time("x", "bench", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(ns >= 2_000_000);
        assert!(off.spans().is_empty());
    }
}
