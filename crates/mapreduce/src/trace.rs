//! Structured tracing: timestamped span events for every level of a job.
//!
//! The paper's evaluation is an argument about *where* time and
//! communication go — which cycle, which phase, which reducer. A
//! [`Tracer`] attached to an [`crate::Engine`] (via
//! [`crate::Engine::with_tracer`]) records one span per:
//!
//! * **job** — each `run_job` call (one MR cycle of an algorithm);
//! * **phase** — map / shuffle / reduce inside a job;
//! * **task** — each map worker's chunk and each reduce worker's stint;
//! * **reduce** — each logical reducer invocation, tagged with its key,
//!   pairs received and output count (the per-reducer skew, span by span).
//!
//! Recording is lock-cheap: worker threads batch their events into a local
//! `Vec` and append it to the shared buffer **once per worker per phase**.
//! Event *order* is deterministic — map-task events land in chunk order,
//! reduce invocations in bucket (key) order, phase and job spans after
//! their children — regardless of `worker_threads`; only the timestamps
//! themselves are wall-clock. With no tracer attached the engine skips all
//! of this (a per-phase `Option` check; nothing per record).
//!
//! Two exporters:
//!
//! * [`Tracer::chrome_trace`] — the Chrome trace-event JSON format; load
//!   the file in `chrome://tracing` or <https://ui.perfetto.dev> to see the
//!   phase waterfall with per-worker lanes.
//! * [`Tracer::jsonl`] — one JSON object per line, for `grep`/`jq`
//!   pipelines over large traces.

use parking_lot::Mutex;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// What level of the job hierarchy a span describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `run_job` call (one MR cycle).
    Job,
    /// A phase within a job: map, shuffle or reduce.
    Phase,
    /// One worker's stint within a phase (a map chunk, a reduce worker).
    Task,
    /// One logical reducer invocation.
    Reduce,
    /// One spill-run write on the budgeted reduce path (see
    /// [`crate::spill`]).
    Spill,
}

impl SpanKind {
    /// The Chrome trace `cat` string for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Phase => "phase",
            SpanKind::Task => "task",
            SpanKind::Reduce => "reduce",
            SpanKind::Spill => "spill",
        }
    }
}

/// One completed span: a named interval on a worker lane with numeric args.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (job name, phase name, `"map-task"`, `"reduce"`, …).
    pub name: String,
    /// Hierarchy level.
    pub kind: SpanKind,
    /// Lane: worker index for tasks/reduces, 0 for job/phase spans.
    pub lane: u64,
    /// Start offset in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Numeric annotations (record counts, pair counts, reducer key, …).
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// A span from explicit start/end offsets (end clamped to start).
    pub fn span(
        kind: SpanKind,
        name: impl Into<String>,
        lane: u64,
        start_us: u64,
        end_us: u64,
    ) -> Self {
        TraceEvent {
            name: name.into(),
            kind,
            lane,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            args: Vec::new(),
        }
    }

    /// Adds one numeric annotation (builder-style).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, value));
        self
    }
}

/// Collects [`TraceEvent`]s from all workers of all jobs run against one
/// engine. Cheap to share (`Arc<Tracer>`); see the module docs for the
/// locking and determinism story.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer; its epoch (timestamp zero) is the moment of creation.
    #[expect(
        clippy::disallowed_methods,
        reason = "span timestamps are the tracer's purpose and never reach job output"
    )]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds elapsed since the tracer's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records one event (one lock acquisition).
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// Appends a worker's batched events (one lock acquisition per batch —
    /// the per-worker-per-phase path).
    pub fn record_batch(&self, batch: Vec<TraceEvent>) {
        if !batch.is_empty() {
            self.events.lock().extend(batch);
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the events recorded so far, in recording order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Renders the Chrome trace-event JSON (`{"traceEvents": [...]}`) —
    /// open in `chrome://tracing` or Perfetto. All spans are complete
    /// (`"ph": "X"`) events on `pid` 0 with the worker index as `tid`.
    pub fn chrome_trace(&self) -> String {
        let events = self.events.lock();
        let mut out = String::with_capacity(events.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            write_event_json(&mut out, ev);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders one JSON object per line (same fields as the Chrome trace).
    pub fn jsonl(&self) -> String {
        let events = self.events.lock();
        let mut out = String::with_capacity(events.len() * 96);
        for ev in events.iter() {
            write_event_json(&mut out, ev);
            out.push('\n');
        }
        out
    }

    /// Writes [`Tracer::chrome_trace`] to `path`.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }

    /// Writes [`Tracer::jsonl`] to `path`.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.jsonl())
    }
}

/// One event as a Chrome trace-format JSON object (no trailing newline).
fn write_event_json(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":");
    write_json_string(out, &ev.name);
    let _ = write!(
        out,
        ",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}",
        ev.kind.as_str(),
        ev.start_us,
        ev.dur_us,
        ev.lane
    );
    if !ev.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in ev.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push('}');
    }
    out.push('}');
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
/// Shared with the telemetry flight recorder's JSONL dump.
pub(crate) fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_clamp_and_annotate() {
        let ev = TraceEvent::span(SpanKind::Task, "map-task", 2, 100, 50).arg("records", 7);
        assert_eq!(ev.dur_us, 0, "end before start clamps to zero");
        assert_eq!(ev.args, vec![("records", 7)]);
        let ev = TraceEvent::span(SpanKind::Job, "j", 0, 100, 350);
        assert_eq!(ev.dur_us, 250);
    }

    #[test]
    fn records_in_order_and_batches() {
        let t = Tracer::new();
        t.record(TraceEvent::span(SpanKind::Job, "a", 0, 0, 1));
        t.record_batch(vec![
            TraceEvent::span(SpanKind::Task, "b", 1, 0, 1),
            TraceEvent::span(SpanKind::Task, "c", 2, 0, 1),
        ]);
        t.record_batch(Vec::new());
        let names: Vec<_> = t.snapshot().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn chrome_trace_shape() {
        let t = Tracer::new();
        t.record(
            TraceEvent::span(SpanKind::Phase, "map", 0, 10, 40)
                .arg("records", 3)
                .arg("pairs", 9),
        );
        let json = t.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(
            json.contains(
                "{\"name\":\"map\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":10,\"dur\":30,\"pid\":0,\"tid\":0,\"args\":{\"records\":3,\"pairs\":9}}"
            ),
            "{json}"
        );
        assert!(json.trim_end().ends_with("]}"), "{json}");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let t = Tracer::new();
        t.record(TraceEvent::span(SpanKind::Job, "j1", 0, 0, 5));
        t.record(TraceEvent::span(SpanKind::Job, "j2", 0, 5, 9));
        let lines: Vec<_> = t.jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn names_are_escaped() {
        let t = Tracer::new();
        t.record(TraceEvent::span(SpanKind::Job, "a\"b\\c\nd", 0, 0, 1));
        let json = t.chrome_trace();
        assert!(json.contains(r#""a\"b\\c\nd""#), "{json}");
    }

    #[test]
    fn now_us_is_monotonic_from_epoch() {
        let t = Tracer::new();
        let a = t.now_us();
        let b = t.now_us();
        assert!(b >= a);
    }
}
