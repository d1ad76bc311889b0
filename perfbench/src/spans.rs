//! The traced run's span tree: the benchmark's own spans around each call
//! into a layer, with the engine's [`Tracer`] spans harvested beneath the
//! `run` span that caused them, and per-span self time.
//!
//! All timestamps come from one clock, the tracer's, in microseconds.

use ij_mapreduce::{SpanKind, TraceEvent, Tracer};
use std::fmt::Write as _;
use std::sync::Arc;

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`"run"`, `"map"`, `"reduce"`, …).
    pub name: String,
    /// `"bench"` for the benchmark's own spans, else the engine span kind.
    pub layer: &'static str,
    /// The query iteration the span belongs to (0 for set-up).
    pub query: u64,
    /// Worker lane (0 for bench, job and phase spans).
    pub lane: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// End, in microseconds since the tracer's epoch.
    pub end_us: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An in-memory span log, written out once at exit.
pub struct SpanLog {
    tracer: Arc<Tracer>,
    /// Every span recorded so far, parents before children.
    pub spans: Vec<Span>,
    harvested: usize,
}

impl SpanLog {
    /// A log on `tracer`'s clock; attach the same tracer to the engine.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        SpanLog {
            tracer,
            spans: Vec::new(),
            harvested: 0,
        }
    }

    /// Runs `f` inside a bench span named `name`; returns its result and
    /// the span's index.
    pub fn time<T>(&mut self, name: &str, query: u64, f: impl FnOnce() -> T) -> (T, usize) {
        let start_us = self.tracer.now_us();
        let out = f();
        let end_us = self.tracer.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            layer: "bench",
            query,
            lane: 0,
            parent: None,
            start_us,
            end_us,
        });
        (out, self.spans.len() - 1)
    }

    /// Moves the engine spans recorded since the last harvest under the
    /// bench span `run`: jobs under the run, phases under their job,
    /// tasks and spill runs under their phase, and reducer invocations
    /// under the worker stint on the same lane. A span whose container is
    /// missing falls back to `run`.
    pub fn harvest(&mut self, run: usize) {
        let events = self.tracer.snapshot();
        let fresh = events.get(self.harvested..).unwrap_or_default();
        self.harvested = events.len();
        let query = self.spans[run].query;
        let first = self.spans.len();
        // Parents first, so each level can search the level above it.
        for level in [
            SpanKind::Job,
            SpanKind::Phase,
            SpanKind::Task,
            SpanKind::Spill,
            SpanKind::Reduce,
        ] {
            for ev in fresh.iter().filter(|e| e.kind == level) {
                let parent = self.container(first, ev).unwrap_or(run);
                self.spans.push(Span {
                    name: ev.name.clone(),
                    layer: ev.kind.as_str(),
                    query,
                    lane: ev.lane,
                    parent: Some(parent),
                    start_us: ev.start_us,
                    end_us: ev.start_us + ev.dur_us,
                });
            }
        }
    }

    /// The tightest span in `spans[first..]` of the level above `ev`'s that
    /// contains it in time (and, for reducers, shares its lane).
    fn container(&self, first: usize, ev: &TraceEvent) -> Option<usize> {
        let (layer, same_lane) = match ev.kind {
            SpanKind::Job => return None,
            SpanKind::Phase => (SpanKind::Job.as_str(), false),
            SpanKind::Task | SpanKind::Spill => (SpanKind::Phase.as_str(), false),
            SpanKind::Reduce => (SpanKind::Task.as_str(), true),
        };
        let end = ev.start_us + ev.dur_us;
        (first..self.spans.len())
            .filter(|&i| {
                let s = &self.spans[i];
                s.layer == layer
                    && (!same_lane || s.lane == ev.lane)
                    && s.start_us <= ev.start_us
                    && end <= s.end_us
            })
            .min_by_key(|&i| self.spans[i].dur_us())
    }

    /// The log as JSON lines, one span each, with its self time.
    pub fn jsonl(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (i, (s, self_us)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"query\":{},\"layer\":\"{}\",\"name\":{:?},\
                 \"lane\":{},\"start_us\":{},\"dur_us\":{},\"self_us\":{self_us}}}",
                s.query,
                s.layer,
                s.name,
                s.lane,
                s.start_us,
                s.dur_us()
            );
        }
        out
    }
}

/// Each span's self time: its duration minus the part of it that the
/// union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            name: name.into(),
            layer: "bench",
            query: 1,
            lane: 0,
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("run", None, 0, 100),
            // Two children overlapping on [30, 40]: together they cover
            // [10, 60], 50 of the parent's 100 us.
            span("map", Some(0), 10, 40),
            span("reduce", Some(0), 30, 60),
            // A grandchild counts against its own parent only.
            span("reducer", Some(2), 35, 45),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20, 10]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("job", None, 10, 20), span("phase", Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn harvest_nests_engine_spans_by_level_and_lane() {
        let tracer = Arc::new(Tracer::new());
        let mut log = SpanLog::new(tracer.clone());
        let (_, run) = log.time("run", 1, || {});
        log.spans[run].end_us = 1_000;
        let ev = |kind, name: &str, lane, a, b| TraceEvent::span(kind, name, lane, a, b);
        tracer.record(ev(SpanKind::Reduce, "reduce", 1, 520, 600));
        tracer.record(ev(SpanKind::Task, "reduce-worker", 0, 500, 900));
        tracer.record(ev(SpanKind::Task, "reduce-worker", 1, 500, 900));
        tracer.record(ev(SpanKind::Phase, "reduce", 0, 450, 950));
        tracer.record(ev(SpanKind::Job, "join", 0, 0, 990));
        log.harvest(run);
        let parent_of = |name: &str, lane: u64| {
            let s = log.spans.iter().find(|s| s.name == name && s.lane == lane);
            let p = s
                .and_then(|s| s.parent)
                .expect("harvested span has a parent");
            (log.spans[p].name.as_str(), log.spans[p].lane)
        };
        assert_eq!(parent_of("join", 0), ("run", 0));
        assert_eq!(parent_of("reduce-worker", 1), ("reduce", 0));
        // The reducer on lane 1 nests under lane 1's stint, not lane 0's.
        let reducer = log.spans.iter().find(|s| s.layer == "reduce").unwrap();
        let stint = &log.spans[reducer.parent.unwrap()];
        assert_eq!((stint.name.as_str(), stint.lane), ("reduce-worker", 1));
        assert!(log.spans.iter().all(|s| s.query == 1));
    }
}
