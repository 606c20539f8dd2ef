//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the harness around its calls into each layer's
//! public functions (no library code is instrumented). Each span has a
//! name, start, end and parent; a layer's self time is its span's
//! duration minus the time its child spans cover. Spans are folded into
//! per-name totals after each traced unit; the first fold (the set-ups and
//! the first traced unit) is kept whole and written out with the totals at
//! the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span, times in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// Per-name aggregate over every folded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans folded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus child coverage).
    pub self_ns: u64,
}

/// The recorder. A disabled recorder only runs the timed closures.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, Totals>,
    kept: Option<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            kept: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let start = self.now();
        self.stack.push(self.spans.len());
        self.spans.push(Span { name, parent, start, end: start });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let index = self.stack.pop().expect("span exit without a matching enter");
        self.spans[index].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// Folds the finished spans into the per-name totals (keeping the
    /// first fold's spans whole for the written trace).
    pub fn fold(&mut self) {
        if !self.enabled {
            return;
        }
        assert!(self.stack.is_empty(), "fold with open spans");
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end - span.start;
            }
        }
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end - span.start;
            let totals = self.totals.entry(span.name).or_default();
            totals.count += 1;
            totals.total_ns += duration;
            totals.self_ns += duration.saturating_sub(covered);
        }
        if self.kept.is_none() {
            self.kept = Some(std::mem::take(&mut self.spans));
        }
        self.spans.clear();
    }

    /// Per-name totals over every folded span.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// All per-name totals.
    pub fn all_totals(&self) -> &BTreeMap<&'static str, Totals> {
        &self.totals
    }

    /// The trace as JSON: per-name totals plus the first fold's spans.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"totals\": {");
        for (i, (name, t)) in self.totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\n\"first_spans\": [");
        for (i, span) in self.kept.iter().flatten().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}}}",
                span.name, span.start, span.end
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
