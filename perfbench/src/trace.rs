//! Spans around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent, step)`; names are
//! `layer.function` (`exec.forward`, `train.optim`, ...). Spans live in a
//! buffer allocated when the tracer is made, so recording one allocates
//! nothing, and are written out once the run ends. A disabled tracer
//! records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one training step (or one set-up) share this id.
    pub step: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span; closing a handle the tracer never opened is a
/// no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NONE: SpanId = SpanId(u32::MAX);

/// A fixed-capacity span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<u32>,
    step: u32,
    dropped: u64,
    enabled: bool,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
            dropped: 0,
            enabled: false,
        }
    }

    /// A tracer holding up to `capacity` spans; later spans are counted
    /// as dropped.
    pub fn on(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            enabled: true,
            ..Self::off()
        }
    }

    /// Tags the spans opened from now on with step `step`.
    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled || self.spans.len() == self.spans.capacity() || self.open.len() == 16 {
            self.dropped += u64::from(self.enabled);
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            step: self.step,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations in seconds of every closed span named `name`, in order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != 0)
            .map(Span::seconds)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.seconds();
            }
        }
        own
    }

    /// Total self time per layer, by layer name.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_seconds()) {
            *by_layer.entry(s.layer()).or_insert(0.0) += own;
        }
        by_layer
    }

    /// The span file: every span plus the per-layer self times.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(self.self_seconds()).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{},\"self_s\":{own:e}}}",
                s.name, s.start_ns, s.end_ns, s.step
            );
        }
        out.push_str("\n],\"self_seconds_by_layer\":{");
        for (i, (layer, own)) in self.self_seconds_by_layer().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{layer}\":{own:e}");
        }
        let _ = writeln!(out, "}},\"dropped\":{}}}", self.dropped);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
