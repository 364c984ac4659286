//! In-memory spans recorded by the benchmark around each call it makes into
//! a layer, and the per-layer self time derived from them.
//!
//! A span has a name (`layer.call`), start, end, parent and request id.
//! Spans stay in memory and are written out once, when the run ends.  A
//! disabled tracer keeps the same call structure but records nothing, so an
//! untraced replay of the same calls measures the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer is the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans.  The room is allocated
    /// and touched up front, so recording never reallocates or faults in
    /// fresh pages inside a measured span.
    pub fn new(enabled: bool, capacity: usize) -> Tracer {
        let mut spans = Vec::new();
        if enabled {
            let blank = || Span {
                name: "",
                start_ns: 0,
                end_ns: 0,
                parent: None,
                req: 0,
            };
            spans.resize_with(capacity, blank);
            spans.clear();
        }
        Tracer {
            enabled,
            origin: Instant::now(),
            spans,
            open: Vec::with_capacity(16),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.  `f` gets the tracer back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a span whose bounds were measured elsewhere (e.g. derived
    /// from a server's own timing stamp), under the innermost open span.
    pub fn derived(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
        }
    }

    /// Per span, the time its direct children cover.
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        child
    }

    /// Total self time per layer, in nanoseconds: each span's duration
    /// minus the time its children cover.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(self.child_ns()) {
            *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(child);
        }
        out
    }

    /// For every root span named `root`: the share of its wall time that
    /// its child spans cover.
    pub fn coverage(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.child_ns())
            .filter(|(s, _)| s.parent.is_none() && s.name == root && s.dur_ns() > 0)
            .map(|(s, c)| c as f64 / s.dur_ns() as f64)
            .collect()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Renders the spans as a JSON array of
    /// `[name, start_ns, end_ns, parent, req]` rows.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out.push(']');
        out
    }
}
