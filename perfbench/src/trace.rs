//! In-memory span and count recorder, its summariser, and its writer.
//!
//! A span is a named interval with an optional parent and the op it
//! belongs to. Spans of one op are children of that op's `op` span;
//! probes that measure something beside an op (the assembly probe, the
//! lossless and logical twins) carry the op's id but no parent, so they
//! never count against the op. Everything stays in memory until
//! [`Trace::write`] puts it in one file at exit.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde_json::Value;

/// Name of the span wrapped around every operation of a timed phase.
pub const OP: &str = "op";

/// Name of the span wrapped around every set-up repetition.
pub const SETUP: &str = "setup";

/// One recorded interval, in nanoseconds since the trace's origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `delta.apply`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to or probes.
    pub op: Option<u32>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One recorded count.
#[derive(Clone, Debug, PartialEq)]
pub struct Count {
    /// Layer-qualified name, e.g. `netsim.retransmits`.
    pub name: &'static str,
    /// The operation it was observed on.
    pub op: Option<u32>,
    /// The observed value.
    pub value: f64,
}

/// Handle of an open span (`usize::MAX` when the trace is disabled).
#[derive(Copy, Clone, Debug)]
pub struct SpanId(usize);

/// The recorder. A disabled trace records nothing and reads no clock.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: Vec<Count>,
}

impl Trace {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, op: Option<u32>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Opens the `op` span of operation `op`; spans entered until it is
    /// closed become its descendants.
    pub fn enter_op(&mut self, op: u32) -> SpanId {
        let parent = self.open.last().copied();
        self.push(OP, parent, Some(op))
    }

    /// Opens a span under the innermost open span, in its op.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let op = parent.and_then(|p| self.spans[p].op);
        self.push(name, parent, op)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` as a probe of operation `op`: a root span that carries the
    /// op's id, so the op's own spans do not include it.
    pub fn probe<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
        assert!(self.open.is_empty(), "probes run outside every span");
        let id = self.push(name, None, Some(op));
        let out = f();
        self.exit(id);
        out
    }

    /// Records a count against operation `op`.
    pub fn count(&mut self, name: &'static str, op: Option<u32>, value: f64) {
        if self.enabled {
            self.counts.push(Count { name, op, value });
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every count recorded so far.
    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// Writes every span (with its self time) and count to `path` as one
    /// JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, path: &Path, header: Vec<(String, Value)>) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let line = |v: Value| serde_json::to_string(&v).expect("trace lines serialize");
        writeln!(out, "{}", line(Value::Object(header)))?;
        let self_ns = self_times_ns(&self.spans);
        let opt = |x: Option<f64>| x.map_or(Value::Null, Value::Num);
        for (i, s) in self.spans.iter().enumerate() {
            let fields = vec![
                ("span".to_string(), Value::Str(s.name.to_string())),
                ("id".to_string(), Value::Num(i as f64)),
                ("parent".to_string(), opt(s.parent.map(|p| p as f64))),
                ("op".to_string(), opt(s.op.map(f64::from))),
                ("start_ns".to_string(), Value::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Value::Num(s.end_ns as f64)),
                ("self_ns".to_string(), Value::Num(self_ns[i] as f64)),
            ];
            writeln!(out, "{}", line(Value::Object(fields)))?;
        }
        for c in &self.counts {
            let fields = vec![
                ("count".to_string(), Value::Str(c.name.to_string())),
                ("op".to_string(), opt(c.op.map(f64::from))),
                ("value".to_string(), Value::Num(c.value)),
            ];
            writeln!(out, "{}", line(Value::Object(fields)))?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times in ns of the spans named `name`, in recording order.
pub fn self_samples(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64)
        .collect()
}

/// Values of the counts named `name`, in recording order.
pub fn count_samples(counts: &[Count], name: &str) -> Vec<f64> {
    counts
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value)
        .collect()
}

/// Per set-up repetition, the summed self time in ns of the `name` spans
/// nested anywhere under that repetition's `setup` span.
pub fn per_setup_ns(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut sums: Vec<(usize, f64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == SETUP {
            sums.push((i, 0.0));
        } else if s.name == name {
            let r = root(i);
            if let Some(slot) = sums.iter_mut().find(|(id, _)| *id == r) {
                slot.1 += self_ns[i] as f64;
            }
        }
    }
    sums.into_iter().map(|(_, ns)| ns).collect()
}
