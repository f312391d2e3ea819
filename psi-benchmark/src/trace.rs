//! Layer spans: recorded by the benchmark around its calls into each
//! layer, kept in a preallocated in-memory buffer, and written out as
//! JSON lines when the run ends.
//!
//! A span carries its name, the op it belongs to, its parent span
//! and host start/end times. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover
//! (children may nest or overlap; their union is what counts).
//! *Shadow* spans time extra calls made only in the traced run to
//! split a layer in two (for example a separate lowering of a program
//! that `Machine::load` lowers internally); they are roots of their
//! own and never children of an op.

use psi_tools::json::ObjectBuilder;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `machine.solve`.
    pub name: &'static str,
    /// The op (request, pass, program) the span belongs to.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Extra work done only in the traced run.
    pub shadow: bool,
}

/// The span buffer. A disabled tracer records nothing and costs one
/// branch per call, so the untraced run goes through the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans one traced run may keep; later spans are counted, not kept.
pub const SPAN_CAPACITY: usize = 1 << 20;

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer with `capacity` preallocated spans, timing
    /// from `epoch` (share one epoch between per-thread tracers).
    pub fn on(epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting now.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.begin_at(name, op, parent, Instant::now())
    }

    /// Opens a span that started at `start` (an open-loop request
    /// starts when it was due, not when it was sent).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        self.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: 0,
            shadow: false,
        })
    }

    /// Closes a span now.
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Records a finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        self.push(Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            shadow: false,
        })
    }

    /// Runs `f` as a shadow span: extra work of the traced run only.
    /// Returns `None` without calling `f` when tracing is off.
    pub fn shadow<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> Option<T> {
        if !self.enabled {
            return None;
        }
        let start = Instant::now();
        let out = f();
        self.record_shadow(name, op, start, Instant::now());
        Some(out)
    }

    /// Records a finished shadow interval (for a call whose span name
    /// depends on its result).
    pub fn record_shadow(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if let Some(id) = self.record(name, op, None, start, end) {
            self.spans[id as usize].shadow = true;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends another tracer's spans (one tracer per thread), keeping
    /// parent links. Both must share an epoch.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    fn push(&mut self, span: Span) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as SpanId)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes one JSON line per span (with its self time) to `path`,
    /// creating the parent directory.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let mut b = ObjectBuilder::new()
                .u64("id", i as u64)
                .str("name", s.name)
                .u64("op", s.op);
            if let Some(p) = s.parent {
                b = b.u64("parent", u64::from(p));
            }
            let line = b
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .u64("self_ns", self_ns)
                .bool("shadow", s.shadow)
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// direct children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Count and time of one layer across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl LayerTotal {
    /// Mean self time per span, microseconds (0 with no spans).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean duration per span, microseconds (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Per-name totals over `spans`.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    out
}
