//! Benchmark-side spans: recorded around calls into each layer, kept in
//! memory, written out as a Chrome `trace_event` file when the run ends.
//!
//! A span is `(name, start, end, parent, rep, thread)`. A layer's *self
//! time* is its span's duration minus the part of that interval its child
//! spans cover; children on concurrent threads may overlap each other, so
//! coverage is the length of the *union* of their intervals.
//!
//! Spans inside the program (the repository's `tracing` feature) stay off:
//! everything here is measured from outside, around public calls.

use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `graphchi.pr`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (`start_ns` while still open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Repetition the span belongs to: every span of one rep shares it.
    pub rep: u32,
    /// Client thread that recorded it (0 = the benchmark's main thread).
    pub tid: u32,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span buffer.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// An empty tracer on an existing clock, so per-thread tracers can be
    /// [`absorb`](Tracer::absorb)ed without rebasing.
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Tracer::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: u32,
        tid: u32,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep,
            tid,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records `f` as a child span of `parent`, inheriting its rep and
    /// thread.
    pub fn child<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let (rep, tid) = (self.spans[parent].rep, self.spans[parent].tid);
        let id = self.begin(name, Some(parent), rep, tid);
        let out = f();
        self.end(id);
        out
    }

    /// Inserts an already-measured span (explicit times).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Moves another tracer's spans in, re-parenting its roots under
    /// `parent` and shifting its internal parent links. Both tracers must
    /// share an origin.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds of `id`'s interval covered by the union of the spans
    /// `children` (each clipped to the parent's interval).
    fn covered_by(&self, id: SpanId, children: impl Iterator<Item = SpanId>) -> u64 {
        let parent = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = children
            .map(|c| {
                let s = &self.spans[c];
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Nanoseconds of `id`'s interval covered by the union of its direct
    /// children.
    pub fn covered_ns(&self, id: SpanId) -> u64 {
        let children = (0..self.spans.len()).filter(|&c| self.spans[c].parent == Some(id));
        self.covered_by(id, children)
    }

    /// Self time of `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id].duration_ns() - self.covered_ns(id)
    }

    /// Self time of every span, indexed by span id (one pass over the
    /// buffer, for exports over many spans).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        (0..self.spans.len())
            .map(|id| {
                self.spans[id].duration_ns() - self.covered_by(id, children[id].iter().copied())
            })
            .collect()
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Ids of every span called `name`.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Renders the buffer as a Chrome `trace_event` document (complete
    /// `"X"` events, microsecond timestamps; `args` carry the rep id, the
    /// parent span's index and the self time).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        let self_ns = self.self_times_ns();
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                 \"rep\": {}, \"self_us\": {:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.rep,
                self_ns[id] as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The spans of one leg: a root span and a child around every call the leg
/// makes. Without a tracer (a plain rep) it records nothing and just calls.
#[derive(Debug)]
pub struct LegSpans<'a> {
    tracer: Option<&'a mut Tracer>,
    root: SpanId,
}

impl<'a> LegSpans<'a> {
    /// Opens the leg's root span `name` for repetition `rep`.
    pub fn open(mut tracer: Option<&'a mut Tracer>, name: &'static str, rep: u32) -> Self {
        let root = tracer
            .as_deref_mut()
            .map_or(0, |t| t.begin(name, None, rep, 0));
        LegSpans { tracer, root }
    }

    /// Whether this is a decomposed rep.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f`, as a child span `name` of the leg when tracing.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match self.tracer.as_deref_mut() {
            Some(tracer) => tracer.child(name, self.root, f),
            None => f(),
        }
    }

    /// Closes the root span.
    pub fn close(self) {
        if let Some(tracer) = self.tracer {
            tracer.end(self.root);
        }
    }
}
