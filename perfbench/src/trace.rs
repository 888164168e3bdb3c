//! The benchmark's own instrumentation: host-time spans around every call
//! it makes into the workspace crates, and a trace sink that counts the
//! simulator's opt-in trace events by kind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use m2ndp::sim::trace::{EventKind, TraceEvent, TraceSink};

/// One timed call. Times are host nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start (ns).
    pub start_ns: u64,
    /// End (ns).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition the span belongs to.
    pub run: u32,
}

impl Span {
    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, shared by every thread of a run. Spans are
/// kept until the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle to an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: Option<Open>, run: u32) -> Open {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            run,
        });
        Open(spans.len() - 1)
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span lock");
        let span = &mut spans[open.0];
        span.end_ns = end_ns;
        span.dur_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<Open>,
        run: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, run);
        let out = f();
        self.end(open);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Per-span self time in ns: the span's duration minus the part of its
/// interval covered by its children (overlapping children, as from a
/// thread pool, are counted once).
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
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes spans as JSON lines (one object per span) to `path`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            s.name, s.start_ns, s.end_ns, s.run
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Trace-event tallies, one counter per [`EventKind`] family the
/// benchmark reports.
#[derive(Debug, Default)]
pub struct EventCounts {
    counters: [AtomicU64; COUNTERS.len()],
}

/// Counter names, in index order.
pub const COUNTERS: [&str; 11] = [
    "kernel_launches",
    "kernel_retires",
    "waves_spawned",
    "wave_drains",
    "l2_hits",
    "l2_misses",
    "l2_evictions",
    "dram_reads",
    "dram_writes",
    "switch_hops",
    "req_phases",
];

impl EventCounts {
    /// Counts one event.
    pub fn add(&self, kind: &EventKind) {
        let i = match kind {
            EventKind::KernelLaunch { .. } => 0,
            EventKind::KernelRun { .. } => 1,
            EventKind::WaveSpawn { .. } => 2,
            EventKind::WaveDrain { .. } => 3,
            EventKind::L2Access { hit: true, .. } => 4,
            EventKind::L2Access { hit: false, .. } => 5,
            EventKind::L2Evict { .. } => 6,
            EventKind::DramTxn { write: false, .. } => 7,
            EventKind::DramTxn { write: true, .. } => 8,
            EventKind::SwitchHop { .. } => 9,
            EventKind::ReqPhase { .. } => 10,
            EventKind::Route { .. } | EventKind::Scale { .. } => return,
        };
        self.counters[i].fetch_add(1, Ordering::Relaxed);
    }

    /// The named count.
    pub fn get(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        self.counters[i].load(Ordering::Relaxed)
    }
}

/// A trace sink that keeps no events, only [`EventCounts`].
#[derive(Debug)]
pub struct CountingSink(pub Arc<EventCounts>);

impl TraceSink for CountingSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.0.add(&ev.kind);
    }
}
