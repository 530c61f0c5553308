//! The benchmark's clock and its span recorder.
//!
//! Spans are recorded here, in the benchmark, around each call it makes
//! into a layer's public functions; the program under test carries no
//! clock. Spans stay in memory and are written out once, when the run
//! ends.

use std::fmt::Write as _;
use std::path::Path;

// The benchmark is the one place wall clocks belong; nothing it times
// feeds back into the engine. rm-lint: allow(wallclock-in-results)
use std::time::Instant;

/// A started stopwatch.
#[derive(Clone, Copy)]
// Benchmark clock. rm-lint: allow(wallclock-in-results)
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        // Benchmark clock. rm-lint: allow(wallclock-in-results)
        Clock(Instant::now())
    }

    /// Seconds since [`Self::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let c = Clock::start();
    let out = f();
    (out, c.secs())
}

/// One recorded span: a call into a layer, with the span that caused it
/// and the operation it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// In-memory span recorder. When off, [`Self::span`] only runs the call.
pub struct Tracer {
    on: bool,
    origin: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Clock::start(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Switches recording; the traced run alternates it per operation to
    /// measure its own overhead.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new operation id; spans opened from now on carry it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.secs(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_s = self.origin.secs();
        out
    }

    /// Durations of every closed span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_s.is_finite())
            .map(|s| s.end_s - s.start_s)
            .collect()
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed self time of the spans named `name`: each span's duration
    /// minus the part its child spans cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut covered = vec![0.0; self.spans.len()];
        for s in self.spans.iter().filter(|s| s.end_s.is_finite()) {
            if let Some(p) = s.parent {
                covered[p] += s.end_s - s.start_s;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name && s.end_s.is_finite())
            .map(|(s, c)| s.end_s - s.start_s - c)
            .sum()
    }

    /// Writes the spans as JSON lines: id, name, start, end, parent, op.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_s, s.end_s, s.op
            );
        }
        std::fs::write(path, out)
    }
}
