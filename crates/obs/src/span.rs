//! Structured spans: which phase of which compound superstep a worker
//! is in, and how long it stayed there.
//!
//! A [`SpanScope`] is an RAII guard: entering publishes the
//! `(superstep, phase)` pair into the owning [`Obs`]'s [`PhaseCell`]
//! (so the io layer can stamp in-flight operations) and dropping
//! records a [`SpanRecord`] into a bounded ring buffer. The ring keeps
//! the *most recent* `capacity` spans — for long runs the tail is what
//! a post-mortem wants, and memory stays bounded.
//!
//! [`Obs`]: crate::Obs

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// EM execution phase, the span/metric taxonomy shared by both runners
/// and the io engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(u8)]
pub enum Phase {
    /// Outside any instrumented phase.
    #[default]
    None = 0,
    /// Opening a worker's disks and laying out its stores.
    Setup = 1,
    /// Phase (a)/(e): reading or writing a virtual processor's context.
    CtxLoad = 2,
    /// Phase (b): reading the message-matrix column addressed to a vp.
    MatrixRead = 3,
    /// Phase (c): local computation rounds of the simulated algorithm.
    Rounds = 4,
    /// Message exchange/arrangement between workers (parallel runner).
    Route = 5,
    /// Phase (d): writing the message-matrix row produced by a vp.
    MatrixWrite = 6,
    /// End-of-superstep flush/synchronisation.
    Barrier = 7,
    /// Writing a checkpoint manifest.
    Checkpoint = 8,
    /// Handing the final states and the report over.
    Readout = 9,
}

impl Phase {
    /// All phases in declaration order.
    pub const ALL: [Phase; 10] = [
        Phase::None,
        Phase::Setup,
        Phase::CtxLoad,
        Phase::MatrixRead,
        Phase::Rounds,
        Phase::Route,
        Phase::MatrixWrite,
        Phase::Barrier,
        Phase::Checkpoint,
        Phase::Readout,
    ];

    /// Stable snake_case name used in exports and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Phase::None => "none",
            Phase::Setup => "setup",
            Phase::CtxLoad => "ctx_load",
            Phase::MatrixRead => "matrix_read",
            Phase::Rounds => "rounds",
            Phase::Route => "route",
            Phase::MatrixWrite => "matrix_write",
            Phase::Barrier => "barrier",
            Phase::Checkpoint => "checkpoint",
            Phase::Readout => "readout",
        }
    }

    /// Inverse of [`Phase::name`]; `None` for unknown strings.
    pub fn from_name(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == s)
    }

    fn from_id(id: u8) -> Phase {
        Phase::ALL.get(id as usize).copied().unwrap_or(Phase::None)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Lock-free cell publishing the currently-active `(superstep, phase)`.
///
/// Packed as `superstep << 8 | phase_id` in one `AtomicU64`, so readers
/// on the io hot path pay a single relaxed load. Supersteps are capped
/// at `2^56 - 1`, far beyond any realistic run.
#[derive(Debug, Default)]
pub struct PhaseCell(AtomicU64);

impl PhaseCell {
    /// Publish a new active pair, returning the previous packed value
    /// (pass back to [`PhaseCell::restore`] when a scope ends).
    pub fn set(&self, superstep: u64, phase: Phase) -> u64 {
        self.0.swap(superstep << 8 | phase as u64, Ordering::Relaxed)
    }

    /// Restore a packed value returned by [`PhaseCell::set`].
    pub fn restore(&self, packed: u64) {
        self.0.store(packed, Ordering::Relaxed);
    }

    /// Read the active pair.
    pub fn get(&self) -> (u64, Phase) {
        let v = self.0.load(Ordering::Relaxed);
        (v >> 8, Phase::from_id((v & 0xFF) as u8))
    }
}

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Worker index — a virtual-processor id at large `v` must not be
    /// truncated, so this is as wide as the vp address space
    /// (`u64::MAX` marks the coordinator; see [`crate::COORD_PROC`]).
    pub proc: u64,
    /// Compound superstep the span belongs to.
    pub superstep: u64,
    /// Phase taxonomy label.
    pub phase: Phase,
    /// Start, microseconds since the owning registry's epoch.
    pub start_us: u64,
    /// End, microseconds since the owning registry's epoch.
    pub end_us: u64,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Bounded MPSC ring of completed spans; keeps the most recent
/// `capacity` records.
#[derive(Debug)]
pub struct SpanRing {
    inner: Mutex<RingInner>,
    capacity: usize,
}

#[derive(Debug)]
struct RingInner {
    buf: Vec<SpanRecord>,
    /// Next write position once the buffer has wrapped.
    head: usize,
    /// Total spans ever recorded (including overwritten ones).
    total: u64,
}

impl SpanRing {
    /// A ring keeping at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { inner: Mutex::new(RingInner { buf: Vec::new(), head: 0, total: 0 }), capacity }
    }

    /// Record one completed span (overwrites the oldest when full).
    pub fn push(&self, rec: SpanRecord) {
        let mut g = self.inner.lock().unwrap();
        g.total += 1;
        if g.buf.len() < self.capacity {
            g.buf.push(rec);
        } else {
            let head = g.head;
            g.buf[head] = rec;
            g.head = (head + 1) % self.capacity;
        }
    }

    /// The retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let g = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(g.buf.len());
        out.extend_from_slice(&g.buf[g.head..]);
        out.extend_from_slice(&g.buf[..g.head]);
        out
    }

    /// Total spans ever pushed, including ones the ring has dropped.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap().total
    }

    /// Number of spans dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        let g = self.inner.lock().unwrap();
        g.total - g.buf.len() as u64
    }
}

/// Serialise spans as a chrome://tracing "complete event" array
/// (load via `chrome://tracing` or <https://ui.perfetto.dev>). `pid` is
/// the run label, `tid` the worker, and each event carries its
/// superstep as an argument.
pub fn chrome_trace_json(spans: &[SpanRecord], pid: &str) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"name\":\"{}\",\"cat\":\"em\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":\"{}\",\"tid\":{},\"args\":{{\"superstep\":{}}}}}",
            s.phase.name(),
            s.start_us,
            s.duration_us(),
            pid,
            s.proc,
            s.superstep,
        ));
    }
    out.push_str("\n]\n");
    out
}

/// Serialise spans as folded stacks (`proc;superstep;phase count`),
/// one line per distinct stack, durations in microseconds — ready for
/// `flamegraph.pl` or speedscope's "folded" importer.
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    let mut agg: std::collections::BTreeMap<(u64, u64, Phase), u64> =
        std::collections::BTreeMap::new();
    for s in spans {
        *agg.entry((s.proc, s.superstep, s.phase)).or_insert(0) += s.duration_us();
    }
    let mut out = String::new();
    for ((proc, superstep, phase), us) in agg {
        out.push_str(&format!("proc{proc};superstep{superstep};{} {us}\n", phase.name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(proc: u64, superstep: u64, phase: Phase, start: u64, end: u64) -> SpanRecord {
        SpanRecord { proc, superstep, phase, start_us: start, end_us: end }
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("bogus"), None);
    }

    #[test]
    fn phase_cell_packs_and_restores() {
        let c = PhaseCell::default();
        assert_eq!(c.get(), (0, Phase::None));
        let prev = c.set(7, Phase::MatrixRead);
        assert_eq!(c.get(), (7, Phase::MatrixRead));
        let prev2 = c.set(7, Phase::Rounds);
        assert_eq!(c.get(), (7, Phase::Rounds));
        c.restore(prev2);
        assert_eq!(c.get(), (7, Phase::MatrixRead));
        c.restore(prev);
        assert_eq!(c.get(), (0, Phase::None));
    }

    #[test]
    fn ring_keeps_most_recent() {
        let ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.push(rec(0, i, Phase::Rounds, i * 10, i * 10 + 5));
        }
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().map(|s| s.superstep).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.total_recorded(), 5);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn chrome_trace_lists_all_events() {
        let spans = vec![rec(0, 1, Phase::CtxLoad, 0, 10), rec(1, 1, Phase::Barrier, 10, 30)];
        let json = chrome_trace_json(&spans, "seq");
        assert!(json.starts_with("[\n"));
        assert!(json.contains("\"name\":\"ctx_load\""));
        assert!(json.contains("\"dur\":20"));
        assert!(json.contains("\"superstep\":1"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn folded_stacks_aggregate_durations() {
        let spans = vec![
            rec(0, 1, Phase::Rounds, 0, 10),
            rec(0, 1, Phase::Rounds, 20, 35),
            rec(0, 2, Phase::Barrier, 40, 41),
        ];
        let folded = folded_stacks(&spans);
        assert!(folded.contains("proc0;superstep1;rounds 25\n"));
        assert!(folded.contains("proc0;superstep2;barrier 1\n"));
        assert_eq!(folded.lines().count(), 2);
    }
}
