//! cgmio-obs: zero-dependency observability substrate for the EM stack.
//!
//! One [`Obs`] handle per run bundles everything the rest of the
//! workspace needs to describe itself:
//!
//! - a [`MetricsRegistry`] of atomic [`Counter`]s, [`Gauge`]s, and
//!   log-bucketed [`Histogram`]s, exportable to Prometheus text
//!   ([`to_prometheus`]) and JSON ([`to_json`]) with round-trip
//!   parsers for both;
//! - structured [`SpanScope`] spans labelled `(proc, superstep,
//!   [`Phase`])`, kept in a bounded ring and exportable as
//!   chrome://tracing JSON ([`chrome_trace_json`]) or folded stacks
//!   ([`folded_stacks`]);
//! - a [`PhaseCell`] correlating the two: runners publish the active
//!   superstep/phase as they enter spans, and the io layer stamps that
//!   pair onto every trace event and metric it records.
//!
//! Everything is opt-in: layers accept an `Option<Obs>`, and with
//! `None` they fall back to detached handles whose updates are a
//! relaxed atomic add — cheap enough that `IoStats` and on-disk bytes
//! stay bit-identical either way (property-tested in
//! `tests/observability.rs`).
//!
//! ```
//! use cgmio_obs::{Obs, Phase};
//!
//! let obs = Obs::new();
//! {
//!     let _span = obs.span(0, 3, Phase::MatrixRead);
//!     // … superstep 3's matrix read happens here …
//!     assert_eq!(obs.phase_cell(0).get(), (3, Phase::MatrixRead));
//! }
//! let spans = obs.spans();
//! assert_eq!(spans.len(), 1);
//! assert_eq!(spans[0].phase, Phase::MatrixRead);
//! let prom = cgmio_obs::to_prometheus(&obs.snapshot());
//! assert!(prom.contains("cgmio_phase_us"));
//! ```
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod metrics;
mod span;

pub use export::{json, json_escape, parse_json, parse_prometheus, to_json, to_prometheus};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Labels,
    MetricSample, MetricsRegistry, SampleValue, Snapshot, HIST_BUCKETS,
};
pub use span::{chrome_trace_json, folded_stacks, Phase, PhaseCell, SpanRecord, SpanRing};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `proc` label used for coordinator-side spans (checkpoint writes)
/// that belong to no worker.
pub const COORD_PROC: u64 = u64::MAX;

/// Default span-ring capacity: enough for every phase of tens of
/// thousands of supersteps while bounding memory at a few MiB.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct ObsInner {
    epoch: Instant,
    metrics: MetricsRegistry,
    spans: SpanRing,
    /// One phase cell per real processor: the parallel runner's workers
    /// progress through phases independently, so a single shared cell
    /// would let them clobber each other's stamps.
    phases: Mutex<BTreeMap<u64, Arc<PhaseCell>>>,
}

/// Shared observability handle for one run (cheap to clone — all
/// clones view the same registry, span ring, and phase cell).
#[derive(Clone, Debug)]
pub struct Obs(Arc<ObsInner>);

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A fresh handle with default span capacity and no base labels.
    pub fn new() -> Self {
        Self::with_options(DEFAULT_SPAN_CAPACITY, &[])
    }

    /// A fresh handle with explicit span-ring capacity and constant
    /// labels added to every exported metric series (e.g.
    /// `&[("run", "seq")]` so seq and par snapshots merge cleanly).
    pub fn with_options(span_capacity: usize, base_labels: &[(&str, &str)]) -> Self {
        Self(Arc::new(ObsInner {
            epoch: Instant::now(),
            metrics: MetricsRegistry::with_base_labels(base_labels),
            spans: SpanRing::new(span_capacity),
            phases: Mutex::new(BTreeMap::new()),
        }))
    }

    /// Microseconds elapsed since this handle was created; the shared
    /// timebase for spans and (when no event trace is attached)
    /// service-time histograms.
    pub fn now_us(&self) -> u64 {
        self.0.epoch.elapsed().as_micros() as u64
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.0.metrics
    }

    /// The cell publishing real processor `proc`'s currently-active
    /// `(superstep, phase)`. Cells are created on first use; resolve
    /// once and keep the `Arc` on hot paths (the io engine does this at
    /// construction).
    pub fn phase_cell(&self, proc: u64) -> Arc<PhaseCell> {
        Arc::clone(self.0.phases.lock().unwrap().entry(proc).or_default())
    }

    /// Enter a span: publishes `(superstep, phase)` to `proc`'s phase
    /// cell and, when the returned guard drops, records the span and
    /// its duration (into the `cgmio_phase_us{phase=…}` histogram).
    pub fn span(&self, proc: u64, superstep: u64, phase: Phase) -> SpanScope {
        let cell = self.phase_cell(proc);
        let prev = cell.set(superstep, phase);
        SpanScope { obs: self.clone(), cell, proc, superstep, phase, start_us: self.now_us(), prev }
    }

    /// Completed spans currently retained by the ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.0.spans.snapshot()
    }

    /// Spans dropped because the ring filled (0 in healthy runs).
    pub fn spans_dropped(&self) -> u64 {
        self.0.spans.dropped()
    }

    /// Point-in-time export of every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.0.metrics.snapshot()
    }

    /// The `n` longest retained spans, longest first — the "slowest
    /// spans" table of the run report.
    pub fn top_spans(&self, n: usize) -> Vec<SpanRecord> {
        let mut spans = self.spans();
        spans.sort_by_key(|s| std::cmp::Reverse(s.duration_us()));
        spans.truncate(n);
        spans
    }
}

/// RAII guard returned by [`Obs::span`]; records the span when dropped
/// and restores the previously-active phase (spans nest).
#[derive(Debug)]
pub struct SpanScope {
    obs: Obs,
    cell: Arc<PhaseCell>,
    proc: u64,
    superstep: u64,
    phase: Phase,
    start_us: u64,
    prev: u64,
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let end_us = self.obs.now_us();
        self.obs.0.spans.push(SpanRecord {
            proc: self.proc,
            superstep: self.superstep,
            phase: self.phase,
            start_us: self.start_us,
            end_us,
        });
        self.obs
            .0
            .metrics
            .histogram("cgmio_phase_us", &[("phase", self.phase.name().to_string())])
            .observe(end_us.saturating_sub(self.start_us));
        self.cell.restore(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_scope_publishes_and_restores_phase() {
        let obs = Obs::new();
        assert_eq!(obs.phase_cell(2).get(), (0, Phase::None));
        {
            let _outer = obs.span(2, 5, Phase::Rounds);
            assert_eq!(obs.phase_cell(2).get(), (5, Phase::Rounds));
            {
                let _inner = obs.span(2, 5, Phase::Route);
                assert_eq!(obs.phase_cell(2).get(), (5, Phase::Route));
            }
            assert_eq!(obs.phase_cell(2).get(), (5, Phase::Rounds));
        }
        assert_eq!(obs.phase_cell(2).get(), (0, Phase::None));
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, Phase::Route); // inner dropped first
        assert_eq!(spans[1].phase, Phase::Rounds);
    }

    #[test]
    fn span_durations_feed_phase_histogram() {
        let obs = Obs::new();
        drop(obs.span(0, 1, Phase::Barrier));
        let snap = obs.snapshot();
        match snap.get("cgmio_phase_us", &[("phase", "barrier")]) {
            Some(SampleValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("missing phase histogram: {other:?}"),
        }
    }

    #[test]
    fn top_spans_sorted_by_duration() {
        let obs = Obs::new();
        // Fabricate spans through the ring via scopes of increasing
        // (non-deterministic but ordered-enough) durations is flaky;
        // instead check ordering logic on zero-duration spans by count.
        for i in 0..5 {
            drop(obs.span(0, i, Phase::Rounds));
        }
        assert_eq!(obs.top_spans(3).len(), 3);
        assert_eq!(obs.top_spans(100).len(), 5);
    }

    #[test]
    fn phase_cells_are_independent_per_proc() {
        let obs = Obs::new();
        let _a = obs.span(0, 4, Phase::CtxLoad);
        let _b = obs.span(1, 7, Phase::MatrixWrite);
        assert_eq!(obs.phase_cell(0).get(), (4, Phase::CtxLoad));
        assert_eq!(obs.phase_cell(1).get(), (7, Phase::MatrixWrite));
        assert_eq!(obs.phase_cell(2).get(), (0, Phase::None));
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::with_options(16, &[("run", "seq")]);
        let clone = obs.clone();
        clone.metrics().counter("c", &[]).inc();
        assert_eq!(obs.snapshot().get("c", &[("run", "seq")]), Some(&SampleValue::Counter(1)));
        drop(clone.span(1, 2, Phase::CtxLoad));
        assert_eq!(obs.spans().len(), 1);
    }
}
