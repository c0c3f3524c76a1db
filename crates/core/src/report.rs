//! Run reports: the measured quantities the paper's theorems and
//! experiments are stated in.

use std::time::Duration;

use cgmio_io::TraceEvent;
use cgmio_model::CommCosts;
use cgmio_pdm::{DiskGeometry, DiskTimingModel, FaultCounts, IoStats};

/// Parallel-I/O operation counts split by purpose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoBreakdown {
    /// Operations writing the initial contexts: 0, superstep 0 takes the
    /// input (kept for manifests, svc `report.json` and the benchmark).
    pub setup_ops: u64,
    /// Context swap operations (steps (a)/(e)).
    pub ctx_ops: u64,
    /// Message matrix operations (steps (b)/(d)).
    pub msg_ops: u64,
    /// Operations reading the final contexts back: 0, the last superstep
    /// keeps them (kept like [`Self::setup_ops`]).
    pub readout_ops: u64,
}

impl IoBreakdown {
    /// Operations charged to the algorithm proper: context swaps and
    /// message traffic.
    pub fn algorithm_ops(&self) -> u64 {
        self.ctx_ops + self.msg_ops
    }
}

/// Full report of an EM-CGM run.
#[derive(Debug, Clone)]
pub struct EmRunReport {
    /// h-relation accounting (identical in shape to the in-memory
    /// runners').
    pub costs: CommCosts,
    /// Aggregated disk counters over all real processors.
    pub io: IoStats,
    /// Operation counts by purpose (aggregated).
    pub breakdown: IoBreakdown,
    /// Disk geometry per real processor.
    pub geometry: DiskGeometry,
    /// Real processors used.
    pub p: usize,
    /// Virtual processors simulated.
    pub v: usize,
    /// Peak internal memory used to simulate any one group of
    /// `EmConfig::vp_group` virtual processors: their contexts, inboxes
    /// and outboxes, and the open message blocks and context carries
    /// held beside them, in bytes.
    pub peak_mem_bytes: usize,
    /// Largest open-block pool a worker held between message writes
    /// (`p = 1`; 0 at `p ≥ 2`), bytes — part of [`Self::peak_mem_bytes`].
    /// Like [`Self::retries`], it covers only the portion of a run since
    /// its last resume.
    pub peak_open_bytes: usize,
    /// Context blocks step (e) did not write because their bytes were
    /// those read in step (a). Like [`Self::peak_open_bytes`], it covers
    /// only the portion of a run since its last resume.
    pub ctx_blocks_kept: u64,
    /// Context blocks step (e) held back for a later group's write list
    /// (the write carry, `crate::context`). Covered like
    /// [`Self::ctx_blocks_kept`].
    pub ctx_blocks_carried: u64,
    /// Context blocks step (a) read in the previous group's list (the
    /// read fill). Covered like [`Self::ctx_blocks_kept`].
    pub ctx_blocks_preread: u64,
    /// Items that crossed a real-processor boundary (0 for Algorithm 2).
    pub cross_thread_items: u64,
    /// Wall-clock time of the superstep loop.
    pub wall: Duration,
    /// Physical I/O event trace, when the run used a
    /// `BackendSpec::Concurrent` backend with `opts.trace` set (empty
    /// otherwise). For `p > 1` the traces of all real processors are
    /// concatenated; `TraceEvent::proc` tells them apart.
    pub io_trace: Vec<TraceEvent>,
    /// Faults injected during this run, aggregated over all real
    /// processors' injectors — present iff `EmConfig::fault` was set.
    /// `None` also for the portion of a run executed before an
    /// in-process resume (the handles do not travel with checkpoints).
    pub faults: Option<FaultCounts>,
    /// Transient-fault retries performed by the storage stack during
    /// this run (drive workers and `RetryStorage` combined). Recovery
    /// traffic only — never part of [`Self::io`].
    pub retries: u64,
    /// Deferred write-behind errors the concurrent engine discarded
    /// because its bounded retained-error list was already full. The
    /// run still fails with the first retained error; a non-zero count
    /// here means the full failure set was wider than what the error
    /// message enumerates (each drop also leaves a `write_error_dropped`
    /// event in [`Self::io_trace`]). Always zero for sync backends.
    pub deferred_write_errors_dropped: u64,
}

impl EmRunReport {
    /// Fold another real processor's share of the run into this one:
    /// I/O, op breakdown and recovery totals add, the memory peak and
    /// the loop wall-clock take the maximum, trace events concatenate.
    pub(crate) fn absorb(&mut self, other: EmRunReport) {
        self.faults = match (self.faults, other.faults) {
            (Some(a), Some(b)) => Some(a.merged(b)),
            (a, b) => a.or(b),
        };
        self.io.merge(&other.io);
        self.breakdown.setup_ops += other.breakdown.setup_ops;
        self.breakdown.ctx_ops += other.breakdown.ctx_ops;
        self.breakdown.msg_ops += other.breakdown.msg_ops;
        self.breakdown.readout_ops += other.breakdown.readout_ops;
        self.peak_mem_bytes = self.peak_mem_bytes.max(other.peak_mem_bytes);
        self.peak_open_bytes = self.peak_open_bytes.max(other.peak_open_bytes);
        self.ctx_blocks_kept += other.ctx_blocks_kept;
        self.ctx_blocks_carried += other.ctx_blocks_carried;
        self.ctx_blocks_preread += other.ctx_blocks_preread;
        self.wall = self.wall.max(other.wall);
        self.io_trace.extend(other.io_trace);
        self.retries += other.retries;
        self.deferred_write_errors_dropped += other.deferred_write_errors_dropped;
    }

    /// Per-real-processor parallel I/O count — the paper's I/O
    /// complexity measure (`t_io / G`). Operations are aggregated over
    /// real processors and divided by `p`, since the `p` arrays operate
    /// concurrently.
    pub fn io_ops_per_proc(&self) -> f64 {
        self.breakdown.algorithm_ops() as f64 / self.p as f64
    }

    /// Modelled I/O wall-time in microseconds for a given disk timing
    /// model (`G` times the op count, with the `p` processors' disk
    /// arrays operating concurrently).
    pub fn io_time_us(&self, model: &DiskTimingModel) -> f64 {
        self.io_ops_per_proc() * model.op_time_us(self.geometry.block_bytes)
    }

    /// The paper's headline prediction for one round of simulated
    /// h-relation: `O(N/(pDB))` parallel I/Os. Returns the measured
    /// ratio `io_ops_per_proc / (total_items·item_bytes/(p·D·B))` — a
    /// constant (independent of N, D, B, p) when the simulation achieves
    /// its bound.
    pub fn ops_vs_linear_bound(&self, total_items: u64, item_bytes: usize) -> f64 {
        let linear = (total_items as f64 * item_bytes as f64)
            / (self.p as f64 * self.geometry.num_disks as f64 * self.geometry.block_bytes as f64);
        if linear == 0.0 {
            f64::INFINITY
        } else {
            self.io_ops_per_proc() / linear
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> EmRunReport {
        EmRunReport {
            costs: CommCosts::default(),
            io: IoStats::new(2),
            breakdown: IoBreakdown { setup_ops: 10, ctx_ops: 30, msg_ops: 50, readout_ops: 5 },
            geometry: DiskGeometry::new(2, 100),
            p: 2,
            v: 8,
            peak_mem_bytes: 1234,
            peak_open_bytes: 0,
            ctx_blocks_kept: 0,
            ctx_blocks_carried: 0,
            ctx_blocks_preread: 0,
            cross_thread_items: 0,
            wall: Duration::ZERO,
            io_trace: Vec::new(),
            faults: None,
            retries: 0,
            deferred_write_errors_dropped: 0,
        }
    }

    #[test]
    fn algorithm_ops_excludes_setup_and_readout() {
        let r = report();
        assert_eq!(r.breakdown.algorithm_ops(), 80);
        assert_eq!(r.io_ops_per_proc(), 40.0);
    }

    #[test]
    fn linear_bound_ratio() {
        let r = report();
        // N = 1000 items of 8 bytes: linear = 8000/(2*2*100) = 20 ops
        let ratio = r.ops_vs_linear_bound(1000, 8);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn io_time_uses_model() {
        let r = report();
        let m = DiskTimingModel { position_us: 0.0, bandwidth_bytes_per_us: 100.0 };
        assert!((r.io_time_us(&m) - 40.0 * 1.0).abs() < 1e-9);
    }
}
