//! Algorithm 3 — *ParCompoundSuperstep*: simulating a `v`-processor CGM
//! on a `p`-processor EM-CGM. Each real processor (an OS thread here)
//! owns a `D`-disk array and simulates a contiguous block of `v/p`
//! virtual processors: steps (a), (b), (c) and (e) are Algorithm 2's
//! against the *local* disks; step (d) ships the generated messages
//! over the real interconnect to the destination's owner, which
//! arranges them in memory and writes them to *its* disks' mailboxes —
//! in sorted `(dst, src)` order, so final states and
//! I/O counts do not depend on thread scheduling.
//!
//! [`ParEmRunner`] is a facade over the crate's one superstep executor
//! (`exec.rs`), which runs `p ≤ v` workers. At `p = 1` that is
//! Algorithm 2 itself — the code path, and hence every I/O count, of
//! [`crate::SeqEmRunner`].

use cgmio_model::CgmProgram;

use crate::checkpoint::{Checkpoint, CheckpointManifest, RunOutcome};
use crate::config::EmConfig;
use crate::exec::{self, Start};
use crate::report::EmRunReport;
use crate::EmError;

/// Multi-processor external-memory runner (Algorithm 3).
#[derive(Debug, Clone)]
pub struct ParEmRunner {
    /// Machine configuration (`p` real processors, each with its own
    /// disk array).
    pub config: EmConfig,
}

impl ParEmRunner {
    /// Create a runner for the given configuration.
    pub fn new(config: EmConfig) -> Self {
        Self { config }
    }

    /// Run `prog` from the given initial states across `p` real
    /// processors. Semantics and final states are identical to
    /// [`crate::SeqEmRunner`] and the in-memory runners.
    ///
    /// If [`EmConfig::halt_after_superstep`] is set this returns
    /// [`EmError::Interrupted`]; use [`Self::run_until`] to receive the
    /// checkpoint instead.
    pub fn run<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, EmRunReport), EmError> {
        self.run_until(prog, states)?.completed()
    }

    /// Like [`Self::run`], but an [`EmConfig::halt_after_superstep`]
    /// interruption is a normal outcome carrying the checkpoint (with
    /// all `p` live disk arrays).
    pub fn run_until<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        exec::drive(&self.config, self.config.p, prog, Start::Fresh(states))
    }

    /// Resume an interrupted run in-process: each worker continues on
    /// the live disk array the checkpoint carries. Works with every
    /// backend, including the non-persistent `Mem` one.
    pub fn resume<P: CgmProgram>(
        &self,
        prog: &P,
        ckpt: Checkpoint,
    ) -> Result<RunOutcome<P::State>, EmError> {
        exec::drive(
            &self.config,
            self.config.p,
            prog,
            Start::Resume(ckpt.manifest, Some(ckpt.disks)),
        )
    }

    /// Resume from a saved manifest, rebuilding each worker's disk array
    /// from [`Self::config`] — the crash-recovery path. The config must
    /// address the same persistent backend directories the interrupted
    /// run used; final states and aggregate I/O counts are identical to
    /// an uninterrupted run.
    pub fn resume_from<P: CgmProgram>(
        &self,
        prog: &P,
        manifest: &CheckpointManifest,
    ) -> Result<RunOutcome<P::State>, EmError> {
        exec::drive(&self.config, self.config.p, prog, Start::Resume(manifest.clone(), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_requirements;
    use crate::seq::SeqEmRunner;
    use cgmio_model::demo::{AllToAll, AllToOne, PrefixSum, TokenRing};
    use cgmio_model::DirectRunner;
    use cgmio_obs::Phase;
    use cgmio_routing::Balanced;

    fn config_for<P: CgmProgram>(
        prog: &P,
        states: Vec<P::State>,
        v: usize,
        p: usize,
        d: usize,
        bb: usize,
    ) -> EmConfig {
        let (_, _, req) = measure_requirements(prog, states).unwrap();
        EmConfig::from_requirements(v, p, d, bb, &req)
    }

    #[test]
    fn matches_direct_for_various_p() {
        let v = 8;
        let prog = AllToAll { items_per_pair: 6 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
        for p in [1usize, 2, 3, 4, 8] {
            let cfg = config_for(&prog, init(), v, p, 2, 32);
            let (got, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want, "p={p}");
            assert_eq!(rep.p, p);
            if p > 1 {
                assert!(rep.cross_thread_items > 0);
            }
        }
    }

    #[test]
    fn p1_matches_seq_runner_io_exactly() {
        // With p = 1 Algorithm 3 degenerates to Algorithm 2: same final
        // states and same I/O counts.
        let v = 6;
        let prog = AllToAll { items_per_pair: 5 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, 1, 2, 32);
        let (seq_states, seq_rep) = SeqEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();
        let (par_states, par_rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(par_states, seq_states);
        assert_eq!(par_rep.breakdown.ctx_ops, seq_rep.breakdown.ctx_ops);
        assert_eq!(par_rep.breakdown.msg_ops, seq_rep.breakdown.msg_ops);
        assert_eq!(par_rep.io.total_ops(), seq_rep.io.total_ops());
    }

    #[test]
    fn per_proc_io_drops_with_p() {
        // The paper's point: I/O time scales as v/p. Aggregated ops stay
        // roughly constant, so per-proc ops fall ~linearly in p.
        let v = 8;
        let prog = AllToAll { items_per_pair: 32 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let ops = |p: usize| {
            let cfg = config_for(&prog, init(), v, p, 2, 64);
            let (_, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
            rep.io_ops_per_proc()
        };
        let o1 = ops(1);
        let o4 = ops(4);
        assert!(o4 < o1 / 2.0, "o1={o1} o4={o4}");
    }

    #[test]
    fn balanced_program_on_parallel_em() {
        let v = 6;
        let plain = AllToOne { items_per_proc: 30 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, _) = DirectRunner::default().run(&plain, init()).unwrap();
        let bal = Balanced::new(plain);
        let cfg = config_for(&bal, init(), v, 3, 2, 64);
        let (got, _) = ParEmRunner::new(cfg).run(&bal, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn prefix_sum_on_parallel_em() {
        let v = 7;
        let init = || {
            (0..v as u64)
                .map(|i| ((0..i + 1).collect::<Vec<u64>>(), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (want, _) = DirectRunner::default().run(&PrefixSum, init()).unwrap();
        let cfg = config_for(&PrefixSum, init(), v, 3, 1, 16);
        let (got, _) = ParEmRunner::new(cfg).run(&PrefixSum, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn error_in_worker_propagates() {
        let v = 4;
        let prog = AllToOne { items_per_proc: 50 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 1, 32);
        cfg.msg_slot_items = 10;
        let e = ParEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::MsgSlotOverflow { .. }));
    }

    #[test]
    fn concurrent_backend_matches_mem_across_p() {
        // Per-worker engines (each with its own drive threads) must not
        // change results or aggregate counts for any p.
        let v = 8;
        let prog = AllToAll { items_per_pair: 6 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-par-backends");
        for p in [2usize, 3, 8] {
            let base_cfg = config_for(&prog, init(), v, p, 2, 32);
            let (want, want_rep) = ParEmRunner::new(base_cfg.clone()).run(&prog, init()).unwrap();
            let mut cfg = base_cfg.clone();
            cfg.backend = crate::BackendSpec::Concurrent {
                dir: Some(dir.path().join(format!("p{p}"))),
                opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
            };
            let (got, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want, "p={p}");
            assert_eq!(rep.io, want_rep.io, "p={p}");
            assert_eq!(rep.breakdown, want_rep.breakdown, "p={p}");
            // one trace event per physical block transfer, tagged by proc
            let summary = cgmio_io::summarize(&rep.io_trace);
            assert_eq!(summary.reads as u64, rep.io.blocks_read, "p={p}");
            assert_eq!(summary.writes as u64, rep.io.blocks_written, "p={p}");
            let procs: std::collections::BTreeSet<usize> =
                rep.io_trace.iter().map(|e| e.proc).collect();
            assert_eq!(procs.len(), p, "p={p}: every worker must contribute events");
        }
    }

    #[test]
    fn bad_backend_dir_fails_cleanly() {
        // An unopenable backend must error out, not deadlock the round
        // protocol.
        let v = 4;
        let prog = AllToAll { items_per_pair: 2 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 1, 32);
        cfg.backend = crate::BackendSpec::SyncFile {
            dir: std::path::PathBuf::from("/proc/cgmio-definitely-not-writable"),
        };
        let e = ParEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::BadConfig(_)), "got {e:?}");
    }

    #[test]
    fn obs_metrics_and_fault_counts_across_workers() {
        let v = 8;
        let prog = AllToAll { items_per_pair: 3 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, 4, 2, 32);
        let (want, want_rep) = ParEmRunner::new(cfg.clone()).run(&prog, init()).unwrap();

        let obs = cgmio_obs::Obs::new();
        let mut ocfg = cfg.clone();
        ocfg.obs = Some(obs.clone());
        // No explicit observer: each worker's injector gets its own
        // auto-attached FaultStats and the coordinator sums them.
        ocfg.fault = Some(cgmio_pdm::FaultPlan::transient(7, 0.05));
        ocfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
        let (got, rep) = ParEmRunner::new(ocfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.io, want_rep.io, "obs + faults must not change counted I/O");
        let f = rep.faults.expect("fault plan set, counts must be reported");
        assert!(f.total_errors() > 0, "no faults were injected");
        assert_eq!(rep.retries, f.read_transient + f.write_transient + f.torn_writes);

        // Spans from every worker (proc label) and the phase taxonomy.
        let spans = obs.spans();
        for t in 0..4u64 {
            assert!(spans.iter().any(|s| s.proc == t), "no spans from worker {t}");
        }
        for ph in [Phase::Setup, Phase::CtxLoad, Phase::MatrixRead, Phase::Route, Phase::Barrier] {
            assert!(spans.iter().any(|s| s.phase == ph), "missing phase {ph:?}");
        }
        // Retries surfaced as metrics too, labelled per real processor.
        let snap = obs.metrics().snapshot();
        let total: u64 = (0..4)
            .filter_map(|t| snap.get("cgmio_io_retries_total", &[("proc", &t.to_string())]))
            .map(|m| match m {
                cgmio_obs::SampleValue::Counter(n) => *n,
                other => panic!("retries series is not a counter: {other:?}"),
            })
            .sum();
        assert_eq!(total, rep.retries);
    }

    #[test]
    fn token_ring_multi_round_on_parallel_em() {
        let v = 6;
        let prog = TokenRing { rounds: 7 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
        let cfg = config_for(&prog, init(), v, 3, 2, 16);
        let (got, rep) = ParEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.costs.lambda(), 7);
    }
}
