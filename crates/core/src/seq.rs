//! Algorithm 2 — *SeqCompoundSuperstep*: simulating a `v`-processor CGM
//! on a single real processor with `D` disks. Per compound superstep,
//! for each virtual processor in turn: **(a)** read its context
//! (consecutive format) and **(b)** the packets it received (its
//! mailbox) as one gather list, **(c)** simulate its computation,
//! **(d)** append the packets it sent to their destinations' mailboxes
//! (one gather list), **(e)** write the changed context back.
//!
//! [`SeqEmRunner`] is a facade over the crate's one superstep executor
//! (`exec.rs`), of which Algorithm 2 is the `p = 1` case: one worker on
//! the caller's thread whose step (d) goes straight to the next message
//! matrix. By construction it is the same code, with the same I/O
//! counts, as [`crate::ParEmRunner`] at `p = 1`.

use cgmio_model::CgmProgram;

use crate::checkpoint::{Checkpoint, CheckpointManifest, RunOutcome};
use crate::config::EmConfig;
use crate::exec::{self, Start};
use crate::report::EmRunReport;
use crate::EmError;

/// Single-processor external-memory runner (Algorithm 2).
#[derive(Debug, Clone)]
pub struct SeqEmRunner {
    /// Machine configuration; `p` is ignored (always 1).
    pub config: EmConfig,
}

impl SeqEmRunner {
    /// Create a runner for the given configuration.
    pub fn new(config: EmConfig) -> Self {
        Self { config }
    }

    /// Run `prog` from the given initial states; returns final states
    /// and the full report. The disks are created fresh; the initial and
    /// final states never touch them (no set-up or readout pass).
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
    /// interruption is a normal outcome carrying the checkpoint.
    pub fn run_until<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<RunOutcome<P::State>, EmError> {
        exec::drive(&self.config, 1, prog, Start::Fresh(states))
    }

    /// Resume an interrupted run in-process: continue on the same live
    /// disk arrays the checkpoint carries. Works with every backend,
    /// including the non-persistent `Mem` one.
    pub fn resume<P: CgmProgram>(
        &self,
        prog: &P,
        ckpt: Checkpoint,
    ) -> Result<RunOutcome<P::State>, EmError> {
        exec::drive(&self.config, 1, prog, Start::Resume(ckpt.manifest, Some(ckpt.disks)))
    }

    /// Resume from a saved manifest, rebuilding the disk arrays from
    /// [`Self::config`] — the crash-recovery path. The config must
    /// address the same persistent backend directory the interrupted run
    /// used; the run replays from the superstep after the manifest's and
    /// produces final states and I/O counts **identical** to an
    /// uninterrupted run.
    ///
    /// ```
    /// use cgmio_core::{
    ///     measure_requirements, BackendSpec, CheckpointManifest, EmConfig, RunOutcome,
    ///     SeqEmRunner,
    /// };
    /// use cgmio_model::demo::TokenRing;
    ///
    /// let prog = TokenRing { rounds: 4 };
    /// let init = || (0..3u64).map(|i| vec![i]).collect::<Vec<_>>();
    /// let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    ///
    /// let dir = cgmio_pdm::testutil::TempDir::new("cgmio-doc-resume");
    /// let mut cfg = EmConfig::from_requirements(3, 1, 2, 32, &req);
    /// cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
    /// cfg.checkpoint_dir = Some(dir.path().to_path_buf());
    /// cfg.halt_after_superstep = Some(1); // simulate a crash after superstep 1
    ///
    /// match SeqEmRunner::new(cfg.clone()).run_until(&prog, init()).unwrap() {
    ///     RunOutcome::Interrupted(ckpt) => assert_eq!(ckpt.manifest.superstep, 1),
    ///     RunOutcome::Complete { .. } => unreachable!(),
    /// }
    ///
    /// // "New process": load the manifest, rebuild from the same config.
    /// let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
    /// cfg.halt_after_superstep = None;
    /// let (finals, report) =
    ///     SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap().expect_complete();
    /// assert_eq!(finals.len(), 3);
    /// assert_eq!(report.costs.lambda(), 4); // pre- and post-resume rounds all accounted
    /// ```
    pub fn resume_from<P: CgmProgram>(
        &self,
        prog: &P,
        manifest: &CheckpointManifest,
    ) -> Result<RunOutcome<P::State>, EmError> {
        exec::drive(&self.config, 1, prog, Start::Resume(manifest.clone(), None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_requirements;
    use cgmio_model::demo::{AllToAll, AllToOne, PrefixSum, TokenRing};
    use cgmio_model::DirectRunner;
    use cgmio_obs::Phase;
    use cgmio_routing::Balanced;

    fn config_for<P: CgmProgram>(
        prog: &P,
        states: Vec<P::State>,
        v: usize,
        d: usize,
        bb: usize,
    ) -> EmConfig {
        let (_, _, req) = measure_requirements(prog, states).unwrap();
        EmConfig::from_requirements(v, 1, d, bb, &req)
    }

    #[test]
    fn matches_direct_on_all_to_all() {
        let v = 6;
        let prog = AllToAll { items_per_pair: 7 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, want_costs) = DirectRunner::default().run(&prog, init()).unwrap();
        for d in [1usize, 2, 4] {
            let cfg = config_for(&prog, init(), v, d, 32);
            let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want, "D={d}");
            assert_eq!(rep.costs.lambda(), want_costs.lambda());
            assert_eq!(rep.costs.max_h(), want_costs.max_h());
            assert!(rep.breakdown.msg_ops > 0);
            assert!(rep.breakdown.ctx_ops > 0);
        }
    }

    #[test]
    fn matches_direct_on_prefix_sum() {
        let v = 5;
        let init = || {
            (0..v as u64)
                .map(|i| ((0..=i).map(|x| x * x).collect::<Vec<u64>>(), Vec::new()))
                .collect::<Vec<_>>()
        };
        let (want, _) = DirectRunner::default().run(&PrefixSum, init()).unwrap();
        let cfg = config_for(&PrefixSum, init(), v, 2, 16);
        let (got, _) = SeqEmRunner::new(cfg).run(&PrefixSum, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_direct_on_token_ring_many_rounds() {
        let v = 4;
        let prog = TokenRing { rounds: 9 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (want, _) = DirectRunner::default().run(&prog, init()).unwrap();
        let cfg = config_for(&prog, init(), v, 2, 16);
        let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.costs.lambda(), 9);
    }

    #[test]
    fn balanced_wrapper_runs_in_em() {
        let v = 6;
        let plain = AllToOne { items_per_proc: 24 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (want, _) = DirectRunner::default().run(&plain, init()).unwrap();
        let bal = Balanced::new(plain);
        let cfg = config_for(&bal, init(), v, 2, 64);
        let (got, _) = SeqEmRunner::new(cfg).run(&bal, init()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn slot_overflow_is_reported() {
        let v = 4;
        let prog = AllToOne { items_per_proc: 50 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 1, 32);
        cfg.msg_slot_items = 10; // too small for the 50-item message
        let e = SeqEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::MsgSlotOverflow { len: 50, slot: 10, .. }));
    }

    #[test]
    fn strict_memory_bound_enforced() {
        let v = 4;
        let prog = AllToAll { items_per_pair: 16 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 1, 32);
        cfg.strict = true;
        cfg.mem_bytes = cfg.num_disks * cfg.block_bytes; // absurdly small but structurally valid
        let e = SeqEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert!(matches!(e, EmError::MemoryExceeded { .. }));
    }

    #[test]
    fn io_scales_linearly_in_data_not_superlinearly() {
        // Doubling N should roughly double algorithm I/O ops (the
        // O(N/(DB)) claim), not more.
        let v = 4;
        let d = 2;
        let run = |items: usize| {
            let prog = AllToAll { items_per_pair: items };
            let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
            let cfg = config_for(&prog, init(), v, d, 64);
            let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
            rep.breakdown.algorithm_ops()
        };
        let small = run(64);
        let big = run(128);
        assert!(big <= small * 2 + 8, "small={small} big={big}");
        assert!(big >= small, "small={small} big={big}");
    }

    #[test]
    fn concurrent_backend_matches_mem_exactly() {
        // The asynchronous pipeline (read-ahead + write-behind) must not
        // change results, I/O counts, or the op breakdown — only
        // wall-clock behaviour.
        let v = 6;
        let prog = AllToAll { items_per_pair: 7 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let base_cfg = config_for(&prog, init(), v, 2, 32);
        let (want, want_rep) = SeqEmRunner::new(base_cfg.clone()).run(&prog, init()).unwrap();

        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-seq-backends");
        let backends = [
            crate::BackendSpec::SyncFile { dir: dir.path().join("sync") },
            crate::BackendSpec::Concurrent { dir: None, opts: Default::default() },
            crate::BackendSpec::Concurrent {
                dir: Some(dir.path().join("conc")),
                opts: cgmio_io::IoEngineOpts {
                    durability: cgmio_io::Durability::SyncPerSuperstep,
                    trace: true,
                    ..Default::default()
                },
            },
        ];
        for backend in backends {
            let mut cfg = base_cfg.clone();
            cfg.backend = backend;
            let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
            assert_eq!(got, want);
            assert_eq!(rep.io, want_rep.io);
            assert_eq!(rep.breakdown, want_rep.breakdown);
        }
    }

    #[test]
    fn concurrent_backend_emits_trace() {
        let v = 4;
        let prog = AllToAll { items_per_pair: 4 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 32);
        cfg.backend = crate::BackendSpec::Concurrent {
            dir: None,
            opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
        };
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        let summary = cgmio_io::summarize(&rep.io_trace);
        // every counted block transfer appears as a physical event
        assert_eq!(summary.reads as u64, rep.io.blocks_read);
        assert_eq!(summary.writes as u64, rep.io.blocks_written);
        assert!(summary.prefetches > 0, "read-ahead hints must reach the engine");
        assert!(summary.cache_hits > 0, "prefetched blocks must satisfy demand reads");
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let v = 4;
        let prog = TokenRing { rounds: 4 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let mut cfg = config_for(&prog, init(), v, 2, 16);
        cfg.halt_after_superstep = Some(1);
        let ckpt = match SeqEmRunner::new(cfg.clone()).run_until(&prog, init()).unwrap() {
            RunOutcome::Interrupted(c) => c,
            RunOutcome::Complete { .. } => panic!("expected halt"),
        };
        let mut other = cfg.clone();
        other.block_bytes = 32; // different layout
        let e = SeqEmRunner::new(other).resume(&prog, ckpt).unwrap_err();
        assert!(matches!(e, EmError::BadConfig(_)), "got {e:?}");
    }

    #[test]
    fn run_maps_halt_to_interrupted_error() {
        let v = 4;
        let prog = TokenRing { rounds: 4 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let mut cfg = config_for(&prog, init(), v, 2, 16);
        cfg.halt_after_superstep = Some(1);
        let e = SeqEmRunner::new(cfg).run(&prog, init()).unwrap_err();
        assert_eq!(e, EmError::Interrupted { superstep: 1 });
    }

    #[test]
    fn fault_counts_reported_without_explicit_observer() {
        let v = 4;
        let prog = AllToAll { items_per_pair: 5 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let mut cfg = config_for(&prog, init(), v, 2, 32);
        cfg.fault = Some(cgmio_pdm::FaultPlan::transient(9, 0.05));
        cfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        let f = rep.faults.expect("fault plan set => counts reported");
        assert!(f.total_errors() > 0);
        assert_eq!(rep.retries, f.read_transient + f.write_transient + f.torn_writes);
    }

    #[test]
    fn obs_spans_and_metrics_leave_io_stats_untouched() {
        let v = 5;
        let prog = AllToAll { items_per_pair: 6 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let base_cfg = config_for(&prog, init(), v, 2, 32);
        let (want, want_rep) = SeqEmRunner::new(base_cfg.clone()).run(&prog, init()).unwrap();

        let obs = cgmio_obs::Obs::new();
        let mut cfg = base_cfg.clone();
        cfg.obs = Some(obs.clone());
        cfg.backend = crate::BackendSpec::Concurrent {
            dir: None,
            opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
        };
        let (got, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert_eq!(got, want);
        assert_eq!(rep.io, want_rep.io, "observability must not change accounting");
        assert_eq!(rep.breakdown, want_rep.breakdown);

        // Every instrumented phase of the superstep loop left spans…
        let phases: std::collections::BTreeSet<Phase> =
            obs.spans().iter().map(|s| s.phase).collect();
        for ph in [
            Phase::Setup,
            Phase::CtxLoad,
            Phase::MatrixRead,
            Phase::Rounds,
            Phase::MatrixWrite,
            Phase::Barrier,
            Phase::Readout,
        ] {
            assert!(phases.contains(&ph), "missing {ph} span");
        }
        // …and the trace events carry runner-published phases.
        assert!(
            rep.io_trace.iter().any(|e| e.phase == Phase::MatrixWrite),
            "trace events must be stamped with the active phase"
        );
        // Per-drive service histograms landed in the registry.
        let snap = obs.snapshot();
        assert!(
            snap.get("cgmio_io_service_us", &[("drive", "0"), ("kind", "write"), ("proc", "0")])
                .is_some(),
            "per-drive service histogram missing"
        );
    }

    #[test]
    fn fully_parallel_io_with_balanced_traffic() {
        // With equal-size block-multiple messages and contexts, nearly
        // every op should use all D disks.
        let v = 4;
        let d = 4;
        let prog = AllToAll { items_per_pair: 8 }; // 64-byte msgs = 2 blocks of 32
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let cfg = config_for(&prog, init(), v, d, 32);
        let (_, rep) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
        assert!(
            rep.io.parallel_efficiency() > 0.5,
            "efficiency = {}",
            rep.io.parallel_efficiency()
        );
    }
}
