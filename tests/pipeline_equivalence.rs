//! The software-pipelined superstep executor must be *observably
//! invisible* at every depth: final states, `IoStats`, op breakdowns,
//! checkpoint manifests, trace op counts, and fault/retry totals have
//! to be bit-identical whether group reads are demand-issued (depth 0)
//! or pre-issued up to `pipeline_depth` groups ahead — across every
//! backend, both EM runners and every group size `vp_group`, including
//! kill-and-resume at a mid-run barrier.

use cgmio_algos::CgmSort;
use cgmio_core::{
    measure_requirements, BackendSpec, CheckpointManifest, EmConfig, ParEmRunner, RunOutcome,
    SeqEmRunner,
};
use cgmio_data as data;
use cgmio_model::demo::TokenRing;
use proptest::prelude::*;

type SortState = (Vec<u64>, Vec<u64>);

const DEPTHS: [usize; 3] = [0, 1, 4];

/// Group sizes swept by every check (`vp_group`).
const GROUPS: [usize; 3] = [1, 2, 3];

fn sort_states(keys: &[u64], v: usize) -> Vec<SortState> {
    data::block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
}

fn sort_config(keys: &[u64], v: usize, d: usize, bb: usize) -> EmConfig {
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, sort_states(keys, v)).unwrap();
    EmConfig::from_requirements(v, 1, d, bb, &req)
}

fn backends(dir: &cgmio_pdm::testutil::TempDir, tag: &str) -> Vec<BackendSpec> {
    vec![
        BackendSpec::Mem,
        BackendSpec::SyncFile { dir: dir.path().join(format!("sync-{tag}")) },
        BackendSpec::Concurrent { dir: None, opts: Default::default() },
    ]
}

/// Finals, IoStats, and op breakdowns agree across pipeline depths
/// {0, 1, 4} × {Mem, SyncFile, Concurrent} × both runners, for every
/// group size.
#[test]
fn depths_invisible_across_backends_and_runners() {
    let keys = data::uniform_u64(3000, 17);
    let v = 6;
    let dir = cgmio_pdm::testutil::TempDir::new("cgmio-pipe-eq");
    for k in GROUPS {
        let mut base = sort_config(&keys, v, 2, 64);
        base.vp_group = k;
        depths_invisible_at(&keys, v, &base, &dir, &format!("k{k}"));
    }
}

fn depths_invisible_at(
    keys: &[u64],
    v: usize,
    base: &EmConfig,
    dir: &cgmio_pdm::testutil::TempDir,
    k: &str,
) {
    let prog = CgmSort::<u64>::by_pivots();
    let (want, want_rep) = SeqEmRunner::new(base.clone()).run(&prog, sort_states(keys, v)).unwrap();
    let par_base = {
        let mut cfg = base.clone();
        cfg.p = 2;
        cfg
    };
    let (pwant, pwant_rep) =
        ParEmRunner::new(par_base.clone()).run(&prog, sort_states(keys, v)).unwrap();
    assert_eq!(pwant, want, "{k}: par and seq must agree before depth enters the picture");

    for (tag, depth) in DEPTHS.into_iter().enumerate() {
        for backend in backends(dir, &format!("seq{tag}{k}")) {
            let mut cfg = base.clone();
            cfg.pipeline_depth = depth;
            cfg.backend = backend.clone();
            let (got, rep) = SeqEmRunner::new(cfg).run(&prog, sort_states(keys, v)).unwrap();
            assert_eq!(got, want, "{k} seq depth={depth} {backend:?}: finals differ");
            assert_eq!(rep.io, want_rep.io, "{k} seq depth={depth} {backend:?}: IoStats differ");
            assert_eq!(
                rep.breakdown, want_rep.breakdown,
                "{k} seq depth={depth} {backend:?}: breakdown differs"
            );
        }
        for backend in backends(dir, &format!("par{tag}{k}")) {
            let mut cfg = par_base.clone();
            cfg.pipeline_depth = depth;
            cfg.backend = backend.clone();
            let (got, rep) = ParEmRunner::new(cfg).run(&prog, sort_states(keys, v)).unwrap();
            assert_eq!(got, pwant, "{k} par depth={depth} {backend:?}: finals differ");
            assert_eq!(rep.io, pwant_rep.io, "{k} par depth={depth} {backend:?}: IoStats differ");
            assert_eq!(
                rep.breakdown, pwant_rep.breakdown,
                "{k} par depth={depth} {backend:?}: breakdown differs"
            );
        }
    }
}

/// Checkpoint manifests written at every barrier are bit-identical at
/// every pipeline depth: priming happens strictly after the previous
/// round's barrier and checkpoint decision, so no charge leaks across.
#[test]
fn manifests_identical_across_depths() {
    let keys = data::uniform_u64(1200, 7);
    let v = 4;
    let prog = CgmSort::<u64>::by_pivots();
    let base = sort_config(&keys, v, 2, 64);

    let manifest_at = |depth: usize, p: usize, halt: usize, k: usize| -> CheckpointManifest {
        let mut cfg = base.clone();
        cfg.vp_group = k;
        cfg.pipeline_depth = depth;
        cfg.p = p;
        cfg.backend = BackendSpec::Concurrent { dir: None, opts: Default::default() };
        cfg.halt_after_superstep = Some(halt);
        let run = if p == 1 {
            SeqEmRunner::new(cfg).run_until(&prog, sort_states(&keys, v)).unwrap()
        } else {
            ParEmRunner::new(cfg).run_until(&prog, sort_states(&keys, v)).unwrap()
        };
        match run {
            RunOutcome::Interrupted(c) => c.manifest,
            RunOutcome::Complete { .. } => panic!("expected halt at {halt}"),
        }
    };
    for (p, k) in [1usize, 2].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        for halt in [0usize, 1] {
            let want = manifest_at(0, p, halt, k);
            for depth in [1usize, 4] {
                assert_eq!(
                    manifest_at(depth, p, halt, k),
                    want,
                    "p={p} k={k} halt={halt} depth={depth}: manifest differs"
                );
            }
        }
    }
}

/// Injected-fault and retry totals are depth-invariant: the injector
/// keys rolls per (drive, track), and the pipeline preserves per-track
/// access order even when it interleaves tracks.
#[test]
fn fault_and_retry_totals_identical_across_depths() {
    let keys = data::uniform_u64(2000, 23);
    let v = 6;
    let prog = CgmSort::<u64>::by_pivots();
    let base = sort_config(&keys, v, 2, 64);

    let backends =
        [BackendSpec::Mem, BackendSpec::Concurrent { dir: None, opts: Default::default() }];
    for (backend, k) in backends.into_iter().flat_map(|b| GROUPS.map(|k| (b.clone(), k))) {
        let mut want: Option<_> = None;
        for depth in DEPTHS {
            let mut cfg = base.clone();
            cfg.vp_group = k;
            cfg.pipeline_depth = depth;
            cfg.backend = backend.clone();
            cfg.fault = Some(cgmio_pdm::FaultPlan::transient(41, 0.04));
            cfg.retry = cgmio_io::RetryPolicy { max_attempts: 8, base_backoff_us: 0 };
            let (got, rep) = SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap();
            let faults = rep.faults.expect("fault plan set => counts reported");
            assert!(faults.total_errors() > 0, "{backend:?}: no faults injected");
            let key = (got, rep.io.clone(), faults, rep.retries);
            match &want {
                None => want = Some(key),
                Some(w) => {
                    let at = format!("{backend:?} k={k} depth={depth}");
                    assert_eq!(&key.0, &w.0, "{at}: finals differ");
                    assert_eq!(&key.1, &w.1, "{at}: IoStats differ");
                    assert_eq!(&key.2, &w.2, "{at}: fault counts differ");
                    assert_eq!(key.3, w.3, "{at}: retries differ");
                }
            }
        }
    }
}

/// Kill-and-resume at a mid-run barrier replays to the same finals and
/// cumulative I/O as an uninterrupted run, at every depth and on both
/// runners (crash-recovery path: manifest + rebuilt disks).
#[test]
fn kill_and_resume_matches_uninterrupted_at_every_depth() {
    let v = 4;
    let prog = TokenRing { rounds: 6 };
    let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();

    for (p, k) in [1usize, 2].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        for depth in DEPTHS {
            let dir =
                cgmio_pdm::testutil::TempDir::new(&format!("cgmio-pipe-resume-{p}-{k}-{depth}"));
            let mut cfg = EmConfig::from_requirements(v, p, 2, 32, &req);
            cfg.vp_group = k;
            cfg.pipeline_depth = depth;

            let run = |c: EmConfig| {
                if p == 1 {
                    SeqEmRunner::new(c).run_until(&prog, init())
                } else {
                    ParEmRunner::new(c).run_until(&prog, init())
                }
            };
            let (want, want_rep) = run(cfg.clone()).unwrap().expect_complete();

            cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
            cfg.checkpoint_dir = Some(dir.path().to_path_buf());
            cfg.halt_after_superstep = Some(2);
            match run(cfg.clone()).unwrap() {
                RunOutcome::Interrupted(c) => drop(c), // the "crash"
                RunOutcome::Complete { .. } => panic!("expected halt"),
            }
            let manifest =
                CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            assert_eq!(manifest.superstep, 2);
            cfg.halt_after_superstep = None;
            let resumed = if p == 1 {
                SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap()
            } else {
                ParEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap()
            };
            let (finals, rep) = resumed.expect_complete();
            let at = format!("p={p} k={k} depth={depth}");
            assert_eq!(finals, want, "{at}: finals differ after resume");
            assert_eq!(rep.io, want_rep.io, "{at}: IoStats differ after resume");
            assert_eq!(rep.breakdown, want_rep.breakdown, "{at}: breakdown differs after resume");
            assert_eq!(rep.costs.lambda(), want_rep.costs.lambda(), "{at}");
        }
    }
}

/// Every counted block transfer still appears as exactly one demand
/// trace event under deep pipelining (pre-issued reads are demand
/// reads, not prefetches, so the totals must balance exactly).
#[test]
fn trace_op_counts_match_io_stats_at_depth() {
    let keys = data::uniform_u64(1500, 3);
    let v = 4;
    let prog = CgmSort::<u64>::by_pivots();
    let mut cfg = sort_config(&keys, v, 2, 64);
    cfg.pipeline_depth = 4;
    cfg.backend = BackendSpec::Concurrent {
        dir: None,
        opts: cgmio_io::IoEngineOpts { trace: true, ..Default::default() },
    };
    let (_, rep) = SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap();
    let summary = cgmio_io::summarize(&rep.io_trace);
    assert_eq!(summary.reads as u64, rep.io.blocks_read);
    assert_eq!(summary.writes as u64, rep.io.blocks_written);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary inputs and group sizes: depth 4 matches depth 0
    /// bit-for-bit on both Mem and Concurrent backends.
    #[test]
    fn random_inputs_depth_invariant(
        seed in 0u64..1000,
        n in 200usize..800,
        k in 1usize..4,
    ) {
        let keys = data::uniform_u64(n, seed);
        let v = 4;
        let prog = CgmSort::<u64>::by_pivots();
        let mut cfg = sort_config(&keys, v, 2, 64);
        cfg.vp_group = k;
        for backend in
            [BackendSpec::Mem, BackendSpec::Concurrent { dir: None, opts: Default::default() }]
        {
            let mut c0 = cfg.clone();
            c0.backend = backend.clone();
            let (want, want_rep) =
                SeqEmRunner::new(c0).run(&prog, sort_states(&keys, v)).unwrap();
            let mut c4 = cfg.clone();
            c4.backend = backend;
            c4.pipeline_depth = 4;
            let (got, rep) = SeqEmRunner::new(c4).run(&prog, sort_states(&keys, v)).unwrap();
            prop_assert_eq!(got, want);
            prop_assert_eq!(rep.io, want_rep.io);
            prop_assert_eq!(rep.breakdown, want_rep.breakdown);
        }
    }
}
