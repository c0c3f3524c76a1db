//! The large-`v` representation must be *observably invisible*: the
//! paged context-length table ([`cgmio_core::ScaleTuning`]) is a memory
//! layout, not semantics, so final states, `IoStats`, op breakdowns,
//! and checkpoint manifests have to be bit-identical to the resident
//! path — across both
//! EM runners, backends and group sizes, including a checkpoint taken under one
//! representation and resumed under the other (`ScaleTuning` is
//! excluded from `config_hash` precisely to allow that).

use cgmio_algos::CgmSort;
use cgmio_core::{
    measure_requirements, BackendSpec, CheckpointManifest, EmConfig, ParEmRunner, RunOutcome,
    ScaleTuning, SeqEmRunner,
};
use cgmio_data as data;
use cgmio_model::demo::{AllToOne, TokenRing};
use proptest::prelude::*;

type SortState = (Vec<u64>, Vec<u64>);

fn sort_states(keys: &[u64], v: usize) -> Vec<SortState> {
    data::block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
}

fn sort_config(keys: &[u64], v: usize, d: usize, bb: usize) -> EmConfig {
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, sort_states(keys, v)).unwrap();
    EmConfig::from_requirements(v, 1, d, bb, &req)
}

/// Group sizes every check sweeps (`vp_group`).
const GROUPS: [usize; 3] = [1, 2, 3];

/// Force the fully resident context table.
fn resident() -> ScaleTuning {
    ScaleTuning { paged_ctx_lens: Some(false), ..ScaleTuning::default() }
}

/// Force a deliberately tiny paged context table (2-entry pages, 1 hot
/// page) so eviction and reload really happen even at test-sized `v`.
fn paged() -> ScaleTuning {
    ScaleTuning { paged_ctx_lens: Some(true), ctx_page_entries: 2, ctx_resident_pages: 1 }
}

/// Finals, IoStats, and op breakdowns agree between representations on
/// both runners and all three backends, for a message-heavy sort, at
/// every group size.
#[test]
fn representations_invisible_across_backends_and_runners() {
    let keys = data::uniform_u64(3000, 29);
    let v = 6;
    let prog = CgmSort::<u64>::by_pivots();
    let base = sort_config(&keys, v, 2, 64);
    let dir = cgmio_pdm::testutil::TempDir::new("cgmio-scale-eq");

    for (p, k) in [1usize, 2].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        let mut want = None;
        for (tag, tuning) in [("resident", resident()), ("paged", paged())] {
            for backend in [
                BackendSpec::Mem,
                BackendSpec::SyncFile { dir: dir.path().join(format!("sync-{p}-{k}-{tag}")) },
                BackendSpec::Concurrent { dir: None, opts: Default::default() },
            ] {
                let mut cfg = base.clone();
                cfg.p = p;
                cfg.vp_group = k;
                cfg.scale = tuning.clone();
                cfg.backend = backend.clone();
                let (got, rep) = if p == 1 {
                    SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap()
                } else {
                    ParEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap()
                };
                let key = (got, rep.io.clone(), rep.breakdown, rep.costs.clone());
                match &want {
                    None => want = Some(key),
                    Some(w) => {
                        let at = format!("p={p} k={k} {tag} {backend:?}");
                        assert_eq!(&key.0, &w.0, "{at}: finals differ");
                        assert_eq!(&key.1, &w.1, "{at}: IoStats differ");
                        assert_eq!(&key.2, &w.2, "{at}: breakdown differs");
                        assert_eq!(&key.3, &w.3, "{at}: costs differ");
                    }
                }
            }
        }
    }
}

/// Checkpoint manifests are representation-independent — the ring's
/// mailbox rows included — and a manifest written
/// under one representation resumes under the other with bit-identical
/// finals and cumulative I/O, on both runners.
#[test]
fn manifests_and_resume_cross_representations() {
    let v = 4;
    let prog = TokenRing { rounds: 6 };
    let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();

    for (p, k) in [1usize, 2].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        for (take, resume) in [(resident(), paged()), (paged(), resident())] {
            let dir = cgmio_pdm::testutil::TempDir::new(&format!("cgmio-scale-resume-{p}-{k}"));
            let mut cfg = EmConfig::from_requirements(v, p, 2, 32, &req);
            cfg.vp_group = k;
            let run = |c: EmConfig| {
                if p == 1 {
                    SeqEmRunner::new(c).run_until(&prog, init())
                } else {
                    ParEmRunner::new(c).run_until(&prog, init())
                }
            };
            let (want, want_rep) = run(cfg.clone()).unwrap().expect_complete();

            // The manifest itself must not depend on the representation
            // that produced it.
            let manifest_under = |tuning: ScaleTuning, halt: usize| {
                let mut c = cfg.clone();
                c.scale = tuning;
                c.halt_after_superstep = Some(halt);
                match run(c).unwrap() {
                    RunOutcome::Interrupted(ck) => ck.manifest,
                    RunOutcome::Complete { .. } => panic!("expected halt at {halt}"),
                }
            };
            for halt in [0usize, 2] {
                let manifest = manifest_under(resident(), halt);
                assert_eq!(
                    manifest,
                    manifest_under(paged(), halt),
                    "p={p} k={k} halt={halt}: manifest depends on representation"
                );
                let slots = manifest.workers.iter().flat_map(|w| &w.inbox_lens).flat_map(|r| &r.0);
                assert_eq!(slots.count(), v, "p={p} halt={halt}: one token per mailbox");
            }

            // Crash under `take`, resume under `resume`.
            cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
            cfg.checkpoint_dir = Some(dir.path().to_path_buf());
            cfg.scale = take;
            cfg.halt_after_superstep = Some(2);
            match run(cfg.clone()).unwrap() {
                RunOutcome::Interrupted(c) => drop(c), // the "crash"
                RunOutcome::Complete { .. } => panic!("expected halt"),
            }
            let manifest =
                CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            cfg.halt_after_superstep = None;
            cfg.scale = resume;
            let resumed = if p == 1 {
                SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap()
            } else {
                ParEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap()
            };
            let (finals, rep) = resumed.expect_complete();
            assert_eq!(finals, want, "p={p} k={k}: cross-representation resume diverged");
            assert_eq!(rep.io, want_rep.io, "p={p} k={k}: cumulative I/O diverged");
        }
    }
}

/// Skewed traffic (everything to vp 0) exercises asymmetric mailbox
/// rows: one crowded row, all others empty.
#[test]
fn skewed_traffic_identical_across_representations() {
    let v = 8;
    let prog = AllToOne { items_per_proc: 5 };
    let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    for (p, k) in [1usize, 2, 4].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        let mut cfg = EmConfig::from_requirements(v, p, 2, 32, &req);
        cfg.vp_group = k;
        cfg.scale = resident();
        let run = |c: EmConfig| {
            if p == 1 {
                SeqEmRunner::new(c).run(&prog, init()).unwrap()
            } else {
                ParEmRunner::new(c).run(&prog, init()).unwrap()
            }
        };
        let (want, want_rep) = run(cfg.clone());
        cfg.scale = paged();
        let (got, rep) = run(cfg);
        assert_eq!(got, want, "p={p} k={k}: skewed finals differ");
        assert_eq!(rep.io, want_rep.io, "p={p} k={k}: skewed IoStats differ");
        assert_eq!(rep.costs, want_rep.costs, "p={p} k={k}: skewed costs differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary inputs and machine shapes: paged matches resident
    /// bit-for-bit on both runners.
    #[test]
    fn random_inputs_representation_invariant(
        seed in 0u64..1000,
        n in 200usize..800,
        v in 2usize..8,
        p in 1usize..3,
        k in 1usize..4,
    ) {
        let p = p.min(v);
        let keys = data::uniform_u64(n, seed);
        let prog = CgmSort::<u64>::by_pivots();
        let mut cfg = sort_config(&keys, v, 2, 64);
        cfg.p = p;
        cfg.vp_group = k;
        let run = |c: EmConfig| {
            if p == 1 {
                SeqEmRunner::new(c).run(&prog, sort_states(&keys, v)).unwrap()
            } else {
                ParEmRunner::new(c).run(&prog, sort_states(&keys, v)).unwrap()
            }
        };
        let mut cd = cfg.clone();
        cd.scale = resident();
        let (want, want_rep) = run(cd);
        cfg.scale = paged();
        let (got, rep) = run(cfg);
        prop_assert_eq!(got, want);
        prop_assert_eq!(rep.io, want_rep.io);
        prop_assert_eq!(rep.breakdown, want_rep.breakdown);
    }
}
