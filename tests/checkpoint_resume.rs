//! Kill-and-resume property: halting an EM run at *any* superstep
//! barrier and resuming from the checkpoint reproduces the
//! uninterrupted run's final states and exact I/O accounting — across
//! storage backends (in-memory, synchronous files, the concurrent
//! engine) and across both runners (Algorithm 2 and Algorithm 3).
//!
//! This is the correctness contract behind `docs/OPERATIONS.md` §
//! "Resuming an interrupted run": the on-disk contexts and inboxes at a
//! barrier *are* the checkpoint, so no state can be lost between the
//! manifest and the data.

use proptest::prelude::*;

use cgmio_algos::graphs::listrank::{CgmListRank, ListRankState};
use cgmio_algos::{BalancedSort, CgmSort, SortState};
use cgmio_core::{
    measure_requirements, BackendSpec, CheckpointManifest, EmConfig, EmError, EmRunReport,
    ParEmRunner, RunOutcome, SeqEmRunner,
};
use cgmio_io::IoEngineOpts;
use cgmio_model::demo::TokenRing;
use cgmio_model::{CgmProgram, RoundCtx, Status};
use cgmio_pdm::testutil::TempDir;
use cgmio_pdm::Item;

fn mk_states(v: usize) -> Vec<Vec<u64>> {
    (0..v as u64).map(|i| vec![i]).collect()
}

fn config(prog: &TokenRing, v: usize, p: usize) -> EmConfig {
    let (_, _, req) = measure_requirements(prog, mk_states(v)).unwrap();
    EmConfig::from_requirements(v, p, 2, 64, &req)
}

/// Check a resumed run against the uninterrupted reference.
fn assert_same(
    tag: &str,
    (finals, rep): &(Vec<Vec<u64>>, EmRunReport),
    (want, want_rep): &(Vec<Vec<u64>>, EmRunReport),
) {
    assert_eq!(finals, want, "{tag}: final states differ");
    assert_eq!(rep.io, want_rep.io, "{tag}: IoStats differ");
    assert_eq!(rep.breakdown, want_rep.breakdown, "{tag}: I/O breakdown differs");
    assert_eq!(rep.costs.lambda(), want_rep.costs.lambda(), "{tag}: superstep count differs");
}

/// Kill `cfg`'s run at superstep `halt`, resume, and return the result.
/// `persist = true` drops the live checkpoint and resumes from the
/// manifest file alone (crash recovery); `false` resumes the in-process
/// checkpoint (works on any backend, including pure memory).
fn kill_and_resume(
    prog: &TokenRing,
    cfg: &EmConfig,
    v: usize,
    halt: usize,
    persist: Option<&std::path::Path>,
) -> (Vec<Vec<u64>>, EmRunReport) {
    let mut hcfg = cfg.clone();
    hcfg.halt_after_superstep = Some(halt);
    hcfg.checkpoint_dir = persist.map(|d| d.to_path_buf());
    let ckpt = match SeqEmRunner::new(hcfg).run_until(prog, mk_states(v)).unwrap() {
        RunOutcome::Interrupted(c) => c,
        RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
    };
    assert_eq!(ckpt.manifest.superstep, halt);
    match persist {
        Some(dir) => {
            drop(ckpt); // the "crash": only the files survive
            let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir)).unwrap();
            SeqEmRunner::new(cfg.clone()).resume_from(prog, &manifest).unwrap().expect_complete()
        }
        None => SeqEmRunner::new(cfg.clone()).resume(prog, ckpt).unwrap().expect_complete(),
    }
}

/// Fault and retry totals surface in both runners' final reports, and a
/// crash-recovered run reports the counters of its own window (the
/// pre-crash portion's injector handles die with the crash — resumed
/// runs count from the barrier they restart at).
#[test]
fn fault_and_retry_totals_appear_in_reports() {
    let (v, rounds) = (6usize, 4usize);
    let prog = TokenRing { rounds };
    let retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };

    for p in [1usize, 3] {
        let mut cfg = config(&prog, v, p);
        cfg.fault = Some(cgmio_pdm::FaultPlan::transient(11, 0.1));
        cfg.retry = retry;
        let (_, rep) = if p == 1 {
            SeqEmRunner::new(cfg).run(&prog, mk_states(v)).unwrap()
        } else {
            ParEmRunner::new(cfg).run(&prog, mk_states(v)).unwrap()
        };
        let f = rep.faults.expect("fault plan set, report must carry counts");
        assert!(f.total_errors() > 0, "p={p}: seeded plan injected nothing");
        // On the synchronous backends every healed transient fault is
        // exactly one RetryStorage retry.
        assert_eq!(
            rep.retries,
            f.read_transient + f.write_transient + f.torn_writes,
            "p={p}: retries must match healed transient faults"
        );
    }

    // Crash recovery: the resumed run rebuilds its injectors, so its
    // report counts only the post-resume window — present, not None.
    let dir = TempDir::new("cgmio-ckpt-fault-report");
    let mut fcfg = config(&prog, v, 1);
    fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
    fcfg.fault = Some(cgmio_pdm::FaultPlan::transient(11, 0.1));
    fcfg.retry = retry;
    let (_, rep) = kill_and_resume(&prog, &fcfg, v, 1, Some(dir.path()));
    let f = rep.faults.expect("crash recovery rebuilds injectors, counts must be present");
    assert_eq!(rep.retries, f.read_transient + f.write_transient + f.torn_writes);
}

/// Messages of `m` that start inside a block another message of the
/// same mailbox holds bytes of (block size `bb`, items of `item` bytes).
fn shared_blocks(m: &CheckpointManifest, bb: u64, item: u64) -> usize {
    let rows = m.workers.iter().flat_map(|w| &w.inbox_lens);
    rows.map(|r| r.0.iter().filter(|&&(_, _, off)| !(off * item).is_multiple_of(bb)).count()).sum()
}

/// Halting at every barrier and resuming — in process on `Mem`, and
/// from the manifest alone on files — reproduces the uninterrupted run
/// at every group size and on both runners; the two backends write the
/// same manifest.
#[test]
fn every_barrier_resumes_exactly_at_every_group_size() {
    let (v, rounds) = (7usize, 5usize);
    let prog = TokenRing { rounds };
    for (p, k) in [1usize, 3].into_iter().flat_map(|p| [1usize, 2, 3].map(|k| (p, k))) {
        let mut cfg = config(&prog, v, p);
        cfg.vp_group = k;
        let run = |c: EmConfig| {
            if p == 1 {
                SeqEmRunner::new(c).run_until(&prog, mk_states(v)).unwrap()
            } else {
                ParEmRunner::new(c).run_until(&prog, mk_states(v)).unwrap()
            }
        };
        let want = run(cfg.clone()).expect_complete();
        for halt in 0..rounds {
            let tag = format!("p={p} k={k} halt={halt}");
            let mut hcfg = cfg.clone();
            hcfg.halt_after_superstep = Some(halt);
            let RunOutcome::Interrupted(ckpt) = run(hcfg.clone()) else { panic!("{tag}: no halt") };
            let manifest = ckpt.manifest.clone();
            let got = if p == 1 {
                SeqEmRunner::new(cfg.clone()).resume(&prog, ckpt)
            } else {
                ParEmRunner::new(cfg.clone()).resume(&prog, ckpt)
            };
            assert_same(&format!("{tag} mem"), &got.unwrap().expect_complete(), &want);

            let dir = TempDir::new("cgmio-ckpt-every-barrier");
            let mut fcfg = cfg.clone();
            fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
            hcfg.backend = fcfg.backend.clone();
            hcfg.checkpoint_dir = Some(dir.path().to_path_buf());
            drop(run(hcfg)); // the "crash": only the files survive
            let saved = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            assert_eq!(saved, manifest, "{tag}: the manifest depends on the backend");
            let got = if p == 1 {
                SeqEmRunner::new(fcfg).resume_from(&prog, &saved)
            } else {
                ParEmRunner::new(fcfg).resume_from(&prog, &saved)
            };
            assert_same(&format!("{tag} sync-file"), &got.unwrap().expect_complete(), &want);
        }
    }
}

/// The sort and list ranking, whose small messages share mailbox
/// blocks, crash at every barrier on `SyncFile` and resume from the
/// manifest alone to bit-identical finals and I/O, at `p` ∈ {1, 2}.
/// List ranking's reply rounds leave context blocks unwritten, and the
/// resumed runs read them back from the files.
#[test]
fn packed_mailboxes_resume_from_every_barrier_on_files() {
    let keys = cgmio_data::uniform_u64(2000, 7);
    let sort_init = || -> Vec<SortState<u64>> {
        let parts = cgmio_data::block_split(keys.clone(), 6);
        parts.into_iter().map(|b| (b, Vec::new())).collect()
    };
    let (succ, _) = cgmio_data::random_list(600, 3);
    let n = succ.len() as u64;
    let rank_init = || -> Vec<ListRankState> {
        let parts = cgmio_data::block_split(succ.clone(), 6);
        parts.into_iter().map(|b| (vec![n], b, Vec::new())).collect()
    };
    let (sort_shared, _) = resume_everywhere(&CgmSort::<u64>::by_pivots(), sort_init, 128);
    let (rank_shared, rank_kept) = resume_everywhere(&CgmListRank, rank_init, 64);
    assert!(sort_shared + rank_shared > 0, "no manifest held a message sharing a block");
    assert!(rank_kept > 0, "list ranking: no context block kept");
}

/// Crash `prog` at every barrier at `p` ∈ {1, 2} on files, resume from
/// the manifest, compare with the uninterrupted run, and count the
/// manifests' messages that share a block. Also returns the context
/// blocks the uninterrupted run kept, the same at both `p`; a resumed
/// run counts only its own supersteps' (in-process, like retries).
fn resume_everywhere<P: CgmProgram>(
    prog: &P,
    init: impl Fn() -> Vec<P::State>,
    bb: usize,
) -> (usize, u64)
where
    P::State: PartialEq + std::fmt::Debug,
{
    let v = init().len();
    let (_, _, req) = measure_requirements(prog, init()).unwrap();
    let (mut shared, mut kept) = (0, None);
    for p in [1usize, 2] {
        let cfg = EmConfig::from_requirements(v, p, 2, bb, &req);
        let (want, want_rep) = ParEmRunner::new(cfg.clone()).run(prog, init()).unwrap();
        let want_kept = *kept.get_or_insert(want_rep.ctx_blocks_kept);
        assert_eq!(want_rep.ctx_blocks_kept, want_kept, "p={p}: kept context blocks differ");
        let mut resumed_kept = want_kept;
        for halt in 0..want_rep.costs.lambda() - 1 {
            let tag = format!("p={p} halt={halt}");
            let dir = TempDir::new("cgmio-ckpt-packed");
            let mut fcfg = cfg.clone();
            fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
            let mut hcfg = fcfg.clone();
            hcfg.checkpoint_dir = Some(dir.path().to_path_buf());
            hcfg.halt_after_superstep = Some(halt);
            let RunOutcome::Interrupted(c) =
                ParEmRunner::new(hcfg).run_until(prog, init()).unwrap()
            else {
                panic!("{tag}: no halt")
            };
            drop(c); // the "crash": only the files survive
            let saved = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            shared += shared_blocks(&saved, bb as u64, <P::Msg as Item>::SIZE as u64);
            let (finals, rep) =
                ParEmRunner::new(fcfg).resume_from(prog, &saved).unwrap().expect_complete();
            assert_eq!(finals, want, "{tag}: finals differ");
            assert_eq!(rep.io, want_rep.io, "{tag}: IoStats differ");
            assert_eq!(rep.breakdown, want_rep.breakdown, "{tag}: breakdown differs");
            assert!(rep.ctx_blocks_kept <= resumed_kept, "{tag}: a later resume kept more");
            resumed_kept = rep.ctx_blocks_kept;
        }
    }
    (shared, kept.unwrap_or(0))
}

/// A token ring over `[token, count]` states whose final round adds one
/// to every count, and panics at vp `panic_at` if set — after the vps
/// before it have finished.
struct BumpAtEnd {
    rounds: usize,
    panic_at: Option<usize>,
}

impl CgmProgram for BumpAtEnd {
    type Msg = u64;
    type State = Vec<u64>;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut Vec<u64>) -> Status {
        let status = TokenRing { rounds: self.rounds }.round(ctx, state);
        if ctx.round == self.rounds {
            state[1] += 1;
            assert_ne!(self.panic_at, Some(ctx.pid), "vp {} dies in the last superstep", ctx.pid);
        }
        status
    }
}

/// A crash inside the final superstep leaves the previous barrier
/// resumable: finished vps hand their states to the finals instead of
/// writing them back, so the contexts on disk are still the barrier's
/// and the replay adds one to every count exactly once.
#[test]
fn crash_in_the_final_superstep_resumes_exactly() {
    let (v, rounds) = (7usize, 3usize);
    let ok = BumpAtEnd { rounds, panic_at: None };
    let states = || (0..v as u64).map(|i| vec![i, 0]).collect::<Vec<_>>();
    let (_, _, req) = measure_requirements(&ok, states()).unwrap();
    for (p, k) in [(1usize, 1usize), (1, 2), (3, 1)] {
        let tag = format!("p={p} k={k}");
        let mut cfg = EmConfig::from_requirements(v, p, 2, 64, &req);
        cfg.vp_group = k;
        let dir = TempDir::new("cgmio-ckpt-final-crash");
        cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
        let run = |prog: &BumpAtEnd, cfg: EmConfig| ParEmRunner::new(cfg).run(prog, states());
        let want = run(&ok, cfg.clone()).unwrap();
        assert!(want.0.iter().all(|s| s[1] == 1), "{tag}: {:?}", want.0);

        let mut ccfg = cfg.clone();
        ccfg.checkpoint_dir = Some(dir.path().to_path_buf());
        let e = run(&BumpAtEnd { rounds, panic_at: Some(v - 1) }, ccfg).unwrap_err();
        assert!(
            matches!(e, EmError::WorkerPanicked { superstep, .. } if superstep == rounds),
            "{tag}: {e:?}"
        );
        let saved = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
        assert_eq!(saved.superstep, rounds - 1, "{tag}");
        let got = ParEmRunner::new(cfg).resume_from(&ok, &saved).unwrap().expect_complete();
        assert_same(&tag, &got, &want);
    }
}

/// FNV-1a of `fields`' little-endian bytes: the config hash's function.
fn fnv(fields: &[usize]) -> u64 {
    let bytes = fields.iter().flat_map(|&x| (x as u64).to_le_bytes());
    bytes.fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Manifests written under an older message layout parse, and resume
/// refuses them with a `BadConfig` naming both hashes instead of
/// decoding moved blocks: one from before the block-major layout (five
/// `io` values, and a hash that covered neither a layout version nor
/// `vp_group`), one from before rotation copies (`LAYOUT_VERSION` 2),
/// one from before mailboxes (`LAYOUT_VERSION` 3, whose hash did not
/// cover `M`), and one whose hash did not cover the message width.
#[test]
fn manifest_with_the_parent_hash_is_refused() {
    let prog = TokenRing { rounds: 4 };
    let (v, halt) = (4usize, 1usize);
    let dir = TempDir::new("cgmio-ckpt-stale");
    let mut cfg = config(&prog, v, 1);
    cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
    cfg.checkpoint_dir = Some(dir.path().to_path_buf());
    cfg.halt_after_superstep = Some(halt);
    drop(SeqEmRunner::new(cfg.clone()).run_until(&prog, mk_states(v)).unwrap());
    let path = CheckpointManifest::path_in(dir.path());

    // The hashes older layouts computed for this config: FNV-1a over v,
    // p, D, B and the two slot sizes; then with the layout version and
    // the group size in front.
    let (slots, k) = ([cfg.msg_slot_items, cfg.max_ctx_bytes], cfg.vp_group);
    let message_major = fnv(&[v, 1, 2, 64, slots[0], slots[1]]);
    assert_eq!(message_major, 0xd161_1c37_bbd9_2cd3, "the fixed config drifted");
    let unrotated = fnv(&[2, k, v, 1, 2, 64, slots[0], slots[1]]);
    let rotated = fnv(&[3, k, v, 1, 2, 64, slots[0], slots[1]]);
    let m = cfg.mem_bytes;
    let unframed = fnv(&[4, k, v, 1, 2, 64, slots[0], slots[1], m]);
    assert_eq!(unframed, cfg.config_hash());
    let framed = fnv(&[4, k, v, 1, 2, 64, slots[0], slots[1], m, u64::SIZE]);
    assert_eq!(framed, cfg.run_hash(u64::SIZE));
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(CheckpointManifest::load(&path).unwrap().config_hash, framed);
    cfg.halt_after_superstep = None;
    let stale_layouts = [(message_major, 5), (unrotated, 6), (rotated, 6), (unframed, 6)];
    for (old_hash, io_values) in stale_layouts {
        let stale: String = text
            .lines()
            .map(|l| match l.split_once(' ') {
                Some(("config_hash", _)) => format!("config_hash {old_hash}\n"),
                Some(("io", vals)) => {
                    let vals: Vec<&str> = vals.split(' ').take(io_values).collect();
                    format!("io {}\n", vals.join(" "))
                }
                _ => format!("{l}\n"),
            })
            .collect();
        std::fs::write(&path, stale).unwrap();

        let manifest = CheckpointManifest::load(&path).unwrap();
        assert_eq!(manifest.config_hash, old_hash);
        let e = SeqEmRunner::new(cfg.clone()).resume_from(&prog, &manifest).unwrap_err();
        let EmError::BadConfig(msg) = e else { panic!("expected BadConfig, got {e:?}") };
        for hash in [old_hash, cfg.config_hash()] {
            assert!(msg.contains(&format!("{hash:#x}")), "{msg}");
        }
    }
}

/// The message width is part of the layout: mailbox bands hold slot
/// sizes counted in items, so a checkpoint of the key-only sort (8-byte
/// frames) resumed by the balanced sort (13-byte `SortMsg` frames) under
/// the very same config — or the other way round — is a `BadConfig`,
/// not a decode of the other program's bytes. The program that wrote
/// the checkpoint resumes it.
#[test]
fn resume_refuses_a_program_of_another_frame_width() {
    let keys = cgmio_data::uniform_u64(2000, 7);
    let init = || -> Vec<SortState<u64>> {
        let parts = cgmio_data::block_split(keys.clone(), 6);
        parts.into_iter().map(|b| (b, Vec::new())).collect()
    };
    let (keyed, balanced) = (CgmSort::<u64>::by_pivots(), BalancedSort::<u64>::new());
    // One config that fits both programs' contexts and messages.
    let fit = |req| EmConfig::from_requirements(6, 1, 2, 128, &req);
    let a = fit(measure_requirements(&keyed, init()).unwrap().2);
    let mut cfg = fit(measure_requirements(&balanced, init()).unwrap().2);
    cfg.max_ctx_bytes = cfg.max_ctx_bytes.max(a.max_ctx_bytes);
    cfg.msg_slot_items = cfg.msg_slot_items.max(a.msg_slot_items);
    cfg.mem_bytes = cfg.mem_bytes.max(a.mem_bytes);
    let (want, _) = SeqEmRunner::new(cfg.clone()).run(&keyed, init()).unwrap();

    let dir = TempDir::new("cgmio-ckpt-frame");
    let mut fcfg = cfg.clone();
    fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
    let mut hcfg = fcfg.clone();
    hcfg.checkpoint_dir = Some(dir.path().to_path_buf());
    hcfg.halt_after_superstep = Some(0);
    drop(SeqEmRunner::new(hcfg.clone()).run_until(&keyed, init()).unwrap());
    let saved = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
    assert_eq!(saved.config_hash, cfg.run_hash(8));
    let e = SeqEmRunner::new(fcfg.clone()).resume_from(&balanced, &saved).unwrap_err();
    let EmError::BadConfig(msg) = e else { panic!("expected BadConfig, got {e:?}") };
    assert!(msg.contains("8-byte") || msg.contains("13-byte"), "{msg}");
    let (finals, _) =
        SeqEmRunner::new(fcfg.clone()).resume_from(&keyed, &saved).unwrap().expect_complete();
    assert_eq!(finals, want);

    // The other way round, from an in-process checkpoint at p = 2.
    let mut pcfg = cfg.clone();
    (pcfg.p, pcfg.halt_after_superstep) = (2, Some(1));
    let RunOutcome::Interrupted(ckpt) =
        ParEmRunner::new(pcfg.clone()).run_until(&balanced, init()).unwrap()
    else {
        panic!("no halt")
    };
    assert_eq!(ckpt.manifest.config_hash, pcfg.run_hash(13));
    let e = ParEmRunner::new(pcfg).resume(&keyed, ckpt).unwrap_err();
    assert!(matches!(e, EmError::BadConfig(_)), "expected BadConfig, got {e:?}");
}

/// The manifest parser trusts nothing it reads: a real manifest cut
/// short at every line, given counts of `u64::MAX` or lengths past
/// `u32`, is an error — never a panic or an allocation abort.
#[test]
fn malformed_manifests_are_errors_not_panics() {
    let (v, p) = (7usize, 3usize);
    let prog = TokenRing { rounds: 4 };
    let mut cfg = config(&prog, v, p);
    cfg.vp_group = 2;
    cfg.halt_after_superstep = Some(1);
    let RunOutcome::Interrupted(ckpt) =
        ParEmRunner::new(cfg).run_until(&prog, mk_states(v)).unwrap()
    else {
        panic!("no halt")
    };
    let text = ckpt.manifest.to_text();
    assert_eq!(CheckpointManifest::from_text(&text).unwrap(), ckpt.manifest);

    let lines: Vec<&str> = text.lines().collect();
    for cut in 0..lines.len() {
        let head = lines[..cut].join("\n");
        assert!(CheckpointManifest::from_text(&head).is_err(), "cut after {cut} lines parsed");
    }
    let max = u64::MAX;
    let edits = |key: &str, value: &str| -> String {
        let edit = |l: &str| match l.split_once(' ') {
            Some((k, _)) if k == key => format!("{key} {value}"),
            _ => l.to_string(),
        };
        lines.iter().map(|l| edit(l)).collect::<Vec<_>>().join("\n") + "\n"
    };
    let row = lines.iter().find(|l| l.starts_with("row ")).expect("a non-empty inbox row");
    let slot: Vec<&str> = row.split(' ').skip(1).take(3).collect();
    let cases = [
        edits("rounds", &max.to_string()),
        edits("rounds", "1000000000000"),
        edits("workers", &max.to_string()),
        edits("inbox_rows", &max.to_string()),
        edits("row", &format!("{} {} {}", slot[0], 1u64 << 32 | 1, slot[2])),
        edits("row", &format!("{} {} {}0", slot[0], slot[1], u64::MAX)),
        edits("row", &format!("{} {}", slot[0], slot[1])),
        text.replace("cgmio-checkpoint v4", "cgmio-checkpoint v2"),
        text.replace("cgmio-checkpoint v4", "cgmio-checkpoint v3"),
    ];
    for (i, bad) in cases.iter().enumerate() {
        assert!(CheckpointManifest::from_text(bad).is_err(), "case {i} parsed:\n{bad}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential runner (Algorithm 2): kill at an arbitrary superstep
    /// on every backend; the resumed run must be byte- and
    /// counter-identical to the uninterrupted one.
    #[test]
    fn seq_kill_resume_exact_across_backends(
        v in 3usize..7,
        rounds in 3usize..6,
        halt_pick in 0usize..16,
    ) {
        let prog = TokenRing { rounds };
        let halt = halt_pick % (rounds - 1); // any barrier before the last
        let cfg = config(&prog, v, 1);
        let want = SeqEmRunner::new(cfg.clone()).run(&prog, mk_states(v)).unwrap();

        // In-memory backend: in-process resume (nothing persisted).
        let got = kill_and_resume(&prog, &cfg, v, halt, None);
        assert_same("mem", &got, &want);

        // Synchronous files: crash recovery from the manifest alone.
        let dir = TempDir::new("cgmio-ckpt-prop-sync");
        let mut fcfg = cfg.clone();
        fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
        let got = kill_and_resume(&prog, &fcfg, v, halt, Some(dir.path()));
        assert_same("sync-file", &got, &want);

        // Concurrent engine over files: crash recovery again.
        let dir = TempDir::new("cgmio-ckpt-prop-conc");
        let mut ccfg = cfg.clone();
        ccfg.backend = BackendSpec::Concurrent {
            dir: Some(dir.path().join("drives")),
            opts: IoEngineOpts::default(),
        };
        let got = kill_and_resume(&prog, &ccfg, v, halt, Some(dir.path()));
        assert_same("concurrent", &got, &want);
    }

    /// Parallel runner (Algorithm 3): same property with p > 1 workers,
    /// each with its own disk array and manifest entry.
    #[test]
    fn par_kill_resume_exact(
        v in 4usize..8,
        p in 2usize..4,
        rounds in 3usize..6,
        halt_pick in 0usize..16,
    ) {
        let prog = TokenRing { rounds };
        let halt = halt_pick % (rounds - 1);
        let cfg = config(&prog, v, p);
        let want = ParEmRunner::new(cfg.clone()).run(&prog, mk_states(v)).unwrap();

        // In-process resume on the memory backend.
        let mut hcfg = cfg.clone();
        hcfg.halt_after_superstep = Some(halt);
        let ckpt = match ParEmRunner::new(hcfg).run_until(&prog, mk_states(v)).unwrap() {
            RunOutcome::Interrupted(c) => c,
            RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
        };
        prop_assert_eq!(ckpt.manifest.superstep, halt);
        let got =
            ParEmRunner::new(cfg.clone()).resume(&prog, ckpt).unwrap().expect_complete();
        assert_same("par-mem", &got, &want);

        // Crash recovery from files.
        let dir = TempDir::new("cgmio-ckpt-prop-par");
        let mut fcfg = cfg.clone();
        fcfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
        fcfg.checkpoint_dir = Some(dir.path().to_path_buf());
        fcfg.halt_after_superstep = Some(halt);
        match ParEmRunner::new(fcfg.clone()).run_until(&prog, mk_states(v)).unwrap() {
            RunOutcome::Interrupted(c) => drop(c),
            RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
        }
        let manifest =
            CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
        prop_assert_eq!(manifest.workers.len(), p.min(v));
        fcfg.halt_after_superstep = None;
        let got =
            ParEmRunner::new(fcfg).resume_from(&prog, &manifest).unwrap().expect_complete();
        assert_same("par-sync-file", &got, &want);
    }
}
