//! Cross-runner equivalence: every CGM program in the catalogue must
//! produce bit-identical final states on the in-memory reference runner,
//! the multi-threaded runner, and both external-memory simulation
//! engines — the paper's central claim made executable.

use cgmio_algos::geometry::{CgmConvexHull, CgmDominance, CgmIntervalStab, CgmUnionArea};
use cgmio_algos::graphs::{CgmConnectivity, CgmEulerTour, CgmListRank};
use cgmio_algos::{BalancedSort, CgmPermute, CgmSort, CgmTranspose};
use cgmio_core::{
    measure_requirements, BackendSpec, CheckpointManifest, EmConfig, EmError, ParEmRunner,
    RunOutcome, SeqEmRunner,
};
use cgmio_data as data;
use cgmio_model::demo::{AllToOne, PrefixSum, TokenRing};
use cgmio_model::{CgmProgram, DirectRunner, ModelError, RoundCtx, Status, ThreadedRunner};
use proptest::prelude::*;

/// Group sizes the EM runners are checked at (`vp_group`).
const GROUPS: [usize; 3] = [1, 2, 3];

/// Run `prog` on all four runners — the EM ones at every group size,
/// the parallel one at pipeline depth `k − 1` — and demand identical
/// final states and context blocks kept by step (e); returns the latter.
fn assert_all_runners_agree<P>(prog: &P, mk: impl Fn() -> Vec<P::State>, label: &str) -> u64
where
    P: CgmProgram,
    P::State: PartialEq + std::fmt::Debug + Clone,
{
    let v = mk().len();
    let (want, _) = DirectRunner::default().run(prog, mk()).unwrap();

    let (threaded, _) = ThreadedRunner::new(3).run(prog, mk()).unwrap();
    assert_eq!(threaded, want, "{label}: threaded != direct");

    let (_, _, req) = measure_requirements(prog, mk()).unwrap();
    let mut kept = None;
    for (d, k) in [1usize, 3].into_iter().flat_map(|d| GROUPS.map(|k| (d, k))) {
        let mut cfg = EmConfig::from_requirements(v, 1, d, 512, &req);
        cfg.vp_group = k;
        let (seq_em, rep) = SeqEmRunner::new(cfg.clone()).run(prog, mk()).unwrap();
        assert_eq!(seq_em, want, "{label}: seq EM (D={d}, k={k}) != direct");
        assert!(rep.breakdown.algorithm_ops() > 0 || rep.costs.total_items() == 0);
        let kept = *kept.get_or_insert(rep.ctx_blocks_kept);
        assert_eq!(rep.ctx_blocks_kept, kept, "{label}: seq EM (D={d}, k={k}) kept blocks");

        (cfg.p, cfg.pipeline_depth) = ((v / 2).max(2).min(v), k - 1);
        let (par_em, rep) = ParEmRunner::new(cfg).run(prog, mk()).unwrap();
        assert_eq!(par_em, want, "{label}: par EM (D={d}, k={k}) != direct");
        assert_eq!(rep.ctx_blocks_kept, kept, "{label}: par EM (D={d}, k={k}) kept blocks");
    }
    kept.unwrap_or(0)
}

#[test]
fn sort_agrees_everywhere() {
    let keys = data::uniform_u64(3000, 1);
    let v = 6;
    assert_all_runners_agree(
        &BalancedSort::<u64>::new(),
        || data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect(),
        "sort",
    );
}

#[test]
fn permute_agrees_everywhere() {
    let n = 2000;
    let v = 5;
    let vals = data::uniform_u64(n, 2);
    let perm = data::random_permutation(n, 3);
    assert_all_runners_agree(
        &CgmPermute,
        || {
            data::block_split(vals.clone(), v)
                .into_iter()
                .zip(data::block_split(perm.clone(), v))
                .map(|(vb, pb)| (vb, pb, n as u64))
                .collect()
        },
        "permute",
    );
}

#[test]
fn transpose_agrees_everywhere() {
    let (k, l) = (40, 30);
    let v = 6;
    let m = data::uniform_u64(k * l, 4);
    assert_all_runners_agree(
        &CgmTranspose,
        || data::block_split(m.clone(), v).into_iter().map(|b| (b, k as u64, l as u64)).collect(),
        "transpose",
    );
}

#[test]
fn convex_hull_agrees_everywhere() {
    let pts = data::random_points(1200, 50_000, 5);
    let v = 6;
    assert_all_runners_agree(
        &CgmConvexHull,
        || data::block_split(pts.clone(), v).into_iter().map(|b| (b, Vec::new())).collect(),
        "hull",
    );
}

#[test]
fn union_area_agrees_everywhere() {
    let rects: Vec<[i64; 4]> =
        data::random_rects(600, 5_000, 6).into_iter().map(|r| [r.x1, r.y1, r.x2, r.y2]).collect();
    let v = 5;
    assert_all_runners_agree(
        &CgmUnionArea,
        || data::block_split(rects.clone(), v).into_iter().map(|b| (b, Vec::new())).collect(),
        "union_area",
    );
}

#[test]
fn interval_stab_agrees_everywhere() {
    let ivs: Vec<[i64; 3]> = data::uniform_u64(800, 7)
        .chunks(2)
        .map(|c| {
            let a = (c[0] % 10_000) as i64;
            [a, a + (c[1] % 500) as i64, 1 + (c[1] % 5) as i64]
        })
        .collect();
    let qs: Vec<(u64, i64)> = (0..400u64).map(|i| (i, (i as i64 * 29) % 10_000)).collect();
    let v = 5;
    assert_all_runners_agree(
        &CgmIntervalStab,
        || {
            data::block_split(ivs.clone(), v)
                .into_iter()
                .zip(data::block_split(qs.clone(), v))
                .map(|(ib, qb)| ((ib, qb), Vec::new()))
                .collect()
        },
        "interval_stab",
    );
}

#[test]
fn dominance_agrees_everywhere() {
    let pts = data::random_points(800, 2_000, 8);
    let rows: Vec<[i64; 4]> =
        pts.iter().enumerate().map(|(i, &(x, y))| [i as i64, x, y, (i % 9) as i64]).collect();
    let v = 5;
    assert_all_runners_agree(
        &CgmDominance,
        || {
            data::block_split(rows.clone(), v)
                .into_iter()
                .map(|b| ((b, Vec::new(), Vec::new()), (Vec::new(), Vec::new()), Vec::new()))
                .collect()
        },
        "dominance",
    );
}

#[test]
fn list_ranking_agrees_everywhere() {
    let (succ, _) = data::random_list(1500, 9);
    let v = 6;
    let kept = assert_all_runners_agree(
        &CgmListRank,
        || {
            data::block_split(succ.clone(), v)
                .into_iter()
                .map(|b| (vec![1500u64], b, Vec::new()))
                .collect()
        },
        "list_ranking",
    );
    // The reply rounds only read their states: step (e) keeps them.
    assert!(kept > 0, "list ranking: no context block kept");
}

#[test]
fn euler_tour_agrees_everywhere() {
    let parent = data::random_tree_parents(1000, 10);
    let v = 5;
    assert_all_runners_agree(
        &CgmEulerTour,
        || {
            data::block_split(parent.clone(), v)
                .into_iter()
                .map(|b| ((vec![1000u64], b, Vec::new()), (Vec::new(), Vec::new(), Vec::new())))
                .collect()
        },
        "euler_tour",
    );
}

#[test]
fn connectivity_agrees_everywhere() {
    let n = 600;
    let edges = data::gnm_edges(n, 900, 11);
    let v = 5;
    assert_all_runners_agree(
        &CgmConnectivity,
        || {
            let vb = data::block_split((0..n as u64).collect::<Vec<_>>(), v);
            let eb = data::block_split(edges.clone(), v);
            vb.into_iter()
                .zip(eb)
                .map(|(vv, ee)| ((n as u64, vv, Vec::new()), (edges.len() as u64, ee, Vec::new())))
                .collect()
        },
        "connectivity",
    );
}

/// A token ring at `D = 2`, contexts of one block in groups of two:
/// each message is placed so that every write and every inbox read uses
/// both drives, on every `p` — no operation is narrow. (A fixed stagger
/// puts every shift-by-one message on drive 1.)
#[test]
fn ring_messages_use_every_drive_for_every_p() {
    let prog = TokenRing { rounds: 4 };
    for v in [12usize, 13] {
        let mk = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        let (_, _, req) = measure_requirements(&prog, mk()).unwrap();
        for p in [1usize, 2, 3] {
            let cfg = EmConfig::from_requirements(v, p, 2, 64, &req);
            assert_eq!(cfg.vp_group, 2);
            let (finals, rep) = ParEmRunner::new(cfg).run(&prog, mk()).unwrap();
            assert_eq!(finals[0], vec![((v - 4) % v) as u64], "v={v} p={p}");
            assert_eq!(rep.io.narrow_ops, 0, "v={v} p={p}: {:?}", rep.io);
        }
    }
}

/// Initial states of a sort with irregular traffic: 5 000 uniform keys
/// over 8 virtual processors, whose sampled splitters give messages of
/// very different sizes.
fn irregular_sort_input() -> Vec<(Vec<u64>, Vec<u64>)> {
    data::block_split(data::uniform_u64(5000, 1), 8).into_iter().map(|b| (b, Vec::new())).collect()
}

/// The EM runners' per-round h-relation ledger must be the reference
/// runner's, for every `p` and group size: `max_received` of a round is
/// what was sent *in* that round (including the last one), not what was
/// read in it.
#[test]
fn round_costs_match_direct_runner_for_every_p() {
    fn check<P: CgmProgram>(prog: &P, mk: impl Fn() -> Vec<P::State>, label: &str)
    where
        P::State: PartialEq + std::fmt::Debug,
    {
        let v = mk().len();
        let (finals, want) = DirectRunner::default().run(prog, mk()).unwrap();
        let (_, _, req) = measure_requirements(prog, mk()).unwrap();
        for (p, k) in [1usize, 2, 3].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
            let mut cfg = EmConfig::from_requirements(v, p, 2, 64, &req);
            cfg.vp_group = k;
            let (got, rep) = ParEmRunner::new(cfg).run(prog, mk()).unwrap();
            assert_eq!(got, finals, "{label}: p={p} k={k}");
            assert_eq!(rep.costs.rounds, want.rounds, "{label}: p={p} k={k}");
            assert_eq!(rep.costs.max_h(), want.max_h(), "{label}: p={p} k={k}");
        }
        let cfg = EmConfig::from_requirements(v, 1, 2, 64, &req);
        let (_, rep) = SeqEmRunner::new(cfg).run(prog, mk()).unwrap();
        assert_eq!(rep.costs.rounds, want.rounds, "{label}: seq");
    }
    check(&AllToOne { items_per_proc: 7 }, || (0..6).map(|_| Vec::new()).collect(), "all-to-one");
    check(&BalancedSort::<u64>::new(), irregular_sort_input, "sort");
}

/// `ParEmRunner` at `p = 1` *is* `SeqEmRunner`: every count, every
/// round cost and the checkpoint manifest agree on irregular traffic,
/// and a run halted under either facade resumes under the other — at
/// every group size.
#[test]
fn p1_is_the_sequential_runner_exactly() {
    for k in GROUPS {
        p1_is_the_sequential_runner_at(k);
    }
}

fn p1_is_the_sequential_runner_at(k: usize) {
    let (prog, mk) = (BalancedSort::<u64>::new(), irregular_sort_input);
    let (_, _, req) = measure_requirements(&prog, mk()).unwrap();
    let mut cfg = EmConfig::from_requirements(8, 1, 4, 64, &req);
    cfg.vp_group = k;
    let (seq_finals, seq) = SeqEmRunner::new(cfg.clone()).run(&prog, mk()).unwrap();
    let (par_finals, par) = ParEmRunner::new(cfg.clone()).run(&prog, mk()).unwrap();
    assert_eq!(par_finals, seq_finals);
    assert_eq!(par.io, seq.io);
    assert_eq!(par.breakdown, seq.breakdown);
    assert_eq!(par.costs, seq.costs);
    assert_eq!((par.p, par.cross_thread_items), (1, 0));
    assert_eq!(par.peak_mem_bytes, seq.peak_mem_bytes);

    let mut halting = cfg.clone();
    halting.halt_after_superstep = Some(1);
    let halt = |outcome| match outcome {
        RunOutcome::Interrupted(c) => c,
        RunOutcome::Complete { .. } => panic!("expected a halt after superstep 1"),
    };
    let seq_ckpt = halt(SeqEmRunner::new(halting.clone()).run_until(&prog, mk()).unwrap());
    let par_ckpt = halt(ParEmRunner::new(halting).run_until(&prog, mk()).unwrap());
    assert_eq!(par_ckpt.manifest.to_text(), seq_ckpt.manifest.to_text());

    let (finals, rep) =
        ParEmRunner::new(cfg.clone()).resume(&prog, seq_ckpt).unwrap().expect_complete();
    assert_eq!(
        (finals, rep.io, rep.breakdown, rep.costs),
        (par_finals, par.io, par.breakdown, par.costs)
    );
    let (finals, rep) = SeqEmRunner::new(cfg).resume(&prog, par_ckpt).unwrap().expect_complete();
    assert_eq!(
        (finals, rep.io, rep.breakdown, rep.costs),
        (seq_finals, seq.io, seq.breakdown, seq.costs)
    );
}

/// `(p, pipeline depth)`: the cells the run-boundary tests sweep.
const CELLS: [(usize, usize); 6] = [(1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (3, 2)];

/// How [`BadEnd`]'s vp misbehaves in the last round.
#[derive(Clone, Copy, Debug)]
enum EndFault {
    /// Returns `Continue` while every other vp is `Done`.
    Disagree,
    /// Grows its final state past the context slot.
    Overflow,
    /// Returns `Done` with a message queued.
    SendAfterDone,
}

/// A two-rotation token ring whose vp `at` misbehaves in the last round.
struct BadEnd {
    fault: EndFault,
    at: usize,
}

impl CgmProgram for BadEnd {
    type Msg = u64;
    type State = Vec<u64>;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut Vec<u64>) -> Status {
        let status = TokenRing { rounds: 2 }.round(ctx, state);
        if status == Status::Done && ctx.pid == self.at {
            match self.fault {
                EndFault::Disagree => return Status::Continue,
                EndFault::Overflow => state.resize(1024, 0),
                EndFault::SendAfterDone => ctx.push(0, 1),
            }
        }
        status
    }
}

/// The last superstep hands finished states to the finals instead of
/// writing them back, and still fails exactly as the reference runner
/// does — or, for a state too large for its slot, names the vp. The
/// misbehaving vp shares its group with a finished one at `p = 1`, and
/// lives on a later worker at `p ≥ 2`, where its local slot is not its
/// pid.
#[test]
fn last_superstep_errors_are_unchanged_for_every_p_and_depth() {
    let v = 7;
    let states = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
    let (_, _, req) = measure_requirements(&TokenRing { rounds: 2 }, states()).unwrap();
    for (p, depth) in CELLS {
        let mut cfg = EmConfig::from_requirements(v, p, 2, 16, &req);
        (cfg.pipeline_depth, cfg.vp_group) = (depth, 2);
        let run = |fault| {
            let prog = BadEnd { fault, at: v - 2 };
            let direct = DirectRunner::default().run(&prog, states()).err();
            let em = ParEmRunner::new(cfg.clone()).run(&prog, states()).unwrap_err();
            (direct, em)
        };
        let tag = format!("p={p} depth={depth}");
        for (fault, want) in [
            (EndFault::Disagree, ModelError::StatusDisagreement { round: 2 }),
            (EndFault::SendAfterDone, ModelError::MessagesAfterDone),
        ] {
            assert_eq!(run(fault), (Some(want.clone()), EmError::Model(want)), "{tag} {fault:?}");
        }
        let (direct, em) = run(EndFault::Overflow);
        assert_eq!(direct, None, "{tag}: the reference runner has no slots");
        let cap = cfg.max_ctx_bytes;
        assert!(
            matches!(em, EmError::CtxSlotOverflow { pid, len: 8200, cap: c } if pid == v - 2 && c == cap),
            "{tag}: {em:?}"
        );
    }
}

/// Superstep 0 takes its contexts from the input and the last superstep
/// hands them to the finals, so neither end of a run moves a block: no
/// set-up or readout operations. Without the context carries, the
/// context operations were those of an executor with both passes minus
/// the passes at every `p` — that executor's `(ctx_ops, setup_ops,
/// readout_ops)` on the same layout — and its message operations were
/// `msg[p − 1]`. The carries let a block travel in a neighbour's list,
/// which moves read operations between the two purposes and lets the
/// count depend on `p` (a carry stops at a real processor's range), so
/// the two together are held to at most that executor's — at the `M`
/// of `from_requirements` and at that executor's `M`, set by hand: the
/// same less the carries' room `S = 2·(D − 1)·B`, where the open-block
/// pool makes room for them. Finals agree in every cell, and `IoStats`
/// and the breakdown across pipeline depths.
#[test]
fn run_boundaries_move_no_blocks_for_every_p_and_depth() {
    fn check<P: CgmProgram>(
        label: &str,
        prog: &P,
        mk: impl Fn() -> Vec<P::State>,
        (d, bb): (usize, usize),
        (ctx, setup, readout): (u64, u64, u64),
        msg: [u64; 3],
    ) where
        P::State: PartialEq + std::fmt::Debug,
    {
        let v = mk().len();
        let (want, _) = DirectRunner::default().run(prog, mk()).unwrap();
        let (_, _, req) = measure_requirements(prog, mk()).unwrap();
        let mut at_depth0 = std::collections::HashMap::new();
        let cells = CELLS.into_iter().flat_map(|c| [(c, false), (c, true)]);
        for ((p, depth), by_hand) in cells {
            let tag = format!("{label} p={p} depth={depth} by_hand={by_hand}");
            let mut cfg = EmConfig::from_requirements(v, p, d, bb, &req);
            cfg.pipeline_depth = depth;
            if by_hand {
                cfg.mem_bytes -= 2 * (d - 1) * bb;
            }
            let (finals, rep) = ParEmRunner::new(cfg).run(prog, mk()).unwrap();
            assert_eq!(finals, want, "{tag}");
            let b = rep.breakdown;
            assert_eq!((b.setup_ops, b.readout_ops), (0, 0), "{tag}");
            let bound = ctx - setup - readout + msg[p - 1];
            assert!(b.ctx_ops + b.msg_ops <= bound, "{tag}: {b:?} over {bound}");
            let at0 = at_depth0.entry((p, by_hand)).or_insert_with(|| (rep.io.clone(), b));
            assert_eq!(at0, &(rep.io, b), "{tag}");
        }
    }
    let keys = data::uniform_u64(3000, 1);
    let sort = || data::block_split(keys.clone(), 6).into_iter().map(|b| (b, Vec::new())).collect();
    check("sort", &CgmSort::<u64>::by_pivots(), sort, (4, 128), (205, 48, 49), [112, 108, 106]);
    let ring = || (0..7u64).map(|i| vec![i]).collect();
    check("ring", &TokenRing { rounds: 3 }, ring, (2, 16), (56, 7, 7), [18, 12, 12]);
}

/// Packed mailboxes move where messages sit, never what is delivered:
/// at `p` ∈ {1, 2, 3} × pipeline depth {0, 2} × `vp_group` {1, 2} ×
/// Mem/SyncFile, `prog` ends in the reference runner's finals, and
/// neither the depth nor the backend moves an I/O count. 64-byte blocks
/// make messages share blocks; the balanced sort's 13-byte `SortMsg`
/// frames straddle them, the sort by pivots' 8-byte keys tile them.
/// The context blocks step (e) keeps are the same in every cell; returns
/// their number.
fn assert_mailboxes_deliver<P>(prog: &P, mk: impl Fn() -> Vec<P::State>, label: &str) -> u64
where
    P: CgmProgram,
    P::State: PartialEq + std::fmt::Debug,
{
    let v = mk().len();
    let (want, _) = DirectRunner::default().run(prog, mk()).unwrap();
    let (_, _, req) = measure_requirements(prog, mk()).unwrap();
    let dir = cgmio_pdm::testutil::TempDir::new("cgmio-mailbox-eq");
    let mut kept = None;
    for (p, k) in [1usize, 2, 3].into_iter().flat_map(|p| [1usize, 2].map(|k| (p, k))) {
        let mut io = None;
        for (depth, file) in [0usize, 2].into_iter().flat_map(|d| [false, true].map(|f| (d, f))) {
            let tag = format!("{label}: p={p} k={k} depth={depth} file={file}");
            let mut cfg = EmConfig::from_requirements(v, p, 2, 64, &req);
            (cfg.vp_group, cfg.pipeline_depth) = (k, depth);
            if file {
                let drives = dir.path().join(format!("{p}-{k}-{depth}"));
                cfg.backend = BackendSpec::SyncFile { dir: drives };
            }
            let (got, rep) = ParEmRunner::new(cfg).run(prog, mk()).unwrap();
            assert_eq!(got, want, "{tag}: finals differ from the reference");
            assert_eq!(io.get_or_insert_with(|| rep.io.clone()), &rep.io, "{tag}: IoStats moved");
            let want_kept = *kept.get_or_insert(rep.ctx_blocks_kept);
            assert_eq!(rep.ctx_blocks_kept, want_kept, "{tag}: kept context blocks moved");
        }
    }
    kept.unwrap_or(0)
}

#[test]
fn mailboxes_deliver_identically_for_every_p_depth_group_and_backend() {
    let ring = |v: u64| move || (0..v).map(|i| vec![i]).collect::<Vec<_>>();
    assert_mailboxes_deliver(&TokenRing { rounds: 3 }, ring(7), "ring");
    let keys = data::uniform_u64(1500, 9);
    let sort_states = || -> Vec<(Vec<u64>, Vec<u64>)> {
        data::block_split(keys.clone(), 6).into_iter().map(|b| (b, Vec::new())).collect()
    };
    assert_mailboxes_deliver(&CgmSort::<u64>::by_pivots(), sort_states, "sort by pivots");
    assert_mailboxes_deliver(&BalancedSort::<u64>::new(), sort_states, "sort");
    let prefix = || (0..5u64).map(|i| ((0..=i * 7).collect(), Vec::new())).collect::<Vec<_>>();
    assert_mailboxes_deliver(&PrefixSum, prefix, "prefix sum");
    let (succ, _) = data::random_list(400, 5);
    let n = succ.len() as u64;
    let lists = || -> Vec<_> {
        data::block_split(succ.clone(), 6).into_iter().map(|b| (vec![n], b, Vec::new())).collect()
    };
    let kept = assert_mailboxes_deliver(&CgmListRank, lists, "list ranking");
    assert!(kept > 0, "list ranking: no context block kept");
}

/// Every vp sends `fanout` destinations a numbered run of words each
/// round; a receiver counts the words that arrive in the numbered
/// sequence (state `.0`) and those that do not (`.1`, plus any missing
/// or extra words).
struct Numbered {
    rounds: usize,
    fanout: usize,
}

impl Numbered {
    /// Words `src` sends `dst` in round `round`: 6 to 32 at `v = 6`.
    fn count(src: usize, dst: usize, round: usize) -> usize {
        5 + 3 * src + 2 * dst + round
    }

    /// The `j`-th word `src` sends `dst` in round `round`.
    fn word(src: usize, dst: usize, round: usize, j: usize) -> u64 {
        ((src as u64) << 48) | ((dst as u64) << 32) | ((round as u64) << 24) | j as u64
    }

    /// Whether `src` sends to `dst` (the next `fanout` vps, cyclically).
    fn sends(&self, src: usize, dst: usize, v: usize) -> bool {
        (1..=self.fanout).contains(&((dst + v - src) % v))
    }
}

impl CgmProgram for Numbered {
    type Msg = u64;
    type State = (u64, u64);

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut (u64, u64)) -> Status {
        let (me, v, round) = (ctx.pid, ctx.v, ctx.round);
        if round > 0 {
            for (src, got) in ctx.incoming.iter() {
                let sent = |j| Self::word(src, me, round - 1, j);
                let want = if self.sends(src, me, v) { Self::count(src, me, round - 1) } else { 0 };
                let in_seq = got.iter().enumerate().filter(|&(j, &w)| w == sent(j)).count();
                state.0 += in_seq as u64;
                state.1 += (got.len().max(want) - in_seq) as u64;
            }
        }
        if round == self.rounds {
            return Status::Done;
        }
        for dst in (0..v).filter(|&dst| self.sends(me, dst, v)) {
            ctx.send(dst, (0..Self::count(me, dst, round)).map(|j| Self::word(me, dst, round, j)));
        }
        Status::Continue
    }
}

/// Every runner hands a receiver each source's items in send order —
/// the guarantee list ranking pairs its replies by. Messages of 6 to 32
/// words in 60-byte blocks straddle block boundaries and share mailbox
/// blocks with other sources' messages; the EM runners are checked at
/// p ∈ {1, 2}, k ∈ {1, 2}, depth ∈ {0, 2} on every backend.
#[test]
fn send_order_is_kept_everywhere() {
    let (v, prog) = (6, Numbered { rounds: 3, fanout: 3 });
    let init = || vec![(0u64, 0u64); v];
    let want: Vec<(u64, u64)> = (0..v)
        .map(|dst| {
            let heard = (0..v).filter(|&src| prog.sends(src, dst, v));
            let words =
                heard.flat_map(|src| (0..prog.rounds).map(move |r| Numbered::count(src, dst, r)));
            (words.sum::<usize>() as u64, 0)
        })
        .collect();
    let (direct, _) = DirectRunner::default().run(&prog, init()).unwrap();
    assert_eq!(direct, want, "direct runner");
    let (threaded, _) = ThreadedRunner::new(3).run(&prog, init()).unwrap();
    assert_eq!(threaded, want, "threaded runner");

    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    let dir = cgmio_pdm::testutil::TempDir::new("cgmio-send-order");
    for (p, k, depth) in [1usize, 2].into_iter().flat_map(|p| {
        [1usize, 2].into_iter().flat_map(move |k| [0usize, 2].map(|depth| (p, k, depth)))
    }) {
        for backend in [
            BackendSpec::Mem,
            BackendSpec::SyncFile { dir: dir.path().join(format!("sync-{p}-{k}-{depth}")) },
            BackendSpec::Concurrent { dir: None, opts: Default::default() },
        ] {
            let at = format!("p={p} k={k} depth={depth} {backend:?}");
            let mut cfg = EmConfig::from_requirements(v, p, 2, 60, &req);
            (cfg.vp_group, cfg.pipeline_depth, cfg.backend) = (k, depth, backend);
            let (got, _) = run_em(cfg, &prog, init());
            assert_eq!(got, want, "{at}: items out of send order");
        }
    }
}

/// Runs `cfg` on the runner its `p` names.
fn run_em<P: CgmProgram>(
    cfg: EmConfig,
    prog: &P,
    init: Vec<P::State>,
) -> (Vec<P::State>, cgmio_core::EmRunReport) {
    if cfg.p == 1 {
        SeqEmRunner::new(cfg).run(prog, init).unwrap()
    } else {
        ParEmRunner::new(cfg).run(prog, init).unwrap()
    }
}

type SortState = (Vec<u64>, Vec<u64>);

fn sort_states(keys: &[u64], v: usize) -> Vec<SortState> {
    data::block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
}

/// Finals, `IoStats`, op breakdowns and round costs of a message-heavy
/// sort agree across the Mem, SyncFile and Concurrent backends, on both
/// runners and at every group size.
#[test]
fn sort_agrees_across_backends_for_every_p_and_group() {
    let (keys, v) = (data::uniform_u64(3000, 29), 6);
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, sort_states(&keys, v)).unwrap();
    let dir = cgmio_pdm::testutil::TempDir::new("cgmio-backend-eq");
    for (p, k) in [1usize, 2].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        let mut want = None;
        for backend in [
            BackendSpec::Mem,
            BackendSpec::SyncFile { dir: dir.path().join(format!("sync-{p}-{k}")) },
            BackendSpec::Concurrent { dir: None, opts: Default::default() },
        ] {
            let at = format!("p={p} k={k} {backend:?}");
            let mut cfg = EmConfig::from_requirements(v, p, 2, 64, &req);
            (cfg.vp_group, cfg.backend) = (k, backend);
            let (got, rep) = run_em(cfg, &prog, sort_states(&keys, v));
            let key = (got, rep.io, rep.breakdown, rep.costs, rep.ctx_blocks_kept);
            assert_eq!(want.get_or_insert_with(|| key.clone()), &key, "{at}");
        }
    }
}

/// Both context carries fire on the sort and on list ranking at D = 4:
/// step (e) holds blocks back for the next group's write list, and step
/// (a) reads blocks of the next group. Like every other count, theirs
/// are the same at every pipeline depth and on every backend, and the
/// finals are the reference runner's.
#[test]
fn context_carries_fire_on_the_sort_and_list_ranking() {
    fn check<P: CgmProgram>(label: &str, prog: &P, mk: impl Fn() -> Vec<P::State>, bb: usize)
    where
        P::State: PartialEq + std::fmt::Debug,
    {
        let v = mk().len();
        let (want, _) = DirectRunner::default().run(prog, mk()).unwrap();
        let (_, _, req) = measure_requirements(prog, mk()).unwrap();
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-carries");
        for p in [1usize, 2] {
            let mut first = None;
            for (depth, file) in [(0usize, false), (2, false), (0, true), (2, true)] {
                let tag = format!("{label} p={p} depth={depth} file={file}");
                let mut cfg = EmConfig::from_requirements(v, p, 4, bb, &req);
                assert_eq!(cfg.carry_blocks(), 3, "{tag}: M has room for D − 1 each way");
                cfg.pipeline_depth = depth;
                if file {
                    cfg.backend =
                        BackendSpec::SyncFile { dir: dir.path().join(format!("{p}-{depth}")) };
                }
                let (got, rep) = run_em(cfg, prog, mk());
                assert_eq!(got, want, "{tag}: finals differ from the reference");
                let carries = (rep.ctx_blocks_carried, rep.ctx_blocks_preread);
                assert!(carries.0 > 0 && carries.1 > 0, "{tag}: a carry never fired: {carries:?}");
                let key = (rep.io, rep.breakdown, carries);
                assert_eq!(first.get_or_insert_with(|| key.clone()), &key, "{tag}");
            }
        }
    }
    let keys = data::uniform_u64(3000, 5);
    check("sort", &CgmSort::<u64>::by_pivots(), || sort_states(&keys, 6), 128);
    let (succ, _) = data::random_list(600, 3);
    let n = succ.len() as u64;
    let lists = || -> Vec<_> {
        data::block_split(succ.clone(), 6).into_iter().map(|b| (vec![n], b, Vec::new())).collect()
    };
    check("list ranking", &CgmListRank, lists, 64);
}

/// A halted ring's manifest holds one token row per mailbox, the one
/// saved to disk is the one handed back, and a run that "crashes" after
/// superstep 2 on files resumes from it with bit-identical finals and
/// cumulative I/O, on both runners and at every group size.
#[test]
fn ring_resumes_from_a_file_checkpoint_for_every_p_and_group() {
    let (v, prog) = (4, TokenRing { rounds: 6 });
    let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    for (p, k) in [1usize, 2].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        let dir = cgmio_pdm::testutil::TempDir::new(&format!("cgmio-ring-resume-{p}-{k}"));
        let mut cfg = EmConfig::from_requirements(v, p, 2, 32, &req);
        cfg.vp_group = k;
        let (want, want_rep) = run_em(cfg.clone(), &prog, init());
        let halt_at = |c: &EmConfig, halt: usize| {
            let mut c = c.clone();
            c.halt_after_superstep = Some(halt);
            match ParEmRunner::new(c).run_until(&prog, init()).unwrap() {
                RunOutcome::Interrupted(ck) => ck.manifest,
                RunOutcome::Complete { .. } => panic!("expected halt at {halt}"),
            }
        };
        let slots = |m: &CheckpointManifest| {
            m.workers.iter().flat_map(|w| &w.inbox_lens).flat_map(|r| &r.0).count()
        };
        assert_eq!(slots(&halt_at(&cfg, 0)), v, "p={p} k={k}: one token per mailbox");

        cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
        cfg.checkpoint_dir = Some(dir.path().to_path_buf());
        let handed_back = halt_at(&cfg, 2); // the "crash"
        let manifest = CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
        assert_eq!(manifest, handed_back, "p={p} k={k}: saved manifest differs");
        assert_eq!(slots(&manifest), v, "p={p} k={k}: one token per mailbox");
        let resumed = if p == 1 {
            SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap()
        } else {
            ParEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap()
        };
        let (finals, rep) = resumed.expect_complete();
        assert_eq!(finals, want, "p={p} k={k}: resume diverged");
        assert_eq!(rep.io, want_rep.io, "p={p} k={k}: cumulative I/O diverged");
    }
}

/// Skewed traffic (everything to vp 0) fills one mailbox row and leaves
/// the others empty: finals and round costs are the reference runner's,
/// and `IoStats` do not move with the pipeline depth.
#[test]
fn skewed_traffic_agrees_for_every_p_and_group() {
    let (v, prog) = (8, AllToOne { items_per_proc: 5 });
    let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
    let (want, want_costs) = DirectRunner::default().run(&prog, init()).unwrap();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    for (p, k) in [1usize, 2, 4].into_iter().flat_map(|p| GROUPS.map(|k| (p, k))) {
        let mut cfg = EmConfig::from_requirements(v, p, 2, 32, &req);
        cfg.vp_group = k;
        let (got, rep) = run_em(cfg.clone(), &prog, init());
        assert_eq!(got, want, "p={p} k={k}: skewed finals differ");
        assert_eq!(rep.costs.rounds, want_costs.rounds, "p={p} k={k}: skewed costs differ");
        cfg.pipeline_depth = 2;
        let (_, piped) = run_em(cfg, &prog, init());
        assert_eq!(piped.io, rep.io, "p={p} k={k}: skewed IoStats moved with the depth");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary sorts and machine shapes: the Concurrent backend ends
    /// in the Mem backend's finals, `IoStats` and breakdown, and both
    /// in the reference runner's finals.
    #[test]
    fn random_sorts_agree_across_backends(
        seed in 0u64..1000,
        n in 200usize..800,
        v in 2usize..8,
        p in 1usize..3,
        k in 1usize..4,
    ) {
        let keys = data::uniform_u64(n, seed);
        let prog = CgmSort::<u64>::by_pivots();
        let (want, _) = DirectRunner::default().run(&prog, sort_states(&keys, v)).unwrap();
        let (_, _, req) = measure_requirements(&prog, sort_states(&keys, v)).unwrap();
        let mut cfg = EmConfig::from_requirements(v, p.min(v), 2, 64, &req);
        cfg.vp_group = k;
        let (mem, mem_rep) = run_em(cfg.clone(), &prog, sort_states(&keys, v));
        cfg.backend = BackendSpec::Concurrent { dir: None, opts: Default::default() };
        let (got, rep) = run_em(cfg, &prog, sort_states(&keys, v));
        prop_assert_eq!(&mem, &want);
        prop_assert_eq!(got, mem);
        prop_assert_eq!(rep.io, mem_rep.io);
        prop_assert_eq!(rep.breakdown, mem_rep.breakdown);
    }
}

/// A machine with no drives or zero-byte blocks is refused as a bad
/// config by both runners, before a worker is started.
#[test]
fn zero_geometry_is_a_bad_config_on_both_runners() {
    let prog = TokenRing { rounds: 1 };
    let init = || (0..4u64).map(|i| vec![i]).collect::<Vec<_>>();
    let (_, _, req) = measure_requirements(&prog, init()).unwrap();
    for p in [1usize, 2] {
        for (d, bb, field) in [(0, 64, "num_disks"), (2, 0, "block_bytes")] {
            let mut bad = EmConfig::from_requirements(4, p, 2, 64, &req);
            (bad.num_disks, bad.block_bytes) = (d, bb);
            let errs = [
                SeqEmRunner::new(bad.clone()).run(&prog, init()).unwrap_err(),
                ParEmRunner::new(bad).run(&prog, init()).unwrap_err(),
            ];
            for e in errs {
                assert!(
                    matches!(&e, EmError::BadConfig(m) if m.contains(field)),
                    "p={p} {field} = 0: {e:?}"
                );
            }
        }
    }
}

/// More memory never costs an operation — with one known exception.
/// At `p = 1`, `M` past the working set `W` only lets more message blocks
/// stay open, so a program's ops at `from_requirements`' `M` are at most
/// its ops at `M = W` set by hand. `excess` names the geometries where
/// they are not, and by how many ops: a block held longer is written in a
/// later list, and can land on that list's busiest drive (EXPERIMENTS.md,
/// "The pool's reserve"). Each is pinned, so a new one or a changed one
/// fails.
fn assert_pool_reserve_cost<P: CgmProgram>(
    prog: &P,
    mk: impl Fn() -> Vec<P::State>,
    label: &str,
    excess: &[((usize, usize), u64)],
) {
    let v = mk().len();
    let (_, _, req) = measure_requirements(prog, mk()).unwrap();
    for (d, bb) in [(1usize, 32usize), (2, 64), (4, 64), (2, 512)] {
        let cfg = EmConfig::from_requirements(v, 1, d, bb, &req);
        let at_w = EmConfig { mem_bytes: req.working_set(d, bb), ..cfg.clone() };
        let ops = |cfg| SeqEmRunner::new(cfg).run(prog, mk()).unwrap().1.io.total_ops();
        let (with_pool, without) = (ops(cfg.clone()), ops(at_w));
        let known = excess.iter().find(|e| e.0 == (d, bb)).map_or(0, |e| e.1);
        assert_eq!(
            with_pool.saturating_sub(without),
            known,
            "{label} (D={d}, B={bb}): {with_pool} ops at M = {} vs {without} at W",
            cfg.mem_bytes
        );
    }
}

#[test]
fn more_memory_costs_no_op_except_where_pinned() {
    let ring = || (0..9u64).map(|i| vec![i]).collect::<Vec<_>>();
    assert_pool_reserve_cost(&TokenRing { rounds: 4 }, ring, "ring", &[]);
    let keys = data::uniform_u64(2000, 4);
    let sorts = || -> Vec<SortState> { sort_states(&keys, 7) };
    let by_pivots = CgmSort::<u64>::by_pivots();
    assert_pool_reserve_cost(&by_pivots, sorts, "sort by pivots", &[]);
    assert_pool_reserve_cost(&BalancedSort::<u64>::new(), sorts, "sort", &[((2, 512), 1)]);
    let prefix = || (0..6u64).map(|i| ((0..=i * 5).collect(), Vec::new())).collect::<Vec<_>>();
    assert_pool_reserve_cost(&PrefixSum, prefix, "prefix sum", &[]);
    let (succ, _) = data::random_list(900, 6);
    let n = succ.len() as u64;
    let lists = || -> Vec<_> {
        data::block_split(succ.clone(), 6).into_iter().map(|b| (vec![n], b, Vec::new())).collect()
    };
    assert_pool_reserve_cost(&CgmListRank, lists, "list ranking", &[]);
}
