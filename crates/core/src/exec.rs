//! The one compound-superstep executor behind both EM runners.
//!
//! The paper's Algorithm 3 is Algorithm 2 on `p` real processors with
//! step (d) routed through the interconnect, and so is this module: a
//! [`Worker`] per real processor owns a `D`-disk array, a context
//! store, the ping-pong message-matrix pair and the pipeline window,
//! and runs one fallible [`Worker::superstep`] per round; a
//! [`Coordinator`] turns the workers' barrier reports into a
//! [`Decision`]. Only the [`Link`] a worker talks through depends on `p`:
//!
//! * **`p = 1`** ([`Link::Inline`]) *is* Algorithm 2: each virtual
//!   processor's outbox goes straight into the next matrix, and worker
//!   and coordinator run on the caller's thread — no thread, no
//!   channel, no staging.
//! * **`p ≥ 2`** ([`Link::Wire`]) is Algorithm 3: messages are shipped
//!   to their owners per virtual processor, staged by the receiver, and
//!   written in sorted `(dst, src)` order at the round end, so finals
//!   and I/O counts do not depend on thread scheduling. The staged round
//!   of arrivals sits in the worker's RAM *outside* the `M` audit
//!   (`peak_mem_bytes` does not include it).
//!
//! A worker that fails mid-superstep (I/O error, strict-memory
//! violation, panic in program code) still owes its peers one packet
//! per local virtual processor and the coordinator one report:
//! [`Link::barrier`] pads the exchange, so no failure deadlocks a round.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use cgmio_io::TraceHandle;
use cgmio_model::cost::{CommCosts, RoundCost};
use cgmio_model::threaded::{block_range, owner_of};
use cgmio_model::{CgmProgram, Incoming, ModelError, Outbox, ProcState, RoundCtx, Status};
use cgmio_obs::{Counter, Phase, COORD_PROC};
use cgmio_pdm::{DiskArray, IoError, IoStats, Item, TrackAddr};

use crate::checkpoint::{Checkpoint, CheckpointManifest, RunOutcome, WorkerCheckpoint};
use crate::config::{DiskHandles, EmConfig};
use crate::context::ContextStore;
use crate::msgmatrix::MessageMatrix;
use crate::pipeline::{self, InflightReads};
use crate::report::{EmRunReport, IoBreakdown};
use crate::EmError;

/// A live disk array and its trace handle, as a [`Checkpoint`] carries it.
pub(crate) type LiveDisks = (DiskArray, Option<TraceHandle>);

/// One sender vp's messages for one owner: `(src, dst, items)`.
type Packet<M> = Vec<(usize, usize, Vec<M>)>;

/// How a run enters the superstep loop.
pub(crate) enum Start<S> {
    /// From fresh initial states (all `v`, in pid order).
    Fresh(Vec<S>),
    /// From a barrier snapshot: on the live disks of an in-process
    /// checkpoint, or (`None`) on arrays rebuilt from the config.
    Resume(CheckpointManifest, Option<Vec<LiveDisks>>),
}

/// One worker's share of a [`Start`].
struct WorkerInit<S> {
    /// The worker's virtual processors (global ids).
    range: Range<usize>,
    states: Vec<S>,
    restore: Option<WorkerCheckpoint>,
    disks: Option<LiveDisks>,
}

/// Resume requires the manifest to describe this exact machine: same
/// layout hash (message width included), same shape, workers in order.
fn check_manifest(
    cfg: &EmConfig,
    p: usize,
    msg_bytes: usize,
    m: &CheckpointManifest,
) -> Result<(), EmError> {
    let run_hash = cfg.run_hash(msg_bytes);
    if m.config_hash != run_hash {
        return Err(EmError::BadConfig(format!(
            "checkpoint config hash {:#x} does not match this run's ({run_hash:#x}: config \
             {:#x} with {msg_bytes}-byte messages)",
            m.config_hash,
            cfg.config_hash()
        )));
    }
    let in_order = m.workers.iter().enumerate().all(|(i, w)| w.worker == i);
    if m.v != cfg.v || m.p != p || m.workers.len() != p || !in_order {
        return Err(EmError::BadConfig(format!(
            "checkpoint shape (v={}, p={}, {} workers, in order: {in_order}) does not fit \
             this run (v={}, p={p})",
            m.v,
            m.p,
            m.workers.len(),
            cfg.v
        )));
    }
    Ok(())
}

/// A checkpoint is due at the barrier of `round`.
fn checkpoint_due(cfg: &EmConfig, round: usize) -> bool {
    cfg.checkpoint_dir.is_some() || cfg.halt_after_superstep == Some(round)
}

/// Run `prog` on `p` real processors of machine `cfg`: split the start
/// state over `p` workers, run them — inline at `p = 1`, a scoped thread
/// each under a coordinator loop at `p ≥ 2` — and assemble the outcome.
pub(crate) fn drive<P: CgmProgram>(
    cfg: &EmConfig,
    p: usize,
    prog: &P,
    start: Start<P::State>,
) -> Result<RunOutcome<P::State>, EmError> {
    cfg.validate()?;
    let v = cfg.v;

    let (states, resumed, live) = match start {
        Start::Fresh(states) => (states, None, None),
        Start::Resume(manifest, live) => (Vec::new(), Some(manifest), live),
    };
    match &resumed {
        Some(m) => check_manifest(cfg, p, P::Msg::SIZE, m)?,
        None if states.len() != v => {
            return Err(EmError::BadConfig(format!(
                "config.v = {v} but {} initial states were given",
                states.len()
            )))
        }
        None => {}
    }
    if let Some(n) = live.as_ref().map(Vec::len).filter(|&n| n != p) {
        return Err(EmError::BadConfig(format!(
            "checkpoint carries {n} disk arrays for {p} workers"
        )));
    }

    let start_round = resumed.as_ref().map_or(0, |m| m.superstep + 1);
    let mut manifest = resumed.unwrap_or_else(|| CheckpointManifest {
        config_hash: cfg.run_hash(P::Msg::SIZE),
        v,
        p,
        superstep: 0,
        max_ctx_bytes_seen: 0,
        cross_items: 0,
        rounds: Vec::new(),
        workers: Vec::new(),
    });
    let mut restores = std::mem::take(&mut manifest.workers).into_iter();
    let mut coord = Coordinator { cfg, manifest, halted: false };
    if start_round >= cfg.round_limit {
        return Err(ModelError::RoundLimit(cfg.round_limit).into());
    }
    let (mut states, mut live) = (states.into_iter(), live.map(Vec::into_iter));
    let mut inits = (0..p).map(|t| block_range(v, p, t)).map(|range| WorkerInit {
        // The last worker takes the rest in place (at p = 1: no copy).
        states: match range.end == v {
            true => std::mem::take(&mut states).collect(),
            false => states.by_ref().take(range.len()).collect(),
        },
        range,
        restore: restores.next(),
        disks: live.as_mut().and_then(Iterator::next),
    });

    // A user-supplied fault observer is shared by every worker (and
    // maybe by earlier runs): snapshot it to report this run's window.
    let user_faults = cfg.fault.as_ref().and_then(|pl| pl.observer.clone());
    let fault_base = user_faults.as_ref().map(|s| s.counts()).unwrap_or_default();

    let outs: Vec<Result<WorkerOut<P::State>, EmError>> = if p == 1 {
        let init = inits.next().expect("p = 1 has one worker");
        vec![run_worker(cfg, prog, 0, start_round, init, Link::Inline(&mut coord))]
    } else {
        // One data channel into each worker, one control channel into
        // the coordinator, one decision channel back to each worker.
        let (data_tx, data_rx): (Vec<_>, Vec<_>) = (0..p).map(|_| unbounded()).unzip();
        let (ctrl_tx, ctrl_rx) = unbounded();
        let (dec_tx, dec_rx): (Vec<_>, Vec<_>) = (0..p).map(|_| unbounded()).unzip();
        std::thread::scope(|scope| {
            let handles: Vec<_> = inits
                .zip(data_rx.into_iter().zip(dec_rx))
                .enumerate()
                .map(|(t, (init, (data_rx, dec)))| {
                    let wire = Wire {
                        data_tx: data_tx.clone(),
                        data_rx,
                        ctrl: ctrl_tx.clone(),
                        dec,
                        v,
                        n_local: init.range.len(),
                        arrivals: Vec::new(),
                        recv_count: 0,
                        sent_vps: 0,
                    };
                    scope.spawn(move || {
                        run_worker(cfg, prog, t, start_round, init, Link::Wire(wire))
                    })
                })
                .collect();
            drop((data_tx, ctrl_tx));

            let mut round = start_round;
            loop {
                // One report per worker; fewer means the workers are
                // gone, and the joins below say why.
                let mut reports: Vec<_> = ctrl_rx.iter().take(p).collect();
                if reports.len() < p {
                    break;
                }
                reports.sort_by_key(|&(t, _)| t);
                let decision = coord.decide(round, reports.into_iter().map(|(_, r)| r).collect());
                for tx in &dec_tx {
                    // A worker that is gone is reported by its join.
                    let _ = tx.send(decision.clone());
                }
                if !matches!(decision, Decision::Continue) {
                    break;
                }
                round += 1;
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(t, h)| h.join().unwrap_or_else(|pl| Err(panic_error(t, round, pl))))
                .collect()
        })
    };
    let outs = outs.into_iter().collect::<Result<Vec<_>, _>>()?;

    let manifest = coord.manifest;
    if coord.halted {
        let disks = outs.into_iter().filter_map(|w| w.handoff).collect();
        return Ok(RunOutcome::Interrupted(Checkpoint { manifest, disks }));
    }
    let mut outs = outs.into_iter();
    let WorkerOut { mut finals, mut report, .. } = outs.next().expect("p >= 1 workers");
    for w in outs {
        finals.extend(w.finals);
        report.absorb(w.report);
    }
    // Without a user observer each worker's injector has counters of its
    // own (summed above); with one, all share it.
    if let (Some(u), Some(_)) = (user_faults, report.faults) {
        report.faults = Some(u.counts().diff(fault_base));
    }
    report.p = p;
    report.costs =
        CommCosts { rounds: manifest.rounds, max_context_bytes: manifest.max_ctx_bytes_seen };
    report.cross_thread_items = manifest.cross_items;
    Ok(RunOutcome::Complete { finals, report: Box::new(report) })
}

/// What one worker tells the coordinator at a superstep barrier.
#[derive(Default)]
struct RoundCtl {
    n_done: usize,
    /// Share of the round cost (`min_message`: `usize::MAX` if none sent).
    cost: RoundCost,
    cross_items: u64,
    max_ctx: usize,
    /// Barrier snapshot, when a checkpoint is due this round.
    ckpt: Option<WorkerCheckpoint>,
}

#[derive(Clone)]
enum Decision {
    Continue,
    Stop,
    /// Stop and hand the live disks back (`WorkerOut::handoff`).
    Halt,
    Fail(EmError),
}

/// Run-wide state that is no one worker's, kept as the manifest of the
/// latest barrier: round costs, cross-processor items, largest context.
struct Coordinator<'a> {
    cfg: &'a EmConfig,
    manifest: CheckpointManifest,
    /// The run stopped on [`Decision::Halt`]; `manifest` is its checkpoint.
    halted: bool,
}

impl Coordinator<'_> {
    /// Merge the barrier reports of `round` (ordered by worker) into the
    /// round's cost, the manifest if one is due, and the run's fate.
    fn decide(&mut self, round: usize, reports: Vec<Result<RoundCtl, EmError>>) -> Decision {
        let (cfg, m) = (self.cfg, &mut self.manifest);
        let mut n_done = 0usize;
        let mut rc = RoundCost { min_message: usize::MAX, ..RoundCost::default() };
        let mut parts = Vec::with_capacity(m.p);
        for report in reports {
            let c = match report {
                Ok(c) => c,
                Err(e) => return Decision::Fail(e),
            };
            n_done += c.n_done;
            rc.total_items += c.cost.total_items;
            rc.max_sent = rc.max_sent.max(c.cost.max_sent);
            rc.max_received = rc.max_received.max(c.cost.max_received);
            rc.max_message = rc.max_message.max(c.cost.max_message);
            rc.min_message = rc.min_message.min(c.cost.min_message);
            m.cross_items += c.cross_items;
            m.max_ctx_bytes_seen = m.max_ctx_bytes_seen.max(c.max_ctx);
            parts.extend(c.ckpt);
        }
        if rc.min_message == usize::MAX {
            rc.min_message = 0;
        }
        let sent_any = rc.total_items > 0;
        if sent_any || n_done < cfg.v {
            m.rounds.push(rc);
        }
        if n_done == cfg.v {
            return if sent_any {
                Decision::Fail(ModelError::MessagesAfterDone.into())
            } else {
                Decision::Stop
            };
        }
        if n_done != 0 {
            return Decision::Fail(ModelError::StatusDisagreement { round }.into());
        }

        if checkpoint_due(cfg, round) {
            // Inline, checkpointing is the one real processor's own work.
            let proc = if m.p == 1 { 0 } else { COORD_PROC };
            let _g = cfg.obs.as_ref().map(|o| o.span(proc, round as u64, Phase::Checkpoint));
            m.superstep = round;
            m.workers = parts;
            if let Some(dir) = &cfg.checkpoint_dir {
                if let Err(e) = m.save(&CheckpointManifest::path_in(dir)) {
                    let e = IoError::Backend(format!("saving checkpoint: {e}"));
                    return Decision::Fail(e.into());
                }
            }
            if cfg.halt_after_superstep == Some(round) {
                self.halted = true;
                return Decision::Halt;
            }
        }
        if round + 1 >= cfg.round_limit {
            return Decision::Fail(ModelError::RoundLimit(cfg.round_limit).into());
        }
        Decision::Continue
    }
}

/// A worker's connection to its peers and to the coordinator — the one
/// place Algorithm 2 and Algorithm 3 differ.
enum Link<'c, 'a, M> {
    /// `p = 1`: no transport, and the coordinator is called in place.
    Inline(&'c mut Coordinator<'a>),
    /// `p ≥ 2`: sends and barrier reports travel over channels.
    Wire(Wire<M>),
}

/// Channel ends and per-round exchange state of one `p ≥ 2` worker.
struct Wire<M> {
    /// To each worker's data channel, indexed by owner (self included).
    data_tx: Vec<Sender<Packet<M>>>,
    data_rx: Receiver<Packet<M>>,
    ctrl: Sender<(usize, Result<RoundCtl, EmError>)>,
    dec: Receiver<Decision>,
    /// Packets due here per round: one per sender vp, machine-wide.
    v: usize,
    n_local: usize,
    /// This round's arrivals, staged until the round-end write.
    arrivals: Packet<M>,
    recv_count: usize,
    sent_vps: usize,
}

impl<M: Item> Wire<M> {
    /// Ship vp `src`'s messages to their owners at once — a packet per
    /// peer — to overlap the remaining vps' compute, and stage what has
    /// landed here. Returns the items that left worker `t`.
    fn ship(&mut self, t: usize, src: usize, sent: &mut Vec<(usize, Vec<M>)>) -> u64 {
        let p = self.data_tx.len();
        let mut per_owner: Vec<Packet<M>> = (0..p).map(|_| Vec::new()).collect();
        let mut cross = 0u64;
        for (dst, msg) in sent.drain(..) {
            let owner = owner_of(self.v, p, dst);
            if owner != t {
                cross += msg.len() as u64;
            }
            per_owner[owner].push((src, dst, msg));
        }
        for (tx, packet) in self.data_tx.iter().zip(per_owner) {
            tx.send(packet).expect("peers keep their receivers for the whole run");
        }
        self.sent_vps += 1;
        while let Ok(packet) = self.data_rx.try_recv() {
            self.arrivals.extend(packet);
            self.recv_count += 1;
        }
        cross
    }

    /// Pad for local vps that never shipped (a failed superstep must not
    /// starve its peers), then wait for the stragglers. Idempotent.
    fn finish_exchange(&mut self) {
        for _ in self.sent_vps..self.n_local {
            for tx in &self.data_tx {
                tx.send(Vec::new()).expect("peers keep their receivers for the whole run");
            }
        }
        self.sent_vps = self.n_local;
        while self.recv_count < self.v {
            self.arrivals.extend(self.data_rx.recv().expect("own sender keeps the channel open"));
            self.recv_count += 1;
        }
    }
}

impl<M: Item> Link<'_, '_, M> {
    /// Report worker `t`'s outcome of `round` and wait for the decision.
    fn barrier(&mut self, t: usize, round: usize, report: Result<RoundCtl, EmError>) -> Decision {
        match self {
            Link::Inline(coord) => coord.decide(round, vec![report]),
            Link::Wire(w) => {
                if report.is_err() {
                    w.finish_exchange();
                }
                w.ctrl.send((t, report)).expect("coordinator outlives its workers");
                let decision = w.dec.recv().expect("coordinator outlives its workers");
                w.arrivals.clear();
                w.recv_count = 0;
                w.sent_vps = 0;
                decision
            }
        }
    }
}

/// What one worker returns when the loop ends.
struct WorkerOut<S> {
    finals: Vec<S>,
    /// This real processor's share of the run report.
    report: EmRunReport,
    /// Live disks handed back on [`Decision::Halt`], trace un-drained so
    /// that an in-process resume keeps one continuous trace.
    handoff: Option<LiveDisks>,
}

/// One real processor of the EM-CGM: `D` local disks holding the
/// contexts and inboxes of a contiguous block of virtual processors.
struct Worker<'a, P: CgmProgram> {
    cfg: &'a EmConfig,
    prog: &'a P,
    /// Real-processor index; also the `proc` label of every span.
    t: usize,
    /// The local virtual processors (global ids).
    range: Range<usize>,
    h: DiskHandles,
    /// I/O paid before these disks were (re)opened: the checkpoint's
    /// when rebuilding from files, else zero (live arrays keep theirs).
    base_io: IoStats,
    /// Counter positions at entry (a registry may hold earlier runs').
    base_retries: u64,
    base_deferred_drops: u64,
    ctx_store: ContextStore,
    /// Ping-pong pair: round `r` reads `mats[r % 2]`, writes the other
    /// (two copies instead of Observation 2's one; equal I/O counts).
    mats: [MessageMatrix<P::Msg>; 2],
    breakdown: IoBreakdown,
    peak_mem: usize,
    /// Largest open-block pool held since this worker started.
    peak_open: usize,
    /// Context blocks step (e) found unchanged and did not write.
    ctx_kept: u64,
    /// Scratch of the group being simulated, one entry per slot: its
    /// context (read into, then encoded after the image read, or into
    /// when there is none), the `(src, items)` list
    /// of its inbox and the `(dst, items)` list of its outbox, emptied
    /// between groups. Once grown to the largest group, the swap path
    /// stops allocating. `ctxs.len()` is the group size `k`.
    ctxs: Vec<Vec<u8>>,
    inboxes: Vec<Vec<(usize, Vec<P::Msg>)>>,
    sents: Vec<Vec<(usize, Vec<P::Msg>)>>,
    /// The group's decoded states, drained at step (e).
    states: Vec<P::State>,
    /// A fresh run's input, drained by superstep 0 in place of step (a).
    input: std::vec::IntoIter<P::State>,
    /// States of `Done` vps, kept at step (e) instead of written back
    /// (sized once: regrowing it in the last superstep fragments the heap).
    finals: Vec<P::State>,
    /// Address list of the read-ahead hints, refilled for each.
    hints: Vec<TrackAddr>,
    /// Step (a)+(b) reads run this many groups ahead.
    depth: usize,
    inflight: InflightReads,
}

impl<'a, P: CgmProgram> Worker<'a, P> {
    /// Open (or adopt) real processor `t`'s disks, lay out contexts and
    /// matrices, and hold the input or restore the barrier metadata so
    /// that `round` runs next.
    fn new(
        cfg: &'a EmConfig,
        prog: &'a P,
        t: usize,
        round: usize,
        init: WorkerInit<P::State>,
    ) -> Result<Self, EmError> {
        let _g = cfg.obs.as_ref().map(|o| o.span(t as u64, round as u64, Phase::Setup));
        let (v, range, geom) = (cfg.v, init.range, cfg.geometry());
        let mut base_io = IoStats::new(geom.num_disks);
        let h = match init.disks {
            // Retry/fault handles do not travel with a checkpoint: the
            // resumed portion reports zero of both.
            Some((disks, trace)) => DiskHandles {
                disks,
                trace,
                retries: Counter::detached(),
                faults: None,
                deferred_drops: Counter::detached(),
                hint_cache: false,
            },
            None => {
                if let Some(wc) = &init.restore {
                    base_io = wc.io.clone();
                }
                cfg.build_disks(t)?
            }
        };
        let (base_retries, base_deferred_drops) = (h.retries.get(), h.deferred_drops.get());

        let mut ctx_store =
            ContextStore::new(geom.num_disks, geom.block_bytes, 0, range.len(), cfg.max_ctx_bytes)
                .with_carry(cfg.carry_blocks());
        let k = cfg.vp_group.min(range.len()).max(1);
        // Both matrices follow the contexts (`EmConfig::tracks_per_worker`).
        let mk_mat = |base| {
            let (d, bb, slot) = (geom.num_disks, geom.block_bytes, cfg.msg_slot_items);
            MessageMatrix::<P::Msg>::new(d, bb, base, v, range.start, range.len(), slot)
        };
        let mat0 = mk_mat(ctx_store.total_tracks());
        let mat1 = mk_mat(ctx_store.total_tracks() + mat0.total_tracks());
        let mut mats = [mat0, mat1];

        let (mut breakdown, mut peak_mem) = (IoBreakdown::default(), 0usize);
        if let Some(wc) = init.restore {
            // The disks hold the barrier state. The matrix written during
            // the checkpointed superstep is the one `round` reads; its
            // partner was cleared (= a fresh matrix).
            ctx_store.set_lens_rle(&wc.ctx_lens)?;
            mats[round % 2].set_sparse_lens(wc.inbox_lens)?;
            breakdown = wc.breakdown;
            peak_mem = wc.peak_mem;
        }

        let depth = cfg.pipeline_depth.min(range.len().div_ceil(k));
        Ok(Self {
            cfg,
            prog,
            t,
            range,
            h,
            base_io,
            base_retries,
            base_deferred_drops,
            ctx_store,
            mats,
            breakdown,
            peak_mem,
            peak_open: 0,
            ctx_kept: 0,
            ctxs: (0..k).map(|_| Vec::new()).collect(),
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            sents: (0..k).map(|_| Vec::new()).collect(),
            states: Vec::with_capacity(k),
            finals: Vec::with_capacity(init.states.len()),
            input: init.states.into_iter(),
            hints: Vec::new(),
            depth,
            inflight: InflightReads::new(),
        })
    }

    /// One compound superstep: for each group of `k` local vps in turn
    /// **(a)** contexts in and **(b)** inboxes in — a gather list each —
    /// **(c)** each vp's compute, **(d)** messages out (one list per
    /// group at `p = 1`, shipped per vp at `p ≥ 2`), **(e)** contexts
    /// out as one list; then the barrier flush. Superstep 0 of a fresh
    /// run takes its states from the input instead of (a)+(b) (it has no
    /// inbox), and a group of `Done` vps keeps them as finals, not (e).
    fn superstep(
        &mut self,
        round: usize,
        link: &mut Link<'_, '_, P::Msg>,
    ) -> Result<RoundCtl, EmError> {
        let Self { cfg, t, range, h, ctx_store, mats, breakdown, inflight, input, .. } = self;
        let Self { ctxs, inboxes, sents, states, finals, depth, prog, .. } = self;
        let Self { peak_mem, peak_open, ctx_kept, hints, .. } = self;
        let (cfg, t, depth, hinted) = (*cfg, *t, *depth, h.hint_cache);
        let disks = &mut h.disks;
        let (v, first, n_local, k) = (cfg.v, range.start, range.len(), ctxs.len());
        let group = |g: usize| (g * k).min(n_local)..((g + 1) * k).min(n_local);
        let globally = |slots: Range<usize>| first + slots.start..first + slots.end;
        // Spans publish (superstep, phase) to the io layer; free without obs.
        let span = |ph: Phase| cfg.obs.as_ref().map(|o| o.span(t as u64, round as u64, ph));
        let [m0, m1] = mats;
        let (mat_cur, mat_next) = if round % 2 == 1 { (m1, m0) } else { (m0, m1) };
        let mut ctl = RoundCtl::default();
        ctl.cost.min_message = usize::MAX;

        let (mut input, mut submitted) = (std::mem::take(input), 0);
        for (g, slots) in groups(n_local, k).enumerate() {
            let n = slots.len();
            let (ctxs, inboxes, sents) = (&mut ctxs[..n], &mut inboxes[..n], &mut sents[..n]);
            // The M audit charges each context at its encoded length.
            // Without (a) `ctxs` holds an earlier group's bytes, no image.
            let imaged = input.len() == 0;
            let mut mem = if !imaged {
                states.extend(input.by_ref().take(n));
                states.iter().map(ProcState::encoded_len).sum()
            } else {
                // (a)+(b): keep reads in flight up to group `g + depth`,
                // then redeem group `g`'s. No read of `r` is charged
                // before `r` begins: manifests match at every depth.
                while submitted < n_local.div_ceil(k) && submitted <= g + depth {
                    inflight.push_back(pipeline::submit_group_reads(
                        span,
                        disks,
                        ctx_store,
                        mat_cur,
                        breakdown,
                        group(submitted),
                        group(submitted + 1),
                        first,
                    )?);
                    submitted += 1;
                }
                let (ctx_t, inbox_t) = inflight.pop_front().expect("group g is in flight");
                let gs = span(Phase::CtxLoad);
                let mut mem = inbox_t.items() * P::Msg::SIZE;
                // (A stash that gave way is read again here.)
                let ops0 = disks.stats().total_ops();
                ctx_store.read_finish(disks, ctx_t, ctxs)?;
                breakdown.ctx_ops += disks.stats().total_ops() - ops0;
                for (slot, bytes) in slots.clone().zip(ctxs.iter()) {
                    mem += bytes.len();
                    let state = P::State::try_from_bytes(bytes);
                    states.push(state.map_err(|e| ctx_store.corrupt_error(slot, e))?);
                }
                drop(gs);
                let gs = span(Phase::MatrixRead);
                mat_cur.read_for_dst_finish_into(disks, inbox_t, inboxes)?;
                drop(gs);
                mem
            };

            // (c) compute, behind read-ahead hints (never counted as I/O).
            let gs = span(Phase::Rounds);
            if slots.end == n_local {
                // Boundary: the first local group's next contexts are on
                // disk already; its inboxes are hinted once they are, below.
                hints.clear();
                ctx_store.read_addrs(group(0), hints);
                disks.prefetch(hints);
            } else if depth == 0 && hinted {
                // (The pipelined path pre-issues real reads instead, and
                // only a backend with a prefetch cache keeps a hint: the
                // others would have the two lists built to drop them.)
                hints.clear();
                ctx_store.read_addrs(group(g + 1), hints);
                mat_cur.read_addrs_for_dst(globally(group(g + 1)), hints);
                disks.prefetch(hints);
            }
            let done0 = ctl.n_done;
            for (i, state) in states.iter_mut().enumerate() {
                let pid = first + slots.start + i;
                let mut outbox = Outbox::reusing(v, std::mem::take(&mut sents[i]));
                let incoming = Incoming::from_sparse(v, std::mem::take(&mut inboxes[i]));
                let mut rctx = RoundCtx { pid, v, round, incoming, outbox: &mut outbox };
                if prog.round(&mut rctx, state) == Status::Done {
                    ctl.n_done += 1;
                }
                inboxes[i] = rctx.incoming.into_sparse();
                inboxes[i].clear();
                let out_items = outbox.total();
                mem += out_items * P::Msg::SIZE;
                ctl.cost.max_sent = ctl.cost.max_sent.max(out_items);
                ctl.cost.total_items += out_items;
                sents[i] = outbox.into_sparse();
                for (_, msg) in &sents[i] {
                    ctl.cost.max_message = ctl.cost.max_message.max(msg.len());
                    ctl.cost.min_message = ctl.cost.min_message.min(msg.len());
                }
            }
            drop(gs);

            // Memory audit: the open message blocks carried from earlier
            // groups are in RAM from the group's start, and its contexts
            // + inboxes + outboxes join them, with the context carries;
            // all must fit in M. The carries give way first, so a strict
            // run fails only on what it would hold without them. The
            // blocks held after its write take only what the working set
            // leaves beyond D blocks of I/O buffer and the carries' room.
            let mut live = mat_next.open_bytes() + mem;
            if live + ctx_store.carried_bytes() > cfg.mem_bytes {
                let ops0 = disks.stats().total_ops();
                ctx_store.give_way(disks)?;
                breakdown.ctx_ops += disks.stats().total_ops() - ops0;
            }
            live += ctx_store.carried_bytes();
            if cfg.strict && live > cfg.mem_bytes {
                let pid = first + slots.start;
                return Err(EmError::MemoryExceeded { pid, need: live, m: cfg.mem_bytes });
            }

            // (d) messages out — only destinations actually sent to
            // (sorted, merged): O(fanout) per vp, not O(v).
            match link {
                // Algorithm 2: straight into the next matrix's mailboxes.
                Link::Inline(_) => {
                    let _g = span(Phase::MatrixWrite);
                    let entries =
                        globally(slots.clone()).zip(sents.iter()).flat_map(|(pid, sent)| {
                            sent.iter().map(move |(dst, msg)| (pid, *dst, msg.as_slice()))
                        });
                    let reserved = (cfg.num_disks + 2 * ctx_store.carry()) * cfg.block_bytes;
                    let free = cfg.mem_bytes.saturating_sub(mem + reserved);
                    let hold = if slots.end == n_local { 0 } else { free / cfg.block_bytes };
                    let ops0 = disks.stats().total_ops();
                    mat_next.write_entries(disks, entries, hold)?;
                    breakdown.msg_ops += disks.stats().total_ops() - ops0;
                    *peak_open = (*peak_open).max(mat_next.open_bytes());
                    mem += mat_next.open_bytes();
                    if slots.end == n_local {
                        hints.clear();
                        mat_next.read_addrs_for_dst(globally(group(0)), hints);
                        disks.prefetch(hints);
                    }
                }
                // Algorithm 3: to the owner, who writes it at the round end.
                Link::Wire(w) => {
                    for (pid, sent) in globally(slots.clone()).zip(sents.iter_mut()) {
                        ctl.cross_items += w.ship(t, pid, sent);
                    }
                }
            }
            *peak_mem = (*peak_mem).max(live).max(mem + ctx_store.carried_bytes());
            sents.iter_mut().for_each(Vec::clear);

            // (e) contexts out, each checked against its slot: only the
            // blocks that differ from the image read in (a), if there is
            // one, behind the blocks earlier lists held back. It holds
            // blocks back only in what M leaves beside the group and the
            // stash, and the superstep's last list holds none. A group of
            // `Done` vps (never read again: see `decide`) keeps its
            // finals.
            let _g = span(Phase::CtxLoad);
            let done = ctl.n_done - done0 == n;
            for (i, (state, buf)) in states.iter().zip(ctxs.iter_mut()).enumerate() {
                let len = if done {
                    state.encoded_len()
                } else if imaged {
                    let image = buf.len();
                    state.encode_append(buf);
                    buf.len() - image
                } else {
                    state.encode_to_vec(buf);
                    buf.len()
                };
                ctl.max_ctx = ctl.max_ctx.max(len);
                if len > cfg.max_ctx_bytes {
                    let (pid, cap) = (first + slots.start + i, cfg.max_ctx_bytes);
                    return Err(EmError::CtxSlotOverflow { pid, len, cap });
                }
            }
            if done {
                finals.append(states);
            } else {
                states.clear();
                let ops0 = disks.stats().total_ops();
                let room = match slots.end < n_local {
                    true => cfg.mem_bytes.saturating_sub(mem + ctx_store.stash_bytes()),
                    false => 0,
                };
                *ctx_kept += ctx_store.write_slots(disks, slots.start, ctxs, imaged, room)?;
                breakdown.ctx_ops += disks.stats().total_ops() - ops0;
                *peak_mem = (*peak_mem).max(mem + ctx_store.carried_bytes());
            }
        }
        // What a trailing group that wrote nothing left held back.
        let ops0 = disks.stats().total_ops();
        ctx_store.write_held(disks)?;
        breakdown.ctx_ops += disks.stats().total_ops() - ops0;

        if let Link::Wire(w) = link {
            // Receiving half of step (d): write the round's arrivals to
            // the local disks, sorted so that I/O is deterministic.
            let g = span(Phase::Route);
            w.finish_exchange();
            w.arrivals.sort_unstable_by_key(|&(src, dst, _)| (dst, src));
            drop(g);
            let _g = span(Phase::MatrixWrite);
            let entries = w.arrivals.iter().map(|(src, dst, msg)| (*src, *dst, msg.as_slice()));
            let ops0 = disks.stats().total_ops();
            mat_next.write_entries(disks, entries, 0)?;
            breakdown.msg_ops += disks.stats().total_ops() - ops0;
            hints.clear();
            mat_next.read_addrs_for_dst(globally(group(0)), hints);
            disks.prefetch(hints);
        }

        // Barrier: drain write-behind, surface deferred write errors
        // (uncounted). A due checkpoint makes the flush fsync, so the
        // manifest never describes data still in volatile caches.
        let want_ckpt = checkpoint_due(cfg, round);
        let g = span(Phase::Barrier);
        disks.flush(want_ckpt)?;
        drop(g);
        // What was sent this round is what the next matrix now holds.
        ctl.cost.max_received = mat_next.max_received_items();
        if want_ckpt {
            let mut io = self.base_io.clone();
            io.merge(disks.stats());
            ctl.ckpt = Some(WorkerCheckpoint {
                worker: t,
                ctx_lens: ctx_store.lens_rle(),
                inbox_lens: mat_next.sparse_lens(),
                io,
                breakdown: *breakdown,
                peak_mem: self.peak_mem,
            });
        }
        Ok(ctl)
    }

    /// After the last barrier, `wall` into the loop: hand the live disks
    /// back if `halted`, else the finals the last superstep collected.
    fn finish(self, round: usize, halted: bool, wall: Duration) -> WorkerOut<P::State> {
        let (cfg, t, round) = (self.cfg, self.t as u64, round as u64);
        let _g = cfg.obs.as_ref().filter(|_| !halted).map(|o| o.span(t, round, Phase::Readout));
        let mut io = self.base_io;
        io.merge(self.h.disks.stats());
        let DiskHandles { disks, trace, retries, faults, deferred_drops, .. } = self.h;
        let (io_trace, handoff) = if halted {
            (Vec::new(), Some((disks, trace)))
        } else {
            (trace.map(|t| t.drain()).unwrap_or_default(), None)
        };
        let report = EmRunReport {
            costs: CommCosts::default(),
            io,
            breakdown: self.breakdown,
            geometry: cfg.geometry(),
            p: 1,
            v: cfg.v,
            peak_mem_bytes: self.peak_mem,
            peak_open_bytes: self.peak_open,
            ctx_blocks_kept: self.ctx_kept,
            ctx_blocks_carried: self.ctx_store.carry_counts().0,
            ctx_blocks_preread: self.ctx_store.carry_counts().1,
            cross_thread_items: 0,
            wall,
            io_trace,
            faults: faults.map(|s| s.counts()),
            retries: retries.get().saturating_sub(self.base_retries),
            deferred_write_errors_dropped: deferred_drops
                .get()
                .saturating_sub(self.base_deferred_drops),
        };
        WorkerOut { finals: self.finals, report, handoff }
    }
}

/// Slots `0..n` in groups of `k` consecutive ones (the last may be
/// short).
fn groups(n: usize, k: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n).step_by(k).map(move |s| s..(s + k).min(n))
}

/// The loop of real processor `t`: set up, then superstep →
/// barrier → decision until the run stops. A failed set-up is reported
/// at the first barrier like a failed superstep.
fn run_worker<P: CgmProgram>(
    cfg: &EmConfig,
    prog: &P,
    t: usize,
    mut round: usize,
    init: WorkerInit<P::State>,
    mut link: Link<'_, '_, P::Msg>,
) -> Result<WorkerOut<P::State>, EmError> {
    let mut worker = guard(t, round, || Worker::new(cfg, prog, t, round, init));
    let t0 = Instant::now();
    let halted = loop {
        let report = match &mut worker {
            Ok(w) => guard(t, round, || w.superstep(round, &mut link)),
            Err(e) => Err(e.clone()),
        };
        match link.barrier(t, round, report) {
            Decision::Continue => {
                // Recycle the matrix just read.
                if let Ok(w) = &mut worker {
                    w.mats[round % 2].clear();
                }
                round += 1;
            }
            Decision::Stop => break false,
            Decision::Halt => break true,
            Decision::Fail(e) => return Err(e),
        }
    };
    let wall = t0.elapsed();
    worker.map(|w| w.finish(round, halted, wall))
}

/// Run `f` (program code runs inside), turning a panic into a typed
/// error so that the caller can still meet its round-protocol duties;
/// the half-updated worker is never used again.
fn guard<T>(
    proc: usize,
    superstep: usize,
    f: impl FnOnce() -> Result<T, EmError>,
) -> Result<T, EmError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|pl| Err(panic_error(proc, superstep, pl)))
}

fn panic_error(proc: usize, superstep: usize, payload: Box<dyn std::any::Any + Send>) -> EmError {
    let message = payload.downcast_ref::<String>().map(String::as_str);
    let message = message.or(payload.downcast_ref::<&str>().copied()).unwrap_or("(no message)");
    EmError::WorkerPanicked { proc, superstep, message: message.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_requirements;
    use crate::BackendSpec;
    use cgmio_model::demo::{AllToAll, TokenRing};
    use cgmio_pdm::FaultStats;
    use std::sync::Arc;

    fn config_for<P: CgmProgram>(
        prog: &P,
        states: Vec<P::State>,
        p: usize,
        d: usize,
        bb: usize,
    ) -> EmConfig {
        let v = states.len();
        let (_, _, req) = measure_requirements(prog, states).unwrap();
        EmConfig::from_requirements(v, p, d, bb, &req)
    }

    fn run<P: CgmProgram>(
        cfg: &EmConfig,
        p: usize,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, EmRunReport), EmError> {
        drive(cfg, p, prog, Start::Fresh(states))?.completed()
    }

    fn ring_init(v: usize) -> Vec<Vec<u64>> {
        (0..v as u64).map(|i| vec![i]).collect()
    }

    #[test]
    fn halt_resume_in_process_matches_uninterrupted() {
        for (v, p) in [(4usize, 1usize), (6, 3)] {
            let prog = TokenRing { rounds: 5 };
            let cfg = config_for(&prog, ring_init(v), p, 2, 16);
            let (want, want_rep) = run(&cfg, p, &prog, ring_init(v)).unwrap();
            for halt in 0..4 {
                let mut hcfg = cfg.clone();
                hcfg.halt_after_superstep = Some(halt);
                let ckpt = match drive(&hcfg, p, &prog, Start::Fresh(ring_init(v))).unwrap() {
                    RunOutcome::Interrupted(c) => c,
                    RunOutcome::Complete { .. } => panic!("expected halt at superstep {halt}"),
                };
                assert_eq!(ckpt.manifest.superstep, halt);
                assert_eq!(ckpt.manifest.workers.len(), p);
                let (finals, rep) =
                    drive(&cfg, p, &prog, Start::Resume(ckpt.manifest, Some(ckpt.disks)))
                        .unwrap()
                        .expect_complete();
                assert_eq!(finals, want, "p={p} halt={halt}");
                assert_eq!(rep.io, want_rep.io, "p={p} halt={halt}");
                assert_eq!(rep.breakdown, want_rep.breakdown, "p={p} halt={halt}");
                assert_eq!(
                    rep.cross_thread_items, want_rep.cross_thread_items,
                    "p={p} halt={halt}"
                );
                assert_eq!(rep.costs, want_rep.costs, "p={p} halt={halt}");
            }
        }
    }

    #[test]
    fn resume_from_manifest_on_files_matches_uninterrupted() {
        for (v, p, halt) in [(5usize, 1usize, 2usize), (6, 2, 3)] {
            let prog = TokenRing { rounds: 6 };
            let mut cfg = config_for(&prog, ring_init(v), p, 2, 16);
            let (want, want_rep) = run(&cfg, p, &prog, ring_init(v)).unwrap();
            let dir = cgmio_pdm::testutil::TempDir::new("cgmio-exec-resume");
            cfg.backend = BackendSpec::SyncFile { dir: dir.path().join("drives") };
            cfg.checkpoint_dir = Some(dir.path().to_path_buf());
            cfg.halt_after_superstep = Some(halt);
            match drive(&cfg, p, &prog, Start::Fresh(ring_init(v))).unwrap() {
                // "Crash": drop the live state, keep only the files.
                RunOutcome::Interrupted(c) => drop(c),
                RunOutcome::Complete { .. } => panic!("expected halt"),
            }
            let manifest =
                CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            assert_eq!(manifest.superstep, halt);
            assert_eq!(manifest.workers.len(), p);
            cfg.halt_after_superstep = None;
            let (finals, rep) =
                drive(&cfg, p, &prog, Start::Resume(manifest, None)).unwrap().expect_complete();
            assert_eq!(finals, want, "p={p}");
            assert_eq!(rep.io, want_rep.io, "p={p}");
            assert_eq!(rep.breakdown, want_rep.breakdown, "p={p}");
            assert_eq!(rep.cross_thread_items, want_rep.cross_thread_items, "p={p}");
            assert_eq!(rep.costs, want_rep.costs, "p={p}");
        }
    }

    #[test]
    fn injected_transient_faults_heal_without_changing_results() {
        for (v, p, seed) in [(6usize, 1usize, 7u64), (8, 4, 23)] {
            let prog = AllToAll { items_per_pair: 6 };
            let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
            let cfg = config_for(&prog, init(), p, 2, 32);
            let (want, want_rep) = run(&cfg, p, &prog, init()).unwrap();

            let stats = Arc::new(FaultStats::default());
            let mut fcfg = cfg.clone();
            fcfg.fault =
                Some(cgmio_pdm::FaultPlan::transient(seed, 0.05).with_observer(stats.clone()));
            fcfg.retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
            let (got, rep) = run(&fcfg, p, &prog, init()).unwrap();
            assert_eq!(got, want, "p={p}");
            // Retries are recovery traffic, not model I/O: counts unchanged.
            assert_eq!(rep.io, want_rep.io, "p={p}");
            assert!(stats.counts().total_errors() > 0, "p={p}: no faults were injected");
            // The shared observer is counted once, not once per worker,
            // and the report window matches the observer exactly.
            assert_eq!(rep.faults, Some(stats.counts()), "p={p}");
            assert!(rep.retries > 0, "p={p}: transient faults must have been retried");
        }
    }

    /// One round in which every vp sends one item to every vp, so each
    /// mailbox is left with an open block after every write.
    struct EveryoneToEveryone;

    impl CgmProgram for EveryoneToEveryone {
        type Msg = u64;
        type State = Vec<u64>;

        fn round(&self, ctx: &mut RoundCtx<'_, u64>, _state: &mut Vec<u64>) -> Status {
            if ctx.round == 1 {
                return Status::Done;
            }
            for dst in 0..ctx.v {
                ctx.push(dst, ctx.pid as u64);
            }
            Status::Continue
        }
    }

    #[test]
    fn carried_pool_is_charged_from_the_group_start() {
        // vp 0's small working set lets the pool keep all four mailboxes'
        // open blocks (hold 4, beside the D-block buffer and the room of
        // one carried block each way); they are still in RAM while vp 2
        // works on a context 40 times larger, and only its write flushes
        // them. The block of vp 1's context its write held back gives way
        // to vp 2: written before vp 2's messages, it is in no peak.
        let init = || (0..4u64).map(|i| vec![i; if i == 2 { 40 } else { 1 }]).collect::<Vec<_>>();
        let prog = EveryoneToEveryone;
        let mut cfg = config_for(&prog, init(), 1, 2, 64);
        (cfg.vp_group, cfg.mem_bytes) = (1, 576);
        assert_eq!(cfg.carry_blocks(), 1);
        let (pool, working) = (4 * 64, init()[2].encoded_len() + 4 * u64::SIZE);
        assert!(pool + working > cfg.mem_bytes && working <= cfg.mem_bytes - 2 * 64);
        let (_, rep) = run(&cfg, 1, &prog, init()).unwrap();
        assert_eq!(rep.peak_mem_bytes, pool + working);
        assert!(rep.ctx_blocks_carried > 0);
        cfg.strict = true;
        let e = run(&cfg, 1, &prog, init()).unwrap_err();
        assert!(
            matches!(e, EmError::MemoryExceeded { pid: 2, need, m: 576 } if need == pool + working),
            "{e:?}"
        );
        // With room for the pool and vp 2 but not for the carried block
        // too, a strict run passes: the block gives way, and the peak is M.
        cfg.mem_bytes = pool + working;
        assert_eq!(cfg.carry_blocks(), 1);
        let (_, rep) = run(&cfg, 1, &prog, init()).unwrap();
        assert_eq!(rep.peak_mem_bytes, cfg.mem_bytes);
        assert!(rep.ctx_blocks_carried > 0);
    }

    /// Two rounds that change nothing, then done.
    struct Idle;

    impl CgmProgram for Idle {
        type Msg = u64;
        type State = Vec<u64>;

        fn round(&self, ctx: &mut RoundCtx<'_, u64>, _state: &mut Vec<u64>) -> Status {
            if ctx.round == 2 {
                return Status::Done;
            }
            Status::Continue
        }
    }

    #[test]
    fn superstep_0_writes_identical_states_in_full() {
        // Four identical 3-block contexts. Superstep 0 has no image: the
        // scratch holds the previous group's bytes — the same bytes — and
        // comparing with them would leave slots unwritten. Superstep 1
        // reads each image back and keeps all of it.
        let init = || vec![vec![7u64; 20]; 4];
        for k in [1usize, 2] {
            let mut cfg = config_for(&Idle, init(), 1, 2, 64);
            cfg.vp_group = k;
            let (finals, rep) = run(&cfg, 1, &Idle, init()).unwrap();
            assert_eq!(finals, init(), "k={k}");
            assert_eq!(rep.ctx_blocks_kept, 12, "k={k}");
            assert_eq!((rep.io.blocks_written, rep.io.blocks_read), (12, 24), "k={k}");
        }
    }

    /// One round of a token ring in which vp `at` misbehaves: it panics,
    /// or grows its context past the context slot (step (e) then fails
    /// with the vps after it not yet simulated).
    struct Misbehave {
        at: usize,
        panic: bool,
    }

    impl CgmProgram for Misbehave {
        type Msg = u64;
        type State = Vec<u64>;

        fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut Vec<u64>) -> Status {
            if ctx.round == 1 {
                return Status::Done;
            }
            if ctx.pid == self.at {
                assert!(!self.panic, "vp {} misbehaves", ctx.pid);
                state.resize(1024, 0);
            }
            ctx.push((ctx.pid + 1) % ctx.v, state[0]);
            Status::Continue
        }
    }

    /// Run `f` on a thread of its own and fail — rather than hang the
    /// test binary — if it is still running after a minute. (The thread
    /// is deliberately not joined: a hung run is the failure tested for.)
    fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(60)).expect("the run hung")
    }

    #[test]
    fn panic_in_round_is_a_typed_error_not_a_hang() {
        // vp 3 lives on real processor 1 of 2; processor 0 and the
        // coordinator must not be left waiting for it.
        let cfg = config_for(&TokenRing { rounds: 1 }, ring_init(4), 2, 2, 16);
        let prog = Misbehave { at: 3, panic: true };
        let e = within_deadline(move || run(&cfg, 2, &prog, ring_init(4)).unwrap_err());
        match e {
            EmError::WorkerPanicked { proc: 1, superstep: 0, message } => {
                assert!(message.contains("vp 3 misbehaves"), "{message}")
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn io_error_mid_superstep_joins_every_worker() {
        // vp 1 is the second of real processor 0's three local vps: its
        // step (e) fails after its packets were shipped, with vp 2 never
        // reached, so the exchange has to be padded for the peers.
        for depth in [0usize, 2] {
            let mut cfg = config_for(&TokenRing { rounds: 1 }, ring_init(6), 2, 2, 16);
            cfg.pipeline_depth = depth;
            let cap = cfg.max_ctx_bytes;
            let prog = Misbehave { at: 1, panic: false };
            let e = within_deadline(move || run(&cfg, 2, &prog, ring_init(6)).unwrap_err());
            assert!(
                matches!(e, EmError::CtxSlotOverflow { pid: 1, cap: c, .. } if c == cap),
                "depth={depth}: got {e:?}"
            );
        }
    }
}
