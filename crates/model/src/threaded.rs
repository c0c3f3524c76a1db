//! Multi-threaded CGM runner: `p` OS threads stand in for the `p` real
//! processors of the paper's target machine, with crossbeam channels as
//! the interconnect.
//!
//! Virtual processors are assigned to threads in contiguous blocks (the
//! same assignment the parallel EM simulation uses), supersteps are
//! globally synchronous, and the runner counts the items that actually
//! cross a thread boundary — the `g′`-chargeable traffic of the EM-CGM
//! cost model.

use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::cost::{CommCosts, RoundCost};
use crate::program::{CgmProgram, Incoming, Outbox, RoundCtx, Status};
use crate::{ModelError, DEFAULT_ROUND_LIMIT};

/// Multi-threaded runner configuration.
#[derive(Debug, Clone)]
pub struct ThreadedRunner {
    /// Number of worker threads (real processors). Clamped to `v`.
    pub p: usize,
    /// Livelock guard.
    pub round_limit: usize,
}

impl ThreadedRunner {
    /// Runner with `p` threads and the default round limit.
    pub fn new(p: usize) -> Self {
        Self { p, round_limit: DEFAULT_ROUND_LIMIT }
    }
}

/// Outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedRunReport {
    /// h-relation accounting, identical in shape to [`crate::DirectRunner`]'s.
    pub costs: CommCosts,
    /// Items that crossed a thread (real-processor) boundary.
    pub cross_thread_items: u64,
    /// Wall-clock time of the superstep loop.
    pub wall: Duration,
}

/// Per-round report a worker sends to the coordinator.
struct RoundCtl {
    n_done: usize,
    n_procs: usize,
    sent_total: usize,
    max_sent: usize,
    max_received: usize,
    max_message: usize,
    min_message: usize,
    cross_items: u64,
}

enum Decision {
    Continue,
    Stop,
    Fail(ModelError),
}

/// Contiguous block of virtual processors owned by real processor `t`.
pub fn block_range(v: usize, p: usize, t: usize) -> std::ops::Range<usize> {
    let base = v / p;
    let extra = v % p;
    let start = t * base + t.min(extra);
    let len = base + usize::from(t < extra);
    start..start + len
}

/// Which real processor owns virtual processor `pid`.
pub fn owner_of(v: usize, p: usize, pid: usize) -> usize {
    // Inverse of `block_range`.
    let base = v / p;
    let extra = v % p;
    let boundary = extra * (base + 1);
    if pid < boundary {
        pid / (base + 1)
    } else {
        extra + (pid - boundary) / base
    }
}

impl ThreadedRunner {
    /// Run `prog` on the given initial states across `p` threads.
    pub fn run<P: CgmProgram>(
        &self,
        prog: &P,
        states: Vec<P::State>,
    ) -> Result<(Vec<P::State>, ThreadedRunReport), ModelError> {
        let v = states.len();
        assert!(v > 0, "need at least one virtual processor");
        let p = self.p.clamp(1, v);
        let round_limit = self.round_limit;

        // Data channels: data_tx[i][j] sends from thread i to thread j.
        let mut data_tx: Vec<Vec<Sender<Packet<P::Msg>>>> = (0..p).map(|_| Vec::new()).collect();
        let mut data_rx: Vec<Receiver<Packet<P::Msg>>> = Vec::with_capacity(p);
        {
            let mut txs_per_dst: Vec<Vec<Sender<Packet<P::Msg>>>> =
                (0..p).map(|_| Vec::new()).collect();
            for txs in txs_per_dst.iter_mut() {
                let (tx, rx) = unbounded();
                data_rx.push(rx);
                for _i in 0..p {
                    txs.push(tx.clone());
                }
            }
            // reorganise: data_tx[i][j]
            for (i, row) in data_tx.iter_mut().enumerate() {
                for txs in txs_per_dst.iter() {
                    row.push(txs[i].clone());
                }
            }
        }
        let (ctrl_tx, ctrl_rx) = unbounded::<(usize, RoundCtl)>();
        let mut dec_tx: Vec<Sender<Decision>> = Vec::with_capacity(p);
        let mut dec_rx: Vec<Receiver<Decision>> = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            dec_tx.push(tx);
            dec_rx.push(rx);
        }

        // Split the states into per-thread blocks.
        let mut blocks: Vec<Vec<P::State>> = Vec::with_capacity(p);
        {
            let mut it = states.into_iter();
            for t in 0..p {
                let r = block_range(v, p, t);
                blocks.push(it.by_ref().take(r.len()).collect());
            }
        }

        let start = Instant::now();
        let mut costs = CommCosts::default();
        let mut cross_total: u64 = 0;
        let mut run_error: Option<ModelError> = None;

        let mut finished: Vec<Option<Vec<P::State>>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (t, block) in blocks.into_iter().enumerate() {
                let my_tx = std::mem::take(&mut data_tx[t]);
                let my_rx = data_rx[t].clone();
                let my_ctrl = ctrl_tx.clone();
                let my_dec = dec_rx[t].clone();
                handles.push(scope.spawn(move || {
                    worker::<P>(prog, t, v, p, block, my_tx, my_rx, my_ctrl, my_dec)
                }));
            }
            drop(ctrl_tx);

            // Coordinator loop. Rounds `0..round_limit` may run, as in
            // `DirectRunner`; the workers compute round 0 before any
            // decision, so a zero limit still sees one report.
            for round in 0..round_limit.max(1) {
                let mut ctl = RoundCtl {
                    n_done: 0,
                    n_procs: 0,
                    sent_total: 0,
                    max_sent: 0,
                    max_received: 0,
                    max_message: 0,
                    min_message: usize::MAX,
                    cross_items: 0,
                };
                for _ in 0..p {
                    let (_t, c) = ctrl_rx.recv().expect("worker died");
                    ctl.n_done += c.n_done;
                    ctl.n_procs += c.n_procs;
                    ctl.sent_total += c.sent_total;
                    ctl.max_sent = ctl.max_sent.max(c.max_sent);
                    ctl.max_received = ctl.max_received.max(c.max_received);
                    ctl.max_message = ctl.max_message.max(c.max_message);
                    if c.min_message > 0 {
                        ctl.min_message = ctl.min_message.min(c.min_message);
                    }
                    ctl.cross_items += c.cross_items;
                }
                cross_total += ctl.cross_items;
                let sent_any = ctl.sent_total > 0;
                if sent_any || ctl.n_done < v {
                    costs.rounds.push(RoundCost {
                        max_sent: ctl.max_sent,
                        max_received: ctl.max_received,
                        total_items: ctl.sent_total,
                        max_message: ctl.max_message,
                        min_message: if ctl.min_message == usize::MAX {
                            0
                        } else {
                            ctl.min_message
                        },
                    });
                }
                let decision = if round >= round_limit {
                    Decision::Fail(ModelError::RoundLimit(round_limit))
                } else if ctl.n_done == v {
                    if sent_any {
                        Decision::Fail(ModelError::MessagesAfterDone)
                    } else {
                        Decision::Stop
                    }
                } else if ctl.n_done != 0 {
                    Decision::Fail(ModelError::StatusDisagreement { round })
                } else if round + 1 == round_limit {
                    Decision::Fail(ModelError::RoundLimit(round_limit))
                } else {
                    Decision::Continue
                };
                let stop = !matches!(decision, Decision::Continue);
                if let Decision::Fail(ref e) = decision {
                    run_error = Some(e.clone());
                }
                for tx in &dec_tx {
                    tx.send(match decision {
                        Decision::Continue => Decision::Continue,
                        Decision::Stop => Decision::Stop,
                        Decision::Fail(ref e) => Decision::Fail(e.clone()),
                    })
                    .expect("worker died");
                }
                if stop {
                    break;
                }
            }

            for (t, h) in handles.into_iter().enumerate() {
                finished[t] = Some(h.join().expect("worker panicked"));
            }
        });

        if let Some(e) = run_error {
            return Err(e);
        }
        let mut all = Vec::with_capacity(v);
        for block in finished.into_iter() {
            all.extend(block.expect("missing worker result"));
        }
        Ok((
            all,
            ThreadedRunReport { costs, cross_thread_items: cross_total, wall: start.elapsed() },
        ))
    }
}

/// One round's worth of messages from one thread to another:
/// `(src, dst, items)` triples, at most one per (src, dst) pair.
type Packet<M> = Vec<(usize, usize, Vec<M>)>;

#[allow(clippy::too_many_arguments)]
fn worker<P: CgmProgram>(
    prog: &P,
    t: usize,
    v: usize,
    p: usize,
    mut states: Vec<P::State>,
    data_tx: Vec<Sender<Packet<P::Msg>>>,
    data_rx: Receiver<Packet<P::Msg>>,
    ctrl: Sender<(usize, RoundCtl)>,
    dec: Receiver<Decision>,
) -> Vec<P::State> {
    let my_range = block_range(v, p, t);
    let n_local = my_range.len();
    let mut inboxes: Vec<Incoming<P::Msg>> = (0..n_local).map(|_| Incoming::empty(v)).collect();

    let mut round = 0usize;
    loop {
        let mut n_done = 0;
        let mut ctl = RoundCtl {
            n_done: 0,
            n_procs: n_local,
            sent_total: 0,
            max_sent: 0,
            max_received: 0,
            max_message: 0,
            min_message: usize::MAX,
            cross_items: 0,
        };

        // Compute phase.
        let mut packets: Vec<Packet<P::Msg>> = (0..p).map(|_| Vec::new()).collect();
        let old_inboxes = std::mem::take(&mut inboxes);
        for (k, (state, inbox)) in states.iter_mut().zip(old_inboxes).enumerate() {
            let pid = my_range.start + k;
            let mut outbox = Outbox::new(v);
            let mut ctx = RoundCtx { pid, v, round, incoming: inbox, outbox: &mut outbox };
            if prog.round(&mut ctx, state) == Status::Done {
                n_done += 1;
            }
            let per_dst = outbox.into_per_dst();
            let sent: usize = per_dst.iter().map(Vec::len).sum();
            ctl.sent_total += sent;
            ctl.max_sent = ctl.max_sent.max(sent);
            for (dst, msg) in per_dst.into_iter().enumerate() {
                if msg.is_empty() {
                    continue;
                }
                ctl.max_message = ctl.max_message.max(msg.len());
                ctl.min_message = ctl.min_message.min(msg.len());
                let owner = owner_of(v, p, dst);
                if owner != t {
                    ctl.cross_items += msg.len() as u64;
                }
                packets[owner].push((pid, dst, msg));
            }
        }
        ctl.n_done = n_done;

        // Exchange phase: one packet to every thread (including self).
        for (j, tx) in data_tx.iter().enumerate() {
            tx.send(std::mem::take(&mut packets[j])).expect("peer died");
        }
        let mut per_local: Vec<Vec<Vec<P::Msg>>> =
            (0..n_local).map(|_| (0..v).map(|_| Vec::new()).collect()).collect();
        for _ in 0..p {
            for (src, dst, msg) in data_rx.recv().expect("peer died") {
                per_local[dst - my_range.start][src] = msg;
            }
        }
        for (k, per_src) in per_local.into_iter().enumerate() {
            let recv_total: usize = per_src.iter().map(Vec::len).sum();
            ctl.max_received = ctl.max_received.max(recv_total);
            inboxes.push(Incoming::new(per_src));
            let _ = k;
        }

        ctrl.send((t, ctl)).expect("coordinator died");
        match dec.recv().expect("coordinator died") {
            Decision::Continue => round += 1,
            Decision::Stop | Decision::Fail(_) => return states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{AllToAll, PrefixSum, TokenRing};
    use crate::DirectRunner;

    #[test]
    fn block_range_partitions() {
        for v in [1usize, 2, 5, 7, 16] {
            for p in 1..=v {
                let mut covered = vec![false; v];
                for t in 0..p {
                    for pid in block_range(v, p, t) {
                        assert!(!covered[pid]);
                        covered[pid] = true;
                        assert_eq!(owner_of(v, p, pid), t, "v={v} p={p} pid={pid}");
                    }
                }
                assert!(covered.into_iter().all(|c| c));
            }
        }
    }

    #[test]
    fn matches_direct_runner_on_all_to_all() {
        let v = 8;
        let prog = AllToAll { items_per_pair: 4 };
        let init = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();
        let (d, dc) = DirectRunner::default().run(&prog, init()).unwrap();
        for p in [1, 2, 3, 8] {
            let (t, rep) = ThreadedRunner::new(p).run(&prog, init()).unwrap();
            assert_eq!(t, d, "p={p}");
            assert_eq!(rep.costs.lambda(), dc.lambda());
            assert_eq!(rep.costs.max_h(), dc.max_h());
            assert_eq!(rep.costs.total_items(), dc.total_items());
        }
    }

    #[test]
    fn matches_direct_runner_on_prefix_sum() {
        let v = 6;
        let init = || {
            (0..v as u64).map(|i| ((0..=i).collect::<Vec<u64>>(), Vec::new())).collect::<Vec<_>>()
        };
        let (d, _) = DirectRunner::default().run(&PrefixSum, init()).unwrap();
        let (t, _) = ThreadedRunner::new(3).run(&PrefixSum, init()).unwrap();
        assert_eq!(t, d);
    }

    #[test]
    fn cross_thread_items_counted() {
        let v = 4;
        let prog = TokenRing { rounds: 4 };
        let init = || (0..v as u64).map(|i| vec![i]).collect::<Vec<_>>();
        // p = 1: no traffic crosses a thread boundary
        let (_, rep1) = ThreadedRunner::new(1).run(&prog, init()).unwrap();
        assert_eq!(rep1.cross_thread_items, 0);
        // p = 4: every hop crosses
        let (_, rep4) = ThreadedRunner::new(4).run(&prog, init()).unwrap();
        assert_eq!(rep4.cross_thread_items, (v * 4) as u64);
        // p = 2: half the hops cross (ring 0->1->2->3->0; hops 1->2 and 3->0 cross)
        let (_, rep2) = ThreadedRunner::new(2).run(&prog, init()).unwrap();
        assert_eq!(rep2.cross_thread_items, (2 * 4) as u64);
    }

    #[test]
    fn p_larger_than_v_is_clamped() {
        let v = 3;
        let prog = TokenRing { rounds: 2 };
        let init: Vec<Vec<u64>> = (0..v as u64).map(|i| vec![i]).collect();
        let (fin, _) = ThreadedRunner::new(64).run(&prog, init).unwrap();
        assert_eq!(fin.len(), v);
    }

    #[test]
    fn error_propagates_from_threads() {
        struct Half;
        impl CgmProgram for Half {
            type Msg = u64;
            type State = u64;
            fn round(&self, ctx: &mut RoundCtx<'_, u64>, _s: &mut u64) -> Status {
                if ctx.pid == 0 {
                    Status::Done
                } else {
                    Status::Continue
                }
            }
        }
        let e = ThreadedRunner::new(2).run(&Half, vec![0, 0]).unwrap_err();
        assert_eq!(e, ModelError::StatusDisagreement { round: 0 });
    }

    #[test]
    fn round_limit_agrees_with_direct_runner_at_the_boundary() {
        let prog = TokenRing { rounds: 3 };
        let init = || (0..5u64).map(|i| vec![i]).collect::<Vec<_>>();
        let direct = |round_limit| DirectRunner { round_limit }.run(&prog, init()).map(|r| r.0);
        let needed = (0..10).find(|&l| direct(l).is_ok()).expect("the ring finishes");
        assert_eq!(needed, 4, "three rotations, then the round that sees them all done");
        for round_limit in [0, needed - 1, needed, needed + 1] {
            for p in [1, 2] {
                let threaded = ThreadedRunner { p, round_limit }.run(&prog, init()).map(|r| r.0);
                assert_eq!(threaded, direct(round_limit), "limit {round_limit}, p {p}");
            }
        }
        assert_eq!(direct(needed - 1), Err(ModelError::RoundLimit(needed - 1)));
    }
}
