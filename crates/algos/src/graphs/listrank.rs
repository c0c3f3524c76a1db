//! CGM list ranking by pointer jumping (Figure 5 Group C row 1).
//!
//! Nodes of a linked list (successor array, tail self-looped) are
//! block-distributed. The tail's id is broadcast first; thereafter
//! `⌈log₂ n⌉` jump iterations of two rounds each (request / reply) give
//! every node its distance to the tail.
//!
//! The tail broadcast is what keeps every round a genuine `O(N/v)`
//! h-relation: a node whose pointer has reached the tail stops
//! requesting (its rank is final), and any *other* node is the
//! `2^k`-successor of at most one node, so no processor ever receives
//! more than one request per owned node per round.
//!
//! Frames are single words. A request is the bare target id; a reply is
//! `rank, succ` sent back to the requesting processor in the order its
//! requests arrived. The requester pairs replies with its nodes by
//! position: it walks them in the order it sent the requests, taking the
//! next two words from the target owner's message (`Incoming` keeps send
//! order per source).

use cgmio_model::{CgmProgram, RoundCtx, Status};

use super::{jump_iters, owner};
use cgmio_data::block_split_ranges;

/// State: `(meta = [n, tail], succ_block, rank_block)`. On completion
/// `rank[x]` is the distance from `x` to the tail (tail = 0).
pub type ListRankState = (Vec<u64>, Vec<u64>, Vec<u64>);

/// The pointer-jumping list ranker.
#[derive(Debug, Clone, Copy, Default)]
pub struct CgmListRank;

impl CgmProgram for CgmListRank {
    /// Round 0: the tail id, broadcast.
    /// Odd rounds: a target node id (the request).
    /// Even rounds ≥ 2: `rank_of_target, succ_of_target` (two words, the
    /// reply), in the order the requests arrived.
    type Msg = u64;
    type State = ListRankState;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut ListRankState) -> Status {
        let v = ctx.v;
        let n = state.0[0] as usize;
        let my_range = block_split_ranges(n, v, ctx.pid);
        let iters = jump_iters(n);

        if ctx.round == 0 {
            // Initialise ranks and broadcast the tail id.
            state.2 = state
                .1
                .iter()
                .enumerate()
                .map(|(i, &s)| u64::from(s != (my_range.start + i) as u64))
                .collect();
            for (i, &s) in state.1.iter().enumerate() {
                let g = (my_range.start + i) as u64;
                if s == g {
                    for dst in 0..v {
                        ctx.push(dst, g);
                    }
                }
            }
            return Status::Continue;
        }

        if ctx.round.is_multiple_of(2) {
            // Reply phase: answer each source with the current (rank, succ)
            // of its targets, in request order.
            for (src, targets) in ctx.incoming.iter_nonempty() {
                ctx.outbox.send(
                    src,
                    targets.iter().flat_map(|&node| {
                        let li = node as usize - my_range.start;
                        [state.2[li], state.1[li]]
                    }),
                );
            }
            return Status::Continue;
        }

        // Odd round 2k+1: apply replies (k > 0) / record tail (k = 0),
        // then send the next wave of requests.
        let k = ctx.round / 2;
        if k == 0 {
            let tail = ctx
                .incoming
                .iter_nonempty()
                .find_map(|(_, items)| items.first().copied())
                .expect("list must have a tail");
            if state.0.len() < 2 {
                state.0.push(tail);
            } else {
                state.0[1] = tail;
            }
        } else {
            // The reply round left the state alone, so the nodes that
            // requested are exactly those the send loop below picked last
            // time, and walking them in the same order meets each owner's
            // replies in send order.
            let tail = state.0[1];
            let mut inbox: Vec<&[u64]> = vec![&[]; v];
            for (src, items) in ctx.incoming.iter_nonempty() {
                inbox[src] = items;
            }
            for (i, s) in state.1.iter_mut().enumerate() {
                let g = (my_range.start + i) as u64;
                if *s != g && *s != tail {
                    let o = owner(n, v, *s as usize);
                    let (reply, rest) =
                        inbox[o].split_at_checked(2).expect("a reply is missing from its owner");
                    inbox[o] = rest;
                    state.2[i] += reply[0];
                    *s = reply[1];
                }
            }
            debug_assert!(
                inbox.iter().all(|r| r.is_empty()),
                "more replies arrived than were requested"
            );
        }
        if k == iters {
            return Status::Done;
        }
        let tail = state.0[1];
        for (i, &s) in state.1.iter().enumerate() {
            let g = (my_range.start + i) as u64;
            if s != g && s != tail {
                ctx.push(owner(n, v, s as usize), s);
            }
        }
        Status::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_data::{block_split, random_list};
    use cgmio_graph::list_ranks;
    use cgmio_model::{DirectRunner, ThreadedRunner};
    use cgmio_pdm::Item;

    fn init(succ: &[u64], v: usize) -> Vec<ListRankState> {
        block_split(succ.to_vec(), v)
            .into_iter()
            .map(|b| (vec![succ.len() as u64], b, Vec::new()))
            .collect()
    }

    fn collect_ranks(fin: &[ListRankState]) -> Vec<u64> {
        fin.iter().flat_map(|(_, _, r)| r.iter().copied()).collect()
    }

    #[test]
    fn ranks_random_lists() {
        for (n, v, seed) in [(500, 8, 1u64), (1000, 7, 2), (64, 4, 3)] {
            let (succ, _) = random_list(n, seed);
            let want = list_ranks(&succ);
            let (fin, costs) = DirectRunner::default().run(&CgmListRank, init(&succ, v)).unwrap();
            assert_eq!(collect_ranks(&fin), want, "n={n} v={v}");
            assert!(costs.lambda() <= 2 * jump_iters(n) + 2);
        }
    }

    #[test]
    fn all_succ_point_to_tail_after_run() {
        let (succ, _) = random_list(300, 9);
        let tail = (0..300).find(|&x| succ[x] == x as u64).unwrap() as u64;
        let (fin, _) = DirectRunner::default().run(&CgmListRank, init(&succ, 6)).unwrap();
        for (_, s, _) in &fin {
            assert!(s.iter().all(|&x| x == tail));
        }
    }

    #[test]
    fn tiny_lists() {
        let (fin, _) = DirectRunner::default().run(&CgmListRank, init(&[0], 1)).unwrap();
        assert_eq!(collect_ranks(&fin), vec![0]);
        // two nodes: 1 -> 0(tail)
        let (fin, _) = DirectRunner::default().run(&CgmListRank, init(&[0, 0], 2)).unwrap();
        assert_eq!(collect_ranks(&fin), vec![0, 1]);
    }

    #[test]
    fn works_on_threads() {
        let (succ, _) = random_list(400, 4);
        let want = list_ranks(&succ);
        let (fin, _) = ThreadedRunner::new(4).run(&CgmListRank, init(&succ, 8)).unwrap();
        assert_eq!(collect_ranks(&fin), want);
    }

    #[test]
    fn h_relation_is_bounded_by_block_size() {
        // The tail-broadcast optimisation keeps every round an
        // O(n/v)-relation: requests to any non-tail node are unique. In
        // bytes: a reply round moves two words per owned node, round 0
        // broadcasts one word to each of the v processors.
        let (succ, _) = random_list(800, 7);
        let v = 8;
        let (_, costs) = DirectRunner::default().run(&CgmListRank, init(&succ, v)).unwrap();
        let bytes = costs.max_h() * <CgmListRank as CgmProgram>::Msg::SIZE;
        assert!(
            bytes <= 16 * 800usize.div_ceil(v) + 8 * (v + 2),
            "h = {} items ({bytes} B) exceeds the coarse-grained bound",
            costs.max_h()
        );
    }

    /// Requests and replies are bare words: no tag, no correlation id.
    #[test]
    fn frame_width() {
        assert_eq!(<CgmListRank as CgmProgram>::Msg::SIZE, 8);
    }
}
