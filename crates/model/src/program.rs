//! The CGM program abstraction: a per-processor superstep state machine.

use cgmio_pdm::Item;

use crate::state::ProcState;

/// What a processor reports at the end of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// More rounds needed.
    Continue,
    /// This processor is finished. A run terminates in the first round
    /// where **every** processor reports `Done`; a round in which
    /// statuses disagree is an error (CGM supersteps are globally
    /// synchronous, so well-formed programs agree on termination).
    Done,
}

/// Messages received by one processor in one round, indexed by source.
///
/// `incoming.from(src)` is the (possibly empty) sequence of items sent by
/// virtual processor `src` in the previous communication round, in send
/// order. This source-indexed shape mirrors the simulation engine's
/// message matrix, where the `(src, dst)` slot is a fixed disk region.
///
/// Storage is sparse: only sources that actually sent something occupy
/// memory, so an inbox at `v = 10^6` with two senders costs two entries,
/// not a million empty vectors. The dense-looking API (`from`, `iter`)
/// is preserved on top.
#[derive(Debug)]
pub struct Incoming<M> {
    v: usize,
    /// `(src, items)` for non-empty sources only, sorted by `src`.
    entries: Vec<(usize, Vec<M>)>,
}

impl<M> Incoming<M> {
    /// Build from a per-source vector (length `v`). Empty sources are
    /// dropped on the way in.
    pub fn new(per_src: Vec<Vec<M>>) -> Self {
        let v = per_src.len();
        let entries =
            per_src.into_iter().enumerate().filter(|(_, items)| !items.is_empty()).collect();
        Self { v, entries }
    }

    /// Build from sparse `(src, items)` entries, which must be sorted by
    /// `src`, unique, non-empty, and `< v`. This is the EM runners'
    /// entry point: the message matrix's sparse length table produces
    /// exactly this shape without materialising `v` vectors.
    pub fn from_sparse(v: usize, entries: Vec<(usize, Vec<M>)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sources must be sorted");
        debug_assert!(entries.iter().all(|(s, items)| *s < v && !items.is_empty()));
        Self { v, entries }
    }

    /// Empty inbox for `v` sources.
    pub fn empty(v: usize) -> Self {
        Self { v, entries: Vec::new() }
    }

    /// Messages from processor `src`.
    pub fn from(&self, src: usize) -> &[M] {
        debug_assert!(src < self.v, "source {src} out of range for v={}", self.v);
        match self.entries.binary_search_by_key(&src, |(s, _)| *s) {
            Ok(k) => &self.entries[k].1,
            Err(_) => &[],
        }
    }

    /// Iterate `(src, items)` over all sources (including empty ones).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[M])> {
        let mut k = 0;
        (0..self.v).map(move |s| {
            if k < self.entries.len() && self.entries[k].0 == s {
                k += 1;
                (s, self.entries[k - 1].1.as_slice())
            } else {
                (s, &[][..])
            }
        })
    }

    /// Iterate `(src, items)` over non-empty sources only, in source
    /// order — O(senders), not O(v).
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (usize, &[M])> {
        self.entries.iter().map(|(s, items)| (*s, items.as_slice()))
    }

    /// All received items, in source order, flattened.
    pub fn flatten(&self) -> Vec<M>
    where
        M: Copy,
    {
        self.entries.iter().flat_map(|(_, items)| items.iter().copied()).collect()
    }

    /// Total number of items received (the `h` of the h-relation, on the
    /// receive side).
    pub fn total(&self) -> usize {
        self.entries.iter().map(|(_, items)| items.len()).sum()
    }

    /// Consume, returning the sparse `(src, items)` entries — the shape
    /// [`Self::from_sparse`] took. A runner clears the list and fills
    /// it again for the next inbox instead of allocating a new one.
    pub fn into_sparse(self) -> Vec<(usize, Vec<M>)> {
        self.entries
    }

    /// Consume, returning dense per-source vectors (length `v`).
    pub fn into_per_src(self) -> Vec<Vec<M>> {
        let mut per_src: Vec<Vec<M>> = (0..self.v).map(|_| Vec::new()).collect();
        for (s, items) in self.entries {
            per_src[s] = items;
        }
        per_src
    }
}

/// Staging area for the messages a processor sends in one round.
///
/// Sparse like [`Incoming`]: destinations are materialised on first
/// touch, so `Outbox::new(10^6)` allocates nothing until the program
/// actually sends. Entries are kept sorted by destination, one per
/// destination, so a push costs O(1) when it repeats the last-touched
/// destination and O(log fan-out) otherwise (plus the in-place insert
/// on a destination's first touch).
#[derive(Debug)]
pub struct Outbox<M> {
    v: usize,
    /// `(dst, items)` sorted by `dst`, unique.
    entries: Vec<(usize, Vec<M>)>,
    /// Index in `entries` of the last-touched destination.
    last: usize,
}

impl<M: Item> Outbox<M> {
    /// New empty outbox for `v` destinations.
    pub fn new(v: usize) -> Self {
        Self::reusing(v, Vec::new())
    }

    /// [`Self::new`] on the allocation of an entry list a previous
    /// outbox returned from [`Self::into_sparse`] (emptied here).
    pub fn reusing(v: usize, mut entries: Vec<(usize, Vec<M>)>) -> Self {
        entries.clear();
        Self { v, entries, last: 0 }
    }

    /// Number of destinations (`v`).
    pub fn v(&self) -> usize {
        self.v
    }

    /// The staging vector for `dst` (inserted in order on first touch).
    /// Checks the last-touched destination first — the common send
    /// pattern streams many items to one destination before moving on —
    /// then binary-searches.
    fn slot(&mut self, dst: usize) -> &mut Vec<M> {
        assert!(dst < self.v, "destination {dst} out of range for v={}", self.v);
        self.last = match self.entries.get(self.last) {
            Some((d, _)) if *d == dst => self.last,
            _ => self.entries.binary_search_by_key(&dst, |(d, _)| *d).unwrap_or_else(|k| {
                self.entries.insert(k, (dst, Vec::new()));
                k
            }),
        };
        &mut self.entries[self.last].1
    }

    /// Append one item to the message for `dst`.
    pub fn push(&mut self, dst: usize, item: M) {
        self.slot(dst).push(item);
    }

    /// Append many items to the message for `dst`.
    pub fn send(&mut self, dst: usize, items: impl IntoIterator<Item = M>) {
        self.slot(dst).extend(items);
    }

    /// Items queued for `dst` so far.
    pub fn queued(&self, dst: usize) -> usize {
        self.entries.binary_search_by_key(&dst, |(d, _)| *d).map_or(0, |k| self.entries[k].1.len())
    }

    /// Total items queued (send-side `h`).
    pub fn total(&self) -> usize {
        self.entries.iter().map(|(_, items)| items.len()).sum()
    }

    /// Consume, returning dense per-destination vectors (length `v`).
    pub fn into_per_dst(self) -> Vec<Vec<M>> {
        let mut per_dst: Vec<Vec<M>> = (0..self.v).map(|_| Vec::new()).collect();
        for (d, items) in self.entries {
            // Copied, so each message is trimmed to its length. Moving the
            // staged vectors instead changes the dry run's allocation
            // pattern, which made the benchmark's sort set-up slower.
            per_dst[d].extend(items);
        }
        per_dst
    }

    /// Consume, returning sparse `(dst, items)` entries sorted by
    /// destination, non-empty messages only — the EM runners' step (d)
    /// input. Each message holds its items in send order, exactly as the
    /// dense form would.
    pub fn into_sparse(mut self) -> Vec<(usize, Vec<M>)> {
        self.entries.retain(|(_, items)| !items.is_empty());
        self.entries
    }
}

/// Everything a processor sees during one compound superstep: identity,
/// round number, the inbox from the previous communication round, and the
/// outbox for the next one.
pub struct RoundCtx<'a, M> {
    /// This virtual processor's id, `0 ≤ pid < v`.
    pub pid: usize,
    /// Number of virtual processors.
    pub v: usize,
    /// Round number, starting at 0.
    pub round: usize,
    /// Messages received (sent in round `round − 1`; empty in round 0).
    pub incoming: Incoming<M>,
    /// Messages to deliver before round `round + 1`.
    pub outbox: &'a mut Outbox<M>,
}

impl<M: Item> RoundCtx<'_, M> {
    /// Shorthand for `outbox.send`.
    pub fn send(&mut self, dst: usize, items: impl IntoIterator<Item = M>) {
        self.outbox.send(dst, items);
    }

    /// Shorthand for `outbox.push`.
    pub fn push(&mut self, dst: usize, item: M) {
        self.outbox.push(dst, item);
    }
}

/// A CGM algorithm.
///
/// The algorithm is expressed as the body of one *compound superstep*:
/// receive, compute, send. The runner owns scheduling, message routing
/// and (for the external-memory runners) context/message disk layout.
///
/// Contract:
/// * `State` is the processor's *context* in the paper's sense; its
///   encoded size is the `μ` parameter. It must round-trip through
///   [`ProcState`] encoding losslessly.
/// * Each round, each processor sends and receives `O(N/v)` items in
///   total (the h-relation discipline). Runners *measure* h rather than
///   trusting the program; the EM runners additionally *enforce* a slot
///   bound.
/// * All processors must report [`Status::Done`] in the same round, with
///   no messages sent in that final round.
pub trait CgmProgram: Send + Sync {
    /// Message item type.
    type Msg: Item;
    /// Per-processor context.
    type State: ProcState + Send;

    /// Execute one compound superstep on one virtual processor.
    fn round(&self, ctx: &mut RoundCtx<'_, Self::Msg>, state: &mut Self::State) -> Status;

    /// Optional hint: number of rounds, if known a priori (used only for
    /// progress reporting; termination always comes from [`Status`]).
    fn rounds_hint(&self, _v: usize) -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_accumulates_per_destination() {
        let mut o: Outbox<u64> = Outbox::new(3);
        o.push(0, 1);
        o.send(2, [2, 3]);
        o.push(2, 4);
        assert_eq!(o.queued(0), 1);
        assert_eq!(o.queued(1), 0);
        assert_eq!(o.queued(2), 3);
        assert_eq!(o.total(), 4);
        let per = o.into_per_dst();
        assert_eq!(per[2], vec![2, 3, 4]);
    }

    #[test]
    fn incoming_indexing_and_flatten() {
        let inc = Incoming::new(vec![vec![1u64, 2], vec![], vec![3]]);
        assert_eq!(inc.from(0), &[1, 2]);
        assert_eq!(inc.from(1), &[] as &[u64]);
        assert_eq!(inc.total(), 3);
        assert_eq!(inc.flatten(), vec![1, 2, 3]);
        let pairs: Vec<(usize, usize)> = inc.iter().map(|(s, m)| (s, m.len())).collect();
        assert_eq!(pairs, vec![(0, 2), (1, 0), (2, 1)]);
    }

    #[test]
    fn sparse_and_dense_incoming_agree() {
        let dense = Incoming::new(vec![vec![], vec![7u64], vec![], vec![8, 9]]);
        let sparse = Incoming::from_sparse(4, vec![(1, vec![7u64]), (3, vec![8, 9])]);
        assert_eq!(dense.from(1), sparse.from(1));
        assert_eq!(dense.from(2), sparse.from(2));
        assert_eq!(dense.total(), sparse.total());
        assert_eq!(dense.flatten(), sparse.flatten());
        let nonempty: Vec<usize> = sparse.iter_nonempty().map(|(s, _)| s).collect();
        assert_eq!(nonempty, vec![1, 3]);
        assert_eq!(sparse.into_per_src(), vec![vec![], vec![7], vec![], vec![8, 9]]);
    }

    #[test]
    fn outbox_into_sparse_sorts_and_merges_interleaved_sends() {
        let mut o: Outbox<u64> = Outbox::new(5);
        o.push(3, 1);
        o.push(0, 2);
        o.push(3, 3); // revisit dst 3 after touching dst 0
        o.send(1, []); // empty touch must not appear in sparse form
        let sparse = o.into_sparse();
        assert_eq!(sparse, vec![(0, vec![2]), (3, vec![1, 3])]);
    }

    #[test]
    fn outbox_new_does_not_allocate_per_destination() {
        // The whole point of the sparse outbox: v can be huge for free.
        let mut o: Outbox<u64> = Outbox::new(1_000_000);
        o.push(999_999, 42);
        assert_eq!(o.total(), 1);
        assert_eq!(o.queued(999_999), 1);
        assert_eq!(o.into_sparse(), vec![(999_999, vec![42])]);
    }

    /// One operation of a generated stream: `(dst, items, push)` — a
    /// `push` of its one item, or a `send` of its items (possibly none).
    type Op = (usize, Vec<u64>, bool);

    /// `n` operations whose destinations follow `order`: 0 random,
    /// 1 ascending, 2 descending, 3 skewed towards a few hot destinations.
    /// Items count up, so send order is visible in the messages.
    fn gen_ops(rng: &mut impl rand::Rng, v: usize, order: u32, n: usize) -> Vec<Op> {
        let hot: Vec<usize> = (0..3).map(|_| rng.gen_range(0..v)).collect();
        let (mut cursor, mut next) = (if order == 2 { v - 1 } else { 0 }, 0u64);
        (0..n)
            .map(|_| {
                let dst = match order {
                    0 => rng.gen_range(0..v),
                    1 => {
                        cursor = (cursor + rng.gen_range(0..3usize)).min(v - 1);
                        cursor
                    }
                    2 => {
                        cursor = cursor.saturating_sub(rng.gen_range(0..3usize));
                        cursor
                    }
                    _ if rng.gen_range(0..4u32) > 0 => hot[rng.gen_range(0..hot.len())],
                    _ => rng.gen_range(0..v),
                };
                let push = rng.gen_range(0..3u32) == 0;
                let len = if push { 1 } else { rng.gen_range(0..4u64) };
                next += len;
                (dst, (next - len..next).collect(), push)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The outbox agrees with a map that appends each destination's
        /// items in send order: `queued` and `total` after every
        /// operation, `into_sparse` (non-empty messages, sorted) on a
        /// fresh outbox and `into_per_dst` on one reusing its entries.
        #[test]
        fn outbox_matches_a_model(
            seed in proptest::any::<u64>(),
            v_pick in 0usize..5,
            order in 0u32..4,
            n in 0usize..300,
        ) {
            use rand::SeedableRng;
            let v = [1, 2, 7, 64, 1_000][v_pick];
            let ops = gen_ops(&mut rand::rngs::StdRng::seed_from_u64(seed), v, order, n);
            let mut want: std::collections::BTreeMap<usize, Vec<u64>> = Default::default();
            let mut o: Outbox<u64> = Outbox::new(v);
            for (dst, items, push) in &ops {
                if *push {
                    o.push(*dst, items[0]);
                } else {
                    o.send(*dst, items.iter().copied());
                }
                want.entry(*dst).or_default().extend(items);
                proptest::prop_assert_eq!(o.queued(*dst), want[dst].len());
                proptest::prop_assert_eq!(o.total(), want.values().map(Vec::len).sum::<usize>());
            }
            for dst in 0..v.min(70) {
                proptest::prop_assert_eq!(o.queued(dst), want.get(&dst).map_or(0, Vec::len));
            }
            let sparse = o.into_sparse();
            let want_sparse: Vec<(usize, Vec<u64>)> =
                want.iter().filter(|(_, m)| !m.is_empty()).map(|(&d, m)| (d, m.clone())).collect();
            proptest::prop_assert_eq!(&sparse, &want_sparse);

            let mut o = Outbox::reusing(v, sparse);
            for (dst, items, push) in &ops {
                if *push {
                    o.push(*dst, items[0]);
                } else {
                    o.send(*dst, items.iter().copied());
                }
            }
            let mut want_dense = vec![Vec::new(); v];
            for (d, m) in want {
                want_dense[d] = m;
            }
            proptest::prop_assert_eq!(o.into_per_dst(), want_dense);
        }
    }
}
