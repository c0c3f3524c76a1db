//! CGM sorting by deterministic regular sampling.
//!
//! The paper simulates Goodrich's deterministic BSP sort \[31\]; we use the
//! classic *sorting by regular sampling* CGM algorithm, which has the
//! same model-level profile — `λ = O(1)` communication rounds,
//! `O(N/v)`-item h-relations, local memory `O(N/v)` — under the same
//! coarseness condition `N/v ≥ v²` (the `κ = 3` of the paper's Figure 5
//! footnote). Simulated through `cgmio-core`, it yields the paper's
//! Group A result: external sorting in `O(N/(pDB))` parallel I/Os.
//!
//! Rounds of [`CgmSort`], whose messages are bare keys:
//! 0. sort locally; broadcast `v` regular samples to everyone;
//! 1. everyone identically derives `v−1` pivots from the `v²` samples,
//!    partitions its sorted run and routes partition `j` to processor
//!    `j`;
//! 2. merge received runs: the output is distributed by pivot ranges.
//!
//! [`BalancedSort`] runs rounds 0 and 1 with [`SortMsg`] frames, adding
//! the partition-size row to round 1's route, and then:
//! 2. merges received runs and routes items so the output is exactly
//!    block-distributed;
//! 3. concatenates (runs arrive in ascending global order).

use cgmio_model::{CgmProgram, ProcState, RoundCtx, Status};
use cgmio_pdm::Item;

/// Keys a [`CgmSort`] can sort: any totally ordered fixed-size item.
pub trait SortKey: Item + Ord {}
impl<T: Item + Ord> SortKey for T {}

/// [`BalancedSort`]'s wire format: keys and bookkeeping counts share one
/// fixed-size frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortMsg<K> {
    /// A sample or data key.
    Key(K),
    /// A partition-size announcement `(src_row_dst, len)` used by the
    /// rebalancing round.
    Count(u32, u64),
}

impl<K: Item> Item for SortMsg<K> {
    const SIZE: usize = 1 + if K::SIZE > 12 { K::SIZE } else { 12 };

    fn write_to(&self, buf: &mut [u8]) {
        match self {
            SortMsg::Key(k) => {
                buf[0] = 0;
                k.write_to(&mut buf[1..1 + K::SIZE]);
            }
            SortMsg::Count(dst, len) => {
                buf[0] = 1;
                buf[1..5].copy_from_slice(&dst.to_le_bytes());
                buf[5..13].copy_from_slice(&len.to_le_bytes());
            }
        }
    }

    fn read_from(buf: &[u8]) -> Self {
        match buf[0] {
            0 => SortMsg::Key(K::read_from(&buf[1..1 + K::SIZE])),
            _ => SortMsg::Count(
                u32::from_le_bytes(buf[1..5].try_into().unwrap()),
                u64::from_le_bytes(buf[5..13].try_into().unwrap()),
            ),
        }
    }
}

/// Per-processor sort state: the local fragment (kept sorted from round
/// 0 on) plus the partition-size matrix [`BalancedSort`] gathers.
pub type SortState<K> = (Vec<K>, Vec<u64>);

/// Deterministic CGM sample sort over keys of type `K`, leaving the
/// output distributed by pivot ranges (sizes `O(N/v)`). Its messages
/// are the keys themselves, so the route moves no frame bytes.
#[derive(Debug, Clone, Copy)]
pub struct CgmSort<K> {
    _key: std::marker::PhantomData<fn() -> K>,
}

impl<K> CgmSort<K> {
    /// Sort leaving the output distributed by pivots.
    pub fn by_pivots() -> Self {
        Self { _key: std::marker::PhantomData }
    }
}

impl<K> Default for CgmSort<K> {
    fn default() -> Self {
        Self::by_pivots()
    }
}

/// [`CgmSort`] plus one round that redistributes the output into the
/// exact block distribution (sizes differing by ≤ 1). The partition
/// sizes travel with the keys, so its frame is a [`SortMsg`].
#[derive(Debug, Clone, Copy)]
pub struct BalancedSort<K> {
    _key: std::marker::PhantomData<fn() -> K>,
}

impl<K> BalancedSort<K> {
    /// Sort producing an exactly block-distributed output.
    pub fn new() -> Self {
        Self { _key: std::marker::PhantomData }
    }
}

impl<K> Default for BalancedSort<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Round 0 of both sorts: sort the local run and broadcast its `v`
/// regular samples (positions `⌊k·len/v⌋`; duplicates are fine), each
/// framed by `wrap`.
fn send_samples<K: SortKey, M: Item>(
    ctx: &mut RoundCtx<'_, M>,
    run: &mut [K],
    wrap: impl Fn(K) -> M + Copy,
) {
    run.sort_unstable();
    let v = ctx.v;
    for dst in 0..v {
        ctx.send(dst, (0..v).filter_map(|k| run.get(k * run.len() / v).copied()).map(wrap));
    }
}

/// Round 1 of both sorts: derive the `v−1` pivots from all `v²` samples
/// (identically everywhere), route partition `j` of the sorted `run` to
/// processor `j` framed by `wrap`, and return the partition sizes.
fn route_partitions<K: SortKey, M: Item>(
    ctx: &mut RoundCtx<'_, M>,
    mut samples: Vec<K>,
    run: &[K],
    wrap: impl Fn(K) -> M + Copy,
) -> Vec<u64> {
    let v = ctx.v;
    samples.sort_unstable();
    let pivots: Vec<K> =
        (1..v).filter_map(|k| samples.get(k * samples.len() / v).copied()).collect();

    let mut start = 0usize;
    (0..v)
        .map(|dst| {
            let end = match pivots.get(dst) {
                Some(pivot) => start + run[start..].partition_point(|x| x <= pivot),
                None => run.len(),
            };
            ctx.send(dst, run[start..end].iter().copied().map(wrap));
            let size = end - start;
            start = end;
            size as u64
        })
        .collect()
}

impl<K: SortKey> CgmProgram for CgmSort<K>
where
    Vec<K>: ProcState,
{
    type Msg = K;
    type State = SortState<K>;

    fn round(&self, ctx: &mut RoundCtx<'_, K>, state: &mut SortState<K>) -> Status {
        match ctx.round {
            0 => {
                send_samples(ctx, &mut state.0, |k| k);
                Status::Continue
            }
            1 => {
                let samples = ctx.incoming.flatten();
                route_partitions(ctx, samples, &state.0, |k| k);
                state.0.clear();
                Status::Continue
            }
            _ => {
                // Sized once: no regrowth copies, and no slack kept in
                // the state (the EM runners hand it to the caller as is).
                let mut mine: Vec<K> = Vec::with_capacity(ctx.incoming.total());
                for (_src, items) in ctx.incoming.iter_nonempty() {
                    mine.extend_from_slice(items);
                }
                mine.sort_unstable();
                state.0 = mine;
                Status::Done
            }
        }
    }

    fn rounds_hint(&self, _v: usize) -> Option<usize> {
        Some(3)
    }
}

impl<K: SortKey> CgmProgram for BalancedSort<K>
where
    Vec<K>: ProcState,
{
    type Msg = SortMsg<K>;
    type State = SortState<K>;

    fn round(&self, ctx: &mut RoundCtx<'_, SortMsg<K>>, state: &mut SortState<K>) -> Status {
        let v = ctx.v;
        match ctx.round {
            0 => {
                send_samples(ctx, &mut state.0, SortMsg::Key);
                Status::Continue
            }
            1 => {
                let samples: Vec<K> = ctx
                    .incoming
                    .iter_nonempty()
                    .flat_map(|(_src, items)| items)
                    .map(|m| match *m {
                        SortMsg::Key(k) => k,
                        SortMsg::Count(..) => unreachable!("round 1 carries only samples"),
                    })
                    .collect();
                let sizes = route_partitions(ctx, samples, &state.0, SortMsg::Key);
                // Announce this row of the partition matrix to all.
                for t in 0..v {
                    ctx.send(
                        t,
                        sizes.iter().enumerate().map(|(d, &s)| SortMsg::Count(d as u32, s)),
                    );
                }
                state.0.clear();
                Status::Continue
            }
            2 => {
                let mut recv_counts = vec![0u64; v]; // items per destination, all rows summed
                let mut mine: Vec<K> = Vec::with_capacity(ctx.incoming.total());
                for (_src, items) in ctx.incoming.iter_nonempty() {
                    for m in items {
                        match *m {
                            SortMsg::Key(k) => mine.push(k),
                            SortMsg::Count(dst, len) => recv_counts[dst as usize] += len,
                        }
                    }
                }
                mine.sort_unstable();

                // Global rank of my first item = Σ_{j<pid} recv_counts[j].
                let my_start: u64 = recv_counts[..ctx.pid].iter().sum();
                let n: u64 = recv_counts.iter().sum();
                state.1 = recv_counts;
                // Route each item to the owner of its global rank under
                // the block distribution.
                let base = (n / v as u64) as usize;
                let extra = (n % v as u64) as usize;
                let owner = |g: u64| -> usize {
                    let g = g as usize;
                    let boundary = extra * (base + 1);
                    if g < boundary {
                        g / (base + 1)
                    } else {
                        extra + (g - boundary) / base.max(1)
                    }
                };
                for (off, &k) in mine.iter().enumerate() {
                    ctx.push(owner(my_start + off as u64), SortMsg::Key(k));
                }
                state.0.clear();
                Status::Continue
            }
            _ => {
                // Runs arrive in ascending source order = ascending
                // global rank, so concatenation is sorted.
                let mut out = Vec::with_capacity(ctx.incoming.total());
                for (_src, items) in ctx.incoming.iter_nonempty() {
                    for m in items {
                        match *m {
                            SortMsg::Key(k) => out.push(k),
                            SortMsg::Count(..) => unreachable!("round 3 carries only keys"),
                        }
                    }
                }
                debug_assert!(out.windows(2).all(|w| w[0] <= w[1]));
                state.0 = out;
                state.1.clear();
                Status::Done
            }
        }
    }

    fn rounds_hint(&self, _v: usize) -> Option<usize> {
        Some(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_data::{block_split, few_distinct_u64, reverse_sorted_u64, uniform_u64};
    use cgmio_model::{DirectRunner, ThreadedRunner};

    fn init_states(keys: &[u64], v: usize) -> Vec<SortState<u64>> {
        block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
    }

    fn check_sorted_output(states: &[SortState<u64>], input: &[u64]) {
        let flat: Vec<u64> = states.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        let mut want = input.to_vec();
        want.sort_unstable();
        assert_eq!(flat, want);
    }

    #[test]
    fn sorts_uniform_keys() {
        let keys = uniform_u64(5000, 42);
        let v = 8;
        let (fin, costs) =
            DirectRunner::default().run(&CgmSort::by_pivots(), init_states(&keys, v)).unwrap();
        check_sorted_output(&fin, &keys);
        assert_eq!(costs.lambda(), 2, "two communication rounds without rebalance");
    }

    /// The model costs of a sort by pivots are exact: round 0 broadcasts
    /// `v` samples from each of `v` processors to all `v`, round 1
    /// routes every key once — nothing else travels.
    #[test]
    fn by_pivots_sends_samples_then_keys() {
        let (n, v) = (4096, 8);
        let keys = uniform_u64(n, 9);
        let (_, costs) =
            DirectRunner::default().run(&CgmSort::by_pivots(), init_states(&keys, v)).unwrap();
        assert_eq!(costs.lambda(), 2);
        let sent: Vec<usize> = costs.rounds.iter().map(|r| r.total_items).collect();
        assert_eq!(sent, [v * v * v, n]);
    }

    /// `CgmSort` frames a key as the key; `BalancedSort`'s frame carries a
    /// tag and room for a `Count`.
    #[test]
    fn frame_widths() {
        assert_eq!(<CgmSort<u64> as CgmProgram>::Msg::SIZE, 8);
        assert_eq!(<CgmSort<(u64, u64, u64)> as CgmProgram>::Msg::SIZE, 24);
        assert_eq!(<BalancedSort<u64> as CgmProgram>::Msg::SIZE, 13);
        assert_eq!(<BalancedSort<(u64, u64, u64)> as CgmProgram>::Msg::SIZE, 25);
    }

    #[test]
    fn sorts_with_rebalance_into_blocks() {
        let keys = uniform_u64(4103, 7); // deliberately not divisible by v
        let v = 8;
        let (fin, costs) =
            DirectRunner::default().run(&BalancedSort::new(), init_states(&keys, v)).unwrap();
        check_sorted_output(&fin, &keys);
        assert_eq!(costs.lambda(), 3);
        // block distribution: sizes differ by at most one
        let sizes: Vec<usize> = fin.iter().map(|(b, _)| b.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes = {sizes:?}");
    }

    #[test]
    fn sorts_adversarial_inputs() {
        let v = 6;
        for keys in [
            reverse_sorted_u64(3000),
            few_distinct_u64(3000, 3, 1),
            vec![5u64; 1000],
            (0..1000u64).collect(),
            vec![],
            vec![9],
        ] {
            let (fin, _) =
                DirectRunner::default().run(&CgmSort::by_pivots(), init_states(&keys, v)).unwrap();
            check_sorted_output(&fin, &keys);
            let (fin, _) =
                DirectRunner::default().run(&BalancedSort::new(), init_states(&keys, v)).unwrap();
            check_sorted_output(&fin, &keys);
        }
    }

    #[test]
    fn sample_sort_h_relation_is_coarse() {
        // With N/v >= v^2, the max h stays O(N/v): check h <= 3N/v + v^2.
        let n = 8192;
        let v = 8; // N/v = 1024 = v^2 * 16
        let keys = uniform_u64(n, 3);
        let (_, costs) =
            DirectRunner::default().run(&CgmSort::by_pivots(), init_states(&keys, v)).unwrap();
        let bound = 3 * n / v + v * v;
        assert!(costs.max_h() <= bound, "h = {} bound = {bound}", costs.max_h());
    }

    #[test]
    fn works_on_threads() {
        let keys = uniform_u64(2000, 11);
        let v = 6;
        let (fin, _) =
            ThreadedRunner::new(3).run(&BalancedSort::new(), init_states(&keys, v)).unwrap();
        check_sorted_output(&fin, &keys);
    }

    #[test]
    fn pair_keys_sort_lexicographically() {
        let v = 4;
        let pairs: Vec<(u64, u64)> = uniform_u64(600, 5).into_iter().map(|k| (k % 10, k)).collect();
        let states: Vec<SortState<(u64, u64)>> =
            block_split(pairs.clone(), v).into_iter().map(|b| (b, Vec::new())).collect();
        let (fin, _) = DirectRunner::default().run(&CgmSort::by_pivots(), states).unwrap();
        let flat: Vec<(u64, u64)> = fin.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        let mut want = pairs;
        want.sort_unstable();
        assert_eq!(flat, want);
    }

    #[test]
    fn sortmsg_roundtrip() {
        let mut buf = vec![0u8; SortMsg::<u64>::SIZE];
        SortMsg::Key(0xABCDu64).write_to(&mut buf);
        assert_eq!(SortMsg::<u64>::read_from(&buf), SortMsg::Key(0xABCD));
        SortMsg::<u64>::Count(7, 99).write_to(&mut buf);
        assert_eq!(SortMsg::<u64>::read_from(&buf), SortMsg::Count(7, 99));
        // wide keys widen the frame
        assert_eq!(SortMsg::<(u64, u64, u64)>::SIZE, 25);
        assert_eq!(SortMsg::<u64>::SIZE, 13);
    }
}
