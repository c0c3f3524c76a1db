//! Property-based checks of the paper's theorems, run across the whole
//! stack (routing → simulation engine).

use proptest::prelude::*;

use cgmio_algos::graphs::CgmListRank;
use cgmio_algos::{BalancedSort, CgmSort};
use cgmio_core::{measure_requirements, EmConfig, EmRunReport, Requirements, SeqEmRunner};
use cgmio_data as data;
use cgmio_model::{CgmProgram, DirectRunner, RoundCtx, Status};
use cgmio_routing::{bin_sizes, lemma1_feasible, superbin_sizes, Balanced};

/// A one-round h-relation with an arbitrary message-length matrix.
#[derive(Clone)]
struct MatrixExchange {
    lens: Vec<Vec<u8>>,
}

impl CgmProgram for MatrixExchange {
    type Msg = u64;
    type State = Vec<u64>;

    fn round(&self, ctx: &mut RoundCtx<'_, u64>, state: &mut Vec<u64>) -> Status {
        match ctx.round {
            0 => {
                for (dst, &len) in self.lens[ctx.pid].iter().enumerate() {
                    let base = (ctx.pid * ctx.v + dst) as u64 * 1000;
                    ctx.send(dst, (0..len as u64).map(move |k| base + k));
                }
                Status::Continue
            }
            _ => {
                *state = ctx.incoming.flatten();
                Status::Done
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 1 across the full adapter: wrapping ANY one-round
    /// exchange in BalancedRouting preserves the delivered data and
    /// respects the message-size bounds in both balanced rounds.
    #[test]
    fn balanced_adapter_preserves_and_bounds(
        v in 2usize..8,
        flat in proptest::collection::vec(0u8..40, 64),
    ) {
        let lens: Vec<Vec<u8>> =
            (0..v).map(|i| (0..v).map(|j| flat[(i * v + j) % flat.len()]).collect()).collect();
        let prog = MatrixExchange { lens: lens.clone() };
        let mk = || (0..v).map(|_| Vec::new()).collect::<Vec<Vec<u64>>>();

        let (want, plain_costs) = DirectRunner::default().run(&prog, mk()).unwrap();
        let (got, bal_costs) =
            DirectRunner::default().run(&Balanced::new(prog.clone()), mk()).unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(bal_costs.lambda(), 2 * plain_costs.lambda());

        // Theorem 1 size bound: v*msg <= h_max + v(v-1)/2 where h_max is
        // the max per-proc volume of the unbalanced round.
        let h = plain_costs.max_h();
        let bound = (h + v * (v - 1) / 2) / v + 1;
        prop_assert!(
            bal_costs.max_message() <= bound,
            "max balanced message {} exceeds bound {}", bal_costs.max_message(), bound
        );
    }

    /// Conservation: BalancedRouting's bins and superbins never lose or
    /// invent items.
    #[test]
    fn routing_conserves_items(
        v in 2usize..10,
        flat in proptest::collection::vec(0usize..100, 100),
    ) {
        let lens: Vec<Vec<usize>> =
            (0..v).map(|i| (0..v).map(|j| flat[(i * v + j) % flat.len()]).collect()).collect();
        // round A conservation, per source
        for (i, row) in lens.iter().enumerate() {
            let bins = bin_sizes(i, v, row);
            prop_assert_eq!(bins.iter().sum::<usize>(), row.iter().sum::<usize>());
        }
        // round B conservation, per destination
        let sb = superbin_sizes(v, &lens);
        for k in 0..v {
            let direct: usize = lens.iter().map(|r| r[k]).sum();
            let via: usize = sb.iter().map(|r| r[k]).sum();
            prop_assert_eq!(direct, via);
        }
    }

    /// Lemma 1 threshold is exact.
    #[test]
    fn lemma1_threshold(v in 2u64..64, b in 1u64..4096) {
        let n = v * v * b + v * v * (v - 1) / 2;
        prop_assert!(lemma1_feasible(n, v, b));
        prop_assert!(!lemma1_feasible(n - 1, v, b));
    }

    /// The EM engine sorts arbitrary key multisets identically to the
    /// in-memory reference (a full-stack property test).
    #[test]
    fn em_sort_equals_direct_sort(
        keys in proptest::collection::vec(any::<u64>(), 0..600),
        v in 2usize..6,
    ) {
        let prog = BalancedSort::<u64>::new();
        let mk = || {
            data::block_split(keys.clone(), v)
                .into_iter()
                .map(|b| (b, Vec::new()))
                .collect::<Vec<_>>()
        };
        let (want, _) = DirectRunner::default().run(&prog, mk()).unwrap();
        let (_, _, req) = measure_requirements(&prog, mk()).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, 2, 256, &req);
        let (got, rep) = SeqEmRunner::new(cfg.clone()).run(&prog, mk()).unwrap();
        prop_assert_eq!(got, want.clone());
        // the automatic group's memory audit — k·(μ + r + s) and the
        // open blocks carried past it — fits in M
        assert_fits_in_m(&cfg, &req, &rep, cfg.vp_group);
        // one vp at a time never exceeds what the measurement promised:
        // the working set plus the pool's reserve
        let one = EmConfig { vp_group: 1, ..cfg.clone() };
        let (got, rep) = SeqEmRunner::new(one).run(&prog, mk()).unwrap();
        prop_assert_eq!(got, want);
        assert_fits_in_m(&cfg, &req, &rep, 1);
    }

    /// The same audit for the key-only sort, whose `M` is sized from
    /// 8-byte frames.
    #[test]
    fn em_sort_by_pivots_fits_in_m(
        keys in proptest::collection::vec(any::<u64>(), 0..600),
        v in 2usize..6,
    ) {
        let prog = CgmSort::<u64>::by_pivots();
        let mk = || data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect();
        let (_, _, req) = measure_requirements(&prog, mk()).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, 2, 256, &req);
        for k in [1, cfg.vp_group] {
            let (_, rep) = SeqEmRunner::new(EmConfig { vp_group: k, ..cfg.clone() }).run(&prog, mk()).unwrap();
            assert_fits_in_m(&cfg, &req, &rep, k);
        }
    }

    /// And for list ranking, whose vps' traffic differs from round to
    /// round and from vp to vp.
    #[test]
    fn em_list_ranking_fits_in_m(n in 1usize..400, seed in any::<u64>(), v in 2usize..6) {
        let (succ, _) = data::random_list(n, seed);
        let mk = || -> Vec<_> {
            data::block_split(succ.clone(), v).into_iter().map(|b| (vec![n as u64], b, Vec::new())).collect()
        };
        let (_, _, req) = measure_requirements(&CgmListRank, mk()).unwrap();
        let cfg = EmConfig::from_requirements(v, 1, 2, 64, &req);
        for k in [1, cfg.vp_group] {
            let (_, rep) = SeqEmRunner::new(EmConfig { vp_group: k, ..cfg.clone() }).run(&CgmListRank, mk()).unwrap();
            assert_fits_in_m(&cfg, &req, &rep, k);
        }
    }
}

/// `M` is the working set `W` plus the reserve `R`; a run's peak stays
/// within it, and its open-block pool within `R` less the context
/// carries' room `S = 2·(D − 1)·B`.
fn assert_fits_in_m(cfg: &EmConfig, req: &Requirements, rep: &EmRunReport, k: usize) {
    let (d, bb) = (cfg.num_disks, cfg.block_bytes);
    let (w, r) = (req.working_set(d, bb), req.pool_reserve(cfg.v, cfg.p, d, bb));
    let s = 2 * (d - 1) * bb;
    assert_eq!(cfg.mem_bytes, w + r);
    assert!(rep.peak_mem_bytes <= w + r, "peak {} > W {w} + R {r} at k = {k}", rep.peak_mem_bytes);
    assert!(rep.peak_open_bytes <= r - s, "open pool {} > R {r} − S {s}", rep.peak_open_bytes);
}
