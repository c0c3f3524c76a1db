//! Heap-allocation budget of the per-operation path.
//!
//! One virtual-processor superstep should allocate what the *program*
//! owns — its decoded state, its inbox items, its outbox items — and
//! next to nothing else: address lists, span tables, staging lists and
//! entry vectors are scratch that each layer recycles. This test counts
//! allocations with [`cgmio_bench::alloc::CountingAlloc`] and fails when
//! a per-call vector creeps back into the data path.
//!
//! One `#[test]` only: the counters are process-global, and a second
//! test running on another thread would be counted too.

use cgmio_algos::CgmSort;
use cgmio_bench::alloc::{self, CountingAlloc};
use cgmio_core::{measure_requirements, EmConfig, SeqEmRunner};
use cgmio_data as data;
use cgmio_model::demo::TokenRing;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one ring vp-superstep may perform, at the group size of
/// two the config picks: the three the program owns (state `Vec`, inbox
/// `Vec<u64>`, outbox `Vec<u64>`) and nothing else — write-list
/// scratch and mailbox rows are allocated once per matrix. The
/// 0.004 measured above 3.0 at `v` = 2 000 is about seven allocations
/// per superstep, not per vp: it halves when `v` doubles.
const RING_BUDGET: f64 = 3.01;

/// Allocations a whole ring run (`rounds + 1` supersteps) may perform
/// per virtual processor at two rotations. 8.10 (depth 0) and 8.11
/// (depth 2) are measured: superstep 0 takes the caller's states and the
/// last one hands them back, so neither decodes a context, and a track's
/// first write lands in a shared `MemStorage` slab (11.07 with one
/// allocation per track, 13.06 with a set-up and a readout pass, 85
/// before the scratch was recycled).
const RING_RUN_BUDGET: f64 = 8.15;

/// Allocations of the sort run below: 2 044 measured (3 348 with one
/// `MemStorage` allocation per track, 3 910 with
/// 13-byte tagged frames instead of bare keys, 4 449 before inbox
/// decoders kept their carry buffers between reads, 4 649 with a set-up
/// and a readout pass and the sorted runs grown by doubling, 7 763
/// before the scratch was recycled).
/// The large-block path must not get worse.
const SORT_BUDGET: u64 = 2_055;

/// Heap bytes a whole two-rotation ring run may request per virtual
/// processor, at any `v`: the per-processor state is sparse. 721.6
/// (v = 2 000) and 717.8 (v = 16 000) are measured (784.5 and 781.3
/// with one `MemStorage` allocation per track). Dense `v × v` `u32` message-length tables would be
/// 32 MB at v = 2 000 and 2 GB at v = 16 000 on their own.
const RING_BYTES_PER_VP: f64 = 735.0;

/// Allocator traffic of `runner.run()` on a `v`-processor token ring of
/// `rounds` rotations: `Mem`, D = 2, B = 64 (so `vp_group` = 2).
fn ring_allocs(v: usize, rounds: usize, depth: usize) -> alloc::AllocStats {
    let prog = TokenRing { rounds };
    // Slot sizes of a ring do not depend on v; the dry run's dense
    // v × v matrix does, so measure on 16 processors.
    let small = (0..16u64).map(|i| vec![i]).collect();
    let (_, _, req) = measure_requirements(&prog, small).unwrap();
    let mut cfg = EmConfig::from_requirements(v, 1, 2, 64, &req);
    assert_eq!(cfg.vp_group, 2, "one-block ring contexts at D = 2 go two at a time");
    cfg.pipeline_depth = depth;
    let states: Vec<Vec<u64>> = (0..v as u64).map(|i| vec![i]).collect();
    let runner = SeqEmRunner::new(cfg);
    let before = alloc::snapshot();
    let (finals, _) = runner.run(&prog, states).unwrap();
    let traffic = alloc::snapshot().since(before);
    assert_eq!(finals[0], vec![((v - rounds % v) % v) as u64], "ring rotated {rounds} places");
    traffic
}

#[test]
fn per_operation_path_stays_within_its_allocation_budget() {
    assert!(ring_allocs(16, 1, 0).allocs > 0 && alloc::counting_installed());

    let v = 2_000;
    for depth in [0usize, 2] {
        // First-touch track allocations are the same in both runs; the
        // difference is four steady supersteps.
        let short = ring_allocs(v, 2, depth).allocs;
        let per_vp_superstep = (ring_allocs(v, 6, depth).allocs - short) as f64 / (4 * v) as f64;
        let per_vp = short as f64 / v as f64;
        println!(
            "ring depth {depth}: {per_vp_superstep:.4} allocations per vp-superstep, \
             {per_vp:.2} per vp over a whole two-rotation run"
        );
        assert!(
            per_vp_superstep <= RING_BUDGET,
            "depth {depth}: {per_vp_superstep:.2} allocations per vp-superstep, budget {RING_BUDGET}"
        );
        assert!(
            per_vp <= RING_RUN_BUDGET,
            "depth {depth}: {per_vp:.2} allocations per vp and run, budget {RING_RUN_BUDGET}"
        );
    }

    // The per-processor state: bytes per vp stay flat as v grows 8×.
    for v in [2_000, 16_000] {
        let per_vp = ring_allocs(v, 2, 0).bytes as f64 / v as f64;
        println!("ring v {v}: {per_vp:.1} bytes allocated per vp over a two-rotation run");
        assert!(
            per_vp <= RING_BYTES_PER_VP,
            "v {v}: {per_vp:.1} bytes per vp, budget {RING_BYTES_PER_VP}"
        );
    }

    // The large-block path: a sort whose messages span many blocks.
    let (v, keys) = (16, data::uniform_u64(20_000, 14));
    let prog = CgmSort::<u64>::by_pivots();
    let states =
        || data::block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect();
    let (_, _, req) = measure_requirements(&prog, states()).unwrap();
    let runner = SeqEmRunner::new(EmConfig::from_requirements(v, 1, 2, 256, &req));
    let init = states();
    let before = alloc::snapshot();
    let (_, rep) = runner.run(&prog, init).unwrap();
    let allocs = alloc::snapshot().since(before).allocs;
    let supersteps = rep.costs.rounds.len() + 1;
    println!(
        "sort v {v}: {allocs} allocations, {:.2} per vp-superstep",
        allocs as f64 / (v * supersteps) as f64
    );
    assert!(allocs <= SORT_BUDGET, "sort: {allocs} allocations > {SORT_BUDGET}");
}
