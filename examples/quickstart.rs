//! Quickstart: write a CGM algorithm once, run it everywhere.
//!
//! This sorts 100k keys with the same unmodified `BalancedSort` program on
//! all four runners — in-memory sequential, multi-threaded, and the two
//! external-memory simulation engines of the paper — and prints the
//! exact parallel-I/O accounting the EM runs produce.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cgmio_algos::BalancedSort;
use cgmio_core::{measure_requirements, EmConfig, ParEmRunner, SeqEmRunner};
use cgmio_data::{block_split, uniform_u64};
use cgmio_model::{DirectRunner, ThreadedRunner};
use cgmio_pdm::DiskTimingModel;

fn main() {
    let n = 100_000;
    let v = 16; // virtual processors of the simulated CGM machine
    let keys = uniform_u64(n, 7);
    let mk_states = || {
        block_split(keys.clone(), v)
            .into_iter()
            .map(|block| (block, Vec::new()))
            .collect::<Vec<_>>()
    };
    let prog = BalancedSort::<u64>::new();

    // 1. Reference run, in memory.
    let (reference, costs) = DirectRunner::default().run(&prog, mk_states()).unwrap();
    println!("direct:   {} rounds, max h-relation {} items", costs.lambda(), costs.max_h());

    // 2. Real threads (the \"communication\" is real channel traffic).
    let (threaded, rep) = ThreadedRunner::new(4).run(&prog, mk_states()).unwrap();
    assert_eq!(threaded, reference);
    println!("threads:  {} items crossed a thread boundary", rep.cross_thread_items);

    // 3. Algorithm 2: one real processor, D = 4 disks, blocked parallel I/O.
    let (_, _, req) = measure_requirements(&prog, mk_states()).unwrap();
    let cfg = EmConfig::from_requirements(v, 1, 4, 4096, &req);
    let (seq_em, rep) = SeqEmRunner::new(cfg.clone()).run(&prog, mk_states()).unwrap();
    assert_eq!(seq_em, reference);
    let model = DiskTimingModel::nineties_disk();
    println!(
        "seq EM:   {} parallel I/Os ({} ctx + {} msg), {:.0}% of ops used all 4 disks, ~{:.1} s on a 1998 disk",
        rep.breakdown.algorithm_ops(),
        rep.breakdown.ctx_ops,
        rep.breakdown.msg_ops,
        rep.io.parallel_efficiency() * 100.0,
        rep.io_time_us(&model) / 1e6,
    );

    // 4. Algorithm 3: p = 4 real processors, each with its own disks.
    let mut pcfg = cfg;
    pcfg.p = 4;
    let (par_em, rep) = ParEmRunner::new(pcfg).run(&prog, mk_states()).unwrap();
    assert_eq!(par_em, reference);
    println!(
        "par EM:   {:.0} parallel I/Os per processor (p = 4), ~{:.1} s modelled",
        rep.io_ops_per_proc(),
        rep.io_time_us(&model) / 1e6,
    );

    // the output really is sorted
    let flat: Vec<u64> = reference.iter().flat_map(|(b, _)| b.iter().copied()).collect();
    assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    println!("all four runners agree; output of {} keys is sorted", flat.len());
}
