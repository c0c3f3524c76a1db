//! The paper's prototype, reproduced: external sorting on a "cluster"
//! (p worker threads, D disks each — here real files on the local
//! filesystem via the file-backed disk array) and the processor/disk
//! scaling behaviour of Figures 3–4.
//!
//! ```sh
//! cargo run --release --example cluster_sort
//! ```

use cgmio_algos::CgmSort;
use cgmio_bench::config_for;
use cgmio_core::{ParEmRunner, SeqEmRunner};
use cgmio_data::{block_split, uniform_u64};
use cgmio_pdm::{DiskArray, DiskGeometry, DiskTimingModel, TrackAddr};

fn main() {
    let n = 200_000;
    let v = 16;
    let keys = uniform_u64(n, 11);
    let mk =
        || block_split(keys.clone(), v).into_iter().map(|b| (b, Vec::new())).collect::<Vec<_>>();
    let prog = CgmSort::<u64>::by_pivots();
    let model = DiskTimingModel::nineties_disk();

    println!("sorting {n} keys, v = {v} virtual processors\n");
    println!("  p  D   I/Os/proc   modelled-io  wall(sim)");
    for (p, d) in [(1usize, 1usize), (1, 2), (1, 4), (2, 2), (4, 2), (4, 4)] {
        let mut cfg = config_for(&prog, mk(), v, p, d, 4096);
        cfg.p = p;
        let (fin, rep) = ParEmRunner::new(cfg).run(&prog, mk()).unwrap();
        let flat: Vec<u64> = fin.iter().flat_map(|(b, _)| b.iter().copied()).collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        println!(
            "  {p}  {d}  {:9.0}   {:8.2} s   {:?}",
            rep.io_ops_per_proc(),
            rep.io_time_us(&model) / 1e6,
            rep.wall,
        );
    }

    // The same engine against REAL files: the file-backed disk array
    // exercises the identical layout/scheduling code paths through the
    // filesystem (the in-memory backend only replaces the medium).
    let dir = std::env::temp_dir().join(format!("cgmio-cluster-{}", std::process::id()));
    let geom = DiskGeometry::new(2, 4096);
    let mut disks = DiskArray::new_file_backed(geom, &dir).expect("file-backed disks");
    disks
        .parallel_write(&[
            (TrackAddr::new(0, 0), &u64::encode_block(&keys[..512])[..]),
            (TrackAddr::new(1, 0), &u64::encode_block(&keys[512..1024])[..]),
        ])
        .unwrap();
    let back = disks.parallel_read(&[TrackAddr::new(0, 0), TrackAddr::new(1, 0)]).unwrap();
    assert_eq!(back[0], u64::encode_block(&keys[..512]));
    println!("\nfile-backed array: wrote + verified 2 striped blocks under {}", dir.display());
    std::fs::remove_dir_all(&dir).ok();

    // Run the full sequential EM sort once more for the I/O breakdown.
    let cfg = config_for(&prog, mk(), v, 1, 4, 4096);
    let (_, rep) = SeqEmRunner::new(cfg).run(&prog, mk()).unwrap();
    // Superstep 0 takes the input from RAM and the last superstep hands
    // the finals back, so no operation moves the input or the output.
    assert_eq!((rep.breakdown.setup_ops, rep.breakdown.readout_ops), (0, 0));
    println!(
        "\nbreakdown (p=1, D=4): contexts {} | messages {} (input and output never touch the disks)",
        rep.breakdown.ctx_ops, rep.breakdown.msg_ops
    );
}

/// Tiny helper: encode a u64 slice as one block payload.
trait EncodeBlock {
    fn encode_block(items: &[u64]) -> Vec<u8>;
}
impl EncodeBlock for u64 {
    fn encode_block(items: &[u64]) -> Vec<u8> {
        use cgmio_pdm::Item;
        u64::encode_slice(items)
    }
}
