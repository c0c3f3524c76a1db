//! The engine's coalescing constructors: [`ConcurrentStorage`] with the
//! prefetch cache off (coalescing, not caching, is the latency lever
//! here, and a hint must never change observable behaviour), either
//! owning the drive files directly or layered over another storage.
//!
//! Queue protocol, reply rules and the io_uring seam are described once,
//! in [`crate::engine`]. Everything observable above the trait is
//! identical across the four constructors — `IoStats`, finals and
//! checkpoints are bit-identical (`tests/async_backend.rs`).

use std::io;
use std::path::Path;
use std::sync::Arc;

use cgmio_pdm::{DiskGeometry, TrackStorage};

use crate::{ConcurrentStorage, IoEngineOpts};

/// Named constructors for the engine as `BackendSpec::AsyncFile` runs it.
pub enum AsyncFileStorage {}

impl AsyncFileStorage {
    /// Open (or create) one backing file per drive inside `dir` — the
    /// same `disk{d}.dat` layout as [`cgmio_pdm::FileStorage`], so the
    /// two file backends interoperate on the same directory — owned by
    /// the drive workers: every queued run of adjacent tracks is one
    /// positioned `read_at`/`write_at`. Prefetch hints are ignored.
    pub fn open_dir(
        dir: &Path,
        geom: DiskGeometry,
        opts: IoEngineOpts,
    ) -> io::Result<ConcurrentStorage> {
        ConcurrentStorage::open_raw(dir, geom, IoEngineOpts { ignore_hints: true, ..opts })
    }

    /// Layer the engine over an existing storage (fault injection,
    /// memory backends) with prefetch hints ignored. Ops are serviced
    /// per track in queue order, so deterministic wrappers beneath see
    /// the same op sequence as under [`ConcurrentStorage::new`].
    pub fn over(
        inner: Arc<dyn TrackStorage>,
        num_disks: usize,
        opts: IoEngineOpts,
    ) -> ConcurrentStorage {
        ConcurrentStorage::new(inner, num_disks, IoEngineOpts { ignore_hints: true, ..opts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract_tests, read_all, Make, Over};
    use crate::trace::OpKind;
    use crate::Durability;
    use cgmio_pdm::testutil::TempDir;
    use cgmio_pdm::{classify, FileStorage, IoErrorKind, MemStorage, TrackAddr};

    const MEM: Make =
        |_, g, opts| AsyncFileStorage::over(Arc::new(MemStorage::new(g)), g.num_disks, opts);
    const DIR: Make = |dir, g, opts| AsyncFileStorage::open_dir(dir, g, opts).unwrap();
    const OVER: Over = AsyncFileStorage::over;

    contract_tests! {
        roundtrip_through_reactors: roundtrip(MEM), roundtrip(DIR);
        read_after_write_behind_is_coherent: coherent(MEM), coherent(DIR);
        interleaved_write_read_same_track_is_fifo: interleaved_fifo(MEM), interleaved_fifo(DIR);
        scatter_paths_roundtrip_many_blocks_per_drive: scatter_many(MEM), scatter_many(DIR);
        discard_zeroes_raw_ranges: discard_zeroes(MEM), discard_zeroes(DIR);
        trace_records_each_block_of_coalesced_runs: trace_per_block(MEM), trace_per_block(DIR);
        obs_records_batch_and_inflight_series:
            obs_series_and_stamps(MEM), obs_series_and_stamps(DIR);
        works_behind_disk_array_with_identical_accounting:
            behind_disk_array(MEM), behind_disk_array(DIR);
        discard_drops_parked_read_tickets:
            discard_drops_parked_tickets(MEM), discard_drops_parked_tickets(DIR);
        layered_path_services_mem_storage: flush_drains(OVER), drop_drains(OVER);
        durability_mode_fsyncs_on_flush: fsync_per_durability(OVER);
        deferred_write_errors_surface_and_stay_bounded:
            deferred_sticky(OVER), deferred_named(OVER), deferred_bounded(OVER),
            deferred_taxonomy(OVER);
        reactors_retry_injected_transient_faults:
            retries_traced(OVER), retries_counted_without_obs(OVER), torn_writes_heal(OVER);
        checksum_mismatch_surfaces_as_corrupt: checksum_corrupt(OVER);
        read_reply_is_not_held_behind_queued_writes: early_read_reply(OVER);
        reactor_panic_is_a_typed_error_on_that_drive_only: worker_panic(OVER);
    }

    // Owning the drive files: coalesced transfers and the on-disk layout.

    fn raw(dir: &TempDir, d: usize, bb: usize, opts: IoEngineOpts) -> ConcurrentStorage {
        AsyncFileStorage::open_dir(dir.path(), DiskGeometry::new(d, bb), opts).unwrap()
    }

    #[test]
    fn adjacent_tracks_coalesce_and_roundtrip() {
        let dir = TempDir::new("cgmio-aio-runs");
        let s = raw(&dir, 1, 4, IoEngineOpts { trace: true, ..Default::default() });
        // One vectored write of an adjacent run, then a vectored read of
        // the same run: each is a single transfer, so every block of it
        // shares one service start — and the bytes round-trip exactly.
        let payloads: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i, i + 1, i + 2]).collect();
        let writes: Vec<(TrackAddr, &[u8])> =
            (0..16).map(|t| (TrackAddr::new(0, t), &payloads[t as usize][..])).collect();
        s.write_scatter(&writes).unwrap();
        let addrs: Vec<TrackAddr> = (0..16).map(|t| TrackAddr::new(0, t)).collect();
        for (i, block) in read_all(&s, &addrs).iter().enumerate() {
            assert_eq!(&block[..3], &payloads[i][..], "track {i}");
            assert_eq!(block[3], 0, "zero-padded tail");
        }
        let evs = s.trace_handle().unwrap().drain();
        for kind in [OpKind::Write, OpKind::Read] {
            let starts: Vec<u64> =
                evs.iter().filter(|e| e.kind == kind).map(|e| e.start_us).collect();
            assert_eq!(starts.len(), 16);
            assert!(starts.iter().all(|&t| t == starts[0]), "{kind:?}: one transfer per run");
        }
        // Non-adjacent and descending lists cut runs and still round-trip.
        let scattered = [TrackAddr::new(0, 9), TrackAddr::new(0, 3), TrackAddr::new(0, 4)];
        let firsts: Vec<u8> = read_all(&s, &scattered).iter().map(|b| b[0]).collect();
        assert_eq!(firsts, vec![9, 3, 4]);
    }

    #[test]
    fn flush_drains_and_fsyncs_per_durability() {
        let dir = TempDir::new("cgmio-aio-sync");
        let opts = IoEngineOpts { durability: Durability::SyncPerSuperstep, ..Default::default() };
        let s = raw(&dir, 2, 4, opts);
        for t in 0..20 {
            s.write_scatter(&[
                (TrackAddr::new(0, t), &[1u8][..]),
                (TrackAddr::new(1, t), &[2u8][..]),
            ])
            .unwrap();
        }
        s.flush(false).unwrap();
        let on_disk = |d| std::fs::metadata(dir.path().join(format!("disk{d}.dat"))).unwrap().len();
        assert_eq!((on_disk(0), on_disk(1)), (80, 80), "whole tracks reached the files");
        assert_eq!(s.tracks_used(), vec![20, 20]);
    }

    #[test]
    fn interoperates_with_sync_file_layout() {
        let dir = TempDir::new("cgmio-aio-layout");
        let geom = DiskGeometry::new(2, 8);
        {
            let fs = FileStorage::open(dir.path(), geom).unwrap();
            fs.write_track(0, 2, &[5u8; 8]).unwrap();
            fs.write_track(1, 0, &[6u8; 4]).unwrap();
        }
        let s = raw(&dir, 2, 8, IoEngineOpts::default());
        assert_eq!(s.read_track(0, 2).unwrap(), vec![5u8; 8]);
        assert_eq!(&s.read_track(1, 0).unwrap()[..4], &[6u8; 4]);
        s.write_track(0, 3, &[7]).unwrap();
        s.flush(false).unwrap();
        let fs = FileStorage::open(dir.path(), geom).unwrap();
        assert_eq!(fs.read_track(0, 3).unwrap()[0], 7);
    }

    #[test]
    fn checksum_verification_catches_out_of_band_corruption() {
        let dir = TempDir::new("cgmio-aio-rot");
        let s = raw(&dir, 1, 4, IoEngineOpts { verify_checksums: true, ..Default::default() });
        s.write_scatter(&[
            (TrackAddr::new(0, 0), &[1u8, 2, 3, 4][..]),
            (TrackAddr::new(0, 1), &[5u8][..]),
        ])
        .unwrap();
        s.flush(false).unwrap();
        assert_eq!(s.read_track(0, 0).unwrap(), vec![1, 2, 3, 4]);
        // Corrupt one track of the file behind the workers' back: a run
        // over both tracks fails that track only.
        let fs = FileStorage::open(dir.path(), DiskGeometry::new(1, 4)).unwrap();
        fs.write_track(0, 0, &[9, 9, 9, 9]).unwrap();
        assert_eq!(classify(&s.read_track(0, 0).unwrap_err()), IoErrorKind::Corrupt);
        let mut got = Vec::new();
        let run = [TrackAddr::new(0, 1), TrackAddr::new(0, 0)];
        let e = s.read_scatter_with(&run, &mut |_, b| got.push(b.to_vec())).unwrap_err();
        assert_eq!(classify(&e), IoErrorKind::Corrupt);
        assert_eq!(s.read_track(0, 1).unwrap(), vec![5, 0, 0, 0]);
    }
}
