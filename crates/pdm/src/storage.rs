//! Pluggable track storage behind [`crate::DiskArray`].
//!
//! The accounting layer (legality checks, [`crate::IoStats`]) lives in
//! `DiskArray` and is backend-agnostic; a [`TrackStorage`] only moves
//! bytes. Two synchronous backends and one queued engine exist:
//!
//! * [`MemStorage`] (here) — tracks in memory, the default,
//! * [`crate::file_backend::FileStorage`] — one file per drive, synchronous,
//! * `cgmio_io::ConcurrentStorage` — the queued drive engine: per-drive
//!   worker threads with write-behind, split-phase reads and an
//!   optional prefetch cache, layered over either of the above (or any
//!   other storage) or — through `cgmio_io::AsyncFileStorage::open_dir` —
//!   owning the drive files itself and coalescing adjacent tracks.
//!
//! The rest are *wrappers*, not backends: [`TrackRange`] exposes a
//! bounded per-drive track window of any backend as a storage of its
//! own (how the job service multiplexes many runs over one shared
//! engine), [`crate::FaultInjector`] injects seeded faults, and
//! `cgmio_io::RetryStorage` retries them.
//!
//! All methods take `&self` so a storage can be driven from per-drive
//! worker threads; backends provide their own interior mutability.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::disk::TrackAddr;
use crate::DiskGeometry;

/// Byte-moving backend for a [`crate::DiskArray`].
///
/// Contract (relied on by the equivalence tests across backends):
///
/// * a track reads back the last data written to it, zero-padded to the
///   block size; never-written tracks read as zeros,
/// * `write_track` is only called with `data.len() <= block_bytes`
///   (`DiskArray` rejects larger payloads before reaching the backend),
/// * [`TrackStorage::read_scatter_with`] / [`TrackStorage::write_scatter`]
///   take any number of tracks per disk — a legal parallel operation (at
///   most one track per disk) is the special case backends with real
///   parallelism overlap across drives,
/// * [`TrackStorage::prefetch`] is a pure hint: it must not change
///   observable contents and completes in the background if at all,
/// * after [`TrackStorage::flush`] returns, every previously submitted
///   write has been applied (and any deferred write error is reported).
///
/// ```
/// use cgmio_pdm::{DiskGeometry, MemStorage, TrackStorage};
/// let s = MemStorage::new(DiskGeometry::new(2, 4));
/// s.write_track(1, 0, &[7, 8]).unwrap();
/// assert_eq!(s.read_track(1, 0).unwrap(), vec![7, 8, 0, 0]); // zero-padded
/// assert_eq!(s.read_track(0, 9).unwrap(), vec![0; 4]); // never written reads as zeros
/// s.flush(false).unwrap(); // synchronous backend: nothing pending
/// ```
pub trait TrackStorage: Send + Sync {
    /// Read one track, zero-filled to the block size.
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>>;

    /// Write one track (short payloads are zero-padded on disk).
    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()>;

    /// Read an arbitrary scatter list of tracks — any number per disk —
    /// handing each block to `f(request_index, bytes)` in request order.
    ///
    /// This is the zero-copy read entry point: backends that hold blocks
    /// in addressable memory call `f` with a **borrowed** view of the
    /// stored block (no per-block allocation); the default simply loops
    /// [`TrackStorage::read_track`], so wrappers that intercept per-track
    /// reads (fault injection, retry) keep working unmodified.
    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        for (i, a) in addrs.iter().enumerate() {
            let data = self.read_track(a.disk, a.track)?;
            f(i, &data);
        }
        Ok(())
    }

    /// Write an arbitrary scatter list of tracks — any number per disk —
    /// as one vectored submission.
    ///
    /// There is no one-track-per-disk restriction: a whole
    /// compound-superstep write arrives as a single call, and concurrent
    /// backends split it into one submission per drive instead of
    /// per-block sends. The default loops [`TrackStorage::write_track`].
    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        for (a, data) in writes {
            self.write_track(a.disk, a.track, data)?;
        }
        Ok(())
    }

    /// Begin an asynchronous scatter read of `addrs`, returning an
    /// opaque ticket to pass (with the *same* address list) to
    /// [`TrackStorage::read_scatter_wait`]. Asynchronous backends start
    /// the transfers immediately and return; the default — used by every
    /// synchronous backend and by fault/retry wrappers — does nothing
    /// here and performs the whole read at wait time, so split-phase
    /// callers see identical bytes, errors, and per-track operation
    /// order on every backend.
    fn read_scatter_submit(&self, _addrs: &[TrackAddr]) -> io::Result<u64> {
        Ok(0)
    }

    /// Complete a read begun with [`TrackStorage::read_scatter_submit`],
    /// handing each block to `f(request_index, bytes)` in request order.
    /// `addrs` must be the list the ticket was submitted with. Each
    /// ticket must be waited on exactly once.
    fn read_scatter_wait(
        &self,
        _ticket: u64,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        self.read_scatter_with(addrs, f)
    }

    /// Hint that these tracks will be read soon. Never counted as I/O.
    fn prefetch(&self, _addrs: &[TrackAddr]) {}

    /// Wait for all submitted writes to be applied, surfacing any
    /// deferred error; `sync` additionally forces data to stable storage
    /// (fsync) where the backend has such a notion.
    fn flush(&self, _sync: bool) -> io::Result<()> {
        Ok(())
    }

    /// Force one drive's data to stable storage. Lets per-drive worker
    /// threads fsync only their own file; default is a no-op (in-memory
    /// backends have no stable storage).
    fn sync_disk(&self, _disk: usize) -> io::Result<()> {
        Ok(())
    }

    /// Release the tracks of `tracks` on `disk`, returning `Ok(true)`
    /// when the backend reclaimed them. After a successful discard the
    /// tracks read as zeros again — exactly like never-written tracks —
    /// and any backing resources are freed, so a caller that hands the
    /// range to a new tenant preserves the fresh-window contract.
    ///
    /// `Ok(false)` means the backend cannot reclaim (the default):
    /// contents are unchanged and the caller must treat the range as
    /// still occupied. Discards are bookkeeping, never counted as I/O.
    fn discard(&self, _disk: usize, _tracks: Range<u64>) -> io::Result<bool> {
        Ok(false)
    }

    /// Highest allocated track count per drive (diagnostics).
    fn tracks_used(&self) -> Vec<u64>;
}

/// Forwarding impls so wrappers (`FaultInjector`, retry layers) can be
/// composed over type-erased backends. Every method forwards — including
/// the provided ones, so a backend's vectored or split-phase
/// implementation is not silently replaced by the sequential default.
macro_rules! forward_track_storage {
    ($ptr:ident) => {
        impl<S: TrackStorage + ?Sized> TrackStorage for $ptr<S> {
            fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
                (**self).read_track(disk, track)
            }
            fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
                (**self).write_track(disk, track, data)
            }
            fn read_scatter_with(
                &self,
                addrs: &[TrackAddr],
                f: &mut dyn FnMut(usize, &[u8]),
            ) -> io::Result<()> {
                (**self).read_scatter_with(addrs, f)
            }
            fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
                (**self).write_scatter(writes)
            }
            fn read_scatter_submit(&self, addrs: &[TrackAddr]) -> io::Result<u64> {
                (**self).read_scatter_submit(addrs)
            }
            fn read_scatter_wait(
                &self,
                ticket: u64,
                addrs: &[TrackAddr],
                f: &mut dyn FnMut(usize, &[u8]),
            ) -> io::Result<()> {
                (**self).read_scatter_wait(ticket, addrs, f)
            }
            fn prefetch(&self, addrs: &[TrackAddr]) {
                (**self).prefetch(addrs)
            }
            fn flush(&self, sync: bool) -> io::Result<()> {
                (**self).flush(sync)
            }
            fn sync_disk(&self, disk: usize) -> io::Result<()> {
                (**self).sync_disk(disk)
            }
            fn discard(&self, disk: usize, tracks: std::ops::Range<u64>) -> io::Result<bool> {
                (**self).discard(disk, tracks)
            }
            fn tracks_used(&self) -> Vec<u64> {
                (**self).tracks_used()
            }
        }
    };
}

use std::boxed::Box;
use std::sync::Arc;
forward_track_storage!(Box);
forward_track_storage!(Arc);

/// A contiguous per-drive track window of another storage, exposed as a
/// storage of its own: track `t` of the range is track `base_track + t`
/// of the inner backend, and any access at or past `span_tracks` is
/// rejected with [`io::ErrorKind::InvalidInput`] before it reaches the
/// backend.
///
/// This is the namespacing primitive the multi-tenant job service
/// (`cgmio-svc`) is built on: many jobs share one `Arc`'d concurrent
/// engine, each seeing only its own disjoint window. Because a
/// never-written track reads as zeros in every backend, a fresh window
/// is indistinguishable from a fresh disk array — so a job's bytes,
/// I/O counts, and errors are bit-identical to a solo run (see
/// `tests/service_isolation.rs`).
///
/// All forwarding preserves the inner backend's concurrency: scatter
/// lists, split-phase tickets, and prefetch hints are remapped
/// address-by-address, never serialised.
///
/// ```
/// use cgmio_pdm::{DiskGeometry, MemStorage, TrackRange, TrackStorage};
/// use std::sync::Arc;
/// let pool = Arc::new(MemStorage::new(DiskGeometry::new(2, 4)));
/// let a = TrackRange::new(Arc::clone(&pool), 0, 10);
/// let b = TrackRange::new(Arc::clone(&pool), 10, 10);
/// a.write_track(0, 3, &[7]).unwrap();
/// assert_eq!(b.read_track(0, 3).unwrap(), vec![0; 4]); // b's window is untouched
/// assert_eq!(pool.read_track(0, 3).unwrap(), vec![7, 0, 0, 0]);
/// assert!(b.read_track(0, 10).is_err()); // outside the span
/// ```
pub struct TrackRange<S> {
    inner: S,
    base_track: u64,
    span_tracks: u64,
}

impl<S: TrackStorage> TrackRange<S> {
    /// View tracks `[base_track, base_track + span_tracks)` of every
    /// drive of `inner` as a storage whose tracks start at 0.
    pub fn new(inner: S, base_track: u64, span_tracks: u64) -> Self {
        assert!(span_tracks > 0, "a track range must hold at least one track");
        Self { inner, base_track, span_tracks }
    }

    /// First inner track of the window.
    pub fn base_track(&self) -> u64 {
        self.base_track
    }

    /// Window size in tracks per drive.
    pub fn span_tracks(&self) -> u64 {
        self.span_tracks
    }

    fn map(&self, track: u64) -> io::Result<u64> {
        if track >= self.span_tracks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "track {track} outside namespaced range of {} tracks (base {})",
                    self.span_tracks, self.base_track
                ),
            ));
        }
        Ok(self.base_track + track)
    }

    fn map_addrs(&self, addrs: &[TrackAddr]) -> io::Result<Vec<TrackAddr>> {
        addrs.iter().map(|a| Ok(TrackAddr::new(a.disk, self.map(a.track)?))).collect()
    }
}

impl<S: TrackStorage> TrackStorage for TrackRange<S> {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        self.inner.read_track(disk, self.map(track)?)
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        self.inner.write_track(disk, self.map(track)?, data)
    }

    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        self.inner.read_scatter_with(&self.map_addrs(addrs)?, f)
    }

    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        let mapped: Vec<(TrackAddr, &[u8])> = writes
            .iter()
            .map(|(a, d)| Ok((TrackAddr::new(a.disk, self.map(a.track)?), *d)))
            .collect::<io::Result<_>>()?;
        self.inner.write_scatter(&mapped)
    }

    fn read_scatter_submit(&self, addrs: &[TrackAddr]) -> io::Result<u64> {
        self.inner.read_scatter_submit(&self.map_addrs(addrs)?)
    }

    fn read_scatter_wait(
        &self,
        ticket: u64,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        // Submit remapped the same list, so the ticket pairs with the
        // remapped addresses on the inner backend.
        self.inner.read_scatter_wait(ticket, &self.map_addrs(addrs)?, f)
    }

    fn prefetch(&self, addrs: &[TrackAddr]) {
        // Hints must stay hints: silently drop out-of-range addresses
        // rather than error from a method that cannot fail.
        if let Ok(mapped) = self.map_addrs(addrs) {
            self.inner.prefetch(&mapped);
        }
    }

    fn flush(&self, sync: bool) -> io::Result<()> {
        self.inner.flush(sync)
    }

    fn sync_disk(&self, disk: usize) -> io::Result<()> {
        self.inner.sync_disk(disk)
    }

    fn discard(&self, disk: usize, tracks: Range<u64>) -> io::Result<bool> {
        // Validate both bounds against the window before remapping so a
        // range can never leak past the span into a neighbour's tracks.
        if tracks.start > tracks.end || tracks.end > self.span_tracks {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "discard {tracks:?} outside namespaced range of {} tracks (base {})",
                    self.span_tracks, self.base_track
                ),
            ));
        }
        self.inner.discard(disk, self.base_track + tracks.start..self.base_track + tracks.end)
    }

    fn tracks_used(&self) -> Vec<u64> {
        // Report usage window-relative, clamped to the span.
        self.inner
            .tracks_used()
            .into_iter()
            .map(|u| u.saturating_sub(self.base_track).min(self.span_tracks))
            .collect()
    }
}

/// Multiplicative hash for track numbers. Tracks are consecutive small
/// integers the layouts compute (never outside input), so one multiply
/// spreads them as well as SipHash does, at a fraction of the cost of
/// the map's default hasher on the per-block path. The high half is
/// folded down because the table indexes buckets with the low bits and
/// tags them with the top seven.
#[derive(Default)]
struct TrackHasher(u64);

impl Hasher for TrackHasher {
    fn write_u64(&mut self, track: u64) {
        let h = track.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys are hashed here; stay correct for anything.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bytes per slab of an in-memory drive: smaller blocks share
/// zero-initialised slabs of `SLAB_BYTES / B`, so one first write in that
/// many allocates; a block at least this large is a slab of its own (one
/// allocation per block, as for `B` = 128 KiB sorts). One page measured
/// best; see `docs/ARCHITECTURE.md`, "Allocation and lock budget".
const SLAB_BYTES: usize = 4096;

/// One drive's blocks: `index` maps each live track to a slot (block
/// `s % per_slab` of `slabs[s / per_slab]`); a discarded track's slot
/// waits in `free` for the next first write, so slabs stay at the
/// drive's high water. The index is as sparse as the data: tracks deep
/// in a shared pool cost what they hold, not what their address is.
#[derive(Default)]
struct Drive {
    index: HashMap<u64, u32, BuildHasherDefault<TrackHasher>>,
    slabs: Vec<Box<[u8]>>,
    free: Vec<u32>,
    /// Slots handed out so far, live or free.
    slots: usize,
}

/// In-memory [`TrackStorage`]: blocks kept in per-drive slabs, absent
/// tracks read as zeros. Per-disk locks keep it `Sync` without
/// serialising disks against each other. A write longer than a block is
/// refused with [`io::ErrorKind::InvalidInput`] (callers that bypass
/// `DiskArray`'s own check — track windows, private side stores — get
/// a typed error, not a panic).
pub struct MemStorage {
    disks: Vec<Mutex<Drive>>,
    block_bytes: usize,
    per_slab: usize,
    /// What a never-written track reads as.
    zeros: Box<[u8]>,
}

impl MemStorage {
    /// Empty storage for `geom.num_disks` drives.
    pub fn new(geom: DiskGeometry) -> Self {
        Self {
            disks: (0..geom.num_disks).map(|_| Mutex::new(Drive::default())).collect(),
            block_bytes: geom.block_bytes,
            per_slab: (SLAB_BYTES / geom.block_bytes.max(1)).max(1),
            zeros: vec![0u8; geom.block_bytes].into_boxed_slice(),
        }
    }

    fn drive(&self, disk: usize) -> MutexGuard<'_, Drive> {
        // Every update leaves the drive valid, so a panic elsewhere while
        // the lock was held does not make the tracks unusable.
        self.disks[disk].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Byte range of `slot` within its slab.
    fn place(&self, slot: u32) -> (usize, Range<usize>) {
        let (slab, at) = (slot as usize / self.per_slab, slot as usize % self.per_slab);
        (slab, at * self.block_bytes..(at + 1) * self.block_bytes)
    }

    /// The stored block of `track`, or zeros when it has none.
    fn block<'a>(&'a self, drive: &'a Drive, track: u64) -> &'a [u8] {
        drive.index.get(&track).map_or(&self.zeros, |&slot| {
            let (slab, bytes) = self.place(slot);
            &drive.slabs[slab][bytes]
        })
    }

    /// Run `f` over `items` with the lock of each item's drive held,
    /// re-locking only where consecutive items change drive: a run of
    /// blocks on one drive shares one lock, and a one-block list — the
    /// per-operation path at small `B` — takes exactly one.
    fn for_each_locked<T>(
        &self,
        items: &[T],
        disk_of: impl Fn(&T) -> usize,
        mut f: impl FnMut(usize, &T, &mut Drive) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut held: Option<(usize, MutexGuard<'_, Drive>)> = None;
        for (i, item) in items.iter().enumerate() {
            let disk = disk_of(item);
            if held.as_ref().is_none_or(|(d, _)| *d != disk) {
                // Release before acquiring: never two drive locks at once.
                drop(held.take());
                held = Some((disk, self.drive(disk)));
            }
            let (_, drive) = held.as_mut().expect("locked above");
            f(i, item, drive)?;
        }
        Ok(())
    }

    /// Store `data` (zero-padded) as `track`, overwriting an existing
    /// track in place. A first write takes a free slot, else the next
    /// one, and allocates only when that opens a new slab.
    fn store(&self, drive: &mut Drive, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        let refuse = |what: String| {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("write of {} bytes to drive {disk} track {track} {what}", data.len()),
            ))
        };
        if data.len() > self.block_bytes {
            return refuse(format!("exceeds the block size {}", self.block_bytes));
        }
        let Drive { index, slabs, free, slots } = drive;
        let slot = match index.entry(track) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(match free.pop() {
                Some(slot) => slot,
                None => {
                    let Ok(slot) = u32::try_from(*slots) else {
                        return refuse(format!("exceeds the drive's {} slots", *slots));
                    };
                    if *slots == slabs.len() * self.per_slab {
                        slabs.push(vec![0u8; self.per_slab * self.block_bytes].into_boxed_slice());
                    }
                    *slots += 1;
                    slot
                }
            }),
        };
        let (slab, bytes) = self.place(slot);
        let block = &mut slabs[slab][bytes];
        block[..data.len()].copy_from_slice(data);
        block[data.len()..].fill(0);
        Ok(())
    }
}

impl TrackStorage for MemStorage {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        Ok(self.block(&self.drive(disk), track).to_vec())
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        self.store(&mut self.drive(disk), disk, track, data)
    }

    /// Zero-copy override: hands `f` a borrowed view of each stored
    /// block under the drive lock — no per-block allocation at all.
    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        self.for_each_locked(
            addrs,
            |a| a.disk,
            |i, a, drive| {
                f(i, self.block(drive, a.track));
                Ok(())
            },
        )
    }

    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        self.for_each_locked(
            writes,
            |(a, _)| a.disk,
            |_, (a, data), drive| self.store(drive, a.disk, a.track, data),
        )
    }

    fn discard(&self, disk: usize, tracks: Range<u64>) -> io::Result<bool> {
        let Drive { index, free, .. } = &mut *self.drive(disk);
        free.extend(index.extract_if(|t, _| tracks.contains(t)).map(|(_, slot)| slot));
        Ok(true)
    }

    fn tracks_used(&self) -> Vec<u64> {
        // High-water mark: one past the highest *live* track, so a full
        // discard of the tail really lowers the mark.
        let used = |d: &Drive| d.index.keys().max().map_or(0, |&t| t + 1);
        (0..self.disks.len()).map(|d| used(&self.drive(d))).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn mem_storage_roundtrip_and_zero_fill() {
        let s = MemStorage::new(DiskGeometry::new(2, 4));
        s.write_track(1, 3, &[7, 8]).unwrap();
        assert_eq!(s.read_track(1, 3).unwrap(), vec![7, 8, 0, 0]);
        assert_eq!(s.read_track(0, 0).unwrap(), vec![0; 4]);
        assert_eq!(s.tracks_used(), vec![0, 4]);
    }

    #[test]
    fn oversized_write_is_a_typed_error_not_a_panic() {
        // `DiskArray` guards the block size, but `TrackRange` windows
        // and private side stores call the storage directly.
        let s = Arc::new(MemStorage::new(DiskGeometry::new(2, 4)));
        s.write_track(1, 7, &[1, 2, 3, 4]).unwrap();
        for e in [
            s.write_track(1, 7, &[9; 5]).unwrap_err(),
            s.write_scatter(&[(TrackAddr::new(1, 7), &[9u8; 5][..])]).unwrap_err(),
            TrackRange::new(Arc::clone(&s), 0, 8).write_track(1, 7, &[9; 5]).unwrap_err(),
        ] {
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            let msg = e.to_string();
            assert!(msg.contains("drive 1") && msg.contains("track 7") && msg.contains("5 bytes"));
        }
        assert_eq!(
            s.read_track(1, 7).unwrap(),
            vec![1, 2, 3, 4],
            "a refused write changes nothing"
        );
    }

    #[test]
    fn overwrite_in_place_zeroes_the_tail() {
        let s = MemStorage::new(DiskGeometry::new(1, 4));
        s.write_track(0, 0, &[1, 2, 3, 4]).unwrap();
        s.write_scatter(&[(TrackAddr::new(0, 0), &[9u8][..])]).unwrap();
        assert_eq!(s.read_track(0, 0).unwrap(), vec![9, 0, 0, 0]);
        s.write_track(0, 0, &[]).unwrap();
        assert_eq!(s.read_track(0, 0).unwrap(), vec![0; 4]);
    }

    /// Collect a scatter read, checking blocks arrive in request order.
    fn scatter(s: &dyn TrackStorage, addrs: &[TrackAddr]) -> io::Result<Vec<Vec<u8>>> {
        let mut got = Vec::new();
        s.read_scatter_with(addrs, &mut |i, b| {
            assert_eq!(i, got.len(), "blocks arrive in request order");
            got.push(b.to_vec());
        })?;
        Ok(got)
    }

    #[test]
    fn batch_defaults_preserve_order() {
        // The provided scatter methods (what a one-track-per-disk batch
        // goes through) on a backend that only implements the per-track
        // calls: write order applied, read results in request order.
        struct PerTrack(MemStorage);
        impl TrackStorage for PerTrack {
            fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
                self.0.read_track(disk, track)
            }
            fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
                self.0.write_track(disk, track, data)
            }
            fn tracks_used(&self) -> Vec<u64> {
                self.0.tracks_used()
            }
        }
        let s = PerTrack(MemStorage::new(DiskGeometry::new(3, 2)));
        s.write_scatter(&[
            (TrackAddr::new(2, 0), &[2u8][..]),
            (TrackAddr::new(0, 0), &[9u8][..]),
            (TrackAddr::new(0, 0), &[1u8][..]),
        ])
        .unwrap();
        let addrs = [TrackAddr::new(0, 0), TrackAddr::new(1, 0), TrackAddr::new(2, 0)];
        assert_eq!(scatter(&s, &addrs).unwrap(), vec![vec![1, 0], vec![0, 0], vec![2, 0]]);
        let ticket = s.read_scatter_submit(&addrs).unwrap();
        let mut n = 0;
        s.read_scatter_wait(ticket, &addrs, &mut |_, _| n += 1).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn track_range_offsets_and_bounds() {
        let pool = Arc::new(MemStorage::new(DiskGeometry::new(2, 4)));
        let a = TrackRange::new(Arc::clone(&pool), 0, 4);
        let b = TrackRange::new(Arc::clone(&pool), 4, 4);
        a.write_track(0, 0, &[1]).unwrap();
        b.write_track(0, 0, &[2]).unwrap();
        // Same (disk, track) in each namespace, different inner tracks.
        assert_eq!(a.read_track(0, 0).unwrap(), vec![1, 0, 0, 0]);
        assert_eq!(b.read_track(0, 0).unwrap(), vec![2, 0, 0, 0]);
        assert_eq!(pool.read_track(0, 4).unwrap(), vec![2, 0, 0, 0]);
        // Bounds: track 4 of a 4-track window is out of range everywhere.
        assert_eq!(a.read_track(1, 4).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert!(a.write_track(1, 4, &[9]).is_err());
        assert!(scatter(&a, &[TrackAddr::new(0, 9)]).is_err());
        assert!(a.write_scatter(&[(TrackAddr::new(0, 9), &[9u8][..])]).is_err());
        // tracks_used is window-relative and clamped: the pool's disk-0
        // high-water mark (5, set by b's write) clamps to a's full
        // window and lands at offset 1 inside b's.
        assert_eq!(a.tracks_used(), vec![4, 0]);
        assert_eq!(b.tracks_used(), vec![1, 0]);
    }

    #[test]
    fn track_range_scatter_and_batch_remap() {
        let pool = Arc::new(MemStorage::new(DiskGeometry::new(2, 2)));
        let r = TrackRange::new(Arc::clone(&pool), 3, 5);
        let writes: Vec<(TrackAddr, &[u8])> =
            vec![(TrackAddr::new(0, 0), &[1u8][..]), (TrackAddr::new(0, 4), &[2u8][..])];
        r.write_scatter(&writes).unwrap();
        assert_eq!(pool.read_track(0, 3).unwrap(), vec![1, 0]);
        assert_eq!(pool.read_track(0, 7).unwrap(), vec![2, 0]);
        let addrs = [TrackAddr::new(0, 0), TrackAddr::new(0, 4), TrackAddr::new(1, 1)];
        assert_eq!(scatter(&r, &addrs).unwrap(), vec![vec![1, 0], vec![2, 0], vec![0, 0]]);
        // A legal parallel operation (one track per disk) is the same
        // call with a shorter list.
        r.write_scatter(&[(TrackAddr::new(0, 1), &[3u8][..]), (TrackAddr::new(1, 1), &[4u8][..])])
            .unwrap();
        assert_eq!(pool.read_track(0, 4).unwrap(), vec![3, 0]);
        assert_eq!(pool.read_track(1, 4).unwrap(), vec![4, 0]);
        let op = [TrackAddr::new(1, 1), TrackAddr::new(0, 1)];
        assert_eq!(scatter(&r, &op).unwrap(), vec![vec![4, 0], vec![3, 0]]);
        // Split-phase defaults go through the same remapping.
        let ticket = r.read_scatter_submit(&addrs).unwrap();
        let mut n = 0;
        r.read_scatter_wait(ticket, &addrs, &mut |_, _| n += 1).unwrap();
        assert_eq!(n, 3);
        // Out-of-range prefetch hints are dropped, not errors.
        r.prefetch(&[TrackAddr::new(0, 99)]);
    }

    #[test]
    fn discard_zeroes_and_lowers_high_water() {
        let s = MemStorage::new(DiskGeometry::new(2, 4));
        for t in 0..8u64 {
            s.write_track(0, t, &[t as u8 + 1]).unwrap();
        }
        assert_eq!(s.tracks_used(), vec![8, 0]);
        assert!(s.discard(0, 4..8).unwrap());
        assert_eq!(s.tracks_used(), vec![4, 0], "tail discard lowers the mark");
        assert_eq!(s.read_track(0, 5).unwrap(), vec![0; 4], "discarded tracks read as zeros");
        assert_eq!(s.read_track(0, 3).unwrap(), vec![4, 0, 0, 0], "live tracks untouched");
    }

    #[test]
    fn sparse_tracks_cost_no_dense_backing() {
        // A single write at a huge track address must not allocate a
        // dense table up to it — this is the v=10^6 scale contract.
        let s = MemStorage::new(DiskGeometry::new(1, 4));
        s.write_track(0, u64::from(u32::MAX) * 16, &[9]).unwrap();
        assert_eq!(s.read_track(0, u64::from(u32::MAX) * 16).unwrap(), vec![9, 0, 0, 0]);
        assert_eq!(s.tracks_used(), vec![u64::from(u32::MAX) * 16 + 1]);
    }

    #[test]
    fn slot_overflow_is_a_typed_error_not_a_panic() {
        let s = MemStorage::new(DiskGeometry::new(1, 4));
        s.write_track(0, 3, &[1]).unwrap();
        s.drive(0).slots = u32::MAX as usize + 1;
        let e = s.write_track(0, 9, &[2]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("slots"), "{e}");
        s.write_track(0, 3, &[5]).unwrap(); // a live track keeps its slot
        assert_eq!(s.read_track(0, 3).unwrap(), vec![5, 0, 0, 0]);
        assert_eq!(s.read_track(0, 9).unwrap(), vec![0; 4], "a refused write changes nothing");
    }

    /// The reference of the model-based test below: the bytes every
    /// live track must hold. `step` applies one random call to it and to
    /// the storage under test, and checks what the storage returns.
    struct Model {
        d: usize,
        b: usize,
        /// Track addresses the steps draw from: low, clustered and up to 2^40.
        tracks: Vec<u64>,
        want: BTreeMap<(usize, u64), Vec<u8>>,
        /// Most tracks live at once, per drive.
        peak: Vec<usize>,
    }

    impl Model {
        fn addr(&self, rng: &mut StdRng) -> TrackAddr {
            TrackAddr::new(
                rng.gen_range(0..self.d),
                self.tracks[rng.gen_range(0..self.tracks.len())],
            )
        }

        fn read(&self, a: TrackAddr) -> Vec<u8> {
            self.want.get(&(a.disk, a.track)).cloned().unwrap_or_else(|| vec![0; self.b])
        }

        fn step(&mut self, s: &dyn TrackStorage, rng: &mut StdRng) {
            match rng.gen_range(0..6u32) {
                0 => {
                    // A scatter write, short overwrites included; bytes
                    // are never 0, so a stale tail cannot pass for zeros.
                    let writes: Vec<(TrackAddr, Vec<u8>)> = (0..rng.gen_range(1..5usize))
                        .map(|_| {
                            let len = rng.gen_range(0..=self.b);
                            (self.addr(rng), (0..len).map(|_| rng.gen_range(1..=255u8)).collect())
                        })
                        .collect();
                    let list: Vec<(TrackAddr, &[u8])> =
                        writes.iter().map(|(a, v)| (*a, v.as_slice())).collect();
                    s.write_scatter(&list).unwrap();
                    for (a, mut v) in writes {
                        v.resize(self.b, 0);
                        self.want.insert((a.disk, a.track), v);
                        let live = self.want.keys().filter(|k| k.0 == a.disk).count();
                        self.peak[a.disk] = self.peak[a.disk].max(live);
                    }
                }
                1 => {
                    let addrs: Vec<TrackAddr> =
                        (0..rng.gen_range(0..6usize)).map(|_| self.addr(rng)).collect();
                    let mut seen = 0;
                    s.read_scatter_with(&addrs, &mut |i, got| {
                        assert_eq!((i, got), (seen, &self.read(addrs[i])[..]), "{:?}", addrs[i]);
                        seen += 1;
                    })
                    .unwrap();
                    assert_eq!(seen, addrs.len());
                }
                2 => {
                    let a = self.addr(rng);
                    assert_eq!(s.read_track(a.disk, a.track).unwrap(), self.read(a), "{a:?}");
                }
                3 => {
                    // Discard a few tracks from a drawn address, or all.
                    let a = self.addr(rng);
                    let range = if rng.gen_range(0..8u32) == 0 {
                        0..1 << 41
                    } else {
                        a.track..a.track + rng.gen_range(0..4u64)
                    };
                    assert!(s.discard(a.disk, range.clone()).unwrap());
                    self.want.retain(|&(d, t), _| d != a.disk || !range.contains(&t));
                }
                4 => {
                    let a = self.addr(rng);
                    let long = vec![9u8; self.b + rng.gen_range(1..9usize)];
                    let e = if rng.gen_range(0..2u32) == 0 {
                        s.write_track(a.disk, a.track, &long)
                    } else {
                        s.write_scatter(&[(a, &long[..])])
                    };
                    assert_eq!(e.unwrap_err().kind(), io::ErrorKind::InvalidInput);
                }
                _ => {
                    let used: Vec<u64> = (0..self.d)
                        .map(|d| {
                            self.want.range((d, 0)..(d + 1, 0)).last().map_or(0, |(k, _)| k.1 + 1)
                        })
                        .collect();
                    assert_eq!(s.tracks_used(), used);
                }
            }
        }
    }

    proptest::proptest! {
        /// `MemStorage`, bare and behind a `TrackRange` window deep in
        /// the pool, agrees byte for byte with a map of live tracks, at
        /// blocks below, equal to and above a slab.
        #[test]
        fn mem_storage_matches_a_model(
            seed in proptest::any::<u64>(),
            d in 1usize..=3,
            b_pick in 0usize..3,
            windowed in proptest::any::<bool>(),
        ) {
            let b = [48, SLAB_BYTES, SLAB_BYTES + 8][b_pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let pool = Arc::new(MemStorage::new(DiskGeometry::new(d, b)));
            let base = if windowed { rng.gen_range(0..1u64 << 40) } else { 0 };
            let s: Box<dyn TrackStorage> = if windowed {
                Box::new(TrackRange::new(Arc::clone(&pool), base, 1 << 41))
            } else {
                Box::new(Arc::clone(&pool))
            };
            let mut tracks: Vec<u64> = (0..8).collect();
            tracks.extend((0..8).map(|_| rng.gen_range(0..1u64 << 40)));
            let far = rng.gen_range(0..1u64 << 40);
            tracks.extend(far..far + 8);
            let mut m = Model { d, b, tracks, want: BTreeMap::new(), peak: vec![0; d] };
            for _ in 0..300 {
                m.step(&*s, &mut rng);
            }
            for (&(disk, track), bytes) in &m.want {
                proptest::prop_assert_eq!(&pool.read_track(disk, base + track).unwrap(), bytes);
            }
            // Discarded slots were reused: a drive never holds more
            // slots than it once had live tracks.
            for disk in 0..d {
                proptest::prop_assert_eq!(pool.drive(disk).slots, m.peak[disk]);
            }
        }
    }

    #[test]
    fn track_range_discard_remaps_and_bounds() {
        let pool = Arc::new(MemStorage::new(DiskGeometry::new(1, 4)));
        let a = TrackRange::new(Arc::clone(&pool), 10, 5);
        a.write_track(0, 2, &[7]).unwrap();
        assert!(a.discard(0, 0..5).unwrap());
        assert_eq!(pool.read_track(0, 12).unwrap(), vec![0; 4]);
        // A range reaching past the span is rejected before remapping.
        assert_eq!(a.discard(0, 3..6).unwrap_err().kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn scatter_roundtrip_many_per_disk() {
        let s = MemStorage::new(DiskGeometry::new(2, 2));
        // three tracks on disk 0, one on disk 1 — illegal as a parallel
        // op, fine as a scatter list
        let writes: Vec<(TrackAddr, &[u8])> = vec![
            (TrackAddr::new(0, 0), &[1u8][..]),
            (TrackAddr::new(0, 1), &[2u8, 3][..]),
            (TrackAddr::new(1, 0), &[4u8][..]),
            (TrackAddr::new(0, 2), &[5u8][..]),
        ];
        s.write_scatter(&writes).unwrap();
        let addrs: Vec<TrackAddr> = writes.iter().map(|w| w.0).collect();
        assert_eq!(
            scatter(&s, &addrs).unwrap(),
            vec![vec![1, 0], vec![2, 3], vec![4, 0], vec![5, 0]]
        );
        // unwritten tracks read back as zeros through the scatter path too
        s.read_scatter_with(&[TrackAddr::new(1, 9)], &mut |_, b| assert_eq!(b, &[0, 0][..]))
            .unwrap();
    }
}
