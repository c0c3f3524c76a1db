//! The simulated disk array.
//!
//! [`DiskArray`] models the `D` drives of one EM-CGM processor. The
//! central invariant, enforced on every operation, is the PDM rule that a
//! single parallel I/O may access **at most one track per disk**. Any
//! violation is a programming error in the layer above and is reported as
//! an [`IoError`] rather than silently serialised, so layout bugs (the
//! kind the paper's staggered format exists to prevent) cannot hide.

use crate::file_backend::FileStorage;
use crate::pool::BlockPool;
use crate::stats::IoStats;
use crate::storage::{MemStorage, TrackStorage};
use crate::DiskGeometry;

/// Address of one block: drive index plus track number on that drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackAddr {
    /// Drive index, `0 ≤ disk < D`.
    pub disk: usize,
    /// Track number on that drive.
    pub track: u64,
}

impl TrackAddr {
    /// Convenience constructor.
    pub fn new(disk: usize, track: u64) -> Self {
        Self { disk, track }
    }
}

/// A single block transfer request (the queue entry of [`DiskArray::write_fifo`]).
#[derive(Debug, Clone)]
pub struct IoRequest {
    /// Where the block goes.
    pub addr: TrackAddr,
    /// Block payload; at most `block_bytes` long (shorter payloads are
    /// zero-padded on disk).
    pub data: Vec<u8>,
}

/// Errors surfaced by the disk array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Two requests in one parallel operation addressed the same disk.
    DiskConflict {
        /// The drive that was addressed twice.
        disk: usize,
    },
    /// A request addressed a drive `>= D`.
    NoSuchDisk {
        /// The offending drive index.
        disk: usize,
        /// Number of drives in the array.
        num_disks: usize,
    },
    /// A write payload exceeded the block size.
    BlockTooLarge {
        /// Payload length in bytes.
        len: usize,
        /// Configured block size in bytes.
        block_bytes: usize,
    },
    /// A typed storage fault (see [`crate::fault`]) survived the
    /// backend's recovery machinery and reached the array.
    Fault {
        /// Taxonomy class ([`crate::IoErrorKind`]).
        kind: crate::fault::IoErrorKind,
        /// Drive the faulting operation addressed.
        disk: usize,
        /// Track the faulting operation addressed.
        track: u64,
        /// Human-readable fault description.
        detail: String,
    },
    /// Underlying file backend failed (untyped).
    Backend(String),
}

impl From<std::io::Error> for IoError {
    /// Backend errors carrying a [`crate::fault::FaultError`] payload map
    /// to the typed [`IoError::Fault`]; anything else stays untyped.
    fn from(e: std::io::Error) -> Self {
        match e.get_ref().and_then(|r| r.downcast_ref::<crate::fault::FaultError>()) {
            Some(fe) => IoError::Fault {
                kind: fe.kind,
                disk: fe.disk,
                track: fe.track,
                detail: fe.detail.clone(),
            },
            None => IoError::Backend(e.to_string()),
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::DiskConflict { disk } => {
                write!(f, "parallel I/O touches disk {disk} more than once")
            }
            IoError::NoSuchDisk { disk, num_disks } => {
                write!(f, "disk {disk} out of range (array has {num_disks})")
            }
            IoError::BlockTooLarge { len, block_bytes } => {
                write!(f, "payload of {len} bytes exceeds block size {block_bytes}")
            }
            IoError::Fault { kind, disk, track, detail } => {
                write!(f, "{kind} fault on disk {disk} track {track}: {detail}")
            }
            IoError::Backend(e) => write!(f, "backend error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

/// A `D`-drive disk array with exact parallel-I/O accounting.
///
/// ```
/// use cgmio_pdm::{DiskArray, DiskGeometry, TrackAddr};
/// let mut arr = DiskArray::new(DiskGeometry::new(2, 8));
/// arr.parallel_write(&[
///     (TrackAddr::new(0, 0), &[1u8; 8][..]),
///     (TrackAddr::new(1, 0), &[2u8; 8][..]),
/// ]).unwrap();
/// let blocks = arr.parallel_read(&[TrackAddr::new(0, 0), TrackAddr::new(1, 0)]).unwrap();
/// assert_eq!(blocks[0], vec![1u8; 8]);
/// assert_eq!(arr.stats().total_ops(), 2);
/// assert_eq!(arr.stats().full_ops, 2);
/// ```
pub struct DiskArray {
    geom: DiskGeometry,
    storage: Box<dyn TrackStorage>,
    stats: IoStats,
    pool: BlockPool,
    /// Drive `d` is used by the operation (or list) being checked iff
    /// `cycle_of[d] == cycle`: opening the next one is one increment,
    /// whatever `D` is.
    cycle_of: Vec<u64>,
    cycle: u64,
    /// Blocks of the list being charged on each drive; valid where the
    /// drive's stamp is current.
    drive_blocks: Vec<u64>,
    /// The scatter list of [`Self::write_gather_iter`], kept (empty)
    /// between calls for its allocation.
    write_list: Vec<(TrackAddr, &'static [u8])>,
}

/// What one address list costs (see [`DiskArray::charge`]); committed
/// to [`IoStats`] once the transfer succeeded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Charge {
    ops: u64,
    full_ops: u64,
    blocks: u64,
    narrow_ops: u64,
}

/// Empty `v` and hand its allocation on as a vector of `U`.
///
/// `U` is `T` at another lifetime here: a scratch list of borrowed
/// slices has to be re-typed to each caller's borrow. Collecting an
/// emptied vector of the same layout reuses its buffer (and is still
/// correct, one allocation dearer, if a toolchain ever stops doing so —
/// `tests/alloc_budget.rs` would say).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("the vector was just cleared")).collect()
}

impl DiskArray {
    /// Create an in-memory disk array.
    pub fn new(geom: DiskGeometry) -> Self {
        Self::with_storage(geom, Box::new(MemStorage::new(geom)))
    }

    /// Create a disk array backed by real files in `dir` (one file per
    /// drive). I/O accounting is identical to the in-memory backend.
    pub fn new_file_backed(geom: DiskGeometry, dir: &std::path::Path) -> Result<Self, IoError> {
        let fs = FileStorage::open(dir, geom).map_err(|e| IoError::Backend(e.to_string()))?;
        Ok(Self::with_storage(geom, Box::new(fs)))
    }

    /// Create a disk array over an arbitrary [`TrackStorage`] backend
    /// (e.g. `cgmio_io::ConcurrentStorage`). The accounting and legality
    /// layer is identical for every backend.
    pub fn with_storage(geom: DiskGeometry, storage: Box<dyn TrackStorage>) -> Self {
        Self {
            storage,
            stats: IoStats::new(geom.num_disks),
            geom,
            pool: BlockPool::default(),
            cycle_of: vec![0; geom.num_disks],
            cycle: 0,
            drive_blocks: vec![0; geom.num_disks],
            write_list: Vec::new(),
        }
    }

    /// The array's buffer pool. Layers staging bytes for a gather write
    /// check their buffer out here so it is recycled instead of
    /// reallocated every superstep.
    pub fn pool(&self) -> &BlockPool {
        &self.pool
    }

    /// The array geometry.
    pub fn geometry(&self) -> DiskGeometry {
        self.geom
    }

    /// I/O counters accumulated so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Reset the I/O counters (the disk contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::new(self.geom.num_disks);
    }

    /// Highest allocated track per disk (diagnostics / disk-space audit).
    pub fn tracks_used(&self) -> Vec<u64> {
        self.storage.tracks_used()
    }

    /// Hint that these tracks will be read soon. Free in the cost model
    /// (no [`IoStats`] change) and a no-op on synchronous backends; the
    /// concurrent backend starts fetching them in the background.
    pub fn prefetch(&self, addrs: &[TrackAddr]) {
        self.storage.prefetch(addrs);
    }

    /// Drain the backend's write pipeline, surfacing any deferred write
    /// error; with `sync` also force data to stable storage. Free in the
    /// cost model — write-behind I/Os were already counted when issued.
    pub fn flush(&self, sync: bool) -> Result<(), IoError> {
        self.storage.flush(sync).map_err(IoError::from)
    }

    fn check_op(&mut self, addrs: impl Iterator<Item = TrackAddr>) -> Result<usize, IoError> {
        self.cycle += 1;
        let mut n = 0;
        for a in addrs {
            if a.disk >= self.geom.num_disks {
                return Err(IoError::NoSuchDisk { disk: a.disk, num_disks: self.geom.num_disks });
            }
            if self.cycle_of[a.disk] == self.cycle {
                return Err(IoError::DiskConflict { disk: a.disk });
            }
            self.cycle_of[a.disk] = self.cycle;
            n += 1;
        }
        Ok(n)
    }

    /// One parallel read of up to `D` blocks (distinct disks). Returns the
    /// block contents in request order; unwritten tracks read as zeros.
    pub fn parallel_read(&mut self, addrs: &[TrackAddr]) -> Result<Vec<Vec<u8>>, IoError> {
        let n = self.check_op(addrs.iter().copied())?;
        if n == 0 {
            return Ok(Vec::new());
        }
        // Legality established above: ≤ 1 track per disk, so a backend
        // with real parallelism overlaps the transfers of this operation.
        let mut out = Vec::with_capacity(n);
        self.storage
            .read_scatter_with(addrs, &mut |_, block| out.push(block.to_vec()))
            .map_err(IoError::from)?;
        for a in addrs {
            self.stats.per_disk_blocks[a.disk] += 1;
        }
        self.stats.record_read(n, self.geom.num_disks);
        Ok(out)
    }

    /// One parallel write of up to `D` blocks (distinct disks). Payloads
    /// shorter than a block are zero-padded.
    pub fn parallel_write(&mut self, writes: &[(TrackAddr, &[u8])]) -> Result<(), IoError> {
        let n = self.check_op(writes.iter().map(|(a, _)| *a))?;
        if n == 0 {
            return Ok(());
        }
        let bb = self.geom.block_bytes;
        for (_, data) in writes {
            if data.len() > bb {
                return Err(IoError::BlockTooLarge { len: data.len(), block_bytes: bb });
            }
        }
        self.storage.write_scatter(writes).map_err(IoError::from)?;
        for (a, _) in writes {
            self.stats.per_disk_blocks[a.disk] += 1;
        }
        self.stats.record_write(n, self.geom.num_disks);
        Ok(())
    }

    /// The drive-balanced charge of one list submitted together: it
    /// costs `max_d` (its blocks on drive `d`) parallel operations, of
    /// which `min_d` are full, in one streaming pass.
    ///
    /// `max_d` is the length of the schedule whose cycle `c` takes the
    /// `c`-th block of every drive. That schedule keeps each drive's
    /// order — all any backend observes, and what the engine's
    /// per-drive queues execute — and no legal schedule is shorter. It
    /// never exceeds the paper's FIFO `DiskWrite` packing (close an
    /// operation when a drive repeats) and equals it on round-robin
    /// lists, the ones the staggered formats produce.
    ///
    /// Validates every address and touches no counter: a list that fails
    /// here, or in the backend afterwards, charges nothing.
    fn charge(&mut self, addrs: impl Iterator<Item = TrackAddr>) -> Result<Charge, IoError> {
        let d = self.geom.num_disks;
        let (mut ops, mut blocks, mut touched) = (0u64, 0u64, 0usize);
        self.cycle += 1;
        for a in addrs {
            if a.disk >= d {
                return Err(IoError::NoSuchDisk { disk: a.disk, num_disks: d });
            }
            let n = &mut self.drive_blocks[a.disk];
            if self.cycle_of[a.disk] != self.cycle {
                self.cycle_of[a.disk] = self.cycle;
                *n = 0;
                touched += 1;
            }
            *n += 1;
            ops = ops.max(*n);
            blocks += 1;
        }
        // Every drive's count is current once all were touched; a list
        // of at most D blocks that touched all of them is one full op.
        let full_ops = match touched == d {
            false => 0,
            true if blocks <= d as u64 => 1,
            true => self.drive_blocks.iter().copied().min().unwrap_or(0),
        };
        Ok(Charge { ops, full_ops, blocks, narrow_ops: ops - blocks.div_ceil(d as u64) })
    }

    /// Commit a successful transfer: per-disk block counts plus the
    /// operations [`Self::charge`] priced it at.
    fn commit(&mut self, addrs: impl Iterator<Item = TrackAddr>, charge: Charge, write: bool) {
        for a in addrs {
            self.stats.per_disk_blocks[a.disk] += 1;
        }
        let (ops, blocks) = if write {
            (&mut self.stats.write_ops, &mut self.stats.blocks_written)
        } else {
            (&mut self.stats.read_ops, &mut self.stats.blocks_read)
        };
        *ops += charge.ops;
        *blocks += charge.blocks;
        self.stats.full_ops += charge.full_ops;
        self.stats.narrow_ops += charge.narrow_ops;
    }

    /// Write an arbitrary list of blocks — any number per disk — as
    /// **one** vectored submission to the backend, charged to the cost
    /// model by the drive-balanced rule: as many parallel operations as
    /// the busiest drive has blocks in the list (see
    /// [`Self::write_fifo`], which is this plus per-request `Vec`s).
    ///
    /// Returns the number of parallel operations charged.
    pub fn write_gather(&mut self, writes: &[(TrackAddr, &[u8])]) -> Result<usize, IoError> {
        let charge = self.charge(writes.iter().map(|(a, _)| *a))?;
        let bb = self.geom.block_bytes;
        for (_, data) in writes {
            if data.len() > bb {
                return Err(IoError::BlockTooLarge { len: data.len(), block_bytes: bb });
            }
        }
        if writes.is_empty() {
            return Ok(0);
        }
        self.storage.write_scatter(writes).map_err(IoError::from)?;
        self.commit(writes.iter().map(|(a, _)| *a), charge, true);
        Ok(charge.ops as usize)
    }

    /// [`Self::write_gather`] of the blocks an iterator yields, for
    /// callers that cut their scatter list out of a staging buffer on
    /// the fly: the list is built in scratch the array keeps between
    /// calls, so a steady stream of gather writes allocates nothing.
    pub fn write_gather_iter<'d>(
        &mut self,
        writes: impl Iterator<Item = (TrackAddr, &'d [u8])>,
    ) -> Result<usize, IoError> {
        let mut list: Vec<(TrackAddr, &'d [u8])> = recycle(std::mem::take(&mut self.write_list));
        list.extend(writes);
        let charged = self.write_gather(&list);
        self.write_list = recycle(list);
        charged
    }

    /// Read an arbitrary list of blocks — any number per disk — in one
    /// scatter submission, handing each block to `f(request_index,
    /// bytes)` in request order. On in-memory backends the bytes are
    /// **borrowed from storage** (zero-copy); the cost model charges the
    /// list exactly as [`Self::write_gather`] charges a write list.
    ///
    /// Returns the number of parallel operations charged.
    pub fn read_gather_with(
        &mut self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> Result<usize, IoError> {
        let charge = self.charge(addrs.iter().copied())?;
        if addrs.is_empty() {
            return Ok(0);
        }
        self.storage.read_scatter_with(addrs, f).map_err(IoError::from)?;
        self.commit(addrs.iter().copied(), charge, false);
        Ok(charge.ops as usize)
    }

    /// Begin an asynchronous gather read of `addrs`, charging the cost
    /// model **now** — the same operations and per-disk block counts [`Self::read_gather_with`] charges — and returning a
    /// ticket to redeem with [`Self::read_gather_finish`] (passing the
    /// same address list). On asynchronous backends the transfers start
    /// immediately and overlap the caller's compute; on synchronous
    /// backends nothing moves until finish. Either way the [`IoStats`]
    /// are identical to a blocking `read_gather_with` at the same point
    /// in the program: the pipeline changes *when* bytes move on the
    /// wall clock, never what the cost model counts.
    pub fn read_gather_submit(&mut self, addrs: &[TrackAddr]) -> Result<u64, IoError> {
        let charge = self.charge(addrs.iter().copied())?;
        if addrs.is_empty() {
            return Ok(0);
        }
        let ticket = self.storage.read_scatter_submit(addrs).map_err(IoError::from)?;
        self.commit(addrs.iter().copied(), charge, false);
        Ok(ticket)
    }

    /// [`Self::read_gather_submit`] of two lists charged as **one**,
    /// `head` then `tail`, each with a ticket of its own. Also returns
    /// what `head` alone would have cost, so that a caller can attribute
    /// the list's operations exactly.
    pub fn read_gather_submit_pair(
        &mut self,
        head: &[TrackAddr],
        tail: &[TrackAddr],
    ) -> Result<([u64; 2], u64), IoError> {
        let head_ops = self.charge(head.iter().copied())?.ops;
        let both = || head.iter().chain(tail).copied();
        let charge = self.charge(both())?;
        let mut tickets = [0; 2];
        for (t, addrs) in tickets.iter_mut().zip([head, tail]).filter(|(_, a)| !a.is_empty()) {
            *t = self.storage.read_scatter_submit(addrs).map_err(IoError::from)?;
        }
        self.commit(both(), charge, false);
        Ok((tickets, head_ops))
    }

    /// Complete a read begun with [`Self::read_gather_submit`], handing
    /// each block to `f(request_index, bytes)` in request order. `addrs`
    /// must be the list the ticket was submitted with. Charges nothing —
    /// the submit already did.
    pub fn read_gather_finish(
        &mut self,
        ticket: u64,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> Result<(), IoError> {
        if addrs.is_empty() {
            return Ok(());
        }
        self.storage.read_scatter_wait(ticket, addrs, f).map_err(IoError::from)
    }

    /// The paper's `DiskWrite` procedure: service a queue of block
    /// writes, each drive in queue order, as one gather list.
    ///
    /// Returns the number of parallel operations used. With a staggered
    /// layout this is `ceil(len/D)`; with a naive layout, which piles
    /// blocks onto few drives, it degrades — the difference is what the
    /// paper's Figure 2 illustrates, and what `reproduce fig2` measures
    /// (`cgmio_bench::layout_ablation_ops`).
    ///
    /// This is [`Self::write_gather`] over owned per-request buffers; the
    /// hot path stages into one pooled buffer and calls `write_gather`
    /// directly.
    pub fn write_fifo(&mut self, queue: &[IoRequest]) -> Result<usize, IoError> {
        let writes: Vec<(TrackAddr, &[u8])> =
            queue.iter().map(|r| (r.addr, r.data.as_slice())).collect();
        self.write_gather(&writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr(d: usize, b: usize) -> DiskArray {
        DiskArray::new(DiskGeometry::new(d, b))
    }

    /// The paper's FIFO packing rule — close an operation when a drive
    /// repeats or all `D` are used — as the cost model charged it before
    /// the drive-balanced rule: the reference the balanced charge must
    /// never exceed.
    fn fifo_cycle_sizes(d: usize, addrs: &[TrackAddr]) -> Result<Vec<usize>, IoError> {
        let mut sizes = Vec::new();
        let mut used = vec![false; d];
        let mut cur = 0usize;
        for a in addrs {
            if a.disk >= d {
                return Err(IoError::NoSuchDisk { disk: a.disk, num_disks: d });
            }
            if used[a.disk] || cur == d {
                sizes.push(cur);
                cur = 0;
                used.iter_mut().for_each(|u| *u = false);
            }
            used[a.disk] = true;
            cur += 1;
        }
        if cur > 0 {
            sizes.push(cur);
        }
        Ok(sizes)
    }

    /// The drive-balanced rule written out: cycle `c` takes the `c`-th
    /// block of every drive. Returns the size of each cycle.
    fn balanced_cycle_sizes(d: usize, addrs: &[TrackAddr]) -> Vec<usize> {
        let mut per_drive = vec![0usize; d];
        addrs.iter().for_each(|a| per_drive[a.disk] += 1);
        let cycles = per_drive.iter().copied().max().unwrap_or(0);
        (0..cycles).map(|c| per_drive.iter().filter(|&&n| n > c).count()).collect()
    }

    /// What the reference rule charges for `addrs` on top of `before`.
    fn reference_stats(before: &IoStats, d: usize, addrs: &[TrackAddr], write: bool) -> IoStats {
        let mut want = before.clone();
        for a in addrs {
            want.per_disk_blocks[a.disk] += 1;
        }
        let sizes = balanced_cycle_sizes(d, addrs);
        want.narrow_ops += (sizes.len() - addrs.len().div_ceil(d)) as u64;
        for n in sizes {
            if write {
                want.record_write(n, d);
            } else {
                want.record_read(n, d);
            }
        }
        want
    }

    const DRIVES: [usize; 6] = [1, 2, 3, 64, 65, 200];

    /// Addresses in one of three regimes: pure round-robin (every
    /// operation full), round-robin with repeats and skips, and drives
    /// drawn at random from half the array.
    fn regime_addrs(d: usize, regime: usize, picks: &[u32]) -> Vec<TrackAddr> {
        let mut disk = 0usize;
        let step = |disk: usize, r: u32| match regime {
            0 => (disk + 1) % d,
            1 => (disk + [1, 1, 1, 0, 2][r as usize % 5]) % d,
            _ => r as usize % d.div_ceil(2),
        };
        (picks.iter().enumerate())
            .map(|(i, &r)| {
                disk = step(disk, r);
                TrackAddr::new(disk, i as u64)
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn balanced_charge_never_exceeds_fifo(
            d_pick in 0usize..6,
            regime in 0usize..3,
            picks in proptest::collection::vec(proptest::any::<u32>(), 0..300),
        ) {
            let d = DRIVES[d_pick];
            let addrs = regime_addrs(d, regime, &picks);
            let fifo = fifo_cycle_sizes(d, &addrs).unwrap();
            let mut a = arr(d, 4);
            let ops = a.read_gather_with(&addrs, &mut |_, _| {}).unwrap();
            proptest::prop_assert!(ops <= fifo.len(), "balanced {} > FIFO {}", ops, fifo.len());
            if regime == 0 {
                // Round-robin: both rules pack D blocks per operation.
                proptest::prop_assert_eq!(ops, fifo.len());
                let full = fifo.iter().filter(|&&n| n == d).count() as u64;
                proptest::prop_assert_eq!(a.stats().full_ops, full);
                proptest::prop_assert_eq!(a.stats().narrow_ops, 0);
            }
        }

        #[test]
        fn streaming_charge_equals_the_reference_rule(
            d_pick in 0usize..6,
            regime in 0usize..3,
            picks in proptest::collection::vec(proptest::any::<u32>(), 0..300),
            bad_at in 0usize..600,
        ) {
            let d = DRIVES[d_pick];
            let addrs = regime_addrs(d, regime, &picks);
            let block = [7u8; 4];
            let writes: Vec<(TrackAddr, &[u8])> = addrs.iter().map(|&a| (a, &block[..])).collect();
            let mut a = arr(d, 4);

            // One array takes all four paths in turn, so stale drive
            // stamps of earlier calls are part of what is tested.
            let want = reference_stats(a.stats(), d, &addrs, true);
            let sizes = balanced_cycle_sizes(d, &addrs);
            proptest::prop_assert_eq!(a.write_gather(&writes).unwrap(), sizes.len());
            proptest::prop_assert_eq!(a.stats(), &want);

            let want = reference_stats(a.stats(), d, &addrs, true);
            proptest::prop_assert_eq!(a.write_gather_iter(writes.iter().copied()).unwrap(), sizes.len());
            proptest::prop_assert_eq!(a.stats(), &want);

            let want = reference_stats(a.stats(), d, &addrs, false);
            proptest::prop_assert_eq!(a.read_gather_with(&addrs, &mut |_, _| {}).unwrap(), sizes.len());
            proptest::prop_assert_eq!(a.stats(), &want);

            let want = reference_stats(a.stats(), d, &addrs, false);
            let ticket = a.read_gather_submit(&addrs).unwrap();
            proptest::prop_assert_eq!(a.stats(), &want, "submit charges");
            let mut seen = 0;
            a.read_gather_finish(ticket, &addrs, &mut |i, _| {
                assert_eq!(i, seen);
                seen += 1;
            })
            .unwrap();
            proptest::prop_assert_eq!(seen, addrs.len());
            proptest::prop_assert_eq!(a.stats(), &want, "finish charges nothing");

            // The same list submitted as two halves is charged as one.
            let want = reference_stats(a.stats(), d, &addrs, false);
            let (head, tail) = addrs.split_at(bad_at % (addrs.len() + 1));
            let ([th, tt], head_ops) = a.read_gather_submit_pair(head, tail).unwrap();
            proptest::prop_assert_eq!(a.stats(), &want, "a pair is one list");
            proptest::prop_assert_eq!(head_ops as usize, balanced_cycle_sizes(d, head).len());
            let mut seen = 0;
            a.read_gather_finish(th, head, &mut |_, _| seen += 1).unwrap();
            a.read_gather_finish(tt, tail, &mut |_, _| seen += 1).unwrap();
            proptest::prop_assert_eq!(seen, addrs.len());

            // An out-of-range drive in the middle: the reference's
            // error, and not one counter moved.
            if !addrs.is_empty() {
                let mut bad = addrs.clone();
                bad[bad_at % addrs.len()].disk = d + bad_at % 3;
                let bad_writes: Vec<(TrackAddr, &[u8])> =
                    bad.iter().map(|&a| (a, &block[..])).collect();
                let err = fifo_cycle_sizes(d, &bad).unwrap_err();
                proptest::prop_assert_eq!(a.write_gather(&bad_writes).unwrap_err(), err.clone());
                proptest::prop_assert_eq!(
                    a.write_gather_iter(bad_writes.iter().copied()).unwrap_err(),
                    err.clone()
                );
                proptest::prop_assert_eq!(
                    a.read_gather_with(&bad, &mut |_, _| {}).unwrap_err(),
                    err.clone()
                );
                proptest::prop_assert_eq!(a.read_gather_submit(&bad).unwrap_err(), err);
                proptest::prop_assert_eq!(a.stats(), &want, "failed lists charge nothing");
            }

            // The legality check shares the stamp table.
            let legal: Vec<TrackAddr> = (0..d).map(|k| TrackAddr::new(k, 0)).collect();
            proptest::prop_assert_eq!(a.parallel_read(&legal).unwrap().len(), d);
            if let Some(&first) = legal.first() {
                let mut twice = legal.clone();
                twice.push(first);
                proptest::prop_assert_eq!(
                    a.parallel_read(&twice).unwrap_err(),
                    IoError::DiskConflict { disk: first.disk }
                );
            }
        }
    }

    #[test]
    fn roundtrip_and_zero_fill() {
        let mut a = arr(3, 4);
        a.parallel_write(&[(TrackAddr::new(1, 5), &[9, 9][..])]).unwrap();
        let r = a
            .parallel_read(&[TrackAddr::new(0, 5), TrackAddr::new(1, 5), TrackAddr::new(2, 0)])
            .unwrap();
        assert_eq!(r[0], vec![0; 4]);
        assert_eq!(r[1], vec![9, 9, 0, 0]);
        assert_eq!(r[2], vec![0; 4]);
    }

    #[test]
    fn conflict_detected() {
        let mut a = arr(2, 4);
        let e = a.parallel_read(&[TrackAddr::new(0, 0), TrackAddr::new(0, 1)]).unwrap_err();
        assert_eq!(e, IoError::DiskConflict { disk: 0 });
    }

    #[test]
    fn out_of_range_disk_detected() {
        let mut a = arr(2, 4);
        let e = a.parallel_read(&[TrackAddr::new(2, 0)]).unwrap_err();
        assert_eq!(e, IoError::NoSuchDisk { disk: 2, num_disks: 2 });
    }

    #[test]
    fn oversized_block_rejected() {
        let mut a = arr(1, 4);
        let e = a.parallel_write(&[(TrackAddr::new(0, 0), &[0u8; 5][..])]).unwrap_err();
        assert_eq!(e, IoError::BlockTooLarge { len: 5, block_bytes: 4 });
    }

    #[test]
    fn empty_ops_are_free() {
        let mut a = arr(2, 4);
        a.parallel_read(&[]).unwrap();
        a.parallel_write(&[]).unwrap();
        assert_eq!(a.stats().total_ops(), 0);
    }

    #[test]
    fn fifo_write_packs_until_conflict() {
        let mut a = arr(2, 4);
        // disks 0,1,0,1 -> two fully parallel ops
        let q: Vec<IoRequest> = (0..4)
            .map(|i| IoRequest { addr: TrackAddr::new(i % 2, (i / 2) as u64), data: vec![i as u8] })
            .collect();
        assert_eq!(a.write_fifo(&q).unwrap(), 2);
        assert_eq!(a.stats().full_ops, 2);

        // all on disk 0 -> four serial ops
        let mut a = arr(2, 4);
        let q: Vec<IoRequest> = (0..4)
            .map(|i| IoRequest { addr: TrackAddr::new(0, i as u64), data: vec![i as u8] })
            .collect();
        assert_eq!(a.write_fifo(&q).unwrap(), 4);
        assert_eq!(a.stats().full_ops, 0);
    }

    #[test]
    fn fifo_read_matches_write_order() {
        let mut a = arr(3, 2);
        let addrs: Vec<TrackAddr> = (0..7).map(|i| TrackAddr::new(i % 3, (i / 3) as u64)).collect();
        for (i, &ad) in addrs.iter().enumerate() {
            a.parallel_write(&[(ad, &[i as u8, 0][..])]).unwrap();
        }
        let mut seen = 0;
        let ops = a.read_gather_with(&addrs, &mut |i, b| {
            assert_eq!((i, b[0]), (seen, i as u8));
            seen += 1;
        });
        // 7 blocks over 3 disks, round-robin -> 3 ops
        assert_eq!(ops.unwrap(), 3);
        assert_eq!(seen, 7);
        assert_eq!(a.stats().read_ops, 3);
    }

    #[test]
    fn per_disk_accounting() {
        let mut a = arr(2, 4);
        a.parallel_write(&[(TrackAddr::new(0, 0), &[1][..]), (TrackAddr::new(1, 0), &[2][..])])
            .unwrap();
        a.parallel_read(&[TrackAddr::new(0, 0)]).unwrap();
        assert_eq!(a.stats().per_disk_blocks, vec![2, 1]);
    }

    #[test]
    fn gather_counts_like_fifo() {
        // 7 blocks round-robin over 3 disks: written by the FIFO
        // scheduler or the gather path, then read back as one gather
        // list, both must charge the identical 3 write + 3 read ops.
        let addrs: Vec<TrackAddr> = (0..7).map(|i| TrackAddr::new(i % 3, (i / 3) as u64)).collect();
        let payloads: Vec<Vec<u8>> = (0..7).map(|i| vec![i as u8, 7]).collect();

        let mut fifo = arr(3, 2);
        let q: Vec<IoRequest> = addrs
            .iter()
            .zip(&payloads)
            .map(|(&addr, data)| IoRequest { addr, data: data.clone() })
            .collect();
        fifo.write_fifo(&q).unwrap();
        let ops = fifo.read_gather_with(&addrs, &mut |i, b| assert_eq!(b, payloads[i]));
        assert_eq!(ops.unwrap(), 3);

        let mut gather = arr(3, 2);
        let writes: Vec<(TrackAddr, &[u8])> =
            addrs.iter().zip(&payloads).map(|(&a, d)| (a, d.as_slice())).collect();
        assert_eq!(gather.write_gather(&writes).unwrap(), 3);
        let mut got: Vec<Vec<u8>> = Vec::new();
        let ops = gather.read_gather_with(&addrs, &mut |i, b| {
            assert_eq!(i, got.len());
            got.push(b.to_vec());
        });
        assert_eq!(ops.unwrap(), 3);

        assert_eq!(got, payloads);
        assert_eq!(gather.stats(), fifo.stats(), "gather and FIFO accounting must be identical");
    }

    #[test]
    fn gather_rejects_bad_requests_and_empty_is_free() {
        let mut a = arr(2, 4);
        assert_eq!(a.write_gather(&[]).unwrap(), 0);
        assert_eq!(a.read_gather_with(&[], &mut |_, _| panic!("no blocks")).unwrap(), 0);
        assert_eq!(a.stats().total_ops(), 0);
        let e = a.write_gather(&[(TrackAddr::new(5, 0), &[1][..])]).unwrap_err();
        assert_eq!(e, IoError::NoSuchDisk { disk: 5, num_disks: 2 });
        let e = a.write_gather(&[(TrackAddr::new(0, 0), &[1u8; 9][..])]).unwrap_err();
        assert_eq!(e, IoError::BlockTooLarge { len: 9, block_bytes: 4 });
        assert_eq!(a.stats().total_ops(), 0, "failed gathers charge nothing");
    }

    /// `parallel_read`/`parallel_write` go through the scatter calls of
    /// the storage trait; what they return and charge is pinned here on
    /// a direct backend, a file backend and a namespaced window.
    #[test]
    fn parallel_ops_return_and_charge_the_same_on_every_backend() {
        use crate::{FileStorage, MemStorage, TrackRange};
        use std::sync::Arc;
        let geom = DiskGeometry::new(3, 4);
        let dir = crate::testutil::TempDir::new("cgmio-pdm-parallel-ops");
        let pool = Arc::new(MemStorage::new(geom));
        let backends: Vec<(&str, Box<dyn TrackStorage>)> = vec![
            ("mem", Box::new(MemStorage::new(geom))),
            ("file", Box::new(FileStorage::open(dir.path(), geom).unwrap())),
            ("range", Box::new(TrackRange::new(Arc::clone(&pool), 7, 4))),
        ];
        for (name, storage) in backends {
            let mut a = DiskArray::with_storage(geom, storage);
            let t = TrackAddr::new;
            a.parallel_write(&[
                (t(2, 1), &[2u8, 2][..]),
                (t(0, 1), &[9u8][..]),
                (t(1, 1), &[1u8][..]),
            ])
            .unwrap();
            a.parallel_write(&[(t(0, 3), &[7u8; 4][..]), (t(2, 0), &[][..])]).unwrap();
            a.parallel_write(&[]).unwrap();
            let full = a.parallel_read(&[t(1, 1), t(2, 1), t(0, 1)]).unwrap();
            assert_eq!(full, vec![vec![1, 0, 0, 0], vec![2, 2, 0, 0], vec![9, 0, 0, 0]], "{name}");
            let part = a.parallel_read(&[t(0, 3), t(1, 2)]).unwrap();
            assert_eq!(part, vec![vec![7; 4], vec![0; 4]], "{name}: unwritten reads as zeros");
            assert_eq!(a.parallel_read(&[]).unwrap(), Vec::<Vec<u8>>::new(), "{name}");
            let want = IoStats {
                read_ops: 2,
                write_ops: 2,
                blocks_read: 5,
                blocks_written: 5,
                full_ops: 2,
                narrow_ops: 0,
                per_disk_blocks: vec![4, 3, 3],
            };
            assert_eq!(a.stats(), &want, "{name}");
        }
        // The window's blocks landed at its base in the shared pool.
        assert_eq!(pool.read_track(2, 8).unwrap(), vec![2, 2, 0, 0]);
    }

    #[test]
    fn pool_recycles_staging_buffers() {
        let a = arr(2, 4);
        let b = a.pool().checkout(8);
        drop(b);
        let _b2 = a.pool().checkout(4);
        assert_eq!(a.pool().stats().reused, 1);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut a = arr(1, 4);
        a.parallel_write(&[(TrackAddr::new(0, 0), &[1, 2, 3, 4][..])]).unwrap();
        a.parallel_write(&[(TrackAddr::new(0, 0), &[9][..])]).unwrap();
        let r = a.parallel_read(&[TrackAddr::new(0, 0)]).unwrap();
        assert_eq!(r[0], vec![9, 0, 0, 0]);
    }
}
