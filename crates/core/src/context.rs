//! Context swapping — steps (a) and (e) of Algorithm 2.
//!
//! The contexts of the virtual processors are stored in fixed-size slots
//! in one *consecutive-format* stream: block `q` of the stream lives on
//! disk `q mod D`, so reading or writing any context (a contiguous block
//! range) is a sequence of fully parallel I/O operations. This is the
//! paper's deterministic context distribution: "we split the context
//! `V_j` into blocks of size `B` and store the `i`-th block of `V_j` on
//! disk `(i + j·(μ/B)) mod D`".
//!
//! # The length table at scale
//!
//! The context *bytes* were always disk-resident; the per-slot length
//! table was not. A resident `Vec<usize>` is 8 MB at `v = 10^6` per
//! worker — small next to the dense message table it used to sit
//! beside, but still linear state the runner holds for the whole run
//! while only ever touching the pipeline window of it. [`CtxPaging`]
//! therefore offers a paged table: lengths live in fixed pages of
//! `page_entries` `u64`s, at most `resident_pages` of which are hot
//! (LRU); evicted dirty pages spill through a **private side
//! [`TrackStorage`]** (one `MemStorage` "drive", one track per page,
//! staged through a [`BlockPool`]) and fault back in on demand. The
//! side store is deliberately *not* the run's [`DiskArray`]: spills are
//! bookkeeping, not simulation I/O, and must never perturb `IoStats` —
//! paged and resident tables are bit-identical in every observable
//! (tested below and in `tests/scale_equivalence.rs`). Spill/reload
//! traffic is observable instead through the `cgmio_ctx_*` metric
//! series (see `docs/OPERATIONS.md`).

use std::cell::RefCell;
use std::ops::Range;

use cgmio_obs::{Counter, Gauge, Obs};
use cgmio_pdm::{
    BlockPool, CodecError, DiskArray, DiskGeometry, IoError, IoErrorKind, Layout, MemStorage,
    TrackAddr, TrackStorage,
};

use crate::pipeline::FreeList;
use crate::EmError;

/// Residency policy for a [`ContextStore`]'s per-slot length table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtxPaging {
    /// Keep the whole table resident (a `Vec<usize>` — the original
    /// layout; right for small `v`).
    Resident,
    /// Page the table: fixed pages of `page_entries` lengths, at most
    /// `resident_pages` resident, the rest spilled to a private side
    /// track store.
    Paged {
        /// Lengths per page (each page is one side-store track of
        /// `8 * page_entries` bytes).
        page_entries: usize,
        /// Maximum hot pages (LRU). Resident table memory is bounded by
        /// `resident_pages * page_entries * 8` bytes regardless of `v`.
        resident_pages: usize,
    },
}

/// Per-slot length table: resident vector or LRU-paged (see module
/// docs).
enum CtxLens {
    Resident(Vec<usize>),
    Paged(PagedLens),
}

/// The paged table. Interior mutability (`RefCell`) because reads of the
/// store (`len`, `read_submit`) take `&self` but may fault pages; the
/// store is owned by a single worker thread, never shared.
struct PagedLens {
    count: usize,
    page_entries: usize,
    resident_pages: usize,
    inner: RefCell<PagedInner>,
    spills: Counter,
    loads: Counter,
    resident: Gauge,
}

/// One resident page of the table.
struct Page {
    data: Box<[u64]>,
    /// Modified since it was last spilled.
    dirty: bool,
    /// Clock reading of the latest access: the resident page with the
    /// smallest stamp is the least recently used.
    stamp: u64,
}

struct PagedInner {
    /// The page directory, one slot per page (`count / page_entries`
    /// in all): `Some` while the page is resident.
    dir: Vec<Option<Page>>,
    /// The resident pages, at most `resident_pages`, in no order: an
    /// eviction scans this window for the oldest stamp, not the
    /// directory.
    hot: Vec<usize>,
    /// Access clock behind [`Page::stamp`].
    clock: u64,
    /// The page accessed last (`usize::MAX`: none yet). It is resident
    /// and already the youngest, so the scan-order common case — the
    /// same page again — touches neither clock nor directory.
    last: usize,
    /// Spill target: one "drive", one track per page. Unwritten tracks
    /// read as zeros — exactly the table's initial state.
    side: MemStorage,
    /// Staging buffer pool for page encodes.
    pool: BlockPool,
}

fn decode_page(bytes: &[u8], page: &mut [u64]) {
    for (l, chunk) in page.iter_mut().zip(bytes.chunks_exact(8)) {
        *l = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
    }
}

impl PagedLens {
    fn new(count: usize, page_entries: usize, resident_pages: usize) -> Self {
        assert!(
            page_entries >= 1 && resident_pages >= 1,
            "paging needs at least one resident page"
        );
        Self {
            count,
            page_entries,
            resident_pages,
            inner: RefCell::new(PagedInner {
                dir: (0..count.div_ceil(page_entries)).map(|_| None).collect(),
                hot: Vec::with_capacity(resident_pages.min(count.div_ceil(page_entries))),
                clock: 0,
                last: usize::MAX,
                side: MemStorage::new(DiskGeometry::new(1, page_entries * 8)),
                pool: BlockPool::with_max_free(2),
            }),
            spills: Counter::detached(),
            loads: Counter::detached(),
            resident: Gauge::detached(),
        }
    }

    /// Make `page` resident, evicting (and, if dirty, spilling) the
    /// least recently used page when the budget is full. The victim's
    /// buffer becomes the new page's.
    fn fault(&self, inner: &mut PagedInner, page: usize) {
        let mut data = if inner.hot.len() >= self.resident_pages {
            let dir = &inner.dir;
            let stamp_of = |p: usize| dir[p].as_ref().expect("hot pages are resident").stamp;
            let (k, victim) = (inner.hot.iter().copied().enumerate())
                .min_by_key(|&(_, p)| stamp_of(p))
                .expect("resident_pages >= 1");
            inner.hot.swap_remove(k);
            let old = inner.dir[victim].take().expect("hot pages are resident");
            if old.dirty {
                let mut buf = inner.pool.checkout(self.page_entries * 8);
                for (bytes, l) in buf.chunks_exact_mut(8).zip(old.data.iter()) {
                    bytes.copy_from_slice(&l.to_le_bytes());
                }
                inner
                    .side
                    .write_track(0, victim as u64, &buf)
                    .expect("private side store never faults");
                self.spills.inc();
            }
            old.data
        } else {
            vec![0u64; self.page_entries].into_boxed_slice()
        };
        inner
            .side
            .read_scatter_with(&[TrackAddr::new(0, page as u64)], &mut |_, b| {
                decode_page(b, &mut data)
            })
            .expect("private side store never faults");
        inner.dir[page] = Some(Page { data, dirty: false, stamp: inner.clock });
        inner.hot.push(page);
        self.loads.inc();
        self.resident.set(inner.hot.len() as i64);
    }

    /// Run `f` against `page`, faulting it in first if need be.
    fn with_page<R>(&self, page: usize, f: impl FnOnce(&mut Page) -> R) -> R {
        let inner = &mut *self.inner.borrow_mut();
        if inner.last != page {
            inner.clock += 1;
            match &mut inner.dir[page] {
                Some(p) => p.stamp = inner.clock,
                None => self.fault(inner, page),
            }
            inner.last = page;
        }
        f(inner.dir[page].as_mut().expect("resident: hit or just faulted in"))
    }

    fn get(&self, slot: usize) -> usize {
        let (page, k) = (slot / self.page_entries, slot % self.page_entries);
        self.with_page(page, |p| p.data[k] as usize)
    }

    fn set(&self, slot: usize, len: usize) {
        let (page, k) = (slot / self.page_entries, slot % self.page_entries);
        self.with_page(page, |p| {
            p.data[k] = len as u64;
            p.dirty = true;
        });
    }

    /// Visit every slot in order *without* disturbing the LRU — cold
    /// pages are decoded straight from the side store. Used by the
    /// checkpoint/RLE paths, which scan all `v` slots once.
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        let inner = self.inner.borrow();
        let mut cold = vec![0u64; self.page_entries];
        for (page, slot) in inner.dir.iter().enumerate() {
            let data: &[u64] = match slot {
                Some(hot) => &hot.data,
                None => {
                    inner
                        .side
                        .read_scatter_with(&[TrackAddr::new(0, page as u64)], &mut |_, b| {
                            decode_page(b, &mut cold)
                        })
                        .expect("private side store never faults");
                    &cold
                }
            };
            let base = page * self.page_entries;
            for (k, &l) in data.iter().enumerate() {
                let slot = base + k;
                if slot >= self.count {
                    break;
                }
                f(slot, l as usize);
            }
        }
    }
}

/// Fixed-slot context store over one disk array.
pub struct ContextStore {
    layout: Layout,
    slot_blocks: u64,
    block_bytes: usize,
    cap_bytes: usize,
    count: usize,
    lens: CtxLens,
    /// Address and length lists of read tickets, recycled at finish.
    addr_lists: FreeList<TrackAddr>,
    len_lists: FreeList<usize>,
}

impl ContextStore {
    /// A store for `count` contexts of up to `cap_bytes` bytes each,
    /// placed at `base_track` of an array with `num_disks` drives, with
    /// a fully resident length table. See [`Self::new_with`] for the
    /// paged variant.
    pub fn new(
        num_disks: usize,
        block_bytes: usize,
        base_track: u64,
        count: usize,
        cap_bytes: usize,
    ) -> Self {
        Self::new_with(num_disks, block_bytes, base_track, count, cap_bytes, &CtxPaging::Resident)
    }

    /// [`Self::new`] with an explicit length-table residency policy.
    /// Both policies are observationally identical (lengths, I/O,
    /// [`Self::lens_rle`]); paging bounds the runner-held table memory
    /// at large `v`.
    pub fn new_with(
        num_disks: usize,
        block_bytes: usize,
        base_track: u64,
        count: usize,
        cap_bytes: usize,
        paging: &CtxPaging,
    ) -> Self {
        let slot_blocks = (cap_bytes as u64).div_ceil(block_bytes as u64).max(1);
        let lens = match *paging {
            CtxPaging::Resident => CtxLens::Resident(vec![0; count]),
            CtxPaging::Paged { page_entries, resident_pages } => {
                CtxLens::Paged(PagedLens::new(count, page_entries, resident_pages))
            }
        };
        Self {
            layout: Layout { num_disks, base_track },
            slot_blocks,
            block_bytes,
            cap_bytes,
            count,
            lens,
            addr_lists: FreeList::new(),
            len_lists: FreeList::new(),
        }
    }

    /// Register this store's paging metrics (`cgmio_ctx_page_spills_total`,
    /// `cgmio_ctx_page_loads_total`, `cgmio_ctx_resident_pages`) with an
    /// observability pipeline, labelled by real processor. No-op for a
    /// resident table.
    pub fn attach_obs(&mut self, obs: &Obs, proc: usize) {
        if let CtxLens::Paged(p) = &mut self.lens {
            let labels = [("proc", proc.to_string())];
            p.spills = obs.metrics().counter("cgmio_ctx_page_spills_total", &labels);
            p.loads = obs.metrics().counter("cgmio_ctx_page_loads_total", &labels);
            p.resident = obs.metrics().gauge("cgmio_ctx_resident_pages", &labels);
        }
    }

    /// `(spills, loads)` of the paged length table so far, `None` for a
    /// resident table. The same numbers flow to the `cgmio_ctx_*`
    /// series when an [`Obs`] is attached.
    pub fn paging_stats(&self) -> Option<(u64, u64)> {
        match &self.lens {
            CtxLens::Resident(_) => None,
            CtxLens::Paged(p) => Some((p.spills.get(), p.loads.get())),
        }
    }

    /// Tracks this store occupies per drive.
    pub fn total_tracks(&self) -> u64 {
        self.layout.tracks_for(self.count as u64 * self.slot_blocks) + 1
    }

    /// Current encoded length of context `slot` (0 when never written).
    pub fn len(&self, slot: usize) -> usize {
        match &self.lens {
            CtxLens::Resident(lens) => lens[slot],
            CtxLens::Paged(p) => {
                assert!(slot < self.count, "slot {slot} out of range ({})", self.count);
                p.get(slot)
            }
        }
    }

    fn set_len(&mut self, slot: usize, len: usize) {
        match &mut self.lens {
            CtxLens::Resident(lens) => lens[slot] = len,
            CtxLens::Paged(p) => {
                assert!(slot < self.count, "slot {slot} out of range ({})", self.count);
                p.set(slot, len);
            }
        }
    }

    /// True if no context was ever written.
    pub fn is_empty(&self) -> bool {
        match &self.lens {
            CtxLens::Resident(lens) => lens.iter().all(|&l| l == 0),
            CtxLens::Paged(p) => {
                let mut empty = true;
                p.for_each(|_, l| empty &= l == 0);
                empty
            }
        }
    }

    /// The per-slot length table, run-length encoded as `(run, length)`
    /// pairs covering slots `0..count` in order — the compact form
    /// checkpoint manifests persist. Identical for both residency
    /// policies; a fresh store encodes to a single `(count, 0)` run.
    pub fn lens_rle(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut push = |l: usize| match out.last_mut() {
            Some((run, v)) if *v == l as u64 => *run += 1,
            _ => out.push((1, l as u64)),
        };
        match &self.lens {
            CtxLens::Resident(lens) => lens.iter().for_each(|&l| push(l)),
            CtxLens::Paged(p) => p.for_each(|_, l| push(l)),
        }
        out
    }

    /// Restore the per-slot length table from a checkpoint manifest (the
    /// encoding of [`Self::lens_rle`]). The on-disk slot contents must
    /// match (they do when the array was flushed at the barrier the
    /// manifest describes).
    pub fn set_lens_rle(&mut self, rle: &[(u64, u64)]) -> Result<(), EmError> {
        let total: u64 = rle.iter().map(|&(run, _)| run).sum();
        if total != self.count as u64 || rle.iter().any(|&(run, _)| run == 0) {
            return Err(EmError::BadConfig(format!(
                "checkpoint context table covers {total} slots, store has {}",
                self.count
            )));
        }
        if let Some(&(_, l)) = rle.iter().find(|&&(_, l)| l > self.cap_bytes as u64) {
            return Err(EmError::BadConfig(format!(
                "checkpoint context length {l} exceeds slot capacity {}",
                self.cap_bytes
            )));
        }
        let mut slot = 0usize;
        for &(run, l) in rle {
            for _ in 0..run {
                self.set_len(slot, l as usize);
                slot += 1;
            }
        }
        Ok(())
    }

    /// Write context `slot`: the one-slot case of [`Self::write_slots`].
    pub fn write(
        &mut self,
        disks: &mut DiskArray,
        slot: usize,
        bytes: &[u8],
    ) -> Result<(), EmError> {
        self.write_slots(disks, slot, &[bytes])
    }

    /// Write contexts `first..first + ctxs.len()` as one gather list.
    /// Each uses `⌈len/B⌉` blocks of its slot; consecutive slots continue
    /// the round-robin stream, so the list is fully parallel. Nothing is
    /// written if any context overflows its slot.
    pub fn write_slots<B: AsRef<[u8]>>(
        &mut self,
        disks: &mut DiskArray,
        first: usize,
        ctxs: &[B],
    ) -> Result<(), EmError> {
        let cap = self.cap_bytes;
        if let Some((i, c)) = ctxs.iter().enumerate().find(|(_, c)| c.as_ref().len() > cap) {
            return Err(EmError::CtxSlotOverflow { pid: first + i, len: c.as_ref().len(), cap });
        }
        let (layout, bb, sb) = (self.layout, self.block_bytes, self.slot_blocks);
        // Gather write straight from the caller's encoded buffers — the
        // chunks borrow them, so no per-block staging copies.
        disks.write_gather_iter(ctxs.iter().enumerate().flat_map(|(i, c)| {
            let base = (first + i) as u64 * sb;
            c.as_ref().chunks(bb).enumerate().map(move |(q, b)| (layout.addr(base + q as u64), b))
        }))?;
        for (i, c) in ctxs.iter().enumerate() {
            self.set_len(first + i, c.as_ref().len());
        }
        Ok(())
    }

    /// First track address of `slot` (used to anchor error reports).
    pub fn slot_addr(&self, slot: usize) -> TrackAddr {
        self.layout.addr(slot as u64 * self.slot_blocks)
    }

    /// Map a context decode failure to a typed corrupt-I/O error anchored
    /// at the slot's first on-disk block, so callers see *where* the bad
    /// bytes live rather than a panic deep in the decoder.
    pub fn corrupt_error(&self, slot: usize, e: CodecError) -> EmError {
        let a = self.slot_addr(slot);
        EmError::Io(IoError::Fault {
            kind: IoErrorKind::Corrupt,
            disk: a.disk,
            track: a.track,
            detail: format!("context {slot} failed to decode: {e}"),
        })
    }

    /// Push the blocks of `slots`, as they are now, onto `addrs`, and
    /// their lengths onto `lens`.
    fn list(&self, slots: Range<usize>, addrs: &mut Vec<TrackAddr>, lens: &mut Vec<usize>) {
        for slot in slots {
            let len = self.len(slot);
            let base = slot as u64 * self.slot_blocks;
            let nblocks = (len as u64).div_ceil(self.block_bytes as u64);
            addrs.extend((0..nblocks).map(|q| self.layout.addr(base + q)));
            lens.push(len);
        }
    }

    /// Track addresses a read of `slots` would touch right now — used as
    /// a prefetch hint for asynchronous backends (never counted as I/O).
    pub fn read_addrs(&self, slots: Range<usize>) -> Vec<TrackAddr> {
        let mut addrs = Vec::new();
        self.list(slots, &mut addrs, &mut Vec::new());
        addrs
    }

    /// Read context `slot` back (exactly the bytes last written).
    pub fn read(&mut self, disks: &mut DiskArray, slot: usize) -> Result<Vec<u8>, EmError> {
        let mut out = Vec::new();
        self.read_into(disks, slot, &mut out)?;
        Ok(out)
    }

    /// Read context `slot` into a reused buffer (cleared first): the
    /// one-slot case of [`Self::read_slots_into`].
    pub fn read_into(
        &mut self,
        disks: &mut DiskArray,
        slot: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), EmError> {
        self.read_slots_into(disks, slot..slot + 1, std::slice::from_mut(out))
    }

    /// Read contexts `slots` into reused buffers, one per slot. Blocks
    /// are appended directly from the storage's block views — no
    /// intermediate per-block vectors — and the buffers' capacity is
    /// kept across supersteps, so the steady-state read path allocates
    /// nothing.
    ///
    /// This is [`Self::read_submit`] followed immediately by
    /// [`Self::read_finish`]: the serial path and the pipelined path are
    /// the same code with a different gap between the two halves.
    pub fn read_slots_into(
        &mut self,
        disks: &mut DiskArray,
        slots: Range<usize>,
        outs: &mut [Vec<u8>],
    ) -> Result<(), EmError> {
        let t = self.read_submit(disks, slots)?;
        self.read_finish(disks, t, outs)
    }

    /// Begin an asynchronous read of contexts `slots`: captures their
    /// current addresses and lengths, submits one gather read (charged
    /// to the cost model now), and returns the ticket to redeem with
    /// [`Self::read_finish`]. The slots must not be rewritten between
    /// the two calls — the pipelined runners guarantee this because a
    /// vp's context is only written by its own step (e), which runs
    /// after its own read completes.
    pub fn read_submit(
        &self,
        disks: &mut DiskArray,
        slots: Range<usize>,
    ) -> Result<CtxReadTicket, EmError> {
        let mut t = self.read_plan(slots);
        t.ticket = disks.read_gather_submit(&t.addrs)?;
        Ok(t)
    }

    /// The read of contexts `slots` as they are now, not yet submitted:
    /// its address list is `t.addrs`, its ticket `t.ticket` once
    /// submitted.
    pub(crate) fn read_plan(&self, slots: Range<usize>) -> CtxReadTicket {
        let (mut addrs, mut lens) = (self.addr_lists.take(), self.len_lists.take());
        self.list(slots, &mut addrs, &mut lens);
        CtxReadTicket { lens, addrs, ticket: 0 }
    }

    /// Complete a read begun with [`Self::read_submit`], filling
    /// `outs[i]` (cleared first) with exactly the bytes last written to
    /// the `i`-th slot read. Charges nothing — the submit already did.
    pub fn read_finish(
        &self,
        disks: &mut DiskArray,
        t: CtxReadTicket,
        outs: &mut [Vec<u8>],
    ) -> Result<(), EmError> {
        let bb = self.block_bytes;
        let blocks = |len: usize| len.div_ceil(bb);
        for (out, &len) in outs.iter_mut().zip(&t.lens) {
            out.clear();
            out.reserve(blocks(len) * bb);
        }
        // Blocks arrive in request order: slot by slot.
        let (mut slot, mut left) = (0usize, 0usize);
        disks.read_gather_finish(t.ticket, &t.addrs, &mut |_, b| {
            while left == 0 {
                left = blocks(t.lens[slot]);
                slot += 1;
            }
            outs[slot - 1].extend_from_slice(b);
            left -= 1;
        })?;
        for (out, &len) in outs.iter_mut().zip(&t.lens) {
            out.truncate(len);
        }
        self.addr_lists.give(t.addrs);
        self.len_lists.give(t.lens);
        Ok(())
    }
}

/// Completion handle for an in-flight context read (see
/// [`ContextStore::read_submit`]). Captures the slots' addresses and
/// encoded lengths at submit time, so the finish decodes exactly the
/// bytes that were current when the read was issued.
pub struct CtxReadTicket {
    lens: Vec<usize>,
    pub(crate) addrs: Vec<TrackAddr>,
    pub(crate) ticket: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_pdm::DiskGeometry;

    #[test]
    fn roundtrip_varied_lengths() {
        let mut disks = DiskArray::new(DiskGeometry::new(3, 16));
        let mut store = ContextStore::new(3, 16, 0, 4, 100);
        let payloads: Vec<Vec<u8>> = vec![vec![1; 100], vec![2; 1], vec![], (0..77).collect()];
        for (i, p) in payloads.iter().enumerate() {
            store.write(&mut disks, i, p).unwrap();
        }
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(&store.read(&mut disks, i).unwrap(), p);
        }
    }

    #[test]
    fn rewrite_shrinks_and_grows() {
        let mut disks = DiskArray::new(DiskGeometry::new(2, 8));
        let mut store = ContextStore::new(2, 8, 5, 2, 64);
        store.write(&mut disks, 0, &[7; 60]).unwrap();
        store.write(&mut disks, 0, &[9; 3]).unwrap();
        assert_eq!(store.read(&mut disks, 0).unwrap(), vec![9; 3]);
        store.write(&mut disks, 0, &[4; 64]).unwrap();
        assert_eq!(store.read(&mut disks, 0).unwrap(), vec![4; 64]);
    }

    #[test]
    fn overflow_rejected() {
        let mut disks = DiskArray::new(DiskGeometry::new(1, 8));
        let mut store = ContextStore::new(1, 8, 0, 1, 10);
        let e = store.write(&mut disks, 0, &[0; 11]).unwrap_err();
        assert!(matches!(e, EmError::CtxSlotOverflow { pid: 0, len: 11, cap: 10 }));
    }

    #[test]
    fn io_is_fully_parallel() {
        let d = 4;
        let mut disks = DiskArray::new(DiskGeometry::new(d, 8));
        let mut store = ContextStore::new(d, 8, 0, 2, 8 * 8);
        // 8 blocks per context, D = 4 -> 2 ops per write, all full.
        store.write(&mut disks, 0, &[1; 64]).unwrap();
        store.write(&mut disks, 1, &[2; 64]).unwrap();
        assert_eq!(disks.stats().write_ops, 4);
        assert_eq!(disks.stats().full_ops, 4);
        store.read(&mut disks, 1).unwrap();
        assert_eq!(disks.stats().read_ops, 2);
        assert_eq!(disks.stats().full_ops, 6);
    }

    #[test]
    fn slots_do_not_collide() {
        let mut disks = DiskArray::new(DiskGeometry::new(2, 4));
        let mut store = ContextStore::new(2, 4, 0, 3, 12);
        store.write(&mut disks, 0, &[1; 12]).unwrap();
        store.write(&mut disks, 1, &[2; 12]).unwrap();
        store.write(&mut disks, 2, &[3; 12]).unwrap();
        assert_eq!(store.read(&mut disks, 0).unwrap(), vec![1; 12]);
        assert_eq!(store.read(&mut disks, 1).unwrap(), vec![2; 12]);
        assert_eq!(store.read(&mut disks, 2).unwrap(), vec![3; 12]);
    }

    /// The table's paging policy as it was first written — an LRU queue
    /// of hot pages and a dirty set — reduced to what it counts.
    #[derive(Default)]
    struct LruModel {
        lru: std::collections::VecDeque<usize>,
        dirty: std::collections::HashSet<usize>,
        spills: u64,
        loads: u64,
    }

    impl LruModel {
        fn touch(&mut self, page: usize, resident_pages: usize, write: bool) {
            if self.lru.contains(&page) {
                self.lru.retain(|&p| p != page);
            } else {
                if self.lru.len() >= resident_pages {
                    let victim = self.lru.pop_front().unwrap();
                    self.spills += u64::from(self.dirty.remove(&victim));
                }
                self.loads += 1;
            }
            self.lru.push_back(page);
            if write {
                self.dirty.insert(page);
            }
        }
    }

    #[test]
    fn paged_table_matches_resident_exactly() {
        let n = 23;
        let (page_entries, resident_pages) = (4, 2);
        let paging = CtxPaging::Paged { page_entries, resident_pages };
        // Paging-hostile read orders through the 2-page window: a
        // reverse scan, then a strided one that hops pages every read.
        let scans: Vec<usize> = (0..n).rev().chain((0..n).map(|i| i * 5 % n)).collect();
        let run = |p: &CtxPaging| {
            let mut disks = DiskArray::new(DiskGeometry::new(3, 16));
            let mut store = ContextStore::new_with(3, 16, 0, n, 64, p);
            for slot in 0..n {
                store.write(&mut disks, slot, &vec![slot as u8; (7 * slot) % 64]).unwrap();
            }
            let reads: Vec<Vec<u8>> =
                scans.iter().map(|&slot| store.read(&mut disks, slot).unwrap()).collect();
            // Rewrite on the strided order too: dirties pages mid-scan.
            for &slot in &scans[n..] {
                store.write(&mut disks, slot, &vec![1; slot % 9]).unwrap();
            }
            (reads, store.lens_rle(), disks.stats().clone(), store.paging_stats())
        };
        let (res_reads, res_rle, res_io, _) = run(&CtxPaging::Resident);
        let (pag_reads, pag_rle, pag_io, pag_stats) = run(&paging);
        assert_eq!(res_reads, pag_reads);
        assert_eq!(res_rle, pag_rle);
        assert_eq!(res_io, pag_io, "side-store spills must not leak into IoStats");

        // Same evictions, in the same order, as the LRU queue it
        // replaced: a write touches its slot's page once (the length),
        // a read once (the length, at submit).
        let mut model = LruModel::default();
        (0..n).for_each(|slot| model.touch(slot / page_entries, resident_pages, true));
        scans.iter().for_each(|&slot| model.touch(slot / page_entries, resident_pages, false));
        scans[n..].iter().for_each(|&slot| model.touch(slot / page_entries, resident_pages, true));
        assert!(model.spills > 6 && model.loads > 12, "the scans must really page");
        assert_eq!(pag_stats, Some((model.spills, model.loads)));
    }

    #[test]
    fn paged_table_spills_and_reloads() {
        let mut disks = DiskArray::new(DiskGeometry::new(1, 8));
        let paging = CtxPaging::Paged { page_entries: 2, resident_pages: 1 };
        let mut store = ContextStore::new_with(1, 8, 0, 8, 8, &paging);
        for slot in 0..8 {
            store.write(&mut disks, slot, &[slot as u8; 5]).unwrap();
        }
        // 4 pages through a 1-page window: every page was evicted dirty.
        let (spills, loads) = store.paging_stats().unwrap();
        assert!(spills >= 3, "spills = {spills}");
        assert!(loads >= 4, "loads = {loads}");
        for slot in (0..8).rev() {
            assert_eq!(store.len(slot), 5, "length survives spill/reload");
        }
        let (spills2, loads2) = store.paging_stats().unwrap();
        assert!(spills2 > spills && loads2 > loads, "reverse scan faults again");
    }

    #[test]
    fn lens_rle_roundtrip() {
        let mut disks = DiskArray::new(DiskGeometry::new(2, 8));
        let mut store = ContextStore::new(2, 8, 0, 6, 32);
        assert_eq!(store.lens_rle(), vec![(6, 0)], "fresh store is one zero run");
        store.write(&mut disks, 0, &[1; 16]).unwrap();
        store.write(&mut disks, 1, &[1; 16]).unwrap();
        store.write(&mut disks, 4, &[1; 3]).unwrap();
        let rle = store.lens_rle();
        assert_eq!(rle, vec![(2, 16), (2, 0), (1, 3), (1, 0)]);
        let paging = CtxPaging::Paged { page_entries: 2, resident_pages: 1 };
        let mut other = ContextStore::new_with(2, 8, 0, 6, 32, &paging);
        other.set_lens_rle(&rle).unwrap();
        assert_eq!(other.lens_rle(), rle);
        // Wrong slot count and over-capacity lengths are rejected.
        assert!(other.set_lens_rle(&[(5, 0)]).is_err());
        assert!(other.set_lens_rle(&[(6, 999)]).is_err());
    }
}
