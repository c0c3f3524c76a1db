//! The on-disk message matrix — step (d) of Algorithm 2 and the staggered
//! format of the paper's Figure 2.
//!
//! Messages are stored in fixed slots of `slot_items` items
//! (`b′ = ⌈slot_bytes/B⌉` blocks): slot `(src, dst)` lives in destination
//! band `dst`, block-major and staggered
//! ([`cgmio_pdm::MessageMatrixLayout`]) so that, stripe by stripe, both
//! the write order of a source (destinations ascending) and the read
//! order of a destination (sources ascending) advance round-robin
//! across the disks — so every parallel I/O uses all `D` drives.
//!
//! Only the blocks actually occupied by a message are transferred; slot
//! capacity bounds what *may* be sent, and the engine verifies it. With
//! unbalanced traffic the round-robin property degrades — measurably: the
//! ablation benchmarks compare balanced vs unbalanced I/O efficiency
//! through exactly this code path.
//!
//! Each message goes to one of `D` rotation copies, picked as it is
//! written and stored beside its length: the one minimising `max_d(W +
//! m) + max_d(R_g + m)`, ties to 0, where `W` counts the blocks per drive
//! of the whole list being written and `R_g` those already written to
//! its reader group (the `k` destinations one read gathers).
//!
//! # Length tables at scale
//!
//! The on-disk layout is a full `v × dst_count` grid, but the in-memory
//! *length table* that tracks which slots are occupied does not have to
//! be: in the coarse-grained regime a destination hears from a handful
//! of sources per round, so a dense `dst_count × v` table of `u32`s —
//! 4 TB at `v = 10^6` — is the scale blocker while holding almost
//! nothing. `LenTable` therefore has two representations behind one
//! interface: a dense grid (small `v`, matches the original layout
//! 1:1), and a CSR-style sparse table of sorted `(src, len, rot)` rows
//! holding only non-empty slots. Both produce **identical** block
//! addresses, `IoStats`, and [`MessageMatrix::sparse_lens`] snapshots —
//! property-tested in `tests/scale_equivalence.rs` — so the choice is
//! purely a memory/time trade governed by
//! [`crate::ScaleTuning`].

use std::cell::RefCell;
use std::ops::Range;

use cgmio_pdm::{
    DiskArray, IoError, IoErrorKind, Item, MessageMatrixLayout, SpanDecoder, TrackAddr,
};

use crate::pipeline::FreeList;
use crate::EmError;

/// One local destination's occupied message slots in source order:
/// `(src, len, rot)` — the items in the slot and the rotation copy that
/// holds them. The compact form checkpoint manifests persist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InboxRow(pub Vec<(u64, u32, u32)>);

/// A row of `(src, len)` slots in rotation copy 0, Figure 2's own place.
impl FromIterator<(u64, u32)> for InboxRow {
    fn from_iter<I: IntoIterator<Item = (u64, u32)>>(iter: I) -> Self {
        InboxRow(iter.into_iter().map(|(src, len)| (src, len, 0)).collect())
    }
}

/// Per-slot message lengths and rotations: which `(src, dst_local)`
/// slots are occupied, by how many items, in which copy. Sparse rows
/// hold only non-zero entries, sorted by source (`u64` source ids — the
/// addressing convention for the `10^5`–`10^6` vp range).
enum LenTable {
    /// `rows[dst_local][src]` = `(items, rot)` of that slot (0 items = empty).
    Dense(Vec<Vec<(u32, u32)>>),
    /// `rows[dst_local]` = sorted `(src, len, rot)` with `len > 0` only.
    Sparse(Vec<Vec<(u64, u32, u32)>>),
}

impl LenTable {
    fn new(dst_count: usize, v: usize, sparse: bool) -> Self {
        if sparse {
            LenTable::Sparse((0..dst_count).map(|_| Vec::new()).collect())
        } else {
            LenTable::Dense(vec![vec![(0, 0); v]; dst_count])
        }
    }

    /// Occupy a slot with `len > 0` items in copy `rot`.
    fn set(&mut self, dst_local: usize, src: usize, len: u32, rot: u32) {
        match self {
            LenTable::Dense(rows) => rows[dst_local][src] = (len, rot),
            LenTable::Sparse(rows) => {
                let row = &mut rows[dst_local];
                match row.binary_search_by_key(&(src as u64), |&(s, ..)| s) {
                    Ok(k) => row[k] = (src as u64, len, rot),
                    Err(k) => row.insert(k, (src as u64, len, rot)),
                }
            }
        }
    }

    fn clear(&mut self) {
        match self {
            LenTable::Dense(rows) => rows.iter_mut().for_each(|r| r.fill((0, 0))),
            LenTable::Sparse(rows) => rows.iter_mut().for_each(Vec::clear),
        }
    }

    fn rows(&self) -> usize {
        match self {
            LenTable::Dense(rows) => rows.len(),
            LenTable::Sparse(rows) => rows.len(),
        }
    }

    /// Non-empty `(src, len, rot)` entries of one row, in source order —
    /// the one iteration shape both representations share.
    fn row_nonzero(&self, dst_local: usize) -> RowNonzero<'_> {
        match self {
            LenTable::Dense(rows) => RowNonzero::Dense(rows[dst_local].iter().enumerate()),
            LenTable::Sparse(rows) => RowNonzero::Sparse(rows[dst_local].iter()),
        }
    }
}

/// Iterator of [`LenTable::row_nonzero`].
enum RowNonzero<'a> {
    Dense(std::iter::Enumerate<std::slice::Iter<'a, (u32, u32)>>),
    Sparse(std::slice::Iter<'a, (u64, u32, u32)>),
}

impl Iterator for RowNonzero<'_> {
    type Item = (usize, u32, u32);

    fn next(&mut self) -> Option<(usize, u32, u32)> {
        match self {
            RowNonzero::Dense(row) => row.find(|(_, l)| l.0 > 0).map(|(s, &(l, r))| (s, l, r)),
            RowNonzero::Sparse(row) => row.next().map(|&(s, l, r)| (s as usize, l, r)),
        }
    }
}

/// A message's blocks per drive at rotation 0: `full` on every drive,
/// and one more on each of the `extra` drives from drive `start` on.
#[derive(Clone, Copy)]
struct Footprint {
    start: usize,
    full: u32,
    extra: usize,
}

impl Footprint {
    /// `nblocks` blocks, block 0 on drive `start mod d` of `d`.
    fn new(start: usize, nblocks: usize, d: usize) -> Self {
        Footprint { start: start % d, full: (nblocks / d) as u32, extra: nblocks % d }
    }

    /// The drives of the `extra` blocks at rotation `rot < d`.
    fn extra_drives(self, rot: usize, d: usize) -> impl Iterator<Item = usize> {
        let s = self.start + rot;
        let s = if s >= d { s - d } else { s };
        (s..s + self.extra).map(move |x| if x >= d { x - d } else { x })
    }

    /// Add `delta` (`1`, or `u32::MAX` to take away) per block at
    /// rotation `rot` to the per-drive `counts`.
    fn tally(self, counts: &mut [u32], rot: usize, delta: u32) {
        let full = delta.wrapping_mul(self.full);
        counts.iter_mut().for_each(|c| *c = c.wrapping_add(full));
        for x in self.extra_drives(rot, counts.len()) {
            counts[x] = counts[x].wrapping_add(delta);
        }
    }

    /// The rotation minimising the sum of the two lists' busiest drives,
    /// `max_d(w + m) + max_d(g + m)`, ties to the lowest. Only the
    /// `extra` drives a rotation moves matter: `O(D · min(nblocks, D))`.
    fn best_rot(self, w: &[u32], g: &[u32]) -> usize {
        if self.extra == 0 {
            return 0;
        }
        let max = |c: &[u32]| c.iter().copied().max().unwrap_or(0);
        let (w_max, g_max) = (max(w), max(g));
        let peak =
            |c: &[u32], m: u32, r| self.extra_drives(r, c.len()).fold(m, |m, x| m.max(c[x] + 1));
        (0..w.len()).min_by_key(|&r| peak(w, w_max, r) + peak(g, g_max, r)).unwrap_or(0)
    }
}

/// One superstep's worth of messages on disk, for the destinations local
/// to one real processor.
pub struct MessageMatrix<M: Item> {
    layout: MessageMatrixLayout,
    block_bytes: usize,
    slot_items: usize,
    /// Sources addressing this matrix (`v` of the machine).
    v: usize,
    /// First global destination id of band 0 (0 for the sequential
    /// engine; the block start of the owning real processor otherwise).
    dst_base: usize,
    lens: LenTable,
    /// Destinations per reader group (the runner's group size).
    k: usize,
    /// `R_g`: blocks per drive written to each reader group since the
    /// last clear, `D` per group; sized on first use.
    readers: Vec<u32>,
    /// `W` of the list being written, and each entry's rotation:
    /// scratch of [`Self::write_entries`], recycled.
    writer: Vec<u32>,
    rots: Vec<usize>,
    /// Address, span and block-owner lists of inbox tickets, recycled
    /// at finish.
    addr_lists: FreeList<TrackAddr>,
    span_lists: FreeList<Span>,
    owner_lists: FreeList<usize>,
    /// The per-source decoders of the inbox read being finished; empty
    /// between calls, kept for its allocation.
    decoders: RefCell<Vec<SpanDecoder<M>>>,
}

impl<M: Item> MessageMatrix<M> {
    /// A matrix for `v` sources and `dst_count` local destinations
    /// (global ids `dst_base .. dst_base + dst_count`), slots of
    /// `slot_items` items, starting at `base_track`. The length table is
    /// dense below [`crate::ScaleTuning::AUTO_THRESHOLD`] sources and
    /// sparse above; use [`Self::new_with_mode`] to force either.
    pub fn new(
        num_disks: usize,
        block_bytes: usize,
        base_track: u64,
        v: usize,
        dst_base: usize,
        dst_count: usize,
        slot_items: usize,
    ) -> Self {
        let sparse = v > crate::ScaleTuning::AUTO_THRESHOLD;
        Self::new_with_mode(
            num_disks,
            block_bytes,
            base_track,
            v,
            dst_base,
            dst_count,
            slot_items,
            sparse,
        )
    }

    /// [`Self::new`] with an explicit length-table representation
    /// (`sparse = false` is the dense grid). Both modes are
    /// observationally identical; see the module docs.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_mode(
        num_disks: usize,
        block_bytes: usize,
        base_track: u64,
        v: usize,
        dst_base: usize,
        dst_count: usize,
        slot_items: usize,
        sparse: bool,
    ) -> Self {
        let slot_bytes = slot_items * M::SIZE;
        let blocks_per_msg = (slot_bytes as u64).div_ceil(block_bytes as u64).max(1);
        let mut layout = MessageMatrixLayout {
            num_disks,
            v: v.max(dst_count),
            blocks_per_msg,
            base_track,
            rot_base: 0,
            copy_tracks: 0,
        };
        layout.copy_tracks = layout.tracks_per_band() * dst_count as u64 + 1;
        layout.rot_base = base_track + layout.copy_tracks;
        Self {
            layout,
            block_bytes,
            slot_items,
            v,
            dst_base,
            lens: LenTable::new(dst_count, v, sparse),
            k: 1,
            readers: Vec::new(),
            writer: vec![0; num_disks],
            rots: Vec::new(),
            addr_lists: FreeList::new(),
            span_lists: FreeList::new(),
            owner_lists: FreeList::new(),
            decoders: RefCell::new(Vec::new()),
        }
    }

    /// Put rotation copies `1..D` at `rot_base`, one per
    /// [`Self::total_tracks`] (default: after copy 0), and read in groups
    /// of `k` destinations (default 1). Call before the first write.
    pub fn with_placement(mut self, k: usize, rot_base: u64) -> Self {
        self.k = k.max(1);
        self.layout.rot_base = rot_base;
        self
    }

    /// Tracks one copy of this matrix occupies per drive (`D` copies in
    /// all: copy 0 from the base track, the rest from the rotation base).
    pub fn total_tracks(&self) -> u64 {
        self.layout.copy_tracks
    }

    /// Slot capacity in items.
    pub fn slot_items(&self) -> usize {
        self.slot_items
    }

    /// The per-slot length table in its canonical compact form: one row
    /// per local destination of sorted `(src, len, rot)` triples,
    /// non-empty slots only. Identical for both table representations —
    /// this is the shape checkpoint manifests persist.
    pub fn sparse_lens(&self) -> Vec<InboxRow> {
        (0..self.lens.rows())
            .map(|d| InboxRow(self.lens.row_nonzero(d).map(|(s, l, r)| (s as u64, l, r)).collect()))
            .collect()
    }

    /// Restore the per-slot length table from a checkpoint manifest
    /// (the compact form of [`Self::sparse_lens`]). The on-disk slot
    /// contents must match (they do when the array was flushed at the
    /// barrier the manifest describes).
    pub fn set_sparse_lens(&mut self, rows: Vec<InboxRow>) -> Result<(), EmError> {
        if rows.len() != self.lens.rows() {
            return Err(EmError::BadConfig(format!(
                "checkpoint inbox table has {} rows, matrix has {}",
                rows.len(),
                self.lens.rows()
            )));
        }
        for InboxRow(row) in &rows {
            for &(src, len, rot) in row {
                if src >= self.v as u64 || rot as usize >= self.layout.num_disks {
                    return Err(EmError::BadConfig(format!(
                        "checkpoint inbox slot (src {src}, rot {rot}) out of range (v = {}, D = {})",
                        self.v, self.layout.num_disks
                    )));
                }
                if len == 0 || len as usize > self.slot_items {
                    return Err(EmError::BadConfig(format!(
                        "checkpoint inbox length {len} outside (0, {}]",
                        self.slot_items
                    )));
                }
            }
            if row.windows(2).any(|w| w[0].0 >= w[1].0) {
                return Err(EmError::BadConfig("checkpoint inbox row not sorted by source".into()));
            }
        }
        self.clear();
        for (j, InboxRow(row)) in rows.into_iter().enumerate() {
            for (src, len, rot) in row {
                self.lens.set(j, src as usize, len, rot);
                let (g, nb) = (self.group(j), self.blocks(len as usize));
                let m = Footprint::new(src as usize + j, nb, self.layout.num_disks);
                m.tally(&mut self.readers[g], rot as usize, 1);
            }
        }
        Ok(())
    }

    /// Reset all slots to empty (ping-pong reuse between supersteps).
    pub fn clear(&mut self) {
        self.lens.clear();
        let n = self.lens.rows().div_ceil(self.k) * self.layout.num_disks;
        self.readers.clear();
        self.readers.resize(n, 0);
    }

    /// Blocks of a message of `n_items` items.
    fn blocks(&self, n_items: usize) -> usize {
        (n_items * M::SIZE).div_ceil(self.block_bytes)
    }

    /// Where `R_g` of local destination `dst_local`'s group sits in
    /// `readers`.
    fn group(&self, dst_local: usize) -> Range<usize> {
        let d = self.layout.num_disks;
        dst_local / self.k * d..(dst_local / self.k + 1) * d
    }

    /// Total items received by local destination `dst_local`.
    pub fn received_items(&self, dst_local: usize) -> usize {
        self.lens.row_nonzero(dst_local).map(|(_, l, _)| l as usize).sum()
    }

    /// Largest inbox (total items) over all local destinations — the
    /// `max_received` of a round cost, computed straight off the length
    /// table (`O(dst_count + nnz)`).
    pub fn max_received_items(&self) -> usize {
        (0..self.lens.rows()).map(|d| self.received_items(d)).max().unwrap_or(0)
    }

    /// Write a batch of messages in the given order, packed greedily into
    /// parallel I/O operations (the paper's `DiskWrite` FIFO). Entries
    /// use *global* destination ids; each must be local to this matrix.
    ///
    /// The whole batch is encoded once into a single pooled staging
    /// buffer (each message at a block-aligned offset) and submitted as
    /// one gather write — no per-block `Vec` allocations, and concurrent
    /// backends see one vectored submission per drive.
    pub fn write_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(usize, usize, &[M])],
    ) -> Result<(), EmError> {
        self.write_entries(disks, entries.iter().copied())
    }

    /// [`Self::write_batch`] of the `(src, dst, items)` entries an
    /// iterator yields (it is walked three times: validate, encode,
    /// address), so a caller holding its messages in another shape need
    /// not build the entry list. Each message goes to the rotation copy
    /// the rule of the module docs picks.
    pub fn write_entries<'m>(
        &mut self,
        disks: &mut DiskArray,
        entries: impl Iterator<Item = (usize, usize, &'m [M])> + Clone,
    ) -> Result<(), EmError> {
        let (bb, d) = (self.block_bytes, self.layout.num_disks);
        if self.readers.is_empty() {
            self.clear(); // first write: size R_g
        }
        // Validate the whole batch before touching disk or the length
        // table; size the staging buffer and count W at rotation 0 in
        // the same pass.
        self.writer.fill(0);
        let mut total_blocks = 0usize;
        for (src, dst, items) in entries.clone() {
            if items.len() > self.slot_items {
                return Err(EmError::MsgSlotOverflow {
                    src,
                    dst,
                    len: items.len(),
                    slot: self.slot_items,
                });
            }
            let (j, nb) = (dst - self.dst_base, self.blocks(items.len()));
            Footprint::new(src + j, nb, d).tally(&mut self.writer, 0, 1);
            total_blocks += nb;
        }
        let mut staging = disks.pool().checkout(total_blocks * bb);
        let mut off = 0usize;
        self.rots.clear();
        for (src, dst, items) in entries.clone() {
            let (j, nb) = (dst - self.dst_base, self.blocks(items.len()));
            // Out of W at rotation 0, back in at the chosen one.
            let m = Footprint::new(src + j, nb, d);
            m.tally(&mut self.writer, 0, u32::MAX);
            let g = self.group(j);
            let g = &mut self.readers[g];
            let rot = m.best_rot(&self.writer, g);
            m.tally(&mut self.writer, rot, 1);
            m.tally(g, rot, 1);
            self.rots.push(rot);
            if items.is_empty() {
                continue;
            }
            let bytes = items.len() * M::SIZE;
            M::encode_into(items, &mut staging[off..off + bytes])
                .expect("staging sized to the batch");
            off += nb * bb;
            self.lens.set(j, src, items.len() as u32, rot as u32);
        }
        let (layout, dst_base, staging) = (self.layout, self.dst_base, &staging[..]);
        let mut off = 0usize;
        let entries = entries.zip(&self.rots);
        disks.write_gather_iter(entries.flat_map(|((src, dst, items), &rot)| {
            let bytes = items.len() * M::SIZE;
            let encoded = &staging[off..off + bytes];
            off += bytes.div_ceil(bb) * bb;
            let blocks = encoded.chunks(bb).enumerate();
            blocks.map(move |(q, chunk)| (layout.addr(src, dst - dst_base, q as u64, rot), chunk))
        }))?;
        Ok(())
    }

    /// List the inboxes of global destinations `dsts` as they are now:
    /// one span per occupied slot, and its blocks in request order with
    /// the span each belongs to. The blocks go copy by copy, then per
    /// destination stripe by stripe — block `q` of every message before
    /// block `q + 1` of any — so that each drive's share ascends in
    /// track order.
    fn list(
        &self,
        dsts: Range<usize>,
        spans: &mut Vec<Span>,
        addrs: &mut Vec<TrackAddr>,
        owner: &mut Vec<usize>,
    ) {
        let first = spans.len();
        for dst in dsts.clone() {
            for (src, len, rot) in self.lens.row_nonzero(dst - self.dst_base) {
                let (n_items, rot) = (len as usize, rot as usize);
                let nblocks = self.blocks(n_items);
                spans.push(Span { dst: dst - dsts.start, src, rot, n_items, nblocks });
            }
        }
        let copies = spans[first..].iter().map(|s| s.rot + 1).max().unwrap_or(0);
        for rot in 0..copies {
            let mut at = first;
            for run in spans[first..].chunk_by(|a, b| a.dst == b.dst) {
                let dst_local = dsts.start + run[0].dst - self.dst_base;
                let mine = || run.iter().enumerate().filter(move |(_, s)| s.rot == rot);
                let stripes = mine().map(|(_, s)| s.nblocks).max().unwrap_or(0);
                for q in 0..stripes {
                    for (i, s) in mine().filter(|(_, s)| s.nblocks > q) {
                        addrs.push(self.layout.addr(s.src, dst_local, q as u64, rot));
                        owner.push(at + i);
                    }
                }
                at += run.len();
            }
        }
    }

    /// Track addresses a read of the inboxes of `dsts` would touch right
    /// now — used as a prefetch hint for asynchronous backends (never
    /// counted).
    pub fn read_addrs_for_dst(&self, dsts: Range<usize>) -> Vec<TrackAddr> {
        let mut addrs = Vec::new();
        self.list(dsts, &mut Vec::new(), &mut addrs, &mut Vec::new());
        addrs
    }

    /// Read the full inbox of global destination `dst`: `(src, items)`
    /// per *non-empty* source, in source order (step (b) of Algorithm
    /// 2) — the shape [`cgmio_model::Incoming::from_sparse`] consumes.
    /// Only occupied blocks are read.
    ///
    /// This is the one-destination case of [`Self::read_for_dst_submit`]
    /// followed immediately by [`Self::read_for_dst_finish_into`]: the
    /// serial path and the pipelined path are the same code with a
    /// different gap between the halves.
    pub fn read_for_dst(
        &mut self,
        disks: &mut DiskArray,
        dst: usize,
    ) -> Result<Vec<(usize, Vec<M>)>, EmError> {
        let t = self.read_for_dst_submit(disks, dst..dst + 1)?;
        let mut out = [Vec::new()];
        self.read_for_dst_finish_into(disks, t, &mut out)?;
        let [out] = out;
        Ok(out)
    }

    /// Begin an asynchronous read of the inboxes of global destinations
    /// `dsts`: captures the per-source slot lengths and block addresses
    /// *as they are now*, submits one gather read (charged to the cost
    /// model now), and returns the ticket to redeem with
    /// [`Self::read_for_dst_finish_into`]. The captured slots must not
    /// be rewritten between the two calls — the pipelined runners
    /// guarantee this because the inbox matrix of the current superstep
    /// was fully written (and barrier-flushed) last superstep, while
    /// this superstep's sends go to the other matrix of the ping-pong
    /// pair.
    pub fn read_for_dst_submit(
        &self,
        disks: &mut DiskArray,
        dsts: Range<usize>,
    ) -> Result<InboxTicket, EmError> {
        let mut addrs = self.addr_lists.take();
        let (mut spans, mut owner) = (self.span_lists.take(), self.owner_lists.take());
        self.list(dsts.clone(), &mut spans, &mut addrs, &mut owner);
        let ticket = disks.read_gather_submit(&addrs)?;
        Ok(InboxTicket { first: dsts.start, addrs, spans, owner, ticket })
    }

    /// Complete a read begun with [`Self::read_for_dst_submit`]: `outs[i]`
    /// (cleared first) receives the inbox of the `i`-th destination,
    /// `(src, items)` per non-empty source in source order. Each block is
    /// decoded straight from the storage's block view into a per-source
    /// streaming decoder — no reassembly buffer and, for in-memory
    /// backends, no block copy — and a caller that hands the same lists
    /// back every time reads inboxes without allocating more than the
    /// items themselves. Charges nothing — the submit already did.
    pub fn read_for_dst_finish_into(
        &self,
        disks: &mut DiskArray,
        t: InboxTicket,
        outs: &mut [Vec<(usize, Vec<M>)>],
    ) -> Result<(), EmError> {
        let InboxTicket { first, addrs, spans, owner, ticket } = t;
        outs.iter_mut().for_each(Vec::clear);
        let mut decoders = self.decoders.take();
        decoders.extend(spans.iter().map(|s| SpanDecoder::new(s.n_items)));
        disks.read_gather_finish(ticket, &addrs, &mut |i, block| decoders[owner[i]].feed(block))?;
        for (dec, s) in decoders.drain(..).zip(&spans) {
            match dec.finish() {
                Ok(items) => outs[s.dst].push((s.src, items)),
                Err(e) => {
                    let dst = first + s.dst;
                    let a = self.layout.addr(s.src, dst - self.dst_base, 0, s.rot);
                    return Err(EmError::Io(IoError::Fault {
                        kind: IoErrorKind::Corrupt,
                        disk: a.disk,
                        track: a.track,
                        detail: format!("message slot src {} dst {dst}: {e}", s.src),
                    }));
                }
            }
        }
        self.decoders.replace(decoders);
        self.addr_lists.give(addrs);
        self.span_lists.give(spans);
        self.owner_lists.give(owner);
        Ok(())
    }
}

/// One occupied slot of an inbox read: `n_items` items in `nblocks`
/// blocks of rotation copy `rot` from `src` to the `dst`-th destination
/// read.
struct Span {
    dst: usize,
    src: usize,
    rot: usize,
    n_items: usize,
    nblocks: usize,
}

/// Completion handle for an in-flight inbox read (see
/// [`MessageMatrix::read_for_dst_submit`]). Captures the destinations'
/// slot lengths and block addresses at submit time, so the finish
/// decodes exactly the inboxes that were current when the read was
/// issued.
pub struct InboxTicket {
    /// Global id of the first destination read.
    first: usize,
    addrs: Vec<TrackAddr>,
    /// One per non-empty slot, by destination, then source.
    spans: Vec<Span>,
    /// The span each block of `addrs` belongs to.
    owner: Vec<usize>,
    ticket: u64,
}

impl InboxTicket {
    /// Total items this inbox read will deliver (the submit-time
    /// `received_items` of its destinations).
    pub fn items(&self) -> usize {
        self.spans.iter().map(|s| s.n_items).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_pdm::DiskGeometry;

    fn setup(d: usize, bb: usize, v: usize, slot: usize) -> (DiskArray, MessageMatrix<u64>) {
        let disks = DiskArray::new(DiskGeometry::new(d, bb));
        let m = MessageMatrix::new(d, bb, 0, v, 0, v, slot);
        (disks, m)
    }

    /// Dense view of a sparse inbox, for assertions.
    fn densify(v: usize, sparse: Vec<(usize, Vec<u64>)>) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); v];
        for (src, items) in sparse {
            out[src] = items;
        }
        out
    }

    #[test]
    fn roundtrip_full_matrix() {
        let v = 4;
        let (mut disks, mut m) = setup(3, 16, v, 8);
        for src in 0..v {
            let msgs: Vec<Vec<u64>> =
                (0..v).map(|dst| (0..(src + dst) as u64 % 8).map(|k| k + 100).collect()).collect();
            let entries: Vec<(usize, usize, &[u64])> =
                msgs.iter().enumerate().map(|(dst, ms)| (src, dst, ms.as_slice())).collect();
            m.write_batch(&mut disks, &entries).unwrap();
        }
        for dst in 0..v {
            let inbox = densify(v, m.read_for_dst(&mut disks, dst).unwrap());
            for (src, msg) in inbox.iter().enumerate() {
                let want: Vec<u64> = (0..(src + dst) as u64 % 8).map(|k| k + 100).collect();
                assert_eq!(msg, &want, "src={src} dst={dst}");
            }
        }
    }

    #[test]
    fn sparse_and_dense_tables_are_observationally_identical() {
        let d = 3;
        let bb = 16;
        let v = 5;
        let run = |sparse: bool| {
            let mut disks = DiskArray::new(DiskGeometry::new(d, bb));
            let mut m: MessageMatrix<u64> =
                MessageMatrix::new_with_mode(d, bb, 0, v, 0, v, 8, sparse);
            for src in 0..v {
                let msgs: Vec<Vec<u64>> = (0..v)
                    .map(|dst| (0..(3 * src + dst) as u64 % 7).map(|k| k + 10).collect())
                    .collect();
                let entries: Vec<(usize, usize, &[u64])> =
                    msgs.iter().enumerate().map(|(dst, ms)| (src, dst, ms.as_slice())).collect();
                m.write_batch(&mut disks, &entries).unwrap();
            }
            let inboxes: Vec<_> =
                (0..v).map(|dst| m.read_for_dst(&mut disks, dst).unwrap()).collect();
            (inboxes, m.sparse_lens(), disks.stats().clone())
        };
        let (dense_inbox, dense_lens, dense_io) = run(false);
        let (sparse_inbox, sparse_lens, sparse_io) = run(true);
        assert_eq!(dense_inbox, sparse_inbox);
        assert_eq!(dense_lens, sparse_lens);
        assert_eq!(dense_io, sparse_io);
    }

    #[test]
    fn sparse_lens_roundtrips_through_set() {
        let (mut disks, mut m) = setup(2, 16, 4, 4);
        let msg = vec![1u64, 2, 3];
        m.write_batch(&mut disks, &[(2, 1, msg.as_slice()), (0, 3, msg.as_slice())]).unwrap();
        let lens = m.sparse_lens();
        assert_eq!(lens[1], InboxRow(vec![(2, 3, 0)]));
        assert_eq!(lens[3], InboxRow(vec![(0, 3, 0)]));
        let mut m2: MessageMatrix<u64> = MessageMatrix::new_with_mode(2, 16, 0, 4, 0, 4, 4, true);
        m2.set_sparse_lens(lens.clone()).unwrap();
        assert_eq!(m2.sparse_lens(), lens);
        // Out-of-range source or rotation and unsorted rows are rejected.
        let rows = |row: InboxRow| {
            vec![row, InboxRow::default(), InboxRow::default(), InboxRow::default()]
        };
        assert!(m2.set_sparse_lens(rows(InboxRow(vec![(9, 1, 0)]))).is_err());
        assert!(m2.set_sparse_lens(rows(InboxRow(vec![(1, 1, 2)]))).is_err());
        assert!(m2.set_sparse_lens(rows(InboxRow(vec![(2, 1, 0), (1, 1, 0)]))).is_err());
        m2.set_sparse_lens(rows(InboxRow(vec![(1, 1, 1)]))).unwrap();
    }

    #[test]
    fn slot_overflow_rejected() {
        let (mut disks, mut m) = setup(2, 16, 2, 3);
        let big = vec![0u64; 4];
        let e = m.write_batch(&mut disks, &[(0, 1, big.as_slice())]).unwrap_err();
        assert!(matches!(e, EmError::MsgSlotOverflow { src: 0, dst: 1, len: 4, slot: 3 }));
    }

    #[test]
    fn balanced_writes_are_fully_parallel() {
        // v=4, D=4, slot exactly 2 blocks, every message full:
        // each source writes 8 blocks round-robin -> 2 full ops.
        let d = 4;
        let bb = 16; // 2 u64 per block
        let v = 4;
        let (mut disks, mut m) = setup(d, bb, v, 4); // slot 4 items = 2 blocks
        for src in 0..v {
            let msgs: Vec<Vec<u64>> =
                (0..v).map(|dst| vec![src as u64, dst as u64, 0, 1]).collect();
            let entries: Vec<(usize, usize, &[u64])> =
                msgs.iter().enumerate().map(|(dst, ms)| (src, dst, ms.as_slice())).collect();
            m.write_batch(&mut disks, &entries).unwrap();
        }
        let s = disks.stats();
        assert_eq!(s.write_ops, (v * v * 2 / d) as u64);
        assert_eq!(s.full_ops, s.write_ops, "every write op must use all D disks");
        let rots = m.sparse_lens().into_iter().flat_map(|r| r.0).map(|(.., rot)| rot);
        assert!(rots.into_iter().all(|r| r == 0), "balanced traffic keeps Figure 2's place");

        // reads for each destination are fully parallel too
        disks.reset_stats();
        for dst in 0..v {
            m.read_for_dst(&mut disks, dst).unwrap();
        }
        let s = disks.stats();
        assert_eq!(s.full_ops, s.read_ops);
    }

    #[test]
    fn ring_messages_use_both_drives() {
        // A ring at D = 2 in groups of k = 2: vp i sends one block to
        // i + 1. Unrotated, every message of a group lands on drive 1
        // (i + (i + 1) is odd), so each group write and each group read
        // costs 2 operations; rotating one message per group makes both 1.
        let (d, v, k) = (2, 8, 2);
        let mut disks = DiskArray::new(DiskGeometry::new(d, 8));
        let m: MessageMatrix<u64> = MessageMatrix::new(d, 8, 0, v, 0, v, 1);
        let rot_base = m.total_tracks();
        let mut m = m.with_placement(k, rot_base);
        let msgs: Vec<[u64; 1]> = (0..v as u64).map(|i| [i + 100]).collect();
        for g in 0..v / k {
            let entries: Vec<_> =
                (g * k..(g + 1) * k).map(|i| (i, (i + 1) % v, &msgs[i][..])).collect();
            assert_eq!(disks.stats().write_ops, g as u64);
            m.write_batch(&mut disks, &entries).unwrap();
        }
        assert_eq!(disks.stats().write_ops, (v / k) as u64, "one op per group write");
        let rotated = m.sparse_lens().into_iter().filter(|r| r.0.iter().any(|s| s.2 != 0));
        assert_eq!(rotated.count(), v / k, "one rotated message per group");
        let mut outs = vec![Vec::new(); k];
        for g in 0..v / k {
            let t = m.read_for_dst_submit(&mut disks, g * k..(g + 1) * k).unwrap();
            m.read_for_dst_finish_into(&mut disks, t, &mut outs).unwrap();
            for (i, inbox) in (g * k..(g + 1) * k).zip(&outs) {
                let src = (i + v - 1) % v;
                assert_eq!(inbox, &vec![(src, vec![src as u64 + 100])], "dst {i}");
            }
        }
        assert_eq!(disks.stats().read_ops, (v / k) as u64, "one op per group read");
        assert_eq!(disks.stats().narrow_ops, 0);
    }

    #[test]
    fn clear_empties_all_slots() {
        let (mut disks, mut m) = setup(2, 16, 2, 4);
        let msg = vec![1u64, 2];
        m.write_batch(&mut disks, &[(0, 0, msg.as_slice()), (0, 1, msg.as_slice())]).unwrap();
        assert_eq!(m.received_items(0), 2);
        m.clear();
        assert_eq!(m.received_items(0), 0);
        let inbox = m.read_for_dst(&mut disks, 0).unwrap();
        assert!(inbox.is_empty(), "cleared matrix has no occupied slots");
    }

    #[test]
    fn partial_band_for_parallel_engine() {
        // dst_base = 2: matrix owns global dsts 2 and 3 out of v = 4.
        let d = 2;
        let mut disks = DiskArray::new(DiskGeometry::new(d, 16));
        let mut m: MessageMatrix<u64> = MessageMatrix::new(d, 16, 0, 4, 2, 2, 4);
        let msg: Vec<u64> = vec![5, 6, 7];
        m.write_batch(&mut disks, &[(1, 3, msg.as_slice())]).unwrap();
        let inbox = densify(4, m.read_for_dst(&mut disks, 3).unwrap());
        assert_eq!(inbox[1], msg);
        assert!(inbox[0].is_empty() && inbox[2].is_empty() && inbox[3].is_empty());
    }

    #[test]
    fn empty_messages_cost_nothing() {
        let (mut disks, mut m) = setup(2, 16, 2, 4);
        let empty: Vec<u64> = vec![];
        m.write_batch(&mut disks, &[(0, 0, empty.as_slice())]).unwrap();
        assert_eq!(disks.stats().total_ops(), 0);
        let inbox = m.read_for_dst(&mut disks, 0).unwrap();
        assert_eq!(disks.stats().total_ops(), 0);
        assert!(inbox.is_empty());
    }

    #[test]
    fn huge_v_sparse_table_is_cheap() {
        // The point of the sparse table: a million sources cost nothing
        // until they actually send.
        let v = 1_000_000;
        let mut disks = DiskArray::new(DiskGeometry::new(2, 16));
        let mut m: MessageMatrix<u64> = MessageMatrix::new(2, 16, 0, v, 0, 1, 4);
        let msg = vec![42u64, 43];
        m.write_batch(&mut disks, &[(999_999, 0, msg.as_slice())]).unwrap();
        assert_eq!(m.received_items(0), 2);
        let inbox = m.read_for_dst(&mut disks, 0).unwrap();
        assert_eq!(inbox, vec![(999_999, vec![42, 43])]);
    }
}
