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
//! # Carries
//!
//! The executor swaps a group of virtual processors per list, and a
//! group's blocks need not fill whole `D`-block stripes. Two carries pass
//! a group's partial stripe on to its neighbour, so that a superstep's
//! context traffic moves as one stream of whole stripes. Each holds at
//! most [`ContextStore::carry`] blocks (`D − 1` when `M` has room for
//! them, [`crate::EmConfig::carry_blocks`]):
//!
//! * **Write carry** (step (e)). The blocks held back by the previous
//!   write list go in front of a group's own. If fewer than `D` drives
//!   reach the list's busiest count `m`, the last block on each drive
//!   that does is held back and copied into the carry buffer, and the
//!   list costs `m − 1` — if the caller has room for them. The
//!   superstep's last list holds nothing back, and
//!   [`ContextStore::write_held`] writes whatever a trailing group that
//!   wrote nothing left held, before the barrier: no manifest describes
//!   a held block.
//! * **Read fill** (step (a)). A group's read list — its blocks not yet
//!   fetched, and its inbox — costs its busiest drive's count `m`. The
//!   next group's blocks, in slot order, that land on a drive with fewer
//!   than `m` blocks join the list, each raising its drive's count by
//!   one. They arrive into a stash, and the next group's read takes them
//!   from there. A slot is only rewritten by its own step (e), after its
//!   own read, so this is safe at every pipeline depth.
//!
//! The carries give way to the working set: when a group needs their
//! room, [`ContextStore::give_way`] writes the held blocks and drops the
//! stash, whose blocks the next group's read then fetches as a list of
//! their own. Both rules and this one depend only on the lists and sizes
//! of the superstep, never on timing, so every count is the same at
//! every pipeline depth and on every backend. They do depend on `p`: a
//! carry never crosses a real processor's range, and at `p ≥ 2` the
//! inboxes a fill fits under are laid out differently. At `D = 1` there
//! is nothing to carry.

use std::ops::Range;

use cgmio_pdm::{CodecError, DiskArray, IoError, IoErrorKind, Layout, TrackAddr};

use crate::pipeline::FreeList;
use crate::EmError;

/// Fixed-slot context store over one disk array.
pub struct ContextStore {
    layout: Layout,
    slot_blocks: u64,
    block_bytes: usize,
    cap_bytes: usize,
    /// Encoded length of each slot's context (0: never written).
    lens: Vec<usize>,
    /// Length and address lists of read tickets, recycled at finish.
    len_lists: FreeList<usize>,
    addr_lists: FreeList<TrackAddr>,
    /// Most blocks one carry holds (module docs); 0 turns both off.
    carry: usize,
    /// The write carry: stream position and length of each block the
    /// last write list held back, block `i` at `i·B` of `bytes`.
    held: Vec<(u64, usize)>,
    /// The read fill as planned: the next group's blocks the last read
    /// list took, by stream position, ascending.
    fetched: Vec<u64>,
    /// The read fill as finished: the positions of those blocks, waiting
    /// for their group's read, block `i` at `(carry + i)·B` of `bytes`.
    stash: Vec<u64>,
    /// The stash's bytes were given up ([`Self::give_way`]): its group's
    /// read fetches them again.
    dropped: bool,
    /// The carries' blocks: `carry` for each.
    bytes: Vec<u8>,
    /// Scratch of the write list being built: its blocks by stream
    /// position and address, and per drive their number and the last
    /// one's position.
    list: Vec<(u64, TrackAddr)>,
    per_drive: Vec<(usize, u64)>,
    /// Blocks the write carry held back, and blocks the read fill took,
    /// since this store was made.
    carried: u64,
    preread: u64,
}

impl ContextStore {
    /// A store for `count` contexts of up to `cap_bytes` bytes each,
    /// placed at `base_track` of an array with `num_disks` drives. It
    /// carries nothing ([`Self::with_carry`]).
    pub fn new(
        num_disks: usize,
        block_bytes: usize,
        base_track: u64,
        count: usize,
        cap_bytes: usize,
    ) -> Self {
        Self {
            layout: Layout { num_disks, base_track },
            slot_blocks: (cap_bytes as u64).div_ceil(block_bytes as u64).max(1),
            block_bytes,
            cap_bytes,
            lens: vec![0; count],
            len_lists: FreeList::new(),
            addr_lists: FreeList::new(),
            carry: 0,
            held: Vec::new(),
            fetched: Vec::new(),
            stash: Vec::new(),
            dropped: false,
            bytes: Vec::new(),
            list: Vec::new(),
            per_drive: vec![(0, 0); num_disks],
            carried: 0,
            preread: 0,
        }
    }

    /// This store with carries of up to `blocks` blocks each, at most
    /// `D − 1` (module docs). Their buffers are allocated here, once.
    pub fn with_carry(mut self, blocks: usize) -> Self {
        self.carry = blocks.min(self.layout.num_disks.saturating_sub(1));
        self.bytes = vec![0; 2 * self.carry * self.block_bytes];
        self.held.reserve(self.carry);
        self.fetched.reserve(self.carry);
        self.stash.reserve(self.carry);
        self
    }

    /// Most blocks one carry holds.
    pub fn carry(&self) -> usize {
        self.carry
    }

    /// Bytes of the blocks the carries hold right now: the write carry's
    /// and the read fill's stash, a whole block each.
    pub fn carried_bytes(&self) -> usize {
        self.held.len() * self.block_bytes + self.stash_bytes()
    }

    /// Bytes of the read fill's stash alone.
    pub fn stash_bytes(&self) -> usize {
        if self.dropped {
            0
        } else {
            self.stash.len() * self.block_bytes
        }
    }

    /// Free the carries' room: write the held blocks as one list and drop
    /// the stash, which the next [`Self::read_finish`] reads again as a
    /// list of its own, before its group's blocks arrive.
    pub fn give_way(&mut self, disks: &mut DiskArray) -> Result<(), EmError> {
        self.write_held(disks)?;
        self.dropped = !self.stash.is_empty();
        Ok(())
    }

    /// Blocks the write carry held back, and blocks the read fill took
    /// into an earlier group's list, since this store was made.
    pub fn carry_counts(&self) -> (u64, u64) {
        (self.carried, self.preread)
    }

    /// Tracks this store occupies per drive.
    pub fn total_tracks(&self) -> u64 {
        self.layout.tracks_for(self.lens.len() as u64 * self.slot_blocks) + 1
    }

    /// Current encoded length of context `slot` (0 when never written).
    pub fn len(&self, slot: usize) -> usize {
        self.lens[slot]
    }

    /// True if no context was ever written.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&l| l == 0)
    }

    /// The per-slot length table, run-length encoded as `(run, length)`
    /// pairs covering slots `0..count` in order — the compact form
    /// checkpoint manifests persist. A fresh store encodes to a single
    /// `(count, 0)` run.
    pub fn lens_rle(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &l in &self.lens {
            match out.last_mut() {
                Some((run, v)) if *v == l as u64 => *run += 1,
                _ => out.push((1, l as u64)),
            }
        }
        out
    }

    /// Restore the per-slot length table from a checkpoint manifest (the
    /// encoding of [`Self::lens_rle`]). The on-disk slot contents must
    /// match (they do when the array was flushed at the barrier the
    /// manifest describes).
    pub fn set_lens_rle(&mut self, rle: &[(u64, u64)]) -> Result<(), EmError> {
        let total: u64 = rle.iter().map(|&(run, _)| run).sum();
        if total != self.lens.len() as u64 || rle.iter().any(|&(run, _)| run == 0) {
            return Err(EmError::BadConfig(format!(
                "checkpoint context table covers {total} slots, store has {}",
                self.lens.len()
            )));
        }
        if let Some(&(_, l)) = rle.iter().find(|&&(_, l)| l > self.cap_bytes as u64) {
            return Err(EmError::BadConfig(format!(
                "checkpoint context length {l} exceeds slot capacity {}",
                self.cap_bytes
            )));
        }
        self.lens.clear();
        for &(run, l) in rle {
            self.lens.extend(std::iter::repeat_n(l as usize, run as usize));
        }
        Ok(())
    }

    /// Write context `slot`: the one-slot case of [`Self::write_slots`],
    /// with no image and nothing held back.
    pub fn write(
        &mut self,
        disks: &mut DiskArray,
        slot: usize,
        bytes: &[u8],
    ) -> Result<(), EmError> {
        self.write_slots(disks, slot, &[bytes], false, 0).map(drop)
    }

    /// Write the blocks the write carry still holds as one list: before
    /// a barrier, so that the contexts on disk are whole.
    pub fn write_held(&mut self, disks: &mut DiskArray) -> Result<(), EmError> {
        self.write_slots::<&[u8]>(disks, 0, &[], false, 0).map(drop)
    }

    /// Write contexts `first..first + ctxs.len()` as one gather list.
    /// Each uses `⌈len/B⌉` blocks of its slot; consecutive slots continue
    /// the round-robin stream, so the list is fully parallel. Nothing is
    /// written if any context overflows its slot.
    ///
    /// With `imaged`, each buffer is the image read from the slot this
    /// superstep — its current `len` bytes — followed by the new
    /// encoding, and block `q` of the encoding is written only if its
    /// bytes differ from the image's at the same offset (a block past the
    /// image's end always is). A kept block already holds those bytes,
    /// and reads stop at the new length, so a shrunk context reads back
    /// exactly. One buffer holds both so that the swap path needs no
    /// second buffer per slot. Returns the number of blocks kept.
    ///
    /// The blocks the write carry holds go in front of the list, and the
    /// list may hold some back in turn (module docs), as many as `room`
    /// bytes take a whole block each: 0 for the superstep's last list.
    ///
    /// # Panics
    ///
    /// With `imaged`, if a buffer is shorter than its slot's image.
    pub fn write_slots<B: AsRef<[u8]>>(
        &mut self,
        disks: &mut DiskArray,
        first: usize,
        ctxs: &[B],
        imaged: bool,
        room: usize,
    ) -> Result<u64, EmError> {
        let (layout, bb, sb, cap) =
            (self.layout, self.block_bytes, self.slot_blocks, self.cap_bytes);
        let lens = &self.lens[first..first + ctxs.len()];
        // Each slot's image (empty without one) and new encoding.
        let image_len = |len: usize| if imaged { len } else { 0 };
        let parts = || ctxs.iter().zip(lens).map(|(c, &len)| c.as_ref().split_at(image_len(len)));
        if let Some((i, (_, new))) = parts().enumerate().find(|(_, (_, new))| new.len() > cap) {
            return Err(EmError::CtxSlotOverflow { pid: first + i, len: new.len(), cap });
        }
        // The list, by stream position: the blocks held back so far, then
        // the blocks of the new encodings that differ from the image's
        // bytes at the same offset (all of them without one).
        let blocks: usize = parts().map(|(_, new)| new.len().div_ceil(bb)).sum();
        // Each block counts on its drive, which keeps its last one.
        let (list, per) = (&mut self.list, &mut self.per_drive);
        list.clear();
        list.reserve(self.held.len() + blocks);
        per.fill((0, 0));
        let mut push = |p: u64| {
            let a = layout.addr(p);
            let e = &mut per[a.disk];
            (e.0, e.1) = (e.0 + 1, p);
            list.push((p, a));
        };
        self.held.iter().for_each(|&(p, _)| push(p));
        for (i, (image, new)) in parts().enumerate() {
            let base = (first + i) as u64 * sb;
            let changed = new
                .chunks(bb)
                .enumerate()
                .filter(|&(q, b)| image.get(q * bb..q * bb + b.len()) != Some(b));
            changed.for_each(|(q, _)| push(base + q as u64));
        }
        // The bytes of the group's block at `p`, straight from the
        // caller's buffers (no per-block staging copy), and of entry `i`.
        let own = |p: u64| {
            let s = (p / sb) as usize - first;
            let new = &ctxs[s].as_ref()[image_len(lens[s])..];
            let at = (p % sb) as usize * bb;
            &new[at..(at + bb).min(new.len())]
        };
        let (held, bytes) = (&self.held, &self.bytes);
        let block = |i: usize, p: u64| match held.get(i) {
            Some(&(_, n)) => &bytes[i * bb..][..n],
            None => own(p),
        };
        // Fewer than D drives at the busiest count `m`: hold back the
        // last block on each of them, and the list costs `m − 1`.
        let m = per.iter().map(|e| e.0).max().unwrap_or(0);
        let at_m = per.iter().filter(|e| e.0 == m).count();
        let hold = at_m <= self.carry && at_m * bb <= room;
        let per = &*per;
        let back = |&(p, a): &(u64, TrackAddr)| hold && per[a.disk] == (m, p);
        let written = list.iter().enumerate().filter(|&(_, e)| !back(e));
        let written = written.map(|(i, &(p, a))| (a, block(i, p)));
        disks.write_gather_iter(Counted(written, list.len() - if hold { at_m } else { 0 }))?;
        let kept = (blocks - (list.len() - held.len())) as u64;

        // The blocks held back now, in list order: those held before move
        // down in place or stay, the group's own are copied in.
        let old = self.held.len();
        let mut k = 0;
        let held_now = self.list.iter().enumerate().filter(|&(_, e)| back(e));
        for (i, &(p, _)) in held_now.take(if hold { at_m } else { 0 }) {
            let len = if i < old {
                let len = self.held[i].1;
                self.bytes.copy_within(i * bb..i * bb + len, k * bb);
                len
            } else {
                let b = own(p);
                self.bytes[k * bb..][..b.len()].copy_from_slice(b);
                self.carried += 1;
                b.len()
            };
            match self.held.get_mut(k) {
                Some(e) => *e = (p, len),
                None => self.held.push((p, len)),
            }
            k += 1;
        }
        self.held.truncate(k);
        for (len, c) in self.lens[first..].iter_mut().zip(ctxs) {
            *len = c.as_ref().len() - image_len(*len);
        }
        Ok(kept)
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

    /// The stream positions of the blocks of `slots`, as they are now.
    fn blocks(&self, slots: Range<usize>) -> impl Iterator<Item = u64> + '_ {
        slots.flat_map(move |slot| {
            let base = slot as u64 * self.slot_blocks;
            (base..).take(self.len(slot).div_ceil(self.block_bytes))
        })
    }

    /// Append the track addresses a read of `slots` would touch right now
    /// to `addrs` — a prefetch hint for asynchronous backends (never
    /// counted as I/O).
    pub fn read_addrs(&self, slots: Range<usize>, addrs: &mut Vec<TrackAddr>) {
        addrs.extend(self.blocks(slots).map(|p| self.layout.addr(p)));
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
    /// are copied directly from the storage's block views — no
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
        &mut self,
        disks: &mut DiskArray,
        slots: Range<usize>,
    ) -> Result<CtxReadTicket, EmError> {
        let mut t = self.read_plan(slots, 0..0, &[]);
        t.ticket = disks.read_gather_submit(&t.addrs)?;
        Ok(t)
    }

    /// The read of contexts `slots` as they are now, not yet submitted,
    /// to go in one list with `tail` (the group's inbox): the blocks the
    /// previous list did not fetch, then the read fill's blocks of the
    /// `next` group (module docs). Its address list is `t.addrs`, its
    /// ticket `t.ticket` once submitted. Plans must follow the groups'
    /// order, and so must their finishes.
    pub(crate) fn read_plan(
        &mut self,
        slots: Range<usize>,
        next: Range<usize>,
        tail: &[TrackAddr],
    ) -> CtxReadTicket {
        let (mut lens, mut addrs) = (self.len_lists.take(), self.addr_lists.take());
        let (layout, bb, sb) = (self.layout, self.block_bytes, self.slot_blocks);
        // The blocks the previous list did not fetch, counted per drive.
        let per = &mut self.per_drive;
        per.fill((0, 0));
        let mut early = 0;
        for slot in slots.clone() {
            let len = self.lens[slot];
            lens.push(len);
            let base = slot as u64 * sb;
            for p in base..base + len.div_ceil(bb) as u64 {
                if self.fetched.get(early) == Some(&p) {
                    early += 1;
                    continue;
                }
                let a = layout.addr(p);
                per[a.disk].0 += 1;
                addrs.push(a);
            }
        }
        debug_assert_eq!(early, self.fetched.len(), "the read fill took blocks of another group");
        self.fetched.clear();
        if self.carry > 0 && !next.is_empty() {
            tail.iter().for_each(|a| per[a.disk].0 += 1);
            let m = per.iter().map(|e| e.0).max().unwrap_or(0);
            // Room below the busiest count, or none to fill.
            let room = per.iter().map(|e| m - e.0).sum::<usize>();
            let carry = self.carry.min(room);
            let lens = &self.lens;
            let mut next_blocks = next.flat_map(|slot| {
                let base = slot as u64 * sb;
                base..base + lens[slot].div_ceil(bb) as u64
            });
            while self.fetched.len() < carry {
                let Some(p) = next_blocks.next() else { break };
                let a = layout.addr(p);
                if per[a.disk].0 < m {
                    per[a.disk].0 += 1;
                    self.fetched.push(p);
                    addrs.push(a);
                }
            }
            self.preread += self.fetched.len() as u64;
        }
        CtxReadTicket { first: slots.start, lens, fill: self.fetched.len(), addrs, ticket: 0 }
    }

    /// Complete a read begun with [`Self::read_submit`], filling
    /// `outs[i]` (cleared first) with exactly the bytes last written to
    /// the `i`-th slot read — from the disks, or from the stash of
    /// blocks an earlier list fetched — and stashing the blocks the
    /// read fetched for the next group. Charges nothing — the submit
    /// already did — unless the stash was given up: then its blocks are
    /// read first, as one list.
    pub fn read_finish(
        &mut self,
        disks: &mut DiskArray,
        t: CtxReadTicket,
        outs: &mut [Vec<u8>],
    ) -> Result<(), EmError> {
        let (bb, sb, layout) = (self.block_bytes, self.slot_blocks, self.layout);
        let (stash, stash_bytes) = (&mut self.stash, &mut self.bytes[self.carry * bb..]);
        if std::mem::take(&mut self.dropped) {
            let mut addrs = self.addr_lists.take();
            addrs.extend(stash.iter().map(|&p| layout.addr(p)));
            disks.read_gather_with(&addrs, &mut |i, b| {
                let b = &b[..b.len().min(bb)];
                stash_bytes[i * bb..][..b.len()].copy_from_slice(b);
            })?;
            self.addr_lists.give(addrs);
        }
        for (out, &len) in outs.iter_mut().zip(&t.lens) {
            out.clear();
            out.reserve(len.div_ceil(bb) * bb);
        }
        // The slots' blocks arrive in request order, slot by slot, and a
        // stashed one is copied in when its turn comes: `left` blocks of
        // `outs[slot - 1]` are still to come, `taken` stashed ones are in.
        let (mut slot, mut left, mut taken) = (0usize, 0usize, 0usize);
        // Copy in the stashed blocks up to the next one that arrives, and
        // return its slot (`None`: the slots are whole).
        let mut next = |outs: &mut [Vec<u8>], stash: &[u64], bytes: &[u8]| loop {
            while left == 0 {
                if slot == t.lens.len() {
                    assert_eq!(taken, stash.len(), "a stashed block of another group");
                    return None;
                }
                left = t.lens[slot].div_ceil(bb);
                slot += 1;
            }
            left -= 1;
            let q = t.lens[slot - 1].div_ceil(bb) - 1 - left;
            let p = (t.first + slot - 1) as u64 * sb + q as u64;
            if stash.get(taken) != Some(&p) {
                return Some(slot - 1);
            }
            outs[slot - 1].extend_from_slice(&bytes[taken * bb..][..bb]);
            taken += 1;
        };
        let own = t.addrs.len() - t.fill;
        let mut filling = false;
        disks.read_gather_finish(t.ticket, &t.addrs, &mut |i, b| {
            if i < own {
                let slot = next(outs, stash, stash_bytes).expect("a block past the slots read");
                outs[slot].extend_from_slice(b);
                return;
            }
            if !filling {
                // The slots are whole: the stash is free for the fill.
                let rest = next(outs, stash, stash_bytes);
                debug_assert!(rest.is_none(), "a block of the slots is missing");
                filling = true;
                stash.clear();
            }
            let b = &b[..b.len().min(bb)];
            stash_bytes[stash.len() * bb..][..b.len()].copy_from_slice(b);
            stash.push(layout.position(t.addrs[i]));
        })?;
        if !filling {
            let rest = next(outs, stash, stash_bytes);
            debug_assert!(rest.is_none(), "a block of the slots is missing");
            stash.clear();
        }
        for (out, &len) in outs.iter_mut().zip(&t.lens) {
            out.truncate(len);
        }
        self.len_lists.give(t.lens);
        self.addr_lists.give(t.addrs);
        Ok(())
    }
}

/// An iterator of `.1` items that says so: the recycled list it extends
/// then grows in one step, however it was filtered.
struct Counted<I>(I, usize);

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.0.next()?;
        self.1 -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.1, Some(self.1))
    }
}

/// Completion handle for an in-flight context read (see
/// [`ContextStore::read_submit`]). Captures the slots' addresses and
/// encoded lengths at submit time, so the finish decodes exactly the
/// bytes that were current when the read was issued.
pub struct CtxReadTicket {
    /// First slot read, and each slot's length.
    first: usize,
    lens: Vec<usize>,
    /// The blocks read: the slots' own, then the last `fill`, which the
    /// read fill took of the next group's.
    fill: usize,
    pub(crate) addrs: Vec<TrackAddr>,
    pub(crate) ticket: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_pdm::DiskGeometry;
    use proptest::prelude::*;

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

    /// Rewrite slots `0..` of a store holding `images` (B = 8) with
    /// `news`, placed after the images as step (e) does when `imaged`.
    /// Returns the blocks kept and written; each slot must read back as
    /// its new encoding.
    fn rewrite(images: &[Vec<u8>], news: &[Vec<u8>], imaged: bool) -> (u64, u64) {
        let mut disks = DiskArray::new(DiskGeometry::new(2, 8));
        let mut store = ContextStore::new(2, 8, 0, images.len(), 64);
        store.write_slots(&mut disks, 0, images, false, 0).unwrap();
        let bufs: Vec<Vec<u8>> = match imaged {
            true => images.iter().zip(news).map(|(i, n)| [&i[..], n].concat()).collect(),
            false => news.to_vec(),
        };
        let before = disks.stats().blocks_written;
        let kept = store.write_slots(&mut disks, 0, &bufs, imaged, 0).unwrap();
        let written = disks.stats().blocks_written - before;
        for (slot, n) in news.iter().enumerate() {
            assert_eq!(&store.read(&mut disks, slot).unwrap(), n, "slot {slot}");
        }
        (kept, written)
    }

    #[test]
    fn rewrite_writes_only_the_blocks_that_differ() {
        let image: Vec<u8> = (0..40).collect();
        let mut one_byte = image.clone();
        one_byte[17] = 99;
        let one = |new: Vec<u8>, imaged| rewrite(std::slice::from_ref(&image), &[new], imaged);
        // Identical: all five blocks kept.
        assert_eq!(one(image.clone(), true), (5, 0));
        // Shrunk to a prefix: its three blocks hold the right bytes.
        assert_eq!(one(image[..20].to_vec(), true), (3, 0));
        // Grown: the two blocks past the image's end are written.
        assert_eq!(one((0..50).collect(), true), (5, 2));
        // One changed byte: its block only.
        assert_eq!(one(one_byte.clone(), true), (4, 1));
        // No image: every block is written.
        assert_eq!(one(image.clone(), false), (0, 5));
        // A group: each slot is compared with its own image.
        let images = [image.clone(), vec![7; 24], image.clone()];
        let news = [image.clone(), vec![7; 30], one_byte];
        assert_eq!(rewrite(&images, &news, true), (5 + 3 + 4, 1 + 1));
    }

    /// One superstep of the executor's context traffic over slots
    /// `0..olds.len()` in groups of `k`. Group `g`'s read list is its
    /// blocks the previous list did not fetch, its read fill and its
    /// inbox `tails[g]`; its write list rewrites each slot from its image
    /// (`olds`) to `news` behind what earlier lists held back. Checks
    /// that every context reads back exactly as `olds`, that a carry
    /// never holds `D` blocks, and that nothing is held or stashed at
    /// the barrier; returns the operations of the read lists and of the
    /// write lists. With `give_way`, the carries give way after each
    /// group's read.
    fn superstep(
        store: &mut ContextStore,
        disks: &mut DiskArray,
        k: usize,
        (olds, news): (&[Vec<u8>], &[Vec<u8>]),
        tails: &[Vec<TrackAddr>],
        give_way: bool,
    ) -> (u64, u64) {
        let (n, d) = (olds.len(), disks.geometry().num_disks);
        let groups: Vec<Range<usize>> = (0..n).step_by(k).map(|s| s..(s + k).min(n)).collect();
        let (mut reads, mut writes) = (0, 0);
        for (g, slots) in groups.iter().enumerate() {
            let next = groups.get(g + 1).cloned().unwrap_or(n..n);
            let mut t = store.read_plan(slots.clone(), next, &tails[g]);
            let ops0 = disks.stats().total_ops();
            let ([c, i], _) = disks.read_gather_submit_pair(&t.addrs, &tails[g]).unwrap();
            disks.read_gather_finish(i, &tails[g], &mut |_, _| {}).unwrap();
            t.ticket = c;
            let mut bufs = vec![Vec::new(); slots.len()];
            store.read_finish(disks, t, &mut bufs).unwrap();
            reads += disks.stats().total_ops() - ops0;
            assert_eq!(bufs, olds[slots.clone()], "group {g} read back");
            assert!(store.stash.len() < d && store.held.len() < d, "a carry of D blocks");
            for (buf, new) in bufs.iter_mut().zip(&news[slots.clone()]) {
                buf.extend_from_slice(new);
            }
            let ops0 = disks.stats().total_ops();
            if give_way {
                store.give_way(disks).unwrap();
                assert_eq!(store.carried_bytes(), 0, "group {g} gave way");
            }
            let room = if slots.end < n { usize::MAX } else { 0 };
            store.write_slots(disks, slots.start, &bufs, true, room).unwrap();
            writes += disks.stats().total_ops() - ops0;
            assert!(store.held.len() < d, "a carry of {} blocks", store.held.len());
        }
        let ops0 = disks.stats().total_ops();
        store.write_held(disks).unwrap();
        writes += disks.stats().total_ops() - ops0;
        assert_eq!(store.carried_bytes(), 0, "held or stashed at the barrier");
        assert!(!store.dropped, "a stash given up past the superstep");
        assert!(store.fetched.is_empty(), "a read fill planned past the superstep");
        (reads, writes)
    }

    /// What a superstep costs without the carries: per group, its read
    /// list (its blocks and its inbox) and its write list (the blocks
    /// that differ from the image) cost their busiest drive's count —
    /// computed from the stream layout alone, not by the store.
    fn group_lists(
        (d, bb, sb): (usize, usize, usize),
        k: usize,
        (olds, news): (&[Vec<u8>], &[Vec<u8>]),
        tails: &[Vec<TrackAddr>],
    ) -> (u64, u64) {
        let most = |drives: &mut dyn Iterator<Item = usize>| {
            let mut per = vec![0u64; d];
            drives.for_each(|x| per[x] += 1);
            per.into_iter().max().unwrap_or(0)
        };
        let drive = |slot: usize, q: usize| (slot * sb + q) % d;
        let (mut reads, mut writes) = (0, 0);
        for (g, first) in (0..olds.len()).step_by(k).enumerate() {
            let slots = first..(first + k).min(olds.len());
            let own = slots
                .clone()
                .flat_map(|s| (0..olds[s].len().div_ceil(bb)).map(move |q| drive(s, q)));
            reads += most(&mut own.chain(tails[g].iter().map(|a| a.disk)));
            let changed = slots.flat_map(|s| {
                let (old, new) = (&olds[s], &news[s]);
                let differs =
                    move |&(q, b): &(usize, &[u8])| old.get(q * bb..q * bb + b.len()) != Some(b);
                new.chunks(bb).enumerate().filter(differs).map(move |(q, _)| drive(s, q))
            });
            writes += most(&mut changed.collect::<Vec<_>>().into_iter());
        }
        (reads, writes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over random slot lengths, edits, inboxes, group sizes and
        /// `D ∈ 1..=5`, a superstep's context reads and writes cost at
        /// most what each group's own lists cost, and exactly that at
        /// `D = 1`. When the carries give way at every group, the writes
        /// still do, and the reads cost at most one operation more per
        /// block the fill stashed.
        /// Every context, shrunk ones included, reads back byte-exact
        /// after every superstep.
        #[test]
        fn carries_never_cost_more_than_each_groups_own_lists(
            d in 1usize..6,
            k in 1usize..5,
            n in 1usize..13,
            seed in any::<u64>(),
            give_way in any::<bool>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (bb, cap) = (8usize, 48usize);
            let mut disks = DiskArray::new(DiskGeometry::new(d, bb));
            let mut store = ContextStore::new(d, bb, 0, n, cap).with_carry(d - 1);
            let inbox_track = store.total_tracks();
            let bytes = |rng: &mut rand::rngs::StdRng, len: usize| -> Vec<u8> {
                (0..len).map(|_| rng.gen_range(0u8..4)).collect()
            };
            let mut olds: Vec<Vec<u8>> = (0..n).map(|_| {
                let len = rng.gen_range(0..=cap);
                bytes(&mut rng, len)
            }).collect();
            store.write_slots(&mut disks, 0, &olds, false, 0).unwrap();
            for _ in 0..3 {
                // Keep a prefix, change a few bytes, grow or shrink.
                let news: Vec<Vec<u8>> = olds.iter().map(|old| {
                    let len = rng.gen_range(0..=cap);
                    let mut new: Vec<u8> = old.iter().copied().take(len).collect();
                    let more = bytes(&mut rng, len - new.len());
                    new.extend(more);
                    for _ in 0..rng.gen_range(0usize..3) {
                        if !new.is_empty() {
                            let at = rng.gen_range(0..new.len());
                            new[at] ^= 1;
                        }
                    }
                    new
                }).collect();
                let tails: Vec<Vec<TrackAddr>> = (0..n.div_ceil(k)).map(|_| {
                    (0..rng.gen_range(0usize..4))
                        .map(|_| TrackAddr { disk: rng.gen_range(0..d), track: inbox_track })
                        .collect()
                }).collect();
                let preread = store.carry_counts().1;
                let got = superstep(&mut store, &mut disks, k, (&olds, &news), &tails, give_way);
                let sb = cap.div_ceil(bb);
                let bound = group_lists((d, bb, sb), k, (&olds, &news), &tails);
                // A stashed block that gave way is read again.
                let reread = if give_way { store.carry_counts().1 - preread } else { 0 };
                prop_assert!(got.0 <= bound.0 + reread && got.1 <= bound.1, "D={d} k={k}: {got:?} > {bound:?}");
                if d == 1 {
                    prop_assert_eq!(got, bound);
                }
                olds = news;
            }
            for (slot, old) in olds.iter().enumerate() {
                prop_assert_eq!(&store.read(&mut disks, slot).unwrap(), old);
            }
        }
    }

    #[test]
    fn carries_fire_and_hold_fewer_than_d_blocks() {
        // Six one-block contexts at D = 4 (block `j` on drive `j mod 4`),
        // groups of one, no inboxes.
        let (d, bb, n) = (4, 8, 6);
        let mut disks = DiskArray::new(DiskGeometry::new(d, bb));
        let mut store = ContextStore::new(d, bb, 0, n, bb).with_carry(d - 1);
        let olds: Vec<Vec<u8>> = (0..n as u8).map(|i| vec![i; 5]).collect();
        store.write_slots(&mut disks, 0, &olds, false, 0).unwrap();
        let news: Vec<Vec<u8>> = (0..n as u8).map(|i| vec![i + 10; 3]).collect();
        let tails = vec![Vec::new(); n];
        let (reads, writes) = superstep(&mut store, &mut disks, 1, (&olds, &news), &tails, false);
        // Without carries: six lists of one block each way.
        assert_eq!(group_lists((d, bb, 1), 1, (&olds, &news), &tails), (6, 6));
        // Reads: groups 0, 2 and 4 each take the next group's block onto
        // an idle drive, and the groups after them read nothing.
        assert_eq!(reads, 3);
        // Writes: slots 0–2 are held back until slot 3 completes the
        // stripe; slot 4 is held for the last list, which holds nothing.
        assert_eq!(writes, 2);
        assert_eq!(store.carry_counts(), (4, 3));
        for (slot, new) in news.iter().enumerate() {
            assert_eq!(&store.read(&mut disks, slot).unwrap(), new);
        }
        // No room for a carry: the lists are each group's own.
        let mut store = ContextStore::new(d, bb, 0, n, bb);
        store.write_slots(&mut disks, 0, &news, false, 0).unwrap();
        let got = superstep(&mut store, &mut disks, 1, (&news, &olds), &tails, false);
        assert_eq!(got, (6, 6));
        assert_eq!(store.carry_counts(), (0, 0));
    }

    #[test]
    fn carries_that_give_way_cost_what_no_carries_do() {
        // The layout of `carries_fire_and_hold_fewer_than_d_blocks`, but
        // the carries give way after every group's read: each held block
        // is written by the next group, each stashed one read by its own
        // group, a list of one block each.
        let (d, bb, n) = (4, 8, 6);
        let mut disks = DiskArray::new(DiskGeometry::new(d, bb));
        let mut store = ContextStore::new(d, bb, 0, n, bb).with_carry(d - 1);
        let olds: Vec<Vec<u8>> = (0..n as u8).map(|i| vec![i; 5]).collect();
        store.write_slots(&mut disks, 0, &olds, false, 0).unwrap();
        let news: Vec<Vec<u8>> = (0..n as u8).map(|i| vec![i + 10; 3]).collect();
        let tails = vec![Vec::new(); n];
        let got = superstep(&mut store, &mut disks, 1, (&olds, &news), &tails, true);
        assert_eq!(got, (6, 6));
        assert_eq!(store.carry_counts(), (5, 3));
        for (slot, new) in news.iter().enumerate() {
            assert_eq!(&store.read(&mut disks, slot).unwrap(), new);
        }
    }

    #[test]
    fn a_list_holds_back_only_what_its_room_takes() {
        // Slot 0's one block on drive 0 of 4: held back with a block of
        // room, written with less.
        let (d, bb) = (4, 8);
        let mut disks = DiskArray::new(DiskGeometry::new(d, bb));
        let mut store = ContextStore::new(d, bb, 0, 2, bb).with_carry(d - 1);
        store.write_slots(&mut disks, 0, &[[1u8; 8]], false, bb - 1).unwrap();
        assert_eq!((disks.stats().write_ops, store.carried_bytes()), (1, 0));
        store.write_slots(&mut disks, 0, &[[2u8; 8]], false, bb).unwrap();
        assert_eq!((disks.stats().write_ops, store.carried_bytes()), (1, bb));
        store.write_held(&mut disks).unwrap();
        assert_eq!(store.read(&mut disks, 0).unwrap(), [2; 8]);
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
        let mut other = ContextStore::new(2, 8, 0, 6, 32);
        other.set_lens_rle(&rle).unwrap();
        assert_eq!(other.lens_rle(), rle);
        // Wrong slot count and over-capacity lengths are rejected.
        assert!(other.set_lens_rle(&[(5, 0)]).is_err());
        assert!(other.set_lens_rle(&[(6, 999)]).is_err());
    }
}
