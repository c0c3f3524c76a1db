//! Context swapping — steps (a) and (e) of Algorithm 2.
//!
//! The contexts of the virtual processors are stored in fixed-size slots
//! in one *consecutive-format* stream: block `q` of the stream lives on
//! disk `q mod D`, so reading or writing any context (a contiguous block
//! range) is a sequence of fully parallel I/O operations. This is the
//! paper's deterministic context distribution: "we split the context
//! `V_j` into blocks of size `B` and store the `i`-th block of `V_j` on
//! disk `(i + j·(μ/B)) mod D`".

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
    /// Address and length lists of read tickets, recycled at finish.
    addr_lists: FreeList<TrackAddr>,
    len_lists: FreeList<usize>,
}

impl ContextStore {
    /// A store for `count` contexts of up to `cap_bytes` bytes each,
    /// placed at `base_track` of an array with `num_disks` drives.
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
            addr_lists: FreeList::new(),
            len_lists: FreeList::new(),
        }
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
    /// with no image.
    pub fn write(
        &mut self,
        disks: &mut DiskArray,
        slot: usize,
        bytes: &[u8],
    ) -> Result<(), EmError> {
        self.write_slots(disks, slot, &[bytes], false).map(drop)
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
    /// # Panics
    ///
    /// With `imaged`, if a buffer is shorter than its slot's image.
    pub fn write_slots<B: AsRef<[u8]>>(
        &mut self,
        disks: &mut DiskArray,
        first: usize,
        ctxs: &[B],
        imaged: bool,
    ) -> Result<u64, EmError> {
        let (layout, bb, sb, cap) =
            (self.layout, self.block_bytes, self.slot_blocks, self.cap_bytes);
        let lens = &mut self.lens[first..first + ctxs.len()];
        // Each slot's image (empty without one) and new encoding.
        let image_len = |len: usize| if imaged { len } else { 0 };
        let parts =
            || ctxs.iter().zip(lens.iter()).map(|(c, &len)| c.as_ref().split_at(image_len(len)));
        if let Some((i, (_, new))) = parts().enumerate().find(|(_, (_, new))| new.len() > cap) {
            return Err(EmError::CtxSlotOverflow { pid: first + i, len: new.len(), cap });
        }
        // Each block of the new encodings, with the image's bytes at its
        // offset (`None` past the image's end). The gather write reads
        // straight from the caller's buffers: no per-block staging copies.
        let list = || {
            parts().enumerate().flat_map(move |(i, (image, new))| {
                let base = (first + i) as u64 * sb;
                new.chunks(bb).enumerate().map(move |(q, b)| {
                    (layout.addr(base + q as u64), b, image.get(q * bb..q * bb + b.len()))
                })
            })
        };
        let mut kept = 0;
        if imaged {
            let changed = list().filter(|&(_, b, old)| {
                let same = old == Some(b);
                kept += u64::from(same);
                !same
            });
            disks.write_gather_iter(changed.map(|(a, b, _)| (a, b)))?;
        } else {
            // Unfiltered, the list keeps its size hint, so the recycled
            // write list grows in one step.
            disks.write_gather_iter(list().map(|(a, b, _)| (a, b)))?;
        }
        for (len, c) in lens.iter_mut().zip(ctxs) {
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

    /// Rewrite slots `0..` of a store holding `images` (B = 8) with
    /// `news`, placed after the images as step (e) does when `imaged`.
    /// Returns the blocks kept and written; each slot must read back as
    /// its new encoding.
    fn rewrite(images: &[Vec<u8>], news: &[Vec<u8>], imaged: bool) -> (u64, u64) {
        let mut disks = DiskArray::new(DiskGeometry::new(2, 8));
        let mut store = ContextStore::new(2, 8, 0, images.len(), 64);
        store.write_slots(&mut disks, 0, images, false).unwrap();
        let bufs: Vec<Vec<u8>> = match imaged {
            true => images.iter().zip(news).map(|(i, n)| [&i[..], n].concat()).collect(),
            false => news.to_vec(),
        };
        let before = disks.stats().blocks_written;
        let kept = store.write_slots(&mut disks, 0, &bufs, imaged).unwrap();
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
