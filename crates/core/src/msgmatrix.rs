//! The on-disk message store — step (d) of Algorithm 2 — as one packed
//! block stream per destination: its *mailbox*.
//!
//! Message `(i, j)` starts where the previous message to `j` ended, so
//! messages smaller than a block share blocks, and an inbox of `b` bytes
//! is `⌈b/B⌉` blocks however many sources it heard from. Block `b` of
//! mailbox `j` sits on drive `(j + 1 + b) mod D` of `j`'s band (the
//! consecutive format, [`cgmio_pdm::consecutive_addr`]): one inbox, or
//! the inboxes of a group of consecutive destinations, reads round-robin
//! across the drives, and so does each message written. The `+ 1` starts
//! an inbox one drive past where a context of one block over whole
//! stripes ends — the ring's one-block contexts, the sort's — since a
//! group reads its contexts and inboxes as one list.
//!
//! Each destination's *row* lists its messages as `(src, len, offset)`,
//! offsets in items from the start of the mailbox, appended as they are
//! written — in source order at every `p`: the sequential runner
//! simulates its virtual processors in order, and the parallel one sorts
//! a round's arrivals by `(dst, src)`. Checkpoint manifests persist the
//! rows ([`InboxRow`]); rows hold only messages sent, so the table stays
//! small at `v = 10^6`.
//!
//! # Open blocks
//!
//! A write list (one group's outboxes at `p = 1`, a round's arrivals at
//! `p ≥ 2`) writes every block it fills. A block it leaves partly filled
//! stays *open* in a pool for a later list to continue, if its mailbox
//! is among the `hold` lowest-numbered ones with an open block (the
//! caller's bound per list, old blocks and new alike); every other open
//! block is written as it is, and its mailbox resumes at its next block
//! (at the first item boundary there), so no message ever takes more
//! blocks than it would starting a block of its own. The round's last
//! list (`hold = 0`) leaves nothing open, so the matrix is on disk at
//! every barrier.

use std::cell::RefCell;
use std::ops::Range;

use cgmio_pdm::{consecutive_addr, DiskArray, IoError, IoErrorKind, Item, SpanDecoder, TrackAddr};

use crate::pipeline::FreeList;
use crate::EmError;

/// One local destination's messages in write order: `(src, len,
/// offset)` — the items and where they start in the mailbox, in items.
/// The compact form checkpoint manifests persist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InboxRow(pub Vec<(u64, u32, u64)>);

/// A row of `(src, len)` messages packed back to back.
impl FromIterator<(u64, u32)> for InboxRow {
    fn from_iter<I: IntoIterator<Item = (u64, u32)>>(iter: I) -> Self {
        let mut end = 0;
        let packed = iter.into_iter().map(|(src, len)| {
            end += len as u64;
            (src, len, end - len as u64)
        });
        InboxRow(packed.collect())
    }
}

/// What makes an inbox row one no matrix could have written
/// ([`EmError::BadInboxRow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InboxFault {
    /// The source is not a virtual processor (`src ≥ v`).
    Source,
    /// The length is 0 or more than a message slot.
    Length,
    /// Sources or offsets do not ascend.
    Unsorted,
    /// A message starts before the previous one ended.
    Overlap,
    /// A message ends past the destination's band.
    PastBand,
}

/// Blocks one mailbox may span: `v` messages of at most `slot_items`
/// items of `item_bytes`, each spanning at most `⌈(slot + lead)/B⌉`
/// blocks, where `lead` — the bytes before the item boundary a message
/// may start at — is 0 when items divide the block.
pub(crate) fn band_blocks(
    block_bytes: usize,
    v: usize,
    slot_items: usize,
    item_bytes: usize,
) -> u64 {
    let lead = if block_bytes.is_multiple_of(item_bytes) { 0 } else { item_bytes - 1 };
    v as u64 * (slot_items * item_bytes + lead).div_ceil(block_bytes) as u64
}

/// Tracks per drive of a band of `blocks` blocks: at most one more is
/// wasted on its disk offset.
pub(crate) fn band_tracks(num_disks: usize, blocks: u64) -> u64 {
    (blocks + num_disks as u64 - 1).div_ceil(num_disks as u64)
}

/// Pool owner of a free slot.
const FREE: usize = usize::MAX;

/// One superstep's worth of messages on disk, for the destinations local
/// to one real processor.
pub struct MessageMatrix<M: Item> {
    num_disks: usize,
    block_bytes: usize,
    base_track: u64,
    band_blocks: u64,
    slot_items: usize,
    /// Sources addressing this matrix (`v` of the machine).
    v: usize,
    /// First global destination id of band 0 (0 for the sequential
    /// engine; the block start of the owning real processor otherwise).
    dst_base: usize,
    /// Per local destination, its messages `(src, len, offset)`.
    rows: Vec<Vec<(u64, u32, u64)>>,
    /// Per local destination, the pool slot (+ 1) of its open block.
    open: Vec<u32>,
    /// The pool: `block_bytes` per slot, the mailbox of each slot and
    /// the free ones.
    pool: Vec<u8>,
    owner: Vec<usize>,
    free: Vec<u32>,
    /// Scratch of one write list: a run of blocks per mailbox it
    /// touches, and per mailbox its run (+ 1).
    runs: Vec<Run>,
    run_of: Vec<u32>,
    /// Scratch of one write list: the mailboxes with an open block.
    cut: Vec<usize>,
    /// Address, span and block lists of inbox tickets, recycled at
    /// finish.
    addr_lists: FreeList<TrackAddr>,
    span_lists: FreeList<Span>,
    block_lists: FreeList<(usize, u64)>,
    /// The per-message decoders of the last inbox read, restarted by
    /// the next one: their carry buffers are kept.
    decoders: RefCell<Vec<SpanDecoder<M>>>,
}

/// The blocks `first..` one write list fills of a mailbox: messages
/// from item `start` to `end`, staged from byte `stage`.
struct Run {
    j: usize,
    first: u64,
    start: u64,
    end: u64,
    /// Where the next message is encoded (items).
    next: u64,
    stage: usize,
    /// The pool slot (+ 1) of the open block it continues.
    pooled: u32,
}

impl<M: Item> MessageMatrix<M> {
    /// A matrix for `v` sources and `dst_count` local destinations
    /// (global ids `dst_base .. dst_base + dst_count`), messages of at
    /// most `slot_items` items, starting at `base_track`.
    pub fn new(
        num_disks: usize,
        block_bytes: usize,
        base_track: u64,
        v: usize,
        dst_base: usize,
        dst_count: usize,
        slot_items: usize,
    ) -> Self {
        Self {
            num_disks,
            block_bytes,
            base_track,
            band_blocks: band_blocks(block_bytes, v, slot_items, M::SIZE),
            slot_items,
            v,
            dst_base,
            rows: vec![Vec::new(); dst_count],
            open: vec![0; dst_count],
            pool: Vec::new(),
            owner: Vec::new(),
            free: Vec::new(),
            runs: Vec::new(),
            run_of: vec![0; dst_count],
            cut: Vec::new(),
            addr_lists: FreeList::new(),
            span_lists: FreeList::new(),
            block_lists: FreeList::new(),
            decoders: RefCell::new(Vec::new()),
        }
    }

    /// Tracks this matrix occupies per drive.
    pub fn total_tracks(&self) -> u64 {
        band_tracks(self.num_disks, self.band_blocks) * self.rows.len() as u64
    }

    /// Message capacity in items.
    pub fn slot_items(&self) -> usize {
        self.slot_items
    }

    /// Bytes of the open blocks the pool holds.
    pub fn open_bytes(&self) -> usize {
        (self.owner.len() - self.free.len()) * self.block_bytes
    }

    /// Block `b` of the mailbox of local destination `j` (module docs).
    fn addr(&self, j: usize, b: u64) -> TrackAddr {
        let band = self.base_track + j as u64 * band_tracks(self.num_disks, self.band_blocks);
        consecutive_addr(self.num_disks, band, (j + 1) % self.num_disks, b)
    }

    /// Where the next message to local destination `j` would end its
    /// predecessor (items).
    fn end(&self, j: usize) -> u64 {
        self.rows[j].last().map_or(0, |&(_, len, off)| off + len as u64)
    }

    /// The rows in their canonical compact form, one per local
    /// destination — the shape checkpoint manifests persist.
    pub fn sparse_lens(&self) -> Vec<InboxRow> {
        self.rows.iter().map(|r| InboxRow(r.clone())).collect()
    }

    /// Restore the rows from a checkpoint manifest (the form of
    /// [`Self::sparse_lens`]). The mailboxes on disk must match (they do
    /// when the array was flushed at the barrier the manifest
    /// describes); a row no matrix could have written is refused with
    /// [`EmError::BadInboxRow`].
    pub fn set_sparse_lens(&mut self, rows: Vec<InboxRow>) -> Result<(), EmError> {
        if rows.len() != self.rows.len() {
            return Err(EmError::BadConfig(format!(
                "checkpoint inbox table has {} rows, matrix has {}",
                rows.len(),
                self.rows.len()
            )));
        }
        let band_bytes = self.band_blocks * self.block_bytes as u64;
        for (dst, InboxRow(row)) in rows.iter().enumerate() {
            let mut prev: Option<(u64, u64, u64)> = None;
            for &(src, len, off) in row {
                let end = off.saturating_add(len as u64);
                let fault = if src >= self.v as u64 {
                    Some(InboxFault::Source)
                } else if len == 0 || len as usize > self.slot_items {
                    Some(InboxFault::Length)
                } else if prev.is_some_and(|(s, o, _)| src <= s || off < o) {
                    Some(InboxFault::Unsorted)
                } else if prev.is_some_and(|(.., e)| off < e) {
                    Some(InboxFault::Overlap)
                } else if end.checked_mul(M::SIZE as u64).is_none_or(|b| b > band_bytes) {
                    Some(InboxFault::PastBand)
                } else {
                    None
                };
                if let Some(fault) = fault {
                    return Err(EmError::BadInboxRow { dst, src, fault });
                }
                prev = Some((src, off, end));
            }
        }
        self.clear();
        self.rows.iter_mut().zip(rows).for_each(|(r, InboxRow(row))| *r = row);
        Ok(())
    }

    /// Empty every mailbox (ping-pong reuse between supersteps).
    pub fn clear(&mut self) {
        self.rows.iter_mut().for_each(Vec::clear);
        self.open.fill(0);
        self.owner.clear();
        self.free.clear();
    }

    /// Total items received by local destination `dst_local`.
    pub fn received_items(&self, dst_local: usize) -> usize {
        self.rows[dst_local].iter().map(|&(_, len, _)| len as usize).sum()
    }

    /// Largest inbox (total items) over all local destinations — the
    /// `max_received` of a round cost, computed straight off the rows.
    pub fn max_received_items(&self) -> usize {
        (0..self.rows.len()).map(|j| self.received_items(j)).max().unwrap_or(0)
    }

    /// Write a batch of messages in the given order as one gather list,
    /// leaving no block open. Entries use *global* destination ids; each
    /// must be local to this matrix.
    pub fn write_batch(
        &mut self,
        disks: &mut DiskArray,
        entries: &[(usize, usize, &[M])],
    ) -> Result<(), EmError> {
        self.write_entries(disks, entries.iter().copied(), 0)
    }

    /// Write the `(src, dst, items)` entries an iterator yields (it is
    /// walked four times: validate, place, encode, address) as one gather
    /// list, leaving at most `hold` blocks open (module docs). Nothing is
    /// written if a message overflows its slot.
    ///
    /// The list is staged in one pooled buffer, a run of whole blocks per
    /// mailbox it touches, so a steady stream of lists allocates nothing.
    pub fn write_entries<'m>(
        &mut self,
        disks: &mut DiskArray,
        entries: impl Iterator<Item = (usize, usize, &'m [M])> + Clone,
        hold: usize,
    ) -> Result<(), EmError> {
        if let Some((src, dst, items)) = entries.clone().find(|e| e.2.len() > self.slot_items) {
            let (len, slot) = (items.len(), self.slot_items);
            return Err(EmError::MsgSlotOverflow { src, dst, len, slot });
        }
        let (s, bb) = (M::SIZE as u64, self.block_bytes as u64);
        let sent = entries.filter(|e| !e.2.is_empty());
        for (src, dst, items) in sent.clone() {
            let j = dst - self.dst_base;
            if self.run_of[j] == 0 {
                // An open block is continued; a written one is never
                // rewritten, so its mailbox resumes at the next block.
                let (end, pooled) = (self.end(j), std::mem::take(&mut self.open[j]));
                let start = match pooled == 0 && !(end * s).is_multiple_of(bb) {
                    true => ((end * s).div_ceil(bb) * bb).div_ceil(s),
                    false => end,
                };
                let first = start * s / bb;
                self.runs.push(Run { j, first, start, end: start, next: start, stage: 0, pooled });
                self.run_of[j] = self.runs.len() as u32;
            }
            let run = &mut self.runs[self.run_of[j] as usize - 1];
            self.rows[j].push((src as u64, items.len() as u32, run.end));
            run.end += items.len() as u64;
        }
        let last = |r: &Run| (r.end * s - 1) / bb;
        let mut total = 0;
        for run in &mut self.runs {
            run.stage = total;
            total += (last(run) + 1 - run.first) as usize * bb as usize;
        }
        let mut staging = disks.pool().checkout(total);
        for run in &self.runs {
            let head = &mut staging[run.stage..][..(run.start * s - run.first * bb) as usize];
            match (run.pooled as usize).checked_sub(1) {
                None => head.fill(0),
                Some(slot) => {
                    head.copy_from_slice(&self.pool[slot * bb as usize..][..head.len()]);
                    self.owner[slot] = FREE;
                    self.free.push(slot as u32);
                }
            }
        }
        for (_, dst, items) in sent {
            let run = &mut self.runs[self.run_of[dst - self.dst_base] as usize - 1];
            let at = run.stage + (run.next * s - run.first * bb) as usize;
            M::encode_into(items, &mut staging[at..at + items.len() * M::SIZE])
                .expect("staging sized to the list");
            run.next += items.len() as u64;
        }

        // Keep the open blocks of the `hold` lowest mailboxes, old and
        // new alike; write the others as they are.
        let partial = |r: &Run| !(r.end * s).is_multiple_of(bb);
        let open = &mut self.cut;
        open.clear();
        open.extend(self.owner.iter().copied().filter(|&j| j != FREE));
        open.extend(self.runs.iter().filter(|r| partial(r)).map(|r| r.j));
        let cut = if hold < open.len() { *open.select_nth_unstable(hold).1 } else { usize::MAX };
        let this = &*self;
        let flushed = this.owner.iter().enumerate().filter(|&(_, &j)| j != FREE && j >= cut);
        let flushed = flushed.map(|(slot, &j)| {
            let (end, at) = (this.end(j) * s, slot * bb as usize);
            (this.addr(j, end / bb), &this.pool[at..at + (end % bb) as usize])
        });
        let staging = &staging[..];
        let block = move |run: &Run, b: u64| {
            let at = run.stage + ((b - run.first) * bb) as usize;
            &staging[at..at + (run.end * s - b * bb).min(bb) as usize]
        };
        let held = |r: &Run| partial(r) && r.j < cut;
        let written = this.runs.iter().flat_map(|run| {
            let blocks = run.first..last(run) + 1 - held(run) as u64;
            blocks.map(move |b| (this.addr(run.j, b), block(run, b)))
        });
        disks.write_gather_iter(flushed.chain(written))?;

        for (slot, j) in
            self.owner.iter_mut().enumerate().filter(|(_, j)| **j != FREE && **j >= cut)
        {
            (self.open[*j], *j) = (0, FREE);
            self.free.push(slot as u32);
        }
        for run in self.runs.drain(..) {
            self.run_of[run.j] = 0;
            if held(&run) {
                let slot = self.free.pop().map_or(self.owner.len(), |f| f as usize);
                if slot == self.owner.len() {
                    self.owner.push(FREE);
                    self.pool.resize(self.owner.len() * bb as usize, 0);
                }
                let bytes = block(&run, last(&run));
                self.pool[slot * bb as usize..][..bytes.len()].copy_from_slice(bytes);
                self.owner[slot] = run.j;
                self.open[run.j] = slot as u32 + 1;
            }
        }
        Ok(())
    }

    /// List the inboxes of global destinations `dsts` as they are now:
    /// one span per message, and the blocks of each mailbox in order
    /// with the first span each holds bytes of. Each drive's share of
    /// the list ascends in track order.
    fn list(
        &self,
        dsts: Range<usize>,
        spans: &mut Vec<Span>,
        blocks: &mut Vec<(usize, u64)>,
        addrs: &mut Vec<TrackAddr>,
    ) {
        let (s, bb) = (M::SIZE as u64, self.block_bytes as u64);
        for dst in dsts.clone() {
            let (j, mut k) = (dst - self.dst_base, spans.len());
            let row = &self.rows[j];
            spans.extend(row.iter().map(|&(src, len, off)| Span {
                dst: dst - dsts.start,
                src: src as usize,
                n_items: len as usize,
                start: off * s,
            }));
            let Some(&(_, _, off)) = row.first() else { continue };
            for b in off * s / bb..(self.end(j) * s).div_ceil(bb) {
                while spans[k].start + (spans[k].n_items as u64) * s <= b * bb {
                    k += 1;
                }
                blocks.push((k, b));
                addrs.push(self.addr(j, b));
            }
        }
    }

    /// Append the track addresses a read of the inboxes of `dsts` would
    /// touch right now to `addrs` — a prefetch hint for asynchronous
    /// backends (never counted). Its span and block lists are recycled.
    pub fn read_addrs_for_dst(&self, dsts: Range<usize>, addrs: &mut Vec<TrackAddr>) {
        let (mut spans, mut blocks) = (self.span_lists.take(), self.block_lists.take());
        self.list(dsts, &mut spans, &mut blocks, addrs);
        self.span_lists.give(spans);
        self.block_lists.give(blocks);
    }

    /// Read the full inbox of global destination `dst`: `(src, items)`
    /// per *non-empty* source, in source order (step (b) of Algorithm
    /// 2) — the shape [`cgmio_model::Incoming::from_sparse`] consumes.
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

    /// The inbox read of global destinations `dsts` as they are now,
    /// not yet submitted: its address list is `t.addrs`, its ticket
    /// `t.ticket` once submitted.
    pub(crate) fn read_plan(&self, dsts: Range<usize>) -> InboxTicket {
        let (mut addrs, mut spans) = (self.addr_lists.take(), self.span_lists.take());
        let mut blocks = self.block_lists.take();
        self.list(dsts.clone(), &mut spans, &mut blocks, &mut addrs);
        InboxTicket { first: dsts.start, addrs, spans, blocks, ticket: 0 }
    }

    /// Begin an asynchronous read of the inboxes of global destinations
    /// `dsts`: captures their messages and block addresses *as they are
    /// now*, submits one gather read (charged to the cost model now), and
    /// returns the ticket to redeem with [`Self::read_for_dst_finish_into`].
    /// The mailboxes must not be rewritten between the two calls — the
    /// runners guarantee this because the inbox matrix of the current
    /// superstep was fully written (and barrier-flushed) last superstep,
    /// while this superstep's sends go to the other matrix of the
    /// ping-pong pair.
    pub fn read_for_dst_submit(
        &self,
        disks: &mut DiskArray,
        dsts: Range<usize>,
    ) -> Result<InboxTicket, EmError> {
        let mut t = self.read_plan(dsts);
        t.ticket = disks.read_gather_submit(&t.addrs)?;
        Ok(t)
    }

    /// Complete a read begun with [`Self::read_for_dst_submit`]: `outs[i]`
    /// (cleared first) receives the inbox of the `i`-th destination,
    /// `(src, items)` per message in source order. Each block is decoded
    /// straight from the storage's block view into the decoders of the
    /// messages it holds bytes of — no reassembly buffer and, for
    /// in-memory backends, no block copy. Charges nothing — the submit
    /// already did.
    pub fn read_for_dst_finish_into(
        &self,
        disks: &mut DiskArray,
        t: InboxTicket,
        outs: &mut [Vec<(usize, Vec<M>)>],
    ) -> Result<(), EmError> {
        let InboxTicket { first, addrs, spans, blocks, ticket } = t;
        let (s, bb) = (M::SIZE as u64, self.block_bytes as u64);
        outs.iter_mut().for_each(Vec::clear);
        let mut decoders = self.decoders.take();
        decoders.truncate(spans.len());
        decoders.iter_mut().zip(&spans).for_each(|(d, sp)| d.restart(sp.n_items));
        decoders.extend(spans[decoders.len()..].iter().map(|s| SpanDecoder::new(s.n_items)));
        disks.read_gather_finish(ticket, &addrs, &mut |i, block| {
            let (mut k, b) = blocks[i];
            let (lo, dst) = (b * bb, spans[k].dst);
            while let Some(sp) = spans.get(k).filter(|sp| sp.dst == dst && sp.start < lo + bb) {
                let end = (sp.start + sp.n_items as u64 * s - lo).min(block.len() as u64) as usize;
                decoders[k].feed(&block[(sp.start.saturating_sub(lo) as usize).min(end)..end]);
                k += 1;
            }
        })?;
        for (dec, sp) in decoders.iter_mut().zip(&spans) {
            match dec.take() {
                Ok(items) => outs[sp.dst].push((sp.src, items)),
                Err(e) => {
                    let dst = first + sp.dst;
                    let a = self.addr(dst - self.dst_base, sp.start / bb);
                    return Err(EmError::Io(IoError::Fault {
                        kind: IoErrorKind::Corrupt,
                        disk: a.disk,
                        track: a.track,
                        detail: format!("mailbox of dst {dst}, message from src {}: {e}", sp.src),
                    }));
                }
            }
        }
        self.decoders.replace(decoders);
        self.addr_lists.give(addrs);
        self.span_lists.give(spans);
        self.block_lists.give(blocks);
        Ok(())
    }
}

/// One message of an inbox read: `n_items` items from byte `start` of
/// the mailbox of the `dst`-th destination read, sent by `src`.
struct Span {
    dst: usize,
    src: usize,
    n_items: usize,
    start: u64,
}

/// Completion handle for an in-flight inbox read (see
/// [`MessageMatrix::read_for_dst_submit`]). Captures the destinations'
/// messages and block addresses at submit time, so the finish decodes
/// exactly the inboxes that were current when the read was issued.
pub struct InboxTicket {
    /// Global id of the first destination read.
    first: usize,
    pub(crate) addrs: Vec<TrackAddr>,
    /// One per message, by destination, then source.
    spans: Vec<Span>,
    /// Per block of `addrs`: the first span it holds bytes of, and its
    /// index in the mailbox.
    blocks: Vec<(usize, u64)>,
    pub(crate) ticket: u64,
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
    use cgmio_pdm::{DiskGeometry, MemStorage, TrackStorage};

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

    /// Source `src`'s message to `dst` in the traffic of the tests below.
    fn msg(src: usize, dst: usize) -> Vec<u64> {
        (0..(3 * src + dst) as u64 % 7).map(|k| k + 10 * src as u64).collect()
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

    type Inbox = Vec<(usize, Vec<u64>)>;

    /// Write `v` sources' traffic one list per source, each leaving at
    /// most `hold` blocks open (none after the last), and return every
    /// inbox, the rows and each list's operations.
    fn run_lists(hold: usize) -> (Vec<Inbox>, Vec<InboxRow>, Vec<u64>) {
        let (d, bb, v) = (3, 32, 5);
        let (mut disks, mut m) = setup(d, bb, v, 8);
        let mut ops = Vec::new();
        for src in 0..v {
            let msgs: Vec<Vec<u64>> = (0..v).map(|dst| msg(src, dst)).collect();
            let entries = msgs.iter().enumerate().map(|(dst, ms)| (src, dst, ms.as_slice()));
            let ops0 = disks.stats().total_ops();
            m.write_entries(&mut disks, entries, if src + 1 == v { 0 } else { hold }).unwrap();
            ops.push(disks.stats().total_ops() - ops0);
            assert!(m.open_bytes() / bb <= hold, "src={src}: the pool outgrew its hold");
        }
        let inboxes = (0..v).map(|dst| m.read_for_dst(&mut disks, dst).unwrap()).collect();
        (inboxes, m.sparse_lens(), ops)
    }

    #[test]
    fn zero_capacity_pool_is_no_dearer_than_a_block_per_message() {
        // With nothing held, each list writes its partial blocks and the
        // next message to that mailbox starts a block of its own: per
        // list no more than one block per message cost, the same
        // inboxes as a pool that holds everything, and every message
        // starts on a block boundary (4 u64 per block).
        let (d, bb, v) = (3u64, 32u64, 5);
        let (want, packed_rows, packed_ops) = run_lists(usize::MAX);
        let (got, rows, ops) = run_lists(0);
        assert_eq!(got, want);
        let blocks = |src: usize, dst: usize| (msg(src, dst).len() as u64 * 8).div_ceil(bb);
        let mut used = vec![0u64; v];
        for (src, &list) in ops.iter().enumerate() {
            let mut per_drive = vec![0u64; d as usize];
            for dst in 0..v {
                for b in used[dst]..used[dst] + blocks(src, dst) {
                    per_drive[(dst as u64 + 1 + b) as usize % d as usize] += 1;
                }
                used[dst] += blocks(src, dst);
            }
            assert!(list <= *per_drive.iter().max().unwrap(), "src={src}: {list} ops");
        }
        for (dst, (row, packed)) in rows.iter().zip(&packed_rows).enumerate() {
            assert!(row.0.iter().all(|&(_, _, off)| off * 8 % bb == 0), "{row:?}");
            let mut off = 0;
            for &(src, len, at) in &packed.0 {
                assert_eq!((at, len as usize), (off, msg(src as usize, dst).len()), "dst={dst}");
                off += len as u64;
            }
        }
        assert!(packed_ops.iter().sum::<u64>() < ops.iter().sum::<u64>(), "sharing saved nothing");
    }

    #[test]
    fn inbox_read_costs_its_blocks_over_d() {
        // k = 1: a destination's inbox is ⌈blocks/D⌉ operations, however
        // its messages fall on block boundaries.
        let (d, bb, v) = (4, 16, 9);
        let (mut disks, mut m) = setup(d, bb, v, 7);
        for src in 0..v {
            let msgs: Vec<Vec<u64>> = (0..v).map(|dst| msg(src, dst)).collect();
            let entries = msgs.iter().enumerate().map(|(dst, ms)| (src, dst, ms.as_slice()));
            m.write_entries(&mut disks, entries, if src + 1 == v { 0 } else { v }).unwrap();
        }
        for dst in 0..v {
            let blocks = (m.received_items(dst) * 8).div_ceil(bb) as u64;
            let ops0 = disks.stats().read_ops;
            let inbox = m.read_for_dst(&mut disks, dst).unwrap();
            assert_eq!(disks.stats().read_ops - ops0, blocks.div_ceil(d as u64), "dst={dst}");
            let want: Vec<(usize, Vec<u64>)> =
                (0..v).map(|src| (src, msg(src, dst))).filter(|(_, m)| !m.is_empty()).collect();
            assert_eq!(inbox, want, "dst={dst}");
        }
    }

    #[test]
    fn sparse_lens_roundtrips_through_set() {
        let (mut disks, mut m) = setup(2, 16, 4, 4);
        let msg = vec![1u64, 2, 3];
        m.write_batch(&mut disks, &[(0, 1, msg.as_slice()), (2, 1, msg.as_slice())]).unwrap();
        m.write_batch(&mut disks, &[(0, 3, msg.as_slice())]).unwrap();
        let lens = m.sparse_lens();
        assert_eq!(lens[1], InboxRow(vec![(0, 3, 0), (2, 3, 3)]));
        assert_eq!(lens[3], InboxRow(vec![(0, 3, 0)]));
        let mut m2: MessageMatrix<u64> = MessageMatrix::new(2, 16, 0, 4, 0, 4, 4);
        m2.set_sparse_lens(lens.clone()).unwrap();
        assert_eq!(m2.sparse_lens(), lens);
        assert_eq!(m2.read_for_dst(&mut disks, 1).unwrap(), vec![(0, msg.clone()), (2, msg)]);
        // A row no matrix could have written is a typed error.
        let rows = |row: Vec<(u64, u32, u64)>| {
            let mut rows = vec![InboxRow::default(); 4];
            rows[2] = InboxRow(row);
            rows
        };
        // The band holds 4 messages of 4 u64: 8 blocks of 16 bytes.
        for (row, fault) in [
            (vec![(9, 1, 0)], InboxFault::Source),
            (vec![(1, 0, 0)], InboxFault::Length),
            (vec![(1, 5, 0)], InboxFault::Length),
            (vec![(2, 1, 0), (1, 1, 1)], InboxFault::Unsorted),
            (vec![(1, 1, 4), (2, 1, 0)], InboxFault::Unsorted),
            (vec![(1, 2, 0), (2, 1, 1)], InboxFault::Overlap),
            (vec![(1, 4, 13)], InboxFault::PastBand),
            (vec![(1, 4, 2), (2, 4, 13)], InboxFault::PastBand),
            (vec![(1, 4, u64::MAX)], InboxFault::PastBand),
        ] {
            let e = m2.set_sparse_lens(rows(row.clone())).unwrap_err();
            let bad = row.iter().find(|r| r.1 == 0 || r.1 > 4 || r.0 > 3).or(row.last());
            let src = bad.unwrap().0;
            assert_eq!(e, EmError::BadInboxRow { dst: 2, src, fault }, "{row:?}");
        }
        m2.set_sparse_lens(rows(vec![(1, 4, 12)])).unwrap();
        assert!(m2.set_sparse_lens(vec![InboxRow::default(); 3]).is_err());
    }

    #[test]
    fn slot_overflow_rejected() {
        let (mut disks, mut m) = setup(2, 16, 2, 3);
        let big = vec![0u64; 4];
        let e = m.write_batch(&mut disks, &[(0, 1, big.as_slice())]).unwrap_err();
        assert!(matches!(e, EmError::MsgSlotOverflow { src: 0, dst: 1, len: 4, slot: 3 }));
        assert_eq!(disks.stats().total_ops(), 0);
        assert_eq!(m.received_items(1), 0, "a refused list leaves the rows alone");
    }

    #[test]
    fn balanced_writes_are_fully_parallel() {
        // v=4, D=4, every message exactly 2 blocks: each source writes
        // 8 blocks round-robin -> 2 full ops.
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
        // i + 1. Mailbox j starts on drive (j + 1) mod 2, so each group
        // writes mailboxes 2g + 1 and 2g + 2 on both drives, and reads
        // mailboxes 2g and 2g + 1 on both: one operation each.
        let (d, v, k) = (2, 8, 2);
        let mut disks = DiskArray::new(DiskGeometry::new(d, 8));
        let mut m: MessageMatrix<u64> = MessageMatrix::new(d, 8, 0, v, 0, v, 1);
        let msgs: Vec<[u64; 1]> = (0..v as u64).map(|i| [i + 100]).collect();
        for g in 0..v / k {
            let entries: Vec<_> =
                (g * k..(g + 1) * k).map(|i| (i, (i + 1) % v, &msgs[i][..])).collect();
            assert_eq!(disks.stats().write_ops, g as u64);
            m.write_batch(&mut disks, &entries).unwrap();
        }
        assert_eq!(disks.stats().write_ops, (v / k) as u64, "one op per group write");
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
    fn small_messages_share_blocks_across_lists() {
        // Five sources send one u64 each to mailbox 0 in lists of their
        // own, 4 per block: held open, the mailbox is 2 blocks written
        // once each, and read back in one operation at D = 2.
        let (mut disks, mut m) = setup(2, 32, 5, 1);
        for src in 0..5u64 {
            m.write_entries(&mut disks, [(src as usize, 0, &[src][..])].into_iter(), 4).unwrap();
        }
        assert_eq!(disks.stats().blocks_written, 1, "the full block, once");
        assert_eq!(m.open_bytes(), 32);
        m.write_entries(&mut disks, std::iter::empty(), 0).unwrap();
        assert_eq!((disks.stats().blocks_written, m.open_bytes()), (2, 0));
        let row: InboxRow = (0..5).map(|s| (s, 1)).collect();
        assert_eq!(m.sparse_lens()[0], row);
        let ops0 = disks.stats().total_ops();
        let inbox = m.read_for_dst(&mut disks, 0).unwrap();
        assert_eq!(inbox, (0..5).map(|s| (s, vec![s as u64])).collect::<Vec<_>>());
        assert_eq!(disks.stats().total_ops() - ops0, 1);
    }

    /// Memory tracks whose reads come back one byte short: what a torn
    /// block looks like to the decoder.
    struct Truncating(MemStorage);

    impl TrackStorage for Truncating {
        fn read_track(&self, disk: usize, track: u64) -> std::io::Result<Vec<u8>> {
            let mut b = self.0.read_track(disk, track)?;
            b.pop();
            Ok(b)
        }
        fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> std::io::Result<()> {
            self.0.write_track(disk, track, data)
        }
        fn tracks_used(&self) -> Vec<u64> {
            self.0.tracks_used()
        }
    }

    #[test]
    fn corrupt_mailbox_block_names_drive_track_src_and_dst() {
        let geom = DiskGeometry::new(3, 16);
        let mut disks = DiskArray::with_storage(geom, Box::new(Truncating(MemStorage::new(geom))));
        let mut m: MessageMatrix<u64> = MessageMatrix::new(3, 16, 5, 4, 0, 4, 2);
        m.write_batch(&mut disks, &[(1, 2, &[7, 8][..])]).unwrap();
        let a = m.addr(2, 0);
        match m.read_for_dst(&mut disks, 2).unwrap_err() {
            EmError::Io(IoError::Fault { kind: IoErrorKind::Corrupt, disk, track, detail }) => {
                assert_eq!((disk, track), (a.disk, a.track));
                assert_eq!(disk, 0, "mailbox 2 starts on drive (2 + 1) mod 3");
                assert!(detail.contains("dst 2") && detail.contains("src 1"), "{detail}");
            }
            e => panic!("expected a corrupt fault, got {e:?}"),
        }
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
        assert!(inbox.is_empty(), "cleared matrix has no messages");
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
        // Rows hold only messages sent: a million sources cost nothing
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
