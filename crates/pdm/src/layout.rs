//! The paper's *consecutive* and *staggered* disk formats (Section 2.1,
//! Figure 2 and the appendix of the paper) as pure address arithmetic.
//!
//! Both formats place a logical stream of blocks onto the `D` drives in
//! round-robin order starting from some *disk offset*. The runners store
//! contexts as one consecutive stream from disk 0, and each
//! destination's messages as a consecutive stream of its own — a
//! *mailbox*, band `j` at disk offset `j mod D` — so reading any run of
//! blocks of one stream uses all `D` disks. The fixed-slot staggered
//! matrix of Figure 2 ([`MessageMatrixLayout`]) additionally makes
//! **writers (iterating over destinations) and readers (iterating over
//! sources) both see a perfect round-robin disk sequence**; it is kept
//! for the Figure 2 ablation.

use crate::disk::TrackAddr;

/// The consecutive format of the paper:
/// the `q`-th block of a stream is placed on disk `(d + q) mod D`, track
/// `T0 + (d + q) / D`, where `T0` is the base track and `d` the disk
/// offset of the stream's first block.
pub fn consecutive_addr(
    num_disks: usize,
    base_track: u64,
    disk_offset: usize,
    q: u64,
) -> TrackAddr {
    let idx = disk_offset as u64 + q;
    TrackAddr {
        disk: (idx % num_disks as u64) as usize,
        track: base_track + idx / num_disks as u64,
    }
}

/// A consecutive-format region of the disk array: a logical stream of
/// blocks striped round-robin across all drives starting at `base_track`,
/// disk 0.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// Number of drives in the array.
    pub num_disks: usize,
    /// First track of the region (same on every drive).
    pub base_track: u64,
}

impl Layout {
    /// Address of the `q`-th block of the stream.
    pub fn addr(&self, q: u64) -> TrackAddr {
        consecutive_addr(self.num_disks, self.base_track, 0, q)
    }

    /// The block of the stream at `a`: the inverse of [`Self::addr`].
    pub fn position(&self, a: TrackAddr) -> u64 {
        (a.track - self.base_track) * self.num_disks as u64 + a.disk as u64
    }

    /// Tracks consumed per drive by an `nblocks`-block stream.
    pub fn tracks_for(&self, nblocks: u64) -> u64 {
        nblocks.div_ceil(self.num_disks as u64)
    }
}

/// The paper's **message matrix** (appendix, "Details of Step (d)" and
/// Figure 2), in block-major order: the fixed-slot format the Figure 2
/// ablation measures. (The runners pack each destination's messages
/// into one block stream instead — `cgmio_core::msgmatrix`.)
///
/// All `v × v` messages of one superstep, each in a slot of exactly
/// `blocks_per_msg = b′` blocks, are stored in `v` *destination bands*.
/// Band `j` starts at track `base_track + j · tracks_per_band` and is
/// staggered by disk offset `d_j = j mod D`. Within band `j`, block `q`
/// of `msg(i,j)` sits at position `g = q·s + i` — the `q`-th blocks of
/// all the band's messages form *stripe* `q`, `s` positions apart, where
/// the stride `s ≥ v` is the smallest with `s ≡ 1 (mod D)` — and its
/// address is disk `(d_j + g) mod D = (j + q + i) mod D`, track
/// `T_j + (d_j + g) / D`. At `b′ = 1` there is one stripe and this is
/// Figure 2 address for address.
///
/// Three round-robin properties follow (tested below):
///
/// * a **writer** (virtual processor `i`) emitting stripe `q` of its
///   messages in destination order `j = 0, 1, …` advances by exactly
///   one disk per block,
/// * a **reader** (virtual processor `j`) consuming stripe `q` of its
///   band in source order also advances by one disk per block, and
/// * the blocks of any one message advance by one disk per block (the
///   stride's `≡ 1`; with `s = v` and `D | v` they would all share a
///   drive, and one large message would cost a parallel I/O per block).
#[derive(Debug, Clone, Copy)]
pub struct MessageMatrixLayout {
    /// Number of drives.
    pub num_disks: usize,
    /// Number of virtual processors `v` (so the matrix is `v × v`).
    pub v: usize,
    /// Fixed message size in blocks (`b′ = ⌈b/B⌉`).
    pub blocks_per_msg: u64,
    /// First track of the matrix.
    pub base_track: u64,
}

impl MessageMatrixLayout {
    /// Positions between the starts of consecutive stripes: the
    /// smallest `s ≥ v` with `s ≡ 1 (mod D)`.
    pub fn stripe_stride(&self) -> u64 {
        let (v, d) = (self.v as u64, self.num_disks as u64);
        v + (1 + d - v % d) % d
    }

    /// Tracks reserved per destination band: `b′ − 1` strides and the
    /// last stripe. The `+ (D − 1)` term wastes at most one track per
    /// band, paying for the band's disk offset — the paper's "at most
    /// one track is wasted for each virtual processor" (the stride adds
    /// fewer than `D` positions per stripe).
    pub fn tracks_per_band(&self) -> u64 {
        let positions = (self.blocks_per_msg - 1) * self.stripe_stride() + self.v as u64;
        (positions + self.num_disks as u64 - 1).div_ceil(self.num_disks as u64)
    }

    /// Total tracks occupied by the matrix on each drive.
    pub fn total_tracks(&self) -> u64 {
        self.tracks_per_band() * self.v as u64
    }

    /// Address of block `q` of the message from `src` to `dst`.
    pub fn addr(&self, src: usize, dst: usize, q: u64) -> TrackAddr {
        debug_assert!(src < self.v && dst < self.v && q < self.blocks_per_msg);
        let band_track = self.base_track + dst as u64 * self.tracks_per_band();
        let g = q * self.stripe_stride() + src as u64;
        consecutive_addr(self.num_disks, band_track, dst % self.num_disks, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn consecutive_wraps_disks() {
        // D = 3, offset 2: blocks land on disks 2,0,1,2,... tracks 0,1,1,1,2...
        let a: Vec<TrackAddr> = (0..5).map(|q| consecutive_addr(3, 10, 2, q)).collect();
        assert_eq!(a[0], TrackAddr::new(2, 10));
        assert_eq!(a[1], TrackAddr::new(0, 11));
        assert_eq!(a[2], TrackAddr::new(1, 11));
        assert_eq!(a[3], TrackAddr::new(2, 11));
        assert_eq!(a[4], TrackAddr::new(0, 12));
    }

    fn round_robin(addrs: &[TrackAddr], d: usize) -> bool {
        addrs.windows(2).all(|w| w[1].disk == (w[0].disk + 1) % d)
    }

    /// Every stripe of `order` (`v` blocks each) is round-robin.
    fn stripes_round_robin(order: impl Iterator<Item = TrackAddr>, v: usize, d: usize) -> bool {
        let addrs: Vec<_> = order.collect();
        addrs.chunks(v).all(|stripe| round_robin(stripe, d))
    }

    impl MessageMatrixLayout {
        /// The block addresses written by source `src` when every
        /// message fills its slot, stripe by stripe (destinations in
        /// order within each stripe).
        fn write_order_for_src(&self, src: usize) -> impl Iterator<Item = TrackAddr> {
            let m = *self;
            (0..m.blocks_per_msg).flat_map(move |q| (0..m.v).map(move |j| m.addr(src, j, q)))
        }

        /// The block addresses read by destination `dst`, stripe by
        /// stripe (sources in order within each stripe).
        fn read_order_for_dst(&self, dst: usize) -> impl Iterator<Item = TrackAddr> {
            let m = *self;
            (0..m.blocks_per_msg).flat_map(move |q| (0..m.v).map(move |i| m.addr(i, dst, q)))
        }
    }

    fn matrix(d: usize, v: usize, bpm: u64, base: u64) -> MessageMatrixLayout {
        MessageMatrixLayout { num_disks: d, v, blocks_per_msg: bpm, base_track: base }
    }

    /// Every machine shape the placement tests sweep: `(D, b′, v)`.
    fn shapes() -> impl Iterator<Item = (usize, u64, usize)> {
        let ds = [1usize, 2, 3, 4, 5, 8];
        ds.into_iter().flat_map(|d| {
            [1u64, 2, 3, 7].into_iter().flat_map(move |b| [5usize, 6, 16].map(|v| (d, b, v)))
        })
    }

    #[test]
    fn writer_sequences_are_round_robin() {
        for (d, bpm, v) in shapes() {
            let m = matrix(d, v, bpm, 4);
            for src in 0..v {
                let ok = stripes_round_robin(m.write_order_for_src(src), v, d);
                assert!(ok, "D={d} b'={bpm} v={v} src={src}");
            }
        }
    }

    #[test]
    fn reader_sequences_are_round_robin() {
        for (d, bpm, v) in shapes() {
            let m = matrix(d, v, bpm, 0);
            for dst in 0..v {
                let ok = stripes_round_robin(m.read_order_for_dst(dst), v, d);
                assert!(ok, "D={d} b'={bpm} v={v} dst={dst}");
            }
        }
    }

    #[test]
    fn one_block_slots_are_figure_2() {
        // b' = 1: msg(i, j) at position i of band j, band offset j mod D.
        let m = matrix(3, 5, 1, 2);
        for (i, j) in (0..5).flat_map(|i| (0..5).map(move |j| (i, j))) {
            let want = consecutive_addr(3, 2 + j as u64 * m.tracks_per_band(), j % 3, i as u64);
            assert_eq!(m.addr(i, j, 0), want, "msg({i},{j})");
        }
    }

    #[test]
    fn all_blocks_have_distinct_addresses() {
        // Over every (src, dst, q) of a matrix: distinct, block q of
        // msg(i, j) on drive (i + j + q) mod D, within `total_tracks`.
        for (d, bpm, v) in shapes() {
            let base = 7;
            let m = matrix(d, v, bpm, base);
            let mut seen = HashSet::new();
            let slots = (0..v).flat_map(|i| (0..v).map(move |j| (i, j)));
            for (i, j, q) in slots.flat_map(|(i, j)| (0..bpm).map(move |q| (i, j, q))) {
                let g = q * m.stripe_stride() + i as u64;
                let want = consecutive_addr(d, base + j as u64 * m.tracks_per_band(), j % d, g);
                let a = m.addr(i, j, q);
                let tag = format!("D={d} b'={bpm} v={v} msg({i},{j}) q={q}");
                assert_eq!(a, want, "{tag}");
                assert_eq!(a.disk, (i + j + q as usize) % d, "{tag}");
                assert!((base..base + m.total_tracks()).contains(&a.track), "{tag}");
                assert!(seen.insert(a), "{tag} collides");
            }
        }
    }

    #[test]
    fn a_message_advances_one_drive_per_block() {
        for (d, v) in [(4usize, 16usize), (4, 6), (3, 9), (8, 32), (1, 5)] {
            let m = matrix(d, v, 9, 0);
            for (i, j) in [(0, 0), (3, 1), (v - 1, v - 2)] {
                let addrs: Vec<_> = (0..9).map(|q| m.addr(i, j, q)).collect();
                assert!(round_robin(&addrs, d), "D={d} v={v} msg({i},{j})");
            }
        }
    }

    #[test]
    fn one_block_messages_in_two_block_slots_use_every_drive() {
        // Each writer sends v one-block messages: only stripe 0. In the
        // message-major layout they all started on drives of one parity
        // and the list cost 2⌈v/D⌉; block-major, stripe 0 is round-robin.
        let (d, v) = (4usize, 10usize);
        let m = matrix(d, v, 2, 0);
        for src in 0..v {
            let mut disks = crate::DiskArray::new(crate::DiskGeometry::new(d, 8));
            let writes: Vec<(TrackAddr, &[u8])> =
                (0..v).map(|dst| (m.addr(src, dst, 0), &[1u8][..])).collect();
            assert_eq!(disks.write_gather(&writes).unwrap(), v.div_ceil(d), "src={src}");
        }
    }

    #[test]
    fn bands_do_not_overlap() {
        let m = matrix(3, 4, 2, 0);
        for dst in 0..4usize {
            let band_start = dst as u64 * m.tracks_per_band();
            let band_end = band_start + m.tracks_per_band();
            for src in 0..4 {
                for q in 0..2 {
                    let a = m.addr(src, dst, q);
                    assert!(a.track >= band_start && a.track < band_end);
                }
            }
        }
    }

    #[test]
    fn single_disk_degenerates_gracefully() {
        let m = matrix(1, 3, 2, 0);
        let addrs: Vec<_> = m.write_order_for_src(0).collect();
        assert!(addrs.iter().all(|a| a.disk == 0));
        let set: HashSet<_> = addrs.iter().map(|a| a.track).collect();
        assert_eq!(set.len(), addrs.len());
    }
}
