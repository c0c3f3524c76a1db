//! # cgmio-pdm — Parallel Disk Model substrate
//!
//! This crate implements the *Parallel Disk Model* (PDM) of Vitter and
//! Shriver as used by Dehne, Dittrich, Hutchinson and Maheshwari in
//! *"Reducing I/O Complexity by Simulating Coarse Grained Parallel
//! Algorithms"* (IPPS 1999).
//!
//! A [`DiskArray`] models `D` independent disk drives attached to one
//! processor. Each drive is a sequence of fixed-size *tracks*; a track
//! stores exactly one *block* of `B` bytes. A single **parallel I/O
//! operation** may touch **at most one track per disk** (but any subset of
//! the disks), and costs one unit (`G` in the paper's EM-CGM model)
//! regardless of how many disks participate — so the model rewards fully
//! parallel, blocked access, exactly as the paper describes.
//!
//! The crate provides:
//!
//! * [`DiskArray`] — the simulated drive array with strict legality
//!   checking and exact [`IoStats`] accounting,
//! * [`layout`] — the paper's *consecutive* and *staggered* disk formats
//!   (its Section 2.1 and Figure 2) as pure address arithmetic,
//! * [`Item`] — fixed-size binary encoding for the records that flow
//!   through disks and messages,
//! * [`timing`] — a seek + transfer disk timing model used to convert I/O
//!   counts into wall-clock estimates (and to reproduce the paper's
//!   Figure 8 block-size curve),
//! * [`paged`] — an LRU demand-paging simulator standing in for the
//!   "virtual memory" baseline of the paper's Figure 3 and for the cache
//!   extension of its Section 5,
//! * [`pool`] — reusable block buffers ([`BlockPool`]) backing the
//!   zero-copy scatter-gather data path,
//! * [`storage`] — the [`TrackStorage`] trait the array's byte-moving is
//!   delegated to, with the in-memory backend; the concurrent engine in
//!   the `cgmio-io` crate plugs in through the same trait,
//! * [`file_backend`] — an optional real-file backend so the same code
//!   paths can be exercised against a filesystem,
//! * [`fault`] — a deterministic, seeded fault injector wrapping any
//!   [`TrackStorage`], plus the `Transient`/`Corrupt`/`Permanent` error
//!   taxonomy the recovery layers above are built on.

#![deny(missing_docs)]

pub mod disk;
pub mod fault;
pub mod file_backend;
pub mod item;
pub mod layout;
pub mod paged;
pub mod pool;
pub mod stats;
pub mod storage;
pub mod testutil;
pub mod timing;

pub use disk::{DiskArray, IoError, IoRequest, TrackAddr};
pub use fault::{
    classify, FaultCounts, FaultError, FaultInjector, FaultPlan, FaultStats, IoErrorKind,
};
pub use file_backend::FileStorage;
pub use item::{CodecError, Item, SpanDecoder};
pub use layout::{consecutive_addr, Layout, MessageMatrixLayout};
pub use paged::PagedStore;
pub use pool::{BlockPool, PoolStats, PooledBlock};
pub use stats::IoStats;
pub use storage::{MemStorage, TrackRange, TrackStorage};
pub use timing::DiskTimingModel;

/// Geometry of a disk array: number of drives and block size.
///
/// All sizes are in **bytes**; higher layers that think in "items"
/// convert via [`Item::SIZE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskGeometry {
    /// Number of disk drives (`D` in the paper).
    pub num_disks: usize,
    /// Block (track) size in bytes (`B·sizeof(item)` in the paper).
    pub block_bytes: usize,
}

impl DiskGeometry {
    /// Create a geometry, panicking on degenerate values.
    pub fn new(num_disks: usize, block_bytes: usize) -> Self {
        assert!(num_disks >= 1, "need at least one disk");
        assert!(block_bytes >= 1, "block size must be positive");
        Self { num_disks, block_bytes }
    }

    /// Number of blocks needed to hold `bytes` bytes.
    pub fn blocks_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.block_bytes)
    }

    /// Number of parallel I/O operations needed to move `nblocks` blocks
    /// at full parallelism.
    pub fn ops_for_blocks(&self, nblocks: usize) -> usize {
        nblocks.div_ceil(self.num_disks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_block_math() {
        let g = DiskGeometry::new(4, 512);
        assert_eq!(g.blocks_for(0), 0);
        assert_eq!(g.blocks_for(1), 1);
        assert_eq!(g.blocks_for(512), 1);
        assert_eq!(g.blocks_for(513), 2);
        assert_eq!(g.ops_for_blocks(0), 0);
        assert_eq!(g.ops_for_blocks(4), 1);
        assert_eq!(g.ops_for_blocks(5), 2);
    }

    #[test]
    #[should_panic]
    fn geometry_rejects_zero_disks() {
        let _ = DiskGeometry::new(0, 512);
    }

    #[test]
    #[should_panic]
    fn geometry_rejects_zero_block() {
        let _ = DiskGeometry::new(1, 0);
    }
}
