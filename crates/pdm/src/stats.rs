//! Exact accounting of parallel I/O operations.
//!
//! The PDM cost measure is the **number of parallel I/O operations**; the
//! EM-CGM model charges `G` time units per operation. [`IoStats`] counts
//! operations and blocks separately for reads and writes, and tracks how
//! many operations used every disk (*fully parallel* operations), which is
//! what the paper's staggered layout is designed to maximise.

/// Running counters for a [`crate::DiskArray`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IoStats {
    /// Number of parallel read operations issued.
    pub read_ops: u64,
    /// Number of parallel write operations issued.
    pub write_ops: u64,
    /// Total blocks transferred by reads.
    pub blocks_read: u64,
    /// Total blocks transferred by writes.
    pub blocks_written: u64,
    /// Operations that used all `D` disks.
    pub full_ops: u64,
    /// Operations above the stripe floor: over every charged list, its
    /// operations minus `⌈blocks/D⌉`, the fewest any `D`-drive schedule
    /// of that many blocks needs. Zero when every list spreads its
    /// blocks evenly over the drives.
    pub narrow_ops: u64,
    /// Per-disk block transfer counts (reads + writes).
    pub per_disk_blocks: Vec<u64>,
}

impl IoStats {
    /// New zeroed stats for an array of `num_disks` drives.
    pub fn new(num_disks: usize) -> Self {
        Self { per_disk_blocks: vec![0; num_disks], ..Self::default() }
    }

    /// Total parallel I/O operations (the PDM cost).
    pub fn total_ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Total blocks moved in either direction.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }

    /// Fraction of operations that used every disk; `1.0` when no
    /// operations were issued (vacuously fully parallel).
    pub fn parallel_efficiency(&self) -> f64 {
        if self.total_ops() == 0 {
            1.0
        } else {
            self.full_ops as f64 / self.total_ops() as f64
        }
    }

    /// Average blocks moved per operation. With `D` disks this is at most
    /// `D`; the closer to `D`, the better the layout.
    pub fn blocks_per_op(&self) -> f64 {
        if self.total_ops() == 0 {
            0.0
        } else {
            self.total_blocks() as f64 / self.total_ops() as f64
        }
    }

    /// Record one parallel read touching `blocks` blocks.
    pub(crate) fn record_read(&mut self, blocks: usize, num_disks: usize) {
        self.read_ops += 1;
        self.blocks_read += blocks as u64;
        if blocks == num_disks {
            self.full_ops += 1;
        }
    }

    /// Record one parallel write touching `blocks` blocks.
    pub(crate) fn record_write(&mut self, blocks: usize, num_disks: usize) {
        self.write_ops += 1;
        self.blocks_written += blocks as u64;
        if blocks == num_disks {
            self.full_ops += 1;
        }
    }

    /// Counters accumulated since `earlier` was captured: every field
    /// of the result is `self - earlier` (saturating, so a mismatched
    /// pair clamps at zero instead of wrapping). `earlier` should be a
    /// snapshot of the *same* counter stream taken before `self` — the
    /// runners use this to attribute I/O to individual supersteps and
    /// phases in run reports.
    ///
    /// ```
    /// use cgmio_pdm::IoStats;
    /// let mut before = IoStats::new(2);
    /// before.per_disk_blocks = vec![1, 1];
    /// before.read_ops = 1;
    /// let mut after = before.clone();
    /// after.read_ops = 3;
    /// after.per_disk_blocks = vec![4, 1];
    /// let delta = after.diff(&before);
    /// assert_eq!(delta.read_ops, 2);
    /// assert_eq!(delta.per_disk_blocks, vec![3, 0]);
    /// ```
    pub fn diff(&self, earlier: &IoStats) -> IoStats {
        let mut per_disk_blocks: Vec<u64> = self.per_disk_blocks.clone();
        for (a, b) in per_disk_blocks.iter_mut().zip(&earlier.per_disk_blocks) {
            *a = a.saturating_sub(*b);
        }
        IoStats {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            full_ops: self.full_ops.saturating_sub(earlier.full_ops),
            narrow_ops: self.narrow_ops.saturating_sub(earlier.narrow_ops),
            per_disk_blocks,
        }
    }

    /// Merge another stats object into this one (e.g. to aggregate the
    /// per-processor disk arrays of a parallel run).
    pub fn merge(&mut self, other: &IoStats) {
        self.read_ops += other.read_ops;
        self.write_ops += other.write_ops;
        self.blocks_read += other.blocks_read;
        self.blocks_written += other.blocks_written;
        self.full_ops += other.full_ops;
        self.narrow_ops += other.narrow_ops;
        if self.per_disk_blocks.len() < other.per_disk_blocks.len() {
            self.per_disk_blocks.resize(other.per_disk_blocks.len(), 0);
        }
        for (a, b) in self.per_disk_blocks.iter_mut().zip(&other.per_disk_blocks) {
            *a += *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_efficiency() {
        let mut s = IoStats::new(4);
        s.record_read(4, 4);
        s.record_read(2, 4);
        s.record_write(4, 4);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.blocks_read, 6);
        assert_eq!(s.blocks_written, 4);
        assert_eq!(s.full_ops, 2);
        assert!((s.parallel_efficiency() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.blocks_per_op() - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_vacuously_efficient() {
        let s = IoStats::new(2);
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.parallel_efficiency(), 1.0);
        assert_eq!(s.blocks_per_op(), 0.0);
    }

    #[test]
    fn diff_undoes_merge() {
        let mut a = IoStats::new(2);
        a.record_read(2, 2);
        a.per_disk_blocks = vec![3, 4];
        let mut b = a.clone();
        b.record_write(1, 2);
        b.record_read(2, 2);
        b.per_disk_blocks = vec![5, 4];
        b.narrow_ops = 3;
        let d = b.diff(&a);
        assert_eq!(d.narrow_ops, 3);
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.write_ops, 1);
        assert_eq!(d.blocks_read, 2);
        assert_eq!(d.blocks_written, 1);
        assert_eq!(d.full_ops, 1);
        assert_eq!(d.per_disk_blocks, vec![2, 0]);
        // diff against itself is zero; merging the delta back restores b
        assert_eq!(b.diff(&b).total_ops(), 0);
        let mut restored = a.clone();
        restored.merge(&d);
        assert_eq!(restored, b);
    }

    #[test]
    fn diff_saturates_instead_of_wrapping() {
        let mut newer = IoStats::new(1);
        let mut older = IoStats::new(1);
        newer.read_ops = 1;
        older.read_ops = 5;
        older.per_disk_blocks = vec![9];
        let d = newer.diff(&older);
        assert_eq!(d.read_ops, 0);
        assert_eq!(d.per_disk_blocks, vec![0]);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = IoStats::new(2);
        a.record_read(2, 2);
        a.per_disk_blocks[0] = 1;
        a.per_disk_blocks[1] = 1;
        let mut b = IoStats::new(2);
        b.record_write(1, 2);
        b.per_disk_blocks[1] = 1;
        a.merge(&b);
        assert_eq!(a.total_ops(), 2);
        assert_eq!(a.blocks_written, 1);
        assert_eq!(a.per_disk_blocks, vec![1, 2]);
    }
}
