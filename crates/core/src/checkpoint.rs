//! Superstep-granular checkpoint manifests for the EM runners.
//!
//! The insight that makes checkpointing nearly free: at every compound
//! superstep barrier, the contexts and the next round's message matrix
//! are *already on disk* — the superstep loop is an external-memory
//! algorithm, so its entire working set lives in the disk arrays. The
//! only state living in memory is metadata: the superstep index, the
//! per-slot length tables (contexts are variable-length inside fixed
//! slots), and the accounting counters that make a resumed run's final
//! report *exactly* equal to an uninterrupted one.
//!
//! A [`CheckpointManifest`] captures that metadata. Resuming
//! ([`crate::SeqEmRunner::resume_from`] /
//! [`crate::ParEmRunner::resume_from`]) rebuilds the disk arrays from the
//! same [`crate::EmConfig`] (which must point at the persisted backend
//! directory), restores the length tables and counters, and re-enters the
//! loop at `superstep + 1`. Final states and `IoStats` are byte-identical
//! to the uninterrupted run (property-tested in
//! `tests/checkpoint_resume.rs`).
//!
//! The manifest is a versioned plain-text file, written atomically
//! (temp file + rename) *after* the barrier flush. A crash after it or
//! in the final superstep (which writes no context) is resumable; one in
//! an earlier superstep is not yet: (e) rewrites contexts in place.

use std::fmt::Write as _;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

use cgmio_io::TraceHandle;
use cgmio_model::cost::RoundCost;
use cgmio_pdm::{DiskArray, IoStats};

use crate::msgmatrix::InboxRow;
use crate::report::{EmRunReport, IoBreakdown};
use crate::EmError;

/// File-format version tag (first line of every manifest). `v2`
/// switched the per-worker length tables to compact encodings —
/// run-length context lengths and sparse inbox rows — so a manifest
/// stays kilobytes at `v = 10^6` instead of the dense `v × v` table
/// that dominated `v1`. `v3` stored each inbox slot's rotation copy
/// beside its length; `v4` stores each message's offset in its
/// destination's mailbox (`src len offset` triples). Older manifests
/// are refused with [`io::ErrorKind::Unsupported`] (re-checkpoint from
/// a fresh run).
const MAGIC: &str = "cgmio-checkpoint v4";

/// Per-real-processor state captured at a superstep barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCheckpoint {
    /// Real-processor index (0 for the sequential runner).
    pub worker: usize,
    /// Encoded byte length of each local context slot, run-length
    /// encoded as `(run, length)` pairs covering the slots in order
    /// (the encoding of [`crate::context::ContextStore::lens_rle`]).
    pub ctx_lens: Vec<(u64, u64)>,
    /// Mailbox rows of the *next* round's inbox matrix, one per local
    /// destination of `(src, items, offset)` triples in source order —
    /// messages sent only (the encoding of
    /// [`crate::msgmatrix::MessageMatrix::sparse_lens`]).
    pub inbox_lens: Vec<InboxRow>,
    /// Cumulative I/O counters of this worker's array at the barrier.
    pub io: IoStats,
    /// Cumulative per-purpose op breakdown at the barrier.
    pub breakdown: IoBreakdown,
    /// Peak internal memory observed so far, bytes.
    pub peak_mem: usize,
}

/// Everything needed to resume a run from a superstep barrier (plus the
/// data already sitting on the disks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Hash of the layout-relevant [`crate::EmConfig`] fields and the
    /// program's message width ([`crate::EmConfig::run_hash`]); resume
    /// refuses a manifest written under a different configuration.
    pub config_hash: u64,
    /// Virtual processors of the run.
    pub v: usize,
    /// Real processors of the run.
    pub p: usize,
    /// Index of the last *completed* superstep; resume re-enters the
    /// loop at `superstep + 1`.
    pub superstep: usize,
    /// Largest encoded context observed so far, bytes (`μ`).
    pub max_ctx_bytes_seen: usize,
    /// Items that crossed a real-processor boundary so far.
    pub cross_items: u64,
    /// Per-round communication costs accumulated so far.
    pub rounds: Vec<RoundCost>,
    /// One entry per real processor, ordered by worker index.
    pub workers: Vec<WorkerCheckpoint>,
}

impl CheckpointManifest {
    /// Canonical manifest path inside a checkpoint directory.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join("checkpoint.manifest")
    }

    /// Serialise to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC}");
        let _ = writeln!(s, "config_hash {}", self.config_hash);
        let _ = writeln!(s, "v {}", self.v);
        let _ = writeln!(s, "p {}", self.p);
        let _ = writeln!(s, "superstep {}", self.superstep);
        let _ = writeln!(s, "max_ctx_bytes_seen {}", self.max_ctx_bytes_seen);
        let _ = writeln!(s, "cross_items {}", self.cross_items);
        let _ = writeln!(s, "rounds {}", self.rounds.len());
        for r in &self.rounds {
            let _ = writeln!(
                s,
                "round {} {} {} {} {}",
                r.max_sent, r.max_received, r.total_items, r.max_message, r.min_message
            );
        }
        let _ = writeln!(s, "workers {}", self.workers.len());
        for w in &self.workers {
            let _ = writeln!(s, "worker {}", w.worker);
            let _ = writeln!(s, "peak_mem {}", w.peak_mem);
            let io = &w.io;
            let ops = [io.read_ops, io.write_ops, io.blocks_read, io.blocks_written, io.full_ops];
            let _ = writeln!(s, "io {} {}", ops.map(|x| x.to_string()).join(" "), io.narrow_ops);
            let _ = write!(s, "per_disk_blocks");
            for b in &w.io.per_disk_blocks {
                let _ = write!(s, " {b}");
            }
            let _ = writeln!(s);
            let _ = writeln!(
                s,
                "breakdown {} {} {} {}",
                w.breakdown.setup_ops,
                w.breakdown.ctx_ops,
                w.breakdown.msg_ops,
                w.breakdown.readout_ops
            );
            let _ = write!(s, "ctx_lens_rle");
            for (run, len) in &w.ctx_lens {
                let _ = write!(s, " {run} {len}");
            }
            let _ = writeln!(s);
            let _ = writeln!(s, "inbox_rows {}", w.inbox_lens.len());
            for InboxRow(row) in &w.inbox_lens {
                let _ = write!(s, "row");
                for (src, len, off) in row {
                    let _ = write!(s, " {src} {len} {off}");
                }
                let _ = writeln!(s);
            }
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Parse the text format back (inverse of [`Self::to_text`]). Any
    /// malformed input — truncated, garbled, counts larger than the
    /// file, lengths past `u32` — is an error, never a panic.
    pub fn from_text(text: &str) -> io::Result<Self> {
        let mut lines = text.lines();
        let bad =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {msg}"));
        match lines.next() {
            Some(MAGIC) => {}
            Some(h) if h.starts_with("cgmio-checkpoint ") => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    format!("manifest: `{h}` is not readable by this build, which reads `{MAGIC}`"),
                ))
            }
            _ => return Err(bad("missing version header")),
        }
        // Each metadata line is "key value..."; read them in fixed order.
        let mut field = |key: &str| -> io::Result<Vec<u64>> {
            let line = lines.next().ok_or_else(|| bad("truncated"))?;
            let mut parts = line.split_whitespace();
            if parts.next() != Some(key) {
                return Err(bad(&format!("expected field `{key}` in line `{line}`")));
            }
            parts
                .map(|x| x.parse::<u64>().map_err(|_| bad(&format!("bad number in `{line}`"))))
                .collect()
        };
        let one = |vals: Vec<u64>, key: &str| -> io::Result<u64> {
            if vals.len() == 1 {
                Ok(vals[0])
            } else {
                Err(bad(&format!("field `{key}` needs exactly one value")))
            }
        };
        let config_hash = one(field("config_hash")?, "config_hash")?;
        let v = one(field("v")?, "v")? as usize;
        let p = one(field("p")?, "p")? as usize;
        let superstep = one(field("superstep")?, "superstep")? as usize;
        let max_ctx_bytes_seen = one(field("max_ctx_bytes_seen")?, "max_ctx_bytes_seen")? as usize;
        let cross_items = one(field("cross_items")?, "cross_items")?;
        // Counts come from the file: vectors grow as their lines arrive,
        // so a count larger than the file is a truncation error.
        let n_rounds = one(field("rounds")?, "rounds")?;
        let mut rounds = Vec::new();
        for _ in 0..n_rounds {
            let vals = field("round")?;
            if vals.len() != 5 {
                return Err(bad("round needs 5 values"));
            }
            rounds.push(RoundCost {
                max_sent: vals[0] as usize,
                max_received: vals[1] as usize,
                total_items: vals[2] as usize,
                max_message: vals[3] as usize,
                min_message: vals[4] as usize,
            });
        }
        let n_workers = one(field("workers")?, "workers")?;
        let mut workers = Vec::new();
        for _ in 0..n_workers {
            let worker = one(field("worker")?, "worker")? as usize;
            let peak_mem = one(field("peak_mem")?, "peak_mem")? as usize;
            // Manifests older than `narrow_ops` carry five values; they
            // parse, and resume then refuses them by config hash.
            let io_vals = field("io")?;
            if !(5..=6).contains(&io_vals.len()) {
                return Err(bad("io needs 6 values"));
            }
            let per_disk_blocks = field("per_disk_blocks")?;
            let io = IoStats {
                read_ops: io_vals[0],
                write_ops: io_vals[1],
                blocks_read: io_vals[2],
                blocks_written: io_vals[3],
                full_ops: io_vals[4],
                narrow_ops: io_vals.get(5).copied().unwrap_or(0),
                per_disk_blocks,
            };
            let bd = field("breakdown")?;
            if bd.len() != 4 {
                return Err(bad("breakdown needs 4 values"));
            }
            let breakdown = IoBreakdown {
                setup_ops: bd[0],
                ctx_ops: bd[1],
                msg_ops: bd[2],
                readout_ops: bd[3],
            };
            let pairs = |vals: Vec<u64>, key: &str| -> io::Result<Vec<(u64, u64)>> {
                if !vals.len().is_multiple_of(2) {
                    return Err(bad(&format!("field `{key}` needs an even pair count")));
                }
                Ok(vals.chunks_exact(2).map(|c| (c[0], c[1])).collect())
            };
            let ctx_lens = pairs(field("ctx_lens_rle")?, "ctx_lens_rle")?;
            let n_rows = one(field("inbox_rows")?, "inbox_rows")?;
            let mut inbox_lens = Vec::new();
            for _ in 0..n_rows {
                let vals = field("row")?;
                if !vals.len().is_multiple_of(3) {
                    return Err(bad("field `row` needs whole (src, len, offset) triples"));
                }
                let narrow =
                    |x: u64| u32::try_from(x).map_err(|_| bad(&format!("{x} overflows u32")));
                let slots = vals.chunks_exact(3).map(|c| Ok((c[0], narrow(c[1])?, c[2])));
                inbox_lens.push(InboxRow(slots.collect::<io::Result<_>>()?));
            }
            workers.push(WorkerCheckpoint {
                worker,
                ctx_lens,
                inbox_lens,
                io,
                breakdown,
                peak_mem,
            });
        }
        if lines.next() != Some("end") {
            return Err(bad("missing end marker"));
        }
        Ok(Self { config_hash, v, p, superstep, max_ctx_bytes_seen, cross_items, rounds, workers })
    }

    /// Write the manifest atomically: temp file in the same directory,
    /// fsync, rename over the destination.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Load a manifest previously written with [`Self::save`].
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Self::from_text(&text)
    }

    /// Aggregate the per-worker I/O counters (merged across workers).
    pub fn total_io(&self, num_disks: usize) -> IoStats {
        let mut io = IoStats::new(num_disks);
        for w in &self.workers {
            io.merge(&w.io);
        }
        io
    }
}

/// An in-process checkpoint: the manifest plus the live disk arrays it
/// describes. Produced by `run_until` when
/// [`crate::EmConfig::halt_after_superstep`] triggers; consumed by
/// `resume`, which continues on the same arrays (this is what makes
/// kill-and-resume testable on the non-persistent `Mem` backend).
pub struct Checkpoint {
    /// The barrier metadata (also written to
    /// [`crate::EmConfig::checkpoint_dir`] when one is configured).
    pub manifest: CheckpointManifest,
    /// Live disk arrays (and trace handles), one per real processor, in
    /// worker order.
    pub(crate) disks: Vec<(DiskArray, Option<TraceHandle>)>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("manifest", &self.manifest)
            .field("disks", &self.disks.len())
            .finish()
    }
}

/// Result of `run_until`: either the run finished, or it was interrupted
/// at a superstep barrier (per
/// [`crate::EmConfig::halt_after_superstep`]).
#[derive(Debug)]
pub enum RunOutcome<S> {
    /// The program ran to completion.
    Complete {
        /// Final states of the `v` virtual processors.
        finals: Vec<S>,
        /// The full run report (boxed: it is most of the enum's size).
        report: Box<EmRunReport>,
    },
    /// The run halted at a superstep barrier; resume with
    /// `resume` (in-process, any backend) or `resume_from` (from the
    /// manifest, persistent backends).
    Interrupted(Checkpoint),
}

impl<S> RunOutcome<S> {
    /// The completed run, or [`EmError::Interrupted`] for a halt — what
    /// the runners' `run` returns.
    pub(crate) fn completed(self) -> Result<(Vec<S>, EmRunReport), EmError> {
        match self {
            RunOutcome::Complete { finals, report } => Ok((finals, *report)),
            RunOutcome::Interrupted(c) => {
                Err(EmError::Interrupted { superstep: c.manifest.superstep })
            }
        }
    }

    /// Unwrap a completed run (panics on `Interrupted`) — convenience
    /// for tests and examples.
    pub fn expect_complete(self) -> (Vec<S>, EmRunReport) {
        match self {
            RunOutcome::Complete { finals, report } => (finals, *report),
            RunOutcome::Interrupted(c) => {
                panic!("run was interrupted after superstep {}", c.manifest.superstep)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> CheckpointManifest {
        CheckpointManifest {
            config_hash: 0xDEAD_BEEF,
            v: 6,
            p: 2,
            superstep: 3,
            max_ctx_bytes_seen: 480,
            cross_items: 17,
            rounds: vec![
                RoundCost {
                    max_sent: 4,
                    max_received: 5,
                    total_items: 20,
                    max_message: 3,
                    min_message: 1,
                },
                RoundCost::default(),
            ],
            workers: vec![
                WorkerCheckpoint {
                    worker: 0,
                    ctx_lens: vec![(1, 16), (1, 0), (1, 24)],
                    inbox_lens: vec![
                        InboxRow(vec![(1, 2, 0), (3, 1, 5)]),
                        [(0, 3), (5, 9)].into_iter().collect(),
                    ],
                    io: IoStats {
                        read_ops: 10,
                        write_ops: 11,
                        blocks_read: 20,
                        blocks_written: 22,
                        full_ops: 9,
                        narrow_ops: 2,
                        per_disk_blocks: vec![21, 21],
                    },
                    breakdown: IoBreakdown {
                        setup_ops: 2,
                        ctx_ops: 10,
                        msg_ops: 8,
                        readout_ops: 0,
                    },
                    peak_mem: 512,
                },
                WorkerCheckpoint {
                    worker: 1,
                    ctx_lens: vec![(3, 8)],
                    inbox_lens: vec![InboxRow::default()],
                    io: IoStats::new(2),
                    breakdown: IoBreakdown::default(),
                    peak_mem: 64,
                },
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let m = manifest();
        let parsed = CheckpointManifest::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-ckpt");
        let path = CheckpointManifest::path_in(dir.path());
        let m = manifest();
        m.save(&path).unwrap();
        assert_eq!(CheckpointManifest::load(&path).unwrap(), m);
        // Overwrite is atomic and idempotent.
        m.save(&path).unwrap();
        assert_eq!(CheckpointManifest::load(&path).unwrap(), m);
    }

    #[test]
    fn corrupt_manifests_are_rejected() {
        assert!(CheckpointManifest::from_text("").is_err());
        assert!(CheckpointManifest::from_text("not a manifest\n").is_err());
        let text = manifest().to_text();
        // Drop the end marker.
        let truncated = text.replace("\nend\n", "\n");
        assert!(CheckpointManifest::from_text(&truncated).is_err());
        // Corrupt a number.
        let garbled = text.replace("superstep 3", "superstep x");
        assert!(CheckpointManifest::from_text(&garbled).is_err());
        // v1 (dense tables), v2 (no rotations) and v3 (rotation copies)
        // are refused by name.
        for old in ["v1", "v2", "v3"] {
            let text = text.replace("cgmio-checkpoint v4", &format!("cgmio-checkpoint {old}"));
            let e = CheckpointManifest::from_text(&text).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::Unsupported);
            assert!(e.to_string().contains(&format!("cgmio-checkpoint {old}")), "{e}");
        }
        // RLE fields must hold whole pairs, inbox rows whole triples.
        let odd = text.replace("ctx_lens_rle 1 16 1 0 1 24", "ctx_lens_rle 1 16 1");
        assert!(CheckpointManifest::from_text(&odd).is_err());
        let odd = text.replace("row 1 2 0 3 1 5", "row 1 2 0 3 1");
        assert!(CheckpointManifest::from_text(&odd).is_err());
    }

    #[test]
    fn total_io_merges_workers() {
        let m = manifest();
        let io = m.total_io(2);
        assert_eq!(io.read_ops, 10);
        assert_eq!(io.per_disk_blocks, vec![21, 21]);
    }
}
