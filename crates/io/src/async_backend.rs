//! Async submission backend: one reactor thread + submission queue per
//! drive, batching everything queued between wakeups into coalesced
//! physical ops against real files.
//!
//! The concurrent engine ([`crate::ConcurrentStorage`]) services its
//! bounded queue one operation at a time — good enough for the
//! simulated-latency studies, but on real multi-file layouts every
//! queued block still costs one positioned syscall. This backend is the
//! ROADMAP's "async real-disk backend": each drive's reactor drains its
//! *entire* submission queue per wakeup (the submission batch), merges
//! runs of adjacent-track same-kind blocks, and issues each run as a
//! single positioned transfer of `run_len * block_bytes` bytes. A
//! compound superstep's context sweep — tracks `t, t+1, …` on each
//! drive — collapses from `n` syscalls into one.
//!
//! Two service paths per drive:
//!
//! * **Raw** — the reactor owns the drive's backing file and issues
//!   coalesced `read_at`/`write_at` directly; with
//!   [`IoEngineOpts::direct_io`] set it opens O_DIRECT (sector-multiple
//!   block sizes only, automatic fallback to buffered I/O where the
//!   filesystem refuses) and draws sector-aligned buffers from
//!   [`BlockPool::checkout_aligned`],
//! * **Layered** — the reactor drives any inner [`TrackStorage`]
//!   track-by-track in queue order. This is the fault-injection path:
//!   per-track calls preserve the deterministic per-drive op sequence
//!   the injector's rolls are keyed on, so fault and retry totals are
//!   bit-identical to the concurrent engine's.
//!
//! A true io_uring reactor needs raw syscall access the workspace's
//! no-new-dependencies rule does not currently admit (no `libc`/
//! `io-uring` crates are vendored); the per-drive reactor thread is the
//! portable fallback that same seam would dispatch to, and the batching
//! and alignment contracts here are exactly what an io_uring submission
//! queue wants.
//!
//! Everything observable above the trait is identical to the other
//! backends: per-drive FIFO coherence (a demand read submitted after a
//! write of the same track sees the new bytes), write-behind with the
//! same bounded deferred-error list, split-phase tickets behind
//! [`TrackStorage::read_scatter_submit`], and graceful drain-on-drop.
//! `IoStats`, finals, and checkpoints are bit-identical — property-
//! tested in `tests/async_backend.rs`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use cgmio_obs::{Counter, Gauge, Histogram, Obs, Phase, PhaseCell};
use cgmio_pdm::{
    classify, BlockPool, DiskGeometry, FaultError, IoErrorKind, PooledBlock, TrackAddr,
    TrackStorage,
};
use crossbeam::channel::{bounded, Receiver, Sender};

use crate::engine::MAX_DEFERRED_WRITE_ERRORS;
use crate::retry::{track_checksum, RetryPolicy};
use crate::trace::{OpKind, TraceEvent, TraceHandle};
use crate::{Durability, IoEngineOpts};

/// O_DIRECT flag value per architecture (the workspace vendors no libc
/// binding; the constant is ABI-stable per arch).
#[cfg(target_arch = "x86_64")]
const O_DIRECT: i32 = 0x4000;
#[cfg(target_arch = "aarch64")]
const O_DIRECT: i32 = 0x10000;
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
const O_DIRECT: i32 = 0;

/// O_DIRECT transfers must be sector-aligned in offset, length, and
/// buffer address; 512 is the universal logical sector size, 4096 the
/// safe buffer alignment (covers 4Kn devices and page-cache bypass).
const SECTOR_BYTES: usize = 512;
const DIRECT_BUF_ALIGN: usize = 4096;

/// Submit-time context stamped onto each queued block (see the engine's
/// equivalent): trace sequencing plus the `(superstep, phase)` active
/// at submission.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    seq: u64,
    submit_us: u64,
    superstep: u64,
    phase: Phase,
}

/// One block of a vectored write, payload in a pooled buffer.
struct WriteBlock {
    track: u64,
    data: PooledBlock,
    stamp: Stamp,
}

type ReadManyReply = Vec<io::Result<Vec<u8>>>;

/// A batch's reply routing for one `ReadMany` entry: the sender plus
/// per-track result slots filled as coalesced runs complete.
type ReadReplySlot = (Sender<ReadManyReply>, Vec<Option<io::Result<Vec<u8>>>>);

/// One queued submission. Vectored: a whole per-drive scatter list is
/// one queue entry, exactly like the concurrent engine, so a huge
/// gather can never deadlock against the bounded queue.
enum AsyncOp {
    ReadMany { tracks: Vec<(u64, Stamp)>, reply: Sender<ReadManyReply> },
    WriteMany { blocks: Vec<WriteBlock>, done: Option<Sender<()>> },
    Flush { sync: bool, reply: Sender<io::Result<()>>, stamp: Stamp },
    Discard { tracks: std::ops::Range<u64>, reply: Sender<io::Result<bool>> },
}

impl AsyncOp {
    /// Blocks this entry contributes to a submission batch.
    fn blocks(&self) -> usize {
        match self {
            AsyncOp::ReadMany { tracks, .. } => tracks.len(),
            AsyncOp::WriteMany { blocks, .. } => blocks.len(),
            AsyncOp::Flush { .. } | AsyncOp::Discard { .. } => 1,
        }
    }
}

/// A drive's submission queue: entries plus the closed flag the reactor
/// watches for shutdown.
struct QueueState {
    ops: std::collections::VecDeque<AsyncOp>,
    closed: bool,
}

/// Queue shared between submitters and one reactor.
struct DriveQueue {
    state: Mutex<QueueState>,
    /// Signals the reactor (new work / close) *and* submitters
    /// (backpressure slot freed) — the queue is tiny, so one condvar
    /// for both directions keeps this simple.
    cv: Condvar,
    depth: usize,
}

impl DriveQueue {
    fn new(depth: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { ops: std::collections::VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueue, blocking while the queue is at capacity (backpressure).
    fn push(&self, op: AsyncOp) -> io::Result<()> {
        let mut g = self.state.lock().unwrap();
        while g.ops.len() >= self.depth && !g.closed {
            g = self.cv.wait(g).unwrap();
        }
        if g.closed {
            return Err(io::Error::other("drive reactor is gone"));
        }
        g.ops.push_back(op);
        self.cv.notify_all();
        Ok(())
    }

    /// Drain everything queued, waiting when empty; `None` once closed
    /// and fully drained.
    fn drain(&self) -> Option<Vec<AsyncOp>> {
        let mut g = self.state.lock().unwrap();
        loop {
            if !g.ops.is_empty() {
                let batch: Vec<AsyncOp> = g.ops.drain(..).collect();
                self.cv.notify_all(); // free backpressure waiters
                return Some(batch);
            }
            if g.closed {
                return None;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

/// Deferred write-behind failure (same shape as the engine's).
struct DeferredWriteError {
    drive: usize,
    track: u64,
    superstep: u64,
    kind: IoErrorKind,
    detail: String,
}

#[derive(Default)]
struct DeferredErrors {
    errors: Vec<DeferredWriteError>,
    dropped: u64,
}

/// What a reactor services its drive against.
enum DriveIo {
    /// Direct positioned I/O on the drive's own backing file —
    /// adjacent-track runs become single multi-block transfers.
    Raw(RawFile),
    /// Any inner storage, driven track-by-track in queue order (the
    /// fault-injection and in-memory path). Coalescing still batches
    /// the queue drain; the per-track calls keep wrapper semantics
    /// (deterministic fault rolls) intact.
    Layered(Arc<dyn TrackStorage>),
}

/// One drive's backing file plus its direct-I/O mode.
struct RawFile {
    file: File,
    block_bytes: usize,
    /// O_DIRECT is active: transfers must use sector-aligned pooled
    /// buffers and whole-block lengths.
    direct: bool,
}

impl RawFile {
    /// Open (create if needed) `dir/disk{d}.dat`, trying O_DIRECT first
    /// when requested (`IoEngineOpts::direct_io`) and the geometry
    /// allows it, and falling back to buffered I/O when the flag is
    /// unsupported (tmpfs, exotic filesystems) or the block size is not
    /// a sector multiple.
    fn open(dir: &Path, drive: usize, block_bytes: usize, direct_io: bool) -> io::Result<Self> {
        let path = dir.join(format!("disk{drive}.dat"));
        let want_direct = direct_io && O_DIRECT != 0 && block_bytes.is_multiple_of(SECTOR_BYTES);
        if want_direct {
            use std::os::unix::fs::OpenOptionsExt;
            if let Ok(file) = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .custom_flags(O_DIRECT)
                .open(&path)
            {
                return Ok(Self { file, block_bytes, direct: true });
            }
            // else fall through to buffered
        }
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        Ok(Self { file, block_bytes, direct: false })
    }

    /// Read `n` consecutive tracks starting at `track` into `buf`
    /// (`n * block_bytes` long), zero-filling past EOF.
    fn read_run(&self, track: u64, buf: &mut [u8]) -> io::Result<()> {
        let off = track * self.block_bytes as u64;
        let mut read = 0;
        while read < buf.len() {
            match self.file.read_at(&mut buf[read..], off + read as u64)? {
                0 => {
                    buf[read..].fill(0);
                    break;
                }
                n => read += n,
            }
        }
        Ok(())
    }

    /// Write a run of consecutive full tracks starting at `track`.
    fn write_run(&self, track: u64, buf: &[u8]) -> io::Result<()> {
        self.file.write_all_at(buf, track * self.block_bytes as u64)
    }

    fn tracks_used(&self) -> u64 {
        self.file.metadata().map(|m| m.len() / self.block_bytes as u64).unwrap_or(0)
    }
}

/// Split-phase completion handle parked in the pending-ticket map.
struct PendingRead {
    addrs: Vec<TrackAddr>,
    replies: Vec<Option<Receiver<ReadManyReply>>>,
}

/// [`TrackStorage`] served by one submission-queue reactor per drive,
/// batching and coalescing queued ops into vectored physical transfers.
///
/// Construct with [`AsyncFileStorage::open_dir`] for real multi-file
/// layouts (the coalescing path) or [`AsyncFileStorage::over`] to layer
/// the reactor over any inner storage (fault injection, tests). Behind
/// `DiskArray::with_storage` it is a drop-in for the other backends:
/// logical accounting lives above the trait, so `IoStats` and finals
/// are bit-identical (see `tests/async_backend.rs`).
pub struct AsyncFileStorage {
    queues: Vec<Arc<DriveQueue>>,
    reactors: Vec<JoinHandle<()>>,
    write_err: Arc<Mutex<DeferredErrors>>,
    durability: Durability,
    trace: Option<TraceHandle>,
    pool: BlockPool,
    obs: Option<Obs>,
    phase: Option<Arc<PhaseCell>>,
    superstep: AtomicU64,
    retries: Counter,
    deferred_drops: Counter,
    pending_reads: Mutex<HashMap<u64, PendingRead>>,
    next_ticket: AtomicU64,
    /// `tracks_used` source: raw reactors report file lengths through
    /// their shared handles, layered ones defer to the inner storage.
    used: UsedSource,
}

enum UsedSource {
    Raw(Vec<Arc<RawFile>>),
    Layered(Arc<dyn TrackStorage>),
}

impl AsyncFileStorage {
    /// Open (or create) one backing file per drive inside `dir` — the
    /// same `disk{d}.dat` layout as [`cgmio_pdm::FileStorage`], so the
    /// two file backends interoperate on the same directory — and start
    /// one reactor per drive in raw coalescing mode.
    pub fn open_dir(dir: &Path, geom: DiskGeometry, opts: IoEngineOpts) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let files: Vec<Arc<RawFile>> = (0..geom.num_disks)
            .map(|d| RawFile::open(dir, d, geom.block_bytes, opts.direct_io).map(Arc::new))
            .collect::<io::Result<_>>()?;
        let ios = files.iter().map(|f| {
            DriveIo::Raw(RawFile {
                file: f.file.try_clone().expect("clone drive fd"),
                block_bytes: f.block_bytes,
                direct: f.direct,
            })
        });
        Ok(Self::build(ios.collect(), UsedSource::Raw(files), opts))
    }

    /// Layer reactors over an existing storage (fault injection, memory
    /// backends, tests). Ops are serviced per-track in queue order, so
    /// deterministic wrappers beneath see the same op sequence as under
    /// the concurrent engine.
    pub fn over(inner: Arc<dyn TrackStorage>, num_disks: usize, opts: IoEngineOpts) -> Self {
        let ios = (0..num_disks).map(|_| DriveIo::Layered(inner.clone())).collect();
        Self::build(ios, UsedSource::Layered(inner), opts)
    }

    fn build(ios: Vec<DriveIo>, used: UsedSource, opts: IoEngineOpts) -> Self {
        let write_err = Arc::new(Mutex::new(DeferredErrors::default()));
        let trace = opts.trace.then(TraceHandle::new);
        let retries = match &opts.obs {
            Some(o) => {
                o.metrics().counter("cgmio_io_retries_total", &[("proc", opts.proc.to_string())])
            }
            None => Counter::detached(),
        };
        let deferred_drops = match &opts.obs {
            Some(o) => o.metrics().counter(
                "cgmio_io_deferred_write_errors_dropped_total",
                &[("proc", opts.proc.to_string())],
            ),
            None => Counter::detached(),
        };
        let pool = BlockPool::default();
        let mut queues = Vec::with_capacity(ios.len());
        let mut reactors = Vec::with_capacity(ios.len());
        for (drive, io_path) in ios.into_iter().enumerate() {
            let queue = Arc::new(DriveQueue::new(opts.queue_depth));
            let ctx = Reactor {
                drive,
                proc: opts.proc,
                io: io_path,
                write_err: write_err.clone(),
                trace: trace.clone(),
                retry: opts.retry,
                verify: opts.verify_checksums,
                obs: opts.obs.clone(),
                metrics: opts.obs.as_ref().map(|o| ReactorObs::new(o, opts.proc, drive)),
                retries: retries.clone(),
                deferred_drops: deferred_drops.clone(),
                pool: pool.clone(),
            };
            let q = queue.clone();
            reactors.push(
                std::thread::Builder::new()
                    .name(format!("cgmio-aio-d{drive}"))
                    .spawn(move || ctx.run(q))
                    .expect("spawn drive reactor"),
            );
            queues.push(queue);
        }
        Self {
            queues,
            reactors,
            write_err,
            durability: opts.durability,
            trace,
            pool,
            phase: opts.obs.as_ref().map(|o| o.phase_cell(opts.proc as u64)),
            obs: opts.obs,
            superstep: AtomicU64::new(0),
            retries,
            deferred_drops,
            pending_reads: Mutex::new(HashMap::new()),
            next_ticket: AtomicU64::new(1),
            used,
        }
    }

    /// Handle onto the event trace, if `opts.trace` was set.
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.trace.clone()
    }

    /// Handle onto the reactors' transient-retry counter.
    pub fn retry_counter(&self) -> Counter {
        self.retries.clone()
    }

    /// Handle onto the count of deferred write errors discarded by the
    /// bounded retained list (see
    /// [`crate::engine::MAX_DEFERRED_WRITE_ERRORS`]).
    pub fn deferred_drop_counter(&self) -> Counter {
        self.deferred_drops.clone()
    }

    fn stamp(&self) -> Stamp {
        let (seq, submit_us) = match &self.trace {
            Some(t) => (t.next_seq(), t.now_us()),
            None => (0, self.obs.as_ref().map(|o| o.now_us()).unwrap_or(0)),
        };
        let (superstep, phase) = match self.phase.as_ref().map(|c| c.get()) {
            Some((step, phase)) if phase != Phase::None => (step, phase),
            _ => (self.superstep.load(Ordering::Relaxed), Phase::None),
        };
        Stamp { seq, submit_us, superstep, phase }
    }

    /// Surface (and clear) deferred write errors — same contract and
    /// message shape as the concurrent engine's.
    fn take_write_err(&self) -> io::Result<()> {
        let (mut errors, dropped) = {
            let mut g = self.write_err.lock().unwrap();
            (std::mem::take(&mut g.errors), std::mem::take(&mut g.dropped))
        };
        if errors.is_empty() {
            return Ok(());
        }
        let more = errors.len() as u64 - 1 + dropped;
        let suffix =
            if more > 0 { format!(" (+{more} more deferred write errors)") } else { String::new() };
        let d = errors.remove(0);
        Err(FaultError {
            kind: d.kind,
            disk: d.drive,
            track: d.track,
            detail: format!(
                "deferred write failed in superstep {}: {}{suffix}",
                d.superstep, d.detail
            ),
        }
        .into_io_error())
    }

    /// Submit a gather read: one vectored queue entry per participating
    /// drive, completion parked as a [`PendingRead`].
    fn submit_gather(&self, addrs: &[TrackAddr]) -> io::Result<PendingRead> {
        let nd = self.queues.len();
        let mut groups: Vec<Vec<(u64, Stamp)>> = vec![Vec::new(); nd];
        for a in addrs {
            groups[a.disk].push((a.track, self.stamp()));
        }
        let mut replies: Vec<Option<Receiver<ReadManyReply>>> = (0..nd).map(|_| None).collect();
        for (drive, tracks) in groups.into_iter().enumerate() {
            if tracks.is_empty() {
                continue;
            }
            let (tx, rx) = bounded(1);
            self.queues[drive].push(AsyncOp::ReadMany { tracks, reply: tx })?;
            replies[drive] = Some(rx);
        }
        Ok(PendingRead { addrs: addrs.to_vec(), replies })
    }

    fn wait_gather(&self, pending: PendingRead) -> io::Result<Vec<Vec<u8>>> {
        let nd = self.queues.len();
        let mut per_drive: Vec<std::collections::VecDeque<io::Result<Vec<u8>>>> =
            (0..nd).map(|_| std::collections::VecDeque::new()).collect();
        for (drive, rx) in pending.replies.into_iter().enumerate() {
            if let Some(rx) = rx {
                per_drive[drive] =
                    rx.recv().map_err(|_| io::Error::other("drive reactor died mid-read"))?.into();
            }
        }
        pending
            .addrs
            .iter()
            .map(|a| per_drive[a.disk].pop_front().expect("one result per submitted track"))
            .collect()
    }

    fn read_scatter_owned(&self, addrs: &[TrackAddr]) -> io::Result<Vec<Vec<u8>>> {
        let pending = self.submit_gather(addrs)?;
        self.wait_gather(pending)
    }
}

impl TrackStorage for AsyncFileStorage {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        self.read_batch(&[TrackAddr::new(disk, track)]).map(|mut v| v.pop().unwrap())
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        self.write_scatter(&[(TrackAddr::new(disk, track), data)])
    }

    fn read_batch(&self, addrs: &[TrackAddr]) -> io::Result<Vec<Vec<u8>>> {
        self.read_scatter_owned(addrs)
    }

    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        for (i, block) in self.read_scatter_owned(addrs)?.into_iter().enumerate() {
            f(i, &block);
        }
        Ok(())
    }

    fn write_batch(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        self.write_scatter(writes)
    }

    /// Write-behind: payloads copy into pooled buffers, one vectored
    /// queue entry per participating drive, and the call returns once
    /// everything is queued. Deferred errors surface here or at flush.
    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        self.take_write_err()?;
        let nd = self.queues.len();
        let mut groups: Vec<Vec<WriteBlock>> = (0..nd).map(|_| Vec::new()).collect();
        for (a, data) in writes {
            let stamp = self.stamp();
            let mut block = self.pool.checkout(data.len());
            block.copy_from_slice(data);
            groups[a.disk].push(WriteBlock { track: a.track, data: block, stamp });
        }
        for (drive, blocks) in groups.into_iter().enumerate() {
            if !blocks.is_empty() {
                self.queues[drive].push(AsyncOp::WriteMany { blocks, done: None })?;
            }
        }
        Ok(())
    }

    /// Split-phase gather read: submits immediately (the reactors start
    /// transferring while the caller computes) and parks the completion
    /// under an opaque ticket for [`TrackStorage::read_scatter_wait`].
    fn read_scatter_submit(&self, addrs: &[TrackAddr]) -> io::Result<u64> {
        let pending = self.submit_gather(addrs)?;
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.pending_reads.lock().unwrap().insert(id, pending);
        Ok(id)
    }

    fn read_scatter_wait(
        &self,
        ticket: u64,
        _addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        let pending = self
            .pending_reads
            .lock()
            .unwrap()
            .remove(&ticket)
            .ok_or_else(|| io::Error::other("unknown or already-redeemed read ticket"))?;
        for (i, block) in self.wait_gather(pending)?.into_iter().enumerate() {
            f(i, &block);
        }
        Ok(())
    }

    /// Hints are no-ops here: the backend keeps no cache (coalescing,
    /// not caching, is its latency lever), and a hint must never change
    /// observable behaviour — so dropping them all is the equivalence-
    /// preserving choice, exactly like the engine under `ignore_hints`.
    fn prefetch(&self, _addrs: &[TrackAddr]) {}

    fn flush(&self, sync: bool) -> io::Result<()> {
        let fsync = sync || self.durability == Durability::SyncPerSuperstep;
        let mut replies = Vec::with_capacity(self.queues.len());
        for q in &self.queues {
            let (tx, rx) = bounded(1);
            let stamp = self.stamp();
            q.push(AsyncOp::Flush { sync: fsync, reply: tx, stamp })?;
            replies.push(rx);
        }
        self.superstep.fetch_add(1, Ordering::Relaxed);
        for rx in replies {
            rx.recv().map_err(|_| io::Error::other("drive reactor died mid-flush"))??;
        }
        self.take_write_err()
    }

    fn sync_disk(&self, disk: usize) -> io::Result<()> {
        let (tx, rx) = bounded(1);
        let stamp = self.stamp();
        self.queues[disk].push(AsyncOp::Flush { sync: true, reply: tx, stamp })?;
        rx.recv().map_err(|_| io::Error::other("drive reactor died mid-sync"))?
    }

    /// Travels the FIFO queue like everything else, so every write
    /// submitted before the discard is applied first.
    fn discard(&self, disk: usize, tracks: std::ops::Range<u64>) -> io::Result<bool> {
        let (tx, rx) = bounded(1);
        self.queues[disk].push(AsyncOp::Discard { tracks, reply: tx })?;
        rx.recv().map_err(|_| io::Error::other("drive reactor died mid-discard"))?
    }

    fn tracks_used(&self) -> Vec<u64> {
        let _ = self.flush(false);
        match &self.used {
            UsedSource::Raw(files) => files.iter().map(|f| f.tracks_used()).collect(),
            UsedSource::Layered(inner) => inner.tracks_used(),
        }
    }
}

impl Drop for AsyncFileStorage {
    /// Close every queue, let the reactors drain what was already
    /// submitted, and join them.
    fn drop(&mut self) {
        for q in &self.queues {
            q.close();
        }
        for r in self.reactors.drain(..) {
            let _ = r.join();
        }
    }
}

/// Per-drive metric handles for the async path, resolved once at spawn.
struct ReactorObs {
    /// Blocks per queue drain — the submission-batch-size distribution
    /// (`cgmio_io_submit_batch_blocks{proc,drive}`). Values near 1 mean
    /// the submitter is serial (thread-per-drive territory); large
    /// values mean the reactor is amortising and coalescing.
    batch_blocks: Histogram,
    /// Blocks of the current batch not yet physically issued
    /// (`cgmio_io_inflight_depth{proc,drive}`): set to the batch size on
    /// drain, decremented per issued run, 0 between batches — so a
    /// barrier reply (flush) observes an idle gauge.
    inflight: Gauge,
    /// Service time, queue wait (submit of the oldest block → service
    /// start) and payload bytes, one observation per *physical* op — a
    /// coalesced run or a flush, not a block — indexed by [`RunKind`].
    /// Same series and `proc`/`drive`/`kind` labels as the concurrent
    /// engine's, so dashboards and the tuner read either backend.
    service_us: [Histogram; 3],
    queue_wait_us: [Histogram; 3],
    bytes: [Counter; 3],
}

/// Index into [`ReactorObs`]'s per-kind series.
#[derive(Clone, Copy)]
enum RunKind {
    Read,
    Write,
    Flush,
}

impl ReactorObs {
    fn new(obs: &Obs, proc: usize, drive: usize) -> Self {
        let m = obs.metrics();
        let labels = [("proc", proc.to_string()), ("drive", drive.to_string())];
        let kinds = ["read", "write", "flush"];
        let kind_labels = |kind: &str| {
            [("proc", proc.to_string()), ("drive", drive.to_string()), ("kind", kind.to_string())]
        };
        Self {
            batch_blocks: m.histogram("cgmio_io_submit_batch_blocks", &labels),
            inflight: m.gauge("cgmio_io_inflight_depth", &labels),
            service_us: kinds.map(|k| m.histogram("cgmio_io_service_us", &kind_labels(k))),
            queue_wait_us: kinds.map(|k| m.histogram("cgmio_io_queue_wait_us", &kind_labels(k))),
            bytes: kinds.map(|k| m.counter("cgmio_io_bytes_total", &kind_labels(k))),
        }
    }
}

/// A coalescable unit extracted from a drained batch: `start..start+n`
/// consecutive tracks of one kind.
enum Run {
    /// Destinations: `(out_vec_index, position)` per track, so results
    /// route back to their vectored replies in request order.
    Read {
        start: u64,
        stamps: Vec<Stamp>,
        dest: Vec<(usize, usize)>,
    },
    Write {
        start: u64,
        blocks: Vec<WriteBlock>,
    },
}

/// One drive's reactor state.
struct Reactor {
    drive: usize,
    proc: usize,
    io: DriveIo,
    write_err: Arc<Mutex<DeferredErrors>>,
    trace: Option<TraceHandle>,
    retry: RetryPolicy,
    verify: bool,
    obs: Option<Obs>,
    metrics: Option<ReactorObs>,
    retries: Counter,
    deferred_drops: Counter,
    pool: BlockPool,
}

impl Reactor {
    fn run(self, queue: Arc<DriveQueue>) {
        // Expected FNV checksum per track written through this reactor.
        let mut sums: HashMap<u64, u64> = HashMap::new();
        while let Some(batch) = queue.drain() {
            let batch_blocks: usize = batch.iter().map(|op| op.blocks()).sum();
            if let Some(m) = &self.metrics {
                m.batch_blocks.observe(batch_blocks as u64);
                m.inflight.set(batch_blocks as i64);
            }
            self.service(batch, &mut sums);
            if let Some(m) = &self.metrics {
                m.inflight.set(0); // safety net against accounting drift
            }
        }
    }

    /// Service one drained batch: walk entries in FIFO order, grow
    /// maximal adjacent-track same-kind runs across entry boundaries,
    /// and issue each run as one physical op. Flush/discard entries are
    /// ordering barriers — they cut the current run.
    fn service(&self, batch: Vec<AsyncOp>, sums: &mut HashMap<u64, u64>) {
        // Reply routing for the read results of this batch.
        let mut read_replies: Vec<ReadReplySlot> = Vec::new();
        let mut run: Option<Run> = None;
        let flush_run = |run: &mut Option<Run>,
                         read_replies: &mut Vec<ReadReplySlot>,
                         sums: &mut HashMap<u64, u64>| {
            if let Some(r) = run.take() {
                self.issue(r, read_replies, sums);
            }
        };
        for op in batch {
            match op {
                AsyncOp::ReadMany { tracks, reply } => {
                    let out_idx = read_replies.len();
                    let mut slots = Vec::with_capacity(tracks.len());
                    slots.resize_with(tracks.len(), || None);
                    read_replies.push((reply, slots));
                    for (pos, (track, stamp)) in tracks.into_iter().enumerate() {
                        let extend = matches!(
                            &run,
                            Some(Run::Read { start, stamps, .. })
                                if start + stamps.len() as u64 == track
                        );
                        if extend {
                            if let Some(Run::Read { stamps, dest, .. }) = &mut run {
                                stamps.push(stamp);
                                dest.push((out_idx, pos));
                            }
                        } else {
                            flush_run(&mut run, &mut read_replies, sums);
                            run = Some(Run::Read {
                                start: track,
                                stamps: vec![stamp],
                                dest: vec![(out_idx, pos)],
                            });
                        }
                    }
                }
                AsyncOp::WriteMany { blocks, done } => {
                    for block in blocks {
                        let extend = matches!(
                            &run,
                            Some(Run::Write { start, blocks })
                                if start + blocks.len() as u64 == block.track
                        );
                        if extend {
                            if let Some(Run::Write { blocks, .. }) = &mut run {
                                blocks.push(block);
                            }
                        } else {
                            flush_run(&mut run, &mut read_replies, sums);
                            run = Some(Run::Write { start: block.track, blocks: vec![block] });
                        }
                    }
                    // The blocks are issued (possibly merged into a
                    // later entry's run) before the batch ends; signal
                    // completion after the whole batch is serviced via
                    // the deferred senders list.
                    if let Some(tx) = done {
                        // Run issue order within the batch preserves
                        // FIFO per track, so completion at batch end is
                        // correct — but we must only signal after this
                        // block's run is issued. Cut the run here to
                        // keep the signal precise.
                        flush_run(&mut run, &mut read_replies, sums);
                        let _ = tx.send(());
                    }
                }
                AsyncOp::Flush { sync, reply, stamp } => {
                    flush_run(&mut run, &mut read_replies, sums);
                    let start_us = self.now_us();
                    let res = if sync { self.sync_drive() } else { Ok(()) };
                    self.trace_event(OpKind::Flush, 0, 0, stamp, start_us, 0);
                    self.observe(RunKind::Flush, stamp.submit_us, start_us, 0);
                    if let Some(m) = &self.metrics {
                        m.inflight.add(-1);
                    }
                    let _ = reply.send(res);
                }
                AsyncOp::Discard { tracks, reply } => {
                    flush_run(&mut run, &mut read_replies, sums);
                    sums.retain(|t, _| !tracks.contains(t));
                    if let Some(m) = &self.metrics {
                        m.inflight.add(-1);
                    }
                    let _ = reply.send(self.discard_tracks(tracks));
                }
            }
        }
        flush_run(&mut run, &mut read_replies, sums);
        for (reply, slots) in read_replies {
            let out: ReadManyReply =
                slots.into_iter().map(|s| s.expect("every read slot serviced")).collect();
            // The submitter may have abandoned the ticket; not an error.
            let _ = reply.send(out);
        }
    }

    /// Issue one coalesced run as a single physical op (raw path) or a
    /// per-track loop (layered path), tracing each block either way.
    fn issue(&self, run: Run, read_replies: &mut [ReadReplySlot], sums: &mut HashMap<u64, u64>) {
        let start_us = self.now_us();
        // Blocks join a run in FIFO order: its first is its oldest.
        match run {
            Run::Read { start, stamps, dest } => {
                if let Some(m) = &self.metrics {
                    m.inflight.add(-(stamps.len() as i64));
                }
                let submit_us = stamps[0].submit_us;
                let results = self.issue_read(start, stamps, sums);
                let bytes = results.iter().map(|r| r.as_ref().map_or(0, Vec::len)).sum();
                self.observe(RunKind::Read, submit_us, start_us, bytes);
                for ((out_idx, pos), res) in dest.into_iter().zip(results) {
                    read_replies[out_idx].1[pos] = Some(res);
                }
            }
            Run::Write { start, blocks } => {
                if let Some(m) = &self.metrics {
                    m.inflight.add(-(blocks.len() as i64));
                }
                let submit_us = blocks[0].stamp.submit_us;
                let bytes = blocks.iter().map(|b| b.data.len()).sum();
                self.issue_write(start, blocks, sums);
                self.observe(RunKind::Write, submit_us, start_us, bytes);
            }
        }
    }

    /// Record one physical op that began service at `start_us`.
    fn observe(&self, kind: RunKind, submit_us: u64, start_us: u64, bytes: usize) {
        if let Some(m) = &self.metrics {
            let i = kind as usize;
            m.service_us[i].observe(self.now_us().saturating_sub(start_us));
            m.queue_wait_us[i].observe(start_us.saturating_sub(submit_us));
            m.bytes[i].add(bytes as u64);
        }
    }

    fn issue_read(
        &self,
        start: u64,
        stamps: Vec<Stamp>,
        sums: &HashMap<u64, u64>,
    ) -> Vec<io::Result<Vec<u8>>> {
        let n = stamps.len();
        // Raw path: one positioned read of the whole run, split after.
        // On failure (or layered path) fall back to per-track service
        // with retries, so error attribution stays per-track.
        if let DriveIo::Raw(raw) = &self.io {
            let start_us = self.now_us();
            let len = n * raw.block_bytes;
            let mut buf = if raw.direct {
                self.pool.checkout_aligned(len, DIRECT_BUF_ALIGN)
            } else {
                self.pool.checkout(len)
            };
            if raw.read_run(start, &mut buf).is_ok() {
                // Verify the whole run before tracing anything, so a
                // mismatch falls back to the per-track path without
                // leaving duplicate events behind.
                let all_ok = !self.verify
                    || (0..n).all(|i| {
                        self.checksum_ok(
                            start + i as u64,
                            &buf[i * raw.block_bytes..(i + 1) * raw.block_bytes],
                            sums,
                        )
                    });
                if all_ok {
                    return stamps
                        .iter()
                        .enumerate()
                        .map(|(i, stamp)| {
                            let data = buf[i * raw.block_bytes..(i + 1) * raw.block_bytes].to_vec();
                            self.trace_event(
                                OpKind::Read,
                                start + i as u64,
                                data.len(),
                                *stamp,
                                start_us,
                                0,
                            );
                            Ok(data)
                        })
                        .collect();
                }
            }
        }
        (0..n as u64)
            .zip(stamps)
            .map(|(i, stamp)| {
                let track = start + i;
                let start_us = self.now_us();
                let (res, retries) = self.read_verified(track, sums);
                let bytes = res.as_ref().map(|d| d.len()).unwrap_or(0);
                self.trace_event(OpKind::Read, track, bytes, stamp, start_us, retries);
                res
            })
            .collect()
    }

    fn issue_write(&self, start: u64, blocks: Vec<WriteBlock>, sums: &mut HashMap<u64, u64>) {
        // Raw path: assemble the run into one zero-padded buffer and
        // write it with a single positioned call; fall back to the
        // per-track path on failure for per-track error attribution.
        if let DriveIo::Raw(raw) = &self.io {
            let n = blocks.len();
            let len = n * raw.block_bytes;
            let start_us = self.now_us();
            let mut buf = if raw.direct {
                self.pool.checkout_aligned(len, DIRECT_BUF_ALIGN)
            } else {
                self.pool.checkout(len)
            };
            buf.fill(0);
            for (i, b) in blocks.iter().enumerate() {
                buf[i * raw.block_bytes..i * raw.block_bytes + b.data.len()]
                    .copy_from_slice(&b.data);
            }
            if raw.write_run(start, &buf).is_ok() {
                for (i, b) in blocks.iter().enumerate() {
                    if self.verify {
                        sums.insert(
                            b.track,
                            track_checksum(&buf[i * raw.block_bytes..(i + 1) * raw.block_bytes]),
                        );
                    }
                    self.trace_event(OpKind::Write, b.track, b.data.len(), b.stamp, start_us, 0);
                }
                return;
            }
        }
        for WriteBlock { track, data, stamp } in blocks {
            let start_us = self.now_us();
            let bytes = data.len();
            let (res, retries) = self.retry.run(|| self.write_one(track, &data));
            match res {
                Ok(()) => {
                    if self.verify {
                        sums.insert(track, track_checksum(&data));
                    }
                }
                Err(e) => self.defer_error(track, stamp, e),
            }
            self.trace_event(OpKind::Write, track, bytes, stamp, start_us, retries);
        }
    }

    /// Record a failed deferred write: bounded list, overflow counted
    /// and traced — identical contract to the concurrent engine.
    fn defer_error(&self, track: u64, stamp: Stamp, e: io::Error) {
        let mut derr = self.write_err.lock().unwrap();
        if derr.errors.len() < MAX_DEFERRED_WRITE_ERRORS {
            derr.errors.push(DeferredWriteError {
                drive: self.drive,
                track,
                superstep: stamp.superstep,
                kind: classify(&e),
                detail: e.to_string(),
            });
        } else {
            derr.dropped += 1;
            drop(derr);
            self.deferred_drops.inc();
            let now = self.now_us();
            self.trace_event(OpKind::WriteErrorDropped, track, 0, stamp, now, 0);
        }
    }

    fn write_one(&self, track: u64, data: &[u8]) -> io::Result<()> {
        match &self.io {
            DriveIo::Layered(inner) => inner.write_track(self.drive, track, data),
            DriveIo::Raw(raw) => {
                let mut buf = if raw.direct {
                    self.pool.checkout_aligned(raw.block_bytes, DIRECT_BUF_ALIGN)
                } else {
                    self.pool.checkout(raw.block_bytes)
                };
                buf.fill(0);
                buf[..data.len()].copy_from_slice(data);
                raw.write_run(track, &buf)
            }
        }
    }

    fn read_one(&self, track: u64) -> io::Result<Vec<u8>> {
        match &self.io {
            DriveIo::Layered(inner) => inner.read_track(self.drive, track),
            DriveIo::Raw(raw) => {
                let mut buf = if raw.direct {
                    self.pool.checkout_aligned(raw.block_bytes, DIRECT_BUF_ALIGN)
                } else {
                    self.pool.checkout(raw.block_bytes)
                };
                raw.read_run(track, &mut buf)?;
                Ok(buf.to_vec())
            }
        }
    }

    fn read_verified(&self, track: u64, sums: &HashMap<u64, u64>) -> (io::Result<Vec<u8>>, u32) {
        self.retry.run(|| {
            let data = self.read_one(track)?;
            if self.verify && !self.checksum_ok(track, &data, sums) {
                return Err(FaultError {
                    kind: IoErrorKind::Corrupt,
                    disk: self.drive,
                    track,
                    detail: "track checksum mismatch on read".into(),
                }
                .into_io_error());
            }
            Ok(data)
        })
    }

    fn checksum_ok(&self, track: u64, data: &[u8], sums: &HashMap<u64, u64>) -> bool {
        sums.get(&track).is_none_or(|&want| track_checksum(data) == want)
    }

    fn sync_drive(&self) -> io::Result<()> {
        match &self.io {
            DriveIo::Layered(inner) => inner.sync_disk(self.drive),
            DriveIo::Raw(raw) => raw.file.sync_all(),
        }
    }

    fn discard_tracks(&self, tracks: std::ops::Range<u64>) -> io::Result<bool> {
        match &self.io {
            DriveIo::Layered(inner) => inner.discard(self.drive, tracks),
            // Raw files keep the bytes but the contract needs zeros:
            // rewrite the range as zero blocks (bounded by the file's
            // current length, so huge sparse ranges stay cheap).
            DriveIo::Raw(raw) => {
                let used = raw.tracks_used();
                let end = tracks.end.min(used);
                if tracks.start < end {
                    let zeros = vec![0u8; raw.block_bytes];
                    for t in tracks.start..end {
                        raw.write_run(t, &zeros)?;
                    }
                }
                Ok(true)
            }
        }
    }

    fn now_us(&self) -> u64 {
        match (&self.trace, &self.obs) {
            (Some(t), _) => t.now_us(),
            (None, Some(o)) => o.now_us(),
            (None, None) => 0,
        }
    }

    fn trace_event(
        &self,
        kind: OpKind,
        track: u64,
        bytes: usize,
        stamp: Stamp,
        start_us: u64,
        retries: u32,
    ) {
        if retries > 0 {
            self.retries.add(retries as u64);
        }
        if let Some(t) = &self.trace {
            let end_us = self.now_us();
            t.record(TraceEvent {
                seq: stamp.seq,
                proc: self.proc,
                drive: self.drive,
                kind,
                track,
                bytes,
                queue_depth: 0,
                submit_us: stamp.submit_us,
                start_us,
                end_us,
                cache_hit: false,
                retries,
                superstep: stamp.superstep,
                phase: stamp.phase,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_pdm::testutil::TempDir;
    use cgmio_pdm::MemStorage;

    fn raw(dir: &TempDir, d: usize, bb: usize, opts: IoEngineOpts) -> AsyncFileStorage {
        AsyncFileStorage::open_dir(dir.path(), DiskGeometry::new(d, bb), opts).unwrap()
    }

    #[test]
    fn direct_io_roundtrips_with_aligned_buffers() {
        // Sector-multiple geometry, O_DIRECT requested: real direct I/O
        // where the filesystem grants it, silent buffered fallback
        // elsewhere — either way bytes and zero-fill must round-trip.
        let dir = TempDir::new("cgmio-aio-direct");
        let opts = IoEngineOpts { direct_io: true, ..Default::default() };
        let s = raw(&dir, 2, 512, opts);
        let payload: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        let writes: Vec<(TrackAddr, &[u8])> =
            (0..6).map(|t| (TrackAddr::new((t % 2) as usize, t / 2), &payload[..])).collect();
        s.write_scatter(&writes).unwrap();
        s.flush(true).unwrap();
        for t in 0..3u64 {
            assert_eq!(s.read_track(0, t).unwrap(), payload);
            assert_eq!(s.read_track(1, t).unwrap(), payload);
        }
        // Short payload zero-pads, never-written reads as zeros.
        s.write_track(0, 9, &[7u8; 3]).unwrap();
        let mut want = vec![0u8; 512];
        want[..3].copy_from_slice(&[7; 3]);
        assert_eq!(s.read_track(0, 9).unwrap(), want);
        assert_eq!(s.read_track(1, 9).unwrap(), vec![0u8; 512]);
    }

    #[test]
    fn roundtrip_through_reactors() {
        let dir = TempDir::new("cgmio-aio1");
        let s = raw(&dir, 2, 4, IoEngineOpts::default());
        s.write_batch(&[(TrackAddr::new(0, 0), &[1u8, 2][..]), (TrackAddr::new(1, 7), &[3u8][..])])
            .unwrap();
        let r = s.read_batch(&[TrackAddr::new(0, 0), TrackAddr::new(1, 7)]).unwrap();
        assert_eq!(r, vec![vec![1, 2, 0, 0], vec![3, 0, 0, 0]]);
        // unwritten track reads as zeros (zero-fill past EOF)
        assert_eq!(s.read_track(0, 50).unwrap(), vec![0; 4]);
    }

    #[test]
    fn read_after_write_behind_is_coherent() {
        let dir = TempDir::new("cgmio-aio2");
        let s = raw(&dir, 1, 2, IoEngineOpts::default());
        for i in 0..200u8 {
            s.write_track(0, 0, &[i]).unwrap();
            assert_eq!(s.read_track(0, 0).unwrap(), vec![i, 0]);
        }
    }

    #[test]
    fn adjacent_tracks_coalesce_and_roundtrip() {
        let dir = TempDir::new("cgmio-aio3");
        let s = raw(&dir, 1, 4, IoEngineOpts::default());
        // One vectored write of an adjacent run, then a vectored read
        // of the same run — both should coalesce; either way the bytes
        // must round-trip exactly.
        let payloads: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i, i + 1, i + 2]).collect();
        let writes: Vec<(TrackAddr, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(t, p)| (TrackAddr::new(0, t as u64), &p[..]))
            .collect();
        s.write_scatter(&writes).unwrap();
        let addrs: Vec<TrackAddr> = (0..16).map(|t| TrackAddr::new(0, t)).collect();
        let r = s.read_batch(&addrs).unwrap();
        for (i, block) in r.iter().enumerate() {
            assert_eq!(&block[..3], &payloads[i][..], "track {i}");
            assert_eq!(block[3], 0, "zero-padded tail");
        }
        // Non-adjacent and descending lists must also round-trip.
        let scattered = [TrackAddr::new(0, 9), TrackAddr::new(0, 3), TrackAddr::new(0, 4)];
        let r = s.read_batch(&scattered).unwrap();
        assert_eq!(r[0][0], 9);
        assert_eq!(r[1][0], 3);
        assert_eq!(r[2][0], 4);
    }

    #[test]
    fn interleaved_write_read_same_track_is_fifo() {
        let dir = TempDir::new("cgmio-aio4");
        let s = raw(&dir, 1, 2, IoEngineOpts::default());
        // Queue write(5)=a, then read 5, then write(5)=b without any
        // blocking wait between submits: the read must see `a`.
        s.write_track(0, 5, &[0xA]).unwrap();
        let ticket = s.read_scatter_submit(&[TrackAddr::new(0, 5)]).unwrap();
        s.write_track(0, 5, &[0xB]).unwrap();
        let mut got = Vec::new();
        s.read_scatter_wait(ticket, &[TrackAddr::new(0, 5)], &mut |_, b| got.push(b[0])).unwrap();
        assert_eq!(got, vec![0xA]);
        assert_eq!(s.read_track(0, 5).unwrap(), vec![0xB, 0]);
    }

    #[test]
    fn layered_path_services_mem_storage() {
        let geom = DiskGeometry::new(2, 4);
        let inner: Arc<dyn TrackStorage> = Arc::new(MemStorage::new(geom));
        {
            let s = AsyncFileStorage::over(inner.clone(), 2, IoEngineOpts::default());
            s.write_track(1, 3, &[7, 8]).unwrap();
            assert_eq!(s.read_track(1, 3).unwrap(), vec![7, 8, 0, 0]);
            for t in 0..30 {
                s.write_track(0, t, &[9]).unwrap();
            }
            // no flush: Drop must drain
        }
        assert_eq!(inner.tracks_used(), vec![30, 4]);
    }

    #[test]
    fn flush_drains_and_fsyncs_per_durability() {
        let dir = TempDir::new("cgmio-aio5");
        let opts = IoEngineOpts { durability: Durability::SyncPerSuperstep, ..Default::default() };
        let s = raw(&dir, 2, 4, opts);
        for t in 0..20 {
            s.write_batch(&[
                (TrackAddr::new(0, t), &[1u8][..]),
                (TrackAddr::new(1, t), &[2u8][..]),
            ])
            .unwrap();
        }
        s.flush(false).unwrap();
        assert_eq!(s.tracks_used(), vec![20, 20]);
    }

    #[test]
    fn deferred_write_errors_surface_and_stay_bounded() {
        struct FailingWrites;
        impl TrackStorage for FailingWrites {
            fn read_track(&self, _d: usize, _t: u64) -> io::Result<Vec<u8>> {
                Ok(vec![0; 4])
            }
            fn write_track(&self, _d: usize, _t: u64, _data: &[u8]) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
            fn tracks_used(&self) -> Vec<u64> {
                vec![0]
            }
        }
        let s = AsyncFileStorage::over(Arc::new(FailingWrites), 1, IoEngineOpts::default());
        let drops = s.deferred_drop_counter();
        let n = MAX_DEFERRED_WRITE_ERRORS + 3;
        // One scatter call: separate writes could surface the first
        // deferred error early via the sticky check on the write path.
        let writes: Vec<(TrackAddr, &[u8])> =
            (0..n as u64).map(|t| (TrackAddr::new(0, t), &[1u8][..])).collect();
        s.write_scatter(&writes).unwrap();
        let msg = s.flush(false).unwrap_err().to_string();
        assert!(msg.contains("disk full"), "{msg}");
        assert!(msg.contains(&format!("+{} more", n - 1)), "{msg}");
        assert_eq!(drops.get(), 3);
        s.flush(false).unwrap(); // error cleared once surfaced
    }

    #[test]
    fn trace_records_each_block_of_coalesced_runs() {
        let dir = TempDir::new("cgmio-aio6");
        let opts = IoEngineOpts { trace: true, ..Default::default() };
        let s = raw(&dir, 1, 4, opts);
        let t = s.trace_handle().unwrap();
        let writes: Vec<(TrackAddr, &[u8])> =
            (0..8).map(|i| (TrackAddr::new(0, i), &[1u8][..])).collect();
        s.write_scatter(&writes).unwrap();
        s.flush(false).unwrap();
        let addrs: Vec<TrackAddr> = (0..8).map(|i| TrackAddr::new(0, i)).collect();
        s.read_batch(&addrs).unwrap();
        let evs = t.drain();
        assert_eq!(evs.iter().filter(|e| e.kind == OpKind::Write).count(), 8);
        assert_eq!(evs.iter().filter(|e| e.kind == OpKind::Read).count(), 8);
        assert_eq!(evs.iter().filter(|e| e.kind == OpKind::Flush).count(), 1);
    }

    #[test]
    fn obs_records_batch_and_inflight_series() {
        use cgmio_obs::SampleValue;
        let dir = TempDir::new("cgmio-aio7");
        let obs = Obs::new();
        let opts = IoEngineOpts { obs: Some(obs.clone()), ..Default::default() };
        let s = raw(&dir, 1, 4, opts);
        let writes: Vec<(TrackAddr, &[u8])> =
            (0..8).map(|i| (TrackAddr::new(0, i), &[1u8][..])).collect();
        s.write_scatter(&writes).unwrap();
        s.flush(false).unwrap();
        let snap = obs.snapshot();
        match snap.get("cgmio_io_submit_batch_blocks", &[("drive", "0"), ("proc", "0")]) {
            Some(SampleValue::Histogram(h)) => assert!(h.count >= 1, "batches observed"),
            other => panic!("missing batch histogram: {other:?}"),
        }
        match snap.get("cgmio_io_inflight_depth", &[("drive", "0"), ("proc", "0")]) {
            Some(SampleValue::Gauge(v)) => assert_eq!(*v, 0, "idle after flush"),
            other => panic!("missing inflight gauge: {other:?}"),
        }
    }

    #[test]
    fn interoperates_with_sync_file_layout() {
        use cgmio_pdm::FileStorage;
        let dir = TempDir::new("cgmio-aio8");
        let geom = DiskGeometry::new(2, 8);
        {
            let fs = FileStorage::open(dir.path(), geom).unwrap();
            fs.write_track(0, 2, &[5u8; 8]).unwrap();
            fs.write_track(1, 0, &[6u8; 4]).unwrap();
        }
        let s = raw(&dir, 2, 8, IoEngineOpts::default());
        assert_eq!(s.read_track(0, 2).unwrap(), vec![5u8; 8]);
        assert_eq!(&s.read_track(1, 0).unwrap()[..4], &[6u8; 4]);
        s.write_track(0, 3, &[7]).unwrap();
        s.flush(false).unwrap();
        let fs = FileStorage::open(dir.path(), geom).unwrap();
        assert_eq!(fs.read_track(0, 3).unwrap()[0], 7);
    }

    #[test]
    fn discard_zeroes_raw_ranges() {
        let dir = TempDir::new("cgmio-aio9");
        let s = raw(&dir, 1, 4, IoEngineOpts::default());
        for t in 0..6u64 {
            s.write_track(0, t, &[t as u8 + 1]).unwrap();
        }
        assert!(s.discard(0, 2..4).unwrap());
        assert_eq!(s.read_track(0, 2).unwrap(), vec![0; 4]);
        assert_eq!(s.read_track(0, 3).unwrap(), vec![0; 4]);
        assert_eq!(s.read_track(0, 1).unwrap(), vec![2, 0, 0, 0]);
        assert_eq!(s.read_track(0, 4).unwrap(), vec![5, 0, 0, 0]);
    }

    #[test]
    fn checksum_verification_catches_out_of_band_corruption() {
        let dir = TempDir::new("cgmio-aio10");
        let geom = DiskGeometry::new(1, 4);
        let opts = IoEngineOpts { verify_checksums: true, ..Default::default() };
        let s = AsyncFileStorage::open_dir(dir.path(), geom, opts).unwrap();
        s.write_track(0, 0, &[1, 2, 3, 4]).unwrap();
        s.flush(false).unwrap();
        assert_eq!(s.read_track(0, 0).unwrap(), vec![1, 2, 3, 4]);
        // corrupt the backing file behind the reactor's back
        {
            let fs = cgmio_pdm::FileStorage::open(dir.path(), geom).unwrap();
            fs.write_track(0, 0, &[9, 9, 9, 9]).unwrap();
        }
        let e = s.read_track(0, 0).unwrap_err();
        assert_eq!(classify(&e), IoErrorKind::Corrupt);
    }
}
