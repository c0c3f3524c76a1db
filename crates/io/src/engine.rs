//! The queued drive engine: one worker thread + bounded FIFO submission
//! queue per simulated drive, behind [`TrackStorage`].
//!
//! A PDM parallel operation touches at most one track per disk, so the
//! `D` block transfers of one legal operation land on `D` different
//! workers and proceed concurrently — the simulation finally *behaves*
//! like the model it counts: one parallel op ≈ one physical op time.
//!
//! **Front half** (the submitter's side, [`ConcurrentStorage`]): every
//! scatter list becomes one *vectored* queue entry per participating
//! drive, so a compound-superstep transfer of hundreds of blocks can
//! never deadlock against the bounded queue. Writes are write-behind
//! (the call returns once queued; failures are held in a bounded sticky
//! list until the next write or flush surfaces them), reads are
//! split-phase (submit now, redeem the ticket later), prefetch hints
//! are dropped — counted and traced — rather than block on a full queue.
//!
//! **Worker** (one per drive): each wakeup drains *everything* queued
//! and walks the batch in FIFO order, growing maximal runs of
//! adjacent-track same-kind blocks across entry boundaries. A run is
//! handed to the drive's device as one transfer; anything that is not
//! the next track of the same kind cuts the run first — a block of the
//! other kind, a non-adjacent track, a prefetch-cache hit, a `Prefetch`,
//! a `Flush`, a `Discard`. Blocks are therefore serviced strictly in
//! queue order, which gives per-drive FIFO coherence (a read submitted
//! after a write of the same track sees the new bytes) with no locking,
//! and lets read results stream to the oldest open read entry: **an
//! entry's reply is sent the moment its last block is serviced**, never
//! held to the end of the batch, so a read queued ahead of a long
//! write-behind unblocks its submitter before the writes are applied.
//! One op at a time is the batch-of-one case and track by track is the
//! run-of-one case of the same loop.
//!
//! **Devices**: a `Raw` drive file issues a run as one positioned
//! transfer of `run_len * block_bytes` bytes (a context sweep over
//! tracks `t, t+1, …` collapses from `n` syscalls into one); a `Layered`
//! inner [`TrackStorage`] is driven track by track in queue order, so
//! deterministic wrappers beneath (fault injection) see the same
//! per-drive op sequence whatever the batching. A true io_uring device
//! needs raw syscall access the workspace's no-new-dependencies rule
//! does not admit; it would be a third device behind this same seam —
//! the drained batch is exactly what a submission queue wants.
//!
//! Four public constructors pick the device and whether hints are
//! honoured — [`ConcurrentStorage::new`] / [`ConcurrentStorage::open_dir`]
//! (layered, hints per `opts`) and [`crate::AsyncFileStorage::open_dir`]
//! / [`crate::AsyncFileStorage::over`] (raw / layered, hints ignored);
//! `docs/ARCHITECTURE.md`, *Queued drive engine*, tabulates who uses
//! which.
//!
//! Durability: [`Durability::SyncPerSuperstep`] makes every flush fsync
//! the drives (in parallel, one per worker); [`Durability::None`] leaves
//! persistence to the OS page cache. Dropping the engine closes the
//! queues; the workers drain every already-submitted op and are joined.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cgmio_obs::{Counter, Gauge, Histogram, Obs, Phase, PhaseCell};
use cgmio_pdm::{
    classify, BlockPool, DiskGeometry, FaultError, FileStorage, IoErrorKind, PooledBlock,
    TrackAddr, TrackStorage,
};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

use crate::retry::{track_checksum, RetryPolicy};
use crate::trace::{OpKind, TraceEvent, TraceHandle};

/// When data must reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Never fsync; persistence is best-effort (fastest, the default —
    /// the simulation's results don't depend on surviving power loss).
    #[default]
    None,
    /// Every flush (the runners flush once per superstep) fsyncs all
    /// drive files before returning.
    SyncPerSuperstep,
}

/// Tuning knobs for [`ConcurrentStorage`].
#[derive(Debug, Clone)]
pub struct IoEngineOpts {
    /// Capacity of each drive's submission queue; a full queue makes
    /// writers block (backpressure) and prefetch hints get dropped.
    pub queue_depth: usize,
    /// Blocks each drive's prefetch cache may hold (FIFO eviction).
    pub prefetch_cache_blocks: usize,
    /// Durability mode applied on flush.
    pub durability: Durability,
    /// Record an I/O event trace (see [`crate::trace`]).
    pub trace: bool,
    /// Simulated processor index stamped into trace events.
    pub proc: usize,
    /// Retry policy the drive workers apply to transient read/write
    /// faults (see [`crate::retry`]). Retries are counted per op in the
    /// event trace.
    pub retry: RetryPolicy,
    /// Keep an in-memory FNV checksum per written track and verify every
    /// read against it; a mismatch surfaces as an
    /// [`IoErrorKind::Corrupt`] fault instead of silently returning bad
    /// data.
    pub verify_checksums: bool,
    /// Observability handle. When set, the workers record per-drive
    /// service-time histograms, byte/cache-hit/retry counters, and
    /// queue-depth gauges into its registry, and every trace event is
    /// stamped with the `(superstep, phase)` published through the
    /// handle's [`PhaseCell`] by the runner's
    /// spans. `None` (the default) skips all of it.
    pub obs: Option<Obs>,
    /// Silently discard prefetch hints. Demand reads, vectored gathers,
    /// and pre-issued pipeline reads are unaffected — only best-effort
    /// cache-fill hints are dropped. Set by the runners whenever a fault
    /// plan is active: hint traffic is free in the cost model but would
    /// still consume deterministic fault rolls beneath the engine, and
    /// how many hints fire varies with pipeline depth and cache
    /// pressure. Binding faults to demand accesses only keeps injected
    /// fault and retry totals bit-identical at every pipeline depth.
    /// The [`crate::AsyncFileStorage`] constructors always set it.
    pub ignore_hints: bool,
}

impl Default for IoEngineOpts {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            prefetch_cache_blocks: 16,
            durability: Durability::None,
            trace: false,
            proc: 0,
            retry: RetryPolicy::default(),
            verify_checksums: false,
            obs: None,
            ignore_hints: false,
        }
    }
}

/// Submit-time context attached to every queued op: trace sequencing
/// plus the `(superstep, phase)` active at submission. Per-drive FIFO
/// servicing means the submit-time superstep equals the count of
/// barrier flushes the worker has passed when it services the op, so
/// one stamp serves both the trace and deferred-error attribution.
#[derive(Debug, Clone, Copy, Default)]
struct Stamp {
    seq: u64,
    submit_us: u64,
    superstep: u64,
    phase: Phase,
}

impl Stamp {
    /// A zero-byte, zero-duration trace record at `now_us` under this
    /// stamp — a dropped hint or discarded error as is, the base of a
    /// serviced block's record otherwise.
    fn event(self, proc: usize, drive: usize, kind: OpKind, track: u64, now_us: u64) -> TraceEvent {
        TraceEvent {
            seq: self.seq,
            proc,
            drive,
            kind,
            track,
            bytes: 0,
            queue_depth: 0,
            submit_us: self.submit_us,
            start_us: now_us,
            end_us: now_us,
            cache_hit: false,
            retries: 0,
            superstep: self.superstep,
            phase: self.phase,
        }
    }
}

/// One block of a vectored write: payload in a pooled buffer (returned
/// to the pool when the worker drops it after the physical write), with
/// its own trace stamp so per-block events are preserved.
struct WriteBlock {
    track: u64,
    data: PooledBlock,
    stamp: Stamp,
}

/// One result per submitted track, in submission order.
type ReadManyReply = Vec<io::Result<Vec<u8>>>;

/// One queued drive operation; reads and writes are vectored (a whole
/// per-drive scatter list is one queue slot), workers service and trace
/// each block individually. `Discard` reclaims a track range — cached
/// blocks and checksums, then the device's tracks — behind every write
/// submitted before it (FIFO), so it needs no flush barrier.
enum DriveOp {
    ReadMany { tracks: Vec<(u64, Stamp)>, reply: Sender<ReadManyReply> },
    WriteMany { blocks: Vec<WriteBlock> },
    Prefetch { track: u64, stamp: Stamp },
    Flush { sync: bool, reply: Sender<io::Result<()>>, stamp: Stamp },
    Discard { tracks: Range<u64>, reply: Sender<io::Result<bool>> },
}

impl DriveOp {
    /// Blocks this entry contributes to a submission batch.
    fn blocks(&self) -> usize {
        match self {
            DriveOp::ReadMany { tracks, .. } => tracks.len(),
            DriveOp::WriteMany { blocks } => blocks.len(),
            DriveOp::Prefetch { .. } | DriveOp::Flush { .. } | DriveOp::Discard { .. } => 1,
        }
    }
}

/// An in-flight gather read: the request order plus one reply channel
/// per participating drive. Dropping it abandons the read (the workers
/// still service it; the replies go nowhere).
struct ReadTicket {
    addrs: Vec<TrackAddr>,
    replies: Vec<(usize, Receiver<ReadManyReply>)>,
}

/// Write-behind failures held until the next write or flush surfaces
/// them: `(submit-time superstep, error)`, the [`FaultError`] keeping
/// drive, track and the original taxonomy class so `classify()`
/// downstream still distinguishes Transient/Corrupt/Permanent. Retained
/// at most [`MAX_DEFERRED_WRITE_ERRORS`] deep — a sick drive can fail
/// every queued write; the bound caps memory while the `dropped` count
/// (and the engine-wide counter behind
/// [`ConcurrentStorage::deferred_drop_counter`]) preserves how many
/// failures it discarded.
#[derive(Default)]
struct DeferredErrors {
    errors: Vec<(u64, FaultError)>,
    /// Failures discarded because `errors` was already full, since the
    /// last [`ConcurrentStorage::take_write_err`].
    dropped: u64,
}

/// Bound on retained deferred write errors (per engine, across drives).
pub const MAX_DEFERRED_WRITE_ERRORS: usize = 16;

/// What the drive workers transfer against.
enum Device {
    /// One backing file per drive; an adjacent-track run is a single
    /// positioned multi-block transfer.
    Raw(Vec<RawFile>),
    /// Any inner storage, driven track by track in queue order — the
    /// fault-injection, in-memory and shared-pool path.
    Layered(Arc<dyn TrackStorage>),
}

impl Device {
    fn read_track(&self, drive: usize, track: u64) -> io::Result<Vec<u8>> {
        match self {
            Device::Layered(inner) => inner.read_track(drive, track),
            Device::Raw(files) => {
                let mut block = vec![0u8; files[drive].block_bytes];
                files[drive].read_run(track, &mut block)?;
                Ok(block)
            }
        }
    }

    fn write_track(&self, drive: usize, track: u64, data: &[u8]) -> io::Result<()> {
        match self {
            Device::Layered(inner) => inner.write_track(drive, track, data),
            Device::Raw(files) => {
                let mut block = vec![0u8; files[drive].block_bytes];
                block[..data.len()].copy_from_slice(data);
                files[drive].write_run(track, &block)
            }
        }
    }

    fn sync(&self, drive: usize) -> io::Result<()> {
        match self {
            Device::Layered(inner) => inner.sync_disk(drive),
            Device::Raw(files) => files[drive].file.sync_all(),
        }
    }

    fn discard(&self, drive: usize, tracks: Range<u64>) -> io::Result<bool> {
        match self {
            Device::Layered(inner) => inner.discard(drive, tracks),
            // Raw files keep the bytes but the contract needs zeros:
            // rewrite the range as zero blocks (bounded by the file's
            // current length, so huge sparse ranges stay cheap).
            Device::Raw(files) => {
                let raw = &files[drive];
                let zeros = vec![0u8; raw.block_bytes];
                for track in tracks.start..tracks.end.min(raw.tracks_used()) {
                    raw.write_run(track, &zeros)?;
                }
                Ok(true)
            }
        }
    }

    fn tracks_used(&self) -> Vec<u64> {
        match self {
            Device::Layered(inner) => inner.tracks_used(),
            Device::Raw(files) => files.iter().map(RawFile::tracks_used).collect(),
        }
    }
}

/// One drive's backing file, `dir/disk{d}.dat` — the layout of
/// [`FileStorage`], so the two interoperate on the same directory.
struct RawFile {
    file: File,
    block_bytes: usize,
}

impl RawFile {
    fn open(dir: &Path, drive: usize, block_bytes: usize) -> io::Result<Self> {
        let path = dir.join(format!("disk{drive}.dat"));
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Self { file, block_bytes })
    }

    /// Read the consecutive tracks starting at `track` that fill `buf`
    /// (a multiple of `block_bytes` long), zero-filling past EOF.
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

/// [`TrackStorage`] that services each drive from its own worker thread
/// (see the module docs for the queue protocol).
///
/// Drop-in behind `DiskArray::with_storage` — logical I/O accounting is
/// unchanged because the accounting layer sits above the storage trait.
pub struct ConcurrentStorage {
    device: Arc<Device>,
    queues: Vec<Sender<DriveOp>>,
    workers: Vec<JoinHandle<()>>,
    write_err: Arc<Mutex<DeferredErrors>>,
    durability: Durability,
    trace: Option<TraceHandle>,
    proc: usize,
    /// Pool recycling write-behind payload buffers between the engine
    /// (which copies the caller's bytes in at submit) and the drive
    /// workers (which return the buffer on drop after the physical
    /// write) — the submit-side copy is the only one on the write path.
    pool: BlockPool,
    obs: Option<Obs>,
    /// This proc's phase cell, resolved once so the submit path reads
    /// the runner-published `(superstep, phase)` with one atomic load.
    phase: Option<Arc<PhaseCell>>,
    /// Barrier flushes completed — the engine's own superstep counter,
    /// used to stamp ops when no runner is publishing phases.
    superstep: AtomicU64,
    /// Transient-fault retries across all drive workers. Registered as
    /// `cgmio_io_retries_total{proc}` when `obs` is set, detached (but
    /// still counting, for run reports) otherwise.
    retries: Counter,
    /// Per-drive `cgmio_io_prefetch_dropped_total`: hints dropped on a
    /// full queue (detached, still counting, when `obs` is unset).
    prefetch_drops: Vec<Counter>,
    /// Deferred write errors discarded by the bounded retained list,
    /// across all drive workers for the engine's lifetime. Registered
    /// as `cgmio_io_deferred_write_errors_dropped_total{proc}` when
    /// `obs` is set, detached (still counting) otherwise.
    deferred_drops: Counter,
    /// `cgmio_pipeline_stall_us{proc}`: time submitters spent blocked
    /// redeeming read tickets (set iff `obs` is).
    stall: Option<Histogram>,
    /// In-flight reads parked by [`TrackStorage::read_scatter_submit`],
    /// keyed by the opaque ticket ids it hands out.
    pending_reads: Mutex<HashMap<u64, ReadTicket>>,
    /// Ticket-id source for `pending_reads` (ids start at 1; 0 is the
    /// synchronous backends' "no ticket" value).
    next_ticket: AtomicU64,
    /// Discard prefetch hints (see [`IoEngineOpts::ignore_hints`]).
    ignore_hints: bool,
}

impl ConcurrentStorage {
    /// Spin up one worker per drive over an existing backend (normally
    /// a [`FileStorage`]; also memory, fault-injecting and shared-pool
    /// backends), servicing it track by track.
    pub fn new(inner: Arc<dyn TrackStorage>, num_disks: usize, opts: IoEngineOpts) -> Self {
        Self::start(Device::Layered(inner), num_disks, opts)
    }

    /// Open (or create) file-backed drives in `dir` and run them through
    /// the engine, layered over a [`FileStorage`].
    pub fn open_dir(dir: &Path, geom: DiskGeometry, opts: IoEngineOpts) -> io::Result<Self> {
        let fs = FileStorage::open(dir, geom)?;
        Ok(Self::new(Arc::new(fs), geom.num_disks, opts))
    }

    /// Open (or create) one backing file per drive in `dir` and let the
    /// workers own them directly: adjacent-track runs become single
    /// positioned transfers (see [`crate::AsyncFileStorage::open_dir`]).
    pub(crate) fn open_raw(dir: &Path, geom: DiskGeometry, opts: IoEngineOpts) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let files = (0..geom.num_disks)
            .map(|d| RawFile::open(dir, d, geom.block_bytes))
            .collect::<io::Result<_>>()?;
        Ok(Self::start(Device::Raw(files), geom.num_disks, opts))
    }

    fn start(device: Device, num_disks: usize, opts: IoEngineOpts) -> Self {
        let device = Arc::new(device);
        let write_err = Arc::new(Mutex::new(DeferredErrors::default()));
        let trace = opts.trace.then(TraceHandle::new);
        let proc_label = [("proc", opts.proc.to_string())];
        let counter = |name: &str, labels: &[(&str, String)]| match &opts.obs {
            Some(o) => o.metrics().counter(name, labels),
            None => Counter::detached(),
        };
        let retries = counter("cgmio_io_retries_total", &proc_label);
        let deferred_drops = counter("cgmio_io_deferred_write_errors_dropped_total", &proc_label);
        let prefetch_drops = (0..num_disks)
            .map(|drive| {
                counter(
                    "cgmio_io_prefetch_dropped_total",
                    &[("proc", opts.proc.to_string()), ("drive", drive.to_string())],
                )
            })
            .collect();
        let stall = (opts.obs.as_ref())
            .map(|o| o.metrics().histogram("cgmio_pipeline_stall_us", &proc_label));
        let pool = BlockPool::default();
        let mut queues = Vec::with_capacity(num_disks);
        let mut workers = Vec::with_capacity(num_disks);
        for drive in 0..num_disks {
            let (tx, rx) = bounded(opts.queue_depth);
            let worker = Worker {
                drive,
                proc: opts.proc,
                device: device.clone(),
                write_err: write_err.clone(),
                trace: trace.clone(),
                cache_cap: opts.prefetch_cache_blocks,
                retry: opts.retry,
                verify: opts.verify_checksums,
                obs: opts.obs.clone(),
                metrics: opts.obs.as_ref().map(|o| DriveObs::new(o, opts.proc, drive)),
                retries: retries.clone(),
                deferred_drops: deferred_drops.clone(),
                pool: pool.clone(),
                depth: Cell::new(0),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cgmio-io-d{drive}"))
                    .spawn(move || worker.run(rx))
                    .expect("spawn drive worker"),
            );
            queues.push(tx);
        }
        Self {
            device,
            queues,
            workers,
            write_err,
            durability: opts.durability,
            trace,
            proc: opts.proc,
            pool,
            phase: opts.obs.as_ref().map(|o| o.phase_cell(opts.proc as u64)),
            obs: opts.obs,
            superstep: AtomicU64::new(0),
            retries,
            prefetch_drops,
            deferred_drops,
            stall,
            pending_reads: Mutex::new(HashMap::new()),
            next_ticket: AtomicU64::new(1),
            ignore_hints: opts.ignore_hints,
        }
    }

    /// Handle onto the event trace, if `opts.trace` was set. Clone it
    /// before moving the storage into a `DiskArray`.
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.trace.clone()
    }

    /// Handle onto the engine's transient-retry counter. Counts across
    /// all drive workers for the engine's whole lifetime, whether or
    /// not an observability handle is attached.
    pub fn retry_counter(&self) -> Counter {
        self.retries.clone()
    }

    /// Handle onto the count of deferred write errors the bounded
    /// retained list discarded (see [`MAX_DEFERRED_WRITE_ERRORS`]).
    /// Counts across all drive workers for the engine's whole lifetime,
    /// whether or not an observability handle is attached.
    pub fn deferred_drop_counter(&self) -> Counter {
        self.deferred_drops.clone()
    }

    /// Prefetch hints dropped per drive so far (full submission queue).
    pub fn prefetch_drop_counts(&self) -> Vec<u64> {
        self.prefetch_drops.iter().map(Counter::get).collect()
    }

    fn stamp(&self) -> Stamp {
        let (seq, submit_us) = match &self.trace {
            Some(t) => (t.next_seq(), t.now_us()),
            None => (0, self.obs.as_ref().map(|o| o.now_us()).unwrap_or(0)),
        };
        // Prefer the runner-published (superstep, phase); fall back to
        // the engine's own barrier count when nothing is published.
        let (superstep, phase) = match self.phase.as_ref().map(|c| c.get()) {
            Some((step, phase)) if phase != Phase::None => (step, phase),
            _ => (self.superstep.load(Ordering::Relaxed), Phase::None),
        };
        Stamp { seq, submit_us, superstep, phase }
    }

    /// Surface (and clear) deferred write-behind errors. The first
    /// failure carries the typed payload (a permanent fault stays
    /// permanent downstream); further retained or bound-dropped failures
    /// are summarised in the detail, not silently collapsed.
    fn take_write_err(&self) -> io::Result<()> {
        let (mut errors, dropped) = {
            let mut g = self.write_err.lock().expect("workers never panic holding the error list");
            (std::mem::take(&mut g.errors), std::mem::take(&mut g.dropped))
        };
        if errors.is_empty() {
            return Ok(());
        }
        let more = errors.len() as u64 - 1 + dropped;
        let suffix =
            if more > 0 { format!(" (+{more} more deferred write errors)") } else { String::new() };
        let (superstep, first) = errors.remove(0);
        let detail =
            format!("deferred write failed in superstep {superstep}: {}{suffix}", first.detail);
        Err(FaultError { detail, ..first }.into_io_error())
    }

    /// Enqueue on `drive`, blocking while its queue is full. Fails only
    /// when the drive's worker is gone (it panicked).
    fn submit(&self, drive: usize, op: DriveOp) -> io::Result<()> {
        self.queues[drive]
            .send(op)
            .map_err(|_| io::Error::other(format!("drive {drive} worker is gone")))
    }

    /// Await a worker's answer. The reply channel closing without one
    /// means the worker died with the op queued or in hand.
    fn reply<T>(drive: usize, rx: &Receiver<T>, what: &str) -> io::Result<T> {
        rx.recv().map_err(|_| io::Error::other(format!("drive {drive} worker died mid-{what}")))
    }

    /// Start a gather read without waiting for it: one vectored read
    /// per participating drive, transfers running on the workers while
    /// the caller computes. This is the pipelined runners' demand
    /// pre-read — unlike [`TrackStorage::prefetch`] it runs to
    /// completion, is never dropped, and its result is delivered
    /// directly instead of through the bounded prefetch cache.
    fn submit_gather(&self, addrs: &[TrackAddr]) -> io::Result<ReadTicket> {
        let mut groups: Vec<Vec<(u64, Stamp)>> = vec![Vec::new(); self.queues.len()];
        for a in addrs {
            groups[a.disk].push((a.track, self.stamp()));
        }
        let mut replies = Vec::new();
        for (drive, tracks) in groups.into_iter().enumerate() {
            if !tracks.is_empty() {
                let (tx, rx) = bounded(1);
                self.submit(drive, DriveOp::ReadMany { tracks, reply: tx })?;
                replies.push((drive, rx));
            }
        }
        Ok(ReadTicket { addrs: addrs.to_vec(), replies })
    }

    /// Block until every transfer of `ticket` has completed and return
    /// the blocks in request order. Time spent blocked here (the
    /// submitter out-ran the drives) is the pipeline stall.
    fn wait(&self, ticket: ReadTicket) -> io::Result<Vec<Vec<u8>>> {
        let stall = self.obs.as_ref().zip(self.stall.as_ref()).map(|(o, h)| (o, h, o.now_us()));
        let mut per_drive: Vec<std::vec::IntoIter<io::Result<Vec<u8>>>> =
            self.queues.iter().map(|_| Vec::new().into_iter()).collect();
        for (drive, rx) in &ticket.replies {
            per_drive[*drive] = Self::reply(*drive, rx, "read")?.into_iter();
        }
        if let Some((obs, hist, from)) = stall {
            hist.observe(obs.now_us().saturating_sub(from));
        }
        ticket
            .addrs
            .iter()
            .map(|a| per_drive[a.disk].next().expect("one result per submitted track"))
            .collect()
    }

    fn submit_flush(&self, drive: usize, sync: bool) -> io::Result<Receiver<io::Result<()>>> {
        let (tx, rx) = bounded(1);
        self.submit(drive, DriveOp::Flush { sync, reply: tx, stamp: self.stamp() })?;
        Ok(rx)
    }

    /// Queue a flush on every drive and wait for all of them: every op
    /// submitted before this call has been applied when it returns.
    /// `barrier` counts it as a superstep boundary — ops submitted
    /// afterwards are stamped with the next superstep.
    fn drain(&self, fsync: bool, barrier: bool) -> io::Result<()> {
        let replies = (0..self.queues.len())
            .map(|drive| self.submit_flush(drive, fsync))
            .collect::<io::Result<Vec<_>>>()?;
        if barrier {
            self.superstep.fetch_add(1, Ordering::Relaxed);
        }
        for (drive, rx) in replies.iter().enumerate() {
            Self::reply(drive, rx, "flush")??;
        }
        Ok(())
    }
}

impl TrackStorage for ConcurrentStorage {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        let mut blocks = self.wait(self.submit_gather(&[TrackAddr::new(disk, track)])?)?;
        Ok(blocks.pop().expect("one block per address"))
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        self.write_scatter(&[(TrackAddr::new(disk, track), data)])
    }

    /// Vectored scatter read: one submission per participating drive,
    /// any number of tracks per drive, every read submitted before any
    /// reply is awaited (the transfers overlap across drives), blocks
    /// handed to `f` in request order. Submit-then-wait issues the same
    /// per-drive sequences as the split-phase path, so pipelined and
    /// serial executions see identical per-track operation orders.
    fn read_scatter_with(
        &self,
        addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        for (i, block) in self.wait(self.submit_gather(addrs)?)?.into_iter().enumerate() {
            f(i, &block);
        }
        Ok(())
    }

    /// Vectored write-behind: the whole scatter list becomes one
    /// submission per participating drive and the call returns once all
    /// are queued. Payloads are copied once into pooled buffers the
    /// workers recycle; this is the only copy between the caller's
    /// staging buffer and the device. Errors from earlier deferred
    /// writes surface here (or at flush).
    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> io::Result<()> {
        self.take_write_err()?;
        let mut groups: Vec<Vec<WriteBlock>> = self.queues.iter().map(|_| Vec::new()).collect();
        for (a, data) in writes {
            let stamp = self.stamp();
            let mut block = self.pool.checkout(data.len());
            block.copy_from_slice(data);
            groups[a.disk].push(WriteBlock { track: a.track, data: block, stamp });
        }
        for (drive, blocks) in groups.into_iter().enumerate() {
            if !blocks.is_empty() {
                self.submit(drive, DriveOp::WriteMany { blocks })?;
            }
        }
        Ok(())
    }

    /// Split-phase gather read behind the type-erased storage trait:
    /// parks the in-flight read in the engine's pending map and hands
    /// back its id, so `DiskArray` can charge the cost model at submit
    /// time and redeem the ticket later via
    /// [`TrackStorage::read_scatter_wait`]. A ticket that is never
    /// redeemed is dropped when its tracks are discarded.
    fn read_scatter_submit(&self, addrs: &[TrackAddr]) -> io::Result<u64> {
        let ticket = self.submit_gather(addrs)?;
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        self.pending_reads.lock().expect("ticket map stays valid").insert(id, ticket);
        Ok(id)
    }

    fn read_scatter_wait(
        &self,
        ticket: u64,
        _addrs: &[TrackAddr],
        f: &mut dyn FnMut(usize, &[u8]),
    ) -> io::Result<()> {
        let pending = (self.pending_reads.lock().expect("ticket map stays valid"))
            .remove(&ticket)
            .ok_or_else(|| io::Error::other("unknown or already-redeemed read ticket"))?;
        for (i, block) in self.wait(pending)?.into_iter().enumerate() {
            f(i, &block);
        }
        Ok(())
    }

    /// Best-effort hint; a full queue drops it rather than blocking —
    /// but a drop is counted per drive and traced, so prefetch
    /// effectiveness analysis sees the hints that went missing.
    /// Discarded wholesale under [`IoEngineOpts::ignore_hints`].
    fn prefetch(&self, addrs: &[TrackAddr]) {
        if self.ignore_hints {
            return;
        }
        for a in addrs {
            let stamp = self.stamp();
            match self.queues[a.disk].try_send(DriveOp::Prefetch { track: a.track, stamp }) {
                Ok(()) | Err(TrySendError::Disconnected(_)) => {}
                Err(TrySendError::Full(_)) => {
                    self.prefetch_drops[a.disk].inc();
                    if let Some(t) = &self.trace {
                        let kind = OpKind::PrefetchDropped;
                        t.record(TraceEvent {
                            queue_depth: self.queues[a.disk].len(),
                            ..stamp.event(self.proc, a.disk, kind, a.track, t.now_us())
                        });
                    }
                }
            }
        }
    }

    /// Drain every drive's queue (in parallel), fsync when the
    /// durability mode demands it, and surface deferred write errors.
    /// The flush ops belong to the superstep they close.
    fn flush(&self, sync: bool) -> io::Result<()> {
        self.drain(sync || self.durability == Durability::SyncPerSuperstep, true)?;
        self.take_write_err()
    }

    fn sync_disk(&self, disk: usize) -> io::Result<()> {
        Self::reply(disk, &self.submit_flush(disk, true)?, "sync")?
    }

    /// Reclamation runs on the drive worker behind every already-queued
    /// write (FIFO coherence, like reads), and the worker drops its
    /// prefetch-cache and checksum entries for the range before
    /// reclaiming on the device — so a later tenant of the same tracks
    /// can never be served a stale cached block. Parked read tickets
    /// touching the range are dropped too: whoever discards a window
    /// will not redeem reads of it (a failed superstep abandons its
    /// pre-issued reads), and on a long-lived shared engine they would
    /// otherwise hold their block payloads for ever.
    fn discard(&self, disk: usize, tracks: Range<u64>) -> io::Result<bool> {
        (self.pending_reads.lock().expect("ticket map stays valid")).retain(|_, ticket| {
            !ticket.addrs.iter().any(|a| a.disk == disk && tracks.contains(&a.track))
        });
        let (tx, rx) = bounded(1);
        self.submit(disk, DriveOp::Discard { tracks, reply: tx })?;
        Self::reply(disk, &rx, "discard")?
    }

    fn tracks_used(&self) -> Vec<u64> {
        // Drain pending writes so file lengths are current — without
        // counting a barrier (a diagnostic call must not shift the
        // superstep later ops are stamped with); a deferred error stays
        // sticky for the next write/flush to report.
        let _ = self.drain(false, false);
        self.device.tracks_used()
    }
}

impl Drop for ConcurrentStorage {
    /// Graceful shutdown: close the queues, let every worker drain its
    /// remaining submitted ops, and join them.
    fn drop(&mut self) {
        self.queues.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Per-drive metric handles, resolved once at worker spawn so the hot
/// path never touches the registry map.
struct DriveObs {
    /// Blocks per queue drain (`cgmio_io_submit_batch_blocks`). Values
    /// near 1 mean the submitter is serial; large values mean the
    /// worker is amortising wakeups and, on a raw device, coalescing.
    batch_blocks: Histogram,
    /// Blocks of the current batch not yet issued
    /// (`cgmio_io_inflight_depth`): the batch size on drain, down by
    /// each issued run or op, 0 between batches — so a barrier reply
    /// (flush) observes an idle gauge.
    inflight: Gauge,
    /// Service time, queue wait (submit of the oldest block → service
    /// start) and payload bytes, one observation per *device transfer* —
    /// a raw run, or one track of a layered device — indexed by
    /// [`DriveObs::kind_idx`]. Service time says how slow the medium
    /// is; queue wait says how far behind the drive is — the
    /// pipeline-depth tuning signal.
    service_us: [Histogram; 4],
    queue_wait_us: [Histogram; 4],
    bytes: [Counter; 4],
    queue_depth: Gauge,
    cache_hits: Counter,
}

impl DriveObs {
    fn new(obs: &Obs, proc: usize, drive: usize) -> Self {
        let m = obs.metrics();
        let drive_labels = [("proc", proc.to_string()), ("drive", drive.to_string())];
        let kinds = ["read", "write", "prefetch", "flush"];
        let labels = |kind: &str| {
            [("proc", proc.to_string()), ("drive", drive.to_string()), ("kind", kind.to_string())]
        };
        Self {
            batch_blocks: m.histogram("cgmio_io_submit_batch_blocks", &drive_labels),
            inflight: m.gauge("cgmio_io_inflight_depth", &drive_labels),
            service_us: kinds.map(|k| m.histogram("cgmio_io_service_us", &labels(k))),
            queue_wait_us: kinds.map(|k| m.histogram("cgmio_io_queue_wait_us", &labels(k))),
            bytes: kinds.map(|k| m.counter("cgmio_io_bytes_total", &labels(k))),
            queue_depth: m.gauge("cgmio_io_queue_depth", &drive_labels),
            cache_hits: m.counter("cgmio_io_cache_hits_total", &drive_labels),
        }
    }

    fn kind_idx(kind: OpKind) -> usize {
        match kind {
            OpKind::Read => 0,
            OpKind::Write | OpKind::WriteErrorDropped => 1,
            OpKind::Prefetch | OpKind::PrefetchDropped => 2,
            OpKind::Flush => 3,
        }
    }
}

/// A `ReadMany` entry whose blocks are still being serviced.
struct OpenRead {
    reply: Sender<ReadManyReply>,
    want: usize,
    out: ReadManyReply,
}

/// One worker's mutable state: caches plus the run being grown.
#[derive(Default)]
struct DriveState {
    /// Prefetch cache: worker-local, so no locks. FIFO eviction.
    cache: HashMap<u64, Vec<u8>>,
    order: VecDeque<u64>,
    /// Expected FNV checksum per track this engine has written
    /// (worker-local: this worker services every op for its drive).
    sums: HashMap<u64, u64>,
    /// Read entries awaiting blocks, oldest first. Blocks are serviced
    /// in queue order, so every result belongs to the front entry.
    open: VecDeque<OpenRead>,
    /// The current run: consecutive tracks from `run_start`, either
    /// reads or writes — at most one of the two lists is non-empty.
    run_start: u64,
    run_reads: Vec<Stamp>,
    run_writes: Vec<WriteBlock>,
}

impl DriveState {
    /// Hand the next serviced read block to its entry; an entry whose
    /// last block this is replies at once.
    fn deliver(&mut self, res: io::Result<Vec<u8>>) {
        let entry = self.open.front_mut().expect("a read block belongs to an open entry");
        entry.out.push(res);
        if entry.out.len() == entry.want {
            let done = self.open.pop_front().expect("front exists");
            // The submitter may have abandoned the ticket; a closed
            // reply channel is not an error.
            let _ = done.reply.send(done.out);
        }
    }

    /// Does the recorded checksum (if any) of `track` match `data`?
    /// Tracks this engine never wrote have no expectation and pass.
    fn checksum_ok(&self, track: u64, data: &[u8]) -> bool {
        self.sums.get(&track).is_none_or(|&want| track_checksum(data) == want)
    }
}

/// Per-drive worker context.
struct Worker {
    drive: usize,
    proc: usize,
    device: Arc<Device>,
    write_err: Arc<Mutex<DeferredErrors>>,
    trace: Option<TraceHandle>,
    /// Prefetch-cache capacity in blocks (0: hints cache nothing).
    cache_cap: usize,
    retry: RetryPolicy,
    verify: bool,
    obs: Option<Obs>,
    metrics: Option<DriveObs>,
    retries: Counter,
    deferred_drops: Counter,
    /// Staging for raw multi-block transfers.
    pool: BlockPool,
    /// Entries of the drained batch still behind the one in service.
    depth: Cell<usize>,
}

impl Worker {
    fn run(self, rx: Receiver<DriveOp>) {
        let mut st = DriveState::default();
        let mut batch = Vec::new();
        // recv() keeps returning already-queued ops after the engine
        // dropped its senders, then errors out — the graceful shutdown.
        while let Ok(op) = rx.recv() {
            batch.push(op);
            while let Ok(op) = rx.try_recv() {
                batch.push(op);
            }
            if let Some(m) = &self.metrics {
                let blocks: usize = batch.iter().map(DriveOp::blocks).sum();
                m.batch_blocks.observe(blocks as u64);
                m.inflight.set(blocks as i64);
            }
            self.service(&mut st, &mut batch);
        }
    }

    /// Service one drained batch in FIFO order (see the module docs for
    /// the run-cutting and reply rules).
    fn service(&self, st: &mut DriveState, batch: &mut Vec<DriveOp>) {
        let entries = batch.len();
        for (i, op) in batch.drain(..).enumerate() {
            self.depth.set(entries - 1 - i);
            match op {
                DriveOp::ReadMany { tracks, reply } => {
                    let want = tracks.len();
                    st.open.push_back(OpenRead { reply, want, out: Vec::with_capacity(want) });
                    for (track, stamp) in tracks {
                        if let Some(data) = st.cache.get(&track).cloned() {
                            self.issue(st);
                            let start_us = self.now_us();
                            self.observe(OpKind::Read, stamp.submit_us, start_us, data.len());
                            self.trace(OpKind::Read, track, data.len(), stamp, start_us, true, 0);
                            self.issued(1);
                            st.deliver(Ok(data));
                            continue;
                        }
                        if st.run_reads.is_empty()
                            || st.run_start + st.run_reads.len() as u64 != track
                        {
                            self.issue(st);
                            st.run_start = track;
                        }
                        st.run_reads.push(stamp);
                    }
                }
                DriveOp::WriteMany { blocks } => {
                    for block in blocks {
                        // FIFO order makes later reads see this write;
                        // the cache entry is stale either way — drop it.
                        if st.cache.remove(&block.track).is_some() {
                            st.order.retain(|&t| t != block.track);
                        }
                        if st.run_writes.is_empty()
                            || st.run_start + st.run_writes.len() as u64 != block.track
                        {
                            self.issue(st);
                            st.run_start = block.track;
                        }
                        st.run_writes.push(block);
                    }
                }
                DriveOp::Prefetch { track, stamp } => {
                    self.issue(st);
                    self.prefetch(st, track, stamp);
                    self.issued(1);
                }
                DriveOp::Flush { sync, reply, stamp } => {
                    self.issue(st);
                    let start_us = self.now_us();
                    let res = if sync { self.device.sync(self.drive) } else { Ok(()) };
                    self.observe(OpKind::Flush, stamp.submit_us, start_us, 0);
                    self.trace(OpKind::Flush, 0, 0, stamp, start_us, false, 0);
                    self.issued(1);
                    let _ = reply.send(res);
                }
                DriveOp::Discard { tracks, reply } => {
                    self.issue(st);
                    st.cache.retain(|t, _| !tracks.contains(t));
                    st.order.retain(|t| !tracks.contains(t));
                    st.sums.retain(|t, _| !tracks.contains(t));
                    self.issued(1);
                    let _ = reply.send(self.device.discard(self.drive, tracks));
                }
            }
        }
        self.issue(st);
    }

    /// Hand the current run (if any) to the device.
    fn issue(&self, st: &mut DriveState) {
        if !st.run_reads.is_empty() {
            let mut stamps = std::mem::take(&mut st.run_reads);
            self.issued(stamps.len());
            self.read_run(st, &stamps);
            stamps.clear();
            st.run_reads = stamps;
        } else if !st.run_writes.is_empty() {
            let mut blocks = std::mem::take(&mut st.run_writes);
            self.issued(blocks.len());
            self.write_run(st, &mut blocks);
            st.run_writes = blocks;
        }
    }

    /// Read the run of `stamps.len()` tracks from `st.run_start`: one
    /// positioned transfer on a raw device, split into blocks after; per
    /// track — with retries, so error attribution stays per track — on a
    /// layered device or when the run transfer fails or fails to verify.
    fn read_run(&self, st: &mut DriveState, stamps: &[Stamp]) {
        let start = st.run_start;
        if let Device::Raw(files) = &*self.device {
            let bb = files[self.drive].block_bytes;
            let start_us = self.now_us();
            let mut buf = self.pool.checkout(stamps.len() * bb);
            // Verify the whole run before tracing anything, so a
            // mismatch falls back without leaving duplicate events.
            if files[self.drive].read_run(start, &mut buf).is_ok()
                && buf.chunks(bb).zip(start..).all(|(block, track)| st.checksum_ok(track, block))
            {
                self.observe(OpKind::Read, stamps[0].submit_us, start_us, buf.len());
                for ((block, stamp), track) in buf.chunks(bb).zip(stamps).zip(start..) {
                    self.trace(OpKind::Read, track, bb, *stamp, start_us, false, 0);
                    st.deliver(Ok(block.to_vec()));
                }
                return;
            }
        }
        for (stamp, track) in stamps.iter().zip(start..) {
            let start_us = self.now_us();
            let (res, retries) = self.read_verified(st, track);
            let bytes = res.as_ref().map_or(0, Vec::len);
            // Record before replying so a caller that observed the
            // result also observes the event.
            self.observe(OpKind::Read, stamp.submit_us, start_us, bytes);
            self.trace(OpKind::Read, track, bytes, *stamp, start_us, false, retries);
            st.deliver(res);
        }
    }

    /// Write the run of `blocks` from `st.run_start`: assembled into one
    /// zero-padded buffer and written with a single positioned call on a
    /// raw device; per track (retries, per-track deferred errors) on a
    /// layered one or when the run transfer fails. Each payload buffer
    /// returns to the engine's pool as its block is dropped.
    fn write_run(&self, st: &mut DriveState, blocks: &mut Vec<WriteBlock>) {
        if let Device::Raw(files) = &*self.device {
            let bb = files[self.drive].block_bytes;
            let start_us = self.now_us();
            let mut buf = self.pool.checkout(blocks.len() * bb);
            for (slot, b) in buf.chunks_mut(bb).zip(blocks.iter()) {
                slot[..b.data.len()].copy_from_slice(&b.data);
                slot[b.data.len()..].fill(0);
            }
            if files[self.drive].write_run(st.run_start, &buf).is_ok() {
                let bytes = blocks.iter().map(|b| b.data.len()).sum();
                self.observe(OpKind::Write, blocks[0].stamp.submit_us, start_us, bytes);
                for b in blocks.drain(..) {
                    if self.verify {
                        st.sums.insert(b.track, track_checksum(&b.data));
                    }
                    self.trace(OpKind::Write, b.track, b.data.len(), b.stamp, start_us, false, 0);
                }
                return;
            }
        }
        for WriteBlock { track, data, stamp } in blocks.drain(..) {
            let start_us = self.now_us();
            let (res, retries) =
                self.retry.run(|| self.device.write_track(self.drive, track, &data));
            match res {
                Ok(()) => {
                    if self.verify {
                        st.sums.insert(track, track_checksum(&data));
                    }
                }
                Err(e) => self.defer_error(track, stamp, e),
            }
            self.observe(OpKind::Write, stamp.submit_us, start_us, data.len());
            self.trace(OpKind::Write, track, data.len(), stamp, start_us, false, retries);
        }
    }

    /// Service a hint: fetch `track` into the cache unless it is there
    /// already or caching is off. Failed prefetches are dropped (no
    /// retry): the demand read retries and reports any real error.
    fn prefetch(&self, st: &mut DriveState, track: u64, stamp: Stamp) {
        let start_us = self.now_us();
        let hit = st.cache.contains_key(&track);
        let cap = self.cache_cap;
        let mut bytes = 0;
        if !hit && cap > 0 {
            if let Ok(data) = self.device.read_track(self.drive, track) {
                if st.checksum_ok(track, &data) {
                    bytes = data.len();
                    if st.order.len() >= cap {
                        if let Some(old) = st.order.pop_front() {
                            st.cache.remove(&old);
                        }
                    }
                    st.cache.insert(track, data);
                    st.order.push_back(track);
                }
            }
        }
        self.observe(OpKind::Prefetch, stamp.submit_us, start_us, bytes);
        self.trace(OpKind::Prefetch, track, bytes, stamp, start_us, hit, 0);
    }

    /// Demand read with transient-fault retries and checksum
    /// verification. A mismatch is a [`IoErrorKind::Corrupt`] fault and
    /// is *not* retried — a re-read returns the same bytes.
    fn read_verified(&self, st: &DriveState, track: u64) -> (io::Result<Vec<u8>>, u32) {
        self.retry.run(|| {
            let data = self.device.read_track(self.drive, track)?;
            if !st.checksum_ok(track, &data) {
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

    /// Retain a failed write-behind for the next write or flush to
    /// surface; past the bound, count and trace the discarded failure.
    fn defer_error(&self, track: u64, stamp: Stamp, e: io::Error) {
        let mut derr = self.write_err.lock().expect("error list stays valid");
        if derr.errors.len() < MAX_DEFERRED_WRITE_ERRORS {
            let (kind, disk, detail) = (classify(&e), self.drive, e.to_string());
            derr.errors.push((stamp.superstep, FaultError { kind, disk, track, detail }));
        } else {
            derr.dropped += 1;
            drop(derr);
            self.deferred_drops.inc();
            if let Some(t) = &self.trace {
                let kind = OpKind::WriteErrorDropped;
                t.record(TraceEvent {
                    queue_depth: self.depth.get(),
                    ..stamp.event(self.proc, self.drive, kind, track, t.now_us())
                });
            }
        }
    }

    /// Worker timebase: the trace epoch when tracing, else the obs
    /// epoch (so service histograms work with tracing off), else 0.
    fn now_us(&self) -> u64 {
        match (&self.trace, &self.obs) {
            (Some(t), _) => t.now_us(),
            (None, Some(o)) => o.now_us(),
            (None, None) => 0,
        }
    }

    /// `n` blocks of the current batch have left the queue stage.
    fn issued(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.inflight.add(-(n as i64));
        }
    }

    /// Trace one serviced block; count its retries and cache hit.
    #[allow(clippy::too_many_arguments)]
    fn trace(
        &self,
        kind: OpKind,
        track: u64,
        bytes: usize,
        stamp: Stamp,
        start_us: u64,
        cache_hit: bool,
        retries: u32,
    ) {
        if retries > 0 {
            self.retries.add(retries as u64);
        }
        if let (true, Some(m)) = (cache_hit, &self.metrics) {
            m.cache_hits.inc();
        }
        if let Some(t) = &self.trace {
            t.record(TraceEvent {
                bytes,
                queue_depth: self.depth.get(),
                start_us,
                cache_hit,
                retries,
                ..stamp.event(self.proc, self.drive, kind, track, t.now_us())
            });
        }
    }

    /// Record one device transfer that began service at `start_us`.
    fn observe(&self, kind: OpKind, submit_us: u64, start_us: u64, bytes: usize) {
        if let Some(m) = &self.metrics {
            let i = DriveObs::kind_idx(kind);
            m.service_us[i].observe(self.now_us().saturating_sub(start_us));
            m.queue_wait_us[i].observe(start_us.saturating_sub(submit_us));
            m.bytes[i].add(bytes as u64);
            m.queue_depth.set(self.depth.get() as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{contract_tests, Make, Over, Rig, Script};
    use crate::trace::summarize;
    use cgmio_pdm::MemStorage;
    use std::sync::atomic::Ordering::SeqCst;

    const MEM: Make =
        |_, g, opts| ConcurrentStorage::new(Arc::new(MemStorage::new(g)), g.num_disks, opts);
    const DIR: Make = |dir, g, opts| ConcurrentStorage::open_dir(dir, g, opts).unwrap();
    const OVER: Over = ConcurrentStorage::new;

    contract_tests! {
        roundtrip_through_workers: roundtrip(MEM), roundtrip(DIR);
        read_after_write_behind_is_coherent: coherent(MEM), coherent(DIR);
        interleaved_write_read_same_track_is_fifo: interleaved_fifo(MEM), interleaved_fifo(DIR);
        scatter_paths_roundtrip_many_blocks_per_drive: scatter_many(MEM), scatter_many(DIR);
        discard_zeroes_and_drops_cache_and_checksums: discard_zeroes(MEM), discard_zeroes(DIR);
        trace_records_each_block_in_submission_order: trace_per_block(MEM), trace_per_block(DIR);
        obs_records_metrics_and_stamps_trace_with_published_phase:
            obs_series_and_stamps(MEM), obs_series_and_stamps(DIR);
        works_behind_disk_array_with_identical_accounting:
            behind_disk_array(MEM), behind_disk_array(DIR);
        discard_drops_parked_read_tickets:
            discard_drops_parked_tickets(MEM), discard_drops_parked_tickets(DIR);
        flush_drains_write_behind: flush_drains(OVER);
        durability_mode_fsyncs_on_flush: fsync_per_durability(OVER);
        drop_drains_in_flight_writes: drop_drains(OVER);
        deferred_write_error_is_sticky_until_surfaced: deferred_sticky(OVER);
        deferred_error_names_drive_track_and_superstep: deferred_named(OVER);
        deferred_errors_are_bounded_not_silently_dropped: deferred_bounded(OVER);
        deferred_write_error_keeps_fault_taxonomy: deferred_taxonomy(OVER);
        workers_retry_injected_transient_faults: retries_traced(OVER);
        retry_counter_counts_without_obs_attached: retries_counted_without_obs(OVER);
        torn_writes_heal_under_retry_and_pass_checksums: torn_writes_heal(OVER);
        checksum_mismatch_surfaces_as_corrupt: checksum_corrupt(OVER);
        read_reply_is_not_held_behind_queued_writes: early_read_reply(OVER);
        worker_panic_is_a_typed_error_on_that_drive_only: worker_panic(OVER);
    }

    // The prefetch cache exists on the hinted constructors only.

    fn hinted(d: usize, bb: usize, opts: IoEngineOpts) -> ConcurrentStorage {
        ConcurrentStorage::new(Arc::new(MemStorage::new(DiskGeometry::new(d, bb))), d, opts)
    }

    fn read_hits(t: &TraceHandle) -> Vec<bool> {
        t.snapshot().iter().filter(|e| e.kind == OpKind::Read).map(|e| e.cache_hit).collect()
    }

    #[test]
    fn prefetch_hits_cache_and_write_invalidates() {
        let s = hinted(1, 2, IoEngineOpts { trace: true, ..Default::default() });
        let t = s.trace_handle().unwrap();
        s.write_track(0, 3, &[9]).unwrap();
        s.prefetch(&[TrackAddr::new(0, 3)]);
        s.flush(false).unwrap();
        assert_eq!(s.read_track(0, 3).unwrap(), vec![9, 0]);
        // write invalidates; next read must see fresh data, not cache
        s.write_track(0, 3, &[8]).unwrap();
        assert_eq!(s.read_track(0, 3).unwrap(), vec![8, 0]);
        assert_eq!(read_hits(&t), vec![true, false], "prefetched read hits, post-write misses");
    }

    #[test]
    fn prefetch_cache_of_zero_blocks_caches_no_hint() {
        let opts = IoEngineOpts { trace: true, prefetch_cache_blocks: 0, ..Default::default() };
        let s = hinted(1, 2, opts);
        let t = s.trace_handle().unwrap();
        s.write_track(0, 0, &[7]).unwrap();
        s.prefetch(&[TrackAddr::new(0, 0)]);
        s.flush(false).unwrap();
        assert_eq!(s.read_track(0, 0).unwrap(), vec![7, 0]);
        assert_eq!(read_hits(&t), vec![false], "a zero-block cache keeps no hinted block");
    }

    #[test]
    fn dropped_prefetch_hints_are_counted_and_traced() {
        // Reads block until released: the queue fills up behind the
        // stuck op, so later hints must drop.
        let inner = Rig::new(1, 4, Script::default());
        inner.hold_reads.store(true, SeqCst);
        let opts = IoEngineOpts { queue_depth: 2, trace: true, ..Default::default() };
        let s = ConcurrentStorage::new(inner.clone(), 1, opts);
        let t = s.trace_handle().unwrap();
        for i in 0..=20u64 {
            s.prefetch(&[TrackAddr::new(0, i)]);
        }
        let drops = s.prefetch_drop_counts()[0];
        assert!(drops > 0, "a 2-deep queue cannot absorb 21 hints");
        inner.hold_reads.store(false, SeqCst);
        s.flush(false).unwrap();
        assert_eq!(summarize(&t.snapshot()).prefetch_drops as u64, drops, "every drop is traced");
    }
}
