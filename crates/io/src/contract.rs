#![cfg(test)]
//! The queued drive engine's behavioural contract, written once. Each
//! facade's test module runs it over its own constructors through
//! [`contract_tests!`]: a `Make` builds the engine over its own memory
//! or directory backing, an `Over` layers it over a given storage.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use cgmio_obs::{Obs, Phase, SampleValue};
use cgmio_pdm::testutil::TempDir;
use cgmio_pdm::{classify, DiskArray, DiskGeometry, FaultError, FaultInjector, FaultPlan};
use cgmio_pdm::{IoErrorKind, MemStorage, TrackAddr, TrackStorage};

use crate::trace::{summarize, OpKind};
use crate::{ConcurrentStorage, Durability, IoEngineOpts, RetryPolicy, MAX_DEFERRED_WRITE_ERRORS};

pub(crate) type Make = fn(&Path, DiskGeometry, IoEngineOpts) -> ConcurrentStorage;
pub(crate) type Over = fn(Arc<dyn TrackStorage>, usize, IoEngineOpts) -> ConcurrentStorage;

/// `name: check(CTOR), check(CTOR);` → one `#[test] fn name` running
/// the listed contract checks.
macro_rules! contract_tests {
    ($($name:ident: $($check:ident($ctor:expr)),+;)*) => {$(
        #[test]
        fn $name() {
            $($crate::contract::$check($ctor);)+
        }
    )*};
}
pub(crate) use contract_tests;

/// A [`MemStorage`] with scripted misbehaviour.
pub(crate) struct Rig {
    mem: MemStorage,
    pub script: Script,
}

#[derive(Default)]
pub(crate) struct Script {
    pub write_error: Option<fn(usize, u64) -> io::Error>,
    /// Reads return their first byte flipped (silent corruption).
    pub bit_rot: bool,
    /// Reading this track panics the calling drive worker.
    pub panic_on: Option<u64>,
    /// Reads / writes spin while set: holds a drive worker in place.
    pub hold_reads: AtomicBool,
    pub hold_writes: AtomicBool,
    pub syncs: AtomicUsize,
    pub writes: AtomicUsize,
}

impl Rig {
    pub fn new(d: usize, bb: usize, script: Script) -> Arc<Self> {
        Arc::new(Self { mem: MemStorage::new(DiskGeometry::new(d, bb)), script })
    }

    fn disk_full() -> Arc<Self> {
        let write_error = Some((|_, _| io::Error::other("disk full")) as fn(usize, u64) -> _);
        Self::new(1, 4, Script { write_error, ..Default::default() })
    }
}

impl std::ops::Deref for Rig {
    type Target = Script;
    fn deref(&self) -> &Script {
        &self.script
    }
}

impl TrackStorage for Rig {
    fn read_track(&self, d: usize, t: u64) -> io::Result<Vec<u8>> {
        while self.hold_reads.load(SeqCst) {
            std::thread::yield_now();
        }
        assert_ne!(self.panic_on, Some(t), "scripted worker panic");
        let mut data = self.mem.read_track(d, t)?;
        data[0] ^= if self.bit_rot { 0xFF } else { 0 };
        Ok(data)
    }
    fn write_track(&self, d: usize, t: u64, data: &[u8]) -> io::Result<()> {
        while self.hold_writes.load(SeqCst) {
            std::thread::yield_now();
        }
        if let Some(e) = self.write_error {
            return Err(e(d, t));
        }
        self.writes.fetch_add(1, SeqCst);
        self.mem.write_track(d, t, data)
    }
    fn sync_disk(&self, _d: usize) -> io::Result<()> {
        self.syncs.fetch_add(1, SeqCst);
        Ok(())
    }
    fn tracks_used(&self) -> Vec<u64> {
        self.mem.tracks_used()
    }
}

fn at(d: usize, t: u64) -> TrackAddr {
    TrackAddr::new(d, t)
}

fn build(make: Make, d: usize, bb: usize, opts: IoEngineOpts) -> (TempDir, ConcurrentStorage) {
    let dir = TempDir::new("cgmio-engine-contract");
    let s = make(dir.path(), DiskGeometry::new(d, bb), opts);
    (dir, s)
}

pub(crate) fn read_all(s: &ConcurrentStorage, addrs: &[TrackAddr]) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    s.read_scatter_with(addrs, &mut |i, b| {
        assert_eq!(i, got.len(), "blocks arrive in request order");
        got.push(b.to_vec());
    })
    .unwrap();
    got
}

fn traced() -> IoEngineOpts {
    IoEngineOpts { trace: true, ..Default::default() }
}

pub(crate) fn roundtrip(make: Make) {
    let (_dir, s) = build(make, 2, 4, IoEngineOpts::default());
    s.write_scatter(&[(at(0, 0), &[1u8, 2][..]), (at(1, 7), &[3u8][..])]).unwrap();
    assert_eq!(read_all(&s, &[at(0, 0), at(1, 7)]), vec![vec![1, 2, 0, 0], vec![3, 0, 0, 0]]);
    assert_eq!(s.read_track(0, 50).unwrap(), vec![0; 4], "never-written tracks read as zeros");
}

/// Hammer one track: a demand read always sees the write submitted just
/// before it (per-drive FIFO), with no flush in between.
pub(crate) fn coherent(make: Make) {
    let (_dir, s) = build(make, 1, 2, IoEngineOpts::default());
    for i in 0..200u8 {
        s.write_track(0, 0, &[i]).unwrap();
        assert_eq!(s.read_track(0, 0).unwrap(), vec![i, 0]);
    }
}

/// write(5)=a, read 5, write(5)=b queued without waiting in between:
/// the read sees `a` — no run may merge the two writes around it.
pub(crate) fn interleaved_fifo(make: Make) {
    let (_dir, s) = build(make, 1, 2, IoEngineOpts::default());
    s.write_track(0, 5, &[0xA]).unwrap();
    let ticket = s.read_scatter_submit(&[at(0, 5)]).unwrap();
    s.write_track(0, 5, &[0xB]).unwrap();
    let mut got = Vec::new();
    s.read_scatter_wait(ticket, &[at(0, 5)], &mut |_, b| got.push(b[0])).unwrap();
    assert_eq!(got, vec![0xA]);
    assert_eq!(s.read_track(0, 5).unwrap(), vec![0xB, 0]);
}

/// 100 blocks on 2 drives — far beyond the queue depth; a vectored
/// submission is one queue slot per drive and must not deadlock.
pub(crate) fn scatter_many(make: Make) {
    let (_dir, s) = build(make, 2, 4, IoEngineOpts { queue_depth: 4, ..Default::default() });
    let blocks: Vec<(TrackAddr, Vec<u8>)> =
        (0..100u64).map(|i| (at((i % 2) as usize, i / 2), vec![i as u8, 1, 2])).collect();
    let writes: Vec<(TrackAddr, &[u8])> = blocks.iter().map(|(a, d)| (*a, &d[..])).collect();
    s.write_scatter(&writes).unwrap();
    let addrs: Vec<TrackAddr> = blocks.iter().map(|(a, _)| *a).collect();
    for (i, b) in read_all(&s, &addrs).iter().enumerate() {
        assert_eq!(b, &vec![i as u8, 1, 2, 0]);
    }
}

/// A reclaimed range reads as zeros again: no stale cached block, and
/// no stale checksum turning the zeros into a `Corrupt` fault. A device
/// that cannot reclaim (`FileStorage`) says so and keeps its contents.
pub(crate) fn discard_zeroes(make: Make) {
    let opts = IoEngineOpts { verify_checksums: true, ..Default::default() };
    let (_dir, s) = build(make, 1, 4, opts);
    for t in 0..6u64 {
        s.write_track(0, t, &[t as u8 + 1]).unwrap();
    }
    s.prefetch(&[at(0, 2)]);
    let reclaimed = s.discard(0, 2..4).unwrap();
    let kept = |t: u8| if reclaimed { vec![0; 4] } else { vec![t, 0, 0, 0] };
    let want = vec![vec![2, 0, 0, 0], kept(3), kept(4), vec![5, 0, 0, 0]];
    assert_eq!(read_all(&s, &[at(0, 1), at(0, 2), at(0, 3), at(0, 4)]), want);
}

/// One trace event per block whatever the coalescing, in submission
/// order, stamped with the barrier count at submission.
pub(crate) fn trace_per_block(make: Make) {
    let (_dir, s) = build(make, 1, 4, traced());
    let t = s.trace_handle().unwrap();
    let writes: Vec<(TrackAddr, &[u8])> = (0..8).map(|i| (at(0, i), &[1u8][..])).collect();
    s.write_scatter(&writes).unwrap();
    s.flush(false).unwrap();
    read_all(&s, &(0..8).map(|i| at(0, i)).collect::<Vec<_>>());
    let got: Vec<_> = t.drain().iter().map(|e| (e.kind, e.track, e.superstep)).collect();
    let mut want: Vec<_> = (0..8).map(|i| (OpKind::Write, i, 0)).collect();
    want.push((OpKind::Flush, 0, 0));
    want.extend((0..8).map(|i| (OpKind::Read, i, 1)));
    assert_eq!(got, want);
}

/// Ops issued inside a span carry its `(superstep, phase)`, ops outside
/// fall back to the barrier count; the per-drive series land under the
/// right labels on every constructor, the in-flight gauge is idle once
/// the last reply is out, and redeeming a read records the stall.
pub(crate) fn obs_series_and_stamps(make: Make) {
    let obs = Obs::new();
    let (_dir, s) = build(make, 2, 4, IoEngineOpts { obs: Some(obs.clone()), ..traced() });
    let t = s.trace_handle().unwrap();
    {
        let _span = obs.span(0, 3, Phase::MatrixWrite);
        s.write_scatter(&[(at(0, 0), &[1u8][..]), (at(1, 0), &[2u8][..])]).unwrap();
    }
    s.flush(false).unwrap();
    s.read_track(0, 0).unwrap();
    let evs = t.snapshot();
    let w: Vec<_> = evs.iter().filter(|e| e.kind == OpKind::Write).collect();
    assert_eq!(w.len(), 2);
    assert!(w.iter().all(|e| e.superstep == 3 && e.phase == Phase::MatrixWrite));
    let r = evs.iter().find(|e| e.kind == OpKind::Read).unwrap();
    assert_eq!((r.superstep, r.phase), (1, Phase::None), "one barrier passed, no span");
    let snap = obs.snapshot();
    let (d0, get) = ([("proc", "0"), ("drive", "0")], |name, labels: &[_]| snap.get(name, labels));
    let kind = |k| [d0[0], d0[1], ("kind", k)];
    use SampleValue::{Counter, Gauge, Histogram};
    let writes = get("cgmio_io_service_us", &kind("write"));
    assert!(matches!(writes, Some(Histogram(h)) if h.count == 1), "{writes:?}");
    assert!(matches!(get("cgmio_io_bytes_total", &kind("read")), Some(Counter(4))));
    let batches = get("cgmio_io_submit_batch_blocks", &d0);
    assert!(matches!(batches, Some(Histogram(h)) if h.count >= 1), "{batches:?}");
    assert!(matches!(get("cgmio_io_inflight_depth", &d0), Some(Gauge(0))), "idle after replies");
    let stall = snap.get("cgmio_pipeline_stall_us", &[("proc", "0")]);
    assert!(matches!(stall, Some(Histogram(h)) if h.count == 1), "one wait, one sample: {stall:?}");
}

pub(crate) fn behind_disk_array(make: Make) {
    let (_dir, s) = build(make, 2, 4, IoEngineOpts::default());
    let mut arr = DiskArray::with_storage(DiskGeometry::new(2, 4), Box::new(s));
    arr.parallel_write(&[(at(0, 0), &[1u8][..]), (at(1, 0), &[2u8][..])]).unwrap();
    let r = arr.parallel_read(&[at(0, 0), at(1, 0)]).unwrap();
    assert_eq!(r, vec![vec![1, 0, 0, 0], vec![2, 0, 0, 0]]);
    assert_eq!((arr.stats().total_ops(), arr.stats().full_ops), (2, 2));
    assert_eq!(arr.stats().per_disk_blocks, vec![2, 2]);
}

/// A read parked by `read_scatter_submit` and never redeemed (a failed
/// superstep abandons its pre-issued reads) is dropped with its tracks.
pub(crate) fn discard_drops_parked_tickets(make: Make) {
    let (_dir, s) = build(make, 2, 4, IoEngineOpts::default());
    let (abandoned, kept) = ([at(0, 1), at(1, 1)], [at(1, 5)]);
    let gone = s.read_scatter_submit(&abandoned).unwrap();
    let live = s.read_scatter_submit(&kept).unwrap();
    s.discard(0, 0..4).unwrap();
    let e = s.read_scatter_wait(gone, &abandoned, &mut |_, _| {}).unwrap_err();
    assert!(e.to_string().contains("unknown or already-redeemed read ticket"), "{e}");
    s.read_scatter_wait(live, &kept, &mut |_, b| assert_eq!(b, &[0u8; 4][..])).unwrap();
}

pub(crate) fn flush_drains(over: Over) {
    let inner = Rig::new(2, 4, Script::default());
    let s = over(inner.clone(), 2, IoEngineOpts::default());
    for t in 0..50 {
        s.write_scatter(&[(at(0, t), &[1u8][..]), (at(1, t), &[2u8][..])]).unwrap();
    }
    s.flush(false).unwrap();
    assert_eq!(inner.tracks_used(), vec![50, 50], "every submitted write reached the device");
}

pub(crate) fn fsync_per_durability(over: Over) {
    for (durability, sync, want) in [
        (Durability::SyncPerSuperstep, false, 2),
        (Durability::None, false, 0),
        (Durability::None, true, 2),
    ] {
        let inner = Rig::new(2, 4, Script::default());
        let s = over(inner.clone(), 2, IoEngineOpts { durability, ..Default::default() });
        s.flush(sync).unwrap();
        assert_eq!(inner.syncs.load(SeqCst), want, "{durability:?}, sync={sync}: one per drive");
    }
}

pub(crate) fn drop_drains(over: Over) {
    let inner = Rig::new(1, 4, Script::default());
    {
        let s = over(inner.clone(), 1, IoEngineOpts::default());
        for t in 0..30 {
            s.write_track(0, t, &[7]).unwrap();
        }
        // no flush: Drop must drain
    }
    assert_eq!(inner.tracks_used(), vec![30]);
    assert_eq!(inner.read_track(0, 29).unwrap(), vec![7, 0, 0, 0]);
}

pub(crate) fn deferred_sticky(over: Over) {
    let s = over(Rig::disk_full(), 1, IoEngineOpts::default());
    s.write_track(0, 0, &[1]).unwrap(); // submission itself succeeds (write-behind)
    let e = s.flush(false).unwrap_err(); // the failure surfaces at the barrier
    assert!(e.to_string().contains("disk full"), "{e}");
    s.flush(false).unwrap(); // and is cleared once reported
}

/// The error names drive, track and the submit-time superstep — which
/// only barriers advance, not the diagnostic `tracks_used` drain.
pub(crate) fn deferred_named(over: Over) {
    let s = over(Rig::disk_full(), 1, IoEngineOpts::default());
    s.flush(false).unwrap();
    s.tracks_used();
    s.flush(false).unwrap();
    s.tracks_used();
    s.write_track(0, 7, &[1]).unwrap();
    let msg = s.flush(false).unwrap_err().to_string();
    for part in ["disk 0", "track 7", "deferred write failed in superstep 2: ", "disk full"] {
        assert!(msg.contains(part), "{part:?} missing from {msg:?}");
    }
}

pub(crate) fn deferred_bounded(over: Over) {
    let n_writes = MAX_DEFERRED_WRITE_ERRORS + 5;
    let s = over(Rig::disk_full(), 1, traced());
    let (trace, drops) = (s.trace_handle().unwrap(), s.deferred_drop_counter());
    // One scatter submission: separate write calls could surface the
    // first deferred error early (write paths are sticky-checked).
    let writes: Vec<(TrackAddr, &[u8])> =
        (0..n_writes as u64).map(|t| (at(0, t), &[1u8][..])).collect();
    s.write_scatter(&writes).unwrap();
    let msg = s.flush(false).unwrap_err().to_string();
    // The surfaced error says how much failure it stands for: retained
    // but unreported errors plus the dropped overflow.
    assert!(msg.contains(&format!("(+{} more deferred write errors)", n_writes - 1)), "{msg}");
    assert_eq!(drops.get(), 5, "overflow beyond the retained list is counted");
    let events = trace.drain();
    let dropped: Vec<_> = events.iter().filter(|e| e.kind == OpKind::WriteErrorDropped).collect();
    assert_eq!(dropped.len(), 5, "one trace event per discarded error");
    assert!(dropped.iter().all(|e| e.drive == 0 && e.bytes == 0));
    // Reporting clears the list *and* the episode.
    s.flush(false).unwrap();
    assert_eq!(drops.get(), 5);
}

/// The deferred path must not flatten the typed payload: a permanent
/// fault stays permanent for retry decisions downstream.
pub(crate) fn deferred_taxonomy(over: Over) {
    let bad_sector = |disk, track| {
        let (kind, detail) = (IoErrorKind::Permanent, "bad sector".into());
        FaultError { kind, disk, track, detail }.into_io_error()
    };
    let inner = Rig::new(1, 4, Script { write_error: Some(bad_sector), ..Default::default() });
    let s = over(inner, 1, IoEngineOpts::default());
    s.write_track(0, 3, &[1]).unwrap();
    let e = s.flush(false).unwrap_err();
    assert_eq!(classify(&e), IoErrorKind::Permanent);
    assert!(e.to_string().contains("bad sector"), "{e}");
    let s = over(Rig::disk_full(), 1, IoEngineOpts::default());
    s.write_track(0, 0, &[1]).unwrap();
    let e = s.flush(false).unwrap_err();
    assert_eq!(classify(&e), classify(&io::Error::other("disk full")));
}

/// 40 tracks written, flushed and read back through a 30 % transient
/// fault rate; returns the engine for the caller's own assertions.
fn through_transients(over: Over, opts: IoEngineOpts) -> ConcurrentStorage {
    let mem = MemStorage::new(DiskGeometry::new(1, 4));
    let inj = FaultInjector::new(mem, 1, FaultPlan::transient(5, 0.3));
    let retry = RetryPolicy { max_attempts: 12, base_backoff_us: 0 };
    let s = over(Arc::new(inj), 1, IoEngineOpts { retry, ..opts });
    for i in 0..40u64 {
        s.write_track(0, i, &[i as u8]).unwrap();
    }
    s.flush(false).unwrap();
    for i in 0..40u64 {
        assert_eq!(s.read_track(0, i).unwrap()[0], i as u8);
    }
    s
}

pub(crate) fn retries_traced(over: Over) {
    let s = through_transients(over, IoEngineOpts { verify_checksums: true, ..traced() });
    let sum = summarize(&s.trace_handle().unwrap().snapshot());
    assert!(sum.retries > 0, "expected traced retries at a 30% fault rate");
}

pub(crate) fn retries_counted_without_obs(over: Over) {
    let s = through_transients(over, IoEngineOpts::default());
    assert!(s.retry_counter().get() > 0, "expected retries at a 30% transient rate");
}

/// Checksum verification proves every torn write was healed by a full
/// rewrite before its data was read back.
pub(crate) fn torn_writes_heal(over: Over) {
    let plan = FaultPlan { seed: 9, torn_write: 0.4, ..FaultPlan::default() };
    let inj = FaultInjector::new(MemStorage::new(DiskGeometry::new(2, 8)), 2, plan);
    let retry = RetryPolicy { max_attempts: 16, base_backoff_us: 0 };
    let opts = IoEngineOpts { verify_checksums: true, retry, ..Default::default() };
    let s = over(Arc::new(inj), 2, opts);
    for i in 0..60u64 {
        s.write_track((i % 2) as usize, i, &[i as u8; 8]).unwrap();
    }
    s.flush(false).unwrap();
    for i in 0..60u64 {
        assert_eq!(s.read_track((i % 2) as usize, i).unwrap(), vec![i as u8; 8]);
    }
}

pub(crate) fn checksum_corrupt(over: Over) {
    let inner = Rig::new(1, 4, Script { bit_rot: true, ..Default::default() });
    let opts = IoEngineOpts { verify_checksums: true, ..Default::default() };
    let s = over(inner, 1, opts);
    s.write_track(0, 0, &[1, 2, 3, 4]).unwrap();
    let e = s.read_track(0, 0).unwrap_err();
    assert_eq!(classify(&e), IoErrorKind::Corrupt);
    assert!(e.to_string().contains("checksum"), "{e}");
}

/// `[read A, 32 writes]` queued behind a held worker: A's submitter is
/// answered before any of the writes is applied.
pub(crate) fn early_read_reply(over: Over) {
    let inner = Rig::new(1, 4, Script::default());
    inner.hold_reads.store(true, SeqCst);
    inner.hold_writes.store(true, SeqCst);
    let s = Arc::new(over(inner.clone(), 1, IoEngineOpts::default()));
    let held = s.read_scatter_submit(&[at(0, 99)]).unwrap(); // occupies the worker
    let a = s.read_scatter_submit(&[at(0, 3)]).unwrap();
    let writes: Vec<(TrackAddr, &[u8])> = (10..42).map(|t| (at(0, t), &[1u8][..])).collect();
    s.write_scatter(&writes).unwrap();
    inner.hold_reads.store(false, SeqCst);
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = {
        let s = s.clone();
        std::thread::spawn(move || {
            s.read_scatter_wait(held, &[at(0, 99)], &mut |_, _| {}).unwrap();
            s.read_scatter_wait(a, &[at(0, 3)], &mut |_, _| {}).unwrap();
            tx.send(()).unwrap();
        })
    };
    let answered = rx.recv_timeout(std::time::Duration::from_secs(20));
    let applied = inner.writes.load(SeqCst);
    inner.hold_writes.store(false, SeqCst); // release before asserting: never hang
    waiter.join().unwrap();
    assert!(answered.is_ok(), "read reply held behind the batch's writes");
    assert_eq!(applied, 0, "writes applied before the read was answered");
    s.flush(false).unwrap();
    assert_eq!(inner.writes.load(SeqCst), 32);
}

/// A panicking drive worker: that drive answers every call with a
/// typed error naming it (queued, in-hand and later ops alike), the
/// other drive keeps serving, and drop does not hang.
pub(crate) fn worker_panic(over: Over) {
    let inner = Rig::new(2, 4, Script { panic_on: Some(13), ..Default::default() });
    inner.hold_reads.store(true, SeqCst);
    let s = over(inner.clone(), 2, IoEngineOpts::default());
    let doomed = s.read_scatter_submit(&[at(0, 13)]).unwrap();
    let queued = s.read_scatter_submit(&[at(0, 2)]).unwrap();
    inner.hold_reads.store(false, SeqCst);
    for ticket in [doomed, queued] {
        let e = s.read_scatter_wait(ticket, &[at(0, 13)], &mut |_, _| {}).unwrap_err();
        assert!(e.to_string().contains("drive 0 worker"), "{e}");
    }
    for e in [
        s.read_track(0, 1).unwrap_err(),
        s.write_track(0, 1, &[1]).unwrap_err(),
        s.flush(false).unwrap_err(),
        s.discard(0, 0..1).unwrap_err(),
    ] {
        assert!(e.to_string().contains("drive 0 worker"), "{e}");
    }
    s.write_track(1, 1, &[5]).unwrap();
    assert_eq!(s.read_track(1, 1).unwrap(), vec![5, 0, 0, 0]);
}
