//! Deterministic fault injection behind the [`TrackStorage`] trait.
//!
//! The PDM of the paper assumes drives never fail; a production system
//! cannot. [`FaultInjector`] wraps any [`TrackStorage`] and injects a
//! *seeded, reproducible* stream of faults — transient read/write errors,
//! permanently bad tracks, torn (partially applied) writes, and latency
//! spikes — so the retry/checksum/checkpoint machinery in the layers
//! above can be exercised and measured without real hardware faults.
//!
//! Faults carry a typed [`FaultError`] payload inside the `std::io::Error`
//! they surface as, classified into the three-way taxonomy
//! [`IoErrorKind`]:
//!
//! * [`IoErrorKind::Transient`] — retrying the operation may succeed
//!   (injected transient errors, torn writes, `Interrupted`/`TimedOut`),
//! * [`IoErrorKind::Corrupt`] — the bytes came back wrong (checksum
//!   mismatch detected by the engine); retrying re-reads the same bytes,
//! * [`IoErrorKind::Permanent`] — the track or drive is gone; retries
//!   cannot help and the error must surface to the caller.
//!
//! Determinism: every injection decision is a pure function of the plan's
//! seed, the drive index, the track number, and a per-`(drive, track)`
//! operation counter. Two runs that touch each track in the same order
//! inject exactly the same faults — and because the decision never
//! depends on how operations on *different* tracks interleave, the
//! stream is invariant under the reorderings a pipelined executor
//! introduces (pre-issued reads overtaking unrelated writes on the same
//! drive). That is what makes the `faults` experiment, the recovery
//! tests, and the pipeline depth-equivalence tests reproducible.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::disk::TrackAddr;
use crate::storage::TrackStorage;

/// Three-way classification of storage faults, driving the recovery
/// policy in the `cgmio-io` engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoErrorKind {
    /// The operation failed but retrying may succeed (e.g. a dropped
    /// request, a torn write that can be re-issued).
    Transient,
    /// The operation "succeeded" but returned corrupted data (detected
    /// via checksum). Retrying re-reads the same bytes, so retries do
    /// not help — but a later rewrite heals the track.
    Corrupt,
    /// The track or drive is permanently unavailable; the error must be
    /// surfaced to the caller as a typed failure.
    Permanent,
}

impl fmt::Display for IoErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoErrorKind::Transient => write!(f, "transient"),
            IoErrorKind::Corrupt => write!(f, "corrupt"),
            IoErrorKind::Permanent => write!(f, "permanent"),
        }
    }
}

/// Typed storage fault, carried as the payload of the `std::io::Error`
/// returned by a faulting backend. Recoverable layers downcast with
/// [`classify`] to decide whether to retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Taxonomy class of this fault.
    pub kind: IoErrorKind,
    /// Drive the faulting operation addressed.
    pub disk: usize,
    /// Track the faulting operation addressed.
    pub track: u64,
    /// Human-readable description ("injected transient read error", …).
    pub detail: String,
}

impl FaultError {
    /// Wrap this fault in a `std::io::Error` (the payload survives and
    /// can be recovered with [`classify`] / `io::Error::get_ref`).
    pub fn into_io_error(self) -> io::Error {
        let kind = match self.kind {
            IoErrorKind::Transient => io::ErrorKind::Interrupted,
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, self)
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fault on disk {} track {}: {}", self.kind, self.disk, self.track, self.detail)
    }
}

impl std::error::Error for FaultError {}

/// Classify an `std::io::Error` into the three-way taxonomy.
///
/// Errors produced by a [`FaultInjector`] (or by the engine's checksum
/// verifier) carry a [`FaultError`] payload and classify exactly;
/// ordinary OS errors fall back on the `io::ErrorKind`:
/// `Interrupted`/`TimedOut`/`WouldBlock` are treated as transient,
/// everything else (e.g. `StorageFull`, `PermissionDenied`) as permanent.
pub fn classify(e: &io::Error) -> IoErrorKind {
    if let Some(fe) = e.get_ref().and_then(|r| r.downcast_ref::<FaultError>()) {
        return fe.kind;
    }
    match e.kind() {
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            IoErrorKind::Transient
        }
        _ => IoErrorKind::Permanent,
    }
}

/// Seeded description of which faults to inject and how often.
///
/// All rates are probabilities in `[0, 1]` evaluated independently per
/// physical track operation. The plan is plain data (cheap to clone into
/// `EmConfig`); the optional `observer` lets a caller watch the injected
/// fault counters from outside the storage stack.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for the deterministic injection stream.
    pub seed: u64,
    /// Probability that a `read_track` fails with a transient error.
    pub read_transient: f64,
    /// Probability that a `write_track` fails with a transient error
    /// (nothing written).
    pub write_transient: f64,
    /// Probability that a `write_track` is *torn*: a prefix of the block
    /// is applied, then a transient error is reported. A retry that
    /// rewrites the full block heals the track.
    pub torn_write: f64,
    /// Probability (per distinct `(disk, track)` pair, decided once by
    /// hash) that a track is permanently unreadable and unwritable.
    pub permanent: f64,
    /// Probability that an operation additionally sleeps for
    /// [`FaultPlan::spike_us`] before proceeding (latency spike).
    pub latency_spike: f64,
    /// Duration of an injected latency spike, in microseconds.
    pub spike_us: u64,
    /// Optional shared counters observing the injections from outside.
    pub observer: Option<Arc<FaultStats>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            read_transient: 0.0,
            write_transient: 0.0,
            torn_write: 0.0,
            permanent: 0.0,
            latency_spike: 0.0,
            spike_us: 50,
            observer: None,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only transient read/write errors at `rate`.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self { seed, read_transient: rate, write_transient: rate, ..Self::default() }
    }

    /// Attach shared fault counters (see [`FaultStats`]) so a harness can
    /// read the number of injected faults after a run.
    pub fn with_observer(mut self, stats: Arc<FaultStats>) -> Self {
        self.observer = Some(stats);
        self
    }
}

/// Shared atomic counters of injected faults (see
/// [`FaultPlan::with_observer`]).
#[derive(Debug, Default)]
pub struct FaultStats {
    read_transient: AtomicU64,
    write_transient: AtomicU64,
    torn_writes: AtomicU64,
    permanent_denials: AtomicU64,
    latency_spikes: AtomicU64,
}

/// Point-in-time snapshot of a [`FaultStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Injected transient read errors.
    pub read_transient: u64,
    /// Injected transient write errors (nothing written).
    pub write_transient: u64,
    /// Injected torn writes (prefix applied, error reported).
    pub torn_writes: u64,
    /// Operations denied because the track is permanently faulted.
    pub permanent_denials: u64,
    /// Injected latency spikes.
    pub latency_spikes: u64,
}

impl FaultCounts {
    /// Total number of injected error returns (spikes excluded — they
    /// delay but do not fail).
    pub fn total_errors(&self) -> u64 {
        self.read_transient + self.write_transient + self.torn_writes + self.permanent_denials
    }

    /// Field-wise sum — aggregates the per-worker injectors of a
    /// parallel run into one total.
    pub fn merged(self, other: FaultCounts) -> FaultCounts {
        FaultCounts {
            read_transient: self.read_transient + other.read_transient,
            write_transient: self.write_transient + other.write_transient,
            torn_writes: self.torn_writes + other.torn_writes,
            permanent_denials: self.permanent_denials + other.permanent_denials,
            latency_spikes: self.latency_spikes + other.latency_spikes,
        }
    }

    /// Field-wise saturating difference (`self - earlier`) — attributes
    /// counts to the window between two snapshots of the same
    /// [`FaultStats`] (e.g. one EM run on a shared observer).
    pub fn diff(self, earlier: FaultCounts) -> FaultCounts {
        FaultCounts {
            read_transient: self.read_transient.saturating_sub(earlier.read_transient),
            write_transient: self.write_transient.saturating_sub(earlier.write_transient),
            torn_writes: self.torn_writes.saturating_sub(earlier.torn_writes),
            permanent_denials: self.permanent_denials.saturating_sub(earlier.permanent_denials),
            latency_spikes: self.latency_spikes.saturating_sub(earlier.latency_spikes),
        }
    }
}

impl FaultStats {
    /// Snapshot the counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            read_transient: self.read_transient.load(Ordering::Relaxed),
            write_transient: self.write_transient.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            permanent_denials: self.permanent_denials.load(Ordering::Relaxed),
            latency_spikes: self.latency_spikes.load(Ordering::Relaxed),
        }
    }
}

/// splitmix64 finaliser: one 64-bit hash step with full avalanche.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a hash to a uniform `f64` in `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// [`TrackStorage`] wrapper that deterministically injects the faults
/// described by a [`FaultPlan`] into an inner backend.
///
/// Injection decisions are keyed on `(seed, disk, track, per-track op
/// counter)` — so the same plan over the same per-track operation
/// sequence always faults the same operations, no matter how operations
/// on *different* tracks interleave (the pipelined executor reorders
/// exactly that). Permanent faults are keyed on `(seed, disk, track)`
/// alone so a bad track stays bad forever.
pub struct FaultInjector<S> {
    inner: S,
    plan: FaultPlan,
    /// Per-drive map of per-track operation counters (locked per drive
    /// so concurrent drive workers never contend with each other).
    ops: Vec<std::sync::Mutex<std::collections::HashMap<u64, u64>>>,
    stats: Arc<FaultStats>,
}

impl<S: TrackStorage> FaultInjector<S> {
    /// Wrap `inner` (serving `num_disks` drives) with the given plan.
    pub fn new(inner: S, num_disks: usize, plan: FaultPlan) -> Self {
        let stats = plan.observer.clone().unwrap_or_default();
        Self {
            inner,
            plan,
            ops: (0..num_disks).map(|_| std::sync::Mutex::new(Default::default())).collect(),
            stats,
        }
    }

    /// The injected-fault counters of this injector.
    pub fn stats(&self) -> Arc<FaultStats> {
        Arc::clone(&self.stats)
    }

    /// Next decision hash for `(disk, track)` (advances that track's op
    /// counter).
    fn next_roll(&self, disk: usize, track: u64) -> u64 {
        let mut ops = self.ops[disk].lock().unwrap();
        let slot = ops.entry(track).or_insert(0);
        let n = *slot;
        *slot += 1;
        mix(self.plan.seed
            ^ mix(disk as u64 + 1)
            ^ mix(track.wrapping_add(0x5151))
            ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D))
    }

    /// Is `(disk, track)` permanently faulted? Pure function of the seed.
    fn is_permanent(&self, disk: usize, track: u64) -> bool {
        self.plan.permanent > 0.0
            && unit(mix(self.plan.seed ^ 0x7065_726D_616E_656E ^ mix(disk as u64) ^ track))
                < self.plan.permanent
    }

    /// Apply a latency spike if this op's hash says so.
    fn maybe_spike(&self, h: u64) {
        if self.plan.latency_spike > 0.0 && unit(mix(h ^ 0x7370_696B)) < self.plan.latency_spike {
            self.stats.latency_spikes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(self.plan.spike_us));
        }
    }

    fn permanent_err(&self, disk: usize, track: u64, what: &str) -> io::Error {
        self.stats.permanent_denials.fetch_add(1, Ordering::Relaxed);
        FaultError {
            kind: IoErrorKind::Permanent,
            disk,
            track,
            detail: format!("injected permanent fault ({what})"),
        }
        .into_io_error()
    }
}

impl<S: TrackStorage> TrackStorage for FaultInjector<S> {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        let h = self.next_roll(disk, track);
        self.maybe_spike(h);
        if self.is_permanent(disk, track) {
            return Err(self.permanent_err(disk, track, "read"));
        }
        if unit(h) < self.plan.read_transient {
            self.stats.read_transient.fetch_add(1, Ordering::Relaxed);
            return Err(FaultError {
                kind: IoErrorKind::Transient,
                disk,
                track,
                detail: "injected transient read error".into(),
            }
            .into_io_error());
        }
        self.inner.read_track(disk, track)
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        let h = self.next_roll(disk, track);
        self.maybe_spike(h);
        if self.is_permanent(disk, track) {
            return Err(self.permanent_err(disk, track, "write"));
        }
        let u = unit(h);
        if u < self.plan.torn_write {
            // Apply a prefix of the block, then report failure: the inner
            // backend zero-pads, so the tail of the track is lost until a
            // retry rewrites the full payload.
            self.stats.torn_writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write_track(disk, track, &data[..data.len() / 2])?;
            return Err(FaultError {
                kind: IoErrorKind::Transient,
                disk,
                track,
                detail: "injected torn write (prefix applied)".into(),
            }
            .into_io_error());
        }
        if u < self.plan.torn_write + self.plan.write_transient {
            self.stats.write_transient.fetch_add(1, Ordering::Relaxed);
            return Err(FaultError {
                kind: IoErrorKind::Transient,
                disk,
                track,
                detail: "injected transient write error (nothing written)".into(),
            }
            .into_io_error());
        }
        self.inner.write_track(disk, track, data)
    }

    // The scatter and split-phase calls use the trait defaults, which
    // route every track through the faultable read_track / write_track
    // above.

    fn prefetch(&self, addrs: &[TrackAddr]) {
        self.inner.prefetch(addrs);
    }

    fn flush(&self, sync: bool) -> io::Result<()> {
        self.inner.flush(sync)
    }

    fn sync_disk(&self, disk: usize) -> io::Result<()> {
        self.inner.sync_disk(disk)
    }

    fn discard(&self, disk: usize, tracks: std::ops::Range<u64>) -> io::Result<bool> {
        // Reclamation is bookkeeping, not a data transfer: it is never
        // faulted or retried, only forwarded.
        self.inner.discard(disk, tracks)
    }

    fn tracks_used(&self) -> Vec<u64> {
        self.inner.tracks_used()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::DiskGeometry;

    fn mem(d: usize, b: usize) -> MemStorage {
        MemStorage::new(DiskGeometry::new(d, b))
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let inj = FaultInjector::new(mem(2, 4), 2, FaultPlan::default());
        inj.write_track(0, 1, &[1, 2, 3, 4]).unwrap();
        assert_eq!(inj.read_track(0, 1).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(inj.stats().counts().total_errors(), 0);
    }

    #[test]
    fn transient_faults_are_deterministic() {
        let run = |seed| {
            let inj = FaultInjector::new(mem(1, 4), 1, FaultPlan::transient(seed, 0.3));
            (0..200).map(|i| inj.read_track(0, i).is_err()).collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same faults");
        assert_ne!(a, run(8), "different seed, different faults");
        let faults = a.iter().filter(|&&f| f).count();
        assert!((30..90).contains(&faults), "rate ~0.3 expected, got {faults}/200");
    }

    #[test]
    fn transient_error_classifies_and_retry_succeeds() {
        let inj = FaultInjector::new(mem(1, 4), 1, FaultPlan::transient(3, 0.4));
        inj.write_track(0, 0, &[5; 4]).ok();
        // Retry until success: transient faults must eventually clear.
        let mut last = None;
        for _ in 0..64 {
            match inj.read_track(0, 0) {
                Ok(b) => {
                    last = Some(b);
                    break;
                }
                Err(e) => assert_eq!(classify(&e), IoErrorKind::Transient),
            }
        }
        assert!(last.is_some(), "transient faults never cleared in 64 attempts");
    }

    #[test]
    fn torn_write_applies_prefix_and_heals_on_retry() {
        let plan = FaultPlan { seed: 1, torn_write: 1.0, ..FaultPlan::default() };
        let inj = FaultInjector::new(mem(1, 8), 1, plan);
        let data = [9u8; 8];
        let e = inj.write_track(0, 0, &data).unwrap_err();
        assert_eq!(classify(&e), IoErrorKind::Transient);
        // Torn: first half applied, rest zero-padded by the inner backend.
        let mut torn = vec![0u8; 8];
        torn[..4].copy_from_slice(&[9; 4]);
        // Read through the inner path would also roll faults; build a
        // clean injector view by reading via a fresh zero-rate wrapper is
        // not possible here, so check via a plan with reads enabled.
        let inj2 = FaultInjector::new(inj.inner, 1, FaultPlan::default());
        assert_eq!(inj2.read_track(0, 0).unwrap(), torn);
        inj2.write_track(0, 0, &data).unwrap();
        assert_eq!(inj2.read_track(0, 0).unwrap(), data.to_vec());
        assert_eq!(inj.stats.counts().torn_writes, 1);
    }

    #[test]
    fn permanent_fault_sticks_to_its_track() {
        let plan = FaultPlan { seed: 42, permanent: 0.2, ..FaultPlan::default() };
        let inj = FaultInjector::new(mem(1, 4), 1, plan);
        let bad: Vec<u64> = (0..64).filter(|&t| inj.read_track(0, t).is_err()).collect();
        assert!(!bad.is_empty(), "expected some permanently bad tracks at rate 0.2");
        for &t in &bad {
            let e = inj.read_track(0, t).unwrap_err();
            assert_eq!(classify(&e), IoErrorKind::Permanent, "track {t} must stay bad");
            assert!(inj.write_track(0, t, &[1]).is_err());
        }
        let good = (0..64).find(|t| !bad.contains(t)).unwrap();
        inj.write_track(0, good, &[1]).unwrap();
    }

    #[test]
    fn counts_merge_and_diff() {
        let a = FaultCounts {
            read_transient: 3,
            write_transient: 1,
            torn_writes: 2,
            permanent_denials: 0,
            latency_spikes: 4,
        };
        let b = FaultCounts { read_transient: 1, ..FaultCounts::default() };
        let sum = a.merged(b);
        assert_eq!(sum.read_transient, 4);
        assert_eq!(sum.total_errors(), 7);
        assert_eq!(sum.diff(a), b);
        assert_eq!(b.diff(a), FaultCounts::default(), "diff saturates");
    }

    #[test]
    fn classify_falls_back_on_io_error_kind() {
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::Interrupted, "sig")),
            IoErrorKind::Transient
        );
        assert_eq!(classify(&io::Error::other("disk full")), IoErrorKind::Permanent);
    }
}
