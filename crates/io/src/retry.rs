//! Bounded retry-with-backoff over the fault taxonomy.
//!
//! Recovery policy, by [`IoErrorKind`]:
//!
//! * `Transient` — retry up to [`RetryPolicy::max_attempts`] total
//!   attempts with exponential backoff; most injected faults (and real
//!   `EINTR`-class errors) clear this way,
//! * `Corrupt` — never retried: a re-read returns the same wrong bytes.
//!   The error surfaces so the layer above can decide (the EM runners
//!   fail the superstep; a rewrite of the track heals it),
//! * `Permanent` — never retried; surfaces immediately.
//!
//! The queued drive engine applies this policy inside its drive workers
//! (where retries also land in the event trace); [`RetryStorage`] applies
//! the same policy to a synchronous backend (`MemStorage`/`FileStorage`)
//! so the `Mem`/`SyncFile` backends survive injected faults too.

use std::io;
use std::time::Duration;

use cgmio_obs::Counter;
use cgmio_pdm::{classify, IoErrorKind, TrackAddr, TrackStorage};

/// Bounded exponential-backoff retry policy for transient faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included). `1` disables
    /// retrying.
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base_backoff_us << (k-1)`
    /// microseconds. `0` retries immediately.
    pub base_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 4, base_backoff_us: 20 }
    }
}

impl RetryPolicy {
    /// Run `op`, retrying transient failures per the policy. Returns the
    /// final result plus the number of retries performed (0 = first try
    /// succeeded or the failure was not retryable).
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> (io::Result<T>, u32) {
        let mut retries = 0u32;
        loop {
            match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) => {
                    let attempts_left = self.max_attempts.saturating_sub(retries + 1);
                    if classify(&e) != IoErrorKind::Transient || attempts_left == 0 {
                        return (Err(e), retries);
                    }
                    if self.base_backoff_us > 0 {
                        std::thread::sleep(Duration::from_micros(
                            self.base_backoff_us << retries.min(16),
                        ));
                    }
                    retries += 1;
                }
            }
        }
    }
}

/// [`TrackStorage`] wrapper applying a [`RetryPolicy`] to every track
/// read and write of a synchronous backend.
///
/// Scatter operations go through the per-track defaults, so each track of
/// a list is retried independently. Used by `cgmio-core` to make the
/// `Mem`/`SyncFile` backends fault-tolerant; the concurrent engine has
/// the equivalent logic inside its drive workers instead.
pub struct RetryStorage<S> {
    inner: S,
    policy: RetryPolicy,
    retries: Counter,
}

impl<S: TrackStorage> RetryStorage<S> {
    /// Wrap `inner` with the given policy.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        Self::with_counter(inner, policy, Counter::detached())
    }

    /// Wrap `inner`, incrementing `counter` once per retry performed —
    /// pass a registered metric handle to make the retry total
    /// first-class in run reports and Prometheus exports.
    pub fn with_counter(inner: S, policy: RetryPolicy, counter: Counter) -> Self {
        Self { inner, policy, retries: counter }
    }

    fn count<T>(&self, (res, retries): (io::Result<T>, u32)) -> io::Result<T> {
        if retries > 0 {
            self.retries.add(retries as u64);
        }
        res
    }
}

impl<S: TrackStorage> TrackStorage for RetryStorage<S> {
    fn read_track(&self, disk: usize, track: u64) -> io::Result<Vec<u8>> {
        self.count(self.policy.run(|| self.inner.read_track(disk, track)))
    }

    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> io::Result<()> {
        self.count(self.policy.run(|| self.inner.write_track(disk, track, data)))
    }

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

/// FNV-1a over the payload with trailing zeros stripped.
///
/// Stripping makes the checksum of a short write comparable with the
/// checksum of its zero-padded read-back, without the checksummer having
/// to know the block size.
pub fn track_checksum(data: &[u8]) -> u64 {
    let end = data.iter().rposition(|&b| b != 0).map(|i| i + 1).unwrap_or(0);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in &data[..end] {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ end as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_pdm::{DiskGeometry, FaultInjector, FaultPlan, MemStorage};
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn retry_recovers_from_transient_and_counts() {
        let fails = AtomicU32::new(2);
        let p = RetryPolicy { max_attempts: 4, base_backoff_us: 0 };
        let (res, retries) = p.run(|| {
            if fails.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| f.checked_sub(1)).is_ok()
            {
                Err(io::Error::new(io::ErrorKind::Interrupted, "blip"))
            } else {
                Ok(7)
            }
        });
        assert_eq!(res.unwrap(), 7);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let tries = AtomicU32::new(0);
        let p = RetryPolicy { max_attempts: 3, base_backoff_us: 0 };
        let (res, retries) = p.run::<()>(|| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::Interrupted, "blip"))
        });
        assert!(res.is_err());
        assert_eq!(retries, 2);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let tries = AtomicU32::new(0);
        let p = RetryPolicy::default();
        let (res, retries) = p.run::<()>(|| {
            tries.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::other("gone"))
        });
        assert!(res.is_err());
        assert_eq!(retries, 0);
        assert_eq!(tries.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn retry_storage_survives_injected_faults() {
        let geom = DiskGeometry::new(2, 8);
        let inj = FaultInjector::new(MemStorage::new(geom), 2, FaultPlan::transient(11, 0.2));
        let s = RetryStorage::new(inj, RetryPolicy { max_attempts: 8, base_backoff_us: 0 });
        for t in 0..50 {
            s.write_track(t as usize % 2, t, &[t as u8; 8]).unwrap();
        }
        for t in 0..50 {
            assert_eq!(s.read_track(t as usize % 2, t).unwrap(), vec![t as u8; 8]);
        }
    }

    #[test]
    fn retry_storage_counts_retries_into_shared_counter() {
        let geom = DiskGeometry::new(2, 8);
        let inj = FaultInjector::new(MemStorage::new(geom), 2, FaultPlan::transient(11, 0.2));
        let counter = Counter::detached();
        let s = RetryStorage::with_counter(
            inj,
            RetryPolicy { max_attempts: 8, base_backoff_us: 0 },
            counter.clone(),
        );
        for t in 0..80 {
            s.write_track(t as usize % 2, t, &[t as u8; 8]).unwrap();
            let _ = s.read_track(t as usize % 2, t).unwrap();
        }
        assert!(counter.get() > 0, "a 20% transient rate over 160 ops must retry");
    }

    #[test]
    fn checksum_ignores_zero_padding_but_not_length_of_data() {
        assert_eq!(track_checksum(&[1, 2]), track_checksum(&[1, 2, 0, 0]));
        assert_eq!(track_checksum(&[1, 0, 2]), track_checksum(&[1, 0, 2, 0]));
        assert_ne!(track_checksum(&[1, 2]), track_checksum(&[1, 3]));
        assert_ne!(track_checksum(&[]), track_checksum(&[0, 1]));
        assert_eq!(track_checksum(&[]), track_checksum(&[0, 0]));
    }
}
