//! Reusable block buffers for the data path.
//!
//! Every byte that crosses a [`crate::DiskArray`] travels in a
//! track-sized (or message-sized) buffer. Allocating those buffers fresh
//! per transfer is exactly the avoidable data movement the paper's
//! blocked-transfer argument fights for, so the hot path checks them out
//! of a [`BlockPool`] instead: a checkout reuses a previously returned
//! buffer when one is available, and dropping the [`PooledBlock`] returns
//! the buffer to the pool — including from another thread, which is how
//! the concurrent engine's drive workers recycle write-behind payloads.
//!
//! The pool is deliberately dumb: one free list for all sizes (buffers
//! grow to the largest length ever requested and stay), a bounded free
//! list so a burst cannot pin unbounded memory, and two counters
//! ([`BlockPool::stats`]) so tests can check the reuse rate.
//!
//! ```
//! use cgmio_pdm::BlockPool;
//! let pool = BlockPool::default();
//! let mut b = pool.checkout(4);
//! b.copy_from_slice(&[1, 2, 3, 4]);
//! drop(b); // buffer returns to the pool
//! let b2 = pool.checkout(2); // reuses the same backing buffer
//! assert_eq!(b2.len(), 2);
//! assert_eq!(pool.stats().reused, 1);
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default bound on the number of idle buffers a pool retains.
///
/// Sized for the worst steady-state demand of one compound superstep:
/// one staging buffer per runner plus one in-flight write-behind payload
/// per drive worker, with room to spare.
const DEFAULT_MAX_FREE: usize = 64;

struct PoolShared {
    free: Mutex<Vec<Vec<u8>>>,
    max_free: usize,
    checkouts: AtomicU64,
    reused: AtomicU64,
}

/// Counters describing a pool's reuse behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffers handed out in total.
    pub checkouts: u64,
    /// Checkouts that reused a returned buffer (no heap allocation).
    pub reused: u64,
    /// Buffers currently idle in the free list.
    pub idle: u64,
}

/// A shared pool of reusable byte buffers (cheaply cloneable handle).
#[derive(Clone)]
pub struct BlockPool {
    shared: Arc<PoolShared>,
}

impl Default for BlockPool {
    fn default() -> Self {
        Self::with_max_free(DEFAULT_MAX_FREE)
    }
}

impl BlockPool {
    /// Pool retaining at most `max_free` idle buffers.
    pub fn with_max_free(max_free: usize) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                free: Mutex::new(Vec::new()),
                max_free,
                checkouts: AtomicU64::new(0),
                reused: AtomicU64::new(0),
            }),
        }
    }

    /// Check out a buffer of exactly `len` bytes.
    ///
    /// The contents are **not** zeroed beyond what a reused buffer held —
    /// callers own every byte they pass onward. A reused buffer keeps its
    /// capacity, so repeated checkouts of similar sizes stop allocating
    /// once the pool is warm.
    pub fn checkout(&self, len: usize) -> PooledBlock {
        self.shared.checkouts.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.shared.free.lock().unwrap().pop().unwrap_or_default();
        if buf.capacity() > 0 {
            self.shared.reused.fetch_add(1, Ordering::Relaxed);
        }
        buf.resize(len, 0);
        PooledBlock { buf, pool: Arc::clone(&self.shared) }
    }

    /// Reuse counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.shared.checkouts.load(Ordering::Relaxed),
            reused: self.shared.reused.load(Ordering::Relaxed),
            idle: self.shared.free.lock().unwrap().len() as u64,
        }
    }
}

/// A byte buffer on loan from a [`BlockPool`]; derefs to `[u8]` and
/// returns itself to the pool on drop (from any thread).
pub struct PooledBlock {
    buf: Vec<u8>,
    pool: Arc<PoolShared>,
}

impl Deref for PooledBlock {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for PooledBlock {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl std::fmt::Debug for PooledBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBlock({} bytes)", self.buf.len())
    }
}

impl Drop for PooledBlock {
    fn drop(&mut self) {
        let mut free = self.pool.free.lock().unwrap();
        if free.len() < self.pool.max_free {
            free.push(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_sizes_and_reuse() {
        let pool = BlockPool::default();
        let b = pool.checkout(8);
        assert_eq!(&*b, &[0u8; 8]);
        drop(b);
        let mut b = pool.checkout(4);
        assert_eq!(b.len(), 4);
        b[0] = 9;
        drop(b);
        // a reused buffer must read back zeroed within the requested len
        // only where the caller wrote — we overwrite fully in the data
        // path, so here we just check the counters.
        let s = pool.stats();
        assert_eq!(s.checkouts, 2);
        assert_eq!(s.reused, 1);
        assert_eq!(s.idle, 1);
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BlockPool::with_max_free(2);
        let blocks: Vec<_> = (0..5).map(|_| pool.checkout(16)).collect();
        drop(blocks);
        assert_eq!(pool.stats().idle, 2);
    }

    #[test]
    fn cross_thread_return() {
        let pool = BlockPool::default();
        let b = pool.checkout(32);
        std::thread::spawn(move || drop(b)).join().unwrap();
        assert_eq!(pool.stats().idle, 1);
        assert_eq!(pool.checkout(32).len(), 32);
    }
}
