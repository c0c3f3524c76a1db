//! # cgmio-io — concurrent parallel-disk I/O engine
//!
//! The PDM substrate in `cgmio-pdm` *counts* parallel I/O operations; it
//! does not *perform* them in parallel. This crate adds the missing
//! physical concurrency behind the same [`cgmio_pdm::TrackStorage`]
//! trait, so a legal parallel operation's ≤ `D` block transfers really
//! overlap in time:
//!
//! * [`ConcurrentStorage`] — the one queued drive engine ([`engine`]):
//!   a worker thread + bounded FIFO submission queue per simulated
//!   drive, each wakeup draining its queue into coalesced device
//!   transfers, with write-behind, split-phase reads, a per-drive
//!   prefetch cache, configurable [`Durability`], and graceful shutdown
//!   that drains in-flight writes. [`AsyncFileStorage`] names its two
//!   hint-free constructors, one of which owns the drive files directly,
//! * [`trace`] — an opt-in I/O event trace (per-op latency, queue depth,
//!   bytes, cache hits, retries, and the EM superstep/[`Phase`] active
//!   at submission) exportable as JSONL or CSV,
//! * [`retry`] — the recovery policy over the fault taxonomy of
//!   [`cgmio_pdm::fault`]: bounded retry-with-backoff for transient
//!   faults (applied inside the drive workers and, via [`RetryStorage`],
//!   to synchronous backends) and per-track FNV checksums that turn
//!   silent bit rot into typed [`cgmio_pdm::IoErrorKind::Corrupt`]
//!   errors.
//!
//! The engine is a drop-in behind `DiskArray::with_storage`: legality
//! checks ("≤ 1 track per disk per op") and [`cgmio_pdm::IoStats`]
//! accounting live above the storage trait, so counts are identical to
//! the synchronous backends — only wall-clock behaviour changes. The
//! EM-CGM runners in `cgmio-core` use it to read the next virtual
//! processor's context ahead of the current one's compute step and to
//! write contexts/messages behind it (the asynchronous pipeline the
//! paper's physical prototype relied on).
//!
//! When an [`Obs`] handle is passed via [`IoEngineOpts::obs`], the
//! drive workers additionally record per-drive service-time
//! histograms, byte/cache-hit/retry counters, queue-depth gauges, and
//! prefetch-drop counters into its registry (catalogue in
//! `docs/OBSERVABILITY.md`) — all off the accounting path, so
//! `IoStats` stays bit-identical with observability on.

#![deny(missing_docs)]

pub mod async_backend;
mod contract;
pub mod engine;
pub mod retry;
pub mod trace;

pub use async_backend::AsyncFileStorage;
pub use cgmio_obs::{Counter, Obs, Phase};
pub use cgmio_pdm::{classify, FaultError, IoErrorKind};
pub use engine::{ConcurrentStorage, Durability, IoEngineOpts, MAX_DEFERRED_WRITE_ERRORS};
pub use retry::{track_checksum, RetryPolicy, RetryStorage};
pub use trace::{summarize, write_csv, write_jsonl, OpKind, TraceEvent, TraceHandle, TraceSummary};
