//! # cgmio-core — the CGM → EM-CGM simulation engine
//!
//! This crate is the reproduction of the paper's primary contribution: a
//! **deterministic simulation** that runs any CGM algorithm (any
//! [`cgmio_model::CgmProgram`]) as an external-memory algorithm on a
//! machine with `p ≤ v` real processors, each with `M` internal memory
//! and `D` disks of block size `B` — turning the virtual machine's
//! message traffic into **blocked, fully parallel disk I/O**.
//!
//! * [`SeqEmRunner`] implements Algorithm 2 (*SeqCompoundSuperstep*):
//!   a single real processor cycles through the `v` virtual processors,
//!   swapping each one's *context* in from disk (consecutive format),
//!   delivering its incoming messages from its **mailbox** (one packed
//!   block stream per destination), running the compound superstep,
//!   and writing the generated messages and updated context back out.
//! * [`ParEmRunner`] implements Algorithm 3 (*ParCompoundSuperstep*):
//!   `p` real processors each simulate `v/p` virtual processors against
//!   their own local disk arrays, exchanging generated messages over the
//!   real interconnect before writing them to the destination's disks.
//!
//!   Both are facades over one private superstep executor, just as
//!   Algorithm 3 is Algorithm 2 with step (d) routed through the
//!   interconnect: `p = 1` *is* the sequential loop (no thread, no
//!   channel), so the two runners agree there to the I/O operation. At
//!   `p ≥ 2` each real processor stages one round of arriving messages
//!   in RAM before writing them in a deterministic order; that staging
//!   is outside the `M` audit ([`EmRunReport::peak_mem_bytes`]).
//! * [`measure_requirements`] dry-runs a program in memory to discover
//!   the parameters the theorems are stated in: `λ`, `h`, `μ` and the
//!   largest message — from which [`EmConfig`] slot sizes follow.
//! * [`params`] holds the parameter-space analysis of the paper's
//!   Section 1.4 (Figures 6 and 7): when does the `log_{M/B}(N/B)` term
//!   collapse to a constant?
//!
//! Every run returns an [`EmRunReport`] with exact I/O counts split into
//! context vs message traffic, h-relation accounting, memory high-water
//! marks, and the Theorem 2/3 parameter checks — the quantities the
//! paper's experiments (and this workspace's `reproduce` harness) report.

#![deny(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod context;
mod exec;
pub mod measure;
pub mod msgmatrix;
pub mod par;
pub mod params;
mod pipeline;
pub mod report;
pub mod seq;

pub use checkpoint::{Checkpoint, CheckpointManifest, RunOutcome, WorkerCheckpoint};
pub use config::{BackendSpec, DiskHandles, EmConfig, ParamCheck};
pub use measure::{measure_requirements, Requirements};
pub use par::ParEmRunner;
pub use report::{EmRunReport, IoBreakdown};
pub use seq::SeqEmRunner;

use cgmio_model::ModelError;
use cgmio_pdm::IoError;

/// Errors produced by the EM runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmError {
    /// Superstep semantics violated (same conditions as the in-memory
    /// runners).
    Model(ModelError),
    /// Disk layer error (conflict, bad address, oversized block).
    Io(IoError),
    /// A message exceeded the configured slot size. Wrap the program in
    /// [`cgmio_routing::Balanced`] or enlarge `msg_slot_items`.
    MsgSlotOverflow {
        /// Sending virtual processor.
        src: usize,
        /// Receiving virtual processor.
        dst: usize,
        /// Message length in items.
        len: usize,
        /// Configured slot capacity in items.
        slot: usize,
    },
    /// A context exceeded the configured slot size; enlarge
    /// `max_ctx_bytes`.
    CtxSlotOverflow {
        /// Virtual processor whose context overflowed.
        pid: usize,
        /// Encoded context length in bytes.
        len: usize,
        /// Configured capacity in bytes.
        cap: usize,
    },
    /// Strict mode: a compound superstep needed more internal memory
    /// than the configured `M`.
    MemoryExceeded {
        /// First virtual processor of the group being simulated.
        pid: usize,
        /// Bytes required.
        need: usize,
        /// Configured internal memory `M` in bytes.
        m: usize,
    },
    /// Invalid configuration.
    BadConfig(String),
    /// A checkpoint's inbox row describes no mailbox this machine could
    /// have written.
    BadInboxRow {
        /// Local destination of the row.
        dst: usize,
        /// Source of the offending message.
        src: u64,
        /// What is wrong with it.
        fault: msgmatrix::InboxFault,
    },
    /// The run halted at a superstep barrier (per
    /// [`EmConfig::halt_after_superstep`]) while being driven through an
    /// API that cannot return a checkpoint. Use `run_until` to receive
    /// the [`checkpoint::Checkpoint`] instead.
    Interrupted {
        /// Last completed superstep (the checkpoint's position).
        superstep: usize,
    },
    /// Code of the simulated program (a `CgmProgram::round`, or a state
    /// or message codec) panicked. The run fails; every real processor
    /// is still joined.
    WorkerPanicked {
        /// Real processor whose worker caught the panic.
        proc: usize,
        /// Superstep it was executing.
        superstep: usize,
        /// The panic message.
        message: String,
    },
}

impl From<ModelError> for EmError {
    fn from(e: ModelError) -> Self {
        EmError::Model(e)
    }
}

impl From<IoError> for EmError {
    fn from(e: IoError) -> Self {
        EmError::Io(e)
    }
}

impl std::fmt::Display for EmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmError::Model(e) => write!(f, "model error: {e}"),
            EmError::Io(e) => write!(f, "I/O error: {e}"),
            EmError::MsgSlotOverflow { src, dst, len, slot } => write!(
                f,
                "message {src}->{dst} of {len} items exceeds slot of {slot} \
                 (wrap the program in cgmio_routing::Balanced or enlarge msg_slot_items)"
            ),
            EmError::CtxSlotOverflow { pid, len, cap } => {
                write!(f, "context of vp {pid} is {len} bytes, slot holds {cap}")
            }
            EmError::MemoryExceeded { pid, need, m } => {
                write!(f, "simulating vp {pid} needs {need} bytes of internal memory, M = {m}")
            }
            EmError::BadConfig(s) => write!(f, "bad config: {s}"),
            EmError::BadInboxRow { dst, src, fault } => {
                write!(f, "checkpoint inbox row {dst}: message from {src}: {fault:?}")
            }
            EmError::Interrupted { superstep } => {
                write!(f, "run interrupted after superstep {superstep} (checkpoint taken)")
            }
            EmError::WorkerPanicked { proc, superstep, message } => {
                write!(f, "real processor {proc} panicked in superstep {superstep}: {message}")
            }
        }
    }
}

impl std::error::Error for EmError {}
