//! The read window of the software-pipelined compound superstep.
//!
//! The executor (`exec.rs`) drives a three-stage pipeline per group of
//! [`crate::EmConfig::vp_group`] virtual processors: **load** (steps
//! (a)+(b) as one gather list, submitted up to
//! [`crate::EmConfig::pipeline_depth`] groups ahead of the one
//! computing; none in a fresh run's superstep 0),
//! **compute** (step (c)), and **store** (steps (d)+(e), drained by the
//! backend's write-behind). This module holds the charging half of the
//! load stage: submitting a group's reads charges the cost model and
//! attributes spans at submit time, whatever the distance to the
//! matching finish — depth 0 is a submit and a finish with no gap — so
//! `IoStats`, the op breakdown, and checkpoint manifests are
//! bit-identical at every pipeline depth.
//!
//! Why pre-issuing inside a superstep is safe: a group's context slots
//! are only rewritten by its own step (e), which runs strictly after
//! its step (a) read completes; and the inbox matrix of the current
//! superstep was fully written (and barrier-flushed) last superstep,
//! while this superstep's sends go to the other matrix of the ping-pong
//! pair. Per-drive FIFO submission in the concurrent backend then gives
//! read-after-write coherence for everything older.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;

use cgmio_obs::{Phase, SpanScope};
use cgmio_pdm::{DiskArray, Item};

use crate::context::{ContextStore, CtxReadTicket};
use crate::msgmatrix::{InboxTicket, MessageMatrix};
use crate::report::IoBreakdown;
use crate::EmError;

/// In-flight step (a)+(b) tickets; the front entry belongs to the next
/// group to compute. Holds at most `pipeline_depth + 1` entries.
pub(crate) type InflightReads = VecDeque<(CtxReadTicket, InboxTicket)>;

/// Emptied vectors waiting for the next read ticket of the store that
/// owns the list. A ticket carries its address list from submit to
/// finish, up to `pipeline_depth + 1` of them in flight; drawing the
/// vectors here and handing them back at finish means a warm window
/// submits without allocating. A vector is only made when the list is
/// empty, so the list never holds more than were once in flight
/// together. (`RefCell`: submit and finish take `&self`; a store
/// belongs to one worker thread.)
pub(crate) struct FreeList<T>(RefCell<Vec<Vec<T>>>);

impl<T> FreeList<T> {
    pub(crate) fn new() -> Self {
        Self(RefCell::new(Vec::new()))
    }

    /// An empty vector, recycled if one is waiting.
    pub(crate) fn take(&self) -> Vec<T> {
        self.0.borrow_mut().pop().unwrap_or_default()
    }

    /// Hand a vector back (its contents are dropped).
    pub(crate) fn give(&self, mut v: Vec<T>) {
        v.clear();
        self.0.borrow_mut().push(v);
    }
}

/// Submit one group's step (a) context read and step (b) inbox read,
/// charged as one gather list: `ctx_ops` gets what the contexts alone
/// would cost — the group's own blocks and the read fill's of the next
/// group — and `msg_ops` the rest.
///
/// `slots` are the group's local context slots and `next` the next
/// group's (empty for the superstep's last); `first` is the global pid
/// of local slot 0 (workers address the context store locally and the
/// message matrix globally). `span` opens a phase span of the calling
/// worker's current superstep.
///
/// Charges the cost model *now* and returns the completion tickets to
/// redeem when that group is next to compute. Redemption charges nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn submit_group_reads<M: Item>(
    span: impl Fn(Phase) -> Option<SpanScope>,
    disks: &mut DiskArray,
    ctx_store: &mut ContextStore,
    mat_cur: &MessageMatrix<M>,
    breakdown: &mut IoBreakdown,
    slots: Range<usize>,
    next: Range<usize>,
    first: usize,
) -> Result<(CtxReadTicket, InboxTicket), EmError> {
    let g = span(Phase::MatrixRead);
    let mut inbox_t = mat_cur.read_plan(first + slots.start..first + slots.end);
    drop(g);
    let g = span(Phase::CtxLoad);
    let mut ctx_t = ctx_store.read_plan(slots, next, &inbox_t.addrs);
    drop(g);

    let _g = span(Phase::MatrixRead);
    let ops0 = disks.stats().total_ops();
    let ([c, i], ctx_ops) = disks.read_gather_submit_pair(&ctx_t.addrs, &inbox_t.addrs)?;
    (ctx_t.ticket, inbox_t.ticket) = (c, i);
    breakdown.ctx_ops += ctx_ops;
    breakdown.msg_ops += disks.stats().total_ops() - ops0 - ctx_ops;
    Ok((ctx_t, inbox_t))
}
