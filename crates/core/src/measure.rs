//! In-memory dry run that measures the quantities the simulation
//! theorems are stated in: `λ`, `h`, `μ` and the largest message.
//!
//! The paper assumes these are known for the CGM algorithm being
//! simulated (they are part of its analysis); for arbitrary programs we
//! simply measure them on a reference execution, then size the EM
//! engine's fixed slots from the measurement.

use cgmio_model::{CgmProgram, CommCosts, DirectRunner, ModelError, ProcState};
use cgmio_pdm::Item;

/// Measured requirements of a CGM program on a given input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Requirements {
    /// Communication rounds (`λ`).
    pub rounds: usize,
    /// Largest single (src → dst) message, items.
    pub max_msg_items: usize,
    /// Largest per-processor per-round send volume, items.
    pub max_h_items: usize,
    /// Largest encoded context, bytes (`μ`).
    pub max_ctx_bytes: usize,
    /// Largest per-processor receive volume in bytes over any round.
    pub max_proc_recv_bytes: usize,
    /// Largest per-processor send volume in bytes over any round.
    pub max_proc_sent_bytes: usize,
}

impl Requirements {
    /// `μ + 2h`: one context plus its in and out traffic, bytes.
    fn traffic_bytes(&self) -> usize {
        self.max_ctx_bytes + 2 * self.max_proc_recv_bytes.max(self.max_proc_sent_bytes)
    }

    /// `W`, the working set a group computes in: `μ + 2h`, and at least
    /// one `D`-wide stripe.
    pub fn working_set(&self, num_disks: usize, block_bytes: usize) -> usize {
        self.traffic_bytes().max(num_disks * block_bytes)
    }

    /// `R`, the room [`crate::EmConfig::from_requirements`] adds to `W`:
    /// the context carries' `S = 2·(D − 1)·B` (`D − 1` blocks each for
    /// the write carry and the read fill, `crate::context`), and at
    /// `p = 1` the open-block pool's — one block per local mailbox,
    /// `n = min(v, ⌊(μ + 2h)/B⌋)`, plus the `D` blocks of write buffer
    /// the hold rule sets aside: `(n + D)·B`, or 0 when `n = 0`. The cap
    /// on `n` keeps the pool's part at most `W + D·B`; inside the paper's
    /// range (`v·B ≤ N/v`) it never binds. At `p ≥ 2` a round's arrivals
    /// are written as one list that holds nothing open, so `R = S`.
    pub fn pool_reserve(&self, v: usize, p: usize, num_disks: usize, block_bytes: usize) -> usize {
        let n = v.min(self.traffic_bytes() / block_bytes);
        let carries = 2 * num_disks.saturating_sub(1) * block_bytes;
        match p >= 2 || n == 0 {
            true => carries,
            false => carries + (n + num_disks) * block_bytes,
        }
    }
}

/// Instrumented wrapper measuring context sizes after every round.
struct Measured<'a, P> {
    inner: &'a P,
    max_ctx: std::sync::atomic::AtomicUsize,
}

impl<P: CgmProgram> CgmProgram for Measured<'_, P> {
    type Msg = P::Msg;
    type State = P::State;

    fn round(
        &self,
        ctx: &mut cgmio_model::RoundCtx<'_, Self::Msg>,
        state: &mut Self::State,
    ) -> cgmio_model::Status {
        let status = self.inner.round(ctx, state);
        let len = state.encoded_len();
        self.max_ctx.fetch_max(len, std::sync::atomic::Ordering::Relaxed);
        status
    }
}

/// Dry-run `prog` on clones of the initial states (states are consumed;
/// pass a freshly built set) and report measured requirements plus the
/// final states and costs — callers that also want the reference output
/// get it for free.
pub fn measure_requirements<P: CgmProgram>(
    prog: &P,
    states: Vec<P::State>,
) -> Result<(Vec<P::State>, CommCosts, Requirements), ModelError> {
    // Context size must also cover the *initial* states (they are
    // written to disk before round 0).
    let initial_max_ctx = states.iter().map(|s| s.encoded_len()).max().unwrap_or(0);
    let measured =
        Measured { inner: prog, max_ctx: std::sync::atomic::AtomicUsize::new(initial_max_ctx) };
    let (fin, costs) = DirectRunner::default().run(&measured, states)?;
    let msg_size = P::Msg::SIZE;
    let req = Requirements {
        rounds: costs.lambda(),
        max_msg_items: costs.max_message(),
        max_h_items: costs.max_h(),
        max_ctx_bytes: measured.max_ctx.into_inner(),
        max_proc_recv_bytes: costs.rounds.iter().map(|r| r.max_received).max().unwrap_or(0)
            * msg_size,
        max_proc_sent_bytes: costs.rounds.iter().map(|r| r.max_sent).max().unwrap_or(0) * msg_size,
    };
    Ok((fin, costs, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgmio_model::demo::AllToAll;

    #[test]
    fn measures_all_to_all() {
        let v = 4;
        let states: Vec<Vec<u64>> = (0..v).map(|_| Vec::new()).collect();
        let (fin, costs, req) =
            measure_requirements(&AllToAll { items_per_pair: 2 }, states).unwrap();
        assert_eq!(fin.len(), v);
        assert_eq!(costs.lambda(), 1);
        assert_eq!(req.rounds, 1);
        assert_eq!(req.max_msg_items, 2);
        assert_eq!(req.max_h_items, 2 * v);
        // final contexts hold 2*v u64s + length prefix
        assert_eq!(req.max_ctx_bytes, 8 + 8 * 2 * v);
        assert_eq!(req.max_proc_recv_bytes, 2 * v * 8);
    }

    #[test]
    fn initial_context_counted() {
        // A program that immediately shrinks its state: μ must still
        // reflect the big initial context.
        struct Shrink;
        impl CgmProgram for Shrink {
            type Msg = u64;
            type State = Vec<u64>;
            fn round(
                &self,
                _ctx: &mut cgmio_model::RoundCtx<'_, u64>,
                state: &mut Vec<u64>,
            ) -> cgmio_model::Status {
                state.clear();
                cgmio_model::Status::Done
            }
        }
        let states = vec![vec![0u64; 100], vec![]];
        let (_, _, req) = measure_requirements(&Shrink, states).unwrap();
        assert_eq!(req.max_ctx_bytes, 8 + 800);
    }
}
