//! cgmio-tune: the static planner for the EM-CGM runtime.
//!
//! [`plan`] derives, before superstep 0, initial values for block size
//! `B`, `pipeline_depth` and the concurrent engine's prefetch window
//! from Theorem 2's predicted operation count
//! ([`cgmio_model::theorem2_predicted_ops`]), the measured per-workload
//! `μ` (largest context) and a [`DiskTimingModel`]. The planner only
//! *proposes*: callers pinned to a pool geometry (the job service — one
//! engine has one track size) keep their `B` and take the depth and
//! prefetch proposal. Both knobs are excluded from
//! `EmConfig::config_hash` and change wall-clock only, never finals,
//! `IoStats`, checkpoint manifests or fault/retry totals.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use cgmio_model::CommCosts;
use cgmio_pdm::DiskTimingModel;

/// The planner's proposal for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// Proposed block size `B` (bytes). Callers bound to a fixed pool
    /// geometry ignore this and keep their own `B`.
    pub block_bytes: usize,
    /// Initial pipeline depth.
    pub pipeline_depth: usize,
    /// Initial prefetch window (blocks per drive worker).
    pub prefetch_blocks: usize,
    /// Theorem 2 predicted parallel I/O operations at the *planned* `B`
    /// (ceil-based per-context transfer count, so it is finite and has
    /// a real optimum, unlike the asymptotic `λ·v·μ/(D·B)` form).
    pub predicted_ops: f64,
}

impl Plan {
    /// JSON object recorded in job artifacts (`cgmio_obs::json`).
    pub fn to_json(&self) -> cgmio_obs::json::Value {
        use cgmio_obs::json::Value;
        Value::Obj(vec![
            ("block_bytes".into(), Value::num(self.block_bytes)),
            ("pipeline_depth".into(), Value::num(self.pipeline_depth)),
            ("prefetch_blocks".into(), Value::num(self.prefetch_blocks)),
            ("predicted_ops".into(), Value::num(format!("{:.1}", self.predicted_ops))),
        ])
    }
}

/// Ceil-based variant of the Theorem 2 operation count: each of the
/// `λ·v` context transfers moves `ceil(μ/B)` blocks, spread over `D`
/// drives. Unlike the asymptotic `λ·v·μ/(D·B)`, this stops improving
/// once `B ≥ μ` — the regime where growing `B` only pads transfers.
pub fn predicted_ops_ceil(
    lambda: usize,
    v: usize,
    max_ctx_bytes: usize,
    num_disks: usize,
    block_bytes: usize,
) -> f64 {
    let blocks_per_ctx = max_ctx_bytes.div_ceil(block_bytes.max(1)).max(1);
    (lambda as f64) * (v as f64) * (blocks_per_ctx as f64) / (num_disks.max(1) as f64)
}

/// Pick initial knobs for a workload from its dry-run [`CommCosts`]
/// (`λ` and the measured `μ` in `max_context_bytes`), the machine shape
/// (`v` virtual processors, `D` drives), and a device timing model.
///
/// * **`B`**: the power-of-two block size minimizing the modelled wall
///   time `ops(B) · (position + B/bandwidth)` with the ceil-based op
///   count — small `B` pays positioning per extra block, large `B` pays
///   padded transfer time. Swept over `[512, 1 MiB]`.
/// * **`pipeline_depth`**: one in-flight virtual processor per drive
///   worker (`min(D, v)`), the shallowest depth that can keep every
///   drive busy while one vp computes.
/// * **`prefetch_blocks`**: enough window for the in-flight vps'
///   context blocks on each drive, at least the engine default of 16.
pub fn plan(costs: &CommCosts, v: usize, num_disks: usize, model: &DiskTimingModel) -> Plan {
    let lambda = costs.lambda();
    let mu = costs.max_context_bytes;
    let mut best: Option<(f64, usize)> = None;
    let mut bb = 512usize;
    while bb <= 1 << 20 {
        let ops = predicted_ops_ceil(lambda, v, mu, num_disks, bb);
        let wall = ops * model.op_time_us(bb);
        if best.is_none_or(|(w, _)| wall < w) {
            best = Some((wall, bb));
        }
        bb *= 2;
    }
    let (_, block_bytes) = best.expect("non-empty candidate sweep");
    let pipeline_depth = num_disks.min(v).max(1);
    let blocks_per_ctx = mu.div_ceil(block_bytes.max(1)).max(1);
    let prefetch_blocks = (pipeline_depth * blocks_per_ctx).div_ceil(num_disks.max(1)).max(16);
    Plan {
        block_bytes,
        pipeline_depth,
        prefetch_blocks,
        predicted_ops: predicted_ops_ceil(lambda, v, mu, num_disks, block_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_ops_floor_at_one_block_per_context() {
        // μ smaller than B: ops stop shrinking as B grows.
        let at = |bb| predicted_ops_ceil(3, 8, 1000, 4, bb);
        assert_eq!(at(512), 3.0 * 8.0 * 2.0 / 4.0);
        assert_eq!(at(1024), 3.0 * 8.0 / 4.0);
        assert_eq!(at(1 << 20), at(1024), "B beyond μ buys nothing");
    }

    #[test]
    fn planner_picks_a_cost_optimal_block_size() {
        let mut costs = CommCosts { max_context_bytes: 256 * 1024, ..CommCosts::default() }; // μ = 256 KiB
        costs.rounds.push(cgmio_model::RoundCost::default()); // λ = 1
        let model = DiskTimingModel::nineties_disk();
        let p = plan(&costs, 16, 4, &model);
        // With ~12 ms positioning per op and 8 B/us bandwidth, padding a
        // block costs far less than an extra op: the optimum is a large
        // block, but never beyond what μ can fill (ops floor at B ≥ μ,
        // so the smallest such B wins — larger only pads).
        assert_eq!(p.block_bytes, 256 * 1024);
        assert_eq!(p.pipeline_depth, 4, "one in-flight vp per drive");
        assert!(p.prefetch_blocks >= 16);
        assert!(p.predicted_ops > 0.0);
        // A fast device with cheap positioning prefers smaller blocks
        // than the optimum-fill point… still never below one that the
        // sweep's wall model justifies.
        let fast = DiskTimingModel { position_us: 1.0, bandwidth_bytes_per_us: 1000.0 };
        let pf = plan(&costs, 16, 4, &fast);
        assert!(pf.block_bytes <= p.block_bytes);
    }

    #[test]
    fn plan_serialises_for_artifacts() {
        let p = Plan {
            block_bytes: 32768,
            pipeline_depth: 4,
            prefetch_blocks: 16,
            predicted_ops: 1010.0,
        };
        let j = p.to_json();
        assert_eq!(j.get("block_bytes").unwrap().as_u64(), Some(32768));
        assert_eq!(j.get("pipeline_depth").unwrap().as_u64(), Some(4));
        let back = cgmio_obs::json::parse(&j.render()).unwrap();
        assert_eq!(back.get("prefetch_blocks").unwrap().as_u64(), Some(16));
    }
}
