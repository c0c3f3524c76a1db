//! Typed job descriptions and identifiers.
//!
//! A [`JobSpec`] is everything a tenant says about a job: what to run
//! (workload kind, problem size `n`, virtual machine width `v`, block
//! size `B`), who is asking (`tenant`), and how urgently
//! ([`Priority`], an optional deadline hint). Everything else — the
//! measured `λ`/`μ`, the predicted I/O demand, the track reservation —
//! is derived by the service, never supplied by the tenant.

use std::fmt;

use cgmio_obs::json::Value;

/// Which CGM algorithm a job runs (all from `cgmio-algos`, all
/// property-tested against in-memory runners).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// `CgmSort<u64>` by deterministic regular sampling.
    Sort,
    /// `CgmPermute`: route `n` items to seeded random destinations.
    Permute,
    /// `CgmTranspose` of a `v × (n/v)` matrix (requires `v | n`).
    Transpose,
}

impl WorkloadKind {
    /// Stable lowercase name used in JSON artifacts and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Sort => "sort",
            WorkloadKind::Permute => "permute",
            WorkloadKind::Transpose => "transpose",
        }
    }
}

/// Dispatch urgency. Priorities scale the tenant's deficit round-robin
/// quantum while a job of that priority is at the head of its queue —
/// they shift *latency* between tenants' heads, never admission (the
/// I/O budget applies identically to every priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Background work; base quantum.
    Batch,
    /// The default; 2× quantum.
    Normal,
    /// Latency-sensitive; 4× quantum.
    Interactive,
}

impl Priority {
    /// Quantum multiplier applied by the DRR scheduler.
    pub fn weight(&self) -> f64 {
        match self {
            Priority::Batch => 1.0,
            Priority::Normal => 2.0,
            Priority::Interactive => 4.0,
        }
    }

    /// Stable lowercase name used in JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::Interactive => "interactive",
        }
    }
}

/// A tenant's job request.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Owning tenant (metric label and fairness domain; non-empty).
    pub tenant: String,
    /// Algorithm to run.
    pub workload: WorkloadKind,
    /// Problem size in items.
    pub n: usize,
    /// Virtual processors of the simulated CGM machine.
    pub v: usize,
    /// Block size in bytes; must match the shared pool's geometry
    /// (jobs with a different `B` are rejected at admission — one
    /// pool has one track size).
    pub block_bytes: usize,
    /// Dispatch urgency.
    pub priority: Priority,
    /// Advisory completion deadline, milliseconds from submission.
    /// Recorded in artifacts and reports so operators can audit misses;
    /// the scheduler does not preempt on it.
    pub deadline_hint_ms: Option<u64>,
    /// Seed for the job's input data (same seed ⇒ bit-identical run).
    pub seed: u64,
}

impl JobSpec {
    /// Structural validation (cheap; no dry run).
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() {
            return Err("tenant must be non-empty".into());
        }
        if self.tenant.contains(|c: char| c == '"' || c == '\\' || c.is_control()) {
            return Err("tenant must be a plain label (no quotes or control chars)".into());
        }
        if self.v < 2 {
            return Err(format!("v must be at least 2, got {}", self.v));
        }
        if self.n < self.v {
            return Err(format!("need n >= v, got n={} v={}", self.n, self.v));
        }
        if self.block_bytes == 0 {
            return Err("block_bytes must be positive".into());
        }
        if self.workload == WorkloadKind::Transpose && !self.n.is_multiple_of(self.v) {
            return Err(format!("transpose needs v | n, got n={} v={}", self.n, self.v));
        }
        // `CgmPermute` addresses an item by its u32 offset in the
        // receiving block; refuse here, before the dry run would panic.
        if self.workload == WorkloadKind::Permute && self.n.div_ceil(self.v) > u32::MAX as usize {
            return Err(format!(
                "permute blocks hold at most {} items, got n={} v={}",
                u32::MAX,
                self.n,
                self.v
            ));
        }
        Ok(())
    }

    /// JSON form written to the job's `spec.json` artifact.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("tenant".into(), Value::str(self.tenant.clone())),
            ("workload".into(), Value::str(self.workload.name())),
            ("n".into(), Value::num(self.n)),
            ("v".into(), Value::num(self.v)),
            ("block_bytes".into(), Value::num(self.block_bytes)),
            ("priority".into(), Value::str(self.priority.name())),
            ("deadline_hint_ms".into(), self.deadline_hint_ms.map_or(Value::Null, Value::num)),
            ("seed".into(), Value::num(self.seed)),
        ])
    }
}

/// Service-assigned job identifier (dense, monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{:06}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            workload: WorkloadKind::Sort,
            n: 4096,
            v: 8,
            block_bytes: 1024,
            priority: Priority::Normal,
            deadline_hint_ms: Some(500),
            seed: 7,
        }
    }

    #[test]
    fn valid_spec_passes_and_serialises() {
        let s = spec();
        s.validate().unwrap();
        let j = s.to_json();
        assert_eq!(j.get("tenant").unwrap().as_str(), Some("acme"));
        assert_eq!(j.get("workload").unwrap().as_str(), Some("sort"));
        assert_eq!(j.get("deadline_hint_ms").unwrap().as_u64(), Some(500));
        // Round-trips through the parser.
        let back = cgmio_obs::json::parse(&j.render()).unwrap();
        assert_eq!(back.get("n").unwrap().as_u64(), Some(4096));
    }

    #[test]
    fn bad_specs_rejected() {
        let mut s = spec();
        s.tenant = String::new();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.tenant = "a\"b".into();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.n = 4;
        assert!(s.validate().is_err(), "n < v");
        let mut s = spec();
        s.workload = WorkloadKind::Transpose;
        s.n = 4097;
        assert!(s.validate().is_err(), "transpose needs v | n");
    }

    /// Built and validated only: running it would allocate the input.
    #[test]
    fn unaddressable_permute_blocks_rejected() {
        let mut s = spec();
        s.workload = WorkloadKind::Permute;
        s.v = 2;
        s.n = 2 * u32::MAX as usize;
        s.validate().unwrap();
        s.n += 1;
        let err = s.validate().unwrap_err();
        assert!(err.contains("permute blocks"), "{err}");
        s.workload = WorkloadKind::Sort;
        s.validate().unwrap();
    }

    #[test]
    fn job_id_formats_densely() {
        assert_eq!(JobId(3).to_string(), "job-000003");
        assert_eq!(JobId(123_456).to_string(), "job-123456");
    }

    #[test]
    fn priority_weights_order() {
        assert!(Priority::Interactive.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Batch.weight());
    }
}
