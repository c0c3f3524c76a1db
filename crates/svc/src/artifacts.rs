//! Durable per-job artifact directories.
//!
//! Every accepted job gets a directory `<root>/job-XXXXXX/` holding
//! small JSON files an operator (or a later session) can inspect
//! without the service running:
//!
//! * `spec.json` — the tenant's request, verbatim.
//! * `status.json` — the lifecycle record: `pending` → `running` →
//!   `done`/`failed`, with queue-wait and latency once known.
//! * `report.json` — the full [`EmRunReport`] accounting (I/O counts,
//!   λ/h/μ, wall time) plus the finals digest; written only on `done`.
//!
//! Writes are atomic per file: contents go to a `.tmp` sibling first
//! and are `rename`d into place, so a reader never observes a torn
//! JSON document (each job directory has exactly one writer — the
//! worker running the job — so the fixed temp name cannot race).
//!
//! A root outlives the service that wrote it. Opening it again adopts
//! it: ids continue after the highest existing `job-*` directory, so a
//! restarted service never overwrites an earlier job's files, and a job
//! the previous service left `pending` or `running` is marked `failed`
//! with the error [`INTERRUPTED`].

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use cgmio_core::EmRunReport;
use cgmio_obs::json::Value;

use crate::spec::{JobId, JobSpec};

/// Lifecycle states recorded in `status.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and queued; not yet dispatched.
    Pending,
    /// Dispatched onto a worker; I/O in flight.
    Running,
    /// Finished successfully; `report.json` exists.
    Done,
    /// Finished with an error (recorded in the status).
    Failed,
}

impl JobState {
    /// Stable lowercase name used in `status.json` and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// One `status.json` snapshot.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current lifecycle state.
    pub state: JobState,
    /// Owning tenant (duplicated from the spec for one-file triage).
    pub tenant: String,
    /// Theorem 2 predicted parallel I/O ops (the admission price).
    pub predicted_ops: f64,
    /// Microseconds from submission to dispatch, once dispatched.
    pub queue_wait_us: Option<u64>,
    /// Microseconds from submission to completion, once finished.
    pub latency_us: Option<u64>,
    /// Error message, for `failed` jobs.
    pub error: Option<String>,
}

impl JobStatus {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("state".into(), Value::str(self.state.name())),
            ("tenant".into(), Value::str(self.tenant.clone())),
            ("predicted_ops".into(), Value::num(self.predicted_ops)),
            ("queue_wait_us".into(), self.queue_wait_us.map_or(Value::Null, Value::num)),
            ("latency_us".into(), self.latency_us.map_or(Value::Null, Value::num)),
            ("error".into(), self.error.clone().map_or(Value::Null, Value::str)),
        ])
    }
}

/// JSON form of a run report, shared by `report.json` and the service
/// experiment's per-job records.
pub fn report_to_json(rep: &EmRunReport, finals_hash: u64) -> Value {
    Value::Obj(vec![
        ("lambda".into(), Value::num(rep.costs.lambda())),
        ("max_ctx_bytes".into(), Value::num(rep.costs.max_context_bytes)),
        ("io_ops".into(), Value::num(rep.io.total_ops())),
        ("io_blocks".into(), Value::num(rep.io.total_blocks())),
        ("algorithm_ops".into(), Value::num(rep.breakdown.algorithm_ops())),
        ("setup_ops".into(), Value::num(rep.breakdown.setup_ops)),
        ("readout_ops".into(), Value::num(rep.breakdown.readout_ops)),
        ("parallel_efficiency".into(), Value::num(rep.io.parallel_efficiency())),
        ("peak_mem_bytes".into(), Value::num(rep.peak_mem_bytes)),
        ("wall_us".into(), Value::num(rep.wall.as_micros())),
        ("finals_hash".into(), Value::str(format!("{finals_hash:016x}"))),
    ])
}

/// The error recorded for a job an earlier service left unfinished.
pub const INTERRUPTED: &str = "interrupted: service restarted";

/// The on-disk artifact root and its write helpers.
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    next_id: JobId,
}

impl ArtifactStore {
    /// Open (creating if needed) an artifact root directory, adopting
    /// the jobs an earlier service recorded there (see the module docs).
    pub fn new(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let mut store = Self { root, next_id: JobId(0) };
        for entry in fs::read_dir(&store.root)? {
            let name = entry?.file_name();
            let Some(id) = name.to_str().and_then(|n| n.strip_prefix("job-")?.parse::<u64>().ok())
            else {
                continue;
            };
            store.next_id.0 = store.next_id.0.max(id.saturating_add(1));
            store.reconcile(JobId(id))?;
        }
        Ok(store)
    }

    /// The first id past every job directory found at [`Self::new`].
    pub fn next_id(&self) -> JobId {
        self.next_id
    }

    /// Rewrite a `pending` or `running` status as `failed`: its
    /// service is gone, so nothing will ever finish the job.
    fn reconcile(&self, id: JobId) -> io::Result<()> {
        let Ok(Value::Obj(mut fields)) = self.read_json(id, "status.json") else {
            return Ok(());
        };
        let unfinished = |(k, v): &(String, Value)| {
            k == "state" && matches!(v.as_str(), Some("pending" | "running"))
        };
        if !fields.iter().any(unfinished) {
            return Ok(());
        }
        for (k, v) in &mut fields {
            match k.as_str() {
                "state" => *v = Value::str(JobState::Failed.name()),
                "error" => *v = Value::str(INTERRUPTED),
                _ => {}
            }
        }
        self.write_json(id, "status.json", &Value::Obj(fields))
    }

    /// The artifact directory of one job (not necessarily created yet).
    pub fn job_dir(&self, id: JobId) -> PathBuf {
        self.root.join(id.to_string())
    }

    fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, contents)?;
        fs::rename(&tmp, path)
    }

    fn write_json(&self, id: JobId, file: &str, value: &Value) -> io::Result<()> {
        let dir = self.job_dir(id);
        fs::create_dir_all(&dir)?;
        Self::write_atomic(&dir.join(file), &(value.render() + "\n"))
    }

    /// Write `spec.json` (once, at acceptance).
    pub fn write_spec(&self, id: JobId, spec: &JobSpec) -> io::Result<()> {
        self.write_json(id, "spec.json", &spec.to_json())
    }

    /// Write (or atomically overwrite) `status.json`.
    pub fn write_status(&self, id: JobId, status: &JobStatus) -> io::Result<()> {
        self.write_json(id, "status.json", &status.to_json())
    }

    /// Write `plan.json` — the static planner's knob choices for this
    /// job (planned B/depth/prefetch plus what actually executes).
    pub fn write_plan(&self, id: JobId, plan: &Value) -> io::Result<()> {
        self.write_json(id, "plan.json", plan)
    }

    /// Write `report.json` for a completed job.
    pub fn write_report(&self, id: JobId, rep: &EmRunReport, finals_hash: u64) -> io::Result<()> {
        self.write_json(id, "report.json", &report_to_json(rep, finals_hash))
    }

    /// Parse one of the job's artifact files back (test/triage helper).
    pub fn read_json(&self, id: JobId, file: &str) -> io::Result<Value> {
        let text = fs::read_to_string(self.job_dir(id).join(file))?;
        cgmio_obs::json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Priority, WorkloadKind};

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            workload: WorkloadKind::Permute,
            n: 1024,
            v: 4,
            block_bytes: 512,
            priority: Priority::Batch,
            deadline_hint_ms: None,
            seed: 1,
        }
    }

    #[test]
    fn lifecycle_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("cgmio-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir).unwrap();
        let id = JobId(7);
        store.write_spec(id, &spec()).unwrap();
        let mut status = JobStatus {
            state: JobState::Pending,
            tenant: "acme".into(),
            predicted_ops: 12.5,
            queue_wait_us: None,
            latency_us: None,
            error: None,
        };
        store.write_status(id, &status).unwrap();
        let v = store.read_json(id, "status.json").unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("pending"));
        assert!(v.get("latency_us").unwrap().as_u64().is_none());

        status.state = JobState::Done;
        status.queue_wait_us = Some(10);
        status.latency_us = Some(250);
        store.write_status(id, &status).unwrap();
        let v = store.read_json(id, "status.json").unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(v.get("latency_us").unwrap().as_u64(), Some(250));
        // Spec is still intact beside it.
        let s = store.read_json(id, "spec.json").unwrap();
        assert_eq!(s.get("workload").unwrap().as_str(), Some("permute"));
        // No .tmp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(store.job_dir(id))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_fails_unfinished_jobs_and_continues_ids() {
        let dir = cgmio_pdm::testutil::TempDir::new("cgmio-artifacts-reopen");
        let store = ArtifactStore::new(dir.path()).unwrap();
        assert_eq!(store.next_id(), JobId(0));
        let status = |state| JobStatus {
            state,
            tenant: "acme".into(),
            predicted_ops: 12.5,
            queue_wait_us: Some(10),
            latency_us: None,
            error: None,
        };
        store.write_status(JobId(3), &status(JobState::Running)).unwrap();
        store.write_status(JobId(9), &status(JobState::Pending)).unwrap();
        store.write_status(JobId(4), &status(JobState::Done)).unwrap();
        let done = std::fs::read(store.job_dir(JobId(4)).join("status.json")).unwrap();

        let store = ArtifactStore::new(dir.path()).unwrap();
        assert_eq!(store.next_id(), JobId(10));
        for id in [JobId(3), JobId(9)] {
            let v = store.read_json(id, "status.json").unwrap();
            assert_eq!(v.get("state").unwrap().as_str(), Some("failed"), "{id}");
            assert_eq!(v.get("error").unwrap().as_str(), Some(INTERRUPTED), "{id}");
            assert_eq!(v.get("tenant").unwrap().as_str(), Some("acme"), "{id}");
        }
        let after = std::fs::read(store.job_dir(JobId(4)).join("status.json")).unwrap();
        assert_eq!(after, done, "a finished job is left as it was");
    }

    #[test]
    fn report_json_shape() {
        use cgmio_model::CommCosts;
        use cgmio_pdm::{DiskGeometry, IoStats};
        let rep = EmRunReport {
            costs: CommCosts::default(),
            io: IoStats::new(2),
            breakdown: Default::default(),
            geometry: DiskGeometry::new(2, 512),
            p: 1,
            v: 4,
            peak_mem_bytes: 100,
            peak_open_bytes: 0,
            ctx_blocks_kept: 0,
            ctx_blocks_carried: 0,
            ctx_blocks_preread: 0,
            cross_thread_items: 0,
            wall: std::time::Duration::from_micros(42),
            io_trace: Vec::new(),
            faults: None,
            retries: 0,
            deferred_write_errors_dropped: 0,
        };
        let j = report_to_json(&rep, 0xdead_beef);
        assert_eq!(j.get("wall_us").unwrap().as_u64(), Some(42));
        assert_eq!(j.get("finals_hash").unwrap().as_str(), Some("00000000deadbeef"));
        cgmio_obs::json::parse(&j.render()).unwrap();
    }
}
