//! The job service: admission → queue → dispatch → artifacts.
//!
//! One [`JobService`] owns one shared disk-array pool and a bounded
//! pool of worker threads. Submission prices the job (dry run +
//! Theorem 2), screens it against the I/O budget, records its
//! artifacts, and enqueues it with the [`DrrScheduler`]; workers pull
//! fairly from the queue, gate each dispatch through the
//! [`AdmissionController`]'s headroom, carve a private track window
//! out of the pool ([`BackendSpec::Shared`]), run the job, and write
//! its report.
//!
//! **The pool is used as given.** [`JobService::new`] builds a
//! [`MemStorage`] pool: one lock per drive, so a worker moves its
//! job's blocks itself and never hands an operation to another thread.
//! [`JobService::with_pool`] runs jobs on the caller's storage as it
//! is; a caller that wants per-drive worker threads (file-backed
//! drives, say) passes its own `cgmio_io::ConcurrentStorage`, with
//! `obs` set in its options if it wants the `cgmio_io_*` series.
//!
//! **Isolation.** Track windows come from a [`TrackPool`]: live jobs
//! never share a track, and when a job completes its window is
//! *discarded* (`TrackStorage::discard` — caches dropped, backing
//! freed, tracks read as zeros again) and recycled for a later job of
//! the same span. A recycled window is therefore indistinguishable
//! from a fresh one, which is why a job's finals and `IoStats` are
//! bit-identical to a solo run (see `tests/service_isolation.rs`).
//! If the backend cannot reclaim (`discard` returns `Ok(false)` or
//! errors) the window is leaked and allocation falls back to the
//! monotonic bump — correctness is kept either way, only pool
//! high-water suffers. The service attaches no fault plan to the pool,
//! so pool-global error state (an engine's sticky write error) stays
//! clear.
//!
//! **No per-job runner observability.** Per-job runner spans would all
//! publish `(superstep, phase)` for "processor 0" into the same cell
//! and clobber each other, so job configs keep `obs: None` and the
//! service reports job-level metrics itself (queue wait, latency,
//! outcome counters — all labelled by tenant).

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use cgmio_core::{BackendSpec, EmConfig};
use cgmio_obs::json::Value;
use cgmio_obs::Obs;
use cgmio_pdm::{DiskGeometry, MemStorage, TrackStorage};

use crate::admission::{AdmissionController, RejectReason};
use crate::artifacts::{ArtifactStore, JobState, JobStatus};
use crate::scheduler::{DrrScheduler, Entry};
use crate::spec::{JobId, JobSpec};
use crate::workload::{prepare, PreparedJob};

/// Everything configurable about a [`JobService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Drives in the shared pool.
    pub num_disks: usize,
    /// Pool block size; jobs must request the same `B`.
    pub block_bytes: usize,
    /// Worker threads (concurrent jobs). At least 1.
    pub workers: usize,
    /// Admission budget: predicted parallel I/O ops allowed in flight.
    pub budget_ops: f64,
    /// DRR quantum: predicted ops granted per tenant per visit.
    pub quantum_ops: f64,
    /// Root for per-job artifact directories; `None` disables artifacts.
    pub artifacts_dir: Option<PathBuf>,
    /// Observability handle for the service's metrics.
    pub obs: Option<Obs>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            num_disks: 4,
            block_bytes: 4096,
            workers: 2,
            budget_ops: 1e6,
            quantum_ops: 256.0,
            artifacts_dir: None,
            obs: None,
        }
    }
}

/// What the service remembers about one finished job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Service-assigned id.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Workload name (`sort`/`permute`/`transpose`).
    pub workload: &'static str,
    /// Priority name (`batch`/`normal`/`interactive`).
    pub priority: &'static str,
    /// Whether the run succeeded.
    pub ok: bool,
    /// Error message for failed runs.
    pub error: Option<String>,
    /// Theorem 2 predicted parallel I/O ops (the admission price).
    pub predicted_ops: f64,
    /// Measured algorithm I/O ops (0 for failed runs).
    pub measured_ops: u64,
    /// Microseconds spent queued before dispatch.
    pub queue_wait_us: u64,
    /// Microseconds from submission to completion.
    pub latency_us: u64,
    /// Digest of the final contexts (0 for failed runs).
    pub finals_hash: u64,
    /// Whether the job finished past its advisory deadline (`None`
    /// when no hint was given).
    pub deadline_missed: Option<bool>,
}

impl JobRecord {
    /// JSON form used by the service experiment's per-job dump.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::str(self.id.to_string())),
            ("tenant".into(), Value::str(self.tenant.clone())),
            ("workload".into(), Value::str(self.workload)),
            ("priority".into(), Value::str(self.priority)),
            ("ok".into(), Value::num(self.ok as u8)),
            ("error".into(), self.error.clone().map_or(Value::Null, Value::str)),
            ("predicted_ops".into(), Value::num(self.predicted_ops)),
            ("measured_ops".into(), Value::num(self.measured_ops)),
            ("queue_wait_us".into(), Value::num(self.queue_wait_us)),
            ("latency_us".into(), Value::num(self.latency_us)),
            ("finals_hash".into(), Value::str(format!("{:016x}", self.finals_hash))),
            (
                "deadline_missed".into(),
                self.deadline_missed.map_or(Value::Null, |m| Value::num(m as u8)),
            ),
        ])
    }
}

/// A queued, priced job travelling through the scheduler.
#[derive(Debug)]
struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    prepared: PreparedJob,
    submitted_us: u64,
}

#[derive(Debug)]
struct SchedState {
    queue: DrrScheduler<QueuedJob>,
    running: usize,
    closed: bool,
    records: Vec<JobRecord>,
}

/// Track-window allocator for the shared pool: exact-span free lists
/// over a monotonic bump pointer.
///
/// `alloc` prefers a previously released window of the *same* span —
/// exact-fit only, so a recycled window can never straddle tracks still
/// owned by a neighbour — and bumps `next` otherwise. `release` is only
/// called after the window's tracks were successfully discarded, so
/// every window handed out reads as zeros. Without reclamation a
/// long-running service's pool footprint grows with every job ever run;
/// with it, the high-water mark is bounded by the peak *concurrent*
/// span (see `long_job_stream_reuses_pool_windows`).
#[derive(Debug, Default)]
struct TrackPool {
    inner: Mutex<TrackPoolInner>,
}

#[derive(Debug, Default)]
struct TrackPoolInner {
    next: u64,
    /// span → bases of discarded windows of exactly that span.
    free: HashMap<u64, Vec<u64>>,
}

impl TrackPool {
    fn alloc(&self, span: u64) -> u64 {
        let mut g = self.inner.lock().unwrap();
        if let Some(base) = g.free.get_mut(&span).and_then(Vec::pop) {
            return base;
        }
        let base = g.next;
        g.next += span;
        base
    }

    fn release(&self, base: u64, span: u64) {
        self.inner.lock().unwrap().free.entry(span).or_default().push(base);
    }

    /// One past the highest track ever allocated (per drive).
    fn high_water(&self) -> u64 {
        self.inner.lock().unwrap().next
    }
}

struct Shared {
    num_disks: usize,
    block_bytes: usize,
    pool: Arc<dyn TrackStorage>,
    tracks: TrackPool,
    admission: AdmissionController,
    state: Mutex<SchedState>,
    cv: Condvar,
    artifacts: Option<ArtifactStore>,
    obs: Option<Obs>,
    epoch: Instant,
    next_id: AtomicU64,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn note_reject(&self, tenant: &str, reason: &RejectReason) {
        if let Some(o) = &self.obs {
            o.metrics()
                .counter(
                    "cgmio_svc_admission_rejects_total",
                    &[("tenant", tenant.to_string()), ("reason", reason.label().to_string())],
                )
                .inc();
        }
    }

    fn note_outcome(&self, rec: &JobRecord) {
        if let Some(o) = &self.obs {
            let m = o.metrics();
            let outcome = if rec.ok { "done" } else { "failed" };
            m.counter(
                "cgmio_svc_jobs_total",
                &[("tenant", rec.tenant.clone()), ("outcome", outcome.to_string())],
            )
            .inc();
            m.histogram("cgmio_svc_queue_wait_us", &[("tenant", rec.tenant.clone())])
                .observe(rec.queue_wait_us);
            m.histogram("cgmio_svc_job_latency_us", &[("tenant", rec.tenant.clone())])
                .observe(rec.latency_us);
        }
    }

    fn set_gauges(&self, queued: usize) {
        if let Some(o) = &self.obs {
            let m = o.metrics();
            m.gauge("cgmio_svc_queue_depth", &[]).set(queued as i64);
            m.gauge("cgmio_svc_inflight_predicted_ops", &[])
                .set(self.admission.in_flight_ops() as i64);
            m.gauge("cgmio_svc_pool_high_water_tracks", &[]).set(self.tracks.high_water() as i64);
        }
    }

    fn write_status(&self, id: JobId, status: &JobStatus) {
        if let Some(store) = &self.artifacts {
            // Artifact I/O failures must not take the service down; the
            // job's own result is still reported through its record.
            let _ = store.write_status(id, status);
        }
    }

    /// Execute one dispatched job on its own pool window.
    fn run_job(&self, job: QueuedJob) -> JobRecord {
        let QueuedJob { id, spec, prepared, submitted_us } = job;
        let queue_wait_us = self.now_us().saturating_sub(submitted_us);
        let predicted_ops = prepared.predicted_ops;
        let span = prepared.span_tracks;
        let base = self.tracks.alloc(span);
        let mut status = JobStatus {
            state: JobState::Running,
            tenant: spec.tenant.clone(),
            predicted_ops,
            queue_wait_us: Some(queue_wait_us),
            latency_us: None,
            error: None,
        };
        self.write_status(id, &status);

        let mut cfg: EmConfig = prepared.config.clone();
        cfg.backend = BackendSpec::Shared {
            storage: Arc::clone(&self.pool),
            base_track: base,
            worker_span_tracks: span,
        };
        // A panic in the run or in the pool's discard becomes a failed
        // record like any other error: unwinding through the worker
        // would leave `running` and the admission reservation held, and
        // its peers waiting for ever.
        let caught = |p: Box<dyn Any + Send>| format!("job panicked: {}", panic_message(&*p));
        let mut result = panic::catch_unwind(AssertUnwindSafe(|| prepared.run(cfg)))
            .map_err(caught)
            .and_then(|r| r.map_err(|e| e.to_string()));
        // Reclaim the window (failed runs included — their writes are
        // garbage either way). A synchronous pool applied every write
        // before the runner returned; a queued one orders the discard
        // behind the job's in-flight writes and drops its caches for
        // the range. Either way recycling is race-free. Any drive that
        // cannot reclaim (or panics) leaks the whole window back to the
        // bump allocator.
        let reclaim = || {
            let mut reclaimed = true;
            for disk in 0..self.num_disks {
                if !matches!(self.pool.discard(disk, base..base + span), Ok(true)) {
                    reclaimed = false;
                }
            }
            reclaimed
        };
        match panic::catch_unwind(AssertUnwindSafe(reclaim)) {
            Ok(true) => self.tracks.release(base, span),
            Ok(false) => {}
            Err(p) => result = result.and(Err(caught(p))),
        }
        let latency_us = self.now_us().saturating_sub(submitted_us);
        let deadline_missed = spec.deadline_hint_ms.map(|ms| latency_us > ms.saturating_mul(1000));
        let mut rec = JobRecord {
            id,
            tenant: spec.tenant,
            workload: spec.workload.name(),
            priority: spec.priority.name(),
            ok: false,
            error: None,
            predicted_ops,
            measured_ops: 0,
            queue_wait_us,
            latency_us,
            finals_hash: 0,
            deadline_missed,
        };
        match result {
            Ok(outcome) => {
                if let Some(store) = &self.artifacts {
                    let _ = store.write_report(id, &outcome.report, outcome.finals_hash);
                }
                status.state = JobState::Done;
                rec.ok = true;
                rec.measured_ops = outcome.report.breakdown.algorithm_ops();
                rec.finals_hash = outcome.finals_hash;
            }
            Err(e) => {
                status.state = JobState::Failed;
                status.error = Some(e);
                rec.error = status.error.clone();
            }
        }
        status.latency_us = Some(latency_us);
        self.write_status(id, &status);
        self.note_outcome(&rec);
        rec
    }
}

/// The message a panic was raised with, if it was a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(s) => s,
        None => payload.downcast_ref::<String>().map_or("non-string payload", String::as_str),
    }
}

fn worker_loop(sh: &Shared) {
    loop {
        let entry = {
            let mut st = sh.state.lock().unwrap();
            loop {
                if let Some((_tenant, entry)) =
                    st.queue.next(&mut |cost| sh.admission.try_reserve(cost))
                {
                    st.running += 1;
                    break entry;
                }
                if st.closed && st.queue.is_empty() && st.running == 0 {
                    return;
                }
                // Either every queue is empty or the budget is full;
                // both resolve on the next submit/completion notify.
                st = sh.cv.wait(st).unwrap();
            }
        };
        let cost = entry.cost_ops;
        let record = sh.run_job(entry.payload);
        sh.admission.release(cost);
        let queued = {
            let mut st = sh.state.lock().unwrap();
            st.running -= 1;
            st.records.push(record);
            st.queue.len()
        };
        sh.set_gauges(queued);
        // Wake peers: budget headroom opened and/or drain may complete.
        sh.cv.notify_all();
    }
}

/// A multi-tenant EM-CGM job service over one shared disk-array pool.
pub struct JobService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// A service over a fresh in-memory pool.
    pub fn new(cfg: ServiceConfig) -> std::io::Result<Self> {
        let geom = DiskGeometry::new(cfg.num_disks, cfg.block_bytes);
        Self::with_pool(cfg, Arc::new(MemStorage::new(geom)))
    }

    /// A service whose jobs run on `pool` as given (e.g. a
    /// `ConcurrentStorage` engine over file-backed drives). `pool` must
    /// match `cfg.num_disks`/`cfg.block_bytes`; a pool with another
    /// drive count is refused with [`std::io::ErrorKind::InvalidInput`].
    pub fn with_pool(cfg: ServiceConfig, pool: Arc<dyn TrackStorage>) -> std::io::Result<Self> {
        let pool_disks = pool.tracks_used().len();
        if pool_disks != cfg.num_disks {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "pool has {pool_disks} drives, the service is configured for {}",
                    cfg.num_disks
                ),
            ));
        }
        let artifacts = cfg.artifacts_dir.clone().map(ArtifactStore::new).transpose()?;
        let first_id = artifacts.as_ref().map_or(0, |a| a.next_id().0);
        let shared = Arc::new(Shared {
            num_disks: cfg.num_disks,
            block_bytes: cfg.block_bytes,
            pool,
            tracks: TrackPool::default(),
            admission: AdmissionController::new(cfg.budget_ops),
            state: Mutex::new(SchedState {
                queue: DrrScheduler::new(cfg.quantum_ops),
                running: 0,
                closed: false,
                records: Vec::new(),
            }),
            cv: Condvar::new(),
            artifacts,
            obs: cfg.obs.clone(),
            epoch: Instant::now(),
            next_id: AtomicU64::new(first_id),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cgmio-svc-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Self { shared, workers })
    }

    /// Price, screen, and enqueue a job. `Ok` means the job *will* run
    /// (queued or dispatched); `Err` is an admission reject and nothing
    /// was queued.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, RejectReason> {
        let sh = &*self.shared;
        if spec.block_bytes != sh.block_bytes {
            let r = RejectReason::GeometryMismatch {
                job_block_bytes: spec.block_bytes,
                pool_block_bytes: sh.block_bytes,
            };
            sh.note_reject(&spec.tenant, &r);
            return Err(r);
        }
        let prepared = match prepare(&spec, sh.num_disks) {
            Ok(p) => p,
            Err(e) => {
                let r = RejectReason::BadSpec(e);
                sh.note_reject(&spec.tenant, &r);
                return Err(r);
            }
        };
        if let Err(r) = sh.admission.screen(prepared.predicted_ops) {
            sh.note_reject(&spec.tenant, &r);
            return Err(r);
        }
        let id = JobId(sh.next_id.fetch_add(1, Ordering::Relaxed));
        if let Some(store) = &sh.artifacts {
            let _ = store.write_spec(id, &spec);
            // The planner's proposal, plus what actually executes: the
            // pool geometry pins B, the planned depth is applied.
            let _ = store.write_plan(
                id,
                &Value::Obj(vec![
                    ("planned".into(), prepared.plan.to_json()),
                    ("executed_block_bytes".into(), Value::num(spec.block_bytes)),
                    ("executed_pipeline_depth".into(), Value::num(prepared.config.pipeline_depth)),
                ]),
            );
        }
        sh.write_status(
            id,
            &JobStatus {
                state: JobState::Pending,
                tenant: spec.tenant.clone(),
                predicted_ops: prepared.predicted_ops,
                queue_wait_us: None,
                latency_us: None,
                error: None,
            },
        );
        let tenant = spec.tenant.clone();
        let submitted_us = sh.now_us();
        let entry = Entry {
            cost_ops: prepared.predicted_ops,
            weight: spec.priority.weight(),
            // The advisory deadline also steers intra-tenant order:
            // earliest absolute deadline first (see DrrScheduler docs).
            deadline_us: spec
                .deadline_hint_ms
                .map(|ms| submitted_us.saturating_add(ms.saturating_mul(1000))),
            payload: QueuedJob { id, spec, prepared, submitted_us },
        };
        let queued = {
            let mut st = sh.state.lock().unwrap();
            if st.closed {
                let r = RejectReason::BadSpec("service is draining".into());
                sh.note_reject(&tenant, &r);
                return Err(r);
            }
            st.queue.push(&tenant, entry);
            st.queue.len()
        };
        sh.set_gauges(queued);
        sh.cv.notify_one();
        Ok(id)
    }

    /// Jobs queued (not yet dispatched).
    pub fn queue_len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Predicted ops currently reserved by running jobs.
    pub fn in_flight_ops(&self) -> f64 {
        self.shared.admission.in_flight_ops()
    }

    /// Pool high-water mark: one past the highest track (per drive)
    /// ever carved out of the shared pool. With a reclaiming backend
    /// this is bounded by the peak *concurrent* window span, not by the
    /// number of jobs ever run.
    pub fn pool_high_water_tracks(&self) -> u64 {
        self.shared.tracks.high_water()
    }

    /// The artifact directory of a job, when artifacts are enabled.
    pub fn job_dir(&self, id: JobId) -> Option<PathBuf> {
        self.shared.artifacts.as_ref().map(|a| a.job_dir(id))
    }

    /// Stop accepting jobs, run the queue dry, join the workers, and
    /// return every finished job's record **in completion order**.
    pub fn drain(mut self) -> Vec<JobRecord> {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.closed = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("service worker panicked");
        }
        let mut st = self.shared.state.lock().unwrap();
        std::mem::take(&mut st.records)
    }
}

impl Drop for JobService {
    /// Dropping without [`Self::drain`] still shuts down cleanly (runs
    /// the queue dry, joins workers) — the records are discarded.
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut st = self.shared.state.lock().unwrap();
            st.closed = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Priority, WorkloadKind};

    fn spec(tenant: &str, seed: u64) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            workload: WorkloadKind::Sort,
            n: 1 << 10,
            v: 4,
            block_bytes: 512,
            priority: Priority::Normal,
            deadline_hint_ms: None,
            seed,
        }
    }

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            num_disks: 2,
            block_bytes: 512,
            workers: 2,
            budget_ops: 1e6,
            quantum_ops: 64.0,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn submits_run_and_drain_returns_records() {
        let svc = JobService::new(cfg()).unwrap();
        let mut ids = Vec::new();
        for i in 0..6u64 {
            let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
            ids.push(svc.submit(spec(tenant, i / 2)).unwrap());
        }
        let records = svc.drain();
        assert_eq!(records.len(), 6);
        assert!(records.iter().all(|r| r.ok), "{records:?}");
        assert!(records.iter().all(|r| r.measured_ops > 0));
        // Every submitted id came back exactly once.
        let mut got: Vec<u64> = records.iter().map(|r| r.id.0).collect();
        got.sort_unstable();
        assert_eq!(got, (0..6).collect::<Vec<_>>());
        // Ids 0 and 1 share a seed: same finals hash regardless of
        // scheduling or which pool window each landed in.
        let by_id = |id: u64| records.iter().find(|r| r.id.0 == id).unwrap();
        assert_eq!(by_id(0).finals_hash, by_id(1).finals_hash);
        assert_ne!(by_id(0).finals_hash, by_id(2).finals_hash, "different seed");
    }

    #[test]
    fn long_job_stream_reuses_pool_windows() {
        let c = cfg();
        let (num_disks, workers) = (c.num_disks, c.workers);
        let svc = JobService::new(c).unwrap();
        let one = prepare(&spec("t", 0), num_disks).unwrap().span_tracks;
        let sh = Arc::clone(&svc.shared);
        // Same spec throughout ⇒ same window span ⇒ the exact-fit free
        // list must recycle (differently-sized windows recycle too, but
        // only among jobs of their own span).
        for _ in 0..24u64 {
            svc.submit(spec("t", 0)).unwrap();
        }
        let records = svc.drain();
        assert_eq!(records.len(), 24);
        assert!(records.iter().all(|r| r.ok), "{records:?}");
        // Windows are recycled on completion, so the pool footprint is
        // bounded by the concurrent window span — it must NOT scale
        // with the 24 jobs the stream pushed through.
        let hw = sh.tracks.high_water();
        assert!(
            hw <= workers as u64 * one,
            "pool high-water {hw} tracks exceeds {workers} concurrent windows of {one}"
        );
        // And determinism survives reuse: same seed ⇒ same finals even
        // when the second run lands in a recycled window.
        let again = JobService::new(cfg()).unwrap();
        again.submit(spec("t", 7)).unwrap();
        again.submit(spec("t", 7)).unwrap();
        let rs = again.drain();
        assert_eq!(rs[0].finals_hash, rs[1].finals_hash);
    }

    #[test]
    fn a_pool_of_another_drive_count_is_refused() {
        let pool = Arc::new(MemStorage::new(DiskGeometry::new(3, 512)));
        let e = JobService::with_pool(cfg(), pool).err().expect("3 drives for a 2-drive service");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
        assert!(e.to_string().contains("3 drives"), "{e}");
    }

    /// A pool that panics once, on its first write or its first
    /// discard, as a buggy backend might.
    struct PanicsOnce {
        mem: MemStorage,
        on_discard: bool,
        armed: std::sync::atomic::AtomicBool,
    }

    impl PanicsOnce {
        fn trip(&self, discard: bool) {
            if discard == self.on_discard && self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected backend panic");
            }
        }
    }

    impl TrackStorage for PanicsOnce {
        fn read_track(&self, disk: usize, track: u64) -> std::io::Result<Vec<u8>> {
            self.mem.read_track(disk, track)
        }
        fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> std::io::Result<()> {
            self.trip(false);
            self.mem.write_track(disk, track, data)
        }
        fn write_scatter(&self, writes: &[(cgmio_pdm::TrackAddr, &[u8])]) -> std::io::Result<()> {
            self.trip(false);
            self.mem.write_scatter(writes)
        }
        fn discard(&self, disk: usize, tracks: std::ops::Range<u64>) -> std::io::Result<bool> {
            self.trip(true);
            self.mem.discard(disk, tracks)
        }
        fn tracks_used(&self) -> Vec<u64> {
            self.mem.tracks_used()
        }
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_service_keeps_running() {
        // A panic in a write is caught by the runner's own guard; one in
        // the window's discard happens in the service itself.
        for (on_discard, prefix) in
            [(false, "real processor 0 panicked in superstep 0: "), (true, "job panicked: ")]
        {
            for workers in [1, 2] {
                let c = ServiceConfig { workers, ..cfg() };
                let pool = Arc::new(PanicsOnce {
                    mem: MemStorage::new(DiskGeometry::new(c.num_disks, c.block_bytes)),
                    on_discard,
                    armed: true.into(),
                });
                let svc = JobService::with_pool(c, pool).unwrap();
                let sh = Arc::clone(&svc.shared);
                for _ in 0..3 {
                    svc.submit(spec("t", 0)).unwrap();
                }
                let records = svc.drain();
                assert_eq!(records.len(), 3, "drain returns every job");
                let failed: Vec<&JobRecord> = records.iter().filter(|r| !r.ok).collect();
                assert_eq!(failed.len(), 1, "{records:?}");
                let err = failed[0].error.as_deref().unwrap();
                assert_eq!(err, format!("{prefix}injected backend panic"));
                assert!(records.iter().filter(|r| r.ok).all(|r| r.measured_ops > 0));
                // The failed job let go of its reservation.
                assert_eq!(sh.admission.in_flight_ops(), 0.0);
                assert_eq!(sh.state.lock().unwrap().running, 0);
            }
        }
    }

    #[test]
    fn geometry_and_bad_specs_rejected_up_front() {
        let svc = JobService::new(cfg()).unwrap();
        let mut s = spec("t", 0);
        s.block_bytes = 1024;
        assert_eq!(svc.submit(s).unwrap_err().label(), "geometry_mismatch");
        let mut s = spec("t", 0);
        s.tenant = String::new();
        assert_eq!(svc.submit(s).unwrap_err().label(), "bad_spec");
        assert_eq!(svc.queue_len(), 0);
        assert!(svc.drain().is_empty());
    }

    #[test]
    fn budget_screen_rejects_oversized_jobs() {
        let mut c = cfg();
        c.budget_ops = 0.5; // below any real job's prediction
        let svc = JobService::new(c).unwrap();
        assert_eq!(svc.submit(spec("t", 0)).unwrap_err().label(), "exceeds_budget");
    }

    #[test]
    fn artifacts_record_the_lifecycle() {
        let dir = std::env::temp_dir().join(format!("cgmio-svc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = cfg();
        c.artifacts_dir = Some(dir.clone());
        let svc = JobService::new(c).unwrap();
        let id = svc.submit(spec("acme", 3)).unwrap();
        let job_dir = svc.job_dir(id).unwrap();
        let records = svc.drain();
        assert!(records[0].ok);
        let status = std::fs::read_to_string(job_dir.join("status.json")).unwrap();
        let v = cgmio_obs::json::parse(&status).unwrap();
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
        assert!(v.get("latency_us").unwrap().as_u64().is_some());
        let report = std::fs::read_to_string(job_dir.join("report.json")).unwrap();
        let r = cgmio_obs::json::parse(&report).unwrap();
        assert_eq!(
            r.get("finals_hash").unwrap().as_str().unwrap(),
            format!("{:016x}", records[0].finals_hash)
        );
        assert!(job_dir.join("spec.json").exists());
        // The planner's choice travels with the job: plan.json records
        // the proposal and the executed knobs.
        let plan = std::fs::read_to_string(job_dir.join("plan.json")).unwrap();
        let p = cgmio_obs::json::parse(&plan).unwrap();
        assert_eq!(p.get("executed_block_bytes").unwrap().as_u64(), Some(512));
        let planned = p.get("planned").unwrap();
        assert!(planned.get("pipeline_depth").unwrap().as_u64().is_some());
        assert_eq!(
            p.get("executed_pipeline_depth").unwrap().as_u64(),
            planned.get("pipeline_depth").unwrap().as_u64().map(|d| d.min(4)),
            "executed depth is the planned depth clamped to v"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file of a directory, by name, with its bytes.
    fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn restarted_service_keeps_earlier_jobs_artifacts() {
        let root = cgmio_pdm::testutil::TempDir::new("cgmio-svc-restart");
        let mut c = cfg();
        c.artifacts_dir = Some(root.path().to_path_buf());
        let first = JobService::new(c.clone()).unwrap();
        let ids = [first.submit(spec("acme", 1)).unwrap(), first.submit(spec("acme", 2)).unwrap()];
        let earlier: Vec<_> = ids.iter().map(|&id| first.job_dir(id).unwrap()).collect();
        assert_eq!(first.drain().len(), 2);
        let before: Vec<_> = earlier.iter().map(|d| files(d)).collect();

        // A new service on the same root continues the ids instead of
        // rewriting job-000000.
        let second = JobService::new(c).unwrap();
        let id = second.submit(spec("acme", 3)).unwrap();
        assert_eq!(id, JobId(2));
        assert!(second.drain()[0].ok);
        let mut dirs: Vec<_> = std::fs::read_dir(root.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        dirs.sort();
        assert_eq!(dirs, ["job-000000", "job-000001", "job-000002"]);
        for (dir, want) in earlier.iter().zip(&before) {
            assert_eq!(&files(dir), want, "{} changed", dir.display());
        }
    }

    #[test]
    fn tenant_metrics_flow_through_obs() {
        let obs = Obs::new();
        let mut c = cfg();
        c.obs = Some(obs.clone());
        let svc = JobService::new(c).unwrap();
        svc.submit(spec("alpha", 1)).unwrap();
        svc.submit(spec("beta", 2)).unwrap();
        let mut bad = spec("beta", 3);
        bad.block_bytes = 64;
        let _ = svc.submit(bad);
        let records = svc.drain();
        assert_eq!(records.len(), 2);
        let snap = obs.snapshot();
        let counter = |name: &str, labels: &[(&str, &str)]| match snap.get(name, labels) {
            Some(cgmio_obs::SampleValue::Counter(c)) => Some(*c),
            _ => None,
        };
        let done = |t: &str| counter("cgmio_svc_jobs_total", &[("tenant", t), ("outcome", "done")]);
        assert_eq!(done("alpha"), Some(1));
        assert_eq!(done("beta"), Some(1));
        let rejects = counter(
            "cgmio_svc_admission_rejects_total",
            &[("tenant", "beta"), ("reason", "geometry_mismatch")],
        );
        assert_eq!(rejects, Some(1));
    }
}
