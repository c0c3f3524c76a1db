//! Multi-tenant isolation on the shared disk-array pool.
//!
//! The service's whole safety argument is that a job running in its
//! own [`BackendSpec::Shared`] track window of one shared pool is
//! *observably identical* to the same job running alone: same finals,
//! same [`IoStats`], same op breakdown. These tests run pairs of jobs
//! concurrently on one [`ConcurrentStorage`] engine — the pool with the
//! most shared state — under both EM runners, over random inputs, and
//! compare bit-for-bit against solo runs; check that the service runs
//! the same jobs alike on its default in-memory pool and on an engine
//! its caller built; then regress the deficit round-robin scheduler's
//! starvation guarantee through the full [`JobService`].

use std::sync::{mpsc, Arc, Mutex};

use cgmio_algos::CgmSort;
use cgmio_core::{
    measure_requirements, BackendSpec, EmConfig, EmError, EmRunReport, ParEmRunner, SeqEmRunner,
};
use cgmio_data as data;
use cgmio_io::{ConcurrentStorage, IoEngineOpts};
use cgmio_model::CgmProgram;
use cgmio_obs::json::{self, Value};
use cgmio_obs::Obs;
use cgmio_pdm::testutil::TempDir;
use cgmio_pdm::{DiskGeometry, Item, MemStorage, TrackAddr, TrackStorage};
use cgmio_svc::{JobService, JobSpec, Priority, ServiceConfig, WorkloadKind};
use proptest::prelude::*;

type SortState = (Vec<u64>, Vec<u64>);

const SORT_MSG_BYTES: usize = <<CgmSort<u64> as CgmProgram>::Msg as Item>::SIZE;

fn sort_states(keys: &[u64], v: usize) -> Vec<SortState> {
    data::block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
}

fn sort_config(keys: &[u64], v: usize, p: usize, d: usize, bb: usize) -> EmConfig {
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, sort_states(keys, v)).unwrap();
    EmConfig::from_requirements(v, p, d, bb, &req)
}

fn run_sort(cfg: EmConfig, keys: &[u64], v: usize, par: bool) -> (Vec<SortState>, EmRunReport) {
    let prog = CgmSort::<u64>::by_pivots();
    if par {
        ParEmRunner::new(cfg).run(&prog, sort_states(keys, v)).unwrap()
    } else {
        SeqEmRunner::new(cfg).run(&prog, sort_states(keys, v)).unwrap()
    }
}

/// Two sorts run *concurrently* on one shared engine, each in its own
/// track window; both must be bit-identical (finals, IoStats, op
/// breakdown) to solo runs on dedicated engines.
fn assert_pair_isolated(seed: u64, n_a: usize, n_b: usize, v: usize, par: bool) {
    let (d, bb) = (2usize, 64usize);
    let p = if par { 2usize } else { 1 };
    let keys_a = data::uniform_u64(n_a, seed);
    let keys_b = data::uniform_u64(n_b, seed.wrapping_add(1000));
    let cfg_a = sort_config(&keys_a, v, p, d, bb);
    let cfg_b = sort_config(&keys_b, v, p, d, bb);

    // Solo references, each on a dedicated concurrent engine.
    let solo = |cfg: &EmConfig, keys: &[u64]| {
        let mut c = cfg.clone();
        c.backend = BackendSpec::Concurrent { dir: None, opts: IoEngineOpts::default() };
        run_sort(c, keys, v, par)
    };
    let (want_a, want_rep_a) = solo(&cfg_a, &keys_a);
    let (want_b, want_rep_b) = solo(&cfg_b, &keys_b);

    // One shared engine; job windows allocated back to back exactly as
    // the service's track allocator would.
    let geom = DiskGeometry::new(d, bb);
    let pool: Arc<dyn TrackStorage> = Arc::new(ConcurrentStorage::new(
        Arc::new(MemStorage::new(geom)),
        d,
        IoEngineOpts::default(),
    ));
    let span_a = cfg_a.tracks_per_worker(SORT_MSG_BYTES);
    let span_b = cfg_b.tracks_per_worker(SORT_MSG_BYTES);
    let mut sh_a = cfg_a;
    sh_a.backend = BackendSpec::Shared {
        storage: Arc::clone(&pool),
        base_track: 0,
        worker_span_tracks: span_a,
    };
    let mut sh_b = cfg_b;
    sh_b.backend = BackendSpec::Shared {
        storage: Arc::clone(&pool),
        base_track: span_a * p as u64,
        worker_span_tracks: span_b,
    };

    let ka = keys_a.clone();
    let handle = std::thread::spawn(move || run_sort(sh_a, &ka, v, par));
    let (got_b, rep_b) = run_sort(sh_b, &keys_b, v, par);
    let (got_a, rep_a) = handle.join().unwrap();

    assert_eq!(got_a, want_a, "job A finals differ from solo");
    assert_eq!(got_b, want_b, "job B finals differ from solo");
    assert_eq!(rep_a.io, want_rep_a.io, "job A IoStats differ from solo");
    assert_eq!(rep_b.io, want_rep_b.io, "job B IoStats differ from solo");
    assert_eq!(rep_a.breakdown, want_rep_a.breakdown);
    assert_eq!(rep_b.breakdown, want_rep_b.breakdown);
}

#[test]
fn concurrent_jobs_identical_to_solo_seq() {
    assert_pair_isolated(7, 1200, 800, 4, false);
}

#[test]
fn concurrent_jobs_identical_to_solo_par() {
    assert_pair_isolated(8, 1200, 800, 4, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random input sizes and seeds: a concurrent pair on the shared
    /// engine matches solo runs bit-for-bit under the seq runner.
    #[test]
    fn shared_pool_isolation_seq(
        seed in 0u64..500,
        n_a in 300usize..900,
        n_b in 300usize..900,
    ) {
        assert_pair_isolated(seed, n_a, n_b, 4, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Same property under the parallel runner (p = 2): worker windows
    /// of both jobs interleave on the pool and must stay disjoint.
    #[test]
    fn shared_pool_isolation_par(
        seed in 0u64..500,
        n_a in 300usize..900,
        n_b in 300usize..900,
    ) {
        assert_pair_isolated(seed, n_a, n_b, 4, true);
    }
}

/// A superstep that fails with pre-issued reads in flight abandons
/// their tickets. Discarding the job's window — what the service does
/// for failed and finished jobs alike — must drop them from the shared
/// engine, which outlives every job: no ticket id the engine ever
/// handed out may still be redeemable afterwards.
#[test]
fn failed_job_leaves_no_parked_reads_on_the_shared_pool() {
    let (v, d, bb) = (6usize, 2usize, 64usize);
    let keys = data::uniform_u64(3000, 3);
    let mut cfg = sort_config(&keys, v, 1, d, bb);
    let span = cfg.tracks_per_worker(SORT_MSG_BYTES);
    let pool = Arc::new(ConcurrentStorage::new(
        Arc::new(MemStorage::new(DiskGeometry::new(d, bb))),
        d,
        IoEngineOpts::default(),
    ));
    cfg.backend = BackendSpec::Shared {
        storage: Arc::clone(&pool) as Arc<dyn TrackStorage>,
        base_track: 0,
        worker_span_tracks: span,
    };
    cfg.pipeline_depth = 2;
    // Superstep 0 reads nothing and its v samples per message fit;
    // superstep 1's buckets overflow with the next groups' reads in flight.
    cfg.msg_slot_items = v;
    let prog = CgmSort::<u64>::by_pivots();
    let err = SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap_err();
    assert!(matches!(err, EmError::MsgSlotOverflow { .. }), "{err:?}");

    for disk in 0..d {
        pool.discard(disk, 0..span).unwrap();
    }
    let next = pool.read_scatter_submit(&[]).unwrap();
    assert!(next > 1, "the failed run pre-issued no reads");
    for id in 1..next {
        let parked = pool.read_scatter_wait(id, &[], &mut |_, _| {});
        assert!(parked.is_err(), "ticket {id} of {next} outlived its window");
    }
    pool.read_scatter_wait(next, &[], &mut |_, _| {}).unwrap();
}

fn svc_spec(tenant: &str, seed: u64) -> JobSpec {
    JobSpec {
        tenant: tenant.into(),
        workload: WorkloadKind::Sort,
        n: 1 << 9,
        v: 4,
        block_bytes: 512,
        priority: Priority::Normal,
        deadline_hint_ms: None,
        seed,
    }
}

/// Through the full service: a job's finals hash and measured ops match
/// a solo run of the same spec on a private default (Mem) backend, no
/// matter how many other tenants' jobs share the pool.
#[test]
fn service_jobs_match_solo_runs() {
    let svc = JobService::new(ServiceConfig {
        num_disks: 2,
        block_bytes: 512,
        workers: 3,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut ids = Vec::new();
    for i in 0..12u64 {
        let tenant = ["alpha", "beta", "gamma"][(i % 3) as usize];
        ids.push((svc.submit(svc_spec(tenant, i % 4)).unwrap(), i % 4));
    }
    let records = svc.drain();
    assert_eq!(records.len(), 12);

    // Solo references: same specs, private single-job engines.
    let solo: Vec<(u64, u64, u64)> = (0..4u64)
        .map(|seed| {
            let prepared = cgmio_svc::prepare(&svc_spec("solo", seed), 2).unwrap();
            let cfg = prepared.config.clone();
            let out = prepared.run(cfg).unwrap();
            (seed, out.finals_hash, out.report.breakdown.algorithm_ops())
        })
        .collect();
    for (id, seed) in ids {
        let rec = records.iter().find(|r| r.id == id).unwrap();
        let (_, want_hash, want_ops) = solo.iter().find(|(s, _, _)| *s == seed).unwrap();
        assert!(rec.ok, "{id}: {:?}", rec.error);
        assert_eq!(rec.finals_hash, *want_hash, "{id}: finals differ from solo run");
        assert_eq!(rec.measured_ops, *want_ops, "{id}: IoStats differ from solo run");
    }
}

/// `report.json` with its one wall-clock field (`wall_us`) taken out.
fn report_without_wall(dir: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(dir.join("report.json")).unwrap();
    match json::parse(&text).unwrap() {
        Value::Obj(fields) => {
            Value::Obj(fields.into_iter().filter(|(k, _)| k != "wall_us").collect())
        }
        other => panic!("report.json is not an object: {other:?}"),
    }
}

/// The pool is the caller's choice: the same specs run through
/// `with_pool` over a caller-built drive-thread engine and through the
/// default in-memory pool give equal records and reports.
#[test]
fn caller_built_engine_runs_jobs_like_the_default_pool() {
    let run = |engine: bool| {
        let root = TempDir::new("cgmio-svc-pool");
        let cfg = ServiceConfig {
            num_disks: 2,
            block_bytes: 512,
            workers: 2,
            artifacts_dir: Some(root.path().to_path_buf()),
            ..ServiceConfig::default()
        };
        let svc = if engine {
            let backing = Arc::new(MemStorage::new(DiskGeometry::new(2, 512)));
            let pool = Arc::new(ConcurrentStorage::new(backing, 2, IoEngineOpts::default()));
            JobService::with_pool(cfg, pool).unwrap()
        } else {
            JobService::new(cfg).unwrap()
        };
        let specs = [WorkloadKind::Sort, WorkloadKind::Permute, WorkloadKind::Transpose];
        for (i, workload) in specs.into_iter().enumerate() {
            svc.submit(JobSpec { workload, ..svc_spec(["alpha", "beta"][i % 2], i as u64) })
                .unwrap();
        }
        let dirs: Vec<_> = (0..3).map(|i| svc.job_dir(cgmio_svc::JobId(i)).unwrap()).collect();
        let mut records = svc.drain();
        records.sort_by_key(|r| r.id);
        let out: Vec<_> = records
            .iter()
            .zip(&dirs)
            .map(|(r, dir)| {
                assert!(r.ok, "{}: {:?}", r.id, r.error);
                (r.finals_hash, r.measured_ops, report_without_wall(dir))
            })
            .collect();
        out
    };
    assert_eq!(run(true), run(false));
}

/// The default service wraps its pool in nothing: with `obs` set, jobs
/// report the service's own series and no drive-engine (`cgmio_io_*`)
/// series appears.
#[test]
fn default_service_runs_no_drive_engine() {
    let obs = Obs::new();
    let svc = JobService::new(ServiceConfig {
        num_disks: 2,
        block_bytes: 512,
        obs: Some(obs.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    for seed in 0..3 {
        svc.submit(svc_spec("alpha", seed)).unwrap();
    }
    let records = svc.drain();
    assert!(records.len() == 3 && records.iter().all(|r| r.ok), "{records:?}");
    let names: Vec<_> = obs.snapshot().samples.into_iter().map(|s| s.name).collect();
    assert!(names.iter().any(|n| n == "cgmio_svc_jobs_total"), "{names:?}");
    let io: Vec<_> = names.iter().filter(|n| n.starts_with("cgmio_io_")).collect();
    assert!(io.is_empty(), "engine series on the default pool: {io:?}");
}

/// An in-memory pool whose first write waits until the test drops the
/// gate's sender: a one-worker service then holds its first job while
/// every other job queues, however fast jobs run.
struct GatedPool {
    inner: MemStorage,
    gate: Mutex<Option<mpsc::Receiver<()>>>,
}

impl GatedPool {
    fn pass(&self) {
        if let Some(gate) = self.gate.lock().unwrap().take() {
            let _ = gate.recv();
        }
    }
}

impl TrackStorage for GatedPool {
    fn read_track(&self, disk: usize, track: u64) -> std::io::Result<Vec<u8>> {
        self.inner.read_track(disk, track)
    }
    fn write_track(&self, disk: usize, track: u64, data: &[u8]) -> std::io::Result<()> {
        self.pass();
        self.inner.write_track(disk, track, data)
    }
    fn write_scatter(&self, writes: &[(TrackAddr, &[u8])]) -> std::io::Result<()> {
        self.pass();
        self.inner.write_scatter(writes)
    }
    fn discard(&self, disk: usize, tracks: std::ops::Range<u64>) -> std::io::Result<bool> {
        self.inner.discard(disk, tracks)
    }
    fn tracks_used(&self) -> Vec<u64> {
        self.inner.tracks_used()
    }
}

/// DRR starvation regression through the service: one worker, a tenant
/// flooding 20 equal-cost jobs before a quiet tenant submits 3. Global
/// FIFO would finish the quiet tenant dead last (indices 20..22);
/// deficit round-robin must interleave it near the front.
#[test]
fn drr_prevents_tenant_starvation() {
    let (open, gate) = mpsc::channel();
    let pool = GatedPool {
        inner: MemStorage::new(DiskGeometry::new(2, 512)),
        gate: Mutex::new(Some(gate)),
    };
    let svc = JobService::with_pool(
        ServiceConfig {
            num_disks: 2,
            block_bytes: 512,
            workers: 1,
            quantum_ops: 64.0,
            ..ServiceConfig::default()
        },
        Arc::new(pool),
    )
    .unwrap();
    let mut quiet_ids = Vec::new();
    for i in 0..20u64 {
        svc.submit(svc_spec("flood", i)).unwrap();
    }
    for i in 0..3u64 {
        quiet_ids.push(svc.submit(svc_spec("quiet", 100 + i)).unwrap());
    }
    drop(open);
    let records = svc.drain();
    assert_eq!(records.len(), 23);
    // Records are in completion order. The worker was held on its
    // first job until all 23 were queued, so every later dispatch is
    // the scheduler's choice among both tenants.
    let quiet_last = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.tenant == "quiet")
        .map(|(i, _)| i)
        .max()
        .unwrap();
    assert!(
        quiet_last < 18,
        "quiet tenant starved: its last job finished {quiet_last} of 23 \
         (order: {:?})",
        records.iter().map(|r| r.tenant.as_str()).collect::<Vec<_>>()
    );
    // All of quiet's jobs completed successfully despite the flood.
    for id in quiet_ids {
        assert!(records.iter().any(|r| r.id == id && r.ok));
    }
}
