//! The async submission backend must be *observably invisible*: it may
//! batch, coalesce, and reorder physical transfers behind its per-drive
//! reactors, but final states, `IoStats`, op breakdowns, checkpoint
//! resume, and fault/retry totals have to be bit-identical to every
//! other backend, on both runners. Logical accounting lives above
//! [`cgmio_pdm::TrackStorage`], so any drift here means the backend
//! broke the trait contract, not the bookkeeping.

use cgmio_algos::CgmSort;
use cgmio_core::{
    measure_requirements, BackendSpec, CheckpointManifest, EmConfig, EmRunReport, ParEmRunner,
    RunOutcome, SeqEmRunner,
};
use cgmio_data as data;
use cgmio_io::IoEngineOpts;
use cgmio_model::demo::TokenRing;
use cgmio_obs::{Obs, SampleValue};
use cgmio_pdm::testutil::TempDir;

type SortState = (Vec<u64>, Vec<u64>);

fn sort_states(keys: &[u64], v: usize) -> Vec<SortState> {
    data::block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
}

fn sort_config(keys: &[u64], v: usize, d: usize, bb: usize) -> EmConfig {
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, sort_states(keys, v)).unwrap();
    EmConfig::from_requirements(v, 1, d, bb, &req)
}

fn async_backend(dir: std::path::PathBuf) -> BackendSpec {
    BackendSpec::AsyncFile { dir, opts: IoEngineOpts::default() }
}

/// Finals, IoStats, and the op breakdown agree between AsyncFile and
/// every existing backend, for both runners — on a sort workload that
/// actually exercises scatter reads, scatter writes, and coalescible
/// adjacent-track runs.
#[test]
fn async_file_bit_identical_across_backends_and_runners() {
    let keys = data::uniform_u64(4000, 17);
    let v = 6;
    let prog = CgmSort::<u64>::by_pivots();
    let base = sort_config(&keys, v, 4, 64);

    let (want, want_rep) =
        SeqEmRunner::new(base.clone()).run(&prog, sort_states(&keys, v)).unwrap();

    let dir = TempDir::new("cgmio-async-eq");
    let backends = [
        BackendSpec::SyncFile { dir: dir.path().join("sync") },
        BackendSpec::Concurrent {
            dir: Some(dir.path().join("conc")),
            opts: IoEngineOpts::default(),
        },
        async_backend(dir.path().join("aio")),
        BackendSpec::AsyncFile {
            dir: dir.path().join("aio-traced"),
            opts: IoEngineOpts { trace: true, ..Default::default() },
        },
    ];
    for backend in backends {
        let mut cfg = base.clone();
        cfg.backend = backend.clone();
        let (got, rep) = SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap();
        assert_eq!(got, want, "{backend:?}: finals differ");
        assert_eq!(rep.io, want_rep.io, "{backend:?}: IoStats differ");
        assert_eq!(rep.breakdown, want_rep.breakdown, "{backend:?}: breakdown differs");
        assert_eq!(rep.retries, 0, "{backend:?}: phantom retries");
        assert_eq!(rep.deferred_write_errors_dropped, 0, "{backend:?}: phantom drops");
    }

    // Parallel runner: AsyncFile matches the memory backend worker for
    // worker (each real processor owns its own p{t} subdirectory).
    for p in [2usize, 3] {
        let mut mcfg = base.clone();
        mcfg.p = p;
        let (pwant, pwant_rep) = ParEmRunner::new(mcfg).run(&prog, sort_states(&keys, v)).unwrap();
        let dir = TempDir::new("cgmio-async-eq-par");
        let mut acfg = base.clone();
        acfg.p = p;
        acfg.backend = async_backend(dir.path().join("drives"));
        let (got, rep) = ParEmRunner::new(acfg).run(&prog, sort_states(&keys, v)).unwrap();
        assert_eq!(got, pwant, "par p={p}: finals differ");
        assert_eq!(rep.io, pwant_rep.io, "par p={p}: IoStats differ");
        assert_eq!(rep.breakdown, pwant_rep.breakdown, "par p={p}: breakdown differs");
    }
}

/// An observed async run accounts for its drive time in the same
/// `cgmio_io_service_us` / `cgmio_io_queue_wait_us` / `cgmio_io_bytes_total`
/// series as the concurrent engine — one observation per physical
/// (coalesced) op, not per block — and observing changes nothing.
#[test]
fn async_file_exports_drive_time_and_bytes_per_physical_op() {
    let keys = data::uniform_u64(4000, 17);
    let v = 6;
    let prog = CgmSort::<u64>::by_pivots();
    let base = sort_config(&keys, v, 4, 64);
    let dir = TempDir::new("cgmio-async-obs");
    let run = |sub: &str, obs: Option<Obs>| {
        let mut cfg = base.clone();
        cfg.backend = async_backend(dir.path().join(sub));
        cfg.obs = obs;
        SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap()
    };
    let (want, want_rep) = run("plain", None);
    let obs = Obs::new();
    let (got, rep) = run("observed", Some(obs.clone()));
    assert_eq!(got, want, "finals differ under observation");
    assert_eq!(rep.io, want_rep.io, "IoStats differ under observation");
    assert_eq!(rep.breakdown, want_rep.breakdown, "breakdown differs under observation");

    let snap = obs.snapshot();
    let service = snap.histogram_sum("cgmio_io_service_us", &[]);
    let wait = snap.histogram_sum("cgmio_io_queue_wait_us", &[]);
    assert!(service.sum > 0, "no service time recorded");
    assert!(wait.sum > 0, "no queue wait recorded");
    assert_eq!(service.count, wait.count, "one wait per serviced op");
    let transfers: u64 = ["read", "write"]
        .iter()
        .map(|k| snap.histogram_sum("cgmio_io_service_us", &[("kind", k)]).count)
        .sum();
    let blocks = rep.io.total_blocks();
    assert!(transfers > 0 && transfers < blocks, "{transfers} observations for {blocks} blocks");
    let bytes: u64 = (snap.samples.iter())
        .filter(|s| s.name == "cgmio_io_bytes_total")
        .map(|s| match s.value {
            SampleValue::Counter(c) => c,
            _ => 0,
        })
        .sum();
    assert!(bytes > 0 && bytes <= blocks * 64, "{bytes} bytes for {blocks} 64-byte blocks");
}

/// Crash recovery on the async backend: halt at a barrier, reload the
/// manifest from disk, resume — byte- and counter-identical to the
/// uninterrupted run. The reactors' write-behind must therefore be
/// fully drained and fsynced by the checkpoint flush.
#[test]
fn async_file_checkpoint_resume_is_exact() {
    let (v, rounds) = (6usize, 5usize);
    let prog = TokenRing { rounds };
    let (_, _, req) = measure_requirements(&prog, mk_ring(v)).unwrap();

    for p in [1usize, 3] {
        let base = EmConfig::from_requirements(v, p, 2, 64, &req);
        let run = |cfg: EmConfig| -> (Vec<Vec<u64>>, EmRunReport) {
            if p == 1 {
                SeqEmRunner::new(cfg).run(&prog, mk_ring(v)).unwrap()
            } else {
                ParEmRunner::new(cfg).run(&prog, mk_ring(v)).unwrap()
            }
        };
        let want = run(base.clone());

        for halt in 0..rounds - 1 {
            let dir = TempDir::new("cgmio-async-ckpt");
            let mut cfg = base.clone();
            cfg.backend = async_backend(dir.path().join("drives"));
            let mut hcfg = cfg.clone();
            hcfg.checkpoint_dir = Some(dir.path().to_path_buf());
            hcfg.halt_after_superstep = Some(halt);
            let outcome = if p == 1 {
                SeqEmRunner::new(hcfg).run_until(&prog, mk_ring(v)).unwrap()
            } else {
                ParEmRunner::new(hcfg).run_until(&prog, mk_ring(v)).unwrap()
            };
            match outcome {
                RunOutcome::Interrupted(c) => drop(c), // the "crash"
                RunOutcome::Complete { .. } => panic!("run did not halt at superstep {halt}"),
            }
            let manifest =
                CheckpointManifest::load(&CheckpointManifest::path_in(dir.path())).unwrap();
            let got = if p == 1 {
                SeqEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap().expect_complete()
            } else {
                ParEmRunner::new(cfg).resume_from(&prog, &manifest).unwrap().expect_complete()
            };
            assert_eq!(got.0, want.0, "p={p} halt={halt}: finals differ");
            assert_eq!(got.1.io, want.1.io, "p={p} halt={halt}: IoStats differ");
            assert_eq!(got.1.breakdown, want.1.breakdown, "p={p} halt={halt}: breakdown differs");
        }
    }
}

fn mk_ring(v: usize) -> Vec<Vec<u64>> {
    (0..v as u64).map(|i| vec![i]).collect()
}

/// Under the same seeded fault plan, the async backend's layered path
/// presents the injector with the same per-drive demand sequence as the
/// concurrent engine, so fault and retry totals — and everything
/// downstream of them — are identical.
#[test]
fn async_file_fault_and_retry_totals_match_concurrent() {
    let (v, rounds) = (6usize, 4usize);
    let prog = TokenRing { rounds };
    let (_, _, req) = measure_requirements(&prog, mk_ring(v)).unwrap();
    let retry = cgmio_io::RetryPolicy { max_attempts: 6, base_backoff_us: 0 };
    let opts = IoEngineOpts { retry, ..Default::default() };

    for p in [1usize, 2] {
        let mut base = EmConfig::from_requirements(v, p, 2, 64, &req);
        base.fault = Some(cgmio_pdm::FaultPlan::transient(11, 0.1));
        base.retry = retry;

        let run = |cfg: EmConfig| -> (Vec<Vec<u64>>, EmRunReport) {
            if p == 1 {
                SeqEmRunner::new(cfg).run(&prog, mk_ring(v)).unwrap()
            } else {
                ParEmRunner::new(cfg).run(&prog, mk_ring(v)).unwrap()
            }
        };

        let cdir = TempDir::new("cgmio-async-fault-conc");
        let mut ccfg = base.clone();
        ccfg.backend =
            BackendSpec::Concurrent { dir: Some(cdir.path().join("drives")), opts: opts.clone() };
        let (cfin, crep) = run(ccfg);

        let adir = TempDir::new("cgmio-async-fault-aio");
        let mut acfg = base.clone();
        acfg.backend =
            BackendSpec::AsyncFile { dir: adir.path().join("drives"), opts: opts.clone() };
        let (afin, arep) = run(acfg);

        let cf = crep.faults.expect("plan set on concurrent");
        let af = arep.faults.expect("plan set on async");
        assert!(cf.total_errors() > 0, "p={p}: seeded plan injected nothing");
        assert_eq!(af, cf, "p={p}: fault counts differ");
        assert_eq!(arep.retries, crep.retries, "p={p}: retry totals differ");
        assert_eq!(afin, cfin, "p={p}: finals differ");
        assert_eq!(arep.io, crep.io, "p={p}: IoStats differ");
    }
}

/// One engine, one `wait`: a depth-2 run redeems pre-issued reads on
/// every constructor, so an observed run records pipeline stalls on
/// each of them, and observing changes nothing.
#[test]
fn every_engine_constructor_records_pipeline_stalls() {
    let keys = data::uniform_u64(4000, 17);
    let v = 6;
    let prog = CgmSort::<u64>::by_pivots();
    let mut base = sort_config(&keys, v, 4, 64);
    base.pipeline_depth = 2;
    let dir = TempDir::new("cgmio-async-stall");
    // A fault plan (one that injects nothing) selects the layered
    // `AsyncFileStorage::over` constructor.
    let no_faults = cgmio_pdm::FaultPlan::default();
    let constructors = [
        ("new", BackendSpec::Concurrent { dir: None, opts: IoEngineOpts::default() }, None),
        (
            "open_dir",
            BackendSpec::Concurrent {
                dir: Some(dir.path().join("conc")),
                opts: IoEngineOpts::default(),
            },
            None,
        ),
        ("async open_dir", async_backend(dir.path().join("aio")), None),
        ("async over", async_backend(dir.path().join("aio-over")), Some(no_faults)),
    ];
    for (name, backend, fault) in constructors {
        let run = |obs: Option<Obs>| {
            let mut cfg = base.clone();
            cfg.backend = backend.clone();
            cfg.fault = fault.clone();
            cfg.obs = obs;
            SeqEmRunner::new(cfg).run(&prog, sort_states(&keys, v)).unwrap()
        };
        let (want, want_rep) = run(None);
        let obs = Obs::new();
        let (got, rep) = run(Some(obs.clone()));
        assert_eq!(got, want, "{name}: finals differ under observation");
        assert_eq!(rep.io, want_rep.io, "{name}: IoStats differ under observation");
        assert_eq!(rep.breakdown, want_rep.breakdown, "{name}: breakdown differs");
        let stalls = obs.snapshot().histogram_sum("cgmio_pipeline_stall_us", &[]);
        assert!(stalls.count > 0, "{name}: no pipeline stall recorded at depth 2");
    }
}
