//! The four external-memory workloads: set-up, timed iterations with a
//! correctness gate in every run, and the traced pass.

use std::path::Path;
use std::time::Instant;

use cgmio_algos::graphs::listrank::{CgmListRank, ListRankState};
use cgmio_algos::{CgmSort, SortState};
use cgmio_core::{
    measure_requirements, BackendSpec, EmConfig, EmError, EmRunReport, ParEmRunner, Requirements,
    SeqEmRunner,
};
use cgmio_data::{block_split, random_list, uniform_u64};
use cgmio_io::IoEngineOpts;
use cgmio_model::demo::TokenRing;
use cgmio_model::CgmProgram;
use cgmio_obs::{Obs, SampleValue, Snapshot};

use crate::common::{mix, peak_rss_mb, Measured, Opts, Outcome, Sizes, DIGEST_SEED};
use crate::stats::{median, supported_percentile};
use crate::trace::Tracer;

type State<W> = <<W as EmWorkload>::Prog as CgmProgram>::State;

/// One EM workload: a generated input, the program run on it, the
/// machine it runs on and the check of its output.
pub trait EmWorkload: Sized {
    type Prog: CgmProgram;

    /// Generate the input from the seed. Everything the program later
    /// sees derives from what this returns.
    fn generate(sizes: &Sizes, seed: u64) -> Self;
    fn prog(&self) -> Self::Prog;
    /// Input items (the numerator of `items_per_s`).
    fn items(&self) -> u64;
    /// Fresh initial per-processor states (a copy of the input).
    fn init_states(&self) -> Vec<State<Self>>;
    /// Dry run sizing the machine's slots.
    fn requirements(&self) -> Requirements {
        measure_requirements(&self.prog(), self.init_states())
            .expect("dry run of generated input")
            .2
    }
    /// The machine: geometry, runner width, backend rooted at `dir`.
    fn config(&self, req: &Requirements, dir: &Path) -> EmConfig;
    /// Check the finals against the generated input; `Ok` carries a
    /// digest that must repeat across iterations.
    fn verify(&self, finals: &[State<Self>]) -> Result<u64, String>;
    /// Whether the dry run (the program on `DirectRunner`, in memory,
    /// one thread) is the no-I/O sort baseline.
    const DRY_RUN_IS_SORT_BASELINE: bool = false;
    /// How often the end-to-end pass repeats set-up; `setup_s` is the
    /// median. A set-up of milliseconds needs more repeats to be steady.
    const SETUP_REPEATS: usize = 3;
}

fn digest(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(DIGEST_SEED, mix)
}

/// Order-independent fingerprint of a key multiset.
fn multiset(keys: impl Iterator<Item = u64>) -> (u64, u64, u64) {
    keys.fold((0, 0, 0), |(n, sum, x), k| (n + 1, sum.wrapping_add(k), x ^ mix(DIGEST_SEED, k)))
}

/// `CgmSort<u64>::by_pivots` on uniform keys, v = 32, D = 4:
/// `SeqEmRunner` on the async file backend when `ASYNC_FILES`, else
/// `ParEmRunner` p = 2 on `Mem`.
pub struct Sort<const ASYNC_FILES: bool> {
    keys: Vec<u64>,
    block: usize,
}

/// `sort-async`.
pub type SortAsync = Sort<true>;
/// `sort-par-mem`.
pub type SortParMem = Sort<false>;

const SORT_V: usize = 32;

impl<const ASYNC_FILES: bool> EmWorkload for Sort<ASYNC_FILES> {
    type Prog = CgmSort<u64>;
    const DRY_RUN_IS_SORT_BASELINE: bool = true;
    fn generate(sizes: &Sizes, seed: u64) -> Self {
        Self { keys: uniform_u64(sizes.sort_n, seed), block: sizes.sort_block }
    }
    fn prog(&self) -> CgmSort<u64> {
        CgmSort::by_pivots()
    }
    fn items(&self) -> u64 {
        self.keys.len() as u64
    }
    fn init_states(&self) -> Vec<SortState<u64>> {
        block_split(self.keys.clone(), SORT_V).into_iter().map(|b| (b, Vec::new())).collect()
    }
    fn config(&self, req: &Requirements, dir: &Path) -> EmConfig {
        let p = if ASYNC_FILES { 1 } else { 2 };
        let mut cfg = EmConfig::from_requirements(SORT_V, p, 4, self.block, req);
        if ASYNC_FILES {
            cfg.backend =
                BackendSpec::AsyncFile { dir: dir.to_path_buf(), opts: IoEngineOpts::default() };
        }
        cfg
    }
    fn verify(&self, finals: &[SortState<u64>]) -> Result<u64, String> {
        let out = || finals.iter().flat_map(|(part, _)| part.iter().copied());
        if out().zip(out().skip(1)).any(|(a, b)| a > b) {
            return Err("sort output is not globally sorted".into());
        }
        if multiset(out()) != multiset(self.keys.iter().copied()) {
            return Err("sort output is not a permutation of the input".into());
        }
        // Part lengths are in the digest: the distribution must repeat too.
        Ok(finals.iter().fold(DIGEST_SEED, |h, (part, _)| {
            part.iter().fold(mix(h, part.len() as u64), |h, &k| mix(h, k))
        }))
    }
}

/// `ring-largev`: a token ring rotated twice; one 8-byte token per
/// virtual processor, so bytes are negligible and every cost is per
/// operation.
pub struct RingLargeV {
    /// Processor `i` starts with token `seed + i`: the seed moves the
    /// token values, the ring's shape is fixed.
    tokens: Vec<Vec<u64>>,
}

const RING_ROUNDS: usize = 2;

impl EmWorkload for RingLargeV {
    type Prog = TokenRing;
    const SETUP_REPEATS: usize = 9;
    fn generate(sizes: &Sizes, seed: u64) -> Self {
        Self { tokens: (0..sizes.ring_v as u64).map(|i| vec![seed.wrapping_add(i)]).collect() }
    }
    fn prog(&self) -> TokenRing {
        TokenRing { rounds: RING_ROUNDS }
    }
    fn items(&self) -> u64 {
        self.tokens.len() as u64
    }
    fn init_states(&self) -> Vec<Vec<u64>> {
        self.tokens.clone()
    }
    /// Slot sizes of a ring do not depend on `v` (1-item messages,
    /// 1-token contexts), and the dry run's dense `v × v` matrix is what
    /// large `v` cannot afford: measure on 16 processors.
    fn requirements(&self) -> Requirements {
        let small = (0..16u64).map(|i| vec![i]).collect();
        measure_requirements(&self.prog(), small).expect("token ring dry run").2
    }
    fn config(&self, req: &Requirements, _dir: &Path) -> EmConfig {
        EmConfig::from_requirements(self.tokens.len(), 1, 2, 64, req)
    }
    fn verify(&self, finals: &[Vec<u64>]) -> Result<u64, String> {
        // After two rotations every token sits two places past its origin.
        let v = self.tokens.len();
        if finals.len() != v {
            return Err(format!("ring: {} final states for {v} processors", finals.len()));
        }
        for (pid, s) in finals.iter().enumerate() {
            let want = &self.tokens[(pid + v - RING_ROUNDS) % v];
            if s != want {
                return Err(format!("ring: processor {pid} holds {s:?}, expected {want:?}"));
            }
        }
        Ok(digest(finals.iter().map(|s| s[0])))
    }
}

/// `listrank-pipe`: pointer-jumping list ranking on the thread-per-drive
/// engine over real files, pipeline depth 2.
pub struct ListRankPipe {
    succ: Vec<u64>,
    head: u64,
    block: usize,
}

const LISTRANK_V: usize = 32;

impl EmWorkload for ListRankPipe {
    type Prog = CgmListRank;
    fn generate(sizes: &Sizes, seed: u64) -> Self {
        let (succ, head) = random_list(sizes.listrank_n, seed);
        Self { succ, head, block: sizes.listrank_block }
    }
    fn prog(&self) -> CgmListRank {
        CgmListRank
    }
    fn items(&self) -> u64 {
        self.succ.len() as u64
    }
    fn init_states(&self) -> Vec<ListRankState> {
        let n = self.succ.len() as u64;
        block_split(self.succ.clone(), LISTRANK_V)
            .into_iter()
            .map(|b| (vec![n], b, Vec::new()))
            .collect()
    }
    fn config(&self, req: &Requirements, dir: &Path) -> EmConfig {
        let mut cfg = EmConfig::from_requirements(LISTRANK_V, 1, 4, self.block, req);
        cfg.backend =
            BackendSpec::Concurrent { dir: Some(dir.to_path_buf()), opts: IoEngineOpts::default() };
        cfg.pipeline_depth = 2;
        cfg
    }
    fn verify(&self, finals: &[ListRankState]) -> Result<u64, String> {
        // Sequential walk from the head: the i-th node visited is
        // n − 1 − i links from the tail.
        let n = self.succ.len();
        let mut want = vec![0u64; n];
        let mut cur = self.head as usize;
        for i in 0..n {
            want[cur] = (n - 1 - i) as u64;
            cur = self.succ[cur] as usize;
        }
        let got = || finals.iter().flat_map(|(_, _, ranks)| ranks.iter().copied());
        if got().count() != n {
            return Err(format!("list ranking returned {} ranks for {n} nodes", got().count()));
        }
        if let Some(i) = got().zip(&want).position(|(g, &w)| g != w) {
            return Err(format!("list ranking: node {i} has the wrong rank"));
        }
        Ok(digest(got()))
    }
}

/// A generated input with its measured requirements.
struct Prepared<W: EmWorkload> {
    w: W,
    req: Requirements,
    /// Wall of the dry run alone, seconds.
    dryrun_s: f64,
}

/// Set-up: generate the input and dry-run it.
fn setup<W: EmWorkload>(opts: &Opts, tracer: &mut Tracer) -> (Prepared<W>, f64) {
    let sizes = Sizes::of(opts.smoke);
    tracer.span("setup", |t| {
        let (w, _) = t.span("setup.generate", |_| W::generate(&sizes, opts.seed));
        let (req, dryrun_s) = t.span("core.measure.dryrun", |_| w.requirements());
        Prepared { w, req, dryrun_s }
    })
}

/// Result of one `runner.run()`.
struct Iteration {
    wall_s: f64,
    report: EmRunReport,
    digest: u64,
}

/// One run on a fresh drive directory: build states, time
/// `runner.run()`, verify, remove the directory.
fn iterate<W: EmWorkload>(
    p: &Prepared<W>,
    opts: &Opts,
    label: &str,
    tune: impl FnOnce(&mut EmConfig),
    tracer: &mut Tracer,
) -> Result<Iteration, String> {
    let dir = opts.scratch.join(label);
    let out = tracer.span(label, |t| {
        let mut cfg = p.w.config(&p.req, &dir);
        tune(&mut cfg);
        let prog = p.w.prog();
        let (states, _) = t.span("iter.init_states", |_| p.w.init_states());
        let (result, wall_s) = t.span("core.runner.run", |_| run(cfg, &prog, states));
        let (finals, report) = result.map_err(|e| format!("{label}: run failed: {e}"))?;
        let (digest, _) = t.span("iter.verify", |_| p.w.verify(&finals));
        Ok(Iteration { wall_s, report, digest: digest.map_err(|e| format!("{label}: {e}"))? })
    });
    let _ = std::fs::remove_dir_all(&dir);
    out.0
}

fn run<P: CgmProgram>(
    cfg: EmConfig,
    prog: &P,
    states: Vec<P::State>,
) -> Result<(Vec<P::State>, EmRunReport), EmError> {
    if cfg.p > 1 {
        ParEmRunner::new(cfg).run(prog, states)
    } else {
        SeqEmRunner::new(cfg).run(prog, states)
    }
}

/// Runs of one invocation, checked for repeating exactly.
#[derive(Default)]
struct Runs {
    walls: Vec<f64>,
    first: Option<(u64, u64)>,
    last_report: Option<EmRunReport>,
}

impl Runs {
    /// Record one attempt; `timed` iterations contribute a wall sample.
    fn record(&mut self, out: &mut Outcome, it: Result<Iteration, String>, timed: bool) {
        out.attempted += 1;
        match it {
            Err(e) => out.fail(e),
            Ok(it) => {
                let key = (it.report.breakdown.algorithm_ops(), it.digest);
                match self.first {
                    None => self.first = Some(key),
                    Some(first) if first != key => out.fail(format!(
                        "iterations disagree: (ops, finals digest) {first:?} then {key:?}"
                    )),
                    Some(_) => {}
                }
                if timed {
                    self.walls.push(it.wall_s);
                }
                self.last_report = Some(it.report);
            }
        }
    }
}

/// Iterate until the window is used up (at least twice).
fn timed_loop<W: EmWorkload>(
    p: &Prepared<W>,
    opts: &Opts,
    seconds: f64,
    runs: &mut Runs,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let t0 = Instant::now();
    let mut k = 0;
    while k < 2 || t0.elapsed().as_secs_f64() < seconds {
        let it = iterate(p, opts, &format!("iter-{k}"), |_| {}, tracer);
        runs.record(out, it, true);
        k += 1;
        if out.failed > 0 {
            break;
        }
    }
}

/// The end-to-end pass (tracing off).
pub fn run_end_to_end<W: EmWorkload>(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..W::SETUP_REPEATS {
        // Free the previous input first: two copies would show in peak RSS.
        drop(prepared.take());
        let (p, secs) = setup::<W>(opts, tracer);
        setups.push(secs);
        prepared = Some(p);
    }
    let p = prepared.expect("SETUP_REPEATS >= 1");
    let mut runs = Runs::default();
    let warm = iterate(&p, opts, "warm-up", |_| {}, tracer);
    runs.record(&mut out, warm, false);
    if out.failed == 0 {
        timed_loop(&p, opts, opts.seconds, &mut runs, &mut out, tracer);
    }

    out.put("setup_s", Measured::median_of(&setups));
    out.put_once("peak_rss_mb", peak_rss_mb());
    out.put_once("ok_share", out.ok_share());
    let (Some(rep), false) = (&runs.last_report, runs.walls.is_empty()) else {
        return out;
    };
    let items = p.w.items() as f64;
    out.put("items_per_s", Measured::from_samples(&runs.walls, |w| items / w));
    let per_s = Measured::from_samples(&runs.walls, |w| 1.0 / w);
    out.put("jobs_per_s", per_s);
    // One client running jobs back to back: the rate it sustains is the
    // rate it completes them at.
    out.put("max_rate_ok", per_s);
    let ms = Measured::from_samples(&runs.walls, |w| w * 1e3);
    out.put("latency_p50_ms", ms);
    for (name, pct) in [("latency_p95_ms", 95.0), ("latency_p99_ms", 99.0)] {
        out.put(name, Measured { value: supported_percentile(&runs.walls, pct) * 1e3, ..ms });
    }
    let ops = rep.breakdown.algorithm_ops() as f64;
    out.put_once("parallel_io_ops", ops);
    out.put_once(
        "io_ops_vs_theorem2",
        ops / rep.costs.predicted_ops(rep.v, rep.geometry.num_disks, rep.geometry.block_bytes),
    );
    out.put_once("parallel_efficiency", drive_share(rep));
    out
}

/// Mean share of the `D` drives a parallel operation keeps busy
/// (`blocks ÷ (ops · D)`; 1 when every operation is fully parallel).
fn drive_share(rep: &EmRunReport) -> f64 {
    rep.io.blocks_per_op() / rep.geometry.num_disks as f64
}

fn counter_sum(snap: &Snapshot, name: &str) -> f64 {
    snap.samples.iter().filter(|s| s.name == name).fold(0.0, |sum, s| match s.value {
        SampleValue::Counter(c) => sum + c as f64,
        _ => sum,
    })
}

/// Engine-level series every traced pass reads from the run's registry.
pub fn io_layer_metrics(snap: &Snapshot, out: &mut Outcome) {
    let hist = |name: &str| snap.histogram_sum(name, &[]);
    out.put_once("io.queue_wait_s", hist("cgmio_io_queue_wait_us").sum as f64 / 1e6);
    out.put_once("io.service_s", hist("cgmio_io_service_us").sum as f64 / 1e6);
    let hits = counter_sum(snap, "cgmio_io_cache_hits_total");
    let reads = snap.histogram_sum("cgmio_io_service_us", &[("kind", "read")]).count as f64;
    out.put_once(
        "io.cache_hit_ratio",
        if hits + reads > 0.0 { hits / (hits + reads) } else { 0.0 },
    );
    out.put_once("io.prefetch_dropped", counter_sum(snap, "cgmio_io_prefetch_dropped_total"));
    out.put_once("io.submit_batch_blocks_mean", hist("cgmio_io_submit_batch_blocks").mean());
    out.put_once("io.bytes_total", counter_sum(snap, "cgmio_io_bytes_total"));
    out.put_once("io.retries", counter_sum(snap, "cgmio_io_retries_total"));
    out.put_once("core.pipeline.stall_s", hist("cgmio_pipeline_stall_us").sum as f64 / 1e6);
}

const PHASES: [&str; 8] =
    ["setup", "ctx_load", "matrix_read", "rounds", "route", "matrix_write", "barrier", "readout"];

/// The traced pass: the same run with `EmConfig::obs` set, read from
/// outside through the registry and the run report.
///
/// `checkpoint` additionally runs once with a checkpoint directory and
/// reports the cost over the plain median.
///
/// Also returns the bytes per second the traced run moved through its
/// disk array — blocks transferred × block size ÷ wall, computed from
/// `IoStats`, so it is the same quantity on every backend — for the
/// roofline probe to compare with the machine's file bandwidth.
pub fn run_traced<W: EmWorkload>(
    opts: &Opts,
    checkpoint: bool,
    tracer: &mut Tracer,
) -> (Outcome, f64) {
    let mut out = Outcome::default();
    let (p, _) = setup::<W>(opts, tracer);
    out.put_once("core.measure.dryrun_s", p.dryrun_s);
    let mut runs = Runs::default();
    let warm = iterate(&p, opts, "warm-up", |_| {}, tracer);
    runs.record(&mut out, warm, false);
    if out.failed > 0 {
        return (out, 0.0);
    }
    // Untraced reference for the tracing overhead: a quarter of the
    // window, so the traced pass stays shorter than the end-to-end one.
    timed_loop(&p, opts, opts.seconds / 4.0, &mut runs, &mut out, tracer);

    let obs = Obs::new();
    let traced = iterate(&p, opts, "traced", |cfg| cfg.obs = Some(obs.clone()), tracer);
    let traced_wall = traced.as_ref().map_or(0.0, |it| it.wall_s);
    runs.record(&mut out, traced, false);
    if out.failed > 0 {
        return (out, 0.0);
    }
    let rep = runs.last_report.clone().expect("a traced run was recorded");
    let untraced = median(&runs.walls);
    out.put_once("obs.overhead_ratio", traced_wall / untraced);

    // Phase spans are per real processor; with p workers running side
    // by side the wall share of a phase is its summed time ÷ p.
    let snap = obs.snapshot();
    let mut attributed = 0.0;
    for phase in PHASES {
        let us = snap.histogram_sum("cgmio_phase_us", &[("phase", phase)]).sum;
        let secs = us as f64 / 1e6 / rep.p as f64;
        attributed += secs;
        out.put_once(&format!("core.phase.{phase}_s"), secs);
    }
    out.put_once("core.phase.unattributed_s", (traced_wall - attributed).max(0.0));
    io_layer_metrics(&snap, &mut out);
    let disk_bytes_per_s =
        (rep.io.total_blocks() * rep.geometry.block_bytes as u64) as f64 / traced_wall;

    let b = rep.breakdown;
    for (name, value) in [
        ("core.report.ctx_ops", b.ctx_ops as f64),
        ("core.report.msg_ops", b.msg_ops as f64),
        ("core.report.setup_ops", b.setup_ops as f64),
        ("core.report.readout_ops", b.readout_ops as f64),
        ("core.report.peak_mem_bytes", rep.peak_mem_bytes as f64),
        ("core.report.cross_thread_items", rep.cross_thread_items as f64),
        ("pdm.stats.blocks_total", rep.io.total_blocks() as f64),
        ("core.ctx.page_spills", counter_sum(&snap, "cgmio_ctx_page_spills_total")),
        ("core.ctx.page_loads", counter_sum(&snap, "cgmio_ctx_page_loads_total")),
    ] {
        out.put_once(name, value);
    }
    if W::DRY_RUN_IS_SORT_BASELINE {
        out.put_once("model.direct.sort_items_per_s", p.w.items() as f64 / p.dryrun_s);
    }

    if checkpoint {
        let ckpt = opts.scratch.join("checkpoints");
        let it = iterate(
            &p,
            opts,
            "checkpointed",
            |cfg| cfg.checkpoint_dir = Some(ckpt.clone()),
            tracer,
        );
        let wall = it.as_ref().map_or(0.0, |it| it.wall_s);
        runs.record(&mut out, it, false);
        let _ = std::fs::remove_dir_all(&ckpt);
        out.put_once("core.checkpoint.overhead_s", wall - untraced);
    }
    (out, disk_bytes_per_s)
}
