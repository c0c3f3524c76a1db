//! `svc-mix`: an open-loop job stream against `cgmio_svc::JobService`.
//!
//! One generator thread sends jobs on a fixed schedule whether or not
//! earlier ones have finished. Each job's latency is timed from the
//! instant it was *due*, so a generator stalled inside `submit()` (which
//! dry-runs the job on the caller's thread) charges the stall to the
//! jobs it delayed.
//!
//! Two choices here exist only to make the numbers repeat on a small
//! virtual machine; both are explained where they are made: the service
//! is pinned to one CPU ([`start_service`]), and the artifact store is
//! on in one untimed burst and in the traced pass but off in set-up and
//! in the timed phases ([`Artifacts`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cgmio_obs::json::Value;
use cgmio_obs::Obs;
use cgmio_svc::{JobId, JobRecord, JobService, JobSpec, Priority, ServiceConfig, WorkloadKind};

use crate::common::{peak_rss_mb, splitmix64, Measured, Opts, Outcome, Sizes, LATENCY_LIMIT_MS};
use crate::em::io_layer_metrics;
use crate::stats::{
    backlog_limit, due_us, jobs_in_window, sliced_percentile, supported_percentile,
};
use crate::trace::Tracer;

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
const KINDS: [WorkloadKind; 3] =
    [WorkloadKind::Sort, WorkloadKind::Permute, WorkloadKind::Transpose];
const PRIORITIES: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Interactive];
const V: usize = 8;
const NUM_DISKS: usize = 4;
const BLOCK_BYTES: usize = 1024;
const WORKERS: usize = 2;
/// Jobs of the warm-up burst that ends every set-up.
const WARMUP_JOBS: usize = 64;
/// Set-up repeats; `setup_s` is the median. Seven, because a set-up is
/// a tenth of a second of thread start-up and hand-offs.
const SETUP_REPEATS: usize = 7;

/// The seeded spec stream: job `i` of a run is a pure function of the
/// seed. Exactly one job in every eight consecutive ones is large (the
/// seed picks which), so every window carries the same mix whatever the
/// seed; tenant, algorithm, priority and data vary freely. Data seeds
/// come from a pool of eight, so identical specs recur and their finals
/// must agree.
fn spec(seed: u64, i: usize, sizes: &Sizes) -> JobSpec {
    let r = splitmix64(seed ^ splitmix64(i as u64));
    JobSpec {
        tenant: TENANTS[(r % 3) as usize].into(),
        workload: KINDS[((r >> 8) % 3) as usize],
        n: sizes.svc_n[usize::from((seed.wrapping_add(i as u64)) % 8 == 7)],
        v: V,
        block_bytes: BLOCK_BYTES,
        priority: PRIORITIES[((r >> 24) % 3) as usize],
        deadline_hint_ms: None,
        seed: splitmix64(seed) % 1000 * 8 + (r >> 40) % 8,
    }
}

/// CPUs this process may run on (`Cpus_allowed_list` of the main thread).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).unwrap_or("");
    parse_cpu_list(list.trim())
}

/// `0-1,4` → `[0, 1, 4]`; anything malformed is skipped.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Move the calling (main) thread to `cpu`; threads it spawns afterwards
/// start there. `taskset` does it, since `std` has no affinity call.
fn pin_main_thread(cpu: usize) -> bool {
    std::process::Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Start a service whose workers and drive threads all share one CPU
/// (the last this process may use), and leave the generator (this
/// thread) on another (the first, which on the sandbox also takes most
/// interrupts: with the roles swapped burst throughput spread 17 %
/// instead of 6 %).
///
/// On the 2-vCPU sandbox this was written on, a wake-up that crosses
/// vCPUs costs 6 µs or 43 µs per engine round trip depending on where
/// the host last placed the vCPUs, and stays that way for seconds; a
/// small job makes about sixty such hand-offs, so unpinned p50 latency
/// came out as 2.6 ms in some runs and 4.8 ms in others. With the
/// service on one CPU every hand-off inside it is a context switch, and
/// the generator neither competes with the workers nor inherits their
/// stalls. The price: the two workers interleave instead of running in
/// parallel, so every rate here is a one-core rate.
fn start_service(artifacts: Option<&Path>, obs: Option<Obs>) -> JobService {
    let cpus = allowed_cpus();
    let (service_cpu, generator_cpu) = (cpus.last(), cpus.first());
    let pinned = service_cpu.is_some_and(|&c| pin_main_thread(c));
    let svc = JobService::new(ServiceConfig {
        num_disks: NUM_DISKS,
        block_bytes: BLOCK_BYTES,
        workers: WORKERS,
        artifacts_dir: artifacts.map(Path::to_path_buf),
        obs,
        ..ServiceConfig::default()
    })
    .expect("starting the job service (creates the artifact directory)");
    if !(pinned && generator_cpu.is_some_and(|&c| pin_main_thread(c))) {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("svc-mix: taskset failed, service threads are not pinned"));
    }
    svc
}

/// One submitted job as the generator saw it.
struct Sent {
    id: JobId,
    /// False for the lead-in jobs, which are checked but not timed.
    counted: bool,
    n: usize,
    /// `(workload, n, data seed)`: equal keys must give equal finals.
    key: (&'static str, usize, u64),
    /// Generator lateness: `submit()` entered this long after the due
    /// time, microseconds.
    late_us: u64,
    /// Time inside `submit()`, microseconds.
    submit_us: u64,
}

/// Everything one phase (one service, one send schedule) produced.
struct Phase {
    sent: Vec<Sent>,
    rejected: u64,
    records: BTreeMap<JobId, JobRecord>,
    /// Jobs still queued when the send window closed.
    queued_at_close: usize,
    /// First submit to the last job's completion, seconds.
    wall_s: f64,
    pool_high_water: u64,
    /// The artifact directory, when the phase ran with the store on.
    artifacts: Option<PathBuf>,
}

/// Sleep until `deadline`: coarse sleep, then spin the last stretch so
/// the send times do not inherit the timer's granularity.
fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        match (deadline - now).checked_sub(SPIN) {
            Some(coarse) => std::thread::sleep(coarse),
            None => std::hint::spin_loop(),
        }
    }
}

/// Whether a phase runs with the artifact store.
///
/// With the store on, `submit()` and the worker make seven small file
/// writes and renames per job, and on the sandbox this was written on
/// their cost followed the state of ext4 and the virtual disk rather
/// than the program: the median `submit()` was 1.2 ms in some runs and
/// 2.3 ms in others, against 0.17 ms without the store and 1.3 ms for
/// the whole rest of a small job; a 64-job set-up burst took 0.16 s or
/// 0.22 s for minutes at a time. So set-up and the timed phases run with
/// the store off. One untimed burst runs with it on and checks every
/// `report.json`, and the traced pass runs with it on, so
/// `svc.submit_us_p50` and `svc.service_ms_*` show its cost.
#[derive(Clone, Copy, PartialEq)]
enum Artifacts {
    On,
    Off,
}

/// What one phase sends: `count` jobs starting at stream index `first`,
/// at `rate` jobs/s (`None`: back to back). The first `lead_in` of them
/// load the service but are not counted.
struct Schedule {
    first: usize,
    count: usize,
    lead_in: usize,
    rate: Option<f64>,
    artifacts: Artifacts,
}

/// Run one phase on a fresh service, then drain it.
fn phase(
    name: &str,
    opts: &Opts,
    sizes: &Sizes,
    schedule: Schedule,
    obs: Option<Obs>,
    tracer: &mut Tracer,
) -> Phase {
    let Schedule { first, count, lead_in, rate, artifacts } = schedule;
    let artifacts = (artifacts == Artifacts::On).then(|| opts.scratch.join(name));
    tracer
        .span(name, |t| {
            let svc = start_service(artifacts.as_deref(), obs);
            let mut sent = Vec::with_capacity(count);
            let mut rejected = 0;
            let t0 = Instant::now();
            for k in 0..count {
                let due = rate.map_or(Duration::ZERO, |r| Duration::from_micros(due_us(k, r)));
                if rate.is_some() {
                    wait_until(t0 + due);
                }
                let job = spec(opts.seed, first + k, sizes);
                let (n, key) = (job.n, (job.workload.name(), job.n, job.seed));
                let entered = t0.elapsed();
                let (result, secs) = t.span("svc.submit", |_| svc.submit(job));
                match result {
                    Ok(id) => sent.push(Sent {
                        counted: k >= lead_in,
                        id,
                        n,
                        key,
                        late_us: entered.saturating_sub(due).as_micros() as u64,
                        submit_us: (secs * 1e6) as u64,
                    }),
                    Err(_) => rejected += 1,
                }
            }
            if let Some(r) = rate {
                wait_until(t0 + Duration::from_micros(due_us(count, r)));
            }
            let queued_at_close = svc.queue_len();
            let pool_high_water = svc.pool_high_water_tracks();
            let (records, _) = t.span("svc.drain", |_| svc.drain());
            Phase {
                sent,
                rejected,
                records: records.into_iter().map(|r| (r.id, r)).collect(),
                queued_at_close,
                wall_s: t0.elapsed().as_secs_f64(),
                pool_high_water,
                artifacts,
            }
        })
        .0
}

impl Phase {
    /// Latency of each job from its due time, milliseconds: generator
    /// lateness + `submit()` + the service's submit-to-completion time.
    fn latencies_ms(&self) -> Vec<f64> {
        self.counted().map(|(s, r)| (s.late_us + s.submit_us + r.latency_us) as f64 / 1e3).collect()
    }

    /// The counted jobs that finished, with their records.
    fn counted(&self) -> impl Iterator<Item = (&Sent, &JobRecord)> {
        self.sent.iter().filter(|s| s.counted).filter_map(|s| Some((s, self.records.get(&s.id)?)))
    }

    /// Meets the latency limit without a growing backlog at `rate`.
    fn keeps_up(&self, rate: f64) -> bool {
        let lat = self.latencies_ms();
        if lat.is_empty() {
            return false;
        }
        let p95 = sliced_percentile(&lat, 95.0);
        let limit = backlog_limit(rate, LATENCY_LIMIT_MS);
        let ok = p95 <= LATENCY_LIMIT_MS && self.queued_at_close <= limit;
        eprintln!(
            "{rate} jobs/s: p95 {p95:.2} ms (limit {LATENCY_LIMIT_MS}), {} queued at close \
             (limit {limit}): {}",
            self.queued_at_close,
            if ok { "keeps up" } else { "falls behind" }
        );
        ok
    }

    /// The phase's correctness gate: every job admitted and finished
    /// `ok`, identical specs produced identical finals (`seen` spans all
    /// phases), and with the store on every job left a `report.json`
    /// agreeing with its record.
    fn check(&self, out: &mut Outcome, seen: &mut BTreeMap<(&'static str, usize, u64), u64>) {
        out.attempted += self.sent.len() as u64 + self.rejected;
        for _ in 0..self.rejected {
            out.fail("a job was refused at admission".into());
        }
        for s in &self.sent {
            let Some(rec) = self.records.get(&s.id) else {
                out.fail(format!("job {} never finished", s.id));
                continue;
            };
            if !rec.ok {
                out.fail(format!("job {} failed: {:?}", s.id, rec.error));
                continue;
            }
            let first = *seen.entry(s.key).or_insert(rec.finals_hash);
            if first != rec.finals_hash {
                out.fail(format!("job {}: finals differ from an identical spec {:?}", s.id, s.key));
                continue;
            }
            if self.artifacts.is_some() {
                let want = format!("{:016x}", rec.finals_hash);
                match self.report(s.id) {
                    Some(r) if r.get("finals_hash").and_then(Value::as_str) == Some(&want) => {}
                    _ => out.fail(format!("job {}: report.json missing or disagreeing", s.id)),
                }
            }
        }
    }

    fn report(&self, id: JobId) -> Option<Value> {
        let path = self.artifacts.as_ref()?.join(id.to_string()).join("report.json");
        cgmio_obs::json::parse(&std::fs::read_to_string(path).ok()?).ok()
    }

    fn remove_artifacts(&self) {
        if let Some(dir) = &self.artifacts {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Sum of a numeric `report.json` field over the counted jobs.
    fn report_sum(&self, field: &str) -> f64 {
        self.counted().filter_map(|(s, _)| self.report(s.id)?.get(field)?.as_f64()).sum()
    }
}

/// The first `WARMUP_JOBS` jobs of the stream, back to back, on a fresh
/// service.
fn warm_up_burst(
    name: &str,
    artifacts: Artifacts,
    opts: &Opts,
    sizes: &Sizes,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> (Phase, f64) {
    let burst = Schedule { first: 0, count: WARMUP_JOBS, lead_in: 0, rate: None, artifacts };
    let (p, secs) = tracer.span(name, |t| phase(name, opts, sizes, burst, None, t));
    p.check(out, &mut BTreeMap::new());
    (p, secs)
}

/// Set-up: start a service, push a warm-up burst through it, drain. The
/// burst fills allocator and page caches the timed phases then reuse.
fn setup(opts: &Opts, sizes: &Sizes, out: &mut Outcome, tracer: &mut Tracer) -> f64 {
    warm_up_burst("setup", Artifacts::Off, opts, sizes, out, tracer).1
}

/// The reference-rate phase: a lead-in of `svc_lead_in_s` seconds at the
/// same rate, which lets the start-up transient pass and is not counted,
/// then the counted window.
fn reference_phase(
    name: &str,
    opts: &Opts,
    sizes: &Sizes,
    (seconds, artifacts): (f64, Artifacts),
    obs: Option<Obs>,
    tracer: &mut Tracer,
) -> Phase {
    let rate = sizes.svc_rates[0];
    let lead_in = jobs_in_window(rate, sizes.svc_lead_in_s);
    let count = lead_in + jobs_in_window(rate, seconds).max(1);
    let schedule = Schedule { first: WARMUP_JOBS, count, lead_in, rate: Some(rate), artifacts };
    phase(name, opts, sizes, schedule, obs, tracer)
}

/// The end-to-end pass: reference-rate window, two higher rates, burst.
pub fn run_end_to_end(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let sizes = Sizes::of(opts.smoke);
    let mut out = Outcome::default();
    let setups: Vec<f64> =
        (0..SETUP_REPEATS).map(|_| setup(opts, &sizes, &mut out, tracer)).collect();
    out.put("setup_s", Measured::median_of(&setups));
    // The same burst once more with the artifact store on, untimed: every
    // job must leave a `report.json` that agrees with its record, and
    // drive utilisation needs block counts, which only that file carries.
    let (stored, _) =
        warm_up_burst("artifact-check", Artifacts::On, opts, &sizes, &mut out, tracer);
    out.put_once(
        "parallel_efficiency",
        stored.report_sum("io_blocks") / (stored.report_sum("io_ops") * NUM_DISKS as f64),
    );
    stored.remove_artifacts();

    let mut seen = BTreeMap::new();
    let reference = reference_phase(
        "rate-reference",
        opts,
        &sizes,
        (opts.seconds, Artifacts::Off),
        None,
        tracer,
    );
    reference.check(&mut out, &mut seen);
    // Memory at the reference load: the overload phases below queue
    // jobs (inputs included) as fast as the generator can price them,
    // and how many depends on how far the workers fall behind.
    out.put_once("peak_rss_mb", peak_rss_mb());
    let mut max_rate_ok =
        if reference.keeps_up(sizes.svc_rates[0]) { sizes.svc_rates[0] } else { 0.0 };
    let mut next = WARMUP_JOBS + reference.sent.len();

    // The higher rates only need a keeps-up verdict: a quarter window,
    // and half of that for the last one, which is there to fall behind.
    for (&rate, share) in sizes.svc_rates[1..].iter().zip([4.0, 8.0]) {
        let count = jobs_in_window(rate, opts.seconds / share).max(1);
        let schedule = Schedule {
            first: next,
            count,
            lead_in: 0,
            rate: Some(rate),
            artifacts: Artifacts::Off,
        };
        let p = phase(&format!("rate-{rate}"), opts, &sizes, schedule, None, tracer);
        next += count;
        p.check(&mut out, &mut seen);
        if p.keeps_up(rate) {
            max_rate_ok = max_rate_ok.max(rate);
        }
    }

    let count = jobs_in_window(sizes.svc_rates[0], opts.seconds).max(1);
    let schedule =
        Schedule { first: next, count, lead_in: 0, rate: None, artifacts: Artifacts::Off };
    let burst = phase("burst", opts, &sizes, schedule, None, tracer);
    burst.check(&mut out, &mut seen);

    let lat = reference.latencies_ms();
    if !lat.is_empty() {
        let all = Measured::median_of(&lat);
        out.put("latency_p50_ms", all);
        for (name, pct) in [("latency_p95_ms", 95.0), ("latency_p99_ms", 99.0)] {
            out.put(name, Measured { value: sliced_percentile(&lat, pct), ..all });
            eprintln!(
                "whole-window p{pct} over {} samples: {:.3} ms",
                lat.len(),
                supported_percentile(&lat, pct)
            );
        }
    }
    out.put_once("max_rate_ok", max_rate_ok);
    out.put_once("jobs_per_s", burst.counted().count() as f64 / burst.wall_s);
    let items: usize = burst.counted().map(|(s, _)| s.n).sum();
    out.put_once("items_per_s", items as f64 / burst.wall_s);

    // The counts the seed fixes, over the reference window.
    let measured: u64 = reference.counted().map(|(_, r)| r.measured_ops).sum();
    let predicted: f64 = reference.counted().map(|(_, r)| r.predicted_ops).sum();
    out.put_once("parallel_io_ops", measured as f64);
    out.put_once("io_ops_vs_theorem2", measured as f64 / predicted);
    out.put_once("ok_share", out.ok_share());
    out
}

/// The traced pass: the reference rate for half the window with the
/// service's `Obs` attached, read through the registry and the records.
pub fn run_traced(opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let sizes = Sizes::of(opts.smoke);
    let mut out = Outcome::default();
    setup(opts, &sizes, &mut out, tracer);
    let obs = Obs::new();
    let window = (opts.seconds / 2.0, Artifacts::On);
    let p = reference_phase("traced", opts, &sizes, window, Some(obs.clone()), tracer);
    p.check(&mut out, &mut BTreeMap::new());
    if p.counted().next().is_none() {
        return out;
    }

    io_layer_metrics(&obs.snapshot(), &mut out);
    let of = |f: &dyn Fn(&Sent, &JobRecord) -> f64| -> Vec<f64> {
        p.counted().map(|(s, r)| f(s, r)).collect()
    };
    let submit = of(&|s, _| s.submit_us as f64);
    let wait = of(&|_, r| r.queue_wait_us as f64 / 1e3);
    let service = of(&|_, r| r.latency_us.saturating_sub(r.queue_wait_us) as f64 / 1e3);
    let late = of(&|s, _| s.late_us as f64 / 1e3);
    out.put("svc.submit_us_p50", Measured::median_of(&submit));
    for (name, xs, pct) in [
        ("svc.queue_wait_ms_p50", &wait, 50.0),
        ("svc.queue_wait_ms_p95", &wait, 95.0),
        ("svc.service_ms_p50", &service, 50.0),
        ("svc.service_ms_p95", &service, 95.0),
        ("svc.generator_late_ms_p99", &late, 99.0),
    ] {
        let value = supported_percentile(xs, pct);
        out.put(name, Measured { value, ..Measured::median_of(xs) });
    }
    out.put_once("svc.rejects", p.rejected as f64);
    out.put_once("svc.pool_high_water_tracks", p.pool_high_water as f64);
    let measured: u64 = p.counted().map(|(_, r)| r.measured_ops).sum();
    let predicted: f64 = p.counted().map(|(_, r)| r.predicted_ops).sum();
    out.put_once("svc.measured_vs_predicted_ops", measured as f64 / predicted);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0-1,4,6-7"), [0, 1, 4, 6, 7]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn spec_stream_is_a_function_of_the_seed() {
        let sizes = Sizes::smoke();
        let a: Vec<String> = (0..50).map(|i| spec(7, i, &sizes).to_json().render()).collect();
        let b: Vec<String> = (0..50).map(|i| spec(7, i, &sizes).to_json().render()).collect();
        let c: Vec<String> = (0..50).map(|i| spec(8, i, &sizes).to_json().render()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Every spec is one the service accepts.
        assert!((0..500).all(|i| spec(7, i, &sizes).validate().is_ok()));
        // Exactly one job in every eight is large, wherever the window starts.
        for start in [0, 3, 64] {
            let large = (start..start + 800).filter(|&i| spec(7, i, &sizes).n == sizes.svc_n[1]);
            assert_eq!(large.count(), 100);
        }
    }
}
