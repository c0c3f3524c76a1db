//! Types every workload shares: run options, input sizes, measured
//! values and the outcome of one run.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::stats::{summarize, Summary};

/// Seed used when `--seed` is not given (the paper's year; recorded in
/// the README because `BENCHMARK.json` has no field for it).
pub const DEFAULT_SEED: u64 = 1999;

/// Latency limit on p95 for `max_rate_ok`, milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 25.0;

/// Options of one `run`/`traced` invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Directory for drive files and artifacts; removed on exit.
    pub scratch: PathBuf,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// Input sizes. `full` is what the committed bounds were chosen on;
/// `smoke` only checks that every path runs.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub sort_n: usize,
    pub sort_block: usize,
    pub ring_v: usize,
    pub listrank_n: usize,
    pub listrank_block: usize,
    /// Open-loop rates, jobs/s; the first is the reference rate the
    /// latency percentiles are read at.
    pub svc_rates: [f64; 3],
    /// Uncounted lead-in of the reference-rate phase, seconds.
    pub svc_lead_in_s: f64,
    /// Small / large job sizes of the service mix.
    pub svc_n: [usize; 2],
    /// Bytes each bandwidth probe moves.
    pub probe_bytes: usize,
    /// Operations each per-operation probe performs.
    pub probe_ops: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            sort_n: 1 << 24,
            sort_block: 128 << 10,
            ring_v: 200_000,
            listrank_n: 1 << 19,
            listrank_block: 16 << 10,
            svc_rates: [100.0, 200.0, 900.0],
            svc_lead_in_s: 1.0,
            svc_n: [2048, 32_768],
            probe_bytes: 64 << 20,
            probe_ops: 200_000,
        }
    }

    pub fn smoke() -> Self {
        Self {
            sort_n: 1 << 16,
            sort_block: 4 << 10,
            ring_v: 1000,
            listrank_n: 1 << 14,
            listrank_block: 4 << 10,
            svc_rates: [100.0, 200.0, 900.0],
            svc_lead_in_s: 0.25,
            svc_n: [512, 2048],
            probe_bytes: 4 << 20,
            probe_ops: 20_000,
        }
    }

    pub fn of(smoke: bool) -> Self {
        if smoke {
            Self::smoke()
        } else {
            Self::full()
        }
    }
}

/// One reported metric value, with the samples behind it when it is a
/// timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub summary: Summary,
}

impl Measured {
    /// A count or a ratio measured once.
    pub fn once(value: f64) -> Self {
        Self { value, summary: Summary { median: value, min: value, max: value, n: 1 } }
    }

    /// The median of `samples`, with their summary.
    pub fn median_of(samples: &[f64]) -> Self {
        Self::from_samples(samples, |x| x)
    }

    /// `value` derived from `samples` (e.g. items ÷ median wall): the
    /// summary is over the samples mapped through `f`.
    pub fn from_samples(samples: &[f64], f: impl Fn(f64) -> f64) -> Self {
        let mapped: Vec<f64> = samples.iter().map(|&s| f(s)).collect();
        let summary = summarize(&mapped);
        Self { value: summary.median, summary }
    }
}

pub type Metrics = BTreeMap<String, Measured>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs (EM workloads) or jobs (`svc-mix`) attempted.
    pub attempted: u64,
    /// Of those: failed, refused or wrong.
    pub failed: u64,
    /// Why, one line each (also covers cross-iteration mismatches).
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn put(&mut self, name: &str, m: Measured) {
        self.metrics.insert(name.to_string(), m);
    }

    pub fn put_once(&mut self, name: &str, value: f64) {
        self.put(name, Measured::once(value));
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Share of attempts that succeeded (1 − `failed_share`).
    pub fn ok_share(&self) -> f64 {
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Word-wise FNV-style digest step.
pub fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23)
}

pub const DIGEST_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// SplitMix64: the seeded stream behind the service job mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
