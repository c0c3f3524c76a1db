//! `cgmio-benchmark`: the repository's benchmark.
//!
//! ```text
//! cgmio-benchmark run    [<workload>] [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! cgmio-benchmark traced <workload>                 (= run --trace 1)
//! cgmio-benchmark probes                            every layer probe
//! cgmio-benchmark all    [--out FILE] [--runs N]    every workload, each in a fresh process
//! cgmio-benchmark agree  A.json B.json              compare two result sets
//! ```
//!
//! Common options: `--smoke` (tiny sizes), `--scratch DIR`, `--out-dir
//! DIR` (where `trace-<workload>.json` goes), `--allow-tmpfs`. See
//! `benchmark/README.md`.

mod agree;
mod catalogue;
mod common;
mod em;
mod envelope;
mod probes;
mod stats;
mod svc;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use cgmio_obs::json::{self, Value};

use catalogue::{Catalogue, LISTRANK_PIPE, RING_LARGEV, SORT_ASYNC, SORT_PAR_MEM, SVC_MIX};
use common::{Opts, Outcome, Sizes, DEFAULT_SEED};
use envelope::ScratchDir;
use trace::Tracer;

/// Parsed command line: positionals and `--flag [value]` pairs.
struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

const SWITCHES: [&str; 2] = ["smoke", "allow-tmpfs"];
const VALUED: [&str; 9] =
    ["workload", "seed", "seconds", "trace", "scratch", "out-dir", "out", "detail", "runs"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args { positional: Vec::new(), flags: BTreeMap::new() };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) if SWITCHES.contains(&name) => {
                    args.flags.insert(name.into(), "1".into());
                }
                Some(name) if VALUED.contains(&name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.insert(name.into(), value);
                }
                Some(name) => return Err(format!("unknown option --{name}")),
                None => args.positional.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }
}

fn usage() -> String {
    let c = Catalogue::load();
    let names: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
    format!(
        "usage: cgmio-benchmark run|traced <workload> | probes | all | agree A.json B.json\n\
         workloads: {}\n\
         options: --seed N --seconds S --trace 0|1 --smoke --scratch DIR --out-dir DIR \
         --out FILE --runs N --allow-tmpfs",
        names.join(", ")
    )
}

fn opts_from(
    args: &Args,
    catalogue: &Catalogue,
    label: &str,
) -> Result<(Opts, ScratchDir), String> {
    let smoke = args.has("smoke");
    let default_seconds = if smoke { 2.0 } else { catalogue.run_seconds as f64 };
    let seconds: f64 = args.number("seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: out of range"));
    }
    let root = PathBuf::from(args.get("scratch").unwrap_or(".bench_scratch"));
    let scratch = ScratchDir::create(root.join(format!("{label}-{}", std::process::id())))
        .map_err(|e| format!("creating scratch under {}: {e}", root.display()))?;
    let opts = Opts {
        seed: args.number("seed", DEFAULT_SEED)?,
        seconds,
        traced: args.number::<u8>("trace", 0)? != 0,
        smoke,
        scratch: scratch.path().to_path_buf(),
        out_dir: PathBuf::from(args.get("out-dir").unwrap_or(".bench_out")),
    };
    Ok((opts, scratch))
}

/// The workloads that put drive files under the scratch directory.
const FILE_WORKLOADS: [&str; 2] = [SORT_ASYNC, LISTRANK_PIPE];

fn write_detail(args: &Args, detail: &Value) -> Result<(), String> {
    match args.get("detail") {
        Some(path) => {
            std::fs::write(path, detail.render() + "\n").map_err(|e| format!("{path}: {e}"))
        }
        None => Ok(()),
    }
}

/// `run` / `traced`: one workload, one pass, in this process.
fn run_workload(args: &Args, force_traced: bool) -> Result<ExitCode, String> {
    let catalogue = Catalogue::load();
    let name = args
        .get("workload")
        .or(args.positional.get(1).map(String::as_str))
        .ok_or_else(usage)?
        .to_string();
    if !catalogue.has_workload(&name) {
        return Err(format!("unknown workload {name:?}\n{}", usage()));
    }
    let (mut opts, _scratch) = opts_from(args, &catalogue, &name)?;
    opts.traced |= force_traced;
    let fs = envelope::fs_type(&opts.scratch);
    if FILE_WORKLOADS.contains(&name.as_str())
        && envelope::is_memory_fs(&fs)
        && !args.has("allow-tmpfs")
    {
        return Err(format!(
            "{name} writes drive files, and {} is on {fs}: the run would measure memory. \
             Pass --scratch on a disk-backed file system, or --allow-tmpfs.",
            opts.scratch.display()
        ));
    }

    let mut tracer = Tracer::new(&name, opts.traced);
    let out = if opts.traced {
        traced_pass(&name, &opts, &mut tracer)
    } else {
        timed_pass(&name, &opts, &mut tracer)
    };
    tracer.write(&opts.out_dir).map_err(|e| format!("writing the trace: {e}"))?;

    let defs = if opts.traced { &catalogue.per_layer } else { &catalogue.end_to_end };
    println!(
        "{name}: seed {} window {} s {} pass, scratch on {fs}",
        opts.seed,
        opts.seconds,
        if opts.traced { "traced" } else { "end-to-end" }
    );
    envelope::print_metrics(defs, &out);
    for e in &out.errors {
        eprintln!("FAILED: {e}");
    }
    write_detail(args, &envelope::result_detail(defs, &out))?;
    println!("{}", envelope::result_line(defs, &out));
    Ok(if out.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn timed_pass(name: &str, opts: &Opts, tracer: &mut Tracer) -> Outcome {
    match name {
        SORT_ASYNC => em::run_end_to_end::<em::SortAsync>(opts, tracer),
        SORT_PAR_MEM => em::run_end_to_end::<em::SortParMem>(opts, tracer),
        RING_LARGEV => em::run_end_to_end::<em::RingLargeV>(opts, tracer),
        LISTRANK_PIPE => em::run_end_to_end::<em::ListRankPipe>(opts, tracer),
        SVC_MIX => svc::run_end_to_end(opts, tracer),
        _ => unreachable!("workload names are checked against the catalogue"),
    }
}

fn traced_pass(name: &str, opts: &Opts, tracer: &mut Tracer) -> Outcome {
    let (mut out, disk_bytes_per_s) = match name {
        SORT_ASYNC => em::run_traced::<em::SortAsync>(opts, false, tracer),
        SORT_PAR_MEM => em::run_traced::<em::SortParMem>(opts, false, tracer),
        RING_LARGEV => em::run_traced::<em::RingLargeV>(opts, false, tracer),
        LISTRANK_PIPE => em::run_traced::<em::ListRankPipe>(opts, true, tracer),
        SVC_MIX => (svc::run_traced(opts, tracer), 0.0),
        _ => unreachable!("workload names are checked against the catalogue"),
    };
    if out.correct() {
        let sizes = Sizes::of(opts.smoke);
        probes::run(&mut probes::Ctx {
            workload: Some(name),
            sizes: &sizes,
            scratch: &opts.scratch,
            tracer,
            out: &mut out,
            disk_bytes_per_s: Some(disk_bytes_per_s),
        });
    }
    out
}

/// `probes`: every layer probe, no workload.
fn run_probes(args: &Args) -> Result<ExitCode, String> {
    let catalogue = Catalogue::load();
    let (opts, _scratch) = opts_from(args, &catalogue, "probes")?;
    let sizes = Sizes::of(opts.smoke);
    let mut tracer = Tracer::new("probes", true);
    let mut out = Outcome { attempted: 1, ..Outcome::default() };
    probes::run(&mut probes::Ctx {
        workload: None,
        sizes: &sizes,
        scratch: &opts.scratch,
        tracer: &mut tracer,
        out: &mut out,
        disk_bytes_per_s: None,
    });
    tracer.write(&opts.out_dir).map_err(|e| format!("writing the trace: {e}"))?;
    let measured: Vec<_> =
        catalogue.per_layer.iter().filter(|d| out.metrics.contains_key(&d.name)).cloned().collect();
    envelope::print_metrics(&measured, &out);
    write_detail(args, &envelope::result_detail(&measured, &out))?;
    println!("{}", envelope::result_line(&measured, &out));
    Ok(ExitCode::SUCCESS)
}

/// Run this executable again with `args`, in a fresh process, and read
/// back the detailed result it wrote.
fn child(args: &[String], detail: &Path) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let status = Command::new(exe)
        .args(args)
        .arg("--detail")
        .arg(detail)
        .status()
        .map_err(|e| format!("starting a child run: {e}"))?;
    let text = std::fs::read_to_string(detail)
        .map_err(|e| format!("child `{}` left no result ({status}): {e}", args.join(" ")))?;
    let _ = std::fs::remove_file(detail);
    Ok((json::parse(&text).map_err(|e| format!("child result: {e}"))?, status.success()))
}

/// `all`: every workload's end-to-end and traced pass, each in a fresh
/// child process (so peak RSS is per workload), then the probes; one
/// JSON result set.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let catalogue = Catalogue::load();
    let (opts, scratch) = opts_from(args, &catalogue, "all")?;
    let mut shared: Vec<String> = vec![
        "--seed".into(),
        opts.seed.to_string(),
        "--seconds".into(),
        opts.seconds.to_string(),
        "--scratch".into(),
        scratch.path().display().to_string(),
        "--out-dir".into(),
        opts.out_dir.display().to_string(),
    ];
    for switch in SWITCHES {
        if args.has(switch) {
            shared.push(format!("--{switch}"));
        }
    }
    let runs: usize = args.number("runs", 1)?;
    if runs == 0 {
        return Err("--runs 0: need at least one run".into());
    }
    let detail = scratch.path().join("detail.json");
    let mut ok = true;
    let mut workloads = Vec::new();
    for w in &catalogue.workloads {
        let mut passes = Vec::new();
        for (pass, trace, repeats) in [("end_to_end", "0", runs), ("per_layer", "1", 1)] {
            let mut results = Vec::new();
            for k in 1..=repeats {
                println!("== {} ({pass}, run {k} of {repeats}) ==", w.name);
                let mut a = vec!["run".to_string(), w.name.clone(), "--trace".into(), trace.into()];
                a.extend(shared.iter().cloned());
                let (result, success) = child(&a, &detail)?;
                ok &= success;
                results.push(result);
            }
            passes.push((pass.to_string(), envelope::merge_runs(results)));
        }
        workloads.push((w.name.clone(), Value::Obj(passes)));
    }
    println!("== probes ==");
    let mut a = vec!["probes".to_string()];
    a.extend(shared.iter().cloned());
    let (probes, success) = child(&a, &detail)?;
    ok &= success;

    let set = Value::Obj(vec![
        ("schema".into(), Value::num(1)),
        ("seed".into(), Value::num(opts.seed)),
        ("seconds".into(), envelope::number(opts.seconds)),
        ("smoke".into(), Value::Bool(opts.smoke)),
        ("runs".into(), Value::num(runs)),
        ("fingerprint".into(), envelope::fingerprint(scratch.path())),
        ("workloads".into(), Value::Obj(workloads)),
        ("probes".into(), probes),
    ]);
    let out = args.get("out").map_or_else(|| opts.out_dir.join("results.json"), PathBuf::from);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, set.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result set written to {}", out.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn run_agree(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(usage());
    };
    let bad = agree::run(&Catalogue::load(), a, b)?;
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("run") => run_workload(&args, false),
            Some("traced") => run_workload(&args, true),
            Some("probes") => run_probes(&args),
            Some("all") => run_all(&args),
            Some("agree") => run_agree(&args),
            _ => Err(usage()),
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
