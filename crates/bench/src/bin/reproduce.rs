//! `reproduce` — regenerate the paper's tables and figures.
//!
//! ```text
//! reproduce [EXPERIMENT ...|all] [--out DIR]
//! reproduce --list
//! ```
//!
//! Each experiment prints an aligned table and archives a CSV under
//! `results/` (or `--out DIR`); several also archive richer artifacts
//! (JSON/JSONL/prom) there. Run `reproduce --list` for the experiment
//! inventory with one-line descriptions.

use cgmio_bench::experiments as ex;
use cgmio_bench::Table;

/// Experiments take the output directory: most ignore it (the CSV is
/// archived by this binary), but some write extra artifacts there.
type Exp = Box<dyn Fn(&std::path::Path) -> Table>;

/// Name, one-line description, runner — the single experiment registry
/// (drives dispatch, `--list`, and the unknown-experiment error alike).
fn menu() -> Vec<(&'static str, &'static str, Exp)> {
    vec![
        ("fig1", "balanced-routing bin sizes vs the Theorem 1 bounds", Box::new(|_| ex::fig1())),
        ("fig2", "staggered message-matrix layout vs naive (write ops)", Box::new(|_| ex::fig2())),
        ("fig3", "sort: EM simulation vs in-memory, D=1 size sweep", Box::new(|_| ex::fig3())),
        ("fig4", "sort with D=1,2,4 disks (multi-disk speedup)", Box::new(|_| ex::fig4())),
        ("fig5a", "fundamental ops: sort/permute/transpose I/O counts", Box::new(|_| ex::fig5a())),
        (
            "fig5a-scaling",
            "fundamental ops under real-processor scaling (p sweep)",
            Box::new(|_| ex::fig5a_scaling()),
        ),
        ("fig5b", "geometry algorithms: I/O vs problem size", Box::new(|_| ex::fig5b())),
        ("fig5c", "graph algorithms: I/O vs problem size", Box::new(|_| ex::fig5c())),
        ("fig6", "I/O surface over (D, B) for the Fig 3 sort", Box::new(|_| ex::fig6())),
        ("fig7", "c2 slice: I/O vs B at fixed D", Box::new(|_| ex::fig7())),
        ("fig8", "block-size sweep at fixed geometry", Box::new(|_| ex::fig8())),
        ("audit", "measured I/O vs the Theorem 2 prediction", Box::new(|_| ex::audit())),
        ("ablation", "Lemma 2 message balancing on/off", Box::new(|_| ex::ablation_balance())),
        ("cache", "prefetch-cache extension hit rates", Box::new(|_| ex::cache())),
        (
            "io-trace",
            "physical I/O event log of the Fig 3 sort (JSONL + per-drive CSV)",
            Box::new(ex::io_trace),
        ),
        (
            "faults",
            "transient-fault injection sweep with kill-and-resume check",
            Box::new(ex::faults),
        ),
        (
            "observe",
            "sort with the observability stack on (report JSON + prom)",
            Box::new(cgmio_bench::observe::observe),
        ),
        (
            "disk",
            "real multi-file layouts, D={4,8,16}: layered vs file-owning engine (BENCH_disk.json)",
            Box::new(ex::disk),
        ),
    ]
}

fn print_menu(to_stderr: bool) {
    let entries = menu();
    let width = entries.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    for (name, desc, _) in &entries {
        let line = format!("  {name:<width$}  {desc}");
        if to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut out_dir = std::path::PathBuf::from("results");
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_dir = std::path::PathBuf::from(it.next().expect("--out needs a directory"));
            }
            "--list" => {
                println!("experiments (run `reproduce <name> [...]` or `reproduce all`):");
                print_menu(false);
                return;
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() {
        which.push("all".into());
    }

    let menu = menu();
    let known: Vec<&str> = menu.iter().map(|(n, _, _)| *n).collect();
    let unknown: Vec<&String> =
        which.iter().filter(|w| *w != "all" && !known.contains(&w.as_str())).collect();
    if !unknown.is_empty() {
        for w in &unknown {
            eprintln!("unknown experiment `{w}`");
        }
        eprintln!("available (see also `reproduce --list`):");
        print_menu(true);
        std::process::exit(2);
    }

    let selected: Vec<&(&str, &str, Exp)> = if which.iter().any(|w| w == "all") {
        menu.iter().collect()
    } else {
        menu.iter().filter(|(name, _, _)| which.iter().any(|w| w == name)).collect()
    };

    for (name, _, f) in selected {
        eprintln!("running {name} ...");
        let t = f(&out_dir);
        println!("{}", t.render());
        match t.save_csv(&out_dir) {
            Ok(p) => eprintln!("  saved {}", p.display()),
            Err(e) => eprintln!("  csv save failed: {e}"),
        }
    }
}
