//! Observability must be *free* at the model level: attaching an `Obs`
//! handle (metrics + spans + phase stamping) to any backend and either
//! runner must leave final states, `IoStats`, the op breakdown, and
//! checkpoint manifests bit-identical to an unobserved run — the
//! instrumentation watches the cost model, it never participates in it.
//!
//! Also covered: the span exports (chrome://tracing JSON, folded
//! stacks) are well-formed for a real run, and live metrics round-trip
//! through both exposition formats.

use proptest::prelude::*;

use cgmio_algos::CgmSort;
use cgmio_core::{
    measure_requirements, BackendSpec, EmConfig, ParEmRunner, RunOutcome, SeqEmRunner,
};
use cgmio_data as data;
use cgmio_io::IoEngineOpts;
use cgmio_obs::{chrome_trace_json, folded_stacks, json, Obs};
use cgmio_pdm::testutil::TempDir;

type SortState = (Vec<u64>, Vec<u64>);

fn sort_states(keys: &[u64], v: usize) -> Vec<SortState> {
    data::block_split(keys.to_vec(), v).into_iter().map(|b| (b, Vec::new())).collect()
}

fn sort_config(keys: &[u64], v: usize, p: usize) -> EmConfig {
    let prog = CgmSort::<u64>::by_pivots();
    let (_, _, req) = measure_requirements(&prog, sort_states(keys, v)).unwrap();
    EmConfig::from_requirements(v, p, 2, 64, &req)
}

/// Run `cfg` on the right runner for its `p`, observed or not.
fn run(
    cfg: &EmConfig,
    keys: &[u64],
    v: usize,
    obs: Option<Obs>,
) -> (Vec<SortState>, cgmio_core::EmRunReport) {
    let prog = CgmSort::<u64>::by_pivots();
    let mut cfg = cfg.clone();
    cfg.obs = obs;
    if cfg.p == 1 {
        SeqEmRunner::new(cfg).run(&prog, sort_states(keys, v)).unwrap()
    } else {
        ParEmRunner::new(cfg).run(&prog, sort_states(keys, v)).unwrap()
    }
}

/// Deterministic sweep: every backend × both runners, observed run vs
/// unobserved run.
#[test]
fn obs_is_invisible_on_every_backend_and_runner() {
    let keys = data::uniform_u64(3000, 17);
    let v = 6;
    let dir = TempDir::new("cgmio-obs-invisible");
    let backends = [
        BackendSpec::Mem,
        BackendSpec::SyncFile { dir: dir.path().join("sync") },
        BackendSpec::Concurrent { dir: None, opts: Default::default() },
        BackendSpec::Concurrent {
            dir: Some(dir.path().join("conc")),
            opts: IoEngineOpts { trace: true, ..Default::default() },
        },
    ];
    for p in [1usize, 3] {
        for backend in &backends {
            let mut cfg = sort_config(&keys, v, p);
            cfg.backend = backend.clone();
            let (want, want_rep) = run(&cfg, &keys, v, None);
            let obs = Obs::new();
            let (got, rep) = run(&cfg, &keys, v, Some(obs.clone()));
            let tag = format!("p={p} {backend:?}");
            assert_eq!(got, want, "{tag}: finals differ under observation");
            assert_eq!(rep.io, want_rep.io, "{tag}: IoStats differ under observation");
            assert_eq!(rep.breakdown, want_rep.breakdown, "{tag}: breakdown differs");
            assert!(!obs.spans().is_empty(), "{tag}: observed run recorded no spans");
        }
    }
}

/// Span exports of a real observed run are machine-readable: the chrome
/// trace parses as JSON with one complete event per span, and every
/// folded-stack line is `stack count`.
#[test]
fn span_exports_are_well_formed() {
    let keys = data::uniform_u64(1500, 23);
    let v = 4;
    let cfg = sort_config(&keys, v, 1);
    let obs = Obs::new();
    run(&cfg, &keys, v, Some(obs.clone()));

    let spans = obs.spans();
    let chrome = chrome_trace_json(&spans, "seq");
    let doc = json::parse(&chrome).expect("chrome trace must be valid JSON");
    let events = doc.as_array().expect("chrome trace is an event array");
    assert_eq!(events.len(), spans.len());
    assert!(events.iter().all(|e| e.get("ph").and_then(json::Value::as_str) == Some("X")));

    let folded = folded_stacks(&spans);
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line is `stack count`");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("folded count is a number");
    }

    // Live metrics round-trip through both exposition formats.
    let snap = obs.snapshot();
    assert_eq!(cgmio_obs::parse_prometheus(&cgmio_obs::to_prometheus(&snap)).unwrap(), snap);
    assert_eq!(cgmio_obs::parse_json(&cgmio_obs::to_json(&snap)).unwrap(), snap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: for arbitrary inputs, observation changes nothing the
    /// cost model can see — on Mem and the concurrent engine, for both
    /// runners, including the checkpoint manifest written at a barrier.
    #[test]
    fn obs_on_off_bit_identical(
        seed in 0u64..1000,
        n in 200usize..800,
        p in 1usize..4,
        concurrent in any::<bool>(),
    ) {
        let keys = data::uniform_u64(n, seed);
        let v = 4;
        let mut cfg = sort_config(&keys, v, p);
        if concurrent {
            cfg.backend = BackendSpec::Concurrent { dir: None, opts: Default::default() };
        }
        let (want, want_rep) = run(&cfg, &keys, v, None);
        let (got, rep) = run(&cfg, &keys, v, Some(Obs::new()));
        prop_assert_eq!(got, want);
        prop_assert_eq!(rep.io, want_rep.io);
        prop_assert_eq!(rep.breakdown, want_rep.breakdown);

        // Manifest at the first barrier: identical with and without obs.
        let prog = CgmSort::<u64>::by_pivots();
        let manifest_with = |obs: Option<Obs>| {
            let mut hcfg = cfg.clone();
            hcfg.obs = obs;
            hcfg.halt_after_superstep = Some(0);
            let out = if hcfg.p == 1 {
                SeqEmRunner::new(hcfg).run_until(&prog, sort_states(&keys, v)).unwrap()
            } else {
                ParEmRunner::new(hcfg).run_until(&prog, sort_states(&keys, v)).unwrap()
            };
            match out {
                RunOutcome::Interrupted(c) => c.manifest,
                RunOutcome::Complete { .. } => panic!("expected halt at superstep 0"),
            }
        };
        prop_assert_eq!(manifest_with(Some(Obs::new())), manifest_with(None));
    }
}

/// Every string literal `"cgmio_…"` under `dir`, recursively.
fn series_literals(dir: &std::path::Path, out: &mut std::collections::BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            series_literals(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = std::fs::read_to_string(&path).unwrap();
            for lit in src.split('"').skip(1).step_by(2) {
                let name_like = lit.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
                if lit.starts_with("cgmio_") && name_like {
                    out.insert(lit.to_string());
                }
            }
        }
    }
}

/// The first backticked cell of each row of the markdown table whose
/// header row starts with `header`.
fn table_keys(doc: &str, header: &str) -> std::collections::BTreeSet<String> {
    let rows = doc.lines().skip_while(|l| !l.starts_with(header)).skip(2);
    let rows = rows.take_while(|l| l.starts_with('|'));
    rows.map(|l| l.split('`').nth(1).expect("a backticked first cell").to_string()).collect()
}

/// `docs/OBSERVABILITY.md`'s metric catalogue lists exactly the series
/// the code registers, and its span table exactly the phases
/// `Phase::ALL` names: a series or phase leaves the docs with the code.
#[test]
fn observability_catalogue_matches_the_code() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap();

    let mut in_code = std::collections::BTreeSet::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            series_literals(&src, &mut in_code);
        }
    }
    assert!(in_code.len() > 10, "series found in the code: {in_code:?}");
    let in_docs = table_keys(&doc, "| Metric |");
    let undocumented: Vec<_> = in_code.difference(&in_docs).collect();
    let stale: Vec<_> = in_docs.difference(&in_code).collect();
    assert!(undocumented.is_empty() && stale.is_empty(), "{undocumented:?} / {stale:?}");

    let phases: std::collections::BTreeSet<String> =
        cgmio_obs::Phase::ALL.iter().map(|p| p.name().to_string()).collect();
    assert_eq!(table_keys(&doc, "| Phase |"), phases);
}
