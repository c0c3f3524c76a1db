//! The workload and metric catalogue.
//!
//! Names, units, directions and regression bounds live in the root
//! `BENCHMARK.json` (embedded at build time, so the binary and the file
//! cannot drift). What that file has no field for lives here: which
//! metrics must repeat exactly, and which workload each layer metric is
//! measured on and predicted to move.

use cgmio_obs::json::{self, Value};

pub const SORT_ASYNC: &str = "sort-async";
pub const SORT_PAR_MEM: &str = "sort-par-mem";
pub const RING_LARGEV: &str = "ring-largev";
pub const LISTRANK_PIPE: &str = "listrank-pipe";
pub const SVC_MIX: &str = "svc-mix";

const EM: &[&str] = &[SORT_ASYNC, SORT_PAR_MEM, RING_LARGEV, LISTRANK_PIPE];
const SORTS: &[&str] = &[SORT_ASYNC, SORT_PAR_MEM];
const ALL: &[&str] = &[SORT_ASYNC, SORT_PAR_MEM, RING_LARGEV, LISTRANK_PIPE, SVC_MIX];

/// End-to-end metrics that are counts made by the program: two result
/// sets of one commit and one seed must agree on them bit for bit. (The
/// bound in `BENCHMARK.json` is for runs with *different* seeds, where
/// the data moves a few block boundaries.) On `svc-mix` they are sums
/// over the reference-rate window, which the seed also fixes.
pub const EXACT: &[&str] =
    &["parallel_io_ops", "io_ops_vs_theorem2", "parallel_efficiency", "ok_share"];

/// Layer metric (by name prefix) → the workloads whose traced pass
/// measures it, which are the workloads it is predicted to move. Every
/// other workload reports 0 for it: not measured there, predicted flat.
pub const LAYER_WORKLOADS: &[(&str, &[&str])] = &[
    ("core.phase.", EM),
    ("obs.overhead_ratio", EM),
    ("io.queue_wait_s", ALL),
    ("io.service_s", ALL),
    ("io.cache_hit_ratio", ALL),
    ("io.prefetch_dropped", ALL),
    ("io.submit_batch_blocks_mean", ALL),
    ("io.bytes_total", ALL),
    ("io.retries", ALL),
    ("core.pipeline.stall_s", EM),
    ("core.report.", EM),
    ("pdm.stats.blocks_total", EM),
    ("core.ctx.", EM),
    ("roofline.memcpy_gbps", ALL),
    ("roofline.file_", &[SORT_ASYNC, LISTRANK_PIPE]),
    ("roofline.sort_async_pct_of_file", &[SORT_ASYNC]),
    ("pdm.item.", SORTS),
    ("pdm.pool.", SORTS),
    ("pdm.disk.mem_op_ns", &[RING_LARGEV]),
    ("pdm.disk.mem_mbps", SORTS),
    ("pdm.storage.", &[SORT_ASYNC, LISTRANK_PIPE]),
    ("io.engine.", &[LISTRANK_PIPE, SVC_MIX]),
    ("io.async.", &[SORT_ASYNC]),
    ("core.msgmatrix.", SORTS),
    ("core.context.", SORTS),
    ("core.measure.dryrun_s", ALL),
    ("tune.plan_us", ALL),
    ("model.direct.sort_items_per_s", SORTS),
    ("core.checkpoint.", &[LISTRANK_PIPE]),
    ("svc.", &[SVC_MIX]),
];

/// Workloads on which layer metric `name` is measured.
pub fn layer_workloads(name: &str) -> &'static [&'static str] {
    LAYER_WORKLOADS
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or(&[], |(_, workloads)| workloads)
}

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDef {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the reference value by which the metric may get worse;
    /// `None` for layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Catalogue {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDef>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
}

fn text(v: &Value, key: &str) -> String {
    field(v, key).as_str().unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` not text")).into()
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    field(v, key).as_array().unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` not a list"))
}

fn metric(v: &Value) -> MetricDef {
    MetricDef {
        name: text(v, "name"),
        unit: text(v, "unit"),
        higher_is_better: match text(v, "better").as_str() {
            "higher" => true,
            "lower" => false,
            other => panic!("BENCHMARK.json: better = {other:?}"),
        },
        bound: v.get("bound").and_then(Value::as_f64),
    }
}

impl Catalogue {
    /// The catalogue of the `BENCHMARK.json` this binary was built
    /// with. Panics on a malformed file: that is a broken build.
    pub fn load() -> Self {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Self {
            run_seconds: field(&doc, "run_seconds").as_u64().expect("run_seconds is a number"),
            workloads: list(&doc, "workloads")
                .iter()
                .map(|w| WorkloadDef { name: text(w, "name"), why: text(w, "why") })
                .collect(),
            end_to_end: list(&doc, "end_to_end").iter().map(metric).collect(),
            per_layer: list(&doc, "per_layer").iter().map(metric).collect(),
        }
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|w| w.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_has_the_five_workloads_and_twelve_metrics() {
        let c = Catalogue::load();
        let names: Vec<&str> = c.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ALL);
        assert_eq!(c.end_to_end.len(), 12);
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        for m in &c.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&b), "{}: bound {b}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn every_layer_metric_is_measured_on_some_workload() {
        let c = Catalogue::load();
        for m in &c.per_layer {
            assert!(!layer_workloads(&m.name).is_empty(), "{} is measured nowhere", m.name);
        }
        for (prefix, _) in LAYER_WORKLOADS {
            assert!(
                c.per_layer.iter().any(|m| m.name.starts_with(prefix)),
                "{prefix} matches no metric of BENCHMARK.json"
            );
        }
    }

    #[test]
    fn exact_metrics_exist() {
        let c = Catalogue::load();
        for name in EXACT {
            assert!(c.end_to_end.iter().any(|m| m.name == *name), "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let c = Catalogue::load();
        let mut names: Vec<&String> = c
            .workloads
            .iter()
            .map(|w| &w.name)
            .chain(c.end_to_end.iter().chain(&c.per_layer).map(|m| &m.name))
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
