//! `agree A.json B.json`: do two result sets agree within the bounds of
//! `BENCHMARK.json`?
//!
//! Two sets of one commit must; a set of a changed commit compared
//! against its parent's shows every regression beyond a bound. Metrics
//! listed in `catalogue::EXACT` must be bit-equal when both sets used
//! the same seed.

use cgmio_obs::json::{self, Value};

use crate::catalogue::{Catalogue, MetricDef, EXACT};

/// Share of `reference` by which `x` is worse (negative: better).
pub fn worse_share(def: &MetricDef, reference: f64, x: f64) -> f64 {
    let delta = if def.higher_is_better { reference - x } else { x - reference };
    delta / reference.abs()
}

/// Why `a` and `b` disagree on `def`, if they do.
pub fn disagreement(def: &MetricDef, a: f64, b: f64, same_seed: bool) -> Option<String> {
    if same_seed && EXACT.contains(&def.name.as_str()) {
        return (a != b).then(|| format!("must repeat exactly: {a} vs {b}"));
    }
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worst = worse_share(def, a, b).max(worse_share(def, b, a));
    (worst > bound)
        .then(|| format!("{a} vs {b}: {:.1} % apart, bound {:.1} %", worst * 100.0, bound * 100.0))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value_of(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn correct(set: &Value, workload: &str) -> bool {
    ["end_to_end", "per_layer"].iter().all(|pass| {
        set.get("workloads")
            .and_then(|w| w.get(workload)?.get(pass)?.get("correct"))
            .is_some_and(|c| *c == Value::Bool(true))
    })
}

/// Compare the sets, print one line per (workload, metric), and return
/// how many pairs disagree.
pub fn run(catalogue: &Catalogue, path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let seed = |s: &Value| s.get("seed").and_then(Value::as_u64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    println!("comparing {path_a} with {path_b} (same seed: {same_seed})");
    let mut bad = 0;
    for w in &catalogue.workloads {
        for (set, path) in [(&a, path_a), (&b, path_b)] {
            if !correct(set, &w.name) {
                println!(
                    "DISAGREE {:<14} {path}: a pass is missing or failed its correctness gate",
                    w.name
                );
                bad += 1;
            }
        }
        for def in &catalogue.end_to_end {
            let (Some(x), Some(y)) =
                (value_of(&a, &w.name, &def.name), value_of(&b, &w.name, &def.name))
            else {
                println!("DISAGREE {:<14} {:<20} missing from a set", w.name, def.name);
                bad += 1;
                continue;
            };
            match disagreement(def, x, y, same_seed) {
                Some(why) => {
                    println!("DISAGREE {:<14} {:<20} {why}", w.name, def.name);
                    bad += 1;
                }
                None => println!("agree    {:<14} {:<20} {x} vs {y}", w.name, def.name),
            }
        }
    }
    println!("{bad} disagreement(s)");
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn worse_share_follows_direction() {
        let up = def("items_per_s", true, 0.07);
        assert!((worse_share(&up, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_share(&up, 100.0, 110.0) < 0.0);
        let down = def("latency_p50_ms", false, 0.10);
        assert!((worse_share(&down, 10.0, 11.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn bounds_apply_in_both_directions() {
        let up = def("items_per_s", true, 0.07);
        assert!(disagreement(&up, 100.0, 95.0, true).is_none());
        assert!(disagreement(&up, 100.0, 92.0, true).is_some());
        assert!(disagreement(&up, 92.0, 100.0, true).is_some());
    }

    #[test]
    fn exact_metrics_must_be_bit_equal_on_one_seed_only() {
        let ops = def("parallel_io_ops", false, 0.02);
        assert!(disagreement(&ops, 3802.0, 3802.0, true).is_none());
        assert!(disagreement(&ops, 3802.0, 3803.0, true).is_some());
        // Different seeds move a few block boundaries: the bound applies.
        assert!(disagreement(&ops, 3802.0, 3803.0, false).is_none());
        assert!(disagreement(&ops, 3802.0, 4000.0, false).is_some());
    }
}
