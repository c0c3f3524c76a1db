//! What surrounds the numbers: the machine fingerprint, the scratch
//! directory's lifetime and file system, and the JSON forms of a result.

use std::path::{Path, PathBuf};
use std::process::Command;

use cgmio_obs::json::Value;

use crate::catalogue::MetricDef;
use crate::common::{Measured, Outcome};

/// A scratch directory removed when dropped — on success, on a failed
/// run and on a panic alike.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// File system type of the mount holding `path` (`/proc/self/mountinfo`:
/// the longest mount point that prefixes the path wins).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    fs_type_from(&mounts, &path).unwrap_or_else(|| "unknown".into())
}

fn fs_type_from(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            // `… mount-point options [optional…] - fstype source superopts`
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            path.starts_with(mount_point).then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// Page-cache-only file systems: file workloads there measure memory.
pub fn is_memory_fs(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn mem_total_mb() -> u64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("MemTotal:")?.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
            })
        })
        .map_or(0, |kb| kb / 1024)
}

/// Where the numbers were measured. They are this machine's, not a
/// device's: file I/O is buffered and never synced.
pub fn fingerprint(scratch: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    Value::Obj(vec![
        ("nproc".into(), Value::num(nproc)),
        ("ram_mb".into(), Value::num(mem_total_mb())),
        ("kernel".into(), Value::str(kernel)),
        ("scratch_fs".into(), Value::str(fs_type(scratch))),
        ("rustc".into(), Value::str(command_line("rustc", &["--version"]))),
        ("git_commit".into(), Value::str(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

/// A finite number as JSON, with all its digits.
pub fn number(x: f64) -> Value {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    Value::num(x)
}

/// `{"value": …, "unit": …}` for each catalogue metric, in catalogue
/// order. Layer metrics not measured on this workload read 0.
fn metrics_json(defs: &[MetricDef], out: &Outcome, detailed: bool) -> Value {
    Value::Obj(
        defs.iter()
            .map(|d| {
                let m = out.metrics.get(&d.name).copied().unwrap_or(Measured::once(0.0));
                let mut fields =
                    vec![("value".into(), number(m.value)), ("unit".into(), Value::str(&*d.unit))];
                if detailed {
                    fields.extend([
                        ("median".into(), number(m.summary.median)),
                        ("min".into(), number(m.summary.min)),
                        ("max".into(), number(m.summary.max)),
                        ("n".into(), Value::num(m.summary.n)),
                    ]);
                }
                (d.name.clone(), Value::Obj(fields))
            })
            .collect(),
    )
}

/// The one-line result the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(defs: &[MetricDef], out: &Outcome) -> String {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(out.correct())),
        ("attempted".into(), Value::num(out.attempted.max(1))),
        ("failed".into(), Value::num(out.failed)),
        ("metrics".into(), metrics_json(defs, out, false)),
    ])
    .render()
}

/// The same result with median/min/max/n per metric and the failure
/// reasons, for the result-set envelope.
pub fn result_detail(defs: &[MetricDef], out: &Outcome) -> Value {
    Value::Obj(vec![
        ("correct".into(), Value::Bool(out.correct())),
        ("attempted".into(), Value::num(out.attempted.max(1))),
        ("failed".into(), Value::num(out.failed)),
        ("errors".into(), Value::Arr(out.errors.iter().map(Value::str).collect())),
        ("metrics".into(), metrics_json(defs, out, true)),
    ])
}

/// One detailed result out of the results of several runs of one pass:
/// per metric the median of the runs' values (with min, max and n over
/// the runs), counts summed, `correct` only if every run was. A single
/// run is returned as it is.
pub fn merge_runs(mut runs: Vec<Value>) -> Value {
    if runs.len() == 1 {
        return runs.remove(0);
    }
    let count = |key: &str| -> u64 { runs.iter().filter_map(|r| r.get(key)?.as_u64()).sum() };
    let names: Vec<&String> = runs[0]
        .get("metrics")
        .and_then(Value::as_object)
        .map_or(Vec::new(), |m| m.iter().map(|(k, _)| k).collect());
    let metrics = names.into_iter().map(|name| {
        let field = |r: &Value, key: &str| r.get("metrics")?.get(name)?.get(key).cloned();
        let values: Vec<f64> = runs.iter().filter_map(|r| field(r, "value")?.as_f64()).collect();
        let s = crate::stats::summarize(&values);
        let unit = field(&runs[0], "unit").unwrap_or(Value::Null);
        let fields = vec![
            ("value".into(), number(s.median)),
            ("unit".into(), unit),
            ("median".into(), number(s.median)),
            ("min".into(), number(s.min)),
            ("max".into(), number(s.max)),
            ("n".into(), Value::num(s.n)),
        ];
        (name.clone(), Value::Obj(fields))
    });
    let errors = runs.iter().filter_map(|r| r.get("errors")?.as_array()).flatten().cloned();
    Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(runs.iter().all(|r| r.get("correct") == Some(&Value::Bool(true)))),
        ),
        ("attempted".into(), Value::num(count("attempted"))),
        ("failed".into(), Value::num(count("failed"))),
        ("errors".into(), Value::Arr(errors.collect())),
        ("metrics".into(), Value::Obj(metrics.collect())),
    ])
}

/// Print every metric by name with its unit, one per line.
pub fn print_metrics(defs: &[MetricDef], out: &Outcome) {
    for d in defs {
        match out.metrics.get(&d.name) {
            Some(m) if m.summary.n > 1 => println!(
                "{:<34} {:>16.6} {:<6} median {:.6}  min {:.6}  max {:.6}  n {}",
                d.name,
                m.value,
                d.unit,
                m.summary.median,
                m.summary.min,
                m.summary.max,
                m.summary.n
            ),
            Some(m) => println!("{:<34} {:>16.6} {:<6}", d.name, m.value, d.unit),
            None => {
                println!("{:<34} {:>16} {:<6} (not measured on this workload)", d.name, 0, d.unit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOUNTINFO: &str = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:25 / /dev/shm rw,nosuid - tmpfs tmpfs rw
31 22 0:26 / /mnt/my\\040disk rw shared:5 master:1 - xfs /dev/vdb rw
";

    #[test]
    fn longest_mount_point_wins() {
        assert_eq!(fs_type_from(MOUNTINFO, Path::new("/root/scratch")).as_deref(), Some("ext4"));
        assert_eq!(fs_type_from(MOUNTINFO, Path::new("/dev/shm/x")).as_deref(), Some("tmpfs"));
        assert_eq!(fs_type_from("", Path::new("/x")), None);
        assert!(is_memory_fs("tmpfs") && !is_memory_fs("ext4"));
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let base =
            std::env::temp_dir().join(format!("cgmio-benchmark-test-{}", std::process::id()));
        let path = base.join("a");
        {
            let s = ScratchDir::create(path.clone()).unwrap();
            std::fs::write(s.path().join("f"), b"x").unwrap();
        }
        assert!(!path.exists());
        let p2 = base.join("b");
        let p2c = p2.clone();
        let r = std::panic::catch_unwind(move || {
            let _s = ScratchDir::create(p2c).unwrap();
            panic!("run failed");
        });
        assert!(r.is_err() && !p2.exists());
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn merged_runs_carry_the_median_and_the_worst_verdict() {
        let defs = vec![MetricDef {
            name: "items_per_s".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.25),
        }];
        let run = |value: f64, failed: u64| {
            let mut out = Outcome { attempted: 4, failed, ..Outcome::default() };
            out.put_once("items_per_s", value);
            result_detail(&defs, &out)
        };
        let merged = merge_runs(vec![run(30.0, 0), run(10.0, 1), run(20.0, 0)]);
        let m = merged.get("metrics").unwrap().get("items_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(20.0));
        assert_eq!(m.get("min").unwrap().as_f64(), Some(10.0));
        assert_eq!(m.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(merged.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(merged.get("attempted").unwrap().as_u64(), Some(12));
        assert_eq!(merged.get("failed").unwrap().as_u64(), Some(1));
        let single = run(5.0, 0);
        assert_eq!(merge_runs(vec![single.clone()]), single);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = vec![MetricDef {
            name: "items_per_s".into(),
            unit: "1/s".into(),
            higher_is_better: true,
            bound: Some(0.07),
        }];
        let mut out = Outcome { attempted: 3, ..Outcome::default() };
        out.put_once("items_per_s", 1234.5678);
        let v = cgmio_obs::json::parse(&result_line(&defs, &out)).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("items_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(m.as_object().unwrap().len(), 2);
    }
}
