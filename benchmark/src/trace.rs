//! The benchmark's own spans, recorded from outside the program: one
//! around every call into a layer and around each run phase.
//!
//! Spans are kept in memory and written as `trace-<workload>.json` when
//! the traced pass ends. The untraced (end-to-end) pass uses a disabled
//! tracer, so the timed numbers carry no tracing cost.

use std::path::Path;
use std::time::Instant;

use cgmio_obs::json::Value;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: u64,
    end_us: u64,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
}

/// Span recorder for one workload (the workload name is the identifier
/// every span of the run shares).
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Self {
            workload: workload.to_string(),
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under whichever span
    /// is open now. Returns `f`'s result and the span's duration in
    /// seconds (measured even when the tracer is disabled, since
    /// callers report it).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let t0 = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us: self.epoch.elapsed().as_micros() as u64,
                end_us: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(i) = idx {
            self.spans[i].end_us = self.epoch.elapsed().as_micros() as u64;
            self.open.pop();
        }
        (out, secs)
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover.
    fn self_us(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_us - s.start_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_us - s.start_us);
            }
        }
        own
    }

    pub fn to_json(&self) -> Value {
        let own = self.self_us();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (s, self_us))| {
                Value::Obj(vec![
                    ("id".into(), Value::num(id)),
                    ("name".into(), Value::str(s.name.clone())),
                    ("start_us".into(), Value::num(s.start_us)),
                    ("end_us".into(), Value::num(s.end_us)),
                    ("self_us".into(), Value::num(self_us)),
                    ("parent".into(), s.parent.map_or(Value::Null, Value::num)),
                    ("workload".into(), Value::str(self.workload.clone())),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("workload".into(), Value::str(self.workload.clone())),
            ("spans".into(), Value::Arr(spans)),
        ])
    }

    /// Write `trace-<workload>.json` into `dir` (nothing when disabled).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        std::fs::write(path, self.to_json().render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new("w", true);
        t.span("outer", |t| {
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(3)));
            t.span("b", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        let own = t.self_us();
        let outer = t.spans[0].end_us - t.spans[0].start_us;
        let a = t.spans[1].end_us - t.spans[1].start_us;
        assert!(a >= 3000);
        assert!(own[0] <= outer - a);
        let j = t.to_json();
        assert_eq!(j.get("spans").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new("w", false);
        let (v, secs) = t.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans.is_empty());
    }
}
