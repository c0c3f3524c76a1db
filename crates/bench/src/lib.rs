//! # cgmio-bench — experiment harness
//!
//! One function per table/figure of the paper; each returns a [`Table`]
//! that the `reproduce` binary prints and archives as CSV. The
//! experiment inventory lives in `DESIGN.md`; measured-vs-paper notes in
//! `EXPERIMENTS.md`.

#![warn(missing_docs)]

use std::fmt::Write as _;

use cgmio_algos::{CgmPermute, CgmSort, CgmTranspose};
use cgmio_core::{
    measure_requirements, BackendSpec, EmConfig, EmRunReport, ParamCheck, SeqEmRunner,
};
use cgmio_io::IoEngineOpts;
use cgmio_model::CgmProgram;
use cgmio_pdm::{DiskGeometry, DiskTimingModel, IoRequest, MessageMatrixLayout};

pub mod alloc;
pub mod experiments;
pub mod observe;

/// A printable/archivable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (also the CSV file stem).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Row data, stringified.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// CSV serialisation.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV under `dir` as `<title>.csv`.
    pub fn save_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.title));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Build an [`EmConfig`] for `prog` by dry-run measurement.
pub fn config_for<P: CgmProgram>(
    prog: &P,
    states: Vec<P::State>,
    v: usize,
    p: usize,
    d: usize,
    block_bytes: usize,
) -> EmConfig {
    let (_, _, req) = measure_requirements(prog, states).expect("dry run");
    EmConfig::from_requirements(v, p, d, block_bytes, &req)
}

/// Run `prog` on the sequential EM engine with a measured config.
pub fn run_seq_em<P: CgmProgram>(
    prog: &P,
    mk_states: impl Fn() -> Vec<P::State>,
    v: usize,
    d: usize,
    block_bytes: usize,
) -> (Vec<P::State>, EmRunReport) {
    let (_, fin, rep) = run_seq_em_cfg(prog, mk_states, v, d, block_bytes);
    (fin, rep)
}

/// [`run_seq_em`], also returning the measured config.
fn run_seq_em_cfg<P: CgmProgram>(
    prog: &P,
    mk_states: impl Fn() -> Vec<P::State>,
    v: usize,
    d: usize,
    block_bytes: usize,
) -> (EmConfig, Vec<P::State>, EmRunReport) {
    let cfg = config_for(prog, mk_states(), v, 1, d, block_bytes);
    let (fin, rep) = SeqEmRunner::new(cfg.clone()).run(prog, mk_states()).expect("EM run");
    (cfg, fin, rep)
}

/// The disk model used to convert op counts into modelled wall time.
pub fn disk_model() -> DiskTimingModel {
    DiskTimingModel::nineties_disk()
}

/// Standard sweep problem sizes (items).
pub fn sweep_sizes() -> Vec<usize> {
    vec![1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17]
}

/// Measure how many parallel write operations a `v × v` message matrix
/// of `blocks_per_msg`-block messages needs under (a) the paper's
/// staggered layout and (b) a naive per-band layout that always starts
/// bands at disk 0 — the Figure 2 ablation. Each writer emits its list
/// stripe by stripe (block `q` of every message before block `q + 1`),
/// in the block-major order both layouts share.
pub fn layout_ablation_ops(v: usize, d: usize, blocks_per_msg: u64) -> (u64, u64) {
    let layout = MessageMatrixLayout { num_disks: d, v, blocks_per_msg, base_track: 0 };
    let (tracks_per_band, stride) = (layout.tracks_per_band(), layout.stripe_stride());
    // naive: band j starts at disk 0 (no stagger)
    let naive = |src: usize, dst: usize, q: u64| {
        cgmio_pdm::consecutive_addr(d, dst as u64 * tracks_per_band, 0, q * stride + src as u64)
    };
    let ops = |addr: &dyn Fn(usize, usize, u64) -> cgmio_pdm::TrackAddr| {
        let mut disks = cgmio_pdm::DiskArray::new(DiskGeometry::new(d, 64));
        for src in 0..v {
            let queue: Vec<IoRequest> = (0..blocks_per_msg)
                .flat_map(|q| (0..v).map(move |dst| (dst, q)))
                .map(|(dst, q)| IoRequest { addr: addr(src, dst, q), data: vec![0u8; 8] })
                .collect();
            disks.write_fifo(&queue).unwrap();
        }
        disks.stats().write_ops
    };
    (ops(&|src, dst, q| layout.addr(src, dst, q)), ops(&naive))
}

/// Sort runner shared by Figure 3/4/5a: returns the EM report for
/// sorting `n` uniform keys.
pub fn em_sort_report(n: usize, v: usize, d: usize, block_bytes: usize) -> EmRunReport {
    em_sort_run(n, v, d, block_bytes).1
}

/// [`em_sort_report`] with the machine's parameter checks.
pub fn em_sort_run(n: usize, v: usize, d: usize, block_bytes: usize) -> (ParamCheck, EmRunReport) {
    let keys = cgmio_data::uniform_u64(n, 42);
    let mk = || {
        cgmio_data::block_split(keys.clone(), v)
            .into_iter()
            .map(|b| (b, Vec::new()))
            .collect::<Vec<_>>()
    };
    let prog = CgmSort::<u64>::by_pivots();
    let (cfg, fin, rep) = run_seq_em_cfg(&prog, mk, v, d, block_bytes);
    // sanity: output must be globally sorted
    let flat: Vec<u64> = fin.iter().flat_map(|(b, _)| b.iter().copied()).collect();
    debug_assert!(flat.windows(2).all(|w| w[0] <= w[1]));
    let mut sorted = keys;
    sorted.sort_unstable();
    assert_eq!(flat.len(), sorted.len());
    (cfg.check_params(n as u64, 8), rep)
}

/// The Figure 3 sort again, but on the `cgmio-io` concurrent file
/// engine with the I/O event trace enabled. `drive_dir` holds the
/// simulated drive files; the trace comes back in
/// `EmRunReport::io_trace`. Counts are identical to [`em_sort_report`]
/// (backend equivalence); only physical timing differs.
pub fn em_sort_report_traced(
    n: usize,
    v: usize,
    d: usize,
    block_bytes: usize,
    drive_dir: &std::path::Path,
) -> EmRunReport {
    let keys = cgmio_data::uniform_u64(n, 42);
    let mk = || {
        cgmio_data::block_split(keys.clone(), v)
            .into_iter()
            .map(|b| (b, Vec::new()))
            .collect::<Vec<_>>()
    };
    let prog = CgmSort::<u64>::by_pivots();
    let mut cfg = config_for(&prog, mk(), v, 1, d, block_bytes);
    cfg.backend = BackendSpec::Concurrent {
        dir: Some(drive_dir.to_path_buf()),
        opts: IoEngineOpts { trace: true, ..Default::default() },
    };
    SeqEmRunner::new(cfg).run(&prog, mk()).expect("EM run").1
}

/// EM permutation report for `n` items, with the machine's parameter
/// checks.
pub fn em_permute_report(
    n: usize,
    v: usize,
    d: usize,
    block_bytes: usize,
) -> (ParamCheck, EmRunReport) {
    let vals = cgmio_data::uniform_u64(n, 7);
    let perm = cgmio_data::random_permutation(n, 8);
    let mk = || {
        cgmio_data::block_split(vals.clone(), v)
            .into_iter()
            .zip(cgmio_data::block_split(perm.clone(), v))
            .map(|(vb, pb)| (vb, pb, n as u64))
            .collect::<Vec<_>>()
    };
    let (cfg, _, rep) = run_seq_em_cfg(&CgmPermute, mk, v, d, block_bytes);
    (cfg.check_params(n as u64, 8), rep)
}

/// EM transpose report for a `k × ℓ` matrix, with the machine's
/// parameter checks.
pub fn em_transpose_report(
    k: usize,
    l: usize,
    v: usize,
    d: usize,
    block_bytes: usize,
) -> (ParamCheck, EmRunReport) {
    let m = cgmio_data::uniform_u64(k * l, 5);
    let mk = || {
        cgmio_data::block_split(m.clone(), v)
            .into_iter()
            .map(|b| (b, k as u64, l as u64))
            .collect::<Vec<_>>()
    };
    let (cfg, _, rep) = run_seq_em_cfg(&CgmTranspose, mk, v, d, block_bytes);
    (cfg.check_params((k * l) as u64, 8), rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_serialises() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("demo") && r.contains("bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    fn staggered_layout_beats_naive() {
        let (stag, naive) = layout_ablation_ops(8, 4, 2);
        assert!(stag < naive, "staggered {stag} naive {naive}");
        // staggered achieves the optimum v*v*b'/D
        assert_eq!(stag, 8 * 8 * 2 / 4);
    }

    #[test]
    fn em_sort_smoke() {
        let rep = em_sort_report(1 << 12, 8, 2, 1024);
        assert!(rep.breakdown.algorithm_ops() > 0);
        // At this tiny size most messages underfill their slots, which
        // degrades the staggered layout's parallelism — the exact effect
        // Lemma 2 balancing exists to prevent (see ablation_balance).
        assert!(rep.io.parallel_efficiency() > 0.1);
        let big = em_sort_report(1 << 15, 8, 2, 1024);
        assert!(
            big.io.parallel_efficiency() > rep.io.parallel_efficiency(),
            "fuller slots must improve disk parallelism"
        );
    }
}
