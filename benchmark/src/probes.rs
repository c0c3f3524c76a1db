//! Layer probes: single-threaded timed calls into each layer's public
//! functions, from outside. Every probe runs inside a benchmark span and
//! reports the median of a few repeats.
//!
//! A probe runs in the traced pass of the workloads its layer is
//! predicted to move (see `catalogue::LAYER_WORKLOADS`), and `probes`
//! runs them all.

use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cgmio_algos::SortMsg;
use cgmio_core::context::ContextStore;
use cgmio_core::msgmatrix::MessageMatrix;
use cgmio_core::{CheckpointManifest, WorkerCheckpoint};
use cgmio_io::{AsyncFileStorage, ConcurrentStorage, IoEngineOpts};
use cgmio_model::cost::RoundCost;
use cgmio_model::CommCosts;
use cgmio_pdm::{
    BlockPool, DiskArray, DiskGeometry, DiskTimingModel, FileStorage, IoStats, Item, MemStorage,
    SpanDecoder, TrackAddr, TrackStorage,
};
use cgmio_svc::{JobSpec, Priority, WorkloadKind};

use crate::catalogue::layer_workloads;
use crate::common::{Measured, Outcome, Sizes};
use crate::trace::Tracer;

const D: usize = 4;
const REPEATS: usize = 3;

pub struct Ctx<'a> {
    /// The workload whose traced pass this is (`None`: every probe).
    pub workload: Option<&'a str>,
    pub sizes: &'a Sizes,
    pub scratch: &'a Path,
    pub tracer: &'a mut Tracer,
    pub out: &'a mut Outcome,
    /// Bytes per second the workload's traced run moved through its
    /// disk array, when there was one.
    pub disk_bytes_per_s: Option<f64>,
}

impl Ctx<'_> {
    /// Time `f` `REPEATS` times inside a span named after the metric,
    /// convert each wall with `to_value`, report the median.
    fn timed(&mut self, metric: &str, mut f: impl FnMut(), to_value: impl Fn(f64) -> f64) {
        let walls: Vec<f64> = (0..REPEATS).map(|_| self.tracer.span(metric, |_| f()).1).collect();
        self.out.put(metric, Measured::from_samples(&walls, to_value));
    }

    fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

fn mb_per_s(bytes: usize) -> impl Fn(f64) -> f64 {
    move |secs| bytes as f64 / secs / 1e6
}

fn gb_per_s(bytes: usize) -> impl Fn(f64) -> f64 {
    move |secs| bytes as f64 / secs / 1e9
}

fn per_op(ops: usize, unit_per_s: f64) -> impl Fn(f64) -> f64 {
    move |secs| secs * unit_per_s / ops as f64
}

/// Every track address of a striped volume of `blocks` blocks.
fn striped(blocks: usize) -> Vec<TrackAddr> {
    (0..blocks).map(|i| TrackAddr::new(i % D, (i / D) as u64)).collect()
}

fn memcpy(c: &mut Ctx) {
    let n = c.sizes.probe_bytes;
    let src = vec![0xA5u8; n];
    let mut dst = vec![0u8; n];
    c.timed(
        "roofline.memcpy_gbps",
        || std::hint::black_box(&mut dst).copy_from_slice(std::hint::black_box(&src)),
        gb_per_s(n),
    );
}

/// Raw `std::fs` over `D` files: same volume, block size and
/// buffered/no-fsync policy as the file workloads, and like them every
/// repeat writes files that did not exist before.
fn raw_files(c: &mut Ctx) {
    let (n, block) = (c.sizes.probe_bytes, c.sizes.sort_block);
    let per_file = n / D / block;
    let bytes = per_file * block * D;
    let buf = vec![0x5Au8; block];
    let dir = c.dir("roofline");
    std::fs::create_dir_all(&dir).expect("roofline directory");
    let paths = |repeat: usize| (0..D).map(move |d| format!("raw{repeat}-{d}.dat"));
    let mut repeat = 0;
    c.timed(
        "roofline.file_write_mbps",
        || {
            for name in paths(repeat) {
                let mut f = File::create(dir.join(name)).expect("roofline file");
                for _ in 0..per_file {
                    f.write_all(&buf).expect("roofline write");
                }
            }
            repeat += 1;
        },
        mb_per_s(bytes),
    );
    let mut back = vec![0u8; block];
    c.timed(
        "roofline.file_read_mbps",
        || {
            for name in paths(0) {
                let mut f = File::open(dir.join(name)).expect("roofline file");
                for _ in 0..per_file {
                    f.read_exact(&mut back).expect("roofline read");
                }
            }
        },
        mb_per_s(bytes),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let pct = "roofline.sort_async_pct_of_file";
    let measured_here = c.workload.is_some_and(|w| layer_workloads(pct).contains(&w));
    if let Some(workload_rate) = c.disk_bytes_per_s.filter(|_| measured_here) {
        let file = |name: &str| c.out.metrics[name].value * 1e6;
        let slower = file("roofline.file_write_mbps").min(file("roofline.file_read_mbps"));
        c.out.put_once(pct, 100.0 * workload_rate / slower);
    }
}

/// The message codec on the sort's own message type (13-byte frames).
fn codec(c: &mut Ctx) {
    type Msg = SortMsg<u64>;
    let n = c.sizes.probe_bytes / Msg::SIZE;
    let items: Vec<Msg> = (0..n as u64).map(Msg::Key).collect();
    let mut buf = vec![0u8; n * Msg::SIZE];
    c.timed(
        "pdm.item.encode_gbps",
        || Msg::encode_into(std::hint::black_box(&items), &mut buf).expect("sized buffer"),
        gb_per_s(n * Msg::SIZE),
    );
    let block = c.sizes.sort_block;
    c.timed(
        "pdm.item.decode_gbps",
        || {
            let mut dec = SpanDecoder::<Msg>::new(n);
            buf.chunks(block).for_each(|span| dec.feed(span));
            assert_eq!(std::hint::black_box(dec.finish().expect("whole buffer fed")).len(), n);
        },
        gb_per_s(n * Msg::SIZE),
    );
}

fn pool(c: &mut Ctx) {
    let (ops, block) = (c.sizes.probe_ops, c.sizes.sort_block);
    let pool = BlockPool::default();
    c.timed(
        "pdm.pool.checkout_ns",
        || (0..ops).for_each(|_| drop(std::hint::black_box(pool.checkout(block)))),
        per_op(ops, 1e9),
    );
}

/// `DiskArray` over `Mem` with 64-byte blocks: accounting and legality
/// checks per parallel operation, nothing else.
fn disk_ops(c: &mut Ctx) {
    let ops = c.sizes.probe_ops;
    let mut disks = DiskArray::new(DiskGeometry::new(2, 64));
    let block = [7u8; 64];
    c.timed(
        "pdm.disk.mem_op_ns",
        || {
            for i in 0..ops {
                let addr = TrackAddr::new(i % 2, (i / 2) as u64);
                disks.write_gather(&[(addr, &block[..])]).expect("legal write");
                disks
                    .read_gather_with(&[addr], &mut |_, b| {
                        std::hint::black_box(b);
                    })
                    .expect("legal read");
            }
        },
        per_op(2 * ops, 1e9),
    );
}

/// `DiskArray` over `Mem` with the sorts' block size: the byte path.
fn disk_bytes(c: &mut Ctx) {
    let (n, block) = (c.sizes.probe_bytes, c.sizes.sort_block);
    let addrs = striped(n / block);
    let buf = vec![3u8; block];
    c.timed(
        "pdm.disk.mem_mbps",
        || {
            let mut disks = DiskArray::new(DiskGeometry::new(D, block));
            for op in addrs.chunks(D) {
                let writes: Vec<(TrackAddr, &[u8])> = op.iter().map(|&a| (a, &buf[..])).collect();
                disks.write_gather(&writes).expect("legal write");
            }
            for op in addrs.chunks(D) {
                disks
                    .read_gather_with(op, &mut |_, b| {
                        std::hint::black_box(b);
                    })
                    .expect("legal read");
            }
        },
        mb_per_s(2 * addrs.len() * block),
    );
}

/// Write a striped volume through `s` (flushed, not synced), then read
/// it back; reports `<prefix>_write_mbps` and `<prefix>_read_mbps`.
fn storage_volume(
    c: &mut Ctx,
    prefix: &str,
    block: usize,
    open: impl Fn(&Path) -> Box<dyn TrackStorage>,
) {
    let addrs = striped(c.sizes.probe_bytes / block);
    let buf = vec![9u8; block];
    let bytes = addrs.len() * block;
    let dir = c.dir(prefix);
    // One storage per repeat on a fresh directory, opened outside the
    // timed call; the last one serves the reads.
    let mut stores: Vec<Box<dyn TrackStorage>> =
        (0..REPEATS).map(|r| open(&dir.join(format!("r{r}")))).collect();
    let mut next = stores.iter();
    c.timed(
        &format!("{prefix}_write_mbps"),
        || {
            let s = next.next().expect("one storage per repeat");
            for batch in addrs.chunks(64) {
                let writes: Vec<(TrackAddr, &[u8])> =
                    batch.iter().map(|&a| (a, &buf[..])).collect();
                s.write_scatter(&writes).expect("probe write");
            }
            s.flush(false).expect("probe flush");
        },
        mb_per_s(bytes),
    );
    let s = stores.pop().expect("REPEATS >= 1");
    c.timed(
        &format!("{prefix}_read_mbps"),
        || {
            for batch in addrs.chunks(64) {
                s.read_scatter_with(batch, &mut |_, b| {
                    std::hint::black_box(b);
                })
                .expect("probe read");
            }
        },
        mb_per_s(bytes),
    );
    drop((s, stores));
    let _ = std::fs::remove_dir_all(&dir);
}

fn syncfile(c: &mut Ctx) {
    let block = c.sizes.sort_block;
    storage_volume(c, "pdm.storage.syncfile", block, |dir| {
        Box::new(FileStorage::open(dir, DiskGeometry::new(D, block)).expect("file storage"))
    });
}

/// Per-operation costs of a queued engine over memory: one 64-byte
/// write-then-read round trip, and a flush with one write outstanding.
fn engine_ops(c: &mut Ctx, prefix: &str, s: &dyn TrackStorage) {
    let ops = c.sizes.probe_ops / 40;
    let block = [1u8; 64];
    c.timed(
        &format!("{prefix}.roundtrip_us"),
        || {
            for i in 0..ops {
                let (d, t) = (i % D, (i / D) as u64);
                s.write_track(d, t, &block).expect("probe write");
                std::hint::black_box(s.read_track(d, t).expect("probe read"));
            }
        },
        per_op(ops, 1e6),
    );
    c.timed(
        &format!("{prefix}.flush_us"),
        || {
            for i in 0..ops {
                s.write_track(i % D, (i / D) as u64, &block).expect("probe write");
                s.flush(false).expect("probe flush");
            }
        },
        per_op(ops, 1e6),
    );
}

fn mem(block: usize) -> Arc<dyn TrackStorage> {
    Arc::new(MemStorage::new(DiskGeometry::new(D, block)))
}

/// The thread-per-drive engine (`listrank-pipe`, `svc-mix`).
fn engine(c: &mut Ctx) {
    engine_ops(c, "io.engine", &ConcurrentStorage::new(mem(64), D, IoEngineOpts::default()));
    let block = c.sizes.listrank_block;
    storage_volume(c, "io.engine.file", block, |dir| {
        let geom = DiskGeometry::new(D, block);
        Box::new(ConcurrentStorage::open_dir(dir, geom, IoEngineOpts::default()).expect("engine"))
    });
}

/// The submission-reactor engine (`sort-async`).
fn async_engine(c: &mut Ctx) {
    engine_ops(c, "io.async", &AsyncFileStorage::over(mem(64), D, IoEngineOpts::default()));
    let block = c.sizes.sort_block;
    storage_volume(c, "io.async.file", block, |dir| {
        let geom = DiskGeometry::new(D, block);
        Box::new(AsyncFileStorage::open_dir(dir, geom, IoEngineOpts::default()).expect("reactors"))
    });
}

const V: usize = 32;

/// A full `v × v` exchange of sort messages through the message matrix.
fn msgmatrix(c: &mut Ctx) {
    type Msg = SortMsg<u64>;
    let block = c.sizes.sort_block;
    let per_msg = c.sizes.probe_bytes / (V * V * Msg::SIZE);
    let items: Vec<Msg> = (0..per_msg as u64).map(Msg::Key).collect();
    let bytes = V * V * per_msg * Msg::SIZE;
    let mut disks = DiskArray::new(DiskGeometry::new(D, block));
    let mut mat = MessageMatrix::<Msg>::new(D, block, 0, V, 0, V, per_msg);
    c.timed(
        "core.msgmatrix.write_mbps",
        || {
            mat.clear();
            for src in 0..V {
                let row: Vec<(usize, usize, &[Msg])> =
                    (0..V).map(|dst| (src, dst, &items[..])).collect();
                mat.write_batch(&mut disks, &row).expect("probe exchange");
            }
        },
        mb_per_s(bytes),
    );
    c.timed(
        "core.msgmatrix.read_mbps",
        || {
            for dst in 0..V {
                std::hint::black_box(mat.read_for_dst(&mut disks, dst).expect("probe inbox"));
            }
        },
        mb_per_s(bytes),
    );
}

/// Swapping `v` contexts out and in through the context store.
fn context(c: &mut Ctx) {
    let block = c.sizes.sort_block;
    let cap = c.sizes.probe_bytes / V;
    let ctx = vec![0xC7u8; cap];
    let mut disks = DiskArray::new(DiskGeometry::new(D, block));
    let mut store = ContextStore::new(D, block, 0, V, cap);
    c.timed(
        "core.context.write_mbps",
        || (0..V).for_each(|slot| store.write(&mut disks, slot, &ctx).expect("probe context")),
        mb_per_s(V * cap),
    );
    let mut back = Vec::new();
    c.timed(
        "core.context.read_mbps",
        || {
            (0..V).for_each(|slot| {
                store.read_into(&mut disks, slot, &mut back).expect("probe context")
            })
        },
        mb_per_s(V * cap),
    );
}

fn plan(c: &mut Ctx) {
    let costs = CommCosts { rounds: vec![RoundCost::default(); 3], max_context_bytes: 2 << 20 };
    let model = DiskTimingModel::nineties_disk();
    let ops = 1000;
    c.timed(
        "tune.plan_us",
        || {
            (0..ops).for_each(|_| {
                std::hint::black_box(cgmio_tune::plan(&costs, V, D, &model));
            })
        },
        per_op(ops, 1e6),
    );
}

/// What `submit()` does on the caller's thread for one small service
/// job: input generation, dry run, planning.
fn svc_prepare(c: &mut Ctx) {
    let spec = JobSpec {
        tenant: "probe".into(),
        workload: WorkloadKind::Sort,
        n: c.sizes.svc_n[0],
        v: 8,
        block_bytes: 1024,
        priority: Priority::Normal,
        deadline_hint_ms: None,
        seed: 1,
    };
    let ops = 50;
    c.timed(
        "core.measure.dryrun_s",
        || (0..ops).for_each(|_| drop(cgmio_svc::prepare(&spec, D).expect("valid spec"))),
        per_op(ops, 1.0),
    );
}

/// Atomic save (temp file, fsync, rename) of a `v = 32` manifest.
fn manifest(c: &mut Ctx) {
    let m = CheckpointManifest {
        config_hash: 1,
        v: V,
        p: 1,
        superstep: 3,
        max_ctx_bytes_seen: 1 << 20,
        cross_items: 0,
        rounds: vec![RoundCost::default(); 4],
        workers: vec![WorkerCheckpoint {
            worker: 0,
            ctx_lens: vec![(V as u64, 1 << 20)],
            inbox_lens: vec![(0..V as u64).map(|s| (s, 4096)).collect(); V],
            io: IoStats::new(D),
            breakdown: Default::default(),
            peak_mem: 0,
        }],
    };
    let dir = c.dir("manifest");
    let path = CheckpointManifest::path_in(&dir);
    let ops = 10;
    c.timed(
        "core.checkpoint.manifest_save_us",
        || (0..ops).for_each(|_| m.save(&path).expect("manifest save")),
        per_op(ops, 1e6),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each probe with one of the metrics it reports, which decides the
/// workloads it belongs to.
type Probe = fn(&mut Ctx);

const PROBES: &[(&str, Probe)] = &[
    ("roofline.memcpy_gbps", memcpy),
    ("roofline.file_write_mbps", raw_files),
    ("pdm.item.encode_gbps", codec),
    ("pdm.pool.checkout_ns", pool),
    ("pdm.disk.mem_op_ns", disk_ops),
    ("pdm.disk.mem_mbps", disk_bytes),
    ("pdm.storage.syncfile_write_mbps", syncfile),
    ("io.engine.roundtrip_us", engine),
    ("io.async.roundtrip_us", async_engine),
    ("core.msgmatrix.write_mbps", msgmatrix),
    ("core.context.write_mbps", context),
    ("tune.plan_us", plan),
    ("core.checkpoint.manifest_save_us", manifest),
];

/// Run the probes that belong to the context's workload.
pub fn run(c: &mut Ctx) {
    let t0 = Instant::now();
    let workload = c.workload;
    for (metric, probe) in PROBES {
        if workload.is_none_or(|w| layer_workloads(metric).contains(&w)) {
            probe(c);
        }
    }
    // The service's dry run is a probe; the EM workloads report their
    // own from set-up.
    if workload.is_none_or(|w| w == crate::catalogue::SVC_MIX) {
        svc_prepare(c);
    }
    eprintln!("probes: {:.1} s", t0.elapsed().as_secs_f64());
}
