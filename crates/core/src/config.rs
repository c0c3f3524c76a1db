//! EM-CGM machine configuration and the paper's parameter conditions.

use std::path::PathBuf;
use std::sync::Arc;

use cgmio_io::{
    AsyncFileStorage, ConcurrentStorage, IoEngineOpts, RetryPolicy, RetryStorage, TraceHandle,
};
use cgmio_obs::{Counter, Obs};
use cgmio_pdm::{
    DiskArray, DiskGeometry, FaultInjector, FaultPlan, FaultStats, FileStorage, MemStorage,
    TrackRange, TrackStorage,
};

use crate::measure::Requirements;
use crate::msgmatrix;
use crate::EmError;

/// Which physical storage sits behind each real processor's disk array.
///
/// All backends are observationally equivalent through `DiskArray` —
/// identical contents, identical `IoStats`, identical legality errors
/// (property-tested in `cgmio-io`) — so the choice only affects
/// wall-clock behaviour and persistence.
#[derive(Clone, Default)]
pub enum BackendSpec {
    /// In-memory tracks (the default; fastest, nothing persisted).
    #[default]
    Mem,
    /// Synchronous files, one per simulated drive, under `dir`
    /// (per-processor subdirectory `p{t}` for the parallel runner).
    SyncFile {
        /// Directory holding the drive files.
        dir: PathBuf,
    },
    /// The `cgmio-io` concurrent engine: per-drive worker threads with
    /// read-ahead and write-behind. `dir = None` runs it over in-memory
    /// tracks (concurrency without touching the filesystem).
    Concurrent {
        /// Directory for the drive files, or `None` for memory-backed.
        dir: Option<PathBuf>,
        /// Engine tuning (queue depth, prefetch cache, durability,
        /// tracing). `opts.proc` is overwritten with the worker index.
        opts: IoEngineOpts,
    },
    /// The `cgmio-io` engine owning the drive files
    /// ([`cgmio_io::AsyncFileStorage`]): each drive's worker drains its
    /// submission queue in batches and coalesces adjacent-track ops
    /// into single positioned transfers against real drive files under
    /// `dir`. Same `disk{d}.dat` layout as [`BackendSpec::SyncFile`].
    AsyncFile {
        /// Directory for the drive files (per-processor subdirectory
        /// `p{t}` for the parallel runner).
        dir: PathBuf,
        /// Engine tuning (queue depth, durability, tracing).
        /// `opts.proc` is overwritten with the worker index. Prefetch
        /// hints are ignored on this backend (the cache stays empty),
        /// so `opts.prefetch_cache_blocks`/`ignore_hints` have no effect.
        opts: IoEngineOpts,
    },
    /// A caller-owned storage — typically one `Arc`'d
    /// [`cgmio_io::ConcurrentStorage`] multiplexed between many runs by
    /// the job service — of which this run sees only a namespaced
    /// per-drive track window (see [`cgmio_pdm::TrackRange`]).
    ///
    /// Real processor `t` is wrapped in the window
    /// `[base_track + t·worker_span_tracks, base_track +
    /// (t+1)·worker_span_tracks)`, so a run with `p` workers reserves
    /// `p · worker_span_tracks` tracks per drive in total; size the
    /// span with [`EmConfig::tracks_per_worker`]. The storage must have
    /// the same [`DiskGeometry`] as this config, and windows handed to
    /// concurrently executing runs must be disjoint and previously
    /// unwritten — then bytes, `IoStats`, and errors are bit-identical
    /// to a solo run on a fresh backend (property-tested in
    /// `tests/service_isolation.rs`).
    Shared {
        /// The shared backend (the engine outlives every run using it).
        storage: Arc<dyn TrackStorage>,
        /// First track (per drive) of this run's reservation.
        base_track: u64,
        /// Tracks reserved per real processor, per drive.
        worker_span_tracks: u64,
    },
}

impl std::fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendSpec::Mem => f.debug_struct("Mem").finish(),
            BackendSpec::SyncFile { dir } => f.debug_struct("SyncFile").field("dir", dir).finish(),
            BackendSpec::Concurrent { dir, opts } => {
                f.debug_struct("Concurrent").field("dir", dir).field("opts", opts).finish()
            }
            BackendSpec::AsyncFile { dir, opts } => {
                f.debug_struct("AsyncFile").field("dir", dir).field("opts", opts).finish()
            }
            // `storage` is a type-erased trait object with no Debug bound.
            BackendSpec::Shared { base_track, worker_span_tracks, .. } => f
                .debug_struct("Shared")
                .field("base_track", base_track)
                .field("worker_span_tracks", worker_span_tracks)
                .finish_non_exhaustive(),
        }
    }
}

/// One real processor's disk array plus the observability handles that
/// travel with it, as built by [`EmConfig::build_disks`].
///
/// The runners drain `trace` into the run report, read `retries` after
/// the run (the counter is live across the whole storage stack — the
/// engine's drive workers or the sync path's [`RetryStorage`]), and
/// snapshot `faults` to attribute injected-fault counts to the run.
pub struct DiskHandles {
    /// The disk array (counts I/O above whichever backend was built).
    pub disks: DiskArray,
    /// Event-trace handle, when the concurrent engine was configured
    /// with `opts.trace`.
    pub trace: Option<TraceHandle>,
    /// Live transient-retry counter for this array's storage stack.
    /// Registered as `cgmio_io_retries_total{proc}` when
    /// [`EmConfig::obs`] is set; detached (but still counting) else.
    pub retries: Counter,
    /// Injected-fault counters, present iff [`EmConfig::fault`] is set.
    /// The plan's own observer when it has one, else one attached here.
    pub faults: Option<Arc<FaultStats>>,
    /// Live count of deferred write-behind errors discarded because the
    /// engine's bounded retained-error list was full. Always zero for
    /// the synchronous backends (they fail writes in-line).
    pub deferred_drops: Counter,
    /// The backend keeps read-ahead hints in a prefetch cache. Only the
    /// `Concurrent` backend does; the others would drop every hint.
    pub hint_cache: bool,
}

/// Version of the on-disk placement the runners use, folded into
/// [`EmConfig::config_hash`] so a manifest written under another
/// placement is refused. `1`: message-major matrix bands (the hash had
/// no version then); `2`: block-major bands staggered by `j mod D`
/// ([`cgmio_pdm::MessageMatrixLayout`]); `3`: each message in one of `D`
/// rotation copies, chosen when it is written; `4`: one packed mailbox
/// per destination ([`crate::msgmatrix`]), whose open-block pool `M`
/// sizes (so `M` joined the hash).
pub const LAYOUT_VERSION: u64 = 4;

/// FNV-1a from state `h` over the little-endian bytes of `words`.
fn fnv1a(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

/// Configuration of the simulated EM-CGM target machine.
///
/// The paper's model parameters map as: `v` virtual processors, `p` real
/// processors, `D = num_disks` drives **per real processor**, block size
/// `B = block_bytes`, internal memory `M = mem_bytes` per real processor.
///
/// # Examples
///
/// Size a machine from measured requirements and run a program:
///
/// ```
/// use cgmio_core::{measure_requirements, EmConfig, SeqEmRunner};
/// use cgmio_model::demo::TokenRing;
///
/// let prog = TokenRing { rounds: 3 };
/// let init = || (0..4u64).map(|i| vec![i]).collect::<Vec<_>>();
///
/// // Dry-run in memory to measure λ, h, μ — then size the slots from them.
/// let (_, _, req) = measure_requirements(&prog, init()).unwrap();
/// let cfg = EmConfig::from_requirements(4, 1, 2, 64, &req);
///
/// let (finals, report) = SeqEmRunner::new(cfg).run(&prog, init()).unwrap();
/// assert_eq!(finals.len(), 4);
/// assert_eq!(report.costs.lambda(), 3);
/// assert!(report.io.total_ops() > 0); // contexts really moved through disk
/// ```
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Virtual processors of the simulated CGM machine.
    pub v: usize,
    /// Real processors of the target machine (1 for Algorithm 2).
    pub p: usize,
    /// Disks per real processor (`D`).
    pub num_disks: usize,
    /// Block size in bytes (`B`, in bytes rather than items).
    pub block_bytes: usize,
    /// Internal memory per real processor, bytes (`M`). Used for the
    /// memory audit; exceeded ⇒ error in strict mode, report otherwise.
    pub mem_bytes: usize,
    /// Fixed message-slot capacity, in items. Any single (src → dst)
    /// message larger than this aborts the run. Balanced programs need
    /// only `h/v + (v−1)/2`.
    pub msg_slot_items: usize,
    /// Fixed context-slot capacity, in bytes (`≥ μ`).
    pub max_ctx_bytes: usize,
    /// Virtual processors simulated per compound step (`k ≥ 1`): each
    /// real processor swaps its local vps in groups of `k` consecutive
    /// ones — one gather list for their contexts, one for their inboxes
    /// — so that contexts smaller than a `D`-wide stripe still fill
    /// every parallel I/O. The `M` audit covers the whole group. It
    /// changes `IoStats` and the audit, so it is part of
    /// [`Self::config_hash`].
    pub vp_group: usize,
    /// Fail (rather than record) when memory or parameter checks fail.
    pub strict: bool,
    /// Livelock guard.
    pub round_limit: usize,
    /// Storage backend for each real processor's disk array.
    pub backend: BackendSpec,
    /// When set, write a [`crate::checkpoint::CheckpointManifest`] into
    /// this directory at every superstep barrier (atomically, after an
    /// fsync'd flush), enabling `resume_from` after a crash. Meaningful
    /// persistence needs a file-backed [`Self::backend`] rooted in a
    /// stable directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Testing/operations hook: stop the run after this superstep
    /// completes (0-based), returning
    /// [`crate::checkpoint::RunOutcome::Interrupted`] from `run_until`
    /// instead of driving to completion. `None` runs to completion.
    pub halt_after_superstep: Option<usize>,
    /// Deterministic fault-injection plan applied *beneath* the backend
    /// (see [`cgmio_pdm::fault`]). Synchronous backends are additionally
    /// wrapped in retry-with-backoff ([`Self::retry`]); the concurrent
    /// engine retries inside its drive workers per its own
    /// `opts.retry`. `None` (the default) adds no wrapper at all.
    pub fault: Option<FaultPlan>,
    /// Retry policy used for the `Mem`/`SyncFile` backends when
    /// [`Self::fault`] is set (ignored otherwise, and ignored by the
    /// `Concurrent` backend, which has its own `opts.retry`).
    pub retry: RetryPolicy,
    /// Optional observability handle (see `cgmio-obs`): runners publish
    /// per-phase spans into it, the storage stack registers per-drive
    /// metrics, and run reports carry its fault/retry totals.
    /// Instrumentation never changes simulation semantics or `IoStats`,
    /// and the field is deliberately **excluded from
    /// [`Self::config_hash`]** so checkpoints taken with observability
    /// on resume with it off (and vice versa).
    pub obs: Option<Obs>,
    /// Superstep software-pipeline depth: how many virtual processors
    /// ahead of the one currently computing have their context and inbox
    /// reads *pre-issued as demand reads* (not hints). `0` — the default
    /// — is the fully serial loop; `2` is a good starting point for the
    /// `Concurrent` backend (see the OPERATIONS depth-tuning guide).
    /// Synchronous backends accept any depth and simply perform the
    /// reads at wait time, so equivalence tests can sweep depths on
    /// every backend. The depth changes *when* I/O happens on the wall
    /// clock, never what the cost model counts: `IoStats`, op
    /// breakdowns, final states, and checkpoint manifests are
    /// bit-identical at every depth (property-tested in
    /// `tests/pipeline_equivalence.rs`), and the field is therefore —
    /// like [`Self::obs`] — **excluded from [`Self::config_hash`]**, so
    /// a checkpoint taken at one depth resumes at any other.
    pub pipeline_depth: usize,
}

impl EmConfig {
    /// A config sized from measured [`Requirements`]: slots exactly fit
    /// the measured maxima, and `M` is what a sequential processor
    /// holds — the working set `W` ([`Requirements::working_set`]) plus
    /// the reserve `R` of the context carries and the open-block pool
    /// ([`Requirements::pool_reserve`]).
    pub fn from_requirements(
        v: usize,
        p: usize,
        num_disks: usize,
        block_bytes: usize,
        req: &Requirements,
    ) -> Self {
        let working = req.working_set(num_disks, block_bytes);
        let mem_bytes = working + req.pool_reserve(v, p, num_disks, block_bytes);
        let max_ctx_bytes = req.max_ctx_bytes.max(8);
        // The smallest group whose contexts fill one D-wide stripe,
        // never more than the working set holds.
        let per_vp = req.max_ctx_bytes + req.max_proc_recv_bytes + req.max_proc_sent_bytes;
        let vp_group =
            (num_disks / max_ctx_bytes.div_ceil(block_bytes)).min(working / per_vp.max(1)).max(1);
        Self {
            v,
            p,
            num_disks,
            block_bytes,
            mem_bytes,
            msg_slot_items: req.max_msg_items.max(1),
            max_ctx_bytes,
            vp_group,
            strict: false,
            round_limit: cgmio_model::DEFAULT_ROUND_LIMIT,
            backend: BackendSpec::Mem,
            checkpoint_dir: None,
            halt_after_superstep: None,
            fault: None,
            retry: RetryPolicy::default(),
            obs: None,
            pipeline_depth: 0,
        }
    }

    /// Most blocks one context carry holds (`crate::context`): `D − 1`,
    /// or fewer when `M` leaves less room beyond one group's contexts at
    /// their slot size and one `D`-wide stripe, `max(k·μ, D·B)` —
    /// `⌊(M − max(k·μ, D·B)) / 2B⌋`, for the write carry and the read
    /// fill together. Fixed for the run by the config alone, so a
    /// machine from [`Self::from_requirements`], whose `M` holds their
    /// room `S = 2·(D − 1)·B` beyond `W ≥ max(k·μ, D·B)`, carries
    /// `D − 1`; a hand-set `M` too small for `S` carries less, down to
    /// nothing.
    pub fn carry_blocks(&self) -> usize {
        let floor = (self.vp_group.saturating_mul(self.max_ctx_bytes))
            .max(self.num_disks * self.block_bytes);
        let room = self.mem_bytes.saturating_sub(floor) / (2 * self.block_bytes).max(1);
        room.min(self.num_disks.saturating_sub(1))
    }

    /// Hash of the fields that determine the on-disk layout and the
    /// simulation semantics (`v`, `p`, `D`, `B`, slot sizes, group
    /// size, `M`) and of [`LAYOUT_VERSION`]. Extended by the program's
    /// message width ([`Self::run_hash`]) it is stored in checkpoint
    /// manifests; `resume_from` refuses a manifest whose hash differs —
    /// resuming under a different layout would silently read the wrong
    /// tracks.
    pub fn config_hash(&self) -> u64 {
        fnv1a(
            0xCBF2_9CE4_8422_2325,
            [
                LAYOUT_VERSION,
                self.vp_group as u64,
                self.v as u64,
                self.p as u64,
                self.num_disks as u64,
                self.block_bytes as u64,
                self.msg_slot_items as u64,
                self.max_ctx_bytes as u64,
                self.mem_bytes as u64,
            ],
        )
    }

    /// The hash a run of a program whose messages are `msg_bytes` wide
    /// writes into its manifests and demands of one it resumes:
    /// [`Self::config_hash`] continued over `msg_bytes`. Slot sizes
    /// count items, so the mailbox bands and their decoding depend on
    /// the frame width too.
    pub fn run_hash(&self, msg_bytes: usize) -> u64 {
        fnv1a(self.config_hash(), [msg_bytes as u64])
    }

    /// Build the disk array of real processor `worker_idx` according to
    /// [`Self::backend`], bundled with the observability handles the
    /// runners thread into run reports (see [`DiskHandles`]). File
    /// backends get a per-processor subdirectory `p{worker_idx}` so the
    /// `p` arrays never share files.
    pub fn build_disks(&self, worker_idx: usize) -> Result<DiskHandles, EmError> {
        let geom = self.geometry();
        let retries = match &self.obs {
            Some(o) => {
                o.metrics().counter("cgmio_io_retries_total", &[("proc", worker_idx.to_string())])
            }
            None => Counter::detached(),
        };
        // Deterministic injection must differ per worker or every real
        // processor would fault on the same (disk, op) pairs. Always
        // keep a handle on the injector's counters (attaching one when
        // the plan has no observer) so reports can surface them.
        let mut faults: Option<Arc<FaultStats>> = None;
        let plan = self.fault.clone().map(|mut p| {
            p.seed = p.seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(worker_idx as u64));
            faults = Some(Arc::clone(p.observer.get_or_insert_with(Default::default)));
            p
        });
        // Mem/SyncFile: inner -> FaultInjector -> RetryStorage.
        let wrap_sync = |inner: Box<dyn TrackStorage>, retries: Counter| -> Box<dyn TrackStorage> {
            match &plan {
                Some(p) => Box::new(RetryStorage::with_counter(
                    FaultInjector::new(inner, geom.num_disks, p.clone()),
                    self.retry,
                    retries,
                )),
                None => inner,
            }
        };
        match &self.backend {
            BackendSpec::Mem => {
                let storage = wrap_sync(Box::new(MemStorage::new(geom)), retries.clone());
                Ok(DiskHandles {
                    disks: DiskArray::with_storage(geom, storage),
                    trace: None,
                    retries,
                    faults,
                    deferred_drops: Counter::detached(),
                    hint_cache: false,
                })
            }
            BackendSpec::SyncFile { dir } => {
                let fs = FileStorage::open(&dir.join(format!("p{worker_idx}")), geom)
                    .map_err(|e| EmError::BadConfig(format!("opening file backend: {e}")))?;
                let storage = wrap_sync(Box::new(fs), retries.clone());
                Ok(DiskHandles {
                    disks: DiskArray::with_storage(geom, storage),
                    trace: None,
                    retries,
                    faults,
                    deferred_drops: Counter::detached(),
                    hint_cache: false,
                })
            }
            BackendSpec::Concurrent { dir, opts } => {
                let mut opts = opts.clone();
                opts.proc = worker_idx;
                opts.obs = self.obs.clone();
                // Faults are injected beneath the engine; its drive
                // workers retry per opts.retry, so no RetryStorage here.
                // With a plan active, prefetch hints are discarded so
                // fault rolls bind to demand accesses only — hint
                // traffic varies with pipeline depth and cache
                // pressure, and must not perturb the deterministic
                // fault/retry totals.
                if plan.is_some() {
                    opts.ignore_hints = true;
                }
                let inner: Arc<dyn TrackStorage> = match dir {
                    Some(d) => {
                        let fs = FileStorage::open(&d.join(format!("p{worker_idx}")), geom)
                            .map_err(|e| {
                                EmError::BadConfig(format!("opening concurrent backend: {e}"))
                            })?;
                        match &plan {
                            Some(p) => Arc::new(FaultInjector::new(fs, geom.num_disks, p.clone())),
                            None => Arc::new(fs),
                        }
                    }
                    None => {
                        let mem = MemStorage::new(geom);
                        match &plan {
                            Some(p) => Arc::new(FaultInjector::new(mem, geom.num_disks, p.clone())),
                            None => Arc::new(mem),
                        }
                    }
                };
                let storage = ConcurrentStorage::new(inner, geom.num_disks, opts);
                let trace = storage.trace_handle();
                // The engine counts retries inside its drive workers;
                // report through its counter (same registry series as
                // the sync path when `obs` is attached).
                let retries = storage.retry_counter();
                let deferred_drops = storage.deferred_drop_counter();
                Ok(DiskHandles {
                    disks: DiskArray::with_storage(geom, Box::new(storage)),
                    trace,
                    retries,
                    faults,
                    deferred_drops,
                    hint_cache: true,
                })
            }
            BackendSpec::AsyncFile { dir, opts } => {
                let mut opts = opts.clone();
                opts.proc = worker_idx;
                opts.obs = self.obs.clone();
                let worker_dir = dir.join(format!("p{worker_idx}"));
                // Faults go beneath the engine, which then services
                // ops per track in queue order (the layered device): the
                // injector sees the same per-drive demand sequence as
                // under the other backends, keeping fault/retry totals
                // deterministic. Without a plan the workers own the
                // drive files directly and coalesce for real.
                let storage = match &plan {
                    Some(p) => {
                        let fs = FileStorage::open(&worker_dir, geom).map_err(|e| {
                            EmError::BadConfig(format!("opening async backend: {e}"))
                        })?;
                        AsyncFileStorage::over(
                            Arc::new(FaultInjector::new(fs, geom.num_disks, p.clone())),
                            geom.num_disks,
                            opts,
                        )
                    }
                    None => AsyncFileStorage::open_dir(&worker_dir, geom, opts)
                        .map_err(|e| EmError::BadConfig(format!("opening async backend: {e}")))?,
                };
                let trace = storage.trace_handle();
                let retries = storage.retry_counter();
                let deferred_drops = storage.deferred_drop_counter();
                Ok(DiskHandles {
                    disks: DiskArray::with_storage(geom, Box::new(storage)),
                    trace,
                    retries,
                    faults,
                    deferred_drops,
                    // Hints are ignored on this backend.
                    hint_cache: false,
                })
            }
            BackendSpec::Shared { storage, base_track, worker_span_tracks } => {
                // Each real processor gets its own disjoint window of
                // the reservation; the fault/retry wrappers compose
                // above the window exactly as they do above Mem.
                let base = base_track + *worker_span_tracks * worker_idx as u64;
                let window = TrackRange::new(Arc::clone(storage), base, *worker_span_tracks);
                let storage = wrap_sync(Box::new(window), retries.clone());
                Ok(DiskHandles {
                    disks: DiskArray::with_storage(geom, storage),
                    trace: None,
                    retries,
                    faults,
                    deferred_drops: Counter::detached(),
                    hint_cache: false,
                })
            }
        }
    }

    /// Per-drive tracks one real processor of this machine needs for a
    /// program whose messages are items of `msg_item_bytes` bytes — the
    /// context store plus the two ping-pong message matrices, exactly as
    /// the runners lay them out (address space: only tracks written take
    /// memory or file blocks). This is the `worker_span_tracks` to
    /// reserve per worker for [`BackendSpec::Shared`] (a run with `p`
    /// workers needs `p` consecutive spans).
    pub fn tracks_per_worker(&self, msg_item_bytes: usize) -> u64 {
        // Workers split the v virtual processors into contiguous ranges
        // of at most ceil(v/p); span for the largest range bounds all.
        let n_local = self.v.div_ceil(self.p) as u64;
        let (bb, d) = (self.block_bytes as u64, self.num_disks as u64);
        // ContextStore: n_local slots of ceil(max_ctx_bytes/B) blocks,
        // consecutive format, one slack track.
        let ctx_slot_blocks = (self.max_ctx_bytes as u64).div_ceil(bb).max(1);
        let ctx_tracks = (n_local * ctx_slot_blocks).div_ceil(d) + 1;
        // MessageMatrix: one mailbox band per local destination.
        let (slot, v) = (self.msg_slot_items, self.v);
        let band = msgmatrix::band_blocks(self.block_bytes, v, slot, msg_item_bytes);
        ctx_tracks + 2 * msgmatrix::band_tracks(self.num_disks, band) * n_local
    }

    /// Disk geometry of each real processor's array.
    pub fn geometry(&self) -> DiskGeometry {
        DiskGeometry::new(self.num_disks, self.block_bytes)
    }

    /// Block size in items of `item_bytes` each (rounded down; the
    /// engine packs bytes, so no alignment is required — this is for
    /// parameter checks only).
    pub fn block_items(&self, item_bytes: usize) -> usize {
        (self.block_bytes / item_bytes).max(1)
    }

    /// Sanity-check structural fields.
    pub fn validate(&self) -> Result<(), EmError> {
        if self.v == 0 {
            return Err(EmError::BadConfig("v must be positive".into()));
        }
        if self.p == 0 || self.p > self.v {
            return Err(EmError::BadConfig(format!(
                "need 1 <= p <= v, got p={} v={}",
                self.p, self.v
            )));
        }
        if self.num_disks == 0 {
            return Err(EmError::BadConfig("num_disks must be positive".into()));
        }
        if self.block_bytes == 0 {
            return Err(EmError::BadConfig("block_bytes must be positive".into()));
        }
        if self.msg_slot_items == 0 {
            return Err(EmError::BadConfig("msg_slot_items must be positive".into()));
        }
        if self.max_ctx_bytes == 0 {
            return Err(EmError::BadConfig("max_ctx_bytes must be positive".into()));
        }
        if self.vp_group == 0 {
            return Err(EmError::BadConfig("vp_group must be positive".into()));
        }
        // PDM requires M >= D*B (one block from each disk in memory).
        if self.mem_bytes < self.num_disks * self.block_bytes {
            return Err(EmError::BadConfig(format!(
                "M = {} bytes < D*B = {} bytes",
                self.mem_bytes,
                self.num_disks * self.block_bytes
            )));
        }
        Ok(())
    }

    /// Evaluate the paper's parameter conditions for a problem of
    /// `n_items` items of `item_bytes` bytes each.
    pub fn check_params(&self, n_items: u64, item_bytes: usize) -> ParamCheck {
        let v = self.v as u64;
        let d = self.num_disks as u64;
        let b_items = self.block_items(item_bytes) as u64;
        ParamCheck {
            n_ge_vdb: n_items >= v * d * b_items,
            lemma2: cgmio_routing::lemma2_feasible(n_items, v, b_items),
            b_le_n_over_v2: b_items <= (n_items / (v * v)).max(1),
            m_ge_n_over_v: self.mem_bytes as u64 >= n_items * item_bytes as u64 / v,
        }
    }
}

/// Which of the paper's parameter conditions hold for a given run.
///
/// These are the premises of Theorems 2 and 3; the engine runs correctly
/// regardless, but the `O(N/(pDB))` I/O bound is only promised when all
/// hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamCheck {
    /// `N = Ω(vDB)`: enough data to keep all disks of all virtual
    /// processors busy.
    pub n_ge_vdb: bool,
    /// Lemma 2: `N ≥ v²B + v²(v−1)/2`, so balancing can guarantee
    /// block-sized minimum messages.
    pub lemma2: bool,
    /// `B = O(N/v²)`: a block is no larger than a balanced message.
    pub b_le_n_over_v2: bool,
    /// `M = Ω(N/v)`: one virtual processor's context fits in memory.
    pub m_ge_n_over_v: bool,
}

impl ParamCheck {
    /// All conditions hold.
    pub fn all_ok(&self) -> bool {
        self.n_ge_vdb && self.lemma2 && self.b_le_n_over_v2 && self.m_ge_n_over_v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> EmConfig {
        EmConfig {
            v: 8,
            p: 2,
            num_disks: 2,
            block_bytes: 64,
            mem_bytes: 1 << 20,
            msg_slot_items: 32,
            max_ctx_bytes: 4096,
            vp_group: 1,
            strict: false,
            round_limit: 100,
            backend: BackendSpec::Mem,
            checkpoint_dir: None,
            halt_after_superstep: None,
            fault: None,
            retry: RetryPolicy::default(),
            obs: None,
            pipeline_depth: 0,
        }
    }

    #[test]
    fn valid_config_passes() {
        base().validate().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let mut c = base();
        c.p = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.p = 9;
        assert!(c.validate().is_err());
        let mut c = base();
        c.mem_bytes = 10;
        assert!(c.validate().is_err());
        let mut c = base();
        c.msg_slot_items = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.vp_group = 0;
        assert!(c.validate().is_err());
        let mut c = base();
        c.num_disks = 0;
        assert!(matches!(c.validate(), Err(EmError::BadConfig(m)) if m.contains("num_disks")));
        let mut c = base();
        c.block_bytes = 0;
        assert!(matches!(c.validate(), Err(EmError::BadConfig(m)) if m.contains("block_bytes")));
    }

    #[test]
    fn param_check_thresholds() {
        let c = base();
        // item = 8 bytes -> B = 8 items; v = 8, D = 2 -> vDB = 128 items
        let chk = c.check_params(128, 8);
        assert!(chk.n_ge_vdb);
        let chk = c.check_params(127, 8);
        assert!(!chk.n_ge_vdb);
        // Lemma 2: v^2*B + v^2(v-1)/2 = 64*8 + 64*3.5 = 512 + 224 = 736
        assert!(c.check_params(736, 8).lemma2);
        assert!(!c.check_params(735, 8).lemma2);
    }

    #[test]
    fn tracks_per_worker_matches_runner_layout() {
        use crate::context::ContextStore;
        use crate::msgmatrix::MessageMatrix;
        for (v, p) in [(8usize, 1usize), (8, 2), (7, 3), (16, 4)] {
            let mut c = base();
            c.v = v;
            c.p = p;
            let n_local = v.div_ceil(p);
            let ctx = ContextStore::new(c.num_disks, c.block_bytes, 0, n_local, c.max_ctx_bytes);
            let mat = MessageMatrix::<u64>::new(
                c.num_disks,
                c.block_bytes,
                0,
                v,
                0,
                n_local,
                c.msg_slot_items,
            );
            assert_eq!(
                c.tracks_per_worker(8),
                ctx.total_tracks() + 2 * mat.total_tracks(),
                "span formula drifted from the runners' layout (v={v} p={p})"
            );
        }
    }

    #[test]
    fn shared_backend_windows_are_disjoint_per_worker() {
        let pool: Arc<dyn TrackStorage> = Arc::new(MemStorage::new(DiskGeometry::new(2, 64)));
        let mut c = base();
        c.backend = BackendSpec::Shared {
            storage: Arc::clone(&pool),
            base_track: 5,
            worker_span_tracks: 10,
        };
        let mut h0 = c.build_disks(0).unwrap();
        let mut h1 = c.build_disks(1).unwrap();
        let addr = cgmio_pdm::TrackAddr::new(0, 0);
        h0.disks.write_fifo(&[cgmio_pdm::IoRequest { addr, data: vec![1u8] }]).unwrap();
        h1.disks.write_fifo(&[cgmio_pdm::IoRequest { addr, data: vec![2u8] }]).unwrap();
        // Worker windows land at base + t*span on the shared pool.
        assert_eq!(pool.read_track(0, 5).unwrap()[0], 1);
        assert_eq!(pool.read_track(0, 15).unwrap()[0], 2);
        // Debug impl elides the trait object but shows the window.
        let dbg = format!("{:?}", c.backend);
        assert!(dbg.contains("Shared") && dbg.contains("base_track: 5"), "{dbg}");
    }

    #[test]
    fn block_items_rounds_down() {
        let c = base();
        assert_eq!(c.block_items(8), 8);
        assert_eq!(c.block_items(24), 2);
        assert_eq!(c.block_items(1000), 1);
    }
}
