//! cgmio-svc — a multi-tenant EM-CGM job service over one shared
//! disk-array pool.
//!
//! The rest of the workspace answers "how cheaply can *one* CGM
//! algorithm run from external memory?". This crate answers the
//! operational question that follows: how do *many* such jobs, from
//! different tenants, share one disk array safely and fairly — using
//! the paper's own cost model as the resource currency.
//!
//! The pipeline, in submission order:
//!
//! 1. **Spec** ([`JobSpec`]): what to run (workload, `n`, `v`, `B`),
//!    who is asking (tenant), how urgently ([`Priority`], deadline
//!    hint).
//! 2. **Pricing** ([`workload::prepare`]): an in-memory dry run
//!    measures `λ` and `μ`; Theorem 2's `λ·v·μ/(D·B)` prices the job
//!    in predicted parallel I/O operations, and the exact runner
//!    layout sizes its track reservation.
//! 3. **Admission** ([`AdmissionController`]): jobs priced above the
//!    whole budget are rejected; others queue until the in-flight
//!    reservation window has headroom.
//! 4. **Scheduling** ([`DrrScheduler`]): deficit round-robin over
//!    per-tenant FIFOs, quantum scaled by priority — a flooding tenant
//!    cannot starve a quiet one.
//! 5. **Dispatch** ([`JobService`]): a worker carves a private track
//!    window out of the shared pool, used as given
//!    ([`cgmio_core::BackendSpec::Shared`]), and runs the job; a
//!    finished job's window is discarded before reuse, so every job
//!    sees the moral equivalent of a fresh disk array and its results
//!    are bit-identical to a solo run.
//! 6. **Artifacts** ([`ArtifactStore`]): `spec.json`, `status.json`
//!    (`pending` → `running` → `done`/`failed`), and `report.json`
//!    written atomically under a per-job directory; a restarted service
//!    continues the ids and fails the jobs its predecessor left open.
//!
//! Per-tenant observability (job counters, queue-wait and latency
//! histograms, admission-reject counters, queue/in-flight gauges)
//! flows through [`cgmio_obs::Obs`] when one is attached.

#![deny(missing_docs)]

pub mod admission;
pub mod artifacts;
pub mod scheduler;
pub mod spec;
pub mod workload;

mod service;

pub use admission::{AdmissionController, RejectReason};
pub use artifacts::{ArtifactStore, JobState, JobStatus};
pub use scheduler::DrrScheduler;
pub use service::{JobRecord, JobService, ServiceConfig};
pub use spec::{JobId, JobSpec, Priority, WorkloadKind};
pub use workload::{hash_finals, prepare, JobOutcome, PreparedJob};
