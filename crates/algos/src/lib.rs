//! # cgmio-algos — the CGM algorithm catalogue
//!
//! Implementations of the CGM algorithms whose EM-CGM simulations make up
//! the paper's Figure 5, each as a [`cgmio_model::CgmProgram`] that runs
//! unmodified on the in-memory runners *and* on the external-memory
//! simulation engines of `cgmio-core`:
//!
//! * **Group A** (O(1) rounds, `O(N/(pDB))` I/Os): [`sort::CgmSort`]
//!   (deterministic sorting by regular sampling; [`sort::BalancedSort`]
//!   adds an exactly block-distributed output), [`permute::CgmPermute`]
//!   (the paper's Algorithm 4), [`transpose::CgmTranspose`].
//! * **Group B** (geometry / GIS): convex hull, 3D maxima, union of
//!   rectangles, nearest neighbours, lower envelope, dominance counting,
//!   separability, segment tree / batched point location, trapezoidal
//!   decomposition, triangulation, Delaunay (probabilistic).
//! * **Group C** (O(log v) rounds): list ranking, Euler tour, tree
//!   depth/LCA, tree contraction & expression evaluation, connected
//!   components, spanning forest, biconnected components, open ear
//!   decomposition.

#![warn(missing_docs)]

pub mod geometry;
pub mod graphs;
pub mod permute;
pub mod sort;
pub mod transpose;

pub use permute::{CgmPermute, PermuteState};
pub use sort::{BalancedSort, CgmSort, SortKey, SortMsg, SortState};
pub use transpose::{CgmTranspose, TransposeState};
