//! Cache-coherence protocols for the SILO simulator.
//!
//! Two complete protocol engines (Sec. V-B):
//!
//! * [`PrivateMoesi`] — SILO's all-private hierarchy: per-core L1s (and
//!   optionally L2s) backed by a private, inclusive, direct-mapped DRAM
//!   cache vault, kept coherent by a directory-based MOESI protocol whose
//!   duplicate-tag directory metadata lives in the DRAM cache of an
//!   address-interleaved home node. The O state lets a dirty block be
//!   supplied core-to-core without a main-memory writeback.
//! * [`SharedMesi`] — the conventional baseline: per-core L1s (and
//!   optionally L2s) over a shared, banked, non-inclusive NUCA LLC with an
//!   embedded MESI directory tracking L1 copies.
//!
//! Engines are *functional + structural*: they own the cache arrays,
//! perform all state transitions, and emit a [`step::AccessResult`]
//! describing the critical-path protocol steps and background work of each
//! access. The timing simulator (`silo-sim`) assigns cycles to those steps
//! using the mesh, bank reservations, and system latencies.

#![forbid(unsafe_code)]

pub mod directory;
pub mod mesi;
pub mod moesi;
pub mod node;
pub mod state;
pub mod stats;
pub mod step;

pub use directory::{DirView, DuplicateTagDirectory};
pub use mesi::{SharedMesi, SharedMesiConfig};
pub use moesi::{PrivateMoesi, PrivateMoesiConfig};
pub use node::{Node, NodeSpec};
pub use state::State;
pub use stats::CoherenceStats;
pub use step::{AccessResult, Background, ServedBy, Step};
