//! Cache array structures for the SILO simulator.
//!
//! Provides the storage-side building blocks used by every evaluated
//! system (Sec. V-A, Table II):
//!
//! * [`SetAssocCache`] — a set-associative cache array with pluggable
//!   replacement, used for L1s, private L2s and the shared NUCA
//!   SRAM/eDRAM LLCs.
//! * [`PageCache`] — a page-based conventional DRAM cache, the paper's
//!   `Baseline+DRAM$`. No registered system uses it.
//! * [`MissMap`] — a page-granular presence map modelling a local-vault
//!   miss predictor (Sec. V-C), exact or bounded. No registered system
//!   uses it: SILO's ideal predictor is the `ideal_miss_predict` flag of
//!   `PrivateMoesiConfig`.
//!
//! Caches here are *functional*: they track contents and produce
//! hit/miss/eviction outcomes. All timing lives in `silo-sim`.

// Policy: unsafe is denied workspace-wide (every other crate is
// `forbid`); the single exception is the `_mm_prefetch` host-cache
// hint in [`prefetch`], which carries its own `#[allow]` + SAFETY note
// and is compiled out under Miri.
#![deny(unsafe_code)]

pub mod missmap;
pub mod page;
pub mod set_assoc;

pub use missmap::MissMap;
pub use page::PageCache;
pub use set_assoc::{EvictionVictim, ReplacementPolicy, SetAssocCache};

/// Hints the host CPU to pull the cache line holding `value` into its
/// caches ahead of an upcoming read: the engines' prefetch hints, one
/// round-robin turn ahead. It reads and writes nothing, so it can never
/// change simulation results. A no-op off x86-64 and under Miri (which
/// does not model the intrinsic).
#[inline]
#[allow(unsafe_code)] // the crate-level deny's single exception
pub fn prefetch<T>(value: &T) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    // SAFETY: the pointer comes from a live reference, and a prefetch
    // hint cannot fault or write.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            (value as *const T).cast::<i8>(),
        );
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = value;
}
