//! Common vocabulary types for the SILO simulation workspace.
//!
//! This crate defines the newtypes shared by every other crate in the
//! reproduction of *"Farewell My Shared LLC! A Case for Private Die-Stacked
//! DRAM Caches for Servers"* (MICRO'18): physical addresses, cache-line
//! addresses, core identifiers, cycle counts, byte sizes, and the memory
//! reference record exchanged between the workload generators and the
//! timing simulator.
//!
//! # Examples
//!
//! ```
//! use silo_types::{Address, ByteSize, CoreId, LINE_SIZE};
//!
//! let addr = Address::new(0x1234_5678);
//! let line = addr.line();
//! assert_eq!(line.base_address().as_u64() % LINE_SIZE as u64, 0);
//! assert_eq!(ByteSize::from_mib(8).as_bytes(), 8 * 1024 * 1024);
//! assert_eq!(CoreId::new(3).as_usize(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod hash;
pub mod sha;
pub mod stats;

use std::fmt;

/// The workspace version, shared by every crate (they all inherit
/// `workspace.package.version`). Surfaced as `silo-sim --version`, the
/// daemon's `Server:` header, and the `/status` endpoint — the single
/// source of truth instead of scattered literals.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Size of a cache line in bytes (64B throughout the paper, Table II).
pub const LINE_SIZE: usize = 64;

/// log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// A physical byte address in the simulated machine.
///
/// Addresses are plain 64-bit values; the workload generators carve the
/// address space into disjoint regions using the high bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw 64-bit value.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({:#x})", self.0)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

/// A cache-line address: a byte address shifted right by [`LINE_SHIFT`].
///
/// All caches, directories and coherence machinery operate on line
/// addresses; byte offsets within a line never matter to the timing model.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Returns the raw line number.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the line.
    #[inline]
    pub const fn base_address(self) -> Address {
        Address(self.0 << LINE_SHIFT)
    }

    /// Returns the page number of this line for the given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is smaller than a line or not a power of two.
    #[inline]
    pub fn page(self, page_bytes: usize) -> u64 {
        assert!(
            page_bytes >= LINE_SIZE && page_bytes.is_power_of_two(),
            "page size must be a power of two of at least one line"
        );
        let lines_per_page = (page_bytes / LINE_SIZE) as u64;
        self.0 / lines_per_page
    }

    /// Deterministically scrambles the line address for interleaving
    /// decisions, decorrelating home-node selection from low-order
    /// allocation patterns.
    #[inline]
    pub fn scramble(self) -> u64 {
        // SplitMix64 finalizer: a fixed, high-quality 64-bit mix.
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Address> for LineAddr {
    fn from(addr: Address) -> Self {
        addr.line()
    }
}

/// Identifier of a processor core (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core id.
    #[inline]
    pub const fn new(id: usize) -> Self {
        CoreId(id as u16)
    }

    /// Returns the id as a usize (for indexing per-core state).
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(id: usize) -> Self {
        CoreId::new(id)
    }
}

/// A duration or point in time measured in CPU clock cycles.
///
/// The simulated machine runs at a fixed 2.0 GHz (Table II), so one cycle
/// is 0.5 ns.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Returns the raw count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Converts a duration in nanoseconds to cycles at the given core
    /// frequency in GHz, rounding to the nearest cycle.
    #[inline]
    pub fn from_ns(ns: f64, ghz: f64) -> Self {
        Cycles((ns * ghz).round() as u64)
    }

    /// Converts this cycle count back to nanoseconds at `ghz`.
    #[inline]
    pub fn as_ns(self, ghz: f64) -> f64 {
        self.0 as f64 / ghz
    }

    /// Returns the larger of two cycle counts.
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

impl std::ops::Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl std::ops::Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl std::iter::Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

/// A storage size in bytes with convenient MiB/GiB constructors.
///
/// Used for cache capacities, working-set sizes and DRAM geometry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from a raw byte count.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteSize(bytes)
    }

    /// Creates a size from kibibytes.
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        ByteSize(kib * 1024)
    }

    /// Creates a size from mebibytes.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        ByteSize(mib * 1024 * 1024)
    }

    /// Creates a size from gibibytes.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        ByteSize(gib * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Returns the size in mebibytes as a float.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Returns the number of 64-byte cache lines this size holds.
    #[inline]
    pub const fn lines(self) -> u64 {
        self.0 / LINE_SIZE as u64
    }

    /// Divides the size by an integer factor (used by the capacity-scaling
    /// knob of the simulator), flooring at one cache line.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[inline]
    pub fn scaled_down(self, factor: u64) -> ByteSize {
        assert!(factor > 0, "scale factor must be positive");
        ByteSize((self.0 / factor).max(LINE_SIZE as u64))
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 && b % (1 << 30) == 0 {
            write!(f, "{}GiB", b >> 30)
        } else if b >= 1 << 20 && b % (1 << 20) == 0 {
            write!(f, "{}MiB", b >> 20)
        } else if b >= 1 << 10 && b % (1 << 10) == 0 {
            write!(f, "{}KiB", b >> 10)
        } else {
            write!(f, "{}B", b)
        }
    }
}

/// The kind of a memory reference issued by a core.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Instruction fetch (misses in the L1-I).
    IFetch,
    /// Data load.
    Read,
    /// Data store.
    Write,
}

impl AccessKind {
    /// True for stores.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// True for instruction fetches.
    #[inline]
    pub const fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::IFetch)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::IFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(s)
    }
}

/// One memory reference produced by a workload generator.
///
/// `gap_instructions` is the number of instructions retired between the
/// previous reference from this core and this one; the core model converts
/// it to compute cycles via the workload's base CPI.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemRef {
    /// Line touched by the reference.
    pub line: LineAddr,
    /// Load / store / instruction fetch.
    pub kind: AccessKind,
    /// Instructions retired since the previous reference.
    pub gap_instructions: u32,
    /// True if this reference depends on the previous in-flight miss
    /// (pointer-chasing behaviour; serialises misses).
    pub dependent: bool,
}

impl MemRef {
    /// Convenience constructor for an independent data read with no
    /// preceding compute gap; useful in tests.
    pub fn read(line: LineAddr) -> Self {
        MemRef {
            line,
            kind: AccessKind::Read,
            gap_instructions: 0,
            dependent: false,
        }
    }

    /// Convenience constructor for an independent data write with no
    /// preceding compute gap; useful in tests.
    pub fn write(line: LineAddr) -> Self {
        MemRef {
            line,
            kind: AccessKind::Write,
            gap_instructions: 0,
            dependent: false,
        }
    }
}

/// Geometric mean of a slice of positive values.
///
/// Used throughout the evaluation to aggregate normalized performance, as
/// the paper does ("geomean of scale-out workloads").
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Writes `s` into `out` escaped for a JSON string literal (quotes not
/// included): the one escaper behind the simulator's JSON writer, the
/// span-trace and log exporters, and the daemon's hand-built bodies.
///
/// # Errors
///
/// Propagates `out`'s write errors; writing into a `String` never fails.
pub fn write_json_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    // Every escaped character is ASCII, so byte offsets before and after
    // one are char boundaries and the plain runs between them can be
    // copied as whole slices.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&s[plain..i])?;
        plain = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[plain..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        let esc = |s: &str| {
            let mut out = String::new();
            write_json_escaped(&mut out, s).expect("writing to a String cannot fail");
            out
        };
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        assert_eq!(esc("\r\t\u{1f}"), "\\r\\t\\u001f");
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("naïve → \"ok\""), "naïve → \\\"ok\\\"");
        assert_eq!(esc(""), "");
    }

    #[test]
    fn address_line_roundtrip() {
        let a = Address::new(0xdead_beef);
        let l = a.line();
        assert_eq!(l.as_u64(), 0xdead_beef >> LINE_SHIFT);
        assert_eq!(l.base_address().as_u64(), (0xdead_beef >> 6) << 6);
    }

    #[test]
    fn line_page_mapping() {
        let l = LineAddr::new(100);
        // 4 KiB page = 64 lines.
        assert_eq!(l.page(4096), 1);
        assert_eq!(LineAddr::new(63).page(4096), 0);
        assert_eq!(LineAddr::new(64).page(4096), 1);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn line_page_rejects_non_power_of_two() {
        LineAddr::new(0).page(3000);
    }

    #[test]
    fn scramble_is_deterministic_and_spreads() {
        let a = LineAddr::new(1).scramble();
        let b = LineAddr::new(2).scramble();
        assert_eq!(a, LineAddr::new(1).scramble());
        assert_ne!(a, b);
        // Consecutive lines should spread over 16 buckets.
        let mut buckets = [0u32; 16];
        for i in 0..1600 {
            buckets[(LineAddr::new(i).scramble() % 16) as usize] += 1;
        }
        for &b in &buckets {
            assert!(b > 50, "bucket underpopulated: {buckets:?}");
        }
    }

    #[test]
    fn cycles_ns_conversion() {
        // 50 ns at 2 GHz = 100 cycles.
        assert_eq!(Cycles::from_ns(50.0, 2.0), Cycles(100));
        assert_eq!(Cycles(100).as_ns(2.0), 50.0);
    }

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(10) - Cycles(4), Cycles(6));
        assert_eq!(Cycles(3) * 4, Cycles(12));
        assert_eq!(Cycles(3).max(Cycles(9)), Cycles(9));
        assert_eq!(Cycles(3).saturating_sub(Cycles(9)), Cycles(0));
        let s: Cycles = [Cycles(1), Cycles(2)].into_iter().sum();
        assert_eq!(s, Cycles(3));
    }

    #[test]
    fn bytesize_constructors() {
        assert_eq!(ByteSize::from_kib(64).as_bytes(), 65536);
        assert_eq!(ByteSize::from_mib(8).lines(), 8 * 1024 * 1024 / 64);
        assert_eq!(ByteSize::from_gib(1).as_mib(), 1024.0);
        assert_eq!(format!("{}", ByteSize::from_mib(256)), "256MiB");
        assert_eq!(format!("{}", ByteSize::from_gib(8)), "8GiB");
        assert_eq!(format!("{}", ByteSize::from_bytes(100)), "100B");
    }

    #[test]
    fn bytesize_scaling_floors_at_one_line() {
        assert_eq!(
            ByteSize::from_mib(256).scaled_down(64),
            ByteSize::from_mib(4)
        );
        assert_eq!(
            ByteSize::from_bytes(64).scaled_down(1000),
            ByteSize::from_bytes(64)
        );
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[1.05, 1.54, 1.37, 1.29, 1.2]);
        assert!(g > 1.2 && g < 1.4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::IFetch.is_ifetch());
        assert_eq!(AccessKind::Read.to_string(), "read");
    }

    #[test]
    fn memref_constructors() {
        let r = MemRef::read(LineAddr::new(7));
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.dependent);
        let w = MemRef::write(LineAddr::new(7));
        assert!(w.kind.is_write());
    }
}
