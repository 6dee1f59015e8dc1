//! Cross-crate integration tests: protocol sequences through the real
//! engines, consistency between the two systems, and a small end-to-end
//! timing run.

use silo_coherence::{
    PrivateMoesi, PrivateMoesiConfig, ServedBy, SharedMesi, SharedMesiConfig, State,
};
mod common;

use common::run_builtin;
use silo_sim::{Rng, SystemConfig, WorkloadSpec};
use silo_types::{LineAddr, MemRef};

fn silo_engine(cores: usize) -> PrivateMoesi {
    PrivateMoesi::new(
        cores,
        &PrivateMoesiConfig {
            scale: 64,
            ..PrivateMoesiConfig::default()
        },
    )
}

fn baseline_engine(cores: usize) -> SharedMesi {
    SharedMesi::new(
        cores,
        &SharedMesiConfig {
            scale: 64,
            ..SharedMesiConfig::default()
        },
    )
}

/// The ISSUE's canonical sequence: a read-share phase followed by a
/// write-invalidate, with every step's `ServedBy` classification checked.
#[test]
fn read_share_then_write_invalidate_classifications() {
    let mut p = silo_engine(4);
    let line = LineAddr::new(0xabcd);

    // Cold read: memory, installed E in core 0's vault.
    let r = p.access(0, MemRef::read(line));
    assert_eq!(r.served_by(), ServedBy::Memory);

    // Read-share: cores 1 and 2 pull the line from core 0's vault.
    let r = p.access(1, MemRef::read(line));
    assert_eq!(r.served_by(), ServedBy::RemoteVault);
    let r = p.access(2, MemRef::read(line));
    assert_eq!(r.served_by(), ServedBy::RemoteVault);

    // Re-reads are SRAM hits.
    let r = p.access(1, MemRef::read(line));
    assert_eq!(r.served_by(), ServedBy::L1);

    // Write-invalidate: core 3 takes M, everyone else drops to I.
    let r = p.access(3, MemRef::write(line));
    assert_eq!(r.served_by(), ServedBy::RemoteVault);
    for core in 0..3 {
        assert_eq!(p.vault_state(core, line), State::I);
    }
    assert_eq!(p.vault_state(3, line), State::M);

    // The invalidated sharers must re-fetch — from core 3's dirty copy,
    // which moves to O without a memory writeback.
    let r = p.access(0, MemRef::read(line));
    assert_eq!(r.served_by(), ServedBy::RemoteVault);
    assert_eq!(p.vault_state(3, line), State::O);

    // Core 3 still answers from its SRAM afterwards.
    let r = p.access(3, MemRef::read(line));
    assert_eq!(r.served_by(), ServedBy::L1);

    p.check().expect("MOESI invariants hold");
}

/// The same trace through both engines produces identical `llc_access`
/// counts. The SRAM hierarchies are configured identically, so the
/// engines must agree on which references escape the SRAM levels —
/// provided the trace avoids the two *legitimate* divergence sources
/// between the systems: direct-mapped vault conflict evictions (which
/// recall SRAM lines in SILO only; the footprint here stays under the
/// vault-set count) and writes to L1-evicted shared lines (SILO's
/// vault-level directory still sees sharers where the baseline's
/// L1-level directory re-grants E, so one system upgrades and the other
/// doesn't). The shared slice is read-only, matching the paper's
/// read-mostly sharing profile (Fig. 4).
#[test]
fn both_engines_agree_on_llc_access_counts() {
    let cores = 4;
    let mut moesi = silo_engine(cores);
    let mut mesi = baseline_engine(cores);

    // Lines 0..2048 all map to distinct sets of the 65536-set scaled
    // vault: no vault evictions, while the 16-line scaled L1s thrash
    // constantly.
    let mut rng = Rng::new(0xfeed);
    let mut moesi_llc = 0u64;
    let mut mesi_llc = 0u64;
    let mut checked = 0u64;
    for _ in 0..12_000 {
        let core = (rng.below(cores as u64)) as usize;
        let (line, shared) = if rng.chance(0.3) {
            (LineAddr::new(1600 + rng.below(448)), true) // shared slice
        } else {
            (LineAddr::new(core as u64 * 400 + rng.below(400)), false)
        };
        let mr = if !shared && rng.chance(0.2) {
            MemRef::write(line)
        } else {
            MemRef::read(line)
        };
        let a = moesi.access(core, mr);
        let b = mesi.access(core, mr);
        if a.llc_access {
            moesi_llc += 1;
        }
        if b.llc_access {
            mesi_llc += 1;
        }
        checked += 1;
        assert_eq!(
            a.llc_access,
            b.llc_access,
            "engines diverged at access {checked} ({line}, write={})",
            mr.kind.is_write()
        );
    }
    assert!(moesi_llc > 1_000, "trace must stress the LLC level");
    assert_eq!(moesi_llc, mesi_llc);
    moesi.check().expect("MOESI invariants hold");
    mesi.check().expect("MESI invariants hold");
}

/// Full-stack acceptance run: a 16-core mesh, both systems, three
/// workloads; SILO serves a nonzero fraction from the local vault, wins
/// on throughput, and the whole pipeline is deterministic.
#[test]
fn end_to_end_sixteen_core_comparison() {
    let cfg = SystemConfig::paper_16core();
    for spec in [
        WorkloadSpec::uniform_private(),
        WorkloadSpec::zipf_shared(),
        WorkloadSpec::shared_mix(),
    ] {
        let spec = WorkloadSpec {
            refs_per_core: 2_000,
            ..spec
        };
        let silo = run_builtin("SILO", &cfg, &spec, 42);
        let base = run_builtin("baseline", &cfg, &spec, 42);
        assert!(
            silo.served.fraction(ServedBy::LocalVault) > 0.0,
            "{}: SILO must serve accesses from the local vault",
            spec.name
        );
        // Vault conflict evictions may recall a few SRAM lines in SILO,
        // so the counts match only approximately on random workloads.
        let diff = silo.llc_accesses.abs_diff(base.llc_accesses) as f64;
        assert!(
            diff / base.llc_accesses as f64 <= 0.01,
            "{}: LLC access counts diverged: {} vs {}",
            spec.name,
            silo.llc_accesses,
            base.llc_accesses
        );
        assert!(
            silo.ipc() > base.ipc(),
            "{}: SILO {} <= baseline {}",
            spec.name,
            silo.ipc(),
            base.ipc()
        );

        let again = run_builtin("SILO", &cfg, &spec, 42);
        assert_eq!(
            silo.cycles, again.cycles,
            "{}: nondeterministic run",
            spec.name
        );
    }
}
