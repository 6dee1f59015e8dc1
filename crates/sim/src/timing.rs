//! Cycle assignment for protocol steps.
//!
//! One [`TimingModel`] owns the contended resources of one simulated
//! machine: the mesh (`silo-noc`), the DRAM structures (`silo-dram`
//! next-free-time bank reservations for vaults and main memory), and the
//! baseline's SRAM LLC banks. [`TimingModel::charge`] walks an access's
//! critical-path steps in order — each step starts when the previous one
//! finished and may queue behind earlier traffic to the same bank — and
//! reserves the background work at the completion time without extending
//! the load-to-use latency.

use crate::config::SystemConfig;
use silo_coherence::{Background, Step};
use silo_dram::BankArray;
use silo_noc::{Mesh, NodeId};
use silo_types::{Cycles, LineAddr};

/// The priced resources of one system (SILO or baseline).
#[derive(Clone, Debug)]
pub struct TimingModel {
    mesh: Mesh,
    /// Per-node vault banks (SILO; also holds the distributed directory).
    vaults: Vec<BankArray>,
    /// Per-node LLC banks (baseline).
    llc: Vec<BankArray>,
    memory: BankArray,
    l1_probe: Cycles,
    vault_access: Cycles,
}

impl TimingModel {
    /// Resources for the SILO system: a mesh, one vault bank-array per
    /// node, and main memory. LLC steps are absent by construction.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent config; the builder API validates
    /// upstream and returns [`crate::ConfigError`] instead.
    pub fn silo(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid SystemConfig");
        TimingModel {
            mesh: Mesh::new(cfg.mesh_width, cfg.mesh_height, cfg.hop_cycles),
            vaults: (0..cfg.cores)
                .map(|_| BankArray::new(cfg.vault_banks, cfg.vault_access))
                .collect(),
            llc: Vec::new(),
            memory: BankArray::new(cfg.memory_banks, cfg.memory_access),
            l1_probe: cfg.l1_probe,
            vault_access: cfg.vault_access,
        }
    }

    /// Resources for the shared-LLC baseline: a mesh, one LLC bank per
    /// node, and main memory. Vault steps are absent by construction.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent config; the builder API validates
    /// upstream and returns [`crate::ConfigError`] instead.
    pub fn baseline(cfg: &SystemConfig) -> Self {
        cfg.validate().expect("invalid SystemConfig");
        TimingModel {
            mesh: Mesh::new(cfg.mesh_width, cfg.mesh_height, cfg.hop_cycles),
            vaults: Vec::new(),
            llc: (0..cfg.cores)
                .map(|_| BankArray::new(cfg.llc_sub_banks, cfg.llc_bank_access))
                .collect(),
            memory: BankArray::new(cfg.memory_banks, cfg.memory_access),
            l1_probe: cfg.l1_probe,
            vault_access: cfg.vault_access,
        }
    }

    /// The mesh (for traffic statistics).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Total busy cycles across all vault banks.
    pub fn vault_busy_cycles(&self) -> u64 {
        self.vaults.iter().map(BankArray::total_busy_cycles).sum()
    }

    /// Total vault banks across all nodes (zero for the baseline), the
    /// denominator of the telemetry occupancy metric.
    pub fn vault_banks_total(&self) -> u64 {
        self.vaults.iter().map(|v| v.len() as u64).sum()
    }

    /// Total accesses to main memory banks.
    pub fn memory_accesses(&self) -> u64 {
        self.memory.total_accesses()
    }

    /// Prices one access of `line` issued at `now`: charges every
    /// critical-path step in order and reserves the background work at
    /// the completion time. Returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if a step names a resource this system does not have (an
    /// engine/model mismatch).
    pub fn charge(
        &mut self,
        now: Cycles,
        line: LineAddr,
        steps: &[Step],
        background: &[Background],
    ) -> Cycles {
        let mut t = now;
        for step in steps {
            t = self.charge_step(t, line, step);
        }
        for bg in background {
            self.reserve_background(t, line, bg);
        }
        t
    }

    fn charge_step(&mut self, t: Cycles, line: LineAddr, step: &Step) -> Cycles {
        match *step {
            Step::Net { from, to } => t + self.mesh.send(NodeId(from), NodeId(to)),
            Step::VaultAccess { node } => self
                .vaults
                .get_mut(node)
                .expect("vault step in a system without vaults")
                .access(t, line),
            Step::LlcBank { bank } => self
                .llc
                .get_mut(bank)
                .expect("LLC step in a system without an LLC")
                .access(t, line),
            Step::L1Probe { .. } => t + self.l1_probe,
            Step::Invalidations { home, mask } => {
                // Parallel round: the farthest round trip plus one probe.
                // Bits past the last node name no node and are ignored.
                let nodes = self.mesh.nodes();
                let mut victims = if nodes >= 64 {
                    mask
                } else {
                    mask & ((1u64 << nodes) - 1)
                };
                let mut worst = Cycles::ZERO;
                while victims != 0 {
                    let node = NodeId(victims.trailing_zeros() as usize);
                    victims &= victims - 1;
                    let there = self.mesh.send(NodeId(home), node);
                    let back = self.mesh.send(node, NodeId(home));
                    worst = worst.max(there + back);
                }
                t + worst + self.l1_probe
            }
            Step::DirCacheHit => t + self.l1_probe,
            Step::Memory => self.memory.access(t, line),
        }
    }

    fn reserve_background(&mut self, t: Cycles, line: LineAddr, bg: &Background) {
        match *bg {
            Background::VaultFill {
                node,
                dirty_writeback,
            } => {
                if let Some(v) = self.vaults.get_mut(node) {
                    v.access(t, line);
                }
                if dirty_writeback {
                    self.memory.access(t, line);
                }
            }
            Background::LlcFill {
                bank,
                dirty_writeback,
            } => {
                if let Some(b) = self.llc.get_mut(bank) {
                    b.access(t, line);
                }
                if dirty_writeback {
                    self.memory.access(t, line);
                }
            }
            Background::DirUpdate { home, ways } => {
                // SILO keeps directory metadata in the home vault's DRAM;
                // the baseline embeds it in the LLC bank. A full-set
                // transition touches `ways` entries back to back.
                if let Some(v) = self.vaults.get_mut(home) {
                    let service = self.vault_access * ways as u64;
                    v.access_with_service(t, line, service);
                } else if let Some(b) = self.llc.get_mut(home) {
                    let service = b.service() * ways as u64;
                    b.access_with_service(t, line, service);
                }
            }
            Background::L1Writeback { .. } => {
                // Absorbed by the node's write port; no shared resource.
            }
            Background::MemoryWrite => {
                self.memory.access(t, line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: LineAddr = LineAddr::new(9);

    fn silo_model() -> TimingModel {
        TimingModel::silo(&SystemConfig::paper_16core())
    }

    #[test]
    fn net_steps_accumulate_mesh_latency() {
        let mut m = silo_model();
        // Node 0 -> 15 is 6 hops at 3 cycles.
        let done = m.charge(Cycles(100), LINE, &[Step::Net { from: 0, to: 15 }], &[]);
        assert_eq!(done, Cycles(118));
        assert_eq!(m.mesh().messages(), 1);
    }

    #[test]
    fn vault_steps_queue_behind_earlier_traffic() {
        let mut m = silo_model();
        let steps = [Step::VaultAccess { node: 3 }];
        let first = m.charge(Cycles(0), LINE, &steps, &[]);
        let second = m.charge(Cycles(0), LINE, &steps, &[]);
        assert_eq!(first, Cycles(11));
        assert_eq!(second, Cycles(22), "same line -> same bank serializes");
    }

    #[test]
    fn invalidations_charge_farthest_round_trip() {
        let mut m = silo_model();
        // Home 0, victims 1 (1 hop) and 15 (6 hops): worst RT = 36.
        let done = m.charge(
            Cycles(0),
            LINE,
            &[Step::Invalidations {
                home: 0,
                mask: (1 << 1) | (1 << 15),
            }],
            &[],
        );
        assert_eq!(done, Cycles(36 + 3));
        // Two messages per victim, each on its own XY route.
        assert_eq!(m.mesh().messages(), 4);
        assert_eq!(m.mesh().total_hops(), 2 * (1 + 6));
    }

    #[test]
    fn invalidation_bits_past_the_last_node_are_ignored() {
        let inv = |mask| {
            let mut m = silo_model();
            let done = m.charge(
                Cycles(0),
                LINE,
                &[Step::Invalidations { home: 5, mask }],
                &[],
            );
            (done, m.mesh().messages(), m.mesh().link_flits())
        };
        let victims = (1 << 0) | (1 << 10) | (1 << 15);
        assert_eq!(inv(victims | (1 << 16) | (1 << 63)), inv(victims));
    }

    #[test]
    fn memory_step_uses_bank_reservation() {
        let mut m = silo_model();
        let done = m.charge(Cycles(0), LINE, &[Step::Memory], &[]);
        assert_eq!(done, Cycles(100));
        assert_eq!(m.memory_accesses(), 1);
    }

    #[test]
    fn background_does_not_extend_latency() {
        let mut m = silo_model();
        let fill = Background::VaultFill {
            node: 0,
            dirty_writeback: true,
        };
        let done = m.charge(Cycles(0), LINE, &[Step::Memory], &[fill]);
        assert_eq!(done, Cycles(100));
        // But the fill and writeback did occupy resources.
        assert!(m.vault_busy_cycles() > 0);
        assert_eq!(m.memory_accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "without an LLC")]
    fn silo_model_rejects_llc_steps() {
        silo_model().charge(Cycles(0), LINE, &[Step::LlcBank { bank: 0 }], &[]);
    }

    #[test]
    fn baseline_model_prices_llc_banks() {
        let mut m = TimingModel::baseline(&SystemConfig::paper_16core());
        let done = m.charge(Cycles(0), LINE, &[Step::LlcBank { bank: 2 }], &[]);
        assert_eq!(done, Cycles(5));
    }
}
