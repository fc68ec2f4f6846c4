//! The analysis IR: a schedule flattened into per-round link claims.

use cubecomm::plan::{BlockMeta, CommSchedule};
use cubesim::{MachineParams, PortMode};
use cubetopo::TopoSpec;
use std::ops::Range;

/// One directed-link activation claimed by a schedule: in `round`, node
/// `src` sends `elems` elements (`packets` packets under the machine's
/// `B_m`) across dimension `dim`, carrying the listed blocks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LinkClaim {
    /// Round index (0-based).
    pub round: usize,
    /// Sending node address.
    pub src: u64,
    /// Port crossed; the receiver is `topo.neighbor(src, dim)` — on the
    /// cube, the dimension, with receiver `src ^ (1 << dim)`.
    pub dim: u32,
    /// Elements carried.
    pub elems: u64,
    /// Packets the message fragments into under the machine's `B_m`.
    pub packets: u64,
    /// The block ids carried, as a range of [`Lowered::block_ids`]; read
    /// them with [`Lowered::ids`]. Each id indexes [`Lowered::blocks`].
    pub blocks: Range<u32>,
}

/// A lowered schedule: everything the checkers and the cross-validator
/// consume. Owns its data so tests can corrupt individual claims: a
/// claim's scalars are edited in place, and a claim given other blocks
/// points at a range [`Lowered::push_ids`] appends to the arena (the
/// ranges of the other claims stay valid).
#[derive(Clone, PartialEq, Debug)]
pub struct Lowered {
    /// Schedule name, carried into diagnostics.
    pub name: String,
    /// The machine graph the claims name links of.
    pub topo: TopoSpec,
    /// Port discipline the schedule claims to satisfy.
    pub ports: PortMode,
    /// Whether the schedule is dimension-ordered (see
    /// [`CommSchedule::dimension_ordered`]).
    pub dimension_ordered: bool,
    /// Number of rounds (claims may leave some rounds empty).
    pub rounds: usize,
    /// Block metadata, indexed by the ids in the claims.
    pub blocks: Vec<BlockMeta>,
    /// All link claims, in schedule order (rounds ascending, send order
    /// within a round).
    pub claims: Vec<LinkClaim>,
    /// The block-id arena: a clone of the schedule's
    /// ([`CommSchedule::block_ids`]), so in [`lower`]'s output every
    /// claim's ids lie one claim after another. [`LinkClaim::blocks`]
    /// ranges index it.
    pub block_ids: Vec<u32>,
    /// Local-copy charges as `(round, node, elems)`.
    pub copies: Vec<(usize, u64, u64)>,
}

impl Lowered {
    /// Total elements over all claims.
    pub fn total_elems(&self) -> u64 {
        self.claims.iter().map(|c| c.elems).sum()
    }

    /// Total packets over all claims.
    pub fn total_packets(&self) -> u64 {
        self.claims.iter().map(|c| c.packets).sum()
    }

    /// The block ids `claim` carries.
    #[inline]
    pub fn ids(&self, claim: &LinkClaim) -> &[u32] {
        &self.block_ids[claim.blocks.start as usize..claim.blocks.end as usize]
    }

    /// Appends `ids` to the arena and returns their range, for a claim
    /// built or corrupted by hand.
    ///
    /// # Panics
    /// Naming the schedule, if the arena outgrows 32-bit offsets.
    pub fn push_ids(&mut self, ids: &[u32]) -> Range<u32> {
        let start = self.block_ids.len();
        self.block_ids.extend_from_slice(ids);
        let len = self.block_ids.len();
        let end = u32::try_from(len)
            .unwrap_or_else(|_| panic!("{}: {len} block ids exceed the 32-bit arena", self.name));
        start as u32..end
    }
}

/// Flattens a schedule into link claims, sizing packets against the
/// machine's `B_m`. A claim's block range is its message's: the plan's
/// arena is cloned whole, not copied message by message. Each output
/// vector is allocated once, at its exact size, so the allocations do
/// not grow with the schedule.
pub fn lower(schedule: &CommSchedule, params: &MachineParams) -> Lowered {
    let mut claims = Vec::with_capacity(schedule.total_messages() as usize);
    let mut copies = Vec::with_capacity(schedule.rounds.iter().map(|r| r.copies.len()).sum());
    for (round, r) in schedule.rounds.iter().enumerate() {
        for msg in &r.msgs {
            let elems = schedule.msg_elems(msg);
            claims.push(LinkClaim {
                round,
                src: msg.src.bits(),
                dim: msg.dim,
                elems,
                packets: params.packets(elems as usize) as u64,
                blocks: msg.blocks.clone(),
            });
        }
        copies.extend(r.copies.iter().map(|&(node, elems)| (round, node.bits(), elems)));
    }
    Lowered {
        name: schedule.name.clone(),
        topo: schedule.topo,
        ports: schedule.ports,
        dimension_ordered: schedule.dimension_ordered,
        rounds: schedule.rounds.len(),
        blocks: schedule.blocks.clone(),
        claims,
        block_ids: schedule.block_ids.clone(),
        copies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubecomm::plan::all_to_all_exchange_plan;
    use cubecomm::BufferPolicy;

    #[test]
    fn lowering_counts_packets_against_bm() {
        let sizes = vec![vec![5u64; 4]; 4];
        let plan = all_to_all_exchange_plan(2, &sizes, BufferPolicy::Ideal, PortMode::OnePort);
        let params = cubesim::MachineParams::unit(PortMode::OnePort).with_max_packet(4);
        let low = lower(&plan, &params);
        assert_eq!(low.rounds, 2);
        // Each claim carries 2 blocks x 5 elems = 10 -> 3 packets of <= 4.
        for c in &low.claims {
            assert_eq!(c.elems, 10);
            assert_eq!(c.packets, 3);
        }
        assert_eq!(low.total_elems(), 10 * 8);
    }
}
