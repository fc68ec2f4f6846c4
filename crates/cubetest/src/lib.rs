//! The workspace's test kit: one copy of each fixture the test suites
//! share.
//!
//! - [`Rng`]: SplitMix64, so a random input is a pure function of its
//!   seed (whichever proptest implementation supplies the seed).
//! - [`panic_text`] / [`catch`]: the message a panic carried, for tests
//!   that compare panic texts against an oracle's.
//! - [`alloc`]: the thread-local counting allocator behind the
//!   allocation gates.
//! - [`ScheduleBuilder`]: hand-built [`CommSchedule`]s, rounds of
//!   one-block messages and copies, for the checker's and the fold's
//!   corruption tests.
//!
//! Dev-only: no library crate depends on it outside
//! `[dev-dependencies]`.

pub mod alloc;

use cubeaddr::NodeId;
use cubecomm::plan::{BlockMeta, CommSchedule, PlanRound, PlannedMsg};
use cubesim::{PortMode, TopoSpec};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// SplitMix64: a seeded stream of `u64`s.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next output modulo `span`.
    pub fn below(&mut self, span: u64) -> u64 {
        self.next_u64() % span
    }

    /// Shuffles `v` in place (Fisher–Yates, last position first).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for k in (1..v.len()).rev() {
            let j = self.below(k as u64 + 1) as usize;
            v.swap(k, j);
        }
    }
}

/// The message of a caught panic: its `String` (formatted) or `&str`
/// (literal) payload.
///
/// # Panics
/// If the payload is neither.
pub fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).expect("a text panic"),
    }
}

/// `f`'s value, or the message of the panic it ended in.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_text)
}

/// A hand-built [`CommSchedule`]: blocks, then rounds of one-block
/// messages and `(node, elems)` copies. Block `b` is arena entry `b`, so
/// a message carrying it names the range `b..b + 1`.
#[derive(Debug)]
pub struct ScheduleBuilder(CommSchedule);

impl ScheduleBuilder {
    /// An empty schedule on `topo` under `ports`, not dimension-ordered.
    pub fn new(name: &str, topo: TopoSpec, ports: PortMode) -> Self {
        ScheduleBuilder(CommSchedule {
            name: name.into(),
            topo,
            ports,
            dimension_ordered: false,
            blocks: Vec::new(),
            block_ids: Vec::new(),
            rounds: Vec::new(),
        })
    }

    /// Claims a dimension order, the deadlock check's precondition.
    pub fn dimension_ordered(mut self) -> Self {
        self.0.dimension_ordered = true;
        self
    }

    /// Appends one-element blocks `(src, dst)`.
    pub fn blocks(mut self, pairs: &[(u64, u64)]) -> Self {
        let meta =
            |&(src, dst): &(u64, u64)| BlockMeta { src: NodeId(src), dst: NodeId(dst), elems: 1 };
        self.0.blocks.extend(pairs.iter().map(meta));
        self
    }

    /// Appends a round of `(src, dim, block)` messages, each carrying one
    /// block appended before.
    pub fn round(mut self, msgs: &[(u64, u32, u32)]) -> Self {
        let msg = |&(src, dim, b): &(u64, u32, u32)| PlannedMsg {
            src: NodeId(src),
            dim,
            blocks: b..b + 1,
        };
        self.0.rounds.push(PlanRound { msgs: msgs.iter().map(msg).collect(), copies: vec![] });
        self
    }

    /// Appends a round of `(src, dim, elems)` messages, each carrying a
    /// new block of `elems` elements held at `src`, and `(node, elems)`
    /// copies.
    pub fn sized_round(mut self, msgs: &[(u64, u32, u64)], copies: &[(u64, u64)]) -> Self {
        let blocks = &mut self.0.blocks;
        let msgs = msgs
            .iter()
            .map(|&(src, dim, elems)| {
                let b = blocks.len() as u32;
                blocks.push(BlockMeta { src: NodeId(src), dst: NodeId(src), elems });
                PlannedMsg { src: NodeId(src), dim, blocks: b..b + 1 }
            })
            .collect();
        let copies = copies.iter().map(|&(node, elems)| (NodeId(node), elems)).collect();
        self.0.rounds.push(PlanRound { msgs, copies });
        self
    }

    /// The schedule, its arena `0..blocks`.
    pub fn build(mut self) -> CommSchedule {
        self.0.block_ids = (0..self.0.blocks.len() as u32).collect();
        self.0
    }
}

#[cfg(test)]
#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::Count;

    #[test]
    fn rng_from_zero_is_splitmix64() {
        let mut rng = Rng::new(0);
        let first = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
        assert_eq!(first, [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]);
    }

    #[test]
    fn shuffle_draws_one_position_per_step() {
        let mut v: Vec<u32> = (0..8).collect();
        let (mut rng, mut by_hand) = (Rng::new(5), Rng::new(5));
        rng.shuffle(&mut v);
        let mut w: Vec<u32> = (0..8).collect();
        for k in (1..8).rev() {
            w.swap(k, by_hand.below(k as u64 + 1) as usize);
        }
        assert_eq!(v, w);
    }

    #[test]
    fn catch_returns_literal_and_formatted_texts() {
        assert_eq!(catch(|| 7), Ok(7));
        assert_eq!(catch(|| panic!("literal")), Err::<(), _>("literal".to_string()));
        let n = 3;
        assert_eq!(catch(|| panic!("formatted {n}")), Err::<(), _>("formatted 3".to_string()));
    }

    #[test]
    #[should_panic(expected = "a text panic")]
    fn panic_text_refuses_other_payloads() {
        panic_text(Box::new(7u32));
    }

    #[test]
    fn counters_are_independent_and_nest() {
        let ((v, big), all) =
            Count::All.around(|| Count::Big(64).around(|| (vec![0u8; 8], vec![0u8; 64])));
        assert_eq!((v.0.len(), v.1.len()), (8, 64));
        assert_eq!((all, big), (2, 1));
        assert_eq!((Count::All.so_far(), Count::Big(64).so_far()), (0, 0), "both stopped");
        Count::All.start();
        let _b = std::hint::black_box(Box::new(1u8));
        Count::All.start(); // already counting: keeps the count
        assert_eq!(Count::All.so_far(), 1);
        assert_eq!(Count::All.around(|| ()).1, 0, "around counts from zero");
    }

    #[test]
    fn builder_lays_block_b_at_arena_entry_b() {
        let plan = ScheduleBuilder::new("hand", TopoSpec::hypercube(2), PortMode::AllPorts)
            .dimension_ordered()
            .blocks(&[(0, 3), (1, 2)])
            .round(&[(0, 0, 0), (1, 1, 1)])
            .sized_round(&[(2, 0, 5)], &[(3, 4)])
            .build();
        assert!(plan.dimension_ordered);
        assert_eq!(plan.block_ids, [0, 1, 2]);
        assert_eq!(plan.blocks[2], BlockMeta { src: NodeId(2), dst: NodeId(2), elems: 5 });
        assert_eq!(plan.rounds[0].msgs[1], PlannedMsg { src: NodeId(1), dim: 1, blocks: 1..2 });
        assert_eq!(plan.ids(&plan.rounds[1].msgs[0]), [2]);
        assert_eq!(plan.rounds[1].copies, [(NodeId(3), 4)]);
        assert_eq!(plan.total_elems(), 7);
    }
}
