//! Source-tagged data blocks: the payload unit of personalized
//! communication.

use cubeaddr::NodeId;
use cubesim::Payload;

/// One personalized block: `data` travelling from `src` to `dst`.
///
/// The tags are metadata, not charged by the cost model; only
/// `data.len()` counts as elements (headers on the real machines are part
/// of the per-packet start-up `τ`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block<T> {
    /// Originating node.
    pub src: NodeId,
    /// Final destination node.
    pub dst: NodeId,
    /// The elements.
    pub data: Vec<T>,
}

impl<T> Block<T> {
    /// Creates a block.
    pub fn new(src: NodeId, dst: NodeId, data: Vec<T>) -> Self {
        Block { src, dst, data }
    }
}

/// A bare block is a message: the store-and-forward router sends one
/// block per link per round, with no batching wrapper (and therefore no
/// per-hop buffer allocation).
impl<T> Payload for Block<T> {
    fn elems(&self) -> usize {
        self.data.len()
    }
}

/// A batch of blocks sent over one link in one round as a single message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockMsg<T>(pub Vec<Block<T>>);

impl<T> Payload for BlockMsg<T> {
    fn elems(&self) -> usize {
        self.0.iter().map(|b| b.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(src: u64, dst: u64, len: usize) -> Block<u32> {
        Block::new(NodeId(src), NodeId(dst), vec![0u32; len])
    }

    #[test]
    fn payload_counts_data_only() {
        let msg = BlockMsg(vec![blk(0, 1, 3), blk(0, 2, 5)]);
        assert_eq!(msg.elems(), 8);
    }
}
