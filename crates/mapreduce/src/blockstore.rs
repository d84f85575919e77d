//! HDFS-like block storage.
//!
//! Input datasets "reside in HDFS with no prior partitioning properties;
//! the data points are randomly distributed over the HDFS blocks"
//! (Section III-B). [`BlockStore`] models exactly that: items are split
//! into fixed-size blocks, each block is the unit of map-task scheduling,
//! and a replication factor is tracked for storage accounting (the paper's
//! cluster uses replication 3).

use std::sync::Arc;

use crate::fault::{FaultPlan, TaskFault};

/// A transient failure reading a block — the simulated equivalent of a
/// flaky DataNode. The scheduler treats it like a task failure and
/// retries the attempt, which draws a fresh (usually clean) decision
/// from the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockReadError {
    /// Index of the block whose read failed.
    pub block: usize,
    /// The attempt number that drew the failure.
    pub attempt: usize,
}

impl std::fmt::Display for BlockReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "transient read error on block {} (attempt {})",
            self.block, self.attempt
        )
    }
}

impl std::error::Error for BlockReadError {}

/// A dataset split into blocks of items.
#[derive(Debug, Clone)]
pub struct BlockStore<T> {
    blocks: Vec<Arc<Vec<T>>>,
    replication: usize,
}

impl<T> BlockStore<T> {
    /// Splits `items` into blocks of at most `block_size` items.
    ///
    /// A `block_size` of 0 is coerced to 1. An empty input produces a
    /// store with zero blocks.
    pub fn from_items(items: Vec<T>, block_size: usize, replication: usize) -> Self {
        let block_size = block_size.max(1);
        let mut items = items.into_iter();
        let mut blocks = Vec::with_capacity(items.len().div_ceil(block_size));
        while items.len() > 0 {
            // `take` over an exact-size iterator sizes every block once.
            blocks.push(Arc::new(items.by_ref().take(block_size).collect()));
        }
        BlockStore {
            blocks,
            replication: replication.max(1),
        }
    }

    /// Builds a store from pre-formed blocks.
    pub fn from_blocks(blocks: Vec<Vec<T>>, replication: usize) -> Self {
        BlockStore {
            blocks: blocks.into_iter().map(Arc::new).collect(),
            replication: replication.max(1),
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of items across all blocks.
    pub fn num_items(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Shared handle to block `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.num_blocks()`.
    pub fn block(&self, i: usize) -> Arc<Vec<T>> {
        Arc::clone(&self.blocks[i])
    }

    /// Fallible read of block `i` under a fault plan: fails iff the
    /// plan's decision for `("map", i, attempt)` is a
    /// [`TaskFault::BlockRead`]. With `fault == None` this is exactly
    /// [`BlockStore::block`].
    ///
    /// # Panics
    /// Panics if `i >= self.num_blocks()`.
    pub fn try_block(
        &self,
        i: usize,
        fault: Option<&FaultPlan>,
        attempt: usize,
    ) -> Result<Arc<Vec<T>>, BlockReadError> {
        if let Some(plan) = fault {
            if plan.decide("map", i, attempt) == TaskFault::BlockRead {
                return Err(BlockReadError { block: i, attempt });
            }
        }
        Ok(self.block(i))
    }

    /// Iterator over shared block handles.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Arc<Vec<T>>> + '_ {
        self.blocks.iter().map(Arc::clone)
    }

    /// HDFS-style replica placement of block `i` on a cluster of `nodes`
    /// nodes: `min(replication, nodes)` distinct nodes, assigned
    /// deterministically (first replica round-robin by block index,
    /// further replicas on the following nodes), like a rack-unaware
    /// HDFS default policy.
    pub fn placement(&self, block: usize, nodes: usize) -> Vec<usize> {
        let nodes = nodes.max(1);
        let copies = self.replication.min(nodes);
        (0..copies).map(|c| (block + c) % nodes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_into_even_blocks() {
        let s = BlockStore::from_items((0..10).collect(), 5, 3);
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.num_items(), 10);
        assert_eq!(*s.block(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(*s.block(1), vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn last_block_may_be_short() {
        let s = BlockStore::from_items((0..7).collect(), 3, 1);
        assert_eq!(s.num_blocks(), 3);
        assert_eq!(s.block(2).len(), 1);
    }

    #[test]
    fn every_block_is_allocated_at_its_length() {
        let s = BlockStore::from_items((0..10).collect::<Vec<u64>>(), 4, 1);
        let shape: Vec<(usize, usize)> = s.blocks().map(|b| (b.len(), b.capacity())).collect();
        assert_eq!(shape, vec![(4, 4), (4, 4), (2, 2)]);
    }

    #[test]
    fn empty_input_has_no_blocks() {
        let s: BlockStore<i32> = BlockStore::from_items(vec![], 4, 1);
        assert_eq!(s.num_blocks(), 0);
        assert_eq!(s.num_items(), 0);
    }

    #[test]
    fn zero_block_size_coerced() {
        let s = BlockStore::from_items(vec![1, 2], 0, 0);
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.replication(), 1);
    }

    #[test]
    fn placement_is_deterministic_and_distinct() {
        let s = BlockStore::from_items((0..20).collect(), 2, 3);
        for b in 0..s.num_blocks() {
            let p = s.placement(b, 5);
            assert_eq!(p.len(), 3);
            let mut q = p.clone();
            q.dedup();
            assert_eq!(q.len(), 3, "replicas must land on distinct nodes");
            assert_eq!(p, s.placement(b, 5));
            assert!(p.iter().all(|&n| n < 5));
        }
    }

    #[test]
    fn placement_clamps_to_cluster_size() {
        let s = BlockStore::from_items(vec![1, 2], 1, 3);
        assert_eq!(s.placement(0, 1), vec![0]);
        assert_eq!(s.placement(1, 2).len(), 2);
    }

    #[test]
    fn try_block_without_plan_always_succeeds() {
        let s = BlockStore::from_items((0..6).collect(), 2, 1);
        for b in 0..s.num_blocks() {
            assert_eq!(*s.try_block(b, None, 0).unwrap(), *s.block(b));
        }
    }

    #[test]
    fn try_block_fails_transiently_under_full_rate_plan() {
        let plan = FaultPlan::new(17).with_block_errors(1000);
        let s = BlockStore::from_items((0..4).collect(), 1, 1);
        let err = s.try_block(2, Some(&plan), 0).unwrap_err();
        assert_eq!(
            err,
            BlockReadError {
                block: 2,
                attempt: 0
            }
        );
        // At rate 0 the same call succeeds: only the plan decides.
        let clean = FaultPlan::new(17);
        assert!(s.try_block(2, Some(&clean), 0).is_ok());
    }

    #[test]
    fn from_blocks_preserves_structure() {
        let s = BlockStore::from_blocks(vec![vec![1], vec![2, 3]], 3);
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.replication(), 3);
        let all: Vec<i32> = s
            .blocks()
            .flat_map(|b| b.iter().copied().collect::<Vec<_>>())
            .collect();
        assert_eq!(all, vec![1, 2, 3]);
    }
}
