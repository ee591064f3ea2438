//! The data plane's buffer pool: a chunk-indexed pin ledger.
//!
//! The Active Buffer Manager decides what is loaded and what is evicted, at
//! chunk granularity, from its own page accounting.  What is left for a
//! buffer pool to do is hold the data and keep it from being reclaimed
//! under a reader: [`FramePool`] has one slot per logical chunk — pin
//! count and payload — and no replacement policy, page table, free list or
//! lock of its own; the ABM's owner serialises it with the decisions.

#![warn(missing_docs)]

mod pool;

pub use pool::{FramePool, PoolStats};
