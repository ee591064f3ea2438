//! The buffer's counters.
//!
//! The Active Buffer Manager decides what is loaded and what is evicted, at
//! chunk granularity, and its buffer record of each resident chunk holds
//! the chunk's payload and its pins (`cscan_core::abm::BufferedChunk`):
//! there is no second page table, pin ledger or payload store.  What is
//! left here is the [`PoolStats`] the ABM keeps of its pins, installs and
//! evictions, the type the front-ends report them in.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Hit/miss/eviction/pin counters of the buffer.
///
/// `hits + misses == pins`: every grant pins a resident chunk (a hit), and
/// every install of a load's payload pins for its own duration — a miss
/// when it makes the chunk resident, a hit when it merges into a chunk that
/// already is.  `pins - unpins` is the number of pins outstanding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Pins and installs that found the chunk resident.
    pub hits: u64,
    /// Installs that made a chunk resident.
    pub misses: u64,
    /// Chunks evicted.
    pub evictions: u64,
    /// Number of pin operations (grants and installs).
    pub pins: u64,
    /// Number of unpin operations.
    pub unpins: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; zero if nothing was pinned yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, rhs: PoolStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
        self.pins += rhs.pins;
        self.unpins += rhs.unpins;
    }
}
