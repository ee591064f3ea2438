//! Scan scheduling policies.
//!
//! All four policies analysed in the paper are implemented behind the
//! [`Policy`] trait: [`InOrderPolicy`] is both baselines of Section 3,
//! `normal` and `attach`, which differ only in where a scan starts;
//! [`ElevatorPolicy`] runs one global sequential cursor, and
//! [`RelevancePolicy`] is the paper's contribution.  Policies are pure
//! decision logic: they read the [`AbmState`] and never mutate it, which
//! lets the same implementations be driven by the deterministic simulation
//! and by the threaded executor.
//!
//! All four answer their decision points from the shared
//! [`crate::abm::ChunkIndex`]: the relevance argmaxes walk its starved
//! buckets and residency words, the elevator sweep and its eviction filter
//! walk the interested-any set, and the in-order policy's LRU victim walks
//! the residency words — none of them sweeps the buffer or the scan range
//! chunk-by-chunk.  Because the asynchronous scheduler keeps several
//! loads outstanding, every policy also excludes in-flight chunks
//! ([`AbmState::is_inflight`]) from its load candidates; decisions are taken
//! against a state that routinely contains a whole burst of pending reads,
//! not the paper's single outstanding load.

mod elevator;
mod in_order;
#[cfg(test)]
mod proptests;
#[cfg(test)]
pub(crate) mod reference;
mod relevance;
#[cfg(test)]
mod speedup;

pub use elevator::ElevatorPolicy;
pub use in_order::InOrderPolicy;
pub use relevance::RelevancePolicy;

use crate::abm::{AbmState, LoadDecision};
use crate::query::QueryId;
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;
use serde::{Deserialize, Serialize};

/// Which of the four scheduling policies to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Traditional per-query sequential scans with LRU buffering.
    Normal,
    /// Circular ("shared") scans: new queries attach to overlapping ones.
    Attach,
    /// One global sequential cursor for the whole system.
    Elevator,
    /// The paper's relevance-function-based policy.
    Relevance,
}

impl PolicyKind {
    /// All policies, in the order the paper's tables list them.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Normal,
        PolicyKind::Attach,
        PolicyKind::Elevator,
        PolicyKind::Relevance,
    ];

    /// The policy's lowercase name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Normal => "normal",
            PolicyKind::Attach => "attach",
            PolicyKind::Elevator => "elevator",
            PolicyKind::Relevance => "relevance",
        }
    }

    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Normal | PolicyKind::Attach => Box::new(InOrderPolicy::new(self)),
            PolicyKind::Elevator => Box::new(ElevatorPolicy::new()),
            PolicyKind::Relevance => Box::new(RelevancePolicy::new()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scan scheduling policy.
///
/// The three decision points correspond to Figure 3 of the paper:
/// `next_chunk` is `chooseAvailableChunk` (which resident chunk should the
/// query consume next), `next_load` is `chooseQueryToProcess` +
/// `chooseChunkToLoad` (what should the disk do next), and `choose_victim`
/// is the eviction half of `findFreeSlot`.
pub trait Policy: Send {
    /// The corresponding [`PolicyKind`].
    fn kind(&self) -> PolicyKind;

    /// Called when a new query registers.
    fn on_register(&mut self, _q: QueryId, _state: &AbmState) {}

    /// Called when a query is closed.
    fn on_query_finished(&mut self, _q: QueryId, _state: &AbmState) {}

    /// Which chunk should the disk load next, and for whom?  `None` means
    /// there is nothing useful to load right now.  Driven once per free
    /// outstanding slot by [`crate::sched::Scheduler::plan`]: `slot` is the number
    /// of loads already in flight, including earlier decisions of the same
    /// burst, which the caller has begun before asking again, so `state`
    /// always reflects them.
    ///
    /// Chunks with a load already in flight ([`AbmState::is_inflight`]) must
    /// never be chosen.  `slot == 0` is the paper's sequential main loop;
    /// a policy may take a different decision for a later slot to keep the
    /// pipeline full where its single-decision rule would stall (see
    /// [`RelevancePolicy`]), and the other three ignore `slot`.
    fn next_load(&mut self, state: &AbmState, now: SimTime, slot: usize) -> Option<LoadDecision>;

    /// Which resident chunk should query `q` consume next?  `None` means the
    /// query must block until a load completes.
    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId>;

    /// Pick a chunk to evict to make room for `load`.  `None` means no
    /// eviction is currently possible (everything is pinned or protected).
    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().kind(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
    }
}
