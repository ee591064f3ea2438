//! The Active Buffer Manager's state: what the scheduler core
//! ([`crate::sched::Scheduler`]) decides over.
//!
//! The paper's ABM (Figure 3) is one component: a main loop
//! (`chooseChunkToLoad`, `findFreeSlot`) plus the calls a CScan makes
//! (`selectChunk`, `releaseChunk`).  Here its decisions are the core's
//! methods, and this module holds what they read and change:
//!
//! * [`AbmState`] — the registered queries and what they still need, the
//!   buffer ([`BufferedChunk`]: each resident chunk's columns, pages, pins
//!   and payload), the loads in flight and the counters;
//! * [`ChunkIndex`] — the per-chunk interest counters and bitsets every
//!   policy walks;
//! * [`LoadDecision`] and [`LoadPlan`] — what a policy picks and what the
//!   core admits.
//!
//! # Plan / commit
//!
//! A load is planned under the driver's lock — the policy's decision, the
//! evictions that make room and the page reservation — and stamped with a
//! unique ticket.  The read runs outside the lock, in any order across
//! loads; the commit revalidates the ticket and the chunk's interest
//! ([`AbmState::check_commit`]) before it installs residency, so a
//! cancelled or superseded load's completion is dropped and a load whose
//! last interested query detached mid-read is aborted.  A burst of `B`
//! loads costs `B` policy decisions plus the evictions it needs, and slot
//! 0 of [`crate::Policy::next_load`] is the paper's sequential main loop.

mod buffer;
pub mod index;
#[cfg(test)]
mod plan_commit_tests;
#[cfg(test)]
mod proptests;
mod state;

pub use buffer::BufferedChunk;
pub use index::ChunkIndex;
pub(crate) use state::no_metrics;
pub use state::{AbmState, CommitCheck, InflightLoad, STARVATION_THRESHOLD};

use crate::colset::ColSet;
use crate::query::QueryId;
use cscan_storage::{ChunkId, PhysRegion};

/// A scheduling decision: load `chunk` (the given columns of it) on behalf of
/// the triggering query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadDecision {
    /// The query with the highest scheduling priority (the "trigger").
    pub trigger: QueryId,
    /// The chunk to load.
    pub chunk: ChunkId,
    /// The columns to make resident, whole column groups.
    pub cols: ColSet,
}

/// A fully planned load: the decision plus its physical cost, ready to be
/// submitted to the disk, stamped for commit-time revalidation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPlan {
    /// The underlying scheduling decision.
    pub decision: LoadDecision,
    /// Pages that will be read (only the groups not yet resident).
    pub pages: u64,
    /// Physical regions to read.
    pub regions: Vec<PhysRegion>,
    /// Chunks that were evicted to make room for this load.
    pub evicted: Vec<ChunkId>,
    /// Unique identity of this load (see [`InflightLoad::ticket`]);
    /// [`crate::sched::Scheduler::commit`] revalidates against it.
    pub ticket: u64,
}
