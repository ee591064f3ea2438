//! Scan scheduling policies.
//!
//! All four policies analysed in the paper are implemented behind the
//! [`Policy`] trait: [`NormalPolicy`] (per-query sequential scans over an
//! LRU buffer), [`AttachPolicy`] (circular/shared scans), [`ElevatorPolicy`]
//! (one global sequential cursor) and [`RelevancePolicy`] (the paper's
//! contribution).  Policies are pure decision logic: they read the
//! [`AbmState`] and never mutate it, which lets the same implementations be
//! driven by the deterministic simulation and by the threaded executor.
//!
//! All four answer their decision points from the shared
//! [`crate::abm::ChunkIndex`]: the relevance argmaxes walk its starved
//! buckets and residency words, the elevator sweep and its eviction filter
//! walk the interested-any set, and the traditional policies' `lru_victim`
//! walks the residency words — none of them sweeps the buffer or the scan
//! range chunk-by-chunk.  Because the asynchronous scheduler keeps several
//! loads outstanding, every policy also excludes in-flight chunks
//! ([`AbmState::is_inflight`]) from its load candidates; decisions are taken
//! against a state that routinely contains a whole burst of pending reads,
//! not the paper's single outstanding load.

mod attach;
mod elevator;
mod normal;
#[cfg(test)]
mod proptests;
mod relevance;

pub use attach::AttachPolicy;
pub use elevator::ElevatorPolicy;
pub use normal::NormalPolicy;
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
            PolicyKind::Normal => Box::new(NormalPolicy::new()),
            PolicyKind::Attach => Box::new(AttachPolicy::new()),
            PolicyKind::Elevator => Box::new(ElevatorPolicy::new()),
            PolicyKind::Relevance => Box::new(RelevancePolicy::new()),
        }
    }

    /// Parses a policy name (case-insensitive).
    pub fn parse(name: &str) -> Option<PolicyKind> {
        match name.to_ascii_lowercase().as_str() {
            "normal" | "lru" => Some(PolicyKind::Normal),
            "attach" | "circular" | "shared" => Some(PolicyKind::Attach),
            "elevator" | "scan" => Some(PolicyKind::Elevator),
            "relevance" | "cscan" | "cooperative" => Some(PolicyKind::Relevance),
            _ => None,
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
    /// The policy's name (matches [`PolicyKind::name`]).
    fn name(&self) -> &'static str;

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

/// Shared helper: the load decision of the traditional policies (`normal`,
/// `attach`), which service blocked queries round-robin.  The open queries
/// are visited in rotation order — the ids strictly after `last_serviced`,
/// then from the lowest — and the first with a chunk left to read
/// (`next_missing` names it) is chosen; the load fetches that chunk with
/// its columns.  The walk stops at that first hit, so `next_missing` runs
/// once per query passed over plus once for the trigger, and nothing is
/// allocated.  The caller records the chosen query, the decision's
/// `trigger`, as its new `last_serviced`.
pub(crate) fn round_robin_load(
    state: &AbmState,
    last_serviced: Option<QueryId>,
    mut next_missing: impl FnMut(QueryId) -> Option<ChunkId>,
) -> Option<LoadDecision> {
    let queries = state.query_slice();
    let start = last_serviced.map_or(0, |last| queries.partition_point(|q| q.id <= last));
    queries[start..]
        .iter()
        .chain(&queries[..start])
        .filter(|q| !q.is_finished())
        .find_map(|q| {
            Some(LoadDecision {
                trigger: q.id,
                chunk: next_missing(q.id)?,
                cols: q.columns,
            })
        })
}

/// Asks every open query, then takes the first after `last_serviced` in
/// id order, wrapping around: the reference [`round_robin_load`] is tested
/// against.
#[cfg(test)]
pub(crate) fn round_robin_load_brute(
    state: &AbmState,
    last_serviced: Option<QueryId>,
    mut next_missing: impl FnMut(QueryId) -> Option<ChunkId>,
) -> Option<LoadDecision> {
    let (trigger, chunk) = state
        .queries()
        .filter(|q| !q.is_finished())
        .filter_map(|q| Some((q.id, next_missing(q.id)?)))
        .min_by_key(|&(q, _)| (last_serviced.is_none_or(|last| q <= last), q))?;
    Some(LoadDecision {
        trigger,
        chunk,
        cols: state.query(trigger).columns,
    })
}

/// Shared helper: the least-recently-touched evictable chunk, excluding the
/// chunk being loaded.  This is the eviction rule of the traditional
/// policies (`normal`, `attach`); `elevator` and `relevance` use their own.
///
/// Walks the [`crate::abm::ChunkIndex`] residency words instead of the
/// buffer slot map, so empty table regions cost 1/64th of a comparison each;
/// ties on `last_touch` break towards the lowest chunk id, exactly like the
/// original buffer sweep (which it is debug-asserted against).
pub(crate) fn lru_victim(state: &AbmState, protect: ChunkId) -> Option<ChunkId> {
    let mut best: Option<(u64, ChunkId)> = None;
    for chunk in state.index().resident_chunks() {
        if chunk == protect || !state.is_evictable(chunk) {
            continue;
        }
        let touch = state
            .buffered_chunk(chunk)
            .map(|b| b.last_touch)
            .unwrap_or(u64::MAX);
        if best.is_none_or(|(t, _)| touch < t) {
            best = Some((touch, chunk));
        }
    }
    let victim = best.map(|(_, c)| c);
    debug_assert_eq!(
        victim,
        lru_victim_brute(state, protect),
        "index-backed LRU victim diverged from the buffer sweep"
    );
    victim
}

/// The original buffer-sweep LRU victim (reference for [`lru_victim`]).
pub(crate) fn lru_victim_brute(state: &AbmState, protect: ChunkId) -> Option<ChunkId> {
    state
        .buffered()
        .filter(|b| b.chunk != protect && state.is_evictable(b.chunk))
        .min_by_key(|b| b.last_touch)
        .map(|b| b.chunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().kind(), kind);
            assert_eq!(kind.build().name(), kind.name());
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(PolicyKind::parse("LRU"), Some(PolicyKind::Normal));
        assert_eq!(PolicyKind::parse("circular"), Some(PolicyKind::Attach));
        assert_eq!(
            PolicyKind::parse("cooperative"),
            Some(PolicyKind::Relevance)
        );
        assert_eq!(PolicyKind::parse("bogus"), None);
    }
}
