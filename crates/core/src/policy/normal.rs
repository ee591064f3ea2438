//! The `normal` policy: traditional per-query sequential scans.
//!
//! Every query reads its chunks in strict table order; the buffer pool uses
//! LRU replacement; blocked queries are serviced round-robin.  This is the
//! baseline of Section 3: it enforces in-order delivery, so at any moment a
//! query can use at most one specific buffered chunk, which reduces the
//! reuse probability from Equation 1 to `CB/CT`.

use crate::abm::{AbmState, LoadDecision};
use crate::policy::{lru_victim, round_robin_load, Policy, PolicyKind};
use crate::query::QueryId;
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;

/// Traditional sequential scans over an LRU buffer (see module docs).
#[derive(Debug, Default)]
pub struct NormalPolicy {
    /// Round-robin pointer: the id of the last query serviced by the disk.
    last_serviced: Option<QueryId>,
}

impl NormalPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next chunk query `q` must consume (strictly sequential order).
    fn next_needed(state: &AbmState, q: QueryId) -> Option<ChunkId> {
        state.query(q).remaining_chunks().next()
    }

    /// The next chunk to *read* for query `q`: the first remaining chunk, in
    /// table order, that is not yet resident nor already being fetched.
    /// Reading ahead of the consumption point models the sequential
    /// prefetching every real system performs for `normal` scans; with the
    /// async scheduler, successive decisions prefetch ever deeper.
    pub(super) fn next_missing(state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let query = state.query(q);
        query
            .remaining_chunks()
            .filter(|&c| !state.is_inflight(c))
            .find(|&c| state.pages_to_load(c, query.columns) > 0)
    }

    /// [`Self::next_missing`] walking every requested chunk from the first:
    /// the reference the consumption cursor is tested against.
    #[cfg(test)]
    pub(super) fn next_missing_brute(state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let query = state.query(q);
        query
            .remaining_chunks_brute()
            .filter(|&c| !state.is_inflight(c))
            .find(|&c| state.pages_to_load(c, query.columns) > 0)
    }
}

impl Policy for NormalPolicy {
    fn name(&self) -> &'static str {
        "normal"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Normal
    }

    fn next_load(&mut self, state: &AbmState, _now: SimTime, _slot: usize) -> Option<LoadDecision> {
        // Round-robin over queries that still have a missing chunk ahead of
        // their sequential cursor.
        let decision =
            round_robin_load(state, self.last_serviced, |q| Self::next_missing(state, q))?;
        self.last_serviced = Some(decision.trigger);
        Some(decision)
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        // Strict sequential delivery: only the next chunk in table order may
        // be consumed, and only if it is resident.
        let next = Self::next_needed(state, q)?;
        if state.is_resident_for(q, next) {
            Some(next)
        } else {
            None
        }
    }

    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        lru_victim(state, load.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::AbmState;
    use crate::model::TableModel;
    use cscan_storage::{ChunkPayload, ScanRanges};

    fn state(chunks: u32, buffer_chunks: u64) -> AbmState {
        AbmState::new(
            TableModel::nsm_uniform(chunks, 1000, 16),
            buffer_chunks * 16,
        )
    }

    fn register(s: &mut AbmState, id: u64, start: u32, end: u32) -> QueryId {
        let cols = s.model().all_columns();
        s.register_query(
            QueryId(id),
            format!("q{id}"),
            ScanRanges::single(start, end),
            cols,
            SimTime::ZERO,
        );
        QueryId(id)
    }

    fn load(s: &mut AbmState, chunk: u32) {
        let cols = s.model().all_columns();
        s.begin_load(ChunkId::new(chunk), cols);
        s.complete_load_of(ChunkId::new(chunk), ChunkPayload::Missing);
    }

    #[test]
    fn delivery_is_strictly_sequential() {
        let mut s = state(10, 4);
        let q = register(&mut s, 1, 0, 5);
        let mut p = NormalPolicy::new();
        // Chunk 2 is resident but chunk 0 (the next sequential one) is not:
        // the query must block rather than consume out of order.
        load(&mut s, 2);
        assert_eq!(p.next_chunk(q, &s), None);
        load(&mut s, 0);
        assert_eq!(p.next_chunk(q, &s), Some(ChunkId::new(0)));
    }

    #[test]
    fn loads_follow_each_query_cursor() {
        let mut s = state(10, 4);
        let q1 = register(&mut s, 1, 0, 5);
        let q2 = register(&mut s, 2, 5, 10);
        let mut p = NormalPolicy::new();
        let d1 = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(d1.trigger, q1);
        assert_eq!(d1.chunk, ChunkId::new(0));
        // Round-robin: the next decision services the other query.
        let d2 = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(d2.trigger, q2);
        assert_eq!(d2.chunk, ChunkId::new(5));
        // And wraps around.
        let d3 = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(d3.trigger, q1);
    }

    #[test]
    fn resident_chunks_are_skipped_by_prefetch() {
        let mut s = state(10, 4);
        let q1 = register(&mut s, 1, 0, 5);
        load(&mut s, 0);
        let mut p = NormalPolicy::new();
        // Query 1 can consume chunk 0 right away...
        assert_eq!(p.next_chunk(q1, &s), Some(ChunkId::new(0)));
        // ...and the next read on its behalf prefetches chunk 1.
        let d = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(d.chunk, ChunkId::new(1));
        assert_eq!(d.trigger, q1);
    }

    #[test]
    fn fully_satisfied_queries_trigger_no_loads() {
        let mut s = state(10, 6);
        let _q1 = register(&mut s, 1, 0, 3);
        for c in 0..3 {
            load(&mut s, c);
        }
        let mut p = NormalPolicy::new();
        assert!(
            p.next_load(&s, SimTime::ZERO, 0).is_none(),
            "everything needed is already resident"
        );
    }

    #[test]
    fn victim_is_least_recently_touched() {
        let mut s = state(10, 3);
        let _q = register(&mut s, 1, 0, 10);
        load(&mut s, 0);
        load(&mut s, 1);
        load(&mut s, 2);
        // Touch chunk 0 (as if a query just used it).
        s.start_processing(QueryId(1), ChunkId::new(0));
        s.finish_processing(QueryId(1), ChunkId::new(0));
        let mut p = NormalPolicy::new();
        let decision = LoadDecision {
            trigger: QueryId(1),
            chunk: ChunkId::new(3),
            cols: s.model().all_columns(),
        };
        let victim = p.choose_victim(&s, &decision).unwrap();
        assert_eq!(
            victim,
            ChunkId::new(1),
            "chunk 1 is the least recently touched"
        );
    }

    #[test]
    fn finished_queries_are_ignored() {
        let mut s = state(4, 4);
        let q = register(&mut s, 1, 0, 1);
        load(&mut s, 0);
        s.start_processing(q, ChunkId::new(0));
        s.finish_processing(q, ChunkId::new(0));
        let mut p = NormalPolicy::new();
        assert!(p.next_load(&s, SimTime::ZERO, 0).is_none());
        assert!(p.next_chunk(q, &s).is_none());
    }
}
