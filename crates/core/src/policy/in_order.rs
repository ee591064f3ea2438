//! The in-order policy behind both baselines of Section 3, `normal` and
//! `attach`.
//!
//! Every query consumes its chunks in one fixed order and blocks until the
//! next one is resident; the buffer pool uses LRU replacement; blocked
//! queries are serviced round-robin.  In-order delivery means that at any
//! moment a query can use at most one specific buffered chunk, which
//! reduces the reuse probability from Equation 1 to `CB/CT`.
//!
//! The two baselines differ only in where a scan starts.  A `normal` scan
//! starts at its own first chunk and reads in table order.  An `attach`
//! scan looks at the running scans when it enters and, if one overlaps,
//! starts at that scan's current position and wraps around at the end of
//! its own range to pick up what it skipped: the circular ("shared") scans
//! of RedBrick, SQLServer and Teradata.  It shares loaded chunks through
//! buffer residency; its weaknesses — detaching when speeds differ, missed
//! opportunities after a partner finishes, and multi-range scans — emerge
//! from exactly this mechanism.

use crate::abm::{AbmState, LoadDecision};
use crate::policy::{Policy, PolicyKind};
use crate::query::{QueryId, QueryState};
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;
use std::collections::HashMap;

/// In-order scans over an LRU buffer, starting where [`PolicyKind`] says
/// (see module docs).
#[derive(Debug)]
pub struct InOrderPolicy {
    /// [`PolicyKind::Attach`] looks for a partner at registration;
    /// [`PolicyKind::Normal`] never does.
    kind: PolicyKind,
    /// Where each attached query starts.  A query with no partner keeps no
    /// entry and reads in table order.
    starts: HashMap<QueryId, Start>,
    /// Round-robin pointer: the id of the last query serviced by the disk.
    pub(super) last_serviced: Option<QueryId>,
    /// How many times [`Self::next_missing`] ran.
    #[cfg(test)]
    pub(super) asked: std::cell::Cell<usize>,
}

/// Where an attached query starts reading, and how far it has got from
/// there, as indices into its requested chunks (in table order).
#[derive(Debug)]
struct Start {
    /// Where the first chunk the query reads sits: it reads what it needs
    /// from here to the end of its range, then what it needs below.
    index: usize,
    /// None from `index` up to here is still needed.  It moves forward
    /// when the consumption point is looked up; `needed` bits are only
    /// ever cleared, so a stale cursor is merely a longer walk.
    cursor: usize,
}

impl InOrderPolicy {
    /// Creates the policy of `kind`, [`PolicyKind::Normal`] or
    /// [`PolicyKind::Attach`] ([`PolicyKind::build`]).
    pub(super) fn new(kind: PolicyKind) -> Self {
        Self {
            kind,
            starts: HashMap::new(),
            last_serviced: None,
            #[cfg(test)]
            asked: Default::default(),
        }
    }

    /// The chunks `query` still needs, in the order it consumes them: from
    /// its start and cursor to its end, then those below its start.  A
    /// query with no partner walks [`QueryState::remaining_chunks`].
    fn walk<'a>(
        query: &'a QueryState,
        start: Option<&Start>,
    ) -> impl Iterator<Item = ChunkId> + 'a {
        let requested = query.requested_chunks();
        let (ahead, below) =
            start.map_or((requested.len(), requested.len()), |s| (s.cursor, s.index));
        requested[ahead..]
            .iter()
            .copied()
            .filter(|&c| query.needs(c))
            .chain(query.remaining_chunks_before(below))
    }

    /// The chunk the query will consume next: the first of its walk.
    /// Moves an attached query's cursor up to it.
    pub(super) fn consumption_point(&mut self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let query = state.query(q);
        let start = self.starts.get_mut(&q).map(|start| {
            start.cursor += query.requested_chunks()[start.cursor..]
                .iter()
                .take_while(|&&c| !query.needs(c))
                .count();
            &*start
        });
        Self::walk(query, start).next()
    }

    /// The next chunk to *read* for query `q`: the first of its walk that
    /// is neither resident for its columns nor already being fetched.
    /// Reading ahead of the consumption point models the sequential
    /// prefetching every real system performs; with the async scheduler,
    /// successive decisions prefetch ever deeper.
    pub(super) fn next_missing(&self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        #[cfg(test)]
        self.asked.set(self.asked.get() + 1);
        let query = state.query(q);
        Self::walk(query, self.starts.get(&q))
            .filter(|&c| !state.is_inflight(c))
            .find(|&c| state.pages_to_load(c, query.columns) > 0)
    }

    /// How much sharing `candidate` offers a newly arriving query: the number
    /// of chunks both still need — the popcount of their `needed` words'
    /// intersection — weighted by the columns both read.
    pub(super) fn overlap_score(newcomer: &QueryState, candidate: &QueryState) -> u64 {
        let chunk_overlap: u64 = newcomer
            .needed_words()
            .iter()
            .zip(candidate.needed_words())
            .map(|(a, b)| u64::from((a & b).count_ones()))
            .sum();
        chunk_overlap * u64::from(newcomer.columns.intersect(candidate.columns).len())
    }
}

/// The least-recently-touched evictable chunk, excluding the chunk being
/// loaded: the LRU replacement of both baselines.
///
/// Walks the [`crate::abm::ChunkIndex`] residency words instead of the
/// buffer slot map, so empty table regions cost 1/64th of a comparison each.
/// The walk is in chunk order, so ties on `last_touch` break towards the
/// lowest chunk id, exactly like the buffer sweep of the reference
/// ([`crate::policy::reference`]).
fn lru_victim(state: &AbmState, protect: ChunkId) -> Option<ChunkId> {
    state
        .index()
        .resident_chunks()
        .filter(|&c| c != protect && state.is_evictable(c))
        .min_by_key(|&c| state.buffered_chunk(c).map_or(u64::MAX, |b| b.last_touch))
}

impl Policy for InOrderPolicy {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn on_register(&mut self, q: QueryId, state: &AbmState) {
        if self.kind != PolicyKind::Attach {
            return;
        }
        let newcomer = state.query(q);
        // Find the running scan with the largest remaining overlap.
        let best = state
            .queries()
            .filter(|p| p.id != q && !p.is_finished())
            .map(|p| (Self::overlap_score(newcomer, p), p.id))
            .filter(|&(score, _)| score > 0)
            .max_by_key(|&(score, id)| (score, std::cmp::Reverse(id)));
        // Start at the partner's current position (its consumption point),
        // wrapping around our own range.
        let start = best.and_then(|(_, partner)| self.consumption_point(state, partner));
        if let Some(chunk) = start.and_then(|pos| newcomer.ranges.next_from(pos)) {
            let index = newcomer.requested_chunks().partition_point(|&c| c < chunk);
            let cursor = index;
            self.starts.insert(q, Start { index, cursor });
        }
    }

    fn on_query_finished(&mut self, q: QueryId, _state: &AbmState) {
        self.starts.remove(&q);
    }

    fn next_load(&mut self, state: &AbmState, _now: SimTime, _slot: usize) -> Option<LoadDecision> {
        // Blocked queries are serviced round-robin.  The open queries are
        // visited in rotation order — the ids strictly after
        // `last_serviced`, then from the lowest — and the first with a
        // chunk left to read is chosen; the load fetches that chunk with
        // its columns.  The walk stops at that first hit, so `next_missing`
        // runs once per query passed over plus once for the trigger, and
        // nothing is allocated.
        let queries = state.query_slice();
        let after = self
            .last_serviced
            .map_or(0, |last| queries.partition_point(|q| q.id <= last));
        let decision = queries[after..]
            .iter()
            .chain(&queries[..after])
            .filter(|q| !q.is_finished())
            .find_map(|q| {
                Some(LoadDecision {
                    trigger: q.id,
                    chunk: self.next_missing(state, q.id)?,
                    cols: q.columns,
                })
            })?;
        self.last_serviced = Some(decision.trigger);
        Some(decision)
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        // Strict in-order delivery: only the consumption point may be
        // consumed, and only if it is resident; otherwise the query blocks.
        self.consumption_point(state, q)
            .filter(|&c| state.is_resident_for(q, c))
    }

    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        lru_victim(state, load.chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn process(s: &mut AbmState, q: QueryId, chunk: u32) {
        s.start_processing(q, ChunkId::new(chunk));
        s.finish_processing(q, ChunkId::new(chunk));
    }

    fn normal() -> InOrderPolicy {
        InOrderPolicy::new(PolicyKind::Normal)
    }

    fn attach() -> InOrderPolicy {
        InOrderPolicy::new(PolicyKind::Attach)
    }

    #[test]
    fn delivery_is_strictly_sequential() {
        let mut s = state(10, 4);
        let q = register(&mut s, 1, 0, 5);
        let mut p = normal();
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
        let mut p = normal();
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
        let mut p = normal();
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
        let mut p = normal();
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
        process(&mut s, QueryId(1), 0);
        let mut p = normal();
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
        process(&mut s, q, 0);
        let mut p = normal();
        assert!(p.next_load(&s, SimTime::ZERO, 0).is_none());
        assert!(p.next_chunk(q, &s).is_none());
    }

    #[test]
    fn newcomer_attaches_at_partner_position() {
        let mut s = state(100, 10);
        let mut p = attach();
        let q1 = register(&mut s, 1, 0, 100);
        p.on_register(q1, &s);
        // q1 has progressed to chunk 40.
        for c in 0..40 {
            load(&mut s, c);
            process(&mut s, q1, c);
            s.evict(ChunkId::new(c));
        }
        // A new full scan attaches at q1's position (chunk 40), not at 0.
        let q2 = register(&mut s, 2, 0, 100);
        p.on_register(q2, &s);
        assert_eq!(p.consumption_point(&s, q2), Some(ChunkId::new(40)));
        let start = p.starts.get(&q2);
        assert_eq!(
            s.query(q2).requested_chunks()[start.unwrap().index],
            ChunkId::new(40)
        );
        // Its walk wraps: the last chunk it reads is 39.
        let walk = || InOrderPolicy::walk(s.query(q2), start);
        assert_eq!(walk().last(), Some(ChunkId::new(39)));
        assert_eq!(walk().count(), 100);
    }

    #[test]
    fn non_overlapping_query_starts_at_its_own_range() {
        let mut s = state(100, 10);
        let mut p = attach();
        let q1 = register(&mut s, 1, 0, 20);
        p.on_register(q1, &s);
        let q2 = register(&mut s, 2, 50, 70);
        p.on_register(q2, &s);
        assert_eq!(p.consumption_point(&s, q2), Some(ChunkId::new(50)));
    }

    #[test]
    fn attached_queries_share_loads() {
        let mut s = state(20, 10);
        let mut p = attach();
        let q1 = register(&mut s, 1, 0, 20);
        p.on_register(q1, &s);
        let q2 = register(&mut s, 2, 0, 20);
        p.on_register(q2, &s);
        // Both start at chunk 0; a single load satisfies both.
        let d = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(d.chunk, ChunkId::new(0));
        load(&mut s, 0);
        assert_eq!(p.next_chunk(q1, &s), Some(ChunkId::new(0)));
        assert_eq!(p.next_chunk(q2, &s), Some(ChunkId::new(0)));
    }

    #[test]
    fn attach_chooses_largest_overlap() {
        let mut s = state(100, 10);
        let mut p = attach();
        let q1 = register(&mut s, 1, 0, 10);
        p.on_register(q1, &s);
        let q2 = register(&mut s, 2, 20, 90);
        p.on_register(q2, &s);
        // A new query overlapping both attaches to q2 (larger remaining overlap).
        let q3 = register(&mut s, 3, 0, 90);
        p.on_register(q3, &s);
        assert_eq!(p.consumption_point(&s, q3), Some(ChunkId::new(20)));
    }

    #[test]
    fn delivery_follows_rotation_and_blocks_on_missing() {
        let mut s = state(10, 5);
        let mut p = attach();
        let q1 = register(&mut s, 1, 0, 10);
        p.on_register(q1, &s);
        // Progress q1 to chunk 3.
        for c in 0..3 {
            load(&mut s, c);
            process(&mut s, q1, c);
        }
        let q2 = register(&mut s, 2, 0, 10);
        p.on_register(q2, &s);
        // q2 attached at chunk 3, which is not resident yet: it blocks.
        assert_eq!(p.next_chunk(q2, &s), None);
        load(&mut s, 3);
        assert_eq!(p.next_chunk(q2, &s), Some(ChunkId::new(3)));
        // Even though chunk 0 is resident, q2 follows its rotation (3 first).
        assert!(s.is_resident_for(q2, ChunkId::new(0)));
    }

    #[test]
    fn finished_partner_is_cleaned_up() {
        let mut s = state(10, 5);
        let mut p = attach();
        let q1 = register(&mut s, 1, 0, 2);
        p.on_register(q1, &s);
        let q2 = register(&mut s, 2, 0, 2);
        p.on_register(q2, &s);
        assert!(p.starts.contains_key(&q2));
        p.on_query_finished(q2, &s);
        assert!(p.starts.is_empty());
    }
}
