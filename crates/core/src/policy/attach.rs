//! The `attach` policy: circular ("shared") scans.
//!
//! When a query enters the system it looks at all running scans and, if one
//! overlaps, starts reading at that scan's current position, wrapping around
//! at the end of its own range to pick up what it skipped (Section 3).  This
//! is the behaviour of RedBrick, SQLServer and Teradata circular scans.  The
//! policy shares loaded chunks through buffer residency; its weaknesses —
//! detaching when speeds differ, missed opportunities after a partner
//! finishes, and multi-range scans — emerge from exactly this mechanism.

use crate::abm::{AbmState, LoadDecision};
use crate::policy::{lru_victim, round_robin_load, Policy, PolicyKind};
use crate::query::{QueryId, QueryState};
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;
use std::collections::HashMap;

/// Circular shared scans (see module docs).
#[derive(Debug, Default)]
pub struct AttachPolicy {
    /// Per-query consumption order and its cursor.
    orders: HashMap<QueryId, Rotation>,
    /// Round-robin pointer for servicing loads.
    last_serviced: Option<QueryId>,
}

/// A query's consumption order: its chunks rotated so that the scan starts
/// at the position it attached to.
#[derive(Debug)]
struct Rotation {
    order: Vec<ChunkId>,
    /// Nothing in `order` before this index is still needed.  It moves
    /// forward when the consumption point is looked up; `needed` bits are
    /// only ever cleared, so a stale cursor is merely a longer walk.
    first_needed: usize,
}

impl AttachPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chunk the query will consume next: the first chunk in its
    /// rotation order that it still needs.  Moves the rotation cursor up
    /// to it.
    fn consumption_point(&mut self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let rotation = self.orders.get_mut(&q)?;
        let query = state.query(q);
        let skipped = rotation.order[rotation.first_needed..]
            .iter()
            .take_while(|&&c| !query.needs(c))
            .count();
        rotation.first_needed += skipped;
        rotation.order.get(rotation.first_needed).copied()
    }

    /// The next chunk to read for `q`: the first still-needed chunk at or
    /// after the consumption point (in rotation order) that is missing and
    /// not already being fetched.
    pub(super) fn next_missing(&self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let rotation = self.orders.get(&q)?;
        let query = state.query(q);
        rotation.order[rotation.first_needed..]
            .iter()
            .copied()
            .filter(|&c| query.needs(c) && !state.is_inflight(c))
            .find(|&c| state.pages_to_load(c, query.columns) > 0)
    }

    /// [`Self::next_missing`] walking the whole rotation order from its
    /// first chunk: the reference the rotation cursor is tested against.
    #[cfg(test)]
    pub(super) fn next_missing_brute(&self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let order = &self.orders.get(&q)?.order;
        let query = state.query(q);
        order
            .iter()
            .copied()
            .filter(|&c| query.needs(c) && !state.is_inflight(c))
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

impl Policy for AttachPolicy {
    fn name(&self) -> &'static str {
        "attach"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Attach
    }

    fn on_register(&mut self, q: QueryId, state: &AbmState) {
        let newcomer = state.query(q);
        // Find the running scan with the largest remaining overlap.
        let best = state
            .queries()
            .filter(|p| p.id != q && !p.is_finished())
            .map(|p| (Self::overlap_score(newcomer, p), p.id))
            .filter(|&(score, _)| score > 0)
            .max_by_key(|&(score, id)| (score, std::cmp::Reverse(id)));
        let chunks = newcomer.ranges.chunks();
        let order = match best {
            Some((_, partner)) => {
                // Start at the partner's current position (its consumption
                // point), wrapping around our own range.
                let attach_pos = self
                    .consumption_point(state, partner)
                    .or_else(|| state.query(partner).remaining_chunks().next());
                match attach_pos {
                    Some(pos) => {
                        let split = chunks.iter().position(|&c| c >= pos).unwrap_or(0);
                        let mut order = Vec::with_capacity(chunks.len());
                        order.extend_from_slice(&chunks[split..]);
                        order.extend_from_slice(&chunks[..split]);
                        order
                    }
                    None => chunks,
                }
            }
            None => chunks,
        };
        self.orders.insert(
            q,
            Rotation {
                order,
                first_needed: 0,
            },
        );
    }

    fn on_query_finished(&mut self, q: QueryId, _state: &AbmState) {
        self.orders.remove(&q);
    }

    fn next_load(&mut self, state: &AbmState, _now: SimTime, _slot: usize) -> Option<LoadDecision> {
        let decision =
            round_robin_load(state, self.last_serviced, |q| self.next_missing(state, q))?;
        self.last_serviced = Some(decision.trigger);
        Some(decision)
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        // Strict delivery along the rotation order: the consumption point
        // must be resident, otherwise the query blocks.
        let next = self.consumption_point(state, q)?;
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

    fn process(s: &mut AbmState, q: QueryId, chunk: u32) {
        s.start_processing(q, ChunkId::new(chunk));
        s.finish_processing(q, ChunkId::new(chunk));
    }

    #[test]
    fn newcomer_attaches_at_partner_position() {
        let mut s = state(100, 10);
        let mut p = AttachPolicy::new();
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
        // Its rotation wraps: the last chunk in its order is 39.
        assert_eq!(p.orders[&q2].order.last(), Some(&ChunkId::new(39)));
        assert_eq!(p.orders[&q2].order.len(), 100);
    }

    #[test]
    fn non_overlapping_query_starts_at_its_own_range() {
        let mut s = state(100, 10);
        let mut p = AttachPolicy::new();
        let q1 = register(&mut s, 1, 0, 20);
        p.on_register(q1, &s);
        let q2 = register(&mut s, 2, 50, 70);
        p.on_register(q2, &s);
        assert_eq!(p.consumption_point(&s, q2), Some(ChunkId::new(50)));
    }

    #[test]
    fn attached_queries_share_loads() {
        let mut s = state(20, 10);
        let mut p = AttachPolicy::new();
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
        let mut p = AttachPolicy::new();
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
        let mut p = AttachPolicy::new();
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
        let mut p = AttachPolicy::new();
        let q1 = register(&mut s, 1, 0, 2);
        p.on_register(q1, &s);
        p.on_query_finished(q1, &s);
        assert!(p.consumption_point(&s, q1).is_none());
    }
}
