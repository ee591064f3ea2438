//! The `elevator` policy: one global, strictly sequential scan cursor.
//!
//! The system reads chunks in table order (skipping chunks nobody wants),
//! wrapping around at the end.  Every active query picks up the chunks it
//! needs as the cursor passes through its range.  This minimizes the number
//! of I/O requests and gives the disk a perfectly sequential pattern, but
//! query speed degenerates to the speed of the slowest query and range scans
//! may wait long before the cursor reaches their data (Section 3).

use crate::abm::{AbmState, LoadDecision};
use crate::colset::ColSet;
use crate::policy::{Policy, PolicyKind};
use crate::query::QueryId;
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;

/// Single global sequential cursor (see module docs).
#[derive(Debug, Default)]
pub struct ElevatorPolicy {
    /// The next chunk index the global cursor will consider.
    cursor: u32,
}

impl ElevatorPolicy {
    /// Creates the policy with the cursor at the start of the table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current cursor position (next chunk index to consider).
    pub fn cursor(&self) -> u32 {
        self.cursor
    }

    /// Finds the next chunk (starting at the cursor, wrapping once) that some
    /// query needs and that is missing data for those queries.  A load reads
    /// the union of the columns of every query that still needs the chunk
    /// ([`AbmState::live_columns`]; the paper: "it only loads the union of
    /// all columns needed for this position by the active queries").  Chunks whose
    /// load is already in flight are skipped, so with an asynchronous
    /// scheduler successive decisions read ahead along the sweep.
    ///
    /// The sweep walks the [`crate::abm::ChunkIndex`] word-wise —
    /// `interested_any ∧ ¬inflight ∧ ¬(resident ∧ ¬partial)`, since a chunk
    /// resident with every column needs no read — so regions of the table
    /// nobody wants cost 1/64th of an AND instead of a per-chunk check.
    /// Chooses identically to the chunk-at-a-time sweep of the reference
    /// ([`crate::policy::reference`]).
    fn next_wanted(&self, state: &AbmState) -> Option<(ChunkId, ColSet)> {
        let n = state.model().num_chunks();
        if n == 0 {
            return None;
        }
        let index = state.index();
        let wanted = index.interested_any_words();
        let inflight = index.inflight_words();
        let resident = index.resident_words();
        let partial = index.partial_words();
        let words = wanted.len();
        let start_word = (self.cursor / 64) as usize;
        'sweep: {
            // Visit every word once starting at the cursor's, then revisit
            // the start word for the indices below the cursor (the wrap).
            for step in 0..=words {
                let wi = (start_word + step) % words;
                let mut w = wanted[wi] & !inflight[wi] & !(resident[wi] & !partial[wi]);
                if step == 0 {
                    w &= !0u64 << (self.cursor % 64);
                } else if step == words {
                    w &= !(!0u64 << (self.cursor % 64));
                }
                while w != 0 {
                    let c = (wi as u32) * 64 + w.trailing_zeros();
                    w &= w - 1;
                    let chunk = ChunkId::new(c);
                    let cols = state.live_columns(chunk);
                    if state.pages_to_load(chunk, cols) > 0 {
                        break 'sweep Some((chunk, cols));
                    }
                }
            }
            None
        }
    }
}

/// The resident chunk `q` can consume that the elevator loaded first
/// (FIFO), which preserves the global sequential delivery order.
pub(super) fn fifo_chunk(state: &AbmState, q: QueryId) -> Option<ChunkId> {
    let query = state.query(q);
    state
        .buffered()
        .filter(|b| query.needs_and_not_processing(b.chunk))
        .filter(|b| query.columns.is_subset_of(b.columns))
        .min_by_key(|b| b.loaded_seq)
        .map(|b| b.chunk)
}

/// The victim of a stuck buffer, a case a column store adds and a row store
/// does not have: chunks somebody needs but nobody can consume as they
/// stand, some of their columns missing — what an earlier, narrower scan
/// left cached.  With the buffer full of those, no query holding or
/// awaiting a chunk it can use and no load on its way, waiting frees
/// nothing: the oldest of them goes, and its columns are read again along
/// with the ones its queries were waiting for.  `None` while the buffer is
/// not stuck.
pub(super) fn stuck_victim(state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
    if state.num_inflight() > 0 || state.queries().any(|q| q.available_chunks() > 0) {
        return None;
    }
    state
        .buffered()
        .filter(|b| b.chunk != load.chunk && state.is_evictable(b.chunk))
        .filter(|b| {
            !state
                .queries()
                .any(|q| q.needs(b.chunk) && q.columns.is_subset_of(b.columns))
        })
        .min_by_key(|b| b.loaded_seq)
        .map(|b| b.chunk)
}

impl Policy for ElevatorPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Elevator
    }

    fn next_load(&mut self, state: &AbmState, _now: SimTime, _slot: usize) -> Option<LoadDecision> {
        let (chunk, cols) = self.next_wanted(state)?;
        // Attribute the load to an interested query (the first one) purely
        // for accounting; the elevator itself is query-agnostic.
        let trigger = state.interested_queries(chunk).next()?;
        self.cursor = (chunk.index() + 1) % state.model().num_chunks();
        Some(LoadDecision {
            trigger,
            chunk,
            cols,
        })
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        fifo_chunk(state, q)
    }

    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        // Only chunks nobody needs any more may be evicted; evicting a chunk
        // that an interested query has not yet consumed would break the
        // "everyone picks it up as the cursor passes" contract and force a
        // re-read.  If nothing qualifies the elevator simply waits.  The
        // candidate set is `resident ∧ ¬interested_any`, walked word-wise
        // over the shared index.  With none, the buffer may be stuck.
        let index = state.index();
        let interested = index.interested_any_words();
        let mut best: Option<(u64, ChunkId)> = None;
        for (wi, &rw) in index.resident_words().iter().enumerate() {
            let mut w = rw & !interested[wi];
            while w != 0 {
                let c = (wi as u32) * 64 + w.trailing_zeros();
                w &= w - 1;
                let chunk = ChunkId::new(c);
                if chunk == load.chunk || !state.is_evictable(chunk) {
                    continue;
                }
                let seq = state
                    .buffered_chunk(chunk)
                    .map(|b| b.loaded_seq)
                    .unwrap_or(u64::MAX);
                if best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, chunk));
                }
            }
        }
        best.map(|(_, c)| c).or_else(|| stuck_victim(state, load))
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
    fn a_buffer_of_chunks_nobody_can_use_gives_up_its_oldest() {
        // What a narrow scan left cached: column 0 of chunks 0 and 1, the
        // whole four-page buffer.  A scan of both columns needs them topped
        // up, has nothing it can consume, and no chunk is without interest.
        let mut s = AbmState::new(TableModel::dsm_uniform(4, 1000, &[2, 2]), 4);
        for chunk in 0..2 {
            s.begin_load(ChunkId::new(chunk), ColSet::first_n(1));
            s.complete_load_of(ChunkId::new(chunk), ChunkPayload::Missing);
        }
        let wide = register(&mut s, 1, 0, 2);
        let mut p = ElevatorPolicy::new();
        let load = p
            .next_load(&s, SimTime::ZERO, 0)
            .expect("column 1 is missing");
        assert_eq!(
            (load.chunk, load.cols),
            (ChunkId::new(0), ColSet::first_n(2))
        );
        assert_eq!(s.available_chunks(wide), 0);
        assert_eq!(
            p.choose_victim(&s, &load),
            Some(ChunkId::new(1)),
            "waiting would free nothing"
        );
        // With a query that can make progress the elevator waits, as ever.
        let narrow = QueryId(2);
        s.register_query(
            narrow,
            "narrow",
            ScanRanges::single(1, 2),
            ColSet::first_n(1),
            SimTime::ZERO,
        );
        assert_eq!(s.available_chunks(narrow), 1);
        assert_eq!(p.choose_victim(&s, &load), None);
    }

    #[test]
    fn cursor_visits_only_wanted_chunks_in_order() {
        let mut s = state(20, 10);
        register(&mut s, 1, 2, 5);
        register(&mut s, 2, 10, 12);
        let mut p = ElevatorPolicy::new();
        let picked: Vec<u32> = std::iter::from_fn(|| {
            let d = p.next_load(&s, SimTime::ZERO, 0)?;
            // Simulate the load completing so the next call moves on.
            let cols = s.model().all_columns();
            s.begin_load(d.chunk, cols);
            s.complete_load_of(d.chunk, ChunkPayload::Missing);
            Some(d.chunk.index())
        })
        .collect();
        assert_eq!(picked, vec![2, 3, 4, 10, 11]);
        assert!(
            p.next_load(&s, SimTime::ZERO, 0).is_none(),
            "everything wanted is resident"
        );
    }

    #[test]
    fn cursor_wraps_around_for_late_queries() {
        let mut s = state(10, 10);
        register(&mut s, 1, 5, 8);
        let mut p = ElevatorPolicy::new();
        // Serve the first query up to chunk 7.
        for expected in [5, 6, 7] {
            let d = p.next_load(&s, SimTime::ZERO, 0).unwrap();
            assert_eq!(d.chunk.index(), expected);
            load(&mut s, expected);
        }
        // A new query needing earlier chunks has to wait for the wrap.
        register(&mut s, 2, 0, 2);
        let d = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(d.chunk.index(), 0, "cursor wrapped to the beginning");
    }

    #[test]
    fn queries_consume_in_load_order() {
        let mut s = state(10, 10);
        let q = register(&mut s, 1, 0, 5);
        let mut p = ElevatorPolicy::new();
        load(&mut s, 3);
        load(&mut s, 1);
        // Chunk 3 was loaded first: FIFO delivery hands it out first.
        assert_eq!(p.next_chunk(q, &s), Some(ChunkId::new(3)));
        s.start_processing(q, ChunkId::new(3));
        s.finish_processing(q, ChunkId::new(3));
        assert_eq!(p.next_chunk(q, &s), Some(ChunkId::new(1)));
    }

    #[test]
    fn eviction_protects_unconsumed_chunks() {
        let mut s = state(10, 2);
        let q1 = register(&mut s, 1, 0, 4);
        let mut p = ElevatorPolicy::new();
        load(&mut s, 0);
        load(&mut s, 1);
        let d = LoadDecision {
            trigger: q1,
            chunk: ChunkId::new(2),
            cols: s.model().all_columns(),
        };
        // Both resident chunks are still needed by q1: nothing may be evicted.
        assert_eq!(p.choose_victim(&s, &d), None);
        // After q1 consumes chunk 0 it becomes evictable.
        s.start_processing(q1, ChunkId::new(0));
        s.finish_processing(q1, ChunkId::new(0));
        assert_eq!(p.choose_victim(&s, &d), Some(ChunkId::new(0)));
    }

    #[test]
    fn no_queries_means_nothing_to_do() {
        let s = state(10, 4);
        let mut p = ElevatorPolicy::new();
        assert!(p.next_load(&s, SimTime::ZERO, 0).is_none());
        assert_eq!(p.cursor(), 0);
    }
}
