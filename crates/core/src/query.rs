//! Per-query bookkeeping inside the Active Buffer Manager.

use crate::bitset::ChunkBitSet;
use crate::colset::ColSet;
use cscan_simdisk::{SimDuration, SimTime};
use cscan_storage::{ChunkId, ScanRanges};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a registered CScan query.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryId(pub u64);

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Runtime state of one registered query, maintained by [`crate::AbmState`].
#[derive(Debug, Clone)]
pub struct QueryState {
    /// The query's identifier.
    pub id: QueryId,
    /// Human-readable label (e.g. "F-10" for a FAST 10% scan).
    pub label: String,
    /// The chunk ranges the query asked for at registration time.
    pub ranges: ScanRanges,
    /// The columns the query needs (all columns for NSM tables).
    pub columns: ColSet,
    /// Registration time.
    pub registered_at: SimTime,
    /// Per-chunk "still needed" bits, indexed by chunk id.  A chunk is
    /// needed until the query *finishes* processing it.  Stored as a bitset
    /// so the relevance policy's chunk argmax can intersect it word-wise
    /// with the ABM's residency and starved-interest sets.
    needed: ChunkBitSet,
    /// The requested chunks in table order (fixed at registration); iteration
    /// over the remaining chunks walks this list from `first_needed` and
    /// filters by `needed`.
    chunks: Vec<ChunkId>,
    /// The consumption cursor: every chunk of `chunks` before this index
    /// has been consumed.  `needed` bits are only ever cleared, so it only
    /// moves forward, and it stays exact when chunks are consumed out of
    /// order: it stops at the first chunk still needed.
    first_needed: usize,
    /// Number of chunks still needed (kept in sync with `needed`).
    needed_count: u32,
    /// Total chunks originally requested.
    total: u32,
    /// Cached number of *available* chunks (resident chunks this query still
    /// needs, including the one being processed).  Maintained incrementally
    /// by `AbmState` on every load / evict / processing transition; the
    /// starvation tests of the relevance policy read it in O(1).
    pub(crate) available: u32,
    /// The chunk currently being processed, if any.
    pub processing: Option<ChunkId>,
    /// Number of chunks fully processed.
    pub processed: u32,
    /// Time at which the query last became blocked (no available chunk), if blocked.
    pub blocked_since: Option<SimTime>,
    /// Accumulated time spent blocked waiting for data.
    pub total_blocked: SimDuration,
    /// Number of chunk loads issued on behalf of this query (it was the trigger).
    pub ios_triggered: u64,
}

impl QueryState {
    /// Creates the bookkeeping for a newly registered query.
    pub fn new(
        id: QueryId,
        label: impl Into<String>,
        ranges: ScanRanges,
        columns: ColSet,
        num_chunks: u32,
        now: SimTime,
    ) -> Self {
        let mut needed = ChunkBitSet::new(num_chunks as usize);
        let mut chunks = Vec::new();
        for c in ranges.iter() {
            if (c.index()) < num_chunks {
                if !needed.contains(c.as_usize()) {
                    chunks.push(c);
                }
                needed.insert(c.as_usize());
            }
        }
        chunks.sort_unstable();
        let total = chunks.len() as u32;
        Self {
            id,
            label: label.into(),
            ranges,
            columns,
            registered_at: now,
            needed,
            chunks,
            first_needed: 0,
            needed_count: total,
            total,
            available: 0,
            processing: None,
            processed: 0,
            blocked_since: None,
            total_blocked: SimDuration::ZERO,
            ios_triggered: 0,
        }
    }

    /// Total number of chunks the query asked for.
    pub fn total_chunks(&self) -> u32 {
        self.total
    }

    /// Number of chunks the query still needs (including the one currently
    /// being processed, as in the paper's starvation definition).
    pub fn chunks_needed(&self) -> u32 {
        self.needed_count
    }

    /// Whether the query still needs `chunk`.
    pub fn needs(&self, chunk: ChunkId) -> bool {
        self.needed.contains(chunk.as_usize())
    }

    /// The "still needed" set as bitset words (64 chunks per word), for the
    /// relevance policy's word-wise chunk argmax.
    pub(crate) fn needed_words(&self) -> &[u64] {
        self.needed.words()
    }

    /// Whether the query still needs `chunk` but is not currently processing it.
    pub fn needs_and_not_processing(&self, chunk: ChunkId) -> bool {
        self.needs(chunk) && self.processing != Some(chunk)
    }

    /// Whether every requested chunk has been processed.
    pub fn is_finished(&self) -> bool {
        self.needed_count == 0
    }

    /// Whether the query needs a chunk that is not resident for its
    /// columns: only such a chunk can be a load.
    pub fn misses_a_chunk(&self) -> bool {
        self.needed_count > self.available
    }

    /// Iterator over the chunks still needed, in table order.  It starts at
    /// the consumption cursor, so a scan consumed in order finds its next
    /// chunk in O(1); the full walk costs O(chunks requested past the
    /// cursor), whatever the table size.
    pub fn remaining_chunks(&self) -> impl Iterator<Item = ChunkId> + '_ {
        self.remaining_chunks_before(self.chunks.len())
    }

    /// [`Self::remaining_chunks`] among the first `end` requested chunks
    /// ([`Self::requested_chunks`]).
    pub(crate) fn remaining_chunks_before(&self, end: usize) -> impl Iterator<Item = ChunkId> + '_ {
        self.chunks[self.first_needed.min(end)..end]
            .iter()
            .copied()
            .filter(|c| self.needed.contains(c.as_usize()))
    }

    /// The requested chunks in table order, fixed at registration, whether
    /// still needed or not.
    pub(crate) fn requested_chunks(&self) -> &[ChunkId] {
        &self.chunks
    }

    /// Every requested chunk from the first, filtered by `needed`: the
    /// reference the cursor walk of [`Self::remaining_chunks`] is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn remaining_chunks_brute(&self) -> impl Iterator<Item = ChunkId> + '_ {
        self.chunks
            .iter()
            .copied()
            .filter(|c| self.needed.contains(c.as_usize()))
    }

    /// Cached number of available chunks (see [`crate::AbmState::available_chunks`]).
    pub fn available_chunks(&self) -> u32 {
        self.available
    }

    /// Marks the start of processing of `chunk`.
    ///
    /// # Panics
    /// Panics if the query is already processing a chunk or does not need `chunk`.
    pub fn start_processing(&mut self, chunk: ChunkId) {
        assert!(
            self.processing.is_none(),
            "{:?} is already processing {:?}",
            self.id,
            self.processing
        );
        assert!(self.needs(chunk), "{:?} does not need {chunk:?}", self.id);
        self.processing = Some(chunk);
    }

    /// Marks the end of processing of `chunk`; the chunk is no longer needed.
    ///
    /// # Panics
    /// Panics if the query was not processing `chunk`.
    pub fn finish_processing(&mut self, chunk: ChunkId) {
        assert_eq!(
            self.processing,
            Some(chunk),
            "{:?} was not processing {chunk:?}",
            self.id
        );
        self.processing = None;
        if self.needed.contains(chunk.as_usize()) {
            self.needed.remove(chunk.as_usize());
            self.needed_count -= 1;
            self.processed += 1;
            // Step past the consumed prefix only: a chunk consumed ahead of
            // the cursor leaves it where it is.
            while self
                .chunks
                .get(self.first_needed)
                .is_some_and(|c| !self.needed.contains(c.as_usize()))
            {
                self.first_needed += 1;
            }
        }
    }

    /// Records that the query became blocked at `now`.
    pub fn block(&mut self, now: SimTime) {
        if self.blocked_since.is_none() {
            self.blocked_since = Some(now);
        }
    }

    /// Records that the query was unblocked at `now`, accumulating waiting time.
    pub fn unblock(&mut self, now: SimTime) {
        if let Some(since) = self.blocked_since.take() {
            self.total_blocked += now.duration_since(since);
        }
    }

    /// Whether the query is currently blocked waiting for data.
    pub fn is_blocked(&self) -> bool {
        self.blocked_since.is_some()
    }

    /// How long the query has been continuously blocked as of `now`.
    pub fn waiting_time(&self, now: SimTime) -> SimDuration {
        match self.blocked_since {
            Some(since) => now.duration_since(since),
            None => SimDuration::ZERO,
        }
    }

    /// Fraction of the requested chunks already processed.
    pub fn progress(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.processed as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(ranges: ScanRanges) -> QueryState {
        QueryState::new(
            QueryId(1),
            "F-10",
            ranges,
            ColSet::first_n(1),
            100,
            SimTime::ZERO,
        )
    }

    #[test]
    fn needed_chunks_tracking() {
        let mut q = make(ScanRanges::single(10, 15));
        assert_eq!(q.total_chunks(), 5);
        assert_eq!(q.chunks_needed(), 5);
        assert!(q.needs(ChunkId::new(10)));
        assert!(!q.needs(ChunkId::new(15)));
        assert!(!q.is_finished());
        assert_eq!(q.remaining_chunks().count(), 5);

        q.start_processing(ChunkId::new(12));
        assert!(q.needs(ChunkId::new(12)));
        assert!(!q.needs_and_not_processing(ChunkId::new(12)));
        assert!(q.needs_and_not_processing(ChunkId::new(13)));
        q.finish_processing(ChunkId::new(12));
        assert_eq!(q.chunks_needed(), 4);
        assert_eq!(q.processed, 1);
        assert!(!q.needs(ChunkId::new(12)));
        assert!((q.progress() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn finishes_after_all_chunks() {
        let mut q = make(ScanRanges::single(0, 3));
        for c in 0..3 {
            q.start_processing(ChunkId::new(c));
            q.finish_processing(ChunkId::new(c));
        }
        assert!(q.is_finished());
        assert_eq!(q.progress(), 1.0);
        assert_eq!(q.remaining_chunks().count(), 0);
    }

    #[test]
    fn out_of_range_chunks_are_ignored() {
        // Ranges extending past the table are clipped by the needed bitmap.
        let q = QueryState::new(
            QueryId(2),
            "clip",
            ScanRanges::single(95, 120),
            ColSet::first_n(1),
            100,
            SimTime::ZERO,
        );
        assert_eq!(q.total_chunks(), 5);
        assert!(!q.needs(ChunkId::new(100)));
    }

    #[test]
    fn cursor_stops_at_the_first_chunk_still_needed() {
        let mut q = make(ScanRanges::single(0, 5));
        let consume = |q: &mut QueryState, c| {
            q.start_processing(ChunkId::new(c));
            q.finish_processing(ChunkId::new(c));
        };
        // Out of order: chunk 0 is still needed, so the walk starts there.
        consume(&mut q, 2);
        consume(&mut q, 3);
        let remaining =
            |q: &QueryState| -> Vec<u32> { q.remaining_chunks().map(|c| c.index()).collect() };
        assert_eq!(remaining(&q), vec![0, 1, 4]);
        consume(&mut q, 0);
        assert_eq!(remaining(&q), vec![1, 4]);
        // Consuming chunk 1 moves the cursor past the consumed 2 and 3.
        consume(&mut q, 1);
        assert_eq!(q.first_needed, 4);
        assert_eq!(remaining(&q), vec![4]);
        consume(&mut q, 4);
        assert_eq!(q.first_needed, 5);
        assert_eq!(remaining(&q), Vec::<u32>::new());
    }

    #[test]
    fn blocking_accumulates_waiting_time() {
        let mut q = make(ScanRanges::single(0, 5));
        q.block(SimTime::from_secs(1));
        assert!(q.is_blocked());
        assert_eq!(
            q.waiting_time(SimTime::from_secs(4)),
            SimDuration::from_secs(3)
        );
        q.unblock(SimTime::from_secs(4));
        assert!(!q.is_blocked());
        assert_eq!(q.total_blocked, SimDuration::from_secs(3));
        // Blocking twice without unblocking keeps the earliest timestamp.
        q.block(SimTime::from_secs(10));
        q.block(SimTime::from_secs(12));
        q.unblock(SimTime::from_secs(13));
        assert_eq!(q.total_blocked, SimDuration::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "already processing")]
    fn double_start_panics() {
        let mut q = make(ScanRanges::single(0, 5));
        q.start_processing(ChunkId::new(0));
        q.start_processing(ChunkId::new(1));
    }

    #[test]
    #[should_panic(expected = "was not processing")]
    fn finish_wrong_chunk_panics() {
        let mut q = make(ScanRanges::single(0, 5));
        q.start_processing(ChunkId::new(0));
        q.finish_processing(ChunkId::new(1));
    }

    #[test]
    #[should_panic(expected = "does not need")]
    fn processing_unneeded_chunk_panics() {
        let mut q = make(ScanRanges::single(0, 5));
        q.start_processing(ChunkId::new(50));
    }

    #[test]
    fn multi_range_queries() {
        let ranges = ScanRanges::from_ranges(vec![
            cscan_storage::ChunkRange::new(0, 3),
            cscan_storage::ChunkRange::new(50, 53),
        ]);
        let q = make(ranges);
        assert_eq!(q.total_chunks(), 6);
        let remaining: Vec<u32> = q.remaining_chunks().map(|c| c.index()).collect();
        assert_eq!(remaining, vec![0, 1, 2, 50, 51, 52]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", QueryId(7)), "Q7");
        assert_eq!(format!("{:?}", QueryId(7)), "Q7");
    }
}
