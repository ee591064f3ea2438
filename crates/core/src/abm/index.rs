//! The shared chunk index: the scheduling-relevant per-chunk sets and
//! counters, maintained incrementally and queried by *all four* policies.
//!
//! [`ChunkIndex`] is the read side of the Active Buffer Manager's
//! bookkeeping.  [`super::AbmState`] owns one and keeps it in sync under
//! every state transition; policies only ever read it.  It answers, in O(1)
//! or word-wise (64 chunks per instruction):
//!
//! * **residency** — which chunks have any buffered entry
//!   ([`ChunkIndex::resident_words`]), and which of those miss some column
//!   ([`ChunkIndex::partial_words`]);
//! * **interest** — how many active queries still need each chunk
//!   ([`ChunkIndex::interested`]), with the non-zero set materialized as a
//!   bitset ([`ChunkIndex::interested_any_words`]) so the elevator sweep can
//!   skip unwanted regions word-wise;
//! * **starvation-weighted interest** — per-chunk counts of interested
//!   starved / almost-starved queries, bucketed by the starved count as
//!   bitsets ([`ChunkIndex::starved_bucket_words`]) for the relevance
//!   policy's chunk argmax (row and column stores alike), plus the union set
//!   ([`ChunkIndex::starved_any_words`]) for its eviction guard;
//! * **in-flight loads** — which chunks have an outstanding read
//!   ([`ChunkIndex::inflight_words`]), excluded from every policy's load
//!   candidates.
//!
//! The index holds the current state only: no policy keeps anything derived
//! from it between decisions, so a transition has nobody to notify.
//!
//! Keeping all of this in one shared structure (instead of scattered across
//! `AbmState` fields) is what lets the traditional policies drop their
//! per-call buffer walks: `lru_victim` and the elevator's `next_wanted` now
//! walk the residency / interest words exactly like the relevance argmaxes
//! of PR 1/2.
//!
//! Every maintenance entry point is `pub(crate)`: only [`super::AbmState`]
//! mutates the index, and [`super::AbmState::validate_counters`]
//! cross-checks every set and counter against its brute-force definition
//! after each transition in debug builds.

use crate::bitset::ChunkBitSet;
use cscan_storage::ChunkId;

/// The shared per-chunk scheduling index (see module docs).
#[derive(Debug, Clone)]
pub struct ChunkIndex {
    /// Table size, in chunks (fixes every bitset's capacity).
    num_chunks: usize,
    /// Per-chunk count of active queries that still need the chunk.
    interested: Vec<u32>,
    /// Per-chunk count of interested queries that are starved.
    interested_starved: Vec<u32>,
    /// Per-chunk count of interested queries that are starved *or* almost
    /// starved (`is_almost_starved` includes starved queries).
    interested_almost_starved: Vec<u32>,
    /// Chunks with a buffered entry (any columns).  The relevance chunk
    /// argmax walks its complement for the chunks missing altogether.
    resident: ChunkBitSet,
    /// Resident chunks missing some column of the table: the only resident
    /// chunks a load can add to (none, on a table of one column group).
    partial: ChunkBitSet,
    /// Chunks with `interested > 0`: the elevator sweep's candidate set and
    /// the complement of its eviction filter.
    interested_any: ChunkBitSet,
    /// Bucket bitsets over `interested_starved`: `starved_buckets[s]` holds
    /// exactly the chunks whose starved-interest count equals `s` (s ≥ 1;
    /// chunks with zero starved interest are in no bucket).  Maintained in
    /// O(1) per counter change, they let the relevance chunk argmax walk
    /// missing chunks from the highest starved interest down word-wise,
    /// stopping once a bucket's `loadRelevance` bound falls below the best
    /// chunk found, instead of sweeping the trigger's whole scan range.
    starved_buckets: Vec<ChunkBitSet>,
    /// Chunks with `interested_starved > 0` (the union of all buckets), kept
    /// in O(1) per counter change.  Its complement filters the relevance
    /// policy's strict eviction pass (`usefulForStarvedQuery`) word-wise.
    starved_any: ChunkBitSet,
    /// Highest non-empty bucket index (0 when all buckets are empty).
    max_starved: usize,
    /// Chunks with an outstanding load; excluded from every policy's load
    /// candidates and from eviction.
    inflight: ChunkBitSet,
}

impl ChunkIndex {
    /// Creates an empty index over a table of `num_chunks` chunks.
    pub(crate) fn new(num_chunks: usize) -> Self {
        Self {
            num_chunks,
            interested: vec![0; num_chunks],
            interested_starved: vec![0; num_chunks],
            interested_almost_starved: vec![0; num_chunks],
            resident: ChunkBitSet::new(num_chunks),
            partial: ChunkBitSet::new(num_chunks),
            interested_any: ChunkBitSet::new(num_chunks),
            starved_buckets: Vec::new(),
            starved_any: ChunkBitSet::new(num_chunks),
            max_starved: 0,
            inflight: ChunkBitSet::new(num_chunks),
        }
    }

    // ------------------------------------------------------------------
    // Read API (policies).
    // ------------------------------------------------------------------

    /// Number of active queries that still need `chunk`.  O(1).
    #[inline]
    pub fn interested(&self, chunk: ChunkId) -> u32 {
        self.interested[chunk.as_usize()]
    }

    /// Number of starved queries interested in `chunk`.  O(1).
    #[inline]
    pub fn interested_starved(&self, chunk: ChunkId) -> u32 {
        self.interested_starved[chunk.as_usize()]
    }

    /// Number of almost-starved queries interested in `chunk`.  O(1).
    #[inline]
    pub fn interested_almost_starved(&self, chunk: ChunkId) -> u32 {
        self.interested_almost_starved[chunk.as_usize()]
    }

    /// Whether `chunk` has any buffered entry.  O(1).
    #[inline]
    pub fn is_resident(&self, chunk: ChunkId) -> bool {
        self.resident.contains(chunk.as_usize())
    }

    /// Whether a load of `chunk` is outstanding.  O(1).
    #[inline]
    pub fn is_inflight(&self, chunk: ChunkId) -> bool {
        self.inflight.contains(chunk.as_usize())
    }

    /// Bitset words of the resident chunks (64 chunks per word).
    #[inline]
    pub fn resident_words(&self) -> &[u64] {
        self.resident.words()
    }

    /// Bitset words of the resident chunks missing some column.
    #[inline]
    pub fn partial_words(&self) -> &[u64] {
        self.partial.words()
    }

    /// Bitset words of the chunks at least one active query still needs.
    #[inline]
    pub fn interested_any_words(&self) -> &[u64] {
        self.interested_any.words()
    }

    /// Bitset words of the chunks with an outstanding load.
    #[inline]
    pub fn inflight_words(&self) -> &[u64] {
        self.inflight.words()
    }

    /// Bitset words of the chunks needed by at least one starved query
    /// (`interested_starved > 0`).
    #[inline]
    pub fn starved_any_words(&self) -> &[u64] {
        self.starved_any.words()
    }

    /// Highest `interested_starved` value of any chunk (0 when no chunk has
    /// starved interest).  O(1).
    #[inline]
    pub fn max_interested_starved(&self) -> usize {
        self.max_starved
    }

    /// Bitset words of the chunks whose `interested_starved` count equals
    /// `s`.  Missing buckets read as empty.
    pub fn starved_bucket_words(&self, s: usize) -> &[u64] {
        self.starved_buckets
            .get(s)
            .map(|b| b.words())
            .unwrap_or(&[])
    }

    /// Iterates the resident chunks in ascending order, word-wise (empty
    /// words cost 1/64th of a comparison each).
    pub fn resident_chunks(&self) -> impl Iterator<Item = ChunkId> + '_ {
        self.resident.iter().map(|c| ChunkId::new(c as u32))
    }

    // ------------------------------------------------------------------
    // Maintenance API (AbmState only).
    // ------------------------------------------------------------------

    /// Sets `interested_starved[c]` to `new`, keeping the bucket bitsets and
    /// the `max_starved` hint in sync.  O(1) amortized (the shrink loop only
    /// undoes previous growth).
    fn set_interested_starved(&mut self, c: usize, new: u32) {
        let old = self.interested_starved[c];
        if old == new {
            return;
        }
        self.interested_starved[c] = new;
        if old > 0 {
            self.starved_buckets[old as usize].remove(c);
            if new == 0 {
                self.starved_any.remove(c);
            }
            if old as usize == self.max_starved && new < old {
                while self.max_starved > 0 && self.starved_buckets[self.max_starved].is_empty() {
                    self.max_starved -= 1;
                }
            }
        }
        if new > 0 {
            self.starved_any.insert(c);
            let n = new as usize;
            if self.starved_buckets.len() <= n {
                let cap = self.num_chunks;
                self.starved_buckets
                    .resize_with(n + 1, || ChunkBitSet::new(cap));
            }
            self.starved_buckets[n].insert(c);
            self.max_starved = self.max_starved.max(n);
        }
    }

    /// Adds one query's interest in `chunk`, contributed at starvation
    /// `level` (0 starved, 1 almost starved, 2 fed).
    pub(crate) fn add_interest(&mut self, chunk: ChunkId, level: u8) {
        let c = chunk.as_usize();
        self.interested[c] += 1;
        if self.interested[c] == 1 {
            self.interested_any.insert(c);
        }
        if level == 0 {
            let s = self.interested_starved[c] + 1;
            self.set_interested_starved(c, s);
        }
        if level <= 1 {
            self.interested_almost_starved[c] += 1;
        }
    }

    /// Removes one query's interest in `chunk`, previously contributed at
    /// starvation `level`.
    pub(crate) fn remove_interest(&mut self, chunk: ChunkId, level: u8) {
        let c = chunk.as_usize();
        self.interested[c] = self.interested[c].saturating_sub(1);
        if self.interested[c] == 0 {
            self.interested_any.remove(c);
        }
        if level == 0 {
            let s = self.interested_starved[c].saturating_sub(1);
            self.set_interested_starved(c, s);
        }
        if level <= 1 {
            self.interested_almost_starved[c] = self.interested_almost_starved[c].saturating_sub(1);
        }
    }

    /// Applies a starvation-*level* change of one interested query to
    /// `chunk`'s counters (`d_starved`, `d_almost` ∈ {-1, 0, +1}).
    pub(crate) fn shift_starvation(&mut self, chunk: ChunkId, d_starved: i64, d_almost: i64) {
        let c = chunk.as_usize();
        if d_starved != 0 {
            let s = (self.interested_starved[c] as i64 + d_starved) as u32;
            self.set_interested_starved(c, s);
        }
        self.interested_almost_starved[c] =
            (self.interested_almost_starved[c] as i64 + d_almost) as u32;
    }

    /// Sets `chunk`'s residency bits: resident or not, and if resident,
    /// whether some column is missing.
    pub(crate) fn set_resident(&mut self, chunk: ChunkId, resident: bool, partial: bool) {
        let c = chunk.as_usize();
        if resident {
            self.resident.insert(c);
        } else {
            self.resident.remove(c);
        }
        if resident && partial {
            self.partial.insert(c);
        } else {
            self.partial.remove(c);
        }
    }

    /// Whether `chunk` is resident with some column missing.  O(1).
    pub(crate) fn is_partial(&self, chunk: ChunkId) -> bool {
        self.partial.contains(chunk.as_usize())
    }

    /// Flips `chunk`'s in-flight bit.
    pub(crate) fn set_inflight(&mut self, chunk: ChunkId, inflight: bool) {
        if inflight {
            self.inflight.insert(chunk.as_usize());
        } else {
            self.inflight.remove(chunk.as_usize());
        }
    }

    /// Number of chunks with an outstanding load.  O(words).
    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Asserts every derived set against the flat counters (used by
    /// [`super::AbmState::validate_counters`], which first re-derives the
    /// counters themselves from the query set).
    pub(crate) fn validate_derived_sets(&self) {
        for c in 0..self.num_chunks {
            let chunk = ChunkId::new(c as u32);
            assert_eq!(
                self.interested_any.contains(c),
                self.interested[c] > 0,
                "stale interested-any bit for {chunk:?}"
            );
            let s = self.interested_starved[c] as usize;
            for (b, bucket) in self.starved_buckets.iter().enumerate() {
                assert_eq!(
                    bucket.contains(c),
                    b == s && s > 0,
                    "stale starved bucket {b} for {chunk:?}"
                );
            }
            assert_eq!(
                self.starved_any.contains(c),
                s > 0,
                "stale starved-any bit for {chunk:?}"
            );
        }
        for (b, bucket) in self.starved_buckets.iter().enumerate() {
            assert!(
                b <= self.max_starved || bucket.is_empty(),
                "max_starved hint {} below non-empty bucket {b}",
                self.max_starved
            );
        }
        if self.max_starved > 0 {
            assert!(
                !self.starved_buckets[self.max_starved].is_empty(),
                "max_starved hint {} points at an empty bucket",
                self.max_starved
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_maintains_any_set_and_buckets() {
        let mut idx = ChunkIndex::new(130);
        let c = ChunkId::new(65);
        assert_eq!(idx.interested(c), 0);
        idx.add_interest(c, 0);
        idx.add_interest(c, 2);
        assert_eq!(idx.interested(c), 2);
        assert_eq!(idx.interested_starved(c), 1);
        assert_eq!(idx.interested_almost_starved(c), 1);
        assert_eq!(idx.interested_any_words()[1] & (1 << 1), 1 << 1);
        assert_eq!(idx.max_interested_starved(), 1);
        assert_eq!(idx.starved_bucket_words(1)[1] & (1 << 1), 1 << 1);
        idx.remove_interest(c, 0);
        idx.remove_interest(c, 2);
        assert_eq!(idx.interested(c), 0);
        assert_eq!(idx.interested_any_words()[1], 0);
        assert_eq!(idx.max_interested_starved(), 0);
        idx.validate_derived_sets();
    }

    #[test]
    fn starvation_shift_moves_buckets() {
        let mut idx = ChunkIndex::new(64);
        let c = ChunkId::new(3);
        idx.add_interest(c, 2); // fed: no starved contribution
        idx.shift_starvation(c, 1, 1); // the query became starved
        assert_eq!(idx.interested_starved(c), 1);
        assert_eq!(idx.interested_almost_starved(c), 1);
        idx.shift_starvation(c, -1, 0); // starved -> almost starved
        assert_eq!(idx.interested_starved(c), 0);
        assert_eq!(idx.interested_almost_starved(c), 1);
        idx.validate_derived_sets();
    }

    #[test]
    fn residency_and_inflight_bits() {
        let mut idx = ChunkIndex::new(70);
        let c = ChunkId::new(68);
        idx.set_resident(c, true, true);
        idx.set_inflight(c, true);
        assert!(idx.is_resident(c));
        assert!(idx.is_partial(c));
        assert!(idx.is_inflight(c));
        assert_eq!(idx.inflight_len(), 1);
        assert_eq!(idx.resident_chunks().collect::<Vec<_>>(), vec![c]);
        idx.set_resident(c, false, true);
        idx.set_inflight(c, false);
        assert!(!idx.is_resident(c));
        assert!(!idx.is_partial(c));
        assert!(!idx.is_inflight(c));
    }
}
