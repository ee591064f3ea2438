//! Chunk-granularity buffer slots.

use crate::colset::ColSet;
use crate::query::QueryId;
use cscan_storage::{ChunkId, ChunkPayload};

/// A chunk — the column groups of it currently resident, their payload and
/// its pins — held in the Active Buffer Manager.  This is the buffer's one
/// record of the chunk: a grant clones `payload`, and nothing else holds a
/// resident chunk's data or pins.
#[derive(Debug, Clone)]
pub struct BufferedChunk {
    /// Which chunk this is.
    pub chunk: ChunkId,
    /// The columns currently resident, whole column groups.
    pub columns: ColSet,
    /// Number of buffer pages occupied by the resident columns.
    pub pages: u64,
    /// Monotonic sequence number of the load that (last) filled this chunk;
    /// used by FIFO-style consumption (elevator) and as a tie-breaker.
    pub loaded_seq: u64,
    /// Monotonic counter of the last time a query touched the chunk; used by
    /// LRU eviction in the traditional policies.
    pub last_touch: u64,
    /// Queries currently processing this chunk — its pins.  A pinned chunk
    /// is never evictable.
    pub pinned_by: Vec<QueryId>,
    /// The resident columns' data ([`ChunkPayload::Missing`] where loads
    /// carry none, as in the simulator).
    pub payload: ChunkPayload,
}

impl BufferedChunk {
    /// Creates a new buffered chunk entry.
    pub fn new(
        chunk: ChunkId,
        columns: ColSet,
        pages: u64,
        seq: u64,
        payload: ChunkPayload,
    ) -> Self {
        Self {
            chunk,
            columns,
            pages,
            loaded_seq: seq,
            last_touch: seq,
            // Pre-sized so the common pin (one or two concurrent readers)
            // never allocates on the consumer's hot path — the entry itself
            // is built at load-commit time, off the consume path.
            pinned_by: Vec::with_capacity(2),
            payload,
        }
    }

    /// True if at least one query is currently processing this chunk.
    pub fn is_pinned(&self) -> bool {
        !self.pinned_by.is_empty()
    }

    /// Pins the chunk on behalf of `q`.
    pub fn pin(&mut self, q: QueryId) {
        debug_assert!(
            !self.pinned_by.contains(&q),
            "{q:?} pinned {:?} twice",
            self.chunk
        );
        self.pinned_by.push(q);
    }

    /// Releases `q`'s pin.
    ///
    /// # Panics
    /// Panics if `q` did not hold a pin.
    pub fn unpin(&mut self, q: QueryId) {
        assert!(
            self.unpin_if_held(q),
            "{q:?} released {:?} without holding a pin",
            self.chunk
        );
    }

    /// Releases `q`'s pin if it holds one; returns whether it did.
    pub fn unpin_if_held(&mut self, q: QueryId) -> bool {
        match self.pinned_by.iter().position(|&p| p == q) {
            Some(i) => {
                self.pinned_by.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_unpin_lifecycle() {
        let mut b = BufferedChunk::new(
            ChunkId::new(3),
            ColSet::first_n(2),
            10,
            7,
            ChunkPayload::Missing,
        );
        assert!(!b.is_pinned());
        b.pin(QueryId(1));
        b.pin(QueryId(2));
        assert!(b.is_pinned());
        b.unpin(QueryId(1));
        assert!(b.is_pinned());
        b.unpin(QueryId(2));
        assert!(!b.is_pinned());
        assert_eq!(b.loaded_seq, 7);
        assert_eq!(b.last_touch, 7);
        assert_eq!(b.pages, 10);
    }

    #[test]
    #[should_panic(expected = "without holding a pin")]
    fn unpin_without_pin_panics() {
        let mut b = BufferedChunk::new(
            ChunkId::new(0),
            ColSet::first_n(1),
            1,
            0,
            ChunkPayload::Missing,
        );
        b.unpin(QueryId(9));
    }
}
