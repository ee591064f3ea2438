//! The pool's counters.

use serde::{Deserialize, Serialize};

/// Hit/miss/eviction/pin counters.
///
/// `hits + misses == pins`: every [`ShardedPool::pin`] of a resident chunk
/// is a hit, and every [`ShardedPool::install`] pins for its own duration —
/// a miss when it makes the chunk resident, a hit when it merges into a
/// slot that already is.  `pins - unpins` is the number of pins outstanding.
///
/// [`ShardedPool::pin`]: crate::ShardedPool::pin
/// [`ShardedPool::install`]: crate::ShardedPool::install
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Pins and installs that found the chunk resident.
    pub hits: u64,
    /// Installs that made a chunk resident.
    pub misses: u64,
    /// Chunks evicted.
    pub evictions: u64,
    /// Number of pin operations (deliveries and installs).
    pub pins: u64,
    /// Number of unpin operations.
    pub unpins: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; zero if nothing was pinned yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for PoolStats {
    fn add_assign(&mut self, rhs: PoolStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
        self.pins += rhs.pins;
        self.unpins += rhs.unpins;
    }
}

#[cfg(test)]
mod tests {
    use crate::ShardedPool;
    use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
    use cscan_storage::{ChunkId, ChunkPayload, ColumnId, Compression};
    use std::sync::Arc;

    fn chunk(c: u32) -> ChunkId {
        ChunkId::new(c)
    }

    /// A pool with the chunks of `resident` installed.
    fn pool_with(num_chunks: usize, resident: &[u32]) -> ShardedPool {
        let pool = ShardedPool::new(num_chunks);
        for &c in resident {
            assert!(pool.install(chunk(c), ChunkPayload::Missing));
        }
        pool
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = pool_with(2, &[1]);
        assert!(pool.pin(chunk(1)));
        pool.unpin(chunk(1));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        // A merge into the resident slot is a hit too.
        assert!(pool.install(chunk(1), ChunkPayload::Missing));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.pins, s.unpins), (2, 1, 3, 3));
    }

    #[test]
    fn pinned_pages_are_never_victims() {
        let pool = pool_with(2, &[0, 1]);
        assert!(pool.pin(chunk(0)));
        assert!(pool.pin(chunk(1)));
        assert!(pool.evict(chunk(0)).is_none());
        assert!(pool.evict(chunk(1)).is_none());
        pool.unpin(chunk(0));
        // Only the unpinned one can go.
        assert!(pool.evict(chunk(0)).is_some());
        assert!(!pool.contains(chunk(0)));
        assert!(pool.contains(chunk(1)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn explicit_page_eviction() {
        let pool = pool_with(4, &[1]);
        assert!(pool.pin(chunk(1)));
        assert!(
            pool.evict(chunk(1)).is_none(),
            "pinned chunk cannot be evicted"
        );
        pool.unpin(chunk(1));
        assert!(pool.evict(chunk(1)).is_some());
        assert!(pool.evict(chunk(1)).is_none(), "already gone");
        assert!(!pool.contains(chunk(1)));
    }

    #[test]
    fn lookup_and_pin_count() {
        let pool = pool_with(8, &[7]);
        assert!(pool.pin(chunk(7)));
        assert!(pool.contains(chunk(7)));
        assert_eq!(pool.pin_count(chunk(7)), Some(1));
        assert_eq!(pool.pin_count(chunk(6)), None);
        pool.unpin(chunk(7));
        assert_eq!(pool.pin_count(chunk(7)), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_capacity_rejected() {
        let _ = ShardedPool::new(0);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned chunk")]
    fn unpin_unknown_page_panics() {
        pool_with(2, &[1]).unpin(chunk(1));
    }

    #[test]
    fn pin_without_install_and_pin_stats() {
        let pool = ShardedPool::new(8);
        // pin() never installs: a miss is a no-op.
        assert!(!pool.pin(chunk(5)));
        assert_eq!(pool.stats().pins, 0);
        pool.install(chunk(5), ChunkPayload::Missing);
        assert!(pool.pin(chunk(5)));
        assert!(pool.pin(chunk(5)));
        assert_eq!(pool.pin_count(chunk(5)), Some(2));
        assert_eq!(pool.pinned_frames(), 1);
        pool.unpin(chunk(5));
        assert_eq!(pool.pinned_frames(), 1);
        pool.unpin(chunk(5));
        assert_eq!(pool.pinned_frames(), 0);
        let s = pool.stats();
        assert_eq!((s.pins, s.unpins), (3, 3));
    }

    fn compressed(values: &[i64]) -> ChunkPayload {
        ChunkData::from_parts(vec![(
            ColumnId::new(0),
            ColumnChunk::encode(values, Compression::Dictionary { bits: 3 }),
        )])
        .into()
    }

    #[test]
    fn payload_lives_and_dies_with_residency() {
        let pool = ShardedPool::new(2);
        let payload: ChunkPayload = ChunkData::from_parts(vec![(
            ColumnId::new(0),
            ColumnChunk::Plain(Arc::new(vec![1, 2, 3])),
        )])
        .into();
        assert_eq!(pool.payload(chunk(1)), None);
        pool.install(chunk(1), payload.clone());
        assert_eq!(pool.payload(chunk(1)), Some(payload.clone()));
        assert_eq!(pool.payload(chunk(0)), None);
        // A pin holder keeps reading what it pinned, even across a
        // replacement; eviction hands back whatever is there.
        assert!(pool.pin(chunk(1)));
        pool.replace_payload(chunk(1), ChunkPayload::Missing);
        assert_eq!(pool.payload(chunk(1)), Some(ChunkPayload::Missing));
        pool.unpin(chunk(1));
        assert_eq!(pool.evict(chunk(1)), Some(ChunkPayload::Missing));
        assert_eq!(pool.payload(chunk(1)), None);
    }

    #[test]
    fn payload_state_tracks_the_compressed_to_decoded_lifecycle() {
        let pool = ShardedPool::new(2);
        let values: Vec<i64> = (0..256).map(|i| i % 5).collect();
        // Install *compressed* bytes (what an I/O worker commits).
        let payload = compressed(&values);
        pool.install(chunk(1), payload.clone());
        assert_eq!(pool.compressed_frames(), 1);
        // A consumer's decode flips the shared state to decoded — the
        // pool sees it without re-installation because payload clones share
        // the column cache.
        assert!(payload.decode_all() > 0);
        assert_eq!(pool.compressed_frames(), 0);
        assert!(pool.payload(chunk(1)).unwrap().is_fully_decoded());
        // Eviction drops both states; a fresh install is compressed again.
        assert!(pool.evict(chunk(1)).is_some());
        pool.install(chunk(1), compressed(&values));
        assert_eq!(pool.compressed_frames(), 1);
        // A metadata-only install has nothing to decode.
        pool.install(chunk(0), ChunkPayload::Missing);
        assert_eq!(pool.compressed_frames(), 1);
    }

    #[test]
    #[should_panic(expected = "payload replacement for non-resident chunk")]
    fn payload_install_requires_residency() {
        ShardedPool::new(1).replace_payload(chunk(0), ChunkPayload::Missing);
    }
}
