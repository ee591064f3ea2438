//! The chunk-indexed pin ledger and its counters.
//!
//! [`FramePool`] holds one slot per logical chunk — a pin count plus the
//! chunk's [`ChunkPayload`] while it is resident — in one array indexed by
//! chunk id.  It holds no lock: its owner serialises every call (the
//! threaded executor keeps it under its scheduler lock, next to the ABM
//! whose decisions it mirrors).  It allocates nothing after construction
//! (only a DSM merge, in `cscan_storage`, builds a new column list).
//!
//! The pool never chooses what leaves: the ABM plans every eviction and
//! calls [`FramePool::evict`], which refuses a slot that is still pinned
//! and hands the payload of one that is not back to the caller, which
//! frees it (or offers it to the store) where it likes.  Its counters and
//! the pinned/resident totals are plain fields, mirrored into a registry.

use cscan_obs::{Counter, Gauge, Registry};
use cscan_storage::{ChunkId, ChunkPayload};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hit/miss/eviction/pin counters.
///
/// `hits + misses == pins`: every [`FramePool::pin`] of a resident chunk
/// is a hit, and every [`FramePool::install`] pins for its own duration —
/// a miss when it makes the chunk resident, a hit when it merges into a
/// slot that already is.  `pins - unpins` is the number of pins outstanding.
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

/// One chunk's entry: resident exactly while `payload` is `Some`, and
/// pinned only while resident.
#[derive(Default)]
struct Slot {
    pins: u32,
    payload: Option<ChunkPayload>,
}

/// The data plane's page table, pin ledger and payload store at chunk
/// granularity.  See the module docs.
pub struct FramePool {
    slots: Box<[Slot]>,
    stats: PoolStats,
    /// Slots with at least one pin.
    pinned: u64,
    /// Resident slots.
    resident: u64,
    obs: Arc<Registry>,
}

impl FramePool {
    /// Creates a pool with one slot per logical chunk that mirrors its
    /// counters and the pinned/resident gauges into `obs`.
    ///
    /// # Panics
    /// Panics if `num_chunks` is zero.
    pub fn new(num_chunks: usize, obs: Arc<Registry>) -> Self {
        assert!(num_chunks > 0, "the pool needs at least one chunk");
        Self {
            slots: (0..num_chunks).map(|_| Slot::default()).collect(),
            stats: PoolStats::default(),
            pinned: 0,
            resident: 0,
            obs,
        }
    }

    /// Makes `chunk` resident with `payload`, or — if it already is —
    /// merges `payload` into what the slot holds (the union of the column
    /// sets, see [`ChunkPayload::merged_with`]).  Counts as one pin
    /// and one unpin, a miss for a fresh slot and a hit for a merge.
    /// Returns false, changing nothing, for a chunk id out of range.
    pub fn install(&mut self, chunk: ChunkId, payload: ChunkPayload) -> bool {
        let Some(slot) = self.slots.get_mut(chunk.as_usize()) else {
            return false;
        };
        let merged = match &slot.payload {
            Some(existing) => existing.merged_with(&payload),
            None => payload,
        };
        let fresh = slot.payload.replace(merged).is_none();
        self.stats.pins += 1;
        self.stats.unpins += 1;
        self.obs.inc(Counter::FramePins);
        self.obs.inc(Counter::FrameUnpins);
        if fresh {
            self.stats.misses += 1;
            self.obs.inc(Counter::FrameMisses);
            self.resident += 1;
            self.obs.gauge_set(Gauge::ResidentFrames, self.resident);
        } else {
            self.stats.hits += 1;
            self.obs.inc(Counter::FrameHits);
        }
        true
    }

    /// Replaces the payload of a resident chunk, pinned or not, and returns
    /// the payload it held.
    ///
    /// # Panics
    /// Panics if `chunk` is not resident.
    pub fn replace_payload(&mut self, chunk: ChunkId, payload: ChunkPayload) -> ChunkPayload {
        self.slots
            .get_mut(chunk.as_usize())
            .and_then(|slot| slot.payload.as_mut())
            .map(|held| std::mem::replace(held, payload))
            .unwrap_or_else(|| panic!("payload replacement for non-resident chunk {chunk}"))
    }

    /// Pins `chunk` if it is resident (a hit) and returns its payload (a
    /// refcount bump, never a data copy); `None`, counting nothing, if it
    /// is not.
    pub fn pin(&mut self, chunk: ChunkId) -> Option<ChunkPayload> {
        let slot = self.slots.get_mut(chunk.as_usize())?;
        let payload = slot.payload.clone()?;
        slot.pins += 1;
        let first = slot.pins == 1;
        self.stats.hits += 1;
        self.stats.pins += 1;
        self.obs.inc(Counter::FrameHits);
        self.obs.inc(Counter::FramePins);
        if first {
            self.pinned += 1;
            self.obs.gauge_set(Gauge::PinnedFrames, self.pinned);
        }
        Some(payload)
    }

    /// Returns one pin of `chunk`.
    ///
    /// # Panics
    /// Panics if `chunk` is not pinned.
    pub fn unpin(&mut self, chunk: ChunkId) {
        let slot = match self.slots.get_mut(chunk.as_usize()) {
            Some(slot) if slot.pins > 0 => slot,
            _ => panic!("unpin of unpinned chunk {chunk}"),
        };
        slot.pins -= 1;
        let last = slot.pins == 0;
        self.stats.unpins += 1;
        self.obs.inc(Counter::FrameUnpins);
        if last {
            self.pinned -= 1;
            self.obs.gauge_set(Gauge::PinnedFrames, self.pinned);
        }
    }

    /// Evicts `chunk` if it is resident and unpinned, and hands its payload
    /// to the caller.  `None`, changing nothing, if the chunk is pinned or
    /// not resident.
    pub fn evict(&mut self, chunk: ChunkId) -> Option<ChunkPayload> {
        let slot = self.slots.get_mut(chunk.as_usize())?;
        if slot.pins > 0 {
            return None;
        }
        let payload = slot.payload.take()?;
        self.stats.evictions += 1;
        self.obs.inc(Counter::FrameEvictions);
        self.resident -= 1;
        self.obs.gauge_set(Gauge::ResidentFrames, self.resident);
        Some(payload)
    }

    /// The payload of `chunk`, if it is resident.
    pub fn payload(&self, chunk: ChunkId) -> Option<&ChunkPayload> {
        self.slots.get(chunk.as_usize())?.payload.as_ref()
    }

    /// Pin count of `chunk`, if it is resident.
    pub fn pin_count(&self, chunk: ChunkId) -> Option<u32> {
        let slot = self.slots.get(chunk.as_usize())?;
        slot.payload.as_ref().map(|_| slot.pins)
    }

    /// The pool's counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Chunks currently pinned at least once.
    pub fn pinned_frames(&self) -> usize {
        self.pinned as usize
    }

    /// Chunks currently resident.
    pub fn resident(&self) -> usize {
        self.resident as usize
    }

    /// Resident chunks whose payload still holds encoded (not yet decoded)
    /// mini-columns.
    pub fn compressed_frames(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.payload.as_ref().is_some_and(|p| !p.is_fully_decoded()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
    use cscan_storage::{ColumnId, Compression};

    fn chunk(c: u32) -> ChunkId {
        ChunkId::new(c)
    }

    fn pool(num_chunks: usize) -> FramePool {
        FramePool::new(num_chunks, Arc::new(Registry::new()))
    }

    /// A pool with the chunks of `resident` installed.
    fn pool_with(num_chunks: usize, resident: &[u32]) -> FramePool {
        let mut pool = pool(num_chunks);
        for &c in resident {
            assert!(pool.install(chunk(c), ChunkPayload::Missing));
        }
        pool
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut pool = pool_with(2, &[1]);
        assert!(pool.pin(chunk(1)).is_some());
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
        let mut pool = pool_with(2, &[0, 1]);
        assert!(pool.pin(chunk(0)).is_some());
        assert!(pool.pin(chunk(1)).is_some());
        assert!(pool.evict(chunk(0)).is_none());
        assert!(pool.evict(chunk(1)).is_none());
        pool.unpin(chunk(0));
        // Only the unpinned one can go.
        assert!(pool.evict(chunk(0)).is_some());
        assert!(pool.payload(chunk(0)).is_none());
        assert!(pool.payload(chunk(1)).is_some());
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn explicit_page_eviction() {
        let mut pool = pool_with(4, &[1]);
        assert!(pool.pin(chunk(1)).is_some());
        assert!(
            pool.evict(chunk(1)).is_none(),
            "pinned chunk cannot be evicted"
        );
        pool.unpin(chunk(1));
        assert!(pool.evict(chunk(1)).is_some());
        assert!(pool.evict(chunk(1)).is_none(), "already gone");
        assert!(pool.payload(chunk(1)).is_none());
    }

    #[test]
    fn lookup_and_pin_count() {
        let mut pool = pool_with(8, &[7]);
        assert!(pool.pin(chunk(7)).is_some());
        assert!(pool.payload(chunk(7)).is_some());
        assert_eq!(pool.pin_count(chunk(7)), Some(1));
        assert_eq!(pool.pin_count(chunk(6)), None);
        pool.unpin(chunk(7));
        assert_eq!(pool.pin_count(chunk(7)), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned chunk")]
    fn unpin_unknown_page_panics() {
        pool_with(2, &[1]).unpin(chunk(1));
    }

    #[test]
    fn pin_without_install_and_pin_stats() {
        let mut pool = pool(8);
        // pin() never installs: a miss is a no-op.
        assert!(pool.pin(chunk(5)).is_none());
        assert_eq!(pool.stats().pins, 0);
        pool.install(chunk(5), ChunkPayload::Missing);
        assert!(pool.pin(chunk(5)).is_some());
        assert!(pool.pin(chunk(5)).is_some());
        assert_eq!(pool.pin_count(chunk(5)), Some(2));
        assert_eq!(pool.pinned_frames(), 1);
        pool.unpin(chunk(5));
        assert_eq!(pool.pinned_frames(), 1);
        pool.unpin(chunk(5));
        assert_eq!(pool.pinned_frames(), 0);
        let s = pool.stats();
        assert_eq!((s.pins, s.unpins), (3, 3));
    }

    #[test]
    fn every_chunk_has_a_slot_and_no_id_past_the_end_does() {
        // An odd chunk count: the last slot still exists, and the first id
        // past the end gets none.
        let mut p = pool(37);
        for c in 0..37 {
            assert!(p.install(chunk(c), ChunkPayload::Missing), "chunk {c}");
            assert!(p.pin(chunk(c)).is_some(), "chunk {c}");
            p.unpin(chunk(c));
        }
        assert_eq!(p.resident(), 37);
        assert_eq!(p.pinned_frames(), 0);
        assert_eq!(p.stats().misses, 37);
        assert!(!p.install(chunk(37), ChunkPayload::Missing));
        assert!(p.pin(chunk(37)).is_none());
        assert!(p.evict(chunk(37)).is_none());
        assert_eq!(p.payload(chunk(37)), None);
        assert_eq!(p.pin_count(chunk(37)), None);
        assert_eq!(p.resident(), 37);
    }

    #[test]
    fn gauges_publish_the_pinned_and_resident_totals() {
        let obs = Arc::new(Registry::new());
        let mut p = FramePool::new(64, Arc::clone(&obs));
        for c in [0, 1, 2, 3, 17, 33] {
            p.install(chunk(c), ChunkPayload::Missing);
            assert!(p.pin(chunk(c)).is_some());
        }
        // A second pin of a pinned frame does not count it twice.
        assert!(p.pin(chunk(0)).is_some());
        assert_eq!(obs.gauge(Gauge::PinnedFrames), 6);
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 6);
        for c in [0, 0, 1, 2, 3] {
            p.unpin(chunk(c));
        }
        assert_eq!(obs.gauge(Gauge::PinnedFrames), 2);
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 6);
        assert!(p.evict(chunk(0)).is_some());
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 5);
        assert_eq!((p.pinned_frames(), p.resident()), (2, 5));
        assert_eq!(obs.counter(Counter::FrameEvictions), 1);
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
        let mut pool = pool(2);
        let payload: ChunkPayload = ChunkData::from_parts(vec![(
            ColumnId::new(0),
            ColumnChunk::Plain(Arc::new(vec![1, 2, 3])),
        )])
        .into();
        assert_eq!(pool.payload(chunk(1)), None);
        pool.install(chunk(1), payload.clone());
        assert_eq!(pool.payload(chunk(1)), Some(&payload));
        assert_eq!(pool.payload(chunk(0)), None);
        // A pin carries the payload it pinned, even across a replacement;
        // eviction hands back whatever is there.
        let pinned = pool.pin(chunk(1));
        assert_eq!(
            pool.replace_payload(chunk(1), ChunkPayload::Missing),
            payload
        );
        assert_eq!(pool.payload(chunk(1)), Some(&ChunkPayload::Missing));
        assert_eq!(pinned, Some(payload));
        pool.unpin(chunk(1));
        assert_eq!(pool.evict(chunk(1)), Some(ChunkPayload::Missing));
        assert_eq!(pool.payload(chunk(1)), None);
    }

    #[test]
    fn payload_state_tracks_the_compressed_to_decoded_lifecycle() {
        let mut pool = pool(2);
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
        pool(1).replace_payload(chunk(0), ChunkPayload::Missing);
    }
}
