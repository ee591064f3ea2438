//! The chunk-indexed pin ledger.
//!
//! [`ShardedPool`] holds one slot per logical chunk — a pin count plus the
//! chunk's [`ChunkPayload`] while it is resident — in a power-of-two number
//! of mutex-guarded slot arrays: chunk `c` lives in shard `c & mask`, at
//! slot `c >> shard_bits`.  Every operation takes exactly that one shard
//! lock, a leaf in the executor's lock order (scheduler → shard, never the
//! reverse), and the pool allocates nothing after construction (only a DSM
//! merge, in `cscan_storage`, builds a new column list).
//!
//! The pool never chooses what leaves: the ABM plans every eviction and
//! calls [`ShardedPool::evict`], which refuses a slot that is still pinned
//! and hands the payload of one that is not back to the caller — to be
//! freed, or offered to the store for reuse, outside the shard lock.
//! What the pool does own is the bookkeeping its callers would otherwise
//! have to remember:
//!
//! * **Gauges.**  Registry gauges are *set*, not accumulated, so the pool
//!   keeps the cross-shard pinned and resident totals in two atomics and
//!   publishes those.
//!
//! * **Lock spans.**  Shard-lock hold times land in the registry's
//!   `shard_lock_hold` histogram, next to the scheduler's `lock_hold`.

use crate::pool::PoolStats;
use cscan_obs::{Counter, Gauge, Registry, SpanKind, SpanTimer};
use cscan_storage::{ChunkId, ChunkPayload};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The largest shard count a pool will stripe into.  Shards beyond the
/// chunk count (or beyond what a lock per 16-way stripe buys) only add
/// footprint, so the count is `min(num_chunks.next_power_of_two(), 16)`.
pub const MAX_SHARDS: usize = 16;

/// One chunk's entry: resident exactly while `payload` is `Some`, and
/// pinned only while resident.
#[derive(Default)]
struct Slot {
    pins: u32,
    payload: Option<ChunkPayload>,
}

/// What one shard lock protects.
struct Shard {
    slots: Box<[Slot]>,
    stats: PoolStats,
}

/// The data plane's page table, pin ledger and payload store at chunk
/// granularity.  See the module docs.
pub struct ShardedPool {
    shards: Box<[Mutex<Shard>]>,
    shard_bits: u32,
    num_chunks: usize,
    /// Slots with at least one pin, over all shards.
    pinned: AtomicU64,
    /// Resident slots, over all shards.
    resident: AtomicU64,
    obs: Option<Arc<Registry>>,
}

/// A locked shard plus the slot index of the chunk it was locked for.
/// Dropping it unlocks, then records the hold time.
struct Locked<'a> {
    shard: MutexGuard<'a, Shard>,
    slot: usize,
    _held: Option<SpanTimer<'a>>,
}

impl Locked<'_> {
    fn parts(&mut self) -> (&mut Slot, &mut PoolStats) {
        let shard = &mut *self.shard;
        (&mut shard.slots[self.slot], &mut shard.stats)
    }
}

impl ShardedPool {
    /// Creates a pool with one slot per logical chunk, striped over
    /// `min(num_chunks.next_power_of_two(), MAX_SHARDS)` shards.
    ///
    /// # Panics
    /// Panics if `num_chunks` is zero.
    pub fn new(num_chunks: usize) -> Self {
        assert!(num_chunks > 0, "the pool needs at least one chunk");
        let shards = num_chunks.next_power_of_two().min(MAX_SHARDS);
        let per_shard = num_chunks.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: (0..per_shard).map(|_| Slot::default()).collect(),
                        stats: PoolStats::default(),
                    })
                })
                .collect(),
            shard_bits: shards.trailing_zeros(),
            num_chunks,
            pinned: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Mirrors the counters and the pinned/resident gauges into `obs`, and
    /// records shard-lock hold times into its `shard_lock_hold` span.
    pub fn set_observability(&mut self, obs: Arc<Registry>) {
        self.obs = Some(obs);
    }

    /// Number of shards the pool is striped into (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Locks `chunk`'s shard; `None` for a chunk id the pool has no slot
    /// for.
    fn lock(&self, chunk: ChunkId) -> Option<Locked<'_>> {
        let c = chunk.as_usize();
        if c >= self.num_chunks {
            return None;
        }
        let shard = self.shards[c & (self.shards.len() - 1)].lock();
        Some(Locked {
            shard,
            slot: c >> self.shard_bits,
            _held: self
                .obs
                .as_ref()
                .map(|obs| obs.time(SpanKind::ShardLockHold)),
        })
    }

    fn count(&self, counter: Counter) {
        if let Some(obs) = &self.obs {
            obs.inc(counter);
        }
    }

    /// Moves a cross-shard total by one and publishes it as `gauge`.
    fn step(&self, total: &AtomicU64, gauge: Gauge, up: bool) {
        let now = if up {
            total.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            total.fetch_sub(1, Ordering::AcqRel) - 1
        };
        if let Some(obs) = &self.obs {
            obs.gauge_set(gauge, now);
        }
    }

    /// Makes `chunk` resident with `payload`, or — if it already is —
    /// merges `payload` into what the slot holds (the union of the column
    /// sets, see [`ChunkPayload::merged_with`]).  Counts as one pin
    /// and one unpin, a miss for a fresh slot and a hit for a merge.
    /// Returns false, changing nothing, for a chunk id out of range.
    pub fn install(&self, chunk: ChunkId, payload: ChunkPayload) -> bool {
        let Some(mut locked) = self.lock(chunk) else {
            return false;
        };
        let (slot, stats) = locked.parts();
        stats.pins += 1;
        stats.unpins += 1;
        self.count(Counter::FramePins);
        self.count(Counter::FrameUnpins);
        match &slot.payload {
            Some(existing) => {
                slot.payload = Some(existing.merged_with(&payload));
                stats.hits += 1;
                self.count(Counter::FrameHits);
            }
            None => {
                slot.payload = Some(payload);
                stats.misses += 1;
                self.count(Counter::FrameMisses);
                self.step(&self.resident, Gauge::ResidentFrames, true);
            }
        }
        true
    }

    /// Replaces the payload of a resident chunk, pinned or not.
    ///
    /// # Panics
    /// Panics if `chunk` is not resident.
    pub fn replace_payload(&self, chunk: ChunkId, payload: ChunkPayload) {
        let mut locked = self.lock(chunk);
        match locked.as_mut().map(|l| l.parts().0) {
            Some(slot) if slot.payload.is_some() => slot.payload = Some(payload),
            _ => panic!("payload replacement for non-resident chunk {chunk}"),
        }
    }

    /// Pins `chunk` if it is resident (a hit); false, counting nothing, if
    /// it is not.
    pub fn pin(&self, chunk: ChunkId) -> bool {
        let Some(mut locked) = self.lock(chunk) else {
            return false;
        };
        let (slot, stats) = locked.parts();
        if slot.payload.is_none() {
            return false;
        }
        slot.pins += 1;
        stats.hits += 1;
        stats.pins += 1;
        self.count(Counter::FrameHits);
        self.count(Counter::FramePins);
        if slot.pins == 1 {
            self.step(&self.pinned, Gauge::PinnedFrames, true);
        }
        true
    }

    /// Returns one pin of `chunk`.
    ///
    /// # Panics
    /// Panics if `chunk` is not pinned.
    pub fn unpin(&self, chunk: ChunkId) {
        let mut locked = self.lock(chunk);
        match locked.as_mut().map(|l| l.parts()) {
            Some((slot, stats)) if slot.pins > 0 => {
                slot.pins -= 1;
                stats.unpins += 1;
                self.count(Counter::FrameUnpins);
                if slot.pins == 0 {
                    self.step(&self.pinned, Gauge::PinnedFrames, false);
                }
            }
            _ => panic!("unpin of unpinned chunk {chunk}"),
        }
    }

    /// Evicts `chunk` if it is resident and unpinned, and hands its payload
    /// to the caller: the memory is freed (or offered back to the store)
    /// wherever the caller drops it, not under the shard lock.  `None`,
    /// changing nothing, if the chunk is pinned or not resident.
    pub fn evict(&self, chunk: ChunkId) -> Option<ChunkPayload> {
        let mut locked = self.lock(chunk)?;
        let (slot, stats) = locked.parts();
        if slot.pins > 0 {
            return None;
        }
        let payload = slot.payload.take()?;
        stats.evictions += 1;
        self.count(Counter::FrameEvictions);
        self.step(&self.resident, Gauge::ResidentFrames, false);
        Some(payload)
    }

    /// The payload of `chunk` (a refcount bump, never a data copy), if it
    /// is resident.
    pub fn payload(&self, chunk: ChunkId) -> Option<ChunkPayload> {
        self.lock(chunk)?.parts().0.payload.clone()
    }

    /// Whether `chunk` is resident.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.pin_count(chunk).is_some()
    }

    /// Pin count of `chunk`, if it is resident.
    pub fn pin_count(&self, chunk: ChunkId) -> Option<u32> {
        let mut locked = self.lock(chunk)?;
        let slot = locked.parts().0;
        slot.payload.as_ref().map(|_| slot.pins)
    }

    /// Counters summed over every shard.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for shard in self.shards.iter() {
            total += shard.lock().stats;
        }
        total
    }

    /// Chunks currently pinned at least once.
    pub fn pinned_frames(&self) -> usize {
        self.pinned.load(Ordering::Acquire) as usize
    }

    /// Chunks currently resident.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Acquire) as usize
    }

    /// Resident chunks whose payload still holds encoded (not yet decoded)
    /// mini-columns.
    pub fn compressed_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard
                    .slots
                    .iter()
                    .filter(|s| s.payload.as_ref().is_some_and(|p| !p.is_fully_decoded()))
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(c: u32) -> ChunkId {
        ChunkId::new(c)
    }

    #[test]
    fn shard_count_is_a_clamped_power_of_two() {
        assert_eq!(ShardedPool::new(1).num_shards(), 1);
        assert_eq!(ShardedPool::new(5).num_shards(), 8);
        assert_eq!(ShardedPool::new(256).num_shards(), MAX_SHARDS);
    }

    #[test]
    fn every_chunk_finds_a_frame_in_its_shard() {
        // 37 chunks over 16 shards: the uneven tail still gets its slots,
        // and the first id past the end gets none.
        let p = ShardedPool::new(37);
        for c in 0..37 {
            assert!(p.install(chunk(c), ChunkPayload::Missing), "chunk {c}");
            assert!(p.pin(chunk(c)), "chunk {c}");
            p.unpin(chunk(c));
        }
        assert_eq!(p.resident(), 37);
        assert_eq!(p.pinned_frames(), 0);
        assert_eq!(p.stats().misses, 37);
        assert!(!p.install(chunk(37), ChunkPayload::Missing));
        assert!(!p.pin(chunk(37)));
        assert!(p.evict(chunk(37)).is_none());
        assert_eq!(p.payload(chunk(37)), None);
        assert_eq!(p.resident(), 37);
    }

    #[test]
    fn gauges_aggregate_across_shards_instead_of_clobbering() {
        let obs = Arc::new(Registry::new());
        let mut p = ShardedPool::new(64);
        p.set_observability(Arc::clone(&obs));
        // Chunks that land in different shards; a gauge set from one
        // shard's local count would report 1, not the total.
        for c in [0, 1, 2, 3, 17, 33] {
            p.install(chunk(c), ChunkPayload::Missing);
            assert!(p.pin(chunk(c)));
        }
        assert_eq!(obs.gauge(Gauge::PinnedFrames), 6);
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 6);
        for c in [0, 1, 2, 3] {
            p.unpin(chunk(c));
        }
        assert_eq!(obs.gauge(Gauge::PinnedFrames), 2);
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 6);
        assert!(p.evict(chunk(0)).is_some());
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 5);
        assert_eq!((p.pinned_frames(), p.resident()), (2, 5));
    }

    #[test]
    fn shard_lock_holds_are_recorded() {
        let obs = Arc::new(Registry::new());
        let mut p = ShardedPool::new(16);
        p.set_observability(Arc::clone(&obs));
        for c in 0..16 {
            p.install(chunk(c), ChunkPayload::Missing);
        }
        assert!(obs.span_hist(SpanKind::ShardLockHold).snapshot().count() >= 16);
    }
}
