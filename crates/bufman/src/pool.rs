//! The page buffer pool.
//!
//! A fixed number of frames, a page table mapping [`PageKey`] to frames, a
//! pluggable [`ReplacementPolicy`] and hit/miss statistics.  This is the
//! "standard buffer manager" of Figure 1; the Active Buffer Manager either
//! replaces it (chunk-granularity slots) or sits on top of it by acquiring
//! page ranges (Section 7.1), which [`BufferPool::acquire_range`] models.

use crate::frame::{Frame, FrameId, PageKey};
use crate::policy::ReplacementPolicy;
use cscan_obs::{Counter, Gauge, Registry};
use cscan_storage::ChunkPayload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of a fetch: whether the page was already resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// The page was found in the pool.
    Hit(FrameId),
    /// The page was not resident and has been installed into the frame;
    /// the caller is responsible for actually reading it from disk.
    Miss(FrameId),
}

impl FetchOutcome {
    /// The frame holding the page, regardless of hit/miss.
    pub fn frame(&self) -> FrameId {
        match *self {
            FetchOutcome::Hit(f) | FetchOutcome::Miss(f) => f,
        }
    }

    /// True if the page was already resident.
    pub fn is_hit(&self) -> bool {
        matches!(self, FetchOutcome::Hit(_))
    }
}

/// Decode state of a resident frame's payload — the two-state lifecycle of
/// a compressed chunk (installed as encoded bytes at commit, decoded in
/// place by the first pin, dropped wholesale at eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadState {
    /// The frame carries no payload data (metadata-only delivery).
    Missing,
    /// At least one mini-column is still encoded: the next pin that reads
    /// it pays the decode.
    Compressed,
    /// Every mini-column is readable without a decode (plain, or already
    /// decoded by an earlier pin).
    Decoded,
}

/// Hit/miss/eviction/pin counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Number of fetches satisfied from the pool.
    pub hits: u64,
    /// Number of fetches that required a disk read.
    pub misses: u64,
    /// Number of pages evicted to make room.
    pub evictions: u64,
    /// Number of pin operations (fetches and explicit pins).
    pub pins: u64,
    /// Number of unpin operations.
    pub unpins: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]`; zero if nothing was fetched yet.
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

/// Shared gauge aggregation for a pool striped into shards.
///
/// Registry gauges are *set*, not accumulated, so a shard writing its local
/// pinned/resident count would clobber every other shard's contribution.
/// Shards that share a hub instead publish only their *delta* into these
/// atomics and set the gauge from the aggregate (see
/// [`BufferPool::set_gauge_hub`]).
#[derive(Debug, Default)]
pub struct PoolGaugeHub {
    pinned: std::sync::atomic::AtomicI64,
    resident: std::sync::atomic::AtomicI64,
}

/// A fixed-capacity page buffer pool.
///
/// Frames track page identity, pin counts and dirty flags; a frame may
/// additionally carry the *data* of its page ([`BufferPool::install_payload`])
/// when the pool is used at chunk granularity as the data plane of the
/// Active Buffer Manager (one "page" per logical chunk, the payload being
/// the chunk's materialized columns).
pub struct BufferPool {
    frames: Vec<Frame>,
    page_table: HashMap<PageKey, FrameId>,
    free: Vec<FrameId>,
    policy: Box<dyn ReplacementPolicy>,
    stats: PoolStats,
    /// Materialized data of resident pages, where the caller chose to attach
    /// some (cloning a payload is a refcount bump, never a data copy).
    payloads: HashMap<PageKey, ChunkPayload>,
    /// Optional metrics registry the pool mirrors its counters into
    /// ([`BufferPool::set_observability`]); `PoolStats` stays the local
    /// source of truth either way.
    obs: Option<Arc<Registry>>,
    /// Frames currently pinned by at least one user, maintained
    /// incrementally so the gauge update is O(1).
    pinned: usize,
    /// Cross-shard gauge aggregation ([`BufferPool::set_gauge_hub`]); a
    /// standalone pool (`None`) sets gauges from its local values directly.
    hub: Option<Arc<PoolGaugeHub>>,
    /// The pinned/resident values last published into the hub, so each
    /// gauge refresh contributes only this pool's delta.
    published: (i64, i64),
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.frames.len())
            .field("resident", &self.page_table.len())
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool with `capacity` frames and the given replacement policy.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, policy: Box<dyn ReplacementPolicy>) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        Self {
            frames: (0..capacity).map(|_| Frame::empty()).collect(),
            page_table: HashMap::with_capacity(capacity),
            free: (0..capacity).rev().map(FrameId).collect(),
            policy,
            stats: PoolStats::default(),
            payloads: HashMap::new(),
            obs: None,
            pinned: 0,
            hub: None,
            published: (0, 0),
        }
    }

    /// Mirrors the pool's counters (pins, unpins, evictions, hits, misses)
    /// and residency gauges into `obs` from now on.  [`BufferPool::stats`]
    /// keeps accumulating locally either way.
    pub fn set_observability(&mut self, obs: Arc<Registry>) {
        self.obs = Some(obs);
    }

    /// Joins a shared [`PoolGaugeHub`]: gauge refreshes publish this pool's
    /// pinned/resident *delta* into the hub and set the registry gauges
    /// from the aggregate, so shards of one logical pool never clobber each
    /// other's contribution.
    pub fn set_gauge_hub(&mut self, hub: Arc<PoolGaugeHub>) {
        self.hub = Some(hub);
    }

    /// Bumps a mirrored counter, if a registry is attached.
    #[inline]
    fn obs_inc(&self, counter: Counter) {
        if let Some(obs) = &self.obs {
            obs.inc(counter);
        }
    }

    /// Refreshes the pinned/resident gauges, if a registry is attached.
    /// With a gauge hub the pool contributes its delta and publishes the
    /// cross-shard aggregate; standalone it publishes its local values.
    #[inline]
    fn obs_gauges(&mut self) {
        use std::sync::atomic::Ordering;
        let Some(obs) = &self.obs else {
            return;
        };
        let (pinned, resident) = (self.pinned as i64, self.page_table.len() as i64);
        match &self.hub {
            Some(hub) => {
                let (dp, dr) = (pinned - self.published.0, resident - self.published.1);
                self.published = (pinned, resident);
                let p = hub.pinned.fetch_add(dp, Ordering::AcqRel) + dp;
                let r = hub.resident.fetch_add(dr, Ordering::AcqRel) + dr;
                obs.gauge_set(Gauge::PinnedFrames, p.max(0) as u64);
                obs.gauge_set(Gauge::ResidentFrames, r.max(0) as u64);
            }
            None => {
                obs.gauge_set(Gauge::PinnedFrames, pinned as u64);
                obs.gauge_set(Gauge::ResidentFrames, resident as u64);
            }
        }
    }

    /// Number of frames in the pool.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of pages currently resident.
    pub fn resident(&self) -> usize {
        self.page_table.len()
    }

    /// Name of the replacement policy in use.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Whether `key` is currently resident.
    pub fn contains(&self, key: PageKey) -> bool {
        self.page_table.contains_key(&key)
    }

    /// The frame holding `key`, if resident.
    pub fn lookup(&self, key: PageKey) -> Option<FrameId> {
        self.page_table.get(&key).copied()
    }

    /// Pin count of the page, if resident.
    pub fn pin_count(&self, key: PageKey) -> Option<u32> {
        self.lookup(key).map(|f| self.frames[f.0].pin_count())
    }

    /// Number of frames currently pinned by at least one user.
    pub fn pinned_frames(&self) -> usize {
        debug_assert_eq!(
            self.pinned,
            self.frames.iter().filter(|f| f.is_pinned()).count()
        );
        self.pinned
    }

    /// Pins `key` if (and only if) it is already resident — unlike
    /// [`BufferPool::fetch_and_pin`] this never installs a mapping on a
    /// miss.  Returns whether the page was pinned; a successful pin is a
    /// hit (the chunk-granular delivery path pins only this way, its
    /// installs go through `fetch_and_pin` and count the misses).
    pub fn pin(&mut self, key: PageKey) -> bool {
        match self.page_table.get(&key) {
            Some(&frame) => {
                if !self.frames[frame.0].is_pinned() {
                    self.pinned += 1;
                }
                self.frames[frame.0].pin();
                self.policy.on_access(frame);
                self.stats.hits += 1;
                self.stats.pins += 1;
                self.obs_inc(Counter::FrameHits);
                self.obs_inc(Counter::FramePins);
                self.obs_gauges();
                true
            }
            None => false,
        }
    }

    /// Attaches the materialized data of a resident page to its frame.
    /// Subsequent [`BufferPool::payload`] calls return it until the page is
    /// evicted; installing again replaces the previous payload.
    ///
    /// # Panics
    /// Panics if the page is not resident.
    pub fn install_payload(&mut self, key: PageKey, payload: ChunkPayload) {
        assert!(
            self.page_table.contains_key(&key),
            "payload install for non-resident page {key}"
        );
        self.payloads.insert(key, payload);
    }

    /// The materialized data of `key`, if resident and installed.
    pub fn payload(&self, key: PageKey) -> Option<&ChunkPayload> {
        self.payloads.get(&key)
    }

    /// The decode state of `key`'s installed payload, if any: whether the
    /// frame still holds encoded bytes awaiting their first pin, or fully
    /// decoded (or plain) column data.
    pub fn payload_state(&self, key: PageKey) -> Option<PayloadState> {
        self.payloads.get(&key).map(|p| {
            if p.is_missing() {
                PayloadState::Missing
            } else if p.is_fully_decoded() {
                PayloadState::Decoded
            } else {
                PayloadState::Compressed
            }
        })
    }

    /// Number of resident frames whose payload still holds encoded
    /// (not-yet-decoded) mini-columns.
    pub fn compressed_frames(&self) -> usize {
        self.payloads
            .values()
            .filter(|p| !p.is_fully_decoded())
            .count()
    }

    /// Fetches `key`, pinning the resulting frame.
    ///
    /// On a miss the page is installed into a free or victimized frame; the
    /// caller must perform the actual disk read.  Returns `None` only if the
    /// pool is completely pinned and nothing can be evicted.
    pub fn fetch_and_pin(&mut self, key: PageKey) -> Option<FetchOutcome> {
        if let Some(&frame) = self.page_table.get(&key) {
            if !self.frames[frame.0].is_pinned() {
                self.pinned += 1;
            }
            self.frames[frame.0].pin();
            self.policy.on_access(frame);
            self.stats.hits += 1;
            self.stats.pins += 1;
            self.obs_inc(Counter::FrameHits);
            self.obs_inc(Counter::FramePins);
            self.obs_gauges();
            return Some(FetchOutcome::Hit(frame));
        }
        let frame = self.obtain_frame()?;
        self.frames[frame.0].install(key);
        self.frames[frame.0].pin();
        self.pinned += 1;
        self.page_table.insert(key, frame);
        self.policy.on_install(frame);
        self.stats.misses += 1;
        self.stats.pins += 1;
        self.obs_inc(Counter::FrameMisses);
        self.obs_inc(Counter::FramePins);
        self.obs_gauges();
        Some(FetchOutcome::Miss(frame))
    }

    /// Unpins a previously pinned page.
    ///
    /// # Panics
    /// Panics if the page is not resident or not pinned.
    pub fn unpin(&mut self, key: PageKey, dirty: bool) {
        let frame = *self
            .page_table
            .get(&key)
            .unwrap_or_else(|| panic!("unpin of non-resident page {key}"));
        self.frames[frame.0].unpin(dirty);
        if !self.frames[frame.0].is_pinned() {
            self.pinned -= 1;
        }
        self.stats.unpins += 1;
        self.obs_inc(Counter::FrameUnpins);
        self.obs_gauges();
    }

    /// Fetches and immediately unpins every page in `keys`, reporting how
    /// many were misses — the access pattern of a chunk-sized request from
    /// an ABM layered on top of this pool (Section 7.1).
    pub fn acquire_range(&mut self, keys: &[PageKey]) -> Option<u64> {
        let mut misses = 0;
        for &key in keys {
            let outcome = self.fetch_and_pin(key)?;
            if !outcome.is_hit() {
                misses += 1;
            }
            self.unpin(key, false);
        }
        Some(misses)
    }

    /// Drops `key` from the pool if it is resident and unpinned.
    /// Returns true if the page was evicted.
    pub fn evict_page(&mut self, key: PageKey) -> bool {
        match self.page_table.get(&key) {
            Some(&frame) if !self.frames[frame.0].is_pinned() => {
                self.frames[frame.0].evict();
                self.page_table.remove(&key);
                self.payloads.remove(&key);
                self.policy.on_evict(frame);
                self.free.push(frame);
                self.stats.evictions += 1;
                self.obs_inc(Counter::FrameEvictions);
                self.obs_gauges();
                true
            }
            _ => false,
        }
    }

    /// Obtains a frame for a new page: a free frame if available, otherwise a
    /// policy-chosen victim.
    fn obtain_frame(&mut self) -> Option<FrameId> {
        if let Some(frame) = self.free.pop() {
            return Some(frame);
        }
        let frames = &self.frames;
        let victim = self
            .policy
            .pick_victim(&|f: FrameId| !frames[f.0].is_pinned())?;
        let old_key = self.frames[victim.0]
            .evict()
            .expect("victim frame must hold a page");
        self.page_table.remove(&old_key);
        self.payloads.remove(&old_key);
        self.policy.on_evict(victim);
        self.stats.evictions += 1;
        self.obs_inc(Counter::FrameEvictions);
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ClockPolicy, LruPolicy, MruPolicy};

    fn key(p: u64) -> PageKey {
        PageKey::new(0, p)
    }

    fn lru_pool(capacity: usize) -> BufferPool {
        BufferPool::new(capacity, Box::new(LruPolicy::new()))
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut pool = lru_pool(2);
        assert!(matches!(
            pool.fetch_and_pin(key(1)),
            Some(FetchOutcome::Miss(_))
        ));
        pool.unpin(key(1), false);
        assert!(matches!(
            pool.fetch_and_pin(key(1)),
            Some(FetchOutcome::Hit(_))
        ));
        pool.unpin(key(1), false);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_order_under_pressure() {
        let mut pool = lru_pool(2);
        for p in 1..=2 {
            pool.fetch_and_pin(key(p)).unwrap();
            pool.unpin(key(p), false);
        }
        // Touch page 1 so page 2 becomes the LRU victim.
        pool.fetch_and_pin(key(1)).unwrap();
        pool.unpin(key(1), false);
        pool.fetch_and_pin(key(3)).unwrap();
        pool.unpin(key(3), false);
        assert!(pool.contains(key(1)));
        assert!(!pool.contains(key(2)));
        assert!(pool.contains(key(3)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn pinned_pages_are_never_victims() {
        let mut pool = lru_pool(2);
        pool.fetch_and_pin(key(1)).unwrap();
        pool.fetch_and_pin(key(2)).unwrap();
        // Both pinned: a third fetch cannot find room.
        assert!(pool.fetch_and_pin(key(3)).is_none());
        pool.unpin(key(1), false);
        // Now page 1 can be evicted.
        assert!(pool.fetch_and_pin(key(3)).is_some());
        assert!(!pool.contains(key(1)));
        assert!(pool.contains(key(2)));
    }

    #[test]
    fn mru_pool_sheds_the_newest_page() {
        let mut pool = BufferPool::new(2, Box::new(MruPolicy::new()));
        for p in 1..=2 {
            pool.fetch_and_pin(key(p)).unwrap();
            pool.unpin(key(p), false);
        }
        pool.fetch_and_pin(key(3)).unwrap();
        pool.unpin(key(3), false);
        assert!(pool.contains(key(1)), "MRU keeps the oldest page");
        assert!(!pool.contains(key(2)));
    }

    #[test]
    fn clock_pool_works_end_to_end() {
        let mut pool = BufferPool::new(3, Box::new(ClockPolicy::new()));
        for p in 1..=6 {
            pool.fetch_and_pin(key(p)).unwrap();
            pool.unpin(key(p), false);
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.stats().misses, 6);
        assert_eq!(pool.stats().evictions, 3);
        assert_eq!(pool.policy_name(), "clock");
    }

    #[test]
    fn acquire_range_reports_misses() {
        let mut pool = lru_pool(8);
        let first: Vec<PageKey> = (0..4).map(key).collect();
        assert_eq!(pool.acquire_range(&first), Some(4));
        // Second acquisition of the same range is all hits.
        assert_eq!(pool.acquire_range(&first), Some(0));
        // Overlapping range: only the new pages miss.
        let second: Vec<PageKey> = (2..6).map(key).collect();
        assert_eq!(pool.acquire_range(&second), Some(2));
    }

    #[test]
    fn explicit_page_eviction() {
        let mut pool = lru_pool(4);
        pool.fetch_and_pin(key(1)).unwrap();
        assert!(!pool.evict_page(key(1)), "pinned page cannot be evicted");
        pool.unpin(key(1), false);
        assert!(pool.evict_page(key(1)));
        assert!(!pool.evict_page(key(1)), "already gone");
        assert!(!pool.contains(key(1)));
    }

    #[test]
    fn lookup_and_pin_count() {
        let mut pool = lru_pool(4);
        pool.fetch_and_pin(key(7)).unwrap();
        assert!(pool.lookup(key(7)).is_some());
        assert_eq!(pool.pin_count(key(7)), Some(1));
        assert_eq!(pool.pin_count(key(8)), None);
        pool.unpin(key(7), false);
        assert_eq!(pool.pin_count(key(7)), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(0, Box::new(LruPolicy::new()));
    }

    #[test]
    #[should_panic(expected = "unpin of non-resident page")]
    fn unpin_unknown_page_panics() {
        let mut pool = lru_pool(2);
        pool.unpin(key(9), false);
    }

    #[test]
    fn pin_without_install_and_pin_stats() {
        let mut pool = lru_pool(2);
        // pin() never installs: a miss is a no-op.
        assert!(!pool.pin(key(5)));
        assert_eq!(pool.stats().pins, 0);
        pool.fetch_and_pin(key(5)).unwrap();
        assert!(pool.pin(key(5)), "resident pages can be pinned");
        assert_eq!(pool.pin_count(key(5)), Some(2));
        assert_eq!(pool.pinned_frames(), 1);
        pool.unpin(key(5), false);
        pool.unpin(key(5), false);
        assert_eq!(pool.pinned_frames(), 0);
        let s = pool.stats();
        assert_eq!((s.pins, s.unpins), (2, 2));
    }

    #[test]
    fn payload_lives_and_dies_with_residency() {
        use cscan_storage::chunkdata::NsmChunkData;
        use cscan_storage::ChunkPayload;
        use std::sync::Arc;
        let mut pool = lru_pool(1);
        pool.fetch_and_pin(key(1)).unwrap();
        let payload = ChunkPayload::Nsm(Arc::new(NsmChunkData::new(vec![Arc::new(vec![1, 2, 3])])));
        pool.install_payload(key(1), payload.clone());
        assert_eq!(pool.payload(key(1)), Some(&payload));
        assert_eq!(pool.payload(key(2)), None);
        pool.unpin(key(1), false);
        // Explicit eviction drops the payload.
        assert!(pool.evict_page(key(1)));
        assert_eq!(pool.payload(key(1)), None);
        // Victim eviction drops it too.
        pool.fetch_and_pin(key(1)).unwrap();
        pool.install_payload(key(1), payload.clone());
        pool.unpin(key(1), false);
        pool.fetch_and_pin(key(2)).unwrap();
        assert!(!pool.contains(key(1)), "page 1 was victimized");
        assert_eq!(pool.payload(key(1)), None);
    }

    #[test]
    fn payload_state_tracks_the_compressed_to_decoded_lifecycle() {
        use cscan_storage::chunkdata::{ColumnChunk, NsmChunkData};
        use cscan_storage::{ChunkPayload, Compression};
        use std::sync::Arc;
        let mut pool = lru_pool(2);
        assert_eq!(pool.payload_state(key(1)), None, "nothing installed yet");
        pool.fetch_and_pin(key(1)).unwrap();
        // Install *compressed* bytes (what an I/O worker commits).
        let values: Vec<i64> = (0..256).map(|i| i % 5).collect();
        let payload = ChunkPayload::Nsm(Arc::new(NsmChunkData::from_parts(vec![
            ColumnChunk::encode(&values, Compression::Dictionary { bits: 3 }),
        ])));
        pool.install_payload(key(1), payload.clone());
        assert_eq!(pool.payload_state(key(1)), Some(PayloadState::Compressed));
        assert_eq!(pool.compressed_frames(), 1);
        // The first pin's decode flips the shared state to Decoded — the
        // pool sees it without re-installation because payload clones share
        // the column cache.
        assert!(payload.decode_all() > 0);
        assert_eq!(pool.payload_state(key(1)), Some(PayloadState::Decoded));
        assert_eq!(pool.compressed_frames(), 0);
        // Eviction drops both states; a fresh install is compressed again.
        pool.unpin(key(1), false);
        assert!(pool.evict_page(key(1)));
        assert_eq!(pool.payload_state(key(1)), None);
        pool.fetch_and_pin(key(1)).unwrap();
        pool.install_payload(
            key(1),
            ChunkPayload::Nsm(Arc::new(NsmChunkData::from_parts(vec![
                ColumnChunk::encode(&values, Compression::Dictionary { bits: 3 }),
            ]))),
        );
        assert_eq!(pool.payload_state(key(1)), Some(PayloadState::Compressed));
        // A metadata-only install reports Missing.
        pool.fetch_and_pin(key(2)).unwrap();
        pool.install_payload(key(2), ChunkPayload::Missing);
        assert_eq!(pool.payload_state(key(2)), Some(PayloadState::Missing));
    }

    #[test]
    #[should_panic(expected = "payload install for non-resident page")]
    fn payload_install_requires_residency() {
        let mut pool = lru_pool(1);
        pool.install_payload(key(9), cscan_storage::ChunkPayload::Missing);
    }

    #[test]
    fn debug_format_mentions_policy() {
        let pool = lru_pool(2);
        let s = format!("{pool:?}");
        assert!(s.contains("lru"));
        assert!(s.contains("capacity"));
    }
}
