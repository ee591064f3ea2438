//! Model-based property tests: random install / pin / unpin / evict /
//! replace-payload scripts against a per-chunk `(payload, pins)` reference.

use cscan_bufman::{FramePool, PoolStats};
use cscan_obs::{Gauge, Registry};
use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
use cscan_storage::{ChunkId, ChunkPayload, ColumnId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

const INSTALL: u8 = 0;
const PIN: u8 = 1;
const UNPIN: u8 = 2;
const EVICT: u8 = 3;
const REPLACE: u8 = 4;

/// The pool under test next to what it must look like.
struct Model {
    pool: FramePool,
    obs: Arc<Registry>,
    /// Per chunk: the payload while resident, and the pin count.
    slots: Vec<(Option<ChunkPayload>, u32)>,
    stats: PoolStats,
    /// Makes every installed payload distinguishable from the last.
    next_tag: i64,
}

impl Model {
    fn new(num_chunks: usize) -> Self {
        let obs = Arc::new(Registry::new());
        let pool = FramePool::new(num_chunks, Arc::clone(&obs));
        Self {
            pool,
            obs,
            slots: vec![(None, 0); num_chunks],
            stats: PoolStats::default(),
            next_tag: 0,
        }
    }

    fn fresh_payload(&mut self) -> ChunkPayload {
        self.next_tag += 1;
        let tag = ColumnChunk::Plain(Arc::new(vec![self.next_tag]));
        ChunkData::from_parts(vec![(ColumnId::new(0), tag)]).into()
    }

    /// Applies one operation to both sides and checks that they agree.  An
    /// `id` at or past the chunk count must be refused; the two operations
    /// that panic on misuse (unpin of an unpinned chunk, replacement of a
    /// non-resident one) are skipped where the model says they would.
    fn step(&mut self, op: u8, id: u32) -> Result<(), TestCaseError> {
        let chunk = ChunkId::new(id);
        let i = id as usize;
        let Some(&(ref held, pins)) = self.slots.get(i) else {
            prop_assert!(!self.pool.install(chunk, ChunkPayload::Missing));
            prop_assert_eq!(self.pool.pin(chunk), None);
            prop_assert_eq!(self.pool.evict(chunk), None);
            prop_assert_eq!(self.pool.payload(chunk), None);
            prop_assert_eq!(self.pool.pin_count(chunk), None);
            return self.check_totals();
        };
        let resident = held.is_some();
        match op {
            INSTALL => {
                let payload = self.fresh_payload();
                prop_assert!(self.pool.install(chunk, payload.clone()));
                // A reload of the same columns does not merge: the newer wins.
                self.slots[i].0 = Some(payload);
                self.stats.pins += 1;
                self.stats.unpins += 1;
                if resident {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                }
            }
            PIN => {
                // A pin hands out exactly the payload the slot holds.
                prop_assert_eq!(self.pool.pin(chunk), held.clone());
                if resident {
                    self.slots[i].1 += 1;
                    self.stats.pins += 1;
                    self.stats.hits += 1;
                }
            }
            UNPIN if pins > 0 => {
                self.pool.unpin(chunk);
                self.slots[i].1 -= 1;
                self.stats.unpins += 1;
            }
            EVICT => {
                // An eviction hands back exactly the payload the slot held.
                let evicted = if pins == 0 { held.clone() } else { None };
                prop_assert_eq!(self.pool.evict(chunk), evicted.clone(), "pins {}", pins);
                if evicted.is_some() {
                    self.slots[i].0 = None;
                    self.stats.evictions += 1;
                }
            }
            REPLACE if resident => {
                let payload = self.fresh_payload();
                let old = self.pool.replace_payload(chunk, payload.clone());
                prop_assert_eq!(Some(old), self.slots[i].0.replace(payload));
            }
            _ => {}
        }
        self.check_chunk(i)?;
        self.check_totals()
    }

    fn check_chunk(&self, i: usize) -> Result<(), TestCaseError> {
        let chunk = ChunkId::new(i as u32);
        let (payload, pins) = &self.slots[i];
        prop_assert_eq!(self.pool.pin_count(chunk), payload.as_ref().map(|_| *pins));
        prop_assert_eq!(self.pool.payload(chunk), payload.as_ref());
        Ok(())
    }

    fn check_totals(&self) -> Result<(), TestCaseError> {
        let stats = self.pool.stats();
        prop_assert_eq!(stats, self.stats);
        prop_assert_eq!(stats.hits + stats.misses, stats.pins);
        let outstanding: u64 = self.slots.iter().map(|s| s.1 as u64).sum();
        prop_assert_eq!(stats.pins - stats.unpins, outstanding);
        let pinned = self.slots.iter().filter(|s| s.1 > 0).count();
        let resident = self.slots.iter().filter(|s| s.0.is_some()).count();
        prop_assert_eq!(self.pool.pinned_frames(), pinned);
        prop_assert_eq!(self.pool.resident(), resident);
        prop_assert_eq!(self.obs.gauge(Gauge::PinnedFrames), pinned as u64);
        prop_assert_eq!(self.obs.gauge(Gauge::ResidentFrames), resident as u64);
        Ok(())
    }

    /// Every chunk, not just the last one touched: an operation on one
    /// chunk must not have moved another's pins or payload.
    fn check_all(&self) -> Result<(), TestCaseError> {
        (0..self.slots.len()).try_for_each(|i| self.check_chunk(i))
    }
}

proptest! {
    /// Any script, over any chunk count, with a few ids past the end.
    #[test]
    fn pool_matches_reference_model(
        num_chunks in 1usize..301,
        script in prop::collection::vec((0u8..5, 0u32..1000), 1..400),
    ) {
        let mut model = Model::new(num_chunks);
        for (op, id) in script {
            model.step(op, id % (num_chunks as u32 + 3))?;
        }
        model.check_all()?;
    }

    /// Installing ids far past the end never makes more chunks resident
    /// than the pool has slots: exactly the in-range ones are.
    #[test]
    fn residency_never_exceeds_capacity(
        num_chunks in 1usize..301,
        ids in prop::collection::vec(0u32..1000, 1..300),
    ) {
        let mut model = Model::new(num_chunks);
        for &id in &ids {
            model.step(INSTALL, id)?;
            prop_assert!(model.pool.resident() <= num_chunks);
        }
        let mut in_range: Vec<u32> = ids.into_iter().filter(|&id| (id as usize) < num_chunks).collect();
        in_range.sort_unstable();
        in_range.dedup();
        prop_assert_eq!(model.pool.resident(), in_range.len());
    }

    /// The pool picks no victims: whatever happens to the other chunks, a
    /// resident set nobody evicts stays resident.
    #[test]
    fn small_working_set_stays_resident(
        set_size in 1u32..16,
        others in 1u32..64,
        script in prop::collection::vec((0u8..5, 0u32..1000), 1..300),
    ) {
        let mut model = Model::new((set_size + others) as usize);
        for id in 0..set_size {
            model.step(INSTALL, id)?;
        }
        for (op, id) in script {
            model.step(op, set_size + id % others)?;
        }
        for id in 0..set_size {
            prop_assert!(model.pool.payload(ChunkId::new(id)).is_some());
        }
        model.check_all()?;
    }

    /// Pinned chunks survive every eviction, replacement and re-install
    /// aimed at them, with their pins intact.
    #[test]
    fn pinned_pages_survive_pressure(
        num_chunks in 2u32..40,
        pressure in prop::collection::vec((0u8..3, 0u32..1000), 10..200),
    ) {
        let mut model = Model::new(num_chunks as usize);
        let pinned = num_chunks / 2;
        for id in 0..pinned {
            model.step(INSTALL, id)?;
            model.step(PIN, id)?;
        }
        for (op, id) in pressure {
            let op = [EVICT, REPLACE, INSTALL][op as usize];
            model.step(op, id % num_chunks)?;
            for id in 0..pinned {
                prop_assert_eq!(model.pool.pin_count(ChunkId::new(id)), Some(1));
            }
        }
        model.check_all()?;
    }
}
