//! Unit tests of the Active Buffer Manager's buffer as the buffer pool:
//! the pins, installs, hit/miss counters and gauges that its record of each
//! resident chunk ([`crate::BufferedChunk`]) keeps, driven through the
//! scheduler core the way both front-ends drive it.

mod tests {
    use crate::abm::LoadPlan;
    use crate::cscan::CScanPlan;
    use crate::model::TableModel;
    use crate::policy::PolicyKind;
    use crate::query::QueryId;
    use crate::sched::{Effect, Scheduler};
    use crate::{BufferedChunk, ColSet, RetryPolicy};
    use cscan_bufman::PoolStats;
    use cscan_obs::{Counter, Gauge, Registry};
    use cscan_simdisk::SimTime;
    use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
    use cscan_storage::{ChunkId, ChunkPayload, ColumnId, ScanRanges};
    use std::sync::Arc;

    fn chunk(c: u32) -> ChunkId {
        ChunkId::new(c)
    }

    fn cols(ids: &[u16]) -> ColSet {
        ColSet::from_columns(ids.iter().copied().map(ColumnId::new))
    }

    /// The scheduler core over a two-column table, with room for every
    /// chunk, and the registry it publishes into.  The normal policy loads
    /// the next missing chunk of any scan that has one, so a test decides
    /// what is loaded by what it registers.
    struct Pool {
        core: Scheduler<()>,
        obs: Arc<Registry>,
        effects: Vec<Effect<()>>,
    }

    impl Pool {
        fn new(num_chunks: u32) -> Self {
            let model = TableModel::dsm_uniform(num_chunks, 1_000, &[2, 2]);
            let pages = u64::from(num_chunks) * model.max_chunk_pages(model.all_columns());
            let obs = Arc::new(Registry::new());
            let core = Scheduler::new(
                model,
                pages,
                PolicyKind::Normal,
                RetryPolicy::default(),
                Arc::clone(&obs),
            );
            Self {
                core,
                obs,
                effects: Vec::new(),
            }
        }

        /// Registers a scan of the `columns` of chunk `c` alone.
        fn scan(&mut self, c: u32, columns: ColSet) -> QueryId {
            let plan = CScanPlan::new("q", ScanRanges::single(c, c + 1), columns);
            self.core.register(&plan, (), SimTime::ZERO)
        }

        /// Plans the one load the registered scans wait for, which must be
        /// of chunk `c`, and commits it with a payload of the columns it
        /// adds, each holding `tag`.
        fn load(&mut self, c: u32, tag: i64) {
            let mut plans: Vec<LoadPlan> = Vec::new();
            self.core.plan(SimTime::ZERO, 1, &mut plans);
            let plan = plans.pop().expect("a load to plan");
            assert_eq!(plan.decision.chunk, chunk(c));
            let missing = self
                .core
                .state()
                .missing_columns(chunk(c), plan.decision.cols);
            let parts = missing
                .iter()
                .map(|col| (col, ColumnChunk::Plain(Arc::new(vec![tag]))))
                .collect();
            let payload = ChunkData::from_parts(parts).into();
            let woken = self
                .core
                .commit(chunk(c), plan.ticket, payload, SimTime::ZERO);
            assert!(woken.is_some(), "the load of chunk {c} was stale");
        }

        /// The grants the core made since the last call.
        fn grants(&mut self) -> Vec<(QueryId, ChunkId, ChunkPayload)> {
            self.core.swap_effects(&mut self.effects);
            self.effects
                .drain(..)
                .filter_map(|effect| match effect {
                    Effect::Grant {
                        query,
                        chunk,
                        payload,
                        ..
                    } => Some((query, chunk, payload)),
                    _ => None,
                })
                .collect()
        }

        /// The one grant the core made since the last call.
        fn grant(&mut self) -> (QueryId, ChunkId, ChunkPayload) {
            let mut grants = self.grants();
            assert_eq!(grants.len(), 1, "{grants:?}");
            grants.pop().unwrap()
        }

        fn release(&mut self, q: QueryId, c: u32) {
            self.core.release(q, chunk(c), SimTime::ZERO);
        }

        fn buffered(&self, c: u32) -> Option<&BufferedChunk> {
            self.core.state().buffered_chunk(chunk(c))
        }

        fn stats(&self) -> PoolStats {
            self.core.state().frame_stats()
        }

        fn pinned_and_resident(&self) -> (usize, usize) {
            let state = self.core.state();
            (state.pinned_frames(), state.num_buffered())
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut pool = Pool::new(2);
        let q = pool.scan(1, cols(&[0]));
        // Installing the load is a miss; the grant it wakes is a hit.
        pool.load(1, 10);
        assert_eq!(pool.grant().0, q);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
        pool.release(q, 1);
        // A load that merges into the resident chunk is a hit too, and so
        // is the grant of the merged chunk.
        let q = pool.scan(1, cols(&[0, 1]));
        assert!(pool.grants().is_empty(), "column 1 is not resident yet");
        pool.load(1, 11);
        let (granted, _, payload) = pool.grant();
        assert_eq!(granted, q);
        assert_eq!(payload.column(ColumnId::new(0)), Some(&[10][..]));
        assert_eq!(payload.column(ColumnId::new(1)), Some(&[11][..]));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.pins, s.unpins), (3, 1, 4, 3));
        pool.release(q, 1);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.pins, s.unpins), (3, 1, 4, 4));
        assert_eq!(pool.obs.counter(Counter::FrameHits), 3);
        assert_eq!(pool.obs.counter(Counter::FrameMisses), 1);
        assert_eq!(pool.obs.counter(Counter::FramePins), 4);
        assert_eq!(pool.obs.counter(Counter::FrameUnpins), 4);
    }

    #[test]
    fn lookup_and_pin_count() {
        let mut pool = Pool::new(8);
        let q = pool.scan(7, cols(&[0, 1]));
        pool.load(7, 7);
        // The grant carries the payload the buffer record holds.
        let (_, granted, payload) = pool.grant();
        assert_eq!(granted, chunk(7));
        let b = pool.buffered(7).expect("chunk 7 is resident");
        assert_eq!(b.payload, payload);
        assert_eq!(b.pinned_by, [q]);
        assert!(pool.buffered(6).is_none());
        pool.release(q, 7);
        // Nothing leaves the buffer at a release: only the pin returns.
        let b = pool.buffered(7).expect("chunk 7 stays resident");
        assert!(b.pinned_by.is_empty());
        assert_eq!(b.payload, payload);
    }

    #[test]
    fn pin_without_install_and_pin_stats() {
        let mut pool = Pool::new(8);
        // A grant never installs: a scan of a chunk that is not resident
        // gets none, and nothing is pinned.
        let q1 = pool.scan(5, cols(&[0]));
        assert!(pool.grants().is_empty());
        assert!(pool.buffered(5).is_none());
        assert_eq!(pool.stats().pins, 0);
        assert_eq!(pool.pinned_and_resident(), (0, 0));
        pool.load(5, 5);
        assert_eq!(pool.grant().0, q1);
        // A second reader pins the resident chunk at once.
        let q2 = pool.scan(5, cols(&[0]));
        assert_eq!(pool.grant().0, q2);
        assert_eq!(pool.buffered(5).unwrap().pinned_by.len(), 2);
        assert_eq!(pool.pinned_and_resident(), (1, 1));
        pool.release(q1, 5);
        assert_eq!(pool.pinned_and_resident(), (1, 1));
        pool.release(q2, 5);
        assert_eq!(pool.pinned_and_resident(), (0, 1));
        // The install pinned for its own duration, each grant once.
        let s = pool.stats();
        assert_eq!((s.pins, s.unpins), (3, 3));
    }

    #[test]
    fn gauges_publish_the_pinned_and_resident_totals() {
        let mut pool = Pool::new(64);
        let mut held = Vec::new();
        for c in [0, 1, 2, 3, 17, 33] {
            let q = pool.scan(c, cols(&[0, 1]));
            pool.load(c, i64::from(c));
            assert_eq!(pool.grant().0, q);
            held.push((q, c));
        }
        // A second pin of a pinned chunk does not count it twice.
        let q = pool.scan(0, cols(&[0]));
        assert_eq!(pool.grant().0, q);
        held.push((q, 0));
        assert_eq!(pool.obs.gauge(Gauge::PinnedFrames), 6);
        assert_eq!(pool.obs.gauge(Gauge::ResidentFrames), 6);
        for (q, c) in held.into_iter().filter(|&(_, c)| c <= 3) {
            pool.release(q, c);
        }
        assert_eq!(pool.obs.gauge(Gauge::PinnedFrames), 2);
        assert_eq!(pool.obs.gauge(Gauge::ResidentFrames), 6);
        // Only an unpinned chunk can go.
        assert!(pool.core.force_evict());
        let gone: Vec<u32> = [0, 1, 2, 3, 17, 33]
            .into_iter()
            .filter(|&c| pool.buffered(c).is_none())
            .collect();
        assert_eq!(gone.len(), 1);
        assert!(gone[0] <= 3, "pinned chunk {} was evicted", gone[0]);
        assert_eq!(pool.obs.gauge(Gauge::ResidentFrames), 5);
        assert_eq!(pool.pinned_and_resident(), (2, 5));
        assert_eq!(pool.obs.counter(Counter::FrameEvictions), 1);
        assert_eq!(pool.stats().evictions, 1);
    }
}
