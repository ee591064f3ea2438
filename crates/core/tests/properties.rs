//! Property-based tests of the Cooperative Scans core: for arbitrary
//! workloads and all four policies, the fundamental invariants of the
//! framework must hold, and for arbitrary schemas the table models
//! `TableModel::nsm` / `TableModel::dsm` build must be consistent.  The
//! ABM's buffer, as the buffer pool, driven through the scheduler core,
//! must match a per-chunk reference of its data and pins under random
//! loads, grants, releases, rejections and evictions.

use cscan_bufman::PoolStats;
use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::sched::{Effect, Scheduler};
use cscan_core::sim::{QuerySpec, SimConfig, Simulation};
use cscan_core::{CScanPlan, ColSet, QueryId, RetryPolicy, ScanRanges};
use cscan_obs::{Counter, Gauge, Registry};
use cscan_simdisk::{SimDuration, SimTime};
use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
use cscan_storage::{
    ChunkId, ChunkPayload, ColumnDef, ColumnId, ColumnType, Compression, StoreError, TableSchema,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const PAGE: u64 = 64 * 1024;
const MIB: u64 = 1024 * 1024;

fn arb_schema() -> impl Strategy<Value = TableSchema> {
    prop::collection::vec(
        prop_oneof![
            Just(ColumnType::Int64),
            Just(ColumnType::Int32),
            Just(ColumnType::Decimal),
            Just(ColumnType::Date),
            Just(ColumnType::Char),
            (4u16..64).prop_map(|n| ColumnType::Varchar { avg_len: n }),
        ],
        1..10,
    )
    .prop_map(|types| {
        TableSchema::new(
            "prop_table",
            types
                .into_iter()
                .enumerate()
                .map(|(i, ty)| ColumnDef::new(format!("c{i}"), ty))
                .collect(),
        )
    })
}

fn arb_compressed_schema() -> impl Strategy<Value = TableSchema> {
    prop::collection::vec(
        prop_oneof![
            Just(Compression::None),
            (1u8..16).prop_map(|bits| Compression::Dictionary { bits }),
            (1u8..32).prop_map(|bits| Compression::Pfor {
                bits,
                exception_rate: 0.02
            }),
            (1u8..8).prop_map(|bits| Compression::PforDelta {
                bits,
                exception_rate: 0.01
            }),
        ],
        1..10,
    )
    .prop_map(|comps| {
        TableSchema::new(
            "prop_dsm",
            comps
                .into_iter()
                .enumerate()
                .map(|(i, c)| ColumnDef::compressed(format!("c{i}"), ColumnType::Int64, c))
                .collect(),
        )
    })
}

/// A compact description of a random query.
#[derive(Debug, Clone)]
struct RandomQuery {
    start: u32,
    len: u32,
    speed: f64,
}

fn arb_query(num_chunks: u32) -> impl Strategy<Value = RandomQuery> {
    (0..num_chunks, 1..=num_chunks, 1u32..=40).prop_map(move |(start, len, speed)| RandomQuery {
        start: start.min(num_chunks - 1),
        len,
        speed: speed as f64 * 500_000.0,
    })
}

fn arb_streams(num_chunks: u32) -> impl Strategy<Value = Vec<Vec<RandomQuery>>> {
    prop::collection::vec(prop::collection::vec(arb_query(num_chunks), 1..4), 1..6)
}

fn to_specs(streams: &[Vec<RandomQuery>], num_chunks: u32) -> Vec<Vec<QuerySpec>> {
    streams
        .iter()
        .map(|s| {
            s.iter()
                .enumerate()
                .map(|(i, q)| {
                    let end = (q.start + q.len).min(num_chunks);
                    QuerySpec::range_scan(
                        format!("q{i}-{}-{}", q.start, end),
                        ScanRanges::single(q.start, end.max(q.start + 1).min(num_chunks)),
                        q.speed,
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy completes every query of every random workload, the
    /// buffer is respected and I/O accounting is consistent.
    #[test]
    fn all_policies_complete_random_workloads(
        streams in arb_streams(48),
        buffer_chunks in 2u64..20,
    ) {
        let num_chunks = 48u32;
        let model = TableModel::nsm_uniform(num_chunks, 50_000, 64);
        let specs = to_specs(&streams, num_chunks);
        let total_queries: usize = specs.iter().map(|s| s.len()).sum();
        let config = SimConfig::default()
            .with_buffer_chunks(buffer_chunks)
            .with_stagger(SimDuration::from_millis(500));
        for policy in PolicyKind::ALL {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(specs.clone());
            let result = sim.run();
            // Every query finished exactly once.
            prop_assert_eq!(result.queries.len(), total_queries, "{}", policy);
            // Latencies are causal and bounded by the total run time.
            for q in &result.queries {
                prop_assert!(q.finished_at >= q.submitted_at);
                prop_assert!(q.latency() <= result.total_time);
            }
            // I/O accounting: at least the union of needed chunks was read,
            // and pages follow chunk loads exactly (uniform 64-page chunks).
            let union: std::collections::HashSet<u32> = specs
                .iter()
                .flatten()
                .flat_map(|q| q.ranges.as_ref().unwrap().iter().map(|c| c.index()))
                .collect();
            prop_assert!(result.io_requests >= union.len() as u64, "{}", policy);
            prop_assert_eq!(result.pages_read, result.io_requests * 64, "{}", policy);
            // Utilizations are valid fractions.
            prop_assert!(result.cpu_utilization >= 0.0 && result.cpu_utilization <= 1.0);
            prop_assert!(result.disk_utilization >= 0.0 && result.disk_utilization <= 1.0);
        }
    }

    /// I/O volume invariants: every policy reads at least the union of the
    /// requested chunks and at most the per-query sum (each query reading its
    /// chunks privately) — except `normal`, whose prefetched chunks can be
    /// evicted and re-read under extreme buffer pressure, so it only gets a
    /// generous multiple of that bound.  Relevance stays within striking
    /// distance of normal.
    #[test]
    fn io_volume_is_bounded(
        streams in arb_streams(40),
        buffer_chunks in 3u64..16,
    ) {
        let model = TableModel::nsm_uniform(40, 50_000, 64);
        let specs = to_specs(&streams, 40);
        let union: std::collections::HashSet<u32> = specs
            .iter()
            .flatten()
            .flat_map(|q| q.ranges.as_ref().unwrap().iter().map(|c| c.index()))
            .collect();
        let per_query_sum: u64 = specs
            .iter()
            .flatten()
            .map(|q| q.ranges.as_ref().unwrap().num_chunks() as u64)
            .sum();
        let config = SimConfig::default()
            .with_buffer_chunks(buffer_chunks)
            .with_stagger(SimDuration::from_millis(200));
        let run = |policy| {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(specs.clone());
            sim.run()
        };
        let normal = run(PolicyKind::Normal);
        let relevance = run(PolicyKind::Relevance);
        for (name, result) in [("normal", &normal), ("relevance", &relevance)] {
            prop_assert!(result.io_requests >= union.len() as u64, "{name}");
            prop_assert!(
                result.io_requests <= per_query_sum * 3 + 4,
                "{name}: {} loads for a per-query sum of {per_query_sum}",
                result.io_requests
            );
        }
        prop_assert!(
            relevance.io_requests <= normal.io_requests * 3 / 2 + 4,
            "relevance {} should stay close to or below normal {}",
            relevance.io_requests,
            normal.io_requests
        );
    }

    /// Determinism: running the same workload twice gives identical results
    /// for every policy.
    #[test]
    fn runs_are_deterministic(streams in arb_streams(32), buffer_chunks in 2u64..10) {
        let model = TableModel::nsm_uniform(32, 20_000, 32);
        let specs = to_specs(&streams, 32);
        let config = SimConfig::default().with_buffer_chunks(buffer_chunks);
        for policy in PolicyKind::ALL {
            let run = || {
                let mut sim = Simulation::new(model.clone(), policy, config);
                sim.submit_streams(specs.clone());
                sim.run()
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.io_requests, b.io_requests);
            prop_assert_eq!(a.total_time, b.total_time);
            prop_assert_eq!(
                a.queries.iter().map(|q| (q.query_id, q.finished_at)).collect::<Vec<_>>(),
                b.queries.iter().map(|q| (q.query_id, q.finished_at)).collect::<Vec<_>>()
            );
        }
    }

    /// DSM partial residency: page accounting matches the layout no matter
    /// which columns the queries use, for every policy.
    #[test]
    fn dsm_page_accounting_is_consistent(
        col_picks in prop::collection::vec((0u16..6, 1u16..4), 1..5),
        buffer_fraction in 0.15f64..0.8,
    ) {
        let model = TableModel::dsm_uniform(24, 50_000, &[1, 2, 4, 8, 16, 32]);
        let config = SimConfig::default()
            .with_buffer_fraction(buffer_fraction)
            .with_stagger(SimDuration::from_millis(100));
        for policy in PolicyKind::ALL {
            let mut sim = Simulation::new(model.clone(), policy, config);
            for (i, &(start, width)) in col_picks.iter().enumerate() {
                let cols: cscan_core::ColSet = (start..(start + width).min(6))
                    .map(cscan_storage::ColumnId::new)
                    .collect();
                sim.submit_stream(vec![QuerySpec::full_scan(format!("q{i}"), 2_000_000.0)
                    .with_columns(cols)]);
            }
            let result = sim.run();
            prop_assert_eq!(result.queries.len(), col_picks.len(), "{}", policy);
            // Pages read are bounded below by the union of needed columns
            // (each read at least once) and above by "every query reads its
            // own columns separately".
            let union: cscan_core::ColSet = col_picks
                .iter()
                .flat_map(|&(start, width)| {
                    (start..(start + width).min(6)).map(cscan_storage::ColumnId::new)
                })
                .collect();
            let lower = model.total_pages(union);
            let upper: u64 = col_picks
                .iter()
                .map(|&(start, width)| {
                    let cols: cscan_core::ColSet = (start..(start + width).min(6))
                        .map(cscan_storage::ColumnId::new)
                        .collect();
                    model.total_pages(cols)
                })
                .sum();
            prop_assert!(result.pages_read >= lower, "{}: {} < {}", policy, result.pages_read, lower);
            // Re-reads after eviction are possible under pressure, so the
            // upper bound carries a generous safety factor.
            prop_assert!(
                result.pages_read <= upper * 4,
                "{}: {} > {}",
                policy,
                result.pages_read,
                upper * 4
            );
        }
    }

    /// NSM: chunk tuple counts partition the table exactly and every chunk
    /// except the last is full.
    #[test]
    fn nsm_chunks_partition_tuples(schema in arb_schema(), tuples in 1u64..5_000_000) {
        let m = TableModel::nsm(&schema, tuples, PAGE, 4 * MIB);
        prop_assert_eq!(m.total_tuples(), tuples);
        let full = m.chunk_tuples(ChunkId::new(0));
        for c in 0..m.num_chunks().saturating_sub(1) {
            prop_assert_eq!(m.chunk_tuples(ChunkId::new(c)), full);
        }
    }

    /// NSM: physical regions of different chunks never overlap and are in
    /// table order.
    #[test]
    fn nsm_regions_disjoint(schema in arb_schema(), tuples in 1u64..2_000_000) {
        let m = TableModel::nsm(&schema, tuples, PAGE, 2 * MIB);
        let mut prev_end = 0u64;
        for c in 0..m.num_chunks() {
            let regions = m.chunk_regions(ChunkId::new(c), m.all_columns());
            prop_assert_eq!(regions.len(), 1);
            prop_assert!(regions[0].offset >= prev_end);
            prop_assert!(regions[0].len > 0);
            prev_end = regions[0].offset + regions[0].len;
        }
    }

    /// DSM: chunk tuple counts partition the table; per-chunk page counts for
    /// a subset of columns never exceed those for all columns.
    #[test]
    fn dsm_pages_monotone_in_columns(
        schema in arb_compressed_schema(),
        tuples in 1u64..3_000_000,
        chunk_tuples in 1_000u64..500_000,
    ) {
        let m = TableModel::dsm(&schema, tuples, PAGE, chunk_tuples);
        prop_assert_eq!(m.total_tuples(), tuples);
        let all = m.all_columns();
        let some: ColSet = all.iter().step_by(2).collect();
        for c in (0..m.num_chunks()).step_by(7) {
            let chunk = ChunkId::new(c);
            prop_assert!(m.chunk_pages(chunk, some) <= m.chunk_pages(chunk, all));
            prop_assert_eq!(m.chunk_regions(chunk, all).len(), all.len() as usize);
        }
    }

    /// DSM: within one column the chunks' page spans run forward with no
    /// gap: together they cover the column's area, and neighbours share at
    /// most their boundary page, so the per-chunk pages add up to at least
    /// the area and to less than the area plus one page per chunk.
    #[test]
    fn dsm_column_spans_are_ordered(
        schema in arb_compressed_schema(),
        tuples in 100_000u64..2_000_000,
    ) {
        let m = TableModel::dsm(&schema, tuples, PAGE, 50_000);
        for (i, def) in schema.columns().iter().enumerate() {
            let col = ColSet::from_columns([ColumnId::new(i as u16)]);
            for c in 0..m.num_chunks() {
                prop_assert!(m.chunk_pages(ChunkId::new(c), col) > 0);
            }
            let area = (tuples * def.physical_bits() as u64).div_ceil(8).div_ceil(PAGE);
            let spanned = m.total_pages(col);
            prop_assert!(spanned >= area, "column {} leaves a page out", i);
            prop_assert!(spanned < area + m.num_chunks() as u64, "column {} overlaps more than a page", i);
        }
    }
}

const REGISTER: u8 = 0;
const LOAD: u8 = 1;
const RELEASE: u8 = 2;
const REJECT: u8 = 3;
const EVICT: u8 = 4;

/// A chunk's data as the reference holds it: the tag each resident column
/// was loaded with.
type Tags = BTreeMap<ColumnId, i64>;

fn tags_of(payload: &ChunkPayload) -> Tags {
    match payload {
        ChunkPayload::Missing => Tags::new(),
        ChunkPayload::Data(data) => data
            .parts()
            .iter()
            .map(|(col, part)| (*col, part.as_slice()[0]))
            .collect(),
    }
}

/// The ABM's buffer under test, driven through the scheduler core, next
/// to what it must look like.  The policy picks what is loaded, granted
/// and evicted; the reference checks that a plan only lets go of unpinned
/// data, that every grant is of a resident chunk with exactly the data it
/// holds, and predicts everything else.
struct PoolModel {
    core: Scheduler<()>,
    obs: Arc<Registry>,
    effects: Vec<Effect<()>>,
    /// Per chunk: its columns' tags while resident, and the queries
    /// pinning it.
    slots: Vec<(Option<Tags>, Vec<QueryId>)>,
    stats: PoolStats,
    /// Registered queries, and the grants out in the order they were made.
    open: Vec<QueryId>,
    /// Each registered query's columns and the chunks it has not consumed.
    needs: BTreeMap<QueryId, (ColSet, BTreeSet<u32>)>,
    held: Vec<(QueryId, ChunkId)>,
    /// Scans register from this chunk on; grants before this index of
    /// `held` are never returned.
    first_chunk: u32,
    kept_grants: usize,
    /// Makes every load's data distinguishable from the last.
    next_tag: i64,
    clock: u64,
}

impl PoolModel {
    /// A buffer of `buffer_chunks` whole chunks of a table of three column
    /// groups of 1, 2 and 3 pages a chunk.
    fn new(policy: PolicyKind, num_chunks: u32, buffer_chunks: u64) -> Self {
        let model = TableModel::dsm_uniform(num_chunks, 1_000, &[1, 2, 3]);
        let pages = buffer_chunks * model.max_chunk_pages(model.all_columns());
        let obs = Arc::new(Registry::new());
        let retry = RetryPolicy::default();
        Self {
            core: Scheduler::new(model, pages, policy, retry, Arc::clone(&obs)),
            obs,
            effects: Vec::new(),
            slots: vec![(None, Vec::new()); num_chunks as usize],
            stats: PoolStats::default(),
            open: Vec::new(),
            needs: BTreeMap::new(),
            held: Vec::new(),
            first_chunk: 0,
            kept_grants: 0,
            next_tag: 0,
            clock: 0,
        }
    }

    /// Registers a scan of `columns` of `[start, end)`.
    fn register(&mut self, start: u32, end: u32, columns: ColSet, now: SimTime) -> QueryId {
        let plan = CScanPlan::new("q", ScanRanges::single(start, end), columns);
        let q = self.core.register(&plan, (), now);
        self.open.push(q);
        self.needs.insert(q, (columns, (start..end).collect()));
        q
    }

    /// Applies one operation to both sides and checks that they agree,
    /// every chunk's record, each grant and the payloads the buffer let go
    /// of included.  `arg` picks the scan or grant the operation applies
    /// to.
    fn step(&mut self, op: u8, arg: u32) -> Result<(), TestCaseError> {
        self.clock += 1;
        let now = SimTime::from_micros(self.clock);
        let mut released = Vec::new();
        // Payloads a plan lets go of if it shrinks a chunk before it evicts
        // it: the shrink keeps exactly the columns still read.
        let mut shrunk_then_evicted = Vec::new();
        match op {
            REGISTER if self.open.len() < self.kept_grants + 6 => {
                let n = self.slots.len() as u32;
                let start = self.first_chunk + arg / 7 % (n - self.first_chunk);
                let end = (start + 1 + arg / 7 / n % 3).min(n);
                let cols = ColSet::from_bits(u64::from(arg % 7 + 1));
                self.register(start, end, cols, now);
            }
            LOAD => self.load(now, &mut released, &mut shrunk_then_evicted)?,
            RELEASE | REJECT if self.held.len() > self.kept_grants => {
                let i = self.kept_grants + arg as usize % (self.held.len() - self.kept_grants);
                let (q, chunk) = self.held.remove(i);
                let c = chunk.as_usize();
                let pins = &mut self.slots[c].1;
                pins.retain(|&p| p != q);
                self.stats.unpins += 1;
                if op == RELEASE {
                    self.core.release(q, chunk, now);
                    if let Some((_, chunks)) = self.needs.get_mut(&q) {
                        chunks.remove(&chunk.index());
                    }
                } else {
                    // A rejected chunk is evicted once nobody else holds it.
                    self.core.reject(q, chunk, StoreError::Corrupted, now);
                    if pins.is_empty() {
                        released.extend(self.slots[c].0.take());
                        self.stats.evictions += 1;
                    }
                }
            }
            EVICT => {
                let evicted = self.core.force_evict();
                let state = self.core.state();
                let gone: Vec<usize> = (0..self.slots.len())
                    .filter(|&c| {
                        let chunk = ChunkId::new(c as u32);
                        self.slots[c].0.is_some() && state.buffered_chunk(chunk).is_none()
                    })
                    .collect();
                if evicted {
                    prop_assert_eq!(gone.len(), 1, "one chunk is evicted");
                    let (tags, pins) = &mut self.slots[gone[0]];
                    prop_assert!(pins.is_empty(), "pinned chunk#{} was evicted", gone[0]);
                    released.extend(tags.take());
                    self.stats.evictions += 1;
                } else {
                    prop_assert!(gone.is_empty());
                    let evictable = self.slots.iter().any(|(t, p)| t.is_some() && p.is_empty());
                    prop_assert!(!evictable, "an unpinned chunk was left resident");
                }
            }
            _ => {}
        }
        let mut let_go = self.apply()?;
        for shrunk in shrunk_then_evicted {
            if let Some(at) = let_go.iter().position(|p| *p == shrunk) {
                let_go.remove(at);
            }
        }
        released.sort();
        prop_assert_eq!(let_go, released);
        self.check_all()
    }

    /// Applies the core's effects to the reference: each grant must be of
    /// a resident chunk, carry exactly the data the reference holds for it
    /// and go to a query holding none, and it pins the chunk (a hit); a
    /// closed query leaves `open`.  Returns the tags of the payloads the
    /// buffer let go of, sorted.
    fn apply(&mut self) -> Result<Vec<Tags>, TestCaseError> {
        self.core.swap_effects(&mut self.effects);
        let mut let_go = Vec::new();
        for effect in std::mem::take(&mut self.effects) {
            match effect {
                Effect::Grant {
                    query,
                    chunk,
                    payload,
                    ..
                } => {
                    prop_assert!(
                        self.held.iter().all(|&(h, _)| h != query),
                        "{:?} holds two grants",
                        query
                    );
                    let (tags, pins) = &mut self.slots[chunk.as_usize()];
                    prop_assert!(tags.is_some(), "{:?} was granted but not resident", chunk);
                    prop_assert_eq!(tags.as_ref(), Some(&tags_of(&payload)), "{:?}", chunk);
                    pins.push(query);
                    self.held.push((query, chunk));
                    self.stats.pins += 1;
                    self.stats.hits += 1;
                }
                Effect::Closed { query, .. } => {
                    self.open.retain(|&o| o != query);
                    self.needs.remove(&query);
                }
                Effect::Recycle(payload) => let_go.push(tags_of(&payload)),
                Effect::Quarantined { .. } | Effect::InputsChanged => {}
            }
        }
        let_go.sort();
        Ok(let_go)
    }

    /// The columns the registered queries that still need `chunk` read,
    /// if any does.
    fn live_columns(&self, chunk: usize) -> Option<ColSet> {
        self.needs
            .values()
            .filter(|(_, chunks)| chunks.contains(&(chunk as u32)))
            .map(|&(cols, _)| cols)
            .reduce(|a, b| a.union(b))
    }

    /// Plans a load and commits it at once with fresh data for the columns
    /// it adds.  What the plan let go of — dead columns reclaimed and
    /// victims evicted — goes into `released`; what a victim held after a
    /// shrink it may have gone through first, into `shrunk_then_evicted`.
    fn load(
        &mut self,
        now: SimTime,
        released: &mut Vec<Tags>,
        shrunk_then_evicted: &mut Vec<Tags>,
    ) -> Result<(), TestCaseError> {
        let live: Vec<Option<ColSet>> = (0..self.slots.len())
            .map(|c| self.live_columns(c))
            .collect();
        let mut plans = Vec::new();
        self.core.plan(now, 1, &mut plans);
        let state = self.core.state();
        let mut evicted = Vec::new();
        for (c, (tags, pins)) in self.slots.iter_mut().enumerate() {
            let Some(old) = tags else { continue };
            let chunk = ChunkId::new(c as u32);
            let resident = state.buffered_chunk(chunk).map(|b| b.columns);
            if resident == Some(ColSet::from_columns(old.keys().copied())) {
                continue;
            }
            prop_assert!(pins.is_empty(), "pinned {:?} lost columns", chunk);
            released.push(old.clone());
            // What a shrink keeps: the resident columns still read.
            let old_cols = ColSet::from_columns(old.keys().copied());
            let kept = live[c]
                .map(|live| old_cols.intersect(live))
                .filter(|kept| !kept.is_empty());
            match resident {
                Some(cols) => {
                    // A shrink keeps exactly the columns still read.
                    prop_assert_eq!(Some(cols), kept, "{:?} shrunk", chunk);
                    old.retain(|col, _| cols.contains(*col));
                }
                None => {
                    if let Some(kept) = kept.filter(|&kept| kept != old_cols) {
                        let mut shrunk = old.clone();
                        shrunk.retain(|col, _| kept.contains(*col));
                        shrunk_then_evicted.push(shrunk);
                    }
                    *tags = None;
                    evicted.push(chunk);
                    self.stats.evictions += 1;
                }
            }
        }
        let Some(plan) = plans.pop() else {
            // A failed admission may still have freed room.
            return Ok(());
        };
        let mut planned_evictions = plan.evicted.clone();
        planned_evictions.sort();
        prop_assert_eq!(planned_evictions, evicted);
        let chunk = plan.decision.chunk;
        let c = chunk.as_usize();
        let resident = self.slots[c].0.clone().unwrap_or_default();
        let missing: Vec<ColumnId> = plan
            .decision
            .cols
            .iter()
            .filter(|col| !resident.contains_key(col))
            .collect();
        prop_assert!(!missing.is_empty(), "a load of {:?} adds nothing", chunk);
        prop_assert_eq!(
            self.core.state().missing_columns(chunk, plan.decision.cols),
            ColSet::from_columns(missing.iter().copied())
        );
        self.next_tag += 1;
        let parts = missing
            .iter()
            .map(|&col| (col, ColumnChunk::Plain(Arc::new(vec![self.next_tag]))))
            .collect();
        let payload = ChunkData::from_parts(parts).into();
        let woken = self
            .core
            .commit(chunk, plan.ticket, plan.epoch, payload, now);
        prop_assert!(woken.is_some(), "the load of {:?} was stale", chunk);
        // The install pins for its own duration: a miss if it makes the
        // chunk resident, a hit if it merges into it.
        self.stats.pins += 1;
        self.stats.unpins += 1;
        let fresh = missing.into_iter().map(|col| (col, self.next_tag));
        match &mut self.slots[c].0 {
            Some(tags) => {
                tags.extend(fresh);
                self.stats.hits += 1;
            }
            slot @ None => {
                *slot = Some(fresh.collect());
                self.stats.misses += 1;
            }
        }
        Ok(())
    }

    fn check_all(&self) -> Result<(), TestCaseError> {
        let state = self.core.state();
        for (c, (tags, pins)) in self.slots.iter().enumerate() {
            let chunk = ChunkId::new(c as u32);
            let record = state.buffered_chunk(chunk);
            prop_assert_eq!(record.is_some(), tags.is_some(), "{:?}", chunk);
            if let (Some(b), Some(tags)) = (record, tags) {
                prop_assert_eq!(b.columns, ColSet::from_columns(tags.keys().copied()));
                prop_assert_eq!(&tags_of(&b.payload), tags, "{:?}", chunk);
                let mut pinned_by = b.pinned_by.clone();
                pinned_by.sort();
                let mut pins = pins.clone();
                pins.sort();
                prop_assert_eq!(pinned_by, pins, "{:?}", chunk);
            }
        }
        let stats = state.frame_stats();
        prop_assert_eq!(stats, self.stats);
        prop_assert_eq!(stats.hits + stats.misses, stats.pins);
        prop_assert_eq!(stats.pins - stats.unpins, self.held.len() as u64);
        let pinned = self.slots.iter().filter(|s| !s.1.is_empty()).count();
        let resident = self.slots.iter().filter(|s| s.0.is_some()).count();
        prop_assert_eq!(state.pinned_frames(), pinned);
        prop_assert_eq!(state.num_buffered(), resident);
        prop_assert!(state.used_pages() <= state.capacity_pages());
        prop_assert_eq!(self.obs.gauge(Gauge::PinnedFrames), pinned as u64);
        prop_assert_eq!(self.obs.gauge(Gauge::ResidentFrames), resident as u64);
        let published = [
            (Counter::FrameHits, stats.hits),
            (Counter::FrameMisses, stats.misses),
            (Counter::FramePins, stats.pins),
            (Counter::FrameUnpins, stats.unpins),
            (Counter::FrameEvictions, stats.evictions),
        ];
        for (counter, value) in published {
            prop_assert_eq!(self.obs.counter(counter), value, "{:?}", counter);
        }
        Ok(())
    }
}

fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    (0..PolicyKind::ALL.len()).prop_map(|i| PolicyKind::ALL[i])
}

proptest! {
    /// Any script of registrations, loads, releases, rejections and
    /// evictions — and the grants the core makes at each — over any chunk
    /// count and buffer size, under every policy.
    #[test]
    fn pool_matches_reference_model(
        policy in arb_policy(),
        num_chunks in 1u32..40,
        buffer_chunks in 1u64..8,
        script in prop::collection::vec((0u8..5, 0u32..1000), 1..400),
    ) {
        let mut model = PoolModel::new(policy, num_chunks, buffer_chunks);
        for (op, arg) in script {
            model.step(op, arg)?;
        }
    }

    /// Chunks pinned by grants that are never returned stay resident, with
    /// their pins and their data, through every load, eviction and
    /// rejection the other chunks see.
    #[test]
    fn pinned_pages_survive_pressure(
        policy in arb_policy(),
        num_chunks in 2u32..40,
        pressure in prop::collection::vec((0u8..5, 0u32..1000), 10..200),
    ) {
        let pinned = num_chunks / 2;
        let mut model = PoolModel::new(policy, num_chunks, u64::from(pinned) + 2);
        // One scan of each of the first `pinned` chunks, loaded one by one
        // until every scan holds its chunk's grant (each commit grants the
        // chunk to the scan that waits for it).
        for id in 0..pinned {
            model.register(id, id + 1, ColSet::EMPTY, SimTime::ZERO);
        }
        for _ in 0..=pinned {
            model.step(LOAD, 0)?;
        }
        let held = model.held.clone();
        prop_assert_eq!(held.len(), pinned as usize);
        for &(q, chunk) in &held {
            let id = model.open.iter().position(|&o| o == q);
            prop_assert_eq!(id, Some(chunk.as_usize()));
        }
        let data: Vec<_> = (0..pinned as usize).map(|c| model.slots[c].0.clone()).collect();
        model.first_chunk = pinned;
        model.kept_grants = held.len();
        for (op, arg) in pressure {
            model.step(op, arg)?;
            for &(q, chunk) in &held {
                let b = model.core.state().buffered_chunk(chunk);
                prop_assert!(b.is_some_and(|b| b.pinned_by == [q]), "{:?}", chunk);
                let c = chunk.as_usize();
                prop_assert_eq!(&model.slots[c].0, &data[c]);
            }
        }
    }
}
