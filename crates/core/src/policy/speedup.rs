//! What the index walks of [`RelevancePolicy`] save: the release-only gate
//! `incremental_speedup_at_64_queries` times one `next_load` decision of
//! the walk against one of the reference's sweeps ([`Relevance`], which
//! counts availability, starvation and interest afresh), on Figure 8's
//! 2 GB relation in 2 048 chunks with 64 queries scanning all of it and a
//! quarter-table buffer, laid out three ways: a row store, a six-column
//! column store and a row store whose last chunk is short.

use super::reference::Relevance;
use super::{Policy, PolicyKind, RelevancePolicy};
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::retry::RetryPolicy;
use crate::sched::Scheduler;
use cscan_obs::Registry;
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkPayload, ColumnDef, ColumnType, ScanRanges, TableSchema};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHUNKS: u32 = 2048;
const PAGE: u64 = cscan_storage::DEFAULT_PAGE_SIZE;
/// Pages of a 2 GB relation's chunk.
const CHUNK_PAGES: u64 = 2 * 1024 * 1024 * 1024 / CHUNKS as u64 / PAGE;
/// Tuples of a chunk of 72-byte rows, lineitem's width.
const CHUNK_TUPLES: u64 = 2_000_000_000 / 72 / CHUNKS as u64;

/// The same relation as a row store of lineitem's 72-byte tuples, its last
/// chunk 143/256 full as lineitem's is at scale factor 10: the one chunk a
/// load may read fewer pages of than the rest.
fn short_last_chunk() -> TableModel {
    let columns = (0..9).map(|i| ColumnDef::new(format!("c{i}"), ColumnType::Int64));
    let schema = TableSchema::new("rows", columns.collect());
    let full = PAGE / schema.tuple_width_uncompressed() * CHUNK_PAGES;
    let tuples = u64::from(CHUNKS - 1) * full + full * 143 / 256;
    TableModel::nsm(&schema, tuples, PAGE, CHUNK_PAGES * PAGE)
}

/// The three layouts: a row store, a column store of six columns of
/// unequal width (1 : 1 : 2 : 2 : 4 : 6 sixteenths of a chunk's pages), and
/// the row store with a short last chunk.
fn layouts() -> [(&'static str, TableModel); 3] {
    let sixteenth = CHUNK_PAGES / 16;
    let widths = [1, 1, 2, 2, 4, 6].map(|w| w * sixteenth);
    [
        (
            "row store",
            TableModel::nsm_uniform(CHUNKS, CHUNK_TUPLES, CHUNK_PAGES),
        ),
        (
            "column store",
            TableModel::dsm_uniform(CHUNKS, CHUNK_TUPLES, &widths),
        ),
        ("short last chunk", short_last_chunk()),
    ]
}

/// Plans one load and commits it at once, as a K = 1 driver would;
/// returns whether a load was planned.
fn load_one(core: &mut Scheduler<()>) -> bool {
    let mut plans = Vec::new();
    core.plan(SimTime::ZERO, 1, &mut plans);
    let Some(plan) = plans.pop() else {
        return false;
    };
    core.commit(
        plan.decision.chunk,
        plan.ticket,
        ChunkPayload::Missing,
        SimTime::ZERO,
    );
    core.swap_effects(&mut Vec::new());
    true
}

/// Wall-clock time of `iterations` `next_load` decisions of `policy`.
/// Before each, the core completes one load, or evicts a chunk if none is
/// plannable, so every decision reads freshly changed state.
fn time_decisions(model: &TableModel, policy: &mut dyn Policy, iterations: u32) -> Duration {
    let (capacity, all) = (
        model.total_pages(model.all_columns()) / 4,
        model.all_columns(),
    );
    let obs = Arc::new(Registry::disabled());
    let retry = RetryPolicy::default();
    let mut core = Scheduler::new(model.clone(), capacity, PolicyKind::Relevance, retry, obs);
    for q in 0..64 {
        let plan = CScanPlan::new(format!("q{q}"), ScanRanges::full(CHUNKS), all);
        core.register(&plan, (), SimTime::ZERO);
    }
    for _ in 0..4 {
        load_one(&mut core);
    }
    let mut total = Duration::ZERO;
    for _ in 0..iterations {
        if !load_one(&mut core) {
            core.force_evict();
        }
        let start = Instant::now();
        std::hint::black_box(policy.next_load(core.state(), SimTime::ZERO, 0));
        total += start.elapsed();
    }
    total
}

#[test]
fn the_ragged_row_store_is_short_in_its_last_chunk_only() {
    let m = short_last_chunk();
    let all = m.all_columns();
    let pages = |c: u32| m.chunk_pages(cscan_storage::ChunkId::new(c), all);
    assert_eq!(m.num_chunks(), CHUNKS);
    assert_eq!((pages(0), pages(2046), pages(2047)), (16, 16, 9));
}

/// On each layout the walk decides at least `MIN_SPEEDUP`× faster than the
/// reference, the best of three alternating runs a side.  On two cores the
/// walk reads 390–940× the reference; the reference reads 19–37×, 10× and
/// 23–30× the cost of a sweep over the trigger's chunks that reads the
/// cached counters, so 200× asks at least 5× of the walk against such a
/// sweep on every layout.  With the narrowest chunk as the walk's page
/// floor, the short-last-chunk layout reads about 30×.  Only meaningful in
/// release builds: under `debug_assertions` every ABM mutation re-counts
/// the cached counters (`AbmState::validate_counters`), which swamps what
/// the walk saves.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "speedup is measured in release builds only"
)]
fn incremental_speedup_at_64_queries() {
    const MIN_SPEEDUP: f64 = 200.0;
    for (layout, model) in layouts() {
        let (mut walk, mut reference) = (Duration::MAX, Duration::MAX);
        for _ in 0..3 {
            walk = walk.min(time_decisions(&model, &mut RelevancePolicy::new(), 300));
            reference = reference.min(time_decisions(&model, &mut Relevance, 300));
        }
        let speedup = reference.as_secs_f64() / walk.as_secs_f64();
        println!("{layout}: walk {walk:?}, reference {reference:?} a 300 decisions: {speedup:.1}×");
        assert!(
            speedup >= MIN_SPEEDUP,
            "{layout}: the walk is {speedup:.1}× the reference, under {MIN_SPEEDUP}×"
        );
    }
}
