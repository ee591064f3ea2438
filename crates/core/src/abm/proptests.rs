//! Property tests of the incremental scheduling index.
//!
//! For arbitrary interleavings of query registration/removal, chunk loads,
//! evictions, processing and blocking:
//!
//! * every cached counter of [`AbmState`] (availability, starvation levels,
//!   per-chunk interest split by starvation) must equal its brute-force
//!   recomputation ([`AbmState::validate_counters`]), and
//!   [`AbmState::misses_a_chunk`] the sweep over the queries, and
//! * the index walks of [`RelevancePolicy`] — the chunk argmax, the
//!   consumption argmax and the eviction argmin — must take exactly the
//!   decisions of the reference written from the paper
//!   ([`crate::policy::reference`]), which counts availability, starvation
//!   and interest afresh at every decision.  `prop_assert` compares them,
//!   so a release build checks the code that decides in production.
//!
//! These run the *internal* mutation API directly (the simulation-level
//! property tests in `tests/properties.rs` cover the public surface).

use crate::abm::AbmState;
use crate::colset::ColSet;
use crate::model::TableModel;
use crate::policy::reference::Relevance;
use crate::policy::{Policy as _, RelevancePolicy};
use crate::query::QueryId;
use cscan_simdisk::SimTime;
use cscan_storage::{
    ChunkId, ChunkPayload, ColumnDef, ColumnId, ColumnType, ScanRanges, TableSchema,
};
use proptest::prelude::*;

const CHUNKS: u32 = 24;

/// One step of a random ABM workload.  Parameters are interpreted modulo the
/// current state, so every generated sequence is applicable.
#[derive(Debug, Clone)]
enum Op {
    /// Register a fresh query scanning `len` chunks from `start` reading the
    /// columns of `cols` (a bitmask over the first eight).
    Register { start: u32, len: u32, cols: u8 },
    /// Cancel the `i`-th active query (mod the number of active queries).
    Remove { i: u8 },
    /// Load (the missing columns of) a chunk synchronously (begin+complete),
    /// if nothing is in flight for it.
    Load { chunk: u32, cols: u8 },
    /// Begin an asynchronous load of a chunk without completing it (leaves
    /// the load in flight, exercising the multi-outstanding state).
    BeginLoad { chunk: u32, cols: u8 },
    /// Complete the `i`-th in-flight load (arbitrary completion order).
    CompleteLoad { i: u8 },
    /// Abort the `i`-th in-flight load.
    AbortLoad { i: u8 },
    /// Evict a chunk, if evictable.
    Evict { chunk: u32 },
    /// Reclaim the dead columns of one chunk, as an admission short of
    /// pages does (a no-op on a table of one group).
    Reclaim,
    /// Have the `i`-th active query fully process its `pick`-th available
    /// chunk, if it has one.
    Process { i: u8, pick: u8 },
    /// Mark the `i`-th active query blocked (grows its waiting time, which
    /// feeds `queryRelevance`).
    Block { i: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CHUNKS, 1..=CHUNKS, 1u8..8).prop_map(|(start, len, cols)| Op::Register {
            start,
            len,
            cols
        }),
        (0u8..=255).prop_map(|i| Op::Remove { i }),
        (0..CHUNKS, 1u8..8).prop_map(|(chunk, cols)| Op::Load { chunk, cols }),
        (0..CHUNKS, 1u8..8).prop_map(|(chunk, cols)| Op::BeginLoad { chunk, cols }),
        (0u8..=255).prop_map(|i| Op::CompleteLoad { i }),
        (0u8..=255).prop_map(|i| Op::AbortLoad { i }),
        (0..CHUNKS).prop_map(|chunk| Op::Evict { chunk }),
        Just(Op::Reclaim),
        (0u8..=255, 0u8..=255).prop_map(|(i, pick)| Op::Process { i, pick }),
        (0u8..=255).prop_map(|i| Op::Block { i }),
    ]
}

fn col_set(model: &TableModel, mask: u8) -> ColSet {
    let num_cols = model.num_columns();
    let mut cols = ColSet::empty();
    for c in 0..num_cols.min(8) {
        if mask as u16 & (1 << c) != 0 {
            cols.insert(ColumnId::new(c));
        }
    }
    if cols.is_empty() {
        cols.insert(ColumnId::new(mask as u16 % num_cols));
    }
    cols
}

/// Applies `ops`, asserting after every step that the cached counters match
/// the brute-force definitions and that the walking relevance policy and
/// the reference agree on every decision.
fn check_ops(model: TableModel, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut s = AbmState::new(model, 1_000_000);
    let mut inc = RelevancePolicy::new();
    let mut reference = Relevance;
    let mut next_id = 0u64;
    let mut active: Vec<QueryId> = Vec::new();
    let mut clock = 0u64;
    for op in ops {
        clock += 1;
        let now = SimTime::from_secs(clock);
        match *op {
            Op::Register { start, len, cols } => {
                let id = QueryId(next_id);
                next_id += 1;
                let end = (start + len).min(CHUNKS).max(start + 1);
                let cols = col_set(s.model(), cols);
                s.register_query(
                    id,
                    format!("q{}", id.0),
                    ScanRanges::single(start, end),
                    cols,
                    now,
                );
                active.push(id);
            }
            Op::Remove { i } => {
                if !active.is_empty() {
                    let q = active.remove(i as usize % active.len());
                    s.remove_query(q);
                }
            }
            Op::Load { chunk, cols } => {
                let chunk = ChunkId::new(chunk % CHUNKS);
                let cols = col_set(s.model(), cols);
                if !s.is_inflight(chunk) && s.pages_to_load(chunk, cols) > 0 {
                    s.begin_load(chunk, cols);
                    s.complete_load_of(chunk, ChunkPayload::Missing);
                }
            }
            Op::BeginLoad { chunk, cols } => {
                let chunk = ChunkId::new(chunk % CHUNKS);
                let cols = col_set(s.model(), cols);
                if !s.is_inflight(chunk) && s.pages_to_load(chunk, cols) > 0 {
                    s.begin_load(chunk, cols);
                }
            }
            Op::CompleteLoad { i } => {
                if s.num_inflight() > 0 {
                    let chunk = s.inflight_loads()[i as usize % s.num_inflight()].chunk;
                    s.complete_load_of(chunk, ChunkPayload::Missing);
                }
            }
            Op::AbortLoad { i } => {
                if s.num_inflight() > 0 {
                    let chunk = s.inflight_loads()[i as usize % s.num_inflight()].chunk;
                    s.abort_load(chunk);
                }
            }
            Op::Evict { chunk } => {
                let chunk = ChunkId::new(chunk % CHUNKS);
                if s.is_evictable(chunk) {
                    s.evict(chunk);
                }
            }
            Op::Reclaim => {
                let before = s.used_pages();
                if let Some(chunk) = s.reclaim_dead_columns() {
                    prop_assert!(s.used_pages() < before);
                    prop_assert!(s.dead_columns(chunk).is_empty());
                }
            }
            Op::Process { i, pick } => {
                if !active.is_empty() {
                    let q = active[i as usize % active.len()];
                    let available: Vec<ChunkId> = s
                        .query(q)
                        .remaining_chunks()
                        .filter(|&c| s.is_resident_for(q, c))
                        .collect();
                    if !available.is_empty() {
                        let chunk = available[pick as usize % available.len()];
                        s.start_processing(q, chunk);
                        s.finish_processing(q, chunk);
                        if s.query(q).is_finished() {
                            active.retain(|&a| a != q);
                            s.remove_query(q);
                        }
                    }
                }
            }
            Op::Block { i } => {
                if !active.is_empty() {
                    let q = active[i as usize % active.len()];
                    s.block_query(q, now);
                }
            }
        }
        // (a) every cached counter equals its brute-force recomputation;
        s.validate_counters();
        let sweep = s
            .queries()
            .any(|q| q.chunks_needed() > s.available_chunks_brute(q.id));
        prop_assert_eq!(
            s.misses_a_chunk(),
            sweep,
            "stale count of queries missing a chunk"
        );
        // (b) the walks take exactly the reference's decisions.
        let a = inc
            .next_load(&s, now, 0)
            .map(|d| (d.trigger, d.chunk, d.cols));
        let b = reference
            .next_load(&s, now, 0)
            .map(|d| (d.trigger, d.chunk, d.cols));
        prop_assert_eq!(a, b, "walk and reference next_load diverged");
        // (c) so do the eviction and consumption argmaxes, for every query.
        if let Some((trigger, chunk, cols)) = a {
            let load = crate::abm::LoadDecision {
                trigger,
                chunk,
                cols,
            };
            prop_assert_eq!(
                inc.choose_victim(&s, &load),
                reference.choose_victim(&s, &load),
                "walk and reference choose_victim diverged"
            );
        }
        for &q in &active {
            prop_assert_eq!(
                inc.next_chunk(q, &s),
                reference.next_chunk(q, &s),
                "walk and reference next_chunk diverged"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// NSM: counters and decisions survive arbitrary operation sequences.
    #[test]
    fn nsm_incremental_index_matches_brute_force(ops in prop::collection::vec(arb_op(), 1..80)) {
        check_ops(TableModel::nsm_uniform(CHUNKS, 1000, 16), &ops)?;
    }

    /// DSM (three columns of different widths, partial residency, dead-column
    /// reclaim): counters and decisions — the bucket walk of
    /// `choose_chunk_walk` under the interest-weighted score, the word-walks
    /// of `next_chunk` and `choose_victim` — survive arbitrary operation
    /// sequences.
    #[test]
    fn dsm_incremental_index_matches_brute_force(ops in prop::collection::vec(arb_op(), 1..80)) {
        check_ops(TableModel::dsm_uniform(CHUNKS, 1000, &[2, 4, 8]), &ops)?;
    }

    /// DSM over a schema whose chunks differ: three columns of unequal width,
    /// pages shared across chunk boundaries, a half-size last chunk.  Only on
    /// such a table does the chunk argmax score ragged chunks before its
    /// bucket walk, whose page floor they would undercut.
    #[test]
    fn ragged_dsm_incremental_index_matches_brute_force(ops in prop::collection::vec(arb_op(), 1..80)) {
        check_ops(ragged_dsm(), &ops)?;
    }
}

/// 470 000 rows in 20 000-row chunks: 24 chunks, the last one half full.
fn ragged_dsm() -> TableModel {
    let schema = TableSchema::new(
        "ragged",
        vec![
            ColumnDef::new("a", ColumnType::Int64),
            ColumnDef::new("b", ColumnType::Char),
            ColumnDef::new("c", ColumnType::Varchar { avg_len: 16 }),
        ],
    );
    let model = TableModel::dsm(&schema, 470_000, 64 * 1024, 20_000);
    assert_eq!(model.num_chunks(), CHUNKS);
    assert!(model.ragged_words()[0] != 0);
    model
}

/// The ragged table's geometry, pinned: pages per column of the first and
/// the last chunk, and each column's pages over the whole table with the
/// offset of its area.
#[test]
fn pinned_ragged_dsm_geometry() {
    let m = ragged_dsm();
    let pages = |c: u32| -> Vec<u64> {
        (0..3)
            .map(|i| m.chunk_pages(ChunkId::new(c), ColSet::from_columns([ColumnId::new(i)])))
            .collect()
    };
    assert_eq!(m.total_tuples(), 470_000);
    assert_eq!(m.total_pages(m.all_columns()), 250);
    assert_eq!(pages(0), [3, 1, 5]);
    assert_eq!(pages(CHUNKS - 1), [2, 1, 3]);
    let areas: Vec<(u64, u64)> = m
        .chunk_regions(ChunkId::new(0), m.all_columns())
        .iter()
        .zip(0..3)
        .map(|(r, i)| {
            let col = ColSet::from_columns([ColumnId::new(i)]);
            (r.offset / m.page_size(), m.total_pages(col))
        })
        .collect();
    assert_eq!(areas, [(0, 81), (58, 31), (66, 138)]);
}
