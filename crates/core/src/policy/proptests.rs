//! Differential tests of the in-order policy's load decision.
//!
//! `normal` and `attach` are one [`InOrderPolicy`]: its `next_load`
//! services blocked queries round-robin, and each query's next missing
//! chunk is found by a walk that starts at a cursor: the query's
//! consumption cursor (`QueryState::remaining_chunks`), or an attached
//! query's cursor from its start chunk.  For arbitrary interleavings of
//! registrations, loads, in-flight marks, evictions and out-of-order
//! finishes, every cursor walk must yield what the walk from the first
//! chunk yields, every `attach` start must be the partner's position, and
//! every decision of a `normal` and an `attach` instance must be the one
//! its reference ([`reference::InOrder`], run beside it) takes over each
//! query's ranges rotated at its start.  `prop_assert` compares them, so
//! a release build checks the code that decides in production.

use super::reference;
use super::{InOrderPolicy, Policy, PolicyKind};
use crate::abm::AbmState;
use crate::colset::ColSet;
use crate::model::TableModel;
use crate::query::QueryId;
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ChunkPayload, ChunkRange, ColumnId, ScanRanges};
use proptest::prelude::*;

/// More than one 64-chunk bitset word, so the overlap popcount crosses a
/// word boundary.
const CHUNKS: u32 = 80;

/// One step of a random workload.  Parameters are interpreted modulo the
/// current state, so every generated sequence is applicable.
#[derive(Debug, Clone)]
enum Op {
    /// Register a query scanning `len` chunks from `start` and, if `len2`
    /// is not zero, `len2` more `gap` chunks after them, reading the
    /// columns of `cols` (a bitmask over the first three).
    Register {
        start: u32,
        len: u32,
        gap: u32,
        len2: u32,
        cols: u8,
    },
    /// Close the `i`-th active query.
    Remove { i: u8 },
    /// Load (the missing columns of) a chunk, if nothing is in flight for it.
    Load { chunk: u32, cols: u8 },
    /// Begin a load of a chunk without completing it.
    BeginLoad { chunk: u32, cols: u8 },
    /// Complete the `i`-th in-flight load.
    CompleteLoad { i: u8 },
    /// Abort the `i`-th in-flight load.
    AbortLoad { i: u8 },
    /// Evict a chunk, if evictable.
    Evict { chunk: u32 },
    /// Have the `i`-th active query consume its `pick`-th resident chunk,
    /// in any order.
    Process { i: u8, pick: u8 },
    /// Ask both policies for the `i`-th active query's consumption point
    /// and next chunk, which moves an attached query's cursor.
    Poll { i: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CHUNKS, 1..=CHUNKS / 2, 0..8u32, 0..12u32, 1u8..8).prop_map(
            |(start, len, gap, len2, cols)| Op::Register {
                start,
                len,
                gap,
                len2,
                cols
            }
        ),
        (0u8..=255).prop_map(|i| Op::Remove { i }),
        (0..CHUNKS, 1u8..8).prop_map(|(chunk, cols)| Op::Load { chunk, cols }),
        (0..CHUNKS, 1u8..8).prop_map(|(chunk, cols)| Op::BeginLoad { chunk, cols }),
        (0u8..=255).prop_map(|i| Op::CompleteLoad { i }),
        (0u8..=255).prop_map(|i| Op::AbortLoad { i }),
        (0..CHUNKS).prop_map(|chunk| Op::Evict { chunk }),
        // Listed twice: consumption is what moves the cursors.
        (0u8..=255, 0u8..=255).prop_map(|(i, pick)| Op::Process { i, pick }),
        (0u8..=255, 0u8..=255).prop_map(|(i, pick)| Op::Process { i, pick }),
        (0u8..=255).prop_map(|i| Op::Poll { i }),
    ]
}

fn col_set(model: &TableModel, mask: u8) -> ColSet {
    let num_cols = model.num_columns();
    let mut cols = ColSet::empty();
    for c in 0..num_cols.min(3) {
        if mask as u16 & (1 << c) != 0 {
            cols.insert(ColumnId::new(c));
        }
    }
    if cols.is_empty() {
        cols.insert(ColumnId::new(mask as u16 % num_cols));
    }
    cols
}

/// Applies `ops` to one state shared by a `normal` and an `attach`
/// policy and their references, asserting after every step that the
/// cursor walks and the round-robin rotation decide as the full walks do.
fn check_ops(model: TableModel, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut s = AbmState::new(model, 1_000_000);
    let kinds = [PolicyKind::Normal, PolicyKind::Attach];
    let mut policies = kinds.map(InOrderPolicy::new);
    let mut refs = kinds.map(reference::InOrder::new);
    let mut next_id = 0u64;
    let mut active: Vec<QueryId> = Vec::new();
    for op in ops {
        match *op {
            Op::Register {
                start,
                len,
                gap,
                len2,
                cols,
            } => {
                let id = QueryId(next_id);
                next_id += 1;
                let end = (start + len).min(CHUNKS);
                let start2 = (end + gap).min(CHUNKS);
                let end2 = (start2 + len2).min(CHUNKS);
                let ranges = ScanRanges::from_ranges([
                    ChunkRange::new(start, end),
                    ChunkRange::new(start2, end2),
                ]);
                let cols = col_set(s.model(), cols);
                s.register_query(id, format!("q{}", id.0), ranges, cols, SimTime::ZERO);
                let start = refs[1].attach_start(&s, id);
                policies.iter_mut().for_each(|p| p.on_register(id, &s));
                refs.iter_mut().for_each(|r| r.on_register(id, &s));
                prop_assert_eq!(
                    policies[1].consumption_point(&s, id),
                    start,
                    "attach's start of {:?} diverged",
                    id
                );
                active.push(id);
            }
            Op::Remove { i } => {
                if !active.is_empty() {
                    let q = active.remove(i as usize % active.len());
                    policies.iter_mut().for_each(|p| p.on_query_finished(q, &s));
                    refs.iter_mut().for_each(|r| r.on_query_finished(q, &s));
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
                            policies.iter_mut().for_each(|p| p.on_query_finished(q, &s));
                            refs.iter_mut().for_each(|r| r.on_query_finished(q, &s));
                            s.remove_query(q);
                        }
                    }
                }
            }
            Op::Poll { i } => {
                if !active.is_empty() {
                    let q = active[i as usize % active.len()];
                    for (p, r) in policies.iter_mut().zip(&refs) {
                        prop_assert_eq!(
                            p.consumption_point(&s, q),
                            r.walk(s.query(q)).first().copied(),
                            "{}'s consumption point of {:?} diverged",
                            p.kind(),
                            q
                        );
                        p.next_chunk(q, &s);
                    }
                }
            }
        }
        // (a) every query's cursor walk yields what is still needed;
        for q in s.queries() {
            prop_assert_eq!(
                q.remaining_chunks().collect::<Vec<_>>(),
                q.remaining_chunks_brute().collect::<Vec<_>>(),
                "remaining_chunks of {:?} diverged",
                q.id
            );
        }
        // (b) a query of `normal` consumes in table order from its cursor
        // (it keeps no cursor of its own, so asking moves nothing);
        for q in s.queries() {
            prop_assert_eq!(
                policies[0].consumption_point(&s, q.id),
                q.remaining_chunks().next(),
                "normal's consumption point of {:?} diverged",
                q.id
            );
        }
        // (c) the rotation picks the full walk's trigger and chunk, after
        // every possible last-serviced query, under both kinds' starts;
        let lasts = std::iter::once(None).chain((0..=next_id).map(|q| Some(QueryId(q))));
        for last in lasts {
            for (p, r) in policies.iter_mut().zip(&mut refs) {
                (p.last_serviced, r.last_serviced) = (last, last);
                let brute = r.next_load(&s, SimTime::ZERO, 0);
                prop_assert_eq!(
                    p.next_load(&s, SimTime::ZERO, 0),
                    brute,
                    "{}'s decision after {:?} diverged",
                    p.kind(),
                    last
                );
            }
        }
        // (d) `attach`'s overlap popcount counts the chunks both still need.
        for a in s.queries() {
            for b in s.queries() {
                let walked = b.remaining_chunks_brute().filter(|&c| a.needs(c)).count() as u64;
                prop_assert_eq!(
                    InOrderPolicy::overlap_score(a, b),
                    walked * u64::from(a.columns.intersect(b.columns).len()),
                    "overlap of {:?} with {:?} diverged",
                    a.id,
                    b.id
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Row store: whole chunks are resident or not.
    #[test]
    fn nsm_round_robin_load_matches_the_full_walks(ops in prop::collection::vec(arb_op(), 1..120)) {
        check_ops(TableModel::nsm_uniform(CHUNKS, 1000, 16), &ops)?;
    }

    /// Column store: a chunk may be resident with only some of a query's
    /// columns, so `pages_to_load` filters the walk too.
    #[test]
    fn dsm_round_robin_load_matches_the_full_walks(ops in prop::collection::vec(arb_op(), 1..120)) {
        check_ops(TableModel::dsm_uniform(CHUNKS, 1000, &[2, 4, 8]), &ops)?;
    }
}

/// With 64 open queries that each miss a chunk, one decision asks exactly
/// one query: the first after `last_serviced` in rotation order.
#[test]
fn one_decision_asks_one_query() {
    let mut s = AbmState::new(TableModel::nsm_uniform(CHUNKS, 1000, 16), 1_000_000);
    let cols = s.model().all_columns();
    for q in 0..64 {
        s.register_query(
            QueryId(q),
            format!("q{q}"),
            ScanRanges::single(0, CHUNKS),
            cols,
            SimTime::ZERO,
        );
    }
    let mut p = InOrderPolicy::new(PolicyKind::Normal);
    for (last, trigger) in [(None, 0), (Some(0), 1), (Some(30), 31), (Some(63), 0)] {
        p.last_serviced = last.map(QueryId);
        p.asked.set(0);
        let decision = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert_eq!(decision.trigger, QueryId(trigger));
        assert_eq!(decision.chunk, ChunkId::new(0));
        assert_eq!(p.asked.get(), 1, "after {last:?}");
    }
}
