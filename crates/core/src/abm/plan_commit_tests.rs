//! Tests of the plan/commit protocol as both drivers use it: up to K loads
//! in flight, each burst planned by [`Abm::plan_loads`] with a budget of K
//! minus the loads in flight, each completion retired by
//! [`Abm::commit_load`] under the `(ticket, epoch)` stamp of its plan.
//!
//! For arbitrary interleavings of query registration/detachment, chunk
//! consumption and out-of-order load completions, with arbitrary
//! outstanding-load budgets:
//!
//! * every load the ABM admits targets a chunk some active query still
//!   needs, and a commit *never installs residency* for a chunk no active
//!   query wants — a detach mid-read leads to an abort or a cancelled
//!   completion, not a dead chunk in the pool,
//! * buffer frames are never double-used: no chunk has two outstanding
//!   loads, tickets are unique, and occupied plus reserved pages never
//!   exceed the pool (re-checked from first principles here, on top of
//!   [`AbmState::validate_counters`]),
//! * driven by a single worker, a K=1 plan/commit loop takes
//!   decision-for-decision the same loads (and evictions) as the sequential
//!   [`Abm::plan_load`] main loop.

use crate::abm::{Abm, AbmState, LoadPlan};
use crate::colset::ColSet;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ChunkPayload, ColumnId, ScanRanges};
use proptest::prelude::*;

const CHUNKS: u32 = 24;

/// One step of a random driver workload (interpreted modulo the current
/// state so every sequence is applicable).
#[derive(Debug, Clone)]
enum Op {
    /// Register a fresh query scanning `len` chunks from `start`.
    Register { start: u32, len: u32 },
    /// Detach the `i`-th active query.
    Detach { i: u8 },
    /// Complete the `i`-th outstanding load (out-of-order completion).
    Complete { i: u8 },
    /// Have the `i`-th active query acquire (policy's pick) and consume one
    /// available chunk.
    Process { i: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..CHUNKS, 1..=CHUNKS).prop_map(|(start, len)| Op::Register { start, len }),
        (0u8..=255).prop_map(|i| Op::Detach { i }),
        (0u8..=255).prop_map(|i| Op::Complete { i }),
        // Two completion-flavoured arms keep the pipeline churning.
        (0u8..=255).prop_map(|i| Op::Complete {
            i: i.wrapping_add(7)
        }),
        (0u8..=255).prop_map(|i| Op::Process { i }),
    ]
}

fn abm(chunks: u32, buffer_chunks: u64) -> Abm {
    let model = TableModel::nsm_uniform(chunks, 1000, 16);
    Abm::new(
        AbmState::new(model, buffer_chunks * 16),
        PolicyKind::Relevance.build(),
    )
}

/// Fills the pipeline the way both drivers do: the budget is K minus the
/// loads in flight.
fn plan(abm: &mut Abm, k: usize, now: SimTime, out: &mut Vec<LoadPlan>) {
    let room = k.saturating_sub(abm.state().num_inflight());
    abm.plan_loads(now, room, out);
}

/// Retires `plan`'s completion; whether it installed residency.
fn commit(abm: &mut Abm, plan: &LoadPlan) -> bool {
    let payload = ChunkPayload::Missing;
    let (chunk, ticket, epoch) = (plan.decision.chunk, plan.ticket, plan.epoch);
    abm.commit_load(chunk, ticket, epoch, payload).is_some()
}

/// Applies one op to an `(abm, active)` pair, using `plans` for the
/// completion ops.  Returns the chunks completed (so twin executions can be
/// replayed identically).
fn apply_op(op: &Op, abm: &mut Abm, active: &mut Vec<QueryId>, next_label: &mut u64, now: SimTime) {
    match *op {
        Op::Register { start, len } => {
            let end = (start + len).min(CHUNKS).max(start + 1);
            let cols = abm.state().model().all_columns();
            let id = abm.register_query(
                format!("q{}", *next_label),
                ScanRanges::single(start, end),
                cols,
                now,
            );
            *next_label += 1;
            active.push(id);
        }
        Op::Detach { i } => {
            if !active.is_empty() {
                let q = active.remove(i as usize % active.len());
                abm.finish_query(q);
            }
        }
        Op::Complete { .. } | Op::Process { .. } => unreachable!("handled by the driver"),
    }
}

/// Drives `abm` through `ops` with up to K loads outstanding, checking the
/// safety properties after every step.
fn check_pipeline(k: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut abm = abm(CHUNKS, 4);
    let mut active: Vec<QueryId> = Vec::new();
    let mut next_label = 0u64;
    let mut plans: Vec<LoadPlan> = Vec::new();
    let mut clock = 0u64;
    for op in ops {
        clock += 1;
        let now = SimTime::from_secs(clock);
        match *op {
            Op::Complete { i } => {
                // `plans` may hold loads whose last interested query has
                // detached since (the ABM auto-aborted them): committing
                // their stale completion must be a harmless no-op, and a
                // commit that *does* install residency must land on a chunk
                // some query still wants.
                if !plans.is_empty() {
                    let idx = i as usize % plans.len();
                    let plan = plans.swap_remove(idx);
                    if commit(&mut abm, &plan) {
                        prop_assert!(
                            abm.state().num_interested(plan.decision.chunk) > 0,
                            "committed a load of {:?} which no query needs",
                            plan.decision.chunk
                        );
                    }
                }
            }
            Op::Process { i } => {
                if !active.is_empty() {
                    let q = active[i as usize % active.len()];
                    if let Some((chunk, _)) = abm.acquire_chunk(q, now) {
                        abm.release_delivered(q, chunk);
                        if abm.is_query_finished(q) {
                            abm.finish_query(q);
                            active.retain(|&a| a != q);
                        }
                    }
                }
            }
            ref op => apply_op(op, &mut abm, &mut active, &mut next_label, now),
        }
        // Re-fill the pipeline, as a driver would after every event.
        let before = plans.len();
        plan(&mut abm, k, now, &mut plans);
        for plan in &plans[before..] {
            // Never load a chunk nobody wants.
            prop_assert!(
                abm.state().num_interested(plan.decision.chunk) > 0,
                "admitted a load of {:?} which no query needs",
                plan.decision.chunk
            );
            prop_assert!(plan.pages > 0);
        }
        // Never more than K in flight, never two loads of one chunk or two
        // of one ticket, every load in flight one whose completion is still
        // to come, and never an over-committed pool (frames
        // double-reserved).
        let inflight = abm.state().inflight_loads();
        prop_assert!(inflight.len() <= k);
        for (i, load) in inflight.iter().enumerate() {
            prop_assert!(
                inflight[..i]
                    .iter()
                    .all(|l| l.chunk != load.chunk && l.ticket != load.ticket),
                "two loads of {:?} or two tickets {}",
                load.chunk,
                load.ticket
            );
            prop_assert!(
                plans
                    .iter()
                    .any(|p| p.decision.chunk == load.chunk && p.ticket == load.ticket),
                "a load in flight nobody will complete"
            );
        }
        let reserved: u64 = abm.state().inflight_loads().iter().map(|l| l.pages).sum();
        prop_assert_eq!(reserved, abm.state().reserved_pages());
        prop_assert!(
            abm.state().used_pages() + abm.state().reserved_pages() <= abm.state().capacity_pages()
        );
        abm.state().validate_counters();
    }
    Ok(())
}

/// Drives two identical workloads, one through the sequential
/// [`Abm::plan_load`] loop and one through plan/commit with K = 1; their
/// decision and eviction streams must be identical at every step.
fn check_k1_degenerates(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut seq = abm(CHUNKS, 4);
    let mut pipe = abm(CHUNKS, 4);
    let mut seq_active: Vec<QueryId> = Vec::new();
    let mut pipe_active: Vec<QueryId> = Vec::new();
    let mut seq_label = 0u64;
    let mut pipe_label = 0u64;
    let mut clock = 0u64;
    for op in ops {
        clock += 1;
        let now = SimTime::from_secs(clock);
        match *op {
            // In a K=1 pipeline at most one load is outstanding and the
            // drivers below complete it immediately, so Complete is a no-op.
            Op::Complete { .. } => continue,
            Op::Process { i } => {
                if seq_active.is_empty() {
                    continue;
                }
                let qi = i as usize % seq_active.len();
                let (qa, qb) = (seq_active[qi], pipe_active[qi]);
                let ca = seq.acquire_chunk(qa, now).map(|(c, _)| c);
                let cb = pipe.acquire_chunk(qb, now).map(|(c, _)| c);
                prop_assert_eq!(ca, cb, "twin executions acquired different chunks");
                let Some(chunk) = ca else { continue };
                seq.release_delivered(qa, chunk);
                pipe.release_delivered(qb, chunk);
                if seq.is_query_finished(qa) {
                    seq.finish_query(qa);
                    pipe.finish_query(qb);
                    seq_active.retain(|&a| a != qa);
                    pipe_active.retain(|&a| a != qb);
                }
            }
            ref op => {
                apply_op(op, &mut seq, &mut seq_active, &mut seq_label, now);
                apply_op(op, &mut pipe, &mut pipe_active, &mut pipe_label, now);
            }
        }
        // One sequential step vs one K=1 plan/commit step.
        let a = seq.plan_load(now);
        let mut b = Vec::new();
        plan(&mut pipe, 1, now, &mut b);
        prop_assert_eq!(
            a.as_ref().map(|p| p.decision),
            b.first().map(|p| p.decision),
            "K=1 plan/commit diverged from the sequential path"
        );
        prop_assert_eq!(
            a.as_ref().map(|p| p.evicted.clone()),
            b.first().map(|p| p.evicted.clone()),
            "K=1 plan/commit evicted differently from the sequential path"
        );
        if a.is_some() {
            seq.complete_load();
            // With one worker and K=1 nothing can race the read, so the
            // commit always installs.
            prop_assert!(
                commit(&mut pipe, &b[0]),
                "a K=1 single-worker commit must never be stale"
            );
        }
    }
    Ok(())
}

#[test]
fn keeps_k_loads_in_flight() {
    let mut abm = abm(32, 16);
    let cols = abm.state().model().all_columns();
    abm.register_query("full", ScanRanges::full(32), cols, SimTime::ZERO);
    let mut plans = Vec::new();
    plan(&mut abm, 4, SimTime::ZERO, &mut plans);
    assert_eq!(plans.len(), 4, "an empty pipeline fills to K");
    assert_eq!(abm.state().num_inflight(), 4);
    // All four target distinct chunks and are reserved.
    let mut chunks: Vec<_> = plans.iter().map(|p| p.decision.chunk).collect();
    chunks.sort_unstable();
    chunks.dedup();
    assert_eq!(chunks.len(), 4);
    assert_eq!(abm.state().reserved_pages(), 4 * 16);
    // Completing one (out of order) frees a slot; the next plan refills.
    assert!(commit(&mut abm, &plans[2]), "the load is current");
    assert_eq!(abm.state().num_inflight(), 3);
    assert!(!commit(&mut abm, &plans[2]), "a second completion is stale");
    let mut more = Vec::new();
    plan(&mut abm, 4, SimTime::ZERO, &mut more);
    assert_eq!(more.len(), 1);
    assert_eq!(abm.state().num_inflight(), 4);
    assert_eq!(abm.state().io_requests(), 1);
}

#[test]
fn k1_matches_sequential_plan_load() {
    // Two identical ABMs over the same workload: one driven by the
    // sequential plan_load main loop, one by plan/commit with K = 1.
    // Their decision streams must be identical.
    let mut seq = abm(24, 4);
    let mut pipe = abm(24, 4);
    let cols = seq.state().model().all_columns();
    for a in [&mut seq, &mut pipe] {
        a.register_query("a", ScanRanges::single(0, 16), cols, SimTime::ZERO);
        a.register_query("b", ScanRanges::single(8, 24), cols, SimTime::ZERO);
    }
    for _ in 0..64 {
        let s = seq.plan_load(SimTime::ZERO);
        let mut p = Vec::new();
        plan(&mut pipe, 1, SimTime::ZERO, &mut p);
        assert_eq!(
            s.as_ref().map(|x| x.decision),
            p.first().map(|x| x.decision),
            "K=1 plan/commit diverged from the sequential path"
        );
        assert_eq!(
            s.as_ref().map(|x| &x.evicted),
            p.first().map(|x| &x.evicted)
        );
        if s.is_none() {
            break;
        }
        seq.complete_load();
        assert!(
            commit(&mut pipe, &p[0]),
            "nothing detached: the commit is valid"
        );
    }
}

/// A column store of six three-page columns under `relevance`, with room
/// for `buffer_chunks` full-width chunks.
fn dsm_abm(chunks: u32, buffer_chunks: u64) -> Abm {
    let model = TableModel::dsm_uniform(chunks, 1000, &[3; 6]);
    Abm::new(
        AbmState::new(model, buffer_chunks * 18),
        PolicyKind::Relevance.build(),
    )
}

fn cols(ids: &[u16]) -> ColSet {
    ids.iter().copied().map(ColumnId::new).collect()
}

/// Runs `q` to completion the way a K = 1 driver would, and returns the
/// plans that took.
fn run_scan(abm: &mut Abm, q: QueryId) -> Vec<LoadPlan> {
    let mut taken = Vec::new();
    while !abm.is_query_finished(q) {
        if let Some((chunk, _)) = abm.acquire_chunk(q, SimTime::ZERO) {
            abm.release_delivered(q, chunk);
            continue;
        }
        let mut plans = Vec::new();
        plan(abm, 1, SimTime::ZERO, &mut plans);
        let next = plans.pop().expect("a blocked scan has something to load");
        assert!(commit(abm, &next), "nothing races a K=1 driver");
        taken.push(next);
    }
    taken
}

#[test]
fn a_finished_scan_leaves_its_columns_to_the_next() {
    let mut abm = dsm_abm(16, 4);
    let two = cols(&[1, 5]);
    let a = abm.register_query("a", ScanRanges::single(0, 8), two, SimTime::ZERO);
    assert_eq!(run_scan(&mut abm, a).len(), 8);
    abm.finish_query(a);
    // Neither the releases nor the detach gave a page back: eight chunks of
    // two three-page columns sit in a buffer nobody is scanning.
    assert_eq!(abm.state().used_pages(), 8 * 6);
    assert_eq!(abm.state().num_buffered(), 8);

    let b = abm.register_query("b", ScanRanges::single(0, 8), two, SimTime::ZERO);
    let mut granted = Vec::new();
    let mut plans = Vec::new();
    while !abm.is_query_finished(b) {
        plan(&mut abm, 2, SimTime::ZERO, &mut plans);
        assert!(plans.is_empty(), "a scan of resident columns loads nothing");
        let (chunk, _) = abm
            .acquire_chunk(b, SimTime::ZERO)
            .expect("every chunk is granted from the buffer");
        abm.release_delivered(b, chunk);
        granted.push(chunk);
    }
    granted.sort_unstable();
    assert_eq!(granted, (0..8).map(ChunkId::new).collect::<Vec<_>>());
    assert_eq!(abm.state().io_requests(), 8, "the first scan's loads");
}

#[test]
fn dead_columns_go_before_any_column_a_query_still_needs() {
    // Four chunks loaded full width for `wide`, which consumes them and
    // detaches while `narrow` (column 0, not started) still needs all four:
    // the buffer is full, three columns of every chunk are dead.
    let mut abm = dsm_abm(8, 4);
    let narrow = abm.register_query(
        "narrow",
        ScanRanges::single(0, 4),
        cols(&[0]),
        SimTime::ZERO,
    );
    let wide = abm.register_query(
        "wide",
        ScanRanges::single(0, 4),
        ColSet::first_n(6),
        SimTime::ZERO,
    );
    run_scan(&mut abm, wide);
    abm.finish_query(wide);
    assert_eq!(abm.state().free_pages(), 0);
    assert_eq!(abm.state().available_chunks(narrow), 4);

    // A second full-width scan, of other chunks, has to make room four
    // times over.
    let next = abm.register_query(
        "next",
        ScanRanges::single(4, 8),
        ColSet::first_n(6),
        SimTime::ZERO,
    );
    // The first load fits into what the dead columns of two chunks held
    // (2 × 15 pages, against 18 a load): they shrink to the column
    // `narrow` reads, lowest chunk first.
    let narrowed = |abm: &Abm| -> Vec<u32> {
        let buffered = abm.state().buffered();
        buffered
            .filter(|b| b.columns == cols(&[0]))
            .map(|b| b.chunk.index())
            .collect()
    };
    let mut first = Vec::new();
    plan(&mut abm, 1, SimTime::ZERO, &mut first);
    assert_eq!(narrowed(&abm), [0, 1]);
    assert!(commit(&mut abm, &first[0]));
    let mut taken = first;
    taken.extend(run_scan(&mut abm, next));
    assert_eq!(taken.len(), 4);
    // The next two fit into the dead columns of the other two, and nothing
    // is evicted.
    for plan in &taken[..3] {
        assert!(plan.evicted.is_empty(), "{plan:?}");
    }
    // The fourth finds no dead column left and takes the policy's victim:
    // chunk 4, which `next` itself has consumed and nobody needs.  `narrow`
    // has not lost a chunk, and holds column 0 of each and no other.
    assert_eq!(taken[3].evicted, [ChunkId::new(4)]);
    assert_eq!(abm.state().available_chunks(narrow), 4);
    for b in abm.state().buffered().filter(|b| b.chunk.index() < 4) {
        assert_eq!((b.columns, b.pages), (cols(&[0]), 3), "{:?}", b.chunk);
    }
    abm.state().validate_counters();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// K-outstanding execution is safe for arbitrary workloads and budgets.
    #[test]
    fn k_outstanding_is_safe(
        k in 1usize..=6,
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        check_pipeline(k, &ops)?;
    }

    /// K = 1 plan/commit is bit-identical to the sequential main loop.
    #[test]
    fn k1_degenerates_to_sequential(ops in prop::collection::vec(arb_op(), 1..60)) {
        check_k1_degenerates(&ops)?;
    }
}
