//! A column store on which every query reads every column is a row store.
//!
//! A [`TableModel`] is a set of column groups, and the scheduler never asks
//! how many: a row store is one group of every column, a column store one
//! group per column, and segment files are scheduled as the latter whatever
//! a scan asks for.  A full-width scan of `k` groups of `p` pages therefore
//! runs through per-group page sums, the overlap count of the `relevance`
//! scores, dead-column reclaim — paths a scan of one group of `k · p`
//! pages passes through with one group.  This test pins that the two agree:
//! the same scripted register / plan / commit / acquire / release / detach
//! sequence, run against both with every query asking for every column,
//! takes the same decisions in the same order — trigger, chunk, pages,
//! victims, wake-ups, grants — under all four policies, and ends in the same
//! buffer.  It does so on uniform tables (`nsm_uniform(n, t, p · k)` against
//! `dsm_uniform(n, t, &[p; k])`) and on tables whose last chunk is short,
//! scaled alike in both, which every score normalises by its pages.
//!
//! Where the two layouts may differ is left out on purpose: the columns a
//! load names (`k` of them against the uniform row store's one) and the
//! physical regions it reads.

use cscan_core::abm::{Abm, AbmState, CommitOutcome, LoadPlan};
use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::query::QueryId;
use cscan_core::ScanRanges;
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ColumnDef, ColumnType, TableSchema};
use proptest::prelude::*;

const CHUNKS: u32 = 24;
const TUPLES: u64 = 1_000;

/// One step of the script, interpreted modulo the current state so every
/// generated sequence is applicable.
#[derive(Debug, Clone)]
enum Op {
    /// A new full-width scan of `len` chunks from `start`.
    Register { start: u32, len: u32 },
    /// The `i`-th active query detaches, mid-scan or not.
    Detach { i: u8 },
    /// One scheduling step, if fewer than `k` loads are outstanding.
    Plan,
    /// The `i`-th outstanding load completes (any order).
    Commit { i: u8 },
    /// The `i`-th active query releases the chunk it holds, if any, and
    /// asks for the next.
    Consume { i: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Consumption and the load pipeline get more arms than query churn, so
    // scans make progress between registrations and detaches.
    prop_oneof![
        (0..CHUNKS, 1..=CHUNKS).prop_map(|(start, len)| Op::Register { start, len }),
        (0u8..=255).prop_map(|i| Op::Detach { i }),
        Just(Op::Plan),
        Just(Op::Plan),
        (0u8..=255).prop_map(|i| Op::Commit { i }),
        (0u8..=255).prop_map(|i| Op::Commit { i }),
        (0u8..=255).prop_map(|i| Op::Consume { i }),
        (0u8..=255).prop_map(|i| Op::Consume { i }),
        (0u8..=255).prop_map(|i| Op::Consume { i }),
        (0u8..=255).prop_map(|i| Op::Consume { i }),
    ]
}

/// What a plan decided, minus what the layouts are allowed to differ in.
#[derive(Debug, PartialEq, Eq)]
struct Decided {
    trigger: QueryId,
    chunk: ChunkId,
    pages: u64,
    evicted: Vec<ChunkId>,
    shrunk: Vec<ChunkId>,
}

/// One layout's half of the pair.
struct Side {
    abm: Abm,
    pending: Vec<LoadPlan>,
}

impl Side {
    fn new(model: TableModel, policy: PolicyKind, buffer_pages: u64) -> Self {
        Side {
            abm: Abm::new(AbmState::new(model, buffer_pages), policy.build()),
            pending: Vec::new(),
        }
    }

    fn register(&mut self, start: u32, end: u32, now: SimTime) -> QueryId {
        let cols = self.abm.state().model().all_columns();
        self.abm
            .register_query("q", ScanRanges::single(start, end), cols, now)
    }

    fn plan(&mut self, now: SimTime) -> Option<Decided> {
        let mut plans = Vec::with_capacity(1);
        self.abm.plan_loads(now, 1, &mut plans);
        let plan = plans.pop()?;
        let decided = Decided {
            trigger: plan.decision.trigger,
            chunk: plan.decision.chunk,
            pages: plan.pages,
            evicted: plan.evicted.clone(),
            shrunk: plan.shrunk.clone(),
        };
        self.pending.push(plan);
        Some(decided)
    }

    /// The chunk whose load completed and the queries it woke, or `None`
    /// for a completion the ABM rejected (aborted or cancelled load).
    fn commit(&mut self, i: usize) -> (ChunkId, Option<Vec<QueryId>>) {
        let plan = self.pending.remove(i);
        let chunk = plan.decision.chunk;
        match self.abm.commit_load(chunk, plan.ticket, plan.epoch) {
            CommitOutcome::Committed { woken } => (chunk, Some(woken.to_vec())),
            CommitOutcome::Cancelled | CommitOutcome::Aborted => (chunk, None),
        }
    }

    fn consume(&mut self, q: QueryId, now: SimTime) -> Option<ChunkId> {
        if let Some(held) = self.abm.state().query(q).processing {
            self.abm.release_delivered(q, held);
        }
        self.abm.acquire_chunk(q, now)
    }

    /// What the buffer holds: `(chunk, pages, pinned)` in chunk order.
    fn buffer(&self) -> Vec<(ChunkId, u64, bool)> {
        let state = self.abm.state();
        state
            .buffered()
            .map(|b| (b.chunk, b.pages, b.is_pinned()))
            .collect()
    }
}

/// The two layouts side by side, and the queries attached to both.
struct Pair {
    policy: PolicyKind,
    nsm: Side,
    dsm: Side,
    active: Vec<QueryId>,
    /// Outstanding-load budget of the scripted driver.
    k: usize,
    clock: u64,
}

impl Pair {
    /// Applies `op` to both layouts and compares what each answered.
    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        let Pair {
            policy,
            nsm,
            dsm,
            active,
            ..
        } = self;
        self.clock += 1;
        let now = SimTime::from_micros(self.clock * 7);
        match *op {
            Op::Register { start, len } => {
                let end = (start + len).min(CHUNKS).max(start + 1);
                let q = nsm.register(start, end, now);
                prop_assert_eq!(q, dsm.register(start, end, now));
                active.push(q);
            }
            Op::Detach { i } => {
                if !active.is_empty() {
                    let q = active.remove(i as usize % active.len());
                    for side in [nsm, dsm] {
                        let held = side.abm.state().query(q).processing;
                        side.abm.finish_query(q);
                        if let Some(chunk) = held {
                            side.abm.release_delivered(q, chunk);
                        }
                    }
                }
            }
            Op::Plan => {
                if nsm.pending.len() < self.k {
                    let decided = nsm.plan(now);
                    prop_assert_eq!(&decided, &dsm.plan(now), "{}: plan", policy);
                    let shrunk = decided.is_some_and(|d| !d.shrunk.is_empty());
                    prop_assert!(!shrunk, "full-width scans leave no dead column");
                }
            }
            Op::Commit { i } => {
                if !nsm.pending.is_empty() {
                    let i = i as usize % nsm.pending.len();
                    prop_assert_eq!(nsm.commit(i), dsm.commit(i), "{}: commit", policy);
                }
            }
            Op::Consume { i } => {
                if !active.is_empty() {
                    let q = active[i as usize % active.len()];
                    let granted = nsm.consume(q, now);
                    prop_assert_eq!(granted, dsm.consume(q, now), "{}: grant to {:?}", policy, q);
                    if granted.is_none() && nsm.abm.is_query_finished(q) {
                        nsm.abm.finish_query(q);
                        dsm.abm.finish_query(q);
                        active.retain(|&a| a != q);
                    }
                }
            }
        }
        prop_assert_eq!(
            self.nsm.buffer(),
            self.dsm.buffer(),
            "{}: buffer contents",
            self.policy
        );
        Ok(())
    }
}

/// One group of `columns · pages_per_column` pages per chunk against
/// `columns` groups of `pages_per_column`.
fn uniform_pair(columns: usize, pages_per_column: u64) -> (TableModel, TableModel) {
    (
        TableModel::nsm_uniform(CHUNKS, TUPLES, pages_per_column * columns as u64),
        TableModel::dsm_uniform(CHUNKS, TUPLES, &vec![pages_per_column; columns]),
    )
}

/// The same two layouts with a last chunk of `last_pages` pages per column
/// (fewer than `pages_per_column`), built from one schema of `columns`
/// eight-byte columns.  A page of `8 · columns · ROWS` bytes holds `ROWS`
/// rows of the row store and `columns · ROWS` values of one column, so a
/// chunk of `columns · pages_per_column · ROWS` tuples spans exactly
/// `columns · pages_per_column` row pages and `pages_per_column` pages of
/// each column, and the last chunk `columns · last_pages` and `last_pages`.
fn ragged_pair(columns: usize, pages_per_column: u64, last_pages: u64) -> (TableModel, TableModel) {
    const ROWS: u64 = 4;
    let k = columns as u64;
    let schema = TableSchema::new(
        "ragged",
        (0..columns)
            .map(|i| ColumnDef::new(format!("c{i}"), ColumnType::Int64))
            .collect(),
    );
    let page = 8 * k * ROWS;
    let chunk_tuples = k * pages_per_column * ROWS;
    let tuples = u64::from(CHUNKS - 1) * chunk_tuples + k * last_pages * ROWS;
    let nsm = TableModel::nsm(&schema, tuples, page, k * pages_per_column * page);
    let dsm = TableModel::dsm(&schema, tuples, page, chunk_tuples);
    let last = ChunkId::new(CHUNKS - 1);
    assert_eq!(nsm.chunk_pages(last, nsm.all_columns()), k * last_pages);
    assert_eq!(dsm.chunk_pages(last, dsm.all_columns()), k * last_pages);
    assert_eq!(
        nsm.total_pages(nsm.all_columns()),
        dsm.total_pages(dsm.all_columns())
    );
    (nsm, dsm)
}

/// Runs `ops` on both layouts in lockstep under `policy`, comparing every
/// outcome as it is produced, then drains both to completion.
fn check(
    policy: PolicyKind,
    (nsm_model, dsm_model): (TableModel, TableModel),
    buffer_chunks: u64,
    k: usize,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let buffer_pages = buffer_chunks * nsm_model.max_chunk_pages(nsm_model.all_columns());
    let mut pair = Pair {
        policy,
        nsm: Side::new(nsm_model, policy, buffer_pages),
        dsm: Side::new(dsm_model, policy, buffer_pages),
        active: Vec::new(),
        k,
        clock: 0,
    };
    for op in ops {
        pair.step(op)?;
    }
    // Drain: plan, commit and consume round-robin until every scan still
    // attached has finished and no completion is outstanding.
    let mut round = 0usize;
    while !pair.active.is_empty() || !pair.nsm.pending.is_empty() {
        prop_assert!(round < 100_000, "{}: the pair failed to quiesce", policy);
        pair.step(&Op::Plan)?;
        pair.step(&Op::Commit { i: 0 })?;
        for i in 0..pair.active.len() {
            // Queries that finish leave `active`; a skipped index is picked
            // up by the next round.
            pair.step(&Op::Consume { i: i as u8 })?;
        }
        round += 1;
    }
    for side in [&pair.nsm, &pair.dsm] {
        let state = side.abm.state();
        state.validate_counters();
        prop_assert!(!side.abm.has_pending_work());
        prop_assert_eq!(state.num_inflight(), 0);
    }
    let (nsm, dsm) = (pair.nsm.abm.state(), pair.dsm.abm.state());
    prop_assert_eq!(nsm.io_requests(), dsm.io_requests());
    prop_assert_eq!(nsm.pages_read(), dsm.pages_read());
    Ok(())
}

/// A fixed script with heavy overlap and a small buffer, so every policy's
/// eviction and sharing paths run even if the random cases are lucky.
#[test]
fn overlapping_scans_through_a_small_buffer_decide_alike() {
    let mut ops = vec![
        Op::Register { start: 0, len: 24 },
        Op::Register { start: 8, len: 16 },
        Op::Register { start: 4, len: 8 },
    ];
    for round in 0..400u32 {
        ops.push(match round % 5 {
            0 => Op::Plan,
            1 | 2 => Op::Commit { i: round as u8 },
            _ => Op::Consume {
                i: (round / 5) as u8,
            },
        });
        if round == 150 {
            ops.push(Op::Detach { i: 1 });
            ops.push(Op::Register { start: 0, len: 12 });
        }
    }
    for policy in PolicyKind::ALL {
        check(policy, uniform_pair(6, 3), 4, 2, &ops).unwrap();
        check(policy, ragged_pair(6, 3, 1), 4, 2, &ops).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-width DSM ≡ NSM, decision for decision, under all four policies.
    #[test]
    fn full_width_column_store_schedules_like_a_row_store(
        ops in prop::collection::vec(arb_op(), 1..160),
        columns in 1usize..7,
        pages_per_column in 1u64..4,
        buffer_chunks in 2u64..9,
        k in 1usize..4,
    ) {
        for policy in PolicyKind::ALL {
            check(policy, uniform_pair(columns, pages_per_column), buffer_chunks, k, &ops)?;
        }
    }

    /// The same on a table whose last chunk is short, in both layouts alike.
    #[test]
    fn a_short_last_chunk_schedules_alike_in_both_layouts(
        ops in prop::collection::vec(arb_op(), 1..160),
        columns in 1usize..7,
        pages_per_column in 2u64..5,
        short in 0u64..3,
        buffer_chunks in 2u64..9,
        k in 1usize..4,
    ) {
        let last_pages = 1 + short % (pages_per_column - 1);
        for policy in PolicyKind::ALL {
            let pair = ragged_pair(columns, pages_per_column, last_pages);
            check(policy, pair, buffer_chunks, k, &ops)?;
        }
    }
}
