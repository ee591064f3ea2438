//! A column store on which every query reads every column is a row store.
//!
//! A [`TableModel`] is a set of column groups, and the scheduler never asks
//! how many: a row store is one group of every column, a column store one
//! group per column, and segment files are scheduled as the latter whatever
//! a scan asks for.  A full-width scan of `k` groups of `p` pages therefore
//! runs through per-group page sums, the overlap count of the `relevance`
//! scores, dead-column reclaim — paths a scan of one group of `k · p`
//! pages passes through with one group.  This test pins that the two agree:
//! the same scripted register / plan / commit / release / detach sequence,
//! run through the scheduler core against both with every query asking for
//! every column, takes the same decisions in the same order — trigger,
//! chunk, pages, victims, wake-ups, grants, closes — under all four
//! policies, and ends in the same buffer.  It does so on uniform tables (`nsm_uniform(n, t, p · k)` against
//! `dsm_uniform(n, t, &[p; k])`) and on tables whose last chunk is short,
//! scaled alike in both, which every score normalises by its pages.
//!
//! Where the two layouts may differ is left out on purpose: the columns a
//! load names (`k` of them against the uniform row store's one) and the
//! physical regions it reads.

use cscan_core::abm::LoadPlan;
use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::query::QueryId;
use cscan_core::sched::{Effect, Scheduler};
use cscan_core::{CScanPlan, RetryPolicy, ScanRanges};
use cscan_obs::Registry;
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ChunkPayload, ColumnDef, ColumnType, TableSchema};
use proptest::prelude::*;
use std::sync::Arc;

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
    /// The `i`-th active query releases the chunk it was granted, if any.
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

/// What one step decided, minus what the layouts are allowed to differ in.
#[derive(Debug, PartialEq, Eq)]
enum Decided {
    Planned {
        trigger: QueryId,
        chunk: ChunkId,
        pages: u64,
        evicted: Vec<ChunkId>,
    },
    /// A completion and the blocked queries it woke, `None` for one the
    /// core rejected (aborted or cancelled load).
    Committed(ChunkId, Option<usize>),
    Registered(QueryId),
    Granted(QueryId, ChunkId),
    Closed(QueryId),
}

/// One layout's half of the pair: the scheduler core, driven as the
/// simulator drives it, with the loads in flight and the grants it handed
/// out.
struct Side {
    core: Scheduler<()>,
    pending: Vec<LoadPlan>,
    held: Vec<(QueryId, ChunkId)>,
    effects: Vec<Effect<()>>,
}

impl Side {
    fn new(model: TableModel, policy: PolicyKind, buffer_pages: u64) -> Self {
        let obs = Arc::new(Registry::disabled());
        Side {
            core: Scheduler::new(model, buffer_pages, policy, RetryPolicy::default(), obs),
            pending: Vec::new(),
            held: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Applies `op` and returns what the core decided, in order.
    fn step(&mut self, op: &Op, active: &[QueryId], k: usize, now: SimTime) -> Vec<Decided> {
        let mut decided = Vec::new();
        match *op {
            Op::Register { start, len } => {
                let end = (start + len).min(CHUNKS).max(start + 1);
                let cols = self.core.state().model().all_columns();
                let plan = CScanPlan::new("q", ScanRanges::single(start, end), cols);
                decided.push(Decided::Registered(self.core.register(&plan, (), now)));
            }
            Op::Detach { i } if !active.is_empty() => {
                let q = active[i as usize % active.len()];
                self.core.close(q, None);
                // Its pin outlives the registration, and returns now.
                if let Some(at) = self.held.iter().position(|&(p, _)| p == q) {
                    let (_, chunk) = self.held.remove(at);
                    self.core.release(q, chunk, now);
                }
            }
            Op::Plan if self.pending.len() < k => {
                let first = self.pending.len();
                self.core.plan(now, 1, &mut self.pending);
                decided.extend(self.pending[first..].iter().map(|plan| Decided::Planned {
                    trigger: plan.decision.trigger,
                    chunk: plan.decision.chunk,
                    pages: plan.pages,
                    evicted: plan.evicted.clone(),
                }));
            }
            Op::Commit { i } if !self.pending.is_empty() => {
                let plan = self.pending.remove(i as usize % self.pending.len());
                let chunk = plan.decision.chunk;
                let payload = ChunkPayload::Missing;
                let woken = self.core.commit(chunk, plan.ticket, payload, now);
                decided.push(Decided::Committed(chunk, woken));
            }
            Op::Consume { i } if !active.is_empty() => {
                let q = active[i as usize % active.len()];
                if let Some(at) = self.held.iter().position(|&(p, _)| p == q) {
                    let (_, chunk) = self.held.remove(at);
                    self.core.release(q, chunk, now);
                }
            }
            _ => {}
        }
        self.core.swap_effects(&mut self.effects);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Grant { query, chunk, .. } => {
                    self.held.push((query, chunk));
                    decided.push(Decided::Granted(query, chunk));
                }
                Effect::Closed { query, .. } => decided.push(Decided::Closed(query)),
                Effect::Quarantined { .. } | Effect::Recycle(_) | Effect::InputsChanged => {}
            }
        }
        decided
    }

    /// What the buffer holds: `(chunk, pages, pinned)` in chunk order.
    fn buffer(&self) -> Vec<(ChunkId, u64, bool)> {
        let state = self.core.state();
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
    /// Applies `op` to both layouts and compares what each decided.
    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        self.clock += 1;
        let now = SimTime::from_micros(self.clock * 7);
        let decided = self.nsm.step(op, &self.active, self.k, now);
        let twin = self.dsm.step(op, &self.active, self.k, now);
        prop_assert_eq!(&decided, &twin, "{}: {:?}", self.policy, op);
        for d in &decided {
            match *d {
                Decided::Registered(q) => self.active.push(q),
                Decided::Closed(q) => self.active.retain(|&a| a != q),
                _ => {}
            }
        }
        let state = self.dsm.core.state();
        let all = state.model().all_columns();
        prop_assert!(
            state.buffered().all(|b| b.columns == all),
            "full-width scans leave no dead column"
        );
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
        let state = side.core.state();
        state.validate_counters();
        prop_assert_eq!(state.num_queries(), 0);
        prop_assert_eq!(state.num_inflight(), 0);
        prop_assert_eq!(state.pinned_frames(), 0);
    }
    let (nsm, dsm) = (pair.nsm.core.state(), pair.dsm.core.state());
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
