//! Tests of the plan/commit protocol as both drivers use it, through the
//! scheduler core: up to K loads in flight, each burst planned by
//! [`Scheduler::plan`] with a budget of K minus the loads in flight, each
//! completion retired by [`Scheduler::commit`] under the `(ticket, epoch)`
//! stamp of its plan, and each grant the core makes released by the query
//! that holds it.
//!
//! For arbitrary interleavings of query registration/detachment, chunk
//! consumption and out-of-order load completions, with arbitrary
//! outstanding-load budgets:
//!
//! * every load the core admits targets a chunk some active query still
//!   needs, and a commit *never installs residency* for a chunk no active
//!   query wants — a detach mid-read leads to an abort or a cancelled
//!   completion, not a dead chunk in the pool,
//! * buffer frames are never double-used: no chunk has two outstanding
//!   loads, tickets are unique, and occupied plus reserved pages never
//!   exceed the pool (re-checked from first principles here, on top of
//!   [`crate::AbmState::validate_counters`]),
//! * every grant held is of a resident chunk its query pins,
//! * at K = 1, with a commit right after each plan, no commit is stale.

use crate::abm::LoadPlan;
use crate::colset::ColSet;
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::retry::RetryPolicy;
use crate::sched::{Effect, Scheduler};
use cscan_obs::Registry;
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ChunkPayload, ColumnId, ScanRanges};
use proptest::prelude::*;
use std::sync::Arc;

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
    /// Have the `i`-th active query consume the chunk it was granted.
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

/// The scheduler core under `relevance` over `model` with a buffer of
/// `pages`, and what its effects left the driver holding.
struct Driver {
    core: Scheduler<()>,
    /// Registered queries, in registration order.
    active: Vec<QueryId>,
    /// The grants out, in the order they were made.
    held: Vec<(QueryId, ChunkId)>,
    effects: Vec<Effect<()>>,
}

impl Driver {
    fn new(model: TableModel, pages: u64) -> Self {
        let core = Scheduler::new(
            model,
            pages,
            PolicyKind::Relevance,
            RetryPolicy::default(),
            Arc::new(Registry::disabled()),
        );
        Self {
            core,
            active: Vec::new(),
            held: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// A row store of `chunks` 16-page chunks with room for
    /// `buffer_chunks` of them.
    fn nsm(chunks: u32, buffer_chunks: u64) -> Self {
        Self::new(
            TableModel::nsm_uniform(chunks, 1000, 16),
            buffer_chunks * 16,
        )
    }

    /// A column store of six three-page columns, with room for
    /// `buffer_chunks` full-width chunks.
    fn dsm(chunks: u32, buffer_chunks: u64) -> Self {
        let model = TableModel::dsm_uniform(chunks, 1000, &[3; 6]);
        Self::new(model, buffer_chunks * 18)
    }

    /// Registers a scan of `columns` (every column if empty) of
    /// `[start, end)`.
    fn register(&mut self, label: &str, start: u32, end: u32, columns: ColSet) -> QueryId {
        let plan = CScanPlan::new(label, ScanRanges::single(start, end), columns);
        let q = self.core.register(&plan, (), SimTime::ZERO);
        self.active.push(q);
        self.apply();
        q
    }

    /// Applies the core's effects: a grant is held by its query, a closed
    /// query leaves `active` (a grant it still holds stays held).
    fn apply(&mut self) {
        self.core.swap_effects(&mut self.effects);
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Grant { query, chunk, .. } => self.held.push((query, chunk)),
                Effect::Closed { query, .. } => self.active.retain(|&a| a != query),
                _ => {}
            }
        }
    }

    /// The chunk `q` was granted and has not released.
    fn held_by(&self, q: QueryId) -> Option<ChunkId> {
        self.held.iter().find(|&&(h, _)| h == q).map(|&(_, c)| c)
    }

    /// Releases `q`'s grant, if it holds one; returns the chunk.
    fn release(&mut self, q: QueryId, now: SimTime) -> Option<ChunkId> {
        let at = self.held.iter().position(|&(h, _)| h == q)?;
        let (_, chunk) = self.held.remove(at);
        self.core.release(q, chunk, now);
        self.apply();
        Some(chunk)
    }

    /// Detaches `q`, returning the pin of a grant it still holds.
    fn detach(&mut self, q: QueryId, now: SimTime) {
        self.core.close(q, None);
        self.apply();
        self.release(q, now);
    }

    /// Fills the pipeline the way both drivers do: the budget is K minus
    /// the loads in flight.
    fn plan(&mut self, k: usize, now: SimTime, out: &mut Vec<LoadPlan>) {
        let room = k.saturating_sub(self.core.state().num_inflight());
        self.core.plan(now, room, out);
        self.apply();
    }

    /// Retires `plan`'s completion; whether it installed residency.
    fn commit(&mut self, plan: &LoadPlan, now: SimTime) -> bool {
        let (chunk, ticket, epoch) = (plan.decision.chunk, plan.ticket, plan.epoch);
        let installed = self
            .core
            .commit(chunk, ticket, epoch, ChunkPayload::Missing, now)
            .is_some();
        self.apply();
        installed
    }

    /// Runs `q` to completion the way a K = 1 driver would — consume what
    /// `q` was granted, else plan one load and commit it — and returns the
    /// plans that took.
    fn run_scan(&mut self, q: QueryId) -> Vec<LoadPlan> {
        let mut taken = Vec::new();
        while self.active.contains(&q) {
            if self.release(q, SimTime::ZERO).is_some() {
                continue;
            }
            let mut plans = Vec::new();
            self.plan(1, SimTime::ZERO, &mut plans);
            let next = plans.pop().expect("a blocked scan has something to load");
            assert!(
                self.commit(&next, SimTime::ZERO),
                "nothing races a K = 1 driver"
            );
            taken.push(next);
        }
        taken
    }
}

/// Drives the core through `ops` with up to K loads outstanding, checking
/// the safety properties after every step.
fn check_pipeline(k: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut driver = Driver::nsm(CHUNKS, 4);
    let mut next_label = 0u64;
    let mut plans: Vec<LoadPlan> = Vec::new();
    let mut clock = 0u64;
    for op in ops {
        clock += 1;
        let now = SimTime::from_secs(clock);
        match *op {
            Op::Register { start, len } => {
                let end = (start + len).min(CHUNKS).max(start + 1);
                let label = format!("q{next_label}");
                next_label += 1;
                driver.register(&label, start, end, ColSet::EMPTY);
            }
            Op::Detach { i } => {
                if !driver.active.is_empty() {
                    let q = driver.active[i as usize % driver.active.len()];
                    driver.detach(q, now);
                }
            }
            Op::Complete { i } => {
                // `plans` may hold loads whose last interested query has
                // detached since (the core aborted them): committing their
                // stale completion must be a harmless no-op, and a commit
                // that *does* install residency must land on a chunk some
                // query still wants.
                if !plans.is_empty() {
                    let plan = plans.swap_remove(i as usize % plans.len());
                    if driver.commit(&plan, now) {
                        prop_assert!(
                            driver.core.state().num_interested(plan.decision.chunk) > 0,
                            "committed a load of {:?} which no query needs",
                            plan.decision.chunk
                        );
                    }
                }
            }
            Op::Process { i } => {
                if !driver.active.is_empty() {
                    let q = driver.active[i as usize % driver.active.len()];
                    driver.release(q, now);
                }
            }
        }
        // Re-fill the pipeline, as a driver would after every event.
        let before = plans.len();
        driver.plan(k, now, &mut plans);
        for plan in &plans[before..] {
            // Never load a chunk nobody wants.
            prop_assert!(
                driver.core.state().num_interested(plan.decision.chunk) > 0,
                "admitted a load of {:?} which no query needs",
                plan.decision.chunk
            );
            prop_assert!(plan.pages > 0);
        }
        if k == 1 {
            // With one load at a time and its commit right after its plan,
            // nothing can race the read.
            for plan in plans.split_off(before) {
                prop_assert!(
                    driver.commit(&plan, now),
                    "a K = 1 commit right after its plan was stale: {:?}",
                    plan
                );
            }
        }
        let state = driver.core.state();
        // Never more than K in flight, never two loads of one chunk or two
        // of one ticket, every load in flight one whose completion is still
        // to come, and never an over-committed pool (frames
        // double-reserved).
        let inflight = state.inflight_loads();
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
        let reserved: u64 = inflight.iter().map(|l| l.pages).sum();
        prop_assert_eq!(reserved, state.reserved_pages());
        prop_assert!(state.used_pages() + state.reserved_pages() <= state.capacity_pages());
        // Every grant out is of a resident chunk its query pins.
        for &(q, chunk) in &driver.held {
            let b = state.buffered_chunk(chunk);
            prop_assert!(
                b.is_some_and(|b| b.pinned_by.contains(&q)),
                "{:?}'s grant of {:?} is not a resident chunk it pins",
                q,
                chunk
            );
        }
        state.validate_counters();
    }
    Ok(())
}

#[test]
fn keeps_k_loads_in_flight() {
    let mut driver = Driver::nsm(32, 16);
    driver.register("full", 0, 32, ColSet::EMPTY);
    let mut plans = Vec::new();
    driver.plan(4, SimTime::ZERO, &mut plans);
    assert_eq!(plans.len(), 4, "an empty pipeline fills to K");
    let state = driver.core.state();
    assert_eq!(state.num_inflight(), 4);
    // All four target distinct chunks and are reserved.
    let mut chunks: Vec<_> = plans.iter().map(|p| p.decision.chunk).collect();
    chunks.sort_unstable();
    chunks.dedup();
    assert_eq!(chunks.len(), 4);
    assert_eq!(state.reserved_pages(), 4 * 16);
    // Completing one (out of order) frees a slot; the next plan refills.
    assert!(
        driver.commit(&plans[2], SimTime::ZERO),
        "the load is current"
    );
    assert_eq!(driver.core.state().num_inflight(), 3);
    assert!(
        !driver.commit(&plans[2], SimTime::ZERO),
        "a second completion is stale"
    );
    let mut more = Vec::new();
    driver.plan(4, SimTime::ZERO, &mut more);
    assert_eq!(more.len(), 1);
    assert_eq!(driver.core.state().num_inflight(), 4);
    assert_eq!(driver.core.state().io_requests(), 1);
}

fn cols(ids: &[u16]) -> ColSet {
    ids.iter().copied().map(ColumnId::new).collect()
}

#[test]
fn a_finished_scan_leaves_its_columns_to_the_next() {
    let mut driver = Driver::dsm(16, 4);
    let two = cols(&[1, 5]);
    let a = driver.register("a", 0, 8, two);
    assert_eq!(driver.run_scan(a).len(), 8);
    // Neither the releases nor the close at the last one gave a page back:
    // eight chunks of two three-page columns sit in a buffer nobody is
    // scanning.
    assert_eq!(driver.core.state().used_pages(), 8 * 6);
    assert_eq!(driver.core.state().num_buffered(), 8);

    let b = driver.register("b", 0, 8, two);
    let mut granted = Vec::new();
    let mut plans = Vec::new();
    while driver.active.contains(&b) {
        driver.plan(2, SimTime::ZERO, &mut plans);
        assert!(plans.is_empty(), "a scan of resident columns loads nothing");
        let chunk = driver
            .release(b, SimTime::ZERO)
            .expect("every chunk is granted from the buffer");
        granted.push(chunk);
    }
    granted.sort_unstable();
    assert_eq!(granted, (0..8).map(ChunkId::new).collect::<Vec<_>>());
    assert_eq!(
        driver.core.state().io_requests(),
        8,
        "the first scan's loads"
    );
}

#[test]
fn dead_columns_go_before_any_column_a_query_still_needs() {
    // Four chunks loaded full width for `wide`, which consumes them and
    // closes while `narrow` (column 0, not started) still needs all four:
    // the buffer is full, three columns of every chunk are dead.  `narrow`
    // holds the grant of the first chunk loaded, so that chunk's dead
    // columns are pinned.
    let mut driver = Driver::dsm(8, 4);
    let narrow = driver.register("narrow", 0, 4, cols(&[0]));
    let wide = driver.register("wide", 0, 4, ColSet::first_n(6));
    let loads = driver.run_scan(wide);
    let pinned = loads[0].decision.chunk;
    assert_eq!(driver.held_by(narrow), Some(pinned));
    let state = driver.core.state();
    assert_eq!(state.free_pages(), 0);
    assert_eq!(state.available_chunks(narrow), 4);
    let unpinned: Vec<u32> = (0..4).filter(|&c| c != pinned.index()).collect();

    // A second full-width scan, of other chunks, has to make room four
    // times over.
    let next = driver.register("next", 4, 8, ColSet::first_n(6));
    // The first load fits into what the dead columns of two chunks held
    // (2 × 15 pages, against 18 a load): they shrink to the column
    // `narrow` reads, lowest unpinned chunk first.
    let narrowed = |driver: &Driver| -> Vec<u32> {
        let buffered = driver.core.state().buffered();
        buffered
            .filter(|b| b.columns == cols(&[0]))
            .map(|b| b.chunk.index())
            .collect()
    };
    let mut first = Vec::new();
    driver.plan(1, SimTime::ZERO, &mut first);
    assert_eq!(narrowed(&driver), unpinned[..2]);
    assert!(driver.commit(&first[0], SimTime::ZERO));
    let mut taken = first;
    taken.extend(driver.run_scan(next));
    assert_eq!(taken.len(), 4);
    // The second fits into the freed pages and the dead columns of the
    // third unpinned chunk, and nothing is evicted.
    for plan in &taken[..2] {
        assert!(plan.evicted.is_empty(), "{plan:?}");
    }
    // The last two find no dead column they may take and take the
    // policy's victims: chunks `next` itself has consumed and nobody
    // needs.  `narrow` has not lost a chunk; the pinned one is whole, the
    // others hold column 0 and no other.
    assert_eq!(taken[2].evicted, [ChunkId::new(4)]);
    assert_eq!(taken[3].evicted, [ChunkId::new(5)]);
    let state = driver.core.state();
    assert_eq!(state.available_chunks(narrow), 4);
    for b in state.buffered().filter(|b| b.chunk.index() < 4) {
        let expected = if b.chunk == pinned {
            (ColSet::first_n(6), 18)
        } else {
            (cols(&[0]), 3)
        };
        assert_eq!((b.columns, b.pages), expected, "{:?}", b.chunk);
    }
    state.validate_counters();
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
}
