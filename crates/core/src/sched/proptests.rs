//! Property tests of the scheduler core, driven the way both front-ends
//! drive it: the one random-op driver of the core.
//!
//! Random register, plan, load, commit, release, failed-read, close and
//! forced-eviction steps run on a [`Scheduler`] with a three-attempt
//! [`RetryPolicy`] and a budget of 1–6 loads in flight, over a row store or
//! a column store of groups of 1, 2 and 3 pages.  The test is the driver:
//! it holds the loads in flight, the grants (a closed query's stays a pin
//! until released) and a reference of the buffer, per chunk the load each
//! resident column came from (a tag in its data).  After every step:
//!
//! * each chunk a query needs is granted once, never to a closed query,
//!   one holding a grant or one past its limit, and a query closed
//!   without an error or a detach is done;
//! * the buffer is the reference — columns, data, pins, payloads let go of,
//!   frame counters predicted from the steps, gauges — and only a plan
//!   (dead columns, then the victims it lists) or a forced eviction takes
//!   from it, never a pinned chunk;
//! * at most the budget is in flight, no two loads of a chunk, no ticket
//!   twice, their pages reserved, each of a chunk some query needs: a
//!   commit never installs one nobody needs, nor is stale right after its
//!   plan;
//! * a failed read is retried with the backoff until its third retryable or
//!   first permanent failure, which quarantines the chunk and closes, with
//!   its error, exactly the queries that need it; a dead ticket's failure
//!   changes nothing, and no load of a quarantined chunk reaches the driver;
//! * no plan finds a load while no query misses a chunk, and a
//!   registration, release or close that leaves one missing says so
//!   ([`Effect::InputsChanged`]).
//!
//! Drained, nothing is left.  Each sequence runs twice on the core, which
//! must replay its decisions, and once on a core over the reference of the
//! same kind ([`crate::policy::reference`]), which must take every decision
//! the policy takes — in release builds too.

use super::{Effect, Scheduler};
use crate::abm::{BufferedChunk, LoadDecision, LoadPlan};
use crate::colset::ColSet;
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::{reference, PolicyKind};
use crate::query::QueryId;
use crate::retry::RetryPolicy;
use crate::session::ScanError;
use cscan_bufman::PoolStats;
use cscan_obs::{Counter, Gauge, Registry};
use cscan_simdisk::SimTime;
use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
use cscan_storage::{ChunkId, ChunkPayload, ColumnId, ScanRanges, StoreError};
use proptest::prelude::*;
use proptest::strategy::any;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

pub(crate) type Checked<T = ()> = Result<T, TestCaseError>;

/// Three attempts a load.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    backoff_base: Duration::from_micros(10),
    backoff_cap: Duration::from_micros(25),
};

/// Open queries at most, besides those that keep a grant.
const MAX_OPEN: usize = 8;

/// One driver step; indices are taken modulo what they index, so every
/// generated sequence applies.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// A scan of `len` chunks from `start` (counted from the first chunk
    /// scans may use) over the columns of the mask `cols` (all if none),
    /// limited to `limit` chunks if that is 1 to 4.
    Register {
        start: u32,
        len: u32,
        cols: u8,
        limit: u8,
    },
    /// Plan loads until the budget is in flight.
    Plan,
    /// Plan one load, within the budget, and commit it at once.
    Load,
    /// The `i`-th load in flight completes.
    Commit { i: u8 },
    /// The `i`-th held grant is released.
    Release { i: u8 },
    /// A read of the `i`-th load in flight fails, for good if `permanent`.
    Fail { i: u8, permanent: bool },
    /// The `i`-th open query detaches.
    Close { i: u8 },
    /// The simulator's last resort: evict what the fewest queries need.
    Evict,
}

/// How often each op comes up, in [`Op`]'s order, and the longest scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mix([u32; 8], u32);

/// Every op, pipeline and consumption steps outnumbering query churn.
const EVERY_OP: Mix = Mix([2, 3, 1, 3, 5, 2, 1, 1], 40);

/// Registrations, detaches, out-of-order completions and releases.
pub(crate) const PIPELINE: Mix = Mix([1, 0, 0, 2, 1, 0, 1, 0], 40);

/// Short scans, loads committed at once, releases and forced evictions:
/// pressure on the buffer.
const BUFFER: Mix = Mix([1, 0, 1, 0, 1, 0, 0, 1], 3);

/// `len` ops drawn from `mix`.
pub(crate) fn arb_ops(mix: Mix, len: Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    let Mix(weights, max_len) = mix;
    let total: u32 = weights.iter().sum();
    let register = (0u32..64, 1..=max_len, 0u8..8, 0u8..10);
    let op = (0..total, register, any::<u8>(), 0u8..4).prop_map(move |(pick, reg, i, fail)| {
        let ((start, len, cols, limit), permanent) = (reg, fail == 0);
        match (0..8).find(|&k| pick < weights[..=k].iter().sum()).unwrap() {
            0 => Op::Register {
                start,
                len,
                cols,
                limit,
            },
            1 => Op::Plan,
            2 => Op::Load,
            3 => Op::Commit { i },
            4 => Op::Release { i },
            5 => Op::Fail { i, permanent },
            6 => Op::Close { i },
            _ => Op::Evict,
        }
    });
    prop::collection::vec(op, len)
}

pub(crate) fn arb_policy() -> impl Strategy<Value = PolicyKind> {
    (0..PolicyKind::ALL.len()).prop_map(|i| PolicyKind::ALL[i])
}

/// What a run schedules: a table, a buffer of so many full-width chunks,
/// a policy, and how many loads may be in flight.
#[derive(Debug, Clone)]
pub(crate) struct Setup(pub TableModel, pub u64, pub PolicyKind, pub usize);

/// A row store of `chunks` six-page chunks, or a column store of three
/// groups of 1, 2 and 3 pages a chunk.
pub(crate) fn table(row: bool, chunks: u32) -> TableModel {
    match row {
        true => TableModel::nsm_uniform(chunks, 1_000, 6),
        false => TableModel::dsm_uniform(chunks, 1_000, &[1, 2, 3]),
    }
}

/// One decision the core took, in the order it took them.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Decision {
    Planned(LoadDecision, Vec<ChunkId>),
    Committed(ChunkId, Option<usize>),
    Failed(ChunkId, Option<Duration>),
    Quarantined(ChunkId, usize),
    Granted(QueryId, ChunkId),
    Closed(QueryId, Option<ScanError>),
    Forced(bool),
}

/// A chunk's data as the reference holds it: the tag of the load each
/// resident column came from.
type Tags = BTreeMap<ColumnId, i64>;

fn tags_of(payload: &ChunkPayload) -> Tags {
    let ChunkPayload::Data(data) = payload else {
        return Tags::new();
    };
    let parts = data.parts().iter();
    parts.map(|(c, part)| (*c, part.as_slice()[0])).collect()
}

fn columns_of(tags: &Tags) -> ColSet {
    ColSet::from_columns(tags.keys().copied())
}

/// What the driver knows of an open query.
#[derive(Default)]
struct Open {
    needed: BTreeSet<ChunkId>,
    consumed: BTreeSet<ChunkId>,
    columns: ColSet,
    limit: Option<u32>,
    holds: bool,
    /// Whether the driver closed it.
    detached: bool,
}

/// What a step may take out of the buffer.
enum Leaves {
    Nothing,
    /// Dead columns, and the victims the plans list — all of them if the
    /// plans filled their room (an admission that fails keeps what it
    /// freed, and lists it nowhere); with each chunk's live columns before
    /// the plan.
    Room(Vec<ChunkId>, bool, Vec<ColSet>),
    /// One chunk, if the forced eviction took one.
    Forced(bool),
}

/// What the effects of one step did, for the step's own checks.
#[derive(Default)]
struct Outcome {
    /// Queries closed with an error, and the error.
    erred: BTreeMap<QueryId, ScanError>,
    /// Chunks quarantined, and how many queries each closed.
    quarantined: Vec<(ChunkId, usize)>,
    effects: usize,
    inputs_changed: bool,
}

/// The test as the core's driver.
pub(crate) struct Driver {
    pub(crate) core: Scheduler<()>,
    obs: Arc<Registry>,
    budget: usize,
    /// The loads in flight and their failed reads so far.
    pub(crate) pending: Vec<(LoadPlan, u32)>,
    /// Every ticket a plan carried.
    tickets: BTreeSet<u64>,
    /// The driver's record of every quarantine and its error.
    quarantined: BTreeMap<ChunkId, StoreError>,
    held: Vec<(QueryId, ChunkId)>,
    open: BTreeMap<QueryId, Open>,
    /// Per chunk, while it is resident: the data it holds.
    slots: Vec<Option<Tags>>,
    /// The frame counters as the steps predict them.
    stats: PoolStats,
    /// Scans register from this chunk on, and the first `kept` grants held
    /// are returned only by the drain.
    first_chunk: u32,
    kept: usize,
    next_tag: i64,
    effects: Vec<Effect<()>>,
    outcome: Outcome,
    trace: Vec<Decision>,
    clock: u64,
}

impl Driver {
    /// A driver of a core over `setup`'s policy, or over its reference.
    pub(crate) fn new(setup: &Setup, reference: bool) -> Self {
        let Setup(model, buffer_chunks, kind, budget) = setup.clone();
        let pages = buffer_chunks * model.max_chunk_pages(model.all_columns());
        let policy = match reference {
            true => reference::build(kind),
            false => kind.build(),
        };
        let obs = Arc::new(Registry::new());
        Driver {
            slots: vec![None; model.num_chunks() as usize],
            core: Scheduler::from_policy(model, pages, policy, RETRY, Arc::clone(&obs)),
            obs,
            budget,
            pending: Vec::new(),
            tickets: BTreeSet::new(),
            quarantined: BTreeMap::new(),
            held: Vec::new(),
            open: BTreeMap::new(),
            stats: PoolStats::default(),
            first_chunk: 0,
            kept: 0,
            next_tag: 0,
            effects: Vec::new(),
            outcome: Outcome::default(),
            trace: Vec::new(),
            clock: 0,
        }
    }

    pub(crate) fn run(&mut self, ops: &[Op]) -> Checked {
        ops.iter().try_for_each(|op| self.step(op))
    }

    pub(crate) fn step(&mut self, op: &Op) -> Checked {
        self.clock += 1;
        let now = SimTime::from_micros(self.clock * 5);
        self.outcome = Outcome::default();
        // A failure that must change nothing (a retry, or a dead ticket's).
        let mut must_keep = false;
        let registers = self.open.len() < self.kept + MAX_OPEN;
        let returns = self.held.len() > self.kept;
        let changes_inputs = match op {
            Op::Register { .. } => registers,
            Op::Release { .. } => returns,
            Op::Close { .. } => !self.open.is_empty(),
            _ => false,
        };
        let room = self.budget - self.core.state().num_inflight();
        match *op {
            Op::Register {
                start,
                len,
                cols,
                limit,
            } if registers => {
                let n = self.slots.len() as u32;
                let start = self.first_chunk + start % (n - self.first_chunk);
                let columns = (0..self.core.state().model().num_columns().min(8))
                    .filter(|c| cols >> c & 1 == 1)
                    .map(ColumnId::new);
                let ranges = ScanRanges::single(start, (start + len).min(n));
                let mut plan = CScanPlan::new("q", ranges, ColSet::from_columns(columns));
                plan.limit_chunks = (1..=4).contains(&limit).then_some(u32::from(limit));
                self.register(&plan, now)?;
            }
            Op::Plan => _ = self.plan(room, now)?,
            Op::Load => {
                if self.plan(room.min(1), now)? == 1 {
                    let plan = self.pending.pop().unwrap().0;
                    let chunk = plan.decision.chunk;
                    let woken = self.commit(plan, now)?;
                    prop_assert!(woken.is_some(), "{:?}'s load was stale at once", chunk);
                }
            }
            Op::Commit { i } if !self.pending.is_empty() => {
                let at = usize::from(i) % self.pending.len();
                let plan = self.pending.remove(at).0;
                self.commit(plan, now)?;
            }
            Op::Release { i } if returns => {
                let at = self.kept + usize::from(i) % (self.held.len() - self.kept);
                self.release(at, now)?;
            }
            Op::Fail { i, permanent } if !self.pending.is_empty() => {
                let at = usize::from(i) % self.pending.len();
                let (plan, failures) = &mut self.pending[at];
                let (chunk, ticket) = (plan.decision.chunk, plan.ticket);
                *failures += 1;
                let attempt = *failures;
                let live = self.core.state().inflight_ticket(chunk) == Some(ticket);
                let error = [StoreError::Transient, StoreError::Permanent][usize::from(permanent)];
                let verdict = self.core.load_failed(chunk, ticket, error, attempt);
                self.trace.push(Decision::Failed(chunk, verdict));
                let retried = live && !permanent && attempt < RETRY.max_attempts;
                let backoff = retried.then(|| RETRY.backoff(attempt));
                prop_assert_eq!(verdict, backoff, "failure {} of {:?}", attempt, chunk);
                if verdict.is_none() {
                    self.pending.remove(at);
                }
                must_keep = !live || retried;
                if !must_keep {
                    let fresh = self.quarantined.insert(chunk, error).is_none();
                    prop_assert!(fresh, "{:?} quarantined twice", chunk);
                }
                self.settle(Leaves::Nothing, Vec::new())?;
            }
            Op::Close { i } if !self.open.is_empty() => {
                let nth = usize::from(i) % self.open.len();
                let (&q, open) = self.open.iter_mut().nth(nth).unwrap();
                open.detached = true;
                self.core.close(q, None);
                self.settle(Leaves::Nothing, Vec::new())?;
            }
            Op::Evict => _ = self.force_evict()?,
            _ => self.settle(Leaves::Nothing, Vec::new())?,
        }
        let outcome = std::mem::take(&mut self.outcome);
        if changes_inputs && self.core.state().misses_a_chunk() {
            prop_assert!(outcome.inputs_changed, "{:?} woke no loader", op);
        }
        if must_keep {
            prop_assert!(
                outcome.effects == 0,
                "a failure that ends nothing did something"
            );
        }
        // Each quarantine closed, with its error, every open query that
        // still needed the chunk, and no other.
        for &(chunk, closed) in &outcome.quarantined {
            let cause = self.quarantined.get(&chunk).copied();
            prop_assert!(cause.is_some(), "{:?} quarantined unasked", chunk);
            let victims = outcome.erred.values().filter(|e| e.chunk == chunk);
            prop_assert_eq!(victims.clone().count(), closed);
            prop_assert!(victims.clone().all(|e| Some(e.cause) == cause));
            let spared = self.open.values().any(|open| needs(open, chunk));
            prop_assert!(!spared, "a query that needs {:?} outlived it", chunk);
        }
        // Nothing but a quarantine errs a query.
        for (q, error) in &outcome.erred {
            let quarantined = outcome.quarantined.iter().any(|&(c, _)| c == error.chunk);
            prop_assert!(quarantined, "{:?} erred with {:?}", q, error);
        }
        Ok(())
    }

    /// Registers `plan`.
    pub(crate) fn register(&mut self, plan: &CScanPlan, now: SimTime) -> Checked<QueryId> {
        let q = self.core.register(plan, (), now);
        let query = self.core.state().query(q);
        let open = Open {
            needed: query.remaining_chunks().collect(),
            columns: query.columns,
            limit: plan.limit_chunks,
            ..Open::default()
        };
        self.open.insert(q, open);
        self.settle(Leaves::Nothing, Vec::new())?;
        Ok(q)
    }

    /// Plans up to `room` loads; returns how many, the last of `pending`.
    pub(crate) fn plan(&mut self, room: usize, now: SimTime) -> Checked<usize> {
        let live = self.live_columns();
        let misses = self.core.state().misses_a_chunk();
        let mut plans = Vec::new();
        self.core.plan(now, room, &mut plans);
        prop_assert!(misses || plans.is_empty(), "planned with nothing missing");
        let mut evicted = Vec::new();
        for plan in &plans {
            let chunk = plan.decision.chunk;
            prop_assert!(!self.quarantined.contains_key(&chunk), "{:?}", chunk);
            prop_assert!(self.tickets.insert(plan.ticket), "{:?} twice", plan);
            prop_assert!(plan.pages > 0, "an empty load of {:?}", chunk);
            evicted.extend(&plan.evicted);
            self.trace
                .push(Decision::Planned(plan.decision, plan.evicted.clone()));
        }
        let (planned, full) = (plans.len(), plans.len() == room);
        self.pending.extend(plans.into_iter().map(|plan| (plan, 0)));
        self.settle(Leaves::Room(evicted, full, live), Vec::new())?;
        Ok(planned)
    }

    /// Completes `plan`'s read with fresh data for the columns it adds;
    /// returns what the commit returned.
    pub(crate) fn commit(&mut self, plan: LoadPlan, now: SimTime) -> Checked<Option<usize>> {
        let (chunk, cols) = (plan.decision.chunk, plan.decision.cols);
        let state = self.core.state();
        let live = state.inflight_ticket(chunk) == Some(plan.ticket);
        let slot = &self.slots[chunk.as_usize()];
        let missing = cols.difference(slot.as_ref().map_or(ColSet::EMPTY, columns_of));
        if live {
            prop_assert_eq!(state.missing_columns(chunk, cols), missing, "{:?}", chunk);
        }
        self.next_tag += 1;
        let fresh: Tags = missing.iter().map(|col| (col, self.next_tag)).collect();
        let data = |tag| ColumnChunk::Plain(Arc::new(vec![tag]));
        let parts = fresh.iter().map(|(&col, &tag)| (col, data(tag)));
        let payload = match fresh.is_empty() {
            true => ChunkPayload::Missing,
            false => ChunkData::from_parts(parts.collect()).into(),
        };
        let woken = self.core.commit(chunk, plan.ticket, payload, now);
        self.trace.push(Decision::Committed(chunk, woken));
        prop_assert_eq!(woken.is_some(), live, "commit of {:?}", chunk);
        let mut released = Vec::new();
        if live {
            // The install pins for its own duration: a miss if it makes the
            // chunk resident, a hit if it merges into it.
            self.stats.pins += 1;
            self.stats.unpins += 1;
            match &mut self.slots[chunk.as_usize()] {
                Some(tags) => {
                    tags.extend(fresh);
                    self.stats.hits += 1;
                }
                slot @ None => {
                    *slot = Some(fresh);
                    self.stats.misses += 1;
                }
            }
        } else if !fresh.is_empty() {
            released.push(fresh);
        }
        self.settle(Leaves::Nothing, released)?;
        Ok(woken)
    }

    /// Releases the `at`-th held grant.
    fn release(&mut self, at: usize, now: SimTime) -> Checked {
        let (q, chunk) = self.held.remove(at);
        self.stats.unpins += 1;
        if let Some(open) = self.open.get_mut(&q) {
            prop_assert!(open.consumed.insert(chunk), "{:?} consumed twice", chunk);
            open.holds = false;
        }
        self.core.release(q, chunk, now);
        self.settle(Leaves::Nothing, Vec::new())
    }

    /// Releases `q`'s grant, if it holds one; returns the chunk.
    pub(crate) fn release_of(&mut self, q: QueryId, now: SimTime) -> Checked<Option<ChunkId>> {
        let Some(at) = self.held.iter().position(|&(h, _)| h == q) else {
            return Ok(None);
        };
        let chunk = self.held[at].1;
        self.release(at, now)?;
        Ok(Some(chunk))
    }

    /// Runs `q` to completion the way a one-load driver would — consume
    /// what `q` was granted, else load one chunk — and returns the plans
    /// that took.
    pub(crate) fn run_scan(&mut self, q: QueryId) -> Checked<Vec<LoadPlan>> {
        let (mut taken, now) = (Vec::new(), SimTime::ZERO);
        while self.open.contains_key(&q) {
            if self.release_of(q, now)?.is_none() {
                prop_assert_eq!(self.plan(1, now)?, 1, "a blocked scan loads nothing");
                let plan = self.pending.pop().unwrap().0;
                prop_assert!(self.commit(plan.clone(), now)?.is_some());
                taken.push(plan);
            }
        }
        Ok(taken)
    }

    /// Forces an eviction; returns whether one happened.
    fn force_evict(&mut self) -> Checked<bool> {
        let evicted = self.core.force_evict();
        self.trace.push(Decision::Forced(evicted));
        self.settle(Leaves::Forced(evicted), Vec::new())?;
        Ok(evicted)
    }

    /// Registers one scan of each of the first `pinned` chunks and loads
    /// until each holds its chunk's grant, then applies `pressure` to the
    /// other chunks, checking after each step that the held chunks stay
    /// resident, with their pins and their data.
    fn pin_then_press(&mut self, pinned: u32, pressure: &[Op]) -> Checked {
        for chunk in 0..pinned {
            let ranges = ScanRanges::single(chunk, chunk + 1);
            let plan = CScanPlan::new("pinned", ranges, ColSet::EMPTY);
            self.register(&plan, SimTime::ZERO)?;
        }
        for _ in 0..=pinned {
            self.step(&Op::Load)?;
        }
        let held = self.held.clone();
        prop_assert_eq!(held.len(), pinned as usize);
        for &(q, chunk) in &held {
            prop_assert_eq!(q.0, u64::from(chunk.index()));
        }
        let data = self.slots[..pinned as usize].to_vec();
        (self.first_chunk, self.kept) = (pinned, held.len());
        for op in pressure {
            self.step(op)?;
            for &(q, chunk) in &held {
                let b = self.core.state().buffered_chunk(chunk);
                prop_assert!(b.is_some_and(|b| b.pinned_by == [q]), "{:?}", chunk);
                prop_assert_eq!(&self.slots[chunk.as_usize()], &data[chunk.as_usize()]);
            }
        }
        Ok(())
    }

    /// Each chunk's live columns: those of the open queries that need it.
    fn live_columns(&self) -> Vec<ColSet> {
        let mut live = vec![ColSet::EMPTY; self.slots.len()];
        for open in self.open.values() {
            for chunk in open.needed.difference(&open.consumed) {
                live[chunk.as_usize()] = live[chunk.as_usize()].union(open.columns);
            }
        }
        live
    }

    /// Applies the core's effects, checks that the buffer let go of what
    /// `leaves` allows and of the payloads in `released` besides, and runs
    /// the checks every step ends with.
    fn settle(&mut self, leaves: Leaves, mut released: Vec<Tags>) -> Checked {
        let (mut let_go, mut maybe) = (self.apply()?, Vec::new());
        self.reconcile(&leaves, &mut released, &mut maybe)?;
        for shrunk in maybe {
            if let Some(at) = let_go.iter().position(|p| *p == shrunk) {
                let_go.remove(at);
            }
        }
        let_go.sort();
        released.sort();
        prop_assert_eq!(let_go, released, "payloads let go of");
        self.check_buffer()?;
        self.check_loads()
    }

    /// Checks and records what the core decided; returns the data of the
    /// payloads the buffer let go of.
    fn apply(&mut self) -> Checked<Vec<Tags>> {
        let mut let_go = Vec::new();
        self.core.swap_effects(&mut self.effects);
        self.outcome.effects += self.effects.len();
        for effect in std::mem::take(&mut self.effects) {
            match effect {
                Effect::Grant {
                    query,
                    chunk,
                    payload,
                    ..
                } => {
                    let open = self.open.get_mut(&query);
                    prop_assert!(open.is_some(), "{:?} granted after it closed", query);
                    let open = open.unwrap();
                    prop_assert!(!open.holds, "{:?} granted a second chunk", query);
                    prop_assert!(needs(open, chunk), "{:?} granted {:?}", query, chunk);
                    let consumed = open.consumed.len() as u32;
                    let under_limit = open.limit.is_none_or(|limit| consumed < limit);
                    prop_assert!(under_limit, "{:?} granted past its limit", query);
                    let data = tags_of(&payload);
                    let tags = self.slots[chunk.as_usize()].as_ref();
                    prop_assert!(tags == Some(&data), "{:?} granted with {:?}", chunk, data);
                    open.holds = true;
                    self.held.push((query, chunk));
                    self.stats.pins += 1;
                    self.stats.hits += 1;
                    self.trace.push(Decision::Granted(query, chunk));
                }
                Effect::Closed {
                    query,
                    error,
                    totals,
                    ..
                } => {
                    let open = self.open.remove(&query);
                    prop_assert!(open.is_some(), "{:?} closed twice", query);
                    let open = open.unwrap();
                    prop_assert_eq!(totals.processed as usize, open.consumed.len());
                    if let Some(error) = error {
                        prop_assert!(needs(&open, error.chunk), "{:?} failed", query);
                        self.outcome.erred.insert(query, error);
                    } else if !open.detached {
                        let done = open.consumed == open.needed
                            || open.limit == Some(open.consumed.len() as u32);
                        prop_assert!(done, "{:?} closed before it was done", query);
                    }
                    self.trace.push(Decision::Closed(query, error));
                }
                Effect::Quarantined { chunk, closed } => {
                    self.outcome.quarantined.push((chunk, closed));
                    self.trace.push(Decision::Quarantined(chunk, closed));
                }
                Effect::InputsChanged => self.outcome.inputs_changed = true,
                Effect::Recycle(payload) => let_go.push(tags_of(&payload)),
            }
        }
        Ok(let_go)
    }

    /// Brings the reference up to what left the buffer, checking that only
    /// what `leaves` allows did, and adds what that let go of to `released`
    /// — and to `maybe` what a shrink before an eviction may have.
    fn reconcile(
        &mut self,
        leaves: &Leaves,
        released: &mut Vec<Tags>,
        maybe: &mut Vec<Tags>,
    ) -> Checked {
        // Only a plan may shrink a chunk.
        let (live_before, live_after) = match leaves {
            Leaves::Room(.., live) => (Some(live), self.live_columns()),
            _ => (None, Vec::new()),
        };
        let (mut gone, state) = (Vec::new(), self.core.state());
        let held: BTreeSet<ChunkId> = self.held.iter().map(|&(_, c)| c).collect();
        for (c, slot) in self.slots.iter_mut().enumerate() {
            let chunk = ChunkId::new(c as u32);
            let resident = state.buffered_chunk(chunk).map(|b| b.columns);
            let Some(tags) = slot else {
                prop_assert_eq!(resident, None, "{:?} became resident unloaded", chunk);
                continue;
            };
            let old = columns_of(tags);
            if resident == Some(old) {
                continue;
            }
            prop_assert!(!held.contains(&chunk), "pinned {:?} lost columns", chunk);
            released.push(tags.clone());
            let kept = live_before.map(|live| old.intersect(live[c]));
            if let Some(cols) = resident {
                // A shrink keeps the resident columns still read, with or
                // without those of a query a quarantine closed meanwhile.
                let least = live_after.get(c).map_or(old, |&live| old.intersect(live));
                let fits = kept.is_some_and(|most| cols.is_subset_of(most));
                prop_assert!(fits && least.is_subset_of(cols), "{:?} shrank", chunk);
                tags.retain(|col, _| cols.contains(*col));
            } else {
                if let Some(kept) = kept.filter(|&kept| !kept.is_empty() && kept != old) {
                    let mut shrunk = tags.clone();
                    shrunk.retain(|col, _| kept.contains(*col));
                    maybe.push(shrunk);
                }
                *slot = None;
                gone.push(chunk);
                self.stats.evictions += 1;
            }
        }
        match leaves {
            Leaves::Nothing => prop_assert_eq!(gone, vec![], "evicted outside a plan"),
            Leaves::Room(evicted, full, _) => {
                let mut evicted = evicted.clone();
                evicted.sort();
                if *full && self.outcome.quarantined.is_empty() {
                    prop_assert_eq!(gone, evicted, "the plans' evictions");
                } else {
                    let kept = evicted.iter().filter(|c| !gone.contains(c));
                    prop_assert_eq!(kept.count(), 0, "a listed victim stayed");
                }
            }
            &Leaves::Forced(evicted) => {
                prop_assert_eq!(gone.len(), usize::from(evicted), "a forced eviction");
                let free =
                    |b: &&BufferedChunk| !held.contains(&b.chunk) && !state.is_inflight(b.chunk);
                let evictable = state.buffered().any(|b| free(&b));
                prop_assert!(evicted || !evictable, "an evictable chunk stayed");
            }
        }
        Ok(())
    }

    /// The buffer against the reference and the grants the driver holds,
    /// and what it published against what the steps predict.
    fn check_buffer(&self) -> Checked {
        let state = self.core.state();
        let mut holders: BTreeMap<ChunkId, Vec<QueryId>> = BTreeMap::new();
        for &(q, chunk) in &self.held {
            holders.entry(chunk).or_default().push(q);
        }
        let pinned = holders.len();
        for (c, tags) in self.slots.iter().enumerate() {
            let chunk = ChunkId::new(c as u32);
            let (Some(b), Some(tags)) = (state.buffered_chunk(chunk), tags) else {
                continue;
            };
            prop_assert_eq!(b.columns, columns_of(tags), "columns of {:?}", chunk);
            let parts = match &b.payload {
                ChunkPayload::Data(data) => data.parts(),
                ChunkPayload::Missing => &[],
            };
            let same = parts.len() == tags.len()
                && parts
                    .iter()
                    .all(|(c, part)| tags.get(c) == Some(&part.as_slice()[0]));
            prop_assert!(same, "data of {:?}", chunk);
            let mut pinned_by = b.pinned_by.clone();
            pinned_by.sort();
            let mut held = holders.remove(&chunk).unwrap_or_default();
            held.sort();
            prop_assert_eq!(pinned_by, held, "pins of {:?}", chunk);
        }
        prop_assert!(holders.is_empty(), "grants of gone chunks {:?}", holders);
        let stats = state.frame_stats();
        prop_assert_eq!(stats, self.stats);
        prop_assert_eq!(stats.hits + stats.misses, stats.pins);
        prop_assert_eq!(stats.pins - stats.unpins, self.held.len() as u64);
        let resident = self.slots.iter().filter(|s| s.is_some()).count();
        prop_assert_eq!(state.pinned_frames(), pinned);
        prop_assert_eq!(state.num_buffered(), resident);
        prop_assert_eq!(self.obs.gauge(Gauge::PinnedFrames), pinned as u64);
        prop_assert_eq!(self.obs.gauge(Gauge::ResidentFrames), resident as u64);
        let published = [
            (Counter::FrameHits, stats.hits),
            (Counter::FrameMisses, stats.misses),
            (Counter::FrameEvictions, stats.evictions),
            (Counter::FramePins, stats.pins),
            (Counter::FrameUnpins, stats.unpins),
        ];
        for (counter, value) in published {
            prop_assert_eq!(self.obs.counter(counter), value, "{:?}", counter);
        }
        Ok(())
    }

    /// The loads in flight against the budget, the pool and the plans the
    /// driver holds.
    fn check_loads(&self) -> Checked {
        let state = self.core.state();
        let inflight = state.inflight_loads();
        prop_assert!(inflight.len() <= self.budget, "more loads than the budget");
        for (i, load) in inflight.iter().enumerate() {
            let (chunk, ticket) = (load.chunk, load.ticket);
            let twice = inflight[..i]
                .iter()
                .any(|l| l.chunk == chunk || l.ticket == ticket);
            prop_assert!(!twice, "two loads of {:?} or two tickets {}", chunk, ticket);
            let mut plans = self
                .pending
                .iter()
                .map(|(p, _)| (p.decision.chunk, p.ticket));
            let held = plans.any(|load| load == (chunk, ticket));
            prop_assert!(held, "a load of {:?} nobody will complete", chunk);
            prop_assert!(state.num_interested(chunk) > 0, "nobody needs {:?}", chunk);
        }
        let reserved: u64 = inflight.iter().map(|l| l.pages).sum();
        prop_assert_eq!(reserved, state.reserved_pages());
        prop_assert!(state.used_pages() + state.reserved_pages() <= state.capacity_pages());
        // Debug builds run it after every mutation already.
        if !cfg!(debug_assertions) {
            state.validate_counters();
        }
        Ok(())
    }

    /// Releases, commits and plans until every query has closed, then
    /// checks that nothing is left behind.
    fn drain(&mut self) -> Checked {
        self.kept = 0;
        for _ in 0..10_000 {
            if self.open.is_empty() && self.pending.is_empty() && self.held.is_empty() {
                let state = self.core.state();
                prop_assert_eq!(state.num_queries(), 0);
                prop_assert_eq!(state.num_inflight(), 0);
                prop_assert_eq!(state.reserved_pages(), 0);
                prop_assert_eq!(state.pinned_frames(), 0);
                prop_assert!(self.core.registered().next().is_none());
                return Ok(());
            }
            let stuck = self.held.is_empty() && self.pending.is_empty();
            self.step(&Op::Release { i: 0 })?;
            self.step(&Op::Commit { i: 0 })?;
            self.step(&Op::Plan)?;
            let idle = self.pending.is_empty() && self.held.is_empty();
            if stuck && idle && !self.open.is_empty() {
                // Every open query is blocked on chunks nothing can make
                // room for: the simulator's last resort.
                prop_assert!(self.force_evict()?, "the core deadlocked");
            }
        }
        Err(TestCaseError::fail("the core failed to quiesce"))
    }
}

/// Whether `open` still needs `chunk`.
fn needs(open: &Open, chunk: ChunkId) -> bool {
    open.needed.contains(&chunk) && !open.consumed.contains(&chunk)
}

/// Runs `script` and drains, twice on the core of `setup` and once on the
/// reference's, and checks that the three take the same decisions.
pub(crate) fn lockstep(setup: &Setup, script: impl Fn(&mut Driver) -> Checked) -> Checked {
    let run = |reference| -> Checked<Vec<Decision>> {
        let mut driver = Driver::new(setup, reference);
        script(&mut driver)?;
        driver.drain()?;
        Ok(driver.trace)
    };
    let trace = run(false)?;
    for (other, what) in [(run(false)?, "replay"), (run(true)?, "reference")] {
        let diverged = (0..trace.len().max(other.len())).find(|&i| trace.get(i) != other.get(i));
        if let Some(i) = diverged {
            let (policy, ours, theirs) = (setup.2, trace.get(i), other.get(i));
            let why = format!("{policy} {what}: decision {i} is {theirs:?}, not {ours:?}");
            prop_assert_eq!(ours, theirs, "{}", why);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_core_grants_each_needed_chunk_once_and_leaks_nothing(
        ops in arb_ops(EVERY_OP, 1..120),
        row_store in any::<bool>(),
        num_chunks in 1u32..40,
        buffer_chunks in 1u64..8,
        budget in 1usize..=6,
    ) {
        for policy in PolicyKind::ALL {
            let setup = Setup(table(row_store, num_chunks), buffer_chunks, policy, budget);
            lockstep(&setup, |driver| driver.run(&ops))?;
        }
    }
}

proptest! {
    /// Any script of registrations, loads, releases and evictions — and
    /// the grants the core makes at each — over any chunk count and buffer
    /// size, under every policy.
    #[test]
    fn pool_matches_reference_model(
        policy in arb_policy(),
        row_store in any::<bool>(),
        num_chunks in 1u32..40,
        buffer_chunks in 1u64..8,
        ops in arb_ops(BUFFER, 1..400),
    ) {
        let setup = Setup(table(row_store, num_chunks), buffer_chunks, policy, 1);
        lockstep(&setup, |driver| driver.run(&ops))?;
    }

    /// Chunks pinned by grants that are never returned stay resident, with
    /// their pins and their data, through every load and eviction the
    /// other chunks see.
    #[test]
    fn pinned_pages_survive_pressure(
        policy in arb_policy(),
        row_store in any::<bool>(),
        num_chunks in 2u32..40,
        pressure in arb_ops(BUFFER, 10..200),
    ) {
        let pinned = num_chunks / 2;
        let buffer_chunks = u64::from(pinned) + 2;
        let setup = Setup(table(row_store, num_chunks), buffer_chunks, policy, 1);
        lockstep(&setup, |driver| driver.pin_then_press(pinned, &pressure))?;
    }
}

/// `keepRelevance`'s almost-starved term decides a victim: a query one chunk
/// from starving keeps chunk 1, and a fed query's chunk 11 goes, where
/// interest alone (one query each) would pick the lower chunk id.  No
/// random sequence at the default seed reaches such a choice.
#[test]
fn an_almost_starved_querys_chunk_outlives_a_fed_querys() {
    let setup = Setup(table(true, 20), 5, PolicyKind::Relevance, 3);
    let scan = |start, len| Op::Register {
        start,
        len,
        cols: 0,
        limit: 0,
    };
    let commit = || Op::Commit { i: 0 };
    let (almost, fed) = (QueryId(0), QueryId(1));
    let checked = lockstep(&setup, |driver| {
        // Chunks 0 and 1 for the first scan, 10 to 12 for the second: the
        // buffer is full, and each scan holds the grant of its first chunk.
        driver.run(&[scan(0, 2), Op::Plan, commit(), commit()])?;
        driver.run(&[scan(10, 4), Op::Plan, commit(), commit(), commit()])?;
        let state = driver.core.state();
        prop_assert!(state.is_almost_starved(almost) && !state.is_starved(almost));
        prop_assert!(!state.is_almost_starved(fed));
        driver.run(&[scan(15, 5), Op::Plan])?;
        let victims = driver.trace.iter().find_map(|decision| match decision {
            Decision::Planned(load, victims) if load.chunk == ChunkId::new(15) => Some(victims),
            _ => None,
        });
        prop_assert_eq!(victims, Some(&vec![ChunkId::new(11)]));
        Ok(())
    });
    checked.unwrap();
}
