//! Property tests of the scheduler core alone, driven the way both
//! front-ends drive it.
//!
//! A random sequence of register, plan, commit, release, reject, failed
//! read and close is applied to a [`Scheduler`] under a three-attempt
//! [`RetryPolicy`], with the test as the driver: it holds the loads in
//! flight, how often each failed, and the grants it was handed (a grant of
//! a closed query stays out as a pin until a later release), and after
//! every step it checks that
//!
//! * each chunk a query needs is granted exactly once — a rejected grant is
//!   granted again — and a query closed without an error or a detach has
//!   consumed all of them, or as many as its limit allows;
//! * the buffer's pins are the grants the driver holds, one for one, and a
//!   pinned chunk is never evicted: `hits + misses == pins`, and
//!   `pins - unpins` is the number of grants held;
//! * every resident chunk holds a payload with exactly the columns the ABM
//!   accounts for — installs merge, shrinks drop the dead columns;
//! * the published counters and the pinned and resident gauges equal the
//!   ABM's own;
//! * no grant goes to a closed query, none to a query that holds one, and
//!   none past a query's limit;
//! * a failed read is retried with the policy's backoff until its third
//!   retryable failure or its first permanent one, which quarantines the
//!   chunk, and a failure of a load whose ticket died changes nothing;
//! * a quarantine closes exactly the open queries that still need the
//!   chunk, with its error, and no load of a quarantined chunk is ever
//!   planned: a query registered later that needs one is closed with the
//!   stored error by the next plan instead;
//! * a query's third rejected delivery since its last release closes it
//!   with the rejection's cause;
//! * a plan finds no load while no query misses a chunk
//!   ([`crate::abm::AbmState::misses_a_chunk`]) — so an idle loader need
//!   not be woken then — and a registration, release, rejection or close
//!   that leaves one missing a chunk says so ([`Effect::InputsChanged`]).
//!
//! Drained to quiescence, no query, load, page reservation or pin is left.
//! Replaying the same sequence takes the same decisions.

use super::{Effect, Scheduler};
use crate::abm::LoadPlan;
use crate::colset::ColSet;
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::retry::RetryPolicy;
use crate::session::ScanError;
use cscan_obs::{Counter, Gauge, Registry};
use cscan_simdisk::SimTime;
use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
use cscan_storage::{ChunkId, ChunkPayload, ColumnId, ScanRanges, StoreError};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

const CHUNKS: u32 = 16;

/// Three attempts a load, three rejected deliveries a query.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 3,
    backoff_base: Duration::from_micros(10),
    backoff_cap: Duration::from_micros(25),
};

/// One driver step; indices are taken modulo what they index, so every
/// generated sequence applies.
#[derive(Debug, Clone)]
enum Op {
    /// A scan of `len` chunks from `start` over the columns of `cols` (a
    /// mask over four), limited to `limit` chunks if that is 1 to 4.
    Register {
        start: u32,
        len: u32,
        cols: u8,
        limit: u8,
    },
    /// Plan up to a pipeline of `k + 1` loads in flight.
    Plan { k: u8 },
    /// The `i`-th load in flight completes.
    Commit { i: u8 },
    /// The `i`-th held grant is released.
    Release { i: u8 },
    /// The `i`-th held grant is rejected as unreadable.
    Reject { i: u8 },
    /// A read of the `i`-th load in flight fails, for good if `permanent`.
    Fail { i: u8, permanent: bool },
    /// The `i`-th open query detaches.
    Close { i: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Pipeline and consumption steps outnumber query churn, so scans make
    // progress between registrations, detaches and failures.
    (0u8..17, 0..CHUNKS, 1..=CHUNKS, 0u8..16, 0u8..10, 0u8..=255).prop_map(
        |(kind, start, len, cols, limit, i)| match kind {
            0 | 1 => Op::Register {
                start,
                len,
                cols,
                limit,
            },
            2..=4 => Op::Plan { k: i % 3 },
            5..=7 => Op::Commit { i },
            8..=12 => Op::Release { i },
            13 => Op::Reject { i },
            14 | 15 => Op::Fail {
                i,
                permanent: cols < 4,
            },
            _ => Op::Close { i },
        },
    )
}

/// One decision the core took, in the order it took them.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Decision {
    Planned(ChunkId, Vec<ChunkId>),
    Committed(ChunkId, Option<usize>),
    Failed(ChunkId, Option<Duration>),
    Quarantined(ChunkId, usize),
    Granted(QueryId, ChunkId),
    Closed(QueryId, Option<ScanError>),
}

/// What the driver knows of an open query.
struct Open {
    needed: BTreeSet<ChunkId>,
    consumed: BTreeSet<ChunkId>,
    limit: Option<u32>,
    holds: bool,
    /// Deliveries rejected since its last release.
    rejections: u32,
}

/// A load in flight and its failed reads so far.
struct Pending {
    plan: LoadPlan,
    failures: u32,
}

/// What one step's effects did, for the step's own checks.
#[derive(Default)]
struct Outcome {
    /// Queries closed with an error, and the error.
    erred: BTreeMap<QueryId, ScanError>,
    /// Chunks quarantined, and how many queries each closed.
    quarantined: Vec<(ChunkId, usize)>,
    /// How many effects there were.
    effects: usize,
    /// Whether one was [`Effect::InputsChanged`].
    inputs_changed: bool,
}

/// The test as the core's driver.
struct Driver {
    core: Scheduler<()>,
    obs: Arc<Registry>,
    pending: Vec<Pending>,
    /// The driver's record of every quarantine and its error.
    quarantined: BTreeMap<ChunkId, StoreError>,
    held: Vec<(QueryId, ChunkId)>,
    open: BTreeMap<QueryId, Open>,
    effects: Vec<Effect<()>>,
    trace: Vec<Decision>,
    clock: u64,
}

impl Driver {
    fn new(policy: PolicyKind, buffer_chunks: u64) -> Self {
        let model = TableModel::dsm_uniform(CHUNKS, 1_000, &[2; 4]);
        let pages = buffer_chunks * model.max_chunk_pages(model.all_columns());
        let obs = Arc::new(Registry::new());
        Driver {
            core: Scheduler::new(model, pages, policy, RETRY, Arc::clone(&obs)),
            obs,
            pending: Vec::new(),
            quarantined: BTreeMap::new(),
            held: Vec::new(),
            open: BTreeMap::new(),
            effects: Vec::new(),
            trace: Vec::new(),
            clock: 0,
        }
    }

    fn step(&mut self, op: &Op) -> Result<(), TestCaseError> {
        self.clock += 1;
        let now = SimTime::from_micros(self.clock * 5);
        let mut detached = None;
        // A close the step must make (a spent rejection budget), and a
        // failure that must change nothing (a retry, or a dead ticket's).
        let (mut must_err, mut must_keep) = (None, false);
        let changes_inputs = match op {
            Op::Register { .. } => true,
            Op::Release { .. } | Op::Reject { .. } => !self.held.is_empty(),
            Op::Close { .. } => !self.open.is_empty(),
            _ => false,
        };
        match *op {
            Op::Register {
                start,
                len,
                cols,
                limit,
            } => {
                let end = (start + len).min(CHUNKS);
                let columns =
                    ColSet::from_columns((0..4).filter(|c| cols >> c & 1 == 1).map(ColumnId::new));
                let mut plan = CScanPlan::new("q", ScanRanges::single(start, end), columns);
                plan.limit_chunks = (1..=4).contains(&limit).then_some(u32::from(limit));
                self.register(&plan, now);
            }
            Op::Plan { k } => {
                let inflight = self.core.state().num_inflight();
                let room = (usize::from(k) + 1).saturating_sub(inflight);
                let misses = self.core.state().misses_a_chunk();
                let mut plans = Vec::new();
                self.core.plan(now, room, &mut plans);
                prop_assert!(
                    misses || plans.is_empty(),
                    "{:?} planned while no query missed a chunk",
                    plans.iter().map(|p| p.decision.chunk).collect::<Vec<_>>()
                );
                for plan in plans {
                    let chunk = plan.decision.chunk;
                    prop_assert!(
                        !self.quarantined.contains_key(&chunk),
                        "a load of quarantined {:?} reached the driver",
                        chunk
                    );
                    self.trace
                        .push(Decision::Planned(chunk, plan.evicted.clone()));
                    self.pending.push(Pending { plan, failures: 0 });
                }
            }
            Op::Commit { i } if !self.pending.is_empty() => {
                let Pending { plan, .. } = self.pending.remove(usize::from(i) % self.pending.len());
                let chunk = plan.decision.chunk;
                // What a loader reads: the columns the load adds (none,
                // for a stale load whose chunk was loaded since).
                let state = self.core.state();
                let missing = state.missing_columns(chunk, plan.decision.cols);
                let parts: Vec<_> = missing
                    .iter()
                    .map(|c| (c, ColumnChunk::Plain(Arc::new(vec![0; 2]))))
                    .collect();
                let payload = match parts.is_empty() {
                    true => ChunkPayload::Missing,
                    false => ChunkData::from_parts(parts).into(),
                };
                let woken = self
                    .core
                    .commit(chunk, plan.ticket, plan.epoch, payload, now);
                self.trace.push(Decision::Committed(chunk, woken));
            }
            Op::Release { i } if !self.held.is_empty() => {
                let (q, chunk) = self.held.remove(usize::from(i) % self.held.len());
                if let Some(open) = self.open.get_mut(&q) {
                    prop_assert!(
                        open.consumed.insert(chunk),
                        "{:?} consumed {:?} twice",
                        q,
                        chunk
                    );
                    open.holds = false;
                    open.rejections = 0;
                }
                self.core.release(q, chunk, now);
            }
            Op::Reject { i } if !self.held.is_empty() => {
                let (q, chunk) = self.held.remove(usize::from(i) % self.held.len());
                let cause = StoreError::Corrupted;
                if let Some(open) = self.open.get_mut(&q) {
                    open.holds = false;
                    open.rejections += 1;
                    if open.rejections >= RETRY.max_attempts {
                        must_err = Some((q, ScanError { chunk, cause }));
                    }
                }
                self.core.reject(q, chunk, cause, now);
            }
            Op::Fail { i, permanent } if !self.pending.is_empty() => {
                let at = usize::from(i) % self.pending.len();
                let Pending { plan, failures } = &mut self.pending[at];
                let (chunk, ticket) = (plan.decision.chunk, plan.ticket);
                *failures += 1;
                let attempt = *failures;
                let live = self.core.state().inflight_ticket(chunk) == Some(ticket);
                let error = match permanent {
                    true => StoreError::Permanent,
                    false => StoreError::Transient,
                };
                let verdict = self.core.load_failed(chunk, ticket, error, attempt);
                self.trace.push(Decision::Failed(chunk, verdict));
                let retried = live && !permanent && attempt < RETRY.max_attempts;
                prop_assert_eq!(
                    verdict,
                    retried.then(|| RETRY.backoff(attempt)),
                    "failure {} of {:?} ({:?}, live: {})",
                    attempt,
                    chunk,
                    error,
                    live
                );
                if verdict.is_none() {
                    self.pending.remove(at);
                }
                if live && !retried {
                    let fresh = self.quarantined.insert(chunk, error).is_none();
                    prop_assert!(fresh, "{:?} quarantined twice", chunk);
                } else {
                    must_keep = true;
                }
            }
            Op::Close { i } if !self.open.is_empty() => {
                let q = *self
                    .open
                    .keys()
                    .nth(usize::from(i) % self.open.len())
                    .unwrap();
                detached = Some(q);
                self.core.close(q, None);
            }
            _ => {}
        }
        let open_before: BTreeSet<QueryId> = self.open.keys().copied().collect();
        let outcome = self.apply(detached)?;
        self.check_buffer()?;
        if changes_inputs && self.core.state().misses_a_chunk() {
            prop_assert!(
                outcome.inputs_changed,
                "{:?} left a query missing a chunk and woke no loader",
                op
            );
        }
        if must_keep {
            prop_assert_eq!(
                outcome.effects,
                0,
                "a failure that ends nothing changed something"
            );
        }
        // Each quarantine closed, with its error, every open query that
        // still needed the chunk, and no other.
        for &(chunk, closed) in &outcome.quarantined {
            let cause = self.quarantined.get(&chunk).copied();
            prop_assert!(
                cause.is_some(),
                "{:?} quarantined behind the driver's back",
                chunk
            );
            let victims = outcome.erred.values().filter(|e| e.chunk == chunk);
            prop_assert_eq!(victims.clone().count(), closed);
            prop_assert!(victims.clone().all(|e| Some(e.cause) == cause));
            let spared = self
                .open
                .values()
                .any(|open| open.needed.contains(&chunk) && !open.consumed.contains(&chunk));
            prop_assert!(
                !spared,
                "a query that needs {:?} outlived its quarantine",
                chunk
            );
        }
        // Nothing but a quarantine or a spent rejection budget errs a query,
        // and a rejection within the budget closes nothing.
        for (q, error) in &outcome.erred {
            let quarantined = outcome.quarantined.iter().any(|&(c, _)| c == error.chunk);
            let rejected = must_err == Some((*q, *error));
            prop_assert!(quarantined || rejected, "{:?} erred with {:?}", q, error);
        }
        if let Some((q, error)) = must_err {
            prop_assert_eq!(
                outcome.erred.get(&q),
                Some(&error),
                "{:?}'s budget was spent",
                q
            );
        } else if let Op::Reject { .. } = op {
            let closed = open_before.iter().filter(|q| !self.open.contains_key(q));
            prop_assert_eq!(
                closed.count(),
                0,
                "a rejection within the budget closed a query"
            );
        }
        Ok(())
    }

    /// Registers `plan`; its effects are checked with the step's.
    fn register(&mut self, plan: &CScanPlan, now: SimTime) {
        let q = self.core.register(plan, (), now);
        let needed = self.core.state().query(q).remaining_chunks().collect();
        let limit = plan.limit_chunks;
        let consumed = BTreeSet::new();
        self.open.insert(
            q,
            Open {
                needed,
                consumed,
                limit,
                holds: false,
                rejections: 0,
            },
        );
    }

    /// Checks and records what the core decided.
    fn apply(&mut self, detached: Option<QueryId>) -> Result<Outcome, TestCaseError> {
        let mut outcome = Outcome::default();
        self.core.swap_effects(&mut self.effects);
        outcome.effects = self.effects.len();
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Grant { query, chunk, .. } => {
                    let open = self.open.get_mut(&query);
                    prop_assert!(
                        open.is_some(),
                        "{:?} granted {:?} after it closed",
                        query,
                        chunk
                    );
                    let open = open.unwrap();
                    prop_assert!(!open.holds, "{:?} granted a second chunk", query);
                    prop_assert!(open.needed.contains(&chunk) && !open.consumed.contains(&chunk));
                    let under_limit = open.limit.is_none_or(|l| (open.consumed.len() as u32) < l);
                    prop_assert!(under_limit, "{:?} granted past its limit", query);
                    open.holds = true;
                    self.held.push((query, chunk));
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
                        let chunk = error.chunk;
                        let needs = open.needed.contains(&chunk) && !open.consumed.contains(&chunk);
                        prop_assert!(
                            needs,
                            "{:?} failed on {:?}, which it no longer needs",
                            query,
                            chunk
                        );
                    } else if detached != Some(query) {
                        let done = open.consumed == open.needed
                            || open.limit == Some(open.consumed.len() as u32);
                        prop_assert!(done, "{:?} closed before it was done", query);
                    }
                    if let Some(error) = error {
                        outcome.erred.insert(query, error);
                    }
                    self.trace.push(Decision::Closed(query, error));
                }
                Effect::Quarantined { chunk, closed } => {
                    outcome.quarantined.push((chunk, closed));
                    self.trace.push(Decision::Quarantined(chunk, closed));
                }
                Effect::InputsChanged => outcome.inputs_changed = true,
                Effect::Recycle(_) => {}
            }
        }
        Ok(outcome)
    }

    /// The buffer against the grants the driver holds, and what it
    /// published against what it counted.
    fn check_buffer(&self) -> Result<(), TestCaseError> {
        let state = self.core.state();
        let stats = state.frame_stats();
        prop_assert_eq!(stats.hits + stats.misses, stats.pins);
        prop_assert_eq!(stats.pins - stats.unpins, self.held.len() as u64);
        for &(q, chunk) in &self.held {
            let pinned = state
                .buffered_chunk(chunk)
                .is_some_and(|b| b.pinned_by.contains(&q));
            prop_assert!(pinned, "{:?} holds {:?}, which is not pinned", q, chunk);
        }
        for b in state.buffered() {
            let ChunkPayload::Data(data) = &b.payload else {
                return Err(TestCaseError::fail(format!("{:?} holds no data", b.chunk)));
            };
            let held: ColSet = data.column_ids().collect();
            prop_assert_eq!(held, b.columns, "columns of {:?}", b.chunk);
        }
        let pinned = state.buffered().filter(|b| b.is_pinned()).count();
        prop_assert_eq!(state.pinned_frames(), pinned);
        let obs = &self.obs;
        prop_assert_eq!(obs.gauge(Gauge::PinnedFrames), pinned as u64);
        prop_assert_eq!(
            obs.gauge(Gauge::ResidentFrames),
            state.num_buffered() as u64
        );
        let published = [
            (Counter::FrameHits, stats.hits),
            (Counter::FrameMisses, stats.misses),
            (Counter::FrameEvictions, stats.evictions),
            (Counter::FramePins, stats.pins),
            (Counter::FrameUnpins, stats.unpins),
        ];
        for (counter, value) in published {
            prop_assert_eq!(obs.counter(counter), value, "{:?}", counter);
        }
        Ok(())
    }

    /// Releases, commits and plans until every query has closed, then
    /// checks that nothing is left behind.
    fn drain(&mut self) -> Result<(), TestCaseError> {
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
            self.step(&Op::Plan { k: 1 })?;
            if stuck && self.pending.is_empty() && self.held.is_empty() {
                // Every open query is blocked on chunks nothing can make
                // room for: the simulator's last resort.
                prop_assert!(self.core.force_evict(), "the core deadlocked");
                self.apply(None)?;
            }
        }
        Err(TestCaseError::fail("the core failed to quiesce"))
    }
}

/// Runs `ops` and drains, returning the decision trace.
fn run(policy: PolicyKind, buffer_chunks: u64, ops: &[Op]) -> Result<Vec<Decision>, TestCaseError> {
    let mut driver = Driver::new(policy, buffer_chunks);
    for op in ops {
        driver.step(op)?;
    }
    driver.drain()?;
    Ok(driver.trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_core_grants_each_needed_chunk_once_and_leaks_nothing(
        ops in prop::collection::vec(arb_op(), 1..120),
        buffer_chunks in 2u64..6,
    ) {
        for policy in PolicyKind::ALL {
            let trace = run(policy, buffer_chunks, &ops)?;
            prop_assert_eq!(&trace, &run(policy, buffer_chunks, &ops)?, "{}: replay", policy);
        }
    }
}
