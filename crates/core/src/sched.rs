//! The scheduler core: where the ABM's grant, commit, release and close
//! decisions are made, for both front-ends, and what a failed load does.
//!
//! [`Scheduler`] holds the [`Abm`] — whose buffer records hold each
//! resident chunk's payload and pins — the [`RetryPolicy`], the quarantine
//! map and one entry per registered query, whose value the driver chooses
//! (the threaded server's grant mailbox, the simulator's stream and query
//! index).  It is plain state — no lock, no thread, no clock: `now` is an
//! argument — and every method appends what it decided to an effect list
//! that the driver collects with [`Scheduler::swap_effects`] and applies:
//!
//! * [`Effect::Grant`] — the policy chose a resident chunk for a query
//!   (Figure 3's `selectChunk`), and the ABM pinned it and cloned its
//!   payload for it;
//! * [`Effect::Closed`] — a query is over and deregistered: it consumed
//!   every chunk it needs or as many as its limit allows, it detached, a
//!   chunk it needs failed for good, or its deliveries of one were
//!   rejected past the retry budget ([`Scheduler::reject`]) (the error);
//! * [`Effect::Quarantined`] — a chunk failed for good: a permanent error
//!   or a spent retry budget ([`Scheduler::load_failed`]), or a plan of a
//!   chunk that already had ([`Scheduler::plan`]); the queries that needed
//!   it are closed with the error;
//! * [`Effect::Recycle`] — a payload the buffer let go of (evicted, shrunk
//!   away, or a stale load's);
//! * [`Effect::InputsChanged`] — a scheduling input changed, so an idle
//!   loader may now find a load to plan.
//!
//! A query is matched — granted its next chunk, or closed when it is done —
//! at every point its availability can improve: registration, a commit of a
//! chunk it was blocked on (`signalQuery`), and each of its releases.  A
//! query therefore holds at most one grant, and none past its limit: it is
//! closed at the release of its last chunk.
//!
//! The threaded server ([`crate::threaded`]) calls the core under its
//! scheduler lock and the simulator ([`crate::sim`]) from its event loop;
//! neither makes a scheduling decision of its own.

use crate::abm::{Abm, AbmState, LoadPlan};
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::retry::RetryPolicy;
use crate::session::ScanError;
use cscan_obs::{Counter, EventKind, Registry, NO_QUERY};
use cscan_simdisk::{SimDuration, SimTime};
use cscan_storage::{ChunkId, ChunkPayload, StoreError};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

#[cfg(test)]
mod proptests;

/// One decision of the core, for the driver to apply.
#[derive(Debug)]
pub enum Effect<T> {
    /// `chunk` is `query`'s next chunk, pinned in the ABM; `payload` is a
    /// clone of the buffer's.  Hand it to `to`.
    Grant {
        /// The query the chunk goes to.
        query: QueryId,
        /// The granted chunk.
        chunk: ChunkId,
        /// The chunk's payload (a refcount bump).
        payload: ChunkPayload,
        /// The driver's value for the query.
        to: T,
    },
    /// `query` is deregistered, with `error` if a chunk it needs failed for
    /// good.  A grant the query has not taken yet is the driver's to return
    /// with [`Scheduler::release`].
    Closed {
        /// The closed query.
        query: QueryId,
        /// The driver's value for the query.
        to: T,
        /// Why the scan failed, if it did.
        error: Option<ScanError>,
        /// What the query did.
        totals: QueryTotals,
    },
    /// `chunk` failed for good: its load is aborted and the `closed`
    /// queries that still needed it were closed with the error (their
    /// [`Effect::Closed`] precede this).
    Quarantined {
        /// The quarantined chunk.
        chunk: ChunkId,
        /// How many queries the quarantine closed.
        closed: usize,
    },
    /// A payload the buffer no longer holds.
    Recycle(ChunkPayload),
    /// A scheduling input changed: a loader with nothing to plan may now
    /// find something.
    InputsChanged,
}

/// What a query did before it closed, for the driver's report.
#[derive(Debug)]
pub struct QueryTotals {
    /// The plan's label.
    pub label: String,
    /// When the query registered.
    pub registered_at: SimTime,
    /// Chunks it consumed.
    pub processed: u32,
    /// Loads it triggered.
    pub ios_triggered: u64,
    /// Time it spent blocked, waiting for a chunk.
    pub blocked: SimDuration,
}

/// A registered query: the driver's value, the chunk limit and the
/// deliveries rejected at pin since its last release.
struct Entry<T> {
    to: T,
    limit: Option<u32>,
    rejections: u32,
}

/// The ABM, the retry policy, the quarantine map and the registered
/// queries, changed only through the decisions below.  See the module
/// docs.
pub struct Scheduler<T> {
    abm: Abm,
    retry: RetryPolicy,
    /// Where the failure path's counters and flight events go.
    obs: Arc<Registry>,
    /// Chunks whose loads failed for good, with the final error.  A query
    /// that registers later and needs one is closed with it when the chunk
    /// is planned again.
    quarantined: HashMap<ChunkId, StoreError>,
    queries: HashMap<QueryId, Entry<T>>,
    effects: Vec<Effect<T>>,
    /// Reused copy of a commit's wake-up list or a quarantine's victims.
    scratch: Vec<QueryId>,
}

impl<T: Clone> Scheduler<T> {
    /// A scheduler for `model` with a buffer of `capacity_pages` under
    /// `policy`, judging failed loads by `retry`, publishing the buffer's
    /// and the failure path's counters into `obs`.
    pub fn new(
        model: TableModel,
        capacity_pages: u64,
        policy: PolicyKind,
        retry: RetryPolicy,
        obs: Arc<Registry>,
    ) -> Self {
        let state = AbmState::with_metrics(model, capacity_pages, Arc::clone(&obs));
        Self {
            abm: Abm::new(state, policy.build()),
            retry,
            obs,
            quarantined: HashMap::new(),
            queries: HashMap::new(),
            effects: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The ABM, for reading.
    pub fn abm(&self) -> &Abm {
        &self.abm
    }

    /// The ABM, for tests that set up or damage its buffer directly.
    #[cfg(test)]
    pub(crate) fn abm_mut(&mut self) -> &mut Abm {
        &mut self.abm
    }

    /// The driver's value for `q`, while it is registered.
    pub fn query(&self, q: QueryId) -> Option<&T> {
        self.queries.get(&q).map(|entry| &entry.to)
    }

    /// The driver's values of every registered query.
    pub fn registered(&self) -> impl Iterator<Item = &T> {
        self.queries.values().map(|entry| &entry.to)
    }

    /// Hands the effects decided so far to the driver, the payloads the
    /// buffer let go of last: `into` (empty) and the core's list trade
    /// places, so neither allocates once both have grown to their working
    /// size.
    pub fn swap_effects(&mut self, into: &mut Vec<Effect<T>>) {
        debug_assert!(into.is_empty(), "unapplied effects would be lost");
        let released = self.abm.drain_released().map(Effect::Recycle);
        self.effects.extend(released);
        std::mem::swap(&mut self.effects, into);
    }

    /// Registers `plan` (`CScan` announcing its data need) for `to`, and
    /// matches it.
    pub fn register(&mut self, plan: &CScanPlan, to: T, now: SimTime) -> QueryId {
        let (ranges, columns) = plan.resolve(self.abm.state().model());
        let q = self
            .abm
            .register_query(plan.label.clone(), ranges, columns, now);
        let limit = plan.limit_chunks;
        self.queries.insert(
            q,
            Entry {
                to,
                limit,
                rejections: 0,
            },
        );
        self.grant(q, now);
        self.effects.push(Effect::InputsChanged);
        q
    }

    /// Matches `q`: grants it its next chunk, or closes it if it has
    /// consumed everything it needs or as much as its limit allows.
    /// Nothing happens to a query that holds a grant or is closed, or when
    /// nothing resident suits it (the ABM marks it blocked, and the commit
    /// of a chunk it needs matches it again).
    fn grant(&mut self, q: QueryId, now: SimTime) {
        let Some(entry) = self.queries.get(&q) else {
            return;
        };
        let query = self.abm.state().query(q);
        if query.processing.is_some() {
            // Its grant is still out; the release matches it again.
            return;
        }
        if query.is_finished() || entry.limit.is_some_and(|limit| query.processed >= limit) {
            self.close(q, None);
            return;
        }
        let to = entry.to.clone();
        // The payload cannot change under the grant in a way its reader
        // would notice: an install merge only adds columns (a load fetches
        // exactly the missing ones) and shares the resident ones, and the
        // pin just taken keeps eviction and dead-column reclaim away.
        let Some((chunk, payload)) = self.abm.acquire_chunk(q, now) else {
            return;
        };
        self.effects.push(Effect::Grant {
            query: q,
            chunk,
            payload,
            to,
        });
    }

    /// Plans up to `max_new` loads into `out` ([`Abm::plan_loads`]); the
    /// payloads their evictions and shrinks let go of are recycled.
    /// A load of a quarantined chunk, planned for a query that registered
    /// since, is failed at once with the stored error instead — which
    /// leaves no query needing the chunk — and its slot planned again.
    pub fn plan(&mut self, now: SimTime, max_new: usize, out: &mut Vec<LoadPlan>) {
        let first = out.len();
        self.abm.plan_loads(now, max_new, out);
        while let Some((at, &cause)) = out[first..]
            .iter()
            .enumerate()
            .find_map(|(at, plan)| Some((at, self.quarantined.get(&plan.decision.chunk)?)))
        {
            let plan = out.remove(first + at);
            self.quarantine(plan.decision.chunk, plan.ticket, cause);
            self.abm.plan_loads(now, max_new - (out.len() - first), out);
        }
    }

    /// Retires a load ([`Abm::commit_load`] under its plan's stamp): a
    /// current one installs `payload` into the chunk's buffer record and
    /// matches the queries it unblocks; a stale one recycles `payload`.
    /// Returns how many blocked queries the installed load woke, or `None`
    /// if it was stale.
    pub fn commit(
        &mut self,
        chunk: ChunkId,
        ticket: u64,
        epoch: u64,
        payload: ChunkPayload,
        now: SimTime,
    ) -> Option<usize> {
        let woken = self.abm.commit_load(chunk, ticket, epoch, payload)?;
        let mut woken_queries = std::mem::take(&mut self.scratch);
        woken_queries.clear();
        woken_queries.extend_from_slice(woken);
        for &q in &woken_queries {
            self.grant(q, now);
        }
        let woken = woken_queries.len();
        self.scratch = woken_queries;
        Some(woken)
    }

    /// Figure 3's `releaseChunk`: returns `q`'s pin of `chunk` — consumed
    /// if `q` is still registered, otherwise just the pin of a query that
    /// closed while it was out — and matches `q` again.
    pub fn release(&mut self, q: QueryId, chunk: ChunkId, now: SimTime) {
        self.abm.release_delivered(q, chunk);
        if let Some(entry) = self.queries.get_mut(&q) {
            entry.rejections = 0;
        }
        self.grant(q, now);
        self.effects.push(Effect::InputsChanged);
    }

    /// Returns `q`'s pin of `chunk` *without* consuming it, because its
    /// payload proved unusable (`cause`): the chunk stays needed, and it is
    /// evicted unless another pin holds it, so the next load fetches fresh
    /// bytes.  `q` is matched again — unless this was its
    /// [`RetryPolicy::max_attempts`]-th rejection since its last release,
    /// which closes it with `ScanError { chunk, cause }`.
    pub fn reject(&mut self, q: QueryId, chunk: ChunkId, cause: StoreError, now: SimTime) {
        self.abm.reject_delivered(q, chunk);
        let budget = self.retry.max_attempts.max(1);
        let spent = self.queries.get_mut(&q).is_some_and(|entry| {
            entry.rejections += 1;
            entry.rejections >= budget
        });
        if spent {
            self.close(q, Some(ScanError { chunk, cause }));
        } else {
            self.grant(q, now);
        }
        self.effects.push(Effect::InputsChanged);
    }

    /// Judges the `attempt`-th (1-based) failed read of `chunk` under
    /// `ticket`: returns the backoff to sleep before reading again, or
    /// `None` when the load is over — its ticket is dead (its last query
    /// detached; only `loads_cancelled` changes), or `error` is permanent
    /// or this was the [`RetryPolicy::max_attempts`]-th attempt, which
    /// quarantines the chunk.  A ticket that dies during the backoff is
    /// caught by the next failure or by [`Scheduler::commit`]'s stamp.
    pub fn load_failed(
        &mut self,
        chunk: ChunkId,
        ticket: u64,
        error: StoreError,
        attempt: u32,
    ) -> Option<Duration> {
        if self.abm.state().inflight_ticket(chunk) != Some(ticket) {
            self.obs.inc(Counter::LoadsCancelled);
            self.obs
                .event(EventKind::LoadCancelled, chunk.index(), NO_QUERY, 0);
            return None;
        }
        self.obs.inc(Counter::LoadFaults);
        self.obs.event(
            EventKind::LoadFault,
            chunk.index(),
            NO_QUERY,
            u64::from(attempt),
        );
        if !error.is_retryable() || attempt >= self.retry.max_attempts {
            self.quarantine(chunk, ticket, error);
            return None;
        }
        let delay = self.retry.backoff(attempt);
        self.obs.inc(Counter::LoadRetries);
        self.obs.event(
            EventKind::LoadRetry,
            chunk.index(),
            NO_QUERY,
            delay.as_nanos() as u64,
        );
        Some(delay)
    }

    /// Fails the live load of `chunk` under `ticket` for good: aborts it,
    /// quarantines the chunk with `cause` and closes every query that
    /// needs it with that error.
    fn quarantine(&mut self, chunk: ChunkId, ticket: u64, cause: StoreError) {
        let aborted = self.abm.fail_load(chunk, ticket);
        debug_assert!(aborted, "only a live load is quarantined");
        if self.quarantined.insert(chunk, cause).is_none() {
            self.obs.inc(Counter::ChunksQuarantined);
        }
        let mut victims = std::mem::take(&mut self.scratch);
        victims.clear();
        victims.extend(self.abm.state().interested_queries(chunk));
        for &q in &victims {
            self.close(q, Some(ScanError { chunk, cause }));
        }
        let closed = victims.len();
        self.scratch = victims;
        self.effects.push(Effect::Quarantined { chunk, closed });
        self.effects.push(Effect::InputsChanged);
    }

    /// Deregisters `q` ([`Abm::finish_query`]: loads in flight for it
    /// alone are aborted), with `error` if it failed.  A pin it still has
    /// out stays valid until released.  Returns false, changing nothing,
    /// if `q` is already closed.
    pub fn close(&mut self, q: QueryId, error: Option<ScanError>) -> bool {
        let Some(Entry { to, .. }) = self.queries.remove(&q) else {
            return false;
        };
        let state = self
            .abm
            .finish_query(q)
            .expect("every registered query is in the ABM");
        self.effects.push(Effect::Closed {
            query: q,
            to,
            error,
            totals: QueryTotals {
                label: state.label,
                registered_at: state.registered_at,
                processed: state.processed,
                ios_triggered: state.ios_triggered,
                blocked: state.total_blocked,
            },
        });
        self.effects.push(Effect::InputsChanged);
        true
    }

    /// Last-resort pressure relief ([`Abm::force_evict_one`]) for a driver
    /// whose every query is blocked with nothing to plan; returns whether a
    /// chunk was evicted.
    pub fn force_evict(&mut self) -> bool {
        self.abm.force_evict_one().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colset::ColSet;
    use cscan_obs::Gauge;
    use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
    use cscan_storage::{ColumnDef, ColumnId, ColumnType, ScanRanges, TableSchema};

    /// A failed admission evicts before it gives up: the payload it let go
    /// of is recycled at once, and the resident gauge counts what the ABM
    /// holds.
    #[test]
    fn a_failed_plan_recycles_what_it_evicted_at_once() {
        // Four chunks of 16, 16, 16 and 1 pages, four rows a page, and a
        // buffer of 17 pages.
        let schema = TableSchema::new("t", vec![ColumnDef::new("v", ColumnType::Int64)]);
        let model = TableModel::nsm(&schema, 3 * 64 + 4, 32, 16 * 32);
        let obs = Arc::new(Registry::new());
        let mut core = Scheduler::new(
            model,
            17,
            PolicyKind::Normal,
            RetryPolicy::default(),
            Arc::clone(&obs),
        );
        let all = ColSet::first_n(1);
        let mut effects = Vec::new();
        // Loads the one chunk `plan` asks for, with data, and returns the
        // grant it makes and the payload.
        let mut load = |core: &mut Scheduler<()>| {
            let mut plans = Vec::new();
            core.plan(SimTime::ZERO, 1, &mut plans);
            let plan = plans.pop().expect("a load fits");
            let values = ColumnChunk::Plain(Arc::new(vec![plan.decision.chunk.index() as i64]));
            let payload: ChunkPayload =
                ChunkData::from_parts(vec![(ColumnId::new(0), values)]).into();
            core.commit(
                plan.decision.chunk,
                plan.ticket,
                plan.epoch,
                payload.clone(),
                SimTime::ZERO,
            );
            core.swap_effects(&mut effects);
            let grant = effects.drain(..).find_map(|effect| match effect {
                Effect::Grant { query, chunk, .. } => Some((query, chunk)),
                _ => None,
            });
            (grant.expect("the load is granted"), payload)
        };
        // Chunk 3, read by a scan that is over: cached and unpinned.
        let short = CScanPlan::new("short", ScanRanges::single(3, 4), all);
        core.register(&short, (), SimTime::ZERO);
        let ((q, chunk), cached) = load(&mut core);
        core.release(q, chunk, SimTime::ZERO);
        // Chunk 0, granted and held.
        let long = CScanPlan::new("long", ScanRanges::single(0, 3), all);
        core.register(&long, (), SimTime::ZERO);
        load(&mut core);
        // Chunk 1 needs 16 pages: the plan evicts chunk 3, finds chunk 0
        // pinned and gives up.
        let mut plans = Vec::new();
        core.plan(SimTime::ZERO, 1, &mut plans);
        assert!(plans.is_empty());
        core.swap_effects(&mut effects);
        let recycled = effects.iter().any(|effect| match effect {
            Effect::Recycle(payload) => *payload == cached,
            _ => false,
        });
        assert!(recycled, "chunk 3's payload was not recycled: {effects:?}");
        let state = core.abm().state();
        assert_eq!(state.num_buffered(), 1);
        assert_eq!(obs.gauge(Gauge::ResidentFrames), 1);
        assert_eq!(state.frame_stats().evictions, 1);
    }

    /// A failed read is retried after the policy's backoff until the error
    /// is permanent or the attempt budget is spent, which quarantines the
    /// chunk; a failure of a load whose ticket died changes nothing.
    #[test]
    fn load_failed_backs_off_then_quarantines() {
        use StoreError::{Corrupted, Permanent, TimedOut, Transient};
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(350),
        };
        let retry = |n| Some(policy.backoff(n));
        // The errors of one load's failed reads, and the last one's verdict.
        let table = [
            // A permanent error quarantines on the first failure.
            (policy, vec![Permanent], None),
            // A retryable one is retried until the attempt budget is spent.
            (policy, vec![Transient], retry(1)),
            (policy, vec![Transient, TimedOut], retry(2)),
            (policy, vec![Transient, TimedOut, Corrupted], retry(3)),
            (
                policy,
                vec![Transient, TimedOut, Corrupted, Transient],
                None,
            ),
            (policy, vec![Transient, Permanent], None),
            (RetryPolicy::no_retries(), vec![Transient], None),
        ];
        let model = TableModel::nsm_uniform(4, 100, 16);
        let chunk = ChunkId::new(1);
        let scan = CScanPlan::new("q", ScanRanges::single(1, 2), model.all_columns());
        for (retry, errors, expected) in table {
            let obs = Arc::new(Registry::new());
            let mut core =
                Scheduler::new(model.clone(), 64, PolicyKind::Normal, retry, obs.clone());
            core.register(&scan, (), SimTime::ZERO);
            let mut plans = Vec::new();
            core.plan(SimTime::ZERO, 1, &mut plans);
            let ticket = plans[0].ticket;
            let mut verdict = None;
            for (attempt, &error) in (1..).zip(&errors) {
                verdict = core.load_failed(chunk, ticket, error, attempt);
            }
            assert_eq!(verdict, expected, "{errors:?} under {retry:?}");
            let quarantined = expected.is_none();
            assert_eq!(core.quarantined.contains_key(&chunk), quarantined);
            assert_eq!(core.queries.is_empty(), quarantined);
            assert_eq!(obs.counter(Counter::LoadFaults), errors.len() as u64);
            let retries = errors.len() as u64 - u64::from(quarantined);
            assert_eq!(obs.counter(Counter::LoadRetries), retries);
            assert_eq!(
                obs.counter(Counter::ChunksQuarantined),
                u64::from(quarantined)
            );
            // A failure of a load that is over changes nothing.
            if quarantined {
                assert_eq!(core.load_failed(chunk, ticket, Permanent, 1), None);
                assert_eq!(obs.counter(Counter::LoadsCancelled), 1);
                assert_eq!(obs.counter(Counter::ChunksQuarantined), 1);
            }
        }
    }
}
