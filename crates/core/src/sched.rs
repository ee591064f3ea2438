//! The scheduler core: the Active Buffer Manager's decisions — grant,
//! plan, commit, release and close — made in one place for both
//! front-ends, and what a failed load does.
//!
//! [`Scheduler`] is the paper's ABM (Figure 3) as one component: it holds
//! the [`AbmState`] — whose buffer records hold each resident chunk's
//! payload and pins — the scheduling [`Policy`], the [`RetryPolicy`], the
//! quarantine map and one entry per registered query, whose value the
//! driver chooses (the threaded server's grant mailbox, the simulator's
//! stream and query index).  It is plain state — no lock, no thread, no
//! clock: `now` is an argument — and every method appends what it decided
//! to an effect list that the driver collects with
//! [`Scheduler::swap_effects`] and applies:
//!
//! * [`Effect::Grant`] — the policy chose a resident chunk for a query
//!   (`selectChunk`), and the core pinned it and cloned its payload for it;
//! * [`Effect::Closed`] — a query is over and deregistered: it consumed
//!   every chunk it needs or as many as its limit allows, it detached, or
//!   a chunk it needs failed for good (the error);
//! * [`Effect::Quarantined`] — a chunk failed for good: a permanent error
//!   or a spent retry budget ([`Scheduler::load_failed`]), or a plan of a
//!   chunk that already had ([`Scheduler::plan`]); the queries that needed
//!   it are closed with the error;
//! * [`Effect::Recycle`] — a payload the buffer let go of (evicted, shrunk
//!   away, or a stale load's);
//! * [`Effect::InputsChanged`] — a scheduling input changed while some
//!   query misses a chunk ([`AbmState::misses_a_chunk`]), so an idle loader
//!   may now find a load to plan.  With every chunk every query needs
//!   resident no plan can find one, and nothing is pushed.
//!
//! A query is matched — granted its next chunk, or closed when it is done —
//! at every point its availability can improve: registration, a commit of a
//! chunk it was blocked on (`signalQuery`), and each of its releases.  A
//! query therefore holds at most one grant, and none past its limit: it is
//! closed at the release of its last chunk.
//!
//! [`Scheduler::plan`] is the main loop's `chooseChunkToLoad` +
//! `findFreeSlot` for a burst of loads: each is admitted — its victims
//! evicted and its pages reserved — before the policy is asked for the
//! next, so a burst can never over-commit or deadlock the pool, and the
//! first decision of an empty pipeline is the paper's sequential one.
//! [`Scheduler::commit`] retires loads by key in whatever order the reads
//! finish, under the stamp of their plan (see [`crate::abm`]).
//!
//! The threaded server ([`crate::threaded`]) calls the core under its
//! scheduler lock and the simulator ([`crate::sim`]) from its event loop;
//! neither makes a scheduling decision of its own.

use crate::abm::{AbmState, CommitCheck, LoadDecision, LoadPlan};
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::{Policy, PolicyKind};
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
pub(crate) mod proptests;

/// One decision of the core, for the driver to apply.
#[derive(Debug)]
pub enum Effect<T> {
    /// `chunk` is `query`'s next chunk, pinned in the buffer; `payload` is
    /// a clone of the buffer's.  Hand it to `to`.
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
    /// A scheduling input changed while some query misses a chunk: a loader
    /// with nothing to plan may now find something.
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

/// A registered query: the driver's value and the chunk limit.
struct Entry<T> {
    to: T,
    limit: Option<u32>,
}

/// The ABM's state and policy, the retry policy, the quarantine map and
/// the registered queries, changed only through the decisions below.  See
/// the module docs.
pub struct Scheduler<T> {
    state: AbmState,
    policy: Box<dyn Policy>,
    retry: RetryPolicy,
    /// Where the failure path's counters and flight events go.
    obs: Arc<Registry>,
    /// Chunks whose loads failed for good, with the final error.  A query
    /// that registers later and needs one is closed with it when the chunk
    /// is planned again.
    quarantined: HashMap<ChunkId, StoreError>,
    queries: HashMap<QueryId, Entry<T>>,
    effects: Vec<Effect<T>>,
    /// Reused list of a commit's woken queries or a quarantine's victims.
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
        Self::from_policy(model, capacity_pages, policy.build(), retry, obs)
    }

    /// [`Self::new`] over a policy already built: the policy's own, or the
    /// test-only reference of its kind.
    pub(crate) fn from_policy(
        model: TableModel,
        capacity_pages: u64,
        policy: Box<dyn Policy>,
        retry: RetryPolicy,
        obs: Arc<Registry>,
    ) -> Self {
        Self {
            state: AbmState::with_metrics(model, capacity_pages, Arc::clone(&obs)),
            policy,
            retry,
            obs,
            quarantined: HashMap::new(),
            queries: HashMap::new(),
            effects: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The ABM's state — queries, buffer, loads in flight — for reading.
    pub fn state(&self) -> &AbmState {
        &self.state
    }

    /// The ABM's state, for tests that set up or damage its buffer
    /// directly.
    #[cfg(test)]
    pub(crate) fn state_mut(&mut self) -> &mut AbmState {
        &mut self.state
    }

    /// The name of the scheduling policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.kind().name()
    }

    /// Whether a registered query still has chunks to consume.
    pub fn has_pending_work(&self) -> bool {
        self.state.queries().any(|q| !q.is_finished())
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
        let released = self.state.drain_released().map(Effect::Recycle);
        self.effects.extend(released);
        std::mem::swap(&mut self.effects, into);
    }

    /// Registers `plan` (`CScan` announcing its data need) for `to`, and
    /// matches it.  Query ids count registrations from 0.
    pub fn register(&mut self, plan: &CScanPlan, to: T, now: SimTime) -> QueryId {
        let (ranges, columns) = plan.resolve(self.state.model());
        let q = QueryId(self.state.queries_registered());
        self.state
            .register_query(q, plan.label.clone(), ranges, columns, now);
        self.policy.on_register(q, &self.state);
        let limit = plan.limit_chunks;
        self.queries.insert(q, Entry { to, limit });
        self.grant(q, now);
        self.inputs_changed();
        q
    }

    /// Tells an idle loader that a scheduling input changed — if a plan
    /// could now find a load at all: every policy loads a chunk some query
    /// needs and is missing, so while none misses one the loader stays
    /// asleep.
    fn inputs_changed(&mut self) {
        if self.state.misses_a_chunk() {
            self.effects.push(Effect::InputsChanged);
        }
    }

    /// Matches `q`: grants it its next chunk — the paper's `selectChunk`,
    /// the policy's pick among the resident chunks it needs — or closes it
    /// if it has consumed everything it needs or as much as its limit
    /// allows.  Nothing happens to a query that holds a grant or is
    /// closed; one that nothing resident suits is marked blocked, and the
    /// commit of a chunk it needs matches it again.
    fn grant(&mut self, q: QueryId, now: SimTime) {
        let Some(entry) = self.queries.get(&q) else {
            return;
        };
        let query = self.state.query(q);
        if query.processing.is_some() {
            // Its grant is still out; the release matches it again.
            return;
        }
        if query.is_finished() || entry.limit.is_some_and(|limit| query.processed >= limit) {
            self.close(q, None);
            return;
        }
        let to = entry.to.clone();
        let Some(chunk) = self.policy.next_chunk(q, &self.state) else {
            self.state.block_query(q, now);
            return;
        };
        debug_assert!(
            self.state.is_resident_for(q, chunk),
            "{q:?}: policy chose non-resident {chunk:?}"
        );
        self.state.unblock_query(q, now);
        // The payload cannot change under the grant in a way its reader
        // would notice: an install merge only adds columns (a load fetches
        // exactly the missing ones) and shares the resident ones, and the
        // pin just taken keeps eviction and dead-column reclaim away.
        let payload = self.state.start_processing(q, chunk);
        self.effects.push(Effect::Grant {
            query: q,
            chunk,
            payload,
            to,
        });
    }

    /// Plans up to `max_new` loads into `out`; the payloads their
    /// evictions and shrinks let go of are recycled.  A load of a
    /// quarantined chunk, planned for a query that registered since, is
    /// failed at once with the stored error instead — which leaves no query
    /// needing the chunk — and its slot planned again.
    pub fn plan(&mut self, now: SimTime, max_new: usize, out: &mut Vec<LoadPlan>) {
        let first = out.len();
        self.plan_loads(now, max_new, out);
        while let Some((at, &cause)) = out[first..]
            .iter()
            .enumerate()
            .find_map(|(at, plan)| Some((at, self.quarantined.get(&plan.decision.chunk)?)))
        {
            let plan = out.remove(first + at);
            self.quarantine(plan.decision.chunk, plan.ticket, cause);
            self.plan_loads(now, max_new - (out.len() - first), out);
        }
    }

    /// Asks the policy for up to `max_new` loads, one per free slot
    /// ([`Policy::next_load`] with the loads already in flight as `slot`),
    /// admitting each before asking for the next.  Stops at the first
    /// decision that is empty or cannot be admitted.
    fn plan_loads(&mut self, now: SimTime, max_new: usize, out: &mut Vec<LoadPlan>) {
        for _ in 0..max_new {
            let slot = self.state.num_inflight();
            let Some(decision) = self.policy.next_load(&self.state, now, slot) else {
                break;
            };
            match self.admit(decision) {
                Some(plan) => out.push(plan),
                None => break,
            }
        }
    }

    /// Admits one decision: checks that the load is real and can fit,
    /// frees room until it does, reserves its pages and marks it in flight.
    /// Returns `None`, admitting nothing, when the load is empty, larger
    /// than the pool, or room cannot be freed — what it freed stays free.
    fn admit(&mut self, decision: LoadDecision) -> Option<LoadPlan> {
        let pages = self.state.pages_to_load(decision.chunk, decision.cols);
        if pages == 0 || pages > self.state.capacity_pages() {
            // Nothing missing (no empty I/O), or a chunk larger than the
            // whole pool.
            return None;
        }
        // Make room: first the dead columns of chunks somebody still needs
        // — no policy can name those, its victims are whole chunks — then
        // the policy's victims, until the load fits.  `free_pages` discounts
        // the reservations of everything already in flight, so what is
        // secured here belongs to this load alone.
        let mut evicted = Vec::new();
        while self.state.free_pages() < pages {
            let Some(chunk) = self.state.reclaim_dead_columns() else {
                break;
            };
            if self.state.buffered_chunk(chunk).is_none() {
                evicted.push(chunk);
            }
        }
        while self.state.free_pages() < pages {
            // None: everything is pinned, protected or reserved by the
            // loads in flight.
            let victim = self.policy.choose_victim(&self.state, &decision)?;
            debug_assert!(
                self.state.is_evictable(victim),
                "policy chose unevictable victim"
            );
            self.state.evict(victim);
            evicted.push(victim);
        }
        let missing = self.state.missing_columns(decision.chunk, decision.cols);
        let regions = self.state.model().chunk_regions(decision.chunk, missing);
        let ticket = self.state.begin_load(decision.chunk, decision.cols);
        self.state.count_triggered_io(decision.trigger);
        Some(LoadPlan {
            decision,
            pages,
            regions,
            evicted,
            ticket,
        })
    }

    /// Retires a load under its plan's ticket ([`AbmState::check_commit`]):
    /// a current one installs `payload` into the chunk's buffer record and
    /// matches the blocked queries that need the chunk (`signalQuery`).  A
    /// stale one — aborted or superseded while the read ran, or whose last
    /// interested query detached, which aborts it here — recycles
    /// `payload`, so residency is never installed for a chunk no query
    /// wants.  Returns how many queries the install woke, or `None` if the
    /// load was stale.
    pub fn commit(
        &mut self,
        chunk: ChunkId,
        ticket: u64,
        payload: ChunkPayload,
        now: SimTime,
    ) -> Option<usize> {
        match self.state.check_commit(chunk, ticket) {
            CommitCheck::Valid => {}
            check => {
                if check == CommitCheck::Uninteresting {
                    self.state.abort_load(chunk);
                }
                self.state.release_payload(payload);
                return None;
            }
        }
        self.state.complete_load_of(chunk, payload);
        let mut woken = std::mem::take(&mut self.scratch);
        woken.clear();
        woken.extend(
            self.state
                .queries()
                .filter(|q| q.needs(chunk) && q.is_blocked())
                .map(|q| q.id),
        );
        for &q in &woken {
            self.grant(q, now);
        }
        let count = woken.len();
        self.scratch = woken;
        Some(count)
    }

    /// Figure 3's `releaseChunk`: returns `q`'s pin of `chunk` — consumed
    /// if `q` is still registered, otherwise just the pin of a query that
    /// closed while it was out — and matches `q` again.  Nothing leaves the
    /// buffer here: a column no query needs any more stays cached until a
    /// plan needs its pages.
    pub fn release(&mut self, q: QueryId, chunk: ChunkId, now: SimTime) {
        self.state.finish_processing(q, chunk);
        self.grant(q, now);
        self.inputs_changed();
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
        if self.state.inflight_ticket(chunk) != Some(ticket) {
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
        debug_assert_eq!(
            self.state.inflight_ticket(chunk),
            Some(ticket),
            "only a live load is quarantined"
        );
        self.state.abort_load(chunk);
        if self.quarantined.insert(chunk, cause).is_none() {
            self.obs.inc(Counter::ChunksQuarantined);
        }
        let mut victims = std::mem::take(&mut self.scratch);
        victims.clear();
        victims.extend(self.state.interested_queries(chunk));
        for &q in &victims {
            self.close(q, Some(ScanError { chunk, cause }));
        }
        let closed = victims.len();
        self.scratch = victims;
        self.effects.push(Effect::Quarantined { chunk, closed });
        self.inputs_changed();
    }

    /// Deregisters `q`, with `error` if it failed.  A load in flight that
    /// `q` was the last to need is aborted at once — its pages return to
    /// the pool, and its read's completion is dropped by
    /// [`Scheduler::commit`]'s stamp check.  A pin `q` still has out stays
    /// valid until released.  Returns false, changing nothing, if `q` is
    /// already closed.
    pub fn close(&mut self, q: QueryId, error: Option<ScanError>) -> bool {
        let Some(Entry { to, .. }) = self.queries.remove(&q) else {
            return false;
        };
        self.policy.on_query_finished(q, &self.state);
        let state = self.state.remove_query(q);
        while let Some(dead) = self
            .state
            .inflight_loads()
            .iter()
            .find(|l| self.state.num_interested(l.chunk) == 0)
            .map(|l| l.chunk)
        {
            self.state.abort_load(dead);
        }
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
        self.inputs_changed();
        true
    }

    /// Last-resort pressure relief for a driver whose every query is
    /// blocked with nothing to plan: evicts the evictable chunk the fewest
    /// queries need, least recently touched first, whatever the policy
    /// prefers.  Returns whether a chunk was evicted.
    pub fn force_evict(&mut self) -> bool {
        let Some(victim) = self
            .state
            .buffered()
            .filter(|b| self.state.is_evictable(b.chunk))
            .min_by_key(|b| (self.state.num_interested(b.chunk), b.last_touch))
            .map(|b| b.chunk)
        else {
            return false;
        };
        self.state.evict(victim);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colset::ColSet;
    use cscan_obs::Gauge;
    use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
    use cscan_storage::{ColumnDef, ColumnId, ColumnType, ScanRanges, TableSchema};

    /// A `relevance` core over a row store of `chunks` 16-page chunks with
    /// room for `buffer_chunks` of them.
    fn relevance_core(chunks: u32, buffer_chunks: u64) -> Scheduler<()> {
        let model = TableModel::nsm_uniform(chunks, 1000, 16);
        let obs = Arc::new(Registry::new());
        let retry = RetryPolicy::default();
        Scheduler::new(model, buffer_chunks * 16, PolicyKind::Relevance, retry, obs)
    }

    /// Registers a scan of every column of `[start, end)`.
    fn scan(core: &mut Scheduler<()>, start: u32, end: u32) -> QueryId {
        let plan = CScanPlan::new("q", ScanRanges::single(start, end), ColSet::EMPTY);
        core.register(&plan, (), SimTime::ZERO)
    }

    /// Plans at most one load and commits it at once, as a K = 1 driver
    /// does: the plan, and how many queries its commit woke.
    fn load_one(core: &mut Scheduler<()>) -> Option<(LoadPlan, usize)> {
        let mut plans = Vec::new();
        core.plan(SimTime::ZERO, 1, &mut plans);
        let plan = plans.pop()?;
        let (chunk, ticket) = (plan.decision.chunk, plan.ticket);
        let woken = core.commit(chunk, ticket, ChunkPayload::Missing, SimTime::ZERO);
        Some((plan, woken.expect("nothing races a K = 1 driver")))
    }

    /// Consumes every chunk the core grants, releasing each at once (a
    /// release may grant the next), until it grants none.  Returns how
    /// many chunks were consumed, and the closed queries with the chunks
    /// each consumed.
    fn consume(core: &mut Scheduler<()>) -> (usize, Vec<(QueryId, u32)>) {
        let (mut consumed, mut closed) = (0, Vec::new());
        let (mut effects, mut grants) = (Vec::new(), Vec::new());
        loop {
            core.swap_effects(&mut effects);
            for effect in effects.drain(..) {
                match effect {
                    Effect::Grant { query, chunk, .. } => grants.push((query, chunk)),
                    Effect::Closed { query, totals, .. } => closed.push((query, totals.processed)),
                    _ => {}
                }
            }
            if grants.is_empty() {
                return (consumed, closed);
            }
            consumed += grants.len();
            for (q, chunk) in grants.drain(..) {
                core.release(q, chunk, SimTime::ZERO);
            }
        }
    }

    #[test]
    fn end_to_end_single_query() {
        let mut core = relevance_core(10, 4);
        let q = scan(&mut core, 0, 10);
        let mut processed = 0;
        let mut closed = Vec::new();
        for _ in 0..1000 {
            let (consumed, done) = consume(&mut core);
            processed += consumed;
            closed.extend(done);
            if !closed.is_empty() {
                break;
            }
            let (plan, woken) = load_one(&mut core).expect("blocked with nothing to load");
            assert!(plan.pages > 0);
            assert!(!plan.regions.is_empty());
            assert_eq!(woken, 1, "the commit wakes the blocked scan");
        }
        assert_eq!(processed, 10);
        assert_eq!(closed, [(q, 10)], "closed at the release of its last chunk");
        assert_eq!(core.state().io_requests(), 10);
        assert!(!core.has_pending_work());
    }

    #[test]
    fn eviction_happens_under_pressure() {
        let mut core = relevance_core(10, 2); // room for only two chunks
        scan(&mut core, 0, 10);
        let mut evictions = 0;
        while core.has_pending_work() {
            consume(&mut core);
            if let Some((plan, _)) = load_one(&mut core) {
                evictions += plan.evicted.len();
            }
        }
        assert!(
            evictions >= 8,
            "loading 10 chunks through a 2-chunk pool must evict, got {evictions}"
        );
        assert!(core.state().used_pages() <= core.state().capacity_pages());
    }

    #[test]
    fn plan_finds_nothing_without_a_chunk_to_load() {
        let mut core = relevance_core(10, 4);
        // No queries at all.
        assert!(load_one(&mut core).is_none());
        scan(&mut core, 0, 1);
        let mut plans = Vec::new();
        core.plan(SimTime::ZERO, 2, &mut plans);
        assert_eq!(plans.len(), 1, "one chunk is needed");
        assert_eq!(plans[0].decision.chunk, ChunkId::new(0));
        // A second plan while the first is in flight finds nothing.
        let mut more = Vec::new();
        core.plan(SimTime::ZERO, 1, &mut more);
        assert!(more.is_empty());
        let plan = &plans[0];
        let (chunk, ticket) = (plan.decision.chunk, plan.ticket);
        core.commit(chunk, ticket, ChunkPayload::Missing, SimTime::ZERO);
        // The query consumes its only chunk; nothing further to load.
        let (consumed, closed) = consume(&mut core);
        assert_eq!(consumed, 1);
        assert_eq!(closed.len(), 1);
        assert!(load_one(&mut core).is_none());
        assert!(!core.has_pending_work());
    }

    #[test]
    fn a_failed_admission_releases_what_it_freed_at_once() {
        let model = TableModel::dsm_uniform(8, 1000, &[3; 6]);
        let obs = Arc::new(Registry::new());
        let retry = RetryPolicy::default();
        let mut core = Scheduler::new(model, 27, PolicyKind::Relevance, retry, obs);
        let col0 = ColSet::from_columns([ColumnId::new(0)]);
        let narrow = CScanPlan::new("narrow", ScanRanges::single(0, 2), col0);
        let narrow = core.register(&narrow, (), SimTime::ZERO);
        // Chunk 0 resident full width, chunk 1 with columns {0, 1}: 24 of 27
        // pages, column 1 of chunk 1 dead.
        for (chunk, width) in [(0, 6), (1, 2)] {
            let columns = ColSet::first_n(width);
            let parts = columns
                .iter()
                .map(|c| (c, ColumnChunk::Plain(Arc::new(vec![0; 4]))))
                .collect();
            let state = core.state_mut();
            state.begin_load(ChunkId::new(chunk), columns);
            state.complete_load_of(ChunkId::new(chunk), ChunkData::from_parts(parts).into());
        }
        core.grant(narrow, SimTime::ZERO);
        let (grants, _) = drain(&mut core);
        assert_eq!(grants, [(narrow, ChunkId::new(0))]);
        // An 18-page load finds 3 pages free, 3 dead and 3 evictable — and
        // the rest pinned.  It is not admitted, but chunk 1 is gone, and its
        // payloads — the two columns, then the one a shrink kept — are
        // recycled at once.
        let wide = CScanPlan::new("wide", ScanRanges::single(4, 5), ColSet::first_n(6));
        core.register(&wide, (), SimTime::ZERO);
        let mut plans = Vec::new();
        core.plan(SimTime::ZERO, 1, &mut plans);
        assert!(plans.is_empty());
        assert!(core.state().buffered_chunk(ChunkId::new(1)).is_none());
        assert_eq!(core.state().free_pages(), 9);
        let (_, recycled) = drain(&mut core);
        assert_eq!(recycled, [2, 1]);
        assert_eq!(core.state().frame_stats().evictions, 1);
        // The next plan that is admitted — `narrow`, starved now, asking
        // for the very chunk it lost — names only what it evicted itself.
        core.release(narrow, ChunkId::new(0), SimTime::ZERO);
        core.plan(SimTime::ZERO, 1, &mut plans);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].decision.chunk, ChunkId::new(1));
        assert!(plans[0].evicted.is_empty());
        assert_eq!(drain(&mut core).1, []);
    }

    /// The grants among the core's effects, and the column count of each
    /// payload it recycles.
    fn drain(core: &mut Scheduler<()>) -> (Vec<(QueryId, ChunkId)>, Vec<usize>) {
        let mut effects = Vec::new();
        core.swap_effects(&mut effects);
        let (mut grants, mut recycled) = (Vec::new(), Vec::new());
        for effect in effects {
            match effect {
                Effect::Grant { query, chunk, .. } => grants.push((query, chunk)),
                Effect::Recycle(ChunkPayload::Data(data)) => {
                    recycled.push(data.column_ids().count());
                }
                Effect::Recycle(ChunkPayload::Missing) => recycled.push(0),
                _ => {}
            }
        }
        (grants, recycled)
    }

    #[test]
    fn two_queries_share_loaded_chunks() {
        let mut core = relevance_core(10, 5);
        scan(&mut core, 0, 5);
        scan(&mut core, 0, 5);
        let mut guard = 0;
        while core.has_pending_work() {
            guard += 1;
            assert!(guard < 500);
            if consume(&mut core).0 == 0 {
                load_one(&mut core).expect("stuck: no progress and nothing to load");
            }
        }
        // Perfect sharing: 5 chunks loaded once despite two consumers.
        assert_eq!(core.state().io_requests(), 5);
        assert_eq!(core.policy_name(), PolicyKind::Relevance.name());
    }

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
            let chunk = plan.decision.chunk;
            core.commit(chunk, plan.ticket, payload.clone(), SimTime::ZERO);
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
        let state = core.state();
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
