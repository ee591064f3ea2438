//! The Active Buffer Manager (ABM).
//!
//! The ABM owns the shared bookkeeping ([`AbmState`]) and a scheduling
//! [`Policy`].  The scheduler core ([`crate::sched::Scheduler`]), which
//! both execution front-ends drive, calls a small set of operations that
//! correspond directly to the pseudo-code of Figure 3 in the paper:
//!
//! * [`Abm::register_query`] — `CScan` announces its data need up-front;
//! * [`Abm::acquire_chunk`] — `selectChunk` / `chooseAvailableChunk`: pins
//!   the chunk and hands out its payload;
//! * [`Abm::release_delivered`] — `releaseChunk`: the query finished
//!   processing a chunk (or its pin outlived its registration);
//! * [`Abm::plan_load`] — `chooseQueryToProcess` + `chooseChunkToLoad` +
//!   `findFreeSlot` (eviction) rolled into one scheduling step;
//! * [`Abm::complete_load`] — `loadChunk` finished; interested blocked
//!   queries should be signalled;
//! * [`Abm::finish_query`] — the CScan operator is closed.
//!
//! [`Abm::plan_load`] keeps the paper's single-outstanding main loop (the
//! reference the property tests compare against).  The core instead calls
//! [`Abm::plan_loads`], which plans a whole burst of loads in one
//! step — evicting (and thereby reserving) the victims for the entire burst
//! up front, so an in-flight burst can never deadlock or over-commit the
//! pool — and [`Abm::commit_load`], which retires loads by key in whatever
//! order the spindles finish them.  There is no materialized pending queue
//! below the policy: every burst is planned against the live [`AbmState`],
//! so it is re-planned by construction whenever queries register or
//! detach.  Planning a burst of `B` loads costs `B` policy decisions plus
//! the evictions it needs — nothing is quadratic in the budget.
//!
//! # Plan / commit
//!
//! Both drivers — the threaded executor, whose disk read runs outside the
//! scheduler lock, and the simulation, where detaches can race
//! completions — go through the *plan/commit* protocol instead of raw completion: every [`LoadPlan`]
//! is stamped with a unique ticket and the planning [`AbmState::epoch`], and
//! [`Abm::commit_load`] revalidates the stamp under the lock before
//! installing residency — a cancelled or superseded load's completion is
//! dropped, and a load whose last interested query detached mid-read is
//! aborted ([`Abm::finish_query`] aborts such loads eagerly; the commit
//! check is the belt to that suspenders).  With a single worker and K = 1
//! the protocol is decision-identical to the sequential main loop (checked,
//! with the protocol's safety properties, by the tests in
//! `abm/plan_commit_tests.rs`).

mod buffer;
pub mod index;
#[cfg(test)]
mod plan_commit_tests;
#[cfg(test)]
mod proptests;
mod state;

pub use buffer::BufferedChunk;
pub use index::ChunkIndex;
pub(crate) use state::no_metrics;
pub use state::{AbmState, CommitCheck, InflightLoad, STARVATION_THRESHOLD};

use crate::colset::ColSet;
use crate::policy::Policy;
use crate::query::{QueryId, QueryState};
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ChunkPayload, PhysRegion, ScanRanges};

/// A scheduling decision: load `chunk` (the given columns of it) on behalf of
/// the triggering query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadDecision {
    /// The query with the highest scheduling priority (the "trigger").
    pub trigger: QueryId,
    /// The chunk to load.
    pub chunk: ChunkId,
    /// The columns to make resident, whole column groups.
    pub cols: ColSet,
}

/// A fully planned load: the decision plus its physical cost, ready to be
/// submitted to the disk, stamped for commit-time revalidation.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPlan {
    /// The underlying scheduling decision.
    pub decision: LoadDecision,
    /// Pages that will be read (only the groups not yet resident).
    pub pages: u64,
    /// Physical regions to read.
    pub regions: Vec<PhysRegion>,
    /// Chunks that were evicted to make room for this load.
    pub evicted: Vec<ChunkId>,
    /// Unique identity of this load (see [`InflightLoad::ticket`]).
    pub ticket: u64,
    /// The [`AbmState::epoch`] the plan was taken under; [`Abm::commit_load`]
    /// revalidates against it.
    pub epoch: u64,
}

/// The Active Buffer Manager: shared state plus a scheduling policy.
pub struct Abm {
    state: AbmState,
    policy: Box<dyn Policy>,
    next_query_id: u64,
    /// Reused buffer for the wake-up list returned by [`Abm::complete_load`],
    /// so the per-load hot path performs no allocation.
    wake_scratch: Vec<QueryId>,
}

impl std::fmt::Debug for Abm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Abm")
            .field("policy", &self.policy.name())
            .field("queries", &self.state.num_queries())
            .field("buffered", &self.state.num_buffered())
            .field("used_pages", &self.state.used_pages())
            .field("capacity_pages", &self.state.capacity_pages())
            .finish()
    }
}

impl Abm {
    /// Creates an ABM over `state` driven by `policy`.
    pub fn new(state: AbmState, policy: Box<dyn Policy>) -> Self {
        Self {
            state,
            policy,
            next_query_id: 0,
            wake_scratch: Vec::new(),
        }
    }

    /// Read access to the shared state.
    pub fn state(&self) -> &AbmState {
        &self.state
    }

    /// Hands over the payloads the buffer let go of since the last call —
    /// evicted chunks', the columns a shrink dropped, stale loads' — for
    /// the owner to free or recycle.
    pub fn drain_released(&mut self) -> std::vec::Drain<'_, ChunkPayload> {
        self.state.drain_released()
    }

    /// Write access to the shared state, for tests that set up or damage a
    /// buffer directly.
    #[cfg(test)]
    pub(crate) fn state_mut(&mut self) -> &mut AbmState {
        &mut self.state
    }

    /// The name of the active scheduling policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Registers a new CScan, returning its id.
    pub fn register_query(
        &mut self,
        label: impl Into<String>,
        ranges: ScanRanges,
        columns: ColSet,
        now: SimTime,
    ) -> QueryId {
        let id = QueryId(self.next_query_id);
        self.next_query_id += 1;
        self.state.register_query(id, label, ranges, columns, now);
        self.policy.on_register(id, &self.state);
        id
    }

    /// The paper's `selectChunk`: picks the most relevant *resident* chunk
    /// for query `q`, pins it for processing and returns it with a clone of
    /// its payload.  Returns `None` if nothing is available (the query must
    /// block until a load completes).
    pub fn acquire_chunk(&mut self, q: QueryId, now: SimTime) -> Option<(ChunkId, ChunkPayload)> {
        if self.state.query(q).is_finished() {
            return None;
        }
        match self.policy.next_chunk(q, &self.state) {
            Some(chunk) => {
                debug_assert!(
                    self.state.is_resident_for(q, chunk),
                    "{q:?}: policy chose non-resident {chunk:?}"
                );
                self.state.unblock_query(q, now);
                Some((chunk, self.state.start_processing(q, chunk)))
            }
            None => {
                self.state.block_query(q, now);
                None
            }
        }
    }

    /// Whether query `q` has processed everything it asked for.
    pub fn is_query_finished(&self, q: QueryId) -> bool {
        self.state.query(q).is_finished()
    }

    /// Closes a query, removing it from the ABM.  Returns its final state,
    /// or `None` if the query was already removed — the failure path may
    /// close an erred query from the I/O side before its handle detaches,
    /// so closing is idempotent rather than a panic.
    ///
    /// In-flight loads whose *last* interested query this detach removed are
    /// aborted immediately (their page reservations are released so other
    /// loads can use the space); the device read may still be under way, and
    /// its completion is rejected by [`Abm::commit_load`]'s ticket check.
    pub fn finish_query(&mut self, q: QueryId) -> Option<QueryState> {
        self.state.try_query(q)?;
        self.policy.on_query_finished(q, &self.state);
        let final_state = self.state.remove_query(q);
        while let Some(dead) = self
            .state
            .inflight_loads()
            .iter()
            .find(|l| self.state.num_interested(l.chunk) == 0)
            .map(|l| l.chunk)
        {
            self.state.abort_load(dead);
        }
        Some(final_state)
    }

    /// Records that the in-flight load of `chunk` *failed* (the store read
    /// erred, the payload failed checksum verification, or the worker
    /// panicked).  If `ticket` still names the current load, it is aborted:
    /// the page reservation returns to the pool and the chunk becomes
    /// plannable again, so a retry is simply the next plan.  Returns `false`
    /// when the load was already aborted or superseded (e.g. the last
    /// interested query detached during the failed read) — the failure is
    /// then moot and the caller should not retry.
    pub fn fail_load(&mut self, chunk: ChunkId, ticket: u64) -> bool {
        if self.state.inflight_ticket(chunk) != Some(ticket) {
            return false;
        }
        self.state.abort_load(chunk);
        true
    }

    /// Rejects a *delivered* chunk whose payload turned out to be unusable
    /// (checksum mismatch at decode time): `q`'s processing pin is abandoned
    /// without consuming the chunk — it stays needed and will be delivered
    /// again — and the damaged residency is evicted when no other pin holds
    /// it, so the next plan re-loads fresh bytes.
    pub fn reject_delivered(&mut self, q: QueryId, chunk: ChunkId) {
        self.state.abandon_processing(q, chunk);
        if self.state.is_evictable(chunk) {
            self.state.evict(chunk);
        }
    }

    /// Returns a delivered chunk's processing pin, whatever happened to the
    /// query meanwhile — Figure 3's `releaseChunk`, the only release.  If
    /// `q` is still processing `chunk` the chunk is consumed: `q`'s
    /// interest in it ends.  Nothing leaves the buffer here: a chunk, or a
    /// column of it, that no active query needs any more stays cached for
    /// the next query until a load needs its pages ([`Abm::plan_loads`]
    /// reclaims dead columns before it asks the policy for a victim).
    ///
    /// If `q` was removed while the pin was out, only the pin returns:
    /// [`Abm::finish_query`] leaves it in place so eviction stays away from
    /// a frame a reader still holds, and the query's interest already
    /// dropped at removal.
    pub fn release_delivered(&mut self, q: QueryId, chunk: ChunkId) {
        self.state.finish_processing(q, chunk);
    }

    /// One scheduling step of the ABM main loop: choose what to load next,
    /// evicting as needed to make room.  Returns `None` when there is
    /// nothing useful (or possible) to load right now.
    ///
    /// This is the paper's sequential main loop: at most one load may be
    /// outstanding, and calling it while a load is in flight returns `None`.
    /// Both drivers use [`Abm::plan_loads`] instead.
    pub fn plan_load(&mut self, now: SimTime) -> Option<LoadPlan> {
        if self.state.num_inflight() > 0 {
            return None;
        }
        let decision = self.policy.next_load(&self.state, now, 0)?;
        self.admit_decision(decision)
    }

    /// One *batched* scheduling step: plan up to `max_new` additional loads,
    /// admitting each one (and reserving its buffer pages and victims)
    /// before asking the policy for the next, so the whole burst is planned
    /// against a consistent picture of the pool.  Victims for the entire
    /// burst are thus chosen up front — no load of the burst can later fail
    /// to find space, and the burst can never deadlock the pool: a load that
    /// cannot secure space is simply not admitted.
    ///
    /// The first decision of an empty pipeline is taken by the exact
    /// sequential path of [`Abm::plan_load`] (slot 0 of
    /// [`Policy::next_load`]), so a driver that keeps at most one load
    /// outstanding behaves bit-identically to the paper's main loop.
    ///
    /// An admission that evicts or shrinks chunks and still finds no room
    /// is not admitted, but what it freed stays free for the next plan, and
    /// the payloads it let go of are released at once.
    pub fn plan_loads(&mut self, now: SimTime, max_new: usize, out: &mut Vec<LoadPlan>) {
        for _ in 0..max_new {
            let slot = self.state.num_inflight();
            let Some(decision) = self.policy.next_load(&self.state, now, slot) else {
                break;
            };
            match self.admit_decision(decision) {
                Some(plan) => out.push(plan),
                None => break,
            }
        }
    }

    /// Admits one scheduling decision: checks that the load is real and can
    /// fit, evicts victims until it does, reserves its pages and marks it in
    /// flight.  Returns `None` (without admitting) when the load is empty,
    /// larger than the pool, or space cannot be freed.
    fn admit_decision(&mut self, decision: LoadDecision) -> Option<LoadPlan> {
        let pages = self.state.pages_to_load(decision.chunk, decision.cols);
        if pages == 0 {
            // Nothing missing: the policy picked an already-resident chunk;
            // treat as "nothing to do" to avoid an empty I/O.
            return None;
        }
        if pages > self.state.capacity_pages() {
            // A single chunk larger than the whole pool can never fit.
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
            let Some(victim) = self.policy.choose_victim(&self.state, &decision) else {
                // Cannot make room now (everything is pinned, protected or
                // reserved by the in-flight burst).
                return None;
            };
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
            epoch: self.state.epoch(),
        })
    }

    /// Completes the *oldest* outstanding load, with no data.  Returns the
    /// queries that are interested in the loaded chunk and currently
    /// blocked — the driver should wake them (the `signalQuery` of
    /// Figure 3).
    ///
    /// The returned slice borrows an internal scratch buffer (reused across
    /// loads, so the per-load hot path allocates nothing); copy it out if it
    /// must outlive the next `complete_load` call.
    pub fn complete_load(&mut self) -> &[QueryId] {
        let chunk = self.state.inflight().expect("no load in flight").0;
        self.complete_load_of(chunk, ChunkPayload::Missing)
    }

    /// Installs the outstanding load of `chunk` with `payload` — the shared
    /// tail of [`Abm::complete_load`] and a valid [`Abm::commit_load`] — and
    /// returns the blocked queries to wake.  Panics if no load of `chunk` is
    /// in flight; both callers have just established that one is.
    fn complete_load_of(&mut self, chunk: ChunkId, payload: ChunkPayload) -> &[QueryId] {
        self.state.complete_load_of(chunk, payload);
        self.wake_scratch.clear();
        self.wake_scratch.extend(
            self.state
                .queries()
                .filter(|q| q.needs(chunk) && q.is_blocked())
                .map(|q| q.id),
        );
        &self.wake_scratch
    }

    /// The commit half of the plan/commit protocol: revalidates a stamped
    /// plan (whose "disk read" ran outside the lock) and installs residency
    /// and `payload` only if the load is still current and still
    /// interesting.  Returns the blocked queries to wake — a slice of the
    /// same scratch buffer as [`Abm::complete_load`]'s — or `None` for a
    /// stale completion, whose payload is released.
    ///
    /// Unlike [`Abm::complete_load`] this never panics on a stale
    /// completion: a load that was aborted while the read was in progress
    /// (see [`Abm::finish_query`]) or superseded by a newer load of the
    /// same chunk is dropped, and a load whose last interested query
    /// detached without the driver aborting it is aborted here, so
    /// residency is *never* installed for a chunk no active query wants.
    pub fn commit_load(
        &mut self,
        chunk: ChunkId,
        ticket: u64,
        epoch: u64,
        payload: ChunkPayload,
    ) -> Option<&[QueryId]> {
        match self.state.check_commit(chunk, ticket, epoch) {
            CommitCheck::Valid => return Some(self.complete_load_of(chunk, payload)),
            CommitCheck::Uninteresting => self.state.abort_load(chunk),
            CommitCheck::Cancelled => {}
        }
        self.state.release_payload(payload);
        None
    }

    /// Whether any active query still has unprocessed chunks.
    pub fn has_pending_work(&self) -> bool {
        self.state.queries().any(|q| !q.is_finished())
    }

    /// Emergency pressure relief: evict the least interesting evictable chunk
    /// regardless of policy preferences.  Used by drivers as a last resort
    /// when the buffer is full of partially loaded chunks that no query
    /// can consume.  Returns the evicted chunk, if any.
    pub fn force_evict_one(&mut self) -> Option<ChunkId> {
        let victim = self
            .state
            .buffered()
            .filter(|b| self.state.is_evictable(b.chunk))
            .min_by_key(|b| (self.state.num_interested(b.chunk), b.last_touch))
            .map(|b| b.chunk)?;
        self.state.evict(victim);
        Some(victim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TableModel;
    use crate::policy::{PolicyKind, RelevancePolicy};

    fn abm(chunks: u32, buffer_chunks: u64) -> Abm {
        let model = TableModel::nsm_uniform(chunks, 1000, 16);
        let state = AbmState::new(model, buffer_chunks * 16);
        Abm::new(state, Box::new(RelevancePolicy::new()))
    }

    fn full_cols(abm: &Abm) -> ColSet {
        abm.state().model().all_columns()
    }

    #[test]
    fn end_to_end_single_query() {
        let mut abm = abm(10, 4);
        let cols = full_cols(&abm);
        let q = abm.register_query("full", ScanRanges::full(10), cols, SimTime::ZERO);
        let mut processed = 0;
        let mut guard = 0;
        while !abm.is_query_finished(q) {
            guard += 1;
            assert!(guard < 1000, "no progress");
            // Drive I/O until something is available.
            if let Some((chunk, _)) = abm.acquire_chunk(q, SimTime::ZERO) {
                abm.release_delivered(q, chunk);
                processed += 1;
                continue;
            }
            let plan = abm
                .plan_load(SimTime::ZERO)
                .expect("blocked with nothing to load");
            assert!(plan.pages > 0);
            assert!(!plan.regions.is_empty());
            let woken = abm.complete_load();
            assert!(woken.contains(&q));
        }
        assert_eq!(processed, 10);
        assert_eq!(abm.state().io_requests(), 10);
        let final_state = abm.finish_query(q).expect("query is registered");
        assert!(final_state.is_finished());
        assert!(!abm.has_pending_work());
    }

    #[test]
    fn eviction_happens_under_pressure() {
        let mut abm = abm(10, 2); // room for only two chunks
        let cols = full_cols(&abm);
        let q = abm.register_query("full", ScanRanges::full(10), cols, SimTime::ZERO);
        let mut evictions = 0;
        while !abm.is_query_finished(q) {
            if let Some((chunk, _)) = abm.acquire_chunk(q, SimTime::ZERO) {
                abm.release_delivered(q, chunk);
                continue;
            }
            let plan = abm.plan_load(SimTime::ZERO).expect("must be able to plan");
            evictions += plan.evicted.len();
            abm.complete_load();
        }
        assert!(
            evictions >= 8,
            "loading 10 chunks through a 2-chunk pool must evict, got {evictions}"
        );
        assert!(abm.state().used_pages() <= abm.state().capacity_pages());
    }

    #[test]
    fn plan_load_returns_none_when_idle_queries_only() {
        let mut abm = abm(10, 4);
        // No queries at all.
        assert!(abm.plan_load(SimTime::ZERO).is_none());
        let cols = full_cols(&abm);
        let q = abm.register_query("one", ScanRanges::single(0, 1), cols, SimTime::ZERO);
        let plan = abm.plan_load(SimTime::ZERO).unwrap();
        assert_eq!(plan.decision.chunk, ChunkId::new(0));
        // A second plan while the first is in flight is refused.
        assert!(abm.plan_load(SimTime::ZERO).is_none());
        abm.complete_load();
        // Query processes its only chunk; nothing further to load.
        let (chunk, _) = abm.acquire_chunk(q, SimTime::ZERO).unwrap();
        abm.release_delivered(q, chunk);
        assert!(abm.plan_load(SimTime::ZERO).is_none());
        assert!(abm.is_query_finished(q));
    }

    #[test]
    fn a_failed_admission_releases_what_it_freed_at_once() {
        use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
        use cscan_storage::ColumnId;
        use std::sync::Arc;
        let model = TableModel::dsm_uniform(8, 1000, &[3; 6]);
        let mut abm = Abm::new(AbmState::new(model, 27), Box::new(RelevancePolicy::new()));
        let col0 = ColSet::from_columns([ColumnId::new(0)]);
        let narrow = abm.register_query("narrow", ScanRanges::single(0, 2), col0, SimTime::ZERO);
        // Chunk 0 resident full width, chunk 1 with columns {0, 1}: 24 of 27
        // pages, column 1 of chunk 1 dead.
        for (chunk, width) in [(0, 6), (1, 2)] {
            let columns = ColSet::first_n(width);
            let parts = columns
                .iter()
                .map(|c| (c, ColumnChunk::Plain(Arc::new(vec![0; 4]))))
                .collect();
            abm.state.begin_load(ChunkId::new(chunk), columns);
            abm.state
                .complete_load_of(ChunkId::new(chunk), ChunkData::from_parts(parts).into());
        }
        let granted = abm.acquire_chunk(narrow, SimTime::ZERO).map(|(c, _)| c);
        assert_eq!(granted, Some(ChunkId::new(0)));
        // An 18-page load finds 3 pages free, 3 dead and 3 evictable — and
        // the rest pinned.  It is not admitted, but chunk 1 is gone, and its
        // payloads — the two columns, then the one a shrink kept — are
        // released at once.
        let all = ColSet::first_n(6);
        abm.register_query("wide", ScanRanges::single(4, 5), all, SimTime::ZERO);
        let mut plans = Vec::new();
        abm.plan_loads(SimTime::ZERO, 1, &mut plans);
        assert!(plans.is_empty());
        assert!(abm.state.buffered_chunk(ChunkId::new(1)).is_none());
        assert_eq!(abm.state.free_pages(), 9);
        let released: Vec<usize> = abm
            .drain_released()
            .map(|p| match p {
                ChunkPayload::Data(data) => data.column_ids().count(),
                ChunkPayload::Missing => 0,
            })
            .collect();
        assert_eq!(released, [2, 1]);
        assert_eq!(abm.state().frame_stats().evictions, 1);
        // The next plan that is admitted — `narrow`, starved now, asking
        // for the very chunk it lost — names only what it evicted itself.
        abm.release_delivered(narrow, ChunkId::new(0));
        abm.plan_loads(SimTime::ZERO, 1, &mut plans);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].decision.chunk, ChunkId::new(1));
        assert!(plans[0].evicted.is_empty());
        assert_eq!(abm.drain_released().count(), 0);
    }

    #[test]
    fn two_queries_share_loaded_chunks() {
        let mut abm = abm(10, 5);
        let cols = full_cols(&abm);
        let q1 = abm.register_query("a", ScanRanges::single(0, 5), cols, SimTime::ZERO);
        let q2 = abm.register_query("b", ScanRanges::single(0, 5), cols, SimTime::ZERO);
        // Run a simple round-robin driver until both finish.
        let mut guard = 0;
        while abm.has_pending_work() {
            guard += 1;
            assert!(guard < 500);
            let mut progressed = false;
            for &q in &[q1, q2] {
                if abm.is_query_finished(q) {
                    continue;
                }
                if let Some((c, _)) = abm.acquire_chunk(q, SimTime::ZERO) {
                    abm.release_delivered(q, c);
                    progressed = true;
                }
            }
            if !progressed {
                if abm.plan_load(SimTime::ZERO).is_some() {
                    abm.complete_load();
                } else {
                    panic!("stuck: no progress and nothing to load");
                }
            }
        }
        // Perfect sharing: 5 chunks loaded once despite two consumers.
        assert_eq!(abm.state().io_requests(), 5);
        assert_eq!(abm.policy_name(), PolicyKind::Relevance.name());
    }
}
