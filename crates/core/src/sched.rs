//! The scheduler core: where the ABM's grant, commit, release and close
//! decisions are made, for both front-ends.
//!
//! [`Scheduler`] holds the [`Abm`], the [`FramePool`] that mirrors its
//! residency and pins, the quarantine map and one entry per registered
//! query, whose value the driver chooses (the threaded server's grant
//! mailbox, the simulator's stream and query index).  It is plain state —
//! no lock, no thread, no clock: `now` is an argument — and every method
//! appends what it decided to an effect list that the driver collects with
//! [`Scheduler::swap_effects`] and applies:
//!
//! * [`Effect::Grant`] — the policy chose a resident chunk for a query
//!   (Figure 3's `selectChunk`), pinned it in the ABM and in its frame, and
//!   cloned the frame's payload for it;
//! * [`Effect::Closed`] — a query is over and deregistered: it consumed
//!   every chunk it needs or as many as its limit allows, it detached, or
//!   a chunk it needs failed for good (the error);
//! * [`Effect::Recycle`] — a payload the buffer let go of;
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

use crate::abm::{Abm, AbmState, CommitOutcome, LoadPlan};
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::session::ScanError;
use cscan_bufman::FramePool;
use cscan_obs::Registry;
use cscan_simdisk::{SimDuration, SimTime};
use cscan_storage::{ChunkId, ChunkPayload, StoreError};
use std::collections::HashMap;
use std::sync::Arc;

#[cfg(test)]
mod proptests;

/// One decision of the core, for the driver to apply.
#[derive(Debug)]
pub enum Effect<T> {
    /// `chunk` is `query`'s next chunk, pinned in the ABM and in its frame;
    /// `payload` is a clone of the frame's.  Hand it to `to`.
    Grant {
        /// The query the chunk goes to.
        query: QueryId,
        /// The granted chunk.
        chunk: ChunkId,
        /// The frame's payload (a refcount bump).
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

/// A registered query: the driver's value and the chunk limit.
struct Entry<T> {
    to: T,
    limit: Option<u32>,
}

/// The ABM, its frame pool, the quarantine map and the registered queries,
/// changed only through the decisions below.  See the module docs.
pub struct Scheduler<T> {
    abm: Abm,
    pool: FramePool,
    /// Chunks whose loads failed for good, with the final error.  A query
    /// that registers later and needs one is failed when the chunk is
    /// planned again.
    quarantined: HashMap<ChunkId, StoreError>,
    queries: HashMap<QueryId, Entry<T>>,
    effects: Vec<Effect<T>>,
    /// Reused copy of a commit's wake-up list or a quarantine's victims.
    scratch: Vec<QueryId>,
}

impl<T: Clone> Scheduler<T> {
    /// A scheduler for `model` with a buffer of `capacity_pages` under
    /// `policy`, mirroring its frame counters into `obs`.
    pub fn new(
        model: TableModel,
        capacity_pages: u64,
        policy: PolicyKind,
        obs: Arc<Registry>,
    ) -> Self {
        let chunks = (model.num_chunks() as usize).max(1);
        Self {
            abm: Abm::new(AbmState::new(model, capacity_pages), policy.build()),
            pool: FramePool::new(chunks, obs),
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

    /// The frame pool, for reading.
    pub fn pool(&self) -> &FramePool {
        &self.pool
    }

    #[cfg(test)]
    pub(crate) fn pool_mut(&mut self) -> &mut FramePool {
        &mut self.pool
    }

    /// The driver's value for `q`, while it is registered.
    pub fn query(&self, q: QueryId) -> Option<&T> {
        self.queries.get(&q).map(|entry| &entry.to)
    }

    /// The driver's values of every registered query.
    pub fn registered(&self) -> impl Iterator<Item = &T> {
        self.queries.values().map(|entry| &entry.to)
    }

    /// The error `chunk` was quarantined with, if it was.
    pub fn quarantined(&self, chunk: ChunkId) -> Option<StoreError> {
        self.quarantined.get(&chunk).copied()
    }

    /// Hands the effects decided so far to the driver: `into` (empty) and
    /// the core's list trade places, so neither allocates once both have
    /// grown to their working size.
    pub fn swap_effects(&mut self, into: &mut Vec<Effect<T>>) {
        debug_assert!(into.is_empty(), "unapplied effects would be lost");
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
        self.queries.insert(q, Entry { to, limit });
        self.grant(q, now);
        self.effects.push(Effect::InputsChanged);
        q
    }

    /// Matches `q`: grants it its next chunk, or closes it if it has
    /// consumed everything it needs or as much as its limit allows.
    /// Nothing happens to a query that holds a grant or is closed, or when
    /// nothing resident suits it (the ABM marks it blocked, and the commit
    /// of a chunk it needs matches it again).  Returns whether it granted.
    pub fn grant(&mut self, q: QueryId, now: SimTime) -> bool {
        let Some(entry) = self.queries.get(&q) else {
            return false;
        };
        let query = self.abm.state().query(q);
        if query.processing.is_some() {
            // Its grant is still out; the release matches it again.
            return false;
        }
        if query.is_finished() || entry.limit.is_some_and(|limit| query.processed >= limit) {
            self.close(q, None);
            return false;
        }
        let to = entry.to.clone();
        let Some(chunk) = self.abm.acquire_chunk(q, now) else {
            return false;
        };
        // The frame cannot change under the grant in a way its reader
        // would notice: an install merge only adds columns (a load fetches
        // exactly the missing ones) and shares the resident ones, and the
        // ABM pin just taken keeps eviction and dead-column reclaim away.
        let Some(payload) = self.pool.pin(chunk) else {
            // Invariant breach: a delivered chunk always has a resident
            // frame.  Fail the query rather than panic.
            debug_assert!(false, "delivered {chunk:?} has no resident frame");
            self.abm.reject_delivered(q, chunk);
            let cause = StoreError::Permanent;
            self.close(q, Some(ScanError { chunk, cause }));
            return false;
        };
        self.effects.push(Effect::Grant {
            query: q,
            chunk,
            payload,
            to,
        });
        true
    }

    /// Plans up to `max_new` loads into `out` ([`Abm::plan_loads`]) and
    /// mirrors their evictions into the frame pool; chunks that gave up
    /// only their dead columns keep exactly the columns the ABM still
    /// accounts.  The payloads let go of are recycled.
    pub fn plan(&mut self, now: SimTime, max_new: usize, out: &mut Vec<LoadPlan>) {
        let first = out.len();
        self.abm.plan_loads(now, max_new, out);
        for plan in &out[first..] {
            // The ABM never evicts a pinned chunk, and frame pins shadow
            // ABM pins one for one, so the frame is free.
            for &victim in &plan.evicted {
                let freed = self.pool.evict(victim);
                debug_assert!(
                    freed.is_some(),
                    "ABM evicted {victim:?} but its frame was held"
                );
                self.effects.extend(freed.map(Effect::Recycle));
            }
            for &chunk in &plan.shrunk {
                let (Some(b), Some(ChunkPayload::Data(data))) = (
                    self.abm.state().buffered_chunk(chunk),
                    self.pool.payload(chunk),
                ) else {
                    // Evicted whole later in the same plan, or no data.
                    continue;
                };
                if let Some(kept) = data.retained(|c| b.columns.contains(c)) {
                    let old = self.pool.replace_payload(chunk, kept.into());
                    self.effects.push(Effect::Recycle(old));
                }
            }
        }
    }

    /// Retires a load ([`Abm::commit_load`] under its plan's stamp): a
    /// current one installs `payload` into the chunk's frame and matches
    /// the queries it unblocks; a stale one recycles `payload`.  Returns
    /// how many blocked queries the installed load woke, or `None` if it
    /// was stale.
    pub fn commit(
        &mut self,
        chunk: ChunkId,
        ticket: u64,
        epoch: u64,
        payload: ChunkPayload,
        now: SimTime,
    ) -> Option<usize> {
        let CommitOutcome::Committed { woken } = self.abm.commit_load(chunk, ticket, epoch) else {
            self.effects.push(Effect::Recycle(payload));
            return None;
        };
        let mut woken_queries = std::mem::take(&mut self.scratch);
        woken_queries.clear();
        woken_queries.extend_from_slice(woken);
        let installed = self.pool.install(chunk, payload);
        debug_assert!(installed, "the model has no {chunk:?}");
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
        self.pool.unpin(chunk);
        self.abm.release_delivered(q, chunk);
        self.grant(q, now);
        self.effects.push(Effect::InputsChanged);
    }

    /// Returns `q`'s pin of `chunk` *without* consuming it, because its
    /// payload proved unusable: the chunk stays needed, the frame is
    /// evicted unless another pin holds it (so the next load fetches fresh
    /// bytes), and `q` is matched again.
    pub fn reject(&mut self, q: QueryId, chunk: ChunkId, now: SimTime) {
        self.pool.unpin(chunk);
        if self.abm.reject_delivered(q, chunk) {
            self.effects
                .extend(self.pool.evict(chunk).map(Effect::Recycle));
        }
        self.grant(q, now);
        self.effects.push(Effect::InputsChanged);
    }

    /// Records that the load of `chunk` under `ticket` failed for good:
    /// aborts it, quarantines the chunk with `cause` and closes every query
    /// that needs it with that error.  Returns how many it closed, or
    /// `None` if the load was already aborted (its last interested query
    /// detached mid-read), in which case nothing changes.
    pub fn quarantine(&mut self, chunk: ChunkId, ticket: u64, cause: StoreError) -> Option<usize> {
        if !self.abm.fail_load(chunk, ticket) {
            return None;
        }
        self.quarantined.insert(chunk, cause);
        let mut victims = std::mem::take(&mut self.scratch);
        victims.clear();
        victims.extend(self.abm.state().interested_queries(chunk));
        for &q in &victims {
            self.close(q, Some(ScanError { chunk, cause }));
        }
        let closed = victims.len();
        self.scratch = victims;
        self.effects.push(Effect::InputsChanged);
        Some(closed)
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
        let Some(victim) = self.abm.force_evict_one() else {
            return false;
        };
        self.effects
            .extend(self.pool.evict(victim).map(Effect::Recycle));
        true
    }
}
