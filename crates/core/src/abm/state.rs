//! The Active Buffer Manager's shared bookkeeping.
//!
//! [`AbmState`] is the ground truth every scheduling policy reads: which
//! queries are active and what they still need, which chunks (and which
//! column groups of them) are resident, how much buffer space is in use, and
//! who is starved.  Policies never mutate this state directly; mutations go
//! through the scheduler core ([`crate::sched::Scheduler`]), which both the
//! simulation and the threaded executor drive.
//!
//! # The shared chunk index
//!
//! All per-chunk scheduling data — interest counters split by starvation
//! level and the residency / in-flight / starved-bucket bitsets — lives in
//! a [`ChunkIndex`] that `AbmState` maintains under every transition and
//! *all four* policies query (see the module docs of
//! [`crate::abm::index`]).  Transitions cost O(1) per interest-counter
//! change; a starvation-*level* crossing costs O(chunks the query still
//! needs).  Policies read the index as it is at each decision and keep
//! nothing derived from it, so no transition has to tell them anything.
//!
//! # The queueing model
//!
//! Any number of chunk loads may be outstanding at once (the simulation
//! keeps up to K in flight, the threaded executor one per I/O worker).  Each load reserves its buffer pages at [`AbmState::begin_load`]
//! so that [`AbmState::free_pages`] — and therefore eviction planning —
//! accounts for the whole burst up front, and is identified by a unique
//! *ticket*.  Loads retire in arbitrary completion order by chunk key
//! ([`AbmState::complete_load_of`]), or are cancelled
//! ([`AbmState::abort_load`]) when a query-set change makes them moot.
//!
//! # Plan / commit validation
//!
//! The threaded executor performs the "disk read" of a planned load outside
//! the ABM lock, so by the time a load completes the world may have moved:
//! queries detached, the load itself aborted, or a *newer* load of the same
//! chunk issued.  [`AbmState::check_commit`] revalidates the load's
//! `(chunk, ticket)` before residency is installed: a stale ticket means
//! the load was cancelled, and a live one whose chunk no query needs any
//! more is aborted instead of polluting the pool (never load a
//! non-interesting chunk).
//!
//! Every cached quantity has a `_brute` twin computing the original
//! definition; debug builds cross-check them after every mutation
//! ([`AbmState::validate_counters`]), so the incremental index is
//! behaviourally indistinguishable from brute-force bookkeeping.
//!
//! # The buffer
//!
//! A resident chunk's [`BufferedChunk`] is the buffer's one record of it,
//! payload and pins included.  Every payload the buffer lets go of waits in
//! one reused list for the owner ([`crate::sched::Scheduler::swap_effects`]); pins,
//! installs and evictions are counted here and published to a registry.

use crate::abm::buffer::BufferedChunk;
use crate::abm::index::ChunkIndex;
use crate::colset::ColSet;
use crate::model::TableModel;
use crate::query::{QueryId, QueryState};
use cscan_bufman::PoolStats;
use cscan_obs::{Counter, EventKind, Gauge, Registry, NO_QUERY};
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ChunkPayload, ScanRanges};
use std::sync::{Arc, OnceLock};

/// A query is *starved* when it has fewer than this many available chunks
/// (including the one it is currently processing) — Figure 3 of the paper.
pub const STARVATION_THRESHOLD: u32 = 2;

/// Starvation level of a query derived from its availability: `0` starved,
/// `1` almost starved (on the threshold), `2` fed.
fn level(available: u32) -> u8 {
    if available < STARVATION_THRESHOLD {
        0
    } else if available == STARVATION_THRESHOLD {
        1
    } else {
        2
    }
}

/// One outstanding chunk load: what is being fetched and the buffer pages
/// reserved for it up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightLoad {
    /// The chunk being loaded.
    pub chunk: ChunkId,
    /// The columns being made resident, whole column groups.
    pub cols: ColSet,
    /// Pages reserved in the buffer pool for this load.
    pub pages: u64,
    /// Unique identity of this load, assigned by `AbmState::begin_load`.
    /// Commits match on it, so a completion for a load that was aborted (and
    /// possibly re-issued) can never be mistaken for the current one.
    pub ticket: u64,
}

/// Result of revalidating a planned load at commit time
/// ([`AbmState::check_commit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitCheck {
    /// The load is still the one that was planned; residency may be
    /// installed.
    Valid,
    /// No load with this ticket is in flight any more: it was aborted (and
    /// the chunk possibly re-issued under a newer ticket).  Nothing to do.
    Cancelled,
    /// The load is still in flight but no active query wants the chunk any
    /// more (its last interested query detached while the read was in
    /// progress): the caller must abort it rather than install residency.
    Uninteresting,
}

/// A registry that records nothing, shared by every state built without
/// one: a disabled registry costs one branch per record call.
pub(crate) fn no_metrics() -> Arc<Registry> {
    static NO_METRICS: OnceLock<Arc<Registry>> = OnceLock::new();
    Arc::clone(NO_METRICS.get_or_init(|| Arc::new(Registry::disabled())))
}

/// The shared state of the Active Buffer Manager.
#[derive(Debug, Clone)]
pub struct AbmState {
    model: TableModel,
    capacity_pages: u64,
    used_pages: u64,
    /// Active queries, sorted by id (ids are assigned monotonically, so
    /// registration normally appends).
    queries: Vec<QueryState>,
    /// How many active queries miss a chunk ([`QueryState::misses_a_chunk`]).
    queries_missing: usize,
    /// The columns every active query reads (all of them while none runs).
    read_by_all: ColSet,
    /// The columns some active query reads.
    read_by_any: ColSet,
    /// Resident chunks, dense slot map indexed by chunk id.
    buffered: Vec<Option<BufferedChunk>>,
    /// Number of `Some` entries in `buffered`.
    num_buffered: usize,
    /// The shared per-chunk scheduling index (interest counters, residency /
    /// in-flight / starved-bucket bitsets).
    index: ChunkIndex,
    /// Reused scratch for starvation-level propagation.
    chunk_scratch: Vec<u32>,
    /// Monotonic counter for load sequencing and LRU timestamps.
    seq: u64,
    /// Ticket assigned to the next [`Self::begin_load`].
    next_ticket: u64,
    /// Loads currently in flight, oldest first.  A driver keeps up to K of
    /// them outstanding; each reserved its buffer pages at
    /// [`Self::begin_load`] time so a burst of loads can never over-commit
    /// the pool.
    inflight: Vec<InflightLoad>,
    /// Buffer pages reserved by in-flight loads (not yet in `used_pages`).
    reserved_pages: u64,
    /// Total chunk loads completed.
    io_requests: u64,
    /// Total chunk loads aborted before completion.
    loads_aborted: u64,
    /// Total pages read from disk.
    pages_read: u64,
    /// Total queries registered over the lifetime of this ABM.
    queries_registered: u64,
    /// Pins, installs and evictions of the buffer.
    frames: PoolStats,
    /// Resident chunks with at least one pin.
    num_pinned: usize,
    /// Payloads with data the buffer let go of, until the owner takes them.
    released: Vec<ChunkPayload>,
    /// Where the frame counters, gauges and eviction events are published.
    obs: Arc<Registry>,
}

impl AbmState {
    /// Creates the state for `model` with a buffer pool of `capacity_pages`
    /// pages, publishing no metrics.
    ///
    /// # Panics
    /// Panics if the capacity is zero.
    pub fn new(model: TableModel, capacity_pages: u64) -> Self {
        Self::with_metrics(model, capacity_pages, no_metrics())
    }

    /// [`Self::new`], publishing the buffer's counters, its pinned and
    /// resident totals and its eviction events to `obs`.
    pub fn with_metrics(model: TableModel, capacity_pages: u64, obs: Arc<Registry>) -> Self {
        assert!(capacity_pages > 0, "buffer capacity must be positive");
        let chunks = model.num_chunks() as usize;
        Self {
            read_by_all: model.all_columns(),
            read_by_any: ColSet::EMPTY,
            model,
            capacity_pages,
            used_pages: 0,
            queries: Vec::new(),
            queries_missing: 0,
            buffered: vec![None; chunks],
            num_buffered: 0,
            index: ChunkIndex::new(chunks),
            // Pre-sized to its bound (a query never needs more than the
            // table's chunks), so starvation-level propagation — which runs
            // on the consumer's hot release path — never allocates.
            chunk_scratch: Vec::with_capacity(chunks),
            seq: 0,
            next_ticket: 0,
            inflight: Vec::new(),
            reserved_pages: 0,
            io_requests: 0,
            loads_aborted: 0,
            pages_read: 0,
            queries_registered: 0,
            frames: PoolStats::default(),
            num_pinned: 0,
            released: Vec::new(),
            obs,
        }
    }

    // ------------------------------------------------------------------
    // Read-only accessors (used by policies).
    // ------------------------------------------------------------------

    /// The table model being scheduled.
    pub fn model(&self) -> &TableModel {
        &self.model
    }

    /// The shared chunk index: per-chunk interest counters and residency /
    /// in-flight / starved bitsets, maintained by every transition and
    /// queried by all four policies.
    #[inline]
    pub fn index(&self) -> &ChunkIndex {
        &self.index
    }

    /// Buffer pool capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently occupied.
    pub fn used_pages(&self) -> u64 {
        self.used_pages
    }

    /// Pages still free: capacity minus occupied pages minus pages reserved
    /// by in-flight loads.  Eviction planning works against this figure, so
    /// a burst of outstanding loads can never over-commit the pool.
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages
            .saturating_sub(self.used_pages)
            .saturating_sub(self.reserved_pages)
    }

    /// Pages reserved by in-flight loads (not yet counted in
    /// [`Self::used_pages`]).
    pub fn reserved_pages(&self) -> u64 {
        self.reserved_pages
    }

    /// Number of active (registered, unfinished) queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Total queries ever registered.
    pub fn queries_registered(&self) -> u64 {
        self.queries_registered
    }

    /// Iterator over active queries in registration (id) order.
    pub fn queries(&self) -> impl Iterator<Item = &QueryState> {
        self.queries.iter()
    }

    /// The active queries as a slice sorted by id, for walks that start
    /// part-way through the id order.
    pub(crate) fn query_slice(&self) -> &[QueryState] {
        &self.queries
    }

    /// The columns every active query reads when they all read the same
    /// ones — always, on a table of one column group — and `None` while
    /// their sets differ or none runs.  O(1): maintained at registration and
    /// removal.
    pub(crate) fn shared_columns(&self) -> Option<ColSet> {
        (self.read_by_all == self.read_by_any).then_some(self.read_by_any)
    }

    /// `(read_by_all, read_by_any)` recomputed from the active queries.
    fn column_sets_brute(&self) -> (ColSet, ColSet) {
        self.queries.iter().fold(
            (self.model.all_columns(), ColSet::EMPTY),
            |(all, any), q| (all.intersect(q.columns), any.union(q.columns)),
        )
    }

    /// Index of query `q` in the sorted query vector.
    fn query_index(&self, q: QueryId) -> Option<usize> {
        self.queries.binary_search_by_key(&q, |s| s.id).ok()
    }

    /// The state of query `q`.
    ///
    /// # Panics
    /// Panics if the query is not registered.
    pub fn query(&self, q: QueryId) -> &QueryState {
        self.try_query(q)
            .unwrap_or_else(|| panic!("unknown query {q:?}"))
    }

    /// The state of query `q`, if registered.
    pub fn try_query(&self, q: QueryId) -> Option<&QueryState> {
        self.query_index(q).map(|i| &self.queries[i])
    }

    fn query_mut(&mut self, q: QueryId) -> &mut QueryState {
        let i = self
            .query_index(q)
            .unwrap_or_else(|| panic!("unknown query {q:?}"));
        &mut self.queries[i]
    }

    /// Iterator over resident chunks in chunk order.
    pub fn buffered(&self) -> impl Iterator<Item = &BufferedChunk> {
        self.buffered.iter().filter_map(|b| b.as_ref())
    }

    /// Number of resident chunks (fully or partially loaded).
    pub fn num_buffered(&self) -> usize {
        self.num_buffered
    }

    /// The buffer entry for `chunk`, if resident.
    pub fn buffered_chunk(&self, chunk: ChunkId) -> Option<&BufferedChunk> {
        self.buffered.get(chunk.as_usize()).and_then(|b| b.as_ref())
    }

    /// The buffer's pin, install and eviction counters.
    pub fn frame_stats(&self) -> PoolStats {
        self.frames
    }

    /// Number of resident chunks pinned at least once.
    pub fn pinned_frames(&self) -> usize {
        self.num_pinned
    }

    /// Hands over the payloads the buffer let go of since the last call.
    pub(crate) fn drain_released(&mut self) -> std::vec::Drain<'_, ChunkPayload> {
        self.released.drain(..)
    }

    /// All in-flight loads, oldest first.
    pub fn inflight_loads(&self) -> &[InflightLoad] {
        &self.inflight
    }

    /// Number of loads currently in flight.
    pub fn num_inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Whether a load of `chunk` is currently in flight.  O(1).
    pub fn is_inflight(&self, chunk: ChunkId) -> bool {
        self.index.is_inflight(chunk)
    }

    /// The ticket of the in-flight load of `chunk`, if any.
    pub fn inflight_ticket(&self, chunk: ChunkId) -> Option<u64> {
        if !self.is_inflight(chunk) {
            return None;
        }
        self.inflight
            .iter()
            .find(|l| l.chunk == chunk)
            .map(|l| l.ticket)
    }

    /// Revalidates a planned load at commit time.  The caller planned a
    /// load of `chunk` that was assigned `ticket`, performed the read
    /// outside the lock, and must now decide what the completion means:
    ///
    /// * [`CommitCheck::Cancelled`] — the ticket no longer matches: the load
    ///   was aborted (and possibly superseded by a newer load of the same
    ///   chunk).  The completion must be dropped.
    /// * [`CommitCheck::Uninteresting`] — the load is still in flight but a
    ///   detach since planning left the chunk with no interested query.
    ///   The caller must `abort_load` it.
    /// * [`CommitCheck::Valid`] — install residency (`complete_load_of`).
    pub fn check_commit(&self, chunk: ChunkId, ticket: u64) -> CommitCheck {
        match self.inflight_ticket(chunk) {
            None => CommitCheck::Cancelled,
            Some(t) if t != ticket => CommitCheck::Cancelled,
            Some(_) if self.index.interested(chunk) == 0 => CommitCheck::Uninteresting,
            Some(_) => CommitCheck::Valid,
        }
    }

    /// Number of chunk loads completed so far.
    pub fn io_requests(&self) -> u64 {
        self.io_requests
    }

    /// Number of chunk loads aborted before completion (their last
    /// interested query detached mid-read).
    pub fn loads_aborted(&self) -> u64 {
        self.loads_aborted
    }

    /// Number of pages read from disk so far.
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// Whether all of `cols` of `chunk` are resident.
    pub fn is_resident(&self, chunk: ChunkId, cols: ColSet) -> bool {
        match self.buffered_chunk(chunk) {
            Some(b) => cols.is_subset_of(b.columns),
            None => cols.is_empty(),
        }
    }

    /// Whether `chunk` is resident with all columns query `q` needs.
    pub fn is_resident_for(&self, q: QueryId, chunk: ChunkId) -> bool {
        self.is_resident(chunk, self.query(q).columns)
    }

    /// The columns of `cols` that are *not* yet resident for `chunk`.
    pub fn missing_columns(&self, chunk: ChunkId, cols: ColSet) -> ColSet {
        match self.buffered_chunk(chunk) {
            Some(b) => cols.difference(b.columns),
            None => cols,
        }
    }

    /// Pages that would have to be read to make `cols` of `chunk` resident:
    /// the column groups of the missing columns, whole.
    pub fn pages_to_load(&self, chunk: ChunkId, cols: ColSet) -> u64 {
        self.model
            .chunk_pages(chunk, self.missing_columns(chunk, cols))
    }

    /// Number of active queries that still need `chunk`.  O(1).
    pub fn num_interested(&self, chunk: ChunkId) -> u32 {
        self.index.interested(chunk)
    }

    /// The active queries that still need `chunk`, in id order.
    pub fn interested_queries(&self, chunk: ChunkId) -> impl Iterator<Item = QueryId> + '_ {
        self.queries
            .iter()
            .filter(move |q| q.needs(chunk))
            .map(|q| q.id)
    }

    /// Number of *available* chunks for query `q`: resident chunks it still
    /// needs, including the one it is currently processing.  O(1) — cached
    /// and maintained by every state transition.
    pub fn available_chunks(&self, q: QueryId) -> u32 {
        self.query(q).available
    }

    /// Whether some query needs a chunk that is not resident for its
    /// columns.  Every load a plan can admit is such a chunk, so while this
    /// is false no plan finds one.  O(1).
    pub fn misses_a_chunk(&self) -> bool {
        self.queries_missing > 0
    }

    /// Whether query `q` is starved (fewer than two available chunks).  O(1).
    pub fn is_starved(&self, q: QueryId) -> bool {
        self.query(q).available < STARVATION_THRESHOLD
    }

    /// Whether query `q` is starved or on the border of starvation
    /// (used by `keepRelevance` to avoid evicting chunks whose loss would
    /// make a query immediately schedulable again).  O(1).
    pub fn is_almost_starved(&self, q: QueryId) -> bool {
        self.query(q).available <= STARVATION_THRESHOLD
    }

    /// Number of starved queries interested in `chunk`.  O(1) — cached.
    pub fn num_interested_starved(&self, chunk: ChunkId) -> u32 {
        self.index.interested_starved(chunk)
    }

    /// Number of almost-starved queries interested in `chunk`.  O(1) — cached.
    pub fn num_interested_almost_starved(&self, chunk: ChunkId) -> u32 {
        self.index.interested_almost_starved(chunk)
    }

    /// Whether `chunk` may be evicted right now: resident, not pinned and not
    /// the target of any in-flight load.
    pub fn is_evictable(&self, chunk: ChunkId) -> bool {
        match self.buffered_chunk(chunk) {
            Some(b) => !b.is_pinned() && !self.is_inflight(chunk),
            None => false,
        }
    }

    // ------------------------------------------------------------------
    // Brute-force reference implementations.
    //
    // These recompute the cached quantities from first principles (the seed
    // semantics).  They exist so that (a) debug builds can cross-check every
    // cached counter after every transition, and (b) the property tests can
    // assert cache/brute equality under arbitrary operation sequences.  No
    // policy decision reads them: the relevance reference of
    // `policy/reference.rs` counts what it needs itself.
    // ------------------------------------------------------------------

    /// [`Self::available_chunks`] recomputed by scanning the buffer.
    pub fn available_chunks_brute(&self, q: QueryId) -> u32 {
        let query = self.query(q);
        let mut count = 0;
        for b in self.buffered() {
            if query.needs(b.chunk) && query.columns.is_subset_of(b.columns) {
                count += 1;
            }
        }
        count
    }

    /// [`Self::is_starved`] recomputed from scratch.
    pub fn is_starved_brute(&self, q: QueryId) -> bool {
        self.available_chunks_brute(q) < STARVATION_THRESHOLD
    }

    /// [`Self::is_almost_starved`] recomputed from scratch.
    pub fn is_almost_starved_brute(&self, q: QueryId) -> bool {
        self.available_chunks_brute(q) <= STARVATION_THRESHOLD
    }

    /// [`Self::num_interested_starved`] recomputed from scratch.
    pub fn num_interested_starved_brute(&self, chunk: ChunkId) -> u32 {
        self.queries
            .iter()
            .filter(|q| q.needs(chunk) && self.is_starved_brute(q.id))
            .count() as u32
    }

    /// [`Self::num_interested_almost_starved`] recomputed from scratch.
    pub fn num_interested_almost_starved_brute(&self, chunk: ChunkId) -> u32 {
        self.queries
            .iter()
            .filter(|q| q.needs(chunk) && self.is_almost_starved_brute(q.id))
            .count() as u32
    }

    /// [`Self::num_interested`] recomputed from scratch.
    pub fn num_interested_brute(&self, chunk: ChunkId) -> u32 {
        self.queries.iter().filter(|q| q.needs(chunk)).count() as u32
    }

    /// Asserts that every cached counter equals its brute-force definition.
    /// O(queries × (buffered + chunks)) — called automatically after every
    /// mutation in debug builds, and by the property tests.
    ///
    /// # Panics
    /// Panics on any cache/brute mismatch.
    pub fn validate_counters(&self) {
        for w in self.queries.windows(2) {
            assert!(w[0].id < w[1].id, "query vector must stay sorted by id");
        }
        // Brute availability once per query (not per chunk × query below).
        let brute_avail: Vec<u32> = self
            .queries
            .iter()
            .map(|q| self.available_chunks_brute(q.id))
            .collect();
        for (q, &avail) in self.queries.iter().zip(&brute_avail) {
            assert_eq!(
                q.available, avail,
                "stale availability cache for {:?}",
                q.id
            );
        }
        assert_eq!(
            self.queries_missing,
            self.queries.iter().filter(|q| q.misses_a_chunk()).count(),
            "stale count of queries missing a chunk"
        );
        assert_eq!(
            self.num_buffered,
            self.buffered().count(),
            "stale buffered-chunk count"
        );
        assert_eq!(
            self.num_pinned,
            self.buffered().filter(|b| b.is_pinned()).count(),
            "stale pinned-chunk count"
        );
        assert_eq!(
            (self.read_by_all, self.read_by_any),
            self.column_sets_brute(),
            "stale active column sets"
        );
        for c in 0..self.model.num_chunks() {
            let chunk = ChunkId::new(c);
            let mut interested = 0;
            let mut starved = 0;
            let mut almost = 0;
            for (q, &avail) in self.queries.iter().zip(&brute_avail) {
                if !q.needs(chunk) {
                    continue;
                }
                interested += 1;
                if avail < STARVATION_THRESHOLD {
                    starved += 1;
                }
                if avail <= STARVATION_THRESHOLD {
                    almost += 1;
                }
            }
            assert_eq!(
                self.index.interested(chunk),
                interested,
                "stale interest counter for {chunk:?}"
            );
            assert_eq!(
                self.index.interested_starved(chunk),
                starved,
                "stale starved-interest counter for {chunk:?}"
            );
            assert_eq!(
                self.index.interested_almost_starved(chunk),
                almost,
                "stale almost-starved-interest counter for {chunk:?}"
            );
            assert_eq!(
                self.index.is_resident(chunk),
                self.buffered[c as usize].is_some(),
                "stale residency bit for {chunk:?}"
            );
            assert_eq!(
                self.index.is_partial(chunk),
                self.buffered[c as usize]
                    .as_ref()
                    .is_some_and(|b| b.columns != self.model.all_columns()),
                "stale partial-residency bit for {chunk:?}"
            );
        }
        // Derived sets (interested-any, starved buckets, starved-any,
        // max-starved hint) against the now-validated flat counters.
        self.index.validate_derived_sets();
        // In-flight bookkeeping: the bitset mirrors the list, no chunk has
        // two outstanding loads, tickets are unique, reservations add up,
        // and reservations plus occupancy never over-commit the pool.
        assert_eq!(
            self.index.inflight_len(),
            self.inflight.len(),
            "in-flight bitset out of sync (or duplicate in-flight chunk)"
        );
        for (i, l) in self.inflight.iter().enumerate() {
            assert!(
                self.index.is_inflight(l.chunk),
                "in-flight bitset missing {:?}",
                l.chunk
            );
            assert!(
                self.inflight[i + 1..].iter().all(|m| m.ticket != l.ticket),
                "duplicate in-flight ticket {}",
                l.ticket
            );
        }
        assert_eq!(
            self.reserved_pages,
            self.inflight.iter().map(|l| l.pages).sum::<u64>(),
            "stale reserved-page total"
        );
        assert!(
            self.used_pages + self.reserved_pages <= self.capacity_pages,
            "used {} + reserved {} pages over-commit the {}-page pool",
            self.used_pages,
            self.reserved_pages,
            self.capacity_pages
        );
    }

    /// Runs [`Self::validate_counters`] in debug builds only.
    #[inline]
    fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        self.validate_counters();
    }

    // ------------------------------------------------------------------
    // Incremental index maintenance.
    // ------------------------------------------------------------------

    /// Updates query `idx`'s cached availability and the count of queries
    /// missing a chunk, propagating a starvation *level* change to the
    /// per-chunk counters of every chunk the query still needs.  O(1) when
    /// the level is unchanged, O(chunks the query needs) when availability
    /// crosses the threshold.
    fn set_available(&mut self, idx: usize, new_available: u32) {
        let old_available = self.queries[idx].available;
        if old_available == new_available {
            return;
        }
        let missed = self.queries[idx].misses_a_chunk();
        self.queries[idx].available = new_available;
        self.count_missing(missed, idx);
        let old_level = level(old_available);
        let new_level = level(new_available);
        if old_level == new_level {
            return;
        }
        let d_starved = i64::from(new_level == 0) - i64::from(old_level == 0);
        let d_almost = i64::from(new_level <= 1) - i64::from(old_level <= 1);
        // Copy the chunk list into a reusable scratch so the loop body has
        // full `&mut self` access for the bucket maintenance.
        let mut scratch = std::mem::take(&mut self.chunk_scratch);
        scratch.clear();
        scratch.extend(self.queries[idx].remaining_chunks().map(|c| c.index()));
        for &c in &scratch {
            self.index
                .shift_starvation(ChunkId::new(c), d_starved, d_almost);
        }
        self.chunk_scratch = scratch;
    }

    /// Moves query `idx` in or out of the count of queries missing a chunk,
    /// given whether it missed one before its last change.
    fn count_missing(&mut self, missed: bool, idx: usize) {
        match (missed, self.queries[idx].misses_a_chunk()) {
            (false, true) => self.queries_missing += 1,
            (true, false) => self.queries_missing -= 1,
            _ => {}
        }
    }

    /// Keeps `payload` for the owner to recycle if it holds data.
    pub(crate) fn release_payload(&mut self, payload: ChunkPayload) {
        if let ChunkPayload::Data(_) = payload {
            self.released.push(payload);
        }
    }

    /// Counts and publishes that `b` left the buffer, and releases its
    /// payload.
    fn left_buffer(&mut self, b: BufferedChunk) {
        self.num_buffered -= 1;
        self.frames.evictions += 1;
        self.obs.inc(Counter::FrameEvictions);
        self.obs
            .gauge_set(Gauge::ResidentFrames, self.num_buffered as u64);
        self.obs
            .event(EventKind::FrameEvicted, b.chunk.index(), NO_QUERY, 0);
        self.release_payload(b.payload);
    }

    /// Returns `q`'s pin of `chunk` if it holds one.
    fn release_pin(&mut self, q: QueryId, chunk: ChunkId) {
        let Some(b) = self.buffered[chunk.as_usize()].as_mut() else {
            return;
        };
        if b.unpin_if_held(q) {
            self.frames.unpins += 1;
            self.obs.inc(Counter::FrameUnpins);
            if !b.is_pinned() {
                self.num_pinned -= 1;
                self.obs
                    .gauge_set(Gauge::PinnedFrames, self.num_pinned as u64);
            }
        }
    }

    /// The index of `q` if it is registered and processing `chunk`.
    fn processing(&self, q: QueryId, chunk: ChunkId) -> Option<usize> {
        let idx = self.query_index(q)?;
        (self.queries[idx].processing == Some(chunk)).then_some(idx)
    }

    // ------------------------------------------------------------------
    // Mutations (driven by the scheduler core).
    // ------------------------------------------------------------------

    /// Registers a new query.  Its columns are widened to whole column
    /// groups ([`TableModel::whole_groups`]) here, once: a group is read
    /// whole, so every later decision sees a query reading all of a group
    /// or none of it.
    ///
    /// # Panics
    /// Panics if the query is already registered, reads a column the model
    /// lacks, or reads no columns (an empty column set would make "all
    /// needed columns resident" vacuously true and desync the availability
    /// cache from its brute-force definition).
    pub(crate) fn register_query(
        &mut self,
        id: QueryId,
        label: impl Into<String>,
        ranges: ScanRanges,
        columns: ColSet,
        now: SimTime,
    ) {
        let past = columns.difference(self.model.all_columns());
        assert!(
            past.is_empty(),
            "{id:?} reads columns {past:?}, past the model's {}",
            self.model.num_columns()
        );
        let columns = self.model.whole_groups(columns);
        assert!(!columns.is_empty(), "{id:?} must read at least one column");
        let pos = match self.queries.binary_search_by_key(&id, |s| s.id) {
            Ok(_) => panic!("query {id:?} registered twice"),
            Err(pos) => pos,
        };
        let mut state = QueryState::new(id, label, ranges, columns, self.model.num_chunks(), now);
        // Initial availability: resident chunks the query can already use.
        let mut available = 0;
        for chunk in state.remaining_chunks() {
            if let Some(b) = &self.buffered[chunk.as_usize()] {
                if columns.is_subset_of(b.columns) {
                    available += 1;
                }
            }
        }
        state.available = available;
        self.queries_missing += usize::from(state.misses_a_chunk());
        let lvl = level(available);
        let chunks: Vec<ChunkId> = state.remaining_chunks().collect();
        self.queries.insert(pos, state);
        (self.read_by_all, self.read_by_any) = self.column_sets_brute();
        for chunk in chunks {
            self.index.add_interest(chunk, lvl);
        }
        self.queries_registered += 1;
        self.debug_validate();
    }

    /// Removes a finished (or cancelled) query, dropping its interest counts.
    ///
    /// If the query was still processing a chunk (a `PinnedChunk` is
    /// outstanding), that chunk's pin is deliberately *left in place* so the
    /// frame cannot be evicted under the reader; the driver returns it later
    /// through [`Self::finish_processing`].
    pub(crate) fn remove_query(&mut self, id: QueryId) -> QueryState {
        let idx = self
            .query_index(id)
            .unwrap_or_else(|| panic!("unknown query {id:?}"));
        let state = self.queries.remove(idx);
        self.queries_missing -= usize::from(state.misses_a_chunk());
        (self.read_by_all, self.read_by_any) = self.column_sets_brute();
        // A cancelled query may still have outstanding interest.
        let lvl = level(state.available);
        for chunk in state.remaining_chunks() {
            self.index.remove_interest(chunk, lvl);
        }
        self.debug_validate();
        state
    }

    /// Marks the start of a chunk load, reserving its buffer pages up front
    /// and assigning the load's unique ticket.  Any number of loads may be
    /// in flight, but at most one per chunk.
    ///
    /// # Panics
    /// Panics (debug) if a load of `chunk` is already outstanding.
    pub(crate) fn begin_load(&mut self, chunk: ChunkId, cols: ColSet) -> u64 {
        debug_assert!(
            !self.is_inflight(chunk),
            "{chunk:?} already has a load in flight"
        );
        let pages = self.pages_to_load(chunk, cols);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.inflight.push(InflightLoad {
            chunk,
            cols,
            pages,
            ticket,
        });
        self.reserved_pages += pages;
        debug_assert!(
            self.used_pages + self.reserved_pages <= self.capacity_pages,
            "in-flight reservations over-commit the buffer pool"
        );
        // Becoming in-flight removes the chunk from every policy's load
        // candidate set until the load completes or is aborted.
        self.index.set_inflight(chunk, true);
        ticket
    }

    /// Completes the in-flight load of `chunk` (loads may complete in any
    /// order): its columns become resident with `payload` — merged into the
    /// resident payload if the chunk already was ([`ChunkPayload::merged_with`])
    /// — and the reservation is converted into occupied pages.  The install
    /// counts as one pin and one unpin: a miss if it made the chunk
    /// resident, a hit if it merged.  Returns the number of pages added.
    ///
    /// # Panics
    /// Panics if no load of `chunk` is in flight.
    pub(crate) fn complete_load_of(&mut self, chunk: ChunkId, payload: ChunkPayload) -> u64 {
        let idx = self
            .inflight
            .iter()
            .position(|l| l.chunk == chunk)
            .unwrap_or_else(|| panic!("no load of {chunk:?} in flight"));
        let InflightLoad {
            cols,
            pages: reserved,
            ..
        } = self.inflight.remove(idx);
        self.index.set_inflight(chunk, false);
        self.reserved_pages -= reserved;
        let pages = self.pages_to_load(chunk, cols);
        debug_assert_eq!(
            pages, reserved,
            "{chunk:?}: residency changed between begin_load and completion"
        );
        self.seq += 1;
        let seq = self.seq;
        let slot = &mut self.buffered[chunk.as_usize()];
        let old_columns = slot.as_ref().map(|b| b.columns).unwrap_or(ColSet::EMPTY);
        self.frames.pins += 1;
        self.frames.unpins += 1;
        self.obs.inc(Counter::FramePins);
        self.obs.inc(Counter::FrameUnpins);
        match slot {
            Some(b) => {
                b.columns = b.columns.union(cols);
                b.pages += pages;
                b.loaded_seq = seq;
                b.last_touch = seq;
                b.payload = b.payload.merged_with(&payload);
                self.frames.hits += 1;
                self.obs.inc(Counter::FrameHits);
            }
            None => {
                *slot = Some(BufferedChunk::new(chunk, cols, pages, seq, payload));
                self.num_buffered += 1;
                self.frames.misses += 1;
                self.obs.inc(Counter::FrameMisses);
                self.obs
                    .gauge_set(Gauge::ResidentFrames, self.num_buffered as u64);
            }
        }
        let new_columns = old_columns.union(cols);
        self.index
            .set_resident(chunk, true, new_columns != self.model.all_columns());
        self.used_pages += pages;
        self.io_requests += 1;
        self.pages_read += pages;
        // Queries whose column set just became fully resident gained an
        // available chunk.
        for idx in 0..self.queries.len() {
            let q = &self.queries[idx];
            if !q.needs(chunk) {
                continue;
            }
            let was = q.columns.is_subset_of(old_columns);
            let now_resident = q.columns.is_subset_of(new_columns);
            if !was && now_resident {
                self.set_available(idx, self.queries[idx].available + 1);
            }
        }
        self.debug_validate();
        pages
    }

    /// Aborts the in-flight load of `chunk` (its last interested query
    /// detached mid-read, or a query-set change otherwise made it moot),
    /// releasing its page reservation.
    ///
    /// # Panics
    /// Panics if no load of `chunk` is in flight.
    pub(crate) fn abort_load(&mut self, chunk: ChunkId) {
        let idx = self
            .inflight
            .iter()
            .position(|l| l.chunk == chunk)
            .unwrap_or_else(|| panic!("no load of {chunk:?} in flight"));
        let load = self.inflight.remove(idx);
        self.reserved_pages -= load.pages;
        self.loads_aborted += 1;
        // The chunk is a load candidate again.
        self.index.set_inflight(chunk, false);
        self.debug_validate();
    }

    /// Evicts `chunk` entirely from the buffer, releasing its payload.
    /// Returns the pages freed.
    ///
    /// # Panics
    /// Panics if the chunk is pinned or not resident.
    pub(crate) fn evict(&mut self, chunk: ChunkId) -> u64 {
        let b = self.buffered[chunk.as_usize()]
            .take()
            .unwrap_or_else(|| panic!("evicting non-resident chunk {chunk:?}"));
        assert!(!b.is_pinned(), "evicting pinned chunk {chunk:?}");
        self.index.set_resident(chunk, false, false);
        self.used_pages -= b.pages;
        // Queries that could consume this chunk lost an available chunk.
        for idx in 0..self.queries.len() {
            let q = &self.queries[idx];
            if q.needs(chunk) && q.columns.is_subset_of(b.columns) {
                self.set_available(idx, self.queries[idx].available - 1);
            }
        }
        let pages = b.pages;
        self.left_buffer(b);
        self.debug_validate();
        pages
    }

    /// The *dead* columns of `chunk`: resident columns that none of the
    /// queries still needing the chunk reads.  Empty for a chunk nobody
    /// needs at all — that one is an ordinary victim of the policy — and on
    /// a table of one column group, whose every query reads every column.
    pub fn dead_columns(&self, chunk: ChunkId) -> ColSet {
        let Some(b) = self.buffered_chunk(chunk) else {
            return ColSet::EMPTY;
        };
        if self.index.interested(chunk) == 0 {
            return ColSet::EMPTY;
        }
        b.columns.difference(self.live_columns(chunk))
    }

    /// The columns the queries still needing `chunk` read.  O(1) while every
    /// active query reads the same columns.
    pub(crate) fn live_columns(&self, chunk: ChunkId) -> ColSet {
        match self.shared_columns() {
            Some(shared) if self.index.interested(chunk) > 0 => shared,
            _ => self
                .queries
                .iter()
                .filter(|q| q.needs(chunk))
                .fold(ColSet::EMPTY, |acc, q| acc.union(q.columns)),
        }
    }

    /// Reclaims the dead columns ([`Self::dead_columns`]) of the first chunk
    /// that has any and is neither pinned nor the target of an in-flight
    /// load (whose page reservation was computed against the resident set):
    /// its payload keeps the columns that stay, and the one it held is
    /// released.  Returns the chunk, which may have left the buffer
    /// altogether if every resident column was dead.
    ///
    /// A chunk-granular policy cannot name these pages — its victim would
    /// take the chunk's live columns with them — so the scheduler core asks here
    /// before it asks the policy.  No interested query reads a dead column,
    /// so no query's availability changes, and no load asks for one, so the
    /// chunk a load is being admitted for may give up its own.
    pub(crate) fn reclaim_dead_columns(&mut self) -> Option<ChunkId> {
        // Columns every active query reads are dead in no chunk: when every
        // scan reads every column (always, on a table of one group), there
        // is nothing to search.
        let read_by_all = self.read_by_all;
        if read_by_all == self.model.all_columns() {
            return None;
        }
        let (chunk, dead) = self
            .buffered()
            .filter(|b| !b.columns.is_subset_of(read_by_all) && self.is_evictable(b.chunk))
            .map(|b| (b.chunk, self.dead_columns(b.chunk)))
            .find(|(_, dead)| !dead.is_empty())?;
        let freed = self.model.chunk_pages(chunk, dead);
        let slot = &mut self.buffered[chunk.as_usize()];
        let b = slot.as_mut().expect("a resident chunk is buffered");
        b.columns = b.columns.difference(dead);
        b.pages -= freed;
        let resident = !b.columns.is_empty();
        if !resident {
            let b = slot.take().expect("a resident chunk is buffered");
            self.left_buffer(b);
        } else if let ChunkPayload::Data(data) = &b.payload {
            let kept = data.retained(|c| b.columns.contains(c));
            if let Some(kept) = kept {
                let old = std::mem::replace(&mut b.payload, kept.into());
                self.release_payload(old);
            }
        }
        self.index.set_resident(chunk, resident, true);
        self.used_pages -= freed;
        self.debug_validate();
        Some(chunk)
    }

    /// Marks query `q` as starting to process `chunk`: pins the chunk (a
    /// hit) and returns a clone of its payload — a refcount bump.
    pub(crate) fn start_processing(&mut self, q: QueryId, chunk: ChunkId) -> ChunkPayload {
        self.seq += 1;
        let seq = self.seq;
        self.query_mut(q).start_processing(chunk);
        let b = self.buffered[chunk.as_usize()]
            .as_mut()
            .unwrap_or_else(|| panic!("{q:?} processing non-resident chunk {chunk:?}"));
        b.pin(q);
        b.last_touch = seq;
        let first = b.pinned_by.len() == 1;
        let payload = b.payload.clone();
        self.frames.hits += 1;
        self.frames.pins += 1;
        self.obs.inc(Counter::FrameHits);
        self.obs.inc(Counter::FramePins);
        if first {
            self.num_pinned += 1;
            self.obs
                .gauge_set(Gauge::PinnedFrames, self.num_pinned as u64);
        }
        payload
    }

    /// Marks query `q` as done with `chunk`: unpins it, and `q`'s interest
    /// in it ends.  If `q` was removed while processing the chunk, only the
    /// pin it left ([`Self::remove_query`]) returns.
    pub(crate) fn finish_processing(&mut self, q: QueryId, chunk: ChunkId) {
        if let Some(idx) = self.processing(q, chunk) {
            let old_level = level(self.queries[idx].available);
            // The query needs one chunk fewer; `set_available` below counts
            // the available one it consumed.
            let missed = self.queries[idx].misses_a_chunk();
            self.queries[idx].finish_processing(chunk);
            self.count_missing(missed, idx);
            // The query's interest in this chunk ends: remove its
            // contribution from the chunk's counters at its pre-transition
            // level.
            self.index.remove_interest(chunk, old_level);
            // The chunk was pinned (hence resident) for the query
            // throughout processing, so it was counted available; consuming
            // it drops the availability by one.
            let available = self.queries[idx].available;
            debug_assert!(available > 0, "{q:?} consumed {chunk:?} unavailable");
            self.set_available(idx, available - 1);
        }
        self.release_pin(q, chunk);
        self.debug_validate();
    }

    /// Marks query `q` as blocked at `now`.
    pub(crate) fn block_query(&mut self, q: QueryId, now: SimTime) {
        if let Some(idx) = self.query_index(q) {
            self.queries[idx].block(now);
        }
    }

    /// Marks query `q` as unblocked at `now`.
    pub(crate) fn unblock_query(&mut self, q: QueryId, now: SimTime) {
        if let Some(idx) = self.query_index(q) {
            self.queries[idx].unblock(now);
        }
    }

    /// Records that a load was triggered on behalf of `q`.
    pub(crate) fn count_triggered_io(&mut self, q: QueryId) {
        if let Some(idx) = self.query_index(q) {
            self.queries[idx].ios_triggered += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TableModel;

    fn nsm_state(chunks: u32, buffer_chunks: u64) -> AbmState {
        let model = TableModel::nsm_uniform(chunks, 1000, 16);
        let capacity = buffer_chunks * 16;
        AbmState::new(model, capacity)
    }

    fn register(state: &mut AbmState, id: u64, start: u32, end: u32) {
        let cols = state.model().all_columns();
        state.register_query(
            QueryId(id),
            format!("q{id}"),
            ScanRanges::single(start, end),
            cols,
            SimTime::ZERO,
        );
    }

    #[test]
    fn registration_tracks_interest() {
        let mut s = nsm_state(20, 4);
        register(&mut s, 1, 0, 10);
        register(&mut s, 2, 5, 15);
        assert_eq!(s.num_queries(), 2);
        assert_eq!(s.num_interested(ChunkId::new(0)), 1);
        assert_eq!(s.num_interested(ChunkId::new(7)), 2);
        assert_eq!(s.num_interested(ChunkId::new(15)), 0);
        assert_eq!(
            s.interested_queries(ChunkId::new(7)).collect::<Vec<_>>(),
            vec![QueryId(1), QueryId(2)]
        );
        assert_eq!(s.queries_registered(), 2);
    }

    #[test]
    fn load_and_residency() {
        let mut s = nsm_state(20, 4);
        register(&mut s, 1, 0, 10);
        let cols = s.model().all_columns();
        assert_eq!(s.pages_to_load(ChunkId::new(3), cols), 16);
        s.begin_load(ChunkId::new(3), cols);
        assert!(s.is_inflight(ChunkId::new(3)));
        let pages = s.complete_load_of(ChunkId::new(3), ChunkPayload::Missing);
        assert_eq!(pages, 16);
        assert_eq!(s.used_pages(), 16);
        assert_eq!(s.free_pages(), 48);
        assert!(s.is_resident_for(QueryId(1), ChunkId::new(3)));
        assert_eq!(s.pages_to_load(ChunkId::new(3), cols), 0);
        assert_eq!(s.io_requests(), 1);
        assert_eq!(s.pages_read(), 16);
        assert_eq!(s.available_chunks(QueryId(1)), 1);
        assert!(s.is_starved(QueryId(1)));
    }

    #[test]
    fn processing_and_interest_lifecycle() {
        let mut s = nsm_state(20, 4);
        register(&mut s, 1, 0, 10);
        register(&mut s, 2, 0, 10);
        let cols = s.model().all_columns();
        s.begin_load(ChunkId::new(0), cols);
        s.complete_load_of(ChunkId::new(0), ChunkPayload::Missing);
        s.start_processing(QueryId(1), ChunkId::new(0));
        assert!(
            !s.is_evictable(ChunkId::new(0)),
            "pinned chunk is not evictable"
        );
        assert_eq!(s.num_interested(ChunkId::new(0)), 2);
        s.finish_processing(QueryId(1), ChunkId::new(0));
        assert_eq!(
            s.num_interested(ChunkId::new(0)),
            1,
            "q1 no longer needs it"
        );
        assert!(s.is_evictable(ChunkId::new(0)));
        assert!(s.query(QueryId(1)).processing.is_none());
        // q2 can still use the chunk.
        assert!(s.is_resident_for(QueryId(2), ChunkId::new(0)));
        s.start_processing(QueryId(2), ChunkId::new(0));
        s.finish_processing(QueryId(2), ChunkId::new(0));
        assert_eq!(s.num_interested(ChunkId::new(0)), 0);
        // Evict and check accounting.
        let freed = s.evict(ChunkId::new(0));
        assert_eq!(freed, 16);
        assert_eq!(s.used_pages(), 0);
    }

    #[test]
    fn starvation_thresholds() {
        let mut s = nsm_state(20, 8);
        register(&mut s, 1, 0, 10);
        let cols = s.model().all_columns();
        assert!(s.is_starved(QueryId(1)));
        for c in 0..3u32 {
            s.begin_load(ChunkId::new(c), cols);
            s.complete_load_of(ChunkId::new(c), ChunkPayload::Missing);
        }
        assert_eq!(s.available_chunks(QueryId(1)), 3);
        assert!(!s.is_starved(QueryId(1)));
        assert!(!s.is_almost_starved(QueryId(1)));
        // Process one chunk; two remain available -> almost starved but not starved.
        s.start_processing(QueryId(1), ChunkId::new(0));
        s.finish_processing(QueryId(1), ChunkId::new(0));
        assert_eq!(s.available_chunks(QueryId(1)), 2);
        assert!(!s.is_starved(QueryId(1)));
        assert!(s.is_almost_starved(QueryId(1)));
    }

    #[test]
    fn dsm_partial_residency() {
        let model = TableModel::dsm_uniform(10, 1000, &[2, 4, 8]);
        let mut s = AbmState::new(model, 1000);
        let c01 = ColSet::from_columns([
            cscan_storage::ColumnId::new(0),
            cscan_storage::ColumnId::new(1),
        ]);
        let c12 = ColSet::from_columns([
            cscan_storage::ColumnId::new(1),
            cscan_storage::ColumnId::new(2),
        ]);
        s.register_query(
            QueryId(1),
            "a",
            ScanRanges::single(0, 5),
            c01,
            SimTime::ZERO,
        );
        s.register_query(
            QueryId(2),
            "b",
            ScanRanges::single(0, 5),
            c12,
            SimTime::ZERO,
        );
        // Load chunk 0 with q1's columns.
        assert_eq!(s.pages_to_load(ChunkId::new(0), c01), 6);
        s.begin_load(ChunkId::new(0), c01);
        assert_eq!(
            s.complete_load_of(ChunkId::new(0), ChunkPayload::Missing),
            6
        );
        assert!(s.is_resident_for(QueryId(1), ChunkId::new(0)));
        assert!(
            !s.is_resident_for(QueryId(2), ChunkId::new(0)),
            "column 2 still missing"
        );
        // Loading for q2 only reads the missing column (8 pages).
        assert_eq!(s.pages_to_load(ChunkId::new(0), c12), 8);
        s.begin_load(ChunkId::new(0), c12);
        assert_eq!(
            s.complete_load_of(ChunkId::new(0), ChunkPayload::Missing),
            8
        );
        assert!(s.is_resident_for(QueryId(2), ChunkId::new(0)));
        assert_eq!(s.used_pages(), 14);
        // Once q1 is done with chunk 0, column 0 is dead weight — kept until
        // somebody asks for its pages.
        s.start_processing(QueryId(1), ChunkId::new(0));
        s.finish_processing(QueryId(1), ChunkId::new(0));
        assert_eq!(s.used_pages(), 14, "a release reclaims nothing");
        assert_eq!(
            s.dead_columns(ChunkId::new(0)),
            ColSet::from_columns([cscan_storage::ColumnId::new(0)]),
            "column 0 is needed by nobody anymore"
        );
        assert_eq!(s.reclaim_dead_columns(), Some(ChunkId::new(0)));
        assert_eq!(s.used_pages(), 12);
        assert_eq!(s.reclaim_dead_columns(), None);
        assert!(
            s.is_resident_for(QueryId(2), ChunkId::new(0)),
            "q2's columns survive"
        );
    }

    #[test]
    fn remove_query_releases_interest() {
        let mut s = nsm_state(10, 4);
        register(&mut s, 1, 0, 10);
        assert_eq!(s.num_interested(ChunkId::new(4)), 1);
        let st = s.remove_query(QueryId(1));
        assert_eq!(st.total_chunks(), 10);
        assert_eq!(s.num_interested(ChunkId::new(4)), 0);
        assert_eq!(s.num_queries(), 0);
    }

    #[test]
    #[should_panic(expected = "must read at least one column")]
    fn empty_column_set_rejected() {
        let mut s = nsm_state(10, 4);
        s.register_query(
            QueryId(1),
            "empty",
            ScanRanges::single(0, 5),
            ColSet::empty(),
            SimTime::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut s = nsm_state(10, 4);
        register(&mut s, 1, 0, 5);
        register(&mut s, 1, 0, 5);
    }

    #[test]
    #[should_panic(expected = "evicting pinned chunk")]
    fn evicting_pinned_chunk_panics() {
        let mut s = nsm_state(10, 4);
        register(&mut s, 1, 0, 5);
        let cols = s.model().all_columns();
        s.begin_load(ChunkId::new(0), cols);
        s.complete_load_of(ChunkId::new(0), ChunkPayload::Missing);
        s.start_processing(QueryId(1), ChunkId::new(0));
        s.evict(ChunkId::new(0));
    }

    #[test]
    fn blocking_bookkeeping() {
        let mut s = nsm_state(10, 4);
        register(&mut s, 1, 0, 5);
        s.block_query(QueryId(1), SimTime::from_secs(1));
        assert!(s.query(QueryId(1)).is_blocked());
        s.unblock_query(QueryId(1), SimTime::from_secs(3));
        assert!(!s.query(QueryId(1)).is_blocked());
        assert_eq!(
            s.query(QueryId(1)).total_blocked,
            cscan_simdisk::SimDuration::from_secs(2)
        );
        s.count_triggered_io(QueryId(1));
        assert_eq!(s.query(QueryId(1)).ios_triggered, 1);
    }

    #[test]
    fn counters_match_brute_force_through_a_lifecycle() {
        let mut s = nsm_state(30, 6);
        let cols = s.model().all_columns();
        register(&mut s, 1, 0, 20);
        register(&mut s, 2, 10, 30);
        register(&mut s, 3, 5, 8);
        for c in [0u32, 5, 6, 10, 11, 12] {
            s.begin_load(ChunkId::new(c), cols);
            s.complete_load_of(ChunkId::new(c), ChunkPayload::Missing);
            s.validate_counters();
        }
        s.start_processing(QueryId(3), ChunkId::new(5));
        s.finish_processing(QueryId(3), ChunkId::new(5));
        s.validate_counters();
        s.evict(ChunkId::new(6));
        s.validate_counters();
        s.remove_query(QueryId(2));
        s.validate_counters();
        // Cached lookups agree with the reference implementations.
        for q in [QueryId(1), QueryId(3)] {
            assert_eq!(s.available_chunks(q), s.available_chunks_brute(q));
            assert_eq!(s.is_starved(q), s.is_starved_brute(q));
            assert_eq!(s.is_almost_starved(q), s.is_almost_starved_brute(q));
        }
        for c in 0..30 {
            let chunk = ChunkId::new(c);
            assert_eq!(s.num_interested(chunk), s.num_interested_brute(chunk));
            assert_eq!(
                s.num_interested_starved(chunk),
                s.num_interested_starved_brute(chunk)
            );
            assert_eq!(
                s.num_interested_almost_starved(chunk),
                s.num_interested_almost_starved_brute(chunk)
            );
        }
    }

    #[test]
    fn tickets_and_epoch_drive_commit_validation() {
        let mut s = nsm_state(10, 4);
        register(&mut s, 1, 0, 5);
        let cols = s.model().all_columns();
        let ticket = s.begin_load(ChunkId::new(0), cols);
        assert_eq!(s.inflight_ticket(ChunkId::new(0)), Some(ticket));
        assert_eq!(s.inflight_ticket(ChunkId::new(1)), None);
        // Nothing changed: the commit is valid.
        assert_eq!(s.check_commit(ChunkId::new(0), ticket), CommitCheck::Valid);
        // A registration leaves the chunk interesting.
        register(&mut s, 2, 0, 5);
        assert_eq!(s.check_commit(ChunkId::new(0), ticket), CommitCheck::Valid);
        // Every interested query detaches mid-read: the load must be aborted.
        s.remove_query(QueryId(1));
        s.remove_query(QueryId(2));
        assert_eq!(
            s.check_commit(ChunkId::new(0), ticket),
            CommitCheck::Uninteresting
        );
        s.abort_load(ChunkId::new(0));
        assert_eq!(s.loads_aborted(), 1);
        assert_eq!(s.reserved_pages(), 0);
        // The stale completion now reads as cancelled...
        assert_eq!(
            s.check_commit(ChunkId::new(0), ticket),
            CommitCheck::Cancelled
        );
        // ...even if a newer load of the same chunk is issued meanwhile.
        register(&mut s, 3, 0, 5);
        let newer = s.begin_load(ChunkId::new(0), cols);
        assert_ne!(newer, ticket);
        assert_eq!(
            s.check_commit(ChunkId::new(0), ticket),
            CommitCheck::Cancelled
        );
        assert_eq!(s.check_commit(ChunkId::new(0), newer), CommitCheck::Valid);
    }
}
