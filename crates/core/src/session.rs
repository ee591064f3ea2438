//! The query-facing scan API: [`ScanSession`] and [`PinnedChunk`].
//!
//! A CScan is a *session* against the Active Buffer Manager: the query
//! attaches (announcing its ranges and columns up-front), repeatedly asks
//! for the next chunk — which arrives in whatever order the ABM finds
//! convenient — and detaches when done.  This module defines that contract
//! once, so the execution layer (the `cscan_exec` operator tree) can
//! consume either front-end through the same trait:
//!
//! * the threaded executor ([`crate::threaded::ScanServer`]) — blocking
//!   sessions over real OS threads, delivering *real pinned payloads*
//!   materialized by a [`cscan_storage::ChunkStore`];
//! * the deterministic shim ([`SimScanServer`]) — a synchronous,
//!   metadata-only implementation over the same [`Abm`] scheduling code,
//!   for tests and experiments that need reproducible delivery orders
//!   without threads.
//!
//! # Pin lifecycle
//!
//! A [`PinnedChunk`] is the unit of delivery.  While it is alive the chunk
//! is pinned — in the ABM (the chunk is `pinned_by` the query, so no
//! eviction plan may choose it) and, in the threaded executor, in the
//! chunk's [`cscan_bufman::ShardedPool`] slot (a pin count), so the payload
//! a query is reading can never be reclaimed under it.  Dropping the pin
//! releases both and tells the scheduler the chunk was consumed.
//!
//! A payload may arrive *compressed* (encoded PDICT/PFOR/PFOR-DELTA
//! mini-columns): the delivering front-end decodes it once, on first pin,
//! after releasing its internal lock — so by the time a consumer holds a
//! [`PinnedChunk`], its [`PinnedChunk::column`] views are plain decoded
//! slices shared with the buffer frame.
//!
//! Prefer [`PinnedChunk::complete`] over letting the pin fall out of scope:
//! a plain drop still releases everything (so early returns and `?` are
//! safe), but it is counted as an *unconsumed drop* by the owning server —
//! tests assert the counter stays zero, which catches pipelines that
//! silently discard delivered data.

use crate::abm::{Abm, LoadPlan};
use crate::cscan::CScanPlan;
use crate::iosched::{FailureAction, RetryPolicy};
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::AbmState;
use crate::TableModel;
use cscan_obs::{Counter, EventKind, QueryCounter, QueryScope, Registry, SpanKind};
use cscan_simdisk::{SimDuration, SimTime};
use cscan_storage::chunkdata::ColumnData;
use cscan_storage::{ChunkId, ChunkPayload, ColumnId, FaultConfig, FaultOutcome, StoreError};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Why a scan cannot continue: a chunk the query needs failed for good.
///
/// Delivered when a chunk's load exhausted its retry budget or failed
/// permanently — the chunk is quarantined, the query's registration is
/// closed, and every further [`ScanSession::next_chunk`] call reports this
/// error.  Queries not interested in the failed chunk are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ScanError {
    /// The chunk that could not be delivered.
    pub chunk: ChunkId,
    /// The final storage error (after retries, if it was retryable).
    pub cause: StoreError,
}

impl ScanError {
    /// Stable wire code for "a scan failed on a chunk" in the serving
    /// layer's binary protocol.  The chunk index and the cause's own
    /// [`StoreError::wire_code`] travel as the payload, so the error
    /// round-trips losslessly.
    pub const WIRE_CODE: u16 = 100;

    /// Builds a scan error.  The struct is `#[non_exhaustive]`, so
    /// downstream crates construct it here rather than with a literal.
    pub fn new(chunk: ChunkId, cause: StoreError) -> Self {
        Self { chunk, cause }
    }
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scan failed: {:?} is unreadable ({})",
            self.chunk, self.cause
        )
    }
}

impl std::error::Error for ScanError {}

/// The backend half of a [`PinnedChunk`]: how the pin is returned to the
/// owning server.  One releaser is created per session and shared by all
/// its pins (an `Arc` clone per delivery — no per-chunk allocation).
pub trait ChunkRelease: Send + Sync {
    /// Releases the pin `query` holds on `chunk`.  `consumed` is false when
    /// the pin was dropped without [`PinnedChunk::complete`].
    fn release(&self, query: QueryId, chunk: ChunkId, consumed: bool);
}

/// A chunk delivered to a query, pinned for the lifetime of this value.
///
/// Carries the chunk's payload (real column data, or
/// [`ChunkPayload::Missing`] for metadata-only front-ends) decoded
/// zero-copy: [`PinnedChunk::column`] returns views into the pinned frame,
/// shared — not copied — out of the buffer manager.
#[must_use = "dropping a PinnedChunk counts as consuming the chunk; call complete() when done"]
pub struct PinnedChunk {
    query: QueryId,
    chunk: ChunkId,
    payload: ChunkPayload,
    releaser: Option<Arc<dyn ChunkRelease>>,
    consumed: bool,
}

impl std::fmt::Debug for PinnedChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedChunk")
            .field("query", &self.query)
            .field("chunk", &self.chunk)
            .field("rows", &self.payload.rows())
            .finish()
    }
}

impl PinnedChunk {
    /// Creates a pin.  Front-ends construct these; queries only consume them.
    pub(crate) fn new(
        query: QueryId,
        chunk: ChunkId,
        payload: ChunkPayload,
        releaser: Arc<dyn ChunkRelease>,
    ) -> Self {
        Self {
            query,
            chunk,
            payload,
            releaser: Some(releaser),
            consumed: false,
        }
    }

    /// The delivered chunk's identity.
    pub fn chunk(&self) -> ChunkId {
        self.chunk
    }

    /// The query this chunk was delivered to.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The chunk's payload (metadata-only front-ends deliver
    /// [`ChunkPayload::Missing`]).
    pub fn payload(&self) -> &ChunkPayload {
        &self.payload
    }

    /// Zero-copy view of one column's values, if the payload carries it.
    pub fn column(&self, col: ColumnId) -> Option<&[i64]> {
        self.payload.column(col)
    }

    /// One column's values as a shared vector that outlives this pin: the
    /// consumer may [`PinnedChunk::complete`] first and read afterwards,
    /// holding heap bytes but no buffer frame.
    pub fn shared_column(&self, col: ColumnId) -> Option<ColumnData> {
        self.payload.shared_column(col)
    }

    /// Number of rows in the payload (0 for metadata-only delivery).
    pub fn rows(&self) -> usize {
        self.payload.rows()
    }

    /// Marks the chunk as fully consumed and releases the pin.
    pub fn complete(mut self) {
        self.consumed = true;
        // Drop runs next and performs the release.
    }
}

impl Drop for PinnedChunk {
    fn drop(&mut self) {
        if let Some(releaser) = self.releaser.take() {
            releaser.release(self.query, self.chunk, self.consumed);
        }
    }
}

/// A live CScan: attach → [`ScanSession::next_chunk`] until `None` →
/// [`ScanSession::detach`].
///
/// This is the *only* way queries talk to the ABM; both front-ends
/// implement it, and `cscan_exec`-style operator trees consume it.
/// Detaching mid-scan (or dropping the session) is always legal: the ABM
/// releases the query's interest, aborts loads that were in flight solely
/// on its behalf, and frees its frame pins as outstanding [`PinnedChunk`]s
/// drop.
pub trait ScanSession {
    /// Delivers the next chunk in ABM-chosen order, `Ok(None)` when the
    /// scan has delivered everything (or was detached), or `Err` when a
    /// chunk this query needs failed permanently (quarantined after retries
    /// or a non-retryable storage error).  After an error the session is
    /// closed: further calls keep returning the same error.  The threaded
    /// implementation blocks; the sim shim synchronously advances virtual
    /// time.
    fn next_chunk(&mut self) -> Result<Option<PinnedChunk>, ScanError>;

    /// Non-blocking variant of [`ScanSession::next_chunk`] for event-loop
    /// consumers (the serving layer multiplexes many sessions on one thread
    /// through this).  `Ok(Poll::Ready(..))` carries exactly what
    /// `next_chunk` would have returned; `Ok(Poll::Pending)` means nothing
    /// is deliverable *right now* — the scan is still live and the caller
    /// should poll again later.  Front-ends that can always answer
    /// synchronously (the sim shim drives virtual time inline) never return
    /// `Pending`; that is this default.
    fn try_next_chunk(&mut self) -> Result<std::task::Poll<Option<PinnedChunk>>, ScanError> {
        self.next_chunk().map(std::task::Poll::Ready)
    }

    /// Number of chunks the scan still needs (0 once finished or detached).
    fn remaining_chunks(&self) -> u32;

    /// Deregisters the scan from the ABM.  Idempotent; also runs on drop.
    fn detach(&mut self);
}

// ----------------------------------------------------------------------
// The deterministic, metadata-only front-end.
// ----------------------------------------------------------------------

/// Fault-injection state of a [`SimScanServer`], present only when enabled
/// via [`SimScanServer::with_fault_injection`].
struct SimFaultState {
    config: FaultConfig,
    retry: RetryPolicy,
    /// Per-chunk read-attempt counters: retries reroll the fault dice.
    attempts: HashMap<ChunkId, u64>,
    /// Chunks that failed for good; the planner never selects them again
    /// because every interested query is closed when they enter.
    quarantined: HashSet<ChunkId>,
    /// Pending per-query errors, delivered on the next `next_chunk` call.
    errors: HashMap<QueryId, ScanError>,
}

/// Shared state of a [`SimScanServer`]: the ABM plus a virtual clock.
struct SimHub {
    abm: Abm,
    now: SimTime,
    io_cost_per_page: SimDuration,
    /// The observability registry; flight events are stamped with *virtual*
    /// nanoseconds so seeded chaos runs dump byte-identical recordings.
    obs: Arc<Registry>,
    faults: Option<SimFaultState>,
}

impl SimHub {
    /// The current virtual time, as flight-recorder nanoseconds.
    fn now_ns(&self) -> u64 {
        self.now.as_micros().saturating_mul(1_000)
    }

    /// Removes and returns the pending error for `q`, if any.
    fn take_error(&mut self, q: QueryId) -> Option<ScanError> {
        self.faults.as_mut()?.errors.remove(&q)
    }

    /// Executes one planned load against the (possibly faulty) virtual
    /// disk: advances the clock by the read cost per attempt, retries
    /// transient faults with virtual-time backoff, and quarantines the
    /// chunk — failing every interested query — once the retry budget is
    /// spent or the fault is permanent.
    fn drive_load(&mut self, plan: LoadPlan) {
        let cost = self.io_cost_per_page.mul_f64(plan.pages as f64);
        let cost_ns = cost.as_micros().saturating_mul(1_000);
        let (chunk, ticket, epoch) = (plan.decision.chunk, plan.ticket, plan.epoch);
        let chunk_idx = chunk.index();
        self.obs.event_at(
            self.now_ns(),
            EventKind::LoadPlanned,
            chunk_idx,
            cscan_obs::NO_QUERY,
            plan.pages,
        );
        let Some(faults) = self.faults.as_ref() else {
            self.now += cost;
            self.obs
                .record_span_ns(SpanKind::Materialize, cost_ns.max(1));
            let _ = self.abm.commit_load(chunk, ticket, epoch);
            self.obs.inc(Counter::LoadsCompleted);
            self.obs.event_at(
                self.now_ns(),
                EventKind::LoadCommitted,
                chunk_idx,
                cscan_obs::NO_QUERY,
                0,
            );
            return;
        };
        let config = faults.config.clone();
        let retry = faults.retry;
        let mut failed_attempts = 0u32;
        let fatal = loop {
            self.now += cost;
            self.obs
                .record_span_ns(SpanKind::Materialize, cost_ns.max(1));
            let faults = self.faults.as_mut().expect("fault state checked above");
            let counter = faults.attempts.entry(chunk).or_insert(0);
            let attempt = *counter;
            *counter += 1;
            match config.outcome(chunk, attempt) {
                // The sim is metadata-only — there are no payload bytes to
                // flip — so a Corrupt outcome reads clean here.  (The
                // threaded front-end is where corruption breaks checksums.)
                FaultOutcome::Success | FaultOutcome::Corrupt => {
                    let _ = self.abm.commit_load(chunk, ticket, epoch);
                    self.obs.inc(Counter::LoadsCompleted);
                    self.obs.event_at(
                        self.now_ns(),
                        EventKind::LoadCommitted,
                        chunk_idx,
                        cscan_obs::NO_QUERY,
                        failed_attempts as u64,
                    );
                    return;
                }
                FaultOutcome::Fail(error) => {
                    failed_attempts += 1;
                    self.obs.inc(Counter::LoadFaults);
                    self.obs.event_at(
                        self.now_ns(),
                        EventKind::LoadFault,
                        chunk_idx,
                        cscan_obs::NO_QUERY,
                        failed_attempts as u64,
                    );
                    match retry.on_failure(error, failed_attempts) {
                        FailureAction::Retry { delay } => {
                            let backoff = SimDuration::from_micros(delay.as_micros() as u64);
                            self.obs.inc(Counter::LoadRetries);
                            self.obs.record_span_ns(
                                SpanKind::Backoff,
                                backoff.as_micros().saturating_mul(1_000).max(1),
                            );
                            self.now += backoff;
                            self.obs.event_at(
                                self.now_ns(),
                                EventKind::LoadRetry,
                                chunk_idx,
                                cscan_obs::NO_QUERY,
                                failed_attempts as u64,
                            );
                        }
                        FailureAction::Quarantine => break error,
                    }
                }
            }
        };
        // Out of retries (or the fault was permanent): abort the load so
        // its reservation is released, quarantine the chunk, and close
        // every query that still needs it with a pending error.  Removing
        // their interest is what stops the planner from selecting the
        // chunk again — unaffected queries keep running normally.
        self.abm.fail_load(chunk, ticket);
        let victims: Vec<QueryId> = self.abm.state().interested_queries(chunk).collect();
        let faults = self.faults.as_mut().expect("fault state checked above");
        faults.quarantined.insert(chunk);
        self.obs.inc(Counter::ChunksQuarantined);
        for q in &victims {
            faults.errors.insert(
                *q,
                ScanError {
                    chunk,
                    cause: fatal,
                },
            );
            self.obs.inc(Counter::QueriesErred);
        }
        let now_ns = self.now_ns();
        self.obs.event_at(
            now_ns,
            EventKind::ChunkQuarantined,
            chunk_idx,
            cscan_obs::NO_QUERY,
            victims.len() as u64,
        );
        for q in &victims {
            self.obs
                .event_at(now_ns, EventKind::QueryErred, chunk_idx, q.0, 0);
        }
        for q in victims {
            self.abm.finish_query(q);
        }
        // The dump is stamped in virtual nanoseconds, so a seeded chaos run
        // produces the same recording on every execution.
        self.obs.dump_flight("chunk quarantined");
    }
}

/// The deterministic session front-end: the same ABM scheduling code as the
/// threaded executor, driven synchronously in virtual time with
/// metadata-only delivery ([`ChunkPayload::Missing`]).
///
/// [`SimScanSession::next_chunk`] performs any "disk reads" inline (one
/// [`Abm::plan_load`] / commit step at a time, exactly the paper's
/// sequential main loop), so two runs with the same attach/consume
/// interleaving produce byte-identical delivery orders — the property the
/// exec-layer tests use to pin down out-of-order delivery.
pub struct SimScanServer {
    hub: Arc<Mutex<SimHub>>,
}

impl SimScanServer {
    /// Creates a server for `model` under `policy` with a buffer pool of
    /// `buffer_pages` pages (clamped to at least one average chunk).
    pub fn new(model: TableModel, policy: PolicyKind, buffer_pages: u64) -> Self {
        let capacity = buffer_pages
            .max(model.avg_chunk_pages().ceil() as u64)
            .max(1);
        let state = AbmState::new(model, capacity);
        let abm = Abm::new(state, policy.build());
        Self {
            hub: Arc::new(Mutex::new(SimHub {
                abm,
                now: SimTime::ZERO,
                io_cost_per_page: SimDuration::from_micros(50),
                obs: Arc::new(Registry::new()),
                faults: None,
            })),
        }
    }

    /// Replaces the server's observability registry — e.g. a shared one so
    /// several servers aggregate into a single snapshot, or
    /// [`Registry::disabled`] to measure the no-observability baseline.
    pub fn with_observability(self, obs: Arc<Registry>) -> Self {
        self.hub.lock().obs = obs;
        self
    }

    /// The observability registry: counters, spans, per-query scopes and
    /// the flight recorder, all stamped in virtual time.
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.hub.lock().obs)
    }

    /// Enables deterministic fault injection on the virtual disk: every
    /// chunk read rolls `config`'s seeded dice, transient failures are
    /// retried per `retry` (backoff advances virtual time), and exhausted
    /// chunks are quarantined, erring the queries that need them.
    pub fn with_fault_injection(self, config: FaultConfig, retry: RetryPolicy) -> Self {
        self.hub.lock().faults = Some(SimFaultState {
            config,
            retry,
            attempts: HashMap::new(),
            quarantined: HashSet::new(),
            errors: HashMap::new(),
        });
        self
    }

    /// Injected read failures that were retried.
    pub fn load_retries(&self) -> u64 {
        self.hub.lock().obs.counter(Counter::LoadRetries)
    }

    /// Injected read failures observed (retried or fatal).
    pub fn load_faults(&self) -> u64 {
        self.hub.lock().obs.counter(Counter::LoadFaults)
    }

    /// Chunks quarantined after exhausting their retry budget.
    pub fn chunks_quarantined(&self) -> u64 {
        self.hub.lock().obs.counter(Counter::ChunksQuarantined)
    }

    /// Queries closed with a [`ScanError`] because a needed chunk was
    /// quarantined.
    pub fn queries_erred(&self) -> u64 {
        self.hub.lock().obs.counter(Counter::QueriesErred)
    }

    /// Attaches a scan, returning its session.
    pub fn attach(&self, plan: CScanPlan) -> SimScanSession {
        let mut hub = self.hub.lock();
        let (ranges, columns) = plan.resolve(hub.abm.state().model());
        let now = hub.now;
        let label = plan.label.clone();
        let query = hub.abm.register_query(plan.label, ranges, columns, now);
        let scope = hub.obs.attach_query(label, "sim");
        hub.obs.event_at(
            hub.now_ns(),
            EventKind::QueryAttached,
            cscan_obs::NO_CHUNK,
            query.0,
            0,
        );
        SimScanSession {
            hub: Arc::clone(&self.hub),
            releaser: Arc::new(SimRelease {
                hub: Arc::clone(&self.hub),
            }),
            query,
            scope,
            attached_at: now,
            limit: plan.limit_chunks,
            delivered: 0,
            detached: false,
            error: None,
        }
    }

    /// Chunk loads completed so far.
    pub fn io_requests(&self) -> u64 {
        self.hub.lock().abm.state().io_requests()
    }

    /// Loads aborted because their last interested session detached.
    pub fn loads_aborted(&self) -> u64 {
        self.hub.lock().abm.state().loads_aborted()
    }

    /// Pins that were dropped without [`PinnedChunk::complete`].
    pub fn unconsumed_drops(&self) -> u64 {
        self.hub.lock().obs.counter(Counter::UnconsumedDrops)
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.hub.lock().now
    }
}

/// Releaser for sim-delivered pins.
struct SimRelease {
    hub: Arc<Mutex<SimHub>>,
}

impl ChunkRelease for SimRelease {
    fn release(&self, query: QueryId, chunk: ChunkId, consumed: bool) {
        let mut hub = self.hub.lock();
        if !consumed {
            hub.obs.inc(Counter::UnconsumedDrops);
        }
        hub.abm.release_delivered(query, chunk);
    }
}

/// One attached scan of a [`SimScanServer`].
#[must_use = "an attached session holds ABM interest until detached or dropped"]
pub struct SimScanSession {
    hub: Arc<Mutex<SimHub>>,
    releaser: Arc<SimRelease>,
    query: QueryId,
    /// The session's per-query metric scope (chunks delivered, pin waits,
    /// time to first chunk — all in virtual time).
    scope: Arc<QueryScope>,
    /// Virtual attach time, the zero point for time-to-first-chunk.
    attached_at: SimTime,
    limit: Option<u32>,
    delivered: u32,
    detached: bool,
    error: Option<ScanError>,
}

impl SimScanSession {
    /// The ABM-assigned query id.
    pub fn query_id(&self) -> QueryId {
        self.query
    }
}

impl ScanSession for SimScanSession {
    fn next_chunk(&mut self) -> Result<Option<PinnedChunk>, ScanError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if self.detached {
            return Ok(None);
        }
        if self.limit.is_some_and(|l| self.delivered >= l) {
            // LIMIT-style early termination: detach mid-scan, aborting any
            // load this query was the last interested consumer of.
            self.detach();
            return Ok(None);
        }
        let mut finished = false;
        let outcome = {
            let mut hub = self.hub.lock();
            let wait_started = hub.now;
            loop {
                // The error check must come first: a quarantined chunk has
                // already *closed* this query's ABM registration, so the
                // finished/acquire calls below would panic on it.
                if let Some(error) = hub.take_error(self.query) {
                    break Err(error);
                }
                if hub.abm.is_query_finished(self.query) {
                    finished = true;
                    break Ok(None);
                }
                let now = hub.now;
                if let Some(chunk) = hub.abm.acquire_chunk(self.query, now) {
                    self.delivered += 1;
                    // Virtual time spent driving loads before this delivery
                    // is the sim's pin wait; the threaded front-end records
                    // the analogous wall-clock blocking time.
                    let waited_ns = (now - wait_started).as_micros().saturating_mul(1_000);
                    if waited_ns > 0 {
                        self.scope.record_pin_wait(waited_ns);
                        hub.obs.record_span_ns(SpanKind::PinWait, waited_ns);
                    }
                    let ttfc = (now - self.attached_at).as_micros().saturating_mul(1_000);
                    self.scope.record_first_chunk(ttfc);
                    self.scope.add(QueryCounter::ChunksDelivered, 1);
                    break Ok(Some(PinnedChunk::new(
                        self.query,
                        chunk,
                        ChunkPayload::Missing,
                        Arc::clone(&self.releaser) as Arc<dyn ChunkRelease>,
                    )));
                }
                // Drive the "disk" one sequential main-loop step: plan a
                // load, advance the virtual clock by its read time (plus
                // any injected retries/backoff), commit or quarantine.
                match hub.abm.plan_load(now) {
                    Some(plan) => hub.drive_load(plan),
                    None => {
                        // Nothing plannable while we still need data: the
                        // buffer is full of chunks other sessions hold or
                        // that no longer fit.  Force the least interesting
                        // one out and retry; a wedged pool is a caller bug
                        // (every pin outstanding), so fail loudly.
                        assert!(
                            hub.abm.force_evict_one().is_some(),
                            "SimScanSession {:?} is wedged: nothing to load and nothing evictable \
                             (all frames pinned by outstanding PinnedChunks?)",
                            self.query
                        );
                    }
                }
            }
        };
        match outcome {
            Ok(pinned) => {
                if finished {
                    self.detach();
                }
                Ok(pinned)
            }
            Err(error) => {
                // The hub already closed the query's registration when it
                // quarantined the chunk; just mark the session closed and
                // keep the error sticky for repeat calls.
                self.error = Some(error);
                self.detached = true;
                let hub = self.hub.lock();
                hub.obs.detach_query(&self.scope);
                hub.obs.event_at(
                    hub.now_ns(),
                    EventKind::QueryDetached,
                    cscan_obs::NO_CHUNK,
                    self.query.0,
                    0,
                );
                Err(error)
            }
        }
    }

    fn remaining_chunks(&self) -> u32 {
        if self.detached {
            return 0;
        }
        self.hub
            .lock()
            .abm
            .state()
            .try_query(self.query)
            .map(|q| q.chunks_needed())
            .unwrap_or(0)
    }

    fn detach(&mut self) {
        if self.detached {
            return;
        }
        self.detached = true;
        let mut hub = self.hub.lock();
        hub.abm.finish_query(self.query);
        hub.obs.detach_query(&self.scope);
        hub.obs.event_at(
            hub.now_ns(),
            EventKind::QueryDetached,
            cscan_obs::NO_CHUNK,
            self.query.0,
            0,
        );
    }
}

impl Drop for SimScanSession {
    fn drop(&mut self) {
        self.detach();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::ScanRanges;

    fn server(policy: PolicyKind, chunks: u32, buffer_chunks: u64) -> (SimScanServer, TableModel) {
        let model = TableModel::nsm_uniform(chunks, 1_000, 16);
        let server = SimScanServer::new(model.clone(), policy, buffer_chunks * 16);
        (server, model)
    }

    fn drain(session: &mut SimScanSession) -> Vec<ChunkId> {
        let mut order = Vec::new();
        while let Some(pin) = session.next_chunk().expect("fault-free scan") {
            order.push(pin.chunk());
            pin.complete();
        }
        order
    }

    #[test]
    fn single_session_delivers_everything_once() {
        for policy in PolicyKind::ALL {
            let (server, model) = server(policy, 12, 4);
            let mut s = server.attach(CScanPlan::new(
                "full",
                ScanRanges::full(12),
                model.all_columns(),
            ));
            assert_eq!(s.remaining_chunks(), 12);
            let order = drain(&mut s);
            let mut sorted: Vec<ChunkId> = order.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 12, "{policy}: every chunk exactly once");
            assert_eq!(s.remaining_chunks(), 0);
            assert!(
                s.next_chunk().expect("fault-free scan").is_none(),
                "{policy}: sessions stay drained"
            );
            assert_eq!(server.unconsumed_drops(), 0);
        }
    }

    #[test]
    fn delivery_is_deterministic() {
        let run = || {
            let (server, model) = server(PolicyKind::Relevance, 16, 4);
            let mut a = server.attach(CScanPlan::new(
                "a",
                ScanRanges::full(16),
                model.all_columns(),
            ));
            // Interleave a second session mid-way through the first.
            let mut order = Vec::new();
            for _ in 0..6 {
                let pin = a.next_chunk().unwrap().unwrap();
                order.push(("a", pin.chunk()));
                pin.complete();
            }
            let mut b = server.attach(CScanPlan::new(
                "b",
                ScanRanges::full(16),
                model.all_columns(),
            ));
            while let Some(pin) = b.next_chunk().unwrap() {
                order.push(("b", pin.chunk()));
                pin.complete();
            }
            order.extend(drain(&mut a).into_iter().map(|c| ("a", c)));
            order
        };
        assert_eq!(run(), run(), "same interleaving, same delivery order");
    }

    #[test]
    fn second_session_joins_out_of_scan_order() {
        // After the first session has consumed half the table through a
        // small buffer, a newly attached overlapping scan is served from
        // the shared position first — its delivery starts past chunk 0.
        let (server, model) = server(PolicyKind::Attach, 16, 4);
        let mut a = server.attach(CScanPlan::new(
            "a",
            ScanRanges::full(16),
            model.all_columns(),
        ));
        for _ in 0..8 {
            a.next_chunk().unwrap().unwrap().complete();
        }
        let mut b = server.attach(CScanPlan::new(
            "b",
            ScanRanges::full(16),
            model.all_columns(),
        ));
        let order = drain(&mut b);
        assert_eq!(order.len(), 16);
        let mut sorted = order.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "b still sees every chunk exactly once");
        let mut in_order = order.clone();
        in_order.sort();
        assert_ne!(order, in_order, "attach must deliver out of scan order");
        drain(&mut a);
    }

    #[test]
    fn chunk_limit_detaches_mid_scan() {
        let (server, model) = server(PolicyKind::Relevance, 10, 4);
        let mut s = server.attach(
            CScanPlan::new("limited", ScanRanges::full(10), model.all_columns())
                .with_chunk_limit(3),
        );
        let order = drain(&mut s);
        assert_eq!(order.len(), 3, "the limit stops the scan early");
        assert_eq!(s.remaining_chunks(), 0);
        // The server is reusable afterwards.
        let mut s2 = server.attach(CScanPlan::new(
            "after",
            ScanRanges::single(0, 4),
            model.all_columns(),
        ));
        assert_eq!(drain(&mut s2).len(), 4);
    }

    #[test]
    fn unconsumed_drops_are_traced() {
        let (server, model) = server(PolicyKind::Relevance, 4, 4);
        let mut s = server.attach(CScanPlan::new(
            "sloppy",
            ScanRanges::full(4),
            model.all_columns(),
        ));
        let pin = s.next_chunk().unwrap().unwrap();
        drop(pin); // silently dropped, not completed
        assert_eq!(server.unconsumed_drops(), 1);
        let pin = s.next_chunk().unwrap().unwrap();
        pin.complete();
        assert_eq!(server.unconsumed_drops(), 1, "complete() is not counted");
        drain(&mut s);
    }

    #[test]
    fn detach_with_outstanding_pin_releases_cleanly() {
        let (server, model) = server(PolicyKind::Relevance, 6, 3);
        let mut s = server.attach(CScanPlan::new(
            "early",
            ScanRanges::full(6),
            model.all_columns(),
        ));
        let pin = s.next_chunk().unwrap().unwrap();
        s.detach();
        // The pin outlives the session's registration; dropping it must not
        // panic and must leave the chunk evictable.
        let chunk = pin.chunk();
        drop(pin);
        let hub = server.hub.lock();
        assert!(
            hub.abm.state().is_evictable(chunk),
            "the orphaned pin must be returned"
        );
        assert_eq!(hub.abm.state().num_queries(), 0);
    }

    #[test]
    fn empty_plan_yields_no_chunks() {
        let (server, model) = server(PolicyKind::Relevance, 4, 2);
        let mut s = server.attach(CScanPlan::new(
            "empty",
            ScanRanges::empty(),
            model.all_columns(),
        ));
        assert!(s.next_chunk().unwrap().is_none());
        assert_eq!(s.remaining_chunks(), 0);
    }

    #[test]
    fn transient_faults_are_retried_to_completion() {
        // A 20% transient fault rate with the default retry budget: every
        // chunk is still delivered, and the order is unchanged versus the
        // fault-free run (retries are invisible to scheduling decisions).
        let clean = {
            let (server, model) = server(PolicyKind::Relevance, 16, 4);
            let mut s = server.attach(CScanPlan::new(
                "clean",
                ScanRanges::full(16),
                model.all_columns(),
            ));
            drain(&mut s)
        };
        for policy in PolicyKind::ALL {
            let model = TableModel::nsm_uniform(16, 1_000, 16);
            let server = SimScanServer::new(model.clone(), policy, 4 * 16).with_fault_injection(
                FaultConfig::transient_only(0xD15C_FA11, 0.20),
                RetryPolicy::default(),
            );
            let mut s = server.attach(CScanPlan::new(
                "faulty",
                ScanRanges::full(16),
                model.all_columns(),
            ));
            let order = drain(&mut s);
            assert_eq!(order.len(), 16, "{policy}: every chunk still delivered");
            assert!(server.load_retries() > 0, "{policy}: faults were injected");
            assert_eq!(server.chunks_quarantined(), 0);
            assert_eq!(server.queries_erred(), 0);
            if policy == PolicyKind::Relevance {
                assert_eq!(order, clean, "retries must not change delivery order");
            }
        }
    }

    #[test]
    fn permanent_fault_errs_interested_query_only() {
        // Chunk 3 always fails permanently.  A query that needs it gets a
        // ScanError naming the chunk; a disjoint query finishes normally.
        let model = TableModel::nsm_uniform(12, 1_000, 16);
        let config = FaultConfig {
            permanent_chunks: vec![3],
            ..FaultConfig::default()
        };
        let server = SimScanServer::new(model.clone(), PolicyKind::Relevance, 4 * 16)
            .with_fault_injection(config, RetryPolicy::default());
        let mut doomed = server.attach(CScanPlan::new(
            "doomed",
            ScanRanges::single(0, 6),
            model.all_columns(),
        ));
        let mut healthy = server.attach(CScanPlan::new(
            "healthy",
            ScanRanges::single(6, 12),
            model.all_columns(),
        ));
        let error = loop {
            match doomed.next_chunk() {
                Ok(Some(pin)) => pin.complete(),
                Ok(None) => panic!("the doomed query must err, not finish"),
                Err(e) => break e,
            }
        };
        assert_eq!(error.chunk, ChunkId::new(3));
        assert_eq!(error.cause, StoreError::Permanent);
        assert_eq!(
            doomed.next_chunk().unwrap_err(),
            error,
            "the error is sticky on repeat calls"
        );
        assert_eq!(
            drain(&mut healthy).len(),
            6,
            "disjoint scans are unaffected"
        );
        assert_eq!(server.chunks_quarantined(), 1);
        assert_eq!(server.queries_erred(), 1);
        assert_eq!(server.unconsumed_drops(), 0);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let model = TableModel::nsm_uniform(24, 1_000, 16);
            let server = SimScanServer::new(model.clone(), PolicyKind::Elevator, 6 * 16)
                .with_fault_injection(
                    FaultConfig::transient_only(42, 0.30),
                    RetryPolicy::default(),
                );
            let mut s = server.attach(CScanPlan::new(
                "det",
                ScanRanges::full(24),
                model.all_columns(),
            ));
            let order = drain(&mut s);
            (order, server.load_retries(), server.now())
        };
        assert_eq!(run(), run(), "same seed, same retries, same virtual time");
    }

    #[test]
    fn quarantine_shared_chunk_errs_every_interested_query() {
        // Two overlapping scans both need chunk 2; when it is quarantined
        // both receive the error, and the buffer pool is left clean.
        let model = TableModel::nsm_uniform(8, 1_000, 16);
        let config = FaultConfig {
            permanent_chunks: vec![2],
            ..FaultConfig::default()
        };
        let server = SimScanServer::new(model.clone(), PolicyKind::Attach, 4 * 16)
            .with_fault_injection(config, RetryPolicy::no_retries());
        let mut a = server.attach(CScanPlan::new(
            "a",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        let mut b = server.attach(CScanPlan::new(
            "b",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        let mut errs = 0;
        for s in [&mut a, &mut b] {
            loop {
                match s.next_chunk() {
                    Ok(Some(pin)) => pin.complete(),
                    Ok(None) => break,
                    Err(e) => {
                        assert_eq!(e.chunk, ChunkId::new(2));
                        errs += 1;
                        break;
                    }
                }
            }
        }
        assert_eq!(errs, 2, "both interested queries observe the failure");
        assert_eq!(server.queries_erred(), 2);
        assert_eq!(server.chunks_quarantined(), 1);
        let hub = server.hub.lock();
        assert_eq!(hub.abm.state().num_queries(), 0, "no query state leaks");
    }

    #[test]
    fn quarantine_dump_is_deterministic_in_virtual_time() {
        // The flight recorder is stamped with virtual nanoseconds, so two
        // identically seeded chaos runs dump byte-identical recordings.
        let run = || {
            let model = TableModel::nsm_uniform(8, 1_000, 16);
            let config = FaultConfig {
                permanent_chunks: vec![2],
                ..FaultConfig::default()
            };
            let server = SimScanServer::new(model.clone(), PolicyKind::Relevance, 4 * 16)
                .with_fault_injection(config, RetryPolicy::no_retries());
            let mut s = server.attach(CScanPlan::new(
                "chaos",
                ScanRanges::full(8),
                model.all_columns(),
            ));
            while let Ok(Some(pin)) = s.next_chunk() {
                pin.complete();
            }
            server
                .metrics()
                .last_flight_dump()
                .expect("quarantine must dump the flight recorder")
        };
        let dump = run();
        assert_eq!(dump, run(), "same seed, same virtual time, same dump");
        assert!(dump.contains("chunk_quarantined"), "dump: {dump}");
        assert!(dump.contains("query_erred"), "dump: {dump}");
    }

    #[test]
    fn sim_metrics_cover_per_query_dimensions() {
        let (server, model) = server(PolicyKind::Relevance, 8, 4);
        let mut s = server.attach(CScanPlan::new(
            "observed",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        drain(&mut s);
        let snap = server.metrics().snapshot();
        assert!(snap.is_consistent(), "scope sums must match query totals");
        assert_eq!(snap.query_counter_sum("chunks_delivered"), 8);
        let q = snap
            .queries
            .iter()
            .find(|q| q.label == "observed")
            .expect("the scan's scope is in the snapshot");
        assert_eq!(q.table, "sim");
        assert!(q.detached, "drained sessions detach their scope");
        assert!(
            q.ttfc_ns.is_some(),
            "time to first chunk is recorded in virtual time"
        );
        assert_eq!(snap.counter("loads_completed"), server.io_requests());
        assert!(
            snap.span("materialize").count() >= 8,
            "every driven load records a materialize span"
        );
    }
}
