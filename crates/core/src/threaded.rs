//! Multi-threaded Cooperative Scans executor.
//!
//! This is the "live" front-end of the library: real OS threads, a real ABM
//! main loop (Figure 3) running on an I/O thread pool, and [`CScanHandle`]s
//! — the threaded implementation of [`ScanSession`] — that block exactly
//! like the paper's `waitForChunk`.  The disk seek/transfer time is
//! simulated by sleeping proportionally to the number of pages read
//! (configurable down to zero for tests).  Every scheduling decision —
//! grant, plan, commit, release, close, and what a failed read does
//! (retry, cancel, quarantine) — is made by the scheduler core
//! ([`crate::sched::Scheduler`]) the simulator drives too; this module
//! owns the threads, the lock and the mailboxes, applies the effects the
//! core returns, and keeps of the failure path only the read (under
//! `catch_unwind`) and the sleeps the core asks for.
//!
//! # The data plane
//!
//! With a [`ScanServerBuilder::store`] configured, each committed load's
//! payload (materialized by the [`ChunkStore`] on the I/O worker,
//! **outside** the scheduler lock) is installed into the chunk's buffer
//! record in the ABM ([`crate::abm::BufferedChunk`]), and every
//! [`PinnedChunk`] a query receives holds the record's processing pin and a
//! clone of its payload, so eviction can never reclaim a chunk a query is
//! still reading.  A [`ChunkPayload`] holds the chunk's resident columns;
//! [`PinnedChunk::column`] views them zero-copy, so the hot consume path
//! performs no per-chunk heap allocation and no data copies.  Without a
//! store the server delivers [`ChunkPayload::Missing`]: chunk ids alone.
//!
//! Payloads may arrive *compressed* (a [`cscan_storage::FileStore`] reads
//! a segment's PDICT / PFOR / PFOR-DELTA extents as encoded bytes on the
//! I/O worker): their checksums are verified once, when the load installs
//! them, and a column is decoded — once per residency — when a consumer
//! **first touches** it through [`PinnedChunk::column`], with no executor
//! lock held (the codec debug-asserts this).  Decode time is accounted as
//! pin-wait and surfaced separately (the `decode_nanos` and
//! `values_decoded` counters of [`ScanServer::metrics`]).
//!
//! # Concurrency architecture
//!
//! One **scheduler lock** guards the core; the consume path around it
//! touches only per-query leaf locks (`ARCHITECTURE.md` has the diagram):
//!
//! * **The scheduler lock** (one mutex around `Sched`) protects the core
//!   and the effects it still owes.  An I/O worker holds it to *plan* a
//!   load, to report a failed read and to *commit* the completed one; the
//!   read itself runs with the lock released, and the commit's ticket
//!   check drops a load whose last interested query detached mid-read.
//!   Hold times land in the `lock_hold` span of [`ScanServer::metrics`].
//!
//! * **Effects under the lock, wake-ups after it.**  The critical section
//!   that called the core deposits its grants (the chunk, already pinned,
//!   and its payload cloned) into the queries' `QuerySlot` mailboxes and
//!   closes the slots of closed queries before it unlocks, so a `finish`
//!   can never race a grant that is not yet deposited.  Each site that
//!   changes a mailbox moves the slot's wakers to the guard's list; the
//!   guard's drop then unlocks, wakes one idle I/O worker if a scheduling
//!   input changed while some query misses a chunk (`worker_wakeups`),
//!   fires those wakers, and offers the payloads let go of back to the
//!   store ([`ChunkStore::recycle`]).
//!
//! * **Consumers.**  [`CScanHandle::poll_next_chunk`] takes the grant under
//!   the slot's own mutex or, finding the mailbox empty, leaves its
//!   [`Waker`] in the slot (once, [`Waker::will_wake`]) and returns
//!   `Pending`; [`CScanHandle::next_chunk`] is that poll in a loop, waiting
//!   between polls on its thread's [`Doorbell`] (`waitForChunk`).  Dropping
//!   a [`PinnedChunk`] is Figure 3's `releaseChunk`: one scheduler critical
//!   section hands it to the core, which matches the query again or closes
//!   it at its last chunk or its limit.
//!
//! * **Idle workers.**  A worker whose plan comes back empty waits on a
//!   condvar bound to the scheduler mutex (`blockForNextQuery`), so its
//!   empty plan and its sleep are one critical section, and every change
//!   to a scheduling input is made under the same lock.  A change wakes a
//!   sleeper only while some query misses a chunk; a worker that plans
//!   wakes the next one before its read ("wake chaining").  A panic of the
//!   core on a worker stops the server: every scan, open or later, errs.
//!
//! * **No timers.**  No wait here ends by a timer, only by the thread that
//!   changed what it waits for.  The locks, condvars, spawns, sleeps and
//!   the clock go through the crate's `sync` module, under which this
//!   module's tests run scenarios on a seeded schedule controller
//!   (`ARCHITECTURE.md`, Invariants).
//!
//! * **Lock ordering.**  `scheduler → slot`, never the reverse.  Nothing
//!   is awaited under the scheduler lock but its own idle condvar, which
//!   releases it; no waker is called, no pin released and no payload
//!   decoded under it (debug builds refuse each), nor materialized.
//!
//! Each of the [`ScanServerBuilder::io_threads`] workers holds at most one
//! load outstanding, so `k` workers keep up to `k` chunk loads in flight —
//! the threaded analogue of the simulator's `max_outstanding_io`.  The
//! default of one worker reproduces the paper's sequential main loop.
//!
//! ```
//! use cscan_core::model::TableModel;
//! use cscan_core::policy::PolicyKind;
//! use cscan_core::threaded::ScanServer;
//! use cscan_core::{CScanPlan, ScanRanges};
//! use std::time::Duration;
//!
//! let model = TableModel::nsm_uniform(16, 10_000, 16);
//! let server = ScanServer::builder(model.clone())
//!     .policy(PolicyKind::Relevance)
//!     .buffer_chunks(4)
//!     .io_cost_per_page(Duration::ZERO)
//!     .build();
//! let handle = server.cscan(CScanPlan::new("example", ScanRanges::full(16), model.all_columns()));
//! let mut chunks = 0;
//! while let Some(guard) = handle.next_chunk().expect("no faults injected") {
//!     // ... process guard.chunk() here ...
//!     guard.complete();
//!     chunks += 1;
//! }
//! assert_eq!(chunks, 16);
//! handle.finish();
//! ```

use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::retry::RetryPolicy;
use crate::sched::{Effect, Scheduler};
use crate::session::{PinnedChunk, ScanError, ScanSession};
use crate::sync::{self, Condvar, JoinHandle, Mutex, MutexGuard};
use cscan_bufman::PoolStats;
use cscan_obs::{
    Counter, EventKind, Gauge, QueryCounter, QueryScope, Registry, SpanKind, NO_CHUNK, NO_QUERY,
};
use cscan_simdisk::SimTime;
use cscan_storage::codec::{self, DecodeForbidden};
use cscan_storage::{ChunkId, ChunkPayload, ChunkStore, ColumnChunk, ColumnId, StoreError};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// A query's grant mailbox: consumers wait here, the scheduler deposits
/// here.  Lives outside the scheduler lock, behind its own mutex — taking
/// a grant touches only that.
#[derive(Default)]
struct QuerySlot {
    /// The granted chunk and its payload, delivered but not yet taken: the
    /// scheduler core already ran the policy, pinned the chunk and cloned
    /// its payload.  At most one (a query processes one chunk at a time;
    /// [`crate::query::QueryState::start_processing`] enforces it).
    grant: Option<(ChunkId, ChunkPayload)>,
    /// The scan's failure, deposited by the close that ended it — the only
    /// record of it; read (not taken) so every consumer of a shared handle
    /// observes it.
    error: Option<ScanError>,
    /// Set when the query finished, reached its limit, detached, or erred;
    /// waiters return `Ok(None)` (or the error above).
    closed: bool,
    /// Who to wake when the mailbox next changes: every waker a poll that
    /// found it empty left here, each once ([`Waker::will_wake`]), moved
    /// out by whichever site changes it (deposit, close, shutdown).
    wakers: Vec<Waker>,
}

/// A thread's wake-up: a flag under a mutex plus a condvar.  The flag
/// makes a ring *state*: one delivered while its thread is busy is consumed
/// by the thread's next wait instead of being lost.  As a [`Waker`] it is
/// what a grant mailbox fires when it changes; [`CScanHandle::next_chunk`]
/// waits on one per thread, and each serving connection on its own.
#[derive(Default)]
pub struct Doorbell {
    rung: Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    /// Rings the bell.  Never on a thread that holds the scheduler lock
    /// (debug builds refuse it): the woken thread would preempt the holder
    /// and then queue behind it.
    pub fn ring(&self) {
        // Every scheduler guard forbids decoding on its thread until it
        // unlocks, so this is "the thread holds no scheduler guard".
        debug_assert!(
            !codec::decode_forbidden(),
            "a doorbell rang on a thread that holds the scheduler lock"
        );
        *self.rung.lock() = true;
        self.cv.notify_one();
    }

    /// Waits for a ring — one since the last wait counts — and consumes
    /// it; given a `deadline`, waits no longer.  This crate passes none:
    /// its waits end by a ring alone.
    pub fn wait(&self, deadline: Option<Instant>) {
        let mut rung = self.rung.lock();
        while !*rung {
            match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                None => self.cv.wait(&mut rung),
                Some(left) if left.is_zero() => break,
                Some(left) => _ = self.cv.wait_for(&mut rung, left),
            }
        }
        *rung = false;
    }
}

impl Wake for Doorbell {
    fn wake(self: Arc<Self>) {
        self.ring();
    }
}

thread_local! {
    /// This thread's doorbell and the waker that rings it, for
    /// [`CScanHandle::next_chunk`]: made once, so a wait allocates nothing.
    static BELL: (Arc<Doorbell>, Waker) = {
        let bell = Arc::new(Doorbell::default());
        (Arc::clone(&bell), Waker::from(bell))
    };
}

/// The error of every scan a core panic ended ([`Shared::core_panicked`]).
const CORE_PANICKED: ScanError = ScanError {
    chunk: ChunkId::new(NO_CHUNK),
    cause: StoreError::Permanent,
};

/// Everything the scheduler lock protects: the scheduler core and what its
/// decisions still owe the threads.
struct Sched {
    /// The decisions and every input to them: the ABM's state and its
    /// buffer, the policy, the quarantine map and each registered query's
    /// mailbox.
    core: Scheduler<Arc<Mutex<QuerySlot>>>,
    /// Reused list the core's effects are applied from ([`Sched::apply`]).
    effects: Vec<Effect<Arc<Mutex<QuerySlot>>>>,
    /// Grants a close found still in their mailbox, returned to the core
    /// once the effects at hand are applied.
    untaken: Vec<(QueryId, ChunkId)>,
    /// I/O workers asleep in [`SchedGuard::wait_idle`].
    idle_workers: usize,
    /// Whether this critical section owes a sleeping worker a wake-up,
    /// sent by [`SchedGuard`]'s drop after it unlocks, like the wakers.
    wake_pending: bool,
    /// Wakers moved out of mailboxes changed under this lock, fired by
    /// [`SchedGuard`]'s drop after it unlocks.
    wakers: Vec<Waker>,
    /// Whether a chunk was quarantined under this lock, so that
    /// [`SchedGuard`]'s drop dumps the flight recorder after it unlocks.
    quarantined: bool,
    /// Payloads let go of under this lock (evicted or shrunk chunks', an
    /// untaken grant's clone, a torn chunk's, a stale load's read), offered
    /// back to the store by [`SchedGuard`]'s drop after it unlocks.
    recycled: Vec<ChunkPayload>,
}

impl Sched {
    /// Wakes one idle I/O worker, if one sleeps: a scheduling input
    /// changed under this lock.  The notification itself is sent after the
    /// unlock: a worker woken while the lock is held preempts the holder on
    /// a busy core and then queues behind it.
    fn wake_worker(&mut self) {
        if self.idle_workers > 0 {
            self.wake_pending = true;
        }
    }

    /// Whether this critical section owes a thread a wake-up, or the flight
    /// recorder a quarantine — what only [`SchedGuard`]'s drop delivers.
    fn owes_wakeups(&self) -> bool {
        self.wake_pending || !self.wakers.is_empty() || self.quarantined
    }

    /// Applies the core's effects in the critical section that decided
    /// them.  Grants and closes go into the mailboxes now — lock order
    /// scheduler → slot — so a `finish` never races a grant that is not yet
    /// deposited; the slots' wakers, a worker wake-up and the payloads to
    /// recycle wait for [`SchedGuard`]'s drop.
    /// A grant a close finds untaken is returned to the core, which may
    /// decide more.
    fn apply(&mut self, shared: &Shared) {
        let mut effects = std::mem::take(&mut self.effects);
        loop {
            self.core.swap_effects(&mut effects);
            if effects.is_empty() {
                self.effects = effects;
                return;
            }
            for effect in effects.drain(..) {
                match effect {
                    Effect::Grant {
                        query,
                        chunk,
                        payload,
                        to: slot,
                    } => {
                        let mut st = slot.lock();
                        debug_assert!(st.grant.is_none(), "double grant for {query:?}");
                        st.grant = Some((chunk, payload));
                        self.wakers.append(&mut st.wakers);
                    }
                    Effect::Closed {
                        query,
                        to: slot,
                        error,
                        ..
                    } => {
                        if let Some(error) = error {
                            shared.obs.inc(Counter::QueriesErred);
                            shared.obs.event(
                                EventKind::QueryErred,
                                error.chunk.index(),
                                query.0,
                                0,
                            );
                        }
                        let mut st = slot.lock();
                        st.error = error;
                        st.closed = true;
                        self.wakers.append(&mut st.wakers);
                        let untaken = st.grant.take();
                        drop(st);
                        if let Some((chunk, payload)) = untaken {
                            self.untaken.push((query, chunk));
                            self.recycled.push(payload);
                        }
                    }
                    Effect::Quarantined { chunk, closed } => {
                        shared.obs.event(
                            EventKind::ChunkQuarantined,
                            chunk.index(),
                            NO_QUERY,
                            closed as u64,
                        );
                        self.quarantined = true;
                    }
                    Effect::Recycle(payload) => self.recycled.push(payload),
                    Effect::InputsChanged => self.wake_worker(),
                }
            }
            for (query, chunk) in self.untaken.drain(..) {
                self.core.release(query, chunk, shared.now());
            }
        }
    }
}

/// Shared state between the I/O workers, all CScan handles and every
/// outstanding [`PinnedChunk`].
pub(crate) struct Shared {
    /// The scheduler lock: plan, commit, policy, registry, quarantine and
    /// every release.  Never held across I/O, decode, or any wait but
    /// `idle`'s.
    sched: Mutex<Sched>,
    /// Where an I/O worker with nothing to plan sleeps, bound to `sched`:
    /// every scheduling input changes under that lock, and the critical
    /// section that changes one wakes a sleeper as it unlocks.
    idle: Condvar,
    /// Source of chunk payloads; `None` delivers metadata-only chunks.
    store: Option<Arc<dyn ChunkStore>>,
    shutdown: AtomicBool,
    started: Instant,
    io_cost_per_page_nanos: u64,
    /// The unified observability plane: every counter, histogram, span and
    /// flight event of this server lands here.  All recording paths are
    /// lock-free and allocation-free (see `cscan_obs`).
    obs: Arc<Registry>,
    /// Table label attached to per-query metric scopes.
    table_label: String,
    /// The policy's name, cached at build so the accessor needs no lock.
    policy_label: &'static str,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(sync::elapsed(self.started).as_micros() as u64)
    }

    /// Locks the scheduler, instrumenting how long the guard is held.
    fn lock_sched(&self) -> SchedGuard<'_> {
        SchedGuard::adopt(self.sched.lock(), self)
    }

    /// Records a contained panic of the data plane on chunk index `chunk`
    /// (`NO_CHUNK` for a payload offered back to the store): the counter,
    /// the flight event and an automatic dump of the run-up.
    fn worker_panicked(&self, chunk: u32, query: u64) {
        self.obs.inc(Counter::WorkerPanics);
        self.obs.event(EventKind::WorkerPanic, chunk, query, 0);
        self.obs.dump_flight("worker panic");
    }

    /// A panic of the scheduler core on an I/O worker: the server stops and
    /// every scan errs, rather than wait for loads no worker will make.
    fn core_panicked(&self) {
        self.worker_panicked(NO_CHUNK, NO_QUERY);
        let mut sched = self.lock_sched();
        self.shutdown.store(true, Ordering::Release);
        self.idle.notify_all();
        let open: Vec<QueryId> = sched.core.state().queries().map(|q| q.id).collect();
        for query in open {
            sched.core.close(query, Some(CORE_PANICKED));
        }
    }

    /// Decode at first touch — the slow half of [`PinnedChunk::column`],
    /// entered when the touched column of a pinned chunk is still encoded
    /// bytes.  Runs on the consumer's thread with no executor lock held
    /// (the codec debug-asserts that); the column's once-only cache makes
    /// it happen once per residency however many pins race here.
    ///
    /// The consumer stalled for the elapsed time either way — as the
    /// decoding winner, or blocked on another pin's in-flight decode of the
    /// same column (0 values for the loser) — so both are pin-wait; only
    /// the winner's work counts as decode output.
    ///
    /// The bytes passed their checksum at install, so a codec panic here
    /// means a malformed body, and reading it again would panic again: the
    /// panic is contained, nothing is retried, and the scan that touched
    /// the column ends with [`StoreError::Corrupted`].  Scans that do not
    /// touch it are unaffected.
    pub(crate) fn decode_column(
        &self,
        query: QueryId,
        chunk: ChunkId,
        scope: &QueryScope,
        part: &ColumnChunk,
    ) -> Result<(), ScanError> {
        let started = Instant::now();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| part.ensure_decoded()));
        let nanos = started.elapsed().as_nanos() as u64;
        scope.record_pin_wait(nanos);
        match outcome {
            Ok(0) => Ok(()),
            Ok(decoded) => {
                self.obs.record_span_ns(SpanKind::Decode, nanos);
                self.obs.add(Counter::DecodeNanos, nanos);
                self.obs.add(Counter::ValuesDecoded, decoded as u64);
                Ok(())
            }
            Err(_panic) => {
                self.worker_panicked(chunk.index(), query.0);
                let error = ScanError {
                    chunk,
                    cause: StoreError::Corrupted,
                };
                // The core closes the scan and parks the error in its slot,
                // where every consumer of the handle finds it; pins it
                // still holds stay valid.  A closed scan cannot err again.
                self.lock_sched().core.close(query, Some(error));
                Err(error)
            }
        }
    }

    /// Returns a pin to the server — Figure 3's `releaseChunk`, run by
    /// [`PinnedChunk`]'s `Drop`, applied by the core in one scheduler
    /// critical section, which also matches the query again and wakes an
    /// idle worker if some query misses a chunk.  A `try_lock` miss is
    /// counted as `hub_shard_conflicts` before the release blocks.
    pub(crate) fn release_pin(&self, query: QueryId, chunk: ChunkId, consumed: bool) {
        // Every scheduler guard forbids decoding on its thread for as long
        // as it lives, so this is "the thread holds no scheduler guard".
        debug_assert!(
            !codec::decode_forbidden(),
            "a pin of {chunk:?} was released on a thread that holds the \
             scheduler lock: the release would wait for that lock forever"
        );
        if !consumed {
            // The silent-drop footgun: dropping a pin still counts as
            // consumption (the scheduler must make progress), but it is
            // traced so tests can assert pipelines consume deliberately.
            self.obs.inc(Counter::UnconsumedDrops);
        }
        let mut sched = match self.sched.try_lock() {
            Some(guard) => SchedGuard::adopt(guard, self),
            None => {
                self.obs.inc(Counter::HubShardConflicts);
                self.lock_sched()
            }
        };
        sched.core.release(query, chunk, self.now());
    }
}

/// An instrumented scheduler guard: on drop it applies the core's
/// outstanding effects ([`Sched::apply`]), publishes the free-page gauge,
/// records the lock hold time into the `lock_hold` histogram, then unlocks,
/// then wakes the idle worker and fires the wakers the critical section
/// queued ([`Sched::wake_pending`], [`Sched::wakers`]) — in that order, so
/// no thread is ever woken while the scheduler lock is held — then dumps
/// the flight recorder if a chunk was quarantined ([`Sched::quarantined`]),
/// and last offers the payloads let go of back to the store.
///
/// The guard also carries a [`cscan_storage::codec::DecodeForbidden`]
/// token, for exactly as long as it holds the lock: any payload decode
/// attempted meanwhile on the current thread trips a debug assertion — the
/// runtime proof of the "never decode under the scheduler lock" invariant —
/// and so do a pin released and a [`Doorbell`] rung on that thread.  The
/// only wait under this guard is [`SchedGuard::wait_idle`], which releases
/// the lock while it sleeps.
struct SchedGuard<'a> {
    /// The lock and the token, `Some` until drop, which ends both before
    /// it wakes anyone.
    held: Option<(MutexGuard<'a, Sched>, DecodeForbidden)>,
    acquired: Instant,
    shared: &'a Shared,
}

impl SchedGuard<'_> {
    /// Wraps an acquired scheduler mutex guard (from `lock` or a
    /// successful `try_lock`) in the instrumentation.
    fn adopt<'a>(guard: MutexGuard<'a, Sched>, shared: &'a Shared) -> SchedGuard<'a> {
        SchedGuard {
            held: Some((guard, codec::forbid_decode())),
            acquired: Instant::now(),
            shared,
        }
    }

    /// `blockForNextQuery`: sleeps on [`Shared::idle`] until a worker
    /// wake-up, the lock released meanwhile.  The sleep is not hold time:
    /// the hold span ends before it and restarts after.
    fn wait_idle(&mut self) {
        let guard = &mut self.held.as_mut().expect("held until drop").0;
        guard.apply(self.shared);
        self.shared.obs.record_span_ns(
            SpanKind::LockHold,
            (self.acquired.elapsed().as_nanos() as u64).max(1),
        );
        debug_assert!(
            !guard.owes_wakeups(),
            "a wake-up queued before the sleep would wait for it"
        );
        guard.idle_workers += 1;
        self.shared.idle.wait(guard);
        guard.idle_workers -= 1;
        self.acquired = Instant::now();
    }
}

impl Deref for SchedGuard<'_> {
    type Target = Sched;
    fn deref(&self) -> &Sched {
        &self.held.as_ref().expect("held until drop").0
    }
}

impl DerefMut for SchedGuard<'_> {
    fn deref_mut(&mut self) -> &mut Sched {
        &mut self.held.as_mut().expect("held until drop").0
    }
}

impl Drop for SchedGuard<'_> {
    fn drop(&mut self) {
        let Some((mut guard, no_decode)) = self.held.take() else {
            return;
        };
        guard.apply(self.shared);
        let obs = &self.shared.obs;
        obs.gauge_set(Gauge::FreePages, guard.core.state().free_pages());
        obs.record_span_ns(
            SpanKind::LockHold,
            (self.acquired.elapsed().as_nanos() as u64).max(1),
        );
        // Taking an empty list neither allocates nor frees.
        let wakers = std::mem::take(&mut guard.wakers);
        let wake_worker = std::mem::take(&mut guard.wake_pending);
        let quarantined = std::mem::take(&mut guard.quarantined);
        let mut recycled = std::mem::take(&mut guard.recycled);
        drop((guard, no_decode));
        if wake_worker {
            self.shared.idle.notify_one();
            obs.inc(Counter::WorkerWakeups);
        }
        wakers.into_iter().for_each(Waker::wake);
        if quarantined {
            // Quarantine is the failure the flight recorder exists for: dump
            // the run-up so the evidence survives the ring's wraparound.
            obs.dump_flight("chunk quarantined");
        }
        recycle(self.shared, &mut recycled);
    }
}

/// Builder for a [`ScanServer`].
pub struct ScanServerBuilder {
    model: TableModel,
    policy: PolicyKind,
    buffer_pages: u64,
    io_cost_per_page: Duration,
    io_threads: usize,
    store: Option<Arc<dyn ChunkStore>>,
    retry: RetryPolicy,
    obs: Option<Arc<Registry>>,
    table_label: String,
}

impl ScanServerBuilder {
    /// Selects the scheduling policy (default: relevance).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches the data plane: chunk payloads materialized by `store` (on
    /// the I/O workers, outside every executor lock) travel with every
    /// delivered [`PinnedChunk`].  Without a store the server delivers
    /// [`ChunkPayload::Missing`].
    pub fn store(mut self, store: Arc<dyn ChunkStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the size of the I/O worker pool — the number of chunk loads that
    /// may be in flight at once (default 1, the paper's sequential loop;
    /// clamped to at least 1).
    pub fn io_threads(mut self, threads: usize) -> Self {
        self.io_threads = threads.max(1);
        self
    }

    /// Sets the buffer pool size in pages.
    pub fn buffer_pages(mut self, pages: u64) -> Self {
        self.buffer_pages = pages.max(1);
        self
    }

    /// Sets the buffer pool size in average-sized chunks.
    pub fn buffer_chunks(mut self, chunks: u64) -> Self {
        self.buffer_pages = (chunks as f64 * self.model.avg_chunk_pages())
            .ceil()
            .max(1.0) as u64;
        self
    }

    /// Sets the simulated I/O cost per page read (default 50 µs, i.e. about
    /// 1.3 GB/s for 64 KiB pages; use `Duration::ZERO` in tests).
    pub fn io_cost_per_page(mut self, cost: Duration) -> Self {
        self.io_cost_per_page = cost;
        self
    }

    /// Sets the bounded-retry policy for failed chunk reads, a checksum
    /// mismatch at install among them (default: [`RetryPolicy::default`] —
    /// 8 attempts with exponential backoff), which the scheduler core
    /// applies.  Retries sleep real time on the I/O worker, with no lock
    /// held.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Shares a metrics registry with the server (default: the server
    /// creates its own [`Registry`]).  Benches pass one registry across a
    /// whole sweep and call [`Registry::snapshot_and_reset`] between
    /// points; pass [`Registry::disabled`] for a no-observability baseline.
    pub fn observability(mut self, obs: Arc<Registry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Sets the table label attached to per-query metrics (default
    /// `"table"`; the server serves exactly one table model).
    pub fn table_label(mut self, label: impl Into<String>) -> Self {
        self.table_label = label.into();
        self
    }

    /// Starts the I/O worker pool and returns the running server.
    pub fn build(self) -> ScanServer {
        let capacity = self
            .buffer_pages
            .max(self.model.avg_chunk_pages().ceil() as u64)
            .max(1);
        let workers = self.io_threads;
        let obs = self.obs.unwrap_or_else(|| Arc::new(Registry::new()));
        let core = Scheduler::new(
            self.model,
            capacity,
            self.policy,
            self.retry,
            Arc::clone(&obs),
        );
        let policy_label = core.policy_name();
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                core,
                effects: Vec::new(),
                untaken: Vec::new(),
                idle_workers: 0,
                wake_pending: false,
                wakers: Vec::new(),
                quarantined: false,
                recycled: Vec::new(),
            }),
            idle: Condvar::new(),
            store: self.store,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            io_cost_per_page_nanos: self.io_cost_per_page.as_nanos() as u64,
            obs,
            table_label: self.table_label,
            policy_label,
        });
        let io_threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                sync::spawn(format!("cscan-abm-io-{i}"), move || io_worker_main(shared))
            })
            .collect();
        ScanServer { shared, io_threads }
    }
}

/// The ABM main loop (`main()` in Figure 3), run on every I/O worker:
/// plan through the core under the scheduler lock, or sleep on its idle
/// condvar; read with no lock held; commit through the core, whose stamp
/// check drops a load whose queries detached mid-read.  A failed read is
/// the core's to judge ([`Scheduler::load_failed`]).  A panic of the core
/// is contained ([`Shared::core_panicked`]).
fn io_worker_main(shared: Arc<Shared>) {
    let worker = std::panic::AssertUnwindSafe(|| io_worker_loop(&shared));
    if std::panic::catch_unwind(worker).is_err() {
        shared.core_panicked();
    }
}

fn io_worker_loop(shared: &Shared) {
    let mut plans = Vec::with_capacity(1);
    // Payloads this worker's critical sections let go of, offered back to
    // the store once the lock is dropped.
    let mut unused: Vec<ChunkPayload> = Vec::new();
    'work: loop {
        let mut sched = shared.lock_sched();
        let plan = loop {
            // Shutdown sets the flag under this lock, so it is seen here
            // or wakes the wait below.
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            plans.clear();
            let now = shared.now();
            let plan_started = Instant::now();
            sched.core.plan(now, 1, &mut plans);
            shared
                .obs
                .record_span_ns(SpanKind::Plan, plan_started.elapsed().as_nanos() as u64);
            if let Some(plan) = plans.pop() {
                break plan;
            }
            // A plan that failed a quarantined chunk's load closed the
            // queries that registered since: they are woken, and the flight
            // recorder dumped, as the lock drops — not after a sleep.
            sched.apply(shared);
            if sched.owes_wakeups() {
                continue 'work;
            }
            // blockForNextQuery: sleep until a scheduling input changes.
            sched.wait_idle();
        };
        let chunk = plan.decision.chunk;
        // The columns to materialize: exactly the missing ones (what this
        // load adds), or the full row when the load covers every column.
        let state = sched.core.state();
        let missing = state.missing_columns(chunk, plan.decision.cols);
        let cols: Option<Vec<ColumnId>> =
            (missing != state.model().all_columns()).then(|| missing.iter().collect());
        // Wake chaining: if more loads are plannable, the next idle worker
        // will find one (and chain onwards); if not, it sleeps again.  This
        // fans a burst out across the pool without a notify_all stampede.
        sched.wake_worker();
        // The payloads the plan evicted — a megabyte each to free or
        // recycle — leave the lock with the worker.
        sched.apply(shared);
        unused.append(&mut sched.recycled);
        drop(sched);
        recycle(shared, &mut unused);
        // The plan's flight event is recorded after the scheduler guard
        // dropped: the recorder has its own (uncontended) mutex.
        shared
            .obs
            .event(EventKind::LoadPlanned, chunk.index(), NO_QUERY, plan.pages);
        // Read with no lock held, so consumers and other workers carry on
        // meanwhile: materializing the payload *is* the read, the sleep
        // models seek/transfer time.  A failed read keeps the plan's ticket
        // and reservation until the core ends the load.
        let mut attempt = 0;
        let payload = loop {
            let read_started = Instant::now();
            let result = read_payload(shared, chunk, cols.as_deref());
            let nanos = plan.pages.saturating_mul(shared.io_cost_per_page_nanos);
            if nanos > 0 {
                sync::sleep(Duration::from_nanos(nanos));
            }
            shared.obs.record_span_ns(
                SpanKind::Materialize,
                read_started.elapsed().as_nanos() as u64,
            );
            let error = match result {
                Ok(payload) => break payload,
                Err(error) => error,
            };
            attempt += 1;
            let verdict = shared
                .lock_sched()
                .core
                .load_failed(chunk, plan.ticket, error, attempt);
            let Some(delay) = verdict else {
                continue 'work;
            };
            if !delay.is_zero() {
                let _backoff = shared.obs.time(SpanKind::Backoff);
                sync::sleep(delay);
            }
        };
        let mut sched = shared.lock_sched();
        let commit_started = Instant::now();
        // Installed, the load grants to the scans it unblocks (signalQuery);
        // stale — the last interested query detached mid-read — nothing is.
        let woken = sched.core.commit(chunk, plan.ticket, payload, shared.now());
        let (counter, event) = match woken {
            Some(_) => (Counter::LoadsCompleted, EventKind::LoadCommitted),
            None => (Counter::LoadsCancelled, EventKind::LoadCancelled),
        };
        // Counted before the grants are deposited, so a consumer that sees
        // its chunk sees the load counted.
        shared.obs.inc(counter);
        sched.apply(shared);
        shared
            .obs
            .record_span_ns(SpanKind::Commit, commit_started.elapsed().as_nanos() as u64);
        unused.append(&mut sched.recycled);
        drop(sched);
        recycle(shared, &mut unused);
        let woken = woken.unwrap_or(0) as u64;
        shared.obs.event(event, chunk.index(), NO_QUERY, woken);
        // The worker loops straight back into planning: a completion changes
        // the scheduling inputs (the chunk is evictable, its queries less
        // starved), and if that enables further loads the chain above keeps
        // the rest of the pool fed.
    }
}

/// Offers payloads the buffer no longer holds back to the store
/// ([`ChunkStore::recycle`]), or just drops them.  Called with no lock
/// held: the store may keep the memory for its next load, and whatever it
/// does not keep is freed here rather than inside a critical section.
/// Each offer runs under `catch_unwind`: a panicking store loses that
/// payload (it is dropped) and counts a worker panic, and the I/O worker
/// or consumer that made the offer carries on.
fn recycle(shared: &Shared, unused: &mut Vec<ChunkPayload>) {
    for payload in unused.drain(..) {
        if let Some(store) = &shared.store {
            let offer =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.recycle(payload)));
            if offer.is_err() {
                shared.worker_panicked(NO_CHUNK, NO_QUERY);
            }
        }
    }
}

/// One read attempt: materialize the chunk's payload and verify its
/// checksums (the install-time integrity point — torn bytes never enter the
/// buffer pool).  All payload work runs under `catch_unwind`, so a
/// panicking store or codec becomes a failed read on a healthy worker,
/// never a dead thread — and since no lock is held here, a panic can never
/// wedge the scheduler either.
fn read_payload(
    shared: &Shared,
    chunk: ChunkId,
    cols: Option<&[ColumnId]>,
) -> Result<ChunkPayload, StoreError> {
    let Some(store) = &shared.store else {
        return Ok(ChunkPayload::Missing);
    };
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let payload = store.materialize(chunk, cols)?;
        payload.verify_checksums()?;
        Ok(payload)
    }));
    match attempt {
        Ok(result) => {
            if matches!(result, Err(StoreError::Corrupted)) {
                shared.obs.inc(Counter::ChecksumFailures);
                shared
                    .obs
                    .event(EventKind::ChecksumFailure, chunk.index(), NO_QUERY, 0);
            }
            result
        }
        Err(_panic) => {
            shared.worker_panicked(chunk.index(), NO_QUERY);
            // Without knowing what broke, retrying a panicking data plane
            // is gambling; fail permanently so the chunk quarantines and
            // its queries get a clean error instead of repeated panics.
            Err(StoreError::Permanent)
        }
    }
}

/// A running Cooperative Scans server: an Active Buffer Manager plus its I/O
/// worker pool.  Create scans with [`ScanServer::cscan`].
pub struct ScanServer {
    shared: Arc<Shared>,
    io_threads: Vec<JoinHandle<()>>,
}

impl ScanServer {
    /// Starts building a server for `model`.
    pub fn builder(model: TableModel) -> ScanServerBuilder {
        let default_pages = (model.avg_chunk_pages() * 8.0).ceil() as u64;
        ScanServerBuilder {
            model,
            policy: PolicyKind::Relevance,
            buffer_pages: default_pages.max(1),
            io_cost_per_page: Duration::from_micros(50),
            io_threads: 1,
            store: None,
            retry: RetryPolicy::default(),
            obs: None,
            table_label: String::from("table"),
        }
    }

    /// Size of the I/O worker pool (the outstanding-load budget).
    pub fn io_threads(&self) -> usize {
        self.io_threads.len()
    }

    /// Registers a CScan and returns a handle that delivers its chunks.
    pub fn cscan(&self, plan: CScanPlan) -> CScanHandle {
        let slot = Arc::new(Mutex::new(QuerySlot::default()));
        // The core grants at once if something the query wants is already
        // resident (or closes an empty scan straight away); otherwise the
        // query is marked blocked so the next commit matches it.  A live
        // server is shut down only by a core panic: the scan errs too.
        let mut sched = self.shared.lock_sched();
        let id = sched
            .core
            .register(&plan, Arc::clone(&slot), self.shared.now());
        if self.shared.shutdown.load(Ordering::Acquire) {
            sched.core.close(id, Some(CORE_PANICKED));
        }
        drop(sched);
        let scope = self
            .shared
            .obs
            .attach_query(plan.label, self.shared.table_label.clone());
        self.shared
            .obs
            .event(EventKind::QueryAttached, cscan_obs::NO_CHUNK, id.0, 0);
        CScanHandle {
            shared: Arc::clone(&self.shared),
            slot,
            query: id,
            scope,
            attached: Instant::now(),
            finished: AtomicBool::new(false),
        }
    }

    /// The server's metrics registry: the unified observability plane every
    /// counter, span histogram and flight event of this server lands in —
    /// loads, faults, decodes, unconsumed drops, lock hold times and the
    /// rest are read from here.  Snapshot it ([`Registry::snapshot`]) for
    /// Prometheus export, or share it across servers via
    /// [`ScanServerBuilder::observability`].
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.obs)
    }

    /// Total chunk-granularity I/O requests committed by the ABM.
    pub fn io_requests(&self) -> u64 {
        self.shared.lock_sched().core.state().io_requests()
    }

    /// The scheduling policy in use (cached at build; no lock taken).
    pub fn policy_name(&self) -> &'static str {
        self.shared.policy_label
    }

    /// Number of resident frames holding at least one column that is still
    /// encoded bytes (one no consumer has read since the chunk was loaded).
    pub fn compressed_frames(&self) -> usize {
        let sched = self.shared.lock_sched();
        let buffered = sched.core.state().buffered();
        buffered.filter(|b| !b.payload.is_fully_decoded()).count()
    }

    /// Counters of the buffer's frames (fetches, pins, evictions).
    pub fn frame_pool_stats(&self) -> PoolStats {
        self.shared.lock_sched().core.state().frame_stats()
    }

    /// Number of frames currently pinned by outstanding [`PinnedChunk`]s
    /// and unconsumed grants.
    pub fn pinned_frames(&self) -> usize {
        self.shared.lock_sched().core.state().pinned_frames()
    }
}

impl Drop for ScanServer {
    fn drop(&mut self) {
        {
            let mut sched = self.shared.lock_sched();
            // Under the lock an idle worker sleeps on: it has either not yet
            // looked at the flag, or is asleep and gets this notification.
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.idle.notify_all();
            let Sched { core, wakers, .. } = &mut *sched;
            for slot in core.registered() {
                wakers.append(&mut slot.lock().wakers);
            }
        }
        for handle in self.io_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A handle to one registered CScan — the threaded implementation of
/// [`ScanSession`].  Call [`CScanHandle::next_chunk`] until it returns
/// `None`, then [`CScanHandle::finish`] (or just drop the handle).  A
/// thread that serves several handles waits for all of them at once with
/// [`CScanHandle::poll_next_chunk`].
#[must_use = "an attached scan holds ABM interest until finished or dropped"]
pub struct CScanHandle {
    shared: Arc<Shared>,
    /// This query's grant mailbox (also registered in the scheduler's slot
    /// map until `finish`).
    slot: Arc<Mutex<QuerySlot>>,
    query: QueryId,
    /// This scan's metric scope: chunk/row deliveries, pin-wait episodes
    /// and time-to-first-chunk, labelled `{query, table}`.
    scope: Arc<QueryScope>,
    /// When the scan registered (the time-to-first-chunk origin).
    attached: Instant,
    finished: AtomicBool,
}

impl CScanHandle {
    /// The ABM-assigned query id.
    pub fn query_id(&self) -> QueryId {
        self.query
    }

    /// Blocks until the next chunk is available and returns it pinned — the
    /// payload views stay valid (and the frame unevictable) until the pin
    /// is dropped — `Ok(None)` when the scan has delivered everything, hit
    /// its chunk limit, or the server shut down, or `Err` when a chunk this
    /// query needs failed for good (quarantined after bounded retries, or
    /// undecodable).  The error is sticky: further calls keep returning it.
    /// This is `selectChunk` of Figure 3.
    ///
    /// It is [`CScanHandle::poll_next_chunk`] in a loop, with this thread's
    /// [`Doorbell`] as the waker and a wait on it between polls —
    /// `waitForChunk`.  When the mailbox holds a grant the first poll
    /// returns it, touching only this query's slot mutex and allocating
    /// nothing.
    pub fn next_chunk(&self) -> Result<Option<PinnedChunk>, ScanError> {
        BELL.with(|(bell, waker)| {
            let mut cx = Context::from_waker(waker);
            loop {
                if let Poll::Ready(next) = self.poll_next_chunk(&mut cx)? {
                    return Ok(next);
                }
                let waited = Instant::now();
                bell.wait(None);
                let ns = waited.elapsed().as_nanos() as u64;
                self.scope.record_pin_wait(ns);
                self.shared.obs.record_span_ns(SpanKind::PinWait, ns);
            }
        })
    }

    /// The one place a delivery is taken.  In order: the scan's failure
    /// (surfaced — flight dump and detach — by the first call that finds
    /// it), the grant, and the reasons there will never be one (slot
    /// closed, scan finished, server shutting down).  Otherwise the mailbox
    /// is empty: `cx`'s waker is left in it and the call returns
    /// `Ok(Poll::Pending)`.  Whatever next changes the mailbox — a grant
    /// deposited, the scan closed by [`CScanHandle::finish`], by the
    /// release of its last chunk or of the last its limit allows, or by a
    /// failure, the server shut down — wakes it, after which polling again
    /// makes progress.  The serving layer multiplexes a connection's scans
    /// on one thread through this.
    ///
    /// Consumers racing on a shared handle serialize on the slot mutex, the
    /// only lock this may block on, and the core grants a LIMIT-n scan n
    /// chunks.  The waker is stored in the critical section that found the
    /// slot empty, so a deposit either precedes the check (and is
    /// returned) or follows the store (and fires the waker).
    ///
    /// A chunk's encoded columns are returned as installed, their checksums
    /// verified once by the load.  Decoding waits for the consumer to touch
    /// a column ([`PinnedChunk::column`]); that time is accounted as
    /// pin-wait (and separately as the `decode_nanos` counter).
    pub fn poll_next_chunk(
        &self,
        cx: &mut Context<'_>,
    ) -> Result<Poll<Option<PinnedChunk>>, ScanError> {
        let mut st = self.slot.lock();
        if let Some(error) = st.error {
            drop(st);
            return Err(self.surface(error));
        }
        let Some((chunk, payload)) = st.grant.take() else {
            if st.closed
                || self.finished.load(Ordering::Acquire)
                || self.shared.shutdown.load(Ordering::Acquire)
            {
                return Ok(Poll::Ready(None));
            }
            if !st.wakers.iter().any(|w| w.will_wake(cx.waker())) {
                st.wakers.push(cx.waker().clone());
            }
            return Ok(Poll::Pending);
        };
        drop(st);
        Ok(Poll::Ready(Some(self.consume_grant(chunk, payload))))
    }

    /// Turns a taken grant into a [`PinnedChunk`]: the payload it carries
    /// and the per-query metrics.  Nothing is verified or decoded here: the
    /// bytes passed their checksums when the load installed them, and a
    /// column decodes when the consumer first touches it
    /// ([`PinnedChunk::column`]).
    fn consume_grant(&self, chunk: ChunkId, payload: ChunkPayload) -> PinnedChunk {
        self.scope
            .record_first_chunk(self.attached.elapsed().as_nanos() as u64);
        self.scope.add(QueryCounter::ChunksDelivered, 1);
        self.scope
            .add(QueryCounter::RowsDelivered, payload.rows() as u64);
        PinnedChunk::new(
            self.query,
            chunk,
            payload,
            Arc::clone(&self.shared),
            Arc::clone(&self.scope),
        )
    }

    /// Returns the scan's failure; the first consumer to find it dumps the
    /// flight recorder (a surfaced `ScanError` is one of its automatic
    /// triggers) and detaches the handle.
    fn surface(&self, error: ScanError) -> ScanError {
        if !self.finished.swap(true, Ordering::AcqRel) {
            self.shared.obs.dump_flight("scan error");
            self.deregister();
        }
        error
    }

    /// Number of chunks this scan still needs (0 once finished/detached).
    pub fn remaining_chunks(&self) -> u32 {
        self.shared
            .lock_sched()
            .core
            .state()
            .try_query(self.query)
            .map(|q| q.chunks_needed())
            .unwrap_or(0)
    }

    /// Deregisters the scan from the ABM, unless the core already closed it
    /// (its last chunk or its limit was released).  Called automatically on
    /// drop.
    ///
    /// Detaching mid-scan cancels any in-flight load this query was the
    /// last interested consumer of (see [`Scheduler::close`]): the pages
    /// are released immediately, and the read's eventual completion is
    /// rejected by the commit's ticket check.  Outstanding [`PinnedChunk`]s
    /// stay valid — their frames remain pinned until each pin drops.  An
    /// unconsumed grant still sitting in the mailbox is reclaimed here.
    pub fn finish(&self) {
        if !self.finished.swap(true, Ordering::AcqRel) {
            self.deregister();
        }
    }

    /// [`CScanHandle::finish`]'s work, run once.
    fn deregister(&self) {
        self.shared.obs.detach_query(&self.scope);
        self.shared.obs.event(
            EventKind::QueryDetached,
            cscan_obs::NO_CHUNK,
            self.query.0,
            0,
        );
        // Aborted loads release buffer pages, and one consumer fewer changes
        // the relevance picture: the close wakes an idle worker (if some
        // query misses a chunk), and a consumer of a shared handle blocked
        // on this slot observes the detach at once.  A scan the core
        // already closed is left as it is.
        self.shared.lock_sched().core.close(self.query, None);
    }
}

impl ScanSession for CScanHandle {
    fn next_chunk(&mut self) -> Result<Option<PinnedChunk>, ScanError> {
        CScanHandle::next_chunk(self)
    }

    fn remaining_chunks(&self) -> u32 {
        CScanHandle::remaining_chunks(self)
    }

    fn detach(&mut self) {
        self.finish();
    }
}

impl Drop for CScanHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::Deadline;
    use cscan_storage::ScanRanges;
    use std::sync::atomic::{AtomicU32, AtomicU64};

    /// A counter of `server`'s registry.
    fn counter(server: &ScanServer, counter: Counter) -> u64 {
        server.metrics().counter(counter)
    }

    /// A server whose test runs under the deadline: one still running at
    /// the deadline aborts, printing the server's flight dump.
    struct Watched {
        server: ScanServer,
        _deadline: Deadline,
    }

    impl Deref for Watched {
        type Target = ScanServer;
        fn deref(&self) -> &ScanServer {
            &self.server
        }
    }

    impl ScanServerBuilder {
        /// [`ScanServerBuilder::build`] under the deadline.
        fn watched(self) -> Watched {
            let server = self.build();
            let _deadline = Deadline::arm(&server.metrics());
            Watched { server, _deadline }
        }
    }

    fn server(policy: PolicyKind, chunks: u32, buffer_chunks: u64) -> (Watched, TableModel) {
        let model = TableModel::nsm_uniform(chunks, 1_000, 16);
        let server = ScanServer::builder(model.clone())
            .policy(policy)
            .buffer_chunks(buffer_chunks)
            .io_cost_per_page(Duration::ZERO)
            .watched();
        (server, model)
    }

    #[test]
    fn single_scan_delivers_every_chunk_exactly_once() {
        let (server, model) = server(PolicyKind::Relevance, 20, 4);
        let handle = server.cscan(CScanPlan::new(
            "full",
            ScanRanges::full(20),
            model.all_columns(),
        ));
        let mut seen = std::collections::HashSet::new();
        while let Some(guard) = handle.next_chunk().unwrap() {
            assert!(
                seen.insert(guard.chunk()),
                "chunk delivered twice: {:?}",
                guard.chunk()
            );
            guard.complete();
        }
        assert_eq!(seen.len(), 20);
        assert_eq!(handle.remaining_chunks(), 0);
        assert!(
            handle.next_chunk().unwrap().is_none(),
            "a drained scan stays drained"
        );
        handle.finish();
    }

    /// A plan is scheduled by the model's columns only: one naming a column
    /// the model lacks is refused at registration, by name, not widened.
    #[test]
    #[should_panic(expected = "reads columns ColSet{5}, past the model's 2")]
    fn a_plan_naming_a_column_past_the_model_panics() {
        let model = TableModel::dsm_uniform(4, 1_000, &[1, 1]);
        let server = ScanServer::builder(model).watched();
        let wide = ColSet::from_columns([ColumnId::new(0), ColumnId::new(5)]);
        let _scan = server.cscan(CScanPlan::new("wide", ScanRanges::full(4), wide));
    }

    /// Short scans of a table the buffer holds wake no I/O worker: no query
    /// misses a chunk, so no attach, release or close leaves a worker a load
    /// to find.  A scan of an evicted chunk afterwards still wakes one.
    #[test]
    fn short_scans_of_a_resident_table_wake_no_worker() {
        let model = TableModel::nsm_uniform(8, 1_000, 16);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_threads(2)
            .io_cost_per_page(Duration::ZERO)
            .watched();
        let scan = |start: u32, end: u32| {
            let plan = CScanPlan::new("short", ScanRanges::single(start, end), model.all_columns());
            let handle = server.cscan(plan);
            let mut chunks = 0;
            while let Some(pin) = handle.next_chunk().expect("no faults injected") {
                pin.complete();
                chunks += 1;
            }
            handle.finish();
            chunks
        };
        assert_eq!(scan(0, 4), 4, "the warm-up scan");
        let wakeups = counter(&server, Counter::WorkerWakeups);
        let loads = counter(&server, Counter::LoadsCompleted);
        for i in 0..200 {
            let start = i % 3;
            assert_eq!(scan(start, start + 2), 2);
        }
        assert_eq!(counter(&server, Counter::WorkerWakeups), wakeups);
        assert_eq!(counter(&server, Counter::LoadsCompleted), loads);
        // Chunks 4–7 take the four frames; chunk 0 is then read again.
        assert_eq!(scan(4, 8), 4);
        assert_eq!(scan(0, 1), 1);
        assert_eq!(counter(&server, Counter::LoadsCompleted), loads + 5);
    }

    #[test]
    fn concurrent_scans_share_io() {
        let (server, model) = server(PolicyKind::Relevance, 30, 10);
        // Register all four scans *before* any of them starts consuming, so
        // the sharing opportunity is well defined regardless of thread timing.
        let handles: Vec<CScanHandle> = (0..4)
            .map(|i| {
                server.cscan(CScanPlan::new(
                    format!("scan-{i}"),
                    ScanRanges::full(30),
                    model.all_columns(),
                ))
            })
            .collect();
        let workers: Vec<_> = handles
            .into_iter()
            .map(|handle| {
                std::thread::spawn(move || {
                    let mut count = 0;
                    while let Some(guard) = handle.next_chunk().unwrap() {
                        count += 1;
                        guard.complete();
                    }
                    handle.finish();
                    count
                })
            })
            .collect();
        let counts: Vec<usize> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(counts, vec![30, 30, 30, 30]);
        // Four overlapping full scans registered together share most loads:
        // far fewer than 4 × 30 chunk reads.
        let ios = server.io_requests();
        assert!(ios < 75, "expected substantial sharing, got {ios} I/Os");
        assert!(ios >= 30);
    }

    #[test]
    fn every_policy_completes_under_threads() {
        for policy in PolicyKind::ALL {
            let (server, model) = server(policy, 12, 3);
            let server = Arc::new(server);
            let mut workers = Vec::new();
            for i in 0..3 {
                let server = Arc::clone(&server);
                let model = model.clone();
                workers.push(std::thread::spawn(move || {
                    let ranges = ScanRanges::single(i * 2, 12 - i * 2);
                    let expected = ranges.num_chunks();
                    let handle = server.cscan(CScanPlan::new(
                        format!("{policy}-{i}"),
                        ranges,
                        model.all_columns(),
                    ));
                    let mut count = 0;
                    while let Some(guard) = handle.next_chunk().unwrap() {
                        count += 1;
                        guard.complete();
                    }
                    (count, expected)
                }));
            }
            for w in workers {
                let (count, expected) = w.join().unwrap();
                assert_eq!(count, expected, "{policy}");
            }
            assert_eq!(server.policy_name(), policy.name());
        }
    }

    #[test]
    fn dropping_a_guard_releases_the_chunk_but_is_traced() {
        let (server, model) = server(PolicyKind::Relevance, 5, 2);
        let handle = server.cscan(CScanPlan::new(
            "g",
            ScanRanges::full(5),
            model.all_columns(),
        ));
        let mut count = 0;
        while let Some(guard) = handle.next_chunk().unwrap() {
            // Drop instead of calling complete(); the Drop impl must release
            // (the scan makes progress) but the silent drop is counted.
            drop(guard);
            count += 1;
        }
        assert_eq!(count, 5);
        assert_eq!(
            counter(&server, Counter::UnconsumedDrops),
            5,
            "every silent drop must be traced"
        );
    }

    #[test]
    fn finish_is_idempotent_and_runs_on_drop() {
        let (server, model) = server(PolicyKind::Attach, 4, 2);
        {
            let handle = server.cscan(CScanPlan::new(
                "partial",
                ScanRanges::single(0, 2),
                model.all_columns(),
            ));
            let guard = handle.next_chunk().unwrap().unwrap();
            guard.complete();
            handle.finish();
            handle.finish();
            // Drop also calls finish(); it must not panic.
        }
        // The server can still serve new scans afterwards.
        let handle = server.cscan(CScanPlan::new(
            "after",
            ScanRanges::single(2, 4),
            model.all_columns(),
        ));
        let mut n = 0;
        while let Some(g) = handle.next_chunk().unwrap() {
            g.complete();
            n += 1;
        }
        assert_eq!(n, 2);
    }

    #[test]
    fn empty_plan_returns_no_chunks() {
        let (server, model) = server(PolicyKind::Relevance, 4, 2);
        let handle = server.cscan(CScanPlan::new(
            "empty",
            ScanRanges::empty(),
            model.all_columns(),
        ));
        assert!(handle.next_chunk().unwrap().is_none());
    }

    #[test]
    fn io_thread_pool_serves_concurrent_scans() {
        // Four I/O workers (up to four outstanding loads) against four
        // concurrent scans; everything must be delivered exactly once per
        // scan, with genuine sharing.
        let model = TableModel::nsm_uniform(24, 1_000, 16);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(8)
            .io_cost_per_page(Duration::from_micros(5))
            .io_threads(4)
            .watched();
        assert_eq!(server.io_threads(), 4);
        let handles: Vec<CScanHandle> = (0..4)
            .map(|i| {
                server.cscan(CScanPlan::new(
                    format!("p{i}"),
                    ScanRanges::full(24),
                    model.all_columns(),
                ))
            })
            .collect();
        let workers: Vec<_> = handles
            .into_iter()
            .map(|handle| {
                std::thread::spawn(move || {
                    let mut seen = std::collections::HashSet::new();
                    while let Some(guard) = handle.next_chunk().unwrap() {
                        assert!(seen.insert(guard.chunk()), "duplicate delivery");
                        guard.complete();
                    }
                    handle.finish();
                    seen.len()
                })
            })
            .collect();
        for w in workers {
            assert_eq!(w.join().unwrap(), 24);
        }
        // Sharing bound: four scans of 24 chunks never need fewer than 24
        // loads, and strictly fewer than the 96 a no-sharing executor would
        // issue.  (Tighter caps would encode thread-scheduling luck: a
        // descheduled consumer can have its chunks evicted and re-read, so
        // real runs land well below 96 but not deterministically so.)
        let ios = server.io_requests();
        assert!(
            (24..96).contains(&ios),
            "four overlapping scans over a 4-deep pipeline should share: {ios}"
        );
        // Every critical section was measured.
        let holds = server.metrics().span_hist(SpanKind::LockHold).snapshot();
        assert!(holds.count() > 0);
        assert!(holds.max_value() >= holds.quantile_upper(0.5));
    }

    #[test]
    fn nonzero_io_cost_still_completes() {
        let model = TableModel::nsm_uniform(6, 1_000, 4);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Elevator)
            .buffer_chunks(2)
            .io_cost_per_page(Duration::from_micros(10))
            .watched();
        let handle = server.cscan(CScanPlan::new(
            "t",
            ScanRanges::full(6),
            model.all_columns(),
        ));
        let mut n = 0;
        while let Some(g) = handle.next_chunk().unwrap() {
            g.complete();
            n += 1;
        }
        assert_eq!(n, 6);
        assert!(counter(&server, Counter::LoadsCompleted) >= 6);
    }

    /// Regression test for the ROADMAP's load-aborting item: a scan that
    /// detaches while its load is mid-read must cancel that load — the
    /// reservation is released, nothing is installed, and the completion is
    /// dropped at commit time.
    #[test]
    fn detaching_mid_read_aborts_the_inflight_load() {
        let model = TableModel::nsm_uniform(8, 1_000, 16);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            // 16 pages × 2 ms = a 32 ms read: plenty of time to detach.
            .io_cost_per_page(Duration::from_millis(2))
            .watched();
        let handle = server.cscan(CScanPlan::new(
            "doomed",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        // Wait until the worker has a load in flight for the scan.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if server.shared.lock_sched().core.state().num_inflight() > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "no load ever started");
            std::thread::yield_now();
        }
        // Detach mid-read: the ABM aborts the load eagerly.
        handle.finish();
        {
            let sched = server.shared.lock_sched();
            assert_eq!(sched.core.state().num_inflight(), 0, "abort was not eager");
            assert_eq!(sched.core.state().reserved_pages(), 0, "reservation leaked");
            assert!(sched.core.state().loads_aborted() >= 1);
        }
        // The worker's commit must reject the stale completion.
        let deadline = Instant::now() + Duration::from_secs(5);
        while counter(&server, Counter::LoadsCancelled) == 0 {
            assert!(Instant::now() < deadline, "stale completion never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        let sched = server.shared.lock_sched();
        assert_eq!(
            sched.core.state().io_requests(),
            0,
            "a cancelled load must not install residency"
        );
        assert_eq!(sched.core.state().num_buffered(), 0);
    }

    /// Attach/detach storm: queries register and detach (some mid-scan)
    /// from many threads while a 4-worker pool drains loads.  No wakeup may
    /// be lost (every surviving scan finishes), and no frame reservation may
    /// leak (the pool drains back to zero reserved pages).
    #[test]
    fn attach_detach_storm_leaks_nothing() {
        let model = TableModel::nsm_uniform(32, 1_000, 16);
        let server = Arc::new(
            ScanServer::builder(model.clone())
                .policy(PolicyKind::Relevance)
                .buffer_chunks(8)
                .io_cost_per_page(Duration::from_micros(20))
                .io_threads(4)
                .watched(),
        );
        let workers: Vec<_> = (0..8)
            .map(|t: u32| {
                let server = Arc::clone(&server);
                let model = model.clone();
                std::thread::spawn(move || {
                    for round in 0..5u32 {
                        let start = (t * 3 + round * 7) % 24;
                        let handle = server.cscan(CScanPlan::new(
                            format!("storm-{t}-{round}"),
                            ScanRanges::single(start, start + 8),
                            model.all_columns(),
                        ));
                        if (t + round).is_multiple_of(3) {
                            // Cancel mid-scan after at most two chunks.
                            for _ in 0..2 {
                                match handle.next_chunk().unwrap() {
                                    Some(g) => g.complete(),
                                    None => break,
                                }
                            }
                            handle.finish();
                        } else {
                            // Run to completion: a lost wakeup would hang
                            // here (bounded only by the test harness).
                            let mut n = 0;
                            while let Some(g) = handle.next_chunk().unwrap() {
                                g.complete();
                                n += 1;
                            }
                            assert_eq!(n, 8, "scan storm-{t}-{round} lost chunks");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Let the pool drain any still-flying cancelled reads, then check
        // for leaks: no queries, no slots, no reservations, no in-flight.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let sched = server.shared.lock_sched();
                let state = sched.core.state();
                if state.num_inflight() == 0 {
                    assert_eq!(state.num_queries(), 0);
                    assert!(
                        sched.core.registered().next().is_none(),
                        "leaked grant slots"
                    );
                    assert_eq!(state.reserved_pages(), 0, "leaked reservations");
                    break;
                }
            }
            assert!(Instant::now() < deadline, "in-flight loads never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The server still works after the storm (no worker died parked).
        let handle = server.cscan(CScanPlan::new(
            "after-storm",
            ScanRanges::single(0, 4),
            model.all_columns(),
        ));
        let mut n = 0;
        while let Some(g) = handle.next_chunk().unwrap() {
            g.complete();
            n += 1;
        }
        assert_eq!(n, 4);
    }

    // ------------------------------------------------------------------
    // Data-plane tests: real payloads, frame pins, session semantics.
    // ------------------------------------------------------------------

    use crate::colset::ColSet;
    use crate::session::ScanSession;
    use cscan_storage::{ColumnId, SeededStore};

    fn data_server(
        policy: PolicyKind,
        chunks: u32,
        buffer_chunks: u64,
        columns: u16,
    ) -> (Watched, TableModel, SeededStore) {
        let model = TableModel::nsm_uniform(chunks, 100, 16);
        let store = SeededStore::new(100, columns, 7);
        let server = ScanServer::builder(model.clone())
            .policy(policy)
            .buffer_chunks(buffer_chunks)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store.clone()))
            .watched();
        (server, model, store)
    }

    #[test]
    fn delivered_payloads_match_the_store() {
        let (server, model, store) = data_server(PolicyKind::Relevance, 8, 3, 2);
        let handle = server.cscan(CScanPlan::new(
            "data",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        let mut seen = 0;
        while let Some(pin) = handle.next_chunk().unwrap() {
            assert_eq!(pin.rows(), 100);
            for col in 0..2u16 {
                let values = pin.column(ColumnId::new(col)).expect("column present");
                for (row, &v) in values.iter().enumerate() {
                    assert_eq!(
                        v,
                        store.value(pin.chunk(), row as u64, ColumnId::new(col)),
                        "chunk {:?} col {col} row {row}",
                        pin.chunk()
                    );
                }
            }
            pin.complete();
            seen += 1;
        }
        assert_eq!(seen, 8);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
        assert_eq!(server.pinned_frames(), 0, "all frame pins returned");
    }

    /// A scan's per-query scope — label, table, time to first chunk, the
    /// detached flag — is in the snapshot of the server that ran it, and
    /// the scope sums agree with the query totals.
    #[test]
    fn live_scan_scope_appears_in_the_snapshot() {
        let model = TableModel::nsm_uniform(8, 100, 16);
        let server = ScanServer::builder(model.clone())
            .buffer_chunks(4)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(SeededStore::new(100, 1, 7)))
            .table_label("t")
            .watched();
        let handle = server.cscan(CScanPlan::new(
            "observed",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        let mut chunks = 0;
        while let Some(pin) = handle.next_chunk().unwrap() {
            pin.complete();
            chunks += 1;
        }
        handle.finish();
        let snap = server.metrics().snapshot();
        assert!(snap.is_consistent(), "scope sums must match query totals");
        assert_eq!(snap.query_counter_sum("chunks_delivered"), chunks);
        let q = snap
            .queries
            .iter()
            .find(|q| q.label == "observed")
            .expect("the scan's scope is in the snapshot");
        assert_eq!(q.table, "t");
        assert!(q.detached, "a finished scan detaches its scope");
        assert!(q.ttfc_ns.is_some(), "time to first chunk is recorded");
        assert_eq!(snap.counter("loads_completed"), server.io_requests());
        assert!(
            snap.span("materialize").count() >= 8,
            "every load records a materialize span"
        );
    }

    /// Every delivery pins a frame that is already installed (a hit) and
    /// every load installs one (a miss), so a scan of a resident table is
    /// all hits and `hits + misses` accounts for every pin and install.
    #[test]
    fn frame_pool_counts_deliveries_as_hits_and_installs_as_misses() {
        let (server, model, _store) = data_server(PolicyKind::Relevance, 8, 8, 1);
        let scan = |label: &str| {
            let handle = server.cscan(CScanPlan::new(
                label,
                ScanRanges::full(8),
                model.all_columns(),
            ));
            while let Some(pin) = handle.next_chunk().unwrap() {
                pin.complete();
            }
        };
        scan("cold");
        let cold = server.frame_pool_stats();
        assert_eq!((cold.hits, cold.misses), (8, 8));
        scan("resident");
        let warm = server.frame_pool_stats();
        assert_eq!((warm.hits, warm.misses), (16, 8), "a re-scan only hits");
        assert_eq!(warm.hit_ratio(), 16.0 / 24.0);
        // One pin per delivery plus the install's own short pin.
        assert_eq!(warm.hits + warm.misses, warm.pins);
        assert_eq!(server.metrics().counter(Counter::FrameHits), warm.hits);
    }

    /// The acceptance criterion: a frame pinned by a `PinnedChunk` is never
    /// evicted.  A consumer holds one pin while a second scan churns the
    /// tiny buffer through many evictions; the pinned payload must stay
    /// resident, readable, and bit-identical throughout.
    #[test]
    fn pinned_frame_survives_eviction_pressure() {
        let (server, model, _store) = data_server(PolicyKind::Relevance, 16, 2, 1);
        let holder = server.cscan(CScanPlan::new(
            "holder",
            ScanRanges::full(16),
            model.all_columns(),
        ));
        let pin = holder.next_chunk().unwrap().expect("first chunk");
        let held_chunk = pin.chunk();
        let before: Vec<i64> = pin.column(ColumnId::new(0)).unwrap().to_vec();
        // Churn: a full scan through a 2-chunk buffer must evict constantly.
        let churn = server.cscan(CScanPlan::new(
            "churn",
            ScanRanges::full(16),
            model.all_columns(),
        ));
        let mut churned = 0;
        while let Some(g) = churn.next_chunk().unwrap() {
            g.complete();
            churned += 1;
        }
        assert_eq!(churned, 16);
        assert!(
            server.frame_pool_stats().evictions > 0,
            "the churn scan must have caused evictions"
        );
        // The held frame was never reclaimed: still resident and pinned,
        // same bytes.
        {
            let sched = server.shared.lock_sched();
            let held = sched.core.state().buffered_chunk(held_chunk);
            assert!(
                held.is_some_and(|b| b.is_pinned()),
                "the ABM may not evict a pinned chunk"
            );
        }
        assert_eq!(pin.column(ColumnId::new(0)).unwrap(), &before[..]);
        pin.complete();
        holder.finish();
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// Scans of different widths through a buffer with no room to spare: a
    /// plan reclaims dead columns before it evicts, and the frames shrink in
    /// the critical section that planned it — whenever the scheduler lock
    /// is free, a frame holds the columns the ABM accounts and no other.
    #[test]
    fn frames_hold_exactly_the_columns_the_abm_accounts() {
        let model = TableModel::dsm_uniform(8, 100, &[3; 6]);
        let store = SeededStore::new(100, 6, 7);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store.clone()))
            .watched();
        // Frames whose payload is column 0 alone; panics on a frame that
        // disagrees with the ABM's account of its chunk.
        let shrunk_frames = |server: &ScanServer| -> usize {
            let sched = server.shared.lock_sched();
            (0..8)
                .map(ChunkId::new)
                .filter(|&chunk| {
                    let state = sched.core.state();
                    let accounted = state.buffered_chunk(chunk).map(|b| b.columns);
                    let held = match state.buffered_chunk(chunk).map(|b| &b.payload) {
                        Some(ChunkPayload::Data(data)) => Some(data.column_ids().collect()),
                        _ => None,
                    };
                    assert_eq!(held, accounted, "{chunk:?}");
                    held == Some(ColSet::first_n(1))
                })
                .count()
        };
        let scan_all = |label: &str, ranges: ScanRanges| {
            let scan = server.cscan(CScanPlan::new(label, ranges, model.all_columns()));
            while let Some(pin) = scan.next_chunk().unwrap() {
                pin.complete();
            }
            scan.finish();
        };
        // `narrow` needs column 0 of chunks 0..4 and consumes nothing yet;
        // `wide` brings those chunks in full width and leaves.
        let narrow = server.cscan(CScanPlan::new(
            "narrow",
            ScanRanges::single(0, 4),
            ColSet::first_n(1),
        ));
        scan_all("wide", ScanRanges::single(0, 4));
        assert_eq!(shrunk_frames(&server), 0, "a release reclaims nothing");
        // A second full-width scan of four other chunks has to take every
        // dead page there is; the chunk `narrow` holds a grant on is pinned
        // and keeps its six columns.
        scan_all("next", ScanRanges::single(4, 8));
        assert!(shrunk_frames(&server) >= 2);
        // What `narrow` reads through the shrunk frames is still its data.
        let mut seen = 0;
        while let Some(pin) = narrow.next_chunk().unwrap() {
            let values = pin.column(ColumnId::new(0)).expect("column 0 survives");
            for (row, &v) in values.iter().enumerate() {
                assert_eq!(v, store.value(pin.chunk(), row as u64, ColumnId::new(0)));
            }
            pin.complete();
            seen += 1;
        }
        assert_eq!(seen, 4);
        shrunk_frames(&server);
        assert_eq!(server.pinned_frames(), 0);
    }

    /// Every payload a plan evicts is offered back to the store exactly
    /// once, by a thread that holds no scheduler guard at that moment, and
    /// whole: a consumer lets go of its clone before its pin.  Run under the
    /// schedule controller, so the worker's plan lands at each point of
    /// the consumer's release.
    #[test]
    fn evicted_payloads_are_offered_back_to_the_store_outside_the_lock() {
        #[derive(Default)]
        struct Offers {
            payloads: AtomicU64,
            vectors: AtomicU64,
            under_lock: AtomicBool,
        }
        struct Recycling(SeededStore, Arc<Offers>);
        impl ChunkStore for Recycling {
            fn materialize(
                &self,
                chunk: ChunkId,
                cols: Option<&[ColumnId]>,
            ) -> Result<ChunkPayload, StoreError> {
                self.0.materialize(chunk, cols)
            }
            fn recycle(&self, payload: ChunkPayload) {
                // A scheduler guard forbids decoding on its thread for as
                // long as it lives (checked in debug builds), so "decoding
                // is allowed" is "this thread holds no guard".
                if std::panic::catch_unwind(cscan_storage::codec::assert_decode_allowed).is_err() {
                    self.1.under_lock.store(true, Ordering::Relaxed);
                }
                self.1.payloads.fetch_add(1, Ordering::Relaxed);
                payload.reclaim_plain(|_| {
                    self.1.vectors.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        for seed in 0..32 {
            crate::sync::explore(seed, 600, move || {
                let offers = Arc::new(Offers::default());
                let model = TableModel::nsm_uniform(16, 100, 16);
                let server = ScanServer::builder(model.clone())
                    .policy(PolicyKind::Relevance)
                    .buffer_chunks(2)
                    .io_cost_per_page(Duration::ZERO)
                    .store(Arc::new(Recycling(
                        SeededStore::new(100, 3, 7),
                        Arc::clone(&offers),
                    )))
                    .build();
                let scan = server.cscan(CScanPlan::new(
                    "churn",
                    ScanRanges::full(16),
                    model.all_columns(),
                ));
                while let Some(pin) = scan.next_chunk().unwrap() {
                    pin.complete();
                }
                let evictions = server.frame_pool_stats().evictions;
                assert!(evictions >= 14, "16 chunks went through 2 frames");
                // A worker offers after it dropped the lock, so its last offer
                // may trail the last delivery: dropping the server joins the
                // workers.
                drop(scan);
                drop(server);
                assert_eq!(offers.payloads.load(Ordering::Relaxed), evictions);
                assert!(!offers.under_lock.load(Ordering::Relaxed));
                // Whole payloads, all three columns of each: nothing shares
                // them any more, so they are the store's to reuse.
                let vectors = offers.vectors.load(Ordering::Relaxed);
                assert_eq!(
                    vectors,
                    3 * evictions,
                    "seed {seed}: shared payloads offered"
                );
            });
        }
    }

    /// A store whose `recycle` panics loses the payload it was offered and
    /// counts a worker panic; the one I/O worker lives on, so a scan that
    /// churns 16 chunks through 2 frames still ends.
    #[test]
    fn a_panicking_recycle_costs_the_payload_not_the_worker() {
        struct PanickingRecycle(SeededStore);
        impl ChunkStore for PanickingRecycle {
            fn materialize(
                &self,
                chunk: ChunkId,
                cols: Option<&[ColumnId]>,
            ) -> Result<ChunkPayload, StoreError> {
                self.0.materialize(chunk, cols)
            }
            fn recycle(&self, _payload: ChunkPayload) {
                panic!("recycle fails as arranged");
            }
        }
        let model = TableModel::nsm_uniform(16, 100, 16);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(2)
            .io_cost_per_page(Duration::ZERO)
            .io_threads(1)
            .store(Arc::new(PanickingRecycle(SeededStore::new(100, 3, 7))))
            .watched();
        let scan = server.cscan(CScanPlan::new(
            "churn",
            ScanRanges::full(16),
            model.all_columns(),
        ));
        let (done, delivered) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut seen = 0;
            while let Some(pin) = scan.next_chunk().unwrap() {
                pin.complete();
                seen += 1;
            }
            let _ = done.send(seen);
        });
        // 16 loads take milliseconds; a dead worker leaves the scan waiting
        // for ever, so the bound only has to be far above that.
        let seen = delivered
            .recv_timeout(Duration::from_secs(10))
            .expect("the scan ends within 10 s");
        assert_eq!(seen, 16);
        assert!(server.frame_pool_stats().evictions >= 14);
        assert!(counter(&server, Counter::WorkerPanics) >= 1);
        let dump = server
            .metrics()
            .last_flight_dump()
            .expect("a contained panic dumps the flight recorder");
        assert!(dump.contains("worker_panic"), "dump: {dump}");
        assert_eq!(server.pinned_frames(), 0);
    }

    /// Satellite regression: a `CScanPlan::from_zonemap` + `with_chunk_limit`
    /// scan that detaches mid-pipeline must release its frame pins and abort
    /// its in-flight loads — the PR 3 abort path extended to the data plane.
    #[test]
    fn zonemap_limit_detach_releases_pins_and_aborts_loads() {
        use cscan_storage::zonemap::ZoneEntry;
        use cscan_storage::ZoneMap;
        let model = TableModel::nsm_uniform(16, 100, 16);
        let store = SeededStore::new(100, 1, 3);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            // Two frames: the prefetcher can only run ahead by evicting what
            // the consumer just released, so a release always triggers a
            // fresh (slow) load for the detach below to abort.
            .buffer_chunks(2)
            // Slow reads so the detach happens with loads in flight.
            .io_cost_per_page(Duration::from_millis(1))
            .io_threads(4)
            .store(Arc::new(store))
            .watched();
        // A zonemap whose entries put chunks 2..14 in range.
        let zm = ZoneMap::new(
            ColumnId::new(0),
            (0..16).map(|c| ZoneEntry { min: c, max: c }).collect(),
        );
        let plan =
            CScanPlan::from_zonemap("limited", &zm, 2, 13, model.all_columns()).with_chunk_limit(2);
        assert_eq!(plan.num_chunks(&model), 12);
        let handle = server.cscan(plan);
        // Consume up to the limit while the 4-deep pipeline prefetches.
        let first = handle.next_chunk().unwrap().expect("chunk 1");
        first.complete();
        // Releasing chunk 1 frees the only evictable frame, so the pipeline
        // plans the next prefetch; wait until it is actually in flight
        // before tripping the limit (with eager grants the consumer can
        // otherwise race through its whole budget while every worker is
        // parked).
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.shared.lock_sched().core.state().num_inflight() == 0 {
            assert!(Instant::now() < deadline, "no prefetch ever started");
            std::thread::yield_now();
        }
        let second = handle.next_chunk().unwrap().expect("chunk 2");
        second.complete();
        // The limit trips here: the session detaches mid-scan.
        assert!(handle.next_chunk().unwrap().is_none());
        {
            let sched = server.shared.lock_sched();
            let state = sched.core.state();
            assert_eq!(state.num_queries(), 0, "the limited scan detached");
            assert_eq!(state.reserved_pages(), 0, "reservations released");
            assert_eq!(
                state.num_inflight(),
                0,
                "in-flight loads aborted eagerly at detach"
            );
        }
        assert_eq!(server.pinned_frames(), 0, "frame pins released");
        // The prefetches racing the detach drain as cancelled commits (the
        // ticket check) or were aborted before their read finished.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let aborted = {
                let sched = server.shared.lock_sched();
                sched.core.state().loads_aborted()
            };
            if aborted > 0 || counter(&server, Counter::LoadsCancelled) > 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "a 4-deep pipeline limited to 2 chunks must abort prefetches"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// A LIMIT-n scan of a resident table pins exactly n frames: the core
    /// closes it at the release of its n-th chunk, so no grant goes past
    /// the limit, and a scan that runs out of chunks is deregistered at
    /// its last release, before its handle finishes.  The answer after the
    /// n-th grant is the core's, so it waits for that pin's release.
    #[test]
    fn a_limited_scan_is_granted_exactly_its_limit() {
        use std::task::Poll;
        const CHUNKS: u32 = 16;
        let (server, model) = server(PolicyKind::Relevance, CHUNKS, CHUNKS as u64);
        let full = || CScanPlan::new("full", ScanRanges::full(CHUNKS), model.all_columns());
        let warmup = server.cscan(full());
        while let Some(pin) = warmup.next_chunk().unwrap() {
            pin.complete();
        }
        let queries = || server.shared.lock_sched().core.state().num_queries();
        assert_eq!(queries(), 0, "a drained scan closes at its last release");
        warmup.finish();
        for limit in 1..=3 {
            let before = server.frame_pool_stats();
            let handle = server.cscan(full().with_chunk_limit(limit));
            for _ in 0..limit {
                handle
                    .next_chunk()
                    .unwrap()
                    .expect("a granted chunk")
                    .complete();
            }
            assert_eq!(queries(), 0, "LIMIT {limit}: closed at its last release");
            assert!(handle.next_chunk().unwrap().is_none());
            let after = server.frame_pool_stats();
            assert_eq!(
                after.pins - before.pins,
                limit as u64,
                "LIMIT {limit}: pins"
            );
            assert_eq!(
                after.hits - before.hits,
                limit as u64,
                "LIMIT {limit}: grants"
            );
            assert_eq!(server.pinned_frames(), 0);
        }
        // Holding the last pin: the core closes the scan at its release.
        let handle = server.cscan(full().with_chunk_limit(2));
        handle.next_chunk().unwrap().expect("first").complete();
        let held = handle.next_chunk().unwrap().expect("second");
        let mut cx = Context::from_waker(Waker::noop());
        assert!(matches!(handle.poll_next_chunk(&mut cx), Ok(Poll::Pending)));
        held.complete();
        assert!(matches!(
            handle.poll_next_chunk(&mut cx),
            Ok(Poll::Ready(None))
        ));
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(
            server.io_requests(),
            CHUNKS as u64,
            "nothing was loaded again"
        );
    }

    /// Regression: consumers racing on a shared handle, blocking or
    /// polling, never deliver more than `limit_chunks` chunks: the core
    /// grants no more.  The two blocking racers wait on one slot with
    /// different doorbells, and every change must ring both: a missed one
    /// leaves its racer waiting until the deadline aborts the run.
    #[test]
    fn shared_handle_never_exceeds_its_chunk_limit() {
        use std::sync::Barrier;
        use std::task::Poll;
        const LIMIT: u32 = 3;
        const RACERS: usize = 4;
        for round in 0..200 {
            let (server, model, _store) = data_server(PolicyKind::Relevance, 8, 8, 1);
            let handle = Arc::new(
                server.cscan(
                    CScanPlan::new("shared-limit", ScanRanges::full(8), model.all_columns())
                        .with_chunk_limit(LIMIT),
                ),
            );
            let delivered = Arc::new(AtomicU32::new(0));
            let start = Arc::new(Barrier::new(RACERS));
            let racers: Vec<_> = (0..RACERS)
                .map(|i| {
                    let handle = Arc::clone(&handle);
                    let delivered = Arc::clone(&delivered);
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        loop {
                            // Odd racers block, even ones poll.
                            let next = if i % 2 == 1 {
                                handle.next_chunk().unwrap()
                            } else {
                                let mut cx = Context::from_waker(Waker::noop());
                                match handle.poll_next_chunk(&mut cx).unwrap() {
                                    Poll::Ready(next) => next,
                                    Poll::Pending => {
                                        std::thread::yield_now();
                                        continue;
                                    }
                                }
                            };
                            let Some(pin) = next else { break };
                            delivered.fetch_add(1, Ordering::Relaxed);
                            pin.complete();
                        }
                    })
                })
                .collect();
            for r in racers {
                r.join().unwrap();
            }
            assert_eq!(
                delivered.load(Ordering::Relaxed),
                LIMIT,
                "round {round}: a LIMIT-{LIMIT} scan must deliver exactly {LIMIT} chunks"
            );
            assert_eq!(server.pinned_frames(), 0, "round {round}");
            assert_eq!(
                counter(&server, Counter::UnconsumedDrops),
                0,
                "round {round}"
            );
        }
    }

    /// The event-driven path end to end: a poller that does nothing but
    /// `poll_next_chunk` and, on `Pending`, parks until its waker fires.
    /// There is no timeout to fall back on — a lost wake parks the thread
    /// for the whole five seconds and fails the test — so passing means
    /// every site that ends a wait took the waker: the grant deposit, a
    /// `finish()` from another thread, and a quarantine.  The blocking
    /// `next_chunk` is driven through the same three cases: it waits on its
    /// thread's doorbell, and a ring that never came leaves it waiting until
    /// the deadline aborts the run.
    #[test]
    fn poll_next_chunk_is_woken_by_the_deposit() {
        use std::task::Wake;

        /// Counts wakes and unparks the polling thread.
        struct Unpark {
            thread: std::thread::Thread,
            wakes: AtomicU32,
        }
        impl Wake for Unpark {
            fn wake(self: Arc<Self>) {
                self.wakes.fetch_add(1, Ordering::SeqCst);
                self.thread.unpark();
            }
        }
        let unpark = Arc::new(Unpark {
            thread: std::thread::current(),
            wakes: AtomicU32::new(0),
        });
        let waker = Waker::from(Arc::clone(&unpark));
        let mut cx = Context::from_waker(&waker);
        // Polls once; on `Pending`, parks until a wake that came after the
        // poll began (std allows spurious unparks, hence the counter).
        let mut poll_or_park = |handle: &CScanHandle| {
            let seen = unpark.wakes.load(Ordering::SeqCst);
            let polled = handle.poll_next_chunk(&mut cx);
            if matches!(polled, Ok(Poll::Pending)) {
                let deadline = Instant::now() + Duration::from_secs(5);
                while unpark.wakes.load(Ordering::SeqCst) == seen {
                    let left = deadline.saturating_duration_since(Instant::now());
                    assert!(!left.is_zero(), "parked 5 s: the wake was lost");
                    std::thread::park_timeout(left);
                }
            }
            polled
        };

        // Every load costs 16 pages x 125 us = 2 ms, so a consumer that
        // does no work finds the mailbox empty before nearly every chunk.
        let model = TableModel::nsm_uniform(32, 100, 16);
        let slow_server = |store: Arc<dyn ChunkStore>| {
            ScanServer::builder(model.clone())
                .policy(PolicyKind::Relevance)
                .buffer_chunks(4)
                .io_cost_per_page(Duration::from_micros(125))
                .store(store)
                .watched()
        };
        let server = slow_server(Arc::new(SeededStore::new(100, 1, 7)));
        let full = || CScanPlan::new("polled", ScanRanges::full(32), model.all_columns());

        // 1. Deposits wake the poller; every chunk arrives exactly once.
        let handle = server.cscan(full());
        let (mut seen, mut parks) = (vec![false; 32], 0);
        loop {
            match poll_or_park(&handle).expect("no faults injected") {
                Poll::Ready(Some(pin)) => {
                    let at = pin.chunk().index() as usize;
                    assert!(!std::mem::replace(&mut seen[at], true), "chunk {at} twice");
                    pin.complete();
                }
                Poll::Ready(None) => break,
                Poll::Pending => parks += 1,
            }
        }
        assert!(seen.iter().all(|&s| s), "every chunk delivered");
        assert!(parks >= 8, "only {parks} parks: the wake path barely ran");
        drop(handle);
        let waits = || {
            server
                .metrics()
                .span_hist(SpanKind::PinWait)
                .snapshot()
                .count()
        };
        let handle = server.cscan(full());
        let mut seen = [false; 32];
        while let Some(pin) = handle.next_chunk().expect("no faults injected") {
            let at = pin.chunk().index() as usize;
            assert!(!std::mem::replace(&mut seen[at], true), "chunk {at} twice");
            pin.complete();
        }
        assert!(seen.iter().all(|&s| s), "every chunk delivered");
        assert!(
            waits() >= 8,
            "only {} waits: the doorbell barely rang",
            waits()
        );
        drop(handle);

        // 2. `finish()` from another thread ends a parked poll with `None`.
        let handle = server.cscan(full());
        std::thread::scope(|s| {
            let mut finisher = None;
            loop {
                match poll_or_park(&handle).expect("no faults injected") {
                    Poll::Ready(Some(pin)) => pin.complete(),
                    Poll::Ready(None) => break,
                    // The waker is registered by now: finish under it.
                    Poll::Pending => {
                        finisher.get_or_insert_with(|| s.spawn(|| handle.finish()));
                    }
                }
            }
            assert!(finisher.is_some(), "the scan ended before it ever waited");
        });
        drop(handle);
        let handle = server.cscan(full());
        let delivered = std::thread::scope(|s| {
            s.spawn(|| {
                // A waker in the slot means the consumer waits: finish under it.
                loop {
                    let st = handle.slot.lock();
                    if !st.wakers.is_empty() || st.closed {
                        break;
                    }
                    drop(st);
                    std::thread::yield_now();
                }
                handle.finish();
            });
            let mut delivered = 0;
            while let Some(pin) = handle.next_chunk().expect("no faults injected") {
                pin.complete();
                delivered += 1;
            }
            delivered
        });
        assert!(delivered < 32, "the scan ended before it ever waited");
        drop(handle);
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);

        // 3. A quarantine ends a parked poll with the error.
        let doomed = FaultConfig {
            permanent_chunks: vec![3],
            ..FaultConfig::default()
        };
        let server = slow_server(Arc::new(FaultInjectingStore::new(
            SeededStore::new(100, 1, 7),
            doomed.clone(),
        )));
        let handle = server.cscan(CScanPlan::new(
            "doomed",
            ScanRanges::single(3, 4),
            model.all_columns(),
        ));
        let error = loop {
            match poll_or_park(&handle) {
                Ok(Poll::Pending) => {}
                Ok(Poll::Ready(_)) => panic!("the only chunk is unreadable"),
                Err(error) => break error,
            }
        };
        assert_eq!(error.chunk, cscan_storage::ChunkId::new(3));
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
        let server = slow_server(Arc::new(FaultInjectingStore::new(
            SeededStore::new(100, 1, 7),
            doomed,
        )));
        let handle = server.cscan(CScanPlan::new(
            "doomed",
            ScanRanges::single(3, 4),
            model.all_columns(),
        ));
        let error = handle
            .next_chunk()
            .expect_err("the only chunk is unreadable");
        assert_eq!(error.chunk, cscan_storage::ChunkId::new(3));
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    #[test]
    fn handle_is_a_scan_session_object() {
        let (server, model, _) = data_server(PolicyKind::Elevator, 6, 3, 1);
        let mut session: Box<dyn ScanSession> = Box::new(server.cscan(CScanPlan::new(
            "dyn",
            ScanRanges::full(6),
            model.all_columns(),
        )));
        assert_eq!(session.remaining_chunks(), 6);
        let mut rows = 0usize;
        while let Some(pin) = session.next_chunk().unwrap() {
            rows += pin.rows();
            pin.complete();
        }
        assert_eq!(rows, 600);
        session.detach();
        assert_eq!(session.remaining_chunks(), 0);
    }

    /// The storm test, data-plane edition: payload-carrying scans attach,
    /// detach mid-scan (some while holding pins) and complete from many
    /// threads.  Nothing may leak: no frame pins, no reservations, no
    /// queries, and the pool's pin ledger drains to zero.
    #[test]
    fn payload_storm_leaks_no_pins() {
        let model = TableModel::nsm_uniform(32, 100, 16);
        let store = SeededStore::new(100, 2, 11);
        let server = Arc::new(
            ScanServer::builder(model.clone())
                .policy(PolicyKind::Relevance)
                .buffer_chunks(8)
                .io_cost_per_page(Duration::from_micros(20))
                .io_threads(4)
                .store(Arc::new(store.clone()))
                .watched(),
        );
        let workers: Vec<_> = (0..8)
            .map(|t: u32| {
                let server = Arc::clone(&server);
                let model = model.clone();
                let store = store.clone();
                std::thread::spawn(move || {
                    for round in 0..4u32 {
                        let start = (t * 5 + round * 9) % 24;
                        let handle = server.cscan(CScanPlan::new(
                            format!("storm-{t}-{round}"),
                            ScanRanges::single(start, start + 8),
                            model.all_columns(),
                        ));
                        if (t + round).is_multiple_of(3) {
                            // Detach *while holding a pin*: the pin outlives
                            // the registration and must release cleanly.
                            if let Some(pin) = handle.next_chunk().unwrap() {
                                handle.finish();
                                assert_eq!(pin.rows(), 100);
                                pin.complete();
                            }
                        } else {
                            let mut n = 0;
                            while let Some(pin) = handle.next_chunk().unwrap() {
                                let c = pin.chunk();
                                let v = pin.column(ColumnId::new(1)).unwrap()[0];
                                assert_eq!(v, store.value(c, 0, ColumnId::new(1)));
                                pin.complete();
                                n += 1;
                            }
                            assert_eq!(n, 8, "scan storm-{t}-{round} lost chunks");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let sched = server.shared.lock_sched();
                let state = sched.core.state();
                if state.num_inflight() == 0 {
                    assert_eq!(state.num_queries(), 0);
                    assert_eq!(state.reserved_pages(), 0, "leaked reservations");
                    assert_eq!(state.pinned_frames(), 0, "leaked frame pins");
                    // Every resident chunk holds its data.
                    for b in state.buffered() {
                        assert!(!b.payload.is_missing(), "{:?} holds no data", b.chunk);
                    }
                    break;
                }
            }
            assert!(Instant::now() < deadline, "in-flight loads never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    // ------------------------------------------------------------------
    // Compressed payloads: verify at install, decode at first touch.
    // ------------------------------------------------------------------

    use cscan_storage::{write_store, Compression, FileStore, ScratchPath};

    fn pfor21() -> Compression {
        Compression::Pfor {
            bits: 21,
            exception_rate: 0.02,
        }
    }

    /// Chunks `0..chunks` of `inner`, column `i` under `schemes[i]`,
    /// written once as a segment file and served by a [`FileStore`]; the
    /// open file outlives its path.
    fn compressed(inner: &SeededStore, chunks: u32, schemes: Vec<Compression>) -> FileStore {
        let path = ScratchPath::new("threaded");
        write_store(&path, inner, chunks, schemes).expect("write the segment");
        FileStore::open(&path).expect("open the segment")
    }

    /// The first touch of a column decodes it once; every later pin of the
    /// buffered chunk hits the decoded state, and the delivered values are
    /// bit-identical to the uncompressed store.
    #[test]
    fn compressed_payloads_decode_on_first_pin_only() {
        const CHUNKS: u32 = 8;
        const ROWS: u64 = 256;
        let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
        let inner = SeededStore::new(ROWS, 2, 13);
        let store = compressed(&inner, CHUNKS, vec![pfor21(), pfor21()]);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(CHUNKS as u64) // everything stays resident
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store))
            .watched();
        let scan = |label: &str| {
            let handle = server.cscan(CScanPlan::new(
                label.to_string(),
                ScanRanges::full(CHUNKS),
                model.all_columns(),
            ));
            let mut seen = 0;
            while let Some(pin) = handle.next_chunk().unwrap() {
                for c in 0..2u16 {
                    let col = ColumnId::new(c);
                    let values = pin.column(col).expect("column present");
                    for (row, &v) in values.iter().enumerate() {
                        assert_eq!(v, inner.value(pin.chunk(), row as u64, col));
                    }
                }
                pin.complete();
                seen += 1;
            }
            handle.finish();
            assert_eq!(seen, CHUNKS);
        };
        scan("first");
        let decoded_once = counter(&server, Counter::ValuesDecoded);
        assert_eq!(
            decoded_once,
            CHUNKS as u64 * ROWS * 2,
            "the first scan decodes every mini-column exactly once"
        );
        assert_eq!(
            server.compressed_frames(),
            0,
            "after the first scan every resident frame is decoded"
        );
        // A second scan over the fully resident table re-pins the decoded
        // frames: no further decodes, no extra loads.
        scan("second");
        assert_eq!(
            counter(&server, Counter::ValuesDecoded),
            decoded_once,
            "re-pins must hit the decoded state"
        );
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// Eviction drops the decoded state with the frame: a re-loaded chunk
    /// arrives as fresh encoded bytes and its first reader decodes again.
    #[test]
    fn eviction_drops_decoded_state_and_reload_redecodes() {
        const CHUNKS: u32 = 8;
        const ROWS: u64 = 128;
        let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
        let store = compressed(&SeededStore::new(ROWS, 1, 29), CHUNKS, vec![pfor21()]);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(2) // a tiny pool: scans churn through evictions
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store))
            .watched();
        for round in 0..2 {
            let handle = server.cscan(CScanPlan::new(
                format!("round-{round}"),
                ScanRanges::full(CHUNKS),
                model.all_columns(),
            ));
            while let Some(pin) = handle.next_chunk().unwrap() {
                assert!(pin.column(ColumnId::new(0)).is_some());
                pin.complete();
            }
            handle.finish();
        }
        assert!(
            server.frame_pool_stats().evictions > 0,
            "the tiny pool must have evicted"
        );
        assert!(
            counter(&server, Counter::ValuesDecoded) > CHUNKS as u64 * ROWS,
            "re-loaded chunks must decode again after eviction: {} values",
            counter(&server, Counter::ValuesDecoded)
        );
        assert!(
            counter(&server, Counter::DecodeNanos)
                <= server.metrics().query_total(QueryCounter::PinWaitNanos),
            "decode time is accounted inside pin-wait"
        );
    }

    /// Verify at install, decode at first touch: a plan pays for the
    /// columns it reads.  Six compressed columns, a consumer that reads two
    /// — exactly two columns' worth of values is decoded, and the other
    /// four are still encoded bytes in the buffer when the scan is over.
    #[test]
    fn only_the_columns_a_consumer_touches_are_decoded() {
        const CHUNKS: u32 = 6;
        const ROWS: u64 = 200;
        const TOUCHED: [u16; 2] = [1, 4];
        let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
        let inner = SeededStore::new(ROWS, 6, 31);
        let store = compressed(&inner, CHUNKS, vec![pfor21(); 6]);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(CHUNKS as u64) // everything stays resident
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store))
            .watched();
        let handle = server.cscan(CScanPlan::new(
            "two-of-six",
            ScanRanges::full(CHUNKS),
            model.all_columns(),
        ));
        let decoded_columns = |payload: &ChunkPayload| -> Vec<u16> {
            (0..6u16)
                .filter(|&c| payload.part(ColumnId::new(c)).unwrap().is_decoded())
                .collect()
        };
        while let Some(pin) = handle.next_chunk().unwrap() {
            assert!(
                decoded_columns(pin.payload()).is_empty(),
                "a pin on its own decodes nothing"
            );
            for c in TOUCHED {
                let col = ColumnId::new(c);
                let values = pin.column(col).expect("column present");
                for (row, &v) in values.iter().enumerate() {
                    assert_eq!(v, inner.value(pin.chunk(), row as u64, col));
                }
            }
            assert_eq!(decoded_columns(pin.payload()), TOUCHED);
            pin.complete();
        }
        handle.finish();
        assert_eq!(
            counter(&server, Counter::ValuesDecoded),
            CHUNKS as u64 * ROWS * 2
        );
        for c in 0..CHUNKS {
            let resident = server
                .shared
                .lock_sched()
                .core
                .state()
                .buffered_chunk(ChunkId::new(c))
                .map(|b| &b.payload)
                .cloned()
                .unwrap();
            assert_eq!(decoded_columns(&resident), TOUCHED, "chunk {c}");
        }
        assert_eq!(server.compressed_frames(), CHUNKS as usize);
        assert!(
            counter(&server, Counter::DecodeNanos)
                <= server.metrics().query_total(QueryCounter::PinWaitNanos),
            "a first-touch decode is accounted as the query's pin-wait"
        );
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// Two scans hold a pin on the same buffered chunk and touch the same
    /// columns at the same moment: each column is decoded once — the loser
    /// of the race waits for the winner's vector — and both read it.
    #[test]
    fn racing_pins_decode_each_touched_column_once() {
        const ROWS: u64 = 512;
        let model = TableModel::nsm_uniform(1, ROWS, 16);
        for round in 0..16 {
            let store = compressed(&SeededStore::new(ROWS, 3, round), 1, vec![pfor21(); 3]);
            let server = ScanServer::builder(model.clone())
                .policy(PolicyKind::Relevance)
                .buffer_chunks(1)
                .io_cost_per_page(Duration::ZERO)
                .store(Arc::new(store))
                .watched();
            let pinned = std::sync::Barrier::new(2);
            let read = |label: &str| {
                let handle = server.cscan(CScanPlan::new(
                    label.to_string(),
                    ScanRanges::full(1),
                    model.all_columns(),
                ));
                let pin = handle.next_chunk().unwrap().expect("the one chunk");
                // Both scans hold their pin before either touches a column.
                pinned.wait();
                let values: Vec<Arc<Vec<i64>>> = [0u16, 2]
                    .iter()
                    .map(|&c| pin.shared_column(ColumnId::new(c)).expect("column present"))
                    .collect();
                pin.complete();
                values
            };
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| read("a"));
                let b = s.spawn(|| read("b"));
                (a.join().unwrap(), b.join().unwrap())
            });
            for (a, b) in a.iter().zip(&b) {
                assert!(Arc::ptr_eq(a, b), "both scans read the one decoded vector");
            }
            assert_eq!(
                counter(&server, Counter::ValuesDecoded),
                ROWS * 2,
                "round {round}"
            );
            assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
        }
    }

    /// A grant carries the payload it pinned, and that payload is what the
    /// frame holds for every column the query reads.  On a column store a
    /// narrow scan holds a grant while a wide scan's load merges more
    /// columns into the same pinned frame; a later plan reclaims dead
    /// columns, shrinking the narrow scan's other frame and not the pinned
    /// one.  The narrow scan then reads the store's values through both,
    /// and every column is decoded once.
    #[test]
    fn a_grant_reads_what_it_pinned_across_a_merge_and_a_shrink() {
        const ROWS: u64 = 256;
        let model = TableModel::dsm_uniform(4, ROWS, &[3; 3]);
        let inner = SeededStore::new(ROWS, 3, 41);
        let store = compressed(&inner, 4, vec![pfor21(); 3]);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            // Three full-width chunks and one column of a fourth: the four
            // chunks fit only once one of them is down to column 0.
            .buffer_pages(30)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store))
            .watched();
        let col0 = ColumnId::new(0);
        let columns_of = |payload: &ChunkPayload| -> Vec<u16> {
            match payload {
                ChunkPayload::Data(data) => data.column_ids().map(ColumnId::index).collect(),
                ChunkPayload::Missing => Vec::new(),
            }
        };
        // Column 0 of chunks 0 and 1; the first to arrive is granted.
        let narrow = server.cscan(CScanPlan::new(
            "narrow",
            ScanRanges::single(0, 2),
            ColSet::first_n(1),
        ));
        let deadline = Instant::now() + Duration::from_secs(5);
        let granted = loop {
            if let Some((chunk, payload)) = &narrow.slot.lock().grant {
                assert_eq!(columns_of(payload), [0]);
                break *chunk;
            }
            assert!(
                Instant::now() < deadline,
                "the narrow scan was never granted"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        let other = ChunkId::new(1 - granted.index());
        // The wide scan loads the missing columns of both chunks — merges,
        // one of them into the pinned frame — and decodes all three.
        let wide = server.cscan(CScanPlan::new(
            "wide",
            ScanRanges::single(0, 2),
            model.all_columns(),
        ));
        while let Some(pin) = wide.next_chunk().unwrap() {
            for c in 0..3u16 {
                let col = ColumnId::new(c);
                let values = pin.column(col).expect("column present");
                for (row, &v) in values.iter().enumerate() {
                    assert_eq!(v, inner.value(pin.chunk(), row as u64, col));
                }
            }
            pin.complete();
        }
        wide.finish();
        assert_eq!(
            columns_of(
                server
                    .shared
                    .lock_sched()
                    .core
                    .state()
                    .buffered_chunk(granted)
                    .map(|b| &b.payload)
                    .unwrap()
            )
            .len(),
            3,
            "the merge reached the pinned frame"
        );
        // A full-width scan of the other two chunks needs their pages: the
        // plans reclaim the dead columns 1 and 2 of the unpinned frame.
        // The granted frame is pinned in the ABM, so no plan can touch it.
        let later = server.cscan(CScanPlan::new(
            "later",
            ScanRanges::single(2, 4),
            model.all_columns(),
        ));
        while let Some(pin) = later.next_chunk().unwrap() {
            pin.complete();
        }
        later.finish();
        {
            let sched = server.shared.lock_sched();
            let state = sched.core.state();
            assert_eq!(
                columns_of(state.buffered_chunk(other).map(|b| &b.payload).unwrap()),
                [0],
                "shrunk"
            );
            let granted = state.buffered_chunk(granted).unwrap();
            assert_eq!(columns_of(&granted.payload).len(), 3);
            assert_eq!(granted.pinned_by.len(), 1);
        }
        // The narrow scan takes its grant — the pre-merge payload — and
        // then the shrunk frame: the store's values, decoded by the wide
        // scan into the column vectors all three frames share.
        let mut seen = Vec::new();
        while let Some(pin) = narrow.next_chunk().unwrap() {
            assert_eq!(columns_of(pin.payload()), [0]);
            let values = pin.column(col0).expect("column 0 survives");
            for (row, &v) in values.iter().enumerate() {
                assert_eq!(v, inner.value(pin.chunk(), row as u64, col0));
            }
            seen.push(pin.chunk());
            pin.complete();
        }
        narrow.finish();
        assert_eq!(seen, [granted, other]);
        assert_eq!(
            counter(&server, Counter::ValuesDecoded),
            2 * 3 * ROWS,
            "each column of chunks 0 and 1 decoded once"
        );
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// A store whose chunk `bad_chunk` carries, in column `bad_column`, a
    /// body cut short by a buggy writer: the checksum was computed over the
    /// bytes as written, so it verifies; the codec cannot decode it.
    struct MalformedColumn {
        inner: FileStore,
        bad_chunk: u32,
        bad_column: usize,
    }

    impl ChunkStore for MalformedColumn {
        fn materialize(
            &self,
            chunk: ChunkId,
            cols: Option<&[ColumnId]>,
        ) -> Result<ChunkPayload, StoreError> {
            use cscan_storage::{ChunkData, LazyColumn};
            let payload = self.inner.materialize(chunk, cols)?;
            let ChunkPayload::Data(data) = &payload else {
                return Ok(payload);
            };
            if chunk.index() != self.bad_chunk {
                return Ok(payload);
            }
            let mut parts = data.parts().to_vec();
            let ColumnChunk::Compressed(lazy) = &parts[self.bad_column].1 else {
                panic!("the inner store compresses every column");
            };
            let cut = lazy.encoded().truncated();
            assert!(cut.verify_checksum());
            parts[self.bad_column].1 = ColumnChunk::Compressed(Arc::new(LazyColumn::new(cut)));
            Ok(ChunkData::from_parts(parts).into())
        }
    }

    /// A checksum-valid column the codec cannot decode: the panic is
    /// contained where the column is touched, the scan that touched it ends
    /// with `Corrupted` (re-reading the same bytes could only panic again,
    /// so nothing is retried), and a concurrent scan of the same chunks
    /// that reads other columns never notices.
    #[test]
    fn malformed_column_fails_the_scan_that_touches_it_and_no_other() {
        const CHUNKS: u32 = 8;
        const ROWS: u64 = 300;
        const BAD_CHUNK: u32 = 5;
        let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
        let inner = SeededStore::new(ROWS, 3, 41);
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(3)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(MalformedColumn {
                inner: compressed(&inner, CHUNKS, vec![pfor21(); 3]),
                bad_chunk: BAD_CHUNK,
                bad_column: 2,
            }))
            .watched();
        let scan = |label: &str, column: u16| {
            let col = ColumnId::new(column);
            let handle = server.cscan(CScanPlan::new(
                label.to_string(),
                ScanRanges::full(CHUNKS),
                model.all_columns(),
            ));
            let mut seen = 0u32;
            loop {
                match handle.next_chunk() {
                    Ok(Some(pin)) => {
                        match pin.try_column(col) {
                            Ok(values) => {
                                let values = values.expect("column present");
                                assert_eq!(values[7], inner.value(pin.chunk(), 7, col));
                                seen += 1;
                            }
                            Err(error) => {
                                assert_eq!(pin.chunk().index(), BAD_CHUNK);
                                assert_eq!(error.cause, StoreError::Corrupted);
                                assert!(pin.column(col).is_none());
                            }
                        }
                        pin.complete();
                    }
                    Ok(None) => return (seen, None),
                    Err(error) => {
                        assert_eq!(handle.next_chunk().unwrap_err(), error, "sticky");
                        return (seen, Some(error));
                    }
                }
            }
        };
        let (doomed, healthy) = std::thread::scope(|s| {
            let doomed = s.spawn(|| scan("doomed", 2));
            let healthy = s.spawn(|| scan("healthy", 0));
            (doomed.join().unwrap(), healthy.join().unwrap())
        });
        assert_eq!(healthy, (CHUNKS, None), "the other scan completes");
        let (seen, error) = doomed;
        assert!(seen < CHUNKS);
        assert_eq!(
            error,
            Some(ScanError {
                chunk: ChunkId::new(BAD_CHUNK),
                cause: StoreError::Corrupted,
            })
        );
        assert!(counter(&server, Counter::WorkerPanics) >= 1);
        assert_eq!(counter(&server, Counter::QueriesErred), 1);
        assert_eq!(
            counter(&server, Counter::ChunksQuarantined),
            0,
            "the chunk stays readable"
        );
        assert_eq!(
            counter(&server, Counter::ChecksumFailures),
            0,
            "the bytes were never torn"
        );
        let dump = server
            .metrics()
            .last_flight_dump()
            .expect("a contained panic dumps the flight recorder");
        assert!(dump.contains("worker_panic"), "dump: {dump}");
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    // ------------------------------------------------------------------
    // Fault tolerance: injected failures, retries, quarantine, panics.
    // ------------------------------------------------------------------

    use cscan_storage::{FaultConfig, FaultInjectingStore, StoreError};

    #[test]
    fn transient_faults_retry_to_completion() {
        let model = TableModel::nsm_uniform(20, 100, 16);
        let inner = SeededStore::new(100, 2, 7);
        let store =
            FaultInjectingStore::new(inner.clone(), FaultConfig::transient_only(0xBAD5, 0.25));
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(5)
            .io_cost_per_page(Duration::ZERO)
            .retry_policy(RetryPolicy {
                backoff_base: Duration::from_micros(10),
                ..RetryPolicy::default()
            })
            .store(Arc::new(store))
            .watched();
        let handle = server.cscan(CScanPlan::new(
            "flaky",
            ScanRanges::full(20),
            model.all_columns(),
        ));
        let mut seen = 0;
        while let Some(pin) = handle
            .next_chunk()
            .expect("transient faults must be retried away")
        {
            let values = pin.column(ColumnId::new(0)).expect("column present");
            assert_eq!(values[0], inner.value(pin.chunk(), 0, ColumnId::new(0)));
            pin.complete();
            seen += 1;
        }
        assert_eq!(seen, 20, "every chunk delivered despite the fault rate");
        assert!(
            counter(&server, Counter::LoadFaults) > 0,
            "the fault stream fired"
        );
        assert_eq!(
            counter(&server, Counter::LoadFaults),
            counter(&server, Counter::LoadRetries)
        );
        assert_eq!(counter(&server, Counter::ChunksQuarantined), 0);
        assert_eq!(counter(&server, Counter::QueriesErred), 0);
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    #[test]
    fn permanent_chunk_quarantines_and_errs_interested_queries_only() {
        let model = TableModel::nsm_uniform(12, 100, 16);
        let inner = SeededStore::new(100, 1, 5);
        let config = FaultConfig {
            permanent_chunks: vec![3],
            ..FaultConfig::default()
        };
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(FaultInjectingStore::new(inner, config)))
            .watched();
        let doomed = server.cscan(CScanPlan::new(
            "doomed",
            ScanRanges::single(0, 6),
            model.all_columns(),
        ));
        let healthy = server.cscan(CScanPlan::new(
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
        assert_eq!(error.chunk, cscan_storage::ChunkId::new(3));
        assert_eq!(error.cause, StoreError::Permanent);
        assert_eq!(
            doomed.next_chunk().unwrap_err(),
            error,
            "the error is sticky"
        );
        // The disjoint scan is untouched by the quarantine.
        let mut n = 0;
        while let Some(pin) = healthy.next_chunk().expect("disjoint scan unaffected") {
            pin.complete();
            n += 1;
        }
        assert_eq!(n, 6);
        assert_eq!(counter(&server, Counter::ChunksQuarantined), 1);
        assert_eq!(counter(&server, Counter::QueriesErred), 1);
        // A query registered *after* the quarantine gets the error too — the
        // plan-time short-circuit, without ever touching the store again.
        let late = server.cscan(CScanPlan::new(
            "late",
            ScanRanges::single(3, 4),
            model.all_columns(),
        ));
        let late_err = loop {
            match late.next_chunk() {
                Ok(Some(pin)) => pin.complete(),
                Ok(None) => panic!("the late query must err"),
                Err(e) => break e,
            }
        };
        assert_eq!(late_err, error);
        // Quarantine is what the flight recorder exists for: the run-up is
        // dumped automatically on the engine an operator runs.
        let dump = server
            .metrics()
            .last_flight_dump()
            .expect("quarantine must dump the flight recorder");
        assert!(dump.contains("chunk_quarantined"), "dump: {dump}");
        assert!(dump.contains("query_erred"), "dump: {dump}");
        // No leaks after the dust settles.
        let sched = server.shared.lock_sched();
        assert_eq!(sched.core.state().reserved_pages(), 0);
        assert_eq!(sched.core.state().pinned_frames(), 0);
        drop(sched);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    #[test]
    fn corrupted_payloads_fail_install_checksums_and_retry_clean() {
        const ROWS: u64 = 128;
        let model = TableModel::nsm_uniform(16, ROWS, 16);
        let inner = SeededStore::new(ROWS, 2, 17);
        let store = compressed(&inner, 16, vec![pfor21(), pfor21()]);
        let config = FaultConfig {
            seed: 0xC0FFEE,
            corruption_rate: 0.4,
            ..FaultConfig::default()
        };
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_cost_per_page(Duration::ZERO)
            .retry_policy(RetryPolicy {
                backoff_base: Duration::from_micros(10),
                ..RetryPolicy::default()
            })
            .store(Arc::new(FaultInjectingStore::new(store, config)))
            .watched();
        let handle = server.cscan(CScanPlan::new(
            "torn",
            ScanRanges::full(16),
            model.all_columns(),
        ));
        let mut seen = 0;
        while let Some(pin) = handle
            .next_chunk()
            .expect("corruption must be retried away")
        {
            // Every delivered value survived the install-time checksum bit-exact.
            for c in 0..2u16 {
                let col = ColumnId::new(c);
                let values = pin.column(col).expect("column present");
                for (row, &v) in values.iter().enumerate() {
                    assert_eq!(v, inner.value(pin.chunk(), row as u64, col));
                }
            }
            pin.complete();
            seen += 1;
        }
        assert_eq!(seen, 16);
        assert!(
            counter(&server, Counter::ChecksumFailures) > 0,
            "install-time verification must catch flipped bytes"
        );
        assert_eq!(counter(&server, Counter::ChunksQuarantined), 0);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// Every way a scan fails closes it through the core with its error, so
    /// each erred scan is counted once in `queries_erred` and writes one
    /// `query_erred` flight event, however often its handle reports the
    /// error: a quarantined chunk, a column that cannot be decoded at first
    /// touch, and a chunk whose every read fails its install-time checksum,
    /// past the retry budget (here, one attempt).
    #[test]
    fn every_erred_scan_is_counted_and_logged_once() {
        const ROWS: u64 = 128;
        let model = TableModel::nsm_uniform(8, ROWS, 16);
        let build = |store: Arc<dyn ChunkStore>, buffer_chunks: u64| {
            ScanServer::builder(model.clone())
                .policy(PolicyKind::Relevance)
                .buffer_chunks(buffer_chunks)
                .io_cost_per_page(Duration::ZERO)
                .retry_policy(RetryPolicy::no_retries())
                .store(store)
                .watched()
        };
        let scan = |server: &ScanServer, ranges: ScanRanges| {
            server.cscan(CScanPlan::new("erring", ranges, model.all_columns()))
        };
        // Drives `handle` to its error, touching column 0 of every chunk,
        // checks the error was recorded once, and returns it with the
        // number of chunks delivered.
        let fails_once = |server: &ScanServer, handle: CScanHandle, chunk: u32| {
            let mut delivered = 0;
            let error = loop {
                match handle.next_chunk() {
                    Ok(Some(pin)) => {
                        let _ = pin.try_column(ColumnId::new(0));
                        pin.complete();
                        delivered += 1;
                    }
                    Ok(None) => panic!("the scan must err"),
                    Err(error) => break error,
                }
            };
            assert_eq!(error.chunk, ChunkId::new(chunk));
            assert_eq!(handle.next_chunk().unwrap_err(), error, "sticky");
            drop(handle);
            assert_eq!(counter(server, Counter::QueriesErred), 1);
            let dump = server.metrics().dump_flight("test");
            assert_eq!(dump.matches("query_erred").count(), 1, "dump: {dump}");
            assert_eq!(server.pinned_frames(), 0);
            (error, delivered)
        };

        let doomed = FaultConfig {
            permanent_chunks: vec![3],
            ..FaultConfig::default()
        };
        let inner = SeededStore::new(ROWS, 1, 23);
        let quarantining = build(Arc::new(FaultInjectingStore::new(inner.clone(), doomed)), 4);
        fails_once(
            &quarantining,
            scan(&quarantining, ScanRanges::single(2, 5)),
            3,
        );

        let malformed = build(
            Arc::new(MalformedColumn {
                inner: compressed(&inner, 8, vec![pfor21()]),
                bad_chunk: 5,
                bad_column: 0,
            }),
            4,
        );
        fails_once(&malformed, scan(&malformed, ScanRanges::full(8)), 5);

        let tearing = FaultConfig {
            corruption_rate: 1.0,
            ..FaultConfig::default()
        };
        let torn_store = Arc::new(FaultInjectingStore::new(
            compressed(&inner, 8, vec![pfor21()]),
            tearing,
        ));
        let torn = build(torn_store.clone(), 4);
        let (error, delivered) = fails_once(&torn, scan(&torn, ScanRanges::single(0, 1)), 0);
        assert_eq!(error.cause, StoreError::Corrupted);
        assert_eq!(delivered, 0, "no torn value is delivered");
        // Every read is torn, so each read made is one corruption injected.
        let reads = torn_store.corruptions_injected();
        assert_eq!(reads, 1, "one attempt, no retry");
        assert_eq!(counter(&torn, Counter::ChecksumFailures), reads);
    }

    /// A store that panics on one chunk: the worker must contain the panic
    /// (no dead threads, no wedged hub), quarantine the chunk, and err only
    /// the queries that need it.
    #[test]
    fn panicking_store_is_contained_as_a_quarantine() {
        struct PanickingStore {
            inner: SeededStore,
            bad: u32,
        }
        impl ChunkStore for PanickingStore {
            fn materialize(
                &self,
                chunk: cscan_storage::ChunkId,
                cols: Option<&[ColumnId]>,
            ) -> Result<ChunkPayload, StoreError> {
                assert!(chunk.index() != self.bad, "injected panic for {chunk:?}");
                self.inner.materialize(chunk, cols)
            }
        }
        let model = TableModel::nsm_uniform(8, 100, 16);
        let store = PanickingStore {
            inner: SeededStore::new(100, 1, 31),
            bad: 5,
        };
        let server = ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_cost_per_page(Duration::ZERO)
            .store(Arc::new(store))
            .watched();
        let doomed = server.cscan(CScanPlan::new(
            "doomed",
            ScanRanges::full(8),
            model.all_columns(),
        ));
        let error = loop {
            match doomed.next_chunk() {
                Ok(Some(pin)) => pin.complete(),
                Ok(None) => panic!("the scan must err on the panicking chunk"),
                Err(e) => break e,
            }
        };
        assert_eq!(error.chunk, cscan_storage::ChunkId::new(5));
        assert!(
            counter(&server, Counter::WorkerPanics) >= 1,
            "the panic was caught"
        );
        // The server survived: a scan avoiding the bad chunk runs clean.
        let ok = server.cscan(CScanPlan::new(
            "ok",
            ScanRanges::single(0, 4),
            model.all_columns(),
        ));
        let mut n = 0;
        while let Some(pin) = ok.next_chunk().expect("healthy range unaffected") {
            pin.complete();
            n += 1;
        }
        assert_eq!(n, 4);
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// Satellite: the attach/detach storm under an injected fault stream —
    /// transient failures and corrupted payloads on a compressed store, with
    /// scans cancelling mid-flight.  Nothing may leak and nothing may wedge.
    #[test]
    fn fault_storm_leaks_nothing() {
        const ROWS: u64 = 64;
        let model = TableModel::nsm_uniform(32, ROWS, 16);
        let inner = SeededStore::new(ROWS, 1, 41);
        let store = compressed(&inner, 32, vec![pfor21()]);
        let config = FaultConfig {
            seed: 0x57AB1E,
            fault_rate: 0.15,
            corruption_rate: 0.05,
            latency_spike_rate: 0.02,
            latency_spike: Duration::from_micros(200),
            ..FaultConfig::default()
        };
        let server = Arc::new(
            ScanServer::builder(model.clone())
                .policy(PolicyKind::Relevance)
                .buffer_chunks(8)
                .io_cost_per_page(Duration::from_micros(10))
                .io_threads(4)
                .retry_policy(RetryPolicy {
                    backoff_base: Duration::from_micros(20),
                    ..RetryPolicy::default()
                })
                .store(Arc::new(FaultInjectingStore::new(store, config)))
                .watched(),
        );
        let workers: Vec<_> = (0..8)
            .map(|t: u32| {
                let server = Arc::clone(&server);
                let model = model.clone();
                let inner = inner.clone();
                std::thread::spawn(move || {
                    for round in 0..4u32 {
                        let start = (t * 5 + round * 9) % 24;
                        let handle = server.cscan(CScanPlan::new(
                            format!("storm-{t}-{round}"),
                            ScanRanges::single(start, start + 8),
                            model.all_columns(),
                        ));
                        if (t + round).is_multiple_of(3) {
                            for _ in 0..2 {
                                match handle.next_chunk() {
                                    Ok(Some(pin)) => pin.complete(),
                                    Ok(None) | Err(_) => break,
                                }
                            }
                            handle.finish();
                        } else {
                            let mut n = 0;
                            loop {
                                match handle.next_chunk() {
                                    Ok(Some(pin)) => {
                                        let v = pin.column(ColumnId::new(0)).unwrap()[0];
                                        assert_eq!(
                                            v,
                                            inner.value(pin.chunk(), 0, ColumnId::new(0))
                                        );
                                        pin.complete();
                                        n += 1;
                                    }
                                    Ok(None) => break,
                                    Err(e) => panic!("transient-only stream quarantined: {e}"),
                                }
                            }
                            assert_eq!(n, 8, "scan storm-{t}-{round} lost chunks");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(
            counter(&server, Counter::LoadFaults) > 0,
            "the fault stream fired"
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            {
                let sched = server.shared.lock_sched();
                let state = sched.core.state();
                if state.num_inflight() == 0 {
                    assert_eq!(state.num_queries(), 0);
                    assert!(
                        sched.core.registered().next().is_none(),
                        "leaked grant slots"
                    );
                    assert_eq!(state.reserved_pages(), 0, "leaked reservations");
                    assert_eq!(state.pinned_frames(), 0, "leaked frame pins");
                    break;
                }
            }
            assert!(Instant::now() < deadline, "in-flight loads never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
    }

    /// A pin dropped on a thread that holds the scheduler lock would wait
    /// for that lock forever in its release; debug builds refuse it first.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "released on a thread that holds the scheduler lock")]
    fn releasing_a_pin_under_the_scheduler_lock_panics() {
        let (server, model) = server(PolicyKind::Relevance, 2, 2);
        let handle = server.cscan(CScanPlan::new(
            "held",
            ScanRanges::full(2),
            model.all_columns(),
        ));
        let pin = handle.next_chunk().unwrap().expect("a chunk");
        let _sched = server.shared.lock_sched();
        drop(pin);
    }

    /// A waker fired under the scheduler lock would wake a thread only to
    /// queue it behind the holder; debug builds refuse the ring.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a doorbell rang on a thread that holds the scheduler lock")]
    fn ringing_a_doorbell_under_the_scheduler_lock_panics() {
        let (server, _) = server(PolicyKind::Relevance, 2, 2);
        let _sched = server.shared.lock_sched();
        Doorbell::default().ring();
    }

    #[test]
    fn lock_histogram_quantiles_are_ordered() {
        let (server, model) = server(PolicyKind::Relevance, 10, 4);
        let handle = server.cscan(CScanPlan::new(
            "h",
            ScanRanges::full(10),
            model.all_columns(),
        ));
        while let Some(g) = handle.next_chunk().unwrap() {
            g.complete();
        }
        let snap = server.metrics().span_hist(SpanKind::LockHold).snapshot();
        assert!(snap.count() > 0);
        let p50 = snap.quantile_upper(0.5);
        let p99 = snap.quantile_upper(0.99);
        assert!(p50 <= p99 && p99 <= snap.max_value());
        assert_eq!(snap.counts().len(), cscan_obs::HISTOGRAM_BUCKETS);
    }

    /// Scenarios run under the seeded schedule controller of the crate's
    /// `sync` module: one thread at a time, switching at the executor's
    /// synchronisation points by PCT's rule, so a seed replays its
    /// schedule, and a run fails the moment every live thread waits — a
    /// deadlock, or a wake-up nobody sent.
    mod explored {
        use super::*;
        use crate::policy::Policy;
        use crate::sync::{explore, spawn};
        use cscan_storage::{FaultConfig, FaultInjectingStore, SeededStore};

        /// Seeds per scenario.
        const SEEDS: u64 = 64;

        fn lcg(state: &mut u64) -> u64 {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 33
        }

        /// Scanner threads whose scripts — consume, drop a pin without
        /// completing it, abandon the scan, detach by drop, yield — a
        /// per-thread PRNG picks, over a server of a seed-derived shape
        /// (policy, buffer, workers); every run must drain to no pinned
        /// frame, no erred query, no panicked worker and a consistent
        /// snapshot.
        fn scanner_scripts(seed: u64) {
            const CHUNKS: u32 = 16;
            let mut rng = seed;
            let policy = PolicyKind::ALL[(lcg(&mut rng) % 4) as usize];
            let buffer_chunks = 2 + lcg(&mut rng) % 6;
            let io_threads = 1 + (lcg(&mut rng) % 4) as usize;
            let scanners = 4 + (lcg(&mut rng) % 12) as usize;
            let obs = Arc::new(Registry::new());
            let model = TableModel::nsm_uniform(CHUNKS, 64, 4);
            let server = Arc::new(
                ScanServer::builder(model.clone())
                    .policy(policy)
                    .buffer_chunks(buffer_chunks)
                    .io_threads(io_threads)
                    .io_cost_per_page(Duration::ZERO)
                    .observability(Arc::clone(&obs))
                    .build(),
            );
            let threads: Vec<_> = (0..scanners)
                .map(|i| {
                    let server = Arc::clone(&server);
                    let model = model.clone();
                    let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1);
                    spawn(format!("scanner-{i}"), move || {
                        let start = (lcg(&mut rng) % CHUNKS as u64) as u32;
                        let end = start + 1 + (lcg(&mut rng) % (CHUNKS - start) as u64) as u32;
                        let handle = server.cscan(CScanPlan::new(
                            format!("script-{i}"),
                            ScanRanges::single(start, end),
                            model.all_columns(),
                        ));
                        loop {
                            match lcg(&mut rng) % 16 {
                                0 => return handle.finish(),
                                1 => return,
                                2 => sync::sleep(Duration::ZERO),
                                _ => {}
                            }
                            match handle.next_chunk().expect("no faults injected") {
                                Some(pin) if lcg(&mut rng).is_multiple_of(4) => drop(pin),
                                Some(pin) => pin.complete(),
                                None => return handle.finish(),
                            }
                        }
                    })
                })
                .collect();
            for thread in threads {
                thread.join().expect("scanner panicked");
            }
            assert_eq!(server.pinned_frames(), 0, "seed {seed}: leaked pins");
            drop(server);
            let snap = obs.snapshot();
            assert!(snap.is_consistent(), "seed {seed}: inconsistent snapshot");
            assert_eq!(snap.counter("worker_panics"), 0, "seed {seed}");
            assert_eq!(snap.counter("queries_erred"), 0, "seed {seed}");
        }

        #[test]
        fn scanner_scripts_drain_clean() {
            for seed in 0..48 {
                explore(seed, 2_000, move || scanner_scripts(seed));
            }
        }

        #[test]
        fn a_seed_replays_its_schedule() {
            for seed in 0..4 {
                let first = explore(seed, 2_000, move || scanner_scripts(seed));
                assert_eq!(explore(seed, 2_000, move || scanner_scripts(seed)), first);
            }
        }

        /// Three blocking racers on one LIMIT-3 handle, each waiting on its
        /// own thread's doorbell: together they take exactly three chunks,
        /// and whichever wait last ends when the core closes the scan at
        /// the third release — every change to the slot rings every waiter.
        #[test]
        fn racers_on_a_limited_shared_handle_are_each_rung() {
            for seed in 0..SEEDS {
                explore(seed, 100, || {
                    let model = TableModel::nsm_uniform(8, 100, 16);
                    let server = ScanServer::builder(model.clone())
                        .buffer_chunks(8)
                        .io_cost_per_page(Duration::ZERO)
                        .store(Arc::new(SeededStore::new(100, 1, 7)))
                        .build();
                    let plan =
                        CScanPlan::new("shared-limit", ScanRanges::full(8), model.all_columns());
                    let handle = Arc::new(server.cscan(plan.with_chunk_limit(3)));
                    let racers: Vec<_> = (0..3)
                        .map(|i| {
                            let handle = Arc::clone(&handle);
                            spawn(format!("racer-{i}"), move || {
                                let mut taken = 0;
                                while let Some(pin) = handle.next_chunk().unwrap() {
                                    taken += 1;
                                    pin.complete();
                                }
                                taken
                            })
                        })
                        .collect();
                    let taken: u32 = racers.into_iter().map(|r| r.join().unwrap()).sum();
                    assert_eq!(taken, 3);
                    drop(handle);
                    assert_eq!(server.pinned_frames(), 0);
                    assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
                });
            }
        }

        /// A consumer blocked in `next_chunk` is rung by each site that
        /// ends its wait: a grant deposited by a commit, a `finish` from
        /// another thread, and a quarantine of the chunk it needs.
        #[test]
        fn a_deposit_a_finish_and_a_quarantine_each_ring_a_waiting_consumer() {
            for seed in 0..SEEDS {
                explore(seed, 120, || {
                    let model = TableModel::nsm_uniform(8, 100, 16);
                    let doomed = FaultConfig {
                        permanent_chunks: vec![3],
                        ..FaultConfig::default()
                    };
                    let store = FaultInjectingStore::new(SeededStore::new(100, 1, 7), doomed);
                    let server = ScanServer::builder(model.clone())
                        .buffer_chunks(2)
                        .io_cost_per_page(Duration::from_micros(125))
                        .store(Arc::new(store))
                        .build();
                    let scan = |start, end| {
                        let plan = CScanPlan::new(
                            "rung",
                            ScanRanges::single(start, end),
                            model.all_columns(),
                        );
                        Arc::new(server.cscan(plan))
                    };
                    // A commit's deposit, every chunk once.
                    let deposits = scan(0, 3);
                    let mut seen = [false; 3];
                    while let Some(pin) = deposits.next_chunk().unwrap() {
                        let at = pin.chunk().index() as usize;
                        assert!(!std::mem::replace(&mut seen[at], true), "chunk {at} twice");
                        pin.complete();
                    }
                    assert_eq!(seen, [true; 3]);
                    // A finish from another thread.
                    let finished = scan(4, 8);
                    let consumer = Arc::clone(&finished);
                    let consumer = spawn("consumer".into(), move || {
                        while let Some(pin) = consumer.next_chunk().unwrap() {
                            pin.complete();
                        }
                    });
                    finished.finish();
                    consumer.join().unwrap();
                    // A quarantine.
                    let error = scan(3, 4).next_chunk().expect_err("chunk 3 is unreadable");
                    assert_eq!(error.chunk, ChunkId::new(3));
                    assert_eq!(server.pinned_frames(), 0);
                    assert_eq!(counter(&server, Counter::UnconsumedDrops), 0);
                });
            }
        }

        /// A policy whose `next_load` panics once three queries are
        /// registered and it has decided two loads.
        struct PanicsAfterTwoLoads {
            inner: Box<dyn Policy>,
            loads: u32,
        }

        impl Policy for PanicsAfterTwoLoads {
            fn kind(&self) -> PolicyKind {
                self.inner.kind()
            }
            fn on_register(&mut self, q: QueryId, state: &crate::AbmState) {
                self.inner.on_register(q, state);
            }
            fn on_query_finished(&mut self, q: QueryId, state: &crate::AbmState) {
                self.inner.on_query_finished(q, state);
            }
            fn next_load(
                &mut self,
                state: &crate::AbmState,
                now: SimTime,
                slot: usize,
            ) -> Option<crate::LoadDecision> {
                if state.num_queries() == 3 && self.loads >= 2 {
                    panic!("the policy fails as arranged");
                }
                let decision = self.inner.next_load(state, now, slot);
                self.loads += u32::from(decision.is_some());
                decision
            }
            fn next_chunk(&mut self, q: QueryId, state: &crate::AbmState) -> Option<ChunkId> {
                self.inner.next_chunk(q, state)
            }
            fn choose_victim(
                &mut self,
                state: &crate::AbmState,
                load: &crate::LoadDecision,
            ) -> Option<ChunkId> {
                self.inner.choose_victim(state, load)
            }
        }

        /// A panic of the scheduler core on an I/O worker ends every open
        /// scan with an error: counted, dumped, and every `next_chunk`
        /// returns it.  Without the containment the worker dies and its
        /// scans wait for ever, which the controller reports.
        #[test]
        fn a_core_panic_on_a_worker_errs_every_open_scan() {
            for seed in 0..SEEDS {
                explore(seed, 100, || {
                    let model = TableModel::nsm_uniform(16, 100, 16);
                    let server = ScanServer::builder(model.clone())
                        .buffer_chunks(2)
                        .io_threads(2)
                        .io_cost_per_page(Duration::ZERO)
                        .build();
                    {
                        let mut sched = server.shared.lock_sched();
                        let pages = sched.core.state().capacity_pages();
                        let policy = PanicsAfterTwoLoads {
                            inner: PolicyKind::Relevance.build(),
                            loads: 0,
                        };
                        let retry = RetryPolicy::default();
                        sched.core = Scheduler::from_policy(
                            model.clone(),
                            pages,
                            Box::new(policy),
                            retry,
                            server.metrics(),
                        );
                    }
                    let server = Arc::new(server);
                    let scans: Vec<_> = (0..3)
                        .map(|i| {
                            let plan = CScanPlan::new(
                                format!("doomed-{i}"),
                                ScanRanges::full(16),
                                model.all_columns(),
                            );
                            server.cscan(plan)
                        })
                        .collect();
                    let consumers: Vec<_> = scans
                        .into_iter()
                        .enumerate()
                        .map(|(i, scan)| {
                            spawn(format!("consumer-{i}"), move || loop {
                                match scan.next_chunk() {
                                    Ok(Some(pin)) => pin.complete(),
                                    Ok(None) => return None,
                                    Err(error) => return Some(error),
                                }
                            })
                        })
                        .collect();
                    for consumer in consumers {
                        let error = consumer.join().unwrap().expect("the scan errs");
                        assert_eq!(error.cause, StoreError::Permanent);
                    }
                    let late = CScanPlan::new("late", ScanRanges::full(16), model.all_columns());
                    let late = server
                        .cscan(late)
                        .next_chunk()
                        .expect_err("a late scan errs");
                    assert_eq!(late.cause, StoreError::Permanent);
                    assert!(counter(&server, Counter::WorkerPanics) >= 1);
                    assert_eq!(counter(&server, Counter::QueriesErred), 4);
                    let dump = server.metrics().last_flight_dump().expect("a dump");
                    assert!(dump.contains("worker_panic"), "dump: {dump}");
                    assert_eq!(server.pinned_frames(), 0);
                });
            }
        }
    }
}
