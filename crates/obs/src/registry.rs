//! The metrics registry: counters, gauges, span histograms and per-query
//! scopes behind one shared handle.
//!
//! A [`Registry`] is created per engine instance (one per `ScanServer` by
//! default; benches share one across sweep points and call
//! [`Registry::snapshot_and_reset`] between them).  All write paths are
//! lock-free relaxed atomics — cheap enough for the zero-alloc consume path
//! — except query attach/detach, which takes a short mutex on the scope
//! table (an inherently control-plane event).
//!
//! # Label dimensions
//!
//! Global metrics are plain enum-indexed atomics.  The *query* dimension is
//! a [`QueryScope`] per attached scan: the scope carries its own counter
//! array plus pin-wait and time-to-first-chunk measurements, and every
//! scope-side increment also lands in a shared per-registry total, so a
//! [`MetricsSnapshot`](crate::MetricsSnapshot) can verify that the sum of
//! per-query counters equals the global counter (the registry's internal
//! consistency invariant, asserted under attach/detach storms by the stress
//! tests).  The *table* dimension is derived at snapshot time by grouping
//! scopes by their table label, so it adds no write-path cost.
//!
//! Label cardinality is bounded by construction: the only labels are the
//! query label (bounded by concurrently attached scans plus detached scans
//! retained until the next reset) and the table name.  Free-form label maps
//! are deliberately not offered.

use crate::hist::Log2Histogram;
use crate::recorder::{EventKind, FlightEvent, FlightRecorder};
use crate::snapshot::{MetricsSnapshot, QuerySnapshot};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Global monotonically increasing counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Chunk loads committed and installed.
    LoadsCompleted,
    /// Loads cancelled mid-flight (last interested query detached).
    LoadsCancelled,
    /// Read failures observed by the I/O path (before retry).
    LoadFaults,
    /// Failed reads that were retried (a subset of `LoadFaults`).
    LoadRetries,
    /// Payloads rejected by checksum verification.
    ChecksumFailures,
    /// Panics caught unwinding out of payload work.
    WorkerPanics,
    /// Chunks moved into quarantine.
    ChunksQuarantined,
    /// Queries closed with a scan error.
    QueriesErred,
    /// Column values decompressed by first-touch decodes.
    ValuesDecoded,
    /// Nanoseconds spent in first-touch column decodes.
    DecodeNanos,
    /// Pins dropped without an explicit `complete()`.
    UnconsumedDrops,
    /// Frame-pool pin operations.
    FramePins,
    /// Frame-pool unpin operations.
    FrameUnpins,
    /// Frame-pool evictions.
    FrameEvictions,
    /// Frame-pool fetches satisfied from a resident frame.
    FrameHits,
    /// Frame-pool fetches that required a load.
    FrameMisses,
    /// Faults injected by a fault-injecting store.
    FaultsInjected,
    /// Payload corruptions injected by a fault-injecting store.
    CorruptionsInjected,
    /// Latency spikes injected by a fault-injecting store.
    LatencySpikesInjected,
    /// Chunk batches delivered through exec-layer session sources.
    ExecBatches,
    /// Rows delivered through exec-layer session sources.
    ExecRows,
    /// Releases that found the scheduler lock held (a `try_lock` miss) and
    /// blocked for it.
    HubShardConflicts,
    /// Positioned reads issued against segment files (one per extent).
    FileReadCalls,
    /// Bytes read from segment files on disk (physical I/O volume).
    FileBytesRead,
    /// Scans admitted to a table (immediately or after queueing).
    AdmissionAdmitted,
    /// Scans that had to wait in a table's FIFO admission queue.
    AdmissionQueued,
    /// Scans shed by admission control (queue full or queue-wait timeout).
    AdmissionShed,
    /// Network connections accepted by the scan service.
    ConnectionsOpened,
    /// Connections shed because the consumer stalled (stopped reading or
    /// stopped requesting batches while holding open scans).
    ConnectionsShed,
    /// Column batches served over the wire protocol.
    BatchesServed,
    /// Payload bytes served over the wire protocol (encoded frame bodies).
    BytesServed,
    /// Notifications sent to an idle I/O worker: a scheduling input changed
    /// while some query missed a chunk, or a worker that planned a load
    /// woke the next.
    WorkerWakeups,
}

impl Counter {
    /// Every counter, in index order.
    pub const ALL: [Counter; 32] = [
        Counter::LoadsCompleted,
        Counter::LoadsCancelled,
        Counter::LoadFaults,
        Counter::LoadRetries,
        Counter::ChecksumFailures,
        Counter::WorkerPanics,
        Counter::ChunksQuarantined,
        Counter::QueriesErred,
        Counter::ValuesDecoded,
        Counter::DecodeNanos,
        Counter::UnconsumedDrops,
        Counter::FramePins,
        Counter::FrameUnpins,
        Counter::FrameEvictions,
        Counter::FrameHits,
        Counter::FrameMisses,
        Counter::FaultsInjected,
        Counter::CorruptionsInjected,
        Counter::LatencySpikesInjected,
        Counter::ExecBatches,
        Counter::ExecRows,
        Counter::HubShardConflicts,
        Counter::FileReadCalls,
        Counter::FileBytesRead,
        Counter::AdmissionAdmitted,
        Counter::AdmissionQueued,
        Counter::AdmissionShed,
        Counter::ConnectionsOpened,
        Counter::ConnectionsShed,
        Counter::BatchesServed,
        Counter::BytesServed,
        Counter::WorkerWakeups,
    ];

    /// The counter's stable metric name (snake case, no prefix).
    pub fn name(&self) -> &'static str {
        match self {
            Counter::LoadsCompleted => "loads_completed",
            Counter::LoadsCancelled => "loads_cancelled",
            Counter::LoadFaults => "load_faults",
            Counter::LoadRetries => "load_retries",
            Counter::ChecksumFailures => "checksum_failures",
            Counter::WorkerPanics => "worker_panics",
            Counter::ChunksQuarantined => "chunks_quarantined",
            Counter::QueriesErred => "queries_erred",
            Counter::ValuesDecoded => "values_decoded",
            Counter::DecodeNanos => "decode_nanos",
            Counter::UnconsumedDrops => "unconsumed_drops",
            Counter::FramePins => "frame_pins",
            Counter::FrameUnpins => "frame_unpins",
            Counter::FrameEvictions => "frame_evictions",
            Counter::FrameHits => "frame_hits",
            Counter::FrameMisses => "frame_misses",
            Counter::FaultsInjected => "faults_injected",
            Counter::CorruptionsInjected => "corruptions_injected",
            Counter::LatencySpikesInjected => "latency_spikes_injected",
            Counter::ExecBatches => "exec_batches",
            Counter::ExecRows => "exec_rows",
            Counter::HubShardConflicts => "hub_shard_conflicts",
            Counter::FileReadCalls => "file_read_calls",
            Counter::FileBytesRead => "file_bytes_read",
            Counter::AdmissionAdmitted => "admission_admitted",
            Counter::AdmissionQueued => "admission_queued",
            Counter::AdmissionShed => "admission_shed",
            Counter::ConnectionsOpened => "connections_opened",
            Counter::ConnectionsShed => "connections_shed",
            Counter::BatchesServed => "batches_served",
            Counter::BytesServed => "bytes_served",
            Counter::WorkerWakeups => "worker_wakeups",
        }
    }
}

/// Counters kept per attached query (and mirrored into a registry-wide
/// total on every increment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum QueryCounter {
    /// Chunks delivered to this query.
    ChunksDelivered,
    /// Rows delivered to this query.
    RowsDelivered,
    /// Nanoseconds this query's consumer spent blocked in `next_chunk`.
    PinWaitNanos,
}

impl QueryCounter {
    /// Every per-query counter, in index order.
    pub const ALL: [QueryCounter; 3] = [
        QueryCounter::ChunksDelivered,
        QueryCounter::RowsDelivered,
        QueryCounter::PinWaitNanos,
    ];

    /// The counter's stable metric name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryCounter::ChunksDelivered => "chunks_delivered",
            QueryCounter::RowsDelivered => "rows_delivered",
            QueryCounter::PinWaitNanos => "pin_wait_nanos",
        }
    }
}

/// Point-in-time gauges (set, not accumulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Frames currently pinned by outstanding chunk pins.
    PinnedFrames,
    /// Frames currently resident in the pool.
    ResidentFrames,
    /// Queries currently attached.
    ActiveQueries,
    /// Unreserved buffer pages available to the load planner.
    FreePages,
    /// Scans currently waiting in admission queues (all tables).
    AdmissionQueueDepth,
    /// Scans currently admitted past admission control (all tables).
    AdmittedScans,
    /// Network connections currently open against the scan service.
    OpenConnections,
}

impl Gauge {
    /// Every gauge, in index order.
    pub const ALL: [Gauge; 7] = [
        Gauge::PinnedFrames,
        Gauge::ResidentFrames,
        Gauge::ActiveQueries,
        Gauge::FreePages,
        Gauge::AdmissionQueueDepth,
        Gauge::AdmittedScans,
        Gauge::OpenConnections,
    ];

    /// The gauge's stable metric name.
    pub fn name(&self) -> &'static str {
        match self {
            Gauge::PinnedFrames => "pinned_frames",
            Gauge::ResidentFrames => "resident_frames",
            Gauge::ActiveQueries => "active_queries",
            Gauge::FreePages => "free_pages",
            Gauge::AdmissionQueueDepth => "admission_queue_depth",
            Gauge::AdmittedScans => "admitted_scans",
            Gauge::OpenConnections => "open_connections",
        }
    }
}

/// The engine phases measured by span timers.  Each kind owns one
/// [`Log2Histogram`] of nanosecond durations in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SpanKind {
    /// Planning a load under the hub lock (policy decision + eviction).
    Plan,
    /// Committing a completed load under the hub lock.
    Commit,
    /// Materializing a chunk payload (the "disk read").
    Materialize,
    /// Decompressing one column at its first touch.
    Decode,
    /// A consumer blocked in `next_chunk` (one wait episode).
    PinWait,
    /// Retry backoff sleeps after failed reads.
    Backoff,
    /// Scheduler-lock critical sections (hold time, not wait time).
    LockHold,
    /// One positioned read against a segment file (syscall latency).
    FileRead,
}

impl SpanKind {
    /// Every span kind, in index order.
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Plan,
        SpanKind::Commit,
        SpanKind::Materialize,
        SpanKind::Decode,
        SpanKind::PinWait,
        SpanKind::Backoff,
        SpanKind::LockHold,
        SpanKind::FileRead,
    ];

    /// The span's stable metric name.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Plan => "plan",
            SpanKind::Commit => "commit",
            SpanKind::Materialize => "materialize",
            SpanKind::Decode => "decode",
            SpanKind::PinWait => "pin_wait",
            SpanKind::Backoff => "backoff",
            SpanKind::LockHold => "lock_hold",
            SpanKind::FileRead => "file_read",
        }
    }
}

/// The shared per-registry totals every [`QueryScope`] mirrors into.
///
/// Lives in its own `Arc` so scopes can reference it without a cycle back
/// to the registry.
#[derive(Debug)]
pub(crate) struct QueryTotals {
    pub(crate) counters: [AtomicU64; QueryCounter::ALL.len()],
    /// Merged pin-wait distribution across every query.
    pub(crate) pin_wait: Log2Histogram,
    /// Time-to-first-chunk distribution: one sample per query that received
    /// at least one chunk.
    pub(crate) ttfc: Log2Histogram,
}

impl QueryTotals {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            pin_wait: Log2Histogram::new(),
            ttfc: Log2Histogram::new(),
        }
    }
}

/// Per-query metric scope, created by [`Registry::attach_query`].
///
/// All write methods are lock-free and allocation-free; every increment
/// lands both in this scope and in the registry-wide total, so snapshots
/// can check per-query/global consistency.
#[derive(Debug)]
pub struct QueryScope {
    label: String,
    table: String,
    enabled: bool,
    counters: [AtomicU64; QueryCounter::ALL.len()],
    pin_wait: Log2Histogram,
    /// Time to first chunk in nanoseconds; 0 = no chunk delivered yet.
    ttfc_ns: AtomicU64,
    detached: AtomicBool,
    totals: Arc<QueryTotals>,
}

impl QueryScope {
    /// The query's label (the scan plan's label).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The table the query scans.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Adds `n` to a per-query counter (and the registry-wide total).
    #[inline]
    pub fn add(&self, counter: QueryCounter, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        self.totals.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a per-query counter.
    pub fn value(&self, counter: QueryCounter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one pin-wait episode of `ns` nanoseconds: the per-query and
    /// merged histograms plus the [`QueryCounter::PinWaitNanos`] sum.
    #[inline]
    pub fn record_pin_wait(&self, ns: u64) {
        if !self.enabled {
            return;
        }
        self.pin_wait.record(ns);
        self.totals.pin_wait.record(ns);
        self.add(QueryCounter::PinWaitNanos, ns);
    }

    /// Records the time to this query's first delivered chunk.  Only the
    /// first call has an effect.
    #[inline]
    pub fn record_first_chunk(&self, ns_since_attach: u64) {
        if !self.enabled {
            return;
        }
        if self
            .ttfc_ns
            .compare_exchange(
                0,
                ns_since_attach.max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            self.totals.ttfc.record(ns_since_attach.max(1));
        }
    }

    /// Time to first chunk, if one was delivered.
    pub fn time_to_first_chunk_ns(&self) -> Option<u64> {
        match self.ttfc_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// True once [`Registry::detach_query`] ran (the metrics are retained
    /// until the next [`Registry::snapshot_and_reset`]).
    pub fn is_detached(&self) -> bool {
        self.detached.load(Ordering::Relaxed)
    }

    pub(crate) fn to_snapshot(&self) -> QuerySnapshot {
        QuerySnapshot {
            label: self.label.clone(),
            table: self.table.clone(),
            detached: self.is_detached(),
            counters: QueryCounter::ALL
                .iter()
                .map(|&c| (c.name(), self.value(c)))
                .collect(),
            ttfc_ns: self.time_to_first_chunk_ns(),
            pin_wait: self.pin_wait.snapshot(),
        }
    }

    /// Like [`QueryScope::to_snapshot`], but atomically takes the values
    /// (swap-to-zero), so concurrent increments land in exactly one
    /// reset window.
    pub(crate) fn drain_snapshot(&self) -> QuerySnapshot {
        QuerySnapshot {
            label: self.label.clone(),
            table: self.table.clone(),
            detached: self.is_detached(),
            counters: QueryCounter::ALL
                .iter()
                .map(|&c| {
                    (
                        c.name(),
                        self.counters[c as usize].swap(0, Ordering::Relaxed),
                    )
                })
                .collect(),
            ttfc_ns: match self.ttfc_ns.swap(0, Ordering::Relaxed) {
                0 => None,
                ns => Some(ns),
            },
            pin_wait: self.pin_wait.drain(),
        }
    }
}

/// A scoped span timer: measures from creation to drop and records the
/// elapsed nanoseconds into the registry's histogram for its [`SpanKind`].
#[must_use = "a SpanTimer measures until it is dropped"]
pub struct SpanTimer<'a> {
    registry: &'a Registry,
    kind: SpanKind,
    started: Instant,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.registry
            .record_span_ns(self.kind, self.started.elapsed().as_nanos() as u64);
    }
}

/// The unified metrics registry.  See the [crate docs](crate) for the
/// design; create one with [`Registry::new`] (or [`Registry::disabled`]
/// for a zero-overhead baseline) and share it via `Arc`.
#[derive(Debug)]
pub struct Registry {
    enabled: bool,
    started: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    gauges: [AtomicU64; Gauge::ALL.len()],
    spans: [Log2Histogram; SpanKind::ALL.len()],
    totals: Arc<QueryTotals>,
    scopes: Mutex<Vec<Arc<QueryScope>>>,
    /// Scopes attached and not yet detached: the value behind
    /// [`Gauge::ActiveQueries`], which a reset zeroes but this survives.
    /// Moved and published under the `scopes` lock, so the gauge never
    /// keeps a stale count when attaches and detaches race.
    active_queries: AtomicU64,
    recorder: FlightRecorder,
    /// The most recent flight-recorder dump (set on quarantine, scan error
    /// or worker panic).
    last_dump: Mutex<Option<String>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Default flight-recorder capacity (events retained).
    pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

    /// Creates an enabled registry with the default flight-recorder size.
    pub fn new() -> Self {
        Self::with_flight_capacity(Self::DEFAULT_FLIGHT_CAPACITY)
    }

    /// Creates an enabled registry retaining `capacity` flight events.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Self::build(true, capacity)
    }

    /// Creates a disabled registry: every record call is a no-op behind one
    /// branch.  This is the "no-obs" baseline the release overhead gate
    /// measures instrumented runs against.
    pub fn disabled() -> Self {
        Self::build(false, 1)
    }

    fn build(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            started: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: std::array::from_fn(|_| Log2Histogram::new()),
            totals: Arc::new(QueryTotals::new()),
            scopes: Mutex::new(Vec::new()),
            active_queries: AtomicU64::new(0),
            recorder: FlightRecorder::new(capacity),
            last_dump: Mutex::new(None),
        }
    }

    /// Nanoseconds since the registry was created — the timestamp source
    /// the threaded front-end stamps flight events with.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    // -- counters ------------------------------------------------------

    /// Adds `n` to a global counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if self.enabled && n > 0 {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 to a global counter.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Current value of a global counter.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Current registry-wide total of a per-query counter (the sum the
    /// scopes mirror into).
    pub fn query_total(&self, counter: QueryCounter) -> u64 {
        self.totals.counters[counter as usize].load(Ordering::Relaxed)
    }

    // -- gauges --------------------------------------------------------

    /// Sets a gauge to `value`.
    #[inline]
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        if self.enabled {
            self.gauges[gauge as usize].store(value, Ordering::Relaxed);
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge as usize].load(Ordering::Relaxed)
    }

    // -- spans ---------------------------------------------------------

    /// Records a span duration in nanoseconds, measured by the caller
    /// (wall-clock in the threaded executor; a deterministic driver may
    /// pass virtual durations).
    #[inline]
    pub fn record_span_ns(&self, kind: SpanKind, ns: u64) {
        if self.enabled {
            self.spans[kind as usize].record(ns);
        }
    }

    /// Starts a wall-clock span timer; the elapsed time records on drop.
    #[inline]
    pub fn time(&self, kind: SpanKind) -> SpanTimer<'_> {
        SpanTimer {
            registry: self,
            kind,
            started: Instant::now(),
        }
    }

    /// Direct access to a span's histogram (for instrumentation that
    /// measures its own intervals, like the hub-lock guard).
    #[inline]
    pub fn span_hist(&self, kind: SpanKind) -> &Log2Histogram {
        &self.spans[kind as usize]
    }

    // -- query scopes --------------------------------------------------

    /// Attaches a per-query metric scope labelled `label` over `table`.
    /// The scope is retained (even after detach) until the next
    /// [`Registry::snapshot_and_reset`], so sweep snapshots see every query
    /// of their window.
    pub fn attach_query(
        self: &Arc<Self>,
        label: impl Into<String>,
        table: impl Into<String>,
    ) -> Arc<QueryScope> {
        let scope = Arc::new(QueryScope {
            label: label.into(),
            table: table.into(),
            enabled: self.enabled,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            pin_wait: Log2Histogram::new(),
            ttfc_ns: AtomicU64::new(0),
            detached: AtomicBool::new(false),
            totals: Arc::clone(&self.totals),
        });
        if self.enabled {
            let mut scopes = self.scopes.lock();
            scopes.push(Arc::clone(&scope));
            let active = self.active_queries.fetch_add(1, Ordering::Relaxed) + 1;
            self.gauge_set(Gauge::ActiveQueries, active);
        }
        scope
    }

    /// Marks `scope` detached and refreshes the active-query gauge.  Only
    /// the first detach of a scope counts.
    pub fn detach_query(&self, scope: &QueryScope) {
        let first = !scope.detached.swap(true, Ordering::Relaxed);
        if self.enabled && first {
            let _scopes = self.scopes.lock();
            let active = self.active_queries.fetch_sub(1, Ordering::Relaxed) - 1;
            self.gauge_set(Gauge::ActiveQueries, active);
        }
    }

    // -- flight recorder -----------------------------------------------

    /// Records a flight event with an explicit timestamp.
    /// [`Registry::event`] passes [`Registry::now_ns`]; explicit stamps
    /// remain available to a deterministic driver (virtual time gives
    /// reproducible dumps), though none ships.
    #[inline]
    pub fn event_at(&self, at_ns: u64, kind: EventKind, chunk: u32, query: u64, aux: u64) {
        if self.enabled {
            self.recorder.record(FlightEvent {
                at_ns,
                kind,
                chunk,
                query,
                aux,
            });
        }
    }

    /// Records a flight event stamped with real elapsed time.
    #[inline]
    pub fn event(&self, kind: EventKind, chunk: u32, query: u64, aux: u64) {
        if self.enabled {
            self.event_at(self.now_ns(), kind, chunk, query, aux);
        }
    }

    /// The flight recorder itself.
    pub fn flight(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Dumps the flight recorder (the automatic response to quarantine,
    /// scan errors and worker panics): renders the ring, stores the text as
    /// [`Registry::last_flight_dump`] and returns it.
    pub fn dump_flight(&self, reason: &str) -> String {
        let dump = self.recorder.dump(reason);
        *self.last_dump.lock() = Some(dump.clone());
        dump
    }

    /// The most recent automatic flight dump, if any failure triggered one.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.last_dump.lock().clone()
    }

    // -- snapshots -----------------------------------------------------

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let scopes = self.scopes.lock();
        // Read the per-scope values *before* the mirrored totals: every
        // write bumps its scope first and the total second, so this order
        // keeps a live snapshot's scope sums at most one in-flight
        // increment per writer ahead of the totals (never unboundedly
        // skewed by writes landing between the two passes).
        let queries: Vec<_> = scopes.iter().map(|s| s.to_snapshot()).collect();
        MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| (c.name(), self.counter(c)))
                .collect(),
            query_totals: QueryCounter::ALL
                .iter()
                .map(|&c| (c.name(), self.query_total(c)))
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.gauge(g)))
                .collect(),
            spans: SpanKind::ALL
                .iter()
                .map(|&k| (k.name(), self.spans[k as usize].snapshot()))
                .collect(),
            ttfc: self.totals.ttfc.snapshot(),
            pin_wait: self.totals.pin_wait.snapshot(),
            queries,
            flight_dropped: self.recorder.dropped(),
        }
    }

    /// Takes a snapshot, then zeroes every counter, gauge, histogram and
    /// flight event, and drops detached query scopes (live scopes are kept
    /// but zeroed).  Benches call this between sweep points so one point's
    /// faults never bleed into the next.
    ///
    /// Every value is taken with an atomic swap-to-zero, so a concurrent
    /// increment lands in exactly one window — this snapshot or the next,
    /// never both, never neither (the multi-threaded stress suite sweeps
    /// resets against writers to prove it).
    pub fn snapshot_and_reset(&self) -> MetricsSnapshot {
        // Hold the scope table across the whole operation so an attach
        // cannot slip between the snapshot and the reset.
        let mut scopes = self.scopes.lock();
        let snap = MetricsSnapshot {
            counters: Counter::ALL
                .iter()
                .map(|&c| {
                    (
                        c.name(),
                        self.counters[c as usize].swap(0, Ordering::Relaxed),
                    )
                })
                .collect(),
            query_totals: QueryCounter::ALL
                .iter()
                .map(|&c| {
                    (
                        c.name(),
                        self.totals.counters[c as usize].swap(0, Ordering::Relaxed),
                    )
                })
                .collect(),
            gauges: Gauge::ALL
                .iter()
                .map(|&g| (g.name(), self.gauges[g as usize].swap(0, Ordering::Relaxed)))
                .collect(),
            spans: SpanKind::ALL
                .iter()
                .map(|&k| (k.name(), self.spans[k as usize].drain()))
                .collect(),
            ttfc: self.totals.ttfc.drain(),
            pin_wait: self.totals.pin_wait.drain(),
            queries: scopes.iter().map(|s| s.drain_snapshot()).collect(),
            flight_dropped: self.recorder.dropped(),
        };
        scopes.retain(|s| !s.is_detached());
        self.recorder.clear();
        *self.last_dump.lock() = None;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{NO_CHUNK, NO_QUERY};

    #[test]
    fn counters_gauges_and_spans_round_trip() {
        let r = Registry::new();
        r.inc(Counter::LoadsCompleted);
        r.add(Counter::LoadsCompleted, 4);
        r.add(Counter::LoadFaults, 0); // no-op
        assert_eq!(r.counter(Counter::LoadsCompleted), 5);
        assert_eq!(r.counter(Counter::LoadFaults), 0);

        r.gauge_set(Gauge::PinnedFrames, 7);
        assert_eq!(r.gauge(Gauge::PinnedFrames), 7);

        r.record_span_ns(SpanKind::Plan, 1000);
        {
            let _t = r.time(SpanKind::Commit);
        }
        let snap = r.snapshot();
        assert_eq!(snap.span("plan").count(), 1);
        assert_eq!(snap.span("commit").count(), 1);
        assert_eq!(snap.counter("loads_completed"), 5);
        assert_eq!(snap.gauge("pinned_frames"), 7);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Arc::new(Registry::disabled());
        r.inc(Counter::LoadsCompleted);
        r.gauge_set(Gauge::PinnedFrames, 3);
        r.record_span_ns(SpanKind::Plan, 5);
        r.event(EventKind::WorkerPanic, NO_CHUNK, NO_QUERY, 0);
        let scope = r.attach_query("q", "t");
        scope.add(QueryCounter::ChunksDelivered, 9);
        scope.record_pin_wait(100);
        scope.record_first_chunk(10);
        assert_eq!(r.counter(Counter::LoadsCompleted), 0);
        assert_eq!(r.gauge(Gauge::PinnedFrames), 0);
        assert_eq!(r.query_total(QueryCounter::ChunksDelivered), 0);
        assert!(r.flight().events().is_empty());
        let snap = r.snapshot();
        assert!(snap.queries.is_empty(), "disabled scopes are not retained");
    }

    #[test]
    fn scope_mirrors_into_totals_and_reset_clears() {
        let r = Arc::new(Registry::new());
        let a = r.attach_query("a", "lineitem");
        let b = r.attach_query("b", "lineitem");
        a.add(QueryCounter::ChunksDelivered, 3);
        b.add(QueryCounter::ChunksDelivered, 5);
        a.record_pin_wait(1_000);
        b.record_first_chunk(2_000);
        assert_eq!(r.query_total(QueryCounter::ChunksDelivered), 8);
        assert_eq!(r.gauge(Gauge::ActiveQueries), 2);

        let snap = r.snapshot();
        assert!(snap.is_consistent(), "{snap:?}");
        assert_eq!(snap.queries.len(), 2);
        assert_eq!(snap.ttfc.count(), 1);

        r.detach_query(&a);
        assert_eq!(r.gauge(Gauge::ActiveQueries), 1);
        let snap = r.snapshot_and_reset();
        assert_eq!(snap.query_counter_sum("chunks_delivered"), 8);
        // After the reset: detached scope dropped, live scope zeroed.
        let snap = r.snapshot();
        assert_eq!(snap.queries.len(), 1);
        assert_eq!(snap.query_total("chunks_delivered"), 0);
        assert_eq!(snap.queries[0].counters[0].1, 0);
        assert!(snap.ttfc.is_empty());
    }

    #[test]
    fn active_query_gauge_counts_attaches_minus_first_detaches() {
        let r = Arc::new(Registry::new());
        let live = r.attach_query("live", "t");
        // Nothing scrapes: every detached scope is still retained, and the
        // gauge must not depend on walking them.
        for i in 0..10_000 {
            let scope = r.attach_query("q", "t");
            assert_eq!(r.gauge(Gauge::ActiveQueries), 2, "pair {i}");
            r.detach_query(&scope);
            assert_eq!(r.gauge(Gauge::ActiveQueries), 1, "pair {i}");
        }
        let twice = r.attach_query("twice", "t");
        r.detach_query(&twice);
        r.detach_query(&twice);
        assert_eq!(r.gauge(Gauge::ActiveQueries), 1, "a second detach is free");
        // A reset zeroes the gauge, not the count behind it.
        r.snapshot_and_reset();
        r.detach_query(&live);
        assert_eq!(r.gauge(Gauge::ActiveQueries), 0);
        r.detach_query(&live);
        assert_eq!(r.gauge(Gauge::ActiveQueries), 0, "no underflow");
    }

    #[test]
    fn flight_dump_is_stored() {
        let r = Registry::new();
        r.event_at(10, EventKind::LoadFault, 3, 1, 1);
        r.event_at(20, EventKind::ChunkQuarantined, 3, NO_QUERY, 0);
        assert!(r.last_flight_dump().is_none());
        let dump = r.dump_flight("quarantine");
        assert!(dump.contains("chunk_quarantined"));
        assert_eq!(r.last_flight_dump().as_deref(), Some(dump.as_str()));
        r.snapshot_and_reset();
        assert!(r.last_flight_dump().is_none());
        assert!(r.flight().events().is_empty());
    }
}
