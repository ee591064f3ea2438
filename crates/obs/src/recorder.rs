//! The flight recorder: a bounded ring buffer of recent engine events.
//!
//! Every control-plane transition of the scan engine — query attach/detach,
//! load planned/committed/cancelled, faults, retries, quarantines, worker
//! panics — is recorded as a fixed-size [`FlightEvent`].  The ring holds the
//! most recent [`FlightRecorder::capacity`] events (older ones are
//! overwritten, with a counter of how many were lost), so when something
//! goes wrong the engine can dump the run-up to the failure without having
//! paid for an unbounded log.
//!
//! Recording never allocates: the ring is pre-sized at construction and
//! events are plain `Copy` structs.  Hot *data-plane* operations (chunk
//! delivery, column reads) are deliberately **not** recorded here — they go
//! to the registry's counters and histograms — so the recorder's mutex only
//! sees control-plane rates.
//!
//! Timestamps are supplied by the caller (`at_ns`): the threaded executor
//! stamps real elapsed nanoseconds; a deterministic driver could stamp
//! virtual time and get reproducible dumps, but none ships.

use parking_lot::Mutex;

/// What happened.  Every variant names one control-plane transition of the
/// cooperative-scan engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A query registered with the ABM.
    QueryAttached,
    /// A query deregistered (finished, limit hit, or dropped).
    QueryDetached,
    /// A query was closed with a scan error.
    QueryErred,
    /// An I/O worker planned a chunk load (aux = pages reserved).
    LoadPlanned,
    /// A completed load was committed and installed (aux = queries woken).
    LoadCommitted,
    /// A load was cancelled mid-flight (its last interested query left).
    LoadCancelled,
    /// A read attempt failed (aux = failed attempts so far).
    LoadFault,
    /// A failed read was scheduled for retry (aux = backoff nanoseconds).
    LoadRetry,
    /// A payload failed checksum verification (at install or decode).
    ChecksumFailure,
    /// A panic was caught unwinding out of payload work.
    WorkerPanic,
    /// A chunk entered quarantine: its retry budget is spent.
    ChunkQuarantined,
    /// A resident chunk's frame was evicted.
    FrameEvicted,
}

impl EventKind {
    /// The event's stable dump/metric name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::QueryAttached => "query_attached",
            EventKind::QueryDetached => "query_detached",
            EventKind::QueryErred => "query_erred",
            EventKind::LoadPlanned => "load_planned",
            EventKind::LoadCommitted => "load_committed",
            EventKind::LoadCancelled => "load_cancelled",
            EventKind::LoadFault => "load_fault",
            EventKind::LoadRetry => "load_retry",
            EventKind::ChecksumFailure => "checksum_failure",
            EventKind::WorkerPanic => "worker_panic",
            EventKind::ChunkQuarantined => "chunk_quarantined",
            EventKind::FrameEvicted => "frame_evicted",
        }
    }
}

/// Sentinel for "no chunk" in a [`FlightEvent`].
pub const NO_CHUNK: u32 = u32::MAX;
/// Sentinel for "no query" in a [`FlightEvent`].
pub const NO_QUERY: u64 = u64::MAX;

/// One recorded engine event.  `Copy`, fixed-size, allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Caller-supplied timestamp in nanoseconds (real elapsed time from
    /// the threaded executor).
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// The chunk involved, or [`NO_CHUNK`].
    pub chunk: u32,
    /// The query involved, or [`NO_QUERY`].
    pub query: u64,
    /// Event-specific detail (see [`EventKind`] variants).
    pub aux: u64,
}

impl FlightEvent {
    /// Renders the event as one dump line.
    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "  [{:>12}ns] {:<18}", self.at_ns, self.kind.name());
        if self.chunk != NO_CHUNK {
            let _ = write!(out, " chunk={}", self.chunk);
        }
        if self.query != NO_QUERY {
            let _ = write!(out, " query={}", self.query);
        }
        if self.aux != 0 {
            let _ = write!(out, " aux={}", self.aux);
        }
        out.push('\n');
    }
}

/// The ring state behind the recorder's mutex.
struct Ring {
    /// Pre-sized storage; never reallocates after construction.
    buf: Vec<FlightEvent>,
    /// Index the next event is written at once the ring is full.
    next: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

/// A bounded, allocation-free ring buffer of recent [`FlightEvent`]s.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding the most recent `capacity` events
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                next: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Maximum number of events retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, overwriting the oldest once full.  Never
    /// allocates after the ring has filled once.
    pub fn record(&self, event: FlightEvent) {
        let mut ring = self.ring.lock();
        if ring.buf.len() < self.capacity {
            ring.buf.push(event);
        } else {
            let at = ring.next;
            ring.buf[at] = event;
            ring.next = (at + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let ring = self.ring.lock();
        let mut out = Vec::with_capacity(ring.buf.len());
        out.extend_from_slice(&ring.buf[ring.next..]);
        out.extend_from_slice(&ring.buf[..ring.next]);
        out
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Renders the retained events as a human-readable dump, oldest first.
    /// Deterministic for deterministic timestamps (the seeded-chaos tests
    /// compare dumps of identical runs byte-for-byte).
    pub fn dump(&self, reason: &str) -> String {
        use std::fmt::Write as _;
        let events = self.events();
        let dropped = self.dropped();
        let mut out = String::with_capacity(64 + events.len() * 48);
        let _ = writeln!(
            out,
            "=== flight recorder dump ({reason}): {} events, {} overwritten ===",
            events.len(),
            dropped
        );
        for e in &events {
            e.render(&mut out);
        }
        out.push_str("=== end of dump ===\n");
        out
    }

    /// Discards every retained event and the overwrite counter.
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.buf.clear();
        ring.next = 0;
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: EventKind, chunk: u32) -> FlightEvent {
        FlightEvent {
            at_ns: at,
            kind,
            chunk,
            query: NO_QUERY,
            aux: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let r = FlightRecorder::new(4);
        for i in 0..10u64 {
            r.record(ev(i, EventKind::LoadCommitted, i as u32));
        }
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.at_ns).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "oldest first, most recent retained"
        );
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn dump_is_deterministic_and_named() {
        let make = || {
            let r = FlightRecorder::new(8);
            r.record(ev(100, EventKind::QueryAttached, NO_CHUNK));
            r.record(ev(250, EventKind::LoadFault, 3));
            r.record(ev(300, EventKind::ChunkQuarantined, 3));
            r.dump("test")
        };
        let d = make();
        assert_eq!(d, make(), "same events, same dump bytes");
        assert!(d.contains("chunk_quarantined"));
        assert!(d.contains("chunk=3"));
        assert!(d.contains("3 events"));
    }

    #[test]
    fn clear_resets() {
        let r = FlightRecorder::new(2);
        r.record(ev(1, EventKind::WorkerPanic, NO_CHUNK));
        r.record(ev(2, EventKind::WorkerPanic, NO_CHUNK));
        r.record(ev(3, EventKind::WorkerPanic, NO_CHUNK));
        assert_eq!(r.dropped(), 1);
        r.clear();
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
    }
}
