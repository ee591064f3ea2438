//! # cscan_obs — the unified observability plane
//!
//! One crate owns every piece of telemetry the cooperative-scan engine
//! emits:
//!
//! * a lock-free **metrics registry** ([`Registry`]) of atomic counters,
//!   gauges and power-of-two histograms, cheap enough for the zero-alloc
//!   consume path (one relaxed `fetch_add` per sample, no heap traffic);
//! * **span timers** ([`SpanTimer`], [`SpanKind`]) for the engine's
//!   phases — plan/commit under the hub lock, payload materialize,
//!   decode at first touch, pin-wait, retry backoff;
//! * per-query **label dimensions** ([`QueryScope`]) so fairness and
//!   tail-latency metrics (time-to-first-chunk, per-query pin-wait) exist
//!   per scan, with a per-table roll-up derived at snapshot time;
//! * a bounded ring-buffer **flight recorder** ([`FlightRecorder`]) of
//!   recent control-plane events, dumped automatically on quarantine,
//!   scan error, or worker panic;
//! * a snapshot sink: [`MetricsSnapshot::render_prometheus`] for text
//!   exposition.
//!
//! The threaded `ScanServer` stamps real elapsed time.  Explicit
//! timestamps and durations ([`Registry::event_at`],
//! [`Registry::record_span_ns`]) remain available to a deterministic
//! driver that wants reproducible dumps; none ships — the simulation
//! records nothing here.
//!
//! The crate is a dependency leaf: it knows nothing about chunks, queries
//! or policies beyond opaque `u32`/`u64` identifiers, so every other crate
//! in the workspace can depend on it.

mod hist;
mod recorder;
mod registry;
mod snapshot;

pub use hist::{HistogramSnapshot, Log2Histogram, HISTOGRAM_BUCKETS};
pub use recorder::{EventKind, FlightEvent, FlightRecorder, NO_CHUNK, NO_QUERY};
pub use registry::{Counter, Gauge, QueryCounter, QueryScope, Registry, SpanKind, SpanTimer};
pub use snapshot::{MetricsSnapshot, QuerySnapshot};
