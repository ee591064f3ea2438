//! Release-mode gate: observability must be cheap enough for the hot path.
//! The recording calls a resident scan makes for its chunks, replayed
//! alone into an enabled [`Registry`] in the order the consume loop makes
//! them, cost at most [`MAX_RECORDING_FRAC`] of that consume loop on one
//! server built with [`Registry::disabled`], timed by
//! [`measure::compare_prepared`].  That the replay makes the calls a scan
//! makes is `replay_records_what_a_resident_scan_records`, in every build;
//! that recording a sample allocates nothing is `alloc_gate`'s
//! `recording_a_sample_performs_zero_allocations`.
//!
//! The gate is timed in release builds only: debug builds check the
//! scheduler's counters after every mutation, which dominates timing.

use cscan_bench::measure;
use cscan_core::policy::PolicyKind;
use cscan_core::threaded::{CScanHandle, ScanServer};
use cscan_core::{CScanPlan, TableModel};
use cscan_obs::{Counter, Gauge, QueryCounter, QueryScope, Registry, SpanKind};
use cscan_storage::{ColumnId, ScanRanges, SeededStore};
use std::sync::Arc;
use std::time::Duration;

/// The ceiling on the recording's share of the consume loop.  On a shared
/// 2-core VM the gate reads 0.010–0.012, and 0.049–0.059 with a lock and
/// a formatted `String` in `Registry::add` and `QueryScope::add`.
const MAX_RECORDING_FRAC: f64 = 0.025;

/// A threaded server recording into `registry` over `chunks` chunks of
/// `rows` rows, its table made resident by one warm-up scan, and the plan
/// of a scan of all of it.
fn resident_server(registry: Registry, chunks: u32, rows: u64) -> (ScanServer, CScanPlan) {
    let model = TableModel::nsm_uniform(chunks, rows, 16);
    let server = ScanServer::builder(model.clone())
        .policy(PolicyKind::Relevance)
        .buffer_chunks(chunks as u64)
        .io_cost_per_page(Duration::ZERO)
        .observability(Arc::new(registry))
        .store(Arc::new(SeededStore::new(rows, 2, 5)))
        .build();
    let plan = CScanPlan::new("measured", ScanRanges::full(chunks), model.all_columns());
    // Warmup: fault everything in so every measured scan is pure hit path.
    consume(server.cscan(plan.clone())).finish();
    (server, plan)
}

/// Folds one column of every chunk `handle` delivers, and hands the scan
/// back so that it finishes after the clock stops.
fn consume(handle: CScanHandle) -> CScanHandle {
    let col = ColumnId::new(1);
    let mut checksum = 0i64;
    while let Some(pin) = handle.next_chunk().expect("fault-free scan") {
        let values = pin.column(col).expect("payload column view");
        checksum = values.iter().fold(checksum, |acc, &v| acc.wrapping_add(v));
        pin.complete();
    }
    std::hint::black_box(checksum);
    handle
}

/// The recording calls [`consume`] makes over a resident table of
/// `chunks` chunks of `rows` rows, in its order: each delivery records
/// the query's first chunk and its chunk and row counts; each release
/// unpins the frame, grants the next resident chunk (a hit and a pin) but
/// after the last, and publishes the free pages and the lock's hold time.
fn replay(registry: &Registry, scope: &QueryScope, chunks: u32, rows: u64) {
    for chunk in 0..chunks {
        scope.record_first_chunk(1_000);
        scope.add(QueryCounter::ChunksDelivered, 1);
        scope.add(QueryCounter::RowsDelivered, rows);
        registry.inc(Counter::FrameUnpins);
        registry.gauge_set(Gauge::PinnedFrames, 0);
        if chunk + 1 < chunks {
            registry.inc(Counter::FrameHits);
            registry.inc(Counter::FramePins);
            registry.gauge_set(Gauge::PinnedFrames, 1);
        }
        registry.gauge_set(Gauge::FreePages, 0);
        registry.record_span_ns(SpanKind::LockHold, 300);
    }
}

#[test]
fn replay_records_what_a_resident_scan_records() {
    const CHUNKS: u32 = 8;
    const ROWS: u64 = 1_000;
    let (server, plan) = resident_server(Registry::new(), CHUNKS, ROWS);
    let handle = server.cscan(plan);
    server.metrics().snapshot_and_reset();
    let scanned = consume(handle);
    let scan = server.metrics().snapshot();
    scanned.finish();

    let registry = Arc::new(Registry::new());
    let scope = registry.attach_query("replay", "replayed");
    replay(&registry, &scope, CHUNKS, ROWS);
    let replayed = registry.snapshot();

    let counts = |snap: &cscan_obs::MetricsSnapshot| {
        let spans: Vec<_> = snap.spans.iter().map(|(n, h)| (*n, h.count())).collect();
        let delivered = ["chunks_delivered", "rows_delivered"].map(|n| snap.query_total(n));
        let samples = (snap.ttfc.count(), snap.pin_wait.count());
        (snap.counters.clone(), spans, delivered, samples)
    };
    assert_eq!(counts(&replayed), counts(&scan));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the overhead bound is measured in release builds only \
              (debug builds check counters after every mutation)"
)]
fn instrumentation_overhead_is_bounded() {
    // Enough rows per chunk that the gate measures relative overhead on a
    // realistic consume granularity (~1M values folded), not the fixed
    // per-chunk recording cost against a near-empty chunk.
    const CHUNKS: u32 = 64;
    const ROWS: u64 = 16_384;
    let (server, plan) = resident_server(Registry::disabled(), CHUNKS, ROWS);
    let registry = Arc::new(Registry::new());
    let scope = registry.attach_query("replay", "replayed");
    // Each side returns the scan it ran, if any, to finish untimed.
    let timed = measure::compare_prepared(
        "a resident scan's recording calls against its consume loop on Registry::disabled",
        || {
            || {
                replay(&registry, &scope, CHUNKS, ROWS);
                None
            }
        },
        || {
            let handle = server.cscan(plan.clone());
            move || Some(consume(handle))
        },
    );
    assert!(
        timed.cost_ratio() <= MAX_RECORDING_FRAC,
        "recording costs {:.2}% of the consume loop (gate: <= {:.1}%): \
         {:.2} µs against {:.2} µs a scan of {CHUNKS} chunks",
        timed.cost_ratio() * 100.0,
        MAX_RECORDING_FRAC * 100.0,
        timed.ours_s * 1e6,
        timed.theirs_s * 1e6,
    );
}
