//! Release-mode gate: observability must be cheap enough for the hot path.
//!
//! Two bounds, per the observability plane's contract:
//!
//! * recording a sample — counter increment, span duration, per-query
//!   scope bump, flight event — performs **zero heap allocations**
//!   (measured under the same counting global allocator as `alloc_gate`);
//! * a fully instrumented end-to-end scan is at most **3% slower** than
//!   the identical scan against [`Registry::disabled`] (the no-obs
//!   baseline), min-of-N trials to shed scheduler noise.
//!
//! Release builds only: under `debug_assertions` every scheduling decision
//! re-runs its brute-force twin, which allocates and dominates timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation events (alloc + realloc) per thread.
struct CountingAllocator;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events observed on this thread so far.
fn thread_allocs() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is gated in release builds only"
)]
fn recording_a_sample_performs_zero_allocations() {
    use cscan_obs::{Counter, EventKind, QueryCounter, Registry, SpanKind};
    use std::sync::Arc;

    let registry = Arc::new(Registry::new());
    let scope = registry.attach_query("gate", "gate_table");
    // Fill the flight ring once so recording below only overwrites slots.
    for i in 0..600 {
        registry.event(EventKind::LoadCommitted, i, 1, 0);
    }

    let before = thread_allocs();
    for i in 0..10_000u64 {
        registry.inc(Counter::LoadsCompleted);
        registry.add(Counter::ExecRows, 1_024);
        registry.record_span_ns(SpanKind::PinWait, i + 1);
        scope.add(QueryCounter::ChunksDelivered, 1);
        scope.record_pin_wait(i + 1);
        registry.event(EventKind::LoadCommitted, i as u32, 1, 0);
        registry.gauge_set(cscan_obs::Gauge::PinnedFrames, i);
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "recording samples must not allocate: {allocs} allocation events \
         over 10k iterations"
    );
    registry.detach_query(&scope);
}

/// `SCANS` fully-resident scans, one after another, through one warmed
/// threaded server built on `registry`, returning the consume-loop wall
/// time of all of them.
#[cfg(not(debug_assertions))]
fn timed_scan(registry: std::sync::Arc<cscan_obs::Registry>) -> std::time::Duration {
    use cscan_core::policy::PolicyKind;
    use cscan_core::threaded::ScanServer;
    use cscan_core::{CScanPlan, TableModel};
    use cscan_storage::{ScanRanges, SeededStore};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // Enough rows per chunk that the gate measures relative overhead on a
    // realistic consume granularity (~1M values folded), not the fixed
    // ~100ns/chunk instrumentation cost against a near-empty chunk.
    const CHUNKS: u32 = 64;
    const ROWS: u64 = 16_384;
    // One scan takes about a millisecond, which on a shared box measures
    // the scheduler, not the instrumentation; a trial is this many of them
    // (tens of milliseconds).
    const SCANS: usize = 48;

    let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
    let server = ScanServer::builder(model.clone())
        .policy(PolicyKind::Relevance)
        .buffer_chunks(CHUNKS as u64)
        .io_cost_per_page(Duration::ZERO)
        .observability(registry)
        .store(Arc::new(SeededStore::new(ROWS, 2, 5)))
        .build();

    // Warmup: fault everything in so the measured scan is pure hit path.
    let warmup = server.cscan(CScanPlan::new(
        "warmup",
        ScanRanges::full(CHUNKS),
        model.all_columns(),
    ));
    while let Some(pin) = warmup.next_chunk().expect("fault-free scan") {
        pin.complete();
    }
    warmup.finish();

    let col = cscan_storage::ColumnId::new(1);
    let mut checksum = 0i64;
    let mut elapsed = Duration::ZERO;
    for _ in 0..SCANS {
        let handle = server.cscan(CScanPlan::new(
            "measured",
            ScanRanges::full(CHUNKS),
            model.all_columns(),
        ));
        let started = Instant::now();
        while let Some(pin) = handle.next_chunk().expect("fault-free scan") {
            let values = pin.column(col).expect("payload column view");
            checksum = values.iter().fold(checksum, |acc, &v| acc.wrapping_add(v));
            pin.complete();
        }
        elapsed += started.elapsed();
        handle.finish();
    }
    assert_ne!(checksum, i64::MIN, "keep the fold alive");
    elapsed
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the overhead bound is measured in release builds only \
              (debug builds re-run brute-force twins that dominate timing)"
)]
fn instrumentation_overhead_is_bounded() {
    #[cfg(not(debug_assertions))]
    {
        use cscan_obs::Registry;
        use std::sync::Arc;
        use std::time::Duration;

        const TRIALS: usize = 7;
        const ATTEMPTS: usize = 3;
        // Interleave the trials so drift (thermal, scheduler) hits both
        // sides equally; min-of-N sheds the noise floor.  A whole attempt
        // can still land during a bad patch on a loaded (or single-core)
        // box, so the measurement is repeated up to ATTEMPTS times and the
        // gate takes the best attempt — the bound itself stays at 3%.
        let (mut on, mut off) = (Duration::MAX, Duration::MAX);
        let mut ratio = f64::MAX;
        for _ in 0..ATTEMPTS {
            for _ in 0..TRIALS {
                off = off.min(timed_scan(Arc::new(Registry::disabled())));
                on = on.min(timed_scan(Arc::new(Registry::new())));
            }
            ratio = ratio.min(on.as_secs_f64() / off.as_secs_f64().max(1e-9));
            if ratio <= 1.03 {
                break;
            }
        }
        assert!(
            ratio <= 1.03,
            "instrumented consume path is {:.2}% slower than the no-obs \
             baseline (gate: <= 3%); instrumented {:?} vs baseline {:?}",
            (ratio - 1.0) * 100.0,
            on,
            off
        );
    }
}
