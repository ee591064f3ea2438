//! Release-mode gate: observability must be cheap enough for the hot path.
//! A fully instrumented consume loop is at most **3% slower** than the
//! identical loop against [`Registry::disabled`] (the no-obs baseline),
//! timed by [`measure::compare_prepared`] with each server built first in
//! turn.  That recording a sample
//! allocates nothing is `alloc_gate`'s
//! `recording_a_sample_performs_zero_allocations`.
//!
//! Release builds only: debug builds check the scheduler's counters after
//! every mutation, which dominates timing.

#[cfg(not(debug_assertions))]
use cscan_bench::measure;
#[cfg(not(debug_assertions))]
use cscan_core::{threaded::CScanHandle, threaded::ScanServer, CScanPlan};
#[cfg(not(debug_assertions))]
use cscan_obs::Registry;
#[cfg(not(debug_assertions))]
use std::sync::Arc;

/// A threaded server recording into `registry`, its table made resident
/// by one warm-up scan, and the plan of a scan of all of it.
#[cfg(not(debug_assertions))]
fn resident_server(registry: Arc<Registry>) -> (ScanServer, CScanPlan) {
    use cscan_core::policy::PolicyKind;
    use cscan_core::TableModel;
    use cscan_storage::{ScanRanges, SeededStore};
    use std::time::Duration;

    // Enough rows per chunk that the gate measures relative overhead on a
    // realistic consume granularity (~1M values folded), not the fixed
    // ~100ns/chunk instrumentation cost against a near-empty chunk.
    const CHUNKS: u32 = 64;
    const ROWS: u64 = 16_384;

    let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
    let server = ScanServer::builder(model.clone())
        .policy(PolicyKind::Relevance)
        .buffer_chunks(CHUNKS as u64)
        .io_cost_per_page(Duration::ZERO)
        .observability(registry)
        .store(Arc::new(SeededStore::new(ROWS, 2, 5)))
        .build();
    let plan = CScanPlan::new("measured", ScanRanges::full(CHUNKS), model.all_columns());
    // Warmup: fault everything in so every measured scan is pure hit path.
    consume(server.cscan(plan.clone())).finish();
    (server, plan)
}

/// Folds one column of every chunk `handle` delivers, and hands the scan
/// back so that it finishes after the clock stops.
#[cfg(not(debug_assertions))]
fn consume(handle: CScanHandle) -> CScanHandle {
    let col = cscan_storage::ColumnId::new(1);
    let mut checksum = 0i64;
    while let Some(pin) = handle.next_chunk().expect("fault-free scan") {
        let values = pin.column(col).expect("payload column view");
        checksum = values.iter().fold(checksum, |acc, &v| acc.wrapping_add(v));
        pin.complete();
    }
    std::hint::black_box(checksum);
    handle
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the overhead bound is measured in release builds only \
              (debug builds check counters after every mutation)"
)]
fn instrumentation_overhead_is_bounded() {
    #[cfg(not(debug_assertions))]
    {
        // Two identical servers read a few percent apart in one run, so
        // the two are compared once in each build order and the gate reads
        // the geometric mean of the two ratios.
        let ratios = [true, false].map(|instrumented_first| {
            let build = |registry| resident_server(Arc::new(registry));
            let ((on, plan), (off, _)) = if instrumented_first {
                let on = build(Registry::new());
                (on, build(Registry::disabled()))
            } else {
                let off = build(Registry::disabled());
                (build(Registry::new()), off)
            };
            // Each pass opens a scan untimed and times its consume loop.
            let scan = |server: &ScanServer| {
                let handle = server.cscan(plan.clone());
                move || consume(handle)
            };
            let label = match instrumented_first {
                true => "instrumented consume loop (built first) against Registry::disabled",
                false => "instrumented consume loop against Registry::disabled (built first)",
            };
            measure::compare_prepared(label, || scan(&on), || scan(&off)).cost_ratio()
        });
        let ratio = (ratios[0] * ratios[1]).sqrt();
        assert!(
            ratio <= 1.03,
            "instrumented consume path is {:.2}% slower than the no-obs \
             baseline (gate: <= 3%): {:.3}x and {:.3}x in the two build orders",
            (ratio - 1.0) * 100.0,
            ratios[0],
            ratios[1]
        );
    }
}
