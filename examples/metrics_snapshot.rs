//! Observability tour: drive the scan server over a fault-injecting store,
//! then print what the metrics plane saw — the Prometheus text exposition
//! of the full registry snapshot, followed by the flight recorder dump the
//! failure triggered.
//!
//! The server runs on real threads and wall-clock time, so counts repeat
//! from run to run while span durations and the dump's nanosecond stamps do
//! not.
//!
//! Run with: `cargo run --example metrics_snapshot`

use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::threaded::ScanServer;
use cscan_core::CScanPlan;
use cscan_core::RetryPolicy;
use cscan_storage::{FaultConfig, FaultInjectingStore, ScanRanges, SeededStore};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // An 8-chunk table behind a 4-chunk buffer pool, with chunk 2 failing
    // permanently and no retry budget: the chunk is quarantined on its
    // first read, and the quarantine dumps the flight recorder.
    let model = TableModel::nsm_uniform(8, 1_000, 16);
    let config = FaultConfig {
        permanent_chunks: vec![2],
        ..FaultConfig::default()
    };
    let store = FaultInjectingStore::new(SeededStore::new(1_000, 1, 7), config);
    let server = ScanServer::builder(model.clone())
        .policy(PolicyKind::Relevance)
        .buffer_chunks(4)
        .io_cost_per_page(Duration::ZERO)
        .retry_policy(RetryPolicy::no_retries())
        .store(Arc::new(store))
        .build();

    // A clean scan over the healthy prefix completes and detaches; the
    // full-table scan hits the quarantined chunk and errors out.
    let healthy = server.cscan(CScanPlan::new(
        "healthy-prefix",
        ScanRanges::single(0, 2),
        model.all_columns(),
    ));
    while let Ok(Some(pin)) = healthy.next_chunk() {
        pin.complete();
    }

    let doomed = server.cscan(CScanPlan::new(
        "doomed-full-scan",
        ScanRanges::full(8),
        model.all_columns(),
    ));
    let err = loop {
        match doomed.next_chunk() {
            Ok(Some(pin)) => pin.complete(),
            Ok(None) => unreachable!("the scan must hit the quarantined chunk"),
            Err(e) => break e,
        }
    };
    println!("scan failed as arranged: {err}\n");

    let registry = server.metrics();
    println!("==== Prometheus exposition (Registry::snapshot) ====\n");
    print!("{}", registry.snapshot().render_prometheus());

    println!("\n==== Flight recorder dump (stored on quarantine and scan error) ====\n");
    print!(
        "{}",
        registry
            .last_flight_dump()
            .expect("quarantine stores a flight dump")
    );
}
