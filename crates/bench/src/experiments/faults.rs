//! Fault sweep — the data plane under injected I/O failures: delivered rows
//! and fault counts as the transient fault rate rises, and the clean-path
//! cost of payload checksumming.
//!
//! Every point drives a real threaded [`ScanServer`] over a
//! [`FaultInjectingStore`] wrapping compressed lineitem chunks: transient
//! read failures are retried with backoff by the I/O workers, corrupted
//! payloads are caught by the install-time checksum and retried, and the
//! delivered rows are counted.  The checksum
//! overhead measurement times [`verify_checksums`] against materialize and
//! decode, through [`measure::compare_prepared`]: the share of the
//! consume path's work the release fault gate bounds at 5%.
//!
//! [`verify_checksums`]: cscan_storage::ChunkPayload::verify_checksums

use crate::measure;
use cscan_core::policy::PolicyKind;
use cscan_core::threaded::ScanServer;
use cscan_core::RetryPolicy;
use cscan_core::{CScanPlan, ColSet, TableModel};
use cscan_exec::MemTable;
use cscan_obs::Registry;
use cscan_storage::{
    ChunkId, ChunkPayload, ChunkStore, CompressingStore, FaultConfig, FaultInjectingStore,
    ScanRanges,
};
use std::sync::Arc;
use std::time::Duration;

/// One point of the fault-rate sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultSweepPoint {
    /// Per-attempt transient fault probability injected into the store.
    pub fault_rate: f64,
    /// Rows delivered to the consumer.
    pub rows: u64,
    /// Failed read attempts observed by the I/O workers.
    pub load_faults: u64,
    /// Corruptions caught by the install-time checksum.
    pub checksum_failures: u64,
    /// Chunks given up on (must be 0 in a transient-only sweep).
    pub chunks_quarantined: u64,
    /// Transient read failures the store *injected* (mirrored by the fault
    /// injector).  Differs from worker-observed `load_faults` in both
    /// directions: lower when a failed attempt belonged to a load cancelled
    /// concurrently, higher-looking `load_faults` when corruptions (counted
    /// separately as `checksum_failures`) also fail the install.
    pub faults_injected: u64,
}

/// Scans `chunks` compressed lineitem chunks end-to-end at each transient
/// `rate` (payload corruptions at half of it), returning one point per
/// rate.  Rate 0.0 is the fault-free baseline the other points are read
/// against.
///
/// All points share one observability [`Registry`]; each point reads its
/// counters from [`Registry::snapshot_and_reset`], so a point reports only
/// its own window and nothing accumulates across rates.
pub fn run_fault_sweep(chunks: u32, rows_per_chunk: u64, rates: &[f64]) -> Vec<FaultSweepPoint> {
    let table = MemTable::lineitem_demo(chunks as u64 * rows_per_chunk, rows_per_chunk);
    let registry = Arc::new(Registry::new());
    rates
        .iter()
        .map(|&rate| {
            let config = FaultConfig {
                corruption_rate: rate / 2.0,
                ..FaultConfig::transient_only(0xFA11_5EED ^ rate.to_bits(), rate)
            };
            let store = FaultInjectingStore::new(
                CompressingStore::new(table.clone(), MemTable::lineitem_demo_schemes()),
                config,
            )
            .with_observability(Arc::clone(&registry));
            let model = TableModel::nsm_uniform(chunks, rows_per_chunk, 16);
            let server = ScanServer::builder(model)
                .policy(PolicyKind::Relevance)
                .buffer_chunks(chunks as u64 / 4 + 1)
                .io_cost_per_page(Duration::ZERO)
                .io_threads(2)
                .retry_policy(RetryPolicy {
                    backoff_base: Duration::from_micros(50),
                    backoff_cap: Duration::from_micros(500),
                    ..RetryPolicy::default()
                })
                .observability(Arc::clone(&registry))
                .store(Arc::new(store))
                .build();
            let handle = server.cscan(CScanPlan::new(
                "fault-sweep",
                ScanRanges::full(chunks),
                ColSet::empty(),
            ));
            let mut rows = 0u64;
            while let Some(pin) = handle
                .next_chunk()
                .expect("transient-only sweep must not quarantine")
            {
                rows += pin.rows() as u64;
                pin.complete();
            }
            let snap = registry.snapshot_and_reset();
            FaultSweepPoint {
                fault_rate: rate,
                rows,
                load_faults: snap.counter("load_faults"),
                checksum_failures: snap.counter("checksum_failures"),
                chunks_quarantined: snap.counter("chunks_quarantined"),
                faults_injected: snap.counter("faults_injected"),
            }
        })
        .collect()
}

/// Times checksum verification of `chunks` compressed lineitem chunks
/// (ours) against materializing and decoding the same chunks (the
/// reference): the clean-path cost of payload checksumming as a share of
/// the consume path's work, which the release fault gate bounds at 5%.
///
/// Ours verifies payloads materialized once before the clock starts:
/// verifying an undecoded column caches nothing, so every pass checks
/// every byte again.
pub fn run_checksum_overhead(chunks: u32, rows_per_chunk: u64) -> measure::Comparison {
    let table = MemTable::lineitem_demo(chunks as u64 * rows_per_chunk, rows_per_chunk);
    let store = CompressingStore::new(table, MemTable::lineitem_demo_schemes());
    let materialize = |c| {
        store
            .materialize(ChunkId::new(c), None)
            .expect("in-memory store cannot fail")
    };
    let payloads: Vec<ChunkPayload> = (0..chunks).map(materialize).collect();
    measure::compare_prepared(
        "checksum verify against materialize + decode",
        || {
            let payloads = payloads.clone();
            move || {
                for payload in &payloads {
                    payload.verify_checksums().expect("clean payloads verify");
                }
                payloads
            }
        },
        || {
            move || {
                let decoded = |c| {
                    let payload = materialize(c);
                    let values = payload.try_decode_all().expect("clean payloads decode");
                    assert!(values > 0, "the overhead run must decode real data");
                    payload
                };
                (0..chunks).map(decoded).collect::<Vec<_>>()
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_monotone_fault_counts() {
        let points = run_fault_sweep(8, 200, &[0.0, 0.3]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].load_faults, 0, "rate 0 injects nothing");
        assert_eq!(points[0].rows, 8 * 200);
        assert!(points[1].load_faults > 0, "rate 0.3 must inject faults");
        assert_eq!(points[1].rows, 8 * 200, "faults never lose rows");
        assert_eq!(points[1].chunks_quarantined, 0);
        // Worker-observed faults are injected transients plus corruptions
        // caught at install time (checksum failures retry like faults).
        assert!(
            points[1].faults_injected + points[1].checksum_failures >= points[1].load_faults,
            "injected {} + checksum {} < observed {}",
            points[1].faults_injected,
            points[1].checksum_failures,
            points[1].load_faults
        );
        assert!(points[1].faults_injected > 0);
    }

    #[test]
    fn sweep_points_report_their_own_window_only() {
        // snapshot_and_reset between points: a rate-0 point run *after* a
        // faulty one must still read zero faults, not the faulty residue.
        let points = run_fault_sweep(8, 200, &[0.3, 0.0]);
        assert!(points[0].load_faults > 0);
        assert_eq!(
            points[1].load_faults, 0,
            "counters must not leak across sweep points"
        );
        assert_eq!(points[1].faults_injected, 0);
        assert_eq!(points[1].checksum_failures, 0);
    }

    #[test]
    fn checksum_overhead_is_measurable() {
        let o = run_checksum_overhead(8, 500);
        assert!(o.ours_s > 0.0);
        assert!(o.theirs_s > 0.0);
        assert!(
            o.cost_ratio() < 1.0,
            "verify cannot dominate the consume path"
        );
    }
}
