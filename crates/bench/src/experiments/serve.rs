//! The served-scan experiment behind `tests/serve_gate.rs`: many concurrent
//! remote clients streaming two tables through the network service, with the
//! admission cap deliberately below the offered load so the gate's
//! queue/shed behaviour is exercised, and a fraction of clients killed
//! mid-scan (socket dropped without `Cancel`) to prove teardown releases
//! every pin and permit.
//!
//! The load is open-loop per client slot: each slot fires its next scan as
//! soon as the previous one finishes (or is killed), retrying with a short
//! backoff when admission sheds it, so the service stays saturated for the
//! whole run.  Reported: sustained aggregate served MiB/s (server-side
//! `BytesServed` over wall time) and the p50/p99 time-to-first-batch —
//! measured from *before* `open_scan`, so admission queueing is part of
//! the latency a client actually observes.

use cscan_client::ScanClient;
use cscan_core::{CScanPlan, ColSet};
use cscan_exec::MemTable;
use cscan_obs::{Counter, Gauge};
use cscan_server::{serve, AdmissionConfig, Catalog, ServerConfig, TableConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of the served sweep.
#[derive(Debug, Clone)]
pub struct ServeSweepConfig {
    /// Concurrent client connections (each holds one open scan at a time).
    pub clients: usize,
    /// Scans each client completes (killed scans count).
    pub scans_per_client: usize,
    /// Chunks in the larger table (the smaller one has half).
    pub chunks: u32,
    /// Rows per chunk in both tables.
    pub rows_per_chunk: u64,
    /// Admission cap per table — set below `clients / 2` to force queueing.
    pub max_attached: usize,
    /// Admission queue depth per table — arrivals beyond it are shed.
    pub max_queued: usize,
    /// Every `kill_every`-th scan is killed mid-stream by dropping the
    /// whole connection (no `Cancel`, no drain).  `0` disables kills.
    pub kill_every: usize,
}

/// What one served sweep measured.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Scans that streamed to completion.
    pub scans_completed: u64,
    /// Scans killed mid-stream by dropping the connection.
    pub scans_killed: u64,
    /// Server-side bytes served over wall time.
    pub sustained_mib_s: f64,
    /// Median time from `open_scan` call to first batch, across all scans.
    pub ttfb_p50: Duration,
    /// 99th-percentile time-to-first-batch.
    pub ttfb_p99: Duration,
    /// Admission counter: scans admitted (includes retries that made it).
    pub admitted: u64,
    /// Admission counter: scans that waited in the FIFO queue.
    pub queued: u64,
    /// Admission counter: scans shed at the gate.
    pub shed: u64,
    /// Peak concurrently-admitted scans observed (gauge sampled per open).
    pub peak_admitted: u64,
    /// Batches the server encoded and sent.
    pub batches_served: u64,
    /// Bytes the server encoded and sent.
    pub bytes_served: u64,
    /// Buffer frames still pinned after every client disconnected.
    pub pinned_after: usize,
}

/// Runs the sweep: builds a two-table catalog, serves it on an ephemeral
/// loopback port, drives it with `cfg.clients` concurrent client threads,
/// and waits for clean teardown before reading the leak counters.
pub fn run_serve_sweep(cfg: &ServeSweepConfig) -> ServeResult {
    let admission = AdmissionConfig {
        max_attached: cfg.max_attached,
        max_queued: cfg.max_queued,
        queue_timeout: Duration::from_secs(10),
    };
    let table_cfg = TableConfig {
        buffer_chunks: 16,
        admission,
        ..TableConfig::default()
    };
    let rows_large = cfg.chunks as u64 * cfg.rows_per_chunk;
    let mut catalog = Catalog::new();
    catalog.add_mem_table(
        "lineitem",
        MemTable::lineitem_demo(rows_large, cfg.rows_per_chunk),
        table_cfg.clone(),
    );
    catalog.add_mem_table(
        "orders",
        MemTable::orders_demo(rows_large / 2, cfg.rows_per_chunk),
        table_cfg,
    );
    let catalog = Arc::new(catalog);
    let obs = catalog.observability();
    let handle = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            exit_on_shutdown: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let killed = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let peak_admitted = Arc::new(AtomicU64::new(0));
    let start = Instant::now();

    let workers: Vec<_> = (0..cfg.clients)
        .map(|c| {
            let cfg = cfg.clone();
            let killed = Arc::clone(&killed);
            let completed = Arc::clone(&completed);
            let peak = Arc::clone(&peak_admitted);
            let obs = Arc::clone(&obs);
            std::thread::spawn(move || {
                let mut ttfb = Vec::with_capacity(cfg.scans_per_client);
                let mut client = ScanClient::connect(addr).expect("connect");
                for s in 0..cfg.scans_per_client {
                    // Alternate tables so both stay under concurrent load.
                    let table = if (c + s) % 2 == 0 {
                        "lineitem"
                    } else {
                        "orders"
                    };
                    let kill = cfg.kill_every != 0
                        && (c * cfg.scans_per_client + s) % cfg.kill_every == cfg.kill_every - 1;
                    let t0 = Instant::now();
                    let mut scan = loop {
                        let plan = CScanPlan::full_table(format!("c{c}-s{s}"), ColSet::first_n(2));
                        match client.open_scan(table, plan) {
                            Ok(scan) => break scan,
                            Err(e) if e.is_retryable() => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(e) => panic!("client {c} scan {s}: {e}"),
                        }
                    };
                    let mut first = true;
                    let mut batches = 0u64;
                    loop {
                        match scan.next_batch() {
                            Ok(Some(_)) => {
                                if first {
                                    ttfb.push(t0.elapsed());
                                    peak.fetch_max(
                                        obs.gauge(Gauge::AdmittedScans),
                                        Ordering::Relaxed,
                                    );
                                    first = false;
                                }
                                batches += 1;
                                if kill && batches >= 2 {
                                    // Kill the whole connection mid-scan:
                                    // no Cancel, no drain — the server
                                    // must clean up from the socket close.
                                    drop(scan);
                                    client = ScanClient::connect(addr).expect("reconnect");
                                    killed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                            }
                            Ok(None) => {
                                completed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Err(e) => panic!("client {c} scan {s} stream: {e}"),
                        }
                    }
                }
                ttfb
            })
        })
        .collect();

    let mut ttfb: Vec<Duration> = Vec::new();
    for w in workers {
        ttfb.extend(w.join().expect("client thread"));
    }
    let wall = start.elapsed();

    // Every client is gone; poll the pin gauge down to its resting value
    // (connection threads race the join).
    let mut pinned_after = catalog.pinned_frames();
    for _ in 0..500 {
        if pinned_after == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        pinned_after = catalog.pinned_frames();
    }

    ttfb.sort_unstable();
    let pct = |q: f64| -> Duration {
        if ttfb.is_empty() {
            Duration::ZERO
        } else {
            ttfb[((ttfb.len() - 1) as f64 * q) as usize]
        }
    };
    let bytes_served = obs.counter(Counter::BytesServed);
    let result = ServeResult {
        scans_completed: completed.load(Ordering::Relaxed),
        scans_killed: killed.load(Ordering::Relaxed),
        sustained_mib_s: bytes_served as f64 / (1024.0 * 1024.0) / wall.as_secs_f64().max(1e-9),
        ttfb_p50: pct(0.50),
        ttfb_p99: pct(0.99),
        admitted: obs.counter(Counter::AdmissionAdmitted),
        queued: obs.counter(Counter::AdmissionQueued),
        shed: obs.counter(Counter::AdmissionShed),
        peak_admitted: peak_admitted.load(Ordering::Relaxed),
        batches_served: obs.counter(Counter::BatchesServed),
        bytes_served,
        pinned_after,
    };
    handle.stop();
    handle.join();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-build smoke at a fraction of the CI scale: the full sweep is
    /// exercised release-only in `tests/serve_gate.rs`.
    #[test]
    fn small_sweep_completes_and_leaks_nothing() {
        let cfg = ServeSweepConfig {
            clients: 6,
            scans_per_client: 2,
            chunks: 8,
            rows_per_chunk: 500,
            max_attached: 2,
            max_queued: 1,
            kill_every: 5,
        };
        let r = run_serve_sweep(&cfg);
        assert_eq!(
            r.scans_completed + r.scans_killed,
            (cfg.clients * cfg.scans_per_client) as u64
        );
        assert!(r.scans_killed >= 1, "kill schedule fired");
        assert!(r.bytes_served > 0 && r.batches_served > 0);
        assert!(r.admitted >= r.scans_completed);
        assert_eq!(r.pinned_after, 0, "pins leaked");
        assert!(r.ttfb_p99 >= r.ttfb_p50);
    }
}
