//! `cscan_serve` — run the scan service over a demo catalog.
//!
//! ```text
//! cscan_serve [--addr HOST:PORT] [--rows N] [--cap N] [--queue N]
//!             [--queue-timeout-ms N] [--stall-timeout-ms N] [--no-exit-on-shutdown]
//! ```
//!
//! Binds the address (default `127.0.0.1:0`), prints `LISTENING <addr>`
//! on stdout once accepting, and serves two in-memory tables —
//! `lineitem` and `orders` — until a client sends `Shutdown` (unless
//! `--no-exit-on-shutdown`).  On exit it prints a one-line JSON summary
//! of the admission and serving counters, and fails (exit 1) if any
//! buffer frame is still pinned — the smoke test's leak check.

use cscan_exec::MemTable;
use cscan_obs::{Counter, Gauge, Registry};
use cscan_server::{serve, AdmissionConfig, Catalog, ServerConfig, TableConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:0".to_string();
    let mut rows: u64 = 40_000;
    let mut admission = AdmissionConfig::default();
    let mut server_cfg = ServerConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} expects a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--rows" => rows = value("--rows").parse().expect("--rows: integer"),
            "--cap" => {
                admission.max_attached = value("--cap").parse().expect("--cap: integer");
            }
            "--queue" => {
                admission.max_queued = value("--queue").parse().expect("--queue: integer");
            }
            "--queue-timeout-ms" => {
                admission.queue_timeout = Duration::from_millis(
                    value("--queue-timeout-ms")
                        .parse()
                        .expect("--queue-timeout-ms: integer"),
                );
            }
            "--stall-timeout-ms" => {
                server_cfg.stall_timeout = Duration::from_millis(
                    value("--stall-timeout-ms")
                        .parse()
                        .expect("--stall-timeout-ms: integer"),
                );
            }
            "--no-exit-on-shutdown" => server_cfg.exit_on_shutdown = false,
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let obs = Arc::new(Registry::new());
    let mut catalog = Catalog::with_observability(Arc::clone(&obs));
    let table_cfg = TableConfig {
        admission,
        ..TableConfig::default()
    };
    catalog.add_mem_table(
        "lineitem",
        MemTable::lineitem_demo(rows, (rows / 80).max(100)),
        table_cfg.clone(),
    );
    catalog.add_mem_table(
        "orders",
        MemTable::orders_demo(rows / 2, (rows / 160).max(100)),
        table_cfg,
    );
    let catalog = Arc::new(catalog);

    let handle = match serve(Arc::clone(&catalog), addr.as_str(), server_cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", handle.addr());
    let _ = std::io::stdout().flush();

    handle.join();

    let pinned = catalog.pinned_frames();
    println!(
        "{{\"admitted\": {}, \"queued\": {}, \"shed\": {}, \"connections\": {}, \
         \"connections_shed\": {}, \"batches_served\": {}, \
         \"bytes_served\": {}, \"pinned_frames\": {}, \"open_connections\": {}}}",
        obs.counter(Counter::AdmissionAdmitted),
        obs.counter(Counter::AdmissionQueued),
        obs.counter(Counter::AdmissionShed),
        obs.counter(Counter::ConnectionsOpened),
        obs.counter(Counter::ConnectionsShed),
        obs.counter(Counter::BatchesServed),
        obs.counter(Counter::BytesServed),
        pinned,
        obs.gauge(Gauge::OpenConnections),
    );
    if pinned != 0 {
        eprintln!("leak: {pinned} frames still pinned at shutdown");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
