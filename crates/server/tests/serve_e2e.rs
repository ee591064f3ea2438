//! End-to-end service tests over loopback TCP: open/stream/cancel,
//! catalog misses, admission shedding, and clean teardown.

use cscan_client::{ClientError, ScanClient};
use cscan_core::{CScanPlan, ColSet};
use cscan_exec::MemTable;
use cscan_obs::Counter;
use cscan_proto::{frame, Decoder, Message, ServeError};
use cscan_server::{serve, AdmissionConfig, Catalog, ServerConfig, TableConfig};
use cscan_storage::{ChunkId, ColumnId, Compression, ScanRanges, ScratchPath};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn demo_server(admission: AdmissionConfig) -> (Arc<Catalog>, cscan_server::ServerHandle) {
    let mut catalog = Catalog::new();
    let cfg = TableConfig {
        admission,
        buffer_chunks: 8,
        ..TableConfig::default()
    };
    catalog.add_mem_table(
        "lineitem",
        MemTable::lineitem_demo(16_000, 500),
        cfg.clone(),
    );
    catalog.add_mem_table("orders", MemTable::orders_demo(4_000, 500), cfg);
    let catalog = Arc::new(catalog);
    let handle = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            exit_on_shutdown: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    (catalog, handle)
}

#[test]
fn full_scan_streams_every_chunk_once() {
    let (catalog, handle) = demo_server(AdmissionConfig::default());
    let addr = handle.addr();

    let mut client = ScanClient::connect(addr).expect("connect");
    let mut scan = client
        .open_scan("lineitem", CScanPlan::full_table("q", ColSet::first_n(2)))
        .expect("admitted");
    assert_eq!(scan.num_chunks(), 32);
    let mut chunks_seen = Vec::new();
    let mut rows = 0u64;
    while let Some(batch) = scan.next_batch().expect("clean stream") {
        assert_eq!(batch.rows, 500);
        assert_eq!(batch.columns.len(), 2);
        assert_eq!(batch.column(0).unwrap().len(), 500);
        chunks_seen.push(batch.chunk);
        rows += batch.rows as u64;
    }
    assert_eq!(rows, 16_000);
    chunks_seen.sort_unstable();
    chunks_seen.dedup();
    assert_eq!(chunks_seen.len(), 32, "each chunk delivered exactly once");

    drop(scan);
    drop(client);
    wait_for_zero_pins(&catalog);
    handle.stop();
    handle.join();
}

#[test]
fn two_tables_serve_concurrently_on_one_catalog() {
    let (catalog, handle) = demo_server(AdmissionConfig::default());
    let addr: SocketAddr = handle.addr();

    let threads: Vec<_> = [("lineitem", 16_000u64), ("orders", 4_000u64)]
        .into_iter()
        .map(|(table, want_rows)| {
            std::thread::spawn(move || {
                let mut client = ScanClient::connect(addr).expect("connect");
                let mut scan = client
                    .open_scan(table, CScanPlan::full_table("q", ColSet::empty()))
                    .expect("admitted");
                let mut rows = 0u64;
                while let Some(batch) = scan.next_batch().expect("clean stream") {
                    rows += batch.rows as u64;
                }
                assert_eq!(rows, want_rows, "{table}");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    wait_for_zero_pins(&catalog);
    handle.stop();
    handle.join();
}

#[test]
fn cancel_mid_scan_frees_the_slot_and_connection_stays_usable() {
    let (catalog, handle) = demo_server(AdmissionConfig {
        max_attached: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(100),
    });

    let mut client = ScanClient::connect(handle.addr()).expect("connect");
    let mut scan = client
        .open_scan("lineitem", CScanPlan::full_table("q", ColSet::first_n(1)))
        .expect("admitted");
    let first = scan.next_batch().expect("one batch").expect("not done");
    assert_eq!(first.rows, 500);
    scan.cancel().expect("cancel acknowledged");

    // The single admission slot must be free again: with cap 1 and no
    // queue, a second scan on the same connection succeeds only if the
    // cancel released its permit.
    let mut scan = client
        .open_scan("lineitem", CScanPlan::full_table("q2", ColSet::first_n(1)))
        .expect("slot was released by cancel");
    let mut rows = 0u64;
    while let Some(batch) = scan.next_batch().expect("clean stream") {
        rows += batch.rows as u64;
    }
    assert_eq!(rows, 16_000);

    drop(scan);
    drop(client);
    wait_for_zero_pins(&catalog);
    handle.stop();
    handle.join();
}

#[test]
fn dropped_scan_cancels_lazily_and_client_recovers() {
    let (catalog, handle) = demo_server(AdmissionConfig {
        max_attached: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(100),
    });

    let mut client = ScanClient::connect(handle.addr()).expect("connect");
    {
        let mut scan = client
            .open_scan("lineitem", CScanPlan::full_table("q", ColSet::first_n(1)))
            .expect("admitted");
        let _ = scan.next_batch().expect("one batch");
        // Dropped mid-stream: Cancel is sent, the tail drains lazily.
    }
    let mut scan = client
        .open_scan("orders", CScanPlan::full_table("q2", ColSet::empty()))
        .expect("connection usable after dropped scan");
    let mut rows = 0u64;
    while let Some(batch) = scan.next_batch().expect("clean stream") {
        rows += batch.rows as u64;
    }
    assert_eq!(rows, 4_000);

    drop(scan);
    drop(client);
    wait_for_zero_pins(&catalog);
    handle.stop();
    handle.join();
}

/// Scan ids are issued in increasing order, so the server needs no list of
/// closed scans to tell a frame that raced a scan's end (ignored, or acked)
/// from one for a scan that never was (`UnknownScan`, 204): the boundary is
/// the next id it would issue.
#[test]
fn frames_for_closed_scans_are_tolerated_and_for_unissued_ones_refused() {
    let (catalog, handle) = demo_server(AdmissionConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut dec = Decoder::new();
    // Sends the frames, returns the next frame to arrive.
    let mut request = |msgs: &[Message]| -> Message {
        for msg in msgs {
            stream.write_all(&frame(msg)).expect("send");
        }
        loop {
            if let Some(reply) = dec.next_message().expect("well-formed reply") {
                return reply;
            }
            assert!(dec.read_from(&mut stream).expect("read") > 0, "closed");
        }
    };
    let refused = |reply: Message| match reply {
        Message::Error { scan_id, code, .. } => {
            scan_id == 0 && code == ServeError::CODE_UNKNOWN_SCAN
        }
        _ => false,
    };
    let cancel = |scan_id| Message::Cancel { scan_id };
    let credits = |scan_id| Message::NextBatch {
        scan_id,
        credits: 1,
    };

    // Nothing issued yet: every id is unknown.
    assert!(refused(request(&[cancel(1)])));
    assert!(refused(request(&[credits(1)])));

    let open = Message::OpenScan {
        table: "lineitem".into(),
        plan: CScanPlan::full_table("q", ColSet::first_n(1)),
    };
    let opened = Message::OpenOk {
        scan_id: 1,
        num_chunks: 32,
    };
    assert_eq!(request(&[open]), opened);
    assert_eq!(request(&[cancel(1)]), Message::CancelOk { scan_id: 1 });
    // Scan 1 is closed: late credits draw no reply at all (the frame that
    // arrives answers the cancel behind them), and a late cancel is acked
    // again.
    assert_eq!(
        request(&[credits(1), cancel(1)]),
        Message::CancelOk { scan_id: 1 }
    );
    // Scan 2 was never issued.
    assert!(refused(request(&[credits(2)])));
    assert!(refused(request(&[cancel(2)])));

    drop(stream);
    wait_for_zero_pins(&catalog);
    handle.stop();
    handle.join();
}

#[test]
fn unknown_table_and_bad_plan_are_typed_errors() {
    let (_catalog, handle) = demo_server(AdmissionConfig::default());

    let mut client = ScanClient::connect(handle.addr()).expect("connect");
    match client.open_scan("no_such_table", CScanPlan::full_table("q", ColSet::empty())) {
        Err(ClientError::Serve(ServeError::UnknownTable(name))) => {
            assert_eq!(name, "unknown table \"no_such_table\"");
        }
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    match client.open_scan("lineitem", CScanPlan::full_table("q", ColSet::first_n(40))) {
        Err(ClientError::Serve(ServeError::BadRequest(_))) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // The connection survives typed refusals.
    let mut scan = client
        .open_scan("orders", CScanPlan::full_table("q", ColSet::empty()))
        .expect("connection still usable");
    assert!(scan.next_batch().expect("streams").is_some());
    scan.cancel().expect("cancel");

    handle.stop();
    handle.join();
}

#[test]
fn admission_cap_sheds_excess_with_retryable_error() {
    let (catalog, handle) = demo_server(AdmissionConfig {
        max_attached: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(100),
    });

    let mut holder = ScanClient::connect(handle.addr()).expect("connect");
    let held = holder
        .open_scan(
            "lineitem",
            CScanPlan::full_table("hold", ColSet::first_n(1)),
        )
        .expect("first scan admitted");

    let mut second = ScanClient::connect(handle.addr()).expect("connect");
    match second.open_scan(
        "lineitem",
        CScanPlan::full_table("shed", ColSet::first_n(1)),
    ) {
        Err(e @ ClientError::Serve(ServeError::AdmissionRejected)) => {
            assert!(e.is_retryable(), "shedding must be retryable");
        }
        other => panic!("expected AdmissionRejected, got {other:?}"),
    }
    let obs = catalog.observability();
    assert!(
        obs.counter(cscan_obs::Counter::AdmissionShed) >= 1,
        "shed is counted"
    );

    // Once the holder finishes, the shed client's retry succeeds.
    held.cancel().expect("cancel");
    let mut scan = second
        .open_scan(
            "lineitem",
            CScanPlan::full_table("retry", ColSet::first_n(1)),
        )
        .expect("retry after shed");
    assert!(scan.next_batch().expect("streams").is_some());
    scan.cancel().expect("cancel");

    drop(holder);
    drop(second);
    wait_for_zero_pins(&catalog);
    handle.stop();
    handle.join();
}

/// `lineitem_demo` (16 chunks of 500 rows, six columns) as a plain segment
/// file, and a catalog serving it as `lineitem` from a 4-chunk buffer.
fn segment_catalog(name: &str) -> (ScratchPath, MemTable, Catalog) {
    let table = MemTable::lineitem_demo(8_000, 500);
    let path = ScratchPath::new(name);
    table
        .write_segment(&path, vec![Compression::None; table.width()])
        .expect("write segment");
    let mut catalog = Catalog::new();
    let cfg = TableConfig {
        buffer_chunks: 4,
        ..TableConfig::default()
    };
    catalog.add_segment("lineitem", &path, cfg).expect("open");
    (path, table, catalog)
}

/// The columns the next two tests scan: `l_quantity` and `l_returnflag`.
const QTY: u16 = 1;
const FLAG: u16 = 5;

#[test]
fn a_two_column_remote_scan_reads_two_extents_per_load() {
    let (_path, table, catalog) = segment_catalog("serve_two_columns");
    let catalog = Arc::new(catalog);
    let handle = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            exit_on_shutdown: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");

    let mut client = ScanClient::connect(handle.addr()).expect("connect");
    let columns = ColSet::from_columns([QTY, FLAG].map(ColumnId::new));
    let mut scan = client
        .open_scan("lineitem", CScanPlan::full_table("q", columns))
        .expect("admitted");
    let mut seen = 0;
    while let Some(batch) = scan.next_batch().expect("clean stream") {
        let want = table.read_chunk(ChunkId::new(batch.chunk), &[QTY as usize, FLAG as usize]);
        assert_eq!(batch.columns.len(), 2);
        assert_eq!(
            batch.column(QTY),
            Some(want.column(0)),
            "chunk {}",
            batch.chunk
        );
        assert_eq!(
            batch.column(FLAG),
            Some(want.column(1)),
            "chunk {}",
            batch.chunk
        );
        seen += 1;
    }
    assert_eq!(seen, table.num_chunks());
    drop(scan);
    drop(client);
    wait_for_zero_pins(&catalog);

    // The table is a column store to its scheduler: every load read the two
    // extents asked for — a third of a full-width chunk — and no other.
    let loads = catalog
        .get("lineitem")
        .unwrap()
        .server()
        .metrics()
        .counter(Counter::LoadsCompleted);
    let obs = catalog.observability();
    assert!(loads >= table.num_chunks() as u64);
    assert_eq!(obs.counter(Counter::FileReadCalls), 2 * loads);
    assert_eq!(obs.counter(Counter::FileBytesRead), loads * 2 * 500 * 8);
    handle.stop();
    handle.join();
}

/// Two scans of different widths over one chunk: the second loads only the
/// column the first did not bring, and a pin taken before that install and
/// one taken after it both read their own columns' data.
#[test]
fn a_wider_scan_of_a_resident_chunk_loads_the_missing_column_alone() {
    let (_path, table, catalog) = segment_catalog("serve_widths");
    let entry = catalog.get("lineitem").unwrap();
    let obs = catalog.observability();
    let want = table.read_chunk(ChunkId::new(0), &[QTY as usize, FLAG as usize]);
    let one_chunk = |label: &str, cols: &[u16]| {
        let cols = ColSet::from_columns(cols.iter().copied().map(ColumnId::new));
        entry
            .server()
            .cscan(CScanPlan::new(label, ScanRanges::single(0, 1), cols))
    };

    let narrow = one_chunk("narrow", &[QTY]);
    let before = narrow.next_chunk().expect("clean").expect("chunk 0");
    assert_eq!(obs.counter(Counter::FileReadCalls), 1);
    assert_eq!(
        before.column(ColumnId::new(FLAG)),
        None,
        "not asked for, not read"
    );

    let wide = one_chunk("wide", &[QTY, FLAG]);
    let after = wide.next_chunk().expect("clean").expect("chunk 0");
    assert_eq!(obs.counter(Counter::FileReadCalls), 2, "column 5 alone");
    assert_eq!(obs.counter(Counter::FileBytesRead), 2 * 500 * 8);
    assert_eq!(entry.server().metrics().counter(Counter::LoadsCompleted), 2);

    assert_eq!(before.column(ColumnId::new(QTY)), Some(want.column(0)));
    assert_eq!(after.column(ColumnId::new(QTY)), Some(want.column(0)));
    assert_eq!(after.column(ColumnId::new(FLAG)), Some(want.column(1)));
    before.complete();
    after.complete();
    narrow.finish();
    wide.finish();
    assert_eq!(catalog.pinned_frames(), 0);
}

/// Pins are released on scan/connection teardown, but the server threads
/// race the test's asserts; poll briefly before declaring a leak.
fn wait_for_zero_pins(catalog: &Catalog) {
    for _ in 0..200 {
        if catalog.pinned_frames() == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(catalog.pinned_frames(), 0, "pinned frames leaked");
}
