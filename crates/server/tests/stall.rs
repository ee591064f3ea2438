//! The served-scan invariant: a client that stops reading holds no buffer
//! frame.  A served scan's pin ends before its batch is queued; what a
//! stalled peer holds is column vectors shared with (or left behind by)
//! the buffer, which no load can take back while they are queued.
//!
//! * One client stops reading mid-scan while eight others keep streaming.
//!   The server must (a) keep the victims flowing, (b) shed the stalled
//!   connection with the distinct stable code 203
//!   ([`ServeError::StalledConsumer`]), and (c) end with zero pinned frames
//!   once everyone is gone.
//! * A stalled client's queued batches survive the eviction and reload of
//!   their chunks: a segment table behind a four-chunk buffer, victims
//!   streaming it through, and every value the stalled client drains
//!   afterwards is the segment's — no vector the send queue holds is
//!   handed to a new load.

use cscan_client::{ClientError, ScanClient};
use cscan_core::{CScanPlan, ColSet};
use cscan_exec::MemTable;
use cscan_obs::Counter;
use cscan_proto::{frame, Decoder, Message, ServeError};
use cscan_server::{serve, AdmissionConfig, Catalog, ServerConfig, TableConfig};
use cscan_storage::{write_store, ChunkId, Compression, ScratchPath};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const VICTIMS: usize = 8;
const SCANS_PER_VICTIM: usize = 3;

#[test]
fn stalled_consumer_is_shed_while_victims_stream() {
    let mut catalog = Catalog::new();
    catalog.add_mem_table(
        "lineitem",
        MemTable::lineitem_demo(32_000, 500), // 64 chunks
        TableConfig {
            // Tight pool: if the stalled scan pinned frames for its unsent
            // batches, victims would wedge; pins that end before a batch
            // is queued keep it safe.
            buffer_chunks: 8,
            admission: AdmissionConfig {
                max_attached: VICTIMS + 4,
                max_queued: 8,
                queue_timeout: Duration::from_secs(5),
            },
            ..TableConfig::default()
        },
    );
    let catalog = Arc::new(catalog);
    let obs = catalog.observability();
    let handle = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            stall_timeout: Duration::from_millis(400),
            exit_on_shutdown: false,
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // The stalled consumer: pulls two batches, then goes quiet holding an
    // open scan (credits outstanding, socket unread).
    let stalled = std::thread::spawn(move || {
        let mut client = ScanClient::connect(addr).expect("connect");
        let mut scan = client
            .open_scan(
                "lineitem",
                CScanPlan::full_table("stall", ColSet::first_n(2)),
            )
            .expect("admitted");
        for _ in 0..2 {
            scan.next_batch().expect("streams before the stall");
        }
        std::thread::sleep(Duration::from_millis(1_500));
        // Well past the stall timeout: drain what the server buffered for
        // us; the stream must end in the distinct shed error.
        loop {
            match scan.next_batch() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("stalled scan ended cleanly instead of being shed"),
                Err(ClientError::Serve(ServeError::StalledConsumer)) => break,
                // The server may already have torn the socket down.
                Err(ClientError::Io(_)) => break,
                Err(other) => panic!("expected StalledConsumer, got {other:?}"),
            }
        }
    });

    // Eight victims scanning concurrently, repeatedly, measuring per-scan
    // wall time.
    let victims: Vec<_> = (0..VICTIMS)
        .map(|v| {
            std::thread::spawn(move || {
                let mut worst = Duration::ZERO;
                for s in 0..SCANS_PER_VICTIM {
                    let start = Instant::now();
                    let mut client = ScanClient::connect(addr).expect("connect");
                    let mut scan = client
                        .open_scan(
                            "lineitem",
                            CScanPlan::full_table(format!("v{v}-{s}"), ColSet::first_n(2)),
                        )
                        .expect("victim admitted");
                    let mut rows = 0u64;
                    while let Some(batch) = scan.next_batch().expect("victim streams clean") {
                        rows += batch.rows as u64;
                    }
                    assert_eq!(rows, 32_000, "victim {v} scan {s} saw the whole table");
                    worst = worst.max(start.elapsed());
                }
                worst
            })
        })
        .collect();

    let worst_scan = victims
        .into_iter()
        .map(|t| t.join().expect("victim thread"))
        .max()
        .unwrap();
    stalled.join().expect("stalled thread");

    // The victims' tail latency stays bounded: nowhere near the stall
    // timeout, let alone the stalled client's 1.5 s nap.  Generous bound
    // to stay robust on loaded CI machines.
    assert!(
        worst_scan < Duration::from_secs(10),
        "victim scans stalled behind the dead consumer: worst {worst_scan:?}"
    );

    assert!(
        obs.counter(Counter::ConnectionsShed) >= 1,
        "the stalled connection was shed"
    );
    assert!(
        obs.counter(Counter::AdmissionAdmitted) >= (VICTIMS * SCANS_PER_VICTIM + 1) as u64,
        "every scan passed through admission"
    );

    // Everyone is gone: nothing stays pinned.
    for _ in 0..200 {
        if catalog.pinned_frames() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(catalog.pinned_frames(), 0, "pinned frames leaked");

    handle.stop();
    handle.join();
}

/// Whether a batch of `chunk` holds the table's values of `columns`.
fn is_the_tables(table: &MemTable, columns: &[usize], chunk: u32, got: &[(u16, Vec<i64>)]) -> bool {
    let want = table.read_chunk(ChunkId::new(chunk), columns);
    got.len() == columns.len()
        && got
            .iter()
            .zip(columns.iter().enumerate())
            .all(|((id, values), (i, &col))| *id as usize == col && values == want.column(i))
}

#[test]
fn batches_queued_for_a_stalled_client_survive_eviction_and_reload() {
    const CHUNKS: u32 = 12;
    const ROWS: u64 = 20_000;
    const VICTIMS: usize = 3;

    // A plain segment file of six columns; a batch of all six is 960 KB.
    let table = MemTable::lineitem_demo(CHUNKS as u64 * ROWS, ROWS);
    let path = ScratchPath::new("stall_evict");
    let schemes = vec![Compression::None; table.width()];
    write_store(&path, &table, table.num_chunks(), schemes).expect("write segment");
    let mut catalog = Catalog::new();
    let cfg = TableConfig {
        buffer_chunks: 4,
        ..TableConfig::default()
    };
    catalog.add_segment("lineitem", &path, cfg).expect("open");
    let catalog = Arc::new(catalog);
    let handle = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            // The stalled client must outlast the victims, not be shed.
            stall_timeout: Duration::from_secs(120),
            exit_on_shutdown: false,
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    let all: Vec<usize> = (0..table.width()).collect();
    let plan = |label: &str| CScanPlan::full_table(label, ColSet::first_n(all.len() as u16));
    let loads = || {
        let server = catalog.get("lineitem").unwrap().server();
        server.metrics().counter(Counter::LoadsCompleted)
    };

    // The stalled client speaks the protocol itself: it asks for the
    // whole table at once and reads nothing.  The 11.5 MB due is more than
    // loopback socket buffers take while nobody reads, so the server's
    // send queue fills to its cap with batches whose frames are evicted
    // and reloaded while the victims stream.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let mut dec = Decoder::new();
    let open = Message::OpenScan {
        table: "lineitem".into(),
        plan: plan("stalled"),
    };
    stalled.write_all(&frame(&open)).expect("send");
    let Message::OpenOk { scan_id, .. } = dec.read_message(&mut stalled).expect("reply") else {
        panic!("the stalled scan was not admitted");
    };
    let credits = Message::NextBatch {
        scan_id,
        credits: CHUNKS + 1,
    };
    stalled.write_all(&frame(&credits)).expect("send");
    while catalog.observability().counter(Counter::BatchesServed) < 4 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let loads_before = loads();
    std::thread::scope(|s| {
        for v in 0..VICTIMS {
            let (table, all, plan) = (&table, &all, plan(&format!("v{v}")));
            s.spawn(move || {
                let mut client = ScanClient::connect(addr).expect("connect");
                for _ in 0..2 {
                    let mut scan = client
                        .open_scan("lineitem", plan.clone())
                        .expect("admitted");
                    let mut batches = 0;
                    while let Some(batch) = scan.next_batch().expect("victim streams clean") {
                        assert!(is_the_tables(table, all, batch.chunk, &batch.columns));
                        batches += 1;
                    }
                    assert_eq!(batches, CHUNKS);
                }
            });
        }
    });
    let reloads = loads() - loads_before;
    assert!(
        reloads >= CHUNKS as u64,
        "the victims made {reloads} loads: the buffer never turned over"
    );

    // Everything queued for the stalled client, then the rest of its scan.
    let mut batches = 0;
    loop {
        match dec
            .read_message(&mut stalled)
            .expect("the stalled scan streams")
        {
            Message::Batch { chunk, columns, .. } => {
                assert!(
                    is_the_tables(&table, &all, chunk, &columns),
                    "chunk {chunk}"
                );
                batches += 1;
            }
            Message::ScanDone { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(batches, CHUNKS);
    drop(stalled);
    for _ in 0..200 {
        if catalog.pinned_frames() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(catalog.pinned_frames(), 0, "pinned frames leaked");
    handle.stop();
    handle.join();
}
