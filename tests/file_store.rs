//! Differential acceptance: file-backed scans are bit-identical to the
//! in-memory baseline.
//!
//! The same lineitem table is served two ways — straight from the
//! [`MemTable`] generators, and from a real segment file on disk through
//! [`FileStore`] (written once plain, once under the Figure 9 codec mix).
//! For every scheduling policy × layout (NSM full-chunk and DSM
//! column-subset) × encoding, a threaded scan over the file must deliver
//! *every chunk* with *exactly* the baseline's values — per chunk, per
//! column, value for value — with nothing quarantined, erred, or leaked.

use cscan_core::policy::PolicyKind;
use cscan_core::threaded::ScanServer;
use cscan_core::{CScanPlan, ColSet, TableModel};
use cscan_exec::MemTable;
use cscan_obs::{Counter, Registry};
use cscan_server::model_from_segment;
use cscan_storage::{
    write_store, ChunkId, ChunkPayload, ChunkStore, ColumnId, Compression, FileStore, ScanRanges,
    ScratchPath, SeededStore,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const CHUNKS: u32 = 10;
const ROWS_PER_CHUNK: u64 = 700;

fn lineitem() -> MemTable {
    MemTable::lineitem_demo(CHUNKS as u64 * ROWS_PER_CHUNK, ROWS_PER_CHUNK)
}

fn write_segment(compressed: bool) -> ScratchPath {
    let path = ScratchPath::new(if compressed {
        "diff_comp"
    } else {
        "diff_plain"
    });
    let table = lineitem();
    let schemes = if compressed {
        MemTable::lineitem_demo_schemes()
    } else {
        vec![Compression::None; table.width()]
    };
    write_store(&path, &table, table.num_chunks(), schemes).unwrap();
    path
}

#[derive(Debug, Clone, Copy)]
enum Layout {
    Nsm,
    Dsm,
}

/// Scans the file-backed server once and returns every delivered chunk's
/// columns, keyed by chunk id.
fn scan_all(
    server: &ScanServer,
    layout: Layout,
    cols: &[ColumnId],
    label: &str,
) -> HashMap<ChunkId, Vec<Vec<i64>>> {
    let colset = match layout {
        Layout::Nsm => ColSet::empty(),
        Layout::Dsm => ColSet::from_columns(cols.iter().copied()),
    };
    let handle = server.cscan(CScanPlan::new(label, ScanRanges::full(CHUNKS), colset));
    let mut delivered = HashMap::new();
    while let Some(pin) = handle.next_chunk().expect("fault-free file scan") {
        let values: Vec<Vec<i64>> = cols
            .iter()
            .map(|&c| pin.column(c).expect("requested column present").to_vec())
            .collect();
        let prev = delivered.insert(pin.chunk(), values);
        assert!(prev.is_none(), "chunk delivered twice to one query");
        pin.complete();
    }
    handle.finish();
    delivered
}

/// The acceptance sweep: 4 policies × {NSM, DSM} × {plain, compressed},
/// every chunk bit-identical to the `MemTable` baseline.
#[test]
fn file_backed_scans_are_bit_identical_to_memtable() {
    let table = lineitem();
    let paths = [write_segment(false), write_segment(true)];
    // NSM materializes the full chunk; DSM projects a strict subset.
    let all_cols: Vec<ColumnId> = (0..table.width())
        .map(|c| ColumnId::new(c as u16))
        .collect();
    let subset: Vec<ColumnId> = ["l_orderkey", "l_quantity", "l_returnflag"]
        .iter()
        .map(|n| ColumnId::new(table.column_index(n).unwrap() as u16))
        .collect();
    for policy in PolicyKind::ALL {
        for layout in [Layout::Nsm, Layout::Dsm] {
            for compressed in [false, true] {
                let store = FileStore::open(&paths[compressed as usize]).unwrap();
                let model = match layout {
                    Layout::Nsm => TableModel::nsm_uniform(CHUNKS, ROWS_PER_CHUNK, 16),
                    Layout::Dsm => {
                        TableModel::dsm_uniform(CHUNKS, ROWS_PER_CHUNK, &vec![1; table.width()])
                    }
                };
                let server = ScanServer::builder(model)
                    .policy(policy)
                    .buffer_chunks(4)
                    .io_cost_per_page(Duration::ZERO)
                    .io_threads(2)
                    .store(Arc::new(store))
                    .build();
                let cols: &[ColumnId] = match layout {
                    Layout::Nsm => &all_cols,
                    Layout::Dsm => &subset,
                };
                let label = format!("diff-{policy}-{layout:?}-{compressed}");
                let delivered = scan_all(&server, layout, cols, &label);
                assert_eq!(delivered.len(), CHUNKS as usize, "{label}: chunks missing");
                for c in 0..CHUNKS {
                    let chunk = ChunkId::new(c);
                    let got = &delivered[&chunk];
                    for (i, &col) in cols.iter().enumerate() {
                        let baseline = table.read_chunk(chunk, &[col.as_usize()]);
                        assert_eq!(
                            got[i],
                            baseline.column(0),
                            "{label}: chunk {c} column {col:?} diverged from MemTable"
                        );
                    }
                }
                assert_eq!(
                    server.metrics().counter(Counter::ChunksQuarantined),
                    0,
                    "{label}"
                );
                assert_eq!(
                    server.metrics().counter(Counter::QueriesErred),
                    0,
                    "{label}"
                );
                assert_eq!(server.pinned_frames(), 0, "{label}: leaked pins");
                assert_eq!(
                    server.metrics().counter(Counter::UnconsumedDrops),
                    0,
                    "{label}: leaked deliveries"
                );
            }
        }
    }
}

/// Figure 9's actual configuration: a segment scheduled under the model its
/// own footer gives ([`model_from_segment`] — the column store the file is)
/// serves a `{l_quantity, l_returnflag}` scan by reading, checksumming and
/// decoding those two extents of every chunk and no third.  The buffer
/// holds the table, so every policy loads each chunk exactly once and the
/// volumes are exact.
#[test]
fn a_two_column_scan_reads_and_decodes_two_extents_per_load() {
    let table = lineitem();
    let cols: Vec<ColumnId> = ["l_quantity", "l_returnflag"]
        .iter()
        .map(|n| ColumnId::new(table.column_index(n).unwrap() as u16))
        .collect();
    for compressed in [false, true] {
        let path = write_segment(compressed);
        for policy in PolicyKind::ALL {
            let label = format!("two-col-{policy}-{compressed}");
            let obs = Arc::new(Registry::new());
            let store = FileStore::open(&path)
                .unwrap()
                .with_observability(Arc::clone(&obs));
            let extent_bytes: u64 = (0..CHUNKS)
                .map(|c| store.directory().chunk_bytes(ChunkId::new(c), Some(&cols)))
                .sum();
            let model = model_from_segment(&store);
            assert_eq!(
                model.groups().len(),
                usize::from(model.num_columns()),
                "a segment file is a column store"
            );
            let server = ScanServer::builder(model)
                .policy(policy)
                .buffer_chunks(CHUNKS as u64)
                .io_cost_per_page(Duration::ZERO)
                .io_threads(2)
                .store(Arc::new(store))
                .observability(Arc::clone(&obs))
                .build();
            let delivered = scan_all(&server, Layout::Dsm, &cols, &label);
            for c in 0..CHUNKS {
                let chunk = ChunkId::new(c);
                for (i, &col) in cols.iter().enumerate() {
                    let baseline = table.read_chunk(chunk, &[col.as_usize()]);
                    assert_eq!(
                        delivered[&chunk][i],
                        baseline.column(0),
                        "{label}: {chunk:?}"
                    );
                }
            }
            let loads = server.metrics().counter(Counter::LoadsCompleted);
            assert_eq!(loads, CHUNKS as u64, "{label}");
            let snap = obs.snapshot();
            assert_eq!(snap.counter("file_read_calls"), 2 * loads, "{label}");
            assert_eq!(snap.counter("file_bytes_read"), extent_bytes, "{label}");
            let decoded = if compressed {
                2 * ROWS_PER_CHUNK * loads
            } else {
                0
            };
            assert_eq!(
                server.metrics().counter(Counter::ValuesDecoded),
                decoded,
                "{label}"
            );
            assert_eq!(server.pinned_frames(), 0, "{label}: leaked pins");
        }
    }
}

/// Concurrent differential: several streams share one file-backed server
/// (chunk loads are cooperative, positioned reads race) and each stream
/// still sees exactly the baseline values.
#[test]
fn concurrent_file_backed_streams_stay_bit_identical() {
    let table = lineitem();
    let path = write_segment(true);
    let store = FileStore::open(&path).unwrap();
    let model = TableModel::nsm_uniform(CHUNKS, ROWS_PER_CHUNK, 16);
    let server = Arc::new(
        ScanServer::builder(model)
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_cost_per_page(Duration::ZERO)
            .io_threads(4)
            .store(Arc::new(store))
            .build(),
    );
    let qty = ColumnId::new(table.column_index("l_quantity").unwrap() as u16);
    let expected: i64 = (0..CHUNKS)
        .map(|c| {
            table
                .read_chunk(ChunkId::new(c), &[qty.as_usize()])
                .column(0)
                .iter()
                .sum::<i64>()
        })
        .sum();
    let workers: Vec<_> = (0..6)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let handle = server.cscan(CScanPlan::new(
                    format!("conc-{i}"),
                    ScanRanges::full(CHUNKS),
                    ColSet::empty(),
                ));
                let mut sum = 0i64;
                while let Some(pin) = handle.next_chunk().expect("fault-free scan") {
                    sum += pin.column(qty).expect("qty present").iter().sum::<i64>();
                    pin.complete();
                }
                handle.finish();
                sum
            })
        })
        .collect();
    for w in workers {
        assert_eq!(w.join().unwrap(), expected, "a stream's values diverged");
    }
    assert_eq!(server.metrics().counter(Counter::UnconsumedDrops), 0);
}

/// There is one payload shape: asking a store for a whole chunk (`None`)
/// and asking it for every column by name are the same request and return
/// the same payload — same columns, same values, same physical state — for
/// every store: generated, plain on disk and compressed on disk.
#[test]
fn whole_chunk_and_every_column_are_the_same_payload() {
    fn check(name: &str, store: &dyn ChunkStore, width: usize) {
        let all: Vec<ColumnId> = (0..width as u16).map(ColumnId::new).collect();
        for c in 0..CHUNKS {
            let chunk = ChunkId::new(c);
            let whole = store.materialize(chunk, None).unwrap();
            let named = store.materialize(chunk, Some(&all)).unwrap();
            let ChunkPayload::Data(data) = &whole else {
                panic!("{name}: chunk {c} carries no data");
            };
            assert_eq!(data.column_ids().collect::<Vec<_>>(), all, "{name}");
            assert_eq!(whole.is_fully_decoded(), named.is_fully_decoded(), "{name}");
            assert_eq!(whole, named, "{name}: chunk {c}");
        }
    }
    let table = lineitem();
    let width = table.width();
    check("seeded", &SeededStore::new(ROWS_PER_CHUNK, 3, 11), 3);
    check("memtable", &table, width);
    for compressed in [false, true] {
        let path = write_segment(compressed);
        let name = format!("file/compressed={compressed}");
        check(&name, &FileStore::open(&path).unwrap(), width);
    }
}
