//! Release-mode gates on consumer-thread heap allocations:
//!
//! * recording an observability sample — counter increment, span
//!   duration, per-query scope bump, flight event — performs **zero heap
//!   allocations**;
//! * the hot consume path of the data plane — acquire a resident chunk,
//!   read its zero-copy column views, release the pin — performs **zero
//!   per-chunk allocations**;
//! * the vectorised pipelines on top of it, `SessionSource → Filter →
//!   HashAggregate` and `SessionSource → Filter → ChunkOrderedAggregate`,
//!   perform **zero per-row allocations**: a small constant number per
//!   chunk (the batch's column list, and the ordered aggregate's batch of
//!   interior groups), the same whether a chunk holds 2 000 rows or
//!   20 000 — every scratch buffer (selection, group ids, remap, lanes,
//!   key runs) is reused across batches;
//! * the plain load path under it — `FileStore::materialize` into a buffer
//!   whose evicted payloads are offered back through `recycle` — allocates
//!   **headers only**: the column vectors, the bytes that matter, are the
//!   recycled ones;
//! * the wire: pumping a resident chunk into a connection's `SendQueue`
//!   and writing it out allocates **the same constant per batch** at 2 000
//!   and at 20 000 rows — the queue shares the column vectors, it copies
//!   no value — and decoding a batch off a socket allocates **the returned
//!   columns' bytes plus a constant**.
//!
//! The whole test binary runs under a counting global allocator that tracks
//! allocation events and bytes per thread; the consume-path loops drive a
//! live threaded `ScanServer` session over a fully resident table (a warmup
//! scan faults everything in and warms the executor's reusable scratch
//! buffers), so every `next_chunk` takes the pure hit path.
//!
//! Release builds only: under `debug_assertions` every scheduling decision
//! re-runs its brute-force twin, which allocates by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocation events (alloc + realloc) and the bytes they asked for,
/// per thread.
struct CountingAllocator;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events observed on this thread so far.
fn thread_allocs() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

/// Bytes requested by this thread's allocation events so far (a realloc
/// counts its whole new size).
fn thread_alloc_bytes() -> u64 {
    ALLOC_BYTES.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        ALLOC_BYTES.with(|c| c.set(c.get() + new_size as u64));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation gates are measured in release builds only"
)]
fn recording_a_sample_performs_zero_allocations() {
    use cscan_obs::{Counter, EventKind, Gauge, QueryCounter, Registry, SpanKind};
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
        registry.gauge_set(Gauge::PinnedFrames, i);
    }
    let allocs = thread_allocs() - before;
    assert_eq!(
        allocs, 0,
        "recording samples must not allocate: {allocs} allocation events \
         over 10k iterations"
    );
    registry.detach_query(&scope);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the zero-allocation gate is measured in release builds only \
              (debug builds re-run brute-force twins that allocate)"
)]
fn consume_path_performs_zero_per_chunk_allocations() {
    use cscan_core::policy::PolicyKind;
    use cscan_core::threaded::ScanServer;
    use cscan_core::{CScanPlan, TableModel};
    use cscan_storage::{ColumnId, ScanRanges, SeededStore};
    use std::sync::Arc;
    use std::time::Duration;

    const CHUNKS: u32 = 32;
    const ROWS: u64 = 1_024;

    let model = TableModel::nsm_uniform(CHUNKS, ROWS, 16);
    let store = SeededStore::new(ROWS, 2, 5);
    let server = ScanServer::builder(model.clone())
        .policy(PolicyKind::Relevance)
        // Everything fits: after the warmup scan the table is fully
        // resident and the measured scan never waits on a load.
        .buffer_chunks(CHUNKS as u64)
        .io_cost_per_page(Duration::ZERO)
        .store(Arc::new(store.clone()))
        .build();

    // Warmup: fault every chunk in and warm the executor's reusable
    // scratch (wake lists, starvation-propagation buffers, LRU queues).
    let warmup = server.cscan(CScanPlan::new(
        "warmup",
        ScanRanges::full(CHUNKS),
        model.all_columns(),
    ));
    let mut warm_chunks = 0;
    while let Some(pin) = warmup.next_chunk().expect("fault-free scan") {
        pin.complete();
        warm_chunks += 1;
    }
    assert_eq!(warm_chunks, CHUNKS);
    warmup.finish();

    // Measured scan: the hot consume path, end to end — next_chunk (hit),
    // zero-copy column views, fold, release — with the allocator watching
    // this thread.
    let handle = server.cscan(CScanPlan::new(
        "measured",
        ScanRanges::full(CHUNKS),
        model.all_columns(),
    ));
    let col = ColumnId::new(1);
    let mut consumed = 0u32;
    let mut checksum = 0i64;
    let before = thread_allocs();
    while let Some(pin) = handle.next_chunk().expect("fault-free scan") {
        let values = pin.column(col).expect("payload column view");
        checksum = values.iter().fold(checksum, |acc, &v| acc.wrapping_add(v));
        pin.complete();
        consumed += 1;
    }
    let allocs = thread_allocs() - before;
    handle.finish();

    assert_eq!(consumed, CHUNKS);
    assert_eq!(
        allocs, 0,
        "the hot consume path must not allocate: {allocs} allocation events \
         over {consumed} chunks"
    );
    // The fold really read the payload (guards against the loop optimizing
    // away): recompute the checksum from the store's definition.
    let expected: i64 = (0..CHUNKS)
        .map(|c| {
            (0..ROWS)
                .map(|r| store.value(cscan_storage::ChunkId::new(c), r, col))
                .fold(0i64, |a, v| a.wrapping_add(v))
        })
        .fold(0i64, |a, v| a.wrapping_add(v));
    assert_eq!(checksum, expected);
}

/// The aggregate on top of `SessionSource → Filter(l_quantity <= 45)`.
#[derive(Clone, Copy)]
enum Aggregate {
    /// `HashAggregate(l_returnflag; count, sum)`: one result batch.
    Hash,
    /// `ChunkOrderedAggregate(l_orderkey; count, sum)`: a batch of interior
    /// groups per chunk, then the stitched border groups.
    ChunkOrdered,
}

/// Consumer-thread allocation events of one `SessionSource → Filter →
/// aggregate` query over a resident `lineitem_demo` table of `CHUNKS`
/// chunks of `rows` rows, and the number of groups it output as a sanity
/// check.
fn pipeline_allocs(rows: u64, aggregate: Aggregate) -> (u64, usize) {
    use cscan_core::policy::PolicyKind;
    use cscan_core::threaded::ScanServer;
    use cscan_core::{CScanPlan, TableModel};
    use cscan_exec::{
        AggFunc, ChunkOrderedAggregate, Expr, Filter, HashAggregate, MemTable, Operator,
        SessionSource,
    };
    use cscan_storage::{ColumnId, ScanRanges};
    use std::sync::Arc;
    use std::time::Duration;

    const CHUNKS: u32 = 32;

    let table = MemTable::lineitem_demo(CHUNKS as u64 * rows, rows);
    let column = |name: &str| ColumnId::new(table.column_index(name).expect("demo column") as u16);
    let key = match aggregate {
        Aggregate::Hash => column("l_returnflag"),
        Aggregate::ChunkOrdered => column("l_orderkey"),
    };
    let qty = column("l_quantity");
    let model = TableModel::nsm_uniform(CHUNKS, rows, 16);
    let server = ScanServer::builder(model.clone())
        .policy(PolicyKind::Relevance)
        .buffer_chunks(CHUNKS as u64)
        .io_cost_per_page(Duration::ZERO)
        .store(Arc::new(table))
        .build();
    let query = |label: &str| {
        let plan = CScanPlan::new(label, ScanRanges::full(CHUNKS), model.all_columns());
        let source = SessionSource::new(server.cscan(plan), vec![key, qty]);
        let filtered = Filter::new(source, Expr::col(1).le(Expr::lit(45)));
        let funcs = vec![AggFunc::Count, AggFunc::Sum(1)];
        let mut op: Box<dyn Operator> = match aggregate {
            Aggregate::Hash => Box::new(HashAggregate::new(filtered, vec![0], funcs)),
            Aggregate::ChunkOrdered => Box::new(ChunkOrderedAggregate::new(filtered, 0, funcs)),
        };
        let before = thread_allocs();
        let mut groups = 0;
        while let Some(batch) = op.next().expect("fault-free scan") {
            groups += batch.len();
        }
        (thread_allocs() - before, groups)
    };
    // Warmup: fault every chunk in, warm the executor's scratch.
    query("warmup");
    let measured = query("measured");
    assert_eq!(server.pinned_frames(), 0);
    assert_eq!(
        server
            .metrics()
            .counter(cscan_obs::Counter::UnconsumedDrops),
        0
    );
    measured
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation gates are measured in release builds only"
)]
fn vectorised_pipeline_allocates_per_chunk_never_per_row() {
    const CHUNKS: u64 = 32;
    let (small, groups) = pipeline_allocs(2_000, Aggregate::Hash);
    let (large, _) = pipeline_allocs(20_000, Aggregate::Hash);
    assert_eq!(groups, 3, "three return flags");
    assert_eq!(
        small, large,
        "allocations must not depend on the rows per chunk: {small} at 2 000 rows, \
         {large} at 20 000"
    );
    // One per chunk for the batch's column list; the rest is per query
    // (selection vector, group ids, remap, lanes, group table, delivery
    // log, output).
    assert!(
        large <= CHUNKS + 32,
        "{large} allocation events over {CHUNKS} chunks"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation gates are measured in release builds only"
)]
fn chunk_ordered_pipeline_allocates_per_chunk_never_per_row() {
    const CHUNKS: u64 = 32;
    let (small, small_groups) = pipeline_allocs(2_000, Aggregate::ChunkOrdered);
    let (large, large_groups) = pipeline_allocs(20_000, Aggregate::ChunkOrdered);
    // Four lineitems an order; an order whose four quantities all
    // exceed 45 (one in 10 000) has no row left to group.
    for (groups, rows) in [(small_groups, 2_000), (large_groups, 20_000)] {
        let orders = CHUNKS as usize * rows / 4;
        assert!(
            groups <= orders && groups > orders * 99 / 100,
            "{groups} groups of {orders} orders"
        );
    }
    assert_eq!(
        small, large,
        "allocations must not depend on the rows per chunk: {small} at 2 000 rows, \
         {large} at 20 000"
    );
    // Per chunk: the batch's column list and one output batch of interior
    // groups (three columns, each a vector and its shared handle, and the
    // column lists); the rest is per query.
    assert!(
        large <= 9 * CHUNKS + 48,
        "{large} allocation events over {CHUNKS} chunks"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation gates are measured in release builds only"
)]
fn plain_load_path_allocates_headers_only_once_the_buffer_recycles() {
    use cscan_storage::segment::{FileStore, SegmentWriter};
    use cscan_storage::{ChunkId, ChunkPayload, ChunkStore, ColumnId, Compression, ScratchPath};
    use std::collections::VecDeque;

    const CHUNKS: u32 = 8;
    const ROWS: usize = 2_000;
    const COLUMNS: u16 = 6;
    // The benchmark's buffer: 24 resident payloads, the oldest evicted (and
    // offered back) to make room for each load.
    const RING: usize = 24;
    const MEASURED: u32 = 200;

    let value =
        |chunk: u32, col: u16, row: usize| (chunk as i64) << 32 | (col as i64) << 16 | row as i64;
    let path = ScratchPath::new("alloc_gate_plain");
    let mut writer = SegmentWriter::create(&*path, vec![Compression::None; COLUMNS as usize])
        .expect("scratch segment");
    for chunk in 0..CHUNKS {
        let columns: Vec<Vec<i64>> = (0..COLUMNS)
            .map(|col| (0..ROWS).map(|row| value(chunk, col, row)).collect())
            .collect();
        let views: Vec<&[i64]> = columns.iter().map(Vec::as_slice).collect();
        writer.append_chunk(&views).expect("append");
    }
    writer.finish().expect("finish");
    let store = FileStore::open(&*path).expect("open");
    let extent_bytes = (ROWS * 8 * COLUMNS as usize) as u64;

    let mut ring: VecDeque<ChunkPayload> = VecDeque::with_capacity(RING);
    let load = |ring: &mut VecDeque<ChunkPayload>, n: u32| {
        if ring.len() == RING {
            store.recycle(ring.pop_front().expect("full ring"));
        }
        let chunk = n % CHUNKS;
        let payload = store
            .materialize(ChunkId::new(chunk), None)
            .expect("clean read");
        // The recycled vectors hold this chunk now, not what they held.
        for col in 0..COLUMNS {
            let values = payload.column(ColumnId::new(col)).expect("column");
            assert!(values
                .iter()
                .enumerate()
                .all(|(row, &v)| v == value(chunk, col, row)));
        }
        ring.push_back(payload);
    };
    // Warm-up: fill the ring (every vector fresh), then go round once more
    // so that every vector in flight has been through the free list.
    const WARM_UP: u32 = 2 * RING as u32;
    (0..WARM_UP).for_each(|n| load(&mut ring, n));
    let before = thread_alloc_bytes();
    (WARM_UP..WARM_UP + MEASURED).for_each(|n| load(&mut ring, n));
    let per_load = (thread_alloc_bytes() - before) / MEASURED as u64;
    assert!(
        per_load <= 4096,
        "a warmed-up plain load allocated {per_load} bytes for {extent_bytes} bytes of extents: \
         the column vectors must come from the free list"
    );

    // A column something still shares is not recycled: the holder keeps
    // reading its values while later loads land elsewhere.
    let shared = ring.pop_back().expect("newest payload");
    let chunk = (WARM_UP + MEASURED - 1) % CHUNKS;
    let held = shared.shared_column(ColumnId::new(3)).expect("column");
    store.recycle(shared);
    (0..CHUNKS).for_each(|n| load(&mut ring, n));
    assert!(held
        .iter()
        .enumerate()
        .all(|(row, &v)| v == value(chunk, 3, row)));
}

/// Bytes the pumping thread allocates per batch while a full scan of a
/// resident `lineitem_demo` table of `CHUNKS` chunks of `rows` rows, two
/// columns served, is pumped into a fresh `SendQueue` and then written
/// out: the queue holds every batch at once, so a queue that copied
/// values would grow by each batch's 16 bytes a row.
fn served_bytes_per_batch(rows: u64) -> u64 {
    use cscan_core::{CScanPlan, ColSet};
    use cscan_exec::MemTable;
    use cscan_proto::SendQueue;
    use cscan_server::{Catalog, Pump, ServerScan, TableConfig};

    const CHUNKS: u32 = 32;

    let mut catalog = Catalog::new();
    catalog.add_mem_table(
        "t",
        MemTable::lineitem_demo(CHUNKS as u64 * rows, rows),
        TableConfig {
            buffer_chunks: CHUNKS as u64,
            ..TableConfig::default()
        },
    );
    let obs = catalog.observability();
    let entry = catalog.get("t").expect("registered");
    let serve = |label: &str| {
        let plan = CScanPlan::full_table(label, ColSet::first_n(2));
        let (permit, handle) = entry.open_scan(&plan).expect("admitted");
        let mut scan = ServerScan::new(1, handle, permit, entry.served_columns(), &plan);
        scan.add_credits(u32::MAX);
        let (before, mut batches) = (thread_alloc_bytes(), 0);
        let mut queue = SendQueue::new();
        loop {
            match scan.pump(&mut queue, &obs) {
                Pump::Delivered => batches += 1,
                Pump::Idle => std::thread::yield_now(),
                Pump::Closed => break,
            }
        }
        while queue.unsent() > 0 {
            queue
                .write_to(&mut std::io::sink())
                .expect("a sink takes all");
        }
        assert_eq!(batches, CHUNKS);
        (thread_alloc_bytes() - before) / batches as u64
    };
    // Warmup: fault every chunk in and warm the executor's scratch.
    serve("warmup");
    let per_batch = serve("measured");
    assert_eq!(catalog.pinned_frames(), 0);
    per_batch
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation gates are measured in release builds only"
)]
fn serving_a_resident_chunk_allocates_a_constant_per_batch() {
    let small = served_bytes_per_batch(2_000);
    let large = served_bytes_per_batch(20_000);
    assert_eq!(
        small, large,
        "bytes a batch must not depend on its rows: {small} at 2 000 rows, {large} at 20 000"
    );
    // The frames' headers, the queue's pieces and the pump's column list.
    assert!(
        large <= 1_024,
        "{large} bytes a batch: the queue must share the 320 KB of values, not copy them"
    );
}

/// Bytes allocated to decode one two-column `Batch` of `rows` rows from a
/// reader with `Decoder::read_message`, once its buffer has warmed up.
fn decoded_bytes_per_batch(rows: u32) -> u64 {
    use cscan_proto::{encode_batch_frame, Decoder, Message};

    const BATCHES: u64 = 16;
    let values: Vec<i64> = (0..rows as i64).collect();
    let mut bytes = Vec::new();
    for chunk in 0..=BATCHES as u32 {
        encode_batch_frame(&mut bytes, 1, chunk, rows, &[(0, &values), (5, &values)]);
    }
    let (mut src, mut dec) = (&bytes[..], Decoder::new());
    let mut read = |dec: &mut Decoder| match dec.read_message(&mut src).expect("well-formed") {
        Message::Batch { columns, .. } => assert!(columns.iter().all(|(_, v)| *v == values)),
        other => panic!("unexpected {other:?}"),
    };
    read(&mut dec);
    let before = thread_alloc_bytes();
    for _ in 0..BATCHES {
        read(&mut dec);
    }
    (thread_alloc_bytes() - before) / BATCHES
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation gates are measured in release builds only"
)]
fn decoding_a_batch_allocates_its_columns_and_a_constant() {
    let columns = |rows: u32| 2 * rows as u64 * 8;
    let small = decoded_bytes_per_batch(2_000) - columns(2_000);
    let large = decoded_bytes_per_batch(20_000) - columns(20_000);
    assert_eq!(
        small, large,
        "beyond its columns, a batch must cost the same at any size: {small} bytes at 2 000 \
         rows, {large} at 20 000"
    );
    assert!(large <= 256, "{large} bytes a batch beyond its columns");
}
