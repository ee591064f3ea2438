//! Chaos suite: the full data plane under injected I/O failures.
//!
//! Seeded fault sweeps drive real exec pipelines over the threaded
//! `ScanServer` with a [`FaultInjectingStore`] underneath — across all four
//! scheduling policies, both storage layouts (NSM and DSM) and three
//! sources: the in-memory table, a plain segment file and a compressed
//! one.  Transient-only fault streams must be invisible to results
//! (bit-identical to a fault-free baseline, zero leaked pins or
//! reservations; in-flight faults heal on retry because the bytes on disk
//! are clean); a 100%-permanent chunk must surface as a `ScanError` to
//! exactly the queries that need it while unaffected queries finish
//! normally; and a genuine on-disk bit flip must quarantine exactly the
//! damaged chunk through the install-time checksum.

use cscan_core::policy::PolicyKind;
use cscan_core::threaded::{CScanHandle, ScanServer};
use cscan_core::RetryPolicy;
use cscan_core::{CScanPlan, ColSet, ScanError, TableModel};
use cscan_exec::ops::{collect, try_collect};
use cscan_exec::{
    AggFunc, ChunkSource, DataChunk, Expr, Filter, HashAggregate, MemTable, Operator, SessionSource,
};
use cscan_obs::Counter;
use cscan_storage::{
    write_store, ChunkId, ChunkStore, ColumnId, Compression, FaultConfig, FaultInjectingStore,
    FileStore, ScanRanges, ScratchPath, StoreError,
};
use std::sync::Arc;
use std::time::Duration;

const CHUNKS: u32 = 12;
const ROWS_PER_CHUNK: u64 = 1_000;

fn lineitem() -> MemTable {
    MemTable::lineitem_demo(CHUNKS as u64 * ROWS_PER_CHUNK, ROWS_PER_CHUNK)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    Nsm,
    Dsm,
}

/// Where a server's chunks come from: the `MemTable` itself, or a segment
/// file of it, written plain or under the Figure 9 codec mix.
enum Source {
    Memory,
    Segment { path: ScratchPath, compressed: bool },
}

impl Source {
    /// The chaos table written as a segment file.
    fn segment(compressed: bool) -> Source {
        let path = ScratchPath::new(if compressed {
            "chaos_comp"
        } else {
            "chaos_plain"
        });
        let table = lineitem();
        let schemes = if compressed {
            MemTable::lineitem_demo_schemes()
        } else {
            vec![Compression::None; table.width()]
        };
        write_store(&path, &table, table.num_chunks(), schemes).expect("write the segment");
        Source::Segment { path, compressed }
    }

    /// Every source: memory, a plain segment, a compressed segment.
    fn all() -> [Source; 3] {
        [
            Source::Memory,
            Source::segment(false),
            Source::segment(true),
        ]
    }

    fn compressed(&self) -> bool {
        matches!(
            self,
            Source::Segment {
                compressed: true,
                ..
            }
        )
    }

    fn name(&self) -> &'static str {
        match self {
            Source::Memory => "memory",
            Source::Segment {
                compressed: false, ..
            } => "plain segment",
            Source::Segment { .. } => "compressed segment",
        }
    }
}

/// Fast retries so the sweep stays quick: the *number* of retries is what
/// the assertions care about, not their wall-clock spacing.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        backoff_base: Duration::from_micros(20),
        backoff_cap: Duration::from_micros(200),
        ..RetryPolicy::default()
    }
}

/// A threaded server over `FaultInjectingStore(source)`: injected faults
/// and payload corruption in flight, over the table's generators or real
/// positioned reads.
fn faulty_server(
    table: &MemTable,
    source: &Source,
    policy: PolicyKind,
    layout: Layout,
    config: FaultConfig,
) -> ScanServer {
    let model = match layout {
        Layout::Nsm => TableModel::nsm_uniform(CHUNKS, ROWS_PER_CHUNK, 16),
        Layout::Dsm => TableModel::dsm_uniform(CHUNKS, ROWS_PER_CHUNK, &vec![1; table.width()]),
    };
    let store: Arc<dyn ChunkStore> = match source {
        Source::Memory => Arc::new(FaultInjectingStore::new(table.clone(), config)),
        Source::Segment { path, .. } => {
            let file = FileStore::open(path).expect("segment must open");
            Arc::new(FaultInjectingStore::new(file, config))
        }
    };
    ScanServer::builder(model)
        .policy(policy)
        .buffer_chunks(5)
        .io_cost_per_page(Duration::ZERO)
        .io_threads(2)
        .retry_policy(fast_retry())
        .store(store)
        .build()
}

fn live_source(
    server: &ScanServer,
    table: &MemTable,
    names: &[&str],
    layout: Layout,
    ranges: ScanRanges,
    label: &str,
) -> SessionSource<CScanHandle> {
    let cols: Vec<ColumnId> = names
        .iter()
        .map(|n| ColumnId::new(table.column_index(n).unwrap() as u16))
        .collect();
    let colset = match layout {
        Layout::Nsm => ColSet::empty(),
        Layout::Dsm => ColSet::from_columns(cols.iter().copied()),
    };
    let handle = server.cscan(CScanPlan::new(label, ranges, colset));
    SessionSource::new(handle, cols)
}

fn baseline_source<'a>(table: &'a MemTable, names: &[&str]) -> ChunkSource<'a> {
    let order = (0..table.num_chunks()).map(ChunkId::new).collect();
    ChunkSource::with_names(table, names, order)
}

/// Every (policy, layout, source) case over `sources`.
fn all_cases(sources: &[Source]) -> Vec<(PolicyKind, Layout, &Source)> {
    let mut cases = Vec::new();
    for policy in PolicyKind::ALL {
        for layout in [Layout::Nsm, Layout::Dsm] {
            for source in sources {
                cases.push((policy, layout, source));
            }
        }
    }
    cases
}

/// Fault, retry and checksum-failure totals over a transient sweep.
#[derive(Default)]
struct SweepTotals {
    faults: u64,
    retries: u64,
    checksum_failures: u64,
}

/// Runs every (policy, layout, source) case over `sources` at each
/// `(seed, rate)` transient-only stream (plus payload corruption at 0.10
/// for compressed sources, caught by the install-time checksum) and
/// asserts each case's results bit-identical to the fault-free baseline,
/// nothing quarantined or erred, and no pins or deliveries leaked.
fn transient_sweep(sources: &[Source], streams: &[(u64, f64)], label: &str) -> SweepTotals {
    let table = lineitem();
    let names = ["l_returnflag", "l_quantity"];
    let aggs = || vec![AggFunc::Count, AggFunc::Sum(1), AggFunc::Max(1)];
    let reference = {
        let mut agg = HashAggregate::new(baseline_source(&table, &names), vec![0], aggs());
        agg.next().unwrap().unwrap()
    };
    let mut totals = SweepTotals::default();
    for &(rate_seed, fault_rate) in streams {
        for (case, (policy, layout, source)) in all_cases(sources).into_iter().enumerate() {
            let config = FaultConfig {
                // A different deterministic stream per case.
                corruption_rate: if source.compressed() { 0.10 } else { 0.0 },
                ..FaultConfig::transient_only(rate_seed ^ case as u64, fault_rate)
            };
            let server = faulty_server(&table, source, policy, layout, config);
            let src = live_source(
                &server,
                &table,
                &names,
                layout,
                ScanRanges::full(CHUNKS),
                label,
            );
            let case = format!("{policy}/{layout:?}/{}@{fault_rate}", source.name());
            let mut agg = HashAggregate::new(src, vec![0], aggs());
            let live = agg
                .next()
                .unwrap_or_else(|e| panic!("{case}: transient-only stream erred: {e}"))
                .unwrap();
            assert_eq!(live, reference, "{case}: results diverged under faults");
            assert_eq!(
                server.metrics().counter(Counter::ChunksQuarantined),
                0,
                "{case}: transient faults must never quarantine"
            );
            assert_eq!(server.metrics().counter(Counter::QueriesErred), 0, "{case}");
            assert_eq!(server.pinned_frames(), 0, "{case}: leaked pins");
            assert_eq!(
                server.metrics().counter(Counter::UnconsumedDrops),
                0,
                "{case}: leaked deliveries"
            );
            totals.faults += server.metrics().counter(Counter::LoadFaults);
            totals.retries += server.metrics().counter(Counter::LoadRetries);
            totals.checksum_failures += server.metrics().counter(Counter::ChecksumFailures);
        }
    }
    totals
}

/// The acceptance sweep: at a ≥10% per-attempt transient fault rate (plus
/// payload corruption for the compressed cases, caught by the
/// install-time checksum), every pipeline completes with results
/// bit-identical to the fault-free baseline, nothing is quarantined, and
/// no pins or deliveries leak — across 4 policies × 2 layouts × the
/// in-memory table and a compressed segment.
#[test]
fn transient_fault_sweep_is_bit_identical_to_fault_free_baseline() {
    let sources = [Source::Memory, Source::segment(true)];
    let totals = transient_sweep(
        &sources,
        &[(0xC4A0_5A11, 0.10), (0xC4A0_5A22, 0.25)],
        "chaos-q1",
    );
    assert!(
        totals.faults > 50,
        "the sweep must actually inject faults (saw {})",
        totals.faults
    );
    assert_eq!(
        totals.faults, totals.retries,
        "every transient fault is retried, none quarantined"
    );
    assert!(
        totals.checksum_failures > 0,
        "corrupted compressed payloads must trip the install-time checksum"
    );
}

/// File-backed transient sweep: in-flight faults and corrupted payloads
/// over a real segment file must heal on retry (the bytes on disk are
/// clean), leaving results bit-identical to the in-memory baseline across
/// 4 policies × 2 layouts × plain and compressed segments.
#[test]
fn file_backed_transient_faults_recover_bit_identically() {
    let sources = [Source::segment(false), Source::segment(true)];
    let totals = transient_sweep(&sources, &[(0xF11E_5EED, 0.15)], "file-chaos-q1");
    assert!(
        totals.faults > 20,
        "the file-backed sweep must actually inject faults (saw {})",
        totals.faults
    );
    assert_eq!(totals.faults, totals.retries, "every fault retried");
    assert!(
        totals.checksum_failures > 0,
        "corrupted compressed payloads must trip the install-time checksum"
    );
}

/// The permanent-failure acceptance criterion: with one chunk failing 100%
/// of its read attempts, queries whose ranges cover it get a [`ScanError`]
/// naming that chunk, while a concurrent query over the healthy remainder
/// completes with correct results — under every policy.
#[test]
fn permanent_chunk_errs_interested_queries_and_spares_the_rest() {
    let table = lineitem();
    const BAD: u32 = 7;
    let names = ["l_orderkey", "l_quantity"];
    let healthy_reference = {
        let order = (0..BAD).map(ChunkId::new).collect();
        collect(&mut Filter::new(
            ChunkSource::with_names(&table, &names, order),
            Expr::col(1).le(Expr::lit(25)),
        ))
    };
    assert!(!healthy_reference.is_empty());
    let sources = Source::all();
    for (policy, layout, source) in all_cases(&sources) {
        let config = FaultConfig {
            permanent_chunks: vec![BAD],
            ..FaultConfig::transient_only(0xDEAD_0000 ^ BAD as u64, 0.05)
        };
        let server = faulty_server(&table, source, policy, layout, config);
        // The doomed query needs the bad chunk.
        let mut doomed = HashAggregate::new(
            live_source(
                &server,
                &table,
                &names,
                layout,
                ScanRanges::full(CHUNKS),
                "doomed",
            ),
            vec![0],
            vec![AggFunc::Count],
        );
        let error = doomed
            .next()
            .expect_err("a scan covering the permanently failing chunk must err");
        assert_eq!(
            error,
            ScanError::new(ChunkId::new(BAD), StoreError::Permanent),
            "{policy}/{layout:?}/{}",
            source.name()
        );
        // A query over the healthy prefix is untouched.
        let mut healthy = Filter::new(
            live_source(
                &server,
                &table,
                &names,
                layout,
                ScanRanges::single(0, BAD),
                "healthy",
            ),
            Expr::col(1).le(Expr::lit(25)),
        );
        let lived = try_collect(&mut healthy)
            .unwrap_or_else(|e| panic!("{policy}/{layout:?}: the healthy range must not err: {e}"));
        let sort = |c: &DataChunk| {
            let mut rows: Vec<Vec<i64>> = (0..c.len()).map(|i| c.row(i)).collect();
            rows.sort();
            rows
        };
        assert_eq!(
            sort(&lived),
            sort(&healthy_reference),
            "{policy}/{layout:?}/{}: healthy results diverged",
            source.name()
        );
        assert!(
            server.metrics().counter(Counter::ChunksQuarantined) >= 1,
            "{policy}/{layout:?}: the bad chunk must be quarantined"
        );
        assert!(
            server.metrics().counter(Counter::QueriesErred) >= 1,
            "{policy}/{layout:?}"
        );
        assert_eq!(
            server.pinned_frames(),
            0,
            "{policy}/{layout:?}: leaked pins"
        );
        assert_eq!(
            server.metrics().counter(Counter::UnconsumedDrops),
            0,
            "{policy}/{layout:?}"
        );
    }
}

/// Concurrent queries racing over a faulty store: half the scans overlap
/// the permanently failing chunk (and must err), half do not (and must
/// finish with full row counts) — all while transient faults and latency
/// spikes keep the retry path busy.  Nothing may leak.
#[test]
fn concurrent_chaos_mixes_errors_and_successes_without_leaks() {
    let table = lineitem();
    const BAD: u32 = 9;
    let config = FaultConfig {
        permanent_chunks: vec![BAD],
        latency_spike_rate: 0.05,
        latency_spike: Duration::from_micros(200),
        ..FaultConfig::transient_only(0x0DD5_EED5, 0.15)
    };
    let server = Arc::new(faulty_server(
        &table,
        &Source::segment(true),
        PolicyKind::Relevance,
        Layout::Nsm,
        config,
    ));
    let workers: Vec<_> = (0..8u32)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let overlaps_bad = t % 2 == 0;
                let ranges = if overlaps_bad {
                    ScanRanges::single(BAD - 3, BAD + 3)
                } else {
                    ScanRanges::single(0, BAD - 1)
                };
                let handle = server.cscan(CScanPlan::new(
                    format!("chaos-{t}"),
                    ranges,
                    ColSet::empty(),
                ));
                let mut delivered = 0u64;
                let outcome = loop {
                    match handle.next_chunk() {
                        Ok(Some(pin)) => {
                            delivered += pin.rows() as u64;
                            pin.complete();
                        }
                        Ok(None) => break Ok(delivered),
                        Err(e) => break Err(e),
                    }
                };
                (overlaps_bad, outcome)
            })
        })
        .collect();
    for w in workers {
        let (overlaps_bad, outcome) = w.join().unwrap();
        if overlaps_bad {
            let error = outcome.expect_err("scans over the bad chunk must err");
            assert_eq!(error.chunk, ChunkId::new(BAD));
        } else {
            let rows = outcome.expect("scans avoiding the bad chunk must finish");
            assert_eq!(rows, (BAD - 1) as u64 * ROWS_PER_CHUNK);
        }
    }
    assert_eq!(server.metrics().counter(Counter::ChunksQuarantined), 1);
    assert!(server.metrics().counter(Counter::QueriesErred) >= 4);
    assert!(server.metrics().counter(Counter::LoadFaults) > 0);
    assert_eq!(server.pinned_frames(), 0, "leaked pins");
    assert_eq!(
        server.metrics().counter(Counter::UnconsumedDrops),
        0,
        "leaked deliveries"
    );
}

/// The targeted bit-flip: damage one byte of one compressed extent *on
/// disk*.  Every read attempt re-reads the same damaged bytes, so the
/// install-time checksum fails deterministically, the retry budget
/// exhausts, and exactly that chunk is quarantined with a `Corrupted`
/// cause — while scans avoiding the chunk stay bit-identical to the
/// baseline, under every policy.
#[test]
fn on_disk_bit_flip_quarantines_only_the_damaged_chunk() {
    const BAD: u32 = 5;
    let table = lineitem();
    let names = ["l_orderkey", "l_quantity"];
    let source = Source::segment(true);
    let Source::Segment { path, .. } = &source else {
        unreachable!("a segment source");
    };
    // Locate the l_quantity extent of the bad chunk via the footer
    // directory and flip a mid-extent byte on disk.
    let qty = ColumnId::new(table.column_index("l_quantity").unwrap() as u16);
    let extent = {
        let store = FileStore::open(path).unwrap();
        *store.directory().extent(ChunkId::new(BAD), qty).unwrap()
    };
    let flip_at = (extent.offset + extent.len / 2) as usize;
    let mut bytes = std::fs::read(path).unwrap();
    bytes[flip_at] ^= 0x10;
    std::fs::write(path, &bytes).unwrap();

    let healthy_reference = {
        let order = (0..BAD).map(ChunkId::new).collect();
        collect(&mut ChunkSource::with_names(&table, &names, order))
    };
    for policy in PolicyKind::ALL {
        // No injected faults: the only fault is the real damage on disk.
        let server = faulty_server(&table, &source, policy, Layout::Nsm, FaultConfig::default());
        let mut doomed = HashAggregate::new(
            live_source(
                &server,
                &table,
                &names,
                Layout::Nsm,
                ScanRanges::full(CHUNKS),
                "doomed",
            ),
            vec![0],
            vec![AggFunc::Count],
        );
        let error = doomed
            .next()
            .expect_err("a scan covering the flipped chunk must err");
        assert_eq!(
            error,
            ScanError::new(ChunkId::new(BAD), StoreError::Corrupted),
            "{policy}: on-disk damage must surface as Corrupted on the damaged chunk"
        );
        let mut healthy = live_source(
            &server,
            &table,
            &names,
            Layout::Nsm,
            ScanRanges::single(0, BAD),
            "healthy",
        );
        let lived = try_collect(&mut healthy)
            .unwrap_or_else(|e| panic!("{policy}: the undamaged range must not err: {e}"));
        // Policies deliver chunks in different orders; compare as row sets.
        let sort = |c: &DataChunk| {
            let mut rows: Vec<Vec<i64>> = (0..c.len()).map(|i| c.row(i)).collect();
            rows.sort();
            rows
        };
        assert_eq!(
            sort(&lived),
            sort(&healthy_reference),
            "{policy}: healthy rows diverged"
        );
        assert!(
            server.metrics().counter(Counter::ChunksQuarantined) >= 1,
            "{policy}: the damaged chunk must be quarantined"
        );
        assert!(
            server.metrics().counter(Counter::ChecksumFailures) > 0,
            "{policy}: the damage must be caught by the checksum, not a decoder panic"
        );
        assert_eq!(server.pinned_frames(), 0, "{policy}: leaked pins");
        assert_eq!(
            server.metrics().counter(Counter::UnconsumedDrops),
            0,
            "{policy}"
        );
    }
}
