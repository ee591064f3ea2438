//! Property-based tests of the Cooperative Scans core: for arbitrary
//! workloads and all four policies, the fundamental invariants of the
//! framework must hold, and for arbitrary schemas the table models
//! `TableModel::nsm` / `TableModel::dsm` build must be consistent.  The
//! scheduler core's own random-op driver, with its per-chunk reference of
//! the buffer, is `cscan_core`'s `sched::proptests`.

use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::sim::{QuerySpec, SimConfig, Simulation};
use cscan_core::{ColSet, ScanRanges};
use cscan_simdisk::SimDuration;
use cscan_storage::{ChunkId, ColumnDef, ColumnId, ColumnType, Compression, TableSchema};
use proptest::prelude::*;

const PAGE: u64 = 64 * 1024;
const MIB: u64 = 1024 * 1024;

fn arb_schema() -> impl Strategy<Value = TableSchema> {
    prop::collection::vec(
        prop_oneof![
            Just(ColumnType::Int64),
            Just(ColumnType::Int32),
            Just(ColumnType::Decimal),
            Just(ColumnType::Date),
            Just(ColumnType::Char),
            (4u16..64).prop_map(|n| ColumnType::Varchar { avg_len: n }),
        ],
        1..10,
    )
    .prop_map(|types| {
        TableSchema::new(
            "prop_table",
            types
                .into_iter()
                .enumerate()
                .map(|(i, ty)| ColumnDef::new(format!("c{i}"), ty))
                .collect(),
        )
    })
}

fn arb_compressed_schema() -> impl Strategy<Value = TableSchema> {
    prop::collection::vec(
        prop_oneof![
            Just(Compression::None),
            (1u8..16).prop_map(|bits| Compression::Dictionary { bits }),
            (1u8..32).prop_map(|bits| Compression::Pfor {
                bits,
                exception_rate: 0.02
            }),
            (1u8..8).prop_map(|bits| Compression::PforDelta {
                bits,
                exception_rate: 0.01
            }),
        ],
        1..10,
    )
    .prop_map(|comps| {
        TableSchema::new(
            "prop_dsm",
            comps
                .into_iter()
                .enumerate()
                .map(|(i, c)| ColumnDef::compressed(format!("c{i}"), ColumnType::Int64, c))
                .collect(),
        )
    })
}

/// A compact description of a random query.
#[derive(Debug, Clone)]
struct RandomQuery {
    start: u32,
    len: u32,
    speed: f64,
}

fn arb_query(num_chunks: u32) -> impl Strategy<Value = RandomQuery> {
    (0..num_chunks, 1..=num_chunks, 1u32..=40).prop_map(move |(start, len, speed)| RandomQuery {
        start: start.min(num_chunks - 1),
        len,
        speed: speed as f64 * 500_000.0,
    })
}

fn arb_streams(num_chunks: u32) -> impl Strategy<Value = Vec<Vec<RandomQuery>>> {
    prop::collection::vec(prop::collection::vec(arb_query(num_chunks), 1..4), 1..6)
}

fn to_specs(streams: &[Vec<RandomQuery>], num_chunks: u32) -> Vec<Vec<QuerySpec>> {
    streams
        .iter()
        .map(|s| {
            s.iter()
                .enumerate()
                .map(|(i, q)| {
                    let end = (q.start + q.len).min(num_chunks);
                    QuerySpec::range_scan(
                        format!("q{i}-{}-{}", q.start, end),
                        ScanRanges::single(q.start, end.max(q.start + 1).min(num_chunks)),
                        q.speed,
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy completes every query of every random workload, the
    /// buffer is respected and I/O accounting is consistent.
    #[test]
    fn all_policies_complete_random_workloads(
        streams in arb_streams(48),
        buffer_chunks in 2u64..20,
    ) {
        let num_chunks = 48u32;
        let model = TableModel::nsm_uniform(num_chunks, 50_000, 64);
        let specs = to_specs(&streams, num_chunks);
        let total_queries: usize = specs.iter().map(|s| s.len()).sum();
        let config = SimConfig::default()
            .with_buffer_chunks(buffer_chunks)
            .with_stagger(SimDuration::from_millis(500));
        for policy in PolicyKind::ALL {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(specs.clone());
            let result = sim.run();
            // Every query finished exactly once.
            prop_assert_eq!(result.queries.len(), total_queries, "{}", policy);
            // Latencies are causal and bounded by the total run time.
            for q in &result.queries {
                prop_assert!(q.finished_at >= q.submitted_at);
                prop_assert!(q.latency() <= result.total_time);
            }
            // I/O accounting: at least the union of needed chunks was read,
            // and pages follow chunk loads exactly (uniform 64-page chunks).
            let union: std::collections::HashSet<u32> = specs
                .iter()
                .flatten()
                .flat_map(|q| q.ranges.as_ref().unwrap().iter().map(|c| c.index()))
                .collect();
            prop_assert!(result.io_requests >= union.len() as u64, "{}", policy);
            prop_assert_eq!(result.pages_read, result.io_requests * 64, "{}", policy);
            // Utilizations are valid fractions.
            prop_assert!(result.cpu_utilization >= 0.0 && result.cpu_utilization <= 1.0);
            prop_assert!(result.disk_utilization >= 0.0 && result.disk_utilization <= 1.0);
        }
    }

    /// I/O volume invariants: every policy reads at least the union of the
    /// requested chunks and at most the per-query sum (each query reading its
    /// chunks privately) — except `normal`, whose prefetched chunks can be
    /// evicted and re-read under extreme buffer pressure, so it only gets a
    /// generous multiple of that bound.  Relevance stays within striking
    /// distance of normal.
    #[test]
    fn io_volume_is_bounded(
        streams in arb_streams(40),
        buffer_chunks in 3u64..16,
    ) {
        let model = TableModel::nsm_uniform(40, 50_000, 64);
        let specs = to_specs(&streams, 40);
        let union: std::collections::HashSet<u32> = specs
            .iter()
            .flatten()
            .flat_map(|q| q.ranges.as_ref().unwrap().iter().map(|c| c.index()))
            .collect();
        let per_query_sum: u64 = specs
            .iter()
            .flatten()
            .map(|q| q.ranges.as_ref().unwrap().num_chunks() as u64)
            .sum();
        let config = SimConfig::default()
            .with_buffer_chunks(buffer_chunks)
            .with_stagger(SimDuration::from_millis(200));
        let run = |policy| {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(specs.clone());
            sim.run()
        };
        let normal = run(PolicyKind::Normal);
        let relevance = run(PolicyKind::Relevance);
        for (name, result) in [("normal", &normal), ("relevance", &relevance)] {
            prop_assert!(result.io_requests >= union.len() as u64, "{name}");
            prop_assert!(
                result.io_requests <= per_query_sum * 3 + 4,
                "{name}: {} loads for a per-query sum of {per_query_sum}",
                result.io_requests
            );
        }
        prop_assert!(
            relevance.io_requests <= normal.io_requests * 3 / 2 + 4,
            "relevance {} should stay close to or below normal {}",
            relevance.io_requests,
            normal.io_requests
        );
    }

    /// Determinism: running the same workload twice gives identical results
    /// for every policy.
    #[test]
    fn runs_are_deterministic(streams in arb_streams(32), buffer_chunks in 2u64..10) {
        let model = TableModel::nsm_uniform(32, 20_000, 32);
        let specs = to_specs(&streams, 32);
        let config = SimConfig::default().with_buffer_chunks(buffer_chunks);
        for policy in PolicyKind::ALL {
            let run = || {
                let mut sim = Simulation::new(model.clone(), policy, config);
                sim.submit_streams(specs.clone());
                sim.run()
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.io_requests, b.io_requests);
            prop_assert_eq!(a.total_time, b.total_time);
            prop_assert_eq!(
                a.queries.iter().map(|q| (q.query_id, q.finished_at)).collect::<Vec<_>>(),
                b.queries.iter().map(|q| (q.query_id, q.finished_at)).collect::<Vec<_>>()
            );
        }
    }

    /// DSM partial residency: page accounting matches the layout no matter
    /// which columns the queries use, for every policy.
    #[test]
    fn dsm_page_accounting_is_consistent(
        col_picks in prop::collection::vec((0u16..6, 1u16..4), 1..5),
        buffer_fraction in 0.15f64..0.8,
    ) {
        let model = TableModel::dsm_uniform(24, 50_000, &[1, 2, 4, 8, 16, 32]);
        let config = SimConfig::default()
            .with_buffer_fraction(buffer_fraction)
            .with_stagger(SimDuration::from_millis(100));
        for policy in PolicyKind::ALL {
            let mut sim = Simulation::new(model.clone(), policy, config);
            for (i, &(start, width)) in col_picks.iter().enumerate() {
                let cols: cscan_core::ColSet = (start..(start + width).min(6))
                    .map(cscan_storage::ColumnId::new)
                    .collect();
                sim.submit_stream(vec![QuerySpec::full_scan(format!("q{i}"), 2_000_000.0)
                    .with_columns(cols)]);
            }
            let result = sim.run();
            prop_assert_eq!(result.queries.len(), col_picks.len(), "{}", policy);
            // Pages read are bounded below by the union of needed columns
            // (each read at least once) and above by "every query reads its
            // own columns separately".
            let union: cscan_core::ColSet = col_picks
                .iter()
                .flat_map(|&(start, width)| {
                    (start..(start + width).min(6)).map(cscan_storage::ColumnId::new)
                })
                .collect();
            let lower = model.total_pages(union);
            let upper: u64 = col_picks
                .iter()
                .map(|&(start, width)| {
                    let cols: cscan_core::ColSet = (start..(start + width).min(6))
                        .map(cscan_storage::ColumnId::new)
                        .collect();
                    model.total_pages(cols)
                })
                .sum();
            prop_assert!(result.pages_read >= lower, "{}: {} < {}", policy, result.pages_read, lower);
            // Re-reads after eviction are possible under pressure, so the
            // upper bound carries a generous safety factor.
            prop_assert!(
                result.pages_read <= upper * 4,
                "{}: {} > {}",
                policy,
                result.pages_read,
                upper * 4
            );
        }
    }

    /// NSM: chunk tuple counts partition the table exactly and every chunk
    /// except the last is full.
    #[test]
    fn nsm_chunks_partition_tuples(schema in arb_schema(), tuples in 1u64..5_000_000) {
        let m = TableModel::nsm(&schema, tuples, PAGE, 4 * MIB);
        prop_assert_eq!(m.total_tuples(), tuples);
        let full = m.chunk_tuples(ChunkId::new(0));
        for c in 0..m.num_chunks().saturating_sub(1) {
            prop_assert_eq!(m.chunk_tuples(ChunkId::new(c)), full);
        }
    }

    /// NSM: physical regions of different chunks never overlap and are in
    /// table order.
    #[test]
    fn nsm_regions_disjoint(schema in arb_schema(), tuples in 1u64..2_000_000) {
        let m = TableModel::nsm(&schema, tuples, PAGE, 2 * MIB);
        let mut prev_end = 0u64;
        for c in 0..m.num_chunks() {
            let regions = m.chunk_regions(ChunkId::new(c), m.all_columns());
            prop_assert_eq!(regions.len(), 1);
            prop_assert!(regions[0].offset >= prev_end);
            prop_assert!(regions[0].len > 0);
            prev_end = regions[0].offset + regions[0].len;
        }
    }

    /// DSM: chunk tuple counts partition the table; per-chunk page counts for
    /// a subset of columns never exceed those for all columns.
    #[test]
    fn dsm_pages_monotone_in_columns(
        schema in arb_compressed_schema(),
        tuples in 1u64..3_000_000,
        chunk_tuples in 1_000u64..500_000,
    ) {
        let m = TableModel::dsm(&schema, tuples, PAGE, chunk_tuples);
        prop_assert_eq!(m.total_tuples(), tuples);
        let all = m.all_columns();
        let some: ColSet = all.iter().step_by(2).collect();
        for c in (0..m.num_chunks()).step_by(7) {
            let chunk = ChunkId::new(c);
            prop_assert!(m.chunk_pages(chunk, some) <= m.chunk_pages(chunk, all));
            prop_assert_eq!(m.chunk_regions(chunk, all).len(), all.len() as usize);
        }
    }

    /// DSM: within one column the chunks' page spans run forward with no
    /// gap: together they cover the column's area, and neighbours share at
    /// most their boundary page, so the per-chunk pages add up to at least
    /// the area and to less than the area plus one page per chunk.
    #[test]
    fn dsm_column_spans_are_ordered(
        schema in arb_compressed_schema(),
        tuples in 100_000u64..2_000_000,
    ) {
        let m = TableModel::dsm(&schema, tuples, PAGE, 50_000);
        for (i, def) in schema.columns().iter().enumerate() {
            let col = ColSet::from_columns([ColumnId::new(i as u16)]);
            for c in 0..m.num_chunks() {
                prop_assert!(m.chunk_pages(ChunkId::new(c), col) > 0);
            }
            let area = (tuples * def.physical_bits() as u64).div_ceil(8).div_ceil(PAGE);
            let spanned = m.total_pages(col);
            prop_assert!(spanned >= area, "column {} leaves a page out", i);
            prop_assert!(spanned < area + m.num_chunks() as u64, "column {} overlaps more than a page", i);
        }
    }
}
