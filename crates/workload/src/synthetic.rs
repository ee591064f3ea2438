//! The synthetic table and queries of the column-overlap experiment (Table 4).
//!
//! Section 6.3.1 uses a 200 M-tuple relation with ten 8-byte attributes
//! (A … J).  Sixteen streams of four queries each scan three adjacent
//! columns over a random 40 % range; different runs vary which 3-column
//! windows are used, controlling how much the queries' column sets overlap.

use cscan_core::model::TableModel;
use cscan_core::sim::QuerySpec;
use cscan_core::ColSet;
use cscan_core::ColumnId;
use cscan_storage::{ColumnDef, ColumnType, TableSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of tuples in the synthetic relation (200 M in the paper; scale it
/// down for quick tests).
pub const SYNTHETIC_TUPLES: u64 = 200_000_000;

/// Number of attributes (A..J).
pub const SYNTHETIC_COLUMNS: u16 = 10;

/// Tuples per logical chunk.
pub const SYNTHETIC_CHUNK_TUPLES: u64 = 500_000;

/// The ten-attribute synthetic schema (8-byte uncompressed columns A..J).
pub fn synthetic_schema() -> TableSchema {
    TableSchema::new(
        "synthetic10",
        (0..SYNTHETIC_COLUMNS)
            .map(|i| {
                let name = char::from(b'A' + i as u8).to_string();
                ColumnDef::new(name, ColumnType::Int64)
            })
            .collect(),
    )
}

/// The DSM scheduling model of the synthetic table with `tuples` rows.
pub fn synthetic_model(tuples: u64) -> TableModel {
    TableModel::dsm(
        &synthetic_schema(),
        tuples,
        cscan_storage::DEFAULT_PAGE_SIZE,
        SYNTHETIC_CHUNK_TUPLES.min(tuples.max(1)),
    )
}

/// A 3-adjacent-column window starting at column `start` (e.g. `0` = "ABC").
pub fn column_window(start: u16) -> ColSet {
    assert!(
        start + 3 <= SYNTHETIC_COLUMNS,
        "window {start} out of range"
    );
    ColSet::from_columns((start..start + 3).map(ColumnId::new))
}

/// The paper's window names: `"ABC"`, `"BCD"`, … derived from the start column.
pub fn window_name(start: u16) -> String {
    (start..start + 3)
        .map(|i| char::from(b'A' + i as u8))
        .collect()
}

/// The query-type sets of Table 4, expressed as window start columns.
///
/// Returns `(description, window starts)` pairs: the non-overlapping runs
/// (`ABC`, `ABC,DEF`) followed by the partially-overlapping ones
/// (`ABC,BCD`, `ABC,BCD,CDE`, `ABC,BCD,CDE,DEF`).
pub fn table4_query_sets() -> Vec<(String, Vec<u16>)> {
    let sets: Vec<Vec<u16>> = vec![
        vec![0],
        vec![0, 3],
        vec![0, 1],
        vec![0, 1, 2],
        vec![0, 1, 2, 3],
    ];
    sets.into_iter()
        .map(|starts| {
            let name = starts
                .iter()
                .map(|&s| window_name(s))
                .collect::<Vec<_>>()
                .join(",");
            (name, starts)
        })
        .collect()
}

/// Builds the Table 4 workload: `streams` streams of `queries_per_stream`
/// queries, each scanning 40 % of the table with a column window drawn
/// round-robin from `window_starts`.
pub fn table4_streams(
    model: &TableModel,
    window_starts: &[u16],
    streams: usize,
    queries_per_stream: usize,
    tuples_per_sec: f64,
    seed: u64,
) -> Vec<Vec<QuerySpec>> {
    assert!(!window_starts.is_empty());
    let mut rng = StdRng::seed_from_u64(seed);
    let total = model.num_chunks();
    let len = ((total as u64 * 40) / 100).max(1) as u32;
    let mut counter = 0usize;
    (0..streams)
        .map(|_| {
            (0..queries_per_stream)
                .map(|_| {
                    let start_col = window_starts[counter % window_starts.len()];
                    counter += 1;
                    let start = rng.gen_range(0..=(total - len));
                    QuerySpec::range_scan(
                        format!("{}-40", window_name(start_col)),
                        cscan_storage::ScanRanges::single(start, start + len),
                        tuples_per_sec,
                    )
                    .with_columns(column_window(start_col))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_model_shape() {
        let schema = synthetic_schema();
        assert_eq!(schema.num_columns(), 10);
        assert_eq!(schema.tuple_width_uncompressed(), 80);
        assert_eq!(schema.column(ColumnId::new(0)).name, "A");
        assert_eq!(schema.column(ColumnId::new(9)).name, "J");
        let model = synthetic_model(10_000_000);
        assert_eq!(model.groups().len(), 10);
        assert_eq!(model.num_chunks(), 20);
        assert_eq!(model.num_columns(), 10);
    }

    #[test]
    fn windows_and_names() {
        assert_eq!(window_name(0), "ABC");
        assert_eq!(window_name(3), "DEF");
        assert_eq!(column_window(1).to_vec().len(), 3);
        assert!(column_window(0).overlaps(column_window(2)));
        assert!(!column_window(0).overlaps(column_window(3)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_window_rejected() {
        column_window(8);
    }

    #[test]
    fn table4_sets_match_paper() {
        let sets = table4_query_sets();
        assert_eq!(sets.len(), 5);
        assert_eq!(sets[0].0, "ABC");
        assert_eq!(sets[1].0, "ABC,DEF");
        assert_eq!(sets[2].0, "ABC,BCD");
        assert_eq!(sets[4].0, "ABC,BCD,CDE,DEF");
    }

    #[test]
    fn streams_scan_40_percent_with_assigned_windows() {
        let model = synthetic_model(20_000_000); // 40 chunks
        let streams = table4_streams(&model, &[0, 3], 4, 4, 5e6, 11);
        assert_eq!(streams.len(), 4);
        let all: Vec<&QuerySpec> = streams.iter().flatten().collect();
        assert_eq!(all.len(), 16);
        for q in &all {
            assert_eq!(
                q.ranges.as_ref().unwrap().num_chunks(),
                16,
                "40% of 40 chunks"
            );
            let cols = q.columns;
            assert_eq!(cols.len(), 3);
        }
        // Round-robin window assignment: half ABC, half DEF.
        let abc = all.iter().filter(|q| q.label.starts_with("ABC")).count();
        let def = all.iter().filter(|q| q.label.starts_with("DEF")).count();
        assert_eq!(abc, 8);
        assert_eq!(def, 8);
    }

    #[test]
    fn determinism_by_seed() {
        let model = synthetic_model(5_000_000);
        let a = table4_streams(&model, &[0, 1], 3, 2, 1e6, 5);
        let b = table4_streams(&model, &[0, 1], 3, 2, 1e6, 5);
        assert_eq!(a, b);
    }
}
