//! A TPC-H `lineitem`-like table.
//!
//! The real TPC-H data is not needed for I/O-scheduling experiments — only
//! the table's *physical geometry* matters: how many tuples, how wide they
//! are on disk (per column, with lightweight compression for DSM), and how
//! they divide into chunks.  The widths below are chosen so that the
//! NSM/PAX table at scale factor 10 occupies a little over 4 GB, matching
//! "the lineitem table consumes over 4GB of disk space" in Section 5.1.

use cscan_core::model::TableModel;
use cscan_storage::{ColumnDef, ColumnType, Compression, TableSchema};

/// Number of `lineitem` tuples per TPC-H scale factor unit.
pub const LINEITEM_TUPLES_PER_SF: u64 = 6_000_000;

/// The default chunk size used by the row-storage experiments (16 MiB).
pub const NSM_CHUNK_BYTES: u64 = 16 * 1024 * 1024;

/// The default logical chunk size (in tuples) used by the DSM experiments.
pub const DSM_CHUNK_TUPLES: u64 = 500_000;

/// The `lineitem`-like schema.  Physical widths sum to 72 bytes per tuple,
/// so scale factor 10 (60 M tuples) occupies ≈ 4.3 GB in NSM/PAX.
pub fn lineitem_schema() -> TableSchema {
    TableSchema::new(
        "lineitem",
        vec![
            ColumnDef::compressed(
                "l_orderkey",
                ColumnType::Int64,
                Compression::PforDelta {
                    bits: 3,
                    exception_rate: 0.02,
                },
            ),
            ColumnDef::compressed(
                "l_partkey",
                ColumnType::Int32,
                Compression::Pfor {
                    bits: 21,
                    exception_rate: 0.02,
                },
            ),
            ColumnDef::compressed(
                "l_suppkey",
                ColumnType::Int32,
                Compression::Pfor {
                    bits: 14,
                    exception_rate: 0.02,
                },
            ),
            ColumnDef::new("l_linenumber", ColumnType::Int32),
            ColumnDef::new("l_quantity", ColumnType::Int32),
            ColumnDef::new("l_extendedprice", ColumnType::Decimal),
            ColumnDef::new("l_discount", ColumnType::Int32),
            ColumnDef::new("l_tax", ColumnType::Int32),
            ColumnDef::compressed(
                "l_returnflag",
                ColumnType::Char,
                Compression::Dictionary { bits: 2 },
            ),
            ColumnDef::compressed(
                "l_linestatus",
                ColumnType::Char,
                Compression::Dictionary { bits: 1 },
            ),
            ColumnDef::compressed(
                "l_shipdate",
                ColumnType::Date,
                Compression::Pfor {
                    bits: 13,
                    exception_rate: 0.0,
                },
            ),
            ColumnDef::compressed(
                "l_commitdate",
                ColumnType::Date,
                Compression::Pfor {
                    bits: 13,
                    exception_rate: 0.0,
                },
            ),
            ColumnDef::compressed(
                "l_receiptdate",
                ColumnType::Date,
                Compression::Pfor {
                    bits: 13,
                    exception_rate: 0.0,
                },
            ),
            ColumnDef::compressed(
                "l_shipmode",
                ColumnType::Varchar { avg_len: 4 },
                Compression::Dictionary { bits: 3 },
            ),
            ColumnDef::new("l_comment", ColumnType::Varchar { avg_len: 14 }),
        ],
    )
}

/// Number of `lineitem` tuples at the given scale factor.
pub fn lineitem_tuples(scale_factor: u32) -> u64 {
    LINEITEM_TUPLES_PER_SF * scale_factor as u64
}

/// The scheduling model of the NSM/PAX `lineitem` table at the given scale
/// factor (64 KiB pages, 16 MiB chunks — the paper's row-storage setup).
pub fn lineitem_nsm_model(scale_factor: u32) -> TableModel {
    TableModel::nsm(
        &lineitem_schema(),
        lineitem_tuples(scale_factor),
        cscan_storage::DEFAULT_PAGE_SIZE,
        NSM_CHUNK_BYTES,
    )
}

/// The scheduling model of the DSM `lineitem` table at the given scale
/// factor (64 KiB pages, 500 000-tuple chunks).
pub fn lineitem_dsm_model(scale_factor: u32) -> TableModel {
    TableModel::dsm(
        &lineitem_schema(),
        lineitem_tuples(scale_factor),
        cscan_storage::DEFAULT_PAGE_SIZE,
        DSM_CHUNK_TUPLES,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape() {
        let s = lineitem_schema();
        assert_eq!(s.num_columns(), 15);
        assert_eq!(s.tuple_width_uncompressed(), 72);
        // Compression shrinks the DSM representation substantially.
        assert!(
            s.tuple_width_physical() < 50.0,
            "got {}",
            s.tuple_width_physical()
        );
        assert!(s.column_id("l_shipdate").is_some());
    }

    #[test]
    fn sf10_nsm_matches_paper_scale() {
        let model = lineitem_nsm_model(10);
        let bytes = model.total_pages(model.all_columns()) * model.page_size();
        // "over 4GB": between 4 and 5 GiB.
        assert!(bytes > 4 * 1024 * 1024 * 1024, "got {bytes}");
        assert!(bytes < 5 * 1024 * 1024 * 1024, "got {bytes}");
        // A few hundred 16 MiB chunks.
        assert!(
            (200..400).contains(&model.num_chunks()),
            "got {}",
            model.num_chunks()
        );
        assert_eq!(model.groups(), [model.all_columns()]);
        assert_eq!(model.total_tuples(), 60_000_000);
    }

    #[test]
    fn sf40_dsm_matches_paper_scale() {
        let model = lineitem_dsm_model(40);
        assert_eq!(model.groups().len(), 15);
        assert_eq!(model.total_tuples(), 240_000_000);
        assert_eq!(model.num_chunks(), 480);
        // The full-width DSM table is smaller per tuple than NSM thanks to
        // compression, but still sizeable.
        let total_bytes = model.total_pages(model.all_columns()) * model.page_size();
        assert!(total_bytes > 6 * 1024 * 1024 * 1024, "got {total_bytes}");
    }

    #[test]
    fn narrow_projections_read_much_less_in_dsm() {
        let model = lineitem_dsm_model(10);
        let schema = lineitem_schema();
        let q6_cols = cscan_core::ColSet::from_columns(schema.resolve(&[
            "l_shipdate",
            "l_discount",
            "l_quantity",
            "l_extendedprice",
        ]));
        let narrow = model.total_pages(q6_cols);
        let all = model.total_pages(model.all_columns());
        assert!(narrow * 2 < all, "narrow={narrow} all={all}");
    }

    #[test]
    fn scale_factor_scales_linearly() {
        assert_eq!(lineitem_tuples(1), 6_000_000);
        assert_eq!(lineitem_tuples(40), 240_000_000);
        let m1 = lineitem_nsm_model(1);
        let m10 = lineitem_nsm_model(10);
        let ratio = m10.num_chunks() as f64 / m1.num_chunks() as f64;
        assert!(
            (ratio - 10.0).abs() < 1.0,
            "chunk count scales with data: {ratio}"
        );
    }
}
