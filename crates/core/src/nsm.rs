//! Unit tests of the NSM/PAX table geometry (Section 5) that
//! [`crate::TableModel::nsm`] derives from a schema: whole tuples to a page,
//! a chunk a fixed run of pages, the last chunk short.

mod tests {
    use crate::{ColSet, TableModel};
    use cscan_storage::{ChunkId, ColumnDef, ColumnId, ColumnType, TableSchema, DEFAULT_PAGE_SIZE};

    const PAGE: u64 = 64 * 1024;
    const MIB: u64 = 1024 * 1024;

    fn schema() -> TableSchema {
        // 128-byte tuples for easy arithmetic: 16 Int64 columns.
        TableSchema::new(
            "wide",
            (0..16)
                .map(|i| ColumnDef::new(format!("c{i}"), ColumnType::Int64))
                .collect(),
        )
    }

    /// The chunk holding tuple `t`, from the chunks' tuple counts.
    fn chunk_of_tuple(m: &TableModel, t: u64) -> (ChunkId, u64, u64) {
        let mut start = 0;
        for c in 0..m.num_chunks() {
            let end = start + m.chunk_tuples(ChunkId::new(c));
            if t < end {
                return (ChunkId::new(c), start, end);
            }
            start = end;
        }
        panic!("tuple {t} lies past the table's {start} tuples");
    }

    #[test]
    fn geometry_is_consistent() {
        // 64 KiB pages -> 512 tuples/page; 1 MiB chunks -> 16 pages -> 8192 tuples/chunk.
        let m = TableModel::nsm(&schema(), 100_000, PAGE, MIB);
        let c = ChunkId::new(0);
        assert_eq!(m.chunk_pages(c, m.all_columns()), 16);
        assert_eq!(m.chunk_tuples(c), 8192);
        assert_eq!(m.chunk_tuples(c) / m.chunk_pages(c, m.all_columns()), 512);
        assert_eq!(m.num_chunks(), 100_000u64.div_ceil(8192) as u32);
        assert_eq!(m.total_tuples(), 100_000);
        assert_eq!(m.num_columns(), 16);
        assert_eq!(m.page_size(), PAGE);
    }

    #[test]
    fn last_chunk_is_partial() {
        let m = TableModel::nsm(&schema(), 10_000, PAGE, MIB);
        // 10_000 = 8192 + 1808.
        assert_eq!(m.num_chunks(), 2);
        assert_eq!(m.chunk_tuples(ChunkId::new(0)), 8192);
        assert_eq!(m.chunk_tuples(ChunkId::new(1)), 1808);
        // Partial chunk occupies fewer pages: ceil(1808/512) = 4.
        assert_eq!(m.chunk_pages(ChunkId::new(1), m.all_columns()), 4);
        assert_eq!(m.chunk_pages(ChunkId::new(0), m.all_columns()), 16);
        let last = m.chunk_regions(ChunkId::new(1), m.all_columns());
        assert_eq!((last[0].offset, last[0].len), (MIB, 4 * PAGE));
    }

    /// One group stores every column, and a group is read whole.
    #[test]
    fn column_set_is_irrelevant_for_nsm() {
        let m = TableModel::nsm(&schema(), 100_000, PAGE, MIB);
        assert_eq!(m.groups(), [m.all_columns()]);
        let one_col = ColSet::from_columns([ColumnId::new(0)]);
        let all = m.all_columns();
        let c = ChunkId::new(3);
        assert_eq!(m.chunk_pages(c, one_col), m.chunk_pages(c, all));
        assert_eq!(m.chunk_bytes(c, one_col), m.chunk_bytes(c, all));
        assert_eq!(m.chunk_regions(c, one_col), m.chunk_regions(c, all));
    }

    #[test]
    fn regions_are_contiguous_and_ordered() {
        let m = TableModel::nsm(&schema(), 100_000, PAGE, MIB);
        let all = m.all_columns();
        let r0 = m.chunk_regions(ChunkId::new(0), all);
        let r1 = m.chunk_regions(ChunkId::new(1), all);
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].offset, 0);
        assert_eq!(r1[0].offset, MIB);
        assert_eq!(r0[0].len, MIB);
    }

    #[test]
    fn tuple_chunk_mapping_round_trips() {
        let m = TableModel::nsm(&schema(), 50_000, PAGE, MIB);
        for (t, chunk) in [(0u64, 0u32), (1, 0), (8191, 0), (8192, 1), (49_999, 6)] {
            let (c, start, end) = chunk_of_tuple(&m, t);
            assert_eq!(c, ChunkId::new(chunk), "tuple {t}");
            assert!(
                t >= start && t < end,
                "tuple {t} not in chunk {c:?} range {start}..{end}"
            );
        }
    }

    #[test]
    fn total_bytes_accounts_for_partial_last_chunk() {
        let m = TableModel::nsm(&schema(), 10_000, PAGE, MIB);
        let all = m.all_columns();
        let expected = m.chunk_bytes(ChunkId::new(0), all) + m.chunk_bytes(ChunkId::new(1), all);
        assert_eq!(m.total_pages(all) * m.page_size(), expected);
        assert_eq!(m.total_pages(all), 16 + 4);
    }

    #[test]
    fn paper_scale_sanity() {
        // TPC-H SF-10 lineitem is ~60M tuples and "over 4GB" in the paper.
        // With 72-byte tuples and 16MB chunks we should land in the
        // few-hundred-chunks range, which is what makes chunk-level
        // scheduling tractable.
        let schema = TableSchema::new(
            "lineitem_like",
            (0..9)
                .map(|i| ColumnDef::new(format!("c{i}"), ColumnType::Int64))
                .collect(),
        );
        let m = TableModel::nsm(&schema, 60_000_000, DEFAULT_PAGE_SIZE, 16 * MIB);
        assert!(
            m.num_chunks() > 100 && m.num_chunks() < 1000,
            "got {}",
            m.num_chunks()
        );
    }

    #[test]
    #[should_panic(expected = "multiple of page size")]
    fn misaligned_chunk_size_rejected() {
        TableModel::nsm(&schema(), 1000, PAGE, 100_000);
    }

    #[test]
    #[should_panic(expected = "at least one tuple")]
    fn empty_table_rejected() {
        TableModel::nsm(&schema(), 0, PAGE, MIB);
    }
}
