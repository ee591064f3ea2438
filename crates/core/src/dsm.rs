//! Unit tests of the DSM table geometry (Section 6) that
//! [`crate::TableModel::dsm`] derives from a schema: a chunk a fixed count of
//! tuples, spanning a different number of pages in each column.

mod tests {
    use crate::{ColSet, TableModel};
    use cscan_storage::{ChunkId, ColumnDef, ColumnId, ColumnType, Compression, TableSchema};

    const PAGE: u64 = 64 * 1024;

    fn schema() -> TableSchema {
        TableSchema::new(
            "lineitem_like",
            vec![
                ColumnDef::compressed(
                    "orderkey",
                    ColumnType::Int64,
                    Compression::PforDelta {
                        bits: 3,
                        exception_rate: 0.0,
                    },
                ),
                ColumnDef::compressed(
                    "partkey",
                    ColumnType::Int64,
                    Compression::Pfor {
                        bits: 21,
                        exception_rate: 0.0,
                    },
                ),
                ColumnDef::compressed(
                    "returnflag",
                    ColumnType::Char,
                    Compression::Dictionary { bits: 2 },
                ),
                ColumnDef::new("extendedprice", ColumnType::Decimal),
                ColumnDef::new("comment", ColumnType::Varchar { avg_len: 32 }),
            ],
        )
    }

    fn model() -> TableModel {
        TableModel::dsm(&schema(), 1_000_000, PAGE, 100_000)
    }

    fn column(name: &str) -> ColumnId {
        schema().column_id(name).unwrap()
    }

    fn cols(names: &[&str]) -> ColSet {
        ColSet::from_columns(schema().resolve(names))
    }

    fn column_pages(m: &TableModel, c: u32, col: ColumnId) -> u64 {
        m.chunk_pages(ChunkId::new(c), ColSet::from_columns([col]))
    }

    /// Pages of `col`'s area: its bit-packed values over the whole table.
    fn area_pages(m: &TableModel, col: ColumnId) -> u64 {
        let bits = schema().columns()[col.as_usize()].physical_bits() as u64;
        (m.total_tuples() * bits)
            .div_ceil(8)
            .div_ceil(m.page_size())
    }

    #[test]
    fn chunk_count_and_tuples() {
        let m = model();
        assert_eq!(m.groups().len(), 5);
        assert_eq!(m.num_chunks(), 10);
        assert_eq!(m.chunk_tuples(ChunkId::new(0)), 100_000);
        assert_eq!(m.chunk_tuples(ChunkId::new(9)), 100_000);
        let m2 = TableModel::dsm(&schema(), 950_001, PAGE, 100_000);
        assert_eq!(m2.num_chunks(), 10);
        assert_eq!(m2.chunk_tuples(ChunkId::new(9)), 50_001);
    }

    #[test]
    fn column_widths_drive_page_counts() {
        let m = model();
        // 3-bit column: 100k tuples ~ 37.5 KB -> 1-2 pages.
        assert!(column_pages(&m, 3, column("orderkey")) <= 2);
        // 64-bit column: 100k tuples = 800 KB -> ~13 pages.
        let p = column_pages(&m, 3, column("extendedprice"));
        assert!((12..=14).contains(&p), "got {p}");
        // 32-byte strings: 100k tuples = 3.2 MB -> ~49-50 pages.
        let pc = column_pages(&m, 3, column("comment"));
        assert!((48..=51).contains(&pc), "got {pc}");
    }

    #[test]
    fn chunk_pages_sums_over_requested_columns() {
        let m = model();
        let c = ChunkId::new(0);
        let sum =
            column_pages(&m, 0, column("orderkey")) + column_pages(&m, 0, column("extendedprice"));
        let both = cols(&["orderkey", "extendedprice"]);
        assert_eq!(m.chunk_pages(c, both), sum);
        assert_eq!(m.chunk_bytes(c, both), sum * PAGE);
        assert_eq!(m.chunk_pages(c, ColSet::empty()), 0);
    }

    #[test]
    fn narrow_columns_share_pages_between_chunks() {
        let m = model();
        let orderkey = column("orderkey");
        // A 3-bit column packs ~174k values per 64 KiB page, so a 100k-tuple
        // chunk occupies at most two pages and adjacent chunks share the
        // boundary page (chunk boundaries never align with page boundaries):
        // chunk 1 starts on the page where chunk 0 ends, and that page is
        // counted for both.
        for c in 0..m.num_chunks() {
            assert!(column_pages(&m, c, orderkey) <= 2, "chunk {c}");
        }
        assert_eq!(
            (column_pages(&m, 0, orderkey), column_pages(&m, 1, orderkey)),
            (1, 2)
        );
        let one = ColSet::from_columns([orderkey]);
        assert!(m.total_pages(one) > area_pages(&m, orderkey));
    }

    #[test]
    fn wide_columns_rarely_share_pages() {
        let m = model();
        let comment = column("comment");
        // A ~49-page chunk shares at most its first page with the chunk before.
        let spans = m.total_pages(ColSet::from_columns([comment]));
        let area = area_pages(&m, comment);
        assert!(
            spans >= area && spans < area + m.num_chunks() as u64,
            "spans={spans} area={area}"
        );
        let one = ColSet::from_columns([comment]);
        let r0 = m.chunk_regions(ChunkId::new(0), one)[0];
        let r1 = m.chunk_regions(ChunkId::new(1), one)[0];
        assert!(
            r1.offset >= r0.offset + r0.len,
            "chunk 1 starts at or after chunk 0's last page"
        );
        assert!(
            r1.offset + r1.len > r0.offset + r0.len,
            "chunk 1 extends beyond chunk 0"
        );
    }

    #[test]
    fn regions_live_in_their_column_area() {
        let m = model();
        let all = m.all_columns();
        let regions = m.chunk_regions(ChunkId::new(5), all);
        assert_eq!(regions.len(), all.len() as usize);
        // Regions of different columns never overlap.
        for (i, a) in regions.iter().enumerate() {
            for b in &regions[i + 1..] {
                let a_end = a.offset + a.len;
                let b_end = b.offset + b.len;
                assert!(
                    a_end <= b.offset || b_end <= a.offset,
                    "regions overlap: {a:?} {b:?}"
                );
            }
        }
    }

    #[test]
    fn dsm_reads_less_than_nsm_for_few_columns() {
        // The motivation for DSM in Section 2: reading 2 of many columns
        // costs far less I/O than reading full tuples.
        let m = model();
        let two = cols(&["orderkey", "returnflag"]);
        let all = m.all_columns();
        let few_bytes: u64 = (0..m.num_chunks())
            .map(|c| m.chunk_bytes(ChunkId::new(c), two))
            .sum();
        let all_bytes: u64 = (0..m.num_chunks())
            .map(|c| m.chunk_bytes(ChunkId::new(c), all))
            .sum();
        assert!(
            few_bytes * 10 < all_bytes,
            "few={few_bytes} all={all_bytes}"
        );
    }

    #[test]
    fn total_bytes_is_page_aligned_sum_of_columns() {
        let m = model();
        // Column areas start at page-aligned cumulative offsets: the first
        // chunk of each column begins where the areas before it end.
        let mut area_start = 0;
        for i in 0..m.num_columns() {
            let col = ColumnId::new(i);
            let first = m.chunk_regions(ChunkId::new(0), ColSet::from_columns([col]))[0];
            assert_eq!(first.offset, area_start, "column {i}");
            assert_eq!(first.offset % m.page_size(), 0);
            area_start += area_pages(&m, col) * m.page_size();
        }
        assert!(area_start > 0);
    }

    #[test]
    fn tuple_chunk_mapping() {
        let m = model();
        let chunk_of_tuple = |t: u64| {
            let mut end = 0;
            (0..m.num_chunks())
                .map(ChunkId::new)
                .find(|&c| {
                    end += m.chunk_tuples(c);
                    t < end
                })
                .unwrap()
        };
        assert_eq!(chunk_of_tuple(0), ChunkId::new(0));
        assert_eq!(chunk_of_tuple(99_999), ChunkId::new(0));
        assert_eq!(chunk_of_tuple(100_000), ChunkId::new(1));
        assert_eq!(chunk_of_tuple(999_999), ChunkId::new(9));
    }

    #[test]
    #[should_panic(expected = "at least one tuple")]
    fn zero_tuple_chunks_rejected() {
        TableModel::dsm(&schema(), 100, PAGE, 0);
    }
}
