//! The table model the Active Buffer Manager schedules against.
//!
//! The ABM does not care about actual bytes; it cares about *costs*: how many
//! tuples a chunk holds (CPU cost), how many pages each (chunk, column)
//! combination occupies (buffer cost) and where those pages live on disk
//! (I/O cost).  [`TableModel`] captures exactly that, pre-computed so that
//! scheduling decisions are cheap.  It is the one place a table's geometry
//! is worked out.
//!
//! There is one representation for both of the paper's storage models.  A
//! table is a set of physical *column groups*, each storing some of its
//! logical columns in an area of its own, and a chunk occupies a run of pages
//! in every group.  A group is read whole: asking for any of its columns
//! costs, loads and makes resident all of them.  The row store of Section 5
//! (NSM/PAX) is one group of every column; the column store of Section 6
//! (DSM) is one group per column.  Nothing above the model asks which of the
//! two it schedules.
//!
//! [`TableModel::nsm`] and [`TableModel::dsm`] derive the geometry from a
//! [`cscan_storage::TableSchema`]; [`TableModel::nsm_uniform`] /
//! [`TableModel::dsm_uniform`] state it directly for unit tests, parameter
//! sweeps and segment files.

use crate::colset::ColSet;
use cscan_storage::{ChunkId, ColumnId, PhysRegion, TableSchema};
use serde::{Deserialize, Serialize};

/// Pre-computed physical description of one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableModel {
    page_size: u64,
    /// Tuples per chunk.
    chunk_tuples: Vec<u64>,
    /// Every column of the table.
    columns: ColSet,
    /// The logical columns each physical group stores; together they
    /// partition `columns`.
    groups: Vec<ColSet>,
    /// The group each logical column is stored in.
    group_of: Vec<u16>,
    /// Page counts, chunk-major: chunk `c`'s pages in group `g` are at
    /// `c · groups + g`.
    pages: Vec<u64>,
    /// Byte offsets, laid out like `pages`: the group's area start plus the
    /// pages of the chunks before, so sequential chunk order produces
    /// sequential disk addresses within each group's area.
    offsets: Vec<u64>,
    /// Group-wise maximum of `pages` over the chunks.
    max_pages: Vec<u64>,
    /// One bit per chunk narrower in some group than that group's widest
    /// chunk, in the chunk index's word layout.
    ragged: Vec<u64>,
}

/// `tuples` split into chunks of `per_chunk`, the last one short.
fn partition(tuples: u64, per_chunk: u64) -> Vec<u64> {
    (0..tuples.div_ceil(per_chunk))
        .map(|c| per_chunk.min(tuples - c * per_chunk))
        .collect()
}

/// One group per column of `n`.
fn column_groups(n: u16) -> Vec<ColSet> {
    (0..n)
        .map(|c| ColSet::from_columns([ColumnId::new(c)]))
        .collect()
}

impl TableModel {
    /// The constructor behind the public ones: chunk `c` spans `pages[c][g]`
    /// pages of group `g`, whose area starts at byte `area_starts[g]`.
    fn from_groups(
        page_size: u64,
        chunk_tuples: Vec<u64>,
        groups: Vec<ColSet>,
        pages: Vec<Vec<u64>>,
        area_starts: &[u64],
    ) -> Self {
        let columns: u32 = groups.iter().map(ColSet::len).sum();
        assert!(columns <= u32::from(ColSet::MAX_COLUMNS));
        let mut group_of = vec![0; columns as usize];
        for (g, cols) in groups.iter().enumerate() {
            for col in cols.iter() {
                group_of[col.as_usize()] = g as u16;
            }
        }
        let max_pages: Vec<u64> = (0..groups.len())
            .map(|g| pages.iter().map(|row| row[g]).max().unwrap_or(0))
            .collect();
        let mut ragged = vec![0u64; pages.len().div_ceil(64)];
        for (c, row) in pages.iter().enumerate() {
            if row.iter().zip(&max_pages).any(|(p, max)| p < max) {
                ragged[c / 64] |= 1 << (c % 64);
            }
        }
        let mut cursor = area_starts.to_vec();
        let mut offsets = Vec::with_capacity(pages.len() * groups.len());
        for row in &pages {
            for (&p, at) in row.iter().zip(&mut cursor) {
                offsets.push(*at);
                *at += p * page_size;
            }
        }
        Self {
            page_size,
            chunk_tuples,
            columns: ColSet::first_n(columns as u16),
            groups,
            group_of,
            pages: pages.concat(),
            offsets,
            max_pages,
            ragged,
        }
    }

    /// The NSM/PAX table of the paper's row-storage experiments (Section
    /// 5): `tuples` tuples of `schema` in one group of every column, a page
    /// holding as many whole tuples as fit at their uncompressed width, and
    /// a chunk a fixed run of `chunk_bytes / page_size` pages at byte offset
    /// `c × chunk_bytes`.  The last chunk may be partial and occupies only
    /// the pages its tuples fill.
    ///
    /// # Panics
    /// Panics if `tuples` is zero, if `chunk_bytes` is not a positive
    /// multiple of `page_size`, if a tuple does not fit in a page, or if the
    /// schema has more than [`ColSet::MAX_COLUMNS`] columns.
    pub fn nsm(schema: &TableSchema, tuples: u64, page_size: u64, chunk_bytes: u64) -> Self {
        assert!(tuples > 0, "table must contain at least one tuple");
        assert!(
            page_size > 0 && chunk_bytes > 0 && chunk_bytes.is_multiple_of(page_size),
            "chunk size ({chunk_bytes}) must be a positive multiple of page size ({page_size})"
        );
        let tuple_width = schema.tuple_width_uncompressed();
        assert!(tuple_width <= page_size, "a tuple must fit in one page");
        let tuples_per_page = page_size / tuple_width;
        let chunk_tuples = partition(tuples, tuples_per_page * (chunk_bytes / page_size));
        let pages = chunk_tuples
            .iter()
            .map(|t| vec![t.div_ceil(tuples_per_page)])
            .collect();
        let groups = vec![ColSet::first_n(schema.num_columns())];
        Self::from_groups(page_size, chunk_tuples, groups, pages, &[0])
    }

    /// The DSM table of the paper's column-storage experiments (Section 6):
    /// `tuples` tuples of `schema` in chunks of `chunk_tuples` tuples (the
    /// last may hold fewer), one group per column, each column in its own
    /// area of values bit-packed at
    /// [`cscan_storage::ColumnDef::physical_bits`].  A chunk's pages in a
    /// column are the pages its values span, so the same chunk spans a
    /// different number of pages in each column and narrow columns share a
    /// boundary page between neighbouring chunks.  The column areas start at
    /// page-aligned cumulative offsets.
    ///
    /// # Panics
    /// Panics if `tuples`, `page_size` or `chunk_tuples` is zero, or if the
    /// schema has more than [`ColSet::MAX_COLUMNS`] columns.
    pub fn dsm(schema: &TableSchema, tuples: u64, page_size: u64, chunk_tuples: u64) -> Self {
        assert!(tuples > 0, "table must contain at least one tuple");
        assert!(chunk_tuples > 0, "chunks must contain at least one tuple");
        assert!(page_size > 0, "page size must be positive");
        assert!(schema.num_columns() <= ColSet::MAX_COLUMNS);
        let bits: Vec<u128> = schema
            .columns()
            .iter()
            .map(|c| c.physical_bits() as u128)
            .collect();
        let page = page_size as u128;
        let counts = partition(tuples, chunk_tuples);
        let pages = counts
            .iter()
            .enumerate()
            .map(|(c, &n)| {
                let start = c as u128 * chunk_tuples as u128;
                let end = start + n as u128;
                bits.iter()
                    .map(|&b| {
                        let (first, last) = (start * b / 8, (end * b).div_ceil(8));
                        if last <= first {
                            0
                        } else {
                            ((last - 1) / page - first / page + 1) as u64
                        }
                    })
                    .collect()
            })
            .collect();
        let mut cursor = 0u64;
        let area_starts: Vec<u64> = bits
            .iter()
            .map(|&b| {
                let area = cursor;
                cursor += ((tuples as u128 * b).div_ceil(8).div_ceil(page) * page) as u64;
                area
            })
            .collect();
        let groups = column_groups(schema.num_columns());
        Self::from_groups(page_size, counts, groups, pages, &area_starts)
    }

    /// A synthetic row store: one column, `num_chunks` identical chunks of
    /// `pages_per_chunk` pages and `tuples_per_chunk` tuples — the
    /// one-column [`Self::dsm_uniform`], a table of one group either way.
    /// Handy for unit tests and parameter sweeps.
    pub fn nsm_uniform(num_chunks: u32, tuples_per_chunk: u64, pages_per_chunk: u64) -> Self {
        assert!(pages_per_chunk > 0);
        Self::dsm_uniform(num_chunks, tuples_per_chunk, &[pages_per_chunk])
    }

    /// A synthetic DSM table with `num_chunks` chunks, `tuples_per_chunk`
    /// tuples each, and per-column page counts given by `pages_per_column`
    /// (identical for every chunk).  Page size is 64 KiB.
    pub fn dsm_uniform(num_chunks: u32, tuples_per_chunk: u64, pages_per_column: &[u64]) -> Self {
        assert!(num_chunks > 0 && tuples_per_chunk > 0 && !pages_per_column.is_empty());
        assert!(pages_per_column.len() <= ColSet::MAX_COLUMNS as usize);
        let page_size = cscan_storage::DEFAULT_PAGE_SIZE;
        let n = num_chunks as usize;
        let mut cursor = 0u64;
        let area_starts: Vec<u64> = pages_per_column
            .iter()
            .map(|&p| {
                let area = cursor;
                cursor += p * n as u64 * page_size;
                area
            })
            .collect();
        Self::from_groups(
            page_size,
            vec![tuples_per_chunk; n],
            column_groups(pages_per_column.len() as u16),
            vec![pages_per_column.to_vec(); n],
            &area_starts,
        )
    }

    /// Physical page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of logical chunks.
    pub fn num_chunks(&self) -> u32 {
        self.chunk_tuples.len() as u32
    }

    /// Number of columns.
    pub fn num_columns(&self) -> u16 {
        self.group_of.len() as u16
    }

    /// The set of all columns of this table.
    pub fn all_columns(&self) -> ColSet {
        self.columns
    }

    /// The logical columns of each physical column group.
    pub fn groups(&self) -> &[ColSet] {
        &self.groups
    }

    /// `cols` widened to whole column groups — what reading `cols` costs,
    /// loads and makes resident.
    pub(crate) fn whole_groups(&self, cols: ColSet) -> ColSet {
        self.groups_of(cols)
            .fold(ColSet::EMPTY, |acc, g| acc.union(self.groups[g]))
    }

    /// The groups storing any of `cols`, each once, in column order.
    fn groups_of(&self, cols: ColSet) -> impl Iterator<Item = usize> + '_ {
        let mut rest = cols.intersect(self.columns).bits();
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let g = usize::from(self.group_of[rest.trailing_zeros() as usize]);
                rest &= !self.groups[g].bits();
                g
            })
        })
    }

    /// Where chunk `chunk`'s entries of `pages` and `offsets` start.
    fn row(&self, chunk: ChunkId) -> usize {
        chunk.as_usize() * self.groups.len()
    }

    /// Tuples in `chunk`.
    pub fn chunk_tuples(&self, chunk: ChunkId) -> u64 {
        self.chunk_tuples[chunk.as_usize()]
    }

    /// Total tuples in the table.
    pub fn total_tuples(&self) -> u64 {
        self.chunk_tuples.iter().sum()
    }

    /// Pages needed to hold the given columns of `chunk`: every group that
    /// stores one of them, whole.  An empty set costs zero pages.
    pub fn chunk_pages(&self, chunk: ChunkId, cols: ColSet) -> u64 {
        let row = self.row(chunk);
        self.groups_of(cols).map(|g| self.pages[row + g]).sum()
    }

    /// An upper bound on [`Self::chunk_pages`] of `cols` over all chunks:
    /// each group at its widest chunk, which is exact for every chunk that
    /// is not ragged (narrower in some group than that group's widest
    /// chunk).  What lets an argmax over pages stop early.
    pub fn max_chunk_pages(&self, cols: ColSet) -> u64 {
        self.groups_of(cols).map(|g| self.max_pages[g]).sum()
    }

    /// The chunks narrower in some group than that group's widest chunk
    /// (a short last chunk, or a column's chunks spanning one page or two),
    /// as words of one bit per chunk.
    pub(crate) fn ragged_words(&self) -> &[u64] {
        &self.ragged
    }

    /// Bytes needed to hold the given columns of `chunk`.
    pub fn chunk_bytes(&self, chunk: ChunkId, cols: ColSet) -> u64 {
        self.chunk_pages(chunk, cols) * self.page_size
    }

    /// Pages of the whole table for the given columns.
    pub fn total_pages(&self, cols: ColSet) -> u64 {
        (0..self.num_chunks())
            .map(|c| self.chunk_pages(ChunkId::new(c), cols))
            .sum()
    }

    /// Pages per full chunk when *all* columns are loaded (average over chunks).
    pub fn avg_chunk_pages(&self) -> f64 {
        let all = self.all_columns();
        self.total_pages(all) as f64 / self.num_chunks() as f64
    }

    /// The physical regions to read for the given columns of `chunk`: one
    /// per group storing any of them, in column order.
    pub fn chunk_regions(&self, chunk: ChunkId, cols: ColSet) -> Vec<PhysRegion> {
        let row = self.row(chunk);
        self.groups_of(cols)
            .map(|g| row + g)
            .filter(|&i| self.pages[i] > 0)
            .map(|i| PhysRegion {
                offset: self.offsets[i],
                len: self.pages[i] * self.page_size,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::{ColumnDef, ColumnType};

    fn col(i: u16) -> ColumnId {
        ColumnId::new(i)
    }

    const PAGE: u64 = 64 * 1024;

    #[test]
    fn nsm_uniform_geometry() {
        let m = TableModel::nsm_uniform(10, 1000, 256);
        assert_eq!(m.groups(), [m.all_columns()]);
        assert_eq!(m.num_chunks(), 10);
        assert_eq!(m.total_tuples(), 10_000);
        assert_eq!(m.chunk_pages(ChunkId::new(3), ColSet::empty()), 0);
        assert_eq!(m.chunk_pages(ChunkId::new(3), m.all_columns()), 256);
        assert_eq!(m.total_pages(m.all_columns()), 2560);
        assert!((m.avg_chunk_pages() - 256.0).abs() < 1e-9);
    }

    #[test]
    fn nsm_regions_are_sequential() {
        let m = TableModel::nsm_uniform(4, 100, 16);
        let mut prev_end = 0;
        for c in 0..4 {
            let regions = m.chunk_regions(ChunkId::new(c), m.all_columns());
            assert_eq!(regions.len(), 1);
            assert_eq!(regions[0].offset, prev_end);
            prev_end = regions[0].offset + regions[0].len;
        }
    }

    #[test]
    fn dsm_uniform_respects_column_sets() {
        let m = TableModel::dsm_uniform(8, 100_000, &[1, 13, 50]);
        assert_eq!(m.groups().len(), 3);
        assert_eq!(m.num_columns(), 3);
        let c = ChunkId::new(2);
        assert_eq!(m.chunk_pages(c, ColSet::empty()), 0);
        assert_eq!(m.chunk_pages(c, ColSet::from_columns([col(0)])), 1);
        assert_eq!(m.chunk_pages(c, ColSet::from_columns([col(0), col(2)])), 51);
        assert_eq!(m.chunk_pages(c, m.all_columns()), 64);
        assert_eq!(m.total_pages(ColSet::from_columns([col(1)])), 8 * 13);
    }

    #[test]
    fn a_group_is_read_whole() {
        let six = (0..6)
            .map(|c| ColumnDef::new(format!("c{c}"), ColumnType::Int64))
            .collect();
        let row = TableModel::nsm(&TableSchema::new("t", six), 1_000, PAGE, 16 * PAGE);
        let one = ColSet::from_columns([col(0)]);
        assert_eq!(row.whole_groups(one), row.all_columns());
        let wide = ColSet::from_columns([col(0), col(5)]);
        assert_eq!(row.whole_groups(wide), row.all_columns());
        assert_eq!(
            row.whole_groups(ColSet::from_columns([col(5)])),
            row.all_columns()
        );
        assert_eq!(row.whole_groups(ColSet::EMPTY), ColSet::EMPTY);
        let columns = TableModel::dsm_uniform(4, 100, &[1, 2, 3]);
        let two = ColSet::from_columns([col(0), col(2)]);
        assert_eq!(columns.whole_groups(two), two);
    }

    #[test]
    fn max_chunk_pages_bounds_every_chunk() {
        let uniform = TableModel::dsm_uniform(8, 100_000, &[1, 13, 50]);
        let cols = ColSet::from_columns([col(0), col(2)]);
        assert_eq!(
            uniform.max_chunk_pages(cols),
            51,
            "exact when chunks are alike"
        );
        assert!(uniform.ragged_words().iter().all(|&w| w == 0));
        assert_eq!(
            TableModel::nsm_uniform(4, 100, 16).max_chunk_pages(cols),
            16
        );
        // A table whose last chunk is short: the bound is the full chunks'.
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColumnType::Int64),
                ColumnDef::new("b", ColumnType::Decimal),
            ],
        );
        let ragged = TableModel::dsm(&schema, 250_000, PAGE, 100_000);
        let all = ragged.all_columns();
        let widest = (0..ragged.num_chunks())
            .map(|c| ragged.chunk_pages(ChunkId::new(c), all))
            .max()
            .unwrap();
        assert_eq!(ragged.max_chunk_pages(all), widest);
        assert!(ragged.chunk_pages(ChunkId::new(2), all) < widest);
        // ...and the short chunk is the one marked ragged.
        assert_eq!(ragged.ragged_words(), [0b100]);
        let row = TableModel::nsm(&schema, 250_000, PAGE, 16 * PAGE);
        assert_eq!(row.num_chunks(), 4);
        assert_eq!(row.ragged_words(), [0b1000]);
    }

    #[test]
    fn dsm_regions_stay_in_column_areas_and_advance() {
        let m = TableModel::dsm_uniform(4, 1000, &[2, 8]);
        let r0 = m.chunk_regions(ChunkId::new(0), m.all_columns());
        let r1 = m.chunk_regions(ChunkId::new(1), m.all_columns());
        assert_eq!(r0.len(), 2);
        // Column 0 of chunk 1 starts right after column 0 of chunk 0.
        assert_eq!(r1[0].offset, r0[0].offset + r0[0].len);
        // Column 1 area starts after the whole column 0 area (4 chunks * 2 pages).
        assert_eq!(r0[1].offset, 4 * 2 * m.page_size());
        // Requesting only column 1 yields only that region.
        let only1 = m.chunk_regions(ChunkId::new(0), ColSet::from_columns([col(1)]));
        assert_eq!(only1.len(), 1);
        assert_eq!(only1[0].len, 8 * m.page_size());
    }

    #[test]
    #[should_panic]
    fn zero_chunk_table_rejected() {
        TableModel::nsm_uniform(0, 10, 10);
    }
}
