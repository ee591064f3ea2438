//! The table model the Active Buffer Manager schedules against.
//!
//! The ABM does not care about actual bytes; it cares about *costs*: how many
//! tuples a chunk holds (CPU cost), how many pages each (chunk, column)
//! combination occupies (buffer cost) and where those pages live on disk
//! (I/O cost).  [`TableModel`] captures exactly that, pre-computed so that
//! scheduling decisions are cheap.  It is the one place a table's geometry
//! is worked out: [`TableModel::nsm`] and [`TableModel::dsm`] derive it from
//! a [`cscan_storage::TableSchema`] for the paper's two storage models, and
//! [`TableModel::nsm_uniform`] / [`TableModel::dsm_uniform`] state it
//! directly for unit tests, parameter sweeps and segment files.

use crate::colset::ColSet;
use cscan_storage::{ChunkId, PhysRegion, TableSchema};
use serde::{Deserialize, Serialize};

/// Whether the table is stored row-wise (NSM/PAX) or column-wise (DSM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StorageKind {
    /// NSM/PAX: chunks are all-or-nothing; the column set does not matter.
    Nsm,
    /// DSM: per-column physical sizes; chunks can be partially resident.
    Dsm,
}

/// Pre-computed physical description of one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableModel {
    kind: StorageKind,
    page_size: u64,
    num_columns: u16,
    /// Tuples per chunk.
    chunk_tuples: Vec<u64>,
    /// `[chunk][column]` page counts for DSM; `[chunk][0]` holds the full
    /// chunk page count for NSM.
    pages: Vec<Vec<u64>>,
    /// Column-wise minimum of `pages` over the chunks.
    min_pages: Vec<u64>,
    /// Column-wise maximum of `pages` over the chunks.
    max_pages: Vec<u64>,
    /// Byte offset of each chunk (NSM) for I/O placement; empty for DSM.
    nsm_offsets: Vec<u64>,
    /// Per-column area offsets (DSM) for I/O placement; empty for NSM.
    dsm_column_offsets: Vec<u64>,
}

/// `tuples` split into chunks of `per_chunk`, the last one short.
fn partition(tuples: u64, per_chunk: u64) -> Vec<u64> {
    (0..tuples.div_ceil(per_chunk))
        .map(|c| per_chunk.min(tuples - c * per_chunk))
        .collect()
}

/// The column-wise minimum and maximum of per-chunk page rows.
fn column_extremes(pages: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>) {
    let width = pages.first().map_or(0, Vec::len);
    (0..width)
        .map(|col| {
            let column = pages.iter().map(|row| row[col]);
            (column.clone().min().unwrap_or(0), column.max().unwrap_or(0))
        })
        .unzip()
}

impl TableModel {
    /// The NSM/PAX table of the paper's row-storage experiments (Section
    /// 5): `tuples` tuples of `schema`, a page holding as many whole tuples
    /// as fit at their uncompressed width, and a chunk a fixed run of
    /// `chunk_bytes / page_size` pages at byte offset `c × chunk_bytes`.
    /// The last chunk may be partial and occupies only the pages its tuples
    /// fill.
    ///
    /// # Panics
    /// Panics if `tuples` is zero, if `chunk_bytes` is not a positive
    /// multiple of `page_size`, or if a tuple does not fit in a page.
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
        let pages: Vec<Vec<u64>> = chunk_tuples
            .iter()
            .map(|t| vec![t.div_ceil(tuples_per_page)])
            .collect();
        let (min_pages, max_pages) = column_extremes(&pages);
        Self {
            kind: StorageKind::Nsm,
            page_size,
            num_columns: schema.num_columns(),
            nsm_offsets: (0..chunk_tuples.len() as u64)
                .map(|c| c * chunk_bytes)
                .collect(),
            chunk_tuples,
            min_pages,
            max_pages,
            pages,
            dsm_column_offsets: Vec::new(),
        }
    }

    /// The DSM table of the paper's column-storage experiments (Section 6):
    /// `tuples` tuples of `schema` in chunks of `chunk_tuples` tuples (the
    /// last may hold fewer), each column in its own area of values
    /// bit-packed at [`cscan_storage::ColumnDef::physical_bits`].  A chunk's
    /// pages in a column are the pages its values span, so the same chunk
    /// spans a different number of pages in each column and narrow columns
    /// share a boundary page between neighbouring chunks.  The column areas
    /// start at page-aligned cumulative offsets.
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
        let pages: Vec<Vec<u64>> = counts
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
        let dsm_column_offsets = bits
            .iter()
            .map(|&b| {
                let area = cursor;
                cursor += ((tuples as u128 * b).div_ceil(8).div_ceil(page) * page) as u64;
                area
            })
            .collect();
        let (min_pages, max_pages) = column_extremes(&pages);
        Self {
            kind: StorageKind::Dsm,
            page_size,
            num_columns: schema.num_columns(),
            chunk_tuples: counts,
            min_pages,
            max_pages,
            pages,
            nsm_offsets: Vec::new(),
            dsm_column_offsets,
        }
    }

    /// A synthetic NSM table with `num_chunks` identical chunks of
    /// `pages_per_chunk` pages and `tuples_per_chunk` tuples.  Page size is
    /// 64 KiB.  Handy for unit tests and parameter sweeps.
    pub fn nsm_uniform(num_chunks: u32, tuples_per_chunk: u64, pages_per_chunk: u64) -> Self {
        assert!(num_chunks > 0 && pages_per_chunk > 0 && tuples_per_chunk > 0);
        let page_size = cscan_storage::DEFAULT_PAGE_SIZE;
        let chunk_bytes = pages_per_chunk * page_size;
        Self {
            kind: StorageKind::Nsm,
            page_size,
            num_columns: 1,
            chunk_tuples: vec![tuples_per_chunk; num_chunks as usize],
            pages: vec![vec![pages_per_chunk]; num_chunks as usize],
            min_pages: vec![pages_per_chunk],
            max_pages: vec![pages_per_chunk],
            nsm_offsets: (0..num_chunks as u64).map(|i| i * chunk_bytes).collect(),
            dsm_column_offsets: Vec::new(),
        }
    }

    /// A synthetic DSM table with `num_chunks` chunks, `tuples_per_chunk`
    /// tuples each, and per-column page counts given by `pages_per_column`
    /// (identical for every chunk).  Page size is 64 KiB.
    pub fn dsm_uniform(num_chunks: u32, tuples_per_chunk: u64, pages_per_column: &[u64]) -> Self {
        assert!(num_chunks > 0 && tuples_per_chunk > 0 && !pages_per_column.is_empty());
        assert!(pages_per_column.len() <= ColSet::MAX_COLUMNS as usize);
        let page_size = cscan_storage::DEFAULT_PAGE_SIZE;
        let mut dsm_column_offsets = Vec::with_capacity(pages_per_column.len());
        let mut cursor = 0u64;
        for &p in pages_per_column {
            dsm_column_offsets.push(cursor);
            cursor += p * num_chunks as u64 * page_size;
        }
        Self {
            kind: StorageKind::Dsm,
            page_size,
            num_columns: pages_per_column.len() as u16,
            chunk_tuples: vec![tuples_per_chunk; num_chunks as usize],
            pages: vec![pages_per_column.to_vec(); num_chunks as usize],
            min_pages: pages_per_column.to_vec(),
            max_pages: pages_per_column.to_vec(),
            nsm_offsets: Vec::new(),
            dsm_column_offsets,
        }
    }

    /// Storage kind of the table.
    pub fn kind(&self) -> StorageKind {
        self.kind
    }

    /// True if the table is column-stored.
    pub fn is_dsm(&self) -> bool {
        self.kind == StorageKind::Dsm
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
        self.num_columns
    }

    /// The set of all columns of this table.
    pub fn all_columns(&self) -> ColSet {
        ColSet::first_n(self.num_columns)
    }

    /// Tuples in `chunk`.
    pub fn chunk_tuples(&self, chunk: ChunkId) -> u64 {
        self.chunk_tuples[chunk.as_usize()]
    }

    /// Total tuples in the table.
    pub fn total_tuples(&self) -> u64 {
        self.chunk_tuples.iter().sum()
    }

    /// Pages needed to hold the given columns of `chunk`.
    ///
    /// For NSM the column set is ignored (a chunk is all-or-nothing); an
    /// empty set costs zero pages in DSM.
    pub fn chunk_pages(&self, chunk: ChunkId, cols: ColSet) -> u64 {
        match self.kind {
            StorageKind::Nsm => self.pages[chunk.as_usize()][0],
            StorageKind::Dsm => {
                let per_col = &self.pages[chunk.as_usize()];
                cols.iter()
                    .map(|c| per_col.get(c.as_usize()).copied().unwrap_or(0))
                    .sum()
            }
        }
    }

    /// An upper bound on [`Self::chunk_pages`] of `cols` over all chunks:
    /// each column at its widest chunk (exact for a table whose chunks are
    /// alike).  What lets an argmax over pages stop early.
    pub fn max_chunk_pages(&self, cols: ColSet) -> u64 {
        match self.kind {
            StorageKind::Nsm => self.max_pages[0],
            StorageKind::Dsm => cols
                .iter()
                .map(|c| self.max_pages.get(c.as_usize()).copied().unwrap_or(0))
                .sum(),
        }
    }

    /// A lower bound on [`Self::chunk_pages`] of `cols` over all chunks:
    /// each column at its narrowest chunk, a zero-page one included (exact
    /// for a table whose chunks are alike).  What bounds a benefit per page
    /// from above before the pages are known.
    pub(crate) fn min_chunk_pages(&self, cols: ColSet) -> u64 {
        match self.kind {
            StorageKind::Nsm => self.min_pages[0],
            StorageKind::Dsm => cols
                .iter()
                .map(|c| self.min_pages.get(c.as_usize()).copied().unwrap_or(0))
                .sum(),
        }
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

    /// The physical regions to read for the given columns of `chunk`.
    ///
    /// Offsets are chosen so that sequential chunk order produces sequential
    /// disk addresses within each column area (DSM) or within the table (NSM).
    pub fn chunk_regions(&self, chunk: ChunkId, cols: ColSet) -> Vec<PhysRegion> {
        match self.kind {
            StorageKind::Nsm => {
                let len = self.chunk_bytes(chunk, cols);
                vec![PhysRegion {
                    offset: self.nsm_offsets[chunk.as_usize()],
                    len,
                }]
            }
            StorageKind::Dsm => {
                let mut out = Vec::with_capacity(cols.len() as usize);
                for col in cols.iter() {
                    let pages = self.pages[chunk.as_usize()][col.as_usize()];
                    if pages == 0 {
                        continue;
                    }
                    // Position within the column area: sum of the preceding chunks' pages.
                    let preceding: u64 = (0..chunk.index())
                        .map(|c| self.pages[c as usize][col.as_usize()])
                        .sum();
                    out.push(PhysRegion {
                        offset: self.dsm_column_offsets[col.as_usize()]
                            + preceding * self.page_size,
                        len: pages * self.page_size,
                    });
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::{ColumnDef, ColumnId, ColumnType};

    fn col(i: u16) -> ColumnId {
        ColumnId::new(i)
    }

    const PAGE: u64 = 64 * 1024;

    #[test]
    fn nsm_uniform_geometry() {
        let m = TableModel::nsm_uniform(10, 1000, 256);
        assert_eq!(m.kind(), StorageKind::Nsm);
        assert!(!m.is_dsm());
        assert_eq!(m.num_chunks(), 10);
        assert_eq!(m.total_tuples(), 10_000);
        assert_eq!(m.chunk_pages(ChunkId::new(3), ColSet::empty()), 256);
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
        assert!(m.is_dsm());
        assert_eq!(m.num_columns(), 3);
        let c = ChunkId::new(2);
        assert_eq!(m.chunk_pages(c, ColSet::empty()), 0);
        assert_eq!(m.chunk_pages(c, ColSet::from_columns([col(0)])), 1);
        assert_eq!(m.chunk_pages(c, ColSet::from_columns([col(0), col(2)])), 51);
        assert_eq!(m.chunk_pages(c, m.all_columns()), 64);
        assert_eq!(m.total_pages(ColSet::from_columns([col(1)])), 8 * 13);
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
        // ...and the lower bound is the short last chunk's.
        assert_eq!(uniform.min_chunk_pages(cols), 51);
        assert_eq!(
            ragged.min_chunk_pages(all),
            ragged.chunk_pages(ChunkId::new(2), all)
        );
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
