//! The table model the Active Buffer Manager schedules against.
//!
//! The ABM does not care about actual bytes; it cares about *costs*: how many
//! tuples a chunk holds (CPU cost), how many pages each (chunk, column)
//! combination occupies (buffer cost) and where those pages live on disk
//! (I/O cost).  [`TableModel`] captures exactly that, pre-computed from a
//! [`cscan_storage::Layout`] so that scheduling decisions are cheap and the
//! model can also be constructed synthetically for unit tests and
//! experiments.

use crate::colset::ColSet;
use cscan_storage::{ChunkId, ColumnId, Layout, PhysRegion};
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
    /// Builds a model from an NSM layout.
    pub fn from_nsm(layout: &cscan_storage::NsmLayout) -> Self {
        let all = layout.schema().all_columns();
        let num_chunks = layout.num_chunks();
        let mut chunk_tuples = Vec::with_capacity(num_chunks as usize);
        let mut pages = Vec::with_capacity(num_chunks as usize);
        let mut nsm_offsets = Vec::with_capacity(num_chunks as usize);
        for c in 0..num_chunks {
            let chunk = ChunkId::new(c);
            chunk_tuples.push(layout.chunk_tuples(chunk));
            pages.push(vec![layout.chunk_pages(chunk, &all)]);
            let regions = layout.chunk_regions(chunk, &all);
            nsm_offsets.push(regions.first().map(|r| r.offset).unwrap_or(0));
        }
        let (min_pages, max_pages) = column_extremes(&pages);
        Self {
            kind: StorageKind::Nsm,
            page_size: layout.page_size(),
            num_columns: layout.num_columns(),
            chunk_tuples,
            min_pages,
            max_pages,
            pages,
            nsm_offsets,
            dsm_column_offsets: Vec::new(),
        }
    }

    /// Builds a model from a DSM layout.
    pub fn from_dsm(layout: &cscan_storage::DsmLayout) -> Self {
        let num_chunks = layout.num_chunks();
        let num_columns = layout.num_columns();
        let mut chunk_tuples = Vec::with_capacity(num_chunks as usize);
        let mut pages = Vec::with_capacity(num_chunks as usize);
        for c in 0..num_chunks {
            let chunk = ChunkId::new(c);
            chunk_tuples.push(layout.chunk_tuples(chunk));
            let per_col: Vec<u64> = (0..num_columns)
                .map(|col| layout.chunk_column_pages(chunk, ColumnId::new(col)))
                .collect();
            pages.push(per_col);
        }
        // Column area offsets: reconstruct from the layout's chunk regions of chunk 0.
        let all = layout.schema().all_columns();
        let regions = layout.chunk_regions(ChunkId::new(0), &all);
        let mut dsm_column_offsets: Vec<u64> = regions.iter().map(|r| r.offset).collect();
        dsm_column_offsets.resize(num_columns as usize, 0);
        let (min_pages, max_pages) = column_extremes(&pages);
        Self {
            kind: StorageKind::Dsm,
            page_size: layout.page_size(),
            num_columns,
            chunk_tuples,
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
    use cscan_storage::{ColumnDef, ColumnType, Compression, DsmLayout, NsmLayout, TableSchema};

    fn col(i: u16) -> ColumnId {
        ColumnId::new(i)
    }

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
        // A layout whose last chunk is short: the bound is the full chunks'.
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColumnType::Int64),
                ColumnDef::new("b", ColumnType::Decimal),
            ],
        );
        let ragged = TableModel::from_dsm(&DsmLayout::new(schema, 250_000, 64 * 1024, 100_000));
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
    fn from_nsm_layout_matches_layout() {
        let schema = TableSchema::new(
            "t",
            (0..8)
                .map(|i| ColumnDef::new(format!("c{i}"), ColumnType::Int64))
                .collect(),
        );
        let layout = NsmLayout::new(schema, 500_000, 64 * 1024, 4 * 1024 * 1024);
        let m = TableModel::from_nsm(&layout);
        assert_eq!(m.num_chunks(), layout.num_chunks());
        assert_eq!(m.total_tuples(), 500_000);
        use cscan_storage::Layout as _;
        let all_ids = layout.schema().all_columns();
        for c in 0..m.num_chunks() {
            let chunk = ChunkId::new(c);
            assert_eq!(
                m.chunk_pages(chunk, m.all_columns()),
                layout.chunk_pages(chunk, &all_ids)
            );
        }
    }

    #[test]
    fn from_dsm_layout_matches_layout() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::compressed(
                    "a",
                    ColumnType::Int64,
                    Compression::PforDelta {
                        bits: 4,
                        exception_rate: 0.0,
                    },
                ),
                ColumnDef::new("b", ColumnType::Decimal),
                ColumnDef::new("c", ColumnType::Varchar { avg_len: 16 }),
            ],
        );
        let layout = DsmLayout::new(schema, 1_000_000, 64 * 1024, 100_000);
        let m = TableModel::from_dsm(&layout);
        assert_eq!(m.num_chunks(), 10);
        assert!(m.is_dsm());
        for c in [0u32, 4, 9] {
            let chunk = ChunkId::new(c);
            for i in 0..3u16 {
                assert_eq!(
                    m.chunk_pages(chunk, ColSet::from_columns([col(i)])),
                    layout.chunk_column_pages(chunk, col(i)),
                    "chunk {c} column {i}"
                );
            }
        }
        assert_eq!(m.total_tuples(), 1_000_000);
    }

    #[test]
    #[should_panic]
    fn zero_chunk_table_rejected() {
        TableModel::nsm_uniform(0, 10, 10);
    }
}
