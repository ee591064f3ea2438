//! Column vectors and data chunks.
//!
//! All values are 64-bit integers: dates are stored as days, decimals as
//! scaled integers, flags as dictionary codes.  This matches how the
//! scheduling-relevant parts of MonetDB/X100 treat data and keeps the
//! executor small without losing anything the experiments need.
//!
//! # Physical and logical rows
//!
//! A [`DataChunk`] holds refcounted column vectors (shared with the buffer
//! frame they were delivered in, never copied out of it) and, optionally, a
//! *selection vector*: the ascending physical row indices that are still
//! alive.  A filter only writes that vector; the columns stay as delivered.
//!
//! The rule, stated once: **everything public is logical** — [`len`],
//! [`is_empty`], [`row`], [`gather`] and equality see only the selected rows,
//! in selection order — and the one accessor that returns a raw slice,
//! [`column`], is reachable only on a dense batch (it panics on a batch that
//! carries a selection; [`compact`] makes any batch dense).  Kernels inside
//! this crate read `DataChunk::physical_column` together with
//! [`selection`], and nothing else may.
//!
//! [`len`]: DataChunk::len
//! [`is_empty`]: DataChunk::is_empty
//! [`row`]: DataChunk::row
//! [`gather`]: DataChunk::gather
//! [`column`]: DataChunk::column
//! [`compact`]: DataChunk::compact
//! [`selection`]: DataChunk::selection

use cscan_storage::chunkdata::ColumnData;
use cscan_storage::ChunkId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A single scalar value.
pub type Value = i64;

/// A shared selection vector: ascending physical row indices.
pub(crate) type Selection = Arc<Vec<u32>>;

/// A batch of rows in columnar form, tagged with the logical chunk it was
/// read from.  The chunk number travels with the data as a "virtual column"
/// so order-aware operators can reason about chunk boundaries (Section 7.2).
///
/// Cloning is a refcount bump per column.  See the module docs for the
/// physical/logical rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataChunk {
    /// The logical chunk this batch came from.
    pub chunk: ChunkId,
    /// Column vectors; all have the same (physical) length.
    columns: Vec<ColumnData>,
    /// The live physical rows, ascending; `None` means all of them.
    selection: Option<Selection>,
}

impl DataChunk {
    /// Creates a dense chunk from column vectors.
    ///
    /// # Panics
    /// Panics if the columns have differing lengths.
    pub fn new(chunk: ChunkId, columns: Vec<Vec<Value>>) -> Self {
        Self::from_shared(chunk, columns.into_iter().map(Arc::new).collect())
    }

    /// Creates a dense chunk over already shared column vectors (no copy).
    ///
    /// # Panics
    /// Panics if the columns have differing lengths, or more rows than a
    /// `u32` selection index can name.
    pub fn from_shared(chunk: ChunkId, columns: Vec<ColumnData>) -> Self {
        if let Some(first) = columns.first() {
            assert!(
                columns.iter().all(|c| c.len() == first.len()),
                "all columns of a DataChunk must have the same length"
            );
            assert!(first.len() <= u32::MAX as usize, "batch too long");
        }
        Self {
            chunk,
            columns,
            selection: None,
        }
    }

    /// Number of (selected) rows.
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.physical_len(),
        }
    }

    /// True if the chunk holds no (selected) rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// The values of column `col` of a dense batch.
    ///
    /// # Panics
    /// Panics if the column index is out of range, or if the batch carries a
    /// selection: the slice would show filtered-out rows.  [`compact`] the
    /// batch first, or read it through [`gather`] / [`row`].
    ///
    /// [`compact`]: DataChunk::compact
    /// [`gather`]: DataChunk::gather
    /// [`row`]: DataChunk::row
    pub fn column(&self, col: usize) -> &[Value] {
        assert!(
            self.selection.is_none(),
            "DataChunk::column on a batch with a selection vector; compact() it first"
        );
        &self.columns[col]
    }

    /// One full (selected) row, materialized (for tests and small results).
    pub fn row(&self, idx: usize) -> Vec<Value> {
        let physical = match &self.selection {
            Some(sel) => sel[idx] as usize,
            None => idx,
        };
        self.columns.iter().map(|c| c[physical]).collect()
    }

    /// Appends the selected values of column `col` to `out`: the logical
    /// counterpart of [`DataChunk::column`], valid on any batch.
    pub fn gather(&self, col: usize, out: &mut Vec<Value>) {
        self.gather_rows(col, self.selection(), out);
    }

    /// Appends column `col`'s values at the physical `rows` (`None` = all
    /// of them) to `out`.
    pub(crate) fn gather_rows(&self, col: usize, rows: Option<&[u32]>, out: &mut Vec<Value>) {
        let values = self.physical_column(col);
        match rows {
            Some(rows) => out.extend(rows.iter().map(|&r| values[r as usize])),
            None => out.extend_from_slice(values),
        }
    }

    /// The selection vector, if the batch carries one: ascending physical
    /// row indices.  `None` means every physical row is live.
    pub fn selection(&self) -> Option<&[u32]> {
        self.selection.as_deref().map(Vec::as_slice)
    }

    /// The same rows as a dense batch: unchanged (and uncopied) without a
    /// selection, gathered column by column with one.
    pub fn compact(self) -> DataChunk {
        if self.selection.is_none() {
            return self;
        }
        let columns = (0..self.width())
            .map(|c| {
                let mut out = Vec::with_capacity(self.len());
                self.gather(c, &mut out);
                out
            })
            .collect();
        DataChunk::new(self.chunk, columns)
    }

    /// Physical row count: the length of every column vector.
    pub(crate) fn physical_len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// All physical values of column `col`, selected or not.  For kernels
    /// that index it through [`DataChunk::selection`].
    pub(crate) fn physical_column(&self, col: usize) -> &[Value] {
        &self.columns[col]
    }

    /// Replaces the selection.  `selection` must hold ascending physical
    /// row indices of this batch.
    pub(crate) fn with_selection(mut self, selection: Selection) -> DataChunk {
        debug_assert!(selection.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(selection
            .last()
            .is_none_or(|&r| (r as usize) < self.physical_len()));
        self.selection = Some(selection);
        self
    }
}

/// Logical equality: same chunk tag, same selected rows in the same order.
impl PartialEq for DataChunk {
    fn eq(&self, other: &Self) -> bool {
        self.chunk == other.chunk
            && self.width() == other.width()
            && self.len() == other.len()
            && (0..self.len()).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for DataChunk {}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> DataChunk {
        DataChunk::new(
            ChunkId::new(3),
            vec![vec![1, 2, 3, 4], vec![10, 20, 30, 40]],
        )
    }

    #[test]
    fn construction_and_access() {
        let c = chunk();
        assert_eq!(c.len(), 4);
        assert_eq!(c.width(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.column(1), &[10, 20, 30, 40]);
        assert_eq!(c.row(2), vec![3, 30]);
        assert_eq!(c.chunk, ChunkId::new(3));
        let e = DataChunk::new(ChunkId::new(0), vec![Vec::new(); 3]);
        assert!(e.is_empty());
        assert_eq!(e.width(), 3);
    }

    #[test]
    fn a_selection_is_what_every_public_accessor_sees() {
        let c = chunk().with_selection(Arc::new(vec![0, 2]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.selection(), Some(&[0, 2][..]));
        assert_eq!(c.row(1), vec![3, 30]);
        let mut qty = vec![7];
        c.gather(1, &mut qty);
        assert_eq!(qty, vec![7, 10, 30]);
        let dense = c.clone().compact();
        assert_eq!(dense.selection(), None);
        assert_eq!(dense.column(0), &[1, 3]);
        assert_eq!(dense.column(1), &[10, 30]);
        assert_eq!(dense, c, "equality is logical");
        assert_ne!(chunk(), c);
        let none = chunk().with_selection(Arc::new(Vec::new()));
        assert!(none.is_empty());
        assert_eq!(none.compact().column(0), &[] as &[Value]);
    }

    #[test]
    fn shared_columns_are_not_copied() {
        let col: ColumnData = Arc::new(vec![5, 6]);
        let c = DataChunk::from_shared(ChunkId::new(0), vec![Arc::clone(&col)]);
        assert!(std::ptr::eq(c.column(0).as_ptr(), col.as_ptr()));
        assert!(std::ptr::eq(c.compact().column(0).as_ptr(), col.as_ptr()));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_columns_rejected() {
        DataChunk::new(ChunkId::new(0), vec![vec![1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "selection vector")]
    fn raw_slice_of_a_selected_batch_is_refused() {
        let c = chunk().with_selection(Arc::new(vec![1]));
        let _ = c.column(0);
    }
}
