//! Chunk sources: the leaf operators.
//!
//! Two leaves feed the operator tree:
//!
//! * [`SessionSource`] — the *live* leaf: any [`ScanSession`] (a threaded
//!   `ScanServer` handle with real pinned payloads, or a wrapper around
//!   one) is a chunk source.  Chunks arrive in ABM-chosen order with
//!   their data pinned; the leaf takes a reference on each requested
//!   column vector (a refcount bump, no copy), completes the pin — the
//!   moment eviction becomes legal again — and only then hands the batch
//!   up.  A slow operator tree therefore holds heap bytes, never a buffer
//!   frame; an evicted frame's vectors live until the last batch over
//!   them is dropped.
//! * [`ChunkSource`] — the in-memory baseline: replays a [`MemTable`] in an
//!   explicit delivery order.  The differential tests drive both leaves
//!   through identical operator trees and require bit-identical results.

use crate::table::MemTable;
use crate::vector::DataChunk;
use cscan_core::session::{ScanError, ScanSession};
use cscan_obs::{Counter, Registry};
use cscan_storage::{ChunkId, ColumnId};
use std::sync::Arc;

/// A pull-based operator producing data chunks.
///
/// `Err` means the underlying scan failed permanently (a chunk became
/// unreadable and was quarantined): the error propagates up the operator
/// tree unchanged, and the tree must not be pulled again afterwards.
/// Purely in-memory operators never fail.
pub trait Operator {
    /// Returns the next batch, `Ok(None)` when exhausted, or the scan
    /// error that killed the pipeline.
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError>;

    /// [`Operator::next`] for a consumer that folds a column range as a
    /// mask: the operator may hand over a dense batch and put in
    /// `deferred` the range its rows still have to pass.  Nothing outside
    /// this crate can build a [`Deferred`], so only its operators call or
    /// override this; every other reader sees logical rows only.
    #[doc(hidden)]
    fn next_deferring(&mut self, _deferred: &mut Deferred) -> Result<Option<DataChunk>, ScanError> {
        self.next()
    }
}

mod sealed {
    use crate::expr::ColumnRange;

    /// The range a [`Filter`](crate::Filter) left for its consumer to
    /// fold; `None` if the batch's rows are all its rows.
    #[derive(Debug, Default)]
    pub struct Deferred(pub(crate) Option<ColumnRange>);
}
pub(crate) use sealed::Deferred;

/// The live leaf operator: adapts any [`ScanSession`] into an [`Operator`],
/// so a scan → filter → aggregate pipeline runs end-to-end over a live
/// `ScanServer` in whatever order the ABM delivers.
///
/// `columns` selects (and orders) the payload columns that become the
/// output [`DataChunk`]'s columns: output column `i` is table column
/// `columns[i]`.
pub struct SessionSource<S> {
    session: S,
    columns: Vec<ColumnId>,
    /// Delivery order observed so far (chunk ids in arrival order).
    delivered: Vec<ChunkId>,
    /// Observability mirror (`exec_batches`, `exec_rows`); disabled (a
    /// no-op) unless installed via [`SessionSource::with_observability`].
    obs: Arc<Registry>,
}

impl<S: ScanSession> SessionSource<S> {
    /// Creates a source reading `columns` from `session`'s deliveries.
    ///
    /// # Panics
    /// Panics if `columns` is empty.
    pub fn new(session: S, columns: Vec<ColumnId>) -> Self {
        assert!(!columns.is_empty(), "a session source needs columns");
        Self {
            session,
            columns,
            delivered: Vec::new(),
            obs: Arc::new(Registry::disabled()),
        }
    }

    /// Counts every produced batch and its rows (`exec_batches`,
    /// `exec_rows`) in `obs` — typically the owning server's registry, so
    /// operator output lands in the same snapshot as the scan metrics.
    pub fn with_observability(mut self, obs: Arc<Registry>) -> Self {
        self.obs = obs;
        self
    }

    /// The chunk ids delivered so far, in arrival order (the ABM's choice —
    /// generally *not* table order).
    pub fn delivery_order(&self) -> &[ChunkId] {
        &self.delivered
    }

    /// Detaches the underlying session (mid-pipeline cancellation: frees
    /// frame pins and aborts loads in flight solely for this scan).
    pub fn detach(&mut self) {
        self.session.detach();
    }
}

impl<S: ScanSession> Operator for SessionSource<S> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        let Some(pinned) = self.session.next_chunk()? else {
            return Ok(None);
        };
        self.delivered.push(pinned.chunk());
        // A column decodes here, at its first touch; one that cannot be
        // decoded ends the scan.  Either way the pin was consumed.
        let columns: Result<Vec<_>, ScanError> = self
            .columns
            .iter()
            .map(|&c| {
                Ok(pinned.try_shared_column(c)?.unwrap_or_else(|| {
                    panic!(
                        "delivered {:?} carries no data for column {c:?} — \
                         was the server built with a store covering the scan's columns?",
                        pinned.chunk()
                    )
                }))
            })
            .collect();
        let chunk = pinned.chunk();
        pinned.complete();
        let out = DataChunk::from_shared(chunk, columns?);
        self.obs.inc(Counter::ExecBatches);
        self.obs.add(Counter::ExecRows, out.len() as u64);
        Ok(Some(out))
    }
}

/// A leaf operator that materializes table chunks in a given delivery order.
///
/// The delivery order is exactly what a CScan hands back: under the
/// `relevance` policy it is usually *not* the table order.  Plugging the
/// order produced by a simulated or threaded CScan into a `ChunkSource`
/// turns a scheduling decision into actual query results.
pub struct ChunkSource<'a> {
    table: &'a MemTable,
    columns: Vec<usize>,
    order: Vec<ChunkId>,
    position: usize,
}

impl<'a> ChunkSource<'a> {
    /// Creates a source over `table` projecting `columns`, delivering chunks
    /// in `order`.
    ///
    /// # Panics
    /// Panics if any column index is out of range.
    pub fn new(table: &'a MemTable, columns: Vec<usize>, order: Vec<ChunkId>) -> Self {
        assert!(
            columns.iter().all(|&c| c < table.width()),
            "column index out of range"
        );
        Self {
            table,
            columns,
            order,
            position: 0,
        }
    }

    /// A source delivering chunks in table order (like a traditional Scan).
    pub fn in_order(table: &'a MemTable, columns: Vec<usize>) -> Self {
        let order = (0..table.num_chunks()).map(ChunkId::new).collect();
        Self::new(table, columns, order)
    }

    /// A source resolving column names instead of indices.
    ///
    /// # Panics
    /// Panics if a name is unknown.
    pub fn with_names(table: &'a MemTable, names: &[&str], order: Vec<ChunkId>) -> Self {
        let columns = names
            .iter()
            .map(|n| {
                table
                    .column_index(n)
                    .unwrap_or_else(|| panic!("unknown column {n:?}"))
            })
            .collect();
        Self::new(table, columns, order)
    }

    /// Number of chunks this source will deliver.
    pub fn num_chunks(&self) -> usize {
        self.order.len()
    }
}

impl Operator for ChunkSource<'_> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        let Some(&chunk) = self.order.get(self.position) else {
            return Ok(None);
        };
        self.position += 1;
        Ok(Some(self.table.read_chunk(chunk, &self.columns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivers_everything_once() {
        let t = MemTable::lineitem_demo(4_000, 1_000);
        let mut src = ChunkSource::in_order(&t, vec![0, 1]);
        assert_eq!(src.num_chunks(), 4);
        let mut rows = 0;
        let mut seen = Vec::new();
        while let Some(c) = src.next().unwrap() {
            rows += c.len();
            seen.push(c.chunk.index());
            assert_eq!(c.width(), 2);
        }
        assert_eq!(rows, 4_000);
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn custom_order_is_respected() {
        let t = MemTable::lineitem_demo(4_000, 1_000);
        let order = vec![ChunkId::new(2), ChunkId::new(0), ChunkId::new(3)];
        let mut src = ChunkSource::with_names(&t, &["l_orderkey"], order);
        let delivered: Vec<u32> =
            std::iter::from_fn(|| src.next().unwrap().map(|c| c.chunk.index())).collect();
        assert_eq!(delivered, vec![2, 0, 3]);
    }

    /// A column whose checksum-valid bytes the codec cannot decode ends the
    /// pipeline with the scan's error — not with a panic in the leaf — and
    /// the pin that delivered it still counts as consumed.
    #[test]
    fn undecodable_column_is_a_scan_error_not_a_panic() {
        use cscan_core::policy::PolicyKind;
        use cscan_core::threaded::ScanServer;
        use cscan_core::{CScanPlan, ColSet, TableModel};
        use cscan_storage::codec::EncodedColumn;
        use cscan_storage::{
            ChunkData, ChunkPayload, ChunkStore, ColumnChunk, Compression, LazyColumn, ScanRanges,
            StoreError,
        };

        /// One chunk, one column, its body cut short under a checksum that
        /// matches the cut.
        struct CutShort;
        impl ChunkStore for CutShort {
            fn materialize(
                &self,
                _chunk: ChunkId,
                _cols: Option<&[ColumnId]>,
            ) -> Result<ChunkPayload, StoreError> {
                let column = EncodedColumn::encode(&[7; 10], Compression::Dictionary { bits: 1 })
                    .truncated();
                Ok(ChunkData::from_parts(vec![(
                    ColumnId::new(0),
                    ColumnChunk::Compressed(Arc::new(LazyColumn::new(column))),
                )])
                .into())
            }
        }
        let server = ScanServer::builder(TableModel::nsm_uniform(1, 10, 16))
            .policy(PolicyKind::Relevance)
            .buffer_chunks(1)
            .io_cost_per_page(std::time::Duration::ZERO)
            .store(Arc::new(CutShort))
            .build();
        let handle = server.cscan(CScanPlan::new("bad", ScanRanges::full(1), ColSet::empty()));
        let mut source = SessionSource::new(handle, vec![ColumnId::new(0)]);
        let error = source.next().expect_err("the column cannot be decoded");
        assert_eq!(error.chunk, ChunkId::new(0));
        assert_eq!(error.cause, StoreError::Corrupted);
        assert_eq!(source.next().expect_err("sticky"), error);
        assert_eq!(server.metrics().counter(Counter::WorkerPanics), 1);
        assert_eq!(server.pinned_frames(), 0);
        assert_eq!(server.metrics().counter(Counter::UnconsumedDrops), 0);
    }

    /// The leaf holds no buffer frame between batches: each pin completes
    /// before its batch goes up, however long the caller keeps the batch.
    /// The one frame the scan may pin meanwhile is its next chunk's grant,
    /// which the core deposits as soon as the chunk is resident.
    #[test]
    fn a_session_source_holds_no_frame_between_batches() {
        use cscan_core::policy::PolicyKind;
        use cscan_core::threaded::ScanServer;
        use cscan_core::{CScanPlan, ColSet, TableModel};
        use cscan_storage::ScanRanges;

        let table = MemTable::lineitem_demo(4_000, 1_000);
        let server = ScanServer::builder(TableModel::nsm_uniform(4, 1_000, 16))
            .policy(PolicyKind::Relevance)
            .buffer_chunks(4)
            .io_cost_per_page(std::time::Duration::ZERO)
            .store(Arc::new(table))
            .build();
        let plan = CScanPlan::new("q", ScanRanges::full(4), ColSet::empty());
        let mut source = SessionSource::new(server.cscan(plan), vec![ColumnId::new(0)]);
        let mut held = Vec::new();
        while let Some(batch) = source.next().expect("fault-free scan") {
            held.push(batch);
            assert!(server.pinned_frames() <= 1, "a frame is pinned across next");
        }
        assert_eq!(held.len(), 4);
        assert_eq!(server.pinned_frames(), 0, "a held batch pins its frame");
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn unknown_name_panics() {
        let t = MemTable::lineitem_demo(1_000, 500);
        ChunkSource::with_names(&t, &["nope"], vec![]);
    }
}
