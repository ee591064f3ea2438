//! Query operators.
//!
//! Operators follow a simple Volcano-style pull model over [`DataChunk`]s:
//! [`scan::Operator::next`] returns the next batch, `Ok(None)` at the end,
//! or the [`cscan_core::ScanError`] that killed the scan.  Because the
//! CScan underneath may deliver chunks in any order, every operator here is
//! either order-agnostic (filter, project, hash aggregation) or explicitly
//! order-aware with chunk-boundary handling (chunk-ordered aggregation, the
//! cooperative merge join) as described in Section 7 of the paper.
//!
//! A batch's life: the leaf shares the delivered column vectors and has
//! released the pin before the batch leaves it; a filter adds or narrows
//! the selection vector and moves no data; the aggregates read columns
//! through the selection.  Only the consumers that need dense rows —
//! [`Project`], [`merge_join`] and [`collect`]/[`try_collect`] — compact,
//! once, and every operator's output other than [`Filter`]'s is dense.
//! Operators keep their scratch (selection buffer, group ids, expression
//! intermediates) across batches, so steady state allocates per chunk, never
//! per row.

pub mod aggregate;
pub mod join;
pub mod project;
pub mod scan;
pub mod select;

pub use aggregate::{AggFunc, ChunkOrderedAggregate, HashAggregate};
pub use join::{merge_join, CooperativeMergeJoin};
pub use project::Project;
pub use scan::{ChunkSource, Operator, SessionSource};
pub use select::Filter;

use crate::vector::{DataChunk, Value};
use cscan_core::session::ScanError;
use cscan_storage::ChunkId;

/// Drains an operator, concatenating all its output rows into one chunk
/// (convenience for tests and small results).
///
/// # Panics
/// Panics if the pipeline fails with a [`ScanError`]; use [`try_collect`]
/// to handle scan failures.
pub fn collect(op: &mut dyn Operator) -> DataChunk {
    try_collect(op).expect("pipeline failed")
}

/// Drains an operator, concatenating all its output rows into one chunk,
/// propagating any scan failure.
pub fn try_collect(op: &mut dyn Operator) -> Result<DataChunk, ScanError> {
    let mut out: Option<(ChunkId, Vec<Vec<Value>>)> = None;
    while let Some(batch) = op.next()? {
        let (_, columns) =
            out.get_or_insert_with(|| (batch.chunk, vec![Vec::new(); batch.width()]));
        for (col, dst) in columns.iter_mut().enumerate() {
            batch.gather(col, dst);
        }
    }
    let (chunk, columns) = out.unwrap_or((ChunkId::new(0), Vec::new()));
    Ok(DataChunk::new(chunk, columns))
}
