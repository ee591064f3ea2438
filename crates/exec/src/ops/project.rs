//! Projection operator.

use crate::expr::{Expr, Scratch};
use crate::ops::scan::Operator;
use crate::vector::DataChunk;
use cscan_core::session::ScanError;

/// Computes a list of expressions over every input batch.  The output is
/// dense: an input selection is applied while the expressions are evaluated.
pub struct Project<O> {
    input: O,
    exprs: Vec<Expr>,
    scratch: Scratch,
}

impl<O: Operator> Project<O> {
    /// Creates a projection computing `exprs` over `input`.
    ///
    /// # Panics
    /// Panics if the expression list is empty.
    pub fn new(input: O, exprs: Vec<Expr>) -> Self {
        assert!(
            !exprs.is_empty(),
            "a projection needs at least one expression"
        );
        Self {
            input,
            exprs,
            scratch: Scratch::default(),
        }
    }
}

impl<O: Operator> Operator for Project<O> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        let Some(chunk) = self.input.next()? else {
            return Ok(None);
        };
        let columns = self
            .exprs
            .iter()
            .map(|e| {
                let mut out = Vec::with_capacity(chunk.len());
                e.eval_into(&chunk, chunk.selection(), &mut out, &mut self.scratch);
                out
            })
            .collect();
        Ok(Some(DataChunk::new(chunk.chunk, columns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use crate::ops::scan::ChunkSource;
    use crate::table::MemTable;

    #[test]
    fn computes_expressions_per_row() {
        let t = MemTable::lineitem_demo(2_000, 500);
        let price = t.column_index("l_extendedprice").unwrap();
        let disc = t.column_index("l_discount").unwrap();
        let src = ChunkSource::in_order(&t, vec![price, disc]);
        // price * discount (discount is in hundredths).
        let mut proj = Project::new(src, vec![Expr::col(0).mul(Expr::col(1)), Expr::col(0)]);
        let out = collect(&mut proj);
        assert_eq!(out.len(), 2_000);
        assert_eq!(out.width(), 2);
        // Recompute one row by hand.
        let raw = t.read_chunk(cscan_storage::ChunkId::new(0), &[price, disc]);
        assert_eq!(out.column(0)[0], raw.column(0)[0] * raw.column(1)[0]);
    }

    #[test]
    #[should_panic(expected = "at least one expression")]
    fn empty_projection_rejected() {
        let t = MemTable::lineitem_demo(1_000, 500);
        let src = ChunkSource::in_order(&t, vec![0]);
        let _ = Project::new(src, vec![]);
    }
}
