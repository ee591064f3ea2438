//! Filter (selection) operator.

use crate::expr::{Expr, Scratch};
use crate::ops::scan::Operator;
use crate::vector::{DataChunk, Selection};
use cscan_core::session::ScanError;
use std::sync::Arc;

/// Keeps only the rows for which a predicate evaluates to true.
///
/// The predicate writes a selection vector; the columns pass through
/// untouched and uncopied (see [`crate::vector`]).
pub struct Filter<O> {
    input: O,
    predicate: Expr,
    /// The selection buffer, shared with the batch handed out last.  A
    /// pull-model consumer has dropped that batch by the time it asks for
    /// the next one, so the buffer is unique again and is reused.
    selection: Selection,
    scratch: Scratch,
}

impl<O: Operator> Filter<O> {
    /// Creates a filter over `input`.
    pub fn new(input: O, predicate: Expr) -> Self {
        Self {
            input,
            predicate,
            selection: Selection::default(),
            scratch: Scratch::default(),
        }
    }
}

impl<O: Operator> Operator for Filter<O> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        // Skip over batches that filter down to nothing so callers see a
        // steady stream of useful data (but preserve operator termination).
        loop {
            let Some(batch) = self.input.next()? else {
                return Ok(None);
            };
            // Copies only if the consumer kept the previous batch.
            let sel = Arc::make_mut(&mut self.selection);
            let all = match batch.selection() {
                Some(input) => {
                    sel.clear();
                    sel.extend_from_slice(input);
                    false
                }
                None => true,
            };
            self.predicate.select(&batch, sel, all, &mut self.scratch);
            if sel.is_empty() {
                continue;
            }
            return Ok(Some(if sel.len() == batch.len() {
                batch
            } else {
                batch.with_selection(Arc::clone(&self.selection))
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use crate::ops::scan::ChunkSource;
    use crate::table::MemTable;

    #[test]
    fn filters_rows_and_skips_empty_batches() {
        let t = MemTable::lineitem_demo(4_000, 500);
        let qty = t.column_index("l_quantity").unwrap();
        // quantity is 1..=50; a selective predicate.
        let src = ChunkSource::in_order(&t, vec![qty]);
        let mut filter = Filter::new(src, Expr::col(0).le(Expr::lit(5)));
        let out = collect(&mut filter);
        assert!(!out.is_empty());
        assert!(out.column(0).iter().all(|&v| v <= 5));
        // Roughly 10% of rows survive (5 of 50 values).
        let frac = out.len() as f64 / 4_000.0;
        assert!(frac > 0.05 && frac < 0.2, "got {frac}");
    }

    #[test]
    fn impossible_predicate_yields_nothing() {
        let t = MemTable::lineitem_demo(1_000, 500);
        let src = ChunkSource::in_order(&t, vec![1]);
        let mut filter = Filter::new(src, Expr::col(0).lt(Expr::lit(0)));
        assert!(filter.next().unwrap().is_none());
    }
}
