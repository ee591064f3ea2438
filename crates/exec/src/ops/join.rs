//! Merge joins, including the Cooperative Merge Join of Section 7.2.
//!
//! MonetDB/X100 keeps `lineitem` clustered on the physical row-id of its
//! `order` parent (a join index), so the two tables can be treated as one
//! chunked object whose logical chunk boundaries are chosen such that
//! matching tuples always fall into the same chunk.  The Cooperative Merge
//! Join exploits this: whatever order the ABM delivers chunks in, joining
//! chunk *i* of the outer table with chunk *i* of the inner table is
//! complete and correct on its own.

use crate::ops::scan::Operator;
use crate::table::MemTable;
use crate::vector::{DataChunk, Value};
use cscan_core::session::ScanError;
use cscan_storage::ChunkId;

/// Joins two key-sorted batches on equality, producing
/// `[key, left payload columns…, right payload columns…]`.
/// Handles many-to-many matches.  Inputs carrying a selection are
/// compacted first; the output is dense.
pub fn merge_join(
    left: &DataChunk,
    left_key: usize,
    right: &DataChunk,
    right_key: usize,
) -> DataChunk {
    let (left, right) = (&left.clone().compact(), &right.clone().compact());
    let lk = left.column(left_key);
    let rk = right.column(right_key);
    debug_assert!(
        lk.windows(2).all(|w| w[0] <= w[1]),
        "left input not sorted on join key"
    );
    debug_assert!(
        rk.windows(2).all(|w| w[0] <= w[1]),
        "right input not sorted on join key"
    );

    let left_payload: Vec<usize> = (0..left.width()).filter(|&c| c != left_key).collect();
    let right_payload: Vec<usize> = (0..right.width()).filter(|&c| c != right_key).collect();
    let mut out: Vec<Vec<Value>> = vec![Vec::new(); 1 + left_payload.len() + right_payload.len()];

    let (mut i, mut j) = (0usize, 0usize);
    while i < lk.len() && j < rk.len() {
        if lk[i] < rk[j] {
            i += 1;
        } else if lk[i] > rk[j] {
            j += 1;
        } else {
            let key = lk[i];
            let i_end = (i..lk.len()).find(|&x| lk[x] != key).unwrap_or(lk.len());
            let j_end = (j..rk.len()).find(|&x| rk[x] != key).unwrap_or(rk.len());
            for li in i..i_end {
                for rj in j..j_end {
                    out[0].push(key);
                    for (slot, &c) in left_payload.iter().enumerate() {
                        out[1 + slot].push(left.column(c)[li]);
                    }
                    for (slot, &c) in right_payload.iter().enumerate() {
                        out[1 + left_payload.len() + slot].push(right.column(c)[rj]);
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    DataChunk::new(left.chunk, out)
}

/// The Cooperative Merge Join: joins two chunk-aligned clustered tables in
/// whatever chunk order the Cooperative Scan delivers.
pub struct CooperativeMergeJoin<'a> {
    outer: &'a MemTable,
    inner: &'a MemTable,
    outer_cols: Vec<usize>,
    inner_cols: Vec<usize>,
    outer_key: usize,
    inner_key: usize,
    order: Vec<ChunkId>,
    position: usize,
}

impl<'a> CooperativeMergeJoin<'a> {
    /// Creates the join.
    ///
    /// * `outer_cols` / `inner_cols` — the columns to read from each side
    ///   (must include the respective key column);
    /// * `outer_key` / `inner_key` — index of the join key *within those
    ///   column lists*;
    /// * `order` — the chunk delivery order (from a CScan).
    ///
    /// # Panics
    /// Panics if the two tables do not have the same number of chunks (the
    /// multi-table clustering precondition) or a key index is out of range.
    pub fn new(
        outer: &'a MemTable,
        inner: &'a MemTable,
        outer_cols: Vec<usize>,
        outer_key: usize,
        inner_cols: Vec<usize>,
        inner_key: usize,
        order: Vec<ChunkId>,
    ) -> Self {
        assert_eq!(
            outer.num_chunks(),
            inner.num_chunks(),
            "cooperative merge join requires chunk-aligned clustered tables"
        );
        assert!(
            outer_key < outer_cols.len() && inner_key < inner_cols.len(),
            "key index out of range"
        );
        Self {
            outer,
            inner,
            outer_cols,
            inner_cols,
            outer_key,
            inner_key,
            order,
            position: 0,
        }
    }

    /// Convenience constructor joining in table order.
    pub fn in_order(
        outer: &'a MemTable,
        inner: &'a MemTable,
        outer_cols: Vec<usize>,
        outer_key: usize,
        inner_cols: Vec<usize>,
        inner_key: usize,
    ) -> Self {
        let order = (0..outer.num_chunks()).map(ChunkId::new).collect();
        Self::new(
            outer, inner, outer_cols, outer_key, inner_cols, inner_key, order,
        )
    }
}

impl Operator for CooperativeMergeJoin<'_> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        loop {
            let Some(&chunk) = self.order.get(self.position) else {
                return Ok(None);
            };
            self.position += 1;
            let outer = self.outer.read_chunk(chunk, &self.outer_cols);
            let inner = self.inner.read_chunk(chunk, &self.inner_cols);
            let joined = merge_join(&outer, self.outer_key, &inner, self.inner_key);
            if !joined.is_empty() {
                return Ok(Some(joined));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;

    #[test]
    fn merge_join_handles_many_to_many() {
        let left = DataChunk::new(
            ChunkId::new(0),
            vec![vec![1, 2, 2, 4], vec![10, 20, 21, 40]], // key, payload
        );
        let right = DataChunk::new(
            ChunkId::new(0),
            vec![vec![2, 2, 3, 4], vec![200, 201, 300, 400]], // key, payload
        );
        let out = merge_join(&left, 0, &right, 0);
        // key 2: 2x2 = 4 matches; key 4: 1 match.
        assert_eq!(out.len(), 5);
        assert_eq!(out.column(0), &[2, 2, 2, 2, 4]);
        assert_eq!(out.column(1), &[20, 20, 21, 21, 40]);
        assert_eq!(out.column(2), &[200, 201, 200, 201, 400]);
    }

    #[test]
    fn disjoint_keys_produce_nothing() {
        let left = DataChunk::new(ChunkId::new(0), vec![vec![1, 3, 5]]);
        let right = DataChunk::new(ChunkId::new(0), vec![vec![2, 4, 6]]);
        assert!(merge_join(&left, 0, &right, 0).is_empty());
    }

    #[test]
    fn cooperative_join_matches_in_order_join_for_any_delivery_order() {
        // 4 lineitems per order: 4000 lineitems over 1000 orders, chunk-aligned
        // (1000-tuple lineitem chunks vs 250-tuple order chunks).
        let lineitem = MemTable::lineitem_demo(4_000, 1_000);
        let orders = MemTable::orders_demo(1_000, 250);
        let l_cols = vec![
            lineitem.column_index("l_orderkey").unwrap(),
            lineitem.column_index("l_extendedprice").unwrap(),
        ];
        let o_cols = vec![
            orders.column_index("o_orderkey").unwrap(),
            orders.column_index("o_orderdate").unwrap(),
        ];
        let reference = {
            let mut join = CooperativeMergeJoin::in_order(
                &lineitem,
                &orders,
                l_cols.clone(),
                0,
                o_cols.clone(),
                0,
            );
            collect(&mut join)
        };
        assert_eq!(reference.len(), 4_000, "every lineitem finds its order");
        let shuffled: Vec<ChunkId> = [3u32, 0, 2, 1].iter().map(|&c| ChunkId::new(c)).collect();
        let mut join =
            CooperativeMergeJoin::new(&lineitem, &orders, l_cols, 0, o_cols, 0, shuffled);
        let out = collect(&mut join);
        assert_eq!(out.len(), reference.len());
        // Same multiset of joined rows (compare sorted row sets).
        let rows = |c: &DataChunk| {
            let mut v: Vec<Vec<i64>> = (0..c.len()).map(|i| c.row(i)).collect();
            v.sort();
            v
        };
        assert_eq!(rows(&out), rows(&reference));
    }

    #[test]
    #[should_panic(expected = "chunk-aligned")]
    fn misaligned_tables_rejected() {
        let lineitem = MemTable::lineitem_demo(4_000, 1_000);
        let orders = MemTable::orders_demo(1_000, 100);
        let _ = CooperativeMergeJoin::in_order(&lineitem, &orders, vec![0], 0, vec![0], 0);
    }
}
