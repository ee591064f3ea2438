//! In-memory chunked tables.
//!
//! The reproduction does not ship 4 GB of TPC-H data; instead a [`MemTable`]
//! generates each chunk's column values deterministically from the chunk
//! number, which is exactly what an operator sitting on top of a CScan needs:
//! given a delivered chunk id, hand me that chunk's data.

use crate::vector::{DataChunk, Value};
use cscan_storage::chunkdata::{ChunkData, ChunkPayload, ChunkStore, ColumnChunk};
use cscan_storage::{ChunkId, ColumnId, Compression, StoreError};
use std::sync::Arc;

/// A generator producing the values of one column for a given range of row ids.
pub type ColumnGen = Arc<dyn Fn(u64) -> Value + Send + Sync>;

/// An in-memory chunked table whose data is produced by per-column generators.
#[derive(Clone)]
pub struct MemTable {
    names: Vec<String>,
    generators: Vec<ColumnGen>,
    tuples_per_chunk: u64,
    num_tuples: u64,
}

impl std::fmt::Debug for MemTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemTable")
            .field("columns", &self.names)
            .field("tuples_per_chunk", &self.tuples_per_chunk)
            .field("num_tuples", &self.num_tuples)
            .finish()
    }
}

impl MemTable {
    /// Creates a table from `(name, generator)` pairs.
    ///
    /// # Panics
    /// Panics if no columns are given or the geometry is degenerate.
    pub fn new(columns: Vec<(String, ColumnGen)>, num_tuples: u64, tuples_per_chunk: u64) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        assert!(
            num_tuples > 0 && tuples_per_chunk > 0,
            "degenerate table geometry"
        );
        let (names, generators) = columns.into_iter().unzip();
        Self {
            names,
            generators,
            tuples_per_chunk,
            num_tuples,
        }
    }

    /// Index of the column named `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Total number of tuples.
    pub fn num_tuples(&self) -> u64 {
        self.num_tuples
    }

    /// Number of logical chunks.
    pub fn num_chunks(&self) -> u32 {
        self.num_tuples.div_ceil(self.tuples_per_chunk) as u32
    }

    /// The row-id range `[start, end)` of `chunk`.
    pub fn chunk_rows(&self, chunk: ChunkId) -> (u64, u64) {
        let start = chunk.index() as u64 * self.tuples_per_chunk;
        let end = (start + self.tuples_per_chunk).min(self.num_tuples);
        (start, end)
    }

    /// Materializes the given columns of `chunk`.
    ///
    /// # Panics
    /// Panics if the chunk is out of range or a column index is invalid.
    pub fn read_chunk(&self, chunk: ChunkId, columns: &[usize]) -> DataChunk {
        assert!(
            chunk.index() < self.num_chunks(),
            "chunk {chunk:?} out of range"
        );
        let (start, end) = self.chunk_rows(chunk);
        let data = columns
            .iter()
            .map(|&c| {
                let gen = &self.generators[c];
                (start..end).map(|row| gen(row)).collect::<Vec<Value>>()
            })
            .collect();
        DataChunk::new(chunk, data)
    }

    /// Materializes all columns of `chunk`.
    pub fn read_chunk_all(&self, chunk: ChunkId) -> DataChunk {
        let all: Vec<usize> = (0..self.width()).collect();
        self.read_chunk(chunk, &all)
    }

    /// A small `lineitem`-flavoured table clustered on `l_orderkey`, with the
    /// columns used by the example queries:
    /// `l_orderkey`, `l_quantity`, `l_extendedprice`, `l_discount`,
    /// `l_shipdate`, `l_returnflag`.
    ///
    /// Values are deterministic functions of the row id, so any two reads of
    /// the same chunk agree and results are reproducible.
    pub fn lineitem_demo(num_tuples: u64, tuples_per_chunk: u64) -> Self {
        fn mix(row: u64, salt: u64) -> u64 {
            // SplitMix64: cheap, deterministic pseudo-random values.
            let mut z = row.wrapping_add(salt).wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        let columns: Vec<(String, ColumnGen)> = vec![
            // Clustered key: roughly 4 lineitems per order.
            ("l_orderkey".into(), Arc::new(|row| (row / 4) as Value)),
            (
                "l_quantity".into(),
                Arc::new(|row| (mix(row, 1) % 50 + 1) as Value),
            ),
            (
                "l_extendedprice".into(),
                Arc::new(|row| (mix(row, 2) % 100_000 + 1_000) as Value),
            ),
            // Discount in hundredths: 0..=10 (i.e. 0.00 to 0.10).
            (
                "l_discount".into(),
                Arc::new(|row| (mix(row, 3) % 11) as Value),
            ),
            // Ship date as days since 1992-01-01, spanning ~7 years,
            // correlated with the order key (later orders ship later).
            (
                "l_shipdate".into(),
                Arc::new(move |row| ((row / 4) % 2500 + mix(row, 4) % 60) as Value),
            ),
            // Return flag dictionary code: 0=A, 1=N, 2=R.
            (
                "l_returnflag".into(),
                Arc::new(|row| (mix(row, 5) % 3) as Value),
            ),
        ];
        Self::new(columns, num_tuples, tuples_per_chunk)
    }

    /// Per-column [`Compression`] schemes matched to the
    /// [`MemTable::lineitem_demo`] data — the Figure 9 configuration: the
    /// clustered `l_orderkey` under PFOR-DELTA, the small-domain columns
    /// (`l_quantity`, `l_discount`, `l_returnflag`) under PDICT, and the
    /// wider numeric columns under PFOR.  Wrap the table in a
    /// [`cscan_storage::CompressingStore`] with these schemes to serve its
    /// chunks compressed.
    pub fn lineitem_demo_schemes() -> Vec<Compression> {
        vec![
            Compression::PforDelta {
                bits: 3,
                exception_rate: 0.02,
            },
            Compression::Dictionary { bits: 6 },
            Compression::Pfor {
                bits: 17,
                exception_rate: 0.02,
            },
            Compression::Dictionary { bits: 4 },
            Compression::Pfor {
                bits: 12,
                exception_rate: 0.02,
            },
            Compression::Dictionary { bits: 2 },
        ]
    }

    /// Generates one column of `chunk` as a shareable vector.
    fn column_data(&self, chunk: ChunkId, col: usize) -> Arc<Vec<Value>> {
        let (start, end) = self.chunk_rows(chunk);
        let gen = &self.generators[col];
        Arc::new((start..end).map(|row| gen(row)).collect())
    }

    /// A small `orders`-flavoured table clustered on `o_orderkey`, aligned
    /// with [`MemTable::lineitem_demo`] through the shared key (used by the
    /// cooperative merge join example).
    pub fn orders_demo(num_orders: u64, orders_per_chunk: u64) -> Self {
        let columns: Vec<(String, ColumnGen)> = vec![
            ("o_orderkey".into(), Arc::new(|row| row as Value)),
            ("o_custkey".into(), Arc::new(|row| (row % 15_000) as Value)),
            ("o_orderdate".into(), Arc::new(|row| (row % 2500) as Value)),
        ];
        Self::new(columns, num_orders, orders_per_chunk)
    }
}

/// A [`MemTable`] is a [`ChunkStore`]: the threaded `ScanServer`'s I/O
/// workers call [`ChunkStore::materialize`] (outside the ABM lock) to fill
/// delivered chunks with this table's deterministic data — which makes the
/// table both the live data source *and* the differential-test baseline.
impl ChunkStore for MemTable {
    fn materialize(
        &self,
        chunk: ChunkId,
        cols: Option<&[ColumnId]>,
    ) -> Result<ChunkPayload, StoreError> {
        assert!(
            chunk.index() < self.num_chunks(),
            "chunk {chunk:?} out of range"
        );
        let data = ChunkData::load(cols, self.width() as u16, |c| {
            assert!(c.as_usize() < self.width(), "column {c:?} out of range");
            Ok(ColumnChunk::Plain(self.column_data(chunk, c.as_usize())))
        })?;
        Ok(data.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let t = MemTable::lineitem_demo(10_000, 1_000);
        assert_eq!(t.num_chunks(), 10);
        assert_eq!(t.width(), 6);
        assert_eq!(t.num_tuples(), 10_000);
        assert_eq!(t.chunk_rows(ChunkId::new(0)), (0, 1000));
        assert_eq!(t.chunk_rows(ChunkId::new(9)), (9000, 10_000));
        let t2 = MemTable::lineitem_demo(10_500, 1_000);
        assert_eq!(t2.num_chunks(), 11);
        assert_eq!(t2.chunk_rows(ChunkId::new(10)), (10_000, 10_500));
    }

    #[test]
    fn reads_are_deterministic_and_named() {
        let t = MemTable::lineitem_demo(5_000, 500);
        let a = t.read_chunk_all(ChunkId::new(3));
        let b = t.read_chunk_all(ChunkId::new(3));
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert_eq!(t.column_index("l_discount"), Some(3));
        assert_eq!(t.column_index("nope"), None);
        let proj = t.read_chunk(ChunkId::new(3), &[0, 4]);
        assert_eq!(proj.width(), 2);
        assert_eq!(proj.column(0), a.column(0));
        assert_eq!(proj.column(1), a.column(4));
    }

    #[test]
    fn lineitem_demo_is_clustered_on_orderkey() {
        let t = MemTable::lineitem_demo(8_000, 1_000);
        let key = t.column_index("l_orderkey").unwrap();
        let mut last = i64::MIN;
        for c in 0..t.num_chunks() {
            let chunk = t.read_chunk(ChunkId::new(c), &[key]);
            for &v in chunk.column(0) {
                assert!(v >= last, "orderkey must be non-decreasing");
                last = v;
            }
        }
    }

    #[test]
    fn value_ranges_are_sane() {
        let t = MemTable::lineitem_demo(2_000, 500);
        let c = t.read_chunk_all(ChunkId::new(1));
        let qty = t.column_index("l_quantity").unwrap();
        let disc = t.column_index("l_discount").unwrap();
        let flag = t.column_index("l_returnflag").unwrap();
        assert!(c.column(qty).iter().all(|&v| (1..=50).contains(&v)));
        assert!(c.column(disc).iter().all(|&v| (0..=10).contains(&v)));
        assert!(c.column(flag).iter().all(|&v| (0..=2).contains(&v)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_chunk_panics() {
        MemTable::lineitem_demo(1_000, 500).read_chunk_all(ChunkId::new(2));
    }

    #[test]
    fn orders_demo_aligns_with_lineitem() {
        let orders = MemTable::orders_demo(1_000, 250);
        let lineitem = MemTable::lineitem_demo(4_000, 1_000);
        // Chunk i of orders covers the same orderkey range as chunk i of
        // lineitem (4 lineitems per order, 4x the chunk size).
        let o = orders.read_chunk(ChunkId::new(2), &[0]);
        let l = lineitem.read_chunk(ChunkId::new(2), &[0]);
        assert_eq!(o.column(0).first(), l.column(0).first());
        assert_eq!(o.column(0).last(), l.column(0).last());
    }
}
