//! Segment-format round-trip property: any table written through the
//! loader path (`write_store`) must read back *bit-identical* through
//! [`FileStore`] — plain columns value-for-value, encoded columns with the
//! exact encode-time byte stream and checksum — across full-chunk (NSM)
//! materializations and `cols: Some(subset)` DSM projections, for every
//! mix of codecs the engine supports.

use cscan_storage::chunkdata::{ChunkData, ColumnChunk};
use cscan_storage::segment::{write_store, FileStore};
use cscan_storage::{
    ChunkId, ChunkPayload, ChunkStore, ColumnId, Compression, EncodedColumn, ScratchPath,
    StoreError,
};
use proptest::prelude::*;
use std::sync::Arc;

fn arb_schemes() -> impl Strategy<Value = Vec<Compression>> {
    prop::collection::vec(
        prop_oneof![
            Just(Compression::None),
            (1u8..12).prop_map(|bits| Compression::Dictionary { bits }),
            (1u8..24).prop_map(|bits| Compression::Pfor {
                bits,
                exception_rate: 0.05
            }),
            (1u8..8).prop_map(|bits| Compression::PforDelta {
                bits,
                exception_rate: 0.05
            }),
        ],
        1..6,
    )
}

/// Deterministic values for `(chunk, col, row)` under `seed`: mostly small
/// (codec-friendly) with occasional full-width outliers, so PFOR exception
/// paths are exercised too.
fn value(seed: u64, chunk: u32, col: usize, row: usize) -> i64 {
    let mut z = seed
        .wrapping_add((chunk as u64).wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add((col as u64).wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add((row as u64).wrapping_mul(0x94D049BB133111EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    if z.is_multiple_of(61) {
        z as i64 // full-width outlier
    } else {
        (z % 1023) as i64 - 511
    }
}

/// The property's table: `width` columns of [`value`]s, chunk `c` holding
/// `rows[c % rows.len()]` rows.
struct Table {
    seed: u64,
    width: u16,
    rows: Vec<usize>,
}

impl Table {
    fn rows(&self, chunk: u32) -> usize {
        self.rows[chunk as usize % self.rows.len()]
    }

    fn column(&self, chunk: u32, col: usize) -> Vec<i64> {
        (0..self.rows(chunk))
            .map(|r| value(self.seed, chunk, col, r))
            .collect()
    }
}

impl ChunkStore for Table {
    fn materialize(
        &self,
        chunk: ChunkId,
        cols: Option<&[ColumnId]>,
    ) -> Result<ChunkPayload, StoreError> {
        let data = ChunkData::load(cols, self.width, |c| {
            let values = self.column(chunk.index(), c.as_usize());
            Ok(ColumnChunk::Plain(Arc::new(values)))
        })?;
        Ok(data.into())
    }
}

/// Asserts a materialized mini-column is bit-identical to what encoding
/// the same values under `scheme` produces: plain values, or the exact
/// encode-time bytes and checksum.
fn assert_bit_identical(got: &ColumnChunk, values: &[i64], scheme: Compression) {
    match (got, scheme) {
        (ColumnChunk::Plain(_), Compression::None) => {}
        (ColumnChunk::Compressed(g), _) if scheme != Compression::None => {
            assert_eq!(
                g.encoded(),
                &EncodedColumn::encode(values, scheme),
                "encoded bytes + checksum must round-trip exactly"
            );
        }
        _ => panic!("column came back in the wrong plain/compressed state"),
    }
    assert_eq!(got.as_slice(), values, "decoded values must round-trip");
}

proptest! {
    // Each case does real file I/O; keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segment_round_trips_bit_identically(
        schemes in arb_schemes(),
        chunks in 1u32..5,
        rows_per_chunk in prop::collection::vec(1usize..260, 1..5),
        seed in 0u64..u64::MAX,
    ) {
        let path = ScratchPath::new("seg_prop");
        let width = schemes.len();
        let table = Table { seed, width: width as u16, rows: rows_per_chunk };

        let summary = write_store(&path, &table, chunks, schemes.clone()).unwrap();
        prop_assert_eq!(summary.chunks, chunks);

        let store = FileStore::open(&path).unwrap();
        prop_assert_eq!(store.num_chunks(), chunks);
        prop_assert_eq!(store.num_columns() as usize, width);

        for c in 0..chunks {
            let chunk = ChunkId::new(c);
            prop_assert_eq!(store.chunk_rows(chunk), Some(table.rows(c) as u64));

            // Whole-chunk materialization: every column, bit-identical.
            let payload = store.materialize(chunk, None).unwrap();
            payload.verify_checksums().unwrap();
            let ChunkPayload::Data(data) = &payload else {
                panic!("a segment chunk carries data");
            };
            prop_assert_eq!(data.parts().len(), width);
            for (id, part) in data.parts() {
                assert_bit_identical(part, &table.column(c, id.as_usize()), schemes[id.as_usize()]);
            }

            // Projection of a seed-chosen strict-or-full subset: only those
            // columns come back, each bit-identical.
            let subset: Vec<ColumnId> = (0..width)
                .filter(|col| width == 1 || (seed >> (col % 48)) & 1 == 0 || *col == 0)
                .map(|col| ColumnId::new(col as u16))
                .collect();
            let payload = store.materialize(chunk, Some(&subset)).unwrap();
            payload.verify_checksums().unwrap();
            let ChunkPayload::Data(data) = &payload else {
                panic!("a segment chunk carries data");
            };
            prop_assert_eq!(data.parts().len(), subset.len());
            for (id, part) in data.parts() {
                assert_bit_identical(part, &table.column(c, id.as_usize()), schemes[id.as_usize()]);
            }
            for col in 0..width {
                let id = ColumnId::new(col as u16);
                prop_assert_eq!(
                    payload.column(id).is_some(),
                    subset.contains(&id),
                    "projection must hold exactly the requested columns"
                );
            }
        }
    }
}
