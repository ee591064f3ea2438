//! One payload shape: what holds for any subset of a chunk's columns.
//!
//! [`ChunkData`] is "some columns of a chunk" whether a store was asked for
//! the whole chunk or for a few columns, so partial loads can be merged in
//! any order, re-loaded, shrunk and looked up without a second code path —
//! and a fault injector tears a partial payload exactly as a whole one.

use cscan_storage::{
    ChunkData, ChunkId, ChunkPayload, ChunkStore, ColumnChunk, ColumnId, CompressingStore,
    Compression, FaultConfig, FaultInjectingStore, SeededStore, StoreError,
};
use proptest::prelude::*;
use std::sync::Arc;

fn col(i: u16) -> ColumnId {
    ColumnId::new(i)
}

fn pfor21() -> Compression {
    Compression::Pfor {
        bits: 21,
        exception_rate: 0.02,
    }
}

const WIDTH: u16 = 10;
const ROWS: i64 = 6;

/// Column `c` as load number `version` wrote it.
fn part(c: u16, version: i64, compressed: bool) -> ColumnChunk {
    let values: Vec<i64> = (0..ROWS)
        .map(|r| version * 10_000 + c as i64 * 100 + r)
        .collect();
    if compressed {
        ColumnChunk::encode(&values, pfor21())
    } else {
        ColumnChunk::Plain(Arc::new(values))
    }
}

/// Whether two mini-columns are the same allocation (so share one decode
/// cache), not merely equal.
fn same(a: &ColumnChunk, b: &ColumnChunk) -> bool {
    match (a, b) {
        (ColumnChunk::Plain(a), ColumnChunk::Plain(b)) => Arc::ptr_eq(a, b),
        (ColumnChunk::Compressed(a), ColumnChunk::Compressed(b)) => Arc::ptr_eq(a, b),
        _ => false,
    }
}

/// One flag per column.
fn masks() -> impl Strategy<Value = Vec<bool>> {
    (0u16..1 << WIDTH).prop_map(|bits| (0..WIDTH).map(|c| bits >> c & 1 == 1).collect())
}

/// The `n`-th permutation of the four partial loads.
fn permutation(mut n: usize) -> Vec<usize> {
    let mut left = vec![0, 1, 2, 3];
    let mut out = Vec::new();
    while !left.is_empty() {
        out.push(left.remove(n % left.len()));
        n /= left.len() + 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partial_payloads_merge_retain_and_look_up_like_one(
        mut present in masks(),
        always_present in 0..WIDTH as usize,
        compressed in masks(),
        decoded in masks(),
        reloaded in masks(),
        kept in masks(),
        load_of in prop::collection::vec(0usize..4, WIDTH as usize),
        order in 0usize..24,
    ) {
        present[always_present] = true;
        let ids: Vec<u16> = (0..WIDTH).filter(|&c| present[c as usize]).collect();
        let parts: Vec<(ColumnId, ColumnChunk)> = ids
            .iter()
            .map(|&c| (col(c), part(c, 0, compressed[c as usize])))
            .collect();
        // Some columns were read (so decoded) before anything merges.
        for (id, p) in &parts {
            if decoded[id.as_usize()] {
                p.ensure_decoded();
            }
        }
        let was_decoded = |c: ColumnId| {
            !compressed[c.as_usize()] || decoded[c.as_usize()]
        };
        let one_shot = ChunkData::from_parts(parts.clone());

        // Disjoint partial loads, merged in any order, are the one-shot
        // payload, sharing its vectors.
        let mut merged = ChunkPayload::Missing;
        for load in permutation(order) {
            let cols: Vec<_> = parts
                .iter()
                .filter(|(id, _)| load_of[id.as_usize()] == load)
                .cloned()
                .collect();
            if !cols.is_empty() {
                merged = merged.merged_with(&ChunkData::from_parts(cols).into());
            }
        }
        prop_assert_eq!(&merged, &ChunkPayload::from(one_shot.clone()));
        for (id, p) in &parts {
            prop_assert!(same(merged.part(*id).unwrap(), p));
        }

        // `part` answers alike whether a column sits at the index of its id
        // (a dense payload) or anywhere else (a sparse one).
        let dense = ChunkData::from_parts((0..WIDTH).map(|c| {
            let filler = || part(c, 0, false);
            (col(c), one_shot.part(col(c)).cloned().unwrap_or_else(filler))
        }).collect());
        for c in 0..WIDTH + 2 {
            let sparse = one_shot.part(col(c));
            prop_assert_eq!(sparse.is_some(), c < WIDTH && present[c as usize]);
            prop_assert_eq!(dense.part(col(c)).is_some(), c < WIDTH);
            if let Some(sparse) = sparse {
                prop_assert!(same(sparse, dense.part(col(c)).unwrap()));
            }
        }

        // A re-load of resident columns wins them and touches no other.
        let again: Vec<(ColumnId, ColumnChunk)> = ids
            .iter()
            .filter(|&&c| reloaded[c as usize])
            .map(|&c| (col(c), part(c, 1, compressed[c as usize])))
            .collect();
        let after = if again.is_empty() {
            merged.clone()
        } else {
            merged.merged_with(&ChunkData::from_parts(again.clone()).into())
        };
        for (id, old) in &parts {
            let now = after.part(*id).unwrap();
            match again.iter().find(|(a, _)| a == id) {
                Some((_, new)) => prop_assert!(same(now, new)),
                None => prop_assert!(same(now, old)),
            }
        }

        // Dropping dead columns after the merge keeps every survivor's
        // allocation, hence its decode state.
        let ChunkPayload::Data(after) = &after else {
            panic!("a merge of data carries data");
        };
        let survivors = after.retained(|c| kept[c.as_usize()]);
        let expected: Vec<ColumnId> = ids
            .iter()
            .map(|&c| col(c))
            .filter(|c| kept[c.as_usize()])
            .collect();
        match survivors {
            None => prop_assert!(expected.is_empty()),
            Some(survivors) => {
                prop_assert_eq!(survivors.column_ids().collect::<Vec<_>>(), expected);
                for (id, p) in survivors.parts() {
                    prop_assert!(same(p, after.part(*id).unwrap()));
                    if !reloaded[id.as_usize()] {
                        prop_assert_eq!(p.is_decoded(), was_decoded(*id));
                    }
                }
            }
        }
    }
}

/// A partial payload is torn exactly as a whole one: the flip lands in the
/// lowest-numbered compressed column present, at the same byte, and nowhere
/// else.
#[test]
fn corruption_tears_the_first_compressed_column_of_any_payload() {
    let pfor = pfor21();
    let chunk = ChunkId::new(1);
    // Column 0 plain, 1 and 2 compressed.  A fresh store per read, so
    // every read is attempt 0 and rolls the same selector.
    let read = |cols: Option<&[ColumnId]>| {
        let cfg = FaultConfig {
            corruption_rate: 1.0,
            ..FaultConfig::default()
        };
        let inner = CompressingStore::new(
            SeededStore::new(64, 3, 7),
            vec![Compression::None, pfor, pfor],
        );
        let store = FaultInjectingStore::new(inner, cfg);
        let payload = store.materialize(chunk, cols).unwrap();
        assert_eq!(store.corruptions_injected(), 1);
        payload
    };
    let encoded = |payload: &ChunkPayload, c: u16| match payload.part(col(c)) {
        Some(ColumnChunk::Compressed(lazy)) => lazy.encoded().clone(),
        other => panic!("column {c} should be present and compressed: {other:?}"),
    };

    let whole = read(None);
    assert!(!encoded(&whole, 1).verify_checksum(), "column 1 is torn");
    assert!(encoded(&whole, 2).verify_checksum(), "column 2 is not");
    // The same columns asked for by name, in any order: the same tear.
    for cols in [&[col(0), col(1), col(2)][..], &[col(2), col(1)], &[col(1)]] {
        let partial = read(Some(cols));
        assert_eq!(encoded(&partial, 1), encoded(&whole, 1), "{cols:?}");
        assert_eq!(partial.verify_checksums(), Err(StoreError::Corrupted));
        if cols.contains(&col(2)) {
            assert_eq!(encoded(&partial, 2), encoded(&whole, 2), "{cols:?}");
        }
    }
    // Without column 1, column 2 is the first compressed one.
    let partial = read(Some(&[col(2), col(0)]));
    assert!(!encoded(&partial, 2).verify_checksum());
    assert!(partial.part(col(0)).unwrap().verify_checksum().is_ok());
}
