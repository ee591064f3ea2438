//! Golden geometry of the table models the experiments schedule against.
//!
//! The simulator's decisions are a function of the model, so a model that
//! moves moves every figure.  Each test pins the headline numbers a reader
//! can check by hand (chunks, tuples, pages, the first and the last chunk's
//! pages per column) and a digest of everything else the model answers:
//! every chunk's tuples, per-column pages and the regions a load reads.

use cscan_core::{ColSet, TableModel};
use cscan_storage::ChunkId;
use cscan_workload::lineitem::{lineitem_dsm_model, lineitem_nsm_model};
use cscan_workload::synthetic::synthetic_model;

/// Pages of `chunk` per column group (one entry for a row store, whose
/// group holds every column).
fn pages_per_group(m: &TableModel, chunk: u32) -> Vec<u64> {
    let chunk = ChunkId::new(chunk);
    m.groups()
        .iter()
        .map(|&group| m.chunk_pages(chunk, group))
        .collect()
}

/// FNV-1a over every public answer of the model, chunk by chunk.
fn digest(m: &TableModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(m.page_size());
    eat(m.num_columns() as u64);
    eat(m.max_chunk_pages(m.all_columns()));
    for c in 0..m.num_chunks() {
        let chunk = ChunkId::new(c);
        eat(m.chunk_tuples(chunk));
        for col in m.all_columns().iter() {
            eat(m.chunk_pages(chunk, ColSet::from_columns([col])));
        }
        for r in m.chunk_regions(chunk, m.all_columns()) {
            eat(r.offset);
            eat(r.len);
        }
    }
    h
}

/// `(chunks, tuples, pages of all columns, first chunk's pages per group,
/// last chunk's pages per group, digest)`.
fn geometry(m: &TableModel) -> (u32, u64, u64, Vec<u64>, Vec<u64>, u64) {
    (
        m.num_chunks(),
        m.total_tuples(),
        m.total_pages(m.all_columns()),
        pages_per_group(m, 0),
        pages_per_group(m, m.num_chunks() - 1),
        digest(m),
    )
}

#[test]
fn pinned_lineitem_nsm_geometry() {
    assert_eq!(
        geometry(&lineitem_nsm_model(10)),
        (
            258,
            60_000_000,
            65_935,
            vec![256],
            vec![143],
            0x52f0_e5f6_4fd2_6b10
        )
    );
}

#[test]
fn pinned_lineitem_dsm_geometry() {
    assert_eq!(
        geometry(&lineitem_dsm_model(40)),
        (
            480,
            240_000_000,
            186_175,
            vec![5, 21, 15, 31, 31, 62, 31, 31, 2, 1, 13, 13, 13, 3, 107],
            vec![5, 22, 15, 32, 32, 62, 32, 32, 3, 2, 13, 13, 13, 4, 108],
            0x1de0_05da_5204_85d0
        )
    );
}

#[test]
fn pinned_synthetic_geometry() {
    assert_eq!(
        geometry(&synthetic_model(10_000_000)),
        (
            20,
            10_000_000,
            12_400,
            vec![62; 10],
            vec![62; 10],
            0x0f7a_b5d3_0748_d374
        )
    );
}
