//! Property-based tests for scan plans.

use cscan_storage::{ChunkId, ChunkRange, ScanRanges};
use proptest::prelude::*;

proptest! {
    /// ScanRanges normalization: ranges are sorted, disjoint, non-empty and
    /// `contains` agrees with the materialized chunk list.
    #[test]
    fn scan_ranges_are_normalized(ranges in prop::collection::vec((0u32..300, 0u32..60), 0..20)) {
        let scan = ScanRanges::from_ranges(
            ranges.iter().map(|&(start, len)| ChunkRange::new(start, start + len)),
        );
        let rs = scan.ranges();
        for w in rs.windows(2) {
            prop_assert!(w[0].end < w[1].start, "sorted and disjoint with gaps");
        }
        prop_assert!(rs.iter().all(|r| !r.is_empty()));
        let chunks = scan.chunks();
        prop_assert_eq!(chunks.len() as u32, scan.num_chunks());
        for c in 0..400u32 {
            let id = ChunkId::new(c);
            prop_assert_eq!(scan.contains(id), chunks.contains(&id));
        }
    }

    /// Overlap is symmetric and bounded by the smaller scan.
    #[test]
    fn scan_overlap_symmetric(
        a in prop::collection::vec(0u32..200, 0..100),
        b in prop::collection::vec(0u32..200, 0..100),
    ) {
        let sa = ScanRanges::from_chunk_indices(a);
        let sb = ScanRanges::from_chunk_indices(b);
        let o1 = sa.overlap(&sb);
        let o2 = sb.overlap(&sa);
        prop_assert_eq!(o1, o2);
        prop_assert!(o1 <= sa.num_chunks().min(sb.num_chunks()));
    }

    /// `next_from` always returns a chunk the scan needs, for any position.
    #[test]
    fn next_from_returns_needed_chunk(
        indices in prop::collection::vec(0u32..100, 1..50),
        pos in 0u32..150,
    ) {
        let scan = ScanRanges::from_chunk_indices(indices);
        let next = scan.next_from(ChunkId::new(pos));
        prop_assert!(next.is_some());
        prop_assert!(scan.contains(next.unwrap()));
    }
}
