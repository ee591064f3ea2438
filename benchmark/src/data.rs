//! The table every wall-clock workload scans, and the answers to check
//! queries against.
//!
//! `MemTable::lineitem_demo` only generates the rows: each chunk is handed
//! to `SegmentWriter` and dropped, and every store a workload reads from is
//! a `FileStore` over the file written here.

use crate::spec::{Scale, FLAGS, FLAG_COL, QTY_COL, QTY_MAX};
use cscan_core::CScanPlan;
use cscan_exec::MemTable;
use cscan_storage::segment::{SegmentSummary, SegmentWriter};
use cscan_storage::{ChunkId, Compression};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// `(count, sum of l_quantity)` of the rows with `l_quantity <= QTY_MAX`,
/// per `l_returnflag`.
pub type GroupSums = [(i64, i64); FLAGS];

/// Per-chunk partial answers, so a query's expected result is a sum over
/// the chunks of its plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Oracle {
    groups: Vec<GroupSums>,
    /// Per chunk: sum of `l_quantity` plus sum of `l_returnflag`, unfiltered
    /// (what `short_hot` adds up from the pinned slices).
    plain_sums: Vec<i64>,
}

/// Adds one chunk's rows to the filtered per-flag sums.
pub fn fold_rows(into: &mut GroupSums, qty: &[i64], flag: &[i64]) {
    for (&q, &f) in qty.iter().zip(flag) {
        if q <= QTY_MAX {
            let group = &mut into[f as usize];
            group.0 += 1;
            group.1 += q;
        }
    }
}

/// What `short_hot` computes from one chunk's two pinned slices.
pub fn plain_sum(qty: &[i64], flag: &[i64]) -> i64 {
    qty.iter().sum::<i64>() + flag.iter().sum::<i64>()
}

impl Oracle {
    fn chunks_of(plan: &CScanPlan) -> impl Iterator<Item = usize> + '_ {
        plan.ranges
            .as_ref()
            .expect("the generator only makes plans with explicit ranges")
            .iter()
            .map(|c| c.index() as usize)
    }

    /// The aggregate `plan` must produce.
    pub fn expected_groups(&self, plan: &CScanPlan) -> GroupSums {
        let mut out = GroupSums::default();
        for c in Self::chunks_of(plan) {
            for (acc, part) in out.iter_mut().zip(&self.groups[c]) {
                acc.0 += part.0;
                acc.1 += part.1;
            }
        }
        out
    }

    /// The sum `short_hot` must produce for `plan`.
    pub fn expected_plain_sum(&self, plan: &CScanPlan) -> i64 {
        Self::chunks_of(plan).map(|c| self.plain_sums[c]).sum()
    }
}

/// A written segment file and what the benchmark knows about it.
pub struct Segment {
    pub summary: SegmentSummary,
    pub oracle: Oracle,
    /// Time inside `SegmentWriter` (create, every append, finish with its
    /// fsyncs), without the row generator between the appends.
    pub write_time: Duration,
}

/// Writes the demo table to `path`, plain or under the Figure 9 codec mix.
pub fn write_segment(path: &Path, scale: &Scale, compressed: bool) -> io::Result<Segment> {
    let table = MemTable::lineitem_demo(
        scale.chunks as u64 * scale.rows_per_chunk,
        scale.rows_per_chunk,
    );
    let schemes = if compressed {
        MemTable::lineitem_demo_schemes()
    } else {
        vec![Compression::None; table.width()]
    };
    let mut oracle = Oracle {
        groups: Vec::with_capacity(scale.chunks as usize),
        plain_sums: Vec::with_capacity(scale.chunks as usize),
    };
    let started = Instant::now();
    let mut writer = SegmentWriter::create(path, schemes)?;
    let mut write_time = started.elapsed();
    for c in 0..table.num_chunks() {
        let data = table.read_chunk_all(ChunkId::new(c));
        let cols: Vec<&[i64]> = (0..table.width()).map(|i| data.column(i)).collect();
        let (qty, flag) = (cols[QTY_COL as usize], cols[FLAG_COL as usize]);
        let mut groups = GroupSums::default();
        fold_rows(&mut groups, qty, flag);
        oracle.groups.push(groups);
        oracle.plain_sums.push(plain_sum(qty, flag));
        let appending = Instant::now();
        writer.append_chunk(&cols)?;
        write_time += appending.elapsed();
    }
    let finishing = Instant::now();
    let summary = writer.finish()?;
    write_time += finishing.elapsed();
    Ok(Segment {
        summary,
        oracle,
        write_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use cscan_core::ColSet;
    use cscan_storage::ScanRanges;

    #[test]
    fn oracle_is_a_range_sum_and_the_same_for_both_encodings() {
        let dir = ScratchDir::create().expect("scratch");
        let scale = Scale::SMOKE;
        let plain = write_segment(&dir.path().join("plain.seg"), &scale, false).expect("plain");
        let packed =
            write_segment(&dir.path().join("compressed.seg"), &scale, true).expect("compressed");
        assert_eq!(plain.oracle, packed.oracle);
        assert!(packed.summary.file_bytes * 2 < plain.summary.file_bytes);

        let whole = CScanPlan::new("t", ScanRanges::full(scale.chunks), ColSet::empty());
        let left = CScanPlan::new("t", ScanRanges::single(0, 3), ColSet::empty());
        let right = CScanPlan::new("t", ScanRanges::single(3, scale.chunks), ColSet::empty());
        let (w, l, r) = (
            plain.oracle.expected_groups(&whole),
            plain.oracle.expected_groups(&left),
            plain.oracle.expected_groups(&right),
        );
        for g in 0..FLAGS {
            assert!(w[g].0 > 0, "every flag occurs");
            assert_eq!(w[g].0, l[g].0 + r[g].0);
            assert_eq!(w[g].1, l[g].1 + r[g].1);
        }
        assert_eq!(
            plain.oracle.expected_plain_sum(&whole),
            plain.oracle.expected_plain_sum(&left) + plain.oracle.expected_plain_sum(&right)
        );
    }
}
