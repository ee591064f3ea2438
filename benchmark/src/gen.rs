//! The seeded query generator.  The program under test receives only the
//! `CScanPlan`s (or, for the simulator, `QuerySpec`s) made here.

use crate::spec::Scale;
use cscan_core::sim::QuerySpec;
use cscan_core::{CScanPlan, ColSet, TableModel};
use cscan_storage::ScanRanges;
use cscan_workload::queries::table2_classes;

/// SplitMix64: small, seedable, and good enough to place scans.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, round, stream)`: independent streams,
    /// so the number of rounds a run completes never changes a plan.
    pub fn new(seed: u64, round: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x6A09_E667_F3BC_C909);
        let a = rng.next();
        rng.0 = a ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let b = rng.next();
        rng.0 = b ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below what a
    /// scan placement can show).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Size classes of the streaming workloads, as percent of the table, in
/// the order a stream cycles through them.  Three in five are half-table
/// scans, so the median query sits in the middle of one class and p95
/// inside the full-table class; with the classes equally likely both
/// percentiles would fall on the gap between two classes and jump with
/// every seed.
const STREAMING_PERCENT: [u32; 5] = [50, 100, 50, 25, 50];

/// A scan of `len` chunks at a uniformly random start.
fn placed(rng: &mut Rng, label: String, chunks: u32, len: u32) -> CScanPlan {
    let len = len.clamp(1, chunks);
    let start = rng.below((chunks - len + 1) as u64) as u32;
    CScanPlan::new(
        label,
        ScanRanges::single(start, start + len),
        ColSet::empty(),
    )
}

/// The plans stream `stream` issues in round `round` of a streaming
/// workload (`scan_plain`, `scan_compressed`, `served_loopback`: the same
/// sequence for all three).  The streams start at different points of the
/// size cycle so they do not run in lockstep.
pub fn streaming_plans(scale: &Scale, seed: u64, round: u64, stream: usize) -> Vec<CScanPlan> {
    let mut rng = Rng::new(seed, round, stream as u64);
    (0..scale.scan_queries)
        .map(|i| {
            let percent = STREAMING_PERCENT[(i + 2 * stream) % STREAMING_PERCENT.len()];
            let len = (scale.chunks * percent).div_ceil(100);
            placed(&mut rng, format!("s{stream}"), scale.chunks, len)
        })
        .collect()
}

/// The plans of `short_hot`: 2 to 6 chunks each, lengths equally likely.
pub fn short_plans(scale: &Scale, seed: u64, round: u64, stream: usize) -> Vec<CScanPlan> {
    let mut rng = Rng::new(seed, round, stream as u64);
    (0..scale.short_queries)
        .map(|_| {
            let len = 2 + rng.below(5) as u32;
            placed(&mut rng, format!("s{stream}"), scale.chunks, len)
        })
        .collect()
}

/// The streams of one `sim_mix` simulation: the paper's Table 2 classes
/// (FAST and SLOW over 1, 10, 50 and 100 % of the table) in equal numbers,
/// shuffled and placed by `seed`.  Drawing each query's class at random, as
/// `cscan_workload::build_streams` does, makes the offered load itself
/// vary by seed, and that variation (about 6 % of the median latency over
/// 24 seeds) would hide a changed policy decision.
pub fn sim_streams(scale: &Scale, model: &TableModel, seed: u64) -> Vec<Vec<QuerySpec>> {
    let classes = table2_classes();
    let total = scale.sim_streams * scale.sim_queries_per_stream;
    let mut order: Vec<_> = (0..total).map(|i| classes[i % classes.len()]).collect();
    let mut rng = Rng::new(seed, 0, 0);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let chunks = model.num_chunks();
    order
        .chunks(scale.sim_queries_per_stream)
        .map(|stream| {
            stream
                .iter()
                .map(|class| {
                    let len = class.chunks_in(model);
                    let start = rng.below((chunks - len + 1) as u64) as u32;
                    QuerySpec::range_scan(
                        class.label(),
                        ScanRanges::single(start, start + len),
                        class.speed.tuples_per_sec(),
                    )
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plans_and_other_seed_other_plans() {
        let scale = Scale::FULL;
        let a = streaming_plans(&scale, 7, 3, 1);
        assert_eq!(a, streaming_plans(&scale, 7, 3, 1));
        assert_ne!(a, streaming_plans(&scale, 8, 3, 1));
        assert_ne!(a, streaming_plans(&scale, 7, 4, 1));
        assert_eq!(a.len(), scale.scan_queries);
        let total: u32 = a
            .iter()
            .map(|p| p.ranges.as_ref().expect("explicit ranges").num_chunks())
            .sum();
        // 4 cycles of 50+100+50+25+50 % of 96 chunks.
        assert_eq!(total, 4 * (48 + 96 + 48 + 24 + 48));
    }

    #[test]
    fn short_plans_stay_inside_the_table() {
        let scale = Scale::SMOKE;
        for plan in short_plans(&scale, 1, 0, 0) {
            let ranges = plan.ranges.expect("explicit ranges");
            assert!((2..=6).contains(&ranges.num_chunks()));
            assert!(ranges.last().expect("non-empty").index() < scale.chunks);
        }
    }
}
