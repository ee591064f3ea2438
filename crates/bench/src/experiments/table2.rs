//! Table 2: row-storage (NSM/PAX) policy comparison.
//!
//! 16 streams of 4 queries drawn from FAST/SLOW × {1, 10, 50, 100} %, TPC-H
//! SF-10 `lineitem`, 16 MB chunks, a 1 GB (64-chunk) buffer pool and a 3 s
//! stream stagger.  Reported per policy: average stream time, average
//! normalized latency, total time, CPU use and the number of I/O requests,
//! plus per-query-class latency and I/O breakdowns.

use crate::harness::{base_times, compare_policies, PolicyComparison, Scale};
use cscan_core::sim::SimConfig;
use cscan_workload::lineitem::lineitem_nsm_model;
use cscan_workload::queries::table2_classes;
use cscan_workload::streams::{build_streams, StreamSetup};
use std::collections::HashMap;

/// The Table 2 experiment output.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Per-policy summary and per-query detail.
    pub comparison: PolicyComparison,
    /// Standalone cold times per query class label.
    pub base_times: HashMap<String, f64>,
}

/// The simulation configuration used by Table 2 at the given scale.
pub fn config(scale: Scale) -> SimConfig {
    SimConfig::default()
        .with_buffer_chunks(scale.nsm_buffer_chunks())
        .with_stagger(scale.stagger())
}

/// Runs the Table 2 experiment.
pub fn run(scale: Scale, seed: u64) -> Table2Result {
    let model = lineitem_nsm_model(scale.nsm_scale_factor());
    let config = config(scale);
    let setup = StreamSetup {
        streams: scale.streams(),
        queries_per_stream: scale.queries_per_stream(),
        classes: table2_classes(),
        seed,
    };
    let streams = build_streams(&setup, &model, None);
    let base = base_times(&model, &table2_classes(), config);
    let comparison = compare_policies(&model, &streams, config, &base);
    Table2Result {
        comparison,
        base_times: base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{SEED, TABLE2};

    /// `table2_nsm`'s claims hold at the manifest's seed (this test's) and
    /// at the old integration test's, with every policy running the whole
    /// workload.
    #[test]
    fn quick_scale_reproduces_the_paper_ordering() {
        for seed in [SEED, 1234] {
            let r = TABLE2.assert_claims_hold(seed);
            let expected = Scale::Quick.streams() * Scale::Quick.queries_per_stream();
            for row in &r.comparison.rows {
                assert_eq!(row.result.queries.len(), expected, "{:?}", row.policy);
            }
        }
    }
}
