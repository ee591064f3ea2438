//! Figure 6: behaviour under varying buffer-pool capacities.
//!
//! A trimmed-down table is scanned by 8 streams of 4 queries while the buffer
//! pool is swept from 12.5 % to 100 % of the table size, once with a
//! CPU-intensive query set (FAST + SLOW) and once with an I/O-intensive set
//! (FAST only).  Reported per policy and capacity: number of I/O requests,
//! system (total) time and average normalized latency.

use crate::harness::{base_times, compare_policies, Scale};
use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::sim::SimConfig;
use cscan_workload::lineitem::lineitem_nsm_model;
use cscan_workload::queries::{QueryClass, QuerySpeed};
use cscan_workload::streams::{build_streams, StreamSetup};

/// Which query set is being used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySet {
    /// FAST and SLOW queries mixed (CPU-intensive).
    CpuIntensive,
    /// Only FAST queries (I/O-intensive).
    IoIntensive,
}

impl QuerySet {
    /// The query classes of this set.
    pub fn classes(self) -> Vec<QueryClass> {
        let speeds: &[QuerySpeed] = match self {
            QuerySet::CpuIntensive => &[QuerySpeed::Slow, QuerySpeed::Fast],
            QuerySet::IoIntensive => &[QuerySpeed::Fast],
        };
        let mut out = Vec::new();
        for &speed in speeds {
            for percent in [1, 10, 50, 100] {
                out.push(QueryClass { speed, percent });
            }
        }
        out
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            QuerySet::CpuIntensive => "cpu-intensive",
            QuerySet::IoIntensive => "io-intensive",
        }
    }
}

/// One measurement of the sweep.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// The query set used.
    pub set: QuerySet,
    /// Buffer capacity as a fraction of the table size.
    pub buffer_fraction: f64,
    /// The policy.
    pub policy: PolicyKind,
    /// Number of chunk loads.
    pub io_requests: u64,
    /// Total (system) time in seconds.
    pub system_time: f64,
    /// Average normalized latency.
    pub avg_normalized_latency: f64,
}

/// The buffer capacities swept, as fractions of the table size.
pub const BUFFER_FRACTIONS: [f64; 5] = [0.125, 0.25, 0.50, 0.75, 1.0];

/// The table used: a trimmed-down relation ("2 GB" in the paper).
pub fn model(scale: Scale) -> TableModel {
    match scale {
        Scale::Quick => lineitem_nsm_model(1),
        Scale::Paper => lineitem_nsm_model(5),
    }
}

/// Runs the Figure 6 sweep.
pub fn run(scale: Scale, seed: u64) -> Vec<Fig6Point> {
    let model = model(scale);
    let streams_count = match scale {
        Scale::Quick => 4,
        Scale::Paper => 8,
    };
    let mut points = Vec::new();
    for set in [QuerySet::CpuIntensive, QuerySet::IoIntensive] {
        let classes = set.classes();
        let setup = StreamSetup {
            streams: streams_count,
            queries_per_stream: 4,
            classes: classes.clone(),
            seed,
        };
        let streams = build_streams(&setup, &model, None);
        for &fraction in &BUFFER_FRACTIONS {
            let config = SimConfig::default()
                .with_buffer_fraction(fraction)
                .with_stagger(scale.stagger());
            let base = base_times(&model, &classes, config);
            let cmp = compare_policies(&model, &streams, config, &base);
            for row in &cmp.rows {
                points.push(Fig6Point {
                    set,
                    buffer_fraction: fraction,
                    policy: row.policy,
                    io_requests: row.io_requests,
                    system_time: row.total_time,
                    avg_normalized_latency: row.avg_normalized_latency,
                });
            }
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{FIG6, SEED};

    /// `fig6_buffer_scaling`'s claims hold at the manifest's seed and at
    /// this test's, on every point of the sweep.
    #[test]
    fn relevance_advantage_is_largest_with_small_buffers() {
        for seed in [SEED, 17] {
            let points = FIG6.assert_claims_hold(seed);
            assert_eq!(points.len(), 2 * BUFFER_FRACTIONS.len() * 4);
        }
    }
}
