//! Figure 5: throughput / latency scatter over fifteen query mixes.
//!
//! Each mix (SPEED ∈ {SF, S, F, SSF, FFS} × SIZE ∈ {S, M, L}) is run under
//! every policy; the figure plots each policy's average stream time and
//! average normalized latency *relative to relevance* for the same mix, so
//! relevance sits at (1, 1) and points up/right of it are worse.

use crate::harness::{base_times, compare_policies, Scale};
use cscan_core::policy::PolicyKind;
use cscan_workload::lineitem::lineitem_nsm_model;
use cscan_workload::mixes::QueryMix;
use cscan_workload::streams::{build_streams, StreamSetup};

/// One point of the scatter plot.
#[derive(Debug, Clone)]
pub struct ScatterPoint {
    /// The policy.
    pub policy: PolicyKind,
    /// The mix label, e.g. `"SF-M"`.
    pub mix: String,
    /// Average stream time divided by relevance's for the same mix.
    pub stream_time_ratio: f64,
    /// Average normalized latency divided by relevance's for the same mix.
    pub latency_ratio: f64,
}

/// Runs the Figure 5 experiment over all (or the first `limit`) mixes.
pub fn run(scale: Scale, seed: u64, limit: Option<usize>) -> Vec<ScatterPoint> {
    let model = lineitem_nsm_model(scale.nsm_scale_factor());
    let config = super::table2::config(scale);
    let mixes = QueryMix::all();
    let mixes = &mixes[..limit.unwrap_or(mixes.len()).min(mixes.len())];
    let mut points = Vec::new();
    for mix in mixes {
        let classes = mix.classes();
        let setup = StreamSetup {
            streams: scale.streams(),
            queries_per_stream: scale.queries_per_stream(),
            classes: classes.clone(),
            seed,
        };
        let streams = build_streams(&setup, &model, None);
        let base = base_times(&model, &classes, config);
        let cmp = compare_policies(&model, &streams, config, &base);
        let relevance = cmp.row(PolicyKind::Relevance);
        let (rel_time, rel_lat) = (
            relevance.avg_stream_time.max(1e-9),
            relevance.avg_normalized_latency.max(1e-9),
        );
        for row in &cmp.rows {
            points.push(ScatterPoint {
                policy: row.policy,
                mix: mix.label(),
                stream_time_ratio: row.avg_stream_time / rel_time,
                latency_ratio: row.avg_normalized_latency / rel_lat,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use crate::figures::{FIG5, SEED};

    /// `fig5_query_mixes`'s claims hold at the manifest's seed and at this
    /// test's, on a point per policy for each of the six quick mixes.
    #[test]
    fn relevance_is_the_reference_point_and_rarely_beaten() {
        for seed in [SEED, 21] {
            assert_eq!(FIG5.assert_claims_hold(seed).len(), 6 * 4);
        }
    }
}
