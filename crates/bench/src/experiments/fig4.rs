//! Figure 4: disk accesses over time for each scheduling policy.
//!
//! The same workload as Table 2 is run once per policy with chunk-access
//! tracing enabled; the traces are rendered either as gnuplot data or as
//! ASCII scatter plots (time on the x axis, chunk number on the y axis).

use crate::harness::Scale;
use cscan_core::policy::PolicyKind;
use cscan_core::sim::Simulation;
use cscan_simdisk::IoTrace;
use cscan_workload::lineitem::lineitem_nsm_model;
use cscan_workload::queries::table2_classes;
use cscan_workload::streams::{build_streams, StreamSetup};

/// One policy's trace.
#[derive(Debug, Clone)]
pub struct PolicyTrace {
    /// The policy that produced the trace.
    pub policy: PolicyKind,
    /// The chunk-access trace.
    pub trace: IoTrace,
    /// Total run time in seconds (the x-axis extent).
    pub total_time: f64,
}

/// Runs the Figure 4 experiment: one trace per policy.
pub fn run(scale: Scale, seed: u64) -> Vec<PolicyTrace> {
    let model = lineitem_nsm_model(scale.nsm_scale_factor());
    let config = super::table2::config(scale).with_trace(true);
    let setup = StreamSetup {
        streams: scale.streams(),
        queries_per_stream: scale.queries_per_stream(),
        classes: table2_classes(),
        seed,
    };
    let streams = build_streams(&setup, &model, None);
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(streams.clone());
            let result = sim.run();
            PolicyTrace {
                policy,
                trace: result.trace,
                total_time: result.total_time.as_secs_f64(),
            }
        })
        .collect()
}

/// A measure of how sequential a trace is: the fraction of consecutive loads
/// that read the next chunk (chunk index exactly one higher than the
/// previous load).  Elevator is close to 1, normal much lower, relevance is
/// intentionally "dynamic".
pub fn sequentiality(trace: &IoTrace) -> f64 {
    let events = trace.events();
    if events.len() < 2 {
        return 1.0;
    }
    let sequential = events
        .windows(2)
        .filter(|w| w[1].chunk == w[0].chunk.wrapping_add(1))
        .count();
    sequential as f64 / (events.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use crate::figures::{FIG4, RELEVANCE_SCATTERS, SEED};

    /// `fig4_traces`'s claims hold at the manifest's seed, with one trace
    /// per policy that renders.  At this test's old seed relevance's walk
    /// is the more sequential (0.43 against elevator's 0.39), so that claim
    /// is pinned as failing there and every other one must hold.
    #[test]
    fn traces_have_paper_like_shapes() {
        let traces = FIG4.assert_claims_hold(SEED);
        assert_eq!(traces.len(), 4);
        for t in &traces {
            assert!(!t.trace.is_empty(), "{:?}", t.policy);
            assert!(t.total_time > 0.0);
        }
        let plot = traces[0].trace.to_ascii(60, 16);
        assert_eq!(plot.lines().count(), 16);
        assert!(plot.contains('*'));
        let gnuplot = traces[0].trace.to_gnuplot();
        assert_eq!(gnuplot.lines().count(), traces[0].trace.len() + 1);
        assert_eq!(FIG4.run_quick(9).1, [RELEVANCE_SCATTERS]);
    }
}
