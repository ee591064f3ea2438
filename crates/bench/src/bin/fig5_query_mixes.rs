//! Reproduces Figure 5: average stream time vs. average normalized latency,
//! relative to the relevance policy, over the fifteen SPEED×SIZE query mixes.

use cscan_bench::experiments::fig5;
use cscan_bench::report::{f2, TextTable};
use cscan_bench::Scale;
use cscan_core::policy::PolicyKind;

fn main() {
    let scale = Scale::from_args();
    let limit = if scale == Scale::Quick { Some(6) } else { None };
    println!("Figure 5 — policy performance over query mixes ({scale:?} scale)\n");
    let points = fig5::run(scale, 42, limit);

    for policy in [PolicyKind::Normal, PolicyKind::Attach, PolicyKind::Elevator] {
        let mut table = TextTable::new([
            "mix",
            "stream time / relevance",
            "norm. latency / relevance",
        ]);
        for p in points.iter().filter(|p| p.policy == policy) {
            table.row([p.mix.clone(), f2(p.stream_time_ratio), f2(p.latency_ratio)]);
        }
        println!(
            "[{}] (relevance = 1.00 / 1.00)\n{}",
            policy.name(),
            table.render()
        );
    }

    // Summary: how often each competitor is dominated by relevance.
    let mut summary = TextTable::new([
        "policy",
        "mixes",
        "dominated by relevance",
        "worse on ≥1 axis",
    ]);
    for policy in [PolicyKind::Normal, PolicyKind::Attach, PolicyKind::Elevator] {
        let pts: Vec<_> = points.iter().filter(|p| p.policy == policy).collect();
        let dominated = pts
            .iter()
            .filter(|p| p.stream_time_ratio >= 1.0 && p.latency_ratio >= 1.0)
            .count();
        let worse = pts
            .iter()
            .filter(|p| p.stream_time_ratio >= 1.0 || p.latency_ratio >= 1.0)
            .count();
        summary.row([
            policy.name().to_string(),
            pts.len().to_string(),
            dominated.to_string(),
            worse.to_string(),
        ]);
    }
    println!("{}", summary.render());
}
