//! Smoke tests of the experiment harness: every table/figure reproduction
//! runs end-to-end at quick scale and produces paper-shaped results.

use cscan_bench::experiments::{fig2, fig4, fig6, fig7, table2, table3, table4};
use cscan_bench::{PolicyRow, Scale};
use cscan_core::policy::PolicyKind;

#[test]
fn figure2_headline_point() {
    let r = fig2::run(3);
    let curve10 = r.curves.iter().find(|c| c.buffer_chunks == 10).unwrap();
    let p = curve10.points.iter().find(|(cq, _)| *cq == 10).unwrap().1;
    assert!(
        p > 0.5,
        "paper: 'over 50%' for a 10% scan with a 10% buffer, got {p}"
    );
}

#[test]
fn table2_relevance_wins_both_dimensions() {
    let r = table2::run(Scale::Quick, 1234);
    let rel = r.comparison.row(PolicyKind::Relevance);
    let norm = r.comparison.row(PolicyKind::Normal);
    let elev = r.comparison.row(PolicyKind::Elevator);
    // Throughput: better than normal; latency: much better than elevator.
    assert!(rel.avg_stream_time < norm.avg_stream_time);
    assert!(rel.avg_normalized_latency < elev.avg_normalized_latency);
    // Factor-level check (the paper sees ~3x vs normal on latency; we accept >= 1.3x).
    assert!(
        norm.avg_normalized_latency / rel.avg_normalized_latency > 1.3,
        "normal {} vs relevance {}",
        norm.avg_normalized_latency,
        rel.avg_normalized_latency
    );
}

#[test]
fn figure4_traces_cover_all_policies() {
    let traces = fig4::run(Scale::Quick, 5);
    assert_eq!(traces.len(), 4);
    let relevance = traces
        .iter()
        .find(|t| t.policy == PolicyKind::Relevance)
        .unwrap();
    let normal = traces
        .iter()
        .find(|t| t.policy == PolicyKind::Normal)
        .unwrap();
    assert!(relevance.trace.len() <= normal.trace.len());
}

#[test]
fn figure6_relevance_copes_best_with_small_buffers() {
    let points = fig6::run(Scale::Quick, 7);
    let at = |policy, fraction: f64| {
        points
            .iter()
            .find(|p| {
                p.policy == policy
                    && p.set == fig6::QuerySet::IoIntensive
                    && (p.buffer_fraction - fraction).abs() < 1e-9
            })
            .unwrap()
            .io_requests
    };
    assert!(at(PolicyKind::Relevance, 0.125) < at(PolicyKind::Normal, 0.125));
}

#[test]
fn figure7_latency_grows_slower_for_relevance() {
    let points = fig7::run(Scale::Quick, 7, Some(8));
    let latency = |policy, n| {
        points
            .iter()
            .find(|p| p.policy == policy && p.queries == n && p.percent == 20)
            .unwrap()
            .avg_latency
    };
    assert!(latency(PolicyKind::Relevance, 8) < latency(PolicyKind::Normal, 8));
}

#[test]
fn table3_dsm_relevance_beats_normal() {
    let r = table3::run(Scale::Quick, 77);
    let rel = r.comparison.row(PolicyKind::Relevance);
    let norm = r.comparison.row(PolicyKind::Normal);
    assert!(rel.avg_stream_time < norm.avg_stream_time);
    assert!(rel.io_requests < norm.io_requests);
}

/// `(policy, io_requests, total_time)` per row, in the order the run reports them.
fn decisions(rows: &[PolicyRow]) -> Vec<(PolicyKind, u64, f64)> {
    rows.iter()
        .map(|r| (r.policy, r.io_requests, r.total_time))
        .collect()
}

// The pinned runs below are golden values: the simulator runs in virtual
// time, so a change to a table model, a policy or the plan/commit loop that
// moves any decision moves one of these numbers exactly.

/// `relevance` scores lineitem's short last chunk (143 of 256 pages) per
/// page like every other, so it ranks above a full chunk of equal interest:
/// 267 loads in 41.392554 s, where a per-chunk score read 270 in 41.413602.
#[test]
fn pinned_table2_decisions() {
    let r = table2::run(Scale::Quick, 1234);
    assert_eq!(
        decisions(&r.comparison.rows),
        [
            (PolicyKind::Normal, 564, 47.423282),
            (PolicyKind::Attach, 527, 43.476516),
            (PolicyKind::Elevator, 264, 44.101843),
            (PolicyKind::Relevance, 267, 41.392554),
        ]
    );
}

#[test]
fn pinned_table3_decisions() {
    let r = table3::run(Scale::Quick, 77);
    assert_eq!(
        decisions(&r.comparison.rows),
        [
            (PolicyKind::Normal, 439, 31.355663),
            (PolicyKind::Attach, 402, 28.06853),
            (PolicyKind::Elevator, 219, 28.430841),
            (PolicyKind::Relevance, 183, 27.588573),
        ]
    );
}

/// Table 4 cells carry no total time; the mean query latency stands in.
#[test]
fn pinned_table4_decisions() {
    let r = table4::run(Scale::Quick, 9);
    let cells: Vec<(&str, PolicyKind, u64, f64)> = r
        .cells
        .iter()
        .map(|c| {
            (
                c.query_set.as_str(),
                c.policy,
                c.io_requests,
                c.latency.mean(),
            )
        })
        .collect();
    use PolicyKind::{Normal, Relevance};
    assert_eq!(
        cells,
        [
            ("ABC", Normal, 332, 4.226076625000001),
            ("ABC", Relevance, 178, 2.80762025),
            ("ABC,DEF", Normal, 343, 4.563680843749999),
            ("ABC,DEF", Relevance, 215, 3.5044030937499997),
            ("ABC,BCD", Normal, 376, 4.418579468750002),
            ("ABC,BCD", Relevance, 187, 3.107924656249999),
            ("ABC,BCD,CDE", Normal, 418, 5.1676428749999985),
            ("ABC,BCD,CDE", Relevance, 193, 3.4836598750000003),
            ("ABC,BCD,CDE,DEF", Normal, 429, 5.550065312499999),
            ("ABC,BCD,CDE,DEF", Relevance, 190, 3.4889459062499997),
        ]
    );
}

#[test]
fn table4_sharing_depends_on_column_overlap() {
    let r = table4::run(Scale::Quick, 9);
    let rel_overlapping = r.cell("ABC", PolicyKind::Relevance).io_requests;
    let rel_disjoint = r.cell("ABC,DEF", PolicyKind::Relevance).io_requests;
    let norm_disjoint = r.cell("ABC,DEF", PolicyKind::Normal).io_requests;
    assert!(rel_overlapping < rel_disjoint, "less overlap, less sharing");
    assert!(
        rel_disjoint < norm_disjoint,
        "relevance still wins with disjoint columns"
    );
}
