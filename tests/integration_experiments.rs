//! The simulated decisions of Tables 2-4, pinned: every policy's I/O
//! count and time at quick scale.  The paper's claims about these tables
//! are the `figures` manifest's (`cscan_bench::figures`), checked by the
//! experiment modules' tests.

use cscan_bench::experiments::{table2, table3, table4};
use cscan_bench::{PolicyRow, Scale};
use cscan_core::policy::PolicyKind;

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
