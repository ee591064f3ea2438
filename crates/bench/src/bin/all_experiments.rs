//! Runs every reproduction (Tables 2–4, Figures 2, 4–8) in sequence and
//! prints a compact summary of the headline comparisons.  Use `--paper` for
//! the full-scale run (several minutes) or `--quick` (default) for a fast
//! smoke run of all experiments.

use cscan_bench::experiments::{fig2, fig4, fig5, fig6, fig7, fig8, table2, table3, table4};
use cscan_bench::report::{f2, TextTable};
use cscan_bench::Scale;
use cscan_core::policy::PolicyKind;

fn main() {
    let scale = Scale::from_args();
    println!("=== Cooperative Scans: full experiment suite ({scale:?} scale) ===\n");

    // Figure 2.
    let f2r = fig2::run(42);
    let p = f2r
        .curves
        .iter()
        .find(|c| c.buffer_chunks == 10)
        .unwrap()
        .points[9]
        .1;
    println!("[Fig 2] reuse probability, 10% scan vs 10% buffer: {p:.2} (paper: >0.5)\n");

    // Table 2.
    let t2 = table2::run(scale, 42);
    print_comparison("Table 2 (NSM)", &t2.comparison.rows);

    // Figure 4.
    let traces = fig4::run(scale, 42);
    let mut t = TextTable::new(["policy", "I/O requests", "sequentiality"]);
    for tr in &traces {
        t.row([
            tr.policy.name().to_string(),
            tr.trace.len().to_string(),
            f2(fig4::sequentiality(&tr.trace)),
        ]);
    }
    println!("[Fig 4] chunk-access traces\n{}", t.render());

    // Figure 5.
    let limit = if scale == Scale::Quick { Some(6) } else { None };
    let points = fig5::run(scale, 42, limit);
    let dominated = points
        .iter()
        .filter(|p| p.policy != PolicyKind::Relevance)
        .filter(|p| p.stream_time_ratio >= 1.0 && p.latency_ratio >= 1.0)
        .count();
    let total = points
        .iter()
        .filter(|p| p.policy != PolicyKind::Relevance)
        .count();
    println!("[Fig 5] {dominated}/{total} competitor points dominated by relevance\n");

    // Figure 6.
    let f6 = fig6::run(scale, 42);
    let rel = f6
        .iter()
        .find(|p| {
            p.set == fig6::QuerySet::IoIntensive
                && p.buffer_fraction < 0.2
                && p.policy == PolicyKind::Relevance
        })
        .unwrap();
    let nor = f6
        .iter()
        .find(|p| {
            p.set == fig6::QuerySet::IoIntensive
                && p.buffer_fraction < 0.2
                && p.policy == PolicyKind::Normal
        })
        .unwrap();
    println!(
        "[Fig 6] smallest buffer, I/O-intensive set: relevance {} I/Os vs normal {} I/Os\n",
        rel.io_requests, nor.io_requests
    );

    // Figure 7.
    let climit = if scale == Scale::Quick { Some(8) } else { None };
    let f7 = fig7::run(scale, 42, climit);
    let max_n = f7.iter().map(|p| p.queries).max().unwrap();
    let rel = f7
        .iter()
        .find(|p| p.percent == 20 && p.queries == max_n && p.policy == PolicyKind::Relevance)
        .unwrap();
    let nor = f7
        .iter()
        .find(|p| p.percent == 20 && p.queries == max_n && p.policy == PolicyKind::Normal)
        .unwrap();
    println!(
        "[Fig 7] {} concurrent 20% scans: relevance {:.2}s vs normal {:.2}s average latency\n",
        max_n, rel.avg_latency, nor.avg_latency
    );

    // Figure 8.
    let iterations = if scale == Scale::Quick { 30 } else { 300 };
    let f8 = fig8::run(iterations);
    let worst = f8
        .iter()
        .map(|p| p.fraction_of_execution)
        .fold(0.0f64, f64::max);
    println!(
        "[Fig 8] worst-case scheduling overhead: {:.1} ppm of execution time (paper: < 10 000)\n",
        worst * 1e6
    );

    // Table 3.
    let t3 = table3::run(scale, 42);
    print_comparison("Table 3 (DSM)", &t3.comparison.rows);

    // Table 4.
    let t4 = table4::run(scale, 42);
    let mut t = TextTable::new([
        "query set",
        "normal I/Os",
        "relevance I/Os",
        "normal lat",
        "relevance lat",
    ]);
    for (set, _) in cscan_workload::synthetic::table4_query_sets() {
        let n = t4.cell(&set, PolicyKind::Normal);
        let r = t4.cell(&set, PolicyKind::Relevance);
        t.row([
            set.clone(),
            n.io_requests.to_string(),
            r.io_requests.to_string(),
            f2(n.latency.mean()),
            f2(r.latency.mean()),
        ]);
    }
    println!("[Table 4] DSM column overlap\n{}", t.render());

    println!("Done.");
}

fn print_comparison(title: &str, rows: &[cscan_bench::PolicyRow]) {
    let mut t = TextTable::new([
        "policy",
        "avg stream time",
        "avg norm latency",
        "total time",
        "I/Os",
    ]);
    for row in rows {
        t.row([
            row.policy.name().to_string(),
            f2(row.avg_stream_time),
            f2(row.avg_normalized_latency),
            f2(row.total_time),
            row.io_requests.to_string(),
        ]);
    }
    println!("[{title}]\n{}", t.render());
}
