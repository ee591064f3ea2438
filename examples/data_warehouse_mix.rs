//! A data-warehouse style workload: several clients each firing a sequence of
//! TPC-H-like FAST (Q6) and SLOW (Q1) range scans against `lineitem`, exactly
//! like the paper's Table 2 benchmark, compared across all four scheduling
//! policies.
//!
//! Run with: `cargo run --example data_warehouse_mix [paper]`

use cscan_bench::{base_times, compare_policies, Scale};
use cscan_core::sim::SimConfig;
use cscan_workload::lineitem::lineitem_nsm_model;
use cscan_workload::queries::table2_classes;
use cscan_workload::streams::{build_streams, StreamSetup};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.as_slice() {
        [] => Some(Scale::Quick),
        [one] => Scale::parse(one),
        _ => None,
    };
    let Some(scale) = scale else {
        eprintln!("usage: data_warehouse_mix [quick|paper]");
        std::process::exit(2)
    };
    let model = lineitem_nsm_model(scale.nsm_scale_factor());
    let config = SimConfig::default().with_buffer_chunks(scale.nsm_buffer_chunks());

    println!(
        "lineitem: {} tuples in {} chunks of 16 MiB; buffer pool: {} chunks\n",
        model.total_tuples(),
        model.num_chunks(),
        scale.nsm_buffer_chunks()
    );

    let setup = StreamSetup {
        streams: scale.streams(),
        queries_per_stream: 4,
        classes: table2_classes(),
        seed: 2024,
    };
    let streams = build_streams(&setup, &model, None);
    println!(
        "workload: {} streams x {} queries drawn from {:?}\n",
        setup.streams,
        setup.queries_per_stream,
        table2_classes()
            .iter()
            .map(|c| c.label())
            .collect::<Vec<_>>()
    );

    let base = base_times(&model, &table2_classes(), config);
    let cmp = compare_policies(&model, &streams, config, &base);

    println!("policy      | avg stream time | avg norm latency | CPU use | I/O requests");
    println!("------------+-----------------+------------------+---------+-------------");
    for row in &cmp.rows {
        println!(
            "{:<11} | {:>15.2} | {:>16.2} | {:>6.1}% | {:>12}",
            row.policy.name(),
            row.avg_stream_time,
            row.avg_normalized_latency,
            row.cpu_use * 100.0,
            row.io_requests
        );
    }

    let relevance = cmp.row(cscan_core::policy::PolicyKind::Relevance);
    let normal = cmp.row(cscan_core::policy::PolicyKind::Normal);
    println!(
        "\nrelevance vs normal: {:.1}x the throughput, {:.1}x lower average latency, {:.1}x fewer disk reads",
        normal.avg_stream_time / relevance.avg_stream_time,
        normal.avg_normalized_latency / relevance.avg_normalized_latency,
        normal.io_requests as f64 / relevance.io_requests as f64
    );
}
