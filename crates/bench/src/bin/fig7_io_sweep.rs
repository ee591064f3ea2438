//! Outstanding-I/O sweep of the asynchronous scheduler: simulated scan
//! throughput at 64 concurrent queries on an explicit 4-spindle RAID, as
//! the number of in-flight chunk loads grows from 1 (the paper's
//! sequential main loop) to 8.  Writes `BENCH_io.json`: the sweep runs in
//! virtual time, so the file it writes is the committed one byte for byte
//! (`fig7::tests::committed_bench_io_json_is_what_the_sweep_renders`).

use cscan_bench::experiments::fig7;
use cscan_bench::report::TextTable;
use cscan_bench::Scale;

const QUERIES: usize = fig7::TRACKED_IO_QUERIES;

fn main() {
    let scale = Scale::from_args();
    println!(
        "Outstanding-I/O sweep — {QUERIES} concurrent FAST-20% scans, relevance policy,\n\
         4-spindle RAID striped at chunk granularity ({scale:?} scale)\n"
    );
    let points = fig7::run_io_sweep(scale, QUERIES, fig7::TRACKED_IO_SEED);

    let mut table = TextTable::new([
        "outstanding",
        "throughput (MiB/s)",
        "total (s)",
        "avg latency (s)",
        "chunk loads",
        "peak in flight",
        "max arm queue",
    ]);
    for p in &points {
        table.row([
            p.outstanding.to_string(),
            format!("{:.1}", p.throughput_mib_s),
            format!("{:.2}", p.total_secs),
            format!("{:.2}", p.avg_latency),
            p.io_requests.to_string(),
            p.peak_outstanding.to_string(),
            p.max_queue_depth.to_string(),
        ]);
    }
    println!("{}", table.render());

    let base = points.first().expect("sweep is never empty");
    if let Some(deep) = points.iter().find(|p| p.outstanding == 8) {
        println!(
            "speedup at K=8 vs K=1: {:.2}x scan throughput (acceptance gate: >= 1.3x)\n",
            deep.throughput_mib_s / base.throughput_mib_s.max(1e-9)
        );
    }

    let json = fig7::render_io_sweep_json(&points);
    let path = "BENCH_io.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
