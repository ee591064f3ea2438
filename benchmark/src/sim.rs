//! `sim_mix`: the paper's Table 2 NSM mix in the deterministic simulator,
//! under all four policies.
//!
//! The sandbox's storage is page-cache fast, so the paper's I/O-bound
//! regime and its concurrency (64 streams) exist only in virtual time.  The
//! virtual-time numbers repeat exactly for a seed and move only when a
//! policy decision changes; the wall time is ABM and policy CPU with no
//! threads, I/O or data.  One run simulates seeds `seed..seed+R`, each
//! under every policy; rates are the median over seeds.

use crate::gen::sim_streams;
use crate::scratch::out_dir;
use crate::spec::Workload;
use crate::stats::{median, percentile, ratio, MIB};
use crate::trace::{self, ThreadTrace};
use crate::{Metrics, RunOutput, RunSpec};
use cscan_core::policy::PolicyKind;
use cscan_core::sim::{QuerySpec, RunResult, SimConfig, Simulation};
use cscan_core::TableModel;
use cscan_workload::lineitem_nsm_model;
use cscan_workload::queries::table2_classes;
use std::collections::HashMap;
use std::io;
use std::time::Instant;

/// Table 2's configuration is the simulator's default: 2 cores, the
/// paper's RAID as one device, a 64-chunk buffer, streams 3 s apart.
fn config() -> SimConfig {
    SimConfig::default()
}

/// Standalone cold latency per query class, the denominator of the
/// paper's normalized latency.
fn base_times(model: &TableModel) -> HashMap<String, f64> {
    table2_classes()
        .into_iter()
        .map(|class| {
            let spec = QuerySpec::range_scan(
                class.label(),
                cscan_storage::ScanRanges::single(0, class.chunks_in(model)),
                class.speed.tuples_per_sec(),
            );
            let latency =
                Simulation::standalone_latency(model, PolicyKind::Relevance, config(), &spec);
            (class.label(), latency)
        })
        .collect()
}

fn simulate(model: &TableModel, policy: PolicyKind, streams: &[Vec<QuerySpec>]) -> RunResult {
    let mut sim = Simulation::new(model.clone(), policy, config());
    sim.submit_streams(streams.to_vec());
    sim.run()
}

/// What has to be equal between two runs of the same simulation.
fn fingerprint(r: &RunResult) -> (u64, u64, u64, Vec<(u64, u64)>) {
    (
        r.io_requests,
        r.loads_aborted,
        r.total_time.as_micros(),
        r.queries
            .iter()
            .map(|q| (q.query_id, q.latency().as_micros()))
            .collect(),
    )
}

pub fn run(run: &RunSpec) -> io::Result<RunOutput> {
    let RunSpec {
        ref scale,
        seed,
        traced: traced_run,
        ..
    } = *run;
    let seeds = scale.sim_seeds(run.seconds);
    let queries_per_run = scale.sim_streams * scale.sim_queries_per_stream;

    // Set-up: the table model, the classes' standalone times and every
    // seed's streams.  It takes milliseconds, so it is repeated more often
    // than a wall-clock workload's; `setup_s` is the median.
    let repeats = 5 * scale.setup_repeats;
    let mut setup_secs = Vec::with_capacity(repeats);
    let mut made = None;
    for _ in 0..repeats {
        let started = Instant::now();
        let model = lineitem_nsm_model(scale.sim_scale_factor);
        let base = base_times(&model);
        let streams: Vec<_> = (0..seeds as u64)
            .map(|i| sim_streams(scale, &model, seed.wrapping_add(i)))
            .collect();
        setup_secs.push(started.elapsed().as_secs_f64());
        made = Some((model, base, streams));
    }
    let (model, base, streams) = made.expect("at least one set-up ran");
    let chunk_mib = model.avg_chunk_pages() * model.page_size() as f64 / MIB;

    let trace = ThreadTrace::new(Instant::now());
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per seed: wall seconds and whether it was traced.
    let mut seed_wall: Vec<(f64, bool)> = Vec::with_capacity(seeds);
    let mut run_ms: Vec<f64> = Vec::new();
    let (mut chunks_all, mut loads_all) = (0u64, 0u64);
    // Under `relevance`, over every seed.
    let mut latencies_us: Vec<u64> = Vec::new();
    let (mut rel_chunks, mut rel_loads, mut rel_aborted) = (0u64, 0u64, 0u64);
    let (mut stream_s, mut norm_latency) = (0.0, 0.0);
    let mut rel_wall_s = 0.0;

    for (i, seed_streams) in streams.iter().enumerate() {
        // Alternate like the wall-clock rounds do; the first seed is not a
        // warm-up here (nothing is cached between simulations).
        let traced = traced_run && i % 2 == 1;
        trace.set_recording(traced);
        trace.set_query(i as u64);
        let seed_started = Instant::now();
        let _query = trace.span("query");
        for policy in PolicyKind::ALL {
            let started = Instant::now();
            let result = {
                let _span = trace.span("sim.run");
                simulate(&model, policy, seed_streams)
            };
            let wall = started.elapsed().as_secs_f64();
            run_ms.push(wall * 1e3);
            attempted += 1;
            let delivered: u64 = result.queries.iter().map(|q| q.chunks as u64).sum();
            let mut ok = result.queries.len() == queries_per_run;
            // The simulator's claim is determinism: the first seed's runs
            // are repeated and must agree to the microsecond.
            if i == 0 {
                ok &= fingerprint(&simulate(&model, policy, seed_streams)) == fingerprint(&result);
            }
            if !ok {
                failed += 1;
            }
            chunks_all += delivered;
            loads_all += result.io_requests;
            if policy == PolicyKind::Relevance {
                latencies_us.extend(result.queries.iter().map(|q| q.latency().as_micros()));
                rel_chunks += delivered;
                rel_loads += result.io_requests;
                rel_aborted += result.loads_aborted;
                stream_s += result.avg_stream_time();
                norm_latency += result.avg_normalized_latency(&base);
                rel_wall_s += wall;
            }
        }
        drop(_query);
        seed_wall.push((seed_started.elapsed().as_secs_f64(), traced));
    }
    latencies_us.sort_unstable();

    // Every seed simulates the same number of queries and, the classes
    // being dealt in equal numbers, the same number of chunk deliveries.
    let per_seed_queries = (queries_per_run * PolicyKind::ALL.len()) as f64;
    let per_seed_mib = chunks_all as f64 / seeds as f64 * chunk_mib;
    let rate = |traced: bool, per_seed: f64| -> f64 {
        let rates: Vec<f64> = seed_wall
            .iter()
            .filter(|(_, t)| *t == traced)
            .map(|(wall, _)| per_seed / wall)
            .collect();
        median(&rates)
    };

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_secs));
    m.set("delivered_mib_s", rate(false, per_seed_mib));
    m.set("queries_per_s", rate(false, per_seed_queries));
    m.set("query_p50_ms", percentile(&latencies_us, 0.50) as f64 / 1e3);
    m.set("query_p95_ms", percentile(&latencies_us, 0.95) as f64 / 1e3);
    m.set(
        "chunks_shared_frac",
        1.0 - ratio(rel_loads as f64, rel_chunks as f64),
    );

    m.set(
        "query.loads_per_chunk",
        ratio(rel_loads as f64, rel_chunks as f64),
    );
    m.set("query.failed_frac", ratio(failed as f64, attempted as f64));
    m.set("sim.avg_stream_s", stream_s / seeds as f64);
    m.set("sim.avg_norm_latency", norm_latency / seeds as f64);
    m.set("sim.io_requests", rel_loads as f64 / seeds as f64);
    m.set("sim.run_ms", median(&run_ms));
    m.set("sim.ns_per_load", ratio(rel_wall_s * 1e9, rel_loads as f64));
    m.set("sim.loads_aborted", rel_aborted as f64 / seeds as f64);
    if traced_run {
        m.set(
            "obs.trace_overhead_frac",
            ratio(rate(true, per_seed_mib), rate(false, per_seed_mib)) - 1.0,
        );
    }

    let mut notes = vec![
        format!(
            "model: lineitem NSM at scale factor {} = {} chunks of {:.1} MiB; buffer 64 chunks, 2 simulated cores, streams 3 s apart",
            scale.sim_scale_factor,
            model.num_chunks(),
            chunk_mib,
        ),
        format!(
            "runs: {seeds} seeds ({seed}..{}) x 4 policies, {} streams x {} queries each; {} set-ups",
            seed.wrapping_add(seeds as u64),
            scale.sim_streams,
            scale.sim_queries_per_stream,
            setup_secs.len(),
        ),
        format!(
            "samples: query latency n={} (virtual time, relevance; {} beyond p95), rates n={} seeds; {:.0} loads for {:.0} deliveries over all policies",
            latencies_us.len(),
            latencies_us.len() - (0.95 * latencies_us.len() as f64).ceil() as usize,
            seed_wall.iter().filter(|(_, t)| !t).count(),
            loads_all as f64,
            chunks_all as f64,
        ),
    ];

    if traced_run {
        let spans = trace::merge(vec![trace.into_spans()]);
        let own = trace::self_times(&spans);
        let query_wall: u64 = trace::durations(&spans, "query").iter().sum();
        m.set(
            "trace.unattributed_frac",
            ratio(
                trace::self_total(&spans, &own, "query") as f64,
                query_wall as f64,
            ),
        );
        let path = out_dir().join(format!("trace-{}.json", Workload::SimMix.name()));
        trace::write_json(&path, Workload::SimMix.name(), seed, &spans)?;
        notes.push(format!(
            "trace: {} spans recorded, written to {}",
            spans.len(),
            path.display()
        ));
    }

    Ok(RunOutput {
        metrics: m,
        attempted,
        failed,
        notes,
        problems: Vec::new(),
    })
}
