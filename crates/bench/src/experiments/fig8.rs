//! Figure 8: cost of relevance-based scheduling.
//!
//! The relevance policy's `loadRelevance` must consider every (chunk, query)
//! pair, so its cost grows super-linearly as chunks shrink.  This experiment
//! measures the *actual wall-clock* cost of one full scheduling step
//! (`chooseQueryToProcess` + `chooseChunkToLoad` + victim selection) of this
//! implementation, for a 2 GB relation divided into 128–2048 chunks and
//! queries scanning 1 %, 10 % or 100 % of it, and reports the overhead as a
//! fraction of the (simulated) execution time of the same workload.
//!
//! What the index walks save against the paper's sweeps is gated in
//! `cscan_core` (`incremental_speedup_at_64_queries`), against the
//! test-only reference there, so no reference code enters the library.

use cscan_core::model::TableModel;
use cscan_core::policy::{Policy as _, PolicyKind, RelevancePolicy};
use cscan_core::sched::Scheduler;
use cscan_core::sim::{QuerySpec, SimConfig, Simulation};
use cscan_core::{CScanPlan, RetryPolicy, ScanRanges};
use cscan_obs::Registry;
use cscan_simdisk::SimTime;
use cscan_storage::ChunkPayload;
use std::sync::Arc;
use std::time::Instant;

/// One measurement of the sweep.
#[derive(Debug, Clone)]
pub struct Fig8Point {
    /// Number of chunks the 2 GB relation is divided into.
    pub num_chunks: u32,
    /// Scan size in percent.
    pub percent: u32,
    /// Average wall-clock time of one scheduling step, in nanoseconds.
    pub scheduling_ns: f64,
    /// Scheduling overhead as a fraction of the workload's execution time.
    pub fraction_of_execution: f64,
}

/// The chunk counts swept (chunk size = 2 GB / count).
pub const CHUNK_COUNTS: [u32; 5] = [128, 256, 512, 1024, 2048];

/// The scan percentages swept.
pub const PERCENTS: [u32; 3] = [1, 10, 100];

/// Total relation size modelled (2 GB, as in the paper).
pub const TABLE_BYTES: u64 = 2 * 1024 * 1024 * 1024;

/// Number of concurrent queries (16 streams in the paper).
pub const QUERIES: usize = 16;

fn pages_per_chunk(num_chunks: u32) -> u64 {
    (TABLE_BYTES / num_chunks as u64) / cscan_storage::DEFAULT_PAGE_SIZE
}

fn tuples_per_chunk(num_chunks: u32) -> u64 {
    2_000_000_000 / 72 / num_chunks as u64
}

/// The 2 GB relation as a row store of `num_chunks` chunks.
pub fn model_for(num_chunks: u32) -> TableModel {
    TableModel::nsm_uniform(
        num_chunks,
        tuples_per_chunk(num_chunks),
        pages_per_chunk(num_chunks),
    )
}

/// Builds the scheduler core over `model` with `queries` registered
/// queries of the given scan size, each reading every column, and a
/// quarter-table buffer, to exercise realistic state.
fn build_core(model: TableModel, percent: u32, queries: usize, seed: u64) -> Scheduler<()> {
    let num_chunks = model.num_chunks();
    let capacity = model.total_pages(model.all_columns()) / 4;
    let all_columns = model.all_columns();
    let mut core = Scheduler::new(
        model,
        capacity.max(1),
        PolicyKind::Relevance,
        RetryPolicy::default(),
        Arc::new(Registry::disabled()),
    );
    let len = ((num_chunks as u64 * percent as u64).div_ceil(100)).max(1) as u32;
    let mut pos = seed as u32 % num_chunks;
    for q in 0..queries {
        let start = pos % num_chunks.saturating_sub(len).max(1);
        let ranges = ScanRanges::single(start, (start + len).min(num_chunks));
        core.register(
            &CScanPlan::new(format!("q{q}"), ranges, all_columns),
            (),
            SimTime::ZERO,
        );
        pos = pos.wrapping_mul(7).wrapping_add(13);
    }
    core
}

/// Plans one load and commits it at once, as a K = 1 driver would; the
/// core's effects are dropped.  Returns whether a load was planned.
fn load_one(core: &mut Scheduler<()>) -> bool {
    let mut plans = Vec::new();
    core.plan(SimTime::ZERO, 1, &mut plans);
    let Some(plan) = plans.pop() else {
        return false;
    };
    let (chunk, ticket) = (plan.decision.chunk, plan.ticket);
    core.commit(chunk, ticket, ChunkPayload::Missing, SimTime::ZERO);
    core.swap_effects(&mut Vec::new());
    true
}

/// Pre-loads a handful of chunks so the use/keep relevance paths have
/// buffered state to look at, while keeping (almost) every query starved —
/// the regime in which the scheduler actually runs.
fn preload(core: &mut Scheduler<()>) {
    for _ in 0..4 {
        if !load_one(core) {
            break;
        }
    }
}

/// Measures the average wall-clock cost, in nanoseconds, of one relevance
/// scheduling step (`next_load` + `choose_victim` + `next_chunk`) for a
/// `queries`-query mix.
pub fn measure_scheduling_step(
    num_chunks: u32,
    percent: u32,
    queries: usize,
    iterations: u32,
) -> f64 {
    let mut core = build_core(model_for(num_chunks), percent, queries, 11);
    preload(&mut core);
    let mut policy = RelevancePolicy::new();
    let start = Instant::now();
    let mut decisions = 0u32;
    for _ in 0..iterations {
        // One full scheduling step: pick a query & chunk to load, pick the
        // chunk a query should consume, pick a victim.
        if let Some(decision) = policy.next_load(core.state(), SimTime::ZERO, 0) {
            std::hint::black_box(&decision);
            let _ = std::hint::black_box(policy.choose_victim(core.state(), &decision));
            let _ = std::hint::black_box(policy.next_chunk(decision.trigger, core.state()));
        }
        decisions += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    elapsed * 1e9 / decisions.max(1) as f64
}

/// Estimates the execution time of the corresponding workload (virtual time
/// from the simulator) so the overhead can be expressed as a fraction.
fn execution_time(num_chunks: u32, percent: u32, seed: u64) -> (f64, u64) {
    let model = model_for(num_chunks);
    let config = SimConfig::default().with_buffer_fraction(0.25);
    let mut sim = Simulation::new(model.clone(), PolicyKind::Relevance, config);
    let len = ((num_chunks as u64 * percent as u64).div_ceil(100)).max(1) as u32;
    for q in 0..QUERIES as u32 {
        let start = (seed as u32 + q * 37) % num_chunks.saturating_sub(len).max(1);
        sim.submit_stream(vec![QuerySpec::range_scan(
            format!("scan-{percent}"),
            ScanRanges::single(start, (start + len).min(num_chunks)),
            8_000_000.0,
        )]);
    }
    let result = sim.run();
    (result.total_time.as_secs_f64(), result.io_requests)
}

/// Runs the Figure 8 sweep.  `iterations` controls the measurement effort per
/// point (a few hundred is plenty in release builds).
pub fn run(iterations: u32) -> Vec<Fig8Point> {
    let mut points = Vec::new();
    for &num_chunks in &CHUNK_COUNTS {
        for &percent in &PERCENTS {
            let scheduling_ns = measure_scheduling_step(num_chunks, percent, QUERIES, iterations);
            let (exec_secs, ios) = execution_time(num_chunks, percent, 3);
            // Each I/O requires one scheduling step.
            let total_scheduling_secs = scheduling_ns / 1e9 * ios as f64;
            let fraction = if exec_secs > 0.0 {
                total_scheduling_secs / exec_secs
            } else {
                0.0
            };
            points.push(Fig8Point {
                num_chunks,
                percent,
                scheduling_ns,
                fraction_of_execution: fraction,
            });
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduling_cost_grows_with_chunk_count() {
        // Only two chunk counts and few iterations to keep the test quick
        // (and debug builds are slow); the full sweep is `figures`' entry.
        let small = measure_scheduling_step(128, 10, QUERIES, 30);
        let large = measure_scheduling_step(1024, 10, QUERIES, 30);
        assert!(small >= 0.0 && large >= 0.0);
        assert!(
            large > small,
            "more chunks must cost more scheduling time: {small} ns vs {large} ns"
        );
    }

    #[test]
    fn overhead_fraction_is_small() {
        let (exec, ios) = execution_time(256, 10, 3);
        assert!(exec > 0.0);
        assert!(ios > 0);
        let ns = measure_scheduling_step(256, 10, QUERIES, 20);
        let fraction = ns / 1e9 * ios as f64 / exec;
        // The paper's bound: worst case below 1% of execution time — allow a
        // bit more in unoptimized debug builds.
        assert!(fraction < 0.05, "scheduling overhead fraction {fraction}");
    }
}
