//! Figure 8: cost of relevance-based scheduling.
//!
//! The relevance policy's `loadRelevance` must consider every (chunk, query)
//! pair, so its cost grows super-linearly as chunks shrink.  This experiment
//! measures the *actual wall-clock* cost of one full scheduling step
//! (`chooseQueryToProcess` + `chooseChunkToLoad` + victim selection) of this
//! implementation, for a 2 GB relation divided into 128–2048 chunks and
//! queries scanning 1 %, 10 % or 100 % of it, and reports the overhead as a
//! fraction of the (simulated) execution time of the same workload.

use cscan_core::model::TableModel;
use cscan_core::policy::{PolicyKind, RelevancePolicy};
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

/// The heavier concurrency mixes of the incremental-vs-brute-force
/// comparison (the fig7/fig8 regime where scheduling cost used to dominate).
pub const QUERY_MIXES: [usize; 3] = [16, 64, 128];

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

/// The same 2 GB relation as a column store of six columns of unequal width
/// (1 : 1 : 2 : 2 : 4 : 6 sixteenths of a chunk's pages).
pub fn dsm_model_for(num_chunks: u32) -> TableModel {
    let sixteenth = pages_per_chunk(num_chunks) / 16;
    let widths: Vec<u64> = [1, 1, 2, 2, 4, 6].iter().map(|w| w * sixteenth).collect();
    TableModel::dsm_uniform(num_chunks, tuples_per_chunk(num_chunks), &widths)
}

/// The same 2 GB relation as a row store of lineitem's 72-byte tuples,
/// its last chunk 143/256 full as lineitem's is at scale factor 10: the one
/// chunk of the table a load may read fewer pages of than the rest.
pub fn ragged_model_for(num_chunks: u32) -> TableModel {
    let page = cscan_storage::DEFAULT_PAGE_SIZE;
    let pages = pages_per_chunk(num_chunks);
    let schema = cscan_workload::lineitem::lineitem_schema();
    let full = page / schema.tuple_width_uncompressed() * pages;
    let tuples = u64::from(num_chunks - 1) * full + full * 143 / 256;
    TableModel::nsm(&schema, tuples, page, pages * page)
}

/// The three layouts the incremental-vs-brute-force comparison runs on.
pub fn layouts(num_chunks: u32) -> [(&'static str, TableModel); 3] {
    [
        ("nsm", model_for(num_chunks)),
        ("dsm", dsm_model_for(num_chunks)),
        ("nsm, short last chunk", ragged_model_for(num_chunks)),
    ]
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

/// Advances the core by one realistic state transition: complete a planned
/// load if one is possible, otherwise evict a chunk (which re-starves
/// queries and makes the next load plannable).  Keeps the measured
/// scheduler looking at freshly dirtied state on every decision.
fn perturb(core: &mut Scheduler<()>) {
    if !load_one(core) {
        core.force_evict();
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
    use cscan_core::policy::Policy as _;
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

/// Measures the average wall-clock cost of one load decision
/// (`RelevancePolicy::next_load` only) over `model`, in nanoseconds, for
/// either the index walk (default) or the brute-force chunk selection.
///
/// Between decisions the core is advanced by one load completion or eviction,
/// so every decision looks at freshly changed state — the steady-state
/// regime, not a best case over frozen state.
pub fn measure_plan_load(
    model: &TableModel,
    percent: u32,
    queries: usize,
    brute: bool,
    iterations: u32,
) -> f64 {
    let mut core = build_core(model.clone(), percent, queries, 11);
    preload(&mut core);
    let mut policy = if brute {
        RelevancePolicy::brute_force()
    } else {
        RelevancePolicy::new()
    };
    use cscan_core::policy::Policy as _;
    let mut total = std::time::Duration::ZERO;
    let mut decisions = 0u32;
    for _ in 0..iterations {
        perturb(&mut core);
        let start = Instant::now();
        let decision = policy.next_load(core.state(), SimTime::ZERO, 0);
        total += start.elapsed();
        std::hint::black_box(&decision);
        decisions += 1;
    }
    total.as_secs_f64() * 1e9 / decisions.max(1) as f64
}

/// One row of the incremental-vs-brute-force comparison.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Concurrent queries in the mix.
    pub queries: usize,
    /// Number of chunks the relation is divided into.
    pub num_chunks: u32,
    /// Scan size in percent.
    pub percent: u32,
    /// ns per `next_load` decision, brute-force chunk selection.
    pub brute_ns: f64,
    /// ns per `next_load` decision, the bucket walk over the chunk index.
    pub incremental_ns: f64,
}

impl SpeedupPoint {
    /// brute / incremental (higher is better).
    pub fn speedup(&self) -> f64 {
        if self.incremental_ns > 0.0 {
            self.brute_ns / self.incremental_ns
        } else {
            f64::INFINITY
        }
    }
}

/// Measures brute-force vs incremental `next_load` cost for one mix over
/// `model`.
pub fn compare_plan_load(
    model: &TableModel,
    percent: u32,
    queries: usize,
    iterations: u32,
) -> SpeedupPoint {
    let brute_ns = measure_plan_load(model, percent, queries, true, iterations);
    let incremental_ns = measure_plan_load(model, percent, queries, false, iterations);
    SpeedupPoint {
        queries,
        num_chunks: model.num_chunks(),
        percent,
        brute_ns,
        incremental_ns,
    }
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

    #[test]
    fn the_ragged_row_store_is_short_in_its_last_chunk_only() {
        let m = ragged_model_for(2048);
        let all = m.all_columns();
        let pages = |c: u32| m.chunk_pages(cscan_storage::ChunkId::new(c), all);
        assert_eq!(m.num_chunks(), 2048);
        assert_eq!((pages(0), pages(2046), pages(2047)), (16, 16, 9));
    }

    #[test]
    fn plan_load_measurement_is_sane() {
        // Both modes produce positive per-decision times on a small mix.
        for (_, model) in layouts(256) {
            let p = compare_plan_load(&model, 100, 16, 20);
            assert!(p.brute_ns > 0.0 && p.incremental_ns > 0.0);
            assert!(p.speedup().is_finite());
        }
    }

    /// On the 64-query mix the index walk is at least 5× cheaper per
    /// load decision than the brute-force sweep, on the row store, on
    /// the six-column column store of the same 2 GB, and on the row store
    /// whose last chunk is short — the one the walk scores before its bucket
    /// bound, which it would otherwise never reach.  Only meaningful in
    /// release builds — under `debug_assertions` every ABM mutation
    /// re-counts the cached counters (`AbmState::validate_counters`), which
    /// swamps what the walk saves.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "speedup is measured in release builds only"
    )]
    fn incremental_speedup_at_64_queries() {
        for (layout, model) in layouts(2048) {
            let p = compare_plan_load(&model, 100, 64, 300);
            assert!(
                p.speedup() >= 5.0,
                "expected ≥5× speedup at 64 queries ({layout}): brute {} ns vs incremental {} ns ({}×)",
                p.brute_ns,
                p.incremental_ns,
                p.speedup()
            );
        }
    }
}
