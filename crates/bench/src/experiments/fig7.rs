//! Figure 7: average query latency under a varying number of concurrent
//! queries (1–32) reading 5 %, 20 % or 50 % of the relation — plus the
//! outstanding-I/O sweep of the asynchronous scheduler (how simulated scan
//! throughput scales with the number of in-flight chunk loads on an
//! explicit 4-spindle array — virtual time, so its rendering is the
//! committed `BENCH_io.json` byte for byte), plus the *threaded* scaling
//! gate: real OS threads against the live executor, bounding how
//! delivered-chunk throughput and scheduler-lock hold times scale from 16 to
//! 256 concurrent scan threads.

use crate::harness::Scale;
use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::sim::{SimConfig, Simulation};
use cscan_simdisk::{DiskModel, RaidConfig, SimDuration, MIB};
use cscan_workload::lineitem::{lineitem_nsm_model, NSM_CHUNK_BYTES};
use cscan_workload::queries::QueryClass;
use cscan_workload::streams::uniform_streams;
use std::fmt::Write as _;
use std::time::Duration;

/// One measurement of the sweep.
#[derive(Debug, Clone)]
pub struct Fig7Point {
    /// Scan size in percent of the table (5, 20 or 50).
    pub percent: u32,
    /// Number of concurrent single-query streams.
    pub queries: usize,
    /// The policy.
    pub policy: PolicyKind,
    /// Average query latency in seconds.
    pub avg_latency: f64,
}

/// The concurrency levels swept.
pub const CONCURRENCY: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The scan sizes swept (percent of the table).
pub const PERCENTS: [u32; 3] = [5, 20, 50];

/// The table and buffer used (SF-10 with a 1 GB buffer in the paper).  The
/// stream stagger is short so that all `n` queries genuinely overlap.
pub fn setup(scale: Scale) -> (TableModel, SimConfig) {
    let model = lineitem_nsm_model(scale.nsm_scale_factor());
    let config = SimConfig::default()
        .with_buffer_chunks(scale.nsm_buffer_chunks())
        .with_stagger(cscan_simdisk::SimDuration::from_millis(500));
    (model, config)
}

/// Runs the Figure 7 sweep.  `concurrency_limit` truncates the sweep for
/// quick runs.
pub fn run(scale: Scale, seed: u64, concurrency_limit: Option<usize>) -> Vec<Fig7Point> {
    let (model, config) = setup(scale);
    let mut points = Vec::new();
    for &percent in &PERCENTS {
        for &n in CONCURRENCY
            .iter()
            .filter(|&&n| n <= concurrency_limit.unwrap_or(usize::MAX))
        {
            let class = QueryClass::fast(percent);
            let streams = uniform_streams(class, n, &model, None, seed + n as u64);
            for policy in PolicyKind::ALL {
                let mut sim = Simulation::new(model.clone(), policy, config);
                sim.submit_streams(streams.clone());
                let result = sim.run();
                points.push(Fig7Point {
                    percent,
                    queries: n,
                    policy,
                    avg_latency: result.avg_latency(),
                });
            }
        }
    }
    points
}

// ----------------------------------------------------------------------
// Outstanding-I/O sweep (`SimConfig::max_outstanding_io`).
// ----------------------------------------------------------------------

/// The outstanding-load budgets swept.
pub const OUTSTANDING: [usize; 4] = [1, 2, 4, 8];

/// One measurement of the outstanding-I/O sweep.
#[derive(Debug, Clone)]
pub struct IoSweepPoint {
    /// Outstanding-load budget (K).
    pub outstanding: usize,
    /// Number of concurrent single-query streams.
    pub queries: usize,
    /// Total (virtual) run time in seconds.
    pub total_secs: f64,
    /// Simulated scan throughput: bytes read from disk per second of run
    /// time, in MiB/s.
    pub throughput_mib_s: f64,
    /// Average query latency in seconds.
    pub avg_latency: f64,
    /// Chunk loads issued.
    pub io_requests: u64,
    /// Most loads actually in flight at once.
    pub peak_outstanding: usize,
    /// Deepest per-spindle submission queue sampled.
    pub max_queue_depth: u32,
}

/// The sweep's storage: an explicit 4-spindle array striped at chunk
/// granularity, so each 16 MiB chunk read is bound to one ~55 MB/s arm and
/// only multiple outstanding loads can use the aggregate bandwidth — the
/// regime the paper's "4-way RAID delivering slightly over 200 MB/s"
/// implies for chunk-sized requests.
pub fn io_sweep_raid() -> RaidConfig {
    RaidConfig {
        spindles: 4,
        stripe_unit: NSM_CHUNK_BYTES,
        disk: DiskModel::default(),
    }
}

/// The table and base configuration of the outstanding-I/O sweep.  Plenty
/// of cores and a short stagger keep the runs I/O-bound and genuinely
/// concurrent, so the sweep isolates the scheduler.
pub fn io_sweep_setup(scale: Scale) -> (TableModel, SimConfig) {
    let model = lineitem_nsm_model(scale.nsm_scale_factor());
    let config = SimConfig::default()
        .with_buffer_chunks(scale.nsm_buffer_chunks())
        .with_cores(8)
        .with_raid(io_sweep_raid())
        .with_stagger(SimDuration::from_millis(100))
        .with_trace(true);
    (model, config)
}

/// Concurrent single-query streams in the sweep `BENCH_io.json` records.
pub const TRACKED_IO_QUERIES: usize = 64;
/// Stream seed of the sweep `BENCH_io.json` records.
pub const TRACKED_IO_SEED: u64 = 7;

/// Runs the outstanding-I/O sweep: `queries` concurrent FAST-20% scans
/// under the relevance policy, once per budget in [`OUTSTANDING`].
pub fn run_io_sweep(scale: Scale, queries: usize, seed: u64) -> Vec<IoSweepPoint> {
    let (model, config) = io_sweep_setup(scale);
    let streams = uniform_streams(QueryClass::fast(20), queries, &model, None, seed);
    OUTSTANDING
        .iter()
        .map(|&k| {
            let mut sim = Simulation::new(
                model.clone(),
                PolicyKind::Relevance,
                config.with_outstanding_io(k),
            );
            sim.submit_streams(streams.clone());
            let r = sim.run();
            let total_secs = r.total_time.as_secs_f64();
            let throughput_mib_s = if total_secs > 0.0 {
                r.bytes_read as f64 / total_secs / MIB as f64
            } else {
                0.0
            };
            IoSweepPoint {
                outstanding: k,
                queries,
                total_secs,
                throughput_mib_s,
                avg_latency: r.avg_latency(),
                io_requests: r.io_requests,
                peak_outstanding: r.peak_outstanding_io,
                max_queue_depth: r.depth_trace.max_depth(),
            }
        })
        .collect()
}

/// Renders the outstanding-I/O sweep as the JSON committed in
/// `BENCH_io.json` (hand-rolled: the workspace deliberately has no
/// serde_json dependency).
pub fn render_io_sweep_json(points: &[IoSweepPoint]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"fig7_io_sweep\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"outstanding\": {}, \"queries\": {}, \"throughput_mib_s\": {:.3}, \
             \"total_secs\": {:.3}, \"avg_latency_secs\": {:.3}, \"io_requests\": {}, \
             \"peak_outstanding\": {}, \"max_queue_depth\": {}}}{sep}",
            p.outstanding,
            p.queries,
            p.throughput_mib_s,
            p.total_secs,
            p.avg_latency,
            p.io_requests,
            p.peak_outstanding,
            p.max_queue_depth
        );
    }
    let speedup = match (
        points.iter().find(|p| p.outstanding == 1),
        points.iter().find(|p| p.outstanding == 8),
    ) {
        (Some(a), Some(b)) if a.throughput_mib_s > 0.0 => b.throughput_mib_s / a.throughput_mib_s,
        _ => 0.0,
    };
    let _ = writeln!(out, "  ],\n  \"k8_vs_k1_speedup\": {speedup:.3}\n}}");
    out
}

// ----------------------------------------------------------------------
// Threaded executor scaling (real OS threads, targeted wakeups).
// ----------------------------------------------------------------------

/// One threaded measurement.
#[derive(Debug, Clone)]
pub struct ThreadSweepPoint {
    /// Number of concurrent scan (consumer) threads.
    pub threads: usize,
    /// I/O worker pool size.
    pub io_threads: usize,
    /// Chunks delivered to consumers per wall-clock second, summed over all
    /// scans — the executor's aggregate throughput.
    pub chunks_per_sec: f64,
    /// Chunk loads the ABM committed (sharing makes this far smaller than
    /// threads × chunks).
    pub loads: u64,
    /// Scheduler-lock critical sections recorded during the run.
    pub lock_acquisitions: u64,
    /// Median scheduler-lock hold time (bucket upper bound), nanoseconds.
    pub lock_p50_ns: u64,
    /// 99th-percentile scheduler-lock hold time (bucket upper bound),
    /// nanoseconds.
    pub lock_p99_ns: u64,
    /// Longest scheduler-lock hold (bucket upper bound), nanoseconds.
    pub lock_max_ns: u64,
}

/// Runs one threaded measurement: `threads` concurrent full scans of a
/// `chunks`-chunk NSM table through a live
/// [`ScanServer`](cscan_core::threaded::ScanServer), returning the
/// aggregate delivered-chunk throughput and the lock hold-time histogram.
///
/// All scans are registered before any consumer starts, so the sharing
/// opportunity (one load feeds every scan) is identical at every thread
/// count; what the sweep isolates is the executor's concurrency
/// architecture — plan/commit critical sections and targeted wakeups —
/// under growing consumer parallelism.
pub fn run_threaded_once(
    threads: usize,
    io_threads: usize,
    chunks: u32,
    io_cost_per_page: Duration,
) -> ThreadSweepPoint {
    use cscan_core::threaded::ScanServer;
    use cscan_core::CScanPlan;
    use cscan_storage::ScanRanges;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    let model = TableModel::nsm_uniform(chunks, 1_000, 16);
    let server = Arc::new(
        ScanServer::builder(model.clone())
            .policy(PolicyKind::Relevance)
            .buffer_chunks((chunks as u64 / 8).max(4))
            .io_cost_per_page(io_cost_per_page)
            .io_threads(io_threads)
            .build(),
    );
    // Register everything up front, then release all consumers at once.
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            server.cscan(CScanPlan::new(
                format!("t{i}"),
                ScanRanges::full(chunks),
                model.all_columns(),
            ))
        })
        .collect();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let delivered = Arc::new(AtomicU64::new(0));
    let consumers: Vec<_> = handles
        .into_iter()
        .map(|handle| {
            let barrier = Arc::clone(&barrier);
            let delivered = Arc::clone(&delivered);
            std::thread::spawn(move || {
                barrier.wait();
                let mut n = 0u64;
                while let Some(guard) = handle.next_chunk().expect("fault-free scan") {
                    guard.complete();
                    n += 1;
                }
                handle.finish();
                delivered.fetch_add(n, Ordering::Relaxed);
            })
        })
        .collect();
    barrier.wait();
    let started = std::time::Instant::now();
    for c in consumers {
        c.join().expect("a scan thread panicked");
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let total = delivered.load(Ordering::Relaxed);
    let snap = server.metrics().snapshot();
    let holds = snap.span("lock_hold");
    ThreadSweepPoint {
        threads,
        io_threads,
        chunks_per_sec: total as f64 / wall_secs,
        loads: snap.counter("loads_completed"),
        lock_acquisitions: holds.count(),
        lock_p50_ns: holds.p50(),
        lock_p99_ns: holds.p99(),
        lock_max_ns: holds.max_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(points: &[Fig7Point], percent: u32, n: usize, policy: PolicyKind) -> f64 {
        points
            .iter()
            .find(|p| p.percent == percent && p.queries == n && p.policy == policy)
            .expect("missing point")
            .avg_latency
    }

    #[test]
    fn relevance_gains_grow_with_concurrency() {
        let points = run(Scale::Quick, 23, Some(8));
        // With a single query all policies are (nearly) identical.
        for percent in PERCENTS {
            let rel = find(&points, percent, 1, PolicyKind::Relevance);
            let norm = find(&points, percent, 1, PolicyKind::Normal);
            assert!(
                (rel - norm).abs() / norm.max(1e-9) < 0.15,
                "single-query latencies should roughly agree: {rel} vs {norm}"
            );
        }
        // At 8 concurrent 50% scans, relevance is clearly better than normal,
        // and the advantage at 8 queries exceeds the advantage at 2.
        let rel8 = find(&points, 50, 8, PolicyKind::Relevance);
        let norm8 = find(&points, 50, 8, PolicyKind::Normal);
        assert!(rel8 < norm8, "relevance {rel8} vs normal {norm8}");
        let ratio2 = find(&points, 50, 2, PolicyKind::Normal)
            / find(&points, 50, 2, PolicyKind::Relevance).max(1e-9);
        let ratio8 = norm8 / rel8.max(1e-9);
        assert!(
            ratio8 >= ratio2 * 0.9,
            "the advantage should grow (or at least not collapse): {ratio2} -> {ratio8}"
        );
        // Without sharing, latency can only grow with concurrency; the
        // cooperative policies are allowed to beat their standalone time
        // because later queries reuse buffered chunks.
        let one = find(&points, 50, 1, PolicyKind::Normal);
        let eight = find(&points, 50, 8, PolicyKind::Normal);
        assert!(eight >= one * 0.9, "normal: {one} -> {eight}");
    }

    #[test]
    fn io_sweep_smoke() {
        // A small sweep exercises the whole path (RAID routing, scheduler,
        // depth tracing) without release-build timing assumptions.
        let points = run_io_sweep(Scale::Quick, 8, 11);
        assert_eq!(points.len(), OUTSTANDING.len());
        for p in &points {
            assert!(p.total_secs > 0.0);
            assert!(p.throughput_mib_s > 0.0);
            assert!(p.io_requests > 0);
            assert!(p.peak_outstanding >= 1 && p.peak_outstanding <= p.outstanding);
            assert!(p.max_queue_depth >= 1);
        }
        assert_eq!(points[0].peak_outstanding, 1, "K=1 stays sequential");
    }

    /// `BENCH_io.json` is a committed number, so a re-run must reproduce it
    /// byte for byte: the sweep is virtual time, and this fails when either
    /// the file or anything under `run_io_sweep` (policy, scheduler, disk
    /// model, workload generator) drifts.  Regenerate with
    /// `cargo run --release -p cscan_bench --bin fig7_io_sweep`.
    #[test]
    fn committed_bench_io_json_is_what_the_sweep_renders() {
        let points = run_io_sweep(Scale::Quick, TRACKED_IO_QUERIES, TRACKED_IO_SEED);
        assert_eq!(
            render_io_sweep_json(&points),
            include_str!("../../../../BENCH_io.json"),
            "BENCH_io.json is stale, or the simulated sweep changed"
        );
    }

    #[test]
    fn thread_sweep_smoke() {
        // Tiny sizes: exercises the whole path (real threads, plan/commit,
        // targeted wakeups, histogram) without release-build timing
        // assumptions — debug builds re-run every decision's brute twin.
        let p = run_threaded_once(4, 2, 16, Duration::ZERO);
        assert_eq!(p.threads, 4);
        assert_eq!(p.io_threads, 2);
        assert!(p.chunks_per_sec > 0.0);
        assert!(p.loads >= 16, "every chunk must be read at least once");
        assert!(p.lock_acquisitions > 0);
        assert!(p.lock_p50_ns <= p.lock_p99_ns && p.lock_p99_ns <= p.lock_max_ns);
    }

    /// The PR's acceptance criterion: 256 concurrent scan threads must
    /// deliver at least 2.5× the aggregate chunk throughput of 16 threads —
    /// the shared loads feed 16× the consumers, so the grant mailboxes and
    /// targeted wakeups have lots of headroom, while a consumer that runs
    /// the policy itself under the lock (or a notify_all stampede) eats the
    /// gain.  The scheduler-lock p99 is gated too: that lock guards every
    /// decision and every frame pin and release, and its critical sections
    /// must stay in the tens-of-microseconds range even with every consumer
    /// releasing through it.  Release builds only: under
    /// `debug_assertions` every scheduling decision re-runs its
    /// brute-force twin, which distorts lock hold times.  The ratio is
    /// asserted only where `available_parallelism()` is at least 4.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "thread-scaling gate is measured in release builds only"
    )]
    fn thread_sweep_throughput_scales() {
        // Full scans of a 256-chunk table over a 4-worker I/O pool.  The
        // per-page cost (50 µs, i.e. 800 µs per 16-page chunk read) keeps
        // the 16-thread baseline I/O-bound — the fig7 regime — so the ratio
        // measures how much consumer parallelism the executor can feed from
        // the same shared loads before the ABM lock, not the disk, becomes
        // the ceiling.
        let at = |threads| run_threaded_once(threads, 4, 256, Duration::from_micros(50));
        let base = at(16);
        let wide = at(256);
        let ratio = wide.chunks_per_sec / base.chunks_per_sec;
        // 256 runnable threads need cores to scale onto: below four the
        // ratio measures the box's time-slicing (2.1–2.4× on two cores),
        // so it is reported and only the lock bound below is asserted.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "thread sweep: {:.0} chunks/s (16) vs {:.0} chunks/s (256), {ratio:.2}x on {cores} cores",
            base.chunks_per_sec, wide.chunks_per_sec
        );
        if cores >= 4 {
            assert!(
                ratio >= 2.5,
                "expected >= 2.5x delivered-chunk throughput at 256 threads, measured {ratio:.2}x"
            );
        }
        // A scheduler critical section is a plan, a commit or a release
        // (policy decision, frame pin or unpin, grant deposit); 64 µs of
        // p99 is a few times the 16 µs bucket it lands in on two cores.
        // Only the p99 is gated — the recorded *max* can be an arbitrary
        // preemption artifact on a loaded (or single-core) CI box, where a
        // thread can lose the CPU while holding the lock.
        assert!(
            wide.lock_p99_ns <= 64_000,
            "scheduler-lock p99 too high at 256 threads: {} ns (max {} ns)",
            wide.lock_p99_ns,
            wide.lock_max_ns
        );
    }

    /// The PR's acceptance criterion: at 64 concurrent queries on the
    /// 4-spindle array, 8 outstanding I/Os deliver at least 1.3× the
    /// simulated scan throughput of the single-outstanding baseline.  (The
    /// observed ratio is ~3–4×: each chunk load is bound to one of the four
    /// arms, so the sequential main loop leaves three arms idle.)  Release
    /// builds only — under `debug_assertions` every scheduling decision
    /// re-runs its brute-force twin, making the 64-query sweep needlessly
    /// slow for CI.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "throughput gate is measured in release builds only"
    )]
    fn io_throughput_speedup_at_64_queries() {
        let points = run_io_sweep(Scale::Quick, TRACKED_IO_QUERIES, TRACKED_IO_SEED);
        let at = |k: usize| {
            points
                .iter()
                .find(|p| p.outstanding == k)
                .expect("missing point")
        };
        let base = at(1);
        let deep = at(8);
        assert!(
            deep.peak_outstanding > 1,
            "the pipeline never filled: peak {}",
            deep.peak_outstanding
        );
        assert!(
            deep.throughput_mib_s >= 1.3 * base.throughput_mib_s,
            "expected ≥1.3× scan throughput with 8 outstanding I/Os: \
             {:.1} MiB/s (K=1) vs {:.1} MiB/s (K=8, {:.2}×)",
            base.throughput_mib_s,
            deep.throughput_mib_s,
            deep.throughput_mib_s / base.throughput_mib_s
        );
    }
}
