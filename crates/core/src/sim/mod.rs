//! Deterministic discrete-event simulation of concurrent Cooperative Scans.
//!
//! The simulation combines the three resources the paper's experiments
//! exercise: simulated storage (one [`cscan_simdisk::RaidArray`] built
//! from [`SimConfig::raid`], by default the paper's RAID as one aggregate
//! spindle), a processor-sharing CPU ([`cscan_engine::SharedCpu`]) on
//! which every running query processes its current chunk, and the Active
//! Buffer Manager deciding what to read and evict.  Every decision is made
//! by the scheduler core ([`crate::sched::Scheduler`]) the threaded server
//! calls too; the event loop pops the next event into it and applies what
//! it returns.  A query's registration and each `CpuDone` (a release)
//! become core calls, a grant starts a CPU job, and a close records the
//! query's outcome and starts its stream's next query.  Whenever an event
//! leaves the pipeline with room, the core plans up to
//! [`SimConfig::max_outstanding_io`] minus the loads in flight; each plan's
//! regions go to the device's per-spindle queues, and its `DiskDone` is
//! committed in whatever order the spindles finish — a completion whose
//! load was aborted meanwhile being dropped by the stamp check.  With the
//! default budget of 1 that is the paper's sequential main loop
//! decision-for-decision; larger budgets keep several loads in flight and
//! overlap the spindles.  Query streams start with a configurable stagger
//! and run their queries back-to-back, exactly like the benchmark setup of
//! Section 5.1.
//!
//! Everything runs in virtual time, so a 16-stream TPC-H-scale experiment
//! takes milliseconds of wall-clock time and two runs with the same inputs
//! produce byte-identical results.

mod config;
mod metrics;
mod spec;

pub use config::{BufferSpec, SimConfig};
pub use metrics::{QueryOutcome, RunResult};
pub use spec::QuerySpec;

use crate::abm::LoadPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::retry::RetryPolicy;
use crate::sched::{Effect, QueryTotals, Scheduler};
use cscan_engine::{EventQueue, JobId, SharedCpu};
use cscan_simdisk::{IoTrace, QueueDepthTrace, RaidArray, SimDuration, SimTime};
use cscan_storage::{ChunkId, ChunkPayload};

/// Events driving the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Start the next query of stream `stream`.
    StreamAdvance { stream: usize },
    /// The load of `chunk` planned for `trigger` finished (loads may
    /// complete in any order when several are in flight).  The ticket
    /// lets the commit reject completions of loads that were aborted — and
    /// possibly re-issued — while the event sat in the queue.
    DiskDone {
        chunk: ChunkId,
        ticket: u64,
        trigger: QueryId,
    },
    /// A CPU job (query × chunk) predicted to finish; stale epochs are ignored.
    CpuDone { job: JobId, epoch: u64 },
}

/// A deterministic simulated execution of a set of query streams.
pub struct Simulation {
    model: TableModel,
    policy: PolicyKind,
    config: SimConfig,
    streams: Vec<Vec<QuerySpec>>,
}

impl Simulation {
    /// Creates a simulation of `model` under `policy`.
    pub fn new(model: TableModel, policy: PolicyKind, config: SimConfig) -> Self {
        Self {
            model,
            policy,
            config,
            streams: Vec::new(),
        }
    }

    /// Adds a stream of queries that will run back-to-back.
    pub fn submit_stream(&mut self, queries: Vec<QuerySpec>) {
        self.streams.push(queries);
    }

    /// Adds several streams at once.
    pub fn submit_streams(&mut self, streams: Vec<Vec<QuerySpec>>) {
        self.streams.extend(streams);
    }

    /// Runs the simulation to completion and returns the collected metrics.
    pub fn run(&mut self) -> RunResult {
        Runner::new(&self.model, self.policy, self.config, &self.streams).run()
    }

    /// Convenience: run a single query by itself against a cold buffer and
    /// return its latency in seconds.  This is the "standalone cold time" the
    /// paper uses as the denominator of normalized latencies.
    pub fn standalone_latency(
        model: &TableModel,
        policy: PolicyKind,
        config: SimConfig,
        query: &QuerySpec,
    ) -> f64 {
        let mut sim = Simulation::new(model.clone(), policy, config);
        sim.submit_stream(vec![query.clone()]);
        let result = sim.run();
        result
            .queries
            .first()
            .map(|q| q.latency().as_secs_f64())
            .unwrap_or(0.0)
    }
}

/// The actual event loop, borrowed from a [`Simulation`] for one run.
struct Runner<'a> {
    model: &'a TableModel,
    config: SimConfig,
    streams: &'a [Vec<QuerySpec>],
    /// The scheduler core; a query's value is its stream and its index in
    /// that stream.
    core: Scheduler<(usize, usize)>,
    /// Reused list the core's effects are applied from.
    effects: Vec<Effect<(usize, usize)>>,
    storage: RaidArray,
    /// Most loads ever in flight at once.
    peak_outstanding_io: usize,
    cpu: SharedCpu,
    queue: EventQueue<Event>,
    cpu_epoch: u64,
    /// Whether the CPU's job set changed since its next completion was last
    /// predicted ([`Runner::flush_cpu`]).
    cpu_dirty: bool,
    stream_cursor: Vec<usize>,
    stream_starts: Vec<SimTime>,
    stream_ends: Vec<SimTime>,
    outcomes: Vec<QueryOutcome>,
    trace: IoTrace,
    depth_trace: QueueDepthTrace,
    /// Reused buffer for the plans admitted by one scheduling burst.
    plan_scratch: Vec<LoadPlan>,
}

impl<'a> Runner<'a> {
    fn new(
        model: &'a TableModel,
        policy: PolicyKind,
        config: SimConfig,
        streams: &'a [Vec<QuerySpec>],
    ) -> Self {
        let capacity = config.buffer_pages(model);
        // The simulator records no metrics.
        let obs = crate::abm::no_metrics();
        Self {
            model,
            config,
            streams,
            core: Scheduler::new(model.clone(), capacity, policy, RetryPolicy::default(), obs),
            effects: Vec::new(),
            storage: RaidArray::new(config.raid),
            peak_outstanding_io: 0,
            cpu: SharedCpu::new(config.cores),
            queue: EventQueue::new(),
            cpu_epoch: 0,
            cpu_dirty: false,
            stream_cursor: vec![0; streams.len()],
            stream_starts: vec![SimTime::ZERO; streams.len()],
            stream_ends: vec![SimTime::ZERO; streams.len()],
            outcomes: Vec::new(),
            trace: IoTrace::new(),
            depth_trace: QueueDepthTrace::new(),
            plan_scratch: Vec::new(),
        }
    }

    fn run(mut self) -> RunResult {
        // Stagger the streams as in the paper's benchmark setup.
        for (i, stream) in self.streams.iter().enumerate() {
            let start = SimTime::ZERO + self.config.stream_stagger.mul_f64(i as f64);
            self.stream_starts[i] = start;
            self.stream_ends[i] = start;
            if !stream.is_empty() {
                self.queue
                    .schedule(start, Event::StreamAdvance { stream: i });
            }
        }

        loop {
            match self.queue.pop() {
                Some((now, event)) => {
                    match event {
                        Event::StreamAdvance { stream } => self.on_stream_advance(now, stream),
                        Event::DiskDone {
                            chunk,
                            ticket,
                            trigger,
                        } => self.on_disk_done(now, chunk, ticket, trigger),
                        Event::CpuDone { job, epoch } => self.on_cpu_done(now, job, epoch),
                    }
                    self.flush_cpu(now);
                }
                None if self.core.has_pending_work() => {
                    // Pressure-relief valve: with DSM partial residency it is
                    // possible (mainly under `elevator`) for the buffer to be
                    // full of chunks that are interesting to someone but
                    // complete for no one, with every query blocked.  Force
                    // out the least interesting chunk and retry; if that does
                    // not unstick the system, the assert below fires.
                    let now = self.queue.now();
                    if !self.core.force_evict() {
                        break;
                    }
                    self.kick_disk(now);
                    if self.queue.is_empty() {
                        break;
                    }
                }
                None => break,
            }
        }

        assert!(
            !self.core.has_pending_work(),
            "simulation ended with unfinished queries (policy {} deadlocked)",
            self.core.policy_name()
        );

        let makespan = self
            .outcomes
            .iter()
            .map(|o| o.finished_at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .duration_since(SimTime::ZERO);
        self.cpu.advance(SimTime::ZERO + makespan);
        let cpu_utilization = if makespan.is_zero() {
            0.0
        } else {
            self.cpu.stats().utilization(self.config.cores, makespan)
        };
        // Busy time summed over the arms, normalized by their number so a
        // fully pipelined array reads as 1.0.
        let arm_time = makespan.as_secs_f64() * self.storage.spindles() as f64;
        let disk_utilization = if arm_time <= 0.0 {
            0.0
        } else {
            (self.storage.stats().busy.as_secs_f64() / arm_time).min(1.0)
        };
        let state = self.core.state();
        RunResult {
            policy: self.core.policy_name().to_string(),
            total_time: makespan,
            io_requests: state.io_requests(),
            loads_aborted: state.loads_aborted(),
            pages_read: state.pages_read(),
            bytes_read: state.pages_read() * self.model.page_size(),
            cpu_utilization,
            disk_utilization,
            peak_outstanding_io: self.peak_outstanding_io,
            queries: self.outcomes,
            stream_starts: self.stream_starts,
            stream_ends: self.stream_ends,
            trace: self.trace,
            depth_trace: self.depth_trace,
        }
    }

    // ------------------------------------------------------------------
    // Event handlers: each hands the event to the core, applies what it
    // decided, then lets the disk plan.
    // ------------------------------------------------------------------

    fn on_stream_advance(&mut self, now: SimTime, stream: usize) {
        let index = self.stream_cursor[stream];
        let Some(spec) = self.streams[stream].get(index) else {
            return;
        };
        self.stream_cursor[stream] += 1;
        // An empty scan (e.g. a predicate no chunk matches) closes at once.
        self.core.register(&spec.plan, (stream, index), now);
        self.apply(now);
        self.kick_disk(now);
    }

    fn on_disk_done(&mut self, now: SimTime, chunk: ChunkId, ticket: u64, trigger: QueryId) {
        // A completion whose load was aborted mid-read (its last interested
        // query detached) is stale: the ticket check drops it.
        let payload = ChunkPayload::Missing;
        let committed = self.core.commit(chunk, ticket, payload, now).is_some();
        if committed && self.config.record_trace {
            self.trace.record(now, chunk.index(), trigger.0);
        }
        self.apply(now);
        self.kick_disk(now);
    }

    fn on_cpu_done(&mut self, now: SimTime, job: JobId, epoch: u64) {
        if epoch != self.cpu_epoch {
            return; // Stale prediction: the job set changed since it was scheduled.
        }
        self.cpu.advance(now);
        let query = QueryId(job.0);
        let Some(&(stream, index)) = self.core.query(query) else {
            return;
        };
        let chunk = self
            .core
            .state()
            .query(query)
            .processing
            .expect("CPU completion for an idle query");
        debug_assert!(
            self.cpu.is_done(job),
            "CPU completion fired early for {query:?}"
        );
        self.cpu
            .complete_job(now, job, self.work(stream, index, chunk));
        // The release closes a query that has consumed its chunks, or its
        // chunk budget (a LIMIT-style scan detaches mid-scan, cancelling
        // loads it was the last interested consumer of).
        self.core.release(query, chunk, now);
        self.apply(now);
        // Consumption changed starvation and residency interest: give the
        // disk a chance to schedule, then re-predict CPU completions — after
        // the events this handler scheduled, not at `complete_job`.
        self.kick_disk(now);
        self.cpu_dirty = true;
    }

    // ------------------------------------------------------------------
    // Actions.
    // ------------------------------------------------------------------

    /// Applies the core's decisions: a grant starts a CPU job, a close
    /// records the query's outcome and starts its stream's next one.
    fn apply(&mut self, now: SimTime) {
        let mut effects = std::mem::take(&mut self.effects);
        self.core.swap_effects(&mut effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Grant {
                    query,
                    chunk,
                    to: (stream, index),
                    ..
                } => {
                    let work = self.work(stream, index, chunk);
                    self.cpu.add_job(now, JobId(query.0), work);
                    self.cpu_dirty = true;
                }
                Effect::Closed {
                    query,
                    to: (stream, _),
                    totals,
                    ..
                } => self.record_outcome(now, query, stream, totals),
                // No simulated load fails, so nothing is quarantined.
                Effect::Quarantined { .. } | Effect::Recycle(_) | Effect::InputsChanged => {}
            }
        }
        self.effects = effects;
    }

    /// CPU work of `chunk` for the `index`-th query of `stream`.
    fn work(&self, stream: usize, index: usize, chunk: ChunkId) -> SimDuration {
        let spec = &self.streams[stream][index];
        SimDuration::from_secs_f64(spec.cpu_seconds_for(self.model.chunk_tuples(chunk)))
    }

    /// If the pipeline has room, ask the ABM for a burst of loads — victims
    /// for the whole burst are evicted while it is planned — and submit
    /// each to the storage.  A load completes when its slowest region does;
    /// regions queue FIFO on their arm, so a load submitted behind
    /// outstanding work starts when the arms free up.
    fn kick_disk(&mut self, now: SimTime) {
        let mut plans = std::mem::take(&mut self.plan_scratch);
        plans.clear();
        let inflight = self.core.state().num_inflight();
        let room = self
            .config
            .max_outstanding_io
            .max(1)
            .saturating_sub(inflight);
        self.core.plan(now, room, &mut plans);
        self.apply(now);
        self.peak_outstanding_io = self
            .peak_outstanding_io
            .max(self.core.state().num_inflight());
        for plan in &plans {
            let completed = plan.regions.iter().fold(now, |done, region| {
                let io = self.storage.submit(now, region.to_io_request());
                done.max(io.completed_at)
            });
            debug_assert!(completed > now, "a load must take time");
            self.flush_cpu(now);
            self.queue.schedule(
                completed,
                Event::DiskDone {
                    chunk: plan.decision.chunk,
                    ticket: plan.ticket,
                    trigger: plan.decision.trigger,
                },
            );
        }
        if self.config.record_trace && !plans.is_empty() {
            self.depth_trace
                .sample(now, &self.storage.queue_depths_at(now));
        }
        self.plan_scratch = plans;
    }

    /// Re-predicts the next CPU completion if the CPU is marked dirty: by a
    /// grant, and at the end of a CPU completion.  It is flushed before any
    /// other event is scheduled and by the event loop after each handler,
    /// so the one valid `CpuDone` keeps its place among the other events'
    /// sequence numbers — the same as re-predicting at every mark — and
    /// only predictions a later mark in the same handler made stale are
    /// never scheduled.
    fn flush_cpu(&mut self, now: SimTime) {
        if !std::mem::take(&mut self.cpu_dirty) {
            return;
        }
        self.cpu.advance(now);
        self.cpu_epoch += 1;
        if let Some((at, job)) = self.cpu.next_completion() {
            self.queue.schedule(
                at,
                Event::CpuDone {
                    job,
                    epoch: self.cpu_epoch,
                },
            );
        }
    }

    /// Records the outcome of a closed query and starts its stream's next
    /// one.
    fn record_outcome(&mut self, now: SimTime, q: QueryId, stream: usize, totals: QueryTotals) {
        self.outcomes.push(QueryOutcome {
            label: totals.label,
            stream,
            query_id: q.0,
            submitted_at: totals.registered_at,
            finished_at: now,
            chunks: totals.processed,
            ios_triggered: totals.ios_triggered,
            blocked: totals.blocked,
        });
        self.stream_ends[stream] = now;
        if self.stream_cursor[stream] < self.streams[stream].len() {
            self.flush_cpu(now);
            self.queue.schedule(now, Event::StreamAdvance { stream });
        }
    }
}

/// Unit tests of the simulated storage device as [`Runner`] drives it: a
/// [`RaidArray`] built from [`SimConfig::raid`], each load's regions
/// submitted together and the load done when its slowest region is.
#[cfg(test)]
mod backend {
    mod tests {
        use crate::sim::SimConfig;
        use cscan_simdisk::{
            Disk, DiskModel, IoRequest, QueueDepthTrace, RaidArray, RaidConfig, SimDuration,
            SimTime, MIB,
        };
        use cscan_storage::PhysRegion;

        /// Submits one load's regions at `now`, as `Runner::kick_disk` does.
        fn submit_load(storage: &mut RaidArray, now: SimTime, regions: &[PhysRegion]) -> SimTime {
            regions.iter().fold(now, |done, region| {
                done.max(storage.submit(now, region.to_io_request()).completed_at)
            })
        }

        #[test]
        fn single_backend_matches_a_plain_disk() {
            let mut storage = RaidArray::new(SimConfig::default().raid);
            assert_eq!(storage.spindles(), 1);
            let region = PhysRegion {
                offset: 0,
                len: 16 * MIB,
            };
            let done = submit_load(&mut storage, SimTime::ZERO, &[region]);
            let mut reference = Disk::new(DiskModel::paper_raid());
            let expected = reference
                .submit(SimTime::ZERO, IoRequest::chunk_read(0, 16 * MIB))
                .completed_at;
            assert_eq!(done, expected);
            assert_eq!(storage.stats(), *reference.stats());
        }

        #[test]
        fn raid_backend_overlaps_outstanding_loads() {
            // Chunk-granularity striping: each 8 MiB load lands on one arm,
            // so four loads submitted together finish in about the time of one.
            let config = RaidConfig {
                spindles: 4,
                stripe_unit: 8 * MIB,
                disk: DiskModel {
                    bandwidth_bytes_per_sec: 50 * MIB,
                    avg_seek: SimDuration::from_millis(5),
                    sequential_overhead: SimDuration::ZERO,
                },
            };
            let mut storage = RaidArray::new(SimConfig::default().with_raid(config).raid);
            assert_eq!(storage.spindles(), 4);
            let done = (0..4u64)
                .map(|i| {
                    let region = PhysRegion {
                        offset: i * 8 * MIB,
                        len: 8 * MIB,
                    };
                    submit_load(&mut storage, SimTime::ZERO, &[region])
                })
                .max()
                .unwrap();
            let secs = done.as_secs_f64();
            assert!(
                secs < 0.25,
                "four arm-bound loads should overlap (~0.165s each), got {secs}s"
            );
            let mut depths = QueueDepthTrace::new();
            depths.sample(SimTime::ZERO, &storage.queue_depths_at(SimTime::ZERO));
            assert_eq!(depths.events().len(), 4);
            assert_eq!(depths.max_depth(), 1, "one load per arm");
            assert_eq!(storage.stats().requests, 4);
            // Busy time over the arms, as the runner's disk utilization.
            let arm_time = secs * storage.spindles() as f64;
            let util = storage.stats().busy.as_secs_f64() / arm_time;
            assert!(util > 0.9, "all arms busy the whole time, got {util}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colset::ColSet;
    use cscan_storage::{ColumnId, ScanRanges};

    /// A small NSM table: 64 chunks, 100k tuples and 256 pages (16 MiB) each.
    fn small_model() -> TableModel {
        TableModel::nsm_uniform(64, 100_000, 256)
    }

    fn fast(label: &str, ranges: Option<ScanRanges>) -> QuerySpec {
        match ranges {
            Some(r) => QuerySpec::range_scan(label, r, 20_000_000.0),
            None => QuerySpec::full_scan(label, 20_000_000.0),
        }
    }

    fn slow(label: &str, ranges: Option<ScanRanges>) -> QuerySpec {
        match ranges {
            Some(r) => QuerySpec::range_scan(label, r, 1_000_000.0),
            None => QuerySpec::full_scan(label, 1_000_000.0),
        }
    }

    fn run(policy: PolicyKind, streams: Vec<Vec<QuerySpec>>, buffer_chunks: u64) -> RunResult {
        let mut sim = Simulation::new(
            small_model(),
            policy,
            SimConfig::default()
                .with_buffer_chunks(buffer_chunks)
                .with_trace(true),
        );
        sim.submit_streams(streams);
        sim.run()
    }

    #[test]
    fn single_full_scan_is_io_bound_and_reads_everything_once() {
        for policy in PolicyKind::ALL {
            let r = run(policy, vec![vec![fast("F-100", None)]], 16);
            assert_eq!(r.queries.len(), 1, "{policy}");
            assert_eq!(r.io_requests, 64, "{policy}: every chunk read exactly once");
            assert_eq!(r.pages_read, 64 * 256, "{policy}");
            // ~1 GiB at ~205 MiB/s is about 5 seconds.
            let latency = r.queries[0].latency().as_secs_f64();
            assert!(
                latency > 3.0 && latency < 12.0,
                "{policy}: latency {latency}"
            );
            assert!(r.trace.len() == 64, "{policy}");
        }
    }

    #[test]
    fn identical_concurrent_scans_share_io_except_normal() {
        // Two full scans, the second starting 3 seconds (≈ 38 chunks) after
        // the first with a 16-chunk buffer.  The cooperative policies share
        // everything that can still be shared; `normal` shares essentially
        // nothing because the second scan starts again from chunk 0.
        let streams = vec![vec![fast("F-100", None)], vec![fast("F-100", None)]];
        let mut io = std::collections::HashMap::new();
        for policy in PolicyKind::ALL {
            let r = run(policy, streams.clone(), 16);
            assert_eq!(r.queries.len(), 2);
            io.insert(policy, r.io_requests);
        }
        for policy in [
            PolicyKind::Attach,
            PolicyKind::Elevator,
            PolicyKind::Relevance,
        ] {
            assert!(
                io[&policy] < io[&PolicyKind::Normal],
                "{policy}: {} vs normal {}",
                io[&policy],
                io[&PolicyKind::Normal]
            );
            assert!(
                io[&policy] <= 110,
                "{policy}: sharing bound, got {}",
                io[&policy]
            );
        }
        assert!(
            io[&PolicyKind::Normal] >= 115,
            "normal should nearly double the I/O, got {}",
            io[&PolicyKind::Normal]
        );
        // Relevance additionally reuses the still-buffered chunks the first
        // scan left behind, so it needs the fewest reads of all.
        assert!(io[&PolicyKind::Relevance] <= io[&PolicyKind::Attach]);
        assert!(io[&PolicyKind::Relevance] <= io[&PolicyKind::Elevator]);
    }

    #[test]
    fn relevance_beats_normal_on_mixed_load() {
        let mix = |i: usize| {
            vec![
                fast(
                    "F-25",
                    Some(ScanRanges::single(
                        (i as u32 * 7) % 40,
                        (i as u32 * 7) % 40 + 16,
                    )),
                ),
                slow(
                    "S-25",
                    Some(ScanRanges::single(
                        (i as u32 * 11) % 40,
                        (i as u32 * 11) % 40 + 16,
                    )),
                ),
            ]
        };
        let streams: Vec<Vec<QuerySpec>> = (0..6).map(mix).collect();
        let normal = run(PolicyKind::Normal, streams.clone(), 8);
        let relevance = run(PolicyKind::Relevance, streams, 8);
        assert!(
            relevance.io_requests < normal.io_requests,
            "relevance {} vs normal {}",
            relevance.io_requests,
            normal.io_requests
        );
        assert!(
            relevance.avg_stream_time() <= normal.avg_stream_time() * 1.10,
            "relevance {} vs normal {}",
            relevance.avg_stream_time(),
            normal.avg_stream_time()
        );
    }

    #[test]
    fn streams_run_queries_back_to_back() {
        let r = run(
            PolicyKind::Relevance,
            vec![vec![
                fast("F-10", Some(ScanRanges::single(0, 6))),
                fast("F-10b", Some(ScanRanges::single(30, 36))),
            ]],
            16,
        );
        assert_eq!(r.queries.len(), 2);
        let first = &r.queries[0];
        let second = &r.queries[1];
        assert_eq!(first.label, "F-10");
        assert_eq!(second.label, "F-10b");
        assert_eq!(
            second.submitted_at, first.finished_at,
            "the second query starts exactly when the first finishes"
        );
        assert_eq!(r.stream_ends[0], second.finished_at);
    }

    #[test]
    fn stagger_delays_later_streams() {
        let r = run(
            PolicyKind::Elevator,
            vec![
                vec![fast("F-10", Some(ScanRanges::single(0, 6)))],
                vec![fast("F-10", Some(ScanRanges::single(0, 6)))],
            ],
            16,
        );
        assert_eq!(r.stream_starts[0], SimTime::ZERO);
        assert_eq!(r.stream_starts[1], SimTime::from_secs(3));
        let late_query = r.queries.iter().find(|q| q.stream == 1).unwrap();
        assert_eq!(late_query.submitted_at, SimTime::from_secs(3));
    }

    #[test]
    fn cpu_bound_queries_saturate_the_cpu() {
        // Very slow queries on a single core: the CPU is the bottleneck and
        // the disk is mostly idle.
        let very_slow = QuerySpec::range_scan("S-50", ScanRanges::single(0, 32), 200_000.0);
        let mut sim = Simulation::new(
            small_model(),
            PolicyKind::Relevance,
            SimConfig::default().with_buffer_chunks(16).with_cores(1),
        );
        sim.submit_streams(vec![vec![very_slow.clone()], vec![very_slow]]);
        let r = sim.run();
        assert!(
            r.cpu_utilization > 0.7,
            "cpu_utilization {}",
            r.cpu_utilization
        );
        assert!(
            r.disk_utilization < 0.5,
            "disk_utilization {}",
            r.disk_utilization
        );
        assert!(r.cpu_utilization > r.disk_utilization);
    }

    /// Regression test for the ROADMAP's load-aborting item, simulation
    /// side: a LIMIT-style query that detaches mid-scan cancels the
    /// prefetched loads in flight on its behalf; their stale `DiskDone`
    /// events are dropped by the ticket check instead of installing dead
    /// chunks (or panicking the scheduler).
    #[test]
    fn chunk_limited_query_aborts_inflight_loads() {
        let mut sim = Simulation::new(
            small_model(),
            PolicyKind::Relevance,
            SimConfig::default()
                .with_buffer_chunks(16)
                .with_outstanding_io(8),
        );
        sim.submit_stream(vec![
            QuerySpec::full_scan("L-2", 20_000_000.0).with_chunk_limit(2)
        ]);
        let r = sim.run();
        assert_eq!(r.queries.len(), 1);
        assert_eq!(r.queries[0].chunks, 2, "the limit stops the scan early");
        assert!(
            r.loads_aborted > 0,
            "the 8-deep pipeline had prefetches in flight to cancel"
        );
        assert!(
            r.io_requests < 16,
            "an aborted scan must not read on: {} loads",
            r.io_requests
        );
        // A follow-up run on the same config still works with mixed streams.
        let mut sim = Simulation::new(
            small_model(),
            PolicyKind::Relevance,
            SimConfig::default()
                .with_buffer_chunks(16)
                .with_outstanding_io(4),
        );
        sim.submit_streams(vec![
            vec![QuerySpec::full_scan("L-3", 20_000_000.0).with_chunk_limit(3)],
            vec![fast("F-100", None)],
        ]);
        let r = sim.run();
        assert_eq!(r.queries.len(), 2);
        let limited = r.queries.iter().find(|q| q.label == "L-3").unwrap();
        assert_eq!(limited.chunks, 3);
        let full = r.queries.iter().find(|q| q.label == "F-100").unwrap();
        assert_eq!(full.chunks, 64, "the surviving scan still reads everything");
    }

    #[test]
    fn limited_runs_are_deterministic() {
        let run_once = || {
            let mut sim = Simulation::new(
                small_model(),
                PolicyKind::Relevance,
                SimConfig::default()
                    .with_buffer_chunks(8)
                    .with_outstanding_io(4),
            );
            sim.submit_streams(vec![
                vec![QuerySpec::full_scan("L-5", 5_000_000.0).with_chunk_limit(5)],
                vec![slow("S-50", Some(ScanRanges::single(16, 48)))],
            ]);
            sim.run()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.io_requests, b.io_requests);
        assert_eq!(a.loads_aborted, b.loads_aborted);
        assert_eq!(a.total_time, b.total_time);
    }

    #[test]
    fn empty_scan_completes_immediately() {
        let mut sim = Simulation::new(small_model(), PolicyKind::Relevance, SimConfig::default());
        sim.submit_stream(vec![QuerySpec::range_scan(
            "empty",
            ScanRanges::empty(),
            1e6,
        )]);
        let r = sim.run();
        assert_eq!(r.queries.len(), 1);
        assert_eq!(r.queries[0].chunks, 0);
        assert_eq!(r.io_requests, 0);
    }

    #[test]
    fn standalone_latency_helper() {
        let lat = Simulation::standalone_latency(
            &small_model(),
            PolicyKind::Relevance,
            SimConfig::default(),
            &fast("F-100", None),
        );
        assert!(lat > 1.0, "a cold full scan takes seconds, got {lat}");
    }

    #[test]
    fn dsm_queries_only_read_their_columns() {
        let model = TableModel::dsm_uniform(32, 100_000, &[4, 4, 64, 64]);
        let narrow = ColSet::from_columns([ColumnId::new(0), ColumnId::new(1)]);
        let mut sim = Simulation::new(
            model.clone(),
            PolicyKind::Relevance,
            SimConfig::default().with_buffer_fraction(0.25),
        );
        sim.submit_stream(vec![
            QuerySpec::full_scan("narrow", 10_000_000.0).with_columns(narrow)
        ]);
        let r = sim.run();
        assert_eq!(r.io_requests, 32);
        assert_eq!(r.pages_read, 32 * 8, "only the two narrow columns are read");
    }

    #[test]
    fn multi_outstanding_overlaps_arm_bound_loads() {
        // Chunk-granularity striping: every 16 MiB chunk lives on one arm of
        // a 4-spindle array, so a single outstanding load (the paper's main
        // loop) is bound to ~55 MB/s while an 8-deep pipeline spreads across
        // the arms.  Eight fast scans of the whole 1 GiB table keep the
        // scheduler supplied with candidates.
        use cscan_simdisk::{DiskModel, RaidConfig, MIB};
        let raid = RaidConfig {
            spindles: 4,
            stripe_unit: 16 * MIB,
            disk: DiskModel::default(),
        };
        let run_with = |k: usize| {
            let mut sim = Simulation::new(
                small_model(),
                PolicyKind::Relevance,
                SimConfig::default()
                    .with_buffer_chunks(16)
                    .with_raid(raid)
                    .with_outstanding_io(k)
                    .with_trace(true)
                    .with_stagger(SimDuration::from_millis(100)),
            );
            sim.submit_streams((0..8).map(|_| vec![fast("F-100", None)]).collect());
            sim.run()
        };
        let k1 = run_with(1);
        let k8 = run_with(8);
        assert_eq!(k1.peak_outstanding_io, 1);
        assert!(
            k8.peak_outstanding_io > 1,
            "the pipeline never filled: peak {}",
            k8.peak_outstanding_io
        );
        assert!(k8.depth_trace.max_depth() >= 1, "queue depths were sampled");
        let t1 = k1.total_time.as_secs_f64();
        let t8 = k8.total_time.as_secs_f64();
        assert!(
            t8 < t1 * 0.75,
            "8 outstanding loads should clearly beat 1 on a 4-arm array: {t1}s vs {t8}s"
        );
        // Both deliver every query's full scan.
        assert_eq!(k1.queries.len(), 8);
        assert_eq!(k8.queries.len(), 8);
    }

    #[test]
    fn multi_outstanding_runs_are_deterministic() {
        use cscan_simdisk::{DiskModel, RaidConfig, MIB};
        let raid = RaidConfig {
            spindles: 4,
            stripe_unit: 16 * MIB,
            disk: DiskModel::default(),
        };
        let run_once = || {
            let mut sim = Simulation::new(
                small_model(),
                PolicyKind::Relevance,
                SimConfig::default()
                    .with_buffer_chunks(8)
                    .with_raid(raid)
                    .with_outstanding_io(4),
            );
            sim.submit_streams(vec![
                vec![fast("F-50", Some(ScanRanges::single(0, 32)))],
                vec![slow("S-25", Some(ScanRanges::single(10, 26)))],
                vec![slow("S-50", Some(ScanRanges::single(16, 48)))],
            ]);
            sim.run()
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.io_requests, b.io_requests);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.peak_outstanding_io, b.peak_outstanding_io);
        assert_eq!(
            a.queries.iter().map(|q| q.finished_at).collect::<Vec<_>>(),
            b.queries.iter().map(|q| q.finished_at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_policy_completes_with_outstanding_io() {
        // The pipelining must be safe for all four policies, not just
        // relevance (the three that ignore `next_load`'s slot).
        for policy in PolicyKind::ALL {
            let r = {
                let mut sim = Simulation::new(
                    small_model(),
                    policy,
                    SimConfig::default()
                        .with_buffer_chunks(16)
                        .with_outstanding_io(4),
                );
                sim.submit_streams(vec![
                    vec![fast("F-25", Some(ScanRanges::single(0, 16)))],
                    vec![fast("F-25", Some(ScanRanges::single(8, 24)))],
                ]);
                sim.run()
            };
            assert_eq!(r.queries.len(), 2, "{policy}");
            assert!(r.io_requests >= 16, "{policy}");
        }
    }

    #[test]
    fn determinism_same_inputs_same_outputs() {
        let streams = vec![
            vec![
                fast("F-50", Some(ScanRanges::single(0, 32))),
                slow("S-25", Some(ScanRanges::single(10, 26))),
            ],
            vec![slow("S-50", Some(ScanRanges::single(16, 48)))],
        ];
        let a = run(PolicyKind::Relevance, streams.clone(), 8);
        let b = run(PolicyKind::Relevance, streams, 8);
        assert_eq!(a.io_requests, b.io_requests);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(
            a.queries.iter().map(|q| q.finished_at).collect::<Vec<_>>(),
            b.queries.iter().map(|q| q.finished_at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn elevator_has_fewest_ios_on_staggered_full_scans() {
        let streams: Vec<Vec<QuerySpec>> = (0..4).map(|_| vec![slow("S-100", None)]).collect();
        let elevator = run(PolicyKind::Elevator, streams.clone(), 8);
        let normal = run(PolicyKind::Normal, streams, 8);
        assert!(
            elevator.io_requests <= normal.io_requests,
            "elevator {} vs normal {}",
            elevator.io_requests,
            normal.io_requests
        );
    }
}
