//! The four wall-clock workloads: set-up, the closed-loop rounds, the
//! answer check, and the metrics computed from them.
//!
//! Load shape, the same for all four: [`QUERY_THREADS`] closed-loop
//! streams (threads in process, connections for `served_loopback`), each
//! blocking in the engine's designed API, one thread per scan.  One
//! long-lived server runs an untimed warm-up round and then whole timed
//! rounds until `--seconds` have passed, with a barrier at both ends of a
//! round.  A round issues a fixed list of plans, so a rate is the median
//! over rounds and a latency is pooled over every timed round.
//!
//! Between rounds the coordinator scrapes the server's registry with
//! `snapshot_and_reset`, as an operator of a long-running server would: the
//! registry keeps one scope per query until it is scraped, and attaching
//! walks that list, so an unscraped server attaches ever more slowly.

use crate::data::{fold_rows, plain_sum, write_segment, GroupSums, Oracle, Segment};
use crate::gen::{short_plans, streaming_plans};
use crate::probes;
use crate::scratch::ScratchDir;
use crate::spec::{
    Scale, Workload, ADMISSION_CAP, FLAGS, FLAG_COL, IO_THREADS, QTY_COL, QTY_MAX, QUERY_THREADS,
    SERVED_COLUMNS, TABLE_COLUMNS,
};
use crate::stats::{median, percentile, ratio, MIB};
use crate::trace::{self, Span, ThreadTrace, TracedSession};
use crate::{Metrics, RunOutput, RunSpec};
use cscan_bufman::PoolStats;
use cscan_client::ScanClient;
use cscan_core::session::ScanSession;
use cscan_core::threaded::ScanServer;
use cscan_core::{CScanPlan, ColSet, PolicyKind};
use cscan_exec::{AggFunc, DataChunk, Expr, Filter, HashAggregate, Operator, SessionSource};
use cscan_obs::{Counter, HistogramSnapshot, MetricsSnapshot, QueryCounter, Registry, SpanKind};
use cscan_server::{
    model_from_segment, serve, AdmissionConfig, Catalog, ServerConfig, ServerHandle, TableConfig,
};
use cscan_storage::segment::FileStore;
use cscan_storage::ColumnId;
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Catalog name of the served table.
pub const SERVED_TABLE: &str = "lineitem";
/// The segment file's name inside the run's scratch directory.
const SEGMENT_FILE: &str = "table.seg";

/// The program under test, as one workload set it up.  Dropping it stops
/// the program and waits for its threads, on the failure paths too.
pub enum Engine {
    /// A scan server in this process (its `Drop` joins the I/O workers).
    Local(ScanServer),
    /// The same table behind `cscan_server::serve` on loopback.
    Served {
        catalog: Arc<Catalog>,
        /// `Some` until dropped.
        handle: Option<ServerHandle>,
    },
}

impl Engine {
    pub fn server(&self) -> &ScanServer {
        match self {
            Engine::Local(server) => server,
            Engine::Served { catalog, .. } => catalog
                .get(SERVED_TABLE)
                .expect("set-up registered the table")
                .server(),
        }
    }

    pub fn registry(&self) -> Arc<Registry> {
        self.server().metrics()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Engine::Served { handle, .. } = self {
            if let Some(handle) = handle.take() {
                handle.stop();
                handle.join();
            }
        }
    }
}

/// One finished set-up.  Fields drop in this order: connections close
/// before the server stops, and the server stops before its file goes.
struct SetUp {
    clients: Vec<ScanClient>,
    engine: Engine,
    segment: Segment,
    scratch: ScratchDir,
}

/// Sets up `w` and says how long the program's part of it took: segment
/// write, store open, server build and start, client connects.
fn set_up(w: Workload, scale: &Scale) -> io::Result<(SetUp, Duration)> {
    let scratch = ScratchDir::create()?;
    let path = scratch.path().join(SEGMENT_FILE);
    let segment = write_segment(&path, scale, w.compressed())?;
    let starting = Instant::now();
    let engine = match w {
        Workload::ServedLoopback => start_served(&path, scale)?,
        _ => start_local(w, &path, scale)?,
    };
    let clients = match &engine {
        Engine::Served {
            handle: Some(handle),
            ..
        } => (0..QUERY_THREADS)
            .map(|_| ScanClient::connect(handle.addr()))
            .collect::<io::Result<Vec<_>>>()?,
        _ => Vec::new(),
    };
    let took = segment.write_time + starting.elapsed();
    Ok((
        SetUp {
            clients,
            engine,
            segment,
            scratch,
        },
        took,
    ))
}

/// Buffer of workload `w`, in chunks.
fn buffer_chunks(w: Workload, scale: &Scale) -> u64 {
    match w {
        Workload::ShortHot => scale.hot_buffer_chunks(),
        _ => scale.streaming_buffer_chunks(),
    }
}

fn start_local(w: Workload, path: &Path, scale: &Scale) -> io::Result<Engine> {
    let obs = Arc::new(Registry::new());
    let store = FileStore::open(path)?.with_observability(Arc::clone(&obs));
    let server = ScanServer::builder(model_from_segment(&store))
        .policy(PolicyKind::Relevance)
        .buffer_chunks(buffer_chunks(w, scale))
        // Real positioned reads replace the simulated per-page cost.
        .io_cost_per_page(Duration::ZERO)
        .io_threads(IO_THREADS)
        .store(Arc::new(store))
        .observability(obs)
        .table_label(w.name())
        .build();
    Ok(Engine::Local(server))
}

fn start_served(path: &Path, scale: &Scale) -> io::Result<Engine> {
    let mut catalog = Catalog::new();
    catalog.add_segment(
        SERVED_TABLE,
        path,
        TableConfig {
            policy: PolicyKind::Relevance,
            buffer_chunks: buffer_chunks(Workload::ServedLoopback, scale),
            io_threads: IO_THREADS,
            io_cost_per_page: Duration::ZERO,
            admission: AdmissionConfig {
                max_attached: ADMISSION_CAP,
                ..AdmissionConfig::default()
            },
        },
    )?;
    let catalog = Arc::new(catalog);
    let handle = serve(
        Arc::clone(&catalog),
        "127.0.0.1:0",
        ServerConfig {
            exit_on_shutdown: false,
            ..ServerConfig::default()
        },
    )?;
    Ok(Engine::Served {
        catalog,
        handle: Some(handle),
    })
}

/// What one query did.
#[derive(Debug, Clone, Copy)]
struct QueryRecord {
    latency_ns: u64,
    first_chunk_ns: u64,
    chunks: u32,
    ok: bool,
}

/// What a stream needs to run its queries.
struct StreamCtx<'a> {
    run: &'a RunSpec,
    stream: usize,
    server: &'a ScanServer,
    oracle: &'a Oracle,
    client: Option<ScanClient>,
    trace: ThreadTrace,
}

/// Round `r` records spans when the run is traced and `r` is even; round 0
/// is the warm-up, so traced and untraced timed rounds alternate and meet
/// the same conditions.
fn round_is_traced(traced_run: bool, round: u64) -> bool {
    traced_run && round > 0 && round.is_multiple_of(2)
}

impl StreamCtx<'_> {
    fn plans(&self, round: u64) -> Vec<CScanPlan> {
        let RunSpec { scale, seed, .. } = self.run;
        match self.run.workload {
            Workload::ShortHot => short_plans(scale, *seed, round, self.stream),
            _ => streaming_plans(scale, *seed, round, self.stream),
        }
    }

    fn run_round(&mut self, round: u64, plans: Vec<CScanPlan>) -> Vec<QueryRecord> {
        self.trace
            .set_recording(round_is_traced(self.run.traced, round));
        let mut records = Vec::with_capacity(plans.len());
        for (i, plan) in plans.into_iter().enumerate() {
            let number = (round << 32) | ((self.stream as u64) << 24) | i as u64;
            self.trace.set_query(number);
            records.push(match self.run.workload {
                Workload::ShortHot => self.short_query(plan),
                Workload::ServedLoopback => self.served_query(plan),
                _ => self.scan_query(plan),
            });
        }
        records
    }

    /// The real pipeline: `SessionSource -> Filter(l_quantity <= 45) ->
    /// HashAggregate(l_returnflag; count, sum)`.
    fn scan_query(&self, plan: CScanPlan) -> QueryRecord {
        let expected = self.oracle.expected_groups(&plan);
        let chunks = plan_chunks(&plan);
        let first = Cell::new(0);
        let submitted = Instant::now();
        let _query = self.trace.span("query");
        let handle = {
            let _span = self.trace.span("core.attach");
            self.server.cscan(plan)
        };
        let session = TracedSession::new(handle, &self.trace, submitted, &first);
        let out = {
            let _span = self.trace.span("exec.pipeline");
            let source = SessionSource::new(
                session,
                vec![ColumnId::new(FLAG_COL), ColumnId::new(QTY_COL)],
            )
            .with_observability(self.server.metrics());
            let filtered = Filter::new(source, Expr::col(1).le(Expr::lit(QTY_MAX)));
            let mut aggregate =
                HashAggregate::new(filtered, vec![0], vec![AggFunc::Count, AggFunc::Sum(1)]);
            aggregate.next()
        };
        let latency_ns = submitted.elapsed().as_nanos() as u64;
        let _span = self.trace.span("bench.verify");
        let ok = matches!(out, Ok(Some(ref rows)) if groups_of(rows) == Some(expected));
        QueryRecord {
            latency_ns,
            first_chunk_ns: first.get(),
            chunks,
            ok,
        }
    }

    /// Zero-copy consumption: add up two pinned slices, `complete()`.
    fn short_query(&self, plan: CScanPlan) -> QueryRecord {
        let expected = self.oracle.expected_plain_sum(&plan);
        let chunks = plan_chunks(&plan);
        let first = Cell::new(0);
        let submitted = Instant::now();
        let _query = self.trace.span("query");
        let handle = {
            let _span = self.trace.span("core.attach");
            self.server.cscan(plan)
        };
        let mut session = TracedSession::new(handle, &self.trace, submitted, &first);
        let (mut sum, mut seen, mut ok) = (0i64, 0u32, true);
        loop {
            match session.next_chunk() {
                Ok(Some(pin)) => {
                    {
                        let _span = self.trace.span("bench.consume");
                        match (
                            pin.column(ColumnId::new(QTY_COL)),
                            pin.column(ColumnId::new(FLAG_COL)),
                        ) {
                            (Some(qty), Some(flag)) => sum += plain_sum(qty, flag),
                            _ => ok = false,
                        }
                    }
                    let _span = self.trace.span("core.complete");
                    pin.complete();
                    seen += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        let latency_ns = submitted.elapsed().as_nanos() as u64;
        session.detach();
        QueryRecord {
            latency_ns,
            first_chunk_ns: first.get(),
            chunks,
            ok: ok && seen == chunks && sum == expected,
        }
    }

    /// Two columns over the wire, the same predicate and sums client-side.
    /// A refusal or an error is a failed query: nothing is retried.
    fn served_query(&mut self, plan: CScanPlan) -> QueryRecord {
        let expected = self.oracle.expected_groups(&plan);
        let chunks = plan_chunks(&plan);
        let plan = plan.with_columns(ColSet::from_columns(SERVED_COLUMNS.map(ColumnId::new)));
        let trace = &self.trace;
        let client = self.client.as_mut().expect("served streams own a client");
        let submitted = Instant::now();
        let _query = trace.span("query");
        let opened = {
            let _span = trace.span("client.open_scan");
            client.open_scan(SERVED_TABLE, plan)
        };
        let (mut got, mut seen, mut first_chunk_ns, mut ok) =
            (GroupSums::default(), 0u32, 0u64, true);
        match opened {
            Err(_) => ok = false,
            Ok(mut scan) => loop {
                let batch = {
                    let _span = trace.span("client.next_batch");
                    scan.next_batch()
                };
                match batch {
                    Ok(Some(batch)) => {
                        if first_chunk_ns == 0 {
                            first_chunk_ns = submitted.elapsed().as_nanos().max(1) as u64;
                        }
                        let _span = trace.span("bench.consume");
                        match (batch.column(QTY_COL), batch.column(FLAG_COL)) {
                            (Some(qty), Some(flag)) => fold_rows(&mut got, qty, flag),
                            _ => ok = false,
                        }
                        seen += 1;
                    }
                    Ok(None) => break,
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            },
        }
        QueryRecord {
            latency_ns: submitted.elapsed().as_nanos() as u64,
            first_chunk_ns,
            chunks,
            ok: ok && seen == chunks && got == expected,
        }
    }
}

fn plan_chunks(plan: &CScanPlan) -> u32 {
    plan.ranges.as_ref().map_or(0, |r| r.num_chunks())
}

/// The aggregate's output rows (`flag, count, sum`, ordered by flag) as
/// per-flag sums; `None` if a row names no known flag.
fn groups_of(rows: &DataChunk) -> Option<GroupSums> {
    let mut out = GroupSums::default();
    for row in 0..rows.len() {
        let flag = usize::try_from(rows.column(0)[row]).ok()?;
        if flag >= FLAGS {
            return None;
        }
        out[flag] = (rows.column(1)[row], rows.column(2)[row]);
    }
    Some(out)
}

/// What the coordinator saw of one timed round.
struct Round {
    wall: Duration,
    traced: bool,
    /// The registry's counters and histograms over this round (its
    /// per-query list dropped: 6 000 entries a round add up).
    scraped: MetricsSnapshot,
    pool: PoolStats,
}

fn pool_delta(now: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        evictions: now.evictions - before.evictions,
        pins: now.pins - before.pins,
        unpins: now.unpins - before.unpins,
    }
}

/// The timed rounds of one run, as the coordinator and the streams saw
/// them.
struct Measured {
    rounds: Vec<Round>,
    /// `records[r]`: every stream's queries of round `r`; round 0 is the
    /// warm-up (checked, not measured), `rounds[r - 1]` timed round `r`.
    records: Vec<Vec<QueryRecord>>,
    spans: Vec<Span>,
}

impl Measured {
    /// The timed rounds with span recording on (`traced`) or off, each
    /// with its queries.
    fn timed(&self, traced: bool) -> impl Iterator<Item = (&Round, &Vec<QueryRecord>)> {
        self.rounds
            .iter()
            .zip(&self.records[1..])
            .filter(move |(r, _)| r.traced == traced)
    }

    /// Median over those rounds of `per_round(queries) / wall seconds`.
    fn rate(&self, traced: bool, per_round: impl Fn(&[QueryRecord]) -> f64) -> f64 {
        let rates: Vec<f64> = self
            .timed(traced)
            .map(|(r, q)| per_round(q) / r.wall.as_secs_f64())
            .collect();
        median(&rates)
    }

    /// A registry counter summed over the timed rounds.
    fn counted(&self, c: Counter) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.scraped.counter(c.name()))
            .sum()
    }
}

/// Runs the warm-up round and the timed rounds on `engine`.
fn drive_rounds(
    run: &RunSpec,
    engine: &Engine,
    oracle: &Oracle,
    clients: Vec<ScanClient>,
) -> Measured {
    let RunSpec { scale, traced, .. } = *run;
    let epoch = Instant::now();
    let server = engine.server();
    let registry = engine.registry();
    let barrier = Barrier::new(QUERY_THREADS + 1);
    let stop = AtomicBool::new(false);
    let mut clients = clients.into_iter();
    let streams: Vec<StreamCtx<'_>> = (0..QUERY_THREADS)
        .map(|stream| StreamCtx {
            run,
            stream,
            server,
            oracle,
            client: clients.next(),
            trace: ThreadTrace::new(epoch),
        })
        .collect();
    // A traced run needs a round of each kind.
    let min_rounds = scale.min_rounds.max(if traced { 2 } else { 1 });

    let mut rounds: Vec<Round> = Vec::new();
    let per_stream: Vec<(Vec<Vec<QueryRecord>>, Vec<Span>)> = std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .into_iter()
            .map(|mut ctx| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let mut by_round = Vec::new();
                    for round in 0u64.. {
                        // The round's plans exist before its clock starts.
                        let plans = ctx.plans(round);
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        by_round.push(ctx.run_round(round, plans));
                        barrier.wait();
                    }
                    // The connection closes here, before the server stops.
                    drop(ctx.client.take());
                    (by_round, ctx.trace.into_spans())
                })
            })
            .collect();

        // Round 0 warms the buffer and the page cache and is not timed.
        barrier.wait();
        barrier.wait();
        registry.snapshot_and_reset();
        let mut pool_before = server.frame_pool_stats();
        let timed = Instant::now();
        for round in 1u64.. {
            barrier.wait();
            let started = Instant::now();
            barrier.wait();
            let wall = started.elapsed();
            let pool_now = server.frame_pool_stats();
            let mut scraped = registry.snapshot_and_reset();
            scraped.queries = Vec::new();
            rounds.push(Round {
                wall,
                traced: round_is_traced(traced, round),
                scraped,
                pool: pool_delta(pool_now, pool_before),
            });
            pool_before = pool_now;
            let enough = scale.smoke || timed.elapsed() >= Duration::from_secs(run.seconds);
            if rounds.len() >= min_rounds && enough {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
        workers
            .into_iter()
            .map(|t| t.join().expect("a query thread panicked"))
            .collect()
    });

    let mut records: Vec<Vec<QueryRecord>> = vec![Vec::new(); rounds.len() + 1];
    let mut spans = Vec::new();
    for (by_round, stream_spans) in per_stream {
        for (round, queries) in by_round.into_iter().enumerate() {
            records[round].extend(queries);
        }
        spans.push(stream_spans);
    }
    Measured {
        rounds,
        records,
        spans: trace::merge(spans),
    }
}

/// Frames still pinned once every handle and connection is gone (the
/// served connections' threads race the join, so this waits a little).
fn pinned_after(server: &ScanServer) -> usize {
    let mut pinned = server.pinned_frames();
    for _ in 0..500 {
        if pinned == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        pinned = server.pinned_frames();
    }
    pinned
}

/// Runs one wall-clock workload and returns its metrics: the end-to-end
/// ones untraced, the per-layer ones traced.
pub fn run(run: &RunSpec) -> io::Result<RunOutput> {
    let (w, scale) = (run.workload, &run.scale);
    // Set-up, several times over: `setup_s` is the median, and the last
    // one is the server the rounds run on.
    let mut setup_secs = Vec::with_capacity(scale.setup_repeats);
    let mut kept = None;
    for _ in 0..scale.setup_repeats {
        // The previous server stops, and its file goes, before the next
        // set-up starts.
        drop(kept.take());
        let (made, took) = set_up(w, scale)?;
        setup_secs.push(took.as_secs_f64());
        kept = Some(made);
    }
    let SetUp {
        clients,
        engine,
        segment,
        scratch,
    } = kept.expect("at least one set-up ran");

    let measured = drive_rounds(run, &engine, &segment.oracle, clients);
    let server = engine.server();
    let pinned_after = pinned_after(server);
    let unconsumed_drops = measured.counted(Counter::UnconsumedDrops)
        + engine
            .registry()
            .snapshot()
            .counter(Counter::UnconsumedDrops.name());

    let Measured {
        rounds,
        records,
        spans,
    } = &measured;
    let attempted: u64 = records.iter().map(|r| r.len() as u64).sum();
    let failed: u64 = records.iter().flatten().filter(|q| !q.ok).count() as u64;

    // User bytes one delivered chunk hands the consumer: every column in
    // process, the served columns over the wire.
    let columns = match w {
        Workload::ServedLoopback => SERVED_COLUMNS.len(),
        _ => TABLE_COLUMNS,
    };
    let delivered_chunk_mib = (scale.rows_per_chunk * 8 * columns as u64) as f64 / MIB;
    let delivered_mib = |queries: &[QueryRecord]| -> f64 {
        queries.iter().map(|q| q.chunks as f64).sum::<f64>() * delivered_chunk_mib
    };
    // End-to-end numbers come from the rounds with spans off.
    let untraced: Vec<&QueryRecord> = measured.timed(false).flat_map(|(_, q)| q).collect();
    let mut latencies: Vec<u64> = untraced.iter().map(|q| q.latency_ns).collect();
    let mut first_chunks: Vec<u64> = untraced.iter().map(|q| q.first_chunk_ns).collect();
    latencies.sort_unstable();
    first_chunks.sort_unstable();

    // Counts are reported per timed round, so that they do not depend on
    // how many rounds the run had time for.
    let timed_rounds = rounds.len() as f64;
    let per_round = |c: Counter| -> f64 { measured.counted(c) as f64 / timed_rounds };
    let loads = measured.counted(Counter::LoadsCompleted);
    let chunks_delivered: u64 = records[1..].iter().flatten().map(|q| q.chunks as u64).sum();
    let loads_per_chunk = ratio(loads as f64, chunks_delivered as f64);
    let table_bytes = scale.chunks as u64 * scale.logical_chunk_bytes();

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_secs));
    m.set("delivered_mib_s", measured.rate(false, delivered_mib));
    m.set("queries_per_s", measured.rate(false, |q| q.len() as f64));
    m.set("query_p50_ms", percentile(&latencies, 0.50) as f64 / 1e6);
    m.set("query_p95_ms", percentile(&latencies, 0.95) as f64 / 1e6);
    m.set("chunks_shared_frac", 1.0 - loads_per_chunk);

    m.set(
        "query.first_chunk_p50_ms",
        percentile(&first_chunks, 0.50) as f64 / 1e6,
    );
    m.set(
        "query.first_chunk_p95_ms",
        percentile(&first_chunks, 0.95) as f64 / 1e6,
    );
    m.set("query.loads_per_chunk", loads_per_chunk);
    m.set(
        "query.read_bytes_per_user_byte",
        ratio(
            measured.counted(Counter::FileBytesRead) as f64,
            chunks_delivered as f64 * scale.logical_chunk_bytes() as f64,
        ),
    );
    m.set(
        "query.segment_bytes_per_user_byte",
        segment.summary.file_bytes as f64 / table_bytes as f64,
    );
    m.set("query.failed_frac", ratio(failed as f64, attempted as f64));

    m.set("storage.file_read_calls", per_round(Counter::FileReadCalls));
    m.set("storage.file_bytes_read", per_round(Counter::FileBytesRead));
    m.set("storage.load_retries", per_round(Counter::LoadRetries));
    m.set(
        "storage.checksum_failures",
        per_round(Counter::ChecksumFailures),
    );

    let mut pool = PoolStats::default();
    let mut lock_hold = HistogramSnapshot::empty();
    let mut pin_wait_ns = 0u64;
    for r in rounds {
        pool += r.pool;
        lock_hold.merge(&r.scraped.span(SpanKind::LockHold.name()));
        pin_wait_ns += r.scraped.query_total(QueryCounter::PinWaitNanos.name());
    }
    m.set("bufman.pins", pool.pins as f64 / timed_rounds);
    m.set("bufman.hit_ratio", pool.hit_ratio());
    m.set("bufman.evictions", pool.evictions as f64 / timed_rounds);
    m.set("bufman.pinned_after", pinned_after as f64);

    m.set("core.loads_completed", loads as f64 / timed_rounds);
    m.set("core.loads_cancelled", per_round(Counter::LoadsCancelled));
    m.set(
        "core.deliveries_per_load",
        ratio(chunks_delivered as f64, loads as f64),
    );
    m.set(
        "core.loads_over_ceiling",
        loads.saturating_sub(chunks_delivered) as f64 / timed_rounds,
    );
    m.set("core.pin_wait_s", pin_wait_ns as f64 / 1e9 / timed_rounds);
    m.set("core.sched_lock_hold_p99_ns", lock_hold.p99() as f64);
    m.set(
        "core.hub_shard_conflicts",
        per_round(Counter::HubShardConflicts),
    );
    m.set("core.unconsumed_drops", unconsumed_drops as f64);

    m.set("server.batches_served", per_round(Counter::BatchesServed));
    m.set("server.bytes_served", per_round(Counter::BytesServed));
    m.set("server.admitted", per_round(Counter::AdmissionAdmitted));
    m.set("server.queued", per_round(Counter::AdmissionQueued));
    m.set("server.shed", per_round(Counter::AdmissionShed));
    m.set(
        "server.connections_shed",
        per_round(Counter::ConnectionsShed),
    );

    if run.traced {
        span_metrics(&mut m, scale, spans);
        m.set(
            "obs.trace_overhead_frac",
            ratio(
                measured.rate(true, delivered_mib),
                measured.rate(false, delivered_mib),
            ) - 1.0,
        );
    }
    if run.traced {
        probes::run(
            &mut m,
            w,
            scale,
            &engine,
            &scratch.path().join(SEGMENT_FILE),
        )?;
        // Sockets, syscalls and wake-ups: what a served batch costs beyond
        // the in-process pump and the client's decode.
        let batches = trace::durations(spans, "client.next_batch").len();
        let residual = if batches > 0 {
            let queries: u64 = trace::durations(spans, "query").iter().sum();
            let probed = |name| m.get(name).unwrap_or(0.0);
            queries as f64 / batches as f64
                - probed("server.pump_ns_per_batch")
                - probed("proto.decode_ns_per_batch")
        } else {
            0.0
        };
        m.set("net.residual_ns_per_batch", residual);
    }

    let buffer = buffer_chunks(w, scale);
    let mut notes = vec![
        format!(
            "table: {} chunks x {} rows x {TABLE_COLUMNS} columns = {:.1} MiB of user data; \
             segment file {:.1} MiB ({})",
            scale.chunks,
            scale.rows_per_chunk,
            table_bytes as f64 / MIB,
            segment.summary.file_bytes as f64 / MIB,
            if w.compressed() {
                "Figure 9 codec mix"
            } else {
                "plain"
            },
        ),
        format!(
            "buffer: {buffer} chunks = {:.1} MiB decoded ({}), policy relevance",
            (buffer * scale.logical_chunk_bytes()) as f64 / MIB,
            if buffer >= scale.chunks as u64 {
                "the table fits"
            } else {
                "the table is larger than the cache"
            },
        ),
        format!(
            "rounds: 1 warm-up + {} timed ({} of them traced), {} queries per round, {} set-ups",
            rounds.len(),
            measured.timed(true).count(),
            records[1].len(),
            setup_secs.len(),
        ),
        format!(
            "samples: query latency n={} ({} beyond p95), rates n={} rounds",
            latencies.len(),
            latencies.len() - (0.95 * latencies.len() as f64).ceil() as usize,
            measured.timed(false).count(),
        ),
    ];
    if run.traced {
        let path = crate::scratch::out_dir().join(format!("trace-{}.json", w.name()));
        trace::write_json(&path, w.name(), run.seed, spans)?;
        notes.push(format!(
            "trace: {} spans recorded, written to {}",
            spans.len(),
            path.display()
        ));
    }

    let mut problems = Vec::new();
    if pinned_after != 0 {
        problems.push(format!(
            "{pinned_after} frames still pinned after every scan ended"
        ));
    }
    if unconsumed_drops != 0 {
        problems.push(format!(
            "{unconsumed_drops} pins dropped without complete()"
        ));
    }
    Ok(RunOutput {
        metrics: m,
        attempted,
        failed,
        notes,
        problems,
    })
}

/// The per-layer metrics that come from the recorded spans.
fn span_metrics(m: &mut Metrics, scale: &Scale, spans: &[Span]) {
    let own = trace::self_times(spans);
    let sum = |name: &str| -> f64 { trace::durations(spans, name).iter().sum::<u64>() as f64 };
    let sorted = |name: &str| -> Vec<u64> {
        let mut d = trace::durations(spans, name);
        d.sort_unstable();
        d
    };
    let query_wall = sum("query");
    let next_chunk = sorted("core.next_chunk");
    m.set(
        "core.attach_ns_p50",
        percentile(&sorted("core.attach"), 0.50) as f64,
    );
    m.set(
        "core.next_chunk_ns_p50",
        percentile(&next_chunk, 0.50) as f64,
    );
    m.set(
        "core.next_chunk_ns_p95",
        percentile(&next_chunk, 0.95) as f64,
    );
    m.set(
        "core.next_chunk_wait_frac",
        ratio(sum("core.next_chunk"), query_wall),
    );

    // The pipeline's self time is its wall minus the time inside the
    // adapter's `next_chunk`.  One `next_chunk` per query returns `None`.
    let pipelines = trace::durations(spans, "exec.pipeline").len();
    let exec_self = trace::self_total(spans, &own, "exec.pipeline") as f64;
    let exec_chunks = if pipelines > 0 {
        (next_chunk.len() - pipelines) as f64
    } else {
        0.0
    };
    m.set("exec.self_ns_per_chunk", ratio(exec_self, exec_chunks));
    m.set(
        "exec.rows_per_s",
        ratio(
            exec_chunks * scale.rows_per_chunk as f64 * 1e9,
            sum("exec.pipeline"),
        ),
    );
    m.set("exec.busy_frac", ratio(exec_self, query_wall));

    let batches = trace::durations(spans, "client.next_batch");
    m.set(
        "client.open_scan_ns_p50",
        percentile(&sorted("client.open_scan"), 0.50) as f64,
    );
    m.set(
        "client.next_batch_ns_per_batch",
        ratio(sum("client.next_batch"), batches.len() as f64),
    );
    m.set(
        "client.wait_frac",
        ratio(sum("client.next_batch"), query_wall),
    );

    // Query wall that no layer's span covers.
    m.set(
        "trace.unattributed_frac",
        ratio(trace::self_total(spans, &own, "query") as f64, query_wall),
    );
}
