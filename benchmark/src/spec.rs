//! What the benchmark is: its workloads, its metrics and its fixed sizes.
//!
//! `BENCHMARK.json` at the repository root repeats the workload names and
//! the metric tables below (`tests/smoke.rs` fails when the two disagree)
//! and says why each workload exists; `README.md` says what each name means
//! and which end-to-end metric each layer metric is expected to move.

/// Closed-loop query threads (in-process workloads) or client connections
/// (`served_loopback`).  Fixed, not read from `nproc`: the box this was
/// sized on has 2 cores, and more generator threads than cores made
/// identical runs disagree by 16–30 %.
pub const QUERY_THREADS: usize = 2;
/// I/O worker threads of every scan server.
pub const IO_THREADS: usize = 2;
/// Admission cap of the served table: above [`QUERY_THREADS`], so nothing
/// is queued or shed.
pub const ADMISSION_CAP: usize = 4;
/// Columns of `MemTable::lineitem_demo`.
pub const TABLE_COLUMNS: usize = 6;
/// `l_quantity`'s column index in the demo table.
pub const QTY_COL: u16 = 1;
/// `l_returnflag`'s column index in the demo table.
pub const FLAG_COL: u16 = 5;
/// The columns `served_loopback` asks for over the wire.
pub const SERVED_COLUMNS: [u16; 2] = [QTY_COL, FLAG_COL];
/// The pipeline's predicate: `l_quantity <= QTY_MAX` (values are 1..=50).
pub const QTY_MAX: i64 = 45;
/// Distinct `l_returnflag` codes (the aggregate's groups).
pub const FLAGS: usize = 3;
/// Spans written to a trace file; every span still counts in the metrics.
pub const TRACE_FILE_SPAN_CAP: usize = 100_000;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanPlain,
    ScanCompressed,
    ShortHot,
    ServedLoopback,
    SimMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ScanPlain,
        Workload::ScanCompressed,
        Workload::ShortHot,
        Workload::ServedLoopback,
        Workload::SimMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanPlain => "scan_plain",
            Workload::ScanCompressed => "scan_compressed",
            Workload::ShortHot => "short_hot",
            Workload::ServedLoopback => "served_loopback",
            Workload::SimMix => "sim_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's segment file uses the Figure 9 codec mix.
    pub fn compressed(self) -> bool {
        self == Workload::ScanCompressed
    }
}

/// Sizes of one run.  Everything that decides how much work a round does
/// is a fixed count, so the same seed issues the same plans; only the
/// number of timed rounds follows `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub chunks: u32,
    pub rows_per_chunk: u64,
    /// Queries per stream per round of `scan_*` and `served_loopback`.
    pub scan_queries: usize,
    /// Queries per stream per round of `short_hot`.
    pub short_queries: usize,
    /// Streams and queries per stream of one `sim_mix` simulation.
    pub sim_streams: usize,
    pub sim_queries_per_stream: usize,
    /// Scale factor of the simulated `lineitem` model.
    pub sim_scale_factor: u32,
    /// Set-ups per run of a wall-clock workload; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Timed rounds never fewer than this, whatever `--seconds` says.
    pub min_rounds: usize,
    /// `--smoke`: stop after `min_rounds` whatever `--seconds` says.
    pub smoke: bool,
}

impl Scale {
    /// The measured geometry: 96 chunks of 20 000 rows and 6 columns
    /// (0.92 MiB logical per chunk, 87.9 MiB in all).
    pub const FULL: Scale = Scale {
        chunks: 96,
        rows_per_chunk: 20_000,
        scan_queries: 20,
        short_queries: 3_000,
        sim_streams: 64,
        sim_queries_per_stream: 4,
        sim_scale_factor: 10,
        setup_repeats: 5,
        min_rounds: 6,
        smoke: false,
    };

    /// `--smoke`: the same code paths in well under a second.
    pub const SMOKE: Scale = Scale {
        chunks: 8,
        rows_per_chunk: 2_000,
        scan_queries: 5,
        short_queries: 50,
        sim_streams: 8,
        sim_queries_per_stream: 4,
        sim_scale_factor: 1,
        setup_repeats: 2,
        min_rounds: 1,
        smoke: true,
    };

    /// Buffer of the streaming workloads: a quarter of the table, so the
    /// table is four times the program's cache.
    pub fn streaming_buffer_chunks(&self) -> u64 {
        (self.chunks as u64 / 4).max(2)
    }

    /// Buffer of `short_hot`: the table and a few spare frames, so after
    /// the warm-up round nothing is read.
    pub fn hot_buffer_chunks(&self) -> u64 {
        self.chunks as u64 + (self.chunks as u64 / 12).max(1)
    }

    /// Simulated seeds of one `sim_mix` run: 24 at the contract's 10 s
    /// (about 0.3 s of wall time each on the 2-core box this was sized on).
    pub fn sim_seeds(&self, seconds: u64) -> usize {
        if self.smoke {
            2
        } else {
            (2 * seconds as usize + 4).max(4)
        }
    }

    pub fn logical_chunk_bytes(&self) -> u64 {
        self.rows_per_chunk * TABLE_COLUMNS as u64 * 8
    }
}

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: its name, unit and direction, and for an end-to-end metric
/// the share of the parent's median it may worsen by.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics.  Every workload reports every one of them and
/// none is ever zero (the driver divides by their medians); the whole-stack
/// numbers that are zero or undefined on some workload are the `query.*`
/// per-layer metrics instead.
///
/// Bounds were calibrated from two sets of ten runs with ten seeds per
/// workload on a shared 2-core VM, whose widest spreads (quartile distance
/// over median) were 8.8 % for the rates and 10.7 % for p95 (`short_hot`),
/// 6.4 % for p50 (`served_loopback`) and 3.0 % for the shared fraction
/// (`scan_compressed`); `README.md` has the table.  Peak memory is in the
/// run header and not a metric: under glibc's arenas it spread by 22.5 % on
/// `scan_compressed`, too close to the widest bound the driver allows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("delivered_mib_s", "MiB/s", Higher, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_ms", "ms", Lower, 0.20),
    e2e("query_p95_ms", "ms", Lower, 0.25),
    e2e("chunks_shared_frac", "ratio", Higher, 0.10),
];

/// The per-layer metrics, from the traced run.  A layer is a crate; a
/// layer that does nothing on a workload reports zeros there.
pub const PER_LAYER: &[MetricDef] = &[
    // Whole-stack numbers kept out of END_TO_END (see there).
    layer("query.first_chunk_p50_ms", "ms", Lower),
    layer("query.first_chunk_p95_ms", "ms", Lower),
    layer("query.loads_per_chunk", "ratio", Lower),
    layer("query.read_bytes_per_user_byte", "ratio", Lower),
    layer("query.segment_bytes_per_user_byte", "ratio", Lower),
    layer("query.failed_frac", "ratio", Lower),
    layer("storage.read_ns_per_chunk", "ns", Lower),
    layer("storage.read_mib_s", "MiB/s", Higher),
    layer("storage.checksum_ns_per_chunk", "ns", Lower),
    layer("storage.decode_ns_per_chunk", "ns", Lower),
    layer("storage.decode_gib_s", "GiB/s", Higher),
    layer("storage.file_read_calls", "count", Lower),
    layer("storage.file_bytes_read", "bytes", Lower),
    layer("storage.load_retries", "count", Lower),
    layer("storage.checksum_failures", "count", Lower),
    layer("bufman.pins", "count", Lower),
    layer("bufman.hit_ratio", "ratio", Higher),
    layer("bufman.evictions", "count", Lower),
    layer("bufman.pinned_after", "count", Lower),
    layer("core.attach_ns_p50", "ns", Lower),
    layer("core.next_chunk_ns_p50", "ns", Lower),
    layer("core.next_chunk_ns_p95", "ns", Lower),
    layer("core.next_chunk_wait_frac", "ratio", Lower),
    layer("core.complete_ns_per_chunk", "ns", Lower),
    layer("core.loads_completed", "count", Lower),
    layer("core.loads_cancelled", "count", Lower),
    layer("core.deliveries_per_load", "ratio", Higher),
    layer("core.loads_over_ceiling", "count", Lower),
    layer("core.pin_wait_s", "s", Lower),
    layer("core.sched_lock_hold_p99_ns", "ns", Lower),
    layer("core.hub_shard_conflicts", "count", Lower),
    layer("core.unconsumed_drops", "count", Lower),
    layer("exec.self_ns_per_chunk", "ns", Lower),
    layer("exec.rows_per_s", "1/s", Higher),
    layer("exec.busy_frac", "ratio", Lower),
    layer("proto.encode_ns_per_batch", "ns", Lower),
    layer("proto.encode_gib_s", "GiB/s", Higher),
    layer("proto.decode_ns_per_batch", "ns", Lower),
    layer("proto.decode_gib_s", "GiB/s", Higher),
    layer("proto.frame_bytes_per_payload_byte", "ratio", Lower),
    layer("server.admit_ns_p50", "ns", Lower),
    layer("server.pump_ns_per_batch", "ns", Lower),
    layer("server.batches_served", "count", Higher),
    layer("server.bytes_served", "bytes", Higher),
    layer("server.admitted", "count", Higher),
    layer("server.queued", "count", Lower),
    layer("server.shed", "count", Lower),
    layer("server.connections_shed", "count", Lower),
    layer("client.open_scan_ns_p50", "ns", Lower),
    layer("client.next_batch_ns_per_batch", "ns", Lower),
    layer("client.wait_frac", "ratio", Lower),
    layer("net.residual_ns_per_batch", "ns", Lower),
    layer("sim.avg_stream_s", "s", Lower),
    layer("sim.avg_norm_latency", "ratio", Lower),
    layer("sim.io_requests", "count", Lower),
    layer("sim.run_ms", "ms", Lower),
    layer("sim.ns_per_load", "ns", Lower),
    layer("sim.loads_aborted", "count", Lower),
    layer("obs.trace_overhead_frac", "ratio", Higher),
    layer("obs.snapshot_ns", "ns", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
];
