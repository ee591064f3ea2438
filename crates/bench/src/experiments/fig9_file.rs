//! Figure 9 end-to-end against *real* storage: lineitem segment files on
//! disk, served through [`FileStore`] with positioned reads, driven by the
//! scan → filter → aggregate pipelines, one thread per stream.
//!
//! The simulated experiments (fig2..fig9) charge a modelled per-page I/O
//! cost; this module replaces the model with the real thing.  A table is
//! written twice through [`SegmentWriter`] — once with every column plain,
//! once with the Figure 9 codec mix ([`MemTable::lineitem_demo_schemes`]) —
//! and the sweep reruns the fig5 policy comparison and the fig7-style
//! I/O-thread scaling over both files, reporting for every point:
//!
//! * delivered payload bandwidth (logical MiB/s through the session API),
//! * `file_read_calls` / `file_bytes_read` from the shared observability
//!   registry (one positioned read per extent of the columns a load
//!   names — here the two the pipelines read),
//! * pin-wait and load counts from the server.
//!
//! The Figure 9 question — does compression pay once I/O is real? — is
//! answered by [`crossover`]: compressed wins when the ~4x smaller file
//! (see [`run_file_mix_volume`]) buys more than the decode costs.  On a
//! page-cache-warm tmpfs the disk is effectively RAM and plain may keep
//! winning; `figures fig9_file` prints whichever way it lands.
//!
//! The sim front-end is wired metadata-faithfully: [`model_from_segment`]
//! derives a DSM `TableModel` from the segment *directory* (real on-disk
//! extent sizes → pages per column), so a [`Simulation`] over the compressed file
//! schedules proportionally less I/O — [`run_sim_from_segment`] exposes
//! that path and the tests pin sim bytes to the measured file bytes.

use cscan_core::policy::PolicyKind;
use cscan_core::sim::{QuerySpec, SimConfig, Simulation};
use cscan_core::threaded::ScanServer;
use cscan_core::{CScanPlan, ColSet};
use cscan_exec::{AggFunc, Expr, Filter, HashAggregate, MemTable, Operator, SessionSource};
use cscan_obs::Registry;
use cscan_server::model_from_segment;
use cscan_storage::segment::{FileStore, SegmentSummary, SegmentWriter};
use cscan_storage::{ChunkId, ChunkStore, ColumnId, Compression, ScanRanges};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `l_quantity`'s position in [`MemTable::lineitem_demo`] (pinned by test).
const QTY_COL: usize = 1;
/// `l_returnflag`'s position in [`MemTable::lineitem_demo`] (pinned by test).
const FLAG_COL: usize = 5;

/// Writes a lineitem demo table as a segment file: every chunk of
/// [`MemTable::lineitem_demo`], with all columns plain or all under the
/// Figure 9 codec mix.
pub fn write_lineitem_segment(
    path: &Path,
    chunks: u32,
    rows_per_chunk: u64,
    compressed: bool,
) -> io::Result<SegmentSummary> {
    let table = MemTable::lineitem_demo(chunks as u64 * rows_per_chunk, rows_per_chunk);
    let schemes = if compressed {
        MemTable::lineitem_demo_schemes()
    } else {
        vec![Compression::None; table.width()]
    };
    let mut writer = SegmentWriter::create(path, schemes)?;
    for c in 0..table.num_chunks() {
        let data = table.read_chunk_all(ChunkId::new(c));
        let cols: Vec<&[i64]> = (0..table.width()).map(|i| data.column(i)).collect();
        writer.append_chunk(&cols)?;
    }
    writer.finish()
}

/// The buffer both halves of the sweep give a table of `chunks` chunks, in
/// average-sized chunks: a quarter of the table, and no fewer than four.
fn buffer_chunks(chunks: u32) -> u64 {
    (u64::from(chunks) / 4).max(4)
}

/// Runs the deterministic simulation front-end over a segment-derived
/// model: `streams` staggered full scans under `policy`, in virtual time,
/// with the buffer the live points get ([`run_file_point`]).  Returns
/// `(makespan_secs, sim_bytes_read)`.
pub fn run_sim_from_segment(
    path: &Path,
    policy: PolicyKind,
    streams: usize,
) -> io::Result<(f64, u64)> {
    let store = FileStore::open(path)?;
    let config = SimConfig::default().with_buffer_chunks(buffer_chunks(store.num_chunks()));
    let model = model_from_segment(&store);
    let mut sim = Simulation::new(model, policy, config);
    for i in 0..streams {
        sim.submit_stream(vec![QuerySpec::full_scan(
            format!("sim-file-{i}"),
            5_000_000.0,
        )]);
    }
    let result = sim.run();
    Ok((result.total_time.as_secs_f64(), result.bytes_read))
}

/// One live file-backed measurement point.
#[derive(Debug, Clone)]
pub struct FilePoint {
    /// `"plain"` or `"compressed"` — which segment file served the scan.
    pub mode: &'static str,
    /// The scheduling policy.
    pub policy: PolicyKind,
    /// I/O worker threads issuing positioned reads.
    pub io_threads: usize,
    /// Rows that entered the aggregates, summed over all pipelines.
    pub rows: u64,
    /// Logical payload delivered per wall-clock second — the two columns
    /// the pipelines read — in MiB/s.
    pub delivered_mib_s: f64,
    /// Positioned read calls issued against the segment file.
    pub file_read_calls: u64,
    /// Bytes read from the segment file (compressed where applicable).
    pub file_bytes_read: u64,
    /// Total consumer pin-wait in seconds.
    pub pin_wait_secs: f64,
    /// Chunk loads the ABM committed (sharing keeps this below
    /// streams × chunks).
    pub loads: u64,
    /// Pins dropped without `complete()` — must stay zero.
    pub unconsumed_drops: u64,
}

/// Runs one live point: `streams` Q1-style pipelines over a threaded
/// server whose store is [`FileStore::open`]`(path)`, with the simulated
/// per-page I/O cost zeroed — the positioned reads are the real cost now.
/// The store and the server share one observability registry, so the
/// returned `file_*` counters cover exactly this run.
pub fn run_file_point(
    path: &Path,
    mode: &'static str,
    policy: PolicyKind,
    io_threads: usize,
    streams: usize,
) -> io::Result<FilePoint> {
    let obs = Arc::new(Registry::new());
    let store = FileStore::open(path)?.with_observability(Arc::clone(&obs));
    let chunks = store.num_chunks();
    let rows_per_chunk = store.chunk_rows(ChunkId::new(0)).unwrap_or(0);
    let model = model_from_segment(&store);
    let server = Arc::new(
        ScanServer::builder(model)
            .policy(policy)
            .buffer_chunks(buffer_chunks(chunks))
            // Real reads replace the simulated per-page sleep.
            .io_cost_per_page(Duration::ZERO)
            .io_threads(io_threads)
            .store(Arc::new(store))
            .observability(Arc::clone(&obs))
            .table_label(format!("fig9-file-{mode}"))
            .build(),
    );
    let read = [
        ColumnId::new(FLAG_COL as u16),
        ColumnId::new(QTY_COL as u16),
    ];
    let started = Instant::now();
    let workers: Vec<_> = (0..streams)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let handle = server.cscan(CScanPlan::new(
                    format!("file-{mode}-{i}"),
                    ScanRanges::full(chunks),
                    ColSet::from_columns(read),
                ));
                let src =
                    SessionSource::new(handle, read.to_vec()).with_observability(server.metrics());
                let filtered = Filter::new(src, Expr::col(1).le(Expr::lit(45)));
                let mut agg =
                    HashAggregate::new(filtered, vec![0], vec![AggFunc::Count, AggFunc::Sum(1)]);
                let out = agg
                    .next()
                    .expect("fault-free file scan")
                    .expect("aggregate output");
                out.column(1).iter().sum::<i64>() as u64
            })
        })
        .collect();
    let rows: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("pipeline thread"))
        .sum();
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    let delivered_mib = (streams as u64 * chunks as u64 * rows_per_chunk * read.len() as u64 * 8)
        as f64
        / (1024.0 * 1024.0);
    let snap = server.metrics().snapshot();
    Ok(FilePoint {
        mode,
        policy,
        io_threads,
        rows,
        delivered_mib_s: delivered_mib / wall_secs,
        file_read_calls: snap.counter("file_read_calls"),
        file_bytes_read: snap.counter("file_bytes_read"),
        pin_wait_secs: snap.query_total("pin_wait_nanos") as f64 / 1e9,
        loads: snap.counter("loads_completed"),
        unconsumed_drops: snap.counter("unconsumed_drops"),
    })
}

/// Geometry and sweep axes of a file-backed run.
#[derive(Debug, Clone)]
pub struct FileSweepConfig {
    /// Directory the segment files are written into.
    pub dir: PathBuf,
    /// Chunks per table.
    pub chunks: u32,
    /// Rows per chunk.
    pub rows_per_chunk: u64,
    /// Concurrent pipeline threads per point.
    pub streams: usize,
    /// I/O thread counts to sweep (the fig7 axis).
    pub io_threads: Vec<usize>,
}

/// Writes the plain and compressed segments and runs the full sweep:
/// mode × io_threads × policy.  Returns the points plus the two segment
/// summaries (`[plain, compressed]`) for file-size reporting.
pub fn run_file_sweep(cfg: &FileSweepConfig) -> io::Result<(Vec<FilePoint>, [SegmentSummary; 2])> {
    std::fs::create_dir_all(&cfg.dir)?;
    let plain_path = cfg.dir.join("lineitem_plain.seg");
    let compressed_path = cfg.dir.join("lineitem_compressed.seg");
    let plain = write_lineitem_segment(&plain_path, cfg.chunks, cfg.rows_per_chunk, false)?;
    let compressed =
        write_lineitem_segment(&compressed_path, cfg.chunks, cfg.rows_per_chunk, true)?;
    let mut points = Vec::new();
    for (mode, path) in [("plain", &plain_path), ("compressed", &compressed_path)] {
        for &io_threads in &cfg.io_threads {
            for policy in PolicyKind::ALL {
                points.push(run_file_point(path, mode, policy, io_threads, cfg.streams)?);
            }
        }
    }
    Ok((points, [plain, compressed]))
}

/// The Figure 9 verdict over a sweep's points.
#[derive(Debug, Clone, Copy)]
pub struct FileCrossover {
    /// Best delivered bandwidth over the plain file, MiB/s.
    pub plain_best_mib_s: f64,
    /// Best delivered bandwidth over the compressed file, MiB/s.
    pub compressed_best_mib_s: f64,
    /// compressed / plain best-point ratio (> 1 means compression pays).
    pub speedup: f64,
}

/// Computes the plain-vs-compressed crossover from a sweep's points.
pub fn crossover(points: &[FilePoint]) -> FileCrossover {
    let best = |mode: &str| {
        points
            .iter()
            .filter(|p| p.mode == mode)
            .map(|p| p.delivered_mib_s)
            .fold(0.0, f64::max)
    };
    let plain = best("plain");
    let compressed = best("compressed");
    FileCrossover {
        plain_best_mib_s: plain,
        compressed_best_mib_s: compressed,
        speedup: compressed / plain.max(1e-9),
    }
}

/// Deterministic (timing-free) file I/O volumes of the Figure 9 mix.
#[derive(Debug, Clone, Copy)]
pub struct FileMixVolume {
    /// Bytes read from the plain segment for one full materialization.
    pub plain_bytes: u64,
    /// Positioned reads against the plain segment.
    pub plain_read_calls: u64,
    /// Bytes read from the compressed segment for the same scan.
    pub compressed_bytes: u64,
    /// Positioned reads against the compressed segment.
    pub compressed_read_calls: u64,
    /// plain / compressed byte ratio (≥ 2 is the paper's regime).
    pub ratio: f64,
}

/// Materializes every chunk of one segment and reports the observed file
/// I/O counters.
fn measured_volume(path: &Path, chunks: u32) -> io::Result<(u64, u64)> {
    let obs = Arc::new(Registry::new());
    let store = FileStore::open(path)?.with_observability(Arc::clone(&obs));
    for c in 0..chunks {
        let payload = store
            .materialize(ChunkId::new(c), None)
            .map_err(|e| io::Error::other(format!("materialize chunk {c}: {e:?}")))?;
        payload
            .verify_checksums()
            .map_err(|e| io::Error::other(format!("checksum chunk {c}: {e:?}")))?;
    }
    let snap = obs.snapshot();
    Ok((
        snap.counter("file_bytes_read"),
        snap.counter("file_read_calls"),
    ))
}

/// Writes both segments and measures the file I/O volume of a full scan of
/// each — the end-to-end analogue of fig9's [`super::fig9::run_mix_volume`],
/// with the bytes counted at the `read_at` boundary instead of in memory.
pub fn run_file_mix_volume(
    dir: &Path,
    chunks: u32,
    rows_per_chunk: u64,
) -> io::Result<FileMixVolume> {
    std::fs::create_dir_all(dir)?;
    let plain_path = dir.join("mix_plain.seg");
    let compressed_path = dir.join("mix_compressed.seg");
    write_lineitem_segment(&plain_path, chunks, rows_per_chunk, false)?;
    write_lineitem_segment(&compressed_path, chunks, rows_per_chunk, true)?;
    let (plain_bytes, plain_read_calls) = measured_volume(&plain_path, chunks)?;
    let (compressed_bytes, compressed_read_calls) = measured_volume(&compressed_path, chunks)?;
    Ok(FileMixVolume {
        plain_bytes,
        plain_read_calls,
        compressed_bytes,
        compressed_read_calls,
        ratio: plain_bytes as f64 / compressed_bytes.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::{ScratchPath, DEFAULT_PAGE_SIZE};

    #[test]
    fn pipeline_columns_match_the_demo_table() {
        let t = MemTable::lineitem_demo(100, 100);
        assert_eq!(t.column_index("l_quantity"), Some(QTY_COL));
        assert_eq!(t.column_index("l_returnflag"), Some(FLAG_COL));
    }

    #[test]
    fn file_sweep_smoke() {
        let dir = ScratchPath::new("fig9_file_sweep");
        let cfg = FileSweepConfig {
            dir: dir.to_path_buf(),
            chunks: 8,
            rows_per_chunk: 200,
            streams: 2,
            io_threads: vec![2],
        };
        let (points, [plain, compressed]) = run_file_sweep(&cfg).expect("sweep");
        assert_eq!(points.len(), 2 * PolicyKind::ALL.len());
        assert!(compressed.file_bytes < plain.file_bytes);
        let expected_rows = points[0].rows;
        for p in &points {
            assert!(p.delivered_mib_s > 0.0, "{} {}", p.mode, p.policy);
            assert_eq!(p.rows, expected_rows, "{} {}", p.mode, p.policy);
            assert_eq!(p.unconsumed_drops, 0, "{} {}", p.mode, p.policy);
            assert!(p.loads >= cfg.chunks as u64, "{} {}", p.mode, p.policy);
            // Every committed load reads the two columns the plans name:
            // one positioned read per column extent.
            assert!(
                p.file_read_calls >= p.loads * 2,
                "{} {}: {} calls for {} loads",
                p.mode,
                p.policy,
                p.file_read_calls,
                p.loads
            );
            assert!(p.file_bytes_read > 0, "{} {}", p.mode, p.policy);
        }
        // The compressed file serves each chunk load with far fewer bytes.
        // (Total bytes are timing-dependent — eviction/reload counts vary —
        // but bytes per committed load are exactly the chunk's extents.)
        let bytes_per_load = |mode: &str| {
            points
                .iter()
                .filter(|p| p.mode == mode)
                .map(|p| p.file_bytes_read as f64 / p.loads.max(1) as f64)
                .fold(0.0, f64::max)
        };
        assert!(bytes_per_load("compressed") * 2.0 < bytes_per_load("plain"));
        let x = crossover(&points);
        assert!(x.plain_best_mib_s > 0.0 && x.compressed_best_mib_s > 0.0);
    }

    #[test]
    fn mix_volume_is_deterministic_and_halved() {
        let dir = ScratchPath::new("fig9_file_mix");
        let a = run_file_mix_volume(&dir, 6, 300).expect("mix volume");
        let b = run_file_mix_volume(&dir, 6, 300).expect("mix volume rerun");
        assert_eq!(a.plain_bytes, b.plain_bytes);
        assert_eq!(a.compressed_bytes, b.compressed_bytes);
        assert_eq!(a.plain_read_calls, 6 * 6, "one read per column extent");
        assert!(
            a.ratio >= 2.0,
            "the fig9 mix must at least halve file I/O, got {:.2}x",
            a.ratio
        );
    }

    #[test]
    fn sim_front_end_is_metadata_faithful() {
        let dir = ScratchPath::new("fig9_file_sim");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Chunks must span several 64 KiB pages for the page-granular sim
        // model to see the compressed extents as fewer pages.
        let plain_path = dir.join("plain.seg");
        let compressed_path = dir.join("compressed.seg");
        write_lineitem_segment(&plain_path, 4, 20_000, false).expect("write plain");
        write_lineitem_segment(&compressed_path, 4, 20_000, true).expect("write compressed");
        let (plain_secs, plain_bytes) =
            run_sim_from_segment(&plain_path, PolicyKind::Relevance, 1).expect("sim plain");
        let (compressed_secs, compressed_bytes) =
            run_sim_from_segment(&compressed_path, PolicyKind::Relevance, 1)
                .expect("sim compressed");
        // The sim's modelled I/O tracks the real extent sizes: the
        // compressed segment schedules fewer bytes and finishes no later.
        assert!(compressed_bytes < plain_bytes);
        assert!(compressed_secs <= plain_secs);
        // Sim bytes come from the directory's real extents, rounded up to
        // whole pages per extent (the model is per column); one full scan
        // must stay within a page per extent of the measured file volume.
        let (file_plain, extents) = measured_volume(&plain_path, 4).expect("measure plain");
        assert!(plain_bytes >= file_plain);
        assert!(plain_bytes <= file_plain + extents * DEFAULT_PAGE_SIZE);
    }

    /// The simulated half runs on the live half's buffer, a quarter of the
    /// table: staggered scans then contend for it, and the four policies
    /// read different volumes.  (On a buffer that holds the whole table
    /// every policy reads each chunk once.)
    #[test]
    fn sim_front_end_policies_contend_for_the_live_buffer() {
        let dir = ScratchPath::new("fig9_file_sim_policies");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("plain.seg");
        write_lineitem_segment(&path, 32, 2_000, false).expect("write plain");
        let bytes: Vec<u64> = PolicyKind::ALL
            .iter()
            .map(|&policy| run_sim_from_segment(&path, policy, 4).expect("sim").1)
            .collect();
        assert!(
            bytes.iter().any(|&b| b != bytes[0]),
            "every policy read {} bytes",
            bytes[0]
        );
    }
}
