//! Bulk loader: writes a table as an on-disk segment file.
//!
//! Streams chunks straight from the deterministic generators through
//! `write_store` into a `SegmentWriter`, so memory stays bounded by one chunk regardless of
//! table size — multi-GiB loads are just `--chunks`:
//!
//! ```text
//! segment_load [--table lineitem|synthetic] [--layout nsm|dsm]
//!              [--chunks N] [--rows-per-chunk N] [--compressed]
//!              [--width N] [--seed N] [--out PATH]
//! ```
//!
//! * `lineitem` is the six-column demo table the fig5/fig9 experiments
//!   scan; `--compressed` stores it under the Figure 9 codec mix.
//! * `synthetic` is a `--width`-column table of seeded pseudo-random
//!   values (mostly 16-bit with ~1% full-width outliers); `--compressed`
//!   stores every column under PFOR with an exception budget for the
//!   outliers.
//! * `--layout` only picks the chunk-geometry convention (NSM chunks are
//!   byte-sized, DSM chunks are tuple-count partitions) — the segment
//!   format itself always keeps per-column extents, which is what lets
//!   `FileStore` serve both `cols: None` (whole chunks, NSM) and
//!   column-subset (DSM) requests from one file.
//!
//! The writer targets `<out>.tmp` and atomically renames on success, so a
//! killed load never leaves a partial segment under the final name; it
//! refuses to write over an existing `<out>.tmp`, so remove a killed
//! load's orphan before rerunning.

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use cscan_exec::table::ColumnGen;
use cscan_exec::MemTable;
use cscan_storage::{write_store, Compression};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Rows per NSM chunk by default: ~4.6 MiB of six-column tuples.
const NSM_DEFAULT_ROWS: u64 = 100_000;
/// Rows per DSM chunk by default: the paper's tuple-count partitioning.
const DSM_DEFAULT_ROWS: u64 = 500_000;

struct Args {
    table: String,
    layout: String,
    chunks: u32,
    rows_per_chunk: Option<u64>,
    compressed: bool,
    width: usize,
    seed: u64,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: segment_load [--table lineitem|synthetic] [--layout nsm|dsm] \
         [--chunks N] [--rows-per-chunk N] [--compressed] [--width N] \
         [--seed N] [--out PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        table: "lineitem".into(),
        layout: "nsm".into(),
        chunks: 64,
        rows_per_chunk: None,
        compressed: false,
        width: 8,
        seed: 0x5EED,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v,
                None => {
                    eprintln!("{name} needs a value");
                    usage()
                }
            }
        };
        match flag.as_str() {
            "--table" => args.table = value("--table"),
            "--layout" => args.layout = value("--layout"),
            "--chunks" => args.chunks = parse_num(&value("--chunks")) as u32,
            "--rows-per-chunk" => args.rows_per_chunk = Some(parse_num(&value("--rows-per-chunk"))),
            "--compressed" => args.compressed = true,
            "--width" => args.width = parse_num(&value("--width")) as usize,
            "--seed" => args.seed = parse_num(&value("--seed")),
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if !matches!(args.table.as_str(), "lineitem" | "synthetic") {
        eprintln!("unknown table {}", args.table);
        usage()
    }
    if !matches!(args.layout.as_str(), "nsm" | "dsm") {
        eprintln!("unknown layout {}", args.layout);
        usage()
    }
    if args.chunks == 0 || args.width == 0 {
        eprintln!("degenerate geometry");
        usage()
    }
    args
}

fn parse_num(s: &str) -> u64 {
    match s.replace('_', "").parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("not a number: {s}");
            usage()
        }
    }
}

/// SplitMix64: the deterministic value stream of the synthetic table.
fn synthetic_value(seed: u64, col: usize, row: u64) -> i64 {
    let mut z = seed
        .wrapping_add((col as u64).wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(row.wrapping_mul(0xBF58476D1CE4E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    if z.is_multiple_of(97) {
        // ~1% large positive outliers exercise PFOR's exception path
        // (kept positive: a negative outlier would become the block's
        // frame-of-reference base and un-compress the whole block).
        (z >> 20) as i64
    } else {
        (z % (1 << 16)) as i64
    }
}

/// The synthetic table: `width` columns of [`synthetic_value`]s.
fn synthetic_table(args: &Args, num_tuples: u64, rows_per_chunk: u64) -> MemTable {
    let seed = args.seed;
    let columns: Vec<(String, ColumnGen)> = (0..args.width)
        .map(|col| {
            let gen: ColumnGen = Arc::new(move |row| synthetic_value(seed, col, row));
            (format!("c{col}"), gen)
        })
        .collect();
    MemTable::new(columns, num_tuples, rows_per_chunk)
}

fn main() {
    let args = parse_args();
    let rows_per_chunk = args.rows_per_chunk.unwrap_or(match args.layout.as_str() {
        "dsm" => DSM_DEFAULT_ROWS,
        _ => NSM_DEFAULT_ROWS,
    });
    let suffix = if args.compressed { "" } else { "_plain" };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("{}_{}{suffix}.seg", args.table, args.layout)));

    let num_tuples = args.chunks as u64 * rows_per_chunk;
    let (width, schemes): (usize, Vec<Compression>) = match args.table.as_str() {
        "lineitem" => {
            let schemes = if args.compressed {
                MemTable::lineitem_demo_schemes()
            } else {
                vec![Compression::None; 6]
            };
            (6, schemes)
        }
        _ => {
            let scheme = if args.compressed {
                Compression::Pfor {
                    bits: 17,
                    exception_rate: 0.02,
                }
            } else {
                Compression::None
            };
            (args.width, vec![scheme; args.width])
        }
    };
    println!(
        "loading {} ({}, {}): {} chunks x {rows_per_chunk} rows x {width} columns -> {}",
        args.table,
        args.layout,
        if args.compressed {
            "compressed"
        } else {
            "plain"
        },
        args.chunks,
        out.display()
    );

    let started = Instant::now();
    // The writer targets <out>.tmp and its finish() fsyncs the data,
    // renames <out>.tmp -> <out> and fsyncs the parent directory: the
    // segment is durably installed or not present.
    let table = if args.table == "lineitem" {
        MemTable::lineitem_demo(num_tuples, rows_per_chunk)
    } else {
        synthetic_table(&args, num_tuples, rows_per_chunk)
    };
    let summary = match write_store(&out, &table, table.num_chunks(), schemes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            std::process::exit(1);
        }
    };
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let mib = summary.file_bytes as f64 / (1024.0 * 1024.0);
    let logical_mib = (summary.rows * width as u64 * 8) as f64 / (1024.0 * 1024.0);
    println!(
        "wrote {} rows, {mib:.1} MiB on disk ({logical_mib:.1} MiB logical, {:.2}x) \
         in {secs:.2}s ({:.1} MiB/s)",
        summary.rows,
        logical_mib / mib.max(1e-9),
        mib / secs
    );
}
