//! Acceptance gates for the file-backed storage path (segment files
//! through `FileStore`).
//!
//! The I/O-volume gate is deterministic (no timing) and runs in every
//! build: serving the Figure 9 lineitem mix from the compressed segment
//! must read at least 2x fewer bytes at the `read_at` boundary than the
//! plain segment — the file-level analogue of `compression_gate`'s
//! in-memory check.  The CI-scale sweep is release-only (debug builds run
//! the smaller smoke in the experiment module's unit tests) and stays
//! under a tmpfs-friendly 256 MiB.

use cscan_bench::experiments::fig9_file::{self, crossover, FileSweepConfig};
use cscan_core::policy::PolicyKind;
use cscan_storage::ScratchPath;

#[test]
fn file_backed_mix_io_volume_gate() {
    let dir = ScratchPath::new("file_gate_mix");
    let mix = fig9_file::run_file_mix_volume(&dir, 16, 2_000).expect("file mix volume");
    // One positioned read per column extent, nothing speculative.
    assert_eq!(mix.plain_read_calls, 16 * 6);
    assert_eq!(mix.compressed_read_calls, 16 * 6);
    assert!(
        mix.ratio >= 2.0,
        "file-backed fig9 mix must at least halve bytes-from-disk, got {:.2}x \
         ({} plain vs {} compressed bytes)",
        mix.ratio,
        mix.plain_bytes,
        mix.compressed_bytes
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: CI-scale file-backed sweep (debug builds cover the \
              smaller smoke in the fig9_file unit tests)"
)]
fn file_backed_sweep_ci_scale() {
    // ~14.6 MiB plain + ~1.8 MiB compressed on the scratch filesystem —
    // comfortably tmpfs-friendly (<< 256 MiB).
    let dir = ScratchPath::new("file_gate_sweep");
    let cfg = FileSweepConfig {
        dir: dir.to_path_buf(),
        chunks: 32,
        rows_per_chunk: 10_000,
        streams: 4,
        io_threads: vec![2],
    };
    let (points, [plain, compressed]) = fig9_file::run_file_sweep(&cfg).expect("file sweep");
    assert_eq!(points.len(), 2 * PolicyKind::ALL.len());
    assert!(compressed.file_bytes * 2 < plain.file_bytes);
    let expected_rows = points[0].rows;
    for p in &points {
        assert!(p.delivered_mib_s > 0.0, "{} {}", p.mode, p.policy);
        assert_eq!(p.rows, expected_rows, "{} {}", p.mode, p.policy);
        assert_eq!(p.unconsumed_drops, 0, "{} {}", p.mode, p.policy);
        assert!(p.file_read_calls > 0 && p.file_bytes_read > 0, "{}", p.mode);
    }
    let x = crossover(&points);
    assert!(x.plain_best_mib_s > 0.0 && x.compressed_best_mib_s > 0.0);
}
