//! Release-only acceptance gate for the fault-tolerant data plane (wired
//! into CI's `speedup-acceptance` job): payload checksumming must cost the
//! fault-free consume path at most [`MAX_OVERHEAD_FRAC`] of its read and
//! decode work.  [`faults::run_checksum_overhead`] times the verify
//! against reading and decoding the same chunks from a compressed segment
//! file, through `cscan_bench::measure`.

use cscan_bench::experiments::faults;

/// The documented ceiling on the clean-path checksum overhead.  On a
/// shared 2-core VM the gate reads 0.049–0.057, 0.090–0.096 with every
/// checksum verified twice, 0.16–0.17 with a serial word-at-a-time
/// checksum and 0.50–0.51 with a byte-at-a-time one in place of the
/// lane-parallel one.
const MAX_OVERHEAD_FRAC: f64 = 0.075;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "checksum overhead is measured in release builds only"
)]
fn checksum_overhead_is_bounded() {
    const CHUNKS: u32 = 64;
    let timed = faults::run_checksum_overhead(CHUNKS, 2_000);
    assert!(
        timed.cost_ratio() <= MAX_OVERHEAD_FRAC,
        "checksumming taxes the clean consume path too much: {:.2}% > {:.1}% \
         ({:.1} µs verify vs {:.1} µs read+decode over {CHUNKS} chunks)",
        timed.cost_ratio() * 100.0,
        MAX_OVERHEAD_FRAC * 100.0,
        timed.ours_s * 1e6,
        timed.theirs_s * 1e6,
    );
}

/// The correctness half of the gate: a transient fault storm at a 20%
/// per-attempt failure rate must deliver every row (goodput degrades,
/// results do not).  Deterministic in outcome, so it runs in every build.
#[test]
fn fault_sweep_loses_no_rows() {
    let points = faults::run_fault_sweep(16, 500, &[0.0, 0.2]);
    assert_eq!(points[0].rows, points[1].rows, "faults must not lose rows");
    assert!(points[1].load_faults > 0, "the sweep must inject faults");
    assert_eq!(points[1].chunks_quarantined, 0, "transient-only sweep");
}
