//! Release-only acceptance gate for the fault-tolerant data plane (wired
//! into CI's `speedup-acceptance` job): payload checksumming must cost the
//! fault-free consume path at most [`MAX_OVERHEAD_FRAC`] of its
//! materialize-and-decode work — integrity is not allowed to tax the happy
//! path by more than 5%.  [`faults::run_checksum_overhead`] times the
//! verify against materialize and decode through `cscan_bench::measure`.

use cscan_bench::experiments::faults;

/// The documented ceiling on the clean-path checksum overhead.  On a
/// shared 2-core VM the gate reads 0.008–0.012, and 0.09–0.15 with a
/// byte-at-a-time checksum in place of the lane-parallel one.
const MAX_OVERHEAD_FRAC: f64 = 0.05;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "checksum overhead is measured in release builds only"
)]
fn checksum_overhead_stays_under_five_percent() {
    const CHUNKS: u32 = 64;
    let timed = faults::run_checksum_overhead(CHUNKS, 2_000);
    assert!(
        timed.cost_ratio() <= MAX_OVERHEAD_FRAC,
        "checksumming taxes the clean consume path too much: {:.2}% > {:.0}% \
         ({:.1} µs verify vs {:.1} µs materialize+decode over {CHUNKS} chunks)",
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
