//! Release-only acceptance gates for the compressed payload path (wired
//! into CI's `speedup-acceptance` job):
//!
//! 1. PFOR and PDICT decode must each sustain at least
//!    [`DECODE_FLOOR_GIB_S`] GiB/s of decoded output on one thread.
//! 2. The Figure 9 mix (lineitem demo columns under their matched PDICT /
//!    PFOR / PFOR-DELTA schemes) must shrink I/O volume at least 2×.

use cscan_bench::experiments::fig9;
use cscan_storage::codec::EncodedColumn;
use cscan_storage::Compression;
use std::time::Duration;

/// The decode floor, in GiB/s of decoded output on a single thread, for
/// the figure's PFOR 21-bit column (~2% exceptions) and its PDICT 2-bit
/// column, 32 MiB of output each.  A third of what the word-at-a-time
/// unpack sustains on this repo's 2-core dev box (six runs of this test:
/// PFOR 3.0–6.1, median 4.6; PDICT 2.4–5.1, median 4.5), which leaves a
/// shared CI runner its noise and still sits above the 0.9–1.4 GiB/s PFOR
/// got from a reader that refills a byte and pushes a value at a time —
/// so a return of that reader fails here, not as a percentile in a
/// benchmark.
const DECODE_FLOOR_GIB_S: f64 = 1.5;

fn assert_decode_sustains_floor(codec: &str, values: &[i64], scheme: Compression) {
    let enc = EncodedColumn::encode(values, scheme);
    assert_eq!(enc.decode(), values, "the gate only counts correct decodes");
    let gib_s = fig9::measure_decode_gib_s(&enc, Duration::from_millis(500));
    assert!(
        gib_s >= DECODE_FLOOR_GIB_S,
        "{codec} decode fell below the floor: {gib_s:.2} GiB/s < {DECODE_FLOOR_GIB_S} GiB/s"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "decode bandwidth is measured in release builds only"
)]
fn compression_pfor_decode_sustains_floor() {
    // 2^22 values = 32 MiB decoded; figure-shaped 21-bit data with 2%
    // full-width outliers.
    let values: Vec<i64> = (0..1i64 << 22)
        .map(|i| {
            if i % 50 == 0 {
                i64::MAX - i
            } else {
                i.wrapping_mul(2_654_435_761) % (1 << 21)
            }
        })
        .collect();
    assert_decode_sustains_floor(
        "PFOR",
        &values,
        Compression::Pfor {
            bits: 21,
            exception_rate: 0.02,
        },
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "decode bandwidth is measured in release builds only"
)]
fn compression_pdict_decode_sustains_floor() {
    // A three-valued flag column, like `l_returnflag`: 2-bit codes.
    let values: Vec<i64> = (0..1i64 << 22).map(|i| i % 3).collect();
    assert_decode_sustains_floor("PDICT", &values, Compression::Dictionary { bits: 2 });
}

/// The mix-volume half of the gate.  Deterministic (no timing), so it runs
/// in every build — CI's release filter picks it up alongside the floor.
#[test]
fn compression_fig9_mix_io_volume_at_least_halved() {
    let mix = fig9::run_mix_volume(64, 2_000);
    assert!(
        mix.ratio >= 2.0,
        "the fig9 mix's compressed I/O volume must be >= 2x smaller than \
         uncompressed, got {:.2}x ({:.2} MiB vs {:.2} MiB)",
        mix.ratio,
        mix.compressed_mib,
        mix.uncompressed_mib
    );
}
