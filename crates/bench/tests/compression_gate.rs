//! Release-only acceptance gates for the compressed payload path (wired
//! into CI's `speedup-acceptance` job):
//!
//! 1. PFOR and PDICT decode must each sustain at least
//!    [`DECODE_FLOOR_GIB_S`] GiB/s of decoded output on one thread.
//! 2. PFOR and PDICT encode must each run at least
//!    [`ENCODE_SPEEDUP_FLOOR`] times as fast as the byte-at-a-time
//!    reference encoder, timed side by side on one thread.
//! 3. The Figure 9 mix (lineitem demo columns under their matched PDICT /
//!    PFOR / PFOR-DELTA schemes) must shrink I/O volume at least 2×.

use cscan_bench::experiments::fig9;
use cscan_storage::codec::{checksum64, EncodedColumn, BLOCK_LEN};
use cscan_storage::Compression;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held while a gate measures: the timed gates run one at a time, as two
/// side by side on a 2-core box take each other's core.
static MEASURING: Mutex<()> = Mutex::new(());

fn measuring() -> MutexGuard<'static, ()> {
    MEASURING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _measuring = measuring();
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

/// How many times as fast as [`reference_encode`] the encoder must encode
/// a chunk-sized column (20 000 values, as the segment writer and an
/// in-memory compressed store encode them).  The two are timed in
/// alternating windows on one thread, so a slow runner or a slow phase
/// slows both alike.  Runs of these tests on this repo's 2-core dev box
/// read PFOR 2.7–4.4× (sixteen) and PDICT 5.2–6.2× (eight, on the
/// 50-valued column).  With the byte-at-a-time packer put back under the
/// encoder,
/// PFOR read 1.4–1.7× (sixteen runs); with the dictionary sorted from a
/// copy of the column and binary-searched for every value, PDICT read
/// 0.9–1.2× (four).  The floor sits between: a return of either old half
/// fails here, on a fast runner or a slow one.
const ENCODE_SPEEDUP_FLOOR: f64 = 2.0;

/// Rows of one column of one chunk.
const CHUNK_ROWS: i64 = 20_000;

/// SplitMix64 of `i`: deterministic column contents.
fn mix(i: i64) -> u64 {
    let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Appends `bits`-wide fields in little-endian bit order a byte at a
/// time: each field is shifted into a `u128`, whose completed bytes are
/// pushed one by one.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u128,
    nbits: u32,
}

impl BitWriter<'_> {
    fn push(&mut self, field: u64, bits: u32) {
        self.acc |= (field as u128) << self.nbits;
        self.nbits += bits;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(self) {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
    }
}

/// The PFOR and PDICT encoder the codecs shipped with before they packed a
/// word at a time: fields go through [`BitWriter`]; PFOR tests each value's
/// fit in a counting, a packing and an exception pass; PDICT sorts a copy
/// of the column and binary-searches every value.  It writes the bytes
/// [`EncodedColumn::encode`] writes (checked before timing) and checksums
/// them as it does, so the two do the same work.
fn reference_encode(values: &[i64], scheme: Compression) -> Vec<u8> {
    let mut out = Vec::new();
    match scheme {
        Compression::Dictionary { .. } => {
            let mut dict = values.to_vec();
            dict.sort_unstable();
            dict.dedup();
            out.push(1);
            out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
            dict.iter()
                .for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
            let width = (usize::BITS - dict.len().saturating_sub(1).leading_zeros()).max(1);
            out.push(width as u8);
            let mut w = BitWriter {
                out: &mut out,
                acc: 0,
                nbits: 0,
            };
            for v in values {
                let code = dict
                    .binary_search(v)
                    .expect("every value is in the dictionary");
                w.push(code as u64, width);
            }
            w.finish();
        }
        Compression::Pfor { bits, .. } => {
            let bits = u32::from(bits).clamp(1, 64);
            out.extend_from_slice(&[2, bits as u8]);
            for block in values.chunks(BLOCK_LEN) {
                let base = block.iter().copied().min().unwrap_or(0);
                let fits = |v: i64| bits == 64 || (v.wrapping_sub(base) as u64) < 1 << bits;
                let n_exc = block.iter().filter(|&&v| !fits(v)).count();
                out.extend_from_slice(&(block.len() as u16).to_le_bytes());
                out.extend_from_slice(&base.to_le_bytes());
                out.extend_from_slice(&(n_exc as u16).to_le_bytes());
                let mut w = BitWriter {
                    out: &mut out,
                    acc: 0,
                    nbits: 0,
                };
                for &v in block {
                    let offset = if fits(v) {
                        v.wrapping_sub(base) as u64
                    } else {
                        0
                    };
                    w.push(offset, bits);
                }
                w.finish();
                for (i, &v) in block.iter().enumerate().filter(|&(_, &v)| !fits(v)) {
                    out.extend_from_slice(&(i as u16).to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        _ => unreachable!("the encode gates time PFOR and PDICT"),
    }
    std::hint::black_box(checksum64(&out));
    out
}

/// Encodes per second of `encode`, over one window of at least 100 ms and
/// three encodes.
fn encodes_per_s(encode: impl Fn() -> usize) -> f64 {
    let started = Instant::now();
    let mut passes = 0u64;
    while passes < 3 || started.elapsed() < Duration::from_millis(100) {
        std::hint::black_box(encode());
        passes += 1;
    }
    passes as f64 / started.elapsed().as_secs_f64()
}

fn assert_encode_sustains_floor(column: &str, values: &[i64], scheme: Compression) {
    let enc = EncodedColumn::encode(values, scheme);
    assert_eq!(enc.decode(), values, "the gate only counts correct encodes");
    assert_eq!(
        enc.as_bytes(),
        reference_encode(values, scheme),
        "the reference must do the encoder's work"
    );
    let encode = || EncodedColumn::encode(std::hint::black_box(values), scheme).encoded_bytes();
    let reference = || reference_encode(std::hint::black_box(values), scheme).len();
    // The best of five windows a side, alternating: a busy neighbour only
    // ever slows a window down.
    let (mut ours, mut theirs) = (0.0f64, 0.0f64);
    {
        let _measuring = measuring();
        for _ in 0..5 {
            ours = ours.max(encodes_per_s(encode));
            theirs = theirs.max(encodes_per_s(reference));
        }
    }
    let gib_s = |per_s: f64| per_s * values.len() as f64 * 8.0 / (1u64 << 30) as f64;
    let speedup = ours / theirs;
    println!(
        "{column}: {:.2} GiB/s against the reference's {:.2}: {speedup:.2}x",
        gib_s(ours),
        gib_s(theirs)
    );
    assert!(
        speedup >= ENCODE_SPEEDUP_FLOOR,
        "{column} encode fell below the floor: {speedup:.2}x the reference encoder < \
         {ENCODE_SPEEDUP_FLOOR}x"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "encode speed is measured in release builds only"
)]
fn compression_pfor_encode_sustains_floor() {
    // Figure-shaped 21-bit offsets with a full-width outlier every
    // 1 000th value: most blocks fit their width, as the benchmark's do,
    // and one in eight holds an exception and tests each value.
    let values: Vec<i64> = (0..CHUNK_ROWS)
        .map(|i| {
            if i % 1_000 == 0 {
                i64::MAX - i
            } else {
                (mix(i) % (1 << 21)) as i64
            }
        })
        .collect();
    assert_encode_sustains_floor(
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
    ignore = "encode speed is measured in release builds only"
)]
fn compression_pdict_encode_sustains_floor() {
    // Quantities 1..=50, like `l_quantity`: 6-bit codes.
    let values: Vec<i64> = (0..CHUNK_ROWS).map(|i| (mix(i) % 50 + 1) as i64).collect();
    assert_encode_sustains_floor("PDICT", &values, Compression::Dictionary { bits: 6 });
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
