//! Figure 9 — lightweight compression: decode bandwidth, compression
//! ratios, and the compressed-vs-uncompressed I/O volume of the DSM mix.
//!
//! The paper's Figure 9 derives its DSM column widths from PDICT / PFOR /
//! PFOR-DELTA compression; this experiment measures the *real* codecs in
//! `cscan_storage::codec` on data shaped like the figure's columns:
//!
//! * per-scheme decode bandwidth (GiB/s of decoded output) and effective
//!   compression ratio (decoded bytes / encoded bytes);
//! * the I/O volume of the lineitem demo mix with every column stored
//!   under its matched scheme, against the same columns uncompressed.
//!
//! The live engine's side of the question — what a scan over compressed
//! chunks delivers — is the `scan_compressed` workload of `BENCHMARK.json`.

use cscan_exec::MemTable;
use cscan_storage::codec::EncodedColumn;
use cscan_storage::{ChunkId, ChunkStore, CompressingStore, Compression};
use std::time::{Duration, Instant};

/// One codec measurement point.
#[derive(Debug, Clone)]
pub struct CodecPoint {
    /// Human-readable column/scheme description.
    pub name: &'static str,
    /// Encoded size in MiB.
    pub encoded_mib: f64,
    /// Decoded (logical) size in MiB.
    pub decoded_mib: f64,
    /// Effective compression ratio: decoded / encoded (higher = smaller).
    pub ratio: f64,
    /// Sustained decode bandwidth in GiB/s of decoded output.
    pub decode_gib_s: f64,
}

/// Generates `rows` values shaped like one of the figure's columns.
fn column_data(codec: &'static str, rows: usize) -> Vec<i64> {
    match codec {
        // A clustered key: ~4 tuples per key, strictly non-decreasing —
        // PFOR-DELTA's best case, like `l_orderkey`.
        "pfor_delta" => (0..rows).map(|i| i as i64 / 4).collect(),
        // A 21-bit-ish foreign key with ~2% full-width outliers, like
        // `l_partkey` in the figure.
        "pfor" => (0..rows)
            .map(|i| {
                if i % 50 == 0 {
                    i64::MAX - i as i64
                } else {
                    (i as i64).wrapping_mul(2_654_435_761) % (1 << 21)
                }
            })
            .collect(),
        // A three-valued flag column, like `l_returnflag`.
        "pdict" => (0..rows).map(|i| (i % 3) as i64).collect(),
        other => panic!("unknown codec {other}"),
    }
}

/// The scheme applied to each generated column.
fn column_scheme(codec: &'static str) -> Compression {
    match codec {
        "pfor_delta" => Compression::PforDelta {
            bits: 3,
            exception_rate: 0.02,
        },
        "pfor" => Compression::Pfor {
            bits: 21,
            exception_rate: 0.02,
        },
        "pdict" => Compression::Dictionary { bits: 2 },
        other => panic!("unknown codec {other}"),
    }
}

/// Measures the sustained decode bandwidth of `enc`, in GiB/s of decoded
/// output, by decoding into a reused buffer until at least `budget` has
/// elapsed (minimum three passes, so one cold pass cannot dominate).
pub fn measure_decode_gib_s(enc: &EncodedColumn, budget: Duration) -> f64 {
    let mut out = Vec::with_capacity(enc.rows());
    let started = Instant::now();
    let mut passes = 0u64;
    while passes < 3 || started.elapsed() < budget {
        enc.decode_into(&mut out);
        passes += 1;
    }
    let secs = started.elapsed().as_secs_f64();
    let decoded_bytes = passes as f64 * enc.rows() as f64 * 8.0;
    decoded_bytes / secs / (1u64 << 30) as f64
}

/// Runs the per-codec sweep: encode `rows` values per scheme, measure
/// ratio and decode bandwidth.
pub fn run_codec_sweep(rows: usize) -> Vec<CodecPoint> {
    [
        ("orderkey: PFOR-DELTA 3-bit", "pfor_delta"),
        ("partkey: PFOR 21-bit", "pfor"),
        ("returnflag: PDICT 2-bit", "pdict"),
    ]
    .into_iter()
    .map(|(name, codec)| {
        let values = column_data(codec, rows);
        let enc = EncodedColumn::encode(&values, column_scheme(codec));
        debug_assert_eq!(enc.decode(), values, "codec must round-trip");
        let decoded_bytes = rows as f64 * 8.0;
        CodecPoint {
            name,
            encoded_mib: enc.encoded_bytes() as f64 / (1 << 20) as f64,
            decoded_mib: decoded_bytes / (1 << 20) as f64,
            ratio: decoded_bytes / enc.encoded_bytes() as f64,
            decode_gib_s: measure_decode_gib_s(&enc, Duration::from_millis(200)),
        }
    })
    .collect()
}

/// The I/O volumes of the figure's mix: every lineitem demo column stored
/// under its matched scheme vs. uncompressed.
#[derive(Debug, Clone, Copy)]
pub struct MixVolume {
    /// Plain (uncompressed) bytes of the mix, in MiB.
    pub uncompressed_mib: f64,
    /// Encoded bytes of the same columns, in MiB.
    pub compressed_mib: f64,
    /// Volume ratio (uncompressed / compressed; ≥ 2 is the paper's regime).
    pub ratio: f64,
}

/// Materializes every chunk of a lineitem demo table through a
/// [`CompressingStore`] and sums physical (encoded) vs logical bytes.
pub fn run_mix_volume(chunks: u32, rows_per_chunk: u64) -> MixVolume {
    let table = MemTable::lineitem_demo(chunks as u64 * rows_per_chunk, rows_per_chunk);
    let store = CompressingStore::new(table, MemTable::lineitem_demo_schemes());
    let (mut physical, mut logical) = (0usize, 0usize);
    for c in 0..chunks {
        let payload = store
            .materialize(ChunkId::new(c), None)
            .expect("in-memory store cannot fail");
        physical += payload.physical_bytes();
        logical += payload.logical_bytes();
    }
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    MixVolume {
        uncompressed_mib: mib(logical),
        compressed_mib: mib(physical),
        ratio: logical as f64 / physical.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_sweep_produces_sane_points() {
        let points = run_codec_sweep(64 * 1024);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.ratio > 1.0, "{}: figure-shaped data must shrink", p.name);
            assert!(p.decode_gib_s > 0.0);
        }
        // The clustered key compresses hardest.
        assert!(
            points[0].ratio > 10.0,
            "PFOR-DELTA ratio: {}",
            points[0].ratio
        );
    }

    #[test]
    fn mix_volume_matches_the_paper_regime() {
        let mix = run_mix_volume(8, 1_000);
        assert!(
            mix.ratio >= 2.0,
            "the fig9 mix must at least halve I/O volume, got {:.2}x",
            mix.ratio
        );
        assert!(mix.compressed_mib < mix.uncompressed_mib);
    }
}
