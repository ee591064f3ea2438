//! Figure 9 — compressed mini-columns: per-codec decode bandwidth and
//! compression ratio, and the mix's compressed-vs-uncompressed I/O volume.
//! Printed, not recorded: the bounds are `tests/compression_gate.rs`, and
//! the live compressed scan is `BENCHMARK.json`'s `scan_compressed`.

use cscan_bench::experiments::fig9;
use cscan_bench::report::TextTable;

/// Values per codec point in the sweep (8 MiB of decoded data each).
const SWEEP_ROWS: usize = 1 << 20;
/// Geometry of the mix-volume measurement.
const MIX_CHUNKS: u32 = 64;
const MIX_ROWS_PER_CHUNK: u64 = 2_000;

fn main() {
    println!(
        "Figure 9 — lightweight compression: PDICT / PFOR / PFOR-DELTA codecs\n\
         ({SWEEP_ROWS} values per codec; mix = {MIX_CHUNKS} chunks x {MIX_ROWS_PER_CHUNK} rows x 6 columns)\n"
    );

    let points = fig9::run_codec_sweep(SWEEP_ROWS);
    let mut table = TextTable::new([
        "column / scheme",
        "encoded (MiB)",
        "decoded (MiB)",
        "ratio",
        "decode (GiB/s)",
    ]);
    for p in &points {
        table.row([
            p.name.to_string(),
            format!("{:.2}", p.encoded_mib),
            format!("{:.2}", p.decoded_mib),
            format!("{:.1}x", p.ratio),
            format!("{:.2}", p.decode_gib_s),
        ]);
    }
    println!("{}", table.render());

    let mix = fig9::run_mix_volume(MIX_CHUNKS, MIX_ROWS_PER_CHUNK);
    println!(
        "mix I/O volume: {:.2} MiB compressed vs {:.2} MiB uncompressed ({:.2}x smaller; \
         acceptance gate: >= 2x)\n",
        mix.compressed_mib, mix.uncompressed_mib, mix.ratio
    );
}
