//! Figure 9 — compressed mini-columns: per-codec decode bandwidth and
//! compression ratio, the mix's compressed-vs-uncompressed I/O volume, and
//! a live compressed scan (verify at pin, decode at first touch).  Writes
//! `BENCH_compression.json` so the compression trajectory is tracked
//! across PRs.

use cscan_bench::experiments::fig9;
use cscan_bench::report::TextTable;
use std::fmt::Write as _;

/// Values per codec point in the sweep (8 MiB of decoded data each).
const SWEEP_ROWS: usize = 1 << 20;
/// Geometry of the mix-volume and live measurements.
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

    let live = fig9::run_live_compressed(MIX_CHUNKS, MIX_ROWS_PER_CHUNK);
    println!(
        "live scan: {} rows in {:.3}s ({:.1} MiB/s delivered), decode {:.4}s \
         ({} values, {:.2} GiB/s on the consumer thread)\n",
        live.rows,
        live.wall_secs,
        live.delivered_mib_s,
        live.decode_secs,
        live.values_decoded,
        live.live_decode_gib_s
    );

    let json = render_json(&points, &mix, &live);
    let path = "BENCH_compression.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Renders the measurements as JSON (hand-rolled: the workspace
/// deliberately has no serde_json dependency).
fn render_json(
    points: &[fig9::CodecPoint],
    mix: &fig9::MixVolume,
    live: &fig9::LiveCompressedPoint,
) -> String {
    let mut out = String::from("{\n  \"experiment\": \"fig9_compression\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"codec\": \"{}\", \"rows\": {}, \
             \"encoded_mib\": {:.3}, \"decoded_mib\": {:.3}, \
             \"compression_ratio\": {:.3}, \"decode_gib_s\": {:.3}}}{sep}",
            p.name, p.codec, p.rows, p.encoded_mib, p.decoded_mib, p.ratio, p.decode_gib_s
        );
    }
    let _ = writeln!(
        out,
        "  ],\n  \"mix\": {{\"uncompressed_mib\": {:.3}, \"compressed_mib\": {:.3}, \
         \"io_volume_ratio\": {:.3}}},",
        mix.uncompressed_mib, mix.compressed_mib, mix.ratio
    );
    let _ = writeln!(
        out,
        "  \"live\": {{\"chunks\": {}, \"rows\": {}, \"wall_secs\": {:.4}, \
         \"decode_secs\": {:.4}, \"values_decoded\": {}, \"live_decode_gib_s\": {:.3}, \
         \"delivered_mib_s\": {:.3}}}\n}}",
        live.chunks,
        live.rows,
        live.wall_secs,
        live.decode_secs,
        live.values_decoded,
        live.live_decode_gib_s,
        live.delivered_mib_s
    );
    out
}
