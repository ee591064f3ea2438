//! Single-threaded probes of the traced run: each calls one layer's public
//! functions over every chunk of the workload's table and times the calls,
//! so a layer's own cost is known apart from the waiting a concurrent run
//! mixes into it.  They run after the timed rounds, on the same server, and
//! report zeros for a layer the workload does not use.

use crate::spec::{Scale, Workload, FLAG_COL, QTY_COL, SERVED_COLUMNS};
use crate::stats::{percentile, ratio, GIB, MIB};
use crate::wall::{Engine, SERVED_TABLE};
use crate::Metrics;
use cscan_core::{CScanPlan, ColSet};
use cscan_obs::{Counter, Registry};
use cscan_proto::{encode_batch_frame, Decoder, Message};
use cscan_server::{Catalog, Pump, ServerScan};
use cscan_storage::segment::FileStore;
use cscan_storage::{ChunkId, ChunkStore, ColumnId, ScanRanges};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn failed(what: &str, chunk: u32, e: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("probe: {what} of chunk {chunk} failed: {e:?}"))
}

/// Runs the probes that apply to `w` and sets their metrics.
pub fn run(
    m: &mut Metrics,
    w: Workload,
    scale: &Scale,
    engine: &Engine,
    segment: &Path,
) -> io::Result<()> {
    storage_and_proto(m, w == Workload::ServedLoopback, scale, segment)?;
    core_probe(m, scale, engine)?;
    match engine {
        Engine::Served { catalog, .. } => server_probe(m, scale, catalog),
        Engine::Local(_) => {
            m.set("server.admit_ns_p50", 0.0);
            m.set("server.pump_ns_per_batch", 0.0);
            Ok(())
        }
    }
}

/// `cscan_storage` over every chunk of the segment file, through a store of
/// its own: read, verify, decode.  For `served_loopback` each chunk's two
/// served columns then go through `cscan_proto`: encode a batch frame,
/// feed it to a decoder, take the message out.
fn storage_and_proto(
    m: &mut Metrics,
    served: bool,
    scale: &Scale,
    segment: &Path,
) -> io::Result<()> {
    let obs = Arc::new(Registry::new());
    let store = FileStore::open(segment)?.with_observability(Arc::clone(&obs));
    let (mut read, mut checksum, mut decode) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut decoded_bytes = 0.0;
    let (mut frame, mut decoder) = (Vec::new(), Decoder::new());
    let (mut proto_encode, mut proto_decode) = (Duration::ZERO, Duration::ZERO);
    let (mut batches, mut frame_bytes, mut payload_bytes) = (0.0, 0.0, 0.0);
    for c in 0..scale.chunks {
        let started = Instant::now();
        let payload = store
            .materialize(ChunkId::new(c), None)
            .map_err(|e| failed("read", c, e))?;
        read += started.elapsed();

        let started = Instant::now();
        payload
            .verify_checksums()
            .map_err(|e| failed("checksum", c, e))?;
        checksum += started.elapsed();

        let started = Instant::now();
        let values = payload
            .try_decode_all()
            .map_err(|e| failed("decode", c, e))?;
        decode += started.elapsed();
        decoded_bytes += values as f64 * 8.0;

        if served {
            let (Some(qty), Some(flag)) = (
                payload.column(ColumnId::new(QTY_COL)),
                payload.column(ColumnId::new(FLAG_COL)),
            ) else {
                return Err(failed("column lookup", c, "missing column"));
            };
            frame.clear();
            let started = Instant::now();
            let bytes = encode_batch_frame(
                &mut frame,
                1,
                c,
                qty.len() as u32,
                &[(QTY_COL, qty), (FLAG_COL, flag)],
            );
            proto_encode += started.elapsed();
            frame_bytes += bytes as f64;
            payload_bytes += (qty.len() + flag.len()) as f64 * 8.0;
            batches += 1.0;

            let started = Instant::now();
            decoder.feed(&frame);
            let message = decoder.next_message();
            proto_decode += started.elapsed();
            if !matches!(message, Ok(Some(Message::Batch { chunk, .. })) if chunk == c) {
                return Err(failed("frame decode", c, message));
            }
        }
    }
    let chunks = scale.chunks as f64;
    let file_bytes = obs.snapshot().counter(Counter::FileBytesRead.name()) as f64;
    m.set("storage.read_ns_per_chunk", ns(read) / chunks);
    m.set(
        "storage.read_mib_s",
        ratio(file_bytes / MIB * 1e9, ns(read)),
    );
    m.set("storage.checksum_ns_per_chunk", ns(checksum) / chunks);
    m.set("storage.decode_ns_per_chunk", ns(decode) / chunks);
    // Nothing to decode on a plain segment: no rate, not an infinite one.
    let decode_gib_s = if decoded_bytes > 0.0 {
        ratio(decoded_bytes / GIB * 1e9, ns(decode))
    } else {
        0.0
    };
    m.set("storage.decode_gib_s", decode_gib_s);
    m.set(
        "proto.encode_ns_per_batch",
        ratio(ns(proto_encode), batches),
    );
    m.set(
        "proto.encode_gib_s",
        ratio(payload_bytes / GIB * 1e9, ns(proto_encode)),
    );
    m.set(
        "proto.decode_ns_per_batch",
        ratio(ns(proto_decode), batches),
    );
    m.set(
        "proto.decode_gib_s",
        ratio(payload_bytes / GIB * 1e9, ns(proto_decode)),
    );
    m.set(
        "proto.frame_bytes_per_payload_byte",
        ratio(frame_bytes, payload_bytes),
    );
    Ok(())
}

/// `cscan_core` alone: one full scan on the workload's own server, every
/// `complete()` timed, and the registry's `snapshot()`.
fn core_probe(m: &mut Metrics, scale: &Scale, engine: &Engine) -> io::Result<()> {
    let handle = engine.server().cscan(CScanPlan::new(
        "probe-core",
        ScanRanges::full(scale.chunks),
        ColSet::empty(),
    ));
    let (mut completing, mut chunks) = (Duration::ZERO, 0u32);
    while let Some(pin) = handle
        .next_chunk()
        .map_err(|e| io::Error::other(format!("probe: {e}")))?
    {
        let started = Instant::now();
        pin.complete();
        completing += started.elapsed();
        chunks += 1;
    }
    drop(handle);
    m.set(
        "core.complete_ns_per_chunk",
        ratio(ns(completing), chunks as f64),
    );

    let registry = engine.registry();
    let mut snapshots = Vec::with_capacity(20);
    for _ in 0..20 {
        let started = Instant::now();
        std::hint::black_box(registry.snapshot());
        snapshots.push(started.elapsed().as_nanos() as u64);
    }
    snapshots.sort_unstable();
    m.set("obs.snapshot_ns", percentile(&snapshots, 0.50) as f64);
    Ok(())
}

/// `cscan_server` in process, no socket: the admission gate, and the
/// service pump over one full scan of the served columns.
fn server_probe(m: &mut Metrics, scale: &Scale, catalog: &Catalog) -> io::Result<()> {
    let entry = catalog
        .get(SERVED_TABLE)
        .expect("set-up registered the table");
    let obs = catalog.observability();

    let mut admits = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        let started = Instant::now();
        let permit = entry.admission().admit();
        admits.push(started.elapsed().as_nanos() as u64);
        permit.map_err(|e| io::Error::other(format!("probe: admit refused: {e}")))?;
    }
    admits.sort_unstable();
    m.set("server.admit_ns_p50", percentile(&admits, 0.50) as f64);

    // `pump` never blocks, so this loop spins while a load is in flight;
    // only the calls that delivered a batch count.
    let plan = CScanPlan::new(
        "probe-pump",
        ScanRanges::full(scale.chunks),
        ColSet::from_columns(SERVED_COLUMNS.map(ColumnId::new)),
    );
    let (permit, handle) = entry
        .open_scan(&plan)
        .map_err(|e| io::Error::other(format!("probe: open_scan refused: {e}")))?;
    let mut scan = ServerScan::new(1, handle, permit, entry.served_columns(), &plan);
    scan.add_credits(u32::MAX);
    let mut out = Vec::new();
    let (mut pumped, mut batches) = (Duration::ZERO, 0u32);
    loop {
        out.clear();
        let started = Instant::now();
        match scan.pump(&mut out, &obs) {
            Pump::Delivered => {
                pumped += started.elapsed();
                batches += 1;
            }
            Pump::Idle => std::thread::yield_now(),
            Pump::Closed => break,
        }
    }
    if batches != scale.chunks {
        return Err(io::Error::other(format!(
            "probe: pump delivered {batches} of {} batches",
            scale.chunks
        )));
    }
    m.set(
        "server.pump_ns_per_batch",
        ratio(ns(pumped), batches as f64),
    );
    Ok(())
}
