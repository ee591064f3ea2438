//! The scan service's binary wire protocol.
//!
//! One scan over the network is a conversation of length-prefixed frames:
//! the client opens a scan with a [`CScanPlan`] against a named catalog
//! table (`OpenScan`), pulls column batches with explicit credits
//! (`NextBatch` → a stream of `Batch` frames, ending in `ScanDone`), and
//! may abandon the scan early (`Cancel`).  The server answers failures
//! with `Error` frames carrying **stable `u16` codes** — storage errors
//! own 1–99 ([`StoreError::wire_code`]), a failed scan is
//! [`ScanError::WIRE_CODE`] (100) with the chunk and cause in the payload,
//! and the serving layer's own conditions (admission control, stalled
//! consumers, catalog misses) own 200+ via [`ServeError`].
//!
//! # Framing
//!
//! ```text
//! [u32 len (LE)] [u8 msg_type] [body: len-1 bytes]
//! ```
//!
//! `len` counts the type byte plus the body, so an empty-bodied message is
//! `len = 1`.  Frames larger than [`MAX_FRAME_LEN`] are a protocol error
//! (they would let a malicious peer make the other side allocate
//! unboundedly).  All integers are little-endian; strings are `u32` length
//! + UTF-8 bytes; column values travel as raw `i64` words.
//!
//! Both sides parse with [`Decoder`]: let it read from the socket
//! ([`Decoder::read_from`]) or feed it bytes ([`Decoder::feed`]), take
//! complete [`Message`]s out — or, on the client, let it read one whole
//! message ([`Decoder::read_message`]), which takes a `Batch`'s values
//! from the socket straight into the vectors it returns.  The server
//! queues frames in a [`SendQueue`], which holds a batch's column vectors
//! by reference and hands them to the socket in one vectored write; a
//! `Vec<u8>` takes the same frames as bytes ([`FrameSink`]).  The only I/O
//! is behind [`std::io::Read`] and [`std::io::Write`], so every path
//! round-trips in unit tests without a server.

#![warn(missing_docs)]

use cscan_core::{CScanPlan, ColSet, ScanError};
use cscan_storage::chunkdata::ColumnData;
use cscan_storage::segment::ne_bytes_mut;
use cscan_storage::{ChunkId, ChunkRange, ColumnId, ScanRanges, StoreError};
use std::io::{self, IoSliceMut, Read};

mod error;
mod send;
pub use error::ServeError;
pub use send::{FrameSink, SendQueue};

/// Upper bound on one frame's `len` field (type byte + body).  Chosen to
/// fit any realistic column batch (a 64-column × 64Ki-row chunk of `i64`s
/// is 32 MiB) with headroom, while bounding what a peer can make us buffer.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Sentinel chunk index in `Error` frames for errors not tied to a chunk.
pub const NO_CHUNK: u32 = u32::MAX;

/// A decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Message {
    /// Client → server: open a scan of `table` described by `plan`.
    OpenScan {
        /// Catalog name of the table to scan.
        table: String,
        /// What to read — the same plan type both execution front-ends use.
        plan: CScanPlan,
    },
    /// Server → client: the scan is admitted and registered.
    OpenOk {
        /// Server-assigned id; all further frames about this scan carry it.
        scan_id: u64,
        /// Chunks the scan will deliver (after resolving the plan).
        num_chunks: u32,
    },
    /// Client → server: deliver up to `credits` more batches for `scan_id`.
    /// Credits are the backpressure primitive: the server never sends a
    /// batch it was not asked for, so a slow client simply stops asking.
    ///
    /// The server does not look at a scan that holds no credit, not even
    /// to see that it has ended: `ScanDone` goes out only while a credit
    /// beyond the last batch is in hand (it does not spend it).  A client
    /// that grants exactly `num_chunks` credits in total therefore gets
    /// every batch, never `ScanDone`, and is shed as stalled; grant at
    /// least one more, or keep a window topped up.
    NextBatch {
        /// The scan being pulled.
        scan_id: u64,
        /// Number of additional `Batch` frames the client is ready for.
        credits: u32,
    },
    /// Server → client: one chunk's worth of column data.
    Batch {
        /// The scan this batch belongs to.
        scan_id: u64,
        /// Which chunk (table-relative index) the rows come from.  Chunks
        /// arrive in ABM-chosen order, not table order.
        chunk: u32,
        /// Row count (every column carries exactly this many values).
        rows: u32,
        /// `(column id, values)` pairs, ordered by column id.
        columns: Vec<(u16, Vec<i64>)>,
    },
    /// Server → client: the scan delivered everything; `scan_id` is closed.
    ScanDone {
        /// The finished scan.
        scan_id: u64,
    },
    /// Client → server: abandon `scan_id` (a LIMIT hit, a user abort).
    Cancel {
        /// The scan to abandon.
        scan_id: u64,
    },
    /// Server → client: the cancel took effect; `scan_id` is closed.
    CancelOk {
        /// The cancelled scan.
        scan_id: u64,
    },
    /// Server → client: the scan (or the request itself) failed.
    Error {
        /// The scan the error belongs to, or 0 for connection-level errors.
        scan_id: u64,
        /// Stable error code (see crate docs for the code ranges).
        code: u16,
        /// For code [`ScanError::WIRE_CODE`]: the failing chunk's
        /// [`StoreError::wire_code`].  0 otherwise.
        aux: u16,
        /// The chunk involved, or [`NO_CHUNK`].
        chunk: u32,
        /// Human-readable context (table name, queue state, …).
        detail: String,
    },
    /// Client → server: drain and close the connection (the CI smoke test
    /// and the benches use this for deterministic shutdown).
    Shutdown,
    /// Server → client: acknowledged; the server closes after this frame.
    ShutdownOk,
}

impl Message {
    /// The frame-type byte this message encodes as.
    fn type_byte(&self) -> u8 {
        match self {
            Message::OpenScan { .. } => 1,
            Message::OpenOk { .. } => 2,
            Message::NextBatch { .. } => 3,
            Message::Batch { .. } => 4,
            Message::ScanDone { .. } => 5,
            Message::Cancel { .. } => 6,
            Message::CancelOk { .. } => 7,
            Message::Error { .. } => 8,
            Message::Shutdown => 9,
            Message::ShutdownOk => 10,
        }
    }

    /// Builds the `Error` frame for a failed scan: code
    /// [`ScanError::WIRE_CODE`], cause and chunk in the payload.
    pub fn scan_error(scan_id: u64, error: ScanError) -> Message {
        Message::Error {
            scan_id,
            code: ScanError::WIRE_CODE,
            aux: error.cause.wire_code(),
            chunk: error.chunk.index(),
            detail: error.to_string(),
        }
    }

    /// Builds the `Error` frame for a serving-layer condition.
    pub fn serve_error(scan_id: u64, error: &ServeError) -> Message {
        Message::Error {
            scan_id,
            code: error.wire_code(),
            aux: 0,
            chunk: NO_CHUNK,
            detail: error.to_string(),
        }
    }

    /// Interprets an `Error` frame's fields back into a [`ScanError`], if
    /// its code says that is what it carries.
    pub fn as_scan_error(code: u16, aux: u16, chunk: u32) -> Option<ScanError> {
        if code != ScanError::WIRE_CODE {
            return None;
        }
        StoreError::from_wire_code(aux).map(|cause| ScanError::new(ChunkId::new(chunk), cause))
    }
}

/// Appends a `Batch` frame built straight from borrowed column slices,
/// copying the values in; the bytes are those [`encode_frame`] makes of
/// the same [`Message::Batch`], without building its owned `Vec<i64>`s.
/// The server's socket path queues the shared vectors instead
/// ([`SendQueue`]); this is what the `Vec<u8>` [`FrameSink`] runs.
/// Returns the encoded frame's size in bytes.
pub fn encode_batch_frame(
    buf: &mut Vec<u8>,
    scan_id: u64,
    chunk: u32,
    rows: u32,
    columns: &[(u16, &[i64])],
) -> usize {
    debug_assert!(
        columns.iter().all(|(_, v)| v.len() == rows as usize),
        "every column of a batch carries exactly `rows` values"
    );
    lay_out_batch(buf, scan_id, chunk, rows, columns, |buf, v| {
        put_values(buf, v)
    })
}

/// Frame-type byte of a `Batch`.
const BATCH_TYPE: u8 = 4;

/// Bytes of a `Batch` frame before its first column: length prefix, type
/// byte, scan id, chunk, rows and column count.
const BATCH_FIXED: usize = 4 + 1 + 8 + 4 + 4 + 2;

/// Bytes in front of each column's values: its id and value count.
const COLUMN_HEAD: usize = 2 + 4;

/// Bytes of a `Batch` frame up to its first value.
const BATCH_HEAD: usize = BATCH_FIXED + COLUMN_HEAD;

/// Whether a `Batch`'s values are read through the vector's byte view,
/// which holds them in wire order on a little-endian target only.
const IN_PLACE: bool = cfg!(target_endian = "little");

/// A column a `Batch` frame can be laid out from, however it is held.
trait Values {
    fn values(&self) -> &[i64];
}

impl Values for &[i64] {
    fn values(&self) -> &[i64] {
        self
    }
}

impl Values for Vec<i64> {
    fn values(&self) -> &[i64] {
        self
    }
}

impl Values for ColumnData {
    fn values(&self) -> &[i64] {
        self
    }
}

/// The one encoder of the `Batch` layout.  Every byte of the frame but the
/// column values goes to `head`; `values` is called with `head` and each
/// column at the point its values belong, and either copies them in
/// ([`encode_batch_frame`]) or queues the column by reference
/// ([`SendQueue`]).  Returns the frame's size in bytes.
fn lay_out_batch<V: Values>(
    head: &mut Vec<u8>,
    scan_id: u64,
    chunk: u32,
    rows: u32,
    columns: &[(u16, V)],
    mut values: impl FnMut(&mut Vec<u8>, &V),
) -> usize {
    let size = BATCH_FIXED
        + columns
            .iter()
            .map(|(_, v)| COLUMN_HEAD + v.values().len() * 8)
            .sum::<usize>();
    put_u32(head, (size - 4) as u32);
    head.push(BATCH_TYPE);
    put_u64(head, scan_id);
    put_u32(head, chunk);
    put_u32(head, rows);
    put_u16(head, columns.len() as u16);
    for (col, v) in columns {
        put_u16(head, *col);
        put_u32(head, v.values().len() as u32);
        values(head, v);
    }
    size
}

/// Why a byte stream could not be parsed.  Framing errors are fatal to the
/// connection: after one, the stream position is unreliable.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The frame's `len` field exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// A zero-length frame (no type byte).
    EmptyFrame,
    /// An unknown frame-type byte.
    UnknownType(u8),
    /// The body ended before the message was complete, or carried invalid
    /// data (bad UTF-8, inconsistent counts).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
            ProtoError::EmptyFrame => write!(f, "zero-length frame"),
            ProtoError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Why [`Decoder::read_message`] returned no message.
#[derive(Debug)]
pub enum ReadError {
    /// The source failed, or ended (`UnexpectedEof`) before a whole
    /// message arrived.
    Io(io::Error),
    /// The bytes stopped being frames; fatal, as for
    /// [`Decoder::next_message`].
    Proto(ProtoError),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

impl From<ProtoError> for ReadError {
    fn from(e: ProtoError) -> Self {
        ReadError::Proto(e)
    }
}

// ----------------------------------------------------------------------
// Encoding.
// ----------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `values` as little-endian words, in one bulk pass over a
/// pre-sized tail (a per-value `extend` re-checks the capacity two
/// thousand times a column).
fn put_values(buf: &mut Vec<u8>, values: &[i64]) {
    let at = buf.len();
    buf.resize(at + values.len() * 8, 0);
    for (word, v) in buf[at..].chunks_exact_mut(8).zip(values) {
        word.copy_from_slice(&v.to_le_bytes());
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_plan(buf: &mut Vec<u8>, plan: &CScanPlan) {
    put_str(buf, &plan.label);
    match &plan.ranges {
        None => buf.push(0),
        Some(ranges) => {
            buf.push(1);
            put_u32(buf, ranges.ranges().len() as u32);
            for r in ranges.ranges() {
                put_u32(buf, r.start);
                put_u32(buf, r.end);
            }
        }
    }
    put_u64(buf, plan.columns.bits());
    match plan.limit_chunks {
        None => buf.push(0),
        Some(n) => {
            buf.push(1);
            put_u32(buf, n);
        }
    }
}

/// Appends `msg` to `buf` as one complete frame (length prefix included).
/// Encoding into a caller-owned buffer lets a connection reuse one
/// allocation for its whole lifetime.
pub fn encode_frame(buf: &mut Vec<u8>, msg: &Message) {
    if let Message::Batch {
        scan_id,
        chunk,
        rows,
        columns,
    } = msg
    {
        lay_out_batch(buf, *scan_id, *chunk, *rows, columns, |buf, v| {
            put_values(buf, v)
        });
        return;
    }
    let len_at = buf.len();
    put_u32(buf, 0); // patched below
    buf.push(msg.type_byte());
    match msg {
        Message::OpenScan { table, plan } => {
            put_str(buf, table);
            put_plan(buf, plan);
        }
        Message::OpenOk {
            scan_id,
            num_chunks,
        } => {
            put_u64(buf, *scan_id);
            put_u32(buf, *num_chunks);
        }
        Message::NextBatch { scan_id, credits } => {
            put_u64(buf, *scan_id);
            put_u32(buf, *credits);
        }
        Message::Batch { .. } => unreachable!("laid out above"),
        Message::ScanDone { scan_id }
        | Message::Cancel { scan_id }
        | Message::CancelOk { scan_id } => {
            put_u64(buf, *scan_id);
        }
        Message::Error {
            scan_id,
            code,
            aux,
            chunk,
            detail,
        } => {
            put_u64(buf, *scan_id);
            put_u16(buf, *code);
            put_u16(buf, *aux);
            put_u32(buf, *chunk);
            put_str(buf, detail);
        }
        Message::Shutdown | Message::ShutdownOk => {}
    }
    let frame_len = (buf.len() - len_at - 4) as u32;
    buf[len_at..len_at + 4].copy_from_slice(&frame_len.to_le_bytes());
}

// ----------------------------------------------------------------------
// Decoding.
// ----------------------------------------------------------------------

/// Cursor over one frame's body.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.at + n > self.buf.len() {
            return Err(ProtoError::Malformed("body truncated"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if len > self.buf.len().saturating_sub(self.at) {
            return Err(ProtoError::Malformed("string length past body end"));
        }
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| ProtoError::Malformed("string is not UTF-8"))
    }

    fn plan(&mut self) -> Result<CScanPlan, ProtoError> {
        let label = self.string()?;
        let ranges = match self.u8()? {
            0 => None,
            1 => {
                let count = self.u32()? as usize;
                if count > self.buf.len().saturating_sub(self.at) / 8 {
                    return Err(ProtoError::Malformed("range count past body end"));
                }
                let mut ranges = Vec::with_capacity(count);
                for _ in 0..count {
                    let start = self.u32()?;
                    let end = self.u32()?;
                    if start > end {
                        return Err(ProtoError::Malformed("inverted chunk range"));
                    }
                    ranges.push(ChunkRange::new(start, end));
                }
                Some(ScanRanges::from_ranges(ranges))
            }
            _ => return Err(ProtoError::Malformed("bad ranges tag")),
        };
        let columns = ColSet::from_bits(self.u64()?);
        let limit_chunks = match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            _ => return Err(ProtoError::Malformed("bad limit tag")),
        };
        let mut plan = match ranges {
            Some(r) => CScanPlan::new(label, r, columns),
            None => CScanPlan::full_table(label, columns),
        };
        plan.limit_chunks = limit_chunks;
        Ok(plan)
    }

    fn done(&self) -> Result<(), ProtoError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Malformed("trailing bytes in frame"))
        }
    }
}

/// Parses every frame but a `Batch`, which [`Decoder::read_batch`] parses.
fn decode_body(type_byte: u8, body: &[u8]) -> Result<Message, ProtoError> {
    let mut r = Reader { buf: body, at: 0 };
    let msg = match type_byte {
        1 => Message::OpenScan {
            table: r.string()?,
            plan: r.plan()?,
        },
        2 => Message::OpenOk {
            scan_id: r.u64()?,
            num_chunks: r.u32()?,
        },
        3 => Message::NextBatch {
            scan_id: r.u64()?,
            credits: r.u32()?,
        },
        5 => Message::ScanDone { scan_id: r.u64()? },
        6 => Message::Cancel { scan_id: r.u64()? },
        7 => Message::CancelOk { scan_id: r.u64()? },
        8 => Message::Error {
            scan_id: r.u64()?,
            code: r.u16()?,
            aux: r.u16()?,
            chunk: r.u32()?,
            detail: r.string()?,
        },
        9 => Message::Shutdown,
        10 => Message::ShutdownOk,
        t => return Err(ProtoError::UnknownType(t)),
    };
    r.done()?;
    Ok(msg)
}

/// The least [`Decoder::read_from`] asks its source for: small frames
/// arrive many to a read.
const MIN_READ: usize = 64 * 1024;

/// The most [`Decoder::read_from`] reserves beyond the bytes it has
/// actually received.  A length field never buys memory: a header claiming
/// [`MAX_FRAME_LEN`] grows the buffer only as fast as the peer sends.
const MAX_READ: usize = 1024 * 1024;

/// Incremental frame parser: let it read from the socket (or feed it
/// bytes), take complete messages out.  Both the client and every server
/// connection own one of these per direction; the client reads through
/// [`Decoder::read_message`].
#[derive(Default)]
pub struct Decoder {
    /// Storage.  `buf[at..filled]` holds the received, unconsumed bytes;
    /// everything past `filled` is initialised scratch that reads land in
    /// directly, so growing is the only time bytes are zeroed.
    buf: Vec<u8>,
    /// Read position; consumed bytes are compacted away when room is next
    /// needed rather than on every frame.
    at: usize,
    /// End of the received bytes.
    filled: usize,
}

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.room(bytes.len()).copy_from_slice(bytes);
        self.filled += bytes.len();
    }

    /// Reads once from `src` straight into the decoder's buffer and returns
    /// how many bytes arrived (`Ok(0)`: the source is at end of stream).
    /// Asks for the rest of the frame in progress — so a large frame ends
    /// a read where the next one starts and nothing has to move — but never
    /// for less than 64 KiB, nor for more than 1 MiB at a time.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        let missing = match self.frame_len() {
            Ok(Some(total)) => total.saturating_sub(self.pending_bytes()),
            // Not even a length yet, or one `next_message` will refuse.
            Ok(None) | Err(_) => 0,
        };
        let room = self.room(missing.clamp(MIN_READ, MAX_READ));
        let n = loop {
            match src.read(room) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                done => break done?,
            }
        };
        self.filled += n;
        Ok(n)
    }

    /// `len` writable bytes right after the received ones, compacting the
    /// consumed prefix first (amortized O(1) per byte) and growing only if
    /// that was not enough — by doubling, but never to more than
    /// [`MAX_READ`] past the received bytes unless `len` asks for it.
    fn room(&mut self, len: usize) -> &mut [u8] {
        if self.at > 0 && (self.at == self.filled || self.at > 64 * 1024) {
            self.buf.copy_within(self.at..self.filled, 0);
            self.filled -= self.at;
            self.at = 0;
        }
        let end = self.filled + len;
        if self.buf.len() < end {
            let cap = end.max((2 * self.buf.capacity()).min(self.filled + MAX_READ));
            self.buf.reserve_exact(cap - self.buf.len());
            self.buf.resize(end, 0);
        }
        &mut self.buf[self.filled..end]
    }

    /// Size of the frame in progress, length prefix included, once its
    /// four length bytes are here; an impossible length is the error.
    fn frame_len(&self) -> Result<Option<usize>, ProtoError> {
        let Some(prefix) = self.buf[self.at..self.filled].first_chunk::<4>() else {
            return Ok(None);
        };
        match u32::from_le_bytes(*prefix) {
            0 => Err(ProtoError::EmptyFrame),
            len if len > MAX_FRAME_LEN => Err(ProtoError::Oversized(len)),
            len => Ok(Some(4 + len as usize)),
        }
    }

    /// Takes the next complete message, `Ok(None)` if more bytes are
    /// needed.  A `ProtoError` is fatal: the stream offset can no longer
    /// be trusted and the connection should be closed.
    pub fn next_message(&mut self) -> Result<Option<Message>, ProtoError> {
        let Some(total) = self.frame_len()? else {
            return Ok(None);
        };
        let avail = &self.buf[self.at..self.filled];
        if avail.len() < total {
            return Ok(None);
        }
        if avail[4] == BATCH_TYPE {
            // The frame is whole, so `read_batch` reads nothing from a
            // source that has nothing to give.
            return match self.read_batch(&mut io::empty(), total, IN_PLACE) {
                Ok(msg) => Ok(Some(msg)),
                Err(ReadError::Proto(e)) => Err(e),
                Err(ReadError::Io(_)) => Err(ProtoError::Malformed("body truncated")),
            };
        }
        let msg = decode_body(avail[4], &avail[5..total])?;
        self.at += total;
        Ok(Some(msg))
    }

    /// Reads from `src` until one whole message has arrived and returns it,
    /// as [`Decoder::next_message`] would.  A `Batch` still on its way is
    /// read column by column straight into the vectors it returns: only the
    /// values that arrived in the same read as their column's header are
    /// copied, and a vector grows as its bytes arrive, never more than
    /// 1 MiB ahead of them.  The source ending anywhere is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn read_message(&mut self, src: &mut impl Read) -> Result<Message, ReadError> {
        self.read_message_with(src, IN_PLACE)
    }

    /// [`Decoder::read_message`]; `in_place` reads values through the
    /// vector's byte view (little-endian targets only), otherwise through
    /// the buffer and a converting pass (any target, and the tests).
    fn read_message_with(
        &mut self,
        src: &mut impl Read,
        in_place: bool,
    ) -> Result<Message, ReadError> {
        loop {
            let pending = self.pending_bytes();
            let missing = match self.frame_len()? {
                Some(total)
                    if pending >= total.min(BATCH_FIXED) && self.buf[self.at + 4] == BATCH_TYPE =>
                {
                    return self.read_batch(src, total, in_place)
                }
                Some(total) if pending >= total => {
                    return Ok(self.next_message()?.expect("a whole frame is buffered"))
                }
                Some(total) => total - pending,
                None => 0,
            };
            self.fill(src, missing.clamp(BATCH_HEAD, MAX_READ))?;
        }
    }

    /// Parses the `Batch` frame of `total` bytes whose first
    /// [`BATCH_FIXED`] bytes (or all, if it is shorter) are buffered,
    /// reading the rest from `src`.
    fn read_batch(
        &mut self,
        src: &mut impl Read,
        total: usize,
        in_place: bool,
    ) -> Result<Message, ReadError> {
        if total < BATCH_FIXED {
            return Err(ProtoError::Malformed("body truncated").into());
        }
        let mut head = Reader {
            buf: &self.buf[self.at + 5..self.at + BATCH_FIXED],
            at: 0,
        };
        let (scan_id, chunk, rows) = (head.u64()?, head.u32()?, head.u32()?);
        let num_cols = head.u16()? as usize;
        self.at += BATCH_FIXED;
        // Body bytes not consumed yet, buffered or still in `src`.
        let mut left = total - BATCH_FIXED;
        let mut columns = Vec::with_capacity(num_cols.min(64));
        for _ in 0..num_cols {
            if left < COLUMN_HEAD {
                return Err(ProtoError::Malformed("body truncated").into());
            }
            while self.pending_bytes() < COLUMN_HEAD {
                self.fill(src, BATCH_HEAD)?;
            }
            let mut head = Reader {
                buf: &self.buf[self.at..self.at + COLUMN_HEAD],
                at: 0,
            };
            let (col, count) = (head.u16()?, head.u32()? as usize);
            self.at += COLUMN_HEAD;
            left -= COLUMN_HEAD;
            if count > left / 8 {
                return Err(ProtoError::Malformed("value count past body end").into());
            }
            if count != rows as usize {
                // Consumers zip a batch's columns: a short one would
                // silently truncate the answer.
                return Err(ProtoError::Malformed("column length is not the row count").into());
            }
            columns.push((col, self.read_values(src, count, in_place)?));
            left -= count * 8;
        }
        if left > 0 {
            return Err(ProtoError::Malformed("trailing bytes in frame").into());
        }
        Ok(Message::Batch {
            scan_id,
            chunk,
            rows,
            columns,
        })
    }

    /// Reads `count` values: whatever of them is buffered first, the rest
    /// from `src`.  The vector grows by at most [`MAX_READ`] bytes past the
    /// values that have arrived.
    fn read_values(
        &mut self,
        src: &mut impl Read,
        count: usize,
        in_place: bool,
    ) -> io::Result<Vec<i64>> {
        let mut values = Vec::new();
        let mut got = 0; // bytes
        while got < count * 8 {
            if got == values.len() * 8 {
                let len = count.min((got + MAX_READ) / 8);
                values.reserve_exact(len - values.len());
                values.resize(len, 0);
            }
            got += if in_place {
                self.values_in_place(src, &mut ne_bytes_mut(&mut values)[got..])?
            } else {
                8 * self.values_converted(src, &mut values[got / 8..])?
            };
        }
        Ok(values)
    }

    /// Fills a prefix of `view`, a column vector's bytes, and returns its
    /// length: from the buffer while it holds anything, otherwise with one
    /// read from `src`, which also lets up to [`BATCH_HEAD`] bytes that
    /// follow the column (the next header) land in the buffer.
    fn values_in_place(&mut self, src: &mut impl Read, view: &mut [u8]) -> io::Result<usize> {
        let buffered = self.pending_bytes().min(view.len());
        if buffered > 0 {
            view[..buffered].copy_from_slice(&self.buf[self.at..self.at + buffered]);
            self.at += buffered;
            return Ok(buffered);
        }
        let want = view.len();
        let room = self.room(BATCH_HEAD);
        let n = loop {
            let mut bufs = [IoSliceMut::new(view), IoSliceMut::new(room)];
            match src.read_vectored(&mut bufs) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok(0) => return Err(end_of_stream()),
                done => break done?,
            }
        };
        self.filled += n.saturating_sub(want);
        Ok(n.min(want))
    }

    /// Fills a prefix of `words` from little-endian bytes in the buffer,
    /// reading `src` into it first if it holds less than a word, and
    /// returns the prefix's length.
    fn values_converted(&mut self, src: &mut impl Read, words: &mut [i64]) -> io::Result<usize> {
        while self.pending_bytes() < 8 {
            self.fill(src, (words.len() * 8).min(MAX_READ))?;
        }
        let n = words.len().min(self.pending_bytes() / 8);
        let bytes = &self.buf[self.at..self.at + n * 8];
        for (v, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = i64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        self.at += n * 8;
        Ok(n)
    }

    /// One read of up to `len` bytes into the buffer; the source ending is
    /// an error here, where a frame is awaited.
    fn fill(&mut self, src: &mut impl Read, len: usize) -> io::Result<()> {
        let room = self.room(len);
        let n = loop {
            match src.read(room) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Ok(0) => return Err(end_of_stream()),
                done => break done?,
            }
        };
        self.filled += n;
        Ok(())
    }

    /// Bytes buffered but not yet consumed (diagnostics).
    pub fn pending_bytes(&self) -> usize {
        self.filled - self.at
    }
}

fn end_of_stream() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "the stream ended before a whole frame arrived",
    )
}

/// Convenience used on both sides of loopback tests: encode one message
/// into a fresh frame.
pub fn frame(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, msg);
    buf
}

// Re-export the column id type batches are keyed by, so client code can
// translate `(u16, values)` pairs without depending on cscan_storage.
pub use cscan_storage::ColumnId as WireColumnId;

/// Translates a batch column id to the storage [`ColumnId`] type.
pub fn column_id(raw: u16) -> ColumnId {
    ColumnId::new(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) -> Message {
        let bytes = frame(&msg);
        let mut dec = Decoder::new();
        // Feed byte-by-byte to exercise partial-frame accumulation.
        for b in &bytes {
            dec.feed(std::slice::from_ref(b));
        }
        let out = dec
            .next_message()
            .expect("decodes")
            .expect("complete frame");
        assert_eq!(dec.pending_bytes(), 0);
        assert_eq!(out, msg);
        // The same bytes pulled from a reader instead of pushed.
        let (mut dec, mut src) = (Decoder::new(), &bytes[..]);
        while dec.read_from(&mut src).expect("a slice cannot fail") > 0 {}
        assert_eq!(dec.next_message(), Ok(Some(msg)));
        assert_eq!(dec.pending_bytes(), 0);
        out
    }

    #[test]
    fn all_message_kinds_round_trip() {
        round_trip(Message::OpenScan {
            table: "lineitem".into(),
            plan: CScanPlan::new(
                "F-10",
                ScanRanges::from_ranges([ChunkRange::new(0, 4), ChunkRange::new(9, 12)]),
                ColSet::first_n(3),
            )
            .with_chunk_limit(2),
        });
        round_trip(Message::OpenScan {
            table: "orders".into(),
            plan: CScanPlan::full_table("full", ColSet::empty()),
        });
        round_trip(Message::OpenOk {
            scan_id: 7,
            num_chunks: 64,
        });
        round_trip(Message::NextBatch {
            scan_id: 7,
            credits: 4,
        });
        round_trip(Message::Batch {
            scan_id: 7,
            chunk: 3,
            rows: 2,
            columns: vec![(0, vec![1, -2]), (5, vec![i64::MIN, i64::MAX])],
        });
        round_trip(Message::ScanDone { scan_id: 7 });
        round_trip(Message::Cancel { scan_id: 7 });
        round_trip(Message::CancelOk { scan_id: 7 });
        round_trip(Message::Error {
            scan_id: 7,
            code: 203,
            aux: 0,
            chunk: NO_CHUNK,
            detail: "stalled".into(),
        });
        round_trip(Message::Shutdown);
        round_trip(Message::ShutdownOk);
    }

    #[test]
    fn scan_error_round_trips_through_error_frame() {
        let original = ScanError::new(ChunkId::new(17), StoreError::Permanent);
        let msg = Message::scan_error(3, original);
        let Message::Error {
            code, aux, chunk, ..
        } = round_trip(msg)
        else {
            panic!("scan_error builds an Error frame");
        };
        assert_eq!(Message::as_scan_error(code, aux, chunk), Some(original));
        // Non-scan codes decode to no ScanError.
        assert_eq!(Message::as_scan_error(203, 0, NO_CHUNK), None);
        // A scan code with an unknown cause also refuses to guess.
        assert_eq!(Message::as_scan_error(ScanError::WIRE_CODE, 999, 17), None);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut bytes = Vec::new();
        encode_frame(
            &mut bytes,
            &Message::NextBatch {
                scan_id: 1,
                credits: 2,
            },
        );
        encode_frame(&mut bytes, &Message::Cancel { scan_id: 1 });
        encode_frame(&mut bytes, &Message::Shutdown);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert_eq!(
            dec.next_message().unwrap(),
            Some(Message::NextBatch {
                scan_id: 1,
                credits: 2
            })
        );
        assert_eq!(
            dec.next_message().unwrap(),
            Some(Message::Cancel { scan_id: 1 })
        );
        assert_eq!(dec.next_message().unwrap(), Some(Message::Shutdown));
        assert_eq!(dec.next_message().unwrap(), None);
    }

    #[test]
    fn malformed_frames_are_fatal_not_panics() {
        // Oversized length prefix.
        let mut dec = Decoder::new();
        dec.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        dec.feed(&[0u8; 8]);
        assert!(matches!(dec.next_message(), Err(ProtoError::Oversized(_))));
        // Zero-length frame.
        let mut dec = Decoder::new();
        dec.feed(&0u32.to_le_bytes());
        assert_eq!(dec.next_message(), Err(ProtoError::EmptyFrame));
        // Unknown type byte.
        let mut dec = Decoder::new();
        dec.feed(&1u32.to_le_bytes());
        dec.feed(&[42u8]);
        assert_eq!(dec.next_message(), Err(ProtoError::UnknownType(42)));
        // Truncated body: an OpenOk missing its num_chunks.
        let mut dec = Decoder::new();
        dec.feed(&9u32.to_le_bytes());
        dec.feed(&[2u8]);
        dec.feed(&7u64.to_le_bytes());
        assert!(matches!(dec.next_message(), Err(ProtoError::Malformed(_))));
        // Trailing garbage after a complete body.
        let mut bytes = frame(&Message::ScanDone { scan_id: 1 });
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        bytes[..4].copy_from_slice(&(len + 1).to_le_bytes());
        bytes.push(0xEE);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_message(), Err(ProtoError::Malformed(_))));
        // A hostile value count cannot force a huge allocation.
        let mut body = Vec::new();
        body.push(4u8); // Batch
        put_u64(&mut body, 1);
        put_u32(&mut body, 0);
        put_u32(&mut body, 0);
        put_u16(&mut body, 1);
        put_u16(&mut body, 0);
        put_u32(&mut body, u32::MAX); // claims 4 billion values in 0 bytes
        let mut bytes = Vec::new();
        put_u32(&mut bytes, body.len() as u32);
        bytes.extend_from_slice(&body);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_message(), Err(ProtoError::Malformed(_))));
        // A column shorter than the batch's row count (consumers zip
        // columns: it would silently truncate the answer).
        let mut bytes = frame(&Message::Batch {
            scan_id: 1,
            chunk: 0,
            rows: 2,
            columns: vec![(0, vec![1, 2]), (1, vec![3, 4])],
        });
        let rows_at = 4 + 1 + 8 + 4;
        bytes[rows_at..rows_at + 4].copy_from_slice(&3u32.to_le_bytes());
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_message(), Err(ProtoError::Malformed(_))));
        // A length field buys no memory: a header claiming the largest
        // legal frame, then ten bytes, then silence.
        let mut bytes = MAX_FRAME_LEN.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[4u8; 10]);
        let (mut dec, mut src) = (Decoder::new(), &bytes[..]);
        while dec.read_from(&mut src).unwrap() > 0 {
            assert_eq!(dec.next_message(), Ok(None));
        }
        assert_eq!(dec.pending_bytes(), bytes.len());
        assert!(dec.buf.len() <= MAX_READ + MIN_READ, "reserved ahead");
        // One byte more is refused before anything is reserved for it.
        let bytes = (MAX_FRAME_LEN + 1).to_le_bytes();
        let (mut dec, mut src) = (Decoder::new(), &bytes[..]);
        dec.read_from(&mut src).unwrap();
        assert!(matches!(dec.next_message(), Err(ProtoError::Oversized(_))));
        dec.read_from(&mut src).unwrap();
        assert!(
            dec.buf.len() <= 2 * MIN_READ,
            "reserved for a refused frame"
        );
    }

    /// `read_from` asks for what the frame in progress still lacks, so a
    /// large frame's last read ends where the next frame starts: nothing is
    /// left over to move, and two reads fetch a frame five used to take.
    #[test]
    fn read_from_sizes_its_reads_to_the_frame() {
        /// Grants every request in full and records its size.
        struct Recorder<'a>(&'a [u8], Vec<usize>);
        impl Read for Recorder<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1.push(buf.len());
                self.0.read(buf)
            }
        }
        let values = vec![7i64; 20_000];
        let mut bytes = Vec::new();
        for chunk in 0..2 {
            encode_batch_frame(&mut bytes, 1, chunk, 20_000, &[(0, &values), (1, &values)]);
        }
        let frame_len = bytes.len() / 2;
        let mut src = Recorder(&bytes, Vec::new());
        let mut dec = Decoder::new();
        for chunk in 0..2 {
            while dec.next_message().unwrap().is_none() {
                assert!(dec.read_from(&mut src).unwrap() > 0, "chunk {chunk}");
            }
            assert_eq!(dec.pending_bytes(), 0, "read past the end of frame {chunk}");
        }
        let per_frame = [MIN_READ, frame_len - MIN_READ];
        assert_eq!(src.1, [per_frame, per_frame].concat());
        assert!(
            dec.buf.len() <= frame_len,
            "the second frame reused the first's room"
        );
    }

    #[test]
    fn borrowed_batch_encoder_matches_owned_encoding() {
        let owned = frame(&Message::Batch {
            scan_id: 9,
            chunk: 2,
            rows: 3,
            columns: vec![(1, vec![10, 20, 30]), (4, vec![-1, -2, -3])],
        });
        let mut borrowed = Vec::new();
        let a: &[i64] = &[10, 20, 30];
        let b: &[i64] = &[-1, -2, -3];
        let n = encode_batch_frame(&mut borrowed, 9, 2, 3, &[(1, a), (4, b)]);
        assert_eq!(borrowed, owned);
        assert_eq!(n, owned.len());
    }

    /// Hands `bytes` out in reads of the sizes in `cuts`, cycled; a cut of
    /// 0 is an `Interrupted` read.  A vectored read spreads one cut over
    /// the buffers, as `readv` on a socket does.
    struct Splits<'a> {
        bytes: &'a [u8],
        cuts: Vec<usize>,
        next: usize,
    }

    impl Read for Splits<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            let cut = self.cuts[self.next % self.cuts.len()];
            self.next += 1;
            if cut == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(cut - n).min(self.bytes.len());
                buf[..take].copy_from_slice(&self.bytes[..take]);
                self.bytes = &self.bytes[take..];
                n += take;
            }
            Ok(n)
        }
    }

    /// Every message of `bytes` through `read_message_with`, then what
    /// ended the stream.
    fn read_all(bytes: &[u8], cuts: &[usize], in_place: bool) -> (Vec<Message>, ReadError) {
        let mut cuts = cuts.to_vec();
        cuts.push(1); // every round of cuts delivers a byte
        let mut src = Splits {
            bytes,
            cuts,
            next: 0,
        };
        let (mut dec, mut out) = (Decoder::new(), Vec::new());
        loop {
            match dec.read_message_with(&mut src, in_place) {
                Ok(msg) => out.push(msg),
                Err(e) => return (out, e),
            }
        }
    }

    fn batch(scan_id: u64, rows: u32, columns: &[u16]) -> Message {
        Message::Batch {
            scan_id,
            chunk: 3,
            rows,
            columns: columns
                .iter()
                .map(|&c| (c, (0..rows as i64).map(|r| r * 7919 - c as i64).collect()))
                .collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// However the bytes are cut, both value paths return the
        /// messages that were encoded, and then the end of the stream.
        #[test]
        fn read_message_returns_what_was_sent_however_it_is_cut(
            shapes in proptest::collection::vec(
                (0u32..2_500, proptest::collection::vec(0u16..64, 0..4)),
                1..6,
            ),
            cuts in proptest::collection::vec(0usize..70_000, 1..12),
        ) {
            let mut sent = vec![Message::OpenOk { scan_id: 1, num_chunks: 9 }];
            for (rows, columns) in &shapes {
                sent.push(batch(1, *rows, columns));
            }
            sent.push(Message::ScanDone { scan_id: 1 });
            let bytes: Vec<u8> = sent.iter().flat_map(frame).collect();
            for in_place in [true, false] {
                if in_place && cfg!(target_endian = "big") {
                    continue;
                }
                let (got, end) = read_all(&bytes, &cuts, in_place);
                proptest::prop_assert!(got == sent, "in_place {}", in_place);
                proptest::prop_assert!(
                    matches!(&end, ReadError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof),
                    "{:?}", end
                );
            }
        }
    }

    /// The converting path refuses exactly what the in-place path does:
    /// every truncation and every length, row and count field set to an
    /// edge value.
    #[test]
    fn both_value_paths_agree_on_hostile_batches() {
        let good = frame(&batch(2, 5, &[0, 4, 9]));
        let body = good.len() as u32 - 4;
        let mut inputs: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        // The length, the row count and the first column's value count.
        for at in [0, 4 + 1 + 8 + 4, BATCH_FIXED + 2] {
            for v in [0, 4, 6, body - 1, body + 1, u32::MAX] {
                let mut bytes = good.clone();
                bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
                inputs.push(bytes);
            }
        }
        for bytes in &inputs {
            for cuts in [vec![1], vec![7, 0, 3], vec![64]] {
                let outcome = |in_place| {
                    let (got, end) = read_all(bytes, &cuts, in_place);
                    let end = match end {
                        ReadError::Proto(e) => Ok(e),
                        ReadError::Io(e) => Err(e.kind()),
                    };
                    // (The in-place path reads wrong values, though the
                    // same frames, on a big-endian target.)
                    (got.len(), end)
                };
                assert_eq!(outcome(true), outcome(false), "{bytes:?}");
            }
        }
    }

    #[test]
    fn decoder_compacts_consumed_bytes() {
        let mut dec = Decoder::new();
        for _ in 0..10_000 {
            dec.feed(&frame(&Message::ScanDone { scan_id: 9 }));
            assert!(dec.next_message().unwrap().is_some());
        }
        // Without compaction this would hold ~130 KiB of dead prefix.
        assert!(dec.buf.len() < 130 * 1024, "buffer grew without bound");
    }
}
