//! Real segment files: the on-disk chunk format, its writer, and a
//! [`FileStore`] that serves [`ChunkPayload`]s from positioned reads.
//!
//! Everything the engine scanned before this module came from in-memory
//! generators or the simulated disk.  A *segment* is the persistent form of
//! one table under one layout (one file for the NSM geometry, one for the
//! DSM geometry — the format itself is layout-agnostic; the geometry lives
//! in the chunk/row shape the loader chose):
//!
//! ```text
//! offset 0         8                                  dir_offset
//! +--------+----------------------------------------+-----------+---------+
//! | magic  | extents, chunk-major:                  | directory | trailer |
//! |cscanseg| chunk0.col0 chunk0.col1 .. chunk1.col0 | (footer)  | (40 B)  |
//! +--------+----------------------------------------+-----------+---------+
//! ```
//!
//! * **Extents** — one per `(chunk, column)`, laid out chunk-major so a
//!   whole-chunk (NSM) read touches a contiguous byte range while a DSM
//!   projection reads only the requested columns' extents.  A column whose
//!   [`Compression`] scheme is `None` is stored as raw little-endian `i64`s;
//!   any other scheme stores the [`EncodedColumn`] byte stream verbatim
//!   (leading wire-codec tag included), so what travels from disk into the
//!   buffer pool is *still compressed* and [`CompressingStore`] semantics —
//!   decode at first touch, never under the scheduler lock — hold end to end.
//! * **Directory (footer)** — per extent: byte offset, byte length, row
//!   count, [`checksum64`], and a codec id ([`CODEC_PLAIN`] or the encoded
//!   column's wire tag).  For encoded extents the recorded checksum is the
//!   *encode-time* checksum, so a byte damaged on disk fails
//!   [`ChunkPayload::verify_checksums`] at payload install exactly like a
//!   torn in-memory read; for plain extents [`FileStore`] verifies the
//!   checksum itself at read time.  A plain extent's length must be
//!   `rows × 8`; the reader checks that once, at open.
//! * **Trailer** — directory offset/length/checksum, chunk and column
//!   counts, format version, and a closing magic.  A torn or truncated
//!   footer is detected here (wrong magic, impossible bounds, checksum
//!   mismatch) and the reader refuses to trust the segment at all.
//!
//! The format is at **version 2**: the layout is version 1's, the
//! definition of [`checksum64`] (eight lanes) is not, and every extent and
//! directory checksum on disk depends on it.  A version-1 file is refused
//! at open ("unsupported segment version 1") rather than read through a
//! second checksum: every segment in this repository is written by the
//! test or benchmark that reads it.
//!
//! # The plain load path: read in place, recycle
//!
//! A plain extent *is* the column: little-endian `i64`s.  On a
//! little-endian target [`FileStore`] therefore reads the extent straight
//! into the `Vec<i64>` that becomes [`ColumnChunk::Plain`], through a byte
//! view of that vector (the crate's only `unsafe`, see `ne_bytes_mut`), and
//! verifies the checksum over those same bytes before the column is
//! published — one copy (the read) and one pass (the checksum).  The
//! staging buffer and the `i64::from_le_bytes` pass it used to take survive
//! as the byte-order-agnostic fallback, compiled and tested on every target
//! and selected by `cfg!(target_endian)`; [`SegmentWriter`] is the same
//! pair in reverse.  On the benchmark's segment (0.92 MiB and 6 extents per
//! chunk, page-cache reads, 24 payloads live, 2 cores) a load was 577 µs
//! when this was sized — `pread` 132–136, the one-chain checksum 267,
//! zero-fill plus conversion ≈ 180 — and 237–255 µs after; the box the
//! change was finished on read 640–790 µs → 245–320 µs (ARCHITECTURE.md
//! has the waterfall).
//!
//! The vector itself is recycled.  [`ChunkStore::recycle`] hands an evicted
//! payload back; the store keeps each plain column vector that *nothing
//! else shares* — `Arc::try_unwrap` has to succeed on the payload and on
//! the column, so a vector an operator batch or a pinned chunk still reads
//! is dropped, never reused — in a small bounded free list, and the next
//! plain load pops from it instead of allocating and zero-filling.  A
//! recycled vector is initialised memory holding stale values; every byte
//! of it is overwritten by the read (or the load fails and nothing is
//! published).
//!
//! What was *not* built is one positioned read per chunk.  A chunk's
//! extents are contiguous, but out of the page cache six `pread`s of one
//! extent each cost 136 µs and one `pread` of all six 132 µs — the copy is
//! the cost, not the system call — so the store keeps one read per extent
//! and [`SegmentIo`] its single method.
//!
//! # Durability
//!
//! [`SegmentWriter`] writes to `<path>.tmp`, fsyncs the file, atomically
//! renames it over the final path, then fsyncs the parent directory.  A
//! load killed at any point leaves either the previous segment or a `.tmp`
//! orphan that no reader ever opens — never a half-written file the reader
//! would trust.
//!
//! # Fault taxonomy
//!
//! Read failures map honestly onto [`StoreError`] so the retry/quarantine
//! machinery upstream treats real disks like injected faults:
//!
//! | observation                                   | error                    |
//! |-----------------------------------------------|--------------------------|
//! | interrupted syscall                           | retried internally       |
//! | transient I/O error                           | [`StoreError::Transient`]|
//! | timed-out I/O                                 | [`StoreError::TimedOut`] |
//! | short read / checksum or codec mismatch       | [`StoreError::Corrupted`]|
//! | file gone, permission lost, bad chunk/column  | [`StoreError::Permanent`]|
//!
//! # I/O backend
//!
//! Reads go through the small [`SegmentIo`] trait (positioned
//! `read_exact_at`, pread-style).  The default backend is [`PreadFile`]
//! (`std::os::unix::fs::FileExt::read_at`); an io_uring-style batched
//! backend can slot in behind the same trait without touching the hub or
//! the I/O workers.  Every read records the `file_read` span plus the
//! `file_read_calls` (extents read) / `file_bytes_read` (bytes delivered)
//! counters on the attached [`Registry`].
//!
//! [`CompressingStore`]: crate::chunkdata::CompressingStore

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use crate::chunkdata::{ChunkData, ChunkPayload, ChunkStore, ColumnChunk, LazyColumn};
use crate::codec::{checksum64, EncodedColumn};
use crate::compression::Compression;
use crate::fault::StoreError;
use crate::ids::{ChunkId, ColumnId};
use cscan_obs::{Counter, Registry, SpanKind};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening the file and closing the trailer.
pub const SEGMENT_MAGIC: [u8; 8] = *b"cscanseg";
/// On-disk format version this module reads and writes (2: the checksums
/// are the eight-lane [`checksum64`]).
pub const SEGMENT_VERSION: u16 = 2;
/// Directory codec id of a plain (raw little-endian `i64`) extent; encoded
/// extents carry their [`EncodedColumn`] wire tag instead.
pub const CODEC_PLAIN: u8 = 0xFF;

/// Bytes of the leading magic.
const HEADER_LEN: u64 = 8;
/// Bytes of the fixed trailer: directory offset + length + checksum (3×8),
/// chunk count (4), column count (2), version (2), closing magic (8).
const TRAILER_LEN: u64 = 40;
/// Serialized bytes per directory entry: offset + length + rows + checksum
/// (4×8) and the codec id (1).
const EXTENT_ENTRY_LEN: u64 = 33;

/// Most column vectors a [`FileStore`] keeps for reuse, as a multiple of
/// the segment's column count.  A worker gives back what its plan evicted
/// just before it loads, so the list only bridges that gap for each worker
/// (the benchmark's two never filled four chunks' worth); a burst of
/// evictions beyond it is simply freed.
const FREE_CHUNKS: usize = 4;

/// The bytes of `values` in this target's byte order — on a little-endian
/// target, exactly the plain extent encoding and the wire's column values
/// (callers check `cfg!(target_endian)`).  Public so that `cscan_proto`
/// can hand a column to the socket, and take one from it, without a
/// converting copy and without an `unsafe` of its own.
pub fn ne_bytes(values: &[i64]) -> &[u8] {
    // SAFETY: `i64` has no padding, so all `size_of_val(values)` bytes
    // behind the pointer are initialised (they belong to a live `&[i64]`);
    // `u8` has alignment 1, which any `i64` pointer satisfies; `len × 8`
    // cannot overflow because a live slice spans at most `isize::MAX`
    // bytes; and the result borrows `values`, so nothing writes to the
    // memory while it is alive.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// [`ne_bytes`], writable: what a positioned read (or a socket read) fills
/// so that an extent lands in the column vector with no staging copy.
/// Takes *initialised* memory only — callers pass `vec![0; rows]` or a
/// recycled vector, never spare capacity.
pub fn ne_bytes_mut(values: &mut [i64]) -> &mut [u8] {
    // SAFETY: as for `ne_bytes` — no padding, alignment 8 → 1, `len × 8`
    // bounded by the live slice — and additionally every bit pattern is a
    // valid `i64`, so whatever is written through the view leaves `values`
    // valid; the result borrows `values` mutably, so it is the only access
    // path while it is alive.
    unsafe {
        std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), std::mem::size_of_val(values))
    }
}

/// The plain extent encoding of `values` on any target: little-endian
/// words, one at a time (the byte-order-agnostic writer path).
fn to_le_bytes(values: &[i64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for &v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Decodes a plain extent into `values` on any target (the
/// byte-order-agnostic reader path).  `bytes` holds `values.len()` words.
fn from_le_bytes(bytes: &[u8], values: &mut [i64]) {
    debug_assert_eq!(bytes.len(), values.len() * 8);
    for (v, b) in values.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = i64::from_le_bytes(b.try_into().expect("exact 8-byte chunk"));
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Maps an I/O failure from a [`SegmentIo`] backend onto the store fault
/// taxonomy (see the module docs for the table).
fn map_io_error(e: &io::Error) -> StoreError {
    match e.kind() {
        io::ErrorKind::NotFound | io::ErrorKind::PermissionDenied => StoreError::Permanent,
        io::ErrorKind::UnexpectedEof => StoreError::Corrupted,
        io::ErrorKind::TimedOut => StoreError::TimedOut,
        _ => StoreError::Transient,
    }
}

// ----------------------------------------------------------------------
// Directory
// ----------------------------------------------------------------------

/// One `(chunk, column)` extent as recorded in the footer directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset of the extent within the segment file.
    pub offset: u64,
    /// Byte length of the extent.
    pub len: u64,
    /// Number of values stored in the extent.
    pub rows: u64,
    /// [`checksum64`] of the extent bytes (for encoded extents: the
    /// encode-time checksum the install-path verification recomputes).
    pub checksum: u64,
    /// [`CODEC_PLAIN`], or the encoded column's wire-codec tag.
    pub codec: u8,
}

impl Extent {
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        out.push(self.codec);
    }

    /// Whether `len` is what `rows` plain values occupy: a plain extent is
    /// its column, so the in-place read sizes its buffer from `rows` and
    /// fills it with `len` bytes.
    fn plain_geometry_holds(&self) -> bool {
        self.rows.checked_mul(8) == Some(self.len)
    }

    fn read_from(bytes: &[u8]) -> Extent {
        let u64_at = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(b)
        };
        Extent {
            offset: u64_at(0),
            len: u64_at(8),
            rows: u64_at(16),
            checksum: u64_at(24),
            codec: bytes[32],
        }
    }
}

/// The parsed footer directory of a segment: everything the reader knows
/// about the file without touching the data extents.  Also the
/// metadata-faithful source for sim-side table models — chunk counts, row
/// counts and physical bytes here describe the *actual file*, so a
/// core-layer `TableModel` built from a directory schedules exactly the
/// geometry on disk.
#[derive(Debug, Clone)]
pub struct SegmentDirectory {
    num_columns: u16,
    /// Chunk-major: extent of `(chunk, col)` at `chunk × num_columns + col`.
    extents: Vec<Extent>,
}

impl SegmentDirectory {
    /// Number of chunks in the segment.
    pub fn num_chunks(&self) -> u32 {
        (self.extents.len() / self.num_columns as usize) as u32
    }

    /// Number of columns in the segment.
    pub fn num_columns(&self) -> u16 {
        self.num_columns
    }

    /// Rows of `chunk`, if it exists.
    pub fn chunk_rows(&self, chunk: ChunkId) -> Option<u64> {
        self.extent(chunk, ColumnId::new(0)).map(|e| e.rows)
    }

    /// The extent of `(chunk, col)`, if both exist.
    pub fn extent(&self, chunk: ChunkId, col: ColumnId) -> Option<&Extent> {
        if col.index() >= self.num_columns {
            return None;
        }
        self.extents
            .get(chunk.as_usize() * self.num_columns as usize + col.as_usize())
    }

    /// Physical on-disk bytes of the given columns of `chunk` (`None` =
    /// every column) — the I/O volume a materialization of that selection
    /// costs.
    pub fn chunk_bytes(&self, chunk: ChunkId, cols: Option<&[ColumnId]>) -> u64 {
        match cols {
            None => (0..self.num_columns)
                .filter_map(|c| self.extent(chunk, ColumnId::new(c)))
                .map(|e| e.len)
                .sum(),
            Some(cols) => cols
                .iter()
                .filter_map(|&c| self.extent(chunk, c))
                .map(|e| e.len)
                .sum(),
        }
    }

    /// Physical bytes of all data extents (the file minus header, footer
    /// and trailer).
    pub fn data_bytes(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }
}

// ----------------------------------------------------------------------
// SegmentIo: the positioned-read backend
// ----------------------------------------------------------------------

/// A positioned-read backend for segment files.
///
/// The contract is pread-style: `read_exact_at` fills the whole buffer from
/// the given byte offset without moving any shared cursor, so concurrent
/// I/O workers can read disjoint extents of one file without coordination.
/// Implementations retry `EINTR` internally and report a read past the end
/// of the file as [`io::ErrorKind::UnexpectedEof`] (a *short read*, mapped
/// to [`StoreError::Corrupted`] by the store).
///
/// [`FileStore`] holds the backend as a trait object, so an io_uring-style
/// batched implementation can replace [`PreadFile`] without touching the
/// hub, the I/O workers, or the format.
// `len` is a fallible file-size accessor, not a collection length, so an
// `is_empty` counterpart would be meaningless here.
#[allow(clippy::len_without_is_empty)]
pub trait SegmentIo: Send + Sync + std::fmt::Debug {
    /// Fills `buf` from byte `offset` of the segment.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Current length of the segment in bytes.
    fn len(&self) -> io::Result<u64>;
}

/// The default [`SegmentIo`]: one shared read-only file descriptor issuing
/// `pread`-style positioned reads (`std::os::unix::fs::FileExt::read_at`),
/// so no seek state is shared between I/O workers.
#[derive(Debug)]
pub struct PreadFile {
    #[cfg(unix)]
    file: File,
    /// Non-Unix fallback: positioned reads emulated with seek+read under a
    /// lock (correct, not concurrent).
    #[cfg(not(unix))]
    file: std::sync::Mutex<File>,
}

impl PreadFile {
    /// Opens `path` read-only.
    pub fn open(path: &Path) -> io::Result<PreadFile> {
        let file = File::open(path)?;
        #[cfg(not(unix))]
        let file = std::sync::Mutex::new(file);
        Ok(PreadFile { file })
    }
}

impl SegmentIo for PreadFile {
    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        let mut filled = 0usize;
        while filled < buf.len() {
            match self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)
            {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short read past end of segment",
                    ))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self
            .file
            .lock()
            .map_err(|_| io::Error::new(io::ErrorKind::Other, "poisoned segment file lock"))?;
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    fn len(&self) -> io::Result<u64> {
        #[cfg(unix)]
        return Ok(self.file.metadata()?.len());
        #[cfg(not(unix))]
        {
            let file = self
                .file
                .lock()
                .map_err(|_| io::Error::new(io::ErrorKind::Other, "poisoned segment file lock"))?;
            Ok(file.metadata()?.len())
        }
    }
}

// ----------------------------------------------------------------------
// Writer
// ----------------------------------------------------------------------

/// What [`SegmentWriter::finish`] reports about the segment it durably
/// installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentSummary {
    /// Final path of the segment.
    pub path: PathBuf,
    /// Chunks written.
    pub chunks: u32,
    /// Columns per chunk.
    pub columns: u16,
    /// Rows across all chunks.
    pub rows: u64,
    /// Bytes of data extents (compressed where a scheme applied).
    pub data_bytes: u64,
    /// Total file size including header, directory and trailer.
    pub file_bytes: u64,
}

/// Streaming segment writer: append chunks column by column, then
/// [`finish`](SegmentWriter::finish) to write the footer and atomically
/// install the file.
///
/// The writer targets `<path>.tmp` until `finish` fsyncs and renames it, so
/// an interrupted load never leaves a partial file under the final name —
/// see the module docs for the durability story.  Dropping the writer
/// without finishing leaves the `.tmp` orphan behind (readers never open
/// it); [`SegmentWriter::create`] refuses to write over one, so a rerun
/// removes it first.
#[derive(Debug)]
pub struct SegmentWriter {
    final_path: PathBuf,
    tmp_path: PathBuf,
    file: BufWriter<File>,
    /// Per-column schemes; the list's length is the table width.
    schemes: Vec<Compression>,
    /// Next free byte offset in the file.
    offset: u64,
    extents: Vec<Extent>,
    chunks: u32,
    rows: u64,
}

impl SegmentWriter {
    /// Creates `<path>.tmp` and writes the header.  `schemes` fixes the
    /// column count and the per-column on-disk encoding
    /// ([`Compression::None`] = raw little-endian `i64`s).
    ///
    /// Fails with [`io::ErrorKind::AlreadyExists`] if `<path>.tmp` exists:
    /// another writer is loading the same target, or an interrupted load
    /// left its orphan behind.
    pub fn create(
        path: impl Into<PathBuf>,
        schemes: Vec<Compression>,
    ) -> io::Result<SegmentWriter> {
        let final_path = path.into();
        if schemes.is_empty() {
            return Err(invalid("a segment needs at least one column"));
        }
        if schemes.len() > u16::MAX as usize {
            return Err(invalid("too many columns for the segment format"));
        }
        let mut tmp = final_path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp_path = PathBuf::from(tmp);
        // `create_new`: two writers racing for one target (or a rerun over a
        // crashed load's orphan) get `AlreadyExists` here instead of
        // interleaving their bytes in a shared temp file.
        let mut file = BufWriter::new(File::create_new(&tmp_path)?);
        file.write_all(&SEGMENT_MAGIC)?;
        Ok(SegmentWriter {
            final_path,
            tmp_path,
            file,
            schemes,
            offset: HEADER_LEN,
            extents: Vec::new(),
            chunks: 0,
            rows: 0,
        })
    }

    /// Appends one chunk: one value slice per column, in column-id order.
    /// All columns of a chunk must have the same non-zero length; different
    /// chunks may differ (a short last chunk is fine).
    pub fn append_chunk(&mut self, columns: &[&[i64]]) -> io::Result<()> {
        if columns.len() != self.schemes.len() {
            return Err(invalid(format!(
                "chunk has {} columns, segment expects {}",
                columns.len(),
                self.schemes.len()
            )));
        }
        let rows = columns.first().map_or(0, |c| c.len());
        if rows == 0 {
            return Err(invalid("empty chunk"));
        }
        if columns.iter().any(|c| c.len() != rows) {
            return Err(invalid("ragged chunk: column lengths differ"));
        }
        for (values, &scheme) in columns.iter().zip(&self.schemes) {
            let (len, checksum, codec) = match scheme {
                Compression::None => {
                    // On a little-endian target the column's own bytes are
                    // the extent; elsewhere they are converted first.
                    let converted;
                    let bytes = if cfg!(target_endian = "little") {
                        ne_bytes(values)
                    } else {
                        converted = to_le_bytes(values);
                        &converted
                    };
                    self.file.write_all(bytes)?;
                    (bytes.len() as u64, checksum64(bytes), CODEC_PLAIN)
                }
                _ => {
                    let enc = EncodedColumn::encode(values, scheme);
                    self.file.write_all(enc.as_bytes())?;
                    (enc.as_bytes().len() as u64, enc.checksum(), enc.wire_tag())
                }
            };
            self.extents.push(Extent {
                offset: self.offset,
                len,
                rows: rows as u64,
                checksum,
                codec,
            });
            self.offset += len;
        }
        self.chunks += 1;
        self.rows += rows as u64;
        Ok(())
    }

    /// Writes directory and trailer, fsyncs, renames `<path>.tmp` over the
    /// final path, and fsyncs the parent directory.  Only after this
    /// returns is the segment visible to readers.
    pub fn finish(self) -> io::Result<SegmentSummary> {
        let SegmentWriter {
            final_path,
            tmp_path,
            mut file,
            schemes,
            offset,
            extents,
            chunks,
            rows,
        } = self;
        if chunks == 0 {
            return Err(invalid("refusing to finish an empty segment"));
        }
        let mut dir = Vec::with_capacity(extents.len() * EXTENT_ENTRY_LEN as usize);
        for e in &extents {
            e.write_to(&mut dir);
        }
        file.write_all(&dir)?;
        let mut trailer = Vec::with_capacity(TRAILER_LEN as usize);
        trailer.extend_from_slice(&offset.to_le_bytes());
        trailer.extend_from_slice(&(dir.len() as u64).to_le_bytes());
        trailer.extend_from_slice(&checksum64(&dir).to_le_bytes());
        trailer.extend_from_slice(&chunks.to_le_bytes());
        trailer.extend_from_slice(&(schemes.len() as u16).to_le_bytes());
        trailer.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        trailer.extend_from_slice(&SEGMENT_MAGIC);
        file.write_all(&trailer)?;
        file.flush()?;
        let file = file.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp_path, &final_path)?;
        if let Some(parent) = final_path.parent() {
            if !parent.as_os_str().is_empty() {
                File::open(parent)?.sync_all()?;
            }
        }
        Ok(SegmentSummary {
            path: final_path,
            chunks,
            columns: schemes.len() as u16,
            rows,
            data_bytes: offset - HEADER_LEN,
            file_bytes: offset + dir.len() as u64 + TRAILER_LEN,
        })
    }
}

// ----------------------------------------------------------------------
// Reader
// ----------------------------------------------------------------------

/// Reads and validates the footer through a [`SegmentIo`] backend.
///
/// Any inconsistency — wrong magic, unsupported version, impossible
/// bounds, directory checksum mismatch, ragged row counts — makes the
/// whole segment untrusted ([`io::ErrorKind::InvalidData`]): a torn footer
/// must never yield a directory that *mostly* works.
pub fn read_directory(io: &dyn SegmentIo) -> io::Result<SegmentDirectory> {
    let len = io.len()?;
    if len < HEADER_LEN + TRAILER_LEN {
        return Err(invalid("truncated segment: shorter than header + trailer"));
    }
    let mut header = [0u8; HEADER_LEN as usize];
    io.read_exact_at(&mut header, 0)?;
    if header != SEGMENT_MAGIC {
        return Err(invalid("not a segment file (bad leading magic)"));
    }
    let mut trailer = [0u8; TRAILER_LEN as usize];
    io.read_exact_at(&mut trailer, len - TRAILER_LEN)?;
    let u64_at = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&trailer[i..i + 8]);
        u64::from_le_bytes(b)
    };
    let dir_offset = u64_at(0);
    let dir_len = u64_at(8);
    let dir_checksum = u64_at(16);
    let num_chunks = u32::from_le_bytes([trailer[24], trailer[25], trailer[26], trailer[27]]);
    let num_columns = u16::from_le_bytes([trailer[28], trailer[29]]);
    let version = u16::from_le_bytes([trailer[30], trailer[31]]);
    if trailer[32..] != SEGMENT_MAGIC {
        return Err(invalid("torn footer: bad trailing magic"));
    }
    if version != SEGMENT_VERSION {
        return Err(invalid(format!("unsupported segment version {version}")));
    }
    if num_chunks == 0 || num_columns == 0 {
        return Err(invalid("torn footer: empty geometry"));
    }
    if dir_offset < HEADER_LEN
        || dir_offset.checked_add(dir_len) != Some(len - TRAILER_LEN)
        || dir_len != num_chunks as u64 * num_columns as u64 * EXTENT_ENTRY_LEN
    {
        return Err(invalid("torn footer: directory bounds are inconsistent"));
    }
    let mut dir = vec![0u8; dir_len as usize];
    io.read_exact_at(&mut dir, dir_offset)?;
    if checksum64(&dir) != dir_checksum {
        return Err(invalid("torn footer: directory checksum mismatch"));
    }
    let extents: Vec<Extent> = dir
        .chunks_exact(EXTENT_ENTRY_LEN as usize)
        .map(Extent::read_from)
        .collect();
    for (i, e) in extents.iter().enumerate() {
        if e.offset < HEADER_LEN
            || e.offset
                .checked_add(e.len)
                .is_none_or(|end| end > dir_offset)
        {
            return Err(invalid(format!("extent {i} lies outside the data area")));
        }
        if e.rows == 0 {
            return Err(invalid(format!("extent {i} is empty")));
        }
        if e.codec == CODEC_PLAIN && !e.plain_geometry_holds() {
            return Err(invalid(format!(
                "extent {i}: plain length disagrees with row count"
            )));
        }
        // Every column of one chunk must agree on the row count.
        if i % num_columns as usize != 0 && e.rows != extents[i - 1].rows {
            return Err(invalid(format!("extent {i} disagrees on chunk row count")));
        }
    }
    Ok(SegmentDirectory {
        num_columns,
        extents,
    })
}

/// Column vectors a [`FileStore`] got back through [`ChunkStore::recycle`],
/// waiting for the next plain load.  Bounded, so a burst of evictions is
/// freed rather than hoarded.
struct FreeList {
    vectors: Mutex<Vec<Vec<i64>>>,
    /// Most vectors kept; one offered beyond that is dropped.
    capacity: usize,
}

impl FreeList {
    fn new(capacity: usize) -> FreeList {
        FreeList {
            vectors: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }

    /// A vector of `rows` initialised values: the most recently recycled
    /// one (still holding its old values — nothing is zero-filled twice)
    /// or, if there is none, fresh zeros.
    fn take(&self, rows: usize) -> Vec<i64> {
        // A poisoned lock reads as an empty list: the load allocates.
        let recycled = self.vectors.lock().ok().and_then(|mut v| v.pop());
        match recycled {
            Some(mut values) => {
                values.resize(rows, 0);
                values
            }
            None => vec![0; rows],
        }
    }

    /// Keeps `values` for a later [`FreeList::take`] if there is room.
    fn give(&self, values: Vec<i64>) {
        if let Ok(mut vectors) = self.vectors.lock() {
            if vectors.len() < self.capacity {
                vectors.push(values);
            }
        }
    }
}

impl std::fmt::Debug for FreeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The count, not megabytes of stale column values.
        let kept = self.vectors.lock().map_or(0, |v| v.len());
        write!(f, "FreeList({kept} of {})", self.capacity)
    }
}

/// A [`ChunkStore`] serving chunks from a real segment file.
///
/// The directory is read and validated once at open; every `materialize`
/// then issues one positioned read per requested extent — every column's
/// for `cols: None`, *only* the requested columns' for `cols: Some(subset)`.
/// Plain extents are read in place, checksum-verified here, and their
/// vectors recycled (see the module docs).  Encoded extents come back as
/// lazily-decoding [`ColumnChunk::Compressed`] mini-columns carrying the
/// footer's encode-time checksum, so the install-time
/// [`ChunkPayload::verify_checksums`] (and the retry machinery behind it)
/// covers the disk path with no special cases.
#[derive(Debug)]
pub struct FileStore {
    io: Arc<dyn SegmentIo>,
    directory: SegmentDirectory,
    obs: Arc<Registry>,
    free: FreeList,
}

impl FileStore {
    /// Opens the segment at `path` with the default pread backend.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileStore> {
        Self::from_io(Arc::new(PreadFile::open(path.as_ref())?))
    }

    /// Opens a segment through a custom [`SegmentIo`] backend.
    pub fn from_io(io: Arc<dyn SegmentIo>) -> io::Result<FileStore> {
        let directory = read_directory(io.as_ref())?;
        let free = FreeList::new(FREE_CHUNKS * directory.num_columns() as usize);
        Ok(FileStore {
            io,
            directory,
            obs: Arc::new(Registry::disabled()),
            free,
        })
    }

    /// Attaches a metrics registry; reads then record the `file_read` span
    /// and the `file_read_calls` / `file_bytes_read` counters.
    pub fn with_observability(mut self, obs: Arc<Registry>) -> Self {
        self.obs = obs;
        self
    }

    /// The validated footer directory.
    pub fn directory(&self) -> &SegmentDirectory {
        &self.directory
    }

    /// Number of chunks in the segment.
    pub fn num_chunks(&self) -> u32 {
        self.directory.num_chunks()
    }

    /// Number of columns in the segment.
    pub fn num_columns(&self) -> u16 {
        self.directory.num_columns()
    }

    /// Rows of `chunk`, if it exists.
    pub fn chunk_rows(&self, chunk: ChunkId) -> Option<u64> {
        self.directory.chunk_rows(chunk)
    }

    /// One positioned, instrumented read of extent `e` into `buf` (`e.len`
    /// bytes).  The span and the call counter record regardless of outcome
    /// (so `file_read_calls` always equals the span histogram's count);
    /// only delivered bytes land in `file_bytes_read`.
    fn read_extent(&self, e: &Extent, buf: &mut [u8]) -> Result<(), StoreError> {
        debug_assert_eq!(buf.len() as u64, e.len);
        let result = {
            let _t = self.obs.time(SpanKind::FileRead);
            self.io.read_exact_at(buf, e.offset)
        };
        self.obs.inc(Counter::FileReadCalls);
        match result {
            Ok(()) => {
                self.obs.add(Counter::FileBytesRead, e.len);
                Ok(())
            }
            Err(err) => Err(map_io_error(&err)),
        }
    }

    /// Reads plain extent `e` straight into `values` and verifies it there:
    /// the little-endian path.
    fn read_in_place(&self, e: &Extent, values: &mut [i64]) -> Result<(), StoreError> {
        self.read_extent(e, ne_bytes_mut(values))?;
        if checksum64(ne_bytes(values)) != e.checksum {
            return Err(StoreError::Corrupted);
        }
        Ok(())
    }

    /// Reads plain extent `e` into a staging buffer, verifies it, and
    /// converts word by word into `values`: the path for any byte order.
    fn read_converting(&self, e: &Extent, values: &mut [i64]) -> Result<(), StoreError> {
        let mut staging = vec![0u8; e.len as usize];
        self.read_extent(e, &mut staging)?;
        if checksum64(&staging) != e.checksum {
            return Err(StoreError::Corrupted);
        }
        from_le_bytes(&staging, values);
        Ok(())
    }

    /// Loads a plain extent.  Plain columns carry no checksum once in
    /// memory, so the store is their verification point: the column is
    /// built only after its bytes verified, and a vector that failed goes
    /// back to the free list, never out.
    fn load_plain(&self, e: &Extent) -> Result<ColumnChunk, StoreError> {
        // Checked at open; one compare here keeps the buffer sized from
        // `rows` and the read sized from `len` in provable agreement.
        if !e.plain_geometry_holds() {
            return Err(StoreError::Corrupted);
        }
        let mut values = self.free.take(e.rows as usize);
        let read = if cfg!(target_endian = "little") {
            self.read_in_place(e, &mut values)
        } else {
            self.read_converting(e, &mut values)
        };
        match read {
            Ok(()) => Ok(ColumnChunk::Plain(Arc::new(values))),
            Err(error) => {
                self.free.give(values);
                Err(error)
            }
        }
    }

    /// Loads an encoded extent.  The column keeps the footer's encode-time
    /// checksum; a damaged byte surfaces at install-time verification,
    /// exactly like a torn in-memory read.
    fn load_encoded(&self, e: &Extent) -> Result<ColumnChunk, StoreError> {
        let mut bytes = vec![0u8; e.len as usize];
        self.read_extent(e, &mut bytes)?;
        if bytes.first() != Some(&e.codec) {
            return Err(StoreError::Corrupted);
        }
        let enc = EncodedColumn::from_parts(e.rows as usize, bytes, e.checksum)
            .ok_or(StoreError::Corrupted)?;
        Ok(ColumnChunk::Compressed(Arc::new(LazyColumn::new(enc))))
    }

    /// Reads and rebuilds one column of one chunk.
    fn load_column(&self, chunk: ChunkId, col: ColumnId) -> Result<ColumnChunk, StoreError> {
        let e = self
            .directory
            .extent(chunk, col)
            .ok_or(StoreError::Permanent)?;
        if e.codec == CODEC_PLAIN {
            self.load_plain(e)
        } else {
            self.load_encoded(e)
        }
    }
}

impl ChunkStore for FileStore {
    fn materialize(
        &self,
        chunk: ChunkId,
        cols: Option<&[ColumnId]>,
    ) -> Result<ChunkPayload, StoreError> {
        if chunk.index() >= self.directory.num_chunks() {
            return Err(StoreError::Permanent);
        }
        let data = ChunkData::load(cols, self.directory.num_columns(), |c| {
            self.load_column(chunk, c)
        })?;
        Ok(data.into())
    }

    fn recycle(&self, payload: ChunkPayload) {
        payload.reclaim_plain(|values| self.free.give(values));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchPath;

    /// Deterministic test table: 3 columns (plain, dict-friendly, delta-
    /// friendly), `chunks` chunks of `rows` rows.
    fn column_values(chunk: u32, col: u16, rows: usize) -> Vec<i64> {
        (0..rows as i64)
            .map(|r| match col {
                0 => chunk as i64 * 1_000_000 + r * 17 - 5,
                1 => (r + chunk as i64) % 6,
                _ => chunk as i64 * rows as i64 + r,
            })
            .collect()
    }

    fn schemes() -> Vec<Compression> {
        vec![
            Compression::None,
            Compression::Dictionary { bits: 3 },
            Compression::PforDelta {
                bits: 3,
                exception_rate: 0.02,
            },
        ]
    }

    fn write_segment(path: &Path, chunks: u32, rows: usize, schemes: Vec<Compression>) {
        let width = schemes.len() as u16;
        let mut w = SegmentWriter::create(path, schemes).unwrap();
        for chunk in 0..chunks {
            let cols: Vec<Vec<i64>> = (0..width).map(|c| column_values(chunk, c, rows)).collect();
            let refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
            w.append_chunk(&refs).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn round_trips_nsm_and_dsm_projections() {
        let path = ScratchPath::new("seg_roundtrip");
        write_segment(&path, 4, 500, schemes());
        let obs = Arc::new(Registry::new());
        let store = FileStore::open(&path)
            .unwrap()
            .with_observability(Arc::clone(&obs));
        assert_eq!(store.num_chunks(), 4);
        assert_eq!(store.num_columns(), 3);
        assert_eq!(store.chunk_rows(ChunkId::new(2)), Some(500));

        // Full NSM materialization: all columns, values bit-identical.
        let full = store.materialize(ChunkId::new(1), None).unwrap();
        full.verify_checksums().unwrap();
        for col in 0..3u16 {
            assert_eq!(
                full.column(ColumnId::new(col)).unwrap(),
                column_values(1, col, 500).as_slice()
            );
        }
        let full_bytes = obs.counter(Counter::FileBytesRead);

        // DSM projection: only the requested columns' extents are read.
        let subset = [ColumnId::new(2)];
        let proj = store.materialize(ChunkId::new(1), Some(&subset)).unwrap();
        proj.verify_checksums().unwrap();
        assert_eq!(
            proj.column(ColumnId::new(2)).unwrap(),
            column_values(1, 2, 500).as_slice()
        );
        assert!(proj.column(ColumnId::new(0)).is_none());
        let proj_bytes = obs.counter(Counter::FileBytesRead) - full_bytes;
        assert_eq!(
            proj_bytes,
            store
                .directory()
                .chunk_bytes(ChunkId::new(1), Some(&subset)),
            "a projection reads exactly its columns' extents"
        );
        assert!(proj_bytes < full_bytes, "subset read costs less I/O");

        // The file-I/O metrics are internally consistent.
        let snap = obs.snapshot();
        assert_eq!(snap.counter("file_read_calls"), 4);
        assert_eq!(snap.span("file_read").count(), 4);
        assert!(snap.is_consistent());
    }

    #[test]
    fn compressed_segment_is_smaller_and_stays_encoded_until_pinned() {
        let plain_path = ScratchPath::new("seg_vol_plain");
        let comp_path = ScratchPath::new("seg_vol_comp");
        write_segment(&plain_path, 4, 1000, vec![Compression::None; 3]);
        write_segment(&comp_path, 4, 1000, schemes());
        let plain = FileStore::open(&plain_path).unwrap();
        let comp = FileStore::open(&comp_path).unwrap();
        assert!(
            comp.directory().data_bytes() * 2 < plain.directory().data_bytes(),
            "the mixed schemes must at least halve the on-disk volume"
        );
        let payload = comp.materialize(ChunkId::new(0), None).unwrap();
        assert!(
            !payload.is_fully_decoded(),
            "encoded extents must travel compressed, decoding only on pin"
        );
        assert_eq!(payload.decode_all(), 2 * 1000, "two encoded columns decode");
    }

    #[test]
    fn plain_on_disk_bit_flip_is_corrupted_at_read() {
        let path = ScratchPath::new("seg_flip_plain");
        write_segment(&path, 2, 100, vec![Compression::None; 3]);
        let good = std::fs::read(&path).unwrap();
        // The first data extent (plain column 0 of chunk 0) is 800 bytes:
        // twelve checksum blocks and a 32-byte tail.  One flipped bit in
        // each of the eight lane positions of a block, and one in the tail.
        let flips = (0..8)
            .map(|lane| 5 * 64 + lane * 8 + lane)
            .chain([12 * 64 + 19]);
        for (i, at) in flips.enumerate() {
            let mut bytes = good.clone();
            bytes[HEADER_LEN as usize + at] ^= 1 << (i % 8);
            std::fs::write(&path, &bytes).unwrap();
            let store = FileStore::open(&path).unwrap();
            for cols in [None, Some(&[ColumnId::new(0)][..])] {
                assert_eq!(
                    store.materialize(ChunkId::new(0), cols).unwrap_err(),
                    StoreError::Corrupted,
                    "byte {at}: a torn extent is never published as a column"
                );
            }
            // Both read paths refuse it, whichever this target selects.
            let e = *store
                .directory()
                .extent(ChunkId::new(0), ColumnId::new(0))
                .unwrap();
            let mut values = vec![0i64; 100];
            assert_eq!(
                store.read_converting(&e, &mut values),
                Err(StoreError::Corrupted)
            );
            assert_eq!(
                store.read_in_place(&e, &mut values),
                Err(StoreError::Corrupted)
            );
            // The other chunk is untouched and still reads fine — into the
            // very vector the failed read left its torn bytes in.
            let other = store.materialize(ChunkId::new(1), None).unwrap();
            for col in 0..3u16 {
                assert_eq!(
                    other.column(ColumnId::new(col)).unwrap(),
                    column_values(1, col, 100).as_slice()
                );
            }
        }
    }

    #[test]
    fn byte_views_are_the_values_own_bytes() {
        let values = [i64::MIN, -1, 0, i64::MAX, 0x0102_0304_0506_0708];
        let native: Vec<u8> = values.iter().flat_map(|v| v.to_ne_bytes()).collect();
        assert_eq!(ne_bytes(&values), native.as_slice());
        assert_eq!(ne_bytes(&[]), &[] as &[u8]);
        // Written through the mutable view, the same bytes are the same
        // values again.
        let mut back = [7i64; 5];
        ne_bytes_mut(&mut back).copy_from_slice(&native);
        assert_eq!(back, values);
        // On a little-endian target that is the extent encoding, which is
        // what lets the store skip the converting pass.
        let le: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(to_le_bytes(&values), le);
        if cfg!(target_endian = "little") {
            assert_eq!(ne_bytes(&values), le.as_slice());
        }
        let mut decoded = [0i64; 5];
        from_le_bytes(&le, &mut decoded);
        assert_eq!(decoded, values);
    }

    #[test]
    fn in_place_and_converting_reads_agree() {
        let path = ScratchPath::new("seg_read_paths");
        write_segment(&path, 2, 333, vec![Compression::None; 3]);
        let store = FileStore::open(&path).unwrap();
        for chunk in 0..2 {
            for col in 0..3u16 {
                let e = *store
                    .directory()
                    .extent(ChunkId::new(chunk), ColumnId::new(col))
                    .unwrap();
                let want = column_values(chunk, col, 333);
                // Stale contents, as a recycled vector has.
                let mut values = vec![-1i64; 333];
                store.read_converting(&e, &mut values).unwrap();
                assert_eq!(values, want, "the fallback runs on every target");
                if cfg!(target_endian = "little") {
                    let mut values = vec![-1i64; 333];
                    store.read_in_place(&e, &mut values).unwrap();
                    assert_eq!(values, want);
                }
            }
        }
    }

    #[test]
    fn recycled_vectors_are_reused_only_when_nothing_shares_them() {
        let path = ScratchPath::new("seg_recycle");
        write_segment(&path, 3, 200, vec![Compression::None; 3]);
        let store = FileStore::open(&path).unwrap();
        let address = |p: &ChunkPayload, col: u16| p.column(ColumnId::new(col)).unwrap().as_ptr();

        // Unshared: the next load lands in the recycled vectors (last in,
        // first out) and reads the new chunk's values, not the stale ones.
        let first = store.materialize(ChunkId::new(0), None).unwrap();
        let addresses: Vec<_> = (0..3).map(|c| address(&first, c)).collect();
        store.recycle(first);
        let second = store.materialize(ChunkId::new(1), None).unwrap();
        for col in 0..3u16 {
            assert_eq!(address(&second, col), addresses[2 - col as usize]);
            assert_eq!(
                second.column(ColumnId::new(col)).unwrap(),
                column_values(1, col, 200).as_slice()
            );
        }

        // A column an operator batch still shares is left alone: the batch
        // keeps reading its values across the next load.
        let held = second.shared_column(ColumnId::new(1)).unwrap();
        let held_at = held.as_ptr();
        store.recycle(second);
        let third = store.materialize(ChunkId::new(2), None).unwrap();
        assert_eq!(*held, column_values(1, 1, 200));
        assert!((0..3).all(|c| address(&third, c) != held_at));

        // So is every column of a payload something else still holds.
        let clone = third.clone();
        store.recycle(third);
        assert!(store.free.vectors.lock().unwrap().is_empty());
        for col in 0..3u16 {
            assert_eq!(
                clone.column(ColumnId::new(col)).unwrap(),
                column_values(2, col, 200).as_slice()
            );
        }
    }

    #[test]
    fn free_list_is_bounded_and_resizes_what_it_hands_out() {
        let path = ScratchPath::new("seg_free_list");
        write_segment(&path, 2, 50, vec![Compression::None; 3]);
        let store = FileStore::open(&path).unwrap();
        // Far more than the list keeps: the excess is dropped.
        for _ in 0..3 * FREE_CHUNKS {
            let fresh = ChunkData::from_parts(
                (0..3)
                    .map(|c| (ColumnId::new(c), ColumnChunk::Plain(Arc::new(vec![9; 50]))))
                    .collect(),
            );
            store.recycle(fresh.into());
        }
        assert_eq!(store.free.vectors.lock().unwrap().len(), FREE_CHUNKS * 3);
        assert_eq!(format!("{:?}", store.free), "FreeList(12 of 12)");
        // A vector of another length comes out at the requested one.
        assert_eq!(store.free.take(50), vec![9; 50]);
        store.free.give(vec![9; 7]);
        let grown = store.free.take(50);
        assert_eq!((&grown[..7], &grown[7..]), (&[9; 7][..], &[0; 43][..]));
        store.free.give(vec![9; 500]);
        assert_eq!(store.free.take(50), vec![9; 50]);
    }

    #[test]
    fn encoded_on_disk_bit_flip_fails_install_time_verification() {
        let path = ScratchPath::new("seg_flip_enc");
        write_segment(&path, 1, 400, schemes());
        let clean = FileStore::open(&path).unwrap();
        let dict = *clean
            .directory()
            .extent(ChunkId::new(0), ColumnId::new(1))
            .unwrap();
        // Flip a byte in the middle of the encoded dictionary extent
        // (past the wire tag, so the structure still parses).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(dict.offset + dict.len / 2) as usize] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let store = FileStore::open(&path).unwrap();
        // The store itself returns the payload (encoded columns are not
        // verified at read time) ...
        let payload = store.materialize(ChunkId::new(0), None).unwrap();
        // ... and the install-time verification the I/O worker runs
        // catches the damage before any consumer sees it.
        assert_eq!(
            payload.verify_checksums().unwrap_err(),
            StoreError::Corrupted
        );
    }

    #[test]
    fn torn_footer_refuses_to_open() {
        let path = ScratchPath::new("seg_torn");
        write_segment(&path, 2, 50, schemes());
        let good = std::fs::read(&path).unwrap();

        // Damage a directory byte: checksum mismatch.
        let mut torn = good.clone();
        let dir_byte = torn.len() - TRAILER_LEN as usize - 5;
        torn[dir_byte] ^= 0x01;
        std::fs::write(&path, &torn).unwrap();
        assert!(FileStore::open(&path).is_err(), "torn directory must fail");

        // Truncate mid-file: bounds cannot reconcile.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(FileStore::open(&path).is_err(), "truncated file must fail");

        // Damage the trailing magic.
        let mut bad_magic = good.clone();
        let last = bad_magic.len() - 1;
        bad_magic[last] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(FileStore::open(&path).is_err(), "bad magic must fail");

        // And the pristine bytes still open.
        std::fs::write(&path, &good).unwrap();
        FileStore::open(&path).unwrap();
    }

    #[test]
    fn version_1_segment_is_refused_at_open() {
        let path = ScratchPath::new("seg_v1");
        write_segment(&path, 1, 20, schemes());
        let mut bytes = std::fs::read(&path).unwrap();
        // The version sits 10 bytes before the end (version, then magic).
        let at = bytes.len() - 10;
        assert_eq!(bytes[at..at + 2], SEGMENT_VERSION.to_le_bytes());
        bytes[at..at + 2].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = FileStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unsupported segment version 1");
    }

    #[test]
    fn plain_extent_whose_length_disagrees_with_its_rows_is_refused_at_open() {
        let path = ScratchPath::new("seg_geometry");
        write_segment(&path, 2, 40, schemes());
        let good = std::fs::read(&path).unwrap();
        let dir_len = 2 * 3 * EXTENT_ENTRY_LEN as usize;
        let dir_at = good.len() - TRAILER_LEN as usize - dir_len;
        // Patch the length of extent 3 (chunk 1, the plain column) in the
        // directory — one word shorter, so it still lies inside the data
        // area — and recompute the directory checksum, so that nothing but
        // the geometry check can object.
        let patch = |len: u64| {
            let mut bytes = good.clone();
            let entry = dir_at + 3 * EXTENT_ENTRY_LEN as usize;
            assert_eq!(bytes[entry + 32], CODEC_PLAIN);
            bytes[entry + 8..entry + 16].copy_from_slice(&len.to_le_bytes());
            let sum = checksum64(&bytes[dir_at..dir_at + dir_len]);
            let trailer = good.len() - TRAILER_LEN as usize;
            bytes[trailer + 16..trailer + 24].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        };
        patch(40 * 8 - 8);
        let err = FileStore::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "extent 3: plain length disagrees with row count"
        );
        // The same patch with the true length opens: only that check fired.
        patch(40 * 8);
        FileStore::open(&path).unwrap();
    }

    #[test]
    fn unfinished_writer_leaves_only_a_tmp_orphan() {
        let path = ScratchPath::new("seg_atomic");
        {
            let mut w = SegmentWriter::create(&path, schemes()).unwrap();
            let cols: Vec<Vec<i64>> = (0..3).map(|c| column_values(0, c, 64)).collect();
            let refs: Vec<&[i64]> = cols.iter().map(|c| c.as_slice()).collect();
            w.append_chunk(&refs).unwrap();
            // Dropped without finish(): the crash-mid-load case.
        }
        assert!(!path.exists(), "no torn segment under the final name");
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        assert!(tmp.exists(), "the orphan stays under the tmp name");
        assert!(
            FileStore::open(&tmp).is_err(),
            "even opening the orphan directly finds no valid footer"
        );
        std::fs::remove_file(&tmp).unwrap();
    }

    #[test]
    fn second_writer_for_one_target_is_refused() {
        let path = ScratchPath::new("seg_collide");
        let first = SegmentWriter::create(&path, schemes()).unwrap();
        let second = SegmentWriter::create(&path, schemes()).unwrap_err();
        assert_eq!(second.kind(), io::ErrorKind::AlreadyExists);
        drop(first);
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        std::fs::remove_file(&tmp).unwrap();
        // With the orphan gone the target is writable again.
        write_segment(&path, 1, 8, schemes());
        FileStore::open(&path).unwrap();
    }

    #[test]
    fn writer_rejects_degenerate_chunks() {
        let path = ScratchPath::new("seg_degenerate");
        assert!(SegmentWriter::create(&path, vec![]).is_err());
        let mut w = SegmentWriter::create(&path, schemes()).unwrap();
        assert!(w.append_chunk(&[]).is_err(), "wrong column count");
        assert!(
            w.append_chunk(&[&[][..], &[][..], &[][..]]).is_err(),
            "empty chunk"
        );
        assert!(
            w.append_chunk(&[&[1][..], &[1, 2][..], &[1][..]]).is_err(),
            "ragged chunk"
        );
        assert!(w.finish().is_err(), "empty segment cannot finish");
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        let _ = std::fs::remove_file(&tmp);
    }

    #[test]
    fn bad_chunk_and_column_requests_are_permanent() {
        let path = ScratchPath::new("seg_bounds");
        write_segment(&path, 2, 10, schemes());
        let store = FileStore::open(&path).unwrap();
        assert_eq!(
            store.materialize(ChunkId::new(2), None).unwrap_err(),
            StoreError::Permanent
        );
        assert_eq!(
            store
                .materialize(ChunkId::new(0), Some(&[ColumnId::new(9)]))
                .unwrap_err(),
            StoreError::Permanent
        );
    }

    /// A [`SegmentIo`] decorator that fails reads overlapping a byte range.
    #[derive(Debug)]
    struct FailingIo {
        inner: PreadFile,
        fail_from: u64,
        fail_len: u64,
        kind: io::ErrorKind,
    }

    impl SegmentIo for FailingIo {
        fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            let end = offset + buf.len() as u64;
            if offset < self.fail_from + self.fail_len && end > self.fail_from {
                return Err(io::Error::new(self.kind, "injected backend failure"));
            }
            self.inner.read_exact_at(buf, offset)
        }

        fn len(&self) -> io::Result<u64> {
            self.inner.len()
        }
    }

    #[test]
    fn backend_errors_map_onto_the_fault_taxonomy() {
        let path = ScratchPath::new("seg_iomap");
        write_segment(&path, 1, 20, schemes());
        let clean = FileStore::open(&path).unwrap();
        let e0 = *clean
            .directory()
            .extent(ChunkId::new(0), ColumnId::new(0))
            .unwrap();
        for (kind, want) in [
            (io::ErrorKind::TimedOut, StoreError::TimedOut),
            (io::ErrorKind::UnexpectedEof, StoreError::Corrupted),
            (io::ErrorKind::NotFound, StoreError::Permanent),
            (io::ErrorKind::BrokenPipe, StoreError::Transient),
        ] {
            let io = Arc::new(FailingIo {
                inner: PreadFile::open(&path).unwrap(),
                fail_from: e0.offset,
                fail_len: e0.len,
                kind,
            });
            let store = FileStore::from_io(io).unwrap();
            assert_eq!(store.materialize(ChunkId::new(0), None).unwrap_err(), want);
        }
    }
}
