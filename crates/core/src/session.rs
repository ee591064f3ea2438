//! The query-facing scan API: [`ScanSession`] and [`PinnedChunk`].
//!
//! A CScan is a *session* against the Active Buffer Manager: the query
//! attaches (announcing its ranges and columns up-front), repeatedly asks
//! for the next chunk — which arrives in whatever order the ABM finds
//! convenient — and detaches when done.  This module defines that contract
//! once; the execution layer (the `cscan_exec` operator tree) consumes a
//! scan through the trait.  [`crate::threaded::CScanHandle`] implements it
//! — a blocking session over real OS threads, delivering pins of the
//! [`crate::threaded::ScanServer`]'s buffer — and wrappers around a
//! handle (the benchmark's tracing session) implement it too.  The trait
//! only blocks; a consumer that multiplexes several scans on one thread
//! polls the handle itself with a waker
//! ([`crate::threaded::CScanHandle::poll_next_chunk`]).
//!
//! # Pin lifecycle
//!
//! A [`PinnedChunk`] is the unit of delivery.  While it is alive the chunk
//! is pinned in the ABM's buffer record of it (the chunk is `pinned_by`
//! the query, so no eviction plan may choose it and no dead-column reclaim
//! may shrink it), and the pin carries a clone of the record's payload, so
//! the data a query is reading can never be reclaimed under it.  Dropping
//! the pin releases it and tells the scheduler the chunk was consumed.
//!
//! A payload may arrive *compressed* (encoded PDICT/PFOR/PFOR-DELTA
//! mini-columns).  The server verifies every encoded column's checksum
//! when the load installs it, and decodes nothing: a column is decoded
//! when a consumer first touches it through
//! [`PinnedChunk::column`] / [`PinnedChunk::shared_column`] — once per
//! residency, on the consumer's thread, under no executor lock — so a plan
//! pays for the columns it reads and for no others.  The views returned are
//! plain decoded slices shared with the buffer frame; for a plain or
//! already decoded column the accessors are a match and a pointer read.
//!
//! Prefer [`PinnedChunk::complete`] over letting the pin fall out of scope:
//! a plain drop still releases everything (so early returns and `?` are
//! safe), but it is counted as an *unconsumed drop* by the owning server —
//! tests assert the counter stays zero, which catches pipelines that
//! silently discard delivered data.

use crate::query::QueryId;
use crate::threaded::Shared;
use cscan_obs::QueryScope;
use cscan_storage::chunkdata::ColumnData;
use cscan_storage::{ChunkId, ChunkPayload, ColumnChunk, ColumnId, StoreError};
use std::sync::Arc;

/// Why a scan cannot continue: a chunk the query needs failed for good.
///
/// Delivered when a chunk's load exhausted its retry budget or failed
/// permanently — the chunk is quarantined, the query's registration is
/// closed, and every further [`ScanSession::next_chunk`] call reports this
/// error.  Queries not interested in the failed chunk are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ScanError {
    /// The chunk that could not be delivered.
    pub chunk: ChunkId,
    /// The final storage error (after retries, if it was retryable).
    pub cause: StoreError,
}

impl ScanError {
    /// Stable wire code for "a scan failed on a chunk" in the serving
    /// layer's binary protocol.  The chunk index and the cause's own
    /// [`StoreError::wire_code`] travel as the payload, so the error
    /// round-trips losslessly.
    pub const WIRE_CODE: u16 = 100;

    /// Builds a scan error.  The struct is `#[non_exhaustive]`, so
    /// downstream crates construct it here rather than with a literal.
    pub fn new(chunk: ChunkId, cause: StoreError) -> Self {
        Self { chunk, cause }
    }
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scan failed: {:?} is unreadable ({})",
            self.chunk, self.cause
        )
    }
}

impl std::error::Error for ScanError {}

/// A chunk delivered to a query, pinned for the lifetime of this value.
///
/// Carries the chunk's payload (real column data, or
/// [`ChunkPayload::Missing`] from a server built without a store), read
/// zero-copy: [`PinnedChunk::column`] returns views into the pinned frame,
/// shared — not copied — out of the buffer manager, decoding the column
/// first if this is the first touch of it since the chunk was loaded.
#[must_use = "dropping a PinnedChunk counts as consuming the chunk; call complete() when done"]
pub struct PinnedChunk {
    query: QueryId,
    chunk: ChunkId,
    payload: ChunkPayload,
    /// The server that delivered the pin, and takes it back on drop.
    server: Arc<Shared>,
    /// The query's metric scope: a first-touch decode is pin-wait.
    scope: Arc<QueryScope>,
    consumed: bool,
}

impl std::fmt::Debug for PinnedChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedChunk")
            .field("query", &self.query)
            .field("chunk", &self.chunk)
            .field("rows", &self.payload.rows())
            .finish()
    }
}

impl PinnedChunk {
    /// Creates a pin.  The server constructs these; queries only consume them.
    pub(crate) fn new(
        query: QueryId,
        chunk: ChunkId,
        payload: ChunkPayload,
        server: Arc<Shared>,
        scope: Arc<QueryScope>,
    ) -> Self {
        Self {
            query,
            chunk,
            payload,
            server,
            scope,
            consumed: false,
        }
    }

    /// The delivered chunk's identity.
    pub fn chunk(&self) -> ChunkId {
        self.chunk
    }

    /// The query this chunk was delivered to.
    pub fn query(&self) -> QueryId {
        self.query
    }

    /// The chunk's payload ([`ChunkPayload::Missing`] when the server has
    /// no store).
    pub fn payload(&self) -> &ChunkPayload {
        &self.payload
    }

    /// Zero-copy view of one column's values, if the payload carries it
    /// (and, when it had to be decoded first, the decode succeeded — see
    /// [`PinnedChunk::try_column`]).
    pub fn column(&self, col: ColumnId) -> Option<&[i64]> {
        self.try_column(col).ok().flatten()
    }

    /// One column's values as a shared vector that outlives this pin: the
    /// consumer may [`PinnedChunk::complete`] first and read afterwards,
    /// holding heap bytes but no buffer frame.  `None` as for
    /// [`PinnedChunk::column`].
    pub fn shared_column(&self, col: ColumnId) -> Option<ColumnData> {
        self.try_shared_column(col).ok().flatten()
    }

    /// [`PinnedChunk::column`], telling "the payload does not carry the
    /// column" (`Ok(None)`) from "its bytes cannot be decoded" (`Err`).
    /// The bytes passed their checksum when the load installed them, so
    /// the latter is a malformed body: the codec's panic is contained
    /// here, the scan is closed, and this error is what its next
    /// [`ScanSession::next_chunk`] returns too.
    pub fn try_column(&self, col: ColumnId) -> Result<Option<&[i64]>, ScanError> {
        Ok(self.touch(col)?.map(ColumnChunk::as_slice))
    }

    /// [`PinnedChunk::shared_column`] with the error of
    /// [`PinnedChunk::try_column`].
    pub fn try_shared_column(&self, col: ColumnId) -> Result<Option<ColumnData>, ScanError> {
        Ok(self.touch(col)?.map(ColumnChunk::shared))
    }

    /// The column's part of the payload, decoded: the one place a pinned
    /// column goes from encoded bytes to values.
    fn touch(&self, col: ColumnId) -> Result<Option<&ColumnChunk>, ScanError> {
        let Some(part) = self.payload.part(col) else {
            return Ok(None);
        };
        if !part.is_decoded() {
            self.server
                .decode_column(self.query, self.chunk, &self.scope, part)?;
        }
        Ok(Some(part))
    }

    /// Number of rows in the payload (0 for [`ChunkPayload::Missing`]).
    pub fn rows(&self) -> usize {
        self.payload.rows()
    }

    /// Marks the chunk as fully consumed and releases the pin.
    pub fn complete(mut self) {
        self.consumed = true;
        // Drop runs next and performs the release.
    }
}

impl Drop for PinnedChunk {
    fn drop(&mut self) {
        // The payload clone goes before the pin: a load the release makes
        // room for may evict the chunk at once and offer the buffer's
        // payload back to the store, which reuses it only if it is the last.
        self.payload = ChunkPayload::Missing;
        self.server
            .release_pin(self.query, self.chunk, self.consumed);
    }
}

/// A live CScan: attach → [`ScanSession::next_chunk`] until `None` →
/// [`ScanSession::detach`].
///
/// This is the *only* way queries talk to the ABM:
/// [`crate::threaded::CScanHandle`] implements it, and `cscan_exec`-style
/// operator trees consume it.  Detaching mid-scan (or dropping the session)
/// is always legal: the ABM releases the query's interest, aborts loads
/// that were in flight solely on its behalf, and returns its pins as
/// outstanding [`PinnedChunk`]s drop.
pub trait ScanSession {
    /// Delivers the next chunk in ABM-chosen order, `Ok(None)` when the
    /// scan has delivered everything (or was detached), or `Err` when a
    /// chunk this query needs failed permanently (quarantined after retries
    /// or a non-retryable storage error).  After an error the session is
    /// closed: further calls keep returning the same error.  Blocks until
    /// one of those three is known.
    fn next_chunk(&mut self) -> Result<Option<PinnedChunk>, ScanError>;

    /// Number of chunks the scan still needs (0 once finished or detached).
    fn remaining_chunks(&self) -> u32;

    /// Deregisters the scan from the ABM.  Idempotent; also runs on drop.
    fn detach(&mut self);
}
