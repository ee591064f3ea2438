//! Chunk materialization: the *data plane* of a Cooperative Scan.
//!
//! The scheduling layers only ever talk about chunk *identities* and page
//! *counts*; this module supplies the bytes.  A [`ChunkStore`] is anything
//! that can materialize the column values of a logical chunk — the
//! reproduction's stores generate values deterministically instead of
//! reading a real table file, which is exactly what the layer above needs:
//! given a delivered chunk id, hand me that chunk's data.
//!
//! There is one payload shape, [`ChunkData`]: *some columns of a logical
//! chunk*, as `(column, mini-column)` pairs sorted by column id.  Under an
//! NSM/PAX model all columns of a chunk travel together (the values are
//! still held as per-column mini-columns — the PAX arrangement MonetDB/X100
//! uses inside NSM pages — so consumers get contiguous `&[i64]` views
//! without a gather); under DSM a chunk may be *partially* resident and
//! later loads merge further columns in ([`ChunkPayload::merged_with`]).
//!
//! # Compressed mini-columns
//!
//! A mini-column is either *plain* (a shared `Vec<i64>`) or *compressed*
//! (PDICT / PFOR / PFOR-DELTA bytes produced by [`crate::codec`], see
//! [`LazyColumn`]).  A compressed column decodes **lazily, exactly once,
//! and on its own**: the first reader of *that column* pays its
//! decompression CPU cost, every later reader — including later pins of
//! the same buffered chunk, which share the column `Arc` — hits the decoded
//! form, and a column nobody reads stays encoded bytes.  Integrity is
//! checked separately and earlier ([`ChunkPayload::verify_checksums`], at
//! install and at every pin of a payload that still holds encoded
//! columns), so decoding never runs over bytes that failed their checksum.
//! Eviction drops the whole column (both states); a re-load re-installs
//! fresh compressed bytes and the next reader re-decodes.  This is the
//! two-state frame lifecycle the paper's Figure 9 experiments rely on: I/O
//! moves *encoded* bytes, and the CPU pays for decoding what is used.
//!
//! Column vectors are individually reference-counted, so cloning a
//! [`ChunkPayload`] (handing it to a pinned chunk) and merging partial
//! payloads are refcount bumps — the hot consume path of a scan performs no per-chunk
//! heap allocation and no data copies once a column is decoded.

use crate::codec::EncodedColumn;
use crate::fault::StoreError;
use crate::ids::{ChunkId, ColumnId};
use std::sync::Arc;
use std::sync::OnceLock;

/// A single materialized column of one chunk: contiguous values,
/// individually reference-counted so payload clones and DSM merges never
/// copy data.
pub type ColumnData = Arc<Vec<i64>>;

/// A compressed mini-column with a once-only decode cache.
///
/// The encoded bytes are installed by the I/O path; [`LazyColumn::values`]
/// decodes on first use (asserting the caller does not hold the executor's
/// hub lock) and every subsequent call — from any clone of the owning
/// payload, since payloads share the column `Arc` — returns the cached
/// vector.
#[derive(Debug)]
pub struct LazyColumn {
    encoded: EncodedColumn,
    decoded: OnceLock<ColumnData>,
}

impl LazyColumn {
    /// Wraps encoded bytes for lazy decoding.
    pub fn new(encoded: EncodedColumn) -> Self {
        Self {
            encoded,
            decoded: OnceLock::new(),
        }
    }

    /// Number of values (known without decoding).
    pub fn rows(&self) -> usize {
        self.encoded.rows()
    }

    /// The encoded form itself (state-preserving access; used by the fault
    /// injector to produce torn copies).
    pub fn encoded(&self) -> &EncodedColumn {
        &self.encoded
    }

    /// Verifies the encoded bytes against the checksum recorded at encode
    /// time.  An already-decoded column verified once and is trusted.
    pub fn verify_checksum(&self) -> Result<(), StoreError> {
        if self.is_decoded() || self.encoded.verify_checksum() {
            Ok(())
        } else {
            Err(StoreError::Corrupted)
        }
    }

    /// Checksum-verified decode: like [`LazyColumn::ensure_decoded`] but a
    /// damaged column surfaces as [`StoreError::Corrupted`] instead of a
    /// decoder panic.
    pub fn try_ensure_decoded(&self) -> Result<usize, StoreError> {
        self.verify_checksum()?;
        Ok(self.ensure_decoded())
    }

    /// Whether the decode has already happened.
    pub fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }

    /// The decoded values, decoding on first call (never under the hub
    /// lock — debug-asserted by the codec layer).
    pub fn values(&self) -> &ColumnData {
        self.decoded.get_or_init(|| Arc::new(self.encoded.decode()))
    }

    /// Ensures the column is decoded; returns the number of values decoded
    /// *by this call* (0 if the cache was already populated — e.g. by an
    /// earlier pin of the same buffered chunk).
    pub fn ensure_decoded(&self) -> usize {
        if self.is_decoded() {
            return 0;
        }
        let mut decoded_now = 0;
        self.decoded.get_or_init(|| {
            decoded_now = self.encoded.rows();
            Arc::new(self.encoded.decode())
        });
        decoded_now
    }
}

/// One mini-column of a chunk payload: plain shared values, or compressed
/// bytes that decode lazily on first read.  Cloning either form is a
/// refcount bump.
#[derive(Debug, Clone)]
pub enum ColumnChunk {
    /// Uncompressed, immediately readable values.
    Plain(ColumnData),
    /// Encoded bytes with a shared once-only decode cache.
    Compressed(Arc<LazyColumn>),
}

impl ColumnChunk {
    /// Number of values (without triggering a decode).
    pub fn len(&self) -> usize {
        match self {
            ColumnChunk::Plain(d) => d.len(),
            ColumnChunk::Compressed(l) => l.rows(),
        }
    }

    /// True if the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values, decoding first if necessary.
    pub fn as_slice(&self) -> &[i64] {
        match self {
            ColumnChunk::Plain(d) => d.as_slice(),
            ColumnChunk::Compressed(l) => l.values().as_slice(),
        }
    }

    /// The values as a shared vector (a refcount bump, decoding first if
    /// necessary): what a consumer keeps to read the column after the
    /// frame that delivered it has been released or evicted.
    pub fn shared(&self) -> ColumnData {
        match self {
            ColumnChunk::Plain(d) => Arc::clone(d),
            ColumnChunk::Compressed(l) => Arc::clone(l.values()),
        }
    }

    /// Whether the values are readable without a decode (plain, or
    /// compressed-and-already-decoded).
    pub fn is_decoded(&self) -> bool {
        match self {
            ColumnChunk::Plain(_) => true,
            ColumnChunk::Compressed(l) => l.is_decoded(),
        }
    }

    /// Ensures the column is decoded; returns the values decoded by this
    /// call (0 for plain or already-decoded columns).
    pub fn ensure_decoded(&self) -> usize {
        match self {
            ColumnChunk::Plain(_) => 0,
            ColumnChunk::Compressed(l) => l.ensure_decoded(),
        }
    }

    /// Verifies the column's integrity checksum (plain columns have no
    /// checksum and always verify).
    pub fn verify_checksum(&self) -> Result<(), StoreError> {
        match self {
            ColumnChunk::Plain(_) => Ok(()),
            ColumnChunk::Compressed(l) => l.verify_checksum(),
        }
    }

    /// Checksum-verified decode; a damaged column surfaces as
    /// [`StoreError::Corrupted`] instead of a decoder panic.
    pub fn try_ensure_decoded(&self) -> Result<usize, StoreError> {
        match self {
            ColumnChunk::Plain(_) => Ok(0),
            ColumnChunk::Compressed(l) => l.try_ensure_decoded(),
        }
    }
}

impl PartialEq for ColumnChunk {
    fn eq(&self, other: &Self) -> bool {
        // Equality is logical (same values).  Identical encodings shortcut
        // without decoding; otherwise compare the decoded slices.
        if let (ColumnChunk::Compressed(a), ColumnChunk::Compressed(b)) = (self, other) {
            if Arc::ptr_eq(a, b) {
                return true;
            }
            if a.encoded == b.encoded {
                return true;
            }
        }
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ColumnChunk {}

/// The materialized data of some columns of one chunk: every column of the
/// table when an NSM/PAX chunk is loaded whole, the resident subset when a
/// DSM chunk is loaded column by column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkData {
    rows: usize,
    /// `(column, mini-column)` pairs, sorted by column id, no repeats.
    columns: Vec<(ColumnId, ColumnChunk)>,
}

impl ChunkData {
    /// Builds the payload from `(column, mini-column)` pairs in either
    /// state (any order).
    ///
    /// # Panics
    /// Panics if no columns are given, lengths differ, or a column repeats.
    pub fn from_parts(mut columns: Vec<(ColumnId, ColumnChunk)>) -> Self {
        let rows = columns
            .first()
            .map(|(_, c)| c.len())
            .expect("a chunk payload needs at least one column");
        assert!(
            columns.iter().all(|(_, c)| c.len() == rows),
            "all columns of a chunk must have the same length"
        );
        columns.sort_by_key(|(id, _)| *id);
        assert!(
            columns.windows(2).all(|w| w[0].0 != w[1].0),
            "duplicate column in chunk payload"
        );
        Self { rows, columns }
    }

    /// Builds what a [`ChunkStore::materialize`] call asks for: the columns
    /// of `cols`, or every column `0..width` when `cols` is `None`, each
    /// produced by `load`.  The first failing column fails the payload.
    ///
    /// # Panics
    /// As [`ChunkData::from_parts`].
    pub fn load(
        cols: Option<&[ColumnId]>,
        width: u16,
        mut load: impl FnMut(ColumnId) -> Result<ColumnChunk, StoreError>,
    ) -> Result<Self, StoreError> {
        let mut one = |id| Ok((id, load(id)?));
        let columns: Result<Vec<_>, StoreError> = match cols {
            None => (0..width).map(ColumnId::new).map(&mut one).collect(),
            Some(cols) => cols.iter().copied().map(&mut one).collect(),
        };
        Ok(Self::from_parts(columns?))
    }

    /// Number of rows in the chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The columns present, in ascending column-id order.
    pub fn column_ids(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.columns.iter().map(|(id, _)| *id)
    }

    /// Zero-copy view of one column, if present (decoding it first if
    /// compressed).
    pub fn column(&self, col: ColumnId) -> Option<&[i64]> {
        self.part(col).map(|c| c.as_slice())
    }

    /// One mini-column, if present, in whatever state it is in.  A payload
    /// holding columns `0..n` — every whole-chunk load — answers by
    /// position; a sparse one binary-searches.
    pub fn part(&self, col: ColumnId) -> Option<&ColumnChunk> {
        match self.columns.get(col.as_usize()) {
            Some((id, part)) if *id == col => Some(part),
            _ => self
                .columns
                .binary_search_by_key(&col, |(id, _)| *id)
                .ok()
                .map(|i| &self.columns[i].1),
        }
    }

    /// The mini-columns present (state-preserving access).
    pub fn parts(&self) -> &[(ColumnId, ColumnChunk)] {
        &self.columns
    }

    /// The union of this payload and a `newer` load of the same chunk; on a
    /// column both hold, the newer one wins.  Column vectors are shared,
    /// not copied, and each keeps its plain/compressed state (a decoded
    /// column stays decoded across the merge).
    pub fn merged_with(&self, newer: &ChunkData) -> ChunkData {
        assert_eq!(
            self.rows, newer.rows,
            "cannot merge payloads with different row counts"
        );
        let mut columns = newer.columns.clone();
        for (id, data) in &self.columns {
            if newer.part(*id).is_none() {
                columns.push((*id, data.clone()));
            }
        }
        ChunkData::from_parts(columns)
    }

    /// A new payload keeping only the columns for which `keep` returns true
    /// (used when a plan reclaims the dead columns of a partially shared chunk).
    /// Returns `None` if nothing survives.
    pub fn retained(&self, mut keep: impl FnMut(ColumnId) -> bool) -> Option<ChunkData> {
        let columns: Vec<(ColumnId, ColumnChunk)> = self
            .columns
            .iter()
            .filter(|(id, _)| keep(*id))
            .map(|(id, data)| (*id, data.clone()))
            .collect();
        if columns.is_empty() {
            None
        } else {
            Some(ChunkData::from_parts(columns))
        }
    }
}

/// The payload travelling with a delivered chunk.
///
/// Cloning a payload is a refcount bump — the inner data is shared, never
/// copied — so a pinned chunk can carry its payload out of the buffer
/// manager's lock without per-chunk allocation.  Compressed mini-columns
/// share their decode cache across clones: the first reader of a column
/// decodes it, later pins of the same buffered chunk read the cached
/// vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ChunkPayload {
    /// No data travels with the chunk (metadata-only delivery: the
    /// deterministic simulation, or a threaded server without a store).
    #[default]
    Missing,
    /// The columns of the chunk that are resident.
    Data(Arc<ChunkData>),
}

impl From<ChunkData> for ChunkPayload {
    fn from(data: ChunkData) -> Self {
        ChunkPayload::Data(Arc::new(data))
    }
}

impl ChunkPayload {
    /// The mini-columns present (none for a metadata-only payload).
    fn parts(&self) -> impl Iterator<Item = &ColumnChunk> {
        let parts: &[(ColumnId, ColumnChunk)] = match self {
            ChunkPayload::Missing => &[],
            ChunkPayload::Data(d) => d.parts(),
        };
        parts.iter().map(|(_, c)| c)
    }

    /// Whether the chunk carries no data.
    pub fn is_missing(&self) -> bool {
        matches!(self, ChunkPayload::Missing)
    }

    /// Number of rows, or 0 for a metadata-only payload.
    pub fn rows(&self) -> usize {
        match self {
            ChunkPayload::Missing => 0,
            ChunkPayload::Data(d) => d.rows(),
        }
    }

    /// One mini-column, if present in the payload, in whatever state it is
    /// in (no decode).
    pub fn part(&self, col: ColumnId) -> Option<&ColumnChunk> {
        match self {
            ChunkPayload::Missing => None,
            ChunkPayload::Data(d) => d.part(col),
        }
    }

    /// Zero-copy view of one column's values, if present in the payload
    /// (decoding the column first if it is compressed and not yet decoded).
    pub fn column(&self, col: ColumnId) -> Option<&[i64]> {
        self.part(col).map(ColumnChunk::as_slice)
    }

    /// One column's values as a shared vector, if present in the payload:
    /// the same data [`ChunkPayload::column`] views, but refcounted instead
    /// of borrowed, so it outlives the pin (the holder keeps heap bytes,
    /// never a buffer frame).
    pub fn shared_column(&self, col: ColumnId) -> Option<ColumnData> {
        self.part(col).map(ColumnChunk::shared)
    }

    /// Ensures every column of the payload is decoded; returns the number
    /// of values decoded *by this call* (0 when everything was plain or
    /// already decoded — the steady-state hit path does no work here).
    pub fn decode_all(&self) -> usize {
        self.parts().map(ColumnChunk::ensure_decoded).sum()
    }

    /// Verifies every still-encoded column's integrity checksum without
    /// decoding anything.  The executor calls it twice: on the I/O worker
    /// before committing a load (torn reads are retried as transient
    /// faults instead of entering the buffer), and on the consumer's thread
    /// at every pin of a payload that is not yet fully decoded (a frame
    /// damaged while resident is rejected and re-loaded).
    pub fn verify_checksums(&self) -> Result<(), StoreError> {
        self.parts().try_for_each(ColumnChunk::verify_checksum)
    }

    /// Checksum-verified [`ChunkPayload::decode_all`]: every column, each
    /// verified before it is decoded.  A mismatch surfaces as
    /// [`StoreError::Corrupted`] — a retryable fault, never a decoder
    /// panic.  (The executor decodes column by column instead, as
    /// consumers touch them; this is for callers that want the whole
    /// payload, such as a decode-bandwidth probe.)
    pub fn try_decode_all(&self) -> Result<usize, StoreError> {
        self.parts().map(ColumnChunk::try_ensure_decoded).sum()
    }

    /// Whether every present column is readable without a decode.
    pub fn is_fully_decoded(&self) -> bool {
        self.parts().all(ColumnChunk::is_decoded)
    }

    /// Consumes the payload and passes `keep` every plain column vector
    /// that nothing else shares any more — the memory a store may reuse
    /// for its next load ([`ChunkStore::recycle`]).  `Arc::try_unwrap` has
    /// to succeed on the payload and on the column: a vector that a clone
    /// of the payload, a pinned chunk or an operator batch still reads is
    /// dropped (by its last holder, later), never handed over.
    pub fn reclaim_plain(self, mut keep: impl FnMut(Vec<i64>)) {
        let ChunkPayload::Data(data) = self else {
            return;
        };
        let Ok(data) = Arc::try_unwrap(data) else {
            return;
        };
        for (_, part) in data.columns {
            if let ColumnChunk::Plain(values) = part {
                if let Ok(values) = Arc::try_unwrap(values) {
                    keep(values);
                }
            }
        }
    }

    /// Merges a newly loaded payload into this one: the union of the two
    /// column sets (sharing the vectors), the newer load winning a column
    /// both hold.  A newer payload that covers every column of this one —
    /// each whole-chunk reload — or either side carrying no data means the
    /// newer payload simply wins.
    pub fn merged_with(&self, newer: &ChunkPayload) -> ChunkPayload {
        match (self, newer) {
            (ChunkPayload::Data(old), ChunkPayload::Data(new))
                if old.column_ids().any(|c| new.part(c).is_none()) =>
            {
                old.merged_with(new).into()
            }
            (_, n) => n.clone(),
        }
    }
}

/// A source of chunk data: the "table file" of the data plane.
///
/// `cols` selects what to materialize: `Some(subset)` asks for exactly
/// those columns, `None` for every column of the table — the same payload
/// `Some(&all)` returns.  Implementations must be deterministic (two reads
/// of the same chunk agree) and thread-safe: the threaded executor calls
/// `materialize` from its I/O workers *outside* the hub lock.
///
/// A read can fail: the [`StoreError`] taxonomy distinguishes retryable
/// faults (transient, timeout, corrupted) from permanent ones, and the
/// I/O workers above retry or quarantine accordingly.
pub trait ChunkStore: Send + Sync {
    /// Materializes the given columns of `chunk`.
    fn materialize(
        &self,
        chunk: ChunkId,
        cols: Option<&[ColumnId]>,
    ) -> Result<ChunkPayload, StoreError>;

    /// Offers back a payload the buffer evicted (or never installed), so a
    /// store that allocates per load can reuse the memory.  Called by the
    /// I/O workers with no lock held.  A store may keep only what
    /// [`ChunkPayload::reclaim_plain`] yields — memory nothing else can
    /// still read; the default just drops the payload.
    fn recycle(&self, _payload: ChunkPayload) {}
}

/// A deterministic synthetic store: value = mix(chunk, row, column, seed).
///
/// Used by the core-crate tests and benches, which cannot depend on the
/// executor's richer table generators.
#[derive(Debug, Clone)]
pub struct SeededStore {
    rows_per_chunk: u64,
    num_columns: u16,
    seed: u64,
}

impl SeededStore {
    /// A store producing `rows_per_chunk` rows and `num_columns` columns per
    /// chunk.
    ///
    /// # Panics
    /// Panics on a degenerate geometry.
    pub fn new(rows_per_chunk: u64, num_columns: u16, seed: u64) -> Self {
        assert!(
            rows_per_chunk > 0 && num_columns > 0,
            "degenerate store geometry"
        );
        Self {
            rows_per_chunk,
            num_columns,
            seed,
        }
    }

    /// The deterministic value of `(chunk, row, col)` under this seed.
    pub fn value(&self, chunk: ChunkId, row: u64, col: ColumnId) -> i64 {
        // SplitMix64 over the coordinates: cheap, deterministic, and
        // different per (chunk, row, column, seed).
        let mut z = (chunk.index() as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(row.wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add((col.index() as u64).wrapping_mul(0x94D049BB133111EB))
            .wrapping_add(self.seed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        (z ^ (z >> 31)) as i64
    }

    fn column_values(&self, chunk: ChunkId, col: ColumnId) -> ColumnData {
        Arc::new(
            (0..self.rows_per_chunk)
                .map(|row| self.value(chunk, row, col))
                .collect(),
        )
    }
}

impl ChunkStore for SeededStore {
    fn materialize(
        &self,
        chunk: ChunkId,
        cols: Option<&[ColumnId]>,
    ) -> Result<ChunkPayload, StoreError> {
        let data = ChunkData::load(cols, self.num_columns, |c| {
            Ok(ColumnChunk::Plain(self.column_values(chunk, c)))
        })?;
        Ok(data.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression::Compression;

    fn col(i: u16) -> ColumnId {
        ColumnId::new(i)
    }

    /// A whole-chunk payload: `parts[i]` is column `i`.
    fn dense(parts: Vec<ColumnChunk>) -> ChunkData {
        ChunkData::from_parts((0..).map(col).zip(parts).collect())
    }

    fn plain(values: &[i64]) -> ColumnChunk {
        ColumnChunk::Plain(Arc::new(values.to_vec()))
    }

    #[test]
    fn nsm_payload_views_every_column() {
        let data = dense(vec![plain(&[1, 2, 3]), plain(&[10, 20, 30])]);
        assert_eq!(data.rows(), 3);
        assert_eq!(data.column_ids().collect::<Vec<_>>(), vec![col(0), col(1)]);
        assert_eq!(data.column(col(1)), Some(&[10, 20, 30][..]));
        assert_eq!(data.column(col(2)), None);
        let payload = ChunkPayload::from(data);
        assert!(!payload.is_missing());
        assert_eq!(payload.rows(), 3);
        assert_eq!(payload.column(col(0)), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn dsm_payload_merges_column_subsets() {
        let a = ChunkData::from_parts(vec![(col(2), plain(&[5, 6])), (col(0), plain(&[1, 2]))]);
        assert_eq!(a.column_ids().collect::<Vec<_>>(), vec![col(0), col(2)]);
        assert_eq!(a.column(col(2)), Some(&[5, 6][..]));
        assert_eq!(a.column(col(1)), None);
        let b = ChunkData::from_parts(vec![(col(1), plain(&[8, 9]))]);
        let merged = a.merged_with(&b);
        assert_eq!(
            merged.column_ids().collect::<Vec<_>>(),
            vec![col(0), col(1), col(2)]
        );
        assert_eq!(merged.column(col(0)), Some(&[1, 2][..]));
        assert_eq!(merged.column(col(1)), Some(&[8, 9][..]));
        // Via the payload enum, merging shares the vectors.
        let pa = ChunkPayload::from(a);
        let pb = ChunkPayload::from(b);
        let pm = pa.merged_with(&pb);
        assert_eq!(pm.column(col(2)), Some(&[5, 6][..]));
    }

    #[test]
    fn dsm_retained_drops_dead_columns() {
        let d = dense(vec![plain(&[1]), plain(&[2])]);
        let kept = d.retained(|c| c == col(1)).expect("one column survives");
        assert_eq!(kept.column_ids().collect::<Vec<_>>(), vec![col(1)]);
        assert!(d.retained(|_| false).is_none());
    }

    #[test]
    fn missing_payload_is_inert() {
        let p = ChunkPayload::Missing;
        assert!(p.is_missing());
        assert_eq!(p.rows(), 0);
        assert_eq!(p.column(col(0)), None);
        assert_eq!(p.decode_all(), 0);
        assert!(p.is_fully_decoded());
        // A load of real data over a metadata placeholder wins.
        let n = ChunkPayload::from(dense(vec![plain(&[7])]));
        assert_eq!(p.merged_with(&n), n);
        assert_eq!(n.merged_with(&p), p, "and the other way round");
    }

    #[test]
    fn reclaim_yields_only_plain_vectors_nothing_else_shares() {
        fn reclaimed(payload: ChunkPayload) -> Vec<Vec<i64>> {
            let mut out = Vec::new();
            payload.reclaim_plain(|v| out.push(v));
            out
        }
        let plain = |v: i64| plain(&[v; 4]);
        let nsm = |parts| ChunkPayload::from(dense(parts));

        // Sole owner: every plain vector comes back; an encoded column (and
        // its decode cache) does not.
        let encoded = encoded(&[3; 4], pfor21());
        assert_eq!(encoded.as_slice(), &[3; 4], "decoded, still not plain");
        let got = reclaimed(nsm(vec![plain(1), encoded, plain(2)]));
        assert_eq!(got, vec![vec![1; 4], vec![2; 4]]);
        let dsm = ChunkData::from_parts(vec![(col(4), plain(5)), (col(2), plain(6))]);
        assert_eq!(reclaimed(dsm.into()), vec![vec![6; 4], vec![5; 4]]);
        assert!(reclaimed(ChunkPayload::Missing).is_empty());

        // A column somebody still reads stays theirs; its neighbours go.
        let payload = nsm(vec![plain(1), plain(2)]);
        let held = payload.shared_column(col(0)).unwrap();
        assert_eq!(reclaimed(payload), vec![vec![2; 4]]);
        assert_eq!(*held, vec![1; 4]);

        // A payload somebody still holds (a pinned chunk's clone) gives up
        // nothing at all.
        let payload = nsm(vec![plain(1)]);
        let pinned = payload.clone();
        assert!(reclaimed(payload).is_empty());
        assert_eq!(pinned.column(col(0)), Some(&[1; 4][..]));
    }

    #[test]
    fn seeded_store_is_deterministic_and_shape_correct() {
        let store = SeededStore::new(100, 3, 42);
        let chunk = ChunkId::new(5);
        let a = store.materialize(chunk, None).unwrap();
        let b = store.materialize(chunk, None).unwrap();
        assert_eq!(a, b, "two reads of the same chunk agree");
        assert_eq!(a.rows(), 100);
        assert!(a.column(col(2)).is_some());
        // The DSM subset matches the full materialization column-for-column.
        let subset = store.materialize(chunk, Some(&[col(1)])).unwrap();
        assert_eq!(subset.column(col(1)), a.column(col(1)));
        assert_eq!(subset.column(col(0)), None);
        // Different seeds produce different data.
        let other = SeededStore::new(100, 3, 43)
            .materialize(chunk, None)
            .unwrap();
        assert_ne!(a, other);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_nsm_rejected() {
        dense(vec![plain(&[1]), plain(&[1, 2])]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_dsm_column_rejected() {
        ChunkData::from_parts(vec![(col(0), plain(&[1])), (col(0), plain(&[2]))]);
    }

    // ------------------------------------------------------------------
    // Compressed mini-columns.
    // ------------------------------------------------------------------

    fn pfor21() -> Compression {
        Compression::Pfor {
            bits: 21,
            exception_rate: 0.02,
        }
    }

    /// `values` as a compressed mini-column under `scheme`.
    fn encoded(values: &[i64], scheme: Compression) -> ColumnChunk {
        ColumnChunk::Compressed(Arc::new(LazyColumn::new(EncodedColumn::encode(
            values, scheme,
        ))))
    }

    #[test]
    fn compressed_column_decodes_once_and_is_shared() {
        let values: Vec<i64> = (0..500).map(|i| i * 3).collect();
        let c = encoded(&values, pfor21());
        assert_eq!(c.len(), 500);
        assert!(!c.is_decoded(), "encoding must not decode");
        let clone = c.clone();
        // The first reader decodes...
        assert_eq!(c.ensure_decoded(), 500);
        assert_eq!(c.as_slice(), &values[..]);
        // ...and the clone shares the cache: nothing left to decode.
        assert!(clone.is_decoded());
        assert_eq!(clone.ensure_decoded(), 0);
        assert_eq!(clone.as_slice(), &values[..]);
    }

    #[test]
    fn column_equality_is_logical() {
        let values: Vec<i64> = (0..300).map(|i| i % 7).collect();
        let plain = ColumnChunk::Plain(Arc::new(values.clone()));
        let dict = encoded(&values, Compression::Dictionary { bits: 3 });
        let pfor = encoded(&values, pfor21());
        assert_eq!(plain, dict, "same values, different physical form");
        assert_eq!(dict, pfor);
        let other = ColumnChunk::Plain(Arc::new(vec![9; 300]));
        assert_ne!(plain, other);
    }

    #[test]
    fn dsm_merge_preserves_decode_state() {
        let a = ChunkData::from_parts(vec![(col(0), encoded(&[1, 2, 3], pfor21()))]);
        // Decode a's column, then merge a new compressed column in.
        assert_eq!(a.column(col(0)), Some(&[1, 2, 3][..]));
        let b = ChunkData::from_parts(vec![(col(1), encoded(&[7, 8, 9], pfor21()))]);
        let merged = a.merged_with(&b);
        let states: Vec<bool> = merged.parts().iter().map(|(_, c)| c.is_decoded()).collect();
        assert_eq!(
            states,
            vec![true, false],
            "the decoded column stays decoded, the new one stays encoded"
        );
        assert_eq!(merged.column(col(1)), Some(&[7, 8, 9][..]));
    }
}
