//! Storage substrate: schemas, physical layouts and chunk maps.
//!
//! The Cooperative Scans framework schedules *logical chunks* — horizontal
//! partitions of a table — while the disk works in *physical pages*.  This
//! crate models both sides of that relationship for the two storage models
//! studied in the paper:
//!
//! * **NSM/PAX** ([`nsm::NsmLayout`]): all columns of a tuple live together,
//!   a chunk is a fixed number of contiguous pages, and chunk boundaries
//!   coincide with page boundaries.
//! * **DSM** ([`dsm::DsmLayout`]): each column is stored separately with its
//!   own (possibly compressed) physical width, a chunk is a tuple-count
//!   partition, and chunk boundaries generally do *not* coincide with page
//!   boundaries (Figure 9 of the paper).
//!
//! [`zonemap::ZoneMap`] implements the "small materialized aggregates" /
//! min-max metadata of Section 2, which turns range predicates on correlated
//! columns into multi-range scan plans ([`scan::ScanRanges`]).
//!
//! [`chunkdata`] is the data plane: [`chunkdata::ChunkStore`] materializes
//! the actual column values of a chunk as a [`chunkdata::ChunkPayload`] —
//! one shape, some columns of the chunk as per-column mini-columns: all of
//! them when an NSM chunk is loaded, a mergeable subset under DSM — which
//! is what a pinned chunk hands to the query operators.  Mini-columns may
//! be stored *compressed*: [`codec`] implements the real PDICT / PFOR /
//! PFOR-DELTA encoders ([`compression`] keeps the width model they are
//! validated against), and [`chunkdata::CompressingStore`] wraps any store
//! so its payloads travel as encoded bytes that decode lazily, a column at
//! its first touch.

#![warn(missing_docs)]

pub mod chunkdata;
pub mod codec;
pub mod compression;
pub mod dsm;
pub mod fault;
pub mod ids;
pub mod nsm;
pub mod scan;
pub mod schema;
pub mod scratch;
pub mod segment;
pub mod zonemap;

pub use chunkdata::{
    ChunkData, ChunkPayload, ChunkStore, ColumnChunk, CompressingStore, LazyColumn, SeededStore,
};
pub use codec::{checksum64, EncodedColumn};
pub use compression::Compression;
pub use dsm::DsmLayout;
pub use fault::{FaultConfig, FaultInjectingStore, FaultOutcome, StoreError};
pub use ids::{ChunkId, ColumnId, PageId};
pub use nsm::NsmLayout;
pub use scan::{ChunkRange, ScanRanges};
pub use schema::{ColumnDef, ColumnType, TableSchema};
pub use scratch::ScratchPath;
pub use segment::{FileStore, PreadFile, SegmentIo, SegmentSummary, SegmentWriter};
pub use zonemap::ZoneMap;

use cscan_simdisk::IoRequest;

/// Default physical page size used throughout the reproduction (64 KiB,
/// matching MonetDB/X100's large-page orientation).
pub const DEFAULT_PAGE_SIZE: u64 = 64 * 1024;

/// A physical region of the table file: where a piece of a chunk lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PhysRegion {
    /// Byte offset within the table's storage area.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl PhysRegion {
    /// Converts the region into a chunk-read I/O request.
    pub fn to_io_request(self) -> IoRequest {
        IoRequest::chunk_read(self.offset, self.len)
    }
}

/// Common interface of the two physical layouts.
///
/// Everything the Active Buffer Manager needs to know about a table is
/// expressible through this trait: how many logical chunks there are, how
/// many tuples and physical pages each (chunk, column-set) combination
/// occupies, and which byte regions must be read to load it.
pub trait Layout {
    /// Number of logical chunks in the table.
    fn num_chunks(&self) -> u32;

    /// Number of tuples in the table.
    fn num_tuples(&self) -> u64;

    /// Number of tuples contained in the given chunk.
    fn chunk_tuples(&self, chunk: ChunkId) -> u64;

    /// Number of physical pages that must be resident to process the given
    /// columns of the given chunk.  For NSM the column set is irrelevant.
    fn chunk_pages(&self, chunk: ChunkId, cols: &[ColumnId]) -> u64;

    /// Bytes that must be read from disk for the given columns of the chunk.
    fn chunk_bytes(&self, chunk: ChunkId, cols: &[ColumnId]) -> u64;

    /// Physical regions to read for the given columns of the chunk.
    fn chunk_regions(&self, chunk: ChunkId, cols: &[ColumnId]) -> Vec<PhysRegion>;

    /// Total size of the table in bytes (all columns).
    fn total_bytes(&self) -> u64 {
        let all: Vec<ColumnId> = (0..self.num_columns()).map(ColumnId::new).collect();
        (0..self.num_chunks())
            .map(|c| self.chunk_bytes(ChunkId::new(c), &all))
            .sum()
    }

    /// Number of columns in the table.
    fn num_columns(&self) -> u16;

    /// Total pages occupied by the given columns over the whole table.
    fn total_pages(&self, cols: &[ColumnId]) -> u64 {
        (0..self.num_chunks())
            .map(|c| self.chunk_pages(ChunkId::new(c), cols))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_region_to_io_request() {
        let r = PhysRegion {
            offset: 4096,
            len: 1024,
        };
        let io = r.to_io_request();
        assert_eq!(io.offset, 4096);
        assert_eq!(io.len, 1024);
    }
}
