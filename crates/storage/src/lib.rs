//! Storage substrate: schemas, segment files, chunk payloads and scan plans.
//!
//! The Cooperative Scans framework schedules *logical chunks* — horizontal
//! partitions of a table — while the disk works in *physical pages*.  This
//! crate describes the table side: a [`schema::TableSchema`] gives each
//! column its logical type and its on-disk width after [`compression`],
//! which is all `cscan_core::TableModel` needs to derive the chunk geometry
//! of the paper's two storage models (NSM/PAX and DSM), and
//! [`PhysRegion`] is the unit of disk placement that model hands the
//! simulated disk.
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
//! validated against).  [`segment`] keeps a table on disk: one file, one
//! checksummed extent per (chunk, column), written once by
//! [`segment::write_store`] and read by [`segment::FileStore`], whose
//! payloads travel as encoded bytes that decode lazily, a column at its
//! first touch.

#![warn(missing_docs)]

pub mod chunkdata;
pub mod codec;
pub mod compression;
pub mod fault;
pub mod ids;
pub mod scan;
pub mod schema;
pub mod scratch;
pub mod segment;
pub mod zonemap;

pub use chunkdata::{ChunkData, ChunkPayload, ChunkStore, ColumnChunk, LazyColumn, SeededStore};
pub use codec::{checksum64, EncodedColumn};
pub use compression::Compression;
pub use fault::{FaultConfig, FaultInjectingStore, FaultOutcome, StoreError};
pub use ids::{ChunkId, ColumnId, PageId};
pub use scan::{ChunkRange, ScanRanges};
pub use schema::{ColumnDef, ColumnType, TableSchema};
pub use scratch::ScratchPath;
pub use segment::{write_store, FileStore, PreadFile, SegmentIo, SegmentSummary, SegmentWriter};
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
