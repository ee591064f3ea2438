//! Vectorized query operators for Cooperative Scans.
//!
//! The scheduling experiments of the paper only need an abstract notion of
//! "processing a chunk"; this crate supplies the concrete side: a small
//! MonetDB/X100-style vectorized execution layer that consumes chunks — in
//! whatever order the ABM delivers them — and produces real query results
//! cheaply enough that a scan is bound by I/O and sharing, not by the CPU
//! (the regime the paper's results assume).
//!
//! * [`vector::DataChunk`] — a batch: refcounted column vectors shared with
//!   the buffer frame they were delivered in, an optional *selection
//!   vector* naming the rows still alive, and the chunk number it came from
//!   (the "virtual column" of Section 7.2).  Its module docs state the one
//!   rule about physical and logical rows;
//! * [`table::MemTable`] — an in-memory chunked table with deterministic
//!   generators, standing in for the TPC-H data; it doubles as a
//!   [`cscan_storage::ChunkStore`], so the same table feeds a live threaded
//!   `ScanServer` *and* serves as the baseline the differential tests
//!   compare against;
//! * [`expr::Expr`] — scalar expressions and predicates: a range test on a
//!   column writes the selection vector in 64-row blocks with no branch on
//!   a row's verdict, other predicates narrow it in place, arithmetic
//!   evaluates into reusable scratch vectors — nothing is allocated per row
//!   or per expression node;
//! * [`ops`] — operators: chunk sources (including [`ops::SessionSource`],
//!   which turns any [`cscan_core::session::ScanSession`] into a leaf of
//!   the operator tree without copying a value), filter, project, hash
//!   aggregation (one loop a batch: a key column's remap to the group's
//!   slot, every aggregate folded there, a filter's column range folded as
//!   a mask), and the order-aware operators of Section 7: chunk-ordered
//!   aggregation with boundary stitching and the (cooperative) merge join
//!   over multi-table clustering.
//!
//! The kernels' speed is gated in release CI against the same query written
//! as plain loops (`cscan_bench/tests/exec_gate.rs`); ARCHITECTURE.md's
//! hot-path guarantee gives the measured figure.

#![warn(missing_docs)]

pub mod expr;
pub mod ops;
pub mod table;
pub mod vector;

pub use expr::Expr;
pub use ops::aggregate::{AggFunc, ChunkOrderedAggregate, HashAggregate};
pub use ops::join::{merge_join, CooperativeMergeJoin};
pub use ops::project::Project;
pub use ops::scan::{ChunkSource, Operator, SessionSource};
pub use ops::select::Filter;
pub use table::MemTable;
pub use vector::{DataChunk, Value};
