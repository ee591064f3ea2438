//! The Cooperative Scans network service.
//!
//! This crate turns the single-process scan executor into a served
//! system: a [`Catalog`] maps table names to per-table
//! [`ScanServer`](cscan_core::threaded::ScanServer)s, an [`Admission`]
//! gate bounds how many scans may attach to each table (FIFO queue, then
//! shed), and [`serve`] runs the wire protocol from [`cscan_proto`] over
//! TCP with credit-based batch streaming.
//!
//! The design splits cleanly by what can hurt the server:
//!
//! * [`admission`] — too many *scans*: cap, queue, shed.
//! * [`service`] — too many *pins*: a delivered chunk is pinned only until
//!   its columns' references are taken, never while bytes wait on a
//!   socket.
//! * [`net`] — too many *bytes* and too little *progress*: a bounded
//!   per-connection send queue, and stall-shedding for peers that stop
//!   reading while holding scans.
//!
//! Nothing in the serving path polls or naps.  A connection is a reader
//! thread blocked in `read` and a serving thread that sleeps on a
//! doorbell until a frame arrives, the socket drains, or the executor
//! deposits a chunk for one of its scans — the grant mailbox wakes the
//! connection through the waker each [`ServerScan`] carries
//! ([`CScanHandle::poll_next_chunk`](cscan_core::threaded::CScanHandle::poll_next_chunk)).
//!
//! The `cscan_serve` binary wires a demo catalog to a listener; the
//! `cscan_client` crate is the matching consumer.

#![warn(missing_docs)]

pub mod admission;
pub mod catalog;
pub mod net;
pub mod service;

pub use admission::{Admission, AdmissionConfig, AdmissionTotals, Permit};
pub use catalog::{model_from_segment, Catalog, TableConfig, TableEntry};
pub use net::{serve, ServerConfig, ServerHandle};
pub use service::{Pump, ServerScan};
