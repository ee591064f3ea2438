//! Simulated disk substrate for the Cooperative Scans reproduction.
//!
//! The original paper ran on a 4-way RAID delivering ~200 MB/s with direct
//! I/O.  This crate provides the closest synthetic equivalent: a virtual
//! clock ([`SimTime`] / [`SimDuration`]), an analytic disk model
//! ([`DiskModel`] / [`Disk`]) that charges seek latency plus per-byte
//! transfer time while tracking the head position, a multi-spindle
//! [`RaidArray`] that stripes chunk reads, and an [`IoTrace`] recorder used
//! to regenerate Figure 4 of the paper (chunk accesses over time).
//!
//! Every device accepts **multiple outstanding requests**: submissions made
//! while an arm is busy queue FIFO behind it (see the queueing model in
//! [`disk`] and the per-spindle submission queues in [`raid`]).  The
//! [`trace::QueueDepthTrace`] recorder samples those queues over time for
//! the diagnostics of a driver that keeps several loads outstanding.
//!
//! All times are virtual: nothing in this crate ever consults the wall
//! clock, which keeps every experiment deterministic and laptop-fast.

#![warn(missing_docs)]

pub mod clock;
pub mod disk;
pub mod raid;
pub mod trace;

pub use clock::{SimDuration, SimTime, VirtualClock};
pub use disk::{Disk, DiskModel, DiskStats, IoKind, IoRequest, IoResult};
pub use raid::{RaidArray, RaidConfig};
pub use trace::{DepthEvent, IoTrace, QueueDepthTrace, TraceEvent};

/// Number of bytes in one kibibyte.
pub const KIB: u64 = 1024;
/// Number of bytes in one mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;
