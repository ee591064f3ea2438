//! # Cooperative Scans
//!
//! A from-scratch reproduction of *Cooperative Scans: Dynamic Bandwidth
//! Sharing in a DBMS* (Zukowski, Héman, Nes, Boncz — VLDB 2007).
//!
//! Concurrent (index) scans fight for sequential disk bandwidth.  The paper
//! replaces the traditional Scan-operator-plus-LRU-buffer arrangement with:
//!
//! * **CScan** — a scan operator that registers the chunk ranges it needs
//!   up-front and accepts out-of-order delivery;
//! * **ABM** (Active Buffer Manager) — a chunk-granularity buffer manager
//!   that knows every active scan's remaining needs and dynamically decides
//!   which chunk to load or evict next.
//!
//! Four scheduling policies are implemented behind one [`policy::Policy`]
//! trait: `normal` and `attach`, the in-order baselines that differ only in
//! where a scan starts ([`policy::InOrderPolicy`]),
//! [`policy::ElevatorPolicy`] and the paper's contribution,
//! [`policy::RelevancePolicy`] (the column-aware relevance functions of
//! Fig. 11, of which Fig. 3's row-store ones are the one-group case).
//!
//! The ABM is one type, the scheduler core [`sched::Scheduler`]: it holds
//! the ABM's state ([`AbmState`]) and its policy, makes every grant, plan,
//! commit, release and close decision, judges every failed load, and
//! returns its effects for the front-end to apply.  Two execution
//! front-ends drive it:
//!
//! * [`sim::Simulation`] — a deterministic discrete-event simulation used to
//!   regenerate every table and figure of the paper's evaluation.  It keeps
//!   up to K loads in flight (each burst planned with a budget of K minus
//!   the loads in flight, its evictions reserved up front), submitted to
//!   the per-spindle queues of one simulated RAID array
//!   ([`cscan_simdisk::RaidArray`]).  K = 1 — the default —
//!   reproduces the paper's sequential main loop decision-for-decision.
//! * [`threaded::ScanServer`] — a real multi-threaded executor (OS threads,
//!   an I/O worker pool running the ABM main loop of Fig. 3, one scheduler
//!   lock over the ABM and the payloads in its buffer, per-query grant
//!   mailboxes whose changes ring the waiting consumers'
//!   [`threaded::Doorbell`]s, and idle workers asleep on a condition
//!   variable bound to that lock) for everything that moves bytes.  Each
//!   worker plans one load at a time (a budget of 1), so
//!   `io_threads(k)` keeps up to `k` loads in flight, and the only
//!   front-end whose reads fail: past its [`RetryPolicy`] budget, the core
//!   quarantines the chunk.
//!
//! Every plan carries a ticket that the commit revalidates, so loads whose
//! queries detach mid-read are aborted rather than installed.
//!
//! Queries talk to the threaded server through one surface, the
//! [`session::ScanSession`] trait (attach → `next_chunk()` → detach), and
//! receive [`session::PinnedChunk`]s carrying *real payloads* (materialized
//! by a [`cscan_storage::ChunkStore`], held and pinned in the ABM's buffer
//! record of the chunk, so eviction can never reclaim data a query is
//! reading).  `ARCHITECTURE.md`
//! diagrams the layers (shared [`abm::ChunkIndex`] / the scheduler core and
//! its plan-commit protocol / targeted wakeups) and the lock order:
//! scheduler, then a query's slot.
//!
//! ## Quick example
//!
//! ```
//! use cscan_core::model::TableModel;
//! use cscan_core::policy::PolicyKind;
//! use cscan_core::sim::{QuerySpec, SimConfig, Simulation};
//! use cscan_storage::ScanRanges;
//!
//! // A 100-chunk NSM table, a 25-chunk buffer pool, two concurrent scans
//! // processing 5 million tuples per second each.
//! let model = TableModel::nsm_uniform(100, 100_000, 256);
//! let config = SimConfig::default().with_buffer_chunks(25);
//! let mut sim = Simulation::new(model, PolicyKind::Relevance, config);
//! sim.submit_stream(vec![
//!     QuerySpec::full_scan("q1", 5_000_000.0),
//!     QuerySpec::range_scan("q2", ScanRanges::single(10, 40), 5_000_000.0),
//! ]);
//! let result = sim.run();
//! assert_eq!(result.queries.len(), 2);
//! assert!(result.io_requests > 0);
//! ```

#![warn(missing_docs)]
// The data plane has a real failure path now: faults are values
// (`StoreError` / `ScanError`), not panics.  Non-test code must not
// unwrap — propagate, quarantine, or document the invariant via expect.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod abm;
pub mod bitset;
pub mod colset;
pub mod cscan;
#[cfg(test)]
mod dsm;
pub mod model;
#[cfg(test)]
mod nsm;
pub mod policy;
#[cfg(test)]
mod pool;
pub mod query;
mod retry;
pub mod reuse;
pub mod sched;
pub mod session;
pub mod sim;
mod sync;
pub mod threaded;

pub use abm::{AbmState, BufferedChunk, InflightLoad, LoadDecision};
pub use colset::ColSet;
pub use cscan::CScanPlan;
pub use model::TableModel;
pub use policy::{ElevatorPolicy, InOrderPolicy, Policy, PolicyKind, RelevancePolicy};
pub use query::{QueryId, QueryState};
pub use retry::RetryPolicy;
pub use session::{PinnedChunk, ScanError, ScanSession};

// Re-export the identifiers that appear throughout the public API.
pub use cscan_storage::{ChunkId, ColumnId, ScanRanges};

#[cfg(test)]
#[path = "../tests/support/deadline.rs"]
mod deadline;
