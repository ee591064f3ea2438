//! Experiment harness for the Cooperative Scans reproduction.
//!
//! Every table and figure of the paper's evaluation section has a module
//! under [`experiments`] that builds the corresponding workload, runs it
//! through the deterministic simulation for each scheduling policy and
//! returns structured results; the [`figures`] manifest prints them in a
//! layout mirroring the paper (the `figures` binary) and checks the paper's
//! claims on them.
//!
//! What is kept where: the one committed number, `BENCH_io.json`, is
//! virtual time and a test holds a re-run to it byte for byte; bounds on the
//! live engine are gate tests (`tests/*_gate.rs` and the release-only tests
//! in [`experiments`]); wall-clock measurements of the live engine are
//! `BENCHMARK.json` workloads and live nowhere else.
//!
//! Most experiments accept a [`Scale`]: `Quick` shrinks the data and
//! stream counts so the whole suite runs in seconds (the scale the claims
//! are tested at), `Paper` uses the paper's sizes (TPC-H SF-10/SF-40, 16
//! streams of 4 queries).

#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod harness;
pub mod report;

pub use harness::{base_times, compare_policies, PolicyComparison, PolicyRow, Scale};
pub use report::TextTable;
