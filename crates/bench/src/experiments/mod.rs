//! One module per table / figure of the paper's evaluation section.
//!
//! Each table and figure is an entry of the [`figures`](crate::figures)
//! manifest, named after the binary that used to print it; an entry's
//! claims are checked on virtual-time output only, so the wall-clock
//! entries make none.
//!
//! | module   | reproduces | `figures` entry (claims) |
//! |----------|------------|--------------------------|
//! | [`fig2`]   | Figure 2 — buffer-reuse probability (Eq. 1) | `fig2_reuse_probability` (4) |
//! | [`table2`] | Table 2 — NSM/PAX policy comparison, 16×4 query streams | `table2_nsm` (6) |
//! | [`fig4`]   | Figure 4 — chunk-access-over-time traces per policy | `fig4_traces` (4) |
//! | [`fig5`]   | Figure 5 — throughput/latency scatter over 15 query mixes | `fig5_query_mixes` (3) |
//! | [`fig6`]   | Figure 6 — sweep over buffer-pool capacity | `fig6_buffer_scaling` (3) |
//! | [`fig7`]   | Figure 7 — sweep over the number of concurrent queries; outstanding-I/O sweep (`BENCH_io.json`); thread-scaling gate | `fig7_concurrency` (4), `fig7_io_sweep` (2) |
//! | [`fig8`]   | Figure 8 — scheduling cost of the relevance policy | `fig8_scheduling_cost` (0, wall clock) |
//! | [`fig9`]   | Figure 9 — compression: decode GiB/s, ratios and I/O volume | `fig9_compression` (0, wall clock) |
//! | [`fig9_file`] | Figure 9 end-to-end — real segment files through `FileStore` | `fig9_file` (0, wall clock) |
//! | [`table3`] | Table 3 — DSM policy comparison | `table3_dsm` (2) |
//! | [`table4`] | Table 4 — DSM column-overlap study | `table4_overlap` (3) |
//! | [`faults`] | Fault sweep — rows and fault counts under injected I/O failures; checksum overhead (`fault_gate`) | — |
//! | [`serve`]  | Served scans — remote clients through the network service (`serve_gate`) | — |
//!
//! Table 1 of the paper is published TPC-H price/performance data (used as
//! motivation), not an experiment, and is therefore not reproduced.

pub mod faults;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig9_file;
pub mod serve;
pub mod table2;
pub mod table3;
pub mod table4;
