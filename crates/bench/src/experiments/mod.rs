//! One module per table / figure of the paper's evaluation section.
//!
//! | module   | reproduces |
//! |----------|------------|
//! | [`fig2`]   | Figure 2 — buffer-reuse probability (Eq. 1) |
//! | [`table2`] | Table 2 — NSM/PAX policy comparison, 16×4 query streams |
//! | [`fig4`]   | Figure 4 — chunk-access-over-time traces per policy |
//! | [`fig5`]   | Figure 5 — throughput/latency scatter over 15 query mixes |
//! | [`fig6`]   | Figure 6 — sweep over buffer-pool capacity |
//! | [`fig7`]   | Figure 7 — sweep over the number of concurrent queries; outstanding-I/O sweep (`BENCH_io.json`); thread-scaling gate |
//! | [`fig8`]   | Figure 8 — scheduling cost of the relevance policy |
//! | [`fig9`]   | Figure 9 — compression: decode GiB/s, ratios and I/O volume |
//! | [`fig9_file`] | Figure 9 end-to-end — real segment files through `FileStore` |
//! | [`table3`] | Table 3 — DSM policy comparison |
//! | [`table4`] | Table 4 — DSM column-overlap study |
//! | [`faults`] | Fault sweep — rows and fault counts under injected I/O failures; checksum overhead (`fault_gate`) |
//! | [`serve`]  | Served scans — remote clients through the network service (`serve_gate`) |
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
