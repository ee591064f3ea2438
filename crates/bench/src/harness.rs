//! Shared experiment machinery: scales, policy comparisons, base times.

use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::sim::{QuerySpec, RunResult, SimConfig, Simulation};
use cscan_workload::queries::QueryClass;
use std::collections::HashMap;

/// Experiment scale: the paper's full setup or a shrunk variant for quick
/// runs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small data (TPC-H SF-1-like), few streams; finishes in well under a
    /// second per policy.  The default scale of the `figures` binary and
    /// the one its claims are tested at.
    Quick,
    /// The paper's setup (SF-10 NSM / SF-40 DSM, 16 streams of 4 queries).
    Paper,
}

impl Scale {
    /// Parses `"quick"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// TPC-H scale factor for the NSM experiments.
    pub fn nsm_scale_factor(self) -> u32 {
        match self {
            Scale::Quick => 2,
            Scale::Paper => 10,
        }
    }

    /// TPC-H scale factor for the DSM experiments.
    pub fn dsm_scale_factor(self) -> u32 {
        match self {
            Scale::Quick => 4,
            Scale::Paper => 40,
        }
    }

    /// Number of concurrent streams.
    pub fn streams(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Paper => 16,
        }
    }

    /// Queries per stream.
    pub fn queries_per_stream(self) -> usize {
        4
    }

    /// Delay between stream starts (3 s in the paper; shorter at quick scale
    /// so that the smaller queries still overlap).
    pub fn stagger(self) -> cscan_simdisk::SimDuration {
        match self {
            Scale::Quick => cscan_simdisk::SimDuration::from_secs(1),
            Scale::Paper => cscan_simdisk::SimDuration::from_secs(3),
        }
    }

    /// Buffer pool size (in 16 MiB chunks) for the NSM experiments — the
    /// paper uses 64 chunks (1 GB) against a ~4.3 GB table; the quick scale
    /// keeps the same buffer:table ratio.
    pub fn nsm_buffer_chunks(self) -> u64 {
        match self {
            Scale::Quick => 13,
            Scale::Paper => 64,
        }
    }

    /// Buffer pool bytes for the DSM experiments (1.5 GB in the paper).
    pub fn dsm_buffer_bytes(self) -> u64 {
        match self {
            Scale::Quick => 150 * 1024 * 1024,
            Scale::Paper => 1_536 * 1024 * 1024,
        }
    }
}

/// One row of a policy-comparison table.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The policy this row describes.
    pub policy: PolicyKind,
    /// Average stream running time (seconds) — the throughput metric.
    pub avg_stream_time: f64,
    /// Average normalized query latency — the latency metric.
    pub avg_normalized_latency: f64,
    /// Total wall-clock (virtual) time of the whole run.
    pub total_time: f64,
    /// CPU utilization over the run.
    pub cpu_use: f64,
    /// Number of chunk-granularity I/O requests.
    pub io_requests: u64,
    /// The full run result (per-query detail, trace, …).
    pub result: RunResult,
}

/// The outcome of running the same workload under every policy.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// One row per policy, in [`PolicyKind::ALL`] order.
    pub rows: Vec<PolicyRow>,
    /// The standalone cold latencies used for normalization, keyed by label.
    pub base_times: HashMap<String, f64>,
}

impl PolicyComparison {
    /// The row for `policy`.
    ///
    /// # Panics
    /// Panics if the comparison does not include the policy.
    pub fn row(&self, policy: PolicyKind) -> &PolicyRow {
        self.rows
            .iter()
            .find(|r| r.policy == policy)
            .expect("policy missing from comparison")
    }
}

/// Computes the standalone cold run time of each query class, used as the
/// denominator of normalized latencies (the paper's "standalone cold time").
///
/// The standalone time of a class depends only on the number of chunks it
/// scans, so a representative range starting at chunk 0 is used.
pub fn base_times(
    model: &TableModel,
    classes: &[QueryClass],
    config: SimConfig,
) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for class in classes {
        let label = class.label();
        if out.contains_key(&label) {
            continue;
        }
        let chunks = class.chunks_in(model);
        let spec = QuerySpec::range_scan(
            label.clone(),
            cscan_storage::ScanRanges::single(0, chunks),
            class.speed.tuples_per_sec(),
        );
        let latency = Simulation::standalone_latency(model, PolicyKind::Relevance, config, &spec);
        out.insert(label, latency);
    }
    out
}

/// Runs `streams` against `model` under every scheduling policy and collects
/// the paper's summary metrics.
pub fn compare_policies(
    model: &TableModel,
    streams: &[Vec<QuerySpec>],
    config: SimConfig,
    base: &HashMap<String, f64>,
) -> PolicyComparison {
    let rows = PolicyKind::ALL
        .iter()
        .map(|&policy| {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(streams.to_vec());
            let result = sim.run();
            PolicyRow {
                policy,
                avg_stream_time: result.avg_stream_time(),
                avg_normalized_latency: result.avg_normalized_latency(base),
                total_time: result.total_time.as_secs_f64(),
                cpu_use: result.cpu_utilization,
                io_requests: result.io_requests,
                result,
            }
        })
        .collect();
    PolicyComparison {
        rows,
        base_times: base.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_workload::queries::table2_classes;
    use cscan_workload::streams::{build_streams, StreamSetup};

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        for alias in ["PAPER", "full", "small", "test", "--paper", "bogus"] {
            assert_eq!(Scale::parse(alias), None, "{alias}");
        }
        assert!(Scale::Quick.streams() < Scale::Paper.streams());
        assert!(Scale::Quick.nsm_scale_factor() < Scale::Paper.nsm_scale_factor());
    }

    #[test]
    fn base_times_scale_with_range_size() {
        let model = TableModel::nsm_uniform(50, 100_000, 256);
        let config = SimConfig::default().with_buffer_chunks(10);
        let classes = vec![
            QueryClass::fast(10),
            QueryClass::fast(100),
            QueryClass::slow(100),
        ];
        let base = base_times(&model, &classes, config);
        assert_eq!(base.len(), 3);
        assert!(base["F-100"] > base["F-10"] * 5.0);
        assert!(
            base["S-100"] > base["F-100"],
            "slow queries take longer standalone"
        );
    }

    #[test]
    fn comparison_has_all_policies_and_sane_metrics() {
        let model = TableModel::nsm_uniform(40, 100_000, 256);
        let config = SimConfig::default().with_buffer_chunks(8);
        let setup = StreamSetup {
            streams: 4,
            queries_per_stream: 2,
            classes: table2_classes(),
            seed: 3,
        };
        let streams = build_streams(&setup, &model, None);
        let base = base_times(&model, &table2_classes(), config);
        let cmp = compare_policies(&model, &streams, config, &base);
        assert_eq!(cmp.rows.len(), 4);
        for row in &cmp.rows {
            assert!(row.avg_stream_time > 0.0, "{:?}", row.policy);
            // Normalized latency can dip below 1 when a query finds its whole
            // range already buffered, but it must be positive.
            assert!(row.avg_normalized_latency > 0.0, "{:?}", row.policy);
            assert!(row.io_requests > 0);
            assert!(row.cpu_use > 0.0 && row.cpu_use <= 1.0);
        }
        let (normal, relevance) = (cmp.row(PolicyKind::Normal), cmp.row(PolicyKind::Relevance));
        assert!(
            normal.io_requests >= relevance.io_requests,
            "normal should never need fewer I/Os"
        );
    }
}
