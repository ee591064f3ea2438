//! Table 4: DSM column-overlap study.
//!
//! A 200 M-tuple synthetic table of ten 8-byte attributes; 16 streams of 4
//! queries, each scanning 3 adjacent columns over a random 40 % range.  The
//! query sets vary how much the queries' column windows overlap — from a
//! single window (`ABC`) over disjoint windows (`ABC,DEF`) to chains of
//! partially overlapping windows (`ABC,BCD,CDE,DEF`).  The paper reports the
//! number of I/Os and the average / standard deviation of query latency for
//! the `normal` and `relevance` policies.

use crate::harness::Scale;
use cscan_core::policy::PolicyKind;
use cscan_core::sim::{SimConfig, Simulation};
use cscan_engine::Summary;
use cscan_workload::synthetic::{synthetic_model, table4_query_sets, table4_streams};

/// Result of one (query set, policy) cell of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Cell {
    /// The query-set description, e.g. `"ABC,BCD"`.
    pub query_set: String,
    /// The policy.
    pub policy: PolicyKind,
    /// Number of chunk-granularity I/O requests.
    pub io_requests: u64,
    /// Query latency statistics (seconds).
    pub latency: Summary,
}

/// The full Table 4 output.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// One cell per (query set, policy) combination, normal first.
    pub cells: Vec<Table4Cell>,
}

/// Number of tuples in the synthetic table at the given scale.
pub fn tuples(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 20_000_000,
        Scale::Paper => 200_000_000,
    }
}

/// The buffer size (1 GB in the paper).
pub fn config(scale: Scale) -> SimConfig {
    let bytes = match scale {
        Scale::Quick => 100 * 1024 * 1024,
        Scale::Paper => 1024 * 1024 * 1024,
    };
    SimConfig::default()
        .with_buffer_bytes(bytes)
        .with_stagger(scale.stagger())
}

/// Runs the Table 4 experiment for the `normal` and `relevance` policies
/// (the two the paper reports).
pub fn run(scale: Scale, seed: u64) -> Table4Result {
    let model = synthetic_model(tuples(scale));
    let config = config(scale);
    let mut cells = Vec::new();
    for (name, windows) in table4_query_sets() {
        let streams = table4_streams(
            &model,
            &windows,
            scale.streams(),
            scale.queries_per_stream(),
            8_000_000.0,
            seed,
        );
        for policy in [PolicyKind::Normal, PolicyKind::Relevance] {
            let mut sim = Simulation::new(model.clone(), policy, config);
            sim.submit_streams(streams.clone());
            let result = sim.run();
            let latency = Summary::from_values(
                &result
                    .queries
                    .iter()
                    .map(|q| q.latency().as_secs_f64())
                    .collect::<Vec<_>>(),
            );
            cells.push(Table4Cell {
                query_set: name.clone(),
                policy,
                io_requests: result.io_requests,
                latency,
            });
        }
    }
    Table4Result { cells }
}

impl Table4Result {
    /// The cell for a query set and policy.
    ///
    /// # Panics
    /// Panics if the combination was not run.
    pub fn cell(&self, query_set: &str, policy: PolicyKind) -> &Table4Cell {
        self.cells
            .iter()
            .find(|c| c.query_set == query_set && c.policy == policy)
            .unwrap_or_else(|| panic!("no cell for {query_set} / {policy}"))
    }
}

#[cfg(test)]
mod tests {
    use crate::figures::{SEED, TABLE4};

    /// `table4_overlap`'s claims hold at the manifest's seed and at this
    /// test's, on 5 query sets x 2 policies.
    #[test]
    fn overlap_drives_sharing() {
        for seed in [SEED, 5] {
            assert_eq!(TABLE4.assert_claims_hold(seed).cells.len(), 10);
        }
    }
}
