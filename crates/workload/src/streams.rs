//! Query stream construction.
//!
//! The paper's benchmark runs `N` streams, each executing a random sequence
//! of `M` queries drawn from a set of query classes, with a 3-second delay
//! between stream starts (Section 5.1: "16 streams of 4 random queries").

use crate::queries::QueryClass;
use cscan_core::model::TableModel;
use cscan_core::sim::QuerySpec;
use cscan_core::ColSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Description of a stream workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSetup {
    /// Number of concurrent streams (16 in Table 2).
    pub streams: usize,
    /// Queries per stream (4 in Table 2).
    pub queries_per_stream: usize,
    /// The classes queries are drawn from, uniformly at random.
    pub classes: Vec<QueryClass>,
    /// RNG seed, so a workload can be replayed exactly.
    pub seed: u64,
}

impl StreamSetup {
    /// Total number of queries across all streams.
    pub fn total_queries(&self) -> usize {
        self.streams * self.queries_per_stream
    }
}

/// Builds the concrete query streams for `setup` against `model`, optionally
/// restricting every query to `columns`.
///
/// # Panics
/// Panics if the setup has no query classes.
pub fn build_streams(
    setup: &StreamSetup,
    model: &TableModel,
    columns: Option<ColSet>,
) -> Vec<Vec<QuerySpec>> {
    assert!(
        !setup.classes.is_empty(),
        "a stream setup needs at least one query class"
    );
    let mut rng = StdRng::seed_from_u64(setup.seed);
    (0..setup.streams)
        .map(|_| {
            (0..setup.queries_per_stream)
                .map(|_| {
                    let class = setup.classes[rng.gen_range(0..setup.classes.len())];
                    class.to_spec(model, columns, &mut rng)
                })
                .collect()
        })
        .collect()
}

/// Builds streams where every query is an instance of the *same* class —
/// used by the concurrency sweep of Figure 7 (`n` one-query streams).
pub fn uniform_streams(
    class: QueryClass,
    n: usize,
    model: &TableModel,
    columns: Option<ColSet>,
    seed: u64,
) -> Vec<Vec<QuerySpec>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| vec![class.to_spec(model, columns, &mut rng)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::table2_classes;

    fn model() -> TableModel {
        TableModel::nsm_uniform(100, 100_000, 256)
    }

    /// Table 2's setup: 16 streams of 4 queries.
    fn table2_setup(seed: u64) -> StreamSetup {
        StreamSetup {
            streams: 16,
            queries_per_stream: 4,
            classes: table2_classes(),
            seed,
        }
    }

    #[test]
    fn paper_default_shape() {
        let setup = table2_setup(42);
        assert_eq!(setup.total_queries(), 64);
        let streams = build_streams(&setup, &model(), None);
        assert_eq!(streams.len(), 16);
        assert!(streams.iter().all(|s| s.len() == 4));
        // Labels come from the class set.
        let labels: std::collections::HashSet<String> =
            streams.iter().flatten().map(|q| q.label.clone()).collect();
        assert!(labels
            .iter()
            .all(|l| l.starts_with('F') || l.starts_with('S')));
        assert!(
            labels.len() > 2,
            "a 64-query draw should hit several classes"
        );
    }

    #[test]
    fn same_seed_same_streams() {
        let setup = table2_setup(7);
        let a = build_streams(&setup, &model(), None);
        let b = build_streams(&setup, &model(), None);
        assert_eq!(a, b);
        let other = StreamSetup { seed: 8, ..setup };
        let c = build_streams(&other, &model(), None);
        assert_ne!(a, c, "different seeds give different workloads");
    }

    #[test]
    fn uniform_streams_are_single_query() {
        let streams = uniform_streams(QueryClass::fast(20), 8, &model(), None, 3);
        assert_eq!(streams.len(), 8);
        assert!(streams.iter().all(|s| s.len() == 1));
        assert!(streams.iter().all(|s| s[0].label == "F-20"));
        // Random placement: not all scans start at the same chunk.
        let starts: std::collections::HashSet<u32> = streams
            .iter()
            .map(|s| s[0].ranges.as_ref().unwrap().first().unwrap().index())
            .collect();
        assert!(starts.len() > 1);
    }

    #[test]
    fn columns_are_propagated() {
        let cols = ColSet::first_n(4);
        let setup = StreamSetup {
            streams: 2,
            queries_per_stream: 2,
            classes: table2_classes(),
            seed: 1,
        };
        let streams = build_streams(&setup, &model(), Some(cols));
        assert!(streams.iter().flatten().all(|q| q.columns == cols));
    }

    #[test]
    #[should_panic(expected = "at least one query class")]
    fn empty_class_set_rejected() {
        let setup = StreamSetup {
            streams: 1,
            queries_per_stream: 1,
            classes: vec![],
            seed: 0,
        };
        build_streams(&setup, &model(), None);
    }
}
