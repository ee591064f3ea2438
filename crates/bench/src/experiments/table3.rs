//! Table 3: column-storage (DSM) policy comparison.
//!
//! Same stream structure as Table 2 but over the DSM `lineitem` at scale
//! factor 40, with a 1.5 GB buffer pool and the "faster slow" query
//! (Section 6.3).  In DSM each query only touches its own columns: FAST is
//! TPC-H Q6 (4 columns), SLOW is TPC-H Q1 (7 columns).

use crate::harness::{compare_policies, PolicyComparison, Scale};
use cscan_core::model::TableModel;
use cscan_core::sim::{QuerySpec, SimConfig};
use cscan_core::ColSet;
use cscan_workload::lineitem::{lineitem_dsm_model, lineitem_schema};
use cscan_workload::queries::{table3_classes, QueryClass, QuerySpeed};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The Table 3 experiment output.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// Per-policy summary and per-query detail.
    pub comparison: PolicyComparison,
    /// Standalone cold times per query class label.
    pub base_times: HashMap<String, f64>,
    /// The DSM model the experiment ran against.
    pub model: TableModel,
}

/// The columns TPC-H Q6 touches (the FAST query).
pub fn fast_columns() -> ColSet {
    let schema = lineitem_schema();
    ColSet::from_columns(schema.resolve(&[
        "l_shipdate",
        "l_discount",
        "l_quantity",
        "l_extendedprice",
    ]))
}

/// The columns TPC-H Q1 touches (the SLOW query).
pub fn slow_columns() -> ColSet {
    let schema = lineitem_schema();
    ColSet::from_columns(schema.resolve(&[
        "l_returnflag",
        "l_linestatus",
        "l_quantity",
        "l_extendedprice",
        "l_discount",
        "l_tax",
        "l_shipdate",
    ]))
}

/// The columns a query class touches.
pub fn class_columns(class: &QueryClass) -> ColSet {
    match class.speed {
        QuerySpeed::Fast => fast_columns(),
        _ => slow_columns(),
    }
}

/// The simulation configuration used by Table 3 at the given scale.
pub fn config(scale: Scale) -> SimConfig {
    SimConfig::default()
        .with_buffer_bytes(scale.dsm_buffer_bytes())
        .with_stagger(scale.stagger())
}

/// Builds the Table 3 streams: random classes with per-class column sets.
pub fn streams(model: &TableModel, scale: Scale, seed: u64) -> Vec<Vec<QuerySpec>> {
    let classes = table3_classes();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..scale.streams())
        .map(|_| {
            (0..scale.queries_per_stream())
                .map(|_| {
                    let class = classes[rng.gen_range(0..classes.len())];
                    class.to_spec(model, Some(class_columns(&class)), &mut rng)
                })
                .collect()
        })
        .collect()
}

/// Runs the Table 3 experiment.
pub fn run(scale: Scale, seed: u64) -> Table3Result {
    let model = lineitem_dsm_model(scale.dsm_scale_factor());
    let config = config(scale);
    let streams = streams(&model, scale, seed);
    // Base times must use the same column sets as the concurrent runs.
    let mut base = HashMap::new();
    for class in table3_classes() {
        let label = class.label();
        if base.contains_key(&label) {
            continue;
        }
        let chunks = class.chunks_in(&model);
        let spec = QuerySpec::range_scan(
            label.clone(),
            cscan_storage::ScanRanges::single(0, chunks),
            class.speed.tuples_per_sec(),
        )
        .with_columns(class_columns(&class));
        let latency = cscan_core::sim::Simulation::standalone_latency(
            &model,
            cscan_core::policy::PolicyKind::Relevance,
            config,
            &spec,
        );
        base.insert(label, latency);
    }
    let comparison = compare_policies(&model, &streams, config, &base);
    Table3Result {
        comparison,
        base_times: base,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_core::policy::PolicyKind;

    #[test]
    fn column_sets_match_the_queries() {
        let fast = fast_columns();
        let slow = slow_columns();
        assert_eq!(fast.len(), 4);
        assert_eq!(slow.len(), 7);
        // Q6 and Q1 share several columns, which is what makes DSM sharing
        // possible at all.
        assert!(fast.intersect(slow).len() >= 3);
        assert_eq!(class_columns(&QueryClass::fast(10)), fast);
    }

    #[test]
    fn quick_scale_dsm_ordering() {
        let r = run(Scale::Quick, 11);
        let cmp = &r.comparison;
        let normal = cmp.row(PolicyKind::Normal);
        let relevance = cmp.row(PolicyKind::Relevance);
        let elevator = cmp.row(PolicyKind::Elevator);
        assert_eq!(r.model.groups().len(), usize::from(r.model.num_columns()));
        // The DSM headline: relevance clearly beats normal on both axes.
        assert!(relevance.avg_stream_time < normal.avg_stream_time);
        assert!(relevance.avg_normalized_latency < normal.avg_normalized_latency);
        assert!(relevance.io_requests < normal.io_requests);
        // Elevator still suffers on latency relative to relevance.
        assert!(relevance.avg_normalized_latency <= elevator.avg_normalized_latency * 1.05);
        for row in &cmp.rows {
            assert_eq!(row.result.queries.len(), cmp.rows[0].result.queries.len());
            assert!(row.result.pages_read > 0);
        }
    }
}
