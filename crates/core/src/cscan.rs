//! The CScan operator's registration plan.
//!
//! A `CScan` differs from a traditional `Scan` in two ways (Section 4): it
//! announces *all* the data it will need up-front — a range or set of ranges
//! of a table plus the columns it touches — and it is willing to
//! accept chunks in whatever order the ABM finds convenient.  [`CScanPlan`]
//! is that announcement; the execution front-ends turn it into a registered
//! query.

use crate::colset::ColSet;
use crate::model::TableModel;
use cscan_storage::{ScanRanges, ZoneMap};
use serde::{Deserialize, Serialize};

/// The data need a CScan announces to the Active Buffer Manager.
///
/// This is the *single* query-description type of the system: both
/// execution front-ends (the threaded [`crate::threaded::ScanServer`] and
/// the deterministic sim), the workload generators (via
/// [`crate::sim::QuerySpec`], which wraps a plan plus a processing speed)
/// and the serving layer's wire protocol all exchange `CScanPlan`s.
/// Table-relative defaults — "the whole table", "every column" — are kept
/// symbolic (`None` ranges / empty columns) so a plan can be built, shipped
/// and stored without knowing the table geometry; [`CScanPlan::resolve`]
/// grounds it against a concrete [`TableModel`] at registration time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CScanPlan {
    /// Human-readable label used in reports (e.g. `"F-10"`).
    pub label: String,
    /// The chunk ranges to read; `None` means the full table (resolved
    /// against the model at registration).
    pub ranges: Option<ScanRanges>,
    /// The columns to read; the empty set means *all* columns (resolved at
    /// registration, where the set is widened to whole column groups).
    pub columns: ColSet,
    /// Stop after consuming this many chunks (a `LIMIT`-style early
    /// termination); `None` runs the scan to completion.  A limited session
    /// detaches mid-scan, which aborts loads in flight solely on its behalf
    /// and releases its frame pins.
    pub limit_chunks: Option<u32>,
}

impl CScanPlan {
    /// A scan over explicit ranges and columns.
    pub fn new(label: impl Into<String>, ranges: ScanRanges, columns: ColSet) -> Self {
        Self {
            label: label.into(),
            ranges: Some(ranges),
            columns,
            limit_chunks: None,
        }
    }

    /// Stops the scan after `chunks` delivered chunks (LIMIT-style early
    /// termination; the session detaches mid-scan).
    pub fn with_chunk_limit(mut self, chunks: u32) -> Self {
        self.limit_chunks = Some(chunks);
        self
    }

    /// Restricts the scan to a column set (column-store experiments and
    /// column projections over the wire).
    pub fn with_columns(mut self, columns: ColSet) -> Self {
        self.columns = columns;
        self
    }

    /// Renames the scan.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// A full-table scan over the given columns (empty = all).  The table
    /// extent stays symbolic until [`CScanPlan::resolve`], so the plan can
    /// be built without knowing the table geometry — e.g. client-side,
    /// before the catalog is consulted.
    pub fn full_table(label: impl Into<String>, columns: ColSet) -> Self {
        Self {
            label: label.into(),
            ranges: None,
            columns,
            limit_chunks: None,
        }
    }

    /// A scan derived from a range predicate through a zonemap: only the
    /// chunks whose min/max interval intersects `[lo, hi]` are requested.
    /// This is how the "multiple ranges" scan plans of Section 2 arise.
    pub fn from_zonemap(
        label: impl Into<String>,
        zonemap: &ZoneMap,
        lo: i64,
        hi: i64,
        columns: ColSet,
    ) -> Self {
        Self::new(label, zonemap.matching_ranges(lo, hi), columns)
    }

    /// Grounds the plan against a concrete table: `None` ranges become the
    /// full table, the empty column set becomes every column the model has.
    /// The scheduler core calls this at registration
    /// ([`crate::sched::Scheduler::register`]).
    pub fn resolve(&self, model: &TableModel) -> (ScanRanges, ColSet) {
        let ranges = self
            .ranges
            .clone()
            .unwrap_or_else(|| ScanRanges::full(model.num_chunks()));
        let columns = if self.columns.is_empty() {
            model.all_columns()
        } else {
            self.columns
        };
        (ranges, columns)
    }

    /// Number of chunks the plan requests of `model`.
    pub fn num_chunks(&self, model: &TableModel) -> u32 {
        match &self.ranges {
            Some(r) => r.num_chunks(),
            None => model.num_chunks(),
        }
    }

    /// True if the plan requests nothing (e.g. a predicate no chunk can
    /// match).  `None` ranges mean the full table, which is never empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.as_ref().is_some_and(|r| r.is_empty())
    }

    /// The fraction of the table this plan touches.
    pub fn selectivity(&self, model: &TableModel) -> f64 {
        self.num_chunks(model) as f64 / model.num_chunks() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_storage::zonemap::ZoneEntry;
    use cscan_storage::ColumnId;

    #[test]
    fn full_table_plan() {
        let model = TableModel::nsm_uniform(50, 100, 16);
        let plan = CScanPlan::full_table("full", ColSet::empty());
        assert_eq!(plan.num_chunks(&model), 50);
        assert!(!plan.is_empty());
        assert_eq!(plan.selectivity(&model), 1.0);
        assert_eq!(plan.label, "full");
        // Symbolic defaults ground against the model at resolve time.
        let (ranges, columns) = plan.resolve(&model);
        assert_eq!(ranges.num_chunks(), 50);
        assert_eq!(columns, model.all_columns());
        // Explicit ranges and columns pass through resolve untouched.
        let narrow = CScanPlan::new("narrow", ScanRanges::single(0, 10), ColSet::first_n(1));
        let (ranges, columns) = narrow.resolve(&model);
        assert_eq!(ranges.num_chunks(), 10);
        assert_eq!(columns, ColSet::first_n(1));
    }

    #[test]
    fn builder_methods_chain() {
        let plan = CScanPlan::full_table("a", ColSet::empty())
            .with_columns(ColSet::first_n(2))
            .with_label("b")
            .with_chunk_limit(3);
        assert_eq!(plan.label, "b");
        assert_eq!(plan.columns, ColSet::first_n(2));
        assert_eq!(plan.limit_chunks, Some(3));
    }

    #[test]
    fn zonemap_plan_skips_chunks() {
        let model = TableModel::nsm_uniform(4, 100, 16);
        let zm = ZoneMap::new(
            ColumnId::new(0),
            vec![
                ZoneEntry { min: 0, max: 9 },
                ZoneEntry { min: 10, max: 19 },
                ZoneEntry { min: 500, max: 600 },
                ZoneEntry { min: 20, max: 29 },
            ],
        );
        let plan = CScanPlan::from_zonemap("range", &zm, 12, 25, ColSet::first_n(1));
        assert_eq!(plan.num_chunks(&model), 2);
        assert_eq!(
            plan.ranges
                .as_ref()
                .expect("zonemap plans carry explicit ranges")
                .chunks()
                .iter()
                .map(|c| c.index())
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert!((plan.selectivity(&model) - 0.5).abs() < 1e-9);
        let nothing = CScanPlan::from_zonemap("none", &zm, 1000, 2000, ColSet::first_n(1));
        assert!(nothing.is_empty());
    }
}
