//! Point-in-time metric snapshots and their render sink, Prometheus-style
//! text exposition.

use crate::hist::HistogramSnapshot;
use std::collections::BTreeMap;

/// One query's metrics as captured by [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct QuerySnapshot {
    /// The query's label (scan-plan label).
    pub label: String,
    /// The table the query scans.
    pub table: String,
    /// True if the query had detached by snapshot time.
    pub detached: bool,
    /// Per-query counter values, in [`QueryCounter::ALL`](crate::QueryCounter::ALL) order.
    pub counters: Vec<(&'static str, u64)>,
    /// Time to first delivered chunk, if one arrived.
    pub ttfc_ns: Option<u64>,
    /// This query's pin-wait episode distribution (nanoseconds).
    pub pin_wait: HistogramSnapshot,
}

impl QuerySnapshot {
    /// A named per-query counter value (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// A point-in-time copy of every metric in a
/// [`Registry`](crate::Registry): global counters, per-query mirrored
/// totals, gauges, span histograms, the merged time-to-first-chunk and
/// pin-wait distributions, and one [`QuerySnapshot`] per attached (or
/// not-yet-reset detached) query.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Global counters, in [`Counter::ALL`](crate::Counter::ALL) order.
    pub counters: Vec<(&'static str, u64)>,
    /// Registry-wide totals of the per-query counters.
    pub query_totals: Vec<(&'static str, u64)>,
    /// Gauges, in [`Gauge::ALL`](crate::Gauge::ALL) order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Span histograms (nanoseconds), in [`SpanKind::ALL`](crate::SpanKind::ALL) order.
    pub spans: Vec<(&'static str, HistogramSnapshot)>,
    /// Time-to-first-chunk distribution: one sample per query that received
    /// at least one chunk (nanoseconds since attach).
    pub ttfc: HistogramSnapshot,
    /// Merged pin-wait episode distribution across every query.
    pub pin_wait: HistogramSnapshot,
    /// Per-query snapshots.
    pub queries: Vec<QuerySnapshot>,
    /// Flight-recorder events overwritten because the ring was full.
    pub flight_dropped: u64,
}

impl MetricsSnapshot {
    /// A named global counter value (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name)
    }

    /// A named registry-wide per-query total (0 if unknown).
    pub fn query_total(&self, name: &str) -> u64 {
        lookup(&self.query_totals, name)
    }

    /// A named gauge value (0 if unknown).
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name)
    }

    /// A named span histogram (empty if unknown).
    pub fn span(&self, name: &str) -> HistogramSnapshot {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    }

    /// Sums a per-query counter across every [`QuerySnapshot`].
    pub fn query_counter_sum(&self, name: &str) -> u64 {
        self.queries.iter().map(|q| q.counter(name)).sum()
    }

    /// Per-table aggregation of a per-query counter, keyed by table label.
    /// Derived entirely at snapshot time — the table dimension costs the
    /// write path nothing.
    pub fn per_table(&self, name: &str) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for q in &self.queries {
            *out.entry(q.table.clone()).or_insert(0) += q.counter(name);
        }
        out
    }

    /// The registry's internal consistency invariant: for every per-query
    /// counter, the sum over [`MetricsSnapshot::queries`] equals the
    /// registry-wide mirrored total, and the file-I/O metrics agree with
    /// each other — every positioned segment read records exactly one
    /// `file_read` span, so the `file_read_calls` counter must equal the
    /// span histogram's sample count (a reader that bumped one but not the
    /// other would silently skew the Figure 9 I/O accounting).
    ///
    /// Note: a concurrent writer between the scope reads and the total
    /// reads can skew a *live* snapshot; call this on quiesced registries
    /// (as the tests do after joining their writers).
    pub fn is_consistent(&self) -> bool {
        let queries_agree = self
            .query_totals
            .iter()
            .all(|(name, total)| self.query_counter_sum(name) == *total);
        let file_reads_agree = self.counter("file_read_calls") == self.span("file_read").count();
        queries_agree && file_reads_agree
    }

    /// Renders the snapshot as a Prometheus text-exposition document.
    ///
    /// Naming scheme: every family is prefixed `cscan_`; counters keep
    /// their registry name, span histograms become
    /// `cscan_span_<kind>_ns` with the standard `_bucket{le=}` /
    /// `_sum` / `_count` triple, and per-query series carry
    /// `{query="...",table="..."}` labels.  Label values are escaped per
    /// the exposition format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        for (name, value) in &self.counters {
            let _ = writeln!(out, "# TYPE cscan_{name} counter");
            let _ = writeln!(out, "cscan_{name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "# TYPE cscan_{name} gauge");
            let _ = writeln!(out, "cscan_{name} {value}");
        }
        for (name, hist) in &self.spans {
            render_prom_histogram(&mut out, &format!("cscan_span_{name}_ns"), "", hist);
        }
        render_prom_histogram(&mut out, "cscan_time_to_first_chunk_ns", "", &self.ttfc);
        render_prom_histogram(&mut out, "cscan_pin_wait_ns", "", &self.pin_wait);
        for q in &self.queries {
            let labels = format!(
                "{{query=\"{}\",table=\"{}\"}}",
                escape_label(&q.label),
                escape_label(&q.table)
            );
            for (name, value) in &q.counters {
                let _ = writeln!(out, "cscan_query_{name}{labels} {value}");
            }
            if let Some(ttfc) = q.ttfc_ns {
                let _ = writeln!(out, "cscan_query_time_to_first_chunk_ns{labels} {ttfc}");
            }
        }
        out
    }
}

fn lookup(pairs: &[(&'static str, u64)], name: &str) -> u64 {
    pairs
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Renders one histogram as Prometheus `_bucket`/`_sum`/`_count` series,
/// skipping empty buckets (le labels are the log2 bucket upper bounds).
fn render_prom_histogram(out: &mut String, family: &str, labels: &str, hist: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# TYPE {family} histogram");
    let mut cumulative = 0u64;
    for (i, &count) in hist.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let upper = if i + 1 >= 64 {
            f64::INFINITY
        } else {
            (1u128 << (i + 1)) as f64
        };
        if upper.is_infinite() {
            let _ = writeln!(out, "{family}_bucket{{{labels}le=\"+Inf\"}} {cumulative}");
        } else {
            let _ = writeln!(
                out,
                "{family}_bucket{{{labels}le=\"{upper}\"}} {cumulative}"
            );
        }
    }
    let _ = writeln!(
        out,
        "{family}_bucket{{{labels}le=\"+Inf\"}} {}",
        hist.count()
    );
    let _ = writeln!(out, "{family}_sum{{{labels}}} {}", hist.sum());
    let _ = writeln!(out, "{family}_count{{{labels}}} {}", hist.count());
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use crate::{Counter, QueryCounter, Registry, SpanKind};
    use std::sync::Arc;

    fn sample_registry() -> Arc<Registry> {
        let r = Arc::new(Registry::new());
        r.add(Counter::LoadsCompleted, 12);
        r.add(Counter::LoadFaults, 2);
        r.record_span_ns(SpanKind::Plan, 900);
        r.record_span_ns(SpanKind::Plan, 1_800);
        let q = r.attach_query("scan-0", "lineitem");
        q.add(QueryCounter::ChunksDelivered, 4);
        q.record_pin_wait(5_000);
        q.record_first_chunk(42_000);
        r
    }

    #[test]
    fn prometheus_exposition_has_families_and_labels() {
        let text = sample_registry().snapshot().render_prometheus();
        assert!(text.contains("# TYPE cscan_loads_completed counter"));
        assert!(text.contains("cscan_loads_completed 12"));
        assert!(text.contains("# TYPE cscan_span_plan_ns histogram"));
        assert!(text.contains("cscan_span_plan_ns_count{} 2"));
        assert!(text.contains("cscan_time_to_first_chunk_ns_count{} 1"));
        assert!(
            text.contains("cscan_query_chunks_delivered{query=\"scan-0\",table=\"lineitem\"} 4")
        );
        assert!(text.contains(
            "cscan_query_time_to_first_chunk_ns{query=\"scan-0\",table=\"lineitem\"} 42000"
        ));
        // Cumulative bucket counts end with the +Inf bucket == count.
        assert!(text.contains("cscan_pin_wait_ns_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn per_table_aggregates() {
        let r = sample_registry();
        let q2 = r.attach_query("scan-1", "orders");
        q2.add(QueryCounter::ChunksDelivered, 6);
        let q3 = r.attach_query("scan-2", "lineitem");
        q3.add(QueryCounter::ChunksDelivered, 1);
        let snap = r.snapshot();
        let tables = snap.per_table("chunks_delivered");
        assert_eq!(tables.get("lineitem"), Some(&5));
        assert_eq!(tables.get("orders"), Some(&6));
        assert!(snap.is_consistent());
    }
}
