//! I/O trace recording.
//!
//! Figure 4 of the paper plots, for each scheduling policy, which chunk was
//! read from disk at which point in time.  [`IoTrace`] records exactly that
//! (plus which query triggered the load) and can render the data as a
//! gnuplot-compatible two-column listing or as a coarse ASCII scatter plot
//! for terminal inspection.
//!
//! [`QueueDepthTrace`] complements it for the multi-outstanding I/O
//! scheduler: it samples how many requests each spindle of a
//! [`crate::RaidArray`] had queued over time, which shows directly whether a
//! given outstanding-load budget actually kept the arms busy.

use crate::clock::SimTime;
use serde::{Deserialize, Serialize};

/// One recorded chunk load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time at which the load completed.
    pub time: SimTime,
    /// Index of the chunk that was loaded.
    pub chunk: u32,
    /// Identifier of the query on whose behalf the chunk was loaded
    /// (`u64::MAX` if the load was not attributable to a single query).
    pub query: u64,
}

/// A time-ordered record of chunk loads.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct IoTrace {
    events: Vec<TraceEvent>,
}

impl IoTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a chunk load.
    pub fn record(&mut self, time: SimTime, chunk: u32, query: u64) {
        self.events.push(TraceEvent { time, chunk, query });
    }

    /// All recorded events in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The time of the last recorded event, if any.
    pub fn end_time(&self) -> Option<SimTime> {
        self.events.iter().map(|e| e.time).max()
    }

    /// The largest chunk index seen, if any.
    pub fn max_chunk(&self) -> Option<u32> {
        self.events.iter().map(|e| e.chunk).max()
    }

    /// Renders the trace as whitespace-separated `time_seconds chunk query` rows,
    /// one per line — the format used to regenerate Figure 4 with gnuplot.
    pub fn to_gnuplot(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 24);
        out.push_str("# time_s\tchunk\tquery\n");
        for e in &self.events {
            out.push_str(&format!(
                "{:.3}\t{}\t{}\n",
                e.time.as_secs_f64(),
                e.chunk,
                e.query
            ));
        }
        out
    }

    /// Renders a coarse ASCII scatter plot: x axis is time, y axis is chunk
    /// index (top = last chunk), `*` marks a load.  Intended for quick visual
    /// comparison of the access patterns of the four policies in a terminal.
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        if self.events.is_empty() || width == 0 || height == 0 {
            return String::from("(empty trace)\n");
        }
        let t_end = self.end_time().expect("non-empty").as_secs_f64().max(1e-9);
        let c_max = self.max_chunk().expect("non-empty") as f64 + 1.0;
        let mut grid = vec![vec![b' '; width]; height];
        for e in &self.events {
            let x = ((e.time.as_secs_f64() / t_end) * (width - 1) as f64).round() as usize;
            let y_from_bottom = ((e.chunk as f64 / c_max) * (height - 1) as f64).round() as usize;
            let y = height - 1 - y_from_bottom;
            grid[y][x] = b'*';
        }
        let mut out = String::with_capacity((width + 1) * height);
        for row in grid {
            out.push_str(std::str::from_utf8(&row).expect("ascii"));
            out.push('\n');
        }
        out
    }
}

/// One sampled per-spindle queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthEvent {
    /// Virtual time of the sample.
    pub time: SimTime,
    /// Spindle index within the array.
    pub spindle: u32,
    /// Requests outstanding on that spindle (queued or in service).
    pub depth: u32,
}

/// A time-ordered record of per-spindle submission-queue depths.
///
/// Drivers sample the depths whenever they submit work (the only points at
/// which a queue can deepen), so the recorded maxima are exact.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueueDepthTrace {
    events: Vec<DepthEvent>,
}

impl QueueDepthTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-spindle sample: `depths[i]` is spindle `i`'s depth.
    pub fn sample(&mut self, time: SimTime, depths: &[usize]) {
        for (spindle, &depth) in depths.iter().enumerate() {
            self.events.push(DepthEvent {
                time,
                spindle: spindle as u32,
                depth: depth as u32,
            });
        }
    }

    /// All recorded samples in insertion order.
    pub fn events(&self) -> &[DepthEvent] {
        &self.events
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// The deepest queue observed on any spindle (0 for an empty trace).
    pub fn max_depth(&self) -> u32 {
        self.events.iter().map(|e| e.depth).max().unwrap_or(0)
    }

    /// The sampled depths as a shared log2 histogram snapshot, for p50/p99
    /// queries and for merging into an engine-wide metrics report.
    pub fn depth_histogram(&self) -> cscan_obs::HistogramSnapshot {
        let h = cscan_obs::Log2Histogram::new();
        for e in &self.events {
            h.record(e.depth as u64);
        }
        h.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> IoTrace {
        let mut t = IoTrace::new();
        t.record(SimTime::from_secs(1), 0, 1);
        t.record(SimTime::from_secs(2), 5, 1);
        t.record(SimTime::from_secs(3), 9, 2);
        t
    }

    #[test]
    fn records_and_reports() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.end_time(), Some(SimTime::from_secs(3)));
        assert_eq!(t.max_chunk(), Some(9));
        assert_eq!(t.events()[1].chunk, 5);
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = IoTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.end_time(), None);
        assert_eq!(t.max_chunk(), None);
        assert_eq!(t.to_ascii(10, 5), "(empty trace)\n");
    }

    #[test]
    fn gnuplot_output_has_one_row_per_event() {
        let t = sample();
        let s = t.to_gnuplot();
        let rows: Vec<&str> = s.lines().collect();
        assert_eq!(rows.len(), 4); // header + 3 events
        assert!(rows[0].starts_with('#'));
        assert!(rows[1].starts_with("1.000"));
        assert!(rows[3].contains('9'));
    }

    #[test]
    fn ascii_plot_has_requested_dimensions() {
        let t = sample();
        let plot = t.to_ascii(40, 10);
        let lines: Vec<&str> = plot.lines().collect();
        assert_eq!(lines.len(), 10);
        assert!(lines.iter().all(|l| l.len() == 40));
        let stars: usize = plot.matches('*').count();
        assert!((1..=3).contains(&stars));
    }

    #[test]
    fn clear_resets() {
        let mut t = sample();
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn queue_depth_trace_aggregates() {
        let mut t = QueueDepthTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.max_depth(), 0);
        t.sample(SimTime::from_secs(1), &[2, 0, 1, 3]);
        t.sample(SimTime::from_secs(2), &[1, 4, 0, 0]);
        assert_eq!(t.len(), 8);
        assert_eq!(t.max_depth(), 4);
        let arm1 = t.events().iter().filter(|e| e.spindle == 1);
        assert_eq!(arm1.map(|e| e.depth).collect::<Vec<_>>(), vec![0, 4]);
        let h = t.depth_histogram();
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 11);
        assert!(h.max_value() >= 4);
        t.clear();
        assert!(t.is_empty());
    }
}
