//! Benchmark-side spans: recorded around the calls into each layer, kept
//! in memory, written out when the run ends.
//!
//! Each query thread owns one [`ThreadTrace`]; a span's parent is whatever
//! span the same thread had open when it started, and every span of one
//! query carries that query's number.  With recording off (`--trace 0`,
//! and every other round of a traced run) [`ThreadTrace::span`] is one
//! branch.

use crate::spec::TRACE_FILE_SPAN_CAP;
use cscan_core::session::{PinnedChunk, ScanError, ScanSession};
use cscan_core::threaded::CScanHandle;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the run's epoch;
/// `parent` indexes the same thread's spans until [`merge`] renumbers.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub query: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder.
pub struct ThreadTrace {
    epoch: Instant,
    on: Cell<bool>,
    query: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

impl ThreadTrace {
    pub fn new(epoch: Instant) -> ThreadTrace {
        ThreadTrace {
            epoch,
            on: Cell::new(false),
            query: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off (between rounds, never inside a span).
    pub fn set_recording(&self, on: bool) {
        self.on.set(on);
    }

    /// The query number the following spans belong to.
    pub fn set_query(&self, query: u64) {
        self.query.set(query);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on.get() {
            return SpanGuard { trace: None };
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let index = spans.len() as u32;
        spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: open.last().copied(),
            query: self.query.get(),
        });
        open.push(index);
        SpanGuard { trace: Some(self) }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    trace: Option<&'a ThreadTrace>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(trace) = self.trace {
            let end = trace.epoch.elapsed().as_nanos() as u64;
            if let Some(index) = trace.open.borrow_mut().pop() {
                trace.spans.borrow_mut()[index as usize].end_ns = end;
            }
        }
    }
}

/// The `ScanSession` the in-process workloads hand to their consumer: the
/// executor's handle wrapped at the public trait boundary, so every
/// `next_chunk` is a `core.next_chunk` span and the moment the first chunk
/// reaches the consumer is known.
pub struct TracedSession<'a> {
    handle: CScanHandle,
    trace: &'a ThreadTrace,
    submitted: Instant,
    first_chunk_ns: &'a Cell<u64>,
}

impl<'a> TracedSession<'a> {
    /// `first_chunk_ns` receives submit → first chunk, once.
    pub fn new(
        handle: CScanHandle,
        trace: &'a ThreadTrace,
        submitted: Instant,
        first_chunk_ns: &'a Cell<u64>,
    ) -> Self {
        TracedSession {
            handle,
            trace,
            submitted,
            first_chunk_ns,
        }
    }
}

impl ScanSession for TracedSession<'_> {
    fn next_chunk(&mut self) -> Result<Option<PinnedChunk>, ScanError> {
        let pin = {
            let _span = self.trace.span("core.next_chunk");
            self.handle.next_chunk()?
        };
        if pin.is_some() && self.first_chunk_ns.get() == 0 {
            self.first_chunk_ns
                .set(self.submitted.elapsed().as_nanos().max(1) as u64);
        }
        Ok(pin)
    }

    fn remaining_chunks(&self) -> u32 {
        self.handle.remaining_chunks()
    }

    fn detach(&mut self) {
        let _span = self.trace.span("core.detach");
        self.handle.finish();
    }
}

/// Concatenates the threads' spans, renumbering parents to match.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        let offset = all.len() as u32;
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Per span: its duration minus the time its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Sum of the self times of the spans called `name`.
pub fn self_total(spans: &[Span], own: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &o)| o)
        .sum()
}

/// Writes `trace-<workload>.json`: a header and the spans, at most
/// [`TRACE_FILE_SPAN_CAP`] of them (`spans_recorded` says how many the
/// metrics were computed from).
pub fn write_json(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    let written = spans.len().min(TRACE_FILE_SPAN_CAP);
    let mut out = String::with_capacity(64 + written * 96);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"time_unit\": \"ns\", \
         \"spans_recorded\": {}, \"spans_written\": {written}, \"spans\": [",
        spans.len()
    );
    for (id, s) in spans[..written].iter().enumerate() {
        let sep = if id == 0 { "\n" } else { ",\n" };
        let parent = match s.parent {
            // A parent past the cap would dangle: such a span is a root in
            // the file.  (Parents precede children, so this is rare.)
            Some(p) if (p as usize) < written => p.to_string(),
            _ => "null".to_string(),
        };
        let _ = write!(
            out,
            "{sep}{{\"id\": {id}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
             \"parent\": {parent}, \"query\": {}}}",
            s.name, s.start_ns, s.end_ns, s.query
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_times() {
        let trace = ThreadTrace::new(Instant::now());
        {
            let _ignored = trace.span("off");
        }
        trace.set_recording(true);
        trace.set_query(9);
        {
            let _query = trace.span("query");
            {
                let _child = trace.span("core.attach");
            }
            let _second = trace.span("core.next_chunk");
        }
        let spans = merge(vec![trace.into_spans()]);
        assert_eq!(spans.len(), 3, "nothing is recorded while off");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.query == 9 && s.end_ns >= s.start_ns));
        let own = self_times(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(self_total(&spans, &own, "query"), own[0]);
    }

    #[test]
    fn merge_offsets_the_second_threads_parents() {
        let span = |parent| Span {
            name: "x",
            start_ns: 0,
            end_ns: 1,
            parent,
            query: 0,
        };
        let merged = merge(vec![
            vec![span(None), span(Some(0))],
            vec![span(None), span(Some(0))],
        ]);
        assert_eq!(merged[3].parent, Some(2));
    }
}
