//! Analytic single-spindle disk model.
//!
//! The model charges every request a positional cost (seek + rotational
//! latency) whenever the request does not continue sequentially from the
//! previous one, plus a transfer cost proportional to the request size.
//! This reproduces the property the paper relies on: with large (multi-MB)
//! chunk-sized requests the positional cost is well amortized, so a
//! quasi-random chunk-level access pattern still achieves close to
//! sequential bandwidth, while page-sized random I/O does not.
//!
//! # Queueing model
//!
//! Each [`Disk`] is a single arm with a FIFO submission queue: callers may
//! have **any number of requests outstanding**, and the device services them
//! strictly in submission order (a request issued while the arm is busy
//! starts when the arm frees up — [`Disk::free_at`]).  The simulation in
//! `cscan_core::sim` exploits exactly this: it keeps up to K chunk loads
//! in flight so that every arm of a [`crate::RaidArray`] has work queued.
//! [`Disk::queue_depth_at`] and [`DiskStats::max_queue_depth`] report how
//! deep the queue actually got.

use crate::clock::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Classification of an I/O request, used for statistics and tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoKind {
    /// A large chunk-granularity read issued by a scan.
    ChunkRead,
    /// A single-page read (e.g. unclustered access or the `normal` policy at page level).
    PageRead,
    /// A write (not exercised by the paper's experiments but supported for completeness).
    Write,
}

/// A single I/O request against the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoRequest {
    /// First byte offset of the request on the device.
    pub offset: u64,
    /// Number of bytes transferred.
    pub len: u64,
    /// Request classification.
    pub kind: IoKind,
}

impl IoRequest {
    /// Convenience constructor for a chunk-sized read.
    pub fn chunk_read(offset: u64, len: u64) -> Self {
        Self {
            offset,
            len,
            kind: IoKind::ChunkRead,
        }
    }

    /// Convenience constructor for a page-sized read.
    pub fn page_read(offset: u64, len: u64) -> Self {
        Self {
            offset,
            len,
            kind: IoKind::PageRead,
        }
    }

    /// The first byte past the end of this request.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Outcome of servicing a request: when it finished and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoResult {
    /// Time at which the device finished transferring the data.
    pub completed_at: SimTime,
    /// Total time the device spent on this request (queueing excluded).
    pub service_time: SimDuration,
    /// Whether a positional (seek) cost was charged.
    pub seeked: bool,
}

/// Parameters of the analytic disk model.
///
/// Defaults approximate a 2006-era enterprise SATA/SCSI spindle similar to
/// the members of the paper's 4-way RAID (per-spindle ~55 MB/s, ~6 ms
/// average positioning time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Sustained sequential bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Average positioning (seek + rotational) latency charged for non-sequential requests.
    pub avg_seek: SimDuration,
    /// Positional cost charged even for sequential continuation (track/cylinder switches,
    /// command overhead).  Usually small.
    pub sequential_overhead: SimDuration,
}

impl Default for DiskModel {
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_sec: 55 * crate::MIB,
            avg_seek: SimDuration::from_micros(6_000),
            sequential_overhead: SimDuration::from_micros(200),
        }
    }
}

impl DiskModel {
    /// A model of the paper's full 4-way RAID as a single logical device
    /// delivering "slightly over 200 MB/s" of sequential bandwidth.
    pub fn paper_raid() -> Self {
        Self {
            bandwidth_bytes_per_sec: 205 * crate::MIB,
            avg_seek: SimDuration::from_micros(6_000),
            sequential_overhead: SimDuration::from_micros(200),
        }
    }

    /// Pure transfer time for `len` bytes at the sequential bandwidth.
    pub fn transfer_time(&self, len: u64) -> SimDuration {
        debug_assert!(self.bandwidth_bytes_per_sec > 0);
        let micros = (len as u128 * 1_000_000u128) / self.bandwidth_bytes_per_sec as u128;
        SimDuration::from_micros(micros as u64)
    }

    /// Service time for a request, given whether it continues sequentially
    /// from the previous head position.
    pub fn service_time(&self, req: &IoRequest, sequential: bool) -> SimDuration {
        let positional = if sequential {
            self.sequential_overhead
        } else {
            self.avg_seek
        };
        positional + self.transfer_time(req.len)
    }
}

/// Aggregate statistics maintained by a [`Disk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskStats {
    /// Number of requests serviced.
    pub requests: u64,
    /// Number of requests that required a positional (seek) cost.
    pub seeks: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Total device busy time.
    pub busy: SimDuration,
    /// Number of chunk-granularity reads.
    pub chunk_reads: u64,
    /// Number of page-granularity reads.
    pub page_reads: u64,
    /// Deepest submission queue observed (requests outstanding on the device
    /// right after a submission, including the one being serviced).  When
    /// aggregated across an array this is the maximum over the spindles, not
    /// a sum — it answers "how deep did any one arm's queue get".
    pub max_queue_depth: u64,
}

impl DiskStats {
    /// Effective bandwidth achieved so far (bytes per second of busy time).
    pub fn effective_bandwidth(&self) -> f64 {
        let busy = self.busy.as_secs_f64();
        if busy <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / busy
        }
    }

    /// Fraction of requests that paid a seek.
    pub fn seek_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.seeks as f64 / self.requests as f64
        }
    }
}

/// A single simulated disk device.
///
/// The arm services one request at a time but accepts **multiple outstanding
/// requests**: submissions made while the device is busy queue up (FIFO) and
/// start when the arm frees up.  The `cscan_core::sim` driver relies on
/// this to keep several chunk loads in flight per spindle; drivers that
/// want the old single-outstanding behaviour simply wait for each completion
/// before submitting the next request.  The device is *not* tied to a global
/// clock: the caller passes the time at which the request is issued and
/// receives the completion time, which keeps the model usable from both the
/// discrete-event engine and the threaded executor.
#[derive(Debug, Clone)]
pub struct Disk {
    model: DiskModel,
    head_pos: u64,
    free_at: SimTime,
    stats: DiskStats,
    /// Completion times of submitted-but-unfinished requests, oldest first
    /// (monotonically increasing thanks to FIFO service).  Only used for
    /// queue-depth reporting; correctness needs nothing but `free_at`.
    pending: VecDeque<SimTime>,
}

impl Disk {
    /// Creates a disk with the given model, head parked at offset zero.
    pub fn new(model: DiskModel) -> Self {
        Self {
            model,
            head_pos: 0,
            free_at: SimTime::ZERO,
            stats: DiskStats::default(),
            pending: VecDeque::new(),
        }
    }

    /// The model parameters of this disk.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// The time at which the device becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Current head byte position (end of the last serviced request).
    pub fn head_pos(&self) -> u64 {
        self.head_pos
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Resets statistics (head position and availability are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// Whether `req` would continue sequentially from the current head position.
    pub fn is_sequential(&self, req: &IoRequest) -> bool {
        req.offset == self.head_pos
    }

    /// Number of requests outstanding (queued or in service) at `now`.
    pub fn queue_depth_at(&self, now: SimTime) -> usize {
        self.pending.iter().filter(|&&done| done > now).count()
    }

    /// Services `req`, issued at `issue_time`.
    ///
    /// If the device is still busy with previously submitted requests the new
    /// request queues behind them (FIFO) and starts when the device becomes
    /// free.  Returns the completion time and the pure service time.
    pub fn submit(&mut self, issue_time: SimTime, req: IoRequest) -> IoResult {
        let start = issue_time.max(self.free_at);
        let sequential = self.is_sequential(&req);
        let service = self.model.service_time(&req, sequential);
        let completed_at = start + service;

        self.head_pos = req.end();
        self.free_at = completed_at;
        // Queue-depth accounting: drop requests already finished by the time
        // this one was issued, then count the new one.
        while self.pending.front().is_some_and(|&done| done <= issue_time) {
            self.pending.pop_front();
        }
        self.pending.push_back(completed_at);
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.pending.len() as u64);
        self.stats.requests += 1;
        self.stats.bytes += req.len;
        self.stats.busy += service;
        if !sequential {
            self.stats.seeks += 1;
        }
        match req.kind {
            IoKind::ChunkRead => self.stats.chunk_reads += 1,
            IoKind::PageRead => self.stats.page_reads += 1,
            IoKind::Write => {}
        }

        IoResult {
            completed_at,
            service_time: service,
            seeked: !sequential,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MIB;

    fn model_100mbps() -> DiskModel {
        DiskModel {
            bandwidth_bytes_per_sec: 100 * MIB,
            avg_seek: SimDuration::from_millis(10),
            sequential_overhead: SimDuration::ZERO,
        }
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let m = model_100mbps();
        assert_eq!(m.transfer_time(100 * MIB), SimDuration::from_secs(1));
        assert_eq!(m.transfer_time(50 * MIB), SimDuration::from_millis(500));
        assert_eq!(m.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn head_position_tracking() {
        let mut d = Disk::new(model_100mbps());
        // Head starts at 0, so a read at offset 0 is sequential.
        let r1 = d.submit(SimTime::ZERO, IoRequest::chunk_read(0, 10 * MIB));
        assert!(!r1.seeked);
        // Continues at 10 MiB: sequential.
        let r2 = d.submit(r1.completed_at, IoRequest::chunk_read(10 * MIB, 10 * MIB));
        assert!(!r2.seeked);
        // Jump backwards: seek.
        let r3 = d.submit(r2.completed_at, IoRequest::chunk_read(0, 10 * MIB));
        assert!(r3.seeked);
        assert_eq!(d.stats().requests, 3);
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.stats().bytes, 30 * MIB);
    }

    #[test]
    fn busy_device_delays_later_requests() {
        let mut d = Disk::new(model_100mbps());
        let r1 = d.submit(SimTime::ZERO, IoRequest::chunk_read(0, 100 * MIB));
        assert_eq!(r1.completed_at, SimTime::from_secs(1));
        // Issued while busy: starts only at 1s.
        let r2 = d.submit(
            SimTime::from_millis(100),
            IoRequest::chunk_read(100 * MIB, 100 * MIB),
        );
        assert_eq!(r2.completed_at, SimTime::from_secs(2));
        // Issued long after the device went idle: starts immediately.
        let r3 = d.submit(
            SimTime::from_secs(10),
            IoRequest::chunk_read(200 * MIB, 100 * MIB),
        );
        assert_eq!(r3.completed_at, SimTime::from_secs(11));
    }

    #[test]
    fn chunk_sized_io_amortizes_seeks() {
        // The core premise of the paper's chunk-based I/O: random chunk reads
        // retain most of the sequential bandwidth, random page reads do not.
        let m = DiskModel::default();
        let chunk = 16 * MIB;
        let page = 64 * crate::KIB;
        let chunk_random = m.service_time(&IoRequest::chunk_read(1, chunk), false);
        let chunk_seq = m.service_time(&IoRequest::chunk_read(0, chunk), true);
        let page_random = m.service_time(&IoRequest::page_read(1, page), false);
        let page_seq = m.service_time(&IoRequest::page_read(0, page), true);
        let chunk_penalty = chunk_random.as_secs_f64() / chunk_seq.as_secs_f64();
        let page_penalty = page_random.as_secs_f64() / page_seq.as_secs_f64();
        assert!(
            chunk_penalty < 1.05,
            "chunk random I/O should be within 5% of sequential, got {chunk_penalty}"
        );
        assert!(
            page_penalty > 3.0,
            "page random I/O should be dominated by seeks, got {page_penalty}"
        );
    }

    #[test]
    fn stats_report_effective_bandwidth() {
        let mut d = Disk::new(model_100mbps());
        d.submit(SimTime::ZERO, IoRequest::chunk_read(0, 200 * MIB));
        let bw = d.stats().effective_bandwidth();
        assert!((bw - (100.0 * MIB as f64)).abs() / (100.0 * MIB as f64) < 0.01);
        assert_eq!(d.stats().seek_fraction(), 0.0);
        d.reset_stats();
        assert_eq!(d.stats().requests, 0);
    }

    #[test]
    fn queue_depth_tracks_outstanding_requests() {
        let mut d = Disk::new(model_100mbps());
        // Three 100 MiB reads issued back-to-back at t=0: they queue.
        for i in 0..3u64 {
            d.submit(
                SimTime::ZERO,
                IoRequest::chunk_read(i * 100 * MIB, 100 * MIB),
            );
        }
        assert_eq!(d.queue_depth_at(SimTime::ZERO), 3);
        // After the first completes (t=1s) two are left; after all, zero.
        assert_eq!(d.queue_depth_at(SimTime::from_millis(1500)), 2);
        assert_eq!(d.queue_depth_at(SimTime::from_secs(10)), 0);
        assert_eq!(d.stats().max_queue_depth, 3);
        // A request issued after the queue drained does not deepen the max.
        d.submit(SimTime::from_secs(10), IoRequest::chunk_read(0, MIB));
        assert_eq!(d.stats().max_queue_depth, 3);
        assert_eq!(d.queue_depth_at(SimTime::from_secs(10)), 1);
    }

    #[test]
    fn io_kind_counters() {
        let mut d = Disk::new(model_100mbps());
        d.submit(SimTime::ZERO, IoRequest::chunk_read(0, MIB));
        d.submit(
            SimTime::ZERO,
            IoRequest::page_read(5 * MIB, 64 * crate::KIB),
        );
        d.submit(
            SimTime::ZERO,
            IoRequest {
                offset: 0,
                len: MIB,
                kind: IoKind::Write,
            },
        );
        assert_eq!(d.stats().chunk_reads, 1);
        assert_eq!(d.stats().page_reads, 1);
        assert_eq!(d.stats().requests, 3);
    }
}
