//! The simulated storage device: a RAID-0 style array of [`Disk`] arms.
//!
//! The paper's storage facility was "a 4-way RAID system delivering slightly
//! over 200 MB/s".  The simulator models every device as a [`RaidArray`];
//! the paper's runs use [`RaidConfig::paper_aggregate`], that RAID as one
//! spindle with the aggregate bandwidth and no striping, under which the
//! array is exactly one [`Disk`].  A configuration with several spindles
//! splits each request across them, so that large chunk reads enjoy the
//! aggregate bandwidth while small reads are bound by a single arm — the
//! same asymmetry the paper's motivation section leans on (many disk arms
//! for random I/O).
//!
//! # Per-spindle submission queues
//!
//! [`RaidArray::submit`] routes each stripe-unit-sized part of a request to
//! its spindle's FIFO submission queue (see the queueing model in
//! [`crate::disk`]): a part issued while that arm is busy queues behind the
//! arm's earlier work and the logical request completes when the slowest
//! involved spindle finishes its share.  Requests whose stripe span covers
//! several spindles fan out and overlap; requests smaller than one stripe
//! unit stay bound to a single arm.  A caller that keeps only one logical
//! request outstanding therefore leaves arms idle whenever the request does
//! not cover every spindle — which is exactly why the `cscan_core::sim`
//! driver submits multiple chunk loads at once.  [`RaidArray::queue_depths_at`]
//! exposes the per-arm backlog so drivers can trace it over time.

use crate::clock::SimTime;
use crate::disk::{Disk, DiskModel, DiskStats, IoRequest, IoResult};
use serde::{Deserialize, Serialize};

/// Configuration of a striped array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RaidConfig {
    /// Number of spindles in the array.
    pub spindles: usize,
    /// Stripe unit in bytes: consecutive stripe units go to consecutive spindles.
    pub stripe_unit: u64,
    /// Per-spindle disk model.
    pub disk: DiskModel,
}

impl RaidConfig {
    /// The paper's 4-way RAID as one logical device: a single spindle with
    /// the aggregate bandwidth ([`DiskModel::paper_raid`]) and a stripe unit
    /// no request reaches, so every request goes to that spindle unsplit.
    pub fn paper_aggregate() -> Self {
        Self {
            spindles: 1,
            stripe_unit: u64::MAX,
            disk: DiskModel::paper_raid(),
        }
    }
}

/// A striped array of simulated disks.
#[derive(Debug, Clone)]
pub struct RaidArray {
    config: RaidConfig,
    disks: Vec<Disk>,
}

impl RaidArray {
    /// Creates an array from the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration has zero spindles or a zero stripe unit.
    pub fn new(config: RaidConfig) -> Self {
        assert!(
            config.spindles > 0,
            "a RAID array needs at least one spindle"
        );
        assert!(config.stripe_unit > 0, "stripe unit must be positive");
        let disks = (0..config.spindles)
            .map(|_| Disk::new(config.disk))
            .collect();
        Self { config, disks }
    }

    /// Number of spindles.
    pub fn spindles(&self) -> usize {
        self.disks.len()
    }

    /// Splits a logical request into per-spindle physical requests.
    ///
    /// Returns `(spindle index, physical request)` pairs.  The physical
    /// offset preserves ordering within a spindle so that logically
    /// sequential chunk reads remain physically sequential per spindle.
    pub fn split(&self, req: &IoRequest) -> Vec<(usize, IoRequest)> {
        let unit = self.config.stripe_unit;
        let n = self.config.spindles as u64;
        let mut out = Vec::new();
        let mut offset = req.offset;
        let end = req.end();
        while offset < end {
            let stripe_index = offset / unit;
            let spindle = (stripe_index % n) as usize;
            let stripe_end = (stripe_index + 1) * unit;
            let len = stripe_end.min(end) - offset;
            // Physical position on the spindle: which of "its" stripes this is.
            let physical_offset = (stripe_index / n) * unit + (offset % unit);
            out.push((spindle, IoRequest::chunk_read(physical_offset, len)));
            offset += len;
        }
        out
    }

    /// Outstanding requests per spindle at `now` (queued or in service).
    pub fn queue_depths_at(&self, now: SimTime) -> Vec<usize> {
        self.disks.iter().map(|d| d.queue_depth_at(now)).collect()
    }

    /// Submits a logical request at `issue_time`, routing each part to its
    /// spindle's submission queue; the request completes when the slowest
    /// involved spindle finishes its share.
    pub fn submit(&mut self, issue_time: SimTime, req: IoRequest) -> IoResult {
        let parts = self.split(&req);
        debug_assert!(!parts.is_empty() || req.len == 0);
        let mut completed_at = issue_time;
        let mut seeked = false;
        for (spindle, part) in parts {
            let res = self.disks[spindle].submit(issue_time, part);
            completed_at = completed_at.max(res.completed_at);
            seeked |= res.seeked;
        }
        IoResult {
            completed_at,
            service_time: completed_at - issue_time,
            seeked,
        }
    }

    /// Aggregated statistics across all spindles.  Counters and busy time
    /// are summed; `max_queue_depth` is the maximum over the spindles (the
    /// deepest backlog any single arm saw).
    pub fn stats(&self) -> DiskStats {
        let mut total = DiskStats::default();
        for d in &self.disks {
            let s = d.stats();
            total.requests += s.requests;
            total.seeks += s.seeks;
            total.bytes += s.bytes;
            total.busy += s.busy;
            total.max_queue_depth = total.max_queue_depth.max(s.max_queue_depth);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::{KIB, MIB};

    fn config() -> RaidConfig {
        RaidConfig {
            spindles: 4,
            stripe_unit: MIB,
            disk: DiskModel {
                bandwidth_bytes_per_sec: 50 * MIB,
                avg_seek: SimDuration::from_millis(8),
                sequential_overhead: SimDuration::ZERO,
            },
        }
    }

    #[test]
    fn split_covers_request_exactly() {
        let raid = RaidArray::new(config());
        let req = IoRequest::chunk_read(3 * MIB + 512 * KIB, 6 * MIB);
        let parts = raid.split(&req);
        let total: u64 = parts.iter().map(|(_, r)| r.len).sum();
        assert_eq!(total, req.len);
        // All spindle indices are in range.
        assert!(parts.iter().all(|(s, _)| *s < 4));
        // Parts are contiguous in logical space (lengths sum and none exceeds the stripe unit).
        assert!(parts.iter().all(|(_, r)| r.len <= MIB));
    }

    #[test]
    fn aligned_chunk_spreads_evenly() {
        let raid = RaidArray::new(config());
        let parts = raid.split(&IoRequest::chunk_read(0, 16 * MIB));
        let mut per_spindle = [0u64; 4];
        for (s, r) in parts {
            per_spindle[s] += r.len;
        }
        assert_eq!(per_spindle, [4 * MIB; 4]);
    }

    #[test]
    fn large_read_uses_aggregate_bandwidth() {
        let mut raid = RaidArray::new(config());
        // 200 MiB over 4 spindles at 50 MiB/s each => about 1 second.
        let res = raid.submit(SimTime::ZERO, IoRequest::chunk_read(0, 200 * MIB));
        let secs = res.service_time.as_secs_f64();
        assert!(secs > 0.9 && secs < 1.3, "expected ~1s, got {secs}");
    }

    #[test]
    fn small_read_is_bound_by_one_spindle() {
        let mut raid = RaidArray::new(config());
        // A 64 KiB page hits a single spindle; dominated by that spindle's seek.
        let res = raid.submit(
            SimTime::from_secs(1),
            IoRequest::chunk_read(10 * MIB + 5, 64 * KIB),
        );
        assert!(res.seeked);
        let ms = res.service_time.as_secs_f64() * 1e3;
        assert!((8.0..12.0).contains(&ms), "expected ~8-10ms, got {ms}ms");
        assert_eq!(raid.stats().requests, 1);
    }

    #[test]
    fn sequential_chunk_stream_remains_sequential_per_spindle() {
        let mut raid = RaidArray::new(config());
        raid.submit(SimTime::ZERO, IoRequest::chunk_read(0, 16 * MIB));
        let r2 = raid.submit(
            SimTime::from_secs(10),
            IoRequest::chunk_read(16 * MIB, 16 * MIB),
        );
        assert!(
            !r2.seeked,
            "continuing the stream should not seek on any spindle"
        );
        let stats = raid.stats();
        assert_eq!(stats.seeks, 0);
        assert_eq!(stats.bytes, 32 * MIB);
    }

    #[test]
    #[should_panic(expected = "at least one spindle")]
    fn zero_spindles_rejected() {
        let mut c = config();
        c.spindles = 0;
        let _ = RaidArray::new(c);
    }

    #[test]
    fn stats_aggregate_across_spindles() {
        let mut raid = RaidArray::new(config());
        // Two overlapping chunk-sized reads, each striped over all four arms,
        // plus one page read bound to a single arm — all issued at t=0 so the
        // per-spindle queues actually back up.  Four bare disks fed the same
        // parts are the per-arm reference.
        let mut arms: Vec<Disk> = (0..4).map(|_| Disk::new(config().disk)).collect();
        for req in [
            IoRequest::chunk_read(0, 8 * MIB),
            IoRequest::chunk_read(8 * MIB, 8 * MIB),
            IoRequest::chunk_read(MIB + 7, 64 * KIB),
        ] {
            for (spindle, part) in raid.split(&req) {
                arms[spindle].submit(SimTime::ZERO, part);
            }
            raid.submit(SimTime::ZERO, req);
        }
        let per: Vec<DiskStats> = arms.iter().map(|d| *d.stats()).collect();
        let total = raid.stats();
        assert_eq!(total.requests, per.iter().map(|s| s.requests).sum::<u64>());
        assert_eq!(total.bytes, per.iter().map(|s| s.bytes).sum::<u64>());
        assert_eq!(total.seeks, per.iter().map(|s| s.seeks).sum::<u64>());
        assert_eq!(
            total.busy,
            per.iter().fold(SimDuration::ZERO, |acc, s| acc + s.busy)
        );
        // Queue depth aggregates as a max, not a sum: each 8 MiB read puts
        // two 1 MiB parts on every arm (4 queued parts per arm), and the arm
        // that also got the page read had five requests queued.
        assert_eq!(
            total.max_queue_depth,
            per.iter().map(|s| s.max_queue_depth).max().unwrap()
        );
        assert_eq!(total.max_queue_depth, 5);
        let depths = raid.queue_depths_at(SimTime::ZERO);
        assert_eq!(depths.iter().max(), Some(&5));
        assert!(depths.iter().all(|&d| d >= 4));
        // Long after everything drained, the queues are empty again.
        assert_eq!(raid.queue_depths_at(SimTime::from_secs(100)), vec![0; 4]);
    }

    #[test]
    fn arm_bound_requests_overlap() {
        // Chunk-granularity striping: each 8 MiB request lands on one arm,
        // so four submitted together finish in about the time of one.
        let mut raid = RaidArray::new(RaidConfig {
            stripe_unit: 8 * MIB,
            ..config()
        });
        let done = (0..4u64)
            .map(|i| {
                let req = IoRequest::chunk_read(i * 8 * MIB, 8 * MIB);
                raid.submit(SimTime::ZERO, req).completed_at
            })
            .max()
            .unwrap();
        let secs = done.as_secs_f64();
        assert!(secs < 0.25, "expected ~0.16s, got {secs}s");
        assert_eq!(raid.queue_depths_at(SimTime::ZERO), vec![1; 4]);
    }
}
