//! The simulation's storage: where an admitted load's regions go.
//!
//! The paper's RAID is modelled either as a single logical device with the
//! aggregate bandwidth (the original runs) or as an explicit [`RaidArray`]:
//! each admitted load's physical regions are routed to the spindles'
//! per-arm FIFO submission queues, so several outstanding loads genuinely
//! overlap — striped chunks fan out across arms while reads smaller than a
//! stripe unit stay bound to one arm.  Per-spindle queue depths are sampled
//! into a [`QueueDepthTrace`].

use cscan_simdisk::{
    Disk, DiskModel, DiskStats, QueueDepthTrace, RaidArray, RaidConfig, SimDuration, SimTime,
};
use cscan_storage::PhysRegion;

/// A simulated storage device the simulation submits loads to: either the
/// single logical disk of the original runs or an explicit striped array
/// with per-spindle submission queues.
#[derive(Debug, Clone)]
pub enum SimIoBackend {
    /// One logical device with the aggregate bandwidth.
    Single(Disk),
    /// An explicit striped multi-spindle array.
    Raid(RaidArray),
}

impl SimIoBackend {
    /// Builds the backend: an explicit array when `raid` is given, otherwise
    /// a single logical device with `disk`'s parameters.
    pub fn new(disk: DiskModel, raid: Option<RaidConfig>) -> Self {
        match raid {
            Some(config) => SimIoBackend::Raid(RaidArray::new(config)),
            None => SimIoBackend::Single(Disk::new(disk)),
        }
    }

    /// Number of independent arms (1 for the single device).
    pub fn spindles(&self) -> usize {
        match self {
            SimIoBackend::Single(_) => 1,
            SimIoBackend::Raid(raid) => raid.spindles(),
        }
    }

    /// Submits every region of one chunk load at `now`; the load completes
    /// when its slowest region finishes.  Regions queue FIFO on their
    /// device/arm, so a load submitted behind outstanding work starts when
    /// the arms free up.
    pub fn submit(&mut self, now: SimTime, regions: &[PhysRegion]) -> SimTime {
        let mut completed = now;
        for region in regions {
            let result = match self {
                SimIoBackend::Single(disk) => disk.submit(now, region.to_io_request()),
                SimIoBackend::Raid(raid) => raid.submit(now, region.to_io_request()),
            };
            completed = completed.max(result.completed_at);
        }
        completed
    }

    /// Samples the per-arm queue depths at `now` into `trace`.
    pub fn sample_depths(&self, now: SimTime, trace: &mut QueueDepthTrace) {
        match self {
            SimIoBackend::Single(disk) => trace.sample(now, &[disk.queue_depth_at(now)]),
            SimIoBackend::Raid(raid) => trace.sample(now, &raid.queue_depths_at(now)),
        }
    }

    /// Aggregate device statistics (summed over arms; queue depth is the
    /// per-arm maximum).
    pub fn stats(&self) -> DiskStats {
        match self {
            SimIoBackend::Single(disk) => *disk.stats(),
            SimIoBackend::Raid(raid) => raid.stats(),
        }
    }

    /// Per-arm statistics (one entry for the single device).
    pub fn per_spindle_stats(&self) -> Vec<DiskStats> {
        match self {
            SimIoBackend::Single(disk) => vec![*disk.stats()],
            SimIoBackend::Raid(raid) => raid.per_spindle_stats(),
        }
    }

    /// Total busy time summed over the arms.
    pub fn busy_time(&self) -> SimDuration {
        self.stats().busy
    }

    /// Fraction of `makespan` the storage was busy, normalized by the number
    /// of arms so a fully pipelined array reads as 1.0.
    pub fn utilization(&self, makespan: SimDuration) -> f64 {
        let total = makespan.as_secs_f64() * self.spindles() as f64;
        if total <= 0.0 {
            0.0
        } else {
            (self.busy_time().as_secs_f64() / total).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscan_simdisk::MIB;
    use cscan_storage::PhysRegion;

    fn region(offset: u64, len: u64) -> PhysRegion {
        PhysRegion { offset, len }
    }

    #[test]
    fn single_backend_matches_a_plain_disk() {
        let model = DiskModel::default();
        let mut backend = SimIoBackend::new(model, None);
        assert_eq!(backend.spindles(), 1);
        let done = backend.submit(SimTime::ZERO, &[region(0, 16 * MIB)]);
        let mut reference = Disk::new(model);
        let expected = reference
            .submit(
                SimTime::ZERO,
                cscan_simdisk::IoRequest::chunk_read(0, 16 * MIB),
            )
            .completed_at;
        assert_eq!(done, expected);
        assert_eq!(backend.stats().requests, 1);
    }

    #[test]
    fn raid_backend_overlaps_outstanding_loads() {
        // Chunk-granularity striping: each 8 MiB load lands on one arm, so
        // four loads submitted together finish in about the time of one.
        let config = RaidConfig {
            spindles: 4,
            stripe_unit: 8 * MIB,
            disk: DiskModel {
                bandwidth_bytes_per_sec: 50 * MIB,
                avg_seek: SimDuration::from_millis(5),
                sequential_overhead: SimDuration::ZERO,
            },
        };
        let mut backend = SimIoBackend::new(DiskModel::default(), Some(config));
        assert_eq!(backend.spindles(), 4);
        let mut done = SimTime::ZERO;
        for i in 0..4u64 {
            done = done.max(backend.submit(SimTime::ZERO, &[region(i * 8 * MIB, 8 * MIB)]));
        }
        let secs = done.as_secs_f64();
        assert!(
            secs < 0.25,
            "four arm-bound loads should overlap (~0.165s each), got {secs}s"
        );
        let mut depths = QueueDepthTrace::new();
        backend.sample_depths(SimTime::ZERO, &mut depths);
        assert_eq!(depths.events().len(), 4);
        assert_eq!(depths.max_depth(), 1, "one load per arm");
        assert_eq!(backend.stats().requests, 4);
        assert_eq!(backend.per_spindle_stats().len(), 4);
        // Utilization normalizes by the arm count.
        let util = backend.utilization(done.duration_since(SimTime::ZERO));
        assert!(util > 0.9, "all arms busy the whole time, got {util}");
    }
}
