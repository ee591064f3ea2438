//! Property-based tests for the simulated disk substrate.

use cscan_simdisk::{
    Disk, DiskModel, IoRequest, RaidArray, RaidConfig, SimDuration, SimTime, KIB, MIB,
};
use proptest::prelude::*;

proptest! {
    /// Completion time never precedes issue time, service time is positive
    /// for non-empty requests, and the arm completes requests in submission
    /// order.
    #[test]
    fn disk_completion_is_causal(
        offsets in prop::collection::vec(0u64..4_000_000_000u64, 1..40),
        lens in prop::collection::vec(1u64..64 * MIB, 1..40),
        gaps in prop::collection::vec(0u64..2_000_000u64, 1..40),
    ) {
        let mut disk = Disk::new(DiskModel::default());
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for i in 0..offsets.len().min(lens.len()).min(gaps.len()) {
            now += SimDuration::from_micros(gaps[i]);
            let req = IoRequest::chunk_read(offsets[i], lens[i]);
            let res = disk.submit(now, req);
            prop_assert!(res.completed_at >= now);
            prop_assert!(res.service_time > SimDuration::ZERO);
            prop_assert!(res.completed_at >= last, "FIFO: completions never reorder");
            last = res.completed_at;
        }
    }

    /// The device never reports more busy time than the span between the
    /// first issue and the last completion.
    #[test]
    fn busy_time_bounded_by_makespan(
        lens in prop::collection::vec(1u64..32 * MIB, 1..30),
    ) {
        let mut disk = Disk::new(DiskModel::default());
        let mut offset = 0u64;
        let mut last = SimTime::ZERO;
        for len in &lens {
            let res = disk.submit(SimTime::ZERO, IoRequest::chunk_read(offset, *len));
            offset += len;
            last = res.completed_at;
        }
        let busy = disk.stats().busy;
        prop_assert!(busy <= last.duration_since(SimTime::ZERO));
        prop_assert_eq!(disk.stats().requests, lens.len() as u64);
    }

    /// Splitting a request over a RAID array conserves bytes and never
    /// produces an empty or oversized part.
    #[test]
    fn raid_split_conserves_bytes(
        offset in 0u64..1_000_000_000u64,
        len in 1u64..64 * MIB,
        spindles in 1usize..8,
        unit_mb in 1u64..8,
    ) {
        let raid = RaidArray::new(RaidConfig {
            spindles,
            stripe_unit: unit_mb * MIB,
            disk: DiskModel::default(),
        });
        let req = IoRequest::chunk_read(offset, len);
        let parts = raid.split(&req);
        let total: u64 = parts.iter().map(|(_, r)| r.len).sum();
        prop_assert_eq!(total, len);
        prop_assert!(parts.iter().all(|(s, r)| *s < spindles && r.len > 0 && r.len <= unit_mb * MIB));
    }

    /// A striped array is never slower than a single spindle for the same
    /// model, and never faster than the ideal aggregate.
    #[test]
    fn raid_speedup_is_bounded(len_mb in 8u64..256u64, spindles in 1usize..6) {
        let model = DiskModel {
            bandwidth_bytes_per_sec: 50 * MIB,
            avg_seek: SimDuration::from_millis(6),
            sequential_overhead: SimDuration::from_micros(100),
        };
        let len = len_mb * MIB;
        let mut single = Disk::new(model);
        let single_time = single.submit(SimTime::ZERO, IoRequest::chunk_read(0, len)).service_time;
        let mut raid = RaidArray::new(RaidConfig { spindles, stripe_unit: MIB, disk: model });
        let raid_time = raid.submit(SimTime::ZERO, IoRequest::chunk_read(0, len)).service_time;
        // Striping splits the request into ~len_mb parts, each paying the
        // small sequential overhead, so allow for that on top of the
        // single-spindle time.
        let overhead_allowance = SimDuration::from_micros(100 * (len_mb + 1));
        prop_assert!(raid_time <= single_time + overhead_allowance);
        let ideal = single_time.as_secs_f64() / spindles as f64;
        // Allow generous slack for the positional cost that does not parallelize.
        prop_assert!(raid_time.as_secs_f64() >= ideal * 0.5);
    }

    /// The paper's aggregate device — one spindle, no striping — is exactly
    /// a bare disk of the same model: same completion times, seek flags,
    /// queue depths and statistics, request for request.  Each step reads
    /// 64 KiB pages either sequentially after the previous request, behind
    /// it (a backward seek) or ahead of it (a forward seek), issued at once
    /// (while the device is still busy) or after a gap that may outlast the
    /// backlog.
    #[test]
    fn one_unstriped_spindle_is_a_bare_disk(
        steps in prop::collection::vec((0u8..3, 1u64..512, 0u8..3, 0u64..400_000), 1..64),
    ) {
        let config = RaidConfig::paper_aggregate();
        let mut raid = RaidArray::new(config);
        let mut disk = Disk::new(config.disk);
        let mut now = SimTime::ZERO;
        let mut head = 0u64;
        // `amount` is both the seek distance in KiB and the issue gap in µs.
        for (i, &(direction, pages, wait, amount)) in steps.iter().enumerate() {
            let len = pages * 64 * KIB;
            let offset = match direction {
                0 => head,
                1 => head.saturating_sub(amount * KIB),
                _ => head + amount * KIB,
            };
            now += match wait {
                0 => SimDuration::ZERO,
                1 => SimDuration::from_micros(amount),
                _ => SimDuration::from_secs(1) + SimDuration::from_micros(amount),
            };
            let req = IoRequest::chunk_read(offset, len);
            let expected = disk.submit(now, req);
            let got = raid.submit(now, req);
            prop_assert_eq!(got.completed_at, expected.completed_at, "step {}", i);
            prop_assert_eq!(got.seeked, expected.seeked, "step {}", i);
            for at in [now, expected.completed_at] {
                prop_assert_eq!(raid.queue_depths_at(at), vec![disk.queue_depth_at(at)]);
            }
            prop_assert_eq!(raid.stats(), *disk.stats(), "step {}", i);
            head = req.end();
        }
    }
}
