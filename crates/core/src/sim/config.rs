//! Simulation configuration.

use cscan_simdisk::{DiskModel, RaidConfig, SimDuration};
use serde::{Deserialize, Serialize};

/// How the buffer pool size is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BufferSpec {
    /// Absolute number of pages.
    Pages(u64),
    /// Absolute number of bytes (rounded down to whole pages).
    Bytes(u64),
    /// Multiples of the table's average chunk size (the paper quotes buffer
    /// sizes as "64 chunks (1GB)").
    Chunks(u64),
    /// A fraction of the full table size (the buffer-scaling experiment of
    /// Figure 6 uses 12.5% … 100%).
    FractionOfTable(f64),
}

/// Configuration of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of CPU cores shared by all running queries.
    pub cores: usize,
    /// Disk model servicing chunk loads (used when `raid` is `None`: the
    /// array is then modelled as one logical device with the aggregate
    /// bandwidth, as in the paper's original runs).
    pub disk: DiskModel,
    /// Explicit multi-spindle array.  When set, every load's regions are
    /// routed to per-spindle submission queues and `max_outstanding_io`
    /// decides how many loads can overlap across the arms.
    pub raid: Option<RaidConfig>,
    /// Outstanding chunk loads the simulation keeps in flight (K).  The
    /// default of 1 reproduces the paper's sequential main loop exactly.
    pub max_outstanding_io: usize,
    /// Buffer pool size.
    pub buffer: BufferSpec,
    /// Delay between the start of consecutive query streams (3 s in the paper).
    pub stream_stagger: SimDuration,
    /// Whether to record a chunk-access trace (Figure 4) and, for RAID
    /// configurations, the per-spindle queue-depth trace.  Traces cost
    /// memory proportional to the number of I/Os, so sweeps turn them off.
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            cores: 2,
            disk: DiskModel::paper_raid(),
            raid: None,
            max_outstanding_io: 1,
            buffer: BufferSpec::Chunks(64),
            stream_stagger: SimDuration::from_secs(3),
            record_trace: false,
        }
    }
}

impl SimConfig {
    /// Sets the buffer pool size to `chunks` average-sized chunks.
    pub fn with_buffer_chunks(mut self, chunks: u64) -> Self {
        self.buffer = BufferSpec::Chunks(chunks);
        self
    }

    /// Sets the buffer pool size in bytes.
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer = BufferSpec::Bytes(bytes);
        self
    }

    /// Sets the buffer pool size as a fraction of the table size.
    pub fn with_buffer_fraction(mut self, fraction: f64) -> Self {
        self.buffer = BufferSpec::FractionOfTable(fraction);
        self
    }

    /// Sets the number of CPU cores.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the disk model.
    pub fn with_disk(mut self, disk: DiskModel) -> Self {
        self.disk = disk;
        self
    }

    /// Models the storage as an explicit striped array with per-spindle
    /// submission queues instead of one aggregate logical device.
    pub fn with_raid(mut self, raid: RaidConfig) -> Self {
        self.raid = Some(raid);
        self
    }

    /// Sets the number of chunk loads the simulation keeps outstanding
    /// (clamped to at least 1).
    pub fn with_outstanding_io(mut self, k: usize) -> Self {
        self.max_outstanding_io = k.max(1);
        self
    }

    /// Sets the stream stagger delay.
    pub fn with_stagger(mut self, stagger: SimDuration) -> Self {
        self.stream_stagger = stagger;
        self
    }

    /// Enables or disables trace recording.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Resolves the buffer specification to a concrete page count for `model`.
    ///
    /// The result is always at least one average chunk's worth of pages so
    /// that a load can ever fit.
    pub fn buffer_pages(&self, model: &crate::model::TableModel) -> u64 {
        let avg_chunk_pages = model.avg_chunk_pages().ceil() as u64;
        let total_pages = model.total_pages(model.all_columns());
        let pages = match self.buffer {
            BufferSpec::Pages(p) => p,
            BufferSpec::Bytes(b) => b / model.page_size(),
            BufferSpec::Chunks(c) => c * avg_chunk_pages,
            BufferSpec::FractionOfTable(f) => (total_pages as f64 * f.clamp(0.0, 10.0)) as u64,
        };
        pages.max(avg_chunk_pages).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TableModel;

    #[test]
    fn buffer_resolution() {
        let model = TableModel::nsm_uniform(100, 1000, 256); // 25_600 pages total
        let cfg = SimConfig::default();
        assert_eq!(cfg.with_buffer_chunks(10).buffer_pages(&model), 2560);
        // 100 pages requested, clamped up to one 256-page chunk.
        assert_eq!(
            cfg.with_buffer_bytes(64 * 1024 * 100).buffer_pages(&model),
            256
        );
        assert_eq!(cfg.with_buffer_fraction(0.5).buffer_pages(&model), 12_800);
        // Pages spec passes through, but never below one chunk.
        let tiny = SimConfig {
            buffer: BufferSpec::Pages(3),
            ..SimConfig::default()
        };
        assert_eq!(tiny.buffer_pages(&model), 256);
    }

    #[test]
    fn builder_methods() {
        let cfg = SimConfig::default()
            .with_cores(4)
            .with_stagger(SimDuration::from_secs(1))
            .with_trace(true);
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.stream_stagger, SimDuration::from_secs(1));
        assert!(cfg.record_trace);
    }

    #[test]
    fn default_matches_paper_setup() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.cores, 2, "dual-CPU Opteron");
        assert_eq!(cfg.stream_stagger, SimDuration::from_secs(3));
        assert_eq!(cfg.buffer, BufferSpec::Chunks(64), "1 GB of 16 MB chunks");
        assert_eq!(cfg.max_outstanding_io, 1, "the paper's sequential loop");
        assert!(cfg.raid.is_none(), "one aggregate logical device");
    }

    #[test]
    fn raid_and_outstanding_builders() {
        let cfg = SimConfig::default()
            .with_raid(RaidConfig::default())
            .with_outstanding_io(8);
        assert_eq!(cfg.raid.unwrap().spindles, 4);
        assert_eq!(cfg.max_outstanding_io, 8);
        assert_eq!(
            SimConfig::default()
                .with_outstanding_io(0)
                .max_outstanding_io,
            1,
            "K is clamped to at least one"
        );
    }
}
