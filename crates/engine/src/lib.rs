//! Discrete-event simulation substrate.
//!
//! The paper's experiments interleave three resources: a disk serving large
//! chunk-sized reads, a bounded CPU shared by all running queries, and the
//! scheduling logic deciding what to read next.  This crate supplies the
//! first two ingredients in reusable form:
//!
//! * [`events::EventQueue`] — a deterministic time-ordered event queue
//!   (ties broken by insertion order, so runs are exactly reproducible);
//! * [`cpu::SharedCpu`] — a processor-sharing CPU model with a configurable
//!   number of cores, used to capture the CPU-bound vs. I/O-bound regimes of
//!   the paper's FAST and SLOW queries;
//! * [`stats`] — the summary statistics (mean, standard deviation,
//!   normalized latency) reported in the paper's tables.
//!
//! The actual simulation *driver* lives in `cscan-core::sim`, because it is
//! inseparable from the Active Buffer Manager it exercises.

#![warn(missing_docs)]

pub mod cpu;
pub mod events;
pub mod stats;

pub use cpu::{CpuStats, JobId, SharedCpu};
pub use events::EventQueue;
pub use stats::Summary;

/// Unit tests of the simulation clock: the [`EventQueue`]'s `now`, the one
/// source of virtual time in a run, which only moves forward.
#[cfg(test)]
mod clock {
    mod tests {
        use crate::EventQueue;
        use cscan_simdisk::{SimDuration, SimTime};

        #[test]
        fn clock_advances_monotonically() {
            let mut q = EventQueue::new();
            assert_eq!(q.now(), SimTime::ZERO);
            q.schedule(SimTime::from_secs(1), ());
            q.pop();
            q.schedule(q.now() + SimDuration::from_secs(2), ());
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(3));
            // An event at the current time leaves the clock where it is.
            q.schedule(SimTime::from_secs(3), ());
            assert_eq!(q.pop(), Some((SimTime::from_secs(3), ())));
            assert_eq!(q.now(), SimTime::from_secs(3));
        }

        #[test]
        #[should_panic(expected = "event scheduled in the past")]
        #[cfg(debug_assertions)]
        fn clock_rejects_backwards_motion() {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_secs(5), ());
            q.pop();
            q.schedule(SimTime::from_secs(4), ());
        }
    }
}
