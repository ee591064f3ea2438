//! Processor-sharing CPU model.
//!
//! All queries that currently have data to process share the machine's CPU
//! cores equally (MonetDB/X100 runs one thread per query; the OS scheduler
//! approximates processor sharing at the granularity we care about).  With
//! `j` runnable jobs and `c` cores each job progresses at rate
//! `min(1, c / j)`.  This is what turns a query mix CPU-bound when many
//! SLOW queries overlap, and leaves the disk as the bottleneck when only
//! FAST queries run — the two regimes of Figures 6 and 7.

use cscan_simdisk::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a CPU job (one job = one query processing one chunk).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// Utilization statistics of the shared CPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuStats {
    /// Accumulated busy core-time (a 2-core machine running flat out for 1 s
    /// accumulates 2 s of busy core-time).
    pub busy_core_time: SimDuration,
    /// Total work completed, in CPU-time units.
    pub completed_work: SimDuration,
    /// Number of jobs completed.
    pub jobs_completed: u64,
}

impl CpuStats {
    /// Utilization over a wall-clock window of `elapsed`, for `cores` cores.
    pub fn utilization(&self, cores: usize, elapsed: SimDuration) -> f64 {
        let denom = cores as f64 * elapsed.as_secs_f64();
        if denom <= 0.0 {
            0.0
        } else {
            (self.busy_core_time.as_secs_f64() / denom).min(1.0)
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Job {
    /// Remaining service demand in microseconds of dedicated-core time.
    remaining: f64,
}

/// A processor-sharing CPU with a fixed number of cores.
#[derive(Debug, Clone)]
pub struct SharedCpu {
    cores: usize,
    jobs: HashMap<JobId, Job>,
    last_update: SimTime,
    stats: CpuStats,
}

impl SharedCpu {
    /// Creates a CPU with `cores` cores.
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a CPU needs at least one core");
        Self {
            cores,
            jobs: HashMap::new(),
            last_update: SimTime::ZERO,
            stats: CpuStats::default(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Statistics accumulated so far (advance the CPU to "now" first if you
    /// need them to be exact).
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Per-job progress rate with the current job count.
    fn rate(&self) -> f64 {
        if self.jobs.is_empty() {
            0.0
        } else {
            (self.cores as f64 / self.jobs.len() as f64).min(1.0)
        }
    }

    /// Advances the model to `now`, consuming work on all runnable jobs.
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "CPU advanced backwards");
        if now <= self.last_update {
            return;
        }
        let elapsed = now.duration_since(self.last_update);
        let rate = self.rate();
        if !self.jobs.is_empty() {
            let elapsed_us = elapsed.as_micros() as f64;
            let consumed_per_job = elapsed_us * rate;
            for job in self.jobs.values_mut() {
                job.remaining = (job.remaining - consumed_per_job).max(0.0);
            }
            let active = self.jobs.len().min(self.cores) as f64;
            self.stats.busy_core_time += SimDuration::from_micros((elapsed_us * active) as u64);
        }
        self.last_update = now;
    }

    /// Adds a job with `work` of dedicated-core service demand, starting at `now`.
    ///
    /// # Panics
    /// Panics if the job id is already present.
    pub fn add_job(&mut self, now: SimTime, id: JobId, work: SimDuration) {
        self.advance(now);
        let prev = self.jobs.insert(
            id,
            Job {
                remaining: work.as_micros() as f64,
            },
        );
        assert!(prev.is_none(), "job {id:?} added twice");
    }

    /// True if the job exists and has (almost) no work left.
    pub fn is_done(&self, id: JobId) -> bool {
        self.jobs.get(&id).is_some_and(|j| j.remaining < 0.5)
    }

    /// Marks a finished job as completed, removing it and updating statistics.
    ///
    /// # Panics
    /// Panics if the job does not exist.
    pub fn complete_job(&mut self, now: SimTime, id: JobId, original_work: SimDuration) {
        self.advance(now);
        let job = self
            .jobs
            .remove(&id)
            .unwrap_or_else(|| panic!("completing unknown job {id:?}"));
        debug_assert!(
            job.remaining < 1.0,
            "job {id:?} completed with {}us left",
            job.remaining
        );
        self.stats.completed_work += original_work;
        self.stats.jobs_completed += 1;
    }

    /// The time at which the next job will finish if the job set does not
    /// change, together with that job's id.  Deterministic: ties are broken
    /// by job id.
    pub fn next_completion(&self) -> Option<(SimTime, JobId)> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        self.jobs
            .iter()
            .map(|(&id, job)| {
                let micros = (job.remaining / rate).ceil() as u64;
                (self.last_update + SimDuration::from_micros(micros), id)
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut cpu = SharedCpu::new(2);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(4));
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!(id, JobId(1));
        assert_eq!(t, SimTime::from_secs(4));
        cpu.advance(t);
        assert!(cpu.is_done(JobId(1)));
        cpu.complete_job(t, JobId(1), sec(4));
        assert!(cpu.next_completion().is_none(), "no job is runnable");
        assert_eq!(cpu.stats().jobs_completed, 1);
    }

    #[test]
    fn jobs_share_a_single_core() {
        let mut cpu = SharedCpu::new(1);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(2));
        cpu.add_job(SimTime::ZERO, JobId(2), sec(2));
        // Two jobs on one core: each runs at half speed, both finish at t=4.
        let (t, _) = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime::from_secs(4));
    }

    #[test]
    fn more_cores_than_jobs_gives_full_rate() {
        let mut cpu = SharedCpu::new(8);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(3));
        cpu.add_job(SimTime::ZERO, JobId(2), sec(5));
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::from_secs(3), JobId(1)));
    }

    #[test]
    fn arrival_slows_down_existing_jobs() {
        let mut cpu = SharedCpu::new(1);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(4));
        // After 2 seconds, half the work is done; then a second job arrives.
        cpu.add_job(SimTime::from_secs(2), JobId(2), sec(2));
        // Remaining: job1 has 2s, job2 has 2s, both at half rate -> 4 more seconds.
        let (t, _) = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime::from_secs(6));
    }

    #[test]
    fn departure_speeds_up_remaining_jobs() {
        let mut cpu = SharedCpu::new(1);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(4));
        cpu.add_job(SimTime::ZERO, JobId(2), sec(2));
        // Both run at half speed, so job 2 finishes at t=4 with job 1 half
        // done; alone, job 1 runs its last 2s at full speed.
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::from_secs(4), JobId(2)));
        cpu.complete_job(t, id, sec(2));
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!((t, id), (SimTime::from_secs(6), JobId(1)));
    }

    #[test]
    fn utilization_accounts_for_idle_cores() {
        let mut cpu = SharedCpu::new(2);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(4));
        cpu.advance(SimTime::from_secs(4));
        cpu.complete_job(SimTime::from_secs(4), JobId(1), sec(4));
        let stats = cpu.stats();
        // One job on a two-core machine: 50% utilization.
        assert!((stats.utilization(2, sec(4)) - 0.5).abs() < 0.01);
        assert_eq!(stats.completed_work, sec(4));
    }

    #[test]
    fn next_completion_none_when_idle() {
        let cpu = SharedCpu::new(2);
        assert!(cpu.next_completion().is_none());
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_job_rejected() {
        let mut cpu = SharedCpu::new(1);
        cpu.add_job(SimTime::ZERO, JobId(1), sec(1));
        cpu.add_job(SimTime::ZERO, JobId(1), sec(1));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = SharedCpu::new(0);
    }
}
