//! Asynchronous I/O scheduling: multiple outstanding chunk loads.
//!
//! The paper's main loop (Figure 3) keeps **one** load outstanding: plan,
//! read, signal, repeat.  That is faithful to its single-logical-device
//! storage model, but it starves a multi-spindle array — a chunk whose
//! stripes live on one arm leaves every other arm idle while the ABM waits.
//! This module is the layer between the scheduling policies and the disk
//! that removes that bottleneck:
//!
//! * [`IoScheduler`] keeps up to `K` chunk loads in flight.  Whenever the
//!   pipeline has room (a load completed, a query registered or detached, a
//!   chunk was consumed) it asks the ABM for a *burst* of new decisions via
//!   [`crate::Abm::plan_loads`], which admits each decision — reserving its
//!   buffer pages and evicting its victims — before planning the next, so
//!   the whole burst's evictions are secured up front and an in-flight burst
//!   can never deadlock or over-commit the pool (see
//!   [`crate::AbmState::free_pages`]).
//! * The decisions come relevance-ordered from the policy's incremental
//!   index ([`crate::policy::Policy::next_load_pipelined`]).  There is
//!   deliberately **no materialized pending queue** below the policy: every
//!   burst is planned against the live [`crate::AbmState`], so the "pending
//!   queue" is re-planned by construction whenever queries register or
//!   detach — the bucket bitsets and candidate heaps of PR 1 *are* that
//!   queue, kept current by the change log instead of being invalidated
//!   wholesale.
//! * [`SimIoBackend`] routes each admitted load to the simulated storage:
//!   on a [`cscan_simdisk::RaidArray`] the per-stripe parts fan out to the
//!   spindles' FIFO submission queues (large striped chunks use every arm,
//!   small reads stay arm-bound), and per-spindle queue depths are sampled
//!   into a [`cscan_simdisk::QueueDepthTrace`].
//! * Loads complete in whatever order the spindles finish;
//!   [`IoScheduler::commit`] retires them by `(chunk, ticket)` through the
//!   plan/commit revalidation of [`crate::Abm::commit_load`] — stale
//!   completions of aborted loads are dropped, not installed — and hands
//!   back the blocked queries to wake.  Loads whose last interested query
//!   detaches mid-read are cancelled ([`IoScheduler::cancel`], or lazily by
//!   the reconcile pass at the top of [`IoScheduler::plan`]).
//!
//! With `K = 1` the scheduler degenerates *bit-identically* to the
//! sequential main loop: slot 0 of `next_load_pipelined` is required to take
//! exactly the [`crate::policy::Policy::next_load`] decision, and the
//! property tests in this module assert decision-for-decision equality
//! against a [`crate::Abm::plan_load`]-driven twin.
//!
//! # Complexity
//!
//! Planning a burst of `B` loads costs `B` policy decisions (each O(active
//! queries) trigger selection plus the O(words)-ish chunk argmax of PR 1)
//! plus the evictions the burst needs — the same per-decision cost as the
//! sequential path; nothing is quadratic in `K`.  Completion is O(inflight)
//! to unkey the load plus the ABM's usual O(interested queries) residency
//! update.  The threaded executor reaches the same state through an I/O
//! *thread pool* (`io_threads(k)`), each worker holding at most one
//! outstanding load of the shared ABM.

mod backend;
#[cfg(test)]
mod proptests;

pub use backend::SimIoBackend;

use crate::abm::{Abm, CommitOutcome, LoadDecision, LoadPlan};
use crate::query::QueryId;
use cscan_obs::{Counter, Registry};
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, StoreError};
use std::sync::Arc;
use std::time::Duration;

/// Bounded-retry policy for failed chunk reads.
///
/// Retryable [`StoreError`]s (transient, timeout, corrupted) are retried up
/// to `max_attempts` times with exponential backoff; a permanent error — or
/// exhausting the attempt budget — quarantines the chunk.  The backoff is a
/// wall-clock [`Duration`] the threaded executor's I/O worker sleeps with no
/// lock held; that worker is the only caller (the simulation injects no
/// faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total read attempts allowed per load (including the first).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(5),
        }
    }
}

/// What the retry policy decided about a failed read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Read the chunk again after sleeping `delay`.
    Retry {
        /// Backoff to wait before the retry.
        delay: Duration,
    },
    /// Give up on the chunk: quarantine it and err its interested queries.
    Quarantine,
}

impl RetryPolicy {
    /// A policy that never retries (every failure quarantines).
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The exponential backoff after `failed_attempts` failures (≥ 1).
    pub fn backoff(&self, failed_attempts: u32) -> Duration {
        let factor = 1u32 << failed_attempts.saturating_sub(1).min(16);
        (self.backoff_base * factor).min(self.backoff_cap)
    }

    /// Decides what to do after a read of a chunk failed with `error` for
    /// the `failed_attempts`-th time (1-based).
    pub fn on_failure(&self, error: StoreError, failed_attempts: u32) -> FailureAction {
        if !error.is_retryable() || failed_attempts >= self.max_attempts {
            FailureAction::Quarantine
        } else {
            FailureAction::Retry {
                delay: self.backoff(failed_attempts),
            }
        }
    }
}

/// Aggregate counters of one scheduler's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSchedStats {
    /// Chunk loads admitted (submitted to the backend).
    pub loads_issued: u64,
    /// Chunk loads completed.
    pub loads_completed: u64,
    /// Chunk loads cancelled before their device I/O finished (their last
    /// interested query detached mid-read).
    pub loads_cancelled: u64,
    /// Most loads ever simultaneously in flight.
    pub peak_outstanding: usize,
    /// Planning bursts that admitted at least one load.
    pub bursts: u64,
    /// Chunks evicted while admitting loads.
    pub evictions: u64,
}

/// One load the scheduler has submitted to the device: the decision plus
/// the plan/commit stamp it must be retired with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outstanding {
    decision: LoadDecision,
    ticket: u64,
    epoch: u64,
}

/// Keeps up to `max_outstanding` chunk loads in flight against one [`Abm`].
///
/// The scheduler owns no I/O itself: the driver submits each admitted
/// [`LoadPlan`] to its device (e.g. a [`SimIoBackend`]) and calls
/// [`IoScheduler::commit`] when the device finishes a chunk, in whatever
/// order completions arrive.
#[derive(Debug)]
pub struct IoScheduler {
    max_outstanding: usize,
    /// Loads currently on the device, in begin order (each is keyed by its
    /// decision's `chunk` field; loads are unique per chunk).
    outstanding: Vec<Outstanding>,
    stats: IoSchedStats,
    /// Observability mirror of [`IoSchedStats`]; disabled (a no-op) unless
    /// [`IoScheduler::set_observability`] installed a live registry.
    obs: Arc<Registry>,
}

impl IoScheduler {
    /// Creates a scheduler allowing `max_outstanding` loads in flight
    /// (clamped to at least one).
    pub fn new(max_outstanding: usize) -> Self {
        Self {
            max_outstanding: max_outstanding.max(1),
            outstanding: Vec::new(),
            stats: IoSchedStats::default(),
            obs: Arc::new(Registry::disabled()),
        }
    }

    /// Mirrors every stats increment into `obs` (`io_loads_issued`,
    /// `io_bursts`, `loads_completed`, `loads_cancelled`, `frame_evictions`)
    /// so scheduler activity lands in the same snapshot as the rest of the
    /// engine.
    pub fn set_observability(&mut self, obs: Arc<Registry>) {
        self.obs = obs;
    }

    /// The outstanding-load budget.
    pub fn max_outstanding(&self) -> usize {
        self.max_outstanding
    }

    /// Loads currently in flight.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &IoSchedStats {
        &self.stats
    }

    /// Fills the pipeline: plans new loads until `max_outstanding` are in
    /// flight (or the ABM has nothing admissible), appending the admitted
    /// plans to `out` for the driver to submit.  Victims for the whole burst
    /// are evicted during planning, before any of its I/O completes.
    pub fn plan(&mut self, abm: &mut Abm, now: SimTime, out: &mut Vec<LoadPlan>) {
        // Reconcile: drop loads the ABM aborted since the last plan (a
        // detach cancelled them mid-read; see [`Abm::finish_query`]).  Their
        // device completions, if still pending, are rejected by
        // [`IoScheduler::commit`]'s ticket lookup.
        let before = self.outstanding.len();
        self.outstanding
            .retain(|o| abm.state().inflight_ticket(o.decision.chunk) == Some(o.ticket));
        let reconciled = (before - self.outstanding.len()) as u64;
        self.stats.loads_cancelled += reconciled;
        self.obs.add(Counter::LoadsCancelled, reconciled);
        debug_assert_eq!(
            abm.state().num_inflight(),
            self.outstanding.len(),
            "scheduler and ABM disagree on the in-flight set"
        );
        let room = self.max_outstanding.saturating_sub(self.outstanding.len());
        if room == 0 {
            return;
        }
        let first_new = out.len();
        abm.plan_loads(now, room, out);
        if out.len() == first_new {
            return;
        }
        for plan in &out[first_new..] {
            self.outstanding.push(Outstanding {
                decision: plan.decision,
                ticket: plan.ticket,
                epoch: plan.epoch,
            });
            self.stats.loads_issued += 1;
            self.stats.evictions += plan.evicted.len() as u64;
            self.obs.inc(Counter::IoLoadsIssued);
            self.obs
                .add(Counter::FrameEvictions, plan.evicted.len() as u64);
        }
        self.stats.bursts += 1;
        self.obs.inc(Counter::IoBursts);
        self.stats.peak_outstanding = self.stats.peak_outstanding.max(self.outstanding.len());
    }

    /// The commit half of the plan/commit protocol: retires the completion
    /// `(chunk, ticket)` through [`Abm::commit_load`]'s revalidation.
    /// Returns `None` when the completion is stale — the load was cancelled
    /// (see [`IoScheduler::cancel`]) or aborted at commit time — and the
    /// committed decision plus `signalQuery` list (the slice borrows the
    /// ABM's reusable scratch buffer) otherwise.  Never panics: device
    /// completions for cancelled loads are expected and simply dropped.
    pub fn commit<'a>(
        &mut self,
        abm: &'a mut Abm,
        chunk: ChunkId,
        ticket: u64,
    ) -> Option<(LoadDecision, &'a [QueryId])> {
        let idx = self
            .outstanding
            .iter()
            .position(|o| o.decision.chunk == chunk && o.ticket == ticket)?;
        let outstanding = self.outstanding.remove(idx);
        match abm.commit_load(chunk, ticket, outstanding.epoch) {
            CommitOutcome::Committed { woken } => {
                self.stats.loads_completed += 1;
                self.obs.inc(Counter::LoadsCompleted);
                Some((outstanding.decision, woken))
            }
            CommitOutcome::Cancelled | CommitOutcome::Aborted => {
                self.stats.loads_cancelled += 1;
                self.obs.inc(Counter::LoadsCancelled);
                None
            }
        }
    }

    /// Forgets the outstanding load of `chunk` after the ABM aborted it
    /// (see [`Abm::aborted_loads`]).  The device read may still be under
    /// way; its eventual completion is rejected by [`IoScheduler::commit`]'s
    /// ticket lookup.  Returns whether an entry was dropped.
    pub fn cancel(&mut self, chunk: ChunkId, ticket: u64) -> bool {
        let Some(idx) = self
            .outstanding
            .iter()
            .position(|o| o.decision.chunk == chunk && o.ticket == ticket)
        else {
            return false;
        };
        self.outstanding.remove(idx);
        self.stats.loads_cancelled += 1;
        self.obs.inc(Counter::LoadsCancelled);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::AbmState;
    use crate::model::TableModel;
    use crate::policy::PolicyKind;
    use cscan_storage::ScanRanges;

    fn abm(chunks: u32, buffer_chunks: u64) -> Abm {
        let model = TableModel::nsm_uniform(chunks, 1000, 16);
        let state = AbmState::new(model, buffer_chunks * 16);
        Abm::new(state, PolicyKind::Relevance.build())
    }

    #[test]
    fn keeps_k_loads_in_flight() {
        let mut abm = abm(32, 16);
        let cols = abm.state().model().all_columns();
        abm.register_query("full", ScanRanges::full(32), cols, SimTime::ZERO);
        let mut sched = IoScheduler::new(4);
        let mut plans = Vec::new();
        sched.plan(&mut abm, SimTime::ZERO, &mut plans);
        assert_eq!(plans.len(), 4, "an empty pipeline fills to K");
        assert_eq!(sched.in_flight(), 4);
        assert_eq!(abm.state().num_inflight(), 4);
        // All four target distinct chunks and are reserved.
        let mut chunks: Vec<_> = plans.iter().map(|p| p.decision.chunk).collect();
        chunks.sort_unstable();
        chunks.dedup();
        assert_eq!(chunks.len(), 4);
        assert_eq!(abm.state().reserved_pages(), 4 * 16);
        // Completing one (out of order) frees a slot; the next plan refills.
        let (victim, ticket) = (plans[2].decision.chunk, plans[2].ticket);
        let (decision, _woken) = sched
            .commit(&mut abm, victim, ticket)
            .expect("the load is current");
        assert_eq!(decision.chunk, victim);
        assert_eq!(sched.in_flight(), 3);
        let mut more = Vec::new();
        sched.plan(&mut abm, SimTime::ZERO, &mut more);
        assert_eq!(more.len(), 1);
        assert_eq!(sched.stats().loads_issued, 5);
        assert_eq!(sched.stats().loads_completed, 1);
        assert_eq!(sched.stats().peak_outstanding, 4);
    }

    #[test]
    fn k1_matches_sequential_plan_load() {
        // Two identical ABMs over the same workload: one driven by the
        // sequential plan_load main loop, one by a K=1 scheduler.  Their
        // decision streams must be identical.
        let mut seq = abm(24, 4);
        let mut pipe = abm(24, 4);
        let cols = seq.state().model().all_columns();
        for a in [&mut seq, &mut pipe] {
            a.register_query("a", ScanRanges::single(0, 16), cols, SimTime::ZERO);
            a.register_query("b", ScanRanges::single(8, 24), cols, SimTime::ZERO);
        }
        let mut sched = IoScheduler::new(1);
        for _ in 0..64 {
            let s = seq.plan_load(SimTime::ZERO);
            let mut p = Vec::new();
            sched.plan(&mut pipe, SimTime::ZERO, &mut p);
            assert_eq!(
                s.as_ref().map(|x| x.decision),
                p.first().map(|x| x.decision),
                "K=1 pipeline diverged from the sequential path"
            );
            assert_eq!(
                s.as_ref().map(|x| &x.evicted),
                p.first().map(|x| &x.evicted)
            );
            let Some(plan) = s else { break };
            seq.complete_load();
            let retired = sched.commit(&mut pipe, plan.decision.chunk, p[0].ticket);
            assert!(retired.is_some(), "nothing detached: the commit is valid");
        }
    }

    #[test]
    fn retry_policy_backs_off_then_quarantines() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(350),
        };
        // Doubles from the base, saturates at the cap, never shrinks —
        // however many failures are reported.
        let expected_us = [100, 200, 350, 350, 350];
        for (i, us) in expected_us.into_iter().enumerate() {
            assert_eq!(policy.backoff(i as u32 + 1), Duration::from_micros(us));
        }
        assert_eq!(policy.backoff(0), policy.backoff(1));
        assert_eq!(policy.backoff(u32::MAX), policy.backoff_cap);

        use FailureAction::{Quarantine, Retry};
        use StoreError::{Corrupted, Permanent, TimedOut, Transient};
        let retry = |n| Retry {
            delay: policy.backoff(n),
        };
        let table = [
            // A permanent error quarantines on the first failure.
            (policy, Permanent, 1, Quarantine),
            // A retryable one is retried until the attempt budget is spent.
            (policy, Transient, 1, retry(1)),
            (policy, TimedOut, 2, retry(2)),
            (policy, Corrupted, 3, retry(3)),
            (policy, Transient, 4, Quarantine),
            (policy, Transient, 5, Quarantine),
            (RetryPolicy::no_retries(), Transient, 1, Quarantine),
        ];
        for (policy, error, failed_attempts, expected) in table {
            assert_eq!(
                policy.on_failure(error, failed_attempts),
                expected,
                "{error:?} after {failed_attempts} failed attempts of {}",
                policy.max_attempts
            );
        }
    }
}
