//! Decision-equivalence proof for the threaded executor's grant matcher.
//!
//! The `threaded` front-end does not let consumers run the policy
//! themselves: the scheduler runs [`Abm::acquire_chunk`] *for* each query
//! (at registration, at every commit's woken list, and at each of its
//! releases) and deposits the result into the query's grant mailbox.
//! These tests drive two [`Abm`] twins through the identical
//! plan/commit/consume schedule — one with the lazy acquire discipline, in
//! which a consumer holds the one lock and runs the policy when it asks,
//! one with the eager mailbox discipline `threaded.rs` uses — and
//! assert the full decision traces (loads planned, victims evicted, commit
//! outcomes, woken lists, per-query deliveries and starvation blocks) are
//! bit-identical, across every policy, both storage layouts, and schedules
//! that include mid-scan detaches (the quarantine/abort protocol's ticket
//! checks).

use cscan_core::abm::{Abm, AbmState, CommitOutcome};
use cscan_core::model::TableModel;
use cscan_core::policy::PolicyKind;
use cscan_core::query::QueryId;
use cscan_core::ScanRanges;
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;
use proptest::prelude::*;
use std::collections::HashMap;

/// One observable scheduling decision.  Both twins must produce the exact
/// same sequence of these.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Planned {
        chunk: ChunkId,
        evicted: Vec<ChunkId>,
    },
    NothingToPlan,
    Committed {
        chunk: ChunkId,
        woken: Vec<QueryId>,
    },
    RejectedCommit {
        chunk: ChunkId,
    },
    Delivered {
        q: QueryId,
        chunk: ChunkId,
    },
    Starved {
        q: QueryId,
    },
    Closed {
        q: QueryId,
    },
    Detached {
        q: QueryId,
    },
}

/// A plan whose simulated read is still "in flight" (not yet committed).
struct Pending {
    chunk: ChunkId,
    ticket: u64,
    epoch: u64,
}

/// The two delivery disciplines under test.  `woken`/`consume`/`register`
/// are the three points the executor runs the matcher; the lazy twin makes
/// the identical `acquire_chunk` calls at the same points, the way the
/// consumer-side wait loop would when its doorbell rang.
trait Discipline {
    fn register(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>);
    fn woken(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>);
    /// The consumer's turn: finish the chunk it holds (if any) and ask for
    /// the next one.
    fn consume(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>);
    fn detach(&mut self, abm: &mut Abm, q: QueryId, trace: &mut Vec<Ev>);
}

/// The lazy discipline: the consumer holds the (one) lock and runs
/// `acquire_chunk` itself whenever it is signalled or finishes a chunk.
#[derive(Default)]
struct LazyAcquire {
    closed: Vec<QueryId>,
}

impl LazyAcquire {
    fn attempt(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        let Some(query) = abm.state().try_query(q) else {
            return;
        };
        if query.processing.is_some() {
            return;
        }
        if query.is_finished() {
            if !self.closed.contains(&q) {
                self.closed.push(q);
                trace.push(Ev::Closed { q });
            }
            return;
        }
        match abm.acquire_chunk(q, now) {
            Some(chunk) => trace.push(Ev::Delivered { q, chunk }),
            None => trace.push(Ev::Starved { q }),
        }
    }
}

impl Discipline for LazyAcquire {
    fn register(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        self.attempt(abm, q, now, trace);
    }
    fn woken(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        self.attempt(abm, q, now, trace);
    }
    fn consume(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        let processing = abm.state().try_query(q).and_then(|query| query.processing);
        if let Some(chunk) = processing {
            abm.release_delivered(q, chunk);
        }
        self.attempt(abm, q, now, trace);
    }
    fn detach(&mut self, abm: &mut Abm, q: QueryId, trace: &mut Vec<Ev>) {
        // Dropping the handle also drops its outstanding `PinnedChunk`,
        // whose release funnels through the detached-pin path.
        let processing = abm.state().try_query(q).and_then(|query| query.processing);
        abm.finish_query(q);
        if let Some(chunk) = processing {
            abm.release_delivered(q, chunk);
        }
        trace.push(Ev::Detached { q });
    }
}

/// The mailbox discipline: the scheduler deposits grants eagerly; the
/// consumer only takes what is already in its mailbox.  This mirrors
/// `threaded.rs`'s `try_grant` skip conditions exactly.
#[derive(Default)]
struct EagerGrant {
    grants: HashMap<QueryId, ChunkId>,
    closed: Vec<QueryId>,
}

impl EagerGrant {
    fn try_grant(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        if self.grants.contains_key(&q) {
            return;
        }
        let Some(query) = abm.state().try_query(q) else {
            return;
        };
        if query.processing.is_some() {
            return;
        }
        if query.is_finished() {
            if !self.closed.contains(&q) {
                self.closed.push(q);
                trace.push(Ev::Closed { q });
            }
            return;
        }
        match abm.acquire_chunk(q, now) {
            Some(chunk) => {
                self.grants.insert(q, chunk);
                trace.push(Ev::Delivered { q, chunk });
            }
            None => trace.push(Ev::Starved { q }),
        }
    }
}

impl Discipline for EagerGrant {
    fn register(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        self.try_grant(abm, q, now, trace);
    }
    fn woken(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        self.try_grant(abm, q, now, trace);
    }
    fn consume(&mut self, abm: &mut Abm, q: QueryId, now: SimTime, trace: &mut Vec<Ev>) {
        if let Some(chunk) = self.grants.remove(&q) {
            // The deferred-release drain: apply the release, then re-run
            // the matcher for the releasing query.
            abm.release_delivered(q, chunk);
        }
        self.try_grant(abm, q, now, trace);
    }
    fn detach(&mut self, abm: &mut Abm, q: QueryId, trace: &mut Vec<Ev>) {
        // `finish` reclaims an unconsumed grant before deregistering, so a
        // granted-but-never-taken chunk is released, not leaked.
        if let Some(chunk) = self.grants.remove(&q) {
            abm.finish_query(q);
            abm.release_delivered(q, chunk);
        } else {
            abm.finish_query(q);
        }
        trace.push(Ev::Detached { q });
    }
}

/// A deterministic schedule description.
#[derive(Debug, Clone)]
struct Script {
    seed: u64,
    steps: u32,
    /// `(start, end)` chunk ranges, one query each.
    queries: Vec<(u32, u32)>,
    /// Which query (by index) detaches mid-scan, if any.
    detach: Option<usize>,
    buffer_chunks: u64,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Drives one twin through the script and returns its decision trace plus
/// the final I/O request count.
fn drive(
    policy: PolicyKind,
    model: &TableModel,
    script: &Script,
    d: &mut dyn Discipline,
) -> (Vec<Ev>, u64) {
    let capacity = (model.avg_chunk_pages() * script.buffer_chunks as f64).ceil() as u64;
    let mut abm = Abm::new(
        AbmState::new(model.clone(), capacity.max(1)),
        policy.build(),
    );
    let mut trace = Vec::new();
    let mut rng = script.seed;
    let mut pending: Vec<Pending> = Vec::new();
    let mut plans = Vec::with_capacity(1);
    let mut ids = Vec::new();
    for &(start, end) in &script.queries {
        let now = SimTime::from_micros(ids.len() as u64);
        let q = abm.register_query(
            format!("q{}", ids.len()),
            ScanRanges::single(start, end),
            model.all_columns(),
            now,
        );
        ids.push(q);
        d.register(&mut abm, q, now, &mut trace);
    }
    let mut detached = false;
    for step in 0..script.steps {
        let now = SimTime::from_micros(1000 + step as u64 * 7);
        match lcg(&mut rng) % 6 {
            0 => {
                plans.clear();
                abm.plan_loads(now, 1, &mut plans);
                match plans.pop() {
                    Some(plan) => {
                        trace.push(Ev::Planned {
                            chunk: plan.decision.chunk,
                            evicted: plan.evicted.clone(),
                        });
                        pending.push(Pending {
                            chunk: plan.decision.chunk,
                            ticket: plan.ticket,
                            epoch: plan.epoch,
                        });
                    }
                    None => trace.push(Ev::NothingToPlan),
                }
            }
            1 | 2 => {
                if pending.is_empty() {
                    continue;
                }
                let load = pending.remove(0);
                let woken: Vec<QueryId> = match abm.commit_load(load.chunk, load.ticket, load.epoch)
                {
                    CommitOutcome::Committed { woken } => woken.to_vec(),
                    CommitOutcome::Cancelled | CommitOutcome::Aborted => {
                        trace.push(Ev::RejectedCommit { chunk: load.chunk });
                        continue;
                    }
                };
                trace.push(Ev::Committed {
                    chunk: load.chunk,
                    woken: woken.clone(),
                });
                for q in woken {
                    d.woken(&mut abm, q, now, &mut trace);
                }
            }
            3 | 4 => {
                let q = ids[(lcg(&mut rng) as usize) % ids.len()];
                d.consume(&mut abm, q, now, &mut trace);
            }
            _ => {
                if let Some(idx) = script.detach {
                    if !detached && step > script.steps / 2 {
                        detached = true;
                        d.detach(&mut abm, ids[idx], &mut trace);
                    }
                }
            }
        }
    }
    // Drain to quiescence so the twins are compared over complete scans,
    // not just a prefix: keep planning, committing and consuming in a fixed
    // round-robin until nothing remains.
    let mut spins = 0u32;
    loop {
        let now = SimTime::from_micros(1_000_000 + spins as u64 * 7);
        spins += 1;
        assert!(spins < 100_000, "twin failed to quiesce");
        if let Some(load) = if pending.is_empty() {
            None
        } else {
            Some(pending.remove(0))
        } {
            match abm.commit_load(load.chunk, load.ticket, load.epoch) {
                CommitOutcome::Committed { woken } => {
                    let woken: Vec<QueryId> = woken.to_vec();
                    trace.push(Ev::Committed {
                        chunk: load.chunk,
                        woken: woken.clone(),
                    });
                    for q in woken {
                        d.woken(&mut abm, q, now, &mut trace);
                    }
                }
                CommitOutcome::Cancelled | CommitOutcome::Aborted => {
                    trace.push(Ev::RejectedCommit { chunk: load.chunk });
                }
            }
            continue;
        }
        for &q in &ids {
            d.consume(&mut abm, q, now, &mut trace);
        }
        plans.clear();
        abm.plan_loads(now, 1, &mut plans);
        if let Some(plan) = plans.pop() {
            trace.push(Ev::Planned {
                chunk: plan.decision.chunk,
                evicted: plan.evicted.clone(),
            });
            pending.push(Pending {
                chunk: plan.decision.chunk,
                ticket: plan.ticket,
                epoch: plan.epoch,
            });
            continue;
        }
        if !abm.has_pending_work() {
            break;
        }
    }
    let state = abm.state();
    assert_eq!(state.num_inflight(), 0);
    assert_eq!(state.reserved_pages(), 0);
    state.validate_counters();
    (trace, state.io_requests())
}

fn assert_twins_agree(model: &TableModel, script: &Script) {
    for policy in PolicyKind::ALL {
        let (lazy_trace, lazy_io) = drive(policy, model, script, &mut LazyAcquire::default());
        let (eager_trace, eager_io) = drive(policy, model, script, &mut EagerGrant::default());
        assert_eq!(
            lazy_trace,
            eager_trace,
            "decision traces diverged for {} on {} column groups (seed {})",
            policy.name(),
            model.groups().len(),
            script.seed
        );
        assert_eq!(
            lazy_io,
            eager_io,
            "I/O counts diverged for {}",
            policy.name()
        );
        // Every query delivered every chunk of its range exactly once
        // (unless it detached mid-scan).
        let mut per_query: HashMap<QueryId, Vec<ChunkId>> = HashMap::new();
        for ev in &eager_trace {
            if let Ev::Delivered { q, chunk } = ev {
                per_query.entry(*q).or_default().push(*chunk);
            }
        }
        for (idx, &(start, end)) in script.queries.iter().enumerate() {
            if script.detach == Some(idx) {
                continue;
            }
            let mut got = per_query
                .get(&QueryId(idx as u64))
                .cloned()
                .unwrap_or_default();
            got.sort_unstable_by_key(|c| c.index());
            got.dedup();
            let want: Vec<ChunkId> = (start..end).map(ChunkId::new).collect();
            assert_eq!(got, want, "{}: query {idx} chunk coverage", policy.name());
        }
    }
}

fn nsm_model(chunks: u32) -> TableModel {
    TableModel::nsm_uniform(chunks, 1_000, 4)
}

fn dsm_model(chunks: u32) -> TableModel {
    TableModel::dsm_uniform(chunks, 1_000, &[3, 1, 2])
}

/// Scripted twins over a seed sweep: every policy, both layouts, with and
/// without a mid-scan detach.
#[test]
fn matcher_grants_match_the_single_lock_acquire_loop() {
    for seed in 0..8u64 {
        let script = Script {
            seed,
            steps: 600,
            queries: vec![(0, 24), (8, 24), (16, 24), (4, 12)],
            detach: (seed % 2 == 0).then_some(1),
            buffer_chunks: 4 + seed % 5,
        };
        assert_twins_agree(&nsm_model(24), &script);
        assert_twins_agree(&dsm_model(24), &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized twins: arbitrary overlapping ranges, buffer sizes,
    /// schedules and detach choices keep the two disciplines bit-identical.
    #[test]
    fn eager_and_lazy_disciplines_stay_bit_identical(
        seed in 0u64..1_000_000,
        ranges in prop::collection::vec((0u32..20, 1u32..20), 1..5),
        buffer_chunks in 2u64..8,
        // 0..4 picks a query to detach mid-scan; larger values mean none.
        detach_idx in 0usize..8,
    ) {
        let queries: Vec<(u32, u32)> = ranges
            .iter()
            .map(|&(s, len)| (s.min(19), (s.min(19) + len).min(20).max(s.min(19) + 1)))
            .collect();
        let script = Script {
            seed,
            steps: 400,
            detach: (detach_idx < queries.len()).then_some(detach_idx),
            queries,
            buffer_chunks,
        };
        assert_twins_agree(&nsm_model(20), &script);
        assert_twins_agree(&dsm_model(20), &script);
    }
}
