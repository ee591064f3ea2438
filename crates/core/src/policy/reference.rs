//! The four policies written the slowest obvious way: the reference the
//! scheduler core is run against in lockstep (`sched::proptests`).
//!
//! Each decision point of Figure 3 is a sweep over every query, every
//! chunk of a scan's ranges or every buffered chunk, with no index, cursor
//! or cached counter of its own, and each must decide exactly what the
//! policy it stands for decides:
//!
//! * `normal` and `attach` ([`InOrder`]): a query's chunks are its ranges
//!   rotated at its start chunk, found for `attach` by scoring every
//!   running scan's remaining chunks; loads go round-robin to the first
//!   query after the last one serviced that misses a chunk; the victim is
//!   the least recently touched evictable chunk of a buffer sweep;
//! * `elevator` ([`Elevator`]): the cursor sweeps chunk by chunk; the
//!   victim is the oldest evictable chunk nobody needs, else the one the
//!   policy gives up when the buffer is stuck;
//! * `relevance`: [`RelevancePolicy::brute_force`], whose argmaxes sweep
//!   the trigger's chunks and the buffer.

use super::elevator::{fifo_chunk, stuck_victim};
use super::{Policy, PolicyKind, RelevancePolicy};
use crate::abm::{AbmState, LoadDecision};
use crate::query::{QueryId, QueryState};
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;
use std::cmp::Reverse;
use std::collections::HashMap;

/// The reference policy of `kind`.
pub(crate) fn build(kind: PolicyKind) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Normal | PolicyKind::Attach => Box::new(InOrder::new(kind)),
        PolicyKind::Elevator => Box::new(Elevator::default()),
        PolicyKind::Relevance => Box::new(RelevancePolicy::brute_force()),
    }
}

/// `normal` and `attach` from full walks (see the module docs).
pub(crate) struct InOrder {
    kind: PolicyKind,
    /// The chunk each attached query starts at.
    starts: HashMap<QueryId, ChunkId>,
    /// The query the last load was for.
    pub(crate) last_serviced: Option<QueryId>,
}

impl InOrder {
    pub(crate) fn new(kind: PolicyKind) -> Self {
        Self {
            kind,
            starts: HashMap::new(),
            last_serviced: None,
        }
    }

    /// The chunks `query` still needs, in the order it consumes them: its
    /// ranges rotated at its start chunk, every chunk from the first.
    pub(crate) fn walk(&self, query: &QueryState) -> Vec<ChunkId> {
        let start = self.starts.get(&query.id);
        let (mut order, below): (Vec<_>, Vec<_>) = query
            .ranges
            .iter()
            .filter(|&c| query.needs(c))
            .partition(|&c| start.is_some_and(|&s| c >= s));
        order.extend(below);
        order
    }

    /// The first chunk of `q`'s walk that is neither in flight nor
    /// resident with its columns.
    fn next_missing(&self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let query = state.query(q);
        self.walk(query)
            .into_iter()
            .filter(|&c| !state.is_inflight(c))
            .find(|&c| state.pages_to_load(c, query.columns) > 0)
    }

    /// Where `attach` starts the newly registered `q`: the first of its
    /// chunks at or after the position of the open query with which it
    /// shares the most chunk-columns (ties to the lowest id), wrapping to
    /// its first chunk, or its first chunk if none overlaps.
    pub(crate) fn attach_start(&self, state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let newcomer = state.query(q);
        let partner = state
            .queries()
            .filter(|p| p.id != q && !p.is_finished())
            .map(|p| {
                let shared = p.remaining_chunks_brute().filter(|&c| newcomer.needs(c));
                let cols = newcomer.columns.intersect(p.columns).len();
                (shared.count() as u64 * u64::from(cols), Reverse(p.id), p)
            })
            .filter(|&(score, _, _)| score > 0)
            .max_by_key(|&(score, id, _)| (score, id));
        let Some((_, _, partner)) = partner else {
            return newcomer.ranges.first();
        };
        let pos = self.walk(partner)[0];
        let mut chunks = newcomer.ranges.iter();
        chunks.find(|&c| c >= pos).or(newcomer.ranges.first())
    }
}

impl Policy for InOrder {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn on_register(&mut self, q: QueryId, state: &AbmState) {
        if self.kind == PolicyKind::Attach {
            if let Some(start) = self.attach_start(state, q) {
                self.starts.insert(q, start);
            }
        }
    }

    fn on_query_finished(&mut self, q: QueryId, _state: &AbmState) {
        self.starts.remove(&q);
    }

    /// Asks every open query its next missing chunk, then takes the first
    /// after `last_serviced` in id order, wrapping around.
    fn next_load(&mut self, state: &AbmState, _now: SimTime, _slot: usize) -> Option<LoadDecision> {
        let (trigger, chunk) = state
            .queries()
            .filter(|q| !q.is_finished())
            .filter_map(|q| Some((q.id, self.next_missing(state, q.id)?)))
            .min_by_key(|&(q, _)| (self.last_serviced.is_none_or(|last| q <= last), q))?;
        self.last_serviced = Some(trigger);
        Some(LoadDecision {
            trigger,
            chunk,
            cols: state.query(trigger).columns,
        })
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        let next = *self.walk(state.query(q)).first()?;
        state.is_resident_for(q, next).then_some(next)
    }

    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        state
            .buffered()
            .filter(|b| b.chunk != load.chunk && state.is_evictable(b.chunk))
            .min_by_key(|b| b.last_touch)
            .map(|b| b.chunk)
    }
}

/// `elevator` from chunk-by-chunk sweeps (see the module docs).
#[derive(Default)]
pub(crate) struct Elevator {
    /// The next chunk the sweep looks at.
    cursor: u32,
}

impl Policy for Elevator {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Elevator
    }

    /// Loads the first chunk from the cursor on, wrapping once, that some
    /// query needs, that is not in flight and that misses a column of the
    /// queries that need it, with those queries' columns.
    fn next_load(&mut self, state: &AbmState, _now: SimTime, _slot: usize) -> Option<LoadDecision> {
        let n = state.model().num_chunks();
        let (chunk, cols) = (0..n)
            .map(|step| ChunkId::new((self.cursor + step) % n))
            .filter(|&c| state.num_interested(c) > 0 && !state.is_inflight(c))
            .map(|c| (c, state.live_columns(c)))
            .find(|&(c, cols)| state.pages_to_load(c, cols) > 0)?;
        let trigger = state.interested_queries(chunk).next()?;
        self.cursor = (chunk.index() + 1) % n;
        Some(LoadDecision {
            trigger,
            chunk,
            cols,
        })
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        fifo_chunk(state, q)
    }

    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        state
            .buffered()
            .filter(|b| b.chunk != load.chunk && state.is_evictable(b.chunk))
            .filter(|b| state.num_interested(b.chunk) == 0)
            .min_by_key(|b| b.loaded_seq)
            .map(|b| b.chunk)
            .or_else(|| stuck_victim(state, load))
    }
}
