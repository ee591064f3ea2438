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
//! * `relevance` ([`Relevance`]): Figure 3's four functions with Figure
//!   11's page normalisation, written from the paper and the rules of
//!   `policy/relevance.rs`'s module doc, not from its code.  Every decision
//!   counts afresh, from each query's needed chunks and columns and from
//!   the buffer's records, which queries are available, starved or
//!   interested; none reads the `AbmState`'s cached counters, its chunk
//!   index or a function of the policy it checks.

use super::elevator::{fifo_chunk, stuck_victim};
use super::{Policy, PolicyKind};
use crate::abm::{AbmState, BufferedChunk, LoadDecision};
use crate::colset::ColSet;
use crate::model::TableModel;
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
        PolicyKind::Relevance => Box::new(Relevance),
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

/// The paper's `Qmax`, an upper bound on the queries that run at once: it
/// weighs a starved (or almost starved) query's interest above any number
/// of other queries', while fewer than `QMAX` run.
const QMAX: u64 = 1024;

/// Figure 3: a query with fewer available chunks than this is starved, and
/// one with exactly this many almost starved.
const STARVED_BELOW: u32 = 2;

/// `relevance` from Figures 3 and 11 (see the module docs).
pub(crate) struct Relevance;

/// What one relevance decision reads: each active query with its available
/// chunks, counted from the buffer's records — the buffered chunks it still
/// needs that hold every column it reads, the one it processes included.
struct View<'a> {
    state: &'a AbmState,
    model: &'a TableModel,
    queries: Vec<(&'a QueryState, u32)>,
}

impl<'a> View<'a> {
    fn of(state: &'a AbmState) -> Self {
        let available = |q: &QueryState| {
            let held = |b: &&BufferedChunk| q.needs(b.chunk) && q.columns.is_subset_of(b.columns);
            state.buffered().filter(held).count() as u32
        };
        let queries = state.queries().map(|q| (q, available(q))).collect();
        View {
            state,
            model: state.model(),
            queries,
        }
    }

    /// The chunks `q` still needs, in table order.
    fn needed(&self, q: &'a QueryState) -> impl Iterator<Item = ChunkId> + 'a {
        let chunks = (0..self.model.num_chunks()).map(ChunkId::new);
        chunks.filter(move |&c| q.needs(c))
    }

    /// The queries that still need `chunk` and read a column of `cols`,
    /// each with its available chunks.
    fn wanting(
        &self,
        chunk: ChunkId,
        cols: ColSet,
    ) -> impl Iterator<Item = (&'a QueryState, u32)> + '_ {
        let overlap = move |q: &QueryState| q.needs(chunk) && q.columns.overlaps(cols);
        self.queries
            .iter()
            .copied()
            .filter(move |&(q, _)| overlap(q))
    }

    fn loading(&self, chunk: ChunkId) -> bool {
        self.state.inflight_loads().iter().any(|l| l.chunk == chunk)
    }

    /// Pages a load of `cols` of `chunk` reads: the groups not buffered.
    fn pages_to_read(&self, chunk: ChunkId, cols: ColSet) -> u64 {
        let held = self.state.buffered_chunk(chunk).map(|b| b.columns);
        self.model
            .chunk_pages(chunk, cols.difference(held.unwrap_or(ColSet::EMPTY)))
    }

    /// `queryRelevance(q)`, for a starved query that needs a chunk: the
    /// shorter its scan the higher, raised by the time it has waited, shared
    /// out among the running queries.
    fn query_relevance(&self, q: &QueryState, available: u32, now: SimTime) -> Option<f64> {
        let needed = self.needed(q).count();
        if needed == 0 || available >= STARVED_BELOW {
            return None;
        }
        let running = self.queries.len().max(1) as f64;
        Some(-(needed as f64) + q.waiting_time(now).as_secs_f64() / running)
    }

    /// `loadRelevance(chunk)` for `trigger`, over the queries that need the
    /// chunk and share a column with it: `starved · QMAX + interested` per
    /// page a load of all their columns reads.  Returns those columns too.
    fn load_relevance(&self, trigger: &QueryState, chunk: ChunkId) -> (f64, ColSet) {
        let (mut starved, mut interested, mut cols) = (0, 0, trigger.columns);
        for (q, available) in self.wanting(chunk, trigger.columns) {
            starved += u64::from(available < STARVED_BELOW);
            interested += 1;
            cols = cols.union(q.columns);
        }
        let pages = self.pages_to_read(chunk, cols).max(1);
        ((starved * QMAX + interested) as f64 / pages as f64, cols)
    }

    /// `useRelevance(b)` for `q`: the pages the chunk holds for `q`, per
    /// query that needs it and shares a column with `q`.
    fn use_relevance(&self, q: &QueryState, b: &BufferedChunk) -> f64 {
        let interested = self.wanting(b.chunk, q.columns).count().max(1);
        let pages = self
            .model
            .chunk_pages(b.chunk, b.columns.intersect(q.columns));
        pages as f64 / interested as f64
    }

    /// `keepRelevance(b)`, over every query that needs the chunk:
    /// `almost_starved · QMAX + interested` per page it occupies.
    fn keep_relevance(&self, b: &BufferedChunk) -> f64 {
        let (mut almost_starved, mut interested) = (0, 0);
        for (_, available) in self.wanting(b.chunk, self.model.all_columns()) {
            almost_starved += u64::from(available <= STARVED_BELOW);
            interested += 1;
        }
        let pages = self.model.chunk_pages(b.chunk, b.columns).max(1);
        (almost_starved * QMAX + interested) as f64 / pages as f64
    }

    /// `chooseChunkToLoad` for `trigger`: of the chunks it needs that no
    /// load is reading and that miss one of its columns, the highest
    /// `loadRelevance`, with the columns of the queries it counted.
    fn chunk_to_load(&self, trigger: &QueryState) -> Option<LoadDecision> {
        let candidates = self.needed(trigger).filter(|&c| !self.loading(c));
        let candidates = candidates.filter(|&c| self.pages_to_read(c, trigger.columns) > 0);
        let scored = candidates.map(|c| {
            let (score, cols) = self.load_relevance(trigger, c);
            (score, (c, cols))
        });
        let (chunk, cols) = best_of(scored, |a, b| a > b)?;
        Some(LoadDecision {
            trigger: trigger.id,
            chunk,
            cols,
        })
    }
}

/// The first item of the best score (`wins(new, best)`): every sweep here
/// runs in chunk order, so ties go to the lowest chunk id.
fn best_of<T, I: Iterator<Item = (f64, T)>>(scored: I, wins: fn(f64, f64) -> bool) -> Option<T> {
    let mut best: Option<(f64, T)> = None;
    for (score, item) in scored {
        if best.as_ref().is_none_or(|&(b, _)| wins(score, b)) {
            best = Some((score, item));
        }
    }
    best.map(|(_, item)| item)
}

impl Policy for Relevance {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Relevance
    }

    /// `chooseQueryToProcess` by `queryRelevance`, ties to the lower id,
    /// then its `chooseChunkToLoad`.  Slot 0 is the paper's main loop: the
    /// top query or nothing; a later slot takes the first query, in that
    /// order, that has a chunk to load.
    fn next_load(&mut self, state: &AbmState, now: SimTime, slot: usize) -> Option<LoadDecision> {
        let view = View::of(state);
        let mut triggers: Vec<(f64, &QueryState)> = view
            .queries
            .iter()
            .filter_map(|&(q, available)| Some((view.query_relevance(q, available, now)?, q)))
            .collect();
        triggers.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.id.cmp(&b.1.id)));
        let tried = if slot == 0 { 1 } else { triggers.len() };
        let mut triggers = triggers.into_iter().take(tried);
        triggers.find_map(|(_, q)| view.chunk_to_load(q))
    }

    /// `chooseAvailableChunk`: of the buffered chunks `q` needs, is not
    /// processing and holds every column of, the highest `useRelevance`.
    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        let (view, query) = (View::of(state), state.query(q));
        let available = state.buffered().filter(|b| {
            query.needs(b.chunk)
                && query.processing != Some(b.chunk)
                && query.columns.is_subset_of(b.columns)
        });
        let scored = available.map(|b| (view.use_relevance(query, b), b.chunk));
        best_of(scored, |a, b| a > b)
    }

    /// `findFreeSlot`'s victim: the lowest `keepRelevance` of the unpinned
    /// buffered chunks no load is reading, sparing first the trigger's
    /// chunks and any a starved query needs, and failing that none.
    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        let (view, trigger) = (View::of(state), state.query(load.trigger));
        let all = state.model().all_columns();
        let spared =
            |c: ChunkId| trigger.needs(c) || view.wanting(c, all).any(|(_, a)| a < STARVED_BELOW);
        let victim = |strict: bool| {
            let evictable = state
                .buffered()
                .filter(|b| b.chunk != load.chunk && !b.is_pinned() && !view.loading(b.chunk));
            let candidates = evictable.filter(|b| !(strict && spared(b.chunk)));
            let scored = candidates.map(|b| (view.keep_relevance(b), b.chunk));
            best_of(scored, |a, b| a < b)
        };
        victim(true).or_else(|| victim(false))
    }
}
