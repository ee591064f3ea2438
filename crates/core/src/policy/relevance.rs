//! The `relevance` policy — the paper's contribution.
//!
//! All decisions are made by per-chunk and per-query *relevance functions*.
//! There is one formula per function — Figure 11's, with the interest term
//! of Figure 3 as its second-order key — for every table, whatever its
//! column groups:
//!
//! * `queryRelevance` picks which query to load a chunk for: only starved
//!   queries (fewer than two available chunks) are considered, shorter
//!   queries first, with a boost that grows with waiting time so long
//!   queries are not starved forever;
//! * `loadRelevance = (starved · QMAX + interested) / pages_to_load` picks
//!   which of that query's missing chunks to read: counted are the queries
//!   that need the chunk and share a column with the trigger, and the pages
//!   are what has to be read to serve all of them — which is also what the
//!   load then reads;
//! * `useRelevance = cached_pages / interested` picks which available chunk
//!   a query consumes next: the one occupying the most buffer space per
//!   query that wants it, so that poorly-shared chunks become evictable as
//!   early as possible;
//! * `keepRelevance = (almost_starved · QMAX + interested) / cached_pages`
//!   picks eviction victims: chunks useful to almost-starved queries are
//!   protected, otherwise the largest per interested query goes first — and
//!   a chunk nobody needs, at zero, before any of them.
//!
//! Every score is normalised by pages, the row store's too.  On a table of
//! one column group every query reads every column, so the overlapping
//! queries are a chunk's interest counters and these are Figure 3's
//! `starved · QMAX + interested`, least-`interested` and
//! `almost_starved · QMAX + interested`, each per page of the chunk: equal
//! chunks rank as Figure 3 ranks them, and a short last chunk ranks by what
//! it costs.  `tests/layout_equivalence.rs` holds a table of one group per
//! column whose queries read every column to the one-group table's
//! decisions, one for one, on a table whose last chunk is short too.
//!
//! # One walk per decision point
//!
//! `chooseChunkToLoad` is the hot spot of a scheduling step: the seed
//! implementation swept every chunk the triggering query still needs and
//! recomputed `loadRelevance` for each, an O(scan length) walk per decision
//! that dominates Figure 8's cost curve.  The default
//! ([`RelevancePolicy::new`]) argmax instead walks the bitset index of
//! [`AbmState`], the same code for row and column stores:
//!
//! * first the chunks a load may cost fewer pages than a full chunk of the
//!   trigger's columns: resident chunks that miss some column, and the
//!   model's ragged chunks (`needed ∧ (partial ∨ ragged) ∧ ¬inflight`; a
//!   uniform row store has neither, lineitem's has its short last chunk),
//!   each scored exactly;
//! * then `starved_buckets[s] ∧ needed ∧ ¬resident ∧ ¬ragged ∧ ¬inflight`
//!   from the highest starved-interest count `s` down, 64 chunks per word.
//!   Every candidate in bucket `s` scores at most `(s · QMAX + active
//!   queries) / floor`, where `floor` is what a load of the trigger's
//!   columns costs on a chunk that is not ragged: every group at its widest.
//!   The walk stops at the first bucket whose bound falls below the best
//!   score so far, and returns as soon as a candidate reaches its bucket's
//!   bound — on a row store, a chunk every running query wants.
//!
//! Scores are exact `Ratio`s and ties go to the lowest chunk id, so the
//! walk chooses what the sweep chooses for any number of queries, past
//! `QMAX` too, where the starved count alone no longer orders the buckets.
//!
//! The other two decision points walk the same index: `chooseAvailableChunk`
//! takes the `useRelevance` argmax over `resident ∧ needed` (checking that
//! the chunk holds every column the query reads) and stops at the first
//! chunk nothing can beat, and the eviction argmin walks `resident ∧
//! ¬needed(trigger) ∧ ¬starved_any` (strict pass) or `resident` (relaxed
//! pass) reading `keepRelevance` from the cached counters.
//!
//! All of them choose bit-identically to the original sweep, which is
//! preserved behind [`RelevancePolicy::brute_force`]: the reference the
//! scheduler core is run against in lockstep (`crate::policy::reference`)
//! and the baseline the Figure 8 microbenchmark measures.
//!
//! Cost model: picking the trigger is O(active queries), each
//! `queryRelevance` reading the cached starvation index in O(1).  The chunk
//! argmax is O(chunks/64 · buckets walked) plus one score per candidate
//! met on the way — O(1) while every active query reads the same columns
//! (always, on a table of one group), O(active queries) otherwise, when a
//! score counts the overlapping queries — and keeps no state between
//! decisions.  State transitions pay O(1) per interest-counter
//! change, with a starvation *level* crossing costing O(chunks the query
//! still needs).  On the Figure 8 2 GB/2048-chunk mix a `plan_load`
//! decision is 10–70× cheaper than the brute-force sweep at 16–128
//! concurrent queries (wall-clock, printed by `cargo run --release -p
//! cscan_bench --bin figures fig8_scheduling_cost`; the release-only
//! `incremental_speedup_at_64_queries` gate in `cscan_bench` holds it to
//! ≥ 5× at 64 on a row store, on a six-column column store and on a row
//! store whose last chunk is short).

use crate::abm::{AbmState, BufferedChunk, LoadDecision, STARVATION_THRESHOLD};
use crate::colset::ColSet;
use crate::policy::{Policy, PolicyKind};
use crate::query::{QueryId, QueryState};
use cscan_simdisk::SimTime;
use cscan_storage::ChunkId;
use std::cmp::Ordering;

/// Weight that makes "number of interested starved queries" dominate
/// "number of interested queries" in the load/keep relevance functions
/// (the paper's `Qmax`: an upper bound on the number of concurrent queries).
const QMAX: u64 = 1024;

/// A relevance value as the exact ratio it is — a benefit per page, or
/// pages per query — so the per-candidate walks compare two products
/// instead of dividing.  As long as those products stay below 2⁵³ (under
/// `QMAX` queries weighted by `QMAX` against 2³² pages: any table this
/// engine can hold) two different ratios are two different `f64`s, so
/// ordering ratios and ordering their [`Ratio::value`]s — what the
/// brute-force sweeps do — agree.
#[derive(Debug, Clone, Copy)]
struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    fn value(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Both sides of `self ⋛ other`, cross-multiplied.
    fn cross(self, other: Ratio) -> (u128, u128) {
        (
            u128::from(self.num) * u128::from(other.den),
            u128::from(other.num) * u128::from(self.den),
        )
    }
}

impl PartialEq for Ratio {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = self.cross(*other);
        a == b
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        let (a, b) = self.cross(*other);
        a.partial_cmp(&b)
    }
}

/// Who weighs on a decision about one chunk taken for a query reading
/// `cols`: the queries that still need the chunk and share a column with
/// `cols` (Figure 11's "overlapping" queries; when every active query reads
/// the same columns, simply the chunk's interest counters).
struct Overlap {
    /// Overlapping interested queries.
    interested: u32,
    /// Those of them that are starved.
    starved: u32,
    /// The columns all of them read.
    cols: ColSet,
}

impl Overlap {
    /// `cols` must be the columns of an active query.
    fn of(state: &AbmState, chunk: ChunkId, cols: ColSet) -> Self {
        if let Some(shared) = state.shared_columns() {
            // Every active query reads `cols`, so every interested one
            // overlaps.
            return Overlap {
                interested: state.num_interested(chunk),
                starved: state.num_interested_starved(chunk),
                cols: shared,
            };
        }
        let mut o = Overlap {
            interested: 0,
            starved: 0,
            cols: ColSet::EMPTY,
        };
        for q in state.queries() {
            if q.needs(chunk) && q.columns.overlaps(cols) {
                o.interested += 1;
                o.starved += u32::from(q.available_chunks() < STARVATION_THRESHOLD);
                o.cols = o.cols.union(q.columns);
            }
        }
        o
    }
}

/// The relevance-based Cooperative Scans policy (see module docs).
#[derive(Debug, Default)]
pub struct RelevancePolicy {
    /// When set, every decision uses the original full sweep instead of the
    /// index walks (reference + benchmark baseline).
    brute: bool,
    /// Reused trigger list for the pipelined fallback walk, so deep-slot
    /// decisions allocate nothing on the scheduling hot path.
    trigger_scratch: Vec<(f64, QueryId)>,
}

impl RelevancePolicy {
    /// Creates the policy with the index walks (the default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the policy with the original O(scan length)-per-decision
    /// brute-force chunk selection.  Decisions are identical to [`Self::new`];
    /// only the cost differs.  Used as the reference implementation by the
    /// property tests and as the baseline of the Figure 8 microbenchmark.
    pub fn brute_force() -> Self {
        Self {
            brute: true,
            ..Self::default()
        }
    }

    /// Whether this instance uses the brute-force chunk selection.
    pub fn is_brute_force(&self) -> bool {
        self.brute
    }

    // ------------------------------------------------------------------
    // Relevance functions.  Public (crate) visibility so the benchmark that
    // reproduces Figure 8 can measure their cost in isolation.
    // ------------------------------------------------------------------

    /// `queryRelevance(q)`: priority of scheduling a load on behalf of `q`.
    pub fn query_relevance(state: &AbmState, q: QueryId, now: SimTime) -> f64 {
        let running = state.num_queries().max(1) as f64;
        Self::query_relevance_of(state.query(q), running, now)
    }

    /// The `queryRelevance` formula over a query reference — the shared
    /// implementation behind [`Self::query_relevance`] and the trigger scan
    /// of `next_load` (which already holds `&QueryState` and the hoisted
    /// query count, avoiding a per-query id lookup).
    fn query_relevance_of(query: &QueryState, running: f64, now: SimTime) -> f64 {
        if query.available_chunks() >= STARVATION_THRESHOLD {
            return f64::NEG_INFINITY;
        }
        let waiting = query.waiting_time(now).as_secs_f64();
        -(query.chunks_needed() as f64) + waiting / running
    }

    /// `useRelevance(c, q)`: priority of *consuming* resident chunk `c` —
    /// the pages it holds for `q` per query that wants them, so poorly
    /// shared and big chunks become evictable early.
    pub fn use_relevance(state: &AbmState, q: QueryId, chunk: ChunkId) -> f64 {
        state
            .buffered_chunk(chunk)
            .map_or(0.0, |b| Self::use_ratio(state, state.query(q), b).value())
    }

    /// [`Self::use_relevance`] as a ratio, over the query and the buffer
    /// entry the walk of `chooseAvailableChunk` holds.  A chunk holding
    /// nothing but the query's columns, wanted by the query alone — the
    /// common case of a short scan — costs two counter reads.
    fn use_ratio(state: &AbmState, query: &QueryState, b: &BufferedChunk) -> Ratio {
        let cols = query.columns;
        let cached = if b.columns.is_subset_of(cols) {
            b.pages
        } else {
            state
                .model()
                .chunk_pages(b.chunk, b.columns.intersect(cols))
        };
        let interested = match state.num_interested(b.chunk) {
            n @ 0..=1 => n,
            _ => Overlap::of(state, b.chunk, cols).interested,
        };
        Ratio {
            num: cached,
            den: u64::from(interested.max(1)),
        }
    }

    /// `loadRelevance(c)`: priority of *loading* missing chunk `c` for the
    /// triggering query — starved interest first, any interest second, per
    /// page that has to be read to serve all of it (`load_columns`, which is
    /// what the load then asks for).
    pub fn load_relevance(state: &AbmState, trigger: QueryId, chunk: ChunkId) -> f64 {
        Self::load_ratio(state, state.query(trigger), chunk).value()
    }

    /// [`Self::load_relevance`] as a ratio, over a query reference.
    fn load_ratio(state: &AbmState, trigger: &QueryState, chunk: ChunkId) -> Ratio {
        let o = Overlap::of(state, chunk, trigger.columns);
        let pages = state.pages_to_load(chunk, trigger.columns.union(o.cols));
        Ratio {
            num: u64::from(o.starved) * QMAX + u64::from(o.interested),
            den: pages.max(1),
        }
    }

    /// `keepRelevance(c)`: priority of *keeping* resident chunk `c` (the
    /// chunk with the lowest value is evicted first) — almost-starved
    /// interest first, any interest second, per page the chunk occupies.
    /// By the time a victim is chosen no evictable chunk holds a dead
    /// column, so every occupied page serves an interested query.
    pub fn keep_relevance(state: &AbmState, chunk: ChunkId) -> f64 {
        Self::keep_ratio(state, chunk).value()
    }

    /// [`Self::keep_relevance`] as a ratio.
    fn keep_ratio(state: &AbmState, chunk: ChunkId) -> Ratio {
        let pages = state.buffered_chunk(chunk).map_or(1, |b| b.pages.max(1));
        Ratio {
            num: u64::from(state.num_interested_almost_starved(chunk)) * QMAX
                + u64::from(state.num_interested(chunk)),
            den: pages,
        }
    }

    /// The columns to fetch when loading `chunk` for `trigger`: the trigger's
    /// columns plus those of every query that needs the chunk and overlaps
    /// them — the queries `loadRelevance` counted, so one request serves all
    /// of them instead of one now and a top-up per query later.
    fn load_columns(state: &AbmState, trigger: QueryId, chunk: ChunkId) -> ColSet {
        let trigger_cols = state.query(trigger).columns;
        trigger_cols.union(Overlap::of(state, chunk, trigger_cols).cols)
    }

    // ------------------------------------------------------------------
    // chooseChunkToLoad: brute-force sweep and the bucket walk.
    // ------------------------------------------------------------------

    /// The seed implementation of `chooseChunkToLoad`: sweep every chunk the
    /// trigger still needs and take the `loadRelevance` argmax (ties towards
    /// the lowest chunk id).  O(scan length) per call.
    pub fn choose_chunk_brute(state: &AbmState, trigger: QueryId) -> Option<ChunkId> {
        let query = state.query(trigger);
        query
            .remaining_chunks()
            .filter(|&c| !state.is_inflight(c) && state.pages_to_load(c, query.columns) > 0)
            .map(|c| (Self::load_ratio(state, query, c).value(), c))
            .max_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.1.cmp(&a.1))
            })
            .map(|(_, c)| c)
    }

    /// `chooseChunkToLoad` over the bitset index (see the module docs): the
    /// resident chunks missing some column and the ragged chunks, then the starved-interest buckets from the highest
    /// down, each bounded by `(s · QMAX + active queries) / floor`.
    ///
    /// A starved trigger counts itself in the starved interest of every
    /// chunk it needs, so every missing candidate lies in some bucket
    /// `s ≥ 1`.  A candidate in bucket `s` has at most `s` starved and at
    /// most every active query interested, and a load of a chunk that is
    /// neither resident nor ragged reads every group of the trigger's at its
    /// widest: at least `floor` pages.
    /// Chooses bit-identically to [`Self::choose_chunk_brute`].
    fn choose_chunk_walk(state: &AbmState, trigger: &QueryState) -> Option<ChunkId> {
        let cols = trigger.columns;
        let needed = trigger.needed_words();
        let index = state.index();
        let resident = index.resident_words();
        let partial = index.partial_words();
        let inflight = index.inflight_words();
        let ragged = state.model().ragged_words();
        let mut best: Option<(Ratio, ChunkId)> = None;
        // Higher scores win, ties go to the lowest chunk id.
        let offer = |best: &mut Option<(Ratio, ChunkId)>, score: Ratio, chunk: ChunkId| {
            if best.is_none_or(|(b, c)| score > b || (score == b && chunk < c)) {
                *best = Some((score, chunk));
            }
        };
        // The chunks whose load may cost less than `floor`, scored exactly.
        for (wi, &nw) in needed.iter().enumerate() {
            let pw = partial.get(wi).copied().unwrap_or(0);
            let gw = ragged.get(wi).copied().unwrap_or(0);
            let fw = inflight.get(wi).copied().unwrap_or(0);
            let mut w = nw & (pw | gw) & !fw;
            while w != 0 {
                let chunk = ChunkId::new((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
                if state.pages_to_load(chunk, cols) > 0 {
                    offer(&mut best, Self::load_ratio(state, trigger, chunk), chunk);
                }
            }
        }
        let floor = state.model().max_chunk_pages(cols).max(1);
        let queries = state.num_queries() as u64;
        for s in (1..=index.max_interested_starved()).rev() {
            let bound = Ratio {
                num: s as u64 * QMAX + queries,
                den: floor,
            };
            if best.is_some_and(|(b, _)| b > bound) {
                break;
            }
            let bucket = index.starved_bucket_words(s);
            for (wi, (&nw, &bw)) in needed.iter().zip(bucket).enumerate() {
                let rw = resident.get(wi).copied().unwrap_or(0);
                let gw = ragged.get(wi).copied().unwrap_or(0);
                let fw = inflight.get(wi).copied().unwrap_or(0);
                let mut w = nw & bw & !rw & !gw & !fw;
                while w != 0 {
                    let chunk = ChunkId::new((wi * 64) as u32 + w.trailing_zeros());
                    w &= w - 1;
                    // Mirror the brute-force candidate filter exactly (a
                    // zero-page chunk is never worth a load decision).
                    if state.pages_to_load(chunk, cols) == 0 {
                        continue;
                    }
                    let score = Self::load_ratio(state, trigger, chunk);
                    offer(&mut best, score, chunk);
                    // Nothing later in this bucket can beat it, nor anything
                    // in a lower one.
                    if score >= bound {
                        return best.map(|(_, c)| c);
                    }
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// `chooseChunkToLoad` for one trigger: the brute-force sweep or the
    /// bucket walk.
    fn choose_chunk_for(&self, state: &AbmState, trigger: QueryId) -> Option<ChunkId> {
        if self.brute {
            return Self::choose_chunk_brute(state, trigger);
        }
        let query = state.query(trigger);
        // Everything the query still needs is in the buffer with every
        // column it reads (a short scan of a hot table, mostly): there is no
        // candidate, and no reason to walk the index to find none.
        if query.available_chunks() == query.chunks_needed() {
            return None;
        }
        Self::choose_chunk_walk(state, query)
    }

    // ------------------------------------------------------------------
    // chooseAvailableChunk and findFreeSlot: brute-force sweeps and the
    // word-wise walks over the same bitset index.
    // ------------------------------------------------------------------

    /// The seed implementation of `chooseAvailableChunk`: sweep the buffer
    /// and take the `useRelevance` argmax (ties towards the lowest chunk
    /// id).  O(buffered chunks) per call, with a per-chunk query sweep when
    /// the active queries' columns differ.  Reference for the word-wise walk.
    pub fn choose_use_chunk_brute(state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let query = state.query(q);
        state
            .buffered()
            .filter(|b| query.needs_and_not_processing(b.chunk))
            .filter(|b| query.columns.is_subset_of(b.columns))
            .map(|b| (Self::use_ratio(state, query, b).value(), b.chunk))
            .max_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.1.cmp(&a.1))
            })
            .map(|(_, c)| c)
    }

    /// Word-wise `chooseAvailableChunk`: the `useRelevance` argmax over
    /// `resident ∧ needed`, 64 chunks per word, skipping the chunk being
    /// processed and chunks that do not hold every column the query reads.  Ascending order and a strict comparison break ties towards
    /// the lowest chunk id, and the walk stops at the first chunk nothing can
    /// beat: the query's columns at their widest, wanted by the query alone.
    /// Chooses bit-identically to the brute sweep.
    fn choose_use_chunk(state: &AbmState, q: QueryId) -> Option<ChunkId> {
        let query = state.query(q);
        let resident = state.index().resident_words();
        let cap = Ratio {
            num: state.model().max_chunk_pages(query.columns),
            den: 1,
        };
        let mut best: Option<(Ratio, ChunkId)> = None;
        for (wi, (&nw, &rw)) in query.needed_words().iter().zip(resident).enumerate() {
            let mut w = nw & rw;
            while w != 0 {
                let chunk = ChunkId::new((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
                let Some(b) = state.buffered_chunk(chunk) else {
                    continue;
                };
                if query.processing == Some(chunk) || !query.columns.is_subset_of(b.columns) {
                    continue;
                }
                let score = Self::use_ratio(state, query, b);
                if best.is_none_or(|(b, _)| score > b) {
                    if score >= cap {
                        return Some(chunk);
                    }
                    best = Some((score, chunk));
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// The seed implementation of the eviction half of `findFreeSlot`: the
    /// strict pass (protecting the trigger's chunks and anything useful to a
    /// starved query) followed by the relaxed pass, each a full
    /// `keepRelevance` argmin sweep over the buffer.  Reference for the
    /// word-wise walk.
    pub fn choose_victim_brute(state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        let trigger = state.query(load.trigger);
        let strict = state
            .buffered()
            .filter(|b| b.chunk != load.chunk && state.is_evictable(b.chunk))
            .filter(|b| !trigger.needs(b.chunk))
            .filter(|b| !state.useful_for_starved_query(b.chunk))
            .map(|b| (Self::keep_relevance(state, b.chunk), b.chunk))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            })
            .map(|(_, c)| c);
        if strict.is_some() {
            return strict;
        }
        state
            .buffered()
            .filter(|b| b.chunk != load.chunk && state.is_evictable(b.chunk))
            .map(|b| (Self::keep_relevance(state, b.chunk), b.chunk))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            })
            .map(|(_, c)| c)
    }

    /// Word-wise victim selection over the bitset index.
    ///
    /// The strict pass intersects `resident ∧ ¬needed(trigger) ∧
    /// ¬starved_any` — the `findFreeSlot` guards as one word-wise mask — and
    /// the relaxed pass scans `resident` alone; within a pass the victim is
    /// the `keepRelevance` argmin, ties towards the lowest chunk id by
    /// walking in ascending order.  Per-candidate work is the evictability
    /// check and a few O(1) reads; non-candidates cost 1/64th of an AND.
    /// Chooses bit-identically to [`Self::choose_victim_brute`].
    fn choose_victim_walk(state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        let trigger = state.query(load.trigger);
        let resident = state.index().resident_words();
        let needed = trigger.needed_words();
        let starved = state.index().starved_any_words();
        let pick = |strict: bool| -> Option<ChunkId> {
            let mut best: Option<(Ratio, ChunkId)> = None;
            for (wi, &rw) in resident.iter().enumerate() {
                let mut w = rw;
                if strict {
                    let nw = needed.get(wi).copied().unwrap_or(0);
                    let sw = starved.get(wi).copied().unwrap_or(0);
                    w &= !nw & !sw;
                }
                while w != 0 {
                    let chunk = ChunkId::new((wi * 64) as u32 + w.trailing_zeros());
                    w &= w - 1;
                    if chunk == load.chunk || !state.is_evictable(chunk) {
                        continue;
                    }
                    let keep = Self::keep_ratio(state, chunk);
                    if best.is_none_or(|(b, _)| keep < b) {
                        best = Some((keep, chunk));
                    }
                }
            }
            best.map(|(_, c)| c)
        };
        pick(true).or_else(|| pick(false))
    }

    /// `chooseQueryToProcess` + `chooseChunkToLoad`: the starved query
    /// with the highest relevance, and its missing chunk with the highest
    /// load relevance.  `None` if no query is starved or the top one has
    /// nothing loadable.
    fn top_trigger_load(&mut self, state: &AbmState, now: SimTime) -> Option<LoadDecision> {
        // chooseQueryToProcess: the starved query with the highest relevance.
        // O(active queries): every term of queryRelevance reads the cached
        // starvation index in O(1), and only starved queries have finite
        // relevance.
        let running = state.num_queries().max(1) as f64;
        let trigger = state
            .queries()
            .filter(|q| !q.is_finished())
            .map(|q| (Self::query_relevance_of(q, running, now), q.id))
            .filter(|(r, _)| r.is_finite())
            .max_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.1.cmp(&a.1))
            })
            .map(|(_, id)| id)?;
        // chooseChunkToLoad: the missing chunk with the highest load relevance.
        let chunk = self.choose_chunk_for(state, trigger)?;
        let cols = Self::load_columns(state, trigger, chunk);
        Some(LoadDecision {
            trigger,
            chunk,
            cols,
        })
    }
}

impl Policy for RelevancePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Relevance
    }

    fn next_load(&mut self, state: &AbmState, now: SimTime, slot: usize) -> Option<LoadDecision> {
        // Slot 0 — an empty pipeline — is exactly the sequential main loop:
        // only the top-relevance query may trigger, even if it has nothing
        // loadable.  Later slots take the same decision when the top
        // trigger has a loadable chunk, which it usually has.
        let top = self.top_trigger_load(state, now);
        if top.is_some() || slot == 0 {
            return top;
        }
        // Later slots keep the pipeline full: the top trigger's missing
        // chunks may all be in flight already (a short scan fully covered by
        // slots 0..n), in which case the disk should work for the next most
        // relevant starved query instead of idling.  Walk the remaining
        // starved queries in descending queryRelevance (ties towards the
        // lower id, like the top trigger's argmax) and take the first that
        // has a loadable chunk.  The sorted list's head is exactly the
        // argmax already tried, so the walk skips it; the trigger list
        // reuses a scratch buffer so even this path allocates nothing per
        // decision.
        let running = state.num_queries().max(1) as f64;
        let mut triggers = std::mem::take(&mut self.trigger_scratch);
        triggers.clear();
        triggers.extend(
            state
                .queries()
                .filter(|q| !q.is_finished())
                .map(|q| (Self::query_relevance_of(q, running, now), q.id))
                .filter(|(r, _)| r.is_finite()),
        );
        triggers.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut found = None;
        for &(_, trigger) in triggers.iter().skip(1) {
            if let Some(chunk) = self.choose_chunk_for(state, trigger) {
                let cols = Self::load_columns(state, trigger, chunk);
                found = Some(LoadDecision {
                    trigger,
                    chunk,
                    cols,
                });
                break;
            }
        }
        self.trigger_scratch = triggers;
        found
    }

    fn next_chunk(&mut self, q: QueryId, state: &AbmState) -> Option<ChunkId> {
        // chooseAvailableChunk: the resident chunk with the highest use
        // relevance, word-wise over the residency bitset.
        if self.brute {
            return Self::choose_use_chunk_brute(state, q);
        }
        Self::choose_use_chunk(state, q)
    }

    fn choose_victim(&mut self, state: &AbmState, load: &LoadDecision) -> Option<ChunkId> {
        // findFreeSlot: strict pass protecting the trigger's chunks and
        // anything useful to a starved query, then the relaxed pass —
        // word-wise over the residency / needed / starved-any bitsets.
        if self.brute {
            return Self::choose_victim_brute(state, load);
        }
        Self::choose_victim_walk(state, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abm::AbmState;
    use crate::model::TableModel;
    use cscan_storage::{ChunkPayload, ColumnId, ScanRanges};

    fn state(chunks: u32, buffer_chunks: u64) -> AbmState {
        AbmState::new(
            TableModel::nsm_uniform(chunks, 1000, 16),
            buffer_chunks * 16,
        )
    }

    fn register(s: &mut AbmState, id: u64, start: u32, end: u32) -> QueryId {
        let cols = s.model().all_columns();
        s.register_query(
            QueryId(id),
            format!("q{id}"),
            ScanRanges::single(start, end),
            cols,
            SimTime::ZERO,
        );
        QueryId(id)
    }

    fn load(s: &mut AbmState, chunk: u32) {
        let cols = s.model().all_columns();
        s.begin_load(ChunkId::new(chunk), cols);
        s.complete_load_of(ChunkId::new(chunk), ChunkPayload::Missing);
    }

    #[test]
    fn short_starved_queries_win() {
        let mut s = state(100, 10);
        let short = register(&mut s, 1, 0, 5);
        let long = register(&mut s, 2, 0, 80);
        let now = SimTime::ZERO;
        let r_short = RelevancePolicy::query_relevance(&s, short, now);
        let r_long = RelevancePolicy::query_relevance(&s, long, now);
        assert!(
            r_short > r_long,
            "short queries get priority: {r_short} vs {r_long}"
        );
        let mut p = RelevancePolicy::new();
        let d = p.next_load(&s, now, 0).unwrap();
        assert_eq!(d.trigger, short);
        // The chosen chunk is shared by both queries (chunks 0..5 are).
        assert!(s.query(long).needs(d.chunk));
    }

    #[test]
    fn a_short_chunk_outranks_a_full_one_of_equal_interest() {
        // 10 000 tuples of 128 bytes in 1 MiB chunks: 16 pages, then 4.
        let schema = cscan_storage::TableSchema::new(
            "t",
            (0..16)
                .map(|i| {
                    cscan_storage::ColumnDef::new(format!("c{i}"), cscan_storage::ColumnType::Int64)
                })
                .collect(),
        );
        let model = TableModel::nsm(&schema, 10_000, 64 * 1024, 1024 * 1024);
        let all = model.all_columns();
        assert_eq!(model.chunk_pages(ChunkId::new(0), all), 16);
        assert_eq!(model.chunk_pages(ChunkId::new(1), all), 4);
        let mut s = AbmState::new(model, 1_000);
        let q = register(&mut s, 1, 0, 2);
        // One starved query wants both: the same interest buys a quarter of
        // the pages on the short chunk.
        let d = RelevancePolicy::new()
            .next_load(&s, SimTime::ZERO, 0)
            .unwrap();
        assert_eq!((d.trigger, d.chunk), (q, ChunkId::new(1)));
        assert_eq!(
            RelevancePolicy::choose_chunk_brute(&s, q),
            Some(ChunkId::new(1))
        );
    }

    #[test]
    fn non_starved_queries_are_not_scheduled() {
        let mut s = state(20, 10);
        let q = register(&mut s, 1, 0, 10);
        load(&mut s, 0);
        load(&mut s, 1);
        load(&mut s, 2);
        assert!(!s.is_starved(q));
        assert_eq!(
            RelevancePolicy::query_relevance(&s, q, SimTime::ZERO),
            f64::NEG_INFINITY
        );
        let mut p = RelevancePolicy::new();
        assert!(
            p.next_load(&s, SimTime::ZERO, 0).is_none(),
            "nobody is starved"
        );
    }

    #[test]
    fn waiting_time_eventually_boosts_long_queries() {
        let mut s = state(100, 10);
        let short = register(&mut s, 1, 0, 5);
        let long = register(&mut s, 2, 0, 80);
        // The long query has been blocked for a very long time.
        s.block_query(long, SimTime::ZERO);
        let later = SimTime::from_secs(1000);
        let r_short = RelevancePolicy::query_relevance(&s, short, later);
        let r_long = RelevancePolicy::query_relevance(&s, long, later);
        assert!(
            r_long > r_short,
            "waiting time must eventually win: {r_long} vs {r_short}"
        );
    }

    #[test]
    fn use_relevance_prefers_least_shared_chunks() {
        let mut s = state(20, 10);
        let q1 = register(&mut s, 1, 0, 10);
        let _q2 = register(&mut s, 2, 5, 10);
        load(&mut s, 0); // only q1 wants chunk 0
        load(&mut s, 7); // both want chunk 7
        let mut p = RelevancePolicy::new();
        assert_eq!(
            p.next_chunk(q1, &s),
            Some(ChunkId::new(0)),
            "consume the chunk fewer queries are interested in first"
        );
    }

    #[test]
    fn load_relevance_prefers_widely_wanted_chunks() {
        let mut s = state(20, 10);
        let q1 = register(&mut s, 1, 0, 10);
        let _q2 = register(&mut s, 2, 5, 10);
        let _q3 = register(&mut s, 3, 5, 10);
        // All three queries are starved; chunks 5..10 serve three of them.
        let mut p = RelevancePolicy::new();
        let d = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        assert!(
            d.chunk.index() >= 5,
            "chunk {:?} should be in the shared range",
            d.chunk
        );
        let shared = RelevancePolicy::load_relevance(&s, q1, ChunkId::new(6));
        let private = RelevancePolicy::load_relevance(&s, q1, ChunkId::new(1));
        assert!(shared > private);
    }

    #[test]
    fn keep_relevance_protects_starved_queries_chunks() {
        let mut s = state(20, 10);
        let q1 = register(&mut s, 1, 0, 10);
        let _q2 = register(&mut s, 2, 15, 20);
        load(&mut s, 0);
        load(&mut s, 15);
        // Process chunk 0 for q1 so it is no longer needed by anyone.
        s.start_processing(q1, ChunkId::new(0));
        s.finish_processing(q1, ChunkId::new(0));
        let mut p = RelevancePolicy::new();
        let d = LoadDecision {
            trigger: q1,
            chunk: ChunkId::new(1),
            cols: s.model().all_columns(),
        };
        // Chunk 15 is needed by the starved q2 and must not be the victim.
        assert_eq!(p.choose_victim(&s, &d), Some(ChunkId::new(0)));
    }

    #[test]
    fn victim_fallback_when_everything_is_wanted() {
        let mut s = state(20, 2);
        let q1 = register(&mut s, 1, 0, 20);
        load(&mut s, 0);
        load(&mut s, 1);
        // Both resident chunks are still wanted by the (starved) q1, but the
        // pool is full: the relaxed pass must still find a victim.
        let mut p = RelevancePolicy::new();
        let d = LoadDecision {
            trigger: q1,
            chunk: ChunkId::new(2),
            cols: s.model().all_columns(),
        };
        assert!(p.choose_victim(&s, &d).is_some());
    }

    #[test]
    fn dsm_load_columns_cover_overlapping_starved_queries() {
        let model = TableModel::dsm_uniform(10, 1000, &[2, 4, 8, 16]);
        let mut s = AbmState::new(model, 10_000);
        let cols_a = ColSet::from_columns([ColumnId::new(0), ColumnId::new(1)]);
        let cols_b = ColSet::from_columns([ColumnId::new(1), ColumnId::new(2)]);
        let cols_c = ColSet::from_columns([ColumnId::new(3)]);
        s.register_query(
            QueryId(1),
            "a",
            ScanRanges::single(0, 5),
            cols_a,
            SimTime::ZERO,
        );
        s.register_query(
            QueryId(2),
            "b",
            ScanRanges::single(0, 5),
            cols_b,
            SimTime::ZERO,
        );
        s.register_query(
            QueryId(3),
            "c",
            ScanRanges::single(0, 5),
            cols_c,
            SimTime::ZERO,
        );
        let mut p = RelevancePolicy::new();
        let d = p.next_load(&s, SimTime::ZERO, 0).unwrap();
        // Whoever triggers, the loaded columns must include the trigger's
        // columns and may include the overlapping starved partner's, but not
        // the disjoint query's column 3 unless query 3 itself triggered.
        let trigger_cols = s.query(d.trigger).columns;
        assert!(trigger_cols.is_subset_of(d.cols));
        if d.trigger != QueryId(3) {
            assert!(!d.cols.contains(ColumnId::new(3)) || trigger_cols.contains(ColumnId::new(3)));
        }
    }

    #[test]
    fn incremental_matches_brute_through_mutations() {
        // Drive the state through loads, consumption, eviction and query
        // churn; after every step the index walks must pick exactly the chunk
        // the brute-force sweep picks.
        let mut s = state(40, 6);
        let mut inc = RelevancePolicy::new();
        let mut brute = RelevancePolicy::brute_force();
        assert!(!inc.is_brute_force());
        assert!(brute.is_brute_force());
        let q1 = register(&mut s, 1, 0, 25);
        let _q2 = register(&mut s, 2, 10, 35);
        let check = |inc: &mut RelevancePolicy, brute: &mut RelevancePolicy, s: &AbmState| {
            let a = inc
                .next_load(s, SimTime::ZERO, 0)
                .map(|d| (d.trigger, d.chunk));
            let b = brute
                .next_load(s, SimTime::ZERO, 0)
                .map(|d| (d.trigger, d.chunk));
            assert_eq!(a, b, "incremental and brute-force disagree");
            // Decisions are read-only: asking again changes nothing.
            let again = inc
                .next_load(s, SimTime::ZERO, 0)
                .map(|d| (d.trigger, d.chunk));
            assert_eq!(a, again, "an unapplied decision must change nothing");
        };
        check(&mut inc, &mut brute, &s);
        for c in [10u32, 11, 12, 0, 1] {
            load(&mut s, c);
            check(&mut inc, &mut brute, &s);
        }
        s.start_processing(q1, ChunkId::new(0));
        s.finish_processing(q1, ChunkId::new(0));
        check(&mut inc, &mut brute, &s);
        s.evict(ChunkId::new(11));
        check(&mut inc, &mut brute, &s);
        let q3 = register(&mut s, 3, 20, 40);
        check(&mut inc, &mut brute, &s);
        s.remove_query(q3);
        check(&mut inc, &mut brute, &s);
    }

    #[test]
    fn past_qmax_queries_interest_outweighs_a_starved_bucket() {
        // `QMAX` weighs starved interest above any interest only while fewer
        // than `QMAX` queries run, and nothing caps attachment.  Here chunk 3
        // sits in the higher bucket (starved T and L: 2·1024 + 2) but chunk 4
        // scores more (starved T: 1024, plus T and 1 100 fed queries).
        let mut s = state(8, 8);
        let t = register(&mut s, 1, 3, 5);
        let _long = register(&mut s, 2, 0, 4);
        load(&mut s, 5);
        load(&mut s, 6);
        for id in 3..1103 {
            register(&mut s, id, 4, 7);
        }
        assert!(!s.is_starved(QueryId(3)), "chunks 5 and 6 feed the rest");
        assert_eq!(s.num_interested_starved(ChunkId::new(3)), 2);
        assert_eq!(s.num_interested(ChunkId::new(4)), 1101);
        let d = RelevancePolicy::new()
            .next_load(&s, SimTime::ZERO, 0)
            .unwrap();
        assert_eq!((d.trigger, d.chunk), (t, ChunkId::new(4)));
        assert_eq!(
            RelevancePolicy::choose_chunk_brute(&s, t),
            Some(ChunkId::new(4))
        );
    }

    #[test]
    fn dsm_use_relevance_frees_large_chunks_first() {
        let model = TableModel::dsm_uniform(10, 1000, &[1, 50]);
        let mut s = AbmState::new(model, 10_000);
        let narrow = ColSet::from_columns([ColumnId::new(0)]);
        let wide = ColSet::from_columns([ColumnId::new(0), ColumnId::new(1)]);
        s.register_query(
            QueryId(1),
            "wide",
            ScanRanges::single(0, 4),
            wide,
            SimTime::ZERO,
        );
        s.register_query(
            QueryId(2),
            "narrow",
            ScanRanges::single(0, 4),
            narrow,
            SimTime::ZERO,
        );
        // Chunk 0 resident with both columns (51 pages), chunk 1 with only
        // the narrow column (1 page).
        s.begin_load(ChunkId::new(0), wide);
        s.complete_load_of(ChunkId::new(0), ChunkPayload::Missing);
        s.begin_load(ChunkId::new(1), narrow);
        s.complete_load_of(ChunkId::new(1), ChunkPayload::Missing);
        let mut p = RelevancePolicy::new();
        // The wide query consumes the expensive chunk first to free it sooner.
        assert_eq!(p.next_chunk(QueryId(1), &s), Some(ChunkId::new(0)));
    }
}
