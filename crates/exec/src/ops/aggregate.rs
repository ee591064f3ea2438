//! Aggregation operators.
//!
//! [`HashAggregate`] is the order-agnostic workhorse (Q1-style group-bys work
//! regardless of delivery order).  [`ChunkOrderedAggregate`] is the
//! order-aware operator of Section 7.2: it exploits the fact that data
//! *within* a chunk is ordered on the grouping key even when chunks arrive
//! out of order, emitting interior groups immediately and stitching the
//! groups that straddle chunk boundaries at the end.
//!
//! Both work a vector at a time: first every (selected) row of the batch is
//! mapped to a dense group id, then each aggregate runs one tight loop over
//! `(group ids, its column, the selection)` updating a flat array of its own
//! state.
//!
//! * **Group ids.**  `HashAggregate` keeps a `GroupTable`: keys in one
//!   arena, open-addressed slots of group ids.  With one key column a row
//!   does not probe it: it reads its group from a *remap*, an array of
//!   group ids indexed by `key - base`.  Keys the remap does not hold yet
//!   are resolved after the pass — each probed once, the remap moved over
//!   the batch's keys when they span at most 16 384 values — and a batch
//!   whose keys span more (or overflow `max - min`) probes per row.
//!   Several key columns probe per row; none make one group.
//!   `ChunkOrderedAggregate` counts key runs instead.
//! * **Folds.**  Count, sum, min and max are associative and commutative.
//!   With at most 64 groups, row `i` folds into lane `i % 4` of its
//!   group's four interleaved partial states, and the lanes are merged
//!   into the group's state after the batch: neighbouring rows of one
//!   group no longer wait on each other's store to one slot.  More groups
//!   fold straight into the state, where such collisions are rare.
//!
//! Every buffer (group ids, remap, lanes, key runs) is kept across batches:
//! nothing is allocated per row.

use crate::ops::scan::Operator;
use crate::vector::{DataChunk, Value};
use cscan_core::session::ScanError;
use cscan_storage::ChunkId;

/// An aggregate function over an input column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the column (wrapping).
    Sum(usize),
    /// Number of rows.
    Count,
    /// Minimum of the column.
    Min(usize),
    /// Maximum of the column.
    Max(usize),
}

impl AggFunc {
    /// The state of a group no row has reached yet.
    fn identity(self) -> Value {
        match self {
            AggFunc::Sum(_) | AggFunc::Count => 0,
            AggFunc::Min(_) => Value::MAX,
            AggFunc::Max(_) => Value::MIN,
        }
    }

    /// Combines two partial states of the same group.
    fn merge(self, a: Value, b: Value) -> Value {
        match self {
            AggFunc::Sum(_) | AggFunc::Count => a.wrapping_add(b),
            AggFunc::Min(_) => a.min(b),
            AggFunc::Max(_) => a.max(b),
        }
    }
}

/// Group keys → dense group ids: a flat open-addressed table whose keys
/// live in one arena (stride = key width; zero key columns make one group),
/// and, for one key column, a per-batch remap in front of it.
struct GroupTable {
    width: usize,
    /// Group `g`'s key is `keys[g * width..][..width]`.
    keys: Vec<Value>,
    groups: usize,
    /// Linear-probed slots holding group ids, [`GroupTable::FREE`] when
    /// unused; a power of two, at least twice `groups`.
    slots: Vec<u32>,
    /// One key column: the group of key `remap_base + i` is `remap[i]`,
    /// [`GroupTable::FREE`] until a batch holding that key looked it up.
    remap: Vec<u32>,
    remap_base: Value,
}

impl GroupTable {
    const FREE: u32 = u32::MAX;
    /// The widest single-column key domain `max - min + 1` a batch is
    /// remapped over (64 KiB of group ids, inside L2); wider domains probe
    /// per row.  Measured: a remap over 4 097–16 384 values assigns ids
    /// 2–5× faster than probing, and one over 65 536 gains nothing certain.
    const REMAP_DOMAIN: usize = 16_384;

    fn new(width: usize) -> Self {
        Self {
            width,
            keys: Vec::new(),
            groups: 0,
            slots: vec![Self::FREE; 16],
            remap: Vec::new(),
            remap_base: 0,
        }
    }

    fn len(&self) -> usize {
        self.groups
    }

    fn key(&self, group: usize) -> &[Value] {
        &self.keys[group * self.width..][..self.width]
    }

    /// Where `key` starts probing: a multiplicative mix of its values
    /// (Fibonacci hashing), folded so the high bits reach the slot mask.
    fn home(&self, key: &[Value]) -> usize {
        let mut h = 0u64;
        for &v in key {
            h = (h.rotate_left(29) ^ v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        (h ^ (h >> 32)) as usize & (self.slots.len() - 1)
    }

    /// The group of `key`, created if new; `true` if this call created it.
    /// Inlined into the per-row loops: as a call it costs more than the probe.
    #[inline(always)]
    fn find_or_insert(&mut self, key: &[Value]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.width);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(key);
        loop {
            let group = self.slots[slot];
            if group == Self::FREE {
                return (self.insert(key), true);
            }
            // Element by element: a `memcmp` call costs more than a
            // one- or two-value key.
            if self
                .key(group as usize)
                .iter()
                .zip(key)
                .all(|(a, b)| a == b)
            {
                return (group, false);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Adds `key`, known to be absent, as the next group.
    #[cold]
    fn insert(&mut self, key: &[Value]) -> u32 {
        assert!(self.groups < Self::FREE as usize, "too many groups");
        let group = self.groups as u32;
        self.keys.extend_from_slice(key);
        self.groups += 1;
        if self.groups * 2 > self.slots.len() {
            self.slots = vec![Self::FREE; self.slots.len() * 2];
            (0..group).for_each(|g| self.seat(g));
        }
        self.seat(group);
        group
    }

    /// Puts `group` (its key already in the arena) into the first free
    /// slot of its probe sequence.
    fn seat(&mut self, group: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(self.key(group as usize));
        while self.slots[slot] != Self::FREE {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = group;
    }

    /// Writes the group id of every (selected) row of `batch` into `gids`,
    /// creating groups as new keys appear.
    fn assign(&mut self, batch: &DataChunk, key_cols: &[usize], gids: &mut Vec<u32>) {
        gids.clear();
        match key_cols {
            [] => {
                if !batch.is_empty() {
                    self.find_or_insert(&[]);
                }
                gids.resize(batch.len(), 0);
            }
            [col] => self.assign_one(batch.physical_column(*col), batch.selection(), gids),
            _ => {
                gids.reserve(batch.len());
                let cols: Vec<&[Value]> =
                    key_cols.iter().map(|&c| batch.physical_column(c)).collect();
                let mut key = vec![0; cols.len()];
                batch.for_each_row(|r| {
                    for (k, col) in key.iter_mut().zip(&cols) {
                        *k = col[r];
                    }
                    gids.push(self.find_or_insert(&key).0);
                });
            }
        }
    }

    /// [`GroupTable::assign`] for one key column: `keys` is the column,
    /// `sel` the batch's selection.  Each row reads its group from the
    /// remap; the rows it has no group for yet are resolved after.
    fn assign_one(&mut self, keys: &[Value], sel: Option<&[u32]>, gids: &mut Vec<u32>) {
        let (base, remap) = (self.remap_base, self.remap.as_slice());
        let lookup = |k: Value| {
            let slot = k.wrapping_sub(base) as usize;
            remap.get(slot).copied().unwrap_or(Self::FREE)
        };
        match sel {
            None => gids.extend(keys.iter().map(|&k| lookup(k))),
            Some(sel) => gids.extend(sel.iter().map(|&r| lookup(keys[r as usize]))),
        }
        // A separate pass: folded into the lookups it costs more.
        if gids
            .iter()
            .fold(false, |missing, &g| missing | (g == Self::FREE))
        {
            self.resolve(keys, sel, gids);
        }
    }

    /// Finds the groups of the rows the remap had none for.  If the
    /// batch's keys span at most [`GroupTable::REMAP_DOMAIN`] values the
    /// remap is moved over them (kept if it covers them already) and each
    /// missing key is probed once; otherwise every row probes.  Not cold:
    /// a key column whose batches are too wide comes here every batch.
    fn resolve(&mut self, keys: &[Value], sel: Option<&[u32]>, gids: &mut [u32]) {
        let row = |i: usize| sel.map_or(i, |sel| sel[i] as usize);
        let (lo, hi) = (0..gids.len())
            .map(|i| keys[row(i)])
            .fold((Value::MAX, Value::MIN), |(lo, hi), k| {
                (lo.min(k), hi.max(k))
            });
        let span = hi
            .checked_sub(lo)
            .and_then(|span| usize::try_from(span).ok())
            .filter(|&span| span < Self::REMAP_DOMAIN);
        let Some(span) = span else {
            // Too wide to remap: probe per row until a batch fits again.
            self.remap.clear();
            for (i, group) in gids.iter_mut().enumerate() {
                *group = self.find_or_insert(&[keys[row(i)]]).0;
            }
            return;
        };
        let covered = lo
            .checked_sub(self.remap_base)
            .and_then(|offset| usize::try_from(offset).ok())
            .is_some_and(|offset| offset + span < self.remap.len());
        if !covered {
            self.remap_base = lo;
            self.remap.clear();
            self.remap.resize(span + 1, Self::FREE);
        }
        for (i, group) in gids.iter_mut().enumerate() {
            let key = keys[row(i)];
            let slot = key.wrapping_sub(self.remap_base) as usize;
            if self.remap[slot] == Self::FREE {
                self.remap[slot] = self.find_or_insert(&[key]).0;
            }
            *group = self.remap[slot];
        }
    }
}

/// The running state of a list of aggregates: one flat array per
/// aggregate, indexed by group id.
struct Accumulators {
    funcs: Vec<AggFunc>,
    states: Vec<Vec<Value>>,
    /// Per-batch partial states of few groups: row `i` of group `g` folds
    /// into `lanes[g * LANES + i % LANES]`, so neighbouring rows of one
    /// group do not wait on each other's update of one slot.
    lanes: Vec<Value>,
}

impl Accumulators {
    /// Partial states kept per group when groups are few.
    const LANES: usize = 4;
    /// The most groups an aggregate folds through lanes.  Measured on
    /// uniform group ids: lanes halve a fold's time at one group and save
    /// about a tenth at three; from 8 to 256 groups both folds read alike,
    /// and at 1 024 the lanes' per-batch reset and merge cost up to a
    /// quarter more.  Any cutoff from 8 to 256 would do.
    const LANED_GROUPS: usize = 64;

    fn new(funcs: &[AggFunc]) -> Self {
        assert!(
            !funcs.is_empty(),
            "an aggregation needs at least one aggregate"
        );
        Self {
            funcs: funcs.to_vec(),
            states: vec![Vec::new(); funcs.len()],
            lanes: Vec::new(),
        }
    }

    /// Makes room for `groups` groups; new ones start at the identity.
    fn resize(&mut self, groups: usize) {
        for (state, func) in self.states.iter_mut().zip(&self.funcs) {
            state.resize(groups, func.identity());
        }
    }

    /// Folds every (selected) row of `batch` into the group `gids` names
    /// for it, one loop per aggregate.
    fn update(&mut self, batch: &DataChunk, gids: &[u32]) {
        debug_assert_eq!(gids.len(), batch.len());
        let sel = batch.selection();
        for (state, &func) in self.states.iter_mut().zip(&self.funcs) {
            let fold = Fold {
                state,
                lanes: &mut self.lanes,
                identity: func.identity(),
                gids,
            };
            match func {
                AggFunc::Count => fold.run(|_| 1, Value::wrapping_add),
                AggFunc::Sum(c) => fold.gather(batch, c, sel, Value::wrapping_add),
                AggFunc::Min(c) => fold.gather(batch, c, sel, Value::min),
                AggFunc::Max(c) => fold.gather(batch, c, sel, Value::max),
            }
        }
    }

    /// Merges group `from` of `other` (same aggregate list) into `into`.
    fn merge_group(&mut self, into: usize, other: &Accumulators, from: usize) {
        for ((state, func), theirs) in self.states.iter_mut().zip(&self.funcs).zip(&other.states) {
            state[into] = func.merge(state[into], theirs[from]);
        }
    }
}

/// One aggregate's update over one batch: `state[gids[i]] =
/// f(state[gids[i]], value(i))` for every position `i`, with `f`
/// associative and commutative, so partial states merge bit-identically.
struct Fold<'a> {
    state: &'a mut [Value],
    lanes: &'a mut Vec<Value>,
    identity: Value,
    gids: &'a [u32],
}

impl Fold<'_> {
    /// Folds column `col` of the (selected) rows.
    fn gather(
        self,
        batch: &DataChunk,
        col: usize,
        sel: Option<&[u32]>,
        f: impl Fn(Value, Value) -> Value,
    ) {
        let values = batch.physical_column(col);
        match sel {
            None => self.run(|i| values[i], f),
            Some(sel) => self.run(|i| values[sel[i] as usize], f),
        }
    }

    /// Few groups fold through [`Accumulators::LANES`] partial states
    /// each, merged at the end; many fold straight into `state`.
    #[inline(always)]
    fn run(self, value: impl Fn(usize) -> Value, f: impl Fn(Value, Value) -> Value) {
        const LANES: usize = Accumulators::LANES;
        let Fold {
            state,
            lanes,
            identity,
            gids,
        } = self;
        if state.len() > Accumulators::LANED_GROUPS {
            for (i, &g) in gids.iter().enumerate() {
                state[g as usize] = f(state[g as usize], value(i));
            }
            return;
        }
        lanes.clear();
        lanes.resize(state.len() * LANES, identity);
        let mut quads = gids.chunks_exact(LANES);
        for (q, quad) in (&mut quads).enumerate() {
            for (lane, &g) in quad.iter().enumerate() {
                let slot = &mut lanes[g as usize * LANES + lane];
                *slot = f(*slot, value(q * LANES + lane));
            }
        }
        let done = gids.len() - quads.remainder().len();
        for (i, &g) in quads.remainder().iter().enumerate() {
            let slot = &mut lanes[g as usize * LANES];
            *slot = f(*slot, value(done + i));
        }
        for (s, partial) in state.iter_mut().zip(lanes.chunks_exact(LANES)) {
            *s = partial.iter().fold(*s, |a, &b| f(a, b));
        }
    }
}

/// One output row per group — the key columns, then one column per
/// aggregate — ordered by key.
fn emit_sorted(table: &GroupTable, acc: &Accumulators) -> DataChunk {
    let mut order: Vec<usize> = (0..table.len()).collect();
    order.sort_unstable_by(|&a, &b| table.key(a).cmp(table.key(b)));
    let keys = (0..table.width).map(|k| order.iter().map(|&g| table.key(g)[k]).collect());
    let aggregates = acc
        .states
        .iter()
        .map(|state| order.iter().map(|&g| state[g]).collect());
    DataChunk::new(ChunkId::new(0), keys.chain(aggregates).collect())
}

/// Order-agnostic hash aggregation.
///
/// The output has one row per group: the key columns followed by one column
/// per aggregate, ordered by key.
pub struct HashAggregate<O> {
    input: O,
    key_cols: Vec<usize>,
    table: GroupTable,
    acc: Accumulators,
    gids: Vec<u32>,
    done: bool,
}

impl<O: Operator> HashAggregate<O> {
    /// Creates an aggregation of `funcs` grouped by `key_cols` over `input`.
    pub fn new(input: O, key_cols: Vec<usize>, funcs: Vec<AggFunc>) -> Self {
        Self {
            input,
            table: GroupTable::new(key_cols.len()),
            key_cols,
            acc: Accumulators::new(&funcs),
            gids: Vec::new(),
            done: false,
        }
    }
}

impl<O: Operator> Operator for HashAggregate<O> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        while let Some(batch) = self.input.next()? {
            self.table.assign(&batch, &self.key_cols, &mut self.gids);
            self.acc.resize(self.table.len());
            self.acc.update(&batch, &self.gids);
        }
        Ok(Some(emit_sorted(&self.table, &self.acc)))
    }
}

/// Order-aware aggregation over a clustering key (Section 7.2).
///
/// The input must be clustered (sorted) on a single key column table-wide,
/// but chunks may arrive in any order.  Groups entirely inside a chunk are
/// emitted as soon as that chunk is processed; the first and last group of
/// every chunk might continue in neighbouring chunks, so they are kept aside
/// and merged by key once the input is exhausted.
pub struct ChunkOrderedAggregate<O> {
    input: O,
    key_col: usize,
    /// Border groups awaiting their neighbours, merged by key.
    pending_keys: GroupTable,
    pending: Accumulators,
    /// The key runs of the chunk being processed: run `i` has key
    /// `run_keys[i]` and is group `i` of `runs`.
    run_keys: Vec<Value>,
    runs: Accumulators,
    gids: Vec<u32>,
    /// Number of border groups that were merged with an already-pending one
    /// (i.e. actually continued across a chunk boundary).
    boundary_merges: u64,
    flushed: bool,
}

impl<O: Operator> ChunkOrderedAggregate<O> {
    /// Creates the operator; `key_col` is the clustering key column.
    pub fn new(input: O, key_col: usize, funcs: Vec<AggFunc>) -> Self {
        Self {
            input,
            key_col,
            pending_keys: GroupTable::new(1),
            pending: Accumulators::new(&funcs),
            run_keys: Vec::new(),
            runs: Accumulators::new(&funcs),
            gids: Vec::new(),
            boundary_merges: 0,
            flushed: false,
        }
    }

    /// Number of border groups currently parked, waiting for neighbours.
    pub fn pending_border_groups(&self) -> usize {
        self.pending_keys.len()
    }

    /// Number of groups that actually continued across a chunk boundary.
    pub fn boundary_merges(&self) -> u64 {
        self.boundary_merges
    }

    /// Numbers the key runs of `batch` (sorted on the key within the
    /// chunk) and aggregates each run as a group of its own.
    fn aggregate_runs(&mut self, batch: &DataChunk) {
        let keys = batch.physical_column(self.key_col);
        self.run_keys.clear();
        self.run_keys.reserve(batch.len());
        self.gids.clear();
        self.gids.reserve(batch.len());
        batch.for_each_row(|r| {
            if self.run_keys.last() != Some(&keys[r]) {
                self.run_keys.push(keys[r]);
            }
            self.gids.push(self.run_keys.len() as u32 - 1);
        });
        debug_assert!(
            self.run_keys.windows(2).all(|w| w[0] < w[1]),
            "input is not clustered on the key column within chunk {:?}",
            batch.chunk
        );
        self.runs.resize(0);
        self.runs.resize(self.run_keys.len());
        self.runs.update(batch, &self.gids);
    }

    /// Folds run `run` of the current chunk into the pending border groups.
    fn park(&mut self, run: usize) {
        let (group, new) = self.pending_keys.find_or_insert(&[self.run_keys[run]]);
        self.pending.resize(self.pending_keys.len());
        self.pending.merge_group(group as usize, &self.runs, run);
        self.boundary_merges += !new as u64;
    }
}

impl<O: Operator> Operator for ChunkOrderedAggregate<O> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        // Process input chunks until one yields interior groups to emit.
        while let Some(batch) = self.input.next()? {
            if batch.is_empty() {
                continue;
            }
            self.aggregate_runs(&batch);
            // The first and last runs may continue in neighbouring chunks.
            let last = self.run_keys.len() - 1;
            self.park(0);
            if last > 0 {
                self.park(last);
            }
            if last > 1 {
                // Runs are in key order already.
                let interior = |column: &[Value]| column[1..last].to_vec();
                let columns = std::iter::once(interior(&self.run_keys))
                    .chain(self.runs.states.iter().map(|s| interior(s)))
                    .collect();
                return Ok(Some(DataChunk::new(ChunkId::new(0), columns)));
            }
        }
        // Input exhausted: flush the stitched border groups once.
        if !self.flushed {
            self.flushed = true;
            if self.pending_keys.len() > 0 {
                let stitched = emit_sorted(&self.pending_keys, &self.pending);
                self.pending_keys = GroupTable::new(1);
                self.pending.resize(0);
                return Ok(Some(stitched));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::collect;
    use crate::ops::scan::ChunkSource;
    use crate::table::MemTable;
    use cscan_storage::ChunkId;

    fn table() -> MemTable {
        MemTable::lineitem_demo(8_000, 1_000)
    }

    #[test]
    fn hash_aggregate_groups_correctly() {
        let t = table();
        let flag = t.column_index("l_returnflag").unwrap();
        let qty = t.column_index("l_quantity").unwrap();
        let src = ChunkSource::in_order(&t, vec![flag, qty]);
        let mut agg = HashAggregate::new(
            src,
            vec![0],
            vec![AggFunc::Count, AggFunc::Sum(1), AggFunc::Max(1)],
        );
        let out = agg.next().unwrap().unwrap();
        assert!(agg.next().unwrap().is_none());
        // Three return-flag codes.
        assert_eq!(out.len(), 3);
        assert_eq!(out.width(), 4);
        let total: i64 = out.column(1).iter().sum();
        assert_eq!(total, 8_000, "counts add up to the row count");
        assert!(out.column(3).iter().all(|&m| m <= 50));
    }

    #[test]
    fn chunk_ordered_matches_hash_aggregate_out_of_order() {
        // A chunk size that is not a multiple of the lineitems-per-order
        // ratio, so orders genuinely straddle chunk boundaries.
        let t = MemTable::lineitem_demo(8_000, 998);
        let key = t.column_index("l_orderkey").unwrap();
        let price = t.column_index("l_extendedprice").unwrap();
        // Reference: hash aggregation in table order.
        let reference = {
            let src = ChunkSource::in_order(&t, vec![key, price]);
            let mut agg = HashAggregate::new(src, vec![0], vec![AggFunc::Count, AggFunc::Sum(1)]);
            agg.next().unwrap().unwrap()
        };
        // Out-of-order delivery, as relevance would produce it.
        let order: Vec<ChunkId> = [5u32, 0, 7, 2, 6, 8, 1, 3, 4]
            .iter()
            .map(|&c| ChunkId::new(c))
            .collect();
        let src = ChunkSource::new(&t, vec![key, price], order);
        let mut agg = ChunkOrderedAggregate::new(src, 0, vec![AggFunc::Count, AggFunc::Sum(1)]);
        let out = collect(&mut agg);
        assert_eq!(out.len(), reference.len(), "same number of groups");
        // Both are ordered by key within their batches; collect() concatenates
        // interleaved batches, so compare as maps.
        let to_map = |c: &DataChunk| -> std::collections::HashMap<i64, (i64, i64)> {
            (0..c.len())
                .map(|i| (c.column(0)[i], (c.column(1)[i], c.column(2)[i])))
                .collect()
        };
        assert_eq!(to_map(&out), to_map(&reference));
        assert!(
            agg.boundary_merges() > 0,
            "orders straddle chunk boundaries in this data"
        );
    }

    #[test]
    fn interior_groups_stream_before_input_is_exhausted() {
        let t = table();
        let key = t.column_index("l_orderkey").unwrap();
        let src = ChunkSource::in_order(&t, vec![key]);
        let mut agg = ChunkOrderedAggregate::new(src, 0, vec![AggFunc::Count]);
        // The very first call must already produce interior groups of chunk 0
        // while later chunks have not been read yet.
        let first = agg.next().unwrap().unwrap();
        assert!(
            first.len() > 100,
            "chunk 0 has ~250 orders, most of them interior"
        );
        assert!(agg.pending_border_groups() >= 1);
    }

    #[test]
    fn single_group_chunks_are_stitched() {
        // A table where each chunk holds exactly one key and consecutive
        // chunks share it: the hardest case for boundary stitching.
        let columns: Vec<(String, crate::table::ColumnGen)> = vec![
            (
                "k".into(),
                std::sync::Arc::new(|row: u64| (row / 2_000) as i64),
            ),
            ("v".into(), std::sync::Arc::new(|_| 1i64)),
        ];
        let t = MemTable::new(columns, 8_000, 1_000);
        let src = ChunkSource::in_order(&t, vec![0, 1]);
        let mut agg = ChunkOrderedAggregate::new(src, 0, vec![AggFunc::Sum(1)]);
        let out = collect(&mut agg);
        // 8000 rows / 2000 per key = 4 groups of 2000 each.
        assert_eq!(out.len(), 4);
        assert!(out.column(1).iter().all(|&s| s == 2_000));
    }

    #[test]
    #[should_panic(expected = "at least one aggregate")]
    fn empty_aggregate_list_rejected() {
        let t = table();
        let src = ChunkSource::in_order(&t, vec![0]);
        let _ = HashAggregate::new(src, vec![0], vec![]);
    }
}
