//! Aggregation operators.
//!
//! [`HashAggregate`] is the order-agnostic workhorse (Q1-style group-bys work
//! regardless of delivery order).  [`ChunkOrderedAggregate`] is the
//! order-aware operator of Section 7.2: it exploits the fact that data
//! *within* a chunk is ordered on the grouping key even when chunks arrive
//! out of order, emitting interior groups immediately and stitching the
//! groups that straddle chunk boundaries at the end.
//!
//! Both work a batch at a time, in one loop over its rows: each row finds
//! its group's *slot* — its row count, then one value a sum, min or max,
//! side by side in one flat array — and folds into all of it.
//!
//! * **Groups.**  `HashAggregate` keeps a `GroupTable`: keys in one arena,
//!   open-addressed slots of group ids.  With one key column a row does
//!   not probe it: it reads its slot from a *remap*, an array indexed by
//!   `key - base`.  A row the remap has no group for folds into slot 0, a
//!   sink never read; if any row that counts went there, those rows alone
//!   are then resolved (each new key probed once, the remap moved over the
//!   counting keys when they span at most 16 384 values) and folded.
//!   A batch that finds the remap empty (the first, or the first after
//!   a wide one) remaps the keys of its first 1 024 rows before its loop,
//!   rejected rows' keys included: a group no counting row reaches keeps
//!   a zero count and is not emitted.  A batch whose keys
//!   span more (or overflow `max - min`) probes per row, and so do the
//!   batches after it until one fits again.  Several key columns probe per
//!   row; none make one group.  `ChunkOrderedAggregate` counts key runs
//!   instead.
//! * **Folds.**  Count, sum, min and max are associative and commutative,
//!   so a row folds straight into its slot.  A max is kept complemented,
//!   so it folds as a min does.  With at most two sums, mins and maxes
//!   their kinds are compile-time constants of the loop and their columns
//!   are read out of the batch once (`Fixed`); longer lists read the list
//!   per row (`Listed`).  Behind a [`Filter`] whose predicate is a column
//!   range, over a dense batch, the filter builds no selection: the loop
//!   reads every row and folds it under a mask of the range's verdict
//!   (all ones or 0, the borrow of one subtraction), so no branch depends
//!   on it — a rejected row adds 0 to the count and the sums and offers
//!   `MAX` to a min.  Only the probing pass skips a rejected row, lest it
//!   make a group.
//!
//! Every buffer (remap, slots, key runs, missed rows) is kept across
//! batches: nothing is allocated per row.
//!
//! [`Filter`]: crate::Filter

use crate::expr::{select_all, ColumnRange};
use crate::ops::scan::{Deferred, Operator};
use crate::vector::{DataChunk, Value};
use cscan_core::session::ScanError;
use cscan_storage::ChunkId;
use std::hint::{cold_path, select_unpredictable};

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

/// The rows of a batch an aggregate folds, each with whether it counts:
/// a row a deferred range rejects is still read, and counts for nothing.
#[derive(Clone, Copy)]
struct Rows<'a> {
    /// The batch's physical length (less for a [`Rows::head`]): every
    /// column a loop reads is cut to it.
    len: usize,
    pick: Pick<'a>,
}

#[derive(Clone, Copy)]
enum Pick<'a> {
    /// Every physical row.
    All,
    /// The selected physical rows.
    Selected(&'a [u32]),
    /// Every physical row, counting if the range holds its value.
    Masked(&'a [Value], ColumnRange),
}

impl<'a> Rows<'a> {
    fn of(batch: &'a DataChunk, range: Option<ColumnRange>) -> Self {
        let len = batch.physical_len();
        let pick = match (batch.selection(), range) {
            (Some(sel), _) => {
                debug_assert!(range.is_none(), "a range is deferred over dense batches");
                Pick::Selected(sel)
            }
            (None, Some(range)) => Pick::Masked(batch.physical_column(range.col), range),
            (None, None) => Pick::All,
        };
        Rows { len, pick }
    }

    /// The physical rows `rows` of a batch of `len` rows.
    fn selected(len: usize, rows: &'a [u32]) -> Self {
        Rows {
            len,
            pick: Pick::Selected(rows),
        }
    }

    /// Calls `f(row, mask)` for every row, in order: the mask is all ones
    /// if the row counts, 0 if not.
    #[inline(always)]
    fn for_each(self, mut f: impl FnMut(usize, Value)) {
        match self.pick {
            Pick::All => (0..self.len).for_each(|row| f(row, -1)),
            Pick::Selected(sel) => sel.iter().for_each(|&row| f(row as usize, -1)),
            Pick::Masked(values, range) => {
                let values = &values[..self.len];
                (0..self.len).for_each(|row| f(row, range.mask(values[row])));
            }
        }
    }

    /// The first `n` of the rows (all, if fewer).
    fn head(self, n: usize) -> Self {
        match self.pick {
            Pick::Selected(sel) => Self::selected(self.len, &sel[..n.min(sel.len())]),
            Pick::All => Rows {
                len: n.min(self.len),
                pick: Pick::All,
            },
            Pick::Masked(values, range) => {
                let len = n.min(self.len);
                Rows {
                    len,
                    pick: Pick::Masked(&values[..len], range),
                }
            }
        }
    }

    /// An upper bound on the rows that count.
    fn count(self) -> usize {
        match self.pick {
            Pick::Selected(sel) => sel.len(),
            Pick::All | Pick::Masked(..) => self.len,
        }
    }
}

/// `hi - lo` if a remap over `lo..=hi` fits [`GroupTable::REMAP_DOMAIN`].
fn remap_span(lo: Value, hi: Value) -> Option<usize> {
    hi.checked_sub(lo)
        .and_then(|span| usize::try_from(span).ok())
        .filter(|&span| span < GroupTable::REMAP_DOMAIN)
}

/// Group keys → dense group ids: a flat open-addressed table whose keys
/// live in one arena (stride = key width; zero key columns make one group),
/// and, for one key column, a remap in front of it.
struct GroupTable {
    width: usize,
    /// Group `g`'s key is `keys[g * width..][..width]`.
    keys: Vec<Value>,
    groups: usize,
    /// Linear-probed slots holding group ids, [`GroupTable::FREE`] when
    /// unused; a power of two, at least twice `groups`.
    slots: Vec<u32>,
    /// One key column: key `remap_base + i` is group `remap[i] - 1`; 0
    /// until a batch holding that key looked it up.
    remap: Vec<u32>,
    remap_base: Value,
    /// The last batch's keys spanned more than the remap takes: batches
    /// probe per row until one fits again.
    wide: bool,
}

impl GroupTable {
    const FREE: u32 = u32::MAX;
    /// The widest single-column key domain `max - min + 1` a batch is
    /// remapped over (64 KiB of group ids, inside L2); wider domains probe
    /// per row.  Measured: a remap over 4 097–16 384 values assigns ids
    /// 2–5× faster than probing, and one over 65 536 gains nothing certain.
    const REMAP_DOMAIN: usize = 16_384;
    /// The rows of a batch that finds the remap empty whose keys are
    /// remapped before its loop: enough to find every key of a small
    /// domain, and a twentieth of the benchmark's batch.  Keys it misses
    /// go through the sink.
    const HEAD: usize = 1_024;

    fn new(width: usize) -> Self {
        Self {
            width,
            keys: Vec::new(),
            groups: 0,
            slots: vec![Self::FREE; 16],
            remap: Vec::new(),
            remap_base: 0,
            wide: false,
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

    /// The remap as it stands, for a loop to read.
    fn remap(&self) -> Remap<'_> {
        Remap {
            base: self.remap_base,
            slots: &self.remap,
        }
    }

    /// Points the remap at `lo..=hi`, unless it covers them already; if
    /// they span more than [`GroupTable::REMAP_DOMAIN`] values (or none),
    /// turns to probing per row instead.
    fn cover(&mut self, lo: Value, hi: Value) {
        let Some(span) = remap_span(lo, hi) else {
            self.remap.clear();
            self.wide = true;
            return;
        };
        let covered = lo
            .checked_sub(self.remap_base)
            .and_then(|offset| usize::try_from(offset).ok())
            .is_some_and(|offset| offset + span < self.remap.len());
        if !covered {
            self.remap_base = lo;
            self.remap.clear();
            self.remap.resize(span + 1, 0);
        }
    }

    /// Writes the slot of every row of `rows` into `slots` (indexed by
    /// physical row), probing for its key in `cols`: the pass for keys no
    /// remap takes — several columns, or one too wide.  A pass of its own,
    /// not inlined into the fold, and measured faster so.  With one column
    /// it watches the keys' span and turns back to the remap once a batch
    /// fits it.
    fn probe(&mut self, cols: &[&[Value]], rows: Rows, slots: &mut Vec<u32>) {
        slots.clear();
        slots.resize(rows.len, 0);
        if let [keys] = cols {
            let (mut lo, mut hi) = (Value::MAX, Value::MIN);
            rows.for_each(|row, _| {
                let key = keys[row];
                (lo, hi) = (lo.min(key), hi.max(key));
                slots[row] = self.find_or_insert(&[key]).0 + 1;
            });
            self.wide = remap_span(lo, hi).is_none();
        } else {
            let mut key = vec![0; cols.len()];
            rows.for_each(|row, _| {
                for (k, col) in key.iter_mut().zip(cols) {
                    *k = col[row];
                }
                slots[row] = self.find_or_insert(&key).0 + 1;
            });
        }
    }

    /// The state slot of one-column `key`, through the remap if it covers
    /// the key (filling its entry on first sight), by a probe otherwise.
    fn slot_of(&mut self, key: Value) -> usize {
        let i = key.wrapping_sub(self.remap_base) as usize;
        match self.remap.get(i) {
            Some(0) => {
                let slot = self.find_or_insert(&[key]).0 + 1;
                self.remap[i] = slot;
                slot as usize
            }
            Some(&slot) => slot as usize,
            None => self.find_or_insert(&[key]).0 as usize + 1,
        }
    }
}

/// A sum, min or max of a column: one value of each group's slot.  A
/// max is kept complemented (`!v` reverses the order of `i64`), so it
/// folds as a min does.
#[derive(Debug, Clone, Copy)]
struct Lane {
    col: usize,
    sum: bool,
    /// `-1` for a max (values are complemented on the way in and out), else 0.
    flip: Value,
}

impl Lane {
    /// The lane's value in a slot no row has reached.
    fn identity(self) -> Value {
        if self.sum {
            0
        } else {
            Value::MAX
        }
    }

    /// Folds `value` (flipped) into `state` under `mask` — all ones if the
    /// row counts, 0 if not — without a branch.
    #[inline(always)]
    fn fold(sum: bool, state: Value, value: Value, mask: Value) -> Value {
        if sum {
            state.wrapping_add(value & mask)
        } else {
            state.min(select_unpredictable(mask != 0, value, Value::MAX))
        }
    }
}

/// How a row folds into its slot: the inner step of the one loop.
trait Lanes: Copy {
    /// Values in a slot: the count and one a lane.
    fn width(&self) -> usize;

    /// The same lanes over columns cut to `len` rows, the batch's length.
    fn cut(self, _len: usize) -> Self {
        self
    }

    /// Folds physical row `row` into slot `slot` of `states`: one more in
    /// the count and the row's value in each lane if it counts, nothing
    /// if not.
    fn fold(&self, states: &mut [Value], slot: usize, row: usize, mask: Value);
}

/// `S` sums, then `L` mins and maxes — at most four lanes, the kinds in
/// that order — their columns read out of the batch once, so the loop
/// does no dispatch per row.
#[derive(Clone, Copy)]
struct Fixed<'a, const S: usize, const L: usize> {
    sums: [&'a [Value]; S],
    leasts: [&'a [Value]; L],
    flips: [Value; L],
}

impl<'a, const S: usize, const L: usize> Fixed<'a, S, L> {
    fn new(lanes: &[Lane], batch: &'a DataChunk) -> Self {
        debug_assert!(lanes.len() == S + L && (0..S + L).all(|a| lanes[a].sum == (a < S)));
        Self {
            sums: std::array::from_fn(|a| batch.physical_column(lanes[a].col)),
            leasts: std::array::from_fn(|b| batch.physical_column(lanes[S + b].col)),
            flips: std::array::from_fn(|b| lanes[S + b].flip),
        }
    }
}

impl<const S: usize, const L: usize> Lanes for Fixed<'_, S, L> {
    fn width(&self) -> usize {
        1 + S + L
    }

    #[inline(always)]
    fn cut(self, len: usize) -> Self {
        Self {
            sums: self.sums.map(|values| &values[..len]),
            leasts: self.leasts.map(|values| &values[..len]),
            ..self
        }
    }

    #[inline(always)]
    fn fold(&self, states: &mut [Value], slot: usize, row: usize, mask: Value) {
        let state = &mut states[slot * (1 + S + L)..(slot + 1) * (1 + S + L)];
        state[0] = state[0].wrapping_sub(mask);
        for a in 0..S {
            state[1 + a] = Lane::fold(true, state[1 + a], self.sums[a][row], mask);
        }
        for b in 0..L {
            let value = self.leasts[b][row] ^ self.flips[b];
            state[1 + S + b] = Lane::fold(false, state[1 + S + b], value, mask);
        }
    }
}

/// Any number of lanes, read as a list: aggregations of more than four
/// sums, mins and maxes.  The first [`Listed::HOISTED`] lanes' columns
/// are read out of the batch once; any beyond, each row.
#[derive(Clone, Copy)]
struct Listed<'a> {
    lanes: &'a [Lane],
    values: [&'a [Value]; Listed::HOISTED],
    batch: &'a DataChunk,
}

impl<'a> Listed<'a> {
    /// Measured on six aggregates: hoisting sixteen read slower than
    /// eight.
    const HOISTED: usize = 8;

    fn new(lanes: &'a [Lane], batch: &'a DataChunk) -> Self {
        let column = |a| {
            lanes
                .get(a)
                .map_or(&[][..], |lane: &Lane| batch.physical_column(lane.col))
        };
        Self {
            lanes,
            values: std::array::from_fn(column),
            batch,
        }
    }
}

impl Lanes for Listed<'_> {
    fn width(&self) -> usize {
        self.lanes.len() + 1
    }

    #[inline(always)]
    fn fold(&self, states: &mut [Value], slot: usize, row: usize, mask: Value) {
        let state = &mut states[slot * self.width()..][..self.width()];
        state[0] = state[0].wrapping_sub(mask);
        let hoisted = self.lanes.len().min(Listed::HOISTED);
        let (near, far) = state[1..].split_at_mut(hoisted);
        let lanes = self.lanes[..hoisted].iter().zip(&self.values);
        for (s, (lane, values)) in near.iter_mut().zip(lanes) {
            *s = Lane::fold(lane.sum, *s, values[row] ^ lane.flip, mask);
        }
        for (s, lane) in far.iter_mut().zip(&self.lanes[hoisted..]) {
            let value = self.batch.physical_column(lane.col)[row] ^ lane.flip;
            *s = Lane::fold(lane.sum, *s, value, mask);
        }
    }
}

/// Where the one loop finds a row's slot.
trait Slots {
    /// The same source over columns cut to `len` rows, the batch's length.
    fn cut(self, _len: usize) -> Self
    where
        Self: Sized,
    {
        self
    }

    /// The slot of physical row `row`; 0, the sink, if it has no group.
    fn slot(&mut self, row: usize, mask: Value) -> usize;
}

impl<F: FnMut(usize, Value) -> usize> Slots for F {
    #[inline(always)]
    fn slot(&mut self, row: usize, mask: Value) -> usize {
        self(row, mask)
    }
}

/// One key column read through the remap: the loop of most batches.
#[derive(Clone, Copy)]
struct Remapped<'a> {
    keys: &'a [Value],
    remap: Remap<'a>,
}

impl Slots for Remapped<'_> {
    #[inline(always)]
    fn cut(self, len: usize) -> Self {
        Self {
            keys: &self.keys[..len],
            ..self
        }
    }

    #[inline(always)]
    fn slot(&mut self, row: usize, _: Value) -> usize {
        self.remap.slot(self.keys[row])
    }
}

/// The one loop: every row of `rows` folds into the slot `slots` names
/// for it.  With `GROWS`, `states` grows for a slot not seen yet;
/// without, every slot must exist.  `true` if a row that counts went to
/// the sink: the sink's count moved.  Not inlined: each source of slots
/// and set of lanes gets a loop of its own.
#[inline(never)]
fn fold_rows<const GROWS: bool>(
    states: &mut Vec<Value>,
    identity: &[Value],
    lanes: impl Lanes,
    rows: Rows,
    slots: impl Slots,
) -> bool {
    debug_assert_eq!(lanes.width(), identity.len());
    // Every column cut to the loop's bound: no bounds check per row.
    let (lanes, mut slots) = (lanes.cut(rows.len), slots.cut(rows.len));
    let sunk = states[0];
    // The closures are forced inline: big lane sets would leave them a
    // call a row.
    if GROWS {
        rows.for_each(
            #[inline(always)]
            |row, mask| {
                let slot = slots.slot(row, mask);
                if (slot + 1) * identity.len() > states.len() {
                    grow(states, identity, slot + 1);
                }
                lanes.fold(states, slot, row, mask);
            },
        );
    } else {
        let states = &mut states[..];
        rows.for_each(
            #[inline(always)]
            |row, mask| lanes.fold(states, slots.slot(row, mask), row, mask),
        );
    }
    states[0] != sunk
}

/// Appends identity slots to `states` until it holds `slots`.
#[cold]
fn grow(states: &mut Vec<Value>, identity: &[Value], slots: usize) {
    while states.len() < slots * identity.len() {
        states.extend_from_slice(identity);
    }
}

/// A one-column remap's view for a loop: the state slot (group + 1) of
/// `key` is `slots[key - base]`, 0 (the sink) where it holds none.
#[derive(Clone, Copy)]
struct Remap<'a> {
    base: Value,
    slots: &'a [u32],
}

impl Remap<'_> {
    #[inline(always)]
    fn slot(self, key: Value) -> usize {
        let i = key.wrapping_sub(self.base) as usize;
        match self.slots.get(i) {
            Some(&slot) => slot as usize,
            None => {
                cold_path();
                0
            }
        }
    }
}

/// The running state of a list of aggregates over a number of groups:
/// one flat array of slots, one a group, each holding its row count and
/// then one value a lane (a sum, min or max) side by side; every `Count`
/// reads the count.  Slot 0 is a sink for rows whose group is not known
/// yet and is never read; group `g` is slot `g + 1`.
struct Accumulators {
    funcs: Vec<AggFunc>,
    /// The sums, then the mins and maxes, each in list order.
    lanes: Vec<Lane>,
    /// Where each aggregate's value sits in a slot: 0 for a count.
    outputs: Vec<usize>,
    /// A slot no row has reached: a zero count, then each lane's identity.
    identity: Vec<Value>,
    states: Vec<Value>,
}

impl Accumulators {
    fn new(funcs: &[AggFunc]) -> Self {
        assert!(
            !funcs.is_empty(),
            "an aggregation needs at least one aggregate"
        );
        let lane = |func| match func {
            AggFunc::Count => None,
            AggFunc::Sum(col) => Some(Lane {
                col,
                sum: true,
                flip: 0,
            }),
            AggFunc::Min(col) => Some(Lane {
                col,
                sum: false,
                flip: 0,
            }),
            AggFunc::Max(col) => Some(Lane {
                col,
                sum: false,
                flip: -1,
            }),
        };
        let mut order: Vec<usize> = (0..funcs.len())
            .filter(|&a| lane(funcs[a]).is_some())
            .collect();
        order.sort_by_key(|&a| !lane(funcs[a]).is_some_and(|l| l.sum));
        let lanes: Vec<Lane> = order.iter().filter_map(|&a| lane(funcs[a])).collect();
        let mut outputs = vec![0; funcs.len()];
        for (i, &a) in order.iter().enumerate() {
            outputs[a] = 1 + i;
        }
        let identity: Vec<Value> = std::iter::once(0)
            .chain(lanes.iter().map(|lane| lane.identity()))
            .collect();
        Self {
            funcs: funcs.to_vec(),
            states: identity.clone(),
            lanes,
            outputs,
            identity,
        }
    }

    /// Keeps the sink and the first `groups` groups, starting any new one
    /// at the identity.
    fn resize(&mut self, groups: usize) {
        self.states.truncate((groups + 1) * self.identity.len());
        grow(&mut self.states, &self.identity, groups + 1);
    }

    /// Makes room for `groups` groups without growing.
    fn reserve(&mut self, groups: usize) {
        let slots = (groups + 1) * self.identity.len();
        self.states.reserve(slots.saturating_sub(self.states.len()));
    }

    /// The rows that counted into group `group`.
    fn count(&self, group: usize) -> Value {
        self.states[(group + 1) * self.identity.len()]
    }

    /// Group `group`'s value of aggregate `a`.
    fn state(&self, group: usize, a: usize) -> Value {
        let at = self.outputs[a];
        let value = self.states[(group + 1) * self.identity.len() + at];
        match at {
            0 => value,
            _ => value ^ self.lanes[at - 1].flip,
        }
    }

    /// Folds `rows` of `batch` into the slots `slots` names, in one loop
    /// (see [`fold_rows`]) whose lanes fit the aggregate list.
    fn fold<const GROWS: bool>(
        &mut self,
        batch: &DataChunk,
        rows: Rows,
        slots: impl Slots,
    ) -> bool {
        let Self {
            lanes,
            identity,
            states,
            ..
        } = self;
        let sums = lanes.iter().filter(|lane| lane.sum).count();
        macro_rules! fixed {
            ($(($s:literal, $l:literal))*) => {
                match (sums, lanes.len() - sums) {
                    $(($s, $l) => {
                        let lanes = Fixed::<$s, $l>::new(lanes, batch);
                        fold_rows::<GROWS>(states, identity, lanes, rows, slots)
                    })*
                    _ => fold_rows::<GROWS>(states, identity, Listed::new(lanes, batch), rows, slots),
                }
            };
        }
        fixed!(
            (0, 0)(1, 0)(0, 1)(2, 0)(1, 1)(0, 2)(3, 0)(2, 1)(1, 2)(0, 3)(4, 0)(3, 1)(2, 2)(1, 3)(
                0, 4
            )
        )
    }

    /// Merges group `from` of `other` (same aggregate list) into `into`.
    fn merge_group(&mut self, into: usize, other: &Accumulators, from: usize) {
        let width = self.identity.len();
        let theirs = &other.states[(from + 1) * width..][..width];
        let ours = &mut self.states[(into + 1) * width..][..width];
        ours[0] = ours[0].wrapping_add(theirs[0]);
        for ((s, &t), lane) in ours[1..].iter_mut().zip(&theirs[1..]).zip(&self.lanes) {
            *s = Lane::fold(lane.sum, *s, t, -1);
        }
    }
}

/// One output row per group — the key columns, then one column per
/// aggregate — ordered by key.
fn emit_sorted(table: &GroupTable, acc: &Accumulators) -> DataChunk {
    // A group no counting row reached was made for a rejected row's key.
    let mut order: Vec<usize> = (0..table.len()).filter(|&g| acc.count(g) > 0).collect();
    order.sort_unstable_by(|&a, &b| table.key(a).cmp(table.key(b)));
    let keys = (0..table.width).map(|k| order.iter().map(|&g| table.key(g)[k]).collect());
    let aggregates = (0..acc.funcs.len()).map(|a| order.iter().map(|&g| acc.state(g, a)).collect());
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
    /// The physical rows of the batch being folded that went to the sink,
    /// or that a probed batch keeps.
    missed: Vec<u32>,
    /// A probed batch's slot of each physical row.
    slots: Vec<u32>,
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
            missed: Vec::new(),
            slots: Vec::new(),
            done: false,
        }
    }

    /// Folds the rows of `batch` that `range` (if any) keeps.
    fn fold(&mut self, batch: &DataChunk, range: Option<ColumnRange>) {
        let rows = Rows::of(batch, range);
        let (table, acc) = (&mut self.table, &mut self.acc);
        match self.key_cols[..] {
            [] => {
                if table.len() == 0 {
                    table.find_or_insert(&[]);
                    acc.resize(1);
                }
                acc.fold::<false>(batch, rows, |_: usize, _: Value| 1);
            }
            [col] if !table.wide => {
                let keys = &batch.physical_column(col)[..rows.len];
                if table.remap.is_empty() {
                    // Nothing remapped yet: remap the keys of the batch's
                    // first rows before the loop, so that it finds most of
                    // its keys; the rest go through the sink like any new key.
                    let head = rows.head(GroupTable::HEAD);
                    let (mut lo, mut hi) = (Value::MAX, Value::MIN);
                    head.for_each(|row, _| (lo, hi) = (lo.min(keys[row]), hi.max(keys[row])));
                    if lo > hi {
                        return; // an empty batch
                    }
                    table.cover(lo, hi);
                    if table.wide {
                        return self.probe(batch, rows);
                    }
                    head.for_each(|row, _| {
                        table.slot_of(keys[row]);
                    });
                    acc.resize(table.len());
                }
                let remapped = Remapped {
                    keys,
                    remap: table.remap(),
                };
                if acc.fold::<false>(batch, rows, remapped) {
                    // New keys went to the sink: learn them, fold their rows.
                    self.learn(rows, keys);
                    let table = &mut self.table;
                    self.acc.fold::<true>(
                        batch,
                        Rows::selected(rows.len, &self.missed),
                        |row: usize, _: Value| table.slot_of(keys[row]),
                    );
                }
            }
            _ => self.probe(batch, rows),
        }
    }

    /// Lists in `missed` the counting rows of `rows` whose key the remap
    /// has no group for, and points the remap at the counting keys.
    fn learn(&mut self, rows: Rows, keys: &[Value]) {
        let (table, missed) = (&mut self.table, &mut self.missed);
        missed.clear();
        missed.reserve(rows.count());
        let remap = table.remap();
        let (mut lo, mut hi) = (Value::MAX, Value::MIN);
        rows.for_each(|row, mask| {
            if mask != 0 {
                let key = keys[row];
                (lo, hi) = (lo.min(key), hi.max(key));
                if remap.slot(key) == 0 {
                    missed.push(row as u32);
                }
            }
        });
        table.cover(lo, hi);
    }

    /// Folds the rows of a batch whose keys no remap takes — several key
    /// columns, or one too wide — after a pass that probes their groups.
    fn probe(&mut self, batch: &DataChunk, rows: Rows) {
        // A probe would give a rejected row's key a group: probe the kept
        // rows only, picked out without a branch, as a filter would.
        let rows = match rows.pick {
            Pick::Masked(values, range) => {
                select_all(&mut self.missed, &values[..rows.len], |v| range.contains(v));
                Rows::selected(rows.len, &self.missed)
            }
            _ => rows,
        };
        let (table, slots) = (&mut self.table, &mut self.slots);
        match self.key_cols[..] {
            [col] => table.probe(&[batch.physical_column(col)], rows, slots),
            _ => {
                let cols: Vec<&[Value]> = self
                    .key_cols
                    .iter()
                    .map(|&c| batch.physical_column(c))
                    .collect();
                table.probe(&cols, rows, slots);
            }
        }
        self.acc.resize(table.len());
        let slots = &slots[..];
        self.acc
            .fold::<false>(batch, rows, |row: usize, _: Value| slots[row] as usize);
    }
}

impl<O: Operator> Operator for HashAggregate<O> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        loop {
            let mut deferred = Deferred::default();
            let Some(batch) = self.input.next_deferring(&mut deferred)? else {
                break;
            };
            self.fold(&batch, deferred.0);
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

    /// Aggregates each key run of `batch` (sorted on the key within the
    /// chunk) as a group of its own, in one loop over its rows.
    fn aggregate_runs(&mut self, batch: &DataChunk) {
        let rows = Rows::of(batch, None);
        let keys = batch.physical_column(self.key_col);
        let run_keys = &mut self.run_keys;
        run_keys.clear();
        self.runs.resize(0);
        // Room for a run a row, so the buffers grow once, not per run.
        run_keys.reserve(batch.len());
        self.runs.reserve(batch.len());
        self.runs.fold::<true>(batch, rows, |row: usize, _: Value| {
            if run_keys.last() != Some(&keys[row]) {
                run_keys.push(keys[row]);
            }
            run_keys.len()
        });
        debug_assert!(
            run_keys.windows(2).all(|w| w[0] < w[1]),
            "input is not clustered on the key column within chunk {:?}",
            batch.chunk
        );
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
                let runs = &self.runs;
                let aggregates =
                    (0..runs.funcs.len()).map(|a| (1..last).map(|r| runs.state(r, a)).collect());
                let columns = std::iter::once(self.run_keys[1..last].to_vec())
                    .chain(aggregates)
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
