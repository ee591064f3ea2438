//! Kernel correctness: the vectorised `Filter`, `HashAggregate` and
//! `ChunkOrderedAggregate` (selection vectors, the flat group table, the
//! per-aggregate loops) property-tested against a row-at-a-time oracle that
//! lives only here.
//!
//! The oracle works on materialized rows (`Vec<Vec<i64>>`): it evaluates an
//! [`Expr`] by recursion on one row, groups through a `BTreeMap` keyed by
//! the key values, and accumulates sums in `i128` before truncating — the
//! executor's behaviour before it was vectorised, which the rewrite must
//! reproduce bit for bit.  Values include `i64::MIN`/`MAX`, negatives, tiny
//! domains (every row a duplicate key) and multiples of 2³² and 2⁴⁸ (keys
//! that agree in their low bits).

use cscan_core::session::ScanError;
use cscan_exec::ops::collect;
use cscan_exec::{
    merge_join, AggFunc, ChunkOrderedAggregate, DataChunk, Expr, Filter, HashAggregate, Operator,
    Project,
};
use cscan_storage::ChunkId;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Row = Vec<i64>;

/// Number of columns of every generated batch.
const WIDTH: usize = 3;

// ----------------------------------------------------------------------
// The oracle.
// ----------------------------------------------------------------------

fn eval_row(e: &Expr, row: &[i64]) -> i64 {
    let b = |e: &Expr| eval_row(e, row);
    match e {
        Expr::Col(c) => row[*c],
        Expr::Const(v) => *v,
        Expr::Add(x, y) => b(x).wrapping_add(b(y)),
        Expr::Sub(x, y) => b(x).wrapping_sub(b(y)),
        Expr::Mul(x, y) => b(x).wrapping_mul(b(y)),
        Expr::Eq(x, y) => (b(x) == b(y)) as i64,
        Expr::Lt(x, y) => (b(x) < b(y)) as i64,
        Expr::Le(x, y) => (b(x) <= b(y)) as i64,
        Expr::Ge(x, y) => (b(x) >= b(y)) as i64,
        Expr::And(x, y) => (b(x) != 0 && b(y) != 0) as i64,
        Expr::Between(x, lo, hi) => (*lo <= b(x) && b(x) <= *hi) as i64,
    }
}

fn oracle_filter(rows: &[Row], pred: &Expr) -> Vec<Row> {
    rows.iter()
        .filter(|r| eval_row(pred, r) != 0)
        .cloned()
        .collect()
}

/// One output row per group, ordered by key: the key, then the aggregates.
fn oracle_aggregate(rows: &[Row], key_cols: &[usize], funcs: &[AggFunc]) -> Vec<Row> {
    #[derive(Clone)]
    struct State {
        sum: i128,
        count: u64,
        min: i64,
        max: i64,
    }
    let fresh = State {
        sum: 0,
        count: 0,
        min: i64::MAX,
        max: i64::MIN,
    };
    let mut groups: BTreeMap<Row, Vec<State>> = BTreeMap::new();
    for row in rows {
        let key: Row = key_cols.iter().map(|&c| row[c]).collect();
        let states = groups
            .entry(key)
            .or_insert_with(|| vec![fresh.clone(); funcs.len()]);
        for (state, func) in states.iter_mut().zip(funcs) {
            state.count += 1;
            if let AggFunc::Sum(c) | AggFunc::Min(c) | AggFunc::Max(c) = *func {
                state.sum += row[c] as i128;
                state.min = state.min.min(row[c]);
                state.max = state.max.max(row[c]);
            }
        }
    }
    groups
        .into_iter()
        .map(|(mut out, states)| {
            out.extend(states.iter().zip(funcs).map(|(s, f)| match f {
                AggFunc::Sum(_) => s.sum as i64,
                AggFunc::Count => s.count as i64,
                AggFunc::Min(_) => s.min,
                AggFunc::Max(_) => s.max,
            }));
            out
        })
        .collect()
}

// ----------------------------------------------------------------------
// Plumbing: rows <-> batches, and a leaf that replays batches.
// ----------------------------------------------------------------------

/// A leaf operator replaying prepared batches.
struct Replay(std::vec::IntoIter<DataChunk>);

impl Replay {
    fn new(batches: &[Vec<Row>]) -> Replay {
        let chunks: Vec<DataChunk> = batches
            .iter()
            .enumerate()
            .map(|(i, rows)| to_chunk(i as u32, rows))
            .collect();
        Replay(chunks.into_iter())
    }
}

impl Operator for Replay {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        Ok(self.0.next())
    }
}

fn to_chunk(id: u32, rows: &[Row]) -> DataChunk {
    let columns = (0..WIDTH)
        .map(|c| rows.iter().map(|r| r[c]).collect())
        .collect();
    DataChunk::new(ChunkId::new(id), columns)
}

fn rows_of(chunk: &DataChunk) -> Vec<Row> {
    (0..chunk.len()).map(|i| chunk.row(i)).collect()
}

fn flat(batches: &[Vec<Row>]) -> Vec<Row> {
    batches.concat()
}

/// Everything the physical/logical rule of `vector.rs` promises about one
/// batch: `len`, `is_empty`, `row`, `gather` and `compact` all agree with
/// the selection, and a dense batch's raw slices agree with its rows.
fn assert_logically_consistent(batch: &DataChunk) {
    if let Some(sel) = batch.selection() {
        assert_eq!(batch.len(), sel.len());
        assert!(sel.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
    }
    assert_eq!(batch.is_empty(), rows_of(batch).is_empty());
    let rows = rows_of(batch);
    let dense = batch.clone().compact();
    assert_eq!(dense.selection(), None);
    assert_eq!(&dense, batch, "compaction keeps the logical rows");
    for c in 0..batch.width() {
        let expected: Vec<i64> = rows.iter().map(|r| r[c]).collect();
        let mut gathered = Vec::new();
        batch.gather(c, &mut gathered);
        assert_eq!(gathered, expected);
        assert_eq!(dense.column(c), expected.as_slice());
    }
}

/// `HashAggregate` over `batches` equals the oracle twice: over the dense
/// batches, and over the selected batches `pred` leaves.
fn assert_hash_aggregate_matches(
    batches: &[Vec<Row>],
    pred: &Expr,
    key_cols: &[usize],
    funcs: &[AggFunc],
) {
    let mut agg = HashAggregate::new(Replay::new(batches), key_cols.to_vec(), funcs.to_vec());
    let out = agg.next().unwrap().unwrap();
    assert!(agg.next().unwrap().is_none());
    assert_eq!(
        rows_of(&out),
        oracle_aggregate(&flat(batches), key_cols, funcs),
        "dense, keys {key_cols:?}, {funcs:?}"
    );
    let filtered = Filter::new(Replay::new(batches), pred.clone());
    let out = collect(&mut HashAggregate::new(
        filtered,
        key_cols.to_vec(),
        funcs.to_vec(),
    ));
    let survivors = oracle_filter(&flat(batches), pred);
    assert_eq!(
        rows_of(&out),
        oracle_aggregate(&survivors, key_cols, funcs),
        "selected by {pred:?}, keys {key_cols:?}, {funcs:?}"
    );
}

// ----------------------------------------------------------------------
// Generators.
// ----------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = i64> {
    prop_oneof![
        -2i64..3,
        -2i64..3,
        -1_000i64..1_000,
        Just(i64::MIN),
        Just(i64::MAX),
        // Equal low bits: a table that only looked at those would chain.
        (-3i64..4).prop_map(|k| k << 32),
        (-3i64..4).prop_map(|k| (k << 48) | 7),
        i64::MIN..=i64::MAX,
    ]
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(prop::collection::vec(arb_value(), WIDTH), 0..max)
}

/// One to four batches; empty ones included.
fn arb_batches() -> impl Strategy<Value = Vec<Vec<Row>>> {
    prop::collection::vec(arb_rows(120), 1..5)
}

/// `column ⋄ constant` and `Between` on a column: the direct kernels.
fn arb_simple_pred() -> impl Strategy<Value = Expr> {
    let col = || (0..WIDTH).prop_map(Expr::col);
    let lit = || arb_value().prop_map(Expr::lit);
    prop_oneof![
        (col(), lit()).prop_map(|(c, v)| c.eq(v)),
        (col(), lit()).prop_map(|(c, v)| c.lt(v)),
        (col(), lit()).prop_map(|(c, v)| c.le(v)),
        (col(), lit()).prop_map(|(c, v)| c.ge(v)),
        (col(), arb_value(), arb_value()).prop_map(|(c, a, b)| c.between(a.min(b), a.max(b))),
        // All pass / none pass.
        col().prop_map(|c| c.ge(Expr::lit(i64::MIN))),
        col().prop_map(|c| c.lt(Expr::lit(i64::MIN))),
    ]
}

/// Predicates that take the general evaluator: arithmetic, a constant on
/// the left, column-to-column comparisons, a bare column as a truth value.
fn arb_general_pred() -> impl Strategy<Value = Expr> {
    let col = || (0..WIDTH).prop_map(Expr::col);
    let lit = || arb_value().prop_map(Expr::lit);
    prop_oneof![
        col(),
        (col(), col()).prop_map(|(a, b)| a.le(b)),
        (lit(), col()).prop_map(|(v, c)| v.lt(c)),
        (col(), col(), lit(), lit()).prop_map(|(a, b, k, v)| a.add(b).mul(k).le(v)),
        (col(), lit(), -50i64..50).prop_map(|(a, k, lo)| a.sub(k).between(lo, lo + 40)),
        (col(), col(), col()).prop_map(|(a, b, c)| a.mul(b).sub(c.clone()).eq(c)),
        (col(), col(), lit()).prop_map(|(a, b, v)| a.eq(b.clone()).and(b.ge(v)).eq(Expr::lit(1))),
    ]
}

fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = || prop_oneof![arb_simple_pred(), arb_simple_pred(), arb_general_pred()];
    prop_oneof![
        leaf(),
        (leaf(), leaf()).prop_map(|(a, b)| a.and(b)),
        (leaf(), leaf(), leaf()).prop_map(|(a, b, c)| a.and(b.and(c))),
        (leaf(), leaf(), leaf(), leaf()).prop_map(|(a, b, c, d)| a.and(b).and(c.and(d))),
    ]
}

fn arb_funcs() -> impl Strategy<Value = Vec<AggFunc>> {
    let col = || 0..WIDTH;
    prop::collection::vec(
        prop_oneof![
            Just(AggFunc::Count),
            col().prop_map(AggFunc::Sum),
            col().prop_map(AggFunc::Min),
            col().prop_map(AggFunc::Max),
        ],
        1..5,
    )
}

/// Zero, one or two key columns.
fn arb_key_cols() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..WIDTH, 0..3)
}

// ----------------------------------------------------------------------
// Properties.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn filter_matches_the_row_oracle(batches in arb_batches(), pred in arb_pred()) {
        let mut filter = Filter::new(Replay::new(&batches), pred.clone());
        let mut input = batches.iter().filter(|b| !oracle_filter(b, &pred).is_empty());
        // Batch by batch: the survivors of one input batch, never an empty
        // batch, and every accessor honouring the selection.
        while let Some(out) = filter.next().unwrap() {
            let source = input.next().expect("an output batch per surviving input batch");
            prop_assert!(!out.is_empty());
            assert_logically_consistent(&out);
            prop_assert_eq!(rows_of(&out), oracle_filter(source, &pred));
        }
        prop_assert!(input.next().is_none());
        // And through the compacting consumer.
        let collected = collect(&mut Filter::new(Replay::new(&batches), pred.clone()));
        prop_assert_eq!(rows_of(&collected), oracle_filter(&flat(&batches), &pred));
    }

    #[test]
    fn stacked_filters_refine_the_selection(
        batches in arb_batches(),
        first in arb_pred(),
        second in arb_pred(),
    ) {
        let mut stacked =
            Filter::new(Filter::new(Replay::new(&batches), first.clone()), second.clone());
        let expected = oracle_filter(&oracle_filter(&flat(&batches), &first), &second);
        prop_assert_eq!(rows_of(&collect(&mut stacked)), expected);
    }

    #[test]
    fn hash_aggregate_matches_the_row_oracle(
        batches in arb_batches(),
        pred in arb_pred(),
        key_cols in arb_key_cols(),
        funcs in arb_funcs(),
    ) {
        assert_hash_aggregate_matches(&batches, &pred, &key_cols, &funcs);
    }

    #[test]
    fn chunk_ordered_aggregate_matches_the_row_oracle(
        mut rows in arb_rows(400),
        cuts in prop::collection::vec(0usize..400, 0..6),
        rotate in 0usize..6,
        pred in arb_pred(),
        funcs in arb_funcs(),
    ) {
        // Cluster the table on column 0, cut it into chunks at arbitrary
        // places (runs straddle chunk borders; some chunks are empty, some
        // hold one run), and deliver the chunks out of order.
        rows.sort();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
        cuts.extend([0, rows.len()]);
        cuts.sort_unstable();
        let mut batches: Vec<Vec<Row>> = cuts.windows(2).map(|w| rows[w[0]..w[1]].to_vec()).collect();
        let by = rotate % batches.len();
        batches.rotate_left(by);
        for filtered in [false, true] {
            let (out, expected) = if filtered {
                let input = Filter::new(Replay::new(&batches), pred.clone());
                let mut agg = ChunkOrderedAggregate::new(input, 0, funcs.clone());
                (collect(&mut agg), oracle_filter(&rows, &pred))
            } else {
                let mut agg = ChunkOrderedAggregate::new(Replay::new(&batches), 0, funcs.clone());
                let out = collect(&mut agg);
                prop_assert_eq!(agg.pending_border_groups(), 0, "flushed");
                (out, rows.clone())
            };
            // Interior groups stream per chunk and the stitched border
            // groups come last: compare as sets of rows.
            let mut got = rows_of(&out);
            got.sort();
            prop_assert_eq!(got, oracle_aggregate(&expected, &[0], &funcs));
        }
    }

    #[test]
    fn filtered_batches_flow_into_project_and_merge_join(
        left in arb_rows(60),
        right in arb_rows(60),
        pred in arb_pred(),
        exprs in prop::collection::vec(prop_oneof![
            (0..WIDTH).prop_map(Expr::col),
            arb_general_pred(),
            (0..WIDTH, arb_value()).prop_map(|(c, v)| Expr::col(c).mul(Expr::lit(v))),
        ], 1..4),
    ) {
        // Project evaluates over the selected rows only, densely.
        let batches = vec![left.clone(), right.clone()];
        let mut project = Project::new(Filter::new(Replay::new(&batches), pred.clone()), exprs.clone());
        let mut got = Vec::new();
        while let Some(out) = project.next().unwrap() {
            prop_assert_eq!(out.selection(), None);
            got.extend(rows_of(&out));
        }
        let expected: Vec<Row> = oracle_filter(&flat(&batches), &pred)
            .iter()
            .map(|r| exprs.iter().map(|e| eval_row(e, r)).collect())
            .collect();
        prop_assert_eq!(got, expected);
        // Over a dense batch (a bare column is passed through shared).
        let dense = collect(&mut Project::new(Replay::new(&batches), exprs.clone()));
        let expected: Vec<Row> = flat(&batches)
            .iter()
            .map(|r| exprs.iter().map(|e| eval_row(e, r)).collect())
            .collect();
        prop_assert_eq!(rows_of(&dense), expected);

        // merge_join sees the selected rows of both sides.
        let sorted = |mut rows: Vec<Row>| { rows.sort(); rows };
        let (left, right) = (sorted(left), sorted(right));
        let select = |rows: &[Row]| {
            Filter::new(Replay::new(&[rows.to_vec()]), pred.clone()).next().unwrap()
        };
        if let (Some(l), Some(r)) = (select(&left), select(&right)) {
            let joined = merge_join(&l, 0, &r, 0);
            prop_assert_eq!(joined.selection(), None);
            let mut expected = Vec::new();
            for lr in oracle_filter(&left, &pred) {
                for rr in oracle_filter(&right, &pred) {
                    if lr[0] == rr[0] {
                        expected.push(vec![lr[0], lr[1], lr[2], rr[1], rr[2]]);
                    }
                }
            }
            prop_assert_eq!(sorted(rows_of(&joined)), sorted(expected));
        }
    }
}

/// Thousands of distinct keys — consecutive, strided by 2³² (equal low
/// halves) and at both ends of the domain — drive the table through many
/// doublings; every group must survive each rehash with its state.
#[test]
fn group_table_grows_past_many_rehashes() {
    let keys = |i: i64| match i % 4 {
        0 => i,
        1 => i << 32,
        2 => i64::MIN + i,
        _ => i64::MAX - i,
    };
    let batches: Vec<Vec<Row>> = (0..6)
        .map(|b| {
            (0..1_500i64)
                .map(|i| vec![keys((i * 7 + b) % 5_000), keys(i % 3), i - 700])
                .collect()
        })
        .collect();
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum(2),
        AggFunc::Min(2),
        AggFunc::Max(2),
    ];
    for key_cols in [vec![0], vec![0, 1]] {
        let mut agg = HashAggregate::new(Replay::new(&batches), key_cols.clone(), funcs.to_vec());
        let out = agg.next().unwrap().unwrap();
        assert!(out.len() > 3_000, "{} groups", out.len());
        assert_eq!(
            rows_of(&out),
            oracle_aggregate(&flat(&batches), &key_cols, &funcs)
        );
    }
}

/// No input rows: no groups, not even for the key-less aggregate.
#[test]
fn aggregates_of_nothing_are_empty() {
    let nothing = vec![Vec::new(), Vec::new()];
    let none_pass = Expr::col(0).lt(Expr::lit(i64::MIN));
    let some = vec![vec![vec![1, 2, 3], vec![4, 5, 6]]];
    for key_cols in [vec![], vec![1]] {
        let mut agg = HashAggregate::new(
            Replay::new(&nothing),
            key_cols.clone(),
            vec![AggFunc::Count],
        );
        let out = agg.next().unwrap().unwrap();
        assert_eq!((out.len(), out.width()), (0, key_cols.len() + 1));
        let filtered = Filter::new(Replay::new(&some), none_pass.clone());
        let mut agg = HashAggregate::new(filtered, key_cols, vec![AggFunc::Min(0)]);
        assert!(agg.next().unwrap().unwrap().is_empty());
    }
    let mut ordered = ChunkOrderedAggregate::new(Replay::new(&nothing), 0, vec![AggFunc::Count]);
    assert!(ordered.next().unwrap().is_none());
}

// ----------------------------------------------------------------------
// The edges of the kernels: the range select's 64-row blocks, the
// one-key-column remap and its domain cutoff, and the folds' lanes.
// ----------------------------------------------------------------------

/// Every aggregate, over column 2.
const ALL_FUNCS: [AggFunc; 4] = [
    AggFunc::Count,
    AggFunc::Sum(2),
    AggFunc::Min(2),
    AggFunc::Max(2),
];

/// `n` rows whose column 0 is `key(i)`, column 1 is `i` and column 2 a
/// value with both signs.
fn keyed_rows(n: usize, key: impl Fn(usize) -> i64) -> Vec<Row> {
    (0..n)
        .map(|i| vec![key(i), i as i64, (i as i64 * 7_919) % 2_003 - 1_000])
        .collect()
}

/// Keeps about seven rows in ten, at uneven positions (column 2 of
/// [`keyed_rows`] is a scrambled `-1000..=1002`).
fn most_rows() -> Expr {
    Expr::col(2).ge(Expr::lit(-400))
}

#[test]
fn range_select_across_block_edges() {
    for n in [0, 1, 63, 64, 65, 127, 128, 129, 1_000] {
        let rows = keyed_rows(n, |i| (i % 5) as i64);
        let batches = vec![rows];
        for pred in [
            Expr::col(1).ge(Expr::lit(0)),            // every row
            Expr::col(1).lt(Expr::lit(0)),            // none
            Expr::col(1).lt(Expr::lit(i64::MIN)),     // an empty range
            Expr::col(0).eq(Expr::lit(3)),            // one in five
            Expr::col(1).between(63, 64),             // straddles a block edge
            Expr::col(2).between(i64::MIN, i64::MAX), // the full domain
            most_rows(),                              // uneven
            Expr::col(0)
                .le(Expr::lit(3))
                .and(Expr::col(2).le(Expr::lit(0))),
        ] {
            let got = collect(&mut Filter::new(Replay::new(&batches), pred.clone()));
            assert_eq!(
                rows_of(&got),
                oracle_filter(&batches[0], &pred),
                "{n} rows, {pred:?}"
            );
        }
    }
}

/// One key column whose domain `max - min + 1` is on either side of the
/// remap's 16 384 values, at several offsets (negative, near both ends of
/// `i64`), dense and selected.
#[test]
fn key_domains_on_both_sides_of_the_remap_cutoff() {
    for domain in [1usize, 2, 3, 16_383, 16_384, 16_385, 16_386, 40_000] {
        for base in [0i64, -2_048, i64::MIN, i64::MAX - domain as i64 + 1] {
            // Both ends of the domain in every batch, the middle spread.
            let key = |i: usize| base + ((i * 2_654_435_761) % domain) as i64;
            let rows = keyed_rows(3 * domain.min(2_000) + 7, |i| match i {
                0 => base,
                1 => base + (domain - 1) as i64,
                _ => key(i),
            });
            let batches = vec![rows.clone(), rows[..rows.len() / 2].to_vec(), rows];
            assert_hash_aggregate_matches(&batches, &most_rows(), &[0], &ALL_FUNCS);
        }
    }
}

/// `i64::MIN` and `i64::MAX` in one batch: `max - min` overflows, and the
/// batch must fall back to probing without losing the groups a narrow
/// batch before and after it found.
#[test]
fn extreme_keys_in_one_batch_overflow_the_domain() {
    let narrow = keyed_rows(300, |i| (i % 7) as i64 - 3);
    let extreme = keyed_rows(300, |i| match i % 5 {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        3 => i64::MIN + 1,
        _ => (i % 7) as i64 - 3,
    });
    let batches = vec![narrow.clone(), extreme, narrow];
    for funcs in [&ALL_FUNCS[..], &[AggFunc::Count]] {
        assert_hash_aggregate_matches(&batches, &most_rows(), &[0], funcs);
    }
}

/// A key first seen in a later batch — inside the remap's range, outside
/// it, after the remap moved, after a batch too wide to remap — gets one
/// group id, so the output holds one row per key.
#[test]
fn a_key_first_seen_later_keeps_one_group() {
    let batches = vec![
        keyed_rows(100, |i| (i % 2) as i64),          // {0, 1}
        keyed_rows(100, |i| (i % 3) as i64),          // 2 is new, inside
        keyed_rows(100, |i| 100 + (i % 4) as i64),    // the remap moves
        keyed_rows(100, |i| (i % 5) as i64),          // back: 3, 4 new
        keyed_rows(100, |i| 1 + (i % 2) as i64),      // inside, neither end
        keyed_rows(100, |i| (i as i64 - 50) * 1_000), // too wide: probes
        keyed_rows(100, |i| (i % 6) as i64 - 1),      // -1 new, 0..=4 old
        keyed_rows(100, |i| 5_000 + (i % 2) as i64),  // far away, narrow
        keyed_rows(100, |i| (i % 3) as i64 + 100),    // back to 100..
    ];
    assert_hash_aggregate_matches(&batches, &most_rows(), &[0], &ALL_FUNCS);
    let mut agg = HashAggregate::new(Replay::new(&batches), vec![0], vec![AggFunc::Count]);
    let out = agg.next().unwrap().unwrap();
    let keys = out.column(0);
    assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "one row per key: {keys:?}"
    );
    assert_eq!(out.column(1).iter().sum::<i64>(), 900);
}

/// Group counts below, at and above the lane count and the most groups
/// the folds keep lanes for, over batches whose length is not a multiple
/// of the lane count.
#[test]
fn more_groups_than_any_lane_width() {
    for groups in [1usize, 2, 3, 4, 5, 63, 64, 65, 66, 300, 5_000] {
        for rows in [1usize, 3, 4, 5, 1_001] {
            let rows = rows.max(groups / 4);
            let batches = vec![
                keyed_rows(rows, |i| (i % groups) as i64),
                keyed_rows(rows + 2, |i| ((i * 31) % groups) as i64),
            ];
            assert_hash_aggregate_matches(&batches, &most_rows(), &[0], &ALL_FUNCS);
        }
    }
}

/// No key column (one group) and two key columns, over batches of
/// several shapes, dense and selected.
#[test]
fn zero_and_multi_key_groupings() {
    let batches = vec![
        keyed_rows(1_001, |i| (i % 3) as i64),
        Vec::new(),
        keyed_rows(5, |i| i64::MAX - i as i64),
        keyed_rows(700, |i| (i as i64) << 32),
    ];
    for key_cols in [vec![], vec![0, 1], vec![1, 0], vec![0, 2], vec![0, 0]] {
        assert_hash_aggregate_matches(&batches, &most_rows(), &key_cols, &ALL_FUNCS);
    }
}

/// The ordered aggregate shares the folds: runs few enough to take the
/// lanes, and many, straddling chunk borders.
#[test]
fn chunk_ordered_aggregate_folds_few_and_many_runs() {
    for run in [1usize, 3, 250, 1_000] {
        let rows = keyed_rows(4_003, |i| (i / run) as i64 - 7);
        let batches: Vec<Vec<Row>> = rows.chunks(999).map(<[Row]>::to_vec).collect();
        for pred in [Expr::col(1).ge(Expr::lit(0)), most_rows()] {
            let input = Filter::new(Replay::new(&batches), pred.clone());
            let mut agg = ChunkOrderedAggregate::new(input, 0, ALL_FUNCS.to_vec());
            let mut got = rows_of(&collect(&mut agg));
            got.sort();
            assert_eq!(
                got,
                oracle_aggregate(&oracle_filter(&rows, &pred), &[0], &ALL_FUNCS),
                "runs of {run}, {pred:?}"
            );
        }
    }
}
