//! Release-only gate on the speed of the vectorised kernels: the
//! benchmark's pipeline, `Filter(l_quantity <= 45) →
//! HashAggregate(l_returnflag; count, sum)`, replayed over resident
//! 20 000-row `lineitem_demo` batches on one thread, must cost at most
//! [`MAX_RATIO`] times the same query written as plain stand-alone loops
//! over the same batches: select the rows, look up their group ids, count
//! them, sum their quantity.
//!
//! Both sides do the same kind of work (a select, a gather through a
//! group-id table, scalar folds) over the same resident vectors on the
//! same thread, so their ratio measures the operators' plumbing and moves
//! little with the machine's speed or microarchitecture.  Each of
//! [`REPS`] rounds times the two sides back to back, in alternating
//! order, and the gate reads the median of the rounds' ratios.

use cscan_core::session::ScanError;
use cscan_exec::{AggFunc, DataChunk, Expr, Filter, HashAggregate, MemTable, Operator};
use cscan_storage::ChunkId;
use std::hint::black_box;
use std::time::Instant;

/// Rows per batch: the benchmark's chunk.
const ROWS: u64 = 20_000;
/// Batches per replay: 2.6 MB of the two columns.
const CHUNKS: u32 = 8;
/// Rounds, each timing both sides once.
const REPS: usize = 31;
/// The median ratio of a round's pipeline replay to its plain loops.
/// Calibrated on a 2-core x86-64 VM: 40 runs of these kernels read
/// 1.02–1.24, 30 runs of the previous ones (a width-generic probe a row,
/// one state slot a group) 1.99–2.29.
const MAX_RATIO: f64 = 1.6;
/// The benchmark's predicate: `l_quantity <= 45`.
const QTY_MAX: i64 = 45;

/// A leaf replaying resident batches: every `next` is a refcount bump.
struct Replay<'a>(std::slice::Iter<'a, DataChunk>);

impl Operator for Replay<'_> {
    fn next(&mut self) -> Result<Option<DataChunk>, ScanError> {
        Ok(self.0.next().cloned())
    }
}

/// The benchmark's pipeline over `batches` (columns: flag, quantity), as
/// `(count, sum)` per flag.
fn pipeline(batches: &[DataChunk]) -> Vec<(i64, i64)> {
    let filtered = Filter::new(Replay(batches.iter()), Expr::col(1).le(Expr::lit(QTY_MAX)));
    let mut aggregate =
        HashAggregate::new(filtered, vec![0], vec![AggFunc::Count, AggFunc::Sum(1)]);
    let out = aggregate
        .next()
        .expect("in-memory operators never fail")
        .expect("one result batch");
    assert_eq!(out.column(0), &[0, 1, 2]);
    out.column(1)
        .iter()
        .copied()
        .zip(out.column(2).iter().copied())
        .collect()
}

/// The same query as four plain loops a batch, with no operator between
/// them: a selection vector written without a branch, group ids read
/// through a table, a count and a gathered sum.
fn plain_loops(batches: &[DataChunk]) -> Vec<(i64, i64)> {
    let group_of = [0u32, 1, 2];
    let (mut sel, mut gids) = (Vec::new(), Vec::new());
    let (mut counts, mut sums) = ([0i64; 3], [0i64; 3]);
    for batch in batches {
        let (flags, qty) = (batch.column(0), batch.column(1));
        sel.resize(qty.len(), 0);
        let mut selected = 0;
        for (row, &q) in qty.iter().enumerate() {
            sel[selected] = row as u32;
            selected += (q <= QTY_MAX) as usize;
        }
        sel.truncate(selected);
        gids.clear();
        gids.extend(
            sel.iter()
                .map(|&row| group_of[flags[row as usize] as usize]),
        );
        for &g in &gids {
            counts[g as usize] += 1;
        }
        for (&g, &row) in gids.iter().zip(&sel) {
            sums[g as usize] += qty[row as usize];
        }
    }
    counts.into_iter().zip(sums).collect()
}

/// Nanoseconds `f` takes over `batches`.
fn time<T>(batches: &[DataChunk], f: impl Fn(&[DataChunk]) -> T) -> f64 {
    let start = Instant::now();
    black_box(f(black_box(batches)));
    start.elapsed().as_nanos() as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "kernel speed is measured in release builds only"
)]
fn pipeline_costs_a_bounded_multiple_of_plain_loops() {
    let table = MemTable::lineitem_demo(CHUNKS as u64 * ROWS, ROWS);
    let columns =
        ["l_returnflag", "l_quantity"].map(|name| table.column_index(name).expect("demo column"));
    let batches: Vec<DataChunk> = (0..CHUNKS)
        .map(|c| table.read_chunk(ChunkId::new(c), &columns))
        .collect();

    // The answer, row at a time, before anything is timed.
    let mut expected = vec![(0i64, 0i64); 3];
    for batch in &batches {
        for (&flag, &qty) in batch.column(0).iter().zip(batch.column(1)) {
            if qty <= QTY_MAX {
                expected[flag as usize].0 += 1;
                expected[flag as usize].1 += qty;
            }
        }
    }
    assert_eq!(pipeline(&batches), expected);
    assert_eq!(plain_loops(&batches), expected);

    let (mut ratios, mut kernels, mut loops) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPS {
        let (kernel, plain) = if rep % 2 == 0 {
            let kernel = time(&batches, pipeline);
            (kernel, time(&batches, plain_loops))
        } else {
            let plain = time(&batches, plain_loops);
            (time(&batches, pipeline), plain)
        };
        ratios.push(kernel / plain);
        kernels.push(kernel);
        loops.push(plain);
    }
    let rows = (CHUNKS as u64 * ROWS) as f64;
    let (kernel_ns, loops_ns) = (median(kernels) / rows, median(loops) / rows);
    let ratio = median(ratios);
    println!("pipeline {kernel_ns:.2} ns/row, plain loops {loops_ns:.2} ns/row, ratio {ratio:.2}");
    assert!(
        ratio <= MAX_RATIO,
        "the filter + 3-group count/sum took {kernel_ns:.2} ns a row, {ratio:.2}× the same \
         query as plain loops ({loops_ns:.2} ns a row); the bound is {MAX_RATIO}×"
    );
}
