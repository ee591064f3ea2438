//! Tests of the plan/commit protocol as both drivers use it, through the
//! scheduler core and the one driver of its property tests
//! ([`crate::sched::proptests`]): up to K loads in flight, each burst
//! planned with a budget of K minus the loads in flight, each completion
//! retired under the ticket of its plan, and each grant released by the
//! query that holds it.  Every step is checked as the driver checks it —
//! the loads in flight against the budget and the pool, the buffer against
//! its per-chunk reference — and every random run is taken by the
//! reference core too.

use crate::colset::ColSet;
use crate::cscan::CScanPlan;
use crate::model::TableModel;
use crate::policy::PolicyKind;
use crate::query::QueryId;
use crate::sched::proptests::{
    arb_ops, arb_policy, lockstep, table, Checked, Driver, Op, Setup, PIPELINE,
};
use cscan_simdisk::SimTime;
use cscan_storage::{ChunkId, ColumnId, ScanRanges};
use proptest::prelude::*;
use proptest::strategy::any;

/// A driver of a `relevance` core over `model` with room for
/// `buffer_chunks` full-width chunks and `budget` loads in flight.
fn driver(model: TableModel, buffer_chunks: u64, budget: usize) -> Driver {
    Driver::new(
        &Setup(model, buffer_chunks, PolicyKind::Relevance, budget),
        false,
    )
}

fn cols(ids: &[u16]) -> ColSet {
    ids.iter().copied().map(ColumnId::new).collect()
}

/// Registers a scan of `columns` (every column if empty) of `[start, end)`.
fn register(d: &mut Driver, label: &str, start: u32, end: u32, cols: ColSet) -> Checked<QueryId> {
    let plan = CScanPlan::new(label, ScanRanges::single(start, end), cols);
    d.register(&plan, SimTime::ZERO)
}

#[test]
fn keeps_k_loads_in_flight() -> Checked {
    let mut driver = driver(TableModel::nsm_uniform(32, 1000, 16), 16, 4);
    register(&mut driver, "full", 0, 32, ColSet::EMPTY)?;
    driver.step(&Op::Plan)?;
    assert_eq!(driver.pending.len(), 4, "an empty pipeline fills to K");
    let state = driver.core.state();
    assert_eq!(state.num_inflight(), 4);
    // All four target distinct chunks and are reserved.
    let mut chunks: Vec<_> = driver.pending.iter().map(|p| p.0.decision.chunk).collect();
    chunks.sort_unstable();
    chunks.dedup();
    assert_eq!(chunks.len(), 4);
    assert_eq!(state.reserved_pages(), 4 * 16);
    // Completing one (out of order) frees a slot; the next plan refills.
    let third = driver.pending.remove(2).0;
    let woken = driver.commit(third.clone(), SimTime::ZERO)?;
    assert!(woken.is_some(), "the load is current");
    assert_eq!(driver.core.state().num_inflight(), 3);
    let woken = driver.commit(third, SimTime::ZERO)?;
    assert!(woken.is_none(), "a second completion is stale");
    driver.step(&Op::Plan)?;
    assert_eq!(driver.pending.len(), 4);
    assert_eq!(driver.core.state().num_inflight(), 4);
    assert_eq!(driver.core.state().io_requests(), 1);
    Ok(())
}

#[test]
fn a_finished_scan_leaves_its_columns_to_the_next() -> Checked {
    // A column store of six three-page columns.
    let mut driver = driver(TableModel::dsm_uniform(16, 1000, &[3; 6]), 4, 2);
    let two = cols(&[1, 5]);
    let a = register(&mut driver, "a", 0, 8, two)?;
    assert_eq!(driver.run_scan(a)?.len(), 8);
    // Neither the releases nor the close at the last one gave a page back:
    // eight chunks of two three-page columns sit in a buffer nobody is
    // scanning.
    assert_eq!(driver.core.state().used_pages(), 8 * 6);
    assert_eq!(driver.core.state().num_buffered(), 8);

    let b = register(&mut driver, "b", 0, 8, two)?;
    let mut granted = Vec::new();
    while driver.core.query(b).is_some() {
        let planned = driver.plan(2, SimTime::ZERO)?;
        assert_eq!(planned, 0, "a scan of resident columns loads nothing");
        let chunk = driver
            .release_of(b, SimTime::ZERO)?
            .expect("every chunk is granted from the buffer");
        granted.push(chunk);
    }
    granted.sort_unstable();
    assert_eq!(granted, (0..8).map(ChunkId::new).collect::<Vec<_>>());
    assert_eq!(
        driver.core.state().io_requests(),
        8,
        "the first scan's loads"
    );
    Ok(())
}

#[test]
fn dead_columns_go_before_any_column_a_query_still_needs() -> Checked {
    // Four chunks loaded full width for `wide`, which consumes them and
    // closes while `narrow` (column 0, not started) still needs all four:
    // the buffer is full, three columns of every chunk are dead.  `narrow`
    // holds the grant of the first chunk loaded, so that chunk's dead
    // columns are pinned.
    let mut driver = driver(TableModel::dsm_uniform(8, 1000, &[3; 6]), 4, 1);
    let narrow = register(&mut driver, "narrow", 0, 4, cols(&[0]))?;
    let wide = register(&mut driver, "wide", 0, 4, ColSet::first_n(6))?;
    let loads = driver.run_scan(wide)?;
    let pinned = loads[0].decision.chunk;
    assert_eq!(driver.core.state().query(narrow).processing, Some(pinned));
    let state = driver.core.state();
    assert_eq!(state.free_pages(), 0);
    assert_eq!(state.available_chunks(narrow), 4);
    let unpinned: Vec<u32> = (0..4).filter(|&c| c != pinned.index()).collect();

    // A second full-width scan, of other chunks, has to make room four
    // times over.
    let next = register(&mut driver, "next", 4, 8, ColSet::first_n(6))?;
    // The first load fits into what the dead columns of two chunks held
    // (2 × 15 pages, against 18 a load): they shrink to the column
    // `narrow` reads, lowest unpinned chunk first.
    let narrowed = |driver: &Driver| -> Vec<u32> {
        let buffered = driver.core.state().buffered();
        buffered
            .filter(|b| b.columns == cols(&[0]))
            .map(|b| b.chunk.index())
            .collect()
    };
    driver.plan(1, SimTime::ZERO)?;
    assert_eq!(narrowed(&driver), unpinned[..2]);
    let first = driver.pending.pop().unwrap().0;
    assert!(driver.commit(first.clone(), SimTime::ZERO)?.is_some());
    let mut taken = vec![first];
    taken.extend(driver.run_scan(next)?);
    assert_eq!(taken.len(), 4);
    // The second fits into the freed pages and the dead columns of the
    // third unpinned chunk, and nothing is evicted.
    for plan in &taken[..2] {
        assert!(plan.evicted.is_empty(), "{plan:?}");
    }
    // The last two find no dead column they may take and take the
    // policy's victims: chunks `next` itself has consumed and nobody
    // needs.  `narrow` has not lost a chunk; the pinned one is whole, the
    // others hold column 0 and no other.
    assert_eq!(taken[2].evicted, [ChunkId::new(4)]);
    assert_eq!(taken[3].evicted, [ChunkId::new(5)]);
    let state = driver.core.state();
    assert_eq!(state.available_chunks(narrow), 4);
    for b in state.buffered().filter(|b| b.chunk.index() < 4) {
        let expected = if b.chunk == pinned {
            (ColSet::first_n(6), 18)
        } else {
            (cols(&[0]), 3)
        };
        assert_eq!((b.columns, b.pages), expected, "{:?}", b.chunk);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// K-outstanding execution is safe for arbitrary workloads and budgets:
    /// the pipeline is refilled after every event, and at K = 1 each load
    /// is committed right after its plan.
    #[test]
    fn k_outstanding_is_safe(
        k in 1usize..=6,
        ops in arb_ops(PIPELINE, 1..60),
        row_store in any::<bool>(),
        policy in arb_policy(),
    ) {
        let refill = if k == 1 { Op::Load } else { Op::Plan };
        let ops: Vec<Op> = ops.into_iter().flat_map(|op| [op, refill.clone()]).collect();
        let setup = Setup(table(row_store, 24), 4, policy, k);
        lockstep(&setup, |driver| driver.run(&ops))?;
    }
}
