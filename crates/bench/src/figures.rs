//! The paper's tables and figures as one manifest: each entry is an
//! experiment run at seed 42, the renderer that prints its tables, and the
//! paper's claims it checks, each a line of text and a predicate over the
//! run's output.  `cargo run --release -p cscan_bench --bin figures --
//! [name ...] [quick|paper]` prints the entries named (every entry by
//! default) with a PASS or FAIL line per claim; each virtual-time entry's
//! claims are checked at quick scale by its experiment module's test, at
//! seed 42 and at the test's own seed, beside the output's shape.
//!
//! An entry keeps the name of the binary it replaced (`fig7_io_sweep` is
//! the `"experiment"` of `BENCH_io.json`).  Claims are made on
//! virtual-time or otherwise deterministic output only: the wall-clock
//! entries (`fig8_scheduling_cost`, `fig9_compression`, `fig9_file`) make
//! none, and their bounds are the release-only gate tests.

use crate::experiments::fig9_file::{self, crossover, FilePoint, FileSweepConfig};
use crate::experiments::{fig2, fig4, fig5, fig6, fig7, fig8, fig9, table2, table3, table4};
use crate::harness::{PolicyComparison, PolicyRow, Scale};
use crate::report::{f2, pct, TextTable};
use cscan_core::policy::PolicyKind::{self, Attach, Elevator, Normal, Relevance};
use cscan_storage::segment::SegmentSummary;
use cscan_storage::ScratchPath;
use cscan_workload::synthetic::table4_query_sets;
use std::io;

/// The seed every entry's streams are drawn from.
pub const SEED: u64 = 42;

/// A claim's text and whether the run's output bears it out.
pub type Verdict = (&'static str, bool);

/// One table or figure: how to run it, print it and judge it.
pub struct Entry<T: 'static> {
    /// The name it is run by (the name of the binary it replaced).
    pub name: &'static str,
    /// Runs the experiment at a scale and seed.
    pub run: fn(Scale, u64) -> io::Result<T>,
    /// Prints the output as the paper lays it out, and writes the files
    /// the figure keeps.
    pub print: fn(&T, Scale),
    /// Judges the output by the paper's claims.
    pub claims: fn(&T) -> Vec<Verdict>,
}

/// A manifest entry with its output type erased.
pub trait Figure: Sync {
    /// The entry's name.
    fn name(&self) -> &'static str;
    /// Runs the entry, prints it if `print` is set, and judges its claims.
    fn run(&self, scale: Scale, print: bool) -> io::Result<Vec<Verdict>>;
}

impl<T: 'static> Figure for Entry<T> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, scale: Scale, print: bool) -> io::Result<Vec<Verdict>> {
        let out = (self.run)(scale, SEED)?;
        if print {
            (self.print)(&out, scale);
        }
        Ok((self.claims)(&out))
    }
}

/// Every table and figure, in the order of the paper's evaluation.
pub static MANIFEST: [&dyn Figure; 12] = [
    &FIG2,
    &TABLE2,
    &FIG4,
    &FIG5,
    &FIG6,
    &FIG7,
    &FIG7_IO_SWEEP,
    &FIG8,
    &FIG9,
    &FIG9_FILE,
    &TABLE3,
    &TABLE4,
];

/// The manifest entry called `name`.
pub fn entry(name: &str) -> Option<&'static dyn Figure> {
    MANIFEST.iter().copied().find(|e| e.name() == name)
}

/// Reads `[name ...] [quick|paper]`: the entries to run (every entry when
/// none is named) and the scale (`quick` when none is given).  Anything
/// else, or a second scale, is an error carrying the usage line, which
/// lists the manifest's names.
pub fn parse_args(args: &[String]) -> Result<(Vec<&'static dyn Figure>, Scale), String> {
    let mut entries = Vec::new();
    let mut scale = None;
    for arg in args {
        match (Scale::parse(arg), entry(arg)) {
            (Some(s), _) if scale.is_none() => scale = Some(s),
            (None, Some(e)) => entries.push(e),
            _ => {
                let names: Vec<&str> = MANIFEST.iter().map(|e| e.name()).collect();
                return Err(format!(
                    "unknown argument `{arg}`; usage: figures [name ...] [quick|paper], \
                     names: {}",
                    names.join(" ")
                ));
            }
        }
    }
    if entries.is_empty() {
        entries = MANIFEST.to_vec();
    }
    Ok((entries, scale.unwrap_or(Scale::Quick)))
}

#[cfg(test)]
impl<T> Entry<T> {
    /// Runs the entry at quick scale and `seed` without printing it, and
    /// returns its output and the claims that fail on it.
    pub(crate) fn run_quick(&self, seed: u64) -> (T, Vec<&'static str>) {
        let out = (self.run)(Scale::Quick, seed).expect("entry runs");
        let failed = self.failed_claims(&out);
        (out, failed)
    }

    /// The claims that fail on `out` (and a panic if the entry makes none).
    pub(crate) fn failed_claims(&self, out: &T) -> Vec<&'static str> {
        let verdicts = (self.claims)(out);
        assert!(!verdicts.is_empty(), "`{}` checks no claim", self.name);
        verdicts
            .into_iter()
            .filter(|(_, holds)| !holds)
            .map(|(text, _)| text)
            .collect()
    }

    /// Runs the entry at quick scale and `seed`, panics naming the claims
    /// that fail, and returns the output for the caller's own checks of
    /// its shape.
    pub(crate) fn assert_claims_hold(&self, seed: u64) -> T {
        let (out, failed) = self.run_quick(seed);
        assert!(
            failed.is_empty(),
            "`{}` at seed {seed}: FAIL {failed:?}",
            self.name
        );
        out
    }
}

/// The claims of a wall-clock entry: none.
fn no_claims<T>(_: &T) -> Vec<Verdict> {
    Vec::new()
}

// Figure 2 — buffer-reuse probability (Equation 1).

/// Equation 1 at `demand` chunks of the 100-chunk table against a buffer
/// of `buffered` chunks, read off the figure's curves.
fn reuse_at(r: &fig2::Fig2Result, buffered: u64, demand: u64) -> f64 {
    r.curves
        .iter()
        .find(|c| c.buffer_chunks == buffered)
        .and_then(|c| c.points.iter().find(|(d, _)| *d == demand))
        .map_or(0.0, |(_, p)| *p)
}

pub(crate) static FIG2: Entry<fig2::Fig2Result> = Entry {
    name: "fig2_reuse_probability",
    run: |_, seed| Ok(fig2::run(seed)),
    print: print_fig2,
    claims: |r| {
        let p = |buffered, demand| reuse_at(r, buffered, demand);
        let mc_error = |&(_, _, exact, mc): &(u64, u64, f64, f64)| (exact - mc).abs();
        vec![
            (
                "a 10% scan against a 10% buffer finds a useful chunk with 0.5 < p < 0.8 \
                 (paper: over 50%)",
                p(10, 10) > 0.5 && p(10, 10) < 0.8,
            ),
            (
                "a 10-chunk scan against a 50% buffer is all but certain to (p > 0.99)",
                p(50, 10) > 0.99,
            ),
            (
                "against a 1% buffer p grows linearly with demand: 0.50 +- 0.02 at 50 chunks",
                (p(1, 50) - 0.5).abs() < 0.02,
            ),
            (
                "Monte-Carlo trials agree with Equation 1 within 0.02 at every check point",
                r.cross_checks.iter().all(|c| mc_error(c) < 0.02),
            ),
        ]
    },
};

fn print_fig2(result: &fig2::Fig2Result, _: Scale) {
    println!(
        "Figure 2 — probability of finding a useful chunk (table of {} chunks)\n",
        fig2::TABLE_CHUNKS
    );
    let mut header: Vec<String> = vec!["chunks needed".to_string()];
    header.extend(fig2::BUFFER_PERCENTS.map(|b| format!("{b}% buffered")));
    let mut table = TextTable::new(header);
    for cq in [1u64, 2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
        let mut row = vec![cq.to_string()];
        row.extend(fig2::BUFFER_PERCENTS.map(|cb| format!("{:.3}", reuse_at(result, cb, cq))));
        table.row(row);
    }
    println!("{}", table.render());

    println!("Monte-Carlo cross-check (30 000 trials per point):");
    let mut check = TextTable::new(["buffer", "demand", "analytic", "monte-carlo", "abs diff"]);
    for (cb, cq, exact, mc) in &result.cross_checks {
        check.row([
            format!("{cb}%"),
            cq.to_string(),
            format!("{exact:.4}"),
            format!("{mc:.4}"),
            format!("{:.4}", (exact - mc).abs()),
        ]);
    }
    println!("{}", check.render());
}

// Tables 2 and 3 — the four policies on the row and on the column store.

/// The rows of a comparison: normal, attach, elevator, relevance.
fn rows(cmp: &PolicyComparison) -> [&PolicyRow; 4] {
    PolicyKind::ALL.map(|p| cmp.row(p))
}

fn print_system_statistics(cmp: &PolicyComparison) {
    let mut system = TextTable::new([
        "policy",
        "avg stream time (s)",
        "avg norm. latency",
        "total time (s)",
        "CPU use",
        "I/O requests",
    ]);
    for row in &cmp.rows {
        system.row([
            row.policy.name().to_string(),
            f2(row.avg_stream_time),
            f2(row.avg_normalized_latency),
            f2(row.total_time),
            pct(row.cpu_use),
            row.io_requests.to_string(),
        ]);
    }
    println!("System statistics\n{}", system.render());
}

pub(crate) static TABLE2: Entry<table2::Table2Result> = Entry {
    name: "table2_nsm",
    run: |scale, seed| Ok(table2::run(scale, seed)),
    print: print_table2,
    claims: |r| {
        let [normal, attach, elevator, relevance] = rows(&r.comparison);
        let ios = |row: &PolicyRow| row.io_requests as f64;
        vec![
            (
                "relevance has a shorter average stream time than normal",
                relevance.avg_stream_time < normal.avg_stream_time,
            ),
            (
                "relevance's average stream time is within 5% of attach's, or shorter",
                relevance.avg_stream_time <= attach.avg_stream_time * 1.05,
            ),
            (
                "normal's normalized latency is over 1.3x relevance's (paper: about 3x)",
                normal.avg_normalized_latency > 1.3 * relevance.avg_normalized_latency,
            ),
            (
                "elevator's blocking shows as a higher normalized latency than relevance's",
                relevance.avg_normalized_latency < elevator.avg_normalized_latency,
            ),
            (
                "normal issues more I/O requests than relevance, and at least 0.95x attach's",
                ios(normal) > ios(relevance) && ios(normal) >= ios(attach) * 0.95,
            ),
            (
                "elevator keeps its I/O requests within 1.05x attach's",
                ios(elevator) <= ios(attach) * 1.05,
            ),
        ]
    },
};

fn print_table2(result: &table2::Table2Result, scale: Scale) {
    println!("Table 2 — NSM/PAX policy comparison ({scale:?} scale)\n");
    let cmp = &result.comparison;
    print_system_statistics(cmp);

    println!("Query statistics (per query class)");
    for row in &cmp.rows {
        let mut per_class = TextTable::new([
            "class",
            "count",
            "standalone (s)",
            "avg latency (s)",
            "stddev",
            "norm. latency",
            "I/Os",
        ]);
        let ios = row.result.ios_by_label();
        for (label, summary) in row.result.latency_by_label() {
            let base = result.base_times.get(&label).copied().unwrap_or(0.0);
            let io = ios.iter().find(|(l, _)| *l == label).map_or(0, |(_, n)| *n);
            let normalized = if base > 0.0 {
                summary.mean() / base
            } else {
                0.0
            };
            per_class.row([
                label.clone(),
                summary.count().to_string(),
                f2(base),
                f2(summary.mean()),
                f2(summary.stddev()),
                f2(normalized),
                io.to_string(),
            ]);
        }
        println!("\n[{}]\n{}", row.policy.name(), per_class.render());
    }
}

pub(crate) static TABLE3: Entry<table3::Table3Result> = Entry {
    name: "table3_dsm",
    run: |scale, seed| Ok(table3::run(scale, seed)),
    print: print_table3,
    claims: |r| {
        let [normal, _, elevator, relevance] = rows(&r.comparison);
        vec![
            (
                "relevance beats normal on stream time, normalized latency and I/O requests",
                relevance.avg_stream_time < normal.avg_stream_time
                    && relevance.avg_normalized_latency < normal.avg_normalized_latency
                    && relevance.io_requests < normal.io_requests,
            ),
            (
                "relevance's normalized latency is within 5% of elevator's, or lower",
                relevance.avg_normalized_latency <= elevator.avg_normalized_latency * 1.05,
            ),
        ]
    },
};

fn print_table3(result: &table3::Table3Result, scale: Scale) {
    println!("Table 3 — DSM policy comparison ({scale:?} scale)\n");
    let cmp = &result.comparison;
    print_system_statistics(cmp);

    println!("Per-class average latency (seconds)");
    let mut per_class = TextTable::new([
        "class",
        "cold (s)",
        "normal",
        "attach",
        "elevator",
        "relevance",
    ]);
    let mut labels: Vec<&String> = result.base_times.keys().collect();
    labels.sort();
    for label in labels {
        let mut cells = vec![label.clone(), f2(result.base_times[label])];
        for row in &cmp.rows {
            cells.push(f2(row.result.avg_latency_for(label).unwrap_or(0.0)));
        }
        per_class.row(cells);
    }
    println!("{}", per_class.render());
}

// Figure 4 — chunk accesses over time.

/// Figure 4's claim on relevance's access pattern.
pub(crate) const RELEVANCE_SCATTERS: &str =
    "relevance's dynamic pattern is less sequential than elevator's staircase";

pub(crate) static FIG4: Entry<Vec<fig4::PolicyTrace>> = Entry {
    name: "fig4_traces",
    run: |scale, seed| Ok(fig4::run(scale, seed)),
    print: |traces, scale| print_fig4(traces, scale),
    claims: |traces| {
        let trace = |policy| &traces.iter().find(|t| t.policy == policy).unwrap().trace;
        let ios = |policy| trace(policy).len();
        let sequentiality = |policy| fig4::sequentiality(trace(policy));
        vec![
            (
                "attach issues fewer I/Os than normal",
                ios(Attach) < ios(Normal),
            ),
            (
                "elevator's one staircase is more sequential than normal's and attach's \
                 interleaved scans",
                [Normal, Attach]
                    .iter()
                    .all(|&p| sequentiality(p) < sequentiality(Elevator)),
            ),
            (
                RELEVANCE_SCATTERS,
                sequentiality(Relevance) < sequentiality(Elevator),
            ),
            (
                "relevance issues the fewest I/Os of the four (the fewest re-reads)",
                PolicyKind::ALL.iter().all(|&p| ios(p) >= ios(Relevance)),
            ),
        ]
    },
};

fn print_fig4(traces: &[fig4::PolicyTrace], scale: Scale) {
    println!("Figure 4 — chunk accesses over time ({scale:?} scale)\n");
    let out_dir = std::path::Path::new("target/fig4");
    let _ = std::fs::create_dir_all(out_dir);
    for t in traces {
        println!(
            "[{}]  {} I/Os over {:.1}s  (sequentiality {:.2})",
            t.policy.name(),
            t.trace.len(),
            t.total_time,
            fig4::sequentiality(&t.trace)
        );
        println!("{}", t.trace.to_ascii(100, 24));
        let path = out_dir.join(format!("{}.dat", t.policy.name()));
        if std::fs::write(&path, t.trace.to_gnuplot()).is_ok() {
            println!("(gnuplot data written to {})\n", path.display());
        }
    }
}

// Figure 5 — the fifteen query mixes, relative to relevance.

pub(crate) static FIG5: Entry<Vec<fig5::ScatterPoint>> = Entry {
    name: "fig5_query_mixes",
    run: |scale, seed| Ok(fig5::run(scale, seed, (scale == Scale::Quick).then_some(6))),
    print: |points, scale| print_fig5(points, scale),
    claims: |points| {
        let of = |policy| points.iter().filter(move |p| p.policy == policy);
        let others = || points.iter().filter(|p| p.policy != Relevance);
        let not_beaten = others()
            .filter(|p| p.stream_time_ratio >= 0.95 || p.latency_ratio >= 0.95)
            .count();
        vec![
            (
                "relevance is the reference point, 1.00 / 1.00, on every mix",
                of(Relevance).all(|p| p.stream_time_ratio == 1.0 && p.latency_ratio == 1.0),
            ),
            (
                "normal never beats relevance by more than 5% on either axis, on any mix",
                of(Normal).all(|p| p.stream_time_ratio > 0.95 && p.latency_ratio > 0.95),
            ),
            (
                "at least 90% of the other policies' points are within 5% of relevance or \
                 worse on some axis",
                not_beaten as f64 >= others().count() as f64 * 0.9,
            ),
        ]
    },
};

fn print_fig5(points: &[fig5::ScatterPoint], scale: Scale) {
    println!("Figure 5 — policy performance over query mixes ({scale:?} scale)\n");
    let of = |policy| points.iter().filter(move |p| p.policy == policy);
    for policy in [Normal, Attach, Elevator] {
        let mut table = TextTable::new([
            "mix",
            "stream time / relevance",
            "norm. latency / relevance",
        ]);
        for p in of(policy) {
            table.row([p.mix.clone(), f2(p.stream_time_ratio), f2(p.latency_ratio)]);
        }
        println!(
            "[{}] (relevance = 1.00 / 1.00)\n{}",
            policy.name(),
            table.render()
        );
    }

    // Summary: how often each competitor is dominated by relevance.
    let mut summary = TextTable::new([
        "policy",
        "mixes",
        "dominated by relevance",
        "worse on ≥1 axis",
    ]);
    for policy in [Normal, Attach, Elevator] {
        let dominated = of(policy).filter(|p| p.stream_time_ratio >= 1.0 && p.latency_ratio >= 1.0);
        let worse = of(policy).filter(|p| p.stream_time_ratio >= 1.0 || p.latency_ratio >= 1.0);
        summary.row([
            policy.name().to_string(),
            of(policy).count().to_string(),
            dominated.count().to_string(),
            worse.count().to_string(),
        ]);
    }
    println!("{}", summary.render());
}

// Figure 6 — the buffer-capacity sweep.

fn fig6_at(
    points: &[fig6::Fig6Point],
    set: fig6::QuerySet,
    fraction: f64,
    policy: PolicyKind,
) -> &fig6::Fig6Point {
    points
        .iter()
        .find(|p| p.set == set && p.buffer_fraction == fraction && p.policy == policy)
        .expect("missing point")
}

const SETS: [fig6::QuerySet; 2] = [fig6::QuerySet::CpuIntensive, fig6::QuerySet::IoIntensive];

pub(crate) static FIG6: Entry<Vec<fig6::Fig6Point>> = Entry {
    name: "fig6_buffer_scaling",
    run: |scale, seed| Ok(fig6::run(scale, seed)),
    print: |points, scale| print_fig6(points, scale),
    claims: |points| {
        let io_set = |fraction, policy| fig6_at(points, SETS[1], fraction, policy);
        let (relevance, normal) = (io_set(0.125, Relevance), io_set(0.125, Normal));
        let full = |policy| io_set(1.0, policy).io_requests as f64;
        let never_more = SETS.iter().all(|&set| {
            PolicyKind::ALL.iter().all(|&p| {
                fig6_at(points, set, 1.0, p).io_requests
                    <= fig6_at(points, set, 0.125, p).io_requests
            })
        });
        vec![
            (
                "no policy needs more I/Os with the whole table buffered than with 12.5% of it",
                never_more,
            ),
            (
                "at a 12.5% buffer relevance needs fewer I/Os than normal on the I/O-intensive \
                 set, in at most 1.02x its time",
                relevance.io_requests < normal.io_requests
                    && relevance.system_time <= normal.system_time * 1.02,
            ),
            (
                "with the whole table buffered the gap closes: normal needs at most 2x \
                 relevance's I/Os",
                full(Normal) <= full(Relevance) * 2.0,
            ),
        ]
    },
};

fn print_fig6(points: &[fig6::Fig6Point], scale: Scale) {
    println!("Figure 6 — behaviour under varying buffer capacity ({scale:?} scale)\n");
    for set in SETS {
        println!("=== {} query set ===\n", set.name());
        for (title, value) in [
            ("Number of I/O requests", 0usize),
            ("System time (s)", 1),
            ("Average normalized latency", 2),
        ] {
            let mut table =
                TextTable::new(["buffer %", "normal", "attach", "elevator", "relevance"]);
            for &fraction in &fig6::BUFFER_FRACTIONS {
                let mut row = vec![format!("{:.1}%", fraction * 100.0)];
                for policy in PolicyKind::ALL {
                    let p = fig6_at(points, set, fraction, policy);
                    row.push(match value {
                        0 => p.io_requests.to_string(),
                        1 => f2(p.system_time),
                        _ => f2(p.avg_normalized_latency),
                    });
                }
                table.row(row);
            }
            println!("{title}\n{}", table.render());
        }
    }
}

// Figure 7 — concurrency, and the outstanding-I/O sweep.

fn fig7_latency(points: &[fig7::Fig7Point], percent: u32, n: usize, policy: PolicyKind) -> f64 {
    points
        .iter()
        .find(|p| p.percent == percent && p.queries == n && p.policy == policy)
        .expect("missing point")
        .avg_latency
}

pub(crate) static FIG7: Entry<Vec<fig7::Fig7Point>> = Entry {
    name: "fig7_concurrency",
    run: |scale, seed| {
        Ok(fig7::run(
            scale,
            seed,
            (scale == Scale::Quick).then_some(16),
        ))
    },
    print: |points, scale| print_fig7(points, scale),
    claims: |points| {
        let latency = |percent, n, policy| fig7_latency(points, percent, n, policy);
        let advantage = |n| latency(50, n, Normal) / latency(50, n, Relevance).max(1e-9);
        vec![
            (
                "one query alone takes within 15% of the same time under relevance and normal",
                fig7::PERCENTS.iter().all(|&pc| {
                    let normal = latency(pc, 1, Normal);
                    (latency(pc, 1, Relevance) - normal).abs() / normal.max(1e-9) < 0.15
                }),
            ),
            (
                "at 8 concurrent queries relevance's latency is below normal's on 20% and \
                 50% scans",
                [20, 50]
                    .iter()
                    .all(|&pc| latency(pc, 8, Relevance) < latency(pc, 8, Normal)),
            ),
            (
                "relevance's advantage over normal on 50% scans does not shrink by over 10% \
                 from 2 to 8 queries",
                advantage(8) >= advantage(2) * 0.9,
            ),
            (
                "without sharing, 8 concurrent 50% scans take at least 0.9x one scan's latency",
                latency(50, 8, Normal) >= latency(50, 1, Normal) * 0.9,
            ),
        ]
    },
};

fn print_fig7(points: &[fig7::Fig7Point], scale: Scale) {
    println!("Figure 7 — latency vs. number of concurrent queries ({scale:?} scale)\n");
    for &percent in &fig7::PERCENTS {
        let mut table = TextTable::new(["queries", "normal", "attach", "elevator", "relevance"]);
        for &n in fig7::CONCURRENCY
            .iter()
            .filter(|&&n| points.iter().any(|p| p.queries == n))
        {
            let mut row = vec![n.to_string()];
            row.extend(PolicyKind::ALL.map(|p| f2(fig7_latency(points, percent, n, p))));
            table.row(row);
        }
        println!(
            "{percent}% scans — average query latency (s)\n{}",
            table.render()
        );
    }
}

/// Scan throughput at `k` outstanding loads.
fn mib_s_at(points: &[fig7::IoSweepPoint], k: usize) -> f64 {
    points
        .iter()
        .find(|p| p.outstanding == k)
        .map_or(0.0, |p| p.throughput_mib_s)
}

/// The sweep runs at the seed `BENCH_io.json` records, not at [`SEED`].
pub(crate) static FIG7_IO_SWEEP: Entry<Vec<fig7::IoSweepPoint>> = Entry {
    name: "fig7_io_sweep",
    run: |scale, _| {
        let (queries, seed) = (fig7::TRACKED_IO_QUERIES, fig7::TRACKED_IO_SEED);
        Ok(fig7::run_io_sweep(scale, queries, seed))
    },
    print: |points, scale| print_fig7_io_sweep(points, scale),
    claims: |points| {
        vec![
            (
                "every doubling of K raises the scan throughput",
                points
                    .windows(2)
                    .all(|w| w[1].throughput_mib_s > w[0].throughput_mib_s),
            ),
            (
                "8 loads in flight draw over 200 MiB/s from the 4-spindle array (paper: \
                 slightly over 200 MB/s)",
                mib_s_at(points, 8) > 200.0,
            ),
        ]
    },
};

fn print_fig7_io_sweep(points: &[fig7::IoSweepPoint], scale: Scale) {
    println!(
        "Outstanding-I/O sweep — {} concurrent FAST-20% scans, relevance policy,\n\
         4-spindle RAID striped at chunk granularity ({scale:?} scale)\n",
        fig7::TRACKED_IO_QUERIES
    );
    let mut table = TextTable::new([
        "outstanding",
        "throughput (MiB/s)",
        "total (s)",
        "avg latency (s)",
        "chunk loads",
        "peak in flight",
        "max arm queue",
    ]);
    for p in points {
        table.row([
            p.outstanding.to_string(),
            format!("{:.1}", p.throughput_mib_s),
            format!("{:.2}", p.total_secs),
            format!("{:.2}", p.avg_latency),
            p.io_requests.to_string(),
            p.peak_outstanding.to_string(),
            p.max_queue_depth.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "speedup at K=8 vs K=1: {:.2}x scan throughput\n",
        mib_s_at(points, 8) / mib_s_at(points, 1).max(1e-9)
    );

    // Virtual time: the file comes out as committed, byte for byte
    // (`fig7::tests::committed_bench_io_json_is_what_the_sweep_renders`).
    let path = "BENCH_io.json";
    match std::fs::write(path, fig7::render_io_sweep_json(points)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

// Figure 8 — scheduling cost (wall clock).

/// Figure 8's sweep.
struct Fig8Output {
    iterations: u32,
    points: Vec<fig8::Fig8Point>,
}

static FIG8: Entry<Fig8Output> = Entry {
    name: "fig8_scheduling_cost",
    run: |scale, _| {
        let iterations = if scale == Scale::Quick { 50 } else { 500 };
        let points = fig8::run(iterations);
        Ok(Fig8Output { iterations, points })
    },
    print: print_fig8,
    claims: no_claims,
};

fn print_fig8(out: &Fig8Output, _: Scale) {
    println!(
        "Figure 8 — scheduling cost of the relevance policy ({} iterations/point)\n",
        out.iterations
    );
    let header = |unit: &str| {
        let scans = fig8::PERCENTS.map(|p| format!("{p}% scan ({unit})"));
        TextTable::new(["chunks".to_string()].into_iter().chain(scans))
    };
    let (mut time_table, mut frac_table) = (header("ns"), header("ppm"));
    // The sweep runs chunk count by chunk count, scan size by scan size.
    for row in out.points.chunks(fig8::PERCENTS.len()) {
        let chunks = row[0].num_chunks.to_string();
        let ns = row.iter().map(|p| format!("{:.0}", p.scheduling_ns));
        let ppm = row
            .iter()
            .map(|p| format!("{:.2}", p.fraction_of_execution * 1e6));
        time_table.row(std::iter::once(chunks.clone()).chain(ns));
        frac_table.row(std::iter::once(chunks).chain(ppm));
    }
    println!(
        "Scheduling time per decision (ns, wall clock)\n{}",
        time_table.render()
    );
    println!(
        "Scheduling time as parts per million of execution time\n{}",
        frac_table.render()
    );
}

// Figure 9 — compression, in memory and over segment files (wall clock;
// the bounds are `tests/compression_gate.rs` and `tests/file_gate.rs`).

/// Values per codec point in the sweep (8 MiB of decoded data each).
const SWEEP_ROWS: usize = 1 << 20;
/// Geometry of the in-memory mix-volume measurement.
const MIX_CHUNKS: u32 = 64;
const MIX_ROWS_PER_CHUNK: u64 = 2_000;

static FIG9: Entry<(Vec<fig9::CodecPoint>, fig9::MixVolume)> = Entry {
    name: "fig9_compression",
    run: |_, _| {
        let codecs = fig9::run_codec_sweep(SWEEP_ROWS);
        Ok((codecs, fig9::run_mix_volume(MIX_CHUNKS, MIX_ROWS_PER_CHUNK)))
    },
    print: print_fig9,
    claims: no_claims,
};

fn print_fig9((points, mix): &(Vec<fig9::CodecPoint>, fig9::MixVolume), _: Scale) {
    println!(
        "Figure 9 — lightweight compression: PDICT / PFOR / PFOR-DELTA codecs\n\
         ({SWEEP_ROWS} values per codec; mix = {MIX_CHUNKS} chunks x {MIX_ROWS_PER_CHUNK} rows x 6 columns)\n"
    );
    let mut table = TextTable::new([
        "column / scheme",
        "encoded (MiB)",
        "decoded (MiB)",
        "ratio",
        "decode (GiB/s)",
    ]);
    for p in points {
        table.row([
            p.name.to_string(),
            format!("{:.2}", p.encoded_mib),
            format!("{:.2}", p.decoded_mib),
            format!("{:.1}x", p.ratio),
            format!("{:.2}", p.decode_gib_s),
        ]);
    }
    println!("{}", table.render());
    println!(
        "mix I/O volume: {:.2} MiB compressed vs {:.2} MiB uncompressed ({:.2}x smaller)\n",
        mix.compressed_mib, mix.uncompressed_mib, mix.ratio
    );
}

/// Geometry of the file-backed run: 64 chunks x 20k rows x 6 columns is
/// ~58 MiB logical (< 256 MiB even with both segment files on a tmpfs).
const FILE_CHUNKS: u32 = 64;
const FILE_ROWS_PER_CHUNK: u64 = 20_000;
const FILE_STREAMS: usize = 8;
const FILE_IO_THREADS: [usize; 2] = [1, 4];

/// The file-backed Figure 9: live points, file sizes and volumes, and the
/// simulator over the same files (`(mode, policy, makespan s, bytes)`).
struct Fig9FileOutput {
    dir: String,
    points: Vec<FilePoint>,
    files: [SegmentSummary; 2],
    mix: fig9_file::FileMixVolume,
    sim: Vec<(&'static str, PolicyKind, f64, u64)>,
}

static FIG9_FILE: Entry<Fig9FileOutput> = Entry {
    name: "fig9_file",
    run: |_, _| {
        // Distinct per run and removed when the run returns.
        let dir = ScratchPath::new("fig9_file");
        let cfg = FileSweepConfig {
            dir: dir.to_path_buf(),
            chunks: FILE_CHUNKS,
            rows_per_chunk: FILE_ROWS_PER_CHUNK,
            streams: FILE_STREAMS,
            io_threads: FILE_IO_THREADS.to_vec(),
        };
        let (points, files) = fig9_file::run_file_sweep(&cfg)?;
        let mix = fig9_file::run_file_mix_volume(&dir, FILE_CHUNKS, FILE_ROWS_PER_CHUNK)?;
        // The simulator over the same files: models built from the segment
        // directories, virtual-time makespans per policy.
        let mut sim = Vec::new();
        for mode in ["plain", "compressed"] {
            let path = dir.join(format!("lineitem_{mode}.seg"));
            for policy in PolicyKind::ALL {
                let (secs, bytes) = fig9_file::run_sim_from_segment(&path, policy, FILE_STREAMS)?;
                sim.push((mode, policy, secs, bytes));
            }
        }
        let dir = dir.display().to_string();
        Ok(Fig9FileOutput {
            dir,
            points,
            files,
            mix,
            sim,
        })
    },
    print: print_fig9_file,
    claims: no_claims,
};

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn print_fig9_file(out: &Fig9FileOutput, _: Scale) {
    println!(
        "Figure 9 end-to-end — real segment files through FileStore\n\
         ({FILE_CHUNKS} chunks x {FILE_ROWS_PER_CHUNK} rows x 6 columns, {FILE_STREAMS} streams, \
         io_threads in {FILE_IO_THREADS:?}; files under {})\n",
        out.dir
    );
    let [plain, compressed] = &out.files;
    println!(
        "segment files: plain {:.1} MiB, compressed {:.1} MiB ({:.2}x smaller)\n",
        mib(plain.file_bytes),
        mib(compressed.file_bytes),
        plain.file_bytes as f64 / compressed.file_bytes.max(1) as f64
    );

    let mut table = TextTable::new([
        "mode",
        "policy",
        "io_thr",
        "MiB/s",
        "read calls",
        "disk MiB",
        "pin-wait s",
        "loads",
    ]);
    for p in &out.points {
        table.row([
            p.mode.to_string(),
            p.policy.to_string(),
            p.io_threads.to_string(),
            format!("{:.1}", p.delivered_mib_s),
            p.file_read_calls.to_string(),
            format!("{:.1}", mib(p.file_bytes_read)),
            format!("{:.3}", p.pin_wait_secs),
            p.loads.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "file I/O volume (one full scan): {:.1} MiB plain vs {:.1} MiB compressed \
         ({:.2}x smaller)\n",
        mib(out.mix.plain_bytes),
        mib(out.mix.compressed_bytes),
        out.mix.ratio
    );

    let mut sim_table = TextTable::new(["mode", "policy", "sim makespan (s)", "sim MiB read"]);
    for &(mode, policy, secs, bytes) in &out.sim {
        sim_table.row([
            mode.to_string(),
            policy.to_string(),
            format!("{secs:.2}"),
            format!("{:.1}", mib(bytes)),
        ]);
    }
    println!("{}", sim_table.render());

    let x = crossover(&out.points);
    println!(
        "best delivered: compressed {:.1} MiB/s vs plain {:.1} MiB/s ({:.2}x)",
        x.compressed_best_mib_s, x.plain_best_mib_s, x.speedup
    );
}

// Table 4 — column overlap.

pub(crate) static TABLE4: Entry<table4::Table4Result> = Entry {
    name: "table4_overlap",
    run: |scale, seed| Ok(table4::run(scale, seed)),
    print: print_table4,
    claims: |r| {
        let ios = |set: &str, policy| r.cell(set, policy).io_requests;
        let abc_latency = |policy| r.cell("ABC", policy).latency.mean();
        let beats_normal = table4_query_sets()
            .into_iter()
            .all(|(set, _)| ios(&set, Relevance) < ios(&set, Normal));
        vec![
            (
                "relevance beats normal on I/Os on every query set, and on mean latency with \
                 one window (ABC)",
                beats_normal && abc_latency(Relevance) < abc_latency(Normal),
            ),
            (
                "sharing falls with column overlap: relevance needs more I/Os for ABC,DEF \
                 than for ABC (paper: about 2x)",
                ios("ABC,DEF", Relevance) > ios("ABC", Relevance),
            ),
            (
                "partial overlap sits in between: relevance needs no more I/Os for ABC,BCD \
                 than for ABC,DEF",
                ios("ABC,BCD", Relevance) <= ios("ABC,DEF", Relevance),
            ),
        ]
    },
};

fn print_table4(result: &table4::Table4Result, scale: Scale) {
    println!("Table 4 — DSM column-overlap experiment ({scale:?} scale)\n");
    let mut table = TextTable::new([
        "queries (columns used)",
        "normal I/Os",
        "normal avg lat (s)",
        "normal stddev",
        "relevance I/Os",
        "relevance avg lat (s)",
        "relevance stddev",
    ]);
    for (set, _) in table4_query_sets() {
        let mut row = vec![set.clone()];
        for policy in [Normal, Relevance] {
            let cell = result.cell(&set, policy);
            row.push(cell.io_requests.to_string());
            row.push(f2(cell.latency.mean()));
            row.push(f2(cell.latency.stddev()));
        }
        table.row(row);
    }
    println!("{}", table.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Result<(Vec<&'static str>, Scale), String> {
        let a: Vec<String> = a.iter().map(|s| s.to_string()).collect();
        parse_args(&a).map(|(entries, scale)| (entries.iter().map(|e| e.name()).collect(), scale))
    }

    #[test]
    fn arguments_name_entries_and_one_scale() {
        let every: Vec<&str> = MANIFEST.iter().map(|e| e.name()).collect();
        assert_eq!(args(&[]), Ok((every.clone(), Scale::Quick)));
        assert_eq!(args(&["paper"]), Ok((every, Scale::Paper)));
        let two = ["table4_overlap", "fig2_reuse_probability"];
        assert_eq!(
            args(&[two[0], two[1], "quick"]),
            Ok((two.to_vec(), Scale::Quick))
        );
        assert!(args(&["quick", "paper"]).is_err(), "one scale");
        assert!(args(&["--paper"]).is_err(), "one spelling");
    }

    #[test]
    fn an_unknown_name_is_refused_with_the_manifests_names() {
        let usage = args(&["fig3_missing"]).unwrap_err();
        assert!(usage.starts_with("unknown argument `fig3_missing`; usage: figures"));
        for e in &MANIFEST {
            assert!(usage.contains(e.name()), "{usage}");
        }
        let mut names: Vec<&str> = MANIFEST.iter().map(|e| e.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), MANIFEST.len(), "names are unique");
    }
}
