//! The repository's benchmark: one command that sets up its inputs from a
//! seed, runs a workload over the whole Cooperative Scans stack, checks
//! every answer, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--aa] [--smoke]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the result as one JSON object (the driver's
//! contract).  Without it every workload runs, each in a process of its
//! own so that each starts from the same state; `--aa` does
//! that twice and compares the two passes against the declared bounds.
//! See `README.md` for what the workloads and metrics mean.

mod data;
mod gen;
mod probes;
mod scratch;
mod sim;
mod spec;
mod stats;
mod trace;
mod wall;

use spec::{Better, MetricDef, Scale, Workload, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Reports zero for the not yet set metrics of layers that do nothing
    /// on this workload.  Everything else a workload fails to set is a bug
    /// and fails the run.
    fn zero_idle_layers(&mut self, prefixes: &[&str]) {
        for def in PER_LAYER {
            if prefixes.iter().any(|p| def.name.starts_with(p)) && self.get(def.name).is_none() {
                self.set(def.name, 0.0);
            }
        }
    }
}

/// What one workload run is asked to do.
pub struct RunSpec {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: u64,
    /// `--trace 1`: record spans in every other round and run the probes.
    pub traced: bool,
}

/// What one workload run produced.
pub struct RunOutput {
    pub metrics: Metrics,
    /// Queries (or simulations) run and checked, the warm-up included.
    pub attempted: u64,
    /// Those that erred, were refused or answered wrongly.
    pub failed: u64,
    /// Lines for the run header: geometry, rounds, sample counts.
    pub notes: Vec<String>,
    /// Broken invariants (leaked pins, unconsumed drops).
    pub problems: Vec<String>,
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: cscan_benchmark [--workload <name>] [--seed <u64>] [--seconds <1..60>] \
                     [--trace [0|1]] [--aa] [--smoke]\n\
                     workloads: scan_plain scan_compressed short_hot served_loopback sim_mix";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        aa: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let n = value("a number")?;
                args.seed = n.parse().map_err(|_| format!("bad --seed {n:?}"))?;
            }
            "--seconds" => {
                let n = value("a number")?;
                args.seconds = match n.parse() {
                    Ok(s @ 1..=60) => s,
                    _ => return Err(format!("--seconds takes 1 to 60, not {n:?}")),
                };
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.aa && (args.trace || args.workload.is_some()) {
        return Err("--aa runs every workload untraced; drop --trace and --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.workload, args.aa) {
        (Some(w), _) => run_here(w, &args),
        (None, false) => run_each_in_a_child(&args),
        (None, true) => run_twice_and_compare(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Output of `program args...`, or "unknown" (the driver's checkout is not
/// a git repository, and a user's machine may lack either program).
fn ask(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in this process and prints header, metrics and the
/// result line.  True when every answer was right, every invariant held
/// and every metric of the mode was measured.
fn run_here(w: Workload, args: &Args) -> bool {
    let spec = RunSpec {
        workload: w,
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let run = match w {
        Workload::SimMix => sim::run(&spec),
        _ => wall::run(&spec),
    };
    let mut out = match run {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            return false;
        }
    };
    if let Some(mib) = stats::peak_rss_mib() {
        out.notes.push(format!(
            "memory: peak resident set {mib:.1} MiB (VmHWM, set-up{} included)",
            if args.trace {
                " and recorded spans"
            } else {
                ""
            }
        ));
    }
    match w {
        Workload::SimMix => out.metrics.zero_idle_layers(&[
            "query.",
            "storage.",
            "bufman.",
            "core.",
            "exec.",
            "proto.",
            "server.",
            "client.",
            "net.",
            "obs.snapshot_ns",
        ]),
        _ => out.metrics.zero_idle_layers(&["sim."]),
    }

    println!(
        "cscan benchmark: workload={} seed={} seconds={} trace={} scale={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.smoke { "smoke" } else { "full" },
    );
    println!(
        "load: {} closed-loop query threads ({0} connections when served), {} I/O threads, \
         admission cap {} (fixed, not read from nproc)",
        spec::QUERY_THREADS,
        spec::IO_THREADS,
        spec::ADMISSION_CAP,
    );
    println!(
        "host: nproc={} profile={} rustc=\"{}\" git={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        ask("rustc", &["--version"]),
        ask("git", &["rev-parse", "HEAD"]),
    );
    for note in &out.notes {
        println!("{note}");
    }

    let (defs, title) = if args.trace {
        (PER_LAYER, "per layer, from the traced run")
    } else {
        (END_TO_END, "end to end, spans off")
    };
    println!("metrics ({title}):");
    for def in defs {
        match out.metrics.get(def.name) {
            Some(v) if v.is_finite() => println!(
                "  {:<36} {:>16} {:<6} {} is better{}",
                def.name,
                v,
                def.unit,
                def.better.as_str(),
                def.bound
                    .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0)),
            ),
            Some(v) => out.problems.push(format!("{} is {v}", def.name)),
            None => out.problems.push(format!("{} was not measured", def.name)),
        }
    }
    if out.failed > 0 {
        out.problems.push(format!(
            "{} of {} queries erred, were refused or answered wrongly",
            out.failed, out.attempted
        ));
    }
    for problem in &out.problems {
        println!("FAILED: {problem}");
    }
    let correct = out.problems.is_empty();
    println!(
        "{}",
        render_result_line(correct, out.attempted, out.failed, defs, &out.metrics)
    );
    correct
}

/// The driver's result object, on one line.
fn render_result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    metrics: &Metrics,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for def in defs {
        let Some(v) = metrics.get(def.name).filter(|v| v.is_finite()) else {
            continue;
        };
        let sep = if first { "" } else { ", " };
        first = false;
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    line.push_str("}}");
    line
}

/// `correct` and the metric values of a line [`render_result_line`] made.
fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.starts_with("{\"correct\": true,");
    let mut rest = line.split_once("\"metrics\": {")?.1;
    let mut values = Vec::new();
    while let Some((_, after_quote)) = rest.split_once('"') {
        let (name, after_name) = after_quote.split_once("\": {\"value\": ")?;
        let (number, after_number) = after_name.split_once(',')?;
        values.push((name.to_string(), number.parse().ok()?));
        rest = after_number.split_once('}')?.1;
    }
    Some((correct, values))
}

fn child(args: &Args, w: Workload) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    cmd
}

/// Every workload, each in a child process that prints for itself.
fn run_each_in_a_child(args: &Args) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        // `status` waits for the child.
        match child(args, w).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: {status}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
        println!();
    }
    ok
}

/// One untraced pass over every workload: per workload, its values.
fn one_pass(args: &Args) -> Option<Vec<Vec<(String, f64)>>> {
    let mut pass = Vec::new();
    for w in Workload::ALL {
        // `output` waits for the child.
        let output = child(args, w).stderr(Stdio::inherit()).output().ok()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let parsed = stdout.lines().last().and_then(parse_result_line);
        match parsed {
            Some((true, values)) if output.status.success() => pass.push(values),
            _ => {
                print!("{stdout}");
                eprintln!("{}: run failed ({})", w.name(), output.status);
                return None;
            }
        }
    }
    Some(pass)
}

/// `--aa`: the untraced suite twice in one invocation.  Prints both values
/// of every end-to-end metric on every workload, how much worse the second
/// is than the first, and the declared bound; fails when a difference
/// exceeds its bound.  The bounds in `spec.rs` were calibrated from this.
fn run_twice_and_compare(args: &Args) -> bool {
    let (Some(a), Some(b)) = (one_pass(args), one_pass(args)) else {
        return false;
    };
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut ok = true;
    for ((w, first), second) in Workload::ALL.iter().zip(&a).zip(&b) {
        for def in END_TO_END {
            let value =
                |pass: &[(String, f64)]| pass.iter().find(|(n, _)| n == def.name).map(|&(_, v)| v);
            let (Some(x), Some(y)) = (value(first), value(second)) else {
                println!("{:<16} {:<20} missing", w.name(), def.name);
                ok = false;
                continue;
            };
            let worse_by = match def.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let verdict = if worse_by > bound {
                ok = false;
                "  EXCEEDS"
            } else {
                ""
            };
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                w.name(),
                def.name,
                x,
                y,
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "{}",
        if ok {
            "A/A: within bounds"
        } else {
            "A/A: FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127);
        m.set("delivered_mib_s", 3890.25);
        m.set("setup_s", 0.5);
        let line = render_result_line(true, 1000, 0, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let (correct, values) = parse_result_line(&line).expect("parses");
        assert!(correct);
        assert_eq!(
            values,
            vec![
                ("setup_s".to_string(), 0.5),
                ("delivered_mib_s".to_string(), 3890.25)
            ]
        );
        let failed = render_result_line(false, 3, 1, END_TO_END, &m);
        assert!(!parse_result_line(&failed).expect("parses").0);
    }

    #[test]
    fn arguments_follow_the_drivers_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sim_mix --seed 7 --seconds 3 --trace 1")).expect("ok");
        assert_eq!(a.workload, Some(Workload::SimMix));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(!parse_args(&argv("--trace 0")).expect("ok").trace);
        assert!(parse_args(&argv("--trace --smoke")).expect("ok").trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--aa --trace")).is_err());
    }

    #[test]
    fn benchmark_json_declares_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let bound = def
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let declared = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                def.name,
                def.unit,
                def.better.as_str()
            );
            assert!(json.contains(&declared), "BENCHMARK.json lacks {declared}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    }
}
