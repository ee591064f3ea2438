//! Runs every workload at `--smoke` scale, untraced and traced, and holds
//! the printed metric names to `BENCHMARK.json`: the file the driver reads
//! and the program must not drift apart.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "scan_plain",
    "scan_compressed",
    "short_hot",
    "served_loopback",
    "sim_mix",
];

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of the array under `key` (the file nests no arrays).
fn array_of<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let rest = &json[start..];
    &rest[..rest.find(']').expect("array closes")]
}

/// Every value of a `"name"` key in `text`, in order.
fn names_in(text: &str) -> Vec<String> {
    text.split("\"name\": \"")
        .skip(1)
        .map(|after| after[..after.find('"').expect("name closes")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn printed_names(result_line: &str) -> Vec<String> {
    let metrics = result_line
        .split_once("\"metrics\": {")
        .expect("result line has metrics")
        .1;
    // Every piece but the last ends with the name the separator followed.
    let pieces: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    pieces[..pieces.len() - 1]
        .iter()
        .map(|before| {
            before
                .rsplit_once('"')
                .expect("a quoted name")
                .1
                .to_string()
        })
        .collect()
}

fn smoke(workload: &str, trace: &str, seed: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_cscan_benchmark"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ") && line.contains("\"failed\": 0,"),
        "{workload} --trace {trace}: {line}"
    );
    line
}

#[test]
fn smoke_run_prints_exactly_the_metrics_of_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(names_in(array_of(&json, "workloads")), WORKLOADS);
    let end_to_end = names_in(array_of(&json, "end_to_end"));
    let per_layer = names_in(array_of(&json, "per_layer"));
    assert!(end_to_end.contains(&"setup_s".to_string()));

    let mut seen = BTreeSet::new();
    for name in end_to_end
        .iter()
        .chain(&per_layer)
        .chain(&names_in(array_of(&json, "workloads")))
    {
        assert!(seen.insert(name), "{name} is used twice");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name} has a character outside letters, digits, _ . -"
        );
    }

    for workload in WORKLOADS {
        // Two seeds: other plans (`gen.rs` checks that they differ), and
        // the answers must check out for both.
        assert_eq!(
            printed_names(&smoke(workload, "0", "5")),
            end_to_end,
            "{workload}"
        );
        assert_eq!(
            printed_names(&smoke(workload, "1", "6")),
            per_layer,
            "{workload}"
        );
        let trace = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let spans = std::fs::read_to_string(&trace).expect("the traced run wrote its spans");
        assert!(spans.contains("\"spans_recorded\": ") && spans.contains("\"name\": \"query\""));
    }
}
