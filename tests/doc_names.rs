//! `ARCHITECTURE.md` as a checked contract: every snake_case name it cites
//! in backticks — a test, a function, a counter, a file — must exist in
//! the workspace, and every bullet of its "Invariants" section must name a
//! test or test file that enforces it.
//!
//! A name exists if it is a whole word of a `.rs`, `.toml` or `.yml` file
//! under `crates/`, `tests/`, `examples/`, `src/`, `benchmark/src/` or
//! `.github/`, or the stem of a `.rs` file there.  Names built at run time
//! are cited by their pattern (`cscan_span_<kind>_ns`), which is not a
//! snake_case name and is not checked.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const ROOTS: [&str; 6] = [
    "crates",
    "tests",
    "examples",
    "src",
    "benchmark/src",
    ".github",
];

/// Whether `s` is a snake_case name: lower-case words joined by `_`, at
/// least two of them.
fn is_snake_case(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.contains('_')
        && s.split('_').all(|w| {
            !w.is_empty()
                && w.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
        })
}

/// The backticked spans of `markdown` outside fenced code blocks.
fn backticked(markdown: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// Every `.rs`, `.toml` and `.yml` file under `dir`.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name != "target") {
                source_files(&path, out);
            }
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml" || ext == "yml")
        {
            out.push(path);
        }
    }
}

/// What a cited name may be: the words of every source file and the stems
/// of the `.rs` files; and what enforces an invariant: a `#[test]`
/// function, or a file of tests.
struct Workspace {
    words: HashSet<String>,
    stems: HashSet<String>,
    tests: HashSet<String>,
}

impl Workspace {
    fn scan(root: &Path) -> Self {
        let mut files = Vec::new();
        for dir in ROOTS {
            source_files(&root.join(dir), &mut files);
        }
        assert!(files.len() > 50, "found only {} source files", files.len());
        let mut ws = Workspace {
            words: HashSet::new(),
            stems: HashSet::new(),
            tests: HashSet::new(),
        };
        for path in &files {
            if path.extension().is_some_and(|ext| ext == "rs") {
                let stem = path.file_stem().and_then(|s| s.to_str());
                let stem = stem.map(str::to_owned);
                if path.components().any(|c| c.as_os_str() == "tests") {
                    ws.tests.extend(stem.clone());
                }
                ws.stems.extend(stem);
            }
            let text = fs::read_to_string(path).unwrap_or_default();
            for (at, _) in text.match_indices("#[test]") {
                let name = text[at..].split_once("fn ").map(|(_, rest)| rest);
                let name = name.and_then(|rest| rest.split(['(', '<']).next());
                ws.tests.extend(name.map(str::to_owned));
            }
            let words = text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            ws.words
                .extend(words.filter(|w| !w.is_empty()).map(str::to_owned));
        }
        ws
    }

    fn exists(&self, name: &str) -> bool {
        self.words.contains(name) || self.stems.contains(name)
    }

    /// Whether `name` is a test or a file of tests.
    fn is_test(&self, name: &str) -> bool {
        self.tests.contains(name)
    }
}

fn architecture() -> (PathBuf, String) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    (root, doc)
}

#[test]
fn every_cited_name_exists() {
    let (root, doc) = architecture();
    let ws = Workspace::scan(&root);
    let cited: Vec<&str> = backticked(&doc)
        .into_iter()
        .filter(|span| is_snake_case(span))
        .collect();
    assert!(cited.len() > 100, "found only {} cited names", cited.len());
    let mut missing: Vec<&str> = cited.into_iter().filter(|n| !ws.exists(n)).collect();
    missing.sort_unstable();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "ARCHITECTURE.md cites names the workspace does not have: {missing:?}"
    );
}

#[test]
fn every_invariant_names_its_tests() {
    let (root, doc) = architecture();
    let ws = Workspace::scan(&root);
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Invariants"))
        .expect("an Invariants section");
    let bullets: Vec<&str> = section.split("\n* ").skip(1).collect();
    assert!(
        bullets.len() >= 5,
        "found only {} invariants",
        bullets.len()
    );
    for bullet in bullets {
        let tests = backticked(bullet)
            .into_iter()
            .filter(|span| is_snake_case(span) && ws.is_test(span))
            .count();
        assert!(tests > 0, "this invariant names no test: {bullet}");
    }
}

#[test]
fn snake_case_is_what_is_checked() {
    for name in ["pinned_table2_decisions", "load_failed", "a_b"] {
        assert!(is_snake_case(name), "{name}");
    }
    for span in [
        "Scheduler::plan",
        "cscan_span_<kind>_ns",
        "plan",
        "_x",
        "x_",
        "a__b",
        "BENCH_io.json",
    ] {
        assert!(!is_snake_case(span), "{span}");
    }
}
