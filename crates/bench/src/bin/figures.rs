//! Every table and figure of the paper's evaluation, from the manifest in
//! `cscan_bench::figures`:
//!
//! ```text
//! figures [name ...] [quick|paper]
//! ```
//!
//! prints each named entry (every entry when none is named) at the given
//! scale (`quick` by default) with a PASS or FAIL line per paper claim.
//! Exits 1 if a claim fails or an entry cannot run, and 2 on an argument
//! that is neither an entry's name nor a scale.

use cscan_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (entries, scale) = figures::parse_args(&args).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2)
    });
    let mut failed = false;
    for entry in entries {
        match entry.run(scale, true) {
            Ok(verdicts) => {
                for &(claim, holds) in &verdicts {
                    println!("{} {claim}", if holds { "PASS" } else { "FAIL" });
                    failed |= !holds;
                }
                if !verdicts.is_empty() {
                    println!();
                }
            }
            Err(e) => {
                eprintln!("{} failed: {e}", entry.name());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
