//! Workspace root package: it holds the top-level integration tests
//! (`tests/`) and examples (`examples/`), which name the sub-crates
//! (`cscan_core`, `cscan_exec`, ...) directly.
