//! Benchmark harness crate: `benches/` holds the constructed paper
//! figures F1–F7 and the telemetry-cost bench F10. End-to-end and
//! per-layer timings come from `nsbench/`; the scale sweeps print rows
//! from `tests/scale.rs` and `crates/ext/tests/resource_bounds.rs`.
#![forbid(unsafe_code)]
