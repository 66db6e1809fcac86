//! End-to-end benchmark of the extsec name server.
//!
//! ```text
//! cargo run --release --offline --manifest-path nsbench/Cargo.toml -- \
//!     --workload <local_mix|wire_mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the workload's world from the seed, drives it for `S` seconds,
//! checks that every decision, the audit chain and the server came out
//! right, and prints one JSON result line last on stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! human-readable summary goes to stderr. Exits 1 when the correctness
//! gate trips and 2 on a usage or set-up error. See `NOTES.md` for what
//! each workload and metric is for.

mod calib;
mod fixture;
mod gen;
mod layers;
mod local;
mod run;
mod stats;
mod wire;

use run::{Args, Outcome, Workload};
use std::process::ExitCode;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/ref_s"),
    ("decisions_per_ref_s", "1/ref_s"),
    ("read_p50_ref_us", "ref_us"),
    ("read_p95_ref_us", "ref_us"),
    ("heavy_p50_ref_us", "ref_us"),
    ("heavy_p95_ref_us", "ref_us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of a traced run, with their units.
const PER_LAYER: [(&str, &str); 43] = [
    ("namespace.resolve_ns", "ns"),
    ("acl.check_ns", "ns"),
    ("mac.dominates_ns", "ns"),
    ("refmon.check_hit_ns", "ns"),
    ("refmon.check_miss_ns", "ns"),
    ("refmon.batch_check_us", "us"),
    ("refmon.set_acl_us", "us"),
    ("refmon.bundle_stage_us", "us"),
    ("refmon.bundle_activate_us", "us"),
    ("refmon.bundle_rollback_us", "us"),
    ("ext.call_us", "us"),
    ("ext.run_us", "us"),
    ("vm.run_us", "us"),
    ("services.base_call_us", "us"),
    ("server.rtt_b1_us", "us"),
    ("server.rtt_b16_us", "us"),
    ("server.rtt_b64_us", "us"),
    ("server.encode_ns", "ns"),
    ("server.decode_ns", "ns"),
    ("refmon.cache_hit_ratio", "ratio"),
    ("refmon.cache_invalidations", "count"),
    ("refmon.audit_ring_dropped", "count"),
    ("auditlog.offered", "count"),
    ("auditlog.shed", "count"),
    ("auditlog.shed_ratio", "ratio"),
    ("auditlog.persisted", "count"),
    ("auditlog.queue_depth_max", "count"),
    ("auditlog.drain_lag_ms", "ms"),
    ("auditlog.verify_ms", "ms"),
    ("ext.dispatch_specialized", "count"),
    ("ext.dispatch_base", "count"),
    ("ext.quarantines", "count"),
    ("server.polls_per_request", "ratio"),
    ("server.ready_per_poll", "ratio"),
    ("server.flushes_per_response", "ratio"),
    ("server.busy_refusals", "count"),
    ("bench.ops_per_s", "1/s"),
    ("bench.decisions_per_s", "1/s"),
    ("bench.read_p99_ref_us", "ref_us"),
    ("bench.heavy_p99_ref_us", "ref_us"),
    ("bench.speed_factor", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.cpu_busy_ratio", "ratio"),
];

/// The workloads, each with what its `heavy_*` latency times.
const WORKLOADS: [(&str, &str); 2] = [
    ("local_mix", "ExtRuntime::call on the extensible interface"),
    ("wire_mix", "64-item BatchCheck round trip"),
];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.iter().any(|(w, _)| *w == value) => workload = Some(value),
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
                return Err(format!("unknown workload {value:?}; one of {names:?}"));
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => match value.parse::<u64>() {
                Ok(s @ 1..=600) => seconds = Some(s),
                _ => return Err(format!("--seconds {value:?}: want 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value:?}: want 0 or 1")),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn execute(args: &Args) -> Result<Outcome, String> {
    let (mut workload, setup_s): (Box<dyn Workload>, f64) = match args.workload.as_str() {
        "local_mix" => {
            let (w, s) = local::Local::setup(args.seed)?;
            (Box::new(w), s)
        }
        _ => {
            let (w, s) = wire::Wire::setup(args.seed)?;
            (Box::new(w), s)
        }
    };
    Ok(run::drive(workload.as_mut(), setup_s, args))
}

/// Orders `metrics` as `table` lists them, refusing any mismatch in
/// names or units: the result line must carry exactly the declared set.
fn declared(
    table: &[(&str, &str)],
    mut metrics: Vec<stats::Metric>,
) -> Result<Vec<stats::Metric>, String> {
    let mut ordered = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let at = metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let m = metrics.swap_remove(at);
        if m.unit != unit {
            return Err(format!("metric {name} in {}, declared in {unit}", m.unit));
        }
        ordered.push(m);
    }
    match metrics.first() {
        Some(extra) => Err(format!("metric {} is not declared", extra.name)),
        None => Ok(ordered),
    }
}

fn summarize(args: &Args, outcome: &Outcome) {
    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "nsbench {} seed={} seconds={} ({mode}), {} cores",
        args.workload,
        args.seed,
        args.seconds,
        fixture::nproc()
    );
    if let Some((_, heavy)) = WORKLOADS.iter().find(|(w, _)| *w == args.workload) {
        eprintln!("  heavy_* times: {heavy}");
    }
    for m in &outcome.metrics {
        eprintln!("    {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for line in &outcome.summary {
        eprintln!("  {line}");
    }
    eprintln!(
        "  attempted {} failed {} (failed_ratio {:.6})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for v in &outcome.violations {
        eprintln!("  GATE: {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("nsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match execute(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("nsbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    summarize(&args, &outcome);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let line = declared(table, outcome.metrics).and_then(|metrics| {
        let correct = outcome.violations.is_empty();
        stats::result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    });
    match line {
        Ok(line) => {
            println!("{line}");
            if outcome.violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("nsbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload wire_mix --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wire_mix", 42, 10, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload local_mix --seed x --seconds 1").is_err());
        assert!(args("--workload local_mix --seed 1 --seconds 0").is_err());
        assert!(args("--workload local_mix --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
    }

    #[test]
    fn metric_tables_fit_the_charset_and_are_unique() {
        let all: Vec<&(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    /// The declaration file and the binary must agree on every name and
    /// unit, and on the workloads.
    #[test]
    fn tables_match_the_declaration_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            compact.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for (workload, _) in WORKLOADS {
            let entry = format!("\"name\":\"{workload}\",\"why\":");
            assert!(compact.contains(&entry), "workload {workload} undeclared");
        }
        assert_eq!(
            compact.matches("\"name\":\"").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "an unknown workload"
        );
    }

    #[test]
    fn declared_refuses_missing_extra_and_misunited_metrics() {
        let m = |name: &'static str, unit: &'static str| stats::Metric {
            name,
            value: 1.0,
            unit,
        };
        let table = [("a", "s"), ("b", "ms")];
        let ok = declared(&table, vec![m("b", "ms"), m("a", "s")]).unwrap();
        assert_eq!(ok.iter().map(|m| m.name).collect::<Vec<_>>(), ["a", "b"]);
        assert!(declared(&table, vec![m("a", "s")]).is_err());
        assert!(declared(&table, vec![m("a", "s"), m("b", "s")]).is_err());
        assert!(declared(&table, vec![m("a", "s"), m("b", "ms"), m("c", "s")]).is_err());
    }
}
