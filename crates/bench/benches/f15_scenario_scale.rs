//! F15 — scenario-generator scale table.
//!
//! Builds campus worlds at 10^4 → 10^6 principals with the campaign
//! crate's deterministic generator and reports, per population: build
//! time, node count, resident-set growth, cold (first pass) and warm
//! (third pass) check latency over a strided probe sweep, and one guarded
//! `set_acl` round-trip. This is the scale harness behind the F15 table
//! in EXPERIMENTS.md and the same generator the campaign explorer and
//! `tests/scale.rs` use, so the numbers describe the worlds the
//! adversarial campaigns actually run in.
//!
//! A plain timing harness (not criterion): each population is built
//! once — statistical repetition at 10^6 principals would take hours
//! for no added signal. Set `EXTSEC_BENCH_SMOKE=1` to stop at 10^4
//! (CI's compile-and-run gate); set `EXTSEC_SCALE_FULL=1` to include
//! the 10^6 row.

use extsec_campaign::{Profile, World, WorldSpec};
use extsec_core::AccessMode;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Resident set size in KiB, best effort (Linux `/proc/self/statm`).
fn rss_kib() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

struct Row {
    principals: usize,
    nodes: usize,
    build: Duration,
    rss_delta_mib: f64,
    cold_us: f64,
    warm_us: f64,
    set_acl_us: f64,
}

fn measure(principals: usize, seed: u64) -> Row {
    let rss_before = rss_kib().unwrap_or(0);
    let spec = WorldSpec::scaled(Profile::Campus, principals, seed);
    let (world, stats) = World::build_timed(&spec);
    let rss_after = rss_kib().unwrap_or(rss_before);

    // Strided sweep: 64 principals × 32 leaves, cold (the first pass
    // over the grid) then warm (the third).
    let pstride = (principals / 64).max(1);
    let lstride = (world.leaves.len() / 32).max(1);
    let grid: Vec<(usize, usize)> = (0..principals)
        .step_by(pstride)
        .flat_map(|pi| {
            (0..world.leaves.len())
                .step_by(lstride)
                .map(move |li| (pi, li))
        })
        .collect();

    let cold_t = Instant::now();
    for &(pi, li) in &grid {
        black_box(world.monitor.check_unmemoized(
            &world.subject(pi),
            &world.leaves[li],
            AccessMode::Read,
        ));
    }
    let cold = cold_t.elapsed();

    // One untimed pass, then time the warm one.
    for &(pi, li) in &grid {
        black_box(
            world
                .monitor
                .check(&world.subject(pi), &world.leaves[li], AccessMode::Read),
        );
    }
    let warm_t = Instant::now();
    for &(pi, li) in &grid {
        black_box(
            world
                .monitor
                .check(&world.subject(pi), &world.leaves[li], AccessMode::Read),
        );
    }
    let warm = warm_t.elapsed();

    // One guarded administrative ACL round-trip at population.
    let path = world.leaves[world.leaves.len() / 2].clone();
    let prot = world.monitor.protection_of(&path).unwrap();
    let admin = world.admin_subject(&prot.label);
    let acl_t = Instant::now();
    world
        .monitor
        .set_acl(&admin, &path, prot.acl.clone())
        .expect("guarded set_acl at scale");
    let set_acl = acl_t.elapsed();

    Row {
        principals,
        nodes: stats.nodes,
        build: stats.build,
        rss_delta_mib: rss_after.saturating_sub(rss_before) as f64 / 1024.0,
        cold_us: cold.as_secs_f64() * 1e6 / grid.len() as f64,
        warm_us: warm.as_secs_f64() * 1e6 / grid.len() as f64,
        set_acl_us: set_acl.as_secs_f64() * 1e6,
    }
}

fn main() {
    let smoke = std::env::var_os("EXTSEC_BENCH_SMOKE").is_some();
    let full = std::env::var_os("EXTSEC_SCALE_FULL").is_some();
    let mut populations = vec![10_000usize];
    if !smoke {
        populations.push(100_000);
        if full {
            populations.push(1_000_000);
        }
    }
    println!(
        "{:>10} {:>8} {:>10} {:>9} {:>9} {:>9} {:>11}",
        "principals", "nodes", "build", "rss ΔMiB", "cold µs", "warm µs", "set_acl µs"
    );
    for (i, n) in populations.into_iter().enumerate() {
        let row = measure(n, 20 + i as u64);
        println!(
            "{:>10} {:>8} {:>10.2?} {:>9.1} {:>9.2} {:>9.3} {:>11.1}",
            row.principals,
            row.nodes,
            row.build,
            row.rss_delta_mib,
            row.cold_us,
            row.warm_us,
            row.set_acl_us
        );
    }
}
