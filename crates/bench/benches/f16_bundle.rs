//! F16 — what the policy-bundle subsystem costs on the check path.
//!
//! Three prices, against the established F1 tail-grant workload (256
//! filler ACL entries, audit off):
//!
//! * a *staged* bundle must be free: staging compiles a diff into the
//!   registry and never touches the published snapshot, so the warm
//!   row with a bundle staged must match the baseline;
//! * *shadow mode* dual-evaluates every enforced check against the
//!   staged policy, so the warm row with shadow on prices the full
//!   second evaluation (the ratio line reports it directly);
//! * the *churn* row prices one whole stage → activate → rollback
//!   cycle — two snapshot publishes plus a one-op compile.
//!
//! Set `EXTSEC_BENCH_SMOKE=1` for a fast correctness pass (CI) instead
//! of the full measurement: tiny iteration counts, asserts that shadow
//! counted flips without changing one enforced decision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use extsec_core::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, MonitorConfig, NodeKind, NsPath,
    Protection, ReferenceMonitor, SecurityClass, Subject,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

fn smoke() -> bool {
    std::env::var_os("EXTSEC_BENCH_SMOKE").is_some()
}

/// The staged diff: replace the tail-grant ACL with a single entry,
/// dropping the probing subject's execute grant — every dual-evaluated
/// check is an allow→deny flip, so the flip machinery is on the paid
/// path, not short-circuited.
const BUNDLE: &str = r#"
bundle "f16-price" version 1 base current;
set-acl /svc/fs/read "+p0:rl";
"#;

/// The F1 fixture: `/svc/fs/read` carries 256 filler entries with the
/// probing subject's grant at the tail; audit off.
fn tail_grant_world() -> (Arc<ReferenceMonitor>, Subject) {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    let fillers: Vec<_> = (0..256)
        .map(|i| builder.add_principal(format!("p{i}")).unwrap())
        .collect();
    let target = builder.add_principal("target").unwrap();
    builder.config(MonitorConfig {
        audit: false,
        ..MonitorConfig::default()
    });
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            let mut entries: Vec<AclEntry> = fillers
                .iter()
                .map(|f| AclEntry::allow_principal_modes(*f, ModeSet::parse("rl").unwrap()))
                .collect();
            entries.push(AclEntry::allow_principal(target, AccessMode::Execute));
            ns.insert(
                &p("/svc/fs"),
                "read",
                NodeKind::Procedure,
                Protection::new(Acl::from_entries(entries), SecurityClass::bottom()),
            )?;
            Ok(())
        })
        .unwrap();
    let subject = Subject::new(target, SecurityClass::bottom());
    (monitor, subject)
}

/// Mean ns/check over `iters` warm checks.
fn time_checks(monitor: &ReferenceMonitor, subject: &Subject, path: &NsPath, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(monitor.check(black_box(subject), path, AccessMode::Execute));
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn bench(c: &mut Criterion) {
    if smoke() {
        report_bundle_table(2_000, 50);
        return;
    }

    let mut group = c.benchmark_group("f16_bundle");
    let path = p("/svc/fs/read");

    let (baseline, subject) = tail_grant_world();
    assert!(baseline
        .check(&subject, &path, AccessMode::Execute)
        .allowed());
    group.bench_with_input(BenchmarkId::new("warm", "baseline"), &(), |b, ()| {
        b.iter(|| black_box(baseline.check(black_box(&subject), &path, AccessMode::Execute)))
    });

    let (staged, subject_s) = tail_grant_world();
    staged.stage_bundle(BUNDLE).expect("bundle compiles");
    assert!(staged
        .check(&subject_s, &path, AccessMode::Execute)
        .allowed());
    group.bench_with_input(BenchmarkId::new("warm", "staged-only"), &(), |b, ()| {
        b.iter(|| black_box(staged.check(black_box(&subject_s), &path, AccessMode::Execute)))
    });

    let (shadowed, subject_h) = tail_grant_world();
    let handle = shadowed.stage_bundle(BUNDLE).expect("bundle compiles");
    shadowed.shadow_bundle(handle.id, true).expect("shadow on");
    assert!(shadowed
        .check(&subject_h, &path, AccessMode::Execute)
        .allowed());
    group.bench_with_input(BenchmarkId::new("warm", "shadow-on"), &(), |b, ()| {
        b.iter(|| black_box(shadowed.check(black_box(&subject_h), &path, AccessMode::Execute)))
    });

    let (churn, _) = tail_grant_world();
    group.bench_with_input(BenchmarkId::new("lifecycle", "cycle"), &(), |b, ()| {
        b.iter(|| {
            let staged = churn.stage_bundle(BUNDLE).expect("bundle compiles");
            churn.activate_bundle(staged.id).expect("activate");
            churn.rollback().expect("rollback");
        })
    });
    group.finish();

    report_bundle_table(50_000, 2_000);
}

/// Prints the EXPERIMENTS.md F16 table: warm-check pricing under the
/// three bundle states, the dual-evaluation ratio, and the lifecycle
/// cycle cost — then asserts shadow mode counted every flip without
/// changing one enforced decision.
fn report_bundle_table(iters: u32, cycles: u32) {
    let path = p("/svc/fs/read");

    let (baseline, subject) = tail_grant_world();
    baseline.check(&subject, &path, AccessMode::Execute);
    let base_ns = time_checks(&baseline, &subject, &path, iters);

    let (staged, subject_s) = tail_grant_world();
    staged.stage_bundle(BUNDLE).expect("bundle compiles");
    staged.check(&subject_s, &path, AccessMode::Execute);
    let staged_ns = time_checks(&staged, &subject_s, &path, iters);

    let (shadowed, subject_h) = tail_grant_world();
    let handle = shadowed.stage_bundle(BUNDLE).expect("bundle compiles");
    shadowed.shadow_bundle(handle.id, true).expect("shadow on");
    shadowed.check(&subject_h, &path, AccessMode::Execute);
    let shadow_ns = time_checks(&shadowed, &subject_h, &path, iters);

    let (churn, _) = tail_grant_world();
    let start = Instant::now();
    for _ in 0..cycles {
        let staged = churn.stage_bundle(BUNDLE).expect("bundle compiles");
        churn.activate_bundle(staged.id).expect("activate");
        churn.rollback().expect("rollback");
    }
    let cycle_us = start.elapsed().as_micros() as f64 / f64::from(cycles);

    println!("\nf16 bundle pricing (256-entry tail grant, warm checks):");
    println!("{:<26} {:>14}", "state", "warm check");
    println!("{:<26} {:>11.0} ns", "no bundle", base_ns);
    println!(
        "{:<26} {:>11.0} ns {:>+8.1}%",
        "bundle staged, shadow off",
        staged_ns,
        (staged_ns - base_ns) / base_ns * 100.0
    );
    println!(
        "{:<26} {:>11.0} ns {:>8.2}x",
        "shadow on (dual-evaluate)",
        shadow_ns,
        shadow_ns / base_ns
    );
    println!("f16 lifecycle: stage+activate+rollback = {cycle_us:.1} us/cycle ({cycles} cycles)");

    // Sanity: every dual-evaluated check was an allow→deny flip and not
    // one enforced decision moved.
    assert!(
        shadowed
            .check(&subject_h, &path, AccessMode::Execute)
            .allowed(),
        "shadow mode changed an enforced decision"
    );
    let report = shadowed.bundle_status().shadow.expect("shadow mode is on");
    assert!(report.checks >= u64::from(iters));
    assert_eq!(
        report.allow_to_deny, report.checks,
        "every dual-evaluated check flips under the staged revocation"
    );
    println!(
        "f16 sanity: {} dual-evaluated checks, {} allow->deny flips, enforcement unchanged",
        report.checks, report.allow_to_deny
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600));
    targets = bench
}
criterion_main!(benches);
