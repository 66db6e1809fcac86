//! The adversarial campaign battery (DESIGN.md §6.11).
//!
//! Four kinds of coverage:
//!
//! 1. **Determinism** — the same world spec and explorer seed reproduce
//!    the identical world, op sequence, and outcome, byte for byte.
//!    Everything else (CI seeds, corpus replay, shrinking) rests on it.
//! 2. **Clean campaigns** — a seeded guided campaign, with and without a
//!    fault storm, holds every invariant (stale-grant, mac-flow,
//!    visibility, quarantine-bypass, batch-coherence/fail-closed,
//!    audit-gap, resource-bounds). The step budget
//!    and seed are overridable (`EXTSEC_CAMPAIGN_STEPS`,
//!    `EXTSEC_CAMPAIGN_SEED`) so CI's release leg runs the same test at
//!    100k+ steps and logs the seed for replay.
//! 3. **Self-test via planted mutants** — arming a scripted fail-open
//!    bug (a silently skipped revocation; a quarantine bypass; a skipped
//!    memory limit; an audit record dropped without being counted; an
//!    interior-node visibility check skipped; a batch memo that ignores
//!    the access mode) must
//!    make the explorer find the violation within a bounded budget and
//!    shrink it to a short replayable campaign.
//! 4. **Corpus replay** — every minimized campaign under
//!    `tests/corpus/` replays verbatim and still produces exactly the
//!    violation (or clean pass) it documents.

use extsec::campaign::{
    explore, minimize, replay, Campaign, ExploreConfig, Invariant, Mutant, Storm, World, WorldSpec,
};
use extsec::faults::{self, FaultAction, FaultPlan};
use extsec::AccessMode;
use std::sync::{Mutex, MutexGuard};

/// The installed fault plan is process-global; every test that installs
/// one (storm or mutants) holds this lock for its whole run.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the fault machinery is compiled in (the `fault-injection`
/// feature; on for test builds via dev-dependencies). Callers hold
/// [`exclusive`] already.
fn armed() -> bool {
    faults::install(FaultPlan::seeded(0).at("campaign.probe", 0, FaultAction::Error));
    let armed = faults::fire("campaign.probe").is_some();
    faults::clear();
    armed
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

// ---------------------------------------------------------------------
// 1. Determinism.
// ---------------------------------------------------------------------

#[test]
fn world_build_is_deterministic() {
    let spec = WorldSpec::campus(41);
    let a = World::build(&spec);
    let b = World::build(&spec);
    assert_eq!(a.leaves, b.leaves);
    assert_eq!(a.principals, b.principals);
    assert_eq!(a.domains, b.domains);
    // Same decisions across the whole probe grid.
    for pi in 0..a.principals.len() {
        for li in 0..a.leaves.len() {
            for mode in [AccessMode::Read, AccessMode::Write, AccessMode::Execute] {
                let da = a.monitor.check(&a.subject(pi), &a.leaves[li], mode);
                let db = b.monitor.check(&b.subject(pi), &b.leaves[li], mode);
                assert_eq!(
                    format!("{da:?}"),
                    format!("{db:?}"),
                    "probe ({pi},{li},{mode:?}) diverged between identical worlds"
                );
            }
        }
    }
}

#[test]
fn explorer_runs_are_byte_identical() {
    let _guard = exclusive();
    let spec = WorldSpec::app_store(9);
    let cfg = ExploreConfig::clean(17, 400);
    let a = explore(&spec, &cfg);
    let b = explore(&spec, &cfg);
    assert_eq!(a.campaign.to_text(), b.campaign.to_text());
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    assert_eq!(format!("{:?}", a.violation), format!("{:?}", b.violation));
}

#[test]
fn campaign_text_round_trips_through_the_codec() {
    let _guard = exclusive();
    let spec = WorldSpec::campus(3);
    let mut cfg = ExploreConfig::clean(5, 120);
    cfg.storm = Some(Storm { seed: 99, rate: 16 });
    cfg.mutants = vec![Mutant {
        tag: "refmon.set_acl.apply".into(),
        nth: Some(2),
    }];
    let out = explore(&spec, &cfg);
    let text = out.campaign.to_text();
    let reparsed = Campaign::parse(&text).expect("corpus text parses");
    assert_eq!(reparsed, out.campaign);
    assert_eq!(reparsed.to_text(), text);
}

// ---------------------------------------------------------------------
// 2. Clean campaigns: no violation, storm or not.
// ---------------------------------------------------------------------

#[test]
fn clean_campaign_holds_all_invariants() {
    let _guard = exclusive();
    let seed = env_u64("EXTSEC_CAMPAIGN_SEED", 0xC0FFEE);
    let steps = env_u64("EXTSEC_CAMPAIGN_STEPS", default_steps()) as usize;
    let spec = WorldSpec::campus(seed ^ 0x5eed);
    let cfg = ExploreConfig::clean(seed, steps);
    println!("campaign: fault-free seed={seed} steps={steps} spec=[{spec}]");
    let out = explore(&spec, &cfg);
    assert!(
        out.violation.is_none(),
        "fault-free campaign violated an invariant: {} — replay with seed={seed}\n{}",
        out.violation.as_ref().unwrap(),
        out.campaign.to_text()
    );
    assert!(out.stats.probes > 0 && out.stats.grants > 0 && out.stats.denials > 0);
}

#[test]
fn clean_campaign_under_fault_storm_holds_all_invariants() {
    let _guard = exclusive();
    let seed = env_u64("EXTSEC_CAMPAIGN_SEED", 0xC0FFEE);
    let steps = env_u64("EXTSEC_CAMPAIGN_STEPS", default_steps()) as usize;
    let spec = WorldSpec::app_store(seed ^ 0x5704);
    let mut cfg = ExploreConfig::clean(seed, steps);
    cfg.storm = Some(Storm {
        seed: seed.rotate_left(17),
        rate: 24,
    });
    println!("campaign: storm seed={seed} steps={steps} rate=24/1024 spec=[{spec}]");
    let out = explore(&spec, &cfg);
    assert!(
        out.violation.is_none(),
        "storm campaign violated an invariant: {} — replay with seed={seed}\n{}",
        out.violation.as_ref().unwrap(),
        out.campaign.to_text()
    );
    if armed() {
        println!(
            "campaign: storm injected {} faults over {} probes",
            out.faults.total(),
            out.stats.probes
        );
    }
}

/// Debug builds walk a few thousand steps; CI's release leg overrides
/// with `EXTSEC_CAMPAIGN_STEPS=100000`.
fn default_steps() -> u64 {
    if cfg!(debug_assertions) {
        3_000
    } else {
        20_000
    }
}

// ---------------------------------------------------------------------
// 3. Self-test: planted mutants must be found and minimized.
// ---------------------------------------------------------------------

#[test]
fn planted_revocation_skip_is_found_and_minimized() {
    let _guard = exclusive();
    if !armed() {
        eprintln!("fault machinery compiled out; skipping mutant self-test");
        return;
    }
    let spec = WorldSpec::campus(7);
    let mut cfg = ExploreConfig::clean(1, 800);
    cfg.mutants = vec![Mutant {
        tag: "refmon.set_acl.apply".into(),
        nth: None,
    }];
    let out = explore(&spec, &cfg);
    let violation = out
        .violation
        .expect("the explorer must find the planted revocation skip within 800 steps");
    assert_eq!(violation.invariant, Invariant::StaleGrant, "{violation}");
    assert!(
        violation.step <= 800,
        "found outside the step budget: {violation}"
    );

    let report = minimize(&out.campaign, 400);
    assert!(
        report.campaign.ops.len() <= 10,
        "minimization left {} ops (spent {} replays):\n{}",
        report.campaign.ops.len(),
        report.replays,
        report.campaign.to_text()
    );
    let replayed = replay(&report.campaign).expect("minimized campaign must still reproduce");
    assert_eq!(replayed.invariant, Invariant::StaleGrant);
}

#[test]
fn planted_quarantine_bypass_is_found_and_minimized() {
    let _guard = exclusive();
    if !armed() {
        eprintln!("fault machinery compiled out; skipping mutant self-test");
        return;
    }
    let spec = WorldSpec::app_store(11);
    let mut cfg = ExploreConfig::clean(2, 2_000);
    cfg.mutants = vec![Mutant {
        tag: "ext.admit.bypass".into(),
        nth: None,
    }];
    let out = explore(&spec, &cfg);
    let violation = out
        .violation
        .expect("the explorer must find the planted quarantine bypass within 2000 steps");
    assert_eq!(
        violation.invariant,
        Invariant::QuarantineBypass,
        "{violation}"
    );

    let report = minimize(&out.campaign, 400);
    assert!(
        report.campaign.ops.len() <= 12,
        "minimization left {} ops:\n{}",
        report.campaign.ops.len(),
        report.campaign.to_text()
    );
    let replayed = replay(&report.campaign).expect("minimized campaign must still reproduce");
    assert_eq!(replayed.invariant, Invariant::QuarantineBypass);
}

#[test]
fn planted_memory_limit_skip_is_found_and_minimized() {
    let _guard = exclusive();
    if !armed() {
        eprintln!("fault machinery compiled out; skipping mutant self-test");
        return;
    }
    // The mutant skips the interpreter's memory-limit check, so a
    // memory-hog extension runs to completion instead of trapping
    // OutOfMemory — the resource-bounds invariant catches the first
    // dispatch of a hog.
    let spec = WorldSpec::campus(13);
    let mut cfg = ExploreConfig::clean(3, 2_000);
    cfg.mutants = vec![Mutant {
        tag: "vm.mem.limit_skip".into(),
        nth: None,
    }];
    let out = explore(&spec, &cfg);
    let violation = out
        .violation
        .expect("the explorer must find the planted memory-limit skip within 2000 steps");
    assert_eq!(
        violation.invariant,
        Invariant::ResourceBounds,
        "{violation}"
    );

    let report = minimize(&out.campaign, 400);
    assert!(
        report.campaign.ops.len() <= 8,
        "minimization left {} ops (spent {} replays):\n{}",
        report.campaign.ops.len(),
        report.replays,
        report.campaign.to_text()
    );
    let replayed = replay(&report.campaign).expect("minimized campaign must still reproduce");
    assert_eq!(replayed.invariant, Invariant::ResourceBounds);
}

#[test]
fn planted_uncounted_audit_loss_is_found_and_minimized() {
    let _guard = exclusive();
    if !armed() {
        eprintln!("fault machinery compiled out; skipping mutant self-test");
        return;
    }
    // The mutant makes the audit drainer drop records it read and
    // declare their numbers lost without counting them as shed: the
    // chain still verifies and still tiles every number, so only the
    // audit-gap invariant's loss accounting can tell.
    let spec = WorldSpec::campus(17);
    let mut cfg = ExploreConfig::clean(4, 600);
    cfg.mutants = vec![Mutant {
        tag: "audit.drain.uncounted_loss".into(),
        nth: None,
    }];
    let out = explore(&spec, &cfg);
    let violation = out
        .violation
        .expect("the explorer must find the planted uncounted audit loss within 600 steps");
    assert_eq!(violation.invariant, Invariant::AuditGap, "{violation}");

    let report = minimize(&out.campaign, 400);
    assert!(
        report.campaign.ops.len() <= 4,
        "minimization left {} ops (spent {} replays):\n{}",
        report.campaign.ops.len(),
        report.replays,
        report.campaign.to_text()
    );
    let replayed = replay(&report.campaign).expect("minimized campaign must still reproduce");
    assert_eq!(replayed.invariant, Invariant::AuditGap);
}

#[test]
fn planted_visibility_skip_is_found_and_minimized() {
    let _guard = exclusive();
    if !armed() {
        eprintln!("fault machinery compiled out; skipping mutant self-test");
        return;
    }
    // The mutant waves interior nodes through the monitor's one
    // visibility check, so once a domain is hidden from a principal,
    // a check below it that the leaf's ACL grants comes back allowed —
    // batch and single checks agree, and only the visibility
    // re-derivation can tell.
    let spec = WorldSpec::campus(19);
    let mut cfg = ExploreConfig::clean(5, 1_500);
    cfg.mutants = vec![Mutant {
        tag: "refmon.visibility.skip".into(),
        nth: None,
    }];
    let out = explore(&spec, &cfg);
    let violation = out
        .violation
        .expect("the explorer must find the planted visibility skip within 1500 steps");
    assert_eq!(violation.invariant, Invariant::Visibility, "{violation}");

    let report = minimize(&out.campaign, 400);
    assert!(
        report.campaign.ops.len() <= 4,
        "minimization left {} ops (spent {} replays):\n{}",
        report.campaign.ops.len(),
        report.replays,
        report.campaign.to_text()
    );
    let replayed = replay(&report.campaign).expect("minimized campaign must still reproduce");
    assert_eq!(replayed.invariant, Invariant::Visibility);
}

#[test]
fn planted_batch_memo_mode_is_found_and_minimized() {
    let _guard = exclusive();
    if !armed() {
        eprintln!("fault machinery compiled out; skipping mutant self-test");
        return;
    }
    // The mutant keys the batch's decision memo on the node alone, so a
    // batch asking one leaf in several modes answers every mode as the
    // first was answered. Single checks are untouched, so only the
    // batch-coherence invariant, which checks each batch item against a
    // single check of it, can tell.
    let spec = WorldSpec::campus(23);
    let mut cfg = ExploreConfig::clean(6, 600);
    cfg.mutants = vec![Mutant {
        tag: "refmon.batch.memo_mode".into(),
        nth: None,
    }];
    let out = explore(&spec, &cfg);
    let violation = out
        .violation
        .expect("the explorer must find the planted batch memo bug within 600 steps");
    assert_eq!(
        violation.invariant,
        Invariant::BatchCoherence,
        "{violation}"
    );

    let report = minimize(&out.campaign, 400);
    assert!(
        report.campaign.ops.len() <= 2,
        "minimization left {} ops (spent {} replays):\n{}",
        report.campaign.ops.len(),
        report.replays,
        report.campaign.to_text()
    );
    let replayed = replay(&report.campaign).expect("minimized campaign must still reproduce");
    assert_eq!(replayed.invariant, Invariant::BatchCoherence);
}

// ---------------------------------------------------------------------
// 4. Corpus replay: checked-in minimized campaigns stay reproducible.
// ---------------------------------------------------------------------

#[test]
fn corpus_replays_verbatim() {
    let _guard = exclusive();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "campaign"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "tests/corpus holds at least one campaign"
    );
    let can_fault = armed();
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let campaign = Campaign::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: corpus file does not parse: {e}"));
        if !campaign.mutants.is_empty() && !can_fault {
            eprintln!("{name}: needs fault-injection; skipping");
            continue;
        }
        let violation = replay(&campaign);
        match campaign.expect {
            Some(expected) => {
                let got = violation.unwrap_or_else(|| {
                    panic!("{name}: expected a {expected} violation, replayed clean")
                });
                assert_eq!(got.invariant, expected, "{name}: wrong violation: {got}");
            }
            None => {
                assert!(
                    violation.is_none(),
                    "{name}: expected clean, got {}",
                    violation.unwrap()
                );
            }
        }
    }
}

/// Regenerates the corpus text (run manually after a deliberate policy
/// or explorer change):
/// `cargo test --test campaign -- --ignored --nocapture regenerate`.
#[test]
#[ignore]
fn regenerate_corpus() {
    let _guard = exclusive();
    assert!(armed(), "regeneration needs fault-injection");
    for (file, spec, seed, steps, tag) in [
        (
            "revocation_skip.campaign",
            WorldSpec::campus(7),
            1,
            800,
            "refmon.set_acl.apply",
        ),
        (
            "quarantine_bypass.campaign",
            WorldSpec::app_store(11),
            2,
            2_000,
            "ext.admit.bypass",
        ),
        (
            "memory_limit_skip.campaign",
            WorldSpec::campus(13),
            3,
            2_000,
            "vm.mem.limit_skip",
        ),
        (
            "uncounted_audit_loss.campaign",
            WorldSpec::campus(17),
            4,
            600,
            "audit.drain.uncounted_loss",
        ),
        (
            "visibility_skip.campaign",
            WorldSpec::campus(19),
            5,
            1_500,
            "refmon.visibility.skip",
        ),
        (
            "batch_memo_mode.campaign",
            WorldSpec::campus(23),
            6,
            600,
            "refmon.batch.memo_mode",
        ),
    ] {
        let mut cfg = ExploreConfig::clean(seed, steps);
        cfg.mutants = vec![Mutant {
            tag: tag.into(),
            nth: None,
        }];
        let out = explore(&spec, &cfg);
        assert!(out.violation.is_some(), "{file}: no violation found");
        let report = minimize(&out.campaign, 400);
        println!("==== {file} ====\n{}", report.campaign.to_text());
    }
}
