//! P4 — high-water-mark flow property, end to end: a floating subject's
//! current level always equals its start joined with every label it
//! observed, observation never exceeds the clearance, and everything it
//! can still write dominates everything it has seen — so no sequence of
//! reads and writes ever moves information downward.

use extsec::refmon::FloatingSubject;
use extsec::{
    AccessMode, Acl, AclEntry, CategoryId, CategorySet, Lattice, ModeSet, MonitorBuilder, NodeKind,
    NsPath, Protection, SecurityClass, Subject, TrustLevel,
};
use proptest::prelude::*;
use std::sync::Arc;

const LEVELS: u16 = 3;
const CATS: u16 = 4;
const OBJECTS: usize = 8;

fn arb_class() -> impl Strategy<Value = SecurityClass> {
    (0..LEVELS, proptest::collection::btree_set(0..CATS, 0..3)).prop_map(|(level, cats)| {
        SecurityClass::new(
            TrustLevel::from_rank(level),
            cats.into_iter()
                .map(CategoryId::from_index)
                .collect::<CategorySet>(),
        )
    })
}

fn world(labels: &[SecurityClass]) -> Arc<extsec::ReferenceMonitor> {
    let lattice = Lattice::build(
        (0..LEVELS).map(|i| format!("L{i}")),
        (0..CATS).map(|i| format!("c{i}")),
    )
    .unwrap();
    let mut builder = MonitorBuilder::new(lattice);
    builder.add_principal("p").unwrap();
    let monitor = builder.build();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::only(AccessMode::List)),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&"/obj".parse().unwrap(), NodeKind::Directory, &visible)?;
            for (i, label) in labels.iter().enumerate() {
                ns.insert(
                    &"/obj".parse().unwrap(),
                    &format!("f{i}"),
                    NodeKind::Object,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_everyone(
                            ModeSet::parse("rwa").unwrap(),
                        )]),
                        label.clone(),
                    ),
                )?;
            }
            Ok(())
        })
        .unwrap();
    monitor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn floating_subjects_never_leak_downward(
        labels in proptest::collection::vec(arb_class(), OBJECTS),
        start in arb_class(),
        clearance in arb_class(),
        script in proptest::collection::vec((0usize..OBJECTS, prop::bool::ANY), 1..24),
    ) {
        let monitor = world(&labels);
        let mut float = FloatingSubject::with_clearance(
            Subject::new(extsec::PrincipalId::from_raw(0), start.clone()),
            clearance.clone(),
        );
        let effective_clearance = float.clearance().clone();
        let mut observed_join = start.clone();
        for (idx, is_read) in script {
            let path: NsPath = format!("/obj/f{idx}").parse().unwrap();
            let mode = if is_read { AccessMode::Read } else { AccessMode::WriteAppend };
            let decision = float.check(&monitor, &path, mode);
            if is_read {
                // Observation is bounded by the clearance, exactly.
                prop_assert_eq!(
                    decision.allowed(),
                    effective_clearance.dominates(&labels[idx]),
                    "read f{} label {}", idx, &labels[idx]
                );
                if decision.allowed() {
                    observed_join = observed_join.join(&labels[idx]);
                }
            }
            // Invariant: current level = start ⊔ observations, and it
            // never exceeds the clearance ⊔ start.
            prop_assert_eq!(&float.subject().class, &observed_join);
            prop_assert!(effective_clearance.join(&start).dominates(&float.subject().class));
        }
        // Post-condition: every object the floated subject may still
        // append to dominates everything it has seen — the downward
        // channel is closed.
        for (i, label) in labels.iter().enumerate() {
            let path: NsPath = format!("/obj/f{i}").parse().unwrap();
            let can_append = monitor
                .check(float.subject(), &path, AccessMode::WriteAppend)
                .allowed();
            if can_append {
                prop_assert!(
                    label.dominates(&observed_join),
                    "append target {} does not dominate observations {}",
                    label,
                    observed_join
                );
            }
        }
    }
}

/// A floating subject reads the label its mark joins from the snapshot
/// it decided on. A writer removes and re-creates `/obj/x`, always at
/// `L1`, while fresh subjects at `L0` with clearance `L1` read it: every
/// allowed read must leave the mark at or above `L1`, or the subject
/// could write what it just read down to `L0`.
#[test]
fn an_allowed_read_raises_the_mark_across_a_concurrent_remove() {
    let monitor = world(&[]);
    let (low, high) =
        monitor.lattice(|l| (l.parse_class("L0").unwrap(), l.parse_class("L1").unwrap()));
    let obj: NsPath = "/obj".parse().unwrap();
    let x: NsPath = "/obj/x".parse().unwrap();
    let readable = Protection::new(
        Acl::from_entries([AclEntry::allow_everyone(ModeSet::parse("r").unwrap())]),
        high.clone(),
    );
    monitor
        .bootstrap(|ns| ns.insert(&obj, "x", NodeKind::Object, readable.clone()))
        .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let (monitor, stop) = (Arc::clone(&monitor), Arc::clone(&stop));
        let (obj, x) = (obj.clone(), x.clone());
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                monitor
                    .bootstrap(|ns| ns.remove_id(ns.resolve(&x)?))
                    .unwrap();
                monitor
                    .bootstrap(|ns| ns.insert(&obj, "x", NodeKind::Object, readable.clone()))
                    .unwrap();
            }
        })
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
    let (mut allowed, mut stuck) = (0u64, 0u64);
    while std::time::Instant::now() < deadline {
        let mut float = FloatingSubject::with_clearance(
            Subject::new(extsec::PrincipalId::from_raw(0), low.clone()),
            high.clone(),
        );
        if float.check(&monitor, &x, AccessMode::Read).allowed() {
            allowed += 1;
            if !float.subject().class.dominates(&high) {
                stuck += 1;
            }
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    assert!(allowed > 0, "no read was allowed");
    assert_eq!(
        stuck, 0,
        "{stuck} of {allowed} allowed reads left the mark below L1"
    );
}
