//! Coherence of the live policy state: what a monitor decides depends
//! only on the policy it holds, never on the history of edits that
//! produced it.
//!
//! The property: drive one monitor through a random interleaving of
//! checks, ACL edits, relabels, leaf removal, node replacement
//! (recycling node ids), group-membership edits, guarded edits and configuration flips. After
//! every operation — and in a final exhaustive sweep over every
//! (principal, class, path, mode) combination — it must agree
//! decision-for-decision, including the full
//! [`explain`](extsec::ReferenceMonitor::explain) trace, with a monitor
//! rebuilt from its snapshot: a fresh arena holding the same policy with
//! no recycled ids and no edit history.

use extsec::refmon::Explanation;
use extsec::{
    AccessMode, Acl, AclEntry, GroupId, Lattice, ModeSet, MonitorBuilder, MonitorError, NodeKind,
    NsPath, PrincipalId, Protection, ReferenceMonitor, SecurityClass, Subject,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

const PRINCIPALS: usize = 3;
const CLASSES: usize = 4;

/// The fixed path universe. The interior nodes (indices 0, 1, 4) always
/// exist; the leaves (indices 2, 3, 5) are removal and replacement
/// targets; index 6 never exists, so the not-found path stays covered.
const PATHS: [&str; 7] = [
    "/svc",
    "/svc/fs",
    "/svc/fs/read",
    "/svc/fs/write",
    "/obj",
    "/obj/file",
    "/svc/missing/leaf",
];

/// Leaf paths that `Remove` may remove and `Replace` re-insert.
const LEAVES: [usize; 3] = [2, 3, 5];

const MODES: [AccessMode; 6] = [
    AccessMode::Read,
    AccessMode::Write,
    AccessMode::Execute,
    AccessMode::List,
    AccessMode::Administrate,
    AccessMode::Extend,
];

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

#[derive(Clone, Debug)]
enum Op {
    /// A plain access check by (principal, class) on (path, mode).
    Check {
        who: usize,
        class: usize,
        path: usize,
        mode: usize,
    },
    /// TCB ACL replacement: the node's ACL becomes one entry granting
    /// `who` the mode (plus a deny-entry variant).
    SetAcl {
        path: usize,
        who: usize,
        mode: usize,
        negative: bool,
    },
    /// TCB relabel of the node at `path`.
    SetLabel { path: usize, label: usize },
    /// Membership edit on the single group.
    Membership { who: usize, join: bool },
    /// Guarded (access-checked) ACL replacement; the attempt itself must
    /// produce the same outcome on both monitors.
    GuardedSetAcl {
        actor: usize,
        class: usize,
        path: usize,
        who: usize,
        mode: usize,
    },
    /// Remove a leaf and leave it removed: every check of its path must
    /// find nothing there until a later `Replace` restores it.
    Remove { leaf: usize },
    /// Remove a leaf and re-insert a same-named node with a fresh ACL:
    /// the arena recycles the slot, and the new node must decide alone.
    Replace {
        leaf: usize,
        who: usize,
        mode: usize,
    },
    /// Flip per-level traversal visibility.
    Visibility(bool),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..PRINCIPALS, 0..CLASSES, 0..PATHS.len(), 0..MODES.len())
            .prop_map(|(who, class, path, mode)| Op::Check { who, class, path, mode }),
        2 => (0..PATHS.len(), 0..PRINCIPALS, 0..MODES.len(), proptest::bool::ANY)
            .prop_map(|(path, who, mode, negative)| Op::SetAcl { path, who, mode, negative }),
        2 => (0..PATHS.len(), 0..CLASSES).prop_map(|(path, label)| Op::SetLabel { path, label }),
        1 => (0..PRINCIPALS, proptest::bool::ANY)
            .prop_map(|(who, join)| Op::Membership { who, join }),
        1 => (0..PRINCIPALS, 0..CLASSES, 0..PATHS.len(), 0..PRINCIPALS, 0..MODES.len())
            .prop_map(|(actor, class, path, who, mode)| Op::GuardedSetAcl {
                actor,
                class,
                path,
                who,
                mode
            }),
        1 => (0..LEAVES.len()).prop_map(|leaf| Op::Remove { leaf }),
        1 => (0..LEAVES.len(), 0..PRINCIPALS, 0..MODES.len())
            .prop_map(|(leaf, who, mode)| Op::Replace { leaf, who, mode }),
        1 => proptest::bool::ANY.prop_map(Op::Visibility),
    ]
}

struct World {
    monitor: Arc<ReferenceMonitor>,
    principals: Vec<PrincipalId>,
    group: GroupId,
    classes: Vec<SecurityClass>,
}

impl World {
    fn build() -> World {
        let lattice = Lattice::build(["low", "high"], ["c0", "c1"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice.clone());
        let principals: Vec<PrincipalId> = (0..PRINCIPALS)
            .map(|i| builder.add_principal(format!("p{i}")).unwrap())
            .collect();
        let group = builder.add_group("g0").unwrap();
        builder.add_member(group, principals[0]).unwrap();
        let monitor = builder.build();
        let classes = vec![
            SecurityClass::bottom(),
            lattice.parse_class("low:{c0}").unwrap(),
            lattice.parse_class("high:{c0}").unwrap(),
            lattice.parse_class("high:{c0,c1}").unwrap(),
        ];
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
                ns.ensure_path(&p("/obj"), NodeKind::Directory, &visible)?;
                ns.insert(
                    &p("/svc/fs"),
                    "read",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_principal(
                            principals[0],
                            AccessMode::Execute,
                        )]),
                        SecurityClass::bottom(),
                    ),
                )?;
                ns.insert(
                    &p("/svc/fs"),
                    "write",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_group(group, AccessMode::Write)]),
                        SecurityClass::bottom(),
                    ),
                )?;
                ns.insert(
                    &p("/obj"),
                    "file",
                    NodeKind::Object,
                    Protection::new(
                        Acl::public(ModeSet::parse("rl").unwrap()),
                        SecurityClass::bottom(),
                    ),
                )?;
                Ok(())
            })
            .unwrap();
        World {
            monitor,
            principals,
            group,
            classes,
        }
    }

    fn subject(&self, who: usize, class: usize) -> Subject {
        Subject::new(self.principals[who], self.classes[class].clone())
    }

    /// Applies a mutation op. TCB edits always succeed (an edit of a
    /// node that does not exist right now is a no-op); a guarded edit
    /// returns what `set_acl` returned.
    fn apply(&self, op: &Op) -> Result<(), MonitorError> {
        match op {
            Op::Check { .. } => Ok(()),
            Op::SetAcl {
                path,
                who,
                mode,
                negative,
            } => {
                let target = p(PATHS[*path]);
                let entry = if *negative {
                    AclEntry::deny_principal(self.principals[*who], MODES[*mode])
                } else {
                    AclEntry::allow_principal(self.principals[*who], MODES[*mode])
                };
                self.monitor.bootstrap(|ns| {
                    let Ok(id) = ns.resolve(&target) else {
                        return Ok(());
                    };
                    ns.update_protection(id, |prot| {
                        prot.acl = Acl::from_entries([
                            AclEntry::allow_principal(self.principals[0], AccessMode::List),
                            entry,
                        ]);
                    })
                })
            }
            Op::SetLabel { path, label } => {
                let target = p(PATHS[*path]);
                let label = self.classes[*label].clone();
                self.monitor.bootstrap(|ns| {
                    let Ok(id) = ns.resolve(&target) else {
                        return Ok(());
                    };
                    ns.update_protection(id, |prot| prot.label = label.clone())
                })
            }
            Op::Membership { who, join } => {
                let principal = self.principals[*who];
                let group = self.group;
                self.monitor.directory_mut(|d| match join {
                    true => d.add_member(group, principal),
                    false => d.remove_member(group, principal).map(|_| ()),
                })?;
                Ok(())
            }
            Op::GuardedSetAcl {
                actor,
                class,
                path,
                who,
                mode,
            } => {
                let subject = self.subject(*actor, *class);
                let acl = Acl::from_entries([
                    AclEntry::allow_principal(self.principals[0], AccessMode::List),
                    AclEntry::allow_principal(self.principals[*who], MODES[*mode]),
                ]);
                self.monitor.set_acl(&subject, &p(PATHS[*path]), acl)
            }
            Op::Remove { leaf } => {
                let target = p(PATHS[LEAVES[*leaf]]);
                self.monitor.bootstrap(|ns| match ns.resolve(&target) {
                    Ok(id) => ns.remove_id(id),
                    Err(_) => Ok(()),
                })
            }
            Op::Replace { leaf, who, mode } => {
                let target = p(PATHS[LEAVES[*leaf]]);
                let parent = target.parent().unwrap();
                let name = target.leaf().unwrap().to_string();
                let entry = AclEntry::allow_principal(self.principals[*who], MODES[*mode]);
                self.monitor.bootstrap(move |ns| {
                    if let Ok(id) = ns.resolve(&target) {
                        ns.remove_id(id)?;
                    }
                    ns.insert(
                        &parent,
                        &name,
                        NodeKind::Procedure,
                        Protection::new(Acl::from_entries([entry]), SecurityClass::bottom()),
                    )?;
                    Ok(())
                })
            }
            Op::Visibility(on) => {
                let mut config = self.monitor.config();
                config.check_visibility = *on;
                self.monitor.set_config(config);
                Ok(())
            }
        }
    }

    /// The live policy rebuilt in a fresh monitor: the same principals,
    /// groups, labels, ACLs and configuration in a new arena, with no
    /// recycled node ids and no history.
    fn rebuilt(&self) -> Arc<ReferenceMonitor> {
        ReferenceMonitor::from_snapshot(self.monitor.snapshot()).unwrap()
    }
}

/// Compares one check end-to-end on the live and the rebuilt monitor:
/// the decision, the explanation trace, and the explain/check agreement
/// on the live one.
fn agree(
    live: &World,
    rebuilt: &ReferenceMonitor,
    who: usize,
    class: usize,
    path: usize,
    mode: usize,
) -> Result<(), TestCaseError> {
    let subject = live.subject(who, class);
    let target = p(PATHS[path]);
    let mode = MODES[mode];
    let d_live = live.monitor.check(&subject, &target, mode);
    let d_rebuilt = rebuilt.check(&subject, &target, mode);
    prop_assert_eq!(
        &d_live,
        &d_rebuilt,
        "decision diverged for p{} class{} {} {:?}",
        who,
        class,
        target,
        mode
    );
    let e_live: Explanation = live.monitor.explain(&subject, &target, mode);
    let e_rebuilt: Explanation = rebuilt.explain(&subject, &target, mode);
    prop_assert_eq!(&e_live, &e_rebuilt, "explanations diverged");
    prop_assert_eq!(
        &e_live.decision,
        &d_live,
        "explain disagrees with check on the live monitor"
    );
    Ok(())
}

proptest! {
    /// ≥256 random interleavings of ≥32 operations: the live monitor
    /// decides exactly as its policy rebuilt from scratch does.
    #[test]
    fn live_and_rebuilt_monitors_agree(
        ops in vec(op_strategy(), 32..64),
        probes in vec((0..PRINCIPALS, 0..CLASSES, 0..PATHS.len(), 0..MODES.len()), 32..64),
    ) {
        let live = World::build();
        let mut rebuilt = live.rebuilt();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Check { who, class, path, mode } => {
                    agree(&live, &rebuilt, *who, *class, *path, *mode)?;
                }
                // A guarded edit is refused exactly when the rebuilt
                // policy refuses its administrate check.
                Op::GuardedSetAcl { actor, class, path, .. } => {
                    let guard = rebuilt.check(
                        &live.subject(*actor, *class),
                        &p(PATHS[*path]),
                        AccessMode::Administrate,
                    );
                    let expected = guard.into_result().map_err(MonitorError::Denied);
                    prop_assert_eq!(live.apply(op), expected, "guarded edit at op {}", i);
                    rebuilt = live.rebuilt();
                }
                _ => {
                    prop_assert_eq!(live.apply(op), Ok(()), "TCB edit failed at op {}", i);
                    rebuilt = live.rebuilt();
                }
            }
            // A probe after every op catches divergence the moment it
            // appears, not just at the end.
            let (who, class, path, mode) = probes[i % probes.len()];
            agree(&live, &rebuilt, who, class, path, mode)?;
        }
        // Exhaustive closing sweep over the whole decision surface.
        for who in 0..PRINCIPALS {
            for class in 0..CLASSES {
                for path in 0..PATHS.len() {
                    for mode in 0..MODES.len() {
                        agree(&live, &rebuilt, who, class, path, mode)?;
                    }
                }
            }
        }
    }
}
