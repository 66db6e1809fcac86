//! Policy snapshots: serializable captures of the whole protection state.
//!
//! A deployment needs to persist and review its policy — which principals
//! and groups exist, what the lattice vocabulary is, and the protection
//! record of every node in the universal name space. A
//! [`PolicySnapshot`] captures all of it in one serde-able value (the
//! examples write it as JSON), and [`ReferenceMonitor::from_snapshot`]
//! reconstructs an equivalent monitor.
//!
//! Snapshots capture *policy*, not service state: file contents, mbuf
//! pools and loaded extensions are outside the monitor and must be
//! re-established by their owners.

use crate::bundle::Generation;
use crate::config::MonitorConfig;
use crate::error::MonitorError;
use crate::monitor::{MonitorBuilder, ReferenceMonitor};
use extsec_acl::Directory;
use extsec_mac::Lattice;
use extsec_namespace::{NodeKind, NsError, NsPath, Protection};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One node's captured state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeRecord {
    /// The node's absolute path.
    pub path: NsPath,
    /// The node's kind.
    pub kind: NodeKind,
    /// The full protection record (ACL, label, static class).
    pub protection: Protection,
    /// Whether the node accepts specializations.
    pub extensible: bool,
}

/// A complete policy capture.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicySnapshot {
    /// The security lattice vocabulary.
    pub lattice: Lattice,
    /// The principal/group directory.
    pub directory: Directory,
    /// The monitor configuration.
    pub config: MonitorConfig,
    /// The policy generation at capture time. Informational provenance:
    /// restoring starts a fresh generation lineage.
    pub generation: Generation,
    /// Every node, in depth-first order (parents before children).
    pub nodes: Vec<NodeRecord>,
}

impl ReferenceMonitor {
    /// Captures the current policy state: every part from one pinned
    /// view, so the capture is one published state, never a mix of two.
    pub fn snapshot(&self) -> PolicySnapshot {
        self.pinned(|view| {
            let ns = view.namespace();
            let nodes = ns
                .walk()
                .into_iter()
                .filter_map(|(id, path)| {
                    let node = ns.node(id).ok()?;
                    Some(NodeRecord {
                        path,
                        kind: node.kind(),
                        protection: node.protection().clone(),
                        extensible: node.extensible(),
                    })
                })
                .collect();
            PolicySnapshot {
                lattice: view.lattice(Clone::clone),
                directory: view.directory(Clone::clone),
                config: view.config(),
                generation: view.generation(),
                nodes,
            }
        })
    }

    /// Reconstructs a monitor from a snapshot.
    ///
    /// The first record must be the root (path `/`); its protection is
    /// applied to the new root. Later records are inserted in order, so
    /// the depth-first order produced by [`ReferenceMonitor::snapshot`]
    /// always restores.
    pub fn from_snapshot(snapshot: PolicySnapshot) -> Result<Arc<ReferenceMonitor>, MonitorError> {
        let mut builder = MonitorBuilder::new(snapshot.lattice);
        builder.config(snapshot.config);
        let monitor = builder.build();
        monitor.directory_mut(|d| *d = snapshot.directory);
        monitor.bootstrap(|ns| {
            for record in snapshot.nodes {
                if record.path.is_root() {
                    let root = ns.resolve(&record.path)?;
                    ns.set_protection(root, record.protection)?;
                    continue;
                }
                let parent = record.path.parent().ok_or_else(|| {
                    NsError::Fault("snapshot record lacks a parent path".to_string())
                })?;
                let parent_id = ns.resolve(&parent)?;
                let name = record.path.leaf().ok_or_else(|| {
                    NsError::Fault("snapshot record lacks a leaf name".to_string())
                })?;
                let id = ns.insert_at(parent_id, name, record.kind, record.protection)?;
                if record.extensible {
                    ns.set_extensible(id, true)?;
                }
            }
            Ok(())
        })?;
        Ok(monitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use crate::subject::Subject;
    use extsec_acl::{AccessMode, Acl, AclEntry, ModeSet};
    use extsec_mac::SecurityClass;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    fn build_world() -> Arc<ReferenceMonitor> {
        let lattice = Lattice::build(["low", "high"], ["k1", "k2"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice.clone());
        let alice = builder.add_principal("alice").unwrap();
        let staff = builder.add_group("staff").unwrap();
        builder.add_member(staff, alice).unwrap();
        let monitor = builder.build();
        let high = lattice.parse_class("high:{k1}").unwrap();
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&"/svc/fs".parse().unwrap(), NodeKind::Domain, &visible)?;
                let read = ns.insert(
                    &"/svc/fs".parse().unwrap(),
                    "read",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_group(staff, AccessMode::Execute)]),
                        high.clone(),
                    )
                    .with_static_class(SecurityClass::bottom()),
                )?;
                ns.set_extensible(read, true)?;
                Ok(())
            })
            .unwrap();
        monitor
    }

    #[test]
    fn snapshot_captures_everything() {
        let monitor = build_world();
        let snapshot = monitor.snapshot();
        assert_eq!(snapshot.nodes.len(), 4); // root, /svc, /svc/fs, /svc/fs/read
        assert_eq!(snapshot.directory.principal_count(), 1);
        let read = snapshot
            .nodes
            .iter()
            .find(|n| n.path.to_string() == "/svc/fs/read")
            .unwrap();
        assert!(read.extensible);
        assert!(read.protection.static_class.is_some());
        assert_eq!(read.protection.acl.len(), 1);
    }

    #[test]
    fn restore_reproduces_decisions() {
        let monitor = build_world();
        let snapshot = monitor.snapshot();
        let restored = ReferenceMonitor::from_snapshot(snapshot).unwrap();

        let alice = restored.directory(|d| d.principal_by_name("alice").unwrap());
        let high = restored.lattice(|l| l.parse_class("high:{k1}").unwrap());
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        for (class, expect) in [(high.clone(), true), (SecurityClass::bottom(), false)] {
            let subject = Subject::new(alice, class);
            let original = monitor.check(&subject, &path, AccessMode::Execute);
            let replayed = restored.check(&subject, &path, AccessMode::Execute);
            assert_eq!(original, replayed);
            assert_eq!(matches!(original, Decision::Allow), expect);
        }
        // Extensibility survives.
        let id = restored.inspect(|ns| ns.resolve(&path).unwrap());
        assert!(restored.inspect(|ns| ns.node(id).unwrap().extensible()));
    }

    #[test]
    fn json_round_trip() {
        let monitor = build_world();
        let snapshot = monitor.snapshot();
        let json = serde_json::to_string_pretty(&snapshot).unwrap();
        let back: PolicySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes, snapshot.nodes);
        let restored = ReferenceMonitor::from_snapshot(back).unwrap();
        assert_eq!(restored.snapshot().nodes, snapshot.nodes);
    }

    /// Every part of a snapshot comes from one published state. A writer
    /// publishes one generation at a time, toggling one node's ACL
    /// between one entry and none, while this thread takes snapshots:
    /// each snapshot's ACL length must match its generation's parity.
    #[test]
    fn snapshots_never_mix_two_publishes() {
        let monitor = build_world();
        let alice = monitor.directory(|d| d.principal_by_name("alice").unwrap());
        let path: NsPath = "/svc/fs".parse().unwrap();
        let id = monitor.inspect(|ns| ns.resolve(&path).unwrap());
        let set_acl = |full: bool| {
            let acl = if full {
                Acl::from_entries([AclEntry::allow_principal(alice, AccessMode::Read)])
            } else {
                Acl::default()
            };
            monitor
                .bootstrap(|ns| ns.update_protection(id, |prot| prot.acl = acl))
                .unwrap();
        };
        set_acl(false);
        let base = monitor.policy_generation();
        let stop = AtomicBool::new(false);
        let (taken, torn) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut full = false;
                while !stop.load(Ordering::Relaxed) {
                    full = !full;
                    set_acl(full);
                }
            });
            let started = Instant::now();
            let (mut taken, mut torn) = (0u64, 0u64);
            while started.elapsed() < Duration::from_millis(300) {
                let snapshot = monitor.snapshot();
                let node = snapshot.nodes.iter().find(|n| n.path == path).unwrap();
                let odd = (snapshot.generation.raw() - base) % 2 == 1;
                taken += 1;
                torn += u64::from(node.protection.acl.len() != usize::from(odd));
            }
            stop.store(true, Ordering::Relaxed);
            (taken, torn)
        });
        assert_eq!(torn, 0, "{torn} of {taken} snapshots mixed two publishes");
    }

    #[test]
    fn snapshot_is_policy_only() {
        // A second snapshot after a denied request is identical: the
        // audit ring is not part of policy.
        let monitor = build_world();
        let before = monitor.snapshot();
        let alice = monitor.directory(|d| d.principal_by_name("alice").unwrap());
        let subject = Subject::new(alice, SecurityClass::bottom());
        let _ = monitor.check(
            &subject,
            &"/svc/fs/read".parse().unwrap(),
            AccessMode::Write,
        );
        let after = monitor.snapshot();
        assert_eq!(before.nodes, after.nodes);
    }
}
