//! High-water-mark (floating-label) subjects.
//!
//! The paper fixes a thread's class at its principal's class (§2.2,
//! "dynamically determined by the associated principal"). The classic
//! alternative from the lattice-model literature the paper builds on
//! (Denning's dynamic binding, Weissman's ADEPT-50 high-water-mark)
//! splits the subject's label in two:
//!
//! * a fixed **clearance** — the most the subject may ever observe, and
//! * a floating **current level** — the join of everything it actually
//!   *has* observed, starting at its login class.
//!
//! Reads are checked against the clearance; every successful observation
//! joins the object's label into the current level; writes are checked
//! against the **current** level. The subject thereby gets to read
//! breadth-first up to its clearance, but the moment it touches high
//! data its write range narrows — no sequence of reads and writes moves
//! information downward. This module provides that mode as an opt-in
//! wrapper; the base monitor stays exactly the paper's fixed-class
//! design.
//!
//! Invariants (property-tested in `tests/floating_flow.rs`):
//!
//! * the current level never goes down and never exceeds the clearance's
//!   join with the start,
//! * the current level always equals start ⊔ (labels observed),
//! * a denied access never moves the mark.

use crate::decision::Decision;
use crate::monitor::ReferenceMonitor;
use crate::subject::Subject;
use extsec_acl::AccessMode;
use extsec_mac::{FlowCheck, SecurityClass};
use extsec_namespace::NsPath;

/// A subject with a fixed clearance and a floating current level.
#[derive(Clone, Debug)]
pub struct FloatingSubject {
    /// The maximum observation class (fixed).
    clearance: SecurityClass,
    /// The subject at its *current* (floated) level.
    subject: Subject,
    /// How many observations raised the mark (diagnostics).
    raises: u32,
}

impl FloatingSubject {
    /// Wraps a subject: its class becomes both the starting current
    /// level and (joined with `clearance`) the observation bound.
    pub fn with_clearance(subject: Subject, clearance: SecurityClass) -> Self {
        let clearance = clearance.join(&subject.class);
        FloatingSubject {
            clearance,
            subject,
            raises: 0,
        }
    }

    /// Wraps a subject whose clearance *is* its starting class — reads
    /// never exceed the initial class, so only writes are re-ranged.
    /// (Use [`FloatingSubject::with_clearance`] for the interesting
    /// mode.)
    pub fn new(subject: Subject) -> Self {
        let clearance = subject.class.clone();
        FloatingSubject {
            clearance,
            subject,
            raises: 0,
        }
    }

    /// The subject at its current (floated) level.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The fixed observation bound.
    pub fn clearance(&self) -> &SecurityClass {
        &self.clearance
    }

    /// How many observations raised the mark.
    pub fn raises(&self) -> u32 {
        self.raises
    }

    /// Performs an access check under high-water-mark rules.
    ///
    /// Observing modes are checked with the subject at its **clearance**
    /// (DAC unchanged; the mandatory bound is the clearance); on success
    /// the current level rises to `join(current, object label)`.
    /// Modifying modes are checked at the **current** level. Denials
    /// never move the mark.
    pub fn check(
        &mut self,
        monitor: &ReferenceMonitor,
        path: &NsPath,
        mode: AccessMode,
    ) -> Decision {
        let observes = matches!(
            monitor.config().flow_check(mode),
            FlowCheck::Observe | FlowCheck::ObserveAndModify
        );
        if !observes {
            return monitor.check(&self.subject, path, mode);
        }
        let at_clearance = self.subject.with_class(self.clearance.clone());
        let decision = monitor.check(&at_clearance, path, mode);
        if decision.allowed() {
            if let Ok(protection) = monitor.protection_of(path) {
                let joined = self.subject.class.join(&protection.label);
                if joined != self.subject.class {
                    self.raises += 1;
                    self.subject = self.subject.with_class(joined);
                }
            }
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorBuilder;
    use extsec_acl::{Acl, AclEntry, ModeSet};
    use extsec_mac::Lattice;
    use extsec_namespace::{NodeKind, Protection};
    use std::sync::Arc;

    /// Lattice low<high × {a,b}; objects at various labels, all with
    /// wide-open ACLs so the mandatory layer is isolated.
    fn world() -> (Arc<ReferenceMonitor>, Subject, SecurityClass) {
        let lattice = Lattice::build(["low", "high"], ["a", "b"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice.clone());
        let p = builder.add_principal("p").unwrap();
        let monitor = builder.build();
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&"/obj".parse().unwrap(), NodeKind::Directory, &visible)?;
                for (name, label) in [
                    ("low-file", "low"),
                    ("a-file", "low:{a}"),
                    ("b-file", "low:{b}"),
                    ("high-file", "high:{a,b}"),
                ] {
                    ns.insert(
                        &"/obj".parse().unwrap(),
                        name,
                        NodeKind::Object,
                        Protection::new(
                            Acl::from_entries([AclEntry::allow_everyone(
                                ModeSet::parse("rwa").unwrap(),
                            )]),
                            lattice.parse_class(label).unwrap(),
                        ),
                    )?;
                }
                Ok(())
            })
            .unwrap();
        let top = monitor.lattice(|l| l.top());
        (monitor, Subject::new(p, SecurityClass::bottom()), top)
    }

    fn p(s: &str) -> NsPath {
        s.parse().unwrap()
    }

    #[test]
    fn reads_up_to_clearance_raise_the_mark() {
        let (monitor, subject, top) = world();
        let mut float = FloatingSubject::with_clearance(subject, top);
        assert_eq!(float.subject().class, SecurityClass::bottom());
        // Read the {a} file: allowed (clearance = top) and the mark
        // rises to low:{a}.
        assert!(float
            .check(&monitor, &p("/obj/a-file"), AccessMode::Read)
            .allowed());
        assert_eq!(float.raises(), 1);
        let a = monitor.lattice(|l| l.parse_class("low:{a}").unwrap());
        assert_eq!(float.subject().class, a);
        // Then the high file: mark rises to high:{a,b}.
        assert!(float
            .check(&monitor, &p("/obj/high-file"), AccessMode::Read)
            .allowed());
        assert_eq!(float.raises(), 2);
        let high = monitor.lattice(|l| l.parse_class("high:{a,b}").unwrap());
        assert_eq!(float.subject().class, high);
    }

    #[test]
    fn clearance_still_bounds_observation() {
        let (monitor, subject, _) = world();
        let a_clearance = monitor.lattice(|l| l.parse_class("low:{a}").unwrap());
        let mut float = FloatingSubject::with_clearance(subject, a_clearance);
        assert!(float
            .check(&monitor, &p("/obj/a-file"), AccessMode::Read)
            .allowed());
        // The {b} and high files are beyond the clearance.
        assert!(!float
            .check(&monitor, &p("/obj/b-file"), AccessMode::Read)
            .allowed());
        assert!(!float
            .check(&monitor, &p("/obj/high-file"), AccessMode::Read)
            .allowed());
        // Denials never moved the mark.
        assert_eq!(float.raises(), 1);
    }

    #[test]
    fn observation_confines_subsequent_writes() {
        let (monitor, subject, top) = world();
        let mut float = FloatingSubject::with_clearance(subject, top);
        // Fresh at bottom: the subject may overwrite the low file.
        assert!(float
            .check(&monitor, &p("/obj/low-file"), AccessMode::Write)
            .allowed());
        // After observing the high file...
        assert!(float
            .check(&monitor, &p("/obj/high-file"), AccessMode::Read)
            .allowed());
        // ...writing down is gone, in every form.
        assert!(!float
            .check(&monitor, &p("/obj/low-file"), AccessMode::Write)
            .allowed());
        assert!(!float
            .check(&monitor, &p("/obj/low-file"), AccessMode::WriteAppend)
            .allowed());
        // Writing at the new level works (the high file itself).
        assert!(float
            .check(&monitor, &p("/obj/high-file"), AccessMode::Write)
            .allowed());
    }

    #[test]
    fn writes_never_move_the_mark() {
        let (monitor, subject, top) = world();
        let mut float = FloatingSubject::with_clearance(subject, top);
        assert!(float
            .check(&monitor, &p("/obj/high-file"), AccessMode::WriteAppend)
            .allowed());
        assert_eq!(float.subject().class, SecurityClass::bottom());
        assert_eq!(float.raises(), 0);
    }

    #[test]
    fn plain_new_never_floats_on_reads() {
        // With clearance == start, allowed reads are already dominated,
        // so the mark cannot move — the degenerate mode is exactly the
        // paper's fixed-class behaviour.
        let (monitor, subject, _) = world();
        let a = monitor.lattice(|l| l.parse_class("low:{a}").unwrap());
        let mut float = FloatingSubject::new(subject.with_class(a.clone()));
        assert!(float
            .check(&monitor, &p("/obj/a-file"), AccessMode::Read)
            .allowed());
        assert!(!float
            .check(&monitor, &p("/obj/b-file"), AccessMode::Read)
            .allowed());
        assert_eq!(float.raises(), 0);
        assert_eq!(float.subject().class, a);
    }
}
