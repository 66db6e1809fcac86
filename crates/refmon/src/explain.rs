//! Decision explanations.
//!
//! The paper closes on *psychological acceptability*: users accept
//! protection they can understand. [`ReferenceMonitor::explain`] produces
//! the full reasoning trace behind a decision — every traversal step with
//! its visibility outcome, the ACL evaluation with the winning entry, and
//! the mandatory flow comparison — so administrators can answer "why was
//! this denied?" without reverse-engineering the model.
//!
//! `explain` is diagnostics, not enforcement, but it does not re-derive
//! the decision: it runs the monitor's one access rule — the same
//! function every check, batch and guard calls — with a step recorder
//! attached, so `explain().decision == check()` holds by construction
//! (and is property-tested). It is never on the hot path and never
//! audited.

use crate::decision::Decision;
use crate::monitor::{MonitorView, ReferenceMonitor, Steps};
use crate::subject::Subject;
use extsec_acl::{AccessMode, Acl, AclDecision};
use extsec_mac::{FlowCheck, Lattice, SecurityClass};
use extsec_namespace::{NsError, NsPath};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One step of the reasoning trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExplainStep {
    /// An interior node was traversed.
    Traverse {
        /// The node's path.
        path: NsPath,
        /// Whether the discretionary `list` visibility held.
        dac_visible: bool,
        /// Whether the mandatory observation held.
        mac_visible: bool,
        /// Whether visibility checking was enabled at all.
        checked: bool,
    },
    /// The path failed to resolve.
    NotFound {
        /// The missing prefix.
        path: NsPath,
    },
    /// The discretionary evaluation on the final node.
    Dac {
        /// The raw ACL decision.
        decision: AclDecision,
        /// The text of the winning entry, if one matched.
        entry: Option<String>,
    },
    /// The mandatory evaluation on the final node.
    Mac {
        /// The flow kind the mode maps to under the configuration.
        check: FlowCheck,
        /// The subject's class, formatted against the lattice.
        subject_class: String,
        /// The object's label, formatted against the lattice.
        object_label: String,
        /// Whether the flow was permitted.
        permitted: bool,
    },
}

impl fmt::Display for ExplainStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainStep::Traverse {
                path,
                dac_visible,
                mac_visible,
                checked,
            } => {
                if *checked {
                    write!(
                        f,
                        "traverse {path}: dac={} mac={}",
                        ok(*dac_visible),
                        ok(*mac_visible)
                    )
                } else {
                    write!(f, "traverse {path}: visibility checks disabled")
                }
            }
            ExplainStep::NotFound { path } => write!(f, "resolve {path}: not found"),
            ExplainStep::Dac { decision, entry } => match entry {
                Some(entry) => write!(f, "dac: {decision} (entry {entry})"),
                None => write!(f, "dac: {decision}"),
            },
            ExplainStep::Mac {
                check,
                subject_class,
                object_label,
                permitted,
            } => write!(
                f,
                "mac: {check} subject={subject_class} object={object_label} -> {}",
                ok(*permitted)
            ),
        }
    }
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "DENIED"
    }
}

/// A complete explanation: the trace plus the decision it justifies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Explanation {
    /// The requested mode.
    pub mode: AccessMode,
    /// The object path.
    pub path: NsPath,
    /// The reasoning steps, in evaluation order.
    pub steps: Vec<ExplainStep>,
    /// The resulting decision.
    pub decision: Decision,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} -> {}", self.mode, self.path, self.decision)?;
        for step in &self.steps {
            writeln!(f, "  {step}")?;
        }
        Ok(())
    }
}

impl ReferenceMonitor {
    /// Explains the decision for `(subject, path, mode)` step by step,
    /// against this thread's pin. The single-call form of
    /// [`MonitorView::explain`].
    pub fn explain(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Explanation {
        self.pinned(|view| view.explain(subject, path, mode))
    }
}

impl MonitorView<'_> {
    /// Explains the decision for `(subject, path, mode)` step by step.
    ///
    /// The trace is the monitor's own rule run against this view's one
    /// pinned snapshot with a narrator attached, so the narrated steps
    /// and the decision they justify can never disagree with each other
    /// or with [`MonitorView::check`] on the same snapshot.
    pub fn explain(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Explanation {
        self.lattice(|lattice| {
            let mut narration = Narration {
                path,
                lattice,
                steps: Vec::new(),
            };
            let decision = self.decide_with(subject, path, mode, &mut narration);
            Explanation {
                mode,
                path: path.clone(),
                steps: narration.steps,
                decision,
            }
        })
    }
}

/// Records the rule's steps as [`ExplainStep`]s.
struct Narration<'a> {
    path: &'a NsPath,
    lattice: &'a Lattice,
    steps: Vec<ExplainStep>,
}

impl Steps for Narration<'_> {
    const NARRATE: bool = true;

    fn traverse(&mut self, depth: usize, dac_visible: bool, mac_visible: bool, checked: bool) {
        self.steps.push(ExplainStep::Traverse {
            path: self.path.prefix(depth),
            dac_visible,
            mac_visible,
            checked,
        });
    }

    fn unresolved(&mut self, error: &NsError) {
        // A missing prefix is named; any other failure (a leaf in the
        // way, a fault) leaves the path as a whole unresolved.
        let path = match error {
            NsError::NotFound(missing) => missing.clone(),
            _ => self.path.clone(),
        };
        self.steps.push(ExplainStep::NotFound { path });
    }

    fn dac(&mut self, decision: AclDecision, acl: &Acl) {
        let entry = match decision {
            AclDecision::DeniedByEntry(i) => acl.entries().get(i).map(ToString::to_string),
            _ => None,
        };
        self.steps.push(ExplainStep::Dac { decision, entry });
    }

    fn mac(
        &mut self,
        check: FlowCheck,
        subject: &SecurityClass,
        label: &SecurityClass,
        permitted: bool,
    ) {
        self.steps.push(ExplainStep::Mac {
            check,
            subject_class: self.lattice.format_class(subject),
            object_label: self.lattice.format_class(label),
            permitted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::DenyReason;
    use crate::monitor::MonitorBuilder;
    use extsec_acl::{Acl, AclEntry, ModeSet};
    use extsec_mac::{Lattice, SecurityClass};
    use extsec_namespace::{NodeKind, Protection};
    use std::sync::Arc;

    fn p(s: &str) -> NsPath {
        s.parse().unwrap()
    }

    /// `/svc/fs/read` (high, alice `x`, alice `-e`) under listable
    /// domains, the listable leaf `/svc/fs/open`, and two interior nodes
    /// hidden from a bottom subject: `/dac` by its empty ACL, `/mac` by
    /// its high label. Both hold a leaf `x` alice may read.
    fn world() -> (Arc<ReferenceMonitor>, Subject) {
        let lattice = Lattice::build(["low", "high"], ["k"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice.clone());
        let alice = builder.add_principal("alice").unwrap();
        let monitor = builder.build();
        let high = lattice.parse_class("high").unwrap();
        monitor
            .bootstrap(|ns| {
                let listable = Acl::public(ModeSet::only(AccessMode::List));
                let visible = Protection::new(listable.clone(), SecurityClass::bottom());
                ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
                ns.insert(
                    &p("/svc/fs"),
                    "read",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([
                            AclEntry::allow_principal(alice, AccessMode::Execute),
                            AclEntry::deny_principal(alice, AccessMode::Extend),
                        ]),
                        high.clone(),
                    ),
                )?;
                ns.insert(&p("/svc/fs"), "open", NodeKind::Procedure, visible)?;
                let readable = Protection::new(
                    Acl::from_entries([AclEntry::allow_principal(alice, AccessMode::Read)]),
                    SecurityClass::bottom(),
                );
                for (domain, protection) in [
                    ("dac", Protection::new(Acl::new(), SecurityClass::bottom())),
                    ("mac", Protection::new(listable.clone(), high.clone())),
                ] {
                    ns.insert(&NsPath::root(), domain, NodeKind::Domain, protection)?;
                    ns.insert(
                        &p(&format!("/{domain}")),
                        "x",
                        NodeKind::Object,
                        readable.clone(),
                    )?;
                }
                Ok(())
            })
            .unwrap();
        (monitor, Subject::new(alice, SecurityClass::bottom()))
    }

    #[test]
    fn explanation_matches_check() {
        let (monitor, low_subject) = world();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        let subjects = [low_subject.clone(), low_subject.with_class(high)];
        let paths: [NsPath; 8] = [
            p("/svc/fs/read"),
            p("/svc/fs/missing"),
            p("/nope/deeper"),
            p("/svc/fs/read/through-a-leaf"),
            p("/svc/fs/open/x"),
            p("/svc/fs/open/x/y"),
            p("/dac/x"),
            p("/mac/x"),
        ];
        for subject in &subjects {
            for path in &paths {
                for mode in AccessMode::ALL {
                    let explained = monitor.explain(subject, path, mode).decision;
                    let checked = monitor.check(subject, path, mode);
                    assert_eq!(explained, checked, "{mode} {path}");
                }
            }
        }
    }

    /// The full step list for each kind of traversal outcome. Steps are
    /// wire-visible (Explain JSON), so this pins their exact shape.
    #[test]
    fn steps_are_pinned_per_outcome() {
        let (monitor, alice) = world();
        let traverse = |path: &str, dac_visible, mac_visible, checked| ExplainStep::Traverse {
            path: p(path),
            dac_visible,
            mac_visible,
            checked,
        };
        let seen = |path: &str| traverse(path, true, true, true);
        let granted = ExplainStep::Dac {
            decision: AclDecision::Granted,
            entry: None,
        };
        let observe = ExplainStep::Mac {
            check: FlowCheck::Observe,
            subject_class: "low".into(),
            object_label: "low".into(),
            permitted: true,
        };
        let cases = [
            (
                "/dac/x",
                vec![seen("/"), traverse("/dac", false, true, true)],
                Decision::Deny(DenyReason::NotVisibleDac(p("/dac"))),
            ),
            (
                "/mac/x",
                vec![seen("/"), traverse("/mac", true, false, true)],
                Decision::Deny(DenyReason::NotVisibleMac(p("/mac"))),
            ),
            (
                "/ghost/leaf",
                vec![seen("/"), ExplainStep::NotFound { path: p("/ghost") }],
                Decision::Deny(DenyReason::NotFound(p("/ghost"))),
            ),
            (
                "/svc/fs/missing",
                vec![
                    seen("/"),
                    seen("/svc"),
                    seen("/svc/fs"),
                    ExplainStep::NotFound {
                        path: p("/svc/fs/missing"),
                    },
                ],
                Decision::Deny(DenyReason::NotFound(p("/svc/fs/missing"))),
            ),
            ("/", vec![granted.clone(), observe.clone()], Decision::Allow),
        ];
        for (path, steps, decision) in cases {
            // The root only grants `list`; the other paths fail before
            // the mode matters.
            let explained = monitor.explain(&alice, &p(path), AccessMode::List);
            assert_eq!(explained.steps, steps, "{path}");
            assert_eq!(explained.decision, decision, "{path}");
        }

        // Visibility checking off: every interior node is still narrated,
        // unchecked, and the hidden domain no longer stops the walk.
        let mut config = monitor.config();
        config.check_visibility = false;
        monitor.set_config(config);
        let explained = monitor.explain(&alice, &p("/dac/x"), AccessMode::Read);
        assert_eq!(
            explained.steps,
            vec![
                traverse("/", true, true, false),
                traverse("/dac", false, true, false),
                granted,
                observe,
            ]
        );
        assert_eq!(explained.decision, Decision::Allow);
    }

    #[test]
    fn denied_mac_is_narrated() {
        let (monitor, subject) = world();
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Execute);
        assert_eq!(explanation.decision, Decision::Deny(DenyReason::MacFlow));
        let text = explanation.to_string();
        assert!(text.contains("dac: granted"), "{text}");
        assert!(text.contains("mac: observe"), "{text}");
        assert!(text.contains("DENIED"), "{text}");
    }

    #[test]
    fn negative_entry_is_cited() {
        let (monitor, subject) = world();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        let subject = subject.with_class(high);
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Extend);
        assert!(matches!(
            explanation.decision,
            Decision::Deny(DenyReason::DacNegativeEntry(1))
        ));
        let text = explanation.to_string();
        assert!(text.contains("denied by entry 1"), "{text}");
        assert!(text.contains("-p0:e"), "{text}");
    }

    #[test]
    fn traversal_steps_are_listed() {
        let (monitor, subject) = world();
        let path: NsPath = "/svc/fs/read".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Execute);
        let traverses = explanation
            .steps
            .iter()
            .filter(|s| matches!(s, ExplainStep::Traverse { .. }))
            .count();
        assert_eq!(traverses, 3); // "/", "/svc", "/svc/fs"
    }

    #[test]
    fn missing_prefix_is_reported() {
        let (monitor, subject) = world();
        let path: NsPath = "/ghost/leaf".parse().unwrap();
        let explanation = monitor.explain(&subject, &path, AccessMode::Read);
        assert!(explanation
            .steps
            .iter()
            .any(|s| matches!(s, ExplainStep::NotFound { .. })));
    }
}
