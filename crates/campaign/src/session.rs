//! A campaign session: one world plus the machinery that applies
//! operations and checks every probe against the invariants. The
//! explorer generates ops into a session; replay feeds a recorded list
//! through an identical session, so the two cannot drift apart.

use crate::invariant::{
    audit_gap_free, coherent, is_injected_denial, mac_flow, quarantine_honoured, resource_bounded,
    visibility, Invariant, RevocationLedger, Violation,
};
use crate::op::Op;
use crate::world::{ExtKind, World, WorldSpec};
use extsec_core::{
    faults, AccessMode, Acl, AuditPipeline, Decision, FaultPlan, FaultStats, PipelineConfig, Who,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Counters a session keeps while applying ops.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Ops applied.
    pub applied: usize,
    /// Invariant probes evaluated (explicit checks plus re-probes).
    pub probes: u64,
    /// Probes that came back allowed.
    pub grants: u64,
    /// Probes that came back denied.
    pub denials: u64,
    /// Probes whose outcome flipped relative to the previous probe of
    /// the same (principal, leaf, mode) — the explorer's guidance
    /// signal.
    pub flips: u64,
}

/// How many pending revocation expectations are re-probed after each
/// mutating op, and how many flipped pairs the hot ring remembers.
const REPROBE_LEAVES: usize = 4;
const HOT_CAP: usize = 32;

/// How often (in applied ops) the session re-verifies the audit chain
/// and its gap accounting. The full check flushes the drainer and
/// re-derives every segment hash, so it is periodic, not per-op; the
/// explorer and replay also run it once at campaign end.
const AUDIT_CHECK_INTERVAL: usize = 512;

/// A running campaign: world, revocation ledger, probe memory, and the
/// process-global fault plan (installed on start, cleared on finish or
/// drop).
pub struct Session {
    /// The world under campaign.
    pub world: World,
    /// Post-revocation ground truth.
    pub ledger: RevocationLedger,
    /// Counters.
    pub stats: SessionStats,
    /// Recently flipped (principal, leaf) pairs, most recent last.
    pub hot: VecDeque<(usize, usize)>,
    storm: bool,
    step: usize,
    memory: HashMap<(usize, usize, AccessMode), bool>,
    plan_installed: bool,
}

impl Session {
    /// Builds the world (fault-free — construction is not part of the
    /// campaign), then installs `plan` if one is given.
    pub fn start(spec: &WorldSpec, plan: Option<FaultPlan>, storm: bool) -> Session {
        let world = World::build(spec);
        // Campaign sessions run audited: an in-memory pipeline (queue
        // sized so single-threaded probing never sheds) records every
        // probe the invariants make, and [`audit_gap_free`] re-verifies
        // the chain and its gap accounting as the campaign runs.
        world
            .monitor
            .attach_audit_pipeline(Arc::new(AuditPipeline::in_memory(PipelineConfig {
                queue_capacity: 1 << 16,
                ..PipelineConfig::default()
            })));
        let plan_installed = plan.is_some();
        if let Some(plan) = plan {
            faults::install(plan);
        }
        Session {
            world,
            ledger: RevocationLedger::default(),
            stats: SessionStats::default(),
            hot: VecDeque::new(),
            storm,
            step: 0,
            memory: HashMap::new(),
            plan_installed,
        }
    }

    /// The current step counter (ops applied so far).
    pub fn step(&self) -> usize {
        self.step
    }

    /// Clears the fault plan and returns what it injected.
    pub fn finish(&mut self) -> FaultStats {
        if self.plan_installed {
            self.plan_installed = false;
            faults::clear()
        } else {
            FaultStats::default()
        }
    }

    /// Applies one op, then re-probes pending revocation expectations
    /// if the op mutated policy. An `Err` is an invariant violation —
    /// the campaign stops there.
    pub fn apply(&mut self, op: &Op) -> Result<(), Violation> {
        self.step += 1;
        self.stats.applied += 1;
        let mutated = match op {
            Op::AddPrincipal => {
                self.world.add_principal();
                true
            }
            Op::Join { principal, group } => {
                let p = self.world.principals[*principal % self.world.principals.len()];
                let g = self.world.depts[*group % self.world.depts.len()];
                self.world.monitor.directory_mut(|d| {
                    let _ = d.add_member(g, p);
                });
                true
            }
            Op::Leave { principal, group } => {
                let p = self.world.principals[*principal % self.world.principals.len()];
                let g = self.world.depts[*group % self.world.depts.len()];
                self.world.monitor.directory_mut(|d| {
                    let _ = d.remove_member(g, p);
                });
                true
            }
            Op::Create { domain, class } => {
                self.world.create_leaf(*domain, *class);
                true
            }
            Op::Remove { leaf } => {
                let li = *leaf % self.world.leaves.len();
                let path = self.world.leaves[li].clone();
                let _ = self.world.monitor.bootstrap(|ns| ns.remove(&path));
                // The node is gone; any expectation about it is moot.
                self.ledger.clear(li);
                true
            }
            Op::Grant {
                leaf,
                principal,
                modes,
            } => {
                let li = *leaf % self.world.leaves.len();
                let path = self.world.leaves[li].clone();
                let p = self.world.principals[*principal % self.world.principals.len()];
                let entry = extsec_core::AclEntry::allow_principal_modes(p, *modes);
                let _ = self.world.monitor.bootstrap(|ns| {
                    let id = ns.resolve(&path)?;
                    ns.update_protection(id, |prot| prot.acl.push(entry))?;
                    Ok(())
                });
                // A legitimate later ACL change supersedes the
                // revocation expectation.
                self.ledger.clear(li);
                true
            }
            Op::Forbid {
                leaf,
                principal,
                modes,
            } => {
                let li = *leaf % self.world.leaves.len();
                let path = self.world.leaves[li].clone();
                let p = self.world.principals[*principal % self.world.principals.len()];
                let entry = extsec_core::AclEntry::deny_principal_modes(p, *modes);
                let _ = self.world.monitor.bootstrap(|ns| {
                    let id = ns.resolve(&path)?;
                    ns.update_protection(id, |prot| prot.acl.push(entry))?;
                    Ok(())
                });
                self.ledger.clear(li);
                true
            }
            Op::Revoke { leaf, principal } => {
                self.revoke(*leaf, *principal);
                true
            }
            Op::Hide { domain, principal } => {
                let path = self.world.domains[*domain % self.world.domains.len()].clone();
                let p = self.world.principals[*principal % self.world.principals.len()];
                let entry = extsec_core::AclEntry::deny_principal(p, AccessMode::List);
                let _ = self.world.monitor.bootstrap(|ns| {
                    let id = ns.resolve(&path)?;
                    ns.update_protection(id, |prot| prot.acl.push(entry))?;
                    Ok(())
                });
                // Leaf ACLs are untouched: revocation expectations stand.
                true
            }
            Op::Relabel { leaf, class } => {
                let li = *leaf % self.world.leaves.len();
                let path = self.world.leaves[li].clone();
                let label = self.world.palette[*class % self.world.palette.len()].clone();
                let _ = self.world.monitor.bootstrap(|ns| {
                    let id = ns.resolve(&path)?;
                    ns.update_protection(id, |prot| prot.label = label)?;
                    Ok(())
                });
                // The ACL is untouched: a live revocation expectation
                // stays valid.
                true
            }
            Op::Install { owner, hostile } => {
                let kind = if *hostile {
                    ExtKind::Hostile
                } else {
                    ExtKind::Calm
                };
                let _ = self.world.install_ext(*owner, kind);
                false
            }
            Op::InstallHog { owner } => {
                let _ = self.world.install_ext(*owner, ExtKind::Hog);
                false
            }
            Op::RunExt { ext } => {
                self.run_ext(*ext)?;
                false
            }
            Op::Clock { ms } => {
                self.world
                    .runtime
                    .health()
                    .advance(Duration::from_millis(*ms));
                false
            }
            Op::Check {
                principal,
                leaf,
                mode,
            } => {
                self.probe(*principal, *leaf, *mode)?;
                false
            }
            Op::Burst {
                principal,
                leaf,
                mode,
            } => {
                self.burst(*principal, *leaf, *mode)?;
                false
            }
            Op::BundleCycle { leaf, principal } => {
                self.bundle_cycle(*leaf, *principal)?;
                true
            }
        };
        if mutated {
            self.reprobe()?;
        }
        if self.step.is_multiple_of(AUDIT_CHECK_INTERVAL) {
            self.check_audit()?;
        }
        Ok(())
    }

    /// Verifies the audit pipeline's chain integrity and gap
    /// accounting ([`audit_gap_free`]), stamping any violation with the
    /// current step. The explorer and replay call this once more at
    /// campaign end, so a gap introduced after the last periodic check
    /// still fails the campaign.
    pub fn check_audit(&self) -> Result<(), Violation> {
        audit_gap_free(&self.world.monitor).map_err(|v| v.at_step(self.step))
    }

    /// The guarded revocation: read the leaf's current protection,
    /// strip every direct entry of the principal, and push the new ACL
    /// through the monitor's guarded `set_acl` as the administrator. An
    /// expectation is recorded only when the monitor acknowledged the
    /// replacement — which is exactly what the planted
    /// `refmon.set_acl.apply` mutant betrays.
    fn revoke(&mut self, leaf: usize, principal: usize) {
        let li = leaf % self.world.leaves.len();
        let path = self.world.leaves[li].clone();
        let pi = principal % self.world.principals.len();
        let p = self.world.principals[pi];
        let Ok(prot) = self.world.monitor.protection_of(&path) else {
            return;
        };
        let new_acl = Acl::from_entries(
            prot.acl
                .entries()
                .iter()
                .filter(|e| e.who != Who::Principal(p))
                .cloned(),
        );
        if new_acl.len() == prot.acl.len() {
            // Nothing to revoke: no expectation either way.
            return;
        }
        let admin = self.world.admin_subject(&prot.label);
        if self
            .world
            .monitor
            .set_acl(&admin, &path, new_acl.clone())
            .is_ok()
        {
            self.ledger.note(li, new_acl, pi);
        }
    }

    /// A full bundle lifecycle: stage a one-edit diff that appends a
    /// read grant for the principal on the leaf, shadow it across one
    /// probe (enforcement must not move), activate it, probe under the
    /// new surface, then roll back and probe again. A bundle refusal
    /// (an injected fault, a principal name that no longer resolves)
    /// ends the cycle quietly — the invariants only care about what
    /// the monitor actually published.
    fn bundle_cycle(&mut self, leaf: usize, principal: usize) -> Result<(), Violation> {
        let li = leaf % self.world.leaves.len();
        let pi = principal % self.world.principals.len();
        let path = self.world.leaves[li].clone();
        let p = self.world.principals[pi];
        let name = self.world.monitor.directory(|d| d.principal_name(p));
        let source = format!(
            "bundle \"campaign-{step}\" version 1 base current;\nacl-add {path} \"+{name}:r\";\n",
            step = self.step
        );
        let Ok(staged) = self.world.monitor.stage_bundle(&source) else {
            return Ok(());
        };
        if self.world.monitor.shadow_bundle(staged.id, true).is_ok() {
            self.probe(pi, li, AccessMode::Read)?;
            let _ = self.world.monitor.shadow_bundle(staged.id, false);
        }
        if self.world.monitor.activate_bundle(staged.id).is_err() {
            return Ok(());
        }
        // The appended grant supersedes any pending revocation
        // expectation on this leaf, and rollback below restores the
        // pre-bundle ACL, so the expectation stays cleared either way.
        self.ledger.clear(li);
        self.probe(pi, li, AccessMode::Read)?;
        let _ = self.world.monitor.rollback();
        self.probe(pi, li, AccessMode::Read)
    }

    fn run_ext(&mut self, ext: usize) -> Result<(), Violation> {
        if self.world.extensions.is_empty() {
            return Ok(());
        }
        let (id, owner, kind) = self.world.extensions[ext % self.world.extensions.len()];
        let subject = self.world.subject(owner);
        let report = self.world.runtime.explain_health(id);
        let outcome = self.world.runtime.run(id, "main", &[], &subject);
        quarantine_honoured(&report, &outcome).map_err(|v| v.at_step(self.step))?;
        if kind == ExtKind::Hog {
            resource_bounded(&outcome).map_err(|v| v.at_step(self.step))?;
        }
        Ok(())
    }

    /// One invariant-checked probe: cache coherence, MAC flow and
    /// traversal visibility re-derivation, and the revocation ledger,
    /// plus flip tracking for the explorer's guidance.
    pub fn probe(
        &mut self,
        principal: usize,
        leaf: usize,
        mode: AccessMode,
    ) -> Result<(), Violation> {
        let pi = principal % self.world.principals.len();
        let li = leaf % self.world.leaves.len();
        let subject = self.world.subject(pi);
        let path = self.world.leaves[li].clone();
        self.stats.probes += 1;
        let decision = coherent(&self.world.monitor, &subject, &path, mode, self.storm)
            .map_err(|v| v.at_step(self.step))?;
        mac_flow(&self.world.monitor, &subject, &path, mode, &decision)
            .map_err(|v| v.at_step(self.step))?;
        visibility(&self.world.monitor, &subject, &path, mode, &decision)
            .map_err(|v| v.at_step(self.step))?;
        if decision.allowed() {
            self.stats.grants += 1;
            self.ledger
                .verify_grant(&self.world.monitor, li, pi, subject.principal, mode)
                .map_err(|v| v.at_step(self.step))?;
        } else {
            self.stats.denials += 1;
        }
        let key = (pi, li, mode);
        if let Some(previous) = self.memory.insert(key, decision.allowed()) {
            if previous != decision.allowed() {
                self.stats.flips += 1;
                self.hot.push_back((pi, li));
                if self.hot.len() > HOT_CAP {
                    self.hot.pop_front();
                }
            }
        }
        Ok(())
    }

    /// Concurrent burst: one uncached oracle, then the same check from
    /// three threads through the lock-free cached read path. With no
    /// concurrent mutator, any granted answer must match the oracle
    /// (injected denials of the oracle are tolerated under a storm).
    fn burst(&mut self, principal: usize, leaf: usize, mode: AccessMode) -> Result<(), Violation> {
        let pi = principal % self.world.principals.len();
        let li = leaf % self.world.leaves.len();
        let subject = self.world.subject(pi);
        let path = self.world.leaves[li].clone();
        self.stats.probes += 1;
        let oracle = self.world.monitor.check_unmemoized(&subject, &path, mode);
        let monitor = &self.world.monitor;
        let decisions: Vec<Decision> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| monitor.check(&subject, &path, mode)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("burst thread"))
                .collect()
        });
        for got in &decisions {
            if got.allowed() && !oracle.allowed() && !(self.storm && is_injected_denial(&oracle)) {
                return Err(Violation::new(
                    Invariant::FailClosed,
                    format!(
                        "concurrent check on {path} {mode:?} granted but the oracle denied \
                         ({oracle:?})"
                    ),
                )
                .at_step(self.step));
            }
        }
        Ok(())
    }

    /// After every mutating op: re-probe the oldest pending revocation
    /// expectations (read + execute per revoked principal). This is
    /// what turns a skipped revocation into a detected violation within
    /// a handful of steps instead of "whenever the random walk returns".
    fn reprobe(&mut self) -> Result<(), Violation> {
        for (leaf, principals) in self.ledger.sample(REPROBE_LEAVES) {
            for principal in principals {
                for mode in [AccessMode::Read, AccessMode::Execute] {
                    self.probe(principal, leaf, mode)?;
                }
            }
        }
        Ok(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if self.plan_installed {
            faults::clear();
        }
    }
}
