//! The reference monitor proper.
//!
//! # Concurrency model
//!
//! The monitor's state is published as an immutable snapshot behind an
//! epoch-versioned pointer (read-copy-update in safe Rust): readers pin
//! the current [`Arc`] of the state and never take a lock on the hot
//! path, while writers rebuild the state under a small publish mutex and
//! swap it in, bumping the decision-cache generation in the same critical
//! section so the (state, generation) pair a reader sees is always
//! internally consistent. Each thread caches the `Arc` it last pinned in
//! thread-local storage keyed by `(monitor id, version)`, so a repeat
//! check is one atomic version load plus a thread-local compare — no
//! shared reference-count traffic at all.

use crate::audit::{AuditLog, AuditStats};
use crate::bundle::{
    self, BundleError, BundleId, BundleStatusReport, CompiledBundle, CompiledOp, Generation,
    ShadowStats, StagedBundle,
};
use crate::cache::{CacheKey, CacheStats, DecisionCache};
use crate::config::MonitorConfig;
use crate::decision::{Decision, DenyReason};
use crate::error::MonitorError;
use crate::subject::Subject;
use extsec_acl::{AccessMode, Acl, AclDecision, AclEntry, Directory, GroupId, PrincipalId};
use extsec_auditlog::{AuditPipeline, AuditQuery, PipelineStats, QueryResult, VerifyReport};
use extsec_mac::{FlowCheck, Lattice, SecurityClass};
use extsec_namespace::{NameSpace, NodeId, NodeKind, NsError, NsPath, Protection};
use extsec_telemetry::{AuditSnapshot, Stage, Telemetry, TelemetrySnapshot};
use parking_lot::Mutex;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The monitor's complete policy state, published as one immutable
/// snapshot. The decision-cache generation the state was built under is
/// stamped into the snapshot itself, so a reader can never pair a stale
/// state with a newer generation (or vice versa).
#[derive(Clone)]
struct State {
    namespace: NameSpace,
    directory: Directory,
    lattice: Lattice,
    config: MonitorConfig,
    /// The decision-cache generation this snapshot was published under.
    generation: Generation,
    /// The staged policy being shadow-evaluated next to this one, when
    /// shadow mode is on. Riding inside the published state means the
    /// check path discovers shadow mode from the snapshot it already
    /// pinned — one `Option` test, no extra synchronization — and a
    /// toggle is itself an atomic publish.
    shadow: Option<Arc<ShadowPolicy>>,
}

/// The shadowed (staged) policy: the bundle it came from plus the state
/// the bundle's edits produce when applied to the base snapshot. Its own
/// `shadow` field is always `None`.
struct ShadowPolicy {
    bundle: BundleId,
    state: State,
}

/// One walk of a path, as [`NameSpace::resolve_chain`] left it: the node
/// of every prefix reached, and where resolution ended.
struct Walk<'a> {
    path: &'a NsPath,
    chain: &'a [NodeId],
    end: &'a Result<NodeId, NsError>,
}

/// Observes the access rule as [`State::decide`] applies it. Checks pass
/// `()`, which observes nothing and compiles away; `explain` narrates
/// every step.
pub(crate) trait Steps {
    /// Whether every interior node is judged on both halves even when
    /// the decision does not need it (a DAC refusal already decided, or
    /// visibility checking off), so that it can be narrated.
    const NARRATE: bool = false;

    /// The interior node at `depth` and its two visibility verdicts;
    /// `checked` is whether they counted.
    fn traverse(&mut self, _depth: usize, _dac: bool, _mac: bool, _checked: bool) {}

    /// The walk ended before a final node.
    fn unresolved(&mut self, _error: &NsError) {}

    /// The final node's discretionary verdict.
    fn dac(&mut self, _decision: AclDecision, _acl: &Acl) {}

    /// The final node's mandatory verdict.
    fn mac(
        &mut self,
        _check: FlowCheck,
        _subject: &SecurityClass,
        _label: &SecurityClass,
        _permitted: bool,
    ) {
    }
}

impl Steps for () {}

impl State {
    /// Walks `path` into this thread's chain buffer (no allocation once
    /// warm), timed under [`Stage::Resolve`], and hands the walk to `f`.
    /// Returns `f`'s result and where the walk ended.
    fn walk<R>(
        &self,
        path: &NsPath,
        tele: &Telemetry,
        f: impl FnOnce(&Walk<'_>) -> R,
    ) -> (R, Result<NodeId, NsError>) {
        let mut chain = CHAIN.with(Cell::take);
        let resolve_t = tele.start();
        let end = self.namespace.resolve_chain(path, 0, &mut chain);
        tele.finish(Stage::Resolve, resolve_t);
        let result = f(&Walk {
            path,
            chain: &chain,
            end: &end,
        });
        CHAIN.with(|cell| cell.set(chain));
        (result, end)
    }

    /// Walks and decides `path` with nothing recorded — uncached,
    /// unaudited, untimed — reporting each step to `steps`. Shadow
    /// evaluation and `explain` run the rule this way.
    fn decide_unrecorded(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
        steps: &mut impl Steps,
    ) -> Decision {
        let off = Telemetry::disabled();
        self.walk(path, off, |walk| {
            self.decide(subject, walk, mode, None, off, steps)
        })
        .0
    }

    /// The access rule, written down once: every interior node the walk
    /// reached must be visible, top-down; then the path must have
    /// resolved, and its final node must grant `mode` under its ACL and
    /// permit the flow the mode induces. Every decision the monitor makes
    /// or explains comes from here. The final node's halves are timed
    /// under [`Stage::Acl`] and [`Stage::Mac`]. `visible` is a batch's
    /// memo of interior nodes already proven visible.
    fn decide(
        &self,
        subject: &Subject,
        walk: &Walk<'_>,
        mode: AccessMode,
        visible: Option<&mut HashSet<NodeId>>,
        tele: &Telemetry,
        steps: &mut impl Steps,
    ) -> Decision {
        if let Err(hidden) = self.interior_visibility(subject, walk, visible, tele, steps) {
            return Decision::Deny(hidden);
        }
        let node = match walk.end {
            Ok(node) => *node,
            Err(error) => {
                steps.unresolved(error);
                return Decision::Deny(match error {
                    NsError::NotFound(missing) => DenyReason::NotFound(missing.clone()),
                    other => DenyReason::Structure(other.to_string()),
                });
            }
        };
        let Ok(node) = self.namespace.node(node) else {
            return Decision::Deny(DenyReason::Structure("stale node id".to_string()));
        };
        let protection = node.protection();
        let acl_t = tele.start();
        let dac = protection
            .acl
            .check(&self.directory, subject.principal, mode);
        tele.finish(Stage::Acl, acl_t);
        steps.dac(dac, &protection.acl);
        match dac {
            AclDecision::Granted => {}
            AclDecision::DeniedByEntry(i) => {
                return Decision::Deny(DenyReason::DacNegativeEntry(i));
            }
            AclDecision::NoMatchingEntry => return Decision::Deny(DenyReason::DacNoEntry),
        }
        let check = self.config.flow_check(mode);
        let mac_t = tele.start();
        let permitted = self
            .config
            .flow
            .permits(&subject.class, &protection.label, check);
        tele.finish(Stage::Mac, mac_t);
        steps.mac(check, &subject.class, &protection.label, permitted);
        if !permitted {
            return Decision::Deny(DenyReason::MacFlow);
        }
        Decision::Allow
    }

    /// "Access to each level of the hierarchy is protected" (§2.3): each
    /// interior node the walk reached, top-down, must grant `list` to the
    /// subject (discretionary) and be observable by its class
    /// (mandatory). Names the first prefix refused. The monitor's only
    /// visibility check; it is the protected half of resolution, so its
    /// time is recorded under [`Stage::Resolve`].
    fn interior_visibility<S: Steps>(
        &self,
        subject: &Subject,
        walk: &Walk<'_>,
        mut visible: Option<&mut HashSet<NodeId>>,
        tele: &Telemetry,
        steps: &mut S,
    ) -> Result<(), DenyReason> {
        let checked = self.config.check_visibility;
        if !checked && !S::NARRATE {
            return Ok(());
        }
        // Every node the walk reached is interior, except a resolved
        // path's final node, which gets the mode check instead.
        let interior = match walk.end {
            Ok(_) => &walk.chain[..walk.chain.len().saturating_sub(1)],
            Err(_) => walk.chain,
        };
        let climb_t = tele.start();
        for (depth, id) in interior.iter().enumerate() {
            if visible.as_ref().is_some_and(|memo| memo.contains(id)) {
                continue;
            }
            let Ok(node) = self.namespace.node(*id) else {
                return Err(DenyReason::Structure("stale node id".to_string()));
            };
            let protection = node.protection();
            // Mutant point, scripted-only: a fired
            // `refmon.visibility.skip` waves the node through unchecked —
            // the planted dropped-visibility bug the campaign explorer's
            // self-test must detect. Random fault storms never reach it,
            // and release builds compile it to nothing.
            let skip = checked && extsec_faults::fire_mutant("refmon.visibility.skip").is_some();
            let dac = skip
                || protection
                    .acl
                    .check(&self.directory, subject.principal, AccessMode::List)
                    .granted();
            let mac = skip
                || ((dac || S::NARRATE)
                    && self.config.flow.permits(
                        &subject.class,
                        &protection.label,
                        FlowCheck::Observe,
                    ));
            steps.traverse(depth, dac, mac, checked);
            if checked && !dac {
                return Err(DenyReason::NotVisibleDac(walk.path.prefix(depth)));
            }
            if checked && !mac {
                return Err(DenyReason::NotVisibleMac(walk.path.prefix(depth)));
            }
            if let Some(memo) = visible.as_deref_mut() {
                memo.insert(*id);
            }
        }
        tele.finish(Stage::Resolve, climb_t);
        Ok(())
    }
}

/// How many prior activated snapshots the rollback ring keeps.
const ROLLBACK_RING: usize = 8;

/// Staged bundles and the rollback ring, touched only on the admin path.
#[derive(Default)]
struct BundleRegistry {
    next_id: u64,
    staged: Vec<CompiledBundle>,
    history: VecDeque<Arc<State>>,
}

/// This thread's pinned snapshot of one monitor, revalidated against the
/// monitor's version counter on every use.
struct PinnedSnapshot {
    monitor: u64,
    version: u64,
    state: Arc<State>,
}

thread_local! {
    /// The snapshot this thread last pinned. Holding a strong `Arc` here
    /// keeps one superseded state alive per thread at worst; it is
    /// replaced the next time the thread touches any monitor.
    static PINNED: RefCell<Option<PinnedSnapshot>> = const { RefCell::new(None) };
    /// The buffer this thread's single-path walks record into, kept
    /// between checks so a warm check allocates nothing. Taken out for
    /// the length of one walk, so a reentrant walk simply gets a fresh
    /// one.
    static CHAIN: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

/// Hands every monitor instance a process-unique id so thread-local
/// pinned snapshots never cross monitors.
fn next_monitor_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Builder for a [`ReferenceMonitor`]: registers the security lattice and
/// the initial principal population before the monitor goes live.
pub struct MonitorBuilder {
    lattice: Lattice,
    directory: Directory,
    config: MonitorConfig,
}

impl MonitorBuilder {
    /// Starts a builder over the given security lattice.
    pub fn new(lattice: Lattice) -> Self {
        MonitorBuilder {
            lattice,
            directory: Directory::new(),
            config: MonitorConfig::default(),
        }
    }

    /// Registers a principal.
    pub fn add_principal<S: Into<String>>(&mut self, name: S) -> Result<PrincipalId, MonitorError> {
        Ok(self.directory.add_principal(name)?)
    }

    /// Registers a group.
    pub fn add_group<S: Into<String>>(&mut self, name: S) -> Result<GroupId, MonitorError> {
        Ok(self.directory.add_group(name)?)
    }

    /// Adds a principal to a group.
    pub fn add_member(
        &mut self,
        group: GroupId,
        principal: PrincipalId,
    ) -> Result<(), MonitorError> {
        Ok(self.directory.add_member(group, principal)?)
    }

    /// Nests a group inside another.
    pub fn add_subgroup(&mut self, parent: GroupId, child: GroupId) -> Result<(), MonitorError> {
        Ok(self.directory.add_subgroup(parent, child)?)
    }

    /// Overrides the monitor configuration.
    pub fn config(&mut self, config: MonitorConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Returns a reference to the directory being built.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Finalizes the monitor. The name-space root is created with a
    /// public-visibility ACL (`list` for everyone) and the lattice-bottom
    /// label, so that traversal works until an administrator tightens it.
    pub fn build(self) -> Arc<ReferenceMonitor> {
        let root_protection = Protection::new(
            Acl::public(extsec_acl::ModeSet::only(AccessMode::List)),
            SecurityClass::bottom(),
        );
        let audit = Arc::new(AuditLog::new());
        let audit_pipeline: Arc<Mutex<Option<Arc<AuditPipeline>>>> = Arc::new(Mutex::new(None));
        let telemetry = Telemetry::new();
        // Audit-chain health rides in every telemetry snapshot: the
        // source is pulled on the snapshotting thread, never on a check.
        telemetry.set_audit_source({
            let audit = Arc::clone(&audit);
            let pipeline = Arc::clone(&audit_pipeline);
            Arc::new(move || {
                let ring = audit.stats();
                let mut snap = AuditSnapshot {
                    ring_capacity: ring.capacity as u64,
                    ring_retained: ring.retained as u64,
                    ring_dropped: ring.ring_dropped,
                    ..AuditSnapshot::default()
                };
                let pipeline = pipeline.lock().clone();
                if let Some(pipeline) = pipeline {
                    let stats = pipeline.stats();
                    snap.pipeline_attached = true;
                    snap.pipeline_enqueued = stats.enqueued;
                    snap.pipeline_shed = stats.shed;
                    snap.pipeline_late_dropped = stats.late_dropped;
                    snap.pipeline_persisted = stats.persisted_events;
                    snap.pipeline_gap_records = stats.gap_records;
                    snap.pipeline_gap_missing = stats.gap_missing;
                    snap.pipeline_segments_sealed = stats.segments_sealed;
                    snap.pipeline_io_errors = stats.io_errors;
                    snap.pipeline_queue_depth = stats.queue_depth;
                    snap.pipeline_next_seq = stats.next_seq;
                }
                snap
            })
        });
        Arc::new(ReferenceMonitor {
            published: Mutex::new(Arc::new(State {
                namespace: NameSpace::new(root_protection),
                directory: self.directory,
                lattice: self.lattice,
                config: self.config,
                generation: Generation::ZERO,
                shadow: None,
            })),
            version: AtomicU64::new(0),
            id: next_monitor_id(),
            audit,
            audit_pipeline,
            cache: DecisionCache::new(),
            telemetry,
            bundles: Mutex::new(BundleRegistry::default()),
            shadow_stats: Mutex::new(ShadowStats::default()),
        })
    }
}

/// The central facility enforcing the whole access-control model.
///
/// See the crate docs for the model; see [`MonitorBuilder`] for
/// construction. The monitor is shared behind an [`Arc`] and is fully
/// thread-safe: checks pin the published state snapshot without taking
/// any lock, administration rebuilds and republishes the snapshot under
/// the publish mutex.
pub struct ReferenceMonitor {
    /// The slot the current state snapshot is published in. Readers only
    /// lock it to refresh their thread-local pin after a version change;
    /// writers hold it across evaluate-rebuild-republish.
    published: Mutex<Arc<State>>,
    /// Bumped (with `Release`) after every republish, while the publish
    /// lock is still held. A reader whose pinned version matches knows
    /// its snapshot is the newest published one.
    version: AtomicU64,
    /// Process-unique monitor identity for the thread-local pins.
    id: u64,
    audit: Arc<AuditLog>,
    /// The attached persistent audit pipeline, if any. Behind an `Arc`'d
    /// mutex so the telemetry audit source (a `'static` closure) can
    /// share the slot. Admin and snapshot paths only; the check path
    /// reaches the pipeline through the ring the audit log records into,
    /// never through this lock.
    audit_pipeline: Arc<Mutex<Option<Arc<AuditPipeline>>>>,
    /// Memoized decisions, stamped with the policy generation. Mutators
    /// advance the generation inside the publish critical section and the
    /// new generation is stamped into the snapshot they publish, so a
    /// reader — which takes the generation *from its snapshot* — can
    /// never hit an entry computed against superseded policy.
    cache: DecisionCache,
    /// Pipeline telemetry: stage timings, mode/service/dispatch counters.
    /// Starts disabled; when disabled every recording call is a single
    /// relaxed load, so the hot path pays (almost) nothing.
    telemetry: Telemetry,
    /// Staged policy bundles and the bounded ring of prior activated
    /// snapshots (rollback targets). Admin path only; the check path
    /// never touches this lock.
    bundles: Mutex<BundleRegistry>,
    /// Shadow-mode flip accumulators, reset whenever shadow mode turns
    /// on (or the shadowed policy is activated or rolled away). Locked
    /// once per check *only while shadow mode is on* — the explicit
    /// price of dual evaluation.
    shadow_stats: Mutex<ShadowStats>,
}

impl ReferenceMonitor {
    // ------------------------------------------------------------------
    // Snapshot plumbing.
    // ------------------------------------------------------------------

    /// Runs `f` against the current state snapshot. Fast path: one
    /// `Acquire` load of the version counter plus a thread-local compare;
    /// no lock, no shared reference-count update. Slow path (first use on
    /// this thread, or the version moved): refresh the pin under the
    /// publish lock.
    fn with_snapshot<R>(&self, f: impl FnOnce(&State) -> R) -> R {
        let version = self.version.load(Ordering::Acquire);
        // Take the pin out of the slot (rather than borrowing across `f`)
        // so a reentrant monitor call inside `f` finds the cell free.
        let pinned = PINNED.with(|cell| {
            let mut slot = cell.borrow_mut();
            match slot.take() {
                Some(pin) if pin.monitor == self.id && pin.version == version => Some(pin),
                other => {
                    *slot = other;
                    None
                }
            }
        });
        if let Some(pin) = pinned {
            let result = f(&pin.state);
            PINNED.with(|cell| {
                let mut slot = cell.borrow_mut();
                if slot.is_none() {
                    *slot = Some(pin);
                }
            });
            return result;
        }
        let state = self.refresh_pin();
        f(&state)
    }

    /// Re-pins this thread to the currently published snapshot and
    /// returns it. The version is re-read under the publish lock so the
    /// (state, version) pair is consistent.
    fn refresh_pin(&self) -> Arc<State> {
        let (state, version) = {
            let slot = self.published.lock();
            (Arc::clone(&slot), self.version.load(Ordering::Acquire))
        };
        PINNED.with(|cell| {
            *cell.borrow_mut() = Some(PinnedSnapshot {
                monitor: self.id,
                version,
                state: Arc::clone(&state),
            });
        });
        state
    }

    /// Returns the current state snapshot as an owned `Arc` (for
    /// [`ReferenceMonitor::view`], which must outlive the call).
    fn snapshot_arc(&self) -> Arc<State> {
        let version = self.version.load(Ordering::Acquire);
        let pinned = PINNED.with(|cell| {
            cell.borrow_mut().as_ref().and_then(|pin| {
                (pin.monitor == self.id && pin.version == version).then(|| Arc::clone(&pin.state))
            })
        });
        pinned.unwrap_or_else(|| self.refresh_pin())
    }

    /// Rebuilds the state held in `slot` (cloning it only when readers
    /// still pin the old snapshot), advances the decision-cache
    /// generation, applies `f`, and republishes. Must be called with the
    /// publish lock held; the version bump is `Release` so the new state
    /// is visible to any reader that observes the new version.
    fn mutate_published<R>(&self, slot: &mut Arc<State>, f: impl FnOnce(&mut State) -> R) -> R {
        let state = Arc::make_mut(slot);
        state.generation = self.cache.bump_get();
        let result = f(state);
        self.version.fetch_add(1, Ordering::Release);
        result
    }

    // ------------------------------------------------------------------
    // The access check (the hot path).
    // ------------------------------------------------------------------

    /// Checks whether `subject` may perform `mode` on the object named by
    /// `path`, recording the decision in the audit log when enabled.
    ///
    /// This is exactly `self.view().check(...)` against the snapshot the
    /// call pins — the monitor-level method exists so a single check does
    /// not pay the view's `Arc` pin. For compound operations that must
    /// read one consistent policy state, open a [`MonitorView`] (the
    /// blessed entry point) and make all the calls through it.
    ///
    /// When [`MonitorConfig::decision_cache`] is on, repeat checks are
    /// answered from the generation-stamped cache: the generation comes
    /// from the same immutable snapshot as the state, so a hit is exactly
    /// the decision a fresh evaluation against that snapshot would
    /// produce. Audit records are written on hits and misses alike.
    pub fn check(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Decision {
        self.with_snapshot(|state| {
            ViewRef {
                monitor: self,
                state,
            }
            .check(subject, path, mode)
        })
    }

    /// Checks a whole batch against one pinned snapshot with shared-work
    /// vectorization (see [`MonitorView::check_batch`]). Decision-for-
    /// decision equivalent to calling [`ReferenceMonitor::check`] per
    /// item, except that every item sees the same snapshot.
    pub fn check_batch(&self, subject: &Subject, items: &[(NsPath, AccessMode)]) -> Vec<Decision> {
        self.with_snapshot(|state| {
            ViewRef {
                monitor: self,
                state,
            }
            .check_batch(subject, items)
        })
    }

    /// Checks without consulting or filling the decision cache. Used for
    /// subjects whose effective class is interior mutable state the
    /// generation counter cannot see (floating-class subjects), and as
    /// the uncached oracle the campaign invariant checkers compare the
    /// cached path against (decision-cache coherence, DESIGN.md §6.11).
    ///
    /// This is a verification surface, not an alternative check path:
    /// production callers go through [`ReferenceMonitor::check`].
    pub fn check_unmemoized(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Decision {
        self.with_snapshot(|state| {
            let whole = self.telemetry.start();
            self.telemetry.count_mode(mode);
            let (decision, _) = self.decide_and_audit(state, subject, path, mode, false);
            self.telemetry.finish(Stage::Check, whole);
            decision
        })
    }

    /// The one decision site for a single request: walks `path` once,
    /// decides — through the decision cache when `memo` (and the
    /// configuration) allow — and audits. Also returns where the walk
    /// ended, so a guarded operation acts on the node it was granted
    /// without resolving the path again.
    fn decide_and_audit(
        &self,
        state: &State,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
        memo: bool,
    ) -> (Decision, Result<NodeId, NsError>) {
        let tele = &self.telemetry;
        let (decision, end) = state.walk(path, tele, |walk| {
            if memo {
                self.memoized(state, subject, walk, mode, None)
            } else {
                state.decide(subject, walk, mode, None, tele, &mut ())
            }
        });
        if state.config.audit {
            let audit_t = tele.start();
            self.audit
                .record(subject, path, mode, &decision, state.generation.raw());
            tele.finish(Stage::Audit, audit_t);
        }
        (decision, end)
    }

    /// Decides a walk through the generation-stamped decision cache: a
    /// path that resolved is keyed on its final node and answered from
    /// the cache, or decided and remembered on a miss. The generation
    /// comes from the same snapshot as the state, so a hit is exactly
    /// what deciding afresh would return. Anything else — the cache
    /// configured off, or no node to key on — is decided directly.
    fn memoized(
        &self,
        state: &State,
        subject: &Subject,
        walk: &Walk<'_>,
        mode: AccessMode,
        visible: Option<&mut HashSet<NodeId>>,
    ) -> Decision {
        let tele = &self.telemetry;
        let node = match walk.end {
            Ok(node) if state.config.decision_cache => *node,
            _ => return state.decide(subject, walk, mode, visible, tele, &mut ()),
        };
        let key = CacheKey {
            principal: subject.principal,
            node,
            epoch: state.namespace.epoch(node),
            mode,
        };
        let probe_t = tele.start();
        let hit = self.cache.lookup(&key, &subject.class, state.generation);
        tele.finish(Stage::Cache, probe_t);
        if let Some(decision) = hit {
            return decision;
        }
        let decision = state.decide(subject, walk, mode, visible, tele, &mut ());
        self.cache
            .insert(key, &subject.class, state.generation, decision.clone());
        decision
    }

    /// Checks and converts to a `Result` in one step. Like
    /// [`ReferenceMonitor::check`], this is the single-call form of
    /// [`MonitorView::require`].
    pub fn require(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) -> Result<(), MonitorError> {
        self.with_snapshot(|state| {
            ViewRef {
                monitor: self,
                state,
            }
            .require(subject, path, mode)
        })
    }

    /// The guard of an operation acting on `path`: decides `mode`
    /// uncached and audits, then returns the node the operation may act
    /// on.
    fn authorize(
        &self,
        state: &State,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) -> Result<NodeId, MonitorError> {
        let (decision, end) = self.decide_and_audit(state, subject, path, mode, false);
        decision.into_result()?;
        Ok(end?)
    }

    // ------------------------------------------------------------------
    // Guarded administration (checked against the model itself).
    // ------------------------------------------------------------------

    /// Creates a node under `parent`; requires `write-append` on the
    /// parent (adding a directory entry appends to the container without
    /// observing or destroying existing entries, so it composes with the
    /// MAC write-up rule).
    pub fn create(
        &self,
        subject: &Subject,
        parent: &NsPath,
        name: &str,
        kind: NodeKind,
        protection: Protection,
    ) -> Result<NodeId, MonitorError> {
        let mut slot = self.published.lock();
        let parent = self.authorize(&slot, subject, parent, AccessMode::WriteAppend)?;
        slot.lattice.validate(&protection.label)?;
        // Insert into a private copy first; only a successful insert is
        // republished (a failed one leaves state and generation alone).
        let state = Arc::make_mut(&mut slot);
        let id = state.namespace.insert_at(parent, name, kind, protection)?;
        state.generation = self.cache.bump_get();
        self.version.fetch_add(1, Ordering::Release);
        Ok(id)
    }

    /// Removes the node at `path`; requires `delete` on the node itself.
    pub fn remove(&self, subject: &Subject, path: &NsPath) -> Result<(), MonitorError> {
        let mut slot = self.published.lock();
        let id = self.authorize(&slot, subject, path, AccessMode::Delete)?;
        let state = Arc::make_mut(&mut slot);
        state.namespace.remove_id(id)?;
        state.generation = self.cache.bump_get();
        self.version.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Lists the children of the container at `path`; requires `list`.
    /// The single-call form of [`MonitorView::list`].
    pub fn list(&self, subject: &Subject, path: &NsPath) -> Result<Vec<String>, MonitorError> {
        self.with_snapshot(|state| {
            ViewRef {
                monitor: self,
                state,
            }
            .list(subject, path)
        })
    }

    fn list_at(
        &self,
        state: &State,
        subject: &Subject,
        path: &NsPath,
    ) -> Result<Vec<String>, MonitorError> {
        self.authorize(state, subject, path, AccessMode::List)?;
        Ok(state.namespace.list(path)?)
    }

    /// Appends an ACL entry to the node at `path`; requires `administrate`.
    pub fn acl_push(
        &self,
        subject: &Subject,
        path: &NsPath,
        entry: AclEntry,
    ) -> Result<(), MonitorError> {
        self.administrate(subject, path, move |prot| {
            prot.acl.push(entry);
            Ok(())
        })
    }

    /// Removes the ACL entry at `index`; requires `administrate`.
    pub fn acl_remove(
        &self,
        subject: &Subject,
        path: &NsPath,
        index: usize,
    ) -> Result<AclEntry, MonitorError> {
        self.administrate(subject, path, move |prot| {
            prot.acl.remove(index).ok_or_else(|| {
                MonitorError::Denied(DenyReason::Structure(format!(
                    "no ACL entry at index {index}"
                )))
            })
        })
    }

    /// Replaces the whole ACL; requires `administrate`.
    pub fn set_acl(&self, subject: &Subject, path: &NsPath, acl: Acl) -> Result<(), MonitorError> {
        self.administrate(subject, path, move |prot| {
            // Mutant point, scripted-only: a fired `refmon.set_acl.apply`
            // drops the replacement while still reporting success — the
            // planted revocation-skip bug the campaign explorer's
            // self-test must detect. Random fault storms never reach it,
            // and release builds compile it to nothing.
            if extsec_faults::fire_mutant("refmon.set_acl.apply").is_some() {
                return Ok(());
            }
            prot.acl = acl;
            Ok(())
        })
    }

    /// Relabels the node at `path`; requires `administrate`, and the new
    /// label must belong to the lattice. The subject's class must dominate
    /// the **new** label (no one may hand out labels they cannot
    /// themselves reach), in addition to the `administrate` flow check
    /// against the old label.
    pub fn set_label(
        &self,
        subject: &Subject,
        path: &NsPath,
        label: SecurityClass,
    ) -> Result<(), MonitorError> {
        self.with_snapshot(|state| {
            state.lattice.validate(&label)?;
            if !subject.class.dominates(&label) {
                return Err(MonitorError::Denied(DenyReason::MacFlow));
            }
            Ok(())
        })?;
        self.administrate(subject, path, move |prot| {
            prot.label = label;
            Ok(())
        })
    }

    fn administrate<R>(
        &self,
        subject: &Subject,
        path: &NsPath,
        f: impl FnOnce(&mut Protection) -> Result<R, MonitorError>,
    ) -> Result<R, MonitorError> {
        let mut slot = self.published.lock();
        let id = self.authorize(&slot, subject, path, AccessMode::Administrate)?;
        let mut result: Option<Result<R, MonitorError>> = None;
        // The closure runs against the new state; invalidate and publish
        // even when it reports an error (a partial mutation before the
        // error would otherwise leak through stale cache entries).
        self.mutate_published(&mut slot, |state| {
            state.namespace.update_protection(id, |prot| {
                result = Some(f(prot));
            })
        })?;
        // `update_protection` runs the closure whenever the id resolves,
        // and it just did; if that invariant ever breaks, refuse rather
        // than panic while holding the policy lock.
        result.unwrap_or_else(|| {
            Err(MonitorError::Ns(NsError::Fault(
                "update_protection did not run the closure".to_string(),
            )))
        })
    }

    // ------------------------------------------------------------------
    // Subject transitions.
    // ------------------------------------------------------------------

    /// Returns the subject as it enters the code object at `path`: when
    /// the node carries a static security class, the subject's class is
    /// capped at `meet(current, static)`; otherwise it is unchanged. The
    /// single-call form of [`MonitorView::enter`].
    pub fn enter(&self, subject: &Subject, path: &NsPath) -> Result<Subject, MonitorError> {
        self.with_snapshot(|state| {
            ViewRef {
                monitor: self,
                state,
            }
            .enter(subject, path)
        })
    }

    fn enter_at(state: &State, subject: &Subject, path: &NsPath) -> Result<Subject, MonitorError> {
        let id = state.namespace.resolve(path)?;
        let node = state.namespace.node(id)?;
        Ok(match &node.protection().static_class {
            Some(static_class) => subject.capped_by(static_class),
            None => subject.clone(),
        })
    }

    /// Pins the current snapshot and returns a [`MonitorView`] over it,
    /// so a compound operation (check-then-enter, list-then-filter) reads
    /// one consistent policy state instead of racing republishes between
    /// its steps. This is the blessed entry point for all read-side use;
    /// the monitor-level `check`/`require`/`list`/`enter` are the
    /// single-call forms of the same four view methods.
    ///
    /// When telemetry is enabled, opening a view starts one trace: the
    /// view counts each operation made through it and records its whole
    /// lifetime (pin to drop) in the `view-span` histogram — one pin, one
    /// trace.
    pub fn view(&self) -> MonitorView<'_> {
        self.telemetry.count_view();
        MonitorView {
            monitor: self,
            state: self.snapshot_arc(),
            opened: self.telemetry.start(),
        }
    }

    // ------------------------------------------------------------------
    // Trusted (TCB-internal) access. These bypass the model: they exist
    // for system bootstrap and for services that are themselves part of
    // the trusted computing base.
    // ------------------------------------------------------------------

    /// Runs `f` with mutable access to the name space, bypassing all
    /// checks. For bootstrap and TCB services only.
    pub fn bootstrap<R>(
        &self,
        f: impl FnOnce(&mut NameSpace) -> Result<R, NsError>,
    ) -> Result<R, MonitorError> {
        let mut slot = self.published.lock();
        // `f` gets the whole name space; invalidate and publish even on
        // error, since a failing closure may have mutated before failing.
        let result = self.mutate_published(&mut slot, |state| f(&mut state.namespace));
        Ok(result?)
    }

    /// Runs `f` with read access to the name space, bypassing all checks.
    pub fn inspect<R>(&self, f: impl FnOnce(&NameSpace) -> R) -> R {
        self.with_snapshot(|state| f(&state.namespace))
    }

    /// Runs `f` with read access to the principal directory.
    pub fn directory<R>(&self, f: impl FnOnce(&Directory) -> R) -> R {
        self.with_snapshot(|state| f(&state.directory))
    }

    /// Runs `f` with mutable access to the principal directory (identity
    /// management sits outside the access-control model; the paper leaves
    /// authentication to future work).
    pub fn directory_mut<R>(&self, f: impl FnOnce(&mut Directory) -> R) -> R {
        let mut slot = self.published.lock();
        // Group-membership edits change ACL group-entry outcomes.
        self.mutate_published(&mut slot, |state| f(&mut state.directory))
    }

    /// Runs `f` with read access to the lattice.
    pub fn lattice<R>(&self, f: impl FnOnce(&Lattice) -> R) -> R {
        self.with_snapshot(|state| f(&state.lattice))
    }

    /// Returns the current configuration.
    pub fn config(&self) -> MonitorConfig {
        self.with_snapshot(|state| state.config)
    }

    /// Replaces the configuration (TCB operation).
    pub fn set_config(&self, config: MonitorConfig) {
        let mut slot = self.published.lock();
        // Flow-policy or visibility changes alter decisions wholesale.
        self.mutate_published(&mut slot, |state| state.config = config);
    }

    // ------------------------------------------------------------------
    // Policy bundles: stage / shadow / activate / rollback (TCB admin).
    // See DESIGN.md §6.13 for the lifecycle state machine.
    // ------------------------------------------------------------------

    /// Parses and compiles a policy bundle against the current snapshot,
    /// staging it for activation or shadowing. Every path must resolve,
    /// every ACL entry must name a known principal or group, and every
    /// class must belong to the lattice — a bundle that stages cleanly
    /// cannot half-apply later. A `base current` header resolves to the
    /// generation active right now; activation compare-and-swaps that
    /// base against the active generation, so staging is free of
    /// time-of-check races.
    pub fn stage_bundle(&self, source: &str) -> Result<StagedBundle, BundleError> {
        let doc = extsec_lang::bundle::parse_bundle(source).map_err(|e| BundleError::Compile {
            line: e.line,
            msg: e.msg,
        })?;
        self.with_snapshot(|state| {
            let ops =
                bundle::compile_ops(&doc, &state.namespace, &state.directory, &state.lattice)?;
            let base = bundle::resolve_base(doc.base, state.generation);
            let mut registry = self.bundles.lock();
            registry.next_id += 1;
            let id = BundleId::from_raw(registry.next_id);
            let staged = StagedBundle {
                id,
                name: doc.name.clone(),
                version: doc.version,
                base,
                ops: ops.len(),
            };
            registry.staged.push(CompiledBundle {
                id,
                name: doc.name,
                version: doc.version,
                base,
                ops,
            });
            Ok(staged)
        })
    }

    /// Activates a staged bundle: one atomic publish. The bundle's base
    /// generation must still be the active one
    /// ([`BundleError::BaseConflict`] otherwise — some other mutation
    /// landed since it was staged), which also guarantees the compiled
    /// ops still apply to exactly the state they were validated against.
    /// The pre-activation snapshot joins the rollback ring (capacity
    /// [`ROLLBACK_RING`](crate); the oldest entry is dropped when full),
    /// shadow mode is cleared, and the new generation is returned. No
    /// concurrent batch ever observes half the bundle: a reader is
    /// pinned either to the pre-activation snapshot or the
    /// post-activation one.
    pub fn activate_bundle(&self, id: BundleId) -> Result<Generation, BundleError> {
        let mut slot = self.published.lock();
        let mut registry = self.bundles.lock();
        let pos = registry
            .staged
            .iter()
            .position(|b| b.id == id)
            .ok_or(BundleError::UnknownBundle(id))?;
        if registry.staged[pos].base != slot.generation {
            return Err(BundleError::BaseConflict {
                expected: registry.staged[pos].base,
                actual: slot.generation,
            });
        }
        let staged = registry.staged.remove(pos);
        let mut next = State::clone(&slot);
        next.shadow = None;
        if let Err(e) = Self::apply_bundle_ops(&mut next, &staged.ops) {
            // Structurally unreachable (the base CAS pins the state the
            // ops compiled against), but if it ever fires the published
            // state must stay untouched and the bundle stay staged.
            registry.staged.insert(pos, staged);
            return Err(e);
        }
        registry.history.push_back(Arc::clone(&slot));
        while registry.history.len() > ROLLBACK_RING {
            registry.history.pop_front();
        }
        next.generation = self.cache.bump_get();
        let generation = next.generation;
        *slot = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        *self.shadow_stats.lock() = ShadowStats::default();
        Ok(generation)
    }

    /// Turns shadow mode on for a staged bundle (or off). While on,
    /// every check through the real check path is also evaluated against
    /// the staged policy and would-be flips are counted into telemetry
    /// and the status report — *enforced decisions never change*. The
    /// toggle is an atomic publish that deliberately does **not** bump
    /// the cache generation: the enforced policy is untouched, so every
    /// warm cache entry stays valid and the fast path keeps its hit
    /// rate. Shadowing requires the same base-generation match as
    /// activation (the diff is relative to that base).
    pub fn shadow_bundle(&self, id: BundleId, on: bool) -> Result<Generation, BundleError> {
        let mut slot = self.published.lock();
        if !on {
            if slot.shadow.is_some() {
                let mut next = State::clone(&slot);
                next.shadow = None;
                *slot = Arc::new(next);
                self.version.fetch_add(1, Ordering::Release);
            }
            return Ok(slot.generation);
        }
        let registry = self.bundles.lock();
        let staged = registry
            .staged
            .iter()
            .find(|b| b.id == id)
            .ok_or(BundleError::UnknownBundle(id))?;
        if staged.base != slot.generation {
            return Err(BundleError::BaseConflict {
                expected: staged.base,
                actual: slot.generation,
            });
        }
        let mut shadow_state = State::clone(&slot);
        shadow_state.shadow = None;
        Self::apply_bundle_ops(&mut shadow_state, &staged.ops)?;
        let bundle_id = staged.id;
        drop(registry);
        let mut next = State::clone(&slot);
        next.shadow = Some(Arc::new(ShadowPolicy {
            bundle: bundle_id,
            state: shadow_state,
        }));
        *slot = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        *self.shadow_stats.lock() = ShadowStats::default();
        Ok(slot.generation)
    }

    /// Rolls back to the most recent pre-activation snapshot: one atomic
    /// publish restoring that snapshot's policy byte-for-byte (under a
    /// fresh generation, so stale cache entries cannot resurface).
    /// Returns [`BundleError::NoHistory`] when the ring is empty.
    pub fn rollback(&self) -> Result<Generation, BundleError> {
        let mut slot = self.published.lock();
        let mut registry = self.bundles.lock();
        let prior = registry.history.pop_back().ok_or(BundleError::NoHistory)?;
        let mut next = State::clone(&prior);
        next.shadow = None;
        next.generation = self.cache.bump_get();
        let generation = next.generation;
        *slot = Arc::new(next);
        self.version.fetch_add(1, Ordering::Release);
        *self.shadow_stats.lock() = ShadowStats::default();
        Ok(generation)
    }

    /// Reports the bundle subsystem's state: the active generation,
    /// every staged bundle, the shadow flip counts when shadow mode is
    /// on, and the rollback ring's depth.
    pub fn bundle_status(&self) -> BundleStatusReport {
        let state = self.snapshot_arc();
        let registry = self.bundles.lock();
        let staged = registry
            .staged
            .iter()
            .map(|b| StagedBundle {
                id: b.id,
                name: b.name.clone(),
                version: b.version,
                base: b.base,
                ops: b.ops.len(),
            })
            .collect();
        let history = registry.history.len();
        drop(registry);
        let shadow = state
            .shadow
            .as_ref()
            .map(|sp| self.shadow_stats.lock().report(sp.bundle));
        BundleStatusReport {
            active: state.generation,
            staged,
            shadow,
            history,
        }
    }

    /// Replays a compiled bundle onto a state clone. Infallible for a
    /// bundle whose base generation matches the state (compilation
    /// resolved every target against exactly this state), so a failure
    /// here is reported rather than partially published.
    fn apply_bundle_ops(state: &mut State, ops: &[CompiledOp]) -> Result<(), BundleError> {
        let fail = |op: &CompiledOp, e: NsError| BundleError::Compile {
            line: 0,
            msg: format!("{} failed to apply: {e}", op.name()),
        };
        for op in ops {
            match op {
                CompiledOp::SetAcl(path, acl) => {
                    let id = state.namespace.resolve(path).map_err(|e| fail(op, e))?;
                    state
                        .namespace
                        .update_protection(id, |prot| prot.acl = acl.clone())
                        .map_err(|e| fail(op, e))?;
                }
                CompiledOp::AclAdd(path, acl) => {
                    let id = state.namespace.resolve(path).map_err(|e| fail(op, e))?;
                    state
                        .namespace
                        .update_protection(id, |prot| {
                            for entry in acl.entries() {
                                prot.acl.push(*entry);
                            }
                        })
                        .map_err(|e| fail(op, e))?;
                }
                CompiledOp::SetLabel(path, class) => {
                    let id = state.namespace.resolve(path).map_err(|e| fail(op, e))?;
                    state
                        .namespace
                        .update_protection(id, |prot| prot.label = class.clone())
                        .map_err(|e| fail(op, e))?;
                }
                CompiledOp::RelabelSubtree(path, class) => {
                    let base = path.components();
                    let targets: Vec<NodeId> = state
                        .namespace
                        .walk()
                        .into_iter()
                        .filter(|(_, node_path)| {
                            let comps = node_path.components();
                            comps.len() >= base.len() && comps[..base.len()] == *base
                        })
                        .map(|(id, _)| id)
                        .collect();
                    for id in targets {
                        state
                            .namespace
                            .update_protection(id, |prot| prot.label = class.clone())
                            .map_err(|e| fail(op, e))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dual-evaluates one already-enforced decision against the shadowed
    /// policy and folds the outcome into the flip accumulators. Called
    /// from the check path only while shadow mode is on.
    fn record_shadow(
        &self,
        shadow: &ShadowPolicy,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
        enforced: &Decision,
    ) {
        // Unrecorded, so the shadow evaluation never pollutes the enforced
        // pipeline's stage histograms, the audit log or the decision cache.
        let shadowed = shadow.state.decide_unrecorded(subject, path, mode, &mut ());
        let enforced_allows = matches!(enforced, Decision::Allow);
        let shadowed_allows = matches!(shadowed, Decision::Allow);
        self.telemetry.count_shadow_check();
        if enforced_allows != shadowed_allows {
            if enforced_allows {
                self.telemetry.count_shadow_allow_to_deny();
            } else {
                self.telemetry.count_shadow_deny_to_allow();
            }
        }
        self.shadow_stats
            .lock()
            .record(subject.principal, path, enforced, &shadowed);
    }

    /// Returns the audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Returns the decision cache's effectiveness counters (hits, misses,
    /// invalidations, resident entries, current generation).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Returns the audit ring's saturation counters (capacity, retained
    /// and dropped events), the observability companion to
    /// [`ReferenceMonitor::cache_stats`].
    pub fn audit_stats(&self) -> AuditStats {
        self.audit.stats()
    }

    /// The raw policy generation currently published (bumped by every
    /// successful mutation). This is the value stamped into audit
    /// records.
    pub fn policy_generation(&self) -> u64 {
        self.with_snapshot(|state| state.generation.raw())
    }

    /// Attaches a persistent audit pipeline: every subsequent decision is
    /// recorded into the pipeline's ring (one slot write), whose drainer
    /// compacts it into hash-chained on-disk segments; the in-memory view
    /// reads the same ring. The ring resumes after the pipeline's
    /// recovered `next_seq` and after every number this monitor already
    /// handed out, so sequence numbers stay globally monotone across
    /// restarts; events recorded *before* attachment never reach the
    /// pipeline and become a declared gap.
    pub fn attach_audit_pipeline(&self, pipeline: Arc<AuditPipeline>) {
        self.audit.attach_ring(Arc::clone(pipeline.ring()));
        *self.audit_pipeline.lock() = Some(pipeline);
    }

    /// The attached persistent audit pipeline, if any.
    pub fn audit_pipeline(&self) -> Option<Arc<AuditPipeline>> {
        self.audit_pipeline.lock().clone()
    }

    /// Flushes the attached pipeline: blocks until everything recorded so
    /// far is persisted (with still-missing sequence numbers declared as
    /// gaps) and the active tail is fsync'd.
    pub fn audit_flush(&self) -> Result<(), AuditAccessError> {
        self.audit_pipeline()
            .ok_or(AuditAccessError::Unattached)?
            .flush()
            .map_err(AuditAccessError::Io)
    }

    /// Runs a bounded, filtered query over the persisted audit log.
    /// Flushes first so the result covers everything recorded before the
    /// call.
    pub fn audit_query(&self, query: &AuditQuery) -> Result<QueryResult, AuditAccessError> {
        let pipeline = self.audit_pipeline().ok_or(AuditAccessError::Unattached)?;
        pipeline.flush().map_err(AuditAccessError::Io)?;
        pipeline.query(query).map_err(AuditAccessError::Io)
    }

    /// Re-derives the persisted audit chain end to end and reports
    /// per-segment integrity. Flushes first so the report covers
    /// everything recorded before the call.
    pub fn audit_verify(&self) -> Result<VerifyReport, AuditAccessError> {
        let pipeline = self.audit_pipeline().ok_or(AuditAccessError::Unattached)?;
        pipeline.flush().map_err(AuditAccessError::Io)?;
        pipeline.verify().map_err(AuditAccessError::Io)
    }

    /// The attached pipeline's counters, if a pipeline is attached.
    pub fn audit_pipeline_stats(&self) -> Option<PipelineStats> {
        self.audit_pipeline().map(|p| p.stats())
    }

    /// Returns the pipeline telemetry hub: toggle collection with
    /// [`Telemetry::set_enabled`], register sinks, or read counters.
    /// Collection starts disabled and costs one relaxed atomic load per
    /// recording point while it stays that way.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Takes an immutable snapshot of the pipeline telemetry — per-stage
    /// latency histograms (resolve, cache, acl, mac, audit, whole
    /// checks), per-mode counters and view spans — completing the
    /// observability triple with [`ReferenceMonitor::cache_stats`] and
    /// [`ReferenceMonitor::audit_stats`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Convenience: the protection record of the node at `path` (TCB
    /// inspection; not access-checked).
    pub fn protection_of(&self, path: &NsPath) -> Result<Protection, MonitorError> {
        self.with_snapshot(|state| {
            let id = state.namespace.resolve(path)?;
            Ok(state.namespace.node(id)?.protection().clone())
        })
    }
}

/// Why an audit query/verify/flush call could not be served.
#[derive(Debug)]
pub enum AuditAccessError {
    /// No persistent audit pipeline is attached to this monitor.
    Unattached,
    /// The pipeline failed (store I/O error or a stopped drainer).
    Io(std::io::Error),
}

impl fmt::Display for AuditAccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditAccessError::Unattached => write!(f, "no audit pipeline attached"),
            AuditAccessError::Io(e) => write!(f, "audit pipeline error: {e}"),
        }
    }
}

impl std::error::Error for AuditAccessError {}

impl fmt::Debug for ReferenceMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_snapshot(|state| {
            f.debug_struct("ReferenceMonitor")
                .field("nodes", &state.namespace.len())
                .field("principals", &state.directory.principal_count())
                .field("config", &state.config)
                .finish()
        })
    }
}

/// The one implementation of the read API, borrowed against a single
/// state snapshot. Both entry-point families delegate here —
/// [`ReferenceMonitor`]'s single-call methods via the thread-local pin
/// (no `Arc` traffic) and [`MonitorView`]'s compound methods via the
/// view's owned pin — so there is exactly one check path to instrument,
/// test, and reason about.
struct ViewRef<'a> {
    monitor: &'a ReferenceMonitor,
    state: &'a State,
}

impl ViewRef<'_> {
    /// The whole-check span: one `check` stage sample and one per-mode
    /// count, wrapped around the cached pipeline.
    fn check(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Decision {
        let tele = &self.monitor.telemetry;
        let whole = tele.start();
        tele.count_mode(mode);
        let (decision, _) = self
            .monitor
            .decide_and_audit(self.state, subject, path, mode, true);
        tele.finish(Stage::Check, whole);
        // Shadow mode: dual-evaluate against the staged policy riding in
        // this snapshot. Off (the common case) this is one `Option` test
        // on already-pinned state; the enforced decision is final either
        // way.
        if let Some(shadow) = self.state.shadow.as_deref() {
            self.monitor
                .record_shadow(shadow, subject, path, mode, &decision);
        }
        decision
    }

    /// The vectorized batch check: one snapshot, one sorted pass.
    ///
    /// The item list is walked in path-sorted order so identical paths
    /// and shared prefixes are adjacent, and each distinct path is walked
    /// once, resuming the previous path's chain at their longest shared
    /// prefix, so only the differing suffix is looked up in the directory
    /// B-trees. On top of that sit two batch-local memos — interior nodes
    /// proven visible, and one decision per distinct `(node, mode)`
    /// (filled from the shared generation-stamped cache or one
    /// evaluation of the rule). Decisions are written back in item order,
    /// and audit records are emitted in item order afterwards, so the
    /// result is indistinguishable from the sequential per-item path
    /// except in speed: every decision comes from the same rule against
    /// the same snapshot.
    fn check_batch(&self, subject: &Subject, items: &[(NsPath, AccessMode)]) -> Vec<Decision> {
        let monitor = self.monitor;
        let state = self.state;
        let tele = &monitor.telemetry;
        let whole = tele.start();
        for (_, mode) in items {
            tele.count_mode(*mode);
        }

        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_unstable_by(|&a, &b| items[a].0.components().cmp(items[b].0.components()));
        let mut chain = Vec::new();
        let mut prev: Option<&[String]> = None;
        let mut end = Ok(NodeId::ROOT);
        let mut visible: HashSet<NodeId> = HashSet::new();
        let mut decided: HashMap<(NodeId, AccessMode), Decision> = HashMap::new();
        let mut decisions: Vec<Option<Decision>> = vec![None; items.len()];
        for idx in order {
            let (path, mode) = &items[idx];
            let comps = path.components();
            if prev != Some(comps) {
                let shared = prev.map_or(0, |prev| {
                    prev.iter().zip(comps).take_while(|(a, b)| a == b).count()
                });
                let resolve_t = tele.start();
                end = state.namespace.resolve_chain(path, shared, &mut chain);
                tele.finish(Stage::Resolve, resolve_t);
                prev = Some(comps);
            }
            let walk = Walk {
                path,
                chain: &chain,
                end: &end,
            };
            decisions[idx] = Some(match end {
                Ok(node) => decided
                    .entry((node, *mode))
                    .or_insert_with(|| {
                        monitor.memoized(state, subject, &walk, *mode, Some(&mut visible))
                    })
                    .clone(),
                Err(_) => state.decide(subject, &walk, *mode, Some(&mut visible), tele, &mut ()),
            });
        }

        let decisions: Vec<Decision> = decisions
            .into_iter()
            .map(|d| d.expect("every batch item gets a decision"))
            .collect();
        if state.config.audit {
            let audit_t = tele.start();
            for ((path, mode), decision) in items.iter().zip(&decisions) {
                monitor
                    .audit
                    .record(subject, path, *mode, decision, state.generation.raw());
            }
            tele.finish(Stage::Audit, audit_t);
        }
        tele.finish(Stage::Check, whole);
        // Shadow mode: dual-evaluate every item of the batch against the
        // staged policy pinned in this same snapshot.
        if let Some(shadow) = state.shadow.as_deref() {
            for ((path, mode), decision) in items.iter().zip(&decisions) {
                monitor.record_shadow(shadow, subject, path, *mode, decision);
            }
        }
        decisions
    }

    fn require(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) -> Result<(), MonitorError> {
        self.check(subject, path, mode)
            .into_result()
            .map_err(MonitorError::Denied)
    }

    fn list(&self, subject: &Subject, path: &NsPath) -> Result<Vec<String>, MonitorError> {
        self.monitor.list_at(self.state, subject, path)
    }

    fn enter(&self, subject: &Subject, path: &NsPath) -> Result<Subject, MonitorError> {
        ReferenceMonitor::enter_at(self.state, subject, path)
    }

    fn protection_of(&self, path: &NsPath) -> Result<Protection, MonitorError> {
        let id = self.state.namespace.resolve(path)?;
        Ok(self.state.namespace.node(id)?.protection().clone())
    }
}

/// One pinned, immutable snapshot of the monitor's policy state — the
/// blessed entry point for the read side of the monitor API.
///
/// Every method reads the same snapshot, so a compound operation — check
/// then enter, list then per-item check — is atomic against concurrent
/// administration: either all of it sees the old policy or all of it sees
/// the new one, never a mix. Decisions still go through the shared
/// decision cache and audit log, and the monitor-level
/// `check`/`require`/`list`/`enter` are exactly these methods against a
/// freshly pinned snapshot.
///
/// When telemetry is enabled the view is one trace: it counts the
/// operations made through it and records its pin-to-drop lifetime in
/// the `view-span` histogram.
///
/// The view pins the snapshot for as long as it lives; drop it promptly
/// (writers fall back to cloning the state while any pin is held).
pub struct MonitorView<'m> {
    monitor: &'m ReferenceMonitor,
    state: Arc<State>,
    /// Trace start; `Some` only when telemetry was enabled at pin time.
    opened: Option<Instant>,
}

impl MonitorView<'_> {
    /// The shared read-API implementation against this view's snapshot.
    fn as_view_ref(&self) -> ViewRef<'_> {
        ViewRef {
            monitor: self.monitor,
            state: &self.state,
        }
    }

    /// Checks `subject`'s access against this snapshot (cached, audited).
    pub fn check(&self, subject: &Subject, path: &NsPath, mode: AccessMode) -> Decision {
        self.monitor.telemetry.count_view_op();
        self.as_view_ref().check(subject, path, mode)
    }

    /// Checks a whole batch against this snapshot in one vectorized pass:
    /// items are walked in path-sorted order so shared prefixes resolve
    /// once, visibility of interior nodes is proven once per node, and
    /// distinct `(node, mode)` pairs hit the decision cache exactly once.
    /// Returns one decision per item, in item order; audit records are
    /// also emitted in item order. Decision-for-decision identical to
    /// calling [`MonitorView::check`] on each item in sequence (the
    /// permutation-equivalence property is proptested in
    /// `tests/batch_equivalence.rs`).
    pub fn check_batch(&self, subject: &Subject, items: &[(NsPath, AccessMode)]) -> Vec<Decision> {
        for _ in items {
            self.monitor.telemetry.count_view_op();
        }
        self.as_view_ref().check_batch(subject, items)
    }

    /// Checks and converts to a `Result` in one step.
    pub fn require(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
    ) -> Result<(), MonitorError> {
        self.monitor.telemetry.count_view_op();
        self.as_view_ref().require(subject, path, mode)
    }

    /// Returns the subject as it enters the code object at `path` (see
    /// [`ReferenceMonitor::enter`]), resolved against this snapshot.
    pub fn enter(&self, subject: &Subject, path: &NsPath) -> Result<Subject, MonitorError> {
        self.monitor.telemetry.count_view_op();
        self.as_view_ref().enter(subject, path)
    }

    /// Lists the children of the container at `path`; requires `list`.
    pub fn list(&self, subject: &Subject, path: &NsPath) -> Result<Vec<String>, MonitorError> {
        self.monitor.telemetry.count_view_op();
        self.as_view_ref().list(subject, path)
    }

    /// The configuration this snapshot was published with.
    pub fn config(&self) -> MonitorConfig {
        self.state.config
    }

    /// Runs `f` with read access to this snapshot's principal directory.
    /// Unlike [`ReferenceMonitor::directory`], repeated calls through one
    /// view always see the same membership state.
    pub fn directory<R>(&self, f: impl FnOnce(&Directory) -> R) -> R {
        f(&self.state.directory)
    }

    /// Runs `f` with read access to this snapshot's security lattice.
    pub fn lattice<R>(&self, f: impl FnOnce(&Lattice) -> R) -> R {
        f(&self.state.lattice)
    }

    /// The protection record of the node at `path` in this snapshot (TCB
    /// inspection; not access-checked).
    pub fn protection_of(&self, path: &NsPath) -> Result<Protection, MonitorError> {
        self.as_view_ref().protection_of(path)
    }

    /// Decides against this snapshot with nothing recorded — uncached,
    /// unaudited, untimed — reporting each step of the rule to `steps`.
    pub(crate) fn decide_with(
        &self,
        subject: &Subject,
        path: &NsPath,
        mode: AccessMode,
        steps: &mut impl Steps,
    ) -> Decision {
        self.state.decide_unrecorded(subject, path, mode, steps)
    }
}

impl Drop for MonitorView<'_> {
    fn drop(&mut self) {
        // Close the trace: the span from pin to drop, recorded only when
        // telemetry was already enabled when the view was opened.
        self.monitor
            .telemetry
            .finish(Stage::ViewSpan, self.opened.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsec_acl::ModeSet;

    fn p(s: &str) -> NsPath {
        s.parse().unwrap()
    }

    /// Standard fixture: lattice low<high with one category, two
    /// principals, and `/svc/fs/read` with alice granted `rx`.
    fn fixture() -> (Arc<ReferenceMonitor>, PrincipalId, PrincipalId) {
        let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice);
        let alice = builder.add_principal("alice").unwrap();
        let bob = builder.add_principal("bob").unwrap();
        let monitor = builder.build();
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
                let read = ns.insert(
                    &p("/svc/fs"),
                    "read",
                    NodeKind::Procedure,
                    Protection::default(),
                )?;
                ns.update_protection(read, |prot| {
                    prot.acl.push(AclEntry::allow_principal_modes(
                        alice,
                        ModeSet::parse("rx").unwrap(),
                    ));
                })?;
                Ok(())
            })
            .unwrap();
        (monitor, alice, bob)
    }

    fn low_subject(principal: PrincipalId, monitor: &ReferenceMonitor) -> Subject {
        Subject::new(
            principal,
            monitor.lattice(|l| l.parse_class("low").unwrap()),
        )
    }

    #[test]
    fn dac_grants_and_denies() {
        let (monitor, alice, bob) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        assert_eq!(
            monitor.check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::DacNoEntry)
        );
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Extend),
            Decision::Deny(DenyReason::DacNoEntry)
        );
    }

    #[test]
    fn mac_denies_read_up() {
        let (monitor, alice, _) = fixture();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        // Raise the object label to high; alice (low) can no longer read.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| prot.label = high.clone())?;
                Ok(())
            })
            .unwrap();
        let alice_low = low_subject(alice, &monitor);
        assert_eq!(
            monitor.check(&alice_low, &p("/svc/fs/read"), AccessMode::Read),
            Decision::Deny(DenyReason::MacFlow)
        );
        // At high, the read is fine again.
        let alice_high = alice_low.with_class(high);
        assert!(monitor
            .check(&alice_high, &p("/svc/fs/read"), AccessMode::Read)
            .allowed());
    }

    #[test]
    fn traversal_requires_visibility() {
        let (monitor, alice, _) = fixture();
        // Hide /svc from everyone (empty ACL).
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc"))?;
                ns.update_protection(id, |prot| prot.acl = Acl::new())?;
                Ok(())
            })
            .unwrap();
        let alice_s = low_subject(alice, &monitor);
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::NotVisibleDac(p("/svc")))
        );
        // With visibility checking off, the access goes through again.
        let mut config = monitor.config();
        config.check_visibility = false;
        monitor.set_config(config);
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
    }

    #[test]
    fn traversal_mac_visibility() {
        let (monitor, alice, _) = fixture();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc"))?;
                ns.update_protection(id, |prot| prot.label = high.clone())?;
                Ok(())
            })
            .unwrap();
        let alice_s = low_subject(alice, &monitor);
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::NotVisibleMac(p("/svc")))
        );
    }

    #[test]
    fn missing_paths_report_prefix() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/net/send"), AccessMode::Execute),
            Decision::Deny(DenyReason::NotFound(p("/svc/net")))
        );
    }

    #[test]
    fn batch_check_matches_sequential_per_item() {
        let (monitor, alice, bob) = fixture();
        // Widen the fixture with a sibling service and a hidden subtree so
        // the batch exercises allow, DAC deny, MAC deny, visibility deny,
        // and not-found in one pass.
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&p("/svc/net"), NodeKind::Domain, &visible)?;
                let send = ns.insert(
                    &p("/svc/net"),
                    "send",
                    NodeKind::Procedure,
                    Protection::default(),
                )?;
                ns.update_protection(send, |prot| {
                    prot.acl.push(AclEntry::allow_principal_modes(
                        alice,
                        ModeSet::parse("x").unwrap(),
                    ));
                    prot.label = high.clone();
                })?;
                ns.ensure_path(&p("/hidden/sub"), NodeKind::Domain, &Protection::default())?;
                Ok(())
            })
            .unwrap();
        let items: Vec<(NsPath, AccessMode)> = vec![
            (p("/svc/fs/read"), AccessMode::Execute),
            (p("/svc/net/send"), AccessMode::Execute),
            (p("/svc/fs/read"), AccessMode::Execute), // duplicate
            (p("/hidden/sub"), AccessMode::Read),     // invisible prefix
            (p("/svc/missing"), AccessMode::Read),    // not found
            (p("/svc/missing/deeper"), AccessMode::Read),
            (p("/svc/fs/read/x/y"), AccessMode::Read), // through a leaf
            (p("/svc/fs/read"), AccessMode::Read),     // same node, new mode
            (p("/svc/fs"), AccessMode::List),          // shared prefix, shorter
        ];
        // The cache-off configuration runs the same sorted pass, minus
        // the shared cache.
        for decision_cache in [true, false] {
            let mut config = monitor.config();
            config.decision_cache = decision_cache;
            monitor.set_config(config);
            let cached = monitor.cache_stats();
            for subject in [low_subject(alice, &monitor), low_subject(bob, &monitor)] {
                let view = monitor.view();
                let batch = view.check_batch(&subject, &items);
                let sequential: Vec<Decision> = items
                    .iter()
                    .map(|(path, mode)| view.check(&subject, path, *mode))
                    .collect();
                assert_eq!(batch, sequential);
            }
            let after = monitor.cache_stats();
            assert_eq!(after.misses > cached.misses, decision_cache);
        }
    }

    #[test]
    fn guarded_create_requires_write_on_parent() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let err = monitor
            .create(
                &alice_s,
                &p("/svc/fs"),
                "write",
                NodeKind::Procedure,
                Protection::default(),
            )
            .unwrap_err();
        assert_eq!(err, MonitorError::Denied(DenyReason::DacNoEntry));
        // Grant write-append on the parent and retry.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs"))?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::WriteAppend));
                })?;
                Ok(())
            })
            .unwrap();
        let id = monitor
            .create(
                &alice_s,
                &p("/svc/fs"),
                "write",
                NodeKind::Procedure,
                Protection::default(),
            )
            .unwrap();
        assert!(monitor.inspect(|ns| ns.node(id).is_ok()));
    }

    #[test]
    fn guarded_remove_requires_delete() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let err = monitor.remove(&alice_s, &p("/svc/fs/read")).unwrap_err();
        assert_eq!(err, MonitorError::Denied(DenyReason::DacNoEntry));
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::Delete));
                })?;
                Ok(())
            })
            .unwrap();
        monitor.remove(&alice_s, &p("/svc/fs/read")).unwrap();
        assert!(monitor.inspect(|ns| ns.resolve(&p("/svc/fs/read")).is_err()));
    }

    #[test]
    fn administrate_gates_acl_changes() {
        let (monitor, alice, bob) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        let entry = AclEntry::allow_principal(bob, AccessMode::Execute);
        // Bob cannot grant himself access.
        assert!(matches!(
            monitor.acl_push(&bob_s, &p("/svc/fs/read"), entry),
            Err(MonitorError::Denied(_))
        ));
        // Give alice administrate; she can.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::Administrate));
                })?;
                Ok(())
            })
            .unwrap();
        monitor
            .acl_push(&alice_s, &p("/svc/fs/read"), entry)
            .unwrap();
        assert!(monitor
            .check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
    }

    #[test]
    fn set_label_requires_domination_of_new_label() {
        let (monitor, alice, _) = fixture();
        let high = monitor.lattice(|l| l.parse_class("high").unwrap());
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::Administrate));
                })?;
                Ok(())
            })
            .unwrap();
        let alice_low = low_subject(alice, &monitor);
        // Low subject cannot label an object high.
        assert_eq!(
            monitor.set_label(&alice_low, &p("/svc/fs/read"), high.clone()),
            Err(MonitorError::Denied(DenyReason::MacFlow))
        );
        // At high... administrate maps to ObserveAndModify which needs
        // class equality with the (bottom) object, so relabel from the
        // object's own class.
        let alice_bottom = alice_low.with_class(SecurityClass::bottom());
        monitor
            .set_label(&alice_bottom, &p("/svc/fs/read"), SecurityClass::bottom())
            .unwrap();
    }

    #[test]
    fn enter_caps_at_static_class() {
        let (monitor, alice, _) = fixture();
        let low = monitor.lattice(|l| l.parse_class("low").unwrap());
        let high = monitor.lattice(|l| l.parse_class("high:{c0}").unwrap());
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| prot.static_class = Some(low.clone()))?;
                Ok(())
            })
            .unwrap();
        let alice_high = Subject::new(alice, high);
        let entered = monitor.enter(&alice_high, &p("/svc/fs/read")).unwrap();
        assert_eq!(entered.class, low);
        // No static class: unchanged.
        let entered = monitor.enter(&alice_high, &p("/svc/fs")).unwrap();
        assert_eq!(entered.class, alice_high.class);
    }

    #[test]
    fn audit_records_checks() {
        let (monitor, alice, bob) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        monitor.check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute);
        assert_eq!(monitor.audit().len(), 2);
        assert_eq!(monitor.audit().denials().len(), 1);
        // Disabling audit stops recording.
        let mut config = monitor.config();
        config.audit = false;
        monitor.set_config(config);
        monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        assert_eq!(monitor.audit().len(), 2);
    }

    #[test]
    fn cache_hits_on_repeat_checks() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let before = monitor.cache_stats();
        monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        let after = monitor.cache_stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.hits - before.hits, 2);
        // Audit saw every check, hit or miss.
        assert_eq!(monitor.audit().len(), 3);
    }

    #[test]
    fn cache_never_serves_across_revocation() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        // Warm the cache with the grant.
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        // Revoke via the TCB path; the generation bump invalidates.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| prot.acl = Acl::new())?;
                Ok(())
            })
            .unwrap();
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::DacNoEntry)
        );
    }

    #[test]
    fn cache_keys_on_recycled_node_epoch() {
        let (monitor, alice, bob) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        // Warm an allow for alice on /svc/fs/read.
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        // Replace the node: remove it and insert a same-named node that
        // instead grants bob. The arena recycles the slot.
        monitor
            .bootstrap(|ns| {
                let old = ns.resolve(&p("/svc/fs/read"))?;
                ns.remove_id(old)?;
                let new = ns.insert(
                    &p("/svc/fs"),
                    "read",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_principal(bob, AccessMode::Execute)]),
                        SecurityClass::bottom(),
                    ),
                )?;
                assert_eq!(new, old, "slot must be recycled for this test");
                Ok(())
            })
            .unwrap();
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::DacNoEntry)
        );
        assert!(monitor
            .check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
    }

    #[test]
    fn cache_knob_off_bypasses_cache() {
        let (monitor, alice, _) = fixture();
        let mut config = monitor.config();
        config.decision_cache = false;
        monitor.set_config(config);
        let alice_s = low_subject(alice, &monitor);
        let before = monitor.cache_stats();
        let first = monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        let second = monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute);
        assert_eq!(first, second);
        let after = monitor.cache_stats();
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.entries, 0);
    }

    #[test]
    fn group_membership_edits_invalidate() {
        let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
        let mut builder = MonitorBuilder::new(lattice);
        let carol = builder.add_principal("carol").unwrap();
        let staff = builder.add_group("staff").unwrap();
        let monitor = builder.build();
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&p("/svc"), NodeKind::Domain, &visible)?;
                ns.insert(
                    &p("/svc"),
                    "op",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_group(staff, AccessMode::Execute)]),
                        SecurityClass::bottom(),
                    ),
                )?;
                Ok(())
            })
            .unwrap();
        let carol_s = low_subject(carol, &monitor);
        // Not a member yet: denied (and cached).
        assert!(!monitor
            .check(&carol_s, &p("/svc/op"), AccessMode::Execute)
            .allowed());
        assert!(!monitor
            .check(&carol_s, &p("/svc/op"), AccessMode::Execute)
            .allowed());
        // Join the group; the cached denial must not survive.
        monitor.directory_mut(|d| d.add_member(staff, carol).unwrap());
        assert!(monitor
            .check(&carol_s, &p("/svc/op"), AccessMode::Execute)
            .allowed());
    }

    #[test]
    fn list_requires_list_mode() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        // /svc/fs is publicly listable in the fixture.
        assert_eq!(monitor.list(&alice_s, &p("/svc/fs")).unwrap(), vec!["read"]);
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs"))?;
                ns.update_protection(id, |prot| prot.acl = Acl::new())?;
                Ok(())
            })
            .unwrap();
        assert!(matches!(
            monitor.list(&alice_s, &p("/svc/fs")),
            Err(MonitorError::Denied(DenyReason::DacNoEntry))
        ));
    }

    #[test]
    fn create_validates_label_against_lattice() {
        let (monitor, alice, _) = fixture();
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs"))?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::WriteAppend));
                })?;
                Ok(())
            })
            .unwrap();
        let alice_s = low_subject(alice, &monitor);
        let foreign = Lattice::build(["a", "b", "c", "d", "e"], Vec::<String>::new()).unwrap();
        let _ = &foreign;
        let bad_label = SecurityClass::at_level(extsec_mac::TrustLevel::from_rank(42));
        let err = monitor
            .create(
                &alice_s,
                &p("/svc/fs"),
                "bad",
                NodeKind::Procedure,
                Protection::new(Acl::new(), bad_label),
            )
            .unwrap_err();
        assert!(matches!(err, MonitorError::Lattice(_)));
    }

    /// A view reads one consistent snapshot: a republish between its
    /// steps does not leak into it, and a fresh view sees the new state.
    #[test]
    fn view_is_atomic_across_republish() {
        let (monitor, alice, _) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let view = monitor.view();
        assert!(view
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        // Revoke behind the view's back.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs/read"))?;
                ns.update_protection(id, |prot| prot.acl = Acl::new())?;
                Ok(())
            })
            .unwrap();
        // The old view still answers from its snapshot (and its compound
        // steps agree with each other)...
        assert!(view
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        assert!(view.enter(&alice_s, &p("/svc/fs/read")).is_ok());
        drop(view);
        // ...while a fresh view (and the monitor itself) see the new policy.
        assert_eq!(
            monitor
                .view()
                .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::DacNoEntry)
        );
        assert_eq!(
            monitor.check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute),
            Decision::Deny(DenyReason::DacNoEntry)
        );
    }

    /// The cached and unmemoized paths name the same denied prefix deep
    /// in a hierarchy.
    #[test]
    fn cached_and_unmemoized_name_the_same_prefix() {
        let (monitor, alice, _) = fixture();
        monitor
            .bootstrap(|ns| {
                let visible = Protection::new(
                    Acl::public(ModeSet::only(AccessMode::List)),
                    SecurityClass::bottom(),
                );
                ns.ensure_path(&p("/svc/deep/a/b"), NodeKind::Domain, &visible)?;
                ns.insert(
                    &p("/svc/deep/a/b"),
                    "leaf",
                    NodeKind::Procedure,
                    Protection::new(
                        Acl::from_entries([AclEntry::allow_principal(alice, AccessMode::Execute)]),
                        SecurityClass::bottom(),
                    ),
                )?;
                Ok(())
            })
            .unwrap();
        let alice_s = low_subject(alice, &monitor);
        let leaf = p("/svc/deep/a/b/leaf");
        assert!(monitor
            .check(&alice_s, &leaf, AccessMode::Execute)
            .allowed());
        // Hide an interior level; both paths must name it.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/deep/a"))?;
                ns.update_protection(id, |prot| prot.acl = Acl::new())?;
                Ok(())
            })
            .unwrap();
        let expected = Decision::Deny(DenyReason::NotVisibleDac(p("/svc/deep/a")));
        assert_eq!(
            monitor.check(&alice_s, &leaf, AccessMode::Execute),
            expected
        );
        assert_eq!(
            monitor.check_unmemoized(&alice_s, &leaf, AccessMode::Execute),
            expected
        );
    }

    // ------------------------------------------------------------------
    // Policy bundle lifecycle: stage → shadow → activate → rollback.
    // ------------------------------------------------------------------

    #[test]
    fn bundle_stage_and_activate_applies_atomically() {
        let (monitor, alice, bob) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        assert!(!monitor
            .check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        let staged = monitor
            .stage_bundle(
                "bundle \"grant-bob\" version 1 base current;\n\
                 acl-add /svc/fs/read \"+bob:x\";",
            )
            .unwrap();
        assert_eq!(staged.ops, 1);
        // Staging alone changes nothing.
        assert!(!monitor
            .check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        let generation = monitor.activate_bundle(staged.id).unwrap();
        assert_eq!(monitor.cache_stats().generation, generation);
        assert!(monitor
            .check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        // The bundle is consumed and the pre-activation snapshot banked.
        let status = monitor.bundle_status();
        assert!(status.staged.is_empty());
        assert_eq!(status.history, 1);
        assert_eq!(status.active, generation);
        // Replaying the consumed handle is refused.
        assert_eq!(
            monitor.activate_bundle(staged.id),
            Err(BundleError::UnknownBundle(staged.id))
        );
    }

    #[test]
    fn bundle_base_conflict_refuses_stale_diff() {
        let (monitor, alice, _) = fixture();
        let staged = monitor
            .stage_bundle(
                "bundle \"stale\" version 1 base current;\n\
                 acl-add /svc/fs/read \"+bob:x\";",
            )
            .unwrap();
        // Another mutation lands in between: the bundle's base is stale.
        monitor
            .bootstrap(|ns| {
                let id = ns.resolve(&p("/svc/fs"))?;
                ns.update_protection(id, |prot| {
                    prot.acl
                        .push(AclEntry::allow_principal(alice, AccessMode::List));
                })?;
                Ok(())
            })
            .unwrap();
        let err = monitor.activate_bundle(staged.id).unwrap_err();
        assert!(matches!(err, BundleError::BaseConflict { expected, .. }
            if expected == staged.base));
        // Shadowing a stale bundle is refused the same way, and the
        // bundle stays staged for the operator to restage.
        assert!(matches!(
            monitor.shadow_bundle(staged.id, true),
            Err(BundleError::BaseConflict { .. })
        ));
        let status = monitor.bundle_status();
        assert_eq!(status.staged.len(), 1);
        assert_eq!(status.history, 0);
    }

    #[test]
    fn bundle_stage_rejects_unknown_targets() {
        let (monitor, _, _) = fixture();
        // Unknown path.
        let err = monitor
            .stage_bundle(
                "bundle \"bad\" version 1 base current;\n\
                 set-label /no/such/node high;",
            )
            .unwrap_err();
        assert!(matches!(err, BundleError::Compile { line: 2, .. }));
        // Unknown class.
        let err = monitor
            .stage_bundle(
                "bundle \"bad\" version 1 base current;\n\
                 set-label /svc/fs/read cosmic;",
            )
            .unwrap_err();
        assert!(matches!(err, BundleError::Compile { line: 2, .. }));
        // Unknown principal in an ACL.
        let err = monitor
            .stage_bundle(
                "bundle \"bad\" version 1 base current;\n\
                 acl-add /svc/fs/read \"+mallory:x\";",
            )
            .unwrap_err();
        assert!(matches!(err, BundleError::Compile { line: 2, .. }));
        // Nothing half-staged.
        assert!(monitor.bundle_status().staged.is_empty());
    }

    #[test]
    fn rollback_restores_prior_decision_surface() {
        let (monitor, alice, bob) = fixture();
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        let items: Vec<(NsPath, AccessMode)> = vec![
            (p("/svc/fs/read"), AccessMode::Execute),
            (p("/svc/fs/read"), AccessMode::Read),
            (p("/svc/fs"), AccessMode::List),
        ];
        let surface = |m: &ReferenceMonitor| -> Vec<String> {
            [&alice_s, &bob_s]
                .iter()
                .flat_map(|s| {
                    items
                        .iter()
                        .map(|(path, mode)| format!("{:?}", m.check(s, path, *mode)))
                })
                .collect()
        };
        let before = surface(&monitor);
        let staged = monitor
            .stage_bundle(
                "bundle \"swap\" version 1 base current;\n\
                 set-acl /svc/fs/read \"+bob:x\";",
            )
            .unwrap();
        monitor.activate_bundle(staged.id).unwrap();
        let after = surface(&monitor);
        assert_ne!(before, after, "the bundle must actually change decisions");
        // Rollback restores every decision byte-for-byte.
        monitor.rollback().unwrap();
        assert_eq!(surface(&monitor), before);
        // One activation banked one snapshot; the ring is now empty.
        assert_eq!(monitor.rollback(), Err(BundleError::NoHistory));
    }

    #[test]
    fn shadow_counts_flips_without_changing_enforcement() {
        let (monitor, alice, bob) = fixture();
        monitor.telemetry().set_enabled(true);
        let alice_s = low_subject(alice, &monitor);
        let bob_s = low_subject(bob, &monitor);
        let staged = monitor
            .stage_bundle(
                "bundle \"swap\" version 1 base current;\n\
                 set-acl /svc/fs/read \"+bob:x\";",
            )
            .unwrap();
        monitor.shadow_bundle(staged.id, true).unwrap();
        // Shadow mode must not bump the cache generation: warm entries
        // stay valid and the enforced fast path is untouched.
        assert_eq!(monitor.cache_stats().generation, staged.base);
        // Enforced outcomes are exactly the active policy's.
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        assert!(!monitor
            .check(&bob_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
        let status = monitor.bundle_status();
        let report = status.shadow.expect("shadow mode is on");
        assert_eq!(report.bundle, staged.id);
        assert_eq!(report.checks, 2);
        assert_eq!(report.allow_to_deny, 1);
        assert_eq!(report.deny_to_allow, 1);
        assert_eq!(report.flips.len(), 2);
        // The hub carries the same totals.
        let tele = monitor.telemetry_snapshot();
        assert_eq!(tele.shadow_checks, 2);
        assert_eq!(tele.shadow_allow_to_deny, 1);
        assert_eq!(tele.shadow_deny_to_allow, 1);
        // Batch checks feed the same accumulators.
        let view = monitor.view();
        view.check_batch(&alice_s, &[(p("/svc/fs/read"), AccessMode::Execute)]);
        drop(view);
        assert_eq!(monitor.bundle_status().shadow.unwrap().checks, 3);
        // Turning shadow off clears the report; the staged bundle and the
        // enforced policy are untouched.
        monitor.shadow_bundle(staged.id, false).unwrap();
        assert!(monitor.bundle_status().shadow.is_none());
        assert_eq!(monitor.bundle_status().staged.len(), 1);
        assert!(monitor
            .check(&alice_s, &p("/svc/fs/read"), AccessMode::Execute)
            .allowed());
    }

    #[test]
    fn rollback_ring_is_bounded() {
        let (monitor, _, _) = fixture();
        for i in 0..(ROLLBACK_RING + 3) {
            let staged = monitor
                .stage_bundle(&format!(
                    "bundle \"b{i}\" version {} base current;\n\
                     acl-add /svc/fs/read \"+bob:x\";",
                    i + 1
                ))
                .unwrap();
            monitor.activate_bundle(staged.id).unwrap();
        }
        assert_eq!(monitor.bundle_status().history, ROLLBACK_RING);
    }
}
