//! Per-extension health ledger and circuit breaker.
//!
//! The paper's central worry is an extension that misbehaves and must be
//! survived *without* trusting it to fail politely (§1.2 ThreadMurder).
//! Load-time verification and per-dispatch access checks bound what an
//! extension may touch, but nothing in the base model stops a faulting
//! extension from being re-dispatched forever. This module adds the
//! missing runtime mechanism: every dispatch outcome is recorded in a
//! ledger, and an extension that exceeds a configurable fault budget
//! within a sliding window is **quarantined** — a classic circuit
//! breaker, specialized to the extension runtime:
//!
//! * **Closed** (healthy): dispatches flow; faults are timestamped and
//!   pruned to the window. Reaching the budget trips the breaker.
//! * **Open** (quarantined): dispatch is refused with a typed
//!   [`QuarantineInfo`] carrying the tripping cause and a retry hint;
//!   the extension's specializations are unrouted, so calls fall back to
//!   the base service.
//! * **Half-open** (probation): after the cooldown, exactly one trial
//!   dispatch is admitted. Success closes the breaker and clears the
//!   ledger entry; another fault re-opens it with a fresh cooldown.
//!
//! The ledger is deliberately fail-closed: any state it cannot explain
//! refuses the dispatch rather than admitting it. When every extension
//! is healthy the ledger holds no entries and each gate is one relaxed
//! atomic load.
//!
//! Time is read from a monotonic base plus a manual offset so tests (and
//! operators replaying an incident) can advance the clock
//! deterministically with [`HealthLedger::advance`] instead of sleeping.

use crate::extension::ExtensionId;
use extsec_refmon::ExtFault;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Tuning knobs for the circuit breaker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Faults within [`window`](HealthConfig::window) that trip the
    /// breaker (a budget of 0 behaves like 1: the breaker always trips
    /// on a fault rather than never, keeping the knob fail-closed).
    pub fault_budget: u32,
    /// The sliding window faults are counted over.
    pub window: Duration,
    /// How long a quarantined extension waits before one probation
    /// trial is admitted.
    pub cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            fault_budget: 8,
            window: Duration::from_secs(30),
            cooldown: Duration::from_secs(5),
        }
    }
}

/// Why a dispatch was refused by the breaker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineInfo {
    /// The fault class that tripped the breaker.
    pub cause: ExtFault,
    /// How long until a probation trial will be admitted (zero when a
    /// trial is already in flight).
    pub retry_after: Duration,
}

/// How [`HealthLedger::admit`] admitted a dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admit {
    /// The extension is healthy; a normal dispatch.
    Normal,
    /// The cooldown elapsed; this dispatch is the one probation trial.
    Trial,
}

/// The breaker state of one extension, as reported to diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// No faults on record (or all aged out and the breaker is closed).
    Healthy,
    /// Quarantined; dispatch is refused until the cooldown elapses.
    Quarantined {
        /// The fault class that tripped the breaker.
        cause: ExtFault,
        /// Time until a probation trial is admitted.
        retry_after: Duration,
    },
    /// A probation trial is in flight; further dispatch is refused
    /// until it resolves.
    Probation {
        /// The fault class that tripped the breaker originally.
        cause: ExtFault,
    },
}

/// A diagnostic report of one extension's ledger entry — the `explain`
/// surface of the quarantine mechanism.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthReport {
    /// The extension.
    pub id: ExtensionId,
    /// Its breaker state.
    pub state: HealthState,
    /// Faults currently inside the sliding window, oldest first.
    pub recent_faults: Vec<ExtFault>,
    /// Faults recorded over the extension's lifetime.
    pub total_faults: u64,
    /// Times the breaker has tripped for this extension.
    pub trips: u64,
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.state {
            HealthState::Healthy => write!(f, "{}: healthy", self.id)?,
            HealthState::Quarantined { cause, retry_after } => write!(
                f,
                "{}: quarantined (cause: {cause}; probation in {}ms)",
                self.id,
                retry_after.as_millis()
            )?,
            HealthState::Probation { cause } => {
                write!(f, "{}: on probation (cause: {cause})", self.id)?
            }
        }
        write!(
            f,
            "; {} faults in window, {} lifetime, {} trips",
            self.recent_faults.len(),
            self.total_faults,
            self.trips
        )
    }
}

#[derive(Clone, Debug)]
enum Breaker {
    Closed,
    Open { since_ms: u64, cause: ExtFault },
    HalfOpen { cause: ExtFault },
}

#[derive(Debug)]
struct Entry {
    breaker: Breaker,
    /// `(timestamp ms, fault)` pairs, pruned to the window on record.
    faults: VecDeque<(u64, ExtFault)>,
    total: u64,
    trips: u64,
}

impl Entry {
    fn new() -> Self {
        Entry {
            breaker: Breaker::Closed,
            faults: VecDeque::new(),
            total: 0,
            trips: 0,
        }
    }
}

/// The per-extension health ledger. One instance per
/// [`ExtRuntime`](crate::ExtRuntime), shared by every dispatch.
pub struct HealthLedger {
    config: Mutex<HealthConfig>,
    entries: Mutex<BTreeMap<ExtensionId, Entry>>,
    /// Number of ledger entries; 0 means every gate is a no-op. Kept
    /// outside the map lock so the all-healthy fast path is one relaxed
    /// load.
    attention: AtomicUsize,
    base: Instant,
    /// Manual clock offset in milliseconds (see [`advance`]).
    ///
    /// [`advance`]: HealthLedger::advance
    skew_ms: AtomicU64,
}

impl HealthLedger {
    /// Creates an empty ledger.
    pub fn new(config: HealthConfig) -> Self {
        HealthLedger {
            config: Mutex::new(config),
            entries: Mutex::new(BTreeMap::new()),
            attention: AtomicUsize::new(0),
            base: Instant::now(),
            skew_ms: AtomicU64::new(0),
        }
    }

    /// Replaces the breaker configuration. Applies to subsequent
    /// recordings; existing breaker states are kept.
    pub fn set_config(&self, config: HealthConfig) {
        *self.config.lock() = config;
    }

    /// The current configuration.
    pub fn config(&self) -> HealthConfig {
        *self.config.lock()
    }

    /// Advances the ledger's clock by `d` without sleeping — the
    /// deterministic stand-in for waiting out a window or cooldown.
    pub fn advance(&self, d: Duration) {
        self.skew_ms
            .fetch_add(d.as_millis() as u64, Ordering::Relaxed);
    }

    fn now_ms(&self) -> u64 {
        self.base.elapsed().as_millis() as u64 + self.skew_ms.load(Ordering::Relaxed)
    }

    /// Whether the dispatcher may route calls to this extension's
    /// specializations. Quarantined extensions are unrouted; an
    /// extension whose cooldown has elapsed is routable again so the
    /// probation trial can happen through normal dispatch.
    pub fn route_allowed(&self, id: ExtensionId) -> bool {
        if self.attention.load(Ordering::Relaxed) == 0 {
            return true;
        }
        let entries = self.entries.lock();
        match entries.get(&id).map(|e| &e.breaker) {
            None | Some(Breaker::Closed) => true,
            Some(Breaker::Open { since_ms, .. }) => {
                let cooldown = self.config.lock().cooldown.as_millis() as u64;
                self.now_ms() >= since_ms.saturating_add(cooldown)
            }
            Some(Breaker::HalfOpen { .. }) => false,
        }
    }

    /// Gates one dispatch. `Ok(Admit::Normal)` for a healthy extension,
    /// `Ok(Admit::Trial)` when this dispatch is the single probation
    /// trial, `Err` when the extension is quarantined.
    pub fn admit(&self, id: ExtensionId) -> Result<Admit, QuarantineInfo> {
        if self.attention.load(Ordering::Relaxed) == 0 {
            return Ok(Admit::Normal);
        }
        let cooldown = self.config.lock().cooldown;
        let mut entries = self.entries.lock();
        let Some(entry) = entries.get_mut(&id) else {
            return Ok(Admit::Normal);
        };
        match entry.breaker.clone() {
            Breaker::Closed => Ok(Admit::Normal),
            Breaker::Open { since_ms, cause } => {
                let deadline = since_ms.saturating_add(cooldown.as_millis() as u64);
                let now = self.now_ms();
                if now < deadline {
                    Err(QuarantineInfo {
                        cause,
                        retry_after: Duration::from_millis(deadline - now),
                    })
                } else {
                    entry.breaker = Breaker::HalfOpen { cause };
                    Ok(Admit::Trial)
                }
            }
            Breaker::HalfOpen { cause } => Err(QuarantineInfo {
                cause,
                retry_after: Duration::ZERO,
            }),
        }
    }

    /// Records a successful dispatch. Returns `true` when this was a
    /// probation trial that re-admitted the extension (its ledger entry
    /// is cleared).
    pub fn record_success(&self, id: ExtensionId) -> bool {
        if self.attention.load(Ordering::Relaxed) == 0 {
            return false;
        }
        let mut entries = self.entries.lock();
        let readmitted = match entries.get(&id).map(|e| &e.breaker) {
            Some(Breaker::HalfOpen { .. }) => {
                entries.remove(&id);
                true
            }
            _ => false,
        };
        self.attention.store(entries.len(), Ordering::Relaxed);
        readmitted
    }

    /// Records one fault. Returns the tripping cause when this fault
    /// opened (or re-opened) the breaker — the caller's cue to count a
    /// quarantine and emit an audit event.
    pub fn record_fault(&self, id: ExtensionId, fault: ExtFault) -> Option<ExtFault> {
        let config = *self.config.lock();
        let mut entries = self.entries.lock();
        let entry = entries.entry(id).or_insert_with(Entry::new);
        let now = self.now_ms();
        entry.total += 1;
        entry.faults.push_back((now, fault));
        let window = config.window.as_millis() as u64;
        while entry
            .faults
            .front()
            .is_some_and(|(t, _)| now.saturating_sub(*t) > window)
        {
            entry.faults.pop_front();
        }
        let tripped = match entry.breaker {
            // A faulting probation trial goes straight back to
            // quarantine: the budget was already spent.
            Breaker::HalfOpen { .. } => true,
            Breaker::Closed => entry.faults.len() as u64 >= u64::from(config.fault_budget.max(1)),
            // Already quarantined (a racing dispatch admitted before the
            // trip): the fault is recorded but nothing re-trips.
            Breaker::Open { .. } => false,
        };
        if tripped {
            entry.breaker = Breaker::Open {
                since_ms: now,
                cause: fault,
            };
            entry.trips += 1;
        }
        self.attention.store(entries.len(), Ordering::Relaxed);
        tripped.then_some(fault)
    }

    /// Drops the ledger entry for `id` (an unloaded extension).
    pub fn forget(&self, id: ExtensionId) {
        let mut entries = self.entries.lock();
        entries.remove(&id);
        self.attention.store(entries.len(), Ordering::Relaxed);
    }

    /// The extensions currently quarantined or on probation.
    ///
    /// Allocates; telemetry loops that only need a tally should use
    /// [`HealthLedger::quarantined_count`].
    pub fn quarantined(&self) -> Vec<ExtensionId> {
        let entries = self.entries.lock();
        entries
            .iter()
            .filter(|(_, e)| !matches!(e.breaker, Breaker::Closed))
            .map(|(id, _)| *id)
            .collect()
    }

    /// How many extensions are currently quarantined or on probation —
    /// the allocation-free twin of [`HealthLedger::quarantined`]. A typed
    /// view kept for nsbench, to be deleted in the benchmark change that
    /// moves nsbench to the registry names.
    pub fn quarantined_count(&self) -> usize {
        if self.attention.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        let entries = self.entries.lock();
        entries
            .values()
            .filter(|e| !matches!(e.breaker, Breaker::Closed))
            .count()
    }

    /// The breaker state of `id` alone — the allocation-light probe for
    /// hot paths that do not need [`HealthLedger::report`]'s fault
    /// history (`HealthState` owns no heap). Unknown ids are healthy.
    pub fn state(&self, id: ExtensionId) -> HealthState {
        if self.attention.load(Ordering::Relaxed) == 0 {
            return HealthState::Healthy;
        }
        let cooldown = self.config.lock().cooldown.as_millis() as u64;
        let entries = self.entries.lock();
        match entries.get(&id).map(|e| &e.breaker) {
            None | Some(Breaker::Closed) => HealthState::Healthy,
            Some(Breaker::Open { since_ms, cause }) => {
                let deadline = since_ms.saturating_add(cooldown);
                HealthState::Quarantined {
                    cause: *cause,
                    retry_after: Duration::from_millis(deadline.saturating_sub(self.now_ms())),
                }
            }
            Some(Breaker::HalfOpen { cause }) => HealthState::Probation { cause: *cause },
        }
    }

    /// The diagnostic report for `id` — what `explain` shows for a
    /// quarantine decision. Unknown ids report healthy.
    pub fn report(&self, id: ExtensionId) -> HealthReport {
        let cooldown = self.config.lock().cooldown.as_millis() as u64;
        let entries = self.entries.lock();
        let Some(entry) = entries.get(&id) else {
            return HealthReport {
                id,
                state: HealthState::Healthy,
                recent_faults: Vec::new(),
                total_faults: 0,
                trips: 0,
            };
        };
        let state = match &entry.breaker {
            Breaker::Closed => HealthState::Healthy,
            Breaker::Open { since_ms, cause } => {
                let deadline = since_ms.saturating_add(cooldown);
                HealthState::Quarantined {
                    cause: *cause,
                    retry_after: Duration::from_millis(deadline.saturating_sub(self.now_ms())),
                }
            }
            Breaker::HalfOpen { cause } => HealthState::Probation { cause: *cause },
        };
        HealthReport {
            id,
            state,
            recent_faults: entry.faults.iter().map(|(_, f)| *f).collect(),
            total_faults: entry.total,
            trips: entry.trips,
        }
    }
}

impl fmt::Debug for HealthLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HealthLedger")
            .field("entries", &self.attention.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(budget: u32, window_ms: u64, cooldown_ms: u64) -> HealthConfig {
        HealthConfig {
            fault_budget: budget,
            window: Duration::from_millis(window_ms),
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    const ID: ExtensionId = ExtensionId::from_raw(0);

    #[test]
    fn healthy_extension_is_admitted_without_entries() {
        let ledger = HealthLedger::new(HealthConfig::default());
        assert_eq!(ledger.admit(ID), Ok(Admit::Normal));
        assert!(ledger.route_allowed(ID));
        assert!(!ledger.record_success(ID));
        assert_eq!(ledger.report(ID).state, HealthState::Healthy);
    }

    #[test]
    fn breaker_trips_at_the_budget() {
        let ledger = HealthLedger::new(config(3, 10_000, 1_000));
        assert_eq!(ledger.record_fault(ID, ExtFault::Trap), None);
        assert_eq!(ledger.record_fault(ID, ExtFault::Trap), None);
        assert_eq!(ledger.admit(ID), Ok(Admit::Normal), "under budget");
        assert_eq!(
            ledger.record_fault(ID, ExtFault::Fuel),
            Some(ExtFault::Fuel)
        );
        let refused = ledger.admit(ID).unwrap_err();
        assert_eq!(refused.cause, ExtFault::Fuel);
        assert!(refused.retry_after > Duration::ZERO);
        assert!(!ledger.route_allowed(ID), "specializations unrouted");
        assert_eq!(ledger.quarantined(), vec![ID]);
    }

    #[test]
    fn faults_age_out_of_the_window() {
        let ledger = HealthLedger::new(config(3, 1_000, 1_000));
        ledger.record_fault(ID, ExtFault::Trap);
        ledger.record_fault(ID, ExtFault::Trap);
        ledger.advance(Duration::from_millis(2_000));
        // The two old faults aged out; this third one starts fresh.
        assert_eq!(ledger.record_fault(ID, ExtFault::Trap), None);
        assert_eq!(ledger.admit(ID), Ok(Admit::Normal));
        assert_eq!(ledger.report(ID).recent_faults.len(), 1);
        assert_eq!(ledger.report(ID).total_faults, 3);
    }

    #[test]
    fn probation_admits_one_trial_after_cooldown() {
        let ledger = HealthLedger::new(config(1, 10_000, 500));
        ledger.record_fault(ID, ExtFault::Trap);
        assert!(ledger.admit(ID).is_err());
        ledger.advance(Duration::from_millis(600));
        assert!(ledger.route_allowed(ID), "routable again for the trial");
        assert_eq!(ledger.admit(ID), Ok(Admit::Trial));
        // While the trial is in flight, everyone else is refused.
        let refused = ledger.admit(ID).unwrap_err();
        assert_eq!(refused.retry_after, Duration::ZERO);
        assert!(matches!(
            ledger.report(ID).state,
            HealthState::Probation { .. }
        ));
        // Success closes the breaker and clears the entry.
        assert!(ledger.record_success(ID));
        assert_eq!(ledger.admit(ID), Ok(Admit::Normal));
        assert_eq!(ledger.report(ID).state, HealthState::Healthy);
        assert_eq!(ledger.quarantined(), Vec::<ExtensionId>::new());
    }

    #[test]
    fn faulting_trial_reopens_the_breaker() {
        let ledger = HealthLedger::new(config(1, 10_000, 500));
        ledger.record_fault(ID, ExtFault::Trap);
        ledger.advance(Duration::from_millis(600));
        assert_eq!(ledger.admit(ID), Ok(Admit::Trial));
        assert_eq!(
            ledger.record_fault(ID, ExtFault::HostPanic),
            Some(ExtFault::HostPanic),
            "a faulting trial re-trips"
        );
        let refused = ledger.admit(ID).unwrap_err();
        assert_eq!(refused.cause, ExtFault::HostPanic);
        assert_eq!(ledger.report(ID).trips, 2);
    }

    #[test]
    fn budget_zero_still_trips() {
        let ledger = HealthLedger::new(config(0, 1_000, 1_000));
        assert_eq!(
            ledger.record_fault(ID, ExtFault::Trap),
            Some(ExtFault::Trap)
        );
    }

    #[test]
    fn light_accessors_match_the_report() {
        let ledger = HealthLedger::new(config(1, 10_000, 500));
        assert_eq!(ledger.state(ID), HealthState::Healthy);
        assert_eq!(ledger.quarantined_count(), 0);
        ledger.record_fault(ID, ExtFault::Memory);
        assert!(matches!(
            ledger.state(ID),
            HealthState::Quarantined {
                cause: ExtFault::Memory,
                ..
            }
        ));
        assert!(matches!(
            ledger.report(ID).state,
            HealthState::Quarantined {
                cause: ExtFault::Memory,
                ..
            }
        ));
        assert_eq!(ledger.quarantined_count(), 1);
        assert_eq!(ledger.quarantined(), vec![ID]);
        ledger.advance(Duration::from_millis(600));
        assert_eq!(ledger.admit(ID), Ok(Admit::Trial));
        assert!(matches!(
            ledger.state(ID),
            HealthState::Probation {
                cause: ExtFault::Memory
            }
        ));
        assert_eq!(ledger.quarantined_count(), 1);
        ledger.record_success(ID);
        assert_eq!(ledger.state(ID), HealthState::Healthy);
        assert_eq!(ledger.quarantined_count(), 0);
    }

    #[test]
    fn forget_clears_state() {
        let ledger = HealthLedger::new(config(1, 1_000, 1_000));
        ledger.record_fault(ID, ExtFault::Trap);
        assert!(ledger.admit(ID).is_err());
        ledger.forget(ID);
        assert_eq!(ledger.admit(ID), Ok(Admit::Normal));
    }
}
