//! The guided campaign explorer.
//!
//! A seeded weighted walk over the op vocabulary, biased toward
//! (principal, leaf) pairs whose decisions recently flipped — the
//! neighbourhoods where revocation, relabel, and group churn interact
//! with the decision cache. Every generated op is recorded before it is
//! applied, so the instant a violation fires the [`Campaign`] in hand
//! replays it.

use crate::invariant::Violation;
use crate::op::{Campaign, Mutant, Op, Storm};
use crate::rng::Rng;
use crate::session::{Session, SessionStats};
use crate::world::WorldSpec;
use extsec_core::{AccessMode, FaultStats, ModeSet};

/// Explorer configuration: seed, step budget, and the fault environment.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Seed for the op-generation stream (independent of the world
    /// seed and the storm seed).
    pub seed: u64,
    /// Maximum ops to generate before declaring the campaign clean.
    pub steps: usize,
    /// Optional random fault storm to run the campaign under.
    pub storm: Option<Storm>,
    /// Planted mutants (scripted fail-open bugs) to arm.
    pub mutants: Vec<Mutant>,
}

impl ExploreConfig {
    /// A storm-free, mutant-free exploration.
    pub fn clean(seed: u64, steps: usize) -> Self {
        ExploreConfig {
            seed,
            steps,
            storm: None,
            mutants: Vec::new(),
        }
    }
}

/// What an exploration produced: the recorded campaign (its `expect`
/// field set iff a violation fired), the violation, the session's
/// counters, and the fault plan's injection stats.
#[derive(Debug)]
pub struct Outcome {
    /// The replayable campaign, ops up to and including the violating
    /// step.
    pub campaign: Campaign,
    /// The first violation detected, if any.
    pub violation: Option<Violation>,
    /// Probe/grant/denial/flip counters.
    pub stats: SessionStats,
    /// What the installed fault plan injected (zero when no plan).
    pub faults: FaultStats,
}

/// Runs one guided exploration of up to `cfg.steps` ops against a fresh
/// world built from `spec`. Deterministic: the same `(spec, cfg)` pair
/// reproduces the identical op sequence and outcome, byte for byte.
pub fn explore(spec: &WorldSpec, cfg: &ExploreConfig) -> Outcome {
    let mut campaign = Campaign {
        spec: spec.clone(),
        seed: cfg.seed,
        storm: cfg.storm,
        mutants: cfg.mutants.clone(),
        expect: None,
        ops: Vec::new(),
    };
    let plan = campaign.build_plan();
    let mut session = Session::start(spec, plan, cfg.storm.is_some());
    let mut rng = Rng::new(cfg.seed);
    let mut violation = None;
    for _ in 0..cfg.steps {
        let op = next_op(&mut rng, &session);
        campaign.ops.push(op.clone());
        if let Err(v) = session.apply(&op) {
            campaign.expect = Some(v.invariant);
            violation = Some(v);
            break;
        }
    }
    // Final audit sweep: the chain and its gap accounting must still
    // verify after the last op, not just at the periodic checkpoints.
    if violation.is_none() {
        if let Err(v) = session.check_audit() {
            campaign.expect = Some(v.invariant);
            violation = Some(v);
        }
    }
    let faults = session.finish();
    Outcome {
        campaign,
        violation,
        stats: session.stats,
        faults,
    }
}

/// Mode palettes for generated grants/forbids and checks.
const GRANT_MODES: [&str; 5] = ["r", "rx", "rwx", "x", "rl"];
const FORBID_MODES: [&str; 3] = ["w", "r", "x"];
const CLOCK_STEPS_MS: [u64; 4] = [50, 200, 500, 1000];

fn parse_modes(s: &str) -> ModeSet {
    ModeSet::parse(s).expect("static mode palette")
}

fn check_mode(rng: &mut Rng) -> AccessMode {
    // Observe-heavy, like real workloads; writes and lists keep the
    // lattice's other flow directions exercised.
    match rng.below(10) {
        0..=4 => AccessMode::Read,
        5..=7 => AccessMode::Execute,
        8 => AccessMode::Write,
        _ => AccessMode::List,
    }
}

/// Picks the (principal, leaf) focus for a probe-like op: half the
/// time a recently flipped pair from the session's hot ring, otherwise
/// uniform.
fn focus(rng: &mut Rng, session: &Session) -> (usize, usize) {
    if !session.hot.is_empty() && rng.chance(1, 2) {
        session.hot[rng.below(session.hot.len())]
    } else {
        (
            rng.below(session.world.principals.len()),
            rng.below(session.world.leaves.len()),
        )
    }
}

/// The weighted op generator. Weights favour checks (the invariant
/// surface), revocation/grant churn (the stale-grant surface), and
/// extension dispatch (the quarantine surface).
fn next_op(rng: &mut Rng, session: &Session) -> Op {
    let world = &session.world;
    // (cumulative-weight, op-kind) table; one draw picks the kind.
    const WEIGHTS: [(u32, u8); 17] = [
        (29, 0), // Check
        (1, 16), // Hide
        (12, 1), // Grant
        (12, 2), // Revoke
        (5, 3),  // Forbid
        (7, 4),  // Relabel
        (4, 5),  // Join
        (4, 6),  // Leave
        (4, 7),  // Create
        (2, 8),  // Remove
        (3, 9),  // Install
        (2, 15), // InstallHog
        (9, 10), // RunExt
        (4, 11), // Clock
        (3, 12), // Burst
        (2, 14), // BundleCycle
        (1, 13), // AddPrincipal
    ];
    let total: u32 = WEIGHTS.iter().map(|(w, _)| w).sum();
    let mut draw = (rng.next() % total as u64) as u32;
    let mut kind = 0u8;
    for (w, k) in WEIGHTS {
        if draw < w {
            kind = k;
            break;
        }
        draw -= w;
    }
    match kind {
        0 => {
            let (principal, leaf) = focus(rng, session);
            Op::Check {
                principal,
                leaf,
                mode: check_mode(rng),
            }
        }
        1 => {
            let (principal, leaf) = focus(rng, session);
            Op::Grant {
                leaf,
                principal,
                modes: parse_modes(GRANT_MODES[rng.below(GRANT_MODES.len())]),
            }
        }
        2 => {
            // Prefer revoking a principal the leaf actually grants:
            // a meaty revocation seeds the ledger, a vacuous one is a
            // no-op.
            let leaf = rng.below(world.leaves.len());
            let granted = world.granted_principals(&world.leaves[leaf]);
            let principal = if granted.is_empty() {
                rng.below(world.principals.len())
            } else {
                granted[rng.below(granted.len())]
            };
            Op::Revoke { leaf, principal }
        }
        3 => {
            let (principal, leaf) = focus(rng, session);
            Op::Forbid {
                leaf,
                principal,
                modes: parse_modes(FORBID_MODES[rng.below(FORBID_MODES.len())]),
            }
        }
        4 => Op::Relabel {
            leaf: rng.below(world.leaves.len()),
            class: rng.below(world.palette.len()),
        },
        5 => Op::Join {
            principal: rng.below(world.principals.len()),
            group: rng.below(world.depts.len()),
        },
        6 => Op::Leave {
            principal: rng.below(world.principals.len()),
            group: rng.below(world.depts.len()),
        },
        7 => Op::Create {
            domain: rng.below(world.domains.len()),
            class: rng.below(world.palette.len()),
        },
        8 => Op::Remove {
            leaf: rng.below(world.leaves.len()),
        },
        9 => Op::Install {
            owner: rng.below(world.principals.len()),
            hostile: rng.chance(1, 2),
        },
        16 => Op::Hide {
            domain: rng.below(world.domains.len()),
            principal: rng.below(world.principals.len()),
        },
        15 => Op::InstallHog {
            owner: rng.below(world.principals.len()),
        },
        10 => Op::RunExt {
            ext: rng.below(world.extensions.len().max(1)),
        },
        11 => Op::Clock {
            ms: CLOCK_STEPS_MS[rng.below(CLOCK_STEPS_MS.len())],
        },
        12 => {
            let (principal, leaf) = focus(rng, session);
            Op::Burst {
                principal,
                leaf,
                mode: check_mode(rng),
            }
        }
        14 => {
            let (principal, leaf) = focus(rng, session);
            Op::BundleCycle { leaf, principal }
        }
        _ => Op::AddPrincipal,
    }
}
