//! The campaign vocabulary and its text codec.
//!
//! A [`Campaign`] is a fully replayable artifact: world spec, explorer
//! seed, optional fault storm, optional planted mutants, the invariant
//! the campaign is expected to violate (if any), and the operation
//! list. The text form (`Campaign::to_text`/`Campaign::parse`) is what
//! `tests/corpus/` checks in, so every past violation stays a
//! regression test a human can read.

use crate::invariant::Invariant;
use crate::world::WorldSpec;
use extsec_core::{AccessMode, FaultAction, FaultPlan, ModeSet};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

/// One campaign step. Entities are addressed by index into the world's
/// grow-only vectors; replay wraps indices (`i % len`), so an operation
/// survives minimization removing the steps that created its target —
/// it may be blunted into a no-op, never into a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Register a fresh principal (joins `everyone` and a department).
    AddPrincipal,
    /// Add principal `principal` to department group `group`.
    Join {
        /// Principal index.
        principal: usize,
        /// Department group index.
        group: usize,
    },
    /// Remove principal `principal` from department group `group`.
    Leave {
        /// Principal index.
        principal: usize,
        /// Department group index.
        group: usize,
    },
    /// Create a fresh leaf under a domain with a palette class (TCB).
    Create {
        /// Domain index.
        domain: usize,
        /// Palette class index.
        class: usize,
    },
    /// Remove a leaf from the namespace (TCB).
    Remove {
        /// Leaf index.
        leaf: usize,
    },
    /// Append a positive ACL entry for a principal (TCB grant).
    Grant {
        /// Leaf index.
        leaf: usize,
        /// Principal index.
        principal: usize,
        /// Modes granted.
        modes: ModeSet,
    },
    /// Append a negative ACL entry for a principal (TCB).
    Forbid {
        /// Leaf index.
        leaf: usize,
        /// Principal index.
        principal: usize,
        /// Modes denied.
        modes: ModeSet,
    },
    /// The *guarded* revocation: the administrator replaces the leaf's
    /// ACL with every entry mentioning the principal removed, through
    /// [`set_acl`](extsec_core::ReferenceMonitor::set_acl). On success
    /// the revocation ledger records the expected ACL — the stale-grant
    /// invariant's ground truth.
    Revoke {
        /// Leaf index.
        leaf: usize,
        /// Principal index whose direct entries are removed.
        principal: usize,
    },
    /// Hide a domain from a principal: append a negative `list` entry
    /// for the principal to the domain's ACL (TCB), so every leaf under
    /// it is out of the principal's sight.
    Hide {
        /// Domain index.
        domain: usize,
        /// Principal index.
        principal: usize,
    },
    /// Relabel a leaf to a palette class (TCB).
    Relabel {
        /// Leaf index.
        leaf: usize,
        /// Palette class index.
        class: usize,
    },
    /// Load a calm or hostile extension owned by a principal.
    Install {
        /// Owner principal index.
        owner: usize,
        /// Hostile extensions spin until the fuel meter traps them.
        hostile: bool,
    },
    /// Load a memory-hog extension owned by a principal; its dispatches
    /// are checked against the resource-bounds invariant.
    InstallHog {
        /// Owner principal index.
        owner: usize,
    },
    /// Dispatch an installed extension as its owner; checked against
    /// the quarantine-bypass invariant.
    RunExt {
        /// Extension index.
        ext: usize,
    },
    /// Advance the health ledger's logical clock.
    Clock {
        /// Milliseconds to advance.
        ms: u64,
    },
    /// A probed check: batch vs single checks of the same snapshot, MAC
    /// flow and visibility re-derivation, and the revocation ledger.
    Check {
        /// Principal index.
        principal: usize,
        /// Leaf index.
        leaf: usize,
        /// Access mode requested.
        mode: AccessMode,
    },
    /// A full policy-bundle lifecycle against one (leaf, principal)
    /// pair: stage a one-edit diff granting the principal read on the
    /// leaf, shadow it across a probe, activate, probe, then roll back.
    BundleCycle {
        /// Leaf index.
        leaf: usize,
        /// Principal index the staged diff grants.
        principal: usize,
    },
    /// A 3-thread concurrent burst of the same check against a fixed
    /// oracle check — the F9 lock-free read path under campaign load.
    Burst {
        /// Principal index.
        principal: usize,
        /// Leaf index.
        leaf: usize,
        /// Access mode requested.
        mode: AccessMode,
    },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::AddPrincipal => write!(f, "add-principal"),
            Op::Join { principal, group } => write!(f, "join principal={principal} group={group}"),
            Op::Leave { principal, group } => {
                write!(f, "leave principal={principal} group={group}")
            }
            Op::Create { domain, class } => write!(f, "create domain={domain} class={class}"),
            Op::Remove { leaf } => write!(f, "remove leaf={leaf}"),
            Op::Grant {
                leaf,
                principal,
                modes,
            } => write!(
                f,
                "grant leaf={leaf} principal={principal} modes={}",
                modes.symbols()
            ),
            Op::Forbid {
                leaf,
                principal,
                modes,
            } => write!(
                f,
                "forbid leaf={leaf} principal={principal} modes={}",
                modes.symbols()
            ),
            Op::Revoke { leaf, principal } => {
                write!(f, "revoke leaf={leaf} principal={principal}")
            }
            Op::Hide { domain, principal } => {
                write!(f, "hide domain={domain} principal={principal}")
            }
            Op::Relabel { leaf, class } => write!(f, "relabel leaf={leaf} class={class}"),
            Op::Install { owner, hostile } => {
                write!(f, "install owner={owner} hostile={hostile}")
            }
            Op::InstallHog { owner } => write!(f, "install-hog owner={owner}"),
            Op::RunExt { ext } => write!(f, "run ext={ext}"),
            Op::Clock { ms } => write!(f, "clock ms={ms}"),
            Op::BundleCycle { leaf, principal } => {
                write!(f, "bundle leaf={leaf} principal={principal}")
            }
            Op::Check {
                principal,
                leaf,
                mode,
            } => write!(
                f,
                "check principal={principal} leaf={leaf} mode={}",
                mode.symbol()
            ),
            Op::Burst {
                principal,
                leaf,
                mode,
            } => write!(
                f,
                "burst principal={principal} leaf={leaf} mode={}",
                mode.symbol()
            ),
        }
    }
}

fn fields(words: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {word:?}"))?;
        map.insert(key.to_string(), value.to_string());
    }
    Ok(map)
}

fn want_usize(map: &HashMap<String, String>, key: &str) -> Result<usize, String> {
    map.get(key)
        .ok_or_else(|| format!("missing {key}"))?
        .parse()
        .map_err(|e| format!("bad {key}: {e}"))
}

fn want_mode(map: &HashMap<String, String>, key: &str) -> Result<AccessMode, String> {
    let raw = map.get(key).ok_or_else(|| format!("missing {key}"))?;
    let c = raw.chars().next().ok_or_else(|| format!("empty {key}"))?;
    AccessMode::from_symbol(c).ok_or_else(|| format!("unknown mode {raw:?}"))
}

fn want_modes(map: &HashMap<String, String>, key: &str) -> Result<ModeSet, String> {
    let raw = map.get(key).ok_or_else(|| format!("missing {key}"))?;
    ModeSet::parse(raw).ok_or_else(|| format!("unknown modes {raw:?}"))
}

impl FromStr for Op {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let words: Vec<&str> = s.split_whitespace().collect();
        let (head, rest) = words.split_first().ok_or("empty op")?;
        let map = fields(rest)?;
        match *head {
            "add-principal" => Ok(Op::AddPrincipal),
            "join" => Ok(Op::Join {
                principal: want_usize(&map, "principal")?,
                group: want_usize(&map, "group")?,
            }),
            "leave" => Ok(Op::Leave {
                principal: want_usize(&map, "principal")?,
                group: want_usize(&map, "group")?,
            }),
            "create" => Ok(Op::Create {
                domain: want_usize(&map, "domain")?,
                class: want_usize(&map, "class")?,
            }),
            "remove" => Ok(Op::Remove {
                leaf: want_usize(&map, "leaf")?,
            }),
            "grant" => Ok(Op::Grant {
                leaf: want_usize(&map, "leaf")?,
                principal: want_usize(&map, "principal")?,
                modes: want_modes(&map, "modes")?,
            }),
            "forbid" => Ok(Op::Forbid {
                leaf: want_usize(&map, "leaf")?,
                principal: want_usize(&map, "principal")?,
                modes: want_modes(&map, "modes")?,
            }),
            "revoke" => Ok(Op::Revoke {
                leaf: want_usize(&map, "leaf")?,
                principal: want_usize(&map, "principal")?,
            }),
            "hide" => Ok(Op::Hide {
                domain: want_usize(&map, "domain")?,
                principal: want_usize(&map, "principal")?,
            }),
            "relabel" => Ok(Op::Relabel {
                leaf: want_usize(&map, "leaf")?,
                class: want_usize(&map, "class")?,
            }),
            "install" => Ok(Op::Install {
                owner: want_usize(&map, "owner")?,
                hostile: map.get("hostile").map(|v| v == "true").unwrap_or(false),
            }),
            "install-hog" => Ok(Op::InstallHog {
                owner: want_usize(&map, "owner")?,
            }),
            "run" => Ok(Op::RunExt {
                ext: want_usize(&map, "ext")?,
            }),
            "clock" => Ok(Op::Clock {
                ms: want_usize(&map, "ms")? as u64,
            }),
            "bundle" => Ok(Op::BundleCycle {
                leaf: want_usize(&map, "leaf")?,
                principal: want_usize(&map, "principal")?,
            }),
            "check" => Ok(Op::Check {
                principal: want_usize(&map, "principal")?,
                leaf: want_usize(&map, "leaf")?,
                mode: want_mode(&map, "mode")?,
            }),
            "burst" => Ok(Op::Burst {
                principal: want_usize(&map, "principal")?,
                leaf: want_usize(&map, "leaf")?,
                mode: want_mode(&map, "mode")?,
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// A seeded random fault storm riding along with a campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Storm {
    /// The storm's fault-plan seed.
    pub seed: u64,
    /// Firing probability per fault-point hit, out of 1024.
    pub rate: u32,
}

/// A planted mutant: a named fail-open bug (a `fire_mutant` point)
/// armed for one specific hit or for every hit of its tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutant {
    /// The mutant point's tag, e.g. `refmon.set_acl.apply`.
    pub tag: String,
    /// Fire at this 0-based hit only, or at every hit when `None`.
    pub nth: Option<u64>,
}

/// Mutant tags must be `'static` for the fault plan; corpus files carry
/// them as strings. Known tags map to their static spellings and novel
/// ones are interned once per process.
fn intern_tag(tag: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "refmon.set_acl.apply",
        "ext.admit.bypass",
        "vm.mem.limit_skip",
        "audit.drain.uncounted_loss",
        "refmon.visibility.skip",
    ];
    if let Some(known) = KNOWN.iter().find(|k| **k == tag) {
        return known;
    }
    static EXTRA: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut extra = EXTRA.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(found) = extra.iter().find(|k| **k == tag) {
        return found;
    }
    let leaked: &'static str = Box::leak(tag.to_owned().into_boxed_str());
    extra.push(leaked);
    leaked
}

/// A fully replayable campaign: world, seed, fault configuration, and
/// the step list. `to_text`/`parse` round-trip exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Campaign {
    /// The world the campaign runs in.
    pub spec: WorldSpec,
    /// The explorer seed that generated the ops (provenance; replay
    /// does not consult it).
    pub seed: u64,
    /// The fault storm, if any.
    pub storm: Option<Storm>,
    /// Planted mutants, if any.
    pub mutants: Vec<Mutant>,
    /// The invariant this campaign violates, if it is a violating one.
    pub expect: Option<Invariant>,
    /// The step list.
    pub ops: Vec<Op>,
}

impl Campaign {
    /// The fault plan this campaign runs under: storm rate plus scripted
    /// mutant entries. `None` when the campaign is fault-free.
    pub fn build_plan(&self) -> Option<FaultPlan> {
        if self.storm.is_none() && self.mutants.is_empty() {
            return None;
        }
        let mut plan = FaultPlan::seeded(self.storm.map(|s| s.seed).unwrap_or(0));
        if let Some(storm) = self.storm {
            plan = plan.rate(storm.rate).actions(&[
                FaultAction::Error,
                FaultAction::Trap,
                FaultAction::Panic,
            ]);
        }
        for mutant in &self.mutants {
            let tag = intern_tag(&mutant.tag);
            plan = match mutant.nth {
                Some(nth) => plan.at(tag, nth, FaultAction::Error),
                None => plan.always(tag, FaultAction::Error),
            };
        }
        Some(plan)
    }

    /// Serializes the campaign to its corpus text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# extsec campaign (format v1)\n");
        out.push_str(&format!("world {}\n", self.spec));
        out.push_str(&format!("seed {}\n", self.seed));
        if let Some(storm) = self.storm {
            out.push_str(&format!("storm seed={} rate={}\n", storm.seed, storm.rate));
        }
        for mutant in &self.mutants {
            match mutant.nth {
                Some(nth) => out.push_str(&format!("mutant tag={} nth={nth}\n", mutant.tag)),
                None => out.push_str(&format!("mutant tag={} nth=all\n", mutant.tag)),
            }
        }
        if let Some(expect) = self.expect {
            out.push_str(&format!("expect {expect}\n"));
        }
        for op in &self.ops {
            out.push_str(&format!("op {op}\n"));
        }
        out
    }

    /// Parses the corpus text form. Blank lines and `#` comments are
    /// ignored.
    pub fn parse(text: &str) -> Result<Campaign, String> {
        let mut spec = None;
        let mut seed = 0;
        let mut storm = None;
        let mut mutants = Vec::new();
        let mut expect = None;
        let mut ops = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |e: String| format!("line {}: {e}", lineno + 1);
            let (head, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match head {
                "world" => spec = Some(rest.parse::<WorldSpec>().map_err(err)?),
                "seed" => seed = rest.parse::<u64>().map_err(|e| err(e.to_string()))?,
                "storm" => {
                    let words: Vec<&str> = rest.split_whitespace().collect();
                    let map = fields(&words).map_err(err)?;
                    storm = Some(Storm {
                        seed: want_usize(&map, "seed").map_err(err)? as u64,
                        rate: want_usize(&map, "rate").map_err(err)? as u32,
                    });
                }
                "mutant" => {
                    let words: Vec<&str> = rest.split_whitespace().collect();
                    let map = fields(&words).map_err(err)?;
                    let tag = map
                        .get("tag")
                        .ok_or_else(|| err("missing tag".into()))?
                        .clone();
                    let nth = match map.get("nth").map(String::as_str) {
                        None | Some("all") => None,
                        Some(n) => Some(n.parse::<u64>().map_err(|e| err(e.to_string()))?),
                    };
                    mutants.push(Mutant { tag, nth });
                }
                "expect" => expect = Some(rest.parse::<Invariant>().map_err(err)?),
                "op" => ops.push(rest.parse::<Op>().map_err(err)?),
                other => return Err(format!("line {}: unknown directive {other:?}", lineno + 1)),
            }
        }
        Ok(Campaign {
            spec: spec.ok_or("campaign has no world line")?,
            seed,
            storm,
            mutants,
            expect,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use extsec_core::AccessMode;

    #[test]
    fn ops_round_trip_through_text() {
        let ops = vec![
            Op::AddPrincipal,
            Op::Join {
                principal: 3,
                group: 1,
            },
            Op::Grant {
                leaf: 2,
                principal: 4,
                modes: ModeSet::parse("rwx").unwrap(),
            },
            Op::Revoke {
                leaf: 2,
                principal: 4,
            },
            Op::Hide {
                domain: 1,
                principal: 4,
            },
            Op::Check {
                principal: 4,
                leaf: 2,
                mode: AccessMode::Read,
            },
            Op::Burst {
                principal: 1,
                leaf: 0,
                mode: AccessMode::Execute,
            },
            Op::Install {
                owner: 0,
                hostile: true,
            },
            Op::InstallHog { owner: 2 },
            Op::RunExt { ext: 0 },
            Op::Clock { ms: 500 },
            Op::BundleCycle {
                leaf: 3,
                principal: 1,
            },
        ];
        for op in ops {
            let text = op.to_string();
            assert_eq!(text.parse::<Op>().unwrap(), op, "{text}");
        }
    }

    #[test]
    fn campaigns_round_trip_through_text() {
        let campaign = Campaign {
            spec: WorldSpec::campus(5),
            seed: 42,
            storm: Some(Storm { seed: 7, rate: 24 }),
            mutants: vec![Mutant {
                tag: "refmon.set_acl.apply".into(),
                nth: None,
            }],
            expect: Some(Invariant::StaleGrant),
            ops: vec![
                Op::Grant {
                    leaf: 1,
                    principal: 2,
                    modes: ModeSet::parse("rx").unwrap(),
                },
                Op::Revoke {
                    leaf: 1,
                    principal: 2,
                },
                Op::Check {
                    principal: 2,
                    leaf: 1,
                    mode: AccessMode::Read,
                },
            ],
        };
        let text = campaign.to_text();
        let parsed = Campaign::parse(&text).unwrap();
        assert_eq!(parsed, campaign);
        assert_eq!(parsed.to_text(), text);
    }
}
