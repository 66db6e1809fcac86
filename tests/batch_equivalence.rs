//! Batch-check equivalence: a batch decides exactly what checking its
//! items one by one decides.
//!
//! [`check_batch`](extsec::ReferenceMonitor::check_batch) checks every
//! item, in order, against one pinned snapshot, so its only observable
//! difference from single checks is that no policy change lands between
//! two of its items. This suite holds it to that:
//!
//! - against a pinned view, the batch decisions must be *byte-identical*
//!   (full `Debug` form, not just the allow bit) to checking each item
//!   sequentially on the same view;
//! - permuting the batch must permute the answers and nothing else;
//! - both properties must survive an administrator revoking permissions
//!   and relabeling nodes concurrently — the pinned snapshot, not the
//!   mutating namespace, is the truth both paths answer from.

use extsec::{
    AccessMode, Acl, AclEntry, Lattice, ModeSet, MonitorBuilder, NodeKind, NsPath, PrincipalId,
    Protection, ReferenceMonitor, SecurityClass, Subject,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// The path universe: shared prefixes at several depths, an invisible
/// subtree (no List on `/vault`), a high-labeled leaf, duplicates of
/// everything via repeated indices, and a path that never exists.
const PATHS: [&str; 9] = [
    "/svc",
    "/svc/fs",
    "/svc/fs/read",
    "/svc/fs/write",
    "/svc/net/send",
    "/vault",
    "/vault/key",
    "/obj/file",
    "/svc/missing/leaf",
];

const MODES: [AccessMode; 4] = [
    AccessMode::Read,
    AccessMode::Write,
    AccessMode::Execute,
    AccessMode::List,
];

fn p(s: &str) -> NsPath {
    s.parse().unwrap()
}

struct World {
    monitor: Arc<ReferenceMonitor>,
    principals: Vec<PrincipalId>,
    low: SecurityClass,
    high: SecurityClass,
}

fn build_world() -> World {
    let lattice = Lattice::build(["low", "high"], ["c0"]).unwrap();
    let mut builder = MonitorBuilder::new(lattice.clone());
    let principals: Vec<PrincipalId> = (0..2)
        .map(|i| builder.add_principal(format!("p{i}")).unwrap())
        .collect();
    let monitor = builder.build();
    let low = SecurityClass::bottom();
    let high = lattice.parse_class("high:{c0}").unwrap();
    monitor
        .bootstrap(|ns| {
            let visible = Protection::new(
                Acl::public(ModeSet::parse("rl").unwrap()),
                SecurityClass::bottom(),
            );
            ns.ensure_path(&p("/svc/fs"), NodeKind::Domain, &visible)?;
            ns.ensure_path(&p("/svc/net"), NodeKind::Domain, &visible)?;
            ns.ensure_path(&p("/obj"), NodeKind::Directory, &visible)?;
            // An opaque container: no List for anyone, so everything
            // under it is invisible to subjects that check visibility.
            ns.ensure_path(
                &p("/vault"),
                NodeKind::Directory,
                &Protection::new(Acl::new(), SecurityClass::bottom()),
            )?;
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
                    Acl::public(ModeSet::only(AccessMode::Write)),
                    SecurityClass::bottom(),
                ),
            )?;
            // High-labeled leaf: readable only by subjects that dominate.
            ns.insert(
                &p("/svc/net"),
                "send",
                NodeKind::Procedure,
                Protection::new(Acl::public(ModeSet::parse("rwx").unwrap()), high.clone()),
            )?;
            ns.insert(
                &p("/vault"),
                "key",
                NodeKind::Object,
                Protection::new(Acl::public(ModeSet::parse("r").unwrap()), high.clone()),
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
        low,
        high,
    }
}

impl World {
    fn subject(&self, who: usize, high: bool) -> Subject {
        let class = if high {
            self.high.clone()
        } else {
            self.low.clone()
        };
        Subject::new(self.principals[who % self.principals.len()], class)
    }
}

/// Argsorts `keys` into a permutation — avoids depending on a shuffle
/// combinator while still drawing arbitrary orders from proptest.
fn permutation_from_keys(keys: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// Byte-identical comparison: the full Debug form of the decision, so a
/// divergence in the *reason* (deny cause, prefix) fails even when the
/// allow bit happens to match.
fn render(decisions: &[extsec::refmon::Decision]) -> Vec<String> {
    decisions.iter().map(|d| format!("{d:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any batch over the path universe and any permutation of it:
    /// the batch path answers exactly what sequential checks on the same
    /// pinned view answer, and permuting the items permutes the answers.
    #[test]
    fn batch_matches_sequential_and_permutation_commutes(
        raw in vec((0..PATHS.len(), 0..MODES.len()), 1..48),
        keys in vec(any::<u64>(), 48),
        who in 0..2usize,
        high in any::<bool>(),
    ) {
        let world = build_world();
        let subject = world.subject(who, high);
        let items: Vec<(NsPath, AccessMode)> = raw
            .iter()
            .map(|&(path, mode)| (p(PATHS[path]), MODES[mode]))
            .collect();

        // Permute, check, un-permute: the answers must follow the items.
        let order = permutation_from_keys(&keys[..items.len()]);
        let permuted: Vec<(NsPath, AccessMode)> =
            order.iter().map(|&i| items[i].clone()).collect();
        let (sequential, batch, permuted_batch) = world.monitor.view(|view| {
            let sequential: Vec<_> = items
                .iter()
                .map(|(path, mode)| view.check(&subject, path, *mode))
                .collect();
            let batch = view.check_batch(&subject, &items);
            (sequential, batch, view.check_batch(&subject, &permuted))
        });
        prop_assert_eq!(render(&sequential), render(&batch));

        let mut unpermuted = vec![None; items.len()];
        for (slot, &i) in order.iter().enumerate() {
            unpermuted[i] = Some(format!("{:?}", permuted_batch[slot]));
        }
        let unpermuted: Vec<String> = unpermuted.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(render(&batch), unpermuted);
    }
}

/// The same equivalence while an administrator revokes and relabels in a
/// tight loop: each pinned view must stay internally consistent — batch
/// and sequential answers byte-identical on every iteration — no matter
/// where the mutator is between publications.
#[test]
fn batch_matches_sequential_under_concurrent_revocation() {
    let world = build_world();
    let monitor = Arc::clone(&world.monitor);
    let admin_target = p("/svc/fs/write");
    let relabel_target = p("/svc/net/send");
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let mutator = {
        let monitor = Arc::clone(&monitor);
        let stop = Arc::clone(&stop);
        let high = world.high.clone();
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                flip = !flip;
                let grant = flip;
                let label_high = flip;
                let high = high.clone();
                monitor
                    .bootstrap(|ns| {
                        let id = ns.resolve(&admin_target)?;
                        ns.update_protection(id, |prot| {
                            prot.acl = if grant {
                                Acl::public(ModeSet::only(AccessMode::Write))
                            } else {
                                Acl::new()
                            };
                        })?;
                        let id = ns.resolve(&relabel_target)?;
                        ns.update_protection(id, |prot| {
                            prot.label = if label_high {
                                high.clone()
                            } else {
                                SecurityClass::bottom()
                            };
                        })
                    })
                    .unwrap();
            }
        })
    };

    let items: Vec<(NsPath, AccessMode)> = PATHS
        .iter()
        .flat_map(|path| MODES.iter().map(move |mode| (p(path), *mode)))
        .collect();
    let reversed: Vec<(NsPath, AccessMode)> = items.iter().rev().cloned().collect();

    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(400);
    let mut iterations = 0u32;
    while std::time::Instant::now() < deadline || iterations < 16 {
        for &(who, high) in &[(0usize, false), (1usize, true)] {
            let subject = world.subject(who, high);
            monitor.view(|view| {
                let sequential: Vec<_> = items
                    .iter()
                    .map(|(path, mode)| view.check(&subject, path, *mode))
                    .collect();
                let batch = view.check_batch(&subject, &items);
                assert_eq!(
                    render(&sequential),
                    render(&batch),
                    "batch diverged from sequential on a pinned view (iteration {iterations})"
                );
                let reversed_batch = view.check_batch(&subject, &reversed);
                let rerendered: Vec<String> = reversed_batch
                    .iter()
                    .rev()
                    .map(|d| format!("{d:?}"))
                    .collect();
                assert_eq!(
                    render(&batch),
                    rerendered,
                    "reversed batch disagreed on a pinned view (iteration {iterations})"
                );
            });
        }
        iterations += 1;
    }

    stop.store(true, std::sync::atomic::Ordering::Release);
    mutator.join().unwrap();
    assert!(iterations >= 16);
}
