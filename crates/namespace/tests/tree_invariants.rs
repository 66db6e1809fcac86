//! Property tests: arbitrary operation sequences keep the name-space
//! tree structurally sound.

use extsec_namespace::{NameSpace, NodeId, NodeKind, NsError, NsPath, Protection};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert { parent: usize, name: u8 },
    Remove { victim: usize },
    Ensure { a: u8, b: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64, 0u8..6).prop_map(|(parent, name)| Op::Insert { parent, name }),
        (0usize..64).prop_map(|victim| Op::Remove { victim }),
        (0u8..4, 0u8..4).prop_map(|(a, b)| Op::Ensure { a, b }),
    ]
}

/// Every name an op can give a node.
fn names() -> impl Iterator<Item = String> {
    (0..6)
        .map(|i| format!("n{i}"))
        .chain((0..4).map(|i| format!("e{i}")))
}

/// Resolution the slow way, from `node().children()` alone: what
/// `resolve_chain` must return and leave in its chain.
fn walk_children(ns: &NameSpace, path: &NsPath) -> (Result<NodeId, NsError>, Vec<NodeId>) {
    let mut chain = vec![NodeId::ROOT];
    for (i, name) in path.components().enumerate() {
        let node = ns.node(*chain.last().unwrap()).unwrap();
        if !node.kind().is_container() {
            return (Err(NsError::NotAContainer(path.prefix(i))), chain);
        }
        match node.children().get(name) {
            Some(&child) => chain.push(child),
            None => return (Err(NsError::NotFound(path.prefix(i + 1))), chain),
        }
    }
    (Ok(*chain.last().unwrap()), chain)
}

/// Applies an op, choosing targets from the current population so most
/// operations hit live nodes.
fn apply(ns: &mut NameSpace, op: &Op) {
    let nodes = ns.walk();
    match op {
        Op::Insert { parent, name } => {
            let (_, parent_path) = &nodes[parent % nodes.len()];
            let _ = ns.insert(
                parent_path,
                &format!("n{name}"),
                if name % 2 == 0 {
                    NodeKind::Directory
                } else {
                    NodeKind::Object
                },
                Protection::default(),
            );
        }
        Op::Remove { victim } => {
            let (_, victim_path) = &nodes[victim % nodes.len()];
            let _ = ns.remove(victim_path);
        }
        Op::Ensure { a, b } => {
            let path: NsPath = format!("/e{a}/e{b}").parse().unwrap();
            let _ = ns.ensure_path(&path, NodeKind::Directory, &Protection::default());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn structure_survives_random_operations(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut ns = NameSpace::default();
        for op in &ops {
            apply(&mut ns, op);

            // Invariant 1: every walked (id, path) resolves back to
            // itself, and path_of inverts resolve.
            let walked = ns.walk();
            for (id, path) in &walked {
                prop_assert_eq!(ns.resolve(path), Ok(*id));
                prop_assert_eq!(&ns.path_of(*id).unwrap(), path);
            }

            // Invariant 2: walk covers exactly `len` live nodes and
            // starts at the root.
            prop_assert_eq!(walked.len(), ns.len());
            prop_assert_eq!(&walked[0].1, &NsPath::root());

            // Invariant 3: children agree with parent pointers.
            for (id, _) in &walked {
                let node = ns.node(*id).unwrap();
                for (name, &child) in node.children() {
                    let child_node = ns.node(child).unwrap();
                    prop_assert_eq!(child_node.parent(), Some(*id));
                    prop_assert_eq!(child_node.name(), name.as_str());
                }
            }

            // Invariant 4: the index answers as a walk over the children
            // does, on every live path, every name an op can create under
            // every container (so every removed path whose parent lives)
            // and one component past every leaf.
            let mut probes = Vec::new();
            for (id, path) in &walked {
                probes.push(path.clone());
                if ns.node(*id).unwrap().kind().is_container() {
                    probes.extend(names().map(|name| path.join(&name).unwrap()));
                } else {
                    probes.push(path.join("n0").unwrap());
                }
            }
            let mut chain = Vec::new();
            for path in &probes {
                let (end, expected) = walk_children(&ns, path);
                prop_assert_eq!(&ns.resolve(path), &end, "resolve {}", path);
                prop_assert_eq!(&ns.resolve_chain(path, &mut chain), &end, "resolve_chain {}", path);
                prop_assert_eq!(&chain, &expected, "chain of {}", path);
            }
        }
    }

    #[test]
    fn removed_ids_stay_dead(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut ns = NameSpace::default();
        let mut dead: Vec<(extsec_namespace::NodeId, NsPath)> = Vec::new();
        for op in &ops {
            if let Op::Remove { victim } = op {
                let nodes = ns.walk();
                let (id, path) = nodes[victim % nodes.len()].clone();
                if ns.remove(&path).is_ok() {
                    dead.push((id, path));
                }
                continue;
            }
            apply(&mut ns, op);
            // Ids may be recycled, but a dead path either stays gone or
            // names a *different* live node (fresh insert); resolving it
            // must never produce an inconsistency.
            for (_, path) in &dead {
                match ns.resolve(path) {
                    Ok(new_id) => {
                        prop_assert_eq!(&ns.path_of(new_id).unwrap(), path);
                    }
                    Err(NsError::NotFound(_)) | Err(NsError::NotAContainer(_)) => {}
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("unexpected {other}")));
                    }
                }
            }
        }
    }
}
