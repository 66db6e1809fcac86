//! The directory against a model of itself: group closure as a naive
//! fixpoint over plain membership lists, on a directory and on a clone
//! edited apart from it, and the serialized form pinned byte for byte.

use extsec_acl::{Directory, DirectoryError, GroupId, PrincipalId};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PRINCIPALS: u32 = 8;
const GROUPS: usize = 6;

/// One directory edit, by principal and group index.
#[derive(Clone, Copy, Debug)]
enum Op {
    AddMember(usize, u32),
    RemoveMember(usize, u32),
    AddSubgroup(usize, usize),
    RemoveSubgroup(usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..4, 0..GROUPS, 0..PRINCIPALS).prop_map(|(kind, g, b)| {
        let child = b as usize % GROUPS;
        match kind {
            0 => Op::AddMember(g, b),
            1 => Op::RemoveMember(g, b),
            2 => Op::AddSubgroup(g, child),
            _ => Op::RemoveSubgroup(g, child),
        }
    })
}

/// Plain membership lists, kept apart from any `Directory`.
#[derive(Clone, Default)]
struct Model {
    members: [Vec<u32>; GROUPS],
    subgroups: [Vec<usize>; GROUPS],
}

/// Removes `x` from `list`; returns whether it was there.
fn remove<T: PartialEq>(list: &mut Vec<T>, x: &T) -> bool {
    let before = list.len();
    list.retain(|y| y != x);
    list.len() != before
}

impl Model {
    /// Each group's transitive principals, by iterating "a group holds
    /// what its subgroups hold" until nothing changes.
    fn closure(&self) -> [BTreeSet<u32>; GROUPS] {
        let mut closure: [BTreeSet<u32>; GROUPS] =
            self.members.clone().map(|m| m.into_iter().collect());
        loop {
            let mut changed = false;
            for g in 0..GROUPS {
                for &s in &self.subgroups[g] {
                    for p in closure[s].clone() {
                        changed |= closure[g].insert(p);
                    }
                }
            }
            if !changed {
                return closure;
            }
        }
    }

    /// Whether `to` is `from` or nested in it at any depth, by the same
    /// fixpoint over subgroup lists.
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut reached = BTreeSet::from([from]);
        loop {
            let next: Vec<usize> = reached
                .iter()
                .flat_map(|&g| self.subgroups[g].iter().copied())
                .filter(|s| !reached.contains(s))
                .collect();
            if next.is_empty() {
                return reached.contains(&to);
            }
            reached.extend(next);
        }
    }
}

fn group(g: usize) -> GroupId {
    GroupId::from_raw(g as u32)
}

fn fresh() -> Directory {
    let mut dir = Directory::new();
    for p in 0..PRINCIPALS {
        assert_eq!(
            dir.add_principal(format!("p{p}")),
            Ok(PrincipalId::from_raw(p))
        );
    }
    for g in 0..GROUPS {
        assert_eq!(dir.add_group(format!("g{g}")), Ok(group(g)));
    }
    dir
}

/// Applies `op` to both, and requires the directory to answer as the
/// model says it must: a cycle refused, a removal reporting whether it
/// removed.
fn apply(dir: &mut Directory, model: &mut Model, op: Op) -> Result<(), TestCaseError> {
    match op {
        Op::AddMember(g, p) => {
            prop_assert_eq!(dir.add_member(group(g), PrincipalId::from_raw(p)), Ok(()));
            if !model.members[g].contains(&p) {
                model.members[g].push(p);
            }
        }
        Op::RemoveMember(g, p) => {
            let expected = remove(&mut model.members[g], &p);
            prop_assert_eq!(
                dir.remove_member(group(g), PrincipalId::from_raw(p)),
                Ok(expected)
            );
        }
        Op::AddSubgroup(parent, child) => {
            if model.reaches(child, parent) {
                prop_assert_eq!(
                    dir.add_subgroup(group(parent), group(child)),
                    Err(DirectoryError::MembershipCycle(group(parent), group(child)))
                );
            } else {
                prop_assert_eq!(dir.add_subgroup(group(parent), group(child)), Ok(()));
                if !model.subgroups[parent].contains(&child) {
                    model.subgroups[parent].push(child);
                }
            }
        }
        Op::RemoveSubgroup(parent, child) => {
            let expected = remove(&mut model.subgroups[parent], &child);
            prop_assert_eq!(
                dir.remove_subgroup(group(parent), group(child)),
                Ok(expected)
            );
        }
    }
    Ok(())
}

/// `is_member` and `groups_of` agree with the model's closure for every
/// principal and group.
fn agrees(dir: &Directory, model: &Model, which: &str) -> Result<(), TestCaseError> {
    let closure = model.closure();
    for p in 0..PRINCIPALS {
        let principal = PrincipalId::from_raw(p);
        for (g, held) in closure.iter().enumerate() {
            prop_assert_eq!(
                dir.is_member(principal, group(g)),
                held.contains(&p),
                "{} is_member(p{}, g{})",
                which,
                p,
                g
            );
        }
        let expected: BTreeSet<GroupId> = (0..GROUPS)
            .filter(|&g| closure[g].contains(&p))
            .map(group)
            .collect();
        prop_assert_eq!(
            dir.groups_of(principal),
            expected,
            "{} groups_of(p{})",
            which,
            p
        );
    }
    Ok(())
}

proptest! {
    /// Random edits on a directory, then on it and a clone taken midway,
    /// each with its own edits: after every step both answer every
    /// membership question as their models' fixpoints do. An edit that
    /// reached a table the two still shared would show on the other.
    #[test]
    fn membership_is_the_fixpoint_of_the_lists_on_a_directory_and_its_clone(
        before in proptest::collection::vec(arb_op(), 0..24),
        after in proptest::collection::vec(arb_op(), 0..24),
        on_clone in proptest::collection::vec(arb_op(), 0..24),
    ) {
        let mut dir = fresh();
        let mut model = Model::default();
        agrees(&dir, &model, "original")?;
        for op in before {
            apply(&mut dir, &mut model, op)?;
            agrees(&dir, &model, "original")?;
        }
        let mut copy = dir.clone();
        let mut copy_model = model.clone();
        agrees(&copy, &copy_model, "clone")?;
        for i in 0..after.len().max(on_clone.len()) {
            if let Some(&op) = after.get(i) {
                apply(&mut dir, &mut model, op)?;
            }
            if let Some(&op) = on_clone.get(i) {
                apply(&mut copy, &mut copy_model, op)?;
            }
            agrees(&dir, &model, "original")?;
            agrees(&copy, &copy_model, "clone")?;
        }
    }
}

/// A directory's JSON, pinned byte for byte: members were added out of
/// order, and `all` nests `staff`.
const GOLDEN: &str = concat!(
    r#"{"principals":[{"id":0,"name":"ann"},{"id":1,"name":"bo"},{"id":2,"name":"cy"},"#,
    r#"{"id":3,"name":"di"},{"id":4,"name":"ed"},{"id":5,"name":"flo"},"#,
    r#"{"id":6,"name":"gus"},{"id":7,"name":"hal"},{"id":8,"name":"ivy"},"#,
    r#"{"id":9,"name":"jo"},{"id":10,"name":"kit"},{"id":11,"name":"lu"}],"#,
    r#""groups":[{"id":0,"name":"staff","members":[0,2,4,5,7,9,10,11],"subgroups":[]},"#,
    r#"{"id":1,"name":"ops","members":[1,3,6],"subgroups":[]},"#,
    r#"{"id":2,"name":"all","members":[8],"subgroups":[0]}]}"#,
);

#[test]
fn a_directory_serializes_to_its_golden_json_and_back() {
    let mut dir = Directory::new();
    let names = [
        "ann", "bo", "cy", "di", "ed", "flo", "gus", "hal", "ivy", "jo", "kit", "lu",
    ];
    let ids: Vec<PrincipalId> = names
        .iter()
        .map(|n| dir.add_principal(*n).unwrap())
        .collect();
    let staff = dir.add_group("staff").unwrap();
    let ops = dir.add_group("ops").unwrap();
    let all = dir.add_group("all").unwrap();
    for i in [9, 2, 11, 0, 7, 4, 10, 5] {
        dir.add_member(staff, ids[i]).unwrap();
    }
    for i in [6, 1, 3] {
        dir.add_member(ops, ids[i]).unwrap();
    }
    dir.add_member(all, ids[8]).unwrap();
    dir.add_subgroup(all, staff).unwrap();

    let json = serde_json::to_string(&dir).unwrap();
    assert_eq!(json, GOLDEN);
    let back: Directory = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), GOLDEN);
    for &p in &ids {
        for g in [staff, ops, all] {
            assert_eq!(back.is_member(p, g), dir.is_member(p, g), "{p} in {g}");
        }
        assert_eq!(back.principal_by_name(&dir.principal_name(p)), Some(p));
    }
    assert!(back.is_member(ids[9], all));
    assert!(!back.is_member(ids[6], all));
}
