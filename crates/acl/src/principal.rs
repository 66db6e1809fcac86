//! Principals, groups, and the principal directory.
//!
//! "Their use of individuals and groups in combination with fully featured
//! access control lists has the potential to offer a flexible and powerful
//! mechanism" (§1). The [`Directory`] is the registry of both: principals
//! are individuals (users, or the principal a piece of code runs as), and
//! groups contain principals and other groups. Membership is transitive
//! through nested groups; the closure computation is cycle-safe.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// Identifier of a principal (an individual subject identity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct PrincipalId(u32);

impl PrincipalId {
    /// Creates a principal id from a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        PrincipalId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a group.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct GroupId(u32);

impl GroupId {
    /// Creates a group id from a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        GroupId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A registered principal.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Principal {
    /// The principal's id.
    pub id: PrincipalId,
    /// The principal's unique name.
    pub name: String,
}

/// A registered group: direct principal members plus nested subgroups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// The group's id.
    pub id: GroupId,
    /// The group's unique name.
    pub name: String,
    /// Direct principal members, so that a membership test is one
    /// keyed-hash probe. Serialized as the ascending list of ids.
    pub members: HashSet<PrincipalId>,
    /// Direct subgroup members.
    pub subgroups: BTreeSet<GroupId>,
}

impl Serialize for Group {
    fn serialize(&self) -> serde::Content {
        let mut members: Vec<PrincipalId> = self.members.iter().copied().collect();
        members.sort_unstable();
        serde::Content::Map(vec![
            ("id".to_string(), self.id.serialize()),
            ("name".to_string(), self.name.serialize()),
            ("members".to_string(), members.serialize()),
            ("subgroups".to_string(), self.subgroups.serialize()),
        ])
    }
}

impl Deserialize for Group {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let map = content.as_map().ok_or_else(|| {
            serde::Error::custom(format!("Group: expected map, got {}", content.kind()))
        })?;
        let members: Vec<PrincipalId> = serde::__field(map, "members")?;
        Ok(Group {
            id: serde::__field(map, "id")?,
            name: serde::__field(map, "name")?,
            members: members.into_iter().collect(),
            subgroups: serde::__field(map, "subgroups")?,
        })
    }
}

/// Errors from directory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirectoryError {
    /// A name was empty.
    EmptyName,
    /// The name is already taken (by a principal or group respectively).
    DuplicateName(String),
    /// The referenced principal does not exist.
    UnknownPrincipal(PrincipalId),
    /// The referenced group does not exist.
    UnknownGroup(GroupId),
    /// Adding the subgroup would create a membership cycle.
    MembershipCycle(GroupId, GroupId),
}

impl fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryError::EmptyName => write!(f, "name must not be empty"),
            DirectoryError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            DirectoryError::UnknownPrincipal(p) => write!(f, "unknown principal {p}"),
            DirectoryError::UnknownGroup(g) => write!(f, "unknown group {g}"),
            DirectoryError::MembershipCycle(a, b) => {
                write!(f, "adding {b} to {a} would create a cycle")
            }
        }
    }
}

impl std::error::Error for DirectoryError {}

/// The registry of principals and groups.
///
/// The tables sit behind `Arc`s that clones share: the monitor's
/// copy-on-write publish clones the directory on every write, and a
/// clone costs three pointers. A mutator copies the table it edits
/// when a clone still shares it (`Arc::make_mut`), and it validates
/// first, so a refused edit copies nothing.
///
/// # Examples
///
/// ```
/// use extsec_acl::Directory;
///
/// let mut dir = Directory::new();
/// let alice = dir.add_principal("alice").unwrap();
/// let eng = dir.add_group("eng").unwrap();
/// let all = dir.add_group("all").unwrap();
/// dir.add_member(eng, alice).unwrap();
/// dir.add_subgroup(all, eng).unwrap();
///
/// // Membership is transitive through nesting.
/// assert!(dir.is_member(alice, all));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    principals: Arc<Vec<Principal>>,
    groups: Arc<Vec<Group>>,
    /// Principal ids by the keyed hash of their names: the uniqueness
    /// index and [`Directory::principal_by_name`]'s answer. It holds no
    /// strings, so building and dropping it allocates nothing per
    /// principal: a hit is confirmed against `principals`, and a name
    /// whose hash an earlier name already holds is found by a scan.
    /// Kept out of the serialized form (the manual impls below rebuild
    /// it).
    principal_names: Arc<HashMap<u64, PrincipalId>>,
    /// The key of those hashes; clones keep it.
    name_hasher: RandomState,
}

thread_local! {
    /// This thread's subgroup-walk stack and visited set, emptied after
    /// each walk but kept, so that a warm walk allocates nothing.
    static WALK: RefCell<(Vec<GroupId>, HashSet<GroupId>)> = RefCell::default();
}

impl Serialize for Directory {
    fn serialize(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("principals".to_string(), self.principals.serialize()),
            ("groups".to_string(), self.groups.serialize()),
        ])
    }
}

impl Deserialize for Directory {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let map = content.as_map().ok_or_else(|| {
            serde::Error::custom(format!("Directory: expected map, got {}", content.kind()))
        })?;
        let principals: Vec<Principal> = serde::__field(map, "principals")?;
        let groups: Vec<Group> = serde::__field(map, "groups")?;
        let name_hasher = RandomState::new();
        let mut principal_names = HashMap::with_capacity(principals.len());
        for p in &principals {
            principal_names
                .entry(name_hasher.hash_one(&p.name))
                .or_insert(p.id);
        }
        Ok(Directory {
            principals: Arc::new(principals),
            groups: Arc::new(groups),
            principal_names: Arc::new(principal_names),
            name_hasher,
        })
    }
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Directory::default()
    }

    /// Registers a new principal.
    pub fn add_principal<S: Into<String>>(
        &mut self,
        name: S,
    ) -> Result<PrincipalId, DirectoryError> {
        let name = name.into();
        if name.is_empty() {
            return Err(DirectoryError::EmptyName);
        }
        let hash = self.name_hasher.hash_one(&name);
        if self.find_principal(hash, &name).is_some() {
            return Err(DirectoryError::DuplicateName(name));
        }
        let id = PrincipalId(self.principals.len() as u32);
        Arc::make_mut(&mut self.principal_names)
            .entry(hash)
            .or_insert(id);
        Arc::make_mut(&mut self.principals).push(Principal { id, name });
        Ok(id)
    }

    /// Registers a new group.
    pub fn add_group<S: Into<String>>(&mut self, name: S) -> Result<GroupId, DirectoryError> {
        let name = name.into();
        if name.is_empty() {
            return Err(DirectoryError::EmptyName);
        }
        if self.groups.iter().any(|g| g.name == name) {
            return Err(DirectoryError::DuplicateName(name));
        }
        let id = GroupId(self.groups.len() as u32);
        Arc::make_mut(&mut self.groups).push(Group {
            id,
            name,
            members: HashSet::new(),
            subgroups: BTreeSet::new(),
        });
        Ok(id)
    }

    /// Adds `principal` as a direct member of `group`.
    pub fn add_member(
        &mut self,
        group: GroupId,
        principal: PrincipalId,
    ) -> Result<(), DirectoryError> {
        if !self.has_principal(principal) {
            return Err(DirectoryError::UnknownPrincipal(principal));
        }
        self.group_mut(group)?.members.insert(principal);
        Ok(())
    }

    /// Removes `principal` from `group`'s direct members.
    pub fn remove_member(
        &mut self,
        group: GroupId,
        principal: PrincipalId,
    ) -> Result<bool, DirectoryError> {
        Ok(self.group_mut(group)?.members.remove(&principal))
    }

    /// Adds `child` as a subgroup of `parent`, rejecting cycles.
    pub fn add_subgroup(&mut self, parent: GroupId, child: GroupId) -> Result<(), DirectoryError> {
        if !self.has_group(child) {
            return Err(DirectoryError::UnknownGroup(child));
        }
        if self.any_reachable(child, |id| id == parent) {
            return Err(DirectoryError::MembershipCycle(parent, child));
        }
        self.group_mut(parent)?.subgroups.insert(child);
        Ok(())
    }

    /// Removes `child` from `parent`'s direct subgroups.
    pub fn remove_subgroup(
        &mut self,
        parent: GroupId,
        child: GroupId,
    ) -> Result<bool, DirectoryError> {
        Ok(self.group_mut(parent)?.subgroups.remove(&child))
    }

    /// Returns whether `principal` is a (possibly transitive) member of
    /// `group`. Unknown ids yield `false`.
    pub fn is_member(&self, principal: PrincipalId, group: GroupId) -> bool {
        let Some(g) = self.group(group) else {
            return false;
        };
        if g.members.contains(&principal) {
            return true;
        }
        // Most groups nest nothing: answer without the walk.
        if g.subgroups.is_empty() {
            return false;
        }
        self.any_reachable(group, |id| {
            self.group(id)
                .is_some_and(|sub| sub.members.contains(&principal))
        })
    }

    /// Returns every group the principal (transitively) belongs to.
    pub fn groups_of(&self, principal: PrincipalId) -> BTreeSet<GroupId> {
        self.groups
            .iter()
            .filter(|g| self.is_member(principal, g.id))
            .map(|g| g.id)
            .collect()
    }

    /// Returns the principal record, if registered.
    pub fn principal(&self, id: PrincipalId) -> Option<&Principal> {
        self.principals.get(id.0 as usize)
    }

    /// Returns the group record, if registered.
    pub fn group(&self, id: GroupId) -> Option<&Group> {
        self.groups.get(id.0 as usize)
    }

    /// Looks a principal up by name.
    pub fn principal_by_name(&self, name: &str) -> Option<PrincipalId> {
        self.find_principal(self.name_hasher.hash_one(name), name)
    }

    /// Looks up `name`, whose keyed hash is `hash`, in the name index.
    fn find_principal(&self, hash: u64, name: &str) -> Option<PrincipalId> {
        let &id = self.principal_names.get(&hash)?;
        if self.principal(id).is_some_and(|p| p.name == name) {
            return Some(id);
        }
        // Another name holds this hash.
        self.principals
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.id)
    }

    /// Looks a group up by name.
    pub fn group_by_name(&self, name: &str) -> Option<GroupId> {
        self.groups.iter().find(|g| g.name == name).map(|g| g.id)
    }

    /// Returns the name of a principal, or its numeric form when unknown.
    pub fn principal_name(&self, id: PrincipalId) -> String {
        self.principal(id)
            .map(|p| p.name.clone())
            .unwrap_or_else(|| id.to_string())
    }

    /// Returns the number of registered principals.
    pub fn principal_count(&self) -> usize {
        self.principals.len()
    }

    /// Returns the number of registered groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Iterates over all principals.
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.principals.iter()
    }

    /// Iterates over all groups.
    pub fn groups(&self) -> impl Iterator<Item = &Group> {
        self.groups.iter()
    }

    fn has_principal(&self, id: PrincipalId) -> bool {
        (id.0 as usize) < self.principals.len()
    }

    fn has_group(&self, id: GroupId) -> bool {
        (id.0 as usize) < self.groups.len()
    }

    /// Group `id` in a groups table of this directory's own: the table
    /// is copied first if a clone still shares it, and only once `id` is
    /// known to be there.
    fn group_mut(&mut self, id: GroupId) -> Result<&mut Group, DirectoryError> {
        if !self.has_group(id) {
            return Err(DirectoryError::UnknownGroup(id));
        }
        Ok(&mut Arc::make_mut(&mut self.groups)[id.0 as usize])
    }

    /// Returns whether `hit` holds for `from` or for a group nested in it
    /// at any depth. Each group is visited once, so a cycle (which only
    /// a deserialized directory can hold) ends the walk, and a diamond
    /// costs no more than its groups.
    fn any_reachable(&self, from: GroupId, mut hit: impl FnMut(GroupId) -> bool) -> bool {
        WALK.with(|walk| {
            let mut walk = walk.borrow_mut();
            let (stack, seen) = &mut *walk;
            stack.push(from);
            let mut found = false;
            while let Some(id) = stack.pop() {
                if !seen.insert(id) {
                    continue;
                }
                if hit(id) {
                    found = true;
                    break;
                }
                if let Some(g) = self.group(id) {
                    stack.extend(g.subgroups.iter().copied());
                }
            }
            stack.clear();
            seen.clear();
            found
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_membership() {
        let mut dir = Directory::new();
        let a = dir.add_principal("a").unwrap();
        let b = dir.add_principal("b").unwrap();
        let g = dir.add_group("g").unwrap();
        dir.add_member(g, a).unwrap();
        assert!(dir.is_member(a, g));
        assert!(!dir.is_member(b, g));
    }

    #[test]
    fn transitive_membership() {
        let mut dir = Directory::new();
        let a = dir.add_principal("a").unwrap();
        let inner = dir.add_group("inner").unwrap();
        let mid = dir.add_group("mid").unwrap();
        let outer = dir.add_group("outer").unwrap();
        dir.add_member(inner, a).unwrap();
        dir.add_subgroup(mid, inner).unwrap();
        dir.add_subgroup(outer, mid).unwrap();
        assert!(dir.is_member(a, outer));
        assert_eq!(dir.groups_of(a), [inner, mid, outer].into_iter().collect());
    }

    #[test]
    fn cycles_rejected() {
        let mut dir = Directory::new();
        let g1 = dir.add_group("g1").unwrap();
        let g2 = dir.add_group("g2").unwrap();
        dir.add_subgroup(g1, g2).unwrap();
        assert_eq!(
            dir.add_subgroup(g2, g1),
            Err(DirectoryError::MembershipCycle(g2, g1))
        );
        assert_eq!(
            dir.add_subgroup(g1, g1),
            Err(DirectoryError::MembershipCycle(g1, g1))
        );
    }

    #[test]
    fn removal() {
        let mut dir = Directory::new();
        let a = dir.add_principal("a").unwrap();
        let g = dir.add_group("g").unwrap();
        dir.add_member(g, a).unwrap();
        assert!(dir.remove_member(g, a).unwrap());
        assert!(!dir.remove_member(g, a).unwrap());
        assert!(!dir.is_member(a, g));
    }

    #[test]
    fn subgroup_removal_breaks_transitivity() {
        let mut dir = Directory::new();
        let a = dir.add_principal("a").unwrap();
        let inner = dir.add_group("inner").unwrap();
        let outer = dir.add_group("outer").unwrap();
        dir.add_member(inner, a).unwrap();
        dir.add_subgroup(outer, inner).unwrap();
        assert!(dir.is_member(a, outer));
        assert!(dir.remove_subgroup(outer, inner).unwrap());
        assert!(!dir.is_member(a, outer));
    }

    #[test]
    fn duplicate_and_empty_names() {
        let mut dir = Directory::new();
        dir.add_principal("x").unwrap();
        assert!(matches!(
            dir.add_principal("x"),
            Err(DirectoryError::DuplicateName(_))
        ));
        assert_eq!(dir.add_principal(""), Err(DirectoryError::EmptyName));
        dir.add_group("x").unwrap(); // Group namespace is separate.
        assert!(matches!(
            dir.add_group("x"),
            Err(DirectoryError::DuplicateName(_))
        ));
    }

    #[test]
    fn unknown_references() {
        let mut dir = Directory::new();
        let g = dir.add_group("g").unwrap();
        let ghost_p = PrincipalId::from_raw(99);
        let ghost_g = GroupId::from_raw(99);
        assert_eq!(
            dir.add_member(g, ghost_p),
            Err(DirectoryError::UnknownPrincipal(ghost_p))
        );
        assert_eq!(
            dir.add_subgroup(g, ghost_g),
            Err(DirectoryError::UnknownGroup(ghost_g))
        );
        assert!(!dir.is_member(ghost_p, ghost_g));
    }

    #[test]
    fn lookup_by_name() {
        let mut dir = Directory::new();
        let a = dir.add_principal("alice").unwrap();
        let g = dir.add_group("staff").unwrap();
        assert_eq!(dir.principal_by_name("alice"), Some(a));
        assert_eq!(dir.group_by_name("staff"), Some(g));
        assert_eq!(dir.principal_by_name("bob"), None);
        assert_eq!(dir.principal_name(a), "alice");
        assert_eq!(dir.principal_name(PrincipalId::from_raw(7)), "p7");
    }

    #[test]
    fn a_clone_looks_names_up() {
        let mut dir = Directory::new();
        let a = dir.add_principal("alice").unwrap();
        let copy = dir.clone();
        assert_eq!(copy.principal_by_name("alice"), Some(a));
        assert_eq!(copy.principal_by_name("bob"), None);
    }

    #[test]
    fn a_registration_on_a_clone_stays_on_the_clone() {
        let mut dir = Directory::new();
        dir.add_principal("alice").unwrap();
        let mut copy = dir.clone();
        let b = copy.add_principal("bob").unwrap();
        assert_eq!(copy.principal_by_name("bob"), Some(b));
        assert_eq!(dir.principal_by_name("bob"), None);
        // The original can take the same name for its own principal.
        assert_eq!(dir.add_principal("bob"), Ok(b));
    }

    #[test]
    fn a_clone_refuses_a_duplicate() {
        let mut dir = Directory::new();
        dir.add_principal("alice").unwrap();
        let mut copy = dir.clone();
        assert_eq!(
            copy.add_principal("alice"),
            Err(DirectoryError::DuplicateName("alice".to_string()))
        );
        assert_eq!(copy.principal_count(), 1);
    }

    #[test]
    fn a_hash_held_by_another_name_falls_back_to_a_scan() {
        let mut dir = Directory::new();
        let alice = dir.add_principal("alice").unwrap();
        let bob = dir.add_principal("bob").unwrap();
        // As if "alice" had registered first under "bob"'s hash.
        let bob_hash = dir.name_hasher.hash_one("bob");
        Arc::make_mut(&mut dir.principal_names).insert(bob_hash, alice);
        assert_eq!(dir.principal_by_name("bob"), Some(bob));
        assert_eq!(dir.principal_by_name("alice"), Some(alice));
        assert_eq!(
            dir.add_principal("bob"),
            Err(DirectoryError::DuplicateName("bob".to_string()))
        );
        assert_eq!(dir.principal_by_name("carol"), None);
    }

    #[test]
    fn a_deserialized_directory_looks_names_up() {
        let mut dir = Directory::new();
        let a = dir.add_principal("alice").unwrap();
        let mut back = Directory::deserialize(&dir.serialize()).unwrap();
        assert_eq!(back.principal_by_name("alice"), Some(a));
        assert!(matches!(
            back.add_principal("alice"),
            Err(DirectoryError::DuplicateName(_))
        ));
    }

    #[test]
    fn a_clone_shares_every_table_until_an_edit_changes_one() {
        let mut dir = Directory::new();
        let a = dir.add_principal("a").unwrap();
        let g = dir.add_group("g").unwrap();
        dir.add_member(g, a).unwrap();
        let mut copy = dir.clone();
        let shared = |x: &Directory, y: &Directory| {
            (
                Arc::ptr_eq(&x.principals, &y.principals),
                Arc::ptr_eq(&x.groups, &y.groups),
            )
        };
        // Refused edits copy nothing.
        let ghost = GroupId::from_raw(9);
        assert!(copy.add_member(g, PrincipalId::from_raw(9)).is_err());
        assert!(copy.add_member(ghost, a).is_err());
        assert!(copy.remove_member(ghost, a).is_err());
        assert!(copy.add_subgroup(g, g).is_err());
        assert!(copy.add_subgroup(ghost, g).is_err());
        assert!(copy.add_principal("a").is_err());
        assert!(copy.add_group("g").is_err());
        assert_eq!(shared(&dir, &copy), (true, true));
        // A membership edit copies the groups table, and only it.
        assert_eq!(copy.remove_member(g, a), Ok(true));
        assert_eq!(shared(&dir, &copy), (true, false));
        assert!(dir.is_member(a, g));
        assert!(!copy.is_member(a, g));
        // A registration copies the principals table.
        copy.add_principal("b").unwrap();
        assert_eq!(shared(&dir, &copy), (false, false));
        assert_eq!(dir.principal_count(), 1);
    }

    #[test]
    fn a_cycle_in_a_deserialized_directory_ends_the_walk() {
        let mut dir = Directory::new();
        let a = dir.add_principal("a").unwrap();
        let g1 = dir.add_group("g1").unwrap();
        let g2 = dir.add_group("g2").unwrap();
        dir.add_subgroup(g1, g2).unwrap();
        // The edit `add_subgroup` refuses, made directly.
        Arc::make_mut(&mut dir.groups)[g2.0 as usize]
            .subgroups
            .insert(g1);
        let back = Directory::deserialize(&dir.serialize()).unwrap();
        assert!(!back.is_member(a, g1));
        assert!(back.groups_of(a).is_empty());
    }

    #[test]
    fn diamond_nesting_is_fine() {
        // g_top contains g_l and g_r, both contain g_bottom: not a cycle.
        let mut dir = Directory::new();
        let top = dir.add_group("top").unwrap();
        let l = dir.add_group("l").unwrap();
        let r = dir.add_group("r").unwrap();
        let bottom = dir.add_group("bottom").unwrap();
        dir.add_subgroup(top, l).unwrap();
        dir.add_subgroup(top, r).unwrap();
        dir.add_subgroup(l, bottom).unwrap();
        dir.add_subgroup(r, bottom).unwrap();
        let p = dir.add_principal("p").unwrap();
        dir.add_member(bottom, p).unwrap();
        assert!(dir.is_member(p, top));
    }
}
