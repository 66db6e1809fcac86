//! Principals, groups, and the principal directory.
//!
//! "Their use of individuals and groups in combination with fully featured
//! access control lists has the potential to offer a flexible and powerful
//! mechanism" (§1). The [`Directory`] is the registry of both: principals
//! are individuals (users, or the principal a piece of code runs as), and
//! groups contain principals and other groups. Membership is transitive
//! through nested groups; the closure computation is cycle-safe.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

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
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// The group's id.
    pub id: GroupId,
    /// The group's unique name.
    pub name: String,
    /// Direct principal members.
    pub members: BTreeSet<PrincipalId>,
    /// Direct subgroup members.
    pub subgroups: BTreeSet<GroupId>,
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
#[derive(Debug, Default)]
pub struct Directory {
    principals: Vec<Principal>,
    groups: Vec<Group>,
    /// Uniqueness index over principal names, kept out of the
    /// serialized form (the manual impls below rebuild it).
    /// Registration is append-only, so a `len` mismatch against
    /// `principals` is the (only) sign the index is stale.
    principal_names: HashSet<String>,
}

impl Clone for Directory {
    fn clone(&self) -> Self {
        Directory {
            principals: self.principals.clone(),
            groups: self.groups.clone(),
            // Left empty: clones happen on the monitor's copy-on-write
            // publish path, which never registers principals. The next
            // `add_principal` on the clone rebuilds the index once.
            principal_names: HashSet::new(),
        }
    }
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
        Ok(Directory {
            principal_names: principals.iter().map(|p| p.name.clone()).collect(),
            principals,
            groups,
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
        if self.principal_names.len() != self.principals.len() {
            self.principal_names = self.principals.iter().map(|p| p.name.clone()).collect();
        }
        if !self.principal_names.insert(name.clone()) {
            return Err(DirectoryError::DuplicateName(name));
        }
        let id = PrincipalId(self.principals.len() as u32);
        self.principals.push(Principal { id, name });
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
        self.groups.push(Group {
            id,
            name,
            members: BTreeSet::new(),
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
        let g = self.group_mut(group)?;
        g.members.insert(principal);
        Ok(())
    }

    /// Removes `principal` from `group`'s direct members.
    pub fn remove_member(
        &mut self,
        group: GroupId,
        principal: PrincipalId,
    ) -> Result<bool, DirectoryError> {
        let g = self.group_mut(group)?;
        Ok(g.members.remove(&principal))
    }

    /// Adds `child` as a subgroup of `parent`, rejecting cycles.
    pub fn add_subgroup(&mut self, parent: GroupId, child: GroupId) -> Result<(), DirectoryError> {
        if !self.has_group(child) {
            return Err(DirectoryError::UnknownGroup(child));
        }
        if parent == child || self.group_reaches(child, parent) {
            return Err(DirectoryError::MembershipCycle(parent, child));
        }
        let g = self.group_mut(parent)?;
        g.subgroups.insert(child);
        Ok(())
    }

    /// Removes `child` from `parent`'s direct subgroups.
    pub fn remove_subgroup(
        &mut self,
        parent: GroupId,
        child: GroupId,
    ) -> Result<bool, DirectoryError> {
        let g = self.group_mut(parent)?;
        Ok(g.subgroups.remove(&child))
    }

    /// Returns whether `principal` is a (possibly transitive) member of
    /// `group`. Unknown ids yield `false`.
    pub fn is_member(&self, principal: PrincipalId, group: GroupId) -> bool {
        let Some(g) = self.groups.get(group.0 as usize) else {
            return false;
        };
        if g.members.contains(&principal) {
            return true;
        }
        // Most groups nest nothing: answer without building `seen`, whose
        // first insert allocates.
        if g.subgroups.is_empty() {
            return false;
        }
        let mut seen = BTreeSet::new();
        seen.insert(group);
        let mut stack: Vec<GroupId> = g.subgroups.iter().copied().collect();
        while let Some(next) = stack.pop() {
            if !seen.insert(next) {
                continue;
            }
            let Some(sub) = self.groups.get(next.0 as usize) else {
                continue;
            };
            if sub.members.contains(&principal) {
                return true;
            }
            stack.extend(sub.subgroups.iter().copied());
        }
        false
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

    fn group_mut(&mut self, id: GroupId) -> Result<&mut Group, DirectoryError> {
        self.groups
            .get_mut(id.0 as usize)
            .ok_or(DirectoryError::UnknownGroup(id))
    }

    /// Returns whether group `from` (transitively) contains group `to`.
    fn group_reaches(&self, from: GroupId, to: GroupId) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(next) = stack.pop() {
            if next == to {
                return true;
            }
            if !seen.insert(next) {
                continue;
            }
            if let Some(g) = self.groups.get(next.0 as usize) {
                stack.extend(g.subgroups.iter().copied());
            }
        }
        false
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
