//! The arena-backed name-space tree.

use crate::node::{Node, NodeId, NodeKind, Protection};
use crate::path::NsPath;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from name-space operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NsError {
    /// The path (or a prefix of it) does not name a node.
    NotFound(NsPath),
    /// The target of an insert already exists.
    AlreadyExists(NsPath),
    /// An interior step of a path is not a container.
    NotAContainer(NsPath),
    /// A container slated for removal still has children.
    NotEmpty(NsPath),
    /// The root cannot be removed or re-inserted.
    RootImmutable,
    /// A stale or foreign node id was used.
    BadNodeId(NodeId),
    /// An internal fault (in practice, an injected one) interrupted the
    /// operation. The reference monitor maps this to a structural denial,
    /// so a faulting traversal fails closed.
    Fault(String),
}

impl fmt::Display for NsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NsError::NotFound(p) => write!(f, "{p}: not found"),
            NsError::AlreadyExists(p) => write!(f, "{p}: already exists"),
            NsError::NotAContainer(p) => write!(f, "{p}: not a container"),
            NsError::NotEmpty(p) => write!(f, "{p}: container not empty"),
            NsError::RootImmutable => write!(f, "the root node is immutable"),
            NsError::BadNodeId(id) => write!(f, "bad node id {id}"),
            NsError::Fault(msg) => write!(f, "name-space fault: {msg}"),
        }
    }
}

impl std::error::Error for NsError {}

/// The universal name space: a protected tree of named nodes.
///
/// Stored as an arena with a free list; node ids stay stable across
/// unrelated inserts and removals. The tree performs no access checks of
/// its own — the reference monitor walks paths with
/// [`NameSpace::resolve_chain`] and enforces visibility on every node the
/// walk records.
///
/// # Examples
///
/// ```
/// use extsec_namespace::{NameSpace, NodeKind, NsPath, Protection};
///
/// let mut ns = NameSpace::new(Protection::default());
/// ns.insert(&NsPath::root(), "svc", NodeKind::Domain, Protection::default()).unwrap();
/// let fs: NsPath = "/svc/fs".parse().unwrap();
/// ns.insert(&fs.parent().unwrap(), "fs", NodeKind::Interface, Protection::default()).unwrap();
/// let read = ns
///     .insert(&fs, "read", NodeKind::Procedure, Protection::default())
///     .unwrap();
/// assert_eq!(ns.path_of(read).unwrap().to_string(), "/svc/fs/read");
/// ```
#[derive(Clone, Debug)]
pub struct NameSpace {
    nodes: Vec<Option<Node>>,
    free: Vec<NodeId>,
    /// Per-slot reuse counters: `epochs[i]` is bumped every time slot `i`
    /// is vacated, so an `(id, epoch)` pair names one node *occupancy*
    /// even though raw ids are recycled. Callers that key long-lived state
    /// (e.g. decision caches) on node ids must key on the pair.
    epochs: Vec<u32>,
}

impl NameSpace {
    /// Creates a name space whose root (a `Domain`) carries the given
    /// protection.
    pub fn new(root_protection: Protection) -> Self {
        let root = Node {
            name: String::new(),
            kind: NodeKind::Domain,
            protection: root_protection,
            parent: None,
            children: BTreeMap::new(),
            extensible: false,
        };
        NameSpace {
            nodes: vec![Some(root)],
            free: Vec::new(),
            epochs: vec![0],
        }
    }

    /// Returns the reuse epoch of `id`'s slot. Together with the id this
    /// uniquely names one node occupancy: removing a node bumps its
    /// slot's epoch, so a recycled id is distinguishable from the node it
    /// replaced. Returns the current slot epoch even for vacant slots (a
    /// subsequent insert reuses the slot at that epoch).
    pub fn epoch(&self, id: NodeId) -> u32 {
        self.epochs.get(id.0 as usize).copied().unwrap_or(0)
    }

    /// Returns the node for `id`.
    pub fn node(&self, id: NodeId) -> Result<&Node, NsError> {
        self.nodes
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(NsError::BadNodeId(id))
    }

    fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, NsError> {
        self.nodes
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(NsError::BadNodeId(id))
    }

    /// Resolves `path` to a node id, performing no checks of its own.
    pub fn resolve(&self, path: &NsPath) -> Result<NodeId, NsError> {
        self.descend(path, 0, NodeId::ROOT, |_| {})
    }

    /// Resolves `path` like [`NameSpace::resolve`], recording the node
    /// every prefix names: afterwards `chain[k]` is the node of the first
    /// `k` components, through the final node — or, when resolution
    /// fails, through the last node reached (empty after a fault).
    ///
    /// The walk resumes from an earlier one: the first `shared`
    /// components are taken as `chain` already records them, which the
    /// caller guarantees by passing the length of the prefix this path
    /// shares with the one last walked into `chain` on this same name
    /// space (0 walks afresh). Only the remaining components are looked
    /// up.
    pub fn resolve_chain(
        &self,
        path: &NsPath,
        shared: usize,
        chain: &mut Vec<NodeId>,
    ) -> Result<NodeId, NsError> {
        let keep = shared.min(path.depth()).min(chain.len().saturating_sub(1));
        chain.truncate(keep + 1);
        if chain.is_empty() {
            chain.push(NodeId::ROOT);
        }
        let walked = self.descend(path, keep, chain[keep], |id| chain.push(id));
        if matches!(walked, Err(NsError::Fault(_))) {
            chain.clear();
        }
        walked
    }

    /// The one resolution loop: descends from `start` (the node of the
    /// first `from` components) through the rest of `path`, handing each
    /// node reached to `record`. Hosts the `ns.resolve` fault point.
    fn descend(
        &self,
        path: &NsPath,
        from: usize,
        start: NodeId,
        mut record: impl FnMut(NodeId),
    ) -> Result<NodeId, NsError> {
        if let Some(fault) = extsec_faults::fire("ns.resolve") {
            return Err(NsError::Fault(fault.to_string()));
        }
        let mut current = start;
        for (i, name) in path.components().iter().enumerate().skip(from) {
            let node = self.node(current)?;
            if !node.kind.is_container() {
                return Err(NsError::NotAContainer(path.prefix(i)));
            }
            let Some(&child) = node.children.get(name) else {
                return Err(NsError::NotFound(path.prefix(i + 1)));
            };
            record(child);
            current = child;
        }
        Ok(current)
    }

    /// Inserts a child under the container at `parent_path`.
    pub fn insert(
        &mut self,
        parent_path: &NsPath,
        name: &str,
        kind: NodeKind,
        protection: Protection,
    ) -> Result<NodeId, NsError> {
        let parent = self.resolve(parent_path)?;
        self.insert_at(parent, name, kind, protection)
            .map_err(|e| match e {
                // Rewrite child-path errors to full paths for diagnostics.
                NsError::AlreadyExists(_) => NsError::AlreadyExists(
                    parent_path
                        .join(name)
                        .unwrap_or_else(|_| parent_path.clone()),
                ),
                other => other,
            })
    }

    /// Inserts a child under the container `parent`.
    pub fn insert_at(
        &mut self,
        parent: NodeId,
        name: &str,
        kind: NodeKind,
        protection: Protection,
    ) -> Result<NodeId, NsError> {
        if let Some(fault) = extsec_faults::fire("ns.insert") {
            return Err(NsError::Fault(fault.to_string()));
        }
        if !NsPath::valid_component(name) {
            return Err(NsError::NotFound(NsPath::root()));
        }
        let parent_node = self.node(parent)?;
        if !parent_node.kind.is_container() {
            return Err(NsError::NotAContainer(
                self.path_of(parent).unwrap_or_else(|_| NsPath::root()),
            ));
        }
        if parent_node.children.contains_key(name) {
            let path = self
                .path_of(parent)
                .and_then(|p| p.join(name).map_err(|_| NsError::BadNodeId(parent)))
                .unwrap_or_else(|_| NsPath::root());
            return Err(NsError::AlreadyExists(path));
        }
        let node = Node {
            name: name.to_string(),
            kind,
            protection,
            parent: Some(parent),
            children: BTreeMap::new(),
            extensible: false,
        };
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id.0 as usize] = Some(node);
                id
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(Some(node));
                self.epochs.push(0);
                id
            }
        };
        self.node_mut(parent)
            .expect("parent existed above")
            .children
            .insert(name.to_string(), id);
        Ok(id)
    }

    /// Removes the node at `path`. Containers must be empty.
    pub fn remove(&mut self, path: &NsPath) -> Result<(), NsError> {
        let id = self.resolve(path)?;
        self.remove_id(id)
    }

    /// Removes the node `id`. Containers must be empty.
    pub fn remove_id(&mut self, id: NodeId) -> Result<(), NsError> {
        if let Some(fault) = extsec_faults::fire("ns.remove") {
            return Err(NsError::Fault(fault.to_string()));
        }
        if id == NodeId::ROOT {
            return Err(NsError::RootImmutable);
        }
        let node = self.node(id)?;
        if !node.children.is_empty() {
            return Err(NsError::NotEmpty(
                self.path_of(id).unwrap_or_else(|_| NsPath::root()),
            ));
        }
        let parent = node.parent.expect("non-root nodes have parents");
        let name = node.name.clone();
        self.node_mut(parent)?.children.remove(&name);
        self.nodes[id.0 as usize] = None;
        self.epochs[id.0 as usize] += 1;
        self.free.push(id);
        Ok(())
    }

    /// Reconstructs the absolute path of `id`.
    pub fn path_of(&self, id: NodeId) -> Result<NsPath, NsError> {
        let mut components = Vec::new();
        let mut current = id;
        loop {
            let node = self.node(current)?;
            match node.parent {
                Some(parent) => {
                    components.push(node.name.clone());
                    current = parent;
                }
                None => break,
            }
        }
        components.reverse();
        Ok(NsPath::from_components(components).expect("stored names are valid"))
    }

    /// Replaces the protection record of the node at `id`.
    pub fn set_protection(&mut self, id: NodeId, protection: Protection) -> Result<(), NsError> {
        self.node_mut(id)?.protection = protection;
        Ok(())
    }

    /// Mutates the protection record of the node at `id` in place.
    pub fn update_protection<F>(&mut self, id: NodeId, f: F) -> Result<(), NsError>
    where
        F: FnOnce(&mut Protection),
    {
        f(&mut self.node_mut(id)?.protection);
        Ok(())
    }

    /// Marks the node at `id` as extensible (or not).
    pub fn set_extensible(&mut self, id: NodeId, extensible: bool) -> Result<(), NsError> {
        self.node_mut(id)?.extensible = extensible;
        Ok(())
    }

    /// Lists the child names of the container at `path`.
    pub fn list(&self, path: &NsPath) -> Result<Vec<String>, NsError> {
        let id = self.resolve(path)?;
        let node = self.node(id)?;
        if !node.kind.is_container() {
            return Err(NsError::NotAContainer(path.clone()));
        }
        Ok(node.children.keys().cloned().collect())
    }

    /// Returns the number of live nodes (including the root).
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Returns whether only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Depth-first iteration over `(id, path)` pairs of the whole tree.
    pub fn walk(&self) -> Vec<(NodeId, NsPath)> {
        let mut out = Vec::new();
        let mut stack = vec![(NodeId::ROOT, NsPath::root())];
        while let Some((id, path)) = stack.pop() {
            if let Ok(node) = self.node(id) {
                for (name, &child) in node.children.iter().rev() {
                    if let Ok(child_path) = path.join(name) {
                        stack.push((child, child_path));
                    }
                }
                out.push((id, path));
            }
        }
        out
    }

    /// Ensures every container along `path` exists (like `mkdir -p`),
    /// creating missing interior nodes with `kind` and clones of
    /// `protection`. Returns the final node's id.
    pub fn ensure_path(
        &mut self,
        path: &NsPath,
        kind: NodeKind,
        protection: &Protection,
    ) -> Result<NodeId, NsError> {
        let mut current = NodeId::ROOT;
        for name in path.components() {
            let node = self.node(current)?;
            current = match node.children.get(name) {
                Some(&child) => child,
                None => self.insert_at(current, name, kind, protection.clone())?,
            };
        }
        Ok(current)
    }
}

impl Default for NameSpace {
    fn default() -> Self {
        NameSpace::new(Protection::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> NsPath {
        s.parse().unwrap()
    }

    fn build() -> NameSpace {
        let mut ns = NameSpace::default();
        ns.insert(&p("/"), "svc", NodeKind::Domain, Protection::default())
            .unwrap();
        ns.insert(&p("/svc"), "fs", NodeKind::Interface, Protection::default())
            .unwrap();
        ns.insert(
            &p("/svc/fs"),
            "read",
            NodeKind::Procedure,
            Protection::default(),
        )
        .unwrap();
        ns
    }

    #[test]
    fn resolve_and_path_round_trip() {
        let ns = build();
        let id = ns.resolve(&p("/svc/fs/read")).unwrap();
        assert_eq!(ns.path_of(id).unwrap(), p("/svc/fs/read"));
        assert_eq!(ns.resolve(&p("/")).unwrap(), NodeId::ROOT);
    }

    #[test]
    fn not_found_names_the_failing_prefix() {
        let ns = build();
        assert_eq!(
            ns.resolve(&p("/svc/net/send")),
            Err(NsError::NotFound(p("/svc/net")))
        );
    }

    #[test]
    fn leaves_are_not_containers() {
        let mut ns = build();
        assert_eq!(
            ns.resolve(&p("/svc/fs/read/deeper")),
            Err(NsError::NotAContainer(p("/svc/fs/read")))
        );
        assert_eq!(
            ns.insert(
                &p("/svc/fs/read"),
                "x",
                NodeKind::Procedure,
                Protection::default()
            ),
            Err(NsError::NotAContainer(p("/svc/fs/read")))
        );
        assert_eq!(
            ns.list(&p("/svc/fs/read")),
            Err(NsError::NotAContainer(p("/svc/fs/read")))
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut ns = build();
        assert_eq!(
            ns.insert(&p("/svc"), "fs", NodeKind::Interface, Protection::default()),
            Err(NsError::AlreadyExists(p("/svc/fs")))
        );
    }

    #[test]
    fn remove_requires_empty_container() {
        let mut ns = build();
        assert_eq!(
            ns.remove(&p("/svc/fs")),
            Err(NsError::NotEmpty(p("/svc/fs")))
        );
        ns.remove(&p("/svc/fs/read")).unwrap();
        ns.remove(&p("/svc/fs")).unwrap();
        assert_eq!(
            ns.resolve(&p("/svc/fs")),
            Err(NsError::NotFound(p("/svc/fs")))
        );
    }

    #[test]
    fn root_is_immutable() {
        let mut ns = build();
        assert_eq!(ns.remove(&p("/")), Err(NsError::RootImmutable));
    }

    #[test]
    fn ids_are_recycled_but_paths_stay_correct() {
        let mut ns = build();
        let before = ns.len();
        ns.remove(&p("/svc/fs/read")).unwrap();
        let id = ns
            .insert(
                &p("/svc/fs"),
                "write",
                NodeKind::Procedure,
                Protection::default(),
            )
            .unwrap();
        assert_eq!(ns.len(), before);
        assert_eq!(ns.path_of(id).unwrap(), p("/svc/fs/write"));
    }

    #[test]
    fn epochs_distinguish_recycled_ids() {
        let mut ns = build();
        let read = ns.resolve(&p("/svc/fs/read")).unwrap();
        let first_epoch = ns.epoch(read);
        ns.remove(&p("/svc/fs/read")).unwrap();
        assert_eq!(ns.epoch(read), first_epoch + 1);
        let write = ns
            .insert(
                &p("/svc/fs"),
                "write",
                NodeKind::Procedure,
                Protection::default(),
            )
            .unwrap();
        // Same recycled slot, different occupancy.
        assert_eq!(write, read);
        assert_eq!(ns.epoch(write), first_epoch + 1);
        // Fresh slots start at epoch zero.
        let other = ns
            .insert(
                &p("/svc/fs"),
                "sync",
                NodeKind::Procedure,
                Protection::default(),
            )
            .unwrap();
        assert_ne!(other, write);
        assert_eq!(ns.epoch(other), 0);
    }

    #[test]
    fn chain_records_every_level_and_resumes() {
        let mut ns = build();
        ns.insert(
            &p("/svc"),
            "net",
            NodeKind::Interface,
            Protection::default(),
        )
        .unwrap();
        let names = |ns: &NameSpace, chain: &[NodeId]| -> Vec<String> {
            chain
                .iter()
                .map(|id| ns.node(*id).unwrap().name().to_string())
                .collect()
        };
        let mut chain = Vec::new();
        let read = ns.resolve_chain(&p("/svc/fs/read"), 0, &mut chain).unwrap();
        assert_eq!(read, ns.resolve(&p("/svc/fs/read")).unwrap());
        assert_eq!(names(&ns, &chain), ["", "svc", "fs", "read"]);
        // Resuming after the shared `/svc` re-walks only the suffix.
        let net = ns.resolve_chain(&p("/svc/net"), 1, &mut chain).unwrap();
        assert_eq!(chain, [NodeId::ROOT, chain[1], net]);
        assert_eq!(names(&ns, &chain), ["", "svc", "net"]);
        // Failures keep the nodes reached and name the failing prefix.
        assert_eq!(
            ns.resolve_chain(&p("/svc/fs/gone/x"), 1, &mut chain),
            Err(NsError::NotFound(p("/svc/fs/gone")))
        );
        assert_eq!(names(&ns, &chain), ["", "svc", "fs"]);
        assert_eq!(
            ns.resolve_chain(&p("/svc/fs/read/x/y"), 3, &mut chain),
            Err(NsError::NotAContainer(p("/svc/fs/read")))
        );
        assert_eq!(names(&ns, &chain), ["", "svc", "fs", "read"]);
        // The root alone.
        assert_eq!(ns.resolve_chain(&p("/"), 0, &mut chain), Ok(NodeId::ROOT));
        assert_eq!(chain, [NodeId::ROOT]);
    }

    #[test]
    fn list_is_sorted() {
        let mut ns = build();
        ns.insert(
            &p("/svc/fs"),
            "append",
            NodeKind::Procedure,
            Protection::default(),
        )
        .unwrap();
        assert_eq!(ns.list(&p("/svc/fs")).unwrap(), vec!["append", "read"]);
    }

    #[test]
    fn walk_visits_everything() {
        let ns = build();
        let paths: Vec<String> = ns.walk().into_iter().map(|(_, p)| p.to_string()).collect();
        assert_eq!(paths, vec!["/", "/svc", "/svc/fs", "/svc/fs/read"]);
    }

    #[test]
    fn ensure_path_creates_missing_interiors() {
        let mut ns = NameSpace::default();
        let id = ns
            .ensure_path(&p("/a/b/c"), NodeKind::Directory, &Protection::default())
            .unwrap();
        assert_eq!(ns.path_of(id).unwrap(), p("/a/b/c"));
        // Idempotent.
        let again = ns
            .ensure_path(&p("/a/b/c"), NodeKind::Directory, &Protection::default())
            .unwrap();
        assert_eq!(id, again);
    }

    #[test]
    fn set_and_update_protection() {
        let mut ns = build();
        let id = ns.resolve(&p("/svc/fs")).unwrap();
        ns.update_protection(id, |prot| {
            prot.acl.push(extsec_acl::AclEntry::allow_everyone(
                extsec_acl::ModeSet::parse("l").unwrap(),
            ));
        })
        .unwrap();
        assert_eq!(ns.node(id).unwrap().protection().acl.len(), 1);
    }

    #[test]
    fn extensible_flag() {
        let mut ns = build();
        let id = ns.resolve(&p("/svc/fs/read")).unwrap();
        assert!(!ns.node(id).unwrap().extensible());
        ns.set_extensible(id, true).unwrap();
        assert!(ns.node(id).unwrap().extensible());
    }

    #[test]
    fn stale_ids_detected() {
        let mut ns = build();
        let id = ns.resolve(&p("/svc/fs/read")).unwrap();
        ns.remove_id(id).unwrap();
        assert_eq!(ns.node(id).err(), Some(NsError::BadNodeId(id)));
        assert_eq!(ns.path_of(id).err(), Some(NsError::BadNodeId(id)));
    }
}
