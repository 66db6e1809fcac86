//! The arena-backed name-space tree.

use crate::node::{Node, NodeId, NodeKind, Protection};
use crate::path::NsPath;
use std::collections::{BTreeMap, HashMap};
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
/// unrelated inserts and removals. An index from every live node's
/// canonical path text to its id answers a resolution in one hash probe;
/// only a path that names no node is walked component by component, to
/// find where it fails. The tree performs no access checks of its own —
/// the reference monitor resolves paths with
/// [`NameSpace::resolve_chain`] and enforces visibility on every node the
/// chain records.
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
    /// Every live node's [`NsPath::as_str`] text to its id, kept by the
    /// only structural edits, [`NameSpace::insert_at`] and
    /// [`NameSpace::remove_id`]. Keyed by text, not `NsPath`, because a
    /// path's component-wise order rules out `Borrow<str>`; std's keyed
    /// hasher stays, since principals holding write choose names.
    index: HashMap<Box<str>, NodeId>,
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
            index: HashMap::from([("/".into(), NodeId::ROOT)]),
        }
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
        match self.probe(path)? {
            Some(id) => Ok(id),
            None => self.descend(path, |_| {}),
        }
    }

    /// Resolves `path` like [`NameSpace::resolve`], recording the node
    /// every prefix names: afterwards `chain[k]` is the node of the first
    /// `k` components, through the final node — or, when resolution
    /// fails, through the last node reached (empty after a fault). A
    /// path the index holds takes its chain from parent links.
    pub fn resolve_chain(&self, path: &NsPath, chain: &mut Vec<NodeId>) -> Result<NodeId, NsError> {
        chain.clear();
        let Some(id) = self.probe(path)? else {
            chain.push(NodeId::ROOT);
            return self.descend(path, |id| chain.push(id));
        };
        let mut next = Some(id);
        while let Some(current) = next {
            chain.push(current);
            next = self.node(current)?.parent;
        }
        chain.reverse();
        Ok(id)
    }

    /// Consults the `ns.resolve` fault point, once per resolution, then
    /// looks `path` up in the index.
    fn probe(&self, path: &NsPath) -> Result<Option<NodeId>, NsError> {
        if let Some(fault) = extsec_faults::fire("ns.resolve") {
            return Err(NsError::Fault(fault.to_string()));
        }
        Ok(self.index.get(path.as_str()).copied())
    }

    /// The walk behind an index miss: descends from the root through
    /// `path`, handing each node reached to `record`, and names the
    /// prefix where it fails.
    fn descend(&self, path: &NsPath, mut record: impl FnMut(NodeId)) -> Result<NodeId, NsError> {
        let mut current = NodeId::ROOT;
        for (i, name) in path.components().enumerate() {
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
        let mut key = self.text_of(parent)?;
        if parent != NodeId::ROOT {
            key.push('/');
        }
        key.push_str(name);
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
                id
            }
        };
        self.node_mut(parent)
            .expect("parent existed above")
            .children
            .insert(name.to_string(), id);
        self.index.insert(key.into(), id);
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
        let key = self.text_of(id)?;
        self.node_mut(parent)?.children.remove(&name);
        self.nodes[id.0 as usize] = None;
        self.free.push(id);
        self.index.remove(key.as_str());
        Ok(())
    }

    /// Reconstructs the absolute path of `id`.
    pub fn path_of(&self, id: NodeId) -> Result<NsPath, NsError> {
        self.text_of(id).map(NsPath::from_canonical)
    }

    /// The canonical path text of `id`, from its parent links: the
    /// stored names were checked on insert, so nothing is re-parsed.
    fn text_of(&self, id: NodeId) -> Result<String, NsError> {
        let mut names = Vec::new();
        let mut current = self.node(id)?;
        while let Some(parent) = current.parent {
            names.push(current.name.as_str());
            current = self.node(parent)?;
        }
        if names.is_empty() {
            return Ok("/".to_string());
        }
        let mut text = String::with_capacity(names.iter().map(|name| name.len() + 1).sum());
        for name in names.iter().rev() {
            text.push('/');
            text.push_str(name);
        }
        Ok(text)
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
        self.index.len()
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
    fn chain_records_every_level() {
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
        let read = ns.resolve_chain(&p("/svc/fs/read"), &mut chain).unwrap();
        assert_eq!(read, ns.resolve(&p("/svc/fs/read")).unwrap());
        assert_eq!(names(&ns, &chain), ["", "svc", "fs", "read"]);
        // A second walk replaces the first one's record.
        let net = ns.resolve_chain(&p("/svc/net"), &mut chain).unwrap();
        assert_eq!(chain, [NodeId::ROOT, chain[1], net]);
        assert_eq!(names(&ns, &chain), ["", "svc", "net"]);
        // Failures keep the nodes reached and name the failing prefix.
        assert_eq!(
            ns.resolve_chain(&p("/svc/fs/gone/x"), &mut chain),
            Err(NsError::NotFound(p("/svc/fs/gone")))
        );
        assert_eq!(names(&ns, &chain), ["", "svc", "fs"]);
        assert_eq!(
            ns.resolve_chain(&p("/svc/fs/read/x/y"), &mut chain),
            Err(NsError::NotAContainer(p("/svc/fs/read")))
        );
        assert_eq!(names(&ns, &chain), ["", "svc", "fs", "read"]);
        // The root alone.
        assert_eq!(ns.resolve_chain(&p("/"), &mut chain), Ok(NodeId::ROOT));
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
