//! The universal hierarchical name space for extensible systems.
//!
//! Paper §2.3: "The name space of all system services should form a
//! hierarchy of names, where access to each level of the hierarchy is
//! protected." Leaves are individual functions (methods/procedures) or
//! other terminal objects such as files; interior nodes are objects,
//! interfaces, packages, domains — and, for files, directories. Because the
//! structure mirrors file-system naming, **one** name space can integrate
//! every named object in the system, enabling "a central name server to
//! enforce all protection".
//!
//! Every node carries a [`Protection`] record — an ACL (discretionary
//! control) plus a security class label (mandatory control) and, for code
//! objects, an optional *static* security class (§2.2: extensions may be
//! statically bound to a class). The name space itself performs **no**
//! access checks; the reference monitor resolves paths through
//! [`NameSpace::resolve_chain`], which records the node at every level,
//! and enforces visibility (`list`) on each interior node of that chain.
//!
//! # Examples
//!
//! ```
//! use extsec_namespace::{NameSpace, NodeKind, NsPath, Protection};
//!
//! let mut ns = NameSpace::new(Protection::default());
//! let svc = ns
//!     .insert(&NsPath::root(), "svc", NodeKind::Domain, Protection::default())
//!     .unwrap();
//! ns.insert_at(svc, "fs", NodeKind::Interface, Protection::default())
//!     .unwrap();
//! let path: NsPath = "/svc/fs".parse().unwrap();
//! assert!(ns.resolve(&path).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod path;
pub mod query;
pub mod tree;

pub use node::{Node, NodeId, NodeKind, Protection};
pub use path::{Components, NsPath, PathError};
pub use query::Glob;
pub use tree::{NameSpace, NsError};
