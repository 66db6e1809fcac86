//! Extensions and their manifests.

use extsec_acl::PrincipalId;
use extsec_mac::SecurityClass;
use extsec_namespace::NsPath;
use extsec_vm::VerifiedModule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a loaded extension.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ExtensionId(u32);

impl ExtensionId {
    /// Creates an id from a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        ExtensionId(raw)
    }

    /// Returns the raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ExtensionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ext{}", self.0)
    }
}

/// Where an extension came from.
///
/// The Java security model the paper critiques keys *everything* on this
/// one bit (local code trusted, remote code sandboxed); here the origin is
/// just metadata that deployments map to principals and static classes —
/// e.g. the paper's example assigns remote-origin applets a least-trust
/// static class.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// Code stored on the local machine.
    Local,
    /// Code from within the same organization; carries the unit name.
    Organization(String),
    /// Code from outside; carries a source label (e.g. a host name).
    Remote(String),
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Local => write!(f, "local"),
            Origin::Organization(o) => write!(f, "org:{o}"),
            Origin::Remote(r) => write!(f, "remote:{r}"),
        }
    }
}

/// Everything the runtime needs to know about an extension besides its
/// code: who it runs as, where it came from, and its static class.
#[derive(Clone, Debug)]
pub struct ExtensionManifest {
    /// The extension's name (diagnostics; need not be unique).
    pub name: String,
    /// The principal the extension runs as.
    pub principal: PrincipalId,
    /// Where the code came from.
    pub origin: Origin,
    /// The statically assigned security class, if any (§2.2: remote
    /// applets "might always run at the least level of trust").
    pub static_class: Option<SecurityClass>,
}

/// A loaded, linked extension.
#[derive(Debug)]
pub struct Extension {
    /// The extension's id.
    pub id: ExtensionId,
    /// The manifest it was loaded with.
    pub manifest: ExtensionManifest,
    /// The verified code.
    pub module: VerifiedModule,
    /// The import paths the linker parsed and checked, parallel to the
    /// module's import list; the syscall gate calls these.
    pub resolved_imports: Vec<NsPath>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_display() {
        assert_eq!(Origin::Local.to_string(), "local");
        assert_eq!(
            Origin::Organization("dept-1".into()).to_string(),
            "org:dept-1"
        );
        assert_eq!(
            Origin::Remote("evil.example".into()).to_string(),
            "remote:evil.example"
        );
    }

    #[test]
    fn id_round_trip() {
        let id = ExtensionId::from_raw(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(id.to_string(), "ext7");
    }
}
