//! Name-space queries: glob matching and subtree search.
//!
//! Administration tools need to ask questions like "every procedure under
//! `/svc/**`" or "all objects named `*.log`". Patterns are
//! path-structured globs:
//!
//! * `*` matches exactly one component (any name),
//! * `**` matches zero or more components,
//! * any other component matches literally, except that a trailing `*`
//!   or leading `*` within a component matches name prefixes/suffixes
//!   (e.g. `*.log`, `report*`).
//!
//! Patterns are absolute, like the paths they match.

use crate::node::NodeId;
use crate::path::{NsPath, PathError};
use crate::tree::NameSpace;
use std::fmt;
use std::str::FromStr;

/// One component of a glob pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Segment {
    /// Matches exactly one component with the given name.
    Literal(String),
    /// Matches one component ending with the suffix (`*abc`).
    Suffix(String),
    /// Matches one component starting with the prefix (`abc*`).
    Prefix(String),
    /// Matches one component containing infix around a single `*`
    /// (`ab*cd`).
    Circumfix(String, String),
    /// Matches any single component (`*`).
    Any,
    /// Matches zero or more components (`**`).
    Glob,
}

impl Segment {
    fn parse(s: &str) -> Segment {
        if s == "**" {
            return Segment::Glob;
        }
        if s == "*" {
            return Segment::Any;
        }
        match s.find('*') {
            None => Segment::Literal(s.to_string()),
            Some(pos) => {
                let (before, after) = s.split_at(pos);
                let after = &after[1..];
                if after.contains('*') {
                    // Multiple stars: treat conservatively as circumfix
                    // on the outermost pair by collapsing inner stars
                    // into the prefix/suffix boundary.
                    let last = s.rfind('*').expect("contains *");
                    Segment::Circumfix(s[..pos].to_string(), s[last + 1..].to_string())
                } else if before.is_empty() {
                    Segment::Suffix(after.to_string())
                } else if after.is_empty() {
                    Segment::Prefix(before.to_string())
                } else {
                    Segment::Circumfix(before.to_string(), after.to_string())
                }
            }
        }
    }

    fn matches(&self, name: &str) -> bool {
        match self {
            Segment::Literal(l) => l == name,
            Segment::Suffix(suffix) => name.ends_with(suffix.as_str()),
            Segment::Prefix(prefix) => name.starts_with(prefix.as_str()),
            Segment::Circumfix(prefix, suffix) => {
                name.len() >= prefix.len() + suffix.len()
                    && name.starts_with(prefix.as_str())
                    && name.ends_with(suffix.as_str())
            }
            Segment::Any => true,
            Segment::Glob => true,
        }
    }
}

/// A compiled glob pattern over name-space paths.
///
/// # Examples
///
/// ```
/// use extsec_namespace::Glob;
///
/// let g: Glob = "/svc/**/read".parse().unwrap();
/// assert!(g.matches(&"/svc/fs/read".parse().unwrap()));
/// assert!(g.matches(&"/svc/a/b/read".parse().unwrap()));
/// assert!(!g.matches(&"/svc/fs/write".parse().unwrap()));
///
/// let g: Glob = "/obj/*.log".parse().unwrap();
/// assert!(g.matches(&"/obj/boot.log".parse().unwrap()));
/// assert!(!g.matches(&"/obj/boot.txt".parse().unwrap()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Glob {
    segments: Vec<Segment>,
    source: String,
}

impl Glob {
    /// Returns whether the pattern matches `path`.
    pub fn matches(&self, path: &NsPath) -> bool {
        Self::match_from(&self.segments, path.components())
    }

    fn match_from<'a>(
        pattern: &[Segment],
        mut components: impl Iterator<Item = &'a str> + Clone,
    ) -> bool {
        match pattern.split_first() {
            None => components.next().is_none(),
            // `**` consumes zero or more components.
            Some((Segment::Glob, rest)) => loop {
                if Self::match_from(rest, components.clone()) {
                    return true;
                }
                if components.next().is_none() {
                    return false;
                }
            },
            Some((seg, rest)) => match components.next() {
                Some(name) => seg.matches(name) && Self::match_from(rest, components),
                None => false,
            },
        }
    }
}

impl FromStr for Glob {
    type Err = PathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let Some(rest) = s.strip_prefix('/') else {
            return Err(PathError::NotAbsolute(s.to_string()));
        };
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        let mut segments = Vec::new();
        if !rest.is_empty() {
            for part in rest.split('/') {
                if part.is_empty() || part == "." || part == ".." {
                    return Err(PathError::BadComponent(part.to_string()));
                }
                segments.push(Segment::parse(part));
            }
        }
        Ok(Glob {
            segments,
            source: s.to_string(),
        })
    }
}

impl fmt::Display for Glob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

impl NameSpace {
    /// Returns every `(id, path)` whose path matches `pattern`, in
    /// depth-first order.
    pub fn find(&self, pattern: &Glob) -> Vec<(NodeId, NsPath)> {
        self.walk()
            .into_iter()
            .filter(|(_, path)| pattern.matches(path))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeKind, Protection};

    fn p(s: &str) -> NsPath {
        s.parse().unwrap()
    }

    #[test]
    fn literal_patterns() {
        let g: Glob = "/a/b".parse().unwrap();
        assert!(g.matches(&p("/a/b")));
        assert!(!g.matches(&p("/a")));
        assert!(!g.matches(&p("/a/b/c")));
        assert!(!g.matches(&p("/a/x")));
    }

    #[test]
    fn single_star() {
        let g: Glob = "/svc/*/read".parse().unwrap();
        assert!(g.matches(&p("/svc/fs/read")));
        assert!(g.matches(&p("/svc/net/read")));
        assert!(!g.matches(&p("/svc/read")));
        assert!(!g.matches(&p("/svc/a/b/read")));
    }

    #[test]
    fn double_star() {
        let g: Glob = "/svc/**".parse().unwrap();
        assert!(g.matches(&p("/svc")));
        assert!(g.matches(&p("/svc/fs")));
        assert!(g.matches(&p("/svc/fs/read")));
        assert!(!g.matches(&p("/obj/fs")));
        let g: Glob = "/**/read".parse().unwrap();
        assert!(g.matches(&p("/read")));
        assert!(g.matches(&p("/a/read")));
        assert!(g.matches(&p("/a/b/c/read")));
        assert!(!g.matches(&p("/a/b/write")));
    }

    #[test]
    fn prefix_suffix_infix() {
        let g: Glob = "/obj/*.log".parse().unwrap();
        assert!(g.matches(&p("/obj/boot.log")));
        assert!(!g.matches(&p("/obj/boot.txt")));
        let g: Glob = "/obj/report*".parse().unwrap();
        assert!(g.matches(&p("/obj/report-q3")));
        assert!(!g.matches(&p("/obj/q3-report")));
        let g: Glob = "/obj/a*z".parse().unwrap();
        assert!(g.matches(&p("/obj/abcz")));
        assert!(g.matches(&p("/obj/az")));
        assert!(!g.matches(&p("/obj/ab")));
    }

    #[test]
    fn root_pattern() {
        let g: Glob = "/".parse().unwrap();
        assert!(g.matches(&NsPath::root()));
        assert!(!g.matches(&p("/a")));
        let g: Glob = "/**".parse().unwrap();
        assert!(g.matches(&NsPath::root()));
        assert!(g.matches(&p("/a/b")));
    }

    #[test]
    fn bad_patterns() {
        assert!("a/b".parse::<Glob>().is_err());
        assert!("/a//b".parse::<Glob>().is_err());
        assert!("/a/../b".parse::<Glob>().is_err());
    }

    #[test]
    fn find_over_a_tree() {
        let mut ns = NameSpace::default();
        for path in ["/svc/fs/read", "/svc/fs/write", "/svc/net/read", "/obj/x"] {
            ns.ensure_path(&p(path), NodeKind::Domain, &Protection::default())
                .unwrap();
        }
        let found: Vec<String> = ns
            .find(&"/svc/**/read".parse().unwrap())
            .into_iter()
            .map(|(_, p)| p.to_string())
            .collect();
        assert_eq!(found, vec!["/svc/fs/read", "/svc/net/read"]);
        assert_eq!(ns.find(&"/**".parse().unwrap()).len(), ns.len());
    }
}
