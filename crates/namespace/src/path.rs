//! Hierarchical path names.
//!
//! Paths are absolute, `/`-separated, and rooted at `/`. Components may
//! contain any character except `/`, and the reserved names `.` and `..`
//! are rejected — the name space has no notion of relative traversal, which
//! keeps resolution (and therefore protection) strictly top-down. A
//! path's canonical text is at most [`NsPath::MAX_LEN`] bytes, so every
//! path the monitor can decide on fits one persisted audit record.

use serde::{Content, Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Errors from parsing or manipulating paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// The path did not start with `/`.
    NotAbsolute(String),
    /// A component was empty (`//`) or reserved (`.`/`..`).
    BadComponent(String),
    /// The canonical text would exceed [`NsPath::MAX_LEN`] bytes;
    /// carries its length.
    TooLong(usize),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::NotAbsolute(p) => write!(f, "path {p:?} is not absolute"),
            PathError::BadComponent(c) => write!(f, "bad path component {c:?}"),
            PathError::TooLong(len) => write!(
                f,
                "path of {len} bytes exceeds the {} byte bound",
                NsPath::MAX_LEN
            ),
        }
    }
}

impl std::error::Error for PathError {}

/// An absolute path in the universal name space.
///
/// A path holds one canonical string: `/` for the root, `/c1/…/cn`
/// otherwise, with every component valid. Cloning, comparing, hashing
/// or copying a path out therefore touches one buffer, and
/// [`components`](NsPath::components) hands out slices of it.
///
/// Paths order component-wise (the root first, then `/a` before `/a/b`
/// before `/a-b`), as a list of component strings would. They
/// serialize as `{"components": [...]}`.
///
/// # Examples
///
/// ```
/// use extsec_namespace::NsPath;
///
/// let p: NsPath = "/svc/fs/read".parse().unwrap();
/// assert_eq!(p.depth(), 3);
/// assert_eq!(p.leaf(), Some("read"));
/// assert_eq!(p.parent().unwrap().to_string(), "/svc/fs");
/// assert!(p.starts_with(&"/svc".parse().unwrap()));
/// assert_eq!(p.components().collect::<Vec<_>>(), ["svc", "fs", "read"]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NsPath {
    text: Box<str>,
}

impl NsPath {
    /// The bound on a path's canonical text, in bytes: the longest path
    /// an audit record holds. Every constructor refuses a longer one with
    /// [`PathError::TooLong`].
    pub const MAX_LEN: usize = 4096;

    /// The root path `/`.
    pub fn root() -> Self {
        NsPath { text: "/".into() }
    }

    /// Validates a single component name.
    pub fn valid_component(name: &str) -> bool {
        Self::valid_name(name.as_bytes())
    }

    fn valid_name(name: &[u8]) -> bool {
        !name.is_empty() && name != b"." && name != b".." && !name.contains(&b'/')
    }

    /// Creates a path from components, validating each and the length
    /// of the whole.
    pub fn from_components<I, S>(components: I) -> Result<Self, PathError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = String::new();
        for c in components {
            let c = c.as_ref();
            if !Self::valid_component(c) {
                return Err(PathError::BadComponent(c.to_string()));
            }
            text.push('/');
            text.push_str(c);
        }
        if text.is_empty() {
            return Ok(NsPath::root());
        }
        Self::bounded(text.len())?;
        Ok(NsPath { text: text.into() })
    }

    /// The canonical text: `/` for the root, `/c1/…/cn` otherwise.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// Iterates over the components, outermost first.
    pub fn components(&self) -> Components<'_> {
        Components {
            rest: &self.text[1..],
        }
    }

    /// Returns the number of components (0 for the root).
    pub fn depth(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.text.bytes().filter(|&b| b == b'/').count()
        }
    }

    /// Returns whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.text.len() == 1
    }

    /// Returns the final component, if any.
    pub fn leaf(&self) -> Option<&str> {
        self.text
            .rsplit_once('/')
            .map(|(_, leaf)| leaf)
            .filter(|leaf| !leaf.is_empty())
    }

    /// Returns the parent path, or `None` for the root.
    pub fn parent(&self) -> Option<NsPath> {
        if self.is_root() {
            return None;
        }
        let slash = self.text.rfind('/')?;
        Some(NsPath::of(&self.text[..slash]))
    }

    /// Returns this path extended by one component, in one allocation.
    pub fn join(&self, name: &str) -> Result<NsPath, PathError> {
        if !Self::valid_component(name) {
            return Err(PathError::BadComponent(name.to_string()));
        }
        let base = if self.is_root() { "" } else { &*self.text };
        let len = Self::bounded(base.len() + 1 + name.len())?;
        let mut text = String::with_capacity(len);
        text.push_str(base);
        text.push('/');
        text.push_str(name);
        Ok(NsPath { text: text.into() })
    }

    /// Returns the ancestor-or-self made of the first `len` components
    /// (the root for 0, the whole path for `len >= depth`).
    pub fn prefix(&self, len: usize) -> NsPath {
        match self.text.match_indices('/').nth(len) {
            Some((end, _)) => NsPath::of(&self.text[..end]),
            None => self.clone(),
        }
    }

    /// Returns whether `prefix` is an ancestor-or-self of this path.
    pub fn starts_with(&self, prefix: &NsPath) -> bool {
        prefix.is_root()
            || (self.text.starts_with(&*prefix.text)
                && matches!(
                    self.text.as_bytes().get(prefix.text.len()),
                    None | Some(b'/')
                ))
    }

    /// Returns the components below the ancestor-or-self `prefix`, as
    /// `/`-joined text (empty when `prefix` is this path), or `None`
    /// when `prefix` is not an ancestor-or-self.
    pub fn strip_prefix(&self, prefix: &NsPath) -> Option<&str> {
        self.starts_with(prefix)
            .then(|| self.text[prefix.text.len()..].trim_start_matches('/'))
    }

    /// Iterates over every prefix of the path from the root down to the
    /// path itself (inclusive), e.g. `/a/b` yields `/`, `/a`, `/a/b`.
    pub fn ancestors_from_root(&self) -> impl Iterator<Item = NsPath> + '_ {
        (0..=self.depth()).map(move |i| self.prefix(i))
    }

    /// A path from text already in canonical form, such as the name
    /// space builds from names it validated on insert.
    pub(crate) fn from_canonical(text: String) -> NsPath {
        NsPath { text: text.into() }
    }

    /// A path from the canonical text of a non-root path, or the root
    /// from empty text (the text before a path's first `/`).
    fn of(text: &str) -> NsPath {
        if text.is_empty() {
            NsPath::root()
        } else {
            NsPath { text: text.into() }
        }
    }

    /// `len` when a canonical text of that length is within
    /// [`NsPath::MAX_LEN`].
    fn bounded(len: usize) -> Result<usize, PathError> {
        if len > Self::MAX_LEN {
            return Err(PathError::TooLong(len));
        }
        Ok(len)
    }

    /// The length of `s` without one trailing `/`, once every component
    /// and the bound are checked.
    fn canonical_len(s: &str) -> Result<usize, PathError> {
        if s == "/" {
            return Ok(1);
        }
        let Some(rest) = s.strip_prefix('/') else {
            return Err(PathError::NotAbsolute(s.to_string()));
        };
        let rest = rest.strip_suffix('/').unwrap_or(rest);
        let mut names = rest.as_bytes().split(|&b| b == b'/');
        match names.find(|name| !Self::valid_name(name)) {
            // A piece of a `str` cut at an ASCII byte: valid UTF-8.
            Some(bad) => Err(PathError::BadComponent(
                String::from_utf8_lossy(bad).into_owned(),
            )),
            None => Self::bounded(rest.len() + 1),
        }
    }
}

/// The components of a path, outermost first, each a slice of its text.
#[derive(Clone, Debug)]
pub struct Components<'a> {
    /// The components not yet yielded, `/`-joined.
    rest: &'a str,
}

impl<'a> Iterator for Components<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.rest.is_empty() {
            return None;
        }
        match self.rest.bytes().position(|b| b == b'/') {
            Some(slash) => {
                let name = &self.rest[..slash];
                self.rest = &self.rest[slash + 1..];
                Some(name)
            }
            None => Some(std::mem::take(&mut self.rest)),
        }
    }
}

/// The length of the longest common prefix of `a` and `b`, compared a
/// word at a time: on paths of about 25 bytes, `BTreeMap<NsPath, _>`
/// lookups run about a quarter faster than with a byte-wise scan
/// (x86-64).
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let start = 8 * words.take_while(|(x, y)| x == y).count();
    let bytes = a[start..].iter().zip(&b[start..]);
    start + bytes.take_while(|(x, y)| x == y).count()
}

impl Default for NsPath {
    fn default() -> Self {
        NsPath::root()
    }
}

/// Component-wise order in one pass over the text: at the first byte
/// that differs, a `/` (the end of a component) sorts below every other
/// byte, and where one text is a prefix of the other the shorter sorts
/// first, exactly as the component lists compare.
impl Ord for NsPath {
    fn cmp(&self, other: &Self) -> Ordering {
        let rank = |b: u8| if b == b'/' { 0 } else { u16::from(b) + 1 };
        let (a, b) = (self.text.as_bytes(), other.text.as_bytes());
        let same = common_prefix(a, b);
        match (a.get(same), b.get(same)) {
            (Some(&x), Some(&y)) => rank(x).cmp(&rank(y)),
            _ => a.len().cmp(&b.len()),
        }
    }
}

impl PartialOrd for NsPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Serialize for NsPath {
    fn serialize(&self) -> Content {
        let components = self.components().map(|c| Content::Str(c.to_string()));
        Content::Map(vec![(
            "components".to_string(),
            Content::Seq(components.collect()),
        )])
    }
}

impl Deserialize for NsPath {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let map = content.as_map().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected map for struct NsPath, got {}",
                content.kind()
            ))
        })?;
        let components: Vec<String> = serde::__field(map, "components")?;
        NsPath::from_components(components).map_err(serde::Error::custom)
    }
}

impl FromStr for NsPath {
    type Err = PathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let len = Self::canonical_len(s)?;
        Ok(NsPath {
            text: s[..len].into(),
        })
    }
}

/// Parses an owned path string, keeping its buffer.
impl TryFrom<String> for NsPath {
    type Error = PathError;

    fn try_from(mut s: String) -> Result<Self, Self::Error> {
        let len = Self::canonical_len(&s)?;
        s.truncate(len);
        Ok(NsPath {
            text: s.into_boxed_str(),
        })
    }
}

impl fmt::Display for NsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["/", "/a", "/a/b/c", "/svc/fs.read/x-1"] {
            let p: NsPath = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn trailing_slash_tolerated() {
        let p: NsPath = "/a/b/".parse().unwrap();
        assert_eq!(p.to_string(), "/a/b");
    }

    #[test]
    fn rejects_relative_and_bad_components() {
        assert!(matches!(
            "a/b".parse::<NsPath>(),
            Err(PathError::NotAbsolute(_))
        ));
        assert!(matches!(
            "".parse::<NsPath>(),
            Err(PathError::NotAbsolute(_))
        ));
        for bad in ["/a//b", "/a/./b", "/a/../b"] {
            assert!(
                matches!(bad.parse::<NsPath>(), Err(PathError::BadComponent(_))),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn parent_and_leaf() {
        let p: NsPath = "/a/b".parse().unwrap();
        assert_eq!(p.leaf(), Some("b"));
        assert_eq!(p.parent().unwrap().to_string(), "/a");
        assert_eq!(p.parent().unwrap().parent().unwrap(), NsPath::root());
        assert_eq!(NsPath::root().parent(), None);
        assert_eq!(NsPath::root().leaf(), None);
    }

    #[test]
    fn join_validates() {
        let p = NsPath::root().join("a").unwrap();
        assert_eq!(p.to_string(), "/a");
        assert!(p.join("b/c").is_err());
        assert!(p.join("..").is_err());
        assert!(p.join("").is_err());
    }

    #[test]
    fn text_is_bounded() {
        // `/` plus 4 095 name bytes is exactly the bound.
        let widest = format!("/{}", "a".repeat(NsPath::MAX_LEN - 1));
        let path: NsPath = widest.parse().unwrap();
        assert_eq!(path.as_str().len(), NsPath::MAX_LEN);
        assert_eq!(NsPath::try_from(widest.clone()), Ok(path.clone()));
        // A trailing `/` is not part of the canonical text.
        assert_eq!(format!("{widest}/").parse::<NsPath>(), Ok(path.clone()));
        let over = format!("{widest}b");
        let too_long = Err(PathError::TooLong(NsPath::MAX_LEN + 1));
        assert_eq!(over.parse::<NsPath>(), too_long);
        assert_eq!(NsPath::try_from(over.clone()), too_long);
        assert_eq!(
            NsPath::from_components([&over[1..]]),
            Err(PathError::TooLong(NsPath::MAX_LEN + 1))
        );
        // A join across the bound is refused; one up to it is not.
        let base = format!("/{}", "a".repeat(NsPath::MAX_LEN - 4))
            .parse::<NsPath>()
            .unwrap();
        assert_eq!(base.join("b").unwrap().as_str().len(), NsPath::MAX_LEN - 1);
        assert_eq!(base.join("bc").unwrap().as_str().len(), NsPath::MAX_LEN);
        assert_eq!(
            base.join("bcd"),
            Err(PathError::TooLong(NsPath::MAX_LEN + 1))
        );
        assert_eq!(
            NsPath::root().join(&"a".repeat(NsPath::MAX_LEN)),
            Err(PathError::TooLong(NsPath::MAX_LEN + 1))
        );
    }

    #[test]
    fn starts_with() {
        let p: NsPath = "/a/b/c".parse().unwrap();
        assert!(p.starts_with(&NsPath::root()));
        assert!(p.starts_with(&"/a/b".parse().unwrap()));
        assert!(p.starts_with(&p.clone()));
        assert!(!p.starts_with(&"/a/x".parse().unwrap()));
        assert!(!p.starts_with(&"/a/b/c/d".parse().unwrap()));
    }

    #[test]
    fn ancestors_from_root() {
        let p: NsPath = "/a/b".parse().unwrap();
        let all: Vec<String> = p.ancestors_from_root().map(|a| a.to_string()).collect();
        assert_eq!(all, vec!["/", "/a", "/a/b"]);
        assert_eq!(p.prefix(1).to_string(), "/a");
        assert_eq!(p.prefix(9), p);
    }
}
