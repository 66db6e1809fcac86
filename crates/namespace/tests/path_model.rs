//! Property tests: `NsPath` behaves exactly like the list of component
//! strings it names. Components draw on bytes that sort below `/`
//! (`-`, `.`, space, `!`, U+0001) and on multi-byte UTF-8, where a
//! text-based path could most easily disagree with the list.

use extsec_namespace::NsPath;
use proptest::prelude::*;
use serde::Serialize;

/// The list form a path used to be stored as, and still serializes as.
#[derive(Serialize)]
struct Model {
    components: Vec<String>,
}

fn arb_component() -> impl Strategy<Value = String> {
    let alphabet = vec![
        "a", "b", "z", "0", "~", "-", ".", " ", "!", "\u{1}", "\u{7f}", "é", "日", "😀",
    ];
    proptest::collection::vec(prop::sample::select(alphabet), 1..4).prop_map(|parts| {
        let name = parts.concat();
        if NsPath::valid_component(&name) {
            name
        } else {
            format!("{name}x")
        }
    })
}

fn arb_components() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(arb_component(), 0..5)
}

/// Two component lists, the second often sharing a prefix with the
/// first and then, half the time, extending the first's next component
/// (`x` against `x-`), so order, prefix and shared-depth cases all come
/// up.
fn arb_pair() -> impl Strategy<Value = (Vec<String>, Vec<String>)> {
    (
        arb_components(),
        arb_components(),
        0usize..6,
        proptest::option::of(arb_component()),
    )
        .prop_map(|(a, tail, shared, extension)| {
            let shared = shared.min(a.len());
            let mut b: Vec<String> = a[..shared].to_vec();
            if let (Some(next), Some(extension)) = (a.get(shared), extension) {
                b.push(format!("{next}{extension}"));
            }
            b.extend(tail);
            (a, b)
        })
}

fn path(components: &[String]) -> NsPath {
    NsPath::from_components(components).expect("generated components are valid")
}

fn text(components: &[String]) -> String {
    format!("/{}", components.join("/"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn order_and_equality_follow_the_component_lists(pair in arb_pair()) {
        let (a, b) = pair;
        let (pa, pb) = (path(&a), path(&b));
        prop_assert_eq!(pa.cmp(&pb), a.cmp(&b), "{} vs {}", pa, pb);
        prop_assert_eq!(pb.cmp(&pa), b.cmp(&a), "{} vs {}", pb, pa);
        prop_assert_eq!(pa.partial_cmp(&pb), Some(a.cmp(&b)));
        prop_assert_eq!(pa == pb, a == b);
    }

    #[test]
    fn prefix_queries_follow_the_component_lists(pair in arb_pair()) {
        let (a, b) = pair;
        let (pa, pb) = (path(&a), path(&b));
        let starts = b.len() <= a.len() && a[..b.len()] == b[..];
        prop_assert_eq!(pa.starts_with(&pb), starts, "{} starts with {}", pa, pb);
        let rest = a.get(b.len()..).map(|rest| rest.join("/"));
        prop_assert_eq!(pa.strip_prefix(&pb).map(str::to_string), rest.filter(|_| starts));
        let joined = pb.components().try_fold(pa.clone(), |p, name| p.join(name));
        prop_assert_eq!(joined, Ok(path(&[a.clone(), b.clone()].concat())));
    }

    #[test]
    fn structure_follows_the_component_list(a in arb_components(), name in arb_component()) {
        let p = path(&a);
        prop_assert_eq!(p.depth(), a.len());
        prop_assert_eq!(p.is_root(), a.is_empty());
        prop_assert_eq!(p.components().collect::<Vec<_>>(), a.iter().map(String::as_str).collect::<Vec<_>>());
        prop_assert_eq!(p.leaf(), a.last().map(String::as_str));
        prop_assert_eq!(p.parent(), a.split_last().map(|(_, init)| path(init)));
        for len in 0..=a.len() + 1 {
            prop_assert_eq!(p.prefix(len), path(&a[..len.min(a.len())]));
        }
        let ancestors: Vec<NsPath> = p.ancestors_from_root().collect();
        prop_assert_eq!(ancestors.len(), a.len() + 1);
        let mut joined = a.clone();
        joined.push(name.clone());
        prop_assert_eq!(p.join(&name), Ok(path(&joined)));
    }

    #[test]
    fn text_and_json_forms_are_unchanged(a in arb_components()) {
        let p = path(&a);
        let want = if a.is_empty() { "/".to_string() } else { text(&a) };
        prop_assert_eq!(p.to_string(), want.clone());
        prop_assert_eq!(p.as_str(), want.as_str());
        prop_assert_eq!(want.parse::<NsPath>(), Ok(p.clone()));
        prop_assert_eq!(NsPath::try_from(want), Ok(p.clone()));
        let json = serde_json::to_string(&p).expect("a path serializes");
        prop_assert_eq!(
            json.clone(),
            serde_json::to_string(&Model { components: a }).expect("the model serializes")
        );
        prop_assert_eq!(serde_json::from_str::<NsPath>(&json).ok(), Some(p));
    }
}

#[test]
fn a_component_prefix_is_not_a_path_prefix() {
    let p: NsPath = "/a/bc".parse().unwrap();
    let q: NsPath = "/a/b".parse().unwrap();
    assert!(!p.starts_with(&q));
    assert_eq!(p.strip_prefix(&q), None);
    assert!(q < p);
    // `-` sorts below `/` as a byte, but `/a` (a shorter list) still
    // comes before `/a-`, and `/a/b` before `/a-`.
    let dash: NsPath = "/a-".parse().unwrap();
    assert!("/a".parse::<NsPath>().unwrap() < dash);
    assert!(q < dash);
}

#[test]
fn json_that_names_no_valid_path_is_refused() {
    for json in [
        r#"{"components":["a/b"]}"#,
        r#"{"components":[""]}"#,
        r#"{"components":[".."]}"#,
        r#"{"parts":["a"]}"#,
        r#"["a"]"#,
    ] {
        assert!(serde_json::from_str::<NsPath>(json).is_err(), "{json}");
    }
}
