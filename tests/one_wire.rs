//! The "one wire" law under hostile bytes. Real documents — the final
//! Fig. 9A and 9B wires and a 16-step encrypted chain — are mutated one way
//! at a time: a flipped byte, a truncation, a duplicated span, a space at a
//! tag boundary, two attributes swapped, a character written as a numeric
//! reference. Whatever the mutation, `parse` returns instead of panicking,
//! and whatever it accepts re-serialises to exactly the bytes it was given,
//! so an accepted wire is its own canonical form.

use dra4wfms::prelude::*;
use dra4wfms::xml::{parse, writer::to_string};
use dra_bench::{fig9, rig::Rig};
use proptest::prelude::*;
use proptest::sample::Index;
use std::sync::OnceLock;

/// The seed wires, made once per test binary.
fn wires() -> &'static [String; 3] {
    static WIRES: OnceLock<[String; 3]> = OnceLock::new();
    WIRES.get_or_init(|| {
        let last = |advanced| fig9::walk(advanced).pop().expect("a walk").document;
        let chain = Rig::chain(16, true, |i| format!("value-{i:04}")).walked("one-wire");
        [last(false), last(true), chain.to_xml_string()]
    })
}

/// The `k`-th position (mod their count) of `s` where `hit` holds, if any.
fn nth(s: &[u8], k: Index, hit: impl Fn(&[u8], usize) -> bool) -> Option<usize> {
    let hits: Vec<usize> = (0..s.len()).filter(|&i| hit(s, i)).collect();
    (!hits.is_empty()).then(|| hits[k.index(hits.len())])
}

/// `wire` under mutation `kind`, placed by `at` and sized by `n`.
fn mutate(wire: &str, kind: usize, at: Index, n: u8) -> String {
    let mut b = wire.as_bytes().to_vec();
    let i = at.index(b.len());
    match kind {
        0 => b[i] ^= n.max(1),
        1 => b.truncate(i),
        2 => {
            let span = b[i..(i + 1 + usize::from(n) % 64).min(b.len())].to_vec();
            b.splice(i..i, span);
        }
        3 => {
            if let Some(p) = nth(&b, at, |s, j| matches!(s[j], b'<' | b'>')) {
                b.insert(p + usize::from(n % 2), b' ');
            }
        }
        4 => {
            // `a="x" b="y"` → `b="y" a="x"`
            let s = wire;
            if let Some(q) = nth(s.as_bytes(), at, |s, j| s[j..].starts_with(b"\" ")) {
                let open = s[..q].rfind('"').unwrap_or(0);
                let first = s[..open].rfind(' ').map_or(0, |p| p + 1);
                let second = q + 2;
                let end = s[second..]
                    .find("=\"")
                    .and_then(|v| s[second + v + 2..].find('"').map(|c| second + v + 3 + c));
                if let Some(end) = end {
                    let swapped = format!("{} {}", &s[second..end], &s[first..=q]);
                    return format!("{}{swapped}{}", &s[..first], &s[end..]);
                }
            }
        }
        _ => {
            if let Some(p) = nth(&b, at, |s, j| s[j].is_ascii_alphanumeric()) {
                let reference = format!("&#{};", b[p]);
                b.splice(p..=p, reference.bytes());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

#[test]
fn every_seed_wire_is_its_own_serialization() {
    for wire in wires() {
        assert_eq!(&to_string(&parse(wire).unwrap()), wire);
        assert_eq!(&DraDocument::parse(wire).unwrap().to_xml_string(), wire);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever a mutation leaves, `parse` answers with a tree or an error,
    /// and a tree it answers with writes back to the very bytes it read —
    /// as does a document that also passes the DRA schema check.
    #[test]
    fn prop_a_mutated_wire_is_refused_or_is_its_own_serialization(
        which in 0usize..3,
        kind in 0usize..6,
        at in any::<Index>(),
        n in any::<u8>(),
    ) {
        let mutated = mutate(&wires()[which], kind, at, n);
        if let Ok(tree) = parse(&mutated) {
            prop_assert_eq!(to_string(&tree), mutated.clone());
        }
        if let Ok(doc) = DraDocument::parse(&mutated) {
            prop_assert_eq!(doc.to_xml_string(), mutated);
        }
    }
}
