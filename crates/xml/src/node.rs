//! The XML element tree: immutable, shared nodes with a per-node memo.
//!
//! Child elements are held as `Arc<Element>`, so cloning an element — and
//! with it a whole document — copies one child vector of pointers, not the
//! subtree. A document handed from hop to hop is therefore *shared*: the
//! AEA that appends one CER, the portal that admits the result and the
//! inbox that parks it for the next participant all point at the same
//! Header, ApplicationDefinition and old CER nodes.
//!
//! **One form.** An element keeps its attributes sorted by name
//! ([`Element::set_attr`] inserts in place), and [`Element::text`] adds no
//! empty text. So the one serialisation [`crate::writer`] emits needs no
//! sort, and every tree the builders make is one [`crate::parser`] accepts
//! back.
//!
//! **What is memoised.** Each element lazily memoises, in one allocation
//! ([`Canon`]), the bytes of its subtree — the wire bytes, which are also the
//! bytes a signature covers ([`crate::canon`]) — and their SHA-256. Both are
//! pure functions of the subtree, so every holder of a shared node may use
//! them, and the bytes are written only by this crate's own walk of the
//! tree, never copied from bytes somebody sent.
//!
//! **What invalidates it.** Every `&mut` accessor drops the memo of the
//! element it is called on; the ones that hand out a child
//! ([`Element::find_child_mut`]) first make that child unique with
//! `Arc::make_mut` and drop its memo too. Code that mutates `children`
//! through the public field must call [`Element::invalidate_canon`]
//! afterwards.
//!
//! **Why a mutated clone cannot leak into its sibling.** There is no way
//! to reach `&mut Element` behind a shared `Arc`: `Arc::make_mut` copies
//! the node (its child *pointers*, not the children) when anyone else
//! holds it, and the copy's memo is dropped before the caller sees it. The
//! sibling keeps the original node, bytes, digest and all. Clones that
//! still share one memo have not been mutated since, so a digest one of
//! them fills late is true of all of them.

use std::sync::{Arc, OnceLock};

/// A node in an element's child list: a nested element or a text run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// A nested element, shared between every tree that contains it.
    Element(Arc<Element>),
    /// A text run (unescaped form).
    Text(String),
}

/// The memo an [`Element`] carries: the bytes of its subtree, written when
/// the memo is made, and their SHA-256, hashed on first use.
pub struct Canon {
    bytes: Box<str>,
    digest: OnceLock<[u8; 32]>,
}

impl Canon {
    /// The subtree's bytes: its wire form, and what a signature covers.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_bytes()
    }

    /// SHA-256 of the bytes; hashed once, then read.
    pub fn digest(&self) -> [u8; 32] {
        *self.digest.get_or_init(|| dra_crypto::sha256(self.bytes()))
    }
}

/// An XML element: name, attributes (sorted by name) and children.
///
/// See the module docs for what the memo holds and what drops it.
#[derive(Clone, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes, sorted by name, each name once.
    pub(crate) attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
    /// The memoized bytes of this subtree and their digest.
    memo: OnceLock<Arc<Canon>>,
}

impl PartialEq for Element {
    fn eq(&self, other: &Element) -> bool {
        // The memo is derived state and must not affect equality.
        self.name == other.name && self.attrs == other.attrs && self.children == other.children
    }
}

impl Eq for Element {}

impl std::fmt::Debug for Element {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Element")
            .field("name", &self.name)
            .field("attrs", &self.attrs)
            .field("children", &self.children)
            .finish()
    }
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Element {
        Element { name: name.into(), ..Element::default() }
    }

    /// Drop this element's memo. Required after mutating `children`
    /// directly through the public field; the invalidating accessors below
    /// call it automatically.
    pub fn invalidate_canon(&mut self) {
        self.memo.take();
    }

    /// The memo, if it was made.
    pub(crate) fn memo_cached(&self) -> Option<&Arc<Canon>> {
        self.memo.get()
    }

    /// The memo, made on first use by one walk of [`crate::writer`], which
    /// copies every memoized node below instead of walking it.
    pub(crate) fn memo(&self) -> &Arc<Canon> {
        self.memo.get_or_init(|| {
            let bytes = crate::writer::format(self);
            crate::canon::count_alloc(bytes.len() as u64);
            Arc::new(Canon { bytes: bytes.into_boxed_str(), digest: OnceLock::new() })
        })
    }

    /// The bytes of this subtree — what [`crate::writer::to_string`] returns
    /// for it — memoized on the element. The writer copies them wherever it
    /// meets this node afterwards, in whichever tree shares it.
    pub fn wire(&self) -> &str {
        &self.memo().bytes
    }

    /// The attributes, sorted by name.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attrs
    }

    /// Builder: add or replace an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Element {
        self.set_attr(key, value);
        self
    }

    /// Builder: append a child element.
    pub fn child(mut self, el: Element) -> Element {
        self.push_child(el);
        self
    }

    /// Builder: append a text node; an empty text adds none.
    pub fn text(mut self, s: impl Into<String>) -> Element {
        let s = s.into();
        if !s.is_empty() {
            self.invalidate_canon();
            self.children.push(Node::Text(s));
        }
        self
    }

    /// Set or replace an attribute in place, keeping the names sorted.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.invalidate_canon();
        let (key, value) = (key.into(), value.into());
        match self.attrs.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (key, value)),
        }
    }

    /// Append a child element in place.
    pub fn push_child(&mut self, el: Element) {
        self.invalidate_canon();
        self.children.push(Node::Element(Arc::new(el)));
    }

    /// Get an attribute value. A scan: elements carry a handful of
    /// attributes, where it beats a binary search.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn find_child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Mutable variant of [`Element::find_child`]. The found child is made
    /// unique first (a node shared with another tree is copied, children
    /// still shared), and the canon memo of both this element and the
    /// child is dropped, since the caller may mutate either through the
    /// returned reference.
    pub fn find_child_mut(&mut self, name: &str) -> Option<&mut Element> {
        self.invalidate_canon();
        self.children.iter_mut().find_map(|n| match n {
            Node::Element(e) if e.name == name => {
                let e = Arc::make_mut(e);
                e.invalidate_canon();
                Some(e)
            }
            _ => None,
        })
    }

    /// All child elements with the given name.
    pub fn find_children<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// All child elements (skipping text nodes).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.shared_children().map(Arc::as_ref)
    }

    /// All child elements as the shared pointers the tree holds — what to
    /// `Arc::clone` to graft a subtree without copying it, or to
    /// `Arc::ptr_eq` to see whether two trees hold the same node.
    pub fn shared_children(&self) -> impl Iterator<Item = &Arc<Element>> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Concatenated text content of direct text children.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Number of descendant elements (including self); used by size metrics.
    pub fn element_count(&self) -> usize {
        1 + self.child_elements().map(Element::element_count).sum::<usize>()
    }

    /// Remove all children with the given element name; returns how many were
    /// removed.
    pub fn remove_children(&mut self, name: &str) -> usize {
        self.invalidate_canon();
        let before = self.children.len();
        self.children.retain(|n| !matches!(n, Node::Element(e) if e.name == name));
        before - self.children.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("root")
            .attr("id", "r1")
            .child(Element::new("a").text("alpha"))
            .child(Element::new("b").attr("k", "v"))
            .child(Element::new("a").text("beta"))
            .text("tail")
    }

    #[test]
    fn attrs() {
        let mut e = sample();
        assert_eq!(e.get_attr("id"), Some("r1"));
        assert_eq!(e.get_attr("missing"), None);
        e.set_attr("id", "r2");
        assert_eq!(e.get_attr("id"), Some("r2"));
        assert_eq!(e.attrs.len(), 1, "replace, not duplicate");
    }

    #[test]
    fn attrs_are_kept_sorted_and_empty_text_adds_nothing() {
        let mut e = Element::new("e").attr("m", "1").attr("z", "2").attr("a", "3").text("");
        e.set_attr("b", "4");
        e.set_attr("m", "5");
        let names: Vec<&str> = e.attrs().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a", "b", "m", "z"]);
        assert_eq!((e.get_attr("m"), e.get_attr("c")), (Some("5"), None));
        assert!(e.children.is_empty());
    }

    #[test]
    fn find_children() {
        let e = sample();
        assert_eq!(e.find_child("a").unwrap().text_content(), "alpha");
        assert_eq!(e.find_children("a").count(), 2);
        assert!(e.find_child("zzz").is_none());
    }

    #[test]
    fn element_count() {
        assert_eq!(sample().element_count(), 4);
        assert_eq!(Element::new("leaf").element_count(), 1);
    }

    #[test]
    fn remove_children() {
        let mut e = sample();
        assert_eq!(e.remove_children("a"), 2);
        assert_eq!(e.find_children("a").count(), 0);
        assert!(e.find_child("b").is_some(), "others untouched");
    }

    #[test]
    fn memo_digest_does_not_grow_the_element() {
        use std::mem::size_of;
        assert_eq!(
            size_of::<Element>(),
            size_of::<(String, Vec<(String, String)>, Vec<Node>, OnceLock<Arc<Vec<u8>>>)>()
        );
    }

    #[test]
    fn text_content_skips_elements() {
        assert_eq!(sample().text_content(), "tail");
    }
}
