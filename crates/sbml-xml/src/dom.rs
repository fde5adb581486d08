//! An ordered-attribute DOM built from the token stream.
//!
//! SBML merging (the paper's Fig. 4/5 algorithms) repeatedly navigates
//! element trees, so [`Element`] keeps attributes in document order in a
//! `Vec` (SBML elements have few attributes; linear scans beat hashing)
//! and exposes builder-style constructors used heavily by `sbml-model`.
//!
//! Trees borrow: names, attribute values and text are `Cow<'a, str>`. A
//! parsed tree borrows every payload from the input text, except values
//! whose entities had to be unescaped. A built tree uses static tag and
//! attribute names and can borrow its values from the data it describes.
//! The parser sizes each element's attribute and child vectors exactly,
//! and an element whose only child is a text run (`<ci> k1 </ci>`, the
//! bulk of MathML) keeps that run inline without a vector, so a parsed
//! tree costs about one allocation per element that has element children
//! or attributes.

use std::borrow::Cow;
use std::fmt;

use crate::error::{Position, XmlError};
use crate::tokenizer::{Attribute, Token, Tokenizer};

/// A node in the element tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Node<'a> {
    /// A child element.
    Element(Element<'a>),
    /// A run of character data (already unescaped).
    Text(Cow<'a, str>),
    /// A CDATA section (kept verbatim, serialized back as CDATA).
    CData(Cow<'a, str>),
    /// A comment.
    Comment(Cow<'a, str>),
}

impl<'a> Node<'a> {
    /// This node as an element, if it is one.
    pub fn as_element(&self) -> Option<&Element<'a>> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// This node as a mutable element, if it is one.
    pub fn as_element_mut(&mut self) -> Option<&mut Element<'a>> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Text payload of text/CDATA nodes.
    pub fn as_text(&self) -> Option<&str> {
        self.as_node_ref().as_text()
    }

    /// A borrowed view of this node.
    pub fn as_node_ref(&self) -> NodeRef<'_> {
        match self {
            Node::Element(e) => NodeRef::Element(e),
            Node::Text(t) => NodeRef::Text(t),
            Node::CData(t) => NodeRef::CData(t),
            Node::Comment(t) => NodeRef::Comment(t),
        }
    }
}

/// A borrowed child node, as yielded by [`Children::iter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeRef<'n> {
    /// A child element.
    Element(&'n Element<'n>),
    /// A run of character data (already unescaped).
    Text(&'n str),
    /// A CDATA section.
    CData(&'n str),
    /// A comment.
    Comment(&'n str),
}

impl<'n> NodeRef<'n> {
    /// Text payload of text/CDATA nodes.
    pub fn as_text(self) -> Option<&'n str> {
        match self {
            NodeRef::Text(t) | NodeRef::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// The child nodes of an element, in document order.
///
/// A lone text child is stored inline, so text-only leaves such as
/// `<ci> k1 </ci>` need no vector; any other content is a `Vec<Node>`.
/// The representation is private and canonical: it depends only on the
/// sequence of nodes, so structural equality is sequence equality.
#[derive(Clone, PartialEq)]
pub struct Children<'a>(Repr<'a>);

#[derive(Clone, PartialEq)]
enum Repr<'a> {
    Nodes(Vec<Node<'a>>),
    /// Exactly one child, a text node.
    Text(Cow<'a, str>),
}

impl Default for Children<'_> {
    fn default() -> Self {
        Children(Repr::Nodes(Vec::new()))
    }
}

impl<'a> Children<'a> {
    /// Number of child nodes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Nodes(nodes) => nodes.len(),
            Repr::Text(_) => 1,
        }
    }

    /// True when there are no child nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over the child nodes in document order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = NodeRef<'_>> + Clone {
        let (inline, nodes) = match &self.0 {
            Repr::Nodes(nodes) => (None, nodes.as_slice()),
            Repr::Text(t) => (Some(NodeRef::Text(t)), &[][..]),
        };
        inline.into_iter().chain(nodes.iter().map(Node::as_node_ref))
    }

    /// The child nodes that are elements.
    pub fn elements(&self) -> impl DoubleEndedIterator<Item = &Element<'a>> + Clone {
        self.nodes().iter().filter_map(Node::as_element)
    }

    /// The child nodes that are elements, mutably.
    pub fn elements_mut(&mut self) -> impl Iterator<Item = &mut Element<'a>> {
        let nodes = match &mut self.0 {
            Repr::Nodes(nodes) => nodes.as_mut_slice(),
            Repr::Text(_) => &mut [],
        };
        nodes.iter_mut().filter_map(Node::as_element_mut)
    }

    /// Append a node.
    pub fn push(&mut self, node: Node<'a>) {
        match (&mut self.0, node) {
            (Repr::Nodes(nodes), Node::Text(t)) if nodes.is_empty() => self.0 = Repr::Text(t),
            (Repr::Nodes(nodes), node) => nodes.push(node),
            (Repr::Text(t), node) => {
                let first = Node::Text(std::mem::take(t));
                self.0 = Repr::Nodes(vec![first, node]);
            }
        }
    }

    /// Keep only the nodes for which `keep` returns true.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeRef<'_>) -> bool) {
        let nodes = match &mut self.0 {
            Repr::Nodes(nodes) => {
                nodes.retain(|n| keep(n.as_node_ref()));
                std::mem::take(nodes)
            }
            Repr::Text(t) if keep(NodeRef::Text(t)) => return,
            Repr::Text(_) => Vec::new(),
        };
        *self = Children::from(nodes);
    }

    /// The vector's nodes, or none for an inline text run.
    fn nodes(&self) -> &[Node<'a>] {
        match &self.0 {
            Repr::Nodes(nodes) => nodes,
            Repr::Text(_) => &[],
        }
    }

    /// Move the nodes from `first` to the end of `pending` into a new
    /// exactly sized child list.
    fn take_from(pending: &mut Vec<Node<'a>>, first: usize) -> Self {
        if pending.len() == first + 1 && matches!(pending.last(), Some(Node::Text(_))) {
            if let Some(Node::Text(t)) = pending.pop() {
                return Children(Repr::Text(t));
            }
        }
        Children(Repr::Nodes(pending.drain(first..).collect()))
    }
}

impl<'a> From<Vec<Node<'a>>> for Children<'a> {
    fn from(mut nodes: Vec<Node<'a>>) -> Self {
        if nodes.len() == 1 && matches!(nodes[0], Node::Text(_)) {
            return Children::take_from(&mut nodes, 0);
        }
        Children(Repr::Nodes(nodes))
    }
}

impl fmt::Debug for Children<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An XML element: qualified name, ordered attributes, ordered children.
///
/// Equality is structural — `position` (provenance only) is ignored.
#[derive(Debug, Clone, Default)]
pub struct Element<'a> {
    /// Qualified tag name (namespace prefix preserved verbatim).
    pub name: Cow<'a, str>,
    /// Attributes in document order; values are unescaped.
    pub attrs: Vec<Attribute<'a>>,
    /// Child nodes in document order.
    pub children: Children<'a>,
    /// Source position of the opening tag (`Position::START` for built trees).
    pub position: Position,
}

impl PartialEq for Element<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.attrs == other.attrs && self.children == other.children
    }
}

impl Eq for Element<'_> {}

impl<'a> Element<'a> {
    /// Create an empty element with the given tag name.
    pub fn new(name: impl Into<Cow<'a, str>>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Children::default(),
            position: Position::START,
        }
    }

    /// Builder: add an attribute.
    #[must_use]
    pub fn with_attr(
        mut self,
        key: impl Into<Cow<'a, str>>,
        value: impl Into<Cow<'a, str>>,
    ) -> Self {
        self.set_attr(key, value);
        self
    }

    /// Builder: append a child element.
    #[must_use]
    pub fn with_child(mut self, child: Element<'a>) -> Self {
        self.push_child(child);
        self
    }

    /// Builder: append a text node.
    #[must_use]
    pub fn with_text(mut self, text: impl Into<Cow<'a, str>>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_ref())
    }

    /// Set (replace or append) an attribute.
    pub fn set_attr(&mut self, key: impl Into<Cow<'a, str>>, value: impl Into<Cow<'a, str>>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// Remove an attribute; returns its previous value if present.
    pub fn remove_attr(&mut self, key: &str) -> Option<Cow<'a, str>> {
        let idx = self.attrs.iter().position(|(k, _)| k == key)?;
        Some(self.attrs.remove(idx).1)
    }

    /// Iterate over element children only.
    pub fn child_elements(&self) -> impl DoubleEndedIterator<Item = &Element<'a>> + Clone {
        self.children.elements()
    }

    /// Iterate mutably over element children only.
    pub fn child_elements_mut(&mut self) -> impl Iterator<Item = &mut Element<'a>> {
        self.children.elements_mut()
    }

    /// First element child with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element<'a>> {
        self.child_elements().find(|e| e.name == name)
    }

    /// First element child with the given tag name (mutable).
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Element<'a>> {
        self.child_elements_mut().find(|e| e.name == name)
    }

    /// All element children with the given tag name.
    pub fn children_named<'s>(
        &'s self,
        name: &'s str,
    ) -> impl DoubleEndedIterator<Item = &'s Element<'a>> + Clone + 's {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Depth-first iterator over all descendant elements (not including
    /// `self`) whose name matches.
    pub fn find_descendants<'s>(
        &'s self,
        name: &'s str,
    ) -> impl Iterator<Item = &'s Element<'a>> + 's {
        let mut stack: Vec<&Element<'a>> = self.child_elements().rev().collect();
        std::iter::from_fn(move || {
            while let Some(e) = stack.pop() {
                stack.extend(e.child_elements().rev());
                if e.name == name {
                    return Some(e);
                }
            }
            None
        })
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element<'a>) {
        self.children.push(Node::Element(child));
    }

    /// Concatenated text content of all text/CDATA descendants; borrowed
    /// when there is at most one text child and no element child.
    pub fn text(&self) -> Cow<'_, str> {
        let mut nodes = self.children.iter();
        match (nodes.next(), nodes.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(NodeRef::Text(t) | NodeRef::CData(t)), None) => Cow::Borrowed(t),
            _ => {
                let mut out = String::new();
                self.collect_text(&mut out);
                Cow::Owned(out)
            }
        }
    }

    fn collect_text(&self, out: &mut String) {
        for node in self.children.iter() {
            match node {
                NodeRef::Text(t) | NodeRef::CData(t) => out.push_str(t),
                NodeRef::Element(e) => e.collect_text(out),
                NodeRef::Comment(_) => {}
            }
        }
    }

    /// Number of elements in the subtree rooted here (including `self`).
    pub fn subtree_size(&self) -> usize {
        1 + self.child_elements().map(Element::subtree_size).sum::<usize>()
    }

    /// True when the element has no attributes and no non-comment children.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
            && self.children.iter().all(|n| match n {
                NodeRef::Comment(_) => true,
                NodeRef::Text(t) => t.trim().is_empty(),
                _ => false,
            })
    }
}

/// A parsed document: optional XML declaration plus a single root element.
#[derive(Debug, Clone, PartialEq)]
pub struct Document<'a> {
    /// Raw pseudo-attribute text of the `<?xml ...?>` declaration, if present.
    pub declaration: Option<Cow<'a, str>>,
    /// The root element.
    pub root: Element<'a>,
}

/// An element whose end tag has not been read yet.
struct Open<'a> {
    name: &'a str,
    attrs: Vec<Attribute<'a>>,
    position: Position,
    /// Where this element's children start in the shared pending list.
    first_child: usize,
}

impl<'a> Document<'a> {
    /// Wrap an element as a document with the standard declaration.
    pub fn with_root(root: Element<'a>) -> Self {
        Document { declaration: Some(Cow::Borrowed("version=\"1.0\" encoding=\"UTF-8\"")), root }
    }

    /// Parse a full document from text; the tree borrows from `input`.
    pub fn parse(input: &'a str) -> Result<Document<'a>, XmlError> {
        let mut tokens = Tokenizer::new(input);
        let mut declaration = None;
        let mut root: Option<Element<'a>> = None;
        // Open elements, innermost last; the bottom one becomes the root.
        let mut open: Vec<Open<'a>> = Vec::new();
        // Children of all open elements, each element's run contiguous and
        // above its parent's, so closing an element moves its run into an
        // exactly sized vector.
        let mut pending: Vec<Node<'a>> = Vec::new();

        while let Some(token) = tokens.next_token()? {
            let done = match token {
                Token::Declaration { content, .. } => {
                    declaration = Some(Cow::Borrowed(content));
                    continue;
                }
                Token::DoctypeSkipped { .. } | Token::ProcessingInstruction { .. } => continue,
                Token::Comment { content, .. } => {
                    // Comments in the prolog/epilog are dropped.
                    if !open.is_empty() {
                        pending.push(Node::Comment(Cow::Borrowed(content)));
                    }
                    continue;
                }
                Token::Text { content, at } => {
                    if !open.is_empty() {
                        pending.push(Node::Text(content));
                    } else if !content.trim().is_empty() {
                        return Err(XmlError::ContentOutsideRoot { at });
                    }
                    continue;
                }
                Token::CData { content, at } => {
                    if open.is_empty() {
                        return Err(XmlError::ContentOutsideRoot { at });
                    }
                    pending.push(Node::CData(Cow::Borrowed(content)));
                    continue;
                }
                Token::StartTag { name, attrs, self_closing, at } => {
                    if root.is_some() && open.is_empty() {
                        return Err(XmlError::MultipleRoots { at });
                    }
                    if !self_closing {
                        open.push(Open { name, attrs, position: at, first_child: pending.len() });
                        continue;
                    }
                    Element {
                        name: Cow::Borrowed(name),
                        attrs,
                        children: Children::default(),
                        position: at,
                    }
                }
                Token::EndTag { name, at } => {
                    let Some(top) = open.pop() else {
                        return Err(XmlError::UnopenedTag { name: name.to_owned(), at });
                    };
                    if top.name != name {
                        return Err(XmlError::MismatchedTag {
                            open: top.name.to_owned(),
                            close: name.to_owned(),
                            at,
                        });
                    }
                    Element {
                        name: Cow::Borrowed(top.name),
                        attrs: top.attrs,
                        children: Children::take_from(&mut pending, top.first_child),
                        position: top.position,
                    }
                }
            };
            if open.is_empty() {
                root = Some(done);
            } else {
                pending.push(Node::Element(done));
            }
        }

        if let Some(top) = open.pop() {
            return Err(XmlError::UnclosedTag { name: top.name.to_owned(), at: top.position });
        }
        let Some(root) = root else {
            return Err(XmlError::NoRootElement);
        };
        Ok(Document { declaration, root })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nested() {
        let doc = Document::parse("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.root.name, "a");
        assert_eq!(doc.root.children_named("b").count(), 2);
        assert!(doc.root.child("b").unwrap().child("c").is_some());
    }

    #[test]
    fn declaration_captured() {
        let doc = Document::parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r/>").unwrap();
        assert!(doc.declaration.unwrap().contains("UTF-8"));
    }

    #[test]
    fn attribute_helpers() {
        let mut e = Element::new("species").with_attr("id", "A").with_attr("name", "glc");
        assert_eq!(e.attr("id"), Some("A"));
        assert_eq!(e.attr("missing"), None);
        e.set_attr("id", "B");
        assert_eq!(e.attr("id"), Some("B"));
        assert_eq!(e.attrs.len(), 2, "set_attr must replace, not append");
        assert_eq!(e.remove_attr("name"), Some("glc".into()));
        assert_eq!(e.remove_attr("name"), None);
    }

    #[test]
    fn text_concatenation() {
        let doc = Document::parse("<p>a<b>b</b>c<!-- skip --><![CDATA[d]]></p>").unwrap();
        assert_eq!(doc.root.text(), "abcd");
    }

    #[test]
    fn find_descendants_depth_first_document_order() {
        let doc = Document::parse(
            "<m><l1><s id='1'/><s id='2'/></l1><l2><x><s id='3'/></x></l2></m>",
        )
        .unwrap();
        let ids: Vec<_> = doc.root.find_descendants("s").filter_map(|e| e.attr("id")).collect();
        assert_eq!(ids, ["1", "2", "3"]);
    }

    #[test]
    fn subtree_size_counts_elements() {
        let doc = Document::parse("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(doc.root.subtree_size(), 4);
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            Document::parse("<a><b></a></b>").unwrap_err(),
            XmlError::MismatchedTag { .. }
        ));
        assert!(matches!(Document::parse("<a>").unwrap_err(), XmlError::UnclosedTag { .. }));
        assert!(matches!(Document::parse("</a>").unwrap_err(), XmlError::UnopenedTag { .. }));
    }

    #[test]
    fn root_constraints() {
        assert!(matches!(Document::parse("  \n ").unwrap_err(), XmlError::NoRootElement));
        assert!(matches!(
            Document::parse("<a/><b/>").unwrap_err(),
            XmlError::MultipleRoots { .. }
        ));
        assert!(matches!(
            Document::parse("stray<a/>").unwrap_err(),
            XmlError::ContentOutsideRoot { .. }
        ));
    }

    #[test]
    fn prolog_comment_and_doctype_ok() {
        let doc =
            Document::parse("<!-- header --><!DOCTYPE sbml><r><!-- kept --></r>").unwrap();
        assert_eq!(doc.root.children.len(), 1);
        assert_eq!(doc.root.children.iter().next(), Some(NodeRef::Comment(" kept ")));
    }

    #[test]
    fn is_empty() {
        assert!(Element::new("x").is_empty());
        assert!(Document::parse("<x>  \n </x>").unwrap().root.is_empty());
        assert!(!Element::new("x").with_attr("a", "1").is_empty());
        assert!(!Element::new("x").with_text("t").is_empty());
    }

    #[test]
    fn parsed_trees_borrow_from_the_input() {
        let input = r#"<r a="v" b="x&amp;y"><ci> k1 </ci><c/></r>"#;
        let doc = Document::parse(input).unwrap();
        let root = &doc.root;
        assert!(matches!(root.name, Cow::Borrowed("r")));
        assert!(matches!(root.attrs[0].1, Cow::Borrowed("v")));
        assert!(matches!(root.attrs[1].1, Cow::Owned(ref v) if v == "x&y"));
        assert_eq!(root.attrs.capacity(), 2);
        let ci = root.child("ci").unwrap();
        assert!(matches!(ci.text(), Cow::Borrowed(" k1 ")));
        assert!(matches!(root.text(), Cow::Owned(ref t) if t == " k1 "));
    }

    #[test]
    fn lone_text_child_is_inline_and_canonical() {
        let mut built = Element::new("ci").with_text("x");
        let parsed = Document::parse("<ci>x</ci>").unwrap().root;
        assert_eq!(built, parsed);
        assert_eq!(built.children.len(), 1);
        built.children.push(Node::Comment("c".into()));
        built.push_child(Element::new("sep"));
        let texts: Vec<_> = built.children.iter().collect();
        assert_eq!(texts[0], NodeRef::Text("x"));
        assert_eq!(texts[1], NodeRef::Comment("c"));
        assert_eq!(built.children.len(), 3);
        assert_eq!(built.child_elements().count(), 1);
        assert_eq!(built, Document::parse("<ci>x<!--c--><sep/></ci>").unwrap().root);
        built.children.retain(|n| n.as_text().is_some());
        assert_eq!(built, parsed);
        let from_vec = Children::from(vec![Node::Text("x".into())]);
        assert_eq!(from_vec, parsed.children);
        assert!(matches!(from_vec.0, Repr::Text(_)));
    }

    #[test]
    fn whitespace_text_inside_elements_preserved() {
        let doc = Document::parse("<a> <b/> </a>").unwrap();
        // two whitespace text nodes plus the element
        assert_eq!(doc.root.children.len(), 3);
    }
}
