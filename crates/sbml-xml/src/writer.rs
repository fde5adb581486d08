//! Serialization of DOM trees back to XML text.
//!
//! Two styles are provided: [`write_compact`] (no added whitespace; suitable
//! for canonical comparison) and [`write_pretty`] (indented; suitable for
//! human inspection and the paper's §4.1.1 textual evaluation).

use crate::dom::{Document, Element, NodeRef};
use crate::escape::{escape_attr_into, escape_text_into};

/// Options controlling serialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOptions {
    /// Indent nested elements; `None` means compact output.
    pub indent: Option<usize>,
    /// Emit the `<?xml ...?>` declaration when the document has one.
    pub declaration: bool,
}

impl Default for WriteOptions {
    fn default() -> Self {
        WriteOptions { indent: Some(2), declaration: true }
    }
}

/// Serialize a document compactly (no inserted whitespace).
pub fn write_compact(doc: &Document<'_>) -> String {
    write_with(doc, WriteOptions { indent: None, declaration: true })
}

/// Serialize a document with 2-space indentation.
pub fn write_pretty(doc: &Document<'_>) -> String {
    write_with(doc, WriteOptions::default())
}

/// Serialize with explicit options.
pub fn write_with(doc: &Document<'_>, opts: WriteOptions) -> String {
    let mut out = String::with_capacity(256);
    if opts.declaration {
        if let Some(decl) = &doc.declaration {
            out.push_str("<?xml ");
            out.push_str(decl);
            out.push_str("?>");
            if opts.indent.is_some() {
                out.push('\n');
            }
        }
    }
    write_element(&mut out, &doc.root, 0, opts.indent);
    if opts.indent.is_some() {
        out.push('\n');
    }
    out
}

/// Serialize a single element (compact). Useful for canonical signatures of
/// subtrees, e.g. kinetic-law math during merging.
pub fn element_to_string(element: &Element<'_>) -> String {
    let mut out = String::with_capacity(64);
    write_element(&mut out, element, 0, None);
    out
}

fn write_element(out: &mut String, e: &Element<'_>, depth: usize, indent: Option<usize>) {
    pad(out, depth, indent);
    out.push('<');
    out.push_str(&e.name);
    for (k, v) in &e.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_attr_into(out, v);
        out.push('"');
    }

    // Significant children: everything except ignorable whitespace when
    // pretty-printing (whitespace-only text is re-generated by indentation).
    let significant = e.children.iter().filter(|n| match n {
        NodeRef::Text(t) => indent.is_none() || !t.trim().is_empty(),
        _ => true,
    });

    // Mixed/text content is written inline to avoid corrupting text with
    // indentation whitespace.
    let mut has_text = false;
    let mut any = false;
    for node in significant.clone() {
        any = true;
        has_text |= matches!(node, NodeRef::Text(_) | NodeRef::CData(_));
    }
    if !any {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let child_indent = if has_text { None } else { indent };

    for node in significant {
        match node {
            NodeRef::Element(child) => {
                if child_indent.is_some() {
                    out.push('\n');
                }
                write_element(out, child, depth + 1, child_indent);
            }
            NodeRef::Text(t) => escape_text_into(out, t),
            NodeRef::CData(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            NodeRef::Comment(t) => {
                if child_indent.is_some() {
                    out.push('\n');
                    pad(out, depth + 1, child_indent);
                }
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
        }
    }
    if child_indent.is_some() {
        out.push('\n');
        pad(out, depth, indent);
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

fn pad(out: &mut String, depth: usize, indent: Option<usize>) {
    if let Some(width) = indent {
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Document;

    fn round_trip_compact(xml: &str) -> String {
        let doc = Document::parse(xml).unwrap();
        write_with(&doc, WriteOptions { indent: None, declaration: false })
    }

    #[test]
    fn compact_round_trip_is_stable() {
        let xml = r#"<model id="m"><listOfSpecies><species id="A" compartment="c"/></listOfSpecies></model>"#;
        let once = round_trip_compact(xml);
        assert_eq!(once, xml);
        assert_eq!(round_trip_compact(&once), once, "idempotent");
    }

    #[test]
    fn escaping_survives_round_trip() {
        let xml = r#"<p name="a&lt;b&amp;c">x &lt; y</p>"#;
        let doc = Document::parse(xml).unwrap();
        assert_eq!(doc.root.attr("name"), Some("a<b&c"));
        let out = round_trip_compact(xml);
        let doc2 = Document::parse(&out).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn pretty_indents_pure_element_content() {
        let doc = Document::parse("<a><b><c/></b></a>").unwrap();
        let pretty = write_with(&doc, WriteOptions { indent: Some(2), declaration: false });
        assert_eq!(pretty, "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n");
    }

    #[test]
    fn pretty_keeps_text_inline() {
        let doc = Document::parse("<a><b>text</b></a>").unwrap();
        let pretty = write_with(&doc, WriteOptions { indent: Some(2), declaration: false });
        assert_eq!(pretty, "<a>\n  <b>text</b>\n</a>\n");
    }

    #[test]
    fn declaration_emitted() {
        let doc = Document::parse("<?xml version=\"1.0\"?><r/>").unwrap();
        let s = write_pretty(&doc);
        assert!(s.starts_with("<?xml version=\"1.0\"?>"));
        let s2 = write_with(&doc, WriteOptions { indent: Some(2), declaration: false });
        assert!(!s2.contains("<?xml"));
    }

    #[test]
    fn cdata_preserved() {
        let xml = "<r><![CDATA[a < b && c]]></r>";
        let out = round_trip_compact(xml);
        assert_eq!(out, xml);
    }

    #[test]
    fn comments_preserved_in_elements() {
        let xml = "<r><!--note--><x/></r>";
        let out = round_trip_compact(xml);
        assert_eq!(out, xml);
    }

    #[test]
    fn element_to_string_subtree() {
        let doc = Document::parse("<a><b k=\"v\">t</b></a>").unwrap();
        let b = doc.root.child("b").unwrap();
        assert_eq!(element_to_string(b), "<b k=\"v\">t</b>");
    }

    #[test]
    fn pretty_parse_round_trip_preserves_structure() {
        let xml = r#"<model id="m"><listOfReactions><reaction id="r1" reversible="false"><listOfReactants><speciesReference species="A"/></listOfReactants></reaction></listOfReactions></model>"#;
        let doc = Document::parse(xml).unwrap();
        let pretty = write_pretty(&doc);
        let reparsed = Document::parse(&pretty).unwrap();
        // Compare compact forms after stripping whitespace text nodes.
        fn strip(e: &mut crate::dom::Element) {
            e.children.retain(|n| !matches!(n, NodeRef::Text(t) if t.trim().is_empty()));
            for c in e.child_elements_mut() {
                strip(c);
            }
        }
        let mut a = doc.root.clone();
        let mut b = reparsed.root.clone();
        strip(&mut a);
        strip(&mut b);
        assert_eq!(a, b);
    }
}
