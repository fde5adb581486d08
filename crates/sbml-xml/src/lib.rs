//! From-scratch XML parsing and serialization for SBML documents.
//!
//! The EDBT 2010 paper ("Biochemical network matching and composition")
//! operates on biochemical models encoded in SBML, an XML dialect. The Rust
//! ecosystem has no SBML-aware XML layer, so this crate provides one built
//! from first principles:
//!
//! * [`tokenizer`] — a pull tokenizer producing a stream of
//!   [`tokenizer::Token`]s that borrow from the input, with line/column
//!   positions,
//! * [`dom`] — an ordered-attribute DOM ([`Element`]/[`Node`]) built from the
//!   token stream, whose names, attributes and text are `Cow<'a, str>`: a
//!   parsed tree borrows from the input and a built tree can borrow from the
//!   data it serializes,
//! * [`writer`] — compact and pretty serializers that round-trip documents,
//! * [`escape`] — entity escaping/unescaping including numeric character
//!   references.
//!
//! The parser is deliberately a *subset* of XML 1.0 sufficient for SBML and
//! MathML: elements, attributes, text, CDATA, comments, processing
//! instructions and the XML declaration. DOCTYPE internal subsets are
//! skipped. Namespace prefixes are preserved verbatim in names (SBML merging
//! compares qualified names textually, so prefix-rewriting is not needed).
//!
//! # Example
//!
//! ```
//! use sbml_xml::parse_document;
//!
//! let doc = parse_document(
//!     "<model id=\"m1\"><listOfSpecies><species id=\"A\"/></listOfSpecies></model>",
//! )
//! .unwrap();
//! assert_eq!(doc.root.name, "model");
//! assert_eq!(doc.root.attr("id"), Some("m1"));
//! assert_eq!(doc.root.find_descendants("species").count(), 1);
//! ```

pub mod dom;
pub mod error;
pub mod escape;
pub mod tokenizer;
pub mod writer;

pub use dom::{Children, Document, Element, Node, NodeRef};
pub use error::{Position, XmlError};
pub use tokenizer::{Attribute, Token, Tokenizer};
pub use writer::{write_compact, write_pretty, WriteOptions};

/// Parse a complete XML document into a DOM [`Document`] that borrows from
/// `input`.
///
/// Returns an error when the input is not well formed (mismatched tags,
/// bad entities, stray content after the root element, ...).
pub fn parse_document(input: &str) -> Result<Document<'_>, XmlError> {
    dom::Document::parse(input)
}

/// Parse a single XML element (fragment); leading/trailing whitespace,
/// comments and processing instructions around it are permitted.
pub fn parse_element(input: &str) -> Result<Element<'_>, XmlError> {
    Ok(dom::Document::parse(input)?.root)
}
