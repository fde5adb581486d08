//! Order-aware textual comparison of SBML documents (paper §4.1.1).
//!
//! "Available XML differencing utilities treated the order of XML components
//! as either important or unimportant. However for SBML the order of
//! components is relevant in some cases but irrelevant in others."
//!
//! This module canonicalises exactly that split:
//!
//! * **order-irrelevant**: children of every `listOf*` container and of
//!   `<model>`/`<sbml>` themselves — these are sets keyed by id-like
//!   attributes, so they are sorted by a stable key;
//! * **order-relevant**: everything inside `<math>` (operand order), event
//!   assignment lists (applied sequentially), `<piecewise>` pieces (first
//!   true wins), rule lists (evaluation order for algebraic systems) — left
//!   untouched.
//!
//! Attribute order is never significant in XML and is sorted everywhere.

use std::borrow::Cow;

use sbml_xml::{Document, Element, Node, NodeRef};

use crate::myers::unified;

/// Containers whose children keep document order.
fn order_relevant(name: &str) -> bool {
    matches!(
        name,
        "math"
            | "apply"
            | "piecewise"
            | "piece"
            | "otherwise"
            | "lambda"
            | "bvar"
            | "listOfEventAssignments"
            | "listOfRules"
            | "trigger"
            | "delay"
            | "notes"
            | "annotation"
            | "message"
    )
}

/// The sort key of an element under an order-irrelevant parent: tag name,
/// then the first identifying attribute, then the full serialized form as a
/// tiebreaker (so equal-id duplicates still sort deterministically).
fn sort_key<'e>(e: &'e Element<'_>) -> (&'e str, &'e str, String) {
    let ident = ["id", "species", "symbol", "variable", "kind", "name"]
        .iter()
        .find_map(|k| e.attr(k))
        .unwrap_or("");
    (&e.name, ident, sbml_xml::writer::element_to_string(e))
}

/// Canonicalise an SBML element tree for comparison; the result borrows
/// its names and text from `e`.
pub fn normalize_element<'e>(e: &'e Element<'_>) -> Element<'e> {
    let mut out = Element::new(e.name.as_ref());
    out.attrs = e.attrs.iter().map(|(k, v)| (Cow::Borrowed(&**k), Cow::Borrowed(&**v))).collect();
    out.attrs.sort();

    // Normalise children recursively, dropping comments and
    // whitespace-only text (serialization artefacts).
    let mut kids: Vec<Node> = Vec::with_capacity(e.children.len());
    for child in e.children.iter() {
        match child {
            NodeRef::Element(el) => kids.push(Node::Element(normalize_element(el))),
            NodeRef::Text(t) if t.trim().is_empty() => {}
            NodeRef::Text(t) => kids.push(Node::Text(Cow::Borrowed(t.trim()))),
            NodeRef::CData(t) => kids.push(Node::CData(Cow::Borrowed(t))),
            NodeRef::Comment(_) => {}
        }
    }
    if !order_relevant(&e.name) {
        kids.sort_by(|a, b| match (a, b) {
            (Node::Element(x), Node::Element(y)) => sort_key(x).cmp(&sort_key(y)),
            (Node::Element(_), _) => std::cmp::Ordering::Greater,
            (_, Node::Element(_)) => std::cmp::Ordering::Less,
            (x, y) => x.as_text().cmp(&y.as_text()),
        });
    }
    out.children = kids.into();
    out
}

/// Canonical pretty-printed form of an SBML document string.
///
/// Returns an error when the input is not well-formed XML.
pub fn normalized_sbml(text: &str) -> Result<String, sbml_xml::XmlError> {
    let doc = sbml_xml::parse_document(text)?;
    let normal = Document { declaration: None, root: normalize_element(&doc.root) };
    Ok(sbml_xml::write_pretty(&normal))
}

/// Are two SBML documents textually equivalent under SBML ordering rules?
pub fn sbml_equivalent(a: &str, b: &str) -> Result<bool, sbml_xml::XmlError> {
    Ok(normalized_sbml(a)? == normalized_sbml(b)?)
}

/// A unified diff between the canonical forms (empty when equivalent) —
/// the evaluation artefact of the paper's §4.1.1.
pub fn sbml_text_diff(a: &str, b: &str) -> Result<String, sbml_xml::XmlError> {
    let (na, nb) = (normalized_sbml(a)?, normalized_sbml(b)?);
    if na == nb {
        Ok(String::new())
    } else {
        Ok(unified(&na, &nb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn species_order_is_irrelevant() {
        let a = r#"<model><listOfSpecies><species id="A" compartment="c"/><species id="B" compartment="c"/></listOfSpecies></model>"#;
        let b = r#"<model><listOfSpecies><species id="B" compartment="c"/><species id="A" compartment="c"/></listOfSpecies></model>"#;
        assert!(sbml_equivalent(a, b).unwrap());
    }

    #[test]
    fn attribute_order_is_irrelevant() {
        let a = r#"<model><listOfSpecies><species id="A" compartment="c"/></listOfSpecies></model>"#;
        let b = r#"<model><listOfSpecies><species compartment="c" id="A"/></listOfSpecies></model>"#;
        assert!(sbml_equivalent(a, b).unwrap());
    }

    #[test]
    fn math_operand_order_is_relevant() {
        let a = "<model><listOfRules><assignmentRule variable=\"x\"><math><apply><minus/><ci>a</ci><ci>b</ci></apply></math></assignmentRule></listOfRules></model>";
        let b = "<model><listOfRules><assignmentRule variable=\"x\"><math><apply><minus/><ci>b</ci><ci>a</ci></apply></math></assignmentRule></listOfRules></model>";
        assert!(!sbml_equivalent(a, b).unwrap());
    }

    #[test]
    fn event_assignment_order_is_relevant() {
        let ea = |v: &str, val: &str| {
            format!(
                "<eventAssignment variable=\"{v}\"><math><cn>{val}</cn></math></eventAssignment>"
            )
        };
        let wrap = |inner: &str| {
            format!(
                "<model><listOfEvents><event><trigger><math><true/></math></trigger><listOfEventAssignments>{inner}</listOfEventAssignments></event></listOfEvents></model>"
            )
        };
        let a = wrap(&format!("{}{}", ea("x", "1"), ea("y", "2")));
        let b = wrap(&format!("{}{}", ea("y", "2"), ea("x", "1")));
        assert!(!sbml_equivalent(&a, &b).unwrap());
    }

    #[test]
    fn rule_order_is_relevant() {
        let rule = |v: &str| {
            format!("<assignmentRule variable=\"{v}\"><math><cn>1</cn></math></assignmentRule>")
        };
        let a = format!("<model><listOfRules>{}{}</listOfRules></model>", rule("x"), rule("y"));
        let b = format!("<model><listOfRules>{}{}</listOfRules></model>", rule("y"), rule("x"));
        assert!(!sbml_equivalent(&a, &b).unwrap());
    }

    #[test]
    fn whitespace_and_comments_ignored() {
        let a = "<model>\n  <listOfSpecies>\n    <!-- c -->\n    <species id=\"A\" compartment=\"c\"/>\n  </listOfSpecies>\n</model>";
        let b = r#"<model><listOfSpecies><species id="A" compartment="c"/></listOfSpecies></model>"#;
        assert!(sbml_equivalent(a, b).unwrap());
    }

    #[test]
    fn different_content_detected_with_diff() {
        let a = r#"<model><listOfSpecies><species id="A" compartment="c"/></listOfSpecies></model>"#;
        let b = r#"<model><listOfSpecies><species id="A" compartment="c" initialAmount="5"/></listOfSpecies></model>"#;
        assert!(!sbml_equivalent(a, b).unwrap());
        let d = sbml_text_diff(a, b).unwrap();
        assert!(d.contains("initialAmount"), "{d}");
        assert!(sbml_text_diff(a, a).unwrap().is_empty());
    }

    #[test]
    fn malformed_input_errors() {
        assert!(sbml_equivalent("<model>", "<model/>").is_err());
    }

    #[test]
    fn model_level_composition_through_model_api() {
        // Full circle with the model crate types.
        use sbml_model::builder::ModelBuilder;
        let m1 = ModelBuilder::new("m")
            .compartment("c", 1.0)
            .species("A", 1.0)
            .species("B", 2.0)
            .build();
        let mut m2 = m1.clone();
        m2.species.swap(0, 1);
        let x1 = sbml_model::write_sbml(&m1);
        let x2 = sbml_model::write_sbml(&m2);
        assert_ne!(x1, x2, "raw text differs");
        assert!(sbml_equivalent(&x1, &x2).unwrap(), "canonical form agrees");
    }
}
