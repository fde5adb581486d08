//! SBML document wrapper: `<sbml level="2" version="4"><model .../></sbml>`.

use sbml_xml::{Document, Element};

use crate::error::ModelError;
use crate::model::Model;

/// The SBML Level 2 namespace (version 4).
pub const SBML_NS: &str = "http://www.sbml.org/sbml/level2/version4";

/// A parsed SBML document.
#[derive(Debug, Clone, PartialEq)]
pub struct SbmlDocument {
    /// SBML level (2 for everything this library produces).
    pub level: u32,
    /// SBML version within the level.
    pub version: u32,
    /// The model.
    pub model: Model,
}

impl SbmlDocument {
    /// Wrap a model in a Level 2 Version 4 document.
    pub fn new(model: Model) -> SbmlDocument {
        SbmlDocument { level: 2, version: 4, model }
    }

    /// Parse SBML text.
    pub fn parse(text: &str) -> Result<SbmlDocument, ModelError> {
        let doc = sbml_xml::parse_document(text)?;
        Self::from_root(&doc.root)
    }

    /// Build from a parsed `<sbml>` root element (or a bare `<model>`).
    pub fn from_root(root: &Element<'_>) -> Result<SbmlDocument, ModelError> {
        if root.name == "model" {
            // Tolerate bare models (useful in tests and fragments).
            return Ok(SbmlDocument::new(Model::from_element(root)?));
        }
        if root.name != "sbml" {
            return Err(ModelError::structure(format!(
                "expected <sbml> root, found <{}>",
                root.name
            )));
        }
        let level = root.attr("level").and_then(|v| v.parse().ok()).unwrap_or(2);
        let version = root.attr("version").and_then(|v| v.parse().ok()).unwrap_or(4);
        let model_el = root
            .child("model")
            .ok_or_else(|| ModelError::structure("<sbml> has no <model> child"))?;
        Ok(SbmlDocument { level, version, model: Model::from_element(model_el)? })
    }

    /// Serialize to SBML text (pretty-printed).
    pub fn to_xml(&self) -> String {
        write_document(self.level, self.version, &self.model)
    }
}

/// Serialize `model` in an `<sbml>` wrapper of the given level and version.
fn write_document(level: u32, version: u32, model: &Model) -> String {
    let root = Element::new("sbml")
        .with_attr("xmlns", SBML_NS)
        .with_attr("level", level.to_string())
        .with_attr("version", version.to_string())
        .with_child(model.to_element());
    sbml_xml::write_pretty(&Document::with_root(root))
}

/// Parse SBML text directly into a [`Model`].
pub fn parse_sbml(text: &str) -> Result<Model, ModelError> {
    Ok(SbmlDocument::parse(text)?.model)
}

/// Serialize a [`Model`] as a complete SBML Level 2 Version 4 document
/// string.
pub fn write_sbml(model: &Model) -> String {
    write_document(2, 4, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    #[test]
    fn document_round_trip() {
        let model = ModelBuilder::new("doc_test")
            .compartment("cell", 1.0)
            .species("A", 5.0)
            .parameter("k", 0.3)
            .reaction("r", &["A"], &[], "k*A")
            .build();
        let text = write_sbml(&model);
        assert!(text.contains("<?xml"));
        assert!(text.contains("<sbml"));
        assert!(text.contains("level=\"2\""));
        let back = parse_sbml(&text).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn bare_model_tolerated() {
        let doc = SbmlDocument::parse("<model id=\"m\"/>").unwrap();
        assert_eq!(doc.model.id, "m");
        assert_eq!(doc.level, 2);
    }

    #[test]
    fn wrong_root_rejected() {
        assert!(SbmlDocument::parse("<html/>").is_err());
        assert!(SbmlDocument::parse("<sbml level=\"2\" version=\"4\"/>").is_err());
    }

    #[test]
    fn level_version_read() {
        let doc = SbmlDocument::parse(
            "<sbml level=\"2\" version=\"3\"><model id=\"x\"/></sbml>",
        )
        .unwrap();
        assert_eq!(doc.level, 2);
        assert_eq!(doc.version, 3);
    }

    #[test]
    fn malformed_xml_surfaces_as_xml_error() {
        let err = SbmlDocument::parse("<sbml><model></sbml>").unwrap_err();
        assert!(matches!(err, ModelError::Xml(_)));
    }
}
