//! Shared attribute-parsing helpers for the XML binding.
//!
//! Reading makes exactly the copies the `Model` keeps: attribute values
//! are borrowed from the parsed tree until [`req_attr`]/[`opt_attr`] copy
//! them out, lists are sized before they are filled, and error contexts
//! are formatted only when an error is raised.

use std::fmt;

use sbml_xml::Element;

use crate::error::ModelError;

/// Required string attribute, borrowed.
pub(crate) fn req_str<'e>(e: &'e Element<'_>, key: &str) -> Result<&'e str, ModelError> {
    e.attr(key).ok_or_else(|| {
        ModelError::structure(format!("<{}> missing required attribute {key:?}", e.name))
    })
}

/// Required string attribute.
pub(crate) fn req_attr(e: &Element<'_>, key: &str) -> Result<String, ModelError> {
    req_str(e, key).map(str::to_owned)
}

/// Optional string attribute.
pub(crate) fn opt_attr(e: &Element<'_>, key: &str) -> Option<String> {
    e.attr(key).map(str::to_owned)
}

/// Optional f64 attribute.
pub(crate) fn opt_f64(e: &Element<'_>, key: &str) -> Result<Option<f64>, ModelError> {
    match e.attr(key) {
        None => Ok(None),
        Some(raw) => raw.trim().parse::<f64>().map(Some).map_err(|_| {
            ModelError::structure(format!("<{}> attribute {key}={raw:?} is not a number", e.name))
        }),
    }
}

/// Optional bool attribute with a default.
pub(crate) fn bool_attr(e: &Element<'_>, key: &str, default: bool) -> Result<bool, ModelError> {
    match e.attr(key) {
        None => Ok(default),
        Some("true") | Some("1") => Ok(true),
        Some("false") | Some("0") => Ok(false),
        Some(other) => Err(ModelError::structure(format!(
            "<{}> attribute {key}={other:?} is not a boolean",
            e.name
        ))),
    }
}

/// Optional i32 attribute.
pub(crate) fn opt_i32(e: &Element<'_>, key: &str) -> Result<Option<i32>, ModelError> {
    match e.attr(key) {
        None => Ok(None),
        Some(raw) => raw.trim().parse::<i32>().map(Some).map_err(|_| {
            ModelError::structure(format!("<{}> attribute {key}={raw:?} is not an integer", e.name))
        }),
    }
}

/// The elements named `item` inside `parent`'s child `list`, each read
/// with `read`, in an exactly sized vector (empty when `list` is absent).
pub(crate) fn read_list<T>(
    parent: &Element<'_>,
    list: &str,
    item: &str,
    read: impl Fn(&Element<'_>) -> Result<T, ModelError>,
) -> Result<Vec<T>, ModelError> {
    let Some(list) = parent.child(list) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(list.children_named(item).count());
    for element in list.children_named(item) {
        out.push(read(element)?);
    }
    Ok(out)
}

/// Set an attribute, borrowing the value, only when it is present.
pub(crate) fn set_opt<'a>(e: &mut Element<'a>, key: &'static str, value: &'a Option<String>) {
    if let Some(v) = value {
        e.set_attr(key, v.as_str());
    }
}

/// Set a float attribute only when present, using shortest representation.
pub(crate) fn set_opt_f64(e: &mut Element<'_>, key: &'static str, value: Option<f64>) {
    if let Some(v) = value {
        e.set_attr(key, sbml_math::writer::format_number(v));
    }
}

/// Parse the required `<math>` child of an element, with context for
/// errors (formatted only if there is one).
pub(crate) fn req_math_child(
    e: &Element<'_>,
    context: impl fmt::Display,
) -> Result<sbml_math::MathExpr, ModelError> {
    let Some(math) = e.child("math") else {
        return Err(ModelError::structure(format!("{context}: missing <math> child")));
    };
    sbml_math::parse_mathml(math)
        .map_err(|source| ModelError::Math { context: context.to_string(), source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_xml::parse_element;

    #[test]
    fn attribute_parsing() {
        let e = parse_element(r#"<x id="a" v="2.5" n="3" flag="true"/>"#).unwrap();
        assert_eq!(req_attr(&e, "id").unwrap(), "a");
        assert!(req_attr(&e, "missing").is_err());
        assert_eq!(opt_f64(&e, "v").unwrap(), Some(2.5));
        assert_eq!(opt_f64(&e, "absent").unwrap(), None);
        assert_eq!(opt_i32(&e, "n").unwrap(), Some(3));
        assert!(bool_attr(&e, "flag", false).unwrap());
        assert!(!bool_attr(&e, "off", false).unwrap());
    }

    #[test]
    fn bad_values_rejected() {
        let e = parse_element(r#"<x v="abc" flag="maybe" n="1.5"/>"#).unwrap();
        assert!(opt_f64(&e, "v").is_err());
        assert!(bool_attr(&e, "flag", false).is_err());
        assert!(opt_i32(&e, "n").is_err());
    }

    #[test]
    fn math_child_parsing() {
        let e = parse_element("<kineticLaw><math><ci>k</ci></math></kineticLaw>").unwrap();
        let m = req_math_child(&e, "test").unwrap();
        assert_eq!(m, sbml_math::MathExpr::ci("k"));

        let empty = parse_element("<kineticLaw/>").unwrap();
        let err = req_math_child(&empty, format_args!("reaction {:?} kineticLaw", "r1"));
        assert_eq!(
            err.unwrap_err(),
            ModelError::structure("reaction \"r1\" kineticLaw: missing <math> child")
        );
    }
}
