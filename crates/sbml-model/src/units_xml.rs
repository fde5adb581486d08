//! XML binding for unit definitions (`sbml-units` stays XML-free).

use sbml_units::{Unit, UnitDefinition, UnitKind};
use sbml_xml::Element;

use crate::error::ModelError;
use crate::xmlutil::{opt_attr, opt_f64, opt_i32, read_list, req_attr, req_str};

/// Read `<unitDefinition>`.
pub fn unit_definition_from_element(e: &Element<'_>) -> Result<UnitDefinition, ModelError> {
    let id = req_attr(e, "id")?;
    let units = read_list(e, "listOfUnits", "unit", |u| {
        let kind_raw = req_str(u, "kind")?;
        let kind = UnitKind::parse(kind_raw).ok_or_else(|| {
            ModelError::structure(format!("unitDefinition {id:?}: unknown unit kind {kind_raw:?}"))
        })?;
        Ok(Unit {
            kind,
            exponent: opt_i32(u, "exponent")?.unwrap_or(1),
            scale: opt_i32(u, "scale")?.unwrap_or(0),
            multiplier: opt_f64(u, "multiplier")?.unwrap_or(1.0),
        })
    })?;
    let mut def = UnitDefinition::new(id, units);
    def.name = opt_attr(e, "name");
    Ok(def)
}

/// Write `<unitDefinition>`.
pub fn unit_definition_to_element(def: &UnitDefinition) -> Element<'_> {
    let mut e = Element::new("unitDefinition").with_attr("id", def.id.as_str());
    if let Some(name) = &def.name {
        e.set_attr("name", name.as_str());
    }
    if !def.units.is_empty() {
        let mut list = Element::new("listOfUnits");
        for u in &def.units {
            let mut unit = Element::new("unit").with_attr("kind", u.kind.name());
            if u.exponent != 1 {
                unit.set_attr("exponent", u.exponent.to_string());
            }
            if u.scale != 0 {
                unit.set_attr("scale", u.scale.to_string());
            }
            if u.multiplier != 1.0 {
                unit.set_attr("multiplier", sbml_math::writer::format_number(u.multiplier));
            }
            list.push_child(unit);
        }
        e.push_child(list);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let def = UnitDefinition::new(
            "per_mM_per_s",
            vec![
                Unit::of(UnitKind::Mole).pow(-1).scaled(-3),
                Unit::of(UnitKind::Litre),
                Unit::of(UnitKind::Second).pow(-1).times(60.0),
            ],
        )
        .named("per millimolar per second");
        let back = unit_definition_from_element(&unit_definition_to_element(&def)).unwrap();
        assert_eq!(back, def);
    }

    #[test]
    fn defaults() {
        let e = sbml_xml::parse_element(
            r#"<unitDefinition id="u"><listOfUnits><unit kind="mole"/></listOfUnits></unitDefinition>"#,
        )
        .unwrap();
        let def = unit_definition_from_element(&e).unwrap();
        assert_eq!(def.units[0].exponent, 1);
        assert_eq!(def.units[0].scale, 0);
        assert_eq!(def.units[0].multiplier, 1.0);
    }

    #[test]
    fn unknown_kind_rejected() {
        let e = sbml_xml::parse_element(
            r#"<unitDefinition id="u"><listOfUnits><unit kind="cubit"/></listOfUnits></unitDefinition>"#,
        )
        .unwrap();
        assert!(unit_definition_from_element(&e).is_err());
    }
}
