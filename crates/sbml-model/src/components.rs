//! Non-math-bearing model components: compartment/species types,
//! compartments, species and parameters.

use sbml_xml::Element;

use crate::error::ModelError;
use crate::xmlutil::{bool_attr, opt_attr, opt_f64, req_attr, set_opt, set_opt_f64};

/// A compartment type (SBML L2 grouping label for compartments).
#[derive(Debug, Clone, PartialEq)]
pub struct CompartmentType {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
}

impl CompartmentType {
    /// Read from `<compartmentType>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        Ok(CompartmentType { id: req_attr(e, "id")?, name: opt_attr(e, "name") })
    }

    /// Write to `<compartmentType>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("compartmentType").with_attr("id", self.id.as_str());
        set_opt(&mut e, "name", &self.name);
        e
    }
}

/// A species type (SBML L2 grouping label for species).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesType {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
}

impl SpeciesType {
    /// Read from `<speciesType>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        Ok(SpeciesType { id: req_attr(e, "id")?, name: opt_attr(e, "name") })
    }

    /// Write to `<speciesType>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("speciesType").with_attr("id", self.id.as_str());
        set_opt(&mut e, "name", &self.name);
        e
    }
}

/// A compartment: a bounded volume species live in.
#[derive(Debug, Clone, PartialEq)]
pub struct Compartment {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Optional reference to a [`CompartmentType`].
    pub compartment_type: Option<String>,
    /// Spatial dimensions (0–3; default 3).
    pub spatial_dimensions: u32,
    /// Size (volume for 3-D compartments), if set.
    pub size: Option<f64>,
    /// Units id for the size.
    pub units: Option<String>,
    /// Enclosing compartment id.
    pub outside: Option<String>,
    /// Whether the size is fixed over time (default true).
    pub constant: bool,
}

impl Compartment {
    /// A 3-D constant compartment of the given size.
    pub fn new(id: impl Into<String>, size: f64) -> Compartment {
        Compartment {
            id: id.into(),
            name: None,
            compartment_type: None,
            spatial_dimensions: 3,
            size: Some(size),
            units: None,
            outside: None,
            constant: true,
        }
    }

    /// Read from `<compartment>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        let spatial_dimensions = match e.attr("spatialDimensions") {
            None => 3,
            Some(raw) => raw.parse::<u32>().map_err(|_| {
                ModelError::structure(format!("compartment spatialDimensions={raw:?}"))
            })?,
        };
        if spatial_dimensions > 3 {
            return Err(ModelError::structure(format!(
                "compartment spatialDimensions={spatial_dimensions} > 3"
            )));
        }
        Ok(Compartment {
            id: req_attr(e, "id")?,
            name: opt_attr(e, "name"),
            compartment_type: opt_attr(e, "compartmentType"),
            spatial_dimensions,
            size: opt_f64(e, "size")?,
            units: opt_attr(e, "units"),
            outside: opt_attr(e, "outside"),
            constant: bool_attr(e, "constant", true)?,
        })
    }

    /// Write to `<compartment>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("compartment").with_attr("id", self.id.as_str());
        set_opt(&mut e, "name", &self.name);
        set_opt(&mut e, "compartmentType", &self.compartment_type);
        if self.spatial_dimensions != 3 {
            e.set_attr("spatialDimensions", self.spatial_dimensions.to_string());
        }
        set_opt_f64(&mut e, "size", self.size);
        set_opt(&mut e, "units", &self.units);
        set_opt(&mut e, "outside", &self.outside);
        if !self.constant {
            e.set_attr("constant", "false");
        }
        e
    }
}

/// A chemical species.
#[derive(Debug, Clone, PartialEq)]
pub struct Species {
    /// Unique id.
    pub id: String,
    /// Optional display name (the paper's synonym matching uses this).
    pub name: Option<String>,
    /// Optional reference to a [`SpeciesType`].
    pub species_type: Option<String>,
    /// Compartment the species lives in.
    pub compartment: String,
    /// Initial amount (mutually exclusive with concentration).
    pub initial_amount: Option<f64>,
    /// Initial concentration (mutually exclusive with amount).
    pub initial_concentration: Option<f64>,
    /// Units id for the substance.
    pub substance_units: Option<String>,
    /// Interpret the species value as an amount even in concentration
    /// contexts (default false).
    pub has_only_substance_units: bool,
    /// Whether the species sits on the boundary (not changed by reactions).
    pub boundary_condition: bool,
    /// Electrical charge (deprecated in later SBML levels, still common).
    pub charge: Option<i32>,
    /// Whether the value is fixed over time (default false).
    pub constant: bool,
}

impl Species {
    /// A non-constant species with an initial amount.
    pub fn new(id: impl Into<String>, compartment: impl Into<String>, amount: f64) -> Species {
        Species {
            id: id.into(),
            name: None,
            species_type: None,
            compartment: compartment.into(),
            initial_amount: Some(amount),
            initial_concentration: None,
            substance_units: None,
            has_only_substance_units: false,
            boundary_condition: false,
            charge: None,
            constant: false,
        }
    }

    /// The initial value (amount preferred, then concentration), if any.
    pub fn initial_value(&self) -> Option<f64> {
        self.initial_amount.or(self.initial_concentration)
    }

    /// Read from `<species>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        let initial_amount = opt_f64(e, "initialAmount")?;
        let initial_concentration = opt_f64(e, "initialConcentration")?;
        if initial_amount.is_some() && initial_concentration.is_some() {
            return Err(ModelError::structure(format!(
                "species {:?} sets both initialAmount and initialConcentration",
                e.attr("id").unwrap_or("?")
            )));
        }
        Ok(Species {
            id: req_attr(e, "id")?,
            name: opt_attr(e, "name"),
            species_type: opt_attr(e, "speciesType"),
            compartment: req_attr(e, "compartment")?,
            initial_amount,
            initial_concentration,
            substance_units: opt_attr(e, "substanceUnits"),
            has_only_substance_units: bool_attr(e, "hasOnlySubstanceUnits", false)?,
            boundary_condition: bool_attr(e, "boundaryCondition", false)?,
            charge: crate::xmlutil::opt_i32(e, "charge")?,
            constant: bool_attr(e, "constant", false)?,
        })
    }

    /// Write to `<species>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("species")
            .with_attr("id", self.id.as_str())
            .with_attr("compartment", self.compartment.as_str());
        set_opt(&mut e, "name", &self.name);
        set_opt(&mut e, "speciesType", &self.species_type);
        set_opt_f64(&mut e, "initialAmount", self.initial_amount);
        set_opt_f64(&mut e, "initialConcentration", self.initial_concentration);
        set_opt(&mut e, "substanceUnits", &self.substance_units);
        if self.has_only_substance_units {
            e.set_attr("hasOnlySubstanceUnits", "true");
        }
        if self.boundary_condition {
            e.set_attr("boundaryCondition", "true");
        }
        if let Some(charge) = self.charge {
            e.set_attr("charge", charge.to_string());
        }
        if self.constant {
            e.set_attr("constant", "true");
        }
        e
    }
}

/// A global or local (kinetic-law) parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Parameter {
    /// Unique id (global scope, or kinetic-law scope for local parameters).
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Numeric value, if set directly.
    pub value: Option<f64>,
    /// Units id.
    pub units: Option<String>,
    /// Whether the value is fixed over time (default true).
    pub constant: bool,
}

impl Parameter {
    /// A constant parameter with a value.
    pub fn new(id: impl Into<String>, value: f64) -> Parameter {
        Parameter { id: id.into(), name: None, value: Some(value), units: None, constant: true }
    }

    /// Read from `<parameter>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        Ok(Parameter {
            id: req_attr(e, "id")?,
            name: opt_attr(e, "name"),
            value: opt_f64(e, "value")?,
            units: opt_attr(e, "units"),
            constant: bool_attr(e, "constant", true)?,
        })
    }

    /// Write to `<parameter>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("parameter").with_attr("id", self.id.as_str());
        set_opt(&mut e, "name", &self.name);
        set_opt_f64(&mut e, "value", self.value);
        set_opt(&mut e, "units", &self.units);
        if !self.constant {
            e.set_attr("constant", "false");
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_xml::parse_element;

    #[test]
    fn compartment_round_trip() {
        let c = Compartment {
            id: "cell".into(),
            name: Some("Cell".into()),
            compartment_type: Some("ct".into()),
            spatial_dimensions: 2,
            size: Some(1.5),
            units: Some("volume".into()),
            outside: Some("env".into()),
            constant: false,
        };
        let back = Compartment::from_element(&c.to_element()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn compartment_defaults() {
        let e = parse_element(r#"<compartment id="c"/>"#).unwrap();
        let c = Compartment::from_element(&e).unwrap();
        assert_eq!(c.spatial_dimensions, 3);
        assert!(c.constant);
        assert_eq!(c.size, None);
    }

    #[test]
    fn compartment_bad_dimensions() {
        let e = parse_element(r#"<compartment id="c" spatialDimensions="4"/>"#).unwrap();
        assert!(Compartment::from_element(&e).is_err());
        let e2 = parse_element(r#"<compartment id="c" spatialDimensions="-1"/>"#).unwrap();
        assert!(Compartment::from_element(&e2).is_err());
    }

    #[test]
    fn species_round_trip() {
        let s = Species {
            id: "glc".into(),
            name: Some("glucose".into()),
            species_type: Some("sugar".into()),
            compartment: "cell".into(),
            initial_amount: None,
            initial_concentration: Some(5.5),
            substance_units: Some("mole".into()),
            has_only_substance_units: true,
            boundary_condition: true,
            charge: Some(-2),
            constant: true,
        };
        let back = Species::from_element(&s.to_element()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn species_requires_compartment() {
        let e = parse_element(r#"<species id="A"/>"#).unwrap();
        assert!(Species::from_element(&e).is_err());
    }

    #[test]
    fn species_amount_and_concentration_exclusive() {
        let e = parse_element(
            r#"<species id="A" compartment="c" initialAmount="1" initialConcentration="2"/>"#,
        )
        .unwrap();
        assert!(Species::from_element(&e).is_err());
    }

    #[test]
    fn species_initial_value_preference() {
        let mut s = Species::new("A", "c", 3.0);
        assert_eq!(s.initial_value(), Some(3.0));
        s.initial_amount = None;
        s.initial_concentration = Some(0.5);
        assert_eq!(s.initial_value(), Some(0.5));
        s.initial_concentration = None;
        assert_eq!(s.initial_value(), None);
    }

    #[test]
    fn parameter_round_trip() {
        let p = Parameter {
            id: "k1".into(),
            name: Some("rate".into()),
            value: Some(0.25),
            units: Some("per_second".into()),
            constant: false,
        };
        assert_eq!(Parameter::from_element(&p.to_element()).unwrap(), p);
    }

    #[test]
    fn parameter_defaults() {
        let e = parse_element(r#"<parameter id="k"/>"#).unwrap();
        let p = Parameter::from_element(&e).unwrap();
        assert!(p.constant);
        assert_eq!(p.value, None);
    }

    #[test]
    fn types_round_trip() {
        let ct = CompartmentType { id: "ct".into(), name: Some("organelles".into()) };
        assert_eq!(CompartmentType::from_element(&ct.to_element()).unwrap(), ct);
        let st = SpeciesType { id: "st".into(), name: None };
        assert_eq!(SpeciesType::from_element(&st.to_element()).unwrap(), st);
    }
}
