//! Reactions, species references and kinetic laws.

use sbml_math::MathExpr;
use sbml_xml::Element;

use crate::components::Parameter;
use crate::error::ModelError;
use crate::xmlutil::{bool_attr, opt_attr, opt_f64, read_list, req_attr, req_math_child, set_opt};

/// A (reactant or product) species reference with stoichiometry.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeciesReference {
    /// Referenced species id.
    pub species: String,
    /// Stoichiometric coefficient (default 1).
    pub stoichiometry: f64,
}

impl SpeciesReference {
    /// Reference with stoichiometry 1.
    pub fn new(species: impl Into<String>) -> SpeciesReference {
        SpeciesReference { species: species.into(), stoichiometry: 1.0 }
    }

    /// Builder: set the stoichiometry.
    #[must_use]
    pub fn with_stoichiometry(mut self, stoichiometry: f64) -> SpeciesReference {
        self.stoichiometry = stoichiometry;
        self
    }

    /// Read from `<speciesReference>` / `<modifierSpeciesReference>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        Ok(SpeciesReference {
            species: req_attr(e, "species")?,
            stoichiometry: opt_f64(e, "stoichiometry")?.unwrap_or(1.0),
        })
    }

    /// Write to the given element name.
    pub fn to_element<'a>(&'a self, name: &'a str) -> Element<'a> {
        let mut e = Element::new(name).with_attr("species", self.species.as_str());
        if self.stoichiometry != 1.0 {
            e.set_attr("stoichiometry", sbml_math::writer::format_number(self.stoichiometry));
        }
        e
    }
}

/// A kinetic law: rate math plus local parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KineticLaw {
    /// The rate expression.
    pub math: MathExpr,
    /// Local parameters scoped to this law (shadow globals).
    pub parameters: Vec<Parameter>,
}

impl KineticLaw {
    /// A law with no local parameters.
    pub fn new(math: MathExpr) -> KineticLaw {
        KineticLaw { math, parameters: Vec::new() }
    }

    /// Read from `<kineticLaw>`.
    pub fn from_element(e: &Element, reaction_id: &str) -> Result<Self, ModelError> {
        let math = req_math_child(e, format_args!("reaction {reaction_id:?} kineticLaw"))?;
        let parameters = read_list(e, "listOfParameters", "parameter", Parameter::from_element)?;
        Ok(KineticLaw { math, parameters })
    }

    /// Write to `<kineticLaw>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("kineticLaw").with_child(sbml_math::to_mathml(&self.math));
        if !self.parameters.is_empty() {
            let mut list = Element::new("listOfParameters");
            for p in &self.parameters {
                list.push_child(p.to_element());
            }
            e.push_child(list);
        }
        e
    }
}

/// A chemical reaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Unique id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Whether the reaction runs in both directions (default true in SBML;
    /// the corpus generator always sets it explicitly).
    pub reversible: bool,
    /// SBML `fast` flag (timescale separation hint).
    pub fast: bool,
    /// Consumed species.
    pub reactants: Vec<SpeciesReference>,
    /// Produced species.
    pub products: Vec<SpeciesReference>,
    /// Catalysts/effectors appearing in the math but not consumed.
    pub modifiers: Vec<SpeciesReference>,
    /// Rate law.
    pub kinetic_law: Option<KineticLaw>,
}

impl Reaction {
    /// An irreversible reaction with no participants yet.
    pub fn new(id: impl Into<String>) -> Reaction {
        Reaction {
            id: id.into(),
            name: None,
            reversible: false,
            fast: false,
            reactants: Vec::new(),
            products: Vec::new(),
            modifiers: Vec::new(),
            kinetic_law: None,
        }
    }

    /// Total number of reactant molecules (stoichiometry sum, rounded), the
    /// input to the paper's Fig. 6 reaction-order classification.
    pub fn reactant_molecule_count(&self) -> u32 {
        self.reactants.iter().map(|r| r.stoichiometry.max(0.0)).sum::<f64>().round() as u32
    }

    /// Read from `<reaction>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        let id = req_attr(e, "id")?;
        let name = opt_attr(e, "name");
        let reversible = bool_attr(e, "reversible", true)?;
        let fast = bool_attr(e, "fast", false)?;
        let read_refs = |list, tag| read_list(e, list, tag, SpeciesReference::from_element);
        let reactants = read_refs("listOfReactants", "speciesReference")?;
        let products = read_refs("listOfProducts", "speciesReference")?;
        let modifiers = read_refs("listOfModifiers", "modifierSpeciesReference")?;
        let kinetic_law = match e.child("kineticLaw") {
            Some(kl) => Some(KineticLaw::from_element(kl, &id)?),
            None => None,
        };
        Ok(Reaction { id, name, reversible, fast, reactants, products, modifiers, kinetic_law })
    }

    /// Write to `<reaction>`.
    pub fn to_element<'a>(&'a self) -> Element<'a> {
        let mut e = Element::new("reaction").with_attr("id", self.id.as_str());
        set_opt(&mut e, "name", &self.name);
        e.set_attr("reversible", if self.reversible { "true" } else { "false" });
        if self.fast {
            e.set_attr("fast", "true");
        }
        let push_list = |e: &mut Element<'a>,
                         list_name: &'static str,
                         refs: &'a [SpeciesReference],
                         tag: &'static str| {
            if !refs.is_empty() {
                let mut list = Element::new(list_name);
                for r in refs {
                    list.push_child(r.to_element(tag));
                }
                e.push_child(list);
            }
        };
        push_list(&mut e, "listOfReactants", &self.reactants, "speciesReference");
        push_list(&mut e, "listOfProducts", &self.products, "speciesReference");
        push_list(&mut e, "listOfModifiers", &self.modifiers, "modifierSpeciesReference");
        if let Some(kl) = &self.kinetic_law {
            e.push_child(kl.to_element());
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_math::infix;
    use sbml_xml::parse_element;

    fn mass_action() -> Reaction {
        let mut r = Reaction::new("r1");
        r.name = Some("A to B".into());
        r.reactants.push(SpeciesReference::new("A"));
        r.products.push(SpeciesReference::new("B").with_stoichiometry(2.0));
        r.modifiers.push(SpeciesReference::new("E"));
        r.kinetic_law = Some(KineticLaw::new(infix::parse("k1*A*E").unwrap()));
        r
    }

    #[test]
    fn reaction_round_trip() {
        let r = mass_action();
        let back = Reaction::from_element(&r.to_element()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn kinetic_law_with_local_parameters() {
        let mut r = mass_action();
        r.kinetic_law.as_mut().unwrap().parameters.push(Parameter::new("k1", 0.7));
        let back = Reaction::from_element(&r.to_element()).unwrap();
        assert_eq!(back.kinetic_law.unwrap().parameters[0].value, Some(0.7));
    }

    #[test]
    fn defaults_from_sparse_xml() {
        let e = parse_element(r#"<reaction id="r"/>"#).unwrap();
        let r = Reaction::from_element(&e).unwrap();
        assert!(r.reversible, "SBML default is reversible=true");
        assert!(!r.fast);
        assert!(r.reactants.is_empty());
        assert!(r.kinetic_law.is_none());
    }

    #[test]
    fn stoichiometry_default_one() {
        let e = parse_element(r#"<speciesReference species="X"/>"#).unwrap();
        assert_eq!(SpeciesReference::from_element(&e).unwrap().stoichiometry, 1.0);
    }

    #[test]
    fn reactant_molecule_count() {
        let mut r = Reaction::new("r");
        assert_eq!(r.reactant_molecule_count(), 0);
        r.reactants.push(SpeciesReference::new("A"));
        assert_eq!(r.reactant_molecule_count(), 1);
        r.reactants.push(SpeciesReference::new("B"));
        assert_eq!(r.reactant_molecule_count(), 2);
        r.reactants[1].stoichiometry = 2.0;
        assert_eq!(r.reactant_molecule_count(), 3);
    }

    #[test]
    fn kinetic_law_requires_math() {
        let e = parse_element(r#"<reaction id="r"><kineticLaw/></reaction>"#).unwrap();
        assert!(Reaction::from_element(&e).is_err());
    }
}
