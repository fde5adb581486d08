//! The [`Model`] container — the unit of composition in the paper.

use std::collections::BTreeSet;

use sbml_math::MathExpr;
use sbml_units::UnitDefinition;
use sbml_xml::Element;

use crate::components::{Compartment, CompartmentType, Parameter, Species, SpeciesType};
use crate::error::ModelError;
use crate::event::Event;
use crate::function::FunctionDefinition;
use crate::reaction::Reaction;
use crate::rule::{Constraint, Rule};
use crate::units_xml::{unit_definition_from_element, unit_definition_to_element};
use crate::xmlutil::{opt_attr, read_list, req_attr, req_math_child, set_opt};

/// Every child of `<listOfRules>` (each names its rule kind), read in order.
fn read_rules(e: &Element<'_>) -> Result<Vec<Rule>, ModelError> {
    let Some(list) = e.child("listOfRules") else {
        return Ok(Vec::new());
    };
    let mut rules = Vec::with_capacity(list.child_elements().count());
    for c in list.child_elements() {
        rules.push(Rule::from_element(c)?);
    }
    Ok(rules)
}

/// An initial assignment: `symbol := math` evaluated at time zero.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialAssignment {
    /// The assigned symbol (species, parameter or compartment id).
    pub symbol: String,
    /// The initial-value expression.
    pub math: MathExpr,
}

impl InitialAssignment {
    /// Read from `<initialAssignment>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        Ok(InitialAssignment {
            symbol: req_attr(e, "symbol")?,
            math: req_math_child(e, "initialAssignment")?,
        })
    }

    /// Write to `<initialAssignment>`.
    pub fn to_element(&self) -> Element<'_> {
        Element::new("initialAssignment")
            .with_attr("symbol", self.symbol.as_str())
            .with_child(sbml_math::to_mathml(&self.math))
    }
}

/// A biochemical network model: the eleven component lists merged by the
/// paper's Fig. 4 pipeline, in pipeline order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Model {
    /// Model id.
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Named reusable functions.
    pub function_definitions: Vec<FunctionDefinition>,
    /// Unit definitions.
    pub unit_definitions: Vec<UnitDefinition>,
    /// Compartment types.
    pub compartment_types: Vec<CompartmentType>,
    /// Species types.
    pub species_types: Vec<SpeciesType>,
    /// Compartments.
    pub compartments: Vec<Compartment>,
    /// Species.
    pub species: Vec<Species>,
    /// Global parameters.
    pub parameters: Vec<Parameter>,
    /// Initial assignments (time-zero math).
    pub initial_assignments: Vec<InitialAssignment>,
    /// Rules.
    pub rules: Vec<Rule>,
    /// Constraints.
    pub constraints: Vec<Constraint>,
    /// Reactions.
    pub reactions: Vec<Reaction>,
    /// Events.
    pub events: Vec<Event>,
}

impl Model {
    /// An empty model with the given id.
    pub fn new(id: impl Into<String>) -> Model {
        Model { id: id.into(), ..Model::default() }
    }

    /// Network nodes = species count (paper: "size = nodes + edges", with
    /// Fig. 1's three-species model having 3 nodes).
    pub fn nodes(&self) -> usize {
        self.species.len()
    }

    /// Network edges = reactant→product arcs summed over reactions
    /// (Fig. 1's three simple reactions = 3 edges), plus one regulatory
    /// modifier→product arc per (modifier, product) pair — the edges
    /// `bio_graph::extract` emits so matching sees regulatory structure.
    pub fn edges(&self) -> usize {
        self.reactions
            .iter()
            .map(|r| {
                (r.reactants.len() * r.products.len()).max(1)
                    + r.modifiers.len() * r.products.len()
            })
            .sum()
    }

    /// The paper's model size metric: nodes + edges.
    pub fn size(&self) -> usize {
        self.nodes() + self.edges()
    }

    /// Total component count across all eleven lists (used to gauge merge
    /// workload; the merge is linear in this count per lookup).
    pub fn component_count(&self) -> usize {
        self.function_definitions.len()
            + self.unit_definitions.len()
            + self.compartment_types.len()
            + self.species_types.len()
            + self.compartments.len()
            + self.species.len()
            + self.parameters.len()
            + self.initial_assignments.len()
            + self.rules.len()
            + self.constraints.len()
            + self.reactions.len()
            + self.events.len()
    }

    /// True when every component list is empty.
    pub fn is_empty(&self) -> bool {
        self.component_count() == 0
    }

    /// Look up a species by id.
    pub fn species_by_id(&self, id: &str) -> Option<&Species> {
        self.species.iter().find(|s| s.id == id)
    }

    /// Look up a global parameter by id.
    pub fn parameter_by_id(&self, id: &str) -> Option<&Parameter> {
        self.parameters.iter().find(|p| p.id == id)
    }

    /// Look up a compartment by id.
    pub fn compartment_by_id(&self, id: &str) -> Option<&Compartment> {
        self.compartments.iter().find(|c| c.id == id)
    }

    /// Look up a reaction by id.
    pub fn reaction_by_id(&self, id: &str) -> Option<&Reaction> {
        self.reactions.iter().find(|r| r.id == id)
    }

    /// Look up a function definition by id.
    pub fn function_by_id(&self, id: &str) -> Option<&FunctionDefinition> {
        self.function_definitions.iter().find(|f| f.id == id)
    }

    /// All ids claimed in the global SBML namespace (function definitions,
    /// unit definitions, types, compartments, species, parameters,
    /// reactions, events).
    pub fn global_ids(&self) -> BTreeSet<String> {
        let mut ids = BTreeSet::new();
        ids.extend(self.function_definitions.iter().map(|x| x.id.clone()));
        ids.extend(self.unit_definitions.iter().map(|x| x.id.clone()));
        ids.extend(self.compartment_types.iter().map(|x| x.id.clone()));
        ids.extend(self.species_types.iter().map(|x| x.id.clone()));
        ids.extend(self.compartments.iter().map(|x| x.id.clone()));
        ids.extend(self.species.iter().map(|x| x.id.clone()));
        ids.extend(self.parameters.iter().map(|x| x.id.clone()));
        ids.extend(self.reactions.iter().map(|x| x.id.clone()));
        ids.extend(self.events.iter().filter_map(|x| x.id.clone()));
        ids
    }

    /// Generate an id not yet used in the model, from a base name
    /// (`base`, `base_1`, `base_2`, ...). Used when merge renames clashes.
    pub fn fresh_id(&self, base: &str) -> String {
        let ids = self.global_ids();
        if !ids.contains(base) {
            return base.to_owned();
        }
        for n in 1.. {
            let candidate = format!("{base}_{n}");
            if !ids.contains(&candidate) {
                return candidate;
            }
        }
        unreachable!("id space exhausted")
    }

    /// Read from a `<model>` element.
    pub fn from_element(e: &Element<'_>) -> Result<Model, ModelError> {
        if e.name != "model" {
            return Err(ModelError::structure(format!("expected <model>, found <{}>", e.name)));
        }
        Ok(Model {
            id: opt_attr(e, "id").unwrap_or_default(),
            name: opt_attr(e, "name"),
            function_definitions: read_list(
                e,
                "listOfFunctionDefinitions",
                "functionDefinition",
                FunctionDefinition::from_element,
            )?,
            unit_definitions: read_list(
                e,
                "listOfUnitDefinitions",
                "unitDefinition",
                unit_definition_from_element,
            )?,
            compartment_types: read_list(
                e,
                "listOfCompartmentTypes",
                "compartmentType",
                CompartmentType::from_element,
            )?,
            species_types: read_list(
                e,
                "listOfSpeciesTypes",
                "speciesType",
                SpeciesType::from_element,
            )?,
            compartments: read_list(
                e,
                "listOfCompartments",
                "compartment",
                Compartment::from_element,
            )?,
            species: read_list(e, "listOfSpecies", "species", Species::from_element)?,
            parameters: read_list(e, "listOfParameters", "parameter", Parameter::from_element)?,
            initial_assignments: read_list(
                e,
                "listOfInitialAssignments",
                "initialAssignment",
                InitialAssignment::from_element,
            )?,
            rules: read_rules(e)?,
            constraints: read_list(e, "listOfConstraints", "constraint", Constraint::from_element)?,
            reactions: read_list(e, "listOfReactions", "reaction", Reaction::from_element)?,
            events: read_list(e, "listOfEvents", "event", Event::from_element)?,
        })
    }

    /// Write to a `<model>` element.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("model");
        if !self.id.is_empty() {
            e.set_attr("id", self.id.as_str());
        }
        set_opt(&mut e, "name", &self.name);

        fn push_list<'a, T>(
            parent: &mut Element<'a>,
            list_name: &'static str,
            items: &'a [T],
            to_el: impl Fn(&'a T) -> Element<'a>,
        ) {
            if !items.is_empty() {
                let mut list = Element::new(list_name);
                for item in items {
                    list.push_child(to_el(item));
                }
                parent.push_child(list);
            }
        }

        push_list(&mut e, "listOfFunctionDefinitions", &self.function_definitions, |f| {
            f.to_element()
        });
        push_list(&mut e, "listOfUnitDefinitions", &self.unit_definitions, |u| {
            unit_definition_to_element(u)
        });
        push_list(&mut e, "listOfCompartmentTypes", &self.compartment_types, |c| c.to_element());
        push_list(&mut e, "listOfSpeciesTypes", &self.species_types, |s| s.to_element());
        push_list(&mut e, "listOfCompartments", &self.compartments, |c| c.to_element());
        push_list(&mut e, "listOfSpecies", &self.species, |s| s.to_element());
        push_list(&mut e, "listOfParameters", &self.parameters, |p| p.to_element());
        push_list(&mut e, "listOfInitialAssignments", &self.initial_assignments, |i| {
            i.to_element()
        });
        push_list(&mut e, "listOfRules", &self.rules, |r| r.to_element());
        push_list(&mut e, "listOfConstraints", &self.constraints, |c| c.to_element());
        push_list(&mut e, "listOfReactions", &self.reactions, |r| r.to_element());
        push_list(&mut e, "listOfEvents", &self.events, |ev| ev.to_element());
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;

    fn fig1a() -> Model {
        ModelBuilder::new("fig1a")
            .compartment("cell", 1.0)
            .species("A", 10.0)
            .species("B", 0.0)
            .species("C", 0.0)
            .parameter("k1", 0.1)
            .parameter("k2", 0.05)
            .parameter("k3", 0.02)
            .reaction("r1", &["A"], &["B"], "k1*A")
            .reaction("r2", &["B"], &["C"], "k2*B")
            .reaction("r3", &["C"], &["B"], "k3*C")
            .build()
    }

    #[test]
    fn size_metrics_match_paper_fig1() {
        let m = fig1a();
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.edges(), 3);
        assert_eq!(m.size(), 6);
    }

    #[test]
    fn element_round_trip() {
        let m = fig1a();
        let back = Model::from_element(&m.to_element()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_model() {
        let m = Model::new("empty");
        assert!(m.is_empty());
        assert_eq!(m.size(), 0);
        let back = Model::from_element(&m.to_element()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn lookups() {
        let m = fig1a();
        assert!(m.species_by_id("A").is_some());
        assert!(m.species_by_id("Z").is_none());
        assert!(m.parameter_by_id("k1").is_some());
        assert!(m.compartment_by_id("cell").is_some());
        assert!(m.reaction_by_id("r2").is_some());
    }

    #[test]
    fn global_ids_and_fresh_id() {
        let m = fig1a();
        let ids = m.global_ids();
        assert!(ids.contains("A"));
        assert!(ids.contains("k1"));
        assert!(ids.contains("cell"));
        assert!(ids.contains("r1"));
        assert_eq!(m.fresh_id("newthing"), "newthing");
        assert_eq!(m.fresh_id("A"), "A_1");
    }

    #[test]
    fn fresh_id_skips_taken_suffixes() {
        let mut m = Model::new("m");
        m.parameters.push(Parameter::new("k", 1.0));
        m.parameters.push(Parameter::new("k_1", 1.0));
        assert_eq!(m.fresh_id("k"), "k_2");
    }

    #[test]
    fn component_count() {
        let m = fig1a();
        // 1 compartment + 3 species + 3 parameters + 3 reactions = 10
        assert_eq!(m.component_count(), 10);
    }

    #[test]
    fn initial_assignment_round_trip() {
        let ia = InitialAssignment {
            symbol: "A".into(),
            math: sbml_math::infix::parse("2*k1").unwrap(),
        };
        assert_eq!(InitialAssignment::from_element(&ia.to_element()).unwrap(), ia);
    }

    #[test]
    fn edges_counts_fan_out() {
        // A + B -> C + D contributes reactants*products = 4 edges.
        let m = ModelBuilder::new("fan")
            .compartment("c", 1.0)
            .species("A", 1.0)
            .species("B", 1.0)
            .species("C", 0.0)
            .species("D", 0.0)
            .parameter("k", 1.0)
            .reaction("r", &["A", "B"], &["C", "D"], "k*A*B")
            .build();
        assert_eq!(m.edges(), 4);
    }

    #[test]
    fn edges_count_modifier_arcs() {
        // E modifies A -> B: one conversion arc plus one regulatory arc.
        let mut m = ModelBuilder::new("enzyme")
            .compartment("c", 1.0)
            .species("A", 1.0)
            .species("B", 0.0)
            .species("E", 1.0)
            .parameter("k", 1.0)
            .reaction("r", &["A"], &["B"], "k*E*A")
            .build();
        m.reactions[0].modifiers.push(crate::SpeciesReference::new("E"));
        assert_eq!(m.edges(), 2);
    }

    #[test]
    fn reaction_with_no_products_counts_one_edge() {
        // Degradation A -> (nothing) still counts as one edge.
        let m = ModelBuilder::new("deg")
            .compartment("c", 1.0)
            .species("A", 1.0)
            .parameter("k", 1.0)
            .reaction("r", &["A"], &[], "k*A")
            .build();
        assert_eq!(m.edges(), 1);
    }

    #[test]
    fn non_model_element_rejected() {
        let e = sbml_xml::parse_element("<notmodel/>").unwrap();
        assert!(Model::from_element(&e).is_err());
    }
}
