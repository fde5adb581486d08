//! Rules: algebraic, assignment and rate rules.

use sbml_math::MathExpr;
use sbml_xml::Element;

use crate::error::ModelError;
use crate::xmlutil::{req_attr, req_math_child};

/// An SBML rule constraining model variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// `0 = math` — an implicit constraint.
    Algebraic {
        /// The expression equal to zero.
        math: MathExpr,
    },
    /// `variable = math` — holds at all times.
    Assignment {
        /// The determined variable (species, parameter or compartment id).
        variable: String,
        /// The defining expression.
        math: MathExpr,
    },
    /// `d(variable)/dt = math`.
    Rate {
        /// The driven variable.
        variable: String,
        /// The derivative expression.
        math: MathExpr,
    },
}

impl Rule {
    /// The variable determined by this rule, if any.
    pub fn variable(&self) -> Option<&str> {
        match self {
            Rule::Algebraic { .. } => None,
            Rule::Assignment { variable, .. } | Rule::Rate { variable, .. } => Some(variable),
        }
    }

    /// The rule's math.
    pub fn math(&self) -> &MathExpr {
        match self {
            Rule::Algebraic { math } | Rule::Assignment { math, .. } | Rule::Rate { math, .. } => {
                math
            }
        }
    }

    /// Mutable access to the rule's math (for merge-time renaming).
    pub fn math_mut(&mut self) -> &mut MathExpr {
        match self {
            Rule::Algebraic { math } | Rule::Assignment { math, .. } | Rule::Rate { math, .. } => {
                math
            }
        }
    }

    /// Read from one of the three rule elements.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        match e.name.as_ref() {
            "algebraicRule" => {
                Ok(Rule::Algebraic { math: req_math_child(e, "algebraicRule")? })
            }
            "assignmentRule" => Ok(Rule::Assignment {
                variable: req_attr(e, "variable")?,
                math: req_math_child(e, "assignmentRule")?,
            }),
            "rateRule" => Ok(Rule::Rate {
                variable: req_attr(e, "variable")?,
                math: req_math_child(e, "rateRule")?,
            }),
            other => Err(ModelError::structure(format!("unknown rule element <{other}>"))),
        }
    }

    /// Write to the appropriate rule element.
    pub fn to_element(&self) -> Element<'_> {
        match self {
            Rule::Algebraic { math } => {
                Element::new("algebraicRule").with_child(sbml_math::to_mathml(math))
            }
            Rule::Assignment { variable, math } => Element::new("assignmentRule")
                .with_attr("variable", variable.as_str())
                .with_child(sbml_math::to_mathml(math)),
            Rule::Rate { variable, math } => Element::new("rateRule")
                .with_attr("variable", variable.as_str())
                .with_child(sbml_math::to_mathml(math)),
        }
    }
}

/// A constraint: a condition that should remain true during simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The condition.
    pub math: MathExpr,
    /// Message shown when violated.
    pub message: Option<String>,
}

impl Constraint {
    /// Read from `<constraint>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        let math = req_math_child(e, "constraint")?;
        let message = e.child("message").map(|m| m.text().trim().to_owned());
        Ok(Constraint { math, message })
    }

    /// Write to `<constraint>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("constraint").with_child(sbml_math::to_mathml(&self.math));
        if let Some(msg) = &self.message {
            e.push_child(Element::new("message").with_text(msg.as_str()));
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_math::infix;

    #[test]
    fn rule_round_trips() {
        let rules = vec![
            Rule::Algebraic { math: infix::parse("x + y - 10").unwrap() },
            Rule::Assignment { variable: "x".into(), math: infix::parse("2*y").unwrap() },
            Rule::Rate { variable: "y".into(), math: infix::parse("-0.1*y").unwrap() },
        ];
        for rule in rules {
            let back = Rule::from_element(&rule.to_element()).unwrap();
            assert_eq!(back, rule);
        }
    }

    #[test]
    fn rule_accessors() {
        let r = Rule::Assignment { variable: "x".into(), math: infix::parse("1").unwrap() };
        assert_eq!(r.variable(), Some("x"));
        assert_eq!(r.math(), &sbml_math::MathExpr::num(1.0));
        let a = Rule::Algebraic { math: infix::parse("1").unwrap() };
        assert_eq!(a.variable(), None);
    }

    #[test]
    fn math_mut_allows_rewrite() {
        let mut r = Rule::Rate { variable: "y".into(), math: infix::parse("k*y").unwrap() };
        let mut map = std::collections::HashMap::new();
        map.insert("k".to_owned(), "k_renamed".to_owned());
        *r.math_mut() = sbml_math::rewrite::rename(r.math(), &map);
        assert_eq!(r.math(), &infix::parse("k_renamed*y").unwrap());
    }

    #[test]
    fn constraint_round_trip() {
        let c = Constraint {
            math: infix::parse("S >= 0").unwrap(),
            message: Some("S must stay non-negative".into()),
        };
        let back = Constraint::from_element(&c.to_element()).unwrap();
        assert_eq!(back, c);

        let bare = Constraint { math: infix::parse("x < 10").unwrap(), message: None };
        assert_eq!(Constraint::from_element(&bare.to_element()).unwrap(), bare);
    }

    #[test]
    fn unknown_rule_rejected() {
        let e = sbml_xml::parse_element("<weirdRule/>").unwrap();
        assert!(Rule::from_element(&e).is_err());
    }
}
