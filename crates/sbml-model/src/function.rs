//! SBML function definitions (named lambdas reusable in model math).

use sbml_math::MathExpr;
use sbml_xml::Element;

use crate::error::ModelError;
use crate::xmlutil::{opt_attr, req_attr, req_math_child, set_opt};

/// A function definition: `id(params...) = body`.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDefinition {
    /// Unique id (the call target in math).
    pub id: String,
    /// Optional display name.
    pub name: Option<String>,
    /// Parameter names, in order.
    pub params: Vec<String>,
    /// Body expression over the parameters.
    pub body: MathExpr,
}

impl FunctionDefinition {
    /// Define a function from parameter names and a body.
    pub fn new(
        id: impl Into<String>,
        params: Vec<String>,
        body: MathExpr,
    ) -> FunctionDefinition {
        FunctionDefinition { id: id.into(), name: None, params, body }
    }

    /// The lambda form used by the math evaluator.
    pub fn as_lambda(&self) -> MathExpr {
        MathExpr::Lambda { params: self.params.clone(), body: Box::new(self.body.clone()) }
    }

    /// Read from `<functionDefinition>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        let id = req_attr(e, "id")?;
        let math = req_math_child(e, format_args!("functionDefinition {id:?}"))?;
        let MathExpr::Lambda { params, body } = math else {
            return Err(ModelError::structure(format!(
                "functionDefinition {id:?} math must be a <lambda>"
            )));
        };
        Ok(FunctionDefinition { id, name: opt_attr(e, "name"), params, body: *body })
    }

    /// Write to `<functionDefinition>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("functionDefinition").with_attr("id", self.id.as_str());
        set_opt(&mut e, "name", &self.name);
        e.push_child(sbml_math::to_mathml(&self.as_lambda()));
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_math::infix;

    #[test]
    fn round_trip() {
        let f = FunctionDefinition::new(
            "mm",
            vec!["S".into(), "Vmax".into(), "Km".into()],
            infix::parse("Vmax*S/(Km+S)").unwrap(),
        );
        let back = FunctionDefinition::from_element(&f.to_element()).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn lambda_required() {
        let e = sbml_xml::parse_element(
            "<functionDefinition id=\"f\"><math><cn>1</cn></math></functionDefinition>",
        )
        .unwrap();
        assert!(FunctionDefinition::from_element(&e).is_err());
    }

    #[test]
    fn as_lambda_matches_evaluator_expectations() {
        let f = FunctionDefinition::new("sq", vec!["x".into()], infix::parse("x*x").unwrap());
        let env = sbml_math::Env::new().with_function("sq", f.as_lambda());
        let v = sbml_math::evaluate(&infix::parse("sq(4)").unwrap(), &env).unwrap();
        assert_eq!(v, 16.0);
    }
}
