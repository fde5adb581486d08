//! Content-MathML → [`MathExpr`] parsing.
//!
//! Accepts the SBML subset of MathML 2.0 content markup: `cn` (including
//! `integer`, `real`, `e-notation` and `rational` types), `ci`, `csymbol`,
//! named constants, `apply` with built-in operators or function-definition
//! calls, `degree`/`logbase` qualifiers, `piecewise` and `lambda`.
//! Namespace prefixes on element names are ignored (`m:apply` == `apply`).

use sbml_xml::{Element, NodeRef};

use crate::ast::{Constant, CsymbolKind, MathExpr, Op};
use crate::error::MathError;

/// Strip any namespace prefix from a qualified name.
pub fn local_name(qualified: &str) -> &str {
    match qualified.rfind(':') {
        Some(idx) => &qualified[idx + 1..],
        None => qualified,
    }
}

/// Parse a `<math>` wrapper or a bare MathML operand element.
pub fn parse(element: &Element<'_>) -> Result<MathExpr, MathError> {
    if local_name(&element.name) == "math" {
        let mut operands = element.child_elements();
        let Some(first) = operands.next() else {
            return Err(MathError::BadApply { detail: "<math> has no child".to_owned() });
        };
        if operands.next().is_some() {
            return Err(MathError::BadApply {
                detail: "<math> has more than one child".to_owned(),
            });
        }
        parse_node(first)
    } else {
        parse_node(element)
    }
}

fn parse_node(e: &Element<'_>) -> Result<MathExpr, MathError> {
    match local_name(&e.name) {
        "cn" => parse_cn(e),
        "ci" => Ok(MathExpr::Ci(e.text().trim().to_owned())),
        "csymbol" => parse_csymbol(e),
        "apply" => parse_apply(e),
        "piecewise" => parse_piecewise(e),
        "lambda" => parse_lambda(e),
        other => {
            if let Some(c) = Constant::from_mathml_name(other) {
                Ok(MathExpr::Const(c))
            } else {
                Err(MathError::UnknownElement { name: other.to_owned() })
            }
        }
    }
}

fn parse_cn(e: &Element<'_>) -> Result<MathExpr, MathError> {
    let bad = || MathError::BadNumber { text: e.text().trim().to_owned() };
    let number = |text: &str| text.trim().parse::<f64>().map_err(|_| bad());
    match e.attr("type").unwrap_or("real") {
        // e-notation / rational use a <sep/> element between two number parts.
        ty @ ("e-notation" | "rational") => {
            let (first, second) = split_on_sep(e).ok_or_else(bad)?;
            let (first, second) = (number(&first)?, number(&second)?);
            Ok(MathExpr::Num(if ty == "e-notation" {
                first * 10f64.powf(second)
            } else {
                first / second
            }))
        }
        // "integer" | "real" | anything else: single payload
        _ => Ok(MathExpr::Num(number(&e.text())?)),
    }
}

/// The text before and after the single `<sep/>` child of `<cn>`, or
/// `None` unless there is exactly one.
fn split_on_sep(e: &Element<'_>) -> Option<(String, String)> {
    let mut parts = (String::new(), String::new());
    let mut seps = 0;
    for node in e.children.iter() {
        match node {
            NodeRef::Text(t) | NodeRef::CData(t) => {
                if seps == 0 { &mut parts.0 } else { &mut parts.1 }.push_str(t);
            }
            NodeRef::Element(el) if local_name(&el.name) == "sep" => seps += 1,
            _ => {}
        }
    }
    (seps == 1).then_some(parts)
}

fn parse_csymbol(e: &Element<'_>) -> Result<MathExpr, MathError> {
    let url = e.attr("definitionURL").unwrap_or("");
    let Some(kind) = CsymbolKind::from_definition_url(url) else {
        return Err(MathError::UnknownElement { name: format!("csymbol[{url}]") });
    };
    Ok(MathExpr::Csymbol { kind, name: e.text().trim().to_owned() })
}

fn parse_apply(e: &Element<'_>) -> Result<MathExpr, MathError> {
    let mut rest = e.child_elements();
    let Some(head) = rest.next() else {
        return Err(MathError::BadApply { detail: "<apply> is empty".to_owned() });
    };

    // Function-definition call: <apply><ci>f</ci> args...</apply>
    if local_name(&head.name) == "ci" {
        let function = head.text().trim().to_owned();
        let mut args = Vec::with_capacity(rest.clone().count());
        for arg in rest {
            args.push(parse_node(arg)?);
        }
        return Ok(MathExpr::Call { function, args });
    }

    let op_name = local_name(&head.name);
    let Some(op) = Op::from_mathml_name(op_name) else {
        return Err(MathError::UnknownElement { name: op_name.to_owned() });
    };

    // Qualifiers: <degree> (root) and <logbase> (log) become the first arg;
    // root and log get a spare slot for a defaulted one.
    let spare = usize::from(matches!(op, Op::Root | Op::Log));
    let mut args: Vec<MathExpr> = Vec::with_capacity(rest.clone().count() + spare);
    let mut qualifier: Option<MathExpr> = None;
    for child in rest {
        match local_name(&child.name) {
            "degree" | "logbase" => {
                let inner = child.child_elements().next().ok_or_else(|| MathError::BadApply {
                    detail: format!("empty <{}>", local_name(&child.name)),
                })?;
                qualifier = Some(parse_node(inner)?);
            }
            _ => args.push(parse_node(child)?),
        }
    }
    if let Some(q) = qualifier {
        args.insert(0, q);
    } else if op == Op::Root {
        args.insert(0, MathExpr::Num(2.0)); // default square root
    } else if op == Op::Log {
        args.insert(0, MathExpr::Num(10.0)); // default base-10 log
    }

    let (min, max) = op.arity();
    if args.len() < min || args.len() > max {
        return Err(MathError::BadApply {
            detail: format!("<{op_name}> applied to {} operand(s)", args.len()),
        });
    }
    Ok(MathExpr::Apply { op, args })
}

fn parse_piecewise(e: &Element<'_>) -> Result<MathExpr, MathError> {
    let mut pieces =
        Vec::with_capacity(e.child_elements().filter(|c| local_name(&c.name) == "piece").count());
    let mut otherwise = None;
    for child in e.child_elements() {
        match local_name(&child.name) {
            "piece" => {
                let mut parts = child.child_elements();
                let (Some(value), Some(condition), None) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(MathError::BadApply {
                        detail: format!(
                            "<piece> needs 2 children, has {}",
                            child.child_elements().count()
                        ),
                    });
                };
                pieces.push((parse_node(value)?, parse_node(condition)?));
            }
            "otherwise" => {
                let inner = child.child_elements().next().ok_or_else(|| MathError::BadApply {
                    detail: "empty <otherwise>".to_owned(),
                })?;
                otherwise = Some(Box::new(parse_node(inner)?));
            }
            other => return Err(MathError::UnknownElement { name: other.to_owned() }),
        }
    }
    Ok(MathExpr::Piecewise { pieces, otherwise })
}

fn parse_lambda(e: &Element<'_>) -> Result<MathExpr, MathError> {
    let mut params =
        Vec::with_capacity(e.child_elements().filter(|c| local_name(&c.name) == "bvar").count());
    let mut body = None;
    for child in e.child_elements() {
        match local_name(&child.name) {
            "bvar" => {
                let ci = child.child_elements().next().ok_or_else(|| MathError::BadApply {
                    detail: "empty <bvar>".to_owned(),
                })?;
                params.push(ci.text().trim().to_owned());
            }
            _ => {
                if body.is_some() {
                    return Err(MathError::BadApply {
                        detail: "<lambda> has multiple bodies".to_owned(),
                    });
                }
                body = Some(parse_node(child)?);
            }
        }
    }
    let Some(body) = body else {
        return Err(MathError::BadApply { detail: "<lambda> has no body".to_owned() });
    };
    Ok(MathExpr::Lambda { params, body: Box::new(body) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_xml::parse_element;

    fn parse_str(xml: &str) -> MathExpr {
        parse(&parse_element(xml).unwrap()).unwrap()
    }

    #[test]
    fn numbers() {
        assert_eq!(parse_str("<cn>3.5</cn>"), MathExpr::Num(3.5));
        assert_eq!(parse_str("<cn type=\"integer\">42</cn>"), MathExpr::Num(42.0));
        assert_eq!(parse_str("<cn type=\"e-notation\">2<sep/>3</cn>"), MathExpr::Num(2000.0));
        assert_eq!(parse_str("<cn type=\"rational\">1<sep/>4</cn>"), MathExpr::Num(0.25));
        assert_eq!(parse_str("<cn> -1e-3 </cn>"), MathExpr::Num(-0.001));
    }

    #[test]
    fn bad_numbers_rejected() {
        for bad in ["<cn>abc</cn>", "<cn type=\"e-notation\">2</cn>", "<cn/>"] {
            assert!(parse(&parse_element(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn identifiers_and_constants() {
        assert_eq!(parse_str("<ci> k1 </ci>"), MathExpr::ci("k1"));
        assert_eq!(parse_str("<pi/>"), MathExpr::Const(Constant::Pi));
        assert_eq!(parse_str("<true/>"), MathExpr::Const(Constant::True));
    }

    #[test]
    fn csymbol_time() {
        let e = parse_str(
            "<csymbol definitionURL=\"http://www.sbml.org/sbml/symbols/time\">t</csymbol>",
        );
        assert_eq!(e, MathExpr::Csymbol { kind: CsymbolKind::Time, name: "t".into() });
    }

    #[test]
    fn apply_nary_times() {
        let e = parse_str("<apply><times/><ci>k1</ci><ci>A</ci><ci>B</ci></apply>");
        assert_eq!(
            e,
            MathExpr::apply(
                Op::Times,
                vec![MathExpr::ci("k1"), MathExpr::ci("A"), MathExpr::ci("B")]
            )
        );
    }

    #[test]
    fn math_wrapper() {
        let e = parse_str(
            "<math xmlns=\"http://www.w3.org/1998/Math/MathML\"><apply><plus/><cn>1</cn><cn>2</cn></apply></math>",
        );
        assert_eq!(e, MathExpr::apply(Op::Plus, vec![MathExpr::num(1.0), MathExpr::num(2.0)]));
    }

    #[test]
    fn function_call() {
        let e = parse_str("<apply><ci>mm</ci><ci>S</ci><ci>Vmax</ci><ci>Km</ci></apply>");
        assert_eq!(
            e,
            MathExpr::Call {
                function: "mm".into(),
                args: vec![MathExpr::ci("S"), MathExpr::ci("Vmax"), MathExpr::ci("Km")]
            }
        );
    }

    #[test]
    fn root_with_default_and_explicit_degree() {
        let sqrt = parse_str("<apply><root/><ci>x</ci></apply>");
        assert_eq!(sqrt, MathExpr::apply(Op::Root, vec![MathExpr::num(2.0), MathExpr::ci("x")]));
        let cbrt = parse_str("<apply><root/><degree><cn>3</cn></degree><ci>x</ci></apply>");
        assert_eq!(cbrt, MathExpr::apply(Op::Root, vec![MathExpr::num(3.0), MathExpr::ci("x")]));
    }

    #[test]
    fn log_with_base() {
        let lg = parse_str("<apply><log/><ci>x</ci></apply>");
        assert_eq!(lg, MathExpr::apply(Op::Log, vec![MathExpr::num(10.0), MathExpr::ci("x")]));
        let l2 = parse_str("<apply><log/><logbase><cn>2</cn></logbase><ci>x</ci></apply>");
        assert_eq!(l2, MathExpr::apply(Op::Log, vec![MathExpr::num(2.0), MathExpr::ci("x")]));
    }

    #[test]
    fn piecewise() {
        let e = parse_str(
            "<piecewise><piece><cn>1</cn><apply><lt/><ci>x</ci><cn>5</cn></apply></piece><otherwise><cn>0</cn></otherwise></piecewise>",
        );
        match e {
            MathExpr::Piecewise { pieces, otherwise } => {
                assert_eq!(pieces.len(), 1);
                assert_eq!(pieces[0].0, MathExpr::num(1.0));
                assert_eq!(*otherwise.unwrap(), MathExpr::num(0.0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lambda() {
        let e = parse_str(
            "<lambda><bvar><ci>x</ci></bvar><bvar><ci>y</ci></bvar><apply><plus/><ci>x</ci><ci>y</ci></apply></lambda>",
        );
        match e {
            MathExpr::Lambda { params, body } => {
                assert_eq!(params, vec!["x".to_owned(), "y".to_owned()]);
                assert_eq!(
                    *body,
                    MathExpr::apply(Op::Plus, vec![MathExpr::ci("x"), MathExpr::ci("y")])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn namespaced_elements_accepted() {
        let e = parse_str("<m:apply><m:plus/><m:cn>1</m:cn><m:cn>2</m:cn></m:apply>");
        assert_eq!(e, MathExpr::apply(Op::Plus, vec![MathExpr::num(1.0), MathExpr::num(2.0)]));
    }

    #[test]
    fn arity_violations() {
        for bad in [
            "<apply><divide/><cn>1</cn></apply>",
            "<apply><not/><cn>1</cn><cn>2</cn></apply>",
            "<apply/>",
            "<apply><power/><cn>1</cn><cn>2</cn><cn>3</cn></apply>",
        ] {
            assert!(parse(&parse_element(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn unknown_elements() {
        assert!(matches!(
            parse(&parse_element("<matrix/>").unwrap()),
            Err(MathError::UnknownElement { .. })
        ));
        assert!(parse(&parse_element("<csymbol definitionURL=\"urn:x\">q</csymbol>").unwrap())
            .is_err());
    }
}
