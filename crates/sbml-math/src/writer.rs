//! [`MathExpr`] → content MathML and infix text.

use sbml_xml::Element;

use crate::ast::{MathExpr, Op};

/// The MathML 2.0 namespace SBML requires on `<math>` elements.
pub const MATHML_NS: &str = "http://www.w3.org/1998/Math/MathML";

/// Wrap an expression in a namespaced `<math>` element.
pub fn to_math_element(expr: &MathExpr) -> Element<'static> {
    Element::new("math").with_attr("xmlns", MATHML_NS).with_child(to_element(expr))
}

/// Serialize one expression node (without the `<math>` wrapper).
pub fn to_element(expr: &MathExpr) -> Element<'static> {
    match expr {
        MathExpr::Num(v) => Element::new("cn").with_text(format_number(*v)),
        MathExpr::Ci(name) => Element::new("ci").with_text(format!(" {name} ")),
        MathExpr::Csymbol { kind, name } => Element::new("csymbol")
            .with_attr("encoding", "text")
            .with_attr("definitionURL", kind.definition_url())
            .with_text(format!(" {name} ")),
        MathExpr::Const(c) => Element::new(c.mathml_name()),
        MathExpr::Apply { op, args } => {
            let mut apply = Element::new("apply").with_child(Element::new(op.mathml_name()));
            let mut rest: &[MathExpr] = args;
            // Re-materialise qualifiers so parse(write(x)) == x.
            match op {
                Op::Root => {
                    let (degree, tail) = args.split_first().expect("root arity >= 1");
                    if degree != &MathExpr::Num(2.0) {
                        apply.push_child(
                            Element::new("degree").with_child(to_element(degree)),
                        );
                    }
                    rest = tail;
                }
                Op::Log => {
                    let (base, tail) = args.split_first().expect("log arity >= 1");
                    if base != &MathExpr::Num(10.0) {
                        apply.push_child(
                            Element::new("logbase").with_child(to_element(base)),
                        );
                    }
                    rest = tail;
                }
                _ => {}
            }
            for arg in rest {
                apply.push_child(to_element(arg));
            }
            apply
        }
        MathExpr::Call { function, args } => {
            let mut apply =
                Element::new("apply").with_child(Element::new("ci").with_text(format!(" {function} ")));
            for arg in args {
                apply.push_child(to_element(arg));
            }
            apply
        }
        MathExpr::Piecewise { pieces, otherwise } => {
            let mut pw = Element::new("piecewise");
            for (value, cond) in pieces {
                pw.push_child(
                    Element::new("piece").with_child(to_element(value)).with_child(to_element(cond)),
                );
            }
            if let Some(other) = otherwise {
                pw.push_child(Element::new("otherwise").with_child(to_element(other)));
            }
            pw
        }
        MathExpr::Lambda { params, body } => {
            let mut lambda = Element::new("lambda");
            for p in params {
                lambda.push_child(
                    Element::new("bvar").with_child(Element::new("ci").with_text(format!(" {p} "))),
                );
            }
            lambda.push_child(to_element(body));
            lambda
        }
    }
}

/// Shortest round-trip decimal representation of a number.
pub fn format_number(v: f64) -> String {
    if v == 0.0 {
        // normalise -0.0
        return "0".to_owned();
    }
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render an expression as human-readable infix text (parseable back by
/// [`crate::infix::parse`]).
pub fn to_infix(expr: &MathExpr) -> String {
    let mut out = String::with_capacity(32);
    write_infix(expr, 0, &mut out);
    out
}

// Precedence levels: 1 or, 2 and, 3 not, 4 relational, 5 add, 6 mul,
// 7 unary minus, 8 power, 9 atom.
fn write_infix(expr: &MathExpr, parent_prec: u8, out: &mut String) {
    match expr {
        MathExpr::Num(v) => out.push_str(&format_number(*v)),
        MathExpr::Ci(name) => out.push_str(name),
        MathExpr::Csymbol { kind, .. } => out.push_str(match kind {
            crate::ast::CsymbolKind::Time => "time",
            crate::ast::CsymbolKind::Avogadro => "avogadro",
            crate::ast::CsymbolKind::Delay => "delay",
        }),
        MathExpr::Const(c) => out.push_str(c.mathml_name()),
        MathExpr::Apply { op, args } => write_infix_apply(*op, args, parent_prec, out),
        MathExpr::Call { function, args } => {
            out.push_str(function);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_infix(a, 0, out);
            }
            out.push(')');
        }
        MathExpr::Piecewise { pieces, otherwise } => {
            out.push_str("piecewise(");
            let mut first = true;
            for (v, c) in pieces {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                write_infix(v, 0, out);
                out.push_str(", ");
                write_infix(c, 0, out);
            }
            if let Some(other) = otherwise {
                if !first {
                    out.push_str(", ");
                }
                write_infix(other, 0, out);
            }
            out.push(')');
        }
        MathExpr::Lambda { params, body } => {
            out.push_str("lambda(");
            for p in params {
                out.push_str(p);
                out.push_str(", ");
            }
            write_infix(body, 0, out);
            out.push(')');
        }
    }
}

fn write_infix_apply(op: Op, args: &[MathExpr], parent_prec: u8, out: &mut String) {
    let (symbol, prec): (&str, u8) = match op {
        Op::Plus => (" + ", 5),
        Op::Minus if args.len() == 2 => (" - ", 5),
        Op::Minus => ("-", 7), // unary
        Op::Times => (" * ", 6),
        Op::Divide => (" / ", 6),
        Op::Power => ("^", 8),
        Op::Eq => (" == ", 4),
        Op::Neq => (" != ", 4),
        Op::Gt => (" > ", 4),
        Op::Lt => (" < ", 4),
        Op::Geq => (" >= ", 4),
        Op::Leq => (" <= ", 4),
        Op::And => (" && ", 2),
        Op::Or => (" || ", 1),
        Op::Xor => ("", 0),
        Op::Not => ("!", 3),
        _ => ("", 0),
    };

    match op {
        Op::Minus if args.len() == 1 => {
            let need = parent_prec > prec;
            if need {
                out.push('(');
            }
            out.push('-');
            write_infix(&args[0], prec + 1, out);
            if need {
                out.push(')');
            }
        }
        Op::Not => {
            let need = parent_prec > prec;
            if need {
                out.push('(');
            }
            out.push('!');
            write_infix(&args[0], prec + 1, out);
            if need {
                out.push(')');
            }
        }
        Op::Plus
        | Op::Minus
        | Op::Times
        | Op::Divide
        | Op::Power
        | Op::Eq
        | Op::Neq
        | Op::Gt
        | Op::Lt
        | Op::Geq
        | Op::Leq
        | Op::And
        | Op::Or => {
            let need = parent_prec > prec || (parent_prec == prec && !op.is_associative());
            if need {
                out.push('(');
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(symbol);
                }
                // Right operand of -, /, ^ needs tighter binding.
                let child_prec = if i == 0 { prec } else { prec + 1 };
                write_infix(a, child_prec, out);
            }
            if need {
                out.push(')');
            }
        }
        // Everything else renders as a function call.
        other => {
            out.push_str(match other {
                Op::Root => "root",
                Op::Log => "log",
                other => other.mathml_name(),
            });
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_infix(a, 0, out);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Constant;
    use crate::parser::parse;

    fn round_trip(expr: &MathExpr) -> MathExpr {
        let element = to_math_element(expr);
        parse(&element).unwrap()
    }

    #[test]
    fn mathml_round_trip_basics() {
        let cases = vec![
            MathExpr::num(3.5),
            MathExpr::num(-0.0),
            MathExpr::num(1e-9),
            MathExpr::ci("k1"),
            MathExpr::Const(Constant::Pi),
            MathExpr::apply(Op::Times, vec![MathExpr::ci("k1"), MathExpr::ci("A")]),
            MathExpr::apply(Op::Minus, vec![MathExpr::ci("x")]),
            MathExpr::apply(Op::Root, vec![MathExpr::num(3.0), MathExpr::ci("x")]),
            MathExpr::apply(Op::Root, vec![MathExpr::num(2.0), MathExpr::ci("x")]),
            MathExpr::apply(Op::Log, vec![MathExpr::num(2.0), MathExpr::ci("x")]),
            MathExpr::Call { function: "f".into(), args: vec![MathExpr::num(1.0)] },
            MathExpr::Piecewise {
                pieces: vec![(
                    MathExpr::num(1.0),
                    MathExpr::apply(Op::Lt, vec![MathExpr::ci("x"), MathExpr::num(2.0)]),
                )],
                otherwise: Some(Box::new(MathExpr::num(0.0))),
            },
            MathExpr::Lambda {
                params: vec!["x".into()],
                body: Box::new(MathExpr::apply(
                    Op::Plus,
                    vec![MathExpr::ci("x"), MathExpr::num(1.0)],
                )),
            },
        ];
        for expr in cases {
            let back = round_trip(&expr);
            // -0.0 normalises to 0.
            if let MathExpr::Num(v) = expr {
                if v == 0.0 {
                    assert_eq!(back, MathExpr::num(0.0));
                    continue;
                }
            }
            assert_eq!(back, expr);
        }
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(-5.0), "-5");
        assert_eq!(format_number(0.5), "0.5");
        assert_eq!(format_number(1e20), "100000000000000000000");
        assert_eq!(format_number(6.022e23), "602200000000000000000000");
    }

    #[test]
    fn infix_precedence() {
        let e = MathExpr::apply(
            Op::Times,
            vec![
                MathExpr::apply(Op::Plus, vec![MathExpr::ci("a"), MathExpr::ci("b")]),
                MathExpr::ci("c"),
            ],
        );
        assert_eq!(to_infix(&e), "(a + b) * c");

        let f = MathExpr::apply(
            Op::Minus,
            vec![
                MathExpr::ci("a"),
                MathExpr::apply(Op::Minus, vec![MathExpr::ci("b"), MathExpr::ci("c")]),
            ],
        );
        assert_eq!(to_infix(&f), "a - (b - c)");
    }

    #[test]
    fn infix_unary_and_power() {
        let e = MathExpr::apply(
            Op::Power,
            vec![MathExpr::ci("x"), MathExpr::num(2.0)],
        );
        assert_eq!(to_infix(&e), "x^2");
        let neg = MathExpr::apply(Op::Minus, vec![MathExpr::ci("x")]);
        assert_eq!(to_infix(&neg), "-x");
        let prod = MathExpr::apply(Op::Times, vec![MathExpr::num(2.0), neg]);
        assert_eq!(to_infix(&prod), "2 * -x"); // re-parses identically
    }

    #[test]
    fn infix_functions() {
        let e = MathExpr::apply(Op::Sin, vec![MathExpr::ci("x")]);
        assert_eq!(to_infix(&e), "sin(x)");
        let call = MathExpr::Call {
            function: "mm".into(),
            args: vec![MathExpr::ci("S"), MathExpr::ci("V")],
        };
        assert_eq!(to_infix(&call), "mm(S, V)");
    }

    #[test]
    fn math_element_is_namespaced() {
        let m = to_math_element(&MathExpr::num(1.0));
        assert_eq!(m.attr("xmlns"), Some(MATHML_NS));
        assert_eq!(m.name, "math");
    }
}
