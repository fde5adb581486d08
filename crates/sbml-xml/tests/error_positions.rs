//! Error-position parity: every malformed input below must fail with
//! exactly this `XmlError` variant, payload and `Position`.
//!
//! The table was recorded from the char-by-char tokenizer and owned DOM
//! that the borrowing parser replaced, so it pins the error contract
//! across rewrites of the read path. Cases cover every variant, errors on
//! later lines, columns after multibyte characters (columns count chars,
//! not bytes), CR and tab handling, duplicate attributes, bad entities in
//! text and in attribute values, and the order in which a token is read
//! in full before the DOM checks it.

/// `(input, expected error as its Debug form)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    // UnexpectedEof
    ("<a", r##"UnexpectedEof { context: "a start tag", at: Position { line: 1, column: 1 } }"##),
    ("<a href=", r##"UnexpectedEof { context: "an attribute value", at: Position { line: 1, column: 9 } }"##),
    ("<a href=\"x", r##"UnexpectedEof { context: "an attribute value", at: Position { line: 1, column: 4 } }"##),
    ("<a href='x\n\ny", r##"UnexpectedEof { context: "an attribute value", at: Position { line: 1, column: 4 } }"##),
    ("<a x", r##"UnexpectedEof { context: "'=' in an attribute", at: Position { line: 1, column: 5 } }"##),
    ("<a x=\"1\"", r##"UnexpectedEof { context: "a start tag", at: Position { line: 1, column: 1 } }"##),
    ("<a x=\"1\" ", r##"UnexpectedEof { context: "a start tag", at: Position { line: 1, column: 1 } }"##),
    ("<a/", r##"UnexpectedEof { context: "'>' after '/'", at: Position { line: 1, column: 4 } }"##),
    ("</", r##"UnexpectedEof { context: "a name", at: Position { line: 1, column: 3 } }"##),
    ("</a", r##"UnexpectedEof { context: "'>' closing an end tag", at: Position { line: 1, column: 4 } }"##),
    ("<!-- never closed", r##"UnexpectedEof { context: "a comment", at: Position { line: 1, column: 1 } }"##),
    ("<r>\n  <!-- never closed", r##"UnexpectedEof { context: "a comment", at: Position { line: 2, column: 3 } }"##),
    ("<![CDATA[open", r##"UnexpectedEof { context: "a CDATA section", at: Position { line: 1, column: 1 } }"##),
    ("<r><![CDATA[open", r##"UnexpectedEof { context: "a CDATA section", at: Position { line: 1, column: 4 } }"##),
    ("<?pi no end", r##"UnexpectedEof { context: "a processing instruction", at: Position { line: 1, column: 1 } }"##),
    ("<?", r##"UnexpectedEof { context: "a name", at: Position { line: 1, column: 3 } }"##),
    ("<!DOCTYPE sbml [ <!ENTITY x 'y'>", r##"UnexpectedEof { context: "a DOCTYPE", at: Position { line: 1, column: 1 } }"##),
    ("<", r##"UnexpectedEof { context: "a name", at: Position { line: 1, column: 2 } }"##),
    ("<r>\n\t<αβ\n", r##"UnexpectedEof { context: "a start tag", at: Position { line: 2, column: 2 } }"##),
    // UnexpectedChar
    ("<a x=1/>", r##"UnexpectedChar { found: '1', expected: "a quoted attribute value", at: Position { line: 1, column: 6 } }"##),
    ("<a x \"1\"/>", r##"UnexpectedChar { found: '"', expected: "'=' in an attribute", at: Position { line: 1, column: 6 } }"##),
    ("<1a/>", r##"UnexpectedChar { found: '1', expected: "a name", at: Position { line: 1, column: 2 } }"##),
    ("< a/>", r##"UnexpectedChar { found: ' ', expected: "a name", at: Position { line: 1, column: 2 } }"##),
    ("<a/ >", r##"UnexpectedChar { found: ' ', expected: "'>' after '/'", at: Position { line: 1, column: 4 } }"##),
    ("<a / >", r##"UnexpectedChar { found: ' ', expected: "'>' after '/'", at: Position { line: 1, column: 5 } }"##),
    ("</a x>", r##"UnexpectedChar { found: 'x', expected: "'>' closing an end tag", at: Position { line: 1, column: 5 } }"##),
    ("<a></a x>", r##"UnexpectedChar { found: 'x', expected: "'>' closing an end tag", at: Position { line: 1, column: 8 } }"##),
    ("<a>\n  <b x='1' 2/>\n</a>", r##"UnexpectedChar { found: '2', expected: "an attribute, '>' or '/>'", at: Position { line: 2, column: 12 } }"##),
    ("<a t='αβγ' §/>", r##"UnexpectedChar { found: '§', expected: "an attribute, '>' or '/>'", at: Position { line: 1, column: 12 } }"##),
    ("<a>\nαβγ<b =/></a>", r##"UnexpectedChar { found: '=', expected: "an attribute, '>' or '/>'", at: Position { line: 2, column: 7 } }"##),
    ("<a>\r\n<b x=\"1\" y=></b></a>", r##"UnexpectedChar { found: '>', expected: "a quoted attribute value", at: Position { line: 2, column: 12 } }"##),
    ("<α x='é'\n   ü=?/>", r##"UnexpectedChar { found: '?', expected: "a quoted attribute value", at: Position { line: 2, column: 6 } }"##),
    ("<a\tb='1'\t#/>", r##"UnexpectedChar { found: '#', expected: "an attribute, '>' or '/>'", at: Position { line: 1, column: 10 } }"##),
    ("<r><x:y/><z ='1'/></r>", r##"UnexpectedChar { found: '=', expected: "an attribute, '>' or '/>'", at: Position { line: 1, column: 13 } }"##),
    ("<r>→<?9?></r>", r##"UnexpectedChar { found: '9', expected: "a name", at: Position { line: 1, column: 7 } }"##),
    ("<a x='1'y='2' 'z'/>", r##"UnexpectedChar { found: '\'', expected: "an attribute, '>' or '/>'", at: Position { line: 1, column: 15 } }"##),
    ("<!-->", r##"UnexpectedEof { context: "a comment", at: Position { line: 1, column: 1 } }"##),
    // MismatchedTag
    ("<a><b></a></b>", r##"MismatchedTag { open: "b", close: "a", at: Position { line: 1, column: 7 } }"##),
    ("<a>\n  <b>\n  </c>\n</a>", r##"MismatchedTag { open: "b", close: "c", at: Position { line: 3, column: 3 } }"##),
    ("<α><β></α>", r##"MismatchedTag { open: "β", close: "α", at: Position { line: 1, column: 7 } }"##),
    ("<a>\n  αβγ</b>", r##"MismatchedTag { open: "a", close: "b", at: Position { line: 2, column: 6 } }"##),
    ("<m:a></a>", r##"MismatchedTag { open: "m:a", close: "a", at: Position { line: 1, column: 6 } }"##),
    // UnopenedTag
    ("</a>", r##"UnopenedTag { name: "a", at: Position { line: 1, column: 1 } }"##),
    ("<a/></b>", r##"UnopenedTag { name: "b", at: Position { line: 1, column: 5 } }"##),
    ("<a></a>\n  </a>", r##"UnopenedTag { name: "a", at: Position { line: 2, column: 3 } }"##),
    ("  \n\t</é>", r##"UnopenedTag { name: "é", at: Position { line: 2, column: 2 } }"##),
    // UnclosedTag
    ("<a>", r##"UnclosedTag { name: "a", at: Position { line: 1, column: 1 } }"##),
    ("<a>\n <b>\n", r##"UnclosedTag { name: "b", at: Position { line: 2, column: 2 } }"##),
    ("<a><b/><c>text", r##"UnclosedTag { name: "c", at: Position { line: 1, column: 8 } }"##),
    ("<r>\n  αβ <é x='1'>", r##"UnclosedTag { name: "é", at: Position { line: 2, column: 6 } }"##),
    // DuplicateAttribute
    ("<a x=\"1\" x=\"2\"/>", r##"DuplicateAttribute { name: "x", at: Position { line: 1, column: 10 } }"##),
    ("<a\n  x=\"1\"\n  y=\"2\"\n  x=\"3\"/>", r##"DuplicateAttribute { name: "x", at: Position { line: 4, column: 3 } }"##),
    ("<a é=\"1\" é=\"2\"/>", r##"DuplicateAttribute { name: "é", at: Position { line: 1, column: 10 } }"##),
    ("<r>\n αβ<a k='&lt;' k='v'></a></r>", r##"DuplicateAttribute { name: "k", at: Position { line: 2, column: 16 } }"##),
    // BadEntity
    ("<a>&nope;</a>", r##"BadEntity { entity: "nope", at: Position { line: 1, column: 4 } }"##),
    ("<a x=\"&bogus;\"/>", r##"BadEntity { entity: "bogus", at: Position { line: 1, column: 4 } }"##),
    ("<a>&amp</a>", r##"BadEntity { entity: "amp", at: Position { line: 1, column: 4 } }"##),
    ("<a>text &waytoolongentityname; more</a>", r##"BadEntity { entity: "waytoolongentity", at: Position { line: 1, column: 4 } }"##),
    ("<a>&#xZZ;</a>", r##"BadEntity { entity: "#xZZ", at: Position { line: 1, column: 4 } }"##),
    ("<a>&#xD800;</a>", r##"BadEntity { entity: "#xD800", at: Position { line: 1, column: 4 } }"##),
    ("<a>&#;</a>", r##"BadEntity { entity: "#", at: Position { line: 1, column: 4 } }"##),
    ("<a>\n  x &foo; y</a>", r##"BadEntity { entity: "foo", at: Position { line: 1, column: 4 } }"##),
    ("<a>\n <b\n   v='ok &amp; &bad;'/></a>", r##"BadEntity { entity: "bad", at: Position { line: 3, column: 4 } }"##),
    ("<a v=\"αβ&γδ;\"/>", r##"BadEntity { entity: "γδ", at: Position { line: 1, column: 4 } }"##),
    ("<a>αβγ &αβγδεζηθικλμνξοπρσ</a>", r##"BadEntity { entity: "αβγδεζηθικλμνξοπ", at: Position { line: 1, column: 4 } }"##),
    ("<a>&</a>", r##"BadEntity { entity: "", at: Position { line: 1, column: 4 } }"##),
    ("<a v='&'/>", r##"BadEntity { entity: "", at: Position { line: 1, column: 4 } }"##),
    ("<a>ok &#38; &#x3B1; &unknown;</a>", r##"BadEntity { entity: "unknown", at: Position { line: 1, column: 4 } }"##),
    // ContentOutsideRoot
    ("stray<a/>", r##"ContentOutsideRoot { at: Position { line: 1, column: 1 } }"##),
    ("<a/>tail", r##"ContentOutsideRoot { at: Position { line: 1, column: 5 } }"##),
    ("<![CDATA[x]]><a/>", r##"ContentOutsideRoot { at: Position { line: 1, column: 1 } }"##),
    ("\n\n  x<a/>", r##"ContentOutsideRoot { at: Position { line: 1, column: 1 } }"##),
    ("<a/>\n<![CDATA[y]]>", r##"ContentOutsideRoot { at: Position { line: 2, column: 1 } }"##),
    ("αβ<a/>", r##"ContentOutsideRoot { at: Position { line: 1, column: 1 } }"##),
    // NoRootElement
    ("", r##"NoRootElement"##),
    ("  ", r##"NoRootElement"##),
    ("<!-- c -->", r##"NoRootElement"##),
    ("<?xml version='1.0'?>", r##"NoRootElement"##),
    ("<!DOCTYPE sbml>\n", r##"NoRootElement"##),
    // MultipleRoots
    ("<a/><b/>", r##"MultipleRoots { at: Position { line: 1, column: 5 } }"##),
    ("<a/>\n<b/>", r##"MultipleRoots { at: Position { line: 2, column: 1 } }"##),
    ("<a></a>\n  <!-- c -->\n  <é/>", r##"MultipleRoots { at: Position { line: 3, column: 3 } }"##),
    // Ordering: a token is read in full before the DOM checks it.
    ("<a/><b x=1/>", r##"UnexpectedChar { found: '1', expected: "a quoted attribute value", at: Position { line: 1, column: 10 } }"##),
    ("<a></b x>", r##"UnexpectedChar { found: 'x', expected: "'>' closing an end tag", at: Position { line: 1, column: 8 } }"##),
    ("&bad;<a/>", r##"BadEntity { entity: "bad", at: Position { line: 1, column: 1 } }"##),
    ("  &bad; <a/>", r##"BadEntity { entity: "bad", at: Position { line: 1, column: 1 } }"##),
    ("<a x=\"1\" x=\"&bad;\"/>", r##"BadEntity { entity: "bad", at: Position { line: 1, column: 10 } }"##),
    ("<a x=\"1\" x=\"2", r##"UnexpectedEof { context: "an attribute value", at: Position { line: 1, column: 10 } }"##),
    // Positions after multi-line comments, CDATA, PIs and DOCTYPEs.
    ("<r><!-- a\nb --><![CDATA[\nx]]>\n <b></r>", r##"MismatchedTag { open: "b", close: "r", at: Position { line: 4, column: 5 } }"##),
    ("<?pi\n data\n?><!DOCTYPE r [\n<!ENTITY e 'v'>\n]>\n  <r></q>", r##"MismatchedTag { open: "r", close: "q", at: Position { line: 6, column: 6 } }"##),
    ("<r>\r\r<b></r>", r##"MismatchedTag { open: "b", close: "r", at: Position { line: 1, column: 9 } }"##),
    ("<r>αβ\n→→<b>\n\t\t</r>", r##"MismatchedTag { open: "b", close: "r", at: Position { line: 3, column: 3 } }"##),
    ("<r a='x\ny' b='é\n'\n c=></r>", r##"UnexpectedChar { found: '>', expected: "a quoted attribute value", at: Position { line: 4, column: 4 } }"##),
];

#[test]
fn every_error_keeps_its_variant_and_position() {
    let mut mismatches = Vec::new();
    for (input, expected) in GOLDEN {
        let got = match sbml_xml::parse_document(input) {
            Ok(_) => "Ok".to_owned(),
            Err(e) => format!("{e:?}"),
        };
        if got != *expected {
            mismatches.push(format!("{input:?}\n  expected {expected}\n  got      {got}"));
        }
    }
    assert!(mismatches.is_empty(), "{} mismatches:\n{}", mismatches.len(), mismatches.join("\n"));
}

#[test]
fn parse_element_reports_the_same_errors() {
    for (input, expected) in GOLDEN {
        let got = format!("{:?}", sbml_xml::parse_element(input).unwrap_err());
        assert_eq!(&got, expected, "{input:?}");
    }
}
