//! Property tests: arbitrary generated DOM trees must survive
//! serialize → parse → serialize unchanged, and entity references must
//! unescape to the text they stand for.

use std::borrow::Cow;

use proptest::prelude::*;
use sbml_xml::{
    dom::{Document, Element, Node},
    writer::{write_with, WriteOptions},
};

/// Generate plausible XML names, ASCII and non-ASCII (multibyte letters
/// are name characters too).
fn name_strategy() -> impl Strategy<Value = String> {
    let start = prop_oneof![
        proptest::char::range('a', 'z'),
        proptest::char::range('A', 'Z'),
        Just('_'),
        proptest::char::range('α', 'ω'),
        Just('é'),
    ];
    let rest = prop_oneof![
        proptest::char::range('a', 'z'),
        proptest::char::range('0', '9'),
        Just('_'),
        Just('.'),
        Just('-'),
        proptest::char::range('α', 'ω'),
        Just('ü'),
    ];
    (start, proptest::collection::vec(rest, 0..12))
        .prop_map(|(first, rest)| std::iter::once(first).chain(rest).collect())
}

/// Attribute/text values, including characters that require escaping.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z').prop_map(|c| c.to_string()),
            Just("<".to_owned()),
            Just(">".to_owned()),
            Just("&".to_owned()),
            Just("\"".to_owned()),
            Just("'".to_owned()),
            Just(" ".to_owned()),
            Just("α".to_owned()),
        ],
        0..12,
    )
    .prop_map(|parts| parts.concat())
}

fn element_strategy() -> impl Strategy<Value = Element<'static>> {
    let leaf = (name_strategy(), proptest::collection::vec((name_strategy(), value_strategy()), 0..4))
        .prop_map(|(name, raw_attrs)| {
            let mut e = Element::new(name);
            for (k, v) in raw_attrs {
                e.set_attr(k, v); // dedups repeated keys
            }
            e
        });
    leaf.prop_recursive(4, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), value_strategy()), 0..4),
            proptest::collection::vec(
                prop_oneof![
                    inner.prop_map(Node::Element),
                    value_strategy()
                        .prop_filter("non-empty text", |v| !v.is_empty())
                        .prop_map(|v| Node::Text(v.into())),
                ],
                0..4,
            ),
        )
            .prop_map(|(name, raw_attrs, children)| {
                let mut e = Element::new(name);
                for (k, v) in raw_attrs {
                    e.set_attr(k, v);
                }
                // Adjacent text nodes merge on reparse; coalesce up front so
                // equality holds structurally.
                let mut kids: Vec<Node> = Vec::new();
                for node in children {
                    match (node, kids.last_mut()) {
                        (Node::Text(t), Some(Node::Text(prev))) => prev.to_mut().push_str(&t),
                        (node, _) => kids.push(node),
                    }
                }
                e.children = kids.into();
                e
            })
    })
}

/// Escape `s` with character references only: every markup character,
/// every non-ASCII char and (by `seed` bits) some plain letters become
/// decimal or hexadecimal references, so parsing must take the unescaping
/// path to get `s` back.
fn escape_with_char_refs(s: &str, seed: u64) -> String {
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        let bit = seed.rotate_left(i as u32) & 1 == 1;
        let forced = matches!(c, '<' | '>' | '&' | '"' | '\'') || !c.is_ascii();
        match (forced || bit, bit) {
            (false, _) => out.push(c),
            (true, true) => out.push_str(&format!("&#x{:X};", c as u32)),
            (true, false) => out.push_str(&format!("&#{};", c as u32)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn character_references_unescape(
        name in name_strategy(),
        value in value_strategy(),
        text in value_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let raw_value = escape_with_char_refs(&value, seed);
        let raw_text = escape_with_char_refs(&text, !seed);
        let xml = format!("<{name} {name}=\"{raw_value}\">{raw_text}</{name}>");
        let doc = Document::parse(&xml).unwrap();
        prop_assert_eq!(doc.root.name.as_ref(), name.as_str());
        prop_assert_eq!(doc.root.attr(&name), Some(value.as_str()));
        prop_assert_eq!(doc.root.text(), text.as_str());
        // Values borrow from the input unless a reference forced a copy.
        let (_, parsed_value) = &doc.root.attrs[0];
        prop_assert_eq!(matches!(parsed_value, Cow::Owned(_)), raw_value.contains('&'));
    }

    #[test]
    fn compact_round_trip(root in element_strategy()) {
        let doc = Document { declaration: None, root };
        let opts = WriteOptions { indent: None, declaration: false };
        let text = write_with(&doc, opts);
        let reparsed = Document::parse(&text).unwrap();
        prop_assert_eq!(doc.root.clone(), reparsed.root);
        // And a second trip is byte-stable.
        let text2 = write_with(&Document::parse(&text).unwrap(), opts);
        prop_assert_eq!(text, text2);
    }

    #[test]
    fn pretty_round_trip_preserves_non_whitespace(root in element_strategy()) {
        let doc = Document { declaration: None, root };
        let pretty = write_with(&doc, WriteOptions { indent: Some(2), declaration: false });
        // Must always reparse.
        let reparsed = Document::parse(&pretty);
        prop_assert!(reparsed.is_ok(), "pretty output failed to reparse: {pretty}");
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,256}") {
        let _ = Document::parse(&input); // may error, must not panic
    }

    #[test]
    fn parser_never_panics_on_tag_soup(input in "[<>&;a-z \"'=/!-]{0,128}") {
        let _ = Document::parse(&input);
    }
}

