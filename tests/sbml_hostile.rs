//! Hostile-input hardening for the SBML read path: *no* string handed to
//! `parse_sbml` may panic. Every truncation and a schedule of character
//! substitutions over a corpus chain document, a conflict-corpus document
//! and a query fragment must come back as `Ok` or a structured
//! [`ModelError`]. The daemon parses every COMPOSE, MATCH, QUERY and
//! UPSERT payload with this code, so a panic here is a crash on the
//! request path. The byte-level tokenizer slices `&str`s at delimiter
//! offsets; these cases put multibyte chars next to every delimiter to
//! catch a slice off a char boundary.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sbmlcompose::corpus::{corpus_187, corpus_conflict, query_fragment, scale_model};
use sbmlcompose::model::{parse_sbml, write_sbml, Model, ModelError};

/// The replacement chars: multibyte (2- and 3-byte UTF-8), quotes and
/// markup delimiters.
const SUBSTITUTES: [char; 9] = ['α', '→', '"', '\'', '<', '&', '/', '>', '='];

/// The first corpus_187 chain document (the chain starts at index 30),
/// cut down to a few species, parameters and reactions with their
/// kinetic-law MathML, so that every truncation stays cheap (about 3 KB).
fn chain_document() -> String {
    let mut model = corpus_187().swap_remove(30);
    model.species.truncate(6);
    model.parameters.truncate(4);
    model.reactions.truncate(3);
    write_sbml(&model)
}

/// One conflict-corpus model cut down the same way (about 5 KB): a
/// lambda function definition and an event whose trigger and assignment
/// are wide sums.
fn conflict_document() -> String {
    let mut model: Model = corpus_conflict(1).swap_remove(0);
    model.species.truncate(3);
    model.parameters.truncate(2);
    model.reactions.clear();
    model.rules.clear();
    model.constraints.clear();
    model.function_definitions.truncate(1);
    model.events.truncate(1);
    model.events[0].assignments.truncate(1);
    write_sbml(&model)
}

fn fragment_document() -> String {
    write_sbml(&query_fragment(&scale_model(17), 5, 1))
}

fn documents() -> Vec<(&'static str, String)> {
    vec![
        ("chain", chain_document()),
        ("conflict", conflict_document()),
        ("fragment", fragment_document()),
    ]
}

/// Parse `text`; the only acceptable outcomes are `Ok` or a structured
/// error, and an XML error must point inside the text.
fn must_not_panic(text: &str, what: &str) -> Result<Model, ModelError> {
    let result = catch_unwind(AssertUnwindSafe(|| parse_sbml(text)));
    let Ok(parsed) = result else {
        panic!("parse_sbml panicked on {what}");
    };
    if let Err(ModelError::Xml(e)) = &parsed {
        if let Some(at) = e.position() {
            let lines: Vec<&str> = text.split('\n').collect();
            let line = lines.get(at.line as usize - 1);
            assert!(line.is_some(), "{what}: {e} points past the last line");
            let width = line.map_or(0, |l| l.chars().count()) as u32;
            assert!(at.column >= 1 && at.column <= width + 1, "{what}: {e} points past its line");
        }
    }
    parsed
}

#[test]
fn documents_parse_back_to_their_models() {
    for (name, text) in documents() {
        assert!(text.len() < 8_000, "{name} is {} bytes; keep the cases cheap", text.len());
        let model = must_not_panic(&text, name).unwrap();
        assert_eq!(write_sbml(&model), text, "{name} round trip");
    }
}

#[test]
fn every_truncation_yields_ok_or_a_structured_error() {
    for (name, text) in documents() {
        let closed = text.rfind('>').expect("a document ends in a tag") + 1;
        for (cut, _) in text.char_indices() {
            let result = must_not_panic(&text[..cut], &format!("{name} cut at byte {cut}"));
            assert!(
                cut >= closed || result.is_err(),
                "{name} cut at byte {cut}/{} cannot parse",
                text.len()
            );
        }
    }
}

#[test]
fn char_substitutions_yield_ok_or_a_structured_error() {
    for (name, text) in documents() {
        // Every fifth char: each substitute still lands in names, values,
        // text and on delimiters, without a quadratic blow-up.
        for (at, _) in text.char_indices().step_by(5) {
            let len = text[at..].chars().next().map_or(0, char::len_utf8);
            for sub in SUBSTITUTES {
                let mut mutated = String::with_capacity(text.len() + 4);
                mutated.push_str(&text[..at]);
                mutated.push(sub);
                mutated.push_str(&text[at + len..]);
                let _ = must_not_panic(&mutated, &format!("{name} with {sub:?} at byte {at}"));
            }
        }
    }
}

#[test]
fn multibyte_chars_next_to_every_delimiter_never_panic() {
    for (name, text) in documents() {
        // Insert a multibyte char right before and after each delimiter
        // byte, where a byte-offset slice is most likely to go wrong.
        for (at, c) in text.char_indices() {
            if !matches!(c, '<' | '>' | '"' | '=' | '/' | '&' | ';') {
                continue;
            }
            for insert_at in [at, at + 1] {
                let mutated = format!("{}→{}", &text[..insert_at], &text[insert_at..]);
                let what = format!("{name} with '→' inserted at byte {insert_at}");
                let _ = must_not_panic(&mutated, &what);
            }
        }
    }
}
