//! XML entity escaping and unescaping.
//!
//! Supports the five predefined entities (`&lt; &gt; &amp; &apos; &quot;`)
//! plus decimal (`&#38;`) and hexadecimal (`&#x26;`) character references,
//! which appear in real BioModels SBML files inside notes and names.

use std::borrow::Cow;

use crate::error::{Position, XmlError};

/// Escape text content straight into `out`: `&`, `<`, `>` are replaced.
/// Quotes are left alone, which is valid in text nodes and keeps output
/// readable.
pub fn escape_text_into(out: &mut String, s: &str) {
    escape_into(out, s, false);
}

/// Escape an attribute value for inclusion in double quotes, straight
/// into `out`: `&`, `<`, `>`, `"` and `'` are replaced.
pub fn escape_attr_into(out: &mut String, s: &str) {
    escape_into(out, s, true);
}

fn escape_into(out: &mut String, s: &str, quotes: bool) {
    // Every escapable character is ASCII, so `i` is always a char boundary.
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quotes => "&quot;",
            b'\'' if quotes => "&apos;",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        out.push_str(entity);
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Resolve a single entity body (the text between `&` and `;`).
///
/// Returns `None` for unknown names or malformed character references.
pub fn resolve_entity(body: &str) -> Option<char> {
    match body {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => {
            let rest = body.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

/// Unescape a run of character data, resolving entity references.
///
/// Borrows `s` unchanged when it holds no `&`. `at` is the position of the
/// start of `s`, used for error reporting only (the tokenizer always
/// reports the run start).
pub fn unescape(s: &str, at: Position) -> Result<Cow<'_, str>, XmlError> {
    unescape_or_entity(s).map_err(|entity| XmlError::BadEntity { entity, at })
}

/// [`unescape`] without a position: the error is the offending entity
/// text, so callers compute a position only when one is needed.
pub(crate) fn unescape_or_entity(s: &str) -> Result<Cow<'_, str>, String> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let Some(semi) = after.find(';') else {
            return Err(truncate(after));
        };
        let body = &after[..semi];
        // Entity bodies are short; anything long is certainly malformed.
        if body.len() > 12 {
            return Err(truncate(body));
        }
        let Some(c) = resolve_entity(body) else {
            return Err(body.to_owned());
        };
        out.push(c);
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

fn truncate(s: &str) -> String {
    s.chars().take(16).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape_text(s: &str) -> String {
        let mut out = String::new();
        escape_text_into(&mut out, s);
        out
    }

    fn escape_attr(s: &str) -> String {
        let mut out = String::new();
        escape_attr_into(&mut out, s);
        out
    }

    #[test]
    fn escape_text_basics() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_text(""), "");
        assert_eq!(escape_text("α<β"), "α&lt;β");
        // Quotes untouched in text context.
        assert_eq!(escape_text("say \"hi\""), "say \"hi\"");
    }

    #[test]
    fn escape_appends_to_existing_output() {
        let mut out = String::from("<p v=\"");
        escape_attr_into(&mut out, "1&2");
        assert_eq!(out, "<p v=\"1&amp;2");
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(escape_attr("a\"b'c"), "a&quot;b&apos;c");
        assert_eq!(escape_attr("x<y"), "x&lt;y");
    }

    #[test]
    fn resolve_named_entities() {
        assert_eq!(resolve_entity("lt"), Some('<'));
        assert_eq!(resolve_entity("gt"), Some('>'));
        assert_eq!(resolve_entity("amp"), Some('&'));
        assert_eq!(resolve_entity("apos"), Some('\''));
        assert_eq!(resolve_entity("quot"), Some('"'));
        assert_eq!(resolve_entity("nbsp"), None);
    }

    #[test]
    fn resolve_numeric_entities() {
        assert_eq!(resolve_entity("#38"), Some('&'));
        assert_eq!(resolve_entity("#x26"), Some('&'));
        assert_eq!(resolve_entity("#X26"), Some('&'));
        assert_eq!(resolve_entity("#x3B1"), Some('α'));
        assert_eq!(resolve_entity("#"), None);
        assert_eq!(resolve_entity("#xZZ"), None);
        // Surrogate code points are not chars.
        assert_eq!(resolve_entity("#xD800"), None);
    }

    #[test]
    fn unescape_round_trip() {
        let original = "k1 < k2 & \"rate\" 'x' α";
        let escaped = escape_attr(original);
        let back = unescape(&escaped, Position::START).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unescape_plain_fast_path() {
        let plain = unescape("no entities", Position::START).unwrap();
        assert!(matches!(plain, Cow::Borrowed("no entities")));
        assert!(matches!(unescape("a&amp;b", Position::START).unwrap(), Cow::Owned(_)));
    }

    #[test]
    fn unescape_errors() {
        assert!(unescape("&unterminated", Position::START).is_err());
        assert!(unescape("&bogus;", Position::START).is_err());
        assert!(unescape("&waytoolongentityname;", Position::START).is_err());
    }

    #[test]
    fn unescape_mixed_content() {
        assert_eq!(
            unescape("a&lt;b&#32;c&gt;d", Position::START).unwrap(),
            "a<b c>d"
        );
    }
}
