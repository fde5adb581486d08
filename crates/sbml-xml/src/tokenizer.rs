//! Pull tokenizer for the XML subset used by SBML.
//!
//! The tokenizer walks the input once and yields [`Token`]s that borrow
//! from it: names, comments, CDATA sections and processing instructions
//! are `&'a str` slices, and text runs and attribute values are
//! `Cow::Borrowed` unless an entity reference forces unescaping into an
//! owned string. Every delimiter is ASCII, so the scan works on bytes and
//! decodes a char only where a name or an error needs one. Line and
//! column are synced lazily, only when a token start or an error needs a
//! [`Position`]; columns count chars, not bytes.

use std::borrow::Cow;

use crate::error::{Position, XmlError};
use crate::escape::unescape_or_entity;

/// One attribute: name and (unescaped) value. Parsed names are always
/// `Cow::Borrowed`; the pair is the DOM's attribute type, so a start tag's
/// attributes move into its element without a copy.
pub type Attribute<'a> = (Cow<'a, str>, Cow<'a, str>);

/// One lexical event in an XML document, borrowing from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<?xml version="1.0" ...?>` — payload is the raw pseudo-attribute text.
    Declaration {
        /// Raw text between `<?xml` and `?>`, trimmed.
        content: &'a str,
        /// Start position.
        at: Position,
    },
    /// An opening tag, possibly self-closing (`<a x="1">` or `<a/>`).
    StartTag {
        /// Qualified element name (prefix preserved).
        name: &'a str,
        /// Attributes in document order, values already unescaped.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
        /// Start position of `<`.
        at: Position,
    },
    /// A closing tag `</a>`.
    EndTag {
        /// Qualified element name.
        name: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// Character data between tags, already unescaped.
    Text {
        /// Unescaped content (borrowed unless it held an entity).
        content: Cow<'a, str>,
        /// Start position of the run.
        at: Position,
    },
    /// `<![CDATA[...]]>` content, verbatim.
    CData {
        /// Verbatim content.
        content: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// `<!-- ... -->` content, verbatim.
    Comment {
        /// Verbatim content.
        content: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// `<?target data?>` (other than the XML declaration).
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// PI data, trimmed (may be empty).
        data: &'a str,
        /// Start position of `<`.
        at: Position,
    },
    /// A `<!DOCTYPE ...>` that was recognised and skipped.
    DoctypeSkipped {
        /// Start position of `<`.
        at: Position,
    },
}

impl Token<'_> {
    /// The source position where this token starts.
    pub fn position(&self) -> Position {
        match self {
            Token::Declaration { at, .. }
            | Token::StartTag { at, .. }
            | Token::EndTag { at, .. }
            | Token::Text { at, .. }
            | Token::CData { at, .. }
            | Token::Comment { at, .. }
            | Token::ProcessingInstruction { at, .. }
            | Token::DoctypeSkipped { at } => *at,
        }
    }
}

/// Streaming tokenizer over a borrowed input string.
pub struct Tokenizer<'a> {
    input: &'a str,
    /// Byte offset of the cursor; always on a char boundary.
    pos: usize,
    /// Byte offset up to which `line`/`column` have been counted.
    synced: usize,
    line: u32,
    column: u32,
    /// Attribute buffer reused across start tags; each tag gets an
    /// exactly sized copy.
    attrs: Vec<Attribute<'a>>,
}

impl<'a> Tokenizer<'a> {
    /// Create a tokenizer at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer { input, pos: 0, synced: 0, line: 1, column: 1, attrs: Vec::new() }
    }

    /// Current position (1-based line/column).
    pub fn current_position(&self) -> Position {
        let (line, column) = self.advance_position(self.pos);
        Position { line, column }
    }

    /// True when the whole input has been consumed.
    pub fn at_eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Line and column of byte `offset`, counted on from the last synced
    /// offset (or from the start if `offset` lies before it).
    fn advance_position(&self, offset: usize) -> (u32, u32) {
        let (from, mut line, mut column) =
            if offset >= self.synced { (self.synced, self.line, self.column) } else { (0, 1, 1) };
        for &b in self.input.as_bytes().get(from..offset).unwrap_or_default() {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else if (b as i8) >= -0x40 {
                // Not a UTF-8 continuation byte: a char starts here.
                column += 1;
            }
        }
        (line, column)
    }

    /// The position of byte `offset`, remembered so later positions count
    /// on from it.
    fn position_at(&mut self, offset: usize) -> Position {
        let (line, column) = self.advance_position(offset);
        self.synced = offset;
        self.line = line;
        self.column = column;
        Position { line, column }
    }

    fn rest(&self) -> &'a str {
        self.input.get(self.pos..).unwrap_or_default()
    }

    fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek_byte(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn unexpected(&mut self, expected: &'static str) -> XmlError {
        let at = self.position_at(self.pos);
        match self.peek_char() {
            Some(found) => XmlError::UnexpectedChar { found, expected, at },
            None => XmlError::UnexpectedEof { context: expected, at },
        }
    }

    fn eat(&mut self, expected: u8, what: &'static str) -> Result<(), XmlError> {
        if self.peek_byte() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// True when a name starts at the cursor.
    fn at_name_start(&self) -> bool {
        match self.peek_byte() {
            Some(b) if b.is_ascii() => b.is_ascii_alphabetic() || b == b'_' || b == b':',
            Some(_) => self.peek_char().is_some_and(char::is_alphabetic),
            None => false,
        }
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        if !self.at_name_start() {
            return Err(self.unexpected("a name"));
        }
        let start = self.pos;
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii() {
                if !is_ascii_name_char(b) {
                    break;
                }
                self.pos += 1;
            } else {
                // A non-ASCII char continues a name exactly when it is
                // alphabetic.
                match self.peek_char() {
                    Some(c) if c.is_alphabetic() => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        Ok(&self.input[start..self.pos])
    }

    /// Pull the next token, or `Ok(None)` at end of input.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, XmlError> {
        if self.at_eof() {
            return Ok(None);
        }
        let at = self.position_at(self.pos);
        let rest = self.rest();
        let bytes = rest.as_bytes();
        if bytes.first() != Some(&b'<') {
            return self.read_text(at).map(Some);
        }
        // A markup construct, told apart by its second byte.
        match bytes.get(1) {
            Some(b'/') => self.read_end_tag(at),
            Some(b'?') => self.read_pi(at),
            Some(b'!') if rest.starts_with("<!--") => self.read_comment(at),
            Some(b'!') if rest.starts_with("<![CDATA[") => self.read_cdata(at),
            Some(b'!') if rest.starts_with("<!DOCTYPE") => self.read_doctype(at),
            _ => self.read_start_tag(at),
        }
        .map(Some)
    }

    fn read_text(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        let (raw, has_entity) = self.read_until(b'<');
        let content = if has_entity {
            unescape_or_entity(raw).map_err(|entity| XmlError::BadEntity { entity, at })?
        } else {
            Cow::Borrowed(raw)
        };
        Ok(Token::Text { content, at })
    }

    /// Advance to the next `end` byte (or the end of input) and return the
    /// text skipped, and whether it holds an `&`.
    fn read_until(&mut self, end: u8) -> (&'a str, bool) {
        let rest = self.rest();
        let mut has_entity = false;
        let len = rest
            .bytes()
            .position(|b| {
                has_entity |= b == b'&';
                b == end
            })
            .unwrap_or(rest.len());
        self.pos += len;
        (&rest[..len], has_entity)
    }

    /// The content up to `terminator` after skipping an `opener`-byte
    /// prefix, leaving the cursor after the terminator.
    fn read_delimited(
        &mut self,
        opener: usize,
        terminator: &str,
        context: &'static str,
        at: Position,
    ) -> Result<&'a str, XmlError> {
        self.pos += opener;
        let rest = self.rest();
        let Some(end) = rest.find(terminator) else {
            return Err(XmlError::UnexpectedEof { context, at });
        };
        self.pos += end + terminator.len();
        Ok(&rest[..end])
    }

    fn read_comment(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        let content = self.read_delimited("<!--".len(), "-->", "a comment", at)?;
        Ok(Token::Comment { content, at })
    }

    fn read_cdata(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        let content = self.read_delimited("<![CDATA[".len(), "]]>", "a CDATA section", at)?;
        Ok(Token::CData { content, at })
    }

    fn read_doctype(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.pos += "<!DOCTYPE".len();
        // Skip to the matching '>', tracking '[' ... ']' internal subsets.
        let mut depth = 0i32;
        while let Some(b) = self.peek_byte() {
            self.pos += 1;
            match b {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b'>' if depth <= 0 => return Ok(Token::DoctypeSkipped { at }),
                _ => {}
            }
        }
        Err(XmlError::UnexpectedEof { context: "a DOCTYPE", at })
    }

    fn read_pi(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.pos += "<?".len();
        let target = self.read_name()?;
        let data = self.read_delimited(0, "?>", "a processing instruction", at)?.trim();
        if target.eq_ignore_ascii_case("xml") {
            Ok(Token::Declaration { content: data, at })
        } else {
            Ok(Token::ProcessingInstruction { target, data, at })
        }
    }

    fn read_end_tag(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.pos += "</".len();
        let name = self.read_name()?;
        self.skip_whitespace();
        self.eat(b'>', "'>' closing an end tag")?;
        Ok(Token::EndTag { name, at })
    }

    fn read_start_tag(&mut self, at: Position) -> Result<Token<'a>, XmlError> {
        self.pos += "<".len();
        let name = self.read_name()?;
        self.attrs.clear();
        loop {
            self.skip_whitespace();
            let self_closing = match self.peek_byte() {
                Some(b'>') => false,
                Some(b'/') => true,
                Some(_) => {
                    self.read_attribute()?;
                    continue;
                }
                None => return Err(XmlError::UnexpectedEof { context: "a start tag", at }),
            };
            self.pos += 1;
            if self_closing {
                self.eat(b'>', "'>' after '/'")?;
            }
            let attrs = self.attrs.drain(..).collect();
            return Ok(Token::StartTag { name, attrs, self_closing, at });
        }
    }

    /// Read one `name="value"` pair into the attribute buffer.
    fn read_attribute(&mut self) -> Result<(), XmlError> {
        if !self.at_name_start() {
            return Err(self.unexpected("an attribute, '>' or '/>'"));
        }
        let start = self.pos;
        let key = self.read_name()?;
        self.skip_whitespace();
        self.eat(b'=', "'=' in an attribute")?;
        self.skip_whitespace();
        let value = self.read_attr_value(start)?;
        if self.attrs.iter().any(|(k, _)| k == key) {
            let at = self.position_at(start);
            return Err(XmlError::DuplicateAttribute { name: key.to_owned(), at });
        }
        self.attrs.push((Cow::Borrowed(key), value));
        Ok(())
    }

    /// Read a quoted value; errors inside it are reported at the start of
    /// the attribute (byte offset `attr_start`).
    fn read_attr_value(&mut self, attr_start: usize) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(_) => return Err(self.unexpected("a quoted attribute value")),
            None => return Err(self.unexpected("an attribute value")),
        };
        self.pos += 1;
        let (raw, has_entity) = self.read_until(quote);
        if self.at_eof() {
            let at = self.position_at(attr_start);
            return Err(XmlError::UnexpectedEof { context: "an attribute value", at });
        }
        self.pos += 1;
        if !has_entity {
            return Ok(Cow::Borrowed(raw));
        }
        unescape_or_entity(raw)
            .map_err(|entity| XmlError::BadEntity { entity, at: self.position_at(attr_start) })
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Result<Token<'a>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_token().transpose()
    }
}

/// Whether an ASCII byte continues a name: a letter, digit, `_`, `:`,
/// `-` or `.`.
fn is_ascii_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(input: &str) -> Vec<Token<'_>> {
        Tokenizer::new(input).collect::<Result<Vec<_>, _>>().unwrap()
    }

    #[test]
    fn simple_element() {
        let toks = all("<a>hi</a>");
        assert_eq!(toks.len(), 3);
        assert!(
            matches!(&toks[0], Token::StartTag { name, self_closing: false, .. } if *name == "a")
        );
        assert!(matches!(&toks[1], Token::Text { content, .. } if *content == "hi"));
        assert!(matches!(&toks[2], Token::EndTag { name, .. } if *name == "a"));
    }

    #[test]
    fn self_closing_with_attrs() {
        let toks = all(r#"<species id="A" name="glucose"/>"#);
        match &toks[0] {
            Token::StartTag { name, attrs, self_closing, .. } => {
                assert_eq!(*name, "species");
                assert!(*self_closing);
                assert_eq!(attrs[0], ("id".into(), "A".into()));
                assert_eq!(attrs[1], ("name".into(), "glucose".into()));
                assert_eq!(attrs.capacity(), 2, "attributes are copied out exactly sized");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn attr_value_entities_unescaped() {
        let toks = all(r#"<p v="a&lt;b&amp;c"/>"#);
        match &toks[0] {
            Token::StartTag { attrs, .. } => {
                assert_eq!(attrs[0].1, "a<b&c");
                assert!(matches!(attrs[0].1, Cow::Owned(_)), "entities force a copy");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn single_quoted_attr() {
        let toks = all(r#"<p v='x "y"'/>"#);
        match &toks[0] {
            Token::StartTag { attrs, .. } => assert_eq!(attrs[0].1, "x \"y\""),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn declaration_and_pi() {
        let toks = all("<?xml version=\"1.0\"?><?mypi some data?><r/>");
        assert!(matches!(&toks[0], Token::Declaration { content, .. } if content.contains("version")));
        assert!(
            matches!(&toks[1], Token::ProcessingInstruction { target, data, .. } if *target == "mypi" && *data == "some data")
        );
    }

    #[test]
    fn comment_and_cdata() {
        let toks = all("<r><!-- a <comment> --><![CDATA[x < y && z]]></r>");
        assert!(matches!(&toks[1], Token::Comment { content, .. } if *content == " a <comment> "));
        assert!(matches!(&toks[2], Token::CData { content, .. } if *content == "x < y && z"));
    }

    #[test]
    fn doctype_skipped_with_subset() {
        let toks = all("<!DOCTYPE sbml [ <!ENTITY x \"y\"> ]><r/>");
        assert!(matches!(&toks[0], Token::DoctypeSkipped { .. }));
        assert!(matches!(&toks[1], Token::StartTag { .. }));
    }

    #[test]
    fn positions_tracked_across_lines() {
        let mut t = Tokenizer::new("<a>\n  <b/>\n</a>");
        let _ = t.next_token().unwrap(); // <a>
        let _ = t.next_token().unwrap(); // text
        let tok = t.next_token().unwrap().unwrap(); // <b/>
        assert_eq!(tok.position(), Position::new(2, 3));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Tokenizer::new(r#"<a x="1" x="2"/>"#)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err, XmlError::DuplicateAttribute { ref name, .. } if name == "x"));
    }

    #[test]
    fn eof_errors() {
        for bad in ["<a", "<a href=", "<a href=\"x", "<!-- never closed", "<![CDATA[open", "</"] {
            let res = Tokenizer::new(bad).collect::<Result<Vec<_>, _>>();
            assert!(res.is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let toks = all(r#"<math xmlns="http://www.w3.org/1998/Math/MathML"><m:ci xmlns:m="u">x</m:ci></math>"#);
        assert!(matches!(&toks[1], Token::StartTag { name, .. } if *name == "m:ci"));
    }

    #[test]
    fn unicode_text() {
        let toks = all("<a>αβγ→δ</a>");
        assert!(matches!(&toks[1], Token::Text { content: Cow::Borrowed("αβγ→δ"), .. }));
    }

    #[test]
    fn payloads_borrow_from_the_input() {
        let input = r#"<a k="v">t<![CDATA[c]]><!--m--></a>"#;
        let toks = all(input);
        let in_input = |s: &str| input.as_bytes().as_ptr_range().contains(&s.as_ptr());
        match &toks[0] {
            Token::StartTag { name, attrs, .. } => {
                assert!(in_input(name));
                assert!(
                    matches!(attrs[0], (Cow::Borrowed(k), Cow::Borrowed(v)) if in_input(k) && in_input(v))
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(matches!(&toks[1], Token::Text { content: Cow::Borrowed(t), .. } if in_input(t)));
        assert!(matches!(&toks[2], Token::CData { content, .. } if in_input(content)));
        assert!(matches!(&toks[3], Token::Comment { content, .. } if in_input(content)));
    }

    #[test]
    fn non_ascii_names_and_columns() {
        let mut t = Tokenizer::new("<α β='1'>\n→<γ/>");
        let tok = t.next_token().unwrap().unwrap();
        assert!(matches!(&tok, Token::StartTag { name: "α", .. }));
        assert_eq!(t.current_position(), Position::new(1, 10));
        let _ = t.next_token().unwrap(); // text
        let tok = t.next_token().unwrap().unwrap();
        assert_eq!(tok.position(), Position::new(2, 2));
    }

    #[test]
    fn bad_entity_in_text() {
        let err = Tokenizer::new("<a>&nope;</a>").collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(matches!(err, XmlError::BadEntity { .. }));
    }
}
