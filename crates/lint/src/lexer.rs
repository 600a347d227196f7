//! A small hand-rolled Rust lexer.
//!
//! The linter needs token-level structure — identifiers, punctuation,
//! comments, literal boundaries — with accurate line numbers, and nothing
//! more. Parsing Rust properly would drag in `syn`/`proc-macro2`, which
//! the hermetic-workspace policy (rule D4) forbids; a lexer is enough
//! because every rule in the catalog is expressible as a token pattern.
//!
//! The lexer understands the constructs that would otherwise produce
//! false tokens: line and (nested) block comments, string/char/byte
//! literals with escapes, raw strings with arbitrary `#` fences, and the
//! char-literal vs. lifetime ambiguity (`'a'` vs. `'a`). Numeric literals
//! are scanned loosely — the rules never inspect their value.

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `unsafe`, ...).
    Ident(String),
    /// A single punctuation character. Multi-char operators such as `::`
    /// appear as consecutive `Punct(':')` tokens.
    Punct(char),
    /// A string, char, byte, or numeric literal. The content is not
    /// retained; no rule inspects literal values.
    Lit,
    /// A line or block comment, with the delimiters stripped.
    Comment(String),
}

/// A token plus the 1-based line it starts on and the brace-nesting
/// depth it sits at.
///
/// `depth` counts unclosed `{` braces enclosing the token: a top-level
/// item keyword is at depth 0, tokens inside its body at depth 1, and
/// so on. An opening `{` carries the depth *outside* it and its matching
/// `}` carries that same depth, so a matching pair is "the next `}` at
/// the same depth" — the item parser leans on this instead of re-running
/// heuristic scans, which is what makes hot-path span detection robust
/// against nested items and multi-line signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub line: u32,
    pub depth: u32,
}

impl Tok {
    /// Returns the identifier text if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Tokenizes `src`, which must be the full text of a Rust source file.
///
/// The lexer never fails: malformed input (e.g. an unterminated string)
/// degrades to best-effort tokens, which is acceptable because every file
/// it sees has already been accepted by rustc.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    depth: u32,
    out: Vec<Tok>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            depth: 0,
            out: Vec::new(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek_at(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek_at(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string_lit(),
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number_lit(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident_or_prefixed_lit(),
                _ => {
                    let line = self.line;
                    let c = self.bump().unwrap() as char;
                    // Multi-byte UTF-8 only occurs inside literals and
                    // comments in valid Rust; continuation bytes reaching
                    // here (e.g. in malformed input) are dropped.
                    if c.is_ascii() {
                        // `{` carries the depth outside it; `}` carries the
                        // depth of its matching `{`.
                        let depth = match c {
                            '{' => {
                                let d = self.depth;
                                self.depth += 1;
                                d
                            }
                            '}' => {
                                self.depth = self.depth.saturating_sub(1);
                                self.depth
                            }
                            _ => self.depth,
                        };
                        self.out.push(Tok {
                            kind: TokKind::Punct(c),
                            line,
                            depth,
                        });
                    }
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'\n' {
                break;
            }
            self.bump();
        }
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        self.out.push(Tok {
            kind: TokKind::Comment(text),
            line,
            depth: self.depth,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let start = self.pos;
        let mut depth = 1usize;
        let mut end = self.pos;
        while let Some(b) = self.peek() {
            if b == b'/' && self.peek_at(1) == Some(b'*') {
                depth += 1;
                self.bump();
                self.bump();
            } else if b == b'*' && self.peek_at(1) == Some(b'/') {
                depth -= 1;
                end = self.pos;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                self.bump();
                end = self.pos;
            }
        }
        let text = String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
        self.out.push(Tok {
            kind: TokKind::Comment(text),
            line,
            depth: self.depth,
        });
    }

    fn string_lit(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'"' => break,
                _ => {}
            }
        }
        self.out.push(Tok {
            kind: TokKind::Lit,
            line,
            depth: self.depth,
        });
    }

    /// Raw string bodies: the caller has consumed the `r`/`br` prefix;
    /// `self.pos` sits on the first `#` or the opening quote.
    fn raw_string_lit(&mut self, line: u32) {
        let mut fences = 0usize;
        while self.peek() == Some(b'#') {
            fences += 1;
            self.bump();
        }
        self.bump(); // opening quote
        'outer: while let Some(b) = self.bump() {
            if b == b'"' {
                for i in 0..fences {
                    if self.peek_at(i) != Some(b'#') {
                        continue 'outer;
                    }
                }
                for _ in 0..fences {
                    self.bump();
                }
                break;
            }
        }
        self.out.push(Tok {
            kind: TokKind::Lit,
            line,
            depth: self.depth,
        });
    }

    /// `'` starts either a char literal or a lifetime.
    fn quote(&mut self) {
        let line = self.line;
        // Lifetime: `'` + ident-start, not followed by a closing quote.
        if let Some(b1) = self.peek_at(1) {
            let ident_start = b1 == b'_' || b1.is_ascii_alphabetic();
            if ident_start && self.peek_at(2) != Some(b'\'') {
                self.bump(); // the quote
                while let Some(b) = self.peek() {
                    if b == b'_' || b.is_ascii_alphanumeric() {
                        self.bump();
                    } else {
                        break;
                    }
                }
                // Lifetimes produce no token; no rule inspects them.
                return;
            }
        }
        // Char literal.
        self.bump(); // opening quote
        while let Some(b) = self.bump() {
            match b {
                b'\\' => {
                    self.bump();
                }
                b'\'' => break,
                _ => {}
            }
        }
        self.out.push(Tok {
            kind: TokKind::Lit,
            line,
            depth: self.depth,
        });
    }

    fn number_lit(&mut self) {
        let line = self.line;
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else if b == b'.' && self.peek_at(1).is_some_and(|n| n.is_ascii_digit()) {
                // `1.5` continues the literal; `0..n` does not.
                self.bump();
            } else {
                break;
            }
        }
        self.out.push(Tok {
            kind: TokKind::Lit,
            line,
            depth: self.depth,
        });
    }

    fn ident_or_prefixed_lit(&mut self) {
        let line = self.line;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.bump();
            } else {
                break;
            }
        }
        let text = &self.bytes[start..self.pos];
        // Literal prefixes: r"..", r#"..."#, b"..", br#"..."#, b'x'.
        match (text, self.peek()) {
            (b"r" | b"br" | b"rb", Some(b'"' | b'#')) => {
                self.raw_string_lit(line);
                return;
            }
            (b"b", Some(b'"')) => {
                self.string_lit();
                return;
            }
            (b"b", Some(b'\'')) => {
                // Byte char literal; reuse the char scanner (it cannot be
                // a lifetime after `b`).
                self.bump(); // opening quote
                while let Some(b) = self.bump() {
                    match b {
                        b'\\' => {
                            self.bump();
                        }
                        b'\'' => break,
                        _ => {}
                    }
                }
                self.out.push(Tok {
                    kind: TokKind::Lit,
                    line,
                    depth: self.depth,
                });
                return;
            }
            _ => {}
        }
        let text = String::from_utf8_lossy(text).into_owned();
        self.out.push(Tok {
            kind: TokKind::Ident(text),
            line,
            depth: self.depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn idents_and_puncts_carry_lines() {
        let toks = lex("fn main() {\n    let x = 1;\n}\n");
        assert_eq!(toks[0].kind, TokKind::Ident("fn".into()));
        assert_eq!(toks[0].line, 1);
        let let_tok = toks.iter().find(|t| t.ident() == Some("let")).unwrap();
        assert_eq!(let_tok.line, 2);
    }

    #[test]
    fn comments_are_tokens_not_code() {
        let toks = lex("// HashMap in a comment\nlet x = 1;\n");
        assert!(toks.iter().all(|t| t.ident() != Some("HashMap")));
        assert!(matches!(&toks[0].kind, TokKind::Comment(c) if c.contains("HashMap")));
    }

    #[test]
    fn nested_block_comments_terminate() {
        let toks = lex("/* outer /* inner */ still outer */ fn x() {}");
        assert_eq!(toks.iter().filter(|t| t.ident().is_some()).count(), 2); // fn, x
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(idents("let s = \"HashMap::new()\";"), vec!["let", "s"]);
        assert_eq!(idents("let s = r#\"Instant \" now\"#;"), vec!["let", "s"]);
        assert_eq!(idents("let b = b\"Vec::new\";"), vec!["let", "b"]);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        assert_eq!(
            idents(r#"let s = "a\"HashMap\"b"; let t = 1;"#),
            vec!["let", "s", "let", "t"]
        );
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        // 'a' is a literal; 'a in a generic position is a lifetime.
        assert_eq!(
            idents("let c = 'x'; fn f<'a>(v: &'a str) {}"),
            vec!["let", "c", "fn", "f", "v", "str"]
        );
        // Escaped char literal.
        assert_eq!(
            idents(r"let c = '\''; let d = 2;"),
            vec!["let", "c", "let", "d"]
        );
    }

    #[test]
    fn numeric_literals_scan_loosely() {
        // Ranges must not swallow the second bound.
        let toks = lex("for i in 0..65 { let f = 1.5e3; }");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Lit).count(), 3);
    }

    #[test]
    fn raw_string_with_fences_spans_lines() {
        let toks = lex("let s = r##\"line \"# one\nline two\"##; fn after() {}");
        let f = toks.iter().find(|t| t.ident() == Some("fn")).unwrap();
        assert_eq!(f.line, 2);
    }
}
