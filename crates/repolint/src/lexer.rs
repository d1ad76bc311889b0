//! A minimal, dependency-free Rust lexer.
//!
//! This is not a full grammar — it is exactly the token model the lint
//! rules need: identifiers, punctuation, literals, and comments, each
//! tagged with a 1-based line number. The tricky parts of Rust's lexical
//! syntax that would otherwise cause false positives are handled
//! faithfully:
//!
//! * line and (nested) block comments, with doc-comment classification;
//! * string, raw-string (`r#"…"#`), byte-string and char literals —
//!   so `"pub fn"` inside a string never looks like code;
//! * the char-literal vs. lifetime ambiguity (`'a'` vs. `'a`);
//! * numeric literals, including `0..n` ranges (the `.` stays punctuation).
//!
//! String-ish literals keep their *contents* (kind [`TokKind::Str`]) so
//! the counter-registry rule can compare metric-name literals against the
//! `mapreduce::metrics::names` registry; numeric and char literals stay
//! text-free ([`TokKind::Literal`]) — no rule inspects them.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// Numeric or char literal (no text).
    Literal,
    /// String / raw-string / byte-string literal; `text` holds the
    /// contents between the quotes (escapes resolved naively: the char
    /// after a `\` is kept verbatim).
    Str,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Kind of token.
    pub kind: TokKind,
    /// Identifier text, the punctuation character as a 1-char string, or
    /// a string literal's contents. Empty for numeric/char literals.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

/// One comment (`kernel-doc` reads the doc comments).
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment body, *including* the `//` / `/*` introducer.
    pub text: String,
    /// 1-based line of the comment's first character.
    pub line: u32,
    /// 1-based line of the comment's last character (equals `line` for
    /// line comments).
    pub end_line: u32,
    /// Whether this is a doc comment (`///`, `//!`, `/**`, `/*!`).
    pub doc: bool,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order, kept separately from the token stream.
    pub comments: Vec<Comment>,
}

/// Lexes `src`. Never fails: unterminated constructs simply run to EOF,
/// which is the forgiving behavior a linter wants.
pub fn lex(src: &str) -> LexedFile {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: LexedFile::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: LexedFile,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn run(mut self) -> LexedFile {
        while let Some(c) = self.peek(0) {
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number_literal(),
                c if c == '_' || c.is_alphabetic() => self.ident_or_prefixed_literal(),
                _ => {
                    let line = self.line;
                    self.bump();
                    self.out.tokens.push(Token {
                        kind: TokKind::Punct,
                        text: c.to_string(),
                        line,
                    });
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // `///` (but not `////`) and `//!` are doc comments.
        let doc = (text.starts_with("///") && !text.starts_with("////")) || text.starts_with("//!");
        self.out.comments.push(Comment {
            text,
            line,
            end_line: line,
            doc,
        });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        loop {
            if self.peek(0) == Some('/') && self.peek(1) == Some('*') {
                depth += 1;
                text.push('/');
                text.push('*');
                self.bump();
                self.bump();
            } else if self.peek(0) == Some('*') && self.peek(1) == Some('/') {
                depth -= 1;
                text.push('*');
                text.push('/');
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else if let Some(c) = self.peek(0) {
                text.push(c);
                self.bump();
            } else {
                break; // unterminated: run to EOF
            }
        }
        let doc = (text.starts_with("/**") && !text.starts_with("/***") && text != "/**/")
            || text.starts_with("/*!");
        self.out.comments.push(Comment {
            text,
            line,
            end_line: self.line,
            doc,
        });
    }

    /// A plain `"…"` string (the opening quote is at `pos`). Contents are
    /// kept; an escape keeps the char after the `\` verbatim (good enough
    /// for metric-name comparison — registry names contain no escapes).
    fn string_literal(&mut self) {
        let line = self.line;
        let mut text = String::new();
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                c => text.push(c),
            }
        }
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text,
            line,
        });
    }

    /// A raw string `r"…"` / `r#"…"#` with the `r`/`br` already consumed;
    /// `pos` sits on the first `#` or the opening quote. Contents are kept
    /// verbatim (no escape processing — raw strings have none).
    fn raw_string_literal(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'body: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        text.push(c);
                        continue 'body;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
        }
        self.out.tokens.push(Token {
            kind: TokKind::Str,
            text,
            line,
        });
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime) at a `'`.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape, then to closing quote.
                self.bump();
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
                self.out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            Some(_) if self.peek(1) == Some('\'') => {
                // 'x' — a one-char literal.
                self.bump();
                self.bump();
                self.out.tokens.push(Token {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            _ => {
                // A lifetime: consume the ident part, emit nothing (no rule
                // cares about lifetimes).
                while let Some(c) = self.peek(0) {
                    if c == '_' || c.is_alphanumeric() {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    fn number_literal(&mut self) {
        let line = self.line;
        while let Some(c) = self.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                self.bump();
            } else if c == '.' {
                // Part of the number only when followed by a digit
                // (so `0..n` keeps its range dots as punctuation).
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        self.bump();
                        self.bump();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        self.out.tokens.push(Token {
            kind: TokKind::Literal,
            text: String::new(),
            line,
        });
    }

    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // r"…" / r#"…"# / br"…" / b"…" / b'…' literal prefixes.
        match (text.as_str(), self.peek(0)) {
            ("r" | "br", Some('"')) | ("r" | "br", Some('#')) => {
                self.raw_string_literal(line);
            }
            ("b", Some('"')) => self.string_literal(),
            ("b", Some('\'')) => self.char_or_lifetime(),
            _ => self.out.tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in a /* nested */ block */
            let a = "HashMap";
            let b = r#"HashMap"#;
            let c = b"HashMap";
            real_ident();
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "HashMap"), "{ids:?}");
        assert!(ids.iter().any(|i| i == "real_ident"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let lexed = lex(src);
        let lits = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .count();
        assert_eq!(lits, 1); // only 'x'
        assert!(lexed.tokens.iter().any(|t| t.text == "str"));
    }

    #[test]
    fn range_dots_stay_punctuation() {
        let lexed = lex("for i in 0..10 { v[i].unwrap(); }");
        let puncts: String = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert!(puncts.contains(".."));
        assert!(lexed.tokens.iter().any(|t| t.text == "unwrap"));
    }

    #[test]
    fn doc_comments_are_classified() {
        let lexed = lex("/// outer\n//! inner\n// plain\n/** block */\nfn f() {}");
        let docs: Vec<bool> = lexed.comments.iter().map(|c| c.doc).collect();
        assert_eq!(docs, vec![true, true, false, true]);
    }

    #[test]
    fn lines_are_tracked() {
        let lexed = lex("a\nb\n  c");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    fn strs(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn string_contents_are_captured() {
        assert_eq!(strs(r#"c.inc("spill.runs", 1);"#), vec!["spill.runs"]);
        assert_eq!(strs(r#"let s = "a\"b";"#), vec!["a\"b"]);
        assert_eq!(strs(r#"let b = b"bytes";"#), vec!["bytes"]);
    }

    #[test]
    fn raw_strings_with_comment_markers_do_not_open_comments() {
        // `//` and `/*` inside raw strings must stay string contents: a
        // call site after them must still lex as code, and no comment may
        // be recorded.
        let src = "let a = r\"// not a comment\";\n\
                   let b = r#\"/* also not */ still text\"#;\n\
                   after();";
        let lexed = lex(src);
        assert!(lexed.comments.is_empty(), "{:?}", lexed.comments);
        assert!(lexed.tokens.iter().any(|t| t.text == "after"));
        let got = strs(src);
        assert_eq!(got, vec!["// not a comment", "/* also not */ still text"]);
    }

    #[test]
    fn nested_raw_strings_inside_macro_bodies() {
        // A raw string whose body contains quotes and hash-quote runs
        // shorter than its own delimiter, nested in a macro invocation —
        // call-site extraction after the macro must not be fooled.
        let src = "write!(out, r##\"quote \" and r#\"inner\"# done\"##).ok();\n\
                   c.inc(\"spill.runs\", 1);";
        let lexed = lex(src);
        let got: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(got, vec!["quote \" and r#\"inner\"# done", "spill.runs"]);
        assert!(lexed.tokens.iter().any(|t| t.text == "inc"));
        assert!(lexed.comments.is_empty());
    }

    #[test]
    fn unterminated_raw_string_runs_to_eof_without_panicking() {
        let lexed = lex("let x = r#\"never closed");
        assert_eq!(strs("let x = r#\"never closed"), vec!["never closed"]);
        assert!(lexed.tokens.iter().any(|t| t.text == "x"));
    }
}
