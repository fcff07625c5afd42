//! The lexer: the first two stages of the `mira-lint` pipeline.
//!
//! `mira-lint` must run with zero registry dependencies, so instead of
//! `syn` it works from its own token stream. [`scrub`] blanks comment
//! bodies and string/char literal contents (so no rule ever fires on
//! prose), keeping every byte offset and newline in place; [`tokenize`]
//! splits the scrubbed text into [`Token`]s that carry their line and
//! column. [`crate::parser`] recovers items from those tokens.
//!
//! This is deliberately *not* a full Rust lexer: it only needs to be
//! exact about what can confuse the rules — comments, strings
//! (including raw strings), char literals vs. lifetimes — and about
//! positions, which findings report.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    CharLit,
}

/// Blank out comments and literal bodies, preserving length and
/// newlines so byte offsets and line numbers survive.
#[must_use]
pub fn scrub(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut i = 0;

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    state = State::Str;
                    out.push(b'"');
                    i += 1;
                } else if (b == b'r' || b == b'b') && !prev_is_ident(&out) {
                    // Possible prefixed literal: r"..." / r#"..."# raw
                    // strings, b"..." byte strings, br#"..."# raw byte
                    // strings, b'x' byte chars. The prefix bytes pass
                    // through untouched; the literal body is blanked by
                    // the state the prefix selects.
                    let mut j = i + 1;
                    if b == b'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let raw = j > i + 1 || b == b'r';
                    let mut hashes = 0u8;
                    while raw && bytes.get(j) == Some(&b'#') {
                        hashes = hashes.saturating_add(1);
                        j += 1;
                    }
                    if raw && bytes.get(j) == Some(&b'"') {
                        state = State::RawStr(hashes);
                        while i <= j {
                            out.push(bytes[i]);
                            i += 1;
                        }
                    } else if b == b'b' && bytes.get(i + 1) == Some(&b'"') {
                        state = State::Str;
                        out.extend_from_slice(b"b\"");
                        i += 2;
                    } else if b == b'b' && bytes.get(i + 1) == Some(&b'\'') {
                        state = State::CharLit;
                        out.extend_from_slice(b"b'");
                        i += 2;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' {
                    // Lifetime (`'a`) or char literal (`'x'`, `'\n'`)?
                    let next = bytes.get(i + 1).copied();
                    let after = bytes.get(i + 2).copied();
                    let is_lifetime = matches!(next, Some(c) if c == b'_' || c.is_ascii_alphabetic())
                        && after != Some(b'\'');
                    if is_lifetime {
                        out.push(b);
                        i += 1;
                    } else {
                        state = State::CharLit;
                        out.push(b'\'');
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    let depth = depth - 1;
                    state = if depth == 0 {
                        State::Code
                    } else {
                        State::BlockComment(depth)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    state = State::Code;
                    out.push(b'"');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0u8;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        state = State::Code;
                        while i < j {
                            out.push(bytes[i]);
                            i += 1;
                        }
                        continue;
                    }
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::CharLit => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'\'' || b == b'\n' {
                    // Newline: bail out — it was not a char literal
                    // after all (e.g. a stray quote); stay safe.
                    state = State::Code;
                    out.push(b);
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }

    // Blanking is byte-for-byte, so the scrubbed text is ASCII-safe
    // wherever we wrote spaces and untouched UTF-8 elsewhere.
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(out: &[u8]) -> bool {
    out.last()
        .is_some_and(|&c| c == b'_' || c.is_ascii_alphanumeric())
}

/// One lexical token of the scrubbed source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal; text kept so `.0` tuple access is visible.
    Num(String),
    /// String or char literal (contents already blanked).
    Lit,
    /// Lifetime such as `'a`.
    Life,
    /// One punctuation byte.
    P(u8),
}

/// A token plus where it sits in the source.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line.
    pub line: usize,
    /// 1-based byte column of the token's first byte.
    pub col: usize,
}

/// Tokenize scrubbed source (from [`scrub`]).
#[must_use]
pub fn tokenize(code: &str) -> Vec<Token> {
    let bytes = code.as_bytes();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut line_start = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            line_start = i;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let col = i - line_start + 1;
        if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 {
            let start = i;
            while i < bytes.len()
                && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric() || bytes[i] >= 0x80)
            {
                i += 1;
            }
            let text = String::from_utf8_lossy(&bytes[start..i]).into_owned();
            toks.push(Token {
                tok: Tok::Ident(text),
                line,
                col,
            });
            continue;
        }
        if b.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            // `1.5` / `1.0e3`: a dot followed by a digit continues the
            // literal; `0..n` does not.
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                i += 1;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
            }
            let text = String::from_utf8_lossy(&bytes[start..i]).into_owned();
            toks.push(Token {
                tok: Tok::Num(text),
                line,
                col,
            });
            continue;
        }
        if b == b'"' {
            // Scrubbed string: contents are blank, so the next quote
            // closes it.
            i += 1;
            while i < bytes.len() && bytes[i] != b'"' {
                if bytes[i] == b'\n' {
                    line += 1;
                    line_start = i + 1;
                }
                i += 1;
            }
            i += 1;
            toks.push(Token {
                tok: Tok::Lit,
                line,
                col,
            });
            continue;
        }
        if b == b'\'' {
            // Lifetimes (`'a`) survive scrubbing and char-literal bodies
            // (`' '`) are blanked, so an alphabetic right after the quote
            // means lifetime.
            if i + 1 < bytes.len() && (bytes[i + 1] == b'_' || bytes[i + 1].is_ascii_alphabetic()) {
                i += 1;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Life,
                    line,
                    col,
                });
            } else {
                i += 1;
                while i < bytes.len() && bytes[i] != b'\'' && bytes[i] != b'\n' {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'\'' {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Lit,
                    line,
                    col,
                });
            }
            continue;
        }
        toks.push(Token {
            tok: Tok::P(b),
            line,
            col,
        });
        i += 1;
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(&scrub(src))
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unwrap()\"; // .unwrap() here\nlet y = 1;\n";
        let code = scrub(src);
        let lines: Vec<&str> = code.lines().collect();
        assert!(!lines[0].contains("unwrap"));
        assert_eq!(lines[0].len(), src.lines().next().map_or(0, str::len));
        assert_eq!(lines[1], "let y = 1;");
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let p = r#\"panic!(\"boom\")\"#;\nlet q = 2;";
        assert!(!scrub(src).contains("panic"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let code = scrub(src);
        assert!(code.contains("<'a>"));
        assert!(!code.contains("'x'"));
        let lifetimes = tokenize(&code)
            .iter()
            .filter(|t| t.tok == Tok::Life)
            .count();
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* b */ still comment */ fn f() {}";
        let code = scrub(src);
        assert!(code.contains("fn f()"));
        assert!(!code.contains("still"));
    }

    #[test]
    fn token_bounded_rejects_substrings() {
        let names = idents("let unwrapped = expect_err();");
        assert!(!names.iter().any(|n| n == "unwrap" || n == "expect"));
        assert!(names.contains(&"unwrapped".to_owned()));
    }

    #[test]
    fn tokens_carry_line_and_byte_column() {
        let toks = tokenize(&scrub("let s = \"a\nb\"; x\n  y::z"));
        let at = |name: &str| {
            toks.iter()
                .find(|t| t.tok == Tok::Ident(name.to_owned()))
                .map(|t| (t.line, t.col))
        };
        assert_eq!(at("let"), Some((1, 1)));
        assert_eq!(
            at("x"),
            Some((2, 5)),
            "column restarts after a multi-line literal"
        );
        assert_eq!(at("y"), Some((3, 3)));
        assert_eq!(at("z"), Some((3, 6)));
    }
}
