//! Tokenizer for the declarative query language.

use crate::error::{Result, RheemError};

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// A bare identifier (case preserved; keywords are matched
    /// case-insensitively by the parser).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Lte,
    /// `>`
    Gt,
    /// `>=`
    Gte,
}

/// Tokenize a query string.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '.' => {
                chars.next();
                tokens.push(Token::Dot);
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            '+' => {
                chars.next();
                tokens.push(Token::Plus);
            }
            '-' => {
                chars.next();
                tokens.push(Token::Minus);
            }
            '/' => {
                chars.next();
                tokens.push(Token::Slash);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Eq);
            }
            '!' => {
                chars.next();
                match chars.next() {
                    Some('=') => tokens.push(Token::Neq),
                    other => return Err(bad(format!("`!{}`", opt(other)))),
                }
            }
            '<' => {
                chars.next();
                match chars.peek() {
                    Some('=') => {
                        chars.next();
                        tokens.push(Token::Lte);
                    }
                    Some('>') => {
                        chars.next();
                        tokens.push(Token::Neq);
                    }
                    _ => tokens.push(Token::Lt),
                }
            }
            '>' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    tokens.push(Token::Gte);
                } else {
                    tokens.push(Token::Gt);
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => {
                            if chars.peek() == Some(&'\'') {
                                chars.next();
                                s.push('\'');
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(bad("unterminated string literal".into())),
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let mut text = String::new();
                let mut is_float = false;
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        text.push(c);
                        chars.next();
                    } else if c == '.' {
                        // Lookahead: `1.` followed by a digit is a float;
                        // otherwise treat the dot as punctuation.
                        let mut ahead = chars.clone();
                        ahead.next();
                        if ahead.peek().is_some_and(|d| d.is_ascii_digit()) {
                            is_float = true;
                            text.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                if is_float {
                    tokens.push(Token::Float(
                        text.parse()
                            .map_err(|_| bad(format!("bad float `{text}`")))?,
                    ));
                } else {
                    tokens.push(Token::Int(
                        text.parse().map_err(|_| bad(format!("bad int `{text}`")))?,
                    ));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut ident = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        ident.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(ident));
            }
            other => return Err(bad(format!("unexpected character `{other}`"))),
        }
    }
    Ok(tokens)
}

fn bad(msg: String) -> RheemError {
    RheemError::Query(format!("lex error: {msg}"))
}

fn opt(c: Option<char>) -> String {
    c.map(String::from).unwrap_or_else(|| "<eof>".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_full_query() {
        let toks = lex("SELECT a, SUM(b) FROM t WHERE x >= 1.5 AND y != 'it''s'").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::Float(1.5)));
        assert!(toks.contains(&Token::Gte));
        assert!(toks.contains(&Token::Neq));
        assert!(toks.contains(&Token::Str("it's".into())));
    }

    #[test]
    fn distinguishes_dots_from_floats() {
        assert_eq!(
            lex("t.col 1.5 2.x").unwrap(),
            vec![
                Token::Ident("t".into()),
                Token::Dot,
                Token::Ident("col".into()),
                Token::Float(1.5),
                Token::Int(2),
                Token::Dot,
                Token::Ident("x".into()),
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            lex("< <= > >= = != <>").unwrap(),
            vec![
                Token::Lt,
                Token::Lte,
                Token::Gt,
                Token::Gte,
                Token::Eq,
                Token::Neq,
                Token::Neq
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a ? b").is_err());
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
    }
}
