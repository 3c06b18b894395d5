//! Lexer edge cases: comments, raw strings, lifetimes vs. char
//! literals, nested block comments, numeric literals.

use stabl_lint::lexer::{lex, test_spans, TokenKind};

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

#[test]
fn line_comments_are_stripped() {
    let src = "let x = 1; // Arc::new() here\nlet y = 2;";
    assert_eq!(idents(src), vec!["let", "x", "let", "y"]);
    assert_eq!(lex(src).last().map(|t| t.line), Some(2));
}

#[test]
fn nested_block_comments() {
    let src = "/* outer /* inner Arc */ still comment */ fn after() {}";
    assert_eq!(idents(src), vec!["fn", "after"]);
}

#[test]
fn multi_line_block_comment_keeps_line_numbers() {
    let tokens = lex("/* a\nb\nc */ x");
    assert_eq!((tokens[0].line, tokens[0].col), (3, 6));
}

#[test]
fn plain_strings_hide_their_contents() {
    let names = idents(r#"let s = "HashMap and Instant::now and // comment"; done"#);
    assert_eq!(names, vec!["let", "s", "done"]);
}

#[test]
fn escaped_quotes_do_not_end_strings() {
    let names = idents(r#"let s = "a\"HashMap\"b"; after"#);
    assert_eq!(names, vec!["let", "s", "after"]);
}

#[test]
fn raw_strings_with_hashes() {
    let src = r####"let s = r#"has "quotes" and HashMap and // no comment"#; after"####;
    let names = idents(src);
    assert_eq!(names, vec!["let", "s", "after"]);
}

#[test]
fn raw_string_double_hash() {
    let src = r####"let s = r##"inner "# still open"##; after"####;
    assert_eq!(idents(src), vec!["let", "s", "after"]);
}

#[test]
fn byte_strings_and_byte_chars() {
    let names = idents(r#"let a = b"HashMap"; let b2 = b'x'; after"#);
    assert_eq!(names, vec!["let", "a", "let", "b2", "after"]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let lexed = lex("fn f<'a>(x: &'a str) -> &'static str { x }");
    let lifetimes: Vec<&str> = lexed
        .iter()
        .filter(|t| t.kind == TokenKind::Lifetime)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(lifetimes, vec!["'a", "'a", "'static"]);
    assert!(!lexed.iter().any(|t| t.kind == TokenKind::Char));
}

#[test]
fn char_literals_are_not_lifetimes() {
    let lexed = lex(r"let c = 'x'; let nl = '\n'; let q = '\''; let sp = ' ';");
    let chars: Vec<&str> = lexed
        .iter()
        .filter(|t| t.kind == TokenKind::Char)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(chars.len(), 4, "{chars:?}");
    assert!(!lexed.iter().any(|t| t.kind == TokenKind::Lifetime));
}

#[test]
fn raw_identifiers() {
    let lexed = lex("let r#type = 1;");
    assert!(lexed
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "type"));
}

#[test]
fn range_is_not_a_float() {
    let lexed = lex("for i in 0..5 {}");
    let kinds: Vec<TokenKind> = lexed.iter().map(|t| t.kind).collect();
    assert!(kinds.contains(&TokenKind::Int));
    assert!(!kinds.contains(&TokenKind::Float));
}

#[test]
fn floats_and_suffixes() {
    let lexed = lex("let a = 1.5; let b = 1e-3; let c = 2f64; let d = 0xff_u32;");
    let floats = lexed.iter().filter(|t| t.kind == TokenKind::Float).count();
    assert_eq!(floats, 3); // 1.5, 1e-3, 2f64
    assert!(lexed
        .iter()
        .any(|t| t.kind == TokenKind::Int && t.text == "0xff_u32"));
}

#[test]
fn positions_are_one_based() {
    let lexed = lex("ab cd\n  ef");
    assert_eq!((lexed[0].line, lexed[0].col), (1, 1));
    assert_eq!((lexed[1].line, lexed[1].col), (1, 4));
    assert_eq!((lexed[2].line, lexed[2].col), (2, 3));
}

#[test]
fn unterminated_string_does_not_panic() {
    let lexed = lex("let s = \"never closed");
    assert_eq!(lexed.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
}

#[test]
fn cfg_test_mod_spans_cover_the_module() {
    let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}";
    let lexed = lex(src);
    let spans = test_spans(&lexed);
    assert_eq!(spans.len(), 1);
    let (a, b) = spans[0];
    let covered: Vec<&str> = lexed[a..b].iter().map(|t| t.text.as_str()).collect();
    assert!(covered.contains(&"unwrap"));
    // Library code on either side is outside the span.
    let outside: Vec<&str> = lexed[..a]
        .iter()
        .chain(&lexed[b..])
        .map(|t| t.text.as_str())
        .collect();
    assert!(outside.contains(&"lib"));
    assert!(outside.contains(&"lib2"));
    assert!(!outside.contains(&"unwrap"));
}

#[test]
fn cfg_not_test_is_not_a_test_span() {
    let src = "#[cfg(not(test))]\nmod real { fn f() { x.unwrap(); } }";
    let lexed = lex(src);
    assert!(test_spans(&lexed).is_empty());
}
