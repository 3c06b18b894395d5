//! N-rules: numeric determinism.
//!
//! The determinism gate (fig3) asserts byte-identical artifacts across
//! runs, so any numeric operation whose result depends on float
//! comparison semantics or silently truncates a time/seed value is a
//! replay hazard. Three patterns over the token stream:
//!
//! | id    | bans |
//! |-------|------|
//! | N-001 | `==` / `!=` against a float literal, and `partial_cmp` |
//! | N-002 | truncating `as` casts of time/seed-named values |
//! | N-003 | raw `+` / `-` on `.as_micros()` / `.as_millis()` results |
//!
//! Deliberate scope limits, so the rules stay high-signal:
//!
//! * N-001 catches literal comparisons (`x == 1.0`) and `partial_cmp`;
//!   comparing two float *variables* is invisible to a token rule and
//!   left to review.
//! * N-002 only fires when a nearby identifier names a time or seed
//!   (`seed`, `time`, `micros`, `millis`, `nanos`, `now`) and the
//!   target type narrows below 64 bits — `len() as u32` stays legal.
//! * N-003 covers `+`/`-` only: scaling micros with `*`/`/` is how
//!   rates are computed and is fine; it is *offsets* done in raw
//!   integer space (instead of `SimTime`/`SimDuration` saturating
//!   arithmetic) that overflow or underflow silently.

use crate::lexer::{Token, TokenKind};

/// Integer/float types narrower than the 64-bit time/seed domain.
const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
/// Identifier fragments that mark a value as time- or seed-typed.
const TIMEY: &[&str] = &["seed", "time", "micros", "millis", "nanos"];

fn punct(tokens: &[Token], i: usize, c: char) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(c))
}

fn adjacent(tokens: &[Token], i: usize) -> bool {
    match (tokens.get(i), tokens.get(i + 1)) {
        (Some(a), Some(b)) => a.line == b.line && b.col == a.col + 1,
        _ => false,
    }
}

fn is_float(tokens: &[Token], i: usize) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokenKind::Float)
}

/// Per-token N-rule pass; called by the scanner for every non-test
/// token of a `[numeric]`-scoped file.
pub fn check_token(tokens: &[Token], i: usize, raw: &mut Vec<(usize, &'static str, String)>) {
    float_eq(tokens, i, raw);
    truncating_cast(tokens, i, raw);
    raw_time_arith(tokens, i, raw);
}

/// N-001: `x == 1.0`, `x != -0.5`, `a.partial_cmp(&b)`.
fn float_eq(tokens: &[Token], i: usize, raw: &mut Vec<(usize, &'static str, String)>) {
    if tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "partial_cmp")
    {
        raw.push((
            i,
            "N-001",
            "`partial_cmp` on floats is not total".to_owned(),
        ));
        return;
    }
    // `==` is two adjacent `=`; `!=` is `!` then `=` adjacent.
    let (is_cmp, after) =
        if punct(tokens, i, '=') && punct(tokens, i + 1, '=') && adjacent(tokens, i) {
            // Rule out `x === y` style runs (not Rust) and `<= / >= / !=`
            // whose first char sits at i-1.
            let prev_is_op = i > 0
                && tokens.get(i - 1).is_some_and(|p| {
                    p.kind == TokenKind::Punct
                        && matches!(
                            p.text.as_str(),
                            "<" | ">" | "!" | "=" | "+" | "-" | "*" | "/"
                        )
                        && adjacent(tokens, i - 1)
                });
            (!prev_is_op, i + 2)
        } else if punct(tokens, i, '!') && punct(tokens, i + 1, '=') && adjacent(tokens, i) {
            (true, i + 2)
        } else {
            (false, 0)
        };
    if !is_cmp {
        return;
    }
    let lhs_float = i > 0 && is_float(tokens, i - 1);
    let rhs_float =
        is_float(tokens, after) || (punct(tokens, after, '-') && is_float(tokens, after + 1));
    if lhs_float || rhs_float {
        raw.push((
            i,
            "N-001",
            "float equality comparison is not replay-stable".to_owned(),
        ));
    }
}

/// N-002: `seed as u32`, `t.as_millis() as i32`, `now as f32` — a
/// narrowing cast within eight tokens of a time/seed-named value.
fn truncating_cast(tokens: &[Token], i: usize, raw: &mut Vec<(usize, &'static str, String)>) {
    if !tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == "as")
    {
        return;
    }
    let Some(target) = tokens.get(i + 1) else {
        return;
    };
    if target.kind != TokenKind::Ident || !NARROW.contains(&target.text.as_str()) {
        return;
    }
    let from = i.saturating_sub(8);
    for j in (from..i).rev() {
        let Some(t) = tokens.get(j) else { continue };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let lower = t.text.to_ascii_lowercase();
        if lower == "now" || TIMEY.iter().any(|frag| lower.contains(frag)) {
            raw.push((
                i,
                "N-002",
                format!(
                    "truncating cast `as {}` near time/seed value `{}`",
                    target.text, t.text
                ),
            ));
            return;
        }
    }
}

/// N-003: `a.as_micros() + b`, `x - t.as_millis()` — raw offset
/// arithmetic on extracted micro/millisecond counts.
fn raw_time_arith(tokens: &[Token], i: usize, raw: &mut Vec<(usize, &'static str, String)>) {
    let Some(t) = tokens.get(i) else { return };
    if t.kind != TokenKind::Ident || (t.text != "as_micros" && t.text != "as_millis") {
        return;
    }
    if !(punct(tokens, i.wrapping_sub(1), '.')
        && punct(tokens, i + 1, '(')
        && punct(tokens, i + 2, ')'))
    {
        return;
    }
    // Forward: `….as_micros() + …` (a `-` that begins `->` is a return
    // arrow in a signature, not arithmetic).
    let after = i + 3;
    let forward = punct(tokens, after, '+')
        || (punct(tokens, after, '-')
            && !(punct(tokens, after + 1, '>') && adjacent(tokens, after)));
    // Backward: `… + x.as_micros()` for a simple one-identifier
    // receiver (longer receivers are caught by the forward check on
    // their own call).
    let backward = i >= 3
        && tokens
            .get(i - 2)
            .is_some_and(|r| r.kind == TokenKind::Ident)
        && (punct(tokens, i - 3, '+') || punct(tokens, i - 3, '-'));
    if forward || backward {
        raw.push((i, "N-003", format!("raw `+`/`-` on `.{}()` output", t.text)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(src: &str) -> Vec<&'static str> {
        let tokens = lex(src);
        let mut raw = Vec::new();
        for i in 0..tokens.len() {
            check_token(&tokens, i, &mut raw);
        }
        raw.into_iter().map(|(_, rule, _)| rule).collect()
    }

    #[test]
    fn n001_flags_float_literal_comparisons() {
        assert_eq!(findings("if x == 1.0 {}"), vec!["N-001"]);
        assert_eq!(findings("if 0.5 != y {}"), vec!["N-001"]);
        assert_eq!(findings("if x == -2.5e3 {}"), vec!["N-001"]);
        assert_eq!(findings("let o = a.partial_cmp(&b);"), vec!["N-001"]);
        // Integer comparisons, total_cmp and compound operators pass.
        assert!(findings("if x == 10 {}").is_empty());
        assert!(findings("let o = a.total_cmp(&b);").is_empty());
        assert!(findings("x += 1.0; if x <= 1.0 {}").is_empty());
        assert!(findings("if x >= 1.0 {}").is_empty());
    }

    #[test]
    fn n002_flags_narrowing_casts_of_timey_values() {
        assert_eq!(findings("let s = seed as u32;"), vec!["N-002"]);
        assert_eq!(findings("let m = t.as_millis() as i32;"), vec!["N-002"]);
        assert_eq!(findings("let f = start_time as f32;"), vec!["N-002"]);
        // Widening casts and non-time values pass.
        assert!(findings("let s = seed as u64;").is_empty());
        assert!(findings("let n = items.len() as u32;").is_empty());
    }

    #[test]
    fn n003_flags_raw_offset_arithmetic() {
        assert_eq!(
            findings("let mid = (a.as_micros() + b.as_micros()) / 2;"),
            vec!["N-003", "N-003"]
        );
        assert_eq!(findings("let d = x.as_millis() - 5;"), vec!["N-003"]);
        assert_eq!(findings("let d = 5 + x.as_millis();"), vec!["N-003"]);
        // Scaling and lone extraction pass; so does a return arrow.
        assert!(findings("let r = x.as_micros() * 2;").is_empty());
        assert!(findings("let u = x.as_micros();").is_empty());
        assert!(findings("fn f(x: T) -> u128 { x.as_micros() }").is_empty());
    }
}
