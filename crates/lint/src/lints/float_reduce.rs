//! `float-reduce` — scheduling-ordered float accumulation in scoped threads.
//!
//! Float addition is not associative: accumulating `f32`/`f64` across
//! `thread::scope` workers in completion order (shared `Mutex` accumulator,
//! in-scope reductions) makes the low bits a function of the scheduler.
//! The sanctioned pattern is per-thread slots merged *after* the scope in
//! index order (see `rm_graph::par`, which hands every result over in block
//! order). Inside a scope body the lint flags
//!
//! * `+=` on a line that also mentions `f32`/`f64`,
//! * `+=` through a `lock()` (shared accumulator), and
//! * `.sum::<f32|f64>()` reductions.
//!
//! A deliberate in-scope accumulation with a fixed merge order is waived
//! with a `// MERGE ORDER: …` comment within the three lines above (or an
//! allow pragma).

use crate::context::FileContext;
use crate::lexer::TokKind;
use crate::lints::{flatten, matching_paren};
use crate::Finding;

const NAME: &str = "float-reduce";

pub fn check(cx: &FileContext, out: &mut Vec<Finding>) {
    let flat = flatten(cx);
    // Collect the line ranges of `thread::scope(…)` bodies.
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for k in 0..flat.len() {
        let ident = |j: usize| flat.get(j).map(|(_, t)| t.text.as_str());
        if ident(k) == Some("thread")
            && ident(k + 1) == Some(":")
            && ident(k + 2) == Some(":")
            && ident(k + 3) == Some("scope")
            && ident(k + 4) == Some("(")
        {
            if let Some(close) = matching_paren(&flat, k + 4) {
                regions.push((flat[k].0, flat[close].0));
            }
        }
    }
    if regions.is_empty() {
        return;
    }

    for (li, toks) in cx.tokens.iter().enumerate() {
        if cx.in_test[li] || !regions.iter().any(|&(lo, hi)| li >= lo && li <= hi) {
            continue;
        }
        let has = |s: &str| toks.iter().any(|t| t.kind == TokKind::Ident && t.text == s);
        let plus_eq = toks
            .windows(2)
            .any(|w| w[0].text == "+" && w[1].text == "=" && w[1].col == w[0].col + 1);
        let turbofish_sum = toks.windows(5).any(|w| {
            w[0].text == "sum"
                && w[1].text == ":"
                && w[2].text == ":"
                && w[3].text == "<"
                && (w[4].text == "f64" || w[4].text == "f32")
        });
        let float_hint = has("f64") || has("f32");
        let locked = has("lock");
        if (plus_eq && (float_hint || locked)) || turbofish_sum {
            if cx.allowed(li, NAME) || cx.comment_near(li, 3, "MERGE ORDER") {
                continue;
            }
            let col = toks.first().map_or(1, |t| t.col);
            out.push(Finding::new(
                NAME,
                cx,
                li,
                col,
                "float accumulation inside a thread::scope body depends on scheduling; merge \
                 per-thread slots after the scope in index order, or document a fixed order \
                 with // MERGE ORDER:"
                    .to_string(),
            ));
        }
    }
}
