//! Guard-lifetime flow analysis: where does a `MutexGuard` live?
//!
//! PR 7 shipped a real deadlock whose shape was purely lexical:
//!
//! ```text
//! if let Some(h) = self.handle.lock().take() {   // guard lives here…
//!     h.reap();                                  // …across a thread join
//! }
//! ```
//!
//! In Rust ≤ 2021, an `if let` scrutinee's temporaries — including the
//! `MutexGuard` produced by `.lock()` — stay alive for the *entire*
//! `if let` body (and any `else` chain). Any blocking call inside that
//! region runs while the lock is held: `on_worker_thread` on the machine
//! being joined then deadlocks against the drop path. The same class
//! covers `let g = x.lock()` followed by a blocking call anywhere in the
//! enclosing block, and `match x.lock().…` scrutinees.
//!
//! This module computes, per function body, the **guard spans**: for each
//! `.lock()` / `.try_lock()` call, the token range over which the
//! resulting guard is (conservatively, per the language's temporary
//! rules) still alive. The `lock-lifetime` pass then flags blocking
//! calls and nested `.lock()` acquisitions inside those spans; the
//! `lock-order` pass uses the same spans to build held-while-acquiring
//! edges.
//!
//! The tracker is deliberately lexical — no types, no borrow checking —
//! which makes it conservative in both directions. Two escape hatches
//! keep it honest:
//!
//! * **Guard handoff:** a blocking call that receives the guard binding
//!   itself as an argument (`cv.wait(&mut st)`) is the condvar pattern —
//!   the callee releases the lock while blocked — and is not flagged.
//! * **`drop(g)`** ends a let-bound guard's span early, mirroring the
//!   standard fix of releasing before blocking.

use crate::lexer::Tok;
use crate::workspace::SourceFile;

/// How a guard came to exist, which decides how long it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// `let g = x.lock();` — the binding holds the guard until the end
    /// of the enclosing block (or an explicit `drop(g)`).
    LetBound,
    /// `if let` / `while let` / `match` / `for` scrutinee temporary:
    /// alive for the whole body (including chained `else` blocks).
    Scrutinee,
    /// Any other temporary (`x.lock().field`, `f(&mut x.lock())`): dies
    /// at the end of its statement.
    Temporary,
}

/// One guard lifetime: the token at `lock_idx` is the `lock`/`try_lock`
/// identifier; the guard is alive over `(lock_idx, end)` (half-open).
#[derive(Debug, Clone)]
pub struct GuardSpan {
    pub lock_idx: usize,
    /// First token index past the guard's life.
    pub end: usize,
    pub kind: GuardKind,
    /// The binding name for [`GuardKind::LetBound`] guards and for
    /// named scrutinee patterns (`if let Some(s) = x.try_lock()`),
    /// used by the handoff exemption.
    pub name: Option<String>,
    /// Name of the lock expression (last field/method identifier before
    /// `.lock()`), e.g. `state` for `self.inner.state.lock()`.
    pub lock_name: String,
    /// True for `.try_lock()` — still a guard, but acquiring it can
    /// never block, so it is exempt from nested-acquisition findings.
    pub non_blocking: bool,
    pub line: u32,
}

/// The last field/method identifier of the receiver chain before
/// `.lock()` at `lock_idx`: `self.inner.state.lock()` → `state`,
/// `clock.pool().slab.lock()` → `slab`. Falls back to `<expr>` when the
/// receiver is not a plain chain (e.g. a parenthesized expression).
pub fn lock_receiver_name(f: &SourceFile, lock_idx: usize) -> String {
    // prev_code(lock_idx) is the `.`; look before it.
    let Some(dot) = f.prev_code(lock_idx) else {
        return "<expr>".into();
    };
    let Some(mut i) = f.prev_code(dot) else {
        return "<expr>".into();
    };
    // Skip a call's argument list: `cell(i).lock()`.
    if matches!(f.tok(i), Tok::Punct(')')) {
        let mut depth = 0usize;
        loop {
            match f.tok(i) {
                Tok::Punct(')') => depth += 1,
                Tok::Punct('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            let Some(p) = f.prev_code(i) else {
                return "<expr>".into();
            };
            i = p;
        }
        let Some(p) = f.prev_code(i) else {
            return "<expr>".into();
        };
        i = p;
    }
    match f.tok(i) {
        Tok::Ident(s) => s.clone(),
        _ => "<expr>".into(),
    }
}

/// First code token of the statement containing `idx`: walk back over
/// code tokens to the nearest `;` / `{` / `}` boundary.
fn stmt_start(f: &SourceFile, idx: usize) -> usize {
    let mut first = idx;
    let mut i = idx;
    while let Some(p) = f.prev_code(i) {
        if matches!(f.tok(p), Tok::Punct(';' | '{' | '}')) {
            break;
        }
        first = p;
        i = p;
    }
    first
}

/// Token index just past the end of the statement containing `idx`: the
/// first `;` at the statement's own bracket depth, or the enclosing
/// block's `}` for tail expressions. `limit` bounds the search (the
/// function body end).
fn stmt_end(f: &SourceFile, idx: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = idx;
    loop {
        match f.tok(i) {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']') => depth -= 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return i; // enclosing block closed: tail expression
                }
            }
            Tok::Punct(';') if depth <= 0 => return i + 1,
            _ => {}
        }
        let Some(n) = f.next_code(i + 1) else {
            return limit;
        };
        i = n;
        if i >= limit {
            return limit;
        }
    }
}

/// Index of the `}` closing the innermost block that contains `idx`,
/// scanning within `body` (a function's half-open token range). When
/// `idx` sits at body top level this is the body's final `}`.
fn enclosing_block_end(f: &SourceFile, body: (usize, usize), idx: usize) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        if i == idx {
            break;
        }
        match f.tok(i) {
            Tok::Punct('{') => stack.push(i),
            Tok::Punct('}') => {
                stack.pop();
            }
            _ => {}
        }
        let Some(n) = f.next_code(i + 1) else {
            break;
        };
        i = n;
    }
    let open = stack.last().copied().unwrap_or(body.0);
    f.match_delim(open).map_or(body.1, |e| e)
}

/// The span of a scrutinee guard: from the statement's first `{` after
/// `idx`, through its matching `}`, extended over any `else` / `else if`
/// chain — matching the language rule that scrutinee temporaries live
/// until the end of the whole `if let` / `match` expression.
fn scrutinee_end(f: &SourceFile, idx: usize, limit: usize) -> usize {
    let mut i = idx;
    // Find the body opener at depth 0 relative to the scrutinee.
    let mut depth = 0i32;
    let open = loop {
        match f.tok(i) {
            Tok::Punct('(' | '[') => depth += 1,
            Tok::Punct(')' | ']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => break Some(i),
            Tok::Punct(';') if depth == 0 => return i + 1, // malformed
            _ => {}
        }
        match f.next_code(i + 1) {
            Some(n) if n < limit => i = n,
            _ => break None,
        }
    };
    let Some(open) = open else {
        return limit;
    };
    let mut end = f.match_delim(open).map_or(limit, |e| e + 1);
    // `} else {` / `} else if … {` chains keep the scrutinee alive.
    while let Some(n) = f.next_code(end) {
        if n >= limit || !matches!(f.tok(n), Tok::Ident(s) if s == "else") {
            break;
        }
        // Find the else-arm's `{` and jump past its `}`.
        let mut j = n;
        let next_open = loop {
            match f.next_code(j + 1) {
                Some(k) if k < limit => {
                    j = k;
                    if matches!(f.tok(j), Tok::Punct('{')) {
                        break Some(j);
                    }
                }
                _ => break None,
            }
        };
        match next_open {
            Some(o) => end = f.match_delim(o).map_or(limit, |e| e + 1),
            None => break,
        }
    }
    end.min(limit)
}

/// Compute every guard span inside `body` (a half-open token range, as
/// produced by [`SourceFile::fn_defs`]).
pub fn guard_spans(f: &SourceFile, body: (usize, usize)) -> Vec<GuardSpan> {
    let mut out = Vec::new();
    for idx in body.0..body.1 {
        let name_hit = f
            .method_call_at(idx, &["lock", "try_lock"])
            .map(|n| n == "try_lock");
        let Some(non_blocking) = name_hit else {
            continue;
        };
        let line = f.tokens[idx].line;
        let lock_name = lock_receiver_name(f, idx);
        let start = stmt_start(f, idx);
        let first = match f.tok(start) {
            Tok::Ident(s) => s.as_str(),
            _ => "",
        };
        let second = f
            .next_code(start + 1)
            .and_then(|i| match f.tok(i) {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or("");
        let (kind, name, end) = if matches!(first, "if" | "while") && second == "let"
            || matches!(first, "match" | "for")
        {
            // Scrutinee temporary: alive for the whole body/else chain.
            // (`for` too: the iterator expression is held all loop long.)
            let pat_name = (first != "match" && first != "for")
                .then(|| pattern_binding(f, start, idx))
                .flatten();
            (
                GuardKind::Scrutinee,
                pat_name,
                scrutinee_end(f, idx, body.1),
            )
        } else if matches!(first, "if" | "while") {
            // Plain boolean condition (`if x.lock().flag { … }`): unlike
            // an `if let` scrutinee, condition temporaries are dropped
            // *before* the branch runs — the guard dies at the body `{`.
            (GuardKind::Temporary, None, condition_end(f, idx, body.1))
        } else if first == "let" {
            // `let g = x.lock();` binds the guard only when `.lock()` is
            // the initializer's final call — `let v = x.lock().take();`
            // binds the *taken value* and the guard dies at the `;`.
            let open = f.next_code(idx + 1).unwrap_or(idx); // the `(`
            let after = f.match_delim(open).and_then(|c| f.next_code(c + 1));
            let final_call = match after.map(|i| f.tok(i)) {
                Some(Tok::Punct(';')) => true,
                Some(Tok::Ident(s)) if s == "else" => true, // let-else
                Some(Tok::Punct('?')) => true,              // lock().… never; defensive
                _ => false,
            };
            if final_call {
                let name = pattern_binding(f, start, idx);
                let block_end = enclosing_block_end(f, body, idx);
                let end = drop_site(f, idx, block_end, name.as_deref()).unwrap_or(block_end);
                (GuardKind::LetBound, name, end)
            } else {
                (GuardKind::Temporary, None, stmt_end(f, idx, body.1))
            }
        } else {
            (GuardKind::Temporary, None, stmt_end(f, idx, body.1))
        };
        out.push(GuardSpan {
            lock_idx: idx,
            end: end.min(body.1),
            kind,
            name,
            lock_name,
            non_blocking,
            line,
        });
    }
    out
}

/// End of a plain `if`/`while` condition scope: the body `{` at depth 0
/// after `idx` — where condition temporaries are dropped.
fn condition_end(f: &SourceFile, idx: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut i = idx;
    loop {
        match f.tok(i) {
            Tok::Punct('(' | '[') => depth += 1,
            Tok::Punct(')' | ']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return i,
            Tok::Punct(';') if depth == 0 => return i + 1, // malformed
            _ => {}
        }
        match f.next_code(i + 1) {
            Some(n) if n < limit => i = n,
            _ => return limit,
        }
    }
}

/// The binding name introduced by the pattern between `start` (the
/// `let`/`if`/`while` keyword) and the `=` before `lock_idx`: the last
/// identifier that is not a pattern constructor (`Some`, `Ok`, `Err`) or
/// keyword. `None` for `_` or multi-binding patterns we don't model.
fn pattern_binding(f: &SourceFile, start: usize, lock_idx: usize) -> Option<String> {
    let mut best: Option<String> = None;
    let mut i = start;
    while i < lock_idx {
        match f.tok(i) {
            Tok::Punct('=') => break,
            Tok::Ident(s)
                if !matches!(
                    s.as_str(),
                    "let" | "if" | "while" | "mut" | "ref" | "Some" | "Ok" | "Err" | "Box"
                ) =>
            {
                best = Some(s.clone());
            }
            _ => {}
        }
        i = f.next_code(i + 1)?;
    }
    best
}

/// First `drop(name)` call past `lock_idx` (before `limit`): returns the
/// index just past its statement, ending the guard span early.
fn drop_site(f: &SourceFile, lock_idx: usize, limit: usize, name: Option<&str>) -> Option<usize> {
    let name = name?;
    for i in lock_idx..limit {
        if f.any_call_at(i, &["drop"]).is_some() {
            let open = f.next_code(i + 1)?;
            let close = f.match_delim(open)?;
            let arg_is_name =
                (open..=close).any(|j| matches!(f.tok(j), Tok::Ident(s) if s == name));
            if arg_is_name && close < limit {
                return Some(close + 1);
            }
        }
    }
    None
}

/// Does the call at `call_idx` (an identifier with `(` next) take
/// `name` among its arguments? Used for the guard-handoff exemption:
/// `cv.wait(&mut st)` hands the guard to the callee, which releases it.
pub fn call_takes_name(f: &SourceFile, call_idx: usize, name: Option<&str>) -> bool {
    let Some(name) = name else {
        return false;
    };
    let Some(open) = f.next_code(call_idx + 1) else {
        return false;
    };
    if !matches!(f.tok(open), Tok::Punct('(')) {
        return false;
    }
    let Some(close) = f.match_delim(open) else {
        return false;
    };
    (open..=close).any(|j| matches!(f.tok(j), Tok::Ident(s) if s == name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(
            "crates/simtime/src/a.rs".into(),
            "simtime".into(),
            false,
            src,
        )
    }

    fn spans_of(src: &str) -> (SourceFile, Vec<GuardSpan>) {
        let f = file(src);
        let defs = f.fn_defs();
        assert!(!defs.is_empty(), "fixture must contain a fn");
        let spans = guard_spans(&f, defs[0].body);
        (f, spans)
    }

    #[test]
    fn let_bound_guard_lives_to_block_end() {
        let src = "fn f(m: &Mutex<u32>) {\n    let g = m.lock();\n    use_it(&g);\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, GuardKind::LetBound);
        assert_eq!(spans[0].name.as_deref(), Some("g"));
        // Ends at the function's closing brace.
        assert!(matches!(f.tok(spans[0].end), Tok::Punct('}')));
    }

    #[test]
    fn drop_ends_a_let_bound_span_early() {
        let src = "fn f(m: &Mutex<u32>) {\n    let g = m.lock();\n    drop(g);\n    blocking.join();\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(
            spans[0].end <= join_idx,
            "span must close before the join: end={} join={join_idx}",
            spans[0].end
        );
    }

    #[test]
    fn taken_value_is_not_a_guard_binding() {
        // The 04d47ed fix pattern: `.lock().take()` — the binding holds
        // the taken value; the guard itself dies at the semicolon.
        let src = "fn f(m: &Mutex<Option<H>>) {\n    let j = m.lock().take();\n    if let Some(j) = j {\n        j.join();\n    }\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, GuardKind::Temporary);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(spans[0].end <= join_idx, "guard dead before the join");
    }

    #[test]
    fn if_let_scrutinee_spans_the_whole_body() {
        // The PR-7 deadlock shape: scrutinee guard alive across the body.
        let src = "fn f(m: &Mutex<Option<H>>) {\n    if let Some(h) = m.lock().take() {\n        h.join();\n    }\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, GuardKind::Scrutinee);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(
            spans[0].end > join_idx,
            "scrutinee guard must cover the join"
        );
    }

    #[test]
    fn if_let_else_chain_extends_the_scrutinee() {
        let src = "fn f(m: &Mutex<Option<H>>) {\n    if let Some(h) = m.lock().take() {\n        ok(h);\n    } else {\n        report.join();\n    }\n}\n";
        let (f, spans) = spans_of(src);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(spans[0].end > join_idx, "else arm is inside the span");
    }

    #[test]
    fn match_scrutinee_spans_all_arms() {
        let src = "fn f(m: &Mutex<State>) -> u32 {\n    match m.lock().phase {\n        Phase::A => other.join(),\n        Phase::B => 0,\n    }\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, GuardKind::Scrutinee);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(spans[0].end > join_idx, "arm body is inside the span");
    }

    #[test]
    fn plain_if_condition_guard_dies_at_the_body_brace() {
        // `if x.lock().flag { … }` — unlike `if let`, the condition's
        // temporaries drop before the branch runs.
        let src =
            "fn f(m: &Mutex<St>) {\n    if m.lock().flag {\n        other.join();\n    }\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, GuardKind::Temporary);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(spans[0].end <= join_idx, "condition temp dead in the body");
    }

    #[test]
    fn plain_temporary_dies_at_the_semicolon() {
        let src = "fn f(m: &Mutex<Vec<u32>>) {\n    m.lock().push(1);\n    other.join();\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, GuardKind::Temporary);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(spans[0].end <= join_idx);
    }

    #[test]
    fn tail_position_temporary_lives_to_block_end() {
        // A tail expression's temporary drops at the end of the block —
        // the subtle case the issue calls out.
        let src = "fn f(m: &Mutex<u32>) -> u32 {\n    *m.lock()\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert!(matches!(f.tok(spans[0].end), Tok::Punct('}')));
    }

    #[test]
    fn closure_argument_lock_is_statement_scoped() {
        let src = "fn f(a: &Actor, m: &Mutex<u32>) {\n    let r = a.wait_on(&keys, label, || pred(&mut m.lock()));\n    other.join();\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        let join_idx = (0..f.tokens.len())
            .find(|&i| matches!(f.tok(i), Tok::Ident(s) if s == "join"))
            .expect("fixture has a join");
        assert!(spans[0].end <= join_idx, "guard scoped to its statement");
    }

    #[test]
    fn receiver_names_resolve_chains_and_calls() {
        let src = "fn f(&self) {\n    let a = self.inner.state.lock();\n    drop(a);\n    let b = clock.cell(i).lock();\n}\n";
        let (_, spans) = spans_of(src);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].lock_name, "state");
        assert_eq!(spans[1].lock_name, "cell");
    }

    #[test]
    fn try_lock_guards_are_marked_non_blocking() {
        let src = "fn f(m: &Mutex<u32>) {\n    let Some(g) = m.try_lock() else { return };\n    use_it(&g);\n}\n";
        let (_, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].non_blocking);
        assert_eq!(spans[0].kind, GuardKind::LetBound);
        assert_eq!(spans[0].name.as_deref(), Some("g"));
    }

    #[test]
    fn handoff_detection_sees_the_guard_in_the_arguments() {
        let src = "fn f(m: &Mutex<u32>, cv: &Condvar) {\n    let mut st = m.lock();\n    cv.wait(&mut st);\n}\n";
        let (f, spans) = spans_of(src);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name.as_deref(), Some("st"));
        let wait_idx = (0..f.tokens.len())
            .find(|&i| f.method_call_at(i, &["wait"]).is_some())
            .expect("fixture has a wait");
        assert!(call_takes_name(&f, wait_idx, spans[0].name.as_deref()));
        assert!(!call_takes_name(&f, wait_idx, Some("other")));
    }
}
