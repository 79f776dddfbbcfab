//! The eight invariant passes.
//!
//! Each pass walks the lexed token streams of the library crates and
//! reports [`Diag`]s. All passes share two conventions:
//!
//! * **Comments and string literals never match.** The lexer classifies
//!   them; passes look only at code tokens. This is what the old CI grep
//!   gates could not do.
//! * **Line-level allow markers.** A finding on line *L* is suppressed by
//!   `// checker-allow(<pass-id>): <non-empty why>` on line *L* or
//!   *L − 1* (or anywhere in the finding's multi-line statement). The
//!   justification is mandatory; an empty one is itself a violation of
//!   the marker grammar and does not suppress. Marker *counts* are
//!   themselves ratcheted in `baseline.toml` (`[allow]` section), so a
//!   new annotation is a reviewed event, not a silent escape.
//!
//! Passes P1–P5 are token-level lints (PR 3). P6–P8 are flow-aware: they
//! reason over guard lifetimes ([`crate::flow`]) and one-level call
//! summaries ([`crate::callgraph`]).

use crate::baseline::{Baseline, Counts};
use crate::callgraph;
use crate::flow::{call_takes_name, guard_spans, GuardKind};
use crate::lexer::Tok;
use crate::workspace::{SourceFile, Workspace, LIBRARY_CRATES};

/// Every pass id, in run order. The allow-marker ratchet and
/// `--explain` both key off this list.
pub const PASS_IDS: [&str; 8] = [
    "non-blocking-engine",
    "blocking-marker",
    "panic-ratchet",
    "determinism",
    "status-literal",
    "lock-lifetime",
    "lock-order",
    "actor-hygiene",
];

/// One reported violation, printed as `file:line: [pass] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    pub pass: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.msg
        )
    }
}

/// Run every pass; diagnostics come back grouped by pass, then file,
/// then line — the scan order is deterministic.
pub fn run_all(ws: &Workspace) -> Vec<Diag> {
    let mut out = Vec::new();
    pass_nonblocking_engine(ws, &mut out);
    pass_blocking_markers(ws, &mut out);
    pass_panic_ratchet(ws, &mut out);
    pass_determinism(ws, &mut out);
    pass_status_literals(ws, &mut out);
    pass_lock_lifetime(ws, &mut out);
    pass_lock_order(ws, &mut out);
    pass_actor_hygiene(ws, &mut out);
    out
}

// ----------------------------------------------------------------------
// Pass 1 — non-blocking engine
// ----------------------------------------------------------------------

/// DESIGN.md §8c invariant 1: `crates/clmpi/src/engine.rs` is the data
/// plane; it must never block the engine thread (`.wait(…)`, `.recv(…)`,
/// `.wait_labeled(…)`, `.wait_result(…)`, `.block_on(…)`) and must never advance virtual
/// time itself (`advance_until(…)`, `advance_ns(…)`). Op bodies `.await`
/// a check or an instant instead. Test modules inside engine.rs are exempt —
/// tests sit on the control-plane side of the line.
pub fn pass_nonblocking_engine(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "non-blocking-engine";
    const BLOCKING: &[&str] = &["wait", "recv", "wait_labeled", "wait_result", "block_on"];
    const CLOCK: &[&str] = &["advance_until", "advance_ns"];
    for f in ws
        .files
        .iter()
        .filter(|f| f.path.ends_with("clmpi/src/engine.rs"))
    {
        for idx in 0..f.tokens.len() {
            if f.is_test_token(idx) {
                continue;
            }
            let line = f.tokens[idx].line;
            let hit = f
                .method_call_at(idx, BLOCKING)
                .map(|n| format!("blocking call `.{n}(`"))
                .or_else(|| {
                    f.any_call_at(idx, CLOCK)
                        .map(|n| format!("virtual-time advance `{n}(`"))
                });
            if let Some(what) = hit {
                if f.allowed_at(idx, PASS) {
                    continue;
                }
                out.push(Diag {
                    pass: PASS,
                    file: f.path.clone(),
                    line,
                    msg: format!(
                        "{what} in the progress engine — op bodies must `.await`, \
                         never block or advance the clock (DESIGN.md §9 P1)"
                    ),
                });
            }
        }
    }
}

// ----------------------------------------------------------------------
// Pass 2 — blocking-api markers
// ----------------------------------------------------------------------

/// DESIGN.md §8c invariant 2: the clmpi control plane may block only
/// where an MPI/OpenCL semantic requires it, and every such call site
/// carries a `// blocking-api: <why>` marker with a non-empty rationale —
/// on the call's line, anywhere in the call's (possibly multi-line)
/// statement, or the line directly above the statement. Applies to all
/// of `crates/clmpi/src` except engine.rs (pass 1 forbids blocking there
/// outright); test code blocks freely.
pub fn pass_blocking_markers(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "blocking-marker";
    const BLOCKING: &[&str] = &["wait", "recv", "wait_labeled", "wait_result", "block_on"];
    for f in ws.files.iter().filter(|f| {
        f.krate == "clmpi"
            && !f.in_tests_dir
            && f.path.contains("/src/")
            && !f.path.ends_with("engine.rs")
    }) {
        for idx in 0..f.tokens.len() {
            if f.is_test_token(idx) {
                continue;
            }
            let Some(name) = f.method_call_at(idx, BLOCKING) else {
                continue;
            };
            let line = f.tokens[idx].line;
            if f.allowed_at(idx, PASS) {
                continue;
            }
            match f.marker_in_stmt(idx, "blocking-api:") {
                Some(why) if !why.is_empty() => {}
                Some(_) => out.push(Diag {
                    pass: PASS,
                    file: f.path.clone(),
                    line,
                    msg: format!(
                        "blocking call `.{name}(` has a `// blocking-api:` marker with an \
                         empty rationale — say why this must block (DESIGN.md §9 P2)"
                    ),
                }),
                None => out.push(Diag {
                    pass: PASS,
                    file: f.path.clone(),
                    line,
                    msg: format!(
                        "blocking call `.{name}(` without a `// blocking-api: <why>` marker \
                         on this line or the line above (DESIGN.md §9 P2)"
                    ),
                }),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Pass 3 — panic-path and allow-marker ratchet
// ----------------------------------------------------------------------

/// Count `unwrap(` / `expect(` / `panic!` / `unreachable!` code tokens
/// per library crate — shipped code and test code in sections of their
/// own, see [`crate::baseline`] — and `// checker-allow(<pass>)` markers
/// per pass, and compare against the committed
/// `crates/checker/baseline.toml`. Counts may only move down; an
/// improvement must be locked in by regenerating the baseline, and a
/// regression is an error naming the section (or pass) and the delta.
pub fn pass_panic_ratchet(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "panic-ratchet";
    let baseline = match Baseline::parse(&ws.baseline_text) {
        Ok(b) => b,
        Err((line, msg)) => {
            out.push(Diag {
                pass: PASS,
                file: "crates/checker/baseline.toml".into(),
                line,
                msg,
            });
            return;
        }
    };
    for (section, krate, tests) in ratchet_sections() {
        let actual = count_panic_paths(ws, krate, tests);
        let base = baseline.crates.get(&section).copied().unwrap_or_default();
        for (kind, got, want) in [
            ("unwrap(", actual.unwrap, base.unwrap),
            ("expect(", actual.expect, base.expect),
            ("panic!", actual.panic, base.panic),
            ("unreachable!", actual.unreachable, base.unreachable),
        ] {
            if got > want {
                out.push(Diag {
                    pass: PASS,
                    file: format!("crates/{krate}"),
                    line: 0,
                    msg: format!(
                        "[{section}] `{kind}` count ratcheted UP: {got} > baseline {want} — \
                         new code must not add panic paths; return a Result or justify \
                         with context via expect() *and* lower another site (DESIGN.md §9 P3)"
                    ),
                });
            } else if got < want {
                out.push(Diag {
                    pass: PASS,
                    file: format!("crates/{krate}"),
                    line: 0,
                    msg: format!(
                        "[{section}] `{kind}` count improved: {got} < baseline {want} — lock \
                         it in with `cargo run -p checker -- --write-baseline` and commit \
                         crates/checker/baseline.toml"
                    ),
                });
            }
        }
    }
    for pass in PASS_IDS {
        let got = count_allow_markers(ws, pass);
        let want = baseline.allows.get(pass).copied().unwrap_or(0);
        if got > want {
            out.push(Diag {
                pass: PASS,
                file: "crates/checker/baseline.toml".into(),
                line: 0,
                msg: format!(
                    "`checker-allow({pass})` marker count ratcheted UP: {got} > baseline \
                     {want} — a new suppression is a reviewed event; fix the site or \
                     re-baseline deliberately with --write-baseline (DESIGN.md §9 P3)"
                ),
            });
        } else if got < want {
            out.push(Diag {
                pass: PASS,
                file: "crates/checker/baseline.toml".into(),
                line: 0,
                msg: format!(
                    "`checker-allow({pass})` marker count improved: {got} < baseline \
                     {want} — lock it in with `cargo run -p checker -- --write-baseline`"
                ),
            });
        }
    }
}

/// The baseline sections of pass 3: `(section name, crate, test side?)`.
fn ratchet_sections() -> impl Iterator<Item = (String, &'static str, bool)> {
    LIBRARY_CRATES.into_iter().flat_map(|krate| {
        [
            (krate.to_string(), krate, false),
            (format!("{krate}.tests"), krate, true),
        ]
    })
}

/// The counting half of pass 3, also used by `--write-baseline`: the
/// panic paths of `krate`'s test code (`tests`) or of what it ships.
pub fn count_panic_paths(ws: &Workspace, krate: &str, tests: bool) -> Counts {
    let mut c = Counts::default();
    for f in ws.files.iter().filter(|f| f.krate == krate) {
        for idx in 0..f.tokens.len() {
            if f.is_test_token(idx) != tests {
                continue;
            }
            if f.any_call_at(idx, &["unwrap"]).is_some() {
                c.unwrap += 1;
            } else if f.any_call_at(idx, &["expect"]).is_some() {
                c.expect += 1;
            } else if f.ident_at(idx, &["panic", "unreachable"]).is_some()
                && matches!(
                    f.next_code(idx + 1).map(|i| f.tok(i)),
                    Some(Tok::Punct('!'))
                )
            {
                if matches!(f.tok(idx), Tok::Ident(s) if s == "panic") {
                    c.panic += 1;
                } else {
                    c.unreachable += 1;
                }
            }
        }
    }
    c
}

/// Count `// checker-allow(<pass>):` markers across the non-test library
/// sources — the other half of the ratchet.
pub fn count_allow_markers(ws: &Workspace, pass: &str) -> usize {
    let needle = format!("checker-allow({pass}):");
    let mut n = 0;
    for f in ws.files.iter().filter(|f| !f.in_tests_dir) {
        for t in &f.tokens {
            if let Tok::LineComment(text) = &t.tok {
                n += text.matches(&needle).count();
            }
        }
    }
    n
}

/// Compute the full baseline for the current tree.
pub fn current_baseline(ws: &Workspace) -> Baseline {
    let mut b = Baseline::default();
    for (section, krate, tests) in ratchet_sections() {
        b.crates
            .insert(section, count_panic_paths(ws, krate, tests));
    }
    for pass in PASS_IDS {
        let n = count_allow_markers(ws, pass);
        if n > 0 {
            b.allows.insert(pass.to_string(), n);
        }
    }
    b
}

// ----------------------------------------------------------------------
// Pass 4 — determinism lint
// ----------------------------------------------------------------------

/// The five library crates are deterministic by contract: identical
/// seeds replay identical virtual-time traces. Wall-clock types
/// (`std::time::Instant`, `SystemTime`), real sleeps (`thread::sleep`),
/// and iteration-order-unstable collections (`HashMap`, `HashSet`) all
/// break that contract. Since iteration-sensitivity cannot be decided
/// lexically, *every* unordered-collection use must either migrate to
/// `BTreeMap`/`BTreeSet` or carry a
/// `// checker-allow(determinism): <why>` marker proving keyed-only
/// access. Test code is exempt (it asserts on outcomes, not traces).
pub fn pass_determinism(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "determinism";
    for f in ws.files.iter().filter(|f| !f.in_tests_dir) {
        for idx in 0..f.tokens.len() {
            if f.is_test_token(idx) {
                continue;
            }
            let line = f.tokens[idx].line;
            let finding = if let Some(n) = f.ident_at(idx, &["Instant", "SystemTime"]) {
                Some(format!(
                    "wall-clock type `{n}` — deterministic crates tell time only \
                     through the simtime clock"
                ))
            } else if f.ident_at(idx, &["sleep"]).is_some() && is_thread_path(f, idx) {
                Some("real `thread::sleep` — park on the simtime clock instead".to_string())
            } else {
                f.ident_at(idx, &["HashMap", "HashSet"]).map(|n| {
                    format!(
                        "unordered collection `{n}` — use BTreeMap/BTreeSet or justify \
                         keyed-only access with `// checker-allow(determinism): <why>`"
                    )
                })
            };
            if let Some(msg) = finding {
                if f.allowed_at(idx, PASS) {
                    continue;
                }
                out.push(Diag {
                    pass: PASS,
                    file: f.path.clone(),
                    line,
                    msg: format!("{msg} (DESIGN.md §9 P4)"),
                });
            }
        }
    }
}

/// Is the identifier at `idx` path-qualified by `thread::`?
fn is_thread_path(f: &SourceFile, idx: usize) -> bool {
    let Some(c1) = f.prev_code(idx) else {
        return false;
    };
    let Some(c2) = f.prev_code(c1) else {
        return false;
    };
    let Some(c3) = f.prev_code(c2) else {
        return false;
    };
    matches!(f.tok(c1), Tok::Punct(':'))
        && matches!(f.tok(c2), Tok::Punct(':'))
        && matches!(f.tok(c3), Tok::Ident(s) if s == "thread")
}

// ----------------------------------------------------------------------
// Pass 5 — status-literal hygiene
// ----------------------------------------------------------------------

/// The negative CL status codes live in `minicl::status`; restating them
/// as raw literals (`-14`, `-1100`) reintroduces the drift that module
/// was created to end. Outside `crates/minicl/src/status.rs`, any
/// negated occurrence of a known status value must use the named
/// constant. String literals and comments (e.g. an assertion message
/// quoting "-1100") are naturally exempt via the lexer.
pub fn pass_status_literals(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "status-literal";
    const STATUS: &[(u128, &str)] = &[
        (
            14,
            "minicl::status::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST",
        ),
        (1100, "minicl::status::CL_MPI_TRANSFER_ERROR"),
    ];
    for f in ws
        .files
        .iter()
        .filter(|f| !f.path.ends_with("minicl/src/status.rs"))
    {
        for idx in 0..f.tokens.len() {
            let Tok::Int { text, value } = f.tok(idx) else {
                continue;
            };
            let Some(&(_, constant)) = STATUS.iter().find(|&&(v, _)| Some(v) == *value) else {
                continue;
            };
            if !matches!(f.prev_code(idx).map(|i| f.tok(i)), Some(Tok::Punct('-'))) {
                continue;
            }
            let line = f.tokens[idx].line;
            if f.allowed_at(idx, PASS) {
                continue;
            }
            out.push(Diag {
                pass: PASS,
                file: f.path.clone(),
                line,
                msg: format!(
                    "raw status literal `-{text}` — name it: use {constant} \
                     (DESIGN.md §9 P5)"
                ),
            });
        }
    }
}

// ----------------------------------------------------------------------
// Pass 6 — lock-lifetime (flow-aware)
// ----------------------------------------------------------------------

/// Calls that block the OS thread or advance virtual time — either way,
/// running one with a `MutexGuard` live is how PR 7's drop deadlock
/// happened. The set covers std blocking (`join`, `park`, `sleep`,
/// channel `recv`), the simtime wait vocabulary (`block_on` included: it
/// parks the thread until its future is ready), and the progress pumps.
pub const BLOCKING_CALLS: &[&str] = &[
    "join",
    "reap",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_labeled",
    "wait_on",
    "wait_result",
    "wait_delivered",
    "wait_idle",
    "block_on",
    "pump",
    "quiesce_machines",
    "park",
    "sleep",
    "advance_until",
    "advance_ns",
];

/// `join` is both `JoinHandle::join()` (blocking, zero arguments) and
/// `slice::join(sep)` (pure string glue). Only the empty-argument form
/// blocks.
fn blocking_join_shape(f: &SourceFile, idx: usize) -> bool {
    let Some(open) = f.next_code(idx + 1) else {
        return false;
    };
    matches!(f.tok(open), Tok::Punct('('))
        && matches!(
            f.next_code(open + 1).map(|i| f.tok(i)),
            Some(Tok::Punct(')'))
        )
}

/// DESIGN.md §9 P6: no blocking call and no nested blocking `.lock()`
/// while a `MutexGuard` is live. Guard lifetimes come from
/// [`crate::flow::guard_spans`] — `let`-bound guards live to the end of
/// the enclosing block (or `drop(g)`), `if let`/`match` scrutinee
/// temporaries live through the whole body and `else` chain (the PR-7
/// deadlock shape), other temporaries die at their statement.
///
/// Two shapes are exempt by construction:
/// * **Guard handoff** — the blocking call receives the guard binding
///   itself (`cv.wait(&mut st)`): the callee releases the lock while
///   blocked. This is the condvar protocol, not a bug.
/// * **`try_lock`** as the *nested* acquisition: it cannot wait.
pub fn pass_lock_lifetime(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "lock-lifetime";
    for f in ws.files.iter().filter(|f| !f.in_tests_dir) {
        for def in f.fn_defs() {
            if f.is_test_token(def.body.0) {
                continue;
            }
            for g in guard_spans(f, def.body) {
                let kind = match g.kind {
                    GuardKind::LetBound => "let-bound",
                    GuardKind::Scrutinee => "scrutinee",
                    GuardKind::Temporary => "temporary",
                };
                for idx in (g.lock_idx + 1)..g.end.min(f.tokens.len()) {
                    let line = f.tokens[idx].line;
                    if f.method_call_at(idx, &["lock"]).is_some() {
                        if f.allowed_at(idx, PASS) || f.allowed_at(g.lock_idx, PASS) {
                            continue;
                        }
                        out.push(Diag {
                            pass: PASS,
                            file: f.path.clone(),
                            line,
                            msg: format!(
                                "nested `.lock()` on `{}` while the {kind} guard of \
                                 `{}` (line {}) is live in `{}` — release first, or \
                                 use try_lock, or justify the ordering with \
                                 `// checker-allow(lock-lifetime): <why>` (DESIGN.md §9 P6)",
                                crate::flow::lock_receiver_name(f, idx),
                                g.lock_name,
                                g.line,
                                def.name,
                            ),
                        });
                    } else if let Some(name) = f.any_call_at(idx, BLOCKING_CALLS) {
                        if name == "join" && !blocking_join_shape(f, idx) {
                            continue; // slice::join(sep), not a thread join
                        }
                        if call_takes_name(f, idx, g.name.as_deref()) {
                            continue; // condvar-style guard handoff
                        }
                        if f.allowed_at(idx, PASS) || f.allowed_at(g.lock_idx, PASS) {
                            continue;
                        }
                        out.push(Diag {
                            pass: PASS,
                            file: f.path.clone(),
                            line,
                            msg: format!(
                                "blocking call `{name}(` while the {kind} guard of \
                                 `{}` (line {}) is live in `{}` — take the value out \
                                 of the mutex before blocking (the 04d47ed pattern) \
                                 (DESIGN.md §9 P6)",
                                g.lock_name, g.line, def.name,
                            ),
                        });
                    }
                }
            }
        }
    }
    out.dedup();
}

// ----------------------------------------------------------------------
// Pass 7 — lock-order (cross-function)
// ----------------------------------------------------------------------

/// DESIGN.md §9 P7: the lock-order graph — `held → acquired` edges from
/// guard spans, propagated one level through direct calls
/// ([`crate::callgraph`]) — must be acyclic. A cycle means two code
/// paths take the same locks in opposite orders, which deadlocks the
/// moment two threads interleave. Edges acquired via `try_lock`
/// don't exist (it cannot wait), and an edge site annotated
/// `// checker-allow(lock-order): <why>` is removed before the check.
pub fn pass_lock_order(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "lock-order";
    let es = callgraph::edges(ws);
    for c in callgraph::cycles(&es) {
        let sites: Vec<String> = c
            .example
            .iter()
            .take(4)
            .map(|e| {
                if e.via.is_empty() {
                    format!("{} → {} at {}:{}", e.held, e.acquired, e.file, e.line)
                } else {
                    format!(
                        "{} → {} via {}() at {}:{}",
                        e.held, e.acquired, e.via, e.file, e.line
                    )
                }
            })
            .collect();
        let (file, line) = c
            .example
            .first()
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_default();
        out.push(Diag {
            pass: PASS,
            file,
            line,
            msg: format!(
                "lock-order cycle between {{{}}} — acquisition orders conflict: {} \
                 (DESIGN.md §9 P7)",
                c.locks.join(", "),
                sites.join("; "),
            ),
        });
    }
}

// ----------------------------------------------------------------------
// Pass 8 — actor hygiene
// ----------------------------------------------------------------------

/// DESIGN.md §9 P8: machine bodies — `poll` of any `impl SimActor`, and
/// every `async` block and `async fn` body (a task's, a clMPI operation's
/// body, or any other future a machine polls) — run on the scheduler at a frozen virtual instant and must stay
/// *resumable*: they wait with `.await`, never with a thread park — no
/// OS-blocking primitive (the [`BLOCKING_CALLS`] vocabulary) and no
/// direct `thread::spawn` (machines are spawned through the clock so
/// the scheduler can account for them). Test code is exempt — fixtures
/// deliberately build stuck machines.
pub fn pass_actor_hygiene(ws: &Workspace, out: &mut Vec<Diag>) {
    const PASS: &str = "actor-hygiene";
    for f in ws.files.iter().filter(|f| !f.in_tests_dir) {
        let regions = machine_regions(f);
        if regions.is_empty() {
            continue;
        }
        for (fn_name, body) in regions {
            if f.is_test_token(body.0) {
                continue;
            }
            for idx in body.0..body.1 {
                let line = f.tokens[idx].line;
                let found = if let Some(n) = f.any_call_at(idx, BLOCKING_CALLS) {
                    if n == "join" && !blocking_join_shape(f, idx) {
                        None // slice::join(sep)
                    } else {
                        Some(format!("OS-blocking call `{n}(`"))
                    }
                } else if f.ident_at(idx, &["spawn"]).is_some()
                    && is_thread_path(f, idx)
                    && matches!(
                        f.next_code(idx + 1).map(|i| f.tok(i)),
                        Some(Tok::Punct('('))
                    )
                {
                    Some("direct `thread::spawn`".to_string())
                } else {
                    None
                };
                if let Some(what) = found {
                    if f.allowed_at(idx, PASS) {
                        continue;
                    }
                    out.push(Diag {
                        pass: PASS,
                        file: f.path.clone(),
                        line,
                        msg: format!(
                            "{what} inside machine body `{fn_name}` — machines run on \
                             the scheduler and must stay resumable: return Pending with \
                             a wake hint, or `.await`, instead (DESIGN.md §9 P8)"
                        ),
                    });
                }
            }
        }
    }
}

/// Machine-body regions of a file: for each `impl SimActor …` block the
/// body of `poll`; every `async fn` body and every `async` block not
/// inside one of those. Returns `(fn name, body token range)` pairs.
fn machine_regions(f: &SourceFile) -> Vec<(String, (usize, usize))> {
    let mut out = Vec::new();
    let defs = f.fn_defs();
    let mut async_end = 0; // an async body inside another is scanned with it
    for idx in 0..f.tokens.len() {
        let keyword = f.ident_at(idx, &["impl", "async"]);
        let Some(open) = keyword.and_then(|_| body_open(f, idx)) else {
            continue;
        };
        let end = f.match_delim(open).map_or(f.tokens.len(), |e| e + 1);
        if keyword == Some("async") {
            if idx >= async_end {
                let name = match (f.next_code(idx + 1), defs.iter().find(|d| d.body.0 == open)) {
                    (Some(n), Some(d)) if f.ident_at(n, &["fn"]).is_some() => {
                        format!("async fn {}", d.name)
                    }
                    _ => "async block".to_string(),
                };
                out.push((name, (open, end)));
                async_end = end;
            }
            continue;
        }
        // The `impl` header: the identifiers up to the body `{`.
        if !(idx..open).any(|i| f.ident_at(i, &["SimActor"]).is_some()) {
            continue;
        }
        for d in &defs {
            if d.body.0 > open && d.body.1 <= end && d.name == "poll" {
                out.push((d.name.clone(), d.body));
            }
        }
    }
    out
}

/// The body `{` that the `impl` or `async` at `idx` introduces: the first
/// one outside parentheses and brackets after it (`None` at a `;` first).
fn body_open(f: &SourceFile, idx: usize) -> Option<usize> {
    let (mut j, mut depth) = (idx, 0i32);
    loop {
        j = f.next_code(j + 1)?;
        match f.tok(j) {
            Tok::Punct('(' | '[') => depth += 1,
            Tok::Punct(')' | ']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => return Some(j),
            Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
}
