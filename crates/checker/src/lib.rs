//! `clmpi-check` — a dependency-free, AST-aware invariant checker for
//! the clmpi workspace.
//!
//! ### Why this exists
//!
//! PR 2's progress engine made the runtime's correctness rest on
//! *structural* invariants — "engine.rs never blocks or advances the
//! clock", "every blocking call in the control plane carries a
//! `// blocking-api:` marker" — that were enforced by two regex greps in
//! CI. Greps match inside strings, comments, and doc text, and cannot
//! express anything deeper (attribute scope, token adjacency, counts
//! against a baseline). This crate replaces them with a hand-rolled
//! comment/string/raw-string-aware Rust [`lexer`] and a small pass
//! framework ([`passes`]) running eight checks:
//!
//! | id | pass | invariant |
//! |----|------|-----------|
//! | P1 | `non-blocking-engine` | engine.rs never blocks or advances virtual time |
//! | P2 | `blocking-marker` | clmpi blocking calls carry `// blocking-api: <why>` |
//! | P3 | `panic-ratchet` | unwrap/expect/panic!/unreachable! and allow-marker counts only move down ([`baseline`]) |
//! | P4 | `determinism` | no wall-clock, real sleeps, or unordered collections |
//! | P5 | `status-literal` | raw `-14`/`-1100` must use `minicl::status` constants |
//! | P6 | `lock-lifetime` | no blocking call / nested lock while a guard is live ([`flow`]) |
//! | P7 | `lock-order` | the cross-function lock-order graph is acyclic ([`callgraph`]) |
//! | P8 | `actor-hygiene` | SimActor machine bodies and async bodies never OS-block or spawn threads |
//!
//! P1–P5 are token-level lints. P6–P8 are flow-aware (PR 8),
//! motivated by the PR-7 drop deadlock: a `MutexGuard` kept live by an
//! `if let` scrutinee across a thread join. [`flow`] computes per-function
//! guard-lifetime spans on top of the lexer; [`callgraph`] lifts the
//! per-function lock sets one call level to build a workspace lock-order
//! graph.
//!
//! ### How it runs
//!
//! * `cargo run -p checker` — the CI gate; prints `file:line: [pass] msg`
//!   diagnostics and exits non-zero on any finding.
//! * `cargo run -p checker -- --json` — the same findings as a
//!   machine-readable report (emitted as a CI artifact).
//! * `cargo run -p checker -- --explain <pass>` — prints a pass's rule
//!   and rationale.
//! * `cargo run -p checker -- --write-baseline` — regenerates
//!   `crates/checker/baseline.toml` after a panic-path or allow-marker
//!   improvement.
//! * `cargo test -p checker` — tier-1 coverage: the lexer and flow unit
//!   tests, fixture-driven positive/negative tests per pass (including
//!   the PR-7 deadlock regression fixture), and a test that runs all
//!   eight passes over the real workspace.
//!
//! See DESIGN.md §9 for the invariant rationale and the allow-marker
//! grammar (`// checker-allow(<pass-id>): <non-empty why>`).

pub mod baseline;
pub mod callgraph;
pub mod flow;
pub mod lexer;
pub mod passes;
pub mod workspace;

pub use baseline::{Baseline, Counts};
pub use passes::{current_baseline, run_all, Diag, PASS_IDS};
pub use workspace::{SourceFile, Workspace};

use std::path::PathBuf;

/// The workspace root, resolved from this crate's own manifest directory
/// so both `cargo run -p checker` and `cargo test` find the sources
/// regardless of the invoking directory.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/checker sits two levels below the workspace root")
        .to_path_buf()
}
