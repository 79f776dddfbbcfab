//! Tier-1 integration: run all eight passes over the *real* workspace.
//!
//! This is the same check `cargo run -p checker` (the CI gate) performs;
//! having it as a test means plain `cargo test` cannot pass while an
//! invariant is broken or the panic-path ratchet is stale.

use checker::{run_all, workspace_root, Workspace};

#[test]
fn workspace_satisfies_all_static_invariants() {
    let ws = Workspace::load(&workspace_root()).expect("workspace sources readable");
    assert!(
        ws.files.len() > 30,
        "sanity: the five library crates lex to plenty of files, got {}",
        ws.files.len()
    );
    let diags = run_all(&ws);
    assert!(
        diags.is_empty(),
        "static invariant violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
