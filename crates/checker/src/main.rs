//! CLI entry point: run the eight passes over the workspace (the CI
//! gate), print a machine-readable report (`--json`), explain a pass
//! (`--explain <pass>`), or regenerate the ratchet baseline
//! (`--write-baseline`).

use std::process::ExitCode;

use checker::{current_baseline, run_all, workspace_root, Diag, Workspace, PASS_IDS};

/// Rule and rationale per pass, printed by `--explain`. Kept next to the
/// CLI so the text stays a usage surface, not analysis logic.
const EXPLANATIONS: [(&str, &str); 8] = [
    (
        "non-blocking-engine",
        "crates/clmpi/src/engine.rs is the data plane. It must never block the\n\
         engine thread (.wait/.recv/.wait_labeled/.wait_result/.block_on) and must never\n\
         advance virtual time itself (advance_until/advance_ns). Op bodies\n\
         .await a check or an instant instead; blocking there would stall\n\
         every in-flight command on the engine. (DESIGN.md §9 P1)",
    ),
    (
        "blocking-marker",
        "The clmpi control plane may block only where an MPI/OpenCL semantic\n\
         requires it, and each such call site carries a `// blocking-api: <why>`\n\
         marker with a non-empty rationale, so every block is a documented\n\
         decision. (DESIGN.md §9 P2)",
    ),
    (
        "panic-ratchet",
        "Counts of unwrap( / expect( / panic! / unreachable! per library crate —\n\
         what it ships ([<crate>]: src/ outside #[cfg(test)] modules) apart from\n\
         its test code ([<crate>.tests]: those modules and tests/) — and of\n\
         checker-allow(<pass>) markers per pass are pinned in\n\
         crates/checker/baseline.toml and may only move DOWN. Improvements are\n\
         locked in with --write-baseline; regressions fail CI. (DESIGN.md §9 P3)",
    ),
    (
        "determinism",
        "The library crates replay identical virtual-time traces from identical\n\
         seeds. Wall-clock types (Instant/SystemTime), real thread::sleep, and\n\
         iteration-order-unstable collections (HashMap/HashSet) all break that\n\
         contract; unordered collections need a checker-allow(determinism)\n\
         justification proving keyed-only access. (DESIGN.md §9 P4)",
    ),
    (
        "status-literal",
        "Negative CL status codes live in minicl::status. Raw -14 / -1100\n\
         literals outside status.rs reintroduce drift; use the named constants.\n\
         (DESIGN.md §9 P5)",
    ),
    (
        "lock-lifetime",
        "No blocking call (join/recv/wait*/pump/quiesce_machines/park/…) and no\n\
         nested blocking .lock() while a MutexGuard is live. Guard lifetimes are\n\
         tracked per function: let-bound guards live to the end of the enclosing\n\
         block (or drop(g)); `if let`/`match` scrutinee temporaries live through\n\
         the whole body and else-chain — the exact shape of the PR-7 drop\n\
         deadlock (`if let Some(h) = handle.lock().take() { h.reap() }`); other\n\
         temporaries die at their statement. Condvar-style guard handoff\n\
         (cv.wait(&mut st)) and nested try_lock are exempt by construction.\n\
         Fix: take the value out of the mutex first — `let h = lock().take();`\n\
         then block. (DESIGN.md §9 P6)",
    ),
    (
        "lock-order",
        "Every guard span contributes held→acquired edges for locks taken while\n\
         it is live — lexically, and one level through direct calls via a\n\
         per-function lock summary. The resulting named-lock order graph must\n\
         be acyclic: a cycle means two paths take the same locks in opposite\n\
         orders, which deadlocks the moment two threads interleave. try_lock\n\
         never appears on the acquired side (it cannot wait). (DESIGN.md §9 P7)",
    ),
    (
        "actor-hygiene",
        "poll of every `impl SimActor` and every async block and async fn\n\
         body (a task's, a clMPI operation's body, or any other future a\n\
         machine polls) run on the scheduler at a frozen virtual instant.\n\
         They must stay resumable: no OS-blocking primitive (block_on\n\
         included) and no direct thread::spawn — machines return Pending\n\
         with a wake hint, async bodies .await, and everything spawns\n\
         through the clock so the scheduler can account for it.\n\
         (DESIGN.md §9 P8)",
    ),
];

/// Minimal JSON string escaping — the report contains paths and
/// diagnostic prose only.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The machine-readable report: pass list, file count, and findings.
fn json_report(ws: &Workspace, diags: &[Diag]) -> String {
    let mut s = String::from("{\n  \"tool\": \"clmpi-check\",\n");
    s.push_str(&format!("  \"files\": {},\n", ws.files.len()));
    s.push_str("  \"passes\": [");
    for (i, p) in PASS_IDS.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{p}\""));
    }
    s.push_str("],\n");
    s.push_str(&format!("  \"violations\": {},\n", diags.len()));
    s.push_str("  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{\"pass\": \"{}\", \"file\": \"{}\", \"line\": {}, \"msg\": \"{}\"}}",
            json_escape(d.pass),
            json_escape(&d.file),
            d.line,
            json_escape(&d.msg)
        ));
    }
    if !diags.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(pass) = args.get(pos + 1) else {
            eprintln!("clmpi-check: --explain needs a pass id; one of: {PASS_IDS:?}");
            return ExitCode::FAILURE;
        };
        let Some((id, text)) = EXPLANATIONS.iter().find(|(id, _)| id == pass) else {
            eprintln!("clmpi-check: unknown pass `{pass}`; one of: {PASS_IDS:?}");
            return ExitCode::FAILURE;
        };
        println!("[{id}]\n{text}");
        return ExitCode::SUCCESS;
    }
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let json = args.iter().any(|a| a == "--json");
    let root = workspace_root();
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "clmpi-check: cannot load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if write_baseline {
        let path = root.join("crates/checker/baseline.toml");
        let text = current_baseline(&ws).serialize();
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("clmpi-check: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        print!("{text}");
        eprintln!("clmpi-check: wrote {}", path.display());
        return ExitCode::SUCCESS;
    }
    let diags = run_all(&ws);
    if json {
        print!("{}", json_report(&ws, &diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for d in &diags {
        eprintln!("{d}");
    }
    if diags.is_empty() {
        eprintln!(
            "clmpi-check: {} files, {} passes, 0 violations",
            ws.files.len(),
            PASS_IDS.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("clmpi-check: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
