//! Fixture-driven pass tests: for each of the eight passes, one fixture
//! that MUST trip it (positive) and one near-identical fixture that must
//! NOT (negative). The P1–P5 negatives are chosen to be exactly the
//! situations the old CI grep gates got wrong — forbidden tokens inside
//! comments, strings, raw strings, and test modules. The P6–P8 fixtures
//! replay the real bugs that motivated the flow-aware passes, headlined
//! by the PR-7 `if let` drop-join deadlock.

use checker::passes::{
    pass_actor_hygiene, pass_blocking_markers, pass_determinism, pass_lock_lifetime,
    pass_lock_order, pass_nonblocking_engine, pass_panic_ratchet, pass_status_literals,
};
use checker::{Diag, Workspace};

fn diags(
    pass: fn(&Workspace, &mut Vec<Diag>),
    sources: &[(&str, &str)],
    baseline: &str,
) -> Vec<Diag> {
    let ws = Workspace::from_sources(sources, baseline);
    let mut out = Vec::new();
    pass(&ws, &mut out);
    out
}

// ------------------------------------------------------------------
// P1 — non-blocking engine
// ------------------------------------------------------------------

#[test]
fn p1_flags_blocking_and_clock_advance_in_engine() {
    let src = r#"
fn step(e: &Event, a: &Actor) {
    e.wait(a);
    a.advance_ns(10);
}
"#;
    let out = diags(
        pass_nonblocking_engine,
        &[("crates/clmpi/src/engine.rs", src)],
        "",
    );
    assert_eq!(out.len(), 2, "one wait + one advance: {out:?}");
    assert_eq!(out[0].line, 3);
    assert!(out[0].msg.contains(".wait("));
    assert_eq!(out[1].line, 4);
    assert!(out[1].msg.contains("advance_ns"));
}

#[test]
fn p1_ignores_comments_strings_tests_and_other_files() {
    let engine = r##"
//! Docs may say `.wait(` and `advance_until(` freely.
fn step() {
    let msg = "call .recv( later";
    let raw = r#"advance_ns( in a raw string"#;
    park(msg, raw);
}
#[cfg(test)]
mod tests {
    fn t(e: &Event, a: &Actor) { e.wait(a); }
}
"##;
    // The same blocking call in runtime.rs is P2's business, not P1's.
    let runtime = "fn f(e: &Event, a: &Actor) { e.wait(a); } // blocking-api: semantics";
    let out = diags(
        pass_nonblocking_engine,
        &[
            ("crates/clmpi/src/engine.rs", engine),
            ("crates/clmpi/src/runtime.rs", runtime),
        ],
        "",
    );
    assert!(out.is_empty(), "false positives: {out:?}");
}

#[test]
fn p1_allow_marker_with_rationale_suppresses() {
    let src = "fn idle(s: &S, a: &Actor) {\n    s.shared\n        // checker-allow(non-blocking-engine): host-side control-plane wait\n        .wait_labeled(a);\n}\n";
    let out = diags(
        pass_nonblocking_engine,
        &[("crates/clmpi/src/engine.rs", src)],
        "",
    );
    assert!(out.is_empty(), "justified allow-marker suppresses: {out:?}");
}

// ------------------------------------------------------------------
// P2 — blocking-api markers
// ------------------------------------------------------------------

#[test]
fn p2_flags_unmarked_and_empty_rationale_blocking_calls() {
    let src = r#"
fn f(e: &Event, a: &Actor) {
    e.wait(a);
    e.recv(a); // blocking-api:
}
"#;
    let out = diags(
        pass_blocking_markers,
        &[("crates/clmpi/src/runtime.rs", src)],
        "",
    );
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out[0].msg.contains("without a"), "{}", out[0].msg);
    assert!(out[1].msg.contains("empty rationale"), "{}", out[1].msg);
}

#[test]
fn p2_accepts_markers_anywhere_in_the_statement() {
    let src = r#"
fn f(s: &Slot, e: &Event, a: &Actor) {
    e.wait(a); // blocking-api: MPI_Send semantics
    // blocking-api: the whole point of waiting a send request.
    let out = s
        .slot
        .wait_labeled(a);
    drop(out);
}
#[cfg(test)]
mod tests {
    fn t(e: &Event, a: &Actor) { e.wait(a); }
}
"#;
    let out = diags(
        pass_blocking_markers,
        &[("crates/clmpi/src/runtime.rs", src)],
        "",
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn p2_marker_inside_a_string_does_not_count() {
    let src = r#"fn f(e: &Event, a: &Actor) { log("blocking-api: fake"); e.wait(a); }"#;
    let out = diags(
        pass_blocking_markers,
        &[("crates/clmpi/src/runtime.rs", src)],
        "",
    );
    assert_eq!(out.len(), 1, "string content is not a marker: {out:?}");
}

// ------------------------------------------------------------------
// P3 — panic-path ratchet
// ------------------------------------------------------------------

const RATCHET_SRC: &str = r#"
fn f(x: Option<u32>) -> u32 {
    // unwrap( in a comment is not counted
    let label = "panic! in a string is not counted";
    drop(label);
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 { x.expect("ctx") }
fn h() { panic!("boom"); }
"#;

#[test]
fn p3_counts_match_and_ratchet_up_fails() {
    let files = [("crates/simtime/src/a.rs", RATCHET_SRC)];
    // Exact baseline: clean.
    let exact = "[simtime]\nunwrap = 1\nexpect = 1\npanic = 1\n";
    assert!(diags(pass_panic_ratchet, &files, exact).is_empty());
    // One fewer allowed unwrap: the new unwrap is a ratchet-up error.
    let tighter = "[simtime]\nunwrap = 0\nexpect = 1\npanic = 1\n";
    let out = diags(pass_panic_ratchet, &files, tighter);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("ratcheted UP"), "{}", out[0].msg);
}

#[test]
fn p3_improvement_must_be_locked_in() {
    let files = [("crates/simtime/src/a.rs", RATCHET_SRC)];
    let looser = "[simtime]\nunwrap = 3\nexpect = 1\npanic = 1\n";
    let out = diags(pass_panic_ratchet, &files, looser);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("--write-baseline"), "{}", out[0].msg);
}

#[test]
fn p3_malformed_baseline_is_a_diagnostic() {
    let files = [("crates/simtime/src/a.rs", RATCHET_SRC)];
    let out = diags(pass_panic_ratchet, &files, "[simtime]\nunwrap = lots\n");
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].file, "crates/checker/baseline.toml");
}

#[test]
fn p3_unwrap_or_and_should_panic_are_not_panic_paths() {
    let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_else(|| 1)) }
#[should_panic(expected = "boom")]
fn t() {}
"#;
    let files = [("crates/simtime/src/a.rs", src)];
    let zero = "[simtime]\nunwrap = 0\nexpect = 0\npanic = 0\n";
    assert!(diags(pass_panic_ratchet, &files, zero).is_empty());
}

/// One panic path a side: shipped code, a `#[cfg(test)]` module in
/// `src/`, an integration test.
const RATCHET_SIDES: [(&str, &str); 2] = [
    (
        "crates/simtime/src/a.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
    ),
    (
        "crates/simtime/tests/t.rs",
        "#[test]\nfn t() { Some(1).expect(\"one\"); }\n",
    ),
];

#[test]
fn p3_shipped_code_and_test_code_are_counted_apart() {
    let exact = "[simtime]\nunwrap = 1\n\n[simtime.tests]\nunwrap = 1\nexpect = 1\n";
    assert!(diags(pass_panic_ratchet, &RATCHET_SIDES, exact).is_empty());
    // The sum of both sides under the crate's name fits neither side.
    let summed = "[simtime]\nunwrap = 2\nexpect = 1\n";
    let out = diags(pass_panic_ratchet, &RATCHET_SIDES, summed);
    let msgs: Vec<&str> = out.iter().map(|d| d.msg.as_str()).collect();
    assert_eq!(out.len(), 4, "{msgs:?}");
    for (section, kind, way) in [
        ("simtime", "unwrap(", "improved"),
        ("simtime", "expect(", "improved"),
        ("simtime.tests", "unwrap(", "ratcheted UP"),
        ("simtime.tests", "expect(", "ratcheted UP"),
    ] {
        let want = format!("[{section}] `{kind}` count {way}");
        assert!(
            msgs.iter().any(|m| m.starts_with(&want)),
            "{want}: {msgs:?}"
        );
    }
}

#[test]
fn p3_a_test_side_allowance_does_not_cover_shipped_code() {
    // What the tests may do, `src/` may not: an `unwrap(` that moves out
    // of a test module trips the crate's own section.
    let moved = "[simtime]\nunwrap = 0\n\n[simtime.tests]\nunwrap = 2\nexpect = 1\n";
    let out = diags(pass_panic_ratchet, &RATCHET_SIDES, moved);
    let msgs: Vec<&str> = out.iter().map(|d| d.msg.as_str()).collect();
    assert_eq!(out.len(), 2, "{msgs:?}");
    assert!(
        msgs[0].starts_with("[simtime] `unwrap(` count ratcheted UP: 1 > baseline 0"),
        "{msgs:?}"
    );
    assert!(
        msgs[1].starts_with("[simtime.tests] `unwrap(` count improved: 1 < baseline 2"),
        "{msgs:?}"
    );
}

// ------------------------------------------------------------------
// P4 — determinism
// ------------------------------------------------------------------

#[test]
fn p4_flags_wallclock_sleep_and_unordered_collections() {
    let src = r#"
use std::collections::HashMap;
fn f() {
    let t = std::time::Instant::now();
    std::thread::sleep(d);
    drop(t);
}
"#;
    let out = diags(pass_determinism, &[("crates/simnet/src/a.rs", src)], "");
    let msgs: Vec<&str> = out.iter().map(|d| d.msg.as_str()).collect();
    assert_eq!(out.len(), 3, "{out:?}");
    assert!(msgs.iter().any(|m| m.contains("HashMap")));
    assert!(msgs.iter().any(|m| m.contains("Instant")));
    assert!(msgs.iter().any(|m| m.contains("thread::sleep")));
}

#[test]
fn p4_allows_btreemap_justified_hashmap_and_test_code() {
    let src = r#"
use std::collections::BTreeMap;
// checker-allow(determinism): keyed access only, never iterated.
use std::collections::HashMap;
struct S {
    // checker-allow(determinism): looked up by id; order never observed,
    // as this multi-line justification explains at length.
    index: HashMap<u64, u32>,
    ordered: BTreeMap<u64, u32>,
}
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    fn t() { let _s: HashSet<u32> = HashSet::new(); }
}
"#;
    let out = diags(pass_determinism, &[("crates/simtime/src/a.rs", src)], "");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn p4_unjustified_allow_marker_does_not_suppress() {
    let src = "use std::collections::HashMap; // checker-allow(determinism):\n";
    let out = diags(pass_determinism, &[("crates/simtime/src/a.rs", src)], "");
    assert_eq!(out.len(), 1, "empty rationale must not suppress: {out:?}");
}

#[test]
fn p4_non_thread_sleep_ident_is_fine() {
    // simnet docs talk about actors "sleeping"; only `thread::sleep` is
    // the real-time kind.
    let src = "fn sleep_until(t: SimNs) { clock.sleep_until(t); } // fn named sleep_until";
    let out = diags(pass_determinism, &[("crates/simtime/src/a.rs", src)], "");
    assert!(out.is_empty(), "{out:?}");
}

// ------------------------------------------------------------------
// P5 — status literals
// ------------------------------------------------------------------

#[test]
fn p5_flags_raw_status_literals_in_all_code_paths() {
    let src = r#"
fn f(e: &Event) {
    e.fail(5, -1100);
    e.fail(9, -14i32);
}
"#;
    let out = diags(
        pass_status_literals,
        &[("crates/minicl/src/event.rs", src)],
        "",
    );
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(
        out[0].msg.contains("CL_MPI_TRANSFER_ERROR"),
        "{}",
        out[0].msg
    );
    assert!(
        out[1]
            .msg
            .contains("EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST"),
        "{}",
        out[1].msg
    );
}

#[test]
fn p5_ignores_strings_comments_other_values_and_status_rs() {
    let src = r#"
// -1100 in a comment
fn f(e: &Event, c1: Option<i32>) {
    assert_eq!(c1, Some(X), "root failure is -1100");
    e.fail(43, -42);
    let window = 14; // positive 14 is not a status code
    drop(window);
}
"#;
    let defs = "pub const CL_MPI_TRANSFER_ERROR: i32 = -1100;\npub const E: i32 = -14;\n";
    let out = diags(
        pass_status_literals,
        &[
            ("crates/clmpi/tests/engine.rs", src),
            ("crates/minicl/src/status.rs", defs),
        ],
        "",
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn p5_separator_and_suffix_forms_still_match() {
    let src = "fn f(e: &Event) { e.fail(1, -1_100); }";
    let out = diags(pass_status_literals, &[("crates/clmpi/src/a.rs", src)], "");
    assert_eq!(out.len(), 1, "`-1_100` is still -1100: {out:?}");
}

// ------------------------------------------------------------------
// P3 — unreachable! and allow-marker ratchets (PR 8 extensions)
// ------------------------------------------------------------------

#[test]
fn p3_unreachable_is_ratcheted_like_panic() {
    let src = "fn f(x: u32) -> u32 {\n    match x {\n        0 => 1,\n        _ => unreachable!(\"no\"),\n    }\n}\n";
    let files = [("crates/simtime/src/a.rs", src)];
    let exact = "[simtime]\nunwrap = 0\nexpect = 0\npanic = 0\nunreachable = 1\n";
    assert!(diags(pass_panic_ratchet, &files, exact).is_empty());
    let tighter = "[simtime]\nunwrap = 0\nexpect = 0\npanic = 0\nunreachable = 0\n";
    let out = diags(pass_panic_ratchet, &files, tighter);
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("`unreachable!`"), "{}", out[0].msg);
}

#[test]
fn p3_new_allow_marker_trips_the_ratchet() {
    let src = "// checker-allow(lock-lifetime): justified elsewhere\nfn f() {}\n";
    let files = [("crates/simtime/src/a.rs", src)];
    let pinned = "[simtime]\n\n[allow]\nlock-lifetime = 1\n";
    assert!(diags(pass_panic_ratchet, &files, pinned).is_empty());
    let out = diags(pass_panic_ratchet, &files, "[simtime]\n");
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(
        out[0].msg.contains("checker-allow(lock-lifetime)"),
        "{}",
        out[0].msg
    );
    assert!(out[0].msg.contains("ratcheted UP"), "{}", out[0].msg);
}

// ------------------------------------------------------------------
// P6 — lock-lifetime
// ------------------------------------------------------------------

/// The PR-7 deadlock, verbatim in shape: the `if let` scrutinee keeps
/// the `handle` guard live across `reap()` (which joins the worker
/// thread), so the worker's own drop path deadlocks against it. This
/// fixture MUST fail the pass — it is the bug the pass exists for.
#[test]
fn p6_pr7_if_let_drop_join_deadlock_is_caught() {
    let src = r#"
impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(h) = self.handle.lock().take() {
            h.reap();
        }
    }
}
"#;
    let out = diags(
        pass_lock_lifetime,
        &[("crates/clmpi/src/engine.rs", src)],
        "",
    );
    assert_eq!(out.len(), 1, "the PR-7 shape must be flagged: {out:?}");
    assert!(out[0].msg.contains("scrutinee"), "{}", out[0].msg);
    assert!(
        out[0].msg.contains("`reap`(") || out[0].msg.contains("reap("),
        "{}",
        out[0].msg
    );
}

/// The 04d47ed fix pattern: take the handle out of the mutex first.
/// The guard is a temporary that dies at the `;` — no finding.
#[test]
fn p6_take_then_join_pattern_is_clean() {
    let src = r#"
impl Drop for Engine {
    fn drop(&mut self) {
        let h = self.handle.lock().take();
        if let Some(h) = h {
            h.reap();
        }
    }
}
"#;
    let out = diags(
        pass_lock_lifetime,
        &[("crates/clmpi/src/engine.rs", src)],
        "",
    );
    assert!(out.is_empty(), "the fixed pattern is clean: {out:?}");
}

#[test]
fn p6_let_bound_guard_across_blocking_and_nested_lock() {
    let src = r#"
fn f(&self) {
    let st = self.state.lock();
    self.chan.recv();
    self.other.lock().push(1);
    drop(st);
}
"#;
    let out = diags(pass_lock_lifetime, &[("crates/simtime/src/a.rs", src)], "");
    assert_eq!(out.len(), 2, "one recv + one nested lock: {out:?}");
    assert!(out
        .iter()
        .any(|d| d.msg.contains("`recv`(") || d.msg.contains("recv(")));
    assert!(out.iter().any(|d| d.msg.contains("nested `.lock()`")));
}

#[test]
fn p6_drop_before_blocking_and_condvar_handoff_are_clean() {
    let src = r#"
fn f(&self) {
    let st = self.state.lock();
    drop(st);
    self.chan.recv();
}
fn waiter(&self) {
    let mut st = self.state.lock();
    while !st.ready {
        st = self.cv.wait(st);
    }
}
fn names(&self) -> String {
    let st = self.state.lock();
    st.labels.join(", ")
}
"#;
    let out = diags(pass_lock_lifetime, &[("crates/simtime/src/a.rs", src)], "");
    assert!(
        out.is_empty(),
        "drop-first, guard handoff, and string join are clean: {out:?}"
    );
}

#[test]
fn p6_and_p8_keyed_park_is_blocking_vocabulary() {
    // `wait_on` parks the actor: a guard held across it is the PR-7
    // deadlock shape, and a machine body must not call it.
    // `quiesce_machines` is the clock's own end-of-world check.
    let src = r#"
fn f(&self, actor: &Actor) {
    let st = self.state.lock();
    actor.wait_on(&[self.key], "held", || self.ready());
    drop(st);
}
fn q(&self) {
    let g = self.slab.lock();
    self.clock.quiesce_machines();
}
impl SimActor for Pumper {
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        actor.wait_on(&self.keys, "in poll", || self.done());
        MachineStep::Done
    }
}
"#;
    let files = [("crates/minimpi/src/a.rs", src)];
    let held = diags(pass_lock_lifetime, &files, "");
    assert_eq!(
        held.len(),
        2,
        "wait_on + quiesce_machines under a guard: {held:?}"
    );
    assert!(held.iter().any(|d| d.msg.contains("wait_on")));
    assert!(held.iter().any(|d| d.msg.contains("quiesce_machines")));
    let hygiene = diags(pass_actor_hygiene, &files, "");
    assert_eq!(hygiene.len(), 1, "{hygiene:?}");
    assert!(hygiene[0].msg.contains("wait_on") && hygiene[0].msg.contains("`poll`"));
}

#[test]
fn p6_and_p8_keyed_park_clean_shapes() {
    // Guard released first; the predicate's own short lock lives inside
    // the closure argument, not across the park; naming keys or arming a
    // keyed alarm from a machine body does not block.
    let src = r#"
fn f(&self, actor: &Actor) {
    let keys = { let st = self.state.lock(); st.keys.clone() };
    actor.wait_on(&keys, "released", || self.state.lock().take());
}
impl SimActor for Pumper {
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        let _keys = self.req.wake_keys();
        self.slot.alarm_at(now + 1);
        MachineStep::Pending(Some(now + 1))
    }
}
"#;
    let files = [("crates/minimpi/src/a.rs", src)];
    let held = diags(pass_lock_lifetime, &files, "");
    assert!(held.is_empty(), "{held:?}");
    let hygiene = diags(pass_actor_hygiene, &files, "");
    assert!(hygiene.is_empty(), "{hygiene:?}");
}

#[test]
fn p6_allow_marker_with_rationale_suppresses() {
    let src = r#"
fn pump(&self) {
    // checker-allow(lock-lifetime): defer serializes the grant order;
    // cell is a per-job leaf lock.
    let q = self.defer.lock();
    for j in q.iter() {
        j.cell.lock().replace(1);
    }
}
"#;
    let out = diags(pass_lock_lifetime, &[("crates/clmpi/src/a.rs", src)], "");
    assert!(out.is_empty(), "justified allow-marker suppresses: {out:?}");
}

#[test]
fn p6_test_code_is_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    fn t(&self) {
        let st = self.state.lock();
        self.chan.recv();
        drop(st);
    }
}
"#;
    let out = diags(pass_lock_lifetime, &[("crates/simtime/src/a.rs", src)], "");
    assert!(out.is_empty(), "{out:?}");
}

// ------------------------------------------------------------------
// P7 — lock-order
// ------------------------------------------------------------------

#[test]
fn p7_opposite_acquisition_orders_across_files_cycle() {
    let a = "fn f(&self) {\n    let g = self.alpha.lock();\n    self.beta.lock().push(1);\n}\n";
    let b = "fn h(&self) {\n    let g = self.beta.lock();\n    self.alpha.lock().push(1);\n}\n";
    let out = diags(
        pass_lock_order,
        &[
            ("crates/simtime/src/a.rs", a),
            ("crates/simtime/src/b.rs", b),
        ],
        "",
    );
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("simtime:alpha"), "{}", out[0].msg);
    assert!(out[0].msg.contains("simtime:beta"), "{}", out[0].msg);
}

#[test]
fn p7_cross_function_cycle_through_a_direct_call() {
    let src = r#"
fn take_beta(&self) {
    self.beta.lock().push(1);
}
fn f(&self) {
    let g = self.alpha.lock();
    self.take_beta();
}
fn h(&self) {
    let g = self.beta.lock();
    self.alpha.lock().push(1);
}
"#;
    let out = diags(pass_lock_order, &[("crates/simtime/src/a.rs", src)], "");
    assert_eq!(out.len(), 1, "{out:?}");
    assert!(out[0].msg.contains("via take_beta()"), "{}", out[0].msg);
}

#[test]
fn p7_consistent_order_and_try_lock_are_clean() {
    let src = r#"
fn f(&self) {
    let g = self.alpha.lock();
    self.beta.lock().push(1);
}
fn h(&self) {
    let g = self.beta.lock();
    if let Some(a) = self.alpha.try_lock() {
        use_it(a);
    }
}
"#;
    let out = diags(pass_lock_order, &[("crates/simtime/src/a.rs", src)], "");
    assert!(out.is_empty(), "consistent order + try_lock: {out:?}");
}

#[test]
fn p7_allow_marker_removes_the_edge() {
    let src = r#"
fn f(&self) {
    let g = self.alpha.lock();
    // checker-allow(lock-order): alpha strictly outranks beta; the h()
    // path runs only at shutdown when f() can no longer be entered.
    self.beta.lock().push(1);
}
fn h(&self) {
    let g = self.beta.lock();
    self.alpha.lock().push(1);
}
"#;
    let out = diags(pass_lock_order, &[("crates/simtime/src/a.rs", src)], "");
    assert!(out.is_empty(), "annotated edge is removed: {out:?}");
}

// ------------------------------------------------------------------
// P8 — actor hygiene
// ------------------------------------------------------------------

#[test]
fn p8_blocking_and_thread_spawn_in_machine_bodies() {
    let src = r#"
impl SimActor for QueueCore {
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        self.chan.recv();
        std::thread::spawn(move || {});
        MachineStep::Pending
    }
}
impl OpBody for Copy2D {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        self.event.wait(cx.actor());
        Ok(cx.now())
    }
}
impl OpBody for Copy2DBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        self.grant.wait_labeled(cx.actor(), "grant", |g| g.take());
        Ok(cx.now())
    }
}
"#;
    let out = diags(
        pass_actor_hygiene,
        &[("crates/minicl/src/queue.rs", src)],
        "",
    );
    assert_eq!(out.len(), 4, "{out:?}");
    assert!(
        out.iter()
            .any(|d| d.msg.contains("wait_labeled") && d.msg.contains("`async fn run`")),
        "an op body is a machine body: {out:?}"
    );
    assert!(out
        .iter()
        .any(|d| d.msg.contains("`recv`(") || d.msg.contains("recv(")));
    assert!(out.iter().any(|d| d.msg.contains("thread::spawn")));
    assert!(out
        .iter()
        .any(|d| d.msg.contains("`wait`(") || d.msg.contains("wait(")));
}

#[test]
fn p8_resumable_machine_and_non_machine_code_are_clean() {
    let src = r#"
impl SimActor for QueueCore {
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        // Accessors that merely *name* wait lists are fine.
        match Event::poll_wait_list(cmd.wait_list()) {
            Deps::Ready => MachineStep::Pending,
            Deps::Blocked(t) => MachineStep::Pending,
        }
    }
}
impl QueueCore {
    // Not a machine body: the control plane may block (P2 governs it).
    fn drain(&self, actor: &Actor) {
        self.done.recv();
    }
}
impl OpBody for Copy2DBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        // Awaiting a future instant is how a body waits.
        cx.sleep_until(self.end).await;
        Ok(self.end)
    }
}
impl Copy2DBody {
    // Same type, but not `async`: not a machine body.
    fn submit_blocking(&self, actor: &Actor) {
        self.event.wait(actor);
    }
}
"#;
    let out = diags(
        pass_actor_hygiene,
        &[("crates/minicl/src/queue.rs", src)],
        "",
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn p8_allow_marker_and_test_impls_are_exempt() {
    let live = r#"
impl SimActor for Probe {
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        // checker-allow(actor-hygiene): diagnostic probe; the harness
        // guarantees a scheduler of its own for it.
        self.chan.recv();
        MachineStep::Pending
    }
}
impl OpBody for ProbeBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        // checker-allow(actor-hygiene): same probe, as an op body.
        self.chan.recv();
        Ok(cx.now())
    }
}
#[cfg(test)]
mod tests {
    impl SimActor for Stuck {
        fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
            self.chan.recv(); // deliberately stuck fixture
            MachineStep::Pending
        }
    }
}
"#;
    let out = diags(pass_actor_hygiene, &[("crates/simtime/src/a.rs", live)], "");
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn p8_blocking_inside_async_bodies_is_flagged() {
    let src = r#"
impl CommandQueue {
    fn new(clock: &SimClock, shared: Arc<Shared>) {
        clock.spawn_task("queue:q", "queue executor", move |task| async move {
            shared.event.wait(&task);
            shared.actor.block_on("nested", other());
        });
    }
}
async fn execute(shared: Arc<Shared>, a: &Actor) {
    shared.chan.recv();
}
"#;
    let out = diags(
        pass_actor_hygiene,
        &[("crates/minicl/src/queue.rs", src)],
        "",
    );
    assert_eq!(out.len(), 3, "{out:?}");
    assert!(out[0].msg.contains("`wait(`") && out[0].msg.contains("`async block`"));
    assert!(out[1].msg.contains("`block_on(`"), "{}", out[1].msg);
    assert!(out[2].msg.contains("`async fn execute`"), "{}", out[2].msg);
}

#[test]
fn p8_awaiting_inside_async_bodies_is_clean() {
    let src = r#"
impl CommandQueue {
    fn new(clock: &SimClock, shared: Arc<Shared>) {
        clock.spawn_task("queue:q", "queue executor", move |_| async move {
            let cmd = until(|| shared.chan.try_recv()).await;
            shared.clock.sleep_until(cmd.end).await;
        });
    }
    // Not an async body: the thread driver blocks here on purpose.
    fn fence(&self, actor: &Actor) {
        actor.block_on("rma fence", self.clone().fence_async());
    }
}
async fn execute(shared: Arc<Shared>) {
    let deps = until(|| shared.deps()).await;
    execute_inner(deps).await;
}
"#;
    let out = diags(
        pass_actor_hygiene,
        &[("crates/minicl/src/queue.rs", src)],
        "",
    );
    assert!(out.is_empty(), "{out:?}");
}

#[test]
fn p1_and_p2_count_block_on_as_blocking() {
    let src = r#"
fn f(a: &Actor, fut: Fence) {
    a.block_on("rma fence", fut);
}
"#;
    let engine = diags(
        pass_nonblocking_engine,
        &[("crates/clmpi/src/engine.rs", src)],
        "",
    );
    assert_eq!(engine.len(), 1, "{engine:?}");
    assert!(engine[0].msg.contains(".block_on("), "{}", engine[0].msg);
    let runtime = diags(
        pass_blocking_markers,
        &[("crates/clmpi/src/runtime.rs", src)],
        "",
    );
    assert_eq!(runtime.len(), 1, "{runtime:?}");
    assert!(runtime[0].msg.contains(".block_on("), "{}", runtime[0].msg);
}
