//! Cross-function lock-acquisition summaries and the lock-order graph.
//!
//! The `lock-lifetime` pass ([`crate::flow`]) sees one function body at a
//! time, so a guard held across a *call* into another function that takes
//! a second lock is invisible to it. This module closes that gap one
//! level deep, which is as far as a name-based analysis stays honest:
//!
//! 1. Every `fn` in the library crates gets a [`FnSummary`]: the named
//!    locks it acquires lexically (`state`, `slab`, `defer`, …,
//!    qualified by crate), and the workspace functions it calls directly.
//! 2. For each guard span, every lock acquired — lexically or via a
//!    direct callee's summary — while the guard is live becomes an edge
//!    `held → acquired` in the **lock-order graph**.
//! 3. A cycle in that graph is a deadlock candidate: two threads taking
//!    the same pair of locks in opposite orders. Each strongly-connected
//!    component with a cycle is reported once, with example sites.
//!
//! Names, not instances: two `Mutex` fields both called `state` in
//! different crates are distinguished (`simtime:state` vs
//! `clmpi:state`); two instances of the *same* field are not — a
//! self-edge (`state → state`) is therefore only reported when it is
//! lexically certain (a nested `.lock()` on the same name inside one
//! function), never via call propagation, where "the other instance's
//! lock" is the common benign case.
//!
//! `try_lock` never appears on the *acquired* side of an edge: it cannot
//! wait, so it cannot complete a deadlock cycle — it is exactly the
//! cycle-breaking primitive (the clock's deadlock reporter uses it to
//! peek at the slab from inside the state lock). It still counts on
//! the *held* side.

use std::collections::{BTreeMap, BTreeSet};

use crate::flow::{call_takes_name, guard_spans};
use crate::workspace::{SourceFile, Workspace};

/// What one function does to locks, lexically.
#[derive(Debug, Default, Clone)]
pub struct FnSummary {
    pub krate: String,
    pub file: String,
    pub name: String,
    pub line: u32,
    /// Qualified names of locks this function acquires *blockingly*
    /// (`.lock()`, not `.try_lock()`), with a representative line.
    pub locks: BTreeMap<String, u32>,
    /// Names of functions called directly (resolved against the
    /// workspace symbol table later; std/method noise drops out there).
    pub calls: BTreeSet<String>,
}

/// One `held → acquired` edge with provenance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub held: String,
    pub acquired: String,
    pub file: String,
    pub line: u32,
    /// Empty for a lexical nested lock; the callee name when the
    /// acquisition came from a one-level call summary.
    pub via: String,
}

/// Qualify a lock name by its owning crate: `state` → `simtime:state`.
fn qualify(krate: &str, lock: &str) -> String {
    format!("{krate}:{lock}")
}

/// Build per-function summaries for every non-test `fn` in the corpus.
pub fn summaries(ws: &Workspace) -> Vec<FnSummary> {
    let mut out = Vec::new();
    for f in ws.files.iter().filter(|f| !f.in_tests_dir) {
        for def in f.fn_defs() {
            if f.is_test_token(def.body.0) {
                continue;
            }
            let mut s = FnSummary {
                krate: f.krate.clone(),
                file: f.path.clone(),
                name: def.name.clone(),
                line: def.line,
                ..FnSummary::default()
            };
            for g in guard_spans(f, def.body) {
                if !g.non_blocking {
                    s.locks
                        .entry(qualify(&f.krate, &g.lock_name))
                        .or_insert(g.line);
                }
            }
            for idx in def.body.0..def.body.1 {
                if let Some(name) = call_name(f, idx) {
                    s.calls.insert(name.to_string());
                }
            }
            out.push(s);
        }
    }
    out
}

/// The callee name when `idx` is a call site (`name(` or `.name(`),
/// excluding definitions (`fn name(`) and macro calls (`name!(`).
fn call_name(f: &SourceFile, idx: usize) -> Option<&str> {
    use crate::lexer::Tok;
    let Tok::Ident(name) = f.tok(idx) else {
        return None;
    };
    if matches!(f.prev_code(idx).map(|i| f.tok(i)), Some(Tok::Ident(k)) if k == "fn") {
        return None;
    }
    match f.next_code(idx + 1).map(|i| f.tok(i)) {
        Some(Tok::Punct('(')) => Some(name.as_str()),
        _ => None,
    }
}

/// Collect every `held → acquired` edge in the workspace. Edges whose
/// acquisition site carries `// checker-allow(lock-order): <why>` (on
/// the nested lock / call token, or on the guard's own `.lock()` line)
/// are dropped before cycle detection.
pub fn edges(ws: &Workspace) -> Vec<Edge> {
    const PASS: &str = "lock-order";
    let sums = summaries(ws);
    // Symbol table: bare fn name → union of the summaries sharing it.
    // A call site only names the method, so same-named fns all apply —
    // conservative, and exactly why propagation stops at one level.
    let mut by_name: BTreeMap<&str, Vec<&FnSummary>> = BTreeMap::new();
    for s in &sums {
        by_name.entry(s.name.as_str()).or_default().push(s);
    }
    let mut out = Vec::new();
    for f in ws.files.iter().filter(|f| !f.in_tests_dir) {
        for def in f.fn_defs() {
            if f.is_test_token(def.body.0) {
                continue;
            }
            for g in guard_spans(f, def.body) {
                let held = qualify(&f.krate, &g.lock_name);
                let span = (g.lock_idx + 1)..g.end.min(f.tokens.len());
                for idx in span {
                    if f.allowed_at(idx, PASS) || f.allowed_at(g.lock_idx, PASS) {
                        continue;
                    }
                    let line = f.tokens[idx].line;
                    // Lexical nested blocking lock inside the span.
                    if idx != g.lock_idx && f.method_call_at(idx, &["lock"]).is_some() {
                        out.push(Edge {
                            held: held.clone(),
                            acquired: qualify(&f.krate, &crate::flow::lock_receiver_name(f, idx)),
                            file: f.path.clone(),
                            line,
                            via: String::new(),
                        });
                        continue;
                    }
                    // One-level propagation through a direct call. A call
                    // that receives the guard itself (condvar handoff)
                    // releases the lock while inside — no edge.
                    let Some(callee) = call_name(f, idx) else {
                        continue;
                    };
                    if call_takes_name(f, idx, g.name.as_deref()) {
                        continue;
                    }
                    // A call sharing the enclosing function's name is —
                    // name-blindly — a union with *this* function, whose
                    // own locks would echo back as phantom edges (e.g.
                    // `resolve` delegating to `cfg.resolve(…)`). Skip it;
                    // true one-level recursion adds nothing new anyway.
                    if callee == def.name {
                        continue;
                    }
                    for target in by_name.get(callee).map_or(&[][..], |v| &v[..]) {
                        for acquired in target.locks.keys() {
                            // Same-name-via-call is the benign
                            // other-instance case; see module docs.
                            if *acquired == held {
                                continue;
                            }
                            out.push(Edge {
                                held: held.clone(),
                                acquired: acquired.clone(),
                                file: f.path.clone(),
                                line,
                                via: callee.to_string(),
                            });
                        }
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// One reported cycle: the locks involved (sorted), plus one example
/// edge per step for the diagnostic.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub locks: Vec<String>,
    pub example: Vec<Edge>,
}

/// Find cycles in the lock-order graph: strongly-connected components
/// with more than one node, plus single nodes with a self-edge.
pub fn cycles(edges: &[Edge]) -> Vec<Cycle> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut radj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        nodes.insert(&e.held);
        nodes.insert(&e.acquired);
        adj.entry(&e.held).or_default().insert(&e.acquired);
        radj.entry(&e.acquired).or_default().insert(&e.held);
    }
    // Kosaraju: forward DFS finish order, then reverse-graph DFS.
    let mut order: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &start in &nodes {
        if seen.contains(start) {
            continue;
        }
        // Iterative post-order.
        let mut stack: Vec<(&str, bool)> = vec![(start, false)];
        while let Some((n, done)) = stack.pop() {
            if done {
                order.push(n);
                continue;
            }
            if !seen.insert(n) {
                continue;
            }
            stack.push((n, true));
            for &m in adj.get(n).into_iter().flatten() {
                if !seen.contains(m) {
                    stack.push((m, false));
                }
            }
        }
    }
    let mut comp: BTreeMap<&str, usize> = BTreeMap::new();
    let mut ncomp = 0usize;
    for &start in order.iter().rev() {
        if comp.contains_key(start) {
            continue;
        }
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            if comp.contains_key(n) {
                continue;
            }
            comp.insert(n, ncomp);
            for &m in radj.get(n).into_iter().flatten() {
                if !comp.contains_key(m) {
                    stack.push(m);
                }
            }
        }
        ncomp += 1;
    }
    let mut groups: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for (&n, &c) in &comp {
        groups.entry(c).or_default().push(n);
    }
    let mut out = Vec::new();
    for (_, members) in groups {
        let cyclic = members.len() > 1
            || members
                .iter()
                .any(|&n| adj.get(n).is_some_and(|s| s.contains(n)));
        if !cyclic {
            continue;
        }
        let set: BTreeSet<&str> = members.iter().copied().collect();
        let example: Vec<Edge> = edges
            .iter()
            .filter(|e| set.contains(e.held.as_str()) && set.contains(e.acquired.as_str()))
            .cloned()
            .collect();
        out.push(Cycle {
            locks: members.iter().map(|s| s.to_string()).collect(),
            example,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(sources, "")
    }

    #[test]
    fn lexical_nested_lock_makes_an_edge() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn f(&self) {\n    let g = self.alpha.lock();\n    self.beta.lock().push(1);\n}\n",
        )]);
        let es = edges(&w);
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].held, "simtime:alpha");
        assert_eq!(es[0].acquired, "simtime:beta");
        assert!(es[0].via.is_empty());
    }

    #[test]
    fn call_propagation_is_one_level() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn helper(&self) {\n    self.beta.lock().push(1);\n}\n\
             fn deeper(&self) {\n    self.gamma.lock().push(1);\n}\n\
             fn indirect(&self) {\n    self.deeper();\n}\n\
             fn f(&self) {\n    let g = self.alpha.lock();\n    self.helper();\n    self.indirect();\n}\n",
        )]);
        let es = edges(&w);
        let pairs: Vec<(String, String)> = es
            .iter()
            .map(|e| (e.held.clone(), e.acquired.clone()))
            .collect();
        assert!(pairs.contains(&("simtime:alpha".into(), "simtime:beta".into())));
        assert!(
            !pairs.iter().any(|(_, a)| a == "simtime:gamma"),
            "two-level propagation must not happen: {pairs:?}"
        );
    }

    #[test]
    fn opposite_orders_form_a_reported_cycle() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn f(&self) {\n    let g = self.alpha.lock();\n    self.beta.lock().push(1);\n}\n\
             fn h(&self) {\n    let g = self.beta.lock();\n    self.alpha.lock().push(1);\n}\n",
        )]);
        let cs = cycles(&edges(&w));
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].locks, vec!["simtime:alpha", "simtime:beta"]);
        assert_eq!(cs[0].example.len(), 2);
    }

    #[test]
    fn try_lock_breaks_the_cycle() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn f(&self) {\n    let g = self.alpha.lock();\n    self.beta.lock().push(1);\n}\n\
             fn h(&self) {\n    let g = self.beta.lock();\n    if let Some(a) = self.alpha.try_lock() {\n        use_it(a);\n    }\n}\n",
        )]);
        assert!(
            cycles(&edges(&w)).is_empty(),
            "try_lock cannot complete a deadlock cycle"
        );
    }

    #[test]
    fn allow_marker_drops_the_edge() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn f(&self) {\n    let g = self.alpha.lock();\n    // checker-allow(lock-order): beta is leaf-ordered after alpha by construction\n    self.beta.lock().push(1);\n}\n\
             fn h(&self) {\n    let g = self.beta.lock();\n    self.alpha.lock().push(1);\n}\n",
        )]);
        assert!(cycles(&edges(&w)).is_empty());
    }

    #[test]
    fn condvar_handoff_creates_no_call_edge() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn waiter(&self) {\n    let mut st = self.state.lock();\n    st = self.cv_wait(st);\n}\n\
             fn cv_wait(&self, st: G) -> G {\n    self.other.lock().push(1);\n    st\n}\n",
        )]);
        // `cv_wait` receives the guard `st`, so no `state → other` edge.
        assert!(edges(&w)
            .iter()
            .all(|e| !(e.held == "simtime:state" && e.acquired == "simtime:other")));
    }

    #[test]
    fn same_named_delegation_does_not_echo_own_locks() {
        // `resolve` holding a guard while calling `cfg.resolve(…)` must
        // not union with itself and report its own other locks as edges.
        let w = ws(&[(
            "crates/clmpi/src/a.rs",
            "fn resolve(&self) -> u32 {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    self.cfg.resolve(1)\n}\n",
        )]);
        assert!(
            edges(&w).iter().all(|e| e.via.is_empty()),
            "no call-propagated edges through the fn's own name"
        );
    }

    #[test]
    fn same_name_via_call_is_not_a_self_edge() {
        let w = ws(&[(
            "crates/simtime/src/a.rs",
            "fn now(&self) -> u64 {\n    self.state.lock().now\n}\n\
             fn f(&self, peer: &Self) {\n    let g = self.state.lock();\n    peer.now();\n}\n",
        )]);
        assert!(
            cycles(&edges(&w)).is_empty(),
            "other-instance state lock must not self-cycle"
        );
    }
}
