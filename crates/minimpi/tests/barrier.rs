//! The dissemination barrier's exit instants, and what a barrier that
//! can never complete reports.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use minimpi::{run_world_faulty, run_world_sized, FaultPlan};
use simnet::ClusterSpec;
use simtime::SimNs;

/// Each rank computes for a rank-dependent stretch, enters a barrier,
/// computes again and enters a second barrier on another sub-tag.
/// Returns both exit instants per rank.
fn staggered_barriers(n: usize) -> Vec<(SimNs, SimNs)> {
    let res = run_world_sized(ClusterSpec::ricc(), n, |p| {
        let r = p.rank() as u64;
        p.host_compute_ns(((r * 37) % 11 + 1) * 1_300);
        p.comm.barrier(&p.actor);
        let first = p.actor.now_ns();
        p.host_compute_ns((r * 13) % 5 * 2_000);
        p.comm.barrier_tagged(&p.actor, 2);
        (first, p.actor.now_ns())
    });
    res.outputs
}

#[test]
fn barrier_exit_instants_match_the_recorded_table() {
    // (ranks, first barrier's earliest and latest exit, second barrier's
    // earliest and latest exit, Σ of every exit instant), recorded from
    // the blocking form the barrier machine replaced.
    const TABLE: [(usize, [SimNs; 5]); 6] = [
        (1, [1_300, 1_300, 1_300, 1_300, 2_600]),
        (2, [66_300, 71_500, 136_500, 137_300, 411_600]),
        (3, [131_300, 141_700, 261_300, 273_700, 1_217_000]),
        (5, [196_300, 206_700, 392_600, 405_700, 3_004_800]),
        (8, [196_300, 208_000, 393_300, 407_700, 4_819_800]),
        (64, [391_300, 404_300, 781_300, 802_300, 76_134_400]),
    ];
    let measured: Vec<(usize, [SimNs; 5])> = TABLE
        .iter()
        .map(|&(n, _)| {
            let exits = staggered_barriers(n);
            let firsts = exits.iter().map(|e| e.0);
            let seconds = exits.iter().map(|e| e.1);
            let row = [
                firsts.clone().min().unwrap_or_default(),
                firsts.max().unwrap_or_default(),
                seconds.clone().min().unwrap_or_default(),
                seconds.max().unwrap_or_default(),
                exits.iter().map(|e| e.0 + e.1).sum(),
            ];
            (n, row)
        })
        .collect();
    assert_eq!(
        measured, TABLE,
        "barrier exit instants moved; measured:\n{measured:?}"
    );
}

#[test]
fn a_barrier_with_a_dead_peer_ends_in_the_deadlock_report() {
    // Rank 1's node is down from the start and it never enters the
    // barrier, so ranks 0, 2 and 3 wait on a round that cannot finish.
    let (tx, rx) = mpsc::channel();
    let watched = std::thread::spawn(move || {
        let (report_tx, reports) = mpsc::channel();
        let plan = FaultPlan::none().with_node_down(1, 0);
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_world_faulty(ClusterSpec::cichlid(), 4, plan, move |p| {
                // Whichever rank settles the last round declares the
                // deadlock, rank 1 too: its actor's drop is a settle point.
                let body = move || {
                    if p.rank() != 1 {
                        p.comm.barrier(&p.actor);
                    }
                };
                if let Err(e) = catch_unwind(AssertUnwindSafe(body)) {
                    let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
                    let _ = report_tx.send(msg);
                    resume_unwind(e);
                }
            })
        }));
        // The launcher re-raises the first rank's panic without joining
        // the rest; the reports are in once every rank has let go of its
        // sender.
        let reports: Vec<String> = reports.iter().collect();
        let _ = tx.send((run.is_err(), reports.join("\n")));
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60));
    assert!(
        outcome.is_ok(),
        "a barrier with a dead peer hung instead of reporting a deadlock"
    );
    let (failed, reports) = outcome.unwrap_or_default();
    assert!(
        watched.join().is_ok(),
        "the watched thread ends once it sent"
    );
    assert!(failed, "the world must not complete");
    assert!(
        reports.contains("no alarm can advance"),
        "no rank saw the deadlock report:\n{reports}"
    );
    // The ranks that entered are parked on their barrier's machine, and
    // the machine on the dead peer's message.
    for r in [0, 2, 3] {
        assert!(
            reports.contains(&format!("barrier:r{r} ")),
            "the report names rank {r}'s barrier machine:\n{reports}"
        );
    }
}
