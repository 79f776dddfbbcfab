//! A blocked rank wakes once per message. A blocking receive parks on its
//! rank's arrival key, which is alarmed at the instant a delivered message
//! becomes visible — not on the rank's matching state, whose notify at
//! *grant* time woke the thread a first time only to find the message
//! still in flight (exactly two parks per completed receive, at every
//! world size, until the arrival key existed).

use minimpi::{run_world_faulty, FaultPlan, WorldResult};
use simnet::ClusterSpec;
use simtime::SimNs;

const RANKS: usize = 64;

/// Four staggered barriers (six dissemination rounds each at 64 ranks),
/// then one ring `sendrecv` of a page.
fn barriers_then_a_ring() -> WorldResult<SimNs> {
    run_world_faulty(ClusterSpec::ricc(), RANKS, FaultPlan::none(), |p| {
        let (a, me, n) = (&p.actor, p.rank(), p.size());
        for round in 0..4u64 {
            p.host_compute_ns(1_000 * ((me as u64 + round) % 7 + 1));
            p.comm.barrier(a);
        }
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        let got = p
            .comm
            .sendrecv(a, next, 9, &[me as u8; 4096], Some(prev), Some(9));
        assert_eq!(got.data, vec![prev as u8; 4096]);
        a.now_ns()
    })
}

#[test]
fn a_blocked_receive_parks_once_per_message() {
    let res = barriers_then_a_ring();
    assert_eq!(
        res.elapsed_ns, 1_656_151,
        "the committed makespan (the thread-per-machine executor reproduced it \
         before it was retired) — who is woken never moves an instant"
    );
    let recv = res.wake.labels.get("mpi recv").copied().unwrap_or_default();
    // Of 4 × 6 × 64 barrier receives and 64 ring receives; those whose
    // message was already there never park.
    assert!(recv.successes >= 1_000, "{recv:?}");
    // What is left above one park per success is the receive the
    // fabric arbiter's grant alarm picked to pump for everybody.
    assert!(
        recv.parked <= recv.successes + recv.successes / 4,
        "`mpi recv` parked {} times for {} successes",
        recv.parked,
        recv.successes
    );
    // Every park of a run is counted: the ranks' compute phases and
    // the `advance_until(done_at)` that ends a blocking send.
    let sleep = res.wake.labels.get("sleep").copied().unwrap_or_default();
    assert!(sleep.parked >= 4 * RANKS as u64, "{sleep:?}");
    assert_eq!(
        (sleep.wakeups, sleep.successes),
        (sleep.parked, sleep.parked)
    );
}
