//! A blocked rank wakes once per message. A blocking receive parks on its
//! rank's arrival key, which is alarmed at the instant a delivered message
//! becomes visible — not on the rank's matching state, whose notify at
//! *grant* time woke the thread a first time only to find the message
//! still in flight (exactly two parks per completed receive, at every
//! world size, until the arrival key existed) — and nothing else: the
//! clock grants the fabric's reservations itself, so no receive is woken
//! to do it for everybody. A barrier parks its rank thread once: its
//! rounds run as a machine, which no receive of theirs parks.

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

/// Two ranks trade 64 bytes a hundred times: every receive parks.
fn ping_pong() -> WorldResult<SimNs> {
    run_world_faulty(ClusterSpec::cichlid(), 2, FaultPlan::none(), |p| {
        let (a, peer) = (&p.actor, 1 - p.rank());
        for _ in 0..100 {
            if p.rank() == 1 {
                p.comm.recv(a, Some(peer), Some(3));
            }
            p.comm.send(a, peer, 3, &[7u8; 64]);
            if p.rank() == 0 {
                p.comm.recv(a, Some(peer), Some(3));
            }
        }
        a.now_ns()
    })
}

#[test]
fn a_blocked_receive_parks_once_per_message() {
    // (world, its committed makespan, barrier parks, receives that park
    // at least, sleeps at least). A barrier's rounds run as a machine, so
    // its rank thread parks on `barrier` exactly once per barrier and its
    // round receives park no thread; of the 64 ring receives, those whose
    // message was already there would not park. Every sleep of a run is
    // counted: the ranks' compute phases and the `advance_until(done_at)`
    // that ends a blocking send.
    let worlds = [
        (
            "barriers then a ring",
            barriers_then_a_ring(),
            1_656_151,
            4 * RANKS as u64,
            RANKS as u64,
            4 * RANKS as u64,
        ),
        ("ping-pong", ping_pong(), 16_109_000, 0, 200, 200),
    ];
    for (world, res, makespan, barriers, receives, sleeps) in worlds {
        assert_eq!(
            res.elapsed_ns, makespan,
            "{world}: the committed makespan — who is woken never moves an instant"
        );
        let barrier = res.wake.labels.get("barrier").copied().unwrap_or_default();
        assert_eq!(
            (barrier.parked, barrier.wakeups, barrier.successes),
            (barriers, barriers, barriers),
            "{world}: a barrier parks its rank thread once"
        );
        let recv = res.wake.labels.get("mpi recv").copied().unwrap_or_default();
        assert!(recv.successes >= receives, "{world}: {recv:?}");
        assert_eq!(
            (recv.parked, recv.wakeups),
            (recv.successes, recv.successes),
            "{world}: `mpi recv` parks and wakes once per message"
        );
        let sleep = res.wake.labels.get("sleep").copied().unwrap_or_default();
        assert!(sleep.parked >= sleeps, "{world}: {sleep:?}");
        assert_eq!(
            (sleep.wakeups, sleep.successes),
            (sleep.parked, sleep.parked)
        );
    }
}
