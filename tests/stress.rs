//! Stress and failure-injection tests across the stack.

use std::sync::Arc;

use clmpi_repro::clmpi::{ClMpi, ObsSummary, PeerSelector, SystemConfig, TransferStrategy};
use clmpi_repro::minimpi::{run_world_sized, ANY_SOURCE, ANY_TAG};
use clmpi_repro::simtime::XorShift64;

#[test]
fn forty_rank_world_smoke() {
    // The largest configuration Fig. 10 uses: 40 ranks, all-to-root
    // traffic, with a clMPI runtime per rank.
    let res = run_world_sized(SystemConfig::ricc().cluster.clone(), 40, |p| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let _buf = rt.context().create_buffer(4096);
        if p.rank() == 0 {
            for _ in 1..40 {
                let r = p.comm.recv(&p.actor, ANY_SOURCE, ANY_TAG);
                assert_eq!(r.data.len(), 8);
            }
        } else {
            p.comm
                .send(&p.actor, 0, p.rank() as i32, &[p.rank() as u8; 8]);
        }
        // And one local device command each to exercise 40 executors.
        q.enqueue_kernel("noop", 1_000, &[], || {}).wait(&p.actor);
        rt.shutdown(&p.actor);
        p.rank()
    });
    assert_eq!(res.outputs.len(), 40);
}

#[test]
fn random_traffic_storm_terminates_and_delivers() {
    // 6 ranks exchange a deterministic random pattern of ~120 messages
    // with mixed sizes/tags; every byte must arrive, nothing may hang.
    let res = run_world_sized(SystemConfig::cichlid().cluster.clone(), 4, |p| {
        let n = p.size();
        let me = p.rank();
        let mut rng = XorShift64::new(99);
        // Every rank derives the same global plan: (src, dst, tag, len).
        let plan: Vec<(usize, usize, i32, usize)> = (0..120)
            .map(|i| {
                let src = rng.gen_range_usize(0, n);
                let mut dst = rng.gen_range_usize(0, n);
                if dst == src {
                    dst = (dst + 1) % n;
                }
                (src, dst, i, rng.gen_range_usize(1, 20_000))
            })
            .collect();
        let mut recvs = Vec::new();
        for &(src, dst, tag, len) in &plan {
            if dst == me {
                recvs.push((src, tag, len, p.comm.irecv(&p.actor, Some(src), Some(tag))));
            }
            if src == me {
                let _ = p.comm.isend(&p.actor, dst, tag, &vec![tag as u8; len]);
            }
        }
        let mut bytes = 0usize;
        for (_, tag, len, req) in recvs {
            let r = req.wait(&p.actor).expect("recv yields payload");
            assert_eq!(r.data.len(), len);
            assert!(r.data.iter().all(|&b| b == tag as u8));
            bytes += len;
        }
        bytes
    });
    let total: usize = res.outputs.iter().sum();
    assert!(total > 0, "some traffic flowed");
}

#[test]
fn deadlocked_program_is_detected_not_hung() {
    // Two ranks both blocking-receive first: a real deadlock. The engine
    // must detect and report it (propagated as a rank panic), not hang.
    let result = std::panic::catch_unwind(|| {
        run_world_sized(SystemConfig::cichlid().cluster.clone(), 2, |p| {
            let peer = 1 - p.rank();
            let _ = p.comm.recv(&p.actor, Some(peer), Some(1)); // both block
            p.comm.send(&p.actor, peer, 1, &[0]);
        });
    });
    assert!(result.is_err(), "deadlock detected and reported");
}

#[test]
fn rank_panic_poisons_world_quickly() {
    let result = std::panic::catch_unwind(|| {
        run_world_sized(SystemConfig::cichlid().cluster.clone(), 3, |p| {
            if p.rank() == 1 {
                panic!("injected fault");
            }
            // Other ranks would block forever without poisoning.
            let _ = p.comm.recv(&p.actor, Some(1), Some(1));
        });
    });
    assert!(result.is_err(), "fault propagated to the caller");
}

#[test]
fn many_small_transfers_through_one_runtime() {
    // 200 tagged transfers through one clMPI runtime pair: exercises the
    // per-command runtime-thread lifecycle and the shutdown barrier.
    let res = run_world_sized(SystemConfig::ricc().cluster.clone(), 2, |p| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(256);
        let mut events = Vec::new();
        for i in 0..200 {
            let e = if p.rank() == 0 {
                rt.enqueue_send_buffer(&q, &buf, false, 0, 256, 1, i, &[], &p.actor)
            } else {
                rt.enqueue_recv_buffer(&q, &buf, false, 0, 256, 0, i, &[], &p.actor)
            }
            .expect("enqueue");
            events.push(e);
        }
        for e in &events {
            e.wait(&p.actor);
        }
        rt.shutdown(&p.actor);
        events.len()
    });
    assert_eq!(res.outputs, vec![200, 200]);
}

#[test]
fn world_16_mixed_rma_and_two_sided_converges_per_peer() {
    // A full CXL pod machine (16 ranks, pods of 4) running a mixed
    // workload: every round each rank puts 1 MiB into a co-located pod
    // neighbor's window AND into a cross-pod peer's window, plus a
    // 64 KiB two-sided ring exchange. With a per-(peer, size)
    // [`PeerSelector`] armed, the adaptive layer must converge to the
    // shared-segment path for the in-pod peer and a NIC-side strategy
    // for the cross-pod one — the wires genuinely differ, so a single
    // global winner would be wrong for one of the two.
    // Alternate the put target between rounds: a strategy being explored
    // for the co-located peer is NIC-routed too (Pinned/Mapped force the
    // NIC regardless of fabric class), so putting to both peers in one
    // round would double the NIC load exactly in the non-Rma exploration
    // rounds and bias the remote comparison. With one put class per
    // round every candidate is measured under the same background load.
    const ROUNDS: usize = 10; // 5 colo + 5 remote: 4 to explore, then locked
    const RMA_SIZE: usize = 1 << 20;
    const P2P_SIZE: usize = 64 << 10;
    let sys = SystemConfig::cxl_pod();
    let pod = sys.cluster.cxl.as_ref().expect("cxl fabric").pool_nodes;
    let sys2 = sys.clone();
    let res = run_world_sized(sys.cluster.clone(), 16, move |p| {
        let n = p.size();
        let me = p.rank();
        let colo = (me / pod) * pod + ((me % pod) + 1) % pod;
        let remote = (me + pod) % n;
        let rt = ClMpi::new(&p, sys2.clone());
        let sel = Arc::new(PeerSelector::for_system(&sys2));
        rt.set_rma_adaptive(Some(sel.clone()));
        let q = rt.context().create_queue(0, format!("r{me}"));
        let buf = rt.context().create_buffer(RMA_SIZE);
        let p2p = rt.context().create_buffer(P2P_SIZE);
        let win = rt
            .expose_buffer_as_window(&buf, RMA_SIZE, &p.actor)
            .expect("window");
        p.comm.barrier(&p.actor);
        for round in 0..ROUNDS {
            let tag = round as i32;
            let mut gate = Vec::new();
            // Two-sided ring traffic rides alongside the one-sided
            // epoch on disjoint tags.
            let rv = rt
                .enqueue_recv_buffer(
                    &q,
                    &p2p,
                    false,
                    0,
                    P2P_SIZE,
                    (me + n - 1) % n,
                    tag,
                    &[],
                    &p.actor,
                )
                .expect("ring recv");
            let sd = rt
                .enqueue_send_buffer(
                    &q,
                    &p2p,
                    false,
                    0,
                    P2P_SIZE,
                    (me + 1) % n,
                    tag,
                    &[],
                    &p.actor,
                )
                .expect("ring send");
            let target = if round % 2 == 0 { colo } else { remote };
            let e = rt
                .enqueue_put_buffer(&q, &win, false, 0, 0, RMA_SIZE, target, &[], &p.actor)
                .expect("put");
            gate.push(e);
            gate.push(rv);
            gate.push(sd);
            let f = rt
                .enqueue_win_fence(&win, false, &gate, &p.actor)
                .expect("fence");
            f.wait_result(&p.actor).expect("round fence");
        }
        let verdict = (
            sel.winner_for((colo, RMA_SIZE)),
            sel.winner_for((remote, RMA_SIZE)),
        );
        rt.shutdown(&p.actor);
        verdict
    });
    for (rank, &(colo_winner, remote_winner)) in res.outputs.iter().enumerate() {
        assert_eq!(
            colo_winner,
            Some(TransferStrategy::Rma),
            "rank {rank}: co-located peer must converge to the shared segment"
        );
        let rw = remote_winner.unwrap_or_else(|| {
            panic!("rank {rank}: remote winner must be locked after {ROUNDS} rounds")
        });
        assert_ne!(
            rw,
            TransferStrategy::Rma,
            "rank {rank}: cross-pod RMA is NIC-routed and must lose to a NIC-side strategy"
        );
    }
    // Every rank moved one one-sided MiB per round and ROUNDS two-sided
    // ring messages; the observability layer keeps the two volumes apart.
    let s = ObsSummary::from_trace(&res.trace);
    for rank in 0..16 {
        let r = &s.ranks[&rank];
        assert_eq!(
            r.rma_bytes,
            (ROUNDS * RMA_SIZE) as u64,
            "rank {rank}: one-sided payload volume"
        );
        assert_eq!(
            r.bytes_sent,
            (ROUNDS * P2P_SIZE) as u64,
            "rank {rank}: two-sided ring volume"
        );
        assert_eq!(r.ops_failed, 0, "rank {rank}: clean run");
    }
}
