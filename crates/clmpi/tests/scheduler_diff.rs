//! World-level differential suite for the event-driven scheduler: the
//! thread-per-actor oracle ([`ExecMode::Threads`]) and the event
//! core ([`ExecMode::Events`]) must produce **byte-identical**
//! observability fingerprints and virtual makespans for the same
//! scenario. Three matrices:
//!
//! * clean runs at worlds {2, 3, 5, 8, 13} × 16 seeds (kernel → halo
//!   exchange → broadcast → allreduce),
//! * lossy-fabric runs (2% data-plane drops) with retries in play,
//! * the PR 6 rank-kill recovery scenario (kill → agree → shrink →
//!   resume) on a lossy fabric.

use clmpi::{data_plane_faults, ClMpi, CollAlgo, ObsSummary, ReduceOp, SystemConfig};
use minimpi::{run_world_faulty_mode, FaultPlan, Process};
use simtime::{ExecMode, SimNs, XorShift64};

const ALGOS: [CollAlgo; 3] = [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring];

/// Agreement patience for shrink after a plan-scheduled kill (virtual).
const PATIENCE: SimNs = 5_000_000_000;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// One clean seeded workload: a seeded warm-up kernel, a ring halo
/// exchange gated on it, a broadcast with seeded root/algorithm, and an
/// allreduce. Returns (ObsSummary hash, virtual makespan).
fn clean_fingerprint(mode: ExecMode, world: usize, seed: u64) -> (u64, SimNs) {
    const SIZE: usize = 2048;
    let res = run_world_faulty_mode(
        SystemConfig::ricc().cluster.clone(),
        world,
        FaultPlan::none(),
        mode,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let mut rng =
                XorShift64::new(seed ^ (p.rank() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let buf = rt.context().create_buffer(SIZE);
            buf.store(0, &pattern(SIZE, seed + p.rank() as u64))
                .unwrap();
            let k = q.enqueue_kernel("warmup", rng.gen_range_u64(10_000, 200_000), &[], || {});
            let up = (p.rank() + 1) % world;
            let dn = (p.rank() + world - 1) % world;
            let es = rt
                .enqueue_send_buffer(
                    &q,
                    &buf,
                    false,
                    0,
                    SIZE / 2,
                    up,
                    1,
                    std::slice::from_ref(&k),
                    &p.actor,
                )
                .unwrap();
            let er = rt
                .enqueue_recv_buffer(&q, &buf, false, SIZE / 2, SIZE / 2, dn, 1, &[], &p.actor)
                .unwrap();
            es.wait_result(&p.actor).unwrap();
            er.wait_result(&p.actor).unwrap();
            let root = (seed as usize) % world;
            let algo = ALGOS[(seed as usize / world) % ALGOS.len()];
            rt.enqueue_bcast_buffer_as(&q, &buf, 0, SIZE, root, 2, algo, 512, &[], &p.actor)
                .unwrap()
                .wait_result(&p.actor)
                .unwrap();
            rt.enqueue_allreduce_buffer(&q, &buf, 0, SIZE / 8, ReduceOp::Sum, 3, &[], &p.actor)
                .unwrap()
                .wait_result(&p.actor)
                .unwrap();
            q.finish(&p.actor);
            rt.shutdown(&p.actor);
        },
    );
    (ObsSummary::from_trace(&res.trace).hash(), res.elapsed_ns)
}

/// Worlds {2, 3, 5, 8, 13} × 16 seeds: the event core must reproduce the
/// thread-per-actor oracle exactly — same ObsSummary hash (every span
/// and op instant) and same virtual makespan.
#[test]
fn clean_worlds_fingerprint_identical_thread_vs_event() {
    for world in [2usize, 3, 5, 8, 13] {
        for seed in 0..16u64 {
            let (ht, et) = clean_fingerprint(ExecMode::Threads, world, seed);
            let (he, ee) = clean_fingerprint(ExecMode::Events, world, seed);
            assert_eq!(
                ht, he,
                "ObsSummary diverges at world={world} seed={seed} (oracle {et} ns vs event {ee} ns)"
            );
            assert_eq!(et, ee, "makespan diverges at world={world} seed={seed}");
        }
    }
}

/// Lossy fabric (2% data-plane drops): retries, timeouts and fault spans
/// must land at the same virtual instants in both modes.
fn lossy_fingerprint(mode: ExecMode, seed: u64) -> (u64, SimNs) {
    const COUNT: usize = 512;
    let plan = data_plane_faults(FaultPlan::drops(seed, 0.02));
    let res = run_world_faulty_mode(
        SystemConfig::ricc().cluster.clone(),
        4,
        plan,
        mode,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let vals: Vec<f64> = (0..COUNT).map(|i| (p.rank() + i) as f64).collect();
            let buf = rt.context().create_buffer(COUNT * 8);
            for _ in 0..4 {
                buf.store(0, minimpi::datatype::f64_as_bytes(&vals))
                    .unwrap();
                rt.enqueue_allreduce_buffer(&q, &buf, 0, COUNT, ReduceOp::Sum, 4, &[], &p.actor)
                    .unwrap()
                    .wait_result(&p.actor)
                    .expect("allreduce retries through a 2% lossy fabric");
            }
            rt.shutdown(&p.actor);
        },
    );
    (ObsSummary::from_trace(&res.trace).hash(), res.elapsed_ns)
}

#[test]
fn lossy_fabric_fingerprint_identical_thread_vs_event() {
    for seed in 0..8u64 {
        let a = lossy_fingerprint(ExecMode::Threads, seed);
        let b = lossy_fingerprint(ExecMode::Events, seed);
        assert_eq!(a, b, "lossy run diverges at seed={seed}");
    }
}

/// The PR 6 recovery scenario (iterated allreduces on a lossy fabric
/// until a scheduled kill poisons one, then agree → revoke → shrink →
/// resume on the survivor communicator), parameterized by executor mode.
fn recovery_fingerprint(mode: ExecMode, seed: u64, t_kill: SimNs) -> (u64, bool) {
    const COUNT: usize = 512;
    let plan = data_plane_faults(FaultPlan::drops(seed, 0.02)).with_node_down(3, t_kill);
    let res = run_world_faulty_mode(
        SystemConfig::ricc().cluster.clone(),
        4,
        plan,
        mode,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let vals: Vec<f64> = (0..COUNT).map(|i| (p.rank() + i) as f64).collect();
            let buf = rt.context().create_buffer(COUNT * 8);
            let mut failed = false;
            for _ in 0..8 {
                buf.store(0, minimpi::datatype::f64_as_bytes(&vals))
                    .unwrap();
                let e = rt
                    .enqueue_allreduce_buffer(&q, &buf, 0, COUNT, ReduceOp::Sum, 4, &[], &p.actor)
                    .unwrap();
                if e.wait_result(&p.actor).is_err() {
                    failed = true;
                    break;
                }
            }
            rt.shutdown(&p.actor);
            if p.comm.world().node_down_at(p.rank(), p.actor.now_ns()) {
                return false; // the victim exits
            }
            let clean = p
                .comm
                .agree(&p.actor, u64::from(!failed), PATIENCE)
                .expect("completion agreement");
            if clean == 0 {
                for r in rt.failed_ranks(p.actor.now_ns()) {
                    rt.notify_proc_failure(r);
                }
                rt.revoke();
                let sub = rt
                    .shrink_comm(&p.actor, PATIENCE)
                    .expect("survivors agree on the shrunken communicator");
                let rt2 = ClMpi::with_comm(sub, SystemConfig::ricc());
                let q2 = rt2.context().create_queue(0, format!("r{}b", p.rank()));
                for _ in 0..2 {
                    buf.store(0, minimpi::datatype::f64_as_bytes(&vals))
                        .unwrap();
                    rt2.enqueue_allreduce_buffer(
                        &q2,
                        &buf,
                        0,
                        COUNT,
                        ReduceOp::Sum,
                        4,
                        &[],
                        &p.actor,
                    )
                    .unwrap()
                    .wait_result(&p.actor)
                    .expect("allreduce on the survivor communicator");
                }
                rt2.shutdown(&p.actor);
            }
            clean == 0
        },
    );
    let recovered = res.outputs.iter().any(|&f| f);
    (ObsSummary::from_trace(&res.trace).hash(), recovered)
}

#[test]
fn rank_kill_recovery_fingerprint_identical_thread_vs_event() {
    let mut recovered_runs = 0;
    for seed in 0..8u64 {
        let t_kill = 2_000_000 + seed * 250_000;
        let (ht, rt) = recovery_fingerprint(ExecMode::Threads, seed, t_kill);
        let (he, re) = recovery_fingerprint(ExecMode::Events, seed, t_kill);
        assert_eq!(ht, he, "recovery run diverges at seed={seed}");
        assert_eq!(rt, re, "recovery outcome diverges at seed={seed}");
        recovered_runs += usize::from(rt);
    }
    assert!(
        recovered_runs > 0,
        "at least some kills must land mid-run and exercise recovery"
    );
}
