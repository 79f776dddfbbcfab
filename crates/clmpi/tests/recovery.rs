//! Rank-failure recovery suite for the clMPI runtime: the 16-run
//! re-route matrix (every victim rank at worlds 3/5/8 — survivors
//! shrink and every collective algorithm still delivers on the dense
//! survivor communicator), the poison-not-hang guarantee for
//! collectives issued on a communicator with a dead member, and a
//! 16-seed × 2-run determinism matrix over a full
//! fail → shrink → resume scenario on a lossy fabric.

use clmpi::{data_plane_faults, ClMpi, CollAlgo, ObsSummary, ReduceOp, SystemConfig};
use minimpi::{run_world_faulty, FaultPlan, Process};
use simtime::{SimNs, XorShift64};

const ALGOS: [CollAlgo; 3] = [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring];

/// Agreement patience for shrink after a plan-scheduled kill (virtual).
/// Must exceed the collective chunk deadline (1 s): the slowest survivor
/// may wait out a full deadline before it notices the failure.
const PATIENCE: SimNs = 5_000_000_000;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

// ----------------------------------------------------------------------
// Re-route matrix: every victim, hostile world sizes
// ----------------------------------------------------------------------

/// Kill each rank of worlds 3, 5 and 8 in turn (16 runs). The survivors
/// shrink the world communicator, rebuild a runtime on the dense
/// survivor communicator, and every broadcast algorithm plus the ring
/// allreduce must deliver byte-exact payloads there — the collective
/// topologies are computed from communicator-local ranks, so they
/// re-route around the hole automatically.
#[test]
fn collectives_reroute_on_shrunken_comm_for_every_victim() {
    const SIZE: usize = 4109; // uneven: 5 chunks of 1024, last one short
    const CHUNK: usize = 1024;
    const COUNT: usize = 37; // allreduce f64 cells
    for world in [3usize, 5, 8] {
        for victim in 0..world {
            let plan = FaultPlan::none().with_node_down(victim, 0);
            let res = run_world_faulty(
                SystemConfig::ricc().cluster.clone(),
                world,
                plan,
                move |p: Process| {
                    if p.comm.world().node_down_at(p.rank(), 0) {
                        return 0usize; // the victim never participates
                    }
                    let sub = p
                        .comm
                        .shrink(&p.actor, PATIENCE)
                        .expect("survivors agree on the shrunken communicator");
                    assert_eq!(sub.size(), world - 1);
                    let rt = ClMpi::with_comm(sub.clone(), SystemConfig::ricc());
                    let q = rt.context().create_queue(0, format!("r{}", p.rank()));
                    // Broadcast: every algorithm, root 0 of the survivors.
                    let buf = rt.context().create_buffer(SIZE);
                    for (ai, algo) in ALGOS.into_iter().enumerate() {
                        let want = pattern(SIZE, 7000 + (world * 31 + victim * 7 + ai) as u64);
                        buf.store(0, &vec![0u8; SIZE]).unwrap();
                        if sub.rank() == 0 {
                            buf.store(0, &want).unwrap();
                        }
                        let e = rt
                            .enqueue_bcast_buffer_as(
                                &q,
                                &buf,
                                0,
                                SIZE,
                                0,
                                ai as i32,
                                algo,
                                CHUNK,
                                &[],
                                &p.actor,
                            )
                            .unwrap();
                        e.wait_result(&p.actor).unwrap_or_else(|err| {
                            panic!(
                                "{algo:?} on shrunk comm (world {world}, victim {victim}): {err:?}"
                            )
                        });
                        assert_eq!(
                            buf.load(0, SIZE).unwrap().as_slice(),
                            want,
                            "{algo:?} world {world} victim {victim} sub-rank {}",
                            sub.rank()
                        );
                    }
                    // Ring allreduce over the survivors.
                    let vals: Vec<f64> = (0..COUNT)
                        .map(|i| (sub.rank() + 1) as f64 * (i + 1) as f64)
                        .collect();
                    let abuf = rt.context().create_buffer(COUNT * 8);
                    abuf.store(0, minimpi::datatype::f64_as_bytes(&vals))
                        .unwrap();
                    let e = rt
                        .enqueue_allreduce_buffer(
                            &q,
                            &abuf,
                            0,
                            COUNT,
                            ReduceOp::Sum,
                            5,
                            &[],
                            &p.actor,
                        )
                        .unwrap();
                    e.wait_result(&p.actor).expect("allreduce on shrunk comm");
                    let n = sub.size() as f64;
                    let got = minimpi::datatype::bytes_to_f64(
                        abuf.load(0, COUNT * 8).unwrap().as_slice(),
                    );
                    for (i, g) in got.iter().enumerate() {
                        let want = n * (n + 1.0) / 2.0 * (i + 1) as f64;
                        assert!(
                            (g - want).abs() < 1e-9,
                            "allreduce cell {i}: {g} vs {want} (world {world}, victim {victim})"
                        );
                    }
                    rt.shutdown(&p.actor);
                    1usize
                },
            );
            assert_eq!(
                res.outputs.iter().sum::<usize>(),
                world - 1,
                "world {world} victim {victim}: every survivor verified"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Poison, never hang
// ----------------------------------------------------------------------

/// Collectives issued on a communicator with a dead member must settle
/// every event as failed within bounded virtual time — no hang, and the
/// engine drains cleanly afterwards.
#[test]
fn world_collectives_poison_not_hang_with_dead_member() {
    const SIZE: usize = 8192;
    let plan = FaultPlan::none().with_node_down(2, 0);
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        4,
        plan,
        move |p: Process| {
            if p.comm.world().node_down_at(p.rank(), 0) {
                return (0u64, 0u64);
            }
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(SIZE);
            buf.store(0, &pattern(SIZE, 99)).unwrap();
            let eb = rt
                .enqueue_bcast_buffer(&q, &buf, 0, SIZE, 0, 1, &[], &p.actor)
                .unwrap();
            let ea = rt
                .enqueue_allreduce_buffer(&q, &buf, 0, SIZE / 8, ReduceOp::Sum, 2, &[], &p.actor)
                .unwrap();
            eb.wait(&p.actor);
            ea.wait(&p.actor);
            assert!(
                eb.is_failed() || ea.is_failed(),
                "rank {}: a collective touching the dead rank must poison",
                p.rank()
            );
            // The engine drains: no machine leaks waiting on the dead rank.
            rt.shutdown(&p.actor);
            (rt.obs_counters().faults.proc_failures, 1)
        },
    );
    let (failures, survivors): (u64, u64) = res
        .outputs
        .iter()
        .fold((0, 0), |(f, s), o| (f + o.0, s + o.1));
    assert_eq!(survivors, 3);
    assert!(
        failures > 0,
        "at least one survivor classified the dead peer (got {failures})"
    );
}

// ----------------------------------------------------------------------
// Determinism matrix
// ----------------------------------------------------------------------

/// One full recovery scenario on a lossy fabric: iterated allreduces on
/// the world communicator until the scheduled kill poisons one, then
/// notify → revoke → shrink → rebuild → two more allreduces on the
/// survivor communicator. Returns the run's observability fingerprint.
fn recovery_fingerprint(seed: u64, t_kill: SimNs) -> (u64, bool) {
    const COUNT: usize = 512;
    let plan = data_plane_faults(FaultPlan::drops(seed, 0.02)).with_node_down(3, t_kill);
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        4,
        plan,
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
            // Completion agreement: a kill inside the *last* allreduce
            // can leave one survivor clean while the rest fail, so
            // whether to recover must itself be agreed on.
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
                    let e = rt2
                        .enqueue_allreduce_buffer(
                            &q2,
                            &buf,
                            0,
                            COUNT,
                            ReduceOp::Sum,
                            4,
                            &[],
                            &p.actor,
                        )
                        .unwrap();
                    e.wait_result(&p.actor)
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

/// 16 seeds × 2 runs: the whole kill-shrink-resume scenario — lossy
/// data plane included — must produce a byte-identical observability
/// summary on repetition. This is the repo's recovery determinism gate.
#[test]
fn recovery_scenario_fingerprint_is_deterministic_across_16_seeds() {
    let mut recovered_runs = 0;
    for seed in 0..16u64 {
        // Mid-run kill: late enough that the world communicator is busy,
        // early enough that iterations remain to resume.
        let t_kill = 2_000_000 + seed * 250_000;
        let (a, ra) = recovery_fingerprint(seed, t_kill);
        let (b, rb) = recovery_fingerprint(seed, t_kill);
        assert_eq!(a, b, "seed {seed}: fingerprint differs across reruns");
        assert_eq!(
            ra, rb,
            "seed {seed}: recovery outcome differs across reruns"
        );
        recovered_runs += usize::from(ra);
    }
    assert!(
        recovered_runs > 0,
        "at least some kills must land mid-run and exercise recovery"
    );
}
