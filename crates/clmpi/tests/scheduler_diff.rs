//! World-level committed fingerprints for the event scheduler: each
//! scenario must reproduce its row — `ObsSummary` hash (every span and op
//! instant) and virtual makespan, or whether the world recovered — on any
//! executor. Three tables:
//!
//! * clean runs at worlds {2, 3, 5, 8, 13} × 16 seeds (kernel → halo
//!   exchange → broadcast → allreduce),
//! * lossy-fabric runs (10% data-plane drops) with retries in play, each
//!   row also pinning how many chunks it dropped (never zero),
//! * the PR 6 rank-kill recovery scenario (kill → agree → shrink →
//!   resume) on a lossy fabric.
//!
//! The clean and recovery rows were recorded on the event core and
//! reproduced by the thread-per-machine executor before that executor
//! was retired; the lossy rows were recorded on the event core alone,
//! and hold under the permutation seed like the rest. On a mismatch a
//! test prints the measured table ready to paste; a change that does
//! not mean to move virtual time must not need to.

use clmpi::{data_plane_faults, ClMpi, CollAlgo, ObsSummary, ReduceOp, SystemConfig};
use minimpi::{run_world_faulty, FaultPlan, Process};
use simtime::{SimNs, XorShift64};

mod common;
use common::check_rows;

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
fn clean_fingerprint(world: usize, seed: u64) -> (u64, SimNs) {
    const SIZE: usize = 2048;
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        world,
        FaultPlan::none(),
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

/// `(world, seed, ObsSummary hash, makespan)` of [`clean_fingerprint`].
#[rustfmt::skip]
const CLEAN: &[(usize, u64, u64, SimNs)] = &[
    (2, 0, 0xa25b660c48c00cd7, 579749),
    (2, 1, 0xc53807b769928bb2, 564138),
    (2, 2, 0x5e9c497738d9dedf, 602024),
    (2, 3, 0x8403b3fad9c21bf0, 614824),
    (2, 4, 0xc212c39ca96d7c46, 684254),
    (2, 5, 0x71b408f9a46b7faf, 631182),
    (2, 6, 0xd058fe32e48f7bcc, 571141),
    (2, 7, 0xa36f8929d649231c, 636030),
    (2, 8, 0x7e7decc68e4d97aa, 638927),
    (2, 9, 0x53857fba64b73e20, 644182),
    (2, 10, 0x8bc3f8e086a8fb26, 610598),
    (2, 11, 0x04763d5b61a4a667, 658574),
    (2, 12, 0xf3ea55370833fc2f, 613170),
    (2, 13, 0x77a04bcfee4b3db8, 560167),
    (2, 14, 0x564d263ac73408ef, 633088),
    (2, 15, 0x4079d81a9fc41e84, 674035),
    (3, 0, 0xb30d45410daf8be9, 902061),
    (3, 1, 0xce42b6fbc6682d9f, 856669),
    (3, 2, 0xb854d3f62c1387f1, 894162),
    (3, 3, 0xafb711c414899ea2, 953582),
    (3, 4, 0xdf3e004c0f1524a2, 941195),
    (3, 5, 0x8002bee45dba4ed8, 909962),
    (3, 6, 0xa84e8be52b615d92, 778744),
    (3, 7, 0x9b7eb24d798c57ea, 832009),
    (3, 8, 0xa38c15f687b01763, 834880),
    (3, 9, 0xa0046f6f62acd7b3, 968405),
    (3, 10, 0x099cb90ffce71faf, 937933),
    (3, 11, 0x8b9b80f8b26964a0, 915053),
    (3, 12, 0xf75b8aeb92a4e114, 959861),
    (3, 13, 0xb33adc89394e87b3, 873047),
    (3, 14, 0x98e3e1074d52a8d5, 925252),
    (3, 15, 0x932dcb32fa07b39d, 840360),
    (5, 0, 0xa3a2b8b13256ab79, 1536756),
    (5, 1, 0x017bee71261621c0, 1439890),
    (5, 2, 0x33eb42dde08aa0e6, 1477776),
    (5, 3, 0xeb3b71c01c5ff49c, 1537196),
    (5, 4, 0x80398541b1638ae7, 1473579),
    (5, 5, 0x5b9e306f50bd88d6, 1344445),
    (5, 6, 0xc01a3d0caf3725af, 1349526),
    (5, 7, 0x665e49f71b8d6145, 1314959),
    (5, 8, 0x00a407881283c5d2, 1335980),
    (5, 9, 0x77148e1c90156666, 1294503),
    (5, 10, 0x4754bb02543dc413, 1266444),
    (5, 11, 0x81aafc01e85158e1, 1245823),
    (5, 12, 0x6c92dbf82eb0b86f, 1219723),
    (5, 13, 0x385d9149a0c5290c, 1228401),
    (5, 14, 0x9f34817d384336ff, 1210599),
    (5, 15, 0xbdcc8cf2094d9d3e, 1514590),
    (8, 0, 0xf1ac3b0e83eb8350, 2313498),
    (8, 1, 0xa214b1b58b5e8239, 2314896),
    (8, 2, 0xc1b4dc8eb54a73ed, 2352782),
    (8, 3, 0xbf710752d9e1a215, 2412202),
    (8, 4, 0xb343f2ddc2a56e38, 2348585),
    (8, 5, 0xd35c6f85e313fa70, 2356031),
    (8, 6, 0x36b84c79e35cce10, 2379477),
    (8, 7, 0xf4ee4acfbeb31da3, 2273335),
    (8, 8, 0x3e08e958deda5171, 1747821),
    (8, 9, 0x3bcd7b4a86e3b963, 1798620),
    (8, 10, 0xfb6c802491f5b593, 1746106),
    (8, 11, 0x34f9cfce86ac288d, 1738933),
    (8, 12, 0x62cc901f1954d7e0, 1827031),
    (8, 13, 0xb8854bf2f9f8e410, 1795604),
    (8, 14, 0xb50b3867f6c38962, 1748112),
    (8, 15, 0xa8d98b6462191554, 1851111),
    (13, 0, 0x887c085f18f237d7, 3805363),
    (13, 1, 0xd32d2e2d37ea06c8, 3772850),
    (13, 2, 0x04ce4bad29a074b0, 3810736),
    (13, 3, 0x32e9b0d8679a1b96, 3870156),
    (13, 4, 0x6cb8b6fa02ecb52f, 3806539),
    (13, 5, 0xf94e020d61406bf3, 3813985),
    (13, 6, 0xa01b43314a65646d, 3837431),
    (13, 7, 0xd4631079bcfa7099, 3731289),
    (13, 8, 0x70538315dc223e1e, 3748306),
    (13, 9, 0xfa587764a336b792, 3842031),
    (13, 10, 0xb28e838c0caa69dd, 3784128),
    (13, 11, 0x212285b5effa99e2, 3821648),
    (13, 12, 0xa564c081abbccd53, 3754282),
    (13, 13, 0x75aecacb0c7d090e, 2609176),
    (13, 14, 0xdb653a9c83adecd6, 2574480),
    (13, 15, 0x8d0bd5e6687c7039, 2609751),
];

/// Worlds {2, 3, 5, 8, 13} × 16 seeds reproduce their committed rows.
#[test]
fn clean_worlds_reproduce_their_committed_fingerprints() {
    check_rows(
        CLEAN,
        |(world, seed, ..)| {
            let (hash, elapsed) = clean_fingerprint(world, seed);
            (world, seed, hash, elapsed)
        },
        |(world, seed, hash, elapsed)| format!("({world}, {seed}, {hash:#018x}, {elapsed})"),
    );
}

/// Data-plane drop rate of [`lossy_fingerprint`]. At 2% this world
/// dropped no chunk under any of the eight seeds, so its table was one
/// row eight times; at 10% every seed drops a dozen.
const LOSSY_RATE: f64 = 0.10;

/// Lossy fabric ([`LOSSY_RATE`] data-plane drops): retries, timeouts and
/// fault spans land at the committed virtual instants. Returns
/// (ObsSummary hash, virtual makespan, chunks dropped).
fn lossy_fingerprint(seed: u64) -> (u64, SimNs, u64) {
    const COUNT: usize = 512;
    let plan = data_plane_faults(FaultPlan::drops(seed, LOSSY_RATE));
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        4,
        plan,
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
                    .expect("allreduce retries through a lossy fabric");
            }
            rt.shutdown(&p.actor);
        },
    );
    let summary = ObsSummary::from_trace(&res.trace);
    let drops = summary.ranks.values().map(|r| r.chunk_drops).sum();
    (summary.hash(), res.elapsed_ns, drops)
}

/// `(seed, ObsSummary hash, makespan, chunks dropped)` of
/// [`lossy_fingerprint`].
#[rustfmt::skip]
const LOSSY: &[(u64, u64, SimNs, u64)] = &[
    (0, 0x003de806ce4b5a46, 3703056, 12),
    (1, 0xf9ac097eb4bf2567, 4375292, 13),
    (2, 0xc865178b5552dbca, 3968716, 13),
    (3, 0x76ea0309459f5f49, 4325036, 13),
    (4, 0x303ba57fcf6cacde, 3652800, 10),
    (5, 0x6843537c2ac03a4f, 3412012, 9),
    (6, 0x13321d29e79963ba, 3943716, 11),
    (7, 0xbd35e2576e4c1b5b, 3918716, 10),
];

#[test]
fn lossy_fabric_reproduces_its_committed_fingerprints() {
    assert!(
        LOSSY.iter().all(|&(.., drops)| drops > 0),
        "a lossy row that drops nothing tests nothing"
    );
    check_rows(
        LOSSY,
        |(seed, ..)| {
            let (hash, elapsed, drops) = lossy_fingerprint(seed);
            (seed, hash, elapsed, drops)
        },
        |(seed, hash, elapsed, drops)| format!("({seed}, {hash:#018x}, {elapsed}, {drops})"),
    );
}

/// The PR 6 recovery scenario (iterated allreduces on a lossy fabric
/// until a scheduled kill poisons one, then agree → revoke → shrink →
/// resume on the survivor communicator).
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

/// `(seed, ObsSummary hash, recovered)` of [`recovery_fingerprint`],
/// with the kill at `2 ms + seed × 250 µs`.
#[rustfmt::skip]
const RECOVERY: &[(u64, u64, bool)] = &[
    (0, 0x37d0c25d28e4cf2d, true),
    (1, 0x5a8ed31cece3ca8b, true),
    (2, 0x6521977b2dbb27c7, true),
    (3, 0xda32973f518e6854, true),
    (4, 0x5c089e73101acfef, true),
    (5, 0xf8227525eb2bc1f5, true),
    (6, 0x4f70a7e1d7b547fd, true),
    (7, 0xbe02df8b39320018, true),
];

#[test]
fn rank_kill_recovery_reproduces_its_committed_fingerprints() {
    check_rows(
        RECOVERY,
        |(seed, ..)| {
            let (hash, recovered) = recovery_fingerprint(seed, 2_000_000 + seed * 250_000);
            (seed, hash, recovered)
        },
        |(seed, hash, recovered)| format!("({seed}, {hash:#018x}, {recovered})"),
    );
    assert!(
        RECOVERY.iter().any(|&(_, _, recovered)| recovered),
        "at least some kills must land mid-run and exercise recovery"
    );
}
