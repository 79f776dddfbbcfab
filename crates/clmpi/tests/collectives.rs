//! Differential test suite for the device-buffer collectives: every
//! algorithm × every root × friendly and hostile world sizes, checked
//! byte-for-byte against naive host references; a 16-seed determinism
//! matrix; and fault-injection scenarios (lossy ring recovers, dead link
//! poisons every event without deadlocking the engine).

use clmpi::{
    data_plane_faults, ClMpi, CollAlgo, ObsSummary, ReduceOp, RetryPolicy, SystemConfig,
    CL_MPI_TRANSFER_ERROR,
};
use minicl::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
use minimpi::{run_world_faulty, run_world_sized, FaultPlan, Process};
use simtime::XorShift64;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// World sizes the differential sweeps run at: powers of two AND the
/// hostile shapes (odd, prime, > 8) where tree/ring index arithmetic
/// actually gets exercised.
const WORLDS: [usize; 5] = [2, 3, 5, 8, 13];

const ALGOS: [CollAlgo; 3] = [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring];

// ----------------------------------------------------------------------
// Broadcast differential
// ----------------------------------------------------------------------

/// Every algorithm, every root, every world size, with an uneven payload
/// (65 537 bytes at offset 17, chunk 4096 → 17 chunks, last one short):
/// the broadcast region matches the root's bytes on every rank and the
/// guard bytes around it stay untouched.
#[test]
fn bcast_matches_host_reference_for_all_algos_roots_and_worlds() {
    const OFFSET: usize = 17;
    const SIZE: usize = 65_537;
    const TAIL: usize = 11;
    const CHUNK: usize = 4096;
    for world in WORLDS {
        for (ai, algo) in ALGOS.into_iter().enumerate() {
            let res = run_world_sized(
                SystemConfig::ricc().cluster.clone(),
                world,
                move |p: Process| {
                    let rt = ClMpi::new(&p, SystemConfig::ricc());
                    let q = rt.context().create_queue(0, format!("r{}", p.rank()));
                    let buf = rt.context().create_buffer(OFFSET + SIZE + TAIL);
                    for root in 0..world {
                        let want = pattern(SIZE, 1000 + (root as u64) * 8 + ai as u64);
                        buf.store(0, &vec![0xAB; OFFSET + SIZE + TAIL]).unwrap();
                        if p.rank() == root {
                            buf.store(OFFSET, &want).unwrap();
                        }
                        let e = rt
                            .enqueue_bcast_buffer_as(
                                &q,
                                &buf,
                                OFFSET,
                                SIZE,
                                root,
                                root as i32,
                                algo,
                                CHUNK,
                                &[],
                                &p.actor,
                            )
                            .unwrap();
                        e.wait(&p.actor);
                        assert!(!e.is_failed(), "{algo:?} root {root} world {world}");
                        assert_eq!(
                            buf.load(OFFSET, SIZE).unwrap().as_slice(),
                            want,
                            "{algo:?} root {root} world {world} rank {}",
                            p.rank()
                        );
                        assert_eq!(buf.load(0, OFFSET).unwrap().as_slice(), vec![0xAB; OFFSET]);
                        assert_eq!(
                            buf.load(OFFSET + SIZE, TAIL).unwrap().as_slice(),
                            vec![0xAB; TAIL]
                        );
                    }
                    rt.shutdown(&p.actor);
                    true
                },
            );
            assert!(res.outputs.iter().all(|&ok| ok));
        }
    }
}

/// Zero-byte and sub-chunk broadcasts complete on every topology (the
/// wire still carries the one-byte algorithm header so non-roots learn
/// their place in the spanning tree).
#[test]
fn degenerate_bcast_sizes_complete_on_every_topology() {
    for algo in ALGOS {
        let res = run_world_sized(
            SystemConfig::ricc().cluster.clone(),
            5,
            move |p: Process| {
                let rt = ClMpi::new(&p, SystemConfig::ricc());
                let q = rt.context().create_queue(0, format!("r{}", p.rank()));
                let buf = rt.context().create_buffer(256);
                for (tag, size) in [(1, 0usize), (2, 1), (3, 255)] {
                    if p.rank() == 1 {
                        buf.store(0, &pattern(256, 5 + tag as u64)).unwrap();
                    }
                    let e = rt
                        .enqueue_bcast_buffer_as(
                            &q,
                            &buf,
                            0,
                            size,
                            1,
                            tag,
                            algo,
                            4096,
                            &[],
                            &p.actor,
                        )
                        .unwrap();
                    e.wait(&p.actor);
                    assert!(!e.is_failed());
                    assert_eq!(
                        buf.load(0, size).unwrap().as_slice(),
                        &pattern(256, 5 + tag as u64)[..size]
                    );
                }
                rt.shutdown(&p.actor);
                true
            },
        );
        assert!(res.outputs.iter().all(|&ok| ok));
    }
}

// ----------------------------------------------------------------------
// Allreduce / reduce differential
// ----------------------------------------------------------------------

/// Integer-valued per-rank contributions, exactly representable in f64.
fn contrib(rank: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((rank * 31 + i * 7) % 1000) as f64 - 300.0)
        .collect()
}

/// Host reference reduction across all ranks.
fn reduced(world: usize, count: usize, op: ReduceOp) -> Vec<f64> {
    let mut acc = contrib(0, count);
    for r in 1..world {
        op.fold(&mut acc, &contrib(r, count));
    }
    acc
}

fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Ring allreduce over an uneven element count (1023 is not divisible by
/// any sweep world size except 3) and a forced sub-segment chunk: every
/// rank ends with the exact host reference for Sum, Min and Max.
#[test]
fn allreduce_matches_host_reference_for_all_ops_and_worlds() {
    const COUNT: usize = 1023;
    const OFFSET: usize = 16;
    for world in WORLDS {
        let res = run_world_sized(
            SystemConfig::ricc().cluster.clone(),
            world,
            move |p: Process| {
                let rt = ClMpi::new(&p, SystemConfig::ricc());
                let q = rt.context().create_queue(0, format!("r{}", p.rank()));
                let buf = rt.context().create_buffer(OFFSET + COUNT * 8);
                for (tag, op) in [(1, ReduceOp::Sum), (2, ReduceOp::Min), (3, ReduceOp::Max)] {
                    buf.store(0, &[0xCD; OFFSET]).unwrap();
                    buf.store(OFFSET, &f64s_to_bytes(&contrib(p.rank(), COUNT)))
                        .unwrap();
                    let e = rt
                        .enqueue_allreduce_buffer_as(
                            &q,
                            &buf,
                            OFFSET,
                            COUNT,
                            op,
                            tag,
                            4096,
                            &[],
                            &p.actor,
                        )
                        .unwrap();
                    e.wait(&p.actor);
                    assert!(!e.is_failed());
                    assert_eq!(
                        bytes_to_f64s(buf.load(OFFSET, COUNT * 8).unwrap().as_slice()),
                        reduced(world, COUNT, op),
                        "{op:?} world {world} rank {}",
                        p.rank()
                    );
                    assert_eq!(buf.load(0, OFFSET).unwrap().as_slice(), vec![0xCD; OFFSET]);
                }
                rt.shutdown(&p.actor);
                true
            },
        );
        assert!(res.outputs.iter().all(|&ok| ok));
    }
}

/// The default (selector-less) allreduce path picks a sane chunk on its
/// own and agrees with the reference too.
#[test]
fn allreduce_default_tuning_path_agrees() {
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        5,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(4096 * 8);
            buf.store(0, &f64s_to_bytes(&contrib(p.rank(), 4096)))
                .unwrap();
            let e = rt
                .enqueue_allreduce_buffer(&q, &buf, 0, 4096, ReduceOp::Sum, 9, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed());
            bytes_to_f64s(buf.load(0, 4096 * 8).unwrap().as_slice())
                == reduced(5, 4096, ReduceOp::Sum)
        },
    );
    assert!(res.outputs.iter().all(|&ok| ok));
}

/// Reduce-to-root, all roots of a prime world: the root ends with the
/// reference; every other rank's buffer is byte-for-byte untouched
/// (MPI_Reduce semantics).
#[test]
fn reduce_to_root_leaves_non_root_buffers_untouched() {
    const COUNT: usize = 1023;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        5,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(COUNT * 8);
            for root in 0..5 {
                let mine = f64s_to_bytes(&contrib(p.rank(), COUNT));
                buf.store(0, &mine).unwrap();
                let e = rt
                    .enqueue_reduce_buffer(
                        &q,
                        &buf,
                        0,
                        COUNT,
                        ReduceOp::Max,
                        root,
                        root as i32,
                        &[],
                        &p.actor,
                    )
                    .unwrap();
                e.wait(&p.actor);
                assert!(!e.is_failed());
                let got = buf.load(0, COUNT * 8).unwrap();
                if p.rank() == root {
                    assert_eq!(
                        bytes_to_f64s(got.as_slice()),
                        reduced(5, COUNT, ReduceOp::Max),
                        "root {root}"
                    );
                } else {
                    assert_eq!(got.as_slice(), mine, "non-root buffer must stay untouched");
                }
            }
            rt.shutdown(&p.actor);
            true
        },
    );
    assert!(res.outputs.iter().all(|&ok| ok));
}

// ----------------------------------------------------------------------
// Determinism matrix
// ----------------------------------------------------------------------

/// One collective workload (ring bcast + allreduce under 5% data-plane
/// loss), run twice per seed for 16 seeds: the ObsSummary fingerprint —
/// every counter, span and overlap number — is identical across runs,
/// and the payloads still verify.
#[test]
fn sixteen_seed_matrix_fingerprints_identically() {
    const SIZE: usize = 256 << 10;
    const COUNT: usize = 2048;
    let run = |seed: u64| {
        let plan = data_plane_faults(FaultPlan::drops(seed, 0.05));
        let cluster = SystemConfig::ricc().cluster.clone();
        let res = run_world_faulty(cluster, 4, plan, move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            rt.set_retry_policy(RetryPolicy::new(10, 50_000));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(SIZE);
            if p.rank() == 0 {
                buf.store(0, &pattern(SIZE, seed)).unwrap();
            }
            let e = rt
                .enqueue_bcast_buffer_as(
                    &q,
                    &buf,
                    0,
                    SIZE,
                    0,
                    1,
                    CollAlgo::Ring,
                    32 << 10,
                    &[],
                    &p.actor,
                )
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed(), "5% loss must be absorbed by retries");
            assert_eq!(buf.load(0, SIZE).unwrap().as_slice(), pattern(SIZE, seed));
            let rbuf = rt.context().create_buffer(COUNT * 8);
            rbuf.store(0, &f64s_to_bytes(&contrib(p.rank(), COUNT)))
                .unwrap();
            let e = rt
                .enqueue_allreduce_buffer_as(
                    &q,
                    &rbuf,
                    0,
                    COUNT,
                    ReduceOp::Sum,
                    2,
                    4096,
                    &[],
                    &p.actor,
                )
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed());
            assert_eq!(
                bytes_to_f64s(rbuf.load(0, COUNT * 8).unwrap().as_slice()),
                reduced(4, COUNT, ReduceOp::Sum)
            );
            rt.shutdown(&p.actor);
            true
        });
        assert!(res.outputs.iter().all(|&ok| ok));
        (ObsSummary::from_trace(&res.trace).hash(), res.elapsed_ns)
    };
    for seed in 0..16 {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a, b, "seed {seed}: fingerprint must be reproducible");
    }
}

// ----------------------------------------------------------------------
// Fault injection
// ----------------------------------------------------------------------

/// A lossy fabric (30% chunk drop) mid-ring: chunks are retried under a
/// generous budget, the broadcast and the allreduce both deliver intact,
/// and the drops are visible in stats and fault counters.
#[test]
fn lossy_ring_collectives_retry_and_complete() {
    const SIZE: usize = 512 << 10;
    const COUNT: usize = 1023;
    let plan = data_plane_faults(FaultPlan::drops(4242, 0.3));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 5, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy::new(12, 50_000));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(SIZE);
        if p.rank() == 2 {
            buf.store(0, &pattern(SIZE, 88)).unwrap();
        }
        let e = rt
            .enqueue_bcast_buffer_as(
                &q,
                &buf,
                0,
                SIZE,
                2,
                1,
                CollAlgo::Ring,
                64 << 10,
                &[],
                &p.actor,
            )
            .unwrap();
        e.wait(&p.actor);
        assert!(!e.is_failed(), "30% loss must be absorbed by retries");
        assert_eq!(buf.load(0, SIZE).unwrap().as_slice(), pattern(SIZE, 88));
        let rbuf = rt.context().create_buffer(COUNT * 8);
        rbuf.store(0, &f64s_to_bytes(&contrib(p.rank(), COUNT)))
            .unwrap();
        let e = rt
            .enqueue_allreduce_buffer_as(&q, &rbuf, 0, COUNT, ReduceOp::Min, 2, 4096, &[], &p.actor)
            .unwrap();
        e.wait(&p.actor);
        assert!(!e.is_failed());
        assert_eq!(
            bytes_to_f64s(rbuf.load(0, COUNT * 8).unwrap().as_slice()),
            reduced(5, COUNT, ReduceOp::Min)
        );
        rt.shutdown(&p.actor);
        let f = rt.obs_counters().faults;
        (f.retries, f.failures)
    });
    assert!(
        res.fault_counts.dropped() > 0,
        "the plan must actually bite"
    );
    let retries: u64 = res.outputs.iter().map(|&(r, _)| r).sum();
    assert!(retries > 0, "expected retransmissions under 30% loss");
    assert!(
        res.outputs.iter().all(|&(_, f)| f == 0),
        "no permanent failures"
    );
}

/// A permanently-down data plane: every rank's collective event settles
/// with `CL_MPI_TRANSFER_ERROR`, wait-list dependents are poisoned with
/// the standard −14, and shutdown still quiesces — no deadlock, no hang.
#[test]
fn dead_link_poisons_every_rank_and_dependents_then_quiesces() {
    const SIZE: usize = 64 << 10;
    let plan = data_plane_faults(FaultPlan::drops(7, 1.0));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 3, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            chunk_timeout_ns: 1_000_000,
            ..RetryPolicy::new(2, 5_000)
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(SIZE);
        if p.rank() == 0 {
            buf.store(0, &pattern(SIZE, 13)).unwrap();
        }
        let e = rt
            .enqueue_bcast_buffer_as(
                &q,
                &buf,
                0,
                SIZE,
                0,
                1,
                CollAlgo::Ring,
                16 << 10,
                &[],
                &p.actor,
            )
            .unwrap();
        let dep = q.enqueue_kernel("after-bcast", 1_000, std::slice::from_ref(&e), || {});
        e.wait(&p.actor);
        dep.wait(&p.actor);
        let bcast_codes = (e.error_code(), dep.error_code());
        let rbuf = rt.context().create_buffer(1024 * 8);
        rbuf.store(0, &f64s_to_bytes(&contrib(p.rank(), 1024)))
            .unwrap();
        let e = rt
            .enqueue_allreduce_buffer_as(&q, &rbuf, 0, 1024, ReduceOp::Sum, 2, 2048, &[], &p.actor)
            .unwrap();
        e.wait(&p.actor);
        let allreduce_code = e.error_code();
        rt.shutdown(&p.actor); // must quiesce with everything failed
        (bcast_codes, allreduce_code)
    });
    for (rank, &((bcast, dep), allreduce)) in res.outputs.iter().enumerate() {
        assert_eq!(bcast, Some(CL_MPI_TRANSFER_ERROR), "rank {rank} bcast");
        assert_eq!(
            dep,
            Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
            "rank {rank} dependent"
        );
        assert_eq!(
            allreduce,
            Some(CL_MPI_TRANSFER_ERROR),
            "rank {rank} allreduce"
        );
    }
}

// ----------------------------------------------------------------------
// A failed collective leaves no posted receive behind
// ----------------------------------------------------------------------

/// While the data plane is down every rank's broadcast and allreduce
/// fails with a receive still posted — the non-roots' broadcast by
/// running out of patience, the ring round when its own injection
/// exhausts the retry budget first. Once the link is back, the same
/// collectives on the same user tags among the same ranks deliver the
/// right bytes: a receive left behind by a dead machine would have been
/// posted first and swallowed the new collective's first chunk.
#[test]
fn failed_collectives_withdraw_their_receives_so_the_tag_is_reusable() {
    const SIZE: usize = 64 << 10;
    const COUNT: usize = 1024;
    const LINK_BACK: u64 = 50_000_000;
    let plan = data_plane_faults(FaultPlan::none().with_down_window(0, LINK_BACK));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 3, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            chunk_timeout_ns: 5_000_000,
            ..RetryPolicy::new(2, 5_000)
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(SIZE);
        let rbuf = rt.context().create_buffer(COUNT * 8);
        let mut codes = Vec::new();
        for round in 0..2 {
            buf.store(0, &vec![0u8; SIZE]).expect("in range");
            if p.rank() == 0 {
                buf.store(0, &pattern(SIZE, 21)).expect("in range");
            }
            rbuf.store(0, &f64s_to_bytes(&contrib(p.rank(), COUNT)))
                .expect("in range");
            let eb = rt
                .enqueue_bcast_buffer_as(
                    &q,
                    &buf,
                    0,
                    SIZE,
                    0,
                    1,
                    CollAlgo::Ring,
                    16 << 10,
                    &[],
                    &p.actor,
                )
                .expect("enqueue accepted");
            let er = rt
                .enqueue_allreduce_buffer_as(
                    &q,
                    &rbuf,
                    0,
                    COUNT,
                    ReduceOp::Sum,
                    1,
                    2048,
                    &[],
                    &p.actor,
                )
                .expect("enqueue accepted");
            eb.wait(&p.actor);
            er.wait(&p.actor);
            codes.push((eb.error_code(), er.error_code()));
            if round == 0 {
                // Sit out the rest of the outage, then line the ranks up.
                q.enqueue_kernel("outage", LINK_BACK, &[], || {})
                    .wait(&p.actor);
                p.comm.barrier(&p.actor);
            }
        }
        let got = (
            buf.load(0, SIZE).expect("in range").as_slice().to_vec(),
            bytes_to_f64s(rbuf.load(0, COUNT * 8).expect("in range").as_slice()),
        );
        rt.shutdown(&p.actor);
        (codes, got)
    });
    for (rank, (codes, (bytes, sums))) in res.outputs.iter().enumerate() {
        let dead = Some(CL_MPI_TRANSFER_ERROR);
        assert_eq!(codes[0], (dead, dead), "rank {rank}: outage fails both");
        assert_eq!(codes[1], (None, None), "rank {rank}: second round clean");
        assert!(bytes == &pattern(SIZE, 21), "rank {rank}: broadcast bytes");
        assert_eq!(
            sums,
            &reduced(3, COUNT, ReduceOp::Sum),
            "rank {rank}: reduced vector"
        );
    }
}

/// Ring broadcast 0 → 1 → 2 with node 2 dead: rank 1's forward of the
/// first chunk is undeliverable while it awaits a later chunk from the
/// (healthy) root, so its machine dies with that receive posted. The
/// root keeps streaming; a plain `irecv` on the broadcast's wire tag must
/// then see exactly the first chunk the dead machine did not store — a
/// receive left posted (or a matched message not handed back) would have
/// swallowed it and the plain receive would see the one after.
#[test]
fn forward_failure_mid_stream_hands_the_next_chunk_to_a_later_receive() {
    const SIZE: usize = 256 << 10;
    const CHUNK: usize = 16 << 10;
    const TAG: i32 = 4;
    let plan = FaultPlan::none().with_node_down(2, 0);
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 3, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            chunk_timeout_ns: 5_000_000,
            ..RetryPolicy::new(2, 5_000)
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(SIZE);
        buf.store(0, &vec![0u8; SIZE]).expect("in range");
        if p.rank() == 0 {
            buf.store(0, &pattern(SIZE, 33)).expect("in range");
        }
        let e = rt
            .enqueue_bcast_buffer_as(
                &q,
                &buf,
                0,
                SIZE,
                0,
                TAG,
                CollAlgo::Ring,
                CHUNK,
                &[],
                &p.actor,
            )
            .expect("enqueue accepted");
        e.wait(&p.actor);
        let next = (p.rank() == 1).then(|| {
            // Chunks land in the buffer as they arrive: the stored prefix
            // says which chunk the dead machine was waiting for.
            let have = buf.load(0, SIZE).expect("in range");
            let have = have.as_slice();
            let want = pattern(SIZE, 33);
            let stored = (0..SIZE / CHUNK)
                .take_while(|k| have[k * CHUNK..][..CHUNK] == want[k * CHUNK..][..CHUNK])
                .count();
            let wire_tag = clmpi::CLMPI_COLL_TAG_BASE + TAG;
            let msg = p
                .comm
                .irecv(&p.actor, Some(0), Some(wire_tag))
                .wait(&p.actor)
                .expect("a receive yields a payload");
            (stored, msg.data)
        });
        rt.shutdown(&p.actor);
        (e.error_code(), next)
    });
    assert_eq!(res.outputs[0].0, None, "the root's only child is alive");
    let (code, next) = &res.outputs[1];
    assert_eq!(*code, Some(CL_MPI_TRANSFER_ERROR), "the forward failed");
    let (stored, msg) = next.as_ref().expect("rank 1 probed");
    assert!(
        (1..SIZE / CHUNK).contains(stored),
        "the machine died mid-stream, after {stored} chunk(s)"
    );
    assert_eq!(msg[0], 3, "ring algorithm header");
    assert!(
        msg[1..] == pattern(SIZE, 33)[stored * CHUNK..][..CHUNK],
        "the later receive sees chunk {stored}, the first one not stored"
    );
}
