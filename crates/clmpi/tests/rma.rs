//! Differential epoch/fault battery for the one-sided RMA path.
//!
//! Three matrices prove the window commands end to end:
//!
//! * **Differential correctness** — Put / Get / Accumulate rounds at
//!   worlds {2, 3, 5, 8} on every fabric (Cichlid GbE, RICC IPoIB,
//!   CXL-Pod), bitwise against a host-side serial reference, each run
//!   reproducing its committed `ObsSummary` fingerprint and makespan;
//!   plus a halo exchange written with `Put` that must land
//!   bit-identical to the two-sided baseline.
//! * **Epoch properties** — seeded random epoch schedules (16 committed
//!   fingerprints) complete deterministically and never hang; epoch
//!   misuse returns the documented `MpiError`s;
//!   passive-target lock/unlock epochs compose with runtime windows.
//! * **Fault matrix** — 30% data-plane drops retransmit to completion on
//!   the NIC route; a node death mid-epoch fails the put event with
//!   `CL_MPI_TRANSFER_ERROR` (−1100), poisons dependents (−14) and
//!   quiesces; `classify_peer_error` → revoke → shrink recovers with a
//!   window still in flight on the abandoned communicator.

use clmpi::{ClMpi, ObsSummary, ReduceOp, SystemConfig, CL_MPI_TRANSFER_ERROR};
use minicl::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;
use minimpi::datatype::f64_as_bytes;
use minimpi::{run_world_faulty, FaultPlan, MpiError, Process, Win, RMA_TAG_BASE};
use simtime::{SimNs, XorShift64};

mod common;
use common::check_rows;

const WIN: usize = 2048; // exposed window bytes per rank
const SEG: usize = 512; // put/get slice
const ACC_OFF: usize = 1024; // f64 accumulate region (within the window)
const ACC_N: usize = 64; // f64 count (512 bytes)
const BUF: usize = 4096; // device buffer (window shadow + scratch)
const PUT_SCRATCH: usize = 2048; // staging slot for the outgoing put
const GET_LAND: usize = 2560; // landing slot for the incoming get
const ACC_SCRATCH: usize = 3072; // staging slot for the accumulate

/// Per-rank window seed; the accumulate region starts as f64 zeros so
/// the serial reference stays exact integer arithmetic.
fn seed_bytes(rank: usize) -> Vec<u8> {
    let mut v: Vec<u8> = (0..WIN)
        .map(|i| (rank as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect();
    for b in &mut v[ACC_OFF..ACC_OFF + ACC_N * 8] {
        *b = 0;
    }
    v
}

fn put_payload(rank: usize) -> Vec<u8> {
    (0..SEG)
        .map(|i| (rank as u8) ^ (i as u8).wrapping_mul(7))
        .collect()
}

/// Host-side serial reference: rank `rank`'s window contents after the
/// three epochs (ring of puts, ring of gets, all-to-root accumulate).
/// All accumulated values are small exact integers, so the f64 sums are
/// order-independent and bitwise reproducible.
fn expected_window(rank: usize, n: usize) -> Vec<u8> {
    let mut w = seed_bytes(rank);
    let left = (rank + n - 1) % n;
    w[..SEG].copy_from_slice(&put_payload(left));
    if rank == 0 {
        for i in 0..ACC_N {
            let v: f64 = (0..n).map(|r| (r * ACC_N + i) as f64).sum();
            w[ACC_OFF + i * 8..ACC_OFF + (i + 1) * 8].copy_from_slice(&v.to_le_bytes());
        }
    }
    w
}

/// One differential run: three fenced epochs of one-sided traffic, every
/// rank checked bitwise against the serial reference. Returns the
/// observability fingerprint and virtual makespan.
fn differential_run(world: usize, name: &'static str) -> (u64, SimNs) {
    let sys = SystemConfig::by_name(name).unwrap();
    let res = run_world_faulty(
        sys.cluster.clone(),
        world,
        FaultPlan::none(),
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::by_name(name).unwrap());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(BUF);
            buf.store(0, &seed_bytes(p.rank())).unwrap();
            let win = rt.expose_buffer_as_window(&buf, WIN, &p.actor).unwrap();
            let right = (p.rank() + 1) % world;
            let left = (p.rank() + world - 1) % world;

            // Epoch 1: ring of puts (my payload → right neighbor's head).
            buf.store(PUT_SCRATCH, &put_payload(p.rank())).unwrap();
            let e_put = rt
                .enqueue_put_buffer(&q, &win, false, PUT_SCRATCH, 0, SEG, right, &[], &p.actor)
                .unwrap();
            let f1 = rt
                .enqueue_win_fence(&win, false, std::slice::from_ref(&e_put), &p.actor)
                .unwrap();
            e_put.wait_result(&p.actor).unwrap();
            f1.wait_result(&p.actor).unwrap();

            // Epoch 2: ring of gets, reading what epoch 1 put at the left
            // neighbor — exercises fence-ordered visibility.
            let e_get = rt
                .enqueue_get_buffer(&q, &win, false, GET_LAND, 0, SEG, left, &[], &p.actor)
                .unwrap();
            let f2 = rt
                .enqueue_win_fence(&win, false, std::slice::from_ref(&e_get), &p.actor)
                .unwrap();
            e_get.wait_result(&p.actor).unwrap();
            f2.wait_result(&p.actor).unwrap();
            let got = buf.load(GET_LAND, SEG).unwrap().as_slice().to_vec();

            // Epoch 3: all ranks accumulate into rank 0 (exact integers).
            let vals: Vec<f64> = (0..ACC_N).map(|i| (p.rank() * ACC_N + i) as f64).collect();
            buf.store(ACC_SCRATCH, f64_as_bytes(&vals)).unwrap();
            let e_acc = rt
                .enqueue_accumulate_buffer(
                    &q,
                    &win,
                    false,
                    ACC_SCRATCH,
                    ACC_OFF,
                    ACC_N * 8,
                    0,
                    ReduceOp::Sum,
                    &[],
                    &p.actor,
                )
                .unwrap();
            let f3 = rt
                .enqueue_win_fence(&win, false, std::slice::from_ref(&e_acc), &p.actor)
                .unwrap();
            e_acc.wait_result(&p.actor).unwrap();
            f3.wait_result(&p.actor).unwrap();

            // Sync the settled window back into the device buffer and
            // snapshot both views.
            rt.window_to_buffer(&win, 0, WIN).unwrap();
            let shadow = buf.load(0, WIN).unwrap().as_slice().to_vec();
            assert_eq!(shadow, win.win().read_local(), "shadow sync is bitwise");
            q.finish(&p.actor);
            rt.shutdown(&p.actor);
            (shadow, got)
        },
    );
    for (r, (shadow, got)) in res.outputs.iter().enumerate() {
        assert_eq!(
            shadow,
            &expected_window(r, world),
            "window diverges from serial reference at {name} world={world} rank={r}"
        );
        let two_left = (r + world - 2) % world;
        assert_eq!(
            got,
            &put_payload(two_left),
            "get reads stale epoch data at {name} world={world} rank={r}"
        );
    }
    (ObsSummary::from_trace(&res.trace).hash(), res.elapsed_ns)
}

/// `(fabric, world, ObsSummary hash, makespan)` of [`differential_run`]
/// over worlds {2, 3, 4, 5, 8} on every fabric (Cichlid has four
/// physical nodes, so its rows stop at world 4). Recorded on the event
/// core and reproduced by the thread-per-machine executor before that
/// executor was retired.
#[rustfmt::skip]
const DIFFERENTIAL: &[(&str, usize, u64, SimNs)] = &[
    ("cichlid", 2, 0xf642de67f4a38181, 477335),
    ("cichlid", 3, 0x6b3ab415602d3d35, 591692),
    ("cichlid", 4, 0x901b8781228c7925, 626049),
    ("ricc", 2, 0xce111ba4d1504541, 321476),
    ("ricc", 3, 0xf951edecf3527031, 426870),
    ("ricc", 4, 0x5b8960048983eeb2, 467264),
    ("ricc", 5, 0x4898f1a45ca1a6d5, 572658),
    ("ricc", 8, 0xa10804a21006592e, 693840),
    ("cxl-pod", 2, 0x02818a6f15453cb3, 79020),
    ("cxl-pod", 3, 0xd072561f9cf224ea, 97856),
    ("cxl-pod", 4, 0x8916f8dadf2c58f5, 98692),
    ("cxl-pod", 5, 0x9dd2c6b2ec0202bd, 164576),
    ("cxl-pod", 8, 0xc9b28b4e4555c984, 189089),
];

/// The serial reference holds on every committed (fabric, world), and
/// each run reproduces its fingerprint exactly.
#[test]
fn put_get_accumulate_reproduce_their_committed_fingerprints() {
    check_rows(
        DIFFERENTIAL,
        |(name, world, ..)| {
            let (hash, elapsed) = differential_run(world, name);
            (name, world, hash, elapsed)
        },
        |(name, world, hash, elapsed)| format!("({name:?}, {world}, {hash:#018x}, {elapsed})"),
    );
}

const HALO: usize = 64; // ghost-cell bytes per side
const INTERIOR: usize = 1024;
const FIELD: usize = HALO + INTERIOR + HALO; // [left ghost | interior | right ghost]

fn field_seed(rank: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(0xF1E1D + rank as u64);
    (0..FIELD).map(|_| rng.next_u64() as u8).collect()
}

/// Ring halo exchange over `Put` windows vs the two-sided baseline: the
/// resulting fields must be bitwise identical.
#[test]
fn halo_exchange_via_put_matches_two_sided_baseline() {
    let world = 4;
    let one_sided = move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cxl_pod());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(FIELD);
        buf.store(0, &field_seed(p.rank())).unwrap();
        let win = rt.expose_buffer_as_window(&buf, FIELD, &p.actor).unwrap();
        let right = (p.rank() + 1) % world;
        let left = (p.rank() + world - 1) % world;
        // My right interior edge → right neighbor's left ghost; my left
        // interior edge → left neighbor's right ghost.
        let e1 = rt
            .enqueue_put_buffer(
                &q,
                &win,
                false,
                HALO + INTERIOR - HALO,
                0,
                HALO,
                right,
                &[],
                &p.actor,
            )
            .unwrap();
        let e2 = rt
            .enqueue_put_buffer(
                &q,
                &win,
                false,
                HALO,
                HALO + INTERIOR,
                HALO,
                left,
                &[],
                &p.actor,
            )
            .unwrap();
        let f = rt
            .enqueue_win_fence(&win, false, &[e1.clone(), e2.clone()], &p.actor)
            .unwrap();
        e1.wait_result(&p.actor).unwrap();
        e2.wait_result(&p.actor).unwrap();
        f.wait_result(&p.actor).unwrap();
        rt.window_to_buffer(&win, 0, FIELD).unwrap();
        let field = buf.load(0, FIELD).unwrap().as_slice().to_vec();
        rt.shutdown(&p.actor);
        field
    };
    let two_sided = move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cxl_pod());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(FIELD);
        buf.store(0, &field_seed(p.rank())).unwrap();
        let right = (p.rank() + 1) % world;
        let left = (p.rank() + world - 1) % world;
        let es1 = rt
            .enqueue_send_buffer(
                &q,
                &buf,
                false,
                HALO + INTERIOR - HALO,
                HALO,
                right,
                1,
                &[],
                &p.actor,
            )
            .unwrap();
        let es2 = rt
            .enqueue_send_buffer(&q, &buf, false, HALO, HALO, left, 2, &[], &p.actor)
            .unwrap();
        let er1 = rt
            .enqueue_recv_buffer(&q, &buf, false, 0, HALO, left, 1, &[], &p.actor)
            .unwrap();
        let er2 = rt
            .enqueue_recv_buffer(
                &q,
                &buf,
                false,
                HALO + INTERIOR,
                HALO,
                right,
                2,
                &[],
                &p.actor,
            )
            .unwrap();
        for e in [es1, es2, er1, er2] {
            e.wait_result(&p.actor).unwrap();
        }
        let field = buf.load(0, FIELD).unwrap().as_slice().to_vec();
        rt.shutdown(&p.actor);
        field
    };
    let sys = SystemConfig::cxl_pod();
    let a = run_world_faulty(sys.cluster.clone(), world, FaultPlan::none(), one_sided);
    let b = run_world_faulty(sys.cluster.clone(), world, FaultPlan::none(), two_sided);
    assert_eq!(
        a.outputs, b.outputs,
        "halo-via-Put must match the two-sided exchange bitwise"
    );
    for (r, field) in a.outputs.iter().enumerate() {
        let right = (r + 1) % world;
        let left = (r + world - 1) % world;
        let lf = field_seed(left);
        let rf = field_seed(right);
        assert_eq!(&field[..HALO], &lf[INTERIOR..HALO + INTERIOR], "left ghost");
        assert_eq!(
            &field[HALO + INTERIOR..],
            &rf[HALO..2 * HALO],
            "right ghost"
        );
        assert_eq!(
            &field[HALO..HALO + INTERIOR],
            &field_seed(r)[HALO..HALO + INTERIOR],
            "interior untouched"
        );
    }
}

// ---------------------------------------------------------------------
// Epoch properties
// ---------------------------------------------------------------------

const PROP_BUF: usize = 8192;

/// One seeded random epoch schedule: every rank derives the same global
/// plan, executes its own slice, and closes each epoch with a collective
/// fence. All parameters are in range, so every op and fence must settle
/// `Ok` — and the whole run must reproduce its committed row.
fn epoch_schedule_fingerprint(seed: u64) -> (u64, SimNs) {
    let world = 4;
    let res = run_world_faulty(
        SystemConfig::cxl_pod().cluster.clone(),
        world,
        FaultPlan::none(),
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::cxl_pod());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(PROP_BUF);
            buf.store(0, &seed_bytes(p.rank())).unwrap();
            let win = rt.expose_buffer_as_window(&buf, WIN, &p.actor).unwrap();
            let mut rng = XorShift64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
            let epochs = 2 + (rng.next_u64() % 3) as usize;
            for _ in 0..epochs {
                // The full world's plan, derived identically everywhere;
                // each rank executes only its own ops.
                let mut events = Vec::new();
                for r in 0..world {
                    let nops = (rng.next_u64() % 4) as usize;
                    for slot in 0..nops {
                        let kind = rng.next_u64() % 3;
                        let target = (rng.next_u64() as usize) % world;
                        let size = 8 * (1 + (rng.next_u64() as usize) % 32); // 8..=256
                        let win_off = 8 * ((rng.next_u64() as usize) % ((WIN - size) / 8));
                        if r != p.rank() {
                            continue;
                        }
                        let e = match kind {
                            0 => {
                                let data: Vec<u8> =
                                    (0..size).map(|i| (seed as u8) ^ (i as u8)).collect();
                                buf.store(PUT_SCRATCH + slot * 512, &data).unwrap();
                                rt.enqueue_put_buffer(
                                    &q,
                                    &win,
                                    false,
                                    PUT_SCRATCH + slot * 512,
                                    win_off,
                                    size,
                                    target,
                                    &[],
                                    &p.actor,
                                )
                            }
                            1 => rt.enqueue_get_buffer(
                                &q,
                                &win,
                                false,
                                4096 + slot * 512,
                                win_off,
                                size,
                                target,
                                &[],
                                &p.actor,
                            ),
                            _ => {
                                let vals: Vec<f64> =
                                    (0..size / 8).map(|i| (i % 7) as f64).collect();
                                buf.store(6144 + slot * 512, f64_as_bytes(&vals)).unwrap();
                                rt.enqueue_accumulate_buffer(
                                    &q,
                                    &win,
                                    false,
                                    6144 + slot * 512,
                                    win_off,
                                    size,
                                    target,
                                    ReduceOp::Sum,
                                    &[],
                                    &p.actor,
                                )
                            }
                        }
                        .expect("in-range op enqueues");
                        events.push(e);
                    }
                }
                let f = rt
                    .enqueue_win_fence(&win, false, &events, &p.actor)
                    .unwrap();
                for e in &events {
                    e.wait_result(&p.actor).expect("in-range op settles Ok");
                }
                f.wait_result(&p.actor).expect("fence settles Ok");
            }
            rt.shutdown(&p.actor);
        },
    );
    (ObsSummary::from_trace(&res.trace).hash(), res.elapsed_ns)
}

/// `(seed, ObsSummary hash, makespan)` of [`epoch_schedule_fingerprint`],
/// recorded and certified like [`DIFFERENTIAL`].
#[rustfmt::skip]
const EPOCH_SCHEDULES: &[(u64, u64, SimNs)] = &[
    (0, 0x34360e74fbe54bb8, 158060),
    (1, 0xbcebd21191093da7, 124043),
    (2, 0x1708ca8617715d81, 161081),
    (3, 0xae9e825d7147e5e7, 134105),
    (4, 0x5d37b332166d05e5, 131485),
    (5, 0x5adff3a39a9da4eb, 95455),
    (6, 0x0f4530d13c3a429b, 96049),
    (7, 0x0f5f09bee5d0747c, 126048),
    (8, 0xc76889bbb06056d3, 156102),
    (9, 0xe9cea83f20fe24b1, 158257),
    (10, 0x6ee1e10691f5a9f6, 159309),
    (11, 0x3c22b276e54154c6, 131072),
    (12, 0xdaf201145b997d8b, 95451),
    (13, 0x53c60c8d514c237f, 98447),
    (14, 0x2f09af065e6d594b, 156473),
    (15, 0xbfe2985b6ebfcc0e, 157490),
];

/// 16 random epoch schedules: committed fingerprints and makespans, no
/// hangs, no spurious errors.
#[test]
fn random_epoch_schedules_reproduce_their_committed_fingerprints() {
    check_rows(
        EPOCH_SCHEDULES,
        |(seed, ..)| {
            let (hash, elapsed) = epoch_schedule_fingerprint(seed);
            (seed, hash, elapsed)
        },
        |(seed, hash, elapsed)| format!("({seed}, {hash:#018x}, {elapsed})"),
    );
}

/// Epoch misuse returns the documented `MpiError`s — it never hangs and
/// never panics.
#[test]
fn epoch_misuse_returns_documented_errors() {
    let res = run_world_faulty(
        SystemConfig::cxl_pod().cluster.clone(),
        2,
        FaultPlan::none(),
        |p: Process| {
            let w = Win::create(&p.comm, &p.actor, 256).unwrap();
            // No epoch open yet: access is refused.
            assert!(matches!(
                w.put(1 - p.rank(), 0, &[1u8; 8]),
                Err(MpiError::RmaNoEpoch { .. })
            ));
            // Rank out of range beats the epoch check.
            assert!(matches!(
                w.put(9, 0, &[1u8; 8]),
                Err(MpiError::RankOutOfRange { .. })
            ));
            w.fence(&p.actor).unwrap();
            // Out-of-range window access inside an open epoch.
            assert!(matches!(
                w.put(1 - p.rank(), 250, &[1u8; 8]),
                Err(MpiError::RmaOutOfRange { .. })
            ));
            // Unaligned accumulate.
            assert!(matches!(
                w.accumulate(1 - p.rank(), 0, &[1u8; 7], ReduceOp::Sum),
                Err(MpiError::Truncated { .. })
            ));
            // Nested lock of one target; unlock of an unheld target.
            w.lock(&p.actor, 1 - p.rank()).unwrap();
            assert!(matches!(
                w.lock(&p.actor, 1 - p.rank()),
                Err(MpiError::RmaAlreadyLocked { .. })
            ));
            w.unlock(&p.actor, 1 - p.rank()).unwrap();
            assert!(matches!(
                w.unlock(&p.actor, 1 - p.rank()),
                Err(MpiError::RmaNotLocked { .. })
            ));
            w.fence(&p.actor).unwrap();
            p.rank()
        },
    );
    assert_eq!(res.outputs.len(), 2);
}

/// Passive-target lock/put/unlock epochs compose with runtime windows:
/// each rank locks its right neighbor, puts its tile, and unlocks; after
/// a barrier every segment holds exactly its left neighbor's tile.
#[test]
fn passive_target_lock_epochs_deliver() {
    let world = 4;
    let res = run_world_faulty(
        SystemConfig::cxl_pod().cluster.clone(),
        world,
        FaultPlan::none(),
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::cxl_pod());
            let buf = rt.context().create_buffer(WIN);
            buf.store(0, &vec![0u8; WIN]).unwrap();
            let win = rt.expose_buffer_as_window(&buf, WIN, &p.actor).unwrap();
            let right = (p.rank() + 1) % world;
            let w = win.win();
            w.lock(&p.actor, right).unwrap();
            let h = w
                .put(right, p.rank() * 64, &put_payload(p.rank())[..64])
                .unwrap();
            w.unlock(&p.actor, right).unwrap();
            assert!(h.settled(), "unlock settles every op to the target");
            p.comm.barrier(&p.actor);
            let seg = w.read_local();
            rt.shutdown(&p.actor);
            seg
        },
    );
    for (r, seg) in res.outputs.iter().enumerate() {
        let left = (r + world - 1) % world;
        assert_eq!(
            &seg[left * 64..left * 64 + 64],
            &put_payload(left)[..64],
            "rank {r} must hold its left neighbor's tile"
        );
    }
}

// ---------------------------------------------------------------------
// Fault matrix
// ---------------------------------------------------------------------

/// Heavy data-plane drops (scoped to the RMA tag plane) on the NIC
/// route: every one-sided transfer retransmits to completion, the drops
/// and retries are observable, and the delivered bytes are intact.
#[test]
fn lossy_nic_rma_retransmits_and_completes() {
    let plan = FaultPlan::drops(1311, 0.50).with_tag_floor(RMA_TAG_BASE);
    let size = 256 << 10;
    let slice = size / 8; // eight puts → many independent drop rolls
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        2,
        plan,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(size);
            let win = rt.expose_buffer_as_window(&buf, size, &p.actor).unwrap();
            if p.rank() == 0 {
                buf.store(0, &vec![0xA5u8; size]).unwrap();
                for i in 0..8 {
                    let e = rt
                        .enqueue_put_buffer(
                            &q,
                            &win,
                            false,
                            i * slice,
                            i * slice,
                            slice,
                            1,
                            &[],
                            &p.actor,
                        )
                        .unwrap();
                    e.wait_result(&p.actor)
                        .expect("put must retransmit through 50% loss");
                }
            }
            let f = rt.enqueue_win_fence(&win, false, &[], &p.actor).unwrap();
            f.wait_result(&p.actor).expect("fence after lossy epoch");
            let seg = win.win().read_local();
            rt.shutdown(&p.actor);
            seg
        },
    );
    assert_eq!(
        res.outputs[1],
        vec![0xA5u8; size],
        "payload must arrive intact"
    );
    assert!(
        res.fault_counts.dropped() > 0,
        "the plan must actually have dropped RMA transfers"
    );
    let s = ObsSummary::from_trace(&res.trace);
    let r0 = s.ranks[&0];
    assert!(r0.chunk_drops > 0, "drops must be visible in the summary");
    assert!(
        r0.chunk_retries > 0,
        "retries must be visible in the summary"
    );
    assert_eq!(
        r0.rma_bytes, size as u64,
        "delivered put bytes counted once"
    );
}

/// A node death mid-epoch: the in-flight put fails its event with
/// `CL_MPI_TRANSFER_ERROR` (−1100), commands gated on it are poisoned
/// with −14, the closing fence reports the latched epoch error, and the
/// world quiesces instead of hanging.
#[test]
fn node_down_mid_epoch_poisons_dependents_and_quiesces() {
    let t_kill: SimNs = 1_000_000;
    let plan = FaultPlan::none().with_node_down(2, t_kill);
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        3,
        plan,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(64 << 10);
            let win = rt
                .expose_buffer_as_window(&buf, 64 << 10, &p.actor)
                .unwrap();
            // Pad past the scheduled death so the epoch is provably open
            // when the fabric loses node 2.
            q.enqueue_kernel("pad", 2 * t_kill, &[], || {})
                .wait(&p.actor);
            let codes = if p.rank() != 2 {
                let e = rt
                    .enqueue_put_buffer(&q, &win, false, 0, 0, 64 << 10, 2, &[], &p.actor)
                    .unwrap();
                let dep = q.enqueue_kernel("after-put", 1_000, std::slice::from_ref(&e), || {});
                let f = rt.enqueue_win_fence(&win, false, &[], &p.actor).unwrap();
                e.wait(&p.actor);
                dep.wait(&p.actor);
                f.wait(&p.actor);
                (e.error_code(), dep.error_code(), f.error_code())
            } else {
                let f = rt.enqueue_win_fence(&win, false, &[], &p.actor).unwrap();
                f.wait(&p.actor);
                (None, None, f.error_code())
            };
            let failed = rt.failed_ranks(p.actor.now_ns());
            rt.shutdown(&p.actor);
            (codes, failed)
        },
    );
    for r in [0usize, 1] {
        let ((put, dep, fence), failed) = &res.outputs[r];
        assert_eq!(
            *put,
            Some(CL_MPI_TRANSFER_ERROR),
            "rank {r} put fails −1100"
        );
        assert_eq!(
            *dep,
            Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
            "rank {r} dependent poisoned −14"
        );
        assert_eq!(
            *fence,
            Some(CL_MPI_TRANSFER_ERROR),
            "rank {r} fence reports the latched epoch error"
        );
        assert_eq!(failed, &vec![2], "rank {r} records the dead peer");
    }
}

/// Recovery with a window in flight: survivors classify the stall as a
/// process failure, notify, revoke and shrink, then open a fresh window
/// on the survivor communicator and complete a ring of puts on it. The
/// abandoned window (with its failed epoch) is simply dropped.
#[test]
fn rma_epoch_recovers_via_classify_revoke_shrink() {
    let t_kill: SimNs = 1_000_000;
    const PATIENCE: SimNs = 5_000_000_000;
    let plan = FaultPlan::none().with_node_down(3, t_kill);
    let world = 4;
    let res = run_world_faulty(
        SystemConfig::ricc().cluster.clone(),
        world,
        plan,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(WIN);
            let win = rt.expose_buffer_as_window(&buf, WIN, &p.actor).unwrap();
            q.enqueue_kernel("pad", 2 * t_kill, &[], || {})
                .wait(&p.actor);
            if p.comm.world().node_down_at(p.rank(), p.actor.now_ns()) {
                rt.shutdown(&p.actor);
                return Vec::new(); // the victim exits
            }
            // A window op in flight toward the dead rank.
            let e = rt
                .enqueue_put_buffer(&q, &win, false, 0, 0, 256, 3, &[], &p.actor)
                .unwrap();
            assert!(e.wait_result(&p.actor).is_err(), "put to a dead rank fails");
            // Classify the failure against the fault plan, then recover.
            let classified =
                p.comm
                    .classify_peer_error(3, p.actor.now_ns(), MpiError::Timeout { waited_ns: 0 });
            assert!(matches!(classified, MpiError::ProcFailed { rank: 3 }));
            for r in rt.failed_ranks(p.actor.now_ns()) {
                rt.notify_proc_failure(r);
            }
            rt.revoke();
            let sub = rt
                .shrink_comm(&p.actor, PATIENCE)
                .expect("survivors agree on the shrunken communicator");
            rt.shutdown(&p.actor);
            // A fresh window over the survivor communicator must work.
            let rt2 = ClMpi::with_comm(sub, SystemConfig::ricc());
            let q2 = rt2.context().create_queue(0, format!("r{}b", p.rank()));
            let buf2 = rt2.context().create_buffer(WIN);
            buf2.store(0, &vec![0u8; WIN]).unwrap();
            let win2 = rt2.expose_buffer_as_window(&buf2, WIN, &p.actor).unwrap();
            let n = rt2.comm().size();
            let me = rt2.comm().rank();
            let right = (me + 1) % n;
            buf2.store(PUT_SCRATCH.min(WIN - 64), &put_payload(me)[..64])
                .unwrap();
            let e2 = rt2
                .enqueue_put_buffer(
                    &q2,
                    &win2,
                    false,
                    PUT_SCRATCH.min(WIN - 64),
                    me * 64,
                    64,
                    right,
                    &[],
                    &p.actor,
                )
                .unwrap();
            let f2 = rt2
                .enqueue_win_fence(&win2, false, std::slice::from_ref(&e2), &p.actor)
                .unwrap();
            e2.wait_result(&p.actor).expect("put on survivors succeeds");
            f2.wait_result(&p.actor)
                .expect("fence on survivors succeeds");
            let seg = win2.win().read_local();
            rt2.shutdown(&p.actor);
            seg
        },
    );
    let survivors: Vec<&Vec<u8>> = res.outputs.iter().filter(|o| !o.is_empty()).collect();
    assert_eq!(survivors.len(), 3, "three survivors recover");
    for (sr, seg) in survivors.iter().enumerate() {
        let left = (sr + 2) % 3;
        assert_eq!(
            &seg[left * 64..left * 64 + 64],
            &put_payload(left)[..64],
            "survivor {sr} holds its left neighbor's tile on the new window"
        );
    }
}
