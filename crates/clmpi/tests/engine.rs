//! Integration tests for the progress engine: event-DAG ordering across
//! CL events and MPI requests, failure poisoning through the DAG, and
//! determinism of virtual-time outcomes across repeated lossy runs.

use clmpi::{data_plane_faults, ClMpi, RetryPolicy, SystemConfig, TransferStrategy};
use minicl::{CL_MPI_TRANSFER_ERROR, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST};
use minimpi::{run_world_faulty, run_world_sized, FaultPlan, Process};
use simtime::{SimNs, XorShift64};

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A diamond DAG mixing both dependency kinds the engine multiplexes:
///
/// ```text
///        rank 0                      rank 1
///   kernel K ──┬─► send #1 ─────► recv #1 ──┬─► kernel J
///              └─► send #2 ─────► recv #2 ──┤
///   plain MPI isend #7 ─► event_from_request ┘
/// ```
///
/// Kernel J must start only after both device transfers landed *and* the
/// wrapped plain-MPI request completed; all three legs progress on one
/// engine per rank with no host blocking.
#[test]
fn diamond_dag_orders_cl_events_and_mpi_requests() {
    const SIZE: usize = 1 << 20;
    let cluster = SystemConfig::cichlid().cluster.clone();
    let res = run_world_sized(cluster, 2, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cichlid());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(2 * SIZE);
        if p.rank() == 0 {
            buf.store(0, &pattern(SIZE, 1)).unwrap();
            buf.store(SIZE, &pattern(SIZE, 2)).unwrap();
            // Top of the diamond: a kernel "producing" both halves.
            let ek = q.enqueue_kernel("produce", 2_000_000, &[], || {});
            let wait = [ek];
            let e1 = rt
                .enqueue_send_buffer(&q, &buf, false, 0, SIZE, 1, 1, &wait, &p.actor)
                .unwrap();
            let e2 = rt
                .enqueue_send_buffer(&q, &buf, false, SIZE, SIZE, 1, 2, &wait, &p.actor)
                .unwrap();
            // Third leg: a plain (non-clMPI) message the receiver wraps
            // into an event.
            p.comm.send(&p.actor, 1, 7, &pattern(64, 3));
            e1.wait(&p.actor);
            e2.wait(&p.actor);
            let produced_at = wait[0].completion_time().expect("kernel completed");
            assert!(
                e1.completion_time().expect("send 1 completed") > produced_at
                    && e2.completion_time().expect("send 2 completed") > produced_at,
                "sends must start only after the producing kernel"
            );
            rt.shutdown(&p.actor);
            (true, 0)
        } else {
            let e1 = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, SIZE, 0, 1, &[], &p.actor)
                .unwrap();
            let e2 = rt
                .enqueue_recv_buffer(&q, &buf, false, SIZE, SIZE, 0, 2, &[], &p.actor)
                .unwrap();
            let req = p.comm.irecv(&p.actor, Some(0), Some(7));
            let (em, outcome) = rt.event_from_request(req);
            // Bottom of the diamond: a kernel gated on all three legs.
            let ej = q.enqueue_kernel(
                "consume",
                1_000_000,
                &[e1.clone(), e2.clone(), em.clone()],
                || {},
            );
            ej.wait(&p.actor);
            for (e, name) in [(&e1, "recv 1"), (&e2, "recv 2"), (&em, "mpi request")] {
                assert!(!e.is_failed(), "{name} must complete");
                assert!(
                    ej.completion_time().expect("kernel completed")
                        >= e.completion_time().unwrap_or_else(|| panic!("{name}")),
                    "consuming kernel must run after {name}"
                );
            }
            assert_eq!(buf.load(0, SIZE).unwrap().as_slice(), pattern(SIZE, 1));
            assert_eq!(buf.load(SIZE, SIZE).unwrap().as_slice(), pattern(SIZE, 2));
            let payload = outcome.take().expect("wrapped receive carries payload");
            assert_eq!(payload.data, pattern(64, 3));
            rt.shutdown(&p.actor);
            (true, payload.data.len())
        }
    });
    assert!(res.outputs.iter().all(|&(ok, _)| ok));
    assert_eq!(res.outputs[1].1, 64);
}

/// A transfer that fails permanently (retry budget exhausted on a
/// black-hole fabric) must poison every command gated on its event:
/// the failed transfer reports `CL_MPI_TRANSFER_ERROR`, its dependents
/// `CL_EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST` — transitively.
#[test]
fn permanent_failure_poisons_dependent_commands() {
    let plan = data_plane_faults(FaultPlan::drops(11, 1.0));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            max_attempts: 2,
            chunk_timeout_ns: 50_000_000,
            ..RetryPolicy::default()
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(1 << 16);
        let codes = if p.rank() == 0 {
            rt.set_forced_strategy(Some(TransferStrategy::Pinned));
            let e1 = rt
                .enqueue_send_buffer(&q, &buf, false, 0, 1 << 16, 1, 1, &[], &p.actor)
                .unwrap();
            let e2 = rt
                .enqueue_send_buffer(
                    &q,
                    &buf,
                    false,
                    0,
                    1 << 16,
                    1,
                    2,
                    std::slice::from_ref(&e1),
                    &p.actor,
                )
                .unwrap();
            let e3 = rt
                .enqueue_send_buffer(
                    &q,
                    &buf,
                    false,
                    0,
                    1 << 16,
                    1,
                    3,
                    std::slice::from_ref(&e2),
                    &p.actor,
                )
                .unwrap();
            e3.wait(&p.actor);
            (e1.error_code(), e2.error_code(), e3.error_code())
        } else {
            (None, None, None)
        };
        rt.shutdown(&p.actor);
        codes
    });
    let (c1, c2, c3) = res.outputs[0];
    assert_eq!(c1, Some(CL_MPI_TRANSFER_ERROR), "root failure is -1100");
    assert_eq!(
        c2,
        Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
        "direct dependent is poisoned with -14"
    );
    assert_eq!(
        c3,
        Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
        "poisoning propagates transitively"
    );
}

/// A zero attempt budget is a budget of one, as `RetryPolicy::new` reads
/// it: on a black-hole fabric the send fails after one drop and no
/// retransmission, instead of retransmitting forever. Watchdogged: a
/// budget that never runs out keeps the world running.
#[test]
fn a_zero_attempt_budget_fails_after_one_drop() {
    let (tx, rx) = std::sync::mpsc::channel();
    let world = std::thread::spawn(move || {
        let plan = data_plane_faults(FaultPlan::drops(11, 1.0));
        let cluster = SystemConfig::ricc().cluster.clone();
        let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            rt.set_retry_policy(RetryPolicy {
                max_attempts: 0,
                chunk_timeout_ns: 50_000_000,
                ..RetryPolicy::default()
            });
            rt.set_forced_strategy(Some(TransferStrategy::Pinned));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(1 << 16);
            let code = if p.rank() == 0 {
                let e = rt.enqueue_send_buffer(&q, &buf, false, 0, 1 << 16, 1, 1, &[], &p.actor);
                e.map(|e| {
                    e.wait(&p.actor);
                    e.error_code()
                })
            } else {
                Ok(None)
            };
            let faults = rt.obs_counters().faults;
            rt.shutdown(&p.actor);
            (code, faults.chunk_drops, faults.retries)
        });
        let _ = tx.send(res.outputs[0].clone());
    });
    let sender = rx.recv_timeout(std::time::Duration::from_secs(20));
    assert_eq!(sender, Ok((Ok(Some(CL_MPI_TRANSFER_ERROR)), 1, 0)));
    assert!(world.join().is_ok());
}

/// A chunk patience that would end past the last instant is no deadline:
/// a receive posted after time has passed waits for its chunk instead of
/// timing out at once.
#[test]
fn a_chunk_patience_past_the_last_instant_is_no_deadline() {
    // Jitter alone puts the world under a fault plan, which arms the
    // patience, and drops nothing.
    let plan = data_plane_faults(FaultPlan::none().with_jitter(1_000));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            chunk_timeout_ns: SimNs::MAX,
            ..RetryPolicy::default()
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(1 << 16);
        // The receive is posted at 1 µs, so `now + patience` overflows;
        // the chunk comes at 1 ms.
        p.actor
            .advance_ns(if p.rank() == 0 { 1_000_000 } else { 1_000 });
        let e = if p.rank() == 0 {
            rt.enqueue_send_buffer(&q, &buf, false, 0, 1 << 16, 1, 1, &[], &p.actor)
        } else {
            rt.enqueue_recv_buffer(&q, &buf, false, 0, 1 << 16, 0, 1, &[], &p.actor)
        };
        let code = e.map(|e| {
            e.wait(&p.actor);
            e.error_code()
        });
        rt.shutdown(&p.actor);
        code
    });
    assert_eq!(res.outputs, [Ok(None), Ok(None)]);
}

/// The determinism claim of the engine design: virtual-time outcomes
/// (final elapsed time, payload integrity, retry-shaped completion
/// times) depend only on the seeded fault plan, never on host-thread
/// interleaving. Sixteen seeds, each run twice; both runs must agree
/// exactly.
#[test]
fn lossy_runs_are_deterministic_across_reruns() {
    const SIZE: usize = 1 << 18;
    let run = |seed: u64| {
        let plan = data_plane_faults(FaultPlan::drops(seed, 0.05));
        let cluster = SystemConfig::ricc().cluster.clone();
        let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 16)));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(SIZE);
            let digest = if p.rank() == 0 {
                buf.store(0, &pattern(SIZE, seed ^ 0xabc)).unwrap();
                let e = rt
                    .enqueue_send_buffer(&q, &buf, false, 0, SIZE, 1, 1, &[], &p.actor)
                    .unwrap();
                // A host-side leg races the device-side one on the same
                // engine.
                let hreq = rt.isend_cl(&p.actor, 1, 2, &pattern(1 << 12, seed));
                e.wait(&p.actor);
                hreq.wait(&p.actor);
                e.completion_time().unwrap_or(0)
            } else {
                let e = rt
                    .enqueue_recv_buffer(&q, &buf, false, 0, SIZE, 0, 1, &[], &p.actor)
                    .unwrap();
                let hreq = rt.irecv_cl(&p.actor, 0, 2, 1 << 12);
                e.wait(&p.actor);
                hreq.event.wait(&p.actor);
                let body = buf.load(0, SIZE).unwrap();
                let host = hreq.data.read(|h| h.as_slice().to_vec());
                assert_eq!(body.as_slice(), pattern(SIZE, seed ^ 0xabc));
                assert_eq!(host, pattern(1 << 12, seed));
                e.completion_time().unwrap_or(0)
            };
            rt.shutdown(&p.actor);
            digest
        });
        (
            res.elapsed_ns,
            res.outputs.clone(),
            res.fault_counts.dropped(),
        )
    };
    for seed in 0..16u64 {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(
            a, b,
            "seed {seed}: two runs of the same world must agree exactly"
        );
    }
}

// ----------------------------------------------------------------------
// The settlement protocol, pinned per entry point
// ----------------------------------------------------------------------

mod protocol {
    use std::sync::Arc;

    use clmpi::{
        data_plane_faults, encode_checkpoint, AdaptiveSelector, ClMpi, ClWindow, CollAlgo,
        CollTuning, CollectiveSelector, PackMode, PeerSelector, ReduceOp, RetryPolicy, SimStorage,
        SystemConfig, TransferStrategy,
    };
    use minicl::{
        Buffer, ClError, CommandQueue, Event, CL_MPI_TRANSFER_ERROR,
        EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST,
    };
    use minimpi::{run_world_faulty, DerivedType, FaultPlan, Process, Tag};
    use simtime::Actor;

    /// Payload of every row: one size class for all four selectors.
    const SIZE: usize = 16 << 10;

    /// When the dead-link scenario kills a one-sided row's target node:
    /// after the collective window creation, before the command is issued.
    const KILL_AT: u64 = 1_000_000;

    /// Everything a row needs to issue its command on one rank.
    struct Cx<'a> {
        rt: &'a ClMpi,
        q: &'a CommandQueue,
        buf: &'a Buffer,
        win: &'a ClWindow,
        disk: &'a SimStorage,
        p: &'a Process,
    }

    /// How a row's entry point treats a failed wait-list event.
    #[derive(Clone, Copy, PartialEq)]
    enum Gate {
        /// The command is poisoned with −14 (the nine gating machines).
        Poisons,
        /// The file commands only order on settlement and run anyway.
        RunsAnyway,
        /// The entry point takes no wait list.
        None,
    }

    /// One entry point (or the two halves of a matched pair: rank 0
    /// issues the first, rank 1 the second).
    struct Row {
        name: &'static str,
        /// `op.*` category of the envelope each rank's command leaves;
        /// `None` where the rank issues nothing or the command is
        /// untraced (write / read file).
        cat: [Option<&'static str>; 2],
        gate: Gate,
        /// Does the rank's command fail in [`Scenario::DeadLink`]?
        wire: [bool; 2],
        /// Does the rank's command report to an installed selector?
        told: [bool; 2],
        /// Is the command's own input unusable (a missing file), so that
        /// it fails with −1100 whatever the scenario?
        rejects: bool,
        /// Issue the command gated on `wait`, see it settle, and return
        /// its error code (`Some(None)`: success; `None`: nothing issued).
        issue: fn(&Cx, &[Event]) -> Option<Option<i32>>,
    }

    fn accepted(e: minicl::ClResult<Event>) -> Event {
        e.expect("enqueue accepted")
    }

    /// What a [`Cx`] borrows: one rank's runtime (short chunk patience,
    /// two attempts), queue, `SIZE`-byte buffer exposed as a window, disk.
    struct Rig {
        rt: ClMpi,
        q: CommandQueue,
        buf: Buffer,
        win: ClWindow,
        disk: SimStorage,
    }

    impl Rig {
        fn new(p: &Process) -> Rig {
            let rt = ClMpi::new(p, SystemConfig::ricc());
            rt.set_retry_policy(RetryPolicy {
                chunk_timeout_ns: 2_000_000,
                ..RetryPolicy::new(2, 5_000)
            });
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(SIZE);
            let win = rt
                .expose_buffer_as_window(&buf, SIZE, &p.actor)
                .expect("window exposed");
            let disk = SimStorage::node_local_disk(p.clock().clone());
            Rig {
                rt,
                q,
                buf,
                win,
                disk,
            }
        }

        fn cx<'a>(&'a self, p: &'a Process) -> Cx<'a> {
            Cx {
                rt: &self.rt,
                q: &self.q,
                buf: &self.buf,
                win: &self.win,
                disk: &self.disk,
                p,
            }
        }
    }

    fn settled(e: minicl::ClResult<Event>, cx: &Cx) -> Option<Option<i32>> {
        let e = accepted(e);
        e.wait(&cx.p.actor);
        Some(e.error_code())
    }

    fn code(r: minicl::ClResult<()>) -> Option<Option<i32>> {
        Some(r.err().map(|_| CL_MPI_TRANSFER_ERROR))
    }

    fn strided() -> minimpi::CommittedType {
        DerivedType::Vector {
            count: 16,
            blocklen: 256,
            stride: 1024,
            extent: SIZE,
        }
        .commit()
        .expect("valid shape")
    }

    fn datatype(cx: &Cx, w: &[Event], mode: PackMode) -> Option<Option<i32>> {
        let (rt, q, buf, a) = (cx.rt, cx.q, cx.buf, &cx.p.actor);
        let e = if cx.p.rank() == 0 {
            rt.enqueue_send_datatype(q, buf, false, 0, &strided(), mode, 1, 3, w, a)
        } else {
            rt.enqueue_recv_datatype(q, buf, false, 0, &strided(), mode, 0, 3, w, a)
        };
        settled(e, cx)
    }

    fn rows() -> Vec<Row> {
        const BOTH: [bool; 2] = [true, true];
        const NEITHER: [bool; 2] = [false, false];
        const ORIGIN: [bool; 2] = [true, false];
        vec![
            Row {
                name: "enqueue_send_buffer | enqueue_recv_buffer",
                cat: [Some("op.send"), Some("op.recv")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: BOTH,
                rejects: false,
                issue: |cx, w| {
                    let (rt, q, buf, a) = (cx.rt, cx.q, cx.buf, &cx.p.actor);
                    let e = if cx.p.rank() == 0 {
                        rt.enqueue_send_buffer(q, buf, false, 0, SIZE, 1, 3, w, a)
                    } else {
                        rt.enqueue_recv_buffer(q, buf, false, 0, SIZE, 0, 3, w, a)
                    };
                    settled(e, cx)
                },
            },
            // The datatype paths pick their wire strategy from the pack
            // mode, never from the selector, so nobody is told.
            Row {
                name: "enqueue_send_datatype | enqueue_recv_datatype (host-pack)",
                cat: [Some("op.send"), Some("op.recv")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| datatype(cx, w, PackMode::HostPack),
            },
            Row {
                name: "enqueue_send_datatype | enqueue_recv_datatype (device-pack)",
                cat: [Some("op.send"), Some("op.recv")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| datatype(cx, w, PackMode::DevicePack),
            },
            Row {
                name: "enqueue_send_datatype | enqueue_recv_datatype (pipelined-pack)",
                cat: [Some("op.send"), Some("op.recv")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| datatype(cx, w, PackMode::PipelinedPack),
            },
            Row {
                name: "gpu_aware_send | gpu_aware_recv",
                cat: [Some("op.send"), Some("op.recv")],
                gate: Gate::None,
                wire: BOTH,
                told: BOTH,
                rejects: false,
                issue: |cx, _| {
                    let (rt, q, buf, a) = (cx.rt, cx.q, cx.buf, &cx.p.actor);
                    code(if cx.p.rank() == 0 {
                        rt.gpu_aware_send(a, q, buf, 0, SIZE, 1, 3)
                    } else {
                        rt.gpu_aware_recv(a, q, buf, 0, SIZE, 0, 3)
                    })
                },
            },
            Row {
                name: "isend_cl | irecv_cl",
                cat: [Some("op.isend"), Some("op.irecv")],
                gate: Gate::None,
                wire: BOTH,
                told: NEITHER,
                rejects: false,
                issue: |cx, _| {
                    if cx.p.rank() == 0 {
                        let req = cx.rt.isend_cl(&cx.p.actor, 1, 3, &[7u8; SIZE]);
                        code(req.wait_result(&cx.p.actor))
                    } else {
                        settled(Ok(cx.rt.irecv_cl(&cx.p.actor, 0, 3, SIZE).event), cx)
                    }
                },
            },
            Row {
                name: "event_from_request",
                cat: [Some("op.request"), Some("op.request")],
                gate: Gate::None,
                wire: NEITHER, // plain MPI tags sit below the data plane
                told: NEITHER,
                rejects: false,
                issue: |cx, _| {
                    let a = &cx.p.actor;
                    let req = if cx.p.rank() == 0 {
                        cx.p.comm.isend(a, 1, 9, &[1u8; 64])
                    } else {
                        cx.p.comm.irecv(a, Some(0), Some(9))
                    };
                    settled(Ok(cx.rt.event_from_request(req).0), cx)
                },
            },
            Row {
                name: "enqueue_put_buffer",
                cat: [Some("op.put"), None],
                gate: Gate::Poisons,
                wire: ORIGIN,
                told: ORIGIN,
                rejects: false,
                issue: |cx, w| {
                    if cx.p.rank() != 0 {
                        return None;
                    }
                    let e = cx.rt.enqueue_put_buffer(
                        cx.q,
                        cx.win,
                        false,
                        0,
                        0,
                        SIZE,
                        1,
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_get_buffer",
                cat: [Some("op.get"), None],
                gate: Gate::Poisons,
                wire: ORIGIN,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    if cx.p.rank() != 0 {
                        return None;
                    }
                    let e = cx.rt.enqueue_get_buffer(
                        cx.q,
                        cx.win,
                        false,
                        0,
                        0,
                        SIZE,
                        1,
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_accumulate_buffer",
                cat: [Some("op.acc"), None],
                gate: Gate::Poisons,
                wire: ORIGIN,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    if cx.p.rank() != 0 {
                        return None;
                    }
                    let e = cx.rt.enqueue_accumulate_buffer(
                        cx.q,
                        cx.win,
                        false,
                        0,
                        0,
                        SIZE,
                        1,
                        ReduceOp::Sum,
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_win_fence",
                cat: [Some("op.fence"), Some("op.fence")],
                gate: Gate::Poisons,
                wire: NEITHER, // an empty epoch synchronizes on control blocks
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_win_fence(cx.win, false, w, &cx.p.actor);
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_bcast_buffer (root | non-root)",
                cat: [Some("op.bcast"), Some("op.bcast")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: ORIGIN, // only the root chose, only the root reports
                rejects: false,
                issue: |cx, w| {
                    let e = cx
                        .rt
                        .enqueue_bcast_buffer(cx.q, cx.buf, 0, SIZE, 0, 3, w, &cx.p.actor);
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_allreduce_buffer",
                cat: [Some("op.allreduce"), Some("op.allreduce")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: BOTH,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_allreduce_buffer(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE / 8,
                        ReduceOp::Sum,
                        3,
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_reduce_buffer",
                cat: [Some("op.reduce"), Some("op.reduce")],
                gate: Gate::Poisons,
                wire: BOTH,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_reduce_buffer(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE / 8,
                        ReduceOp::Sum,
                        0,
                        3,
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_write_file",
                cat: [None, None],
                gate: Gate::RunsAnyway,
                wire: NEITHER,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_write_file(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE,
                        cx.disk,
                        "out",
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_read_file",
                cat: [None, None],
                gate: Gate::RunsAnyway,
                wire: NEITHER,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_read_file(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE,
                        cx.disk,
                        "raw",
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            // Read behaves like restore: a missing file pays the storage
            // access and fails the event, it does not panic the world.
            Row {
                name: "enqueue_read_file (missing file)",
                cat: [None, None],
                gate: Gate::RunsAnyway,
                wire: NEITHER,
                told: NEITHER,
                rejects: true,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_read_file(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE,
                        cx.disk,
                        "absent",
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_restore_buffer (missing file)",
                cat: [Some("op.restore"), Some("op.restore")],
                gate: Gate::RunsAnyway,
                wire: NEITHER,
                told: NEITHER,
                rejects: true,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_restore_buffer(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE,
                        cx.disk,
                        "absent",
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_checkpoint_buffer",
                cat: [Some("op.ckpt"), Some("op.ckpt")],
                gate: Gate::RunsAnyway,
                wire: NEITHER,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_checkpoint_buffer(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE,
                        cx.disk,
                        "out",
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
            Row {
                name: "enqueue_restore_buffer",
                cat: [Some("op.restore"), Some("op.restore")],
                gate: Gate::RunsAnyway,
                wire: NEITHER,
                told: NEITHER,
                rejects: false,
                issue: |cx, w| {
                    let e = cx.rt.enqueue_restore_buffer(
                        cx.q,
                        cx.buf,
                        0,
                        SIZE,
                        cx.disk,
                        "ck",
                        w,
                        &cx.p.actor,
                    );
                    settled(e, cx)
                },
            },
        ]
    }

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Scenario {
        /// Perfect fabric, empty wait list.
        Clean,
        /// Perfect fabric, a failed user event in the wait list.
        PoisonedGate,
        /// Every data-plane chunk is dropped (and a one-sided command's
        /// target is dead); empty wait list.
        DeadLink,
    }

    /// What one rank saw: its command's error code, the live counters
    /// after shutdown, and whether a selector heard a success / retired a
    /// candidate.
    type Seen = (Option<Option<i32>>, clmpi::ObsCounters, bool, bool);

    fn run(row: &Row, scenario: Scenario) -> (Vec<Seen>, simtime::Trace) {
        let issue = row.issue;
        let plan = match scenario {
            // A one-sided row (rank 1 issues nothing) also loses its
            // target's node once the window is up: a dead target fails a
            // flight at once, where a merely lossy link would burn
            // `minimpi::rma`'s thirty attempts first. The other rows keep
            // rank 1 alive — a node kill spares no tag, and their control
            // traffic must get through.
            Scenario::DeadLink if row.cat[1].is_none() && row.wire[0] => {
                data_plane_faults(FaultPlan::drops(5, 1.0)).with_node_down(1, KILL_AT)
            }
            Scenario::DeadLink => data_plane_faults(FaultPlan::drops(5, 1.0)),
            _ => FaultPlan::none(),
        };
        let cluster = SystemConfig::ricc().cluster.clone();
        let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
            let rig = Rig::new(&p);
            let (rt, q, disk) = (&rig.rt, &rig.q, &rig.disk);
            // One candidate each: `choose` is a constant, one `observe`
            // locks the winner, one `observe_failure` retires it.
            let p2p = Arc::new(AdaptiveSelector::with_candidates(vec![
                TransferStrategy::Pinned,
            ]));
            let rma = Arc::new(PeerSelector::with_candidates(vec![TransferStrategy::Rma]));
            let coll = |algo| {
                let chunk = 4 << 10;
                Arc::new(CollectiveSelector::with_candidates(vec![CollTuning {
                    algo,
                    chunk,
                }]))
            };
            // The allreduce topology is a fixed ring: only a ring
            // candidate is ever reported back.
            let (bcast, allreduce) = (coll(CollAlgo::Flat), coll(CollAlgo::Ring));
            rt.set_adaptive(Some(p2p.clone()));
            rt.set_rma_adaptive(Some(rma.clone()));
            rt.set_bcast_adaptive(Some(bcast.clone()));
            rt.set_allreduce_adaptive(Some(allreduce.clone()));
            disk.write_file("raw", vec![3u8; SIZE]);
            disk.write_file("ck", encode_checkpoint(&[4u8; SIZE]));
            let wait = if scenario == Scenario::PoisonedGate {
                let ue = rt.context().create_user_event("poison");
                ue.set_failed(p.actor.now_ns(), -5).expect("fresh event");
                vec![ue.event()]
            } else {
                Vec::new()
            };
            q.enqueue_kernel("setup-done", 2 * KILL_AT, &[], || {})
                .wait(&p.actor);
            let outcome = issue(&rig.cx(&p), &wait);
            rt.shutdown(&p.actor);
            // (winner locked, candidate retired) per selector. With one
            // candidate a retirement also locks the all-fail fallback, so
            // "heard a success" is a winner without a retirement.
            let heard = [
                (p2p.winner_for(SIZE), p2p.failures_for(SIZE).len()),
                (rma.winner_for((1, SIZE)), rma.failures_for((1, SIZE)).len()),
            ]
            .map(|(w, f)| (w.is_some(), f > 0))
            .into_iter()
            .chain([&bcast, &allreduce].map(|s| {
                (
                    s.winner_for((SIZE, 2)).is_some(),
                    !s.failures_for((SIZE, 2)).is_empty(),
                )
            }));
            let (mut heard_ok, mut heard_failure) = (false, false);
            for (winner, retired) in heard {
                heard_ok |= winner && !retired;
                heard_failure |= retired;
            }
            (outcome, rt.obs_counters(), heard_ok, heard_failure)
        });
        (res.outputs, res.trace)
    }

    /// A misused host-side entry point, called with `(peer, tag)`: did it
    /// say so, at once, to its caller?
    type Misuse = fn(&ClMpi, &CommandQueue, &Buffer, &Actor, usize, Tag) -> bool;

    /// The four host-side entry points that used to hand a bad peer or
    /// tag to an engine thread (`enqueue_*` always validated).
    const MISUSES: [(&str, Misuse); 4] = [
        ("gpu_aware_send", |rt, q, buf, a, peer, tag| {
            let r = rt.gpu_aware_send(a, q, buf, 0, SIZE, peer, tag);
            matches!(r, Err(ClError::InvalidValue(_)))
        }),
        ("gpu_aware_recv", |rt, q, buf, a, peer, tag| {
            let r = rt.gpu_aware_recv(a, q, buf, 0, SIZE, peer, tag);
            matches!(r, Err(ClError::InvalidValue(_)))
        }),
        // The signature has no `Result`: the request is born failed.
        ("isend_cl", |rt, _, _, a, peer, tag| {
            let r = rt.isend_cl(a, peer, tag, &[7u8; SIZE]).wait_result(a);
            matches!(r, Err(ClError::InvalidValue(_)))
        }),
        // Likewise: the event has failed by the time the call returns.
        ("irecv_cl", |rt, _, _, a, peer, tag| {
            let e = rt.irecv_cl(a, peer, tag, SIZE).event;
            e.error_code() == Some(CL_MPI_TRANSFER_ERROR)
        }),
    ];

    /// Misuse must not poison the world: a peer outside the communicator
    /// or a tag outside the user range is the calling rank's error —
    /// nothing is submitted, no virtual time passes — and the other rank,
    /// and the caller's next command, finish normally. (Both used to
    /// panic: the scheduler thread in `minimpi::p2p` with a poisoned clock
    /// for every rank, or the caller in `data_tag`.)
    #[test]
    fn misuse_is_the_callers_error_and_the_world_goes_on() {
        for (name, misuse) in MISUSES {
            for (peer, tag) in [(9, 1), (1, -5), (1, minimpi::MAX_USER_TAG + 1)] {
                let cluster = SystemConfig::ricc().cluster.clone();
                let res = run_world_faulty(cluster, 2, FaultPlan::none(), move |p: Process| {
                    let (rt, a) = (ClMpi::new(&p, SystemConfig::ricc()), &p.actor);
                    let q = rt.context().create_queue(0, format!("r{}", p.rank()));
                    let buf = rt.context().create_buffer(SIZE);
                    let t0 = a.now_ns();
                    let rejected = p.rank() != 0 || misuse(&rt, &q, &buf, a, peer, tag);
                    let on_the_spot = a.now_ns() == t0;
                    // The world is intact: a matched transfer still works.
                    let e = if p.rank() == 0 {
                        rt.enqueue_send_buffer(&q, &buf, true, 0, SIZE, 1, 3, &[], a)
                    } else {
                        rt.enqueue_recv_buffer(&q, &buf, true, 0, SIZE, 0, 3, &[], a)
                    };
                    let went_on = e.is_ok_and(|e| e.is_complete());
                    rt.shutdown(a);
                    (rejected, on_the_spot, went_on, rt.obs_counters().submitted)
                });
                let at = format!("{name}(peer {peer}, tag {tag})");
                assert_eq!(res.outputs, vec![(true, true, true, 1); 2], "{at}");
                assert_eq!(res.trace.ops().iter().filter(|o| !o.ok).count(), 0, "{at}");
            }
        }
    }

    /// Every entry point settles by one protocol: a failed wait-list
    /// event poisons with −14 (or, for the four file commands, is
    /// ignored); a traced command leaves exactly one `op.*` envelope
    /// whose `ok` matches its event and moves `completed` / `failed` by
    /// one; and a selector hears of a success or of a transfer failure,
    /// never of a poisoned gate.
    #[test]
    fn every_op_settles_by_one_protocol() {
        for row in rows() {
            for scenario in [Scenario::Clean, Scenario::PoisonedGate, Scenario::DeadLink] {
                if scenario == Scenario::PoisonedGate && row.gate == Gate::None {
                    continue;
                }
                let (seen, trace) = run(&row, scenario);
                for (rank, (outcome, counters, heard_ok, heard_failure)) in seen.iter().enumerate()
                {
                    let (outcome, heard_ok, heard_failure) = (*outcome, *heard_ok, *heard_failure);
                    let at = format!("{} / {scenario:?} / rank {rank}", row.name);
                    let want = match scenario {
                        _ if row.rejects => Some(CL_MPI_TRANSFER_ERROR),
                        Scenario::Clean => None,
                        Scenario::PoisonedGate if row.gate == Gate::Poisons => {
                            Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST)
                        }
                        Scenario::PoisonedGate => None,
                        Scenario::DeadLink if row.wire[rank] => Some(CL_MPI_TRANSFER_ERROR),
                        Scenario::DeadLink => None,
                    };
                    let issued = row.cat[rank].is_some() || row.gate == Gate::RunsAnyway;
                    assert_eq!(outcome, issued.then_some(want), "{at}: event status");

                    let envelopes: Vec<_> = trace
                        .ops()
                        .into_iter()
                        .filter(|o| {
                            o.rank == rank as u32 && o.parent.is_none() && o.cat.starts_with("op.")
                        })
                        .collect();
                    let traced = u64::from(row.cat[rank].is_some());
                    assert_eq!(envelopes.len() as u64, traced, "{at}: one envelope");
                    for e in &envelopes {
                        assert_eq!(Some(e.cat.as_str()), row.cat[rank], "{at}: category");
                        assert_eq!(e.ok, want.is_none(), "{at}: envelope outcome");
                    }
                    assert_eq!(counters.submitted, traced, "{at}: submitted");
                    assert_eq!(
                        (counters.completed, counters.failed),
                        if want.is_none() {
                            (traced, 0)
                        } else {
                            (0, traced)
                        },
                        "{at}: completed / failed"
                    );
                    assert_eq!(counters.in_flight(), 0, "{at}: quiescent after shutdown");

                    let told = row.told[rank];
                    assert_eq!(
                        heard_ok,
                        told && want.is_none(),
                        "{at}: a success reaches observe"
                    );
                    assert_eq!(
                        heard_failure,
                        told && want == Some(CL_MPI_TRANSFER_ERROR),
                        "{at}: only a transfer failure retires a candidate"
                    );
                }
            }
        }
    }

    /// A matched pair of commands whose two sides can be told different
    /// sizes: rank 0 handles `size` bytes, rank 1 — the short side — is
    /// told half of that, so its peer sends more than it posted.
    struct Mismatch {
        name: &'static str,
        /// Does the long side fail as well — starved of the bytes the
        /// short side never sends, until its chunk patience runs out?
        long_fails: bool,
        /// Issue this rank's half for `size` bytes on `tag`, gated on
        /// nothing: its event or, where the entry point has none, its
        /// settled error code.
        issue: fn(&Cx, usize, Tag) -> Result<Event, Option<i32>>,
    }

    /// Every payload below is one wire chunk (16 KiB against blocks of a
    /// MiB and more), so the overflowing chunk is the only one: when both
    /// sides have settled, no message is left behind on the tag.
    const MISMATCHES: [Mismatch; 4] = [
        Mismatch {
            name: "enqueue_send_buffer | enqueue_recv_buffer",
            long_fails: false,
            issue: |cx, size, tag| {
                let (rt, q, buf, a) = (cx.rt, cx.q, cx.buf, &cx.p.actor);
                Ok(accepted(if cx.p.rank() == 0 {
                    rt.enqueue_send_buffer(q, buf, false, 0, size, 1, tag, &[], a)
                } else {
                    rt.enqueue_recv_buffer(q, buf, false, 0, size, 0, tag, &[], a)
                }))
            },
        },
        Mismatch {
            name: "isend_cl | irecv_cl",
            long_fails: false,
            issue: |cx, size, tag| {
                let a = &cx.p.actor;
                if cx.p.rank() == 0 {
                    let sent = cx.rt.isend_cl(a, 1, tag, &vec![7u8; size]).wait_result(a);
                    Err(sent.err().map(|_| CL_MPI_TRANSFER_ERROR))
                } else {
                    Ok(cx.rt.irecv_cl(a, 0, tag, size).event)
                }
            },
        },
        // In a two-rank world the non-root is a leaf under every
        // algorithm. (A relay that fails starves its subtree, which on a
        // clean fabric is a deadlock, not a test.)
        Mismatch {
            name: "enqueue_bcast_buffer (root | leaf)",
            long_fails: false,
            issue: |cx, size, tag| {
                let (rt, q, buf, a) = (cx.rt, cx.q, cx.buf, &cx.p.actor);
                Ok(accepted(rt.enqueue_bcast_buffer(
                    q,
                    buf,
                    0,
                    size,
                    0,
                    tag,
                    &[],
                    a,
                )))
            },
        },
        // Both ranks receive in a ring round: the short one overflows, the
        // long one is left waiting for the rest of its segment.
        Mismatch {
            name: "enqueue_allreduce_buffer",
            long_fails: true,
            issue: |cx, size, tag| {
                let (rt, q, buf, a) = (cx.rt, cx.q, cx.buf, &cx.p.actor);
                let sum = ReduceOp::Sum;
                Ok(accepted(rt.enqueue_allreduce_buffer(
                    q,
                    buf,
                    0,
                    size / 8,
                    sum,
                    tag,
                    &[],
                    a,
                )))
            },
        },
    ];

    /// A peer that sends more than was posted is the short side's
    /// `CL_MPI_TRANSFER_ERROR` — a dependant gets −14 — and nobody hangs:
    /// the long side succeeds or, where it needed the short side's bytes,
    /// times out. No receive stays posted behind the failure, so once both
    /// sides have settled the same tag carries a matched pair, and so does
    /// a fresh one. The plan drops nothing; it is there to arm the chunk
    /// patience a starved peer gives up by.
    #[test]
    fn a_peer_that_sends_more_than_was_posted_fails_the_short_side() {
        const FAR: u64 = 3_600_000_000_000;
        for row in &MISMATCHES {
            let issue = row.issue;
            let plan = data_plane_faults(FaultPlan::none().with_down_window(FAR, FAR + 1));
            let cluster = SystemConfig::ricc().cluster.clone();
            let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
                let rig = Rig::new(&p);
                let (rt, q, cx) = (&rig.rt, &rig.q, rig.cx(&p));
                rt.set_forced_strategy(Some(TransferStrategy::Pinned));
                // (the command's code, its dependant's code)
                let run = |size: usize, tag: Tag| match issue(&cx, size, tag) {
                    Err(code) => (code, None),
                    Ok(e) => {
                        let dependant = q.enqueue_marker(std::slice::from_ref(&e));
                        e.wait(&p.actor);
                        dependant.wait(&p.actor);
                        (e.error_code(), dependant.error_code())
                    }
                };
                let told = SIZE >> p.rank();
                let mismatched = run(told, 3);
                // Both sides have settled before either goes on.
                p.comm.barrier(&p.actor);
                let same_tag = run(SIZE / 2, 3);
                let fresh_tag = run(SIZE / 2, 4);
                rt.shutdown(&p.actor);
                (
                    mismatched,
                    same_tag,
                    fresh_tag,
                    rt.obs_counters().in_flight(),
                )
            });
            let poisoned = Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST);
            let failed = (Some(CL_MPI_TRANSFER_ERROR), poisoned);
            let fine = (None, None);
            let long = if row.long_fails { failed } else { fine };
            assert_eq!(
                res.outputs[0],
                (long, fine, fine, 0),
                "{}: long side",
                row.name
            );
            assert_eq!(
                res.outputs[1],
                (failed, fine, fine, 0),
                "{}: short side",
                row.name
            );
        }
    }
}
