//! Pinned schedules of the whole clMPI surface.
//!
//! One five-rank CXL-pod world (ranks 0–3 share a pool, rank 4 sits in
//! the next pod) calls every entry point of DESIGN.md §8c's table, a
//! section at a time, on a clean fabric, a lossy one with jitter, and one
//! whose links go down for a window while the commands are in flight.
//! Each (section, fabric) run must reproduce `[elapsed_ns, events,
//! ObsSummary::hash, fnv1a(chrome_trace)]` exactly: op ids, child-span
//! order, reservation order, retry instants and the scheduler's
//! transition count are all bytes. A refactor of the op frame, the
//! primitives, a body or the counters behind them must not need to edit
//! the table; on a mismatch the test prints the measured one ready to
//! paste. Independent of the order the scheduler steps a pass in (CI
//! runs it under 32 `SIM_PERMUTE_SEED` seeds).

use clmpi::obs::{chrome_trace, fnv1a, ObsSummary};
use clmpi::{
    data_plane_faults, ClMpi, CollAlgo, PackMode, ReduceOp, RetryPolicy, SimStorage, SystemConfig,
    TransferStrategy,
};
use minicl::{Buffer, ClResult, CommandQueue, Event};
use minimpi::{run_world_faulty, DerivedType, FaultPlan, Process, Rank, Tag};
use simtime::SimNs;

const WORLD: usize = 5;

/// Every section starts its commands here; the link-down window opens at
/// the same instant.
const START: SimNs = 300_000;
const WINDOW_NS: SimNs = 700_000;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Fabric {
    Clean,
    /// 10% data-plane drops, up to 20 µs arrival jitter.
    Lossy,
    /// Every data-plane message injected in `[START, START + WINDOW_NS)`
    /// is dropped: with the three-attempt budget below, commands issued
    /// early in the window exhaust it and fail, later ones retry through.
    LinkDown,
}

impl Fabric {
    fn plan(self) -> FaultPlan {
        match self {
            Fabric::Clean => FaultPlan::none(),
            Fabric::Lossy => data_plane_faults(FaultPlan::drops(7, 0.10).with_jitter(20_000)),
            Fabric::LinkDown => {
                data_plane_faults(FaultPlan::none().with_down_window(START, START + WINDOW_NS))
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Section {
    P2p,
    Datatype,
    Host,
    Rma,
    Coll,
    File,
}

/// What a rank's program returns: a rejected enqueue ends it with the
/// reason, and the run asserts that no rank was.
type Outcome = Result<(), Box<dyn std::error::Error + Send + Sync>>;

/// What a section sees of its rank.
struct Cx<'a> {
    rt: &'a ClMpi,
    q: &'a CommandQueue,
    p: &'a Process,
}

impl Cx<'_> {
    fn rank(&self) -> Rank {
        self.p.rank()
    }

    /// Wait for an accepted command; did it succeed?
    fn settle(&self, e: ClResult<Event>) -> ClResult<bool> {
        let e = e?;
        e.wait(&self.p.actor);
        Ok(!e.is_failed())
    }
}

/// Payload keyed by the command's tag, so a receiver knows what it must
/// hold whenever its event completed — on any fabric.
fn pattern(len: usize, key: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(key * 17) as u8)
        .collect()
}

/// One matched device-buffer transfer `src → dst`, both sides waited.
fn transfer(cx: &Cx, buf: &Buffer, size: usize, src: Rank, dst: Rank, tag: Tag) -> Outcome {
    let (rt, q, a) = (cx.rt, cx.q, &cx.p.actor);
    if cx.rank() == src {
        buf.store(0, &pattern(size, tag as u64))?;
        cx.settle(rt.enqueue_send_buffer(q, buf, false, 0, size, dst, tag, &[], a))?;
    } else if cx.rank() == dst
        && cx.settle(rt.enqueue_recv_buffer(q, buf, false, 0, size, src, tag, &[], a))?
    {
        assert_eq!(buf.load(0, size)?.as_slice(), pattern(size, tag as u64));
    }
    Ok(())
}

/// `enqueue_send_buffer` / `enqueue_recv_buffer` under each of the four
/// strategies, inside the pod (0 → 1) and across pods (3 → 4), then the
/// halo convenience gated on a kernel.
fn p2p(cx: &Cx) -> Outcome {
    const SMALL: usize = 96 << 10;
    // Past the pipeline threshold: `Auto` resolves to pipelined — or,
    // once losses have latched the degradation, to pinned.
    const LARGE: usize = (1 << 20) + 4096;
    let buf = cx.rt.context().create_buffer(LARGE);
    let strategies = [
        (Some(TransferStrategy::Pinned), SMALL),
        (Some(TransferStrategy::Mapped), SMALL),
        (Some(TransferStrategy::Pipelined(32 << 10)), SMALL),
        (None, LARGE),
    ];
    for (i, (forced, size)) in strategies.into_iter().enumerate() {
        cx.rt.set_forced_strategy(forced);
        transfer(cx, &buf, size, 0, 1, 10 + i as Tag)?;
        transfer(cx, &buf, size, 3, 4, 20 + i as Tag)?;
    }
    if cx.rank() < 2 {
        let peer = 1 - cx.rank();
        let k = cx.q.enqueue_kernel("produce", 50_000, &[], || {});
        let (es, er) = cx.rt.enqueue_sendrecv_buffer(
            cx.q,
            &buf,
            0,
            SMALL,
            SMALL,
            peer,
            30 + cx.rank() as Tag,
            30 + peer as Tag,
            &[k],
            &cx.p.actor,
        )?;
        Event::wait_all(&[es, er], &cx.p.actor);
    }
    // Let the latch go and resolve once more.
    cx.rt.reset_degradation();
    transfer(cx, &buf, LARGE, 1, 0, 40)
}

/// `enqueue_send_datatype` / `enqueue_recv_datatype` under the three
/// pack modes, and the contiguous fast path.
fn datatype(cx: &Cx) -> Outcome {
    const EXTENT: usize = 64 << 10;
    let (rt, q, a) = (cx.rt, cx.q, &cx.p.actor);
    let buf = rt.context().create_buffer(EXTENT);
    let strided = DerivedType::Vector {
        count: 48,
        blocklen: 512,
        stride: 1024,
        extent: EXTENT,
    }
    .commit()?;
    let dense = DerivedType::Vector {
        count: 1,
        blocklen: 4096,
        stride: 4096,
        extent: 4096,
    }
    .commit()?;
    let modes = [
        PackMode::HostPack,
        PackMode::DevicePack,
        PackMode::PipelinedPack,
    ];
    for (i, mode) in modes.into_iter().enumerate() {
        for (ty, tag) in [(&strided, 10 + i as Tag), (&dense, 20 + i as Tag)] {
            for (src, dst) in [(0, 1), (4, 2)] {
                if cx.rank() == src {
                    buf.store(0, &pattern(EXTENT, tag as u64))?;
                    let e = rt.enqueue_send_datatype(q, &buf, false, 0, ty, mode, dst, tag, &[], a);
                    cx.settle(e)?;
                } else if cx.rank() == dst {
                    buf.store(0, &vec![0u8; EXTENT])?;
                    let e = rt.enqueue_recv_datatype(q, &buf, false, 0, ty, mode, src, tag, &[], a);
                    if cx.settle(e)? {
                        let (got, want) = (buf.load(0, EXTENT)?, pattern(EXTENT, tag as u64));
                        assert_eq!(ty.pack(got.as_slice()), ty.pack(&want), "{mode:?} #{tag}");
                    }
                }
            }
        }
    }
    Ok(())
}

/// The host-side surface: GPU-aware MPI, `isend_cl` / `irecv_cl`,
/// `event_from_request` feeding a kernel's wait list, and a receive from
/// a peer reported dead.
fn host(cx: &Cx) -> Outcome {
    const SIZE: usize = 64 << 10;
    let (rt, q, a) = (cx.rt, cx.q, &cx.p.actor);
    let buf = rt.context().create_buffer(SIZE);
    for (src, dst, tag) in [(1, 2, 10), (4, 0, 11)] {
        if cx.rank() == src {
            buf.store(0, &pattern(SIZE, tag as u64))?;
            let _ = rt.gpu_aware_send(a, q, &buf, 0, SIZE, dst, tag);
        } else if cx.rank() == dst && rt.gpu_aware_recv(a, q, &buf, 0, SIZE, src, tag).is_ok() {
            assert_eq!(buf.load(0, SIZE)?.as_slice(), pattern(SIZE, tag as u64));
        }
    }
    let strategies = [
        TransferStrategy::Mapped,
        TransferStrategy::Pipelined(16 << 10),
        TransferStrategy::Pinned,
    ];
    for (i, forced) in strategies.into_iter().enumerate() {
        rt.set_forced_strategy(Some(forced));
        let tag = 20 + i as Tag;
        for (src, dst) in [(0, 1), (2, 4)] {
            if cx.rank() == src {
                let req = rt.isend_cl(a, dst, tag, &pattern(SIZE, tag as u64));
                let _ = req.wait_result(a);
            } else if cx.rank() == dst {
                let req = rt.irecv_cl(a, src, tag, SIZE);
                req.event.wait(a);
                if !req.event.is_failed() {
                    assert_eq!(req.data.to_vec(), pattern(SIZE, tag as u64));
                }
            }
        }
    }
    rt.set_forced_strategy(None);
    // Plain MPI requests (tags below the data plane: never dropped),
    // wrapped on both sides; the receiver's kernel waits on the event.
    if cx.rank() == 2 {
        let req = cx.p.comm.isend(a, 3, 9, &pattern(4096, 9));
        let (e, _) = rt.event_from_request(req);
        e.wait(a);
    } else if cx.rank() == 3 {
        // A peer reported dead fails a receive posted on it at once.
        rt.notify_proc_failure(4);
        let dead = rt.irecv_cl(a, 4, 30, 1024);
        dead.event.wait(a);
        assert!(dead.event.is_failed());
        let req = cx.p.comm.irecv(a, Some(2), Some(9));
        let (e, outcome) = rt.event_from_request(req);
        q.enqueue_kernel("consume", 20_000, &[e], || {}).wait(a);
        assert_eq!(outcome.take().map(|r| r.data), Some(pattern(4096, 9)));
    }
    Ok(())
}

/// Windows: put under each of its four lowerings, get, accumulate and
/// the fence, towards a pool neighbour and across pods.
fn rma(cx: &Cx) -> Outcome {
    const SIZE: usize = 64 << 10;
    const PUT: usize = 24 << 10;
    let (rt, q, a) = (cx.rt, cx.q, &cx.p.actor);
    let buf = rt.context().create_buffer(SIZE);
    buf.store(0, &pattern(SIZE, cx.rank() as u64))?;
    let win = rt.expose_buffer_as_window(&buf, SIZE, a)?;
    let lowerings = [
        None, // the class-routed RMA transport
        Some(TransferStrategy::Pinned),
        Some(TransferStrategy::Pipelined(8 << 10)),
        Some(TransferStrategy::Mapped),
    ];
    let mut events = Vec::new();
    for (i, forced) in lowerings.into_iter().enumerate() {
        rt.set_forced_strategy(forced);
        // 0 → 1 inside the pool, 3 → 4 across pods; disjoint slices of
        // the second half of the target's window.
        for (origin, target) in [(0, 1), (3, 4)] {
            if cx.rank() == origin {
                let win_off = SIZE / 2 + i * (8 << 10);
                events.push(rt.enqueue_put_buffer(
                    q,
                    &win,
                    false,
                    0,
                    win_off,
                    PUT / 4,
                    target,
                    &[],
                    a,
                )?);
            }
        }
    }
    rt.set_forced_strategy(None);
    Event::wait_all(&events, a);
    cx.settle(rt.enqueue_win_fence(&win, false, &[], a))?;
    // Second epoch: reads and accumulates chained through a wait list.
    for (origin, target) in [(1, 0), (4, 2)] {
        if cx.rank() == origin {
            let get = rt.enqueue_get_buffer(q, &win, false, 0, 0, PUT, target, &[], a)?;
            let acc = rt.enqueue_accumulate_buffer(
                q,
                &win,
                false,
                PUT,
                PUT,
                4096,
                target,
                ReduceOp::Sum,
                std::slice::from_ref(&get),
                a,
            );
            if cx.settle(acc)? && !get.is_failed() {
                assert_eq!(buf.load(0, PUT)?.as_slice(), pattern(PUT, target as u64));
            }
        }
    }
    cx.settle(rt.enqueue_win_fence(&win, false, &[], a))?;
    rt.window_to_buffer(&win, 0, SIZE)?;
    Ok(())
}

/// Broadcast under each algorithm and the static policy, allreduce with
/// the default and an explicit chunk, reduce to a root.
fn coll(cx: &Cx) -> Outcome {
    const SIZE: usize = 40 << 10;
    const COUNT: usize = 2048;
    let (rt, q, a) = (cx.rt, cx.q, &cx.p.actor);
    let buf = rt.context().create_buffer(SIZE);
    let algos = [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring];
    for (i, algo) in algos.into_iter().enumerate() {
        let (root, tag) = (i + 1, 10 + i as Tag);
        if cx.rank() == root {
            buf.store(0, &pattern(SIZE, tag as u64))?;
        }
        let e = rt.enqueue_bcast_buffer_as(q, &buf, 0, SIZE, root, tag, algo, 8 << 10, &[], a);
        if cx.settle(e)? {
            assert_eq!(buf.load(0, SIZE)?.as_slice(), pattern(SIZE, tag as u64));
        }
    }
    if cx.rank() == 0 {
        buf.store(0, &pattern(SIZE, 20))?;
    }
    let bcast = rt.enqueue_bcast_buffer(q, &buf, 0, SIZE, 0, 20, &[], a)?;
    // The reductions run over what the broadcast delivered, ordered by
    // events alone.
    let all = rt.enqueue_allreduce_buffer(
        q,
        &buf,
        0,
        COUNT,
        ReduceOp::Max,
        21,
        std::slice::from_ref(&bcast),
        a,
    )?;
    let all_as = rt.enqueue_allreduce_buffer_as(
        q,
        &buf,
        0,
        COUNT,
        ReduceOp::Min,
        22,
        3000,
        std::slice::from_ref(&all),
        a,
    );
    let clean = cx.settle(all_as)? && !bcast.is_failed() && !all.is_failed();
    if clean {
        // Max and Min of identical vectors leave them alone.
        assert_eq!(buf.load(0, SIZE)?.as_slice(), pattern(SIZE, 20));
    }
    cx.settle(rt.enqueue_reduce_buffer(q, &buf, 0, COUNT, ReduceOp::Max, 2, 23, &[], a))?;
    if clean && cx.rank() != 2 {
        assert_eq!(buf.load(0, SIZE)?.as_slice(), pattern(SIZE, 20));
    }
    Ok(())
}

/// The four file commands, each load gated on its store, and the two
/// rejections (a missing file).
fn file(cx: &Cx) -> Outcome {
    const SIZE: usize = 32 << 10;
    if cx.rank() > 1 {
        return Ok(());
    }
    let (rt, q, a) = (cx.rt, cx.q, &cx.p.actor);
    let buf = rt.context().create_buffer(2 * SIZE);
    buf.store(0, &pattern(SIZE, 5))?;
    let disk = SimStorage::node_local_disk(cx.p.clock().clone());
    let w = rt.enqueue_write_file(q, &buf, 0, SIZE, &disk, "raw", &[], a)?;
    let c = rt.enqueue_checkpoint_buffer(q, &buf, 0, SIZE, &disk, "ck", &[], a)?;
    let r = rt.enqueue_read_file(q, &buf, SIZE, SIZE, &disk, "raw", &[w], a);
    assert!(cx.settle(r)?);
    assert_eq!(buf.load(SIZE, SIZE)?.as_slice(), pattern(SIZE, 5));
    buf.store(SIZE, &vec![0u8; SIZE])?;
    let r = rt.enqueue_restore_buffer(q, &buf, SIZE, SIZE, &disk, "ck", &[c], a);
    assert!(cx.settle(r)?);
    assert_eq!(buf.load(SIZE, SIZE)?.as_slice(), pattern(SIZE, 5));
    assert!(!cx.settle(rt.enqueue_read_file(q, &buf, 0, SIZE, &disk, "absent", &[], a))?);
    assert!(!cx.settle(rt.enqueue_restore_buffer(q, &buf, 0, SIZE, &disk, "absent", &[], a))?);
    Ok(())
}

/// Run `section` on `fabric` and fingerprint the world.
fn run(section: Section, fabric: Fabric) -> [u64; 4] {
    let sys = SystemConfig::cxl_pod();
    let program = move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cxl_pod());
        // Three attempts 150 µs and 300 µs apart stay inside the down
        // window; two losses in a row latch the degradation; a receiver
        // outlasts its sender's whole schedule.
        rt.set_retry_policy(RetryPolicy {
            degrade_after: 2,
            chunk_timeout_ns: 3_000_000,
            ..RetryPolicy::new(3, 150_000)
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        p.actor.advance_until(START);
        let cx = Cx {
            rt: &rt,
            q: &q,
            p: &p,
        };
        let outcome = match section {
            Section::P2p => p2p(&cx),
            Section::Datatype => datatype(&cx),
            Section::Host => host(&cx),
            Section::Rma => rma(&cx),
            Section::Coll => coll(&cx),
            Section::File => file(&cx),
        };
        rt.shutdown(&p.actor);
        outcome.map_err(|e| e.to_string())
    };
    let res = run_world_faulty(sys.cluster.clone(), WORLD, fabric.plan(), program);
    assert_eq!(res.outputs, vec![Ok(()); WORLD], "{section:?} / {fabric:?}");
    [
        res.elapsed_ns,
        res.events,
        ObsSummary::from_trace(&res.trace).hash(),
        fnv1a(chrome_trace(&res.trace).as_bytes()),
    ]
}

/// One pinned run and the four numbers it must reproduce. The file
/// commands touch no wire, so they are pinned on the clean fabric only.
type Golden = (Section, Fabric, [u64; 4]);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    (Section::P2p, Fabric::Clean, [1597786, 33, 0x875f56d8e7a363e9, 0xceed1808e512c429]),
    (Section::P2p, Fabric::Lossy, [1957644, 33, 0xbc68ce71291fed5a, 0x3e625b3045365d93]),
    (Section::P2p, Fabric::LinkDown, [4050898, 33, 0x37f6b95122d33687, 0x8142b70c4f3e80b1]),
    (Section::Datatype, Fabric::Clean, [690875, 29, 0x5da5999c94be4902, 0x41ce71325d5f3088]),
    (Section::Datatype, Fabric::Lossy, [995687, 29, 0x97608e5f323d6632, 0x4f35d91adc1b694e]),
    (Section::Datatype, Fabric::LinkDown, [3470667, 29, 0xab86c5dd844239be, 0x516443f7487c5a5f]),
    (Section::Host, Fabric::Clean, [527206, 27, 0xe592bb5491a6f916, 0x7429d8f10c2d9437]),
    (Section::Host, Fabric::Lossy, [722218, 27, 0xb6ec5e3d1108c570, 0x6e5c9ea1e1777b8d]),
    (Section::Host, Fabric::LinkDown, [3477899, 27, 0xcb9dbead653c1ae9, 0x5e9ab3e230c835ab]),
    (Section::Rma, Fabric::Clean, [497152, 27, 0xcfd90aa73bed76bb, 0x5e9890dcefc1d333]),
    (Section::Rma, Fabric::Lossy, [941084, 27, 0x19c1e93c95a1ab98, 0x7a7d5e939fe8047b]),
    (Section::Rma, Fabric::LinkDown, [1885944, 27, 0x649aa6f56b5c3822, 0x3093d4ebddd32980]),
    (Section::Coll, Fabric::Clean, [1542358, 40, 0x194cbc8ed6dccc2b, 0xaf5824a07941306f]),
    (Section::Coll, Fabric::Lossy, [3071703, 40, 0x1b9196617127142c, 0x40588ea13ad4b79b]),
    (Section::Coll, Fabric::LinkDown, [4334518, 40, 0x7f2ac6d1b6109cb8, 0x5680e0f2a5a5b09a]),
    (Section::File, Fabric::Clean, [21376735, 17, 0x0054f9b7459fefe2, 0x0a64312123ae72f3]),
];

#[test]
fn every_entry_point_reproduces_its_pinned_schedule() {
    let mut table = String::new();
    let mut moved = 0;
    for &(section, fabric, want) in GOLDEN {
        let got = run(section, fabric);
        moved += usize::from(got != want);
        table.push_str(&format!(
            "    (Section::{section:?}, Fabric::{fabric:?}, [{}, {}, {:#018x}, {:#018x}]),{}\n",
            got[0],
            got[1],
            got[2],
            got[3],
            if got == want { "" } else { " // moved" }
        ));
    }
    assert_eq!(moved, 0, "{moved} pinned run(s) moved; measured:\n{table}");
}
