//! Integration tests: clMPI transfers between simulated ranks.

use clmpi::{ClMpi, SystemConfig, TransferStrategy};
use minimpi::{run_world_sized, Process};
use simtime::XorShift64;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Device→device transfer of `size` bytes under `strategy` on `sys`;
/// returns (elapsed_ns, data-correct).
fn one_transfer(sys: fn() -> SystemConfig, strategy: TransferStrategy, size: usize) -> (u64, bool) {
    let cluster = sys().cluster.clone();
    let res = run_world_sized(cluster, 2, move |p: Process| {
        let rt = ClMpi::new(&p, sys());
        rt.set_forced_strategy(Some(strategy));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        let ok = if p.rank() == 0 {
            buf.store(0, &pattern(size, 7)).unwrap();
            let e = rt
                .enqueue_send_buffer(&q, &buf, false, 0, size, 1, 3, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            true
        } else {
            let e = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, size, 0, 3, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            buf.load(0, size).unwrap().as_slice() == pattern(size, 7)
        };
        rt.shutdown(&p.actor);
        ok
    });
    (res.elapsed_ns, res.outputs.iter().all(|&b| b))
}

#[test]
fn pinned_transfer_delivers_intact() {
    let (t, ok) = one_transfer(SystemConfig::ricc, TransferStrategy::Pinned, 256 << 10);
    assert!(ok);
    assert!(t > 0);
}

#[test]
fn mapped_transfer_delivers_intact() {
    let (t, ok) = one_transfer(SystemConfig::cichlid, TransferStrategy::Mapped, 256 << 10);
    assert!(ok);
    assert!(t > 0);
}

#[test]
fn pipelined_transfer_delivers_intact_any_block() {
    for block in [1 << 16, 1 << 20, 3 << 20] {
        let (_, ok) = one_transfer(
            SystemConfig::ricc,
            TransferStrategy::Pipelined(block),
            2 << 20,
        );
        assert!(ok, "block {block}");
    }
}

#[test]
fn auto_strategy_delivers_intact_across_sizes() {
    for size in [1usize, 4096, 1 << 20, 8 << 20] {
        let (_, ok) = one_transfer(SystemConfig::ricc, TransferStrategy::Auto, size);
        assert!(ok, "size {size}");
    }
}

#[test]
fn pipelined_faster_than_pinned_on_ricc_large() {
    let size = 32 << 20;
    let (tp, _) = one_transfer(SystemConfig::ricc, TransferStrategy::Pinned, size);
    let (tl, _) = one_transfer(
        SystemConfig::ricc,
        TransferStrategy::Pipelined(4 << 20),
        size,
    );
    assert!(
        tl < tp,
        "pipelined ({tl}) should beat pinned ({tp}) on RICC for 32 MiB"
    );
}

#[test]
fn mapped_faster_than_pinned_on_cichlid_small() {
    let size = 128 << 10;
    let (tp, _) = one_transfer(SystemConfig::cichlid, TransferStrategy::Pinned, size);
    let (tm, _) = one_transfer(SystemConfig::cichlid, TransferStrategy::Mapped, size);
    assert!(
        tm < tp,
        "mapped ({tm}) should beat pinned ({tp}) on Cichlid for 128 KiB"
    );
}

#[test]
fn event_chain_orders_kernel_then_send_then_recv_then_kernel() {
    // Fig. 5/6 pattern: kernel → send on rank 0; recv → kernel on rank 1,
    // all non-blocking, ordered purely by events.
    let res = run_world_sized(SystemConfig::ricc().cluster.clone(), 2, |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(4096);
        if p.rank() == 0 {
            let b2 = buf.clone();
            let ek = q.enqueue_kernel("produce", 100_000, &[], move || {
                b2.write(|d| d.as_f32_mut().iter_mut().for_each(|x| *x = 5.0));
            });
            let es = rt
                .enqueue_send_buffer(
                    &q,
                    &buf,
                    false,
                    0,
                    4096,
                    1,
                    1,
                    std::slice::from_ref(&ek),
                    &p.actor,
                )
                .unwrap();
            es.wait(&p.actor);
            let pk = ek.profiling().unwrap();
            assert!(
                es.completion_time().unwrap() >= pk.completed,
                "send after kernel"
            );
            rt.shutdown(&p.actor);
            0.0
        } else {
            let er = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, 4096, 0, 1, &[], &p.actor)
                .unwrap();
            let b2 = buf.clone();
            let sum = std::sync::Arc::new(simtime::plock::Mutex::new(0.0f32));
            let s2 = sum.clone();
            let ek = q.enqueue_kernel("consume", 50_000, std::slice::from_ref(&er), move || {
                *s2.lock() = b2.read(|d| d.as_f32().iter().sum());
            });
            ek.wait(&p.actor);
            assert!(ek.profiling().unwrap().started >= er.completion_time().unwrap());
            rt.shutdown(&p.actor);
            let s = *sum.lock();
            s as f64
        }
    });
    assert_eq!(res.outputs[1], 5.0 * 1024.0);
}

#[test]
fn host_thread_stays_free_during_transfer() {
    // The paper's benefit 2): after non-blocking enqueues the host thread
    // is immediately available. Host does 30 ms of its own work while a
    // large transfer runs; total time ≈ max, not sum.
    let size = 16 << 20;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        2,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(size);
            if p.rank() == 0 {
                let e = rt
                    .enqueue_send_buffer(&q, &buf, false, 0, size, 1, 1, &[], &p.actor)
                    .unwrap();
                p.host_compute_ns(30_000_000); // overlapped host work
                e.wait(&p.actor);
            } else {
                let e = rt
                    .enqueue_recv_buffer(&q, &buf, false, 0, size, 0, 1, &[], &p.actor)
                    .unwrap();
                p.host_compute_ns(30_000_000);
                e.wait(&p.actor);
            }
            rt.shutdown(&p.actor);
            p.actor.now_ns()
        },
    );
    // 16 MiB over ~1.2 GB/s effective ≈ 13—20 ms; hidden under 30 ms of
    // host compute → total barely above 30 ms.
    assert!(
        res.elapsed_ns < 40_000_000,
        "transfer overlapped with host compute: {}",
        res.elapsed_ns
    );
}

#[test]
fn bidirectional_exchange_with_distinct_tags() {
    let size = 1 << 20;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        2,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let mine = rt.context().create_buffer(size);
            let theirs = rt.context().create_buffer(size);
            mine.store(0, &vec![p.rank() as u8 + 1; size]).unwrap();
            let peer = 1 - p.rank();
            let es = rt
                .enqueue_send_buffer(
                    &q,
                    &mine,
                    false,
                    0,
                    size,
                    peer,
                    p.rank() as i32,
                    &[],
                    &p.actor,
                )
                .unwrap();
            let er = rt
                .enqueue_recv_buffer(
                    &q,
                    &theirs,
                    false,
                    0,
                    size,
                    peer,
                    peer as i32,
                    &[],
                    &p.actor,
                )
                .unwrap();
            es.wait(&p.actor);
            er.wait(&p.actor);
            let got = theirs.load(0, size).unwrap();
            rt.shutdown(&p.actor);
            got.as_slice() == vec![peer as u8 + 1; size]
        },
    );
    assert!(res.outputs.iter().all(|&b| b));
}

#[test]
fn event_from_request_gates_write_buffer() {
    // Fig. 7: rank 0 does MPI_Irecv + clCreateEventFromMPIRequest, runs a
    // kernel during the transfer, then a write-buffer gated on the event.
    let res = run_world_sized(SystemConfig::cichlid().cluster.clone(), 2, |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cichlid());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        if p.rank() == 0 {
            let req = p.comm.irecv(&p.actor, Some(1), Some(9));
            let (ev, outcome) = rt.event_from_request(req);
            let _k = q.enqueue_kernel("overlap", 200_000, &[], || {});
            ev.wait(&p.actor);
            let got = outcome.take().expect("payload");
            assert_eq!(got.data, vec![7u8; 2048]);
            // Write the received host data to the device after the event.
            let buf = rt.context().create_buffer(2048);
            let host = minicl::HostBuffer::pinned(2048);
            assert_eq!(host.store(0, &got.data), Ok(()));
            q.enqueue_write_buffer(&p.actor, &buf, true, 0, 2048, &host, 0, &[ev])
                .unwrap();
            assert_eq!(buf.load(0, 2048).unwrap().as_slice(), vec![7u8; 2048]);
        } else {
            p.comm.send(&p.actor, 0, 9, &[7u8; 2048]);
        }
        rt.shutdown(&p.actor);
        true
    });
    assert!(res.outputs.iter().all(|&b| b));
}

#[test]
fn host_to_device_cl_mem_send() {
    // Fig. 7 reversed: host rank sends with MPI_CL_MEM; device rank uses
    // enqueue_recv_buffer.
    let size = 6 << 20;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        2,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            if p.rank() == 0 {
                let data = pattern(size, 42);
                rt.send_cl(&p.actor, 1, 5, &data);
                rt.shutdown(&p.actor);
                true
            } else {
                let q = rt.context().create_queue(0, "r1");
                let buf = rt.context().create_buffer(size);
                let e = rt
                    .enqueue_recv_buffer(&q, &buf, true, 0, size, 0, 5, &[], &p.actor)
                    .unwrap();
                assert!(e.is_complete());
                let ok = buf.load(0, size).unwrap().as_slice() == pattern(size, 42);
                rt.shutdown(&p.actor);
                ok
            }
        },
    );
    assert!(res.outputs.iter().all(|&b| b));
}

#[test]
fn device_to_host_cl_mem_recv() {
    // Host receives from a communicator device via irecv_cl.
    let size = 3 << 20;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        2,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            if p.rank() == 0 {
                let req = rt.irecv_cl(&p.actor, 1, 2, size);
                req.event.wait(&p.actor);
                let ok = req.data.to_vec() == pattern(size, 9);
                rt.shutdown(&p.actor);
                ok
            } else {
                let q = rt.context().create_queue(0, "r1");
                let buf = rt.context().create_buffer(size);
                buf.store(0, &pattern(size, 9)).unwrap();
                rt.enqueue_send_buffer(&q, &buf, true, 0, size, 0, 2, &[], &p.actor)
                    .unwrap();
                rt.shutdown(&p.actor);
                true
            }
        },
    );
    assert!(res.outputs.iter().all(|&b| b));
}

#[test]
fn offset_subrange_transfers() {
    let res = run_world_sized(SystemConfig::cichlid().cluster.clone(), 2, |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cichlid());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(1024);
        if p.rank() == 0 {
            buf.store(0, &pattern(1024, 1)).unwrap();
            rt.enqueue_send_buffer(&q, &buf, true, 256, 512, 1, 1, &[], &p.actor)
                .unwrap();
            rt.shutdown(&p.actor);
            true
        } else {
            rt.enqueue_recv_buffer(&q, &buf, true, 128, 512, 0, 1, &[], &p.actor)
                .unwrap();
            let expect = &pattern(1024, 1)[256..768];
            let ok = buf.load(128, 512).unwrap().as_slice() == expect
                && buf.load(0, 128).unwrap().as_slice() == vec![0u8; 128];
            rt.shutdown(&p.actor);
            ok
        }
    });
    assert!(res.outputs.iter().all(|&b| b));
}

/// A receive leaves the wire chunks where they landed, and every view of
/// the buffer reads the bytes that were sent: a view of the region (which
/// reads a single landed chunk in place), a `load`, a whole view (which
/// copies them in) and a `load` after it. The region sits between bytes the
/// receiver stored, one chunk, or chunks that do not tile it evenly.
#[test]
fn a_landed_receive_reads_back_settles_and_loads_the_sent_bytes() {
    const SIZE: usize = 150_000;
    const AT: usize = 1_000;
    const TOTAL: usize = SIZE + 3_000;
    let cases = [
        (
            SystemConfig::ricc as fn() -> SystemConfig,
            TransferStrategy::Pinned,
            true,
        ),
        (SystemConfig::cichlid, TransferStrategy::Mapped, true),
        (
            SystemConfig::ricc,
            TransferStrategy::Pipelined(40_000),
            false,
        ),
        (
            SystemConfig::ricc,
            TransferStrategy::Pipelined(1 << 16),
            false,
        ),
    ];
    for (sys, strategy, one_chunk) in cases {
        let res = run_world_sized(sys().cluster.clone(), 2, move |p: Process| {
            let rt = ClMpi::new(&p, sys());
            rt.set_forced_strategy(Some(strategy));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(TOTAL);
            let sent = pattern(SIZE, 11);
            let checked = (|| {
                if p.rank() == 0 {
                    buf.store(0, &sent)?;
                    rt.enqueue_send_buffer(&q, &buf, true, 0, SIZE, 1, 5, &[], &p.actor)?;
                    return Ok(vec![true; 5]);
                }
                let mut expect = pattern(TOTAL, 12);
                buf.store(0, &expect)?;
                expect[AT..AT + SIZE].copy_from_slice(&sent);
                rt.enqueue_recv_buffer(&q, &buf, true, AT, SIZE, 0, 5, &[], &p.actor)?;
                let landed = buf.share(AT, SIZE);
                let (in_place, viewed) = buf.read_regions(AT, SIZE, SIZE, |views| {
                    let at = views[0].as_ptr();
                    (
                        landed.is_some_and(|l| l.as_ptr() == at),
                        views[0] == &sent[..],
                    )
                });
                let loaded = buf.load(0, TOTAL)?.as_slice() == expect;
                let settled = buf.read(|d| d.as_slice() == expect);
                let reloaded = buf.load(0, TOTAL)?.as_slice() == expect;
                Ok::<_, minicl::ClError>(vec![
                    in_place == one_chunk,
                    viewed,
                    loaded,
                    settled,
                    reloaded,
                ])
            })();
            rt.shutdown(&p.actor);
            checked
        });
        for (rank, out) in res.outputs.into_iter().enumerate() {
            assert_eq!(out, Ok(vec![true; 5]), "{strategy:?}, rank {rank}");
        }
    }
}

/// A send whose range is exactly one landed extent shares it: the wire
/// carries the sender's allocation, and the receiver lands that same
/// allocation, staged or mapped. A send over part of the extent — a
/// `Pipelined` chunk of it, or a range cut short — copies, and delivers
/// the same bytes. The sender's extent stays landed either way.
#[test]
fn a_send_over_one_landed_extent_delivers_the_same_allocation() {
    const LEN: usize = 100_000;
    const AT: usize = 4_096;
    let cases = [
        (
            SystemConfig::ricc as fn() -> SystemConfig,
            TransferStrategy::Pinned,
            (AT, LEN),
            true,
        ),
        (
            SystemConfig::cichlid,
            TransferStrategy::Mapped,
            (AT, LEN),
            true,
        ),
        (
            SystemConfig::ricc,
            TransferStrategy::Pipelined(LEN / 3 + 4),
            (AT, LEN),
            false,
        ),
        (
            SystemConfig::ricc,
            TransferStrategy::Pinned,
            (AT + 8, LEN - 8),
            false,
        ),
    ];
    for (sys, strategy, (offset, len), same) in cases {
        let plane = std::sync::Arc::new(pattern(LEN, 21));
        let sent = plane[offset - AT..offset - AT + len].to_vec();
        let res = run_world_sized(sys().cluster.clone(), 2, move |p: Process| {
            let rt = ClMpi::new(&p, sys());
            rt.set_forced_strategy(Some(strategy));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(2 * AT + LEN);
            let checked = (|| {
                if p.rank() == 0 {
                    buf.land(AT, plane.clone(), 0)?;
                    rt.enqueue_send_buffer(&q, &buf, true, offset, len, 1, 5, &[], &p.actor)?;
                    let kept = buf.share(AT, LEN);
                    return Ok(vec![
                        kept.is_some_and(|k| std::sync::Arc::ptr_eq(&k, &plane));
                        3
                    ]);
                }
                rt.enqueue_recv_buffer(&q, &buf, true, 0, len, 0, 5, &[], &p.actor)?;
                let first = match strategy {
                    TransferStrategy::Pipelined(chunk) => chunk,
                    _ => len,
                };
                // The first wire chunk landed whole: the sender's
                // allocation itself, or a copy of its bytes.
                let got = buf.share(0, first);
                Ok::<_, minicl::ClError>(vec![
                    got.as_ref()
                        .is_some_and(|g| std::sync::Arc::ptr_eq(g, &plane) == same),
                    got.is_some_and(|g| g[..] == sent[..first]),
                    buf.load(0, len)?.as_slice() == sent,
                ])
            })();
            rt.shutdown(&p.actor);
            checked
        });
        for (rank, out) in res.outputs.into_iter().enumerate() {
            assert_eq!(
                out,
                Ok(vec![true; 3]),
                "{strategy:?} of {offset}+{len}, rank {rank}"
            );
        }
    }
}

#[test]
fn invalid_arguments_are_rejected() {
    run_world_sized(SystemConfig::cichlid().cluster.clone(), 2, |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::cichlid());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(64);
        assert!(rt
            .enqueue_send_buffer(&q, &buf, false, 32, 64, 1, 1, &[], &p.actor)
            .is_err());
        assert!(rt
            .enqueue_recv_buffer(&q, &buf, false, 0, 32, 99, 1, &[], &p.actor)
            .is_err());
        rt.shutdown(&p.actor);
    });
}

#[test]
fn gpu_aware_mpi_comparator_delivers_intact() {
    // §II related-work model: direct device-buffer MPI, host-blocking.
    let size = 1 << 20;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        2,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(size);
            let ok = if p.rank() == 0 {
                buf.store(0, &pattern(size, 3)).unwrap();
                let t0 = p.actor.now_ns();
                rt.gpu_aware_send(&p.actor, &q, &buf, 0, size, 1, 4)
                    .unwrap();
                // Host-blocking semantics: time passed during the call.
                p.actor.now_ns() > t0
            } else {
                rt.gpu_aware_recv(&p.actor, &q, &buf, 0, size, 0, 4)
                    .unwrap();
                buf.load(0, size).unwrap().as_slice() == pattern(size, 3)
            };
            rt.shutdown(&p.actor);
            ok
        },
    );
    assert!(res.outputs.iter().all(|&b| b));
}

#[test]
fn enqueue_bcast_buffer_reaches_every_device() {
    // Future-work extension (§VI): collective command with event chaining.
    let size = 512 << 10;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        4,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(size);
            if p.rank() == 2 {
                buf.store(0, &pattern(size, 11)).unwrap();
            }
            let e = rt
                .enqueue_bcast_buffer(&q, &buf, 0, size, 2, 9, &[], &p.actor)
                .unwrap();
            // Chain a kernel on the broadcast completion, clMPI-style.
            let b2 = buf.clone();
            let sum = std::sync::Arc::new(simtime::plock::Mutex::new(0u64));
            let s2 = sum.clone();
            let ek = q.enqueue_kernel("consume", 10_000, std::slice::from_ref(&e), move || {
                *s2.lock() = b2.read(|d| d.as_slice().iter().map(|&x| x as u64).sum());
            });
            ek.wait(&p.actor);
            let ok = buf.load(0, size).unwrap().as_slice() == pattern(size, 11) && *sum.lock() > 0;
            rt.shutdown(&p.actor);
            ok
        },
    );
    assert!(res.outputs.iter().all(|&b| b));
}

#[test]
fn flat_bcast_scales_with_destinations_on_root_nic() {
    // Forced-flat broadcast: the root's NIC serializes per-destination
    // sends, so tripling the destinations more than doubles the time.
    // (The default policy picks pipelined algorithms at this size exactly
    // to escape this scaling — see `ring_bcast_beats_flat_fanout`.)
    let size = 2 << 20;
    let t2 = timed_bcast(2, size, clmpi::CollAlgo::Flat, 1 << 20);
    let t4 = timed_bcast(4, size, clmpi::CollAlgo::Flat, 1 << 20);
    assert!(
        t4 > t2 * 2,
        "3 destinations vs 1 serialize on the root NIC ({t4} vs {t2})"
    );
}

#[test]
fn ring_bcast_beats_flat_fanout() {
    // The tentpole claim at test scale: a chunked store-and-forward ring
    // injects each chunk once per link while flat re-injects the whole
    // payload per destination on the root NIC.
    let (nodes, size, chunk) = (8, 8 << 20, 512 << 10);
    let flat = timed_bcast(nodes, size, clmpi::CollAlgo::Flat, chunk);
    let ring = timed_bcast(nodes, size, clmpi::CollAlgo::Ring, chunk);
    let tree = timed_bcast(nodes, size, clmpi::CollAlgo::Tree, chunk);
    assert!(ring * 2 < flat, "ring {ring} vs flat {flat}");
    assert!(tree < flat, "tree {tree} vs flat {flat}");
}

/// Longest per-rank wall time of one forced-algorithm broadcast from
/// rank 0, contents verified on every rank.
fn timed_bcast(nodes: usize, size: usize, algo: clmpi::CollAlgo, chunk: usize) -> u64 {
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        nodes,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(size);
            if p.rank() == 0 {
                buf.store(0, &pattern(size, 29)).unwrap();
            }
            p.comm.barrier(&p.actor);
            let t0 = p.actor.now_ns();
            let e = rt
                .enqueue_bcast_buffer_as(&q, &buf, 0, size, 0, 1, algo, chunk, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            assert_eq!(buf.load(0, size).unwrap().as_slice(), pattern(size, 29));
            rt.shutdown(&p.actor);
            p.actor.now_ns() - t0
        },
    );
    res.outputs.into_iter().max().unwrap()
}

#[test]
fn transfer_table_audits_strategy_selection() {
    let res = run_world_sized(SystemConfig::ricc().cluster.clone(), 2, |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let small = rt.context().create_buffer(64 << 10);
        let large = rt.context().create_buffer(8 << 20);
        if p.rank() == 0 {
            rt.enqueue_send_buffer(&q, &small, true, 0, 64 << 10, 1, 1, &[], &p.actor)
                .unwrap();
            rt.enqueue_send_buffer(&q, &large, true, 0, 8 << 20, 1, 2, &[], &p.actor)
                .unwrap();
        } else {
            rt.enqueue_recv_buffer(&q, &small, true, 0, 64 << 10, 0, 1, &[], &p.actor)
                .unwrap();
            rt.enqueue_recv_buffer(&q, &large, true, 0, 8 << 20, 0, 2, &[], &p.actor)
                .unwrap();
        }
        rt.shutdown(&p.actor);
        let dir = if p.rank() == 0 { "send" } else { "recv" };
        // RICC auto policy: pinned below 1 MiB, pipelined above.
        let piped =
            clmpi::TransferStrategy::Pipelined(SystemConfig::ricc().auto_block(8 << 20)).name();
        let counters = rt.obs_counters();
        let rows = counters.transfers();
        let took: Vec<_> = rows
            .iter()
            .map(|(d, s, e)| (*d, s.as_str(), e.count, e.bytes))
            .collect();
        assert_eq!(
            took,
            [
                (dir, "pinned", 1, 64 << 10),
                (dir, piped.as_str(), 1, 8 << 20)
            ]
        );
        assert!(counters.report().contains("pinned"));
        rows.iter().map(|r| r.2.count).sum::<u64>()
    });
    assert_eq!(res.outputs, vec![2, 2]);
}

#[test]
fn adaptive_selector_converges_to_best_strategy_per_system() {
    // After probing, the tuner must land on the strategy the static
    // policy (calibrated from Fig. 8) would pick.
    for (mk, expect) in [
        (SystemConfig::cichlid as fn() -> SystemConfig, "mapped"),
        (SystemConfig::ricc, "pinned"),
    ] {
        let res = run_world_sized(mk().cluster.clone(), 2, move |p: Process| {
            let rt = ClMpi::new(&p, mk());
            let sel = std::sync::Arc::new(clmpi::AdaptiveSelector::for_system(rt.config()));
            rt.set_adaptive(Some(sel.clone()));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let size = 256 << 10;
            let buf = rt.context().create_buffer(size);
            for i in 0..6 {
                if p.rank() == 0 {
                    rt.enqueue_send_buffer(&q, &buf, true, 0, size, 1, i, &[], &p.actor)
                        .unwrap();
                } else {
                    rt.enqueue_recv_buffer(&q, &buf, true, 0, size, 0, i, &[], &p.actor)
                        .unwrap();
                }
                p.comm.barrier(&p.actor);
            }
            rt.shutdown(&p.actor);
            // Rank 0 measures send completions (injection end), which
            // ranks strategies the same way end-to-end times do.
            (p.rank() == 0)
                .then(|| sel.winner_for(size).map(|s| s.name()))
                .flatten()
        });
        assert_eq!(
            res.outputs[0].as_deref(),
            Some(expect),
            "winner on {}",
            mk().cluster.name
        );
    }
}

#[test]
fn sendrecv_buffer_convenience_exchanges() {
    let size = 256 << 10;
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        2,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(2 * size);
            // First half = mine (send), second half = ghost (recv).
            buf.store(0, &vec![p.rank() as u8 + 1; size]).unwrap();
            let peer = 1 - p.rank();
            let (es, er) = rt
                .enqueue_sendrecv_buffer(
                    &q,
                    &buf,
                    0,
                    size,
                    size,
                    peer,
                    p.rank() as i32,
                    peer as i32,
                    &[],
                    &p.actor,
                )
                .unwrap();
            es.wait(&p.actor);
            er.wait(&p.actor);
            let got = buf.load(size, size).unwrap();
            rt.shutdown(&p.actor);
            got.as_slice() == vec![peer as u8 + 1; size]
        },
    );
    assert!(res.outputs.iter().all(|&b| b));
}
