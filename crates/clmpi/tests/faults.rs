//! Integration tests: clMPI transfers under deterministic fault
//! injection — retry-until-delivery, degradation, and error-propagating
//! events.

use clmpi::{data_plane_faults, ClMpi, RetryPolicy, SystemConfig, TransferStrategy};
use minimpi::{run_world_faulty, FaultPlan, Process};
use simtime::XorShift64;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A lossy fabric (1% chunk drop) still delivers a pipelined transfer
/// intact; the retries are visible in the stats and the trace.
#[test]
fn lossy_pipelined_transfer_delivers_intact_with_retries() {
    let size = 8 << 20; // many pipeline chunks → drops are near-certain
    let plan = data_plane_faults(FaultPlan::drops(42, 0.05));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 18)));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        let ok = if p.rank() == 0 {
            buf.store(0, &pattern(size, 9)).unwrap();
            let e = rt
                .enqueue_send_buffer(&q, &buf, false, 0, size, 1, 3, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed(), "send must survive 5% loss via retries");
            true
        } else {
            let e = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, size, 0, 3, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed());
            buf.load(0, size).unwrap().as_slice() == pattern(size, 9)
        };
        rt.shutdown(&p.actor);
        let f = rt.obs_counters().faults;
        (ok, f.retries, f.failures)
    });
    assert!(res.outputs.iter().all(|&(ok, _, _)| ok));
    let sender = res.outputs[0];
    assert!(sender.1 > 0, "expected sender-side retries under 5% loss");
    assert_eq!(sender.2, 0, "no permanent failures expected");
    assert!(res.fault_counts.dropped() > 0);
    assert!(
        res.trace.spans().iter().any(|s| s.lane.contains(".fault")),
        "retries must appear in the fault trace lane"
    );
}

/// Repeated consecutive loss degrades pipelined → pinned; the latch is
/// observable and resettable.
#[test]
fn repeated_loss_degrades_pipelined_to_pinned() {
    // Drop everything on the data plane: the first chunk exhausts the
    // (small) retry budget while flipping the degradation latch.
    let plan = data_plane_faults(FaultPlan::drops(7, 1.0));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy {
            degrade_after: 2,
            ..RetryPolicy::new(3, 10_000)
        });
        if p.rank() == 0 {
            assert!(!rt.is_degraded());
            let req = rt.isend_cl(&p.actor, 1, 5, &pattern(1 << 20, 3));
            let err = req.wait_result(&p.actor);
            assert!(err.is_err(), "total loss must exhaust the retry budget");
            assert!(rt.is_degraded(), "consecutive drops must latch degradation");
            let f = rt.obs_counters().faults;
            assert!(f.chunk_drops >= 2);
            assert_eq!(f.degraded, 1);
            assert!(f.failures >= 1);
            rt.reset_degradation();
            assert!(!rt.is_degraded());
        }
        rt.shutdown(&p.actor);
        p.rank()
    });
    assert_eq!(res.outputs.len(), 2);
}

/// A permanently failed transfer fails its event with a negative status,
/// and commands gated on that event are poisoned instead of running.
#[test]
fn failed_transfer_event_poisons_dependents() {
    use clmpi::CL_MPI_TRANSFER_ERROR;
    use minicl::EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST;

    let plan = data_plane_faults(FaultPlan::drops(11, 1.0));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_retry_policy(RetryPolicy::new(2, 5_000));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(4096);
        let codes = if p.rank() == 0 {
            buf.store(0, &[1u8; 4096]).unwrap();
            let e = rt
                .enqueue_send_buffer(&q, &buf, false, 0, 4096, 1, 2, &[], &p.actor)
                .unwrap();
            // A kernel-style command gated on the failing send.
            let dep = q.enqueue_kernel("after-send", 1_000, std::slice::from_ref(&e), || {});
            e.wait(&p.actor);
            dep.wait(&p.actor);
            (e.error_code(), dep.error_code())
        } else {
            // The receiver gives up quickly: nothing ever arrives.
            rt.set_retry_policy(RetryPolicy {
                chunk_timeout_ns: 1_000_000,
                ..RetryPolicy::default()
            });
            let e = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, 4096, 0, 2, &[], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            (e.error_code(), None)
        };
        rt.shutdown(&p.actor);
        codes
    });
    let (send_code, dep_code) = res.outputs[0];
    assert_eq!(send_code, Some(CL_MPI_TRANSFER_ERROR));
    assert_eq!(dep_code, Some(EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST));
    let (recv_code, _) = res.outputs[1];
    assert_eq!(recv_code, Some(CL_MPI_TRANSFER_ERROR));
}

/// The same fault seed yields the same virtual-time run, chunk for
/// chunk: elapsed time, payloads, fault counters and trace all match.
#[test]
fn same_fault_seed_is_fully_deterministic() {
    let run = || {
        let plan = data_plane_faults(FaultPlan::drops(1234, 0.1).with_jitter(30_000));
        let cluster = SystemConfig::ricc().cluster.clone();
        let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 16)));
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(1 << 20);
            let out = if p.rank() == 0 {
                buf.store(0, &pattern(1 << 20, 77)).unwrap();
                let e = rt
                    .enqueue_send_buffer(&q, &buf, false, 0, 1 << 20, 1, 1, &[], &p.actor)
                    .unwrap();
                e.wait(&p.actor);
                Vec::new()
            } else {
                let e = rt
                    .enqueue_recv_buffer(&q, &buf, false, 0, 1 << 20, 0, 1, &[], &p.actor)
                    .unwrap();
                e.wait(&p.actor);
                buf.load(0, 1 << 20).unwrap().as_slice().to_vec()
            };
            rt.shutdown(&p.actor);
            out
        });
        let spans: Vec<String> = res
            .trace
            .spans()
            .iter()
            .map(|s| format!("{}|{}|{}|{}", s.lane, s.label, s.start, s.end))
            .collect();
        (res.elapsed_ns, res.outputs.clone(), res.fault_counts, spans)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "elapsed must be reproducible");
    assert_eq!(a.1, b.1, "payloads must be reproducible");
    assert_eq!(a.2, b.2, "fault counters must be reproducible");
    assert_eq!(a.3, b.3, "trace must be reproducible");
    assert_eq!(a.1[1], pattern(1 << 20, 77), "data must still be intact");
}

/// What one rank of `failed_receives_withdraw_so_the_tag_is_reusable`
/// reports: per round, its commands' error codes (a rejected `isend_cl`
/// as `CL_MPI_TRANSFER_ERROR`); the root's reduce folds recorded in round
/// 0; and whether round 1 delivered the right bytes.
type WithdrawReport = (Vec<Vec<Option<i32>>>, usize, bool);

/// One rank of that test: rank 0 sends to ranks 1 (`enqueue_send_buffer`)
/// and 2 (`isend_cl`), and every rank reduces onto rank 0, twice on the
/// same tags.
fn withdraw_rounds(
    p: &Process,
) -> Result<WithdrawReport, Box<dyn std::error::Error + Send + Sync>> {
    use clmpi::{ReduceOp, CL_MPI_TRANSFER_ERROR};
    const SIZE: usize = 64 << 10;
    const COUNT: usize = 1 << 20;
    let rt = ClMpi::new(p, SystemConfig::ricc());
    rt.set_retry_policy(RetryPolicy {
        chunk_timeout_ns: 5_000_000,
        ..RetryPolicy::new(2, 5_000)
    });
    let (a, me) = (&p.actor, p.rank());
    let q = rt.context().create_queue(0, format!("r{me}"));
    let buf = rt.context().create_buffer(SIZE);
    let rbuf = rt.context().create_buffer(COUNT * 8);
    // Small integers: the sum is exact in any order.
    let contrib = |r: usize| (0..COUNT).map(move |i| (r * 1000 + i % 997) as f64);
    let mut codes = Vec::new();
    let (mut folds, mut delivered) = (0, true);
    for round in 0..2 {
        let words: Vec<u8> = contrib(me).flat_map(f64::to_le_bytes).collect();
        rbuf.store(0, &words)?;
        let er = rt.enqueue_reduce_buffer(&q, &rbuf, 0, COUNT, ReduceOp::Sum, 0, 1, &[], a)?;
        if round == 0 {
            // The host joins the outage, with the reduce mid-ring.
            q.enqueue_kernel("until-down", WITHDRAW_DOWN, &[], || {})
                .wait(a);
        }
        let mut round_codes = Vec::new();
        match me {
            0 => {
                buf.store(0, &pattern(SIZE, 31))?;
                let es = rt.enqueue_send_buffer(&q, &buf, false, 0, SIZE, 1, 1, &[], a)?;
                let sent = rt.isend_cl(a, 2, 2, &pattern(SIZE, 32)).wait_result(a);
                es.wait(a);
                round_codes.push(es.error_code());
                round_codes.push(sent.err().map(|_| CL_MPI_TRANSFER_ERROR));
            }
            1 => {
                buf.store(0, &[0u8; SIZE])?;
                let er = rt.enqueue_recv_buffer(&q, &buf, false, 0, SIZE, 0, 1, &[], a)?;
                er.wait(a);
                round_codes.push(er.error_code());
                delivered &= round == 0 || buf.load(0, SIZE)?.as_slice() == pattern(SIZE, 31);
            }
            _ => {
                let r = rt.irecv_cl(a, 0, 2, SIZE);
                r.event.wait(a);
                round_codes.push(r.event.error_code());
                delivered &= round == 0 || r.data.read(|h| h.as_slice() == pattern(SIZE, 32));
            }
        }
        er.wait(a);
        round_codes.push(er.error_code());
        codes.push(round_codes);
        if round == 0 {
            let trace = p.comm.world().trace().ops();
            folds = trace
                .iter()
                .filter(|o| o.rank == 0 && o.cat == "reduce")
                .count();
            // Sit out the rest of the outage, then line the ranks up.
            let rest = WITHDRAW_LINK_BACK - a.now_ns();
            q.enqueue_kernel("outage", rest, &[], || {}).wait(a);
            p.comm.barrier(a);
        }
    }
    if me == 0 {
        let got = rbuf.load(0, COUNT * 8)?;
        let want = (0..COUNT).map(|i| (0..3).map(|r| (r * 1000 + i % 997) as f64).sum::<f64>());
        delivered &= got.as_f64().iter().copied().eq(want);
    }
    rt.shutdown(a);
    Ok((codes, folds, delivered))
}

/// Where the data plane goes down and comes back. On RICC with three
/// ranks and an 8 MiB reduce, the ring's last reduce-scatter injections
/// are granted by ~4.2 ms and the gather's at ~6.8 ms, so the window
/// opens between them: the root completes its ring, and its wildcard
/// gather receive is what fails (a window from 0 would fail the ring
/// first, and the gather would never be posted).
const WITHDRAW_DOWN: u64 = 6_000_000;
const WITHDRAW_LINK_BACK: u64 = 50_000_000;

/// While the data plane is down, `enqueue_recv_buffer`, `irecv_cl` and
/// `enqueue_reduce_buffer`'s root gather each fail by running out of
/// patience with a receive still posted. Once the link is back, the same
/// commands on the same tags among the same ranks deliver the right
/// bytes: a receive left behind by a failed command would have been
/// posted first and swallowed the new command's first chunk.
#[test]
fn failed_receives_withdraw_so_the_tag_is_reusable() {
    use clmpi::CL_MPI_TRANSFER_ERROR;
    let plan =
        data_plane_faults(FaultPlan::none().with_down_window(WITHDRAW_DOWN, WITHDRAW_LINK_BACK));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 3, plan, move |p: Process| {
        withdraw_rounds(&p).map_err(|e| e.to_string())
    });
    let dead = Some(CL_MPI_TRANSFER_ERROR);
    for (rank, out) in res.outputs.iter().enumerate() {
        let Ok((codes, folds, delivered)) = out else {
            assert_eq!(
                out.as_ref().err(),
                None,
                "rank {rank}: a command was rejected"
            );
            continue;
        };
        assert!(
            codes[0].iter().all(|&c| c == dead),
            "rank {rank}: outage fails all: {codes:?}"
        );
        assert!(
            codes[1].iter().all(|&c| c.is_none()),
            "rank {rank}: second round clean: {codes:?}"
        );
        assert!(delivered, "rank {rank}: second round's bytes");
        if rank == 0 {
            assert_eq!(
                *folds, 2,
                "the root's ring completed before its gather failed"
            );
        }
    }
}
