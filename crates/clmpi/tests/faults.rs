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
