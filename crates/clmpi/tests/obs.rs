//! Integration tests for the structured observability pipeline: Chrome
//! trace export (lanes + causal send/recv flow links), byte-identical
//! deterministic exports across same-seed runs, live counters, and the
//! adaptive probe-starvation regression under fault injection.

use clmpi::{
    data_plane_faults, obs, AdaptiveSelector, ClMpi, ObsCounters, ObsSummary, RetryPolicy,
    SystemConfig, TransferStrategy,
};
use minimpi::{run_world_faulty, FaultPlan, Process, WorldResult};
use simtime::XorShift64;
use std::sync::Arc;

fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = XorShift64::new(seed);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// One traced 2-rank workload: a kernel on each rank's GPU lane, then a
/// pipelined device→device transfer under a mildly lossy fabric — enough
/// structure to exercise host/dev/net tracks, compute overlap, and the
/// drop/retry child spans. Every rank returns its live counters.
fn traced_exchange(seed: u64) -> WorldResult<ObsCounters> {
    let size = 256 << 10;
    let plan = data_plane_faults(FaultPlan::drops(seed, 0.05));
    let cluster = SystemConfig::ricc().cluster.clone();
    run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 16)));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        q.set_trace(p.comm.world().trace().clone(), format!("r{}.gpu", p.rank()));
        let buf = rt.context().create_buffer(size);
        let k = q.enqueue_kernel("compute", 400_000, &[], || {});
        if p.rank() == 0 {
            buf.store(0, &pattern(size, seed)).unwrap();
            let e = rt
                .enqueue_send_buffer(&q, &buf, false, 0, size, 1, 4, &[k], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed());
        } else {
            let e = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, size, 0, 4, &[k], &p.actor)
                .unwrap();
            e.wait(&p.actor);
            assert!(!e.is_failed());
            assert_eq!(buf.load(0, size).unwrap().as_slice(), pattern(size, seed));
        }
        rt.shutdown(&p.actor);
        let c = rt.obs_counters();
        assert_eq!(c.submitted, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.failed, 0);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.max_in_flight, 1);
        c
    })
}

/// The generated Chrome trace validates as JSON and contains the host,
/// device, and net lanes with causally-linked send/recv op spans.
#[test]
fn chrome_trace_has_linked_host_dev_net_lanes() {
    let res = traced_exchange(42);
    assert_eq!(res.trace.reversed_spans(), 0, "no causality bugs");

    let json = obs::chrome_trace(&res.trace);
    obs::validate_json(&json).expect("chrome trace is well-formed JSON");

    // ≥3 structured lanes per the acceptance criteria: host (op
    // envelopes), device (staging hops), net (wire chunks) — plus the
    // legacy compute/comm lanes.
    for lane in ["r0.host", "r0.dev", "r0.net", "r1.host", "r0.gpu"] {
        assert!(
            json.contains(&format!("\"args\":{{\"name\":\"{lane}\"}}")),
            "missing lane {lane}"
        );
    }
    // The send op envelope and its matched receive, linked by a flow pair.
    assert!(json.contains("\"cat\":\"op.send\""));
    assert!(json.contains("\"cat\":\"op.recv\""));
    assert!(json.contains("\"cat\":\"stage.d2h\""));
    assert!(json.contains("\"cat\":\"chunk\""));
    assert!(json.contains("\"ph\":\"s\""), "flow start event present");
    assert!(json.contains("\"ph\":\"f\""), "flow finish event present");

    // Child spans carry their causal parent link.
    let ops = res.trace.ops();
    let send = ops
        .iter()
        .find(|o| o.cat == "op.send")
        .expect("send envelope recorded");
    assert!(
        ops.iter()
            .any(|o| o.parent == Some(send.id) && o.cat == "chunk"),
        "wire chunks are children of the send op"
    );
    assert!(send.peer == Some(1) && send.tag.is_some() && send.ok);

    // The summary sees both ranks and a meaningful overlap window.
    let summary = ObsSummary::from_trace(&res.trace);
    assert_eq!(summary.ranks.len(), 2);
    assert_eq!(summary.ranks[&0].ops, 1);
    assert_eq!(summary.ranks[&0].bytes_sent, 256 << 10);
    assert_eq!(summary.ranks[&1].bytes_received, 256 << 10);
    assert_eq!(summary.reversed_spans, 0);
    obs::validate_json(&summary.to_json()).expect("summary is well-formed JSON");
    let r0 = &summary.overlap.ranks[0];
    assert!(r0.compute_ns > 0 && r0.comm_ns > 0);
}

/// Same seed → byte-identical exports, run to run: the Chrome trace and
/// the summary JSON compare equal as strings, and a 16-seed loop agrees
/// on the summary hash.
#[test]
fn exports_are_byte_identical_across_same_seed_runs() {
    let a = traced_exchange(7);
    let b = traced_exchange(7);
    assert_eq!(
        obs::chrome_trace(&a.trace),
        obs::chrome_trace(&b.trace),
        "chrome trace must be byte-identical for the same seed"
    );
    assert_eq!(
        ObsSummary::from_trace(&a.trace).to_json(),
        ObsSummary::from_trace(&b.trace).to_json(),
        "summary JSON must be byte-identical for the same seed"
    );

    for seed in 0..16u64 {
        let h1 = ObsSummary::from_trace(&traced_exchange(seed).trace).hash();
        let h2 = ObsSummary::from_trace(&traced_exchange(seed).trace).hash();
        assert_eq!(h1, h2, "summary hash diverged for seed {seed}");
    }
}

/// The live ledger and the span-derived summary are two readings of the
/// same events: every fault is counted where its span is recorded, so per
/// rank they agree exactly. (`proc_failures` only where nobody calls
/// `notify_proc_failure`, which records a span without a failed transfer.)
#[test]
fn live_fault_counters_match_the_span_derived_summary_per_rank() {
    let mut drops = 0;
    for seed in 0..16u64 {
        let res = traced_exchange(seed);
        let summary = ObsSummary::from_trace(&res.trace);
        for (rank, live) in res.outputs.iter().enumerate() {
            let (derived, f) = (summary.ranks[&(rank as u32)], live.faults);
            let at = format!("seed {seed} rank {rank}");
            assert_eq!(f.chunk_drops, derived.chunk_drops, "{at}: drops");
            assert_eq!(
                f.chunk_drops,
                f.drops_random + f.drops_link_down + f.drops_node_down,
                "{at}: every drop has one reason"
            );
            assert_eq!(f.retries, derived.chunk_retries, "{at}: retries");
            assert_eq!(f.proc_failures, derived.proc_failures, "{at}: dead peers");
            assert_eq!(
                (live.completed, live.failed),
                (derived.ops_ok, derived.ops_failed),
                "{at}: settlements"
            );
            drops += f.chunk_drops;
        }
    }
    assert!(drops > 0, "the lossy world must lose something");
}

/// Regression (adaptive probe starvation): a probe transfer that fails
/// permanently used to never reach `observe()`, so its strategy stayed
/// `pending` forever and `choose()` re-handed the failing candidate
/// indefinitely. With `observe_failure` wired into the engine's failure
/// path, failed probes retire their candidate, and when every candidate
/// fails the class falls back to `candidates[0]`.
#[test]
fn failed_probes_retire_candidates_under_fault_injection() {
    let size = 64 << 10;
    // Total data-plane loss: every probe exhausts its retry budget.
    let plan = data_plane_faults(FaultPlan::drops(99, 1.0));
    let cluster = SystemConfig::ricc().cluster.clone();
    let res = run_world_faulty(cluster, 2, plan, move |p: Process| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        let sel = Arc::new(AdaptiveSelector::with_candidates(vec![
            TransferStrategy::Pinned,
            TransferStrategy::Mapped,
        ]));
        rt.set_adaptive(Some(sel.clone()));
        rt.set_retry_policy(RetryPolicy {
            chunk_timeout_ns: 2_000_000,
            ..RetryPolicy::new(2, 10_000)
        });
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        // Two probe rounds: each hands out the next pending candidate;
        // each fails permanently and must retire it. Before the fix this
        // loop would probe Pinned both times and never converge.
        let mut probed = Vec::new();
        for tag in 0..2 {
            let e = if p.rank() == 0 {
                probed.push(sel.choose(size));
                rt.enqueue_send_buffer(&q, &buf, false, 0, size, 1, tag, &[], &p.actor)
                    .unwrap()
            } else {
                rt.enqueue_recv_buffer(&q, &buf, false, 0, size, 0, tag, &[], &p.actor)
                    .unwrap()
            };
            e.wait(&p.actor);
            assert!(e.is_failed(), "total loss must fail the transfer");
        }
        rt.shutdown(&p.actor);
        let c = rt.obs_counters();
        assert_eq!(c.submitted, 2);
        assert_eq!(c.failed, 2);
        assert_eq!(c.completed, 0);
        (
            probed,
            sel.failures_for(size),
            sel.winner_for(size),
            sel.choose(size),
        )
    });
    let (probed, failures, winner, post_choice) = res.outputs[0].clone();
    assert_eq!(
        probed,
        vec![TransferStrategy::Pinned, TransferStrategy::Mapped],
        "the rotation must move past a failed probe instead of starving"
    );
    assert_eq!(
        failures,
        vec![TransferStrategy::Pinned, TransferStrategy::Mapped]
    );
    assert_eq!(
        winner,
        Some(TransferStrategy::Pinned),
        "all candidates failed: fall back to candidates[0]"
    );
    assert_eq!(post_choice, TransferStrategy::Pinned);
    // The failed ops are visible in the structured spans too.
    let failed_sends = res
        .trace
        .ops()
        .iter()
        .filter(|o| o.cat == "op.send" && !o.ok)
        .count();
    assert_eq!(failed_sends, 2);
    assert!(
        res.trace.ops().iter().any(|o| o.cat == "drop"),
        "observed chunk losses appear as drop child spans"
    );
}
