//! Fault injection — the failure-aware transfer runtime end to end.
//!
//! Attaches a seeded, deterministic `FaultPlan` to the simulated fabric
//! (drops + latency jitter on the clMPI data plane only), runs a
//! pipelined device→device transfer through the loss, and prints the
//! retry/degradation counters plus the `net.fault` trace lane. Running
//! it twice prints identical numbers: message fate is a pure function of
//! the plan seed and the flow coordinates, never of thread timing.
//!
//! Run: `cargo run --release --example fault_injection`

use clmpi::{data_plane_faults, ClMpi, RetryPolicy, SystemConfig, TransferStrategy};
use minimpi::{run_world_faulty, FaultPlan};
use simtime::fmt_ns;

fn main() {
    const BYTES: usize = 8 << 20;
    // 5% chunk loss + up to 50 µs arrival jitter, scoped to clMPI data
    // tags so barriers and control traffic stay reliable.
    let plan = data_plane_faults(FaultPlan::drops(42, 0.05).with_jitter(50_000));
    let sys = SystemConfig::ricc();
    let res = run_world_faulty(sys.cluster.clone(), 2, plan, |p| {
        let rt = ClMpi::new(&p, SystemConfig::ricc());
        rt.set_forced_strategy(Some(TransferStrategy::Pipelined(1 << 18)));
        rt.set_retry_policy(RetryPolicy::new(5, 200_000));
        let q = rt.context().create_queue(0, format!("rank{}", p.rank()));
        let buf = rt.context().create_buffer(BYTES);
        if p.rank() == 0 {
            buf.store(0, &vec![7u8; BYTES]).unwrap();
            let e = rt
                .enqueue_send_buffer(&q, &buf, false, 0, BYTES, 1, 1, &[], &p.actor)
                .expect("enqueue send");
            e.wait(&p.actor);
            assert!(!e.is_failed(), "retries must absorb 5% loss");
        } else {
            let e = rt
                .enqueue_recv_buffer(&q, &buf, false, 0, BYTES, 0, 1, &[], &p.actor)
                .expect("enqueue recv");
            e.wait(&p.actor);
            assert_eq!(
                buf.load(0, BYTES).unwrap().as_slice(),
                vec![7u8; BYTES],
                "data intact"
            );
        }
        rt.shutdown(&p.actor);
        (p.rank(), rt.obs_counters().faults, rt.is_degraded())
    });

    println!("8 MiB pipelined transfer over a 5% lossy link (seed 42):");
    println!("  virtual elapsed      {}", fmt_ns(res.elapsed_ns));
    println!(
        "  fabric counters      delivered={} dropped={}",
        res.fault_counts.delivered,
        res.fault_counts.dropped()
    );
    for (rank, faults, degraded) in &res.outputs {
        println!(
            "  rank {rank} runtime       chunk_drops={} retries={} degraded={} failures={} (latched: {degraded})",
            faults.chunk_drops, faults.retries, faults.degraded, faults.failures
        );
    }
    println!("\nfault trace lane:");
    for s in res
        .trace
        .spans()
        .iter()
        .filter(|s| s.lane.contains("fault"))
    {
        println!(
            "  [{} .. {}] {:<12} {}",
            fmt_ns(s.start),
            fmt_ns(s.end),
            s.lane,
            s.label
        );
    }
    println!("\nRe-run me: every line above is identical each time — the");
    println!("fault plan is deterministic in (seed, src, dst, tag, flow #).");
}
