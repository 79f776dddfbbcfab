//! Deterministic collective-pipeline benchmark: the paper-scale 42 MB
//! coefficient broadcast (3240² × 4 B, the nanopowder volume) across 8
//! RICC ranks under each dissemination algorithm, cross-checked against
//! the analytic models, plus the application-level effect (nanopowder
//! step time, per-rank fan-out vs one pipelined broadcast).
//!
//! Outputs:
//!
//! 1. `BENCH_coll.json` (repo root) — virtual-time results: per-algorithm
//!    broadcast ns and modeled throughput, the ring/flat speedup, the
//!    analytic cross-check, nanopowder fanout-vs-broadcast step times,
//!    and the obs summary of the ring run with its FNV-1a fingerprint.
//!    Pure function of the simulation → byte-identical across reruns.
//! 2. `BENCH_coll.trace.json` — Chrome `trace_events` export of the ring
//!    broadcast (op.bcast envelopes with chunk/forward/stage children).
//! 3. `results/coll.txt` — human-readable summary table.
//!
//! The binary *asserts* the PR's acceptance bar — pipelined ring ≥ 2× the
//! flat fan-out throughput at 42 MB / 8 ranks — so CI fails on regression.
//!
//! Usage: `coll [--out path] [--trace-out path] [--results path]`

use clmpi::obs::{chrome_trace, ObsSummary};
use clmpi::{analytic, ClMpi, CollAlgo, SystemConfig};
use clmpi_bench::{fnv1a_f32s, write_artifact};
use minimpi::{run_world_sized, Process};
use nanopowder::{run_nanopowder, NanoConfig, NanoVariant};
use simtime::Trace;

/// 3240² × 4 B — the paper's per-step coefficient volume.
const BYTES: usize = 41_990_400;
const NODES: usize = 8;
const CHUNK: usize = 1 << 20;

/// Longest per-rank virtual time of one forced-algorithm broadcast from
/// rank 0, plus the run's trace.
fn timed_bcast(algo: CollAlgo) -> (u64, Trace) {
    let res = run_world_sized(
        SystemConfig::ricc().cluster.clone(),
        NODES,
        move |p: Process| {
            let rt = ClMpi::new(&p, SystemConfig::ricc());
            let q = rt.context().create_queue(0, format!("r{}", p.rank()));
            let buf = rt.context().create_buffer(BYTES);
            if p.rank() == 0 {
                buf.store(0, &vec![0x5A; BYTES]).expect("seed payload");
            }
            p.comm.barrier(&p.actor);
            let t0 = p.actor.now_ns();
            let e = rt
                .enqueue_bcast_buffer_as(&q, &buf, 0, BYTES, 0, 1, algo, CHUNK, &[], &p.actor)
                .expect("broadcast");
            e.wait(&p.actor);
            assert!(!e.is_failed(), "fault-free broadcast must succeed");
            assert_eq!(
                buf.load(0, BYTES).expect("payload").as_slice(),
                vec![0x5A; BYTES]
            );
            rt.shutdown(&p.actor);
            p.actor.now_ns() - t0
        },
    );
    (res.outputs.into_iter().max().expect("ranks"), res.trace)
}

/// Modeled throughput in bytes/s as exact integer math (no float
/// formatting in the deterministic artifact).
fn bps(ns: u64) -> u64 {
    (BYTES as u128 * 1_000_000_000 / ns.max(1) as u128) as u64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_coll.json".to_string();
    let mut trace_out = "BENCH_coll.trace.json".to_string();
    let mut results = "results/coll.txt".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value").clone(),
            "--trace-out" => trace_out = it.next().expect("--trace-out needs a value").clone(),
            "--results" => results = it.next().expect("--results needs a value").clone(),
            other => panic!("unknown argument {other}"),
        }
    }

    // -- The 42 MB / 8-rank broadcast under each algorithm --------------
    let (flat_ns, _) = timed_bcast(CollAlgo::Flat);
    let (tree_ns, _) = timed_bcast(CollAlgo::Tree);
    let (ring_ns, ring_trace) = timed_bcast(CollAlgo::Ring);
    let sys = SystemConfig::ricc();
    let model = |algo| analytic::bcast_ns(&sys, algo, BYTES, NODES, CHUNK);
    let ring_vs_flat_x1000 = bps(ring_ns) * 1000 / bps(flat_ns).max(1);
    assert!(
        ring_vs_flat_x1000 >= 2000,
        "acceptance bar: pipelined ring must be ≥ 2× flat fan-out \
         throughput at 42 MB / 8 ranks (got {}.{:03}×)",
        ring_vs_flat_x1000 / 1000,
        ring_vs_flat_x1000 % 1000
    );

    // -- Application effect: nanopowder per-step distribution -----------
    let nano = |variant| {
        run_nanopowder(
            variant,
            NanoConfig {
                sections: 720,
                steps: 2,
                sys: SystemConfig::ricc(),
                nodes: 4,
            },
        )
    };
    let fanout = nano(NanoVariant::ClMpiFanout);
    let bcast = nano(NanoVariant::ClMpi);
    let n_fnv = |r: &nanopowder::NanoResult| fnv1a_f32s(&r.final_n);
    assert_eq!(
        n_fnv(&fanout),
        n_fnv(&bcast),
        "distribution path must not change the physics"
    );
    assert!(
        bcast.step_ns <= fanout.step_ns,
        "the pipelined broadcast must not be slower than per-rank fan-out \
         ({} vs {})",
        bcast.step_ns,
        fanout.step_ns
    );

    // -- Deterministic artifacts ----------------------------------------
    let summary = ObsSummary::from_trace(&ring_trace);
    let bench_json = format!(
        "{{\n\"bench\": \"coll_pipeline\",\n\
         \"system\": \"ricc\", \"nodes\": {NODES}, \"bytes\": {BYTES}, \"chunk\": {CHUNK},\n\
         \"bcast_virtual_ns\": {{ \"flat\": {flat_ns}, \"tree\": {tree_ns}, \"ring\": {ring_ns} }},\n\
         \"bcast_bytes_per_s\": {{ \"flat\": {}, \"tree\": {}, \"ring\": {} }},\n\
         \"ring_vs_flat_x1000\": {ring_vs_flat_x1000},\n\
         \"analytic_ns\": {{ \"flat\": {}, \"tree\": {}, \"ring\": {} }},\n\
         \"nanopowder\": {{ \"sections\": 720, \"steps\": 2, \"system\": \"ricc\", \"nodes\": 4,\n\
         \"fanout_step_ns\": {}, \"bcast_step_ns\": {}, \"final_n_fnv1a\": {} }},\n\
         \"obs\": {},\n\
         \"obs_fnv1a\": {}\n}}\n",
        bps(flat_ns),
        bps(tree_ns),
        bps(ring_ns),
        model(CollAlgo::Flat),
        model(CollAlgo::Tree),
        model(CollAlgo::Ring),
        fanout.step_ns,
        bcast.step_ns,
        n_fnv(&bcast),
        summary.to_json().trim_end(),
        summary.hash(),
    );
    write_artifact(&out, &bench_json);

    let trace_json = chrome_trace(&ring_trace);
    write_artifact(&trace_out, &trace_json); // open in chrome://tracing

    let ms = |ns: u64| ns as f64 / 1e6;
    let gbps = |ns: u64| bps(ns) as f64 / 1e9;
    let mut table = String::new();
    table.push_str("42 MB broadcast across 8 RICC ranks (1 MiB chunks)\n");
    table.push_str("algo        virtual_ms   modeled_GB/s   analytic_ms\n");
    for (name, ns, algo) in [
        ("flat", flat_ns, CollAlgo::Flat),
        ("tree", tree_ns, CollAlgo::Tree),
        ("ring", ring_ns, CollAlgo::Ring),
    ] {
        table.push_str(&format!(
            "{name:<10}  {:>10.3}  {:>13.3}  {:>12.3}\n",
            ms(ns),
            gbps(ns),
            ms(model(algo)),
        ));
    }
    table.push_str(&format!(
        "ring/flat throughput: {}.{:03}x\n\n",
        ring_vs_flat_x1000 / 1000,
        ring_vs_flat_x1000 % 1000
    ));
    table.push_str("nanopowder step (720 sections, 4 RICC nodes):\n");
    table.push_str(&format!(
        "per-rank fan-out: {:.3} ms   pipelined bcast: {:.3} ms\n",
        ms(fanout.step_ns),
        ms(bcast.step_ns)
    ));
    print!("{table}");
    std::fs::write(&results, &table).unwrap_or_else(|e| panic!("write {results}: {e}"));
    eprintln!("(summary written to {results})");
}
