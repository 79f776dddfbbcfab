//! The Himeno M overlap run (clMPI variant) and a small nanopowder run,
//! written as the repo's machine-readable perf artifacts. The simulator's
//! own wall-clock speed is measured in one place, the repo benchmark
//! (`BENCHMARK.json`, whose `himeno_paper` workload times this run).
//!
//! Two outputs:
//!
//! 1. `BENCH_himeno_m.json` (repo root) — the **virtual-time** outcome of
//!    the run: elapsed ns, GFLOPS, gosa/checksum bit patterns, the
//!    per-rank obs summary (ops, bytes, overlap %), and its FNV-1a
//!    fingerprint. Every field is a pure function of the simulation, so
//!    the file is byte-identical across runs — the perf-trajectory data
//!    point CI archives.
//! 2. `BENCH_himeno_m.trace.json` — the same run exported as Chrome
//!    `trace_events` JSON (open in `chrome://tracing` or Perfetto).
//!
//! Usage: `himeno_wallclock [--bench-out path] [--trace-out path]
//!                          [--iters N] [--nodes N]`

use clmpi::obs::{chrome_trace, ObsSummary};
use clmpi::SystemConfig;
use clmpi_bench::{fnv1a_f32s, write_artifact};
use himeno::{run_himeno, GridSize, HimenoConfig, Variant};
use nanopowder::{run_nanopowder, NanoConfig, NanoVariant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench_out = "BENCH_himeno_m.json".to_string();
    let mut trace_out = "BENCH_himeno_m.trace.json".to_string();
    let mut iters = 12usize;
    let mut nodes = 4usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench-out" => bench_out = it.next().expect("--bench-out needs a value").clone(),
            "--trace-out" => trace_out = it.next().expect("--trace-out needs a value").clone(),
            "--iters" => iters = it.next().expect("value").parse().expect("iters"),
            "--nodes" => nodes = it.next().expect("value").parse().expect("nodes"),
            other => panic!("unknown argument {other}"),
        }
    }

    let cfg = || HimenoConfig {
        size: GridSize::M,
        iters,
        sys: SystemConfig::cichlid(),
        nodes,
        strategy: None,
        halo: Default::default(),
    };
    let him = run_himeno(Variant::ClMpi, cfg());

    let nano = run_nanopowder(
        NanoVariant::ClMpi,
        NanoConfig {
            sections: 120,
            steps: 2,
            sys: SystemConfig::ricc(),
            nodes: 4,
        },
    );
    let nano_fnv = fnv1a_f32s(&nano.final_n);

    // -- Deterministic artifacts (BENCH_* + Chrome trace) ---------------
    let summary = ObsSummary::from_trace(&him.trace);
    // Hand-rolled json (workspace has zero external deps). f64 witnesses
    // are stored as IEEE-754 bit patterns so equality is exact; every
    // field is virtual-time-derived so reruns are byte-identical.
    let bench_json = format!(
        "{{\n\"bench\": \"himeno_m_overlap\",\n\
         \"grid\": \"M\", \"variant\": \"clMPI\", \"system\": \"cichlid\",\n\
         \"nodes\": {nodes}, \"iters\": {iters},\n\
         \"virtual_elapsed_ns\": {}, \"gflops_bits\": {},\n\
         \"gosa_bits\": {}, \"checksum_bits\": {},\n\
         \"nanopowder\": {{ \"sections\": 120, \"steps\": 2, \"system\": \"ricc\", \"nodes\": 4,\n\
         \"virtual_total_ns\": {}, \"virtual_step_ns\": {}, \"final_n_fnv1a\": {} }},\n\
         \"obs\": {},\n\
         \"obs_fnv1a\": {}\n}}\n",
        him.elapsed_ns,
        him.gflops.to_bits(),
        him.gosa.to_bits(),
        him.checksum.to_bits(),
        nano.total_ns,
        nano.step_ns,
        nano_fnv,
        summary.to_json().trim_end(),
        summary.hash(),
    );
    write_artifact(&bench_out, &bench_json);

    let trace_json = chrome_trace(&him.trace);
    write_artifact(&trace_out, &trace_json); // open in chrome://tracing

    println!("overlap accounting (quantitative Fig. 4, himeno M / clMPI):");
    println!("{}", summary.overlap.render());
}
