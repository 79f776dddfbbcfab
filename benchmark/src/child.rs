//! What runs inside a measuring child process: one workload, untraced
//! (the end-to-end numbers) or traced (the per-layer numbers), or the
//! layer probes. Results go to stdout in the line protocol of
//! [`crate::report`].
//!
//! The loop is closed: one driver thread, one repetition in flight, the
//! next starts when the previous has returned and been checked.

use std::time::Instant;

use clmpi::ObsSummary;

use crate::host::{self, ThreadSampler};
use crate::probes::{self, secs};
use crate::report::{emit_metric, emit_result, SPAN_LAYERS};
use crate::spans;
use crate::stats::{median, summarize};
use crate::workloads::{Kind, Prepared, RepOutcome, Workload, MIN_REPS};

/// Repetitions of each pass (untraced, then traced) of a traced run.
const TRACE_REPS: usize = 3;

/// One set-up: inputs, serial reference, one untimed warm-up repetition.
fn set_up(w: &Workload, seed: u64, corrupt: bool) -> (Prepared, RepOutcome, f64) {
    let t = Instant::now();
    let prepared = w.prepare(seed, corrupt);
    let warm = prepared.rep();
    (prepared, warm, t.elapsed().as_secs_f64())
}

/// Failed ops of `out`: its own, or all of them if the repetition's
/// simulated time, event count or result bits differ from the warm-up's.
fn failed_ops(out: &RepOutcome, warm: &RepOutcome, rep: usize) -> u64 {
    let same = out.virtual_ns == warm.virtual_ns
        && out.events == warm.events
        && out.fingerprint == warm.fingerprint;
    if !same {
        eprintln!(
            "rep {rep} does not repeat the warm-up: virtual_ns {} vs {}, events {} vs {}, result {:#x} vs {:#x}",
            out.virtual_ns, warm.virtual_ns, out.events, warm.events, out.fingerprint, warm.fingerprint
        );
        return out.ops;
    }
    out.failed
}

/// Timed repetitions: at least `min_reps`, then until `seconds` have
/// passed. Returns per-repetition wall seconds and the failed-op total.
fn timed_reps(
    prepared: &Prepared,
    warm: &RepOutcome,
    seconds: f64,
    min_reps: usize,
) -> (Vec<f64>, u64) {
    let (mut walls, mut failed) = (Vec::new(), 0);
    let start = Instant::now();
    while walls.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        spans::set_rep(walls.len() as u64);
        let t = Instant::now();
        let out = {
            let _s = spans::enter("rep");
            prepared.rep()
        };
        walls.push(t.elapsed().as_secs_f64());
        failed += failed_ops(&out, warm, walls.len());
    }
    (walls, failed)
}

fn emit_outcome(warm: &RepOutcome, reps: usize, failed: u64) {
    emit_result("attempted", warm.ops * (reps as u64 + 1));
    emit_result("failed", failed);
    emit_result("virtual_ns", warm.virtual_ns);
    emit_result("events", warm.events);
    emit_result("fingerprint", warm.fingerprint);
}

/// One cold set-up in a fresh process: `setup_s` is the median over
/// several of these. Returns true if the warm-up's ops checked out.
pub fn run_setup(w: &Workload, seed: u64, corrupt: bool) -> bool {
    let (_, warm, setup_s) = set_up(w, seed, corrupt);
    emit_metric("setup_s", setup_s, "s");
    warm.failed == 0
}

/// The end-to-end run of one workload: a cold set-up (one more `setup_s`
/// sample), then the timed region. Returns true if no op failed.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64, corrupt: bool) -> bool {
    let (prepared, warm, setup_s) = set_up(w, seed, corrupt);
    let cpu0 = host::cpu_times();
    let (walls, failed) = timed_reps(&prepared, &warm, seconds, MIN_REPS);
    let cpu = host::cpu_times().since(cpu0);
    let failed = failed + warm.failed;

    let wall = summarize(&walls);
    println!("{}: wall_s {}", w.name, wall.render("s"));
    if let Prepared::OpMix { program, .. } = &prepared {
        println!("{}: schedule {:#018x}", w.name, program.schedule_hash());
    }
    println!(
        "{}: ops/rep {} virtual_ms {} cpu_s/rep {:.3} sys_share {:.2} peak_rss_mb {:.0}",
        w.name,
        warm.ops,
        warm.virtual_ns as f64 / 1e6,
        cpu.total() / walls.len() as f64,
        cpu.sys_share(),
        host::peak_rss_mb()
    );
    emit_metric("wall_s", wall.median, "s");
    emit_metric("ops_per_s", warm.ops as f64 / wall.median, "1/s");
    emit_metric("setup_s", setup_s, "s");
    emit_outcome(&warm, walls.len(), failed);
    failed == 0
}

/// The `[c]` metrics: exact counts out of one repetition's result.
fn emit_counts(out: &RepOutcome) {
    let summary = out
        .summary
        .clone()
        .or_else(|| out.trace.as_ref().map(ObsSummary::from_trace));
    let chunks = out.trace.as_ref().map_or(0, |t| {
        t.ops().iter().filter(|o| o.cat == "chunk").count() as u64
    });
    let sum = |pick: fn(&clmpi::obs::RankSummary) -> u64| {
        summary
            .as_ref()
            .map_or(0, |s| s.ranks.values().map(pick).sum::<u64>()) as f64
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (comm_ns, overlap_ns) = summary.as_ref().map_or((0, 0), |s| {
        s.overlap
            .ranks
            .iter()
            .fold((0, 0), |acc, r| (acc.0 + r.comm_ns, acc.1 + r.overlap_ns))
    });
    let retries = sum(|r| r.chunk_retries);
    emit_metric("virtual_ms", out.virtual_ns as f64 / 1e6, "sim_ms");
    emit_metric("simtime.events", out.events as f64, "count");
    emit_metric(
        "simnet.delivered",
        out.fault_counts.delivered as f64,
        "count",
    );
    emit_metric("simnet.drops", out.fault_counts.dropped() as f64, "count");
    emit_metric(
        "simnet.jitter_ns",
        out.fault_counts.jitter_ns_total as f64,
        "sim_ns",
    );
    emit_metric("clmpi.ops", sum(|r| r.ops), "count");
    emit_metric("clmpi.ops_failed", sum(|r| r.ops_failed), "count");
    emit_metric("clmpi.bytes_sent", sum(|r| r.bytes_sent), "bytes");
    emit_metric("clmpi.chunks", chunks as f64, "count");
    emit_metric("clmpi.chunk_retries", retries, "count");
    emit_metric("clmpi.chunk_drops", sum(|r| r.chunk_drops), "count");
    emit_metric("clmpi.rma_bytes", sum(|r| r.rma_bytes), "bytes");
    emit_metric("clmpi.coll_bytes", sum(|r| r.coll_bytes), "bytes");
    emit_metric(
        "clmpi.max_in_flight",
        summary
            .as_ref()
            .and_then(|s| s.ranks.values().map(|r| r.max_in_flight).max())
            .unwrap_or(0) as f64,
        "count",
    );
    emit_metric(
        "clmpi.overlap_pct",
        100.0 * ratio(overlap_ns as f64, comm_ns as f64),
        "%",
    );
    emit_metric("clmpi.retry_share", ratio(retries, chunks as f64), "ratio");
    emit_metric(
        "obs.spans",
        summary.as_ref().map_or(0, |s| s.total_spans) as f64,
        "count",
    );
    emit_metric(
        "obs.op_spans",
        summary.as_ref().map_or(0, |s| s.total_ops) as f64,
        "count",
    );
}

/// The rungs measured at the workload's own size, in this child so they
/// run on the workload's executor.
fn emit_app_rungs(w: &Workload, warm: &RepOutcome) {
    let (mut summary_us, mut chrome_us) = (0.0, 0.0);
    if let Some(trace) = &warm.trace {
        let spans = (trace.spans().len() + trace.ops().len()).max(1) as f64;
        summary_us = secs(|| drop(ObsSummary::from_trace(trace))) * 1e6 / spans;
        chrome_us = secs(|| drop(clmpi::chrome_trace(trace))) * 1e6 / spans;
    }
    emit_metric("obs.summary_us_per_span", summary_us, "us");
    emit_metric("obs.chrome_us_per_span", chrome_us, "us");
    let (mut kernel_s, mut halo_s, mut model_s) = (0.0, 0.0, 0.0);
    match w.kind {
        Kind::Himeno { nodes, iters } => {
            kernel_s = secs(|| drop(himeno::reference_jacobi(himeno::GridSize::M, iters)));
            halo_s = probes::himeno_halo_s(nodes, iters);
        }
        Kind::Nanopowder {
            sections, steps, ..
        } => model_s = secs(|| drop(nanopowder::reference_simulation(sections, steps))),
        Kind::OpMix { .. } => {}
    }
    emit_metric("himeno.kernel_s", kernel_s, "s");
    emit_metric("himeno.halo_s", halo_s, "s");
    emit_metric("nanopowder.model_s", model_s, "s");
}

/// The per-layer run of one workload: a short untraced pass, the same
/// pass again with host-time spans recorded around every call into a
/// layer, and the rungs at the workload's size. Writes the spans as a
/// Chrome trace to `trace_path`. Returns true if no op failed.
pub fn run_traced(w: &Workload, seed: u64, trace_path: &std::path::Path) -> bool {
    let (prepared, warm, _) = set_up(w, seed, false);
    let cpu0 = host::cpu_times();
    let (plain, failed_plain) = timed_reps(&prepared, &warm, 0.0, TRACE_REPS);
    let cpu = host::cpu_times().since(cpu0);

    let sampler = ThreadSampler::start();
    spans::set_enabled(true);
    let (traced, failed_traced) = timed_reps(&prepared, &warm, 0.0, TRACE_REPS);
    spans::set_enabled(false);
    let threads_peak = sampler.finish();
    let recorded = spans::drain();
    let failed = warm.failed + failed_plain + failed_traced;

    let (plain_s, traced_s) = (median(&plain), median(&traced));
    emit_counts(&warm);
    emit_metric(
        "simtime.us_per_event",
        plain_s * 1e6 / warm.events.max(1) as f64,
        "us",
    );
    emit_metric("clmpi.us_per_op", plain_s * 1e6 / warm.ops as f64, "us");
    emit_app_rungs(w, &warm);
    emit_metric("host.cpu_s", cpu.total() / plain.len() as f64, "s");
    emit_metric("host.sys_share", cpu.sys_share(), "ratio");
    emit_metric("host.peak_rss_mb", host::peak_rss_mb(), "MB");
    emit_metric("host.threads_peak", threads_peak as f64, "count");
    emit_metric("trace.overhead_x", traced_s / plain_s, "x");

    // The layer table: thread-seconds per repetition, by span name.
    let totals = spans::totals(&recorded);
    let reps = traced.len() as f64;
    println!(
        "{}: traced wall_s {traced_s:.6} untraced {plain_s:.6}",
        w.name
    );
    println!(
        "{}: {:<32} {:>8} {:>12} {:>12}",
        w.name, "span", "count/rep", "total ms/rep", "self ms/rep"
    );
    for (name, t) in &totals {
        println!(
            "{}: {:<32} {:>8.1} {:>12.3} {:>12.3}",
            w.name,
            name,
            t.count as f64 / reps,
            t.total_ns as f64 / 1e6 / reps,
            t.self_ns as f64 / 1e6 / reps
        );
    }
    for layer in SPAN_LAYERS {
        let self_ns: u64 = totals
            .iter()
            .filter(|(name, _)| spans::layer_of(name) == layer)
            .map(|(_, t)| t.self_ns)
            .sum();
        emit_metric(
            &format!("trace.self_ms.{layer}"),
            self_ns as f64 / 1e6 / reps,
            "ms",
        );
    }
    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(trace_path, spans::chrome_json(&recorded))
        .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));
    println!(
        "{}: {} spans written to {}",
        w.name,
        recorded.len(),
        trace_path.display()
    );
    emit_outcome(&warm, plain.len() + traced.len(), failed);
    failed == 0
}

/// The layer probes of one executor.
pub fn run_probes(event_core: bool) {
    let metrics = if event_core {
        probes::event_core_probes()
    } else {
        probes::default_probes()
    };
    for m in metrics {
        emit_metric(&m.name, m.value, m.unit);
    }
}
