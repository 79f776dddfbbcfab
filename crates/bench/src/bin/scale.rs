//! Simulator scale benchmark: Himeno and nanopowder worlds far past the
//! thread-per-actor wall, run on the event scheduler, with simulator
//! *self-throughput* recorded alongside the virtual results.
//!
//! Outputs:
//!
//! 1. `BENCH_scale.json` (repo root) — the deterministic results:
//!    virtual makespans, scheduler event counts, and bit-exact residual/
//!    checksum fingerprints per world size. Byte-identical on rerun; CI
//!    enforces this with a regenerate-and-`cmp` step.
//! 2. `results/scale.json` — the host-dependent sidecar: wall-clock per
//!    config, events/sec, wall-ms per virtual second, and the clock's
//!    wake accounting ([`simtime::WakeStats`]: notifies, alarms fired,
//!    clock advances, scheduler passes, machine polls and ready marks, and
//!    per wait label parks / wake-ups / successes — the counts depend on
//!    how the OS schedules the woken threads), and on Linux what the
//!    kernel charged the process per config ([`ProcUsage`]: minor faults,
//!    user and system CPU ms). `--before` copies the rows of an earlier
//!    sidecar — the parent commit's, measured in the same session — into
//!    a `before` array beside them. Informative only, never diffed.
//!
//! The binary *asserts* in-process that every Himeno world ends with a
//! finite positive residual and every nanopowder world with finite
//! concentrations. `"oracle_match_world64": true` in the artifact records
//! a certified row: the thread-per-machine executor reproduced the
//! world-64 Himeno row (virtual makespan, event count, ObsSummary hash)
//! before it was retired, and that row is committed in
//! `BENCH_scale.json`. CI's "committed artifacts are current" step
//! (`git diff --exit-code` after regenerating) is the check now.
//!
//! Usage: `scale [--out path] [--results path] [--before path]`

use std::time::Instant;

use clmpi::obs::ObsSummary;
use clmpi::SystemConfig;
use clmpi_bench::{write_artifact, ProcUsage};
use himeno::{run_himeno, GridSize, HimenoConfig, Variant};
use nanopowder::{run_nanopowder, NanoConfig, NanoVariant};
use simtime::WakeStats;

/// Himeno covers the full ladder, including the 1,024-rank world: the
/// stencil's communication is neighbor-local, so the simulated world
/// stays tractable at any rank count (at 1,024 ranks the M grid's 127
/// interior planes leave the tail ranks with empty slabs — exactly the
/// degenerate decomposition the scheduler must handle).
const HIMENO_WORLDS: [usize; 3] = [64, 256, 1024];
const HIMENO_ITERS: usize = 2;
/// Nanopowder rows: (world size, sections). The 64-rank row keeps the
/// paper-scale coefficient volume (K=2048 → 16.8 MB/step); 256 ranks
/// drops to K=1024 (4.2 MB/step). The app's rank-0 fan-out/gather is
/// inherently all-to-root, which costs O(world²) simulated wakeups —
/// the 256-rank row is the largest that keeps the CI
/// regenerate-twice job in minutes, and the 1,024-rank scheduling bar
/// is carried by the Himeno ladder above.
const NANO_ROWS: [(usize, usize); 2] = [(64, 2048), (256, 1024)];
const NANO_STEPS: usize = 1;

struct ConfigRow {
    label: String,
    nodes: usize,
    elapsed_ns: u64,
    events: u64,
    /// Bit-exact payload fingerprints, name → f64 bits.
    fingerprints: Vec<(&'static str, u64)>,
    wall_ms: f64,
    /// Host-dependent: sidecar only.
    wake: WakeStats,
    /// Host-dependent: sidecar only; `None` where there is no `/proc`.
    usage: Option<ProcUsage>,
}

impl ConfigRow {
    fn events_per_sec(&self) -> u64 {
        (self.events as f64 / (self.wall_ms / 1e3).max(1e-9)) as u64
    }

    fn wall_ms_per_vsec(&self) -> f64 {
        self.wall_ms / (self.elapsed_ns as f64 / 1e9).max(1e-12)
    }

    /// What the kernel charged the process for this config as sidecar JSON
    /// members, trailing comma included; empty off Linux.
    fn usage_json(&self) -> String {
        self.usage.map_or(String::new(), |u| {
            format!(
                "\"minflt\": {}, \"utime_ms\": {}, \"stime_ms\": {}, ",
                u.minflt, u.utime_ms, u.stime_ms
            )
        })
    }

    /// The wake accounting as sidecar JSON members (labels are static
    /// identifiers-with-spaces; none needs escaping).
    fn wake_json(&self) -> String {
        let waits: Vec<String> = self
            .wake
            .labels
            .iter()
            .map(|(label, w)| {
                format!(
                    "\"{label}\": {{ \"parked\": {}, \"wakeups\": {}, \"successes\": {} }}",
                    w.parked, w.wakeups, w.successes
                )
            })
            .collect();
        format!(
            "\"notifies\": {}, \"alarms_fired\": {}, \"clock_advances\": {}, \
             \"sched_passes\": {}, \"machine_polls\": {}, \"machine_readies\": {}, \
             \"waits\": {{ {} }}",
            self.wake.notifies,
            self.wake.alarms_fired,
            self.wake.advances,
            self.wake.sched_passes,
            self.wake.machine_polls,
            self.wake.machine_readies,
            waits.join(", ")
        )
    }
}

/// RICC's link and device cost model, scaled out past its physical 100
/// nodes: the per-link latency/bandwidth/overhead parameters are
/// unchanged, only the node inventory grows to admit 256/1024-rank
/// worlds.
fn ricc_scaled(nodes: usize) -> SystemConfig {
    let mut sys = SystemConfig::ricc();
    sys.cluster.nodes = sys.cluster.nodes.max(nodes);
    sys
}

fn himeno_cfg(nodes: usize) -> HimenoConfig {
    HimenoConfig {
        size: GridSize::M,
        iters: HIMENO_ITERS,
        sys: ricc_scaled(nodes),
        nodes,
        strategy: None,
        halo: Default::default(),
    }
}

fn run_himeno_row(nodes: usize) -> ConfigRow {
    let t0 = Instant::now();
    let (r, usage) = ProcUsage::during(|| run_himeno(Variant::ClMpi, himeno_cfg(nodes)));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        r.gosa.is_finite() && r.gosa > 0.0,
        "himeno world {nodes}: residual must be finite and positive, got {}",
        r.gosa
    );
    // A blocked receive parks once per message, on its rank's arrival
    // key (two parks per success until that key existed). What is left
    // above one is a receive woken by the arrival of a message another
    // receive of its rank matched: the arrival key is per rank.
    let recv = r.wake.labels.get("mpi recv").copied().unwrap_or_default();
    assert!(
        recv.parked <= recv.successes + recv.successes / 4,
        "himeno world {nodes}: `mpi recv` parked {} times for {} successes",
        recv.parked,
        recv.successes
    );
    ConfigRow {
        label: format!("himeno-M-w{nodes}"),
        nodes,
        elapsed_ns: r.elapsed_ns,
        events: r.sched_events,
        fingerprints: vec![
            ("gosa_bits", r.gosa.to_bits()),
            ("checksum_bits", r.checksum.to_bits()),
            ("obs_fnv1a", ObsSummary::from_trace(&r.trace).hash()),
        ],
        wall_ms,
        wake: r.wake,
        usage,
    }
}

fn run_nano_row(nodes: usize, sections: usize) -> ConfigRow {
    let t0 = Instant::now();
    let (r, usage) = ProcUsage::during(|| {
        run_nanopowder(
            NanoVariant::ClMpi,
            NanoConfig {
                sections,
                steps: NANO_STEPS,
                sys: ricc_scaled(nodes),
                nodes,
            },
        )
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let n_sum: f64 = r.final_n.iter().map(|&v| v as f64).sum();
    assert!(
        n_sum.is_finite() && n_sum > 0.0,
        "nanopowder world {nodes}: final concentrations must be finite"
    );
    ConfigRow {
        label: format!("nanopowder-K{sections}-w{nodes}"),
        nodes,
        elapsed_ns: r.total_ns,
        events: r.sched_events,
        fingerprints: vec![("final_n_sum_bits", n_sum.to_bits())],
        wall_ms,
        wake: r.wake,
        usage,
    }
}

/// Per-row progress line (stderr, wall-clock — never in the artifact).
fn note(r: &ConfigRow) {
    eprintln!(
        "[scale] {:<24} done: {} virtual ns, {} events, {:.1} s wall",
        r.label,
        r.elapsed_ns,
        r.events,
        r.wall_ms / 1e3
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_scale.json".to_string();
    let mut results = "results/scale.json".to_string();
    let mut before: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value").clone(),
            "--results" => results = it.next().expect("--results needs a value").clone(),
            "--before" => before = Some(it.next().expect("--before needs a value").clone()),
            other => panic!("unknown argument {other}"),
        }
    }

    let mut rows: Vec<ConfigRow> = Vec::new();

    // -- Himeno worlds ------------------------------------------------------
    for nodes in HIMENO_WORLDS {
        let row = run_himeno_row(nodes);
        note(&row);
        rows.push(row);
    }

    // -- Nanopowder worlds ------------------------------------------------
    for (nodes, sections) in NANO_ROWS {
        let row = run_nano_row(nodes, sections);
        note(&row);
        rows.push(row);
    }

    // -- Deterministic artifact ------------------------------------------
    let mut configs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let fps: Vec<String> = r
            .fingerprints
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        configs.push_str(&format!(
            "  {{ \"config\": \"{}\", \"nodes\": {}, \"elapsed_ns\": {}, \"sched_events\": {}, {} }}{}\n",
            r.label,
            r.nodes,
            r.elapsed_ns,
            r.events,
            fps.join(", "),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    let bench_json = format!(
        "{{\n\"bench\": \"scale\",\n\
         \"system\": \"ricc\", \"mode\": \"events\", \"himeno_grid\": \"M\", \
         \"himeno_iters\": {HIMENO_ITERS}, \"nano_steps\": {NANO_STEPS},\n\
         \"oracle_match_world64\": true,\n\
         \"configs\": [\n{configs}]\n}}\n"
    );
    write_artifact(&out, &bench_json);

    // -- Host-dependent sidecar ------------------------------------------
    let mut side = String::new();
    for (i, r) in rows.iter().enumerate() {
        side.push_str(&format!(
            "  {{ \"config\": \"{}\", \"wall_ms\": {:.1}, \"events_per_sec\": {}, \"wall_ms_per_virtual_sec\": {:.1}, {}{} }}{}\n",
            r.label,
            r.wall_ms,
            r.events_per_sec(),
            r.wall_ms_per_vsec(),
            r.usage_json(),
            r.wake_json(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    // An earlier sidecar's rows, verbatim. `before` is written ahead of
    // `configs` so that a sidecar that has one lends only its own rows.
    let before = before.map_or(String::new(), |path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let rows = text
            .split_once("\"configs\": [\n")
            .and_then(|(_, rest)| rest.rsplit_once("]\n}"))
            .unwrap_or_else(|| panic!("{path} is not a scale sidecar"))
            .0;
        format!("\"before\": [\n{rows}],\n")
    });
    let side_json =
        format!("{{\n\"bench\": \"scale-wallclock\",\n{before}\"configs\": [\n{side}]\n}}\n");
    write_artifact(&results, &side_json); // the host-dependent wall-clock sidecar

    for r in &rows {
        println!(
            "{:<24} elapsed {:>12} ns  events {:>9}  wall {:>8.1} ms  ({} ev/s)",
            r.label,
            r.elapsed_ns,
            r.events,
            r.wall_ms,
            r.events_per_sec()
        );
    }
}
