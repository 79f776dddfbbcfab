//! Deterministic rank-failure recovery benchmark: the Himeno M solve
//! with the checkpointing recovery harness, fault-free and with one and
//! two ranks killed mid-loop. Measures the cost of surviving — recovery
//! latency (virtual time added by detect → shrink → restore → recompute)
//! and goodput retained — and exports the recovery observability
//! counters (`proc_failures`, `revokes`, `shrinks`, `restores`).
//!
//! Outputs:
//!
//! 1. `BENCH_recovery.json` (repo root) — virtual-time results. Every
//!    field is integer or bit-exact (`gosa` as f64 bits), so a rerun is
//!    byte-identical; CI enforces this with a regenerate-and-`cmp` step.
//! 2. `results/recovery.txt` — human-readable summary.
//!
//! The binary *asserts* the PR's acceptance bar — the one-kill Himeno M
//! run must recover (shrink + restore) and converge to the fault-free
//! residual bit-for-bit-comparable tolerance — so CI fails on
//! regression.
//!
//! Usage: `recovery [--out path] [--results path]`

use clmpi::obs::ObsSummary;
use clmpi::SystemConfig;
use clmpi_bench::write_artifact;
use himeno::{reference_jacobi, run_himeno_recover, GridSize, RecoverConfig};
use minimpi::FaultPlan;

const NODES: usize = 4;
const ITERS: usize = 4;
const CKPT_EVERY: usize = 2;

fn cfg() -> RecoverConfig {
    RecoverConfig {
        size: GridSize::M,
        iters: ITERS,
        sys: SystemConfig::ricc(),
        nodes: NODES,
        ckpt_every: CKPT_EVERY,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_recovery.json".to_string();
    let mut results = "results/recovery.txt".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().expect("--out needs a value").clone(),
            "--results" => results = it.next().expect("--results needs a value").clone(),
            other => panic!("unknown argument {other}"),
        }
    }

    // -- Fault-free baseline (also bounds the kill scan) -----------------
    let base = run_himeno_recover(cfg(), FaultPlan::none());
    assert_eq!(base.survivors, NODES);
    assert!(!base.recovered);

    // -- Early kill: before any checkpoint is durable ---------------------
    // Shared-storage checkpoint writes dominate the timeline, so at 1/4
    // of the baseline the first slot is still in flight: the survivors
    // must shrink and restart from initial conditions.
    let early = run_himeno_recover(
        cfg(),
        FaultPlan::none().with_node_down(2, base.elapsed_ns / 4),
    );
    assert_eq!(early.survivors, NODES - 1);
    assert!(early.recovered, "early kill: survivors shrank and resumed");
    assert_eq!(
        early.resumed_from, None,
        "early kill: no slot was durable yet"
    );

    // -- One rank killed mid-loop, restored from a checkpoint -------------
    // The window where a slot is already durable *and* the survivors still
    // have compute left is narrow (serialized checkpoint I/O brackets it),
    // and its location depends on the timing model. Scan upward from the
    // midpoint in 1/128ths of the baseline — deterministically — until the
    // kill yields a shrink-and-restore recovery; give up once kills land
    // after the survivors' last reduction (clean completion).
    let mut chosen = None;
    for x in 64u64..128 {
        let t = base.elapsed_ns * x / 128;
        let res = run_himeno_recover(cfg(), FaultPlan::none().with_node_down(2, t));
        if res.recovered && res.resumed_from.is_some() {
            chosen = Some((t, res));
            break;
        }
        if !res.recovered {
            break; // survivors completed cleanly: past the last reduction
        }
    }
    let (t_kill, one) = chosen.expect("some kill instant must force a restore-based recovery");
    assert_eq!(one.survivors, NODES - 1, "one rank died");
    assert!(one.recovered, "survivors shrank and resumed");
    assert!(
        one.resumed_from.is_some(),
        "a checkpoint slot survived the kill"
    );

    // -- Two ranks killed at the same instant ----------------------------
    let two = run_himeno_recover(
        cfg(),
        FaultPlan::none()
            .with_node_down(1, t_kill)
            .with_node_down(3, t_kill),
    );
    assert_eq!(two.survivors, NODES - 2, "two ranks died");
    assert!(two.recovered);

    // -- Acceptance: the recovered solve converges to the reference ------
    let r = reference_jacobi(GridSize::M, ITERS);
    let (mi, mj, mk) = GridSize::M.dims();
    let mut ref_sum = 0.0f64;
    for i in 1..mi - 1 {
        for j in 1..mj - 1 {
            for k in 1..mk - 1 {
                ref_sum += r.p[(i * mj + j) * mk + k].abs() as f64;
            }
        }
    }
    for (name, res) in [
        ("fault-free", &base),
        ("early-kill", &early),
        ("one-kill", &one),
        ("two-kill", &two),
    ] {
        assert!(
            (res.gosa - r.gosa).abs() / r.gosa < 1e-9,
            "{name}: gosa {} vs reference {}",
            res.gosa,
            r.gosa
        );
        assert!(
            (res.checksum - ref_sum).abs() / ref_sum < 1e-10,
            "{name}: checksum {} vs reference {ref_sum}",
            res.checksum
        );
    }

    // -- Recovery counters from the one-kill trace ------------------------
    let summary = ObsSummary::from_trace(&one.trace);
    let totals =
        |f: fn(&clmpi::obs::RankSummary) -> u64| -> u64 { summary.ranks.values().map(f).sum() };
    let (failures, revokes, shrinks, restores) = (
        totals(|r| r.proc_failures),
        totals(|r| r.revokes),
        totals(|r| r.shrinks),
        totals(|r| r.restores),
    );
    assert!(failures > 0, "survivors classified the dead rank");
    assert!(revokes >= (NODES - 1) as u64, "every survivor revoked");
    assert!(shrinks >= (NODES - 1) as u64, "every survivor shrank");
    assert!(restores > 0, "the survivors restored checkpoint planes");

    // Goodput retained: baseline virtual time over faulty virtual time,
    // in integer permille (how much of the fault-free rate survives the
    // failure, recovery included).
    let goodput = |res: &himeno::RecoverResult| base.elapsed_ns * 1000 / res.elapsed_ns.max(1);
    let (g1, g2) = (goodput(&one), goodput(&two));
    let overhead = |res: &himeno::RecoverResult| res.elapsed_ns.saturating_sub(base.elapsed_ns);

    let ge = goodput(&early);
    let bench_json = format!(
        "{{\n\"bench\": \"recovery\",\n\
         \"system\": \"ricc\", \"grid\": \"M\", \"nodes\": {NODES}, \"iters\": {ITERS}, \"ckpt_every\": {CKPT_EVERY},\n\
         \"faultfree_ns\": {}, \"gosa_bits\": {}, \"t_kill_ns\": {t_kill},\n\
         \"early_kill\": {{ \"survivors\": {}, \"resumed_from\": -1, \"elapsed_ns\": {}, \"recovery_overhead_ns\": {}, \"goodput_x1000\": {ge}, \"gosa_bits\": {} }},\n\
         \"one_kill\": {{ \"survivors\": {}, \"resumed_from\": {}, \"elapsed_ns\": {}, \"recovery_overhead_ns\": {}, \"goodput_x1000\": {g1}, \"gosa_bits\": {} }},\n\
         \"two_kill\": {{ \"survivors\": {}, \"elapsed_ns\": {}, \"recovery_overhead_ns\": {}, \"goodput_x1000\": {g2}, \"gosa_bits\": {} }},\n\
         \"recovery_counters\": {{ \"proc_failures\": {failures}, \"revokes\": {revokes}, \"shrinks\": {shrinks}, \"restores\": {restores} }},\n\
         \"obs\": {},\n\
         \"obs_fnv1a\": {}\n}}\n",
        base.elapsed_ns,
        base.gosa.to_bits(),
        early.survivors,
        early.elapsed_ns,
        overhead(&early),
        early.gosa.to_bits(),
        one.survivors,
        one.resumed_from.map_or(-1i64, |s| s as i64),
        one.elapsed_ns,
        overhead(&one),
        one.gosa.to_bits(),
        two.survivors,
        two.elapsed_ns,
        overhead(&two),
        two.gosa.to_bits(),
        summary.to_json().trim_end(),
        summary.hash(),
    );
    write_artifact(&out, &bench_json);

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut table = String::new();
    table.push_str("Himeno M recovery (4 RICC ranks, checkpoint every 2 iters)\n");
    table.push_str("scenario     survivors  virtual_ms  overhead_ms  goodput\n");
    for (name, res) in [
        ("fault-free", &base),
        ("early-kill", &early),
        ("one-kill", &one),
        ("two-kill", &two),
    ] {
        table.push_str(&format!(
            "{name:<12} {:>9}  {:>10.3}  {:>11.3}  {:>6.3}\n",
            res.survivors,
            ms(res.elapsed_ns),
            ms(overhead(res)),
            goodput(res) as f64 / 1000.0,
        ));
    }
    table.push_str(&format!(
        "recovery counters (one-kill): failures {failures}, revokes {revokes}, \
         shrinks {shrinks}, restores {restores}\n"
    ));
    print!("{table}");
    std::fs::write(&results, &table).unwrap_or_else(|e| panic!("write {results}: {e}"));
    eprintln!("(summary written to {results})");
}
