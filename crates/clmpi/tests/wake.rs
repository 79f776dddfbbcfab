//! Wake-by-dependency at world level: the virtual result of a Himeno
//! world — and of the recovery benchmark's kill scenarios — does not
//! depend on how many shard workers serve its machines, at 256 ranks the
//! rank threads' waits are woken for their own dependencies, not for
//! everybody's, and a shard worker runs when something one of its
//! machines read has changed, to poll that machine.

use std::process::Command;

use clmpi::{ObsSummary, SystemConfig};
use himeno::{
    run_himeno_recover, run_himeno_with_faults_mode, GridSize, HimenoConfig, HimenoResult,
    RecoverConfig, Variant,
};
use minimpi::FaultPlan;
use simtime::ExecMode;

fn himeno_events(size: GridSize, nodes: usize) -> HimenoResult {
    let mut sys = SystemConfig::ricc();
    sys.cluster.nodes = sys.cluster.nodes.max(nodes);
    run_himeno_with_faults_mode(
        Variant::ClMpi,
        HimenoConfig {
            size,
            iters: 2,
            sys,
            nodes,
            strategy: None,
            halo: Default::default(),
        },
        FaultPlan::none(),
        ExecMode::Events,
    )
}

const FINGERPRINT: &str = "world-fingerprint:";

/// Child half of [`himeno_world_is_identical_under_any_shard_count`]:
/// `SIM_SHARDS` is read when a clock is created, and a test must not set
/// a process-global variable under its sibling tests, so each shard count
/// gets a process of its own.
#[test]
#[ignore = "helper: run by himeno_world_is_identical_under_any_shard_count"]
fn print_himeno_fingerprint() {
    let r = himeno_events(GridSize::S, 8);
    println!(
        "{FINGERPRINT} {} {} {:016x}",
        r.elapsed_ns,
        r.sched_events,
        ObsSummary::from_trace(&r.trace).hash()
    );
}

/// Child half of [`recovery_scenarios_are_identical_under_any_executor`]:
/// the one-kill and two-kill scenarios of `BENCH_recovery.json` (Himeno
/// M on 4 RICC ranks, kill instant as committed there), on the executor
/// the environment selects.
#[test]
#[ignore = "helper: run by recovery_scenarios_are_identical_under_any_executor"]
fn print_recovery_fingerprint() {
    const T_KILL_NS: u64 = 101_719_167;
    let run = |killed: &[usize]| {
        let plan = killed
            .iter()
            .fold(FaultPlan::none(), |p, &n| p.with_node_down(n, T_KILL_NS));
        run_himeno_recover(
            RecoverConfig {
                size: GridSize::M,
                iters: 4,
                sys: SystemConfig::ricc(),
                nodes: 4,
                ckpt_every: 2,
            },
            plan,
        )
    };
    let (one, two) = (run(&[2]), run(&[1, 3]));
    println!(
        "{FINGERPRINT} {} {} {}",
        one.elapsed_ns,
        two.elapsed_ns,
        ObsSummary::from_trace(&one.trace).hash()
    );
}

/// Run the ignored helper test `helper` in a child with `env` set and
/// return the fingerprint it printed.
fn child_fingerprint(helper: &str, env: (&str, &str)) -> std::io::Result<String> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--exact", helper, "--ignored", "--nocapture"])
        .env_remove("SIM_SHARDS")
        .env_remove("SIM_EXEC_MODE")
        .env(env.0, env.1)
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}={} child failed:\n{stdout}\n{}",
        env.0,
        env.1,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.split_once(FINGERPRINT).map(|(_, f)| f.trim().to_owned()))
        .ok_or_else(|| std::io::Error::other(format!("no fingerprint in:\n{stdout}")))
}

#[test]
fn himeno_world_is_identical_under_any_shard_count() -> std::io::Result<()> {
    let one = child_fingerprint("print_himeno_fingerprint", ("SIM_SHARDS", "1"))?;
    assert_eq!(one.split_whitespace().count(), 3, "{one}");
    for shards in ["3", "8"] {
        assert_eq!(
            child_fingerprint("print_himeno_fingerprint", ("SIM_SHARDS", shards))?,
            one,
            "(virtual_ns, events, obs hash) at SIM_SHARDS={shards}"
        );
    }
    Ok(())
}

/// A receive aborts on `peer_failed(src, now)` the first time it is
/// polled past the plan's kill instant, and no alarm announces that
/// instant — so *when* a machine is polled is visible in virtual time
/// here as nowhere else. With machines woken by what they read this
/// diverged (`rank 2 comm_ns`, and the two-kill makespan at one shard)
/// while every other test stayed green; `Fabric::node_down_at` keeps
/// such a machine a wildcard, and this pins the result to the oracle's.
#[test]
fn recovery_scenarios_are_identical_under_any_executor() -> std::io::Result<()> {
    let helper = "print_recovery_fingerprint";
    let oracle = child_fingerprint(helper, ("SIM_EXEC_MODE", "threads"))?;
    assert_eq!(oracle.split_whitespace().count(), 3, "{oracle}");
    for shards in ["1", "3", "8"] {
        assert_eq!(
            child_fingerprint(helper, ("SIM_SHARDS", shards))?,
            oracle,
            "(one-kill ns, two-kill ns, one-kill obs hash) at SIM_SHARDS={shards}"
        );
    }
    Ok(())
}

#[test]
fn himeno_w256_rank_waits_wake_for_their_own_dependencies() {
    // Under the global broadcast this world woke `event wait` 241 times
    // and `mpi recv` 52 times per predicate success. Keyed, an event
    // waiter is woken by its event alone, and a receive by its own rank
    // state and arrival alarm — plus, for one receive at a time, the
    // fabric arbiter's grant alarms.
    let r = himeno_events(GridSize::M, 256);
    assert_eq!(
        (r.elapsed_ns, r.sched_events),
        (1_653_033, 4_336),
        "the BENCH_scale.json row for himeno-M-w256"
    );
    for label in ["event wait", "mpi recv"] {
        let w = r.wake.labels.get(label).copied().unwrap_or_default();
        assert!(w.successes > 0, "{label} never parked? {w:?}");
        assert!(
            w.wakeups <= 16 * w.successes,
            "{label}: {} wake-ups for {} successes",
            w.wakeups,
            w.successes
        );
    }
    // A shard worker is flagged when a notify or alarm readies one of its
    // machines, and held until every rank thread has parked: 720–890
    // wake-ups here. Flagged by every notify and alarm it made 3,500–
    // 4,100; signalled at once, 12,000–77,000.
    let shard = r
        .wake
        .labels
        .get("sched shard")
        .copied()
        .unwrap_or_default();
    assert!(shard.successes > 0, "no shard worker ran? {shard:?}");
    assert!(
        shard.wakeups <= 2_000,
        "sched shard: {} wake-ups in one Himeno w256 run",
        shard.wakeups
    );
    // A pass polls the machines that were readied, not every resident:
    // 2.7 polls per machine transition here, 38 when every pass polled
    // all ~100 residents of its shard.
    assert!(
        r.wake.machine_polls <= 4 * r.sched_events,
        "{} machine polls for {} transitions",
        r.wake.machine_polls,
        r.sched_events
    );
}
