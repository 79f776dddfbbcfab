//! Wake-by-dependency at world level: the virtual result of a Himeno
//! world does not depend on how many shard workers serve its machines,
//! at 256 ranks the rank threads' waits are woken for their own
//! dependencies, not for everybody's, and a shard worker makes a pass
//! per settle round, not per notify.

use std::process::Command;

use clmpi::{ObsSummary, SystemConfig};
use himeno::{run_himeno_with_faults_mode, GridSize, HimenoConfig, HimenoResult, Variant};
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

const FINGERPRINT: &str = "himeno-fingerprint:";

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

/// Run [`print_himeno_fingerprint`] in a child with `SIM_SHARDS=shards`
/// and return the fingerprint it printed.
fn fingerprint_with_shards(shards: &str) -> std::io::Result<String> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--exact", "print_himeno_fingerprint", "--ignored"])
        .arg("--nocapture")
        .env("SIM_SHARDS", shards)
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "SIM_SHARDS={shards} child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
        .lines()
        .find_map(|l| l.split_once(FINGERPRINT).map(|(_, f)| f.trim().to_owned()))
        .ok_or_else(|| std::io::Error::other(format!("no fingerprint in:\n{stdout}")))
}

#[test]
fn himeno_world_is_identical_under_any_shard_count() -> std::io::Result<()> {
    let one = fingerprint_with_shards("1")?;
    assert_eq!(one.split_whitespace().count(), 3, "{one}");
    for shards in ["3", "8"] {
        assert_eq!(
            fingerprint_with_shards(shards)?,
            one,
            "(virtual_ns, events, obs hash) at SIM_SHARDS={shards}"
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
    // Shard workers are held until every rank thread has parked, so a
    // frozen instant costs each flagged worker one pass per settle round
    // whatever the OS interleaving: 3,500–4,100 here. Signalled on every
    // notify they made 12,000–77,000, depending on how often the OS
    // let one in between the rank threads.
    let shard = r
        .wake
        .labels
        .get("sched shard")
        .copied()
        .unwrap_or_default();
    assert!(shard.successes > 0, "no shard worker ran? {shard:?}");
    assert!(
        shard.wakeups <= 8_000,
        "sched shard: {} wake-ups in one Himeno w256 run",
        shard.wakeups
    );
}
