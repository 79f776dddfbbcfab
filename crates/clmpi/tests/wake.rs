//! Wake-by-dependency at world level: the virtual result of the recovery
//! benchmark's kill scenarios reproduces its committed row, at 256
//! ranks the rank threads' waits are woken for their own dependencies,
//! not for everybody's, and the scheduler runs when something one of its
//! machines read has changed, to poll that machine.

use clmpi::{ObsSummary, SystemConfig};
use himeno::{
    run_himeno, run_himeno_recover, GridSize, HimenoConfig, HimenoResult, RecoverConfig, Variant,
};
use minimpi::FaultPlan;

fn himeno_world(size: GridSize, nodes: usize) -> HimenoResult {
    let mut sys = SystemConfig::ricc();
    sys.cluster.nodes = sys.cluster.nodes.max(nodes);
    run_himeno(
        Variant::ClMpi,
        HimenoConfig {
            size,
            iters: 2,
            sys,
            nodes,
            strategy: None,
            halo: Default::default(),
        },
    )
}

/// A receive aborts on `peer_failed(src, now)` the first time it is
/// polled past the plan's kill instant, and no alarm announces that
/// instant — so *when* a machine is polled is visible in virtual time
/// here as nowhere else. With machines woken by what they read this
/// diverged (`rank 2 comm_ns`, and the two-kill makespan)
/// while every other test stayed green; `Fabric::node_down_at` keeps
/// such a machine a wildcard. The one-kill and two-kill scenarios of
/// `BENCH_recovery.json` (Himeno M on 4 RICC ranks, kill instant as
/// committed there) reproduce `(one-kill ns, two-kill ns, one-kill obs
/// hash)` as the thread-per-machine executor measured them before it
/// was retired.
#[test]
fn recovery_scenarios_reproduce_their_committed_fingerprint() {
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
    assert_eq!(
        (
            one.elapsed_ns,
            two.elapsed_ns,
            ObsSummary::from_trace(&one.trace).hash()
        ),
        (1_320_464_655, 344_444_578, 0xdbc5_cb61_d991_cd22)
    );
}

#[test]
fn himeno_w256_rank_waits_wake_for_their_own_dependencies() {
    // Under the global broadcast this world woke `event wait` 241 times
    // and `mpi recv` 52 times per predicate success. Keyed, an event
    // waiter is woken by its event alone, and a receive by its own rank
    // state and arrival alarm — plus, for one receive at a time, the
    // fabric arbiter's grant alarms.
    let r = himeno_world(GridSize::M, 256);
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
    // The scheduler is flagged when a notify or alarm readies one of its
    // machines, and held until every rank thread has parked: 140–141
    // wake-ups here (176–180 at w1024). Eight scheduler threads made
    // 720–890 between them; flagged by every notify and alarm, 3,500–
    // 4,100; signalled at once, 12,000–77,000.
    let sched = r.wake.labels.get("sched").copied().unwrap_or_default();
    assert!(sched.successes > 0, "no scheduler ran? {sched:?}");
    assert!(
        sched.wakeups <= 400,
        "sched: {} wake-ups in one Himeno w256 run",
        sched.wakeups
    );
    // A pass polls the machines that were readied, not every resident:
    // 2.7 polls per machine transition here, 38 when every pass polled
    // every resident.
    assert!(
        r.wake.machine_polls <= 4 * r.sched_events,
        "{} machine polls for {} transitions",
        r.wake.machine_polls,
        r.sched_events
    );
}
