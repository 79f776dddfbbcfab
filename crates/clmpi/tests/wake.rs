//! Wake-by-dependency at world level: the virtual result of the recovery
//! benchmark's kill scenarios reproduces its committed row, a kill is
//! observed at its own instant whatever else is scheduled, at 256 ranks
//! the rank threads' waits are woken for their own dependencies, not for
//! everybody's, and the scheduler runs when something one of its
//! machines read has changed, to poll that machine.

use clmpi::{ClMpi, ObsSummary, SystemConfig};
use himeno::{
    run_himeno, run_himeno_recover, GridSize, HimenoConfig, HimenoResult, RecoverConfig, Variant,
};
use minimpi::{run_world_faulty, FaultPlan, Process};
use simtime::{Monitor, SimNs};

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
/// polled past the plan's kill instant, so *when* a machine is polled is
/// visible in virtual time here as nowhere else. The one-kill and
/// two-kill scenarios of `BENCH_recovery.json` (Himeno M on 4 RICC
/// ranks, kill instant as committed there) reproduce `(one-kill ns,
/// two-kill ns, one-kill obs hash)`.
///
/// The hash moved once, when kill instants became alarms. Before, no
/// alarm announced a kill, and `Fabric::node_down_at` kept its reader a
/// wildcard, stepped whenever anything woke the scheduler past the kill.
/// The victim's last receive then failed at the first unrelated wake-up
/// after the kill; now it fails at the kill instant itself. That moved
/// rank 2's `comm_ns` by −29,510 ns and the hash from
/// `0xdbc5_cb61_d991_cd22`; both makespans stayed.
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
        (1_320_464_655, 344_444_578, 0x294c_f520_8378_63b3)
    );
}

/// A kill is an event: the receive that waits on a dead peer fails at the
/// kill instant, whatever else is scheduled around it. Rank 0 receives
/// from rank 1, which dies at `T_KILL_NS` and never sends; the receive's
/// own next alarm is its chunk deadline, a second later. In the second
/// run rank 2, a bystander, wakes between the two and notifies a monitor
/// nobody else reads. While no alarm announced the kill, that notify is
/// what stepped the receive, and it failed at the bystander's instant.
#[test]
fn a_kill_is_observed_at_its_instant_whatever_else_is_scheduled() {
    const T_KILL_NS: SimNs = 5_000_000;
    const BYSTANDER_NS: SimNs = 7_000_000;
    let failed_at = |bystander: bool| {
        let plan = FaultPlan::none().with_node_down(1, T_KILL_NS);
        let sys = SystemConfig::ricc();
        let res = run_world_faulty(sys.cluster.clone(), 3, plan, move |p: Process| {
            match p.rank() {
                0 => {
                    let rt = ClMpi::new(&p, SystemConfig::ricc());
                    let q = rt.context().create_queue(0, "r0");
                    let buf = rt.context().create_buffer(4096);
                    let recv =
                        rt.enqueue_recv_buffer(&q, &buf, false, 0, 4096, 1, 7, &[], &p.actor);
                    let failed = recv.map(|e| e.wait_result(&p.actor).is_err());
                    let at = p.actor.now_ns();
                    rt.shutdown(&p.actor);
                    (failed == Ok(true)).then_some(at)
                }
                2 if bystander => {
                    let unrelated = Monitor::new(p.actor.clock().clone(), 0u32);
                    p.actor.advance_until(BYSTANDER_NS);
                    unrelated.with(|v| *v += 1);
                    None
                }
                _ => None,
            }
        });
        res.outputs[0]
    };
    assert_eq!(
        (failed_at(false), failed_at(true)),
        (Some(T_KILL_NS), Some(T_KILL_NS)),
        "(alone, with a bystander): the receive fails at the kill instant"
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
    // A pass is owed when a notify or alarm readies a machine, and run by
    // the thread that settles the round, once every rank thread has
    // parked: 236 passes here. The scheduler thread this replaced made
    // 239–246 passes on 135–141 wake-ups (176–180 at w1024); eight
    // scheduler threads made 720–890 wake-ups between them; flagged by
    // every notify and alarm, 3,500–4,100; signalled at once,
    // 12,000–77,000.
    let passes = r.wake.sched_passes;
    assert!(passes > 0, "no pass ran? {:?}", r.wake);
    assert!(
        passes <= 400,
        "{passes} scheduler passes in one Himeno w256 run"
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
