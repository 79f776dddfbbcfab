//! SPMD launchers: run `n` ranks over a simulated cluster, as threads
//! ([`run_world_faulty`]) or as tasks ([`run_world_tasks`]).

use std::future::Future;
use std::sync::Arc;

use simnet::{ClusterSpec, FaultCounts, FaultPlan};
use simtime::{until, Monitor, SimClock, SimNs, Trace, WakeStats};

use crate::world::{Process, World};

/// Everything a finished world run produces.
pub struct WorldResult<R> {
    /// Per-rank return values, indexed by rank.
    pub outputs: Vec<R>,
    /// Final virtual time when the last rank finished.
    pub elapsed_ns: SimNs,
    /// The activity trace recorded during the run.
    pub trace: Trace,
    /// Fault counters accumulated by the fabric (all zero when the run
    /// used a [`FaultPlan::none`] plan).
    pub fault_counts: FaultCounts,
    /// Machine state transitions counted by the scheduler cores (clMPI
    /// engines, command-queue executors) — the simulator self-throughput
    /// numerator. Deterministic for a fixed scenario, whatever order the
    /// scheduler steps its machines in.
    pub events: u64,
    /// The clock's wake accounting over the whole run (notifies, and per
    /// wait label parks / wake-ups / successes). Host-scheduling
    /// dependent on rank threads, a diagnostic; [`run_world_tasks`]
    /// repeats it exactly.
    pub wake: WakeStats,
}

/// Run `f` on every rank of a world sized to the full cluster preset.
pub fn run_world<R, F>(spec: ClusterSpec, f: F) -> WorldResult<R>
where
    R: Send + 'static,
    F: Fn(Process) -> R + Send + Sync + 'static,
{
    let nodes = spec.nodes;
    run_world_sized(spec, nodes, f)
}

/// Run `f` on `nodes` ranks over `spec`'s interconnect. Each rank runs on
/// its own OS thread with its own virtual-time actor; the returned
/// [`WorldResult::elapsed_ns`] is the virtual makespan of the slowest rank.
///
/// Panics in any rank poison the clock and propagate to the caller.
pub fn run_world_sized<R, F>(spec: ClusterSpec, nodes: usize, f: F) -> WorldResult<R>
where
    R: Send + 'static,
    F: Fn(Process) -> R + Send + Sync + 'static,
{
    run_world_faulty(spec, nodes, FaultPlan::none(), f)
}

/// [`run_world_sized`] with a fault plan attached to the fabric: messages
/// may be dropped, delayed, or blocked by link-down windows, all
/// deterministically from `plan.seed`. [`FaultPlan::none`] reproduces
/// [`run_world_sized`] bit-identically. Rank bodies run on their own OS
/// threads; the machines spawned inside the world (clMPI engines,
/// command-queue executors) run on the clock's scheduler.
pub fn run_world_faulty<R, F>(
    spec: ClusterSpec,
    nodes: usize,
    plan: FaultPlan,
    f: F,
) -> WorldResult<R>
where
    R: Send + 'static,
    F: Fn(Process) -> R + Send + Sync + 'static,
{
    launch(spec, nodes, plan, |clock, world| {
        // Register every rank's actor before spawning any thread (see
        // `SimClock::register` for the ordering rule).
        let processes: Vec<Process> = (0..nodes)
            .map(|r| Process {
                comm: world.comm(r),
                actor: clock.register(format!("rank{r}")),
            })
            .collect();
        let f = Arc::new(f);
        let handles: Vec<_> = processes
            .into_iter()
            .enumerate()
            .map(|(r, proc_)| {
                let f = f.clone();
                std::thread::Builder::new()
                    .name(format!("rank{r}"))
                    .spawn(move || f(proc_))
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let name = h.thread().name().unwrap_or("<unnamed rank>").to_owned();
                h.join().unwrap_or_else(|payload| {
                    // Re-raise the rank's own panic payload so the original
                    // assertion message (not a generic wrapper) reaches the
                    // harness; the thread name says which rank died.
                    eprintln!("minimpi: {name} panicked; propagating its panic");
                    std::panic::resume_unwind(payload)
                })
            })
            .collect()
    })
}

/// [`run_world_faulty`] with every rank body an `async` task on the
/// clock's event core instead of an OS thread: one launcher actor on the
/// calling thread spawns task `rank{r}` per rank and waits (label
/// `"launcher"`) until every output is in, and the passes that settle
/// each round poll the ranks beside the queues and engines. A body waits
/// with `.await` on the async cores (`Comm::barrier_async`,
/// `Comm::sendrecv_async`, …); its [`Process::actor`] is the task's
/// handle, registered as no actor, so a blocking call on it panics.
///
/// A panicking body poisons the clock, and its own payload reaches the
/// caller.
pub fn run_world_tasks<R, F, Fut>(
    spec: ClusterSpec,
    nodes: usize,
    plan: FaultPlan,
    f: F,
) -> WorldResult<R>
where
    R: Send + 'static,
    F: Fn(Process) -> Fut,
    Fut: Future<Output = R> + Send + 'static,
{
    launch(spec, nodes, plan, |clock, world| {
        let launcher = clock.register("launcher");
        let slots: Vec<Option<R>> = (0..nodes).map(|_| None).collect();
        let outputs = Arc::new(Monitor::new(clock.clone(), slots));
        for r in 0..nodes {
            let (comm, outputs) = (world.comm(r), outputs.clone());
            clock.spawn_task(format!("rank{r}"), "rank task", |actor| {
                let body = f(Process { comm, actor });
                async move {
                    let out = body.await;
                    outputs.with(|o| o[r] = Some(out));
                }
            });
        }
        let all_in = until(|| {
            outputs.try_now(|o| {
                o.iter()
                    .all(Option::is_some)
                    .then(|| o.drain(..).flatten().collect())
            })
        });
        launcher.block_on("launcher", all_in)
    })
}

/// Build a world, run its ranks with `ranks` (which returns their outputs
/// in rank order once every rank is done), and collect what the run
/// produced.
fn launch<R>(
    spec: ClusterSpec,
    nodes: usize,
    plan: FaultPlan,
    ranks: impl FnOnce(&SimClock, &World) -> Vec<R>,
) -> WorldResult<R> {
    crate::heap::keep_freed();
    let clock = SimClock::new();
    let world = World::with_faults(clock.clone(), spec, nodes, plan);
    let trace = world.trace().clone();
    let outputs = ranks(&clock, &world);
    // The ranks' drop paths only *signal* their machines (queue
    // shutdowns, engine drains); the last actor's drop runs the passes
    // that retire them, so once `ranks` returns `events` and `elapsed_ns`
    // are final. A panic in that trailing drain poisoned the clock:
    // surface it here.
    clock.quiesce_machines();
    // Grant any deferred sends still in the arbiter (fire-and-forget
    // isends nobody waited on), single-threaded and in canonical order,
    // so their trace spans and fault counters land deterministically.
    world.drain_deferred();
    WorldResult {
        elapsed_ns: clock.now_ns(),
        outputs,
        trace,
        fault_counts: world.fault_counts(),
        events: clock.events(),
        wake: clock.wake_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ReduceOp;
    use crate::{ANY_SOURCE, ANY_TAG};

    /// A rank task that panics poisons the clock, and the caller gets the
    /// task's own payload, not a generic wrapper.
    #[test]
    fn a_panicking_rank_task_hands_its_own_payload_to_the_caller() {
        let run = std::panic::catch_unwind(|| {
            run_world_tasks(
                ClusterSpec::cichlid(),
                3,
                FaultPlan::none(),
                |p| async move {
                    p.comm.barrier_async(&p.actor).await;
                    assert_ne!(p.rank(), 1, "rank 1 gives up");
                    p.rank()
                },
            )
        });
        let msg = run
            .err()
            .and_then(|payload| payload.downcast_ref::<String>().cloned());
        assert!(
            msg.as_deref()
                .is_some_and(|m| m.contains("rank 1 gives up")),
            "{msg:?}"
        );
    }

    #[test]
    fn world_launch_returns_per_rank_outputs() {
        let res = run_world_sized(ClusterSpec::cichlid(), 4, |p| p.rank() * 10);
        assert_eq!(res.outputs, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ping_pong_roundtrip_and_timing() {
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            let payload = vec![p.rank() as u8; 1024];
            if p.rank() == 0 {
                p.comm.send(&p.actor, 1, 7, &payload);
                let back = p.comm.recv(&p.actor, Some(1), Some(8));
                assert_eq!(back.data, vec![1u8; 1024]);
            } else {
                let got = p.comm.recv(&p.actor, Some(0), Some(7));
                assert_eq!(got.data, vec![0u8; 1024]);
                p.comm.send(&p.actor, 0, 8, &payload);
            }
            p.actor.now_ns()
        });
        // Two messages, each at least latency + overhead on GbE.
        let spec = ClusterSpec::cichlid();
        let one_way = spec.link.message_ns(1024);
        assert!(res.elapsed_ns >= 2 * one_way);
        assert!(res.elapsed_ns < 4 * one_way, "no spurious serialization");
    }

    #[test]
    fn wildcard_receive_sees_all_sources() {
        let res = run_world_sized(ClusterSpec::cichlid(), 4, |p| {
            if p.rank() == 0 {
                let mut sum = 0u64;
                for _ in 0..3 {
                    let r = p.comm.recv(&p.actor, ANY_SOURCE, ANY_TAG);
                    sum += r.data[0] as u64;
                    assert_eq!(r.status.len, 1);
                }
                sum
            } else {
                p.comm.send(&p.actor, 0, p.rank() as i32, &[p.rank() as u8]);
                0
            }
        });
        assert_eq!(res.outputs[0], 1 + 2 + 3);
    }

    #[test]
    fn non_overtaking_same_signature() {
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            if p.rank() == 0 {
                // Same (src, tag): must be received in send order even
                // though the first is much larger (arrives later).
                let big = vec![1u8; 1 << 20];
                let small = vec![2u8; 8];
                let r1 = p.comm.isend(&p.actor, 1, 5, &big);
                let r2 = p.comm.isend(&p.actor, 1, 5, &small);
                r1.wait(&p.actor);
                r2.wait(&p.actor);
                0
            } else {
                let first = p.comm.recv(&p.actor, Some(0), Some(5));
                let second = p.comm.recv(&p.actor, Some(0), Some(5));
                assert_eq!(first.data[0], 1, "big message matched first");
                assert_eq!(second.data[0], 2);
                1
            }
        });
        assert_eq!(res.outputs, vec![0, 1]);
    }

    #[test]
    fn isend_overlaps_with_compute() {
        // A rank that isends 8 MB and computes 50 ms should finish in
        // ~max(send, compute), not the sum.
        let spec = ClusterSpec::cichlid();
        let send_ns = spec.link.injection_ns(8 << 20);
        assert!(
            send_ns > 50_000_000,
            "test premise: send slower than compute"
        );
        let res = run_world_sized(spec, 2, |p| {
            if p.rank() == 0 {
                let data = vec![0u8; 8 << 20];
                let req = p.comm.isend(&p.actor, 1, 1, &data);
                p.host_compute_ns(50_000_000); // overlapped compute
                req.wait(&p.actor);
            } else {
                p.comm.recv(&p.actor, Some(0), Some(1));
            }
            p.actor.now_ns()
        });
        let sender_end = res.outputs[0];
        assert!(sender_end >= send_ns);
        assert!(
            sender_end < send_ns + 10_000_000,
            "compute fully overlapped with the send: {} vs {}",
            sender_end,
            send_ns
        );
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        let res = run_world_sized(ClusterSpec::ricc(), 2, |p| {
            let peer = 1 - p.rank();
            let mine = vec![p.rank() as u8 + 10; 4096];
            let got = p
                .comm
                .sendrecv(&p.actor, peer, 3, &mine, Some(peer), Some(3));
            got.data[0]
        });
        assert_eq!(res.outputs, vec![11, 10]);
    }

    #[test]
    fn barrier_aligns_ranks() {
        let res = run_world_sized(ClusterSpec::ricc(), 8, |p| {
            p.host_compute_ns((p.rank() as u64 + 1) * 1_000_000);
            p.comm.barrier(&p.actor);
            p.actor.now_ns()
        });
        // No rank may leave before the slowest (8 ms) rank arrived —
        // exactly what the 3 dissemination rounds transitively enforce.
        let t0 = res.outputs[0];
        assert!(res.outputs.iter().all(|&t| t >= 8_000_000));
        // All ranks leave within a few empty-message round-trips of each
        // other: ⌈log₂ 8⌉ = 3 rounds, no single-rank release point.
        assert!(res.outputs.iter().all(|&t| t.abs_diff(t0) < 5_000_000));
    }

    #[test]
    fn barrier_has_no_rank0_serialization_point() {
        // With n ranks the old flat gather-release put 2(n − 1) messages
        // on rank 0's NIC; dissemination spreads ⌈log₂ n⌉ rounds evenly,
        // so the exit time must grow sublinearly in n. Compare the
        // barrier cost itself at n = 4 vs n = 32 from a common start.
        let cost = |n: usize| {
            let res = run_world_sized(ClusterSpec::ricc(), n, |p| {
                let t0 = p.actor.now_ns();
                p.comm.barrier(&p.actor);
                p.actor.now_ns() - t0
            });
            res.outputs.into_iter().max().unwrap()
        };
        let c4 = cost(4);
        let c32 = cost(32);
        // log₂ 32 / log₂ 4 = 2.5 rounds ratio; flat would be ~31/3 ≈ 10×.
        assert!(
            c32 < c4 * 5,
            "dissemination barrier must scale ~log n: {c32} vs {c4}"
        );
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for root in [0usize, 2] {
            let res = run_world_sized(ClusterSpec::ricc(), 5, move |p| {
                let data = (p.rank() == root).then(|| vec![9u8, 8, 7]);
                p.comm.bcast(&p.actor, root, data.as_deref())
            });
            for out in res.outputs {
                assert_eq!(out, vec![9, 8, 7]);
            }
        }
    }

    #[test]
    fn reduce_and_allreduce_sum() {
        let res = run_world_sized(ClusterSpec::ricc(), 6, |p| {
            let v = vec![p.rank() as f64, 1.0];
            let r = p.comm.reduce(&p.actor, 0, ReduceOp::Sum, &v);
            let a = p.comm.allreduce(&p.actor, ReduceOp::Max, &v);
            (r, a)
        });
        let (root_sum, _) = &res.outputs[0];
        assert_eq!(root_sum.as_deref(), Some(&[15.0, 6.0][..]));
        for (i, (_, amax)) in res.outputs.iter().enumerate() {
            assert_eq!(amax, &[5.0, 1.0], "rank {i} allreduce result");
        }
    }

    #[test]
    fn scatter_distributes_chunks() {
        let res = run_world_sized(ClusterSpec::ricc(), 4, |p| {
            let chunks =
                (p.rank() == 1).then(|| (0..4).map(|r| vec![r as u8; r + 1]).collect::<Vec<_>>());
            p.comm.scatter(&p.actor, 1, chunks.as_deref())
        });
        for (r, out) in res.outputs.iter().enumerate() {
            assert_eq!(out, &vec![r as u8; r + 1]);
        }
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let res = run_world_sized(ClusterSpec::ricc(), 3, |p| {
            p.comm
                .allgather(&p.actor, &vec![p.rank() as u8; p.rank() + 2])
        });
        let expect: Vec<Vec<u8>> = (0..3).map(|r| vec![r as u8; r + 2]).collect();
        for out in res.outputs {
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn wait_any_returns_earliest_completion() {
        let res = run_world_sized(ClusterSpec::cichlid(), 3, |p| {
            if p.rank() == 0 {
                // Two receives: rank 2 sends immediately, rank 1 late.
                let r1 = p.comm.irecv(&p.actor, Some(1), Some(1));
                let r2 = p.comm.irecv(&p.actor, Some(2), Some(2));
                let (idx, res, rest) = crate::wait_any(vec![r1, r2], &p.actor);
                assert_eq!(idx, 1, "rank 2's message lands first");
                assert_eq!(res.expect("recv").data, vec![2]);
                let (idx2, res2, rest2) = crate::wait_any(rest, &p.actor);
                assert_eq!(idx2, 0);
                assert_eq!(res2.expect("recv").data, vec![1]);
                assert!(rest2.is_empty());
            } else if p.rank() == 1 {
                p.host_compute_ns(5_000_000);
                p.comm.send(&p.actor, 0, 1, &[1]);
            } else {
                p.comm.send(&p.actor, 0, 2, &[2]);
            }
        });
        assert_eq!(res.outputs.len(), 3);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let res = run_world_sized(ClusterSpec::ricc(), 4, |p| {
            p.comm.gather(&p.actor, 0, &[p.rank() as u8])
        });
        let gathered = res.outputs[0].as_ref().expect("root output");
        assert_eq!(gathered, &vec![vec![0u8], vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn consecutive_reduces_and_gathers_keep_their_contributions_apart() {
        // Rank 2 arrives late, so rank 1's contribution to the *second*
        // call reaches the root before rank 2's to the first.
        let res = run_world_sized(ClusterSpec::ricc(), 3, |p| {
            let r = p.rank();
            if r == 2 {
                p.host_compute_ns(1_000_000);
            }
            let first = p.comm.reduce(&p.actor, 0, ReduceOp::Sum, &[r as f64]);
            let second = p
                .comm
                .reduce(&p.actor, 0, ReduceOp::Sum, &[100.0 * r as f64]);
            let g1 = p.comm.gather(&p.actor, 0, &[r as u8]);
            let g2 = p.comm.gather(&p.actor, 0, &[10 + r as u8]);
            (first, second, g1, g2)
        });
        let (first, second, g1, g2) = &res.outputs[0];
        assert_eq!(
            (first.as_deref(), second.as_deref()),
            (Some(&[3.0][..]), Some(&[300.0][..]))
        );
        assert_eq!(g1.as_deref(), Some(&[vec![0u8], vec![1], vec![2]][..]));
        assert_eq!(g2.as_deref(), Some(&[vec![10u8], vec![11], vec![12]][..]));
    }

    #[test]
    fn split_creates_isolated_subcommunicators() {
        // 6 ranks → even/odd halves. Traffic in one child never matches
        // receives in the other, and local ranks are dense.
        let res = run_world_sized(ClusterSpec::ricc(), 6, |p| {
            let color = (p.rank() % 2) as i32;
            let sub = p
                .comm
                .split(&p.actor, Some(color), p.rank() as i32)
                .expect("colored ranks get a communicator");
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), p.rank() / 2, "sorted by key = world rank");
            // Ring within the sub-communicator, same tag in both halves.
            let next = (sub.rank() + 1) % sub.size();
            let prev = (sub.rank() + sub.size() - 1) % sub.size();
            let got = sub.sendrecv(
                &p.actor,
                next,
                7,
                &[sub.rank() as u8 + 10 * color as u8],
                Some(prev),
                Some(7),
            );
            assert_eq!(got.status.source, prev, "status reports local rank");
            got.data[0]
        });
        // Each rank received from its sub-ring predecessor with the
        // half's own marker — no cross-talk between contexts.
        for (world_rank, v) in res.outputs.iter().enumerate() {
            let color = (world_rank % 2) as u8;
            let local = world_rank / 2;
            let prev = (local + 2) % 3;
            assert_eq!(*v, prev as u8 + 10 * color, "rank {world_rank}");
        }
    }

    #[test]
    fn split_undefined_color_yields_none() {
        let res = run_world_sized(ClusterSpec::ricc(), 4, |p| {
            let color = (p.rank() < 2).then_some(0);
            let sub = p.comm.split(&p.actor, color, 0);
            match (&sub, p.rank()) {
                (Some(c), 0 | 1) => assert_eq!(c.size(), 2),
                (None, 2 | 3) => {}
                other => panic!("unexpected split outcome: {:?}", other.1),
            }
            sub.is_some()
        });
        assert_eq!(res.outputs, vec![true, true, false, false]);
    }

    #[test]
    fn split_extreme_color_is_not_undefined() {
        // Regression: `Some(i32::MIN)` used to collide with the internal
        // `None` sentinel and silently drop the rank from every child.
        let res = run_world_sized(ClusterSpec::ricc(), 4, |p| {
            let color = if p.rank() < 2 { Some(i32::MIN) } else { None };
            let sub = p.comm.split(&p.actor, color, p.rank() as i32);
            match (&sub, p.rank()) {
                (Some(c), 0 | 1) => {
                    assert_eq!(c.size(), 2, "i32::MIN is a real color");
                    assert_eq!(c.rank(), p.rank());
                }
                (None, 2 | 3) => {}
                other => panic!("unexpected split outcome for rank {}", other.1),
            }
            sub.is_some()
        });
        assert_eq!(res.outputs, vec![true, true, false, false]);
    }

    #[test]
    fn split_collectives_work_within_child() {
        let res = run_world_sized(ClusterSpec::ricc(), 6, |p| {
            let color = (p.rank() / 3) as i32; // {0,1,2} and {3,4,5}
            let sub = p.comm.split(&p.actor, Some(color), 0).expect("member");
            let v = vec![p.rank() as f64];
            let sum = sub.allreduce(&p.actor, ReduceOp::Sum, &v);
            sum[0]
        });
        assert_eq!(res.outputs, vec![3.0, 3.0, 3.0, 12.0, 12.0, 12.0]);
    }

    #[test]
    fn test_polls_without_blocking() {
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            if p.rank() == 0 {
                p.comm.send(&p.actor, 1, 2, &[42]);
                0
            } else {
                let mut req = p.comm.irecv(&p.actor, Some(0), Some(2));
                let mut polls = 0u32;
                loop {
                    match req.test(&p.actor) {
                        Some(Some(r)) => {
                            assert_eq!(r.data, vec![42]);
                            break;
                        }
                        Some(None) => unreachable!("recv request yields payload"),
                        None => {
                            polls += 1;
                            p.host_compute_ns(10_000); // poll loop does work
                        }
                    }
                }
                polls
            }
        });
        assert!(res.outputs[1] > 0, "message was genuinely in flight");
    }

    #[test]
    fn fault_free_plan_reproduces_default_run_exactly() {
        let job = |p: Process| {
            let peer = 1 - p.rank();
            let got = p.comm.sendrecv(
                &p.actor,
                peer,
                3,
                &vec![p.rank() as u8; 8192],
                Some(peer),
                Some(3),
            );
            (got.data[0], p.actor.now_ns())
        };
        let a = run_world_sized(ClusterSpec::cichlid(), 2, job);
        let b = run_world_faulty(ClusterSpec::cichlid(), 2, FaultPlan::none(), job);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(b.fault_counts, FaultCounts::default());
    }

    #[test]
    fn dropped_send_is_observed_by_sender_and_times_out_receiver() {
        // Drop probability 1.0: every data message is lost.
        let plan = FaultPlan::drops(42, 1.0);
        let res = run_world_faulty(ClusterSpec::cichlid(), 2, plan, |p| {
            if p.rank() == 0 {
                let req = p.comm.isend(&p.actor, 1, 7, &[1u8; 1024]);
                let delivered = req.wait_delivered(&p.actor);
                req.wait(&p.actor);
                u64::from(delivered)
            } else {
                match p.comm.recv_timeout(&p.actor, Some(0), Some(7), 5_000_000) {
                    Err(crate::MpiError::Timeout { waited_ns }) => waited_ns,
                    other => panic!("expected timeout, got {other:?}"),
                }
            }
        });
        assert_eq!(res.outputs[0], 0, "sender saw the loss");
        assert_eq!(res.outputs[1], 5_000_000, "receiver timed out");
        assert_eq!(res.fault_counts.dropped(), 1);
        assert!(
            res.trace.spans().iter().any(|s| s.lane == "net.fault"),
            "drop recorded in the trace"
        );
    }

    #[test]
    fn same_fault_seed_same_run() {
        let job = |p: Process| {
            if p.rank() == 0 {
                let mut delivered = 0u64;
                for i in 0..50 {
                    let req = p.comm.isend(&p.actor, 1, 5, &[i as u8; 4096]);
                    delivered += u64::from(req.wait_delivered(&p.actor));
                    req.wait(&p.actor);
                }
                delivered
            } else {
                let mut got = 0u64;
                while p
                    .comm
                    .recv_timeout(&p.actor, Some(0), Some(5), 20_000_000)
                    .is_ok()
                {
                    got += 1;
                }
                got
            }
        };
        let plan = FaultPlan::drops(7, 0.3).with_jitter(50_000);
        let a = run_world_faulty(ClusterSpec::cichlid(), 2, plan.clone(), job);
        let b = run_world_faulty(ClusterSpec::cichlid(), 2, plan, job);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.fault_counts, b.fault_counts);
        assert_eq!(
            a.outputs[0], a.outputs[1],
            "every delivered message was received"
        );
        assert!(a.outputs[0] < 50, "a 30% plan dropped something");
    }

    #[test]
    fn tag_floor_spares_control_traffic() {
        // Floor above every user/collective tag: barriers stay reliable
        // even under a 100% drop plan for data tags.
        let plan = FaultPlan::drops(9, 1.0).with_tag_floor(1 << 22);
        let res = run_world_faulty(ClusterSpec::ricc(), 4, plan, |p| {
            p.comm.barrier(&p.actor);
            p.comm.send(&p.actor, (p.rank() + 1) % 4, 2, &[1]);
            p.comm.recv(&p.actor, None, Some(2)).data[0]
        });
        assert_eq!(res.outputs, vec![1, 1, 1, 1]);
        assert_eq!(res.fault_counts.dropped(), 0);
    }

    #[test]
    fn cancel_withdraws_unmatched_recv() {
        let res = run_world_faulty(ClusterSpec::cichlid(), 2, FaultPlan::none(), |p| {
            if p.rank() == 0 {
                // Never-matching receive: cancellable.
                let req = p.comm.irecv(&p.actor, Some(1), Some(99));
                let cancelled = req.cancel();
                // A real message on another tag still flows normally.
                let got = p.comm.recv(&p.actor, Some(1), Some(1));
                (cancelled, got.data.len())
            } else {
                p.comm.send(&p.actor, 0, 1, &[5u8; 16]);
                (false, 0)
            }
        });
        assert_eq!(res.outputs[0], (true, 16));
    }

    #[test]
    fn wait_timeout_returns_payload_when_in_time() {
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            if p.rank() == 0 {
                p.comm.send(&p.actor, 1, 4, &[9u8; 256]);
                0
            } else {
                let req = p.comm.irecv(&p.actor, Some(0), Some(4));
                let r = req
                    .wait_timeout(&p.actor, 1_000_000_000)
                    .expect("arrives well before the deadline")
                    .expect("recv yields payload");
                r.data.len() as u64
            }
        });
        assert_eq!(res.outputs[1], 256);
    }

    #[test]
    fn a_timeout_past_the_last_instant_is_no_deadline() {
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            if p.rank() == 0 {
                p.actor.advance_ns(5_000);
                p.comm.send(&p.actor, 1, 4, &[9u8; 256]);
                Ok(0)
            } else {
                // Time has passed, so `now + timeout` overflows.
                p.actor.advance_ns(1_000);
                let req = p.comm.irecv(&p.actor, Some(0), Some(4));
                let got = req.wait_timeout(&p.actor, simtime::SimNs::MAX);
                got.map(|r| r.map_or(0, |r| r.data.len()))
            }
        });
        assert_eq!(res.outputs[1], Ok(256));
    }

    #[test]
    #[should_panic(expected = "message of 128 bytes truncated into 16-byte buffer")]
    fn recv_into_truncation_panics() {
        run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            if p.rank() == 0 {
                p.comm.send(&p.actor, 1, 1, &[0u8; 128]);
            } else {
                let mut small = [0u8; 16];
                p.comm.recv_into(&p.actor, Some(0), Some(1), &mut small);
            }
        });
    }
}
