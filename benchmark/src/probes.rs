//! Layer probes: fixed loops over one layer's public functions, timed
//! from the harness. Each is one rung of the ladder a workload's wall
//! time is made of (launch → bring-up → transfer → kernel), so a change
//! to one layer shows on its own rung before it shows end to end.
//!
//! All values are host time; none is gated.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use clmpi::{ClMpi, SystemConfig};
use minicl::{Context, DeviceSpec, Event, HostBuffer};
use minimpi::{run_world_sized, Process};
use simnet::{ClusterSpec, Fabric, Mailbox};
use simtime::{Actor, MachineStep, Monitor, SimActor, SimClock, SimNs};

use crate::stats::median;
use crate::workloads::ricc_sized;

/// One probe result.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Host seconds `f` takes.
pub fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

// -- simtime -------------------------------------------------------------

fn simtime_probes(out: &mut Vec<Metric>) {
    const ADVANCES: u32 = 100_000;
    let clock = SimClock::new();
    let actor = clock.register("probe");
    let s = secs(|| {
        for _ in 0..ADVANCES {
            actor.advance_ns(10);
        }
    });
    out.push(metric(
        "simtime.advance_ns",
        s * 1e9 / f64::from(ADVANCES),
        "ns",
    ));
    drop(actor);

    // Two harness threads pass a counter back and forth through one
    // monitor: the cost of one blocked-actor wake-up with nobody else on
    // the clock.
    const HANDOFFS: u64 = 4_000;
    let clock = SimClock::new();
    let turn = Arc::new(Monitor::new(clock.clone(), 0u64));
    let (a, b) = (clock.register("ping"), clock.register("pong"));
    let turn2 = turn.clone();
    let pong = std::thread::spawn(move || {
        for i in (1..HANDOFFS).step_by(2) {
            turn2.wait(&b, |v| (*v == i).then_some(()));
            turn2.with(|v| *v = i + 1);
        }
    });
    let s = secs(|| {
        for i in (0..HANDOFFS).step_by(2) {
            turn.with(|v| *v = i + 1);
            turn.wait(&a, |v| (*v == i + 2).then_some(()));
        }
    });
    pong.join().expect("pong thread panicked");
    out.push(metric(
        "simtime.handoff_us",
        s * 1e6 / HANDOFFS as f64,
        "us",
    ));
}

/// A machine that takes `steps` alarm-driven steps, one per `PERIOD_NS`.
struct Ticker {
    steps_left: u32,
    next: SimNs,
    done: Arc<Monitor<u32>>,
}

const PERIOD_NS: SimNs = 1_000;

impl SimActor for Ticker {
    fn wait_label(&self) -> &'static str {
        "probe ticker"
    }

    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        if now < self.next {
            return MachineStep::Pending(Some(self.next));
        }
        actor.clock().count_events(1);
        self.steps_left -= 1;
        if self.steps_left == 0 {
            self.done.with(|d| *d += 1);
            return MachineStep::Done;
        }
        self.next = now + PERIOD_NS;
        MachineStep::Pending(Some(self.next))
    }
}

/// Host ns per machine step with `machines` resident machines, on the
/// executor `SIM_EXEC_MODE` selects (the caller runs this in a child
/// launched with `SIM_EXEC_MODE=events`).
fn machine_step_ns(machines: u32, steps: u32) -> f64 {
    let clock = SimClock::new();
    let main = clock.register("probe");
    let done = Arc::new(Monitor::new(clock.clone(), 0u32));
    let t = Instant::now();
    let handles: Vec<_> = (0..machines)
        .map(|id| {
            let ticker = Ticker {
                steps_left: steps,
                next: PERIOD_NS,
                done: done.clone(),
            };
            clock.spawn_machine(u64::from(id), format!("ticker{id}"), Box::new(ticker))
        })
        .collect();
    done.wait(&main, |d| (*d == machines).then_some(()));
    drop(main);
    for h in handles {
        h.reap();
    }
    clock.quiesce_machines();
    let s = t.elapsed().as_secs_f64();
    assert_eq!(clock.events(), u64::from(machines * steps));
    s * 1e9 / f64::from(machines * steps)
}

/// The probes that must run on the event core.
pub fn event_core_probes() -> Vec<Metric> {
    vec![
        metric(
            "simtime.machine_step_ns.m64",
            machine_step_ns(64, 4_000),
            "ns",
        ),
        metric(
            "simtime.machine_step_ns.m1024",
            machine_step_ns(1024, 250),
            "ns",
        ),
    ]
}

// -- minimpi -------------------------------------------------------------

/// Median host seconds of `reps` launches of a `world`-rank world.
fn world_secs<F>(world: usize, reps: usize, body: F) -> f64
where
    F: Fn(Process) + Send + Sync + Clone + 'static,
{
    let cluster = ricc_sized(world).cluster;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (cluster, body) = (cluster.clone(), body.clone());
            secs(move || {
                run_world_sized(cluster, world, body);
            })
        })
        .collect();
    median(&samples)
}

/// Host µs of one 8-byte hand-off between ranks 0 and 1 while the other
/// `world - 2` ranks sit blocked in `recv`.
fn pingpong_us(world: usize, rounds: u32) -> f64 {
    const RELEASE: minimpi::Tag = 99;
    let res = run_world_sized(ricc_sized(world).cluster, world, move |p: Process| {
        let payload = [0u8; 8];
        match p.rank() {
            0 => {
                let t = Instant::now();
                for _ in 0..rounds {
                    p.comm.send(&p.actor, 1, 1, &payload);
                    p.comm.recv(&p.actor, Some(1), Some(2));
                }
                let s = t.elapsed().as_secs_f64();
                for r in 2..p.size() {
                    p.comm.send(&p.actor, r, RELEASE, &[]);
                }
                s
            }
            1 => {
                for _ in 0..rounds {
                    p.comm.recv(&p.actor, Some(0), Some(1));
                    p.comm.send(&p.actor, 0, 2, &payload);
                }
                0.0
            }
            _ => {
                p.comm.recv(&p.actor, Some(0), Some(RELEASE));
                0.0
            }
        }
    });
    res.outputs[0] * 1e6 / f64::from(2 * rounds)
}

/// Host µs of one barrier over `world` ranks.
fn barrier_us(world: usize, rounds: u32) -> f64 {
    let res = run_world_sized(ricc_sized(world).cluster, world, move |p: Process| {
        p.comm.barrier(&p.actor);
        let t = Instant::now();
        for _ in 0..rounds {
            p.comm.barrier(&p.actor);
        }
        t.elapsed().as_secs_f64()
    });
    res.outputs[0] * 1e6 / f64::from(rounds)
}

fn minimpi_probes(out: &mut Vec<Metric>) -> [f64; 2] {
    let launch = [(8, 20), (256, 5)].map(|(w, reps)| world_secs(w, reps, |_p| {}) * 1e6 / w as f64);
    out.push(metric("minimpi.launch_us_per_rank.w8", launch[0], "us"));
    out.push(metric("minimpi.launch_us_per_rank.w256", launch[1], "us"));
    let pp = [(2, 4_000), (64, 400), (256, 100)].map(|(w, rounds)| pingpong_us(w, rounds));
    out.push(metric("minimpi.pingpong_us.w2", pp[0], "us"));
    out.push(metric("minimpi.pingpong_us.w64", pp[1], "us"));
    out.push(metric("minimpi.pingpong_us.w256", pp[2], "us"));
    out.push(metric("minimpi.stampede_x", pp[2] / pp[0], "x"));
    out.push(metric("minimpi.barrier_us.w8", barrier_us(8, 200), "us"));
    out.push(metric("minimpi.barrier_us.w256", barrier_us(256, 4), "us"));
    launch
}

// -- simnet --------------------------------------------------------------

fn simnet_probes(out: &mut Vec<Metric>) {
    const NODES: usize = 8;
    const RESERVES: u64 = 200_000;
    let clock = SimClock::new();
    let fabric = Fabric::new(clock.clone(), ClusterSpec::ricc(), NODES);
    let s = secs(|| {
        for i in 0..RESERVES {
            let (src, dst) = ((i % 8) as usize, ((i + 1) % 8) as usize);
            black_box(fabric.reserve(src, dst, 1024, i));
        }
    });
    out.push(metric("simnet.reserve_ns", s * 1e9 / RESERVES as f64, "ns"));

    // Post a batch to the deferred arbiter, then grant it in one pump.
    const BATCH: usize = 64;
    const BATCHES: usize = 400;
    let fabric = Fabric::new(clock.clone(), ClusterSpec::ricc(), NODES);
    let s = secs(|| {
        for _ in 0..BATCHES {
            for i in 0..BATCH {
                fabric.reserve_deferred(
                    i % 8,
                    (i + 1) % 8,
                    i as i32,
                    1024,
                    0,
                    Box::new(|r| {
                        black_box(r);
                    }),
                );
            }
            fabric.pump(1);
        }
    });
    assert_eq!(fabric.deferred_pending(), 0);
    out.push(metric(
        "simnet.pump_ns_per_grant",
        s * 1e9 / (BATCH * BATCHES) as f64,
        "ns",
    ));

    // Post + matching receive with `depth - 1` unmatched envelopes queued.
    const EXCHANGES: u64 = 50_000;
    for depth in [1u64, 256] {
        let mailbox: Mailbox<u64> = Mailbox::new(clock.clone());
        for _ in 1..depth {
            mailbox.post(u64::MAX, 0);
        }
        let s = secs(|| {
            for i in 0..EXCHANGES {
                mailbox.post(i, 0);
                black_box(mailbox.try_recv_matching(|v| *v == i)).expect("just posted");
            }
        });
        out.push(metric(
            format!("simnet.mailbox_ns.d{depth}"),
            s * 1e9 / EXCHANGES as f64,
            "ns",
        ));
    }
}

// -- minicl --------------------------------------------------------------

fn minicl_probes(out: &mut Vec<Metric>) {
    const COMMANDS: u32 = 4_000;
    const BYTES_16M: usize = 16 << 20;
    let clock = SimClock::new();
    let actor = clock.register("probe");
    let ctx = Context::new(clock, &[DeviceSpec::tesla_c1060()]);
    let q = ctx.create_queue(0, "probe");
    let per_command_us = |enqueue: &dyn Fn() -> Event| {
        let s = secs(|| {
            for _ in 0..COMMANDS {
                enqueue().wait(&actor);
            }
        });
        s * 1e6 / f64::from(COMMANDS)
    };
    let marker = per_command_us(&|| q.enqueue_marker(&[]));
    out.push(metric("minicl.enqueue_us", marker, "us"));
    let kernel = per_command_us(&|| q.enqueue_kernel("noop", 1_000, &[], || {}));
    out.push(metric("minicl.kernel_us", kernel, "us"));

    let host = HostBuffer::pinned(BYTES_16M);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            secs(|| {
                let buf = ctx.create_buffer(BYTES_16M);
                q.enqueue_write_buffer(&actor, &buf, true, 0, BYTES_16M, &host, 0, &[])
                    .expect("in-range write");
            })
        })
        .collect();
    out.push(metric("minicl.buffer_ms.16m", median(&samples) * 1e3, "ms"));
}

// -- clmpi ---------------------------------------------------------------

/// Host µs of one serialized device→device transfer of `size` bytes
/// between two ranks (the Fig. 8 measurement loop, timed on the host).
fn send_us(size: usize, reps: u32) -> f64 {
    let sys = SystemConfig::ricc();
    let cluster = sys.cluster.clone();
    let res = run_world_sized(cluster, 2, move |p: Process| {
        let rt = ClMpi::new(&p, sys.clone());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        p.comm.barrier(&p.actor);
        let t = Instant::now();
        for i in 0..reps as i32 {
            if p.rank() == 0 {
                rt.enqueue_send_buffer(&q, &buf, true, 0, size, 1, i, &[], &p.actor)
                    .expect("send");
                p.comm.recv(&p.actor, Some(1), Some(i));
            } else {
                rt.enqueue_recv_buffer(&q, &buf, true, 0, size, 0, i, &[], &p.actor)
                    .expect("recv");
                p.comm.send(&p.actor, 0, i, &[]);
            }
        }
        let s = t.elapsed().as_secs_f64();
        rt.shutdown(&p.actor);
        s
    });
    res.outputs[0] * 1e6 / f64::from(reps)
}

/// Host ms of one `enqueue_bcast_buffer` of `size` bytes over `world`.
fn bcast_ms(world: usize, size: usize) -> f64 {
    let sys = ricc_sized(world);
    let cluster = sys.cluster.clone();
    let res = run_world_sized(cluster, world, move |p: Process| {
        let rt = ClMpi::new(&p, sys.clone());
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let buf = rt.context().create_buffer(size);
        p.comm.barrier(&p.actor);
        let t = Instant::now();
        rt.enqueue_bcast_buffer(&q, &buf, 0, size, 0, 1, &[], &p.actor)
            .expect("bcast")
            .wait(&p.actor);
        p.comm.barrier(&p.actor);
        let s = t.elapsed().as_secs_f64();
        rt.shutdown(&p.actor);
        s
    });
    res.outputs[0] * 1e3
}

fn clmpi_probes(out: &mut Vec<Metric>, launch_us_per_rank: [f64; 2]) {
    for ((world, reps), launch) in [(8, 10), (256, 3)].into_iter().zip(launch_us_per_rank) {
        let sys = ricc_sized(world);
        let s = world_secs(world, reps, move |p: Process| {
            let rt = ClMpi::new(&p, sys.clone());
            let _q = rt.context().create_queue(0, format!("r{}", p.rank()));
            rt.shutdown(&p.actor);
        });
        out.push(metric(
            format!("clmpi.bringup_us_per_rank.w{world}"),
            s * 1e6 / world as f64 - launch,
            "us",
        ));
    }
    out.push(metric("clmpi.send_us.64k", send_us(64 << 10, 400), "us"));
    out.push(metric("clmpi.send_us.16m", send_us(16 << 20, 6), "us"));
    out.push(metric(
        "clmpi.bcast_ms.w16.16m",
        bcast_ms(16, 16 << 20),
        "ms",
    ));
}

/// Every probe that runs on the default executor.
pub fn default_probes() -> Vec<Metric> {
    let mut out = Vec::new();
    simtime_probes(&mut out);
    let launch = minimpi_probes(&mut out);
    simnet_probes(&mut out);
    minicl_probes(&mut out);
    clmpi_probes(&mut out, launch);
    out
}

// -- app rungs (run in the workload's own child) ---------------------------

/// Host seconds of a halo-only Himeno: the neighbours, plane size and
/// iteration count of `run_himeno(M, iters, nodes)` through
/// `enqueue_send/recv_buffer`, with no kernels.
pub fn himeno_halo_s(nodes: usize, iters: usize) -> f64 {
    let (mi, mj, mk) = himeno::GridSize::M.dims();
    let plane = mj * mk * 4;
    let sys = ricc_sized(nodes);
    let cluster = sys.cluster.clone();
    secs(move || {
        run_world_sized(cluster, nodes, move |p: Process| {
            // The slab decomposition of `himeno::run`: contiguous planes,
            // the remainder on the low ranks; a rank without planes has
            // no neighbours.
            let (interior, rank) = (mi - 2, p.rank());
            let (base, rem) = (interior / nodes, interior % nodes);
            let planes = base + usize::from(rank < rem);
            let down = (rank > 0 && planes > 0).then(|| rank - 1);
            let up_has_planes = base > 0 || rank + 1 < rem;
            let up = (planes > 0 && rank + 1 < nodes && up_has_planes).then(|| rank + 1);
            let rt = ClMpi::new(&p, sys.clone());
            let q = rt.context().create_queue(0, format!("r{rank}"));
            // Planes: [send down, send up, ghost down, ghost up].
            let buf = rt.context().create_buffer(4 * plane);
            for iter in 0..iters as i32 {
                let mut events = Vec::new();
                for (slot, peer) in [down, up].into_iter().enumerate() {
                    let Some(peer) = peer else { continue };
                    // Tag by direction of travel, as the app does.
                    let (send_tag, recv_tag) = (2 * iter + slot as i32, 2 * iter + 1 - slot as i32);
                    events.push(
                        rt.enqueue_send_buffer(
                            &q,
                            &buf,
                            false,
                            slot * plane,
                            plane,
                            peer,
                            send_tag,
                            &[],
                            &p.actor,
                        )
                        .expect("halo send"),
                    );
                    events.push(
                        rt.enqueue_recv_buffer(
                            &q,
                            &buf,
                            false,
                            (2 + slot) * plane,
                            plane,
                            peer,
                            recv_tag,
                            &[],
                            &p.actor,
                        )
                        .expect("halo recv"),
                    );
                }
                Event::wait_all(&events, &p.actor);
            }
            rt.shutdown(&p.actor);
        });
    })
}
