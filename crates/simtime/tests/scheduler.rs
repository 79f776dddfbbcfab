//! Differential suite for the discrete-event scheduler.
//!
//! The same [`SimActor`] machines run under both execution modes —
//! [`ExecMode::Threads`] (one OS thread per machine, the historical
//! oracle) and [`ExecMode::Events`] (one scheduler thread) — and every
//! virtual timestamp they observe must be identical. The workloads
//! exercise the full machine contract: alarm-driven wake-ups, channel
//! notification chains across machines, same-instant hand-offs, and
//! retirement.

use std::sync::Arc;
use std::thread::ThreadId;

use simtime::plock::Mutex;
use simtime::{
    on_pool_worker, Actor, ExecMode, MachineStep, Monitor, SimActor, SimChannel, SimClock, SimNs,
    XorShift64,
};

/// One receipt: (node id, virtual instant, token value).
type Log = Arc<Monitor<Vec<(u64, SimNs, u64)>>>;

enum RingState {
    Waiting,
    Holding { token: u64, release_at: SimNs },
}

/// A ring node: receives the token, holds it for a seeded virtual delay,
/// forwards it to the next node. Termination is by token count, so every
/// node knows locally when it is done.
struct RingNode {
    id: u64,
    hops: u64,
    expected: u64,
    received: u64,
    rx: SimChannel<u64>,
    tx: SimChannel<u64>,
    rng: XorShift64,
    state: RingState,
    log: Log,
    done: Arc<Monitor<u64>>,
}

impl SimActor for RingNode {
    fn wait_label(&self) -> &'static str {
        "ring node"
    }

    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        loop {
            match self.state {
                RingState::Waiting => {
                    if self.received == self.expected {
                        self.done.with(|d| *d += 1);
                        return MachineStep::Done;
                    }
                    match self.rx.try_recv() {
                        Some(token) => {
                            self.log.with(|v| v.push((self.id, now, token)));
                            self.received += 1;
                            actor.clock().count_events(1);
                            // Delay 0 is legal: the token is forwarded
                            // within this same poll pass.
                            let delay = self.rng.gen_range_u64(0, 500_000);
                            self.state = RingState::Holding {
                                token,
                                release_at: now + delay,
                            };
                        }
                        None => return MachineStep::Pending(None),
                    }
                }
                RingState::Holding { token, release_at } => {
                    if now < release_at {
                        return MachineStep::Pending(Some(release_at));
                    }
                    if token + 1 < self.hops {
                        self.tx.send(token + 1);
                    }
                    self.state = RingState::Waiting;
                }
            }
        }
    }
}

/// Run one seeded token ring of `world` machines and return its
/// fingerprint: the receipt log (canonical token order), the final
/// virtual time, and the machine-transition count.
fn run_ring(mode: ExecMode, world: u64, seed: u64) -> (Vec<(u64, SimNs, u64)>, SimNs, u64) {
    let laps = 4u64;
    let hops = world * laps;
    let clock = SimClock::with_mode(mode);
    let main = clock.register("main");
    let log: Log = Arc::new(Monitor::new(clock.clone(), Vec::new()));
    let done = Arc::new(Monitor::new(clock.clone(), 0u64));
    let chans: Vec<SimChannel<u64>> = (0..world).map(|_| SimChannel::new(clock.clone())).collect();
    // Inject the token before any machine exists, so node 0's first poll
    // already sees it — no special casing in the machine.
    chans[0].send(0);
    let handles: Vec<_> = (0..world)
        .map(|id| {
            let node = RingNode {
                id,
                hops,
                expected: if id < hops {
                    (hops - id).div_ceil(world)
                } else {
                    0
                },
                received: 0,
                rx: chans[id as usize].clone(),
                tx: chans[((id + 1) % world) as usize].clone(),
                rng: XorShift64::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                state: RingState::Waiting,
                log: log.clone(),
                done: done.clone(),
            };
            clock.spawn_machine(id, format!("ring{id}"), Box::new(node))
        })
        .collect();
    done.wait(&main, |d| (*d == world).then_some(()));
    drop(main);
    for h in handles {
        h.reap();
    }
    let mut receipts = log.peek(|v| v.clone());
    receipts.sort_by_key(|&(_, _, token)| token);
    (receipts, clock.now_ns(), clock.events())
}

#[test]
fn seeded_ring_worlds_identical_across_modes() {
    for world in [2u64, 3, 5, 8, 13] {
        for seed in 0..16u64 {
            let (log_t, now_t, ev_t) = run_ring(ExecMode::Threads, world, seed);
            let (log_e, now_e, ev_e) = run_ring(ExecMode::Events, world, seed);
            assert_eq!(
                log_t, log_e,
                "receipt logs diverge at world={world} seed={seed}"
            );
            assert_eq!(
                now_t, now_e,
                "elapsed diverges at world={world} seed={seed}"
            );
            assert_eq!(
                ev_t, ev_e,
                "event counts diverge at world={world} seed={seed}"
            );
            assert_eq!(log_t.len() as u64, world * 4, "every token was received");
        }
    }
}

#[test]
fn ring_is_deterministic_within_event_mode() {
    let a = run_ring(ExecMode::Events, 5, 7);
    let b = run_ring(ExecMode::Events, 5, 7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// Alarm-only machine: ticks `remaining` times, `period` apart, recording
/// each tick instant.
struct Ticker {
    id: u64,
    period: SimNs,
    remaining: u32,
    next: SimNs,
    log: Log,
    done: Arc<Monitor<u64>>,
}

impl SimActor for Ticker {
    fn wait_label(&self) -> &'static str {
        "ticker"
    }

    fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
        loop {
            if self.remaining == 0 {
                self.done.with(|d| *d += 1);
                return MachineStep::Done;
            }
            if now < self.next {
                return MachineStep::Pending(Some(self.next));
            }
            self.log.with(|v| v.push((self.id, now, 0)));
            self.remaining -= 1;
            self.next = now + self.period;
        }
    }
}

fn run_tickers(mode: ExecMode, world: u64) -> (Vec<(u64, SimNs, u64)>, SimNs) {
    let ticks = 5u32;
    let clock = SimClock::with_mode(mode);
    let main = clock.register("main");
    let log: Log = Arc::new(Monitor::new(clock.clone(), Vec::new()));
    let done = Arc::new(Monitor::new(clock.clone(), 0u64));
    let handles: Vec<_> = (0..world)
        .map(|id| {
            let t = Ticker {
                id,
                period: (id + 1) * 1_000,
                remaining: ticks,
                next: 0,
                log: log.clone(),
                done: done.clone(),
            };
            clock.spawn_machine(id, format!("tick{id}"), Box::new(t))
        })
        .collect();
    done.wait(&main, |d| (*d == world).then_some(()));
    drop(main);
    for h in handles {
        h.reap();
    }
    let mut l = log.peek(|v| v.clone());
    l.sort();
    (l, clock.now_ns())
}

#[test]
fn concurrent_tickers_overlap_not_serialize() {
    for world in [2u64, 3, 5, 8, 13] {
        let (log_t, now_t) = run_tickers(ExecMode::Threads, world);
        let (log_e, now_e) = run_tickers(ExecMode::Events, world);
        assert_eq!(log_t, log_e, "tick logs diverge at world={world}");
        assert_eq!(now_t, now_e);
        // Tickers overlap: the makespan is the slowest ticker's last tick
        // (4 periods after its first at t=0), not the sum of all periods.
        assert_eq!(now_t, world * 1_000 * 4);
    }
}

/// A machine that reports which execution context it runs in.
struct ContextProbe {
    out: Arc<Monitor<Option<bool>>>,
}

impl SimActor for ContextProbe {
    fn wait_label(&self) -> &'static str {
        "probe"
    }

    fn poll(&mut self, _now: SimNs, _actor: &Actor) -> MachineStep {
        self.out.with(|o| *o = Some(on_pool_worker()));
        MachineStep::Done
    }
}

#[test]
fn pool_worker_flag_matches_mode() {
    for (mode, expect) in [(ExecMode::Threads, false), (ExecMode::Events, true)] {
        let clock = SimClock::with_mode(mode);
        let main = clock.register("main");
        let out = Arc::new(Monitor::new(clock.clone(), None));
        let h = clock.spawn_machine(0, "probe", Box::new(ContextProbe { out: out.clone() }));
        out.wait(&main, |o| *o);
        assert_eq!(out.peek(|o| *o), Some(expect), "mode {mode:?}");
        assert!(!on_pool_worker(), "the main thread is never a pool worker");
        drop(main);
        h.reap();
    }
}

/// A machine that parks forever with no wake hint, after noting which
/// thread polled it.
struct Stuck {
    polled_by: Arc<Mutex<Vec<ThreadId>>>,
}

impl SimActor for Stuck {
    fn wait_label(&self) -> &'static str {
        "stuck machine"
    }

    fn poll(&mut self, _now: SimNs, _actor: &Actor) -> MachineStep {
        self.polled_by.lock().push(std::thread::current().id());
        MachineStep::Pending(None)
    }
}

/// Run `world`, which must end in the clock's deadlock panic, and return
/// the report. The panic fires on whichever actor blocks last (the main
/// test actor or the scheduler), so the message is captured through a
/// panic hook instead of relying on which thread unwinds with it — and
/// the hook is the process's, hence one caller at a time.
fn deadlock_report(world: impl FnOnce()) -> String {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    static CAPTURED: Mutex<Option<String>> = Mutex::new(None);
    let _serial = ONE_AT_A_TIME.lock();
    *CAPTURED.lock() = None;
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("simtime: deadlock") {
            *CAPTURED.lock() = Some(msg);
        } else {
            prev(info);
        }
    }));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(world));
    assert!(result.is_err(), "the deadlock must panic");
    // The scheduler may take a moment to observe the poison and unwind.
    let mut tries = 0;
    let report = loop {
        if let Some(r) = CAPTURED.lock().take() {
            break r;
        }
        tries += 1;
        assert!(tries < 500, "deadlock report never captured");
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let _ = std::panic::take_hook();
    report
}

#[test]
fn event_mode_deadlock_report_names_the_parked_machine() {
    let report = deadlock_report(|| {
        let clock = SimClock::with_mode(ExecMode::Events);
        let main = clock.register("main");
        let stuck = Stuck {
            polled_by: Arc::default(),
        };
        let _h = clock.spawn_machine(3, "stuck", Box::new(stuck));
        // Never satisfied: with the machine parked hint-less, nothing can
        // advance the clock — a deadlock by construction.
        main.wait_until(|| -> Option<()> { None })
    });
    assert!(
        report.contains("\n  scheduler: 1 parked"),
        "event-mode report lists the scheduler's machines:\n{report}"
    );
    assert!(
        report.contains("stuck"),
        "report names the parked machine:\n{report}"
    );
    assert!(
        report.contains("[wildcard"),
        "report says the blocked waiters take any key:\n{report}"
    );
}

#[test]
fn sixteen_hints_are_one_scheduler_thread() {
    // Hints are legal arguments that place nothing: 16 tickers under 16
    // of them all complete and retire ...
    let (log, _) = run_tickers(ExecMode::Events, 16);
    assert_eq!(log.len(), 16 * 5);
    // ... and 16 machines under 16 of them are one actor, one thread and
    // one block of the deadlock report.
    let polled_by: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let report = deadlock_report(|| {
        let clock = SimClock::with_mode(ExecMode::Events);
        let main = clock.register("main");
        for i in 0..16u64 {
            let stuck = Stuck {
                polled_by: polled_by.clone(),
            };
            let _h = clock.spawn_machine(i * 7 + 1, format!("stuck{i}"), Box::new(stuck));
        }
        assert_eq!(clock.actor_count(), 2, "main and one scheduler");
        main.wait_until(|| -> Option<()> { None })
    });
    let polled_by = polled_by.lock().clone();
    assert!(polled_by.len() >= 16, "every machine was stepped");
    assert!(
        polled_by.iter().all(|id| *id == polled_by[0]),
        "by one thread: {polled_by:?}"
    );
    let blocks = report.lines().filter(|l| l.starts_with("  scheduler:"));
    assert_eq!(blocks.count(), 1, "{report}");
    assert!(
        report.contains("scheduler: 16 parked + 0 queued machine(s)"),
        "{report}"
    );
}
