//! One wait, two drivers: an `async` body runs as a task on the clock's
//! event core ([`SimClock::spawn_task`], the machine driver) or on a
//! blocked thread ([`Actor::block_on`], the thread driver), parked either
//! way on exactly what its last poll read and at the instant a sleep in
//! it noted.

use std::sync::Arc;

use simtime::plock::Mutex;
use simtime::{until, Actor, LabelWakes, MachineStep, Monitor, SimActor, SimClock, SimNs};

/// Two keyed waits and a sleep: wait for `a`, sleep 500 ns, wait for `b`.
/// Each step counts one transition. Returns the instant it ends at.
async fn two_waits_and_a_sleep(
    clock: SimClock,
    a: Arc<Monitor<bool>>,
    b: Arc<Monitor<bool>>,
) -> SimNs {
    until(|| a.peek(|&set| set.then_some(()))).await;
    clock.count_events(1);
    clock.sleep_until(clock.now_ns() + 500).await;
    clock.count_events(1);
    until(|| b.peek(|&set| set.then_some(()))).await;
    clock.count_events(1);
    clock.now_ns()
}

/// Run the body under one driver, next to a feeder that sets `a` at
/// 100 ns and `b` at 1,100 ns. Returns (the body's end instant, the
/// clock's final instant, transitions).
fn run_body(as_task: bool) -> (SimNs, SimNs, u64) {
    let clock = SimClock::new();
    let a = Arc::new(Monitor::new(clock.clone(), false));
    let b = Arc::new(Monitor::new(clock.clone(), false));
    let ended = Arc::new(Mutex::new(0));
    let feeder = clock.register("feeder");
    let driver = clock.register("driver");
    let body = two_waits_and_a_sleep(clock.clone(), a.clone(), b.clone());
    let end = ended.clone();
    let driven = std::thread::spawn(move || {
        if as_task {
            let clock = driver.clock().clone();
            clock.spawn_task("body", "two waits", |_| async move {
                *end.lock() = body.await;
            });
        } else {
            *end.lock() = driver.block_on("two waits", body);
        }
    });
    feeder.advance_ns(100);
    a.with(|set| *set = true);
    feeder.advance_ns(1_000);
    b.with(|set| *set = true);
    drop(feeder);
    assert!(driven.join().is_ok());
    clock.quiesce_machines();
    let end = *ended.lock();
    (end, clock.now_ns(), clock.events())
}

#[test]
fn one_body_ends_at_the_same_instant_under_both_drivers() {
    let as_task = run_body(true);
    let on_thread = run_body(false);
    assert_eq!(as_task, (1_100, 1_100, 3), "under spawn_task");
    assert_eq!(on_thread, as_task, "block_on and spawn_task agree");
}

#[test]
fn block_on_parks_once_for_the_one_notify_that_satisfies_it() {
    let clock = SimClock::new();
    let flag = Arc::new(Monitor::new(clock.clone(), false));
    let waiter = clock.register("waiter");
    let setter = clock.register("setter");
    let seen = flag.clone();
    let blocked = std::thread::spawn(move || {
        let set = until(|| seen.peek(|&set| set.then_some(waiter.now_ns())));
        waiter.block_on("one notify", set)
    });
    // The clock cannot reach 10 ns before the waiter has parked.
    setter.advance_ns(10);
    flag.with(|set| *set = true);
    drop(setter);
    assert_eq!(blocked.join().ok(), Some(10));
    let wakes = clock.wake_stats().labels.get("one notify").copied();
    let one = LabelWakes {
        parked: 1,
        wakeups: 1,
        successes: 1,
    };
    assert_eq!(wakes, Some(one));
}

/// The hand-written form of a task that sleeps until `at`.
struct Sleeper {
    at: SimNs,
}

impl SimActor for Sleeper {
    fn wait_label(&self) -> &'static str {
        "sleeper"
    }

    fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
        if now < self.at {
            MachineStep::Pending(Some(self.at))
        } else {
            MachineStep::Done
        }
    }
}

/// Spawn one sleeper until 700 ns, as a task or as a machine, and let the
/// only actor leave. Returns (final instant, alarms fired, machine polls,
/// scheduler passes).
fn run_sleeper(as_task: bool) -> (SimNs, u64, u64, u64) {
    let clock = SimClock::new();
    let main = clock.register("main");
    if as_task {
        let sleeper = clock.clone();
        clock.spawn_task("sleeper", "sleeper", |_| async move {
            sleeper.sleep_until(700).await;
        });
    } else {
        clock.spawn_machine(0, "sleeper", Box::new(Sleeper { at: 700 }));
    }
    drop(main);
    clock.quiesce_machines();
    let w = clock.wake_stats();
    (
        clock.now_ns(),
        w.alarms_fired,
        w.machine_polls,
        w.sched_passes,
    )
}

#[test]
fn a_task_sleeps_on_the_slab_timer_like_a_hand_written_machine() {
    let machine = run_sleeper(false);
    assert_eq!(machine, (700, 1, 2, 2));
    assert_eq!(run_sleeper(true), machine);
}

#[test]
fn a_panicking_task_poisons_the_clock() {
    let clock = SimClock::new();
    let main = clock.register("main");
    let world = std::thread::spawn(move || {
        main.clock().spawn_task("doomed", "doomed", |_| async {
            let fault: Option<u32> = None;
            assert!(fault.is_some(), "the task's deliberate failure");
        });
        main.advance_ns(10);
    });
    assert!(world.join().is_err(), "the settling thread unwinds");
    assert!(clock.is_poisoned());
}

#[test]
fn a_stuck_task_is_named_in_the_deadlock_report() {
    static CAPTURED: Mutex<Option<String>> = Mutex::new(None);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("simtime: deadlock") {
            *CAPTURED.lock() = Some(msg);
        } else {
            prev(info);
        }
    }));
    let world = std::thread::spawn(|| {
        let clock = SimClock::new();
        let main = clock.register("main");
        let never = Arc::new(Monitor::new(clock.clone(), false));
        clock.spawn_task("stuck-task", "stuck", |_| async move {
            until(|| never.peek(|&set| set.then_some(()))).await;
        });
        main.wait_on(&[clock.new_key()], "never", || -> Option<()> { None });
    });
    assert!(world.join().is_err(), "the deadlock must panic");
    let _ = std::panic::take_hook();
    let report = CAPTURED.lock().take().unwrap_or_default();
    assert!(
        report.contains("stuck-task [keyed: 1 key(s), no timer]"),
        "the report names the task and what it is parked on:\n{report}"
    );
}
