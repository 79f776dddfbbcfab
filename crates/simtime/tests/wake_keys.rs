//! Wake-by-dependency: notifies and alarms reach the dependants of their
//! key and nobody else, and neither the clock's trajectory nor the
//! lost-wake-up and poison guarantees depend on keys.
//!
//! Interleavings are forced through virtual time itself: an actor that
//! has `advance_ns`'d to instant t only runs once every other actor is
//! parked, so "the waiters are parked before the driver acts" needs no
//! sleeps or barriers.
//!
//! The second half is about scheduler passes, which are *owed*: a pass is
//! owed when a machine is readied (by a notify or alarm of a key it
//! read), and run only by the thread that settles a round, once every
//! actor has parked. Those tests run under a wall-clock watchdog, because
//! what an owed pass nobody runs looks like is a world that never ends.
//!
//! The third part is about the machines themselves: a machine is parked
//! on the keys its last poll read, and is polled again when one of them
//! is notified, when a hint it asked for comes due, and at no other
//! time. It ends with generated networks that must reproduce committed
//! fingerprints.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier, Weak};
use std::thread;
use std::time::Duration;

use simtime::plock::Mutex;
use simtime::{
    Actor, LabelWakes, MachineStep, Monitor, Progress, SimActor, SimChannel, SimClock, SimNs,
    WakeKey, XorShift64,
};

/// Join a worker, re-raising its own panic (with its message) if it died.
fn join<T>(h: thread::JoinHandle<T>) -> T {
    h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))
}

fn label(clock: &SimClock, name: &str) -> LabelWakes {
    clock
        .wake_stats()
        .labels
        .get(name)
        .copied()
        .unwrap_or_default()
}

#[test]
fn keyed_notify_does_not_wake_a_waiter_on_another_monitor() {
    let clock = SimClock::new();
    let a = Arc::new(Monitor::new(clock.clone(), 0u32));
    let b = Arc::new(Monitor::new(clock.clone(), 0u32));
    let wa = clock.register("on-a");
    let wb = clock.register("on-b");
    let driver = clock.register("driver");

    let (a1, b1) = (a.clone(), b.clone());
    let ta = thread::spawn(move || a1.wait_labeled(&wa, "on a", |v| (*v == 1).then_some(())));
    let tb = thread::spawn(move || b1.wait_labeled(&wb, "on b", |v| (*v == 5).then_some(())));
    // t=10: both waiters are parked (or the clock could not have moved).
    driver.advance_ns(10);
    for _ in 0..5 {
        b.with(|v| *v += 1);
    }
    // t=20: `on b` has finished; `on a` must have slept through all of it.
    driver.advance_ns(10);
    assert_eq!(
        label(&clock, "on a"),
        LabelWakes {
            parked: 1,
            wakeups: 0,
            successes: 0
        },
        "five notifies of b's key must not reach a's waiter"
    );
    a.with(|v| *v = 1);
    join(ta);
    join(tb);
    drop(driver);

    assert_eq!(
        label(&clock, "on a"),
        LabelWakes {
            parked: 1,
            wakeups: 1,
            successes: 1
        }
    );
    let on_b = label(&clock, "on b");
    assert!(
        (1..=5).contains(&on_b.wakeups) && on_b.successes == 1,
        "b's waiter absorbs its own five notifies in one to five wake-ups: {on_b:?}"
    );
    assert_eq!(
        clock.wake_stats().notifies,
        6 + 2,
        "6 `with` + 2 wait exits"
    );
}

#[test]
fn alarm_for_an_instant_already_reached_flags_at_once_and_never_moves_the_clock_back() {
    // A grant the clock reaches late (nobody was blocked to drive it)
    // alarms for a `visible_at` already behind `now`.
    let clock = SimClock::new();
    let m = Arc::new(Monitor::new(clock.clone(), ()));
    let flag = Arc::new(AtomicBool::new(false));
    let waiter = clock.register("keyed");
    let driver = clock.register("driver");
    let (m1, f1) = (m.clone(), flag.clone());
    let t = thread::spawn(move || {
        waiter.wait_on(&[m1.key()], "past due", || {
            f1.load(Ordering::SeqCst).then_some(())
        });
        waiter.now_ns()
    });
    driver.advance_ns(100);
    flag.store(true, Ordering::SeqCst);
    m.alarm_at(50);
    driver.advance_ns(10);
    assert_eq!(join(t), 100);
    assert_eq!(clock.now_ns(), 110);
}

/// Alarms at 100 and 200 on `b`, one at 300 for the waiter on `a`; an
/// observer of both logs every instant it is woken at. Returns
/// (observer's log, a-waiter's wake accounting, final time).
fn alarm_trajectory() -> (Vec<SimNs>, LabelWakes, SimNs) {
    let clock = SimClock::new();
    let a = Arc::new(Monitor::new(clock.clone(), ()));
    let b = Monitor::new(clock.clone(), ());
    let wa = clock.register("on-a");
    let observer = clock.register("observer");
    b.alarm_at(100);
    b.alarm_at(200);
    a.alarm_at(300);
    let (a1, c1) = (a.clone(), clock.clone());
    let ta =
        thread::spawn(move || a1.wait_labeled(&wa, "on a", |_| (c1.now_ns() >= 300).then_some(())));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (l1, c2) = (log.clone(), clock.clone());
    let both = [a.key(), b.key()];
    let to = thread::spawn(move || {
        observer.wait_on(&both, "observer", || {
            let now = c2.now_ns();
            let mut log = l1.lock();
            if log.last() != Some(&now) {
                log.push(now);
            }
            (now >= 300).then_some(())
        })
    });
    join(ta);
    join(to);
    let seen = log.lock().clone();
    (seen, label(&clock, "on a"), clock.now_ns())
}

#[test]
fn keyed_alarm_drives_the_clock_but_wakes_only_dependants() {
    let (seen, on_a, end) = alarm_trajectory();
    assert_eq!(seen, vec![0, 100, 200, 300], "every due alarm drives");
    assert_eq!(end, 300);
    assert_eq!(on_a.wakeups, 1, "b's alarms pass a's waiter by: {on_a:?}");
    assert_eq!(on_a.successes, 1);
}

#[test]
fn lost_wakeup_hammer_on_two_monitors_at_once() {
    // Two producer/consumer pairs, each handing 100 tokens one at a time
    // through its own monitor, on one clock: a wake-up delivered to the
    // wrong pair (or dropped) wedges a pair and trips deadlock detection.
    let clock = SimClock::new();
    // Register every actor before any thread starts (see `register`).
    let pairs: Vec<_> = (0..2)
        .map(|pair| {
            (
                clock.register(format!("producer{pair}")),
                clock.register(format!("consumer{pair}")),
            )
        })
        .collect();
    let mut handles = Vec::new();
    for (p, c) in pairs {
        let slot: Arc<Monitor<Option<u32>>> = Arc::new(Monitor::new(clock.clone(), None));
        let s1 = slot.clone();
        handles.push(thread::spawn(move || {
            for i in 0..100u32 {
                p.advance_ns(1);
                s1.wait(&p, |s| s.is_none().then_some(()));
                s1.with(|s| *s = Some(i));
            }
            Vec::new()
        }));
        handles.push(thread::spawn(move || {
            (0..100).map(|_| slot.wait(&c, |s| s.take())).collect()
        }));
    }
    let got: Vec<Vec<u32>> = handles.into_iter().map(join).collect();
    let all: Vec<u32> = (0..100).collect();
    assert_eq!(got[1], all);
    assert_eq!(got[3], all);
    assert_eq!(clock.now_ns(), 100);
}

#[test]
fn panicking_actor_unparks_every_keyed_waiter_and_sleeper() {
    let clock = SimClock::new();
    let a = Arc::new(Monitor::new(clock.clone(), ()));
    let b = Arc::new(Monitor::new(clock.clone(), ()));
    let on_a = clock.register("on-a");
    let on_b = clock.register("on-b");
    let on_raw = clock.register("on-raw");
    let raw = clock.new_key();
    let sleeper = clock.register("sleeper");
    let panicker = clock.register("panicker");
    let parked = vec![
        thread::spawn(move || a.wait(&on_a, |_| None::<()>)),
        thread::spawn(move || b.wait(&on_b, |_| None::<()>)),
        thread::spawn(move || on_raw.wait_on(&[raw], "raw", || None::<()>)),
        thread::spawn(move || sleeper.advance_ns(1_000_000_000)),
    ];
    let boom = thread::spawn(move || {
        // Reaching t=10 proves the other four are parked.
        panicker.advance_ns(10);
        std::panic::panic_any("boom");
    });
    assert!(boom.join().is_err());
    for h in parked {
        let payload = h.join().expect_err("every parked actor must fail fast");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string payload>");
        assert!(msg.contains("poisoned"), "poison panic, got: {msg}");
    }
    assert!(clock.is_poisoned());
    assert_eq!(clock.now_ns(), 10, "the sleeper's target was never reached");
}

/// Run `f` on a thread of its own and fail, instead of wedging the test
/// run, if it has not returned after ten seconds of wall-clock time.
fn within_watchdog(f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    let timed_out =
        rx.recv_timeout(Duration::from_secs(10)) == Err(mpsc::RecvTimeoutError::Timeout);
    assert!(
        !timed_out,
        "still running after 10 s: a pass was owed and nobody ran it"
    );
    join(h); // re-raises `f`'s own panic, if that is how it ended
}

/// A machine that counts its polls. It asks to be woken at each of
/// `ticks` and retires at the last one, or — with no ticks — when `stop`
/// is set (a raw flag: whoever sets it notifies `key`, which every poll
/// notes).
struct Watcher {
    polls: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    key: WakeKey,
    ticks: Vec<SimNs>,
}

impl SimActor for Watcher {
    fn wait_label(&self) -> &'static str {
        "watcher"
    }

    fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
        self.polls.fetch_add(1, Ordering::SeqCst);
        simtime::note_read(self.key);
        if self.stop.load(Ordering::SeqCst) || self.ticks.last().is_some_and(|&t| now >= t) {
            return MachineStep::Done;
        }
        MachineStep::Pending(self.ticks.iter().copied().find(|&t| t > now))
    }
}

/// What a test holds of its [`Watcher`].
struct Watched {
    polls: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    key: WakeKey,
}

/// Put one [`Watcher`] — hence owed passes — on `clock`.
fn spawn_watcher(clock: &SimClock, ticks: &[SimNs]) -> Watched {
    let polls = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let key = clock.new_key();
    let watcher = Watcher {
        polls: polls.clone(),
        stop: stop.clone(),
        key,
        ticks: ticks.to_vec(),
    };
    clock.spawn_machine(0, "watcher", Box::new(watcher));
    Watched { polls, stop, key }
}

/// Scheduler passes run so far.
fn passes(clock: &SimClock) -> u64 {
    clock.wake_stats().sched_passes
}

#[test]
fn owed_pass_runs_when_the_last_runnable_actor_parks_and_not_before() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let driver = clock.register("driver");
        let Watched { polls, stop, key } = spawn_watcher(&clock, &[]);
        // t=10: the watcher is parked (or the clock could not have moved).
        driver.advance_ns(10);
        let (before, polled) = (passes(&clock), polls.load(Ordering::SeqCst));
        for _ in 0..5 {
            clock.notify_key(key);
        }
        // A pass is owed now. Give the OS every chance to run one: none
        // may run for as long as the driver is runnable.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(passes(&clock), before, "a pass beside a runnable actor");
        assert_eq!(polls.load(Ordering::SeqCst), polled);
        // The driver parks: it makes one pass for all five notifies, and
        // only then can the clock reach t=20.
        driver.advance_ns(10);
        assert_eq!(passes(&clock), before + 1);
        assert_eq!(polls.load(Ordering::SeqCst), polled + 1);
        stop.store(true, Ordering::SeqCst);
        clock.notify_key(key);
        drop(driver);
        clock.quiesce_machines();
        assert_eq!(clock.now_ns(), 20);
    });
}

#[test]
fn alarm_firing_during_a_clock_advance_runs_the_pass_it_owes() {
    // No actor is left: the last one's drop advances the clock to the
    // watcher's next tick, and the alarm firing there — in the middle of
    // `maybe_advance`, with nobody runnable — readies nobody but the
    // watcher. Whoever advances must also run the pass that alarm owes.
    within_watchdog(|| {
        let clock = SimClock::new();
        let main = clock.register("main");
        let polls = spawn_watcher(&clock, &[100, 200, 300]).polls;
        drop(main);
        clock.quiesce_machines();
        assert_eq!(clock.now_ns(), 300);
        assert_eq!(clock.wake_stats().alarms_fired, 3);
        let polls = polls.load(Ordering::SeqCst);
        assert!((4..=5).contains(&polls), "one poll per tick: {polls}");
    });
}

#[test]
fn notify_from_a_thread_without_an_actor_owes_a_pass_the_next_park_runs() {
    // The notifier owns no actor, so it never parks and never passes
    // through `maybe_advance`. With every actor parked such a notify
    // cannot be staged — the clock has moved on, or declared a deadlock,
    // before it arrives — so the driver here is runnable but stuck on a
    // real-time gate: the pass is owed, and the driver's park runs it
    // with all three notifies absorbed in one pass.
    within_watchdog(|| {
        let clock = SimClock::new();
        let driver = clock.register("driver");
        let Watched { polls, stop, key } = spawn_watcher(&clock, &[]);
        let (open_gate, gate) = mpsc::channel::<()>();
        let t = thread::spawn(move || {
            driver.advance_ns(10);
            let _ = gate.recv();
            driver.advance_ns(10);
            driver
        });
        // Wait (real time) until the driver stands at the gate at t=10;
        // the watcher has been parked since before the clock got there.
        while clock.now_ns() < 10 {
            thread::yield_now();
        }
        let (before, polled) = (passes(&clock), polls.load(Ordering::SeqCst));
        stop.store(true, Ordering::SeqCst);
        for _ in 0..3 {
            clock.notify_key(key);
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(passes(&clock), before, "a pass beside a runnable actor");
        assert!(open_gate.send(()).is_ok(), "the driver waits at the gate");
        let driver = join(t);
        assert_eq!(passes(&clock), before + 1);
        assert_eq!(polls.load(Ordering::SeqCst), polled + 1);
        drop(driver);
        clock.quiesce_machines();
    });
}

#[test]
fn poison_leaves_an_owed_pass_unrun() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let driver = clock.register("driver");
        let Watched { polls, key, .. } = spawn_watcher(&clock, &[]);
        let c1 = clock.clone();
        let boom = thread::spawn(move || {
            driver.advance_ns(10);
            c1.notify_key(key); // a pass is owed: we are runnable
            std::panic::panic_any("boom");
        });
        assert!(boom.join().is_err());
        // The unwinding driver poisons the clock instead of settling the
        // round, and a quiescing caller sees the poison.
        let c2 = clock.clone();
        let quiesce = thread::spawn(move || c2.quiesce_machines());
        assert!(quiesce.join().is_err(), "quiesce reports the poison");
        assert!(clock.is_poisoned());
        assert_eq!(clock.actor_count(), 0);
        assert_eq!(polls.load(Ordering::SeqCst), 1, "adoption only");
    });
}

#[test]
fn actor_dropped_while_a_pass_is_owed_keeps_the_clock_advancing() {
    // The driver owes a pass and leaves without ever parking; a sleeper
    // is waiting for t=100. The drop must run the pass, and the pass must
    // leave nothing owed, or the clock never reaches the sleeper.
    within_watchdog(|| {
        let clock = SimClock::new();
        let driver = clock.register("driver");
        let sleeper = clock.register("sleeper");
        let Watched { polls, stop, key } = spawn_watcher(&clock, &[]);
        let c1 = clock.clone();
        let t = thread::spawn(move || {
            sleeper.advance_ns(100);
            stop.store(true, Ordering::SeqCst);
            c1.notify_key(key);
            sleeper.now_ns()
        });
        driver.advance_ns(10);
        let (before, polled) = (passes(&clock), polls.load(Ordering::SeqCst));
        clock.notify_key(key);
        drop(driver);
        assert_eq!(join(t), 100);
        clock.quiesce_machines();
        // One pass run by the drop, one by the sleeper's exit.
        assert_eq!(passes(&clock), before + 2);
        assert_eq!(polls.load(Ordering::SeqCst), polled + 2);
        assert_eq!(clock.actor_count(), 0);
    });
}

// ---------------------------------------------------------------------
// Ready machines: parked on what the last poll read
// ---------------------------------------------------------------------

/// A machine whose step is a closure `now -> MachineStep`.
struct FnMachine<F>(F);

impl<F: FnMut(SimNs) -> MachineStep + Send> SimActor for FnMachine<F> {
    fn wait_label(&self) -> &'static str {
        "fn machine"
    }

    fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
        (self.0)(now)
    }
}

fn spawn_fn(
    clock: &SimClock,
    hint: u64,
    label: &str,
    step: impl FnMut(SimNs) -> MachineStep + Send + 'static,
) {
    clock.spawn_machine(hint, label, Box::new(FnMachine(step)));
}

/// A machine that finishes once `m` holds 1; its polls are counted.
fn spawn_until_one(clock: &SimClock, hint: u64, m: &Arc<Monitor<u32>>) -> Arc<AtomicU64> {
    let polls = Arc::new(AtomicU64::new(0));
    let (m, p) = (m.clone(), polls.clone());
    spawn_fn(clock, hint, "until one", move |_| {
        p.fetch_add(1, Ordering::SeqCst);
        if m.peek(|v| *v == 1) {
            MachineStep::Done
        } else {
            MachineStep::Pending(None)
        }
    });
    polls
}

/// (passes, machine polls, ready marks) so far.
fn machine_stats(clock: &SimClock) -> (u64, u64, u64) {
    let w = clock.wake_stats();
    (w.sched_passes, w.machine_polls, w.machine_readies)
}

#[test]
fn notify_of_a_key_no_machine_read_owes_no_pass() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let a = Arc::new(Monitor::new(clock.clone(), 0u32));
        let b = Monitor::new(clock.clone(), 0u32);
        let driver = clock.register("driver");
        let polls = spawn_until_one(&clock, 0, &a);
        driver.advance_ns(10); // the machine is parked on `a`
        let before = machine_stats(&clock);
        for _ in 0..5 {
            b.with(|v| *v += 1);
        }
        // Parking is what would run the pass, had b owed one.
        driver.advance_ns(10);
        assert_eq!(machine_stats(&clock), before, "b is none of its business");
        a.with(|v| *v = 1);
        drop(driver);
        clock.quiesce_machines();
        let after = machine_stats(&clock);
        assert_eq!(
            (after.0, after.1, after.2),
            (before.0 + 1, before.1 + 1, before.2 + 1),
            "one pass, one poll, one ready mark for a's notify"
        );
        assert_eq!(polls.load(Ordering::SeqCst), 2, "adoption + a's notify");
    });
}

#[test]
fn machine_that_reparks_on_another_monitor_is_reregistered() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let which = Arc::new(Monitor::new(clock.clone(), 0usize));
        let mons: Vec<_> = (0..2)
            .map(|_| Arc::new(Monitor::new(clock.clone(), 0u32)))
            .collect();
        let driver = clock.register("driver");
        let (w, ms) = (which.clone(), mons.clone());
        spawn_fn(&clock, 0, "follower", move |_| {
            if ms[w.peek(|i| *i)].peek(|v| *v == 1) {
                MachineStep::Done
            } else {
                MachineStep::Pending(None)
            }
        });
        driver.advance_ns(10); // parked on {which, mons[0]}
        which.with(|i| *i = 1);
        driver.advance_ns(10); // polled once, parked on {which, mons[1]}
        let before = machine_stats(&clock);
        for _ in 0..3 {
            mons[0].with(|v| *v += 1);
        }
        driver.advance_ns(10);
        assert_eq!(
            machine_stats(&clock),
            before,
            "the monitor it no longer reads no longer readies it"
        );
        mons[1].with(|v| *v = 1);
        drop(driver);
        clock.quiesce_machines();
        assert_eq!(machine_stats(&clock).1, before.1 + 1, "the new one does");
    });
}

#[test]
fn notify_between_a_poll_and_its_registration_is_not_lost() {
    // The machine's first poll reads `m` (0), then resumes a second actor
    // and stands at a real barrier while that actor sets `m` to 1: the
    // notify happens after the read and before the pass has registered
    // the machine on m's key. Without the generation check at
    // registration nothing owes the pass that would see the 1, and the
    // world ends in a deadlock report.
    within_watchdog(|| {
        let clock = SimClock::new();
        let m = Arc::new(Monitor::new(clock.clone(), 0u32));
        let go = Arc::new(Monitor::new(clock.clone(), false));
        let gate = Arc::new(Barrier::new(2));
        let polls = Arc::new(AtomicU64::new(0));
        let driver = clock.register("driver");
        let notifier = clock.register("notifier");
        let (m1, go1, g1) = (m.clone(), go.clone(), gate.clone());
        let t = thread::spawn(move || {
            go1.wait(&notifier, |g| g.then_some(()));
            m1.with(|v| *v = 1);
            g1.wait(); // notify done
        });
        // t=10: the notifier is parked, so the driver settles the next
        // round — and runs the racer's first poll on this thread.
        driver.advance_ns(10);
        let (m2, go2, g2, p2) = (m.clone(), go.clone(), gate.clone(), polls.clone());
        spawn_fn(&clock, 0, "racer", move |_| {
            let first = p2.fetch_add(1, Ordering::SeqCst) == 0;
            let seen = m2.peek(|v| *v);
            if first {
                go2.with(|g| *g = true); // read done: the notifier resumes
                g2.wait();
            }
            if seen == 1 {
                MachineStep::Done
            } else {
                MachineStep::Pending(None)
            }
        });
        drop(driver);
        join(t);
        clock.quiesce_machines();
        assert_eq!(polls.load(Ordering::SeqCst), 2);
        assert_eq!(clock.wake_stats().machine_readies, 1, "the re-queue");
    });
}

/// A progress source that sets a flag, logging the instants it ran at.
struct Raiser {
    flag: Arc<Monitor<bool>>,
    ran: Mutex<Vec<SimNs>>,
}

impl Progress for Raiser {
    fn run(&self, now: SimNs) {
        self.ran.lock().push(now);
        self.flag.with(|f| *f = true);
    }
}

fn raiser(clock: &SimClock) -> (Arc<Raiser>, WakeKey) {
    let flag = Arc::new(Monitor::new(clock.clone(), false));
    let source = Arc::new(Raiser {
        flag,
        ran: Mutex::default(),
    });
    let key = clock.progress_key(Arc::downgrade(&source) as Weak<dyn Progress>);
    (source, key)
}

#[test]
fn progress_alarm_runs_its_source_before_anybody_runs_at_its_instant() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let (source, key) = raiser(&clock);
        clock.schedule_alarm_keyed(50, key);
        let (gone, gone_key) = raiser(&clock);
        let gone_flag = gone.flag.clone();
        clock.schedule_alarm_keyed(50, gone_key);
        drop(gone); // its alarm is skipped
        let later = clock.new_key();
        clock.schedule_alarm_keyed(70, later);
        let main = clock.register("main");
        let sleeper = clock.register("sleeper");
        let waiter = clock.register("waiter");
        // A machine with a hint at 50, which reads the flag on every step.
        let log: Arc<Mutex<Vec<(SimNs, bool)>>> = Arc::default();
        let (l1, f1) = (log.clone(), source.flag.clone());
        spawn_fn(&clock, 0, "hinted", move |now| {
            l1.lock().push((now, f1.peek(|f| *f)));
            if now < 50 {
                MachineStep::Pending(Some(50))
            } else {
                MachineStep::Done
            }
        });
        let f2 = source.flag.clone();
        let s = thread::spawn(move || {
            sleeper.advance_until(50);
            f2.peek(|f| *f)
        });
        // Registered on the progress key, which is nobody's to wait on.
        let c = clock.clone();
        let w = thread::spawn(move || {
            waiter.wait_on(&[key, later], "on a progress key", || {
                (c.now_ns() >= 70).then_some(())
            })
        });
        drop(main);
        assert!(join(s), "the sleeper due at 50 sees the flag set");
        join(w);
        clock.quiesce_machines();
        assert_eq!(
            *log.lock(),
            vec![(0, false), (50, true)],
            "so does the machine whose hint is due at 50"
        );
        assert_eq!(*source.ran.lock(), vec![50]);
        assert!(!gone_flag.peek(|f| *f), "a dropped source is skipped");
        assert_eq!(
            label(&clock, "on a progress key"),
            LabelWakes {
                parked: 1,
                wakeups: 1,
                successes: 1
            },
            "woken at 70 only: a progress alarm flags nobody"
        );
    });
}

#[test]
fn hint_and_key_both_step_through_poll() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let m = Arc::new(Monitor::new(clock.clone(), 0u32));
        let log: Arc<Mutex<Vec<(SimNs, u32)>>> = Arc::default();
        let driver = clock.register("driver");
        let (m1, l1) = (m.clone(), log.clone());
        spawn_fn(&clock, 0, "timed reader", move |now| {
            l1.lock().push((now, m1.peek(|v| *v)));
            if now >= 100 {
                MachineStep::Done
            } else {
                MachineStep::Pending(Some(100))
            }
        });
        driver.advance_ns(10);
        m.with(|v| *v = 7);
        drop(driver);
        clock.quiesce_machines();
        assert_eq!(
            *log.lock(),
            vec![(0, 0), (10, 7), (100, 7)],
            "adopted, readied by m's key, then stepped by the timer"
        );
        assert_eq!(
            clock.wake_stats().alarms_fired,
            2,
            "one alarm for the driver's sleep, one for the timer's one instant"
        );
    });
}

#[test]
fn retired_machine_leaves_the_registry_and_a_panicking_pass_poisons_the_clock() {
    within_watchdog(|| {
        let clock = SimClock::new();
        let a = Arc::new(Monitor::new(clock.clone(), 0u32));
        let b = Arc::new(Monitor::new(clock.clone(), 0u32));
        let driver = clock.register("driver");
        // The survivor keeps a machine — and the ready list — alive after
        // the first machine has gone.
        let _ = spawn_until_one(&clock, 0, &a);
        let _ = spawn_until_one(&clock, 0, &b);
        driver.advance_ns(10);
        a.with(|v| *v = 1);
        driver.advance_ns(10); // a's machine has retired
        let before = machine_stats(&clock);
        for _ in 0..3 {
            a.with(|v| *v += 1);
        }
        driver.advance_ns(10);
        assert_eq!(
            machine_stats(&clock),
            before,
            "a retired machine's key readies nobody"
        );
        // Now a machine panics in the pass the driver's drop runs, with
        // b's machine still parked on b. The driver is deregistered by
        // then: the pass's own handle must poison the clock as it unwinds.
        spawn_fn(&clock, 0, "bomb", |_| std::panic::panic_any("boom"));
        let boom = thread::spawn(move || drop(driver));
        assert!(boom.join().is_err(), "the settling thread unwinds");
        assert!(clock.is_poisoned());
        let c1 = clock.clone();
        let quiesce = thread::spawn(move || c1.quiesce_machines());
        assert!(quiesce.join().is_err(), "quiesce reports the poison");
        let before = machine_stats(&clock);
        b.with(|v| *v = 1);
        assert_eq!(
            (machine_stats(&clock).0, machine_stats(&clock).1),
            (before.0, before.1),
            "a poisoned clock's machines are stepped by nobody"
        );
    });
}

/// A machine must not spawn a machine from inside `poll`: the pass holds
/// the slab's lock, and the newcomer would wait for it on the thread
/// that holds it — an OS-level hang no deadlock report can see. A debug
/// build says so instead, on the thread that settled the round.
#[cfg(debug_assertions)]
#[test]
fn machine_that_spawns_from_poll_poisons_the_clock_instead_of_hanging() {
    static CAPTURED: Mutex<Option<String>> = Mutex::new(None);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.to_string();
        if msg.contains("spawned from inside a poll") {
            *CAPTURED.lock() = Some(msg);
        } else {
            prev(info);
        }
    }));
    within_watchdog(|| {
        let clock = SimClock::new();
        let driver = clock.register("driver");
        let c1 = clock.clone();
        spawn_fn(&clock, 0, "parent", move |_| {
            let child = FnMachine(|_: SimNs| MachineStep::Done);
            c1.spawn_machine(1, "child", Box::new(child));
            MachineStep::Done
        });
        let settler = thread::spawn(move || drop(driver));
        assert!(settler.join().is_err(), "the pass unwinds its thread");
        let c2 = clock.clone();
        let quiesce = thread::spawn(move || c2.quiesce_machines());
        assert!(quiesce.join().is_err(), "quiesce reports the poison");
        assert!(clock.is_poisoned());
    });
    let _ = std::panic::take_hook();
    let msg = CAPTURED.lock().take().unwrap_or_default();
    assert!(msg.contains("machine \"child\" spawned"), "{msg:?}");
}

// ---------------------------------------------------------------------
// Generated networks against committed fingerprints
// ---------------------------------------------------------------------

/// One step of a toy machine's script.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Put a token into machine `to`'s inbox (never blocks).
    Send { to: usize },
    /// Take a token from the own inbox.
    Recv,
    /// Add one to counter `c`.
    Bump { c: usize },
    /// Wait until counter `c` has reached `k`.
    Await { c: usize, k: u32 },
    /// Let `d` virtual nanoseconds pass.
    Sleep { d: SimNs },
}

/// Scripts for `n` participants, projected from one random global order
/// of operations in which every receive follows its send and every
/// await the bumps it counts — so the order itself is a valid execution
/// and no network generated here can deadlock.
fn scripts(rng: &mut XorShift64, n: usize, counters: usize, ops: usize) -> Vec<Vec<Op>> {
    let mut out = vec![Vec::new(); n];
    let mut bumps = vec![0u32; counters];
    for _ in 0..ops {
        let who = rng.gen_range_usize(0, n);
        match rng.gen_range_usize(0, 4) {
            0 => {
                let to = rng.gen_range_usize(0, n);
                out[who].push(Op::Send { to });
                out[to].push(Op::Recv);
            }
            1 => {
                let c = rng.gen_range_usize(0, counters);
                bumps[c] += 1;
                out[who].push(Op::Bump { c });
            }
            2 => {
                let c = rng.gen_range_usize(0, counters);
                if bumps[c] > 0 {
                    let k = rng.gen_range_u64(1, u64::from(bumps[c]) + 1) as u32;
                    out[who].push(Op::Await { c, k });
                }
            }
            _ => out[who].push(Op::Sleep {
                d: rng.gen_range_u64(1, 400),
            }),
        }
    }
    out
}

/// What the participants of one toy network share.
#[derive(Clone)]
struct Net {
    inboxes: Vec<SimChannel<()>>,
    counters: Vec<Arc<Monitor<u32>>>,
    finished: Arc<Monitor<usize>>,
}

/// `(instant, op index)` of every op a participant completed.
type StepLog = Arc<Mutex<Vec<(SimNs, usize)>>>;

/// A script run as a machine: steps until an op cannot complete at this
/// instant, and logs `(instant, op index)` for every op that does.
struct Node {
    me: usize,
    net: Net,
    script: Vec<Op>,
    pc: usize,
    /// End of the `Sleep` in progress.
    until: Option<SimNs>,
    log: StepLog,
}

impl SimActor for Node {
    fn wait_label(&self) -> &'static str {
        "toy node"
    }

    fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
        while let Some(&op) = self.script.get(self.pc) {
            let done = match op {
                Op::Send { to } => {
                    self.net.inboxes[to].send(());
                    true
                }
                Op::Recv => self.net.inboxes[self.me].try_recv().is_some(),
                Op::Bump { c } => {
                    self.net.counters[c].with(|v| *v += 1);
                    true
                }
                Op::Await { c, k } => self.net.counters[c].peek(|v| *v >= k),
                Op::Sleep { d } => {
                    let until = *self.until.get_or_insert(now + d);
                    if now < until {
                        return MachineStep::Pending(Some(until));
                    }
                    self.until = None;
                    true
                }
            };
            if !done {
                return MachineStep::Pending(None);
            }
            self.log.lock().push((now, self.pc));
            self.pc += 1;
        }
        self.net.finished.with(|f| *f += 1);
        MachineStep::Done
    }
}

/// Run one generated network (`n` machines plus a scripted driver
/// thread); returns every participant's transition log.
fn run_network(seed: u64) -> Vec<Vec<(SimNs, usize)>> {
    let mut rng = XorShift64::new(seed);
    let n = rng.gen_range_usize(2, 7);
    let counters = rng.gen_range_usize(1, 4);
    let ops = rng.gen_range_usize(10, 60);
    // A few different hints: legal arguments that place nothing.
    let spread = rng.gen_range_u64(1, 5);
    let mut scripts = scripts(&mut rng, n + 1, counters, ops);
    let clock = SimClock::new();
    let net = Net {
        inboxes: (0..=n).map(|_| SimChannel::new(clock.clone())).collect(),
        counters: (0..counters)
            .map(|_| Arc::new(Monitor::new(clock.clone(), 0)))
            .collect(),
        finished: Arc::new(Monitor::new(clock.clone(), 0)),
    };
    let driver = clock.register("driver");
    let driver_script = scripts.pop().unwrap_or_default();
    let logs: Vec<StepLog> = (0..=n).map(|_| Arc::default()).collect();
    for (me, script) in scripts.into_iter().enumerate() {
        let node = Node {
            me,
            net: net.clone(),
            script,
            pc: 0,
            until: None,
            log: logs[me].clone(),
        };
        clock.spawn_machine(me as u64 % spread, format!("node{me}"), Box::new(node));
    }
    // The driver is participant `n`: the same ops, blocking.
    for (pc, op) in driver_script.into_iter().enumerate() {
        match op {
            Op::Send { to } => net.inboxes[to].send(()),
            Op::Recv => drop(net.inboxes[n].recv(&driver)),
            Op::Bump { c } => net.counters[c].with(|v| *v += 1),
            Op::Await { c, k } => net.counters[c].wait(&driver, |v| (*v >= k).then_some(())),
            Op::Sleep { d } => driver.advance_ns(d),
        }
        logs[n].lock().push((driver.now_ns(), pc));
    }
    net.finished.wait(&driver, |f| (*f == n).then_some(()));
    drop(driver);
    clock.quiesce_machines();
    logs.iter().map(|l| l.lock().clone()).collect()
}

/// FNV-1a over every participant's transition log, participant by
/// participant, each closed by a separator.
fn network_hash(logs: &[Vec<(SimNs, usize)>]) -> u64 {
    let mut bytes = Vec::new();
    for log in logs {
        for &(t, pc) in log {
            bytes.extend(t.to_le_bytes());
            bytes.extend((pc as u64).to_le_bytes());
        }
        bytes.extend(u64::MAX.to_le_bytes());
    }
    simtime::fnv1a(&bytes)
}

/// [`network_hash`] of [`run_network`] for seeds 0..240, in seed order.
/// Recorded on the event core and reproduced by the thread-per-machine
/// executor before that executor was retired.
#[rustfmt::skip]
const NETWORKS: [u64; 240] = [
    0x681d7e662cdc79b3, 0xf17d9b4e16a95fd5, 0xc749b1297faaf194, 0xf181298aa515ebde,
    0xc57e0ab331926ead, 0xbac6ceda2edf72fb, 0x1b5728bbf47253e1, 0xce84f534a29f00ee,
    0x4cebf5e3aa256db7, 0xd5c13de84c42892e, 0xd371b96b42631894, 0x7488e220de5ea354,
    0x534b942ca1c62f4e, 0x0ca6ae3cdab156ad, 0x970f162d0ed54917, 0x96ccb86cff048553,
    0x84cc16cf805a2d51, 0x4e49df78968ea478, 0x4aee490aa3398f5f, 0x84a85433b0bd73a4,
    0x70b201f6b30318a4, 0x6b087d29da867382, 0x272ae79ef5ecd02c, 0xd48dc32034008621,
    0x0302d816df3c9050, 0xdedcf7e43566e4ea, 0x6f3601780d6ec168, 0x669e1263916c59a3,
    0x7d42ff189bb89b40, 0x745f6b5901e429fc, 0x3abd103d560e71b0, 0xe516d706739ed9f4,
    0x10847c9fb788a00a, 0x3cfe3f63de1bbd3c, 0xf2295b254eece590, 0x0c0734325bffb556,
    0x32fb3299da031c51, 0x3560f70e4ececce8, 0x9117fa8ab41368d6, 0x0446111c12bd4400,
    0xbfefc9470c62c55a, 0x67f3026f4e08931d, 0xf193111a44277e6c, 0xb7d530837c2b7187,
    0xe8c0b64f9d178947, 0x912587fbc9522489, 0x2f9090fabec1ef4c, 0x82e65c4db07fe031,
    0xb4553fd9025dd906, 0x32a82af0e41ad3e9, 0xd202ee032e29bc11, 0x68e99e176056a153,
    0x1674aa76512a1059, 0x39196c572d817221, 0x98e7ab9c3fc8d350, 0xb72e259e27aa1a36,
    0xe4398151425eafec, 0x791acdea0081cd03, 0x30cbb017f8784b33, 0x0792545d898759ff,
    0x0399ab3b82c39a7b, 0xaeb3dfb6618562c7, 0x24bad74507c87b9c, 0x99fbbf0d2f96fcef,
    0x092ab21f034cd9fa, 0x7a9d1ed491101a7c, 0x543c17f8206cfd43, 0x54f790e944db07d6,
    0xf7ba7c664f612b58, 0x973df8f91973122c, 0x9e2df5230400275b, 0x067b32ba085dd201,
    0x0b1b65cb628a49b1, 0xa5c8a7b3df5f906b, 0xd85a3fc8ba3d33fa, 0xb4837055ff6f5243,
    0xdd8073e86de665a6, 0x7b51523f57b7da2c, 0xd0a4356d4f628c74, 0x2634bcf8572d8c8e,
    0x8dffac4fd7ef98e9, 0x52c40d73959365a6, 0x55bf87ec85f52976, 0x8610a368c49f4749,
    0x3d3734b1a448a37e, 0x9347b82c4862e9bd, 0x4e821ac4e15aa479, 0x424f05e8a3861d76,
    0x866b17ca5e3ecbc4, 0x97e4c0a8800afc32, 0x3c0c070361abda0a, 0xfd2943c3fa144d77,
    0xa527269ba75bdb0e, 0x6fe9cd1f320eb091, 0x824ebac477d3cab8, 0xdad13166a9e98d62,
    0x458358ecf10cbb3c, 0xedd6894148cffebf, 0xda3efabe650813ed, 0x4777fb697e68a907,
    0xf5cac2f23b01a009, 0x5a974a53f5f2fde9, 0xbafd9e044642ba41, 0xd6b5aae5a42eaec9,
    0x14031e18e8ea16bf, 0xbf8d981b262ccd2d, 0x72f00342cfce53a6, 0x14d73567c482a025,
    0xc45dd84adb7d2a3a, 0xbb0e978467f095fa, 0xfbbc32a503941946, 0xf73196b1456ebe38,
    0xe5c5a4004db7a258, 0xbffb36e838a7f4d7, 0x8a1b01d8bf1a9b2b, 0x60be8f55dae82841,
    0xea17562e51931518, 0x4485c2c94f56775e, 0xa706e77d6529bfe1, 0xfe46116230e55308,
    0x18ff9087728be62e, 0xcafbb3f3375d6803, 0xad59a2e7c2296e51, 0x2239e1fe3e509d07,
    0x196a8f22c8e99fb2, 0x31a8e3093a54d34e, 0x15f1c4ca22ef434f, 0x31baf694e984dc2a,
    0xfd96d0e4166045e7, 0xbf1bf8d35e5f3c87, 0x526792c60dcc7267, 0x91ac74fed1a2f581,
    0x4b357a56b8bb26f2, 0x79f3bb1fdc5c0035, 0x26108a6ed189786e, 0x31faca257d40d08d,
    0x03b04f3227adff3e, 0xe3f615b17ac343dc, 0x68b4e9af0031d8ab, 0x572ba74ea1c9dd6a,
    0xa43f20fa39615e5a, 0x5c28cf53be106fea, 0x60f67bcc79a57419, 0xe7d9e24b76624d06,
    0xaa05c3ebdf93f3c4, 0x0c2636003546a9f4, 0x003a5705c6535a8f, 0xd73aaab172ef2dc2,
    0x6f472572fb60dac2, 0xa17c97d34f3bee6e, 0x42f8c117a913387a, 0x98f058ac2c4037d8,
    0xd2955f348ba87132, 0xf8f7478c1d42c8d5, 0x3e5c8d1b498277b4, 0xe5d8c4f4757614b0,
    0xb4b86dab952e3838, 0x7007887d53461284, 0xe144ea6ef9708ee1, 0xb64bfb9f01ccdf78,
    0x9c921390ebac0518, 0xbadf322b60e05ce9, 0xc384a14435c634f7, 0xc975b62ba6d79133,
    0xb0e7d000deae473c, 0xcd709c6ab917dedc, 0x1cbc3c306c19b825, 0x2686da5f0697de23,
    0xf947c0aff6f028d8, 0x949c251422bb942e, 0xfe1941dc0d13869c, 0x0ebeaef01f4c7f9d,
    0xb7eaeb2dd00bff9b, 0x49df3c828bc6a712, 0x05aa5976cec8b2f2, 0xf9946a353145f97e,
    0x0d59b44857351b29, 0xa7d0a25433fef28e, 0x2ebcc6f253087a2e, 0x9b687388a8b79f4a,
    0x61e46b851b1d8f36, 0x0f327dbf7a9cefef, 0xa3307c2e078ad757, 0xfde5b22dff85f3b2,
    0xc679ce2f8cc810a2, 0xd11bd46fe5502e40, 0xaa4df21b8988a284, 0x13036bf4c346f133,
    0xc909490566758fcb, 0x1180dc73053b9d14, 0x45b2236bd70d67e2, 0x42bd33222649967a,
    0x7802fc203717fde5, 0x66a4efd0748df39f, 0x413a3d1e1d62f6be, 0xe0b955065711240e,
    0x79a5f0528391109b, 0xc4e8d6a20451477d, 0x092435f080192764, 0x784e553be1825593,
    0xc48159d5f28693f1, 0x6afb294ad848fa16, 0x70bc284c30be99a7, 0xdcc0f7d2138407c4,
    0xb2d48bae6d994134, 0xfb8627696f43f9f5, 0xa21f6c795e867294, 0x8e31bf3c2c0293a4,
    0xb21d2d732017976f, 0xd86fcdb5c0be6614, 0xab142fe120d83654, 0x70599c8d200856df,
    0xca888c8a4eff3575, 0x8b7ef806cc4aecba, 0x8d746778950254d4, 0x796f6889a19ff496,
    0x4f6f667ea714443a, 0xd5f9528d46288bf5, 0x40b8be4204793bb9, 0x8bee22e56d0ad1bc,
    0x73cb244c445a56b1, 0x267f80efcb54f2ef, 0xa5edcc5e2027a38e, 0x352ac8f8b09c2d56,
    0xa1190ba132dda3e5, 0xafe02a366aec5de5, 0xcd749b10921fcf40, 0x597ab0f36fbd867d,
    0x1e94352fd60edf9e, 0x01a5cd15b6453a70, 0x81bca24a62b3e9dd, 0x7d9a483966c1034f,
    0x87fefaa7fb739e6c, 0xa0102edcc648426e, 0x34776ab2f8108298, 0x16979d40303360a1,
    0x6b88393ff621215a, 0x56cbe8ec8a9cc42b, 0x3565f82502db25dd, 0x99381f7158fbf1fb,
];

#[test]
fn generated_networks_reproduce_their_committed_fingerprints() {
    let mut transitions = 0;
    let mut got = Vec::new();
    for seed in 0..NETWORKS.len() as u64 {
        let (tx, rx) = mpsc::channel();
        let h = thread::spawn(move || {
            let _ = tx.send(run_network(seed));
        });
        let logs = rx.recv_timeout(Duration::from_secs(20));
        assert!(
            logs != Err(mpsc::RecvTimeoutError::Timeout),
            "seed {seed}: still running after 20 s"
        );
        join(h); // re-raises a deadlock report or a panicking machine
        let logs = logs.unwrap_or_default();
        assert!(!logs.is_empty(), "seed {seed}: the world never reported");
        transitions += logs.iter().map(Vec::len).sum::<usize>();
        got.push(network_hash(&logs));
    }
    assert!(
        transitions > 5_000,
        "the generator went quiet: {transitions}"
    );
    let moved: Vec<usize> = (0..got.len()).filter(|&s| got[s] != NETWORKS[s]).collect();
    let table: Vec<String> = got
        .chunks(4)
        .map(|row| {
            let row: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
            format!("    {},", row.join(", "))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "seeds {moved:?} moved; measured:\n{}",
        table.join("\n")
    );
}
