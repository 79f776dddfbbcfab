//! Committed schedules for the discrete-event scheduler.
//!
//! Seeded [`SimActor`] worlds must reproduce committed fingerprints of
//! every virtual timestamp they observe. The rows were recorded on the
//! event core and reproduced by the thread-per-machine executor before
//! that executor was retired. The workloads exercise the full machine
//! contract: alarm-driven wake-ups, channel notification chains across
//! machines, same-instant hand-offs, and retirement.

use std::sync::Arc;
use std::thread::ThreadId;

use simtime::plock::Mutex;
use simtime::{
    fnv1a, in_sched_pass, Actor, MachineStep, Monitor, SimActor, SimChannel, SimClock, SimNs,
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

/// FNV-1a over a receipt log.
fn log_hash(log: &[(u64, SimNs, u64)]) -> u64 {
    let bytes: Vec<u8> = log
        .iter()
        .flat_map(|&(id, t, v)| [id, t, v])
        .flat_map(u64::to_le_bytes)
        .collect();
    fnv1a(&bytes)
}

/// Run one seeded token ring of `world` machines on `clock` and return
/// its fingerprint: the receipt log (canonical token order), the final
/// virtual time, and the machine-transition count.
fn run_ring(clock: &SimClock, world: u64, seed: u64) -> (Vec<(u64, SimNs, u64)>, SimNs, u64) {
    let laps = 4u64;
    let hops = world * laps;
    let main = clock.register("main");
    let log: Log = Arc::new(Monitor::new(clock.clone(), Vec::new()));
    let done = Arc::new(Monitor::new(clock.clone(), 0u64));
    let chans: Vec<SimChannel<u64>> = (0..world).map(|_| SimChannel::new(clock.clone())).collect();
    // Inject the token before any machine exists, so node 0's first poll
    // already sees it — no special casing in the machine.
    chans[0].send(0);
    for id in 0..world {
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
        clock.spawn_machine(id, format!("ring{id}"), Box::new(node));
    }
    done.wait(&main, |d| (*d == world).then_some(()));
    drop(main);
    let mut receipts = log.peek(|v| v.clone());
    receipts.sort_by_key(|&(_, _, token)| token);
    (receipts, clock.now_ns(), clock.events())
}

/// `(world, seed, log_hash(receipts), elapsed, events)` of [`run_ring`].
#[rustfmt::skip]
const RINGS: &[(u64, u64, u64, SimNs, u64)] = &[
    (2, 0, 0x5666829c847040ce, 2043298, 8),
    (2, 1, 0xd7690c3a14814299, 2298716, 8),
    (2, 2, 0xa6950ebc2a3a118b, 2557619, 8),
    (2, 3, 0x026c4c8d8cf39819, 2084644, 8),
    (2, 4, 0xf22aafdb2d8ed15f, 1944814, 8),
    (2, 5, 0x6976fd294452b6ec, 1113389, 8),
    (2, 6, 0x5a8ac49dfda4d133, 2182407, 8),
    (2, 7, 0x1fabf197850e811e, 2239916, 8),
    (2, 8, 0x3ae5412aa455bf2e, 2077876, 8),
    (2, 9, 0x7444c0670af8ba36, 1971763, 8),
    (2, 10, 0xb01f8cbf3b96414f, 1868894, 8),
    (2, 11, 0x688e5aa6f4bd542f, 1967867, 8),
    (2, 12, 0x3b37a2e3972f0986, 1917360, 8),
    (2, 13, 0x0463520c7e23c361, 2380791, 8),
    (2, 14, 0x0c17745184c90a7c, 2616026, 8),
    (2, 15, 0x385c33ea36c63acd, 2712869, 8),
    (3, 0, 0xd4c1e9342a83b1e5, 3196469, 12),
    (3, 1, 0xaac5a673c1d90498, 3917238, 12),
    (3, 2, 0x09fe5feb342765e6, 3280463, 12),
    (3, 3, 0x5113dce9c2853ceb, 3424713, 12),
    (3, 4, 0x38ecfbf9e4cd7c09, 2908694, 12),
    (3, 5, 0x539088ed6ab2ab8f, 1831847, 12),
    (3, 6, 0x356da55b212aaf06, 3559698, 12),
    (3, 7, 0x14b028a6ec93fe6f, 3447697, 12),
    (3, 8, 0x40a0f6451713ddc1, 3216228, 12),
    (3, 9, 0xf2104573ed7d1407, 2658308, 12),
    (3, 10, 0xc7c9bf67a4cb4394, 2518643, 12),
    (3, 11, 0xaf9e9d5c576477b8, 2922400, 12),
    (3, 12, 0xe58a3d82f72fd557, 3381099, 12),
    (3, 13, 0xc964ebb709f86b5a, 3552705, 12),
    (3, 14, 0x009716634957cb0d, 3361814, 12),
    (3, 15, 0xfbcb35834be6ba58, 3405872, 12),
    (5, 0, 0xcfde8b4d721098f7, 4603939, 20),
    (5, 1, 0xf17b026f7b917454, 5817025, 20),
    (5, 2, 0x473e504e9067923e, 5651047, 20),
    (5, 3, 0xc7a4c6945d89dedb, 5040699, 20),
    (5, 4, 0xe5eeb8f1a5f64ed2, 4634302, 20),
    (5, 5, 0x08bbf0a757b8a845, 4032071, 20),
    (5, 6, 0x1d1e87c47251709a, 5562435, 20),
    (5, 7, 0x9099c29d097fc663, 5856462, 20),
    (5, 8, 0xb2ffd4217cd1b596, 4886113, 20),
    (5, 9, 0x02da68516e06b678, 4694636, 20),
    (5, 10, 0x5bee30832314c1c3, 4503222, 20),
    (5, 11, 0x0ae48d78e7a1e0b9, 6034854, 20),
    (5, 12, 0xb988c8d5d5400322, 4652904, 20),
    (5, 13, 0x409f7707c2f674fa, 6422608, 20),
    (5, 14, 0x56075b39f195ac24, 5192881, 20),
    (5, 15, 0xfdeb0647c6d0f1b5, 4705395, 20),
    (8, 0, 0x9c25f57941280d78, 8588629, 32),
    (8, 1, 0xd7ecad77b4679cc0, 9435980, 32),
    (8, 2, 0x27315e846e5bee2d, 8567084, 32),
    (8, 3, 0x10ccf62173471b59, 8141180, 32),
    (8, 4, 0xb497ed88b427d4e1, 7364069, 32),
    (8, 5, 0x1bcda40f1233558f, 7298780, 32),
    (8, 6, 0x0dcd3fea96ef5811, 8683240, 32),
    (8, 7, 0x02bdd25fdd9a15b8, 7897035, 32),
    (8, 8, 0x407f5992fe80d8c4, 7719118, 32),
    (8, 9, 0xf74faf8ce71365c4, 7739727, 32),
    (8, 10, 0x581197c42832f802, 7414238, 32),
    (8, 11, 0x1becf3a006795559, 10295062, 32),
    (8, 12, 0x6e21fed607266425, 7651626, 32),
    (8, 13, 0x768f6646774a46e1, 10183338, 32),
    (8, 14, 0x3de81fedaee586bd, 7711901, 32),
    (8, 15, 0xb1148ebe80b737b5, 7957570, 32),
    (13, 0, 0xef0e796d9b31986c, 12865601, 52),
    (13, 1, 0xb157b9008d1f3224, 14449945, 52),
    (13, 2, 0x2b07a14b19bcddca, 12979514, 52),
    (13, 3, 0xf5ac16dfa07bd1f9, 13581149, 52),
    (13, 4, 0x9991ed003dcaa5f3, 11809130, 52),
    (13, 5, 0x22525404c7ba9298, 12364869, 52),
    (13, 6, 0x7e634fac05901c2d, 13587023, 52),
    (13, 7, 0x236e913a02210ec6, 13548625, 52),
    (13, 8, 0x962a1a7105c0e5b8, 12407137, 52),
    (13, 9, 0x576fc469de9f954e, 12466463, 52),
    (13, 10, 0x01968e3ccf17937c, 11742203, 52),
    (13, 11, 0x1bddc101028e8d5e, 16169826, 52),
    (13, 12, 0x8b181c46b446b38a, 13174375, 52),
    (13, 13, 0x892c7589f8ea0216, 16681693, 52),
    (13, 14, 0x7e6c375030f4c867, 11883849, 52),
    (13, 15, 0xb1a40943424fb8d5, 12941952, 52),
];

#[test]
fn seeded_ring_worlds_reproduce_their_committed_fingerprints() {
    let mut table = String::new();
    let mut moved = 0;
    for &want in RINGS {
        let (world, seed, ..) = want;
        let (log, now, events) = run_ring(&SimClock::new(), world, seed);
        assert_eq!(log.len() as u64, world * 4, "every token was received");
        let got = (world, seed, log_hash(&log), now, events);
        moved += usize::from(got != want);
        let mark = if got == want { "" } else { " // moved" };
        table.push_str(&format!(
            "    ({world}, {seed}, {:#018x}, {now}, {events}),{mark}\n",
            got.2
        ));
    }
    assert_eq!(
        moved, 0,
        "{moved} committed row(s) moved; measured:\n{table}"
    );
}

/// A machine that parks until t=100 and there logs its id and retires.
struct DueAt100 {
    id: u64,
    log: Arc<Mutex<Vec<u64>>>,
}

impl SimActor for DueAt100 {
    fn wait_label(&self) -> &'static str {
        "due at 100"
    }

    fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
        if now < 100 {
            return MachineStep::Pending(Some(100));
        }
        self.log.lock().push(self.id);
        MachineStep::Done
    }
}

/// The order in which one pass steps two machines whose hints both come
/// due at t=100, on a clock with permutation seed `seed`.
fn due_pair_order(seed: Option<u64>) -> Vec<u64> {
    let clock = SimClock::with_permute_seed(seed);
    let main = clock.register("main");
    let log: Arc<Mutex<Vec<u64>>> = Arc::default();
    for id in 0..2 {
        let due = DueAt100 {
            id,
            log: log.clone(),
        };
        clock.spawn_machine(id, format!("due{id}"), Box::new(due));
    }
    drop(main);
    clock.quiesce_machines();
    assert_eq!(clock.now_ns(), 100);
    let order = log.lock().clone();
    order
}

/// Two seeds that step the pair of [`due_pair_order`] in different orders.
const SEED_A: u64 = 1;
const SEED_B: u64 = 2;

#[test]
fn a_permutation_seed_reorders_a_pass_and_moves_no_instant() {
    assert_eq!(due_pair_order(None), [0, 1], "unseeded: machine-id order");
    assert_ne!(
        due_pair_order(Some(SEED_A)),
        due_pair_order(Some(SEED_B)),
        "the two seeds step the pair in different orders"
    );
    // ... and under either of them every committed ring row stays equal.
    let (mut passes, mut multi) = (0, 0);
    for permute in [SEED_A, SEED_B] {
        for &(world, seed, hash, elapsed, events) in RINGS {
            let clock = SimClock::with_permute_seed(Some(permute));
            let (log, now, ev) = run_ring(&clock, world, seed);
            assert_eq!(
                (log_hash(&log), now, ev),
                (hash, elapsed, events),
                "ring world={world} seed={seed} moved under permutation seed {permute}"
            );
            let w = clock.wake_stats();
            passes += w.sched_passes;
            multi += w.multi_machine_passes;
        }
    }
    println!(
        "{multi} of {passes} ring passes ({:.0}%) stepped two or more machines",
        100.0 * multi as f64 / passes.max(1) as f64
    );
    assert!(multi > 0, "the rings give a seed nothing to reorder");
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

fn run_tickers(world: u64) -> (Vec<(u64, SimNs, u64)>, SimNs) {
    let ticks = 5u32;
    let clock = SimClock::new();
    let main = clock.register("main");
    let log: Log = Arc::new(Monitor::new(clock.clone(), Vec::new()));
    let done = Arc::new(Monitor::new(clock.clone(), 0u64));
    for id in 0..world {
        let t = Ticker {
            id,
            period: (id + 1) * 1_000,
            remaining: ticks,
            next: 0,
            log: log.clone(),
            done: done.clone(),
        };
        clock.spawn_machine(id, format!("tick{id}"), Box::new(t));
    }
    done.wait(&main, |d| (*d == world).then_some(()));
    drop(main);
    let mut l = log.peek(|v| v.clone());
    l.sort();
    (l, clock.now_ns())
}

/// `(world, log_hash(ticks))` of [`run_tickers`].
#[rustfmt::skip]
const TICKERS: &[(u64, u64)] = &[
    (2, 0x7e307e9b008c6c74),
    (3, 0x4d747eb7e79fb011),
    (5, 0xe29a3acea7e80c9e),
    (8, 0x6c213ceac0517039),
    (13, 0x36409d11073697d9),
];

#[test]
fn concurrent_tickers_overlap_not_serialize() {
    let mut table = String::new();
    let mut moved = 0;
    for &(world, want) in TICKERS {
        let (log, now) = run_tickers(world);
        // Tickers overlap: the makespan is the slowest ticker's last tick
        // (4 periods after its first at t=0), not the sum of all periods.
        assert_eq!(now, world * 1_000 * 4);
        let got = log_hash(&log);
        moved += usize::from(got != want);
        let mark = if got == want { "" } else { " // moved" };
        table.push_str(&format!("    ({world}, {got:#018x}),{mark}\n"));
    }
    assert_eq!(
        moved, 0,
        "{moved} committed row(s) moved; measured:\n{table}"
    );
}

/// A machine that reports whether it runs inside a scheduler pass.
struct ContextProbe {
    out: Arc<Monitor<Option<bool>>>,
}

impl SimActor for ContextProbe {
    fn wait_label(&self) -> &'static str {
        "probe"
    }

    fn poll(&mut self, _now: SimNs, _actor: &Actor) -> MachineStep {
        self.out.with(|o| *o = Some(in_sched_pass()));
        MachineStep::Done
    }
}

#[test]
fn machines_run_inside_a_pass_and_the_caller_outside_one() {
    let clock = SimClock::new();
    let main = clock.register("main");
    let out = Arc::new(Monitor::new(clock.clone(), None));
    clock.spawn_machine(0, "probe", Box::new(ContextProbe { out: out.clone() }));
    out.wait(&main, |o| *o);
    assert_eq!(out.peek(|o| *o), Some(true));
    assert!(
        !in_sched_pass(),
        "the main thread ran the pass while it parked, and left it"
    );
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
/// the report. The panic fires on whichever thread settles the last
/// round, so the message is captured through a panic hook instead of
/// relying on which thread unwinds with it — and the hook is the
/// process's, hence one caller at a time.
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
    // Another thread may take a moment to observe the poison and unwind.
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
fn deadlock_report_names_the_parked_machine() {
    let report = deadlock_report(|| {
        let clock = SimClock::new();
        let main = clock.register("main");
        let stuck = Stuck {
            polled_by: Arc::default(),
        };
        let _h = clock.spawn_machine(3, "stuck", Box::new(stuck));
        // Never satisfied: with the machine parked hint-less, nothing can
        // advance the clock — a deadlock by construction.
        main.wait_on(&[clock.new_key()], "never", || -> Option<()> { None })
    });
    assert!(
        report.contains("\n  scheduler: 1 parked"),
        "the report lists the scheduler's machines:\n{report}"
    );
    assert!(
        report.contains("stuck"),
        "report names the parked machine:\n{report}"
    );
    assert!(
        report.contains("Blocked(\"never\") [keyed: 1 key(s)]"),
        "report says what the blocked waiter is keyed on:\n{report}"
    );
}

#[test]
fn sixteen_hints_are_stepped_by_the_settling_thread() {
    // Hints are legal arguments that place nothing: 16 tickers under 16
    // of them all complete and retire ...
    let (log, _) = run_tickers(16);
    assert_eq!(log.len(), 16 * 5);
    // ... and 16 machines under 16 of them are no actor and no thread of
    // their own: the only actor's thread, which settles every round, steps
    // them all, and the deadlock report shows them as one block.
    let polled_by: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let main_thread = std::thread::current().id();
    let report = deadlock_report(|| {
        let clock = SimClock::new();
        let main = clock.register("main");
        for i in 0..16u64 {
            let stuck = Stuck {
                polled_by: polled_by.clone(),
            };
            let _h = clock.spawn_machine(i * 7 + 1, format!("stuck{i}"), Box::new(stuck));
        }
        assert_eq!(clock.actor_count(), 1, "main alone: no scheduler actor");
        main.wait_on(&[clock.new_key()], "never", || -> Option<()> { None })
    });
    let polled_by = polled_by.lock().clone();
    assert!(polled_by.len() >= 16, "every machine was stepped");
    assert!(
        polled_by.iter().all(|id| *id == main_thread),
        "by the settling thread, main's: {polled_by:?}"
    );
    assert!(
        report.contains("Blocked(\"never\") [keyed: 1 key(s)]"),
        "{report}"
    );
    let blocks = report.lines().filter(|l| l.starts_with("  scheduler:"));
    assert_eq!(blocks.count(), 1, "{report}");
    assert!(
        report.contains("scheduler: 16 parked + 0 queued machine(s)"),
        "{report}"
    );
}
