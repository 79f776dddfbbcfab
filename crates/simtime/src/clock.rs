//! The virtual clock, actor registration, and wake-by-dependency parking.
//!
//! See the crate docs for the model. Implementation notes:
//!
//! * One `Mutex<ClockState>` guards all bookkeeping, so the advancement
//!   invariant stays easy to audit — but nobody *waits* on a shared
//!   condition variable. Every actor owns a park token (a private
//!   `Condvar` used with the clock mutex), and a wake-up names the token
//!   it is for. A 256-rank world makes tens of thousands of notifies per
//!   run; with one shared condvar each of them woke every blocked actor
//!   to re-run a predicate that was false 97% of the time.
//! * **Signals after the lock.** Nothing but `poison` signals a token
//!   while holding the clock mutex: whoever flags a waiter queues its
//!   token in `ClockState::signals`, and the queue is
//!   signalled once the mutex has been released — when the `ClockGuard`
//!   drops, and before its holder parks (`ClockGuard::park`). Signalled
//!   under the lock, a woken thread that preempts its waker (one CPU)
//!   runs only to block on the mutex the waker still holds: two context
//!   switches and two futex calls that move nothing. A signal that comes
//!   late is harmless — every park loops on its own condition.
//! * **Wake keys.** Cross-actor state is owned by something with a
//!   [`WakeKey`] (every `Monitor`). A blocked actor registers the keys
//!   its predicate reads
//!   ([`Actor::wait_on`]); [`SimClock::notify_key`] and
//!   [`SimClock::schedule_alarm_keyed`] flag only the waiters registered
//!   on that key. Every wake-up names a key, so a wait that misses a key
//!   misses its wake-ups, and the deadlock report names it
//!   (`[keyed: n key(s)]`).
//! * **Progress is the clock's job.** A queue of jobs that come due at
//!   instants (the fabric's deferred arbiter) is not something anybody
//!   waits on: it registers as a [`Progress`] source
//!   ([`SimClock::progress_key`]), and an alarm on its key wakes nobody.
//!   The thread that advances the clock to the alarm's instant runs the
//!   source there instead, before any actor or machine runs at that
//!   instant (`ClockInner::progress`). Meanwhile it counts as runnable,
//!   so the clock cannot move and no deadlock can be declared, and
//!   `progressing` holds every park token back, so nobody resumes to a
//!   half-run batch. The clock lock is released while a source runs:
//!   its jobs notify.
//! * **Settle rounds run the scheduler pass.** No thread serves the
//!   event core's machines. A spawn owes a pass, and so does a notify or
//!   alarm that marks a machine ready or fires the scheduler's timer
//!   (`ClockState::pass_owed`). An owed pass holds the clock the way a
//!   flagged waiter does: `maybe_advance` neither moves `now` nor
//!   declares a deadlock while one is owed. Once `runnable` and
//!   `recheck_pending` are both zero, the thread in
//!   `maybe_advance` runs the pass itself (`SimClock::pass`) — without
//!   the clock lock and counted as runnable, the shape `progress` has —
//!   and then starts the round again. A frozen instant thus settles in
//!   rounds — the actors run until they park, the settling thread makes
//!   the owed pass, repeat until nothing is owed — and reaches the
//!   fixpoint it always did. While any machine is resident
//!   (`ClockState::resident`), alarms drive the clock and a deadlock may
//!   be declared over it, as over a blocked actor.
//! * **Ready machines.** A pass does not step everything: the keys a
//!   machine's last poll read (recorded by `sched`, see there) list the
//!   machine among that key's dependants in `ClockState::deps`, beside
//!   the blocked actors waiting on it. `wake_dependants(key)` looks the
//!   key up once, flags its waiters, marks its machines ready and owes a
//!   pass only if it marked one; a notify costs what the key has
//!   registered, not what every other key has. A registration
//!   stays in place while its machine is being polled, so a notify of a
//!   key the machine already read is never
//!   lost; a key it reads for the first time is registered only after the
//!   pass, and `Registry::reregister` closes that window by comparing
//!   `gen` with its value when the pass took its batch: a machine it
//!   puts back on the ready list owes the next pass.
//! * **A sleep is a wait.** [`Actor::advance_ns`] schedules an alarm on
//!   a key the actor owns and waits on that key until `now` reaches the
//!   alarm's instant, so every parked actor is a keyed waiter and there
//!   is one way to park.
//! * **Blocking is a future.** [`Actor::block_on`] parks through that
//!   same `wait_on` on what its future's poll read (`sched`, "One wait,
//!   two drivers"). A wait names its keys only where they are narrower
//!   than what its predicate reads (its doc says why).
//! * `runnable` counts actors currently executing user code. Whenever it
//!   (together with `recheck_pending`) reaches zero, the decrementing
//!   thread advances the clock to the earliest alarm. *Any* due alarm
//!   drives the advance while somebody is blocked, whatever its key: keys
//!   decide who is woken, never where `now` goes.
//! * `recheck_pending` closes the race between "the clock advanced to
//!   time t, flagging k waiters" and "those k threads have not been
//!   scheduled by the OS yet": it counts exactly the waiters that were
//!   flagged and have not resumed, and until it is zero the clock must
//!   not move again.
//! * A generation counter (`gen`) implements lost-wakeup-free predicate
//!   waiting: a waiter snapshots `gen`, evaluates the predicate *outside*
//!   the clock lock, and only parks if `gen` is unchanged. `gen` is
//!   global — every notify of every key bumps it — because a runnable
//!   waiter is not registered anywhere yet; the keys only matter once it
//!   is parked.

use crate::plock::{Condvar, Mutex, MutexGuard};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::sched::{self, MachineHandle, SimActor, Slab};
use crate::SimNs;

/// Names one source of wake-ups: a piece of cross-actor state (a
/// `Monitor`) whose changes some blocked actor may be waiting for, or a
/// [`Progress`] source the clock runs itself. Obtain fresh keys from
/// [`SimClock::new_key`] and [`SimClock::progress_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WakeKey(u64);

/// Work the clock does itself as it advances ([`SimClock::progress_key`]):
/// a queue of jobs, each due once the clock reaches an instant announced
/// by an alarm on the source's key.
pub trait Progress: Send + Sync {
    /// Run every job due at `now`. Called by the thread that advanced the
    /// clock to `now`, without the clock lock and before any actor or
    /// machine runs at `now`. May notify and schedule alarms; must not
    /// block or advance time.
    fn run(&self, now: SimNs);
}

impl WakeKey {
    /// The scheduler's own key: its timer alarms and the notify of a
    /// spawned machine carry it, and either owes a pass.
    pub(crate) const SCHED: WakeKey = WakeKey(1);
    /// Fresh keys start after the fixed ones.
    const FIRST_FRESH: u64 = 2;
}

/// Hashes a [`WakeKey`]'s `u64` with one multiplication: keys come from a
/// counter, so the product spreads consecutive keys over the table, and a
/// fixed hasher keeps every run of a world the same.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// What is registered on one key: the parked machines whose last poll
/// read it and the blocked actors waiting on it. Order within a list is
/// registration order, which nothing observes (`ClockState::deps`).
#[derive(Default)]
struct Deps {
    machines: Vec<MachineId>,
    waiters: Vec<u64>,
}

impl Deps {
    fn is_empty(&self) -> bool {
        self.machines.is_empty() && self.waiters.is_empty()
    }
}

/// Remove one `x` from `list`, if it is there; order is not kept.
fn swap_out<T: PartialEq>(list: &mut Vec<T>, x: &T) {
    if let Some(i) = list.iter().position(|y| y == x) {
        list.swap_remove(i);
    }
}

/// The machines a notify or alarm has marked since the last pass took its
/// batch, in marking order, and a flag per machine id saying whether it
/// is in the list. The pass sorts its batch, so the order is unobserved.
#[derive(Default)]
struct ReadyMarks {
    list: Vec<MachineId>,
    /// Indexed by [`MachineId`] (the slab's dense ids).
    marked: Vec<bool>,
}

impl ReadyMarks {
    /// Mark `m` ready; false if it is marked already.
    fn mark(&mut self, m: MachineId) -> bool {
        let i = m as usize;
        if self.marked.len() <= i {
            self.marked.resize(i + 1, false);
        }
        if std::mem::replace(&mut self.marked[i], true) {
            return false;
        }
        self.list.push(m);
        true
    }

    /// Take `m` off the list (it retired).
    fn unmark(&mut self, m: MachineId) {
        if self.marked.get_mut(m as usize).is_some_and(std::mem::take) {
            swap_out(&mut self.list, &m);
        }
    }

    /// Move every marked machine into `batch`, clearing the marks.
    fn drain_into(&mut self, batch: &mut Vec<MachineId>) {
        for &m in &self.list {
            self.marked[m as usize] = false;
        }
        batch.append(&mut self.list);
    }
}

/// What an actor is doing right now; shown in deadlock diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActorStatus {
    /// Executing user code (counts towards `runnable`).
    Running,
    /// Blocked in [`Actor::wait_on`] on the described predicate
    /// (`"sleep"`: in [`Actor::advance`]).
    Blocked(&'static str),
}

/// Wake accounting of one wait label ([`WakeStats::labels`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelWakes {
    /// Times a waiter with this label parked.
    pub parked: u64,
    /// Times a parked waiter was flagged and resumed to re-evaluate.
    pub wakeups: u64,
    /// Wake-ups after which the predicate held.
    pub successes: u64,
}

/// Always-on wake accounting of one clock ([`SimClock::wake_stats`]).
/// With several threads driving a clock, most counts depend on OS
/// scheduling (how many notifies one resume absorbs), so they are
/// diagnostics, never part of a deterministic artifact. A wait that
/// exactly one notify satisfies is a model count instead: `minimpi`'s
/// `barrier` label parks, wakes and succeeds once per rank per barrier
/// (the rounds run as a task), whatever the OS does. A clock that one
/// thread drives alone — every rank a task (`minimpi::run_world_tasks`)
/// — counts the same in every field on every run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WakeStats {
    /// [`SimClock::notify_key`] calls, including alarms scheduled for an
    /// instant already reached.
    pub notifies: u64,
    /// Alarms that came due on a clock advance.
    pub alarms_fired: u64,
    /// Times the clock moved.
    pub advances: u64,
    /// Scheduler passes run, each by the thread that settled a round.
    pub sched_passes: u64,
    /// Machine steps (`poll`s) taken by the passes.
    pub machine_polls: u64,
    /// Passes that stepped two or more machines: those whose order a
    /// permutation seed ([`SimClock::with_permute_seed`]) can change.
    pub multi_machine_passes: u64,
    /// Ready marks: times a notify or alarm put a parked machine on the
    /// ready list.
    pub machine_readies: u64,
    /// Per wait label, in label order.
    pub labels: BTreeMap<&'static str, LabelWakes>,
}

struct ActorInfo {
    label: String,
    status: ActorStatus,
    /// The actor's park token (shared with its [`Actor`] handle).
    token: Arc<Condvar>,
    /// Set when a notify or alarm this blocked actor depends on happened;
    /// cleared when it resumes. Counted in `recheck_pending` while set.
    flagged: bool,
}

/// A machine's index in the slab (`sched::Slab::resident`).
pub(crate) type MachineId = u32;

#[derive(Default)]
struct ClockState {
    now: SimNs,
    /// Bumped by every notify and alarm firing, whatever the key.
    gen: u64,
    /// Actors currently executing user code.
    runnable: usize,
    /// Blocked waiters that have been flagged but have not yet been
    /// scheduled to re-evaluate their predicates. While nonzero the clock
    /// must not advance and a deadlock must not be declared.
    recheck_pending: usize,
    /// A scheduler pass is owed: a machine was spawned or readied, or the
    /// scheduler's timer fired, since the last pass took its batch. Holds
    /// the clock like `recheck_pending` until the settling thread runs it.
    pass_owed: bool,
    /// Machines spawned and not yet retired. While any is, alarms drive
    /// the clock and a deadlock may be declared, as for a blocked actor.
    resident: usize,
    /// Thread-less wake-up targets (e.g. "a message becomes visible at
    /// t"), each with the key whose dependants it wakes.
    alarms: BinaryHeap<Reverse<(SimNs, WakeKey)>>,
    /// The [`Progress`] sources, by key: an alarm on one runs it.
    progress: BTreeMap<WakeKey, Weak<dyn Progress>>,
    /// A progress source is running: signals stay queued, and no parked
    /// thread resumes, until it is done.
    progressing: bool,
    /// Every key something is registered on, with its dependants: the
    /// blocked actors that registered it and the parked machines whose
    /// last fruitless poll read it. A key with neither has no entry.
    // checker-allow(determinism): every access is by key; iteration only
    // counts (`render_actors`) or retains (`forget_waiter`). Order within
    // a key's lists decides only the order ready marks are set in, which
    // the pass sorts away, and the order park tokens are signalled in,
    // which is host scheduling. The hasher is fixed, not random.
    deps: std::collections::HashMap<WakeKey, Deps, BuildHasherDefault<KeyHasher>>,
    /// The machines that a notify or alarm has marked since the last pass
    /// took its batch ([`SimClock::take_ready`]).
    ready: ReadyMarks,
    next_actor: u64,
    /// Registered actors by id. A `BTreeMap` so that any iteration (the
    /// deadlock report) is in deterministic id order by construction.
    actors: BTreeMap<u64, ActorInfo>,
    /// Set when a registered actor panics or a deadlock is detected, so
    /// every other actor unblocks and fails fast instead of hanging.
    poisoned: bool,
    /// Park tokens owed a signal: queued by whoever flags a waiter,
    /// signalled by [`ClockGuard`] once the lock is released.
    signals: Vec<Arc<Condvar>>,
    stats: WakeStats,
}

impl ClockState {
    /// Bump `gen`, flag the blocked waiters registered on `key` (each is
    /// owed a signal), and mark the parked machines registered on it
    /// ready. A ready mark owes a pass, and so does the scheduler's own
    /// key.
    fn wake_dependants(&mut self, key: WakeKey) {
        self.gen += 1;
        self.pass_owed |= key == WakeKey::SCHED;
        let Some(deps) = self.deps.get(&key) else {
            return;
        };
        for id in &deps.waiters {
            // A deadlock panic can unwind an actor out of the map while
            // its registrations are still in `deps`.
            let Some(a) = self.actors.get_mut(id) else {
                continue;
            };
            if !a.flagged {
                a.flagged = true;
                self.recheck_pending += 1;
                self.signals.push(a.token.clone());
            }
        }
        for &m in &deps.machines {
            // Marked already: the pass it owes has not taken its batch.
            if self.ready.mark(m) {
                self.stats.machine_readies += 1;
                self.pass_owed = true;
            }
        }
    }

    /// Register blocked actor `id` on each of `keys`.
    fn add_waiter(&mut self, keys: &[WakeKey], id: u64) {
        for &k in keys {
            let waiters = &mut self.deps.entry(k).or_default().waiters;
            if !waiters.contains(&id) {
                waiters.push(id);
            }
        }
    }

    /// Undo [`ClockState::add_waiter`]: actor `id` resumed.
    fn remove_waiter(&mut self, keys: &[WakeKey], id: u64) {
        for k in keys {
            self.unregister(*k, |d| swap_out(&mut d.waiters, &id));
        }
    }

    /// Drop every registration of actor `id`, whatever its keys.
    fn forget_waiter(&mut self, id: u64) {
        self.deps.retain(|_, d| {
            d.waiters.retain(|&w| w != id);
            !d.is_empty()
        });
    }

    /// Take something off `key`'s dependants, and the key's entry with
    /// it once nothing is left there.
    fn unregister(&mut self, key: WakeKey, take: impl FnOnce(&mut Deps)) {
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.deps.entry(key) {
            take(e.get_mut());
            if e.get().is_empty() {
                e.remove();
            }
        }
    }

    /// Poison the clock and unpark every waiter so each fails
    /// fast with the poison panic. Signals under the lock: the run is
    /// over, and the caller may be about to panic.
    fn poison(&mut self) {
        self.poisoned = true;
        self.gen += 1;
        for a in self.actors.values() {
            a.token.notify_one();
        }
    }

    fn label_stats(&mut self, label: &'static str) -> &mut LabelWakes {
        self.stats.labels.entry(label).or_default()
    }
}

/// Park tokens taken off `ClockState::signals`; signals them when dropped.
#[derive(Default)]
struct Signals(Vec<Arc<Condvar>>);

impl Drop for Signals {
    fn drop(&mut self) {
        for token in &self.0 {
            token.notify_one();
        }
    }
}

/// The clock lock as every site holds it ([`ClockInner::lock`]): releasing
/// it signals the park tokens queued under it, after the mutex is free
/// (module notes, "Signals after the lock").
struct ClockGuard<'a> {
    // Declaration order is drop order: the mutex is released, and then the
    // tokens `Drop` moved into `owed` are signalled.
    st: MutexGuard<'a, ClockState>,
    owed: Signals,
    inner: &'a ClockInner,
}

impl Drop for ClockGuard<'_> {
    fn drop(&mut self) {
        // While a progress source runs, the thread that advanced the clock
        // signals for it once the source is done.
        if !self.st.progressing {
            self.owed.0 = std::mem::take(&mut self.st.signals);
        }
    }
}

impl std::ops::Deref for ClockGuard<'_> {
    type Target = ClockState;
    fn deref(&self) -> &ClockState {
        &self.st
    }
}

impl std::ops::DerefMut for ClockGuard<'_> {
    fn deref_mut(&mut self) -> &mut ClockState {
        &mut self.st
    }
}

impl ClockGuard<'_> {
    /// Park the calling thread on `token` until `resumed` holds or the
    /// clock is poisoned. The one place a thread sleeps on the clock
    /// mutex, so that none sleeps on wake-ups it owes: with tokens queued
    /// the lock is released (which signals them) and taken again first —
    /// whoever ran in between may already have made `resumed` true, which
    /// is why it is looked at before the first wait, as after every one.
    /// Called as `ClockGuard::park(st, ..)`: the guard is handed over like
    /// a condvar's, which is also how `clmpi-check` tells this from a
    /// thread parking with a lock held. A spurious wake-up while a
    /// progress source runs parks again, whatever `resumed` says.
    fn park(mut self, token: &Condvar, resumed: impl Fn(&ClockState) -> bool) -> Self {
        // An actor whose own advance flagged it is awake already.
        self.st
            .signals
            .retain(|t| !std::ptr::eq(Arc::as_ptr(t), token));
        if !self.st.signals.is_empty() {
            let inner = self.inner;
            drop(self);
            self = inner.lock();
        }
        while !self.st.poisoned && (self.st.progressing || !resumed(&self.st)) {
            token.wait(&mut self.st);
        }
        self
    }
}

struct ClockInner {
    state: Mutex<ClockState>,
    /// Lock-free mirror of `ClockState::now`, stored (Release) under the
    /// clock lock whenever the clock moves and loaded (Acquire) by
    /// [`SimClock::now_ns`]. A reader that is a runnable actor cannot see
    /// it change: the clock only moves when nobody is runnable.
    now: AtomicU64,
    /// Next fresh [`WakeKey`].
    next_key: AtomicU64,
    /// The seed a pass shuffles its batch with; `None` steps it in
    /// machine-id order ([`SimClock::with_permute_seed`]).
    permute: Option<u64>,
    /// The machines ([`SimClock::spawn_machine`]).
    slab: Mutex<Slab>,
    /// Machine state transitions observed by the scheduler cores, for the
    /// simulator self-throughput metric (events/sec). Deterministic for a
    /// fixed scenario: only actual transitions count, never idle re-polls.
    events: AtomicU64,
    /// [`WakeStats::machine_polls`]: the scheduler adds to it once per
    /// pass, outside the clock lock.
    machine_polls: AtomicU64,
    /// [`WakeStats::multi_machine_passes`], counted beside `machine_polls`.
    multi_machine_passes: AtomicU64,
}

impl ClockInner {
    fn lock(&self) -> ClockGuard<'_> {
        ClockGuard {
            st: self.state.lock(),
            owed: Signals::default(),
            inner: self,
        }
    }

    /// Run the progress sources `due` at `now`, the instant the clock has
    /// just reached, before anybody else runs there (module notes).
    fn progress<'a>(
        &'a self,
        mut st: ClockGuard<'a>,
        now: SimNs,
        due: &[Weak<dyn Progress>],
    ) -> ClockGuard<'a> {
        st.runnable += 1;
        st.progressing = true;
        drop(st);
        for source in due.iter().filter_map(Weak::upgrade) {
            source.run(now);
        }
        let mut st = self.lock();
        st.runnable -= 1;
        st.progressing = false;
        st
    }

    fn render_actors(&self, st: &ClockState) -> String {
        let mut lines: Vec<String> = st
            .actors
            .iter()
            .map(|(id, a)| {
                let mut line = format!("  {:<24} {:?}", a.label, a.status);
                if matches!(a.status, ActorStatus::Blocked(_)) {
                    // A wait with a missing key names itself here: it is
                    // the keyed waiter nothing could reach.
                    let keys = st.deps.values().filter(|d| d.waiters.contains(id)).count();
                    line.push_str(&format!(" [keyed: {keys} key(s)]"));
                }
                line
            })
            .collect();
        lines.sort();
        // The slab's view: each resident machine, how many keys it is
        // parked on and the earliest timer it has armed — a lost wake-up
        // must name the machine and what it waited on. `try_lock` because
        // this runs under the clock lock (the lock order is slab → clock);
        // no pass runs at deadlock time, so contention means a bug
        // elsewhere and is reported rather than deadlocking the reporter.
        match self.slab.try_lock() {
            Some(slab) => lines.extend(slab.report()),
            None => lines.push("  scheduler: <locked — mid-pass?>".into()),
        }
        lines.join("\n")
    }
}

/// A shared virtual clock. Cheap to clone (it is an `Arc` internally).
#[derive(Clone)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClock {
    /// Create a new clock at virtual time zero with no registered actors.
    /// A pass steps its machines in id order unless
    /// `SIM_PERMUTE_SEED` holds a seed ([`SimClock::with_permute_seed`]).
    pub fn new() -> Self {
        Self::with_permute_seed(sched::permute_seed_from_env())
    }

    /// Create a new clock whose passes step their machines in an order
    /// shuffled with `seed` (`None`: machine-id order, what
    /// [`SimClock::new`] does unless `SIM_PERMUTE_SEED` says otherwise).
    /// Machines step at a frozen instant and talk only through
    /// clock-notifying state, so no order may move a virtual instant: a
    /// seed that moves one has found an order dependence.
    pub fn with_permute_seed(permute: Option<u64>) -> Self {
        SimClock {
            inner: Arc::new(ClockInner {
                state: Mutex::default(),
                now: AtomicU64::new(0),
                next_key: AtomicU64::new(WakeKey::FIRST_FRESH),
                permute,
                slab: Mutex::default(),
                events: AtomicU64::new(0),
                machine_polls: AtomicU64::new(0),
                multi_machine_passes: AtomicU64::new(0),
            }),
        }
    }

    /// The seed this clock shuffles each pass's batch with.
    pub(crate) fn permute_seed(&self) -> Option<u64> {
        self.inner.permute
    }

    /// Add `n` to the machine-transition counter (scheduler cores only).
    pub fn count_events(&self, n: u64) {
        self.inner.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Machine state transitions observed so far (simulator
    /// self-throughput metric; deterministic for a fixed scenario).
    pub fn events(&self) -> u64 {
        self.inner.events.load(Ordering::Relaxed)
    }

    /// The machines (a pass locks them).
    pub(crate) fn slab(&self) -> &Mutex<Slab> {
        &self.inner.slab
    }

    /// Panic if the clock is poisoned; nothing else is left to wait for.
    ///
    /// Machines retire inside passes, and a pass is run by the thread that
    /// settles a round — the last actor's drop included: it runs every
    /// pass still owed, and drives the clock through the machines' timers
    /// (trailing device reservations, a queue's `Shutdown` transition, an
    /// engine's trailing drain) until none is resident. So once every
    /// actor has dropped, [`SimClock::events`] and [`SimClock::now_ns`]
    /// are final; a reader that joined the threads that dropped them
    /// calls this to have a panic in that trailing drain (the clock is
    /// poisoned) reach it instead of a half-drained total.
    pub fn quiesce_machines(&self) {
        SimClock::check_poison(&self.inner.lock());
    }

    /// Hand a resumable machine to this clock's event core.
    ///
    /// The caller is a running clock actor or a machine inside its poll:
    /// either way the clock cannot move meanwhile, and the spawn owes a
    /// pass, which polls the machine first at the caller's current virtual
    /// instant. A machine spawned inside a pass (a rank task building its
    /// queues and engine) waits on this thread until the pass ends, since
    /// the pass holds the slab's lock, and is adopted by the pass it owes.
    ///
    /// `_hint` is unused: it chose among scheduler threads when a clock
    /// had several, and stays only because `benchmark/` compiles against
    /// this signature (ROADMAP, leftovers).
    pub fn spawn_machine(
        &self,
        _hint: u64,
        label: impl Into<String>,
        body: Box<dyn SimActor>,
    ) -> MachineHandle {
        let label = label.into();
        if sched::in_sched_pass() {
            sched::spawn_from_pass(label, body);
        } else {
            self.inner.slab.lock().enqueue(label, body);
        }
        let mut st = self.inner.lock();
        st.resident += 1;
        st.stats.notifies += 1;
        st.wake_dependants(WakeKey::SCHED);
        MachineHandle
    }

    /// Run a future as a machine labelled `label`: the machine driver
    /// (`sched`, "One wait, two drivers"). `task` builds it from a handle
    /// registered as no actor, like the one [`SimActor::poll`] gets: for
    /// non-blocking calls, never for a park.
    pub fn spawn_task<F>(
        &self,
        label: impl Into<String>,
        wait_label: &'static str,
        task: impl FnOnce(Actor) -> F,
    ) where
        F: Future<Output = ()> + Send + 'static,
    {
        let fut = Box::pin(task(Actor::for_pass(self)));
        self.spawn_machine(0, label, Box::new(sched::Task { wait_label, fut }));
    }

    /// A future ready once the clock reaches `t`, noting `t` while
    /// pending ([`crate::note_wake_at`]): a sleep needs no keyed alarm.
    pub fn sleep_until(&self, t: SimNs) -> impl Future<Output = ()> + '_ {
        sched::until(move || {
            if self.now_ns() >= t {
                return Some(());
            }
            sched::note_wake_at(t);
            None
        })
    }

    /// Register a new actor. The returned handle **must** live on exactly
    /// one thread at a time.
    ///
    /// **Registration ordering rule:** an actor must be registered while at
    /// least one already-registered actor (or the registering thread, if it
    /// holds an actor) is still runnable — in practice: register *all*
    /// top-level actors before spawning any of their threads, and have
    /// running actors register their children before starting them.
    /// Otherwise the clock may advance before the newcomer is accounted
    /// for.
    pub fn register(&self, label: impl Into<String>) -> Actor {
        let label = label.into();
        let token = Arc::new(Condvar::new());
        let mut st = self.inner.lock();
        let id = st.next_actor;
        st.next_actor += 1;
        st.runnable += 1;
        st.actors.insert(
            id,
            ActorInfo {
                label,
                status: ActorStatus::Running,
                token: token.clone(),
                flagged: false,
            },
        );
        Actor {
            clock: self.clone(),
            id,
            token,
            alarm: self.new_key(),
        }
    }

    /// Current virtual time in nanoseconds (lock-free).
    pub fn now_ns(&self) -> SimNs {
        self.inner.now.load(Ordering::Acquire)
    }

    /// A fresh wake key, distinct from every other key of this clock.
    pub fn new_key(&self) -> WakeKey {
        // Relaxed: the counter publishes nothing but its own value.
        WakeKey(self.inner.next_key.fetch_add(1, Ordering::Relaxed))
    }

    /// A fresh key whose alarms run `source` instead of waking anybody:
    /// the thread that advances the clock to an instant where one is due
    /// runs [`Progress::run`] there, before any actor or machine runs at
    /// that instant. Schedule those alarms strictly in the future; a
    /// source whose owner was dropped is skipped.
    pub fn progress_key(&self, source: Weak<dyn Progress>) -> WakeKey {
        let key = self.new_key();
        self.inner.lock().progress.insert(key, source);
        key
    }

    /// Announce that the state `key` names changed: the blocked actors
    /// registered on `key` re-evaluate their predicates, and the parked
    /// machines that read it are stepped. Called automatically by
    /// [`crate::sync`].
    pub fn notify_key(&self, key: WakeKey) {
        let mut st = self.inner.lock();
        st.stats.notifies += 1;
        st.wake_dependants(key);
    }

    /// Schedule a thread-less wake-up: at virtual time `at`, the
    /// dependants of `key` are woken as by [`SimClock::notify_key`]. Use
    /// this when an *event in the future* (a message arrival, a node's
    /// kill) may unblock a waiter, but no thread will be sleeping until
    /// then. Any alarm drives the clock to `at` while somebody is
    /// blocked, whatever its key. If `at` is not in the future this is
    /// just [`SimClock::notify_key`].
    pub fn schedule_alarm_keyed(&self, at: SimNs, key: WakeKey) {
        let mut st = self.inner.lock();
        if at <= st.now {
            st.stats.notifies += 1;
            st.wake_dependants(key);
        } else {
            st.alarms.push(Reverse((at, key)));
        }
    }

    /// Snapshot of the wake accounting since the clock was created.
    pub fn wake_stats(&self) -> WakeStats {
        let mut stats = self.inner.lock().stats.clone();
        stats.machine_polls = self.inner.machine_polls.load(Ordering::Relaxed);
        stats.multi_machine_passes = self.inner.multi_machine_passes.load(Ordering::Relaxed);
        stats
    }

    /// Start a scheduler pass: move the machines marked ready since the
    /// last one into `batch`, which pays what was owed, and return the
    /// registry generation the pass starts from.
    pub(crate) fn take_ready(&self, batch: &mut Vec<MachineId>) -> u64 {
        let mut st = self.inner.lock();
        st.stats.sched_passes += 1;
        st.pass_owed = false;
        st.ready.drain_into(batch);
        st.gen
    }

    /// End a pass that took `polls` machine steps.
    pub(crate) fn count_polls(&self, polls: u64) {
        self.inner.machine_polls.fetch_add(polls, Ordering::Relaxed);
        if polls >= 2 {
            self.inner
                .multi_machine_passes
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lock the machine registry, at the end of a pass whose batch was
    /// taken at generation `gen`.
    pub(crate) fn registry(&self, gen: u64) -> Registry<'_> {
        let st = self.inner.lock();
        Registry {
            moved: st.gen != gen,
            st,
        }
    }

    /// Number of currently registered actors (diagnostics / tests).
    pub fn actor_count(&self) -> usize {
        self.inner.lock().actors.len()
    }

    /// True once the clock has been poisoned by a panicking actor or a
    /// detected deadlock.
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Advance the clock if every actor is quiescent, running the owed
    /// scheduler pass first. Must be called by any path that decrements
    /// `runnable` (possibly) to zero. The lock is released and taken again
    /// while a pass or a progress source runs.
    fn maybe_advance<'a>(&'a self, mut st: ClockGuard<'a>) -> ClockGuard<'a> {
        // Loop: an alarm may fire at an instant where none of its
        // dependants is blocked (e.g. a message arrives while its receiver
        // is off sleeping past it); the clock must then keep advancing to
        // the next alarm, because no other thread will re-drive it. Each
        // round starts at the owed pass: the alarms fired below may have
        // readied nobody but machines.
        loop {
            if st.poisoned || st.runnable > 0 || st.recheck_pending > 0 {
                return st;
            }
            if st.pass_owed {
                st = self.pass(st);
                continue;
            }
            // Nobody runs, so every registered actor is blocked. Alarms
            // exist to re-check blocked waiters and parked machines; with
            // neither they must not *drive* the advance — a stale alarm
            // (e.g. a recv timeout satisfied early) would otherwise drag
            // the clock forward after the run's real work ended.
            if st.actors.is_empty() && st.resident == 0 {
                return st; // all actors exited; nothing to do
            }
            let Some(&Reverse((target, _))) = st.alarms.peek() else {
                let report = self.inner.render_actors(&st);
                st.poison();
                panic!(
                    "simtime: deadlock — all {} blocked actor(s) and {} machine(s) wait \
                     on predicates and no alarm can advance the clock past t={}:\n{report}",
                    st.actors.len(),
                    st.resident,
                    st.now
                );
            };
            debug_assert!(target >= st.now, "clock would move backwards");
            st.now = target;
            self.inner.now.store(target, Ordering::Release);
            st.stats.advances += 1;
            // Alarms due at one instant pop grouped by key: wake a key's
            // dependants once, however many consecutive alarms share it,
            // or run its progress source once, after the last pop.
            let mut last_key = None;
            let mut due = Vec::new();
            while let Some(&Reverse((t, key))) = st.alarms.peek() {
                if t > target {
                    break;
                }
                st.alarms.pop();
                st.stats.alarms_fired += 1;
                if last_key.replace(key) == Some(key) {
                    continue;
                }
                match st.progress.get(&key) {
                    Some(source) => due.push(source.clone()),
                    None => st.wake_dependants(key),
                }
            }
            if !due.is_empty() {
                st = self.inner.progress(st, target, &due);
            }
            // Round again: woken threads drive further progress, a pass the
            // alarms owed runs, and if only alarms fired and none of their
            // dependants was parked the clock advances further.
        }
    }

    /// Run the owed scheduler pass on the calling thread, which settled
    /// the round (module notes, "Settle rounds"). It counts as runnable
    /// meanwhile, so the clock cannot move and no deadlock can be declared.
    fn pass<'a>(&'a self, mut st: ClockGuard<'a>) -> ClockGuard<'a> {
        st.runnable += 1;
        drop(st);
        sched::run_pass(self);
        let mut st = self.inner.lock();
        st.runnable -= 1;
        st
    }

    fn check_poison(st: &ClockState) {
        if st.poisoned {
            panic!("simtime: clock poisoned by a panicking actor or detected deadlock");
        }
    }
}

/// The clock lock, held by a pass to bring the machines' entries in
/// `ClockState::deps` up to date with what its machines read.
pub(crate) struct Registry<'a> {
    st: ClockGuard<'a>,
    /// `gen` moved since the pass took its batch: a notify may have
    /// landed between a machine's poll and this registration.
    moved: bool,
}

impl Registry<'_> {
    /// Machine `m` is now parked on `new` instead of `old` (both sorted,
    /// duplicate-free): it joins the dependants of each key only `new`
    /// has and leaves those of each key only `old` has. A key read for
    /// the first time was registered
    /// nowhere while its notify may already have happened, so if `gen`
    /// moved during the pass the machine goes back on the ready list —
    /// "something changed while we evaluated; recheck", per machine.
    pub(crate) fn reregister(&mut self, m: MachineId, old: &[WakeKey], new: &[WakeKey]) {
        let st = &mut *self.st;
        let mut added = false;
        for &k in new {
            if old.binary_search(&k).is_err() {
                st.deps.entry(k).or_default().machines.push(m);
                added = true;
            }
        }
        if added && self.moved && st.ready.mark(m) {
            st.stats.machine_readies += 1;
            st.pass_owed = true;
        }
        for &k in old {
            if new.binary_search(&k).is_err() {
                st.unregister(k, |d| swap_out(&mut d.machines, &m));
            }
        }
    }

    /// Machine `m`, parked on `keys`, finished.
    pub(crate) fn retire(&mut self, m: MachineId, keys: &[WakeKey]) {
        self.reregister(m, keys, &[]);
        self.st.ready.unmark(m);
        self.st.resident -= 1;
    }
}

/// A participant in virtual time. Obtain via [`SimClock::register`].
///
/// Dropping an `Actor` deregisters it; if the owning thread is panicking,
/// the clock is poisoned so every other actor fails fast.
pub struct Actor {
    clock: SimClock,
    id: u64,
    /// Where this actor parks: its own condition variable on the clock
    /// mutex, so a wake-up reaches it alone.
    token: Arc<Condvar>,
    /// The key of this actor's sleeps: nobody else waits on it or
    /// schedules alarms on it.
    alarm: WakeKey,
}

impl Actor {
    /// The handle a scheduler pass gives its machines
    /// ([`SimActor::poll`]), and a task its future
    /// ([`SimClock::spawn_task`]): registered as no actor, so it neither counts
    /// for the clock nor drives it when dropped — except that, dropped by
    /// a pass a machine's panic unwinds, it poisons the clock. A machine
    /// that polls futures of its own (clMPI's engine) gives them one:
    /// for non-blocking calls, never for a park.
    pub fn for_pass(clock: &SimClock) -> Actor {
        Actor {
            clock: clock.clone(),
            id: u64::MAX,
            token: Arc::default(),
            // A machine never sleeps on its pass's handle.
            alarm: WakeKey(0),
        }
    }

    /// The clock this actor is registered with.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> SimNs {
        self.clock.now_ns()
    }

    /// Spend `d` of virtual time (simulated computation or I/O).
    pub fn advance(&self, d: Duration) {
        self.advance_ns(crate::dur_ns(d));
    }

    /// Spend `ns` virtual nanoseconds: an alarm on the actor's own key at
    /// `now + ns`, and a wait on that key (label `"sleep"`) until `now`
    /// gets there.
    ///
    /// It keeps its explicit key, not [`Actor::block_on`]: its predicate
    /// reads `now` alone, and its own alarm is the key `block_on` would add.
    ///
    /// # Panics
    ///
    /// If `now + ns` is past [`SimNs::MAX`]: no instant can end the sleep.
    pub fn advance_ns(&self, ns: SimNs) {
        if ns == 0 {
            return;
        }
        let now = self.now_ns();
        let Some(wake) = now.checked_add(ns) else {
            panic!("simtime: a sleep of {ns} ns from t={now} would end past SimNs::MAX");
        };
        self.clock.schedule_alarm_keyed(wake, self.alarm);
        self.wait_on(&[self.alarm], "sleep", || {
            (self.now_ns() >= wake).then_some(())
        });
    }

    /// Advance to absolute virtual time `t` (no-op if already past it).
    pub fn advance_until(&self, t: SimNs) {
        let now = self.now_ns();
        if t > now {
            self.advance_ns(t - now);
        }
    }

    /// Run `fut` to completion on this thread: the thread driver (`sched`,
    /// "One wait, two drivers"). Between polls the thread parks through
    /// [`Actor::wait_on`], under `label`, on what the last poll read plus
    /// its own alarm at the instant the poll noted; a poll that reads a
    /// key outside the parked-on set starts the wait over on the new set.
    /// A poll that reads nothing and notes no instant panics in `wait_on`.
    pub fn block_on<F: Future>(&self, label: &'static str, fut: F) -> F::Output {
        debug_assert!(!sched::in_sched_pass(), "block_on({label:?}) inside a pass");
        let mut fut = std::pin::pin!(fut);
        let mut alarmed = None;
        let mut poll = |keys: &mut Vec<WakeKey>| {
            let t = match sched::poll_recording(fut.as_mut(), keys) {
                Ok(v) => return Some(v),
                Err(wake) => wake?,
            };
            if alarmed.replace(t) != Some(t) {
                self.clock.schedule_alarm_keyed(t, self.alarm);
            }
            if let Err(i) = keys.binary_search(&self.alarm) {
                keys.insert(i, self.alarm);
            }
            None
        };
        let (mut keys, mut read) = (Vec::new(), Vec::new());
        if let Some(v) = poll(&mut keys) {
            return v;
        }
        loop {
            let out = self.wait_on(&keys, label, || match poll(&mut read) {
                Some(v) => Some(Some(v)),
                None if read.iter().all(|k| keys.binary_search(k).is_ok()) => None,
                None => Some(None), // read a key outside the parked-on set
            });
            match out {
                Some(v) => return v,
                None => std::mem::swap(&mut keys, &mut read),
            }
        }
    }

    /// Block until `pred` returns `Some`, re-evaluating whenever one of
    /// `keys` is notified or an alarm carrying one of them fires. `keys`
    /// must name **everything**
    /// the predicate reads that another actor can change — each monitor
    /// it looks into, and the key of each alarm standing for an instant
    /// it compares `now` against; a change behind a missing key is a
    /// wake-up this waiter never gets. `label` is shown in deadlock
    /// diagnostics and names the wait in [`SimClock::wake_stats`].
    ///
    /// The predicate is evaluated **without** the clock lock held, so it
    /// may freely take other locks.
    pub fn wait_on<T>(
        &self,
        keys: &[WakeKey],
        label: &'static str,
        mut pred: impl FnMut() -> Option<T>,
    ) -> T {
        // A pass's handle is registered as no actor, and the pass holds
        // the slab: parking it would wedge every machine of the clock.
        assert!(
            !sched::in_sched_pass(),
            "wait_on({label:?}) inside a pass: a machine or task must not block"
        );
        assert!(!keys.is_empty(), "a wait with no keys can never be woken");
        let inner = &self.clock.inner;
        // Whether the evaluation about to run follows a wake-up that has
        // not yet been accounted as futile (re-parked) or successful.
        let mut woken = false;
        loop {
            let gen = {
                let st = inner.lock();
                SimClock::check_poison(&st);
                st.gen
            };
            if let Some(v) = pred() {
                if woken {
                    inner.lock().label_stats(label).successes += 1;
                }
                return v;
            }
            let mut st = inner.lock();
            SimClock::check_poison(&st);
            if st.gen != gen {
                continue; // something changed while we evaluated; recheck
            }
            st.runnable -= 1;
            st.add_waiter(keys, self.id);
            if let Some(a) = st.actors.get_mut(&self.id) {
                a.status = ActorStatus::Blocked(label);
            }
            st.label_stats(label).parked += 1;
            let st = self.clock.maybe_advance(st);
            let resumed = |st: &ClockState| st.actors.get(&self.id).is_some_and(|a| a.flagged);
            let mut st = ClockGuard::park(st, &self.token, resumed);
            st.remove_waiter(keys, self.id);
            st.runnable += 1;
            if let Some(a) = st.actors.get_mut(&self.id) {
                a.status = ActorStatus::Running;
                let flagged = std::mem::take(&mut a.flagged);
                st.recheck_pending -= usize::from(flagged);
            }
            SimClock::check_poison(&st);
            st.label_stats(label).wakeups += 1;
            woken = true;
        }
    }
}

impl Drop for Actor {
    fn drop(&mut self) {
        let mut st = self.clock.inner.lock();
        // An actor normally drops while Running; during a panic unwind it
        // may drop while Blocked (the deadlock panic fires inside its own
        // park), and then its registrations go instead of its `runnable`
        // count. A pass's handle ([`Actor::for_pass`]) is in no map and
        // holds no counter.
        let registered = st.actors.remove(&self.id);
        if let Some(info) = &registered {
            match info.status {
                ActorStatus::Running => st.runnable -= 1,
                ActorStatus::Blocked(_) => st.forget_waiter(self.id),
            }
        }
        if std::thread::panicking() {
            st.poison();
        } else if registered.is_some() {
            drop(self.clock.maybe_advance(st));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Monitor;
    use std::thread;

    #[test]
    fn clock_starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.actor_count(), 0);
    }

    #[test]
    fn single_actor_advance_moves_clock_exactly() {
        let c = SimClock::new();
        let a = c.register("a");
        a.advance_ns(1234);
        assert_eq!(a.now_ns(), 1234);
        a.advance_ns(1);
        assert_eq!(c.now_ns(), 1235);
    }

    #[test]
    fn advance_zero_is_noop() {
        let c = SimClock::new();
        let a = c.register("a");
        a.advance_ns(0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn advance_until_is_absolute_and_idempotent() {
        let c = SimClock::new();
        let a = c.register("a");
        a.advance_until(500);
        assert_eq!(a.now_ns(), 500);
        a.advance_until(100); // already past: no-op
        assert_eq!(a.now_ns(), 500);
    }

    #[test]
    fn parallel_advances_overlap_to_max() {
        let c = SimClock::new();
        let durations = [300u64, 700, 500];
        // Register every actor before spawning any thread (see `register`).
        let actors: Vec<_> = (0..durations.len())
            .map(|i| c.register(format!("w{i}")))
            .collect();
        let handles: Vec<_> = actors
            .into_iter()
            .zip(durations)
            .map(|(actor, d)| {
                thread::spawn(move || {
                    actor.advance_ns(d);
                    actor.now_ns()
                })
            })
            .collect();
        let ends: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        assert_eq!(ends, vec![300, 700, 500]);
        assert_eq!(c.now_ns(), 700);
    }

    #[test]
    fn serialized_advances_sum() {
        let c = SimClock::new();
        let a = c.register("a");
        for _ in 0..10 {
            a.advance_ns(10);
        }
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    fn wait_on_sees_a_notify_of_its_key() {
        let c = SimClock::new();
        let key = c.new_key();
        let flag = Arc::new(Mutex::new(false));
        let a = c.register("waiter");
        let b = c.register("setter");
        let f2 = flag.clone();
        let setter = thread::spawn(move || {
            b.advance_ns(1000);
            *f2.lock() = true;
            b.clock().notify_key(key);
        });
        let f3 = flag.clone();
        a.wait_on(
            &[key],
            "flag",
            move || if *f3.lock() { Some(()) } else { None },
        );
        assert_eq!(a.now_ns(), 1000);
        setter.join().expect("worker thread panicked");
    }

    #[test]
    fn alarm_unblocks_predicate_waiter() {
        let c = SimClock::new();
        let a = c.register("waiter");
        let key = c.new_key();
        c.schedule_alarm_keyed(5_000, key);
        let clock = c.clone();
        // Predicate: "has the clock reached 5000?" — only an alarm can get
        // it there, since no thread sleeps.
        a.wait_on(&[key], "deadline", move || {
            (clock.now_ns() >= 5_000).then_some(())
        });
        assert_eq!(c.now_ns(), 5_000);
    }

    #[test]
    fn stale_alarm_does_not_drag_final_time() {
        // An alarm scheduled for a wake-up that turned out unnecessary
        // (e.g. a timeout satisfied early) must not push virtual time
        // forward once every actor has finished its work.
        let c = SimClock::new();
        let a = c.register("worker");
        c.schedule_alarm_keyed(1_000_000_000, c.new_key());
        a.advance_ns(500);
        drop(a);
        assert_eq!(c.now_ns(), 500);
    }

    #[test]
    fn two_sleepers_same_instant_both_wake() {
        let c = SimClock::new();
        let actors: Vec<_> = (0..2).map(|i| c.register(format!("s{i}"))).collect();
        let h: Vec<_> = actors
            .into_iter()
            .map(|a| {
                thread::spawn(move || {
                    a.advance_ns(42);
                    a.advance_ns(8);
                    a.now_ns()
                })
            })
            .collect();
        for t in h {
            assert_eq!(t.join().expect("worker thread panicked"), 50);
        }
        assert_eq!(c.now_ns(), 50);
    }

    #[test]
    fn message_passing_has_no_premature_advance() {
        // A sends at t=10 to B who is blocked; B must observe at t=10, not
        // after A's later sleep to t=100.
        let c = SimClock::new();
        let key = c.new_key();
        let mailbox: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
        let a = c.register("sender");
        let b = c.register("receiver");
        let m1 = mailbox.clone();
        let sender = thread::spawn(move || {
            a.advance_ns(10);
            *m1.lock() = Some(a.now_ns());
            a.clock().notify_key(key);
            a.advance_ns(90);
        });
        let m2 = mailbox.clone();
        let got = b.wait_on(&[key], "mailbox", move || m2.lock().take());
        assert_eq!(got, 10);
        assert_eq!(b.now_ns(), 10); // B observed the message at send time
                                    // Deregister before joining: the sender still owes 90 ns of virtual
                                    // time, and a join while holding a runnable actor would stall the
                                    // clock (os-level wait the clock cannot see).
        drop(b);
        sender.join().expect("worker thread panicked");
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    fn progress_alarm_before_a_sleepers_wake_runs_at_its_own_instant() {
        /// Records the instants it runs at.
        struct Log(Mutex<Vec<SimNs>>);
        impl Progress for Log {
            fn run(&self, now: SimNs) {
                self.0.lock().push(now);
            }
        }
        let c = SimClock::new();
        let log = Arc::new(Log(Mutex::new(Vec::new())));
        let key = c.progress_key(Arc::downgrade(&log) as Weak<dyn Progress>);
        let a = c.register("sleeper");
        c.schedule_alarm_keyed(50, key);
        a.advance_ns(100);
        assert_eq!(*log.0.lock(), [50]);
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    #[should_panic(expected = "a sleep of 18446744073709551615 ns from t=10")]
    fn a_sleep_past_the_last_instant_panics_on_the_sleeper() {
        let c = SimClock::new();
        let a = c.register("sleeper");
        a.advance_ns(10);
        a.advance_ns(SimNs::MAX);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let c = SimClock::new();
        let a = c.register("stuck");
        a.wait_on(&[c.new_key()], "stuck", || None::<()>);
    }

    #[test]
    #[should_panic(expected = "Blocked(\"lost\") [keyed: 2 key(s)]")]
    fn deadlock_report_says_how_each_waiter_is_keyed() {
        let c = SimClock::new();
        let a = c.register("stuck");
        let keys = [c.new_key(), c.new_key()];
        a.wait_on(&keys, "lost", || None::<()>);
    }

    #[test]
    fn report_names_each_parked_machine_and_what_it_is_parked_on() {
        use crate::MachineStep;
        /// Parks on `m` (if any; on nothing else) and on a timer at t=900,
        /// where it ends.
        struct Parked(Option<Arc<Monitor<u32>>>);
        impl SimActor for Parked {
            fn wait_label(&self) -> &'static str {
                "parked"
            }
            fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
                if let Some(m) = &self.0 {
                    m.peek(|_| ());
                }
                if now >= 900 {
                    return MachineStep::Done;
                }
                MachineStep::Pending(Some(900))
            }
        }
        let c = SimClock::new();
        let m = Arc::new(Monitor::new(c.clone(), 0u32));
        let driver = c.register("driver");
        c.spawn_machine(0, "engine:r3", Box::new(Parked(Some(m))));
        c.spawn_machine(0, "queue:r3", Box::new(Parked(None)));
        driver.advance_ns(10); // both machines are parked
        let report = c.inner.render_actors(&c.inner.lock());
        for line in [
            "  scheduler: 2 parked + 0 queued machine(s)",
            "    engine:r3 [keyed: 1 key(s), timer t=900]",
            "    queue:r3 [keyed: 0 key(s), timer t=900]",
        ] {
            assert!(report.contains(line), "no {line:?} in\n{report}");
        }
        drop(driver);
        c.quiesce_machines();
    }

    #[test]
    fn drop_deregisters_and_lets_clock_advance() {
        let c = SimClock::new();
        let a = c.register("a");
        let b = c.register("b");
        let t = thread::spawn(move || {
            drop(b); // b leaves; a must be able to advance alone
        });
        t.join().expect("worker thread panicked");
        a.advance_ns(7);
        assert_eq!(c.now_ns(), 7);
        assert_eq!(c.actor_count(), 1);
    }

    #[test]
    fn panicking_actor_poisons_clock() {
        let c = SimClock::new();
        let a = c.register("panicker");
        let t = thread::spawn(move || {
            let _a = a;
            panic!("boom");
        });
        assert!(t.join().is_err());
        assert!(c.is_poisoned());
    }

    #[test]
    fn gen_based_wait_has_no_lost_wakeup() {
        // Hammer the notify/wait path: 100 tokens passed one at a time.
        let c = SimClock::new();
        let key = c.new_key();
        let slot: Arc<Mutex<Option<u32>>> = Arc::new(Mutex::new(None));
        let a = c.register("producer");
        let b = c.register("consumer");
        let s1 = slot.clone();
        let prod = thread::spawn(move || {
            for i in 0..100u32 {
                a.advance_ns(1);
                a.wait_on(&[key], "slot free", || s1.lock().is_none().then_some(()));
                *s1.lock() = Some(i);
                a.clock().notify_key(key);
            }
        });
        let s2 = slot.clone();
        let cons = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..100 {
                let v = b.wait_on(&[key], "slot full", || s2.lock().take());
                b.clock().notify_key(key); // slot freed
                got.push(v);
            }
            got
        });
        prod.join().expect("worker thread panicked");
        let got = cons.join().expect("worker thread panicked");
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(c.now_ns(), 100);
    }

    #[test]
    fn tokens_are_signalled_in_the_flush_and_in_poison_and_nowhere_else() {
        // "Signals after the lock" is structural only while nobody adds a
        // signal under the lock, or a second way to take it.
        let shipped = include_str!("clock.rs");
        let shipped = shipped.split("\n#[cfg(test)]").next().unwrap_or(shipped);
        let mut current_fn = "";
        let mut signallers = Vec::new();
        for line in shipped.lines().map(str::trim_start) {
            if let Some(rest) = line.strip_prefix("fn ") {
                current_fn = rest.split(['(', '<']).next().unwrap_or(rest);
            }
            if !line.starts_with("//") && line.contains("notify_one(") {
                signallers.push(current_fn);
            }
        }
        // `ClockState::poison`, then `Signals::drop`.
        assert_eq!(signallers, ["poison", "drop"]);
        assert_eq!(
            shipped.matches("state.lock()").count(),
            1,
            "ClockInner::lock is the one way in"
        );
        assert_eq!(
            shipped.matches(".wait(&mut").count(),
            1,
            "ClockGuard::park is the one place a thread sleeps on the clock mutex"
        );
    }

    /// One participant of [`stress`]: `STEPS` rounds of "maybe sleep, hand
    /// a token to the next actor, take one from the previous", with stray
    /// notifies and alarms of other actors' keys and of the progress
    /// source's thrown in.
    fn stress_actor(
        actor: Actor,
        me: usize,
        cells: Arc<Vec<Monitor<u32>>>,
        stir: WakeKey,
        finished: Arc<Monitor<usize>>,
    ) {
        let clock = actor.clock().clone();
        let mut rng = crate::XorShift64::new(0x5eed + me as u64);
        let n = cells.len();
        for _ in 0..STRESS_STEPS {
            match rng.gen_range_usize(0, 6) {
                0 | 1 => actor.advance_ns(rng.gen_range_u64(1, 60)),
                2 => clock.notify_key(cells[rng.gen_range_usize(0, n)].key()),
                3 => cells[rng.gen_range_usize(0, n)].alarm_at(clock.now_ns() + 40),
                _ => clock.schedule_alarm_keyed(clock.now_ns() + rng.gen_range_u64(1, 30), stir),
            }
            cells[(me + 1) % n].with(|v| *v += 1);
            actor.wait_on(&[cells[me].key()], "stress take", || {
                cells[me].try_now(|v| v.checked_sub(1).map(|left| *v = left))
            });
        }
        finished.with(|f| *f += 1);
    }

    const STRESS_ACTORS: usize = 32;
    const STRESS_STEPS: usize = 320;

    /// 32 actors on threads of their own, one machine (hence passes owed
    /// and run by whoever settles a round) and one progress source through
    /// 10,240 rounds of sleeps,
    /// keyed waits, notifies and alarms. A wake-up that is owed and never
    /// signalled ends it in the watchdog; one signalled to the wrong token,
    /// in the deadlock report.
    fn stress() {
        use crate::MachineStep;
        /// Reads cell 0 on every step and asks for a timer, until told to
        /// stop.
        struct Onlooker {
            cells: Arc<Vec<Monitor<u32>>>,
            stop: Arc<Monitor<bool>>,
        }
        impl SimActor for Onlooker {
            fn wait_label(&self) -> &'static str {
                "onlooker"
            }
            fn poll(&mut self, now: SimNs, _actor: &Actor) -> MachineStep {
                self.cells[0].peek(|_| ());
                if self.stop.peek(|s| *s) {
                    return MachineStep::Done;
                }
                MachineStep::Pending(Some(now + 97))
            }
        }
        /// Notifies a random cell on every run, and counts the runs whose
        /// notify queued a park token: one `progressing` held back.
        struct Stirrer {
            cells: Arc<Vec<Monitor<u32>>>,
            rng: Mutex<crate::XorShift64>,
            held: AtomicU64,
        }
        impl Progress for Stirrer {
            fn run(&self, _now: SimNs) {
                let cell = &self.cells[self.rng.lock().gen_range_usize(0, self.cells.len())];
                let queued = || cell.clock().inner.lock().signals.len();
                let before = queued();
                cell.clock().notify_key(cell.key());
                if queued() > before {
                    self.held.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let c = SimClock::new();
        let cells: Arc<Vec<Monitor<u32>>> = Arc::new(
            (0..STRESS_ACTORS)
                .map(|_| Monitor::new(c.clone(), 0))
                .collect(),
        );
        let finished = Arc::new(Monitor::new(c.clone(), 0usize));
        let stop = Arc::new(Monitor::new(c.clone(), false));
        let stirrer = Arc::new(Stirrer {
            cells: cells.clone(),
            rng: Mutex::new(crate::XorShift64::new(0x5717)),
            held: AtomicU64::new(0),
        });
        let stir = c.progress_key(Arc::downgrade(&stirrer) as Weak<dyn Progress>);
        let driver = c.register("driver");
        // Every actor is registered before any thread starts.
        let actors: Vec<Actor> = (0..STRESS_ACTORS)
            .map(|i| c.register(format!("a{i}")))
            .collect();
        let onlooker = Onlooker {
            cells: cells.clone(),
            stop: stop.clone(),
        };
        c.spawn_machine(0, "onlooker", Box::new(onlooker));
        let threads: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(me, actor)| {
                let (cells, finished) = (cells.clone(), finished.clone());
                thread::spawn(move || stress_actor(actor, me, cells, stir, finished))
            })
            .collect();
        finished.wait(&driver, |f| (*f == STRESS_ACTORS).then_some(()));
        for t in threads {
            assert!(t.join().is_ok(), "a stress actor panicked");
        }
        stop.with(|s| *s = true);
        drop(driver);
        c.quiesce_machines();
        assert!(!c.is_poisoned());
        let st = c.inner.lock();
        assert_eq!((st.recheck_pending, st.runnable), (0, 0));
        assert!(!st.pass_owed && st.resident == 0);
        assert!(st.signals.is_empty() && st.actors.is_empty() && st.deps.is_empty());
        let slept = st.stats.labels.get("sleep").map_or(0, |l| l.parked);
        assert!(slept > 1_000 && st.stats.alarms_fired > 1_000);
        let held = stirrer.held.load(Ordering::Relaxed);
        assert!(held > 1_000, "{held} signals held behind `progressing`");
    }

    #[test]
    fn no_wake_up_is_lost_in_ten_thousand_mixed_rounds() {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = thread::spawn(move || {
            stress();
            let _ = tx.send(());
        });
        let waited = rx.recv_timeout(Duration::from_secs(60));
        assert!(
            waited != Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "still running after 60 s — a park token was owed a signal and never got it"
        );
        // Re-raises the world's own panic (a deadlock report).
        if let Err(p) = t.join() {
            std::panic::resume_unwind(p);
        }
    }

    /// One registration: a key and an actor or machine registered on it.
    type Reg<T> = (WakeKey, T);

    /// The registry as ordered sets of `(key, dependant)` pairs and of
    /// ready machines, the way the clock kept it before its keyed index:
    /// the reference [`keyed_registry_matches_the_ordered_set_model`]
    /// holds `ClockState::{deps, ready}` to.
    #[derive(Default)]
    struct SetModel {
        waiting: std::collections::BTreeSet<Reg<u64>>,
        machines: std::collections::BTreeSet<Reg<MachineId>>,
        ready: std::collections::BTreeSet<MachineId>,
        flagged: std::collections::BTreeSet<u64>,
        pass_owed: bool,
        machine_readies: u64,
    }

    impl SetModel {
        fn wake(&mut self, key: WakeKey) {
            self.pass_owed |= key == WakeKey::SCHED;
            for &(_, id) in self.waiting.range((key, 0)..=(key, u64::MAX)) {
                self.flagged.insert(id);
            }
            for &(_, m) in self.machines.range((key, 0)..=(key, MachineId::MAX)) {
                if self.ready.insert(m) {
                    self.machine_readies += 1;
                    self.pass_owed = true;
                }
            }
        }

        fn reregister(&mut self, m: MachineId, old: &[WakeKey], new: &[WakeKey], moved: bool) {
            let mut added = false;
            for &k in new {
                if old.binary_search(&k).is_err() {
                    self.machines.insert((k, m));
                    added = true;
                }
            }
            if added && moved && self.ready.insert(m) {
                self.machine_readies += 1;
                self.pass_owed = true;
            }
            for &k in old {
                if new.binary_search(&k).is_err() {
                    self.machines.remove(&(k, m));
                }
            }
        }
    }

    /// Up to `max` keys drawn from `pool`, sorted and duplicate-free.
    fn key_set(rng: &mut crate::XorShift64, pool: &[WakeKey], max: usize) -> Vec<WakeKey> {
        let mut keys: Vec<WakeKey> = (0..rng.gen_range_usize(0, max + 1))
            .map(|_| pool[rng.gen_range_usize(0, pool.len())])
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Random re-registrations (moved or not), retirements, waiter
    /// registrations, resumptions and drops, notifies and pass batches,
    /// each applied to the clock's keyed registry and to [`SetModel`]:
    /// after every step the registrations, the ready marks, the flagged
    /// waiters, `machine_readies` and `pass_owed` agree, and so does every
    /// batch a pass takes once sorted. A registration the index drops or
    /// keeps too long shows as a wake-up one side has and the other lacks.
    #[test]
    fn keyed_registry_matches_the_ordered_set_model() {
        const MACHINES: usize = 6;
        const ACTORS: u64 = 5;
        for case in 0..64u64 {
            let mut rng = crate::XorShift64::new(0x7e9_0000 + case);
            let c = SimClock::with_permute_seed(None);
            let mut pool: Vec<WakeKey> = (0..5).map(|_| c.new_key()).collect();
            pool.push(WakeKey::SCHED);
            for id in 0..ACTORS {
                let token = Arc::new(Condvar::new());
                let info = ActorInfo {
                    label: format!("w{id}"),
                    status: ActorStatus::Blocked("model"),
                    token,
                    flagged: false,
                };
                c.inner.lock().actors.insert(id, info);
            }
            let mut model = SetModel::default();
            let mut machines: Vec<Option<Vec<WakeKey>>> = vec![None; MACHINES];
            let mut waiters: Vec<Option<Vec<WakeKey>>> = vec![None; ACTORS as usize];
            let mut batch = Vec::new();
            for step in 0..400 {
                let at = format!("case {case} step {step}");
                match rng.gen_range_usize(0, 9) {
                    0 | 1 => {
                        let m = rng.gen_range_usize(0, MACHINES);
                        if machines[m].is_none() {
                            c.inner.lock().resident += 1;
                        }
                        let old = machines[m].take().unwrap_or_default();
                        let new = key_set(&mut rng, &pool, 4);
                        let moved = rng.gen_bool(0.5);
                        let mut registry = Registry {
                            st: c.inner.lock(),
                            moved,
                        };
                        registry.reregister(m as MachineId, &old, &new);
                        model.reregister(m as MachineId, &old, &new, moved);
                        machines[m] = Some(new);
                    }
                    2 => {
                        let m = rng.gen_range_usize(0, MACHINES);
                        if let Some(keys) = machines[m].take() {
                            let mut registry = Registry {
                                st: c.inner.lock(),
                                moved: rng.gen_bool(0.5),
                            };
                            registry.retire(m as MachineId, &keys);
                            model.reregister(m as MachineId, &keys, &[], false);
                            model.ready.remove(&(m as MachineId));
                        }
                    }
                    3 | 4 => {
                        let id = rng.gen_range_u64(0, ACTORS);
                        let slot = &mut waiters[id as usize];
                        let mut st = c.inner.lock();
                        match slot.take() {
                            // `wait_on` parks: its keys as given, repeats
                            // and all.
                            None => {
                                let keys: Vec<WakeKey> = (0..rng.gen_range_usize(1, 4))
                                    .map(|_| pool[rng.gen_range_usize(0, pool.len())])
                                    .collect();
                                st.add_waiter(&keys, id);
                                model.waiting.extend(keys.iter().map(|&k| (k, id)));
                                *slot = Some(keys);
                            }
                            // ... and resumes, or is dropped while blocked.
                            Some(keys) => {
                                if rng.gen_bool(0.5) {
                                    st.remove_waiter(&keys, id);
                                } else {
                                    st.forget_waiter(id);
                                }
                                model.waiting.retain(|&(_, w)| w != id);
                                let flagged = st
                                    .actors
                                    .get_mut(&id)
                                    .is_some_and(|a| std::mem::take(&mut a.flagged));
                                st.recheck_pending -= usize::from(flagged);
                                model.flagged.remove(&id);
                            }
                        }
                    }
                    5..=7 => {
                        let key = pool[rng.gen_range_usize(0, pool.len())];
                        c.inner.lock().wake_dependants(key);
                        model.wake(key);
                    }
                    _ => {
                        batch.clear();
                        c.take_ready(&mut batch);
                        batch.sort_unstable();
                        batch.dedup();
                        let want: Vec<MachineId> =
                            std::mem::take(&mut model.ready).into_iter().collect();
                        model.pass_owed = false;
                        assert_eq!(batch, want, "{at}: batch");
                    }
                }
                let st = c.inner.lock();
                let mut waiting = std::collections::BTreeSet::new();
                let mut parked = std::collections::BTreeSet::new();
                for (&k, d) in &st.deps {
                    assert!(!d.is_empty(), "{at}: an empty entry for {k:?} stayed");
                    for &id in &d.waiters {
                        assert!(waiting.insert((k, id)), "{at}: ({k:?}, {id}) twice");
                    }
                    for &m in &d.machines {
                        assert!(parked.insert((k, m)), "{at}: ({k:?}, m{m}) twice");
                    }
                }
                assert_eq!(waiting, model.waiting, "{at}: waiters");
                assert_eq!(parked, model.machines, "{at}: machines");
                let mut ready = st.ready.list.clone();
                ready.sort_unstable();
                assert_eq!(
                    ready,
                    model.ready.iter().copied().collect::<Vec<_>>(),
                    "{at}: ready"
                );
                for (m, &marked) in st.ready.marked.iter().enumerate() {
                    assert_eq!(
                        marked,
                        model.ready.contains(&(m as MachineId)),
                        "{at}: mark of m{m}"
                    );
                }
                let flagged: std::collections::BTreeSet<u64> = st
                    .actors
                    .iter()
                    .filter(|(_, a)| a.flagged)
                    .map(|(&id, _)| id)
                    .collect();
                assert_eq!(flagged, model.flagged, "{at}: flagged waiters");
                assert_eq!(
                    st.recheck_pending,
                    model.flagged.len(),
                    "{at}: recheck_pending"
                );
                assert_eq!(
                    st.stats.machine_readies, model.machine_readies,
                    "{at}: machine_readies"
                );
                assert_eq!(st.pass_owed, model.pass_owed, "{at}: pass_owed");
                let live = machines.iter().flatten().count();
                assert_eq!(st.resident, live, "{at}: resident");
            }
        }
    }
}
