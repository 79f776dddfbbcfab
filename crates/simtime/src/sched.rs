//! The sharded discrete-event scheduler: resumable actor state machines.
//!
//! ### Two execution modes, one machine contract
//!
//! Long-lived *service* actors (the clMPI progress engine, the OpenCL
//! queue executors) used to each own an OS thread parked in one big
//! predicate wait. That is faithful but tops out at a few hundred actors:
//! every clock notification wakes every thread, and a 1,024-rank world
//! needs thousands of threads doing nothing but re-evaluating predicates.
//!
//! This module turns those actors into **resumable state machines**: a
//! [`SimActor`] exposes an explicit [`SimActor::poll`]/[`SimActor::on_wake`]
//! step that runs at a frozen virtual instant and *parks* with an optional
//! wake hint instead of blocking. [`SimClock::spawn_machine`] then places
//! the machine according to the clock's [`ExecMode`]:
//!
//! * [`ExecMode::Events`] — the **event core**, and the default: machines
//!   are distributed over a fixed set of shards (`hint % SIM_SHARDS`), and
//!   each shard is served by a single worker thread registered as one
//!   clock actor. The worker polls every resident machine at each frozen
//!   instant; between passes it is one blocked actor, so the
//!   conservative-advance invariant (`runnable`/`pending_wakes`/
//!   `recheck_pending` bookkeeping, alarms, deadlock detection) is
//!   untouched. A worker waits on every wake key (its machines read state
//!   it cannot enumerate) but is **held until idle**: a notify or alarm
//!   flags it, and it resumes once every other actor has parked — one
//!   pass per *settle round* of a frozen instant (rank threads run until
//!   they park → flagged workers make a pass each → repeat until nobody
//!   is flagged → the clock advances), not one per notify. The wake hints
//!   it schedules carry a key that reaches wildcard waiters only.
//! * [`ExecMode::Threads`] — the **oracle** (`SIM_EXEC_MODE=threads`): one
//!   OS thread per machine, driven by `run_on_thread`. This is
//!   byte-for-byte the historical thread-per-actor semantics (the
//!   machine's whole life happens inside one labeled predicate wait). It
//!   is signalled by every notify and never held: its owner joins it
//!   while still a runnable actor (`CommandQueue::drop`), so "until every
//!   other actor has parked" would never come.
//!
//! Because the *same machine code* runs under both modes, the virtual
//! timings and observability fingerprints must be identical — the
//! differential suite (`tests/scheduler.rs` and the clMPI world-level
//! matrix) enforces exactly that.
//!
//! ### The sharding rule
//!
//! A machine's shard is `hint % shards` where the hint is chosen by the
//! spawner (the clMPI runtime uses the MPI rank; minicl hashes the queue
//! label). Shard assignment affects only *which worker thread* polls a
//! machine, never the virtual instants at which it progresses: machines
//! communicate exclusively through clock-notifying monitors, and every
//! poll pass runs at a frozen instant, so the fixpoint the shard reaches
//! is the same one the thread-per-actor oracle reaches.

use std::cell::Cell;
use std::thread::JoinHandle;

use crate::clock::{Actor, SimClock, WakeKey};
use crate::plock::{Condvar, Mutex};
use crate::SimNs;

/// Verdict of one [`SimActor::poll`]/[`SimActor::on_wake`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStep {
    /// The machine cannot progress further at this instant. `Some(t)`
    /// requests a wake-up at the strictly-future instant `t` (scheduled
    /// as a thread-less clock alarm); `None` relies on cross-actor
    /// notifications alone. A machine that could settle now must keep
    /// stepping internally instead of parking.
    Pending(Option<SimNs>),
    /// The machine finished; the scheduler retires it.
    Done,
}

/// A resumable actor state machine, executed by [`SimClock::spawn_machine`].
///
/// `poll` runs at a frozen virtual instant and must never block: the
/// machine advances its internal state as far as it can (to a fixpoint)
/// and then parks. All cross-machine communication goes through the
/// clock-notifying primitives in [`crate::sync`], which is what guarantees
/// a parked machine is re-polled whenever anything it may wait on changes.
pub trait SimActor: Send {
    /// Label shown in deadlock diagnostics while the machine is parked.
    fn wait_label(&self) -> &'static str;

    /// Advance as far as possible at virtual instant `now`. `actor` is the
    /// executing worker's clock actor: machines may use it for non-blocking
    /// calls but must never park or sleep it.
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep;

    /// Called instead of [`SimActor::poll`] when a wake hint the machine
    /// asked for has come due. The default forwards to `poll`; machines
    /// with a cheaper timer-expiry path may override it.
    fn on_wake(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        self.poll(now, actor)
    }
}

/// How a [`SimClock`] executes spawned machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One OS thread per machine (the historical model; differential
    /// oracle for the event core).
    Threads,
    /// Sharded worker pool over per-shard machine queues.
    Events,
}

impl ExecMode {
    /// Read the mode from `SIM_EXEC_MODE` (`events` \[default, also
    /// when unset or empty\] or `threads`). Unknown values panic: a typo
    /// must not silently pick a core and void a differential run.
    pub fn from_env() -> Self {
        match std::env::var("SIM_EXEC_MODE").as_deref() {
            Ok("events" | "event" | "") | Err(_) => ExecMode::Events,
            Ok("threads" | "thread") => ExecMode::Threads,
            Ok(v) => panic!("SIM_EXEC_MODE={v:?}: expected \"threads\" or \"events\""),
        }
    }
}

/// Default shard count for [`ExecMode::Events`], overridable via
/// `SIM_SHARDS`. Fixed (not host-derived) so two hosts running the same
/// scenario use the same machine placement.
const DEFAULT_SHARDS: usize = 8;

/// Number of shards for a new pool: `SIM_SHARDS` or [`DEFAULT_SHARDS`].
pub(crate) fn shard_count_from_env() -> usize {
    match std::env::var("SIM_SHARDS") {
        Ok(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("SIM_SHARDS={v:?}: expected a positive integer")),
        Err(_) => DEFAULT_SHARDS,
    }
}

std::thread_local! {
    /// Set for the lifetime of a shard worker thread. Lets drop paths that
    /// must not block the scheduler (e.g. the clMPI runtime's self-drain
    /// guard) recognize they are running *on* the pool.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is an event-mode shard worker.
pub fn on_pool_worker() -> bool {
    ON_POOL_WORKER.with(|f| f.get())
}

/// One spawned machine plus its runner-side alarm bookkeeping.
pub(crate) struct Slot {
    pub(crate) label: String,
    /// Wake hints already scheduled as clock alarms, so repeated parks at
    /// the same target do not flood the alarm heap.
    pub(crate) alarms: Vec<SimNs>,
    body: Box<dyn SimActor>,
}

impl Slot {
    pub(crate) fn new(label: String, body: Box<dyn SimActor>) -> Self {
        Slot {
            label,
            alarms: Vec::new(),
            body,
        }
    }
}

/// Drive one machine at the frozen instant `now`. Returns `true` when the
/// machine finished. Shared verbatim between the thread-mode runner and
/// the shard workers — this function *is* the mode-equivalence argument.
fn step_slot(slot: &mut Slot, now: SimNs, actor: &Actor, clock: &SimClock) -> bool {
    let due = slot.alarms.iter().any(|&t| t <= now);
    slot.alarms.retain(|&t| t > now);
    let step = if due {
        slot.body.on_wake(now, actor)
    } else {
        slot.body.poll(now, actor)
    };
    match step {
        MachineStep::Done => true,
        MachineStep::Pending(hint) => {
            if let Some(t) = hint {
                debug_assert!(t > now, "machines must progress, not park, when due");
                if t > now && !slot.alarms.contains(&t) {
                    // The hint concerns this machine's runner only, and
                    // runners are wildcard waiters.
                    clock.schedule_alarm_keyed(t, WakeKey::RUNNERS);
                    slot.alarms.push(t);
                }
            }
            false
        }
    }
}

/// Thread-mode runner: the machine's whole life inside one predicate
/// wait, exactly like the hand-written service loops it replaces.
pub(crate) fn run_on_thread(actor: Actor, body: Box<dyn SimActor>) {
    let clock = actor.clock().clone();
    let label = body.wait_label();
    let mut slot = Slot::new(String::new(), body);
    actor.wait_until_labeled(label, || {
        let now = clock.now_ns();
        step_slot(&mut slot, now, &actor, &clock).then_some(())
    });
}

/// State of one shard: machines waiting to be adopted plus machines
/// resident on the worker. Guarded by its own mutex so spawners never
/// contend on the clock lock, and so the deadlock reporter can inspect
/// shard queues (via `try_lock`) while holding the clock lock.
#[derive(Default)]
pub(crate) struct ShardState {
    /// Machines handed to the shard, not yet polled.
    pub(crate) incoming: Vec<Slot>,
    /// Machines the worker is actively polling.
    pub(crate) resident: Vec<Slot>,
    /// Whether a worker thread currently owns this shard. Workers retire
    /// when their shard drains; the flag makes the next spawn revive one.
    pub(crate) running: bool,
}

/// The event-mode worker pool: a fixed array of shards. Held by the clock
/// (`ClockInner`), but deliberately clock-free itself — shard workers
/// reach it through their own `SimClock` clones.
pub(crate) struct SchedPool {
    pub(crate) shards: Vec<Mutex<ShardState>>,
    /// Worker threads spawned and not yet retired;
    /// [`SimClock::quiesce_machines`] parks on `retired` until it is zero.
    live_workers: Mutex<usize>,
    retired: Condvar,
}

impl SchedPool {
    pub(crate) fn new(shards: usize) -> Self {
        SchedPool {
            shards: (0..shards)
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            live_workers: Mutex::new(0),
            retired: Condvar::new(),
        }
    }

    /// Count a worker about to be spawned (before its thread starts, so a
    /// quiescing caller can never observe zero between spawn and start).
    pub(crate) fn worker_started(&self) {
        *self.live_workers.lock() += 1;
    }

    /// Park the calling thread until every counted worker has retired.
    pub(crate) fn wait_retired(&self) {
        let mut live = self.live_workers.lock();
        while *live > 0 {
            self.retired.wait(&mut live);
        }
    }
}

/// Reports a shard worker's retirement when dropped — after the worker's
/// actor, and also when the worker unwinds from a panicking machine, so a
/// quiescing caller is released to observe the poison instead of hanging.
struct Retire<'a>(&'a SchedPool);

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let mut live = self.0.live_workers.lock();
        *live -= 1;
        if *live == 0 {
            self.0.retired.notify_all();
        }
    }
}

/// The shard worker loop: one registered clock actor serving every
/// machine of one shard. Each predicate evaluation is one frozen-instant
/// pass over the resident machines; between passes the worker is a single
/// blocked actor whose scheduled alarms are eligible to drive the clock.
/// The worker retires (clearing `running`) once the shard drains.
pub(crate) fn shard_worker(actor: Actor, clock: SimClock, shard: usize) {
    ON_POOL_WORKER.with(|f| f.set(true));
    // Locals drop in reverse order: the actor deregisters (its last clock
    // advance included) before the retirement is reported.
    let _retire = Retire(clock.pool());
    let actor = actor;
    // Held until idle: a pass is worth making once every actor that could
    // still change what the machines read at this instant has parked.
    actor.wait_on(&[WakeKey::ALL_WHEN_IDLE], "sched shard", || {
        let mut st = clock.shard(shard).lock();
        let now = clock.now_ns();
        // Adopt machines spawned since the last pass. They are polled at
        // this very instant: the spawner is still runnable, so the clock
        // cannot have advanced past the spawn instant.
        let mut newly = std::mem::take(&mut st.incoming);
        st.resident.append(&mut newly);
        let mut i = 0;
        while i < st.resident.len() {
            if step_slot(&mut st.resident[i], now, &actor, &clock) {
                st.resident.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Machines progressing mid-pass notify the clock themselves
        // (monitor mutations bump `gen`), which makes the surrounding
        // `wait_until` re-evaluate this predicate — that re-pass, not an
        // inner loop, is what drives same-instant cross-machine chains,
        // exactly as notify does for separate threads in oracle mode.
        if st.resident.is_empty() && st.incoming.is_empty() {
            st.running = false;
            return Some(());
        }
        None
    });
}

/// Handle to a spawned machine: how to reap it and how to recognize its
/// executing thread. In event mode there is nothing to join — the machine
/// retires inside its shard worker when it reports [`MachineStep::Done`].
pub struct MachineHandle {
    inner: HandleInner,
}

enum HandleInner {
    Thread {
        join: Option<JoinHandle<()>>,
        id: std::thread::ThreadId,
    },
    Event,
}

impl MachineHandle {
    pub(crate) fn thread(join: JoinHandle<()>) -> Self {
        let id = join.thread().id();
        MachineHandle {
            inner: HandleInner::Thread {
                join: Some(join),
                id,
            },
        }
    }

    pub(crate) fn event() -> Self {
        MachineHandle {
            inner: HandleInner::Event,
        }
    }

    /// True when called from the thread that executes this machine: its
    /// dedicated thread in thread mode, any pool worker in event mode
    /// (machines share workers, so per-machine attribution is
    /// impossible — and drop paths only need "am I on the scheduler?").
    pub fn on_worker_thread(&self) -> bool {
        match &self.inner {
            HandleInner::Thread { id, .. } => std::thread::current().id() == *id,
            HandleInner::Event => on_pool_worker(),
        }
    }

    /// Reap the machine's thread, if it has one and the caller is neither
    /// that thread nor panicking. Event-mode machines retire on their own.
    pub fn reap(mut self) {
        if let HandleInner::Thread { join, id } = &mut self.inner {
            if std::thread::current().id() != *id && !std::thread::panicking() {
                if let Some(h) = join.take() {
                    let _ = h.join();
                }
            }
        }
    }
}
