//! The discrete-event scheduler: resumable actor state machines.
//!
//! ### One executor, one machine contract
//!
//! A service actor (the clMPI progress engine, an OpenCL queue executor)
//! is a **resumable state machine**, not an OS thread parked in one big
//! predicate wait: a [`SimActor`]'s [`SimActor::poll`] step runs at a
//! frozen virtual instant and *parks* with an optional wake hint instead
//! of blocking. [`SimClock::spawn_machine`] hands the machine to the
//! clock's **event core**: every machine of a clock lives in one slab
//! (`Slab`), and no thread of its own serves it. A spawn, a notify or
//! alarm that marks a machine **ready**, and a machine's timer coming due
//! each *owe a pass*, and an owed pass holds the clock the way a flagged
//! waiter does: it cannot move and no deadlock can be declared. Whichever
//! thread settles a round — the last actor to park or leave — runs the
//! owed pass itself, inside `maybe_advance`, counted as runnable
//! meanwhile (the clock module notes, "Settle rounds"), as "MPI Progress
//! For All" (PAPERS.md) asks of MPI progress; [`in_sched_pass`] says
//! whether the current thread is inside one. A pass steps the machines
//! with something to look at — those readied, those whose own wake hint
//! came due, those just adopted — not every resident ("Ready machines"
//! below). So a frozen instant settles in rounds: actors run until they
//! park → the settling thread makes the owed pass → repeat until nothing
//! is owed → the clock advances.
//!
//! ### Poll order: machine-id order, or a permutation seed
//!
//! A pass steps its batch in machine-id order, or — under
//! `SIM_PERMUTE_SEED` ([`SimClock::with_permute_seed`]) — in an order
//! shuffled by the seed and the instant. Machines step at a frozen
//! instant and communicate only through clock-notifying state, so neither
//! the order nor the thread that polls may move an instant: the committed
//! fingerprint tables (`tests/scheduler.rs`, the clMPI world-level
//! tables, the Himeno and clMPI pin tables) reproduce under any seed, and
//! a seed that moves a row has found an order dependence.
//!
//! ### Ready machines: parked on what the last poll read
//!
//! Nobody annotates a machine with its wake keys. While a pass
//! steps a machine, every [`crate::Monitor`] access (`with`, `peek`,
//! `try_now`) and every explicit [`note_read`] notes its [`WakeKey`] into a
//! thread-local read-set; the set the last fruitless step touched *is*
//! what the machine is parked on, and the pass registers it with the
//! clock (`Registry::reregister`). A notify or alarm of one of those
//! keys marks the machine ready and owes a pass. A wake hint
//! (`Pending(Some(t))`) is a per-machine timer in the slab (`Timers`),
//! with one clock alarm on the scheduler's own key (`WakeKey::SCHED`)
//! per distinct instant, whose firing owes a pass too. A machine whose
//! hint came due and a readied one are stepped alike, through `poll`.
//!
//! Why that is enough: a step is a deterministic function of the state it
//! reads and of `now`. If nothing it read has been notified and no
//! instant it asked for has come, stepping it again would read the same
//! values, return the same verdict and change nothing — so not stepping
//! it reaches the same fixpoint. What recording **cannot** see, and what
//! therefore needs a note by hand:
//!
//! * *State outside a `Monitor`* — a raw atomic, a plain mutex. Whoever
//!   changes it must notify a key the reader noted with [`note_read`].
//!   (A job queue the clock runs itself, [`SimClock::progress_key`], is
//!   read by nobody: its jobs fill in monitors.)
//! * *Instants* — a verdict that flips when `now` passes some instant
//!   for which the machine returned no hint. Somebody must schedule an
//!   alarm for that instant on a key the step notes: a fault plan's kill
//!   and restart instants are alarms on the plan's own key
//!   (`simnet::Fabric::node_down_at`).
//!
//! The rule: **if a step's outcome can change, a notify or an alarm on
//! something it read must say so.** A missed key is a machine the
//! deadlock report names (`[keyed: n key(s), no timer]`).
//!
//! ### One wait, two drivers
//!
//! A predicate that notes what it read and says "not yet" is a
//! [`Future::poll`] with a read-set, so a waiting body is written once, as
//! a future ([`until`] over a check, [`SimClock::sleep_until`], `async`),
//! and polled with [`Waker::noop`] by either driver. The *machine driver*,
//! [`SimClock::spawn_task`], steps it as a machine: parked on what the
//! poll read, and on a slab timer at the instant a sleep noted
//! ([`note_wake_at`]). The *thread driver*, [`Actor::block_on`], parks
//! the calling thread through [`Actor::wait_on`] on the same read-set,
//! plus its own alarm at that instant. Nothing wakes a waker: a notify
//! of a noted key does.

use std::cell::{Cell, RefCell};
use std::collections::btree_map::{BTreeMap, Entry};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

use crate::clock::{Actor, MachineId, SimClock, WakeKey};
use crate::{SimNs, XorShift64};

/// Verdict of one [`SimActor::poll`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStep {
    /// The machine cannot progress further at this instant. `Some(t)`
    /// requests a wake-up at the strictly-future instant `t` (a timer of
    /// the machine's own, in addition to whatever it read); `None` relies
    /// on notifies and alarms of what the step read alone. A machine that could settle now must keep
    /// stepping internally instead of parking.
    Pending(Option<SimNs>),
    /// The machine finished; the pass retires it.
    Done,
}

/// A resumable actor state machine, executed by [`SimClock::spawn_machine`].
///
/// `poll` runs at a frozen virtual instant and must never block: the
/// machine advances its internal state as far as it can (to a fixpoint)
/// and then parks. All cross-machine communication goes through the
/// clock-notifying primitives in [`crate::sync`], which is what guarantees
/// a parked machine is re-polled whenever anything it read changes (see
/// the module notes for what a step must [`note_read`] by hand).
pub trait SimActor: Send {
    /// Label shown in deadlock diagnostics while the machine is parked.
    fn wait_label(&self) -> &'static str;

    /// Advance as far as possible at virtual instant `now`. `actor` is the
    /// pass's handle on the clock, registered as no actor: machines may use
    /// it for non-blocking calls but must never park or sleep it.
    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep;
}

/// Read `SIM_PERMUTE_SEED`: unset or empty means a pass steps its batch
/// in machine-id order; anything else must be a `u64`, the seed of the
/// order a pass steps its batch in instead. A malformed value panics: a
/// typo must not silently turn a permutation run into a plain one.
pub(crate) fn permute_seed_from_env() -> Option<u64> {
    let v = std::env::var("SIM_PERMUTE_SEED")
        .ok()
        .filter(|v| !v.is_empty())?;
    let seed = v
        .parse()
        .unwrap_or_else(|_| panic!("SIM_PERMUTE_SEED={v:?}: expected an unsigned integer"));
    Some(seed)
}

/// Shuffle a pass's batch (Fisher–Yates). The stream is a function of the
/// seed and the instant alone, so a permuted run replays exactly however
/// many passes the host happens to schedule at that instant.
fn permute(batch: &mut [MachineId], seed: u64, now: SimNs) {
    let mut rng = XorShift64::new(seed ^ now.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..batch.len()).rev() {
        batch.swap(i, rng.gen_range_usize(0, i + 1));
    }
}

std::thread_local! {
    /// Set while this thread runs a scheduler pass. Lets drop paths that
    /// must not wait on the machines (e.g. the clMPI runtime's self-drain
    /// guard) recognize they are running *inside* one.
    static IN_PASS: Cell<bool> = const { Cell::new(false) };
    /// Set while a pass or [`Actor::block_on`] polls: [`note_read`] and
    /// [`note_wake_at`] record into the two cells below only then.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// The read-set of the machine or future being polled.
    static READS: RefCell<Vec<WakeKey>> = const { RefCell::new(Vec::new()) };
    /// The earliest instant the future being polled noted.
    static WAKE_AT: Cell<Option<SimNs>> = const { Cell::new(None) };
}

/// True when the current thread is inside a scheduler pass.
pub fn in_sched_pass() -> bool {
    IN_PASS.with(|f| f.get())
}

/// Sets a thread-local flag for its lifetime, unwinding included: the
/// thread is in a pass ([`IN_PASS`]), recording what it reads
/// ([`RECORDING`]).
struct Flag(&'static std::thread::LocalKey<Cell<bool>>);

impl Flag {
    fn set(key: &'static std::thread::LocalKey<Cell<bool>>) -> Self {
        key.set(true);
        Flag(key)
    }
}

impl Drop for Flag {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

/// Note that the code running now read the state `key` names, for state
/// that lives outside a [`crate::Monitor`] (which notes its own key): if
/// a driver is polling a machine or a future, it will be polled again
/// when `key` is notified or an alarm carrying it fires. Costs one
/// thread-local load anywhere else.
pub fn note_read(key: WakeKey) {
    if RECORDING.get() {
        READS.with(|r| {
            let mut r = r.borrow_mut();
            if r.last() != Some(&key) {
                r.push(key);
            }
        });
    }
}

/// The time half of [`note_read`]: the future being polled waits for the
/// instant `t`. Its driver wakes it then (a task's slab timer, a blocked
/// thread's own alarm), so nobody schedules a keyed alarm for it.
pub fn note_wake_at(t: SimNs) {
    if RECORDING.get() {
        WAKE_AT.set(Some(WAKE_AT.get().map_or(t, |w| w.min(t))));
    }
}

/// Poll `fut` once, as both drivers do: `Ok` with its output, or, pending,
/// `Err` with the earliest instant it noted ([`note_wake_at`]). Its reads
/// are noted as usual, so a machine polling a future in its step parks
/// on them.
pub fn poll_future<F: Future + ?Sized>(fut: Pin<&mut F>) -> Result<F::Output, Option<SimNs>> {
    let outer = WAKE_AT.replace(None);
    let polled = fut.poll(&mut Context::from_waker(Waker::noop()));
    let wake = WAKE_AT.replace(outer);
    match polled {
        Poll::Ready(v) => Ok(v),
        Poll::Pending => Err(wake),
    }
}

/// [`poll_future`] on a thread outside any pass ([`Actor::block_on`]),
/// recording what it read into `reads`.
pub(crate) fn poll_recording<F: Future + ?Sized>(
    fut: Pin<&mut F>,
    reads: &mut Vec<WakeKey>,
) -> Result<F::Output, Option<SimNs>> {
    debug_assert!(
        !RECORDING.get(),
        "block_on inside a poll: a poll must not block"
    );
    let recording = Flag::set(&RECORDING);
    READS.with(|r| r.borrow_mut().clear());
    let polled = poll_future(fut);
    drop(recording);
    take_reads(reads);
    polled
}

/// Move the read-set just recorded into `into`, sorted and duplicate-free.
fn take_reads(into: &mut Vec<WakeKey>) {
    READS.with(|r| std::mem::swap(&mut *r.borrow_mut(), into));
    into.sort_unstable();
    into.dedup();
}

/// A future over a non-blocking check, ready with its value once it
/// returns `Some`: a [`Actor::wait_on`] predicate that names no keys.
pub fn until<T>(mut check: impl FnMut() -> Option<T>) -> impl Future<Output = T> {
    std::future::poll_fn(move |_| check().map_or(Poll::Pending, Poll::Ready))
}

/// A future as a machine ([`SimClock::spawn_task`]).
pub(crate) struct Task<F> {
    pub(crate) wait_label: &'static str,
    pub(crate) fut: Pin<Box<F>>,
}

impl<F: Future<Output = ()> + Send> SimActor for Task<F> {
    fn wait_label(&self) -> &'static str {
        self.wait_label
    }

    fn poll(&mut self, _now: SimNs, _actor: &Actor) -> MachineStep {
        match poll_future(self.fut.as_mut()) {
            Ok(()) => MachineStep::Done,
            Err(wake) => MachineStep::Pending(wake),
        }
    }
}

/// Wake hints machines asked for and have not been stepped for yet: per
/// instant, the machines to step then. A machine may be listed twice for
/// one instant (callers skip only an immediate repeat, see [`Armed`]);
/// whoever pops sorts that out.
#[derive(Default)]
pub(crate) struct Timers {
    at: BTreeMap<SimNs, Vec<MachineId>>,
    /// The list of the instant popped last, kept for the next new one.
    spare: Vec<MachineId>,
}

/// The instant a machine armed last: a machine that parks on the same
/// hint poll after poll — the common case — arms it once.
type Armed = Option<SimNs>;

impl Timers {
    /// Move the machines with a hint due at `now` into `batch`.
    fn pop_due(&mut self, now: SimNs, batch: &mut Vec<MachineId>) {
        while let Some(first) = self.at.first_entry().filter(|e| *e.key() <= now) {
            self.spare = first.remove();
            batch.append(&mut self.spare);
        }
    }

    /// Arm `m`'s hint `t` unless it is the one `m` armed last. True when
    /// no machine had a hint for that instant yet, i.e. the caller owes
    /// the clock an alarm for it.
    fn arm(&mut self, t: SimNs, m: MachineId, armed: &mut Armed) -> bool {
        if armed.replace(t) == Some(t) {
            return false;
        }
        match self.at.entry(t) {
            Entry::Vacant(e) => {
                let list = e.insert(std::mem::take(&mut self.spare));
                list.push(m);
                true
            }
            Entry::Occupied(mut e) => {
                e.get_mut().push(m);
                false
            }
        }
    }

    fn earliest_of(&self, m: MachineId) -> Option<SimNs> {
        let mut armed = self.at.iter().filter(|(_, list)| list.contains(&m));
        armed.next().map(|(&t, _)| t)
    }

    /// Drop the hints of a machine that finished.
    fn forget(&mut self, m: MachineId) {
        for list in self.at.values_mut() {
            list.retain(|&id| id != m);
        }
    }
}

/// One machine resident in the slab.
struct Slot {
    label: String,
    body: Box<dyn SimActor>,
    /// The hint it armed last.
    armed: Armed,
    /// What the machine is parked on: the keys its last registered poll
    /// read, sorted — its entries in the clock's machine registry.
    keys: Vec<WakeKey>,
    /// The read-set of the poll just made (scratch; swapped with the
    /// thread-local buffer and with `keys`, so steady state allocates
    /// nothing).
    read: Vec<WakeKey>,
}

/// The machines of one clock: those waiting to be adopted plus those
/// resident. Guarded by its own mutex so spawners never contend on the
/// clock lock, and so the deadlock reporter can inspect it (via
/// `try_lock`) while holding the clock lock. Lock order: slab, then
/// clock — a pass holds the slab and takes the clock lock inside it;
/// nothing takes them the other way.
#[derive(Default)]
pub(crate) struct Slab {
    /// Machines handed to the event core, not yet polled.
    incoming: Vec<(String, Box<dyn SimActor>)>,
    /// The resident machines, by [`MachineId`]; `None` is a free id.
    resident: Vec<Option<Slot>>,
    /// The residents' pending wake hints. The clock holds one alarm on
    /// [`WakeKey::SCHED`] per distinct instant in here.
    timers: Timers,
    /// The machines a pass steps, in id order unless the clock has a
    /// permutation seed ([`SimClock::with_permute_seed`]); scratch kept
    /// across passes, as are `changed` and `done`.
    batch: Vec<MachineId>,
    /// Those whose read-set differs from what the registry holds.
    changed: Vec<MachineId>,
    /// Those that finished.
    done: Vec<MachineId>,
}

impl Slab {
    /// Queue a machine for adoption by the next pass.
    pub(crate) fn enqueue(&mut self, label: String, body: Box<dyn SimActor>) {
        self.incoming.push((label, body));
    }

    /// Give a machine the lowest free id.
    fn adopt(&mut self, label: String, body: Box<dyn SimActor>) -> MachineId {
        let slot = Some(Slot {
            label,
            body,
            armed: None,
            keys: Vec::new(),
            read: Vec::new(),
        });
        match self.resident.iter().position(Option::is_none) {
            Some(free) => {
                self.resident[free] = slot;
                free as MachineId
            }
            None => {
                self.resident.push(slot);
                (self.resident.len() - 1) as MachineId
            }
        }
    }

    /// Deadlock-report lines: every parked machine with what it is
    /// parked on. Empty for an idle slab.
    pub(crate) fn report(&self) -> Vec<String> {
        let live = self.resident.iter().flatten().count();
        if live == 0 && self.incoming.is_empty() {
            return Vec::new();
        }
        let mut lines = vec![format!(
            "  scheduler: {live} parked + {} queued machine(s)",
            self.incoming.len()
        )];
        for (m, slot) in self.resident.iter().enumerate() {
            let Some(slot) = slot else { continue };
            let timer = match self.timers.earliest_of(m as MachineId) {
                Some(t) => format!("timer t={t}"),
                None => "no timer".into(),
            };
            let keys = slot.keys.len();
            lines.push(format!(
                "    {} [keyed: {keys} key(s), {timer}]",
                slot.label
            ));
        }
        lines.extend(
            self.incoming
                .iter()
                .map(|(label, _)| format!("    {label} [queued]")),
        );
        lines
    }

    /// One frozen-instant pass over the slab: step the machines that
    /// were marked ready, those with a hint due and those just adopted —
    /// not every resident — and register what each is now parked on.
    ///
    /// Machines progressing mid-pass notify the clock themselves; a
    /// notify that readies a machine owes the next pass, which the
    /// settling thread runs once whoever the notifies woke has parked
    /// again — that re-pass, not an inner loop, is what drives
    /// same-instant cross-machine chains.
    fn pass(&mut self, actor: &Actor, clock: &SimClock) {
        let now = clock.now_ns();
        self.batch.clear();
        // Adopt machines spawned since the last pass. They are polled at
        // this very instant: a spawn owes a pass, so the clock cannot
        // have advanced past the spawn instant.
        for (label, body) in std::mem::take(&mut self.incoming) {
            let m = self.adopt(label, body);
            self.batch.push(m);
        }
        let Slab {
            resident,
            timers,
            batch,
            changed,
            done,
            ..
        } = self;
        timers.pop_due(now, batch);
        let gen = clock.take_ready(batch);
        batch.sort_unstable();
        batch.dedup();
        if let Some(seed) = clock.permute_seed() {
            permute(batch, seed, now);
        }
        let mut polls = 0;
        for &m in batch.iter() {
            // Retirement takes a machine off every list batches are built
            // from, so the slot is always there.
            let Some(slot) = resident[m as usize].as_mut() else {
                continue;
            };
            READS.with(|r| r.borrow_mut().clear());
            polls += 1;
            let step = slot.body.poll(now, actor);
            debug_assert!(
                !matches!(step, MachineStep::Pending(Some(t)) if t <= now),
                "machines must progress, not park, when due"
            );
            match step {
                MachineStep::Done => done.push(m),
                MachineStep::Pending(hint) => {
                    if let Some(t) = hint.filter(|&t| t > now) {
                        if timers.arm(t, m, &mut slot.armed) {
                            clock.schedule_alarm_keyed(t, WakeKey::SCHED);
                        }
                    }
                    take_reads(&mut slot.read);
                    if slot.read != slot.keys {
                        changed.push(m);
                    }
                }
            }
        }
        clock.count_polls(polls);
        // A poll that read what its machine is registered on already
        // needs nothing: the registration stood all along, so no notify
        // of those keys was lost. Most passes end without this lock.
        if !(changed.is_empty() && done.is_empty()) {
            let mut registry = clock.registry(gen);
            for m in changed.drain(..) {
                if let Some(slot) = resident[m as usize].as_mut() {
                    registry.reregister(m, &slot.keys, &slot.read);
                    std::mem::swap(&mut slot.keys, &mut slot.read);
                }
            }
            for &m in done.iter() {
                if let Some(slot) = resident[m as usize].as_ref() {
                    registry.retire(m, &slot.keys);
                }
            }
        }
        // Dropped outside the clock lock: a machine's drop may notify.
        for m in done.drain(..) {
            resident[m as usize] = None;
            timers.forget(m);
        }
    }
}

/// Run one pass on the calling thread: the clock owes one, and the
/// caller settled the round (`SimClock::maybe_advance`, which counts it
/// runnable meanwhile and holds no lock). The machines get a handle that
/// is registered as no actor; if one of them panics, that handle's drop
/// poisons the clock on the way out.
pub(crate) fn run_pass(clock: &SimClock) {
    let (_in_pass, _recording) = (Flag::set(&IN_PASS), Flag::set(&RECORDING));
    let actor = Actor::for_pass(clock);
    clock.slab().lock().pass(&actor, clock);
}

/// What [`SimClock::spawn_machine`] returns. There is nothing to hold:
/// a machine retires inside a pass when it reports [`MachineStep::Done`].
pub struct MachineHandle;

impl MachineHandle {
    /// Does nothing; kept because `benchmark/src/probes.rs` calls it
    /// (ROADMAP, leftovers).
    pub fn reap(self) {}
}
