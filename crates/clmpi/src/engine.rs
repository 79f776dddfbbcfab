//! The per-rank progress engine: one long-lived runtime actor that drives
//! every in-flight clMPI operation as an explicit state machine.
//!
//! ### Why an engine (paper §V-A, revisited)
//!
//! The paper's runtime executes communication commands on an internal
//! thread so the host thread is never blocked. This module is that
//! architecture: a single per-rank progress thread that multiplexes
//! **all** outstanding work — chunked transfers, MPI request wrappers,
//! collective fan-outs, file I/O, and retry/backoff timers — as
//! cooperative state machines.
//!
//! ### Execution model
//!
//! What the engine steps is an [`EngineOp`]: a `step` function that runs
//! at the engine's current virtual instant and returns a [`Step`]
//! verdict. The engine actor evaluates all registered machines to a
//! fixpoint at one frozen instant, then blocks until either a clock
//! notification (event completed, message matched, new submission) or
//! one of the future instants the machines asked to be woken at (retry
//! backoff expiry, injection end, staging completion) — scheduled as
//! thread-less clock alarms, never as a parked thread.
//!
//! **The engine never blocks inside a machine.** A machine that needs a
//! future instant *parks* with a wake hint; a machine that needs another
//! actor's progress parks without one and relies on the clock's notify
//! protocol. This is what the repo's CI lint enforces: this file must
//! contain no blocking wait, no blocking receive, and no virtual-time
//! sleep — the only places the data plane may touch virtual time are
//! reservation timelines and alarms.
//!
//! ### One frame, many bodies
//!
//! The paper's runtime treats every command the same way — wait for the
//! event list, move the data by the chosen strategy, complete the user
//! event — and so does this file: every event-backed command is an
//! [`OpBody`] run by the one [`OpFrame`], which owns, exactly once,
//!
//! * the **gate**: the wait list is polled until every event settles; a
//!   failed dependency poisons the command with −14 without running the
//!   body (the four file commands carry `poison: false` and are only
//!   ordered by their list);
//! * **when an outcome becomes visible**: a success at its instant (the
//!   frame parks until then), a failure at once, stamped with its instant;
//! * the **settlement**: result slot, envelope span, `ObsCounters`, and
//!   the user event with its `CL_MPI_TRANSFER_ERROR` / −14 mapping. The
//!   body is dropped *before* that, so a receive it still has posted
//!   ([`ChunkRecv`] cancels on drop) is withdrawn before anyone can see
//!   the outcome and reuse the tag.
//!
//! A body is ordinary Rust, not a stage list — a broadcast relay drains
//! its forward queue *while* awaiting the next chunk, a ring round
//! advances a send queue and a segment receive together — composing the
//! shared primitives: [`SendQueue`] of [`ReliableChunkSend`]s (the one
//! chunk loop with retry, backoff and degradation), [`ChunkRecv`] (posted
//! receive + patience + dead-peer fast-fail) and the [`CountedRecv`] built
//! on it (a payload drained by byte count: the one bound check, repost,
//! `(offset, chunk)` to the body), [`Hop`] (reserve a PCIe or pack-kernel
//! hop, record its `stage.*` span), and `fileio`'s `DiskWait`. Bodies
//! tell the ledger and selectors themselves, where the last chunk lands
//! or the transfer fails; a poisoned gate never reaches a body, so it
//! reaches no selector. DESIGN.md §8c has the table of all operations and
//! the traps (what is byte-visible about *when* a body reserves, posts
//! and records).
//!
//! A body loads a payload ([`load`]), hands it to the wire as an `Arc`,
//! and has it back only if the fabric refuses it. A point-to-point
//! payload has one owner at a time; a broadcast chunk is shared by every
//! child and every relay's device buffer. So a byte is copied where the
//! model has a hop and somebody reads it, nowhere else (DESIGN.md §8d
//! has the count per operation).
//!
//! [`HostSendOp`] (`isend_cl`) is the one operation that keeps its own
//! `impl EngineOp`; its doc says why.
//!
//! ### Determinism
//!
//! Submissions are handled at the submitting actor's *current* virtual
//! instant: `submit` notifies the clock, and the clock cannot advance
//! until every blocked actor — the engine included — has re-evaluated its
//! predicate. Within one engine, machines step in FIFO submission order,
//! which makes same-instant resource reservations deterministic per rank
//! (one thread per command would race them).

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use minicl::{
    Buffer, ClError, ClResult, Device, Event, HostBuffer, UserEvent, WaitListStatus,
    CL_MPI_TRANSFER_ERROR, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST,
};
use minimpi::{
    CommittedType, Datatype, DropReason, MpiError, Rank, RecvResult, ReduceOp, Request,
    RetryPolicy, RmaHandle, RmaPoll, RmaRoute, Tag, Win,
};
use simtime::{Actor, MachineStep, Monitor, OpSpan, SimActor, SimClock, SimNs};

use crate::obs::{ChildIds, FaultStats, Via};
use crate::runtime::Inner;
use crate::strategy::{PackMode, ResolvedStrategy, TransferStrategy};

// ----------------------------------------------------------------------
// Engine core
// ----------------------------------------------------------------------

/// Verdict of one [`EngineOp::step`] call at the engine's current instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing to do right now. `Some(t)` asks for a wake-up at the
    /// strictly-future instant `t` (a retry backoff expiry, an injection
    /// end); `None` means "wake me on any cross-actor notification"
    /// (an event completing, a message matching). A machine that can do
    /// more at the current instant does it before returning — a `step`
    /// runs as far as it can — so every operation is worth exactly one
    /// scheduler event, its `Done`.
    Park(Option<SimNs>),
    /// The operation finished (its event settled, its result landed);
    /// the engine unregisters it.
    Done,
}

/// An in-flight operation driven by the engine. Implementations are
/// state machines: `step` runs at a frozen virtual instant, must never
/// block, and reports how the engine should treat the machine next.
pub(crate) trait EngineOp: Send {
    /// Advance the machine as far as possible at virtual instant `now`.
    /// `actor` is the engine's own clock actor: machines may use it to
    /// post non-blocking MPI calls, but must never park it.
    fn step(&mut self, now: SimNs, actor: &Actor) -> Step;
}

#[derive(Default)]
struct EngineShared {
    /// Newly submitted machines, drained by the worker at the
    /// submission instant.
    incoming: Vec<Box<dyn EngineOp>>,
    /// Machines submitted but not yet finished (incoming + registered).
    active: usize,
    /// Once set, the worker exits as soon as every machine finishes.
    shutdown: bool,
}

/// The per-rank progress engine. Owns one machine (`EngineCore`) on the
/// clock's scheduler that steps every registered [`EngineOp`] to
/// completion.
pub(crate) struct Engine {
    shared: Arc<Monitor<EngineShared>>,
}

impl Engine {
    /// Start an engine on `clock`. The calling thread must be a running
    /// clock actor (the registration rule, [`SimClock::spawn_machine`]).
    pub fn start(clock: &SimClock, label: String) -> Engine {
        let shared = Arc::new(Monitor::new(clock.clone(), EngineShared::default()));
        let core = EngineCore {
            shared: shared.clone(),
            ops: Vec::new(),
        };
        clock.spawn_machine(0, label, Box::new(core));
        Engine { shared }
    }

    /// Register a machine. It is first stepped at the caller's current
    /// virtual instant — the clock cannot advance past the submission
    /// before the engine has seen it.
    pub fn submit(&self, op: Box<dyn EngineOp>) {
        self.shared.with(|s| {
            assert!(!s.shutdown, "clMPI engine already shut down");
            s.active += 1;
            s.incoming.push(op);
        });
    }

    /// Block `actor` (in virtual time) until every submitted machine has
    /// finished.
    pub fn wait_idle(&self, actor: &Actor) {
        self.shared
            // checker-allow(non-blocking-engine): host-side control-plane
            // API (shutdown quiescence); it blocks the *calling* actor,
            // never the engine worker thread.
            .wait_labeled(actor, "clmpi shutdown", |s| (s.active == 0).then_some(()));
    }

    /// Number of machines submitted but not yet finished.
    pub fn active(&self) -> usize {
        self.shared.peek(|s| s.active)
    }
}

impl Drop for Engine {
    /// Ask the machine to exit once its ops drain; it retires on the
    /// scheduler.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // clock is poisoned; the machine dies on its own
        }
        self.shared.with(|s| s.shutdown = true);
    }
}

/// The engine loop as a resumable machine. Every poll happens at a frozen
/// virtual instant (the executor is runnable while stepping); between
/// polls the executor is a blocked actor whose scheduled alarms are
/// eligible to drive the clock. Identical code serves both execution
/// modes, which is what makes their virtual timings indistinguishable.
struct EngineCore {
    shared: Arc<Monitor<EngineShared>>,
    ops: Vec<Box<dyn EngineOp>>,
}

impl SimActor for EngineCore {
    fn wait_label(&self) -> &'static str {
        "clmpi engine"
    }

    fn poll(&mut self, now: SimNs, actor: &Actor) -> MachineStep {
        if let Some(mut newly) = self.shared.try_now(|s| {
            if s.incoming.is_empty() {
                None
            } else {
                Some(std::mem::take(&mut s.incoming))
            }
        }) {
            self.ops.append(&mut newly);
        }
        // The wake hint reported upward: the earliest future instant any
        // op asked for *in the final, progress-free pass* (earlier passes
        // recompute it — a parked op re-reports its hint every pass).
        let mut hint: Option<SimNs> = None;
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            hint = None;
            let mut i = 0;
            while i < self.ops.len() {
                match self.ops[i].step(now, actor) {
                    Step::Park(h) => {
                        if let Some(t) = h {
                            debug_assert!(t > now, "machines must progress, not park, when due");
                            if t > now {
                                hint = Some(hint.map_or(t, |c: SimNs| c.min(t)));
                            }
                        }
                        i += 1;
                    }
                    Step::Done => {
                        let op = self.ops.remove(i);
                        // Count only completions: idle re-polls of parked
                        // ops are free, so the count is a property of the
                        // scenario, not of the host's wake-up pattern. And
                        // count before `active` says so: a rank that sees
                        // zero may return and let the world read the sum.
                        actor.clock().count_events(1);
                        // Decrement while the op is still alive: dropping
                        // it may release the last handle on the runtime,
                        // whose drop path reads this counter.
                        self.shared.with(|s| s.active -= 1);
                        drop(op);
                        made_progress = true;
                    }
                }
            }
        }
        if self.ops.is_empty() && self.shared.peek(|s| s.shutdown && s.incoming.is_empty()) {
            MachineStep::Done
        } else {
            MachineStep::Pending(hint)
        }
    }
}

// ----------------------------------------------------------------------
// The op frame
// ----------------------------------------------------------------------

/// Where a machine reports its final result when a caller is blocked on
/// it (the gpu-aware comparator paths). The event carries the same
/// outcome for event-ordered callers.
pub(crate) type ResultSlot = Arc<Monitor<Option<ClResult<()>>>>;

/// What an operation leaves behind when it settles: its envelope span on
/// the rank's `host` track — the span exporters pair into causal
/// send→recv links — and the payload bytes a success adds to
/// [`crate::obs::ObsCounters`].
pub(crate) struct Envelope {
    pub(crate) cat: &'static str,
    pub(crate) name: String,
    pub(crate) bytes: u64,
    pub(crate) peer: Option<Rank>,
    pub(crate) tag: Option<Tag>,
    /// Payload bytes counted as sent / received when the op succeeds.
    pub(crate) sent: u64,
    pub(crate) received: u64,
}

impl Envelope {
    /// An envelope with no payload and no wire tag — all a control-plane
    /// span (failure notice, revoke, shrink) or a fence has; transfers
    /// fill the rest in.
    pub(crate) fn new(cat: &'static str, name: String, peer: Option<Rank>) -> Self {
        Envelope {
            cat,
            name,
            bytes: 0,
            peer,
            tag: None,
            sent: 0,
            received: 0,
        }
    }
}

/// Record a top-level envelope on the rank's `host` track: `start` →
/// `end` under the id block `ids`, with the outcome `ok`.
pub(crate) fn record_envelope(
    inner: &Inner,
    ids: &ChildIds,
    env: Envelope,
    start: SimNs,
    end: SimNs,
    ok: bool,
) {
    let rank = inner.comm.rank();
    inner.trace.record_op(OpSpan {
        id: ids.op(),
        parent: None,
        rank: rank as u32,
        track: format!("r{rank}.host"),
        name: env.name,
        cat: env.cat.into(),
        start,
        end: end.max(start),
        bytes: env.bytes,
        ok,
        peer: env.peer.map(|p| p as u32),
        tag: env.tag,
    });
}

/// The observability identity of one operation.
struct OpObs {
    ids: ChildIds,
    submit_ns: SimNs,
    env: Envelope,
}

/// What a body — and every primitive it calls — knows of the operation
/// it belongs to: the runtime, the instant its gate opened, and where its
/// spans go.
pub(crate) struct OpCx {
    pub(crate) inner: Arc<Inner>,
    /// The instant the wait list let the body run (every duration the
    /// ledger and selectors hear is measured from here).
    pub(crate) t0: SimNs,
    /// `None` for the two untraced file commands (`enqueue_write_file` /
    /// `enqueue_read_file`): no id block, no envelope, no counters.
    obs: Option<OpObs>,
}

impl OpCx {
    /// Context of an operation — traced when it has an envelope, which
    /// allocates its id block (and counts the submission) on the calling
    /// — submitting — thread.
    pub(crate) fn new(inner: &Arc<Inner>, env: Option<Envelope>) -> Self {
        let obs = env.map(|env| OpObs {
            ids: inner.new_op(),
            submit_ns: inner.clock.now_ns(),
            env,
        });
        OpCx {
            inner: inner.clone(),
            t0: 0,
            obs,
        }
    }

    /// The envelope, for the few bodies that only learn part of it while
    /// running (a wrapped request's payload size, why a restore failed).
    pub(crate) fn env_mut(&mut self) -> Option<&mut Envelope> {
        self.obs.as_mut().map(|o| &mut o.env)
    }

    /// Record a child span (a chunk, retry, drop, or staging hop) under
    /// the operation's id block, on the rank's `net` or `dev` track.
    pub(crate) fn child(
        &mut self,
        track_kind: &str,
        name: String,
        cat: &str,
        (start, end): (SimNs, SimNs),
        bytes: u64,
        ok: bool,
    ) {
        let Some(obs) = self.obs.as_mut() else { return };
        let rank = self.inner.comm.rank();
        self.inner.trace.record_op(OpSpan {
            id: obs.ids.child(),
            parent: Some(obs.ids.op()),
            rank: rank as u32,
            track: format!("r{rank}.{track_kind}"),
            name,
            cat: cat.into(),
            start,
            end: end.max(start),
            bytes,
            ok,
            peer: None,
            tag: None,
        });
    }

    // One writer per kind of fault: each bumps the rank's ledger and
    // records the child span, so counters and spans cannot disagree.

    fn faults(&self, f: impl FnOnce(&mut FaultStats)) {
        f(&mut self.inner.ledger.lock().counters.faults);
    }

    /// A wire chunk of `bytes` bytes was lost over `span`.
    fn dropped(&mut self, reason: DropReason, name: String, span: Span, bytes: u64) {
        self.faults(|f| f.note_drop(reason));
        self.child("net", name, "drop", span, bytes, false);
    }

    /// A lost chunk is retransmitted; `span` is its backoff.
    fn retried(&mut self, name: String, span: Span, bytes: u64) {
        self.faults(|f| f.retries += 1);
        self.child("net", name, "retry", span, bytes, true);
    }

    /// The loss streak latched pipelined→pinned resolution at `at`.
    fn degraded(&mut self, at: SimNs) {
        let name = "degrade pipelined→pinned";
        self.faults(|f| f.degraded += 1);
        self.inner.trace.record(self.fault_lane(), name, at, at);
        self.child("net", name.into(), "degrade", (at, at), 0, false);
    }

    /// The operation observed a dead peer process at `at` (ULFM
    /// `MPI_ERR_PROC_FAILED` class): a permanent failure, with the
    /// `op.failure` span that [`crate::obs::ObsSummary`] folds into the
    /// recovery counters, separately from the ordinary op counters.
    pub(crate) fn proc_failure(&mut self, peer: Rank, at: SimNs) {
        self.faults(|f| {
            f.failures += 1;
            f.proc_failures += 1;
        });
        let name = format!("proc-failure r{peer}");
        self.child("host", name, "op.failure", (at, at), 0, false);
    }

    /// The transfer failed permanently for any other reason — retry
    /// budget exhausted, receiver or epoch patience expired. The failed
    /// envelope is its span.
    fn gave_up(&self) {
        self.faults(|f| f.failures += 1);
    }

    /// A one-sided operation ended with `err` at `at`: a dead peer is a
    /// ULFM-class process failure, anything else is giving up.
    fn rma_failed(&mut self, err: &MpiError, at: SimNs) {
        match *err {
            MpiError::ProcFailed { rank } => self.proc_failure(rank, at),
            _ => self.gave_up(),
        }
    }

    /// The operation's last chunk landed `dur_ns` after its gate opened:
    /// book which path carried its `bytes` bytes.
    pub(crate) fn landed(&self, direction: &'static str, via: Via, bytes: usize, dur_ns: SimNs) {
        let mut ledger = self.inner.ledger.lock();
        ledger.counters.note_transfer(direction, via, bytes, dur_ns);
    }

    fn fault_lane(&self) -> String {
        format!("r{}.fault", self.inner.comm.rank())
    }

    /// Close the operation's books, once: its envelope (submit instant →
    /// `at`) and the live counters.
    pub(crate) fn close(&mut self, ok: bool, at: SimNs) {
        let Some(OpObs {
            ids,
            submit_ns,
            env,
        }) = self.obs.take()
        else {
            return;
        };
        let (sent, received) = if ok { (env.sent, env.received) } else { (0, 0) };
        record_envelope(&self.inner, &ids, env, submit_ns, at, ok);
        let mut ledger = self.inner.ledger.lock();
        ledger.counters.note_settled(ok, sent, received);
    }
}

/// What a body reports from one [`OpBody::advance`] call.
pub(crate) enum Advance {
    /// Nothing more to do at this instant: `Some(t)` asks for a wake-up at
    /// the strictly-future instant `t`, `None` waits for a notification.
    Park(Option<SimNs>),
    /// The work is done and becomes observable at the carried instant
    /// (the frame parks until then before completing the event).
    Done(SimNs),
    /// The work failed; the failure settles at once, stamped with the
    /// carried instant (which may lie ahead of `now` — dependants poll
    /// wait lists, so parking a failure would move time).
    Failed(ClError, SimNs),
}

/// The part of an operation that differs from every other one: what it
/// moves and how. Run by an [`OpFrame`] once the wait list has let it; a
/// body is ordinary Rust composing the shared primitives below
/// ([`SendQueue`], [`ChunkRecv`], [`Hop`]) and never touches the user
/// event, the envelope or the counters itself.
pub(crate) trait OpBody: Send {
    /// Run as far as possible at the frozen instant `now`. Never blocks;
    /// `actor` is the engine's own clock actor, for posting non-blocking
    /// MPI calls.
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance;
}

/// How an operation is submitted: everything about it that is not its
/// body.
pub(crate) struct OpSpec<'a> {
    /// Label of the user event handed back to the caller.
    pub(crate) event: String,
    pub(crate) wait: &'a [Event],
    /// Gate kind: does a failed dependency poison the command with −14
    /// (`true`), or does the wait list only order it (`false` — the four
    /// file commands, which run whatever their dependencies came to)?
    pub(crate) poison: bool,
    /// `None` submits the command untraced (see [`OpCx`]).
    pub(crate) env: Option<Envelope>,
    pub(crate) result: Option<ResultSlot>,
}

impl<'a> OpSpec<'a> {
    /// The protocol of every command but the file ones: traced, and
    /// poisoned by a failed dependency.
    pub(crate) fn gated(event: String, env: Envelope, wait: &'a [Event]) -> Self {
        OpSpec {
            event,
            wait,
            poison: true,
            env: Some(env),
            result: None,
        }
    }
}

/// Every event-backed operation: the one place that owns the wait-list
/// gate, the rule for when an outcome becomes visible, and the
/// settlement (envelope, counters, result slot, user event and its
/// error-code mapping).
pub(crate) struct OpFrame<B> {
    cx: OpCx,
    wait: Vec<Event>,
    poison: bool,
    gated: bool,
    ue: UserEvent,
    result: Option<ResultSlot>,
    /// `Some` until the body reports. Dropped the moment it does, so what
    /// it still holds — a posted receive above all — is released *before*
    /// the outcome is visible to anyone who might reuse the tag.
    body: Option<B>,
    done_at: SimNs,
}

impl<B: OpBody + 'static> OpFrame<B> {
    /// Wrap `body` in a frame, hand it to `inner`'s engine and return
    /// the event that will carry its outcome.
    pub(crate) fn submit(inner: &Arc<Inner>, spec: OpSpec<'_>, body: B) -> Event {
        let ue = inner.ctx.create_user_event(spec.event);
        let event = ue.event();
        inner.engine.submit(Box::new(OpFrame {
            cx: OpCx::new(inner, spec.env),
            wait: spec.wait.to_vec(),
            poison: spec.poison,
            gated: false,
            ue,
            result: spec.result,
            body: Some(body),
            done_at: 0,
        }));
        event
    }

    fn settle(&mut self, outcome: ClResult<()>, at: SimNs) -> Step {
        if let Some(slot) = &self.result {
            slot.with(|s| *s = Some(outcome.clone()));
        }
        self.cx.close(outcome.is_ok(), at);
        let settled = match outcome {
            Ok(()) => self.ue.set_complete(at),
            // A failed dependency poisons this command, as the queue
            // executor does for ordinary commands.
            Err(ClError::EventFailed { .. }) => self
                .ue
                .set_failed(at, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST),
            Err(_) => self.ue.set_failed(at, CL_MPI_TRANSFER_ERROR),
        };
        settled.expect("an operation's event settles once");
        Step::Done
    }
}

impl<B: OpBody + 'static> EngineOp for OpFrame<B> {
    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        if !self.gated {
            // `Pending` until *every* event settles, then the first
            // failure in list order, or `Ready`. An empty list is `Ready`.
            match Event::poll_wait_list(&self.wait) {
                WaitListStatus::Pending => return Step::Park(None),
                WaitListStatus::Failed { code, label } if self.poison => {
                    // The body never runs: a poisoned gate says nothing
                    // about the strategy, so no selector hears of it.
                    return self.settle(Err(ClError::EventFailed { code, label }), now);
                }
                WaitListStatus::Failed { .. } | WaitListStatus::Ready => {
                    self.gated = true;
                    self.cx.t0 = now;
                }
            }
        }
        if let Some(body) = self.body.as_mut() {
            match body.advance(&mut self.cx, now, actor) {
                Advance::Park(hint) => return Step::Park(hint),
                Advance::Failed(e, at) => {
                    self.body = None;
                    return self.settle(Err(e), at);
                }
                Advance::Done(at) => {
                    self.body = None;
                    self.done_at = at;
                }
            }
        }
        if now < self.done_at {
            return Step::Park(Some(self.done_at));
        }
        self.settle(Ok(()), self.done_at)
    }
}

// ----------------------------------------------------------------------
// Send primitive: one reliable chunk, and the serial queue of them
// ----------------------------------------------------------------------

/// One wire chunk injected reliably: on sender-observed loss (the
/// fabric's link-layer NACK model) the machine enters a virtual-time
/// backoff and retransmits when the engine wakes it, up to the policy's
/// attempt budget. Feeds the degradation latch and the fault counters.
/// The backoff is a real engine-scheduled timer, not a pre-dated
/// reservation.
pub(crate) struct ReliableChunkSend {
    dst: Rank,
    wire_tag: Tag,
    /// The payload while this side holds it: an injection hands it to the
    /// wire, a refusal hands it back for the retransmit (empty meanwhile).
    /// Shared with a broadcast's other children and the relay's own
    /// device buffer, so a further child costs a reference, not a copy.
    bytes: Arc<Vec<u8>>,
    /// Its length, for the spans recorded while the wire has it.
    len: usize,
    duration: Option<SimNs>,
    policy: RetryPolicy,
    attempt: u32,
    /// Set when the drop was caused by a dead endpoint: retransmission
    /// can never succeed, so the machine fails without burning retries.
    peer_dead: bool,
    state: ChunkState,
}

enum ChunkState {
    /// Ready to inject, no earlier than `earliest`.
    Ready { earliest: SimNs },
    /// Posted to the fabric's deferred-send arbiter; polling the request
    /// until the grant decides the injection's fate.
    Injecting { req: Request, earliest: SimNs },
    /// Last injection was dropped; retransmit at `resume_at`.
    Backoff { resume_at: SimNs },
    /// Injection succeeded; the wire is busy until `done_at`.
    Sent { done_at: SimNs },
    /// Retry budget exhausted; the failure is charged at `at`, the end
    /// of the last burned injection.
    Failed { at: SimNs },
}

/// Verdict of one [`ReliableChunkSend::step`].
enum ChunkStep {
    /// State changed; step again at the same instant.
    Progressed,
    /// Waiting for a future instant (backoff expiry or failure charge).
    Park(SimNs),
    /// Delivered; injection ended at the given instant.
    Sent(SimNs),
    /// Permanently failed at the given instant.
    Failed(SimNs),
}

impl ReliableChunkSend {
    /// Take the chunk's payload, snapshot the runtime's current retry
    /// policy (it is read per chunk) and arm the first injection.
    pub(crate) fn new(
        inner: &Inner,
        dst: Rank,
        wire_tag: Tag,
        bytes: Arc<Vec<u8>>,
        earliest: SimNs,
        duration: Option<SimNs>,
    ) -> Self {
        ReliableChunkSend {
            dst,
            wire_tag,
            len: bytes.len(),
            bytes,
            duration,
            policy: *inner.retry.lock(),
            attempt: 0,
            peer_dead: false,
            state: ChunkState::Ready { earliest },
        }
    }

    /// The error of a spent retry budget — or, for a dead peer, of the
    /// `MPI_ERR_PROC_FAILED` class.
    fn exhaustion_error(&self) -> ClError {
        if self.peer_dead {
            return ClError::TransferFailed(format!(
                "{}: chunk on tag {} undeliverable",
                MpiError::ProcFailed { rank: self.dst },
                self.wire_tag
            ));
        }
        ClError::TransferFailed(format!(
            "chunk to rank {} lost {} time(s) on tag {}; retry budget exhausted",
            self.dst, self.policy.max_attempts, self.wire_tag
        ))
    }

    fn step(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> ChunkStep {
        match &self.state {
            ChunkState::Injecting { req, earliest } => {
                let earliest = *earliest;
                // `None` means the clock has not granted the injection
                // yet; the grant notifies the outcome cell
                // `known_completion` reads, which readies this machine.
                // The park hint is the grant instant: the arbiter clamps a
                // stale `earliest` up to the posting instant and grants
                // one tick later, so it is strictly future relative to
                // `now`.
                let Some(done) = req.known_completion() else {
                    return ChunkStep::Park(now.max(earliest) + 1);
                };
                let refused = req.take_refused();
                self.settle_injection(cx, earliest, done, refused)
            }
            &ChunkState::Ready { earliest } => {
                self.attempt += 1;
                let req = cx.inner.comm.isend_raw(
                    actor,
                    self.dst,
                    self.wire_tag,
                    Datatype::ClMem,
                    std::mem::take(&mut self.bytes),
                    earliest,
                    self.duration,
                );
                self.state = ChunkState::Injecting { req, earliest };
                ChunkStep::Progressed
            }
            &ChunkState::Backoff { resume_at } => {
                if now >= resume_at {
                    self.state = ChunkState::Ready {
                        earliest: resume_at,
                    };
                    ChunkStep::Progressed
                } else {
                    ChunkStep::Park(resume_at)
                }
            }
            &ChunkState::Sent { done_at } => ChunkStep::Sent(done_at),
            &ChunkState::Failed { at } => {
                if now >= at {
                    ChunkStep::Failed(at)
                } else {
                    // The time spent trying is charged before the failure
                    // becomes observable.
                    ChunkStep::Park(at)
                }
            }
        }
    }

    /// The injection's grant arrived: delivery, or — with the payload the
    /// fabric `refused` back in hand — dead-peer fast-fail, degradation
    /// latch, retry budget.
    fn settle_injection(
        &mut self,
        cx: &mut OpCx,
        earliest: SimNs,
        done: SimNs,
        refused: Option<(DropReason, Arc<Vec<u8>>)>,
    ) -> ChunkStep {
        let Some((reason, bytes)) = refused else {
            cx.inner.ledger.lock().chunk_delivered();
            self.state = ChunkState::Sent { done_at: done };
            return ChunkStep::Progressed;
        };
        // The chunk burned link time but never reached the peer.
        self.bytes = bytes;
        let len = self.len as u64;
        let name = format!("drop#{}→r{}", self.attempt, self.dst);
        cx.dropped(reason, name, (earliest, done), len);
        if reason == DropReason::NodeDown {
            // Dead endpoint: no retransmission can ever succeed. Fail the
            // transfer now — this is what keeps machines from hanging out
            // a full retry budget per chunk after a rank failure.
            cx.proc_failure(self.dst, done);
            self.peer_dead = true;
            self.state = ChunkState::Failed { at: done };
            return ChunkStep::Progressed;
        }
        let latched = cx.inner.ledger.lock().chunk_lost(self.policy.degrade_after);
        if latched {
            cx.degraded(done);
        }
        if self.attempt == self.policy.max_attempts {
            cx.gave_up();
            self.state = ChunkState::Failed { at: done };
            return ChunkStep::Progressed;
        }
        let resume_at = done.saturating_add(self.policy.backoff_ns(self.attempt));
        let name = format!("retry#{}→r{}", self.attempt, self.dst);
        let lane = cx.fault_lane();
        cx.inner.trace.record(lane, name.as_str(), done, resume_at);
        cx.retried(name, (done, resume_at), len);
        self.state = ChunkState::Backoff { resume_at };
        ChunkStep::Progressed
    }
}

struct QueuedSend {
    send: ReliableChunkSend,
    /// Start of the recorded wire span (the instant the injection was
    /// armed / allowed to begin).
    start: SimNs,
    name: String,
    cat: &'static str,
    /// `SendBody` only — what is recorded when the chunk *lands*, ahead
    /// of its wire span: the staging hops reserved when it was armed,
    /// and everything also as a span on the `r{N}.comm` lane.
    lane: Option<[Option<(Hop, Span)>; 2]>,
}

/// A FIFO of [`ReliableChunkSend`]s driven head-first — the one chunk
/// loop every sending body shares. On a perfect fabric every queued
/// injection resolves in the same engine pass (the fate of an
/// `isend_raw` is known at injection), so serial stepping equals a
/// burst; under faults the head's backoff timer serializes the retries
/// deterministically.
#[derive(Default)]
pub(crate) struct SendQueue {
    q: VecDeque<QueuedSend>,
    /// Latest injection end among completed sends.
    pub(crate) done_at: SimNs,
}

impl SendQueue {
    /// Queue `send`; its wire span is recorded as `name` / `cat` from
    /// `start` once it is delivered.
    pub(crate) fn push(
        &mut self,
        send: ReliableChunkSend,
        start: SimNs,
        name: String,
        cat: &'static str,
    ) {
        self.q.push_back(QueuedSend {
            send,
            start,
            name,
            cat,
            lane: None,
        });
    }

    /// [`SendQueue::push`] for the one body whose chunks also show on
    /// the `r{N}.comm` lane: `staged` are the hops reserved when the chunk
    /// was armed, recorded — with the lane spans — when it lands.
    fn push_staged(
        &mut self,
        send: ReliableChunkSend,
        start: SimNs,
        name: String,
        staged: [Option<(Hop, Span)>; 2],
    ) {
        self.q.push_back(QueuedSend {
            send,
            start,
            name,
            cat: "chunk",
            lane: Some(staged),
        });
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Step the head injection as far as possible at `now`. `Ok(None)`:
    /// queue drained (all injections delivered; the last ends at
    /// `done_at`). `Ok(Some(t))`: head is waiting until `t`. `Err`: head
    /// exhausted its retry budget at the carried instant.
    pub(crate) fn drive(
        &mut self,
        cx: &mut OpCx,
        now: SimNs,
        actor: &Actor,
    ) -> Result<Option<SimNs>, (SimNs, ClError)> {
        while let Some(head) = self.q.front_mut() {
            match head.send.step(cx, now, actor) {
                ChunkStep::Progressed => continue,
                ChunkStep::Park(t) => return Ok(Some(t)),
                ChunkStep::Sent(done) => {
                    let len = head.send.len;
                    let name = std::mem::take(&mut head.name);
                    if let Some(staged) = head.lane {
                        for (hop, span) in staged.into_iter().flatten() {
                            hop.record(cx, span, len, true);
                        }
                        let lane = format!("r{}.comm", cx.inner.comm.rank());
                        cx.inner.trace.record(lane, name.as_str(), head.start, done);
                    }
                    cx.child("net", name, head.cat, (head.start, done), len as u64, true);
                    self.done_at = self.done_at.max(done);
                    self.q.pop_front();
                }
                ChunkStep::Failed(at) => {
                    let e = head.send.exhaustion_error();
                    self.q.clear();
                    return Err((at, e));
                }
            }
        }
        Ok(None)
    }
}

// ----------------------------------------------------------------------
// Receive primitive: one posted chunk
// ----------------------------------------------------------------------

/// One posted matched receive — the receive-side twin of
/// [`ReliableChunkSend`]: the request, the retry policy's per-chunk
/// patience (armed only when the world injects faults, so a perfect
/// fabric waits indefinitely, the seed's blocking-recv semantics, and
/// never wakes on dead timers) and the dead-peer fast-fail. Dropping it
/// while the message has not been taken withdraws the receive, so no
/// failure path can leave one behind for the matcher to feed.
pub(crate) struct ChunkRecv {
    /// `None` once the message has been taken.
    req: Option<Request>,
    /// (expiry instant, patience), read per chunk from the policy.
    deadline: Option<(SimNs, SimNs)>,
}

/// A received wire chunk, its payload the very allocation the sender
/// handed the wire: a broadcast shares it between relays.
pub(crate) type WireChunk = RecvResult<Arc<Vec<u8>>>;

/// What a receive has for its body at one instant: for a [`ChunkRecv`]
/// the chunk, for a multi-chunk receive built on it whatever it yields.
pub(crate) enum RecvPoll<T = WireChunk> {
    /// It is here.
    Ready(T),
    /// Not yet; the wake hint to park with.
    Pending(Option<SimNs>),
}

/// Why a receive gave up. A dead peer and a timeout are already counted
/// (and the dead peer recorded) when returned; an overflow — the peer
/// sent more than was posted — is misuse, no fault of the fabric.
pub(crate) enum RecvFail {
    PeerDead(Rank),
    TimedOut(SimNs),
    Overflow { got: usize, want: usize },
}

impl RecvFail {
    /// The transfer error for a receive described as `what` ("receive
    /// from rank 3 (tag 7)").
    pub(crate) fn into_error(self, what: &str) -> ClError {
        ClError::TransferFailed(match self {
            RecvFail::PeerDead(rank) => format!("{what}: {}", MpiError::ProcFailed { rank }),
            RecvFail::TimedOut(waited_ns) => {
                format!("{what} gave up: {}", MpiError::Timeout { waited_ns })
            }
            RecvFail::Overflow { got, want } => {
                format!("{what} overflowed: got {got} bytes into a {want}-byte receive")
            }
        })
    }
}

impl ChunkRecv {
    /// Post the receive for the next wire chunk from `src` (`None`: any
    /// source) at `now`. A patience that would end past the last instant
    /// sets no deadline.
    pub(crate) fn post(
        inner: &Inner,
        actor: &Actor,
        src: Option<Rank>,
        wire_tag: Tag,
        now: SimNs,
    ) -> Self {
        let req = inner.comm.irecv(actor, src, Some(wire_tag));
        let patience = inner
            .comm
            .world()
            .has_faults()
            .then(|| inner.retry.lock().chunk_timeout_ns);
        ChunkRecv {
            req: Some(req),
            deadline: patience.and_then(|p| Some((now.checked_add(p)?, p))),
        }
    }

    /// Look for the chunk at `now`. `upstream_dead` names a dead process
    /// without which it can never arrive; it is only asked — in this
    /// order, because what a poll reads is what the machine is parked on
    /// — when nothing has arrived and nothing is in flight, and before
    /// the deadline is looked at.
    pub(crate) fn poll(
        &mut self,
        cx: &mut OpCx,
        now: SimNs,
        actor: &Actor,
        upstream_dead: impl FnOnce(&Inner) -> Option<Rank>,
    ) -> Result<RecvPoll, RecvFail> {
        let req = self
            .req
            .as_mut()
            .expect("a taken receive is replaced before the next poll");
        if let Some(result) = req.test_shared(actor) {
            self.req = None;
            return Ok(RecvPoll::Ready(
                result.expect("matched receive yields a payload"),
            ));
        }
        if let Some(at) = req.known_completion() {
            // Matched, in flight: the arrival instant is committed (even
            // past a deadline — retrying a message the fabric already
            // delivered would duplicate it).
            return Ok(RecvPoll::Pending(Some(at.max(now + 1))));
        }
        if let Some(rank) = upstream_dead(&cx.inner) {
            // Nothing in flight and the source is gone: abort now
            // instead of waiting out the chunk patience (ULFM lets a
            // failed peer fail pending communication).
            cx.proc_failure(rank, now);
            return Err(RecvFail::PeerDead(rank));
        }
        match self.deadline {
            Some((at, patience)) if now >= at => {
                cx.gave_up();
                Err(RecvFail::TimedOut(patience))
            }
            Some((at, _)) => Ok(RecvPoll::Pending(Some(at))),
            None => Ok(RecvPoll::Pending(None)),
        }
    }
}

impl Drop for ChunkRecv {
    /// Withdraw a receive nobody will take. (`Request::cancel` hands an
    /// already matched, not yet visible message back to the inbox.)
    fn drop(&mut self) {
        if let Some(req) = self.req.take() {
            req.cancel();
        }
    }
}

/// A receive of `want` payload bytes, drained as however many wire chunks
/// their sender chose to cut them into (`minimpi` delivers per (source,
/// tag) in order). Owns the posted [`ChunkRecv`], the count and the one
/// bound check, and yields each chunk with the payload offset it belongs
/// at; what landing means — stage, store, forward, fold — is the body's.
/// The next chunk's receive is posted by the poll that asks for it, so
/// *when* the body comes back is part of the model (the chunk patience
/// runs from there).
#[derive(Default)]
pub(crate) struct CountedRecv {
    want: usize,
    /// Leading bytes of every wire message that are framing, not payload
    /// (the broadcast's algorithm byte).
    header: usize,
    got: usize,
    /// `None` between a chunk taken and the next poll.
    recv: Option<ChunkRecv>,
}

impl CountedRecv {
    pub(crate) fn new(want: usize, header: usize) -> Self {
        CountedRecv {
            want,
            header,
            ..Default::default()
        }
    }

    /// Has every wanted byte been yielded?
    pub(crate) fn is_complete(&self) -> bool {
        self.got >= self.want
    }

    /// Look for the next wire chunk from `src` at `now` — posting its
    /// receive first if none is posted — and yield it with its payload
    /// offset. A chunk that would run past `want` fails the receive;
    /// `upstream_dead` is [`ChunkRecv::poll`]'s.
    pub(crate) fn poll(
        &mut self,
        cx: &mut OpCx,
        now: SimNs,
        actor: &Actor,
        (src, wire_tag): (Option<Rank>, Tag),
        upstream_dead: impl FnOnce(&Inner) -> Option<Rank>,
    ) -> Result<RecvPoll<(usize, WireChunk)>, RecvFail> {
        let recv = self
            .recv
            .get_or_insert_with(|| ChunkRecv::post(&cx.inner, actor, src, wire_tag, now));
        let chunk = match recv.poll(cx, now, actor, upstream_dead)? {
            RecvPoll::Ready(chunk) => chunk,
            RecvPoll::Pending(hint) => return Ok(RecvPoll::Pending(hint)),
        };
        self.recv = None;
        let at = self.got;
        self.got += chunk.data.len().saturating_sub(self.header);
        if self.got > self.want {
            let (got, want) = (self.got, self.want);
            return Err(RecvFail::Overflow { got, want });
        }
        Ok(RecvPoll::Ready((at, chunk)))
    }
}

// ----------------------------------------------------------------------
// Stage primitive: one hop across PCIe or through a pack kernel
// ----------------------------------------------------------------------

/// `[start, end)` of a reservation on a link timeline.
pub(crate) type Span = (SimNs, SimNs);

/// A staging hop between device memory and the pinned host image the
/// wire reads and writes: across PCIe, or through an on-device pack /
/// unpack kernel.
#[derive(Clone, Copy)]
pub(crate) enum Hop {
    D2h,
    H2d,
    Pack,
    Unpack,
}

impl Hop {
    fn name(self) -> &'static str {
        match self {
            Hop::D2h => "d2h",
            Hop::H2d => "h2d",
            Hop::Pack => "pack",
            Hop::Unpack => "unpack",
        }
    }

    fn cat(self) -> &'static str {
        match self {
            Hop::D2h => "stage.d2h",
            Hop::H2d => "stage.h2d",
            Hop::Pack => "stage.pack",
            Hop::Unpack => "stage.unpack",
        }
    }

    /// Reserve `cost` ns of the hop's timeline on `device`, no earlier
    /// than `earliest`. Links are FIFO busy-until timelines: *when* a
    /// body reserves is part of the model.
    pub(crate) fn reserve(self, device: &Device, cost: SimNs, earliest: SimNs) -> Span {
        let link = match self {
            Hop::D2h => device.d2h_link(),
            Hop::H2d => device.h2d_link(),
            // The pack engine's own timeline: pack and unpack kernels
            // serialize with each other, not with the app's kernels.
            Hop::Pack | Hop::Unpack => device.pack_link(),
        };
        let r = link.reserve_duration(cost, earliest);
        (r.start, r.end)
    }

    /// Record the hop's `stage.*` child span on the `dev` track — and,
    /// with `lane`, first its span on the `r{N}.comm` lane (only the
    /// two-sided device transfers have one; it feeds `OverlapReport`).
    /// Child ids are allocated by call order, so *when* a body records is
    /// part of the trace.
    pub(crate) fn record(self, cx: &mut OpCx, span: Span, bytes: usize, lane: bool) {
        if lane {
            let lane = format!("r{}.comm", cx.inner.comm.rank());
            cx.inner.trace.record(lane, self.name(), span.0, span.1);
        }
        cx.child(
            "dev",
            self.name().into(),
            self.cat(),
            span,
            bytes as u64,
            true,
        );
    }

    /// Reserve a staged copy of `bytes` bytes and record it at once.
    pub(crate) fn stage(
        self,
        cx: &mut OpCx,
        device: &Device,
        bytes: usize,
        earliest: SimNs,
    ) -> Span {
        let cost = device.spec().pcie.staged_ns(bytes, true);
        let span = self.reserve(device, cost, earliest);
        self.record(cx, span, bytes, false);
        span
    }
}

// ----------------------------------------------------------------------
// Device-buffer transfer bodies (enqueue_send/recv_buffer, gpu-aware)
// ----------------------------------------------------------------------

/// Read a body's source bytes: the one copy its device→host hop stands
/// for. Every entry point range-checks its buffer region on the calling
/// thread, so a body's loads and stores cannot miss — here, and in
/// [`store`], is the place that relies on it.
pub(crate) fn load(buf: &Buffer, offset: usize, len: usize) -> Vec<u8> {
    load_behind(&[], buf, offset, len)
}

/// [`load`] straight behind a wire `header`, so framing a chunk does not
/// copy it a second time.
pub(crate) fn load_behind(header: &[u8], buf: &Buffer, offset: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(header.len() + len);
    out.extend_from_slice(header);
    buf.read(|d| out.extend_from_slice(&d.as_slice()[offset..offset + len]));
    out
}

/// Land bytes in a body's destination region (see [`load`]).
pub(crate) fn store(buf: &Buffer, offset: usize, data: &[u8]) {
    buf.store(offset, data).expect("range checked at enqueue");
}

/// A derived-datatype lowering attached to a transfer body: the
/// committed type map plus the pack canonicalization mode (the TEMPI
/// axis). When present, `offset`/`size` on the body describe the *region
/// base* and the *packed wire size*; the type map routes bytes between
/// the strided device region and the contiguous wire chunks.
pub(crate) struct Lowering {
    pub(crate) ty: CommittedType,
    pub(crate) mode: PackMode,
}

impl Lowering {
    /// Cost of gathering/scattering the packed range `[lo, hi)` across
    /// PCIe segment-by-segment (the host-pack baseline): every type-map
    /// segment pays the full staged latency, which is exactly why real
    /// MPI implementations lose to device-side packing on strided types.
    fn host_staged_ns(&self, pcie: &minicl::PcieModel, lo: usize, hi: usize) -> SimNs {
        self.ty
            .segments_for_packed_range(lo, hi)
            .iter()
            .map(|&(_, len)| pcie.staged_ns(len, true))
            .sum()
    }

    /// Gather the packed range `[lo, hi)` out of the device buffer (the
    /// simulated pack kernel's data movement; timing is charged
    /// separately on the relevant resource timeline).
    fn gather(&self, buf: &Buffer, offset: usize, lo: usize, hi: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(hi - lo);
        buf.read(|d| {
            for (soff, slen) in self.ty.segments_for_packed_range(lo, hi) {
                out.extend_from_slice(&d.as_slice()[offset + soff..][..slen]);
            }
        });
        out
    }

    /// Scatter an arrived packed chunk (packed offset `lo`) into the
    /// strided destination region through the type map.
    fn scatter(&self, buf: &Buffer, offset: usize, lo: usize, data: &[u8]) {
        let mut pos = 0usize;
        for (soff, slen) in self.ty.segments_for_packed_range(lo, lo + data.len()) {
            store(buf, offset + soff, &data[pos..pos + slen]);
            pos += slen;
        }
    }
}

/// One device-buffer transfer with `peer` as its entry point describes
/// it — the same for both directions — plus the direction's run state.
pub(crate) struct TransferBody<R> {
    pub(crate) device: Device,
    pub(crate) buf: Buffer,
    pub(crate) offset: usize,
    pub(crate) size: usize,
    pub(crate) peer: Rank,
    pub(crate) wire_tag: Tag,
    pub(crate) strategy: TransferStrategy,
    /// Derived-datatype lowering: `Some` routes every chunk through the
    /// type map (and, for the device modes, through a pack / unpack
    /// kernel).
    pub(crate) lowering: Option<Lowering>,
    run: R,
}

impl<R: Default> TransferBody<R> {
    /// A contiguous transfer of `size` bytes at `offset` of `buf`.
    pub(crate) fn new(
        device: &Device,
        buf: &Buffer,
        offset: usize,
        size: usize,
        peer: Rank,
        wire_tag: Tag,
        strategy: TransferStrategy,
    ) -> Self {
        TransferBody {
            device: device.clone(),
            buf: buf.clone(),
            offset,
            size,
            peer,
            wire_tag,
            strategy,
            lowering: None,
            run: R::default(),
        }
    }
}

impl<R> TransferBody<R> {
    /// Who is told when the last chunk lands `dur` after the gate opened:
    /// the ledger and the attached tuner.
    fn landed(&self, cx: &OpCx, direction: &'static str, dur: SimNs) {
        cx.landed(direction, Via::Strategy(self.strategy), self.size, dur);
        if let Some(sel) = cx.inner.adaptive.lock().as_ref() {
            sel.observe(self.size, self.strategy, dur);
        }
    }

    /// A transfer-level failure (retry budget, receiver timeout,
    /// overflow) is a completed — failed — probe: tell the tuner, so it
    /// retires the strategy instead of starving on it.
    fn fail(&self, cx: &OpCx, e: ClError, at: SimNs) -> Advance {
        if let Some(sel) = cx.inner.adaptive.lock().as_ref() {
            sel.observe_failure(self.size, self.strategy);
        }
        Advance::Failed(e, at)
    }
}

/// `clEnqueueSendBuffer`: chunked device→host staging and reliable
/// network injection → completion at the last injection's end. Chunk
/// k+1's staging is reserved only once chunk k is known delivered;
/// retransmits re-inject from the host staging copy — the d2h stage (and
/// any pack kernel) is not repeated.
pub(crate) type SendBody = TransferBody<SendRun>;

#[derive(Default)]
pub(crate) struct SendRun {
    /// The strategy's chunk plan (never empty), made at the gate instant.
    chunks: Vec<(usize, usize)>,
    next: usize,
    queue: SendQueue,
}

impl SendBody {
    /// Stage chunk `k` and queue its injection.
    fn arm(&mut self, cx: &mut OpCx, k: usize) {
        let (coff, clen) = self.run.chunks[k];
        let pcie = self.device.spec().pcie;
        let plain = || load(&self.buf, self.offset + coff, clen);
        // (payload, hops staged, wire-span start, injection earliest,
        // duration override, wire-span name)
        let (bytes, staged, start, earliest, duration, what) = match self.strategy {
            TransferStrategy::Mapped => {
                // Map the whole region once; the NIC streams straight
                // through PCIe, fused with the injection — one span from
                // the gate instant.
                let fused = cx.inner.cfg.mapped_wire_ns(clen);
                let earliest = cx.t0 + pcie.map_setup_ns;
                (
                    plain(),
                    [None, None],
                    cx.t0,
                    earliest,
                    Some(fused),
                    "map+send",
                )
            }
            TransferStrategy::Pinned | TransferStrategy::Pipelined(_) => {
                // Staged path: chunks flow d2h (pinned staging) then
                // network.
                let from = cx.t0 + if k == 0 { pcie.pin_setup_ns } else { 0 };
                let (bytes, staged, end) = match &self.lowering {
                    None => {
                        let cost = pcie.staged_ns(clen, true);
                        let d2h = Hop::D2h.reserve(&self.device, cost, from);
                        (plain(), [Some((Hop::D2h, d2h)), None], d2h.1)
                    }
                    Some(l) if l.mode == PackMode::HostPack => {
                        // Host-pack baseline: the type map is gathered
                        // segment-by-segment across PCIe — every segment
                        // pays the staged latency.
                        let cost = l.host_staged_ns(&pcie, coff, coff + clen);
                        let bytes = l.gather(&self.buf, self.offset, coff, coff + clen);
                        let d2h = Hop::D2h.reserve(&self.device, cost, from);
                        (bytes, [Some((Hop::D2h, d2h)), None], d2h.1)
                    }
                    Some(l) => {
                        // An on-device pack kernel canonicalizes this
                        // chunk's type-map slice into contiguous staging
                        // memory (reads strided + writes packed = 2× the
                        // bytes through device memory), then a single d2h
                        // hop moves the packed bytes. Both are backdated
                        // reservations, so chunk k's pack overlaps chunk
                        // k−1's wire time without the body ever blocking.
                        let cost = self.device.spec().membound_kernel_ns(2 * clen);
                        let pack = Hop::Pack.reserve(&self.device, cost, from);
                        let bytes = l.gather(&self.buf, self.offset, coff, coff + clen);
                        let cost = pcie.staged_ns(clen, true);
                        let d2h = Hop::D2h.reserve(&self.device, cost, pack.1);
                        let staged = [Some((Hop::Pack, pack)), Some((Hop::D2h, d2h))];
                        (bytes, staged, d2h.1)
                    }
                };
                (bytes, staged, end, end, None, "net")
            }
            TransferStrategy::Auto | TransferStrategy::Rma => {
                unreachable!("strategy resolved before dispatch; rma is one-sided")
            }
        };
        let send = ReliableChunkSend::new(
            &cx.inner,
            self.peer,
            self.wire_tag,
            Arc::new(bytes),
            earliest,
            duration,
        );
        let name = format!("{what}→{}", self.peer);
        self.run.queue.push_staged(send, start, name, staged);
    }
}

impl OpBody for SendBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        if self.run.chunks.is_empty() {
            self.run.chunks = ResolvedStrategy::plan(self.strategy, self.size).chunks;
        }
        loop {
            match self.run.queue.drive(cx, now, actor) {
                Err((at, e)) => return self.fail(cx, e, at),
                Ok(Some(t)) => return Advance::Park(Some(t)),
                Ok(None) if self.run.next == self.run.chunks.len() => break,
                // The previous chunk is delivered: arm the next one at
                // this instant.
                Ok(None) => {
                    self.arm(cx, self.run.next);
                    self.run.next += 1;
                }
            }
        }
        let done_at = self.run.queue.done_at.max(cx.t0);
        self.landed(cx, "send", done_at - cx.t0);
        Advance::Done(done_at)
    }
}

/// `clEnqueueRecvBuffer`: staging setup → per-chunk matched receive →
/// host→device staging (and unpack) → completion with the data in
/// device memory. Chunk k+1's receive is posted only after chunk k's
/// staging ends.
pub(crate) type RecvBody = TransferBody<RecvRun>;

#[derive(Default)]
pub(crate) struct RecvRun {
    /// Of `size` bytes, once the body starts.
    recv: CountedRecv,
    state: RecvState,
}

#[derive(Default)]
enum RecvState {
    #[default]
    Start,
    /// One-time staging setup cost, paid up front (it overlaps the wait
    /// for the first chunk, which it precedes).
    Setup {
        resume_at: SimNs,
    },
    Await,
    /// Staged path: the chunk for offset `at` is crossing PCIe.
    Stage {
        at: usize,
        data: Vec<u8>,
        span: Span,
    },
    /// Device-unpack lowering: the packed chunk landed in device staging
    /// memory at the end of its h2d hop; an unpack kernel scatters it
    /// through the type map (reserved on the pack timeline, so it
    /// serializes with the other pack kernels).
    Unpack {
        at: usize,
        data: Vec<u8>,
        span: Span,
    },
    /// Mapped path: the post-transfer unmap cost.
    Unmap {
        resume_at: SimNs,
    },
}

impl RecvBody {
    /// A chunk is in device memory (or the setup is paid): go back for the
    /// next one — its receive is posted at this instant — or finish the
    /// command.
    fn chunk_done(&mut self, cx: &OpCx, now: SimNs) -> Option<Advance> {
        if !self.run.recv.is_complete() {
            self.run.state = RecvState::Await;
            return None;
        }
        if self.strategy == TransferStrategy::Mapped {
            // Unmap after the MPI transfer completes (map → MPI → unmap,
            // the paper's mapped implementation).
            let resume_at = now + self.device.spec().pcie.map_setup_ns;
            self.run.state = RecvState::Unmap { resume_at };
            return None;
        }
        Some(self.finish(cx, now))
    }

    fn finish(&self, cx: &OpCx, now: SimNs) -> Advance {
        self.landed(cx, "recv", now.saturating_sub(cx.t0));
        Advance::Done(now)
    }
}

impl OpBody for RecvBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        let pcie = self.device.spec().pcie;
        loop {
            match &mut self.run.state {
                RecvState::Start => {
                    let setup = match self.strategy {
                        TransferStrategy::Mapped => pcie.map_setup_ns,
                        TransferStrategy::Pinned | TransferStrategy::Pipelined(_) => {
                            pcie.pin_setup_ns
                        }
                        TransferStrategy::Auto | TransferStrategy::Rma => {
                            unreachable!("strategy resolved before dispatch; rma is one-sided")
                        }
                    };
                    self.run.recv = CountedRecv::new(self.size, 0);
                    self.run.state = RecvState::Setup {
                        resume_at: now + setup,
                    };
                }
                &mut RecvState::Setup { resume_at } => {
                    if now < resume_at {
                        return Advance::Park(Some(resume_at));
                    }
                    // On to the first chunk, or — for a zero-byte
                    // transfer — straight to completion.
                    if let Some(done) = self.chunk_done(cx, now) {
                        return done;
                    }
                }
                &mut RecvState::Unmap { resume_at } => {
                    if now < resume_at {
                        return Advance::Park(Some(resume_at));
                    }
                    return self.finish(cx, now);
                }
                RecvState::Await => {
                    let (src, tag) = (self.peer, self.wire_tag);
                    let dead = |inner: &Inner| inner.peer_failed(src, now).then_some(src);
                    let from = (Some(src), tag);
                    let (at, data) = match self.run.recv.poll(cx, now, actor, from, dead) {
                        Ok(RecvPoll::Ready((at, chunk))) => (at, Arc::unwrap_or_clone(chunk.data)),
                        Ok(RecvPoll::Pending(hint)) => return Advance::Park(hint),
                        Err(f) => {
                            let what = format!("receive from rank {src} (tag {tag})");
                            return self.fail(cx, f.into_error(&what), now);
                        }
                    };
                    if self.strategy == TransferStrategy::Mapped {
                        // Zero-copy: the NIC already wrote through PCIe
                        // during the sender-fused stream; the data is
                        // usable at arrival.
                        store(&self.buf, self.offset + at, &data);
                        if let Some(done) = self.chunk_done(cx, now) {
                            return done;
                        }
                        continue;
                    }
                    // Host-unpack baseline: the chunk's type-map segments
                    // are scattered one by one across PCIe, each paying
                    // the staged latency. Every other path moves the
                    // packed bytes in one hop.
                    let cost = match &self.lowering {
                        Some(l) if l.mode == PackMode::HostPack => {
                            l.host_staged_ns(&pcie, at, at + data.len())
                        }
                        _ => pcie.staged_ns(data.len(), true),
                    };
                    let span = Hop::H2d.reserve(&self.device, cost, now);
                    self.run.state = RecvState::Stage { at, data, span };
                }
                RecvState::Stage { at, data, span } => {
                    if now < span.1 {
                        return Advance::Park(Some(span.1));
                    }
                    let (at, data, span) = (*at, std::mem::take(data), *span);
                    Hop::H2d.record(cx, span, data.len(), true);
                    match &self.lowering {
                        None => store(&self.buf, self.offset + at, &data),
                        // The host already scattered segment-by-segment
                        // during the h2d hop.
                        Some(l) if l.mode == PackMode::HostPack => {
                            l.scatter(&self.buf, self.offset, at, &data)
                        }
                        Some(_) => {
                            // The packed chunk landed in device staging
                            // memory; an unpack kernel (2× the bytes
                            // through device memory) scatters it through
                            // the type map.
                            let cost = self.device.spec().membound_kernel_ns(2 * data.len());
                            let span = Hop::Unpack.reserve(&self.device, cost, span.1);
                            self.run.state = RecvState::Unpack { at, data, span };
                            continue;
                        }
                    }
                    if let Some(done) = self.chunk_done(cx, now) {
                        return done;
                    }
                }
                RecvState::Unpack { at, data, span } => {
                    if now < span.1 {
                        return Advance::Park(Some(span.1));
                    }
                    let (at, data, span) = (*at, std::mem::take(data), *span);
                    if let Some(l) = &self.lowering {
                        l.scatter(&self.buf, self.offset, at, &data);
                    }
                    Hop::Unpack.record(cx, span, data.len(), true);
                    if let Some(done) = self.chunk_done(cx, now) {
                        return done;
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Host-buffer MPI_CL_MEM operations (isend_cl / irecv_cl) and
// clCreateEventFromMPIRequest
// ----------------------------------------------------------------------

/// Where [`HostSendOp`] reports its outcome: the last injection's end
/// instant on success, the exhaustion error on permanent failure.
pub(crate) type SendSlot = Arc<Monitor<Option<ClResult<SimNs>>>>;

/// `MPI_Isend` on `MPI_CL_MEM` (`isend_cl`): the payload chunks are
/// injected reliably from the submission instant, each armed once its
/// predecessor is delivered. In a zero-fault run every chunk is accepted
/// in the first burst and the machine retires immediately. Under
/// faults, retries continue on engine timers after the caller has
/// resumed.
///
/// The one operation that is not an [`OpFrame`] body: it has no event
/// and no wait list, reports through a [`SendSlot`], owes its caller the
/// `issued` handshake, and — unlike every framed op — retires a success
/// at once instead of parking until its instant, because an un-awaited
/// request must never delay shutdown. It shares the chunk loop
/// ([`SendQueue`]) and the settlement of its envelope and counters
/// ([`OpCx::close`]).
pub(crate) struct HostSendOp {
    pub(crate) cx: OpCx,
    pub(crate) dst: Rank,
    pub(crate) wire_tag: Tag,
    /// Per-chunk payload and duration override, prepared on the caller.
    pub(crate) chunks: Vec<(Vec<u8>, Option<SimNs>)>,
    /// Handshake: flipped after the machine's first pass so the caller
    /// resumes only once the initial injection burst is on the wire
    /// (keeping the fabric reservation order of an inline send).
    pub(crate) issued: Arc<Monitor<bool>>,
    pub(crate) slot: SendSlot,
    pub(crate) run: HostSendRun,
}

#[derive(Default)]
pub(crate) struct HostSendRun {
    t0: Option<SimNs>,
    next: usize,
    queue: SendQueue,
    issued: bool,
}

impl HostSendOp {
    fn drive(&mut self, now: SimNs, actor: &Actor) -> Step {
        let t0 = *self.run.t0.get_or_insert(now);
        let (outcome, at) = loop {
            match self.run.queue.drive(&mut self.cx, now, actor) {
                Ok(Some(t)) => return Step::Park(Some(t)),
                Ok(None) if self.run.next < self.chunks.len() => {
                    let (bytes, duration) = std::mem::take(&mut self.chunks[self.run.next]);
                    self.run.next += 1;
                    let send = ReliableChunkSend::new(
                        &self.cx.inner,
                        self.dst,
                        self.wire_tag,
                        Arc::new(bytes),
                        t0,
                        duration,
                    );
                    let name = format!("net→{}", self.dst);
                    self.run.queue.push(send, t0, name, "chunk");
                }
                Ok(None) => break (Ok(self.run.queue.done_at), self.run.queue.done_at),
                Err((at, e)) => break (Err(e), at),
            }
        };
        self.cx.close(outcome.is_ok(), at);
        self.slot.with(|s| *s = Some(outcome));
        Step::Done
    }
}

impl EngineOp for HostSendOp {
    fn step(&mut self, now: SimNs, actor: &Actor) -> Step {
        let verdict = self.drive(now, actor);
        if !self.run.issued {
            self.run.issued = true;
            self.issued.with(|i| *i = true);
        }
        verdict
    }
}

/// `MPI_Irecv` into `MPI_CL_MEM` (`irecv_cl`): matched receives are
/// posted back-to-back into the pinned host landing buffer; the event
/// completes when the full payload has arrived.
pub(crate) struct IrecvBody {
    pub(crate) src: Rank,
    pub(crate) wire_tag: Tag,
    pub(crate) host: HostBuffer,
    /// Of the request's size.
    pub(crate) recv: CountedRecv,
}

impl OpBody for IrecvBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        // A zero-byte receive completes immediately.
        while !self.recv.is_complete() {
            let (src, tag) = (self.src, self.wire_tag);
            let dead = |inner: &Inner| inner.peer_failed(src, now).then_some(src);
            let (at, data) = match self.recv.poll(cx, now, actor, (Some(src), tag), dead) {
                Ok(RecvPoll::Ready((at, chunk))) => (at, chunk.data),
                Ok(RecvPoll::Pending(hint)) => return Advance::Park(hint),
                Err(f) => {
                    let what = format!("irecv_cl from rank {src} (tag {tag})");
                    return Advance::Failed(f.into_error(&what), now);
                }
            };
            self.host
                .write(|h| h.as_mut_slice()[at..at + data.len()].copy_from_slice(&data));
        }
        Advance::Done(now)
    }
}

/// `clCreateEventFromMPIRequest`: adapts a plain MPI request into an
/// event. The body asks the request for its completion instant and, once
/// that is due, publishes the payload (if any); the event completes at
/// the settlement instant.
pub(crate) struct EventFromRequestBody {
    pub(crate) req: Request,
    pub(crate) slot: Arc<Monitor<Option<RecvResult>>>,
}

impl OpBody for EventFromRequestBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        let done_at = self.req.known_completion();
        if done_at.is_none_or(|at| at > now) {
            return Advance::Park(done_at);
        }
        let result = self.req.test(actor).expect("completion is due");
        let bytes = result.as_ref().map_or(0, |r| r.data.len() as u64);
        if let Some(env) = cx.env_mut() {
            (env.bytes, env.received) = (bytes, bytes);
        }
        self.slot.with(|s| *s = result);
        Advance::Done(now)
    }
}

// ----------------------------------------------------------------------
// One-sided window bodies (MPI_CL_MEM exposed as MPI_Win)
// ----------------------------------------------------------------------
//
// These bodies drive `minimpi`'s non-blocking RMA handles from the
// engine. A handle's poll reads its slot, and the clock's grant of the
// reservation fills that slot in (or marks it dropped) with a notify, so
// the grant readies the body at the instant it happens. A body with a
// pending flight parks on that slot alone, plus, before the first grant,
// a time hint at the wire-claim earliest plus one: the grant instant
// itself. After a retransmit, whose claim instant is arbiter-internal,
// it has no hint at all.

/// One in-flight one-sided op plus the bookkeeping needed to park
/// precisely and to convert retransmit deltas into drop/retry spans.
pub(crate) struct RmaFlight {
    handle: RmaHandle,
    /// Wire-claim earliest of the initial post: the park target before
    /// the first grant (one tick later the arbiter's strict `earliest <
    /// now` test admits it).
    earliest: SimNs,
    /// Attempts already converted into drop/retry child spans.
    attempts_seen: u32,
    done_at: Option<SimNs>,
}

impl RmaFlight {
    fn new(handle: RmaHandle, earliest: SimNs) -> Self {
        RmaFlight {
            handle,
            earliest,
            attempts_seen: 0,
            done_at: None,
        }
    }

    /// Convert retransmits since the last step into drop + retry child
    /// spans and fault counters — the one-sided analogue of
    /// [`ReliableChunkSend`]'s accounting. The handle does not retain
    /// per-attempt wire times or reasons (a `NodeDown` drop is terminal,
    /// never a retry, so retried drops are counted as random loss), and
    /// the spans are instantaneous at the observing instant.
    fn note_attempts(&mut self, cx: &mut OpCx, now: SimNs) {
        let target = self.handle.target();
        let len = self.handle.len() as u64;
        while self.attempts_seen < self.handle.attempts() {
            self.attempts_seen += 1;
            let k = self.attempts_seen;
            let name = format!("rma-drop#{k}→r{target}");
            cx.dropped(DropReason::Random, name, (now, now), len);
            cx.retried(format!("rma-retry#{k}→r{target}"), (now, now), len);
        }
    }
}

/// Collective verdict of one polling pass over an operation's flights.
enum FlightsVerdict {
    /// Every flight delivered; `at` is the last arrival instant.
    Done { at: SimNs },
    /// Some flight failed terminally (first failure in issue order);
    /// already accounted, and stamped no earlier than the polling instant.
    Failed { err: MpiError, at: SimNs },
    /// Still in flight; `wake` is the earliest useful re-poll instant
    /// (strictly future), if any flight has one.
    Pending { wake: Option<SimNs> },
}

/// Drive every unfinished flight of an operation once at `now`.
fn poll_flights(cx: &mut OpCx, flights: &mut [RmaFlight], now: SimNs) -> FlightsVerdict {
    let mut done_at = 0;
    let mut pending = false;
    let mut wake: Option<SimNs> = None;
    let mut failed: Option<(MpiError, SimNs)> = None;
    for f in flights.iter_mut() {
        if let Some(at) = f.done_at {
            done_at = done_at.max(at);
            continue;
        }
        let verdict = f.handle.poll();
        f.note_attempts(cx, now);
        match verdict {
            RmaPoll::Done { at } => {
                f.done_at = Some(at);
                done_at = done_at.max(at);
            }
            RmaPoll::Failed { err, at } => {
                failed.get_or_insert((err, at));
            }
            RmaPoll::Pending => {
                pending = true;
                if f.handle.attempts() == 0 {
                    let next = now.max(f.earliest) + 1;
                    wake = Some(wake.map_or(next, |w: SimNs| w.min(next)));
                }
            }
        }
    }
    if let Some((err, at)) = failed {
        let at = at.max(now);
        cx.rma_failed(&err, at);
        FlightsVerdict::Failed { err, at }
    } else if pending {
        FlightsVerdict::Pending { wake }
    } else {
        FlightsVerdict::Done { at: done_at }
    }
}

/// `clEnqueuePutBuffer`: one-sided write of a device-buffer range into a
/// peer rank's exposed window — per-chunk d2h staging + routed wire
/// flights, all reserved and posted at the gate instant (overlap
/// between staging and wire time falls out of the resource timelines) →
/// completion at the last flight's arrival.
///
/// The resolved strategy picks the *wire lowering*, which is what the
/// per-(peer, size) tuner sweeps:
///
/// * `Rma` — stage once, then the fabric's class-routed one-sided
///   transport carries it (loopback, CXL pool port, or NIC).
/// * `Pinned` — stage once, force the NIC path (two-sided emulation).
/// * `Pipelined(b)` — per-chunk staging on the forced NIC path; chunk
///   k's wire time overlaps chunk k+1's staging, as on the send path.
/// * `Mapped` — no staging: one fused stream of duration
///   max(injection, PCIe mapped stream) forced onto the NIC path.
pub(crate) struct PutBody {
    pub(crate) device: Device,
    pub(crate) win: Win,
    pub(crate) buf: Buffer,
    pub(crate) offset: usize,
    pub(crate) win_offset: usize,
    pub(crate) size: usize,
    pub(crate) target: Rank,
    pub(crate) strategy: TransferStrategy,
    /// One per chunk of the strategy's plan (never empty) once posted.
    pub(crate) flights: Vec<RmaFlight>,
}

impl PutBody {
    /// Stage and post every chunk of the put according to the strategy
    /// lowering.
    fn arm(&self, cx: &mut OpCx) -> Result<Vec<RmaFlight>, MpiError> {
        let pcie = self.device.spec().pcie;
        let plan = ResolvedStrategy::plan(self.strategy, self.size);
        let mut flights = Vec::with_capacity(plan.chunks.len());
        for (k, &(coff, clen)) in plan.chunks.iter().enumerate() {
            let (wire_earliest, route) = match self.strategy {
                TransferStrategy::Mapped => {
                    let fused = cx.inner.cfg.mapped_wire_ns(clen);
                    (cx.t0 + pcie.map_setup_ns, RmaRoute::NicDuration(fused))
                }
                TransferStrategy::Rma
                | TransferStrategy::Pinned
                | TransferStrategy::Pipelined(_) => {
                    let from = cx.t0 + if k == 0 { pcie.pin_setup_ns } else { 0 };
                    let d2h = Hop::D2h.stage(cx, &self.device, clen, from);
                    let route = if self.strategy == TransferStrategy::Rma {
                        RmaRoute::Auto
                    } else {
                        RmaRoute::Nic
                    };
                    (d2h.1, route)
                }
                TransferStrategy::Auto => unreachable!("strategy resolved before dispatch"),
            };
            let bytes = load(&self.buf, self.offset + coff, clen);
            let at = self.win_offset + coff;
            let h = self
                .win
                .put_routed(self.target, at, bytes, route, wire_earliest)?;
            flights.push(RmaFlight::new(h, wire_earliest));
        }
        Ok(flights)
    }

    /// A transfer-level failure retires the probed lowering for this
    /// (peer, size) class.
    fn fail(&self, cx: &OpCx, err: MpiError, at: SimNs) -> Advance {
        if let Some(sel) = cx.inner.rma_adaptive.lock().as_ref() {
            sel.observe_failure((self.target, self.size), self.strategy);
        }
        let e = ClError::TransferFailed(format!("put to rank {}: {err}", self.target));
        Advance::Failed(e, at)
    }
}

impl OpBody for PutBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, _actor: &Actor) -> Advance {
        if self.flights.is_empty() {
            match self.arm(cx) {
                Ok(flights) => self.flights = flights,
                Err(e) => return self.fail(cx, e, now),
            }
        }
        match poll_flights(cx, &mut self.flights, now) {
            FlightsVerdict::Pending { wake } => Advance::Park(wake),
            FlightsVerdict::Failed { err, at } => self.fail(cx, err, at),
            FlightsVerdict::Done { at } => {
                let done_at = at.max(cx.t0);
                let dur = done_at - cx.t0;
                cx.landed("put", Via::Strategy(self.strategy), self.size, dur);
                if let Some(sel) = cx.inner.rma_adaptive.lock().as_ref() {
                    sel.observe((self.target, self.size), self.strategy, dur);
                }
                Advance::Done(done_at)
            }
        }
    }
}

/// `clEnqueueGetBuffer`: one-sided read from a peer rank's window into a
/// device buffer — class-routed wire flight → h2d staging → completion
/// with the data in device memory. The window's staging memory is
/// registered at `Win_create`, so the landing pays the staged copy but
/// no per-transfer pin setup.
pub(crate) struct GetBody {
    pub(crate) device: Device,
    pub(crate) win: Win,
    pub(crate) buf: Buffer,
    pub(crate) offset: usize,
    pub(crate) win_offset: usize,
    pub(crate) size: usize,
    pub(crate) target: Rank,
    pub(crate) state: GetState,
}

#[derive(Default)]
pub(crate) enum GetState {
    #[default]
    Start,
    Transfer(RmaFlight),
    /// The payload is crossing PCIe until `end`.
    Stage {
        data: Vec<u8>,
        end: SimNs,
    },
}

impl OpBody for GetBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, _actor: &Actor) -> Advance {
        let fail = |err: MpiError, at| {
            let e = ClError::TransferFailed(format!("get from rank {}: {err}", self.target));
            Advance::Failed(e, at)
        };
        loop {
            match &mut self.state {
                GetState::Start => match self.win.get(self.target, self.win_offset, self.size) {
                    Ok(h) => self.state = GetState::Transfer(RmaFlight::new(h, now)),
                    Err(e) => return fail(e, now),
                },
                GetState::Transfer(flight) => {
                    let flights = std::slice::from_mut(flight);
                    match poll_flights(cx, flights, now) {
                        FlightsVerdict::Pending { wake } => return Advance::Park(wake),
                        FlightsVerdict::Failed { err, at } => return fail(err, at),
                        FlightsVerdict::Done { at } => {
                            let data = flight
                                .handle
                                .take_data()
                                .expect("settled get yields its payload");
                            let from = at.max(cx.t0);
                            let h2d = Hop::H2d.stage(cx, &self.device, data.len(), from);
                            self.state = GetState::Stage { data, end: h2d.1 };
                        }
                    }
                }
                GetState::Stage { data, end } => {
                    let end = *end;
                    if now < end {
                        return Advance::Park(Some(end));
                    }
                    store(&self.buf, self.offset, data);
                    let dur = end.saturating_sub(cx.t0);
                    cx.landed("get", Via::Strategy(TransferStrategy::Rma), self.size, dur);
                    return Advance::Done(end);
                }
            }
        }
    }
}

/// `clEnqueueAccumulateBuffer`: one-sided read-modify-write of f64s from
/// a device buffer into a peer rank's window — d2h staging → class-routed
/// wire flight applied in the arbiter's canonical grant order →
/// completion. The operand must leave the device before the op can be
/// posted (the fold reads the payload at grant time), so staging and
/// wire time serialize here, unlike the put path.
pub(crate) struct AccumulateBody {
    pub(crate) device: Device,
    pub(crate) win: Win,
    pub(crate) buf: Buffer,
    pub(crate) offset: usize,
    pub(crate) win_offset: usize,
    pub(crate) size: usize,
    pub(crate) target: Rank,
    pub(crate) op: ReduceOp,
    pub(crate) state: AccState,
}

#[derive(Default)]
pub(crate) enum AccState {
    #[default]
    Start,
    /// The operand is crossing PCIe until `end`.
    Stage {
        end: SimNs,
    },
    Transfer(RmaFlight),
}

impl OpBody for AccumulateBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, _actor: &Actor) -> Advance {
        let fail = |err: MpiError, at| {
            let e = ClError::TransferFailed(format!("accumulate to rank {}: {err}", self.target));
            Advance::Failed(e, at)
        };
        loop {
            match &mut self.state {
                AccState::Start => {
                    let from = now + self.device.spec().pcie.pin_setup_ns;
                    let d2h = Hop::D2h.stage(cx, &self.device, self.size, from);
                    self.state = AccState::Stage { end: d2h.1 };
                }
                &mut AccState::Stage { end } => {
                    if now < end {
                        return Advance::Park(Some(end));
                    }
                    let bytes = load(&self.buf, self.offset, self.size);
                    let posted =
                        self.win
                            .accumulate_owned(self.target, self.win_offset, bytes, self.op);
                    match posted {
                        Ok(h) => self.state = AccState::Transfer(RmaFlight::new(h, now)),
                        Err(e) => return fail(e, now),
                    }
                }
                AccState::Transfer(flight) => {
                    let flights = std::slice::from_mut(flight);
                    return match poll_flights(cx, flights, now) {
                        FlightsVerdict::Pending { wake } => Advance::Park(wake),
                        FlightsVerdict::Failed { err, at } => fail(err, at),
                        FlightsVerdict::Done { at } => {
                            let done_at = at.max(cx.t0);
                            let dur = done_at - cx.t0;
                            let rma = Via::Strategy(TransferStrategy::Rma);
                            cx.landed("acc", rma, self.size, dur);
                            Advance::Done(done_at)
                        }
                    };
                }
            }
        }
    }
}

/// `clEnqueueWinFence`: the one fence, [`Win::fence_async`], polled on the
/// engine ([`simtime::poll_future`]): parked on what the poll read, the
/// instant it noted as the hint; its classified failure fails the event.
pub(crate) struct FenceBody {
    pub(crate) fence: Pin<Box<dyn Future<Output = Result<(), MpiError>> + Send>>,
}

impl OpBody for FenceBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, _actor: &Actor) -> Advance {
        match simtime::poll_future(self.fence.as_mut()) {
            Err(wake) => Advance::Park(wake),
            Ok(Ok(())) => Advance::Done(now),
            Ok(Err(err)) => {
                cx.rma_failed(&err, now);
                let e = ClError::TransferFailed(format!("rma epoch: {err}"));
                Advance::Failed(e, now)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimClock;

    /// A machine that parks until a fixed instant, then records when the
    /// engine retired it.
    struct TimerOp {
        fire_at: SimNs,
        fired: Arc<Monitor<Option<SimNs>>>,
    }

    impl EngineOp for TimerOp {
        fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
            if now < self.fire_at {
                return Step::Park(Some(self.fire_at));
            }
            self.fired.with(|f| *f = Some(now));
            Step::Done
        }
    }

    #[test]
    fn engine_fires_timers_at_their_virtual_instant() {
        let clock = SimClock::new();
        // Register the caller first: the engine worker must never be the
        // only actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into());
        let fired = Arc::new(Monitor::new(clock.clone(), None));
        engine.submit(Box::new(TimerOp {
            fire_at: 5_000,
            fired: fired.clone(),
        }));
        engine.wait_idle(&actor);
        assert_eq!(fired.peek(|f| *f), Some(5_000));
        assert_eq!(actor.now_ns(), 5_000);
    }

    #[test]
    fn engine_orders_independent_timers_without_blocking_each_other() {
        let clock = SimClock::new();
        // Register the caller first: the engine worker must never be the
        // only actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into());
        let order = Arc::new(Monitor::new(clock.clone(), Vec::<SimNs>::new()));
        struct LoggingTimer {
            fire_at: SimNs,
            order: Arc<Monitor<Vec<SimNs>>>,
        }
        impl EngineOp for LoggingTimer {
            fn step(&mut self, now: SimNs, _actor: &Actor) -> Step {
                if now < self.fire_at {
                    return Step::Park(Some(self.fire_at));
                }
                self.order.with(|o| o.push(now));
                Step::Done
            }
        }
        // Submit out of order; the engine must retire them in virtual
        // order because each parks on its own alarm.
        for &at in &[20_000u64, 12_000, 16_000] {
            engine.submit(Box::new(LoggingTimer {
                fire_at: at,
                order: order.clone(),
            }));
        }
        engine.wait_idle(&actor);
        assert_eq!(order.peek(|o| o.clone()), vec![12_000, 16_000, 20_000]);
        assert_eq!(actor.now_ns(), 20_000);
    }

    #[test]
    #[should_panic(expected = "already shut down")]
    fn submitting_after_shutdown_panics() {
        let clock = SimClock::new();
        // Register the caller first: the engine worker must never be the
        // only actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into());
        engine.wait_idle(&actor);
        engine.shared.with(|s| s.shutdown = true);
        let fired = Arc::new(Monitor::new(clock.clone(), None));
        engine.submit(Box::new(TimerOp { fire_at: 1, fired }));
    }
}
