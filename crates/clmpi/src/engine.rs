//! The per-rank progress engine: one machine that drives every in-flight
//! clMPI operation of its rank, each operation one future.
//!
//! ### Why an engine (paper §V-A)
//!
//! The paper's runtime executes communication commands on an internal
//! thread so the host thread is never blocked. Here that thread is one
//! machine per rank on the clock's scheduler, [`Engine`], which
//! multiplexes **all** outstanding work — chunked transfers, MPI request
//! wrappers, collective fan-outs, file I/O, and retry/backoff timers.
//!
//! ### Execution model
//!
//! An operation is one boxed future. [`Engine::submit`] queues it; the
//! engine's poll adopts what was queued and polls every op in FIFO
//! submission order, again and again until a round retires none, all at
//! one frozen instant. A finished op is the only thing counted as a
//! scheduler event. Then the engine parks: on the wake keys its polls read
//! (an event settling, a message matching, a grant filling a cell), and
//! on a timer at the earliest instant a pending op noted in the last round
//! (`simtime::note_wake_at`: a backoff expiry, a reservation end, a
//! receive deadline). FIFO order is what makes a rank's same-instant link
//! reservations deterministic.
//!
//! **Nothing in this file blocks.** A body waits by `.await`ing a check
//! ([`until`]) or an instant (`SimClock::sleep_until`); `clmpi-check`
//! keeps blocking waits, receives and virtual-time sleeps out of it. The
//! only places the data plane touches virtual time are reservation
//! timelines and those awaits.
//!
//! ### One frame, many bodies
//!
//! Every event-backed command is an [`OpBody`] — an `async` body — run
//! by the one frame ([`OpSpec::submit`]), which owns, exactly once:
//!
//! * the **gate**: the wait list is polled until every event settles; a
//!   failed dependency poisons the command with −14 without running the
//!   body (the four file commands carry `poison: false` and are only
//!   ordered by their list);
//! * **when an outcome becomes visible**: a success at its instant (the
//!   frame sleeps until then), a failure at once, stamped with its
//!   instant;
//! * the **settlement**: result slot, envelope span, `ObsCounters`, and
//!   the user event with its `CL_MPI_TRANSFER_ERROR` / −14 mapping. The
//!   body's future is gone before that, so a receive it still has posted
//!   ([`ChunkRecv`] withdraws on drop) is withdrawn before anyone can see
//!   the outcome and reuse the tag.
//!
//! A body is ordinary `async` Rust composing the shared primitives:
//! [`SendQueue`] of [`ReliableChunkSend`]s (the one chunk loop with retry,
//! backoff and degradation), [`ChunkRecv`] (posted receive + patience +
//! dead-peer fast-fail) and the [`CountedRecv`] built on it (a payload
//! drained by byte count: the one bound check, repost, `(offset, chunk)`
//! to the body), [`Hop`] (reserve a PCIe or pack-kernel hop, record its
//! `stage.*` span), and `fileio`'s `DiskWait`. The receive and send
//! primitives keep a poll form — `Some` when done, `None` with the instant
//! to look again noted — so a body can drive two at once inside one
//! check: a broadcast relay drains its forwards while it awaits the next
//! chunk, a ring round drives its sends and its segment receive together.
//! Bodies tell the ledger and selectors themselves, where the last chunk
//! lands or the transfer fails; a poisoned gate never reaches a body, so
//! it reaches no selector. DESIGN.md §8c has the table of all operations
//! and the traps (what is byte-visible about *when* a body reserves,
//! posts and records).
//!
//! A body loads a payload ([`load`]), hands it to the wire as an `Arc`,
//! and has it back only if the fabric refuses it. A point-to-point
//! payload has one owner at a time; a broadcast chunk is shared by every
//! child and every relay's device buffer. So a byte is copied where the
//! model has a hop and somebody reads it, nowhere else (DESIGN.md §8d
//! has the count per operation).
//!
//! `isend_cl` ([`HostSend`]) runs on the same engine without the frame;
//! its doc says why.

use std::collections::VecDeque;
use std::future::Future;
use std::marker::PhantomData;
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
use simtime::{
    note_wake_at, until, Actor, MachineStep, Monitor, OpSpan, SimActor, SimClock, SimNs,
};

use crate::obs::{ChildIds, FaultStats, Via};
use crate::runtime::Inner;
use crate::strategy::{PackMode, ResolvedStrategy, TransferStrategy};

// ----------------------------------------------------------------------
// Engine core
// ----------------------------------------------------------------------

/// One in-flight operation, its whole life as one future.
pub(crate) type OpFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

#[derive(Default)]
struct EngineShared {
    /// Newly submitted ops, adopted by the engine at the submission
    /// instant.
    incoming: Vec<OpFuture>,
    /// Ops submitted but not yet finished (incoming + adopted).
    active: usize,
    /// Once set, the engine retires as soon as every op finishes.
    shutdown: bool,
}

/// The per-rank progress engine: one machine (`EngineCore`) on the
/// clock's scheduler that polls every submitted op to completion.
pub(crate) struct Engine {
    shared: Arc<Monitor<EngineShared>>,
    /// The clock handle the ops make their non-blocking MPI calls with
    /// (`isend_raw`, `irecv`, `Request::test`): registered as no actor,
    /// like the one a pass gives its machines.
    actor: Actor,
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
        Engine {
            shared,
            actor: Actor::for_pass(clock),
        }
    }

    /// Queue an op. It is first polled at the caller's current virtual
    /// instant — the clock cannot advance past the submission before the
    /// engine has seen it.
    pub fn submit(&self, op: OpFuture) {
        self.shared.with(|s| {
            assert!(!s.shutdown, "clMPI engine already shut down");
            s.active += 1;
            s.incoming.push(op);
        });
    }

    /// Block `actor` (in virtual time) until every submitted op has
    /// finished.
    pub fn wait_idle(&self, actor: &Actor) {
        // checker-allow(non-blocking-engine): host-side control-plane
        // API (shutdown quiescence); it blocks the *calling* actor,
        // never the engine.
        actor.block_on("clmpi shutdown", self.idle());
    }

    /// The future of [`Engine::wait_idle`]: ready once every submitted
    /// op has finished.
    pub fn idle(&self) -> impl Future<Output = ()> + '_ {
        until(|| self.shared.peek(|s| (s.active == 0).then_some(())))
    }

    /// Number of ops submitted but not yet finished.
    pub fn active(&self) -> usize {
        self.shared.peek(|s| s.active)
    }
}

impl Drop for Engine {
    /// Ask the machine to retire once its ops drain.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // clock is poisoned; the machine dies on its own
        }
        self.shared.with(|s| s.shutdown = true);
    }
}

/// The engine as a machine: every poll happens at a frozen virtual
/// instant inside a scheduler pass, which parks it on what the poll read
/// and on the hint it returns.
struct EngineCore {
    shared: Arc<Monitor<EngineShared>>,
    ops: Vec<OpFuture>,
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
        // The wake hint reported upward: the earliest instant any op
        // noted *in the final, progress-free round* (earlier rounds
        // recompute it — a pending op notes its instant every poll).
        let mut hint: Option<SimNs> = None;
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            hint = None;
            let mut i = 0;
            while i < self.ops.len() {
                match simtime::poll_future(self.ops[i].as_mut()) {
                    Err(wake) => {
                        if let Some(t) = wake {
                            debug_assert!(t > now, "ops must progress, not wait, when due");
                            if t > now {
                                hint = Some(hint.map_or(t, |c: SimNs| c.min(t)));
                            }
                        }
                        i += 1;
                    }
                    Ok(()) => {
                        // The op's future has already dropped everything
                        // it held (its runtime handle included); what is
                        // left is the box.
                        drop(self.ops.remove(i));
                        // Count only completions: idle re-polls of pending
                        // ops are free, so the count is a property of the
                        // scenario, not of the host's wake-up pattern. And
                        // count before `active` says so: a rank that sees
                        // zero may return and let the world read the sum.
                        actor.clock().count_events(1);
                        self.shared.with(|s| s.active -= 1);
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

/// Where an op reports its final result when a caller is blocked on it
/// (the gpu-aware comparator paths). The event carries the same outcome
/// for event-ordered callers.
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

    /// The current virtual instant. A check reads it on every poll: what
    /// it compares with `now` must be the instant of *this* poll.
    pub(crate) fn now(&self) -> SimNs {
        self.inner.clock.now_ns()
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

/// How a body ends: `Ok(at)`, done and visible at `at` (the frame sleeps
/// until then); `Err((e, at))`, failed — settled at once, stamped `at`,
/// which may lie ahead of now (dependants poll wait lists, so waiting out
/// a failure would move time).
pub(crate) type Outcome = Result<SimNs, (ClError, SimNs)>;

/// The part of an operation that differs from every other one: what it
/// moves and how. Run by the frame once the wait list has let it; a body
/// is ordinary `async` Rust composing the shared primitives below
/// ([`SendQueue`], [`ChunkRecv`], [`Hop`]) and never touches the user
/// event, the envelope or the counters itself.
pub(crate) trait OpBody: Send + 'static {
    /// The body, from the instant its gate opened (`cx.t0`). It never
    /// blocks: it awaits checks and instants.
    fn run(self, cx: &mut OpCx) -> impl Future<Output = Outcome> + Send;
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

    /// Wrap `body` in the frame, hand it to `inner`'s engine and return
    /// the event that will carry its outcome.
    pub(crate) fn submit(self, inner: &Arc<Inner>, body: impl OpBody) -> Event {
        let ue = inner.ctx.create_user_event(self.event);
        let event = ue.event();
        let cx = OpCx::new(inner, self.env);
        let wait = self.wait.to_vec();
        let frame = frame(cx, wait, self.poison, body, ue, self.result);
        inner.engine.submit(Box::pin(frame));
        event
    }
}

/// Every event-backed operation: the one place that owns the wait-list
/// gate, the rule for when an outcome becomes visible, and the
/// settlement (envelope, counters, result slot, user event and its
/// error-code mapping).
async fn frame(
    mut cx: OpCx,
    wait: Vec<Event>,
    poison: bool,
    body: impl OpBody,
    ue: UserEvent,
    result: Option<ResultSlot>,
) {
    // `Pending` until *every* event settles, then the first failure in
    // list order, or `Ready`. An empty list is `Ready`.
    let gate = until(|| match Event::poll_wait_list(&wait) {
        WaitListStatus::Pending => None,
        status => Some(status),
    })
    .await;
    let now = cx.now();
    let (outcome, at) = match gate {
        // The body never runs: a poisoned gate says nothing about the
        // strategy, so no selector hears of it.
        WaitListStatus::Failed { code, label } if poison => {
            (Err(ClError::EventFailed { code, label }), now)
        }
        _ => {
            cx.t0 = now;
            // The body's future, and whatever it still holds — a posted
            // receive above all — is dropped at the end of this statement,
            // before the outcome is visible to anyone who might reuse
            // the tag.
            let ran = body.run(&mut cx).await;
            match ran {
                Ok(at) => {
                    cx.inner.clock.sleep_until(at).await;
                    (Ok(()), at)
                }
                Err((e, at)) => (Err(e), at),
            }
        }
    };
    if let Some(slot) = &result {
        slot.with(|s| *s = Some(outcome.clone()));
    }
    cx.close(outcome.is_ok(), at);
    let settled = match outcome {
        Ok(()) => ue.set_complete(at),
        // A failed dependency poisons this command, as the queue
        // executor does for ordinary commands.
        Err(ClError::EventFailed { .. }) => {
            ue.set_failed(at, EXEC_STATUS_ERROR_FOR_EVENTS_IN_WAIT_LIST)
        }
        Err(_) => ue.set_failed(at, CL_MPI_TRANSFER_ERROR),
    };
    settled.expect("an operation's event settles once");
}

// ----------------------------------------------------------------------
// Send primitive: one reliable chunk, and the serial queue of them
// ----------------------------------------------------------------------

/// One wire chunk injected reliably: on sender-observed loss (the
/// fabric's link-layer NACK model) the chunk enters a virtual-time
/// backoff and retransmits when the engine wakes it, up to the policy's
/// attempt budget. Feeds the degradation latch and the fault counters.
/// The backoff is a real engine timer, not a pre-dated reservation.
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
    /// can never succeed, so the chunk fails without burning retries.
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
    /// Waiting for a future instant (grant, backoff expiry or failure
    /// charge).
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

    fn step(&mut self, cx: &mut OpCx) -> ChunkStep {
        let now = cx.now();
        match &self.state {
            ChunkState::Injecting { req, earliest } => {
                let earliest = *earliest;
                // `None` means the clock has not granted the injection
                // yet; the grant notifies the outcome cell
                // `known_completion` reads, which readies the engine.
                // The wake instant is the grant instant: the arbiter
                // clamps a stale `earliest` up to the posting instant and
                // grants one tick later, so it is strictly future
                // relative to `now`.
                let Some(done) = req.known_completion() else {
                    return ChunkStep::Park(now.max(earliest) + 1);
                };
                let refused = req.take_refused();
                self.settle_injection(cx, earliest, done, refused)
            }
            &ChunkState::Ready { earliest } => {
                self.attempt += 1;
                let req = cx.inner.comm.isend_raw(
                    &cx.inner.engine.actor,
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
            // transfer now — this is what keeps an op from hanging out
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
/// injection resolves in the same engine round (the fate of an
/// `isend_raw` is known at its grant), so serial stepping equals a
/// burst; under faults the head's backoff timer serializes the retries
/// deterministically.
#[derive(Default)]
pub(crate) struct SendQueue {
    q: VecDeque<QueuedSend>,
    /// Latest injection end among completed sends.
    pub(crate) done_at: SimNs,
}

/// A send that failed for good: the instant it is charged at, and why.
pub(crate) type SendFail = (SimNs, ClError);

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

    /// Step the head injection as far as possible now: `Some(Ok(()))`
    /// once the queue is drained (all injections delivered, the last
    /// ending at `done_at`), `Some(Err)` once the head has exhausted its
    /// retry budget, `None` — with the head's instant noted — while it
    /// waits.
    pub(crate) fn drive(&mut self, cx: &mut OpCx) -> Option<Result<(), SendFail>> {
        while let Some(head) = self.q.front_mut() {
            match head.send.step(cx) {
                ChunkStep::Progressed => continue,
                ChunkStep::Park(t) => {
                    note_wake_at(t);
                    return None;
                }
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
                    return Some(Err((at, e)));
                }
            }
        }
        Some(Ok(()))
    }

    /// [`SendQueue::drive`] until the queue drains or its head fails.
    pub(crate) async fn flush(&mut self, cx: &mut OpCx) -> Result<(), SendFail> {
        until(|| self.drive(cx)).await
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
    /// `None` only on the way out of the poll that took the message, so
    /// the drop withdraws nothing then.
    req: Option<Request>,
    /// (expiry instant, patience), read per chunk from the policy.
    deadline: Option<(SimNs, SimNs)>,
}

/// A received wire chunk, its payload the very allocation the sender
/// handed the wire: a broadcast shares it between relays.
pub(crate) type WireChunk = RecvResult<Arc<Vec<u8>>>;

/// What one [`ChunkRecv::poll`] found.
pub(crate) enum RecvPoll {
    /// The chunk; the receive is spent.
    Ready(WireChunk),
    /// Not yet: the receive, still posted, with the instant to look
    /// again (if any) noted.
    Pending(ChunkRecv),
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
    /// source) now. A patience that would end past the last instant sets
    /// no deadline.
    pub(crate) fn post(cx: &OpCx, src: Option<Rank>, wire_tag: Tag) -> Self {
        let inner = &cx.inner;
        let req = inner
            .comm
            .irecv(&cx.inner.engine.actor, src, Some(wire_tag));
        let patience = inner
            .comm
            .world()
            .has_faults()
            .then(|| inner.retry.lock().chunk_timeout_ns);
        ChunkRecv {
            req: Some(req),
            deadline: patience.and_then(|p| Some((cx.now().checked_add(p)?, p))),
        }
    }

    /// Look for the chunk now. `upstream_dead` names a dead process
    /// without which it can never arrive, at the instant it is given; it
    /// is only asked — in this order, because what a poll reads is what
    /// the engine is parked on — when nothing has arrived and nothing is
    /// in flight, and before the deadline is looked at. A failure
    /// withdraws the receive.
    pub(crate) fn poll(
        mut self,
        cx: &mut OpCx,
        upstream_dead: impl FnOnce(&Inner, SimNs) -> Option<Rank>,
    ) -> Result<RecvPoll, RecvFail> {
        let now = cx.now();
        let actor = &cx.inner.engine.actor;
        if let Some(result) = self.req.as_mut().and_then(|r| r.test_shared(actor)) {
            self.req = None;
            return Ok(RecvPoll::Ready(
                result.expect("matched receive yields a payload"),
            ));
        }
        if let Some(at) = self.req.as_ref().and_then(Request::known_completion) {
            // Matched, in flight: the arrival instant is committed (even
            // past a deadline — retrying a message the fabric already
            // delivered would duplicate it).
            note_wake_at(at.max(now + 1));
            return Ok(RecvPoll::Pending(self));
        }
        if let Some(rank) = upstream_dead(&cx.inner, now) {
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
            Some((at, _)) => {
                note_wake_at(at);
                Ok(RecvPoll::Pending(self))
            }
            None => Ok(RecvPoll::Pending(self)),
        }
    }

    /// [`ChunkRecv::poll`] until the chunk is here or the receive fails.
    pub(crate) async fn take(
        self,
        cx: &mut OpCx,
        upstream_dead: impl Fn(&Inner, SimNs) -> Option<Rank>,
    ) -> Result<WireChunk, RecvFail> {
        let mut posted = Some(self);
        until(|| match posted.take()?.poll(cx, &upstream_dead) {
            Ok(RecvPoll::Ready(chunk)) => Some(Ok(chunk)),
            Ok(RecvPoll::Pending(recv)) => {
                posted = Some(recv);
                None
            }
            Err(f) => Some(Err(f)),
        })
        .await
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
            got: 0,
            recv: None,
        }
    }

    /// Has every wanted byte been yielded?
    pub(crate) fn is_complete(&self) -> bool {
        self.got >= self.want
    }

    /// Look for the next wire chunk from `src` — posting its receive
    /// first if none is posted — and yield it with its payload offset;
    /// `None` while it is not here. A chunk that would run past `want`
    /// fails the receive; `upstream_dead` is [`ChunkRecv::poll`]'s.
    pub(crate) fn poll(
        &mut self,
        cx: &mut OpCx,
        (src, wire_tag): (Option<Rank>, Tag),
        upstream_dead: impl FnOnce(&Inner, SimNs) -> Option<Rank>,
    ) -> Option<Result<(usize, WireChunk), RecvFail>> {
        let recv = match self.recv.take() {
            Some(recv) => recv,
            None => ChunkRecv::post(cx, src, wire_tag),
        };
        let chunk = match recv.poll(cx, upstream_dead) {
            Ok(RecvPoll::Ready(chunk)) => chunk,
            Ok(RecvPoll::Pending(recv)) => {
                self.recv = Some(recv);
                return None;
            }
            Err(f) => return Some(Err(f)),
        };
        let at = self.got;
        self.got += chunk.data.len().saturating_sub(self.header);
        if self.got > self.want {
            let (got, want) = (self.got, self.want);
            return Some(Err(RecvFail::Overflow { got, want }));
        }
        Some(Ok((at, chunk)))
    }

    /// [`CountedRecv::poll`] until the next chunk is here or the receive
    /// fails.
    async fn next(
        &mut self,
        cx: &mut OpCx,
        from: (Option<Rank>, Tag),
        upstream_dead: impl Fn(&Inner, SimNs) -> Option<Rank>,
    ) -> Result<(usize, WireChunk), RecvFail> {
        until(|| self.poll(cx, from, &upstream_dead)).await
    }
}

/// The `upstream_dead` of a receive from one known peer.
pub(crate) fn peer_dead(peer: Rank) -> impl Fn(&Inner, SimNs) -> Option<Rank> {
    move |inner, now| inner.peer_failed(peer, now).then_some(peer)
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
/// thread, so a body's loads, stores and landings cannot miss — here, and
/// in [`store`] and [`land`], is the place that relies on it.
pub(crate) fn load(buf: &Buffer, offset: usize, len: usize) -> Vec<u8> {
    load_behind(&[], buf, offset, len)
}

/// [`load`] straight behind a wire `header`, so framing a chunk does not
/// copy it a second time.
pub(crate) fn load_behind(header: &[u8], buf: &Buffer, offset: usize, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(header.len() + len);
    out.extend_from_slice(header);
    buf.load_onto(&mut out, [(offset, len)]);
    out
}

/// Copy bytes into a body's destination region (see [`load`]).
pub(crate) fn store(buf: &Buffer, offset: usize, data: &[u8]) {
    in_range(buf.store(offset, data));
}

/// Land a received wire chunk in a body's destination region by
/// reference: the buffer keeps the allocation and copies nothing until
/// somebody views the bytes (see [`load`]).
fn land(buf: &Buffer, offset: usize, chunk: Arc<Vec<u8>>) {
    in_range(buf.land(offset, chunk, 0));
}

/// The outcome of a write to a range its entry point checked.
fn in_range(written: ClResult<()>) {
    written.expect("range checked at enqueue");
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
        let segments = self.ty.segments_for_packed_range(lo, hi);
        buf.load_onto(
            &mut out,
            segments
                .into_iter()
                .map(|(soff, slen)| (offset + soff, slen)),
        );
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

/// One device-buffer transfer as its entry point describes it — the same
/// for both directions, which the marker `D` tells apart ([`SendBody`],
/// [`RecvBody`]).
pub(crate) struct TransferBody<D> {
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
    direction: PhantomData<D>,
}

/// The direction markers of [`TransferBody`].
pub(crate) enum Outbound {}
pub(crate) enum Inbound {}

impl<D> TransferBody<D> {
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
            direction: PhantomData,
        }
    }

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
    fn fail(&self, cx: &OpCx, e: ClError, at: SimNs) -> Outcome {
        if let Some(sel) = cx.inner.adaptive.lock().as_ref() {
            sel.observe_failure(self.size, self.strategy);
        }
        Err((e, at))
    }
}

/// `clEnqueueSendBuffer`: chunked device→host staging and reliable
/// network injection → completion at the last injection's end. Chunk
/// k+1's staging is reserved only once chunk k is known delivered;
/// retransmits re-inject from the host staging copy — the d2h stage (and
/// any pack kernel) is not repeated.
pub(crate) type SendBody = TransferBody<Outbound>;

impl SendBody {
    /// Stage chunk `k` — `(coff, clen)` of the strategy's plan — and
    /// queue its injection.
    fn arm(&self, cx: &OpCx, queue: &mut SendQueue, k: usize, (coff, clen): (usize, usize)) {
        let pcie = self.device.spec().pcie;
        // The hop's one copy: a chunk that is exactly one landed extent
        // (a Himeno edge plane) shares its allocation instead.
        let plain = || {
            let at = self.offset + coff;
            self.buf
                .share(at, clen)
                .unwrap_or_else(|| Arc::new(load(&self.buf, at, clen)))
        };
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
                        (Arc::new(bytes), [Some((Hop::D2h, d2h)), None], d2h.1)
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
                        (Arc::new(bytes), staged, d2h.1)
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
            bytes,
            earliest,
            duration,
        );
        let name = format!("{what}→{}", self.peer);
        queue.push_staged(send, start, name, staged);
    }
}

impl OpBody for SendBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let mut queue = SendQueue::default();
        let plan = ResolvedStrategy::plan(self.strategy, self.size);
        for (k, &chunk) in plan.chunks.iter().enumerate() {
            // The previous chunk is delivered: arm this one now.
            self.arm(cx, &mut queue, k, chunk);
            if let Err((at, e)) = queue.flush(cx).await {
                return self.fail(cx, e, at);
            }
        }
        let done_at = queue.done_at.max(cx.t0);
        self.landed(cx, "send", done_at - cx.t0);
        Ok(done_at)
    }
}

/// `clEnqueueRecvBuffer`: staging setup → per-chunk matched receive →
/// host→device staging (and unpack) → completion with the data in
/// device memory. Chunk k+1's receive is posted only after chunk k's
/// staging ends.
pub(crate) type RecvBody = TransferBody<Inbound>;

impl OpBody for RecvBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let pcie = self.device.spec().pcie;
        let setup = match self.strategy {
            TransferStrategy::Mapped => pcie.map_setup_ns,
            TransferStrategy::Pinned | TransferStrategy::Pipelined(_) => pcie.pin_setup_ns,
            TransferStrategy::Auto | TransferStrategy::Rma => {
                unreachable!("strategy resolved before dispatch; rma is one-sided")
            }
        };
        // One-time staging setup, paid up front (it overlaps the wait for
        // the first chunk, which it precedes).
        cx.inner.clock.sleep_until(cx.now() + setup).await;
        let (src, tag) = (self.peer, self.wire_tag);
        let mut recv = CountedRecv::new(self.size, 0);
        // A zero-byte transfer goes straight to completion.
        while !recv.is_complete() {
            let (at, chunk) = match recv.next(cx, (Some(src), tag), peer_dead(src)).await {
                Ok(got) => got,
                Err(f) => {
                    let what = format!("receive from rank {src} (tag {tag})");
                    return self.fail(cx, f.into_error(&what), cx.now());
                }
            };
            let (len, data) = (chunk.data.len(), chunk.data);
            if self.strategy == TransferStrategy::Mapped {
                // Zero-copy: the NIC already wrote through PCIe during
                // the sender-fused stream; the data is usable at arrival.
                land(&self.buf, self.offset + at, data);
                continue;
            }
            // Host-unpack baseline: the chunk's type-map segments are
            // scattered one by one across PCIe, each paying the staged
            // latency. Every other path moves the packed bytes in one hop.
            let cost = match &self.lowering {
                Some(l) if l.mode == PackMode::HostPack => l.host_staged_ns(&pcie, at, at + len),
                _ => pcie.staged_ns(len, true),
            };
            let h2d = Hop::H2d.reserve(&self.device, cost, cx.now());
            cx.inner.clock.sleep_until(h2d.1).await;
            Hop::H2d.record(cx, h2d, len, true);
            match &self.lowering {
                // The hop is the model's one copy; the host shares the
                // wire chunk instead of making it.
                None => land(&self.buf, self.offset + at, data),
                // The host already scattered segment-by-segment during
                // the h2d hop.
                Some(l) if l.mode == PackMode::HostPack => {
                    l.scatter(&self.buf, self.offset, at, &data)
                }
                Some(l) => {
                    // The packed chunk landed in device staging memory at
                    // the end of its h2d hop; an unpack kernel (2× the
                    // bytes through device memory) scatters it through the
                    // type map, reserved on the pack timeline so it
                    // serializes with the other pack kernels.
                    let cost = self.device.spec().membound_kernel_ns(2 * len);
                    let unpack = Hop::Unpack.reserve(&self.device, cost, h2d.1);
                    cx.inner.clock.sleep_until(unpack.1).await;
                    l.scatter(&self.buf, self.offset, at, &data);
                    Hop::Unpack.record(cx, unpack, len, true);
                }
            }
        }
        if self.strategy == TransferStrategy::Mapped {
            // Unmap after the MPI transfer completes (map → MPI → unmap,
            // the paper's mapped implementation).
            cx.inner
                .clock
                .sleep_until(cx.now() + pcie.map_setup_ns)
                .await;
        }
        let now = cx.now();
        self.landed(cx, "recv", now.saturating_sub(cx.t0));
        Ok(now)
    }
}

// ----------------------------------------------------------------------
// Host-buffer MPI_CL_MEM operations (isend_cl / irecv_cl) and
// clCreateEventFromMPIRequest
// ----------------------------------------------------------------------

/// Where [`HostSend`] reports its outcome: the last injection's end
/// instant on success, the exhaustion error on permanent failure.
pub(crate) type SendSlot = Arc<Monitor<Option<ClResult<SimNs>>>>;

/// `MPI_Isend` on `MPI_CL_MEM` (`isend_cl`): the payload chunks are
/// injected reliably from the submission instant, each armed once its
/// predecessor is delivered. In a zero-fault run every chunk is accepted
/// in the first burst and the op retires at once. Under faults, retries
/// continue on engine timers after the caller has resumed.
///
/// The one operation that does not run in the frame: it has no event and
/// no wait list, reports through a [`SendSlot`], owes its caller the
/// `issued` handshake, and — unlike every framed op — retires a success
/// at once instead of sleeping until its instant, because an un-awaited
/// request must never delay shutdown. It shares the chunk loop
/// ([`SendQueue`]) and the settlement of its envelope and counters
/// ([`OpCx::close`]).
pub(crate) struct HostSend {
    pub(crate) dst: Rank,
    pub(crate) wire_tag: Tag,
    /// Per-chunk payload and duration override, prepared on the caller.
    pub(crate) chunks: Vec<(Vec<u8>, Option<SimNs>)>,
    pub(crate) slot: SendSlot,
}

impl HostSend {
    /// Hand the send to `inner`'s engine. `issued` is flipped after the
    /// op's first poll, so the caller resumes only once the initial
    /// injection burst is on the wire (keeping the fabric reservation
    /// order of an inline send).
    pub(crate) fn submit(self, inner: &Arc<Inner>, env: Envelope, issued: Arc<Monitor<bool>>) {
        let send = self.run(OpCx::new(inner, Some(env)));
        inner.engine.submit(Box::pin(async move {
            let mut send = std::pin::pin!(send);
            let mut issued = Some(issued);
            std::future::poll_fn(|ctx| {
                let polled = send.as_mut().poll(ctx);
                if let Some(issued) = issued.take() {
                    issued.with(|i| *i = true);
                }
                polled
            })
            .await
        }));
    }

    async fn run(self, mut cx: OpCx) {
        let t0 = cx.now();
        let mut queue = SendQueue::default();
        let mut chunks = self.chunks.into_iter();
        let (outcome, at) = loop {
            if let Err((at, e)) = queue.flush(&mut cx).await {
                break (Err(e), at);
            }
            let Some((bytes, duration)) = chunks.next() else {
                break (Ok(queue.done_at), queue.done_at);
            };
            let (dst, tag) = (self.dst, self.wire_tag);
            let send = ReliableChunkSend::new(&cx.inner, dst, tag, Arc::new(bytes), t0, duration);
            queue.push(send, t0, format!("net→{dst}"), "chunk");
        };
        cx.close(outcome.is_ok(), at);
        self.slot.with(|s| *s = Some(outcome));
    }
}

/// `MPI_Irecv` into `MPI_CL_MEM` (`irecv_cl`): matched receives are
/// posted back-to-back into the pinned host landing buffer; the event
/// completes when the full payload has arrived.
pub(crate) struct IrecvBody {
    pub(crate) src: Rank,
    pub(crate) wire_tag: Tag,
    pub(crate) host: HostBuffer,
    /// The request's size.
    pub(crate) size: usize,
}

impl OpBody for IrecvBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let (src, tag) = (self.src, self.wire_tag);
        let mut recv = CountedRecv::new(self.size, 0);
        // A zero-byte receive completes at once.
        while !recv.is_complete() {
            let (at, chunk) = match recv.next(cx, (Some(src), tag), peer_dead(src)).await {
                Ok(got) => got,
                Err(f) => {
                    let what = format!("irecv_cl from rank {src} (tag {tag})");
                    return Err((f.into_error(&what), cx.now()));
                }
            };
            let data = chunk.data;
            self.host
                .write(|h| h.as_mut_slice()[at..at + data.len()].copy_from_slice(&data));
        }
        Ok(cx.now())
    }
}

/// `clCreateEventFromMPIRequest`: adapts a plain MPI request into an
/// event. The body asks the request for its completion instant and, once
/// that is due, publishes the payload (if any); the event completes at
/// that instant.
pub(crate) struct EventFromRequestBody {
    pub(crate) req: Request,
    pub(crate) slot: Arc<Monitor<Option<RecvResult>>>,
}

impl OpBody for EventFromRequestBody {
    async fn run(mut self, cx: &mut OpCx) -> Outcome {
        let result = until(|| match self.req.known_completion() {
            Some(at) if at <= cx.now() => self.req.test(&cx.inner.engine.actor),
            at => {
                if let Some(at) = at {
                    note_wake_at(at);
                }
                None
            }
        })
        .await;
        let bytes = result.as_ref().map_or(0, |r| r.data.len() as u64);
        if let Some(env) = cx.env_mut() {
            (env.bytes, env.received) = (bytes, bytes);
        }
        self.slot.with(|s| *s = result);
        Ok(cx.now())
    }
}

// ----------------------------------------------------------------------
// One-sided window bodies (MPI_CL_MEM exposed as MPI_Win)
// ----------------------------------------------------------------------
//
// These bodies drive `minimpi`'s non-blocking RMA handles from the
// engine. A handle's poll reads its slot, and the clock's grant of the
// reservation fills that slot in (or marks it dropped) with a notify, so
// the grant readies the engine at the instant it happens. A body with a
// pending flight waits on that slot alone, plus, before the first grant,
// an instant at the wire-claim earliest plus one: the grant instant
// itself. After a retransmit, whose claim instant is arbiter-internal,
// it notes no instant at all.

/// One in-flight one-sided op plus the bookkeeping needed to wait
/// precisely and to convert retransmit deltas into drop/retry spans.
pub(crate) struct RmaFlight {
    handle: RmaHandle,
    /// Wire-claim earliest of the initial post: the wake instant before
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

    /// Convert retransmits since the last poll into drop + retry child
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

/// Poll every unfinished flight of an operation once: `Some(Ok(at))`
/// once every flight delivered (`at` the last arrival), `Some(Err)` for
/// the first terminal failure in issue order — already accounted, and
/// stamped no earlier than now — and `None` while any is in flight, with
/// the earliest useful instant to look again noted if a flight has one.
fn poll_flights(
    cx: &mut OpCx,
    flights: &mut [RmaFlight],
) -> Option<Result<SimNs, (MpiError, SimNs)>> {
    let now = cx.now();
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
        Some(Err((err, at)))
    } else if pending {
        if let Some(t) = wake {
            note_wake_at(t);
        }
        None
    } else {
        Some(Ok(done_at))
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
    fn fail(&self, cx: &OpCx, err: MpiError, at: SimNs) -> Outcome {
        if let Some(sel) = cx.inner.rma_adaptive.lock().as_ref() {
            sel.observe_failure((self.target, self.size), self.strategy);
        }
        let e = ClError::TransferFailed(format!("put to rank {}: {err}", self.target));
        Err((e, at))
    }
}

impl OpBody for PutBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let mut flights = match self.arm(cx) {
            Ok(flights) => flights,
            Err(e) => return self.fail(cx, e, cx.now()),
        };
        let at = match until(|| poll_flights(cx, &mut flights)).await {
            Ok(at) => at,
            Err((err, at)) => return self.fail(cx, err, at),
        };
        let done_at = at.max(cx.t0);
        let dur = done_at - cx.t0;
        cx.landed("put", Via::Strategy(self.strategy), self.size, dur);
        if let Some(sel) = cx.inner.rma_adaptive.lock().as_ref() {
            sel.observe((self.target, self.size), self.strategy, dur);
        }
        Ok(done_at)
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
}

impl OpBody for GetBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let fail = |err: MpiError, at| {
            let e = ClError::TransferFailed(format!("get from rank {}: {err}", self.target));
            Err((e, at))
        };
        let now = cx.now();
        let mut flight = match self.win.get(self.target, self.win_offset, self.size) {
            Ok(h) => [RmaFlight::new(h, now)],
            Err(e) => return fail(e, now),
        };
        let at = match until(|| poll_flights(cx, &mut flight)).await {
            Ok(at) => at,
            Err((err, at)) => return fail(err, at),
        };
        let [flight] = flight;
        let data = flight
            .handle
            .take_data()
            .expect("settled get yields its payload");
        // The payload is crossing PCIe until `h2d.1`.
        let h2d = Hop::H2d.stage(cx, &self.device, data.len(), at.max(cx.t0));
        cx.inner.clock.sleep_until(h2d.1).await;
        store(&self.buf, self.offset, &data);
        let dur = h2d.1.saturating_sub(cx.t0);
        cx.landed("get", Via::Strategy(TransferStrategy::Rma), self.size, dur);
        Ok(h2d.1)
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
}

impl OpBody for AccumulateBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let fail = |err: MpiError, at| {
            let e = ClError::TransferFailed(format!("accumulate to rank {}: {err}", self.target));
            Err((e, at))
        };
        // The operand is crossing PCIe until `d2h.1`.
        let from = cx.now() + self.device.spec().pcie.pin_setup_ns;
        let d2h = Hop::D2h.stage(cx, &self.device, self.size, from);
        cx.inner.clock.sleep_until(d2h.1).await;
        let bytes = load(&self.buf, self.offset, self.size);
        let now = cx.now();
        let posted = self
            .win
            .accumulate_owned(self.target, self.win_offset, bytes, self.op);
        let mut flight = match posted {
            Ok(h) => [RmaFlight::new(h, now)],
            Err(e) => return fail(e, now),
        };
        let at = match until(|| poll_flights(cx, &mut flight)).await {
            Ok(at) => at,
            Err((err, at)) => return fail(err, at),
        };
        let done_at = at.max(cx.t0);
        let dur = done_at - cx.t0;
        cx.landed("acc", Via::Strategy(TransferStrategy::Rma), self.size, dur);
        Ok(done_at)
    }
}

/// `clEnqueueWinFence`: the one fence, [`Win::fence_async`], awaited in
/// the body; its classified failure fails the event.
pub(crate) struct FenceBody {
    pub(crate) win: Win,
}

impl OpBody for FenceBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let fenced = self.win.fence_async().await;
        let now = cx.now();
        match fenced {
            Ok(()) => Ok(now),
            Err(err) => {
                cx.rma_failed(&err, now);
                Err((ClError::TransferFailed(format!("rma epoch: {err}")), now))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimClock;

    /// An op that waits until a fixed instant, then records when it ran.
    fn timer_op(clock: &SimClock, fire_at: SimNs, fired: Arc<Monitor<Vec<SimNs>>>) -> OpFuture {
        let clock = clock.clone();
        Box::pin(async move {
            clock.sleep_until(fire_at).await;
            fired.with(|f| f.push(clock.now_ns()));
        })
    }

    #[test]
    fn engine_fires_timers_at_their_virtual_instant() {
        let clock = SimClock::new();
        // Register the caller first: the engine must never be the only
        // actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into());
        let fired = Arc::new(Monitor::new(clock.clone(), Vec::new()));
        engine.submit(timer_op(&clock, 5_000, fired.clone()));
        engine.wait_idle(&actor);
        assert_eq!(fired.peek(|f| f.clone()), vec![5_000]);
        assert_eq!(actor.now_ns(), 5_000);
    }

    #[test]
    fn engine_orders_independent_timers_without_blocking_each_other() {
        let clock = SimClock::new();
        // Register the caller first: the engine must never be the only
        // actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into());
        let order = Arc::new(Monitor::new(clock.clone(), Vec::new()));
        // Submit out of order; the engine must retire them in virtual
        // order because each waits on its own instant.
        for &at in &[20_000u64, 12_000, 16_000] {
            engine.submit(timer_op(&clock, at, order.clone()));
        }
        engine.wait_idle(&actor);
        assert_eq!(order.peek(|o| o.clone()), vec![12_000, 16_000, 20_000]);
        assert_eq!(actor.now_ns(), 20_000);
    }

    #[test]
    #[should_panic(expected = "already shut down")]
    fn submitting_after_shutdown_panics() {
        let clock = SimClock::new();
        // Register the caller first: the engine must never be the only
        // actor (the deadlock detector would trip at start-up).
        let actor = clock.register("caller");
        let engine = Engine::start(&clock, "test-engine".into());
        engine.wait_idle(&actor);
        engine.shared.with(|s| s.shutdown = true);
        let fired = Arc::new(Monitor::new(clock.clone(), Vec::new()));
        engine.submit(timer_op(&clock, 1, fired));
    }
}
