//! Point-to-point messaging: posting, matching, requests.
//!
//! Matching model (faithful to MPI):
//!
//! * Every incoming message gets a **receiver-side sequence number** at
//!   post (send) time; posted receives get a **posting order**. The
//!   matcher pairs posted receives, in posting order, with the
//!   lowest-sequence matching message — so same-signature traffic is
//!   non-overtaking on both sides.
//! * A message may be *matched* while still in flight; the receive only
//!   *completes* when the virtual clock reaches the message's arrival
//!   instant. (Real MPI matches on arrival of the envelope; the observable
//!   completion times are the same.)

use std::collections::BTreeMap;
use std::future::Future;
use std::sync::Arc;

use simnet::{DropReason, FaultOutcome};
use simtime::plock::Mutex;
use simtime::{until, until_keyed, Actor, Monitor, SimNs, WakeKey};

use crate::world::Comm;
use crate::{Datatype, Rank, Tag};

/// Errors surfaced through the `Result`-returning request/receive APIs
/// (the panicking wrappers remain for code that treats these as bugs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// A [`Request::wait_timeout`] deadline expired before any message
    /// matched the request.
    Timeout {
        /// Virtual nanoseconds waited before giving up.
        waited_ns: SimNs,
    },
    /// A message did not fit the caller's buffer
    /// ([`Comm::try_recv_into`]).
    Truncated {
        /// Incoming payload length in bytes.
        len: usize,
        /// Caller buffer capacity in bytes.
        capacity: usize,
    },
    /// A rank argument was outside the communicator.
    RankOutOfRange {
        /// The offending rank.
        rank: Rank,
        /// Communicator size.
        size: usize,
    },
    /// The peer process is dead (`MPI_ERR_PROC_FAILED`): the fabric's
    /// fault plan schedules its node down at the instant the operation
    /// needed it. Produced by the ULFM-style detection layer, which
    /// classifies timeouts against the plan rather than wall-clock.
    ProcFailed {
        /// Communicator-local rank of the failed peer.
        rank: Rank,
    },
    /// The communicator was revoked (`MPI_ERR_REVOKED`): some member
    /// called [`Comm::revoke`], and all subsequent fallible operations
    /// on it fail until survivors [`Comm::shrink`] to a fresh one.
    Revoked,
    /// A window operation (`Put`/`Get`/`Accumulate`) was issued outside
    /// any access epoch on its target: no fence has opened the window and
    /// no passive-target lock of `target` is held (`MPI_ERR_RMA_SYNC`).
    RmaNoEpoch {
        /// Communicator-local target rank of the offending operation.
        target: Rank,
    },
    /// `Win::lock` on a target this rank already holds locked — passive
    /// epochs on one target do not nest (`MPI_ERR_RMA_SYNC`).
    RmaAlreadyLocked {
        /// Communicator-local target rank.
        target: Rank,
    },
    /// `Win::unlock` on a target this rank never locked
    /// (`MPI_ERR_RMA_SYNC`).
    RmaNotLocked {
        /// Communicator-local target rank.
        target: Rank,
    },
    /// A window access of `[offset, offset + len)` falls outside the
    /// target rank's exposed window of `size` bytes (`MPI_ERR_RMA_RANGE`).
    RmaOutOfRange {
        /// Starting byte offset into the target window.
        offset: usize,
        /// Access length in bytes.
        len: usize,
        /// Target window size in bytes.
        size: usize,
    },
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Timeout { waited_ns } => {
                write!(f, "request timed out after {waited_ns} virtual ns")
            }
            MpiError::Truncated { len, capacity } => {
                write!(
                    f,
                    "message of {len} bytes truncated into {capacity}-byte buffer"
                )
            }
            MpiError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::ProcFailed { rank } => {
                write!(f, "peer rank {rank} is a failed process")
            }
            MpiError::Revoked => write!(f, "communicator has been revoked"),
            MpiError::RmaNoEpoch { target } => {
                write!(f, "window access to rank {target} outside any epoch")
            }
            MpiError::RmaAlreadyLocked { target } => {
                write!(f, "window lock of rank {target} is already held")
            }
            MpiError::RmaNotLocked { target } => {
                write!(f, "window unlock of rank {target} without a lock")
            }
            MpiError::RmaOutOfRange { offset, len, size } => {
                write!(
                    f,
                    "window access [{offset}, {}) outside {size}-byte window",
                    offset + len
                )
            }
        }
    }
}

impl std::error::Error for MpiError {}

/// Delivery information of a completed receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Sending rank.
    pub source: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload length in bytes.
    pub len: usize,
    /// Datatype tag the sender attached.
    pub datatype: Datatype,
}

/// Payload + status from a completed receive. The bytes are a plain
/// `Vec<u8>`; [`Request::test_shared`] yields them as the wire's shared
/// allocation (`D = Arc<Vec<u8>>`) instead.
#[derive(Debug, Clone)]
pub struct RecvResult<D = Vec<u8>> {
    /// The received bytes.
    pub data: D,
    /// Delivery information.
    pub status: Status,
}

impl RecvResult<Arc<Vec<u8>>> {
    /// The payload as its own vector: a move when this receive is its
    /// only owner (every point-to-point message), a copy otherwise.
    fn owned(self) -> RecvResult {
        RecvResult {
            data: Arc::unwrap_or_clone(self.data),
            status: self.status,
        }
    }
}

#[derive(Debug)]
pub(crate) struct InMsg {
    /// Global rank of the sender.
    src: Rank,
    /// Communication context (communicator id).
    context: u64,
    tag: Tag,
    datatype: Datatype,
    payload: Arc<Vec<u8>>,
    visible_at: SimNs,
    seq: u64,
}

#[derive(Debug)]
struct PendingRecv {
    id: u64,
    /// Global rank filter.
    src: Option<Rank>,
    context: u64,
    tag: Option<Tag>,
    order: u64,
}

/// Per-rank matching engine state (behind a [`Monitor`]).
#[derive(Default)]
pub(crate) struct RankState {
    inbox: Vec<InMsg>,
    pending: Vec<PendingRecv>,
    /// Matched-but-unclaimed messages by posted-receive id; match order
    /// is decided by the ordered `inbox`/`pending` vecs.
    matched: BTreeMap<u64, InMsg>,
    next_seq: u64,
    next_recv_id: u64,
    next_order: u64,
}

impl RankState {
    /// Claim receive `id`'s matched message once it is visible at `now`:
    /// the ready [`RecvResult`], its source in `members`' numbering.
    fn take_visible(
        &mut self,
        id: u64,
        now: SimNs,
        members: &Option<Arc<Vec<Rank>>>,
    ) -> Option<RecvResult<Arc<Vec<u8>>>> {
        if self.matched.get(&id)?.visible_at > now {
            return None;
        }
        let msg = self.matched.remove(&id).expect("matched entry vanished");
        Some(RecvResult {
            status: Status {
                source: to_local(members, msg.src),
                tag: msg.tag,
                len: msg.payload.len(),
                datatype: msg.datatype,
            },
            data: msg.payload,
        })
    }

    /// Pair posted receives (posting order) with inbox messages
    /// (lowest sequence matching each). Called after every state change.
    fn try_match(&mut self) {
        // Pending receives are kept in posting order.
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            let candidate = self
                .inbox
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    m.context == p.context
                        && p.src.is_none_or(|s| s == m.src)
                        && p.tag.is_none_or(|t| t == m.tag)
                })
                .min_by_key(|(_, m)| m.seq)
                .map(|(idx, _)| idx);
            match candidate {
                Some(idx) => {
                    let msg = self.inbox.swap_remove(idx);
                    let p = self.pending.remove(i);
                    self.matched.insert(p.id, msg);
                    // restart not needed: removal keeps order; keep i
                }
                None => i += 1,
            }
        }
    }

    fn post(
        &mut self,
        msg_src: Rank,
        context: u64,
        tag: Tag,
        datatype: Datatype,
        payload: Arc<Vec<u8>>,
        visible_at: SimNs,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.inbox.push(InMsg {
            src: msg_src,
            context,
            tag,
            datatype,
            payload,
            visible_at,
            seq,
        });
        self.try_match();
    }

    fn post_recv(&mut self, src: Option<Rank>, context: u64, tag: Option<Tag>) -> u64 {
        let id = self.next_recv_id;
        self.next_recv_id += 1;
        let order = self.next_order;
        self.next_order += 1;
        self.pending.push(PendingRecv {
            id,
            src,
            context,
            tag,
            order,
        });
        // pending stays sorted by order because orders are monotone.
        debug_assert!(self.pending.windows(2).all(|w| w[0].order < w[1].order));
        self.try_match();
        id
    }
}

/// A non-blocking operation in flight (`MPI_Request`).
#[must_use = "requests must be waited or tested to observe completion"]
pub struct Request {
    kind: ReqKind,
}

/// Injection outcome of a send, filled in by the fabric arbiter's grant
/// callback. `drop_reason` is `Some` when the fault plan dropped the
/// message (the sender's NIC learns the fate at injection time — a
/// link-layer NACK — which is what the clMPI retry layer polls), and the
/// payload the fabric refused waits in `refused` for the sender to take
/// back ([`Request::take_refused`]); a delivered one has moved into the
/// receiver's inbox.
#[derive(Debug)]
struct SendOutcome {
    done_at: SimNs,
    drop_reason: Option<DropReason>,
    /// Behind a lock of its own: taking the bytes back changes nothing a
    /// waiter's predicate reads, so it must not notify the monitor.
    refused: Mutex<Option<Arc<Vec<u8>>>>,
}

enum ReqKind {
    /// An `isend`: completes when injection ends (buffer reusable). The
    /// reservation is *deferred* — posted to the fabric arbiter and
    /// granted, in canonical order, once virtual time passes the
    /// injection instant — so the outcome cell fills in asynchronously.
    Send {
        outcome: Arc<Monitor<Option<SendOutcome>>>,
    },
    /// An `irecv`: completes when the matched message has arrived.
    Recv {
        id: u64,
        state: Arc<Monitor<RankState>>,
        /// The receiving rank's arrival key (`WorldInner::arrivals`).
        arrival: WakeKey,
        /// Communicator member table for translating the global source
        /// rank back to a communicator-local one (None = world).
        members: Option<Arc<Vec<Rank>>>,
    },
}

fn to_local(members: &Option<Arc<Vec<Rank>>>, global: Rank) -> Rank {
    match members {
        None => global,
        Some(m) => m
            .iter()
            .position(|&g| g == global)
            .expect("sender is a member of the communicator"),
    }
}

impl Request {
    /// For a dropped [`Comm::isend_raw`] (link-layer NACK, observed by the
    /// sender's NIC at injection time): why the fabric dropped the message
    /// — after [`DropReason::NodeDown`] a retransmit is futile — and the
    /// payload it refused, the very allocation the send was given, so a
    /// retransmit can hand it over again. `None` for a delivered or
    /// still-arbitrating send (ask [`Request::known_completion`] first),
    /// for a receive, and once taken.
    pub fn take_refused(&self) -> Option<(DropReason, Arc<Vec<u8>>)> {
        match &self.kind {
            ReqKind::Send { outcome, .. } => outcome.peek(|o| {
                let o = o.as_ref()?;
                o.drop_reason.zip(o.refused.lock().take())
            }),
            ReqKind::Recv { .. } => None,
        }
    }

    /// Block until the send's injection has been granted and its fate
    /// decided, then report delivery (without consuming the request, so
    /// the caller can still [`Request::wait`] for completion). Receives
    /// return `true` immediately.
    pub fn wait_delivered(&self, actor: &Actor) -> bool {
        match &self.kind {
            ReqKind::Send { outcome } => {
                let o = actor.wait_on(&[outcome.key()], "mpi send (fate)", || {
                    outcome.peek(|o| o.as_ref().map(|o| o.drop_reason))
                });
                o.is_none()
            }
            ReqKind::Recv { .. } => true,
        }
    }

    /// Virtual completion instant, if already determined (`Send` once
    /// the arbiter grants its injection; `Recv` once matched).
    pub fn known_completion(&self) -> Option<SimNs> {
        match &self.kind {
            ReqKind::Send { outcome, .. } => outcome.peek(|o| o.as_ref().map(|o| o.done_at)),
            ReqKind::Recv { id, state, .. } => {
                state.peek(|st| st.matched.get(id).map(|m| m.visible_at))
            }
        }
    }

    /// Block the calling actor until the operation completes. Returns the
    /// payload for receives, `None` for sends.
    ///
    /// A receive parks on its rank's arrival key, narrower than the rank
    /// state it reads: the state is notified when a message matches, still
    /// in flight, the arrival key when it lands — one wake per message. A
    /// send parks until the fabric grants its injection, then sleeps to the
    /// instant the injection ends (label `"sleep"`, as every sleep).
    pub fn wait(self, actor: &Actor) -> Option<RecvResult> {
        match self.kind {
            ReqKind::Send { outcome } => {
                let done_at = actor.block_on("mpi send", granted(&outcome));
                actor.advance_until(done_at);
                None
            }
            ReqKind::Recv {
                id,
                state,
                arrival,
                members,
            } => Some(actor.block_on("mpi recv", arrived(id, state, arrival, members))),
        }
    }

    /// The future of [`Request::wait`], for a body that runs as a task:
    /// it waits on the same keys and instants.
    pub async fn wait_async(self) -> Option<RecvResult> {
        match self.kind {
            ReqKind::Send { outcome } => {
                let done_at = granted(&outcome).await;
                outcome.clock().sleep_until(done_at).await;
                None
            }
            ReqKind::Recv {
                id,
                state,
                arrival,
                members,
            } => Some(arrived(id, state, arrival, members).await),
        }
    }

    /// Like [`Request::wait`], but give up after `timeout_ns` of virtual
    /// time. A receive times out only while **unmatched**: once a message
    /// has matched the request its arrival instant is committed, so the
    /// wait sees it through even past the deadline (retrying a message the
    /// fabric already delivered would duplicate it). On timeout the
    /// request is cancelled and consumed. A timeout that would end past
    /// the last instant is no deadline: this is [`Request::wait`].
    pub fn wait_timeout(
        self,
        actor: &Actor,
        timeout_ns: SimNs,
    ) -> Result<Option<RecvResult>, MpiError> {
        let Some(deadline) = actor.now_ns().checked_add(timeout_ns) else {
            return Ok(self.wait(actor));
        };
        match self.kind {
            ReqKind::Send { outcome } => {
                outcome.alarm_at(deadline);
                let fate = until(|| {
                    let now = outcome.clock().now_ns();
                    if let Some(done_at) = outcome.peek(|o| o.as_ref().map(|o| o.done_at)) {
                        return Some(Some(done_at));
                    }
                    (now >= deadline).then_some(None)
                });
                let res = actor.block_on("mpi send (timeout)", fate);
                match res {
                    Some(done_at) if done_at <= deadline => {
                        actor.advance_until(done_at);
                        Ok(None)
                    }
                    _ => {
                        actor.advance_until(deadline);
                        Err(MpiError::Timeout {
                            waited_ns: timeout_ns,
                        })
                    }
                }
            }
            ReqKind::Recv {
                id, state, members, ..
            } => {
                let clock = state.clock().clone();
                state.alarm_at(deadline);
                let arrived = until(|| {
                    state.try_now(|st| {
                        let now = clock.now_ns();
                        if let Some(r) = st.take_visible(id, now, &members) {
                            return Some(Ok(r.owned()));
                        }
                        // Keep waiting inside the deadline — and past it
                        // once matched: an in-flight arrival is committed.
                        if st.matched.contains_key(&id) || now < deadline {
                            return None;
                        }
                        st.pending.retain(|p| p.id != id);
                        Some(Err(MpiError::Timeout {
                            waited_ns: timeout_ns,
                        }))
                    })
                });
                actor.block_on("mpi recv (timeout)", arrived).map(Some)
            }
        }
    }

    /// Cancel the operation (`MPI_Cancel` semantics, simplified). A
    /// receive that has not matched is withdrawn and `true` is returned; a
    /// receive whose message already matched cannot be cancelled — the
    /// message is returned to the inbox for other receives and `false` is
    /// returned. A send is never cancellable: its injection is arbitrated
    /// by the fabric after the post ([`Comm::isend_raw`]), and nothing
    /// takes a posted job back out of the arbiter.
    pub fn cancel(self) -> bool {
        let ReqKind::Recv {
            id, state, arrival, ..
        } = self.kind
        else {
            return false;
        };
        let (withdrawn, handed_back) = state.with(|st| {
            let before = st.pending.len();
            st.pending.retain(|p| p.id != id);
            if st.pending.len() < before {
                return (true, false);
            }
            let Some(msg) = st.matched.remove(&id) else {
                return (false, false);
            };
            // Seq is preserved, so non-overtaking order survives the
            // round trip through the matcher.
            st.inbox.push(msg);
            st.try_match();
            (false, true)
        });
        if handed_back {
            // Whichever receive the message went to may be blocked past
            // the arrival instant its alarm announced.
            state.clock().notify_key(arrival);
        }
        withdrawn
    }

    /// Non-blocking completion check. On completion returns
    /// `Some(payload-for-receives)`; `None` means still in flight.
    #[allow(clippy::option_option)]
    pub fn test(&mut self, actor: &Actor) -> Option<Option<RecvResult>> {
        self.test_shared(actor).map(|r| r.map(RecvResult::owned))
    }

    /// [`Request::test`] that leaves a receive's payload where the wire
    /// put it: the allocation the sender handed [`Comm::isend_raw`], which
    /// a broadcast relay may be forwarding to others as well.
    #[allow(clippy::option_option)]
    pub fn test_shared(&mut self, actor: &Actor) -> Option<Option<RecvResult<Arc<Vec<u8>>>>> {
        match &mut self.kind {
            ReqKind::Send { outcome, .. } => {
                match outcome.peek(|o| o.as_ref().map(|o| o.done_at)) {
                    Some(done_at) if actor.now_ns() >= done_at => Some(None),
                    _ => None,
                }
            }
            ReqKind::Recv {
                id, state, members, ..
            } => state
                .try_now(|st| st.take_visible(*id, actor.now_ns(), members))
                .map(Some),
        }
    }
}

/// The instant a send's injection ends, once the fabric has granted it.
fn granted(outcome: &Monitor<Option<SendOutcome>>) -> impl Future<Output = SimNs> + '_ {
    until(|| outcome.peek(|o| o.as_ref().map(|o| o.done_at)))
}

/// Receive `id`'s payload once its message has arrived, parked on the
/// rank's arrival key alone: whatever makes a matched message claimable
/// alarms or notifies that key.
fn arrived(
    id: u64,
    state: Arc<Monitor<RankState>>,
    arrival: WakeKey,
    members: Option<Arc<Vec<Rank>>>,
) -> impl Future<Output = RecvResult> {
    let clock = state.clock().clone();
    let res = until_keyed(arrival, move || {
        state.try_now(|st| st.take_visible(id, clock.now_ns(), &members))
    });
    async move { res.await.owned() }
}

/// Wait for every request; results are positionally aligned (sends yield
/// `None`).
pub fn wait_all(requests: Vec<Request>, actor: &Actor) -> Vec<Option<RecvResult>> {
    requests.into_iter().map(|r| r.wait(actor)).collect()
}

/// Wait until *any* request completes (`MPI_Waitany`): returns its index,
/// its result, and the remaining requests (order preserved).
pub fn wait_any(
    mut requests: Vec<Request>,
    actor: &Actor,
) -> (usize, Option<RecvResult>, Vec<Request>) {
    assert!(!requests.is_empty(), "wait_any needs at least one request");
    let any = until(|| {
        for (i, r) in requests.iter_mut().enumerate() {
            if let Some(res) = r.test(actor) {
                return Some((i, res));
            }
        }
        None
    });
    let (idx, res) = actor.block_on("mpi wait_any", any);
    let _consumed = requests.remove(idx); // completed by the test() above
    (idx, res, requests)
}

impl Comm {
    /// Non-blocking tagged send of `data` to `dst`. The payload is
    /// snapshotted (buffered send) and fabric capacity is reserved
    /// immediately; the request completes when injection ends.
    pub fn isend(&self, actor: &Actor, dst: Rank, tag: Tag, data: &[u8]) -> Request {
        let now = actor.now_ns();
        let payload = Arc::new(data.to_vec());
        self.isend_raw(actor, dst, tag, Datatype::Bytes, payload, now, None)
    }

    /// [`Comm::isend`] that reports an out-of-range destination as an
    /// error instead of panicking (for callers forwarding unvalidated
    /// input).
    pub fn try_isend(
        &self,
        actor: &Actor,
        dst: Rank,
        tag: Tag,
        data: &[u8],
    ) -> Result<Request, MpiError> {
        self.ensure_not_revoked()?;
        if dst >= self.size() {
            return Err(MpiError::RankOutOfRange {
                rank: dst,
                size: self.size(),
            });
        }
        Ok(self.isend(actor, dst, tag, data))
    }

    /// Blocking [`Comm::try_isend`].
    pub fn try_send(
        &self,
        actor: &Actor,
        dst: Rank,
        tag: Tag,
        data: &[u8],
    ) -> Result<(), MpiError> {
        let _ = self.try_isend(actor, dst, tag, data)?.wait(actor);
        Ok(())
    }

    /// Lowest-level send, and the one that takes its payload by reference
    /// count: the wire holds the bytes from here on and moves them into the
    /// receiver's inbox on delivery; if the fabric drops the message
    /// instead, the sender gets them back from [`Request::take_refused`].
    /// A payload nobody else holds reaches the receiver's
    /// [`RecvResult::data`] without a copy; one shared with other sends
    /// (a broadcast's children) is copied only by a receiver that asks
    /// for its own vector. Optionally
    /// overrides the injection duration (`duration_override`), for
    /// transfers whose effective rate is not the raw link rate — e.g. the
    /// clMPI *mapped* strategy, where the NIC streams through PCIe at the
    /// device's zero-copy rate.
    #[allow(clippy::too_many_arguments)]
    pub fn isend_raw(
        &self,
        _actor: &Actor,
        dst: Rank,
        tag: Tag,
        datatype: Datatype,
        payload: Arc<Vec<u8>>,
        earliest: SimNs,
        duration_override: Option<SimNs>,
    ) -> Request {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        let gdst = self.global_rank(dst);
        let inner = &self.world.inner;
        let outcome = Arc::new(Monitor::new(inner.clock.clone(), None));
        let len = payload.len();
        // The reservation goes through the fabric's arbiter: claiming
        // link time eagerly here would serialize same-instant injections
        // from different engine threads in OS-scheduling order. The grant
        // callback below runs once the clock has passed `earliest`, in
        // canonical order, with a reservation backdated to `earliest`.
        let complete: Box<dyn FnOnce(simnet::Reservation) + Send> = {
            let world = self.world.clone();
            let outcome = outcome.clone();
            let src = self.rank;
            let context = self.context;
            Box::new(move |res| {
                let inner = &world.inner;
                // The fate of the message is decided at injection time: a
                // dropped message still burns the link window it reserved
                // (the bits went out), but never reaches the receiver's
                // inbox, and the sender observes the loss on its request
                // (link-layer NACK model).
                let fate = inner.fabric.fault_decision(src, gdst, tag, res.start);
                let (drop_reason, refused) = match fate {
                    FaultOutcome::Deliver { extra_latency_ns } => {
                        let visible_at = res.arrival + extra_latency_ns;
                        inner.ranks[gdst]
                            .with(|st| st.post(src, context, tag, datatype, payload, visible_at));
                        // Wake the receiver's request waiters at arrival:
                        // the machines and deadline waits parked on its
                        // state, and a blocked receive on its arrival key
                        // (at once, if this grant came late).
                        inner.ranks[gdst].alarm_at(visible_at);
                        let arrival = inner.arrivals[gdst];
                        inner.clock.schedule_alarm_keyed(visible_at, arrival);
                        (None, None)
                    }
                    FaultOutcome::Drop(reason) => {
                        let label = match reason {
                            DropReason::Random => format!("drop r{src}→r{gdst} #{tag}"),
                            DropReason::LinkDown => format!("down r{src}→r{gdst} #{tag}"),
                            DropReason::NodeDown => format!("dead r{src}→r{gdst} #{tag}"),
                        };
                        inner.trace.record("net.fault", label, res.start, res.end);
                        (Some(reason), Some(payload))
                    }
                };
                // Wake this request's waiters at send completion.
                outcome.alarm_at(res.end);
                outcome.with(|o| {
                    *o = Some(SendOutcome {
                        done_at: res.end,
                        drop_reason,
                        refused: Mutex::new(refused),
                    })
                });
            })
        };
        match duration_override {
            None => inner
                .fabric
                .reserve_deferred(self.rank, gdst, tag, len, earliest, complete),
            Some(d) => inner
                .fabric
                .reserve_duration_deferred(self.rank, gdst, tag, d, earliest, complete),
        }
        Request {
            kind: ReqKind::Send { outcome },
        }
    }

    /// Blocking tagged send (buffered-send completion semantics: returns
    /// when the payload has been injected and the buffer is reusable).
    pub fn send(&self, actor: &Actor, dst: Rank, tag: Tag, data: &[u8]) {
        self.isend(actor, dst, tag, data).wait(actor);
    }

    /// Non-blocking receive matching `src`/`tag` (use [`crate::ANY_SOURCE`]
    /// / [`crate::ANY_TAG`] as wildcards).
    pub fn irecv(&self, _actor: &Actor, src: Option<Rank>, tag: Option<Tag>) -> Request {
        let gsrc = src.map(|s| {
            assert!(s < self.size(), "source rank {s} out of range");
            self.global_rank(s)
        });
        let state = self.world.inner.ranks[self.rank].clone();
        let context = self.context;
        let id = state.with(|st| st.post_recv(gsrc, context, tag));
        Request {
            kind: ReqKind::Recv {
                id,
                state,
                arrival: self.world.inner.arrivals[self.rank],
                members: self.members.clone(),
            },
        }
    }

    /// Blocking receive; returns payload and status.
    pub fn recv(&self, actor: &Actor, src: Option<Rank>, tag: Option<Tag>) -> RecvResult {
        actor.block_on("mpi recv", self.recv_async(actor, src, tag))
    }

    /// The future of [`Comm::recv`]. The receive is posted by the call, so
    /// it matches in call order; the future parks on the rank's arrival
    /// key alone, as [`Request::wait`]'s receive does.
    pub fn recv_async<'a>(
        &'a self,
        actor: &'a Actor,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> impl Future<Output = RecvResult> + 'a {
        let mut req = self.irecv(actor, src, tag);
        let arrival = self.world.inner.arrivals[self.rank];
        until_keyed(arrival, move || req.test(actor).flatten())
    }

    /// Blocking receive that gives up after `timeout_ns` of virtual time
    /// with no matching message (see [`Request::wait_timeout`] for the
    /// exact matched-in-flight semantics).
    pub fn recv_timeout(
        &self,
        actor: &Actor,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout_ns: SimNs,
    ) -> Result<RecvResult, MpiError> {
        self.ensure_not_revoked()?;
        self.irecv(actor, src, tag)
            .wait_timeout(actor, timeout_ns)
            .map(|r| r.expect("recv request yields a payload"))
    }

    /// Blocking receive into a caller buffer; panics if the payload does
    /// not fit (message truncation is an error, as in MPI).
    pub fn recv_into(
        &self,
        actor: &Actor,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Status {
        self.try_recv_into(actor, src, tag, buf)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Comm::recv_into`] with truncation reported as
    /// [`MpiError::Truncated`] instead of a panic.
    pub fn try_recv_into(
        &self,
        actor: &Actor,
        src: Option<Rank>,
        tag: Option<Tag>,
        buf: &mut [u8],
    ) -> Result<Status, MpiError> {
        self.ensure_not_revoked()?;
        let res = self.recv(actor, src, tag);
        if res.data.len() > buf.len() {
            return Err(MpiError::Truncated {
                len: res.data.len(),
                capacity: buf.len(),
            });
        }
        buf[..res.data.len()].copy_from_slice(&res.data);
        Ok(res.status)
    }

    /// Combined send+receive (`MPI_Sendrecv`): posts the send, blocks on
    /// the receive, then waits for send completion.
    pub fn sendrecv(
        &self,
        actor: &Actor,
        dst: Rank,
        send_tag: Tag,
        data: &[u8],
        src: Option<Rank>,
        recv_tag: Option<Tag>,
    ) -> RecvResult {
        let exchange = self.sendrecv_async(actor, dst, send_tag, data, src, recv_tag);
        actor.block_on("mpi recv", exchange)
    }

    /// The future of [`Comm::sendrecv`]. Both requests are posted by the
    /// call, so what posting them touches is no part of what the future
    /// waits on.
    pub fn sendrecv_async<'a>(
        &'a self,
        actor: &'a Actor,
        dst: Rank,
        send_tag: Tag,
        data: &[u8],
        src: Option<Rank>,
        recv_tag: Option<Tag>,
    ) -> impl Future<Output = RecvResult> + 'a {
        let sreq = self.isend(actor, dst, send_tag, data);
        let received = self.recv_async(actor, src, recv_tag);
        async move {
            let res = received.await;
            sreq.wait_async().await;
            res
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_world_faulty, run_world_sized, FaultPlan};
    use simnet::ClusterSpec;

    /// What rank 0 saw of its send: (delivered, the allocation came back,
    /// the bytes that came back, a second take got something).
    type Seen = (bool, bool, Option<Vec<u8>>, bool);

    fn payload() -> Vec<u8> {
        (0..4096u32).map(|i| (i * 7) as u8).collect()
    }

    /// Rank 0 hands `isend_raw` a payload under `plan`. Rank 1 reports
    /// the bytes it received (third field), if the plan lets any through.
    /// Beside each rank's view: the address of the bytes it sent or got.
    fn send_by_value(plan: FaultPlan, deliver: bool) -> Vec<(Seen, usize)> {
        let res = run_world_faulty(ClusterSpec::cichlid(), 2, plan, move |p| {
            let a = &p.actor;
            if p.rank() == 1 {
                let got = deliver.then(|| p.comm.recv(a, Some(0), Some(5)).data);
                let at = got.as_ref().map_or(0, |b| b.as_ptr() as usize);
                return ((true, false, got, false), at);
            }
            let payload = Arc::new(payload());
            let (sent, at) = (Arc::downgrade(&payload), payload.as_ptr() as usize);
            let req = p
                .comm
                .isend_raw(a, 1, 5, Datatype::ClMem, payload, a.now_ns(), None);
            let delivered = req.wait_delivered(a);
            let back = req.take_refused();
            let random = |(why, b)| (why == DropReason::Random).then_some(b);
            let back = back.and_then(random);
            let same = back
                .as_ref()
                .zip(sent.upgrade())
                .is_some_and(|(b, s)| Arc::ptr_eq(b, &s));
            let back = back.map(Arc::unwrap_or_clone);
            ((delivered, same, back, req.take_refused().is_some()), at)
        });
        res.outputs
    }

    #[test]
    fn dropped_send_by_value_hands_back_the_very_bytes_it_was_given() {
        let out = send_by_value(FaultPlan::drops(9, 1.0), false);
        assert_eq!(out[0].0, (false, true, Some(payload()), false));
    }

    #[test]
    fn delivered_send_by_value_hands_back_nothing_and_arrives_unchanged() {
        let out = send_by_value(FaultPlan::none(), true);
        assert_eq!(out[0].0, (true, false, None, false));
        assert_eq!(out[1].0 .2, Some(payload()));
        // The receiver was the payload's one owner: it got the sender's
        // allocation itself, not a copy.
        assert_eq!(out[1].1, out[0].1);
    }

    // The moment a blocked receive's arrival key is notified by hand
    // rather than by the alarm at `visible_at`. Take that notify away and
    // the receive below is never woken: the world ends in the deadlock
    // report, naming `Blocked("mpi recv") [keyed: 1 key(s)]`.

    #[test]
    fn cancelling_a_matched_receive_completes_the_one_blocked_behind_it() {
        const CANCEL_AT: SimNs = 5_000_000;
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            let a = &p.actor;
            if p.rank() == 1 {
                p.comm.send(a, 0, 5, &[7u8; 64]);
                return (0, None);
            }
            // Same signature, so the one message matches `first`; the wait
            // on `second` is woken when it arrives, finds nothing of its
            // own and parks again — past the only alarm there will be.
            let first = p.comm.irecv(a, Some(1), Some(5));
            let second = p.comm.irecv(a, Some(1), Some(5));
            // Registered while this thread is runnable (`SimClock::register`).
            let canceller = p.clock().register("rank0:canceller");
            let t = std::thread::spawn(move || {
                canceller.advance_until(CANCEL_AT);
                first.cancel()
            });
            let got = second.wait(a).map(|r| r.data);
            assert_eq!(got, Some(vec![7u8; 64]));
            (a.now_ns(), t.join().ok())
        });
        // Matched long before: not withdrawn, handed to `second` — which
        // completes at the cancel instant.
        assert_eq!(res.outputs[0], (CANCEL_AT, Some(false)));
    }

    #[test]
    fn no_waiter_can_hold_a_grant_back() {
        // Nobody reads the fabric arbiter: rank 0 is blocked on a key of
        // its own until `LATE`, the receiver on its arrival key, and the
        // sender sleeps past the arrival before it looks at its request.
        // The clock grants the send one nanosecond after the post all the
        // same, so the receive completes when the message arrives.
        const LATE: SimNs = 50_000_000;
        let res = run_world_sized(ClusterSpec::cichlid(), 3, |p| {
            let a = &p.actor;
            match p.rank() {
                0 => {
                    let clock = p.clock();
                    let done = clock.new_key();
                    clock.schedule_alarm_keyed(LATE + 1, done);
                    a.wait_on(&[done], "bystander", || {
                        (clock.now_ns() > LATE).then_some(())
                    });
                }
                1 => assert_eq!(p.comm.recv(a, Some(2), Some(5)).data, vec![3u8; 64]),
                _ => {
                    let req = p.comm.isend(a, 1, 5, &[3u8; 64]);
                    a.advance_until(LATE);
                    req.wait(a);
                }
            }
            a.now_ns()
        });
        // 30 µs per-message overhead, 545 ns on the wire, 50 µs latency.
        assert_eq!(res.outputs, vec![LATE + 1, 80_545, LATE]);
    }
}
