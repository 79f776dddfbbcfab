//! One-sided communication: MPI windows over the fabric's RMA transport.
//!
//! An MPI-3 subset shaped like the paper's natural next step past
//! two-sided transfers: [`Win`] (`MPI_Win_create`), [`Win::put`],
//! [`Win::get`], [`Win::accumulate`], with **fence** epochs
//! (`MPI_Win_fence`) and **passive-target** exclusive lock/unlock epochs
//! (`MPI_Win_lock`/`unlock`). Epoch ordering is validated: an access
//! outside any epoch, a nested lock, or an unlock without a lock returns
//! the documented [`MpiError`] instead of corrupting memory or hanging.
//!
//! ## Transport
//!
//! Window traffic bypasses the two-sided matching path entirely: each op
//! claims fabric time through [`simnet::Fabric::reserve_rma`], which
//! routes the `(origin, target)` node pair by fabric class — shared-memory
//! loopback, the NIC tx/rx pair, or (on CXL-pooled clusters) the pool's
//! single load/store timeline. Reservations go through the deferred
//! arbiter, so same-instant claims on a shared pool port are granted in
//! canonical `(earliest, src, dst, tag, seq)` order and runs are
//! byte-deterministic in any scheduler poll order.
//!
//! ## Faults
//!
//! NIC-routed ops compose with the full [`crate::FaultPlan`] (random drops
//! are retransmitted with exponential virtual-time backoff); the CXL
//! load/store path has no packets to drop, but a scheduled node death
//! still poisons ops touching the dead node's memory
//! ([`MpiError::ProcFailed`]). Epoch-closing calls carry a patience
//! deadline whenever a fault plan is attached, classifying expiry against
//! the plan's ground truth instead of wedging.
//!
//! ## One fence
//!
//! `MPI_Win_fence` is written once, as [`Win::fence_async`]: the clMPI
//! engine polls it ([`simtime::poll_future`]) and [`Win::fence`] runs it
//! under [`Actor::block_on`]. The other blocking calls are one
//! [`simtime::until`] check each under `block_on`: none lists keys.
//!
//! ## Memory model
//!
//! All ranks are threads of one process, so a window is literally shared
//! memory: per-rank byte segments behind [`Monitor`]s. An op's effect is
//! applied when the arbiter grants its reservation (canonical order), and
//! its completion instant is the transfer's arrival; epoch-closing calls
//! wait for those instants, which is where MPI's "visible after
//! synchronization" rule comes from in this model.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use simnet::{DropReason, FabricClass, FaultOutcome, Reservation};
use simtime::plock::Mutex;
use simtime::{note_read, note_wake_at, until, Actor, Monitor, SimNs, WakeKey};

use crate::collectives::ReduceOp;
use crate::datatype::{check_whole, f64_as_bytes, try_bytes_to_f64};
use crate::p2p::MpiError;
use crate::retry::RetryPolicy;
use crate::world::Comm;
use crate::Rank;

/// Base of the tag space window traffic flows under. Above
/// `MAX_USER_TAG` and the collective spaces, and above the clMPI data
/// plane's fault-plan tag floor, so drop plans scoped to the data plane
/// hit RMA traffic exactly like two-sided transfers.
pub const RMA_TAG_BASE: i32 = 1 << 23;

/// Retransmit schedule of a dropped one-sided transfer: 30 attempts,
/// 200 µs doubling per retransmit up to the policy cap. The chunk fields
/// keep their defaults; no one-sided op reads them.
const RMA_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 30,
    backoff_base_ns: 200_000,
    backoff_factor: 2,
    degrade_after: 3,
    chunk_timeout_ns: 1_000_000_000,
};

/// Patience for epoch-closing synchronization when a fault plan is
/// attached (virtual ns); expiry is classified against the plan.
pub const RMA_PATIENCE_NS: SimNs = 5_000_000_000;

/// How a one-sided op claims wire time. The default class-routing is what
/// `MPI_Put` semantics imply; the forced-NIC variants exist for the clMPI
/// layer's strategy sweeps, which lower the *same* put over the two-sided
/// wire path (staged or fused) to compare against the RMA transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmaRoute {
    /// Class-routed by node pair: loopback, CXL pool port, or NIC.
    Auto,
    /// Force the NIC tx/rx pair at the byte rate (staged two-sided
    /// emulation; a loopback pair still takes loopback).
    Nic,
    /// Force the NIC pair for an explicit wire duration (fused map-stream
    /// emulation: the claim covers `max(injection, PCIe stream)`).
    NicDuration(SimNs),
}

/// Per-target passive lock: the holder plus a queue of `(request instant,
/// requester)` pairs, granted in `(instant, rank)` order once the clock
/// has strictly passed the request instant (same-instant requests from
/// racing OS threads resolve canonically, not by thread order).
#[derive(Default, Clone)]
struct LockState {
    holder: Option<Rank>,
    queue: Vec<(SimNs, Rank)>,
}

/// Shared control state of one window (all ranks).
struct WinCtrl {
    /// Exposed bytes per (local) rank.
    sizes: Vec<usize>,
    /// Completed fence-arrival count per rank.
    fence_gen: Vec<u64>,
    locks: Vec<LockState>,
}

/// The cross-rank shared state of a window: per-rank memory segments plus
/// the synchronization control block. Lives in the world's window
/// registry; every rank's [`Win`] handle points at the same instance.
pub struct WinShared {
    segments: Vec<Arc<Monitor<Vec<u8>>>>,
    ctrl: Arc<Monitor<WinCtrl>>,
}

impl WinShared {
    fn new(clock: simtime::SimClock, n: usize) -> Self {
        WinShared {
            segments: (0..n)
                .map(|_| Arc::new(Monitor::new(clock.clone(), Vec::new())))
                .collect(),
            ctrl: Arc::new(Monitor::new(
                clock,
                WinCtrl {
                    sizes: vec![0; n],
                    fence_gen: vec![0; n],
                    locks: vec![LockState::default(); n],
                },
            )),
        }
    }

    /// Grant due lock requests in canonical order. Only call when
    /// [`WinCtrl`] is already being mutated (see `grants_due`).
    fn grant_locks(c: &mut WinCtrl, now: SimNs) {
        for l in &mut c.locks {
            if l.holder.is_none() {
                if let Some(&best) = l.queue.iter().filter(|(t, _)| *t < now).min() {
                    l.queue.retain(|&e| e != best);
                    l.holder = Some(best.1);
                }
            }
        }
    }

    /// True if `grant_locks` would change anything at `now` (checked
    /// read-only first, so wait predicates do not notify on every poll).
    fn grants_due(c: &WinCtrl, now: SimNs) -> bool {
        c.locks
            .iter()
            .any(|l| l.holder.is_none() && l.queue.iter().any(|(t, _)| *t < now))
    }
}

/// Per-handle (per-rank) epoch state.
struct LocalEpoch {
    /// True once a fence has opened the window for active-target access.
    fence_open: bool,
    /// Targets this rank currently holds passive locks on.
    locked: BTreeSet<Rank>,
    /// Ops issued in the current epoch, settled by the next closing call.
    pending: Vec<RmaHandle>,
    /// First op failure observed this epoch (reported by the closing call).
    epoch_err: Option<MpiError>,
}

/// A one-sided communication window (`MPI_Win`): this rank's handle onto
/// the collectively created shared state. Clones share the rank's epoch
/// state (thread-multiple semantics, like [`Comm`]).
#[derive(Clone)]
pub struct Win {
    comm: Comm,
    shared: Arc<WinShared>,
    epoch: Arc<Mutex<LocalEpoch>>,
    /// Notified whenever an op is booked into `epoch.pending`, a plain
    /// mutex: a fence's drain notes it, so a fence parked on its drain
    /// re-polls an op another thread booked meanwhile.
    booked: WakeKey,
}

enum RmaKind {
    Put,
    Get,
    Acc(ReduceOp),
}

impl RmaKind {
    fn tag(&self) -> i32 {
        RMA_TAG_BASE
            + match self {
                RmaKind::Put => 0,
                RmaKind::Get => 1,
                RmaKind::Acc(_) => 2,
            }
    }
}

enum RmaSlot {
    InFlight,
    Dropped { reason: DropReason, at: SimNs },
    Done { at: SimNs, data: Option<Vec<u8>> },
    Failed { err: MpiError, at: SimNs },
}

struct RmaInner {
    comm: Comm,
    shared: Arc<WinShared>,
    kind: RmaKind,
    /// Communicator-local target rank.
    target: Rank,
    /// Global (fabric) node ids of origin and target.
    gsrc: Rank,
    gdst: Rank,
    offset: usize,
    /// Payload (empty for Get).
    payload: Vec<u8>,
    /// Wire bytes (payload length, or requested length for Get).
    len: usize,
    route: RmaRoute,
    posted_at: SimNs,
    attempts: AtomicU32,
    slot: Monitor<RmaSlot>,
}

/// Result of polling an in-flight one-sided op.
pub enum RmaPoll {
    /// Still in flight (or awaiting a retransmit grant).
    Pending,
    /// Transfer complete; effect applied, visible from instant `at`.
    Done {
        /// Completion (arrival) instant.
        at: SimNs,
    },
    /// Transfer failed terminally.
    Failed {
        /// The classified error.
        err: MpiError,
        /// Instant the failure was established.
        at: SimNs,
    },
}

/// Handle to an in-flight `Put`/`Get`/`Accumulate`. Cheap to clone; the
/// issuing epoch's closing call settles it, or callers may
/// [`RmaHandle::wait`] individually.
#[derive(Clone)]
pub struct RmaHandle {
    inner: Arc<RmaInner>,
}

impl RmaInner {
    /// Grant callback: decide the transfer's fate at its reserved start,
    /// apply the memory effect on delivery, and publish the outcome. Runs
    /// under the arbiter's grant lock, in canonical order.
    fn granted(&self, res: Reservation) {
        let w = &self.comm.world().inner;
        // Class-routed ops take the RMA fault model (a CXL load/store has
        // no packets to drop); forced-NIC emulations are wire messages and
        // compose with the full plan like any two-sided transfer.
        let decision = match self.route {
            RmaRoute::Auto => {
                w.fabric
                    .rma_fault_decision(self.gsrc, self.gdst, self.kind.tag(), res.start)
            }
            _ => w
                .fabric
                .fault_decision(self.gsrc, self.gdst, self.kind.tag(), res.start),
        };
        match decision {
            FaultOutcome::Deliver { extra_latency_ns } => {
                let arrival = res.arrival + extra_latency_ns;
                let data = self.apply();
                self.slot.with(|s| *s = RmaSlot::Done { at: arrival, data });
                self.slot.alarm_at(arrival);
            }
            FaultOutcome::Drop(reason) => {
                w.trace.record(
                    "net.fault",
                    format!("rma.drop {}→{} ({reason:?})", self.gsrc, self.gdst),
                    res.start,
                    res.end,
                );
                self.slot.with(|s| {
                    *s = RmaSlot::Dropped {
                        reason,
                        at: res.end,
                    }
                });
                self.slot.alarm_at(res.end + 1);
            }
        }
    }

    /// Apply the op's effect on the target segment (Get returns the bytes
    /// read). Runs at grant time, so concurrent same-instant accesses are
    /// ordered canonically by the arbiter.
    fn apply(&self) -> Option<Vec<u8>> {
        let seg = &self.shared.segments[self.target];
        match &self.kind {
            RmaKind::Put => {
                seg.with(|m| m[self.offset..self.offset + self.len].copy_from_slice(&self.payload));
                None
            }
            RmaKind::Get => Some(seg.peek(|m| m[self.offset..self.offset + self.len].to_vec())),
            RmaKind::Acc(op) => {
                seg.with(|m| {
                    let cur = &m[self.offset..self.offset + self.len];
                    // Lengths were validated 8-aligned at issue time.
                    let mut acc = try_bytes_to_f64(cur).unwrap_or_default();
                    let other = try_bytes_to_f64(&self.payload).unwrap_or_default();
                    op.fold(&mut acc, &other);
                    m[self.offset..self.offset + self.len].copy_from_slice(f64_as_bytes(&acc));
                });
                None
            }
        }
    }
}

impl RmaHandle {
    /// Post (or re-post) the transfer to the arbiter, on the route the op
    /// was issued with.
    fn post(&self, earliest: SimNs) {
        let inner = Arc::clone(&self.inner);
        let fabric = &self.inner.comm.world().inner.fabric;
        let (gsrc, gdst, tag) = (self.inner.gsrc, self.inner.gdst, self.inner.kind.tag());
        let complete = Box::new(move |res| inner.granted(res));
        match self.inner.route {
            RmaRoute::Auto => {
                fabric.reserve_rma_deferred(gsrc, gdst, tag, self.inner.len, earliest, complete)
            }
            RmaRoute::Nic => {
                fabric.reserve_deferred(gsrc, gdst, tag, self.inner.len, earliest, complete)
            }
            RmaRoute::NicDuration(d) => {
                fabric.reserve_duration_deferred(gsrc, gdst, tag, d, earliest, complete)
            }
        }
    }

    /// Communicator-local target rank of this op.
    pub fn target(&self) -> Rank {
        self.inner.target
    }

    /// Retransmit attempts so far (0 on a clean first delivery).
    pub fn attempts(&self) -> u32 {
        self.inner.attempts.load(Ordering::Relaxed)
    }

    /// Wire bytes this op moves.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True for degenerate zero-byte ops.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// True once the op has terminally completed or failed.
    pub fn settled(&self) -> bool {
        self.inner
            .slot
            .peek(|s| matches!(s, RmaSlot::Done { .. } | RmaSlot::Failed { .. }))
    }

    /// Terminal error, if the op failed.
    pub fn error(&self) -> Option<MpiError> {
        self.inner.slot.peek(|s| match s {
            RmaSlot::Failed { err, .. } => Some(*err),
            _ => None,
        })
    }

    /// Drive the op: handle a drop (retransmit with backoff, or classify
    /// a terminal failure), and report state. Non-blocking; safe from
    /// engine state machines.
    pub fn poll(&self) -> RmaPoll {
        // Read-only fast path first: no notify when nothing changes.
        enum Next {
            AsIs(RmaPoll),
            Retry { earliest: SimNs },
            Fail { err: MpiError, at: SimNs },
        }
        let next = self.inner.slot.peek(|s| match s {
            RmaSlot::InFlight => Next::AsIs(RmaPoll::Pending),
            RmaSlot::Done { at, .. } => Next::AsIs(RmaPoll::Done { at: *at }),
            RmaSlot::Failed { err, at } => Next::AsIs(RmaPoll::Failed { err: *err, at: *at }),
            RmaSlot::Dropped { reason, at } => {
                let attempt = self.inner.attempts.load(Ordering::Relaxed);
                // Out of attempts, or a retransmit past the last instant.
                let retry_at = (attempt + 1 < RMA_RETRY.max_attempts)
                    .then(|| at.checked_add(RMA_RETRY.backoff_ns(attempt + 1)))
                    .flatten();
                if matches!(reason, DropReason::NodeDown) {
                    Next::Fail {
                        err: MpiError::ProcFailed {
                            rank: self.inner.target,
                        },
                        at: *at,
                    }
                } else if let Some(earliest) = retry_at {
                    Next::Retry { earliest }
                } else {
                    Next::Fail {
                        err: MpiError::Timeout {
                            waited_ns: at.saturating_sub(self.inner.posted_at),
                        },
                        at: *at,
                    }
                }
            }
        });
        match next {
            Next::AsIs(r) => r,
            Next::Fail { err, at } => {
                self.inner.slot.with(|s| *s = RmaSlot::Failed { err, at });
                RmaPoll::Failed { err, at }
            }
            Next::Retry { earliest } => {
                self.inner.attempts.fetch_add(1, Ordering::Relaxed);
                self.inner.slot.with(|s| *s = RmaSlot::InFlight);
                self.post(earliest);
                RmaPoll::Pending
            }
        }
    }

    /// Block until the op settles; on success the calling actor's clock
    /// reaches the completion instant.
    pub fn wait(&self, actor: &Actor) -> Result<SimNs, MpiError> {
        // `poll` reads this op's slot, which the arbiter's grant fills in.
        let settled = until(|| match self.poll() {
            RmaPoll::Pending => None,
            RmaPoll::Done { at } => Some(Ok(at)),
            RmaPoll::Failed { err, .. } => Some(Err(err)),
        });
        let r = actor.block_on("rma op", settled);
        if let Ok(at) = r {
            actor.advance_until(at);
        }
        r
    }

    /// Take the bytes a completed Get read (None for Put/Accumulate or
    /// before completion; consumed on first call).
    pub fn take_data(&self) -> Option<Vec<u8>> {
        self.inner.slot.try_now(|s| match s {
            RmaSlot::Done { data, .. } => data.take(),
            _ => None,
        })
    }
}

impl Win {
    /// Collectively create a window exposing `size` bytes (zero-filled) on
    /// every calling rank. Every member of `comm` must call in lockstep
    /// (like `MPI_Win_create`); the call barriers before returning, so all
    /// segments exist once any rank proceeds.
    pub fn create(comm: &Comm, actor: &Actor, size: usize) -> Result<Win, MpiError> {
        comm.ensure_not_revoked()?;
        let seq = comm.win_seq.fetch_add(1, Ordering::Relaxed);
        let key = (comm.context, seq);
        let n = comm.size();
        let clock = comm.world().clock().clone();
        let booked = clock.new_key();
        let shared = {
            let mut reg = comm.world().inner.windows.lock();
            Arc::clone(
                reg.entry(key)
                    .or_insert_with(|| Arc::new(WinShared::new(clock, n))),
            )
        };
        let me = comm.rank();
        shared.segments[me].with(|m| *m = vec![0u8; size]);
        shared.ctrl.with(|c| c.sizes[me] = size);
        comm.barrier(actor);
        Ok(Win {
            comm: comm.clone(),
            shared,
            epoch: Arc::new(Mutex::new(LocalEpoch {
                fence_open: false,
                locked: BTreeSet::new(),
                pending: Vec::new(),
                epoch_err: None,
            })),
            booked,
        })
    }

    /// The communicator this window was created over.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Exposed window size (bytes) of `target`.
    pub fn size_of(&self, target: Rank) -> usize {
        self.shared.ctrl.peek(|c| c.sizes[target])
    }

    /// Transport class serving one-sided traffic to `target` (loopback,
    /// NIC, or a shared CXL pool port).
    pub fn fabric_class_to(&self, target: Rank) -> FabricClass {
        let f = &self.comm.world().inner.fabric;
        f.fabric_class(
            self.comm.global_rank(self.comm.rank()),
            self.comm.global_rank(target),
        )
    }

    /// Snapshot this rank's own window memory (a local load).
    pub fn read_local(&self) -> Vec<u8> {
        self.shared.segments[self.comm.rank()].peek(|m| m.clone())
    }

    /// Store into this rank's own window memory (a local store; like any
    /// local access it is only well-defined outside others' epochs).
    pub fn write_local(&self, offset: usize, data: &[u8]) {
        self.shared.segments[self.comm.rank()]
            .with(|m| m[offset..offset + data.len()].copy_from_slice(data));
    }

    fn check_access(&self, target: Rank) -> Result<(), MpiError> {
        if target >= self.comm.size() {
            return Err(MpiError::RankOutOfRange {
                rank: target,
                size: self.comm.size(),
            });
        }
        let ep = self.epoch.lock();
        if ep.fence_open || ep.locked.contains(&target) {
            Ok(())
        } else {
            Err(MpiError::RmaNoEpoch { target })
        }
    }

    fn check_range(&self, target: Rank, offset: usize, len: usize) -> Result<(), MpiError> {
        let size = self.size_of(target);
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(MpiError::RmaOutOfRange { offset, len, size });
        }
        Ok(())
    }

    /// Validate the access, then build the op — which owns `payload` from
    /// here to its last retransmit — post it and book it for the epoch's
    /// closing call.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &self,
        kind: RmaKind,
        target: Rank,
        offset: usize,
        payload: Vec<u8>,
        len: usize,
        route: RmaRoute,
        earliest: SimNs,
    ) -> Result<RmaHandle, MpiError> {
        self.comm.ensure_not_revoked()?;
        self.check_access(target)?;
        self.check_range(target, offset, len)?;
        let comm = self.comm.clone();
        let clock = comm.world().clock().clone();
        let now = clock.now_ns();
        let inner = Arc::new(RmaInner {
            gsrc: comm.global_rank(comm.rank()),
            gdst: comm.global_rank(target),
            comm,
            shared: Arc::clone(&self.shared),
            kind,
            target,
            offset,
            payload,
            len,
            route,
            posted_at: now,
            attempts: AtomicU32::new(0),
            slot: Monitor::new(clock, RmaSlot::InFlight),
        });
        let h = RmaHandle { inner };
        h.post(earliest.max(now));
        self.epoch.lock().pending.push(h.clone());
        self.comm.world().clock().notify_key(self.booked);
        Ok(h)
    }

    /// One-sided write of `data` into `target`'s window at `offset`
    /// (`MPI_Put`). Non-blocking: completes at the next epoch-closing
    /// call, or via the returned handle. `data` is snapshotted (the
    /// caller's buffer is reusable on return).
    pub fn put(&self, target: Rank, offset: usize, data: &[u8]) -> Result<RmaHandle, MpiError> {
        self.put_routed(target, offset, data.to_vec(), RmaRoute::Auto, 0)
    }

    /// [`Win::put`] of a payload handed over by value — no snapshot — with
    /// an explicit wire route and earliest claim instant (the clMPI engine
    /// loads the bytes itself, accounts device→host staging before the
    /// wire and sweeps the same put across transports).
    pub fn put_routed(
        &self,
        target: Rank,
        offset: usize,
        data: Vec<u8>,
        route: RmaRoute,
        earliest: SimNs,
    ) -> Result<RmaHandle, MpiError> {
        let len = data.len();
        self.issue(RmaKind::Put, target, offset, data, len, route, earliest)
    }

    /// One-sided read of `len` bytes from `target`'s window at `offset`
    /// (`MPI_Get`); the bytes are available from the handle once settled.
    pub fn get(&self, target: Rank, offset: usize, len: usize) -> Result<RmaHandle, MpiError> {
        self.issue(
            RmaKind::Get,
            target,
            offset,
            Vec::new(),
            len,
            RmaRoute::Auto,
            0,
        )
    }

    /// One-sided read-modify-write (`MPI_Accumulate`): fold `data`
    /// (f64s) into `target`'s window with `op`. Lengths must be 8-byte
    /// multiples ([`MpiError::Truncated`] otherwise). Concurrent
    /// accumulates are applied in the arbiter's canonical grant order.
    /// `data` is snapshotted (the caller's buffer is reusable on return).
    pub fn accumulate(
        &self,
        target: Rank,
        offset: usize,
        data: &[u8],
        op: ReduceOp,
    ) -> Result<RmaHandle, MpiError> {
        self.accumulate_owned(target, offset, data.to_vec(), op)
    }

    /// [`Win::accumulate`] of an operand handed over by value — no
    /// snapshot (the clMPI engine loads the bytes itself).
    pub fn accumulate_owned(
        &self,
        target: Rank,
        offset: usize,
        data: Vec<u8>,
        op: ReduceOp,
    ) -> Result<RmaHandle, MpiError> {
        let len = data.len();
        check_whole(len, 8)?; // f64 operands, validated up front
        let kind = RmaKind::Acc(op);
        self.issue(kind, target, offset, data, len, RmaRoute::Auto, 0)
    }

    /// Classify a synchronization stall against the fault plan: a laggard
    /// scheduled dead is [`MpiError::ProcFailed`], otherwise a timeout.
    fn classify_stall(&self, laggards: &[Rank], now: SimNs, waited_ns: SimNs) -> MpiError {
        for &r in laggards {
            let g = self.comm.global_rank(r);
            if self.comm.world().node_down_at(g, now) {
                return MpiError::ProcFailed { rank: r };
            }
        }
        MpiError::Timeout { waited_ns }
    }

    /// Close the current epoch and open the next (`MPI_Win_fence`):
    /// [`Win::fence_async`] on the calling thread.
    pub fn fence(&self, actor: &Actor) -> Result<(), MpiError> {
        actor.block_on("rma fence", self.clone().fence_async())
    }

    /// `MPI_Win_fence`, the one copy: drain this rank's pending ops (one
    /// another thread books meanwhile too), mark the arrival, which opens
    /// the window for active-target access, and await every rank's. Under
    /// a fault plan the await has a patience deadline (none past the last
    /// instant) whose expiry is classified against the laggards; an op
    /// failure latched during the epoch outranks the sync failure.
    pub async fn fence_async(self) -> Result<(), MpiError> {
        // Poll every pending op (a poll also re-posts a dropped transfer)
        // until all settled, latching the first failure; `booked` re-polls
        // the drain when another thread books an op.
        until(|| {
            note_read(self.booked);
            let hs: Vec<RmaHandle> = self.epoch.lock().pending.clone();
            for h in &hs {
                let _ = h.poll();
            }
            let first_err = hs.iter().find_map(|h| h.error());
            let mut ep = self.epoch.lock();
            ep.epoch_err = ep.epoch_err.or(first_err);
            ep.pending.retain(|h| !h.settled());
            ep.pending.is_empty().then_some(())
        })
        .await;
        let op_err = {
            let mut ep = self.epoch.lock();
            ep.fence_open = true;
            ep.epoch_err.take()
        };
        let me = self.comm.rank();
        let ctrl = &self.shared.ctrl;
        let gen = ctrl.with(|c| {
            c.fence_gen[me] += 1;
            c.fence_gen[me]
        });
        let clock = self.comm.world().clock();
        let start = clock.now_ns();
        let faulty = self.comm.world().has_faults();
        let deadline = faulty.then(|| start.checked_add(RMA_PATIENCE_NS)).flatten();
        let sync_err = until(|| {
            if ctrl.peek(|c| c.fence_gen.iter().all(|&g| g >= gen)) {
                return Some(None);
            }
            let now = clock.now_ns();
            match deadline {
                Some(d) if now >= d => {
                    let laggards: Vec<Rank> = ctrl.peek(|c| {
                        let n = c.fence_gen.len();
                        (0..n).filter(|&r| c.fence_gen[r] < gen).collect()
                    });
                    Some(Some(self.classify_stall(&laggards, now, now - start)))
                }
                Some(d) => {
                    note_wake_at(d);
                    None
                }
                None => None,
            }
        })
        .await;
        op_err.or(sync_err).map_or(Ok(()), Err)
    }

    /// Acquire an exclusive passive-target lock on `target`'s window
    /// (`MPI_Win_lock`). Nested locks of one target are refused; a stall
    /// under a fault plan is classified against it.
    pub fn lock(&self, actor: &Actor, target: Rank) -> Result<(), MpiError> {
        self.comm.ensure_not_revoked()?;
        if target >= self.comm.size() {
            return Err(MpiError::RankOutOfRange {
                rank: target,
                size: self.comm.size(),
            });
        }
        if self.epoch.lock().locked.contains(&target) {
            return Err(MpiError::RmaAlreadyLocked { target });
        }
        let clock = self.comm.world().clock().clone();
        let start = clock.now_ns();
        let me = self.comm.rank();
        let ctrl = &self.shared.ctrl;
        ctrl.with(|c| c.locks[target].queue.push((start, me)));
        // Grantable once the clock has passed `start`; no deadline past the
        // last instant.
        if let Some(grantable) = start.checked_add(1) {
            ctrl.alarm_at(grantable);
        }
        let faulty = self.comm.world().has_faults();
        let deadline = faulty.then(|| start.checked_add(RMA_PATIENCE_NS)).flatten();
        if let Some(d) = deadline {
            ctrl.alarm_at(d);
        }
        // Lock arbitration reads and writes the control block alone.
        let granted = until(|| {
            let now = clock.now_ns();
            if ctrl.peek(|c| WinShared::grants_due(c, now)) {
                ctrl.with(|c| WinShared::grant_locks(c, now));
            }
            if ctrl.peek(|c| c.locks[target].holder == Some(me)) {
                self.epoch.lock().locked.insert(target);
                return Some(Ok(()));
            }
            match deadline {
                Some(d) if now >= d => {
                    let holder = ctrl.peek(|c| c.locks[target].holder);
                    let laggards: Vec<Rank> = holder.into_iter().collect();
                    Some(Err(self.classify_stall(&laggards, now, now - start)))
                }
                _ => None,
            }
        });
        actor.block_on("rma lock", granted)
    }

    /// Release the passive-target lock on `target` (`MPI_Win_unlock`):
    /// settles every pending op addressed to `target` first, so all
    /// effects are visible at the target once unlock returns. The wait
    /// polls exactly the ops pending at the call; an op another thread of
    /// this rank issues meanwhile belongs to the next closing call.
    pub fn unlock(&self, actor: &Actor, target: Rank) -> Result<(), MpiError> {
        if !self.epoch.lock().locked.contains(&target) {
            return Err(MpiError::RmaNotLocked { target });
        }
        let to_target = |h: &&RmaHandle| h.target() == target;
        let hs: Vec<RmaHandle> = {
            let ep = self.epoch.lock();
            ep.pending.iter().filter(to_target).cloned().collect()
        };
        // Poll every op, settled or not: a poll is also what re-posts a
        // dropped transfer.
        let settled = until(|| {
            let busy = hs
                .iter()
                .filter(|h| matches!(h.poll(), RmaPoll::Pending))
                .count();
            (busy == 0).then_some(())
        });
        actor.block_on("rma unlock ops", settled);
        let first_err = {
            let mut ep = self.epoch.lock();
            let first_err = ep.pending.iter().filter(to_target).find_map(|h| h.error());
            ep.pending.retain(|h| h.target() != target || !h.settled());
            ep.locked.remove(&target);
            first_err
        };
        let me = self.comm.rank();
        self.shared.ctrl.with(|c| {
            if c.locks[target].holder == Some(me) {
                c.locks[target].holder = None;
            }
            WinShared::grant_locks(c, self.comm.world().clock().now_ns());
        });
        first_err.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_world_faulty, run_world_sized, FaultPlan};
    use simnet::ClusterSpec;

    #[test]
    fn put_is_visible_after_fence() {
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            let win = Win::create(&p.comm, &p.actor, 64).expect("create");
            win.fence(&p.actor).expect("open");
            if p.rank() == 0 {
                win.put(1, 8, &[7u8; 16]).expect("put");
            }
            win.fence(&p.actor).expect("close");
            win.read_local()
        });
        assert_eq!(&res.outputs[1][8..24], &[7u8; 16]);
        assert!(res.outputs[1][..8].iter().all(|&b| b == 0));
    }

    #[test]
    fn get_reads_remote_window() {
        let res = run_world_sized(ClusterSpec::cxl_pod(), 3, |p| {
            let win = Win::create(&p.comm, &p.actor, 32).expect("create");
            win.write_local(0, &[p.rank() as u8 + 1; 32]);
            win.fence(&p.actor).expect("open");
            let src = (p.rank() + 1) % p.size();
            let h = win.get(src, 4, 8).expect("get");
            win.fence(&p.actor).expect("close");
            (src, h.take_data().expect("data"))
        });
        for (src, data) in &res.outputs {
            assert_eq!(data, &vec![*src as u8 + 1; 8]);
        }
    }

    #[test]
    fn accumulate_sums_all_contributions() {
        let res = run_world_sized(ClusterSpec::cichlid(), 4, |p| {
            let win = Win::create(&p.comm, &p.actor, 16).expect("create");
            win.fence(&p.actor).expect("open");
            let v = [(p.rank() + 1) as f64, 0.5];
            win.accumulate(0, 0, f64_as_bytes(&v), ReduceOp::Sum)
                .expect("acc");
            win.fence(&p.actor).expect("close");
            try_bytes_to_f64(&win.read_local()).expect("aligned")
        });
        assert_eq!(res.outputs[0], vec![1.0 + 2.0 + 3.0 + 4.0, 2.0]);
    }

    #[test]
    fn epoch_misuse_returns_documented_errors() {
        run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            let win = Win::create(&p.comm, &p.actor, 8).expect("create");
            // Access before any fence or lock: no epoch.
            assert_eq!(
                win.put(0, 0, &[1]).err(),
                Some(MpiError::RmaNoEpoch { target: 0 })
            );
            assert_eq!(
                win.unlock(&p.actor, 0).err(),
                Some(MpiError::RmaNotLocked { target: 0 })
            );
            win.lock(&p.actor, p.rank()).expect("lock self");
            assert_eq!(
                win.lock(&p.actor, p.rank()).err(),
                Some(MpiError::RmaAlreadyLocked { target: p.rank() })
            );
            // Out-of-range access inside a valid epoch.
            assert_eq!(
                win.put(p.rank(), 4, &[0u8; 8]).err(),
                Some(MpiError::RmaOutOfRange {
                    offset: 4,
                    len: 8,
                    size: 8
                })
            );
            assert_eq!(
                win.get(9, 0, 1).err(),
                Some(MpiError::RankOutOfRange { rank: 9, size: 2 })
            );
            win.unlock(&p.actor, p.rank()).expect("unlock");
        });
    }

    #[test]
    fn blocking_fence_drains_a_put_booked_while_it_waits() {
        // Rank 0's fence starts draining a put granted at 1 ms; meanwhile a
        // second actor of the rank books another, granted at 2 ms. The
        // fence settles both before it enters, so rank 1's closing fence
        // returns with both in its window.
        let res = run_world_sized(ClusterSpec::cichlid(), 2, |p| {
            let win = Win::create(&p.comm, &p.actor, 16)?;
            win.fence(&p.actor)?;
            if p.rank() == 1 {
                win.fence(&p.actor)?;
                return Ok((None, win.read_local()));
            }
            let booked = Mutex::new(None);
            let second = p.actor.clock().register("second");
            std::thread::scope(|s| {
                let (w2, slot) = (win.clone(), &booked);
                s.spawn(move || {
                    second.advance_ns(100_000);
                    let late = w2.put_routed(1, 8, vec![2; 8], RmaRoute::Auto, 2_000_000);
                    *slot.lock() = Some(late);
                });
                win.put_routed(1, 0, vec![1; 8], RmaRoute::Auto, 1_000_000)?;
                win.fence(&p.actor)
            })?;
            let late = booked.lock().take().transpose()?;
            Ok((late.map(|h| h.settled()), win.read_local()))
        });
        assert_eq!(res.outputs[0].as_ref().map(|o| o.0), Ok(Some(true)));
        let both = [[1u8; 8], [2u8; 8]].concat();
        assert_eq!(res.outputs[1], Ok::<_, MpiError>((None, both)));
    }

    #[test]
    fn the_rma_policy_reproduces_the_schedule_it_replaced() {
        // A literal copy of the retransmit schedule one-sided ops kept of
        // their own: the backoff before retransmitting 0-based attempt `a`.
        let replaced = |a: u32| (200_000u64 << a.min(8)).min(50_000_000);
        for a in 0..30 {
            assert_eq!(RMA_RETRY.backoff_ns(a + 1), replaced(a), "attempt {a}");
        }
        assert_eq!(RMA_RETRY.max_attempts, 30);
    }

    #[test]
    fn exclusive_locks_serialize_read_modify_write() {
        // Without the lock this increment would race; with it, every rank's
        // read-modify-write of rank 0's counter is serialized.
        let res = run_world_sized(ClusterSpec::cichlid(), 4, |p| {
            let win = Win::create(&p.comm, &p.actor, 8).expect("create");
            for _ in 0..3 {
                win.lock(&p.actor, 0).expect("lock");
                let h = win.get(0, 0, 8).expect("get");
                h.wait(&p.actor).expect("get done");
                let mut v = try_bytes_to_f64(&h.take_data().expect("data")).expect("f64");
                v[0] += 1.0;
                win.put(0, 0, f64_as_bytes(&v)).expect("put");
                win.unlock(&p.actor, 0).expect("unlock");
            }
            p.comm.barrier(&p.actor);
            try_bytes_to_f64(&win.read_local()).expect("aligned")[0]
        });
        assert_eq!(res.outputs[0], 12.0, "4 ranks × 3 locked increments");
    }

    #[test]
    fn nic_drops_are_retransmitted_to_completion() {
        // 30% drop on the RMA tag space: every put must still land.
        let plan = FaultPlan::drops(42, 0.30).with_tag_floor(RMA_TAG_BASE);
        let res = run_world_faulty(ClusterSpec::cichlid(), 3, plan, |p| {
            let win = Win::create(&p.comm, &p.actor, 256).expect("create");
            win.fence(&p.actor).expect("open");
            let dst = (p.rank() + 1) % p.size();
            let mut attempts = 0;
            for i in 0..8 {
                let h = win
                    .put(dst, i * 32, &[p.rank() as u8 + 1; 32])
                    .expect("put");
                h.wait(&p.actor).expect("retransmit to completion");
                attempts += h.attempts();
            }
            win.fence(&p.actor).expect("close");
            (win.read_local(), attempts)
        });
        let total_attempts: u32 = res.outputs.iter().map(|(_, a)| *a).sum();
        assert!(total_attempts > 0, "the drop plan actually dropped");
        for (r, (mem, _)) in res.outputs.iter().enumerate() {
            let src = (r + 2) % 3;
            assert_eq!(mem, &vec![src as u8 + 1; 256], "rank {r} memory");
        }
    }

    #[test]
    fn cxl_path_ignores_drop_plans() {
        // Same drop plan, co-located pair on the CXL pod: the load/store
        // path has no packets to drop, so zero retransmits.
        let plan = FaultPlan::drops(42, 0.99).with_tag_floor(RMA_TAG_BASE);
        let res = run_world_faulty(ClusterSpec::cxl_pod(), 2, plan, |p| {
            let win = Win::create(&p.comm, &p.actor, 64).expect("create");
            assert_eq!(win.fabric_class_to(1 - p.rank()), FabricClass::Cxl(0));
            win.fence(&p.actor).expect("open");
            let h = win.put(1 - p.rank(), 0, &[9u8; 64]).expect("put");
            h.wait(&p.actor).expect("loads do not drop");
            assert_eq!(h.attempts(), 0);
            win.fence(&p.actor).expect("close");
            win.read_local()
        });
        assert_eq!(res.outputs[0], vec![9u8; 64]);
    }

    #[test]
    fn a_deadline_past_the_last_instant_is_no_deadline() {
        // Within `RMA_PATIENCE_NS` of the last instant `now + patience`
        // overflows: unchecked, a debug build panicked on the calling
        // thread, and a release build wrapped the deadline into the past
        // and failed the late peer's partners at once.
        let plan = FaultPlan::drops(42, 0.30).with_tag_floor(RMA_TAG_BASE);
        let res = run_world_faulty(ClusterSpec::cichlid(), 3, plan, |p| {
            p.actor.advance_until(SimNs::MAX - 1_000_000_000);
            let win = Win::create(&p.comm, &p.actor, 64)?;
            if p.rank() == 2 {
                p.actor.advance_ns(1_000_000); // the late peer
            }
            win.fence(&p.actor)?;
            if p.rank() == 0 {
                win.put(1, 8, &[7u8; 16])?;
            }
            win.lock(&p.actor, (p.rank() + 1) % 3)?;
            win.unlock(&p.actor, (p.rank() + 1) % 3)?;
            win.fence(&p.actor)?;
            Ok::<_, MpiError>(win.read_local())
        });
        let mut put = vec![0u8; 64];
        put[8..24].copy_from_slice(&[7u8; 16]);
        let expected = [vec![0u8; 64], put, vec![0u8; 64]];
        for (r, mem) in expected.into_iter().enumerate() {
            assert_eq!(res.outputs[r], Ok(mem), "rank {r}");
        }
    }

    #[test]
    fn node_down_poisons_ops_and_fence_classifies() {
        // Rank 2 dies mid-epoch: ops to it fail ProcFailed, and the
        // survivors' fence classifies the stall instead of wedging.
        let plan = FaultPlan::none().with_node_down(2, 1_000_000);
        let res = run_world_faulty(ClusterSpec::cichlid(), 3, plan, |p| {
            let win = Win::create(&p.comm, &p.actor, 32).expect("create");
            win.fence(&p.actor).expect("open");
            if p.rank() == 2 {
                // The dead rank stops participating.
                return Ok(());
            }
            p.actor.advance_ns(2_000_000); // past the death instant
            let h = win.put(2, 0, &[1u8; 32]).expect("put");
            let err = h.wait(&p.actor).expect_err("target is dead");
            assert_eq!(err, MpiError::ProcFailed { rank: 2 });
            win.fence(&p.actor)
        });
        for r in [0, 1] {
            match res.outputs[r] {
                Err(MpiError::ProcFailed { rank: 2 }) | Err(MpiError::Timeout { .. }) => {}
                ref other => panic!("rank {r}: fence must classify the stall: {other:?}"),
            }
        }
    }
}
