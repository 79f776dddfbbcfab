//! The clMPI runtime: inter-node communication commands and MPI interop.
//!
//! ### Implementation notes (vs. paper §V-A)
//!
//! The paper implements the extension *on top of* a proprietary OpenCL:
//! inter-node communication commands return **user events** that mimic
//! command events, and a runtime-internal thread executes the MPI calls so
//! the host thread is never blocked. This reproduction does the same, the
//! paper's way: one long-lived per-rank progress thread (the
//! [`crate::Engine`]) multiplexes every outstanding command as one
//! `async` body — chunked transfers, MPI request wrappers,
//! collective fan-outs, file I/O, and the retry/backoff timers of the
//! failure model (see `engine.rs` for the execution model). Transfers
//! begin when their wait lists complete and progress with no host
//! involvement; resource contention (PCIe, NIC) is fully accounted
//! through the shared reservation timelines.
//!
//! This module is the *control plane*: argument validation, strategy
//! resolution, body construction and submission. The only places it
//! blocks the calling actor are the explicitly blocking API flavors,
//! each marked `// blocking-api:` for the CI lint.

use simtime::plock::Mutex;
use std::future::Future;
use std::sync::Arc;

use minicl::{Buffer, ClError, ClResult, CommandQueue, Context, Device, Event, HostBuffer};
use minimpi::{
    Comm, CommittedType, MpiError, Process, Rank, RecvResult, ReduceOp, Request, RetryPolicy, Tag,
    Win,
};
use simtime::{until, Actor, Monitor, SimClock, SimNs, Trace};

use crate::engine::{
    record_envelope, AccumulateBody, Engine, Envelope, EventFromRequestBody, FenceBody, GetBody,
    HostSend, IrecvBody, Lowering, OpSpec, PutBody, RecvBody, ResultSlot, SendBody, SendSlot,
};
use crate::obs::{ChildIds, ObsCounters};
use crate::strategy::{PackMode, ResolvedStrategy, TransferStrategy};
use crate::system::SystemConfig;

/// One rank's books, under one lock: what every operation draws its id
/// from and reports to. Always on — there is no second set of counters.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Next per-rank operation sequence number (stable op ids).
    next_seq: u64,
    /// The live counters ([`ClMpi::obs_counters`] snapshots them).
    pub(crate) counters: ObsCounters,
    /// Chunk losses observed since the last successful delivery.
    consecutive_drops: u32,
    /// Once set, pipelined transfers resolve to pinned (fewer wire
    /// messages → fewer loss draws) until [`ClMpi::reset_degradation`].
    degraded: bool,
}

impl Ledger {
    fn next_ids(&mut self, rank: Rank) -> ChildIds {
        let ids = ChildIds::new(crate::obs::op_id(rank, self.next_seq));
        self.next_seq += 1;
        ids
    }

    /// A wire chunk was delivered: the loss streak ends.
    pub(crate) fn chunk_delivered(&mut self) {
        self.consecutive_drops = 0;
    }

    /// A wire chunk was lost; is this the loss that latches the
    /// degradation?
    pub(crate) fn chunk_lost(&mut self, degrade_after: u32) -> bool {
        self.consecutive_drops += 1;
        let latches = !self.degraded && self.consecutive_drops >= degrade_after;
        self.degraded |= latches;
        latches
    }
}

pub(crate) struct Inner {
    pub(crate) comm: Comm,
    pub(crate) ctx: Context,
    pub(crate) device: Device,
    pub(crate) cfg: SystemConfig,
    pub(crate) clock: SimClock,
    pub(crate) engine: Engine,
    pub(crate) forced: Mutex<Option<TransferStrategy>>,
    pub(crate) trace: Trace,
    pub(crate) adaptive: Mutex<Option<Arc<crate::adaptive::AdaptiveSelector>>>,
    /// Per-(peer, size) tuner for one-sided wire lowerings; `None` means
    /// window traffic takes the class-routed RMA path unconditionally.
    pub(crate) rma_adaptive: Mutex<Option<Arc<crate::adaptive::PeerSelector>>>,
    /// Per-collective tuners (algorithm + chunk keyed on size × world);
    /// `None` falls back to the static heuristic.
    pub(crate) coll_bcast: Mutex<Option<Arc<crate::adaptive::CollectiveSelector>>>,
    pub(crate) coll_allreduce: Mutex<Option<Arc<crate::adaptive::CollectiveSelector>>>,
    pub(crate) retry: Mutex<RetryPolicy>,
    pub(crate) ledger: Mutex<Ledger>,
    /// Communicator-local ranks explicitly reported failed
    /// ([`ClMpi::notify_proc_failure`]); op bodies consult this set in
    /// addition to the fault plan's schedule. A `Monitor`: a report
    /// re-polls the engine ops that looked here.
    pub(crate) failed: Monitor<std::collections::BTreeSet<Rank>>,
}

impl Inner {
    /// Allocate the stable id block of the next operation and count the
    /// submission. Called on the submitting thread only, so each rank's
    /// numbering follows its own program order — never the real-time
    /// interleaving of engine threads.
    pub(crate) fn new_op(&self) -> ChildIds {
        let mut ledger = self.ledger.lock();
        ledger.counters.note_submitted();
        ledger.next_ids(self.comm.rank())
    }

    /// True if communicator-local rank `local` is known failed at `t`:
    /// either explicitly reported ([`ClMpi::notify_proc_failure`]) or
    /// dead per the fabric's fault-plan schedule (the deterministic
    /// ground truth the ULFM-style layer classifies against).
    pub(crate) fn peer_failed(&self, local: Rank, t: SimNs) -> bool {
        self.failed.peek(|f| f.contains(&local)) || self.comm.is_proc_failed(local, t)
    }
}

/// The per-rank clMPI runtime: binds one MPI endpoint to one OpenCL
/// context/device and provides the extension API.
#[derive(Clone)]
pub struct ClMpi {
    pub(crate) inner: Arc<Inner>,
}

impl ClMpi {
    /// Create the runtime for `p`'s rank under system config `cfg`. Builds
    /// a fresh [`Context`] holding `cfg.device` and starts the rank's
    /// progress engine (the calling thread must be a running clock actor,
    /// which `run_world` rank closures always are).
    pub fn new(p: &Process, cfg: SystemConfig) -> Self {
        Self::with_comm(p.comm.clone(), cfg)
    }

    /// Create a runtime directly on `comm` (everything else — clock,
    /// trace — derives from its world). This is the rebuild path after a
    /// rank failure: `shrink` the old runtime's communicator, shut the
    /// old runtime down, and start a fresh one on the survivor
    /// communicator. The calling thread must be a running clock actor.
    pub fn with_comm(comm: Comm, cfg: SystemConfig) -> Self {
        let clock = comm.world().clock().clone();
        let ctx = Context::new(clock.clone(), &[cfg.device]);
        let device = ctx.device(0).clone();
        let trace = comm.world().trace().clone();
        let engine = Engine::start(&clock, format!("clmpi-engine-r{}", comm.rank()));
        let failed = Monitor::new(clock.clone(), std::collections::BTreeSet::new());
        ClMpi {
            inner: Arc::new(Inner {
                comm,
                ctx,
                device,
                cfg,
                clock,
                engine,
                forced: Mutex::new(None),
                trace,
                adaptive: Mutex::new(None),
                rma_adaptive: Mutex::new(None),
                coll_bcast: Mutex::new(None),
                coll_allreduce: Mutex::new(None),
                retry: Mutex::new(RetryPolicy::default()),
                ledger: Mutex::new(Ledger::default()),
                failed,
            }),
        }
    }

    /// The OpenCL context this runtime manages.
    pub fn context(&self) -> &Context {
        &self.inner.ctx
    }

    /// The communicator device.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// The MPI endpoint.
    pub fn comm(&self) -> &Comm {
        &self.inner.comm
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.inner.cfg
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.inner.comm.rank()
    }

    /// Force every subsequent transfer onto `strategy` (`None` restores
    /// automatic selection). Used by the Fig. 8 strategy sweeps.
    pub fn set_forced_strategy(&self, strategy: Option<TransferStrategy>) {
        *self.inner.forced.lock() = strategy;
    }

    /// Attach a measurement-based strategy tuner (see
    /// [`crate::adaptive::AdaptiveSelector`]); it overrides the static
    /// policy until detached with `None`. A forced strategy
    /// ([`ClMpi::set_forced_strategy`]) still takes precedence.
    pub fn set_adaptive(&self, selector: Option<Arc<crate::adaptive::AdaptiveSelector>>) {
        *self.inner.adaptive.lock() = selector;
    }

    /// Attach a per-(peer, size) tuner for one-sided window traffic (see
    /// [`crate::adaptive::PeerSelector`]): each peer's size class probes
    /// the RMA path against the NIC-side emulations and locks the
    /// fastest — co-located peers converge on the pool port, remote
    /// peers on the NIC. A forced strategy still takes precedence.
    pub fn set_rma_adaptive(&self, selector: Option<Arc<crate::adaptive::PeerSelector>>) {
        *self.inner.rma_adaptive.lock() = selector;
    }

    /// Attach a broadcast tuner (see
    /// [`crate::adaptive::CollectiveSelector`]): the root probes each
    /// (algorithm, chunk) candidate per (size, world) class and locks the
    /// fastest; failed probes are retired like transfer strategies.
    /// `None` restores the static heuristic.
    pub fn set_bcast_adaptive(&self, selector: Option<Arc<crate::adaptive::CollectiveSelector>>) {
        *self.inner.coll_bcast.lock() = selector;
    }

    /// Attach an allreduce chunk-size tuner (ring topology is fixed;
    /// only the pipeline chunk is probed). `None` restores the system
    /// default block.
    pub fn set_allreduce_adaptive(
        &self,
        selector: Option<Arc<crate::adaptive::CollectiveSelector>>,
    ) {
        *self.inner.coll_allreduce.lock() = selector;
    }

    /// Set how transfers react to observed chunk loss (attempt budget,
    /// backoff schedule, degradation threshold, receiver patience). An
    /// attempt budget of 0 is taken as 1, as [`RetryPolicy::new`] does.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.inner.retry.lock() = RetryPolicy {
            max_attempts: policy.max_attempts.max(1),
            ..policy
        };
    }

    /// True once repeated chunk loss has degraded pipelined transfers to
    /// pinned (see [`RetryPolicy::degrade_after`]).
    pub fn is_degraded(&self) -> bool {
        self.inner.ledger.lock().degraded
    }

    /// Clear the degradation latch (e.g. after the operator restored the
    /// link), letting pipelined transfers resolve normally again.
    pub fn reset_degradation(&self) {
        let mut ledger = self.inner.ledger.lock();
        ledger.degraded = false;
        ledger.consecutive_drops = 0;
    }

    /// Snapshot this rank's live counters: operations
    /// submitted/completed/failed, peak queue depth, payload bytes, the
    /// fault/retry counters, and which strategy every transfer took
    /// ([`ObsCounters::report`]). The values are deterministic at
    /// quiescent points (after [`ClMpi::shutdown`]); mid-run reads are
    /// best-effort introspection — the exported
    /// [`crate::obs::ObsSummary`] recomputes what spans can tell from
    /// spans instead.
    pub fn obs_counters(&self) -> ObsCounters {
        self.inner.ledger.lock().counters.clone()
    }

    pub(crate) fn resolve(&self, size: usize) -> TransferStrategy {
        // A forced strategy is an explicit benchmark request: honored
        // verbatim, even under degradation.
        if let Some(forced) = *self.inner.forced.lock() {
            return self.inner.cfg.resolve(forced, size);
        }
        let chosen = if let Some(sel) = self.inner.adaptive.lock().as_ref() {
            self.inner.cfg.resolve(sel.choose(size), size)
        } else {
            self.inner.cfg.resolve(TransferStrategy::Auto, size)
        };
        self.degrade(chosen, size)
    }

    /// Under the degradation latch a pipelined choice becomes pinned.
    fn degrade(&self, chosen: TransferStrategy, size: usize) -> TransferStrategy {
        if matches!(chosen, TransferStrategy::Pipelined(_)) && self.is_degraded() {
            return self.inner.cfg.resolve(TransferStrategy::Pinned, size);
        }
        chosen
    }

    /// Strategy resolution for one-sided puts: forced > per-peer tuner >
    /// the class-routed RMA path. Degradation maps pipelined onto pinned
    /// exactly as on the two-sided path.
    pub(crate) fn resolve_rma(&self, peer: Rank, size: usize) -> TransferStrategy {
        if let Some(forced) = *self.inner.forced.lock() {
            return self.inner.cfg.resolve(forced, size);
        }
        let chosen = if let Some(sel) = self.inner.rma_adaptive.lock().as_ref() {
            self.inner.cfg.resolve(sel.choose((peer, size)), size)
        } else {
            TransferStrategy::Rma
        };
        self.degrade(chosen, size)
    }

    /// Wait (in virtual time) until every outstanding command has
    /// finished. Call before the rank returns.
    pub fn shutdown(&self, actor: &Actor) {
        self.inner.engine.wait_idle(actor);
    }

    /// The future of [`ClMpi::shutdown`], for a rank body that runs as a
    /// task.
    pub fn shutdown_async(&self) -> impl Future<Output = ()> + '_ {
        self.inner.engine.idle()
    }

    // ------------------------------------------------------------------
    // Rank-failure recovery (ULFM-style, over `minimpi`'s surface)
    // ------------------------------------------------------------------

    /// Report communicator-local rank `rank` as failed. In-flight and
    /// future commands touching it abort-and-poison instead of waiting
    /// out their patience; recorded as an `op.failure` span. Idempotent.
    pub fn notify_proc_failure(&self, rank: Rank) {
        if !self.inner.failed.with(|f| f.insert(rank)) {
            return;
        }
        let now = self.inner.clock.now_ns();
        let env = Envelope::new("op.failure", format!("proc-failure r{rank}"), Some(rank));
        self.record_recovery(env, now, now, false);
    }

    /// Record a control-plane recovery span (failure notification, revoke,
    /// shrink): an id block of its own but no operation submission —
    /// recovery spans are summarized into the recovery counters of
    /// [`crate::obs::ObsSummary`], not the op counters.
    fn record_recovery(&self, env: Envelope, start: SimNs, end: SimNs, ok: bool) {
        let ids = self.inner.ledger.lock().next_ids(self.rank());
        record_envelope(&self.inner, &ids, env, start, end, ok);
    }

    /// Communicator-local ranks known failed at instant `t`: explicit
    /// notifications plus the fault plan's node-kill schedule.
    pub fn failed_ranks(&self, t: SimNs) -> Vec<Rank> {
        let mut out: std::collections::BTreeSet<Rank> =
            self.inner.failed.peek(|f| f.iter().copied().collect());
        out.extend(self.inner.comm.failed_ranks(t));
        out.into_iter().collect()
    }

    /// `MPI_Comm_revoke` on the runtime's communicator: every fallible
    /// point-to-point call on it errors with `MpiError::Revoked` on all
    /// members from now on. Recorded as an `op.revoke` span.
    pub fn revoke(&self) {
        self.inner.comm.revoke();
        let now = self.inner.clock.now_ns();
        let env = Envelope::new("op.revoke", "revoke".into(), None);
        self.record_recovery(env, now, now, true);
    }

    /// `MPI_Comm_shrink`: run the fault-tolerant agreement over the
    /// runtime's communicator and return the survivor communicator with
    /// densely renumbered ranks (see [`Comm::shrink`]). The span
    /// `op.shrink` covers the agreement rounds. The runtime itself keeps
    /// its original communicator — quiesce it with [`ClMpi::shutdown`]
    /// and rebuild with [`ClMpi::with_comm`] on the result.
    pub fn shrink_comm(&self, actor: &Actor, patience_ns: SimNs) -> Result<Comm, MpiError> {
        let t0 = actor.now_ns();
        let res = self.inner.comm.shrink(actor, patience_ns);
        let name = match &res {
            Ok(c) => format!("shrink {}→{}", self.inner.comm.size(), c.size()),
            Err(e) => format!("shrink failed: {e}"),
        };
        let env = Envelope::new("op.shrink", name, None);
        self.record_recovery(env, t0, actor.now_ns(), res.is_ok());
        res
    }

    // ------------------------------------------------------------------
    // Submission (every command below is a body handed to the op frame)
    // ------------------------------------------------------------------

    /// Submit `body` as a traced command whose wait list poisons it —
    /// the protocol of every command but the file ones.
    pub(crate) fn submit_gated(
        &self,
        event: String,
        env: Envelope,
        wait: &[Event],
        body: impl crate::engine::OpBody,
    ) -> Event {
        OpSpec::gated(event, env, wait).submit(&self.inner, body)
    }

    /// Misuse is the caller's `CL_INVALID_VALUE`, found on the calling
    /// thread — never a panic on an engine or scheduler thread, which
    /// would take the whole world down: `peer` must be a rank of the
    /// communicator.
    pub(crate) fn check_peer(&self, peer: Rank) -> ClResult<()> {
        if peer >= self.inner.comm.size() {
            return Err(ClError::InvalidValue(format!("rank {peer} out of range")));
        }
        Ok(())
    }

    /// [`ClMpi::check_peer`], and `tag` must be a user tag; returns it
    /// mapped into the data plane.
    fn check_peer_tag(&self, peer: Rank, tag: Tag) -> ClResult<Tag> {
        self.check_peer(peer)?;
        crate::checked_data_tag(tag)
    }

    /// The three device-buffer send entry points (plain, datatype,
    /// gpu-aware) differ in the `kind` their event is labelled with, the
    /// strategy and lowering in `body`, the wait list and who listens on a
    /// result slot.
    fn submit_send(
        &self,
        kind: &str,
        body: SendBody,
        tag: Tag,
        wait: &[Event],
        result: Option<ResultSlot>,
    ) -> Event {
        let (dst, size) = (body.peer, body.size as u64);
        let env = Envelope {
            bytes: size,
            tag: Some(body.wire_tag),
            sent: size,
            ..Envelope::new("op.send", format!("send→{dst}#{tag}"), Some(dst))
        };
        let spec = OpSpec {
            result,
            ..OpSpec::gated(format!("{kind}→{dst}#{tag}"), env, wait)
        };
        spec.submit(&self.inner, body)
    }

    /// The receive-side twin of [`ClMpi::submit_send`].
    fn submit_recv(
        &self,
        kind: &str,
        body: RecvBody,
        tag: Tag,
        wait: &[Event],
        result: Option<ResultSlot>,
    ) -> Event {
        let (src, size) = (body.peer, body.size as u64);
        let env = Envelope {
            bytes: size,
            tag: Some(body.wire_tag),
            received: size,
            ..Envelope::new("op.recv", format!("recv←{src}#{tag}"), Some(src))
        };
        let spec = OpSpec {
            result,
            ..OpSpec::gated(format!("{kind}←{src}#{tag}"), env, wait)
        };
        spec.submit(&self.inner, body)
    }

    // ------------------------------------------------------------------
    // Inter-node communication commands (paper §IV-A)
    // ------------------------------------------------------------------

    /// `clEnqueueSendBuffer`: send `size` bytes at `offset` of device
    /// buffer `buf` to rank `dst` with `tag`. Gated by `wait_list`;
    /// returns an event that completes when the local send finishes (the
    /// buffer region is reusable). `blocking` waits on `actor`.
    ///
    /// The `queue` argument names the communicator device, exactly as in
    /// the paper — the command itself is ordered by events, not by queue
    /// position (the paper's user-event implementation, §V-A).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_send_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        size: usize,
        dst: Rank,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        let wire_tag = self.check_peer_tag(dst, tag)?;
        let strategy = self.resolve(size);
        let body = SendBody::new(queue.device(), buf, offset, size, dst, wire_tag, strategy);
        let event = self.submit_send("send", body, tag, wait_list, None);
        Ok(waited_if(blocking, event, actor))
    }

    /// `clEnqueueRecvBuffer`: receive `size` bytes into `offset` of device
    /// buffer `buf` from rank `src` with `tag`. Gated by `wait_list`; the
    /// returned event completes when the data is in device memory.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_recv_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        size: usize,
        src: Rank,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        let wire_tag = self.check_peer_tag(src, tag)?;
        let strategy = self.resolve(size);
        let body = RecvBody::new(queue.device(), buf, offset, size, src, wire_tag, strategy);
        let event = self.submit_recv("recv", body, tag, wait_list, None);
        Ok(waited_if(blocking, event, actor))
    }

    /// Combined halo-exchange convenience: enqueue a send of
    /// `(send_offset, size)` to `peer` and a receive into
    /// `(recv_offset, size)` from `peer`, both gated on `wait_list`.
    /// Returns `(send_event, recv_event)`. This is the pattern every
    /// stencil code writes by hand (paper Fig. 6).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_sendrecv_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        send_offset: usize,
        recv_offset: usize,
        size: usize,
        peer: Rank,
        send_tag: Tag,
        recv_tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<(Event, Event)> {
        let es = self.enqueue_send_buffer(
            queue,
            buf,
            false,
            send_offset,
            size,
            peer,
            send_tag,
            wait_list,
            actor,
        )?;
        let er = self.enqueue_recv_buffer(
            queue,
            buf,
            false,
            recv_offset,
            size,
            peer,
            recv_tag,
            wait_list,
            actor,
        )?;
        Ok((es, er))
    }

    // ------------------------------------------------------------------
    // Derived-datatype transfers (TEMPI-style device-side packing)
    // ------------------------------------------------------------------

    /// How the committed type `ty` travels under `mode`: `(event label
    /// suffix, wire strategy, lowering)`. A contiguous type takes the
    /// plain contiguous path unchanged. Otherwise the packed payload is
    /// staged (pinned) for the one-shot modes, or chunked (pipelined) so
    /// pack kernels overlap earlier chunks' wire time.
    fn lower(
        &self,
        ty: &CommittedType,
        mode: PackMode,
    ) -> (&'static str, TransferStrategy, Option<Lowering>) {
        let packed = ty.packed_size();
        if ty.is_contiguous() {
            return ("", self.resolve(packed), None);
        }
        let strategy = match mode {
            PackMode::HostPack | PackMode::DevicePack => TransferStrategy::Pinned,
            PackMode::PipelinedPack => self
                .inner
                .cfg
                .resolve(TransferStrategy::Pipelined(0), packed.max(1)),
        };
        let ty = ty.clone();
        ("-dt", strategy, Some(Lowering { ty, mode }))
    }

    /// `clEnqueueSendBufferDatatype`: send the committed derived type
    /// `ty`, described over the region starting at `offset` of device
    /// buffer `buf`, to rank `dst`. Only the type map's bytes
    /// ([`CommittedType::packed_size`]) cross PCIe and the wire; `mode`
    /// decides who canonicalizes them (host gather vs on-device pack
    /// kernel vs pack fused into the pipelined transfer). A contiguous
    /// committed type takes the plain contiguous path unchanged.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_send_datatype(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        ty: &CommittedType,
        mode: PackMode,
        dst: Rank,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, ty.extent())?;
        let wire_tag = self.check_peer_tag(dst, tag)?;
        let (dt, strategy, lowering) = self.lower(ty, mode);
        let (device, packed) = (queue.device(), ty.packed_size());
        let mut body = SendBody::new(device, buf, offset, packed, dst, wire_tag, strategy);
        body.lowering = lowering;
        let event = self.submit_send(&format!("send{dt}"), body, tag, wait_list, None);
        Ok(waited_if(blocking, event, actor))
    }

    /// `clEnqueueRecvBufferDatatype`: receive the committed derived type
    /// `ty` into the region starting at `offset` of device buffer `buf`
    /// from rank `src`. The wire carries the packed bytes; `mode` decides
    /// whether the host scatters them segment-by-segment or an on-device
    /// unpack kernel does (with the pipelined mode unpacking chunk *k*
    /// while chunk *k+1* is still on the wire).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_recv_datatype(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        blocking: bool,
        offset: usize,
        ty: &CommittedType,
        mode: PackMode,
        src: Rank,
        tag: Tag,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        buf.check_range(offset, ty.extent())?;
        let wire_tag = self.check_peer_tag(src, tag)?;
        let (dt, strategy, lowering) = self.lower(ty, mode);
        let (device, packed) = (queue.device(), ty.packed_size());
        let mut body = RecvBody::new(device, buf, offset, packed, src, wire_tag, strategy);
        body.lowering = lowering;
        let event = self.submit_recv(&format!("recv{dt}"), body, tag, wait_list, None);
        Ok(waited_if(blocking, event, actor))
    }

    // ------------------------------------------------------------------
    // GPU-aware MPI comparator (paper §II related work)
    // ------------------------------------------------------------------

    /// A **GPU-aware MPI** send, as in cudaMPI / MPI-ACC / MVAPICH2-GPU:
    /// the MPI call accepts a device buffer directly and uses the same
    /// optimized transfer path as clMPI — but it blocks **the calling
    /// host thread** until the send completes. The caller must have
    /// already synchronized with any producing kernel (that is the §II
    /// limitation clMPI removes: "the host thread needs to wait for the
    /// kernel execution completion in order to serialize the kernel
    /// execution and the MPI communication").
    #[allow(clippy::too_many_arguments)]
    pub fn gpu_aware_send(
        &self,
        actor: &Actor,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        dst: Rank,
        tag: Tag,
    ) -> ClResult<()> {
        let sent = self.gpu_aware_send_async(queue, buf, offset, size, dst, tag);
        // blocking-api: GPU-aware MPI is synchronous by definition.
        actor.block_on("gpu-aware send", sent)
    }

    /// The future of [`ClMpi::gpu_aware_send`]. The call checks its
    /// arguments and submits the send; the future is ready once it is
    /// done.
    pub fn gpu_aware_send_async(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        dst: Rank,
        tag: Tag,
    ) -> impl Future<Output = ClResult<()>> + 'static {
        let submitted = buf.check_range(offset, size).and_then(|()| {
            let wire_tag = self.check_peer_tag(dst, tag)?;
            let strategy = self.resolve(size);
            let body = SendBody::new(queue.device(), buf, offset, size, dst, wire_tag, strategy);
            let slot: ResultSlot = Arc::new(Monitor::new(self.inner.clock.clone(), None));
            self.submit_send("gpu-send", body, tag, &[], Some(slot.clone()));
            Ok(slot)
        });
        gpu_aware_result(submitted)
    }

    /// GPU-aware MPI receive into a device buffer; blocks the calling
    /// host thread until the data is in device memory.
    #[allow(clippy::too_many_arguments)]
    pub fn gpu_aware_recv(
        &self,
        actor: &Actor,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        src: Rank,
        tag: Tag,
    ) -> ClResult<()> {
        let received = self.gpu_aware_recv_async(queue, buf, offset, size, src, tag);
        // blocking-api: GPU-aware MPI is synchronous by definition.
        actor.block_on("gpu-aware recv", received)
    }

    /// The future of [`ClMpi::gpu_aware_recv`], submitted by the call as
    /// [`ClMpi::gpu_aware_send_async`]'s send is.
    pub fn gpu_aware_recv_async(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        src: Rank,
        tag: Tag,
    ) -> impl Future<Output = ClResult<()>> + 'static {
        let submitted = buf.check_range(offset, size).and_then(|()| {
            let wire_tag = self.check_peer_tag(src, tag)?;
            let strategy = self.resolve(size);
            let body = RecvBody::new(queue.device(), buf, offset, size, src, wire_tag, strategy);
            let slot: ResultSlot = Arc::new(Monitor::new(self.inner.clock.clone(), None));
            self.submit_recv("gpu-recv", body, tag, &[], Some(slot.clone()));
            Ok(slot)
        });
        gpu_aware_result(submitted)
    }

    // ------------------------------------------------------------------
    // MPI interoperability (paper §IV-C)
    // ------------------------------------------------------------------

    /// `clCreateEventFromMPIRequest`: wrap a non-blocking MPI request in
    /// an event so OpenCL commands can depend on it. For receives, the
    /// payload lands in the returned [`RequestOutcome`].
    pub fn event_from_request(&self, req: Request) -> (Event, RequestOutcome) {
        let outcome = RequestOutcome {
            slot: Arc::new(Monitor::new(self.inner.clock.clone(), None)),
        };
        // Payload size and received bytes are the body's to fill in: only
        // the settled request knows them.
        let env = Envelope::new("op.request", "mpi-request".into(), None);
        let body = EventFromRequestBody {
            req,
            slot: outcome.slot.clone(),
        };
        let event = self.submit_gated("mpi-request".into(), env, &[], body);
        (event, outcome)
    }

    /// `MPI_Isend` with `MPI_CL_MEM` from **host** memory to a remote
    /// communicator device: the runtime chunks the payload so the remote
    /// side can overlap its host→device stage with the network (§V-A's
    /// wrapper functions). The send progresses on the engine; the caller
    /// resumes as soon as the initial injection burst is on the wire. A
    /// `dst` outside the communicator or a `tag` outside the user range
    /// submits nothing: the returned request's
    /// [`ClSendRequest::wait_result`] is the `InvalidValue` error.
    pub fn isend_cl(&self, actor: &Actor, dst: Rank, tag: Tag, data: &[u8]) -> ClSendRequest {
        let clock = &self.inner.clock;
        let wire_tag = match self.check_peer_tag(dst, tag) {
            Ok(wire_tag) => wire_tag,
            Err(e) => {
                let slot = Arc::new(Monitor::new(clock.clone(), Some(Err(e))));
                return ClSendRequest { slot };
            }
        };
        let strategy = self.resolve(data.len());
        let plan = ResolvedStrategy::plan(strategy, data.len());
        let chunks: Vec<(Vec<u8>, Option<SimNs>)> = plan
            .chunks
            .iter()
            .map(|&(off, len)| {
                let duration = (strategy == TransferStrategy::Mapped)
                    .then(|| self.inner.cfg.mapped_wire_ns(len));
                (data[off..off + len].to_vec(), duration)
            })
            .collect();
        let issued = Arc::new(Monitor::new(clock.clone(), false));
        let slot: SendSlot = Arc::new(Monitor::new(clock.clone(), None));
        let total = data.len() as u64;
        let env = Envelope {
            bytes: total,
            tag: Some(wire_tag),
            sent: total,
            ..Envelope::new("op.isend", format!("isend→{dst}"), Some(dst))
        };
        let send = HostSend {
            dst,
            wire_tag,
            chunks,
            slot: slot.clone(),
        };
        send.submit(&self.inner, env, issued.clone());
        // Hand-off handshake: resume once the engine has pushed the first
        // injection burst onto the wire, keeping the fabric reservation
        // order identical to an inline send (costs no virtual time — the
        // engine runs at this same frozen instant).
        // blocking-api: submission handshake at one frozen virtual instant.
        issued.wait_labeled(actor, "clmpi isend_cl", |i| i.then_some(()));
        ClSendRequest { slot }
    }

    /// Blocking [`ClMpi::isend_cl`] (`MPI_Send` with `MPI_CL_MEM`).
    pub fn send_cl(&self, actor: &Actor, dst: Rank, tag: Tag, data: &[u8]) {
        self.isend_cl(actor, dst, tag, data).wait(actor); // blocking-api: MPI_Send semantics
    }

    /// `MPI_Irecv` with `MPI_CL_MEM` into **host** memory from a remote
    /// communicator device: drains the sender's wire chunks into a host
    /// buffer; the returned request's event completes when all `size`
    /// bytes have arrived. A `src` outside the communicator or a `tag`
    /// outside the user range posts no receive: the event fails at the
    /// call instant with `CL_MPI_TRANSFER_ERROR`.
    pub fn irecv_cl(&self, actor: &Actor, src: Rank, tag: Tag, size: usize) -> ClRecvRequest {
        let data = HostBuffer::pinned(size);
        let label = format!("irecv_cl←{src}");
        let Ok(wire_tag) = self.check_peer_tag(src, tag) else {
            let ue = self.inner.ctx.create_user_event(label);
            ue.set_failed(actor.now_ns(), crate::CL_MPI_TRANSFER_ERROR)
                .expect("a fresh event settles once");
            return ClRecvRequest {
                event: ue.event(),
                data,
            };
        };
        let env = Envelope {
            bytes: size as u64,
            tag: Some(wire_tag),
            received: size as u64,
            ..Envelope::new("op.irecv", format!("irecv←{src}"), Some(src))
        };
        let body = IrecvBody {
            src,
            wire_tag,
            host: data.clone(),
            size,
        };
        let event = self.submit_gated(label, env, &[], body);
        ClRecvRequest { event, data }
    }

    // ------------------------------------------------------------------
    // One-sided window commands (`MPI_CL_MEM` exposed as `MPI_Win`)
    // ------------------------------------------------------------------

    /// Collectively expose the first `size` bytes of device buffer `buf`
    /// as an `MPI_Win`: every rank of the communicator must call this
    /// with its own buffer. The window's host segment is registered at
    /// creation (the pinned staging image the wire reads and writes) and
    /// seeded from the device buffer; the first access epoch is opened
    /// before returning, so put/get/accumulate commands can be enqueued
    /// immediately. Blocking (it is a collective), like `MPI_Win_create`.
    pub fn expose_buffer_as_window(
        &self,
        buf: &Buffer,
        size: usize,
        actor: &Actor,
    ) -> ClResult<ClWindow> {
        buf.check_range(0, size)?;
        let win = Win::create(&self.inner.comm, actor, size) // blocking-api: collective window creation
            .map_err(|e| ClError::TransferFailed(format!("win_create: {e}")))?;
        win.write_local(0, buf.load(0, size)?.as_slice());
        win.fence(actor) // blocking-api: opens the first access epoch collectively
            .map_err(|e| ClError::TransferFailed(format!("win_create fence: {e}")))?;
        Ok(ClWindow {
            win,
            buf: buf.clone(),
            size,
        })
    }

    /// `clEnqueuePutBuffer`: one-sided write of `size` bytes at `offset`
    /// of device buffer `buf` into `target`'s window at `win_offset`.
    /// Gated by `wait_list`; the returned event completes when the bytes
    /// have landed in the target's window segment. The wire lowering is
    /// resolved per (peer, size) — see [`ClMpi::set_rma_adaptive`].
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_put_buffer(
        &self,
        queue: &CommandQueue,
        win: &ClWindow,
        blocking: bool,
        offset: usize,
        win_offset: usize,
        size: usize,
        target: Rank,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        win.buf.check_range(offset, size)?;
        self.check_win_range(win, target, win_offset, size)?;
        let body = PutBody {
            device: queue.device().clone(),
            win: win.win.clone(),
            buf: win.buf.clone(),
            offset,
            win_offset,
            size,
            target,
            strategy: self.resolve_rma(target, size),
        };
        let env = Envelope {
            bytes: size as u64,
            sent: size as u64,
            ..Envelope::new("op.put", format!("put→{target}@{win_offset}"), Some(target))
        };
        let event = self.submit_gated(format!("put→{target}"), env, wait_list, body);
        Ok(waited_if(blocking, event, actor))
    }

    /// `clEnqueueGetBuffer`: one-sided read of `size` bytes from
    /// `target`'s window at `win_offset` into `offset` of device buffer
    /// `buf`. Gated by `wait_list`; the returned event completes when
    /// the data is in device memory.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_get_buffer(
        &self,
        queue: &CommandQueue,
        win: &ClWindow,
        blocking: bool,
        offset: usize,
        win_offset: usize,
        size: usize,
        target: Rank,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        win.buf.check_range(offset, size)?;
        self.check_win_range(win, target, win_offset, size)?;
        let body = GetBody {
            device: queue.device().clone(),
            win: win.win.clone(),
            buf: win.buf.clone(),
            offset,
            win_offset,
            size,
            target,
        };
        let env = Envelope {
            bytes: size as u64,
            received: size as u64,
            ..Envelope::new("op.get", format!("get←{target}@{win_offset}"), Some(target))
        };
        let event = self.submit_gated(format!("get←{target}"), env, wait_list, body);
        Ok(waited_if(blocking, event, actor))
    }

    /// `clEnqueueAccumulateBuffer`: one-sided read-modify-write of the
    /// f64s in `(offset, size)` of device buffer `buf` into `target`'s
    /// window at `win_offset` with `op`. Concurrent accumulates from
    /// different ranks apply in the fabric arbiter's canonical grant
    /// order, so the result is deterministic.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_accumulate_buffer(
        &self,
        queue: &CommandQueue,
        win: &ClWindow,
        blocking: bool,
        offset: usize,
        win_offset: usize,
        size: usize,
        target: Rank,
        op: ReduceOp,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        win.buf.check_range(offset, size)?;
        self.check_win_range(win, target, win_offset, size)?;
        if !size.is_multiple_of(8) {
            return Err(ClError::InvalidValue(format!(
                "accumulate size {size} is not a multiple of 8 (f64 elements)"
            )));
        }
        let body = AccumulateBody {
            device: queue.device().clone(),
            win: win.win.clone(),
            buf: win.buf.clone(),
            offset,
            win_offset,
            size,
            target,
            op,
        };
        let env = Envelope {
            bytes: size as u64,
            sent: size as u64,
            ..Envelope::new("op.acc", format!("acc→{target}@{win_offset}"), Some(target))
        };
        let event = self.submit_gated(format!("acc→{target}"), env, wait_list, body);
        Ok(waited_if(blocking, event, actor))
    }

    /// `clEnqueueWinFence`: close the window's current access epoch and
    /// open the next. The returned event completes once every rank's
    /// matching fence has been reached and this rank's epoch ops have
    /// settled; an op failure latched during the epoch fails the event.
    /// Every rank must enqueue a matching fence (it synchronizes like
    /// `MPI_Win_fence`).
    pub fn enqueue_win_fence(
        &self,
        win: &ClWindow,
        blocking: bool,
        wait_list: &[Event],
        actor: &Actor,
    ) -> ClResult<Event> {
        let body = FenceBody {
            win: win.win.clone(),
        };
        let env = Envelope::new("op.fence", "win-fence".into(), None);
        let event = self.submit_gated("win-fence".into(), env, wait_list, body);
        Ok(waited_if(blocking, event, actor))
    }

    /// Sync `size` bytes of the window's local segment at `win_offset`
    /// back into the shadowed device buffer at the same offset (h2d is
    /// modeled by the enqueue path that produced the segment bytes; this
    /// is the instantaneous control-plane view used between epochs).
    pub fn window_to_buffer(&self, win: &ClWindow, offset: usize, size: usize) -> ClResult<()> {
        win.buf.check_range(offset, size)?;
        let seg = win.win.read_local();
        if offset + size > seg.len() {
            return Err(ClError::InvalidValue(format!(
                "window range {offset}+{size} exceeds segment of {}",
                seg.len()
            )));
        }
        win.buf.store(offset, &seg[offset..offset + size])
    }

    fn check_win_range(
        &self,
        win: &ClWindow,
        target: Rank,
        win_offset: usize,
        size: usize,
    ) -> ClResult<()> {
        self.check_peer(target)?;
        let exposed = win.win.size_of(target);
        if win_offset.checked_add(size).is_none_or(|end| end > exposed) {
            return Err(ClError::InvalidValue(format!(
                "window range {win_offset}+{size} exceeds rank {target}'s {exposed}-byte window"
            )));
        }
        Ok(())
    }
}

/// A submitted GPU-aware operation's result, once its engine machine has
/// put it in the slot; a rejected submission's error at once.
async fn gpu_aware_result(submitted: ClResult<ResultSlot>) -> ClResult<()> {
    let slot = submitted?;
    until(|| slot.try_now(Option::take)).await
}

/// The `blocking` flag of an enqueue call: wait for the command on
/// `actor` before handing its event back.
fn waited_if(blocking: bool, event: Event, actor: &Actor) -> Event {
    if blocking {
        event.wait(actor); // blocking-api: explicit blocking enqueue flag
    }
    event
}

/// An `MPI_CL_MEM` device buffer exposed as an `MPI_Win` (created by
/// [`ClMpi::expose_buffer_as_window`]): pairs the window — whose local
/// segment is the registered host staging image the wire reads and
/// writes — with the device buffer it shadows. Clones share the window's
/// epoch state.
#[derive(Clone)]
pub struct ClWindow {
    win: Win,
    buf: Buffer,
    size: usize,
}

impl ClWindow {
    /// The underlying `minimpi` window (epoch control, local segment).
    pub fn win(&self) -> &Win {
        &self.win
    }

    /// The shadowed device buffer.
    pub fn buffer(&self) -> &Buffer {
        &self.buf
    }

    /// Exposed bytes of this rank's segment.
    pub fn size(&self) -> usize {
        self.size
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return; // clock is poisoned; the engine dies on its own
        }
        if simtime::in_sched_pass() {
            // The engine's last op held the last runtime handle: the pass
            // is already draining it, and must not wait on itself.
            return;
        }
        if self.engine.active() > 0 {
            // Wait clock-aware for outstanding ops with a temporary actor
            // (the dropping thread is a running actor, so registration is
            // legal); the Engine field's drop then asks the engine to
            // retire.
            let tmp = self.clock.register("clmpi-drop");
            self.engine.wait_idle(&tmp);
        }
    }
}

/// Completion handle of a host-side `MPI_CL_MEM` send. The transfer
/// progresses on the rank's engine; this handle only observes it.
#[must_use = "wait the request to observe send completion"]
pub struct ClSendRequest {
    slot: SendSlot,
}

impl ClSendRequest {
    /// Block until the send's injection completes (buffer reusable).
    /// Panics if the transfer failed permanently or the call was
    /// rejected; use [`ClSendRequest::wait_result`] to handle that
    /// gracefully.
    pub fn wait(&self, actor: &Actor) {
        if let Err(e) = self.outcome(actor) {
            panic!("{e}");
        }
    }

    /// Block until the send completes, or return the error: the retry
    /// budget was exhausted, or `isend_cl` rejected its arguments.
    pub fn wait_result(self, actor: &Actor) -> ClResult<()> {
        self.outcome(actor)
    }

    fn outcome(&self, actor: &Actor) -> ClResult<()> {
        // blocking-api: the whole point of waiting a send request.
        let done_at = self
            .slot
            .wait_labeled(actor, "isend_cl done", |s| s.clone())?;
        actor.advance_until(done_at);
        Ok(())
    }
}

/// Handle of a host-side `MPI_CL_MEM` receive: an event plus the host
/// buffer the payload lands in.
pub struct ClRecvRequest {
    /// Completes when all bytes have arrived in [`ClRecvRequest::data`].
    pub event: Event,
    /// Destination host buffer.
    pub data: HostBuffer,
}

/// Where the payload of an [`ClMpi::event_from_request`]-wrapped receive
/// lands once the event completes.
#[derive(Clone)]
pub struct RequestOutcome {
    slot: Arc<Monitor<Option<RecvResult>>>,
}

impl RequestOutcome {
    /// Take the receive result (None for sends, or if already taken).
    pub fn take(&self) -> Option<RecvResult> {
        self.slot.with(|s| s.take())
    }
}
