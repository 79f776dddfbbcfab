//! Pipelined device-buffer collectives (paper §IV-C / §VI, extended).
//!
//! The paper deliberately ships no collective commands — blocking MPI
//! collectives need no OpenCL-side synchronization — but notes that once
//! non-blocking collectives exist, "it will be effective to further
//! extend OpenCL to use its event management mechanism for the
//! synchronization". This module builds that extension the way a modern
//! comms stack would:
//!
//! * [`ClMpi::enqueue_bcast_buffer`] — broadcast a device buffer region
//!   from a root rank to every rank's device. Three algorithms
//!   ([`CollAlgo`]): a **flat** fan-out (the plain shape,
//!   serialized on the root's NIC), a **binomial tree**, and a
//!   **pipelined ring** in which every non-root rank store-and-forwards
//!   each chunk as it arrives — chunk *k* goes back on the wire while
//!   chunk *k+1* is still in flight, so the broadcast streams instead of
//!   scaling with the root's out-degree.
//! * [`ClMpi::enqueue_allreduce_buffer`] /
//!   [`ClMpi::enqueue_reduce_buffer`] — ring reduce-scatter followed by
//!   ring allgather (allreduce) or a segment gather to the root
//!   (reduce), over `f64` elements with [`minimpi::ReduceOp`]
//!   Sum/Min/Max.
//!
//! All commands return ordinary events, so kernels chain on them exactly
//! like the point-to-point commands; wait-list failures poison the
//! collective event with −14, transfer failures with
//! `CL_MPI_TRANSFER_ERROR` (−1100), like every other machine.
//!
//! ### Wire protocol
//!
//! Only the **root** decides the broadcast algorithm and chunk size
//! (through the per-collective [`crate::adaptive::CollectiveSelector`]
//! or a static heuristic). Every broadcast wire message is
//! `[1-byte algorithm id] ++ payload-chunk`; a non-root rank posts a
//! wildcard-source receive, reads the header of the first chunk to learn
//! the topology (and its parent from the message source), then forwards
//! the verbatim message to its derived children. The ring reduction is
//! fixed-topology, so only the sender-local chunk size is tuned —
//! receivers drain by expected byte count, relying on minimpi's
//! per-`(source, tag)` FIFO delivery, so ranks with divergent chunk
//! choices still interoperate.
//!
//! Collective traffic lives in its own tag region above the
//! point-to-point data plane (see [`crate::CLMPI_COLL_TAG_BASE`]), so
//! `data_plane_faults` plans exercise it and user/control tags never
//! collide with it.

use std::collections::BTreeMap;
use std::sync::Arc;

use minicl::{Buffer, ClError, ClResult, CommandQueue, Device, Event};
use minimpi::datatype::{bytes_to_f64, f64_as_bytes};
use minimpi::{Rank, ReduceOp, Tag};
use simtime::{Actor, SimNs};

use crate::engine::{
    load_behind, store, Advance, ChunkRecv, CountedRecv, Envelope, Hop, OpBody, OpCx, RecvPoll,
    ReliableChunkSend, SendQueue, WireChunk,
};
use crate::obs::Via;
use crate::runtime::{ClMpi, Inner};
use crate::strategy::chunk_layout;
use crate::system::SystemConfig;

/// Host-side fold rate charged for reduction arithmetic (bytes/s). The
/// reduction itself is a host loop in this simulation; the charge keeps
/// the `reduce` child spans visible on the dev track without dominating
/// the wire time.
pub(crate) const REDUCE_BPS: f64 = 8e9;

/// A broadcast algorithm choice (the collective analogue of
/// [`crate::TransferStrategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CollAlgo {
    /// Root sends the full payload to every rank, serialized on the
    /// root's NIC. Optimal at world ≤ 2, pathological beyond.
    Flat,
    /// Binomial tree: interior ranks re-forward each chunk to their
    /// subtree as it arrives; latency grows with ⌈log₂ n⌉.
    Tree,
    /// Pipelined ring (chain): each rank forwards chunk *k* to its
    /// successor while chunk *k+1* is still inbound; bandwidth-optimal
    /// for large payloads.
    Ring,
}

impl CollAlgo {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            CollAlgo::Flat => "flat",
            CollAlgo::Tree => "tree",
            CollAlgo::Ring => "ring",
        }
    }

    /// The wire header byte identifying this algorithm.
    pub(crate) fn id(&self) -> u8 {
        match self {
            CollAlgo::Flat => 1,
            CollAlgo::Tree => 2,
            CollAlgo::Ring => 3,
        }
    }

    pub(crate) fn from_id(id: u8) -> Option<CollAlgo> {
        match id {
            1 => Some(CollAlgo::Flat),
            2 => Some(CollAlgo::Tree),
            3 => Some(CollAlgo::Ring),
            _ => None,
        }
    }
}

/// One point in the collective tuning space: an algorithm plus the
/// pipeline chunk size it moves the payload in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollTuning {
    /// The dissemination topology.
    pub algo: CollAlgo,
    /// Wire chunk size in bytes (≥ 1).
    pub chunk: usize,
}

/// The static per-(size, world) broadcast policy used when no
/// [`crate::adaptive::CollectiveSelector`] is attached: trivial worlds
/// fan out flat, latency-bound payloads climb the tree, bandwidth-bound
/// payloads stream around the ring.
pub(crate) fn default_bcast_tuning(cfg: &SystemConfig, size: usize, world: usize) -> CollTuning {
    let algo = if world <= 2 {
        CollAlgo::Flat
    } else if size < (1 << 20) {
        CollAlgo::Tree
    } else {
        CollAlgo::Ring
    };
    // A ring only pipelines when each link sees several chunks: with m
    // chunks the last rank finishes after m + n − 2 injections, so m must
    // dominate n. Cap the chunk so m ≈ 4(n − 1) while keeping chunks
    // large enough (≥ 64 KiB) that per-chunk overheads stay negligible.
    let chunk = match algo {
        CollAlgo::Ring => (size / (4 * (world - 1)))
            .clamp(64 << 10, cfg.default_pipeline_block)
            .min(size.max(1)),
        _ => cfg.default_pipeline_block,
    };
    CollTuning { algo, chunk }
}

/// Children of `me` in the dissemination topology rooted at `root` over
/// `n` ranks. The union over all ranks is a spanning tree: every
/// non-root rank has exactly one parent.
pub(crate) fn bcast_children(algo: CollAlgo, root: Rank, n: usize, me: Rank) -> Vec<Rank> {
    match algo {
        CollAlgo::Flat => {
            if me == root {
                (0..n).filter(|&r| r != root).collect()
            } else {
                Vec::new()
            }
        }
        CollAlgo::Tree => {
            // Virtual ranks rotate the root to 0 (the reference binomial
            // construction minimpi's host bcast uses): vrank v's children
            // are v|mask for each mask below v's lowest set bit.
            let v = (me + n - root) % n;
            let top = if v == 0 {
                n.next_power_of_two()
            } else {
                v & v.wrapping_neg()
            };
            let mut out = Vec::new();
            let mut mask = top >> 1;
            while mask >= 1 {
                let child = v | mask;
                if child < n {
                    out.push((child + root) % n);
                }
                mask >>= 1;
            }
            out
        }
        CollAlgo::Ring => {
            let next = (me + 1) % n;
            if n > 1 && next != root {
                vec![next]
            } else {
                Vec::new()
            }
        }
    }
}

/// Element-wise `(offset, len)` of each of the `n` ring segments of a
/// `count`-element vector: near-equal splits, the remainder spread over
/// the leading segments (segments may be empty when `count < n`).
pub(crate) fn seg_bounds(count: usize, n: usize) -> Vec<(usize, usize)> {
    let base = count / n;
    let rem = count % n;
    let mut out = Vec::with_capacity(n);
    let mut off = 0;
    for j in 0..n {
        let len = base + usize::from(j < rem);
        out.push((off, len));
        off += len;
    }
    out
}

// ----------------------------------------------------------------------
// Public API
// ----------------------------------------------------------------------

impl ClMpi {
    /// Broadcast `size` bytes at `offset` of `buf` from `root`'s device
    /// to the same region of every rank's `buf`. Non-blocking: returns
    /// an event that completes when this rank's part is done (root: all
    /// injections and forwards delivered; others: data in device memory
    /// and forwarded downstream). Gated on `wait_list`; a failed
    /// dependency poisons the event with −14. Every rank must call this
    /// collectively with the same `size` and `tag`.
    ///
    /// The algorithm and chunk size are the **root's** choice — through
    /// the attached [`ClMpi::set_bcast_adaptive`] selector, else the
    /// static per-(size, world) heuristic; receivers learn the topology
    /// from the wire.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_bcast_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        root: Rank,
        tag: Tag,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        let n = self.comm().size();
        let tuner = self.inner.coll_bcast.lock().clone();
        // Only the root chooses: receivers take the topology from the wire
        // header.
        let tuning = match &tuner {
            Some(sel) if self.rank() == root => sel.choose((size, n)),
            _ => default_bcast_tuning(&self.inner.cfg, size, n),
        };
        let report = tuner.is_some();
        self.submit_bcast(
            queue, buf, offset, size, root, tag, tuning, report, wait_list,
        )
    }

    /// [`ClMpi::enqueue_bcast_buffer`] with an explicit algorithm and
    /// chunk size (benchmarks and the differential test suite). Never
    /// reports to the selector. The `algo`/`chunk` arguments only matter
    /// on the root; other ranks still learn the topology from the wire.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_bcast_buffer_as(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        root: Rank,
        tag: Tag,
        algo: CollAlgo,
        chunk: usize,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        if chunk == 0 {
            return Err(ClError::InvalidValue("collective chunk must be ≥ 1".into()));
        }
        self.submit_bcast(
            queue,
            buf,
            offset,
            size,
            root,
            tag,
            CollTuning { algo, chunk },
            false,
            wait_list,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_bcast(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        size: usize,
        root: Rank,
        tag: Tag,
        tuning: CollTuning,
        report: bool,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        buf.check_range(offset, size)?;
        self.check_peer(root)?;
        let wire_tag = crate::checked_coll_tag(crate::COLL_SPACE_BCAST, tag)?;
        let label = format!("bcast@{root}#{tag}");
        let (sz, at_root) = (size as u64, self.rank() == root);
        let env = Envelope {
            cat: "op.bcast",
            name: label.clone(),
            bytes: sz,
            peer: (!at_root).then_some(root),
            tag: Some(wire_tag),
            sent: if at_root { sz } else { 0 },
            received: if at_root { 0 } else { sz },
        };
        let (device, buf) = (queue.device().clone(), buf.clone());
        Ok(if at_root {
            let body = BcastRootBody {
                device,
                buf,
                offset,
                size,
                wire_tag,
                tuning,
                report,
                run: Default::default(),
            };
            self.submit_gated(label, env, wait_list, body)
        } else {
            let body = BcastRecvBody {
                device,
                buf,
                offset,
                size,
                root,
                wire_tag,
                run: Default::default(),
            };
            self.submit_gated(label, env, wait_list, body)
        })
    }

    /// All-reduce `count` `f64` elements at byte `offset` of `buf` under
    /// `op` across every rank: ring reduce-scatter followed by ring
    /// allgather. Every rank's region is overwritten with the reduced
    /// vector; the returned event completes when this rank's result is
    /// in device memory and its last injection delivered. Collective:
    /// every rank must call with the same `count`, `op` and `tag`.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_allreduce_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        tag: Tag,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        let n = self.comm().size();
        let size = count
            .checked_mul(8)
            .ok_or_else(|| ClError::InvalidValue(format!("allreduce count {count} overflows")))?;
        let (chunk, report) = if let Some(sel) = self.inner.coll_allreduce.lock().as_ref() {
            (sel.choose((size, n)).chunk, true)
        } else {
            (self.inner.cfg.default_pipeline_block, false)
        };
        self.submit_ring_reduce(
            queue,
            buf,
            offset,
            count,
            op,
            RingKind::Allreduce,
            tag,
            chunk,
            report,
            wait_list,
        )
    }

    /// [`ClMpi::enqueue_allreduce_buffer`] with an explicit chunk size;
    /// never reports to the selector.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_allreduce_buffer_as(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        tag: Tag,
        chunk: usize,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        if chunk == 0 {
            return Err(ClError::InvalidValue("collective chunk must be ≥ 1".into()));
        }
        self.submit_ring_reduce(
            queue,
            buf,
            offset,
            count,
            op,
            RingKind::Allreduce,
            tag,
            chunk,
            false,
            wait_list,
        )
    }

    /// Reduce `count` `f64` elements at byte `offset` of `buf` under
    /// `op` onto `root`: ring reduce-scatter, then each rank sends its
    /// owned reduced segment to the root. Only the **root's** buffer
    /// region is overwritten (MPI_Reduce semantics); other ranks' events
    /// complete when their segment is delivered.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_reduce_buffer(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        root: Rank,
        tag: Tag,
        wait_list: &[Event],
        _actor: &Actor,
    ) -> ClResult<Event> {
        self.check_peer(root)?;
        self.submit_ring_reduce(
            queue,
            buf,
            offset,
            count,
            op,
            RingKind::ReduceToRoot(root),
            tag,
            self.inner.cfg.default_pipeline_block,
            false,
            wait_list,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_ring_reduce(
        &self,
        queue: &CommandQueue,
        buf: &Buffer,
        offset: usize,
        count: usize,
        op: ReduceOp,
        kind: RingKind,
        tag: Tag,
        chunk: usize,
        report: bool,
        wait_list: &[Event],
    ) -> ClResult<Event> {
        let size = count
            .checked_mul(8)
            .ok_or_else(|| ClError::InvalidValue(format!("reduce count {count} overflows")))?;
        buf.check_range(offset, size)?;
        let space = match kind {
            RingKind::Allreduce => crate::COLL_SPACE_ALLREDUCE,
            RingKind::ReduceToRoot(_) => crate::COLL_SPACE_REDUCE,
        };
        let wire_tag = crate::checked_coll_tag(space, tag)?;
        let sz = size as u64;
        let (cat, label, peer, sent, received) = match kind {
            RingKind::Allreduce => ("op.allreduce", format!("allreduce#{tag}"), None, sz, sz),
            // MPI_Reduce semantics: only the root ends up with the vector.
            RingKind::ReduceToRoot(root) => {
                let (sent, received) = if self.rank() == root {
                    (0, sz)
                } else {
                    (sz, 0)
                };
                let label = format!("reduce@{root}#{tag}");
                ("op.reduce", label, Some(root), sent, received)
            }
        };
        let env = Envelope {
            cat,
            name: label.clone(),
            bytes: sz,
            peer,
            tag: Some(wire_tag),
            sent,
            received,
        };
        let body = RingReduceBody {
            device: queue.device().clone(),
            buf: buf.clone(),
            offset,
            count,
            op,
            kind,
            wire_tag,
            chunk: chunk.max(1),
            report,
            run: Default::default(),
        };
        Ok(self.submit_gated(label, env, wait_list, body))
    }
}

// ----------------------------------------------------------------------
// Telling the tuner
// ----------------------------------------------------------------------

/// Tell the ledger — and, when the root (or ring rank) was tuned by the
/// collective's selector `sel`, the selector — how a collective of
/// `size` bytes under `tuning` went: `Some(duration)` when its last chunk
/// landed, `None` on a transfer failure. A poisoned gate never gets here.
fn report_outcome(
    cx: &OpCx,
    sel: Option<&crate::adaptive::CollectiveSelector>,
    what: &'static str,
    size: usize,
    tuning: CollTuning,
    dur: Option<SimNs>,
) {
    let key = (size, cx.inner.comm.size());
    match (sel, dur) {
        (Some(sel), Some(dur)) => sel.observe(key, tuning, dur),
        (Some(sel), None) => sel.observe_failure(key, tuning),
        (None, _) => {}
    }
    if let Some(dur) = dur {
        cx.landed(what, Via::Algo(tuning.algo), size, dur);
    }
}

// ----------------------------------------------------------------------
// Broadcast: fan-out, shared by the root and every relay
// ----------------------------------------------------------------------

/// Queue the wire message `msg` for every child, armed at `at` and named
/// `{what}→r{child}`. Every child shares the one allocation.
fn fan_out(
    queue: &mut SendQueue,
    cx: &OpCx,
    (children, wire_tag): (&[Rank], Tag),
    msg: &Arc<Vec<u8>>,
    at: SimNs,
    (what, cat): (String, &'static str),
) {
    for &c in children {
        let send = ReliableChunkSend::new(&cx.inner, c, wire_tag, msg.clone(), at, None);
        queue.push(send, at, format!("{what}→r{c}"), cat);
    }
}

// ----------------------------------------------------------------------
// Broadcast: root body
// ----------------------------------------------------------------------

/// The root side of a broadcast: per-chunk d2h staging, every chunk
/// reserved at the gate instant → reliable injections to each direct
/// child (pipelined: chunk *k*'s sends are armed from the end of its
/// staging reservation) → completion at the last delivered injection.
struct BcastRootBody {
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    wire_tag: Tag,
    tuning: CollTuning,
    /// Was `tuning` the attached selector's choice (so it hears back)?
    report: bool,
    run: BcastRootRun,
}

#[derive(Default)]
struct BcastRootRun {
    armed: bool,
    queue: SendQueue,
}

impl BcastRootBody {
    /// Stage every chunk and queue its injection to every child.
    fn arm(&mut self, cx: &mut OpCx, now: SimNs) {
        let me = cx.inner.comm.rank();
        let children = bcast_children(self.tuning.algo, me, cx.inner.comm.size(), me);
        if children.is_empty() {
            return; // World of one: nothing on the wire.
        }
        let pin_setup_ns = self.device.spec().pcie.pin_setup_ns;
        let mut first = true;
        let layout = chunk_layout(self.size, self.tuning.chunk.max(1));
        for (k, &(coff, clen)) in layout.iter().enumerate() {
            let msg = Arc::new(load_behind(
                &[self.tuning.algo.id()],
                &self.buf,
                self.offset + coff,
                clen,
            ));
            let send_from = if clen == 0 {
                now
            } else {
                let from = now + if first { pin_setup_ns } else { 0 };
                first = false;
                Hop::D2h.stage(cx, &self.device, clen, from).1
            };
            let to = (&children[..], self.wire_tag);
            let named = (format!("bcast[{k}]"), "chunk");
            fan_out(&mut self.run.queue, cx, to, &msg, send_from, named);
        }
    }

    fn report(&self, cx: &OpCx, dur: Option<SimNs>) {
        let sel = self.report.then(|| cx.inner.coll_bcast.lock().clone());
        let sel = sel.flatten();
        report_outcome(cx, sel.as_deref(), "bcast", self.size, self.tuning, dur);
    }
}

impl OpBody for BcastRootBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        if !self.run.armed {
            self.run.armed = true;
            self.arm(cx, now);
        }
        match self.run.queue.drive(cx, now, actor) {
            Err((at, e)) => {
                self.report(cx, None);
                Advance::Failed(e, at.max(now))
            }
            Ok(Some(t)) => Advance::Park(Some(t)),
            Ok(None) => {
                let done_at = self.run.queue.done_at.max(now);
                self.report(cx, Some(done_at - cx.t0));
                Advance::Done(done_at)
            }
        }
    }
}

// ----------------------------------------------------------------------
// Broadcast: non-root store-and-forward body
// ----------------------------------------------------------------------

/// A non-root broadcast participant: posts a wildcard-source receive,
/// learns the topology from the first chunk's header, then for every
/// arriving chunk simultaneously stages it to the device **and**
/// re-forwards the verbatim wire message to its derived children — the
/// store-and-forward pipeline that lets chunk *k* travel downstream
/// while chunk *k+1* is still inbound. Tells no selector: only the root
/// chose.
struct BcastRecvBody {
    device: Device,
    buf: Buffer,
    offset: usize,
    size: usize,
    root: Rank,
    wire_tag: Tag,
    run: BcastRecvRun,
}

#[derive(Default)]
struct BcastRecvRun {
    state: BcastRecvState,
    algo: Option<CollAlgo>,
    parent: Option<Rank>,
    children: Vec<Rank>,
    /// Of `size` payload bytes, each wire message one header byte longer
    /// than its share of them (set up when the body starts). Polled
    /// wildcard-source until the first chunk reveals the parent, from the
    /// parent afterwards.
    recv: CountedRecv,
    chunk_idx: usize,
    last_h2d_end: SimNs,
    queue: SendQueue,
}

#[derive(Default)]
enum BcastRecvState {
    #[default]
    Start,
    Setup {
        resume_at: SimNs,
    },
    Await,
    /// Payload complete; flush the remaining forwards.
    Drain,
}

impl BcastRecvBody {
    /// Take one arrived wire message, whose payload belongs at `at`: learn
    /// or check the topology, land the payload, and forward the message
    /// downstream. The device buffer and every child share the message's
    /// one allocation; no byte of it is copied here.
    fn take_chunk(
        &mut self,
        cx: &mut OpCx,
        (at, r): (usize, WireChunk),
        now: SimNs,
    ) -> Result<(), String> {
        let msg = r.data;
        let Some(&id) = msg.first() else {
            return Err("broadcast chunk missing its algorithm header".into());
        };
        match self.run.algo {
            Some(algo) if algo.id() != id => {
                let was = algo.id();
                return Err(format!(
                    "broadcast algorithm id changed mid-stream ({was} → {id})"
                ));
            }
            Some(_) => {}
            None => {
                let Some(algo) = CollAlgo::from_id(id) else {
                    return Err(format!("unknown broadcast algorithm id {id}"));
                };
                let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
                self.run.algo = Some(algo);
                self.run.parent = Some(r.status.source);
                self.run.children = bcast_children(algo, self.root, n, me);
            }
        }
        let len = msg.len() - 1;
        if len > 0 {
            self.buf
                .land(self.offset + at, msg.clone(), 1)
                .map_err(|e| e.to_string())?;
            let h2d = Hop::H2d.stage(cx, &self.device, len, now);
            self.run.last_h2d_end = self.run.last_h2d_end.max(h2d.1);
        }
        // Store-and-forward: re-inject the verbatim wire message (header
        // included) to every child now — while later chunks are still
        // inbound.
        let to = (&self.run.children[..], self.wire_tag);
        let named = (format!("fwd[{}]", self.run.chunk_idx), "forward");
        fan_out(&mut self.run.queue, cx, to, &msg, now, named);
        self.run.chunk_idx += 1;
        Ok(())
    }
}

impl OpBody for BcastRecvBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        loop {
            match &mut self.run.state {
                BcastRecvState::Start => {
                    let resume_at = now + self.device.spec().pcie.pin_setup_ns;
                    self.run.recv = CountedRecv::new(self.size, 1);
                    self.run.state = BcastRecvState::Setup { resume_at };
                }
                &mut BcastRecvState::Setup { resume_at } => {
                    if now < resume_at {
                        return Advance::Park(Some(resume_at));
                    }
                    self.run.state = BcastRecvState::Await;
                }
                BcastRecvState::Await => {
                    // Forwards first: a forward failure poisons the whole
                    // collective on this rank (and withdraws the receive:
                    // the frame drops the body before settling).
                    let fwd_hint = match self.run.queue.drive(cx, now, actor) {
                        Ok(hint) => hint,
                        Err((at, e)) => return Advance::Failed(e, at.max(now)),
                    };
                    // The upstream process: the learned parent, or the
                    // root before the first chunk reveals one.
                    let upstream = self.run.parent.unwrap_or(self.root);
                    let dead = |inner: &Inner| inner.peer_failed(upstream, now).then_some(upstream);
                    let from = (self.run.parent, self.wire_tag);
                    let taken = match self.run.recv.poll(cx, now, actor, from, dead) {
                        Ok(RecvPoll::Ready(chunk)) => self.take_chunk(cx, chunk, now),
                        Ok(RecvPoll::Pending(hint)) => {
                            return Advance::Park(fwd_hint.into_iter().chain(hint).min());
                        }
                        Err(f) => {
                            let from = self
                                .run
                                .parent
                                .map_or("any".into(), |p| format!("rank {p}"));
                            let what =
                                format!("broadcast chunk from {from} (tag {})", self.wire_tag);
                            return Advance::Failed(f.into_error(&what), now);
                        }
                    };
                    if let Err(why) = taken {
                        return Advance::Failed(ClError::TransferFailed(why), now);
                    }
                    // Even an empty broadcast is one (header-only) message.
                    if self.run.recv.is_complete() {
                        self.run.state = BcastRecvState::Drain;
                    }
                }
                BcastRecvState::Drain => {
                    return match self.run.queue.drive(cx, now, actor) {
                        Err((at, e)) => Advance::Failed(e, at.max(now)),
                        Ok(Some(t)) => Advance::Park(Some(t)),
                        Ok(None) => {
                            let sent = self.run.queue.done_at;
                            Advance::Done(self.run.last_h2d_end.max(sent).max(now))
                        }
                    };
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Ring reduction body (allreduce and reduce-to-root)
// ----------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingKind {
    Allreduce,
    ReduceToRoot(Rank),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingPhase {
    ReduceScatter,
    Allgather,
}

/// The in-progress receive of one ring segment (possibly several wire
/// chunks; the receiver drains by byte count).
struct SegRecv {
    recv: CountedRecv,
    seg: usize,
    /// The segment's bytes so far: the first chunk's own allocation, any
    /// further chunks appended.
    data: Vec<u8>,
}

/// Root-side state of the reduce-to-root segment gather: every other
/// rank streams its owned reduced segment; chunks are written straight
/// into a byte image of the full region.
struct GatherState {
    recv: ChunkRecv,
    /// Bytes received so far per source (chunk offset within its
    /// segment).
    per_src: BTreeMap<Rank, usize>,
    got: usize,
    expect: usize,
    image: Vec<u8>,
}

/// `enqueue_allreduce_buffer` / `enqueue_reduce_buffer` as one body:
/// d2h load → n−1 reduce-scatter rounds (send segment `(me−k) mod n` to
/// the successor, receive and fold segment `(me−k−1) mod n` from the
/// predecessor) → either n−1 allgather rounds + h2d store (allreduce)
/// or a segment gather to the root (reduce). Rounds are synchronous:
/// round *k+1*'s sends are armed no earlier than round *k*'s
/// completion, which is what makes the folded data available to
/// forward (a conservative but deterministic pipeline).
struct RingReduceBody {
    device: Device,
    buf: Buffer,
    offset: usize,
    count: usize,
    op: ReduceOp,
    kind: RingKind,
    wire_tag: Tag,
    chunk: usize,
    /// Was `chunk` the attached allreduce selector's choice?
    report: bool,
    run: RingRun,
}

#[derive(Default)]
struct RingRun {
    host: Vec<f64>,
    queue: SendQueue,
    state: RingState,
}

#[derive(Default)]
enum RingState {
    #[default]
    Start,
    /// The d2h load of the local contribution is crossing PCIe.
    Load { end: SimNs },
    Round {
        phase: RingPhase,
        idx: usize,
        start: SimNs,
        recv: Option<SegRecv>,
        recv_done: Option<SimNs>,
    },
    /// Non-root reduce: the owned segment is streaming to the root.
    GatherSend,
    /// Root reduce: collecting every other rank's owned segment.
    GatherRoot(Box<GatherState>),
    /// The final h2d store is crossing PCIe.
    Store { end: SimNs },
}

/// Host-side fold charge for `bytes` bytes of reduction arithmetic.
fn fold_ns(bytes: usize) -> SimNs {
    (bytes as f64 * 1e9 / REDUCE_BPS).round() as SimNs
}

impl SegRecv {
    /// Drain as many wire chunks of the segment from `prev` as are ready
    /// at `now`; `Ready` once the segment is complete.
    fn drive(
        &mut self,
        cx: &mut OpCx,
        now: SimNs,
        actor: &Actor,
        (prev, wire_tag): (Rank, Tag),
    ) -> Result<RecvPoll<()>, ClError> {
        while !self.recv.is_complete() {
            // A dead predecessor with nothing in flight breaks the ring:
            // no segment chunk can ever arrive.
            let dead = |inner: &Inner| inner.peer_failed(prev, now).then_some(prev);
            let from = (Some(prev), wire_tag);
            let chunk = match self.recv.poll(cx, now, actor, from, dead) {
                Ok(RecvPoll::Ready((_, chunk))) => Arc::unwrap_or_clone(chunk.data),
                Ok(RecvPoll::Pending(hint)) => return Ok(RecvPoll::Pending(hint)),
                Err(f) => {
                    let what = format!("ring segment from rank {prev} (tag {wire_tag})");
                    return Err(f.into_error(&what));
                }
            };
            // Per-(source, tag) FIFO: chunks arrive in offset order.
            if self.data.is_empty() {
                self.data = chunk;
            } else {
                self.data.extend_from_slice(&chunk);
            }
        }
        Ok(RecvPoll::Ready(()))
    }
}

impl RingReduceBody {
    fn size(&self) -> usize {
        self.count * 8
    }

    fn report(&self, cx: &OpCx, dur: Option<SimNs>) {
        let sel = self.report.then(|| cx.inner.coll_allreduce.lock().clone());
        let sel = sel.flatten();
        let what = match self.kind {
            RingKind::Allreduce => "allreduce",
            RingKind::ReduceToRoot(_) => "reduce",
        };
        let tuning = CollTuning {
            algo: CollAlgo::Ring,
            chunk: self.chunk,
        };
        report_outcome(cx, sel.as_deref(), what, self.size(), tuning, dur);
    }

    fn fail(&self, cx: &OpCx, e: ClError, at: SimNs) -> Advance {
        self.report(cx, None);
        Advance::Failed(e, at)
    }

    fn finish(&self, cx: &OpCx, done_at: SimNs) -> Advance {
        self.report(cx, Some(done_at.saturating_sub(cx.t0)));
        Advance::Done(done_at)
    }

    /// Queue the elements `[off, off + len)` of the host vector for
    /// `dst`, in wire chunks armed at `at` and named by `name(k)`.
    fn queue_segment(
        &mut self,
        cx: &OpCx,
        (off, len): (usize, usize),
        dst: Rank,
        at: SimNs,
        name: impl Fn(usize) -> String,
    ) {
        if len == 0 {
            return;
        }
        // Serialised here, once, a wire chunk at a time.
        let bytes = f64_as_bytes(&self.run.host[off..off + len]);
        for (k, &(coff, clen)) in chunk_layout(bytes.len(), self.chunk).iter().enumerate() {
            let chunk = Arc::new(bytes[coff..coff + clen].to_vec());
            let send = ReliableChunkSend::new(&cx.inner, dst, self.wire_tag, chunk, at, None);
            self.run.queue.push(send, at, name(k), "chunk");
        }
    }

    /// Arm round `idx` of `phase` starting at `start`: queue the send
    /// segment's chunks and set up the receive of the inbound segment
    /// (posted by the round's first poll, at this same instant).
    fn begin_round(&mut self, cx: &OpCx, phase: RingPhase, idx: usize, start: SimNs) {
        let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
        let next = (me + 1) % n;
        let segs = seg_bounds(self.count, n);
        let (send_seg, recv_seg, tagn) = match phase {
            RingPhase::ReduceScatter => ((me + n - idx) % n, (me + 2 * n - idx - 1) % n, "rs"),
            RingPhase::Allgather => ((me + n + 1 - idx) % n, (me + n - idx) % n, "ag"),
        };
        self.queue_segment(cx, segs[send_seg], next, start, |k| {
            format!("{tagn}[{idx}][{k}]→r{next}")
        });
        let (_, rlen_el) = segs[recv_seg];
        let recv = (rlen_el > 0).then(|| SegRecv {
            recv: CountedRecv::new(rlen_el * 8, 0),
            seg: recv_seg,
            data: Vec::new(),
        });
        self.run.state = RingState::Round {
            phase,
            idx,
            start,
            recv_done: recv.is_none().then_some(start),
            recv,
        };
    }

    /// The round is fully done (sends delivered, segment folded); move
    /// to the next round or the terminal phase.
    fn advance_round(
        &mut self,
        cx: &mut OpCx,
        phase: RingPhase,
        idx: usize,
        at: SimNs,
        actor: &Actor,
    ) {
        let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
        if idx + 1 < n - 1 {
            return self.begin_round(cx, phase, idx + 1, at);
        }
        match (phase, self.kind) {
            // Reduce-scatter done: this rank owns the fully reduced
            // segment (me+1) mod n.
            (RingPhase::ReduceScatter, RingKind::Allreduce) => {
                self.begin_round(cx, RingPhase::Allgather, 0, at)
            }
            (RingPhase::ReduceScatter, RingKind::ReduceToRoot(root)) if me == root => {
                self.begin_gather_root(cx, at, actor)
            }
            (RingPhase::ReduceScatter, RingKind::ReduceToRoot(root)) => {
                let own = seg_bounds(self.count, n)[(me + 1) % n];
                self.queue_segment(cx, own, root, at, |k| format!("gather[{k}]→r{root}"));
                self.run.state = RingState::GatherSend;
            }
            (RingPhase::Allgather, _) => {
                let host = std::mem::take(&mut self.run.host);
                self.begin_store(cx, f64_as_bytes(&host), at);
            }
        }
    }

    /// Root side of reduce-to-root: collect every other rank's owned
    /// segment into a byte image of the region.
    fn begin_gather_root(&mut self, cx: &mut OpCx, at: SimNs, actor: &Actor) {
        let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
        let own = seg_bounds(self.count, n)[(me + 1) % n];
        let expect = (self.count - own.1) * 8;
        if expect == 0 {
            // Degenerate split: every foreign segment is empty.
            let host = std::mem::take(&mut self.run.host);
            return self.begin_store(cx, f64_as_bytes(&host), at);
        }
        self.run.state = RingState::GatherRoot(Box::new(GatherState {
            recv: ChunkRecv::post(&cx.inner, actor, None, self.wire_tag, at),
            per_src: BTreeMap::new(),
            got: 0,
            expect,
            image: f64_as_bytes(&self.run.host).to_vec(),
        }));
    }

    /// Write the final region bytes to the device: buffer store plus one
    /// h2d staging reservation.
    fn begin_store(&mut self, cx: &mut OpCx, bytes: &[u8], at: SimNs) {
        store(&self.buf, self.offset, bytes);
        let h2d = Hop::H2d.stage(cx, &self.device, bytes.len(), at);
        self.run.state = RingState::Store { end: h2d.1 };
    }
}

impl OpBody for RingReduceBody {
    fn advance(&mut self, cx: &mut OpCx, now: SimNs, actor: &Actor) -> Advance {
        let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
        loop {
            match &mut self.run.state {
                RingState::Start => {
                    if n == 1 || self.count == 0 {
                        // Identity reduction: the local contribution is
                        // already the result, in place.
                        return self.finish(cx, now);
                    }
                    let region = self.offset..self.offset + self.size();
                    self.run.host = self.buf.read(|d| bytes_to_f64(&d.as_slice()[region]));
                    let from = now + self.device.spec().pcie.pin_setup_ns;
                    let d2h = Hop::D2h.stage(cx, &self.device, self.size(), from);
                    self.run.state = RingState::Load { end: d2h.1 };
                }
                &mut RingState::Load { end } => {
                    if now < end {
                        return Advance::Park(Some(end));
                    }
                    self.begin_round(cx, RingPhase::ReduceScatter, 0, now);
                }
                RingState::Round {
                    phase,
                    idx,
                    start,
                    recv,
                    recv_done,
                } => {
                    // A send failure fails the round with its receive
                    // still posted; dropping the body withdraws it.
                    let send_hint = match self.run.queue.drive(cx, now, actor) {
                        Ok(hint) => hint,
                        Err((at, e)) => return self.fail(cx, e, at.max(now)),
                    };
                    let mut recv_hint = None;
                    if let Some(sr) = recv.as_mut() {
                        let prev = (me + n - 1) % n;
                        match sr.drive(cx, now, actor, (prev, self.wire_tag)) {
                            Err(e) => return self.fail(cx, e, now),
                            Ok(RecvPoll::Pending(hint)) => recv_hint = hint,
                            Ok(RecvPoll::Ready(())) => {
                                // Fold (reduce-scatter) or copy
                                // (allgather) the complete segment.
                                let (off, len) = seg_bounds(self.count, n)[sr.seg];
                                let mine = &mut self.run.host[off..off + len];
                                let vals = bytes_to_f64(&sr.data);
                                *recv_done = Some(match *phase {
                                    RingPhase::ReduceScatter => {
                                        self.op.fold(mine, &vals);
                                        let end = now + fold_ns(sr.data.len());
                                        let name = format!("reduce[{}]", sr.seg);
                                        let bytes = sr.data.len() as u64;
                                        cx.child("dev", name, "reduce", (now, end), bytes, true);
                                        end
                                    }
                                    RingPhase::Allgather => {
                                        mine.copy_from_slice(&vals);
                                        now
                                    }
                                });
                                *recv = None;
                            }
                        }
                    }
                    let round_end = (*recv_done)
                        .filter(|_| self.run.queue.is_empty())
                        .map(|rd| rd.max(self.run.queue.done_at).max(*start));
                    let Some(round_end) = round_end else {
                        return Advance::Park(send_hint.into_iter().chain(recv_hint).min());
                    };
                    if now < round_end {
                        return Advance::Park(Some(round_end));
                    }
                    let (phase, idx) = (*phase, *idx);
                    self.advance_round(cx, phase, idx, now, actor);
                }
                RingState::GatherSend => {
                    return match self.run.queue.drive(cx, now, actor) {
                        Err((at, e)) => self.fail(cx, e, at.max(now)),
                        Ok(Some(t)) => Advance::Park(Some(t)),
                        // MPI_Reduce semantics: a non-root buffer is left
                        // untouched — no device store.
                        Ok(None) => self.finish(cx, self.run.queue.done_at.max(now)),
                    };
                }
                RingState::GatherRoot(gs) => {
                    let gs = &mut **gs;
                    let segs = seg_bounds(self.count, n);
                    // A contributor whose segment is still incomplete and
                    // whose process is dead can never finish the gather.
                    let per_src = &gs.per_src;
                    let dead = |inner: &Inner| {
                        (0..n).find(|&r| {
                            let want = segs[(r + 1) % n].1 * 8;
                            r != me
                                && per_src.get(&r).copied().unwrap_or(0) < want
                                && inner.peer_failed(r, now)
                        })
                    };
                    let r = match gs.recv.poll(cx, now, actor, dead) {
                        Ok(RecvPoll::Ready(r)) => r,
                        Ok(RecvPoll::Pending(hint)) => return Advance::Park(hint),
                        Err(f) => {
                            let what = format!("reduce gather (tag {})", self.wire_tag);
                            return self.fail(cx, f.into_error(&what), now);
                        }
                    };
                    let src = r.status.source;
                    let (off_el, len_el) = segs[(src + 1) % n];
                    let within = gs.per_src.entry(src).or_insert(0);
                    let upto = *within + r.data.len();
                    if upto > len_el * 8 {
                        let e = ClError::TransferFailed(format!(
                            "reduce gather overflow from rank {src}: {upto} bytes \
                             into a {}-byte segment",
                            len_el * 8
                        ));
                        return self.fail(cx, e, now);
                    }
                    let base = off_el * 8 + *within;
                    gs.image[base..base + r.data.len()].copy_from_slice(&r.data);
                    *within = upto;
                    gs.got += r.data.len();
                    if gs.got < gs.expect {
                        gs.recv = ChunkRecv::post(&cx.inner, actor, None, self.wire_tag, now);
                        continue;
                    }
                    let end = now + fold_ns(gs.expect);
                    let bytes = std::mem::take(&mut gs.image);
                    let len = bytes.len() as u64;
                    cx.child(
                        "dev",
                        "reduce[gather]".into(),
                        "reduce",
                        (now, end),
                        len,
                        true,
                    );
                    self.begin_store(cx, &bytes, end);
                }
                &mut RingState::Store { end } => {
                    if now < end {
                        return Advance::Park(Some(end));
                    }
                    return self.finish(cx, end.max(self.run.queue.done_at));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the topology from the root; every rank must be reached
    /// exactly once (spanning tree over the world).
    fn assert_spanning(algo: CollAlgo, root: Rank, n: usize) {
        let mut seen = vec![false; n];
        let mut queue = vec![root];
        seen[root] = true;
        while let Some(r) = queue.pop() {
            for c in bcast_children(algo, root, n, r) {
                assert!(c < n, "{algo:?} n={n} root={root}: child {c} out of range");
                assert!(
                    !seen[c],
                    "{algo:?} n={n} root={root}: rank {c} has two parents"
                );
                seen[c] = true;
                queue.push(c);
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "{algo:?} n={n} root={root}: not all ranks reached: {seen:?}"
        );
    }

    #[test]
    fn every_topology_spans_every_world_and_root() {
        for n in [1, 2, 3, 5, 8, 13] {
            for root in 0..n {
                for algo in [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring] {
                    assert_spanning(algo, root, n);
                }
            }
        }
    }

    #[test]
    fn binomial_children_match_hand_check_for_five_ranks() {
        // n=5, root=0: 0→{4,2,1}, 2→{3}, leaves elsewhere.
        assert_eq!(bcast_children(CollAlgo::Tree, 0, 5, 0), vec![4, 2, 1]);
        assert_eq!(bcast_children(CollAlgo::Tree, 0, 5, 2), vec![3]);
        assert!(bcast_children(CollAlgo::Tree, 0, 5, 1).is_empty());
        assert!(bcast_children(CollAlgo::Tree, 0, 5, 3).is_empty());
        assert!(bcast_children(CollAlgo::Tree, 0, 5, 4).is_empty());
    }

    #[test]
    fn ring_chain_stops_before_the_root() {
        assert_eq!(bcast_children(CollAlgo::Ring, 2, 4, 2), vec![3]);
        assert_eq!(bcast_children(CollAlgo::Ring, 2, 4, 3), vec![0]);
        assert_eq!(bcast_children(CollAlgo::Ring, 2, 4, 0), vec![1]);
        assert!(bcast_children(CollAlgo::Ring, 2, 4, 1).is_empty());
        assert!(bcast_children(CollAlgo::Ring, 0, 1, 0).is_empty());
    }

    #[test]
    fn seg_bounds_cover_exactly_with_leading_remainder() {
        assert_eq!(seg_bounds(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(seg_bounds(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        for (count, n) in [(0, 3), (1, 13), (1023, 5), (4096, 8)] {
            let segs = seg_bounds(count, n);
            assert_eq!(segs.len(), n);
            let total: usize = segs.iter().map(|s| s.1).sum();
            assert_eq!(total, count);
            let mut off = 0;
            for &(o, l) in &segs {
                assert_eq!(o, off);
                off += l;
            }
        }
    }

    #[test]
    fn algo_ids_round_trip() {
        for algo in [CollAlgo::Flat, CollAlgo::Tree, CollAlgo::Ring] {
            assert_eq!(CollAlgo::from_id(algo.id()), Some(algo));
        }
        assert_eq!(CollAlgo::from_id(0), None);
        assert_eq!(CollAlgo::from_id(99), None);
    }

    #[test]
    fn default_tuning_picks_flat_tree_ring_by_shape() {
        let cfg = SystemConfig::ricc();
        assert_eq!(default_bcast_tuning(&cfg, 64 << 20, 2).algo, CollAlgo::Flat);
        assert_eq!(default_bcast_tuning(&cfg, 4 << 10, 8).algo, CollAlgo::Tree);
        assert_eq!(default_bcast_tuning(&cfg, 42 << 20, 8).algo, CollAlgo::Ring);
        // The ring chunk shrinks with world size so every link streams
        // several chunks — a single-chunk ring is a serial relay.
        let t = default_bcast_tuning(&cfg, 2 << 20, 4);
        assert_eq!(t.algo, CollAlgo::Ring);
        assert!(
            t.chunk * 4 <= 2 << 20,
            "ring chunk {} must pipeline a 2 MiB payload",
            t.chunk
        );
        assert!(t.chunk >= 64 << 10);
    }
}
