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
//! `CL_MPI_TRANSFER_ERROR` (−1100), like every other command.
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

use minicl::{AlignedBytes, Buffer, ClError, ClResult, CommandQueue, Device, Event};
use minimpi::{Rank, ReduceOp, Tag};
use simtime::{until, Actor, SimNs};

use crate::engine::{
    load_behind, peer_dead, store, ChunkRecv, CountedRecv, Envelope, Hop, OpBody, OpCx, Outcome,
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
}

impl BcastRootBody {
    /// Stage every chunk and queue its injection to every child.
    fn arm(&self, cx: &mut OpCx, queue: &mut SendQueue) {
        let me = cx.inner.comm.rank();
        let children = bcast_children(self.tuning.algo, me, cx.inner.comm.size(), me);
        if children.is_empty() {
            return; // World of one: nothing on the wire.
        }
        let now = cx.now();
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
            fan_out(queue, cx, to, &msg, send_from, named);
        }
    }

    fn report(&self, cx: &OpCx, dur: Option<SimNs>) {
        let sel = self.report.then(|| cx.inner.coll_bcast.lock().clone());
        let sel = sel.flatten();
        report_outcome(cx, sel.as_deref(), "bcast", self.size, self.tuning, dur);
    }
}

impl OpBody for BcastRootBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let mut queue = SendQueue::default();
        self.arm(cx, &mut queue);
        let sent = queue.flush(cx).await;
        let now = cx.now();
        if let Err((at, e)) = sent {
            self.report(cx, None);
            return Err((e, at.max(now)));
        }
        let done_at = queue.done_at.max(now);
        self.report(cx, Some(done_at - cx.t0));
        Ok(done_at)
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
}

/// What a relay learns from the first chunk it takes.
struct Topology {
    algo: CollAlgo,
    parent: Rank,
    children: Vec<Rank>,
}

impl BcastRecvBody {
    /// Take one arrived wire message, whose payload belongs at `at`: learn
    /// or check the topology, land the payload, and queue the message's
    /// forward to every child as chunk `k`. The device buffer and every
    /// child share the message's one allocation; no byte of it is copied
    /// here. Returns the end of the payload's h2d hop (0 without one).
    fn take_chunk(
        &self,
        cx: &mut OpCx,
        (topo, queue): (&mut Option<Topology>, &mut SendQueue),
        (at, r): (usize, WireChunk),
        k: usize,
    ) -> Result<SimNs, String> {
        let msg = r.data;
        let Some(&id) = msg.first() else {
            return Err("broadcast chunk missing its algorithm header".into());
        };
        let topo = match topo {
            Some(t) if t.algo.id() != id => {
                let was = t.algo.id();
                return Err(format!(
                    "broadcast algorithm id changed mid-stream ({was} → {id})"
                ));
            }
            Some(t) => t,
            None => {
                let Some(algo) = CollAlgo::from_id(id) else {
                    return Err(format!("unknown broadcast algorithm id {id}"));
                };
                let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
                topo.insert(Topology {
                    algo,
                    parent: r.status.source,
                    children: bcast_children(algo, self.root, n, me),
                })
            }
        };
        let now = cx.now();
        let len = msg.len() - 1;
        let mut h2d_end = 0;
        if len > 0 {
            self.buf
                .land(self.offset + at, msg.clone(), 1)
                .map_err(|e| e.to_string())?;
            h2d_end = Hop::H2d.stage(cx, &self.device, len, now).1;
        }
        // Store-and-forward: re-inject the verbatim wire message (header
        // included) to every child now — while later chunks are still
        // inbound.
        let to = (&topo.children[..], self.wire_tag);
        fan_out(queue, cx, to, &msg, now, (format!("fwd[{k}]"), "forward"));
        Ok(h2d_end)
    }
}

impl OpBody for BcastRecvBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        cx.inner
            .clock
            .sleep_until(cx.now() + self.device.spec().pcie.pin_setup_ns)
            .await;
        let tag = self.wire_tag;
        // Of `size` payload bytes, each wire message one header byte longer
        // than its share of them. Polled wildcard-source until the first
        // chunk reveals the parent, from the parent afterwards.
        let mut recv = CountedRecv::new(self.size, 1);
        let mut topo: Option<Topology> = None;
        let mut queue = SendQueue::default();
        let mut last_h2d_end = 0;
        // Even an empty broadcast is one (header-only) message.
        for k in 0.. {
            let parent = topo.as_ref().map(|t| t.parent);
            let chunk = until(|| {
                let now = cx.now();
                // Forwards first: a forward failure fails the whole
                // collective on this rank (and withdraws the receive: the
                // body is gone before the frame settles).
                if let Some(Err((at, e))) = queue.drive(cx) {
                    return Some(Err((e, at.max(now))));
                }
                // The upstream process: the learned parent, or the root
                // before the first chunk reveals one.
                let upstream = peer_dead(parent.unwrap_or(self.root));
                let polled = recv.poll(cx, (parent, tag), upstream)?;
                Some(polled.map_err(|f| {
                    let from = parent.map_or("any".into(), |p| format!("rank {p}"));
                    let what = format!("broadcast chunk from {from} (tag {tag})");
                    (f.into_error(&what), now)
                }))
            })
            .await?;
            match self.take_chunk(cx, (&mut topo, &mut queue), chunk, k) {
                Ok(end) => last_h2d_end = last_h2d_end.max(end),
                Err(why) => return Err((ClError::TransferFailed(why), cx.now())),
            }
            if recv.is_complete() {
                break;
            }
        }
        // Payload complete; flush the remaining forwards.
        let flushed = queue.flush(cx).await;
        let now = cx.now();
        match flushed {
            Err((at, e)) => Err((e, at.max(now))),
            Ok(()) => Ok(last_h2d_end.max(queue.done_at).max(now)),
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
    /// The segment's bytes, each chunk landed at its offset.
    data: AlignedBytes,
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
}

/// Host-side fold charge for `bytes` bytes of reduction arithmetic.
fn fold_ns(bytes: usize) -> SimNs {
    (bytes as f64 * 1e9 / REDUCE_BPS).round() as SimNs
}

impl SegRecv {
    /// Drain as many wire chunks of the segment from `prev` as are here:
    /// `Some(Ok)` once the segment is complete, `None` while it is not.
    fn drive(
        &mut self,
        cx: &mut OpCx,
        (prev, wire_tag): (Rank, Tag),
    ) -> Option<Result<(), ClError>> {
        while !self.recv.is_complete() {
            // A dead predecessor with nothing in flight breaks the ring:
            // no segment chunk can ever arrive.
            let dead = peer_dead(prev);
            let (at, chunk) = match self.recv.poll(cx, (Some(prev), wire_tag), dead)? {
                Ok(got) => got,
                Err(f) => {
                    let what = format!("ring segment from rank {prev} (tag {wire_tag})");
                    return Some(Err(f.into_error(&what)));
                }
            };
            // Per-(source, tag) FIFO: chunks arrive in offset order.
            self.data.as_mut_slice()[at..at + chunk.data.len()].copy_from_slice(&chunk.data);
        }
        Some(Ok(()))
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

    fn fail(&self, cx: &OpCx, e: ClError, at: SimNs) -> Outcome {
        self.report(cx, None);
        Err((e, at))
    }

    fn finish(&self, cx: &OpCx, done_at: SimNs) -> Outcome {
        self.report(cx, Some(done_at.saturating_sub(cx.t0)));
        Ok(done_at)
    }

    /// Queue the elements `[off, off + len)` of the host image for `dst`,
    /// in wire chunks armed at `at` and named by `name(k)`.
    fn queue_segment(
        &self,
        (cx, queue): (&OpCx, &mut SendQueue),
        host: &AlignedBytes,
        (off, len): (usize, usize),
        (dst, at): (Rank, SimNs),
        name: impl Fn(usize) -> String,
    ) {
        if len == 0 {
            return;
        }
        let bytes = &host.as_slice()[off * 8..(off + len) * 8];
        for (k, &(coff, clen)) in chunk_layout(bytes.len(), self.chunk).iter().enumerate() {
            let chunk = Arc::new(bytes[coff..coff + clen].to_vec());
            let send = ReliableChunkSend::new(&cx.inner, dst, self.wire_tag, chunk, at, None);
            queue.push(send, at, name(k), "chunk");
        }
    }

    /// Round `idx` of `phase`, from now: queue the send segment's chunks,
    /// drive them together with the receive of the inbound segment
    /// (posted by the round's first poll, at this same instant), fold
    /// (reduce-scatter) or copy (allgather) that segment into `host`,
    /// and wait out the round's end.
    async fn round(
        &self,
        cx: &mut OpCx,
        (host, queue): (&mut AlignedBytes, &mut SendQueue),
        phase: RingPhase,
        idx: usize,
    ) -> Result<(), (ClError, SimNs)> {
        let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
        let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
        let segs = seg_bounds(self.count, n);
        let (send_seg, recv_seg, tagn) = match phase {
            RingPhase::ReduceScatter => ((me + n - idx) % n, (me + 2 * n - idx - 1) % n, "rs"),
            RingPhase::Allgather => ((me + n + 1 - idx) % n, (me + n - idx) % n, "ag"),
        };
        let start = cx.now();
        self.queue_segment((cx, queue), host, segs[send_seg], (next, start), |k| {
            format!("{tagn}[{idx}][{k}]→r{next}")
        });
        let (_, rlen_el) = segs[recv_seg];
        let mut recv = (rlen_el > 0).then(|| SegRecv {
            recv: CountedRecv::new(rlen_el * 8, 0),
            seg: recv_seg,
            data: AlignedBytes::zeroed(rlen_el * 8),
        });
        let mut recv_done = recv.is_none().then_some(start);
        let round_end = until(|| {
            let now = cx.now();
            // A send failure fails the round with its receive still
            // posted; dropping the body withdraws it.
            if let Some(Err((at, e))) = queue.drive(cx) {
                return Some(Err((e, at.max(now))));
            }
            if let Some(sr) = recv.as_mut() {
                match sr.drive(cx, (prev, self.wire_tag)) {
                    None => {}
                    Some(Err(e)) => return Some(Err((e, now))),
                    Some(Ok(())) => {
                        let (off, len) = segs[sr.seg];
                        let bytes = sr.data.len();
                        recv_done = Some(match phase {
                            RingPhase::ReduceScatter => {
                                let mine = &mut host.as_f64_mut()[off..off + len];
                                self.op.fold(mine, sr.data.as_f64());
                                let end = now + fold_ns(bytes);
                                let name = format!("reduce[{}]", sr.seg);
                                cx.child("dev", name, "reduce", (now, end), bytes as u64, true);
                                end
                            }
                            RingPhase::Allgather => {
                                let mine = &mut host.as_mut_slice()[off * 8..(off + len) * 8];
                                mine.copy_from_slice(sr.data.as_slice());
                                now
                            }
                        });
                        recv = None;
                    }
                }
            }
            let end = recv_done.filter(|_| queue.is_empty());
            end.map(|rd| Ok(rd.max(queue.done_at).max(start)))
        })
        .await?;
        cx.inner.clock.sleep_until(round_end).await;
        Ok(())
    }

    /// Every step after the d2h load: the rounds, then the store, the
    /// gather send or the gather at the root. Done at the returned
    /// instant.
    async fn reduce(&self, cx: &mut OpCx, host: &mut AlignedBytes) -> Outcome {
        let (n, me) = (cx.inner.comm.size(), cx.inner.comm.rank());
        let mut queue = SendQueue::default();
        for idx in 0..n - 1 {
            let q = (&mut *host, &mut queue);
            self.round(cx, q, RingPhase::ReduceScatter, idx).await?;
        }
        // Reduce-scatter done: this rank owns the fully reduced segment
        // (me+1) mod n.
        let segs = seg_bounds(self.count, n);
        let own = segs[(me + 1) % n];
        let root = match self.kind {
            RingKind::Allreduce => {
                for idx in 0..n - 1 {
                    let q = (&mut *host, &mut queue);
                    self.round(cx, q, RingPhase::Allgather, idx).await?;
                }
                return Ok(self.store(cx, host, cx.now()).await.max(queue.done_at));
            }
            RingKind::ReduceToRoot(root) => root,
        };
        if me != root {
            let now = cx.now();
            self.queue_segment((cx, &mut queue), host, own, (root, now), |k| {
                format!("gather[{k}]→r{root}")
            });
            let sent = queue.flush(cx).await;
            let now = cx.now();
            // MPI_Reduce semantics: a non-root buffer is left untouched —
            // no device store.
            return match sent {
                Err((at, e)) => Err((e, at.max(now))),
                Ok(()) => Ok(queue.done_at.max(now)),
            };
        }
        // The root collects every other rank's owned segment into its
        // image of the region. A degenerate split — every foreign segment
        // empty — has nothing to collect.
        let expect = (self.count - own.1) * 8;
        let mut per_src: BTreeMap<Rank, usize> = BTreeMap::new();
        let mut got = 0;
        while got < expect {
            // A contributor whose segment is still incomplete and whose
            // process is dead can never finish the gather.
            let dead = |inner: &Inner, now| {
                (0..n).find(|&r| {
                    let want = segs[(r + 1) % n].1 * 8;
                    r != me
                        && per_src.get(&r).copied().unwrap_or(0) < want
                        && inner.peer_failed(r, now)
                })
            };
            let recv = ChunkRecv::post(cx, None, self.wire_tag);
            let r = match recv.take(cx, dead).await {
                Ok(r) => r,
                Err(f) => {
                    let what = format!("reduce gather (tag {})", self.wire_tag);
                    return Err((f.into_error(&what), cx.now()));
                }
            };
            let src = r.status.source;
            let (off_el, len_el) = segs[(src + 1) % n];
            let within = per_src.entry(src).or_insert(0);
            let upto = *within + r.data.len();
            if upto > len_el * 8 {
                let e = ClError::TransferFailed(format!(
                    "reduce gather overflow from rank {src}: {upto} bytes \
                     into a {}-byte segment",
                    len_el * 8
                ));
                return Err((e, cx.now()));
            }
            let base = off_el * 8 + *within;
            host.as_mut_slice()[base..base + r.data.len()].copy_from_slice(&r.data);
            *within = upto;
            got += r.data.len();
        }
        let mut at = cx.now();
        if expect > 0 {
            let end = at + fold_ns(expect);
            let len = host.len() as u64;
            let name = "reduce[gather]".to_string();
            cx.child("dev", name, "reduce", (at, end), len, true);
            at = end;
        }
        Ok(self.store(cx, host, at).await.max(queue.done_at))
    }

    /// Write the final region bytes to the device — buffer store plus one
    /// h2d staging reservation from `at` — and wait out the hop.
    async fn store(&self, cx: &mut OpCx, host: &AlignedBytes, at: SimNs) -> SimNs {
        store(&self.buf, self.offset, host.as_slice());
        let h2d = Hop::H2d.stage(cx, &self.device, host.len(), at);
        cx.inner.clock.sleep_until(h2d.1).await;
        h2d.1
    }
}

impl OpBody for RingReduceBody {
    async fn run(self, cx: &mut OpCx) -> Outcome {
        let now = cx.now();
        if cx.inner.comm.size() == 1 || self.count == 0 {
            // Identity reduction: the local contribution is already the
            // result, in place.
            return self.finish(cx, now);
        }
        let mut host = match self.buf.load(self.offset, self.size()) {
            Ok(host) => host,
            Err(e) => return self.fail(cx, e, now),
        };
        // The d2h load of the local contribution is crossing PCIe.
        let from = now + self.device.spec().pcie.pin_setup_ns;
        let d2h = Hop::D2h.stage(cx, &self.device, self.size(), from);
        cx.inner.clock.sleep_until(d2h.1).await;
        match self.reduce(cx, &mut host).await {
            Ok(done_at) => self.finish(cx, done_at),
            Err((e, at)) => self.fail(cx, e, at),
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
