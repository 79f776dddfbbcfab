//! Structured observability: spans, counters, overlap accounting, and
//! deterministic exporters.
//!
//! The paper's core claims are *timing* claims — Fig. 4's overlap
//! diagrams and the Himeno win only exist as relationships between host,
//! device, and network activity over time. This module turns the
//! engine's raw activity records ([`simtime::Trace`]: plain Gantt spans
//! plus structured [`OpSpan`]s with stable ids and causal parent links)
//! into machine-readable artifacts:
//!
//! * [`ObsSummary`] — per-rank counters (ops submitted/completed/failed,
//!   queue depth, chunk drops/retries, bytes) and a per-rank
//!   **overlap/idle accounting** pass that computes compute-vs-
//!   communication overlap directly from spans, reproducing Fig. 4
//!   quantitatively. Serialized with [`ObsSummary::to_json`]; fingerprint
//!   with [`ObsSummary::hash`].
//! * [`chrome_trace`] — Chrome `trace_events` JSON, loadable in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev): one
//!   process per rank, one thread per lane (`host` / `dev` / `net` /
//!   `gpu*`), `X` duration events for every span, and `s`/`f` flow
//!   events linking each send operation to its matched receive.
//!
//! Everything here is a pure function of the trace contents: two runs
//! with the same seed produce **byte-identical** exports (the repo's
//! determinism tests assert exactly that). No wall clock, no unordered
//! collections, no randomness.

use std::collections::BTreeMap;

/// The stable fingerprint every `*_fnv1a` artifact field is computed with.
pub use simtime::fnv1a;
use simtime::{OpSpan, SimNs, Trace};

use minimpi::DropReason;

use crate::collective::CollAlgo;
use crate::strategy::TransferStrategy;

// ----------------------------------------------------------------------
// Stable op ids
// ----------------------------------------------------------------------

/// Bits reserved for per-op child spans (chunks, retries, stages).
const CHILD_BITS: u64 = 16;
/// Bits reserved for the per-rank operation sequence number.
const SEQ_BITS: u64 = 24;

/// Stable id of the `seq`-th operation submitted by `rank`. Ids are
/// allocated per rank from the submission sequence, so the numbering is
/// a pure function of each rank's program order — never of cross-rank
/// thread interleaving.
pub fn op_id(rank: usize, seq: u64) -> u64 {
    ((rank as u64) << (SEQ_BITS + CHILD_BITS)) | ((seq & ((1 << SEQ_BITS) - 1)) << CHILD_BITS)
}

/// Allocator of child-span ids under one operation id. Owned by the
/// operation's context, so allocation order is the order its body
/// records in — deterministic by the engine's FIFO polling.
#[derive(Debug, Clone, Copy)]
pub struct ChildIds {
    base: u64,
    next: u64,
}

impl ChildIds {
    /// Child-id allocator for the operation `base` (itself from
    /// [`op_id`]).
    pub fn new(base: u64) -> Self {
        ChildIds { base, next: 1 }
    }

    /// The operation's own id.
    pub fn op(&self) -> u64 {
        self.base
    }

    /// Allocate the next child id (saturates inside the op's id block —
    /// a pathological >65k-child op would reuse the last id rather than
    /// collide with a neighbor op).
    pub fn child(&mut self) -> u64 {
        let k = self.next.min((1 << CHILD_BITS) - 1);
        self.next += 1;
        self.base | k
    }
}

// ----------------------------------------------------------------------
// Live per-rank counters
// ----------------------------------------------------------------------

/// Per-(direction, strategy) accumulator of [`ObsCounters::transfers`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrategyStats {
    /// Transfers recorded.
    pub count: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Summed virtual duration (start of execution to completion).
    pub total_ns: SimNs,
}

/// Fault/retry counters ([`ObsCounters::faults`]); all zero on a perfect
/// fabric. Each is bumped by the `OpCx` writer that records the matching
/// child span, so `chunk_drops` / `retries` equal the `drop` / `retry`
/// span counts of [`RankSummary`] by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Wire chunks the sender observed as lost (each may be retried).
    /// Total across every drop reason.
    pub chunk_drops: u64,
    /// Chunks lost to random (Bernoulli) corruption — retryable.
    pub drops_random: u64,
    /// Chunks lost inside a scheduled link-down window — retryable.
    pub drops_link_down: u64,
    /// Chunks lost because an endpoint's node is dead — never retried;
    /// each such drop fails its transfer immediately.
    pub drops_node_down: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Pipelined→pinned degradation switches taken.
    pub degraded: u64,
    /// Transfers that failed permanently (retry budget exhausted or the
    /// receiver timed out).
    pub failures: u64,
    /// Failures classified as a dead peer process (ULFM
    /// `MPI_ERR_PROC_FAILED` class) — a subset of `failures`.
    pub proc_failures: u64,
}

impl FaultStats {
    /// Field-wise sum (aggregating per-rank counters).
    pub fn merge(self, other: FaultStats) -> FaultStats {
        FaultStats {
            chunk_drops: self.chunk_drops + other.chunk_drops,
            drops_random: self.drops_random + other.drops_random,
            drops_link_down: self.drops_link_down + other.drops_link_down,
            drops_node_down: self.drops_node_down + other.drops_node_down,
            retries: self.retries + other.retries,
            degraded: self.degraded + other.degraded,
            failures: self.failures + other.failures,
            proc_failures: self.proc_failures + other.proc_failures,
        }
    }

    pub(crate) fn note_drop(&mut self, reason: DropReason) {
        self.chunk_drops += 1;
        match reason {
            DropReason::Random => self.drops_random += 1,
            DropReason::LinkDown => self.drops_link_down += 1,
            DropReason::NodeDown => self.drops_node_down += 1,
        }
    }
}

/// What carried a recorded transfer: the resolved point-to-point / window
/// strategy or the collective algorithm. `Copy`, so booking a transfer
/// allocates nothing; only [`ObsCounters::transfers`] renders the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Via {
    Strategy(TransferStrategy),
    Algo(CollAlgo),
}

/// Live per-rank counters — the rank's one always-on ledger, maintained
/// by the runtime as operations are submitted, lose chunks and settle.
/// Snapshot via [`crate::ClMpi::obs_counters`]. At quiescent points
/// (after `shutdown`) the values are deterministic; mid-run
/// `max_in_flight` may observe either side of a same-instant
/// submit/settle pair, so the exported summary recomputes queue depth
/// from spans instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Operations submitted to the engine (transfers and interop ops).
    pub submitted: u64,
    /// Operations that settled successfully.
    pub completed: u64,
    /// Operations that settled with an error.
    pub failed: u64,
    /// Maximum observed in-flight operation count (queue depth).
    pub max_in_flight: u64,
    /// Payload bytes of successfully completed sends.
    pub bytes_sent: u64,
    /// Payload bytes of successfully completed receives.
    pub bytes_received: u64,
    /// Chunk losses, retransmissions, degradations and permanent
    /// failures this rank's operations observed.
    pub faults: FaultStats,
    /// Successful transfers per (direction, path) — the audit of which
    /// strategy the automatic selection actually took.
    transfers: BTreeMap<(&'static str, Via), StrategyStats>,
}

impl ObsCounters {
    /// Operations submitted but not yet settled.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed - self.failed
    }

    pub(crate) fn note_submitted(&mut self) {
        self.submitted += 1;
        self.max_in_flight = self.max_in_flight.max(self.in_flight());
    }

    pub(crate) fn note_settled(&mut self, ok: bool, sent: u64, received: u64) {
        if ok {
            self.completed += 1;
            self.bytes_sent += sent;
            self.bytes_received += received;
        } else {
            self.failed += 1;
        }
    }

    /// Book one successful transfer of `bytes` bytes that took `dur_ns`.
    pub(crate) fn note_transfer(
        &mut self,
        direction: &'static str,
        via: Via,
        bytes: usize,
        dur_ns: SimNs,
    ) {
        let e = self.transfers.entry((direction, via)).or_default();
        e.count += 1;
        e.bytes += bytes as u64;
        e.total_ns += dur_ns;
    }

    /// Successful transfers as `(direction, strategy, totals)` rows —
    /// direction is `send` / `recv` / `put` / `get` / `acc` / `bcast` /
    /// `allreduce` / `reduce`, strategy the resolved
    /// [`TransferStrategy::name`] or [`CollAlgo::name`] — sorted by
    /// direction then strategy.
    pub fn transfers(&self) -> Vec<(&'static str, String, StrategyStats)> {
        let mut rows: Vec<_> = self
            .transfers
            .iter()
            .map(|(&(direction, via), &stats)| {
                let strategy = match via {
                    Via::Strategy(s) => s.name(),
                    Via::Algo(a) => a.name().into(),
                };
                (direction, strategy, stats)
            })
            .collect();
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        rows
    }

    /// Render the transfer table, and the fault counters when any is
    /// non-zero.
    pub fn report(&self) -> String {
        let mut out =
            String::from("direction  strategy            count        bytes     avg MB/s\n");
        for (dir, strat, e) in self.transfers() {
            let mbps = if e.total_ns > 0 {
                e.bytes as f64 * 1e3 / e.total_ns as f64
            } else {
                f64::INFINITY
            };
            out.push_str(&format!(
                "{dir:<9}  {strat:<18}  {:>5}  {:>11}  {mbps:>11.1}\n",
                e.count, e.bytes
            ));
        }
        let f = self.faults;
        if f != FaultStats::default() {
            out.push_str(&format!(
                "faults: chunk_drops={} (random={} link_down={} node_down={}) \
                 retries={} degraded={} failures={} proc_failures={}\n",
                f.chunk_drops,
                f.drops_random,
                f.drops_link_down,
                f.drops_node_down,
                f.retries,
                f.degraded,
                f.failures,
                f.proc_failures
            ));
        }
        out
    }
}

// ----------------------------------------------------------------------
// Lane classification and overlap accounting
// ----------------------------------------------------------------------

/// What a lane's busy time counts as in the overlap accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneClass {
    /// Device compute (`r{N}.gpu*` — kernel executions and queue
    /// commands).
    Compute,
    /// Communication (`r{N}.comm` / `r{N}.net` / `r{N}.dev` — network
    /// injections and PCIe staging hops).
    Comm,
    /// Neither (op envelopes on `r{N}.host`, fault annotations).
    Other,
}

/// Parse `r{N}.{kind}` into the owning rank and the accounting class.
fn classify(lane: &str) -> Option<(u32, LaneClass)> {
    let rest = lane.strip_prefix('r')?;
    let dot = rest.find('.')?;
    let rank: u32 = rest[..dot].parse().ok()?;
    let kind = &rest[dot + 1..];
    let class = if kind.starts_with("gpu") {
        LaneClass::Compute
    } else if kind.starts_with("comm") || kind.starts_with("net") || kind.starts_with("dev") {
        LaneClass::Comm
    } else {
        LaneClass::Other
    };
    Some((rank, class))
}

/// Merge intervals into a disjoint sorted union; returns total length.
fn union_len(intervals: &mut Vec<(SimNs, SimNs)>) -> SimNs {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(SimNs, SimNs)> = None;
    let mut merged = Vec::with_capacity(intervals.len());
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some(done) => {
                total += done.1 - done.0;
                merged.push(done);
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some(done) = cur {
        total += done.1 - done.0;
        merged.push(done);
    }
    *intervals = merged;
    total
}

/// Length of the intersection of two *disjoint sorted* interval lists.
fn intersection_len(a: &[(SimNs, SimNs)], b: &[(SimNs, SimNs)]) -> SimNs {
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Per-rank compute/communication overlap accounting (the quantitative
/// Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankOverlap {
    /// The rank.
    pub rank: u32,
    /// Busy time in compute lanes (union, so stacked kernels count once).
    pub compute_ns: SimNs,
    /// Busy time in communication lanes (union).
    pub comm_ns: SimNs,
    /// Time where compute and communication were busy simultaneously.
    pub overlap_ns: SimNs,
    /// Share of communication hidden under compute:
    /// `100 * overlap / comm` (0 when there was no communication).
    pub hidden_pct: f64,
    /// Time inside the report window where the rank was neither
    /// computing nor communicating.
    pub idle_ns: SimNs,
}

/// The overlap accounting of one run: one row per rank plus the common
/// accounting window.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapReport {
    /// Per-rank rows, ordered by rank.
    pub ranks: Vec<RankOverlap>,
    /// Accounting window `[start, end)` — the earliest span start and
    /// latest span end across all classified lanes.
    pub window: (SimNs, SimNs),
}

impl OverlapReport {
    /// Compute the report from raw `(lane, start, end)` intervals. Lanes
    /// that don't parse as `r{N}.{kind}` and `Other`-class lanes are
    /// ignored.
    pub fn from_intervals<'a, I>(intervals: I) -> OverlapReport
    where
        I: IntoIterator<Item = (&'a str, SimNs, SimNs)>,
    {
        // Per rank: (compute intervals, communication intervals).
        type ClassIntervals = (Vec<(SimNs, SimNs)>, Vec<(SimNs, SimNs)>);
        let mut per_rank: BTreeMap<u32, ClassIntervals> = BTreeMap::new();
        let mut window: Option<(SimNs, SimNs)> = None;
        for (lane, start, end) in intervals {
            let Some((rank, class)) = classify(lane) else {
                continue;
            };
            if class == LaneClass::Other {
                continue;
            }
            let w = window.get_or_insert((start, end));
            w.0 = w.0.min(start);
            w.1 = w.1.max(end);
            let entry = per_rank.entry(rank).or_default();
            match class {
                LaneClass::Compute => entry.0.push((start, end)),
                LaneClass::Comm => entry.1.push((start, end)),
                LaneClass::Other => {}
            }
        }
        let window = window.unwrap_or((0, 0));
        let ranks = per_rank
            .into_iter()
            .map(|(rank, (mut compute, mut comm))| {
                let compute_ns = union_len(&mut compute);
                let comm_ns = union_len(&mut comm);
                let overlap_ns = intersection_len(&compute, &comm);
                let hidden_pct = if comm_ns > 0 {
                    100.0 * overlap_ns as f64 / comm_ns as f64
                } else {
                    0.0
                };
                let mut busy: Vec<(SimNs, SimNs)> =
                    compute.iter().chain(comm.iter()).copied().collect();
                let busy_ns = union_len(&mut busy);
                RankOverlap {
                    rank,
                    compute_ns,
                    comm_ns,
                    overlap_ns,
                    hidden_pct,
                    idle_ns: (window.1 - window.0).saturating_sub(busy_ns),
                }
            })
            .collect();
        OverlapReport { ranks, window }
    }

    /// Compute the report from a trace: plain spans and structured op
    /// spans both contribute (intervals covered by both — e.g. the
    /// legacy `r0.comm` d2h bar and the structured `r0.dev` stage span —
    /// are unioned, never double-counted).
    pub fn from_trace(trace: &Trace) -> OverlapReport {
        let spans = trace.spans();
        let ops = trace.ops();
        Self::from_intervals(
            spans
                .iter()
                .map(|s| (s.lane.as_str(), s.start, s.end))
                .chain(ops.iter().map(|o| (o.track.as_str(), o.start, o.end))),
        )
    }

    /// Render a fixed-width text table (the quantitative Fig. 4).
    pub fn render(&self) -> String {
        let mut out =
            String::from("rank   compute_ms      comm_ms   overlap_ms   hidden%      idle_ms\n");
        let ms = |n: SimNs| n as f64 / 1e6;
        for r in &self.ranks {
            out.push_str(&format!(
                "{:>4}  {:>11.3}  {:>11.3}  {:>11.3}  {:>8.2}  {:>11.3}\n",
                r.rank,
                ms(r.compute_ns),
                ms(r.comm_ns),
                ms(r.overlap_ns),
                r.hidden_pct,
                ms(r.idle_ns),
            ));
        }
        out
    }
}

// ----------------------------------------------------------------------
// Machine-readable summary
// ----------------------------------------------------------------------

/// Per-rank counters derived from the structured span store (a pure
/// function of the trace, unlike the live [`ObsCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankSummary {
    /// Top-level operations recorded (`op.*` categories).
    pub ops: u64,
    /// ... of which settled successfully.
    pub ops_ok: u64,
    /// ... of which settled with an error.
    pub ops_failed: u64,
    /// Maximum number of simultaneously in-flight operations (queue
    /// depth), from a sweep over the op envelopes.
    pub max_in_flight: u64,
    /// Wire chunks observed lost by the sender.
    pub chunk_drops: u64,
    /// Retransmissions issued.
    pub chunk_retries: u64,
    /// Payload bytes of successful send-side operations.
    pub bytes_sent: u64,
    /// Payload bytes of successful receive-side operations.
    pub bytes_received: u64,
    /// Payload bytes of successful collective operations (`op.bcast`,
    /// `op.allreduce`, `op.reduce` envelopes). Kept separate from the
    /// point-to-point byte counters: a collective moves each payload byte
    /// across several wire hops, so its envelope bytes are a *logical*
    /// volume, not a wire volume.
    pub coll_bytes: u64,
    /// Payload bytes of successful one-sided operations (`op.put`,
    /// `op.get`, `op.acc` envelopes). Kept apart from the two-sided byte
    /// counters like the collective volume: window traffic bypasses the
    /// matching path, so mixing the totals would hide which transport
    /// carried the bytes.
    pub rma_bytes: u64,
    /// Peer-failure notifications observed (`op.failure` annotations —
    /// dead-peer detections by in-flight ops plus explicit
    /// [`crate::ClMpi::notify_proc_failure`] calls). Recovery
    /// annotations are control-plane records, not operations: they never
    /// count into `ops` / `ops_ok` / `ops_failed` or the queue-depth
    /// sweep.
    pub proc_failures: u64,
    /// Communicator revocations recorded (`op.revoke`).
    pub revokes: u64,
    /// Communicator shrinks recorded (`op.shrink`), successful or not.
    pub shrinks: u64,
    /// Checkpoint restores recorded (`op.restore`), successful or not.
    /// (Checkpoint *writes* are ordinary operations — `op.ckpt` counts
    /// into `ops` — but restores are the recovery path, so they are
    /// tallied here as well as in the op counters.)
    pub restores: u64,
}

/// The compact machine-readable summary of one run: per-rank counters,
/// the overlap accounting, and the trace-health counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSummary {
    /// Per-rank counters, keyed by rank.
    pub ranks: BTreeMap<u32, RankSummary>,
    /// The quantitative Fig. 4.
    pub overlap: OverlapReport,
    /// Spans recorded with reversed endpoints (must be 0; see
    /// [`Trace::reversed_spans`]).
    pub reversed_spans: u64,
    /// Total structured op spans in the trace.
    pub total_ops: u64,
    /// Total plain spans in the trace.
    pub total_spans: u64,
}

impl ObsSummary {
    /// Derive the summary from a trace.
    pub fn from_trace(trace: &Trace) -> ObsSummary {
        let ops = trace.ops();
        let spans = trace.spans();
        let mut ranks: BTreeMap<u32, RankSummary> = BTreeMap::new();
        // Envelope sweep events per rank for queue depth: (t, kind) with
        // ends (0) ordered before starts (1) at equal instants — ops are
        // half-open intervals.
        let mut sweeps: BTreeMap<u32, Vec<(SimNs, u8)>> = BTreeMap::new();
        for o in &ops {
            let r = ranks.entry(o.rank).or_default();
            match o.cat.as_str() {
                "drop" => r.chunk_drops += 1,
                "retry" => r.chunk_retries += 1,
                // Recovery annotations: control-plane records emitted by
                // the runtime without an op submission — tallied apart
                // so `ops` stays reconcilable with the live counters.
                "op.failure" => r.proc_failures += 1,
                "op.revoke" => r.revokes += 1,
                "op.shrink" => r.shrinks += 1,
                cat if cat.starts_with("op.") => {
                    // Restores are real (submitted) operations that are
                    // *also* the recovery path, so they count twice:
                    // once into the op totals below, once here.
                    if cat == "op.restore" {
                        r.restores += 1;
                    }
                    r.ops += 1;
                    if o.ok {
                        r.ops_ok += 1;
                        if cat == "op.send" || cat == "op.isend" {
                            r.bytes_sent += o.bytes;
                        } else if cat == "op.recv" || cat == "op.irecv" {
                            r.bytes_received += o.bytes;
                        } else if cat == "op.bcast" || cat == "op.allreduce" || cat == "op.reduce" {
                            r.coll_bytes += o.bytes;
                        } else if cat == "op.put" || cat == "op.get" || cat == "op.acc" {
                            r.rma_bytes += o.bytes;
                        }
                    } else {
                        r.ops_failed += 1;
                    }
                    // The sweep treats envelopes as half-open [start, end)
                    // intervals (ends sort before starts at equal
                    // instants, so back-to-back ops don't read as
                    // overlapping). A zero-duration envelope — e.g. a
                    // fence that closes at its own submit instant because
                    // every peer already arrived — therefore contributes
                    // no overlap and must be skipped: pushing it would
                    // process its end before its start and underflow the
                    // depth counter.
                    if o.start < o.end {
                        let sweep = sweeps.entry(o.rank).or_default();
                        sweep.push((o.start, 1));
                        sweep.push((o.end, 0));
                    }
                }
                _ => {}
            }
        }
        for (rank, mut events) in sweeps {
            events.sort_unstable();
            let (mut depth, mut max) = (0u64, 0u64);
            for (_, kind) in events {
                if kind == 1 {
                    depth += 1;
                    max = max.max(depth);
                } else {
                    depth -= 1;
                }
            }
            if let Some(r) = ranks.get_mut(&rank) {
                r.max_in_flight = max;
            }
        }
        ObsSummary {
            ranks,
            overlap: OverlapReport::from_trace(trace),
            reversed_spans: trace.reversed_spans(),
            total_ops: ops.len() as u64,
            total_spans: spans.len() as u64,
        }
    }

    /// Serialize as deterministic JSON (stable key order, fixed float
    /// formatting).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"ranks\": {\n");
        let n = self.ranks.len();
        for (i, (rank, r)) in self.ranks.iter().enumerate() {
            out.push_str(&format!(
                "    \"{rank}\": {{ \"ops\": {}, \"ops_ok\": {}, \"ops_failed\": {}, \
                 \"max_in_flight\": {}, \"chunk_drops\": {}, \"chunk_retries\": {}, \
                 \"bytes_sent\": {}, \"bytes_received\": {}, \"coll_bytes\": {}, \
                 \"rma_bytes\": {}, \"proc_failures\": {}, \"revokes\": {}, \"shrinks\": {}, \
                 \"restores\": {} }}{}\n",
                r.ops,
                r.ops_ok,
                r.ops_failed,
                r.max_in_flight,
                r.chunk_drops,
                r.chunk_retries,
                r.bytes_sent,
                r.bytes_received,
                r.coll_bytes,
                r.rma_bytes,
                r.proc_failures,
                r.revokes,
                r.shrinks,
                r.restores,
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"overlap\": {\n");
        out.push_str(&format!(
            "    \"window_ns\": [{}, {}],\n    \"ranks\": [\n",
            self.overlap.window.0, self.overlap.window.1
        ));
        let n = self.overlap.ranks.len();
        for (i, r) in self.overlap.ranks.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"rank\": {}, \"compute_ns\": {}, \"comm_ns\": {}, \
                 \"overlap_ns\": {}, \"hidden_pct\": {:.4}, \"idle_ns\": {} }}{}\n",
                r.rank,
                r.compute_ns,
                r.comm_ns,
                r.overlap_ns,
                r.hidden_pct,
                r.idle_ns,
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("    ]\n  },\n");
        out.push_str(&format!(
            "  \"reversed_spans\": {},\n  \"total_ops\": {},\n  \"total_spans\": {}\n}}\n",
            self.reversed_spans, self.total_ops, self.total_spans
        ));
        out
    }

    /// FNV-1a fingerprint of the serialized summary — the value the
    /// 16-seed determinism tests compare across runs.
    pub fn hash(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }
}

// ----------------------------------------------------------------------
// Chrome trace_events exporter
// ----------------------------------------------------------------------

/// Escape a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microsecond timestamp with nanosecond precision, formatted
/// deterministically.
fn us(ns: SimNs) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// `(pid, sort key)` of a lane: ranked lanes map to their rank,
/// rank-less lanes (e.g. `net.fault`) to a shared trailing process.
fn lane_pid(lane: &str) -> u32 {
    classify(lane).map(|(r, _)| r).unwrap_or(u32::MAX)
}

/// Export the whole trace — plain Gantt spans and structured op spans —
/// as Chrome `trace_events` JSON, loadable in `chrome://tracing` or
/// Perfetto.
///
/// Layout: one *process* per rank (`rank N`), one *thread* per lane
/// (`rN.host`, `rN.gpu*`, `rN.dev`, `rN.net`, …). Every span becomes an
/// `X` (complete) event; op spans carry their stable `id`, `parent`
/// link, byte count and outcome in `args`. Each send operation is
/// causally linked to its matched receive with a `s`/`f` flow-event
/// pair, matched deterministically by `(src, dst, tag)` flow order.
///
/// The output is a pure function of the trace: same seed, same bytes.
pub fn chrome_trace(trace: &Trace) -> String {
    let spans = trace.spans();
    let ops = trace.ops();

    // Deterministic lane table: sorted by (pid, name); tids assigned in
    // that order, globally unique so Perfetto never merges lanes.
    let mut lanes: Vec<String> = Vec::new();
    for s in &spans {
        if !lanes.contains(&s.lane) {
            lanes.push(s.lane.clone());
        }
    }
    for o in &ops {
        if !lanes.contains(&o.track) {
            lanes.push(o.track.clone());
        }
    }
    lanes.sort_by(|a, b| lane_pid(a).cmp(&lane_pid(b)).then(a.cmp(b)));
    let tid_of = |lane: &str| -> usize { lanes.iter().position(|l| l == lane).unwrap_or(0) };

    let mut ev: Vec<String> = Vec::new();
    for (tid, lane) in lanes.iter().enumerate() {
        let pid = lane_pid(lane);
        let pname = if pid == u32::MAX {
            "fabric".to_string()
        } else {
            format!("rank {pid}")
        };
        ev.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(&pname)
        ));
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(lane)
        ));
    }

    // Plain spans: anonymous X events. Sorted order from Trace::spans()
    // plus full-content ties makes the output order deterministic.
    for s in &spans {
        ev.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{},\"dur\":{}}}",
            esc(&s.label),
            lane_pid(&s.lane),
            tid_of(&s.lane),
            us(s.start),
            us(s.end - s.start),
        ));
    }

    // Structured op spans: X events with identity args.
    for o in &ops {
        let mut args = format!("\"id\":{},\"bytes\":{},\"ok\":{}", o.id, o.bytes, o.ok);
        if let Some(p) = o.parent {
            args.push_str(&format!(",\"parent\":{p}"));
        }
        if let Some(p) = o.peer {
            args.push_str(&format!(",\"peer\":{p}"));
        }
        if let Some(t) = o.tag {
            args.push_str(&format!(",\"tag\":{t}"));
        }
        ev.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            esc(&o.name),
            esc(&o.cat),
            o.rank,
            tid_of(&o.track),
            us(o.start),
            us(o.end - o.start),
        ));
    }

    // Causal send→recv flow links: k-th send of flow (src, dst, tag)
    // pairs with the k-th recv of the same flow — both sides ordered by
    // their per-rank ids, which follow program order.
    let mut sends: BTreeMap<(u32, u32, i32), Vec<&OpSpan>> = BTreeMap::new();
    let mut recvs: BTreeMap<(u32, u32, i32), Vec<&OpSpan>> = BTreeMap::new();
    for o in &ops {
        let (Some(peer), Some(tag)) = (o.peer, o.tag) else {
            continue;
        };
        match o.cat.as_str() {
            "op.send" | "op.isend" => sends.entry((o.rank, peer, tag)).or_default().push(o),
            "op.recv" | "op.irecv" => recvs.entry((peer, o.rank, tag)).or_default().push(o),
            _ => {}
        }
    }
    let mut flow = 0u64;
    for (key, ss) in &sends {
        let Some(rr) = recvs.get(key) else { continue };
        for (s, r) in ss.iter().zip(rr.iter()) {
            flow += 1;
            ev.push(format!(
                "{{\"name\":\"xfer\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{flow},\
                 \"pid\":{},\"tid\":{},\"ts\":{}}}",
                s.rank,
                tid_of(&s.track),
                us(s.start),
            ));
            ev.push(format!(
                "{{\"name\":\"xfer\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{flow},\
                 \"pid\":{},\"tid\":{},\"ts\":{}}}",
                r.rank,
                tid_of(&r.track),
                us(r.end.max(s.start)),
            ));
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

// ----------------------------------------------------------------------
// Minimal JSON validator (zero-dependency acceptance check)
// ----------------------------------------------------------------------

/// Validate that `s` is one well-formed JSON value. The workspace has no
/// serde; this hand-rolled recursive-descent checker is what the
/// exporter tests (and external consumers of `BENCH_*.json`) rely on to
/// prove the hand-written JSON stays syntactically valid.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = skip_ws(b, 0);
    pos = value(b, pos)?;
    pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn value(b: &[u8], pos: usize) -> Result<usize, String> {
    match b.get(pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, b"true"),
        Some(b'f') => literal(b, pos, b"false"),
        Some(b'n') => literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#x} at {pos}")),
        None => Err(format!("unexpected end of input at {pos}")),
    }
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, String> {
    if b.len() >= pos + lit.len() && &b[pos..pos + lit.len()] == lit {
        Ok(pos + lit.len())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, String> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let digits = |b: &[u8], mut p: usize| {
        let s = p;
        while p < b.len() && b[p].is_ascii_digit() {
            p += 1;
        }
        (p, p > s)
    };
    let (p, any) = digits(b, pos);
    if !any {
        return Err(format!("bad number at byte {start}"));
    }
    pos = p;
    if b.get(pos) == Some(&b'.') {
        let (p, any) = digits(b, pos + 1);
        if !any {
            return Err(format!("bad fraction at byte {pos}"));
        }
        pos = p;
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        let mut p = pos + 1;
        if matches!(b.get(p), Some(b'+' | b'-')) {
            p += 1;
        }
        let (p, any) = digits(b, p);
        if !any {
            return Err(format!("bad exponent at byte {pos}"));
        }
        pos = p;
    }
    Ok(pos)
}

fn string(b: &[u8], mut pos: usize) -> Result<usize, String> {
    pos += 1; // opening quote
    while pos < b.len() {
        match b[pos] {
            b'"' => return Ok(pos + 1),
            b'\\' => {
                match b.get(pos + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 2,
                    Some(b'u') => {
                        if pos + 6 > b.len()
                            || !b[pos + 2..pos + 6].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        pos += 6;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                };
            }
            c if c < 0x20 => return Err(format!("raw control byte {c:#x} in string at {pos}")),
            _ => pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn object(b: &[u8], mut pos: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos + 1);
    if b.get(pos) == Some(&b'}') {
        return Ok(pos + 1);
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        pos = string(b, pos)?;
        pos = skip_ws(b, pos);
        if b.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        pos = value(b, skip_ws(b, pos + 1))?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b'}') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], mut pos: usize) -> Result<usize, String> {
    pos = skip_ws(b, pos + 1);
    if b.get(pos) == Some(&b']') {
        return Ok(pos + 1);
    }
    loop {
        pos = value(b, pos)?;
        pos = skip_ws(b, pos);
        match b.get(pos) {
            Some(b',') => pos = skip_ws(b, pos + 1),
            Some(b']') => return Ok(pos + 1),
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Trace;

    fn op(id: u64, track: &str, cat: &str, start: SimNs, end: SimNs) -> OpSpan {
        OpSpan {
            id,
            parent: None,
            rank: classify(track).map(|(r, _)| r).unwrap_or(0),
            track: track.into(),
            name: format!("op{id}"),
            cat: cat.into(),
            start,
            end,
            bytes: 0,
            ok: true,
            peer: None,
            tag: None,
        }
    }

    #[test]
    fn op_ids_are_disjoint_across_ranks_and_seqs() {
        let a = op_id(0, 0);
        let b = op_id(0, 1);
        let c = op_id(1, 0);
        assert!(a < b && b < c);
        let mut kids = ChildIds::new(a);
        assert_eq!(kids.op(), a);
        let k1 = kids.child();
        let k2 = kids.child();
        assert!(k1 > a && k2 > k1 && k2 < b, "children stay in the block");
    }

    #[test]
    fn lane_classification_parses_rank_and_kind() {
        assert_eq!(classify("r3.gpu0"), Some((3, LaneClass::Compute)));
        assert_eq!(classify("r0.comm"), Some((0, LaneClass::Comm)));
        assert_eq!(classify("r12.net"), Some((12, LaneClass::Comm)));
        assert_eq!(classify("r1.dev"), Some((1, LaneClass::Comm)));
        assert_eq!(classify("r1.host"), Some((1, LaneClass::Other)));
        assert_eq!(classify("r1.fault"), Some((1, LaneClass::Other)));
        assert_eq!(classify("net.fault"), None);
    }

    #[test]
    fn overlap_accounting_on_known_spans() {
        // Compute [0,100), comm [50,150): comm=100, overlap=50 → 50%
        // hidden; window [0,150), busy [0,150) → idle 0.
        let report = OverlapReport::from_intervals([
            ("r0.gpu", 0, 100),
            ("r0.comm", 50, 150),
            // Second rank: fully hidden communication + idle tail.
            ("r1.gpu", 0, 100),
            ("r1.net", 20, 60),
        ]);
        assert_eq!(report.window, (0, 150));
        let r0 = report.ranks[0];
        assert_eq!(
            (r0.compute_ns, r0.comm_ns, r0.overlap_ns, r0.idle_ns),
            (100, 100, 50, 0)
        );
        assert!((r0.hidden_pct - 50.0).abs() < 1e-9);
        let r1 = report.ranks[1];
        assert_eq!(
            (r1.compute_ns, r1.comm_ns, r1.overlap_ns, r1.idle_ns),
            (100, 40, 40, 50)
        );
        assert!((r1.hidden_pct - 100.0).abs() < 1e-9);
        let table = report.render();
        assert!(table.contains("hidden%"));
        assert!(table.contains("100.00"));
    }

    #[test]
    fn overlap_unions_duplicate_cover() {
        // The same interval recorded on the legacy comm lane AND the
        // structured dev track must count once.
        let report = OverlapReport::from_intervals([
            ("r0.comm", 10, 20),
            ("r0.dev", 10, 20),
            ("r0.gpu", 0, 5),
        ]);
        assert_eq!(report.ranks[0].comm_ns, 10);
        assert_eq!(report.ranks[0].overlap_ns, 0);
    }

    #[test]
    fn overlap_zero_comm_reports_zero_pct() {
        let report = OverlapReport::from_intervals([("r0.gpu", 0, 10)]);
        assert_eq!(report.ranks[0].hidden_pct, 0.0);
    }

    #[test]
    fn summary_counts_ops_drops_retries_and_depth() {
        let t = Trace::new();
        let mut send = op(op_id(0, 0), "r0.host", "op.send", 0, 100);
        send.bytes = 64;
        send.peer = Some(1);
        send.tag = Some(7);
        t.record_op(send);
        let mut fail = op(op_id(0, 1), "r0.host", "op.send", 10, 50);
        fail.ok = false;
        t.record_op(fail);
        t.record_op(op(op_id(0, 0) | 1, "r0.net", "drop", 20, 20));
        t.record_op(op(op_id(0, 0) | 2, "r0.net", "retry", 20, 30));
        let mut recv = op(op_id(1, 0), "r1.host", "op.recv", 0, 120);
        recv.bytes = 64;
        recv.peer = Some(0);
        recv.tag = Some(7);
        t.record_op(recv);
        let mut bcast = op(op_id(1, 1), "r1.host", "op.bcast", 130, 200);
        bcast.bytes = 256;
        t.record_op(bcast);
        let s = ObsSummary::from_trace(&t);
        let r0 = s.ranks[&0];
        assert_eq!((r0.ops, r0.ops_ok, r0.ops_failed), (2, 1, 1));
        assert_eq!((r0.chunk_drops, r0.chunk_retries), (1, 1));
        assert_eq!(r0.bytes_sent, 64);
        assert_eq!(r0.max_in_flight, 2, "two ops overlap in [10,50)");
        let r1 = s.ranks[&1];
        assert_eq!(r1.bytes_received, 64);
        assert_eq!(r1.coll_bytes, 256, "collective envelopes count apart");
        assert_eq!(r1.bytes_sent, 0, "bcast bytes never alias p2p bytes");
        assert_eq!(r1.max_in_flight, 1);
        let mut put = op(op_id(1, 2), "r1.host", "op.put", 210, 260);
        put.bytes = 512;
        put.peer = Some(0);
        t.record_op(put);
        let s = ObsSummary::from_trace(&t);
        let r1 = s.ranks[&1];
        assert_eq!(r1.rma_bytes, 512, "one-sided envelopes count apart");
        assert_eq!(r1.bytes_sent, 0, "put bytes never alias p2p bytes");
        assert!(s.to_json().contains("\"rma_bytes\": 512"));
        assert_eq!(s.total_ops, 7);
        // The serialized summary is valid JSON and hashes stably.
        validate_json(&s.to_json()).unwrap();
        assert_eq!(s.hash(), ObsSummary::from_trace(&t).hash());
    }

    #[test]
    fn summary_tallies_recovery_annotations_apart_from_ops() {
        let t = Trace::new();
        // One ordinary op, then a failure/revoke/shrink trio (control
        // plane: outside the op totals) and a restore (a real op that is
        // also tallied as recovery).
        t.record_op(op(op_id(0, 0), "r0.host", "op.send", 0, 100));
        let mut fail = op(op_id(0, 1), "r0.host", "op.failure", 40, 40);
        fail.ok = false;
        t.record_op(fail);
        t.record_op(op(op_id(0, 2), "r0.host", "op.revoke", 50, 50));
        t.record_op(op(op_id(0, 3), "r0.host", "op.shrink", 50, 90));
        t.record_op(op(op_id(0, 4), "r0.host", "op.restore", 100, 140));
        let s = ObsSummary::from_trace(&t);
        let r0 = s.ranks[&0];
        assert_eq!((r0.proc_failures, r0.revokes, r0.shrinks), (1, 1, 1));
        assert_eq!(r0.restores, 1);
        assert_eq!((r0.ops, r0.ops_ok), (2, 2), "send + restore only");
        let json = s.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"proc_failures\": 1"));
        assert!(json.contains("\"restores\": 1"));
    }

    #[test]
    fn summary_exposes_reversed_spans() {
        let t = Trace::new();
        t.record("r0.gpu", "k", 50, 10); // reversed!
        let s = ObsSummary::from_trace(&t);
        assert_eq!(s.reversed_spans, 1);
        assert!(s.to_json().contains("\"reversed_spans\": 1"));
    }

    #[test]
    fn chrome_trace_exports_lanes_events_and_flows() {
        let t = Trace::new();
        t.record("r0.gpu", "kernel", 0, 50);
        let mut send = op(op_id(0, 0), "r0.host", "op.send", 0, 100);
        send.peer = Some(1);
        send.tag = Some(7);
        send.bytes = 1024;
        t.record_op(send);
        t.record_op(op(op_id(0, 0) | 1, "r0.net", "chunk", 10, 90));
        t.record_op(op(op_id(0, 0) | 2, "r0.dev", "stage.d2h", 0, 10));
        let mut recv = op(op_id(1, 0), "r1.host", "op.recv", 5, 120);
        recv.peer = Some(0);
        recv.tag = Some(7);
        t.record_op(recv);
        let json = chrome_trace(&t);
        validate_json(&json).unwrap();
        for lane in ["r0.host", "r0.net", "r0.dev", "r1.host", "r0.gpu"] {
            assert!(json.contains(&format!("\"name\":\"{lane}\"")), "{lane}");
        }
        assert!(json.contains("\"ph\":\"s\""), "flow source event");
        assert!(json.contains("\"ph\":\"f\""), "flow target event");
        assert!(json.contains("\"cat\":\"op.send\""));
        assert!(json.contains("\"cat\":\"op.recv\""));
        // Deterministic: exporting twice gives identical bytes.
        assert_eq!(json, chrome_trace(&t));
    }

    #[test]
    fn chrome_timestamps_are_sub_microsecond_exact() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_234_567), "1234.567");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5, -3e4, true, null, \"x\\n\"]}").unwrap();
        validate_json("[]").unwrap();
        validate_json("{}").unwrap();
        assert!(validate_json("{").is_err());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("01abc").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{} trailing").is_err());
    }

    #[test]
    fn live_counters_track_inflight_and_depth() {
        let mut c = ObsCounters::default();
        c.note_submitted();
        c.note_submitted();
        assert_eq!(c.in_flight(), 2);
        assert_eq!(c.max_in_flight, 2);
        c.note_settled(true, 100, 0);
        c.note_submitted();
        c.note_settled(false, 0, 0);
        c.note_settled(true, 0, 50);
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.max_in_flight, 2);
        assert_eq!((c.completed, c.failed), (2, 1));
        assert_eq!((c.bytes_sent, c.bytes_received), (100, 50));
    }

    #[test]
    fn transfer_table_aggregates_per_direction_and_path_and_renders_sorted() {
        let mut c = ObsCounters::default();
        let piped = Via::Strategy(TransferStrategy::Pipelined(4 << 20));
        c.note_transfer("send", piped, 4 << 20, 4_000_000);
        c.note_transfer(
            "send",
            Via::Strategy(TransferStrategy::Pinned),
            1000,
            10_000,
        );
        c.note_transfer(
            "send",
            Via::Strategy(TransferStrategy::Pinned),
            3000,
            30_000,
        );
        c.note_transfer("recv", Via::Strategy(TransferStrategy::Mapped), 500, 5_000);
        c.note_transfer("bcast", Via::Algo(CollAlgo::Ring), 64, 0);
        let rows = c.transfers();
        let keys: Vec<_> = rows.iter().map(|(d, s, _)| (*d, s.as_str())).collect();
        assert_eq!(
            keys,
            [
                ("bcast", "ring"),
                ("recv", "mapped"),
                ("send", "pinned"),
                ("send", "pipelined(4M)")
            ]
        );
        let pinned = rows[2].2;
        assert_eq!(
            (pinned.count, pinned.bytes, pinned.total_ns),
            (2, 4000, 40_000)
        );
        assert_eq!(rows.iter().map(|r| r.2.count).sum::<u64>(), 5);
        let report = c.report();
        assert!(report.contains("send       pipelined(4M)"), "{report}");
        assert!(!report.contains("faults:"), "no fault line on a clean run");
    }

    #[test]
    fn fault_counters_accumulate_merge_and_render() {
        let mut c = ObsCounters::default();
        c.faults.note_drop(DropReason::Random);
        c.faults.note_drop(DropReason::NodeDown);
        c.faults.retries += 1;
        let f = c.faults;
        assert_eq!(
            (
                f.chunk_drops,
                f.drops_random,
                f.drops_link_down,
                f.drops_node_down
            ),
            (2, 1, 0, 1)
        );
        assert!(c.report().contains("chunk_drops=2"));
        assert!(c.report().contains("node_down=1"));
        let merged = f.merge(f);
        assert_eq!((merged.chunk_drops, merged.retries), (4, 2));
    }
}
