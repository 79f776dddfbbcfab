//! Cluster topology: nodes with per-direction NIC timelines over a shared
//! fabric spec, with presets for the paper's two systems (Table I).

use std::sync::{Arc, Weak};

use crate::arbiter::DeferredArbiter;
use crate::fault::{DropReason, FaultInjector, FaultOutcome, FaultPlan};
use crate::link::{reserve_pair, Link, LinkSpec, Reservation};
use simtime::{SimClock, SimNs, WakeKey};

/// Index of a node within a cluster.
pub type NodeId = usize;

/// Optional CXL shared-memory pool attached to groups of nodes (cMPI's
/// third fabric class): consecutive groups of `pool_nodes` nodes share one
/// load/store memory pool with its own latency/bandwidth point.
///
/// One-sided (RMA) traffic between two nodes of the same pool bypasses the
/// NIC entirely and serializes on the pool's single shared timeline — the
/// per-pool contention point. Two-sided traffic and cross-pool RMA still
/// ride the NIC.
#[derive(Debug, Clone, Copy)]
pub struct CxlSpec {
    /// Nodes per pool; node `i` belongs to pool `i / pool_nodes`.
    pub pool_nodes: usize,
    /// Cost model of the pool's load/store port (shared by all members).
    pub link: LinkSpec,
}

/// Which transport a given `(src, dst)` node pair uses for one-sided
/// traffic (see [`Fabric::fabric_class`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricClass {
    /// Same node: shared-memory loopback.
    Loopback,
    /// Different nodes, no common CXL pool: NIC tx/rx timelines.
    Nic,
    /// Different nodes sharing CXL pool `.0`: pool load/store port.
    Cxl(usize),
}

/// Static description of a cluster (Table I row).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Human-readable system name ("Cichlid", "RICC").
    pub name: &'static str,
    /// Number of compute nodes available.
    pub nodes: usize,
    /// CPU model string (Table I, documentation only).
    pub cpu: &'static str,
    /// GPU model string (Table I; the matching `minicl` device preset is
    /// selected by the system config in the `clmpi` crate).
    pub gpu: &'static str,
    /// Interconnect name (Table I).
    pub nic: &'static str,
    /// MPI implementation string (Table I, documentation only).
    pub mpi: &'static str,
    /// Cost model of the interconnect, one direction per NIC.
    pub link: LinkSpec,
    /// Optional CXL shared-memory pools (None on the Table I systems).
    pub cxl: Option<CxlSpec>,
}

impl ClusterSpec {
    /// "Cichlid": 4 nodes, Core i7 930 + Tesla C2070, Gigabit Ethernet.
    ///
    /// GbE sustains ~117 MB/s with TCP; measured half-round-trip latencies
    /// on such clusters are tens of microseconds.
    pub fn cichlid() -> Self {
        ClusterSpec {
            name: "Cichlid",
            nodes: 4,
            cpu: "Intel Core i7 930 (2.8 GHz)",
            gpu: "NVIDIA Tesla C2070",
            nic: "Gigabit Ethernet",
            mpi: "Open MPI 1.6.0",
            link: LinkSpec {
                latency_ns: 50_000,          // ~50 us TCP/GbE
                bandwidth_bps: 117.5e6,      // ~117.5 MB/s sustained
                per_msg_overhead_ns: 30_000, // per-message software cost
            },
            cxl: None,
        }
    }

    /// "RICC": 100 nodes, 2x Xeon 5570 + Tesla C1060, InfiniBand DDR used
    /// through IPoIB (the paper runs IPoIB for thread-safety with Open
    /// MPI), which caps sustained bandwidth well below native IB verbs.
    pub fn ricc() -> Self {
        ClusterSpec {
            name: "RICC",
            nodes: 100,
            cpu: "2x Intel Xeon 5570 (2.93 GHz)",
            gpu: "NVIDIA Tesla C1060",
            nic: "InfiniBand DDR (IPoIB)",
            mpi: "Open MPI 1.6.1",
            link: LinkSpec {
                latency_ns: 25_000,    // IPoIB adds software latency
                bandwidth_bps: 1.30e9, // ~1.3 GB/s over IPoIB
                // IPoIB + MPI_THREAD_MULTIPLE pays a hefty per-message
                // software cost (TCP stack over IB, MPI locking); this is
                // the overhead the pipelined strategy's block size trades
                // against (Fig. 8(b)).
                per_msg_overhead_ns: 40_000,
            },
            cxl: None,
        }
    }

    /// "CXL pod": 16 nodes in pools of 4 sharing a CXL 2.0 memory pool
    /// (cMPI's evaluation fabric), with a RoCE NIC between pools.
    ///
    /// The pool port models a x8 CXL link: sub-microsecond load/store
    /// latency and ~28 GB/s sustained, but *one* port per pool — every
    /// window transfer inside a pool contends on the same timeline. The
    /// NIC is an order of magnitude slower per byte, which is the gap the
    /// one-sided RMA path exists to exploit (BENCH_rma.json).
    pub fn cxl_pod() -> Self {
        ClusterSpec {
            name: "CXL-Pod",
            nodes: 16,
            cpu: "2x AMD EPYC 9334 (2.7 GHz)",
            gpu: "NVIDIA A30",
            nic: "100GbE (RoCE v2)",
            mpi: "cMPI prototype",
            link: LinkSpec {
                latency_ns: 10_000,   // kernel-bypass RoCE
                bandwidth_bps: 3.0e9, // ~3 GB/s sustained per NIC
                per_msg_overhead_ns: 8_000,
            },
            cxl: Some(CxlSpec {
                pool_nodes: 4,
                link: LinkSpec {
                    latency_ns: 600,          // CXL.mem load/store
                    bandwidth_bps: 28.0e9,    // x8 CXL 2.0 port
                    per_msg_overhead_ns: 400, // doorbell + coherence
                },
            }),
        }
    }

    /// All cluster presets (Table I rows plus the CXL pod).
    pub fn presets() -> Vec<ClusterSpec> {
        vec![Self::cichlid(), Self::ricc(), Self::cxl_pod()]
    }

    /// CXL pool id of `node`, if this spec attaches pools.
    pub fn pool_of(&self, node: NodeId) -> Option<usize> {
        self.cxl.map(|c| node / c.pool_nodes.max(1))
    }
}

/// Live fabric: per-node tx/rx timelines sharing one [`LinkSpec`].
///
/// A transfer from `a` to `b` serializes on `a`'s tx timeline **and** `b`'s
/// rx timeline (full-duplex NICs: a node can send and receive
/// concurrently, but two sends from one node queue up, as do two receives
/// into one node — this is what makes the nanopowder coefficient
/// distribution cost grow with node count, Fig. 10).
pub struct Fabric {
    spec: ClusterSpec,
    tx: Vec<Link>,
    rx: Vec<Link>,
    /// One shared load/store timeline per CXL pool (empty without a
    /// [`CxlSpec`]): the per-pool contention point for one-sided traffic.
    pools: Vec<Link>,
    /// The plan the injectors run under (kept even when trivial, so
    /// higher layers can query node-down schedules cheaply).
    plan: FaultPlan,
    /// One fault injector per source node's tx link (None: perfect fabric,
    /// zero overhead on the hot path).
    faults: Option<Vec<FaultInjector>>,
    /// The key of the alarms announcing the plan's kill and restart
    /// instants (None: the plan kills no node).
    kills: Option<WakeKey>,
    /// Deferred-reservation arbiter (see [`Fabric::reserve_deferred`]).
    /// Same-instant jobs sort by `(src, dst, tag)`: one node's engine and
    /// app threads may post same-instant jobs to the same peer, and their
    /// flows (distinct tags) must not be ordered by which OS thread won.
    defer: Arc<DeferredArbiter<(NodeId, NodeId, i32), DeferredSend>>,
}

/// How much link time a deferred reservation claims.
enum DeferSize {
    /// Payload bytes at the raw link rate.
    Bytes(usize),
    /// An explicit window (see [`Fabric::reserve_duration`]).
    Duration(SimNs),
    /// Payload bytes routed per node-pair fabric class (see
    /// [`Fabric::reserve_rma`]).
    RmaBytes(usize),
}

/// A reservation posted to the arbiter: what to claim and the completion
/// to run once granted.
type DeferredSend = (DeferSize, Box<dyn FnOnce(Reservation) + Send>);

impl Fabric {
    /// Build a fabric for the first `nodes` nodes of `spec`.
    pub fn new(clock: SimClock, spec: ClusterSpec, nodes: usize) -> Arc<Self> {
        Self::with_faults(clock, spec, nodes, FaultPlan::none())
    }

    /// Build a fabric whose links run under `plan`. A [`FaultPlan::none`]
    /// plan attaches no injectors and behaves bit-identically to
    /// [`Fabric::new`].
    pub fn with_faults(
        clock: SimClock,
        spec: ClusterSpec,
        nodes: usize,
        plan: FaultPlan,
    ) -> Arc<Self> {
        assert!(nodes >= 1, "fabric needs at least one node");
        assert!(
            nodes <= spec.nodes,
            "{} has only {} nodes, {} requested",
            spec.name,
            spec.nodes,
            nodes
        );
        let tx = (0..nodes)
            .map(|_| Link::new(clock.clone(), spec.link))
            .collect();
        let rx = (0..nodes)
            .map(|_| Link::new(clock.clone(), spec.link))
            .collect();
        let pools = match spec.cxl {
            Some(c) => {
                let n = nodes.div_ceil(c.pool_nodes.max(1));
                (0..n).map(|_| Link::new(clock.clone(), c.link)).collect()
            }
            None => Vec::new(),
        };
        let faults = (!plan.is_none()).then(|| {
            (0..nodes)
                .map(|i| FaultInjector::new(plan.clone(), i as u64))
                .collect()
        });
        // A kill or a restart is an event: each window's `from` and finite
        // `until` is announced by an alarm on a key of the plan's own.
        let kills = (!plan.node_down.is_empty()).then(|| {
            let key = clock.new_key();
            for w in &plan.node_down {
                clock.schedule_alarm_keyed(w.from, key);
                if w.until != SimNs::MAX {
                    clock.schedule_alarm_keyed(w.until, key);
                }
            }
            key
        });
        // The grants claim this fabric's own timelines; a job still queued
        // when the fabric is dropped is never granted.
        Arc::new_cyclic(|me: &Weak<Fabric>| {
            let me = me.clone();
            let grant = move |earliest, (src, dst, _): (NodeId, NodeId, i32), job| {
                let (size, complete): DeferredSend = job;
                let Some(f) = me.upgrade() else { return };
                complete(match size {
                    DeferSize::Bytes(b) => f.reserve(src, dst, b, earliest),
                    DeferSize::Duration(d) => f.reserve_duration(src, dst, d, earliest),
                    DeferSize::RmaBytes(b) => f.reserve_rma(src, dst, b, earliest),
                });
            };
            Fabric {
                defer: DeferredArbiter::new(clock, grant),
                spec,
                tx,
                rx,
                pools,
                plan,
                faults,
                kills,
            }
        })
    }

    /// The static description this fabric was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of nodes wired up.
    pub fn nodes(&self) -> usize {
        self.tx.len()
    }

    /// True if a non-trivial fault plan is attached.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The fault plan this fabric runs under ([`FaultPlan::none`] on a
    /// perfect fabric).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if `node` is scheduled dead at virtual instant `t` (the
    /// deterministic ground truth higher layers classify timeouts with).
    ///
    /// The answer for `t = now` flips only at a window's `from` or
    /// `until`, and [`Fabric::with_faults`] scheduled an alarm on the
    /// plan's key at each of them: the asker notes that key, so a machine
    /// parked on the answer is stepped again exactly at the instant it
    /// flips. Worlds without kills allocate no key and note nothing.
    pub fn node_down_at(&self, node: NodeId, t: SimNs) -> bool {
        if let Some(key) = self.kills {
            simtime::note_read(key);
        }
        self.plan.node_down_at(node, t)
    }

    /// True if `node` is scheduled dead at any instant of `[from, until)`.
    pub fn node_down_in(&self, node: NodeId, from: SimNs, until: SimNs) -> bool {
        self.plan.node_down_in(node, from, until)
    }

    /// Transport class of the `(src, dst)` node pair for one-sided
    /// traffic: loopback on the same node, the shared CXL pool port when
    /// both nodes sit in the same pool, the NIC otherwise.
    pub fn fabric_class(&self, src: NodeId, dst: NodeId) -> FabricClass {
        if src == dst {
            return FabricClass::Loopback;
        }
        match (self.spec.pool_of(src), self.spec.pool_of(dst)) {
            (Some(a), Some(b)) if a == b && a < self.pools.len() => FabricClass::Cxl(a),
            _ => FabricClass::Nic,
        }
    }

    /// Decide the fate of a one-sided transfer of flow `(src, dst, tag)`.
    ///
    /// The CXL load/store path has no packets to drop: random-drop and
    /// link-jitter faults do not apply, but a scheduled node death still
    /// does — a window op touching a dead node's memory fails with
    /// [`DropReason::NodeDown`]. NIC-routed pairs compose with the full
    /// [`FaultPlan`] exactly like two-sided traffic.
    pub fn rma_fault_decision(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: i32,
        start: SimNs,
    ) -> FaultOutcome {
        match self.fabric_class(src, dst) {
            FabricClass::Cxl(_) => {
                if self.plan.node_down_at(src, start) || self.plan.node_down_at(dst, start) {
                    FaultOutcome::Drop(DropReason::NodeDown)
                } else {
                    FaultOutcome::Deliver {
                        extra_latency_ns: 0,
                    }
                }
            }
            _ => self.fault_decision(src, dst, tag, start),
        }
    }

    /// Decide the fate of the next message of flow `(src, dst, tag)` whose
    /// injection starts at `start`. Loopback (src == dst) traffic and
    /// fault-free fabrics always deliver cleanly.
    pub fn fault_decision(&self, src: NodeId, dst: NodeId, tag: i32, start: SimNs) -> FaultOutcome {
        match &self.faults {
            Some(inj) if src != dst => inj[src].decide(src, dst, tag, start),
            _ => FaultOutcome::Deliver {
                extra_latency_ns: 0,
            },
        }
    }

    /// Aggregate fault counters across every link (zeroes when no plan is
    /// attached).
    pub fn fault_counts(&self) -> crate::fault::FaultCounts {
        let mut total = crate::fault::FaultCounts::default();
        if let Some(inj) = &self.faults {
            for i in inj {
                let c = i.counts();
                total.delivered += c.delivered;
                total.dropped_random += c.dropped_random;
                total.dropped_down += c.dropped_down;
                total.dropped_node += c.dropped_node;
                total.jitter_ns_total += c.jitter_ns_total;
            }
        }
        total
    }

    /// Reserve an inter-node transfer of `bytes` from `src` to `dst`,
    /// starting no earlier than `earliest`. Intra-node transfers (src ==
    /// dst) pay a fast loopback: no NIC occupancy, small fixed latency.
    pub fn reserve(&self, src: NodeId, dst: NodeId, bytes: usize, earliest: SimNs) -> Reservation {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        if src == dst {
            // Shared-memory loopback: ~6 GB/s memcpy, 1 us latency.
            let inj = 1_000 + (bytes as f64 / 6.0e9 * 1e9).round() as SimNs;
            return Reservation {
                start: earliest,
                end: earliest + inj,
                arrival: earliest + inj + 1_000,
            };
        }
        reserve_pair(&self.tx[src], &self.rx[dst], bytes, earliest)
    }

    /// Reserve an inter-node window of an explicit duration (for callers
    /// whose effective rate differs from the raw link rate, e.g. a mapped
    /// zero-copy stream bottlenecked by PCIe). Occupies both endpoints.
    pub fn reserve_duration(
        &self,
        src: NodeId,
        dst: NodeId,
        duration_ns: SimNs,
        earliest: SimNs,
    ) -> Reservation {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        if src == dst {
            return Reservation {
                start: earliest,
                end: earliest + duration_ns,
                arrival: earliest + duration_ns + 1_000,
            };
        }
        let tx = &self.tx[src];
        let rx = &self.rx[dst];
        let latency = self.spec.link.latency_ns;
        // Same lock ordering as reserve_pair: tx then rx.
        tx.with_timelines(rx, |tx_busy, rx_busy| {
            let start = earliest.max(*tx_busy).max(*rx_busy);
            let end = start + duration_ns;
            *tx_busy = end;
            *rx_busy = end;
            Reservation {
                start,
                end,
                arrival: end + latency,
            }
        })
    }

    /// Reserve a one-sided (window) transfer of `bytes` from `src` to
    /// `dst`, routed by [`Fabric::fabric_class`]: loopback stays the
    /// shared-memory fast path, a co-located pair claims its CXL pool's
    /// single load/store timeline (per-pool contention), and a cross-pool
    /// pair falls back to the NIC tx/rx pair.
    pub fn reserve_rma(
        &self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        earliest: SimNs,
    ) -> Reservation {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        match self.fabric_class(src, dst) {
            FabricClass::Loopback => self.reserve(src, dst, bytes, earliest),
            FabricClass::Cxl(p) => self.pools[p].reserve(bytes, earliest),
            FabricClass::Nic => reserve_pair(&self.tx[src], &self.rx[dst], bytes, earliest),
        }
    }

    /// [`Fabric::reserve_rma`] through the deferred-reservation arbiter
    /// (same determinism contract as [`Fabric::reserve_deferred`]): the
    /// pool timeline is shared by every rank of the pool, so same-instant
    /// claims must be granted in canonical order, not OS-thread order.
    pub fn reserve_rma_deferred(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: i32,
        bytes: usize,
        earliest: SimNs,
        complete: Box<dyn FnOnce(Reservation) + Send>,
    ) {
        self.defer_job(
            src,
            dst,
            tag,
            DeferSize::RmaBytes(bytes),
            earliest,
            complete,
        )
    }

    /// Post a transfer to the fabric's deferred-reservation arbiter
    /// instead of claiming link time immediately.
    ///
    /// [`Fabric::reserve`] is first-come-first-served in *call* order, so
    /// when two engine threads reserve the same NIC timeline at the same
    /// virtual instant, link occupancy depends on which OS thread got
    /// there first — a real-time race inside a virtual-time simulation.
    /// A deferred job instead waits until the clock has *passed* its
    /// start instant; the clock then grants every due job in
    /// `(earliest, src, dst, tag, seq)` order and runs `complete` with
    /// its reservation. Reservations are backdated to `earliest`, so the
    /// simulated timeline is exactly what an eager reservation in the
    /// canonical order would have produced.
    ///
    /// Liveness: posting schedules an alarm just past `earliest` on the
    /// arbiter's progress key; the thread that advances the clock there
    /// grants the job before any actor or machine runs at that instant,
    /// and `complete` notifies whatever its waiters read.
    pub fn reserve_deferred(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: i32,
        bytes: usize,
        earliest: SimNs,
        complete: Box<dyn FnOnce(Reservation) + Send>,
    ) {
        self.defer_job(src, dst, tag, DeferSize::Bytes(bytes), earliest, complete)
    }

    /// [`Fabric::reserve_deferred`] with an explicit window duration (the
    /// deferred counterpart of [`Fabric::reserve_duration`]).
    pub fn reserve_duration_deferred(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: i32,
        duration_ns: SimNs,
        earliest: SimNs,
        complete: Box<dyn FnOnce(Reservation) + Send>,
    ) {
        self.defer_job(
            src,
            dst,
            tag,
            DeferSize::Duration(duration_ns),
            earliest,
            complete,
        )
    }

    fn defer_job(
        &self,
        src: NodeId,
        dst: NodeId,
        tag: i32,
        size: DeferSize,
        earliest: SimNs,
        complete: Box<dyn FnOnce(Reservation) + Send>,
    ) {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        self.defer.post(earliest, (src, dst, tag), (size, complete));
    }

    /// Grant every deferred reservation with `earliest < until`, in
    /// `(earliest, src, dst, tag, seq)` order. The clock does this at
    /// each instant a job comes due; call it by hand only where the clock
    /// will not advance again (a world's teardown drain). Completions run
    /// under the queue lock so that the grant order also fixes
    /// receiver-side message sequence numbers — the other place
    /// same-instant order is observable.
    pub fn pump(&self, until: SimNs) {
        self.defer.pump(until);
    }

    /// Number of posted-but-ungranted deferred reservations (diagnostics).
    pub fn deferred_pending(&self) -> usize {
        self.defer.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_one() {
        let c = ClusterSpec::cichlid();
        assert_eq!(c.nodes, 4);
        assert_eq!(c.nic, "Gigabit Ethernet");
        let r = ClusterSpec::ricc();
        assert_eq!(r.nodes, 100);
        assert!(r.link.bandwidth_bps > c.link.bandwidth_bps * 5.0);
        assert!(r.link.latency_ns < c.link.latency_ns);
    }

    #[test]
    fn two_sends_from_one_node_serialize() {
        let clock = SimClock::new();
        let f = Fabric::new(clock, ClusterSpec::cichlid(), 4);
        let r1 = f.reserve(0, 1, 1 << 20, 0);
        let r2 = f.reserve(0, 2, 1 << 20, 0);
        assert_eq!(r2.start, r1.end, "tx NIC is a serialized resource");
    }

    #[test]
    fn disjoint_pairs_transfer_concurrently() {
        let clock = SimClock::new();
        let f = Fabric::new(clock, ClusterSpec::cichlid(), 4);
        let r1 = f.reserve(0, 1, 1 << 20, 0);
        let r2 = f.reserve(2, 3, 1 << 20, 0);
        assert_eq!(r1.start, 0);
        assert_eq!(r2.start, 0, "independent NICs do not contend");
    }

    #[test]
    fn duplex_send_and_receive_overlap() {
        let clock = SimClock::new();
        let f = Fabric::new(clock, ClusterSpec::ricc(), 2);
        let r1 = f.reserve(0, 1, 1 << 20, 0);
        let r2 = f.reserve(1, 0, 1 << 20, 0);
        assert_eq!(r1.start, 0);
        assert_eq!(r2.start, 0, "full duplex: opposite directions are free");
    }

    #[test]
    fn loopback_is_fast_and_uncontended() {
        let clock = SimClock::new();
        let f = Fabric::new(clock, ClusterSpec::cichlid(), 2);
        let r = f.reserve(1, 1, 1 << 20, 0);
        let remote = f.reserve(0, 1, 1 << 20, 0);
        assert!(
            r.arrival < remote.arrival / 10,
            "loopback ≫ faster than GbE"
        );
    }

    #[test]
    #[should_panic(expected = "only")]
    fn oversubscribing_preset_panics() {
        let clock = SimClock::new();
        let _ = Fabric::new(clock, ClusterSpec::cichlid(), 16);
    }

    #[test]
    fn cxl_pairs_classify_and_outrun_the_nic() {
        let clock = SimClock::new();
        let f = Fabric::new(clock, ClusterSpec::cxl_pod(), 16);
        assert_eq!(f.fabric_class(1, 1), FabricClass::Loopback);
        assert_eq!(f.fabric_class(0, 3), FabricClass::Cxl(0));
        assert_eq!(f.fabric_class(4, 7), FabricClass::Cxl(1));
        assert_eq!(f.fabric_class(3, 4), FabricClass::Nic, "pool boundary");
        let pool = f.reserve_rma(0, 1, 1 << 20, 0);
        let nic = f.reserve(0, 1, 1 << 20, 0);
        assert!(
            pool.arrival * 5 < nic.arrival,
            "pool load/store ≫ faster than the NIC: {} vs {}",
            pool.arrival,
            nic.arrival
        );
    }

    #[test]
    fn cxl_pool_port_is_a_contended_resource() {
        let clock = SimClock::new();
        let f = Fabric::new(clock, ClusterSpec::cxl_pod(), 8);
        // Disjoint pairs inside one pool contend on the shared port...
        let r1 = f.reserve_rma(0, 1, 1 << 20, 0);
        let r2 = f.reserve_rma(2, 3, 1 << 20, 0);
        assert_eq!(r2.start, r1.end, "one load/store port per pool");
        // ...but a different pool's port is independent.
        let r3 = f.reserve_rma(4, 5, 1 << 20, 0);
        assert_eq!(r3.start, 0);
    }

    #[test]
    fn rma_faults_skip_random_drops_but_honor_node_down() {
        let clock = SimClock::new();
        let plan = FaultPlan::drops(7, 1.0).with_node_down(2, 50);
        let f = Fabric::with_faults(clock, ClusterSpec::cxl_pod(), 8, plan);
        // Co-located pair: 100% random drop plan does not touch loads.
        match f.rma_fault_decision(0, 1, 9, 10) {
            FaultOutcome::Deliver { .. } => {}
            other => panic!("CXL path must not random-drop: {other:?}"),
        }
        // Node death still poisons the pool path.
        match f.rma_fault_decision(0, 2, 9, 60) {
            FaultOutcome::Drop(DropReason::NodeDown) => {}
            other => panic!("dead node must fail window ops: {other:?}"),
        }
        // Cross-pool RMA rides the NIC and inherits the drop plan.
        match f.rma_fault_decision(0, 4, 9, 10) {
            FaultOutcome::Drop(_) => {}
            other => panic!("NIC-routed RMA composes with FaultPlan: {other:?}"),
        }
    }

    /// `(instant, node_down_at(1, instant))` per step of a [`Prober`].
    type Seen = Vec<(SimNs, bool)>;

    /// Logs what `node_down_at(1, now)` says at every step, parks with no
    /// hint, and finishes once node 1 has been down and is up again.
    struct Prober {
        fabric: Arc<Fabric>,
        seen: Seen,
        done: Arc<simtime::Monitor<Option<Seen>>>,
    }

    impl simtime::SimActor for Prober {
        fn wait_label(&self) -> &'static str {
            "prober"
        }

        fn poll(&mut self, now: SimNs, _actor: &simtime::Actor) -> simtime::MachineStep {
            let down = self.fabric.node_down_at(1, now);
            self.seen.push((now, down));
            if !down && self.seen.iter().any(|&(_, was)| was) {
                self.done.with(|d| *d = Some(self.seen.clone()));
                return simtime::MachineStep::Done;
            }
            simtime::MachineStep::Pending(None)
        }
    }

    #[test]
    fn kill_and_restart_instants_are_announced() {
        let clock = SimClock::new();
        let plan = FaultPlan::none().with_node_down_window(1, 1_000, 5_000);
        let fabric = Fabric::with_faults(clock.clone(), ClusterSpec::cichlid(), 2, plan);
        let done = Arc::new(simtime::Monitor::new(clock.clone(), None));
        let main = clock.register("main");
        let prober = Prober {
            fabric,
            seen: Vec::new(),
            done: done.clone(),
        };
        clock.spawn_machine(0, "prober", Box::new(prober));
        // Nothing but the plan's own alarms can move the clock here.
        let seen = done.wait(&main, |d| d.take());
        drop(main);
        clock.quiesce_machines();
        assert_eq!(seen, vec![(0, false), (1_000, true), (5_000, false)]);
    }

    #[test]
    fn deferred_grants_resolve_same_instant_ties_canonically() {
        use std::sync::{Arc, Mutex as StdMutex};
        let clock = SimClock::new();
        let f = Fabric::new(clock.clone(), ClusterSpec::cichlid(), 4);
        let order: Arc<StdMutex<Vec<(NodeId, SimNs)>>> = Arc::new(StdMutex::new(Vec::new()));
        // Post in the "wrong" real-time order: node 2 first, node 0 second.
        for src in [2usize, 0] {
            let order = order.clone();
            f.reserve_deferred(
                src,
                1,
                7,
                1 << 20,
                0,
                Box::new(move |r| order.lock().unwrap().push((src, r.start))),
            );
        }
        assert_eq!(f.deferred_pending(), 2);
        f.pump(0); // not yet grantable: the clock has not passed instant 0
        assert_eq!(f.deferred_pending(), 2);
        f.pump(1);
        assert_eq!(f.deferred_pending(), 0);
        let got = order.lock().unwrap().clone();
        // Canonical (earliest, src, ..) order, not posting order: node 0
        // wins the shared rx timeline of node 1.
        assert_eq!(got[0], (0, 0), "lowest source granted first, backdated");
        assert_eq!(got[1].0, 2);
        assert!(got[1].1 > 0, "later grant queues behind on the rx NIC");
    }
}
