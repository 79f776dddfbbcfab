//! World construction and the per-rank communication endpoint.

use std::collections::BTreeSet;
use std::sync::Arc;

use simnet::{ClusterSpec, Fabric, FaultCounts, FaultPlan};
use simtime::plock::Mutex;
use simtime::{Actor, Monitor, SimClock, SimNs, Trace, WakeKey};

use crate::p2p::RankState;
use crate::{Rank, Tag};

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<Rank> = None;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<Tag> = None;
/// Largest tag available to applications; larger tags are reserved for
/// collectives and the clMPI runtime.
pub const MAX_USER_TAG: Tag = (1 << 20) - 1;

pub(crate) struct WorldInner {
    pub clock: SimClock,
    pub fabric: Arc<Fabric>,
    pub ranks: Vec<Arc<Monitor<RankState>>>,
    /// Per rank, the key a blocking receive parks on instead of the
    /// rank's monitor key: alarmed at the instant each delivered message
    /// becomes visible, and notified when a cancelled receive hands its
    /// message back to the matcher — the two moments a matched message
    /// can complete somebody's receive. The monitor's key is also
    /// notified when a message is merely *matched*, still in flight: a
    /// machine needs that to arm its timer, a blocked thread can do
    /// nothing with it.
    pub arrivals: Vec<WakeKey>,
    pub trace: Trace,
    /// Contexts of revoked communicators (ULFM `MPI_Comm_revoke`). One
    /// shared registry stands in for the asynchronous revoke broadcast a
    /// real stack runs: a revoke by any member is immediately visible on
    /// every rank, which keeps runs deterministic.
    pub revoked: Mutex<BTreeSet<u64>>,
    /// Window registry keyed by `(context, per-comm window sequence)`:
    /// ranks of one collective `win_create` call rendezvous on the shared
    /// window state here (all ranks are threads of one process, so the
    /// "window allocation exchange" is a map insert).
    pub windows: Mutex<std::collections::BTreeMap<(u64, u64), Arc<crate::rma::WinShared>>>,
}

/// A communication world: the set of ranks plus the fabric between them.
/// Cheap to clone; usually obtained from [`crate::run_world`].
#[derive(Clone)]
pub struct World {
    pub(crate) inner: Arc<WorldInner>,
}

impl World {
    /// Build a world of `size` ranks over `spec`'s interconnect.
    pub fn new(clock: SimClock, spec: ClusterSpec, size: usize) -> Self {
        Self::with_faults(clock, spec, size, FaultPlan::none())
    }

    /// Build a world whose fabric runs under `plan`. A [`FaultPlan::none`]
    /// plan behaves bit-identically to [`World::new`].
    pub fn with_faults(clock: SimClock, spec: ClusterSpec, size: usize, plan: FaultPlan) -> Self {
        let fabric = Fabric::with_faults(clock.clone(), spec, size, plan);
        let ranks = (0..size)
            .map(|_| Arc::new(Monitor::new(clock.clone(), RankState::default())))
            .collect();
        let arrivals = (0..size).map(|_| clock.new_key()).collect();
        World {
            inner: Arc::new(WorldInner {
                clock,
                fabric,
                ranks,
                arrivals,
                trace: Trace::new(),
                revoked: Mutex::new(BTreeSet::new()),
                windows: Mutex::new(std::collections::BTreeMap::new()),
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// Shared activity trace (lanes are free-form; the apps use
    /// "r{rank}.host", "r{rank}.gpu", "r{rank}.net").
    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    /// The cluster description the fabric was built from.
    pub fn cluster(&self) -> &ClusterSpec {
        self.inner.fabric.spec()
    }

    /// True if a non-trivial fault plan is attached to the fabric.
    pub fn has_faults(&self) -> bool {
        self.inner.fabric.has_faults()
    }

    /// Aggregate fault counters across every link (all zero on a perfect
    /// fabric).
    pub fn fault_counts(&self) -> FaultCounts {
        self.inner.fabric.fault_counts()
    }

    /// The fault plan the fabric runs under ([`FaultPlan::none`] on a
    /// perfect fabric).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.inner.fabric.fault_plan()
    }

    /// Transport class serving one-sided traffic between two (world)
    /// ranks' nodes: loopback, NIC, or a shared CXL pool port.
    pub fn fabric_class(&self, a: Rank, b: Rank) -> simnet::FabricClass {
        self.inner.fabric.fabric_class(a, b)
    }

    /// True if (world) rank `rank`'s node is scheduled dead at virtual
    /// instant `t` — the deterministic ground truth the ULFM-style layer
    /// classifies timeouts against.
    pub fn node_down_at(&self, rank: Rank, t: SimNs) -> bool {
        self.inner.fabric.node_down_at(rank, t)
    }

    /// True if (world) rank `rank`'s node is scheduled dead at any
    /// instant of `[from, until)`.
    pub fn node_down_in(&self, rank: Rank, from: SimNs, until: SimNs) -> bool {
        self.inner.fabric.node_down_in(rank, from, until)
    }

    /// Grant every reservation still sitting in the fabric's deferred-send
    /// arbiter, in canonical order. Called once at teardown (after all
    /// ranks joined, when the clock will not advance again to grant
    /// them): fire-and-forget isends nobody waited on still get their
    /// trace spans and fault counters, deterministically.
    pub fn drain_deferred(&self) {
        self.inner.fabric.pump(SimNs::MAX);
    }

    /// A communication endpoint for `rank`. Any thread of the rank may use
    /// a clone of it concurrently (thread-multiple semantics).
    pub fn comm(&self, rank: Rank) -> Comm {
        assert!(rank < self.size(), "rank {rank} out of range");
        Comm::world_comm(self.clone(), rank)
    }
}

/// A per-rank communicator endpoint (`MPI_COMM_WORLD` or a communicator
/// produced by [`Comm::split`]).
///
/// All operations take the calling thread's [`Actor`] explicitly, because a
/// rank may have several threads (host thread, clMPI communication thread,
/// OpenCL queue executors), each being its own virtual-time actor.
#[derive(Clone)]
pub struct Comm {
    pub(crate) world: World,
    /// Global (world) rank of this endpoint.
    pub(crate) rank: Rank,
    /// Communication context: messages only match within one context
    /// (0 = the world communicator).
    pub(crate) context: u64,
    /// Members (global ranks) in local-rank order; `None` = all world
    /// ranks, identity-mapped.
    pub(crate) members: Option<std::sync::Arc<Vec<Rank>>>,
    /// Per-endpoint collective-call counter, used to derive deterministic
    /// child context ids for `split`/`shrink` (every member calls in
    /// lockstep).
    pub(crate) split_seq: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// Per-endpoint agreement-call counter: stripes the agreement tag
    /// space so a late message from a timed-out round cannot match a
    /// later agreement's receive.
    pub(crate) agree_seq: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// Per-endpoint window-creation counter: every member calls
    /// [`crate::rma` `win_create`] in lockstep, so `(context, win_seq)`
    /// identifies one collective window deterministically.
    pub(crate) win_seq: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Comm {
    pub(crate) fn world_comm(world: World, rank: Rank) -> Self {
        Comm {
            world,
            rank,
            context: 0,
            members: None,
            split_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            agree_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            win_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// Construct a child communicator with an explicit context and member
    /// table (global ranks in local order). Used by `split` and the
    /// ULFM-style `shrink`; every member must derive the same arguments.
    pub(crate) fn derive(&self, context: u64, members: Vec<Rank>) -> Comm {
        Comm {
            world: self.world.clone(),
            rank: self.rank,
            context,
            members: Some(std::sync::Arc::new(members)),
            split_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            agree_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
            win_seq: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// This endpoint's rank **within this communicator**.
    pub fn rank(&self) -> Rank {
        match &self.members {
            None => self.rank,
            Some(m) => m
                .iter()
                .position(|&g| g == self.rank)
                .expect("member of own communicator"),
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        match &self.members {
            None => self.world.size(),
            Some(m) => m.len(),
        }
    }

    /// Translate a communicator-local rank to the global (world) rank.
    pub fn global_rank(&self, local: Rank) -> Rank {
        match &self.members {
            None => local,
            Some(m) => m[local],
        }
    }

    /// The world this endpoint belongs to.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Split this communicator (`MPI_Comm_split`): ranks passing the same
    /// `color` end up in the same child communicator, ordered by
    /// `(key, parent rank)`. Collective over all members. `None` color
    /// (`MPI_UNDEFINED`) yields `None`.
    pub fn split(&self, actor: &simtime::Actor, color: Option<i32>, key: i32) -> Option<Comm> {
        // Gather (has-color, color, key, global rank) from every member.
        // A dedicated flag byte distinguishes `None` (MPI_UNDEFINED) from
        // every concrete color value — including `Some(i32::MIN)`, which a
        // sentinel encoding would silently misread as undefined.
        let mine = {
            let mut b = Vec::with_capacity(17);
            b.push(color.is_some() as u8);
            b.extend_from_slice(&color.unwrap_or(0).to_ne_bytes());
            b.extend_from_slice(&key.to_ne_bytes());
            b.extend_from_slice(&(self.rank as u64).to_ne_bytes());
            b
        };
        let all = self.allgather(actor, &mine);
        let seq = self
            .split_seq
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let my_color = color?;
        let mut members: Vec<(i32, Rank)> = all
            .iter()
            .filter_map(|b| {
                let has = b[0] != 0;
                let c = i32::from_ne_bytes(b[1..5].try_into().expect("color"));
                let k = i32::from_ne_bytes(b[5..9].try_into().expect("key"));
                let g = u64::from_ne_bytes(b[9..17].try_into().expect("rank")) as Rank;
                (has && c == my_color).then_some((k, g))
            })
            .collect();
        members.sort_unstable();
        let members: Vec<Rank> = members.into_iter().map(|(_, g)| g).collect();
        // Deterministic child context: all members compute the same value
        // (FNV-1a over parent context, call sequence, and color).
        let words = [self.context, seq, my_color as u64].map(u64::to_ne_bytes);
        let context = simtime::fnv1a(words.as_flattened()) | 1; // never the world context 0
        Some(self.derive(context, members))
    }
}

/// One rank of a running world: an endpoint plus the main ("host") thread's
/// actor. Created by the launcher; apps usually pass `&Process` around.
pub struct Process {
    /// The rank's communication endpoint.
    pub comm: Comm,
    /// The host thread's virtual-time actor.
    pub actor: Actor,
}

impl Process {
    /// This process's rank.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        self.comm.world.clock()
    }

    /// Spend `ns` of virtual time on host computation.
    pub fn host_compute_ns(&self, ns: u64) {
        self.actor.advance_ns(ns);
    }
}
