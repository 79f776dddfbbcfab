//! The distributed Himeno implementations (paper Fig. 1/2/6 and the §II
//! GPU-aware comparator).
//!
//! ## Decomposition (paper Fig. 3)
//!
//! Global interior planes are split contiguously along the first axis.
//! Each rank's slab has `n` interior planes plus ghost planes at local
//! index `0` (from the lower neighbor) and `n+1` (from the upper one).
//! The slab is halved: **B** = lower planes `[1, ha)`, **A** = upper
//! planes `[ha, n+1)` ("the top plane of A and the bottom plane of B are
//! halo regions").
//!
//! ## The overlap schedule
//!
//! An iteration has two phases, each a [`Half`] to compute and an
//! [`Edge`] to exchange while it computes: phase 1 exchanges the *other*
//! half's halo on the buffer being read, phase 2 the first half's
//! freshly written boundary on the buffer being written. Even ranks take
//! (A, down edge) then (B, up edge), odd ranks (B, up edge) then (A, down
//! edge), so phase *k* of two neighbors names the same boundary on the
//! same buffer generation. [`Slab::phases`] is the only place that knows
//! this; the variants differ only in how a kernel is gated and how an
//! edge travels. A slab of fewer than two planes has no independent
//! half: its whole-slab kernel reads both ghosts, so every variant runs
//! it as exchange → kernel → exchange over the same two edges.
//!
//! ## Buffering
//!
//! Double-buffered pressure (`old`/`new` swap each iteration): kernels
//! read `old` and write `new`, halo exchanges carry freshly-written
//! boundary planes into the ghost planes of the same buffer generation.
//! All variants perform identical arithmetic, so their pressure fields
//! match the single-threaded reference bitwise.

use std::sync::Arc;

use clmpi::{ClMpi, PackMode, SystemConfig, TransferStrategy};
use minicl::{Buffer, CommandQueue, Event, HostBuffer};
use minimpi::{run_world_tasks, CommittedType, DerivedType, FaultPlan, Process, Tag};
use simtime::plock::Mutex;
use simtime::SimNs;

use crate::grid::{interior_checksum, jacobi_sweep, GridSize, BYTES_PER_POINT, FLOPS_PER_POINT};

const TAG_DOWN: Tag = 100; // payload travels towards rank 0
const TAG_UP: Tag = 101; // payload travels towards rank P-1

/// Which implementation to run (paper §V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Everything serialized (Fig. 1 structure).
    Serial,
    /// Two-queue host-managed overlap (Fig. 2, from \[13\]).
    HandOptimized,
    /// Event-chained clMPI commands (Fig. 6).
    ClMpi,
    /// Ablation: clMPI commands, but the host waits for every exchange at
    /// each iteration end — reintroducing the Fig. 4(b) serialization the
    /// event chains are meant to remove.
    ClMpiBlocked,
    /// Comparator from the paper's §II related work: GPU-aware MPI
    /// (cudaMPI / MPI-ACC / MVAPICH2-GPU style). MPI calls take device
    /// buffers and use the optimized transfer paths, but run on the host
    /// thread, which must first block on the producing kernel's event.
    GpuAwareMpi,
}

impl Variant {
    /// Display name used by the harnesses.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Serial => "serial",
            Variant::HandOptimized => "hand-optimized",
            Variant::ClMpi => "clMPI",
            Variant::ClMpiBlocked => "clMPI-blocked",
            Variant::GpuAwareMpi => "gpu-aware-mpi",
        }
    }
}

/// How the clMPI variant describes a halo face to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HaloMode {
    /// Exchange the full boundary plane as one contiguous buffer region
    /// (shell bytes included). This is the baseline path and reproduces
    /// the historical behavior bit-for-bit.
    #[default]
    Plane,
    /// Describe the face as an interior `Subarray` derived datatype over
    /// the plane and let the runtime pack it — host-gather or on-device
    /// pack kernel per [`PackMode`]. Bit-identical physics: the stencil
    /// only ever reads the ghost plane's interior, and the shell bytes
    /// the plane path would re-send are init values both ranks already
    /// share (kernels never write plane shells).
    Datatype(PackMode),
}

/// Parameters of one Himeno run.
#[derive(Clone)]
pub struct HimenoConfig {
    /// Grid size (the paper uses M).
    pub size: GridSize,
    /// Timed Jacobi iterations.
    pub iters: usize,
    /// System preset (Cichlid or RICC).
    pub sys: SystemConfig,
    /// Number of ranks/nodes.
    pub nodes: usize,
    /// Force a clMPI transfer strategy (ablation); `None` = Auto.
    pub strategy: Option<TransferStrategy>,
    /// Halo-face description for the clMPI variants (other variants
    /// always stage full planes through the host).
    pub halo: HaloMode,
}

/// Measured output of one run.
#[derive(Debug, Clone)]
pub struct HimenoResult {
    /// Sustained GFLOPS over the timed loop (the Fig. 9 metric).
    pub gflops: f64,
    /// Virtual time of the timed loop.
    pub elapsed_ns: SimNs,
    /// Final-iteration residual (summed over ranks).
    pub gosa: f64,
    /// Order-tolerant checksum of the final interior pressure field.
    pub checksum: f64,
    /// Σ of kernel device time per iteration, max over ranks (serial
    /// variant only; used for the Fig. 9(a) comp/comm ratio annotation).
    pub comp_ns: SimNs,
    /// Σ of host-side communication time, max over ranks (serial only).
    pub comm_ns: SimNs,
    /// Activity trace of the run (GPU lanes always recorded; comm lanes
    /// recorded by the clMPI runtime) — renders the Fig. 4 timelines.
    pub trace: simtime::Trace,
    /// Fabric-level fault counters (all zero on a perfect fabric).
    pub fault_counts: minimpi::FaultCounts,
    /// clMPI runtime fault/retry counters, summed over ranks (all zero
    /// on a perfect fabric).
    pub transfer_faults: clmpi::FaultStats,
    /// Scheduler machine transitions over the whole run (simulator
    /// self-throughput numerator; independent of the poll order).
    pub sched_events: u64,
    /// The clock's wake accounting over the whole run. The ranks run as
    /// tasks on one thread, so it repeats exactly ([`simtime::WakeStats`]).
    pub wake: simtime::WakeStats,
}

/// One kernel's plane range `[lo, hi)` and its trace name.
pub(crate) struct Half {
    pub(crate) name: &'static str,
    pub(crate) lo: usize,
    pub(crate) hi: usize,
}

/// One halo face: who is across it, which plane leaves, which ghost
/// plane fills, and under which tags. A plane travelling down is sent
/// with `TAG_DOWN` and received, by the rank below, with `TAG_DOWN` too.
pub(crate) struct Edge {
    pub(crate) neighbor: Option<usize>,
    pub(crate) send_plane: usize,
    pub(crate) ghost_plane: usize,
    pub(crate) send_tag: Tag,
    pub(crate) recv_tag: Tag,
}

pub(crate) struct Slab {
    rank: usize,
    /// Interior planes owned by this rank.
    pub(crate) n: usize,
    /// Global index of the first interior plane.
    pub(crate) start: usize,
    pub(crate) mj: usize,
    pub(crate) mk: usize,
    pub(crate) plane_bytes: usize,
    down: Option<usize>,
    up: Option<usize>,
}

impl Slab {
    pub(crate) fn new(cfg: &HimenoConfig, rank: usize) -> Self {
        let (mi, mj, mk) = cfg.size.dims();
        let interior = mi - 2;
        let p = cfg.nodes;
        let base = interior / p;
        let rem = interior % p;
        // Worlds larger than the interior plane count are legal (scale
        // runs): ranks past the remainder own zero planes, compute
        // nothing, and have no neighbors. `n` is non-increasing in rank,
        // so the zero-plane ranks form a contiguous tail and the slab
        // chain stays connected. A rank's up-neighbor exists only if that
        // neighbor owns at least one plane.
        let n = base + usize::from(rank < rem);
        let up_has_planes = base > 0 || rank + 1 < rem;
        Slab {
            rank,
            n,
            start: 1 + rank * base + rank.min(rem),
            mj,
            mk,
            plane_bytes: mj * mk * 4,
            down: (rank > 0 && n > 0).then(|| rank - 1),
            up: (n > 0 && rank + 1 < p && up_has_planes).then(|| rank + 1),
        }
    }

    pub(crate) fn slab_bytes(&self) -> usize {
        (self.n + 2) * self.plane_bytes
    }

    fn plane_off(&self, local_plane: usize) -> usize {
        local_plane * self.plane_bytes
    }

    /// The whole slab as one kernel (serial, recovery, and slabs of fewer
    /// than two planes).
    pub(crate) fn whole(&self) -> Half {
        Half {
            name: "jacobi",
            lo: 1,
            hi: self.n + 1,
        }
    }

    /// The face shared with the rank below: plane 1 leaves, ghost 0 fills.
    pub(crate) fn edge_down(&self) -> Edge {
        Edge {
            neighbor: self.down,
            send_plane: 1,
            ghost_plane: 0,
            send_tag: TAG_DOWN,
            recv_tag: TAG_UP,
        }
    }

    /// The face shared with the rank above: plane `n` leaves, ghost `n+1`
    /// fills.
    pub(crate) fn edge_up(&self) -> Edge {
        Edge {
            neighbor: self.up,
            send_plane: self.n,
            ghost_plane: self.n + 1,
            send_tag: TAG_UP,
            recv_tag: TAG_DOWN,
        }
    }

    /// This rank's two phases: the half to compute and the edge to
    /// exchange meanwhile (module docs, "The overlap schedule").
    fn phases(&self) -> [(Half, Edge); 2] {
        let ha = self.n / 2 + 1;
        let a = Half {
            name: "jacobi A",
            lo: ha,
            hi: self.n + 1,
        };
        let b = Half {
            name: "jacobi B",
            lo: 1,
            hi: ha,
        };
        if self.rank.is_multiple_of(2) {
            [(a, self.edge_down()), (b, self.edge_up())]
        } else {
            [(b, self.edge_up()), (a, self.edge_down())]
        }
    }
}

/// Which iterations' residuals a rank body reads. A kernel sums its
/// residual only for those ([`RankCx::enqueue_half_kernel`]).
#[derive(Clone, Copy)]
pub(crate) enum Residuals {
    /// The last iteration's: every [`run_himeno`] variant's result.
    Last,
    /// Every iteration's: the recovery harness allreduces each one as its
    /// failure detector.
    Every,
}

/// What every variant's rank body works on: the run's parameters, this
/// rank's endpoint and runtime, its slab, the two pressure buffers and
/// the per-iteration residual cells.
pub(crate) struct RankCx<'a> {
    pub(crate) cfg: &'a HimenoConfig,
    pub(crate) p: &'a Process,
    pub(crate) rt: &'a ClMpi,
    pub(crate) slab: Slab,
    bufs: [Buffer; 2],
    residuals: Residuals,
    gosa: Arc<Vec<Mutex<f64>>>,
}

impl<'a> RankCx<'a> {
    /// Decompose `cfg`'s grid for `rank` of `rt`'s communicator and fill
    /// both pressure buffers in place (halo planes included) with the
    /// standard grid's values; residual cells start at zero, and only the
    /// `residuals` ones are summed into. A rank that owns no plane gets two
    /// empty buffers: no kernel, exchange, checksum or checkpoint reads its
    /// ghost planes.
    pub(crate) fn new(
        cfg: &'a HimenoConfig,
        p: &'a Process,
        rt: &'a ClMpi,
        rank: usize,
        residuals: Residuals,
    ) -> Self {
        let slab = Slab::new(cfg, rank);
        let bytes = if slab.n == 0 { 0 } else { slab.slab_bytes() };
        let bufs = [(); 2].map(|()| {
            let b = rt.context().create_buffer(bytes);
            b.write(|d| crate::grid::fill_planes(d.as_f32_mut(), cfg.size, slab.start - 1));
            b
        });
        RankCx {
            cfg,
            p,
            rt,
            slab,
            bufs,
            residuals,
            gosa: Arc::new((0..cfg.iters).map(|_| Mutex::new(0.0)).collect()),
        }
    }

    /// Iteration `t`'s `(old, new)` pressure buffers.
    pub(crate) fn generation(&self, t: usize) -> (&Buffer, &Buffer) {
        (&self.bufs[t % 2], &self.bufs[(t + 1) % 2])
    }

    /// Queue `r{rank}{name}` on device 0, traced on lane `r{rank}.{lane}`.
    pub(crate) fn traced_queue(&self, name: &str, lane: &str) -> CommandQueue {
        let rank = self.p.rank();
        let q = self.rt.context().create_queue(0, format!("r{rank}{name}"));
        q.set_trace(
            self.p.comm.world().trace().clone(),
            format!("r{rank}.{lane}"),
        );
        q
    }

    /// Iteration `t`'s local residual so far. Only an iteration the rank
    /// body said it reads has one.
    pub(crate) fn residual(&self, t: usize) -> f64 {
        debug_assert!(
            self.reads_residual(t),
            "iteration {t}'s residual is not summed"
        );
        *self.gosa[t].lock()
    }

    /// Whether iteration `t`'s kernels sum its residual.
    fn reads_residual(&self, t: usize) -> bool {
        match self.residuals {
            Residuals::Last => t + 1 == self.cfg.iters,
            Residuals::Every => true,
        }
    }

    /// Checksum of the final field's interior: it lives in the last
    /// iteration's `new` buffer.
    pub(crate) fn checksum(&self) -> f64 {
        let slab = &self.slab;
        self.bufs[self.cfg.iters % 2]
            .read(|d| interior_checksum(d.as_f32(), slab.mj, slab.mk, 1..slab.n + 1))
    }

    /// Enqueue iteration `t`'s kernel over `half`; the body performs the
    /// real stencil and, if iteration `t`'s residual is read, adds the
    /// partial residual to cell `t`.
    pub(crate) fn enqueue_half_kernel(
        &self,
        q: &CommandQueue,
        half: &Half,
        t: usize,
        waits: &[Event],
    ) -> Event {
        let (mj, mk) = (self.slab.mj, self.slab.mk);
        let &Half { name, lo, hi } = half;
        let points = (hi - lo) * (mj - 2) * (mk - 2);
        let cost = q.device().spec().stencil_kernel_ns(points, BYTES_PER_POINT);
        let (old, new) = self.generation(t);
        let (old, new, gosa) = (old.clone(), new.clone(), self.gosa.clone());
        let read = self.reads_residual(t);
        let sweep = if read {
            jacobi_sweep::<true>
        } else {
            jacobi_sweep::<false>
        };
        q.enqueue_kernel(name, cost, waits, move || {
            let g = old.read(|o| new.write(|n| sweep(o.as_f32(), n.as_f32_mut(), mj, mk, lo, hi)));
            if read {
                *gosa[t].lock() += g;
            }
        })
    }

    /// Host-side staged halo exchange (serial & hand-optimized variants):
    /// blocking device→host read of the edge's boundary plane,
    /// `MPI_Sendrecv`, blocking host→device write into its ghost plane.
    /// Stages through a reusable pinned buffer, exactly the conventional
    /// joint-programming pattern of Fig. 1. Each blocking step is an
    /// enqueue and an `.await` on it: the host goes on only after it.
    async fn host_exchange(&self, q: &CommandQueue, buf: &Buffer, edge: &Edge, stage: &HostBuffer) {
        let Some(nb) = edge.neighbor else { return };
        let (p, actor, slab, bytes) = (self.p, &self.p.actor, &self.slab, self.slab.plane_bytes);
        let t0 = actor.now_ns();
        let send_off = slab.plane_off(edge.send_plane);
        q.enqueue_read_buffer(actor, buf, false, send_off, bytes, stage, 0, &[])
            .expect("read boundary plane")
            .settled()
            .await;
        let out = stage.to_vec();
        let (comm, send_tag, recv_tag) = (&p.comm, edge.send_tag, edge.recv_tag);
        let got = comm
            .sendrecv_async(actor, nb, send_tag, &out, Some(nb), Some(recv_tag))
            .await;
        assert_eq!(got.data.len(), bytes, "halo plane size");
        stage.store(0, &got.data).expect("halo plane fits");
        let ghost_off = slab.plane_off(edge.ghost_plane);
        q.enqueue_write_buffer(actor, buf, false, ghost_off, bytes, stage, 0, &[])
            .expect("write ghost plane")
            .settled()
            .await;
        // The whole staged exchange blocks the host, so one comm-lane span
        // covers it; this is what the overlap accounting (and Fig. 4 a/b)
        // sees as the variant's exposed communication.
        comm.world().trace().record(
            format!("r{}.comm", p.rank()),
            format!("d2h+sendrecv⇄{nb}+h2d"),
            t0,
            actor.now_ns(),
        );
    }

    /// One clMPI halo exchange: `enqueue_send_buffer` of the edge's
    /// boundary plane and `enqueue_recv_buffer` into its ghost plane, both
    /// gated on `gate`. With a `face`, only the plane's interior window
    /// travels and the runtime packs it per the mode (host gather / device
    /// pack kernel). Returns the exchange's events (empty if no neighbor).
    pub(crate) fn exchange_clmpi(
        &self,
        q: &CommandQueue,
        buf: &Buffer,
        edge: &Edge,
        gate: &[Event],
        face: Option<&(CommittedType, PackMode)>,
    ) -> Vec<Event> {
        let Some(nb) = edge.neighbor else {
            return Vec::new();
        };
        let (rt, actor, bytes) = (self.rt, &self.p.actor, self.slab.plane_bytes);
        let send_off = self.slab.plane_off(edge.send_plane);
        let ghost_off = self.slab.plane_off(edge.ghost_plane);
        let (send_tag, recv_tag) = (edge.send_tag, edge.recv_tag);
        let (es, er) = match face {
            Some((ty, mode)) => (
                rt.enqueue_send_datatype(
                    q, buf, false, send_off, ty, *mode, nb, send_tag, gate, actor,
                ),
                rt.enqueue_recv_datatype(
                    q, buf, false, ghost_off, ty, *mode, nb, recv_tag, gate, actor,
                ),
            ),
            None => (
                rt.enqueue_send_buffer(q, buf, false, send_off, bytes, nb, send_tag, gate, actor),
                rt.enqueue_recv_buffer(q, buf, false, ghost_off, bytes, nb, recv_tag, gate, actor),
            ),
        };
        vec![
            es.expect("send boundary plane"),
            er.expect("recv ghost plane"),
        ]
    }

    /// One GPU-aware halo exchange: blocking device-buffer send + receive
    /// on the host thread.
    async fn exchange_gpu_aware(&self, q: &CommandQueue, buf: &Buffer, edge: &Edge) {
        let Some(nb) = edge.neighbor else { return };
        let (rt, bytes) = (self.rt, self.slab.plane_bytes);
        let send_off = self.slab.plane_off(edge.send_plane);
        rt.gpu_aware_send_async(q, buf, send_off, bytes, nb, edge.send_tag)
            .await
            .expect("gpu-aware send");
        let ghost_off = self.slab.plane_off(edge.ghost_plane);
        rt.gpu_aware_recv_async(q, buf, ghost_off, bytes, nb, edge.recv_tag)
            .await
            .expect("gpu-aware recv");
    }
}

/// Run `variant` under `cfg`; aggregates per-rank measurements.
pub fn run_himeno(variant: Variant, cfg: HimenoConfig) -> HimenoResult {
    run_himeno_with_faults(variant, cfg, FaultPlan::none())
}

/// [`run_himeno`] on a faulty fabric: `plan` is attached to every link
/// (scope it with [`clmpi::data_plane_faults`] to spare the plain-MPI
/// halo control traffic). With a [`FaultPlan::none`] plan this is
/// exactly `run_himeno`. Every rank runs as a task ([`run_world_tasks`]),
/// so the calling thread drives the whole world.
///
/// # Panics
/// On the calling thread, before the world is launched, if `cfg.size` has
/// a dimension below 3 (no interior point).
pub fn run_himeno_with_faults(
    variant: Variant,
    cfg: HimenoConfig,
    plan: FaultPlan,
) -> HimenoResult {
    cfg.size.solve_dims();
    let cluster = cfg.sys.cluster.clone();
    let nodes = cfg.nodes;
    let cfg = Arc::new(cfg);
    let interior_global: usize = cfg.size.interior_points();
    let iters = cfg.iters;
    let res = run_world_tasks(cluster, nodes, plan, |p: Process| {
        rank_main(variant, cfg.clone(), p)
    });
    // Per-rank outputs: (gosa, checksum, comp, comm, loop_ns, faults).
    let gosa: f64 = res.outputs.iter().map(|o| o.0).sum();
    let checksum: f64 = res.outputs.iter().map(|o| o.1).sum();
    let comp_ns = res.outputs.iter().map(|o| o.2).max().unwrap_or(0);
    let comm_ns = res.outputs.iter().map(|o| o.3).max().unwrap_or(0);
    let elapsed_ns = res.outputs.iter().map(|o| o.4).max().unwrap_or(1).max(1);
    let transfer_faults = res
        .outputs
        .iter()
        .fold(clmpi::FaultStats::default(), |acc, o| acc.merge(o.5));
    let flops = FLOPS_PER_POINT * interior_global as f64 * iters as f64;
    HimenoResult {
        gflops: flops / elapsed_ns as f64, // flops/ns == Gflop/s
        elapsed_ns,
        gosa,
        checksum,
        comp_ns,
        comm_ns,
        trace: res.trace,
        fault_counts: res.fault_counts,
        transfer_faults,
        sched_events: res.events,
        wake: res.wake,
    }
}

type RankOut = (f64, f64, SimNs, SimNs, SimNs, clmpi::FaultStats);

/// One rank's body, run as a task ([`run_world_tasks`]): it waits with
/// `.await` wherever the paper's host thread blocks.
async fn rank_main(variant: Variant, cfg: Arc<HimenoConfig>, p: Process) -> RankOut {
    let cfg = &*cfg;
    let rt = ClMpi::new(&p, cfg.sys.clone());
    if let Some(s) = cfg.strategy {
        rt.set_forced_strategy(Some(s));
    }
    let cx = RankCx::new(cfg, &p, &rt, p.rank(), Residuals::Last);

    // Warm-up alignment, then the timed loop.
    p.comm.barrier_async(&p.actor).await;
    let t0 = p.actor.now_ns();
    let (comp_ns, comm_ns) = match variant {
        Variant::Serial => run_serial(&cx).await,
        Variant::HandOptimized => run_hand(&cx).await,
        Variant::ClMpi => run_clmpi(&cx, false).await,
        Variant::ClMpiBlocked => run_clmpi(&cx, true).await,
        Variant::GpuAwareMpi => run_gpu_aware(&cx).await,
    };
    rt.shutdown_async().await;
    p.comm.barrier_async(&p.actor).await;
    let loop_ns = p.actor.now_ns() - t0;

    // With no iteration there is no residual: `reference_jacobi`'s 0.0.
    let gosa = cfg.iters.checked_sub(1).map_or(0.0, |t| cx.residual(t));
    (
        gosa,
        cx.checksum(),
        comp_ns,
        comm_ns,
        loop_ns,
        rt.obs_counters().faults,
    )
}

/// Fig. 1 structure: kernel, halo reads, MPI, halo writes — serialized.
async fn run_serial(cx: &RankCx<'_>) -> (SimNs, SimNs) {
    let actor = &cx.p.actor;
    let q = cx.traced_queue("q0", "gpu");
    let stage = HostBuffer::pinned(cx.slab.plane_bytes);
    let (whole, down, up) = (cx.slab.whole(), cx.slab.edge_down(), cx.slab.edge_up());
    let (mut comp, mut comm) = (0, 0);
    for t in 0..cx.cfg.iters {
        let (_, new) = cx.generation(t);
        let k0 = actor.now_ns();
        cx.enqueue_half_kernel(&q, &whole, t, &[]).settled().await;
        comp += actor.now_ns() - k0;
        let c0 = actor.now_ns();
        // Exchange the freshly-written buffer's boundary planes.
        cx.host_exchange(&q, new, &down, &stage).await;
        cx.host_exchange(&q, new, &up, &stage).await;
        comm += actor.now_ns() - c0;
    }
    q.finish_async().await;
    (comp, comm)
}

/// Fig. 2 structure: two queues, host-managed overlap. Phase 1 computes
/// the first half while the host exchanges the other half's halo (on the
/// *old* buffer); phase 2 computes the second half while exchanging the
/// first half's product (on the *new* buffer).
async fn run_hand(cx: &RankCx<'_>) -> (SimNs, SimNs) {
    let q0 = cx.traced_queue("q0", "gpu0");
    let q1 = cx.traced_queue("q1", "gpu1");
    let stage0 = HostBuffer::pinned(cx.slab.plane_bytes);
    let stage1 = HostBuffer::pinned(cx.slab.plane_bytes);
    let [(first, edge1), (second, edge2)] = cx.slab.phases();
    // Cross-queue ordering events from the previous iteration.
    let mut e_first_prev: Option<Event> = None;
    let mut e_second_prev: Option<Event> = None;
    for t in 0..cx.cfg.iters {
        let (old, new) = cx.generation(t);
        if cx.slab.n < 2 {
            // Degenerate slab: the whole-slab kernel reads *both* ghost
            // planes, so the phase-1 exchange must fully precede it
            // instead of overlapping with it. The edges are the phase
            // table's, so a 2-plane overlap slab neighboring a 1-plane
            // slab still pairs.
            cx.host_exchange(&q1, old, &edge1, &stage1).await;
            cx.enqueue_half_kernel(&q0, &cx.slab.whole(), t, &[])
                .settled()
                .await;
            cx.host_exchange(&q0, new, &edge2, &stage0).await;
            continue;
        }
        // Phase 1: first-half kernel on q0; host exchanges the second
        // half's halo of `old` through q1 (which serializes after the
        // previous second-half kernel).
        let waits_first: Vec<Event> = e_second_prev.iter().cloned().collect();
        let e_first = cx.enqueue_half_kernel(&q0, &first, t, &waits_first);
        cx.host_exchange(&q1, old, &edge1, &stage1).await;
        // Phase 2: second-half kernel on q1; host exchanges the first
        // half's product (boundary of `new`) through q0.
        // Gate the second kernel on the first: a single compute engine
        // dispatches kernels in issue order on real GPUs, and the overlap
        // scheme relies on phase 1 executing first.
        let mut waits_second: Vec<Event> = e_first_prev.iter().cloned().collect();
        waits_second.push(e_first.clone());
        let e_second = cx.enqueue_half_kernel(&q1, &second, t, &waits_second);
        cx.host_exchange(&q0, new, &edge2, &stage0).await;
        e_first_prev = Some(e_first);
        e_second_prev = Some(e_second);
    }
    q0.finish_async().await;
    q1.finish_async().await;
    (0, 0)
}

/// Fig. 6 structure: one in-order queue, every dependency expressed as an
/// event, all calls non-blocking; the host thread only calls `clFinish`
/// at the end of each iteration.
async fn run_clmpi(cx: &RankCx<'_>, block_each_iter: bool) -> (SimNs, SimNs) {
    let slab = &cx.slab;
    let q = cx.traced_queue("q", "gpu");
    // The face datatype, committed once per rank: the plane's interior
    // (mj−2)×(mk−2) f32 window at starts (1,1) — the only bytes the
    // neighbor's stencil reads.
    let face: Option<(CommittedType, PackMode)> = match cx.cfg.halo {
        HaloMode::Plane => None,
        HaloMode::Datatype(mode) => Some((
            DerivedType::Subarray {
                elem: 4,
                sizes: vec![slab.mj, slab.mk],
                subsizes: vec![slab.mj - 2, slab.mk - 2],
                starts: vec![1, 1],
            }
            .commit()
            .expect("interior face type"),
            mode,
        )),
    };
    let face = face.as_ref();
    let [(first, edge1), (second, edge2)] = slab.phases();
    // Events of the previous iteration's exchanges and kernels.
    let mut e_phase2_xfer: Vec<Event> = Vec::new(); // gate next first kernel
    let mut e_first_prev: Option<Event> = None;
    let mut e_second_prev: Option<Event> = None;
    for t in 0..cx.cfg.iters {
        let (old, new) = cx.generation(t);
        let x1;
        if slab.n < 2 {
            // Degenerate slab: the whole slab is one kernel reading both
            // ghost planes, so the phase-1 exchange is enqueued *first*
            // and the kernel waits on it (plus the previous phase-2
            // exchange, which filled the other ghost). The edges are the
            // phase table's, so mixed worlds pair correctly; only the
            // intra-rank ordering changes. The previous whole-slab kernel
            // produced the plane x1 sends and last read the ghost x1
            // overwrites, so it is x1's gate.
            let gate1: Vec<Event> = e_first_prev.iter().cloned().collect();
            x1 = cx.exchange_clmpi(&q, old, &edge1, &gate1, face);
            let mut w: Vec<Event> = std::mem::take(&mut e_phase2_xfer);
            w.extend(x1.iter().cloned());
            w.extend(gate1);
            let e = cx.enqueue_half_kernel(&q, &slab.whole(), t, &w);
            e_phase2_xfer = cx.exchange_clmpi(&q, new, &edge2, std::slice::from_ref(&e), face);
            e_first_prev = Some(e);
        } else {
            // Phase 1 kernel: waits the previous phase-2 exchange (it
            // filled the ghost this kernel reads / sent the planes it
            // overwrites) and the previous second-half kernel (internal
            // boundary plane).
            let mut w1: Vec<Event> = std::mem::take(&mut e_phase2_xfer);
            w1.extend(e_second_prev.iter().cloned());
            let e_first = cx.enqueue_half_kernel(&q, &first, t, &w1);
            // Phase 1 exchange on `old` (the other half's halo), gated on
            // the previous iteration's second-half kernel which produced
            // the data.
            let gate1: Vec<Event> = e_second_prev.iter().cloned().collect();
            x1 = cx.exchange_clmpi(&q, old, &edge1, &gate1, face);
            // Phase 2 kernel: waits the phase-1 exchange (its ghost/planes)
            // and the previous first-half kernel (internal boundary).
            let mut w2: Vec<Event> = x1.clone();
            w2.extend(e_first_prev.iter().cloned());
            let e_second = cx.enqueue_half_kernel(&q, &second, t, &w2);
            // Phase 2 exchange on `new` (first half's freshly computed
            // boundary), gated on this iteration's first kernel.
            e_phase2_xfer =
                cx.exchange_clmpi(&q, new, &edge2, std::slice::from_ref(&e_first), face);
            e_first_prev = Some(e_first);
            e_second_prev = Some(e_second);
        }
        // The host's only synchronization: drain the queue (kernels); the
        // exchanges keep flowing on their event chains (paper Fig. 4(c)).
        q.finish_async().await;
        if block_each_iter {
            // Ablation: serialize the host on every exchange completion.
            let _ = Event::all_settled(&x1).await;
            let _ = Event::all_settled(&e_phase2_xfer).await;
        }
    }
    // Drain the final exchanges before validation.
    let _ = Event::all_settled(&e_phase2_xfer).await;
    (0, 0)
}

/// GPU-aware-MPI comparator (paper §II): the same two-queue overlap
/// structure as the hand-optimized code, but halo exchanges are direct
/// MPI-on-device-buffer calls ([`ClMpi::gpu_aware_send`] /
/// [`ClMpi::gpu_aware_recv`]) — no manual staging, optimized transfer
/// paths — executed by the host thread, which must first wait on the
/// producing kernel's event (the serialization clMPI's events remove).
async fn run_gpu_aware(cx: &RankCx<'_>) -> (SimNs, SimNs) {
    let rank = cx.p.rank();
    let q0 = cx.rt.context().create_queue(0, format!("r{rank}q0"));
    let q1 = cx.rt.context().create_queue(0, format!("r{rank}q1"));
    let [(first, edge1), (second, edge2)] = cx.slab.phases();
    let mut e_first_prev: Option<Event> = None;
    let mut e_second_prev: Option<Event> = None;
    for t in 0..cx.cfg.iters {
        let (old, new) = cx.generation(t);
        if cx.slab.n < 2 {
            // Degenerate slab: exchange first (the whole-slab kernel
            // reads both ghosts), over the phase table's edges. The host
            // has already waited on the previous kernel, which produced
            // the plane the first exchange sends (§II's limitation).
            cx.exchange_gpu_aware(&q1, old, &edge1).await;
            cx.enqueue_half_kernel(&q0, &cx.slab.whole(), t, &[])
                .settled()
                .await;
            cx.exchange_gpu_aware(&q0, new, &edge2).await;
            continue;
        }
        let waits_first: Vec<Event> = e_second_prev.iter().cloned().collect();
        let e_first = cx.enqueue_half_kernel(&q0, &first, t, &waits_first);
        // Phase-1 exchange on `old`: the host must wait for the kernel
        // that produced the boundary plane (§II's limitation), then the
        // GPU-aware MPI calls transfer device memory directly.
        if let Some(e) = &e_second_prev {
            e.settled().await;
        }
        cx.exchange_gpu_aware(&q1, old, &edge1).await;
        let mut waits_second: Vec<Event> = e_first_prev.iter().cloned().collect();
        waits_second.push(e_first.clone());
        let e_second = cx.enqueue_half_kernel(&q1, &second, t, &waits_second);
        // Phase-2 exchange on `new`: wait the first kernel, then transfer.
        e_first.settled().await;
        cx.exchange_gpu_aware(&q0, new, &edge2).await;
        e_first_prev = Some(e_first);
        e_second_prev = Some(e_second);
    }
    q0.finish_async().await;
    q1.finish_async().await;
    (0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slabs(size: GridSize, nodes: usize) -> Vec<Slab> {
        let cfg = HimenoConfig {
            size,
            iters: 1,
            sys: SystemConfig::cichlid(),
            nodes,
            strategy: None,
            halo: HaloMode::Plane,
        };
        (0..nodes).map(|r| Slab::new(&cfg, r)).collect()
    }

    /// A variant sums only the residual it reads, its last iteration's:
    /// the other cells stay zero. Summing them too would keep every bit
    /// and double most sweeps' host time.
    #[test]
    fn a_variant_sums_only_the_last_residual() {
        let cfg = Arc::new(HimenoConfig {
            size: GridSize::Xs,
            iters: 3,
            sys: SystemConfig::cichlid(),
            nodes: 2,
            strategy: None,
            halo: HaloMode::Plane,
        });
        let spec = cfg.sys.cluster.clone();
        let nodes = cfg.nodes;
        let res = run_world_tasks(spec, nodes, FaultPlan::none(), |p: Process| {
            let cfg = cfg.clone();
            async move {
                let rt = ClMpi::new(&p, cfg.sys.clone());
                let cx = RankCx::new(&cfg, &p, &rt, p.rank(), Residuals::Last);
                run_serial(&cx).await;
                rt.shutdown_async().await;
                cx.gosa
                    .iter()
                    .map(|cell| *cell.lock())
                    .collect::<Vec<f64>>()
            }
        });
        for (rank, cells) in res.outputs.iter().enumerate() {
            assert_eq!(cells[..2], [0.0, 0.0], "rank {rank}");
            assert!(cells[2] > 0.0, "rank {rank}: {cells:?}");
        }
    }

    #[test]
    fn the_two_halves_tile_the_interior_exactly_once() {
        for n in 0..=5 {
            // Two ranks over 2n planes: an even and an odd rank of n each.
            for slab in slabs(GridSize::Custom(2 * n + 2, 3, 3), 2) {
                assert_eq!(slab.n, n);
                let [(first, _), (second, _)] = slab.phases();
                let mut planes: Vec<usize> =
                    (first.lo..first.hi).chain(second.lo..second.hi).collect();
                planes.sort_unstable();
                assert_eq!(planes, (1..=n).collect::<Vec<_>>(), "n={n}");
                let (a, b) = if slab.rank.is_multiple_of(2) {
                    (first, second)
                } else {
                    (second, first)
                };
                assert_eq!((a.name, b.name), ("jacobi A", "jacobi B"));
                assert_eq!(b.hi, a.lo, "B is the lower half");
                let whole = slab.whole();
                assert_eq!((whole.lo, whole.hi), (1, n + 1));
                if n < 2 {
                    // No independent half: A is the whole slab.
                    assert_eq!((a.lo, a.hi, b.lo, b.hi), (1, n + 1, 1, 1));
                }
            }
        }
    }

    #[test]
    fn phase_k_of_two_neighbors_names_the_same_boundary() {
        let worlds = [
            (GridSize::S, 4),
            (GridSize::M, 256),
            (GridSize::Custom(9, 9, 17), 3),
            (GridSize::Custom(9, 9, 17), 5),
            (GridSize::Custom(9, 9, 17), 7),
            (GridSize::Custom(9, 9, 17), 10),
        ];
        for (size, nodes) in worlds {
            let slabs = slabs(size, nodes);
            for (r, pair) in slabs.windows(2).enumerate() {
                let (lower, upper) = (&pair[0], &pair[1]);
                // The boundary exists iff both sides own planes.
                let joined = lower.n > 0 && upper.n > 0;
                assert_eq!(lower.edge_up().neighbor, joined.then_some(r + 1));
                assert_eq!(upper.edge_down().neighbor, joined.then_some(r));
                // Same phase index = same buffer generation (phase 1
                // exchanges `old`, phase 2 `new`).
                let mut phases_naming_it = 0;
                for ((_, up), (_, down)) in lower.phases().iter().zip(upper.phases().iter()) {
                    if up.ghost_plane == 0 {
                        // The lower rank's down edge: then the upper
                        // rank must be on its up edge.
                        assert_eq!(down.ghost_plane, upper.n + 1, "{nodes} ranks, r={r}");
                        continue;
                    }
                    phases_naming_it += 1;
                    assert_eq!((up.send_plane, up.ghost_plane), (lower.n, lower.n + 1));
                    assert_eq!((down.send_plane, down.ghost_plane), (1, 0));
                    assert_eq!((up.send_tag, up.recv_tag), (down.recv_tag, down.send_tag));
                }
                assert_eq!(phases_naming_it, 1, "{nodes} ranks, r={r}");
            }
        }
    }
}
