//! The three distributed Himeno implementations (paper Fig. 1/2/6).
//!
//! ## Decomposition (paper Fig. 3)
//!
//! Global interior planes are split contiguously along the first axis.
//! Each rank's slab has `n` interior planes plus ghost planes at local
//! index `0` (from the lower neighbor) and `n+1` (from the upper one).
//! The slab is halved: **B** = lower planes `[1, ha)`, **A** = upper
//! planes `[ha, n+1)` ("the top plane of A and the bottom plane of B are
//! halo regions"). Even ranks compute A first, odd ranks B first, so each
//! phase pairs neighbors exchanging the same boundary.
//!
//! ## Buffering
//!
//! Double-buffered pressure (`old`/`new` swap each iteration): kernels
//! read `old` and write `new`, halo exchanges carry freshly-written
//! boundary planes into the ghost planes of the same buffer generation.
//! All three variants perform identical arithmetic, so their pressure
//! fields match the single-threaded reference bitwise.

use std::sync::Arc;

use clmpi::{ClMpi, PackMode, SystemConfig, TransferStrategy};
use minicl::{Buffer, CommandQueue, Context, Event, HostBuffer};
use minimpi::{run_world_faulty_mode, CommittedType, DerivedType, FaultPlan, Process, Tag};
use simtime::plock::Mutex;
use simtime::SimNs;

use crate::grid::{jacobi_sweep, GridSize, BYTES_PER_POINT, FLOPS_PER_POINT};

pub(crate) const TAG_DOWN: Tag = 100; // payload travels towards rank 0
pub(crate) const TAG_UP: Tag = 101; // payload travels towards rank P-1

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
    /// self-throughput numerator; mode-independent).
    pub sched_events: u64,
    /// The clock's wake accounting over the whole run (host-scheduling
    /// dependent diagnostic; see [`simtime::WakeStats`]).
    pub wake: simtime::WakeStats,
}

pub(crate) struct Slab {
    /// Interior planes owned by this rank.
    pub(crate) n: usize,
    /// First local plane of the upper half A (`B = [1, ha)`,
    /// `A = [ha, n+1)`).
    pub(crate) ha: usize,
    pub(crate) mj: usize,
    pub(crate) mk: usize,
    pub(crate) plane_bytes: usize,
    pub(crate) down: Option<usize>,
    pub(crate) up: Option<usize>,
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
            n,
            ha: n / 2 + 1,
            mj,
            mk,
            plane_bytes: mj * mk * 4,
            down: (rank > 0 && n > 0).then(|| rank - 1),
            up: (n > 0 && rank + 1 < p && up_has_planes).then(|| rank + 1),
        }
    }

    pub(crate) fn global_start(cfg: &HimenoConfig, rank: usize) -> usize {
        let (mi, _, _) = cfg.size.dims();
        let interior = mi - 2;
        let p = cfg.nodes;
        let base = interior / p;
        let rem = interior % p;
        1 + rank * base + rank.min(rem)
    }

    pub(crate) fn slab_bytes(&self) -> usize {
        (self.n + 2) * self.plane_bytes
    }

    /// Both pressure buffers of the slab whose first interior plane is
    /// global plane `start`, each filled in place (halo planes included)
    /// with the standard grid's values.
    pub(crate) fn pressure_buffers(
        &self,
        ctx: &Context,
        size: GridSize,
        start: usize,
    ) -> [Buffer; 2] {
        [(); 2].map(|()| {
            let b = ctx.create_buffer(self.slab_bytes());
            b.write(|d| crate::grid::fill_planes(d.as_f32_mut(), size, start - 1));
            b
        })
    }

    pub(crate) fn plane_off(&self, local_plane: usize) -> usize {
        local_plane * self.plane_bytes
    }
}

/// Enqueue one half-sweep kernel; the body performs the real stencil and
/// records the partial residual into `gosa_acc[iter]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn enqueue_half_kernel(
    q: &CommandQueue,
    name: &'static str,
    old: &Buffer,
    new: &Buffer,
    slab: &Slab,
    lo: usize,
    hi: usize,
    gosa_acc: Arc<Vec<Mutex<f64>>>,
    iter: usize,
    waits: &[Event],
) -> Event {
    let (mj, mk) = (slab.mj, slab.mk);
    let points = (hi - lo) * (mj - 2) * (mk - 2);
    let cost = q.device().spec().stencil_kernel_ns(points, BYTES_PER_POINT);
    let old = old.clone();
    let new = new.clone();
    q.enqueue_kernel(name, cost, waits, move || {
        let g =
            old.read(|o| new.write(|n| jacobi_sweep(o.as_f32(), n.as_f32_mut(), mj, mk, lo, hi)));
        *gosa_acc[iter].lock() += g;
    })
}

/// Host-side staged halo exchange (serial & hand-optimized variants):
/// blocking device→host read of `send_plane`, `MPI_Sendrecv`, blocking
/// host→device write into `ghost_plane`. Stages through reusable pinned
/// buffers, exactly the conventional joint-programming pattern of Fig. 1.
#[allow(clippy::too_many_arguments)]
fn host_exchange(
    p: &Process,
    q: &CommandQueue,
    buf: &Buffer,
    slab: &Slab,
    neighbor: Option<usize>,
    send_plane: usize,
    ghost_plane: usize,
    send_tag: Tag,
    recv_tag: Tag,
    stage: &HostBuffer,
) {
    let Some(nb) = neighbor else { return };
    let t0 = p.actor.now_ns();
    q.enqueue_read_buffer(
        &p.actor,
        buf,
        true,
        slab.plane_off(send_plane),
        slab.plane_bytes,
        stage,
        0,
        &[],
    )
    .expect("read boundary plane");
    let out = stage.to_vec();
    let got = p
        .comm
        .sendrecv(&p.actor, nb, send_tag, &out, Some(nb), Some(recv_tag));
    assert_eq!(got.data.len(), slab.plane_bytes, "halo plane size");
    stage.fill_from(&got.data);
    q.enqueue_write_buffer(
        &p.actor,
        buf,
        true,
        slab.plane_off(ghost_plane),
        slab.plane_bytes,
        stage,
        0,
        &[],
    )
    .expect("write ghost plane");
    // The whole staged exchange blocks the host, so one comm-lane span
    // covers it; this is what the overlap accounting (and Fig. 4 a/b)
    // sees as the variant's exposed communication.
    p.comm.world().trace().record(
        format!("r{}.comm", p.rank()),
        format!("d2h+sendrecv⇄{nb}+h2d"),
        t0,
        p.actor.now_ns(),
    );
}

/// Run `variant` under `cfg`; aggregates per-rank measurements.
pub fn run_himeno(variant: Variant, cfg: HimenoConfig) -> HimenoResult {
    run_himeno_with_faults(variant, cfg, FaultPlan::none())
}

/// [`run_himeno`] on a faulty fabric: `plan` is attached to every link
/// (scope it with [`clmpi::data_plane_faults`] to spare the plain-MPI
/// halo control traffic). With a [`FaultPlan::none`] plan this is
/// exactly `run_himeno`.
pub fn run_himeno_with_faults(
    variant: Variant,
    cfg: HimenoConfig,
    plan: FaultPlan,
) -> HimenoResult {
    run_himeno_with_faults_mode(variant, cfg, plan, simtime::ExecMode::from_env())
}

/// [`run_himeno_with_faults`] with an explicit executor mode for the
/// in-world machines (clMPI engines, queue executors), overriding the
/// `SIM_EXEC_MODE` default — the scale harness pins [`simtime::ExecMode::Events`]
/// (and the oracle) regardless of the environment.
pub fn run_himeno_with_faults_mode(
    variant: Variant,
    cfg: HimenoConfig,
    plan: FaultPlan,
    mode: simtime::ExecMode,
) -> HimenoResult {
    let cluster = cfg.sys.cluster.clone();
    let nodes = cfg.nodes;
    let cfg = Arc::new(cfg);
    let interior_global: usize = cfg.size.interior_points();
    let iters = cfg.iters;
    let res = run_world_faulty_mode(cluster, nodes, plan, mode, move |p: Process| {
        rank_main(variant, &cfg, p)
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

fn rank_main(variant: Variant, cfg: &HimenoConfig, p: Process) -> RankOut {
    let rank = p.rank();
    let slab = Slab::new(cfg, rank);
    let rt = ClMpi::new(&p, cfg.sys.clone());
    let stats = rt.enable_stats();
    if let Some(s) = cfg.strategy {
        rt.set_forced_strategy(Some(s));
    }
    let ctx = rt.context().clone();
    let bufs = slab.pressure_buffers(&ctx, cfg.size, Slab::global_start(cfg, rank));
    let gosa_acc: Arc<Vec<Mutex<f64>>> =
        Arc::new((0..cfg.iters).map(|_| Mutex::new(0.0)).collect());

    // Warm-up alignment, then the timed loop.
    p.comm.barrier(&p.actor);
    let t0 = p.actor.now_ns();
    let (comp_ns, comm_ns) = match variant {
        Variant::Serial => run_serial(cfg, &p, &rt, &slab, &bufs, &gosa_acc),
        Variant::HandOptimized => run_hand(cfg, &p, &rt, &slab, &bufs, &gosa_acc),
        Variant::ClMpi => run_clmpi(cfg, &p, &rt, &slab, &bufs, &gosa_acc, false),
        Variant::ClMpiBlocked => run_clmpi(cfg, &p, &rt, &slab, &bufs, &gosa_acc, true),
        Variant::GpuAwareMpi => run_gpu_aware(cfg, &p, &rt, &slab, &bufs, &gosa_acc),
    };
    rt.shutdown(&p.actor);
    p.comm.barrier(&p.actor);
    let loop_ns = p.actor.now_ns() - t0;

    // Validation data: final field lives in bufs[iters % 2] (the last
    // "new"), interior planes only.
    let final_buf = &bufs[cfg.iters % 2];
    let checksum = final_buf.read(|d| {
        let f = d.as_f32();
        let plane = slab.mj * slab.mk;
        let mut sum = 0.0f64;
        for i in 1..=slab.n {
            for j in 1..slab.mj - 1 {
                for k in 1..slab.mk - 1 {
                    sum += f[i * plane + j * slab.mk + k].abs() as f64;
                }
            }
        }
        sum
    });
    let gosa = *gosa_acc[cfg.iters - 1].lock();
    (gosa, checksum, comp_ns, comm_ns, loop_ns, stats.faults())
}

/// Fig. 1 structure: kernel, halo reads, MPI, halo writes — serialized.
fn run_serial(
    cfg: &HimenoConfig,
    p: &Process,
    rt: &ClMpi,
    slab: &Slab,
    bufs: &[Buffer; 2],
    gosa: &Arc<Vec<Mutex<f64>>>,
) -> (SimNs, SimNs) {
    let q = rt.context().create_queue(0, format!("r{}q0", p.rank()));
    q.set_trace(p.comm.world().trace().clone(), format!("r{}.gpu", p.rank()));
    let stage = HostBuffer::pinned(slab.plane_bytes);
    let (mut comp, mut comm) = (0, 0);
    for t in 0..cfg.iters {
        let (old, new) = (&bufs[t % 2], &bufs[(t + 1) % 2]);
        let k0 = p.actor.now_ns();
        let e = enqueue_half_kernel(
            &q,
            "jacobi",
            old,
            new,
            slab,
            1,
            slab.n + 1,
            gosa.clone(),
            t,
            &[],
        );
        e.wait(&p.actor);
        comp += p.actor.now_ns() - k0;
        let c0 = p.actor.now_ns();
        // Exchange the freshly-written buffer's boundary planes.
        host_exchange(p, &q, new, slab, slab.down, 1, 0, TAG_DOWN, TAG_UP, &stage);
        host_exchange(
            p,
            &q,
            new,
            slab,
            slab.up,
            slab.n,
            slab.n + 1,
            TAG_UP,
            TAG_DOWN,
            &stage,
        );
        comm += p.actor.now_ns() - c0;
    }
    q.finish(&p.actor);
    (comp, comm)
}

/// Fig. 2 structure: two queues, host-managed overlap. Phase 1 computes
/// the first half while the host exchanges the other half's halo (on the
/// *old* buffer); phase 2 computes the second half while exchanging the
/// first half's product (on the *new* buffer).
fn run_hand(
    cfg: &HimenoConfig,
    p: &Process,
    rt: &ClMpi,
    slab: &Slab,
    bufs: &[Buffer; 2],
    gosa: &Arc<Vec<Mutex<f64>>>,
) -> (SimNs, SimNs) {
    let rank = p.rank();
    let even = rank.is_multiple_of(2);
    let q0 = rt.context().create_queue(0, format!("r{rank}q0"));
    let q1 = rt.context().create_queue(0, format!("r{rank}q1"));
    q0.set_trace(p.comm.world().trace().clone(), format!("r{rank}.gpu0"));
    q1.set_trace(p.comm.world().trace().clone(), format!("r{rank}.gpu1"));
    let stage0 = HostBuffer::pinned(slab.plane_bytes);
    let stage1 = HostBuffer::pinned(slab.plane_bytes);
    // Cross-queue ordering events from the previous iteration.
    let mut e_first_prev: Option<Event> = None;
    let mut e_second_prev: Option<Event> = None;
    for t in 0..cfg.iters {
        let (old, new) = (&bufs[t % 2], &bufs[(t + 1) % 2]);
        if slab.n < 2 {
            // Degenerate slab (0 or 1 interior plane): `ha == 1` leaves
            // no independent half — the whole slab is one kernel that
            // reads *both* ghost planes, so the phase-1 exchange must
            // fully precede it instead of overlapping with it. The
            // per-edge protocol (old-buffer edges in phase 1, new-buffer
            // edges in phase 2, by parity) is unchanged, so a 2-plane
            // overlap slab neighboring a 1-plane slab still pairs.
            if even {
                host_exchange(
                    p, &q1, old, slab, slab.down, 1, 0, TAG_DOWN, TAG_UP, &stage1,
                );
            } else {
                host_exchange(
                    p,
                    &q1,
                    old,
                    slab,
                    slab.up,
                    slab.n,
                    slab.n + 1,
                    TAG_UP,
                    TAG_DOWN,
                    &stage1,
                );
            }
            let e = enqueue_half_kernel(
                &q0,
                "jacobi",
                old,
                new,
                slab,
                1,
                slab.n + 1,
                gosa.clone(),
                t,
                &[],
            );
            e.wait(&p.actor);
            if even {
                host_exchange(
                    p,
                    &q0,
                    new,
                    slab,
                    slab.up,
                    slab.n,
                    slab.n + 1,
                    TAG_UP,
                    TAG_DOWN,
                    &stage0,
                );
            } else {
                host_exchange(
                    p, &q0, new, slab, slab.down, 1, 0, TAG_DOWN, TAG_UP, &stage0,
                );
            }
            e_first_prev = Some(e.clone());
            e_second_prev = Some(e);
            continue;
        }
        let waits_first: Vec<Event> = e_second_prev.iter().cloned().collect();
        let mut waits_second: Vec<Event> = e_first_prev.iter().cloned().collect();
        // Phase 1: first-half kernel on q0; host exchanges the second
        // half's halo of `old` through q1 (which serializes after the
        // previous second-half kernel).
        let e_first = if even {
            enqueue_half_kernel(
                &q0,
                "jacobi A",
                old,
                new,
                slab,
                slab.ha,
                slab.n + 1,
                gosa.clone(),
                t,
                &waits_first,
            )
        } else {
            enqueue_half_kernel(
                &q0,
                "jacobi B",
                old,
                new,
                slab,
                1,
                slab.ha,
                gosa.clone(),
                t,
                &waits_first,
            )
        };
        if even {
            // B's halo: bottom ghost of `old` from the down neighbor.
            host_exchange(
                p, &q1, old, slab, slab.down, 1, 0, TAG_DOWN, TAG_UP, &stage1,
            );
        } else {
            // A's halo: top ghost of `old` from the up neighbor.
            host_exchange(
                p,
                &q1,
                old,
                slab,
                slab.up,
                slab.n,
                slab.n + 1,
                TAG_UP,
                TAG_DOWN,
                &stage1,
            );
        }
        // Phase 2: second-half kernel on q1; host exchanges the first
        // half's product (boundary of `new`) through q0.
        // Gate the second kernel on the first: a single compute engine
        // dispatches kernels in issue order on real GPUs, and the overlap
        // scheme relies on phase 1 executing first.
        waits_second.push(e_first.clone());
        let e_second = if even {
            enqueue_half_kernel(
                &q1,
                "jacobi B",
                old,
                new,
                slab,
                1,
                slab.ha,
                gosa.clone(),
                t,
                &waits_second,
            )
        } else {
            enqueue_half_kernel(
                &q1,
                "jacobi A",
                old,
                new,
                slab,
                slab.ha,
                slab.n + 1,
                gosa.clone(),
                t,
                &waits_second,
            )
        };
        if even {
            host_exchange(
                p,
                &q0,
                new,
                slab,
                slab.up,
                slab.n,
                slab.n + 1,
                TAG_UP,
                TAG_DOWN,
                &stage0,
            );
        } else {
            host_exchange(
                p, &q0, new, slab, slab.down, 1, 0, TAG_DOWN, TAG_UP, &stage0,
            );
        }
        e_first_prev = Some(e_first);
        e_second_prev = Some(e_second);
    }
    q0.finish(&p.actor);
    q1.finish(&p.actor);
    (0, 0)
}

/// Fig. 6 structure: one in-order queue, every dependency expressed as an
/// event, all calls non-blocking; the host thread only calls `clFinish`
/// at the end of each iteration.
fn run_clmpi(
    cfg: &HimenoConfig,
    p: &Process,
    rt: &ClMpi,
    slab: &Slab,
    bufs: &[Buffer; 2],
    gosa: &Arc<Vec<Mutex<f64>>>,
    block_each_iter: bool,
) -> (SimNs, SimNs) {
    let rank = p.rank();
    let even = rank.is_multiple_of(2);
    let q = rt.context().create_queue(0, format!("r{rank}q"));
    q.set_trace(p.comm.world().trace().clone(), format!("r{rank}.gpu"));
    // The face datatype, committed once per rank: the plane's interior
    // (mj−2)×(mk−2) f32 window at starts (1,1) — the only bytes the
    // neighbor's stencil reads.
    let face: Option<(CommittedType, PackMode)> = match cfg.halo {
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
    // Events of the previous iteration's exchanges and kernels.
    let mut e_phase2_xfer: Vec<Event> = Vec::new(); // gate next first kernel
    let mut e_first_prev: Option<Event> = None;
    let mut e_second_prev: Option<Event> = None;
    for t in 0..cfg.iters {
        let (old, new) = (&bufs[t % 2], &bufs[(t + 1) % 2]);
        if slab.n < 2 {
            // Degenerate slab: the whole slab is one kernel reading both
            // ghost planes, so the phase-1 exchange is enqueued *first*
            // and the kernel waits on it (plus the previous phase-2
            // exchange, which filled the other ghost). The per-edge
            // protocol by parity is the same as the overlap path, so
            // mixed worlds pair correctly; only the intra-rank ordering
            // changes. The previous whole-slab kernel produced the plane
            // x1 sends and last read the ghost x1 overwrites, so it is
            // x1's gate.
            let gate1: Vec<Event> = e_first_prev.iter().cloned().collect();
            let x1 = if even {
                exchange_clmpi(
                    rt, &q, p, old, slab, slab.down, 1, 0, TAG_DOWN, &gate1, face,
                )
            } else {
                exchange_clmpi(
                    rt,
                    &q,
                    p,
                    old,
                    slab,
                    slab.up,
                    slab.n,
                    slab.n + 1,
                    TAG_UP,
                    &gate1,
                    face,
                )
            };
            let mut w: Vec<Event> = std::mem::take(&mut e_phase2_xfer);
            w.extend(x1.iter().cloned());
            w.extend(e_first_prev.iter().cloned());
            let e = enqueue_half_kernel(
                &q,
                "jacobi",
                old,
                new,
                slab,
                1,
                slab.n + 1,
                gosa.clone(),
                t,
                &w,
            );
            let gate2 = vec![e.clone()];
            let x2 = if even {
                exchange_clmpi(
                    rt,
                    &q,
                    p,
                    new,
                    slab,
                    slab.up,
                    slab.n,
                    slab.n + 1,
                    TAG_UP,
                    &gate2,
                    face,
                )
            } else {
                exchange_clmpi(
                    rt, &q, p, new, slab, slab.down, 1, 0, TAG_DOWN, &gate2, face,
                )
            };
            e_phase2_xfer = x2;
            e_first_prev = Some(e.clone());
            e_second_prev = Some(e);
            q.finish(&p.actor);
            if block_each_iter {
                Event::wait_all(&x1, &p.actor);
                Event::wait_all(&e_phase2_xfer, &p.actor);
            }
            continue;
        }
        // Phase 1 kernel: waits the previous phase-2 exchange (it filled
        // the ghost this kernel reads / sent the planes it overwrites)
        // and the previous second-half kernel (internal boundary plane).
        let mut w1: Vec<Event> = std::mem::take(&mut e_phase2_xfer);
        w1.extend(e_second_prev.iter().cloned());
        let e_first = if even {
            enqueue_half_kernel(
                &q,
                "jacobi A",
                old,
                new,
                slab,
                slab.ha,
                slab.n + 1,
                gosa.clone(),
                t,
                &w1,
            )
        } else {
            enqueue_half_kernel(
                &q,
                "jacobi B",
                old,
                new,
                slab,
                1,
                slab.ha,
                gosa.clone(),
                t,
                &w1,
            )
        };
        // Phase 1 exchange on `old` (the other half's halo), gated on the
        // previous iteration's second-half kernel which produced the data.
        let gate1: Vec<Event> = e_second_prev.iter().cloned().collect();
        let x1 = if even {
            exchange_clmpi(
                rt, &q, p, old, slab, slab.down, 1, 0, TAG_DOWN, &gate1, face,
            )
        } else {
            exchange_clmpi(
                rt,
                &q,
                p,
                old,
                slab,
                slab.up,
                slab.n,
                slab.n + 1,
                TAG_UP,
                &gate1,
                face,
            )
        };
        // Phase 2 kernel: waits the phase-1 exchange (its ghost/planes)
        // and the previous first-half kernel (internal boundary).
        let mut w2: Vec<Event> = x1.clone();
        w2.extend(e_first_prev.iter().cloned());
        let e_second = if even {
            enqueue_half_kernel(
                &q,
                "jacobi B",
                old,
                new,
                slab,
                1,
                slab.ha,
                gosa.clone(),
                t,
                &w2,
            )
        } else {
            enqueue_half_kernel(
                &q,
                "jacobi A",
                old,
                new,
                slab,
                slab.ha,
                slab.n + 1,
                gosa.clone(),
                t,
                &w2,
            )
        };
        // Phase 2 exchange on `new` (first half's freshly computed
        // boundary), gated on this iteration's first kernel.
        let gate2 = vec![e_first.clone()];
        let x2 = if even {
            exchange_clmpi(
                rt,
                &q,
                p,
                new,
                slab,
                slab.up,
                slab.n,
                slab.n + 1,
                TAG_UP,
                &gate2,
                face,
            )
        } else {
            exchange_clmpi(
                rt, &q, p, new, slab, slab.down, 1, 0, TAG_DOWN, &gate2, face,
            )
        };
        e_phase2_xfer = x2;
        e_first_prev = Some(e_first);
        e_second_prev = Some(e_second);
        // The host's only synchronization: drain the queue (kernels); the
        // exchanges keep flowing on their event chains (paper Fig. 4(c)).
        q.finish(&p.actor);
        if block_each_iter {
            // Ablation: serialize the host on every exchange completion.
            Event::wait_all(&x1, &p.actor);
            Event::wait_all(&e_phase2_xfer, &p.actor);
        }
    }
    // Drain the final exchanges before validation.
    Event::wait_all(&e_phase2_xfer, &p.actor);
    (0, 0)
}

/// One clMPI halo exchange: `enqueue_send_buffer` of the boundary plane
/// and `enqueue_recv_buffer` into the ghost plane, both gated on `gate`.
/// Returns the exchange's events (empty if no neighbor).
#[allow(clippy::too_many_arguments)]
pub(crate) fn exchange_clmpi(
    rt: &ClMpi,
    q: &CommandQueue,
    p: &Process,
    buf: &Buffer,
    slab: &Slab,
    neighbor: Option<usize>,
    send_plane: usize,
    ghost_plane: usize,
    dir_tag: Tag,
    gate: &[Event],
    face: Option<&(CommittedType, PackMode)>,
) -> Vec<Event> {
    let Some(nb) = neighbor else {
        return Vec::new();
    };
    // Tag convention: a plane travelling down is sent with TAG_DOWN and
    // received (from the up-neighbor's perspective) with TAG_DOWN too.
    let (send_tag, recv_tag) = if dir_tag == TAG_DOWN {
        (TAG_DOWN, TAG_UP)
    } else {
        (TAG_UP, TAG_DOWN)
    };
    if let Some((ty, mode)) = face {
        // Datatype path: ship only the plane's interior window; the
        // runtime packs it per `mode` (host gather / device pack kernel).
        let es = rt
            .enqueue_send_datatype(
                q,
                buf,
                false,
                slab.plane_off(send_plane),
                ty,
                *mode,
                nb,
                send_tag,
                gate,
                &p.actor,
            )
            .expect("send boundary face");
        let er = rt
            .enqueue_recv_datatype(
                q,
                buf,
                false,
                slab.plane_off(ghost_plane),
                ty,
                *mode,
                nb,
                recv_tag,
                gate,
                &p.actor,
            )
            .expect("recv ghost face");
        return vec![es, er];
    }
    let es = rt
        .enqueue_send_buffer(
            q,
            buf,
            false,
            slab.plane_off(send_plane),
            slab.plane_bytes,
            nb,
            send_tag,
            gate,
            &p.actor,
        )
        .expect("send boundary plane");
    let er = rt
        .enqueue_recv_buffer(
            q,
            buf,
            false,
            slab.plane_off(ghost_plane),
            slab.plane_bytes,
            nb,
            recv_tag,
            gate,
            &p.actor,
        )
        .expect("recv ghost plane");
    vec![es, er]
}

/// GPU-aware-MPI comparator (paper §II): the same two-queue overlap
/// structure as the hand-optimized code, but halo exchanges are direct
/// MPI-on-device-buffer calls ([`ClMpi::gpu_aware_send`] /
/// [`ClMpi::gpu_aware_recv`]) — no manual staging, optimized transfer
/// paths — executed by the host thread, which must first wait on the
/// producing kernel's event (the serialization clMPI's events remove).
fn run_gpu_aware(
    cfg: &HimenoConfig,
    p: &Process,
    rt: &ClMpi,
    slab: &Slab,
    bufs: &[Buffer; 2],
    gosa: &Arc<Vec<Mutex<f64>>>,
) -> (SimNs, SimNs) {
    let rank = p.rank();
    let even = rank.is_multiple_of(2);
    let q0 = rt.context().create_queue(0, format!("r{rank}q0"));
    let q1 = rt.context().create_queue(0, format!("r{rank}q1"));
    let mut e_first_prev: Option<Event> = None;
    let mut e_second_prev: Option<Event> = None;
    for t in 0..cfg.iters {
        let (old, new) = (&bufs[t % 2], &bufs[(t + 1) % 2]);
        if slab.n < 2 {
            // Degenerate slab: exchange first (the whole-slab kernel
            // reads both ghosts), same per-edge protocol as the overlap
            // path. The previous kernel produced the plane this exchange
            // sends, so the host waits on it first (§II's limitation).
            if let Some(e) = &e_first_prev {
                e.wait(&p.actor);
            }
            if even {
                exchange_gpu_aware(rt, &q1, p, old, slab, slab.down, 1, 0, TAG_DOWN);
            } else {
                exchange_gpu_aware(rt, &q1, p, old, slab, slab.up, slab.n, slab.n + 1, TAG_UP);
            }
            let e = enqueue_half_kernel(
                &q0,
                "jacobi",
                old,
                new,
                slab,
                1,
                slab.n + 1,
                gosa.clone(),
                t,
                &[],
            );
            e.wait(&p.actor);
            if even {
                exchange_gpu_aware(rt, &q0, p, new, slab, slab.up, slab.n, slab.n + 1, TAG_UP);
            } else {
                exchange_gpu_aware(rt, &q0, p, new, slab, slab.down, 1, 0, TAG_DOWN);
            }
            e_first_prev = Some(e.clone());
            e_second_prev = Some(e);
            continue;
        }
        let waits_first: Vec<Event> = e_second_prev.iter().cloned().collect();
        let e_first = if even {
            enqueue_half_kernel(
                &q0,
                "jacobi A",
                old,
                new,
                slab,
                slab.ha,
                slab.n + 1,
                gosa.clone(),
                t,
                &waits_first,
            )
        } else {
            enqueue_half_kernel(
                &q0,
                "jacobi B",
                old,
                new,
                slab,
                1,
                slab.ha,
                gosa.clone(),
                t,
                &waits_first,
            )
        };
        // Phase-1 exchange on `old`: the host must wait for the kernel
        // that produced the boundary plane (§II's limitation), then the
        // GPU-aware MPI calls transfer device memory directly.
        if let Some(e) = &e_second_prev {
            e.wait(&p.actor);
        }
        if even {
            exchange_gpu_aware(rt, &q1, p, old, slab, slab.down, 1, 0, TAG_DOWN);
        } else {
            exchange_gpu_aware(rt, &q1, p, old, slab, slab.up, slab.n, slab.n + 1, TAG_UP);
        }
        let mut waits_second: Vec<Event> = e_first_prev.iter().cloned().collect();
        waits_second.push(e_first.clone());
        let e_second = if even {
            enqueue_half_kernel(
                &q1,
                "jacobi B",
                old,
                new,
                slab,
                1,
                slab.ha,
                gosa.clone(),
                t,
                &waits_second,
            )
        } else {
            enqueue_half_kernel(
                &q1,
                "jacobi A",
                old,
                new,
                slab,
                slab.ha,
                slab.n + 1,
                gosa.clone(),
                t,
                &waits_second,
            )
        };
        // Phase-2 exchange on `new`: wait the first kernel, then transfer.
        e_first.wait(&p.actor);
        if even {
            exchange_gpu_aware(rt, &q0, p, new, slab, slab.up, slab.n, slab.n + 1, TAG_UP);
        } else {
            exchange_gpu_aware(rt, &q0, p, new, slab, slab.down, 1, 0, TAG_DOWN);
        }
        e_first_prev = Some(e_first);
        e_second_prev = Some(e_second);
    }
    q0.finish(&p.actor);
    q1.finish(&p.actor);
    (0, 0)
}

/// One GPU-aware halo exchange: blocking device-buffer send + receive on
/// the host thread.
#[allow(clippy::too_many_arguments)]
fn exchange_gpu_aware(
    rt: &ClMpi,
    q: &CommandQueue,
    p: &Process,
    buf: &Buffer,
    slab: &Slab,
    neighbor: Option<usize>,
    send_plane: usize,
    ghost_plane: usize,
    dir_tag: Tag,
) {
    let Some(nb) = neighbor else { return };
    let (send_tag, recv_tag) = if dir_tag == TAG_DOWN {
        (TAG_DOWN, TAG_UP)
    } else {
        (TAG_UP, TAG_DOWN)
    };
    rt.gpu_aware_send(
        &p.actor,
        q,
        buf,
        slab.plane_off(send_plane),
        slab.plane_bytes,
        nb,
        send_tag,
    )
    .expect("gpu-aware send");
    rt.gpu_aware_recv(
        &p.actor,
        q,
        buf,
        slab.plane_off(ghost_plane),
        slab.plane_bytes,
        nb,
        recv_tag,
    )
    .expect("gpu-aware recv");
}
