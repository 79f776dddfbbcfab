//! Distributed nanopowder simulation: baseline vs clMPI distribution.

use std::sync::Arc;

use clmpi::{ClMpi, SystemConfig};
use minicl::HostBuffer;
use minimpi::datatype::{bytes_to_f32, f32_as_bytes};
use minimpi::{run_world_tasks, FaultPlan, Process, Tag};
use simtime::plock::Mutex;
use simtime::SimNs;

use crate::model::{check_sections, coagulation_step, pair_count, NanoModel};

const TAG_N: Tag = 200; // concentration broadcast
const TAG_C: Tag = 201; // coefficient block distribution
const TAG_DN: Tag = 202; // rate gather

/// Coefficient rows the clMPI root computes at a time and lands in its
/// pinned stage: 128 KiB at K = 2048, each element written once, into
/// the allocation the stage and the root's device buffer share.
const STAGE_ROWS: usize = 16;

/// Virtual time of the serial host phase (nucleation, condensation, and
/// the rest of the host-resident physics) per step. Calibrated so the
/// host-resident physics is ~10% of the serial step — the paper reports
/// that coagulation is "about 90% of the total execution time of the
/// original code".
pub const HOST_PHASE_NS: SimNs = 40_000_000;

/// Arithmetic per pair interaction charged to the device: collision
/// kernel application plus the sectional redistribution of collision
/// products (interpolation weights across target sections).
pub const FLOPS_PER_PAIR: f64 = 600.0;

/// Device efficiency for this irregular, indirectly-indexed kernel — a
/// few percent of peak on the GT200 generation. Together with
/// [`FLOPS_PER_PAIR`] this puts the K=3240 coagulation at ≈380 ms/step on
/// one Tesla C1060, making it ~90% of the serial step as in the paper.
pub const COAG_EFFICIENCY: f64 = 0.04;

/// Which distribution implementation to run (paper §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanoVariant {
    /// Plain `MPI_Isend`/`MPI_Recv` into pageable host memory, then a
    /// blocking `clEnqueueWriteBuffer`.
    Baseline,
    /// `clEnqueueBcastBuffer`: one pipelined device-buffer broadcast per
    /// step (ring/tree store-and-forward), kernel event-chained to it.
    ClMpi,
    /// The pre-collective clMPI shape: per-rank `MPI_Isend(MPI_CL_MEM)` +
    /// `clEnqueueRecvBuffer` fan-out, serialized on rank 0's NIC. Kept as
    /// a named variant so benches can show what the broadcast buys.
    ClMpiFanout,
}

impl NanoVariant {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NanoVariant::Baseline => "baseline",
            NanoVariant::ClMpi => "clMPI",
            NanoVariant::ClMpiFanout => "clMPI-fanout",
        }
    }
}

/// Parameters of one simulation run.
#[derive(Clone)]
pub struct NanoConfig {
    /// Size sections; `sections² × 4 B` is the per-step coefficient
    /// volume (3240 → ≈42 MB as in the paper).
    pub sections: usize,
    /// Simulation steps.
    pub steps: usize,
    /// System preset (the paper evaluates on RICC).
    pub sys: SystemConfig,
    /// Ranks; must divide `sections` (the paper required a divisor of 40).
    pub nodes: usize,
}

/// Measured output.
#[derive(Debug, Clone)]
pub struct NanoResult {
    /// Average virtual time per simulation step; 0 for a run of no steps.
    pub step_ns: SimNs,
    /// Total virtual time of the timed loop.
    pub total_ns: SimNs,
    /// Final concentration vector (rank 0's state) for validation.
    pub final_n: Vec<f32>,
    /// Scheduler machine transitions over the whole run (simulator
    /// self-throughput numerator; independent of the poll order).
    pub sched_events: u64,
    /// The clock's wake accounting over the whole run. The ranks run as
    /// tasks on one thread, so it repeats exactly ([`simtime::WakeStats`]).
    pub wake: simtime::WakeStats,
}

/// Run `variant` under `cfg`. Every rank runs as a task
/// ([`run_world_tasks`]), so the calling thread drives the whole world.
/// Panics on the calling thread, before any world exists, if
/// `cfg.sections` exceeds 46,340 (see [`NanoModel::new`]) or `cfg.nodes`
/// does not divide it.
pub fn run_nanopowder(variant: NanoVariant, cfg: NanoConfig) -> NanoResult {
    check_sections(cfg.sections);
    assert!(
        cfg.sections.is_multiple_of(cfg.nodes),
        "nodes ({}) must divide sections ({})",
        cfg.nodes,
        cfg.sections
    );
    let cluster = cfg.sys.cluster.clone();
    let nodes = cfg.nodes;
    let steps = cfg.steps;
    let cfg = Arc::new(cfg);
    let res = run_world_tasks(cluster, nodes, FaultPlan::none(), |p: Process| {
        rank_main(variant, cfg.clone(), p)
    });
    let total_ns = res
        .outputs
        .iter()
        .map(|(t, _)| *t)
        .max()
        .unwrap_or(1)
        .max(1);
    let final_n = res.outputs[0].1.clone().expect("rank 0 returns state");
    NanoResult {
        step_ns: total_ns.checked_div(steps as u64).unwrap_or(0),
        total_ns,
        final_n,
        sched_events: res.events,
        wake: res.wake,
    }
}

type RankOut = (SimNs, Option<Vec<f32>>);

/// One rank's body, run as a task ([`run_world_tasks`]): it waits with
/// `.await` wherever the paper's host thread blocks.
async fn rank_main(variant: NanoVariant, cfg: Arc<NanoConfig>, p: Process) -> RankOut {
    let cfg = &*cfg;
    let rank = p.rank();
    let nodes = cfg.nodes;
    let k = cfg.sections;
    let rows = k / nodes;
    let (r0, r1) = (rank * rows, (rank + 1) * rows);
    // The application distributes the FULL coefficient matrix to every
    // node each step (the paper's exposed 42 MB/step/node transfer); the
    // kernel then indexes its own row block.
    let full_bytes = k * k * 4;

    let rt = ClMpi::new(&p, cfg.sys.clone());
    let ctx = rt.context().clone();
    let q = ctx.create_queue(0, format!("r{rank}q"));
    let c_dev = ctx.create_buffer(full_bytes);
    let n_dev = ctx.create_buffer(k * 4);
    let dn_dev = ctx.create_buffer(rows * 4);
    let n_stage = HostBuffer::pinned(k * 4);
    let dn_stage = HostBuffer::pinned(rows * 4);
    // Baseline stages coefficients through pageable memory (the naive
    // pattern); the collective path pins its staging buffer once, as the
    // real application would, to seed the device-resident broadcast.
    // Only ranks that stage coefficients get the 4·K² bytes: every rank
    // in the baseline, the root alone under the broadcast, nobody under
    // the fan-out (its receives land in device memory).
    let c_stage = match variant {
        NanoVariant::Baseline => HostBuffer::pageable(full_bytes),
        NanoVariant::ClMpi if rank == 0 => HostBuffer::pinned(full_bytes),
        NanoVariant::ClMpi | NanoVariant::ClMpiFanout => HostBuffer::pageable(0),
    };

    // Rank 0 owns the model; workers only hold per-step snapshots.
    let mut model = (rank == 0).then(|| NanoModel::new(k));
    // Workers need the base kernel too — in the real application each
    // node has the code but the *scaled per-step coefficients* must come
    // from the host thread; only rank 0 computes them here.

    let kernel_cost = {
        let pairs = pair_count(k, r0, r1);
        ctx.device(0)
            .spec()
            .compute_kernel_ns(pairs as f64 * FLOPS_PER_PAIR, COAG_EFFICIENCY)
    };

    p.comm.barrier_async(&p.actor).await;
    let t0 = p.actor.now_ns();
    for step in 0..cfg.steps {
        // --- Host phase + distribution (rank 0) ---
        let mut c_write = None;
        if let Some(m) = model.as_mut() {
            m.host_phase(step);
            let host_done = p.actor.now_ns() + HOST_PHASE_NS;
            p.clock().sleep_until(host_done).await;
            for r in 1..nodes {
                let _ = p.comm.isend(&p.actor, r, TAG_N, f32_as_bytes(&m.n));
            }
            match variant {
                NanoVariant::Baseline => {
                    let full = m.scaled_rows(step, 0, k);
                    for r in 0..nodes {
                        let _ = p.comm.isend(&p.actor, r, TAG_C, f32_as_bytes(&full));
                    }
                }
                NanoVariant::ClMpiFanout => {
                    let full = m.scaled_rows(step, 0, k);
                    for r in 0..nodes {
                        let _ = rt.isend_cl_async(r, TAG_C, f32_as_bytes(&full)).await;
                    }
                }
                NanoVariant::ClMpi => {
                    // Compute a row block at a time and land each in the
                    // stage by reference; the write below then lands the
                    // same blocks in the root's own device buffer, and the
                    // broadcast fans them out chunk-pipelined.
                    for b0 in (0..k).step_by(STAGE_ROWS) {
                        let block = m.scaled_row_bytes(step, b0, (b0 + STAGE_ROWS).min(k));
                        c_stage
                            .land(b0 * k * 4, Arc::new(block))
                            .expect("row block fits the stage");
                    }
                    c_write = Some(
                        q.enqueue_write_buffer(
                            &p.actor,
                            &c_dev,
                            false,
                            0,
                            full_bytes,
                            &c_stage,
                            0,
                            &[],
                        )
                        .expect("stage coefficients"),
                    );
                }
            }
        }
        // --- Worker phase (every rank, including 0) ---
        let n_local: Vec<f32> = if rank == 0 {
            model.as_ref().expect("rank 0 model").n.clone()
        } else {
            let got = p.comm.recv_async(&p.actor, Some(0), Some(TAG_N)).await;
            bytes_to_f32(&got.data)
        };
        n_stage
            .store(0, f32_as_bytes(&n_local))
            .expect("concentrations fit");
        let e_n = q
            .enqueue_write_buffer(&p.actor, &n_dev, false, 0, k * 4, &n_stage, 0, &[])
            .expect("write concentrations");
        let e_c = match variant {
            NanoVariant::Baseline => {
                // Blocking recv to pageable host memory, then a blocking
                // staged write — the conventional pattern.
                let got = p.comm.recv_async(&p.actor, Some(0), Some(TAG_C)).await;
                assert_eq!(got.data.len(), full_bytes);
                c_stage.store(0, &got.data).expect("coefficients fit");
                q.enqueue_write_buffer(&p.actor, &c_dev, false, 0, full_bytes, &c_stage, 0, &[])
                    .expect("write coefficients")
            }
            NanoVariant::ClMpiFanout => rt
                .enqueue_recv_buffer(&q, &c_dev, false, 0, full_bytes, 0, TAG_C, &[], &p.actor)
                .expect("recv coefficients"),
            NanoVariant::ClMpi => {
                let wl: Vec<_> = c_write.take().into_iter().collect();
                rt.enqueue_bcast_buffer(&q, &c_dev, 0, full_bytes, 0, TAG_C, &wl, &p.actor)
                    .expect("broadcast coefficients")
            }
        };
        // Coagulation kernel, gated on its inputs.
        let dn_shared = Arc::new(Mutex::new(Vec::new()));
        let (c2, n2, d2, dns) = (
            c_dev.clone(),
            n_dev.clone(),
            dn_dev.clone(),
            dn_shared.clone(),
        );
        let e_k = q.enqueue_kernel("coagulation", kernel_cost, &[e_n, e_c], move || {
            let mut out = vec![0.0f32; r1 - r0];
            // Only this rank's row block is copied out of the coefficients:
            // a broadcast landed them by reference, and nobody else reads
            // the other `nodes − 1` blocks here. The copy is aligned, so
            // the kernel reads it as `f32`s in place.
            let block = c2.load(r0 * k * 4, rows * k * 4).expect("row block fits");
            n2.read(|nb| coagulation_step(block.as_f32(), nb.as_f32(), r0, r1, &mut out));
            d2.store(0, f32_as_bytes(&out)).expect("dn fits");
            *dns.lock() = out;
        });
        // Read rates back (the host waits for it, after the kernel) and
        // gather.
        q.enqueue_read_buffer(&p.actor, &dn_dev, false, 0, rows * 4, &dn_stage, 0, &[e_k])
            .expect("read rates")
            .settled()
            .await;
        if rank == 0 {
            let m = model.as_mut().expect("rank 0 model");
            let mut dn_all = vec![0.0f32; k];
            dn_all[r0..r1].copy_from_slice(&dn_shared.lock());
            for _ in 1..nodes {
                let got = p.comm.recv_async(&p.actor, None, Some(TAG_DN)).await;
                let src = got.status.source;
                dn_all[src * rows..(src + 1) * rows].copy_from_slice(&bytes_to_f32(&got.data));
            }
            m.integrate(&dn_all);
        } else {
            // The send snapshots the staged rates under the buffer's lock
            // and is waited for outside it.
            dn_stage
                .read(|h| p.comm.isend(&p.actor, 0, TAG_DN, h.as_slice()))
                .wait_async()
                .await;
        }
    }
    rt.shutdown_async().await;
    p.comm.barrier_async(&p.actor).await;
    let total = p.actor.now_ns() - t0;
    (total, model.map(|m| m.n))
}
