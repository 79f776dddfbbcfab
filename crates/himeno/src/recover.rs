//! Rank-failure recovery for the Himeno solver: the full ULFM-style
//! loop over the clMPI stack.
//!
//! The run proceeds in *epochs*. Epoch 0 is the normal solve on the
//! world communicator, with a crash-consistent device checkpoint
//! ([`clmpi::ClMpi::enqueue_checkpoint_buffer`]) of every rank's slab to
//! shared storage every `ckpt_every` iterations. The per-iteration
//! residual allreduce doubles as the failure detector: when a node is
//! killed, every survivor's next collective or halo exchange poisons
//! with a bounded-time error instead of hanging.
//!
//! On the first error, a survivor runs the recovery protocol:
//!
//! 1. quiesce its runtime ([`clmpi::ClMpi::shutdown`] — in-flight
//!    machines abort-and-poison, nothing leaks),
//! 2. classify ([`clmpi::ClMpi::failed_ranks`]), notify, and revoke,
//! 3. `shrink` to the dense survivor communicator,
//! 4. agree — bitwise-AND over the survivors — on the newest checkpoint
//!    slot whose files *all* validate (a slot torn by the kill never
//!    wins, because [`clmpi::decode_checkpoint`] rejects it somewhere),
//! 5. rebuild a fresh runtime on the shrunken communicator, re-decompose
//!    the grid over the survivors, reassemble each new slab from the
//!    epoch-0 checkpoints ([`clmpi::ClMpi::enqueue_restore_buffer`]),
//! 6. resume the solve from the agreed slot (epoch 1).
//!
//! The killed rank observes its own death (every operation it issues
//! errors once virtual time passes the kill instant), shuts its runtime
//! down, and exits — it never joins the shrink.
//!
//! Restored state is bitwise-identical to the checkpointed state, so a
//! recovered run converges to the same residual as a fault-free one up
//! to f64 summation order (the survivor decomposition differs).
//!
//! A kill inside the *last* iteration can leave some survivors clean
//! (their machines finished before the fast-fail check saw the death)
//! while others fail, so whether to recover is itself decided by a
//! fault-tolerant agreement over every survivor's verdict — it doubles
//! as the final synchronization of a clean run. Scope: kills that land
//! after the warm-up barrier (the plain-MPI barrier that aligns rank
//! start times is not fault-tolerant).

use std::sync::{Arc, OnceLock};

use clmpi::{decode_checkpoint, ClMpi, ReduceOp, SimStorage, SystemConfig};
use minicl::{Buffer, ClError, CommandQueue};
use minimpi::datatype::f32_as_bytes;
use minimpi::{run_world_faulty, Comm, FaultPlan, Process, Tag};
use simtime::SimNs;

use crate::grid::{init_planes, GridSize, InitPlanes};
use crate::run::{HimenoConfig, RankCx, Residuals, Slab};

/// User tag of the per-iteration residual allreduce.
const TAG_GOSA: Tag = 7;

/// Patience for the post-failure agreement rounds (virtual time). Long
/// enough that the slowest survivor — one waiting out a collective
/// deadline before it notices the failure — still joins.
const PATIENCE: SimNs = 5_000_000_000;

/// Parameters of a recoverable Himeno run.
#[derive(Clone)]
pub struct RecoverConfig {
    /// Grid size.
    pub size: GridSize,
    /// Timed Jacobi iterations.
    pub iters: usize,
    /// System preset.
    pub sys: SystemConfig,
    /// Initial number of ranks/nodes.
    pub nodes: usize,
    /// Checkpoint after every `ckpt_every`-th iteration (the slab of
    /// iteration `t` is checkpointed when `(t + 1) % ckpt_every == 0`);
    /// 0 never checkpoints, so a recovery restarts from the initial field.
    /// At most 64 iterations may be checkpointed.
    pub ckpt_every: usize,
}

impl RecoverConfig {
    /// The solve every epoch runs, over the initial world.
    fn himeno(&self) -> HimenoConfig {
        HimenoConfig {
            size: self.size,
            iters: self.iters,
            sys: self.sys.clone(),
            nodes: self.nodes,
            strategy: None,
            halo: Default::default(),
        }
    }

    /// The checkpointed iterations, oldest first.
    fn ckpt_slots(&self) -> Vec<usize> {
        (0..self.iters)
            .filter(|t| (t + 1).is_multiple_of(self.ckpt_every))
            .collect()
    }
}

/// Outcome of a recoverable run.
#[derive(Debug, Clone)]
pub struct RecoverResult {
    /// Final-iteration residual (the device allreduce every survivor
    /// holds a copy of).
    pub gosa: f64,
    /// Order-tolerant checksum of the final interior pressure field,
    /// summed over survivors.
    pub checksum: f64,
    /// Ranks still alive at the end.
    pub survivors: usize,
    /// True if the run went through the shrink-and-resume protocol.
    pub recovered: bool,
    /// Checkpoint slot (iteration index) the survivors resumed *after*;
    /// `None` if they restarted from the initial state (or never
    /// recovered at all).
    pub resumed_from: Option<usize>,
    /// Virtual time of the timed loop, max over survivors.
    pub elapsed_ns: SimNs,
    /// Activity trace of the run.
    pub trace: simtime::Trace,
    /// Fabric-level fault counters.
    pub fault_counts: minimpi::FaultCounts,
    /// clMPI runtime fault counters summed over survivors (both the
    /// epoch-0 and the rebuilt runtime).
    pub transfer_faults: clmpi::FaultStats,
}

enum RankOut {
    /// This rank's node was killed; it shut down and exited.
    Dead,
    Alive {
        gosa: f64,
        checksum: f64,
        recovered: bool,
        resumed_from: Option<usize>,
        loop_ns: SimNs,
        faults: clmpi::FaultStats,
    },
}

/// Run the recoverable Himeno solve under `plan`. With a
/// [`FaultPlan::none`] plan this is an ordinary (checkpointing) solve;
/// with a node-kill schedule the survivors shrink, restore, and finish.
///
/// # Panics
/// On the calling thread, before the world is launched, if `cfg.size` has
/// a dimension below 3 (no interior point), or if `cfg` checkpoints more
/// than 64 iterations (the survivors agree on a resume slot through one
/// `u64` mask).
pub fn run_himeno_recover(cfg: RecoverConfig, plan: FaultPlan) -> RecoverResult {
    cfg.size.solve_dims();
    let slots = cfg.ckpt_slots().len();
    assert!(
        slots <= 64,
        "{} iterations checkpointed every {} make {slots} checkpoint slots: at most 64 fit the resume agreement's mask",
        cfg.iters,
        cfg.ckpt_every
    );
    let cluster = cfg.sys.cluster.clone();
    let nodes = cfg.nodes;
    let cfg = Arc::new(cfg);
    // One storage instance shared by every rank: the shared-PFS model
    // (checkpoints must survive their writer's node).
    let storage: Arc<OnceLock<SimStorage>> = Arc::new(OnceLock::new());
    // One table of initial planes for the run: both epochs' slabs, however
    // they decompose the grid, land its allocations.
    let planes = Arc::new(InitPlanes::new(cfg.size));
    let res = run_world_faulty(cluster, nodes, plan, move |p: Process| {
        let storage = storage
            .get_or_init(|| SimStorage::node_local_disk(p.clock().clone()))
            .clone();
        rank_recover(&cfg, storage, &planes, p)
    });
    let mut out = RecoverResult {
        gosa: 0.0,
        checksum: 0.0,
        survivors: 0,
        recovered: false,
        resumed_from: None,
        elapsed_ns: 1,
        trace: res.trace,
        fault_counts: res.fault_counts,
        transfer_faults: clmpi::FaultStats::default(),
    };
    for o in &res.outputs {
        let RankOut::Alive {
            gosa,
            checksum,
            recovered,
            resumed_from,
            loop_ns,
            faults,
        } = o
        else {
            continue;
        };
        out.survivors += 1;
        // Every survivor holds the same allreduced residual.
        out.gosa = *gosa;
        out.checksum += checksum;
        out.recovered |= recovered;
        out.resumed_from = out.resumed_from.or(*resumed_from);
        out.elapsed_ns = out.elapsed_ns.max(*loop_ns);
        out.transfer_faults = out.transfer_faults.merge(*faults);
    }
    out
}

/// Steps 2 and 3 of the protocol: classify the failed ranks, notify and
/// revoke, then shrink `rt`'s communicator to the survivors.
fn shrink(rt: &ClMpi, p: &Process) -> Comm {
    for r in rt.failed_ranks(p.actor.now_ns()) {
        rt.notify_proc_failure(r);
    }
    rt.revoke();
    rt.shrink_comm(&p.actor, PATIENCE)
        .expect("survivors agree on the shrunken communicator")
}

fn ckpt_path(epoch: usize, grank: usize, iter: usize) -> String {
    format!("ckpt/e{epoch}/r{grank}/i{iter}")
}

/// One solver iteration on whichever communicator `cx.rt` is built on:
/// full-slab kernel, halo exchanges of the freshly-written buffer, the
/// residual allreduce (the failure detector), and — on checkpoint
/// iterations — a crash-consistent slab checkpoint. Any rank failure
/// surfaces here as an `Err` within bounded virtual time.
fn step_iter(
    cx: &RankCx,
    q: &CommandQueue,
    gbuf: &Buffer,
    storage: &SimStorage,
    t: usize,
    epoch: usize,
    ckpt_every: usize,
) -> Result<f64, ClError> {
    let (rt, actor, slab) = (cx.rt, &cx.p.actor, &cx.slab);
    let (_, new) = cx.generation(t);
    // Kernels are local; they never fail.
    cx.enqueue_half_kernel(q, &slab.whole(), t, &[]).wait(actor);
    // Both exchanges enqueued before any wait (non-blocking pairs).
    let x_down = cx.exchange_clmpi(q, new, &slab.edge_down(), &[], None);
    let x_up = cx.exchange_clmpi(q, new, &slab.edge_up(), &[], None);
    for e in x_down.iter().chain(x_up.iter()) {
        e.wait_result(actor)?;
    }
    // Residual allreduce: one f64 cell through the device collective.
    gbuf.store(0, &cx.residual(t).to_le_bytes())
        .expect("8-byte gosa cell");
    let ea = rt.enqueue_allreduce_buffer(q, gbuf, 0, 1, ReduceOp::Sum, TAG_GOSA, &[], actor)?;
    ea.wait_result(actor)?;
    let g = f64::from_le_bytes(
        gbuf.load(0, 8)
            .expect("8-byte gosa cell")
            .as_slice()
            .try_into()
            .expect("sliced"),
    );
    // A rank that owns no plane holds no state to checkpoint (its buffers
    // are empty: `RankCx::new`), and restores none.
    if slab.n > 0 && (t + 1).is_multiple_of(ckpt_every) {
        let path = ckpt_path(epoch, cx.p.rank(), t);
        let ec =
            rt.enqueue_checkpoint_buffer(q, new, 0, slab.slab_bytes(), storage, path, &[], actor)?;
        ec.wait_result(actor)?;
    }
    Ok(g)
}

fn rank_recover(
    cfg: &RecoverConfig,
    storage: SimStorage,
    planes: &InitPlanes,
    p: Process,
) -> RankOut {
    let hcfg = cfg.himeno();
    let me = p.rank();
    let rt = ClMpi::new(&p, cfg.sys.clone());
    let cx = RankCx::new(&hcfg, &p, &rt, me, Residuals::Every, planes);
    let gbuf = rt.context().create_buffer(8);
    let q = cx.traced_queue("q", "gpu");

    p.comm.barrier(&p.actor);
    let t0 = p.actor.now_ns();

    // ---- Epoch 0: the normal solve ------------------------------------
    let mut failed_at = None;
    let mut last_gosa = 0.0;
    for t in 0..cfg.iters {
        match step_iter(&cx, &q, &gbuf, &storage, t, 0, cfg.ckpt_every) {
            Ok(g) => last_gosa = g,
            Err(_) => {
                failed_at = Some(t);
                break;
            }
        }
    }

    // ---- Quiesce, then decide — by agreement — whether to recover -------
    rt.shutdown(&p.actor);
    if p.comm.world().node_down_at(me, p.actor.now_ns()) {
        // The error was this rank's own death. Exit without joining the
        // survivors' protocol.
        return RankOut::Dead;
    }
    // A kill inside the *last* iteration can leave some survivors clean
    // while others fail, so whether to recover must itself be agreed on
    // (the agreement tolerates the dead rank and doubles as the final
    // synchronization of a clean run).
    let clean = p
        .comm
        .agree(&p.actor, u64::from(failed_at.is_none()), PATIENCE)
        .expect("completion agreement");
    if clean == 1 {
        let loop_ns = p.actor.now_ns() - t0;
        return RankOut::Alive {
            gosa: last_gosa,
            checksum: cx.checksum(),
            recovered: false,
            resumed_from: None,
            loop_ns,
            faults: rt.obs_counters().faults,
        };
    }

    // ---- Recovery: classify, revoke, shrink -----------------------------
    let sub = shrink(&rt, &p);

    // ---- Agree on the newest globally-valid checkpoint slot ------------
    // At most 64 slots: `run_himeno_recover` refuses more.
    let slots = cfg.ckpt_slots();
    let mut mask = 0u64;
    for (j, &slot) in slots.iter().enumerate() {
        let all_ok = (0..cfg.nodes).all(|g| {
            let s0 = Slab::new(&hcfg, g);
            s0.n == 0
                || match storage.read_file(&ckpt_path(0, g, slot)) {
                    Some(f) => {
                        matches!(decode_checkpoint(&f), Ok(pl) if pl.len() == s0.slab_bytes())
                    }
                    None => false,
                }
        });
        if all_ok {
            mask |= 1 << j;
        }
    }
    let agreed = sub
        .agree(&p.actor, mask, PATIENCE)
        .expect("survivors agree on the resume slot");
    let resume_slot = (0..64)
        .rev()
        .find(|b| agreed >> b & 1 == 1)
        .map(|b| slots[b]);
    let resume_iter = resume_slot.map_or(0, |s| s + 1);

    // ---- Rebuild on the survivor communicator ---------------------------
    // A fresh context also means fresh residual cells: the aborted epoch's
    // may hold partial sums of the iterations being recomputed.
    let rt2 = ClMpi::with_comm(sub.clone(), cfg.sys.clone());
    let cfg2 = HimenoConfig {
        nodes: sub.size(),
        ..hcfg.clone()
    };
    let cx2 = RankCx::new(&cfg2, &p, &rt2, sub.rank(), Residuals::Every, planes);
    let gbuf2 = rt2.context().create_buffer(8);
    let q2 = cx2.traced_queue("q2", "gpu");

    if let Some(slot) = resume_slot.filter(|_| cx2.slab.n > 0) {
        let (target, _) = cx2.generation(resume_iter);
        restore_slab(&hcfg, &cx2, &q2, &storage, slot, target);
    }

    // ---- Epoch 1: resume ------------------------------------------------
    let mut last2 = last_gosa;
    for t in resume_iter..cfg.iters {
        last2 = step_iter(&cx2, &q2, &gbuf2, &storage, t, 1, cfg.ckpt_every)
            .expect("recovered run completes");
    }
    rt2.shutdown(&p.actor);
    sub.barrier(&p.actor);
    let loop_ns = p.actor.now_ns() - t0;
    RankOut::Alive {
        gosa: last2,
        checksum: cx2.checksum(),
        recovered: true,
        resumed_from: resume_slot,
        loop_ns,
        faults: rt.obs_counters().faults.merge(rt2.obs_counters().faults),
    }
}

/// Reassemble this survivor's new slab (`cx2`, decomposed over the
/// *shrunken* world) from the epoch-0 checkpoints (decomposed over the
/// *original* world, `old_world`): every global interior plane is
/// restored from its old owner's validated checkpoint via
/// `enqueue_restore_buffer`; shell and physical boundary planes keep
/// their initial values (the stencil never writes them). The result lands
/// in `target` bitwise-identical to the state the old world checkpointed.
fn restore_slab(
    old_world: &HimenoConfig,
    cx2: &RankCx,
    q2: &CommandQueue,
    storage: &SimStorage,
    slot: usize,
    target: &Buffer,
) {
    let (rt2, actor, slab2, start2) = (cx2.rt, &cx2.p.actor, &cx2.slab, cx2.slab.start);
    let mut assembled = init_planes(old_world.size, start2 - 1, start2 + slab2.n + 1);
    let plane_f32 = slab2.mj * slab2.mk;
    let old_slabs: Vec<Slab> = (0..old_world.nodes)
        .map(|g| Slab::new(old_world, g))
        .collect();
    let scratch_bytes = old_slabs
        .iter()
        .map(Slab::slab_bytes)
        .max()
        .expect("at least one rank");
    let scratch = rt2.context().create_buffer(scratch_bytes);
    for (g, s0) in old_slabs.iter().enumerate() {
        // Intersection of old rank g's interior planes with the planes
        // (ghosts included) the new slab needs.
        let lo = (start2 - 1).max(s0.start);
        let hi = (start2 + slab2.n + 1).min(s0.start + s0.n);
        if lo >= hi {
            continue;
        }
        let (bytes, path) = (s0.slab_bytes(), ckpt_path(0, g, slot));
        let e = rt2
            .enqueue_restore_buffer(q2, &scratch, 0, bytes, storage, path, &[], actor)
            .expect("enqueue restore");
        e.wait_result(actor).expect("agreed checkpoint restores");
        let payload = scratch.load(0, bytes).expect("range checked");
        let f = payload.as_f32();
        for gp in lo..hi {
            let src = (gp - (s0.start - 1)) * plane_f32;
            let dst = (gp - (start2 - 1)) * plane_f32;
            assembled[dst..dst + plane_f32].copy_from_slice(&f[src..src + plane_f32]);
        }
    }
    target
        .store(0, f32_as_bytes(&assembled))
        .expect("slab fits");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::tests::{assert_lands_the_table, edge_allocations, same_allocation};
    use crate::{interior_checksum, reference_jacobi};

    fn reference_checksum(size: GridSize, iters: usize) -> (f64, f64) {
        let r = reference_jacobi(size, iters);
        let (mi, mj, mk) = size.dims();
        (interior_checksum(&r.p, mj, mk, 1..mi - 1), r.gosa)
    }

    fn cfg(nodes: usize, iters: usize) -> RecoverConfig {
        cfg_on(GridSize::Xs, nodes, iters)
    }

    fn cfg_on(size: GridSize, nodes: usize, iters: usize) -> RecoverConfig {
        RecoverConfig {
            size,
            iters,
            sys: SystemConfig::cichlid(),
            nodes,
            ckpt_every: 2,
        }
    }

    #[test]
    fn fault_free_run_matches_reference() {
        let iters = 4;
        let res = run_himeno_recover(cfg(3, iters), FaultPlan::none());
        assert_eq!(res.survivors, 3);
        assert!(!res.recovered);
        assert_eq!(res.resumed_from, None);
        let (ref_sum, ref_gosa) = reference_checksum(GridSize::Xs, iters);
        assert!(
            (res.checksum - ref_sum).abs() / ref_sum < 1e-10,
            "checksum {} vs reference {ref_sum}",
            res.checksum
        );
        assert!(
            (res.gosa - ref_gosa).abs() / ref_gosa < 1e-9,
            "gosa {} vs reference {ref_gosa}",
            res.gosa
        );
    }

    #[test]
    fn kill_mid_run_shrinks_restores_and_converges() {
        let iters = 6;
        // Probe the fault-free schedule, then kill rank 1 mid-loop.
        let probe = run_himeno_recover(cfg(4, iters), FaultPlan::none());
        let t_kill = probe.elapsed_ns / 2;
        let res = run_himeno_recover(cfg(4, iters), FaultPlan::none().with_node_down(1, t_kill));
        assert_eq!(res.survivors, 3, "one rank died");
        assert!(res.recovered, "survivors went through shrink+restore");
        assert!(
            res.resumed_from.is_some(),
            "at least one checkpoint slot was globally valid"
        );
        assert!(res.transfer_faults.proc_failures > 0);
        let (ref_sum, ref_gosa) = reference_checksum(GridSize::Xs, iters);
        assert!(
            (res.checksum - ref_sum).abs() / ref_sum < 1e-10,
            "checksum {} vs reference {ref_sum}",
            res.checksum
        );
        assert!(
            (res.gosa - ref_gosa).abs() / ref_gosa < 1e-9,
            "gosa {} vs reference {ref_gosa}",
            res.gosa
        );
    }

    /// Two interior planes over four ranks: ranks 2 and 3 own none, hold
    /// empty buffers and checkpoint nothing, and after rank 1 dies the
    /// three survivors' rank 2 owns none and restores nothing.
    #[test]
    fn ranks_without_planes_checkpoint_and_restore_nothing() {
        let (size, iters) = (GridSize::Custom(4, 9, 9), 8);
        let probe = run_himeno_recover(cfg_on(size, 4, iters), FaultPlan::none());
        let t_kill = probe.elapsed_ns / 2;
        let res = run_himeno_recover(
            cfg_on(size, 4, iters),
            FaultPlan::none().with_node_down(1, t_kill),
        );
        assert_eq!((probe.survivors, probe.recovered), (4, false));
        assert_eq!((res.survivors, res.recovered), (3, true));
        assert_eq!(
            res.resumed_from,
            Some(1),
            "slot 1 validates without ranks 2 and 3"
        );
        let (ref_sum, ref_gosa) = reference_checksum(size, iters);
        for r in [&probe, &res] {
            assert!((r.checksum - ref_sum).abs() / ref_sum < 1e-10);
            assert!((r.gosa - ref_gosa).abs() / ref_gosa < 1e-9);
        }
    }

    /// After a kill, the survivors re-decompose the same grid over the
    /// shrunk communicator from the run's table: every edge plane the
    /// shrunk world's slabs land is the table's allocation of it, and a
    /// plane that was an edge before the kill too is the very allocation
    /// the old world's slabs landed.
    #[test]
    fn the_shrunk_world_lands_the_runs_initial_planes() {
        const T_KILL: SimNs = 1_000;
        let c = cfg(4, 2);
        let hcfg = c.himeno();
        let table = InitPlanes::new(c.size);
        let plan = FaultPlan::none().with_node_down(1, T_KILL);
        let res = run_world_faulty(c.sys.cluster.clone(), c.nodes, plan, move |p: Process| {
            let rt = ClMpi::new(&p, hcfg.sys.clone());
            let cx = RankCx::new(&hcfg, &p, &rt, p.rank(), Residuals::Every, &table);
            let before = edge_allocations(&cx);
            assert_lands_the_table(&cx, &before, &table, &format!("rank {}", p.rank()));
            p.actor.advance_until(2 * T_KILL);
            rt.shutdown(&p.actor);
            if p.comm.world().node_down_at(p.rank(), p.actor.now_ns()) {
                return None;
            }
            let sub = shrink(&rt, &p);
            let rt2 = ClMpi::with_comm(sub.clone(), hcfg.sys.clone());
            let cfg2 = HimenoConfig {
                nodes: sub.size(),
                ..hcfg.clone()
            };
            let cx2 = RankCx::new(&cfg2, &p, &rt2, sub.rank(), Residuals::Every, &table);
            let after = edge_allocations(&cx2);
            assert_lands_the_table(&cx2, &after, &table, &format!("survivor {}", sub.rank()));
            rt2.shutdown(&p.actor);
            Some((before, after))
        });
        let survivors: Vec<_> = res.outputs.iter().flatten().collect();
        assert_eq!(survivors.len(), 3, "rank 1 died");
        let mut kept = 0;
        for (_, after) in &survivors {
            for (g, now) in after.iter().filter(|(_, a)| a[0].is_some()) {
                let then = res.outputs.iter().flatten().flat_map(|(b, _)| b);
                for (_, was) in then.filter(|(h, w)| h == g && w[0].is_some()) {
                    let same = now.iter().zip(was).all(|(a, b)| same_allocation(a, b));
                    assert!(same, "plane {g}");
                    kept += 1;
                }
            }
        }
        assert!(kept > 0, "no edge plane was an edge before and after");
    }

    #[test]
    fn kill_before_first_checkpoint_restarts_from_init() {
        let iters = 4;
        // Kill inside iteration 0 — after the warm-up barrier (kills
        // must land in the timed loop) but before any checkpoint slot
        // completes: the agreement mask comes back empty and the
        // survivors restart from the initial state.
        let probe = run_himeno_recover(cfg(3, iters), FaultPlan::none());
        let t_kill = probe.elapsed_ns / 8;
        let res = run_himeno_recover(cfg(3, iters), FaultPlan::none().with_node_down(2, t_kill));
        assert_eq!(res.survivors, 2);
        assert!(res.recovered);
        assert_eq!(
            res.resumed_from, None,
            "no slot survived such an early kill"
        );
        let (ref_sum, ref_gosa) = reference_checksum(GridSize::Xs, iters);
        assert!(
            (res.checksum - ref_sum).abs() / ref_sum < 1e-10,
            "checksum {} vs reference {ref_sum}",
            res.checksum
        );
        assert!((res.gosa - ref_gosa).abs() / ref_gosa < 1e-9);
    }

    /// `ckpt_every: 0` never checkpoints: a kill mid-run leaves no slot,
    /// and the survivors restart from the initial field.
    #[test]
    fn never_checkpointing_recovers_from_the_initial_field() {
        let iters = 6;
        let never = || RecoverConfig {
            ckpt_every: 0,
            ..cfg(4, iters)
        };
        let probe = run_himeno_recover(never(), FaultPlan::none());
        let t_kill = probe.elapsed_ns / 2;
        let res = run_himeno_recover(never(), FaultPlan::none().with_node_down(1, t_kill));
        assert_eq!((probe.survivors, probe.recovered), (4, false));
        assert_eq!((res.survivors, res.recovered), (3, true));
        assert_eq!(res.resumed_from, None, "nothing was checkpointed");
        let (ref_sum, ref_gosa) = reference_checksum(GridSize::Xs, iters);
        for r in [&probe, &res] {
            assert!(
                (r.checksum - ref_sum).abs() / ref_sum < 1e-10,
                "checksum {} vs reference {ref_sum}",
                r.checksum
            );
            assert!(
                (r.gosa - ref_gosa).abs() / ref_gosa < 1e-9,
                "gosa {} vs reference {ref_gosa}",
                r.gosa
            );
        }
    }

    #[test]
    #[ignore = "Himeno M acceptance run: minutes in debug builds; run with --release"]
    fn himeno_m_kill_and_recover_acceptance() {
        let c = RecoverConfig {
            size: GridSize::M,
            iters: 4,
            sys: SystemConfig::ricc(),
            nodes: 4,
            ckpt_every: 2,
        };
        let probe = run_himeno_recover(c.clone(), FaultPlan::none());
        let t_kill = probe.elapsed_ns / 2;
        let res = run_himeno_recover(c, FaultPlan::none().with_node_down(2, t_kill));
        assert_eq!(res.survivors, 3);
        assert!(res.recovered);
        let (ref_sum, ref_gosa) = reference_checksum(GridSize::M, 4);
        assert!((res.checksum - ref_sum).abs() / ref_sum < 1e-10);
        assert!((res.gosa - ref_gosa).abs() / ref_gosa < 1e-9);
    }
}
