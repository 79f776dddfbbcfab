//! The workload table, and what one set-up and one repetition of each
//! workload are.
//!
//! The harness depends only on the entry points the roadmap intends to
//! keep (`run_himeno`, `run_nanopowder`, `run_world_sized`/`_faulty`,
//! `ClMpi::enqueue_*`, `ObsSummary`), never on the `*_mode` twins: the
//! executor is chosen by `SIM_EXEC_MODE` in the child's environment.

use std::sync::Arc;

use clmpi::{ObsSummary, SystemConfig};
use himeno::{GridSize, HimenoConfig, Variant};
use minimpi::{FaultCounts, FaultPlan};
use nanopowder::{NanoConfig, NanoVariant};
use simtime::Trace;

use crate::opmix;
use crate::spans;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_himeno(ClMpi, M, iters, ricc, nodes)`.
    Himeno {
        nodes: usize,
        iters: usize,
    },
    /// `run_nanopowder(ClMpi, sections, steps, ricc, nodes)`.
    Nanopowder {
        nodes: usize,
        sections: usize,
        steps: usize,
    },
    OpMix {
        lossy: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers do most of its work.
    pub why: &'static str,
    pub kind: Kind,
    /// Run the child on the event core (`SIM_EXEC_MODE=events`).
    pub events_core: bool,
}

/// Repetitions a timed region holds at least, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "himeno_paper",
        why: "Fig. 9 shape (Himeno M, 8 ranks, 16 iters): stencil arithmetic does most of the work, the scheduler little",
        kind: Kind::Himeno { nodes: 8, iters: 16 },
        events_core: false,
    },
    Workload {
        name: "himeno_scale",
        why: "Himeno M at 256 ranks on the event core: simtime/minimpi wake-up and launch cost do the work, kernels ~5%",
        kind: Kind::Himeno { nodes: 256, iters: 2 },
        events_core: true,
    },
    Workload {
        name: "nanopowder_w16",
        why: "Fig. 10 shape (16.8 MB/step ring broadcast, 16 ranks): payload allocation and copying in minicl/simnet/clmpi::collective",
        kind: Kind::Nanopowder { nodes: 16, sections: 2048, steps: 1 },
        events_core: false,
    },
    Workload {
        name: "op_mix_clean",
        why: "seeded ~400 small commands over the whole clmpi surface on two CXL pods: per-op cost in engine, queue, p2p and span recording",
        kind: Kind::OpMix { lossy: false },
        events_core: false,
    },
    Workload {
        name: "op_mix_lossy",
        why: "the same schedule under 8% data-plane drops with jitter: chunk deadlines, retry/backoff timers instead of the straight path",
        kind: Kind::OpMix { lossy: true },
        events_core: false,
    },
];

/// True for names made of `[A-Za-z0-9_.-]` only, starting with a letter
/// or digit, at most 64 long (the benchmark contract's name rule).
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn find(name: &str) -> Option<&'static Workload> {
    if !valid_name(name) {
        return None;
    }
    WORKLOADS.iter().find(|w| w.name == name)
}

/// RICC's cost model with the node inventory grown to admit `nodes`.
pub fn ricc_sized(nodes: usize) -> SystemConfig {
    let mut sys = SystemConfig::ricc();
    sys.cluster.nodes = sys.cluster.nodes.max(nodes);
    sys
}

/// Inputs and reference solution of one workload.
pub enum Prepared {
    Himeno {
        cfg: HimenoConfig,
        ref_checksum: f64,
        ref_gosa: f64,
    },
    Nanopowder {
        cfg: NanoConfig,
        reference: Vec<f32>,
    },
    OpMix {
        program: Arc<opmix::Program>,
        plan: FaultPlan,
    },
}

/// What one repetition produced.
pub struct RepOutcome {
    /// Simulated time of the repetition.
    pub virtual_ns: u64,
    /// Scheduler machine transitions (`sched_events`).
    pub events: u64,
    /// The workload's fixed op count.
    pub ops: u64,
    /// Ops that failed their own check (reference or payload).
    pub failed: u64,
    /// Result bits: must be equal on every repetition.
    pub fingerprint: u64,
    pub fault_counts: FaultCounts,
    pub trace: Option<Trace>,
    /// Built every repetition on `op_mix_*` (its hash is the check).
    pub summary: Option<ObsSummary>,
}

/// Interior-only checksum of a full pressure field, as the distributed
/// variants sum it.
fn interior_checksum(p: &[f32], size: GridSize) -> f64 {
    let (mi, mj, mk) = size.dims();
    let mut sum = 0.0f64;
    for i in 1..mi - 1 {
        for j in 1..mj - 1 {
            let row = (i * mj + j) * mk;
            sum += p[row + 1..row + mk - 1]
                .iter()
                .map(|x| x.abs() as f64)
                .sum::<f64>();
        }
    }
    sum
}

impl Workload {
    /// Generate inputs and solve the serial reference. `corrupt` flips
    /// one expected value (self-test).
    pub fn prepare(&self, seed: u64, corrupt: bool) -> Prepared {
        match self.kind {
            Kind::Himeno { nodes, iters } => {
                let size = GridSize::M;
                let reference = {
                    let _s = spans::enter("himeno.reference");
                    himeno::reference_jacobi(size, iters)
                };
                let mut ref_checksum = interior_checksum(&reference.p, size);
                if corrupt {
                    ref_checksum *= 1.0 + 1e-6;
                }
                Prepared::Himeno {
                    cfg: HimenoConfig {
                        size,
                        iters,
                        sys: ricc_sized(nodes),
                        nodes,
                        strategy: None,
                        halo: Default::default(),
                    },
                    ref_checksum,
                    ref_gosa: reference.gosa,
                }
            }
            Kind::Nanopowder {
                nodes,
                sections,
                steps,
            } => {
                let mut reference = {
                    let _s = spans::enter("nanopowder.reference");
                    nanopowder::reference_simulation(sections, steps)
                };
                if corrupt {
                    reference[0] = f32::from_bits(reference[0].to_bits() ^ 1);
                }
                Prepared::Nanopowder {
                    cfg: NanoConfig {
                        sections,
                        steps,
                        sys: ricc_sized(nodes),
                        nodes,
                    },
                    reference,
                }
            }
            Kind::OpMix { lossy } => {
                let program = opmix::Program::generate(seed);
                Prepared::OpMix {
                    program: Arc::new(if corrupt {
                        program.corrupted()
                    } else {
                        program
                    }),
                    plan: if lossy {
                        opmix::lossy_plan(seed)
                    } else {
                        FaultPlan::none()
                    },
                }
            }
        }
    }
}

impl Prepared {
    /// Run one repetition and check its output against the reference.
    pub fn rep(&self) -> RepOutcome {
        match self {
            Prepared::Himeno {
                cfg,
                ref_checksum,
                ref_gosa,
            } => {
                let r = {
                    let _s = spans::enter("himeno.run").adopt_threads();
                    himeno::run_himeno(Variant::ClMpi, cfg.clone())
                };
                let _s = spans::enter("check");
                // Per-rank partial sums add in another order than the
                // serial loop: tolerance against the reference here,
                // bitwise against the warm-up repetition in the caller.
                let ok = ((r.checksum - ref_checksum) / ref_checksum).abs() < 1e-10
                    && ((r.gosa - ref_gosa) / ref_gosa).abs() < 1e-9;
                let ops = (cfg.nodes * cfg.iters) as u64;
                RepOutcome {
                    virtual_ns: r.elapsed_ns,
                    events: r.sched_events,
                    ops,
                    failed: if ok { 0 } else { ops },
                    fingerprint: r.checksum.to_bits() ^ r.gosa.to_bits().rotate_left(32),
                    fault_counts: r.fault_counts,
                    trace: Some(r.trace),
                    summary: None,
                }
            }
            Prepared::Nanopowder { cfg, reference } => {
                let r = {
                    let _s = spans::enter("nanopowder.run").adopt_threads();
                    nanopowder::run_nanopowder(NanoVariant::ClMpi, cfg.clone())
                };
                let _s = spans::enter("check");
                let bits = |v: &[f32]| {
                    clmpi::obs::fnv1a(&v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>())
                };
                let ok = r.final_n.len() == reference.len()
                    && r.final_n
                        .iter()
                        .zip(reference)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                let ops = (cfg.nodes * cfg.steps) as u64;
                RepOutcome {
                    virtual_ns: r.total_ns,
                    events: r.sched_events,
                    ops,
                    failed: if ok { 0 } else { ops },
                    fingerprint: bits(&r.final_n),
                    fault_counts: FaultCounts::default(),
                    trace: None,
                    summary: None,
                }
            }
            Prepared::OpMix { program, plan } => {
                let (res, summary) = opmix::run(program, plan);
                let _s = spans::enter("check");
                let enqueued: u64 = res.outputs.iter().map(|o| o.commands).sum();
                let mut failed: u64 = res.outputs.iter().map(|o| o.failed).sum();
                if enqueued != program.commands {
                    failed = program.commands;
                }
                RepOutcome {
                    virtual_ns: res.elapsed_ns,
                    events: res.events,
                    ops: program.commands,
                    failed,
                    fingerprint: summary.hash(),
                    fault_counts: res.fault_counts,
                    trace: Some(res.trace),
                    summary: Some(summary),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_valid_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name), Some(w));
        }
    }

    #[test]
    fn names_outside_the_alphabet_are_rejected() {
        for bad in [
            "",
            "op mix",
            "op/mix",
            "../x",
            "himeno_paper\n",
            "-lead",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
            assert_eq!(find(bad), None);
        }
        assert!(valid_name("a.b-c_9"));
        assert_eq!(find("no_such_workload"), None);
    }

    #[test]
    fn interior_checksum_skips_the_shell() {
        let size = GridSize::Custom(3, 3, 4);
        let mut p = vec![100.0f32; 3 * 3 * 4];
        // The only interior points: (1, 1, 1) and (1, 1, 2).
        p[(3 + 1) * 4 + 1] = -2.0;
        p[(3 + 1) * 4 + 2] = 0.5;
        assert_eq!(interior_checksum(&p, size), 2.5);
    }
}
