//! Distributed-vs-reference validation and performance-shape checks.

use clmpi::SystemConfig;
use nanopowder::{reference_simulation, run_nanopowder, NanoConfig, NanoResult, NanoVariant};

fn cfg(nodes: usize, sections: usize, steps: usize) -> NanoConfig {
    NanoConfig {
        sections,
        steps,
        sys: SystemConfig::ricc(),
        nodes,
    }
}

fn run(variant: NanoVariant, nodes: usize) -> NanoResult {
    run_nanopowder(variant, cfg(nodes, 48, 4))
}

#[test]
fn baseline_matches_reference_single_node() {
    let res = run(NanoVariant::Baseline, 1);
    assert_eq!(res.final_n, reference_simulation(48, 4));
}

#[test]
fn baseline_matches_reference_four_nodes() {
    let res = run(NanoVariant::Baseline, 4);
    assert_eq!(res.final_n, reference_simulation(48, 4));
}

#[test]
fn clmpi_matches_reference_two_nodes() {
    let res = run(NanoVariant::ClMpi, 2);
    assert_eq!(res.final_n, reference_simulation(48, 4));
}

#[test]
fn clmpi_matches_reference_six_nodes() {
    let res = run(NanoVariant::ClMpi, 6);
    assert_eq!(res.final_n, reference_simulation(48, 4));
}

#[test]
fn clmpi_matches_reference_over_a_multi_chunk_broadcast_every_step() {
    // K = 512 is 1 MiB of coefficients: a ring broadcast cut into 13
    // chunks at 4 nodes, so every relay lands a step's chunks over the
    // previous step's before the kernel loads its row block.
    let res = run_nanopowder(NanoVariant::ClMpi, cfg(4, 512, 3));
    assert_eq!(res.final_n, reference_simulation(512, 3));
}

#[test]
fn clmpi_matches_reference_when_row_blocks_straddle_chunks() {
    // K = 520 is not a multiple of the root's 16-row blocks, so the last
    // block it lands in its stage is 8 rows. Its device buffer shares the
    // blocks, and the 1,081,600 B ring broadcast's chunks cut across
    // block boundaries, so the root's chunk loads read across extents.
    let res = run_nanopowder(NanoVariant::ClMpi, cfg(4, 520, 2));
    assert_eq!(res.final_n, reference_simulation(520, 2));
}

#[test]
fn variants_agree_with_each_other() {
    let a = run(NanoVariant::Baseline, 3);
    let b = run(NanoVariant::ClMpi, 3);
    assert_eq!(a.final_n, b.final_n, "physics independent of transport");
}

#[test]
fn clmpi_distribution_is_faster_with_large_coefficients() {
    // With a realistically-sized coefficient volume the pipelined
    // MPI_CL_MEM path must beat recv-then-write (Fig. 10's gap).
    // sections=720 → ~2 MB of coefficients at 4 nodes per rank per step.
    let c = NanoConfig {
        sections: 720,
        steps: 2,
        sys: SystemConfig::ricc(),
        nodes: 4,
    };
    let base = run_nanopowder(NanoVariant::Baseline, c.clone());
    let cl = run_nanopowder(NanoVariant::ClMpi, c);
    assert!(
        cl.total_ns < base.total_ns,
        "clMPI {} < baseline {}",
        cl.total_ns,
        base.total_ns
    );
}

#[test]
fn step_time_scales_down_with_nodes_then_flattens() {
    // Needs a section count at which coagulation dominates the 8 ms
    // serial host phase, or there is nothing to parallelize.
    let t1 = run_nanopowder(NanoVariant::ClMpi, cfg(1, 1680, 2)).step_ns;
    let t4 = run_nanopowder(NanoVariant::ClMpi, cfg(4, 1680, 2)).step_ns;
    assert!(t4 < t1, "parallel speedup: {t4} vs {t1}");
}

#[test]
#[should_panic(expected = "must divide")]
fn indivisible_decomposition_rejected() {
    run_nanopowder(NanoVariant::Baseline, cfg(7, 48, 1));
}
