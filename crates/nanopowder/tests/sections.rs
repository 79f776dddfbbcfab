//! The section count the model can represent: `K² < 2³¹`, so every index
//! product of the coefficient table is an exact `i32`. Each entry point
//! refuses more on the calling thread with one message, before anything
//! is allocated or a world exists.

use clmpi::SystemConfig;
use nanopowder::{reference_simulation, run_nanopowder, NanoConfig, NanoModel, NanoVariant};

fn cfg(nodes: usize, sections: usize) -> NanoConfig {
    NanoConfig {
        sections,
        steps: 1,
        sys: SystemConfig::ricc(),
        nodes,
    }
}

#[test]
#[should_panic(expected = "nanopowder takes at most 46340 sections (K² < 2³¹), got 46341")]
fn the_model_refuses_46341_sections() {
    let _ = NanoModel::new(46_341);
}

#[test]
#[should_panic(expected = "nanopowder takes at most 46340 sections (K² < 2³¹), got 46341")]
fn the_reference_refuses_46341_sections() {
    let _ = reference_simulation(46_341, 1);
}

/// Two nodes do not divide 46,341, so a run that reached the
/// decomposition check would name that instead.
#[test]
#[should_panic(expected = "nanopowder takes at most 46340 sections (K² < 2³¹), got 46341")]
fn a_run_refuses_46341_sections_before_anything_else() {
    run_nanopowder(NanoVariant::ClMpi, cfg(2, 46_341));
}

/// 46,340 passes the bound and stops at the next check, which three nodes
/// fail, so nothing the size of the table is ever allocated.
#[test]
#[should_panic(expected = "nodes (3) must divide sections (46340)")]
fn a_run_accepts_46340_sections() {
    run_nanopowder(NanoVariant::ClMpi, cfg(3, 46_340));
}
