//! A run of zero steps: the world starts and stops, and nothing is
//! distributed or integrated.

use clmpi::SystemConfig;
use nanopowder::{reference_simulation, run_nanopowder, NanoConfig, NanoVariant};

/// No step has a step time, and the spectrum is the initial one.
#[test]
fn zero_steps_report_no_step_time_and_the_initial_spectrum() {
    for variant in [
        NanoVariant::Baseline,
        NanoVariant::ClMpi,
        NanoVariant::ClMpiFanout,
    ] {
        let res = run_nanopowder(
            variant,
            NanoConfig {
                sections: 48,
                steps: 0,
                sys: SystemConfig::ricc(),
                nodes: 2,
            },
        );
        assert_eq!(res.step_ns, 0, "{}", variant.name());
        assert_eq!(
            res.final_n,
            reference_simulation(48, 0),
            "{}",
            variant.name()
        );
    }
}
