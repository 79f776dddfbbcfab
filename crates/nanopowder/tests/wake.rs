//! Nanopowder is a task world: every rank body runs as a task, so a rank
//! waits by being parked as a machine on what its last poll read, no rank
//! thread exists to park, and one thread drives the world — what the
//! clock counts is decided by the model alone.

use clmpi::SystemConfig;
use nanopowder::{run_nanopowder, NanoConfig, NanoVariant};

fn world(variant: NanoVariant) -> nanopowder::NanoResult {
    run_nanopowder(
        variant,
        NanoConfig {
            sections: 96,
            steps: 2,
            sys: SystemConfig::ricc(),
            nodes: 4,
        },
    )
}

#[test]
fn every_variant_runs_its_ranks_as_tasks_and_repeats_its_wake_accounting() {
    for variant in [
        NanoVariant::Baseline,
        NanoVariant::ClMpi,
        NanoVariant::ClMpiFanout,
    ] {
        let name = variant.name();
        let r = world(variant);
        for (label, w) in &r.wake.labels {
            assert!(
                *label == "launcher" || w.parked == 0,
                "{name}: only the launcher parks, but `{label}` did: {w:?}"
            );
        }
        assert!(r.wake.sched_passes > 0, "{name}: no pass ran? {:?}", r.wake);
        let again = world(variant);
        assert_eq!(
            (again.total_ns, again.sched_events, &again.final_n),
            (r.total_ns, r.sched_events, &r.final_n),
            "{name}: a second run's result"
        );
        assert_eq!(again.wake, r.wake, "{name}: a second run's wake accounting");
    }
}
