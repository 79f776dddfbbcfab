//! A grid with a dimension below 3 has no interior point. Every solve
//! entry point says so once, on the calling thread, before a world
//! exists. Let through, `Custom(9, 3, 1)` wraps `mk - 2` inside a rank
//! (release: an `elapsed_ns` of 7e17; debug: an overflow panic) and
//! `Custom(9, 3, 0)` panics in `rank0` / `rank1` and poisons the clock
//! under the scheduler.
//!
//! `run_himeno_recover` refuses more than 64 checkpoint slots the same
//! way. A solve of zero iterations is not misuse: it returns the initial
//! field, as `reference_jacobi` does.
//!
//! The rejection test installs a panic hook, which is process-wide: every
//! other test in this file must panic nowhere.

use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use clmpi::SystemConfig;
use himeno::{
    interior_checksum, reference_jacobi, run_himeno, run_himeno_recover, GridSize, HimenoConfig,
    RecoverConfig, Variant,
};
use minimpi::FaultPlan;

#[test]
fn a_grid_without_interior_is_rejected_on_the_calling_thread() {
    // Name of every thread that panics, in order.
    let panicked: Arc<Mutex<Vec<String>>> = Arc::default();
    let (log, default_hook) = (panicked.clone(), take_hook());
    set_hook(Box::new(move |info| {
        let name = std::thread::current().name().unwrap_or("").to_owned();
        if let Ok(mut log) = log.lock() {
            log.push(name);
        }
        default_hook(info);
    }));
    let me = std::thread::current().name().unwrap_or("").to_owned();

    let rejected = |what: &str, reason: &str, call: &dyn Fn()| {
        let payload = catch_unwind(AssertUnwindSafe(call)).err();
        let msg = payload
            .as_ref()
            .and_then(|p| p.downcast_ref::<String>())
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains(reason), "{what}: {msg:?}");
        let threads = panicked
            .lock()
            .map_or(Vec::new(), |mut log| std::mem::take(&mut *log));
        assert_eq!(threads, std::slice::from_ref(&me), "{what}");
    };
    let no_interior = "has no interior point";
    for (mi, mj, mk) in [(9, 3, 2), (9, 3, 1), (9, 3, 0), (2, 3, 3)] {
        let size = GridSize::Custom(mi, mj, mk);
        let (iters, sys, nodes) = (2, SystemConfig::cichlid(), 2);
        let what = |call: &str| format!("{call} on {size:?}");
        rejected(&what("run_himeno"), no_interior, &|| {
            let cfg = HimenoConfig {
                size,
                iters,
                sys: sys.clone(),
                nodes,
                strategy: None,
                halo: Default::default(),
            };
            run_himeno(Variant::ClMpi, cfg);
        });
        rejected(&what("run_himeno_recover"), no_interior, &|| {
            let cfg = RecoverConfig {
                size,
                iters,
                sys: sys.clone(),
                nodes,
                ckpt_every: 1,
            };
            run_himeno_recover(cfg, FaultPlan::none());
        });
        rejected(&what("reference_jacobi"), no_interior, &|| {
            reference_jacobi(size, iters);
        });
    }
    // 65 checkpointed iterations, whichever way: the 65th slot has no bit
    // in the survivors' agreement mask.
    for (iters, ckpt_every) in [(65, 1), (131, 2)] {
        let what = format!("run_himeno_recover, {iters} iterations, ckpt_every {ckpt_every}");
        rejected(&what, "at most 64", &|| {
            let cfg = RecoverConfig {
                size: GridSize::Xs,
                iters,
                sys: SystemConfig::cichlid(),
                nodes: 2,
                ckpt_every,
            };
            run_himeno_recover(cfg, FaultPlan::none());
        });
    }
}

/// Zero iterations return `reference_jacobi(size, 0)`: a `gosa` of 0.0
/// and the initial field, on every variant and the recovery harness.
#[test]
fn zero_iterations_return_the_initial_field() {
    let size = GridSize::Xs;
    let (mi, mj, mk) = size.dims();
    let r = reference_jacobi(size, 0);
    assert_eq!(r.gosa.to_bits(), 0.0f64.to_bits());
    let want = interior_checksum(&r.p, mj, mk, 1..mi - 1);
    let close = |what: &str, gosa: f64, checksum: f64| {
        assert_eq!(gosa.to_bits(), 0.0f64.to_bits(), "{what}: gosa");
        assert!(
            (checksum - want).abs() / want < 1e-10,
            "{what}: checksum {checksum} vs reference {want}"
        );
    };
    let variants = [
        Variant::Serial,
        Variant::HandOptimized,
        Variant::ClMpi,
        Variant::ClMpiBlocked,
        Variant::GpuAwareMpi,
    ];
    for variant in variants {
        let cfg = HimenoConfig {
            size,
            iters: 0,
            sys: SystemConfig::cichlid(),
            nodes: 3,
            strategy: None,
            halo: Default::default(),
        };
        let res = run_himeno(variant, cfg);
        close(variant.name(), res.gosa, res.checksum);
    }
    let cfg = RecoverConfig {
        size,
        iters: 0,
        sys: SystemConfig::cichlid(),
        nodes: 3,
        ckpt_every: 1,
    };
    let res = run_himeno_recover(cfg, FaultPlan::none());
    close("run_himeno_recover", res.gosa, res.checksum);
}
