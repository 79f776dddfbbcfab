//! A grid with a dimension below 3 has no interior point. Every solve
//! entry point says so once, on the calling thread, before a world
//! exists. Let through, `Custom(9, 3, 1)` wraps `mk - 2` inside a rank
//! (release: an `elapsed_ns` of 7e17; debug: an overflow panic) and
//! `Custom(9, 3, 0)` panics in `rank0` / `rank1` and poisons the clock
//! under the scheduler.
//!
//! This file holds one test because it installs a panic hook, which is
//! process-wide.

use std::panic::{catch_unwind, set_hook, take_hook, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use clmpi::SystemConfig;
use himeno::{
    reference_jacobi, run_himeno, run_himeno_recover, GridSize, HimenoConfig, RecoverConfig,
    Variant,
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

    let rejected = |what: &str, size: GridSize, call: &dyn Fn()| {
        let payload = catch_unwind(AssertUnwindSafe(call)).err();
        let msg = payload
            .as_ref()
            .and_then(|p| p.downcast_ref::<String>())
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("has no interior point"),
            "{what} on {size:?}: {msg:?}"
        );
        let threads = panicked
            .lock()
            .map_or(Vec::new(), |mut log| std::mem::take(&mut *log));
        assert_eq!(threads, std::slice::from_ref(&me), "{what} on {size:?}");
    };
    for (mi, mj, mk) in [(9, 3, 2), (9, 3, 1), (9, 3, 0), (2, 3, 3)] {
        let size = GridSize::Custom(mi, mj, mk);
        let (iters, sys, nodes) = (2, SystemConfig::cichlid(), 2);
        rejected("run_himeno", size, &|| {
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
        rejected("run_himeno_recover", size, &|| {
            let cfg = RecoverConfig {
                size,
                iters,
                sys: sys.clone(),
                nodes,
                ckpt_every: 1,
            };
            run_himeno_recover(cfg, FaultPlan::none());
        });
        rejected("reference_jacobi", size, &|| {
            reference_jacobi(size, iters);
        });
    }
}
