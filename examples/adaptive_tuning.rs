//! The "automatic selection mechanism" of paper §V-B, taken one step
//! further: an online tuner probes pinned/mapped/pipelined once per
//! message-size class and locks in the measured winner — so the same
//! binary picks mapped on Cichlid and pinned on RICC with zero
//! configuration.
//!
//! Run: `cargo run --release --example adaptive_tuning`

use std::sync::Arc;

use clmpi::{AdaptiveSelector, ClMpi, SystemConfig};
use minimpi::run_world_sized;

fn tune_on(mk: fn() -> SystemConfig) {
    let sys = mk();
    let name = sys.cluster.name;
    let res = run_world_sized(sys.cluster.clone(), 2, move |p| {
        let rt = ClMpi::new(&p, mk());
        let sel = Arc::new(AdaptiveSelector::for_system(rt.config()));
        rt.set_adaptive(Some(sel.clone()));
        let q = rt.context().create_queue(0, format!("r{}", p.rank()));
        let size = 256 << 10;
        let buf = rt.context().create_buffer(size);
        for i in 0..8 {
            if p.rank() == 0 {
                rt.enqueue_send_buffer(&q, &buf, true, 0, size, 1, i, &[], &p.actor)
                    .unwrap();
            } else {
                rt.enqueue_recv_buffer(&q, &buf, true, 0, size, 0, i, &[], &p.actor)
                    .unwrap();
            }
            p.comm.barrier(&p.actor);
        }
        rt.shutdown(&p.actor);
        (p.rank() == 0).then(|| {
            let winner = sel.winner_for(size).map(|s| s.name());
            (winner, rt.obs_counters().report())
        })
    });
    let (winner, report) = res.outputs[0].clone().expect("rank 0 reports");
    println!(
        "== {name}: tuner converged on {:?} for 256 KiB transfers",
        winner
    );
    println!("{report}");
}

fn main() {
    println!("probing pinned / mapped / pipelined once each, then locking the winner:\n");
    tune_on(SystemConfig::cichlid);
    tune_on(SystemConfig::ricc);
    println!("(matches the paper's per-system policy: mapped on Cichlid, pinned on RICC)");
}
